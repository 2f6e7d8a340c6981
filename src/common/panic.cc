#include "common/panic.h"

#include <cstdio>
#include <cstdlib>

#include "common/trace.h"

namespace rmc {

void panic(const char* file, int line, const std::string& message) {
  std::fprintf(stderr, "[rmc panic] %s:%d: %s\n", file, line, message.c_str());
  // Post-mortem context: the last protocol events before the invariant
  // broke, as JSONL for machine consumption.
  const trace::HistoryRing& history = trace::history();
  if (history.total() > 0) {
    std::fprintf(stderr,
                 "[rmc panic] protocol history: last %zu of %llu events follow\n",
                 history.size(), static_cast<unsigned long long>(history.total()));
    history.dump_jsonl(stderr);
  }
  std::fflush(stderr);
  std::abort();
}

}  // namespace rmc
