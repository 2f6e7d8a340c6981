#include "spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kHandler: return "rmcast.handler";
    case SpanKind::kTimer: return "rmcast.timer";
    case SpanKind::kRunCost: return "rmcast.run_cost";
    case SpanKind::kSend: return "send";
  }
  return "?";
}

SpanRecorder::SpanRecorder() : epoch_ns_(now_ns()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SpanRecorder::open(SpanKind kind) {
  const std::int64_t start = now_ns();
  std::int32_t stored = -1;
  if (capture_) {
    if (spans_.size() < kCapacity) {
      Span s;
      s.start_ns = start - epoch_ns_;
      s.request = request_;
      s.kind = kind;
      for (auto it = stack_.rbegin(); it != stack_.rend(); ++it) {
        if (it->stored >= 0) {
          s.parent = it->stored;
          break;
        }
      }
      stored = static_cast<std::int32_t>(spans_.size());
      spans_.push_back(s);
    } else {
      ++dropped_;
    }
  }
  if (kind != SpanKind::kSend) ++rmcast_depth_;
  stack_.push_back(Open{kind, start, stored});
}

void SpanRecorder::close() {
  const std::int64_t end = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const double dur = static_cast<double>(end - o.start_ns);
  if (o.stored >= 0) spans_[static_cast<std::size_t>(o.stored)].end_ns = end - epoch_ns_;
  if (o.kind == SpanKind::kSend) {
    totals_.send_ns += dur;
    ++totals_.sends;
    if (rmcast_depth_ > 0) totals_.nested_send_ns += dur;
    return;
  }
  if (o.kind == SpanKind::kHandler) ++totals_.packets_handled;
  if (--rmcast_depth_ == 0) totals_.rmcast_ns += dur;
}

bool SpanRecorder::write_csv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "request,kind,start_ns,end_ns,parent\n");
  for (const Span& s : spans_) {
    std::fprintf(out, "%u,%s,%lld,%lld,%d\n", s.request, span_kind_name(s.kind),
                 static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                 s.parent);
  }
  return std::fclose(out) == 0;
}

rmc::rt::TimerId TimedRuntime::schedule_after(rmc::sim::Time delay,
                                              std::function<void()> fn) {
  return inner_.schedule_after(delay, [this, fn = std::move(fn)] {
    SpanScope span(recorder_, SpanKind::kTimer);
    fn();
  });
}

void TimedRuntime::run_cost(rmc::sim::Time cost, std::function<void()> fn) {
  inner_.run_cost(cost, [this, fn = std::move(fn)] {
    SpanScope span(recorder_, SpanKind::kRunCost);
    fn();
  });
}

void TimedSocket::send_to(const rmc::net::Endpoint& dst, rmc::BytesView payload) {
  SpanScope span(recorder_, SpanKind::kSend);
  inner_.send_to(dst, payload);
}

void TimedSocket::send_ref(const rmc::net::Endpoint& dst, rmc::net::PayloadRef payload) {
  SpanScope span(recorder_, SpanKind::kSend);
  inner_.send_ref(dst, std::move(payload));
}

void TimedSocket::set_handler(Handler handler) {
  inner_.set_handler([this, handler = std::move(handler)](const rmc::net::Endpoint& src,
                                                          rmc::BytesView payload) {
    SpanScope span(recorder_, SpanKind::kHandler);
    handler(src, payload);
  });
}

}  // namespace perfbench
