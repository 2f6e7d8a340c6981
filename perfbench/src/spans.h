// Traced mode: timing decorators around the program's public runtime
// interfaces (src/runtime/runtime.h) and an in-memory span recorder.
//
// Every call into rmcast — a socket handler, a timer, a run_cost
// continuation — and every call out of it (send_to / send_ref) becomes a
// span. rmcast self time is the outermost rmcast spans' time minus the
// sends nested inside them. Spans of one transfer share a request id and
// are written out when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/runtime.h"

namespace perfbench {

enum class SpanKind : std::uint8_t { kHandler, kTimer, kRunCost, kSend };

const char* span_kind_name(SpanKind kind);

struct Span {
  std::int64_t start_ns = 0;  // since the recorder's epoch
  std::int64_t end_ns = 0;
  std::uint32_t request = 0;  // transfer id
  std::int32_t parent = -1;   // index of the enclosing stored span, -1 = none
  SpanKind kind = SpanKind::kHandler;
};

struct SpanTotals {
  double rmcast_ns = 0.0;       // outermost rmcast spans, nested sends included
  double nested_send_ns = 0.0;  // sends inside an rmcast span
  double send_ns = 0.0;         // every send
  std::uint64_t sends = 0;
  std::uint64_t packets_handled = 0;  // socket handler invocations
};

class SpanRecorder {
 public:
  SpanRecorder();

  void set_request(std::uint32_t request) { request_ = request; }
  // Whether spans are kept (totals always accumulate). At most kCapacity
  // spans are kept; further ones are counted in dropped().
  void set_capture(bool on) { capture_ = on; }

  void open(SpanKind kind);
  void close();

  const SpanTotals& totals() const { return totals_; }
  void reset_totals() { totals_ = {}; }
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

  // One line per span: request,kind,start_ns,end_ns,parent.
  bool write_csv(const std::string& path) const;

 private:
  struct Open {
    SpanKind kind;
    std::int64_t start_ns;
    std::int32_t stored;  // index in spans_, or -1
  };
  std::int64_t now_ns() const;

  std::int64_t epoch_ns_ = 0;
  std::uint32_t request_ = 0;
  bool capture_ = false;
  static constexpr std::size_t kCapacity = 1'000'000;
  std::uint64_t dropped_ = 0;
  int rmcast_depth_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  SpanTotals totals_;
};

class SpanScope {
 public:
  SpanScope(SpanRecorder& recorder, SpanKind kind) : recorder_(recorder) {
    recorder_.open(kind);
  }
  ~SpanScope() { recorder_.close(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder& recorder_;
};

// Forwards to `inner`; timer and run_cost continuations run inside spans.
class TimedRuntime final : public rmc::rt::Runtime {
 public:
  TimedRuntime(rmc::rt::Runtime& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  rmc::sim::Time now() override { return inner_.now(); }
  rmc::rt::TimerId schedule_after(rmc::sim::Time delay, std::function<void()> fn) override;
  void cancel(rmc::rt::TimerId id) override { inner_.cancel(id); }
  void run_cost(rmc::sim::Time cost, std::function<void()> fn) override;

 private:
  rmc::rt::Runtime& inner_;
  SpanRecorder& recorder_;
};

// Forwards to `inner`; handlers and sends run inside spans.
class TimedSocket final : public rmc::rt::UdpSocket {
 public:
  TimedSocket(rmc::rt::UdpSocket& inner, SpanRecorder& recorder)
      : inner_(inner), recorder_(recorder) {}

  void send_to(const rmc::net::Endpoint& dst, rmc::BytesView payload) override;
  void send_ref(const rmc::net::Endpoint& dst, rmc::net::PayloadRef payload) override;
  void set_handler(Handler handler) override;
  rmc::net::Endpoint local_endpoint() const override { return inner_.local_endpoint(); }

 private:
  rmc::rt::UdpSocket& inner_;
  SpanRecorder& recorder_;
};

}  // namespace perfbench
