// Discrete-event simulation core.
//
// A Simulator executes events in (time, scheduling-order) order: events at
// equal times run FIFO, which makes every run deterministic — a property
// the reproduction leans on: the harness averages over seeds, not over
// scheduler noise.
//
// Two interchangeable event cores honor that contract:
//
//   * kPooledWheel (default) — slab-pooled event records with inline
//     small-buffer callback storage and generation-counted ids, organized
//     by a hierarchical timer wheel (sim/event_pool.h, sim/timer_wheel.h).
//     Scheduling does no allocation in steady state and cancel() is an
//     O(1) unlink, which is what the cancel/re-arm-heavy retransmission
//     and poll timers need.
//   * kLegacyHeap — the original std::function + binary-heap +
//     unordered_map implementation, kept as an executable specification:
//     tests/determinism_test.cc pins the two cores to identical traces,
//     and the BM_EventChurn microbenchmark gates the pooled core's speedup
//     against it.
//
// cancel() frees the event's callback immediately in both cores. The
// pooled wheel also unlinks and recycles the record at once; the legacy
// heap leaves a dead entry that is reaped when the scheduler reaches it.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "common/panic.h"
#include "sim/event_pool.h"
#include "sim/time.h"
#include "sim/timer_wheel.h"

namespace rmc::sim {

using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

enum class EventCoreKind : std::uint8_t {
  kPooledWheel,  // slab pool + hierarchical timer wheel (default)
  kLegacyHeap,   // std::function + priority_queue reference implementation
};

const char* event_core_name(EventCoreKind kind);

// Process-wide default core for newly constructed Simulators. Lets the
// parity suites flip every harness-built simulator without plumbing a
// parameter through Cluster/Testbed.
EventCoreKind default_event_core();
void set_default_event_core(EventCoreKind kind);

class Simulator {
 public:
  explicit Simulator(EventCoreKind core = default_event_core());
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  EventCoreKind core_kind() const { return core_; }
  Time now() const { return now_; }

  // Schedules `fn` at absolute time `at` (>= now). Returns an id usable
  // with cancel(). Accepts any void() callable; captures up to
  // kInlineCallbackBytes are stored inline in the pooled core.
  template <typename F>
  EventId schedule_at(Time at, F&& fn) {
    RMC_ENSURE(at >= now_, "event scheduled in the past");
    if (legacy_) return legacy_schedule(at, std::function<void()>(std::forward<F>(fn)));
    const std::uint32_t idx = pool_.allocate();
    EventRecord& rec = pool_.at(idx);
    rec.at = at;
    rec.seq = next_seq_++;
    rec.armed = true;
    rec.fn.emplace(std::forward<F>(fn));
    wheel_.insert(idx);
    ++live_;
    return make_id(idx, rec.gen);
  }

  template <typename F>
  EventId schedule_after(Time delay, F&& fn) {
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  // Cancels a pending event. Cancelling an already-executed or unknown id
  // is a no-op (timers race with the events that disarm them).
  void cancel(EventId id);

  // Executes the next pending event; returns false if none remain.
  bool step();

  // Runs until the queue is empty.
  void run();

  // Runs events with time <= deadline; afterwards now() == max(now, deadline)
  // if the queue emptied or the next event is beyond the deadline.
  void run_until(Time deadline);

  bool empty() const { return live_events() == 0; }
  std::size_t live_events() const;
  std::uint64_t events_executed() const { return executed_; }

 private:
  struct LegacyCore;

  static EventId make_id(std::uint32_t idx, std::uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | (idx + 1u);
  }

  EventId legacy_schedule(Time at, std::function<void()> fn);
  bool legacy_step();
  void legacy_run_until(Time deadline);

  EventCoreKind core_;
  Time now_ = 0;
  std::uint64_t executed_ = 0;

  // Pooled-wheel core.
  std::uint64_t next_seq_ = 1;
  std::size_t live_ = 0;
  EventPool pool_;
  TimerWheel wheel_{pool_};

  // Legacy core, allocated only when selected.
  std::unique_ptr<LegacyCore> legacy_;
};

}  // namespace rmc::sim
