// Structured causal tracing: the one protocol event vocabulary
// (EventKind), the event stream behind Perfetto exports, sim-time
// timelines and the loss/stall attribution report, and the always-on
// history ring that rmc::panic dumps.
//
// The metrics registry (common/metrics.h) answers "how much, how long" at
// the end of a run; a Tracer answers "when, and why" inside one. Three
// coordinated record kinds share one flat event vector:
//
//   * protocol events — sender/receiver lifecycle points (transmit,
//     receive, ACK/NAK in both directions, window advance/stall/resume,
//     RTO, suppression, eviction, deliver, complete), recorded by
//     rmcast::MulticastSender / MulticastReceiver through a Probe: every
//     event lands in the calling thread's HistoryRing, and also in a
//     Tracer when one is attached;
//   * network events — per-port enqueue / wire-serialization / drop
//     records from TxPort, EthernetSwitch, SharedBus and the host socket
//     tier, each drop tagged with its cause (DropCause) and each frame
//     tagged with an opaque packet tag so a drop can be traced back to
//     the protocol packet it carried;
//   * timeline samples — periodic snapshots of scalar series (queue
//     depth, goodput, outstanding window, retransmission rate) taken by
//     the harness sampler at a configurable sim-time interval.
//
// The null capture sink is a null pointer: every instrumented tier holds a
// `trace::Tracer*` defaulting to nullptr and guards each hook with one
// predictable branch, so an untraced run pays a pointer test per event
// (plus, for protocol events, one store into the history ring) and
// nothing else (bench/smoke.sh gates the overhead at <5% on the
// event-churn microbenchmark).
//
// Events carry integer sim-time nanoseconds and integer operands, so a
// trace is bit-reproducible: the determinism suite compares whole traces
// across seeds, event cores and sweep parallelism.
//
// Layering: this header lives in common and knows nothing about rmcast.
// Packet tags are minted by an installable PacketTagger callback — the
// harness installs one that parses the rmcast header; the net tier only
// forwards the opaque tag (net::Frame::trace_tag).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace rmc::trace {

// Why a frame or datagram died. Every drop site in the network model maps
// onto exactly one cause, so the attribution report can group
// retransmissions by root cause.
enum class DropCause : std::uint8_t {
  kUnknown = 0,
  kQueueOverflow,   // drop-tail transmit FIFO full
  kFrameError,      // uniform per-frame corruption (CRC loss)
  kBurstLoss,       // Gilbert–Elliott bad-state loss
  kLinkDown,        // carrier down (fault injection)
  kCollision,       // shared bus gave up after excessive collisions
  kRcvbufOverflow,  // host socket receive buffer overflow
};

const char* drop_cause_name(DropCause cause);

enum class EventKind : std::uint8_t {
  // Protocol tier. Operand meanings in the trailing comments.
  kSenderTx = 0,   // a=seq, b=1 if retransmission
  kReceiverRx,     // a=seq, b=1 if duplicate
  kAckTx,          // a=cumulative count acknowledged
  kNakTx,          // a=first missing seq
  kAckRx,          // a=node, b=cumulative count
  kNakRx,          // a=node, b=first missing seq
  kWindowAdvance,  // a=new window base
  kWindowStall,    // a=window base at stall
  kWindowResume,   // a=window base at resume
  kRtoFire,        // a=window base at timeout
  kDeliver,        // a=session
  kComplete,       // a=session
  kFault,          // a=sim::FaultKind value, b=target node
  // Network tier. `a` is the packet tag (0 = untraced payload).
  kEnqueue,  // b=queue depth after the enqueue (queued + transmitting)
  kWireTx,   // b=serialization time in ns (the span duration)
  kDrop,     // b=DropCause
  // Timelines.
  kSample,  // a=series id; `value` holds the sample
  // Hybrid FEC (appended so existing kind values — and every golden
  // trace that embeds them — stay stable).
  kParityTx,    // a=group*m+index (the parity seq space)
  kGroupNakTx,  // a=group id, b=popcount of the missing bitmap
  kGroupNakRx,  // a=node, b=group id
  kFecDecode,   // a=group id, b=decode span duration in ns
  kFecRecover,  // a=seq of a data block rebuilt from parity
  // Protocol decisions: handshake, suppression, backoff, eviction and
  // peer repair (appended for the same reason as above).
  kAllocReq,             // a=session, b=total packets
  kRetxSuppressed,       // a=seq withheld within suppress_interval
  kRtoBackoff,           // a=backed-off RTO in microseconds
  kEvict,                // a=evicted node, b=its last cumulative count
  kEvictNotice,          // a=evicted node (receiver side)
  kSuspectTx,            // a=stalled child reported to the sender
  kSuspectRx,            // a=reporting parent, b=suspected node
  kNakSuppressed,        // a=first missing seq, b=reason (0 rate-limited, 1 peer-covered)
  kRepairTx,             // a=seq multicast as a peer repair
  kRepairSuppressed,     // a=seq whose peer repair was withheld
  kParityRx,             // a=parity seq (group*m+index), b=group
};

const char* event_kind_name(EventKind kind);

// Which lane of the exported trace a track belongs to; the exporter maps
// tiers to thread ordering so sender / receivers / ports group sensibly.
enum class TrackTier : std::uint8_t { kSender, kReceiver, kNet, kFaults, kTimeline };

struct Event {
  std::int64_t at = 0;  // sim-time nanoseconds
  EventKind kind = EventKind::kSenderTx;
  std::uint16_t track = 0;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
  double value = 0.0;  // kSample only

  bool operator==(const Event&) const = default;
};

struct Track {
  std::string name;
  TrackTier tier = TrackTier::kNet;

  bool operator==(const Track&) const = default;
};

// Maps a datagram payload to a nonzero packet tag (0 = not a traced
// packet). Installed by the harness, which knows the rmcast wire format;
// everything below the harness treats tags as opaque.
using PacketTagger =
    std::function<std::uint32_t(const std::uint8_t* data, std::size_t size)>;

class Tracer {
 public:
  // Returns the id for `name`, creating the track on first use. Track ids
  // are dense and assigned in creation order (deterministic given a
  // deterministic run).
  std::uint16_t track(std::string_view name, TrackTier tier);

  // Returns the id for timeline series `name`, creating it on first use.
  std::uint32_t series(std::string_view name);

  void record(std::int64_t at, EventKind kind, std::uint16_t track,
              std::uint32_t a = 0, std::uint32_t b = 0) {
    if (capacity_ != 0 && events_.size() >= capacity_) {
      ++truncated_;
      return;
    }
    events_.push_back(Event{at, kind, track, a, b, 0.0});
  }

  void drop(std::int64_t at, std::uint16_t track, std::uint32_t tag, DropCause cause) {
    record(at, EventKind::kDrop, track, tag, static_cast<std::uint32_t>(cause));
  }

  void sample(std::int64_t at, std::uint16_t track, std::uint32_t series_id,
              double value) {
    if (capacity_ != 0 && events_.size() >= capacity_) {
      ++truncated_;
      return;
    }
    events_.push_back(
        Event{at, EventKind::kSample, track, series_id, 0, value});
  }

  void set_packet_tagger(PacketTagger tagger) { tagger_ = std::move(tagger); }
  std::uint32_t tag_packet(const std::uint8_t* data, std::size_t size) const {
    return tagger_ ? tagger_(data, size) : 0u;
  }

  // 0 = unbounded. When bounded, events beyond the cap are counted in
  // truncated() instead of stored.
  void set_capacity(std::size_t max_events) { capacity_ = max_events; }
  std::uint64_t truncated() const { return truncated_; }

  const std::vector<Event>& events() const { return events_; }
  const std::vector<Track>& tracks() const { return tracks_; }
  const std::vector<std::string>& series_names() const { return series_names_; }
  const std::string& track_name(std::uint16_t id) const { return tracks_[id].name; }

  std::size_t count(EventKind kind) const;

  void clear() {
    events_.clear();
    truncated_ = 0;
  }

  // Structural equality (tracks, series, events) — what the determinism
  // suite compares. The tagger is excluded: it is configuration, not
  // output.
  bool same_as(const Tracer& other) const {
    return events_ == other.events_ && tracks_ == other.tracks_ &&
           series_names_ == other.series_names_;
  }

 private:
  std::vector<Event> events_;
  std::vector<Track> tracks_;
  std::vector<std::string> series_names_;
  PacketTagger tagger_;
  std::size_t capacity_ = 0;
  std::uint64_t truncated_ = 0;
};

// The always-on protocol history: the calling thread's last kCapacity
// protocol events, in the Event/EventKind vocabulary a Tracer captures.
// Counters say how much; the ring says what just happened, and rmc::panic
// dumps it so every ENSURE failure comes with the events that led to it
// (SRM's retrospective: suppression and repair bugs are invisible without
// event-level history). There is no Tracer to own track names here, so a
// ring event's `track` holds the originating node id (rmcast's sender is
// 0xFFFF).
class HistoryRing {
 public:
  static constexpr std::size_t kCapacity = 4096;
  static_assert((kCapacity & (kCapacity - 1)) == 0, "capacity must be a power of two");

  // A slot store and an increment: inline, allocation-free, division-free.
  void append(std::int64_t at, EventKind kind, std::uint16_t node, std::uint32_t a,
              std::uint32_t b) {
    slots_[static_cast<std::size_t>(total_) & (kCapacity - 1)] =
        Event{at, kind, node, a, b, 0.0};
    ++total_;
  }

  // Events currently held (<= kCapacity), and ever appended.
  std::size_t size() const {
    return total_ < kCapacity ? static_cast<std::size_t>(total_) : kCapacity;
  }
  std::uint64_t total() const { return total_; }

  // Held events, oldest first.
  std::vector<Event> snapshot() const;

  // One JSON object per held event, oldest first:
  //   {"t": <ns>, "ev": "<event_kind_name>", "node": n, "a": a, "b": b}
  void dump_jsonl(std::FILE* out) const;

  void clear() { total_ = 0; }

 private:
  std::array<Event, kCapacity> slots_{};
  std::uint64_t total_ = 0;
};

namespace detail {
// Constant-initialized and trivially destructible, so an access is a
// thread-pointer offset with no lazy-init guard.
inline constinit thread_local HistoryRing history_ring;
}  // namespace detail

// The calling thread's ring. Per thread, so parallel sweep workers keep
// self-contained histories, and panic() dumps exactly the history of the
// thread that tripped the invariant.
inline HistoryRing& history() { return detail::history_ring; }

// One protocol endpoint's event sink. record() appends to the calling
// thread's history ring, stamped with the endpoint's node id, and — when
// a capture Tracer is attached — to the endpoint's track of that tracer.
// Construction and attach() are O(1): no track lookup, no allocation.
class Probe {
 public:
  explicit Probe(std::uint16_t node) : node_(node) {}

  // `tracer` may be null (history only); not owned; must outlive the probe.
  void attach(Tracer* tracer, std::uint16_t track) {
    tracer_ = tracer;
    track_ = track;
  }

  void record(std::int64_t at, EventKind kind, std::uint32_t a = 0,
              std::uint32_t b = 0) {
    history().append(at, kind, node_, a, b);
    if (tracer_ != nullptr) tracer_->record(at, kind, track_, a, b);
  }

 private:
  Tracer* tracer_ = nullptr;
  std::uint16_t track_ = 0;
  std::uint16_t node_;
};

}  // namespace rmc::trace
