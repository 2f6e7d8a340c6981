// Causal packet tracing: the event vocabulary, the always-on history ring
// and its panic dump, span lifecycle, drop-cause tagging, timeline
// sampling, attribution, Perfetto export shape, and trace determinism
// across sweep parallelism.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/serial.h"
#include "common/trace.h"
#include "harness/experiment.h"
#include "harness/sweep.h"
#include "harness/testbed.h"
#include "harness/trace_export.h"
#include "rmcast/receiver.h"
#include "rmcast/sender.h"
#include "rmcast/wire.h"
#include "sim/simulator.h"

namespace rmc::harness {
namespace {

MulticastRunSpec small_spec(double frame_error_rate, std::uint64_t seed) {
  MulticastRunSpec spec;
  spec.n_receivers = 8;
  spec.message_bytes = 120'000;
  spec.protocol.kind = rmcast::ProtocolKind::kAck;
  spec.protocol.packet_size = 8000;
  spec.protocol.window_size = 8;
  spec.seed = seed;
  spec.cluster.link.frame_error_rate = frame_error_rate;
  return spec;
}

RunResult traced_run(const MulticastRunSpec& base, trace::Tracer& tracer) {
  MulticastRunSpec spec = base;
  spec.tracer = &tracer;
  return run_multicast(spec);
}

TEST(PacketTag, PackUnpackRoundTrip) {
  // Types run to 9 (GROUP_NAK): the tag's type field is four bits wide so
  // the FEC types survive the round trip instead of aliasing onto
  // DATA/ACK (a 3-bit field would fold 8 -> 0 and 9 -> 1).
  for (std::uint8_t type = 1; type <= 9; ++type) {
    for (std::uint32_t seq : {0u, 1u, 12345u, 0x07FF'FFFFu}) {
      const std::uint32_t tag = pack_packet_tag(type, seq);
      EXPECT_TRUE(tag_valid(tag));
      EXPECT_EQ(tag_type(tag), type);
      EXPECT_EQ(tag_seq(tag), seq);
    }
  }
  EXPECT_FALSE(tag_valid(0));
}

TEST(PacketTag, FecWireTypesTagAsThemselves) {
  for (rmcast::PacketType t :
       {rmcast::PacketType::kParity, rmcast::PacketType::kGroupNak}) {
    rmcast::Header h;
    h.type = t;
    h.seq = 321;
    Writer w(rmcast::kHeaderBytes);
    rmcast::write_header(w, h);
    const std::uint32_t tag = tag_rmcast_packet(w.buffer().data(), w.buffer().size());
    ASSERT_TRUE(tag_valid(tag));
    EXPECT_EQ(tag_type(tag), static_cast<std::uint8_t>(t));
    EXPECT_EQ(tag_seq(tag), 321u);
  }
}

TEST(PacketTag, ParsesRmcastWireHeader) {
  rmcast::Header h;
  h.type = rmcast::PacketType::kData;
  h.flags = 0;
  h.node_id = 3;
  h.session = 42;
  h.seq = 77;
  Writer w(rmcast::kHeaderBytes);
  rmcast::write_header(w, h);
  const std::uint32_t tag = tag_rmcast_packet(w.buffer().data(), w.buffer().size());
  ASSERT_TRUE(tag_valid(tag));
  EXPECT_EQ(tag_type(tag), static_cast<std::uint8_t>(rmcast::PacketType::kData));
  EXPECT_EQ(tag_seq(tag), 77u);

  // Too short or nonsense type: not a traced packet.
  EXPECT_EQ(tag_rmcast_packet(w.buffer().data(), 4), 0u);
  Buffer junk(rmcast::kHeaderBytes, 0xEE);
  EXPECT_EQ(tag_rmcast_packet(junk.data(), junk.size()), 0u);
}

TEST(Tracer, TracksAndSeriesAreDenseAndDeduplicated) {
  trace::Tracer t;
  const std::uint16_t a = t.track("sender", trace::TrackTier::kSender);
  const std::uint16_t b = t.track("net.P0.nic", trace::TrackTier::kNet);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(t.track("sender", trace::TrackTier::kSender), a);
  EXPECT_EQ(t.track_name(b), "net.P0.nic");

  EXPECT_EQ(t.series("queue"), 0u);
  EXPECT_EQ(t.series("rate"), 1u);
  EXPECT_EQ(t.series("queue"), 0u);
}

TEST(Tracer, CapacityCapCountsTruncatedEvents) {
  trace::Tracer t;
  const std::uint16_t track = t.track("x", trace::TrackTier::kNet);
  t.set_capacity(2);
  t.record(1, trace::EventKind::kSenderTx, track);
  t.record(2, trace::EventKind::kSenderTx, track);
  t.record(3, trace::EventKind::kSenderTx, track);
  t.sample(4, track, t.series("s"), 1.0);
  EXPECT_EQ(t.events().size(), 2u);
  EXPECT_EQ(t.truncated(), 2u);
  t.clear();
  EXPECT_TRUE(t.events().empty());
  EXPECT_EQ(t.truncated(), 0u);
}

TEST(EventKind, NamesAreDistinctAndAppendedKindsKeepExistingValues) {
  std::set<std::string> names;
  const int last = static_cast<int>(trace::EventKind::kParityRx);
  for (int k = 0; k <= last; ++k) {
    const std::string name = trace::event_kind_name(static_cast<trace::EventKind>(k));
    EXPECT_NE(name, "unknown") << k;
    names.insert(name);
  }
  // Distinct names, so a JSONL or Perfetto line identifies its event.
  EXPECT_EQ(names.size(), static_cast<std::size_t>(last + 1));
  // Kinds are only ever appended: values embedded in existing traces hold.
  EXPECT_EQ(static_cast<int>(trace::EventKind::kFault), 12);
  EXPECT_EQ(static_cast<int>(trace::EventKind::kSample), 16);
  EXPECT_EQ(static_cast<int>(trace::EventKind::kFecRecover), 21);
  EXPECT_EQ(static_cast<int>(trace::EventKind::kAllocReq), 22);
}

TEST(HistoryRing, RecordsAndSnapshotsOldestFirst) {
  auto ring = std::make_unique<trace::HistoryRing>();
  EXPECT_EQ(ring->size(), 0u);
  ring->append(10, trace::EventKind::kSenderTx, 0xFFFF, 1, 2);
  ring->append(20, trace::EventKind::kAckTx, 3, 4, 5);
  EXPECT_EQ(ring->size(), 2u);
  EXPECT_EQ(ring->total(), 2u);

  const std::vector<trace::Event> events = ring->snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at, 10);
  EXPECT_EQ(events[0].kind, trace::EventKind::kSenderTx);
  EXPECT_EQ(events[0].track, 0xFFFFu);
  EXPECT_EQ(events[1].at, 20);
  EXPECT_EQ(events[1].kind, trace::EventKind::kAckTx);
  EXPECT_EQ(events[1].track, 3u);
  EXPECT_EQ(events[1].a, 4u);
  EXPECT_EQ(events[1].b, 5u);
}

TEST(HistoryRing, WrapsAroundKeepingTheNewest) {
  auto ring = std::make_unique<trace::HistoryRing>();
  constexpr std::size_t kCap = trace::HistoryRing::kCapacity;
  for (std::size_t i = 0; i < kCap + 10; ++i) {
    ring->append(static_cast<std::int64_t>(i), trace::EventKind::kReceiverRx, 0,
                 static_cast<std::uint32_t>(i), 0);
  }
  EXPECT_EQ(ring->size(), kCap);  // bounded
  EXPECT_EQ(ring->total(), kCap + 10);
  const std::vector<trace::Event> events = ring->snapshot();
  ASSERT_EQ(events.size(), kCap);
  // The survivors are the newest kCap events, oldest first.
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(events[i].at, static_cast<std::int64_t>(10 + i));
  }
}

TEST(HistoryRing, ClearEmptiesTheRing) {
  auto ring = std::make_unique<trace::HistoryRing>();
  for (int i = 0; i < 5; ++i) ring->append(i, trace::EventKind::kNakTx, 1, 0, 0);
  ring->clear();
  EXPECT_EQ(ring->size(), 0u);
  EXPECT_EQ(ring->total(), 0u);
  EXPECT_TRUE(ring->snapshot().empty());
  ring->append(99, trace::EventKind::kDeliver, 1, 7, 0);
  const std::vector<trace::Event> events = ring->snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].at, 99);
}

TEST(HistoryRing, DumpsOneJsonObjectPerLine) {
  auto ring = std::make_unique<trace::HistoryRing>();
  ring->append(1500, trace::EventKind::kWindowStall, 0xFFFF, 42, 0);
  ring->append(1600, trace::EventKind::kNakSuppressed, 2, 9, 1);
  char* data = nullptr;
  std::size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  ring->dump_jsonl(mem);
  std::fclose(mem);
  const std::string out(data, size);
  free(data);
  EXPECT_EQ(out,
            "{\"t\": 1500, \"ev\": \"window_stall\", \"node\": 65535, \"a\": 42, "
            "\"b\": 0}\n"
            "{\"t\": 1600, \"ev\": \"nak_suppressed\", \"node\": 2, \"a\": 9, "
            "\"b\": 1}\n");
}

TEST(HistoryRing, EachThreadHasItsOwn) {
  const std::uint64_t before = trace::history().total();
  std::uint64_t other_total = 0;
  std::thread worker([&] {
    trace::history().append(1, trace::EventKind::kSenderTx, 0, 0, 0);
    other_total = trace::history().total();
  });
  worker.join();
  EXPECT_EQ(other_total, 1u);
  EXPECT_EQ(trace::history().total(), before);
}

TEST(Probe, RecordsIntoTheHistoryAndTheAttachedTracer) {
  trace::Tracer tracer;
  const std::uint16_t track = tracer.track("receiver.1", trace::TrackTier::kReceiver);
  trace::Probe probe(1);
  trace::history().clear();

  probe.record(5, trace::EventKind::kReceiverRx, 3, 0);  // history only
  probe.attach(&tracer, track);
  probe.record(6, trace::EventKind::kReceiverRx, 3, 1);
  probe.record(7, trace::EventKind::kAckTx, 4);

  // The tracer holds what arrived while attached, on the probe's track.
  ASSERT_EQ(tracer.events().size(), 2u);
  EXPECT_EQ(tracer.events()[0], (trace::Event{6, trace::EventKind::kReceiverRx, track, 3, 1}));
  EXPECT_EQ(tracer.events()[1], (trace::Event{7, trace::EventKind::kAckTx, track, 4, 0}));
  // The history holds every event, stamped with the node id.
  const std::vector<trace::Event> history = trace::history().snapshot();
  ASSERT_EQ(history.size(), 3u);
  for (const trace::Event& e : history) EXPECT_EQ(e.track, 1u);
  EXPECT_EQ(history[0].at, 5);
  EXPECT_EQ(history[2].kind, trace::EventKind::kAckTx);
}

// Runs one small transfer to completion — through `tracer` when non-null —
// and then trips a real protocol invariant: send() on a busy sender.
void transfer_then_panic(trace::Tracer* tracer) {
  Testbed bed(2);
  rmcast::ProtocolConfig config;
  config.kind = rmcast::ProtocolKind::kAck;
  config.packet_size = 8000;
  config.window_size = 8;
  rmcast::MulticastSender sender(bed.sender_runtime(), bed.sender_socket(),
                                 bed.membership(), config);
  std::vector<std::unique_ptr<rmcast::MulticastReceiver>> receivers;
  for (std::size_t i = 0; i < 2; ++i) {
    receivers.push_back(std::make_unique<rmcast::MulticastReceiver>(
        bed.receiver_runtime(i), bed.receiver_data_socket(i),
        bed.receiver_control_socket(i), bed.membership(), i, config));
    if (tracer != nullptr) {
      receivers[i]->set_tracer(tracer, tracer->track("receiver." + std::to_string(i),
                                                     trace::TrackTier::kReceiver));
    }
  }
  if (tracer != nullptr) {
    sender.set_tracer(tracer, tracer->track("sender", trace::TrackTier::kSender));
  }
  Buffer message(20'000, 0x5A);
  bool done = false;
  sender.send(BytesView(message.data(), message.size()),
              [&](const rmcast::SendOutcome&) { done = true; });
  while (!done && bed.simulator().step()) {
  }
  sender.send(BytesView(message.data(), message.size()), nullptr);
  sender.send(BytesView(message.data(), message.size()), nullptr);  // busy
}

// What panic() must print after the invariant message: the ring header,
// then the transfer's events oldest first — sender transmissions, a
// receiver delivery, the completion, and the second send's ALLOC_REQ.
constexpr const char* kPanicHistory =
    "sender is busy.*protocol history: last [0-9]+ of [0-9]+ events follow"
    ".*\"ev\": \"sender_tx\", \"node\": 65535, \"a\": 0, \"b\": 0"
    ".*\"ev\": \"deliver\", \"node\": 1"
    ".*\"ev\": \"complete\", \"node\": 65535"
    ".*\"ev\": \"alloc_req\", \"node\": 65535";

TEST(PanicHistoryDeathTest, DumpsProtocolHistoryWithoutATracer) {
  EXPECT_DEATH(transfer_then_panic(nullptr), kPanicHistory);
}

TEST(PanicHistoryDeathTest, DumpsProtocolHistoryWithATracerAttached) {
  EXPECT_DEATH(
      {
        trace::Tracer tracer;
        transfer_then_panic(&tracer);
      },
      kPanicHistory);
}

TEST(TracedRun, ErrorFreeSpanLifecycle) {
  trace::Tracer tracer;
  const RunResult result = traced_run(small_spec(/*fer=*/0.0, /*seed=*/3), tracer);
  ASSERT_TRUE(result.completed) << result.error;

  // Every data transmission, reception and completion leaves a span event.
  EXPECT_EQ(tracer.count(trace::EventKind::kSenderTx),
            result.sender.data_packets_sent);
  EXPECT_GT(tracer.count(trace::EventKind::kReceiverRx), 0u);
  EXPECT_EQ(tracer.count(trace::EventKind::kComplete), 1u);
  EXPECT_EQ(tracer.count(trace::EventKind::kDeliver), 8u);
  EXPECT_EQ(tracer.count(trace::EventKind::kDrop), 0u);
  // The wire got exercised: the NIC serialized at least one frame per data
  // packet, each enqueue recorded with its queue depth.
  EXPECT_GT(tracer.count(trace::EventKind::kWireTx),
            result.sender.data_packets_sent);
  EXPECT_GT(tracer.count(trace::EventKind::kEnqueue), 0u);

  // Timestamps never run backwards past the recording order per track and
  // sit inside the run.
  const std::int64_t horizon = sim::seconds(result.seconds) + 1;
  for (const auto& e : tracer.events()) {
    EXPECT_GE(e.at, 0);
    EXPECT_LE(e.at, horizon);
  }

  // The attribution horizon is the sender's completion instant, a hair
  // before the simulator's final drain.
  const Attribution attr = attribute(tracer);
  EXPECT_LE(attr.total_seconds, result.seconds);
  EXPECT_GE(attr.total_seconds, 0.95 * result.seconds);
  EXPECT_GE(attr.accounted_fraction(), 0.95);
  EXPECT_EQ(attr.retransmissions, 0u);
  EXPECT_GT(attr.transmit_seconds, 0.0);
}

TEST(TracedRun, LossyRunTagsEveryDropAndAttributesRetransmissions) {
  MulticastRunSpec spec = small_spec(/*fer=*/0.01, /*seed=*/7);
  trace::Tracer tracer;
  const RunResult result = traced_run(spec, tracer);
  ASSERT_TRUE(result.completed) << result.error;
  ASSERT_GT(result.sender.retransmissions, 0u);

  // Every drop the net tier recorded carries a concrete cause.
  std::size_t drops = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind != trace::EventKind::kDrop) continue;
    ++drops;
    EXPECT_NE(e.b, static_cast<std::uint32_t>(trace::DropCause::kUnknown));
    EXPECT_LT(e.b, Attribution::kNumCauses);
  }
  EXPECT_GT(drops, 0u);

  const Attribution attr = attribute(tracer);
  EXPECT_EQ(attr.retransmissions, result.sender.retransmissions);
  // With drops on record, no retransmission is attributed to "unknown".
  EXPECT_EQ(attr.retransmissions_by_cause[0], 0u);
  std::uint64_t by_cause = 0;
  for (std::uint64_t n : attr.retransmissions_by_cause) by_cause += n;
  EXPECT_EQ(by_cause, attr.retransmissions);
  EXPECT_GT(attr.retransmissions_by_cause[static_cast<std::size_t>(
                trace::DropCause::kFrameError)],
            0u);
  EXPECT_GT(attr.loss_recovery_seconds, 0.0);
  EXPECT_GE(attr.accounted_fraction(), 0.95);
}

TEST(TracedRun, TimelineSamplesArriveOnTheConfiguredInterval) {
  MulticastRunSpec spec = small_spec(/*fer=*/0.0, /*seed=*/3);
  spec.timeline_interval = sim::microseconds(500);
  trace::Tracer tracer;
  const RunResult result = traced_run(spec, tracer);
  ASSERT_TRUE(result.completed) << result.error;

  std::size_t samples = 0;
  for (const auto& e : tracer.events()) {
    if (e.kind != trace::EventKind::kSample) continue;
    ++samples;
    EXPECT_EQ(e.at % sim::microseconds(500), 0) << "sample off the grid";
    EXPECT_LT(e.a, tracer.series_names().size());
  }
  // One batch of series per elapsed interval (the run lasts well past one).
  EXPECT_GE(samples, tracer.series_names().size());
  EXPECT_GE(tracer.series_names().size(), 5u);

  // Disabled timelines record no samples.
  MulticastRunSpec off = small_spec(/*fer=*/0.0, /*seed=*/3);
  off.timeline_interval = 0;
  trace::Tracer no_samples;
  ASSERT_TRUE(traced_run(off, no_samples).completed);
  EXPECT_EQ(no_samples.count(trace::EventKind::kSample), 0u);
}

TEST(TracedRun, TracingDoesNotPerturbTheRun) {
  const MulticastRunSpec spec = small_spec(/*fer=*/0.005, /*seed=*/11);

  metrics::Registry plain_metrics;
  MulticastRunSpec plain = spec;
  plain.metrics = &plain_metrics;
  const RunResult bare = run_multicast(plain);

  // Tracing hooks alone: byte-identical everything, including the event
  // count (the timeline sampler is off, so no extra sim events exist).
  metrics::Registry traced_metrics;
  MulticastRunSpec traced = spec;
  traced.metrics = &traced_metrics;
  traced.timeline_interval = 0;
  trace::Tracer tracer;
  traced.tracer = &tracer;
  const RunResult observed = run_multicast(traced);

  ASSERT_TRUE(bare.completed && observed.completed);
  EXPECT_EQ(bare.seconds, observed.seconds);
  EXPECT_EQ(bare.events_executed, observed.events_executed);
  EXPECT_EQ(bare.sender.retransmissions, observed.sender.retransmissions);
  EXPECT_EQ(plain_metrics.to_json(), traced_metrics.to_json());

  // With the sampler on, its read-only ticks add sim events but change
  // nothing the protocol can observe.
  metrics::Registry sampled_metrics;
  MulticastRunSpec sampled = spec;
  sampled.metrics = &sampled_metrics;
  trace::Tracer sampled_tracer;
  sampled.tracer = &sampled_tracer;
  const RunResult with_sampler = run_multicast(sampled);
  ASSERT_TRUE(with_sampler.completed);
  EXPECT_EQ(bare.seconds, with_sampler.seconds);
  EXPECT_EQ(bare.sender.retransmissions, with_sampler.sender.retransmissions);
  EXPECT_EQ(plain_metrics.to_json(), sampled_metrics.to_json());
}

TEST(SweepTrace, FoldedTraceLogIsIdenticalAcrossJobCounts) {
  auto collect = [](std::size_t jobs) {
    auto log = std::make_unique<TraceLog>();
    SweepRunner::Options options;
    options.jobs = jobs;
    options.trace = log.get();
    SweepRunner runner(options);
    for (std::uint64_t seed : {3u, 5u, 7u, 3u}) {  // repeat hits the cache
      runner.submit(small_spec(/*fer=*/0.004, seed),
                    "seed" + std::to_string(seed));
    }
    runner.wait_all();
    return log;
  };

  auto serial = collect(1);
  auto parallel = collect(4);
  ASSERT_EQ(serial->size(), 4u);
  ASSERT_EQ(parallel->size(), 4u);
  for (std::size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ(serial->label(i), parallel->label(i));
    EXPECT_TRUE(serial->tracer(i).same_as(parallel->tracer(i))) << i;
    EXPECT_FALSE(serial->tracer(i).events().empty()) << i;
  }
  // The cached repeat of seed 3 folded the same trace twice.
  EXPECT_TRUE(serial->tracer(0).same_as(serial->tracer(3)));
}

TEST(TraceExport, JsonCarriesEventsAndAttribution) {
  TraceLog log;
  trace::Tracer& tracer = log.add("lossy_point");
  const RunResult result =
      traced_run(small_spec(/*fer=*/0.01, /*seed=*/7), tracer);
  ASSERT_TRUE(result.completed);

  char* data = nullptr;
  std::size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  log.write_json(mem);
  std::fclose(mem);
  std::string json(data, size);
  free(data);

  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);  // wire spans
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);  // metadata
  EXPECT_NE(json.find("lossy_point"), std::string::npos);
  EXPECT_NE(json.find("\"attribution\""), std::string::npos);
  EXPECT_NE(json.find("\"accounted_fraction\""), std::string::npos);
  EXPECT_NE(json.find("frame_error"), std::string::npos);
  EXPECT_NE(json.find("drop:"), std::string::npos);
}

}  // namespace
}  // namespace rmc::harness
