// Tests for the experiment harness: testbed wiring, runners, trial
// averaging, and table output.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/trace.h"
#include "harness/experiment.h"
#include "harness/table.h"
#include "harness/testbed.h"
#include "rmcast/receiver.h"
#include "rmcast/sender.h"

namespace rmc::harness {
namespace {

TEST(Testbed, WiresSocketsAndMembership) {
  Testbed bed(4);
  EXPECT_EQ(bed.n_receivers(), 4u);
  EXPECT_EQ(bed.cluster().size(), 5u);  // sender + 4
  const auto& m = bed.membership();
  EXPECT_EQ(m.validate(), "");
  EXPECT_EQ(m.n_receivers(), 4u);
  EXPECT_EQ(m.sender_control.addr, inet::Cluster::host_addr(0));
  EXPECT_EQ(m.receiver_control[3].addr, inet::Cluster::host_addr(4));
  EXPECT_EQ(bed.sender_socket().local_endpoint(), m.sender_control);
  EXPECT_EQ(bed.receiver_control_socket(2).local_endpoint(), m.receiver_control[2]);
  EXPECT_EQ(bed.total_rcvbuf_drops(), 0u);
}

TEST(RunMulticast, ReportsStatsAndTiming) {
  MulticastRunSpec spec;
  spec.n_receivers = 4;
  spec.message_bytes = 50'000;
  spec.protocol.kind = rmcast::ProtocolKind::kAck;
  spec.protocol.packet_size = 8000;
  spec.protocol.window_size = 8;
  RunResult r = run_multicast(spec);
  ASSERT_TRUE(r.completed) << r.error;
  EXPECT_GT(r.seconds, 0.0);
  EXPECT_GT(r.throughput_bps(), 0.0);
  EXPECT_EQ(r.sender.data_packets_sent, 7u);  // ceil(50000/8000)
  EXPECT_EQ(r.receivers.size(), 4u);
  EXPECT_EQ(r.total_acks_sent(), 28u);
  EXPECT_GT(r.sender_nic_busy_seconds, 0.0);
  EXPECT_GT(r.sender_cpu_busy_seconds, 0.0);
}

TEST(RunMulticast, InvalidConfigFailsFast) {
  MulticastRunSpec spec;
  spec.n_receivers = 30;
  spec.protocol.kind = rmcast::ProtocolKind::kRing;
  spec.protocol.window_size = 10;  // <= receivers: rejected
  RunResult r = run_multicast(spec);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("ring"), std::string::npos);
}

TEST(RunMulticast, TimeLimitProducesTimeoutError) {
  MulticastRunSpec spec;
  spec.n_receivers = 4;
  spec.message_bytes = 1'000'000;
  spec.protocol.kind = rmcast::ProtocolKind::kAck;
  spec.time_limit = sim::microseconds(100);  // absurdly tight
  RunResult r = run_multicast(spec);
  EXPECT_FALSE(r.completed);
  EXPECT_NE(r.error.find("timed out"), std::string::npos);
}

TEST(RunMulticast, DeterministicForSeed) {
  MulticastRunSpec spec;
  spec.n_receivers = 6;
  spec.message_bytes = 100'000;
  spec.protocol.kind = rmcast::ProtocolKind::kNakPolling;
  spec.protocol.window_size = 16;
  spec.protocol.poll_interval = 12;
  spec.seed = 42;
  RunResult a = run_multicast(spec);
  RunResult b = run_multicast(spec);
  ASSERT_TRUE(a.completed);
  ASSERT_TRUE(b.completed);
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.sender.data_packets_sent, b.sender.data_packets_sent);
}

TEST(MeanSeconds, AveragesTrials) {
  int calls = 0;
  double mean = mean_seconds(
      [&](std::uint64_t seed) {
        ++calls;
        RunResult r;
        r.completed = true;
        r.seconds = static_cast<double>(seed);
        return r;
      },
      3, 10);
  EXPECT_EQ(calls, 3);
  EXPECT_DOUBLE_EQ(mean, 11.0);  // seeds 10, 11, 12
}

TEST(MeanSeconds, FailurePropagatesAsNegative) {
  double mean = mean_seconds(
      [&](std::uint64_t) {
        RunResult r;
        r.completed = false;
        return r;
      },
      3, 1);
  EXPECT_LT(mean, 0.0);
}

std::string capture(const Table& table, bool csv) {
  char* data = nullptr;
  std::size_t size = 0;
  FILE* mem = open_memstream(&data, &size);
  if (csv) {
    table.print_csv(mem);
  } else {
    table.print(mem);
  }
  std::fclose(mem);
  std::string out(data, size);
  free(data);
  return out;
}

TEST(TablePrinter, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2"});
  std::string out = capture(t, false);
  EXPECT_NE(out.find("name         value"), std::string::npos);
  EXPECT_NE(out.find("longer-name  2"), std::string::npos);
  EXPECT_EQ(t.n_rows(), 2u);
}

TEST(TablePrinter, CsvEscapesSpecials) {
  Table t({"a", "b"});
  t.add_row({"plain", "with,comma"});
  t.add_row({"quote\"inside", "line"});
  std::string out = capture(t, true);
  EXPECT_NE(out.find("a,b\n"), std::string::npos);
  EXPECT_NE(out.find("plain,\"with,comma\"\n"), std::string::npos);
  EXPECT_NE(out.find("\"quote\"\"inside\",line\n"), std::string::npos);
}

TEST(TablePrinterDeath, RowWidthMustMatch) {
  Table t({"a", "b"});
  EXPECT_DEATH(t.add_row({"only-one"}), "row width");
}

// Counts `tracer` events of `kind` on `track` whose `b` operand is `b`.
std::size_t count_on(const trace::Tracer& tracer, trace::EventKind kind,
                     std::uint16_t track, std::uint32_t b) {
  return static_cast<std::size_t>(
      std::count_if(tracer.events().begin(), tracer.events().end(),
                    [&](const trace::Event& e) {
                      return e.kind == kind && e.track == track && e.b == b;
                    }));
}

std::size_t events_on(const trace::Tracer& tracer, std::uint16_t track) {
  return static_cast<std::size_t>(
      std::count_if(tracer.events().begin(), tracer.events().end(),
                    [&](const trace::Event& e) { return e.track == track; }));
}

TEST(Trace, RecordsOrderedProtocolEvents) {
  Testbed bed(3);
  rmcast::ProtocolConfig config;
  config.kind = rmcast::ProtocolKind::kAck;
  config.packet_size = 8000;
  config.window_size = 8;
  rmcast::MulticastSender sender(bed.sender_runtime(), bed.sender_socket(),
                                 bed.membership(), config);
  std::vector<std::unique_ptr<rmcast::MulticastReceiver>> receivers;
  for (std::size_t i = 0; i < 3; ++i) {
    receivers.push_back(std::make_unique<rmcast::MulticastReceiver>(
        bed.receiver_runtime(i), bed.receiver_data_socket(i),
        bed.receiver_control_socket(i), bed.membership(), i, config));
  }
  trace::Tracer tracer;
  const std::uint16_t sender_track = tracer.track("sender", trace::TrackTier::kSender);
  sender.set_tracer(&tracer, sender_track);
  std::vector<std::uint16_t> receiver_tracks;
  for (std::size_t i = 0; i < 3; ++i) {
    receiver_tracks.push_back(
        tracer.track("receiver." + std::to_string(i), trace::TrackTier::kReceiver));
    receivers[i]->set_tracer(&tracer, receiver_tracks.back());
  }

  Buffer message(20'000, 0x33);  // 3 packets
  bool done = false;
  sender.send(BytesView(message.data(), message.size()),
              [&](const rmcast::SendOutcome&) { done = true; });
  while (!done && bed.simulator().step()) {
  }
  ASSERT_TRUE(done);

  using trace::EventKind;
  EXPECT_EQ(tracer.count(EventKind::kAllocReq), 1u);
  EXPECT_EQ(count_on(tracer, EventKind::kSenderTx, sender_track, 0), 3u);
  EXPECT_EQ(count_on(tracer, EventKind::kSenderTx, sender_track, 1), 0u);
  EXPECT_EQ(tracer.count(EventKind::kAckRx), 9u);  // 3 receivers x 3 packets
  EXPECT_EQ(tracer.count(EventKind::kComplete), 1u);
  // Receiver events land in the same stream, each on its node's track:
  // every receiver accepts every data packet (no loss), acks it, and
  // delivers once.
  for (std::uint16_t track : receiver_tracks) {
    EXPECT_EQ(count_on(tracer, EventKind::kReceiverRx, track, 0), 3u);
    EXPECT_EQ(count_on(tracer, EventKind::kReceiverRx, track, 1), 0u);
    EXPECT_EQ(events_on(tracer, track), 7u);  // 3 data + 3 acks + 1 deliver
  }
  EXPECT_EQ(tracer.count(EventKind::kAckTx), 9u);
  EXPECT_EQ(tracer.count(EventKind::kDeliver), 3u);
  EXPECT_EQ(events_on(tracer, sender_track), tracer.events().size() - 3 * 7u);

  // Chronology: alloc first, completion last, timestamps non-decreasing.
  const auto& events = tracer.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, EventKind::kAllocReq);
  EXPECT_EQ(events.back().kind, EventKind::kComplete);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].at, events[i - 1].at);
  }
}

TEST(Trace, RetransmissionsVisibleUnderLoss) {
  inet::ClusterParams params;
  params.link.frame_error_rate = 0.03;
  params.seed = 5;
  Testbed bed(3, params);
  rmcast::ProtocolConfig config;
  config.kind = rmcast::ProtocolKind::kNakPolling;
  config.packet_size = 4000;
  config.window_size = 10;
  config.poll_interval = 8;
  rmcast::MulticastSender sender(bed.sender_runtime(), bed.sender_socket(),
                                 bed.membership(), config);
  std::vector<std::unique_ptr<rmcast::MulticastReceiver>> receivers;
  for (std::size_t i = 0; i < 3; ++i) {
    receivers.push_back(std::make_unique<rmcast::MulticastReceiver>(
        bed.receiver_runtime(i), bed.receiver_data_socket(i),
        bed.receiver_control_socket(i), bed.membership(), i, config));
  }
  trace::Tracer tracer;
  const std::uint16_t sender_track = tracer.track("sender", trace::TrackTier::kSender);
  sender.set_tracer(&tracer, sender_track);

  Buffer message(200'000, 0x44);
  bool done = false;
  sender.send(BytesView(message.data(), message.size()),
              [&](const rmcast::SendOutcome&) { done = true; });
  while (!done && bed.simulator().now() < sim::seconds(60.0)) {
    if (!bed.simulator().step()) break;
  }
  ASSERT_TRUE(done);
  const std::size_t retransmits =
      count_on(tracer, trace::EventKind::kSenderTx, sender_track, 1);
  EXPECT_GT(retransmits, 0u);
  EXPECT_EQ(retransmits, sender.stats().retransmissions);
  EXPECT_EQ(tracer.count(trace::EventKind::kNakRx), sender.stats().naks_received);
}

}  // namespace
}  // namespace rmc::harness
