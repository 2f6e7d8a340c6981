// Self-test of the benchmark's own checks and aggregation. Every check is
// shown to pass on a real transfer and to trip on a planted fault:
// a corrupted delivered byte, a simulated time below the wire bound, a
// repetition with a different event count, and a codec decode that
// returns wrong bytes. The quantile and pass aggregation are checked on a
// fixed synthetic sample, and the traced socket stack is compared with
// PosixSession. Exit status 0 = all good.
//
//   perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core.h"
#include "probes.h"
#include "sim_ops.h"
#include "socket_ops.h"
#include "spans.h"

namespace perfbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_aggregation() {
  const std::vector<double> v = {0.9, 0.1, 0.5, 0.3, 0.7, 1.1, 0.2, 0.4, 0.6, 0.8, 1.0};
  expect(near(quantile(v, 0.0), 0.1), "quantile 0 is the minimum");
  expect(near(quantile(v, 1.0), 1.1), "quantile 1 is the maximum");
  expect(near(median(v), 0.6), "median of 11 values is the 6th");
  expect(near(quantile(v, 0.1), 0.2), "quantile 0.1 of 11 values is the 2nd");
  expect(near(quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5), "median interpolates");
  expect(near(quantile({1.0, 2.0}, 0.1), 1.1), "low quantile interpolates");

  Samples s;
  for (double x : {3.0, 1.0, 2.0}) s.add("a", x);
  for (double x : {10.0, 30.0, 20.0}) s.add("b", x);
  // kLowQuantile = 0: each operation's best repetition.
  expect(near(s.pass_seconds(), 1.0 + 10.0), "pass sums each operation's best time");
  s.set_per_pass("b", 12.0);
  expect(near(s.pass_seconds(), 1.0 + 12.0 * 10.0), "pass weights repeated operations");
  expect(s.min_repetitions() == 3, "repetitions counted per operation");
}

void test_checks_directly() {
  const rmc::Buffer payload = make_payload(10'001, 7);
  const std::uint64_t sum = checksum(payload);
  rmc::Buffer flipped = payload;
  flipped[5000] ^= 0x80;
  expect(checksum(flipped) != sum, "checksum sees a flipped bit");
  rmc::Buffer swapped = payload;
  std::swap(swapped[0], swapped[8]);
  expect(swapped == payload || checksum(swapped) != sum, "checksum sees swapped words");
  expect(make_payload(64, 7) != make_payload(64, 8), "payload depends on the seed");
  expect(make_payload(64, 7) == make_payload(64, 7), "payload is reproducible");

  expect(check_deliveries({sum, sum}, {1, 1}, sum).empty(), "deliveries pass");
  expect(!check_deliveries({sum, sum + 1}, {1, 1}, sum).empty(), "bad copy trips");
  expect(!check_deliveries({sum, sum}, {1, 0}, sum).empty(), "missing copy trips");
  expect(check_wire_bound(500'000, 100e6, 0.04).empty(), "wire bound passes at 0.04 s");
  expect(!check_wire_bound(500'000, 100e6, 0.0399).empty(), "below wire bound trips");
  expect(check_first_transmissions(1000, 500'000, 500).empty(), "first tx exact");
  expect(!check_first_transmissions(1001, 500'000, 500).empty(), "extra first tx trips");
  expect(check_first_transmissions(10, 500'000, 50'001).empty(), "first tx rounds up");
  expect(!check_packets_accepted({3, 2}, 3000, 1000).empty(), "too few accepted trips");
  expect(check_repetition({5, 9}, {5, 9}).empty(), "equal repetition passes");
  expect(!check_repetition({5, 9}, {6, 9}).empty(), "event count change trips");
  expect(!check_repetition({5, 9}, {5, 8}).empty(), "sim time change trips");
  expect(!check_repetition({0, 0}, {0, 0}).empty(), "zero events trips");

  SessionProfile a;
  a.io_calls = "sendmmsg_calls recvmmsg_calls";
  a.transfers = {{10, 0, {10, 10}}, {10, 1, {11, 10}}};
  SessionProfile b = a;
  b.transfers[1].accepted = {10, 12};
  expect(check_stack_agreement(a, b).empty(),
         "stacks agree; accepted counts may differ after a retransmission");
  b = a;
  b.io_calls = "sendto_calls recvmmsg_calls";
  expect(!check_stack_agreement(a, b).empty(), "different I/O calls trip");
  b = a;
  b.transfers[0].first_transmissions = 11;
  expect(!check_stack_agreement(a, b).empty(), "different first transmissions trip");
  b = a;
  b.transfers[0].accepted = {10, 9};
  expect(!check_stack_agreement(a, b).empty(),
         "different accepted counts without retransmission trip");
}

void test_planted_sim_faults() {
  SimPoint p = paper_lan_points(1)[1];  // ACK, 1300 B packets
  p.n_receivers = 4;
  p.message_bytes = 40'000;
  const rmc::Buffer payload = make_payload(p.message_bytes, 3);
  const std::uint64_t sum = checksum(payload);

  const SimTransfer clean = run_sim_transfer(p, payload, sum, nullptr);
  expect(clean.failure.empty() && clean.error.empty(), "clean transfer passes: " + clean.error);
  expect(clean.signature.events > 0, "clean transfer executes events");
  const SimTransfer again = run_sim_transfer(p, payload, sum, nullptr);
  expect(check_repetition(clean.signature, again.signature).empty(), "repetition agrees");

  const SimTransfer corrupt = run_sim_transfer(p, payload, sum, nullptr, Plant::kCorruptDelivery);
  expect(corrupt.error.find("corrupted") != std::string::npos,
         "corrupted delivered byte trips: " + corrupt.error);
  const SimTransfer fast = run_sim_transfer(p, payload, sum, nullptr, Plant::kClockBelowWire);
  expect(fast.error.find("wire bound") != std::string::npos,
         "time below the wire bound trips: " + fast.error);
  const SimTransfer extra = run_sim_transfer(p, payload, sum, nullptr, Plant::kExtraEvent);
  expect(!check_repetition(clean.signature, extra.signature).empty(),
         "repetition with a different event count trips");

  SpanRecorder spans;
  const SimTransfer traced = run_sim_transfer(p, payload, sum, &spans);
  expect(check_repetition(clean.signature, traced.signature).empty(),
         "traced transfer reproduces events and simulated time");
  expect(spans.totals().packets_handled > 0 && spans.totals().sends > 0,
         "traced transfer records handler and send spans");
}

void test_planted_codec_fault() {
  const CodecProbe clean = run_codec_probe(5, 2);
  expect(clean.error.empty() && clean.decode_mbytes_per_s > 0.0, "codec probe passes");
  const CodecProbe bad = run_codec_probe(5, 2, Plant::kCorruptDecode);
  expect(!bad.error.empty(), "codec decode returning wrong bytes trips: " + bad.error);
}

void test_planted_socket_fault() {
  SocketConfig c = socket_configs()[1];  // ACK, 1400 B
  c.message_bytes = 50'000;
  const rmc::Buffer payload = make_payload(c.message_bytes, 4);
  const std::uint64_t sum = checksum(payload);
  LoopbackStack stack(c, nullptr);
  expect(stack.ok(), "loopback sockets open");
  if (!stack.ok()) return;
  const SocketTransfer clean = stack.transfer(payload, sum);
  expect(clean.failure.empty() && clean.error.empty(), "socket transfer passes: " +
                                                           clean.failure + clean.error);
  const SocketTransfer bad = stack.transfer(payload, sum, Plant::kCorruptDelivery);
  expect(bad.error.find("corrupted") != std::string::npos,
         "socket corrupted delivered byte trips: " + bad.error);
}

// The traced stack, assembled beside PosixSession, behaves like it.
void test_socket_stacks_agree() {
  const SocketConfig c = socket_configs()[0];  // NAK, 8 KiB, 4 MiB
  const rmc::Buffer payload = make_payload(c.message_bytes, 6);
  const std::uint64_t sum = checksum(payload);
  SpanRecorder spans;
  SessionProfile profiles[2];
  for (int traced = 0; traced < 2; ++traced) {
    LoopbackStack stack(c, traced ? &spans : nullptr);
    expect(stack.ok(), traced ? "assembled stack opens" : "session opens");
    if (!stack.ok()) return;
    for (int k = 0; k < 3; ++k) {
      const SocketTransfer t = stack.transfer(payload, sum);
      expect(t.failure.empty() && t.error.empty(), "transfer passes: " + t.failure + t.error);
      profiles[traced].transfers.push_back({t.data_packets, t.retransmissions, t.accepted});
    }
    profiles[traced].io_calls = stack.io_calls();
  }
  const std::string e = check_stack_agreement(profiles[0], profiles[1]);
  expect(e.empty(), "assembled stack agrees with PosixSession (" + profiles[0].io_calls +
                        "): " + e);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::test_aggregation();
  perfbench::test_checks_directly();
  perfbench::test_planted_sim_faults();
  perfbench::test_planted_codec_fault();
  perfbench::test_planted_socket_fault();
  perfbench::test_socket_stacks_agree();
  std::printf("%s: %d failure(s)\n", perfbench::failures ? "FAILED" : "passed",
              perfbench::failures);
  return perfbench::failures ? 1 : 0;
}
