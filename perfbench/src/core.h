// Shared pieces of the benchmark: seeded inputs, the payload checksum,
// the correctness checks every operation runs, and the aggregation that
// turns repeated timings into the reported numbers.
//
// The checks are plain functions returning an error string ("" = pass) so
// the self-test can feed them planted faults directly.
#pragma once

#include <sched.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/serial.h"

namespace perfbench {

// splitmix64: the seed -> input stream of every workload.
std::uint64_t mix64(std::uint64_t x);

// `n` payload bytes drawn from `seed`.
rmc::Buffer make_payload(std::uint64_t n, std::uint64_t seed);

// Fletcher-style checksum over 64-bit words (tail bytes folded in): any
// single corrupted or displaced byte changes it. Cheap enough to run on
// every delivered copy.
std::uint64_t checksum(const std::uint8_t* data, std::size_t n);
inline std::uint64_t checksum(const rmc::Buffer& b) { return checksum(b.data(), b.size()); }

// ---- Correctness checks (each returns "" when the property holds) ------

// Every receiver delivered exactly one copy and its checksum equals the
// checksum of the generated payload.
std::string check_deliveries(const std::vector<std::uint64_t>& delivered_sums,
                             const std::vector<int>& delivered_counts,
                             std::uint64_t expected_sum);

// A simulated transfer cannot beat the sender's link: the communication
// time is at least message bits / link rate.
std::string check_wire_bound(std::uint64_t message_bytes, double link_bps,
                             double sim_seconds);

// First transmissions equal ceil(message bytes / packet size).
std::string check_first_transmissions(std::uint64_t data_packets_sent,
                                      std::uint64_t message_bytes,
                                      std::uint64_t packet_size);

// Every receiver accepted at least ceil(bytes / packet size) data packets.
std::string check_packets_accepted(const std::vector<std::uint64_t>& accepted,
                                   std::uint64_t message_bytes,
                                   std::uint64_t packet_size);

// The simulator is deterministic: a repetition of a point executes the
// same nonzero number of events and completes at the same simulated time.
struct RunSignature {
  std::uint64_t events = 0;
  std::int64_t sim_time_ns = 0;
};
std::string check_repetition(const RunSignature& first, const RunSignature& again);

// What one socket session did. The traced socket stack copies
// PosixSession's wiring (PosixSession builds its endpoints on its own
// runtime, so decorators cannot be put around it); comparing the two
// profiles pins the copy to the original.
struct SessionProfile {
  struct Transfer {
    std::uint64_t first_transmissions = 0;
    std::uint64_t retransmissions = 0;
    std::vector<std::uint64_t> accepted;  // data packets, per receiver
  };
  std::vector<Transfer> transfers;
  // The posix I/O calls the session's runtime made at all, space-separated
  // (batching and GSO show here).
  std::string io_calls;
};

// The two sessions made the same I/O calls and the same first
// transmissions per transfer, and every receiver accepted the same number
// of data packets in each transfer that neither session retransmitted in.
std::string check_stack_agreement(const SessionProfile& session,
                                  const SessionProfile& assembled);

// ---- Aggregation --------------------------------------------------------

// The q-quantile (0 <= q <= 1) of `v` with linear interpolation between
// order statistics; q = 0 is the minimum. `v` must not be empty.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

// Which quantile of an operation's repetitions stands for its time: the
// best, because noise on a shared host only ever slows an operation. Over
// five 25 s runs of paper_lan the sum of minima spread less than the sum
// of 10th percentiles (IQR 14% against 18%) and far less than medians.
inline constexpr double kLowQuantile = 0.0;

// Timings of the operations of one workload, keyed by operation name.
class Samples {
 public:
  void add(const std::string& op, double seconds) { by_op_[op].push_back(seconds); }
  // How many times `op` occurs in one pass (default 1).
  void set_per_pass(const std::string& op, double count) { per_pass_[op] = count; }
  const std::map<std::string, std::vector<double>>& by_op() const { return by_op_; }
  // Sum over operations of each one's kLowQuantile time, times its
  // occurrences per pass.
  double pass_seconds() const;
  std::size_t min_repetitions() const;

 private:
  std::map<std::string, std::vector<double>> by_op_;
  std::map<std::string, double> per_pass_;
};

// ---- Host context -------------------------------------------------------

// Wall clock in seconds (steady).
double now_seconds();

// Best time (ms) of a fixed integer loop, sampled alongside the workload:
// a slow host shows up here rather than as a regression. Never used to
// scale a metric.
class ReferenceLoop {
 public:
  void sample();
  double best_ms() const;

 private:
  std::vector<double> ms_;
};

// Moves the (single) measuring thread to the next vCPU of its affinity
// mask at every round. On a shared host one vCPU can be far slower than
// another for a whole run (a busy sibling thread); rotating puts every
// operation's repetitions on every vCPU, so the low quantile no longer
// depends on where the scheduler happened to park the run.
class CpuRotation {
 public:
  CpuRotation();
  void next();
  // Restores the original affinity mask (threads started later inherit it).
  void release();
  // vCPUs the rounds ran on, as observed with sched_getcpu().
  std::string describe() const;

 private:
  std::vector<int> allowed_;
  cpu_set_t original_;
  std::size_t next_ = 0;
  std::vector<int> seen_;
};

// Peak resident set size of this process, MiB.
double peak_rss_mib();

// ---- Output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
