#include "core.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

rmc::Buffer make_payload(std::uint64_t n, std::uint64_t seed) {
  rmc::Buffer data(n);
  std::uint64_t state = mix64(seed ^ 0x5045524642454E43ull);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    state = mix64(state);
    std::memcpy(data.data() + i, &state, 8);
  }
  state = mix64(state);
  for (; i < n; ++i, state >>= 8) data[i] = static_cast<std::uint8_t>(state);
  return data;
}

std::uint64_t checksum(const std::uint8_t* data, std::size_t n) {
  // Two running sums over 64-bit words (Fletcher): the second weights
  // each word by its position, so swaps and shifts are caught too.
  std::uint64_t s1 = 0, s2 = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, data + i, 8);
    s1 += w;
    s2 += s1;
  }
  std::uint64_t tail = 0;
  for (std::size_t j = 0; i + j < n; ++j) tail |= std::uint64_t{data[i + j]} << (8 * j);
  s1 += tail;
  s2 += s1;
  return mix64(s1 ^ mix64(s2 ^ n));
}

std::string check_deliveries(const std::vector<std::uint64_t>& delivered_sums,
                             const std::vector<int>& delivered_counts,
                             std::uint64_t expected_sum) {
  for (std::size_t i = 0; i < delivered_counts.size(); ++i) {
    if (delivered_counts[i] != 1) {
      return "receiver " + std::to_string(i) + " delivered " +
             std::to_string(delivered_counts[i]) + " copies";
    }
    if (delivered_sums[i] != expected_sum) {
      return "receiver " + std::to_string(i) + " delivered a corrupted copy";
    }
  }
  return "";
}

std::string check_wire_bound(std::uint64_t message_bytes, double link_bps,
                             double sim_seconds) {
  const double bound = static_cast<double>(message_bytes) * 8.0 / link_bps;
  if (sim_seconds < bound) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "simulated time %.9f s is below the wire bound %.9f s",
                  sim_seconds, bound);
    return buf;
  }
  return "";
}

std::string check_first_transmissions(std::uint64_t data_packets_sent,
                                      std::uint64_t message_bytes,
                                      std::uint64_t packet_size) {
  const std::uint64_t want = (message_bytes + packet_size - 1) / packet_size;
  if (data_packets_sent != want) {
    return "sender made " + std::to_string(data_packets_sent) +
           " first transmissions, expected " + std::to_string(want);
  }
  return "";
}

std::string check_packets_accepted(const std::vector<std::uint64_t>& accepted,
                                   std::uint64_t message_bytes,
                                   std::uint64_t packet_size) {
  const std::uint64_t want = (message_bytes + packet_size - 1) / packet_size;
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    if (accepted[i] < want) {
      return "receiver " + std::to_string(i) + " accepted " + std::to_string(accepted[i]) +
             " data packets, expected at least " + std::to_string(want);
    }
  }
  return "";
}

std::string check_repetition(const RunSignature& first, const RunSignature& again) {
  if (again.events == 0) return "repetition executed no events";
  if (again.events != first.events || again.sim_time_ns != first.sim_time_ns) {
    return "repetition diverged: " + std::to_string(again.events) + " events at " +
           std::to_string(again.sim_time_ns) + " ns, first run " +
           std::to_string(first.events) + " events at " +
           std::to_string(first.sim_time_ns) + " ns";
  }
  return "";
}

std::string check_stack_agreement(const SessionProfile& session,
                                  const SessionProfile& assembled) {
  if (session.io_calls != assembled.io_calls) {
    return "I/O calls differ: session '" + session.io_calls + "', assembled stack '" +
           assembled.io_calls + "'";
  }
  if (session.transfers.size() != assembled.transfers.size()) {
    return "transfer counts differ";
  }
  for (std::size_t k = 0; k < session.transfers.size(); ++k) {
    const SessionProfile::Transfer& a = session.transfers[k];
    const SessionProfile::Transfer& b = assembled.transfers[k];
    if (a.first_transmissions != b.first_transmissions) {
      return "transfer " + std::to_string(k) + ": first transmissions differ (" +
             std::to_string(a.first_transmissions) + " against " +
             std::to_string(b.first_transmissions) + ")";
    }
    if (a.retransmissions == 0 && b.retransmissions == 0 && a.accepted != b.accepted) {
      return "transfer " + std::to_string(k) + ": accepted data packets differ";
    }
  }
  return "";
}

double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double Samples::pass_seconds() const {
  double sum = 0.0;
  for (const auto& [op, v] : by_op_) {
    const auto count = per_pass_.find(op);
    sum += quantile(v, kLowQuantile) * (count == per_pass_.end() ? 1.0 : count->second);
  }
  return sum;
}

std::size_t Samples::min_repetitions() const {
  std::size_t n = by_op_.empty() ? 0 : SIZE_MAX;
  for (const auto& [op, v] : by_op_) n = std::min(n, v.size());
  return n;
}

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ReferenceLoop::sample() {
  // 2^21 dependent multiply-xorshift steps: pure integer work, no memory.
  const double t0 = now_seconds();
  std::uint64_t x = 0x243F6A8885A308D3ull;
  for (int i = 0; i < (1 << 21); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x *= 0x2545F4914F6CDD1Dull;
  }
  const double t1 = now_seconds();
  // Keep the result live so the loop is not folded away.
  __asm__ volatile("" : : "r"(x));
  ms_.push_back((t1 - t0) * 1e3);
}

double ReferenceLoop::best_ms() const {
  return ms_.empty() ? 0.0 : *std::min_element(ms_.begin(), ms_.end());
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof original_, &original_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) allowed_.push_back(cpu);
  }
}

void CpuRotation::release() {
  if (!allowed_.empty()) sched_setaffinity(0, sizeof original_, &original_);
}

void CpuRotation::next() {
  if (!allowed_.empty()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(allowed_[next_++ % allowed_.size()], &set);
    sched_setaffinity(0, sizeof set, &set);  // best effort: a refusal leaves placement as is
  }
  const int cpu = sched_getcpu();
  if (cpu >= 0 && std::find(seen_.begin(), seen_.end(), cpu) == seen_.end()) {
    seen_.push_back(cpu);
  }
}

std::string CpuRotation::describe() const {
  std::vector<int> sorted = seen_;
  std::sort(sorted.begin(), sorted.end());
  std::string out;
  for (int c : sorted) out += (out.empty() ? "" : ",") + std::to_string(c);
  return out.empty() ? "unknown" : out;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string result_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    out += (i ? ", " : "") + std::string("\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
