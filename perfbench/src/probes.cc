#include "probes.h"

#include <sched.h>

#include <algorithm>
#include <cstring>
#include <limits>

#include "common/trace.h"
#include "harness/sweep.h"
#include "rmcast/fec/codec.h"

namespace perfbench {

namespace fec = rmc::rmcast::fec;
namespace harness = rmc::harness;

namespace {

std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)));
}

std::string check_grid_result(const SimPoint& point, const harness::RunResult& r,
                              const RunSignature& expected) {
  if (!r.completed) return point.label + ": harness run failed: " + r.error;
  RunSignature got;
  got.events = r.events_executed;
  // run_multicast reports seconds converted from the same integer clock.
  got.sim_time_ns = r.seconds == rmc::sim::to_seconds(expected.sim_time_ns)
                        ? expected.sim_time_ns
                        : -1;
  const std::string e = check_repetition(expected, got);
  return e.empty() ? "" : point.label + " (harness): " + e;
}

}  // namespace

CodecProbe run_codec_probe(std::uint64_t seed, int reps, Plant plant) {
  constexpr std::size_t kBlock = 8192;
  const std::pair<std::size_t, std::size_t> shapes[] = {{16, 1}, {32, 8}};
  CodecProbe out;
  double encode_s = 0.0, decode_s = 0.0, bytes = 0.0;
  std::uint64_t state = mix64(seed ^ 0xFEC);
  for (auto [k, m] : shapes) {
    const fec::Codec codec(k, m);
    std::vector<rmc::Buffer> data(k), parity(m, rmc::Buffer(kBlock));
    for (std::size_t i = 0; i < k; ++i) data[i] = make_payload(kBlock, state = mix64(state));
    std::vector<const std::uint8_t*> data_in(k);
    std::vector<std::uint8_t*> parity_out(m);
    for (std::size_t i = 0; i < k; ++i) data_in[i] = data[i].data();
    for (std::size_t j = 0; j < m; ++j) parity_out[j] = parity[j].data();

    // Erase m distinct data blocks chosen from the seed.
    std::vector<std::size_t> order(k);
    for (std::size_t i = 0; i < k; ++i) order[i] = i;
    for (std::size_t i = k - 1; i > 0; --i) {
      std::swap(order[i], order[(state = mix64(state)) % (i + 1)]);
    }
    std::vector<rmc::Buffer> work = data;
    std::vector<std::uint8_t*> work_ptrs(k);
    for (std::size_t i = 0; i < k; ++i) work_ptrs[i] = work[i].data();
    std::unique_ptr<bool[]> present(new bool[k]);
    std::unique_ptr<bool[]> parity_present(new bool[m]);
    std::vector<const std::uint8_t*> parity_in(m);
    for (std::size_t j = 0; j < m; ++j) {
      parity_present[j] = true;
      parity_in[j] = parity[j].data();
    }

    double best_encode = std::numeric_limits<double>::max();
    double best_decode = std::numeric_limits<double>::max();
    for (int r = 0; r < reps; ++r) {
      double t = now_seconds();
      codec.encode(data_in.data(), parity_out.data(), kBlock, fec::Backend::kWide);
      best_encode = std::min(best_encode, now_seconds() - t);

      for (std::size_t i = 0; i < k; ++i) present[i] = true;
      for (std::size_t e = 0; e < m; ++e) {
        present[order[e]] = false;
        std::memset(work[order[e]].data(), 0xA5, kBlock);
      }
      t = now_seconds();
      const bool decoded = codec.decode(work_ptrs.data(), present.get(), parity_in.data(),
                                        parity_present.get(), kBlock, fec::Backend::kWide);
      best_decode = std::min(best_decode, now_seconds() - t);
      if (plant == Plant::kCorruptDecode) work[order[0]][kBlock / 3] ^= 0x40;
      if (!decoded) {
        out.error = "codec (" + std::to_string(k) + "," + std::to_string(m) +
                    ") refused a decodable erasure pattern";
        return out;
      }
      for (std::size_t e = 0; e < m; ++e) {
        if (work[order[e]] != data[order[e]]) {
          out.error = "codec (" + std::to_string(k) + "," + std::to_string(m) +
                      ") decode did not restore erased block " + std::to_string(order[e]);
          return out;
        }
      }
    }
    encode_s += best_encode;
    decode_s += best_decode;
    bytes += static_cast<double>(k * kBlock);
  }
  out.encode_mbytes_per_s = bytes / encode_s / 1e6;
  out.decode_mbytes_per_s = bytes / decode_s / 1e6;
  return out;
}

GridProbe run_grid_probe(const std::vector<SimPoint>& points,
                         const std::vector<RunSignature>& expected, int reps) {
  GridProbe out;
  const std::size_t jobs_n = usable_cpus();
  double serial = std::numeric_limits<double>::max(), parallel = serial;

  auto fail = [&](const std::string& e) {
    if (out.error.empty()) out.error = e;
  };
  auto sweep = [&](std::size_t jobs) {
    harness::SweepRunner::Options options;
    options.jobs = jobs;
    options.cache = false;  // time real runs, not fingerprint-cache hits
    const double t = now_seconds();
    harness::SweepRunner runner(options);
    std::vector<harness::SweepRunner::Ticket> tickets;
    for (const SimPoint& p : points) tickets.push_back(runner.submit(p.spec()));
    // Timed through result(), which blocks until the point has run:
    // wait_all() alone returns early when the runner has no metrics sink.
    std::vector<const harness::RunResult*> results;
    for (harness::SweepRunner::Ticket ticket : tickets) {
      results.push_back(&runner.result(ticket));
    }
    const double wall = now_seconds() - t;
    for (std::size_t i = 0; i < points.size(); ++i) {
      fail(check_grid_result(points[i], *results[i], expected[i]));
    }
    const auto stats = runner.stats();
    if (stats.cache_hits != 0 || stats.executed != points.size()) {
      fail("sweep served points from its cache");
    }
    return wall;
  };
  // One run_multicast of point i with no sink (0), a Tracer (1) or a
  // metrics Registry (2) attached; each point's best time is kept.
  enum { kPlain, kTracer, kMetrics, kVariants };
  std::vector<std::vector<double>> best(kVariants, std::vector<double>(points.size(),
                                                                   std::numeric_limits<double>::max()));
  auto attached = [&](std::size_t i, int variant) {
    harness::MulticastRunSpec spec = points[i].spec();
    rmc::trace::Tracer tracer;
    rmc::metrics::Registry registry;
    if (variant == kTracer) spec.tracer = &tracer;
    if (variant == kMetrics) spec.metrics = &registry;
    const double t = now_seconds();
    const harness::RunResult r = harness::run_multicast(spec);
    best[variant][i] = std::min(best[variant][i], now_seconds() - t);
    if (!r.completed) fail(points[i].label + ": harness run failed: " + r.error);
  };

  for (int r = 0; r < reps; ++r) {
    serial = std::min(serial, sweep(1));
    parallel = std::min(parallel, sweep(jobs_n));
    for (std::size_t i = 0; i < points.size(); ++i) {
      for (int variant = 0; variant < kVariants; ++variant) attached(i, variant);
    }
  }
  auto total = [&](int variant) {
    double sum = 0.0;
    for (double t : best[variant]) sum += t;
    return sum;
  };
  out.sweep_speedup = serial / parallel;
  out.tracer_overhead = total(kTracer) / total(kPlain);
  out.metrics_overhead = total(kMetrics) / total(kPlain);
  return out;
}

}  // namespace perfbench
