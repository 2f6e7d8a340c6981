// Traced-mode probes that are not one workload's transfers: the GF(2^8)
// codec timed directly, and the paper_lan grid run through the harness
// (SweepRunner at jobs=1 and jobs=N, run_multicast with a Tracer or a
// metrics Registry attached).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core.h"
#include "sim_ops.h"

namespace perfbench {

struct CodecProbe {
  std::string error;  // a decode did not restore the erased blocks
  double encode_mbytes_per_s = 0.0;
  double decode_mbytes_per_s = 0.0;
};

// fec::Codec at fabric_lossy's EC shapes, (16, 1) and (32, 8), over 8 KiB
// blocks: best-of-`reps` encode and decode of m erased data blocks,
// throughput in data MB (10^6 B) per second.
CodecProbe run_codec_probe(std::uint64_t seed, int reps, Plant plant = Plant::kNone);

struct GridProbe {
  std::string error;
  double sweep_speedup = 0.0;     // jobs=1 wall / jobs=N wall
  double tracer_overhead = 0.0;   // with trace::Tracer / without
  double metrics_overhead = 0.0;  // with metrics::Registry / without
};

// Runs `points` `reps` times in each configuration, interleaved. The sweep
// speedup compares best whole-grid wall times; the overheads compare sums
// of per-point best times. Every SweepRunner repetition of a point must
// match `expected` (the benchmark's own transfer of it) exactly.
GridProbe run_grid_probe(const std::vector<SimPoint>& points,
                         const std::vector<RunSignature>& expected, int reps);

}  // namespace perfbench
