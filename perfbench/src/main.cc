// perfbench: runs one workload for a fixed wall time and prints its
// metrics, ending with one JSON result line.
//
//   perfbench --workload paper_lan|fabric_lossy|socket_loopback
//             --seed N --seconds S --trace 0|1 [--spans-out FILE]
//
// Timing: every timed operation is short (one stack build, one simulated
// transfer, one socket transfer) and repeated round-robin across the
// workload's operations until the time is up, so a slow spell on the host
// hits every operation alike. An operation's time is a low quantile of its
// repetitions; pass_s sums those. Everything runs on one thread except the
// traced mode's jobs=N sweep probe, which is reported and never gated.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs every operation
// untraced and then traced (timing decorators, spans kept in memory and
// written to --spans-out at the end), checks that the two agree exactly,
// and prints the per-layer metrics; see README.md for the mapping.
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core.h"
#include "probes.h"
#include "sim_ops.h"
#include "socket_ops.h"
#include "spans.h"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

// What a run reports besides its metrics.
struct Run {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> notes;
  std::vector<Metric> metrics;

  void note(const std::string& what) {
    if (notes.size() < 8) notes.push_back(what);
  }
  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    note("failed: " + why);
  }
  void wrong(const std::string& why) {
    if (why.empty()) return;
    correct = false;
    note("incorrect: " + why);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Traced-mode figures shared by every workload: the codec probe, the
// paper_lan grid through the harness, and the cost of the spans.
void add_common_layer_metrics(Run& run, const Args& args, double trace_overhead,
                              const std::vector<RunSignature>* paper_refs) {
  const CodecProbe codec = run_codec_probe(args.seed, 40);
  run.wrong(codec.error);
  run.add("fec.encode_mbytes_per_s", codec.encode_mbytes_per_s, "MB/s");
  run.add("fec.decode_mbytes_per_s", codec.decode_mbytes_per_s, "MB/s");

  const std::vector<SimPoint> paper = paper_lan_points(args.seed);
  std::vector<RunSignature> refs;
  if (paper_refs != nullptr) {
    refs = *paper_refs;
  } else {
    for (const SimPoint& p : paper) {
      const rmc::Buffer payload = make_payload(p.message_bytes, args.seed);
      refs.push_back(run_sim_transfer(p, payload, checksum(payload), nullptr).signature);
    }
  }
  const GridProbe grid = run_grid_probe(paper, refs, 3);
  run.wrong(grid.error);
  run.add("harness.sweep_speedup", grid.sweep_speedup, "ratio");
  run.add("common.tracer_overhead", grid.tracer_overhead, "ratio");
  run.add("common.metrics_overhead", grid.metrics_overhead, "ratio");
  run.add("bench.trace_overhead", trace_overhead, "ratio");
}

// One line per timed operation: the time it counts with, its median and
// its repetitions.
void print_operations(const char* what, const Samples& samples) {
  for (const auto& [op, v] : samples.by_op()) {
    std::printf("  %-8s %-22s %.6f s  median %.6f s  n=%zu\n", what, op.c_str(),
                quantile(v, kLowQuantile), median(v), v.size());
  }
}

// Writes the first measured round's spans.
void write_spans(Run& run, const Args& args, const SpanRecorder& spans) {
  if (args.spans_out.empty()) return;
  if (!spans.write_csv(args.spans_out)) return run.note("could not write " + args.spans_out);
  std::printf("%zu spans (%llu beyond capacity) written to %s\n", spans.spans().size(),
              static_cast<unsigned long long>(spans.dropped()), args.spans_out.c_str());
}

// One untimed warm-up round, then measured rounds until `seconds` have
// passed; the traced mode keeps the first measured round's spans.
int run_rounds(const Args& args, const std::function<void(bool)>& round, SpanRecorder& spans,
               ReferenceLoop& ref, CpuRotation& cpus) {
  round(false);
  spans.reset_totals();
  const double deadline = now_seconds() + args.seconds;
  int rounds = 0;
  do {
    ref.sample();
    cpus.next();
    spans.set_capture(args.trace && rounds == 0);
    round(true);
    ++rounds;
  } while (now_seconds() < deadline);
  spans.set_capture(false);
  cpus.release();
  return rounds;
}

// Prints the operations and, untraced, adds the end-to-end metrics.
// `bits` is the message payload one pass delivers to every receiver.
void report_pass(Run& run, const Args& args, const char* setup_name, const Samples& setup,
                 const Samples& transfer, const Samples& traced, double bits) {
  print_operations(setup_name, setup);
  print_operations("transfer", transfer);
  if (args.trace) print_operations("traced", traced);
  if (args.trace) return;
  const double pass = transfer.pass_seconds();
  run.add("setup_s", setup.pass_seconds(), "s");
  run.add("pass_s", pass, "s");
  run.add("goodput_mbps", bits / pass / 1e6, "Mbit/s");
  run.add("peak_rss_mb", peak_rss_mib(), "MiB");
}

// paper_lan / fabric_lossy.
void run_sim_workload(const Args& args, const std::vector<SimPoint>& points, bool lossy,
                      Run& run, ReferenceLoop& ref, CpuRotation& cpus) {
  const std::size_t n = points.size();
  std::vector<rmc::Buffer> payloads;
  std::vector<std::uint64_t> sums;
  for (std::size_t i = 0; i < n; ++i) {
    payloads.push_back(make_payload(points[i].message_bytes, mix64(args.seed) + i));
    sums.push_back(checksum(payloads[i]));
  }
  std::vector<std::optional<RunSignature>> first(n);
  Samples build, transfer, traced;
  SpanRecorder spans;
  std::uint32_t request = 0;
  // Per-layer sums over the measured traced transfers.
  std::uint64_t transfers = 0, events = 0, data = 0, retx = 0, control = 0, allocs = 0;
  std::uint64_t enqueues = 0, drops = 0, reasm = 0;
  double traced_loop_s = 0.0, traced_verify_s = 0.0;
  std::uint64_t round_fault_drops = 0;

  auto check_signature = [&](std::size_t i, const SimTransfer& t, const char* what) {
    if (!first[i]) {
      first[i] = t.signature;
    } else {
      const std::string e = check_repetition(*first[i], t.signature);
      if (!e.empty()) run.wrong(points[i].label + " " + what + ": " + e);
    }
  };

  auto operation = [&](std::size_t i, bool measured) {
    ++run.attempted;
    const SimTransfer t = run_sim_transfer(points[i], payloads[i], sums[i], nullptr);
    if (!t.failure.empty()) return run.fail(1, t.failure);
    run.wrong(t.error);
    check_signature(i, t, "repetition");
    round_fault_drops += t.fault_drops;
    if (measured) {
      build.add(points[i].label, t.build_s);
      transfer.add(points[i].label, t.transfer_s);
    }
    if (!args.trace) return;

    ++run.attempted;
    spans.set_request(request++);
    const SimTransfer tt = run_sim_transfer(points[i], payloads[i], sums[i], &spans);
    if (!tt.failure.empty()) return run.fail(1, tt.failure);
    run.wrong(tt.error);
    check_signature(i, tt, "traced run");
    if (!measured) return;
    traced.add(points[i].label, tt.transfer_s);
    ++transfers;
    traced_loop_s += tt.transfer_s;
    traced_verify_s += tt.verify_s;
    events += tt.signature.events;
    data += tt.data_packets;
    retx += tt.retransmissions;
    control += tt.control_packets;
    allocs += tt.alloc_requests;
    enqueues += tt.port_enqueues;
    drops += tt.drops;
    reasm += tt.reassembly_timeouts;
  };
  auto round = [&](bool measured) {
    round_fault_drops = 0;
    for (std::size_t i = 0; i < n; ++i) operation(i, measured);
    if (lossy && round_fault_drops == 0) run.wrong("no frame was dropped in a lossy pass");
  };

  const int rounds = run_rounds(args, round, spans, ref, cpus);
  std::printf("%zu operations x %d rounds (+1 warm-up), at least %zu repetitions each\n",
              n, rounds, transfer.min_repetitions());
  if (transfer.min_repetitions() == 0) return;
  double bits = 0.0;
  for (const SimPoint& p : points) bits += static_cast<double>(p.message_bytes) * 8.0;
  report_pass(run, args, "build", build, transfer, traced, bits);
  if (!args.trace) return;
  const double pass = transfer.pass_seconds();

  std::uint64_t pass_events = 0;
  for (const auto& sig : first) pass_events += sig ? sig->events : 0;
  const SpanTotals& st = spans.totals();
  // The receivers' checksum runs inside rmcast spans; take it out.
  const double rmcast_ns = st.rmcast_ns - traced_verify_s * 1e9;
  const double tr = static_cast<double>(transfers);
  run.add("sim.events_per_transfer", ratio(static_cast<double>(events), tr), "count");
  run.add("sim.events_per_s", ratio(static_cast<double>(pass_events), pass), "1/s");
  run.add("sim.ns_per_event",
          ratio(traced_loop_s * 1e9 + traced_verify_s * 1e9 - st.rmcast_ns,
                static_cast<double>(events)),
          "ns");
  run.add("inet.send_ns_per_datagram", ratio(st.send_ns, static_cast<double>(st.sends)), "ns");
  run.add("inet.reassembly_timeouts_per_transfer", ratio(static_cast<double>(reasm), tr),
          "count");
  run.add("net.port_enqueues_per_data_packet",
          ratio(static_cast<double>(enqueues), static_cast<double>(data)), "count");
  run.add("net.drops_per_transfer", ratio(static_cast<double>(drops), tr), "count");
  run.add("rmcast.handler_ns_per_packet",
          ratio(rmcast_ns - st.nested_send_ns, static_cast<double>(st.packets_handled)), "ns");
  run.add("rmcast.control_per_data_packet",
          ratio(static_cast<double>(control), static_cast<double>(data)), "count");
  run.add("rmcast.retransmissions_per_transfer", ratio(static_cast<double>(retx), tr), "count");
  run.add("rmcast.alloc_requests_per_transfer", ratio(static_cast<double>(allocs), tr),
          "count");
  // The simulated stack never enters the posix runtime.
  run.add("runtime.tx_syscalls_per_datagram", 0.0, "count");
  run.add("runtime.rx_syscalls_per_datagram", 0.0, "count");
  run.add("runtime.send_ns_per_datagram", 0.0, "ns");

  // paper_lan's own signatures serve the harness probe; a point that never
  // completed leaves none, and the probe then makes its own.
  std::vector<RunSignature> refs;
  for (const auto& sig : first) {
    if (sig) refs.push_back(*sig);
  }
  add_common_layer_metrics(run, args, ratio(traced.pass_seconds(), pass),
                           !lossy && refs.size() == n ? &refs : nullptr);
  write_spans(run, args, spans);
}

void run_socket_workload(const Args& args, Run& run, ReferenceLoop& ref, CpuRotation& cpus) {
  const std::vector<SocketConfig> configs = socket_configs();
  std::vector<rmc::Buffer> payloads;
  std::vector<std::uint64_t> sums;
  for (std::size_t c = 0; c < configs.size(); ++c) {
    payloads.push_back(make_payload(configs[c].message_bytes, mix64(args.seed) + c));
    sums.push_back(checksum(payloads[c]));
  }
  // A pass is one session per configuration: the cold first transfer and
  // the warm ones after it.
  Samples setup, transfer, traced;
  for (const SocketConfig& c : configs) {
    transfer.set_per_pass(c.label + ".warm", c.warm_transfers);
    traced.set_per_pass(c.label + ".warm", c.warm_transfers);
  }
  SpanRecorder spans;
  std::uint32_t request = 0;
  std::uint64_t transfers = 0, data = 0, retx = 0, control = 0, allocs = 0;
  std::uint64_t tx_calls = 0, rx_calls = 0, dgrams_out = 0, dgrams_in = 0;
  double traced_verify_s = 0.0;

  // Opens one group, sends the cold first message and the warm ones.
  // Returns what the session did, or nothing if an operation failed.
  auto session = [&](const SocketConfig& c, std::size_t ci, bool measured,
                     bool tracing) -> std::optional<SessionProfile> {
    const std::uint64_t ops = 2 + static_cast<std::uint64_t>(c.warm_transfers);
    run.attempted += ops;
    const double t0 = now_seconds();
    LoopbackStack stack(c, tracing ? &spans : nullptr);
    const double open_s = now_seconds() - t0;
    if (!stack.ok()) {
      run.fail(ops, c.label + ": could not open the loopback sockets or join the group");
      return std::nullopt;
    }
    if (measured && !tracing) setup.add(c.label, open_s);
    SessionProfile profile;
    for (int k = 0; k <= c.warm_transfers; ++k) {
      if (tracing) spans.set_request(request++);
      const SocketTransfer t = stack.transfer(payloads[ci], sums[ci]);
      if (!t.failure.empty()) {
        run.fail(static_cast<std::uint64_t>(c.warm_transfers + 1 - k), t.failure);
        return std::nullopt;
      }
      run.wrong(t.error);
      profile.transfers.push_back({t.data_packets, t.retransmissions, t.accepted});
      if (!measured) continue;
      const std::string op = c.label + (k == 0 ? ".cold" : ".warm");
      if (tracing) {
        traced.add(op, t.seconds);
        traced_verify_s += t.verify_s;
        continue;
      }
      transfer.add(op, t.seconds);
      ++transfers;
      data += t.data_packets;
      retx += t.retransmissions;
      control += t.control_packets;
      allocs += t.alloc_requests;
    }
    if (measured && !tracing) {
      const rmc::metrics::Registry& m = stack.runtime().metrics();
      auto counter = [&](const char* name) -> std::uint64_t {
        const auto* c = m.find_counter(name);
        return c != nullptr ? c->value() : 0;
      };
      tx_calls += counter("posix.sendmmsg_calls") + counter("posix.sendto_calls");
      rx_calls += counter("posix.recvmmsg_calls") + counter("posix.recvfrom_calls");
      dgrams_out += counter("posix.datagrams_sent");
      dgrams_in += counter("posix.datagrams_received");
    }
    profile.io_calls = stack.io_calls();
    return profile;
  };
  auto round = [&](bool measured) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const auto plain = session(configs[c], c, measured, false);
      if (!args.trace) continue;
      const auto assembled = session(configs[c], c, measured, true);
      if (plain && assembled) {
        const std::string e = check_stack_agreement(*plain, *assembled);
        if (!e.empty()) run.wrong(configs[c].label + " traced stack against PosixSession: " + e);
      }
    }
  };

  const int rounds = run_rounds(args, round, spans, ref, cpus);
  std::printf("%zu sessions x %d rounds (+1 warm-up), at least %zu repetitions each\n",
              configs.size(), rounds, transfer.min_repetitions());
  if (transfer.min_repetitions() == 0) return;
  double bits = 0.0;  // every message of one session per configuration
  for (const SocketConfig& c : configs) {
    bits += (1.0 + c.warm_transfers) * static_cast<double>(c.message_bytes) * 8.0;
  }
  report_pass(run, args, "open", setup, transfer, traced, bits);
  if (!args.trace) return;
  const double pass = transfer.pass_seconds();

  const SpanTotals& st = spans.totals();
  const double tr = static_cast<double>(transfers);
  // Real sockets bypass the simulator, net and inet entirely.
  run.add("sim.events_per_transfer", 0.0, "count");
  run.add("sim.events_per_s", 0.0, "1/s");
  run.add("sim.ns_per_event", 0.0, "ns");
  run.add("inet.send_ns_per_datagram", 0.0, "ns");
  run.add("inet.reassembly_timeouts_per_transfer", 0.0, "count");
  run.add("net.port_enqueues_per_data_packet", 0.0, "count");
  run.add("net.drops_per_transfer", 0.0, "count");
  run.add("rmcast.handler_ns_per_packet",
          ratio(st.rmcast_ns - traced_verify_s * 1e9 - st.nested_send_ns,
                static_cast<double>(st.packets_handled)),
          "ns");
  run.add("rmcast.control_per_data_packet",
          ratio(static_cast<double>(control), static_cast<double>(data)), "count");
  run.add("rmcast.retransmissions_per_transfer", ratio(static_cast<double>(retx), tr), "count");
  run.add("rmcast.alloc_requests_per_transfer", ratio(static_cast<double>(allocs), tr),
          "count");
  run.add("runtime.tx_syscalls_per_datagram",
          ratio(static_cast<double>(tx_calls), static_cast<double>(dgrams_out)), "count");
  run.add("runtime.rx_syscalls_per_datagram",
          ratio(static_cast<double>(rx_calls), static_cast<double>(dgrams_in)), "count");
  run.add("runtime.send_ns_per_datagram", ratio(st.send_ns, static_cast<double>(st.sends)),
          "ns");
  add_common_layer_metrics(run, args, ratio(traced.pass_seconds(), pass), nullptr);
  write_spans(run, args, spans);
}

bool parse_args(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--spans-out") {
      args.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0;
}

int run_main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_lan|fabric_lossy|socket_loopback "
                 "--seed N --seconds S --trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  Run run;
  ReferenceLoop ref;
  CpuRotation cpus;
  std::printf("workload %s, seed %llu, %.0f s, trace %d\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  if (args.workload == "paper_lan") {
    run_sim_workload(args, paper_lan_points(args.seed), false, run, ref, cpus);
  } else if (args.workload == "fabric_lossy") {
    run_sim_workload(args, fabric_lossy_points(), true, run, ref, cpus);
  } else if (args.workload == "socket_loopback") {
    run_socket_workload(args, run, ref, cpus);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  for (const std::string& n : run.notes) std::fprintf(stderr, "%s\n", n.c_str());
  // Host context, never folded into a metric.
  std::printf("reference loop best %.4f ms; vCPUs seen %s\n", ref.best_ms(),
              cpus.describe().c_str());
  for (const Metric& m : run.metrics) {
    std::printf("%-40s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", result_json(run.correct, run.attempted, run.failed, run.metrics).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
