#include "sim_ops.h"

#include <algorithm>
#include <memory>

#include "harness/testbed.h"
#include "rmcast/engine/registry.h"
#include "rmcast/receiver.h"
#include "rmcast/sender.h"
#include "spans.h"

namespace perfbench {

namespace rt = rmc::rt;
namespace rmcast = rmc::rmcast;
namespace sim = rmc::sim;

rmc::harness::MulticastRunSpec SimPoint::spec() const {
  rmc::harness::MulticastRunSpec s;
  s.n_receivers = n_receivers;
  s.protocol = protocol;
  s.message_bytes = message_bytes;
  s.seed = cluster.seed;
  s.cluster = cluster;
  s.time_limit = limit;
  return s;
}

std::vector<SimPoint> paper_lan_points(std::uint64_t seed) {
  constexpr std::size_t kReceivers = 30;
  constexpr std::uint64_t kMessage = 500'000;
  // The paper's packet sizes (Figures 10 and 16).
  const std::size_t sizes[] = {500, 1300, 3125, 6250, 50'000};
  const rmcast::ProtocolKind kinds[] = {
      rmcast::ProtocolKind::kAck, rmcast::ProtocolKind::kNakPolling,
      rmcast::ProtocolKind::kRing, rmcast::ProtocolKind::kFlatTree};
  std::vector<SimPoint> points;
  for (rmcast::ProtocolKind kind : kinds) {
    const rmcast::EngineEntry& entry = rmcast::ProtocolRegistry::instance().entry(kind);
    for (std::size_t size : sizes) {
      SimPoint p;
      p.label = std::string(entry.traits.id) + "." + std::to_string(size);
      p.n_receivers = kReceivers;
      p.message_bytes = kMessage;
      p.protocol.kind = kind;
      entry.traits.apply_recommended_tuning(p.protocol, kMessage, kReceivers);
      p.protocol.packet_size = size;
      // No loss is injected, so the seed only names the run.
      p.cluster.seed = mix64(seed + points.size());
      points.push_back(p);
    }
  }
  return points;
}

std::vector<SimPoint> fabric_lossy_points() {
  constexpr std::size_t kReceivers = 255;  // 256 hosts = 16 leaves of 16
  constexpr std::uint64_t kMessage = 131'072;
  constexpr std::size_t kPacket = 8192;
  std::vector<SimPoint> points;
  for (const rmcast::EngineEntry& entry : rmcast::ProtocolRegistry::instance().entries()) {
    SimPoint p;
    p.label = entry.traits.id;
    p.n_receivers = kReceivers;
    p.message_bytes = kMessage;
    p.protocol.kind = entry.kind;
    entry.traits.apply_recommended_tuning(p.protocol, kMessage, kReceivers);
    p.protocol.packet_size = kPacket;
    p.cluster.topology = rmc::net::TopologySpec::spine_leaf(16, 4);
    // fig_scalability_xl's datacenter settings: deep buffers, and timers
    // scaled to the time the sender needs to drain one N-wide ACK wave.
    p.cluster.host.default_rcvbuf_bytes = 4 * 1024 * 1024;
    p.cluster.host.default_sndbuf_bytes = 4 * 1024 * 1024;
    p.cluster.link.queue_frames = 16'384;
    const sim::Time fan_in_drain = sim::microseconds(static_cast<std::int64_t>(kReceivers) * 100);
    p.protocol.rto = std::max(p.protocol.rto, fan_in_drain);
    p.protocol.alloc_rto = std::max(p.protocol.alloc_rto, fan_in_drain);
    p.protocol.max_rto = std::max(p.protocol.max_rto, p.protocol.rto);
    if (p.protocol.receiver_driven_timeouts) {
      p.protocol.receiver_timeout = std::max<sim::Time>(
          p.protocol.receiver_timeout,
          sim::milliseconds(static_cast<std::int64_t>(kReceivers)));
    }
    // Gilbert-Elliott burst loss on every link: rare bursts, 8 frames long.
    p.cluster.link.faults.burst.p_good_to_bad = 0.0003;
    p.cluster.link.faults.burst.p_bad_to_good = 1.0 / 8.0;
    p.cluster.link.faults.burst.loss_good = 0.0;
    p.cluster.link.faults.burst.loss_bad = 1.0;
    // The loss channel is part of the workload, not of its input: every
    // run measures the same loss realisation per family (channel seed =
    // family index + 1), so a run's pass time does not swing with how
    // unlucky the seed's bursts were (3.1-4.4 M events per pass over
    // seeds 1-8). --seed drives the payload bytes.
    p.cluster.seed = points.size() + 1;
    points.push_back(p);
  }
  return points;
}

SimTransfer run_sim_transfer(const SimPoint& point, const rmc::Buffer& payload,
                             std::uint64_t payload_sum, SpanRecorder* spans, Plant plant) {
  SimTransfer out;
  const std::size_t n = point.n_receivers;

  const double build_start = now_seconds();
  rmc::harness::Testbed bed(n, point.cluster);
  // Decorators (traced mode) must outlive the endpoints that hold them.
  std::vector<std::unique_ptr<TimedRuntime>> timed_runtimes;
  std::vector<std::unique_ptr<TimedSocket>> timed_sockets;
  auto runtime = [&](rt::Runtime& inner) -> rt::Runtime& {
    if (spans == nullptr) return inner;
    timed_runtimes.push_back(std::make_unique<TimedRuntime>(inner, *spans));
    return *timed_runtimes.back();
  };
  auto socket = [&](rt::UdpSocket& inner) -> rt::UdpSocket& {
    if (spans == nullptr) return inner;
    timed_sockets.push_back(std::make_unique<TimedSocket>(inner, *spans));
    return *timed_sockets.back();
  };

  rmcast::MulticastSender sender(runtime(bed.sender_runtime()), socket(bed.sender_socket()),
                                 bed.membership(), point.protocol);
  std::vector<std::uint64_t> sums(n, 0);
  std::vector<int> counts(n, 0);
  double verify_s = 0.0;
  std::vector<std::unique_ptr<rmcast::MulticastReceiver>> receivers;
  receivers.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    receivers.push_back(std::make_unique<rmcast::MulticastReceiver>(
        runtime(bed.receiver_runtime(i)), socket(bed.receiver_data_socket(i)),
        socket(bed.receiver_control_socket(i)), bed.membership(), i, point.protocol));
    receivers[i]->set_message_handler([&, i](const rmc::Buffer& message, std::uint32_t) {
      const double t = now_seconds();
      if (plant == Plant::kCorruptDelivery && i == 0 && !message.empty()) {
        rmc::Buffer copy = message;
        copy[copy.size() / 2] ^= 0x01;
        sums[i] = checksum(copy);
      } else {
        sums[i] = checksum(message);
      }
      ++counts[i];
      verify_s += now_seconds() - t;
    });
  }
  const double build_end = now_seconds();
  out.build_s = build_end - build_start;

  sim::Simulator& simulator = bed.simulator();
  bool done = false;
  sim::Time completed_at = 0;
  const double transfer_start = now_seconds();
  sender.send(rmc::BytesView(payload.data(), payload.size()),
              [&](const rmcast::SendOutcome&) {
                done = true;
                completed_at = simulator.now();
              });
  while (!done && simulator.now() < point.limit) {
    if (!simulator.step()) break;
  }
  out.transfer_s = now_seconds() - transfer_start - verify_s;
  out.verify_s = verify_s;

  out.signature.events = simulator.events_executed() + (plant == Plant::kExtraEvent ? 1 : 0);
  out.signature.sim_time_ns = completed_at;

  const rmcast::SenderStats& s = sender.stats();
  out.data_packets = s.data_packets_sent;
  out.retransmissions = s.retransmissions;
  out.alloc_requests = s.alloc_requests_sent;
  out.control_packets = s.alloc_requests_sent;
  for (const auto& r : receivers) {
    const rmcast::ReceiverStats& rs = r->stats();
    out.control_packets += rs.acks_sent + rs.naks_sent + rs.alloc_responses_sent +
                           rs.group_naks_sent;
  }
  rmc::inet::Cluster& cluster = bed.cluster();
  auto add_port = [&](const rmc::net::TxPort::Stats& ps) {
    out.drops += ps.queue_drops + ps.error_drops + ps.burst_drops + ps.link_down_drops;
    out.fault_drops += ps.burst_drops + ps.link_down_drops;
  };
  for (std::size_t h = 0; h < cluster.size(); ++h) {
    if (const rmc::net::TxPort* nic = cluster.host_nic(h)) add_port(nic->stats());
    out.reassembly_timeouts += cluster.host(h).reassembly_timeouts();
  }
  for (const auto& sw : cluster.switches()) {
    for (std::size_t p = 0; p < sw->n_ports(); ++p) {
      add_port(sw->port_tx(p).stats());
      out.port_enqueues += sw->port_tx(p).stats().frames_enqueued;
    }
  }
  out.drops += bed.total_rcvbuf_drops();

  if (!done) {
    out.failure = point.label + ": did not complete within the simulated time limit";
    return out;
  }
  double sim_seconds = sim::to_seconds(completed_at);
  if (plant == Plant::kClockBelowWire) sim_seconds /= 1000.0;
  for (const std::string& e :
       {check_deliveries(sums, counts, payload_sum),
        check_wire_bound(point.message_bytes, point.cluster.link.rate_bps, sim_seconds),
        check_first_transmissions(s.data_packets_sent, point.message_bytes,
                                  point.protocol.packet_size)}) {
    if (!e.empty()) {
      out.error = point.label + ": " + e;
      break;
    }
  }
  return out;
}

}  // namespace perfbench
