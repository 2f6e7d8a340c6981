// The simulator workloads' operations: one stack build plus one simulated
// transfer, assembled from the program's public constructors
// (harness::Testbed, MulticastSender, MulticastReceiver) and stepped from
// the benchmark's own loop, so the same code runs untraced and — with
// timing decorators around every runtime and socket — traced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core.h"
#include "harness/experiment.h"
#include "inet/cluster.h"
#include "rmcast/config.h"

namespace perfbench {

class SpanRecorder;

struct SimPoint {
  std::string label;
  std::size_t n_receivers = 30;
  rmc::rmcast::ProtocolConfig protocol;
  std::uint64_t message_bytes = 0;
  rmc::inet::ClusterParams cluster;  // cluster.seed drives the loss channel
  rmc::sim::Time limit = rmc::sim::seconds(120.0);

  // The same point as a harness run spec (for SweepRunner / run_multicast).
  rmc::harness::MulticastRunSpec spec() const;
};

// Figure-7 two-switch LAN, 30 receivers, 500 KB messages, no loss: ACK,
// NAK-polling, ring and flat tree at the registry's recommended tuning,
// each at the paper's packet sizes 500 B .. 50 KB (20 points).
std::vector<SimPoint> paper_lan_points(std::uint64_t seed);

// spine_leaf(16, 4) with 255 receivers, 128 KiB messages in 8 KiB
// packets, all seven families with fig_scalability_xl's fan-in-scaled
// timers and deep buffers, Gilbert-Elliott burst loss on every link.
std::vector<SimPoint> fabric_lossy_points();

// A fault planted into an operation's observed outputs, so the self-test
// can show each check trips. kNone in every real run.
enum class Plant {
  kNone,
  kCorruptDelivery,  // one delivered byte flipped before the checksum
  kClockBelowWire,   // simulated time reported 1000x too small
  kExtraEvent,       // one more executed event than actually ran
  kCorruptDecode,    // codec probe: one reconstructed byte flipped
};

struct SimTransfer {
  std::string failure;  // the operation did not finish (timeout)
  std::string error;    // it finished with wrong outputs
  double build_s = 0.0;
  double transfer_s = 0.0;  // stepping time, checksum time excluded
  double verify_s = 0.0;    // checksum time (inside rmcast spans when traced)
  RunSignature signature;

  // Counts for the per-layer metrics.
  std::uint64_t data_packets = 0;  // first transmissions
  std::uint64_t retransmissions = 0;
  std::uint64_t control_packets = 0;  // ACK + NAK + ALLOC_REQ/RSP + GROUP_NAK
  std::uint64_t alloc_requests = 0;
  std::uint64_t port_enqueues = 0;  // switch ports
  std::uint64_t drops = 0;          // queue + error + rcvbuf + fault
  std::uint64_t fault_drops = 0;    // burst + link-down
  std::uint64_t reassembly_timeouts = 0;
};

// Builds the point's stack, sends `payload` once and checks the outputs.
// With `spans`, every runtime and socket is wrapped in a timing decorator.
SimTransfer run_sim_transfer(const SimPoint& point, const rmc::Buffer& payload,
                             std::uint64_t payload_sum, SpanRecorder* spans,
                             Plant plant = Plant::kNone);

}  // namespace perfbench
