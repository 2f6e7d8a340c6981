// The socket_loopback workload's operations: real UDP multicast over
// loopback in one process. Untraced, the stack is a PosixSession; traced,
// the same stack is assembled from PosixRuntime::open_socket and the
// rmcast constructors with timing decorators around the runtime and every
// socket, because PosixSession builds its endpoints on its own runtime.
// The traced mode checks the copy against PosixSession every round
// (check_stack_agreement in core.h).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core.h"
#include "rmcast/config.h"
#include "rmcast/group.h"
#include "runtime/posix_runtime.h"
#include "sim_ops.h"

namespace rmc::rmcast {
class PosixSession;
}

namespace perfbench {

class SpanRecorder;

struct SocketConfig {
  std::string label;
  rmc::rmcast::ProtocolConfig protocol;
  std::uint64_t message_bytes = 0;
  std::size_t n_receivers = 4;
  // Transfers per session after the cold first one.
  int warm_transfers = 0;
  // Loopback ports base_port .. base_port + 1 + n_receivers. Kept outside
  // 48300-48799, which the tests and bench/posix_loopback use.
  std::uint16_t base_port = 0;
  rmc::net::Ipv4Addr group;
  rmc::sim::Time limit = rmc::sim::seconds(5.0);
};

// NAK-polling with 8 KiB packets and 4 MiB messages (batched GSO/GRO
// path, byte-bound), and ACK-based with 1400 B packets and 500 KB
// messages (one frame per datagram, an ACK per packet: packet-bound).
std::vector<SocketConfig> socket_configs();

struct SocketTransfer {
  std::string failure;  // did not complete within the limit
  std::string error;    // completed with wrong outputs
  double seconds = 0.0;  // wall time, checksum time excluded
  double verify_s = 0.0;  // checksum time (inside rmcast spans when traced)
  // Deltas over this transfer.
  std::uint64_t data_packets = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t control_packets = 0;
  std::uint64_t alloc_requests = 0;
  std::vector<std::uint64_t> accepted;  // data packets, per receiver
};

// One open group on loopback: a PosixSession, or with `spans` the same
// stack assembled with timing decorators.
class LoopbackStack {
 public:
  LoopbackStack(const SocketConfig& config, SpanRecorder* spans);
  ~LoopbackStack();
  LoopbackStack(const LoopbackStack&) = delete;
  LoopbackStack& operator=(const LoopbackStack&) = delete;

  // False when the OS refused a socket or the group join.
  bool ok() const;
  SocketTransfer transfer(const rmc::Buffer& payload, std::uint64_t payload_sum,
                          Plant plant = Plant::kNone);
  rmc::rt::PosixRuntime& runtime();
  // The posix I/O calls the runtime has made at all (SessionProfile).
  std::string io_calls();

 private:
  struct Assembled;
  const SocketConfig& config_;
  std::unique_ptr<rmc::rmcast::PosixSession> session_;
  std::unique_ptr<Assembled> assembled_;
};

}  // namespace perfbench
