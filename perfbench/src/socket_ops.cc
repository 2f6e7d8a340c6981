#include "socket_ops.h"

#include <functional>
#include <optional>

#include "rmcast/engine/registry.h"
#include "rmcast/session.h"
#include "spans.h"

namespace perfbench {

namespace rt = rmc::rt;
namespace rmcast = rmc::rmcast;
namespace sim = rmc::sim;

namespace {

rmcast::GroupMembership loopback_membership(const SocketConfig& c) {
  const rmc::net::Ipv4Addr lo(127, 0, 0, 1);
  rmcast::GroupMembership m;
  m.group = {c.group, c.base_port};
  m.sender_control = {lo, static_cast<std::uint16_t>(c.base_port + 1)};
  for (std::size_t i = 0; i < c.n_receivers; ++i) {
    m.receiver_control.push_back({lo, static_cast<std::uint16_t>(c.base_port + 2 + i)});
  }
  return m;
}

// Sums over the group of the counters a transfer's deltas are taken from.
struct Counts {
  std::uint64_t data_packets = 0, retransmissions = 0, alloc_requests = 0, control = 0;
  std::vector<std::uint64_t> accepted;
};

template <class Stack>
Counts read_counts(Stack& stack, std::size_t n) {
  Counts c;
  const rmcast::SenderStats& s = stack.sender().stats();
  c.data_packets = s.data_packets_sent;
  c.retransmissions = s.retransmissions;
  c.alloc_requests = s.alloc_requests_sent;
  c.control = s.alloc_requests_sent;
  for (std::size_t i = 0; i < n; ++i) {
    const rmcast::ReceiverStats& r = stack.receiver(i).stats();
    c.control += r.acks_sent + r.naks_sent + r.alloc_responses_sent + r.group_naks_sent;
    c.accepted.push_back(r.data_packets_received);
  }
  return c;
}

template <class Stack>
SocketTransfer run_transfer(Stack& stack, const SocketConfig& config,
                            const rmc::Buffer& payload, std::uint64_t payload_sum,
                            Plant plant) {
  SocketTransfer out;
  const std::size_t n = config.n_receivers;
  const Counts before = read_counts(stack, n);
  std::vector<std::uint64_t> sums(n, 0);
  std::vector<int> counts(n, 0);
  double verify_s = 0.0;
  stack.set_message_handler([&](std::size_t node, const rmc::Buffer& message, std::uint32_t) {
    const double t = now_seconds();
    if (plant == Plant::kCorruptDelivery && node == 0 && !message.empty()) {
      rmc::Buffer copy = message;
      copy[copy.size() / 2] ^= 0x01;
      sums.at(node) = checksum(copy);
    } else {
      sums.at(node) = checksum(message);
    }
    ++counts.at(node);
    verify_s += now_seconds() - t;
  });
  const double start = now_seconds();
  const auto outcome =
      stack.send_and_wait(rmc::BytesView(payload.data(), payload.size()), config.limit);
  out.seconds = now_seconds() - start - verify_s;
  out.verify_s = verify_s;
  stack.set_message_handler(nullptr);

  const Counts after = read_counts(stack, n);
  out.data_packets = after.data_packets - before.data_packets;
  out.retransmissions = after.retransmissions - before.retransmissions;
  out.alloc_requests = after.alloc_requests - before.alloc_requests;
  out.control_packets = after.control - before.control;
  if (!outcome.has_value()) {
    out.failure = config.label + ": transfer did not complete within its limit";
    return out;
  }
  out.accepted.resize(n);
  for (std::size_t i = 0; i < n; ++i) out.accepted[i] = after.accepted[i] - before.accepted[i];
  for (const std::string& e :
       {check_deliveries(sums, counts, payload_sum),
        check_first_transmissions(out.data_packets, config.message_bytes,
                                  config.protocol.packet_size),
        check_packets_accepted(out.accepted, config.message_bytes,
                               config.protocol.packet_size)}) {
    if (!e.empty()) {
      out.error = config.label + ": " + e;
      break;
    }
  }
  return out;
}

}  // namespace

std::vector<SocketConfig> socket_configs() {
  std::vector<SocketConfig> configs;

  SocketConfig nak;
  nak.label = "nak_8k_4m";
  nak.message_bytes = 4 * 1024 * 1024;
  // Default window (20) and poll interval (16). The registry's
  // recommended NAK tuning (window 50) never completes on loopback: see
  // README.md, "Faults seen".
  nak.protocol.kind = rmcast::ProtocolKind::kNakPolling;
  nak.protocol.packet_size = 8192;
  nak.warm_transfers = 12;
  nak.base_port = 47210;
  nak.group = rmc::net::Ipv4Addr(239, 77, 12, 1);
  configs.push_back(nak);

  SocketConfig ack;
  ack.label = "ack_1400_500k";
  ack.message_bytes = 500'000;
  // The registry's recommended ACK tuning (window 2): one frame per
  // datagram and an ACK round trip every other packet.
  ack.protocol.kind = rmcast::ProtocolKind::kAck;
  rmcast::ProtocolRegistry::instance()
      .entry(ack.protocol.kind)
      .traits.apply_recommended_tuning(ack.protocol, ack.message_bytes, ack.n_receivers);
  ack.protocol.packet_size = 1400;
  ack.warm_transfers = 12;
  ack.base_port = 47230;
  ack.group = rmc::net::Ipv4Addr(239, 77, 12, 2);
  configs.push_back(ack);
  return configs;
}

// PosixSession's wiring, with a TimedRuntime in place of the runtime and a
// TimedSocket around every socket. Members are declared so the endpoints
// go first and the runtime last.
struct LoopbackStack::Assembled {
  using MessageHandler = rmcast::PosixSession::MessageHandler;

  Assembled(const SocketConfig& config, SpanRecorder& spans)
      : membership_(loopback_membership(config)), timed_runtime_(runtime_, spans) {
    rt::PosixSocketOptions sender_options;
    sender_options.bind_addr = membership_.sender_control.addr;
    sender_options.port = membership_.sender_control.port;
    rt::UdpSocket* sender_socket = open(sender_options, spans);
    if (sender_socket == nullptr) return;
    sender_ = std::make_unique<rmcast::MulticastSender>(timed_runtime_, *sender_socket,
                                                        membership_, config.protocol);
    for (std::size_t i = 0; i < membership_.n_receivers(); ++i) {
      rt::PosixSocketOptions data_options;
      data_options.port = membership_.group.port;
      data_options.reuse_addr = true;
      data_options.join_groups = {membership_.group.addr};
      rt::PosixSocketOptions control_options;
      control_options.bind_addr = membership_.receiver_control[i].addr;
      control_options.port = membership_.receiver_control[i].port;
      rt::UdpSocket* data = open(data_options, spans);
      rt::UdpSocket* control = open(control_options, spans);
      if (data == nullptr || control == nullptr) return;
      receivers_.push_back(std::make_unique<rmcast::MulticastReceiver>(
          timed_runtime_, *data, *control, membership_, i, config.protocol));
      receivers_[i]->set_message_handler(
          [this, i](const rmc::Buffer& message, std::uint32_t session) {
            if (handler_) handler_(i, message, session);
          });
    }
    ok_ = true;
  }

  rt::UdpSocket* open(const rt::PosixSocketOptions& options, SpanRecorder& spans) {
    auto socket = runtime_.open_socket(options);
    if (!socket) return nullptr;
    raw_.push_back(std::move(socket));
    timed_.push_back(std::make_unique<TimedSocket>(*raw_.back(), spans));
    return timed_.back().get();
  }

  void set_message_handler(MessageHandler handler) { handler_ = std::move(handler); }
  std::optional<rmcast::SendOutcome> send_and_wait(rmc::BytesView message, sim::Time limit) {
    std::optional<rmcast::SendOutcome> outcome;
    sender_->send(message, [this, &outcome](const rmcast::SendOutcome& o) {
      outcome = o;
      runtime_.stop();
    });
    runtime_.run_for(limit);
    return outcome;
  }
  rmcast::MulticastSender& sender() { return *sender_; }
  rmcast::MulticastReceiver& receiver(std::size_t i) { return *receivers_.at(i); }

  rmcast::GroupMembership membership_;
  rt::PosixRuntime runtime_;
  TimedRuntime timed_runtime_;
  bool ok_ = false;
  std::vector<std::unique_ptr<rt::UdpSocket>> raw_;
  std::vector<std::unique_ptr<TimedSocket>> timed_;
  std::unique_ptr<rmcast::MulticastSender> sender_;
  std::vector<std::unique_ptr<rmcast::MulticastReceiver>> receivers_;
  MessageHandler handler_;
};

LoopbackStack::LoopbackStack(const SocketConfig& config, SpanRecorder* spans)
    : config_(config) {
  if (spans == nullptr) {
    session_ = std::make_unique<rmcast::PosixSession>(loopback_membership(config),
                                                      config.protocol);
  } else {
    assembled_ = std::make_unique<Assembled>(config, *spans);
  }
}

LoopbackStack::~LoopbackStack() = default;

bool LoopbackStack::ok() const { return session_ ? session_->ok() : assembled_->ok_; }

rt::PosixRuntime& LoopbackStack::runtime() {
  return session_ ? session_->runtime() : assembled_->runtime_;
}

std::string LoopbackStack::io_calls() {
  const rmc::metrics::Registry& m = runtime().metrics();
  std::string out;
  for (const char* call : {"sendmmsg_calls", "sendto_calls", "recvmmsg_calls", "recvfrom_calls",
                           "gso_superframes"}) {
    const auto* c = m.find_counter(std::string("posix.") + call);
    if (c != nullptr && c->value() > 0) out += (out.empty() ? "" : " ") + std::string(call);
  }
  return out;
}

SocketTransfer LoopbackStack::transfer(const rmc::Buffer& payload, std::uint64_t payload_sum,
                                       Plant plant) {
  if (session_) return run_transfer(*session_, config_, payload, payload_sum, plant);
  return run_transfer(*assembled_, config_, payload, payload_sum, plant);
}

}  // namespace perfbench
