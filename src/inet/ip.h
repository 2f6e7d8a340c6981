// Minimal IPv4/UDP layer: datagrams, MTU fragmentation, reassembly.
//
// The model keeps exactly what the reproduced experiments depend on:
// datagram semantics up to 64 KB, per-fragment header overhead on the
// wire, loss of any fragment losing the whole datagram, and reassembly
// state that times out. Header fields are serialized for real (the frame
// payload is honest bytes), but options, TTL and checksums are omitted —
// corruption is modelled at the link layer instead.
//
// Payload bytes are touched once per hop. A sender's payload block is
// written into per-frame arena blocks (one memcpy per fragment); a
// datagram that arrives in one frame is delivered as a view into that
// frame's block; a fragmented one is reassembled into one arena block.
// Sockets on a host share the delivered block instead of copying it.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/serial.h"
#include "net/frame_arena.h"
#include "net/ipv4.h"
#include "sim/simulator.h"

namespace rmc::inet {

// Largest UDP payload, as with real IPv4: 65535 - 20 (IP) - 8 (UDP).
inline constexpr std::size_t kMaxUdpPayload = 65507;

// Modelled header sizes (bytes).
inline constexpr std::size_t kIpHeaderBytes = 20;
inline constexpr std::size_t kUdpHeaderBytes = 8;
// IP payload per 1500-byte MTU frame.
inline constexpr std::size_t kIpPayloadPerFrame = 1500 - kIpHeaderBytes;  // 1480

// A UDP datagram. The payload is `length` bytes at `offset` inside a
// refcounted arena block: the block the sender serialized it into, the
// frame it arrived in, or the block it was reassembled into. Copying a
// Datagram shares the block; nothing ever writes to a delivered one.
struct Datagram {
  net::Endpoint src;
  net::Endpoint dst;
  net::PayloadRef block;
  std::uint32_t offset = 0;
  std::uint32_t length = 0;

  // A datagram whose payload is the whole of `payload`.
  static Datagram whole(const net::Endpoint& src, const net::Endpoint& dst,
                        net::PayloadRef payload) {
    const auto length = static_cast<std::uint32_t>(payload.size());
    return Datagram{src, dst, std::move(payload), 0, length};
  }

  BytesView payload() const { return BytesView(block.data() + offset, length); }
};

// One IP fragment as carried in an Ethernet frame payload: the header
// fields and `data`, a slice of the UDP segment (UDP header + application
// payload). Parsing yields a view into the frame's bytes; nothing is
// copied, so a parsed fragment lives no longer than its frame.
struct IpFragment {
  net::Ipv4Addr src;
  net::Ipv4Addr dst;
  std::uint16_t ident = 0;
  std::uint32_t offset = 0;  // byte offset into the UDP segment
  bool more_fragments = false;
  std::uint32_t total_bytes = 0;  // UDP segment size, repeated in every fragment
  BytesView data;

  // The frame payload: exactly kIpHeaderBytes of header followed by data,
  // in a fresh arena block. Tests use it to craft arbitrary fragments;
  // hosts build frames with build_fragment().
  net::PayloadRef serialize() const;
  static std::optional<IpFragment> parse(BytesView frame_payload);
};

// Count of frames a UDP payload of `payload_bytes` occupies.
std::size_t fragment_count(std::size_t payload_bytes);

// Frame payload of fragment `index` (< fragment_count) of a datagram,
// written straight into a fresh arena block: the IP header, the UDP header
// (ports, length) on the first fragment, as on a real wire, and one memcpy
// of the payload slice. `ident` must be unique per (src, dst) for the
// lifetime of any reassembly.
net::PayloadRef build_fragment(const net::Endpoint& src, const net::Endpoint& dst,
                               BytesView payload, std::uint16_t ident, std::size_t index);

// Every fragment of `datagram`, in order.
std::vector<net::PayloadRef> fragment_datagram(const Datagram& datagram,
                                               std::uint16_t ident);

// Reassembles fragments back into datagrams. Incomplete reassemblies are
// discarded `timeout` after their first fragment, by one sweep per
// Reassembler that is armed whenever a datagram starts and none is armed.
class Reassembler {
 public:
  using DatagramHandler = std::function<void(Datagram, std::size_t n_fragments)>;

  Reassembler(sim::Simulator& simulator, sim::Time timeout, DatagramHandler on_datagram);

  // Takes one frame payload. A frame that holds a whole datagram, with no
  // reassembly of the same ident under way, is delivered as a view into
  // the frame's block. Otherwise the fragment is copied into its
  // datagram's reassembly block. Malformed frames, fragments that
  // duplicate or overlap bytes already received, fragments whose total
  // disagrees with the reassembly's, and segments whose UDP length is
  // not the segment's size are dropped.
  void accept(const net::PayloadRef& frame_payload);

  std::uint64_t timeouts() const { return timeouts_; }
  std::size_t pending() const { return pending_.size(); }

 private:
  struct Key {
    std::uint32_t src;
    std::uint32_t dst;
    std::uint16_t ident;
    auto operator<=>(const Key&) const = default;
  };
  struct Pending {
    net::PayloadRef segment;  // UDP header + payload; bytes outside `ranges` unset
    // Received [begin, end) byte ranges, sorted and disjoint.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
    std::size_t bytes_received = 0;
    std::size_t n_fragments = 0;
    sim::Time first_seen = 0;
  };

  void arm_sweep();
  // Delivers the UDP segment of `seg_bytes` at `seg_offset` in `block`.
  void finish(const Key& key, net::PayloadRef block, std::size_t seg_offset,
              std::size_t seg_bytes, std::size_t n_fragments);
  void expire_stale();

  sim::Simulator& sim_;
  sim::Time timeout_;
  DatagramHandler on_datagram_;
  std::map<Key, Pending> pending_;
  std::uint64_t timeouts_ = 0;
  bool sweep_scheduled_ = false;
};

}  // namespace rmc::inet
