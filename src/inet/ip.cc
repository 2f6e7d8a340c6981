#include "inet/ip.h"

#include <algorithm>
#include <cstring>

#include "common/panic.h"

namespace rmc::inet {

namespace {

// Wire layout of the modelled IP header (exactly kIpHeaderBytes):
//   u8 protocol, u8 flags, u16 ident, u32 src, u32 dst, u32 offset, u32 total
constexpr std::uint8_t kProtoUdp = 17;
constexpr std::uint8_t kFlagMoreFragments = 0x01;
// Largest UDP segment a fragment may claim: header + the largest payload.
constexpr std::size_t kMaxSegmentBytes = kUdpHeaderBytes + kMaxUdpPayload;

void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint16_t load_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

std::uint32_t load_u32(const std::uint8_t* p) {
  return std::uint32_t{p[0]} << 24 | std::uint32_t{p[1]} << 16 |
         std::uint32_t{p[2]} << 8 | p[3];
}

void write_ip_header(std::uint8_t* p, net::Ipv4Addr src, net::Ipv4Addr dst,
                     std::uint16_t ident, std::uint32_t offset, bool more_fragments,
                     std::uint32_t total_bytes) {
  p[0] = kProtoUdp;
  p[1] = more_fragments ? kFlagMoreFragments : 0;
  store_u16(p + 2, ident);
  store_u32(p + 4, src.bits());
  store_u32(p + 8, dst.bits());
  store_u32(p + 12, offset);
  store_u32(p + 16, total_bytes);
}

}  // namespace

net::PayloadRef IpFragment::serialize() const {
  net::PayloadRef ref = net::PayloadRef::allocate(kIpHeaderBytes + data.size());
  std::uint8_t* p = ref.mutable_data();  // freshly allocated: always unique
  write_ip_header(p, src, dst, ident, offset, more_fragments, total_bytes);
  if (!data.empty()) std::memcpy(p + kIpHeaderBytes, data.data(), data.size());
  return ref;
}

std::optional<IpFragment> IpFragment::parse(BytesView frame_payload) {
  if (frame_payload.size() < kIpHeaderBytes) return std::nullopt;
  const std::uint8_t* p = frame_payload.data();
  if (p[0] != kProtoUdp) return std::nullopt;
  IpFragment f;
  f.more_fragments = (p[1] & kFlagMoreFragments) != 0;
  f.ident = load_u16(p + 2);
  f.src = net::Ipv4Addr(load_u32(p + 4));
  f.dst = net::Ipv4Addr(load_u32(p + 8));
  f.offset = load_u32(p + 12);
  f.total_bytes = load_u32(p + 16);
  f.data = frame_payload.subspan(kIpHeaderBytes);
  if (f.total_bytes > kMaxSegmentBytes ||
      std::size_t{f.offset} + f.data.size() > f.total_bytes) {
    return std::nullopt;
  }
  return f;
}

std::size_t fragment_count(std::size_t payload_bytes) {
  std::size_t segment = kUdpHeaderBytes + payload_bytes;
  return (segment + kIpPayloadPerFrame - 1) / kIpPayloadPerFrame;
}

net::PayloadRef build_fragment(const net::Endpoint& src, const net::Endpoint& dst,
                               BytesView payload, std::uint16_t ident, std::size_t index) {
  RMC_ENSURE(payload.size() <= kMaxUdpPayload, "UDP payload too large");
  const std::size_t total = kUdpHeaderBytes + payload.size();
  const std::size_t offset = index * kIpPayloadPerFrame;
  RMC_ENSURE(offset < total, "fragment index past the datagram");
  const std::size_t chunk = std::min(kIpPayloadPerFrame, total - offset);

  net::PayloadRef ref = net::PayloadRef::allocate(kIpHeaderBytes + chunk);
  std::uint8_t* p = ref.mutable_data();  // freshly allocated: always unique
  write_ip_header(p, src.addr, dst.addr, ident, static_cast<std::uint32_t>(offset),
                  offset + chunk < total, static_cast<std::uint32_t>(total));
  p += kIpHeaderBytes;
  // The segment is the UDP header followed by the payload; this fragment
  // carries segment bytes [offset, offset + chunk).
  std::size_t body_from = offset - kUdpHeaderBytes;  // payload offset
  std::size_t body_bytes = chunk;
  if (offset == 0) {
    store_u16(p, src.port);
    store_u16(p + 2, dst.port);
    store_u16(p + 4, static_cast<std::uint16_t>(total));
    store_u16(p + 6, 0);  // checksum: corruption is modelled at the link layer
    p += kUdpHeaderBytes;
    body_from = 0;
    body_bytes = chunk - kUdpHeaderBytes;
  }
  if (body_bytes > 0) std::memcpy(p, payload.data() + body_from, body_bytes);
  return ref;
}

std::vector<net::PayloadRef> fragment_datagram(const Datagram& datagram,
                                               std::uint16_t ident) {
  const std::size_t n = fragment_count(datagram.length);
  std::vector<net::PayloadRef> fragments;
  fragments.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    fragments.push_back(
        build_fragment(datagram.src, datagram.dst, datagram.payload(), ident, i));
  }
  return fragments;
}

Reassembler::Reassembler(sim::Simulator& simulator, sim::Time timeout,
                         DatagramHandler on_datagram)
    : sim_(simulator), timeout_(timeout), on_datagram_(std::move(on_datagram)) {}

void Reassembler::arm_sweep() {
  if (sweep_scheduled_) return;
  sweep_scheduled_ = true;
  sim_.schedule_after(timeout_, [this] { expire_stale(); });
}

void Reassembler::accept(const net::PayloadRef& frame_payload) {
  const std::optional<IpFragment> parsed = IpFragment::parse(frame_payload.view());
  if (!parsed) return;
  const IpFragment& fragment = *parsed;
  const Key key{fragment.src.bits(), fragment.dst.bits(), fragment.ident};

  if (fragment.offset == 0 && fragment.data.size() == fragment.total_bytes &&
      (pending_.empty() || pending_.find(key) == pending_.end())) {
    // The whole datagram is in this frame: deliver it from the frame's
    // block. The sweep is armed exactly as if the datagram had passed
    // through the reassembly table, so its schedule does not depend on
    // how datagrams were fragmented.
    arm_sweep();
    finish(key, frame_payload, kIpHeaderBytes, fragment.total_bytes, 1);
    return;
  }

  auto [it, inserted] = pending_.try_emplace(key);
  Pending& p = it->second;
  if (inserted) {
    p.segment = net::PayloadRef::allocate(fragment.total_bytes);
    p.first_seen = sim_.now();
    arm_sweep();
  }
  if (p.segment.size() != fragment.total_bytes) return;  // inconsistent; ignore

  // A fragment that repeats or overlaps bytes already received is dropped
  // (cannot happen with unique idents, but a malformed peer must not
  // corrupt state). Disjoint ranges summing to the total cover every byte
  // of the segment, so a completed block holds no unset bytes.
  const auto begin = fragment.offset;
  const auto end = static_cast<std::uint32_t>(fragment.offset + fragment.data.size());
  auto next = std::lower_bound(p.ranges.begin(), p.ranges.end(), begin,
                               [](const auto& range, std::uint32_t at) {
                                 return range.first < at;
                               });
  if (next != p.ranges.end() && (next->first == begin || next->first < end)) return;
  if (next != p.ranges.begin() && std::prev(next)->second > begin) return;
  p.ranges.insert(next, {begin, end});

  if (!fragment.data.empty()) {
    std::memcpy(p.segment.mutable_data() + begin, fragment.data.data(),
                fragment.data.size());
  }
  p.bytes_received += fragment.data.size();
  ++p.n_fragments;

  if (p.bytes_received == p.segment.size()) {
    net::PayloadRef segment = std::move(p.segment);
    const std::size_t n_fragments = p.n_fragments;
    pending_.erase(it);
    const std::size_t seg_bytes = segment.size();
    finish(key, std::move(segment), 0, seg_bytes, n_fragments);
  }
}

void Reassembler::finish(const Key& key, net::PayloadRef block, std::size_t seg_offset,
                         std::size_t seg_bytes, std::size_t n_fragments) {
  if (seg_bytes < kUdpHeaderBytes) return;
  const std::uint8_t* udp = block.data() + seg_offset;
  if (load_u16(udp + 4) != seg_bytes) return;  // UDP length disagrees

  Datagram d;
  d.src = net::Endpoint{net::Ipv4Addr(key.src), load_u16(udp)};
  d.dst = net::Endpoint{net::Ipv4Addr(key.dst), load_u16(udp + 2)};
  d.block = std::move(block);
  d.offset = static_cast<std::uint32_t>(seg_offset + kUdpHeaderBytes);
  d.length = static_cast<std::uint32_t>(seg_bytes - kUdpHeaderBytes);
  if (on_datagram_) on_datagram_(std::move(d), n_fragments);
}

void Reassembler::expire_stale() {
  sweep_scheduled_ = false;
  const sim::Time now = sim_.now();
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (now - it->second.first_seen >= timeout_) {
      ++timeouts_;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  if (!pending_.empty()) arm_sweep();
}

}  // namespace rmc::inet
