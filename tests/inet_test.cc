// Unit tests for the simulated IP/UDP stack: fragmentation, reassembly,
// host CPU model, socket semantics, buffer overflow, and topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <vector>

#include "common/rng.h"
#include "inet/cluster.h"
#include "inet/host.h"
#include "inet/ip.h"

namespace rmc::inet {
namespace {

Buffer pattern(std::size_t n) {
  Buffer b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = static_cast<std::uint8_t>(i * 7 + 1);
  return b;
}

Buffer bytes_of(const Datagram& d) {
  const BytesView v = d.payload();
  return Buffer(v.begin(), v.end());
}

Datagram make_datagram(std::size_t size) {
  const Buffer payload = pattern(size);
  return Datagram::whole({net::Ipv4Addr(10, 0, 0, 1), 1111},
                         {net::Ipv4Addr(10, 0, 0, 2), 2222},
                         net::PayloadRef::copy_of(BytesView(payload.data(), payload.size())));
}

// A hand-made fragment of a datagram from 10.0.0.1 to 10.0.0.2: `data`
// lands at `offset` of a `total`-byte UDP segment.
net::PayloadRef raw_fragment(std::uint16_t ident, std::uint32_t offset,
                             std::uint32_t total, BytesView data) {
  IpFragment f;
  f.src = net::Ipv4Addr(10, 0, 0, 1);
  f.dst = net::Ipv4Addr(10, 0, 0, 2);
  f.ident = ident;
  f.offset = offset;
  f.total_bytes = total;
  f.more_fragments = offset + data.size() < total;
  f.data = data;
  return f.serialize();
}

// A UDP segment (header + pattern payload) whose length field says
// `claimed_length`.
Buffer udp_segment(std::size_t payload_bytes, std::uint16_t claimed_length) {
  Buffer seg = pattern(kUdpHeaderBytes + payload_bytes);
  seg[0] = 0x04;  // src port 1111
  seg[1] = 0x57;
  seg[2] = 0x08;  // dst port 2222
  seg[3] = 0xAE;
  seg[4] = static_cast<std::uint8_t>(claimed_length >> 8);
  seg[5] = static_cast<std::uint8_t>(claimed_length);
  return seg;
}

class FragmentationTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FragmentationTest, RoundTripsThroughReassembly) {
  const std::size_t size = GetParam();
  sim::Simulator sim;
  const Datagram in = make_datagram(size);

  std::vector<Datagram> out;
  std::size_t out_fragments = 0;
  Reassembler reassembler(sim, sim::milliseconds(100), [&](Datagram d, std::size_t nf) {
    out.push_back(std::move(d));
    out_fragments = nf;
  });

  auto fragments = fragment_datagram(in, 42);
  EXPECT_EQ(fragments.size(), fragment_count(size));
  for (const auto& f : fragments) reassembler.accept(f);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].src, in.src);
  EXPECT_EQ(out[0].dst, in.dst);
  EXPECT_EQ(bytes_of(out[0]), bytes_of(in));
  EXPECT_EQ(out_fragments, fragments.size());
  EXPECT_EQ(reassembler.pending(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FragmentationTest,
                         ::testing::Values(0, 1, 100, 1471, 1472, 1473, 2960, 8192,
                                           50000, 65507));

TEST(Fragmentation, FragmentsCarryHeadersAndOneSliceEach) {
  const Datagram in = make_datagram(3000);
  const Buffer payload = bytes_of(in);
  const auto fragments = fragment_datagram(in, 99);
  ASSERT_EQ(fragments.size(), 3u);
  std::size_t segment_offset = 0;
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    const auto f = IpFragment::parse(fragments[i].view());
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->src, in.src.addr);
    EXPECT_EQ(f->dst, in.dst.addr);
    EXPECT_EQ(f->ident, 99);
    EXPECT_EQ(f->offset, segment_offset);
    EXPECT_EQ(f->total_bytes, kUdpHeaderBytes + payload.size());
    EXPECT_EQ(f->more_fragments, i + 1 < fragments.size());
    // The parsed body is a view into the frame block, not a copy.
    EXPECT_EQ(f->data.data(), fragments[i].data() + kIpHeaderBytes);
    // Re-serializing the parsed fragment reproduces the frame.
    const net::PayloadRef again = f->serialize();
    ASSERT_EQ(again.size(), fragments[i].size());
    EXPECT_EQ(0, std::memcmp(again.data(), fragments[i].data(), again.size()));
    // Payload bytes sit after the UDP header in the first fragment only.
    const std::size_t body_at = i == 0 ? kUdpHeaderBytes : 0;
    const std::size_t payload_at = i == 0 ? 0 : segment_offset - kUdpHeaderBytes;
    EXPECT_EQ(0, std::memcmp(f->data.data() + body_at, payload.data() + payload_at,
                             f->data.size() - body_at));
    segment_offset += f->data.size();
  }
  EXPECT_EQ(segment_offset, kUdpHeaderBytes + payload.size());
}

TEST(Fragmentation, FragmentCounts) {
  EXPECT_EQ(fragment_count(0), 1u);      // UDP header alone
  EXPECT_EQ(fragment_count(1472), 1u);   // 8 + 1472 = 1480, exactly one frame
  EXPECT_EQ(fragment_count(1473), 2u);
  EXPECT_EQ(fragment_count(65507), 45u);
}

TEST(Fragmentation, SingleFrameDatagramsSkipTheReassemblyTable) {
  sim::Simulator sim;
  std::vector<Datagram> out;
  Reassembler* self = nullptr;
  Reassembler reassembler(sim, sim::milliseconds(100), [&](Datagram d, std::size_t nf) {
    EXPECT_EQ(nf, 1u);
    EXPECT_EQ(self->pending(), 0u);
    out.push_back(std::move(d));
  });
  self = &reassembler;
  std::vector<net::PayloadRef> frames;
  for (std::size_t size : {std::size_t{0}, std::size_t{500}, std::size_t{1300},
                           std::size_t{1472}}) {
    auto fragments = fragment_datagram(make_datagram(size), static_cast<std::uint16_t>(size));
    ASSERT_EQ(fragments.size(), 1u);
    reassembler.accept(fragments[0]);
    EXPECT_EQ(reassembler.pending(), 0u);
    frames.push_back(fragments[0]);
  }
  ASSERT_EQ(out.size(), frames.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    // Delivered straight from the frame's block: no copy was made.
    EXPECT_EQ(out[i].payload().data(),
              frames[i].data() + kIpHeaderBytes + kUdpHeaderBytes);
    EXPECT_EQ(out[i].length, frames[i].size() - kIpHeaderBytes - kUdpHeaderBytes);
  }
  // The expiry sweep is still armed, exactly once, as for a datagram that
  // went through the table.
  EXPECT_EQ(sim.live_events(), 1u);
  sim.run();
  EXPECT_EQ(reassembler.timeouts(), 0u);
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Fragmentation, OutOfOrderFragmentsStillReassemble) {
  sim::Simulator sim;
  const Datagram in = make_datagram(9000);
  std::vector<Buffer> out;
  Reassembler reassembler(sim, sim::milliseconds(100), [&](Datagram d, std::size_t nf) {
    EXPECT_EQ(nf, 7u);
    out.push_back(bytes_of(d));
  });
  auto fragments = fragment_datagram(in, 7);
  ASSERT_EQ(fragments.size(), 7u);
  // Reversed, then a fixed shuffle.
  std::reverse(fragments.begin(), fragments.end());
  for (const auto& f : fragments) reassembler.accept(f);
  auto again = fragment_datagram(in, 8);
  for (std::size_t i : {3, 0, 6, 2, 5, 1, 4}) reassembler.accept(again[i]);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], bytes_of(in));
  EXPECT_EQ(out[1], bytes_of(in));
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST(Fragmentation, DuplicateFragmentIgnored) {
  sim::Simulator sim;
  const Datagram in = make_datagram(3000);
  int delivered = 0;
  Reassembler reassembler(sim, sim::milliseconds(100), [&](Datagram d, std::size_t nf) {
    ++delivered;
    EXPECT_EQ(nf, 3u);
    EXPECT_EQ(bytes_of(d), bytes_of(in));
  });
  auto fragments = fragment_datagram(in, 9);
  reassembler.accept(fragments[0]);
  reassembler.accept(fragments[0]);  // duplicate must not double-count
  for (std::size_t i = 1; i < fragments.size(); ++i) reassembler.accept(fragments[i]);
  EXPECT_EQ(delivered, 1);
}

TEST(Fragmentation, OverlappingFragmentIsDroppedNotDelivered) {
  // Fragments [0,1000) and [2000,3000) plus an overlapping [500,1500):
  // their lengths add up to the total, but [1500,2000) never arrived. The
  // overlap is dropped, so the datagram stays incomplete and times out
  // instead of being delivered with unset bytes.
  sim::Simulator sim;
  const Buffer seg = udp_segment(3000 - kUdpHeaderBytes, 3000);
  const BytesView all(seg.data(), seg.size());
  int delivered = 0;
  Reassembler reassembler(sim, sim::milliseconds(50),
                          [&](Datagram, std::size_t) { ++delivered; });
  reassembler.accept(raw_fragment(5, 0, 3000, all.subspan(0, 1000)));
  reassembler.accept(raw_fragment(5, 500, 3000, all.subspan(500, 1000)));
  reassembler.accept(raw_fragment(5, 2000, 3000, all.subspan(2000, 1000)));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(reassembler.pending(), 1u);
  // An overlap that starts before an existing range is dropped too.
  reassembler.accept(raw_fragment(5, 1900, 3000, all.subspan(1900, 200)));
  EXPECT_EQ(delivered, 0);
  // The missing range completes it.
  reassembler.accept(raw_fragment(5, 1000, 3000, all.subspan(1000, 1000)));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST(Fragmentation, InconsistentTotalIsIgnored) {
  sim::Simulator sim;
  const Buffer seg = udp_segment(2000 - kUdpHeaderBytes, 2000);
  const BytesView all(seg.data(), seg.size());
  std::vector<Buffer> out;
  Reassembler reassembler(sim, sim::milliseconds(50), [&](Datagram d, std::size_t) {
    out.push_back(bytes_of(d));
  });
  reassembler.accept(raw_fragment(6, 0, 2000, all.subspan(0, 1000)));
  // Claims a 4000-byte segment for the same ident: ignored.
  reassembler.accept(raw_fragment(6, 1000, 4000, all.subspan(1000, 1000)));
  EXPECT_TRUE(out.empty());
  reassembler.accept(raw_fragment(6, 1000, 2000, all.subspan(1000, 1000)));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Buffer(seg.begin() + kUdpHeaderBytes, seg.end()));
}

TEST(Fragmentation, UdpLengthMismatchIsDropped) {
  sim::Simulator sim;
  int delivered = 0;
  Reassembler reassembler(sim, sim::milliseconds(50),
                          [&](Datagram, std::size_t) { ++delivered; });
  // One frame whose UDP header claims one byte more than the segment.
  const Buffer small = udp_segment(100, kUdpHeaderBytes + 101);
  reassembler.accept(raw_fragment(1, 0, static_cast<std::uint32_t>(small.size()),
                                  BytesView(small.data(), small.size())));
  // A reassembled segment whose UDP header claims one byte less.
  const Buffer big = udp_segment(3000, kUdpHeaderBytes + 2999);
  const BytesView all(big.data(), big.size());
  const auto total = static_cast<std::uint32_t>(big.size());
  reassembler.accept(raw_fragment(2, 0, total, all.subspan(0, 1480)));
  reassembler.accept(raw_fragment(2, 1480, total, all.subspan(1480)));
  // A segment too short to hold a UDP header.
  reassembler.accept(raw_fragment(3, 0, 4, all.subspan(0, 4)));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST(Fragmentation, IncompleteReassemblyTimesOut) {
  sim::Simulator sim;
  int delivered = 0;
  Reassembler reassembler(sim, sim::milliseconds(50),
                          [&](Datagram, std::size_t) { ++delivered; });
  auto fragments = fragment_datagram(make_datagram(5000), 11);
  reassembler.accept(fragments[0]);  // lose the rest
  EXPECT_EQ(reassembler.pending(), 1u);
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(reassembler.timeouts(), 1u);
  EXPECT_EQ(reassembler.pending(), 0u);
}

TEST(Fragmentation, MalformedBytesRejected) {
  Buffer junk{1, 2, 3};
  EXPECT_FALSE(IpFragment::parse(BytesView(junk.data(), junk.size())).has_value());
  Buffer empty;
  EXPECT_FALSE(IpFragment::parse(BytesView(empty.data(), empty.size())).has_value());
  // A body running past the claimed total, and a total no UDP segment can
  // have, are both rejected before any reassembly state is created.
  const Buffer body = pattern(100);
  const BytesView data(body.data(), body.size());
  EXPECT_FALSE(IpFragment::parse(raw_fragment(1, 0, 50, data).view()).has_value());
  EXPECT_FALSE(
      IpFragment::parse(raw_fragment(1, 0, 0x80000000u, data).view()).has_value());
}

// A two-host cluster for socket-level tests.
class HostPairTest : public ::testing::Test {
 protected:
  HostPairTest() : cluster_(make_params()) {}

  static ClusterParams make_params() {
    ClusterParams p;
    p.n_hosts = 2;
    p.wiring = Wiring::kSingleSwitch;
    return p;
  }

  Cluster cluster_;
};

TEST_F(HostPairTest, UnicastDatagramDelivery) {
  Socket* tx = cluster_.host(0).open_socket();
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  std::vector<Datagram> got;
  rx->set_handler([&](const Datagram& d) { got.push_back(d); });

  Buffer payload = pattern(2500);
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(bytes_of(got[0]), payload);
  EXPECT_EQ(got[0].dst.port, 7000);
  EXPECT_EQ(got[0].src.addr, Cluster::host_addr(0));
  EXPECT_NE(got[0].src.port, 0);  // ephemeral port assigned
  EXPECT_EQ(rx->stats().datagrams_delivered, 1u);
}

TEST_F(HostPairTest, NoSocketMeansDrop) {
  Socket* tx = cluster_.host(0).open_socket();
  Buffer payload = pattern(10);
  tx->send_to({Cluster::host_addr(1), 9999}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(cluster_.host(1).stats().datagrams_no_socket, 1u);
}

TEST_F(HostPairTest, MulticastRequiresJoin) {
  net::Ipv4Addr group(239, 1, 1, 1);
  Socket* tx = cluster_.host(0).open_socket();
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });

  Buffer payload = pattern(100);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 0);  // not joined: NIC filters the frame
  EXPECT_GE(cluster_.host(1).stats().frames_filtered, 1u);

  rx->join(group);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 1);

  rx->leave(group);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 1);
}

TEST(HostOverflow, RcvbufOverflowDropsDatagrams) {
  // A receiver whose per-datagram processing (2 ms) is slower than the
  // wire delivers (~0.7 ms per 8 KB datagram) builds a socket backlog;
  // with a 10 KB buffer it must drop.
  ClusterParams params;
  params.n_hosts = 2;
  params.wiring = Wiring::kSingleSwitch;
  params.host.recv_syscall = sim::milliseconds(2);
  Cluster cluster(params);
  Socket* tx = cluster.host(0).open_socket();
  Socket* rx = cluster.host(1).open_socket();
  rx->bind(7000);
  rx->set_rcvbuf(10'000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });

  Buffer payload = pattern(8000);
  for (int i = 0; i < 10; ++i) {
    tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  }
  cluster.simulator().run();
  EXPECT_GT(rx->stats().rcvbuf_drops, 0u);
  EXPECT_LT(got, 10);
  EXPECT_EQ(static_cast<std::uint64_t>(got), rx->stats().datagrams_delivered);
}

TEST_F(HostPairTest, SelfSendDeliversLocally) {
  Socket* a = cluster_.host(0).open_socket();
  Socket* b = cluster_.host(0).open_socket();
  b->bind(7000);
  int got = 0;
  b->set_handler([&](const Datagram&) { ++got; });
  Buffer payload = pattern(50);
  a->send_to({Cluster::host_addr(0), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(cluster_.host(0).stats().frames_out, 0u);  // never touched the NIC
}

TEST_F(HostPairTest, CpuSerializesWork) {
  Host& host = cluster_.host(0);
  std::vector<int> order;
  std::vector<sim::Time> at;
  host.run_on_cpu(sim::microseconds(100), [&] {
    order.push_back(1);
    at.push_back(cluster_.simulator().now());
  });
  host.run_on_cpu(sim::microseconds(50), [&] {
    order.push_back(2);
    at.push_back(cluster_.simulator().now());
  });
  cluster_.simulator().run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(at[0], sim::microseconds(100));
  EXPECT_EQ(at[1], sim::microseconds(150));  // queued behind the first
  EXPECT_EQ(host.stats().cpu_busy, sim::microseconds(150));
}

TEST_F(HostPairTest, SndbufBlocksLargeDatagramPipelining) {
  // Two 50 KB datagrams: the second sendto must wait for the first to
  // largely drain (SO_SNDBUF is 64 KB), so its completion is gated by the
  // wire, not just CPU cost.
  Socket* tx = cluster_.host(0).open_socket();
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  std::vector<sim::Time> deliveries;
  rx->set_handler([&](const Datagram&) {
    deliveries.push_back(cluster_.simulator().now());
  });
  Buffer payload = pattern(50'000);
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  ASSERT_EQ(deliveries.size(), 2u);
  // Without blocking, both CPU tasks finish ~1 ms apart while the first
  // datagram needs ~4.1 ms of wire; the gap between deliveries would then
  // be pure wire time. With blocking, the second send starts only after
  // most of the first datagram drained, so the spacing must exceed the
  // datagram's wire time.
  sim::Time wire_time = sim::transmission_time(50'000, 100e6);
  EXPECT_GT(deliveries[1] - deliveries[0], wire_time);
}

TEST_F(HostPairTest, MaxSizeDatagramExceedsSndbufYetDelivers) {
  // 65507 B of payload occupies more wire than the whole 64 KB SO_SNDBUF:
  // each sendto must wait for an empty backlog, but both datagrams arrive.
  Socket* tx = cluster_.host(0).open_socket();
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  rx->set_rcvbuf(256 * 1024);
  int got = 0;
  rx->set_handler([&](const Datagram& d) {
    EXPECT_EQ(d.length, kMaxUdpPayload);
    ++got;
  });
  Buffer payload = pattern(kMaxUdpPayload);
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got, 2);
}

TEST_F(HostPairTest, EphemeralPortsAreDistinct) {
  Socket* rx = cluster_.host(1).open_socket();
  rx->bind(7000);
  std::set<std::uint16_t> ports;
  Buffer payload = pattern(8);
  for (int i = 0; i < 20; ++i) {
    Socket* tx = cluster_.host(0).open_socket();
    tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
    std::uint16_t port = tx->local_endpoint().port;
    EXPECT_GE(port, 49152);
    EXPECT_TRUE(ports.insert(port).second) << "duplicate ephemeral port " << port;
  }
  cluster_.simulator().run();
  EXPECT_EQ(rx->stats().datagrams_delivered, 20u);
}

TEST_F(HostPairTest, SharedMulticastPortDeliversToEveryJoinedSocket) {
  net::Ipv4Addr group(239, 5, 5, 5);
  Socket* a = cluster_.host(1).open_socket();
  Socket* b = cluster_.host(1).open_socket();
  for (Socket* s : {a, b}) {
    s->bind(7000);
    s->join(group);
  }
  int got_a = 0, got_b = 0;
  a->set_handler([&](const Datagram&) { ++got_a; });
  b->set_handler([&](const Datagram&) { ++got_b; });

  Socket* tx = cluster_.host(0).open_socket();
  Buffer payload = pattern(64);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got_a, 1);
  EXPECT_EQ(got_b, 1);

  // Unicast to the shared port goes to exactly one socket.
  tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  cluster_.simulator().run();
  EXPECT_EQ(got_a + got_b, 3);
}

TEST_F(HostPairTest, JoinedSocketsShareOneDeliveredBlock) {
  net::Ipv4Addr group(239, 5, 5, 6);
  Socket* a = cluster_.host(1).open_socket();
  Socket* b = cluster_.host(1).open_socket();
  for (Socket* s : {a, b}) {
    s->bind(7000);
    s->join(group);
  }
  std::vector<Datagram> got_a, got_b;
  a->set_handler([&](const Datagram& d) { got_a.push_back(d); });
  b->set_handler([&](const Datagram& d) { got_b.push_back(d); });

  Socket* tx = cluster_.host(0).open_socket();
  for (std::size_t size : {std::size_t{1300}, std::size_t{50'000}}) {
    const Buffer payload = pattern(size);
    tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
    cluster_.simulator().run();
    ASSERT_EQ(got_a.size(), 1u);
    ASSERT_EQ(got_b.size(), 1u);
    // One block, referenced by the two datagrams the handlers kept.
    EXPECT_EQ(got_a[0].payload().data(), got_b[0].payload().data());
    EXPECT_EQ(got_a[0].block.ref_count(), 2u);
    EXPECT_EQ(bytes_of(got_a[0]), payload);
    got_a.clear();
    got_b.clear();
  }
}

TEST(HostTamper, TamperedCopyLeavesAnotherHostsBytesAlone) {
  // Host A receives a frame and keeps the datagram; the same frame block
  // then crosses a link that tampers with every frame on its way to host
  // B. Copy-on-write gives that link a private copy, so A's datagram and
  // the sender's block keep their bytes.
  sim::Simulator sim;
  const net::Ipv4Addr group(239, 7, 7, 7);
  Host a(sim, "a", net::Ipv4Addr(10, 0, 0, 2), net::MacAddr::host(2), HostParams{});
  Host b(sim, "b", net::Ipv4Addr(10, 0, 0, 3), net::MacAddr::host(3), HostParams{});
  std::vector<Datagram> got_a, got_b;
  for (auto [host, got] : {std::pair{&a, &got_a}, std::pair{&b, &got_b}}) {
    Socket* s = host->open_socket();
    s->bind(7000);
    s->join(group);
    s->set_handler([got](const Datagram& d) { got->push_back(d); });
  }

  const Buffer payload = pattern(1000);
  const net::Frame frame = net::make_frame(
      net::MacAddr::from_multicast_group(group), net::MacAddr::host(1),
      build_fragment({net::Ipv4Addr(10, 0, 0, 1), 5000}, {group, 7000},
                     BytesView(payload.data(), payload.size()), 1, 0));
  const Buffer wire(frame.payload.data(), frame.payload.data() + frame.payload.size());
  a.frame_input()(frame);
  sim.run();
  ASSERT_EQ(got_a.size(), 1u);
  EXPECT_EQ(got_a[0].block.data(), frame.payload.data());  // shared, not copied

  Rng rng(3);
  net::LinkParams link;
  link.faults.tamper_rate = 1.0;
  net::TxPort tampering(sim, link, &rng);
  tampering.connect(b.frame_input());
  tampering.send(frame);
  sim.run();
  EXPECT_EQ(tampering.stats().tampered_frames, 1u);

  EXPECT_EQ(bytes_of(got_a[0]), payload);
  EXPECT_EQ(Buffer(frame.payload.data(), frame.payload.data() + frame.payload.size()),
            wire);
  // With this seed the flipped byte lands in B's payload: B got its own,
  // different bytes.
  ASSERT_EQ(got_b.size(), 1u);
  EXPECT_NE(got_b[0].block.data(), got_a[0].block.data());
  EXPECT_NE(bytes_of(got_b[0]), payload);
}

TEST(Reassembly, InterleavedDatagramsDoNotCorrupt) {
  sim::Simulator sim;
  const Datagram first = make_datagram(4000);
  const Datagram second = make_datagram(6000);
  std::vector<Buffer> out;
  Reassembler reassembler(sim, sim::milliseconds(100), [&](Datagram d, std::size_t) {
    out.push_back(bytes_of(d));
  });
  auto f1 = fragment_datagram(first, 1);
  auto f2 = fragment_datagram(second, 2);
  // Interleave the two fragment streams.
  std::size_t i = 0, j = 0;
  while (i < f1.size() || j < f2.size()) {
    if (i < f1.size()) reassembler.accept(f1[i++]);
    if (j < f2.size()) reassembler.accept(f2[j++]);
  }
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], bytes_of(first));
  EXPECT_EQ(out[1], bytes_of(second));
}

TEST(Cluster, TwoSwitchTopologyMatchesFigure7) {
  ClusterParams params;
  params.n_hosts = 31;
  params.wiring = Wiring::kTwoSwitch;
  Cluster cluster(params);
  ASSERT_EQ(cluster.switches().size(), 2u);
  // 16 hosts + uplink + spare on A; 15 hosts + uplink + spare on B.
  EXPECT_EQ(cluster.switches()[0]->n_ports(), 18u);
  EXPECT_EQ(cluster.switches()[1]->n_ports(), 17u);
  EXPECT_EQ(cluster.host_addr(0).str(), "10.0.0.1");
  EXPECT_EQ(cluster.host_addr(30).str(), "10.0.0.31");
}

TEST(Cluster, CrossSwitchDelivery) {
  ClusterParams params;
  params.n_hosts = 31;
  params.wiring = Wiring::kTwoSwitch;
  Cluster cluster(params);
  // Host 0 (switch A) to host 30 (switch B), across the uplink.
  Socket* tx = cluster.host(0).open_socket();
  Socket* rx = cluster.host(30).open_socket();
  rx->bind(7000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });
  Buffer payload = pattern(1000);
  tx->send_to({Cluster::host_addr(30), 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 1);
}

TEST(Cluster, MulticastReachesBothSwitches) {
  ClusterParams params;
  params.n_hosts = 20;
  params.wiring = Wiring::kTwoSwitch;
  Cluster cluster(params);
  net::Ipv4Addr group(239, 0, 0, 1);
  int got = 0;
  for (std::size_t i = 1; i < 20; ++i) {
    Socket* rx = cluster.host(i).open_socket();
    rx->bind(7000);
    rx->join(group);
    rx->set_handler([&](const Datagram&) { ++got; });
  }
  Socket* tx = cluster.host(0).open_socket();
  Buffer payload = pattern(100);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 19);
}

TEST(Cluster, SnoopingFiltersNonMembersAcrossSwitches) {
  ClusterParams params;
  params.n_hosts = 20;
  params.wiring = Wiring::kTwoSwitch;  // members end up on both switches
  params.multicast_snooping = true;
  Cluster cluster(params);
  net::Ipv4Addr group(239, 0, 0, 1);
  int got = 0;
  // Only hosts 1..5 and 17..19 join; the rest stay silent bystanders.
  std::vector<std::size_t> members = {1, 2, 3, 4, 5, 17, 18, 19};
  for (std::size_t i : members) {
    Socket* rx = cluster.host(i).open_socket();
    rx->bind(7000);
    rx->join(group);
    rx->set_handler([&](const Datagram&) { ++got; });
  }
  Socket* tx = cluster.host(0).open_socket();
  Buffer payload = pattern(3000);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, static_cast<int>(members.size()));
  // Bystanders never saw a frame — the switch filtered, not their NIC.
  for (std::size_t i : {std::size_t{6}, std::size_t{10}, std::size_t{16}}) {
    EXPECT_EQ(cluster.host(i).stats().frames_in, 0u) << "host " << i;
    EXPECT_EQ(cluster.host(i).stats().frames_filtered, 0u) << "host " << i;
  }
}

TEST(Cluster, SnoopingTracksLeaves) {
  ClusterParams params;
  params.n_hosts = 3;
  params.wiring = Wiring::kSingleSwitch;
  params.multicast_snooping = true;
  Cluster cluster(params);
  net::Ipv4Addr group(239, 0, 0, 2);
  Socket* rx = cluster.host(1).open_socket();
  rx->bind(7000);
  rx->join(group);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });

  Socket* tx = cluster.host(0).open_socket();
  Buffer payload = pattern(100);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 1);

  rx->leave(group);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 1);
  // After the leave the switch floods again (unknown group) but the NIC
  // filters, or the switch drops it as memberless — either way, no
  // delivery and no crash.
}

TEST(Cluster, SharedBusWiringDelivers) {
  ClusterParams params;
  params.n_hosts = 5;
  params.wiring = Wiring::kSharedBus;
  Cluster cluster(params);
  net::Ipv4Addr group(239, 0, 0, 1);
  int got = 0;
  for (std::size_t i = 1; i < 5; ++i) {
    Socket* rx = cluster.host(i).open_socket();
    rx->bind(7000);
    rx->join(group);
    rx->set_handler([&](const Datagram&) { ++got; });
  }
  Socket* tx = cluster.host(0).open_socket();
  Buffer payload = pattern(4000);
  tx->send_to({group, 7000}, BytesView(payload.data(), payload.size()));
  cluster.simulator().run();
  EXPECT_EQ(got, 4);
  EXPECT_GT(cluster.bus()->stats().frames_delivered, 0u);
}

TEST(Cluster, FrameErrorsCauseLoss) {
  ClusterParams params;
  params.n_hosts = 2;
  params.wiring = Wiring::kSingleSwitch;
  params.link.frame_error_rate = 0.5;
  params.seed = 9;
  Cluster cluster(params);
  Socket* tx = cluster.host(0).open_socket();
  Socket* rx = cluster.host(1).open_socket();
  rx->bind(7000);
  int got = 0;
  rx->set_handler([&](const Datagram&) { ++got; });
  Buffer payload = pattern(100);
  for (int i = 0; i < 50; ++i) {
    tx->send_to({Cluster::host_addr(1), 7000}, BytesView(payload.data(), payload.size()));
  }
  cluster.simulator().run();
  // Each datagram crosses two lossy hops at 50%: ~25% survive.
  EXPECT_LT(got, 40);
  EXPECT_GT(got, 0);
}

}  // namespace
}  // namespace rmc::inet
