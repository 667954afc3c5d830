// Unit and integration tests for the network simulator: event queue,
// topology builders, link model, end-to-end delivery, ECMP spreading, and
// the Hydra per-hop pipeline mechanics.
#include <gtest/gtest.h>

#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/event.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"

namespace hydra::net {
namespace {

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, StableForEqualTimestamps) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(1.0, [&] { ++fired; });
  q.schedule_at(5.0, [&] { ++fired; });
  q.run_until(2.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, HandlersMayScheduleMore) {
  EventQueue q;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) q.schedule_in(1.0, tick);
  };
  q.schedule_at(0.0, tick);
  q.run();
  EXPECT_EQ(count, 5);
}

TEST(EventQueue, PastSchedulingRejected) {
  EventQueue q;
  q.schedule_at(5.0, [] {});
  q.run();
  EXPECT_THROW(q.schedule_at(1.0, [] {}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(Topology, LeafSpineShape) {
  const auto fabric = make_leaf_spine(2, 2, 2);
  EXPECT_EQ(fabric.leaves.size(), 2u);
  EXPECT_EQ(fabric.spines.size(), 2u);
  // 4 hosts + 4 switches.
  EXPECT_EQ(fabric.topo.node_count(), 8);
  // 4 host links + 4 fabric links.
  EXPECT_EQ(fabric.topo.links().size(), 8u);
}

TEST(Topology, LeafSpinePortConventions) {
  const auto fabric = make_leaf_spine(2, 2, 2);
  const int leaf0 = fabric.leaves[0];
  // Host 0 of leaf 0 is on port 1.
  const auto peer = fabric.topo.peer({leaf0, fabric.leaf_host_port(0)});
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->node, fabric.hosts[0][0]);
  // Uplink 0 goes to spine 0.
  const auto up = fabric.topo.peer({leaf0, fabric.leaf_uplink_port(0)});
  ASSERT_TRUE(up.has_value());
  EXPECT_EQ(up->node, fabric.spines[0]);
}

TEST(Topology, HostAddressing) {
  const auto fabric = make_leaf_spine(2, 2, 2);
  // 10.0.<leaf+1>.<counter>.
  EXPECT_EQ(fabric.topo.node(fabric.hosts[0][0]).ip, 0x0a000101u);
  EXPECT_EQ(fabric.topo.node(fabric.hosts[1][0]).ip, 0x0a000203u);
}

TEST(Topology, HostFacingDetection) {
  const auto fabric = make_leaf_spine(2, 2, 2);
  EXPECT_TRUE(fabric.topo.host_facing({fabric.leaves[0], 1}));
  EXPECT_FALSE(
      fabric.topo.host_facing({fabric.leaves[0], fabric.leaf_uplink_port(0)}));
}

TEST(Topology, DoubleConnectRejected) {
  Topology t;
  const int a = t.add_switch("a");
  const int b = t.add_switch("b");
  const int c = t.add_switch("c");
  t.add_link({a, 1}, {b, 1});
  EXPECT_THROW(t.add_link({a, 1}, {c, 1}), std::invalid_argument);
  EXPECT_THROW(t.add_link({a, -1}, {c, 1}), std::invalid_argument);
  EXPECT_THROW(t.add_link({a, 2}, {c, 65536}), std::invalid_argument);
}

TEST(Topology, PortIndexFindsLinksAndPeers) {
  Topology t;
  const int a = t.add_switch("a");
  const int b = t.add_switch("b");
  const int h = t.add_host("h", 0x0a000001);
  EXPECT_EQ(t.add_link({a, 7}, {b, 2}), 0);
  EXPECT_EQ(t.add_link({a, 0}, {h, 0}), 1);
  EXPECT_EQ(t.link_index({a, 7}), 0);
  EXPECT_EQ(t.link_index({b, 2}), 0);
  EXPECT_EQ(t.link_index({a, 0}), 1);
  for (const PortRef none : {PortRef{a, 3}, PortRef{a, 99}, PortRef{b, -1},
                             PortRef{42, 0}, PortRef{-1, 0}}) {
    EXPECT_EQ(t.link_index(none), -1);
    EXPECT_FALSE(t.peer(none).has_value());
  }
  EXPECT_EQ(t.peer({a, 7})->node, b);
  EXPECT_EQ(t.peer({b, 2})->port, 7);
  EXPECT_TRUE(t.host_facing({a, 0}));
  EXPECT_FALSE(t.host_facing({a, 7}));
}

// ---------------------------------------------------------------------------
// Link
// ---------------------------------------------------------------------------

TEST(Link, SerializationPlusPropagation) {
  Link link(LinkSpec{{0, 0}, {1, 0}, 1e-6, 10.0});  // 10 Gb/s, 1 us
  const auto arrival = link.transmit(0, 0.0, 1250);  // 1250B = 1 us at 10G
  ASSERT_TRUE(arrival.has_value());
  EXPECT_NEAR(*arrival, 2e-6, 1e-12);
}

TEST(Link, QueueingDelaysSubsequentPackets) {
  Link link(LinkSpec{{0, 0}, {1, 0}, 0.0, 10.0});
  const auto a1 = link.transmit(0, 0.0, 1250);
  const auto a2 = link.transmit(0, 0.0, 1250);
  ASSERT_TRUE(a1 && a2);
  EXPECT_NEAR(*a2 - *a1, 1e-6, 1e-12);
}

TEST(Link, BufferOverflowDrops) {
  Link link(LinkSpec{{0, 0}, {1, 0}, 0.0, 0.001});  // 1 Mb/s: slow
  link.set_buffer_bytes(3000);
  int delivered = 0;
  for (int i = 0; i < 10; ++i) {
    if (link.transmit(0, 0.0, 1500)) ++delivered;
  }
  EXPECT_LT(delivered, 10);
  EXPECT_GT(link.stats(0).drops, 0u);
}

TEST(Link, DirectionsAreIndependent) {
  Link link(LinkSpec{{0, 0}, {1, 0}, 0.0, 10.0});
  link.transmit(0, 0.0, 1250);
  const auto rev = link.transmit(1, 0.0, 1250);
  ASSERT_TRUE(rev.has_value());
  EXPECT_NEAR(*rev, 1e-6, 1e-12);  // no queueing from the other direction
}

// ---------------------------------------------------------------------------
// Network end-to-end
// ---------------------------------------------------------------------------

struct Fixture {
  LeafSpine fabric = make_leaf_spine(2, 2, 2);
  Network net{fabric.topo};
  std::shared_ptr<fwd::Ipv4EcmpProgram> routing =
      fwd::install_leaf_spine_routing(net, fabric);

  int h(int leaf, int i) const {
    return fabric.hosts[static_cast<std::size_t>(leaf)]
                       [static_cast<std::size_t>(i)];
  }
  std::uint32_t ip(int host) const { return net.topo().node(host).ip; }
};

TEST(Network, DeliversAcrossFabric) {
  Fixture f;
  int got = 0;
  f.net.host(f.h(1, 0)).add_sink([&](const p4rt::Packet&, double) { ++got; });
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)),
                                      1000, 2000, 100));
  f.net.events().run();
  EXPECT_EQ(got, 1);
  EXPECT_EQ(f.net.counters().delivered, 1u);
}

TEST(Network, DeliversWithinLeaf) {
  Fixture f;
  int got = 0;
  f.net.host(f.h(0, 1)).add_sink([&](const p4rt::Packet&, double) { ++got; });
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(0, 1)),
                                      1000, 2000, 100));
  f.net.events().run();
  EXPECT_EQ(got, 1);
}

TEST(Network, PingGetsEchoReply) {
  Fixture f;
  PingProbe ping(f.net, f.h(0, 0), f.h(1, 1), 0.01);
  ping.start(0.0, 0.1);
  f.net.events().run();
  EXPECT_GT(ping.samples().size(), 5u);
  for (const auto& s : ping.samples()) {
    EXPECT_GT(s.rtt, 0.0);
    EXPECT_LT(s.rtt, 1e-3);
  }
}

TEST(Network, EcmpSpreadsFlowsAcrossSpines) {
  Fixture f;
  // Many distinct flows; both uplinks should carry traffic.
  for (int i = 0; i < 64; ++i) {
    f.net.send_from_host(
        f.h(0, 0),
        p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)),
                       static_cast<std::uint16_t>(1000 + i), 2000, 100));
  }
  f.net.events().run();
  std::uint64_t spine_pkts[2] = {0, 0};
  for (std::size_t li = 0; li < f.net.link_count(); ++li) {
    const auto& spec = f.net.link(static_cast<int>(li)).spec();
    for (int j = 0; j < 2; ++j) {
      const int sp = f.fabric.spines[static_cast<std::size_t>(j)];
      if (spec.a.node == sp || spec.b.node == sp) {
        spine_pkts[j] += f.net.link(static_cast<int>(li)).stats(0).packets +
                         f.net.link(static_cast<int>(li)).stats(1).packets;
      }
    }
  }
  EXPECT_GT(spine_pkts[0], 0u);
  EXPECT_GT(spine_pkts[1], 0u);
}

TEST(Network, SameFlowSticksToOnePath) {
  Fixture f;
  const auto p = p4rt::make_udp(1, 2, 3, 4, 0);
  const auto h1 = fwd::Ipv4EcmpProgram::flow_hash(p);
  const auto h2 = fwd::Ipv4EcmpProgram::flow_hash(p);
  EXPECT_EQ(h1, h2);
}

TEST(Network, CountersTrackDrops) {
  Fixture f;
  // No route for this destination: 10.9.9.9 falls to the leaf default
  // route, reaches a spine, misses there, and is dropped.
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), 0x0a090909, 1, 2, 10));
  f.net.events().run();
  EXPECT_EQ(f.net.counters().fwd_dropped, 1u);
  EXPECT_EQ(f.net.counters().delivered, 0u);
}

TEST(Network, SwitchLatencyGrowsWithStages) {
  Fixture f;
  f.net.set_latency_model(1e-6, 50e-9);
  const double base = f.net.switch_latency();
  // Deploying a checker never lowers it; stages are max(baseline, checker).
  auto checker = compile_library_checker("valley_free");
  f.net.deploy(checker);
  EXPECT_GE(f.net.switch_latency(), base);
}

// ---------------------------------------------------------------------------
// Hydra pipeline mechanics
// ---------------------------------------------------------------------------

TEST(HydraPipeline, TelemetryInjectedAndStripped) {
  Fixture f;
  auto checker = compile_library_checker("valley_free");
  const int dep = f.net.deploy(checker);
  configure_valley_free(f.net, dep, f.fabric);
  bool host_saw_telemetry = false;
  f.net.host(f.h(1, 0)).add_sink([&](const p4rt::Packet& p, double) {
    host_saw_telemetry = host_saw_telemetry || p.has_live_tele();
  });
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)),
                                      1000, 2000, 100));
  f.net.events().run();
  EXPECT_EQ(f.net.counters().delivered, 1u);
  // The last hop strips telemetry before the packet exits the network.
  EXPECT_FALSE(host_saw_telemetry);
}

TEST(HydraPipeline, MultipleCheckersCoexist) {
  Fixture f;
  const int d1 = f.net.deploy(compile_library_checker("valley_free"));
  const int d2 = f.net.deploy(compile_library_checker("loops"));
  configure_valley_free(f.net, d1, f.fabric);
  (void)d2;  // loops needs no configuration
  f.net.send_from_host(f.h(0, 0),
                       p4rt::make_udp(f.ip(f.h(0, 0)), f.ip(f.h(1, 0)),
                                      1000, 2000, 100));
  f.net.events().run();
  EXPECT_EQ(f.net.counters().delivered, 1u);
  EXPECT_EQ(f.net.counters().rejected, 0u);
}

TEST(HydraPipeline, TelemetryBytesExtendWireSize) {
  Fixture f;
  const auto no_dep_bytes =
      p4rt::make_udp(1, 2, 3, 4, 100).base_wire_bytes();
  auto checker = compile_library_checker("loops");
  f.net.deploy(checker);
  EXPECT_GT(checker->layout.wire_bytes, 0);
  // 4 visited entries of 32b + 3b counter + preamble.
  EXPECT_EQ(checker->layout.wire_bytes, (4 * 32 + 3 + 7) / 8 + 2);
  (void)no_dep_bytes;
}

TEST(HydraPipeline, UdpFloodLoadsLinks) {
  Fixture f;
  UdpFlood flood(f.net, f.h(0, 0), f.h(1, 0), 1.0, 1250);
  flood.start(0.0, 0.001);
  f.net.events().run();
  EXPECT_GT(flood.packets_sent(), 50u);
  EXPECT_EQ(f.net.counters().delivered, flood.packets_sent());
}

TEST(HydraPipeline, CampusReplayGeneratesMix) {
  Fixture f;
  CampusReplay replay(f.net, f.h(0, 0), f.h(1, 0), 100000.0);
  replay.start(0.0, 0.01);
  f.net.events().run();
  EXPECT_GT(replay.packets_sent(), 500u);
  EXPECT_GT(replay.bytes_sent(), replay.packets_sent() * 60);
}

}  // namespace
}  // namespace hydra::net
