// Serial-vs-parallel engine differential tests: the parallel engine must be
// observationally identical to the serial engine — same reports in the same
// order, same metrics snapshot, same final checker register/table state —
// for any worker count, on randomized traffic over both reference fabrics.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <iterator>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "aether/churn.hpp"
#include "aether/controller.hpp"
#include "aether/slice.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "hydra/apps.hpp"
#include "hydra/hydra.hpp"
#include "net/engine.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "obs/httpd.hpp"
#include "obs/metrics.hpp"
#include "p4rt/table.hpp"

namespace hydra {
namespace {

// Canonical end-of-run observation of a network: everything the engine
// contract promises is bit-identical across engines and worker counts.
struct Snapshot {
  std::string counters;
  std::string reports;
  std::string metrics;
  std::string state;      // per-switch checker registers + table entries
  std::string forensics;  // assembled ViolationReports as canonical JSON
  std::string faults;     // FaultStats JSON when a fault plan is armed
  std::string prom;       // Prometheus exposition when export is armed
  std::string series;     // windowed series JSON when export is armed
  std::string live_metrics;  // per-tick published /metrics bodies (live plane)
  std::string live_series;   // per-tick published /series bodies (live plane)
};

std::string dump_counters(const net::Network::Counters& c) {
  std::ostringstream os;
  os << "inj=" << c.injected << " del=" << c.delivered
     << " rej=" << c.rejected << " fwd_drop=" << c.fwd_dropped
     << " q_drop=" << c.queue_dropped << " f_drop=" << c.fault_dropped;
  return os.str();
}

std::string dump_reports(const net::Network& net) {
  std::ostringstream os;
  for (const auto& r : net.reports()) {
    os << r.deployment << '|' << r.checker << '|' << r.switch_id << '|'
       << r.time << '|' << r.hop_count << '|' << r.flow.to_string();
    for (const auto& v : r.values) os << '|' << v.to_string();
    os << '\n';
  }
  return os.str();
}

std::string dump_state(net::Network& net) {
  std::ostringstream os;
  for (int dep = 0; dep < net.deployment_count(); ++dep) {
    const ir::CheckerIR& ir = net.checker(dep).ir;
    for (int sw = 0; sw < net.topo().node_count(); ++sw) {
      if (net.topo().node(sw).kind != net::NodeKind::kSwitch) continue;
      for (const auto& reg : ir.registers) {
        auto& ra = net.checker_register(dep, sw, reg.name);
        os << dep << '/' << sw << "/reg " << reg.name << ':';
        for (std::size_t i = 0; i < ra.size(); ++i) {
          os << ' ' << ra.read(i).value();
        }
        os << '\n';
      }
      for (const auto& table : ir.tables) {
        auto& t = net.checker_table(dep, sw, table.name);
        os << dep << '/' << sw << "/table " << table.name << ':';
        for (const auto& e : t.entries()) {
          os << " [p" << e.priority;
          for (const auto& pat : e.patterns) {
            os << ' ' << pat.value.to_string() << '&'
               << pat.mask.to_string() << '/' << pat.prefix_len;
          }
          os << " ->";
          for (const auto& v : e.action_data) os << ' ' << v.to_string();
          os << ']';
        }
        os << '\n';
      }
    }
  }
  return os.str();
}

Snapshot snapshot(net::Network& net) {
  Snapshot s;
  s.counters = dump_counters(net.counters());
  s.reports = dump_reports(net);
  // Metrics and forensics only exist while observability is on; obs-off
  // scenarios still compare everything else.
  if (net.observability_enabled()) {
    s.metrics = net.metrics_json();
    s.forensics = net.violation_reports_json();
  }
  s.state = dump_state(net);
  if (net.faults_armed()) s.faults = net.fault_stats().to_json();
  if (net.export_armed()) {
    s.prom = net.export_prometheus();
    s.series = net.window_series_json();
  }
  return s;
}

void expect_identical(const Snapshot& a, const Snapshot& b,
                      const std::string& label) {
  EXPECT_EQ(a.counters, b.counters) << label;
  EXPECT_EQ(a.reports, b.reports) << label;
  EXPECT_EQ(a.metrics, b.metrics) << label;
  EXPECT_EQ(a.state, b.state) << label;
  EXPECT_EQ(a.forensics, b.forensics) << label;
  EXPECT_EQ(a.faults, b.faults) << label;
  EXPECT_EQ(a.prom, b.prom) << label;
  EXPECT_EQ(a.series, b.series) << label;
  EXPECT_EQ(a.live_metrics, b.live_metrics) << label;
  EXPECT_EQ(a.live_series, b.live_series) << label;
}

// Runs `scenario` once per engine configuration (fresh network each time)
// and checks every parallel run against the serial baseline.
void run_differential(
    const std::function<Snapshot(net::EngineKind, int)>& scenario) {
  const Snapshot base = scenario(net::EngineKind::kSerial, 0);
  ASSERT_FALSE(base.counters.empty());
  for (const int workers : {1, 2, 8}) {
    const Snapshot par = scenario(net::EngineKind::kParallel, workers);
    expect_identical(base, par,
                     "parallel:" + std::to_string(workers) + " vs serial");
  }
}

// Same-timestamp burst: many packets injected at one simulation instant,
// exercising the engine's same-t event grouping.
void burst(net::Network& net, int src, int dst, double at, int n) {
  const std::uint32_t sip = net.topo().node(src).ip;
  const std::uint32_t dip = net.topo().node(dst).ip;
  net.events().schedule_at(at, [&net, src, sip, dip, n] {
    for (int i = 0; i < n; ++i) {
      net.send_from_host(
          src, p4rt::make_udp(sip, dip,
                              static_cast<std::uint16_t>(7000 + i), 2000,
                              200 + 16 * i));
    }
  });
}

TEST(EngineDifferential, LeafSpineRandomTraffic) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(4, 4, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    net.set_observability(true);
    net.set_forensics(true);

    const int lb = net.deploy(compile_library_checker("dc_uplink_load_balance"));
    configure_load_balance(net, lb, fabric, 4000);
    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);

    // Randomized cross-leaf UDP flows (Poisson arrivals, fixed seeds).
    net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[3][1], 0.7, 900);
    f1.set_poisson(11);
    net::UdpFlood f2(net, fabric.hosts[1][1], fabric.hosts[2][0], 0.5, 300);
    f2.set_poisson(23);
    net::CampusReplay replay(net, fabric.hosts[2][1], fabric.hosts[0][1],
                             60000.0, 7);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    replay.start(0.0, 2e-3);
    burst(net, fabric.hosts[0][1], fabric.hosts[3][0], 1e-3, 24);
    net.events().run();
    return snapshot(net);
  });
}

TEST(EngineDifferential, FatTreeRandomTraffic) {
  run_differential([](net::EngineKind kind, int workers) {
    auto ft = net::make_fat_tree(4);
    net::Network net(ft.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_fat_tree_routing(net, ft);
    net.set_observability(true);
    net.set_forensics(true);

    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, ft);

    // Cross-pod and intra-pod mixes from every pod.
    net::CampusReplay replay(net, ft.hosts[0][0][0], ft.hosts[3][1][1],
                             80000.0, 99);
    net::UdpFlood f1(net, ft.hosts[1][0][1], ft.hosts[2][1][0], 0.8, 1200);
    f1.set_poisson(5);
    net::UdpFlood f2(net, ft.hosts[2][0][0], ft.hosts[2][1][1], 0.6, 256);
    f2.set_poisson(17);
    replay.start(0.0, 1.5e-3);
    f1.start(0.0, 1.5e-3);
    f2.start(0.0, 1.5e-3);
    burst(net, ft.hosts[3][0][0], ft.hosts[0][1][0], 8e-4, 32);
    net.events().run();
    return snapshot(net);
  });
}

// Observability and forensics OFF with register-free checkers: parallel
// windows still run switch-grouped, and runs must be bit-identical in
// everything observable without the metrics layer: counters, reports, and
// final checker state.
TEST(EngineDifferential, SwitchGroupsObsOffRandomTraffic) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(4, 4, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    // No set_observability / set_forensics.
    const int vf = net.deploy(compile_library_checker("valley_free"));
    configure_valley_free(net, vf, fabric);
    net.deploy(compile_library_checker("loops"));

    net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[3][1], 0.9, 700);
    f1.set_poisson(41);
    net::UdpFlood f2(net, fabric.hosts[1][0], fabric.hosts[2][1], 0.7, 450);
    f2.set_poisson(57);
    net::UdpFlood f3(net, fabric.hosts[2][0], fabric.hosts[0][1], 0.5, 300);
    f3.set_poisson(73);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    f3.start(0.0, 2e-3);
    burst(net, fabric.hosts[3][0], fabric.hosts[1][1], 1e-3, 32);
    net.events().run();
    EXPECT_GT(net.counters().delivered, 0u);
    return snapshot(net);
  });
}

// Table lookup counters with observability OFF, attached the way
// hydrabench's traced run attaches them: one hits/misses/cache_hits triple
// per checker table per switch, plus the routing program's. Every engine
// must count the same lookups and serve the same ones from each table's
// last-hit cache.
struct TableCounts {
  std::string dump;  // name=value per counter, in registration order
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t cache_hits = 0;
};

TableCounts table_counts_obs_off(net::EngineKind kind, int workers) {
  obs::Registry reg;  // outlives the network that holds its handles
  auto fabric = net::make_leaf_spine(4, 4, 2);
  net::Network net(fabric.topo);
  net.set_engine(kind, workers);
  auto routing = fwd::install_leaf_spine_routing(net, fabric);
  const int vf = net.deploy(compile_library_checker("valley_free"));
  configure_valley_free(net, vf, fabric);
  net.deploy(compile_library_checker("loops"));

  std::vector<std::string> bases;
  for (int dep = 0; dep < net.deployment_count(); ++dep) {
    for (int sw = 0; sw < net.topo().node_count(); ++sw) {
      if (net.topo().node(sw).kind != net::NodeKind::kSwitch) continue;
      for (const auto& t : net.checker(dep).ir.tables) {
        const std::string base = "table." + std::to_string(dep) + "." +
                                 std::to_string(sw) + "." + t.name;
        p4rt::TableMetrics tm;
        tm.hits = reg.counter(base + ".hits");
        tm.misses = reg.counter(base + ".misses");
        tm.cache_hits = reg.counter(base + ".cache_hits");
        net.checker_table(dep, sw, t.name).attach_metrics(tm);
        bases.push_back(base);
      }
    }
  }
  routing->attach_metrics(&reg);
  bases.push_back("fwd.ipv4_ecmp.routes");

  net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[3][1], 0.9, 700);
  f1.set_poisson(41);
  net::UdpFlood f2(net, fabric.hosts[1][0], fabric.hosts[2][1], 0.7, 450);
  f2.set_poisson(57);
  f1.start(0.0, 2e-3);
  f2.start(0.0, 2e-3);
  net.events().run();
  EXPECT_FALSE(net.observability_enabled());

  TableCounts c;
  std::ostringstream os;
  for (const auto& base : bases) {
    const std::uint64_t h = reg.counter_value(base + ".hits");
    const std::uint64_t m = reg.counter_value(base + ".misses");
    const std::uint64_t ch = reg.counter_value(base + ".cache_hits");
    os << base << " hits=" << h << " misses=" << m << " cache_hits=" << ch
       << '\n';
    c.hits += h;
    c.misses += m;
    c.cache_hits += ch;
  }
  c.dump = os.str();
  routing->attach_metrics(nullptr);
  return c;
}

TEST(EngineDifferential, TableCountersObsOffIdenticalAcrossEngines) {
  const TableCounts base = table_counts_obs_off(net::EngineKind::kSerial, 0);
  ASSERT_GT(base.hits, 0u);
  ASSERT_GT(base.cache_hits, 0u);
  for (const int workers : {1, 2, 8}) {
    const TableCounts par =
        table_counts_obs_off(net::EngineKind::kParallel, workers);
    const std::string label = "parallel:" + std::to_string(workers);
    EXPECT_EQ(par.hits, base.hits) << label;
    EXPECT_EQ(par.misses, base.misses) << label;
    EXPECT_EQ(par.cache_hits, base.cache_hits) << label;
    EXPECT_EQ(par.dump, base.dump) << label;
  }
}

// Every flow converges on one leaf: a single hot switch dominates every
// window, stressing the LPT switch-group planner's balance and the
// one-switch-one-worker rule that keeps per-table cache behaviour (and
// thus the metrics snapshot) exact with observability ON.
TEST(EngineDifferential, HotSwitchSkewedLoadSwitchGroups) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(4, 4, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    net.set_observability(true);
    net.set_forensics(true);

    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);
    // All traffic lands on leaf 0's hosts.
    net::UdpFlood f1(net, fabric.hosts[1][0], fabric.hosts[0][0], 1.0, 600);
    f1.set_poisson(7);
    net::UdpFlood f2(net, fabric.hosts[2][1], fabric.hosts[0][1], 0.8, 500);
    f2.set_poisson(19);
    net::UdpFlood f3(net, fabric.hosts[3][0], fabric.hosts[0][0], 0.6, 400);
    f3.set_poisson(31);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    f3.start(0.0, 2e-3);
    burst(net, fabric.hosts[3][1], fabric.hosts[0][1], 9e-4, 40);
    net.events().run();
    return snapshot(net);
  });
}

// Closed control loop (report callback installs table entries): the
// parallel engine must degrade to serial per-event execution and still
// match the serial engine exactly, including mid-simulation rule installs.
TEST(EngineDifferential, FirewallControlLoopDegradesDeterministically) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    net.set_observability(true);
    net.set_forensics(true);

    const int dep = net.deploy(compile_library_checker("stateful_firewall"));
    apps::FirewallAgent agent(net, dep);
    const auto ip = [&](int h) { return net.topo().node(h).ip; };
    net.dict_insert_all(dep, "allowed",
                        {BitVec(32, ip(fabric.hosts[0][0])),
                         BitVec(32, ip(fabric.hosts[1][0]))},
                        {BitVec::from_bool(true)});
    net.send_from_host(fabric.hosts[0][0],
                       p4rt::make_udp(ip(fabric.hosts[0][0]),
                                      ip(fabric.hosts[1][0]), 1000, 2000,
                                      64));
    net.events().run();
    // Reverse traffic now flows thanks to the agent's installs.
    net.send_from_host(fabric.hosts[1][0],
                       p4rt::make_udp(ip(fabric.hosts[1][0]),
                                      ip(fabric.hosts[0][0]), 2000, 1000,
                                      64));
    net.events().run();
    EXPECT_EQ(agent.rules_installed(), 1u);
    EXPECT_EQ(net.counters().rejected, 0u);
    return snapshot(net);
  });
}

// The full fault plan armed — loss, corruption, duplication, reordering,
// scheduled + random link outages, a mid-run switch restart, and delayed
// rule pushes — must produce bit-identical outcomes (reports, metrics,
// forensics JSON, fault stats) at any worker count: every fault die is
// rolled on the main thread in canonical commit order.
TEST(EngineDifferential, ChaosFaultPlanDeterministicAcrossEngines) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    fwd::install_leaf_spine_routing(net, fabric);
    net.set_observability(true);
    net.set_forensics(true);
    const int dep = net.deploy(compile_library_checker("stateful_firewall"));

    net::FaultPlan plan;
    plan.loss = 0.03;
    plan.corrupt = 0.1;
    plan.duplicate = 0.04;
    plan.reorder = 0.06;
    plan.reorder_max_s = 40e-6;
    plan.flap_rate_hz = 2000.0;
    plan.flap_down_s = 120e-6;
    plan.horizon_s = 2.5e-3;
    plan.failures.push_back(
        {net.topo().link_index({fabric.leaves[0], fabric.leaf_uplink_port(0)}),
         5e-4, 9e-4});
    plan.restarts.push_back({fabric.leaves[1], 1.2e-3});
    plan.restart_warmup_s = 300e-6;
    plan.rule_push_delay_s = 70e-6;
    plan.rule_push_jitter_s = 50e-6;
    net.arm_faults(plan, 1234);

    const auto ip = [&](int h) { return net.topo().node(h).ip; };
    const int client = fabric.hosts[0][0];
    const int server = fabric.hosts[1][0];
    const int intruder = fabric.hosts[0][1];
    net.dict_insert_all_delayed(dep, "allowed",
                                {BitVec(32, ip(client)),
                                 BitVec(32, ip(server))},
                                {BitVec::from_bool(true)});
    net.dict_insert_all_delayed(dep, "allowed",
                                {BitVec(32, ip(server)),
                                 BitVec(32, ip(client))},
                                {BitVec::from_bool(true)});
    for (int i = 0; i < 160; ++i) {
      const double t = 12e-6 * (i + 1);
      const int src = i % 4 == 3 ? intruder : client;
      const std::uint32_t sip = ip(src);
      const std::uint32_t dip = ip(server);
      const auto sport = static_cast<std::uint16_t>(6000 + i % 16);
      net.events().schedule_at(t, [&net, src, sip, dip, sport] {
        net.send_from_host(src, p4rt::make_udp(sip, dip, sport, 80, 64));
      });
    }
    net.events().run();
    return snapshot(net);
  });
}

// Streaming export armed: windows tick at virtual-time boundaries inside
// both engines' commit phases, so the Prometheus exposition AND the
// windowed series (deltas, rates, latency percentiles per window) must be
// byte-identical across engines and worker counts — not just the final
// totals.
TEST(EngineDifferential, StreamingExportByteIdenticalAcrossEngines) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(4, 4, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    net.set_forensics(true);

    const int lb = net.deploy(compile_library_checker("dc_uplink_load_balance"));
    configure_load_balance(net, lb, fabric, 4000);
    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);
    // 40 windows over the 2 ms run; implies observability.
    net.set_export_interval(5e-5);
    EXPECT_TRUE(net.export_armed());

    net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[3][1], 0.7, 900);
    f1.set_poisson(11);
    net::UdpFlood f2(net, fabric.hosts[1][1], fabric.hosts[2][0], 0.5, 300);
    f2.set_poisson(23);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    burst(net, fabric.hosts[0][1], fabric.hosts[3][0], 1e-3, 24);
    net.events().run();

    EXPECT_GT(net.export_scheduler_ptr()->captured(), 10u);
    return snapshot(net);
  });
}

// Aether session churn: the generator attaches/detaches subscribers and
// streams GTP-U uplinks from tick(), mutating UPF and checker tables
// mid-run. Registering as a control loop degrades the parallel engine to
// serial per-event windows, so every observation — including the final
// table state after incremental removals — must stay byte-identical at
// any worker count.
TEST(EngineDifferential, AetherSessionChurnDeterministicAcrossEngines) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    auto upf = std::make_shared<fwd::UpfProgram>(routing);
    net.set_program(fabric.leaves[0], upf);
    const int dep =
        net.deploy(compile_library_checker("application_filtering"));
    net.set_observability(true);

    aether::AetherController ctl(net, upf, dep);
    ctl.define_slice(aether::example_camera_slice(1));

    aether::SessionChurnGenerator::Config gc;
    gc.sessions = 200;
    gc.churn_per_s = 20000.0;
    gc.packets_per_s = 200000.0;
    gc.enb_host = fabric.hosts[0][0];
    gc.enb_ip = net.topo().node(fabric.hosts[0][0]).ip;
    gc.n3_ip = 0x0a0001fe;
    gc.app_ip = net.topo().node(fabric.hosts[1][0]).ip;
    gc.seed = 99;
    aether::SessionChurnGenerator gen(net, ctl, gc);
    gen.set_latency_sampling(false);
    gen.prefill();
    gen.start(0.0, 2e-3);
    net.events().run();
    return snapshot(net);
  });
}

// Live observability plane: every committed export tick publishes an
// immutable scrape snapshot from the commit path (workers quiesced), so
// the /metrics and /series bodies at EVERY tick — not just end of run —
// must be byte-identical across engines and worker counts. This is the
// determinism contract a scraper observes through hydrad.
TEST(EngineDifferential, LiveScrapeBodiesByteIdenticalAcrossEngines) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    auto upf = std::make_shared<fwd::UpfProgram>(routing);
    net.set_program(fabric.leaves[0], upf);
    const int dep =
        net.deploy(compile_library_checker("application_filtering"));
    net.set_observability(true);
    net.set_export_interval(1e-4);
    net::Network::LiveObsOptions opts;
    opts.topk_k = 4;
    opts.session_net = 0x50000000u;   // SessionChurnGenerator UE block
    opts.session_mask = 0xFC000000u;
    net.arm_live_obs(opts);

    obs::SnapshotPublisher pub;
    std::string live_metrics;
    std::string live_series;
    pub.set_on_publish([&](const obs::LiveSnapshot& s) {
      live_metrics += "tick " + std::to_string(s.tick_index()) + "\n";
      live_metrics += s.metrics_text();
      live_series += s.series_json();
      live_series += '\n';
    });
    net.set_live_publisher(&pub);

    aether::AetherController ctl(net, upf, dep);
    ctl.define_slice(aether::example_camera_slice(1));
    aether::SessionChurnGenerator::Config gc;
    gc.sessions = 100;
    gc.churn_per_s = 20000.0;
    gc.packets_per_s = 200000.0;
    gc.enb_host = fabric.hosts[0][0];
    gc.enb_ip = net.topo().node(fabric.hosts[0][0]).ip;
    gc.n3_ip = 0x0a0001fe;
    gc.app_ip = net.topo().node(fabric.hosts[1][0]).ip;
    gc.seed = 7;
    aether::SessionChurnGenerator gen(net, ctl, gc);
    gen.set_latency_sampling(false);
    gen.prefill();
    gen.start(0.0, 2e-3);
    net.events().run();

    EXPECT_GT(net.export_scheduler_ptr()->captured(), 5u);
    Snapshot s = snapshot(net);
    s.live_metrics = std::move(live_metrics);
    s.live_series = std::move(live_series);
    return s;
  });
}

// Lazy rendering: each published tick carries raw state only, and every
// body rendered from it — here after the run has moved on — must be the
// body the eager renderers produce at that tick: obs_snapshot(),
// window_series_json(), to_prometheus(registry, top-K families),
// health_json(), violation_reports_json() and topk_json(). Nothing may be
// rendered at publish time. The concatenated bodies are also compared
// across engines.
TEST(EngineDifferential, LiveRawTicksRenderTheEagerBodiesAtEveryTick) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    auto upf = std::make_shared<fwd::UpfProgram>(routing);
    net.set_program(fabric.leaves[0], upf);
    const int dep =
        net.deploy(compile_library_checker("application_filtering"));
    net.set_observability(true);
    net.set_forensics(true);
    net.set_export_interval(1e-4);
    net::Network::LiveObsOptions opts;
    opts.topk_k = 4;
    opts.session_net = 0x50000000u;  // SessionChurnGenerator UE block
    opts.session_mask = 0xFC000000u;
    net.arm_live_obs(opts);

    constexpr obs::LiveBody kBodies[] = {
        obs::LiveBody::kSnapshot, obs::LiveBody::kSeries,
        obs::LiveBody::kMetrics,  obs::LiveBody::kHealth,
        obs::LiveBody::kViolations, obs::LiveBody::kTopK,
    };
    obs::SnapshotPublisher pub;
    std::vector<std::shared_ptr<const obs::LiveSnapshot>> ticks;
    std::vector<std::vector<std::string>> eager;  // kBodies order
    pub.set_on_publish([&](const obs::LiveSnapshot& s) {
      for (obs::LiveBody b : kBodies) {
        EXPECT_FALSE(s.rendered(b)) << "tick " << s.tick_index();
      }
      std::vector<obs::PromFamily> topk_families;
      net.topk_ptr()->prom_families(topk_families);
      eager.push_back({net.obs_snapshot(), net.window_series_json(),
                       obs::to_prometheus(net.metrics(), topk_families),
                       net.health_json(), net.violation_reports_json(),
                       net.topk_json()});
      ticks.push_back(pub.acquire());
    });
    net.set_live_publisher(&pub);

    aether::AetherController ctl(net, upf, dep);
    ctl.define_slice(aether::example_camera_slice(1));
    aether::SessionChurnGenerator::Config gc;
    gc.sessions = 100;
    gc.churn_per_s = 20000.0;
    gc.packets_per_s = 200000.0;
    gc.enb_host = fabric.hosts[0][0];
    gc.enb_ip = net.topo().node(fabric.hosts[0][0]).ip;
    gc.n3_ip = 0x0a0001fe;
    gc.app_ip = net.topo().node(fabric.hosts[1][0]).ip;
    gc.seed = 7;
    aether::SessionChurnGenerator gen(net, ctl, gc);
    gen.set_latency_sampling(false);
    gen.prefill();
    gen.start(0.0, 2e-3);
    // Mid-run rule update (the Aether bug): later attaches install a
    // higher-priority shared entry that silently drops older clients'
    // traffic, so the forensics plane has violations to serve.
    net.events().schedule_at(1e-3, [&ctl] {
      aether::Slice updated = aether::example_camera_slice(1);
      updated.rules[1].port_hi = 82;
      updated.rules[1].priority = 30;
      ctl.update_slice_rules(1, updated.rules);
    });
    net.events().run();

    EXPECT_GT(ticks.size(), 5u);
    EXPECT_EQ(ticks.size(), net.export_scheduler_ptr()->captured());
    EXPECT_FALSE(net.violation_reports().empty());
    Snapshot s = snapshot(net);
    for (std::size_t i = 0; i < ticks.size(); ++i) {
      EXPECT_EQ(ticks[i]->tick_index(), i + 1);
      s.live_metrics += "tick " + std::to_string(i + 1) + "\n";
      for (std::size_t b = 0; b < std::size(kBodies); ++b) {
        const std::string& lazy = ticks[i]->body(kBodies[b]);
        EXPECT_EQ(lazy, eager[i][b])
            << "tick " << i + 1 << " body " << static_cast<int>(kBodies[b]);
        s.live_metrics += lazy;
      }
    }
    return s;
  });
}

// Rolling deploy → undeploy → redeploy under live traffic: the staged
// per-switch swaps ride the control channel ((t, seq)-ordered like switch
// restarts), and frames stamped by the retired generation reject
// fail-closed mid-flight. The whole lifecycle — stale-reject counters,
// forensics, Prometheus bodies, and the v2 full-state snapshot — must be
// byte-identical across engines and worker counts.
TEST(EngineDifferential, RollingDeployUndeployRedeployUnderLiveTraffic) {
  run_differential([](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    net.set_observability(true);
    net.set_forensics(true);
    net.set_export_interval(5e-5);

    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);

    net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[1][1], 0.6, 700);
    f1.set_poisson(29);
    net::UdpFlood f2(net, fabric.hosts[1][0], fabric.hosts[0][1], 0.4, 300);
    f2.set_poisson(37);
    f1.start(0.0, 2e-3);
    f2.start(0.0, 2e-3);
    // Bursts 3 µs before each lifecycle pause: stamped at the ingress leaf
    // before the swap sweep lands, mid-path when it does.
    burst(net, fabric.hosts[0][1], fabric.hosts[1][0], 0.497e-3, 24);
    burst(net, fabric.hosts[1][1], fabric.hosts[0][0], 0.997e-3, 24);
    burst(net, fabric.hosts[0][0], fabric.hosts[1][0], 1.497e-3, 24);

    net.events().run_until(0.5e-3);
    const int lp = net.deploy_rolling(compile_library_checker("loops"));
    net.events().run_until(1.0e-3);
    net.undeploy_rolling(lp);
    net.events().run_until(1.5e-3);
    EXPECT_FALSE(net.deployment_live(lp));
    EXPECT_EQ(net.deploy_rolling(compile_library_checker("loops")), lp);
    net.events().run();
    EXPECT_FALSE(net.swap_in_progress());
    EXPECT_TRUE(net.deployment_live(lp));

    Snapshot s = snapshot(net);
    s.state += net.full_snapshot();
    return s;
  });
}

// Switching engines mid-lifetime (between drains) preserves behaviour.
TEST(EngineDifferential, EngineSwapBetweenRuns) {
  auto run = [](bool swap) {
    auto fabric = net::make_leaf_spine(2, 2, 2);
    net::Network net(fabric.topo);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    net.set_observability(true);
    net.set_forensics(true);
    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);
    net::UdpFlood f(net, fabric.hosts[0][0], fabric.hosts[1][1], 0.4, 700);
    f.set_poisson(3);
    f.start(0.0, 5e-4);
    net.events().run_until(2.5e-4);
    if (swap) net.set_engine(net::EngineKind::kParallel, 4);
    net.events().run();
    return snapshot(net);
  };
  const Snapshot serial = run(false);
  const Snapshot swapped = run(true);
  expect_identical(serial, swapped, "mid-run engine swap");
}

// Pool workers parked on the futex, or -1 on the serial engine.
int parked_workers(const net::Network& net) {
  const auto* par = dynamic_cast<const net::ParallelEngine*>(&net.engine());
  return par != nullptr ? par->parked_workers() : -1;
}

// The hot handshake's park/unpark edges under stress: many short drains
// that alternate dispatched windows with callback- and control-loop-
// degraded ones (workers hot, then parked mid-drain or at drain end), and
// the pool destroyed and rebuilt while parked, at a worker count that fits
// the host and at parallel:8. After every drain the pool must be parked by
// the engine's own count, and the run must equal serial.
TEST(EngineDifferential, ParkUnparkStressShortDrains) {
  const auto scenario = [](net::EngineKind kind, int workers) {
    auto fabric = net::make_leaf_spine(4, 4, 2);
    net::Network net(fabric.topo);
    net.set_engine(kind, workers);
    auto routing = fwd::install_leaf_spine_routing(net, fabric);
    net.set_observability(true);
    // No allow-list installed: the firewall reports every flow's packets.
    net.deploy(compile_library_checker("stateful_firewall"));
    const int ud = net.deploy(compile_library_checker("up_down_routing"));
    configure_up_down(net, ud, fabric);

    net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[3][1], 2.0, 600);
    f1.set_poisson(31);
    net::UdpFlood f2(net, fabric.hosts[1][1], fabric.hosts[2][0], 2.0, 600);
    f2.set_poisson(37);
    net::UdpFlood f3(net, fabric.hosts[2][1], fabric.hosts[0][1], 1.0, 300);
    f3.set_poisson(43);
    f1.start(0.0, 1.2e-3);
    f2.start(0.0, 1.2e-3);
    f3.start(0.0, 1.2e-3);

    std::uint64_t callback_reports = 0;
    const int steps = 240;
    for (int step = 1; step <= steps; ++step) {
      const bool control_loop = step % 3 == 0;
      const bool callback = step % 5 == 0;
      net.set_control_loop_active(control_loop);
      if (callback) {
        net.subscribe_reports(
            [&callback_reports](const net::ReportRecord&) {
              ++callback_reports;
            });
      }
      net.events().run_until(5e-6 * step);
      net.clear_report_subscribers();
      net.set_control_loop_active(false);
      if (kind == net::EngineKind::kParallel) {
        EXPECT_EQ(parked_workers(net), workers - 1) << "after drain " << step;
      }
      // Tear the parked pool down and rebuild it, or swap engines, between
      // drains.
      if (kind == net::EngineKind::kParallel && step % 40 == 0) {
        net.set_engine(step % 80 == 0 ? net::EngineKind::kSerial
                                      : net::EngineKind::kParallel,
                       workers);
        net.set_engine(net::EngineKind::kParallel, workers);
      }
    }
    net.events().run();
    Snapshot s = snapshot(net);
    s.counters += " callback_reports=" + std::to_string(callback_reports);
    return s;
  };
  const Snapshot serial = scenario(net::EngineKind::kSerial, 0);
  ASSERT_NE(serial.reports, "") << serial.counters;
  // parallel:2 spins between epochs on any multi-core host; parallel:8
  // exceeds the hardware threads of small hosts, where every wait parks.
  for (const int workers : {2, 8}) {
    const Snapshot par = scenario(net::EngineKind::kParallel, workers);
    expect_identical(serial, par,
                     "parallel:" + std::to_string(workers) +
                         " short drains vs serial");
  }
}

TEST(EngineSpec, ParseAndName) {
  int workers = -1;
  EXPECT_EQ(net::parse_engine_kind("serial", &workers),
            net::EngineKind::kSerial);
  EXPECT_EQ(workers, 0);
  EXPECT_EQ(net::parse_engine_kind("parallel", &workers),
            net::EngineKind::kParallel);
  EXPECT_EQ(workers, 0);
  EXPECT_EQ(net::parse_engine_kind("parallel:6", &workers),
            net::EngineKind::kParallel);
  EXPECT_EQ(workers, 6);
  EXPECT_THROW(net::parse_engine_kind("turbo", nullptr),
               std::invalid_argument);
  EXPECT_STREQ(net::engine_kind_name(net::EngineKind::kSerial), "serial");
  EXPECT_STREQ(net::engine_kind_name(net::EngineKind::kParallel),
               "parallel");
}

// Under sustained load the profiler must span every engine phase —
// pop_window, epoch, compute, commit, barrier — with dispatched-parallel
// epochs present, and the per-mode epoch counters, the lookahead-
// multiplier histogram and the handshake's wake latency and park count
// must surface in the metrics snapshot.
TEST(EngineProfiler, CoversEveryPhaseOnLoadedFabric) {
  auto fabric = net::make_leaf_spine(4, 4, 2);
  net::Network net(fabric.topo);
  net.set_engine(net::EngineKind::kParallel, 4);
  auto routing = fwd::install_leaf_spine_routing(net, fabric);
  net.set_observability(true);
  net.set_engine_profiling(true);
  const int ud = net.deploy(compile_library_checker("up_down_routing"));
  configure_up_down(net, ud, fabric);

  net::UdpFlood f1(net, fabric.hosts[0][0], fabric.hosts[3][1], 2.0, 600);
  f1.set_poisson(11);
  net::UdpFlood f2(net, fabric.hosts[1][1], fabric.hosts[2][0], 2.0, 600);
  f2.set_poisson(23);
  f1.start(0.0, 2e-3);
  f2.start(0.0, 2e-3);
  burst(net, fabric.hosts[0][1], fabric.hosts[3][0], 1e-3, 48);
  net.events().run();

  const std::string trace = net.engine_profiler().to_chrome_trace_json();
  for (const char* phase :
       {"pop_window", "epoch", "compute", "commit", "barrier"}) {
    EXPECT_NE(trace.find(phase), std::string::npos) << phase;
  }
  EXPECT_NE(trace.find("\"mode\": \"parallel\""), std::string::npos);
  EXPECT_NE(trace.find("lookahead_mult"), std::string::npos);

  const std::string metrics = net.metrics_json();
  for (const char* name :
       {"engine.epochs.parallel", "engine.epochs.callbacks", "engine.epochs.one_worker",
        "engine.epochs.small_window", "engine.epoch.lookahead_mult",
        "engine.phase.wake_us", "engine.worker_parks"}) {
    EXPECT_NE(metrics.find(name), std::string::npos) << name;
  }
}

// Malformed worker counts must be rejected loudly — not parsed as zero,
// silently clamped, or treated as a different engine name.
TEST(EngineSpec, RejectsBadWorkerCounts) {
  for (const char* spec :
       {"parallel:0", "parallel:-2", "parallel:abc", "parallel:",
        "parallel:2x", "parallel:99999", "parallel: 4"}) {
    EXPECT_THROW(net::parse_engine_kind(spec, nullptr),
                 std::invalid_argument)
        << spec;
  }
  try {
    net::parse_engine_kind("parallel:0", nullptr);
    FAIL() << "parallel:0 accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("parallel:0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("worker count"), std::string::npos) << msg;
  }
  int workers = -1;
  EXPECT_EQ(net::parse_engine_kind("parallel:1024", &workers),
            net::EngineKind::kParallel);
  EXPECT_EQ(workers, 1024);
}

TEST(EngineSpec, NetworkReportsEngineSelection) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  EXPECT_EQ(net.engine_kind(), net::EngineKind::kSerial);
  EXPECT_EQ(net.engine_workers(), 1);
  net.set_engine(net::EngineKind::kParallel, 3);
  EXPECT_EQ(net.engine_kind(), net::EngineKind::kParallel);
  EXPECT_EQ(net.engine_workers(), 3);
  net.set_engine(net::EngineKind::kSerial);
  EXPECT_EQ(net.engine_workers(), 1);
}

}  // namespace
}  // namespace hydra
