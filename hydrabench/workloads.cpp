#include "workloads.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "aether/slice.hpp"
#include "hydra/hydra.hpp"
#include "ledger.hpp"

namespace hydrabench {

namespace hn = hydra::net;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

long vm_kib(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  const std::size_t len = std::strlen(field);
  char line[256];
  long kib = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kib = std::strtol(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

std::string Digest::str() const {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "injected=%" PRIu64 " delivered=%" PRIu64 " rejected=%" PRIu64
                " fwd_dropped=%" PRIu64 " queue_dropped=%" PRIu64
                " reports=%" PRIu64 " violations=%" PRIu64
                " attaches=%" PRIu64 " detaches=%" PRIu64
                " application_entries=%" PRIu64 " session_misses=%" PRIu64,
                injected, delivered, rejected, fwd_dropped, queue_dropped,
                reports, violations, attaches, detaches, application_entries,
                session_misses);
  return buf;
}

namespace {

Digest network_digest(hn::Network& net) {
  const auto& c = net.counters();
  Digest d;
  d.injected = c.injected;
  d.delivered = c.delivered;
  d.rejected = c.rejected;
  d.fwd_dropped = c.fwd_dropped;
  d.queue_dropped = c.queue_dropped;
  d.reports = net.reports().size();
  d.violations = net.violation_reports().size();
  return d;
}

// Wraps every switch's program in the ledger's timing decorator.
void decorate_switches(hn::Network& net, const hn::LeafSpine& fabric,
                       const std::shared_ptr<hn::ForwardingProgram>& leaf0,
                       const std::shared_ptr<hn::ForwardingProgram>& others,
                       Ledger* ledger) {
  if (ledger == nullptr) return;
  for (const int sw : fabric.leaves) {
    net.set_program(sw, std::make_shared<TimedProgram>(
                            sw == fabric.leaves[0] ? leaf0 : others, *ledger));
  }
  for (const int sw : fabric.spines) {
    net.set_program(sw, std::make_shared<TimedProgram>(others, *ledger));
  }
}

// Observability-off workloads get bench-owned counters on every checker
// table (and the routing program's), so the traced run can count lookups
// and last-hit cache use without turning the obs plane on.
void attach_table_counters(hn::Network& net, hydra::obs::Registry& reg) {
  for (int dep = 0; dep < net.deployment_count(); ++dep) {
    const auto& ir = net.checker(dep).ir;
    for (int sw = 0; sw < net.topo().node_count(); ++sw) {
      if (net.topo().node(sw).kind != hn::NodeKind::kSwitch) continue;
      for (const auto& t : ir.tables) {
        const std::string base = "bench.table." + std::to_string(dep) + "." +
                                 std::to_string(sw) + "." + t.name;
        hydra::p4rt::TableMetrics tm;
        tm.hits = reg.counter(base + ".hits");
        tm.misses = reg.counter(base + ".misses");
        tm.cache_hits = reg.counter(base + ".cache_hits");
        net.checker_table(dep, sw, t.name).attach_metrics(tm);
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// FabricScenario
// ---------------------------------------------------------------------------

FabricScenario::FabricScenario(std::uint64_t seed, const SetupOptions& opts,
                               SetupCost* cost) {
  using hydra::compile_library_checker;
  const auto t0 = Clock::now();
  fabric_ = hn::make_leaf_spine(kLeaves, kSpines, kHostsPerLeaf);
  net_ = std::make_unique<hn::Network>(fabric_.topo);
  net_->set_engine(opts.engine, opts.workers);
  routing_ = hydra::fwd::install_leaf_spine_routing(*net_, fabric_);
  decorate_switches(*net_, fabric_, routing_, routing_, opts.ledger);

  const auto c0 = Clock::now();
  const char* names[] = {"valley_free", "loops", "routing_validity",
                         "egress_port_validity", "application_filtering"};
  std::vector<std::shared_ptr<const hydra::compiler::CompiledChecker>> compiled;
  for (const char* name : names) {
    compiled.push_back(compile_library_checker(name));
  }
  const auto c1 = Clock::now();
  const int vf = net_->deploy(compiled[0]);
  hydra::configure_valley_free(*net_, vf, fabric_);
  net_->deploy(compiled[1]);
  const int rv = net_->deploy(compiled[2]);
  hydra::configure_routing_validity(*net_, rv, fabric_);
  const int ep = net_->deploy(compiled[3]);
  hydra::configure_egress_port_validity(*net_, ep);
  net_->deploy(compiled[4]);
  const auto c2 = Clock::now();

  if (opts.ledger != nullptr) {
    table_reg_ = std::make_unique<hydra::obs::Registry>();
    attach_table_counters(*net_, *table_reg_);
    routing_->attach_metrics(table_reg_.get());
  }

  // Every ordered host pair carries its own Poisson UDP stream.
  std::uint64_t stream = 0;
  for (int si = 0; si < kLeaves; ++si) {
    for (int sh = 0; sh < kHostsPerLeaf; ++sh) {
      for (int di = 0; di < kLeaves; ++di) {
        for (int dh = 0; dh < kHostsPerLeaf; ++dh) {
          if (si == di && sh == dh) continue;
          const int src = fabric_.hosts[static_cast<std::size_t>(si)]
                                       [static_cast<std::size_t>(sh)];
          const int dst = fabric_.hosts[static_cast<std::size_t>(di)]
                                       [static_cast<std::size_t>(dh)];
          Flow f;
          f.gen = std::make_unique<hn::UdpFlood>(
              *net_, src, dst, kPairGbps, kPacketBytes,
              static_cast<std::uint16_t>(10000 + stream));
          f.gen->set_poisson(derive_seed(seed, stream));
          f.path_hops = si == di ? 1 : 3;
          flows_.push_back(std::move(f));
          ++stream;
        }
      }
    }
  }
  if (cost != nullptr) {
    cost->total_s = seconds_between(t0, Clock::now());
    cost->compile_ms = 1e3 * seconds_between(c0, c1);
    cost->deploy_ms = 1e3 * seconds_between(c1, c2);
  }
}

void FabricScenario::run_round() {
  const double t = net_->events().now();
  for (auto& f : flows_) f.gen->start(t, kRoundSimS);
  net_->events().run();
}

Digest FabricScenario::digest() const { return network_digest(*net_); }

std::uint64_t FabricScenario::hops() const {
  std::uint64_t h = 0;
  for (const auto& f : flows_) {
    h += f.gen->packets_sent() * static_cast<std::uint64_t>(f.path_hops);
  }
  return h;
}

// ---------------------------------------------------------------------------
// UpfScenario
// ---------------------------------------------------------------------------

namespace {
// UE block of SessionChurnGenerator (kUeBase 0x50000001): PFCP-session
// top-K attribution keys on it, as in hydrad.
constexpr std::uint32_t kUeNet = 0x50000000u;
constexpr std::uint32_t kUeMask = 0xFC000000u;
}  // namespace

UpfScenario::UpfScenario(std::uint64_t seed, const SetupOptions& opts,
                         SetupCost* cost) {
  const auto t0 = Clock::now();
  fabric_ = hn::make_leaf_spine(2, 2, 2);
  net_ = std::make_unique<hn::Network>(fabric_.topo);
  // The churn control loop forces serial execution.
  net_->set_engine(hn::EngineKind::kSerial, 1);
  auto routing = hydra::fwd::install_leaf_spine_routing(*net_, fabric_);
  upf_ = std::make_shared<hydra::fwd::UpfProgram>(routing);
  net_->set_program(fabric_.leaves[0], upf_);
  decorate_switches(*net_, fabric_, upf_, routing, opts.ledger);
  net_->set_observability(true);
  net_->set_export_interval(kExportIntervalS, kExportRing);
  hn::Network::LiveObsOptions live;
  live.session_net = kUeNet;
  live.session_mask = kUeMask;
  net_->arm_live_obs(live);

  const auto c0 = Clock::now();
  auto checker = hydra::compile_library_checker("application_filtering");
  const auto c1 = Clock::now();
  const int dep = net_->deploy(std::move(checker));
  net_->set_live_publisher(&publisher_);
  server_ = std::make_unique<hydra::obs::HttpServer>(publisher_, 0);

  ctl_ = std::make_unique<hydra::aether::AetherController>(*net_, upf_, dep);
  ctl_->define_slice(hydra::aether::example_camera_slice(1));
  const auto c2 = Clock::now();

  hydra::aether::SessionChurnGenerator::Config gc;
  gc.sessions = kSessions;
  gc.churn_per_s = kChurnPerS;
  gc.packets_per_s = kPacketsPerS;
  gc.slice_id = 1;
  gc.enb_host = fabric_.hosts[0][0];
  gc.enb_ip = net_->topo().node(fabric_.hosts[0][0]).ip;
  gc.n3_ip = 0x0a0001fe;
  gc.app_ip = net_->topo().node(fabric_.hosts[1][0]).ip;
  gc.seed = derive_seed(seed, 0);
  gen_ = std::make_unique<hydra::aether::SessionChurnGenerator>(*net_, *ctl_,
                                                                 gc);
  const long rss0 = vm_kib("VmRSS");
  gen_->prefill();
  const long rss1 = vm_kib("VmRSS");
  prefill_attaches_ = gen_->attach_latencies().size();
  if (cost != nullptr) {
    cost->total_s = seconds_between(t0, Clock::now());
    cost->compile_ms = 1e3 * seconds_between(c0, c1);
    cost->deploy_ms = 1e3 * seconds_between(c1, c2);
    cost->rss_before_prefill_kib = rss0;
    cost->rss_after_prefill_kib = rss1;
  }
}

void UpfScenario::run_round() {
  gen_->start(net_->events().now(), kRoundSimS);
  net_->events().run();
}

Digest UpfScenario::digest() const {
  Digest d = network_digest(*net_);
  d.attaches = gen_->attaches();
  d.detaches = gen_->detaches();
  d.application_entries = upf_->application_entries();
  d.session_misses = upf_->session_miss_drops();
  return d;
}

std::uint64_t UpfScenario::hops() const {
  // A session-miss drop ends its packet at the UPF, the first hop.
  const std::uint64_t misses = upf_->session_miss_drops();
  return (gen_->packets_sent() - misses) *
             static_cast<std::uint64_t>(kPathHops) +
         misses;
}

}  // namespace hydrabench
