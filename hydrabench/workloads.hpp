// The benchmark's workloads: each builds a network through the public
// hydra APIs and drives it in ROUNDS. A round schedules a fixed slice of
// simulated traffic (drawn from the workload seed and the round's place in
// the sequence) and drains the event queue, so everything a round does in
// the simulation domain repeats exactly for a given seed, and only the
// wall-clock time a round takes is noisy.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "aether/churn.hpp"
#include "aether/controller.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "forwarding/upf.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "net/traffic.hpp"
#include "obs/httpd.hpp"
#include "obs/metrics.hpp"

namespace hydrabench {

class Ledger;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// SplitMix64: turns the benchmark seed into independent generator seeds,
// so the simulator only ever sees derived values.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

// Resident-set figures of this process from /proc/self/status, in KiB
// (-1 when unavailable).
long vm_kib(const char* field);  // "VmRSS" or "VmHWM"

// Simulation-domain outcome. Deterministic for a seed and a round count.
struct Digest {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fwd_dropped = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t reports = 0;
  std::uint64_t violations = 0;
  std::uint64_t attaches = 0;
  std::uint64_t detaches = 0;
  std::uint64_t application_entries = 0;
  // UPF drops of uplinks whose PFCP session was deleted while they were in
  // flight: the UPF's correct answer to a churn race, not a policy drop.
  std::uint64_t session_misses = 0;
  bool operator==(const Digest&) const = default;
  std::string str() const;
};

// How to build a workload's network.
struct SetupOptions {
  hydra::net::EngineKind engine = hydra::net::EngineKind::kSerial;
  int workers = 1;
  // Non-null for the traced run: every switch's forwarding program is
  // wrapped in a timing decorator feeding this ledger, and the bench
  // installs its own table counters where observability is off.
  Ledger* ledger = nullptr;
};

// Wall-clock cost of one set-up, split where later work is expected to
// move it.
struct SetupCost {
  double total_s = 0.0;    // topology .. session prefill, up to round 0
  double compile_ms = 0.0; // compile + link of every checker
  double deploy_ms = 0.0;  // deploy + control-plane table configuration
  long rss_before_prefill_kib = -1;
  long rss_after_prefill_kib = -1;
};

class Scenario {
 public:
  virtual ~Scenario() = default;
  virtual hydra::net::Network& net() = 0;
  // Schedules the next round's traffic and drains the event queue.
  virtual void run_round() = 0;
  virtual Digest digest() const = 0;
  // Switch hops committed so far, counted from the traffic sent and each
  // flow's path length (valid while every packet is delivered or, on the
  // UPF, dropped as a session miss, which the correctness gate enforces;
  // the traced run cross-checks it against the hops its executor commits).
  virtual std::uint64_t hops() const = 0;
  // Registry holding the match-action table counters (hits, misses,
  // cache_hits) that the traced run reads; null unless traced.
  virtual hydra::obs::Registry* table_metrics() = 0;
  // Unmeasured rounds before the first measured one: until pools, caches
  // and any bounded history the workload keeps have reached steady state.
  virtual std::size_t warmup_rounds() const { return 1; }
};

// fabric_checkers / fabric_parallel: 16-switch leaf-spine, Poisson UDP
// between every ordered host pair, the five leaf-spine library checkers,
// observability off.
class FabricScenario final : public Scenario {
 public:
  static constexpr int kLeaves = 8;
  static constexpr int kSpines = 8;
  static constexpr int kHostsPerLeaf = 2;
  static constexpr int kHosts = kLeaves * kHostsPerLeaf;
  // The paper's 20 Gb/s aggregate (section 6.2, bench/throughput's iperf
  // pair), split evenly over the 240 ordered host pairs.
  static constexpr double kAggregateGbps = 20.0;
  static constexpr double kPairGbps =
      kAggregateGbps / (kHosts * (kHosts - 1));
  // bench/throughput's fabric_16sw packet size.
  static constexpr int kPacketBytes = 1000;
  static constexpr double kRoundSimS = 0.004;

  FabricScenario(std::uint64_t seed, const SetupOptions& opts,
                 SetupCost* cost);

  hydra::net::Network& net() override { return *net_; }
  void run_round() override;
  Digest digest() const override;
  std::uint64_t hops() const override;
  hydra::obs::Registry* table_metrics() override { return table_reg_.get(); }

 private:
  struct Flow {
    std::unique_ptr<hydra::net::UdpFlood> gen;
    int path_hops = 0;
  };
  hydra::net::LeafSpine fabric_;
  std::unique_ptr<hydra::net::Network> net_;
  std::shared_ptr<hydra::fwd::Ipv4EcmpProgram> routing_;
  std::vector<Flow> flows_;
  std::unique_ptr<hydra::obs::Registry> table_reg_;
};

// upf_churn: the hydrad shape. 2x2 leaf-spine, the Aether UPF on leaf1
// with application_filtering, a prefilled PFCP session population, Poisson
// attach/detach churn beside GTP-U uplinks, and the live observability
// plane served over HTTP.
class UpfScenario final : public Scenario {
 public:
  // bench/million_users --sweep's 100k-session point at its headline churn
  // and packet rates (1M sessions would need about 5 GB of RSS).
  static constexpr std::uint32_t kSessions = 100000;
  static constexpr double kChurnPerS = 2000.0;
  static constexpr double kPacketsPerS = 100000.0;
  // hydrad's default export interval and ring.
  static constexpr double kExportIntervalS = 0.01;
  static constexpr double kRoundSimS = 0.05;
  static constexpr int kPathHops = 3;  // UPF leaf -> spine -> app leaf
  // The export ring (128 windows) fills before measuring: each tick
  // renders the whole ring, so its cost grows until the ring is full.
  static constexpr std::size_t kExportRing = 128;

  UpfScenario(std::uint64_t seed, const SetupOptions& opts, SetupCost* cost);

  hydra::net::Network& net() override { return *net_; }
  void run_round() override;
  Digest digest() const override;
  std::uint64_t hops() const override;
  hydra::obs::Registry* table_metrics() override { return &net_->metrics(); }
  std::size_t warmup_rounds() const override {
    return static_cast<std::size_t>(kExportRing * kExportIntervalS /
                                    kRoundSimS) +
           2;
  }

  std::uint16_t http_port() const { return server_->port(); }
  // Wall seconds per PFCP attach, prefill first, then churn.
  const std::vector<double>& attach_latencies() const {
    return gen_->attach_latencies();
  }
  std::size_t prefill_attaches() const { return prefill_attaches_; }

 private:
  hydra::net::LeafSpine fabric_;
  std::unique_ptr<hydra::net::Network> net_;
  std::shared_ptr<hydra::fwd::UpfProgram> upf_;
  hydra::obs::SnapshotPublisher publisher_;
  std::unique_ptr<hydra::obs::HttpServer> server_;
  std::unique_ptr<hydra::aether::AetherController> ctl_;
  std::unique_ptr<hydra::aether::SessionChurnGenerator> gen_;
  std::size_t prefill_attaches_ = 0;
};

}  // namespace hydrabench
