// hydrabench — the repository benchmark.
//
//   $ hydrabench --workload fabric_checkers|upf_churn|fabric_parallel
//                [--seed N] [--seconds S] [--trace 0|1]
//
// Builds one workload through the public hydra APIs, measures it for about
// S wall seconds, checks its outputs, and prints every metric by name with
// its unit. The last line of standard output is one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (setup_s, hops_per_s,
// peak_rss_mb); with --trace 1 the run is split into an untraced phase and
// a traced phase over the same rounds, and the metrics are the per-layer
// hop-cost ledger (see README.md). The exit status is 0 only when every
// correctness check passed; 2 on a bad command line.
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "cli_parse.hpp"
#include "ledger.hpp"
#include "net/engine.hpp"
#include "obs/httpd.hpp"
#include "util/arena.hpp"
#include "workloads.hpp"

namespace hb = hydrabench;
namespace hn = hydra::net;

namespace {

// ---- fixed benchmark settings ---------------------------------------------

// The documented default seed; claims must also hold on kHeldOutSeed.
constexpr std::uint64_t kDefaultSeed = 1;
// Worker count of fabric_parallel: the largest N that measured steady on a
// 4-vCPU shared host. parallel:4 ran as fast but, with every vCPU busy, its
// epochs stalled at the barrier whenever the host preempted one of them
// (IQR/median of the median round rate over four seeds: 12% against 3.7%
// for parallel:2). The output flags a host with fewer threads.
constexpr int kParallelWorkers = 2;
// Measured rounds that every run completes, whatever its time budget;
// digests are compared across engines over this prefix.
constexpr std::size_t kMinRounds = 3;
// Independent set-ups per run; setup_s is their median. The fabrics build
// theirs spread evenly through the measured window, beside the measured
// network; upf_churn holds one session population at a time, so its extra
// set-ups follow the window.
constexpr int kFabricSetups = 31;
constexpr int kUpfSetups = 5;
// Closed-loop scraper: GET /metrics, wait for the reply, then sleep
// (bench/obs_export's scraper interval).
constexpr int kScrapeSleepMs = 10;
// Longest measuring window; hydrabench/run.py allows the binary this plus
// a fixed margin for set-up, warm-up and checks before it declares a hang.
constexpr long kMaxSeconds = 60;
// Traced runs flag a ledger that leaves more than this share of wall time
// outside every layer span.
constexpr double kUnattributedFlag = 0.10;

enum class Workload { kFabricCheckers, kUpfChurn, kFabricParallel };

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFabricCheckers: return "fabric_checkers";
    case Workload::kUpfChurn: return "upf_churn";
    case Workload::kFabricParallel: return "fabric_parallel";
  }
  return "?";
}

struct Options {
  Workload workload = Workload::kFabricCheckers;
  bool workload_set = false;
  std::uint64_t seed = kDefaultSeed;
  long seconds = 10;
  bool trace = false;
};

int usage(const char* prog) {
  std::fprintf(stderr,
               "usage: %s --workload fabric_checkers|upf_churn|"
               "fabric_parallel\n"
               "          [--seed N] [--seconds S (1..%ld)] [--trace 0|1]\n",
               prog, kMaxSeconds);
  return 2;
}

// Strict parse: every flag takes one value; anything else exits 2.
bool parse_args(int argc, char** argv, Options* o) {
  const char* prog = argv[0];
  for (int i = 1; i < argc; ++i) {
    const char* flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs a value\n", prog, flag);
      return false;
    }
    const char* v = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      if (std::strcmp(v, "fabric_checkers") == 0) {
        o->workload = Workload::kFabricCheckers;
      } else if (std::strcmp(v, "upf_churn") == 0) {
        o->workload = Workload::kUpfChurn;
      } else if (std::strcmp(v, "fabric_parallel") == 0) {
        o->workload = Workload::kFabricParallel;
      } else {
        std::fprintf(stderr, "%s: unknown workload '%s'\n", prog, v);
        return false;
      }
      o->workload_set = true;
    } else if (std::strcmp(flag, "--seed") == 0) {
      if (!hydra::tools::parse_u64_arg(prog, flag, v, &o->seed)) return false;
    } else if (std::strcmp(flag, "--seconds") == 0) {
      if (!hydra::tools::parse_long_arg(prog, flag, v, 1, kMaxSeconds,
                                        &o->seconds)) {
        return false;
      }
    } else if (std::strcmp(flag, "--trace") == 0) {
      long t = 0;
      if (!hydra::tools::parse_long_arg(prog, flag, v, 0, 1, &t)) return false;
      o->trace = t == 1;
    } else {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", prog, flag);
      return false;
    }
  }
  if (!o->workload_set) {
    std::fprintf(stderr, "%s: --workload is required\n", prog);
    return false;
  }
  return true;
}

// ---- statistics ------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile; `beyond` receives the samples above it.
double percentile(std::vector<double> v, double p, std::size_t* beyond) {
  if (v.empty()) {
    if (beyond != nullptr) *beyond = 0;
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  if (beyond != nullptr) *beyond = v.size() - rank;
  return v[rank - 1];
}

double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// ---- output ------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void print_environment(const Options& o, const char* engine, int workers) {
  const long nproc = ::sysconf(_SC_NPROCESSORS_ONLN);
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
  std::printf(
      "env: build_type=%s optimized=%s compiler=\"g++ %s\" nproc=%ld "
      "workload=%s seed=%" PRIu64 " seconds=%ld trace=%d engine=%s "
      "workers=%d\n",
      HYDRABENCH_BUILD_TYPE, optimized ? "yes" : "no", __VERSION__, nproc,
      workload_name(o.workload), o.seed, o.seconds, o.trace ? 1 : 0, engine,
      workers);
  if (!optimized) {
    std::printf("WARNING: this build is not optimised; its timings are not "
                "comparable with an optimised build\n");
  }
  if (workers > nproc) {
    std::printf("WARNING: %d workers on %ld hardware threads (N > nproc): "
                "parallel timings measure oversubscription\n",
                workers, nproc);
  }
}

// ---- the closed-loop scraper ---------------------------------------------------

class Scraper {
 public:
  explicit Scraper(std::uint16_t port) : port_(port) {
    thread_ = std::thread([this] { loop(); });
  }
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  void stop() {
    stop_.store(true, std::memory_order_relaxed);
    if (thread_.joinable()) thread_.join();
  }
  // Valid after stop().
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  void loop() {
    std::string body;
    while (!stop_.load(std::memory_order_relaxed)) {
      int status = 0;
      const auto t0 = hb::Clock::now();
      const bool ok = hydra::obs::http_get(port_, "/metrics", &body, &status);
      const auto t1 = hb::Clock::now();
      ++attempted_;
      if (ok && status == 200 && !body.empty()) {
        latencies_ms_.push_back(1e3 * hb::seconds_between(t0, t1));
      } else {
        ++failed_;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(kScrapeSleepMs));
    }
  }

  const std::uint16_t port_;
  std::atomic<bool> stop_{false};
  std::vector<double> latencies_ms_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::thread thread_;  // last: joined before the members above go away
};

// ---- rounds --------------------------------------------------------------------

struct RoundLog {
  std::vector<double> wall_s;        // per measured round
  std::vector<std::uint64_t> hops;   // per measured round
  // Cumulative digest after the warm-up rounds ([0]) and after each
  // measured round.
  std::vector<hb::Digest> digests;
  std::uint64_t slabs_grown = 0;     // arena slab allocations in rounds
  std::uint64_t hops_total() const {
    std::uint64_t h = 0;
    for (const std::uint64_t x : hops) h += x;
    return h;
  }
  // Packets injected in, and not delivered during, the measured rounds.
  std::uint64_t injected() const {
    return digests.back().injected - digests.front().injected;
  }
  std::uint64_t undelivered() const {
    return injected() -
           (digests.back().delivered - digests.front().delivered);
  }
  double wall_total_s() const {
    double s = 0.0;
    for (const double w : wall_s) s += w;
    return s;
  }
  std::vector<double> hops_per_s() const {
    std::vector<double> r;
    for (std::size_t i = 0; i < wall_s.size(); ++i) {
      r.push_back(ratio(static_cast<double>(hops[i]), wall_s[i]));
    }
    return r;
  }
};

// Runs the warm-up rounds (pools, caches and history fill; not measured),
// calls `after_warmup`, then measured rounds: exactly `rounds` of them when
// non-zero, else until `budget_s` has passed (and at least kMinRounds).
// `between_rounds` runs after each measured round, outside its timing.
RoundLog drive(hb::Scenario& s, double budget_s, std::size_t rounds,
               const std::function<void()>& after_warmup = {},
               const std::function<void(double)>& between_rounds = {}) {
  RoundLog log;
  for (std::size_t i = 0; i < s.warmup_rounds(); ++i) s.run_round();
  log.digests.push_back(s.digest());
  if (after_warmup) after_warmup();
  const auto start = hb::Clock::now();
  std::uint64_t h0 = s.hops();
  for (;;) {
    const std::size_t done = log.wall_s.size();
    if (rounds > 0 ? done >= rounds
                   : done >= kMinRounds &&
                         hb::seconds_between(start, hb::Clock::now()) >=
                             budget_s) {
      break;
    }
    const std::uint64_t slabs0 = hydra::util::arena_allocations();
    const auto t0 = hb::Clock::now();
    s.run_round();
    const auto t1 = hb::Clock::now();
    log.slabs_grown += hydra::util::arena_allocations() - slabs0;
    const std::uint64_t h = s.hops();
    log.wall_s.push_back(hb::seconds_between(t0, t1));
    log.hops.push_back(h - h0);
    log.digests.push_back(s.digest());
    h0 = h;
    if (between_rounds) between_rounds(hb::seconds_between(start, t1));
  }
  return log;
}

// ---- per-workload set-up -------------------------------------------------------

struct Engine {
  hn::EngineKind kind = hn::EngineKind::kSerial;
  int workers = 1;
};

Engine engine_of(Workload w) {
  if (w == Workload::kFabricParallel) {
    return {hn::EngineKind::kParallel, kParallelWorkers};
  }
  return {};
}

std::unique_ptr<hb::Scenario> build(Workload w, std::uint64_t seed,
                                    const Engine& e, hb::Ledger* ledger,
                                    hb::SetupCost* cost) {
  hb::SetupOptions opts;
  opts.engine = e.kind;
  opts.workers = e.workers;
  opts.ledger = ledger;
  if (w == Workload::kUpfChurn) {
    return std::make_unique<hb::UpfScenario>(seed, opts, cost);
  }
  return std::make_unique<hb::FabricScenario>(seed, opts, cost);
}

// ---- correctness gate ----------------------------------------------------------

struct Gate {
  bool ok = true;
  void check(bool cond, const std::string& what) {
    if (!cond) {
      ok = false;
      std::printf("CHECK FAILED: %s\n", what.c_str());
    }
  }
};

void gate_outputs(Workload w, const RoundLog& log, Gate& g) {
  const hb::Digest& d = log.digests.back();
  if (w == Workload::kUpfChurn) {
    // Churn deletes sessions that may still have an uplink in flight; the
    // UPF drops those as session misses, which is its correct behaviour.
    // Every other forwarding drop is a policy (termination) drop.
    g.check(d.fwd_dropped == d.session_misses,
            "upf_churn: forwarding drops other than session misses (" +
                std::to_string(d.fwd_dropped - d.session_misses) + ")");
    // A race needs an uplink in flight at its session's detach, so misses
    // stay a tiny share of detaches; more means sessions go missing for
    // another reason.
    g.check(d.session_misses * 1000 <= d.detaches + 1000,
            "upf_churn: " + std::to_string(d.session_misses) +
                " session misses for " + std::to_string(d.detaches) +
                " detaches (at most one per thousand, plus one)");
    g.check(d.application_entries == 2,
            "upf_churn: application_entries == " +
                std::to_string(d.application_entries) + ", expected 2");
    g.check(log.slabs_grown == 0,
            "upf_churn: arena slabs grew during the measured window (" +
                std::to_string(log.slabs_grown) + ")");
  } else {
    g.check(d.rejected == 0, std::string(workload_name(w)) +
                                 ": checker rejects (" +
                                 std::to_string(d.rejected) + ")");
  }
  g.check(d.delivered + d.session_misses == d.injected,
          std::string(workload_name(w)) + ": delivered " +
              std::to_string(d.delivered) + " of " +
              std::to_string(d.injected) + " injected (" +
              std::to_string(d.session_misses) + " session misses)");
}

// Digest equality over the rounds both logs completed.
void gate_same_digests(const RoundLog& a, const RoundLog& b,
                       const char* what, Gate& g) {
  const std::size_t n = std::min(a.digests.size(), b.digests.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (!(a.digests[i] == b.digests[i])) {
      g.check(false, std::string(what) + ": digests differ after round " +
                         std::to_string(i) + ":\n  " + a.digests[i].str() +
                         "\n  " + b.digests[i].str());
      return;
    }
  }
  std::printf("%s: digests equal over %zu rounds\n", what, n);
}

void print_digest(const RoundLog& log) {
  const std::size_t ref = std::min(kMinRounds, log.digests.size() - 1);
  std::printf("digest@round%zu: %s\n", ref, log.digests[ref].str().c_str());
  std::printf("digest@end (%zu measured rounds): %s\n", log.wall_s.size(),
              log.digests.back().str().c_str());
}

// ---- table counters ------------------------------------------------------------

struct TableCounts {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t cache_hits = 0;
};

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

TableCounts table_counts(const hydra::obs::Registry* reg) {
  TableCounts c;
  if (reg == nullptr) return c;
  reg->visit([&c](const hydra::obs::Registry::MetricView& m) {
    if (m.kind != hydra::obs::MetricKind::kCounter) return;
    if (ends_with(m.name, ".cache_hits")) {
      c.cache_hits += m.counter_value;
    } else if (ends_with(m.name, ".hits")) {
      c.hits += m.counter_value;
    } else if (ends_with(m.name, ".misses")) {
      c.misses += m.counter_value;
    }
  });
  return c;
}

// ---- untraced run: end-to-end metrics ------------------------------------------

int run_untraced(const Options& o) {
  const Engine eng = engine_of(o.workload);
  const double budget = static_cast<double>(o.seconds);
  const bool upf_workload = o.workload == Workload::kUpfChurn;
  const int setups = upf_workload ? kUpfSetups : kFabricSetups;
  std::vector<double> setup_s;
  auto timed_setup = [&](hb::SetupCost* cost) {
    auto sc = build(o.workload, o.seed, eng, nullptr, cost);
    setup_s.push_back(cost->total_s);
    return sc;
  };
  hb::SetupCost first;  // the measured network, set up in a fresh process
  std::unique_ptr<hb::Scenario> s = timed_setup(&first);

  std::unique_ptr<Scraper> scraper;
  std::size_t attach_mark = 0;
  auto* upf = dynamic_cast<hb::UpfScenario*>(s.get());
  const auto after_warmup = [&] {
    if (upf == nullptr) return;
    attach_mark = upf->attach_latencies().size();
    scraper = std::make_unique<Scraper>(upf->http_port());
  };
  const auto between_rounds = [&](double elapsed_s) {
    const double next = budget * static_cast<double>(setup_s.size()) /
                        static_cast<double>(setups);
    if (upf_workload || static_cast<int>(setup_s.size()) >= setups ||
        elapsed_s < next) {
      return;
    }
    hb::SetupCost cost;
    timed_setup(&cost);
  };
  const RoundLog log = drive(*s, budget, 0, after_warmup, between_rounds);
  if (scraper) scraper->stop();

  Gate gate;
  print_digest(log);
  gate_outputs(o.workload, log, gate);

  std::uint64_t attempted = log.injected();
  std::uint64_t failed = log.undelivered();

  const double hops_per_s = median(log.hops_per_s());
  std::printf("rounds: %zu measured in %.3f s wall, %" PRIu64
              " hops (%.1f hops/s over the window, median per round %.1f)\n",
              log.wall_s.size(), log.wall_total_s(), log.hops_total(),
              ratio(static_cast<double>(log.hops_total()), log.wall_total_s()),
              hops_per_s);
  if (upf != nullptr) {
    const auto& lat = upf->attach_latencies();
    std::vector<double> churn_us;
    for (std::size_t i = attach_mark; i < lat.size(); ++i) {
      churn_us.push_back(lat[i] * 1e6);
    }
    std::size_t beyond_a = 0;
    const double a50 = percentile(churn_us, 0.50, nullptr);
    const double a99 = percentile(churn_us, 0.99, &beyond_a);
    std::size_t beyond_s = 0;
    const auto& scr = scraper->latencies_ms();
    const double s50 = percentile(scr, 0.50, nullptr);
    const double s99 = percentile(scr, 0.99, &beyond_s);
    const double rss_per_session =
        ratio(1024.0 * static_cast<double>(first.rss_after_prefill_kib -
                                           first.rss_before_prefill_kib),
              static_cast<double>(hb::UpfScenario::kSessions));
    attempted += scraper->attempted();
    failed += scraper->failed();
    std::printf("rss_per_session_b: %.1f B (first set-up, %u sessions)\n",
                rss_per_session, hb::UpfScenario::kSessions);
    std::printf("attach_p50_us: %.3f  attach_p99_us: %.3f  (n=%zu, %zu "
                "beyond p99)\n",
                a50, a99, churn_us.size(), beyond_a);
    std::printf("scrape_p50_ms: %.4f  scrape_p99_ms: %.4f  (n=%zu, %zu "
                "beyond p99, %" PRIu64 " failed)\n",
                s50, s99, scr.size(), beyond_s, scraper->failed());
    if (beyond_a < 10 || beyond_s < 10) {
      std::printf("WARNING: a p99 above has fewer than 10 samples beyond "
                  "it; run longer\n");
    }
  }

  if (o.workload == Workload::kFabricParallel) {
    // The serial engine over the same inputs must reach the same digests.
    auto ref = build(o.workload, o.seed, Engine{}, nullptr, nullptr);
    const RoundLog ref_log = drive(*ref, 0.0, kMinRounds);
    RoundLog prefix = log;
    prefix.digests.resize(std::min(log.digests.size(), kMinRounds + 1));
    gate_same_digests(ref_log, prefix, "fabric_parallel vs serial engine",
                      gate);
  }
  std::printf("failed_frac: %.6g (%" PRIu64 " of %" PRIu64 ")\n",
              ratio(static_cast<double>(failed), static_cast<double>(attempted)),
              failed, attempted);

  // Remaining set-ups (all of upf_churn's extra ones) once the measured
  // network is gone.
  s.reset();
  while (static_cast<int>(setup_s.size()) < setups) {
    hb::SetupCost cost;
    timed_setup(&cost);
  }
  std::printf("setup_s: median of %zu set-ups (measured network's %.4f s)\n",
              setup_s.size(), setup_s.front());

  const double peak_mb = static_cast<double>(hb::vm_kib("VmHWM")) / 1024.0;
  print_result(gate.ok, attempted, failed,
               {{"setup_s", median(setup_s), "s"},
                {"hops_per_s", hops_per_s, "1/s"},
                {"peak_rss_mb", peak_mb, "MB"}});
  return gate.ok ? 0 : 1;
}

// ---- traced run: the per-layer ledger -------------------------------------------

struct EngineFracs {
  double barrier_frac = 0.0;
  double commit_frac = 0.0;
  double items_per_epoch = 0.0;
  double parallel_epoch_frac = 0.0;
  double epochs = 0.0;
};

EngineFracs engine_fracs(hydra::obs::Registry& reg, double wall_s) {
  double barrier_us = 0.0, commit_us = 0.0, items = 0.0, epochs = 0.0,
         degraded = 0.0;
  reg.visit([&](const hydra::obs::Registry::MetricView& m) {
    if (m.hist != nullptr) {
      if (m.name == "engine.phase.barrier_us") barrier_us = m.hist->sum;
      if (m.name == "engine.phase.commit_us") commit_us = m.hist->sum;
      if (m.name == "engine.epoch.items") items = m.hist->sum;
    } else if (m.kind == hydra::obs::MetricKind::kCounter) {
      if (m.name == "engine.epochs") {
        epochs = static_cast<double>(m.counter_value);
      }
      if (m.name == "engine.epochs_serial_degraded") {
        degraded = static_cast<double>(m.counter_value);
      }
    }
  });
  EngineFracs f;
  f.barrier_frac = ratio(barrier_us * 1e-6, wall_s);
  f.commit_frac = ratio(commit_us * 1e-6, wall_s);
  f.items_per_epoch = ratio(items, epochs);
  f.parallel_epoch_frac = ratio(epochs - degraded, epochs);
  f.epochs = epochs;
  return f;
}

int run_traced(const Options& o) {
  const Engine eng = engine_of(o.workload);
  const bool parallel = o.workload == Workload::kFabricParallel;
  const double budget = static_cast<double>(o.seconds) / (parallel ? 3 : 2);
  Gate gate;

  // Phase A: untraced, exactly as the end-to-end run measures it.
  RoundLog log_a;
  {
    auto s = build(o.workload, o.seed, eng, nullptr, nullptr);
    std::unique_ptr<Scraper> scraper;
    auto* upf = dynamic_cast<hb::UpfScenario*>(s.get());
    log_a = drive(*s, budget, 0, [&] {
      if (upf != nullptr) scraper = std::make_unique<Scraper>(upf->http_port());
    });
  }
  const std::size_t rounds = log_a.wall_s.size();
  print_digest(log_a);
  gate_outputs(o.workload, log_a, gate);

  // Phase B: the same rounds under the bench-owned executor and the
  // forwarding decorators (always the serial mirror).
  hb::Ledger ledger;
  hb::SetupCost cost_b;
  auto s = build(o.workload, o.seed, Engine{}, &ledger, &cost_b);
  hb::LedgerExecutor exec(s->net(), ledger);
  s->net().events().set_executor(&exec);
  TableCounts tc0;
  std::unique_ptr<Scraper> scraper;
  auto* upf = dynamic_cast<hb::UpfScenario*>(s.get());
  const RoundLog log_b = drive(*s, 0.0, rounds, [&] {
    ledger.reset_spans();
    tc0 = table_counts(s->table_metrics());
    if (upf != nullptr) scraper = std::make_unique<Scraper>(upf->http_port());
  });
  if (scraper) scraper->stop();
  const TableCounts tc1 = table_counts(s->table_metrics());
  gate_same_digests(log_a, log_b, "traced vs untraced", gate);
  gate.check(ledger.hops == log_b.hops_total(),
             "ledger committed " + std::to_string(ledger.hops) +
                 " hops; the traffic accounts for " +
                 std::to_string(log_b.hops_total()));
  const double wall_a = log_a.wall_total_s();
  const double wall_b = log_b.wall_total_s();

  const hb::ReplayResult rp = hb::replay(s->net(), ledger.captures);
  double prefill_attach_us = 0.0;
  if (upf != nullptr) {
    const auto& lat = upf->attach_latencies();
    prefill_attach_us =
        1e6 * median(std::vector<double>(
                  lat.begin(), lat.begin() + static_cast<std::ptrdiff_t>(
                                                 upf->prefill_attaches())));
  }
  std::uint64_t attempted = log_b.injected();
  std::uint64_t failed = log_b.undelivered();
  if (scraper) {
    attempted += scraper->attempted();
    failed += scraper->failed();
  }

  // Phase C (fabric_parallel): the parallel engine with its own phase
  // profiler, over the same rounds.
  EngineFracs ef;
  double wall_c = 0.0;
  if (parallel) {
    auto sc = build(o.workload, o.seed, eng, nullptr, nullptr);
    sc->net().set_engine_profiling(true);
    const RoundLog log_c =
        drive(*sc, 0.0, rounds, [&] { sc->net().reset_observability(); });
    gate_same_digests(log_a, log_c, "profiled vs unprofiled parallel", gate);
    wall_c = log_c.wall_total_s();
    ef = engine_fracs(sc->net().metrics(), wall_c);
  }

  const double H = static_cast<double>(ledger.hops);
  const double lookups = static_cast<double>((tc1.hits - tc0.hits) +
                                             (tc1.misses - tc0.misses));
  const double unattributed =
      1.0 - ratio(static_cast<double>(ledger.covered_ns()) * 1e-9, wall_b);
  const double overhead =
      parallel ? ratio(wall_c, wall_a) - 1.0 : ratio(wall_b, wall_a) - 1.0;
  const double export_tick_ns =
      ratio(static_cast<double>(ledger.export_ns),
            static_cast<double>(ledger.exports));

  std::vector<Metric> m = {
      {"p4rt.interp.init_ns", rp.init_ns, "ns"},
      {"p4rt.interp.tele_ns", rp.tele_ns, "ns"},
      {"p4rt.interp.check_ns", rp.check_ns, "ns"},
      {"p4rt.interp.instr_per_hop", rp.instr_per_hop, "count"},
      {"net.header.read_ns", rp.header_read_ns, "ns"},
      {"net.header.reads_per_hop", rp.header_reads_per_hop, "count"},
      {"p4rt.tele_codec.frame_ns", rp.frame_ns, "ns"},
      {"net.checker.self_ns_per_hop",
       ratio(static_cast<double>(ledger.compute_ns - ledger.forwarding_ns -
                                 ledger.capture_ns),
             H),
       "ns"},
      {"p4rt.table.lookup_ns", rp.lookup_ns, "ns"},
      {"p4rt.table.lookups_per_hop", ratio(lookups, H), "count"},
      {"p4rt.table.cache_hit_frac",
       ratio(static_cast<double>(tc1.cache_hits - tc0.cache_hits), lookups),
       "frac"},
      {"aether.controller.prefill_attach_us", prefill_attach_us, "us"},
      {"obs.export_tick_ns", export_tick_ns, "ns"},
      {"obs.export_share",
       ratio(static_cast<double>(ledger.export_ns) * 1e-9, wall_b), "frac"},
      {"engine.barrier_frac", ef.barrier_frac, "frac"},
      {"engine.commit_frac", ef.commit_frac, "frac"},
      {"engine.items_per_epoch", ef.items_per_epoch, "count"},
      {"engine.parallel_epoch_frac", ef.parallel_epoch_frac, "frac"},
      {"net.event.pop_ns",
       ratio(static_cast<double>(ledger.pop_ns),
             static_cast<double>(ledger.events)),
       "ns"},
      {"net.event.events_per_hop", ratio(static_cast<double>(ledger.events), H),
       "count"},
      {"net.event.pending_max", static_cast<double>(ledger.pending_max),
       "count"},
      {"net.commit.ns_per_hop", ratio(static_cast<double>(ledger.commit_ns), H),
       "ns"},
      {"net.link.ns_per_delivery",
       ratio(static_cast<double>(ledger.deliver_ns),
             static_cast<double>(ledger.deliveries)),
       "ns"},
      {"forwarding.ns_per_hop",
       ratio(static_cast<double>(ledger.forwarding_ns), H), "ns"},
      {"traffic.tick_ns",
       ratio(static_cast<double>(ledger.tick_ns),
             static_cast<double>(ledger.ticks)),
       "ns"},
      {"compiler.compile_ms", cost_b.compile_ms, "ms"},
      {"net.deploy_ms", cost_b.deploy_ms, "ms"},
      {"p4rt.tele_codec.wire_rt_ns", rp.wire_rt_ns, "ns"},
      {"trace.unattributed_frac", unattributed, "frac"},
      {"trace.overhead_frac", overhead, "frac"},
  };

  std::printf("\nhop-cost ledger (%s, %zu rounds, %" PRIu64
              " hops; wall: untraced %.3f s, traced %.3f s",
              workload_name(o.workload), rounds, ledger.hops, wall_a, wall_b);
  if (parallel) std::printf(", profiled parallel %.3f s", wall_c);
  std::printf(")\n");
  for (const auto& x : m) {
    std::printf("  %-32s %16.4f %s\n", x.name.c_str(), x.value,
                x.unit.c_str());
  }
  if (upf != nullptr) {
    std::printf("samples: %" PRIu64 " export ticks, %zu prefill attaches\n",
                ledger.exports, upf->prefill_attaches());
  }
  std::printf("replay: %zu hops, %zu frames, %zu lookup keys over %zu "
              "populated checker tables; checker lookups/hop %.3f\n",
              rp.hops, rp.frames, rp.lookup_keys, rp.lookup_tables,
              rp.checker_lookups_per_hop);
  if (parallel) {
    std::printf("engine.*: parallel:%d with the phase profiler on, %.0f "
                "epochs. Profiling turns observability on, which disables "
                "flow sharding, so these are switch-group epochs. "
                "trace.overhead_frac compares this profiled run with the "
                "untraced one; the ledger rows above come from the serial "
                "mirror executor.\n",
                eng.workers, ef.epochs);
  }
  if (unattributed > kUnattributedFlag) {
    std::printf("FLAG: trace.unattributed_frac %.3f > %.2f: the ledger "
                "misses part of the wall time\n",
                unattributed, kUnattributedFlag);
  }
  print_result(gate.ok, attempted, failed, m);
  return gate.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  if (!parse_args(argc, argv, &o)) return usage(argv[0]);
  const Engine eng = engine_of(o.workload);
  print_environment(o, hn::engine_kind_name(eng.kind), eng.workers);
  try {
    return o.trace ? run_traced(o) : run_untraced(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hydrabench: %s\n", e.what());
    return 1;
  }
}
