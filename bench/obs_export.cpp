// Measures the cost of the streaming-export path on the 16-switch fabric
// workload (the same shape as throughput's fabric section): obs off,
// obs on, obs on with the export scheduler armed, and export plus the
// live scrape plane (publisher + HTTP server + a client thread scraping
// /metrics). The export config must stay within a few percent of plain
// observability — the scheduler only fires at virtual-time boundaries
// and the engines hold a single branch per event when it is disarmed.
// The scrape config pays per-tick publication of the raw tick (value
// copies of the registry and top-K sketches, the window ring by pointer)
// on the commit path, plus the HTTP traffic and the /metrics render the
// first scrape of each tick triggers on the HTTP thread; the bench
// scrapes every 10 ms of wall time against sub-millisecond tick cadence,
// a deliberate upper bound far above the 1 Hz production scrape rate.
//
//   $ ./obs_export [--json BENCH_obs_export.json] [--reps N]
//                  [--engine=serial|parallel[:N]] [--workers=N]
//
// The configs run interleaved `--reps` times (default 5); each reports
// min / median / max of its wall-clock and hop rate over the reps, and
// each overhead is computed from medians, with the spread of the per-rep
// (same-round) overheads beside it: an overhead whose spread crosses zero
// is marked "within noise". Packet counts and captured-window counts are
// deterministic and identical across reps and engines. The JSON records
// the build type, git revision and hardware threads it ran with.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <atomic>

#include "cli_parse.hpp"
#include "forwarding/ipv4_ecmp.hpp"
#include "hydra/hydra.hpp"
#include "net/engine.hpp"
#include "net/network.hpp"
#include "net/traffic.hpp"
#include "obs/httpd.hpp"

using namespace hydra;

namespace {

net::EngineKind g_kind = net::EngineKind::kSerial;
int g_workers = 0;

bool degraded_hw(int eff_workers) {
  const unsigned hw = std::thread::hardware_concurrency();
  return g_kind == net::EngineKind::kParallel && hw != 0 &&
         hw < static_cast<unsigned>(eff_workers < 1 ? 1 : eff_workers);
}

struct RunResult {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  double wall_s = 0;
  double hops_per_wall_s = 0;
  std::uint64_t windows = 0;
  std::uint64_t scrapes = 0;
};

// One 16-switch fabric run under all-pairs-style Poisson load; `obs`
// enables the observability layer, `interval_s > 0` additionally arms the
// export scheduler (which itself implies observability), and `scrape`
// additionally arms the live plane + HTTP server with a client thread
// hammering /metrics every 10 ms of wall time. Production scrape cadence
// (1 Hz) is 100x slower, so this bounds the scrape overhead from above.
RunResult run_once(bool obs, double interval_s, double duration,
                   bool scrape = false) {
  auto fabric = net::make_leaf_spine(8, 8, 2);  // 16 switches, 16 hosts
  net::Network net(fabric.topo);
  net.set_engine(g_kind, g_workers);
  fwd::install_leaf_spine_routing(net, fabric);
  const int vf = net.deploy(compile_library_checker("valley_free"));
  configure_valley_free(net, vf, fabric);
  net.deploy(compile_library_checker("loops"));
  if (interval_s > 0) {
    net.set_export_interval(interval_s);
  } else if (obs) {
    net.set_observability(true);
  }
  obs::SnapshotPublisher publisher;
  std::unique_ptr<obs::HttpServer> server;
  std::atomic<bool> scraper_stop{false};
  std::thread scraper;
  std::uint64_t scrapes = 0;
  if (scrape) {
    net.arm_live_obs({});
    net.set_live_publisher(&publisher);
    server = std::make_unique<obs::HttpServer>(publisher, 0);
    scraper = std::thread([&scraper_stop, &scrapes, port = server->port()] {
      while (!scraper_stop.load(std::memory_order_relaxed)) {
        std::string body;
        if (obs::http_get(port, "/metrics", &body)) ++scrapes;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
  }

  std::vector<std::unique_ptr<net::UdpFlood>> flows;
  const int leaves = static_cast<int>(fabric.leaves.size());
  for (int i = 0; i < leaves; ++i) {
    for (int h = 0; h < fabric.hosts_per_leaf; ++h) {
      const int src = fabric.hosts[static_cast<std::size_t>(i)]
                                  [static_cast<std::size_t>(h)];
      const int dst =
          fabric.hosts[static_cast<std::size_t>((i + 1 + h) % leaves)]
                      [static_cast<std::size_t>(h)];
      flows.push_back(std::make_unique<net::UdpFlood>(
          net, src, dst, 2.0, 1000,
          static_cast<std::uint16_t>(6000 + i * 8 + h)));
      flows.back()->set_poisson(static_cast<std::uint64_t>(100 + i * 8 + h));
      flows.back()->start(0.0, duration);
    }
  }
  const auto t0 = std::chrono::steady_clock::now();
  net.events().run();
  const auto t1 = std::chrono::steady_clock::now();
  if (scrape) {
    scraper_stop.store(true, std::memory_order_relaxed);
    scraper.join();
    server->stop();
  }

  RunResult r;
  r.scrapes = scrapes;
  for (const auto& f : flows) r.sent += f->packets_sent();
  r.delivered = net.counters().delivered;
  r.wall_s = std::chrono::duration<double>(t1 - t0).count();
  r.hops_per_wall_s =
      r.wall_s > 0 ? 3.0 * static_cast<double>(r.delivered) / r.wall_s : 0;
  if (net.export_armed()) r.windows = net.export_scheduler_ptr()->captured();
  return r;
}

// Runs every config once per repetition, interleaved. Interleaving
// matters on shared machines: running one config's reps back to back lets
// a single contention burst inflate that config's every sample, which
// reads as phantom overhead.
struct Config {
  bool obs = false;
  double interval_s = 0;
  bool scrape = false;
};

// One config's deterministic counts plus its per-rep timings.
struct Series {
  RunResult first;
  std::vector<double> wall_s;
  std::vector<double> hops_per_wall_s;
  std::uint64_t max_scrapes = 0;
};

std::vector<Series> run_configs(const std::vector<Config>& configs,
                                double duration, int reps) {
  std::vector<Series> out(configs.size());
  for (int i = 0; i < reps; ++i) {
    for (std::size_t j = 0; j < configs.size(); ++j) {
      const RunResult r = run_once(configs[j].obs, configs[j].interval_s,
                                   duration, configs[j].scrape);
      if (i == 0) out[j].first = r;
      out[j].wall_s.push_back(r.wall_s);
      out[j].hops_per_wall_s.push_back(r.hops_per_wall_s);
      out[j].max_scrapes = std::max(out[j].max_scrapes, r.scrapes);
    }
  }
  return out;
}

struct Spread {
  double min = 0;
  double median = 0;
  double max = 0;
};

Spread spread(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  const double median =
      n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  return {v.front(), median, v.back()};
}

// `over` relative to `base` in percent: the value from the two medians,
// and the min/max of the same-round pair overheads.
struct Overhead {
  double pct = 0;
  Spread pairs;
  bool within_noise() const { return pairs.min <= 0 && pairs.max >= 0; }
};

Overhead overhead(const Series& base, const Series& over) {
  Overhead o;
  const double b = spread(base.wall_s).median;
  o.pct = b > 0 ? 100.0 * (spread(over.wall_s).median - b) / b : 0;
  std::vector<double> pairs;
  for (std::size_t i = 0; i < base.wall_s.size(); ++i) {
    pairs.push_back(base.wall_s[i] > 0 ? 100.0 *
                                             (over.wall_s[i] - base.wall_s[i]) /
                                             base.wall_s[i]
                                       : 0);
  }
  o.pairs = spread(pairs);
  return o;
}

std::string git_revision() {
  std::string out;
  std::FILE* p =
      ::popen("git describe --always --dirty --abbrev=12 2>/dev/null", "r");
  if (p == nullptr) return "unknown";
  std::array<char, 128> buf{};
  while (std::fgets(buf.data(), static_cast<int>(buf.size()), p) != nullptr) {
    out += buf.data();
  }
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) {
    out.pop_back();
  }
  return out.empty() ? "unknown" : out;
}

void write_spread(std::FILE* f, const char* key, const Spread& s, int digits,
                  const char* trailer) {
  std::fprintf(f,
               "\"%s\": {\"min\": %.*f, \"median\": %.*f, "
               "\"max\": %.*f}%s",
               key, digits, s.min, digits, s.median, digits, s.max, trailer);
}

void write_run(std::FILE* f, const char* name, const Series& r,
               const char* trailer) {
  std::fprintf(f,
               "  \"%s\": {\"sent\": %llu, \"delivered\": %llu, "
               "\"windows\": %llu, ",
               name, static_cast<unsigned long long>(r.first.sent),
               static_cast<unsigned long long>(r.first.delivered),
               static_cast<unsigned long long>(r.first.windows));
  write_spread(f, "wall_s", spread(r.wall_s), 4, ", ");
  write_spread(f, "hops_per_wall_s", spread(r.hops_per_wall_s), 1, "");
  std::fprintf(f, "}%s\n", trailer);
}

void write_overhead(std::FILE* f, const char* name, const Overhead& o,
                    const char* trailer) {
  std::fprintf(f,
               "    \"%s\": {\"pct\": %.2f, \"pair_min\": %.2f, "
               "\"pair_max\": %.2f, \"verdict\": \"%s\"}%s\n",
               name, o.pct, o.pairs.min, o.pairs.max,
               o.within_noise() ? "within noise" : "outside noise", trailer);
}

void print_overhead(const char* name, const Overhead& o) {
  std::printf("  %-17s %+7.2f%%  (pairs %+.2f%% .. %+.2f%%: %s)\n", name,
              o.pct, o.pairs.min, o.pairs.max,
              o.within_noise() ? "within noise" : "outside noise");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path = "BENCH_obs_export.json";
  int reps = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      long r = 0;
      if (!tools::parse_long_arg(argv[0], "--reps", argv[++i], 1, 1000000,
                                 &r)) {
        return 2;
      }
      reps = static_cast<int>(r);
    } else if (std::strncmp(argv[i], "--engine=", 9) == 0) {
      if (!tools::parse_engine_arg(argv[0], argv[i] + 9, &g_kind,
                                   &g_workers)) {
        return 2;
      }
    } else if (std::strncmp(argv[i], "--workers=", 10) == 0) {
      long w = 0;
      if (!tools::parse_long_arg(argv[0], "--workers", argv[i] + 10, 1, 1024,
                                 &w)) {
        return 2;
      }
      g_workers = static_cast<int>(w);
    } else {
      return tools::bad_flag(argv[0], argv[i],
                             "[--json PATH] [--reps N] "
                             "[--engine=serial|parallel[:N]] [--workers=N]");
    }
  }
  const int eff_workers = g_kind == net::EngineKind::kSerial ? 1 : g_workers;

  const double duration = 0.02;
  const double interval = 2e-4;  // 100 windows over the run
  std::printf("Streaming-export overhead, 16-switch fabric "
              "[engine=%s workers=%d reps=%d]\n\n",
              net::engine_kind_name(g_kind), eff_workers, reps);

  const std::vector<Series> runs = run_configs(
      {{false, 0, false},
       {true, 0, false},
       {true, interval, false},
       {true, interval, true}},
      duration, reps);
  const Series& off = runs[0];
  const Series& on = runs[1];
  const Series& exp = runs[2];
  const Series& scr = runs[3];
  const Overhead obs_vs_off = overhead(off, on);
  const Overhead export_vs_obs = overhead(on, exp);
  const Overhead scrape_vs_export = overhead(exp, scr);

  std::printf("  %-12s %8s %8s %8s %14s %9s\n", "config", "min_s",
              "median_s", "max_s", "hops/wall-s", "windows");
  const std::pair<const char*, const Series*> rows[] = {
      {"obs-off", &off}, {"obs-on", &on}, {"export", &exp}, {"scrape", &scr}};
  for (const auto& [name, r] : rows) {
    const Spread w = spread(r->wall_s);
    std::printf("  %-12s %8.3f %8.3f %8.3f %14.0f %9llu\n", name, w.min,
                w.median, w.max, spread(r->hops_per_wall_s).median,
                static_cast<unsigned long long>(r->first.windows));
  }
  std::printf("  (%llu scrapes in the busiest scrape rep)\n\n",
              static_cast<unsigned long long>(scr.max_scrapes));
  print_overhead("obs vs off:", obs_vs_off);
  print_overhead("export vs obs:", export_vs_obs);
  print_overhead("scrape vs export:", scrape_vs_export);

  // Read before the output file is opened: truncating a tracked
  // BENCH_obs_export.json would mark the tree dirty.
  const std::string revision = git_revision();
  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"obs_export\",\n"
               "  \"build_type\": \"%s\",\n  \"git_sha\": \"%s\",\n"
               "  \"engine\": \"%s\",\n  \"workers\": %d,\n"
               "  \"hw_threads\": %u,\n  \"degraded_hw\": %s,\n"
               "  \"duration_s\": %g,\n  \"interval_s\": %g,\n"
               "  \"reps\": %d,\n",
               HYDRA_BUILD_TYPE, revision.c_str(),
               net::engine_kind_name(g_kind), eff_workers,
               std::thread::hardware_concurrency(),
               degraded_hw(eff_workers) ? "true" : "false", duration, interval,
               reps);
  write_run(f, "obs_off", off, ",");
  write_run(f, "obs_on", on, ",");
  write_run(f, "obs_export", exp, ",");
  write_run(f, "obs_scrape", scr, ",");
  std::fprintf(f, "  \"scrapes\": %llu,\n",
               static_cast<unsigned long long>(scr.max_scrapes));
  std::fprintf(f, "  \"overhead_pct\": {\n");
  write_overhead(f, "obs_vs_off", obs_vs_off, ",");
  write_overhead(f, "export_vs_obs", export_vs_obs, ",");
  write_overhead(f, "scrape_vs_export", scrape_vs_export, "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", json_path.c_str());
  return 0;
}
