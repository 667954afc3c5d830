// Raw observability state at one committed export tick, and the pure
// renderers that turn it into every body the live plane serves.
//
// "Freeze, then render": the simulator copies what the bodies read into a
// RawTick — value copies of the registry slots and top-K sketches, the
// health verdict, a shared pointer to the violation reports, and the
// window ring by pointer — which costs no text formatting and does not
// grow with ring length. Each renderer below is a pure function of that
// copy, so a body rendered later, on another thread, is byte-identical to
// one rendered at the tick. Network::obs_snapshot(), the Prometheus and
// series exports, the CLI tools and the HTTP routes all render through
// these functions; there is no second path.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/forensics.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"
#include "obs/topk.hpp"

namespace hydra::obs {

// The simulation totals the obs snapshot body opens with.
struct SimTotals {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fwd_dropped = 0;
  std::uint64_t queue_dropped = 0;
  std::uint64_t fault_dropped = 0;
};

struct RawTick {
  std::uint64_t tick_index = 0;  // ExportScheduler::captured() at the tick
  double sim_time = 0.0;         // virtual time of the tick boundary
  SimTotals sim;
  FrozenRegistry registry;
  std::optional<SeriesState> series;  // absent while export is disarmed
  std::optional<TopKState> topk;      // absent while live obs is off
  HealthVerdict health;
  // Shared, never copied per tick; null reads as no reports.
  std::shared_ptr<const std::vector<ViolationReport>> violations;
};

// The bodies the HTTP plane serves, one per route.
enum class LiveBody {
  kMetrics,     // GET /metrics
  kSeries,      // GET /series
  kHealth,      // GET /healthz
  kViolations,  // GET /violations
  kTopK,        // GET /topk
  kSnapshot,    // GET /snapshot
};
constexpr std::size_t kLiveBodies = 6;

// Prometheus exposition of the registry plus the top-K families.
std::string render_metrics(const RawTick& t);
// ExportScheduler::series_json; empty while export is disarmed.
std::string render_series(const RawTick& t);
std::string render_health(const RawTick& t);
std::string render_violations(const RawTick& t);
// TopKAttribution::to_json; empty while live obs is off.
std::string render_topk(const RawTick& t);
// The v1 obs snapshot (Network::obs_snapshot): header, body, end marker.
std::string render_snapshot(const RawTick& t);
// The shared snapshot body: sim totals, registry counters and histograms,
// the window ring, and the top-K sketches. full_snapshot embeds it in v2.
void append_obs_body(std::string& out, const RawTick& t);

std::string render(LiveBody body, const RawTick& t);

}  // namespace hydra::obs
