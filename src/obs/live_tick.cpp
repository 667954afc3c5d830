#include "obs/live_tick.hpp"

namespace hydra::obs {

using detail::format_double;

std::string render_metrics(const RawTick& t) {
  std::vector<PromFamily> extra;
  if (t.topk.has_value()) t.topk->prom_families(extra);
  return to_prometheus(t.registry, extra);
}

std::string render_series(const RawTick& t) {
  return t.series.has_value() ? t.series->to_json() : std::string();
}

std::string render_health(const RawTick& t) { return t.health.to_json(); }

std::string render_violations(const RawTick& t) {
  static const std::vector<ViolationReport> kNone;
  return violations_json(t.violations != nullptr ? *t.violations : kNone);
}

std::string render_topk(const RawTick& t) {
  return t.topk.has_value() ? t.topk->to_json() : std::string();
}

std::string render_snapshot(const RawTick& t) {
  std::string out = "hydra-obs-snapshot v1\n";
  append_obs_body(out, t);
  out += "end\n";
  return out;
}

void append_obs_body(std::string& out, const RawTick& t) {
  out += "sim injected " + std::to_string(t.sim.injected) + "\n";
  out += "sim delivered " + std::to_string(t.sim.delivered) + "\n";
  out += "sim rejected " + std::to_string(t.sim.rejected) + "\n";
  out += "sim fwd_dropped " + std::to_string(t.sim.fwd_dropped) + "\n";
  out += "sim queue_dropped " + std::to_string(t.sim.queue_dropped) + "\n";
  out += "sim fault_dropped " + std::to_string(t.sim.fault_dropped) + "\n";
  out += t.registry.snapshot_text();
  if (t.series.has_value()) {
    out += "series " + std::to_string(t.series->captured) + "\n";
    for (const auto& sample : t.series->windows) {
      const WindowSample& w = *sample;
      const ExportCumulative& d = w.delta;
      out += "window " + std::to_string(w.index) + " " +
             format_double(w.t0) + " " + format_double(w.t1) + " " +
             std::to_string(d.injected) + " " + std::to_string(d.delivered) +
             " " + std::to_string(d.rejected) + " " +
             std::to_string(d.fwd_dropped) + " " +
             std::to_string(d.queue_dropped) + " " +
             std::to_string(d.fault_dropped) + " " +
             std::to_string(d.reports) + " " +
             std::to_string(d.decode_rejects) + " " +
             std::to_string(d.cold_suppressed) + " " + format_double(w.pps) +
             " " + format_double(w.rejects_per_s) + "\n";
      out += "wlat " + std::to_string(d.latency_count) + " " +
             format_double(d.latency_sum) + " " + format_double(w.latency_p50) +
             " " + format_double(w.latency_p90) + " " +
             format_double(w.latency_p99) + " " +
             std::to_string(d.latency_buckets.size());
      for (std::uint64_t b : d.latency_buckets) out += " " + std::to_string(b);
      out += "\n";
      for (const auto& p : d.properties) {
        out += "wprop " + p.name + " " + std::to_string(p.rejects) + " " +
               std::to_string(p.reports) + " " + std::to_string(p.check_runs) +
               " " + std::to_string(p.tele_runs) + "\n";
      }
    }
  }
  if (t.topk.has_value()) out += t.topk->snapshot_text();
}

std::string render(LiveBody body, const RawTick& t) {
  switch (body) {
    case LiveBody::kMetrics: return render_metrics(t);
    case LiveBody::kSeries: return render_series(t);
    case LiveBody::kHealth: return render_health(t);
    case LiveBody::kViolations: return render_violations(t);
    case LiveBody::kTopK: return render_topk(t);
    case LiveBody::kSnapshot: return render_snapshot(t);
  }
  return std::string();
}

}  // namespace hydra::obs
