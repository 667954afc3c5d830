#include "obs/health.hpp"

#include <algorithm>

namespace hydra::obs {

using detail::format_double;

const char* health_status_name(HealthStatus s) {
  switch (s) {
    case HealthStatus::kOk: return "ok";
    case HealthStatus::kDegraded: return "degraded";
    case HealthStatus::kFailing: return "failing";
  }
  return "unknown";
}

namespace {

// Grades one signal, escalating `status` and appending a reason per
// breached threshold pair. Thresholds <= 0 disable their grade.
void grade(const char* signal, double value, double degraded, double failing,
           HealthStatus* status, std::vector<std::string>* reasons) {
  if (failing > 0.0 && value >= failing) {
    *status = std::max(*status, HealthStatus::kFailing);
    reasons->push_back(std::string(signal) + " " + format_double(value) +
                       " >= " + format_double(failing) + " (failing)");
  } else if (degraded > 0.0 && value >= degraded) {
    *status = std::max(*status, HealthStatus::kDegraded);
    reasons->push_back(std::string(signal) + " " + format_double(value) +
                       " >= " + format_double(degraded) + " (degraded)");
  }
}

}  // namespace

HealthVerdict evaluate_health(const WindowRing& windows,
                              const std::vector<double>& latency_bounds,
                              const HealthThresholds& t) {
  HealthVerdict v;
  const std::size_t span =
      std::min(t.windows == 0 ? windows.size() : t.windows, windows.size());
  v.windows_evaluated = span;
  if (span == 0) return v;  // nothing measured yet: ok by definition

  std::uint64_t injected = 0;
  std::uint64_t rejected = 0;
  std::uint64_t fault_dropped = 0;
  std::uint64_t reports = 0;
  std::uint64_t cold_suppressed = 0;
  std::vector<std::uint64_t> buckets;
  for (std::size_t i = windows.size() - span; i < windows.size(); ++i) {
    const ExportCumulative& d = windows[i]->delta;
    injected += d.injected;
    rejected += d.rejected;
    fault_dropped += d.fault_dropped;
    reports += d.reports;
    cold_suppressed += d.cold_suppressed;
    if (d.latency_buckets.size() > buckets.size()) {
      buckets.resize(d.latency_buckets.size(), 0);
    }
    for (std::size_t b = 0; b < d.latency_buckets.size(); ++b) {
      buckets[b] += d.latency_buckets[b];
    }
  }

  const double inj = injected > 0 ? static_cast<double>(injected) : 1.0;
  v.reject_rate = static_cast<double>(rejected) / inj;
  v.fault_drop_rate = static_cast<double>(fault_dropped) / inj;
  const std::uint64_t report_attempts = reports + cold_suppressed;
  v.cold_suppression_rate =
      report_attempts > 0
          ? static_cast<double>(cold_suppressed) /
                static_cast<double>(report_attempts)
          : 0.0;
  v.latency_p99_s = histogram_quantile(0.99, latency_bounds, buckets);

  grade("reject_rate", v.reject_rate, t.reject_rate_degraded,
        t.reject_rate_failing, &v.status, &v.reasons);
  grade("latency_p99_s", v.latency_p99_s, t.latency_p99_degraded_s,
        t.latency_p99_failing_s, &v.status, &v.reasons);
  grade("fault_drop_rate", v.fault_drop_rate, t.fault_drop_rate_degraded,
        t.fault_drop_rate_failing, &v.status, &v.reasons);
  grade("cold_suppression_rate", v.cold_suppression_rate,
        t.cold_suppression_degraded, t.cold_suppression_failing, &v.status,
        &v.reasons);
  return v;
}

std::string HealthVerdict::to_json() const {
  std::string out = "{\n  \"status\": \"";
  out += health_status_name(status);
  out += "\",\n  \"reasons\": [";
  for (std::size_t i = 0; i < reasons.size(); ++i) {
    out += i == 0 ? "" : ", ";
    out += "\"" + reasons[i] + "\"";
  }
  out += "],\n  \"signals\": {\"windows_evaluated\": " +
         std::to_string(windows_evaluated) +
         ", \"reject_rate\": " + format_double(reject_rate) +
         ", \"latency_p99_s\": " + format_double(latency_p99_s) +
         ", \"fault_drop_rate\": " + format_double(fault_drop_rate) +
         ", \"cold_suppression_rate\": " + format_double(cold_suppression_rate) +
         "}\n}\n";
  return out;
}

}  // namespace hydra::obs
