#include "obs/metrics.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace hydra::obs {

namespace detail {

// Shortest-roundtrip float formatting; %.17g would round-trip too but
// litters exports with noise digits, so take the smallest %g precision
// (at least 6) that reads back as `v`. std::to_chars' shortest form has
// the fewest digits any round-tripping decimal can have, so no precision
// below its digit count can succeed and the search starts there; the
// increment loop only runs on when %g's nearest-rounding at that precision
// lands outside the (asymmetric) rounding interval, as it can next to a
// power of two.
std::string format_double(double v) {
  int prec = 6;
  if (std::isfinite(v)) {
    char shortest[32];
    const std::to_chars_result r =
        std::to_chars(shortest, shortest + sizeof(shortest), v,
                      std::chars_format::scientific);
    int digits = 0;
    for (const char* p = shortest; p < r.ptr && *p != 'e'; ++p) {
      digits += *p >= '0' && *p <= '9' ? 1 : 0;
    }
    prec = std::max(prec, digits);
  }
  char buf[64];
  for (; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

}  // namespace detail

using detail::format_double;

void Histogram::observe(double v) const {
  if (data_ == nullptr) return;
  std::size_t b = 0;
  while (b < data_->bounds.size() && v > data_->bounds[b]) ++b;
  ++data_->buckets[b];
  ++data_->count;
  data_->sum += v;
}

const Registry::Meta& Registry::require(const std::string& name, Kind kind,
                                        const std::string* family,
                                        const std::vector<Label>* labels) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    if (it->second.kind != kind) {
      throw std::invalid_argument("metric '" + name +
                                  "' already registered with another kind");
    }
    return it->second;
  }
  Meta m;
  m.kind = kind;
  if (family != nullptr) m.family = *family;
  if (labels != nullptr) m.labels = *labels;
  switch (kind) {
    case Kind::kCounter:
      m.slot = counters_.size();
      counters_.emplace_back(0);  // atomics are not copyable; construct in place
      break;
    case Kind::kGauge:
      m.slot = gauges_.size();
      gauges_.push_back(0.0);
      break;
    case Kind::kHistogram:
      m.slot = histograms_.size();
      histograms_.emplace_back();
      break;
  }
  ids_.reset();
  return by_name_.emplace(name, m).first->second;
}

Counter Registry::counter(const std::string& name) {
  return Counter(&counters_[require(name, Kind::kCounter).slot]);
}

Gauge Registry::gauge(const std::string& name) {
  return Gauge(&gauges_[require(name, Kind::kGauge).slot]);
}

Histogram Registry::histogram(const std::string& name,
                              std::vector<double> bounds) {
  return histogram(name, std::string(), {}, std::move(bounds));
}

Counter Registry::counter(const std::string& name, const std::string& family,
                          std::vector<Label> labels) {
  return Counter(
      &counters_[require(name, Kind::kCounter, &family, &labels).slot]);
}

Gauge Registry::gauge(const std::string& name, const std::string& family,
                      std::vector<Label> labels) {
  return Gauge(&gauges_[require(name, Kind::kGauge, &family, &labels).slot]);
}

Histogram Registry::histogram(const std::string& name,
                              const std::string& family,
                              std::vector<Label> labels,
                              std::vector<double> bounds) {
  for (std::size_t i = 1; i < bounds.size(); ++i) {
    if (bounds[i] <= bounds[i - 1]) {
      throw std::invalid_argument("histogram '" + name +
                                  "': bounds must be ascending");
    }
  }
  const bool fresh = by_name_.find(name) == by_name_.end();
  HistogramData& h =
      histograms_[require(name, Kind::kHistogram, &family, &labels).slot];
  if (fresh) {
    h.bounds = std::move(bounds);
    h.buckets.assign(h.bounds.size() + 1, 0);
  }
  return Histogram(&h);
}

std::uint64_t Registry::counter_value(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.kind != Kind::kCounter) return 0;
  return counters_[it->second.slot].load(std::memory_order_relaxed);
}

double Registry::gauge_value(const std::string& name) const {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.kind != Kind::kGauge) return 0.0;
  return gauges_[it->second.slot];
}

void Registry::absorb_counters(Registry& src) {
  for (const auto& [name, m] : src.by_name_) {
    // Fresh registrations inherit the source's Prometheus identity, so a
    // metric first seen in a shard registry exports identically to one
    // first registered in the main registry.
    switch (m.kind) {
      case Kind::kCounter: {
        auto& v = src.counters_[m.slot];
        // Register even when zero so exports list the same names regardless
        // of which shard's switches happened to see traffic. Callers merge
        // at barriers (writers quiesced), so the exchange cannot lose bumps.
        counters_[require(name, Kind::kCounter, &m.family, &m.labels).slot]
            .fetch_add(v.exchange(0, std::memory_order_relaxed),
                       std::memory_order_relaxed);
        break;
      }
      case Kind::kGauge: {
        // Max-wins: a shard gauge is a local high-water mark (e.g. items
        // per worker); summing levels across shards would be meaningless.
        double& v = src.gauges_[m.slot];
        double& dst =
            gauges_[require(name, Kind::kGauge, &m.family, &m.labels).slot];
        if (v > dst) dst = v;
        v = 0.0;
        break;
      }
      case Kind::kHistogram: {
        HistogramData& h = src.histograms_[m.slot];
        HistogramData& dst = histograms_[require(name, Kind::kHistogram,
                                                 &m.family, &m.labels)
                                             .slot];
        if (dst.bounds.empty() && !h.bounds.empty()) {
          dst.bounds = h.bounds;
          dst.buckets.assign(dst.bounds.size() + 1, 0);
        }
        if (dst.bounds != h.bounds) {
          throw std::invalid_argument(
              "absorb_counters: histogram '" + name +
              "' has mismatched bounds across registries");
        }
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          dst.buckets[i] += h.buckets[i];
          h.buckets[i] = 0;
        }
        dst.count += h.count;
        dst.sum += h.sum;
        h.count = 0;
        h.sum = 0.0;
        break;
      }
    }
  }
}

void Registry::restore_counter(const std::string& name, std::uint64_t v) {
  counters_[require(name, Kind::kCounter).slot].fetch_add(
      v, std::memory_order_relaxed);
}

void Registry::restore_histogram(const std::string& name, std::uint64_t count,
                                 double sum,
                                 const std::vector<std::uint64_t>& buckets) {
  const auto it = by_name_.find(name);
  if (it == by_name_.end() || it->second.kind != Kind::kHistogram) return;
  HistogramData& h = histograms_[it->second.slot];
  if (h.buckets.size() != buckets.size()) {
    throw std::invalid_argument("restore_histogram: '" + name +
                                "' bucket layout changed since snapshot");
  }
  for (std::size_t i = 0; i < buckets.size(); ++i) h.buckets[i] += buckets[i];
  h.count += count;
  h.sum += sum;
}

void Registry::reset() {
  for (auto& c : counters_) c.store(0, std::memory_order_relaxed);
  for (auto& g : gauges_) g = 0.0;
  for (auto& h : histograms_) {
    h.buckets.assign(h.bounds.size() + 1, 0);
    h.count = 0;
    h.sum = 0.0;
  }
}

FrozenRegistry Registry::freeze() const {
  if (ids_ == nullptr) {
    auto ids = std::make_shared<std::vector<MetricId>>();
    ids->reserve(by_name_.size());
    for (const auto& [name, m] : by_name_) {
      ids->push_back(MetricId{name, m.family, m.labels, m.kind, m.slot});
    }
    ids_ = std::move(ids);
  }
  FrozenRegistry f;
  f.ids_ = ids_;
  f.counters_.reserve(counters_.size());
  for (const auto& c : counters_) {
    f.counters_.push_back(c.load(std::memory_order_relaxed));
  }
  f.gauges_.assign(gauges_.begin(), gauges_.end());
  f.histograms_.assign(histograms_.begin(), histograms_.end());
  return f;
}

const std::vector<MetricId>& FrozenRegistry::ids() const {
  static const std::vector<MetricId> kNone;
  return ids_ != nullptr ? *ids_ : kNone;
}

void FrozenRegistry::visit(
    const std::function<void(const MetricView&)>& fn) const {
  for (const MetricId& id : ids()) {
    MetricView v{id.name, id.family, id.labels, id.kind};
    switch (id.kind) {
      case MetricKind::kCounter:
        v.counter_value = counters_[id.slot];
        break;
      case MetricKind::kGauge:
        v.gauge_value = gauges_[id.slot];
        break;
      case MetricKind::kHistogram:
        v.hist = &histograms_[id.slot];
        break;
    }
    fn(v);
  }
}

std::string FrozenRegistry::snapshot_text() const {
  std::string out;
  for (const MetricId& id : ids()) {
    const std::string& name = id.name;
    switch (id.kind) {
      case MetricKind::kCounter:
        out += "counter " + name + " " + std::to_string(counters_[id.slot]) +
               "\n";
        break;
      case MetricKind::kGauge:
        break;  // recomputed after restart
      case MetricKind::kHistogram: {
        const HistogramData& h = histograms_[id.slot];
        out += "hist " + name + " " + std::to_string(h.count) + " " +
               format_double(h.sum) + " " + std::to_string(h.buckets.size());
        for (std::uint64_t b : h.buckets) out += " " + std::to_string(b);
        out += "\n";
        break;
      }
    }
  }
  return out;
}

std::string FrozenRegistry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const MetricId& id : ids()) {
    const std::string& name = id.name;
    if (id.kind != MetricKind::kCounter) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + std::to_string(counters_[id.slot]);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const MetricId& id : ids()) {
    const std::string& name = id.name;
    if (id.kind != MetricKind::kGauge) continue;
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": " + format_double(gauges_[id.slot]);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const MetricId& id : ids()) {
    const std::string& name = id.name;
    if (id.kind != MetricKind::kHistogram) continue;
    const HistogramData& h = histograms_[id.slot];
    out += first ? "\n" : ",\n";
    first = false;
    out += "    \"" + name + "\": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      out += format_double(h.bounds[i]);
    }
    out += "], \"buckets\": [";
    for (std::size_t i = 0; i < h.buckets.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.buckets[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + format_double(h.sum) + "}";
  }
  out += first ? "}\n}\n" : "\n  }\n}\n";
  return out;
}

std::string FrozenRegistry::to_csv() const {
  std::string out = "kind,name,field,value\n";
  for (const MetricId& id : ids()) {
    const std::string& name = id.name;
    switch (id.kind) {
      case MetricKind::kCounter:
        out += "counter," + name + ",value," +
               std::to_string(counters_[id.slot]) + "\n";
        break;
      case MetricKind::kGauge:
        out += "gauge," + name + ",value," + format_double(gauges_[id.slot]) +
               "\n";
        break;
      case MetricKind::kHistogram: {
        const HistogramData& h = histograms_[id.slot];
        out += "histogram," + name + ",count," + std::to_string(h.count) +
               "\n";
        out += "histogram," + name + ",sum," + format_double(h.sum) + "\n";
        for (std::size_t i = 0; i < h.buckets.size(); ++i) {
          const std::string label =
              i < h.bounds.size() ? "le_" + format_double(h.bounds[i])
                                  : "le_inf";
          out += "histogram," + name + "," + label + "," +
                 std::to_string(h.buckets[i]) + "\n";
        }
        break;
      }
    }
  }
  return out;
}

}  // namespace hydra::obs
