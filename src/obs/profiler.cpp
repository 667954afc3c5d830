#include "obs/profiler.hpp"

#include <cstdio>

namespace hydra::obs {

namespace {

// Phase latencies span ~100ns (cached pop) to ~100ms (huge epochs).
std::vector<double> phase_bounds() {
  return {0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
          5000.0, 25000.0, 100000.0};
}

std::vector<double> item_bounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 1024.0,
          4096.0};
}

// The adaptive lookahead multiplier is a power of two in [1, 64].
std::vector<double> mult_bounds() {
  return {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0};
}

std::string format_us(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

EngineProfiler::EngineProfiler() : epoch_(std::chrono::steady_clock::now()) {
  configure(0);
}

void EngineProfiler::configure(int workers) {
  workers_ = workers < 0 ? 0 : workers;
  tracks_.assign(static_cast<std::size_t>(workers_) + 1, {});
  dropped_.assign(tracks_.size(), 0);
  compute_us_.assign(static_cast<std::size_t>(workers_), Histogram{});
  wake_us_.assign(static_cast<std::size_t>(workers_), Histogram{});
}

double EngineProfiler::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

void EngineProfiler::attach_main(Registry& reg) {
  pop_us_ = reg.histogram("engine.phase.pop_window_us", phase_bounds());
  commit_us_ = reg.histogram("engine.phase.commit_us", phase_bounds());
  barrier_us_ = reg.histogram("engine.phase.barrier_us", phase_bounds());
  epoch_items_ = reg.histogram("engine.epoch.items", item_bounds());
  epoch_switch_items_ =
      reg.histogram("engine.epoch.switch_items", item_bounds());
  lookahead_mult_ =
      reg.histogram("engine.epoch.lookahead_mult", mult_bounds());
  epochs_ = reg.counter("engine.epochs");
  serial_windows_ = reg.counter("engine.epochs_serial_degraded");
  epochs_parallel_ = reg.counter("engine.epochs.parallel");
  epochs_callbacks_ = reg.counter("engine.epochs.callbacks");
  epochs_one_worker_ = reg.counter("engine.epochs.one_worker");
  epochs_small_window_ = reg.counter("engine.epochs.small_window");
  worker_parks_ = reg.counter("engine.worker_parks");
}

void EngineProfiler::attach_worker(int shard, Registry& reg) {
  if (shard >= 0 && static_cast<std::size_t>(shard) < compute_us_.size()) {
    // Same name on every shard: absorbed into one aggregate at barriers.
    compute_us_[static_cast<std::size_t>(shard)] =
        reg.histogram("engine.phase.compute_us", phase_bounds());
    wake_us_[static_cast<std::size_t>(shard)] =
        reg.histogram("engine.phase.wake_us", phase_bounds());
  }
}

void EngineProfiler::detach() {
  pop_us_ = {};
  commit_us_ = {};
  barrier_us_ = {};
  epoch_items_ = {};
  epoch_switch_items_ = {};
  lookahead_mult_ = {};
  epochs_ = {};
  serial_windows_ = {};
  epochs_parallel_ = {};
  epochs_callbacks_ = {};
  epochs_one_worker_ = {};
  epochs_small_window_ = {};
  worker_parks_ = {};
  for (auto& h : compute_us_) h = {};
  for (auto& h : wake_us_) h = {};
}

void EngineProfiler::push(int track, const Span& span) {
  auto& buf = tracks_[static_cast<std::size_t>(track)];
  if (buf.size() >= kMaxSpansPerTrack) {
    ++dropped_[static_cast<std::size_t>(track)];
    return;
  }
  buf.push_back(span);
}

void EngineProfiler::pop_window(double t0_us, double t1_us,
                                std::size_t popped) {
  pop_us_.observe(t1_us - t0_us);
  Span s;
  s.name = "pop_window";
  s.ts_us = t0_us;
  s.dur_us = t1_us - t0_us;
  s.n_args = 1;
  s.keys[0] = "items";
  s.vals[0] = static_cast<double>(popped);
  push(0, s);
}

void EngineProfiler::epoch(double t0_us, double t1_us, std::size_t items,
                           std::size_t switch_items, const char* mode,
                           std::size_t lookahead_mult) {
  epochs_.inc();
  epoch_items_.observe(static_cast<double>(items));
  epoch_switch_items_.observe(static_cast<double>(switch_items));
  lookahead_mult_.observe(static_cast<double>(lookahead_mult));
  // "parallel" is the concurrent mode; everything else is a serial
  // degradation.
  if (mode == nullptr || mode[0] != 'p') serial_windows_.inc();
  if (mode != nullptr) {
    switch (mode[0]) {
      case 'p': epochs_parallel_.inc(); break;
      case 'c': epochs_callbacks_.inc(); break;
      case 'o': epochs_one_worker_.inc(); break;
      case 's': epochs_small_window_.inc(); break;
      default: break;
    }
  }
  Span s;
  s.name = "epoch";
  s.ts_us = t0_us;
  s.dur_us = t1_us - t0_us;
  s.n_args = 3;
  s.keys[0] = "items";
  s.vals[0] = static_cast<double>(items);
  s.keys[1] = "switch_items";
  s.vals[1] = static_cast<double>(switch_items);
  s.keys[2] = "lookahead_mult";
  s.vals[2] = static_cast<double>(lookahead_mult);
  s.note = mode;
  push(0, s);
}

void EngineProfiler::compute(int shard, double t0_us, double t1_us,
                             std::size_t items) {
  if (shard >= 0 && static_cast<std::size_t>(shard) < compute_us_.size()) {
    compute_us_[static_cast<std::size_t>(shard)].observe(t1_us - t0_us);
  }
  Span s;
  s.name = "compute";
  s.ts_us = t0_us;
  s.dur_us = t1_us - t0_us;
  s.n_args = 1;
  s.keys[0] = "items";
  s.vals[0] = static_cast<double>(items);
  push(shard + 1, s);
}

void EngineProfiler::wake(int shard, double publish_us, double start_us) {
  if (shard >= 0 && static_cast<std::size_t>(shard) < wake_us_.size()) {
    wake_us_[static_cast<std::size_t>(shard)].observe(start_us - publish_us);
  }
}

void EngineProfiler::worker_parks(std::uint64_t n) { worker_parks_.inc(n); }

void EngineProfiler::commit(double t0_us, double t1_us) {
  commit_us_.observe(t1_us - t0_us);
  Span s;
  s.name = "commit";
  s.ts_us = t0_us;
  s.dur_us = t1_us - t0_us;
  push(0, s);
}

void EngineProfiler::barrier(double t0_us, double t1_us) {
  barrier_us_.observe(t1_us - t0_us);
  Span s;
  s.name = "barrier";
  s.ts_us = t0_us;
  s.dur_us = t1_us - t0_us;
  push(0, s);
}

void EngineProfiler::serial_hop(double t0_us, double t1_us) {
  if (!compute_us_.empty()) compute_us_[0].observe(t1_us - t0_us);
  Span s;
  s.name = "hop";
  s.ts_us = t0_us;
  s.dur_us = t1_us - t0_us;
  push(0, s);
}

std::string EngineProfiler::to_chrome_trace_json() const {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  const auto sep = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };
  for (std::size_t track = 0; track < tracks_.size(); ++track) {
    sep();
    const std::string tname =
        track == 0 ? "engine" : "shard " + std::to_string(track - 1);
    out += " {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
           "\"tid\": " +
           std::to_string(track) + ", \"args\": {\"name\": \"" + tname +
           "\"}}";
  }
  for (std::size_t track = 0; track < tracks_.size(); ++track) {
    for (const Span& s : tracks_[track]) {
      sep();
      out += " {\"name\": \"";
      out += s.name;
      out += "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " +
             std::to_string(track) + ", \"ts\": " + format_us(s.ts_us) +
             ", \"dur\": " + format_us(s.dur_us);
      if (s.n_args > 0 || s.note != nullptr) {
        out += ", \"args\": {";
        bool afirst = true;
        for (int a = 0; a < s.n_args; ++a) {
          if (!afirst) out += ", ";
          afirst = false;
          out += "\"";
          out += s.keys[a];
          out += "\": " + std::to_string(static_cast<long long>(s.vals[a]));
        }
        if (s.note != nullptr) {
          if (!afirst) out += ", ";
          out += "\"mode\": \"";
          out += s.note;
          out += "\"";
        }
        out += "}";
      }
      out += "}";
    }
  }
  out += first ? "]}\n" : "\n]}\n";
  return out;
}

void EngineProfiler::clear() {
  for (auto& t : tracks_) t.clear();
  for (auto& d : dropped_) d = 0;
}

std::size_t EngineProfiler::span_count() const {
  std::size_t n = 0;
  for (const auto& t : tracks_) n += t.size();
  return n;
}

std::uint64_t EngineProfiler::dropped_spans() const {
  std::uint64_t n = 0;
  for (const auto& d : dropped_) n += d;
  return n;
}

}  // namespace hydra::obs
