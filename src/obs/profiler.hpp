// Engine phase profiler — where do epochs spend their time?
//
// The execution engines (net/engine.hpp) are instrumented with phase spans:
//
//   track 0        the engine main loop — pop_window, commit, barrier, and
//                  one "epoch" span per window carrying its gauges (item
//                  counts, degradation mode);
//   track 1 + s    shard s's compute phase (shard 0 runs on the main
//                  thread; shards 1.. on pool workers).
//
// Spans land in per-track buffers — each track has exactly one writer
// thread, so recording takes no locks — and export as Chrome trace-event
// JSON ("X" complete events, microsecond timestamps), loadable directly in
// Perfetto / chrome://tracing. Phase latencies additionally feed fixed-
// bucket histograms in the metrics registry ("engine.phase.*_us",
// "engine.epoch.*"); worker-shard histograms are attached to the shard's
// shadow registry and folded into the main one by Registry::absorb_counters
// at epoch barriers, exactly like hot-path counters. The parallel engine's
// epoch handshake shows up as "engine.phase.wake_us" (publish to a pool
// worker's slice start) and "engine.worker_parks" (futex parks by pool
// workers, added when a drain ends).
//
// Disabled discipline: engines hold a raw EngineProfiler pointer that is
// null unless profiling is armed — the entire disabled cost is one branch
// per phase. Span timestamps are wall-clock (this is a profiler), so trace
// exports are NOT run-deterministic; nothing here feeds the engine-
// equivalence contract.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace hydra::obs {

class EngineProfiler {
 public:
  EngineProfiler();

  // Sizes the track buffers for `workers` compute shards (tracks 1..N) plus
  // the main loop (track 0), dropping recorded spans. Called by the network
  // whenever the engine or worker count changes.
  void configure(int workers);
  int workers() const { return workers_; }

  // Microseconds since this profiler was constructed (wall clock).
  double now_us() const;

  // ---- metric wiring (net::Network::rewire_observability) ----------------
  // Main-loop phase histograms + epoch gauges into `reg` (the main
  // registry); per-shard compute histograms into that shard's sink (shadow
  // registry for parallel workers). Same histogram name on every shard, so
  // the barrier merge aggregates them.
  void attach_main(Registry& reg);
  void attach_worker(int shard, Registry& reg);
  void detach();

  // ---- engine-facing recording hooks -------------------------------------
  void pop_window(double t0_us, double t1_us, std::size_t popped);
  // One parallel epoch: item counts, execution mode ("parallel" for a
  // switch-grouped concurrent window, or the serial-degradation reason:
  // "callbacks", "small_window", "one_worker")
  // and the adaptive lookahead multiplier the window ran at (1 = base
  // lookahead). Each mode gets its own "engine.epochs.<mode>" counter and
  // the multiplier feeds the "engine.epoch.lookahead_mult" histogram.
  void epoch(double t0_us, double t1_us, std::size_t items,
             std::size_t switch_items, const char* mode,
             std::size_t lookahead_mult = 1);
  void compute(int shard, double t0_us, double t1_us, std::size_t items);
  // Pool worker `shard` started its slice at `start_us` for a window the
  // coordinator published at `publish_us` ("engine.phase.wake_us").
  void wake(int shard, double publish_us, double start_us);
  // Pool workers parked on the futex `n` times ("engine.worker_parks").
  void worker_parks(std::uint64_t n);
  void commit(double t0_us, double t1_us);
  void barrier(double t0_us, double t1_us);
  // SerialEngine: one span per switch-work event.
  void serial_hop(double t0_us, double t1_us);

  // ---- export -------------------------------------------------------------
  // {"displayTimeUnit": ..., "traceEvents": [...]} — Chrome trace-event
  // format. Includes thread_name metadata per track.
  std::string to_chrome_trace_json() const;
  void clear();  // drops spans, keeps wiring and track layout
  std::size_t span_count() const;
  std::uint64_t dropped_spans() const;

 private:
  // A bounded ring would reorder the timeline; instead each track stops
  // recording at a cap and counts what it dropped.
  static constexpr std::size_t kMaxSpansPerTrack = 1u << 18;

  struct Span {
    const char* name = nullptr;
    double ts_us = 0.0;
    double dur_us = 0.0;
    int n_args = 0;
    const char* keys[3] = {nullptr, nullptr, nullptr};
    double vals[3] = {0.0, 0.0, 0.0};
    const char* note = nullptr;  // rendered as args.mode
  };

  void push(int track, const Span& span);

  int workers_ = 0;
  std::vector<std::vector<Span>> tracks_;  // [0] main, [1+s] shard s
  std::vector<std::uint64_t> dropped_;     // parallel to tracks_
  std::chrono::steady_clock::time_point epoch_;

  Histogram pop_us_;
  Histogram commit_us_;
  Histogram barrier_us_;
  Histogram epoch_items_;
  Histogram epoch_switch_items_;
  Histogram lookahead_mult_;
  Counter epochs_;
  Counter serial_windows_;
  // Per-mode epoch counters ("engine.epochs.<mode>"); see epoch().
  Counter epochs_parallel_;
  Counter epochs_callbacks_;
  Counter epochs_one_worker_;
  Counter epochs_small_window_;
  Counter worker_parks_;
  std::vector<Histogram> compute_us_;  // per shard, shadow-registry backed
  std::vector<Histogram> wake_us_;     // same; shard 0 (main) never wakes
};

}  // namespace hydra::obs
