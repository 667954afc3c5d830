// Pluggable execution engines — how the event queue is drained.
//
// SerialEngine executes every event inline in (time, seq) order: the exact
// pre-engine behaviour, and the default.
//
// ParallelEngine is a conservatively-synchronized parallel discrete-event
// executor built on one structural invariant of the simulator: switch work
// (per-hop pipeline execution, the hot path) is always scheduled at least
// Network::lookahead() — the switch traversal latency L — after the event
// that creates it. The drain loop processes the queue in EPOCHS:
//
//   1. WINDOW   pop every pending event in [t0, W), where t0 is the
//               earliest pending timestamp and W is the adaptive window
//               end (below). No event executed inside the window can
//               spawn switch work that lands in it.
//   2. PLAN     assign every switch-work item to a worker slice, at pop
//               time, in one pass: greedy LPT bin-packing of the window's
//               switches onto workers (heaviest switch first, least-loaded
//               worker, deterministic tie-breaks). A switch is owned by
//               exactly one worker per window, so its checker state,
//               last-hit table caches and forensics ring see a single
//               writer, in the same order as under the serial engine; it
//               may move to another worker in the next window, and the
//               epoch handshake orders the two.
//               Each worker receives a contiguous, pre-bucketed slice of
//               window indices in (t, seq) order — compute never scans or
//               filters the window.
//   3. COMPUTE  workers execute their slices concurrently against their
//               own ExecContexts; all effects land in per-item
//               HopResults. The epoch handshake is two atomic words
//               (publish: epoch counter increment; finish: remaining-
//               counter release-decrement) and stays hot for the length of
//               a drain: between epochs, workers spin on the epoch counter
//               with a pause instruction, and the coordinator spins on the
//               remaining counter the same way. A thread parks on the
//               futex only when drain() returns, or after a fixed wall-
//               time budget with nothing to wait for (serial-degraded
//               stretches publish nothing, so they release the core after
//               one budget). A publish notifies only when a worker is
//               parked, so a dispatching drain makes no syscall per epoch,
//               and drain() parks the pool before it returns, so an idle
//               engine costs no CPU. A spinner yields its core every few
//               microseconds while it shares one with another pool thread
//               or has just woken one: the scheduler tends to queue a
//               woken thread on its waker's core, where a pure spin would
//               hold it off for the whole budget. With more workers than
//               hardware threads nobody spins: every wait parks at once.
//   4. COMMIT   the main thread walks the window in (t, seq) order,
//               merging in any events the commits themselves spawn inside
//               the window, advancing the clock and applying HopResults /
//               running closures exactly as the serial engine would. The
//               merge check is batched: the queue head is cached and
//               re-read only when a commit actually scheduled something,
//               so windows whose commits cannot interleave skip the
//               per-item queue probe.
//
// Adaptive lookahead: the window nominally ends at t0 + L * mult, where
// mult (a power of two in [1, 64]) grows while windows arrive with too few
// switch items to feed the pool and shrinks when windows are huge. Any
// extension beyond the base t0 + L is clamped to the sound bound
//
//     W  <=  min(c_min + L,  s_min + D + L)
//
// where c_min / s_min are the earliest pending closure / switch-work
// timestamps (EventQueue::next_closure_time / next_switch_time) and D is
// the smallest link propagation delay (Network::min_spawn_delay): a
// closure can spawn switch work no earlier than its own time + L (the only
// runtime spawn site, node_receive, adds the switch latency), and a switch
// commit must cross a link first, adding at least D before that. Extension
// is disabled entirely while faults are armed — delayed rule pushes may
// schedule control work closer than L ahead.
//
// Reports, metrics snapshots, traces, table counters and final register/
// table state are bit-identical to the serial engine for any worker count.
//
// Degradation rule: while report callbacks are subscribed (closed control
// loops that may mutate switch state mid-epoch), epochs are executed
// serially item by item — correctness over speed. Ditto for one-worker
// pools and windows too small to be worth a dispatch.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event.hpp"
#include "net/network.hpp"

namespace hydra::net {

class ExecutionEngine : public EventExecutor {
 public:
  explicit ExecutionEngine(Network& net) : net_(&net) {}
  virtual const char* name() const = 0;
  virtual int workers() const = 0;

 protected:
  // Runs every event the queue holds strictly before key (`t`, `seq`) —
  // events spawned by commits into the current window — serially, exactly
  // as the serial engine would.
  void drain_spawned_before(EventQueue& q, SimTime t);

  // Executes a non-switch-work item inline: closures run, tick targets
  // tick, packet arrivals resolve through the network's pools.
  void exec_inline(EventQueue::Item& item);

  Network* net_;
};

class SerialEngine final : public ExecutionEngine {
 public:
  explicit SerialEngine(Network& net) : ExecutionEngine(net) {}
  const char* name() const override { return "serial"; }
  int workers() const override { return 1; }
  void drain(EventQueue& q, SimTime limit) override;
};

class ParallelEngine final : public ExecutionEngine {
 public:
  ParallelEngine(Network& net, int workers);
  ~ParallelEngine() override;
  const char* name() const override { return "parallel"; }
  int workers() const override { return workers_; }
  void drain(EventQueue& q, SimTime limit) override;

  // Pool workers parked on the futex: workers() - 1 after every drain,
  // which parks the pool before it returns. New workers park on their own.
  int parked_workers() const {
    return parked_.load(std::memory_order_acquire);
  }

  // Fewest switch-work items in a window worth waking the pool for;
  // smaller windows are computed inline (identical results either way).
  static constexpr std::size_t kDispatchThreshold = 2;
  // Adaptive lookahead policy: the multiplier doubles while a window's
  // switch items fall short of workers * kTargetItemsPerWorker and halves
  // above 4x that, clamped to [1, kMaxLookaheadMult].
  static constexpr std::size_t kMaxLookaheadMult = 64;
  static constexpr std::size_t kTargetItemsPerWorker = 32;

 private:
  // Sentinel shard for non-switch-work window entries.
  static constexpr std::uint32_t kNoShard = ~0u;

  void worker_main(int worker);
  // The epoch handshake (COMPUTE above): publish the window to the pool
  // (returns whether it had to wake a parked worker), wait for every
  // worker's slice, and park the pool when a drain ends.
  bool publish();
  void await_workers(bool woke_pool);
  void park_pool();
  // Whether pool thread `self` (0 = the coordinator) should yield while it
  // spins: it shares a core with another pool thread, or just woke one.
  bool spin_politely(int self, bool woke_peer);
  // Computes every switch-work item in `worker`'s pre-bucketed slice.
  void compute_slice(int worker);
  void run_window(EventQueue& q);
  // The serial degradation path: the window in order, exactly as the
  // serial engine would run it.
  void run_window_serial(EventQueue& q);
  // Batched canonical-order commit (see COMMIT above).
  void commit_window(EventQueue& q);
  // Shard planning (PLAN above): fill item_shard_ per window index...
  void plan_switch_groups();
  // ...then bucket the indices into per-worker contiguous slices
  // (counting sort — stable, so slices stay in (t, seq) order).
  void bucket_slices();

  const int workers_;
  // Whether waits spin before parking: only while every worker and the
  // coordinator can have a hardware thread of their own.
  const bool hot_;

  // Per-drain cached model constants.
  SimTime lookahead_ = 0.0;
  SimTime min_spawn_delay_ = 0.0;
  bool extension_allowed_ = false;
  // Adaptive lookahead multiplier (persists across drains; power of two).
  std::size_t mult_ = 1;

  std::vector<EventQueue::Item> window_;
  std::vector<HopResult> results_;  // parallel to window_
  std::vector<std::exception_ptr> errors_;  // per worker
  // Phase profiler, refreshed at drain entry while the pool is idle (the
  // epoch handshake publishes it to workers). Null unless armed.
  obs::EngineProfiler* prof_ = nullptr;
  // Export scheduler, same discipline: refreshed at drain entry (arming
  // requires an idle queue), consulted only on the main thread. Null
  // unless streaming export is armed — the zero-overhead branch.
  obs::ExportScheduler* sched_ = nullptr;

  // ---- pop-time shard plan (capacity reused across windows) -------------
  std::vector<std::uint32_t> item_shard_;   // per window index; kNoShard
  std::vector<std::uint32_t> slice_items_;  // window indices, by worker
  std::vector<std::uint32_t> slice_begin_;  // workers_ + 1 offsets
  std::vector<std::uint32_t> slice_fill_;   // counting-sort cursor scratch
  std::vector<std::uint32_t> sw_count_;     // per switch id, zeroed after use
  std::vector<int> sw_touched_;             // switch ids seen this window
  std::vector<int> sw_shard_;               // per switch id, this window
  std::vector<std::uint64_t> shard_load_;   // LPT accumulator

  // ---- epoch handshake ---------------------------------------------------
  // Main publishes window_/results_/slices (plain writes), then bumps
  // epoch_; workers acquire it (spinning while draining_, else parked via
  // std::atomic::wait) and see everything published before it. Each worker
  // finishes with a release decrement of remaining_; the main thread's
  // acquire of remaining_ == 0 sees every result. stop_ rides the same
  // epoch bump. parked_ counts workers committed to the futex: the publish
  // skips its notify while it is zero (the seq_cst pair in publish() and
  // worker_main() makes that safe), and park_pool() waits for it to reach
  // workers_ - 1 before drain() returns. parks_ counts futex parks for the
  // profiler's engine.worker_parks.
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> remaining_{0};
  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> parked_{0};
  std::atomic<std::uint64_t> parks_{0};
  // The core each pool thread (0 = coordinator) last started a wait on.
  std::vector<std::atomic<int>> cpu_;
  // Profiler timestamp of the last publish, for engine.phase.wake_us;
  // written before the epoch bump, read by workers after it.
  double publish_us_ = 0.0;
  std::vector<std::thread> threads_;  // workers 1..workers_-1
};

// `spec` is "serial" or "parallel[:N]" with N in [1, 1024] — e.g.
// "parallel:4"; throws std::invalid_argument otherwise (including
// malformed or non-positive worker counts such as "parallel:0" or
// "parallel:abc"). Used by tools and benches.
EngineKind parse_engine_kind(const std::string& spec, int* workers_out);

const char* engine_kind_name(EngineKind kind);

}  // namespace hydra::net
