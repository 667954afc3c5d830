// EventQueue edge cases the parallel engine's epoch pipeline leans on:
// pop_window boundary semantics (exclusive end, t0 group inclusion, limit),
// the split closure/switch-work heaps merging back into one (t, seq) pop
// order, the O(1) per-kind next-time probes (infinity when empty), and the
// strict-< invariant of ExecutionEngine::drain_spawned_before that lets
// commits merge mid-window spawns deterministically, and a randomized
// oracle fuzz of the indexed heaps against a reference sorted by (t, seq).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "net/engine.hpp"
#include "net/event.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "p4rt/packet.hpp"

namespace hydra {
namespace {

// The queue never dereferences packet handles, so any value works here.
net::PacketHandle pkt() { return net::PacketHandle{42}; }

TEST(EventQueue, PopWindowOnEmptyQueue) {
  net::EventQueue q;
  std::vector<net::EventQueue::Item> out;
  q.pop_window(10.0, 20.0, out);
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
}

// window_end is EXCLUSIVE: an event scheduled exactly at t0 + lookahead
// belongs to the NEXT window (its spawns could land at t0 + 2L, inside an
// extended window, so it must not be computed with this one).
TEST(EventQueue, PopWindowEndIsExclusive) {
  net::EventQueue q;
  q.schedule_at(1.0, [] {});
  q.schedule_at(1.5, [] {});
  q.schedule_at(2.0, [] {});  // exactly window_end: stays queued
  std::vector<net::EventQueue::Item> out;
  q.pop_window(10.0, 2.0, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_DOUBLE_EQ(out[0].t, 1.0);
  EXPECT_DOUBLE_EQ(out[1].t, 1.5);
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
}

// The t == t0 group is always taken, even when window_end <= t0 (a
// degenerate window); same-timestamp events are never split across windows.
TEST(EventQueue, PopWindowAlwaysIncludesT0Group) {
  net::EventQueue q;
  q.schedule_at(5.0, [] {});
  q.schedule_switch_at(5.0, 0, 1, pkt());
  q.schedule_at(5.0, [] {});
  q.schedule_at(5.0 + 1e-9, [] {});
  std::vector<net::EventQueue::Item> out;
  q.pop_window(10.0, 5.0, out);  // window_end == t0
  ASSERT_EQ(out.size(), 3u);
  for (const auto& item : out) EXPECT_DOUBLE_EQ(item.t, 5.0);
  // Stable (t, seq): scheduling order within the group.
  EXPECT_FALSE(out[0].is_switch_work());
  EXPECT_TRUE(out[1].is_switch_work());
  EXPECT_FALSE(out[2].is_switch_work());
  EXPECT_EQ(q.pending(), 1u);
}

// The drain limit caps the window independently of window_end.
TEST(EventQueue, PopWindowRespectsLimit) {
  net::EventQueue q;
  q.schedule_at(1.0, [] {});
  q.schedule_at(3.0, [] {});
  std::vector<net::EventQueue::Item> out;
  q.pop_window(2.0, 100.0, out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].t, 1.0);
  EXPECT_EQ(q.pending(), 1u);
}

// Closures and switch work live in separate heaps sharing one seq stream;
// a window pop must interleave them back into exact scheduling order.
TEST(EventQueue, SplitHeapsMergeInScheduleOrder) {
  net::EventQueue q;
  q.schedule_at(1.0, [] {});            // seq 0
  q.schedule_switch_at(1.0, 3, 0, pkt());  // seq 1
  q.schedule_at(1.0, [] {});            // seq 2
  q.schedule_switch_at(1.0, 7, 0, pkt());  // seq 3
  std::vector<net::EventQueue::Item> out;
  q.pop_window(10.0, 2.0, out);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_FALSE(out[0].is_switch_work());
  EXPECT_TRUE(out[1].is_switch_work());
  EXPECT_EQ(out[1].work.sw, 3);
  EXPECT_FALSE(out[2].is_switch_work());
  EXPECT_TRUE(out[3].is_switch_work());
  EXPECT_EQ(out[3].work.sw, 7);
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LT(out[i - 1].seq, out[i].seq);
  }
}

// Per-kind next-time probes: +infinity when that kind has nothing pending.
// The adaptive lookahead bound takes min() over these, so an empty kind
// must never constrain the window.
TEST(EventQueue, NextKindTimesReportInfinityWhenEmpty) {
  net::EventQueue q;
  EXPECT_TRUE(std::isinf(q.next_closure_time()));
  EXPECT_TRUE(std::isinf(q.next_switch_time()));

  q.schedule_at(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_closure_time(), 2.5);
  EXPECT_TRUE(std::isinf(q.next_switch_time()));

  q.schedule_switch_at(1.25, 0, 0, pkt());
  EXPECT_DOUBLE_EQ(q.next_switch_time(), 1.25);
  EXPECT_DOUBLE_EQ(q.next_closure_time(), 2.5);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.25);

  (void)q.pop_next();  // the switch item
  EXPECT_TRUE(std::isinf(q.next_switch_time()));
  EXPECT_DOUBLE_EQ(q.next_closure_time(), 2.5);
}

// ---- oracle fuzz ----------------------------------------------------------
// The reference model: every pending event as plain data. Pops are checked
// against the (t, seq)-minimum of this list, the same discipline as the
// table index's lookup_linear_reference() oracle.
struct RefEvent {
  double t = 0.0;
  std::uint64_t seq = 0;
  net::EventKind kind = net::EventKind::kClosure;
  int id = 0;  // closure payload: the value its fn writes
  net::TickTarget* tick = nullptr;
  net::SwitchWork work;
};

bool ref_before(const RefEvent& a, const RefEvent& b) {
  return a.t != b.t ? a.t < b.t : a.seq < b.seq;
}

class NullTick : public net::TickTarget {
 public:
  void tick(net::SimTime) override {}
};

class QueueOracle {
 public:
  explicit QueueOracle(std::uint64_t seed) : rng_(seed) {}

  void schedule_random() {
    RefEvent e;
    // A small grid of timestamps at or after now(), so both heaps keep
    // colliding on equal t and the seq tie-break decides.
    e.t = q_.now() + 0.5 * static_cast<double>(pick(0, 6));
    e.seq = next_seq_++;
    switch (pick(0, 4)) {
      case 0: {
        e.kind = net::EventKind::kClosure;
        e.id = next_id_++;
        const int id = e.id;
        q_.schedule_at(e.t, [this, id] { fired_ = id; });
        break;
      }
      case 1:
        e.kind = net::EventKind::kTick;
        e.tick = &ticks_[static_cast<std::size_t>(pick(0, 2))];
        q_.schedule_tick_at(e.t, e.tick);
        break;
      case 2:
        e.kind = net::EventKind::kPacketSend;
        e.work.sw = pick(0, 15);
        e.work.in_port = pick(0, 3);
        e.work.pkt = static_cast<net::PacketHandle>(pick(0, 1000));
        q_.schedule_packet_at(e.t, e.work.sw, e.work.in_port, e.work.pkt);
        break;
      case 3:
        e.kind = net::EventKind::kSwitchWork;
        e.work.sw = pick(0, 15);
        e.work.in_port = pick(0, 3);
        e.work.pkt = static_cast<net::PacketHandle>(pick(0, 1000));
        q_.schedule_switch_at(e.t, e.work.sw, e.work.in_port, e.work.pkt);
        break;
      default:
        e.kind = net::EventKind::kSwitchWork;
        e.work.sw = pick(0, 15);
        e.work.ctl = static_cast<net::ControlHandle>(pick(0, 1000));
        q_.schedule_control_at(e.t, e.work.sw, e.work.ctl);
        break;
    }
    ref_.push_back(e);
  }

  void pop_next_and_check() {
    if (ref_.empty()) return;
    auto it = std::min_element(ref_.begin(), ref_.end(), ref_before);
    const RefEvent want = *it;
    ref_.erase(it);
    net::EventQueue::Item got = q_.pop_next();
    q_.advance_now(got.t);
    expect_same(got, want);
  }

  void pop_window_and_check() {
    if (ref_.empty()) return;
    std::sort(ref_.begin(), ref_.end(), ref_before);
    const double t0 = ref_.front().t;
    const double limit = t0 + 0.5 * static_cast<double>(pick(-1, 4));
    const double window_end = t0 + 0.5 * static_cast<double>(pick(0, 4));
    std::vector<RefEvent> want;
    std::vector<RefEvent> keep;
    for (const RefEvent& e : ref_) {
      const bool in = e.t <= limit && (e.t == t0 || e.t < window_end);
      (in ? want : keep).push_back(e);
    }
    ref_ = keep;
    std::vector<net::EventQueue::Item> got;
    q_.pop_window(limit, window_end, got);
    ASSERT_EQ(got.size(), want.size()) << ctx();
    for (std::size_t i = 0; i < got.size(); ++i) expect_same(got[i], want[i]);
    if (!got.empty()) q_.advance_now(got.back().t);
  }

  void check_probes() {
    ASSERT_EQ(q_.pending(), ref_.size()) << ctx();
    ASSERT_EQ(q_.empty(), ref_.empty()) << ctx();
    double next = INFINITY;
    double closure = INFINITY;
    double sw = INFINITY;
    for (const RefEvent& e : ref_) {
      next = std::min(next, e.t);
      if (e.kind == net::EventKind::kSwitchWork) {
        sw = std::min(sw, e.t);
      } else {
        closure = std::min(closure, e.t);
      }
    }
    if (!ref_.empty()) {
      EXPECT_EQ(q_.next_time(), next) << ctx();
    }
    EXPECT_EQ(q_.next_closure_time(), closure) << ctx();
    EXPECT_EQ(q_.next_switch_time(), sw) << ctx();
  }

  int pick(int lo, int hi) {
    return std::uniform_int_distribution<int>(lo, hi)(rng_);
  }
  std::size_t pending() const { return ref_.size(); }
  std::uint64_t ops = 0;

 private:
  std::string ctx() const { return "after op " + std::to_string(ops); }

  void expect_same(net::EventQueue::Item& got, const RefEvent& want) {
    ASSERT_EQ(got.seq, want.seq) << ctx();
    EXPECT_EQ(got.t, want.t) << ctx();
    ASSERT_EQ(got.kind, want.kind) << ctx();
    EXPECT_EQ(got.is_switch_work(), want.kind == net::EventKind::kSwitchWork);
    // Only closures carry a function; a reused slot must not leak one.
    ASSERT_EQ(static_cast<bool>(got.fn),
              want.kind == net::EventKind::kClosure)
        << ctx();
    EXPECT_EQ(got.tick, want.tick) << ctx();
    if (want.kind == net::EventKind::kClosure) {
      fired_ = -1;
      got.fn();
      EXPECT_EQ(fired_, want.id) << ctx();
    } else {
      EXPECT_EQ(got.work.sw, want.work.sw) << ctx();
      EXPECT_EQ(got.work.in_port, want.work.in_port) << ctx();
      EXPECT_EQ(got.work.pkt, want.work.pkt) << ctx();
      EXPECT_EQ(got.work.ctl, want.work.ctl) << ctx();
    }
  }

  std::mt19937_64 rng_;
  net::EventQueue q_;
  std::vector<RefEvent> ref_;
  NullTick ticks_[3];
  std::uint64_t next_seq_ = 0;
  int next_id_ = 0;
  int fired_ = -1;
};

// Random interleavings of all five schedule kinds with pop_next and
// pop_window. The queue stays shallow most of the time (heavy slot reuse)
// with occasional bursts that grow the slot store, and every pop is
// compared field by field against the reference.
TEST(EventQueue, OracleFuzzAgainstSortedReference) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    QueueOracle o(seed);
    for (int op = 0; op < 4000; ++op) {
      o.ops = static_cast<std::uint64_t>(op);
      const int r = o.pick(0, 99);
      if (r < 2) {
        const int burst = o.pick(20, 200);
        for (int i = 0; i < burst; ++i) o.schedule_random();
      } else if (r < 50 || o.pending() == 0) {
        o.schedule_random();
      } else if (r < 85) {
        o.pop_next_and_check();
      } else {
        o.pop_window_and_check();
      }
      o.check_probes();
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "seed " << seed << " op " << op;
      }
    }
    while (o.pending() > 0) o.pop_next_and_check();
    o.check_probes();
  }
}

// Exposes the protected commit-merge primitive for direct testing.
class ProbeEngine : public net::ExecutionEngine {
 public:
  explicit ProbeEngine(net::Network& net) : ExecutionEngine(net) {}
  const char* name() const override { return "probe"; }
  int workers() const override { return 1; }
  void drain(net::EventQueue&, net::SimTime) override {}
  void run_spawned_before(net::EventQueue& q, net::SimTime t) {
    drain_spawned_before(q, t);
  }
};

// drain_spawned_before runs everything strictly BEFORE t — an event at
// exactly t is the commit about to be applied (or a peer in its same-t
// group) and must stay queued, or it would run twice.
TEST(EventQueue, DrainSpawnedBeforeIsStrict) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  ProbeEngine probe(net);
  net::EventQueue q;

  std::vector<int> ran;
  q.schedule_at(1.0, [&] { ran.push_back(1); });
  q.schedule_at(2.0, [&] { ran.push_back(2); });
  q.schedule_at(2.0, [&] { ran.push_back(3); });
  q.schedule_at(3.0, [&] { ran.push_back(4); });

  probe.run_spawned_before(q, 2.0);
  EXPECT_EQ(ran, (std::vector<int>{1}));
  EXPECT_EQ(q.pending(), 3u);
  EXPECT_DOUBLE_EQ(q.now(), 1.0);  // clock advanced to what it executed

  // Nudging the key past 2.0 releases the whole t == 2.0 group, in order.
  probe.run_spawned_before(q, 2.0 + 1e-9);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.pending(), 1u);
}

// A spawn DURING the merge that lands before the key is itself merged
// (commits can cascade closures inside the window); one landing at/after
// the key stays for the next commit or window.
TEST(EventQueue, DrainSpawnedBeforeMergesCascadedSpawns) {
  auto fabric = net::make_leaf_spine(2, 2, 2);
  net::Network net(fabric.topo);
  ProbeEngine probe(net);
  net::EventQueue q;

  std::vector<int> ran;
  q.schedule_at(1.0, [&] {
    ran.push_back(1);
    q.schedule_at(1.5, [&] { ran.push_back(2); });  // in-window: runs now
    q.schedule_at(2.5, [&] { ran.push_back(3); });  // out: stays queued
  });
  probe.run_spawned_before(q, 2.0);
  EXPECT_EQ(ran, (std::vector<int>{1, 2}));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

}  // namespace
}  // namespace hydra
