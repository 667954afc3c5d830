#include "ledger.hpp"

#include <algorithm>
#include <chrono>
#include <random>
#include <utility>

#include "p4rt/interp.hpp"
#include "p4rt/tele_codec.hpp"

namespace hydrabench {

namespace hn = hydra::net;
namespace p4 = hydra::p4rt;
using hydra::BitVec;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Ledger::reset_spans() {
  std::vector<HopCapture> keep = std::move(captures);
  *this = Ledger{};
  captures = std::move(keep);
}

// Mirrors SerialEngine::drain (net/engine.cpp) call for call, with a clock
// read at each layer boundary; consecutive spans share their boundary read.
void LedgerExecutor::drain(hn::EventQueue& q, hn::SimTime limit) {
  Ledger& L = ledger_;
  hydra::obs::ExportScheduler* sched = net_.export_scheduler_ptr();
  std::int64_t t = now_ns();
  while (q.has_ready(limit)) {
    const std::uint64_t depth = q.pending();
    hn::EventQueue::Item item = q.pop_next();
    std::int64_t t1 = now_ns();
    L.pop_ns += t1 - t;
    ++L.events;
    L.pending_max = std::max(L.pending_max, depth);
    if (sched != nullptr && item.t >= sched->next_tick()) {
      net_.export_tick_until(item.t);
      const std::int64_t t2 = now_ns();
      L.export_ns += t2 - t1;
      ++L.exports;
      t1 = t2;
    }
    q.advance_now(item.t);
    switch (item.kind) {
      case hn::EventKind::kSwitchWork: {
        hn::ExecContext& ctx = net_.context_for_switch(item.work.sw);
        const bool packet = item.work.ctl == hn::kNullHandle;
        if (packet && L.hops % Ledger::kSampleEvery == 0 &&
            L.captures.size() < Ledger::kMaxCaptures) {
          HopCapture& cap = L.captures.emplace_back();
          cap.sw = item.work.sw;
          cap.in_port = item.work.in_port;
          L.capturing = &cap;
        }
        net_.compute_hop(ctx, item.t, item.work, ctx.scratch);
        L.capturing = nullptr;
        const std::int64_t t2 = now_ns();
        L.compute_ns += t2 - t1;
        net_.commit_hop(item.t, std::move(item.work), std::move(ctx.scratch));
        t = now_ns();
        L.commit_ns += t - t2;
        if (packet) {
          ++L.hops;
        } else {
          ++L.control_ops;
        }
        break;
      }
      case hn::EventKind::kPacketSend:
        net_.deliver_packet(item.work);
        t = now_ns();
        L.deliver_ns += t - t1;
        ++L.deliveries;
        break;
      case hn::EventKind::kTick:
        item.tick->tick(item.t);
        t = now_ns();
        L.tick_ns += t - t1;
        ++L.ticks;
        break;
      case hn::EventKind::kClosure:
        item.fn();
        t = now_ns();
        L.closure_ns += t - t1;
        ++L.closures;
        break;
    }
  }
}

hn::ForwardingProgram::Decision TimedProgram::process(p4::Packet& pkt,
                                                      int in_port,
                                                      int switch_id) {
  HopCapture* cap = ledger_.capturing;
  if (cap != nullptr) {
    const std::int64_t c0 = now_ns();
    cap->pre = pkt;
    ledger_.capture_ns += now_ns() - c0;
  }
  const std::int64_t t0 = now_ns();
  const Decision d = inner_->process(pkt, in_port, switch_id);
  const std::int64_t t1 = now_ns();
  ledger_.forwarding_ns += t1 - t0;
  ++ledger_.forwarding_calls;
  if (cap != nullptr) {
    cap->post = pkt;
    cap->decision = d;
    ledger_.capture_ns += now_ns() - t1;
  }
  return d;
}

// ---------------------------------------------------------------------------
// Replay stage
// ---------------------------------------------------------------------------

namespace {

constexpr int kReps = 7;
// Rounds of the four block passes. A block's cost is the median of its
// per-round differences: the passes of one round run back to back, so a
// host slowdown lasting longer than a round cancels out of the difference.
constexpr int kBlockReps = 31;

// Replayed results land here so no timed pass can be optimised away.
volatile std::uint64_t g_sink = 0;

// Fastest of the timed passes: the least-disturbed estimate of work that
// is identical on every pass.
double fastest(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

// Median of a[i] - b[i].
double median_diff(const std::vector<double>& a, const std::vector<double>& b) {
  std::vector<double> d;
  for (std::size_t i = 0; i < a.size() && i < b.size(); ++i) {
    d.push_back(a[i] - b[i]);
  }
  if (d.empty()) return 0.0;
  std::nth_element(d.begin(), d.begin() + d.size() / 2, d.end());
  return d[d.size() / 2];
}

// Wire size as the network computes it: headers plus every live frame.
int wire_bytes(hn::Network& net, const p4::Packet& pkt, bool frames) {
  int bytes = pkt.base_wire_bytes();
  if (!frames) return bytes;
  for (const auto& f : pkt.tele) {
    if (f.checker < 0 || f.checker >= net.deployment_count()) continue;
    bytes += net.checker(f.checker).layout.wire_bytes;
  }
  return bytes;
}

struct PreparedHop {
  const HopCapture* cap = nullptr;
  hn::HopContext pre;   // as the init block sees it
  hn::HopContext post;  // as the telemetry and check blocks see it
};

// Borrows each (deployment, switch) checker state out of the network for
// the replay and gives it back on destruction.
class BorrowedStates {
 public:
  explicit BorrowedStates(hn::Network& net) : net_(net) {
    states_.resize(static_cast<std::size_t>(net.deployment_count()) *
                   static_cast<std::size_t>(net.topo().node_count()));
  }
  ~BorrowedStates() {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] != nullptr) exchange(i);
    }
  }
  BorrowedStates(const BorrowedStates&) = delete;
  BorrowedStates& operator=(const BorrowedStates&) = delete;

  p4::CheckerState& get(int dep, int sw) {
    const std::size_t i = index(dep, sw);
    if (states_[i] == nullptr) {
      states_[i] = std::make_unique<p4::CheckerState>(
          p4::make_checker_state(net_.checker(dep).ir));
      exchange(i);
    }
    return *states_[i];
  }

 private:
  std::size_t index(int dep, int sw) const {
    return static_cast<std::size_t>(dep) *
               static_cast<std::size_t>(net_.topo().node_count()) +
           static_cast<std::size_t>(sw);
  }
  void exchange(std::size_t i) {
    const int n = net_.topo().node_count();
    const int dep = static_cast<int>(i) / n;
    const int sw = static_cast<int>(i) % n;
    const auto& ir = net_.checker(dep).ir;
    p4::CheckerState& st = *states_[i];
    for (std::size_t t = 0; t < ir.tables.size(); ++t) {
      std::swap(st.tables[t], net_.checker_table(dep, sw, ir.tables[t].name));
    }
    for (std::size_t r = 0; r < ir.registers.size(); ++r) {
      std::swap(st.registers[r],
                net_.checker_register(dep, sw, ir.registers[r].name));
    }
  }

  hn::Network& net_;
  std::vector<std::unique_ptr<p4::CheckerState>> states_;
};

enum PassMode : unsigned { kFramesOnly = 0, kInit = 1, kTele = 2, kCheck = 4 };

struct HeaderRead {
  const std::string* annotation = nullptr;
  int width = 0;
  std::uint32_t hop = 0;
  bool post = false;
};

}  // namespace

ReplayResult replay(hn::Network& net, const std::vector<HopCapture>& caps) {
  ReplayResult r;
  std::vector<PreparedHop> hops;
  for (const HopCapture& c : caps) {
    if (c.sw < 0 || c.pre.id == 0) continue;  // forwarding never ran
    PreparedHop h;
    h.cap = &c;
    h.pre.switch_id = c.sw;
    h.pre.switch_tag = static_cast<std::uint32_t>(c.sw + 1);
    h.pre.in_port = c.in_port;
    h.pre.first_hop = net.topo().host_facing({c.sw, c.in_port});
    h.pre.wire_bytes = wire_bytes(net, c.pre, !h.pre.first_hop);
    h.post = h.pre;
    h.post.eg_port = c.decision.eg_port;
    h.post.fwd_drop = c.decision.drop;
    h.post.last_hop =
        c.decision.drop || (c.decision.eg_port >= 0 &&
                            net.topo().host_facing({c.sw, c.decision.eg_port}));
    h.post.wire_bytes = wire_bytes(net, c.post, true);
    hops.push_back(h);
  }
  r.hops = hops.size();
  if (hops.empty()) return r;
  const double n_hops = static_cast<double>(hops.size());

  const int ndep = net.deployment_count();
  BorrowedStates states(net);
  std::vector<std::unique_ptr<p4::Interp>> interps;
  for (int d = 0; d < ndep; ++d) {
    interps.push_back(std::make_unique<p4::Interp>(net.checker(d).ir));
  }
  std::vector<BitVec> vals;
  p4::ExecOutcome out;
  p4::TeleFrame scratch;
  std::vector<HeaderRead>* log = nullptr;  // armed for the counting pass

  // One pass over the sample in the order compute_hop runs each
  // deployment's blocks; `mode` selects which blocks execute (value-store
  // reset, frame load and frame store always run).
  auto pass = [&](unsigned mode) {
    for (std::uint32_t hi = 0; hi < hops.size(); ++hi) {
      const PreparedHop& h = hops[hi];
      auto resolver_pre = [&](const std::string& a, int w) {
        if (log != nullptr) log->push_back({&a, w, hi, false});
        return hn::resolve_header(h.cap->pre, h.pre, a, w);
      };
      auto resolver_post = [&](const std::string& a, int w) {
        if (log != nullptr) log->push_back({&a, w, hi, true});
        return hn::resolve_header(h.cap->post, h.post, a, w);
      };
      for (int d = 0; d < ndep; ++d) {
        const auto& cc = net.checker(d);
        p4::Interp& in = *interps[static_cast<std::size_t>(d)];
        p4::CheckerState& st = states.get(d, h.cap->sw);
        if (h.pre.first_hop) {
          in.reset_store(vals);
          if ((mode & kInit) != 0) {
            out.reject = false;
            out.reports.clear();
            in.run(cc.ir.init_block, vals, st, resolver_pre, out);
          }
          in.store_frame(vals, scratch);
        }
        const p4::TeleFrame* f = h.cap->post.frame(d);
        if (f == nullptr) continue;
        in.reset_store(vals);
        in.load_frame(*f, vals);
        out.reject = false;
        out.reports.clear();
        if ((mode & kTele) != 0) {
          in.run(cc.ir.tele_block, vals, st, resolver_post, out);
        }
        const bool run_check =
            h.post.last_hop || cc.options.placement ==
                                   hydra::compiler::CheckPlacement::kEveryHop;
        if ((mode & kCheck) != 0 && run_check) {
          in.run(cc.ir.check_block, vals, st, resolver_post, out);
        }
        in.store_frame(vals, scratch);
      }
    }
  };
  auto timed = [&](unsigned mode) {
    const std::int64_t t0 = now_ns();
    pass(mode);
    return static_cast<double>(now_ns() - t0);
  };

  // Counting pass: instructions, checker table lookups, header reads.
  hydra::obs::Registry reg;
  hydra::p4rt::InterpMetrics im;
  im.instructions = reg.counter("instructions");
  im.table_lookups = reg.counter("table_lookups");
  for (auto& in : interps) in->attach_metrics(im);
  std::vector<HeaderRead> reads;
  log = &reads;
  pass(kInit | kTele | kCheck);
  log = nullptr;
  for (auto& in : interps) in->attach_metrics(hydra::p4rt::InterpMetrics{});
  r.instr_per_hop = static_cast<double>(im.instructions.value()) / n_hops;
  r.checker_lookups_per_hop =
      static_cast<double>(im.table_lookups.value()) / n_hops;
  r.header_reads_per_hop = static_cast<double>(reads.size()) / n_hops;

  // Block costs as differences of whole-sample passes, so clock reads
  // never sit inside the measured work.
  std::vector<double> p0, p1, p2, p3;
  for (int rep = 0; rep < kBlockReps; ++rep) {
    p0.push_back(timed(kFramesOnly));
    p1.push_back(timed(kInit));
    p2.push_back(timed(kInit | kTele));
    p3.push_back(timed(kInit | kTele | kCheck));
  }
  r.frame_ns = fastest(p0) / n_hops;
  r.init_ns = median_diff(p1, p0) / n_hops;
  r.tele_ns = median_diff(p2, p1) / n_hops;
  r.check_ns = median_diff(p3, p2) / n_hops;

  // Header binding alone: the logged reads, replayed back to back.
  std::uint64_t sink = 0;
  if (!reads.empty()) {
    std::vector<double> t;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::int64_t t0 = now_ns();
      for (const HeaderRead& rd : reads) {
        const PreparedHop& h = hops[rd.hop];
        sink += hn::resolve_header(rd.post ? h.cap->post : h.cap->pre,
                                   rd.post ? h.post : h.pre, *rd.annotation,
                                   rd.width)
                    .value();
      }
      t.push_back(static_cast<double>(now_ns() - t0));
    }
    r.header_read_ns = fastest(t) / static_cast<double>(reads.size());
  }

  // Telemetry wire codec round trip over every live frame leaving a hop.
  std::vector<const p4::TeleFrame*> frames;
  for (const PreparedHop& h : hops) {
    for (const auto& f : h.cap->post.tele) {
      if (f.checker >= 0 && f.checker < ndep) frames.push_back(&f);
    }
  }
  r.frames = frames.size();
  if (!frames.empty()) {
    std::vector<double> t;
    p4::TeleFrame parsed;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::int64_t t0 = now_ns();
      for (const p4::TeleFrame* f : frames) {
        const auto& cc = net.checker(f->checker);
        const auto bytes = p4::serialize_frame(cc.layout, cc.ir, *f);
        sink += static_cast<std::uint64_t>(p4::parse_frame_checked(
            cc.layout, cc.ir, f->checker, bytes, parsed));
      }
      t.push_back(static_cast<double>(now_ns() - t0));
    }
    r.wire_rt_ns = fastest(t) / static_cast<double>(frames.size());
  }

  // Table::lookup on every populated checker table, one key per entry (at
  // most kMaxKeysPerTable, evenly spaced), in one shuffled order across all
  // tables. On upf_churn the per-session tables span far more than the
  // last-level cache, so each pass misses as the workload's lookups do;
  // consecutive keys differ, so the last-hit cache does not serve them.
  constexpr std::size_t kMaxKeysPerTable = std::size_t{1} << 17;
  constexpr int kLookupPasses = 3;
  struct Probe {
    const p4::Table* table;
    std::vector<BitVec> key;
  };
  std::vector<Probe> probes;
  for (int d = 0; d < ndep; ++d) {
    for (int sw = 0; sw < net.topo().node_count(); ++sw) {
      if (net.topo().node(sw).kind != hn::NodeKind::kSwitch) continue;
      for (const auto& td : net.checker(d).ir.tables) {
        const p4::Table& tab = states.get(d, sw).tables[static_cast<std::size_t>(
            net.checker(d).ir.find_table(td.name))];
        if (tab.size() == 0 || tab.key_spec().empty()) continue;
        const std::size_t n = tab.size();
        const std::size_t step =
            std::max<std::size_t>(1, (n + kMaxKeysPerTable - 1) /
                                         kMaxKeysPerTable);
        for (std::size_t e = 0; e < n; e += step) {
          const p4::TableEntry& entry = tab.entries()[e];
          Probe p{&tab, {}};
          for (std::size_t k = 0; k < tab.key_spec().size(); ++k) {
            const p4::KeyPattern& pat = entry.patterns[k];
            p.key.push_back(tab.key_spec()[k].kind == p4::MatchKind::kRange
                                ? pat.lo
                                : pat.value);
          }
          probes.push_back(std::move(p));
        }
        ++r.lookup_tables;
      }
    }
  }
  r.lookup_keys = probes.size();
  std::shuffle(probes.begin(), probes.end(), std::mt19937_64(0x5eed));
  if (r.lookup_keys > 0) {
    std::vector<double> t;
    for (int rep = 0; rep < kLookupPasses; ++rep) {
      const std::int64_t t0 = now_ns();
      for (const Probe& p : probes) {
        sink += p.table->lookup(p.key) != nullptr ? 1 : 0;
      }
      t.push_back(static_cast<double>(now_ns() - t0));
    }
    std::sort(t.begin(), t.end());
    r.lookup_ns = t[t.size() / 2] / static_cast<double>(r.lookup_keys);
  }
  g_sink = sink;
  return r;
}

}  // namespace hydrabench
