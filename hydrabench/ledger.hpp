// The traced run's hop-cost ledger. All spans are taken from outside the
// program, around calls into each layer's public functions:
//
//   (a) LedgerExecutor: an EventExecutor installed with
//       EventQueue::set_executor that mirrors SerialEngine::drain and
//       times pop_next, compute_hop, commit_hop, deliver_packet,
//       TickTarget::tick, closures and export_tick_until;
//   (b) TimedProgram: a ForwardingProgram decorator timing process() and
//       forwarding every other virtual to the wrapped program;
//   (c) replay(): re-runs a sample of captured hops through
//       p4rt::Interp::run (with a counting HeaderResolver around
//       net::resolve_header and InterpMetrics counters attached), and
//       replays load_frame/store_frame, Table::lookup on the workload's
//       populated checker tables, and the telemetry wire codec.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/event.hpp"
#include "net/network.hpp"
#include "net/switch_node.hpp"
#include "p4rt/packet.hpp"

namespace hydrabench {

std::int64_t now_ns();

// One sampled switch hop: the packet as the forwarding program received it
// (what the init block observes) and as it left it (what the telemetry and
// check blocks observe), plus the decision.
struct HopCapture {
  int sw = -1;
  int in_port = -1;
  hydra::p4rt::Packet pre;
  hydra::p4rt::Packet post;
  hydra::net::ForwardingProgram::Decision decision;
};

struct Ledger {
  // Span totals (ns) and the events they cover. Every top-level span is
  // main-thread time inside EventQueue draining.
  std::int64_t pop_ns = 0;
  std::int64_t export_ns = 0;
  std::int64_t compute_ns = 0;
  std::int64_t commit_ns = 0;
  std::int64_t deliver_ns = 0;
  std::int64_t tick_ns = 0;
  std::int64_t closure_ns = 0;
  std::int64_t forwarding_ns = 0;  // nested in compute_ns
  std::int64_t capture_ns = 0;     // hop sampling copies, nested in compute

  std::uint64_t events = 0;
  std::uint64_t exports = 0;
  std::uint64_t hops = 0;          // packet hops committed
  std::uint64_t control_ops = 0;   // switch work carrying a ControlOp
  std::uint64_t deliveries = 0;    // link arrivals (kPacketSend)
  std::uint64_t ticks = 0;
  std::uint64_t closures = 0;
  std::uint64_t forwarding_calls = 0;
  std::uint64_t pending_max = 0;   // queue depth at pop, incl. the item

  // Hop sampling for the replay stage: every kSampleEvery-th packet hop,
  // up to kMaxCaptures.
  static constexpr std::uint64_t kSampleEvery = 64;
  static constexpr std::size_t kMaxCaptures = 4096;
  std::vector<HopCapture> captures;
  HopCapture* capturing = nullptr;  // set around a sampled compute_hop

  std::int64_t covered_ns() const {
    return pop_ns + export_ns + compute_ns + commit_ns + deliver_ns +
           tick_ns + closure_ns;
  }
  // Zeroes the span totals and counters; keeps captures.
  void reset_spans();
};

class LedgerExecutor final : public hydra::net::EventExecutor {
 public:
  LedgerExecutor(hydra::net::Network& net, Ledger& ledger)
      : net_(net), ledger_(ledger) {}
  void drain(hydra::net::EventQueue& q, hydra::net::SimTime limit) override;

 private:
  hydra::net::Network& net_;
  Ledger& ledger_;
};

class TimedProgram final : public hydra::net::ForwardingProgram {
 public:
  TimedProgram(std::shared_ptr<hydra::net::ForwardingProgram> inner,
               Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  Decision process(hydra::p4rt::Packet& pkt, int in_port,
                   int switch_id) override;
  std::string name() const override { return inner_->name(); }
  void attach_metrics(hydra::obs::Registry* registry) override {
    inner_->attach_metrics(registry);
  }
  void attach_metrics_sharded(MetricsResolver resolve) override {
    inner_->attach_metrics_sharded(std::move(resolve));
  }
  bool concurrent_safe() const override { return inner_->concurrent_safe(); }
  void set_concurrent(bool on) override { inner_->set_concurrent(on); }
  void invalidate_caches() override { inner_->invalidate_caches(); }
  bool has_state() const override { return inner_->has_state(); }
  void save_state(std::ostream& out) const override {
    inner_->save_state(out);
  }
  void load_state(std::istream& in) override { inner_->load_state(in); }

 private:
  std::shared_ptr<hydra::net::ForwardingProgram> inner_;
  Ledger& ledger_;
};

// Per-hop costs from replaying captured hops; nanosecond figures come from
// the fastest of several timed passes over the whole sample.
struct ReplayResult {
  std::size_t hops = 0;
  double init_ns = 0.0;    // per replayed hop (0 on hops that do not init)
  double tele_ns = 0.0;    // per replayed hop
  double check_ns = 0.0;   // per replayed hop (0 where no check runs)
  double frame_ns = 0.0;   // value-store reset + load_frame + store_frame
  double instr_per_hop = 0.0;
  double checker_lookups_per_hop = 0.0;
  double header_read_ns = 0.0;  // per resolve_header call
  double header_reads_per_hop = 0.0;
  double wire_rt_ns = 0.0;      // serialize_frame + parse_frame_checked
  std::size_t frames = 0;
  // Per Table::lookup over every entry of the populated tables, shuffled;
  // the median of three passes, not the fastest, since each pass is cold.
  double lookup_ns = 0.0;
  std::size_t lookup_tables = 0;
  std::size_t lookup_keys = 0;
};

// Replays `caps` against `net`'s deployed checkers. The network must be
// idle; its checker tables and registers are borrowed for the replay
// (swapped out and back), so register contents may change.
ReplayResult replay(hydra::net::Network& net,
                    const std::vector<HopCapture>& caps);

}  // namespace hydrabench
