// The simulated network: topology + links + switches (forwarding programs
// and deployed Hydra checkers) + hosts + the event queue.
//
// The per-hop pipeline mirrors the paper's linking rules (§4.2):
//   1. first hop (host-facing ingress on an edge switch): run each
//      checker's init block and inject its telemetry frame;
//   2. the forwarding program computes the egress port (and may rewrite
//      the packet — GTP encap/decap, source-route pop);
//   3. every hop (egress): run the telemetry block;
//   4. last hop (host-facing egress, or a forwarding drop, which ends the
//      packet's journey): run the checker block, honour reject, emit
//      reports, and strip telemetry before the packet reaches the host.
//
// ---- Execution engines ----------------------------------------------------
// Pipeline execution is pulled out of the event loop and split into a
// side-effect-confined COMPUTE step and a globally-ordered COMMIT step so
// an execution engine (net/engine.hpp) can run the compute step for
// different switches on different worker threads:
//
//   * compute_hop() runs init/forwarding/telemetry/check for one packet at
//     one switch. It may touch ONLY (a) the packet, (b) that switch's
//     per-switch checker state (tables/registers) and the forwarding
//     program's switch-confined state, and (c) the ExecContext it is
//     handed. Everything else it produces — reports, counter bumps, the
//     forwarding decision, trace records — is returned in a HopResult.
//   * commit_hop() applies a HopResult's global effects (report emission +
//     callbacks, simulation counters, trace appends, transmission onto
//     links, new event scheduling). Engines call it single-threaded in
//     canonical (time, seq) order, so every global data structure evolves
//     exactly as under serial execution.
//
// OWNERSHIP RULE (per-worker execution contexts): all per-packet scratch —
// the slot-program executor (whose table-key buffer is reused across
// lookups), the slot store, the header array, the ExecOutcome scratch, the
// hot-path observability handles, and the RNG stream — lives in an
// ExecContext, one per engine worker, NEVER in the shared Deployment. A
// deployment-level scratch buffer is a latent shared-state hazard the
// moment two switches process packets concurrently.
//
// STATE-CONFINEMENT RULE: per-switch state (checker registers and tables,
// their last-hit caches, forwarding tables, cold_until_, swap phases,
// forensics rings) needs no locks because a switch runs on one thread at a
// time. The parallel engine's plan gives each switch of an epoch window to
// exactly one worker — its owning shard for that window — and the epoch
// handshake orders that worker before the next window's owner. Serial
// execution (and the parallel engine's serial windows) runs a switch on
// its home context, shard_of(sw).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compile.hpp"
#include "net/event.hpp"
#include "net/faults.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/switch_node.hpp"
#include "net/topology.hpp"
#include "obs/exporter.hpp"
#include "obs/forensics.hpp"
#include "obs/health.hpp"
#include "obs/httpd.hpp"
#include "obs/metrics.hpp"
#include "obs/topk.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "p4rt/slot_exec.hpp"
#include "util/arena.hpp"
#include "util/rng.hpp"

namespace hydra::net {

class ExecutionEngine;

enum class EngineKind { kSerial, kParallel };

struct ReportRecord {
  int deployment = -1;
  std::string checker;
  int switch_id = -1;
  double time = 0.0;
  std::vector<BitVec> values;
  // Identity of the packet that triggered the report (inner flow when
  // tunneled) and how many switches it had traversed, so a report is
  // actionable without attaching a debugger to the simulation.
  p4rt::FlowId flow;
  int hop_count = 0;
};

// Everything one hop's compute step produced that must be applied to
// shared state; engines hand it back to Network::commit_hop in canonical
// order.
struct HopResult {
  ForwardingProgram::Decision decision;
  bool last_hop = false;
  bool fwd_drop = false;
  bool rejected = false;
  // Bit d set for each deployment whose checker (or fail-closed telemetry
  // decode) rejected this hop; feeds per-property top-K attribution on the
  // commit path. deploy() caps slots at kMaxDeployments (64), so every
  // deployment id fits.
  std::uint64_t rejected_deps = 0;
  // Generations whose telemetry frames were rejected fail-closed this hop
  // because their deployment slot was retired or relinked (reason
  // "tele_stale_generation"). Attributed per GENERATION on the commit
  // path — never to the slot's current occupant, which may be a different
  // property after reuse. Capacity reused across hops (cleared, not
  // reallocated).
  std::vector<std::uint32_t> stale_generations;
  bool traced = false;
  std::vector<ReportRecord> reports;
  obs::TraceHop hop;  // filled only when traced

  // Control-plane work (ControlOp): the hop carried no packet; commit only
  // bumps fault stats.
  bool control = false;
  bool restarted = false;
  bool rule_pushed = false;

  // Fault-handling effects produced in compute and folded into the
  // injector's stats at commit (compute must not touch shared counters).
  // `reject_reason` is a static string ("tele_bad_tag", ...) set when a
  // damaged telemetry frame was rejected fail-closed this hop.
  const char* reject_reason = nullptr;
  std::uint8_t decode_rejects = 0;
  std::uint8_t decode_recovered = 0;
  std::uint8_t cold_suppressed = 0;
};

// Per-worker execution context (see OWNERSHIP RULE above). The serial
// engine has exactly one; the parallel engine one per worker. A parallel
// window runs a switch on its owning worker's context; serial paths use
// the switch's home context, Network::shard_of.
struct ExecContext {
  struct PerDeployment {
    std::unique_ptr<p4rt::SlotExec> exec;
    // Per-packet slot-store scratch reused across hops so the hot path
    // does not allocate.
    std::vector<std::uint64_t> slots;
    p4rt::ExecOutcome out;
    // Hot-path counters, attached to `sink` while observability is on.
    obs::Counter init_runs;
    obs::Counter tele_runs;
    obs::Counter check_runs;
    obs::Counter rejects;
    obs::Counter reports;
    // Fault-path counters: fail-closed telemetry decode verdicts and
    // cold-restart verdict suppression.
    obs::Counter decode_rejects;
    obs::Counter decode_recovered;
    obs::Counter cold_suppr;
    // Provenance scratch for the forensics flight recorder: armed on the
    // executor only while forensics is on; buffers reuse capacity across
    // packets, same discipline as `slots`.
    p4rt::ExecProvenance prov;
  };
  std::vector<PerDeployment> deps;  // indexed by deployment id
  // This hop's header values, indexed like Network::header_fields_: filled
  // from the pre-forwarding HopContext for init blocks, then from the
  // post-forwarding one for telemetry and check blocks.
  std::vector<std::uint64_t> hdr;
  // Where this context's hot-path counters land: the main registry for the
  // serial engine (and parallel shard 0), a shard-local shadow registry for
  // parallel workers — merged into the main registry at drain barriers so
  // snapshots are identical across engines and worker counts. Null while
  // observability is off.
  obs::Registry* sink = nullptr;
  std::unique_ptr<obs::Registry> shadow;
  // Per-worker deterministic RNG stream. Hot-path randomness must be keyed
  // on packet/switch data (not drawn from a global stream) to keep results
  // independent of the engine's interleaving.
  Rng rng{0};
  HopResult scratch;  // reused by serial (compute-then-commit) execution
};

class Network {
 public:
  explicit Network(Topology topo);
  ~Network();

  EventQueue& events() { return events_; }
  const Topology& topo() const { return topo_; }
  Host& host(int node_id);
  Link& link(int index) { return links_[static_cast<std::size_t>(index)]; }
  std::size_t link_count() const { return links_.size(); }

  // ---- execution engine -------------------------------------------------
  // Selects how the event queue is drained. kSerial (the default) executes
  // every event inline on the calling thread, bit-identical to the
  // pre-engine simulator. kParallel runs a fixed pool of `workers` threads
  // that execute same-epoch switch work concurrently, sharded by switch
  // id; reports, metrics snapshots, and final switch state are identical
  // to the serial engine for any worker count. `workers` <= 0 picks a
  // default. Must be called while the event queue is idle.
  void set_engine(EngineKind kind, int workers = 0);
  EngineKind engine_kind() const { return engine_kind_; }
  int engine_workers() const { return engine_workers_; }

  // ---- forwarding -------------------------------------------------------
  void set_program(int switch_id, std::shared_ptr<ForwardingProgram> prog);
  ForwardingProgram* program(int switch_id);

  // ---- Hydra deployment (control-plane API) -----------------------------
  // Deployment slots are bounded (rejected_deps is a 64-bit mask); deploy
  // throws std::runtime_error when all slots are live. Retired slots are
  // REUSED — the new property gets a fresh generation tag, so straggler
  // frames of the old occupant reject fail-closed instead of being
  // misattributed. deploy and deploy_rolling bind the checker's header
  // annotations first and throw std::invalid_argument, naming the checker
  // and the annotation, for one the data plane does not know (see
  // bind_header); nothing is staged then.
  static constexpr int kMaxDeployments = 64;
  int deploy(std::shared_ptr<const compiler::CompiledChecker> checker);
  int deployment_count() const { return static_cast<int>(deployments_.size()); }
  const compiler::CompiledChecker& checker(int deployment) const;

  // ---- rolling deploy / undeploy ----------------------------------------
  // The staged-swap path: the checker is compiled and linked off to the
  // side (slot staged with a fresh generation, init stamping OFF), then
  // one kSwap ControlOp per switch — sharded and (time, seq)-ordered like
  // switch restarts — flips that switch to stamping the new frames. The
  // swap is atomic per switch and deterministic across engines. Call on
  // the main thread between drains (the event queue may hold traffic, but
  // the engine must not be mid-drain).
  int deploy_rolling(std::shared_ptr<const compiler::CompiledChecker> checker);
  // Sweeps per-switch disable swaps through the control channel. Frames
  // already in flight keep executing on switches that have not swapped
  // yet; once a switch swaps (and after the slot fully retires), its
  // frames are rejected fail-closed with reason "tele_stale_generation"
  // and counted per generation — never crashed on, never misattributed.
  void undeploy_rolling(int deployment);
  // Immediate undeploy; must be called while the event queue is idle (no
  // in-flight packets). The slot retires at once and becomes reusable.
  void undeploy(int deployment);
  // True while any rolling swap sweep has per-switch flips outstanding.
  bool swap_in_progress() const;
  // False once `deployment` has been undeployed (the slot may since have
  // been reused for a different property). Out-of-range ids throw.
  bool deployment_live(int deployment) const;
  // Generation tag of the slot's current occupant (monotone across the
  // whole network; never reused).
  std::uint32_t deployment_generation(int deployment) const;

  // Table for a control dict/set variable on one switch.
  p4rt::Table& checker_table(int deployment, int switch_id,
                             const std::string& var);
  // Config value(s) for a non-dict control variable on one switch.
  void set_config(int deployment, int switch_id, const std::string& var,
                  std::vector<BitVec> values);
  void set_config_all(int deployment, const std::string& var,
                      std::vector<BitVec> values);
  // Installs the same exact-match dict entry on every switch.
  void dict_insert_all(int deployment, const std::string& var,
                       const std::vector<BitVec>& key,
                       std::vector<BitVec> value);
  p4rt::RegisterArray& checker_register(int deployment, int switch_id,
                                        const std::string& var);

  // ---- fault injection (chaos harness) ----------------------------------
  // Arms the deterministic fault injector: the plan's schedule times are
  // RELATIVE to the arm time, its per-transmit dice are rolled on the
  // commit path only, and a fixed (plan, seed) pair yields bit-identical
  // outcomes under both engines at any worker count. Must be called while
  // the event queue is idle (outages and restarts are scheduled here).
  // With faults armed, damaged telemetry NEVER throws: a frame that fails
  // to re-parse becomes a counted, forensics-annotated checker reject.
  void arm_faults(const FaultPlan& plan, std::uint64_t seed);
  // Drops the injector (pending flap/restart events become no-ops). Must
  // be called while the event queue is idle.
  void disarm_faults();
  bool faults_armed() const { return faults_ != nullptr; }
  // Injector counters; a static all-zero snapshot while disarmed.
  const FaultStats& fault_stats() const;

  // Installs the same dict entry on every switch, but through the
  // control-plane channel: with faults armed, each switch's install lands
  // after the plan's push delay (+jitter), ordered against that switch's
  // packet hops. Falls back to dict_insert_all when disarmed.
  void dict_insert_all_delayed(int deployment, const std::string& var,
                               const std::vector<BitVec>& key,
                               const std::vector<BitVec>& value);

  // Reset semantics (each reset clears exactly one concern):
  //   * clear_reports()            — drops stored ReportRecords. Subscribed
  //     callbacks and all switch state (tables, registers) are untouched.
  //   * clear_report_subscribers() — drops the callbacks only.
  //   * reset_observability()      — zeroes every metric value, drops
  //     recorded packet traces, empties the forensics rings and stored
  //     ViolationReports, and drops profiler spans; registrations, the
  //     sampler, and switch state survive. No-op while observability is
  //     off.
  const std::vector<ReportRecord>& reports() const { return reports_; }
  void clear_reports() { reports_.clear(); }
  void clear_report_subscribers() { report_callbacks_.clear(); }

  // Push-based report delivery: callbacks fire at the simulation time the
  // report is raised (the switch-to-controller digest channel). Callbacks
  // may install table entries — that's the closed control loop the paper's
  // stateful firewall uses. Because such a callback may mutate state that
  // same-epoch switch work reads, the parallel engine degrades to serial
  // per-event execution while any callback is subscribed (determinism
  // over speed; the serial engine is unaffected).
  using ReportCallback = std::function<void(const ReportRecord&)>;
  void subscribe_reports(ReportCallback callback);
  bool has_report_callbacks() const { return !report_callbacks_.empty(); }

  // Tick-driven control loops (e.g. the Aether session-churn generator)
  // mutate table state synchronously from TickTarget::tick — the same
  // hazard as a report callback: same-epoch switch work may have computed
  // against pre-mutation tables. Registering here makes the parallel
  // engine degrade to serial per-event execution, preserving the
  // byte-identical differential at any worker count.
  void set_control_loop_active(bool on) { control_loop_active_ = on; }
  bool has_control_loop() const { return control_loop_active_; }

  // ---- traffic ----------------------------------------------------------
  // Sends from a host onto its access link at the current time. The
  // by-value overload moves `pkt` into a pooled slot (generic/test path);
  // hot-path generators use alloc_packet + the in-place builders +
  // send_pooled and never construct a Packet temporary.
  void send_from_host(int host_id, p4rt::Packet pkt);
  void send_pooled(int host_id, PacketHandle h);

  // ---- pooled in-flight storage -----------------------------------------
  // Packets and control ops live in slab arenas owned by the network;
  // events carry 32-bit handles, and slot buffers (tele frames, header
  // optionals) survive recycling so the steady-state hot path never
  // allocates (audited by util::arena_allocations()). OWNERSHIP: whoever
  // holds the handle frees it — alloc/free happen only on the main thread
  // (inject, commit, serial execution); parallel workers only READ slots
  // through these stable references during compute, which never overlaps a
  // main-thread alloc (see DESIGN.md "Arena storage").
  PacketHandle alloc_packet() {
    const PacketHandle h = packet_pool_.alloc();
    packet_pool_.get(h).reuse();
    return h;
  }
  p4rt::Packet& packet(PacketHandle h) { return packet_pool_.get(h); }
  const p4rt::Packet& packet(PacketHandle h) const {
    return packet_pool_.get(h);
  }
  void free_packet(PacketHandle h) { packet_pool_.free(h); }
  ControlOp& control_op(ControlHandle h) { return control_pool_.get(h); }
  std::size_t packets_in_flight() const { return packet_pool_.live(); }

  struct Counters {
    std::uint64_t injected = 0;
    std::uint64_t delivered = 0;
    std::uint64_t rejected = 0;      // dropped by a Hydra checker
    std::uint64_t fwd_dropped = 0;   // dropped by the forwarding program
    std::uint64_t queue_dropped = 0; // tail-dropped at a full buffer
    std::uint64_t fault_dropped = 0; // dropped by the fault injector
  };
  const Counters& counters() const { return counters_; }

  // ---- latency model ----------------------------------------------------
  // Switch traversal time: base + per-stage cost; stages come from the
  // baseline profile linked with all deployed checkers.
  void set_latency_model(double base_s, double per_stage_s) {
    base_proc_s_ = base_s;
    per_stage_s_ = per_stage_s;
  }
  void set_baseline_profile(compiler::BaselineProfile profile) {
    baseline_ = std::move(profile);
  }
  double switch_latency() const;
  int pipeline_stages() const;  // baseline linked with all deployments

  // When enabled, every telemetry frame is round-tripped through the
  // byte-exact wire codec at every hop (serialize -> parse -> compare),
  // proving that the compiled layout carries the checker state losslessly.
  // Throws std::logic_error on any mismatch. Costs ~2x on telemetry
  // processing; intended for tests and validation runs.
  void set_wire_validation(bool enabled) { wire_validation_ = enabled; }

  // ---- observability ----------------------------------------------------
  // Off by default, and off means free: instrumented components hold
  // detached obs handles, so the only per-packet cost is a handful of
  // predictable null-check branches — on both engines. Enabling wires
  // counters through every layer — per-table lookup hits/misses,
  // checker IR instruction counts, per-switch forwarded/dropped/rejected,
  // per-checker block-run and verdict counts — and arms the packet trace
  // sampler. Under the parallel engine, hot-path counters land in
  // shard-local registries and are merged at drain barriers. Disabling
  // detaches every handle again before the registry is destroyed.
  void set_observability(bool enabled);
  bool observability_enabled() const { return obs_ != nullptr; }

  // Both throw std::logic_error while observability is off.
  obs::Registry& metrics();
  obs::TraceSink& trace_sink();

  // Pull-model metrics (per-link bytes/packets/drops/utilization, table
  // entry counts, simulation totals) are gauges refreshed by
  // collect_metrics(); hot-path counters are always current.
  void collect_metrics();
  std::string metrics_json();  // collect_metrics() + registry export

  // Packets for which `sampler` returns true at injection are traced hop
  // by hop until the trace sink's capacity is reached. Implicitly enables
  // observability.
  using TraceSampler = std::function<bool(const p4rt::Packet&)>;
  void set_trace_sampler(TraceSampler sampler);
  // Convenience sampler: trace the next `n` injected packets.
  void trace_next(std::size_t n);

  void reset_observability();

  // ---- forensics (violation flight recorder) ----------------------------
  // Arms the always-on flight recorder: every per-hop checker execution
  // writes one fixed-size record into that switch's ring (`ring_capacity`
  // slots, allocated up front; recording never allocates). When a checker
  // rejects or reports, commit_hop assembles the packet's retained hops
  // into a ViolationReport. Implies observability. Disabling drops the
  // rings and the stored reports. Off means free: the per-hop cost is one
  // null check. Ring contents — and therefore the assembled reports and
  // their JSON — are byte-identical across engines and worker counts as
  // long as `ring_capacity` exceeds the records a single switch receives
  // within one epoch window (see DESIGN.md).
  void set_forensics(bool enabled, std::size_t ring_capacity = 512);
  bool forensics_enabled() const {
    return obs_ != nullptr && obs_->recorder != nullptr;
  }
  // Assembled reports, in commit order. Empty while forensics is off.
  const std::vector<obs::ViolationReport>& violation_reports() const;
  std::string violation_reports_json() const;
  void clear_violation_reports();
  // Reports kept per run; later violations still record, but only count.
  static constexpr std::size_t kMaxViolationReports = 1024;

  // ---- engine phase profiling -------------------------------------------
  // Arms the engine phase profiler (obs/profiler.hpp): engines record
  // pop_window/compute/commit/barrier spans and per-epoch gauges, exported
  // as Chrome trace-event JSON via engine_profiler().to_chrome_trace_json()
  // and as "engine.*" histograms/counters in metrics(). Implies
  // observability. Off means free: engines hold a null pointer.
  void set_engine_profiling(bool enabled);
  bool engine_profiling_enabled() const {
    return obs_ != nullptr && obs_->profiler != nullptr;
  }
  obs::EngineProfiler& engine_profiler();  // throws std::logic_error if off
  // Engine-facing: null while profiling is off (the disabled-path branch).
  obs::EngineProfiler* engine_profiler_ptr() {
    return obs_ != nullptr ? obs_->profiler.get() : nullptr;
  }

  // ---- streaming export (Prometheus + windowed series) ------------------
  // Arms the export scheduler: every `interval_s` of VIRTUAL time the
  // engines capture a window sample (interval deltas, rates, delivered-
  // latency percentiles) into a bounded ring of `ring_capacity` windows.
  // Ticks fire between events in commit order — after everything with
  // t < tick has committed, before anything with t >= tick runs — so the
  // series (and any Prometheus scrape taken at a tick) is byte-identical
  // across engines and worker counts. Implies observability and registers
  // the delivered-latency histogram. `interval_s` <= 0 disarms. Must be
  // called while the event queue is idle. Off means free: engines hold a
  // null scheduler pointer.
  void set_export_interval(double interval_s, std::size_t ring_capacity = 128);
  bool export_armed() const {
    return obs_ != nullptr && obs_->exporter != nullptr;
  }
  // Fires on the main thread at every captured window; for --watch style
  // periodic rewrites. Throws std::logic_error while export is disarmed.
  void set_export_callback(obs::ExportScheduler::TickCallback cb);
  // Prometheus text exposition of the full registry (collect_metrics() +
  // obs::to_prometheus). Throws std::logic_error while observability is
  // off.
  std::string export_prometheus();
  // Windowed series JSON; throws std::logic_error while export is
  // disarmed.
  std::string window_series_json() const;

  // ---- live observability plane -----------------------------------------
  // Arms top-K attribution + health evaluation on top of the streaming
  // exporter (which must already be armed): delivered packets, checker
  // rejects, and reports feed deterministic Space-Saving sketches on the
  // commit path, and every export tick re-evaluates the SLO verdict and
  // sets the `health.*` gauges. With a publisher attached
  // (set_live_publisher), every tick additionally renders an immutable
  // LiveSnapshot — Prometheus text, series/health/violations/topk JSON,
  // and the obs state snapshot — and swaps it into the publisher for the
  // HTTP plane; bodies for a given tick index are byte-identical across
  // engines and worker counts. Must be called while the event queue is
  // idle. Off means free: the commit path holds one null check.
  struct LiveObsOptions {
    std::size_t topk_k = 8;
    // Subscriber (UE) block identifying PFCP sessions; mask 0 disables
    // session attribution.
    std::uint32_t session_net = 0;
    std::uint32_t session_mask = 0;
    obs::HealthThresholds health;
  };
  void arm_live_obs(const LiveObsOptions& opts);
  void disarm_live_obs();
  bool live_obs_armed() const {
    return obs_ != nullptr && obs_->live != nullptr;
  }
  // Borrowed, not owned; nullptr detaches. Throws while live obs is off.
  void set_live_publisher(obs::SnapshotPublisher* publisher);
  // Null while live obs is off.
  obs::TopKAttribution* topk_ptr() {
    return obs_ != nullptr && obs_->live != nullptr ? obs_->live->topk.get()
                                                    : nullptr;
  }
  // Verdict from the most recent export tick; throws while live obs is
  // off.
  const obs::HealthVerdict& last_health() const;
  std::string health_json() const { return last_health().to_json(); }
  std::string topk_json() const;

  // ---- obs snapshot/restore ---------------------------------------------
  // Deterministic line-oriented serialization of the observability state:
  // simulation counters, registry counters + histograms, the captured
  // window ring, and (when live obs is armed) the top-K sketches. A
  // restarted process that rebuilds the same scenario, arms the same
  // obs/export/live configuration, and calls obs_restore BEFORE running
  // traffic resumes every exported counter monotonically. Throws
  // std::logic_error while observability is off.
  std::string obs_snapshot();
  // Full-state snapshot (format v2, DESIGN.md §15): the v1 observability
  // body plus the simulation clock, the generation table, the deployment
  // set (with embedded checker source for slots the restoring scenario
  // does not rebuild), every live slot's per-switch sensor registers and
  // checker tables (sparse), and mutable forwarding state
  // (ForwardingProgram::save_state). A hydrad restarted from it resumes
  // with identical verdict behavior. Throws std::logic_error while
  // observability is off or while a rolling swap sweep is still in
  // flight (snapshot the quiesced state, not a half-swapped one).
  std::string full_snapshot();
  // Additive restore (values fold into current state); accepts v1 and v2
  // snapshots (v2 additionally overwrites registers, tables, the
  // deployment set, and the clock). Throws std::invalid_argument on a
  // malformed snapshot or when a v2 deployment slot disagrees with the
  // checker already deployed there. Must be called while the event queue
  // is idle.
  void obs_restore(const std::string& text);

  // ---- engine-facing API (internal to net/engine.cpp and tests) --------
  // Side-effect-confined per-hop pipeline execution; see the execution
  // engine contract at the top of this header. `t` is the event's
  // timestamp (== now() by the time the result is committed).
  void compute_hop(ExecContext& ctx, SimTime t, SwitchWork& work,
                   HopResult& result);
  void commit_hop(SimTime t, SwitchWork&& work, HopResult&& result);
  // compute + commit through the owning shard's context — the serial
  // execution path.
  void process_hop_serial(SimTime t, SwitchWork&& work);
  // Executes a kPacketSend item (link arrival at work.sw / work.in_port);
  // engines call it inline in commit order.
  void deliver_packet(const SwitchWork& work);
  int shard_of(int sw) const {
    return engine_workers_ > 1 ? sw % engine_workers_ : 0;
  }
  ExecContext& context(int index) {
    return contexts_[static_cast<std::size_t>(index)];
  }
  ExecContext& context_for_switch(int sw) { return context(shard_of(sw)); }
  // Conservative lookahead: every switch-work event is scheduled at least
  // this far after the event that creates it, so an engine may treat all
  // events inside one lookahead window as a parallel epoch.
  SimTime lookahead() const { return switch_latency(); }
  // Smallest link propagation delay: a sound lower bound on how far after
  // a switch-hop commit the NEXT switch's work for that packet can land
  // (commit -> transmit -> node_receive adds at least this much plus the
  // lookahead). Feeds the parallel engine's adaptive window-extension
  // bound. +infinity for a linkless topology.
  SimTime min_spawn_delay() const;
  // Adds shard-local counter accumulators into the main registry (no-op
  // for the serial engine / while observability is off).
  void absorb_shard_metrics();
  // Engine-facing: null while export is disarmed (the disabled-path
  // branch — one pointer check per event/window).
  obs::ExportScheduler* export_scheduler_ptr() {
    return obs_ != nullptr ? obs_->exporter.get() : nullptr;
  }
  // Fires every export tick with next_tick() <= t. Engines call this
  // before running any event at time t, with all earlier events committed
  // and (parallel) workers quiesced, so the captured totals are exactly
  // the serial ones.
  void export_tick_until(SimTime t);

 private:
  // Per-switch swap phase of one deployment slot. Written ONLY by
  // apply_control (compute, on the switch's owning shard) and by staging/
  // retirement while the engine is not draining; read only by compute on
  // the owning shard — the same confinement discipline as cold_until_, so
  // a rolling sweep lands between a switch's hops identically under every
  // engine.
  enum : std::uint8_t {
    kPhaseRetired = 0,  // frames for this slot reject fail-closed here
    kPhaseStaged = 1,   // tele/check run for matching generations; no init
    kPhaseEnabled = 2,  // fully live: init stamps new frames
  };

  struct Deployment {
    std::shared_ptr<const compiler::CompiledChecker> checker;
    std::vector<p4rt::CheckerState> per_switch;  // indexed by node id
    // The checker's slot-program header annotations, bound at deploy
    // (by header id), and each one's index into header_fields_ (and
    // ExecContext::hdr), set by rebind_headers.
    std::vector<HeaderField> headers;
    std::vector<std::uint32_t> header_index;
    int tele_wire_bytes = 0;
    // Generation tag stamped into this occupant's telemetry frames; bumps
    // on every (re)deploy so slot reuse never mixes properties.
    std::uint32_t generation = 0;
    bool live = false;      // false once retired; the slot is reusable
    bool retiring = false;  // disable sweep in flight
    int pending_swaps = 0;  // per-switch flips not yet committed
    std::vector<std::uint8_t> phase;  // by node id; see enum above
  };

  // One entry per generation ever deployed (never erased): the compiled
  // checker (name, IR, wire layout) survives the slot's reuse, so
  // stale-frame accounting, fault-path reserialization, and wire sizing
  // stay correct for frames stamped by a retired occupant.
  struct GenerationInfo {
    // Null only after a v2 restore for generations whose slot was reused
    // before the snapshot (no source survives); `property` always holds
    // the name, which is all stale-frame accounting needs then — no
    // in-flight frames survive a restore, so the layout is never read.
    std::shared_ptr<const compiler::CompiledChecker> checker;
    std::string property;
    bool retired = false;
    // checker->layout.wire_bytes, or -1 without a checker; packet sizing
    // reads it twice per hop for every frame aboard.
    int wire_bytes = -1;
  };

  struct SwitchObsCounters {
    obs::Counter forwarded;
    obs::Counter fwd_dropped;
    obs::Counter rejected;
  };

  struct ObsState {
    obs::Registry registry;
    obs::TraceSink traces;
    TraceSampler sampler;
    std::vector<SwitchObsCounters> switches;  // indexed by node id
    obs::Histogram delivered_hops;
    // Forensics (null unless set_forensics(true)).
    std::unique_ptr<obs::FlightRecorder> recorder;
    std::vector<obs::ViolationReport> violations;
    std::uint64_t violations_seen = 0;  // includes ones past the report cap
    // Engine phase profiler (null unless set_engine_profiling(true)).
    std::unique_ptr<obs::EngineProfiler> profiler;
    // Streaming export (null unless set_export_interval armed). The
    // delivered-latency histogram is registered only alongside it, so
    // snapshots of export-free runs stay byte-identical to earlier
    // releases.
    std::unique_ptr<obs::ExportScheduler> exporter;
    obs::Histogram delivered_latency;
    // Live observability plane (null unless arm_live_obs). The publisher
    // is borrowed from the daemon/test that owns the HTTP server.
    struct LiveObs {
      LiveObsOptions opts;
      std::unique_ptr<obs::TopKAttribution> topk;
      obs::HealthVerdict health;
      obs::SnapshotPublisher* publisher = nullptr;  // not owned
    };
    std::unique_ptr<LiveObs> live;
  };

  // Rebuilds per-worker execution contexts for the current engine and
  // deployments, then rewires observability.
  void rebuild_contexts();
  void add_context_scratch(ExecContext& ctx, const Deployment& d);
  // Rebinds every context's slot `slot` scratch (executor, slot store) to
  // the slot's current checker — the reuse path of a retired slot.
  void reset_context_scratch(std::size_t slot);
  // Recomputes header_fields_, the per-phase fill lists and every
  // deployment's header_index from the deployed checkers, and resizes the
  // contexts' header arrays. Runs between drains (deploy, restore,
  // engine switch).
  void rebind_headers();
  // Stages `checker` into a reused-or-fresh slot with every switch at
  // `phase`; throws std::runtime_error at the kMaxDeployments cap.
  int stage_deployment(std::shared_ptr<const compiler::CompiledChecker> c,
                       std::uint8_t phase);
  // Schedules one kSwap ControlOp per switch at now() flipping `slot` to
  // `phase`; sets pending_swaps.
  void schedule_swaps(int slot, std::uint8_t phase);
  // Commit-path completion of an undeploy sweep: frees per-switch state,
  // marks the generation retired, and registers its stale-frame counter.
  void finalize_retirement(std::size_t slot);
  // Bounds- and liveness-checks a deployment id from the control-plane
  // API; throws std::invalid_argument naming `what` for a stale or
  // out-of-range id (undeploy leaves holes — a stale id must produce a
  // clear error, not UB).
  Deployment& live_deployment(int deployment, const char* what);
  const Deployment& live_deployment(int deployment, const char* what) const;
  // Registers (or re-attaches) the fail-closed stale-frame counter for a
  // retired generation: flat "checker.<property>.stale_generation", family
  // hydra_checker_stale_generation_rejects_total. Same-property
  // generations share one counter, which stays registered — and therefore
  // present and monotone in every scrape — forever.
  void register_stale_counter(std::uint32_t gen);
  void note_property(const std::string& name);
  // Shared v1 snapshot body (sim counters, registry, window ring, top-K);
  // obs_snapshot wraps it in a v1 envelope, full_snapshot in v2.
  void append_obs_body(std::string& out);
  // (Re)wires every hot-path obs handle to the registry of the shard that
  // executes it (detaches everything when observability is off).
  void rewire_observability();
  // Registry that switch `sw`'s hot-path counters must target.
  obs::Registry* registry_for_switch(int sw);
  // Builds one checker's trace record for the current hop. `before` holds
  // the telemetry values entering the hop (nullptr for the init run, whose
  // "before" is the zeroed fresh frame).
  obs::CheckerHopRecord trace_checker_record(
      const Deployment& d, const p4rt::TeleFrame* after,
      const std::vector<BitVec>* before, const p4rt::ExecOutcome& out,
      bool init, bool tele, bool check) const;
  // Writes one flight-recorder record for checker `di`'s execution at the
  // current hop (forensics on only).
  void record_hop_forensics(ExecContext::PerDeployment& pd, std::size_t di,
                            const p4rt::Packet& pkt, const HopContext& hctx,
                            SimTime t, const ForwardingProgram::Decision* dec,
                            const p4rt::ExecOutcome& out, bool ran_init,
                            bool ran_tele, bool ran_check,
                            const char* fault_note = nullptr);
  // Applies a ControlOp in compute (on the owning shard): a restart wipes
  // the switch's checker registers and marks it cold; a dict insert lands
  // a delayed rule push. Mutates only switch-confined state + cold_until_,
  // which is written/read exclusively by the owning shard's thread.
  void apply_control(SimTime t, int sw, const ControlOp& op, HopResult& res);
  // Damages one telemetry frame's wire bytes (commit path): serializes the
  // frame through the real codec, then applies the plan's corruption mode
  // driven by `entropy`; the next hop must re-parse before trusting it.
  void corrupt_frame(p4rt::Packet& pkt, std::uint64_t entropy);
  // Joins the rings on the packet id and assembles a ViolationReport
  // (commit path; called when a hop rejected or reported).
  void build_violation(const SwitchWork& work, const HopResult& res,
                       SimTime t);

  // Assembles the cumulative export totals (sim counters + per-property
  // registry reads + delivered-latency histogram). Callers must have
  // absorbed shard metrics first.
  obs::ExportCumulative export_cumulative() const;

  // Per-export-tick live plane maintenance (live obs armed only):
  // re-evaluates health, refreshes the health.* gauges, and — with a
  // publisher attached — renders and publishes the tick's LiveSnapshot.
  // Runs on the commit path with workers quiesced and shard metrics
  // absorbed.
  void update_live_after_tick();

  void node_receive(int node, int port, PacketHandle pkt);
  void emit_report(ReportRecord record);
  void transmit(PortRef from, PacketHandle pkt);
  ControlHandle alloc_control();
  int packet_wire_bytes(const p4rt::Packet& pkt) const;
  std::uint32_t switch_tag(int sw) const {
    return static_cast<std::uint32_t>(sw + 1);
  }

  Topology topo_;
  EventQueue events_;
  std::vector<Link> links_;
  std::vector<Host> hosts_;    // indexed by node id (empty for switches)
  std::vector<std::shared_ptr<ForwardingProgram>> programs_;  // by node id
  std::vector<Deployment> deployments_;
  // Deploy-time header binding: every distinct data-plane field a deployed
  // checker declares, and the indices of those some init block (resp. some
  // telemetry or check block) reads, filled once per hop and phase.
  std::vector<HeaderField> header_fields_;
  std::vector<std::uint32_t> init_headers_;
  std::vector<std::uint32_t> run_headers_;
  std::vector<GenerationInfo> generations_;  // by generation id, append-only
  // Stale-frame reject counters by generation id (commit path only;
  // detached while observability is off).
  std::vector<obs::Counter> stale_counters_;
  // Every property name ever deployed (sorted, unique). export_cumulative
  // iterates this instead of the live slots so a retired property's
  // per-window attribution rows stay present across the swap.
  std::vector<std::string> known_properties_;
  std::vector<ReportRecord> reports_;
  std::vector<ReportCallback> report_callbacks_;
  bool control_loop_active_ = false;
  Counters counters_;
  compiler::BaselineProfile baseline_ = compiler::simple_router_profile();
  double base_proc_s_ = 8e-7;
  double per_stage_s_ = 5e-8;
  std::uint64_t next_packet_id_ = 1;
  bool wire_validation_ = false;
  // Fault injection (null while disarmed). cold_until_[sw] is the sim time
  // until which switch sw's sensors are "cold" after a restart; it is
  // touched only from compute on sw's owning shard, so it needs no lock.
  std::unique_ptr<FaultInjector> faults_;
  std::vector<double> cold_until_;
  // In-flight packet / control-op pools (see "pooled in-flight storage").
  util::Arena<p4rt::Packet> packet_pool_{1024};
  util::Arena<ControlOp> control_pool_{64};
  std::unique_ptr<ObsState> obs_;  // null while observability is off
  std::vector<ExecContext> contexts_;  // one per engine worker
  EngineKind engine_kind_ = EngineKind::kSerial;
  int engine_workers_ = 1;
  // Declared last: the engine's worker threads may reference everything
  // above, so they must be joined (engine destroyed) first.
  std::unique_ptr<ExecutionEngine> engine_;
};

}  // namespace hydra::net
