// Per-hop context, the header-variable resolver (the "foreign function
// interface" between Indus checkers and the data plane), and the
// forwarding-program interface implemented by src/forwarding.
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "obs/metrics.hpp"
#include "p4rt/packet.hpp"
#include "util/bitvec.hpp"

namespace hydra::net {

// Everything a checker's header variables may observe at one hop.
struct HopContext {
  int switch_id = -1;        // topology node id
  std::uint32_t switch_tag = 0;  // stable numeric id exposed to checkers
  int in_port = -1;
  int eg_port = -1;          // -1 until forwarding decides / on drop
  bool first_hop = false;    // packet entering the network here
  bool last_hop = false;     // packet exiting the network here
  bool fwd_drop = false;     // forwarding decided to drop (UPF deny, miss)
  int wire_bytes = 0;        // packet length on the wire at this hop
};

// The data-plane fields a checker's header variables can bind to.
enum class HeaderKind : std::uint8_t {
  // Intrinsics and hop state.
  kLastHop, kFirstHop, kPacketLength, kInPort, kEgPort, kSwitchId,
  kToBeDropped,
  // Ethernet / VLAN.
  kEthSrc, kEthDst, kEthType, kVlanValid, kVlanId,
  // Outer IPv4 and L4.
  kIpv4Valid, kIpv4Src, kIpv4Dst, kIpv4Proto, kIpv4Ttl, kIpv4Dscp,
  kTcpValid, kUdpValid, kTcpSport, kTcpDport, kUdpSport, kUdpDport,
  kL4Sport, kL4Dport,
  // GTP-U and the tunnelled inner headers.
  kGtpuValid, kGtpuTeid, kInnerIpv4Valid, kInnerIpv4Src, kInnerIpv4Dst,
  kInnerIpv4Proto, kInnerTcpValid, kInnerUdpValid, kInnerTcpSport,
  kInnerTcpDport, kInnerUdpSport, kInnerUdpDport,
  // Source routing.
  kSrValid, kSrDepth, kSrPort,
};

// A bound header annotation. Several annotations name the same field
// (`in_port`, `ig_port`, `standard_metadata.ingress_port`); they bind equal.
struct HeaderField {
  HeaderKind kind = HeaderKind::kLastHop;
  std::uint16_t sr_index = 0;  // kSrPort: remaining hop, in travel order
  bool operator==(const HeaderField&) const = default;
};

// Binds a header variable annotation, once, at deploy time. Annotations
// cover the paper's examples: switch ports (`in_port`, `eg_port`),
// IPv4/L4 fields with `ipv4_*`/`outer_*`/`inner_*` prefixes and
// `*_is_valid` flags, GTP-U (`gtpu_teid`), VLAN (`vlan_id`),
// `to_be_dropped`, `switch_id`, source routing (`sr_is_valid`, `sr_depth`,
// `sr_port_<i>` with a decimal i below 65536), and the std.* intrinsics
// (first/last hop, packet length). Returns nullopt for anything else.
std::optional<HeaderField> bind_header(const std::string& annotation);

// The field's value at this hop, before any width mask: flags read 0 or 1,
// the packet length its 32-bit value, absent headers 0.
std::uint64_t read_header(HeaderField field, const p4rt::Packet& pkt,
                          const HopContext& ctx);

// bind_header + read_header as a BitVec of `width` bits (one bit for
// flags, 32 for std.packet_length): how p4rt::Interp, the reference
// executor, reads headers. Unknown annotations throw std::invalid_argument
// so checker/forwarding mismatches surface loudly instead of reading zeros.
BitVec resolve_header(const p4rt::Packet& pkt, const HopContext& ctx,
                      const std::string& annotation, int width);

// A switch's forwarding pipeline. Implementations may rewrite the packet
// (encap/decap, source-route pop) — this is the code Hydra checkers must
// remain independent from.
//
// STATE-CONFINEMENT RULE (parallel engine): the network's parallel engine
// calls process() for *different switches* concurrently. Within one epoch
// window a switch runs on exactly one worker; in a later window it may run
// on another, ordered after the first by the epoch handshake. An
// implementation must therefore keep its mutable state either (a) per
// switch — a per-switch table map is the usual shape, and its last-hit
// cache then sees the serial lookup order — or (b) thread-safe:
// process-wide totals (drop counters, packet counts) must be std::atomic
// with relaxed ordering, which keeps the totals deterministic because
// every switch contributes a schedule-independent amount.
class ForwardingProgram {
 public:
  virtual ~ForwardingProgram() = default;

  struct Decision {
    bool drop = false;
    int eg_port = -1;
    // Why the pipeline dropped (static string literal, e.g. "session_miss",
    // "no_route"); nullptr when forwarded or the program gives no reason.
    // Consumed by the forensics flight recorder — a literal keeps the hot
    // path allocation-free.
    const char* reason = nullptr;
  };

  virtual Decision process(p4rt::Packet& pkt, int in_port,
                           int switch_id) = 0;
  virtual std::string name() const = 0;

  // Observability hook: register this program's match-action tables (and
  // any other hot-path counters) with `registry`; a nullptr detaches every
  // handle. Called by the network when observability toggles, and again
  // for programs installed afterwards — implementations must be
  // idempotent. Default: the program exposes no metrics.
  virtual void attach_metrics(obs::Registry* registry) { (void)registry; }

  // Maps a switch id to the metrics registry whose counters that switch's
  // hot path may bump (shard-local under the parallel engine; the main
  // registry otherwise). resolve(-1) yields the main registry, for
  // counters not attributable to one switch. Null detaches.
  using MetricsResolver = std::function<obs::Registry*(int switch_id)>;

  // Shard-aware variant of attach_metrics, called by the network instead
  // of attach_metrics. A program whose hot path bumps obs counters from
  // per-switch state must override this and attach each switch's handles
  // to resolve(switch_id) — under the parallel engine a shared handle
  // would race. The default keeps single-registry programs working
  // unchanged by forwarding to attach_metrics(resolve(-1)).
  virtual void attach_metrics_sharded(MetricsResolver resolve) {
    attach_metrics(resolve ? resolve(-1) : nullptr);
  }

  // No-ops that nothing in the simulator calls. They remain only because
  // hydrabench/ledger.hpp's TimedProgram overrides them; delete them
  // together with those overrides.
  virtual bool concurrent_safe() const { return false; }
  virtual void set_concurrent(bool on) { (void)on; }

  // Drops any last-hit lookup caches the program keeps. Called by
  // full_snapshot() so the snapshot point is a cache-cold boundary in the
  // snapshotting process too — a restored process necessarily starts with
  // cold caches, and flushing both sides keeps cache-hit counters on
  // identical trajectories (restart equivalence). Caches are transparent
  // perf state, so flushing never changes forwarding decisions.
  virtual void invalidate_caches() {}

  // Full-state snapshot hooks (net::Network::full_snapshot). A program
  // with runtime-MUTABLE forwarding state — PFCP session churn is the
  // canonical case — overrides these so a restarted hydrad resumes with
  // identical forwarding decisions. Programs whose tables are static
  // scenario state (routing installed at startup) keep the no-op
  // defaults; the scenario rebuilds them on restart. save_state appends
  // whitespace-separated tokens; load_state must consume exactly what
  // save_state wrote (p4rt/table_io.hpp is the intended codec).
  virtual bool has_state() const { return false; }
  virtual void save_state(std::ostream& out) const { (void)out; }
  virtual void load_state(std::istream& in) { (void)in; }
};

}  // namespace hydra::net
