// IR interpreter — executes a compiled checker's blocks on a simulated
// switch. This plays the role of the Tofino pipeline running the generated
// P4: the same CheckerIR that the P4 emitter renders is executed here
// against per-switch table/register state.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "ir/ir.hpp"
#include "p4rt/packet.hpp"
#include "p4rt/register.hpp"
#include "p4rt/table.hpp"

namespace hydra::p4rt {

// Per-switch, per-checker mutable state: one table per control variable
// (populated by the control plane) and one register per sensor.
struct CheckerState {
  std::vector<Table> tables;
  std::vector<RegisterArray> registers;
};

CheckerState make_checker_state(const ir::CheckerIR& ir);

// Resolves a header variable's annotation (e.g. "hdr.ipv4.src_addr" or
// "std.last_hop") to its current value; provided by the switch model.
using HeaderResolver =
    std::function<BitVec(const std::string& annotation, int width)>;

struct ExecOutcome {
  bool reject = false;
  std::vector<std::vector<BitVec>> reports;
};

// Provenance of one (or several consecutive) block executions: which table
// entries matched and which registers were touched, by IR index. The
// buffers are caller-owned scratch (cleared by the caller, capacity reused
// across packets — the same allocation-free-in-steady-state discipline as
// the value-store scratch), filled only while a provenance sink is armed
// via Interp::set_provenance. Consumed by the forensics flight recorder.
struct ExecProvenance {
  struct TableHit {
    std::int32_t table = -1;  // CheckerIR table index
    std::int32_t entry = -1;  // matched entry index; -1 = miss or default
    bool hit = false;
  };
  struct RegTouch {
    std::int32_t reg = -1;  // CheckerIR register index
    bool wrote = false;
    std::uint64_t before = 0;
    std::uint64_t after = 0;
  };
  std::vector<TableHit> table_hits;
  std::vector<RegTouch> reg_touches;
  void clear() {
    table_hits.clear();
    reg_touches.clear();
  }
};

// Hot-path execution counters. Detached (free) by default; one branch per
// event when detached, a direct pointer bump when attached.
struct InterpMetrics {
  obs::Counter instructions;   // IR instructions executed (incl. if-bodies)
  obs::Counter table_lookups;  // kTableLookup instructions
  obs::Counter reg_reads;
  obs::Counter reg_writes;
};

class Interp {
 public:
  explicit Interp(const ir::CheckerIR& ir) : ir_(ir) {}

  const ir::CheckerIR& ir() const { return ir_; }

  // A value store holds one BitVec per IR field.
  std::vector<BitVec> fresh_store() const;
  // Re-initializes `vals` to the zeroed per-field layout without giving up
  // its capacity — the allocation-free equivalent of `vals = fresh_store()`
  // for per-packet reuse on the hot path.
  void reset_store(std::vector<BitVec>& vals) const;
  void load_frame(const TeleFrame& frame, std::vector<BitVec>& vals) const;
  void store_frame(const std::vector<BitVec>& vals, TeleFrame& frame) const;

  void run(const std::vector<ir::InstrPtr>& block, std::vector<BitVec>& vals,
           CheckerState& state, const HeaderResolver& hdr,
           ExecOutcome& out) const;

  void attach_metrics(const InterpMetrics& metrics) { metrics_ = metrics; }

  // Arms (non-null) or disarms (null) provenance capture. While armed,
  // every table lookup and register access appends to `prov`; the caller
  // owns the buffers and their clearing. Disarmed cost: one branch per
  // lookup/register instruction.
  void set_provenance(ExecProvenance* prov) { prov_ = prov; }

 private:
  BitVec eval(const ir::RValue& rv, std::vector<BitVec>& vals,
              const HeaderResolver& hdr) const;
  void exec(const ir::Instr& instr, std::vector<BitVec>& vals,
            CheckerState& state, const HeaderResolver& hdr,
            ExecOutcome& out) const;

  const ir::CheckerIR& ir_;
  // Scratch key buffer reused across table lookups so the per-packet hot
  // path does not allocate. Table-lookup instructions never nest (keys are
  // pure rvalues), so a single buffer is safe. One Interp instance belongs
  // to exactly one engine worker (net::ExecContext owns it — see the
  // ownership rule in net/network.hpp); it is never shared across threads.
  mutable std::vector<BitVec> key_scratch_;
  InterpMetrics metrics_;  // detached unless observability is wired
  ExecProvenance* prov_ = nullptr;  // armed only while forensics is on
};

}  // namespace hydra::p4rt
