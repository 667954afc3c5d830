#include "p4rt/slot_exec.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace hydra::p4rt {

using ir::SlotCode;

SlotExec::SlotExec(const ir::SlotProgram& prog) : prog_(prog) {
  for (const int w : prog.field_widths) zero_frame_.emplace_back(w, 0);
}

void SlotExec::reset(std::vector<std::uint64_t>& slots) const {
  std::fill_n(slots.begin(), prog_.field_count, 0);
}

void SlotExec::load_frame(const TeleFrame& frame,
                          std::vector<std::uint64_t>& slots) const {
  if (frame.values.size() != prog_.field_count) {
    throw std::invalid_argument("telemetry frame size mismatch for '" +
                                prog_.name + "'");
  }
  for (const std::uint32_t f : prog_.scratch) slots[f] = 0;
  for (const ir::TeleSlot& t : prog_.tele) {
    slots[t.slot] = frame.values[t.slot].value();
  }
}

void SlotExec::store_frame(const std::vector<std::uint64_t>& slots,
                           TeleFrame& frame) const {
  if (frame.values.size() != prog_.field_count) {
    // Non-tele values never reach the wire: the frame carries them zeroed
    // at their field widths, exactly as Interp::store_frame leaves them.
    frame.values.assign(zero_frame_.begin(), zero_frame_.end());
  }
  for (const ir::TeleSlot& t : prog_.tele) {
    frame.values[t.slot] = BitVec(t.width, slots[t.slot]);
  }
}

void SlotExec::run(const ir::SlotBlock& block,
                   std::vector<std::uint64_t>& slots, CheckerState& state,
                   const std::uint64_t* hdr, const std::uint32_t* hdr_index,
                   ExecOutcome& out) const {
  if (block.ops.empty()) return;  // e.g. a checker's `{ }` telemetry block
  std::uint64_t* const s = slots.data();
  for (const ir::HeaderLoad& h : block.headers) {
    s[h.slot] = hdr[hdr_index[h.header]] & h.mask;
  }
  std::uint64_t instructions = 0;
  std::uint64_t lookups = 0;
  std::uint64_t reg_reads = 0;
  std::uint64_t reg_writes = 0;
  const ir::SlotOp* const ops = block.ops.data();
  const ir::SlotOp* const end = ops + block.ops.size();
  for (const ir::SlotOp* op = ops; op != end;) {
    instructions += op->ir_instr;
    // dst, a and b name slots only where the op says so (see SlotCode), so
    // each case touches its own operands.
    switch (op->code) {
      case SlotCode::kMov: s[op->dst] = s[op->a]; break;
      case SlotCode::kMovMask: s[op->dst] = s[op->a] & op->mask; break;
      case SlotCode::kAdd: s[op->dst] = (s[op->a] + s[op->b]) & op->mask; break;
      case SlotCode::kSub: s[op->dst] = (s[op->a] - s[op->b]) & op->mask; break;
      case SlotCode::kMul: s[op->dst] = (s[op->a] * s[op->b]) & op->mask; break;
      case SlotCode::kDiv: {
        const std::uint64_t b = s[op->b];
        s[op->dst] = b != 0 ? s[op->a] / b : op->mask;
        break;
      }
      case SlotCode::kMod: {
        const std::uint64_t b = s[op->b];
        s[op->dst] = b != 0 ? s[op->a] % b : 0;
        break;
      }
      case SlotCode::kBitAnd: s[op->dst] = s[op->a] & s[op->b]; break;
      case SlotCode::kBitOr: s[op->dst] = s[op->a] | s[op->b]; break;
      case SlotCode::kBitXor: s[op->dst] = s[op->a] ^ s[op->b]; break;
      case SlotCode::kShl: {
        const std::uint64_t b = s[op->b];
        s[op->dst] = b < 64 ? (s[op->a] << b) & op->mask : 0;
        break;
      }
      case SlotCode::kShr: {
        const std::uint64_t b = s[op->b];
        s[op->dst] = b < 64 ? s[op->a] >> b : 0;
        break;
      }
      case SlotCode::kNot: s[op->dst] = s[op->a] == 0; break;
      case SlotCode::kBitNot: s[op->dst] = ~s[op->a] & op->mask; break;
      case SlotCode::kNeg: s[op->dst] = (0 - s[op->a]) & op->mask; break;
      case SlotCode::kAnd: s[op->dst] = s[op->a] != 0 && s[op->b] != 0; break;
      case SlotCode::kOr: s[op->dst] = s[op->a] != 0 || s[op->b] != 0; break;
      case SlotCode::kEq: s[op->dst] = s[op->a] == s[op->b]; break;
      case SlotCode::kNe: s[op->dst] = s[op->a] != s[op->b]; break;
      case SlotCode::kLt: s[op->dst] = s[op->a] < s[op->b]; break;
      case SlotCode::kLe: s[op->dst] = s[op->a] <= s[op->b]; break;
      case SlotCode::kGt: s[op->dst] = s[op->a] > s[op->b]; break;
      case SlotCode::kGe: s[op->dst] = s[op->a] >= s[op->b]; break;
      case SlotCode::kAbsDiff: {
        const std::uint64_t a = s[op->a];
        const std::uint64_t b = s[op->b];
        s[op->dst] = a >= b ? a - b : b - a;
        break;
      }
      case SlotCode::kLookup: {
        ++lookups;
        const ir::SlotLookup& lk = prog_.lookups[op->a];
        Table& table = state.tables[static_cast<std::size_t>(lk.table)];
        const std::vector<BitVec>* data = nullptr;
        std::int32_t entry_idx = -1;
        if (lk.config_scalar) {
          data = &table.default_data();
        } else {
          key_scratch_.clear();
          for (std::size_t k = 0; k < lk.keys.size(); ++k) {
            key_scratch_.emplace_back(lk.key_widths[k], s[lk.keys[k]]);
          }
          const TableEntry* entry = table.lookup(key_scratch_);
          if (entry != nullptr) {
            data = &entry->action_data;
            if (prov_ != nullptr) entry_idx = table.entry_index_of(entry);
          }
        }
        if (prov_ != nullptr) {
          prov_->table_hits.push_back({lk.table, entry_idx, data != nullptr});
        }
        for (std::size_t d = 0; d < lk.dsts.size(); ++d) {
          s[lk.dsts[d]] = data != nullptr && d < data->size()
                              ? (*data)[d].value() & lk.dst_masks[d]
                              : 0;
        }
        if (lk.hit != ir::kNoSlot) s[lk.hit] = data != nullptr;
        break;
      }
      case SlotCode::kRegRead: {
        ++reg_reads;
        const std::uint64_t v = state.registers[op->a].read(0).value();
        if (prov_ != nullptr) {
          prov_->reg_touches.push_back(
              {static_cast<std::int32_t>(op->a), /*wrote=*/false, v, v});
        }
        s[op->dst] = v;
        break;
      }
      case SlotCode::kRegWrite: {
        ++reg_writes;
        RegisterArray& ra = state.registers[op->a];
        const std::uint64_t v = s[op->b];
        if (prov_ != nullptr) {
          prov_->reg_touches.push_back({static_cast<std::int32_t>(op->a),
                                        /*wrote=*/true, ra.read(0).value(),
                                        v});
        }
        ra.write(0, BitVec(ra.width(), v));
        break;
      }
      case SlotCode::kPush: {
        const ir::SlotPush& p = prog_.pushes[op->a];
        const std::uint64_t cnt = s[p.count];
        // Saturating, like the generated P4's bounded header stack.
        if (cnt < p.slots.size()) {
          s[p.slots[cnt]] = s[op->b] & p.elem_mask;
          s[p.count] = (cnt + 1) & p.count_mask;
        }
        break;
      }
      case SlotCode::kReport: {
        const ir::SlotReport& r = prog_.reports[op->a];
        std::vector<BitVec> payload;
        payload.reserve(r.slots.size());
        for (std::size_t i = 0; i < r.slots.size(); ++i) {
          payload.emplace_back(r.widths[i], s[r.slots[i]]);
        }
        out.reports.push_back(std::move(payload));
        break;
      }
      case SlotCode::kReject: out.reject = true; break;
      case SlotCode::kBranch:
        if (s[op->a] == 0) {
          op = ops + op->dst;
          continue;
        }
        break;
      case SlotCode::kJump:
        op = ops + op->dst;
        continue;
    }
    ++op;
  }
  if (instructions != 0) metrics_.instructions.inc(instructions);
  if (lookups != 0) metrics_.table_lookups.inc(lookups);
  if (reg_reads != 0) metrics_.reg_reads.inc(reg_reads);
  if (reg_writes != 0) metrics_.reg_writes.inc(reg_writes);
}

}  // namespace hydra::p4rt
