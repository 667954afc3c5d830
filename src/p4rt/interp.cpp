#include "p4rt/interp.hpp"

#include <stdexcept>

namespace hydra::p4rt {

using indus::BinOp;
using indus::UnOp;

CheckerState make_checker_state(const ir::CheckerIR& ir) {
  CheckerState state;
  for (const auto& t : ir.tables) {
    std::vector<MatchFieldSpec> spec;
    for (int w : t.key_widths) {
      // Generated dict/set tables use ternary keys so the control plane can
      // install exact or wildcarded entries with priorities.
      spec.push_back({MatchKind::kTernary, w});
    }
    Table table(t.name, std::move(spec));
    if (t.config_scalar) {
      std::vector<BitVec> zeros;
      for (int w : t.value_widths) zeros.emplace_back(w, 0);
      table.set_default(std::move(zeros));
    }
    state.tables.push_back(std::move(table));
  }
  for (const auto& r : ir.registers) {
    state.registers.emplace_back(r.name, r.width, 1, r.initial);
  }
  return state;
}

std::vector<BitVec> Interp::fresh_store() const {
  std::vector<BitVec> vals;
  vals.reserve(ir_.fields.size());
  for (const auto& f : ir_.fields) {
    vals.emplace_back(f.width, 0);
  }
  return vals;
}

void Interp::reset_store(std::vector<BitVec>& vals) const {
  vals.resize(ir_.fields.size());
  for (std::size_t i = 0; i < vals.size(); ++i) {
    vals[i] = BitVec(ir_.fields[i].width, 0);
  }
}

void Interp::load_frame(const TeleFrame& frame,
                        std::vector<BitVec>& vals) const {
  if (frame.values.size() != vals.size()) {
    throw std::invalid_argument("telemetry frame size mismatch for '" +
                                ir_.name + "'");
  }
  for (std::size_t i = 0; i < vals.size(); ++i) {
    if (ir_.fields[i].space == ir::Space::kTele) vals[i] = frame.values[i];
  }
}

void Interp::store_frame(const std::vector<BitVec>& vals,
                         TeleFrame& frame) const {
  frame.values = vals;
  // Only tele fields are meaningful on the wire; zero the rest so the frame
  // does not leak switch-local state between hops.
  for (std::size_t i = 0; i < frame.values.size(); ++i) {
    if (ir_.fields[i].space != ir::Space::kTele) {
      frame.values[i] = BitVec(ir_.fields[i].width, 0);
    }
  }
}

BitVec Interp::eval(const ir::RValue& rv, std::vector<BitVec>& vals,
                    const HeaderResolver& hdr) const {
  switch (rv.kind) {
    case ir::RKind::kConst:
      return rv.cval;
    case ir::RKind::kField: {
      const ir::Field& f = ir_.field(rv.field);
      if (f.space == ir::Space::kHeader) {
        return hdr(f.annotation, f.width).resize(f.width);
      }
      return vals[static_cast<std::size_t>(rv.field.id)];
    }
    case ir::RKind::kUnary: {
      const BitVec a = eval(*rv.args[0], vals, hdr);
      switch (rv.unop) {
        case UnOp::kNot: return BitVec::from_bool(!a.as_bool());
        case UnOp::kBitNot: return a.bnot();
        case UnOp::kNeg: return BitVec(a.width(), 0).sub(a);
      }
      return a;
    }
    case ir::RKind::kBinary: {
      // Short-circuit logical operators.
      if (rv.binop == BinOp::kAnd) {
        if (!eval(*rv.args[0], vals, hdr).as_bool()) {
          return BitVec::from_bool(false);
        }
        return BitVec::from_bool(eval(*rv.args[1], vals, hdr).as_bool());
      }
      if (rv.binop == BinOp::kOr) {
        if (eval(*rv.args[0], vals, hdr).as_bool()) {
          return BitVec::from_bool(true);
        }
        return BitVec::from_bool(eval(*rv.args[1], vals, hdr).as_bool());
      }
      const BitVec a = eval(*rv.args[0], vals, hdr);
      const BitVec b = eval(*rv.args[1], vals, hdr);
      switch (rv.binop) {
        case BinOp::kAdd: return a.add(b);
        case BinOp::kSub: return a.sub(b);
        case BinOp::kMul: return a.mul(b);
        case BinOp::kDiv: return a.div(b);
        case BinOp::kMod: return a.mod(b);
        case BinOp::kBitAnd: return a.band(b);
        case BinOp::kBitOr: return a.bor(b);
        case BinOp::kBitXor: return a.bxor(b);
        case BinOp::kShl: return a.shl(b);
        case BinOp::kShr: return a.shr(b);
        case BinOp::kEq: return BitVec::from_bool(a == b);
        case BinOp::kNe: return BitVec::from_bool(!(a == b));
        case BinOp::kLt: return BitVec::from_bool(a < b);
        case BinOp::kLe: return BitVec::from_bool(a <= b);
        case BinOp::kGt: return BitVec::from_bool(a > b);
        case BinOp::kGe: return BitVec::from_bool(a >= b);
        case BinOp::kAnd:
        case BinOp::kOr:
          break;  // handled above
      }
      return a;
    }
    case ir::RKind::kAbsDiff: {
      const BitVec a = eval(*rv.args[0], vals, hdr);
      const BitVec b = eval(*rv.args[1], vals, hdr);
      return a.abs_diff(b);
    }
  }
  throw std::logic_error("unreachable rvalue kind");
}

void Interp::exec(const ir::Instr& instr, std::vector<BitVec>& vals,
                  CheckerState& state, const HeaderResolver& hdr,
                  ExecOutcome& out) const {
  metrics_.instructions.inc();
  switch (instr.kind) {
    case ir::InstrKind::kAssign: {
      const ir::Field& f = ir_.field(instr.dst);
      vals[static_cast<std::size_t>(instr.dst.id)] =
          eval(*instr.value, vals, hdr).resize(f.width);
      return;
    }
    case ir::InstrKind::kTableLookup: {
      metrics_.table_lookups.inc();
      const ir::Table& spec = ir_.tables[static_cast<std::size_t>(instr.table)];
      Table& table = state.tables[static_cast<std::size_t>(instr.table)];
      const std::vector<BitVec>* action_data = nullptr;
      bool hit = false;
      std::int32_t entry_idx = -1;
      if (spec.config_scalar) {
        action_data = &table.default_data();
        hit = true;
      } else {
        key_scratch_.clear();
        for (std::size_t k = 0; k < instr.keys.size(); ++k) {
          key_scratch_.push_back(eval(*instr.keys[k], vals, hdr)
                                     .resize(spec.key_widths[k]));
        }
        const TableEntry* entry = table.lookup(key_scratch_);
        if (entry != nullptr) {
          action_data = &entry->action_data;
          hit = true;
          if (prov_ != nullptr) entry_idx = table.entry_index_of(entry);
        }
      }
      if (prov_ != nullptr) {
        prov_->table_hits.push_back({instr.table, entry_idx, hit});
      }
      for (std::size_t d = 0; d < instr.dsts.size(); ++d) {
        const ir::Field& f = ir_.field(instr.dsts[d]);
        const BitVec v = action_data != nullptr && d < action_data->size()
                             ? (*action_data)[d]
                             : BitVec(f.width, 0);
        vals[static_cast<std::size_t>(instr.dsts[d].id)] = v.resize(f.width);
      }
      if (instr.hit_dst.valid()) {
        vals[static_cast<std::size_t>(instr.hit_dst.id)] =
            BitVec::from_bool(hit);
      }
      return;
    }
    case ir::InstrKind::kRegRead: {
      metrics_.reg_reads.inc();
      const BitVec v =
          state.registers[static_cast<std::size_t>(instr.reg)].read(0);
      if (prov_ != nullptr) {
        prov_->reg_touches.push_back(
            {instr.reg, /*wrote=*/false, v.value(), v.value()});
      }
      vals[static_cast<std::size_t>(instr.dst.id)] = v;
      return;
    }
    case ir::InstrKind::kRegWrite: {
      metrics_.reg_writes.inc();
      RegisterArray& ra = state.registers[static_cast<std::size_t>(instr.reg)];
      const BitVec v = eval(*instr.value, vals, hdr);
      if (prov_ != nullptr) {
        prov_->reg_touches.push_back(
            {instr.reg, /*wrote=*/true, ra.read(0).value(), v.value()});
      }
      ra.write(0, v);
      return;
    }
    case ir::InstrKind::kPush: {
      const ir::TeleList& l = ir_.lists[static_cast<std::size_t>(instr.list)];
      const std::size_t cnt =
          vals[static_cast<std::size_t>(l.count.id)].value();
      if (cnt < l.slots.size()) {
        // Saturating push: a full stack drops further telemetry, matching
        // the generated P4's bounded header stack.
        vals[static_cast<std::size_t>(l.slots[cnt].id)] =
            eval(*instr.push_value, vals, hdr).resize(l.elem_width);
        vals[static_cast<std::size_t>(l.count.id)] =
            BitVec(ir_.field(l.count).width,
                   static_cast<std::uint64_t>(cnt + 1));
      }
      return;
    }
    case ir::InstrKind::kIf: {
      const bool cond = eval(*instr.cond, vals, hdr).as_bool();
      const auto& body = cond ? instr.then_body : instr.else_body;
      for (const auto& child : body) exec(*child, vals, state, hdr, out);
      return;
    }
    case ir::InstrKind::kReject:
      out.reject = true;
      return;
    case ir::InstrKind::kReport: {
      std::vector<BitVec> payload;
      payload.reserve(instr.report_payload.size());
      for (const auto& p : instr.report_payload) {
        payload.push_back(eval(*p, vals, hdr));
      }
      out.reports.push_back(std::move(payload));
      return;
    }
  }
}

void Interp::run(const std::vector<ir::InstrPtr>& block,
                 std::vector<BitVec>& vals, CheckerState& state,
                 const HeaderResolver& hdr, ExecOutcome& out) const {
  for (const auto& instr : block) exec(*instr, vals, state, hdr, out);
}

}  // namespace hydra::p4rt
