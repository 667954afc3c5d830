#include "ir/slot_program.hpp"

#include <algorithm>
#include <stdexcept>

namespace hydra::ir {

namespace {

using indus::BinOp;
using indus::UnOp;

// While lowering, constants and temporaries are numbered apart and tagged;
// finish() moves them behind the field slots.
constexpr std::uint32_t kConstTag = 0x40000000u;
constexpr std::uint32_t kTempTag = 0x80000000u;
constexpr std::uint32_t kTagMask = kConstTag | kTempTag;

struct Operand {
  std::uint32_t slot = 0;
  int width = 1;
};

// Codes whose result can carry bits past the joined width.
bool wraps(SlotCode c) {
  switch (c) {
    case SlotCode::kAdd:
    case SlotCode::kSub:
    case SlotCode::kMul:
    case SlotCode::kShl:
    case SlotCode::kBitNot:
    case SlotCode::kNeg:
      return true;
    default:
      return false;
  }
}

SlotCode binary_code(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return SlotCode::kAdd;
    case BinOp::kSub: return SlotCode::kSub;
    case BinOp::kMul: return SlotCode::kMul;
    case BinOp::kDiv: return SlotCode::kDiv;
    case BinOp::kMod: return SlotCode::kMod;
    case BinOp::kBitAnd: return SlotCode::kBitAnd;
    case BinOp::kBitOr: return SlotCode::kBitOr;
    case BinOp::kBitXor: return SlotCode::kBitXor;
    case BinOp::kShl: return SlotCode::kShl;
    case BinOp::kShr: return SlotCode::kShr;
    case BinOp::kEq: return SlotCode::kEq;
    case BinOp::kNe: return SlotCode::kNe;
    case BinOp::kLt: return SlotCode::kLt;
    case BinOp::kLe: return SlotCode::kLe;
    case BinOp::kGt: return SlotCode::kGt;
    case BinOp::kGe: return SlotCode::kGe;
    case BinOp::kAnd: return SlotCode::kAnd;
    case BinOp::kOr: return SlotCode::kOr;
  }
  throw std::logic_error("slot lowering: unknown binary operator");
}

// Result width of a binary operator, mirroring the BitVec operations the
// interpreter applies.
int binary_width(BinOp op, int wa, int wb) {
  switch (op) {
    case BinOp::kShl:
    case BinOp::kShr:
      return wa;
    case BinOp::kEq:
    case BinOp::kNe:
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe:
    case BinOp::kAnd:
    case BinOp::kOr:
      return 1;
    default:
      return std::max(wa, wb);
  }
}

class SlotLowerer {
 public:
  explicit SlotLowerer(const CheckerIR& ir) : ir_(ir) {
    prog_.name = ir.name;
    prog_.field_count = static_cast<std::uint32_t>(ir.fields.size());
    header_of_.assign(ir.fields.size(), 0);
    for (std::size_t i = 0; i < ir.fields.size(); ++i) {
      const Field& f = ir.fields[i];
      prog_.field_widths.push_back(f.width);
      if (f.space == Space::kTele) {
        prog_.tele.push_back({static_cast<std::uint32_t>(i), f.width});
      } else if (f.space != Space::kHeader) {
        prog_.scratch.push_back(static_cast<std::uint32_t>(i));
      } else {
        const auto it = std::find(prog_.headers.begin(), prog_.headers.end(),
                                  f.annotation);
        header_of_[i] = static_cast<std::uint32_t>(it - prog_.headers.begin());
        if (it == prog_.headers.end()) prog_.headers.push_back(f.annotation);
      }
    }
  }

  SlotProgram run() {
    lower_block(ir_.init_block, prog_.init);
    lower_block(ir_.tele_block, prog_.tele_block);
    lower_block(ir_.check_block, prog_.check);
    finish();
    return std::move(prog_);
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::logic_error("slot lowering of checker '" + ir_.name +
                           "': " + what);
  }

  int field_width(FieldId f) const {
    if (f.id < 0 || static_cast<std::size_t>(f.id) >= ir_.fields.size()) {
      fail("field id " + std::to_string(f.id) + " out of range");
    }
    return ir_.fields[static_cast<std::size_t>(f.id)].width;
  }

  // A field an instruction writes; header fields are read-only.
  std::uint32_t dst_slot(FieldId f) const {
    field_width(f);
    const Field& field = ir_.fields[static_cast<std::size_t>(f.id)];
    if (field.space == Space::kHeader) {
      fail("instruction writes header field '" + field.name + "'");
    }
    return static_cast<std::uint32_t>(f.id);
  }

  std::uint32_t new_temp() {
    const std::uint32_t t = next_temp_++;
    max_temps_ = std::max(max_temps_, next_temp_);
    return kTempTag | t;
  }

  std::uint32_t const_slot(std::uint64_t v) {
    // A checker has a handful of distinct constants.
    const auto it = std::find(const_values_.begin(), const_values_.end(), v);
    const auto c = static_cast<std::uint32_t>(it - const_values_.begin());
    if (it == const_values_.end()) const_values_.push_back(v);
    return kConstTag | c;
  }

  SlotOp& emit(SlotCode code, std::uint32_t dst, std::uint32_t a = 0,
               std::uint32_t b = 0, std::uint64_t mask = ~0ULL) {
    SlotOp op;
    op.code = code;
    op.dst = dst;
    op.a = a;
    op.b = b;
    op.mask = mask;
    block_->ops.push_back(op);
    return block_->ops.back();
  }

  void note_header_read(FieldId f) {
    const std::uint32_t slot = static_cast<std::uint32_t>(f.id);
    for (const HeaderLoad& h : block_->headers) {
      if (h.slot == slot) return;
    }
    block_->headers.push_back(
        {slot, header_of_[slot], BitVec::mask(field_width(f))});
  }

  // Operator node: its code, operands and static result width.
  struct Node {
    SlotCode code = SlotCode::kMov;
    Operand a, b;
    int width = 1;
  };

  Node lower_node(const RValue& rv) {
    Node n;
    switch (rv.kind) {
      case RKind::kUnary:
        n.a = lower(*rv.args[0]);
        switch (rv.unop) {
          case UnOp::kNot:
            n.code = SlotCode::kNot;
            n.width = 1;
            break;
          case UnOp::kBitNot:
            n.code = SlotCode::kBitNot;
            n.width = n.a.width;
            break;
          case UnOp::kNeg:
            n.code = SlotCode::kNeg;
            n.width = n.a.width;
            break;
        }
        return n;
      case RKind::kBinary:
        n.a = lower(*rv.args[0]);
        n.b = lower(*rv.args[1]);
        n.code = binary_code(rv.binop);
        n.width = binary_width(rv.binop, n.a.width, n.b.width);
        return n;
      case RKind::kAbsDiff:
        n.a = lower(*rv.args[0]);
        n.b = lower(*rv.args[1]);
        n.code = SlotCode::kAbsDiff;
        n.width = std::max(n.a.width, n.b.width);
        return n;
      case RKind::kConst:
      case RKind::kField:
        break;
    }
    fail("leaf rvalue lowered as an operator");
  }

  // Writes node `n` into `dst`, resized to `dst_width`.
  void emit_node(const Node& n, std::uint32_t dst, int dst_width) {
    const std::uint64_t w_mask = BitVec::mask(n.width);
    if (wraps(n.code)) {
      emit(n.code, dst, n.a.slot, n.b.slot,
           BitVec::mask(std::min(n.width, dst_width)));
    } else if (n.width <= dst_width) {
      emit(n.code, dst, n.a.slot, n.b.slot, w_mask);
    } else {
      const std::uint32_t t = new_temp();
      emit(n.code, t, n.a.slot, n.b.slot, w_mask);
      emit(SlotCode::kMovMask, dst, t, 0, BitVec::mask(dst_width));
    }
  }

  // The slot holding `rv`'s value (a field, a constant, or a fresh temp).
  Operand lower(const RValue& rv) {
    switch (rv.kind) {
      case RKind::kConst:
        return {const_slot(rv.cval.value()), rv.cval.width()};
      case RKind::kField: {
        const int w = field_width(rv.field);
        if (ir_.field(rv.field).space == Space::kHeader) {
          note_header_read(rv.field);
        }
        return {static_cast<std::uint32_t>(rv.field.id), w};
      }
      default: {
        const Node n = lower_node(rv);
        const std::uint32_t t = new_temp();
        emit_node(n, t, n.width);
        return {t, n.width};
      }
    }
  }

  // dst := rv, resized to dst_width.
  void lower_into(const RValue& rv, std::uint32_t dst, int dst_width) {
    if (rv.kind == RKind::kConst || rv.kind == RKind::kField) {
      const Operand o = lower(rv);
      if (o.width <= dst_width) {
        emit(SlotCode::kMov, dst, o.slot);
      } else {
        emit(SlotCode::kMovMask, dst, o.slot, 0, BitVec::mask(dst_width));
      }
      return;
    }
    emit_node(lower_node(rv), dst, dst_width);
  }

  void lower_block(const std::vector<InstrPtr>& body, SlotBlock& block) {
    block_ = &block;
    lower_body(body);
    block_ = nullptr;
  }

  void lower_body(const std::vector<InstrPtr>& body) {
    for (const auto& instr : body) {
      next_temp_ = 0;  // temps never outlive their instruction
      lower_instr(*instr);
      block_->ops.back().ir_instr = 1;
    }
  }

  // Emits `instr`. lower_body marks the last op as completing it; for an if
  // that op is the branch itself or the (already marked) last op of a
  // nested instruction, so the branch is marked here instead.
  void lower_instr(const Instr& instr) {
    switch (instr.kind) {
      case InstrKind::kAssign:
        lower_into(*instr.value, dst_slot(instr.dst), field_width(instr.dst));
        return;
      case InstrKind::kTableLookup: {
        if (instr.table < 0 ||
            static_cast<std::size_t>(instr.table) >= ir_.tables.size()) {
          fail("table index out of range");
        }
        const Table& spec = ir_.tables[static_cast<std::size_t>(instr.table)];
        SlotLookup lk;
        lk.table = instr.table;
        lk.config_scalar = spec.config_scalar;
        if (!spec.config_scalar) {
          if (instr.keys.size() != spec.key_widths.size()) {
            fail("table '" + spec.name + "' key arity mismatch");
          }
          for (std::size_t k = 0; k < instr.keys.size(); ++k) {
            lk.keys.push_back(lower(*instr.keys[k]).slot);
            lk.key_widths.push_back(spec.key_widths[k]);
          }
        }
        for (const FieldId d : instr.dsts) {
          lk.dsts.push_back(dst_slot(d));
          lk.dst_masks.push_back(BitVec::mask(field_width(d)));
        }
        if (instr.hit_dst.valid()) {
          if (field_width(instr.hit_dst) != 1) {
            fail("hit flag '" + ir_.field(instr.hit_dst).name +
                 "' is not one bit wide");
          }
          lk.hit = dst_slot(instr.hit_dst);
        }
        prog_.lookups.push_back(std::move(lk));
        emit(SlotCode::kLookup, 0,
             static_cast<std::uint32_t>(prog_.lookups.size() - 1));
        return;
      }
      case InstrKind::kRegRead: {
        const Register& r = reg(instr.reg);
        if (field_width(instr.dst) != r.width) {
          fail("register '" + r.name + "' (" + std::to_string(r.width) +
               " bits) read into '" + ir_.field(instr.dst).name + "' (" +
               std::to_string(field_width(instr.dst)) + " bits)");
        }
        emit(SlotCode::kRegRead, dst_slot(instr.dst),
             static_cast<std::uint32_t>(instr.reg));
        return;
      }
      case InstrKind::kRegWrite: {
        reg(instr.reg);
        const Operand v = lower(*instr.value);
        emit(SlotCode::kRegWrite, 0, static_cast<std::uint32_t>(instr.reg),
             v.slot);
        return;
      }
      case InstrKind::kPush: {
        if (instr.list < 0 ||
            static_cast<std::size_t>(instr.list) >= ir_.lists.size()) {
          fail("list index out of range");
        }
        const TeleList& l = ir_.lists[static_cast<std::size_t>(instr.list)];
        SlotPush p;
        p.count = dst_slot(l.count);
        p.count_mask = BitVec::mask(field_width(l.count));
        p.elem_mask = BitVec::mask(l.elem_width);
        for (const FieldId s : l.slots) {
          if (field_width(s) != l.elem_width) {
            fail("list '" + l.name + "' slot width differs from its " +
                 "element width");
          }
          p.slots.push_back(dst_slot(s));
        }
        const Operand v = lower(*instr.push_value);
        prog_.pushes.push_back(std::move(p));
        emit(SlotCode::kPush, 0,
             static_cast<std::uint32_t>(prog_.pushes.size() - 1), v.slot);
        return;
      }
      case InstrKind::kIf: {
        const Operand c = lower(*instr.cond);
        const std::size_t branch = block_->ops.size();
        emit(SlotCode::kBranch, 0, c.slot).ir_instr = 1;
        lower_body(instr.then_body);
        std::size_t jump = 0;
        if (!instr.else_body.empty()) {
          jump = block_->ops.size();
          emit(SlotCode::kJump, 0);
        }
        block_->ops[branch].dst =
            static_cast<std::uint32_t>(block_->ops.size());
        lower_body(instr.else_body);
        if (jump != 0) {
          block_->ops[jump].dst =
              static_cast<std::uint32_t>(block_->ops.size());
        }
        return;
      }
      case InstrKind::kReject:
        emit(SlotCode::kReject, 0);
        return;
      case InstrKind::kReport: {
        SlotReport r;
        for (const auto& p : instr.report_payload) {
          const Operand o = lower(*p);
          r.slots.push_back(o.slot);
          r.widths.push_back(o.width);
        }
        prog_.reports.push_back(std::move(r));
        emit(SlotCode::kReport, 0,
             static_cast<std::uint32_t>(prog_.reports.size() - 1));
        return;
      }
    }
    fail("unknown instruction kind");
  }

  const Register& reg(int index) const {
    if (index < 0 || static_cast<std::size_t>(index) >= ir_.registers.size()) {
      fail("register index out of range");
    }
    return ir_.registers[static_cast<std::size_t>(index)];
  }

  // Places constants and temporaries behind the field slots and rewrites
  // every tagged slot reference.
  void finish() {
    const std::uint32_t const_base = prog_.field_count;
    const std::uint32_t temp_base =
        const_base + static_cast<std::uint32_t>(const_values_.size());
    auto fix = [&](std::uint32_t& s) {
      if (s == kNoSlot || (s & kTagMask) == 0) return;
      s = ((s & kTempTag) != 0 ? temp_base : const_base) + (s & ~kTagMask);
    };
    for (SlotBlock* b : {&prog_.init, &prog_.tele_block, &prog_.check}) {
      for (SlotOp& op : b->ops) {
        switch (op.code) {
          case SlotCode::kBranch:
            fix(op.a);
            break;
          case SlotCode::kJump:
          case SlotCode::kLookup:
          case SlotCode::kReport:
          case SlotCode::kReject:
            break;
          case SlotCode::kRegRead:
            fix(op.dst);
            break;
          case SlotCode::kRegWrite:
          case SlotCode::kPush:
            fix(op.b);
            break;
          default:
            fix(op.dst);
            fix(op.a);
            fix(op.b);
            break;
        }
      }
    }
    for (SlotLookup& lk : prog_.lookups) {
      for (auto& s : lk.keys) fix(s);
    }
    for (SlotReport& r : prog_.reports) {
      for (auto& s : r.slots) fix(s);
    }
    prog_.initial.assign(temp_base + max_temps_, 0);
    for (std::size_t c = 0; c < const_values_.size(); ++c) {
      prog_.initial[const_base + c] = const_values_[c];
    }
  }

  const CheckerIR& ir_;
  SlotProgram prog_;
  SlotBlock* block_ = nullptr;
  std::vector<std::uint32_t> header_of_;  // header id, by header field
  std::vector<std::uint64_t> const_values_;
  std::uint32_t next_temp_ = 0;
  std::uint32_t max_temps_ = 0;
};

}  // namespace

SlotProgram lower_to_slots(const CheckerIR& ir) {
  return SlotLowerer(ir).run();
}

}  // namespace hydra::ir
