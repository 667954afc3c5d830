#include "compiler/lower.hpp"

#include <map>
#include <set>
#include <stdexcept>

namespace hydra::compiler {

using indus::AssignOp;
using indus::BinOp;
using indus::BlockRole;
using indus::CompileError;
using indus::Decl;
using indus::Expr;
using indus::ExprKind;
using indus::Program;
using indus::Stmt;
using indus::StmtKind;
using indus::SymbolTable;
using indus::Type;
using indus::TypePtr;
using indus::UnOp;
using indus::VarInfo;
using indus::VarKind;
using ir::CheckerIR;
using ir::Field;
using ir::FieldId;
using ir::InstrPtr;
using ir::RValuePtr;
using ir::Space;

namespace {

int count_bits_for(int capacity) {
  int bits = 1;
  while ((1 << bits) <= capacity) ++bits;
  return bits;
}

// How a declared name maps onto IR storage.
struct Binding {
  enum class Kind {
    kScalar,       // one or more fields (tuples flatten)
    kList,         // tele array
    kTable,        // control dict or set
    kConfig,       // control scalar(s): keyless table + cached locals
    kRegister,     // sensor
  };
  Kind kind = Kind::kScalar;
  std::vector<FieldId> fields;  // kScalar: flattened fields
  int list = -1;
  int table = -1;
  int reg = -1;
  TypePtr type;
  // kConfig: number of scalar values (1, or N for control arrays).
  int config_values = 1;
};

class Lowerer {
 public:
  Lowerer(const Program& program, const SymbolTable& symbols,
          std::string name)
      : prog_(program), syms_(symbols) {
    ir_.name = std::move(name);
  }

  CheckerIR run() {
    bind_builtins();
    for (const auto& d : prog_.decls) bind_decl(d);
    // Telemetry initializers run when the header is created at the first
    // hop, i.e. at the top of the init block.
    emit_tele_initializers(ir_.init_block);
    lower_block(*prog_.init_block, ir_.init_block);
    lower_block(*prog_.tele_block, ir_.tele_block);
    lower_block(*prog_.check_block, ir_.check_block);
    return std::move(ir_);
  }

 private:
  // -------------------------------------------------------------------------
  // Declaration binding
  // -------------------------------------------------------------------------

  FieldId add_field(const std::string& name, Space space, int width,
                    bool is_bool, const std::string& annotation = "") {
    Field f;
    f.name = name;
    f.space = space;
    f.width = width;
    f.is_bool = is_bool;
    f.annotation = annotation;
    ir_.fields.push_back(std::move(f));
    return FieldId{static_cast<int>(ir_.fields.size()) - 1};
  }

  FieldId new_local(int width, bool is_bool = false) {
    return add_field("tmp" + std::to_string(next_tmp_++), Space::kLocal,
                     width, is_bool);
  }

  void bind_builtins() {
    bind_header_scalar("last_hop", Type::boolean(), "std.last_hop");
    bind_header_scalar("first_hop", Type::boolean(), "std.first_hop");
    bind_header_scalar("packet_length", Type::bits(32), "std.packet_length");
  }

  void bind_header_scalar(const std::string& name, TypePtr type,
                          const std::string& annotation) {
    Binding b;
    b.kind = Binding::Kind::kScalar;
    b.type = type;
    const int width = type->is_bool() ? 1 : type->bit_width();
    b.fields.push_back(add_field("hdr." + name, Space::kHeader, width,
                                 type->is_bool(), annotation));
    bindings_.emplace(name, std::move(b));
  }

  void bind_decl(const Decl& d) {
    Binding b;
    b.type = d.type;
    switch (d.kind) {
      case VarKind::kHeader: {
        const std::string ann = d.annotation.empty() ? d.name : d.annotation;
        bind_header_scalar(d.name, d.type, ann);
        return;
      }
      case VarKind::kSensor: {
        b.kind = Binding::Kind::kRegister;
        ir::Register r;
        r.name = d.name;
        r.width = d.type->is_bool() ? 1 : d.type->bit_width();
        r.initial = d.init ? eval_const(*d.init).resize(r.width)
                           : BitVec(r.width, 0);
        ir_.registers.push_back(std::move(r));
        b.reg = static_cast<int>(ir_.registers.size()) - 1;
        break;
      }
      case VarKind::kTele: {
        if (d.type->is_array()) {
          bind_tele_list(d);
          return;
        }
        b.kind = Binding::Kind::kScalar;
        const auto widths = d.type->flatten_widths();
        for (std::size_t i = 0; i < widths.size(); ++i) {
          const std::string suffix =
              widths.size() > 1 ? "._" + std::to_string(i) : "";
          const bool is_bool =
              d.type->is_bool() ||
              (d.type->is_tuple() && d.type->members()[i]->is_bool());
          b.fields.push_back(add_field("tele." + d.name + suffix,
                                       Space::kTele, widths[i], is_bool));
        }
        break;
      }
      case VarKind::kControl: {
        if (d.type->is_dict() || d.type->is_set()) {
          b.kind = Binding::Kind::kTable;
          ir::Table t;
          t.name = d.name;
          if (d.type->is_dict()) {
            t.key_widths = d.type->key()->flatten_widths();
            t.value_widths = d.type->value()->flatten_widths();
          } else {
            t.key_widths = d.type->element()->flatten_widths();
            t.from_set = true;
          }
          ir_.tables.push_back(std::move(t));
          b.table = static_cast<int>(ir_.tables.size()) - 1;
        } else {
          // Scalar (or array-of-scalar) configuration value supplied by the
          // control plane via a keyless table's default action.
          b.kind = Binding::Kind::kConfig;
          ir::Table t;
          t.name = d.name;
          t.config_scalar = true;
          t.value_widths = d.type->flatten_widths();
          if (t.value_widths.empty()) {
            throw CompileError("control variable '" + d.name +
                               "' has no scalar representation");
          }
          ir_.tables.push_back(std::move(t));
          b.table = static_cast<int>(ir_.tables.size()) - 1;
          b.config_values = static_cast<int>(
              ir_.tables.back().value_widths.size());
        }
        break;
      }
    }
    bindings_.emplace(d.name, std::move(b));
  }

  void bind_tele_list(const Decl& d) {
    const TypePtr elem = d.type->element();
    if (!elem->is_scalar()) {
      throw CompileError("tele array '" + d.name +
                         "' must have scalar elements to compile to a "
                         "header stack");
    }
    ir::TeleList list;
    list.name = d.name;
    list.capacity = d.type->array_size();
    list.elem_width = elem->is_bool() ? 1 : elem->bit_width();
    list.elem_is_bool = elem->is_bool();
    for (int i = 0; i < list.capacity; ++i) {
      list.slots.push_back(add_field(
          "tele." + d.name + "[" + std::to_string(i) + "]", Space::kTele,
          list.elem_width, list.elem_is_bool));
    }
    list.count = add_field("tele." + d.name + ".cnt", Space::kTele,
                           count_bits_for(list.capacity), false);
    ir_.lists.push_back(std::move(list));

    Binding b;
    b.kind = Binding::Kind::kList;
    b.type = d.type;
    b.list = static_cast<int>(ir_.lists.size()) - 1;
    bindings_.emplace(d.name, std::move(b));
  }

  BitVec eval_const(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kNumber:
        return BitVec(64, e.number);
      case ExprKind::kBoolLit:
        return BitVec::from_bool(e.bool_value);
      case ExprKind::kUnary: {
        const BitVec a = eval_const(*e.args[0]);
        switch (e.unop) {
          case UnOp::kNot: return BitVec::from_bool(!a.as_bool());
          case UnOp::kBitNot: return a.bnot();
          case UnOp::kNeg: return BitVec(a.width(), 0).sub(a);
        }
        return a;
      }
      case ExprKind::kBinary: {
        const BitVec a = eval_const(*e.args[0]);
        const BitVec b = eval_const(*e.args[1]);
        switch (e.binop) {
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
          case BinOp::kAnd: return BitVec::from_bool(a.as_bool() && b.as_bool());
          case BinOp::kOr: return BitVec::from_bool(a.as_bool() || b.as_bool());
        }
        return a;
      }
      default:
        throw CompileError("expected a constant expression");
    }
  }

  void emit_tele_initializers(std::vector<InstrPtr>& out) {
    for (const auto& d : prog_.decls) {
      if (d.kind != VarKind::kTele) continue;
      const Binding& b = bindings_.at(d.name);
      if (b.kind == Binding::Kind::kList) {
        // The fill counter starts at zero when the header is injected.
        out.push_back(ir::in_assign(
            ir_.lists[static_cast<std::size_t>(b.list)].count,
            ir::rv_const(BitVec(1, 0))));
        continue;
      }
      if (!d.init) {
        // Uninitialized tele scalars start at zero for determinism.
        for (FieldId f : b.fields) {
          out.push_back(ir::in_assign(f, ir::rv_const(BitVec(1, 0))));
        }
        continue;
      }
      const BitVec v = eval_const(*d.init);
      for (FieldId f : b.fields) {
        out.push_back(ir::in_assign(f, ir::rv_const(v)));
      }
    }
  }

  // -------------------------------------------------------------------------
  // Expression lowering
  // -------------------------------------------------------------------------

  // Lowers to a single scalar rvalue; pre-statement instructions (table
  // lookups, register reads) are appended to `out`.
  RValuePtr lower_expr(const Expr& e, std::vector<InstrPtr>& out) {
    auto parts = lower_expr_multi(e, out);
    if (parts.size() != 1) {
      throw CompileError("expected a scalar expression at " +
                         e.loc.to_string());
    }
    return std::move(parts[0]);
  }

  // Lowers to one rvalue per flattened scalar (tuples yield several).
  std::vector<RValuePtr> lower_expr_multi(const Expr& e,
                                          std::vector<InstrPtr>& out) {
    switch (e.kind) {
      case ExprKind::kNumber: {
        std::vector<RValuePtr> v;
        v.push_back(ir::rv_const(BitVec(64, e.number)));
        return v;
      }
      case ExprKind::kBoolLit: {
        std::vector<RValuePtr> v;
        v.push_back(ir::rv_bool(e.bool_value));
        return v;
      }
      case ExprKind::kVar:
        return lower_var(e, out);
      case ExprKind::kUnary: {
        std::vector<RValuePtr> v;
        v.push_back(ir::rv_unary(e.unop, lower_expr(*e.args[0], out)));
        return v;
      }
      case ExprKind::kBinary:
        return lower_binary(e, out);
      case ExprKind::kIndex:
        return lower_index(e, out);
      case ExprKind::kTuple: {
        std::vector<RValuePtr> v;
        for (const auto& a : e.args) {
          auto parts = lower_expr_multi(*a, out);
          for (auto& p : parts) v.push_back(std::move(p));
        }
        return v;
      }
      case ExprKind::kCall:
        return lower_call(e, out);
      case ExprKind::kIn:
        return lower_in(e, out);
    }
    throw CompileError("unsupported expression");
  }

  std::vector<RValuePtr> lower_var(const Expr& e,
                                   std::vector<InstrPtr>& out) {
    const auto loop_it = loop_bindings_.find(e.name);
    if (loop_it != loop_bindings_.end()) {
      std::vector<RValuePtr> v;
      v.push_back(ir::rv_field(loop_it->second));
      return v;
    }
    const Binding& b = binding(e.name, e);
    switch (b.kind) {
      case Binding::Kind::kScalar: {
        std::vector<RValuePtr> v;
        for (FieldId f : b.fields) v.push_back(ir::rv_field(f));
        return v;
      }
      case Binding::Kind::kRegister: {
        const FieldId tmp = new_local(
            ir_.registers[static_cast<std::size_t>(b.reg)].width,
            b.type->is_bool());
        out.push_back(ir::in_reg_read(b.reg, tmp));
        std::vector<RValuePtr> v;
        v.push_back(ir::rv_field(tmp));
        return v;
      }
      case Binding::Kind::kConfig: {
        const auto& fields = config_fields(e.name, b, out);
        std::vector<RValuePtr> v;
        for (FieldId f : fields) v.push_back(ir::rv_field(f));
        return v;
      }
      case Binding::Kind::kList:
        throw CompileError("array '" + e.name +
                           "' used where a scalar is required at " +
                           e.loc.to_string());
      case Binding::Kind::kTable:
        throw CompileError("control dict/set '" + e.name +
                           "' used without a lookup at " + e.loc.to_string());
    }
    throw CompileError("unbound variable '" + e.name + "'");
  }

  std::vector<RValuePtr> lower_binary(const Expr& e,
                                      std::vector<InstrPtr>& out) {
    // Tuple (in)equality lowers to a conjunction over the flattened parts.
    if (e.binop == BinOp::kEq || e.binop == BinOp::kNe) {
      auto lhs = lower_expr_multi(*e.args[0], out);
      auto rhs = lower_expr_multi(*e.args[1], out);
      if (lhs.size() != rhs.size()) {
        throw CompileError("comparison arity mismatch at " +
                           e.loc.to_string());
      }
      if (lhs.size() > 1) {
        RValuePtr acc;
        for (std::size_t i = 0; i < lhs.size(); ++i) {
          auto eq = ir::rv_binary(BinOp::kEq, std::move(lhs[i]),
                                  std::move(rhs[i]));
          acc = acc ? ir::rv_binary(BinOp::kAnd, std::move(acc), std::move(eq))
                    : std::move(eq);
        }
        if (e.binop == BinOp::kNe) acc = ir::rv_unary(UnOp::kNot, std::move(acc));
        std::vector<RValuePtr> v;
        v.push_back(std::move(acc));
        return v;
      }
      std::vector<RValuePtr> v;
      v.push_back(ir::rv_binary(e.binop, std::move(lhs[0]), std::move(rhs[0])));
      return v;
    }
    std::vector<RValuePtr> v;
    v.push_back(ir::rv_binary(e.binop, lower_expr(*e.args[0], out),
                              lower_expr(*e.args[1], out)));
    return v;
  }

  std::vector<RValuePtr> lower_index(const Expr& e,
                                     std::vector<InstrPtr>& out) {
    const Expr& base = *e.args[0];
    const Expr& index = *e.args[1];
    // Dict lookup: emit a table apply right before the current statement.
    if (base.kind == ExprKind::kVar) {
      const Binding* b = find_binding(base.name);
      if (b != nullptr && b->kind == Binding::Kind::kTable) {
        return lower_dict_lookup(*b, base.name, index, out);
      }
      if (b != nullptr && b->kind == Binding::Kind::kList) {
        return lower_list_index(*b, index, out);
      }
      if (b != nullptr && b->kind == Binding::Kind::kConfig &&
          b->config_values > 1) {
        return lower_config_index(base.name, *b, index, out);
      }
    }
    throw CompileError("unsupported index base at " + e.loc.to_string());
  }

  std::vector<RValuePtr> lower_dict_lookup(const Binding& b,
                                           const std::string& name,
                                           const Expr& key,
                                           std::vector<InstrPtr>& out) {
    const ir::Table& table = ir_.tables[static_cast<std::size_t>(b.table)];
    if (table.from_set) {
      throw CompileError("sets support only the 'in' operator: " + name);
    }
    auto keys = lower_expr_multi(key, out);
    if (keys.size() != table.key_widths.size()) {
      throw CompileError("dict key arity mismatch for '" + name + "'");
    }
    std::vector<FieldId> dsts;
    const TypePtr value_t = b.type->value();
    for (std::size_t i = 0; i < table.value_widths.size(); ++i) {
      const bool vb =
          value_t->is_bool() ||
          (value_t->is_tuple() && value_t->members()[i]->is_bool());
      dsts.push_back(new_local(table.value_widths[i], vb));
    }
    const FieldId hit = new_local(1, true);
    out.push_back(ir::in_table(b.table, std::move(keys), dsts, hit));
    std::vector<RValuePtr> v;
    for (FieldId d : dsts) v.push_back(ir::rv_field(d));
    return v;
  }

  std::vector<RValuePtr> lower_list_index(const Binding& b, const Expr& index,
                                          std::vector<InstrPtr>& out) {
    const ir::TeleList& list = ir_.lists[static_cast<std::size_t>(b.list)];
    if (index.kind == ExprKind::kNumber) {
      const int i = static_cast<int>(index.number);
      if (i < 0 || i >= list.capacity) {
        throw CompileError("constant index " + std::to_string(i) +
                           " out of bounds for '" + list.name + "'");
      }
      std::vector<RValuePtr> v;
      v.push_back(ir::rv_field(list.slots[static_cast<std::size_t>(i)]));
      return v;
    }
    // Dynamic index: P4 header stacks cannot be indexed dynamically, so the
    // compiler emits a select chain. Out-of-range reads yield zero.
    RValuePtr idx = lower_expr(index, out);
    const FieldId tmp = new_local(list.elem_width, list.elem_is_bool);
    out.push_back(ir::in_assign(tmp, ir::rv_const(BitVec(1, 0))));
    for (int i = 0; i < list.capacity; ++i) {
      auto cond = ir::rv_binary(
          BinOp::kEq, idx->clone(),
          ir::rv_const(BitVec(32, static_cast<std::uint64_t>(i))));
      std::vector<InstrPtr> then;
      then.push_back(ir::in_assign(
          tmp, ir::rv_field(list.slots[static_cast<std::size_t>(i)])));
      out.push_back(ir::in_if(std::move(cond), std::move(then)));
    }
    std::vector<RValuePtr> v;
    v.push_back(ir::rv_field(tmp));
    return v;
  }

  std::vector<RValuePtr> lower_config_index(const std::string& name,
                                            const Binding& b,
                                            const Expr& index,
                                            std::vector<InstrPtr>& out) {
    const auto& fields = config_fields(name, b, out);
    if (index.kind == ExprKind::kNumber) {
      const std::size_t i = static_cast<std::size_t>(index.number);
      if (i >= fields.size()) {
        throw CompileError("constant index out of bounds for '" + name + "'");
      }
      std::vector<RValuePtr> v;
      v.push_back(ir::rv_field(fields[i]));
      return v;
    }
    RValuePtr idx = lower_expr(index, out);
    const ir::Table& t = ir_.tables[static_cast<std::size_t>(b.table)];
    const FieldId tmp = new_local(t.value_widths[0], false);
    out.push_back(ir::in_assign(tmp, ir::rv_const(BitVec(1, 0))));
    for (std::size_t i = 0; i < fields.size(); ++i) {
      auto cond = ir::rv_binary(
          BinOp::kEq, idx->clone(),
          ir::rv_const(BitVec(32, static_cast<std::uint64_t>(i))));
      std::vector<InstrPtr> then;
      then.push_back(ir::in_assign(tmp, ir::rv_field(fields[i])));
      out.push_back(ir::in_if(std::move(cond), std::move(then)));
    }
    std::vector<RValuePtr> v;
    v.push_back(ir::rv_field(tmp));
    return v;
  }

  std::vector<RValuePtr> lower_call(const Expr& e,
                                    std::vector<InstrPtr>& out) {
    if (e.name == "abs") {
      const Expr& arg = *e.args[0];
      std::vector<RValuePtr> v;
      if (arg.kind == ExprKind::kBinary && arg.binop == BinOp::kSub) {
        // abs(a - b) over unsigned bit vectors means |a - b|; lowering to
        // an absolute-difference primitive avoids wraparound.
        v.push_back(ir::rv_absdiff(lower_expr(*arg.args[0], out),
                                   lower_expr(*arg.args[1], out)));
      } else {
        v.push_back(lower_expr(arg, out));  // unsigned: abs(x) == x
      }
      return v;
    }
    if (e.name == "length") {
      const Expr& arg = *e.args[0];
      if (arg.kind != ExprKind::kVar) {
        throw CompileError("length() requires an array variable");
      }
      const Binding& b = binding(arg.name, arg);
      std::vector<RValuePtr> v;
      if (b.kind == Binding::Kind::kList) {
        // length() is bit<32> (typecheck); the fill counter is narrower,
        // so zero-extend it: `cnt | 32w0` has the joined width 32.
        v.push_back(ir::rv_binary(
            BinOp::kBitOr,
            ir::rv_field(ir_.lists[static_cast<std::size_t>(b.list)].count),
            ir::rv_const(BitVec(32, 0))));
      } else if (b.kind == Binding::Kind::kConfig) {
        v.push_back(ir::rv_const(BitVec(
            32, static_cast<std::uint64_t>(b.config_values))));
      } else {
        throw CompileError("length() requires an array variable");
      }
      return v;
    }
    throw CompileError("unknown function '" + e.name + "'");
  }

  std::vector<RValuePtr> lower_in(const Expr& e, std::vector<InstrPtr>& out) {
    const Expr& hay = *e.args[1];
    if (hay.kind != ExprKind::kVar) {
      throw CompileError("'in' requires a named array or set at " +
                         e.loc.to_string());
    }
    const Binding& b = binding(hay.name, hay);
    if (b.kind == Binding::Kind::kTable &&
        ir_.tables[static_cast<std::size_t>(b.table)].from_set) {
      // Set membership is a table lookup; hit flag is the result.
      auto keys = lower_expr_multi(*e.args[0], out);
      const FieldId hit = new_local(1, true);
      out.push_back(ir::in_table(b.table, std::move(keys), {}, hit));
      std::vector<RValuePtr> v;
      v.push_back(ir::rv_field(hit));
      return v;
    }
    if (b.kind == Binding::Kind::kList) {
      const ir::TeleList& list = ir_.lists[static_cast<std::size_t>(b.list)];
      RValuePtr needle = lower_expr(*e.args[0], out);
      RValuePtr acc = ir::rv_bool(false);
      for (int i = 0; i < list.capacity; ++i) {
        auto in_range = ir::rv_binary(
            BinOp::kLt,
            ir::rv_const(BitVec(32, static_cast<std::uint64_t>(i))),
            ir::rv_field(list.count));
        auto eq = ir::rv_binary(
            BinOp::kEq,
            ir::rv_field(list.slots[static_cast<std::size_t>(i)]),
            needle->clone());
        auto hit = ir::rv_binary(BinOp::kAnd, std::move(in_range),
                                 std::move(eq));
        acc = ir::rv_binary(BinOp::kOr, std::move(acc), std::move(hit));
      }
      std::vector<RValuePtr> v;
      v.push_back(std::move(acc));
      return v;
    }
    if (b.kind == Binding::Kind::kConfig && b.config_values > 1) {
      const auto& fields = config_fields(hay.name, b, out);
      RValuePtr needle = lower_expr(*e.args[0], out);
      RValuePtr acc = ir::rv_bool(false);
      for (FieldId f : fields) {
        auto eq = ir::rv_binary(BinOp::kEq, ir::rv_field(f), needle->clone());
        acc = ir::rv_binary(BinOp::kOr, std::move(acc), std::move(eq));
      }
      std::vector<RValuePtr> v;
      v.push_back(std::move(acc));
      return v;
    }
    throw CompileError("'in' requires an array or set at " +
                       e.loc.to_string());
  }

  // -------------------------------------------------------------------------
  // Statement lowering
  // -------------------------------------------------------------------------

  void lower_block(const Stmt& block, std::vector<InstrPtr>& out) {
    // Config tables apply once, at the start of the pipeline block (the
    // paper realizes non-dict control variables as a default action in a
    // single table executed at the start of the pipeline). Pre-loading here
    // also guarantees the cached locals dominate every use.
    config_cache_.clear();
    std::set<std::string> used;
    collect_vars(block, used);
    for (const auto& name : used) {
      const Binding* b = find_binding(name);
      if (b != nullptr && b->kind == Binding::Kind::kConfig) {
        config_fields(name, *b, out);
      }
    }
    lower_stmt(block, out);
  }

  static void collect_vars(const Expr& e, std::set<std::string>& out) {
    if (e.kind == ExprKind::kVar) out.insert(e.name);
    for (const auto& a : e.args) collect_vars(*a, out);
  }

  static void collect_vars(const Stmt& s, std::set<std::string>& out) {
    for (const auto& child : s.body) collect_vars(*child, out);
    if (s.target) collect_vars(*s.target, out);
    if (s.value) collect_vars(*s.value, out);
    for (const auto& arm : s.arms) {
      collect_vars(*arm.cond, out);
      collect_vars(*arm.body, out);
    }
    if (s.else_body) collect_vars(*s.else_body, out);
    for (const auto& it : s.iterables) collect_vars(*it, out);
    if (s.push_list) collect_vars(*s.push_list, out);
    if (s.push_value) collect_vars(*s.push_value, out);
    for (const auto& r : s.report_args) collect_vars(*r, out);
  }

  void lower_stmt(const Stmt& s, std::vector<InstrPtr>& out) {
    switch (s.kind) {
      case StmtKind::kPass:
        return;
      case StmtKind::kBlock:
        for (const auto& child : s.body) lower_stmt(*child, out);
        return;
      case StmtKind::kAssign:
        lower_assign(s, out);
        return;
      case StmtKind::kIf:
        lower_if(s, 0, out);
        return;
      case StmtKind::kFor:
        lower_for(s, out);
        return;
      case StmtKind::kPush: {
        const Expr& list_expr = *s.push_list;
        if (list_expr.kind != ExprKind::kVar) {
          throw CompileError("push target must be a tele array");
        }
        const Binding& b = binding(list_expr.name, list_expr);
        if (b.kind != Binding::Kind::kList) {
          throw CompileError("push target must be a tele array");
        }
        RValuePtr value = lower_expr(*s.push_value, out);
        out.push_back(ir::in_push(b.list, std::move(value)));
        return;
      }
      case StmtKind::kReport: {
        std::vector<RValuePtr> payload;
        for (const auto& a : s.report_args) {
          auto parts = lower_expr_multi(*a, out);
          for (auto& p : parts) payload.push_back(std::move(p));
        }
        out.push_back(ir::in_report(std::move(payload)));
        return;
      }
      case StmtKind::kReject:
        out.push_back(ir::in_reject());
        return;
    }
  }

  void lower_assign(const Stmt& s, std::vector<InstrPtr>& out) {
    const Expr& target = *s.target;
    // Simple variable target.
    if (target.kind == ExprKind::kVar) {
      const Binding& b = binding(target.name, target);
      if (b.kind == Binding::Kind::kRegister) {
        RValuePtr value = lower_expr(*s.value, out);
        if (s.assign_op != AssignOp::kSet) {
          const FieldId cur = new_local(
              ir_.registers[static_cast<std::size_t>(b.reg)].width);
          out.push_back(ir::in_reg_read(b.reg, cur));
          const BinOp op =
              s.assign_op == AssignOp::kAdd ? BinOp::kAdd : BinOp::kSub;
          value = ir::rv_binary(op, ir::rv_field(cur), std::move(value));
        }
        out.push_back(ir::in_reg_write(b.reg, std::move(value)));
        return;
      }
      if (b.kind == Binding::Kind::kScalar) {
        auto values = lower_expr_multi(*s.value, out);
        if (values.size() != b.fields.size()) {
          throw CompileError("assignment arity mismatch at " +
                             s.loc.to_string());
        }
        for (std::size_t i = 0; i < values.size(); ++i) {
          RValuePtr v = std::move(values[i]);
          if (s.assign_op != AssignOp::kSet) {
            const BinOp op =
                s.assign_op == AssignOp::kAdd ? BinOp::kAdd : BinOp::kSub;
            v = ir::rv_binary(op, ir::rv_field(b.fields[i]), std::move(v));
          }
          out.push_back(ir::in_assign(b.fields[i], std::move(v)));
        }
        return;
      }
      throw CompileError("cannot assign to '" + target.name + "' at " +
                         s.loc.to_string());
    }
    // Array element target: xs[i] = v.
    if (target.kind == ExprKind::kIndex &&
        target.args[0]->kind == ExprKind::kVar) {
      const Binding& b = binding(target.args[0]->name, *target.args[0]);
      if (b.kind != Binding::Kind::kList) {
        throw CompileError("indexed assignment requires a tele array at " +
                           s.loc.to_string());
      }
      const ir::TeleList& list = ir_.lists[static_cast<std::size_t>(b.list)];
      RValuePtr value = lower_expr(*s.value, out);
      const Expr& index = *target.args[1];
      auto make_value = [&](FieldId slot) {
        RValuePtr v = value->clone();
        if (s.assign_op != AssignOp::kSet) {
          const BinOp op =
              s.assign_op == AssignOp::kAdd ? BinOp::kAdd : BinOp::kSub;
          v = ir::rv_binary(op, ir::rv_field(slot), std::move(v));
        }
        return v;
      };
      if (index.kind == ExprKind::kNumber) {
        const std::size_t i = static_cast<std::size_t>(index.number);
        if (i >= list.slots.size()) {
          throw CompileError("constant index out of bounds at " +
                             s.loc.to_string());
        }
        out.push_back(ir::in_assign(list.slots[i], make_value(list.slots[i])));
        return;
      }
      RValuePtr idx = lower_expr(index, out);
      for (std::size_t i = 0; i < list.slots.size(); ++i) {
        auto cond = ir::rv_binary(
            BinOp::kEq, idx->clone(),
            ir::rv_const(BitVec(32, static_cast<std::uint64_t>(i))));
        std::vector<InstrPtr> then;
        then.push_back(
            ir::in_assign(list.slots[i], make_value(list.slots[i])));
        out.push_back(ir::in_if(std::move(cond), std::move(then)));
      }
      return;
    }
    throw CompileError("unsupported assignment target at " +
                       s.loc.to_string());
  }

  void lower_if(const Stmt& s, std::size_t arm, std::vector<InstrPtr>& out) {
    const auto& a = s.arms[arm];
    RValuePtr cond = lower_expr(*a.cond, out);
    std::vector<InstrPtr> then_body;
    lower_stmt(*a.body, then_body);
    std::vector<InstrPtr> else_body;
    if (arm + 1 < s.arms.size()) {
      lower_if(s, arm + 1, else_body);
    } else if (s.else_body) {
      lower_stmt(*s.else_body, else_body);
    }
    out.push_back(
        ir::in_if(std::move(cond), std::move(then_body), std::move(else_body)));
  }

  void lower_for(const Stmt& s, std::vector<InstrPtr>& out) {
    // Gather the iterated containers.
    struct Iter {
      const ir::TeleList* list = nullptr;          // tele array
      FieldId count;                               // its fill at loop entry
      const std::vector<FieldId>* config = nullptr;  // control array
    };
    std::vector<Iter> iters;
    int capacity = -1;
    for (const auto& it_expr : s.iterables) {
      if (it_expr->kind != ExprKind::kVar) {
        throw CompileError("for loops iterate named arrays at " +
                           s.loc.to_string());
      }
      const Binding& b = binding(it_expr->name, *it_expr);
      Iter it;
      if (b.kind == Binding::Kind::kList) {
        it.list = &ir_.lists[static_cast<std::size_t>(b.list)];
        capacity = capacity < 0 ? it.list->capacity
                                : std::min(capacity, it.list->capacity);
        it.count = it.list->count;
        // The loop runs over the elements present when it starts; a body
        // that pushes onto the list must not extend its own iteration.
        if (pushes_onto(*s.body[0], it_expr->name)) {
          it.count = new_local(ir_.field(it.list->count).width);
          out.push_back(ir::in_assign(it.count, ir::rv_field(it.list->count)));
        }
      } else if (b.kind == Binding::Kind::kConfig && b.config_values > 1) {
        it.config = &config_fields(it_expr->name, b, out);
        capacity = capacity < 0 ? b.config_values
                                : std::min(capacity, b.config_values);
      } else {
        throw CompileError("for loops iterate arrays at " +
                           s.loc.to_string());
      }
      iters.push_back(it);
    }
    if (capacity <= 0) return;

    // Unroll: iteration i executes when every list has more than i elements.
    for (int i = 0; i < capacity; ++i) {
      RValuePtr guard;
      for (const auto& it : iters) {
        if (it.list == nullptr) continue;  // config arrays are always full
        auto cond = ir::rv_binary(
            BinOp::kLt,
            ir::rv_const(BitVec(32, static_cast<std::uint64_t>(i))),
            ir::rv_field(it.count));
        guard = guard ? ir::rv_binary(BinOp::kAnd, std::move(guard),
                                      std::move(cond))
                      : std::move(cond);
      }
      // Bind loop variables to this iteration's slots.
      std::vector<std::string> bound;
      for (std::size_t v = 0; v < s.loop_vars.size(); ++v) {
        const auto& it = iters[v];
        const FieldId slot =
            it.list != nullptr
                ? it.list->slots[static_cast<std::size_t>(i)]
                : (*it.config)[static_cast<std::size_t>(i)];
        loop_bindings_[s.loop_vars[v]] = slot;
        bound.push_back(s.loop_vars[v]);
      }
      std::vector<InstrPtr> body;
      lower_stmt(*s.body[0], body);
      for (const auto& name : bound) loop_bindings_.erase(name);
      if (guard) {
        out.push_back(ir::in_if(std::move(guard), std::move(body)));
      } else {
        for (auto& instr : body) out.push_back(std::move(instr));
      }
    }
  }

  // -------------------------------------------------------------------------
  // Helpers
  // -------------------------------------------------------------------------

  // True when `s` (or any statement nested in it) pushes onto `list`.
  static bool pushes_onto(const Stmt& s, const std::string& list) {
    if (s.kind == StmtKind::kPush && s.push_list->kind == ExprKind::kVar &&
        s.push_list->name == list) {
      return true;
    }
    for (const auto& b : s.body) {
      if (b && pushes_onto(*b, list)) return true;
    }
    for (const auto& arm : s.arms) {
      if (arm.body && pushes_onto(*arm.body, list)) return true;
    }
    return s.else_body && pushes_onto(*s.else_body, list);
  }

  const Binding* find_binding(const std::string& name) const {
    const auto it = bindings_.find(name);
    return it == bindings_.end() ? nullptr : &it->second;
  }

  const Binding& binding(const std::string& name, const Expr& at) const {
    const Binding* b = find_binding(name);
    if (b == nullptr) {
      throw CompileError("unbound variable '" + name + "' at " +
                         at.loc.to_string());
    }
    return *b;
  }

  // Loads a config table's values into cached locals (once per block).
  const std::vector<FieldId>& config_fields(const std::string& name,
                                            const Binding& b,
                                            std::vector<InstrPtr>& out) {
    auto it = config_cache_.find(name);
    if (it != config_cache_.end()) return it->second;
    const ir::Table& t = ir_.tables[static_cast<std::size_t>(b.table)];
    std::vector<FieldId> fields;
    for (std::size_t i = 0; i < t.value_widths.size(); ++i) {
      const bool is_bool = b.type->is_bool();
      fields.push_back(new_local(t.value_widths[i], is_bool));
    }
    out.push_back(ir::in_table(b.table, {}, fields, FieldId{}));
    return config_cache_.emplace(name, std::move(fields)).first->second;
  }

  const Program& prog_;
  const SymbolTable& syms_;
  CheckerIR ir_;
  std::map<std::string, Binding> bindings_;
  std::map<std::string, FieldId> loop_bindings_;
  std::map<std::string, std::vector<FieldId>> config_cache_;
  int next_tmp_ = 0;
};

}  // namespace

ir::CheckerIR lower(const Program& program, const SymbolTable& symbols,
                    const std::string& checker_name) {
  Lowerer lowerer(program, symbols, checker_name);
  return lowerer.run();
}

}  // namespace hydra::compiler
