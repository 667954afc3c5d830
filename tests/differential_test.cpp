// Differential testing of the compiler: for randomly generated well-typed
// Indus programs, random control-plane contents, and random header traces,
// three executions must agree:
//   * the REFERENCE AST interpreter (src/indus/eval_ref),
//   * the IR interpreter (lowering -> IR -> p4rt::Interp),
//   * the slot program switches run (IR -> ir::lower_to_slots ->
//     p4rt::SlotExec),
// on
//   * the reject verdict,
//   * every report payload (order, values and widths),
//   * the final telemetry state (scalars, array slots, fill counts) and
//     sensor registers.
// The IR interpreter and the slot program must further agree on every IR
// field and on the InterpMetrics counts. Any divergence is a compiler bug.
#include <gtest/gtest.h>

#include <map>

#include "compiler/compile.hpp"
#include "indus/eval_ref.hpp"
#include "indus/parser.hpp"
#include "indus/pretty.hpp"
#include "indus_gen.hpp"
#include "obs/metrics.hpp"
#include "p4rt/interp.hpp"
#include "p4rt/slot_exec.hpp"
#include "util/rng.hpp"

namespace hydra {
namespace {

using indus::RefEvaluator;
using indus::RefOutcome;
using indus::RefState;

struct HopHeaders {
  std::map<std::string, BitVec> values;

  BitVec get(const std::string& ann, int width) const {
    const auto it = values.find(ann);
    if (it == values.end()) return BitVec(width, 0);
    return it->second.resize(width);
  }
};

// Random control-plane contents, installed identically on both sides.
struct ControlPlane {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> dict1;  // k -> v
  std::vector<std::pair<std::pair<std::uint64_t, std::uint64_t>, bool>>
      dict2;
  std::vector<std::uint64_t> set1;
  std::uint64_t cfg = 0;
  std::uint64_t carr[3] = {0, 0, 0};

  static ControlPlane random(Rng& rng) {
    ControlPlane cp;
    for (int i = 0; i < 5; ++i) {
      cp.dict1.emplace_back(rng.below(256), rng.below(1 << 16));
      cp.dict2.push_back({{rng.below(256), rng.below(256)},
                          rng.chance(0.5)});
      cp.set1.push_back(rng.below(256));
    }
    cp.cfg = rng.below(1000);
    for (auto& c : cp.carr) c = rng.below(256);
    return cp;
  }
};

struct Differential {
  compiler::CompiledChecker compiled;
  indus::Program program;
  indus::SymbolTable symbols;

  explicit Differential(const std::string& src)
      : compiled(compiler::compile_checker(src, "diff")) {
    indus::Diagnostics diags;
    program = indus::parse_indus(src, diags);
    symbols = indus::typecheck(program, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.to_string();
  }

  void install(const ControlPlane& cp, p4rt::CheckerState& istate,
               RefState& rstate) const {
    auto table = [&](const std::string& name) -> p4rt::Table& {
      const int t = compiled.ir.find_table(name);
      EXPECT_GE(t, 0) << name;
      return istate.tables[static_cast<std::size_t>(t)];
    };
    const auto& d1w = compiled.ir.tables[static_cast<std::size_t>(
                          compiled.ir.find_table("dict1"))].value_widths;
    // A repeated random key keeps its first entry on both sides: the table
    // breaks equal-priority ties by insertion order, so emplace, not
    // overwrite, in the reference's map.
    for (const auto& [k, v] : cp.dict1) {
      table("dict1").insert_exact({BitVec(8, k)}, {BitVec(d1w[0], v)});
      rstate.dicts["dict1"].emplace(std::vector<std::uint64_t>{k},
                                    indus::RefValue{BitVec(d1w[0], v)});
    }
    for (const auto& [kk, v] : cp.dict2) {
      table("dict2").insert_exact({BitVec(8, kk.first), BitVec(8, kk.second)},
                                  {BitVec::from_bool(v)});
      rstate.dicts["dict2"].emplace(
          std::vector<std::uint64_t>{kk.first, kk.second},
          indus::RefValue{BitVec::from_bool(v)});
    }
    for (const auto k : cp.set1) {
      table("set1").insert_exact({BitVec(8, k)}, {});
      rstate.sets["set1"].insert({k});
    }
    table("cfg").set_default({BitVec(32, cp.cfg)});
    rstate.configs["cfg"] = {BitVec(32, cp.cfg)};
    std::vector<BitVec> carr_vals;
    for (const auto c : cp.carr) carr_vals.emplace_back(8, c);
    table("carr").set_default(carr_vals);
    rstate.configs["carr"] = carr_vals;
  }

  // Runs all three executions over `hops` and compares everything.
  void check(const ControlPlane& cp, const std::vector<HopHeaders>& hops) {
    // --- IR interpreter ---
    p4rt::Interp interp(compiled.ir);
    p4rt::CheckerState istate = p4rt::make_checker_state(compiled.ir);
    // --- slot program ---
    const ir::SlotProgram& prog = compiled.slots;
    p4rt::SlotExec exec(prog);
    p4rt::CheckerState fstate = p4rt::make_checker_state(compiled.ir);
    // --- reference side ---
    RefEvaluator ref(program, symbols);
    RefState rstate;
    ref.init_packet_state(rstate);
    ref.init_switch_state(rstate);
    install(cp, istate, rstate);
    RefState unused;
    install(cp, fstate, unused);

    obs::Registry reg;
    p4rt::InterpMetrics im;
    im.instructions = reg.counter("i.instructions");
    im.table_lookups = reg.counter("i.table_lookups");
    im.reg_reads = reg.counter("i.reg_reads");
    im.reg_writes = reg.counter("i.reg_writes");
    interp.attach_metrics(im);
    p4rt::InterpMetrics fm;
    fm.instructions = reg.counter("f.instructions");
    fm.table_lookups = reg.counter("f.table_lookups");
    fm.reg_reads = reg.counter("f.reg_reads");
    fm.reg_writes = reg.counter("f.reg_writes");
    exec.attach_metrics(fm);

    auto vals = interp.fresh_store();
    auto slots = exec.fresh_slots();
    p4rt::ExecOutcome iout;
    p4rt::ExecOutcome fout;
    RefOutcome rout;

    const HopHeaders* hop = &hops.front();
    auto resolver = [&hop](const std::string& ann, int w) {
      return hop->get(ann, w);
    };
    // The slot program reads headers from an array indexed by header id.
    std::vector<std::uint64_t> hdr(prog.headers.size());
    std::vector<std::uint32_t> hdr_index(prog.headers.size());
    auto bind = [&] {
      for (std::size_t h = 0; h < prog.headers.size(); ++h) {
        hdr[h] = hop->get(prog.headers[h], 64).value();
        hdr_index[h] = static_cast<std::uint32_t>(h);
      }
    };
    auto run_flat = [&](const ir::SlotBlock& block) {
      bind();
      exec.run(block, slots, fstate, hdr.data(), hdr_index.data(), fout);
    };

    interp.run(compiled.ir.init_block, vals, istate, resolver, iout);
    run_flat(prog.init);
    ref.run_init(rstate, resolver, rout);
    for (const auto& h : hops) {
      hop = &h;
      interp.run(compiled.ir.tele_block, vals, istate, resolver, iout);
      run_flat(prog.tele_block);
      ref.run_tele(rstate, resolver, rout);
    }
    hop = &hops.back();
    interp.run(compiled.ir.check_block, vals, istate, resolver, iout);
    run_flat(prog.check);
    ref.run_check(rstate, resolver, rout);

    // Verdict + reports.
    ASSERT_EQ(iout.reject, rout.reject) << context();
    ASSERT_EQ(fout.reject, iout.reject) << context();
    ASSERT_EQ(iout.reports.size(), rout.reports.size()) << context();
    ASSERT_EQ(fout.reports.size(), iout.reports.size()) << context();
    for (std::size_t r = 0; r < iout.reports.size(); ++r) {
      ASSERT_EQ(iout.reports[r].size(), rout.reports[r].size()) << context();
      ASSERT_EQ(fout.reports[r].size(), iout.reports[r].size()) << context();
      for (std::size_t i = 0; i < iout.reports[r].size(); ++i) {
        EXPECT_EQ(iout.reports[r][i].value(), rout.reports[r][i].value())
            << "report " << r << " part " << i << context();
        EXPECT_EQ(iout.reports[r][i].width(), rout.reports[r][i].width())
            << "report " << r << " part " << i << context();
        EXPECT_EQ(fout.reports[r][i].value(), iout.reports[r][i].value())
            << "report " << r << " part " << i << context();
        EXPECT_EQ(fout.reports[r][i].width(), iout.reports[r][i].width())
            << "report " << r << " part " << i << context();
      }
    }

    // Slot program vs IR interpreter: every non-header field (header slots
    // hold the bound values; the interpreter reads headers in place) and
    // the execution counters.
    for (std::size_t i = 0; i < compiled.ir.fields.size(); ++i) {
      if (compiled.ir.fields[i].space == ir::Space::kHeader) continue;
      EXPECT_EQ(slots[i], vals[i].value())
          << compiled.ir.fields[i].name << context();
    }
    EXPECT_EQ(fm.instructions.value(), im.instructions.value()) << context();
    EXPECT_EQ(fm.table_lookups.value(), im.table_lookups.value())
        << context();
    EXPECT_EQ(fm.reg_reads.value(), im.reg_reads.value()) << context();
    EXPECT_EQ(fm.reg_writes.value(), im.reg_writes.value()) << context();
    for (std::size_t r = 0; r < istate.registers.size(); ++r) {
      EXPECT_EQ(fstate.registers[r].read(0).value(),
                istate.registers[r].read(0).value())
          << compiled.ir.registers[r].name << context();
    }

    // Final telemetry state.
    auto field_val = [&](const std::string& name) {
      const auto f = compiled.ir.find_field(name);
      EXPECT_TRUE(f.valid()) << name;
      return vals[static_cast<std::size_t>(f.id)];
    };
    for (const auto& [name, v] : rstate.scalars) {
      if (v.size() == 1) {
        EXPECT_EQ(field_val("tele." + name).value(), v[0].value())
            << name << context();
      }
    }
    for (const auto& [name, arr] : rstate.arrays) {
      EXPECT_EQ(field_val("tele." + name + ".cnt").value(),
                static_cast<std::uint64_t>(arr.count))
          << name << context();
      for (std::size_t i = 0; i < arr.slots.size(); ++i) {
        EXPECT_EQ(field_val("tele." + name + "[" + std::to_string(i) + "]")
                      .value(),
                  arr.slots[i].value())
            << name << "[" << i << "]" << context();
      }
    }
    // Sensors.
    for (const auto& [name, v] : rstate.sensors) {
      const int r = compiled.ir.find_register(name);
      ASSERT_GE(r, 0) << name;
      EXPECT_EQ(istate.registers[static_cast<std::size_t>(r)].read(0).value(),
                v.value())
          << name << context();
    }
  }

  std::string context() const { return "\nprogram:\n" + compiled.source; }
};

HopHeaders random_hop(Rng& rng, bool first, bool last) {
  HopHeaders h;
  h.values.emplace("h0", BitVec(8, rng.below(256)));
  h.values.emplace("h1", BitVec(16, rng.below(1 << 16)));
  h.values.emplace("hb", BitVec::from_bool(rng.chance(0.5)));
  h.values.emplace("std.packet_length", BitVec(32, rng.range(64, 1500)));
  h.values.emplace("std.first_hop", BitVec::from_bool(first));
  h.values.emplace("std.last_hop", BitVec::from_bool(last));
  return h;
}

class CompilerDifferential : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CompilerDifferential, ReferenceAndCompiledAgree) {
  Rng rng(GetParam());
  testgen::ProgramGen gen(rng);
  const std::string src = gen.generate();
  SCOPED_TRACE(src);
  Differential diff(src);
  for (int run = 0; run < 3; ++run) {
    const ControlPlane cp = ControlPlane::random(rng);
    const int hops = 1 + static_cast<int>(rng.below(5));
    std::vector<HopHeaders> trace;
    for (int i = 0; i < hops; ++i) {
      trace.push_back(random_hop(rng, i == 0, i == hops - 1));
    }
    diff.check(cp, trace);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompilerDifferential,
                         ::testing::Range<std::uint64_t>(1, 61));

// The generator's output must always parse, typecheck, and round-trip
// through the pretty printer.
class GeneratorSanity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeneratorSanity, GeneratedProgramsCompileAndRoundTrip) {
  Rng rng(GetParam() + 1000);
  testgen::ProgramGen gen(rng);
  const std::string src = gen.generate();
  SCOPED_TRACE(src);
  indus::Diagnostics d1;
  indus::Program p1 = indus::parse_indus(src, d1);
  ASSERT_FALSE(d1.has_errors()) << d1.to_string();
  indus::typecheck(p1, d1);
  ASSERT_FALSE(d1.has_errors()) << d1.to_string();
  const std::string printed = indus::to_source(p1);
  indus::Diagnostics d2;
  indus::Program p2 = indus::parse_indus(printed, d2);
  ASSERT_FALSE(d2.has_errors()) << printed << "\n" << d2.to_string();
  EXPECT_EQ(printed, indus::to_source(p2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorSanity,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace hydra
