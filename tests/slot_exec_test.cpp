// The slot program (ir::lower_to_slots + p4rt::SlotExec) against its
// oracle, the IR interpreter (p4rt::Interp), on every library checker:
// random table contents, random header traces, and the network's per-hop
// sequence (init into a fresh frame at the first hop; frame load,
// telemetry, check at the last hop, frame store at every hop). Verdicts,
// reports (values and widths), frames, registers, InterpMetrics counts and
// ExecProvenance records must be identical. Also covers the slot lowering's
// width-conflict rejections.
#include <gtest/gtest.h>

#include <map>

#include "checkers/library.hpp"
#include "compiler/compile.hpp"
#include "obs/metrics.hpp"
#include "p4rt/interp.hpp"
#include "p4rt/slot_exec.hpp"
#include "util/rng.hpp"

namespace hydra {
namespace {

using p4rt::CheckerState;
using p4rt::ExecOutcome;
using p4rt::ExecProvenance;
using p4rt::InterpMetrics;

// Small value domains, so random keys hit the random table entries.
std::uint64_t small(Rng& rng, int width) {
  return BitVec(width, rng.below(6)).value();
}

void fill_tables(const ir::CheckerIR& ir, Rng& rng, CheckerState& a,
                 CheckerState& b) {
  for (std::size_t t = 0; t < ir.tables.size(); ++t) {
    const ir::Table& spec = ir.tables[t];
    std::vector<BitVec> data;
    if (spec.config_scalar) {
      for (const int w : spec.value_widths) data.emplace_back(w, small(rng, w));
      a.tables[t].set_default(data);
      b.tables[t].set_default(data);
      continue;
    }
    const int entries = static_cast<int>(rng.below(8));
    for (int e = 0; e < entries; ++e) {
      std::vector<BitVec> key;
      for (const int w : spec.key_widths) key.emplace_back(w, small(rng, w));
      data.clear();
      for (const int w : spec.value_widths) {
        data.emplace_back(w, small(rng, w));
      }
      a.tables[t].insert_exact(key, data);
      b.tables[t].insert_exact(key, data);
    }
  }
}

InterpMetrics metrics(obs::Registry& reg, const std::string& prefix) {
  InterpMetrics m;
  m.instructions = reg.counter(prefix + ".instructions");
  m.table_lookups = reg.counter(prefix + ".table_lookups");
  m.reg_reads = reg.counter(prefix + ".reg_reads");
  m.reg_writes = reg.counter(prefix + ".reg_writes");
  return m;
}

void expect_same_outcome(const ExecOutcome& flat, const ExecOutcome& oracle,
                         const std::string& where) {
  EXPECT_EQ(flat.reject, oracle.reject) << where;
  ASSERT_EQ(flat.reports.size(), oracle.reports.size()) << where;
  for (std::size_t r = 0; r < flat.reports.size(); ++r) {
    ASSERT_EQ(flat.reports[r].size(), oracle.reports[r].size()) << where;
    for (std::size_t i = 0; i < flat.reports[r].size(); ++i) {
      EXPECT_EQ(flat.reports[r][i].value(), oracle.reports[r][i].value())
          << where << " report " << r << " part " << i;
      EXPECT_EQ(flat.reports[r][i].width(), oracle.reports[r][i].width())
          << where << " report " << r << " part " << i;
    }
  }
}

void expect_same_frame(const p4rt::TeleFrame& flat,
                       const p4rt::TeleFrame& oracle,
                       const std::string& where) {
  ASSERT_EQ(flat.values.size(), oracle.values.size()) << where;
  for (std::size_t i = 0; i < flat.values.size(); ++i) {
    EXPECT_EQ(flat.values[i].value(), oracle.values[i].value())
        << where << " field " << i;
    EXPECT_EQ(flat.values[i].width(), oracle.values[i].width())
        << where << " field " << i;
  }
}

void expect_same_provenance(const ExecProvenance& flat,
                            const ExecProvenance& oracle,
                            const std::string& where) {
  ASSERT_EQ(flat.table_hits.size(), oracle.table_hits.size()) << where;
  for (std::size_t i = 0; i < flat.table_hits.size(); ++i) {
    EXPECT_EQ(flat.table_hits[i].table, oracle.table_hits[i].table) << where;
    EXPECT_EQ(flat.table_hits[i].entry, oracle.table_hits[i].entry) << where;
    EXPECT_EQ(flat.table_hits[i].hit, oracle.table_hits[i].hit) << where;
  }
  ASSERT_EQ(flat.reg_touches.size(), oracle.reg_touches.size()) << where;
  for (std::size_t i = 0; i < flat.reg_touches.size(); ++i) {
    EXPECT_EQ(flat.reg_touches[i].reg, oracle.reg_touches[i].reg) << where;
    EXPECT_EQ(flat.reg_touches[i].wrote, oracle.reg_touches[i].wrote)
        << where;
    EXPECT_EQ(flat.reg_touches[i].before, oracle.reg_touches[i].before)
        << where;
    EXPECT_EQ(flat.reg_touches[i].after, oracle.reg_touches[i].after)
        << where;
  }
}

// One checker, many random packets over one switch's state.
void check_library_checker(const checkers::CheckerSpec& spec,
                           std::uint64_t seed) {
  SCOPED_TRACE(spec.name + " seed " + std::to_string(seed));
  for (const auto placement :
       {compiler::CheckPlacement::kLastHop,
        compiler::CheckPlacement::kEveryHop}) {
    compiler::CompileOptions opts;
    opts.placement = placement;
    const compiler::CompiledChecker c =
        compiler::compile_checker(spec.source, spec.name, opts);
    const ir::SlotProgram& prog = c.slots;
    Rng rng(seed);

    p4rt::Interp interp(c.ir);
    p4rt::SlotExec exec(prog);
    CheckerState istate = p4rt::make_checker_state(c.ir);
    CheckerState fstate = p4rt::make_checker_state(c.ir);
    fill_tables(c.ir, rng, istate, fstate);
    obs::Registry reg;
    const InterpMetrics im = metrics(reg, "interp");
    const InterpMetrics fm = metrics(reg, "flat");
    interp.attach_metrics(im);
    exec.attach_metrics(fm);
    ExecProvenance iprov;
    ExecProvenance fprov;
    interp.set_provenance(&iprov);
    exec.set_provenance(&fprov);

    // Header widths by annotation (the widest declaration's).
    std::map<std::string, int> header_width;
    for (const auto& f : c.ir.fields) {
      if (f.space != ir::Space::kHeader) continue;
      int& w = header_width[f.annotation];
      w = std::max(w, f.width);
    }
    std::map<std::string, std::uint64_t> headers;
    auto resolver = [&headers](const std::string& ann, int w) {
      return BitVec(w, headers.at(ann));
    };
    std::vector<std::uint64_t> hdr(prog.headers.size());
    std::vector<std::uint32_t> hdr_index(prog.headers.size());
    for (std::size_t h = 0; h < hdr_index.size(); ++h) {
      hdr_index[h] = static_cast<std::uint32_t>(h);
    }
    auto draw_headers = [&] {
      for (const auto& [ann, w] : header_width) {
        headers[ann] = small(rng, w);
      }
      for (std::size_t h = 0; h < prog.headers.size(); ++h) {
        hdr[h] = headers.at(prog.headers[h]);
      }
    };

    std::vector<BitVec> vals;
    std::vector<std::uint64_t> slots = exec.fresh_slots();
    ExecOutcome iout;
    ExecOutcome fout;
    for (int packet = 0; packet < 40; ++packet) {
      p4rt::TeleFrame iframe;
      p4rt::TeleFrame fframe;
      const int hops = 1 + static_cast<int>(rng.below(4));
      for (int hop = 0; hop < hops; ++hop) {
        const std::string where = "packet " + std::to_string(packet) +
                                  " hop " + std::to_string(hop);
        iprov.clear();
        fprov.clear();
        iout = {};
        fout = {};
        if (hop == 0) {
          draw_headers();
          interp.reset_store(vals);
          interp.run(c.ir.init_block, vals, istate, resolver, iout);
          interp.store_frame(vals, iframe);
          exec.reset(slots);
          exec.run(prog.init, slots, fstate, hdr.data(), hdr_index.data(),
                   fout);
          exec.store_frame(slots, fframe);
          expect_same_frame(fframe, iframe, where + " init");
        }
        draw_headers();
        const bool run_check = hop == hops - 1 ||
                               c.options.placement ==
                                   compiler::CheckPlacement::kEveryHop;
        interp.reset_store(vals);
        interp.load_frame(iframe, vals);
        interp.run(c.ir.tele_block, vals, istate, resolver, iout);
        if (run_check) {
          interp.run(c.ir.check_block, vals, istate, resolver, iout);
        }
        interp.store_frame(vals, iframe);
        exec.load_frame(fframe, slots);  // no reset(), as in the network
        exec.run(prog.tele_block, slots, fstate, hdr.data(),
                 hdr_index.data(), fout);
        if (run_check) {
          exec.run(prog.check, slots, fstate, hdr.data(), hdr_index.data(),
                   fout);
        }
        exec.store_frame(slots, fframe);
        expect_same_outcome(fout, iout, where);
        expect_same_frame(fframe, iframe, where);
        expect_same_provenance(fprov, iprov, where);
        if (::testing::Test::HasFailure()) return;
      }
    }
    for (std::size_t r = 0; r < istate.registers.size(); ++r) {
      EXPECT_EQ(fstate.registers[r].read(0).value(),
                istate.registers[r].read(0).value())
          << c.ir.registers[r].name;
    }
    EXPECT_EQ(fm.instructions.value(), im.instructions.value());
    EXPECT_EQ(fm.table_lookups.value(), im.table_lookups.value());
    EXPECT_EQ(fm.reg_reads.value(), im.reg_reads.value());
    EXPECT_EQ(fm.reg_writes.value(), im.reg_writes.value());
    EXPECT_GT(fm.instructions.value(), 0u);
  }
}

class LibraryCheckers : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LibraryCheckers, SlotProgramMatchesInterp) {
  for (const auto& spec : checkers::all_checkers()) {
    check_library_checker(spec, GetParam());
    if (::testing::Test::HasFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LibraryCheckers,
                         ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Lowering rejects a slot that would hold two widths.
// ---------------------------------------------------------------------------

ir::CheckerIR tiny_ir() {
  ir::CheckerIR ir;
  ir.name = "tiny";
  ir.fields.push_back({"tele.x", ir::Space::kTele, 8, false, ""});
  ir.fields.push_back({"hdr.p", ir::Space::kHeader, 8, false, "in_port"});
  ir.fields.push_back({"tmp0", ir::Space::kLocal, 4, false, ""});
  return ir;
}

TEST(SlotLowering, RejectsRegisterReadIntoNarrowerField) {
  ir::CheckerIR ir = tiny_ir();
  ir.registers.push_back({"r", 16, BitVec(16, 0)});
  ir.tele_block.push_back(ir::in_reg_read(0, ir::FieldId{0}));
  EXPECT_THROW(ir::lower_to_slots(ir), std::logic_error);
  ir.registers[0].width = 8;
  EXPECT_NO_THROW(ir::lower_to_slots(ir));
}

TEST(SlotLowering, RejectsWideHitFlag) {
  ir::CheckerIR ir = tiny_ir();
  ir.tables.push_back({"t", {8}, {}, true, false});
  std::vector<ir::RValuePtr> keys;
  keys.push_back(ir::rv_field(ir::FieldId{1}));
  ir.tele_block.push_back(
      ir::in_table(0, std::move(keys), {}, ir::FieldId{2}));
  EXPECT_THROW(ir::lower_to_slots(ir), std::logic_error);
}

TEST(SlotLowering, RejectsHeaderWrite) {
  ir::CheckerIR ir = tiny_ir();
  ir.init_block.push_back(
      ir::in_assign(ir::FieldId{1}, ir::rv_const(BitVec(8, 1))));
  EXPECT_THROW(ir::lower_to_slots(ir), std::logic_error);
}

TEST(SlotLowering, MasksOnlyWhereValuesCanWrap) {
  // x := (x + 255) wraps at 8 bits; x := x & tmp0 cannot grow.
  ir::CheckerIR ir = tiny_ir();
  ir.tele_block.push_back(ir::in_assign(
      ir::FieldId{0},
      ir::rv_binary(indus::BinOp::kAdd, ir::rv_field(ir::FieldId{0}),
                    ir::rv_const(BitVec(8, 255)))));
  ir.tele_block.push_back(ir::in_assign(
      ir::FieldId{0},
      ir::rv_binary(indus::BinOp::kBitAnd, ir::rv_field(ir::FieldId{0}),
                    ir::rv_field(ir::FieldId{2}))));
  const ir::SlotProgram prog = ir::lower_to_slots(ir);
  ASSERT_EQ(prog.tele_block.ops.size(), 2u);
  EXPECT_EQ(prog.tele_block.ops[0].code, ir::SlotCode::kAdd);
  EXPECT_EQ(prog.tele_block.ops[0].mask, 0xffu);
  EXPECT_EQ(prog.tele_block.ops[1].code, ir::SlotCode::kBitAnd);

  p4rt::SlotExec exec(prog);
  CheckerState state;
  std::vector<std::uint64_t> slots = exec.fresh_slots();
  slots[0] = 3;
  slots[2] = 0xf;
  ExecOutcome out;
  exec.run(prog.tele_block, slots, state, nullptr, nullptr, out);
  EXPECT_EQ(slots[0], 2u);  // (3 + 255) mod 256, then & 0xf
}

}  // namespace
}  // namespace hydra
