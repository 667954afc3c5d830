#include "compiler/compile.hpp"

#include "compiler/emit_p4.hpp"
#include "compiler/lower.hpp"
#include "compiler/relocate.hpp"
#include "indus/parser.hpp"
#include "indus/typecheck.hpp"
#include "util/strings.hpp"

namespace hydra::compiler {

CompiledChecker compile_checker(const std::string& source,
                                const std::string& name,
                                const CompileOptions& options) {
  CompiledChecker out;
  out.name = name;
  out.source = source;
  out.options = options;

  indus::Diagnostics diags;
  indus::Program program = indus::parse_indus(source, diags);
  diags.throw_if_errors("parse of checker '" + name + "'");
  const indus::SymbolTable symbols = indus::typecheck(program, diags);
  diags.throw_if_errors("typecheck of checker '" + name + "'");

  out.ir = lower(program, symbols, name);
  out.slots = ir::lower_to_slots(out.ir);
  const RelocationAnalysis relocation = analyze_relocation(out.ir);
  out.relocatable = relocation.relocatable;
  out.relocation_reason = relocation.reason;
  if (out.options.placement == CheckPlacement::kAuto) {
    out.options.placement = relocation.relocatable
                                ? CheckPlacement::kEveryHop
                                : CheckPlacement::kLastHop;
  }
  out.layout = layout_telemetry(out.ir, options.byte_aligned_layout);
  out.resources = estimate_resources(out.ir);
  out.linked = link_resources(options.baseline, out.resources);
  out.p4_code = emit_p4(out.ir, out.layout, options.dialect);
  out.indus_loc = str::count_loc(source);
  out.p4_loc = str::count_loc(out.p4_code);
  return out;
}

}  // namespace hydra::compiler
