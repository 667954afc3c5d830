// Top-level Indus compiler driver: source text in, deployable checker out.
//
//   CompiledChecker c = compile_checker(source, "multi_tenancy");
//
// The result bundles everything the rest of the system consumes: the IR
// and its slot program (executed by simulated switches), the telemetry wire
// layout (used to size packets), the generated P4 text (Table 1 LoC), and the resource report
// (Table 1 stages / PHV).
#pragma once

#include <string>

#include "compiler/emit_p4.hpp"
#include "compiler/layout.hpp"
#include "compiler/resources.hpp"
#include "indus/diagnostics.hpp"  // compile_checker throws indus::CompileError
#include "ir/ir.hpp"
#include "ir/slot_program.hpp"

namespace hydra::compiler {

// Where checks execute (§4.3). Last-hop checking is the paper's default;
// per-hop checking runs the checker block at every switch. kAuto asks the
// relocation analysis (compiler/relocate.hpp) to prove per-hop checking
// sound and falls back to last-hop otherwise.
enum class CheckPlacement { kLastHop, kEveryHop, kAuto };

struct CompileOptions {
  CheckPlacement placement = CheckPlacement::kLastHop;
  bool byte_aligned_layout = false;
  BaselineProfile baseline = fabric_upf_profile();
  P4Dialect dialect = P4Dialect::kTna;
};

struct CompiledChecker {
  std::string name;
  std::string source;  // original Indus text
  CompileOptions options;  // options.placement is resolved (never kAuto)

  ir::CheckerIR ir;
  ir::SlotProgram slots;  // `ir` lowered for execution (ir/slot_program.hpp)
  TelemetryLayout layout;
  ResourceReport resources;
  LinkedResources linked;
  std::string p4_code;

  // Verdict of the §4.3 relocation analysis (filled for every compile).
  bool relocatable = false;
  std::string relocation_reason;

  int indus_loc = 0;
  int p4_loc = 0;
};

// Throws indus::CompileError on any lex/parse/type/lowering error.
CompiledChecker compile_checker(const std::string& source,
                                const std::string& name,
                                const CompileOptions& options = {});

}  // namespace hydra::compiler
