// Executes a compiled checker's slot program (ir/slot_program.hpp) on a
// simulated switch — the pipeline's runtime. It keeps p4rt::Interp's
// observable contract: the same verdicts, reports (values and widths),
// telemetry frames, register and table effects, InterpMetrics counts and
// ExecProvenance records. Interp stays as the differential oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/slot_program.hpp"
#include "p4rt/interp.hpp"

namespace hydra::p4rt {

class SlotExec {
 public:
  explicit SlotExec(const ir::SlotProgram& prog);

  // A slot store sized for the program, constants in place.
  std::vector<std::uint64_t> fresh_slots() const { return prog_.initial; }
  // Zeroes the field slots of a store made by fresh_slots(): the start of
  // a packet's init run.
  void reset(std::vector<std::uint64_t>& slots) const;
  // The start of a telemetry/check run: zeroes the local and metadata
  // slots and copies the frame's tele values in. Header slots keep stale
  // values, which no block reads: each loads the header slots it uses.
  // Throws std::invalid_argument when the frame does not have one value
  // per IR field.
  void load_frame(const TeleFrame& frame,
                  std::vector<std::uint64_t>& slots) const;
  // Writes the tele slots into `frame`, laying out zeroed non-tele values
  // first when the frame is empty or sized for another program.
  void store_frame(const std::vector<std::uint64_t>& slots,
                   TeleFrame& frame) const;

  // Runs one block. The block's header fields read
  // hdr[hdr_index[header id]], masked to the field width.
  void run(const ir::SlotBlock& block, std::vector<std::uint64_t>& slots,
           CheckerState& state, const std::uint64_t* hdr,
           const std::uint32_t* hdr_index, ExecOutcome& out) const;

  void attach_metrics(const InterpMetrics& metrics) { metrics_ = metrics; }
  // Arms (non-null) or disarms provenance capture; see Interp.
  void set_provenance(ExecProvenance* prov) { prov_ = prov; }

 private:
  const ir::SlotProgram& prog_;
  std::vector<BitVec> zero_frame_;  // every field zero at its width
  // Table keys; one executor belongs to one engine worker (see Interp).
  mutable std::vector<BitVec> key_scratch_;
  InterpMetrics metrics_;
  ExecProvenance* prov_ = nullptr;
};

}  // namespace hydra::p4rt
