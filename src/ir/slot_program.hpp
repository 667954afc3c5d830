// Flat slot programs: the form a CheckerIR runs in on simulated switches.
//
// Lowering turns each instruction block's `unique_ptr` trees into a flat,
// index-addressed op list over one `uint64_t` store (the slot store):
//
//   [0, field_count)            one slot per IR field (FieldId == slot)
//   [field_count, const_end)    constants, written once by fresh_slots()
//   [const_end, slot_count)     temporaries of one instruction's rvalues
//
// Every value's width is fixed at lowering time, so a slot holds a bare
// integer that is always below 2^width. A mask is applied only where the
// BitVec rules can carry bits past the width: add/sub/mul/neg/bnot/shl mask
// to the joined width, and assign/push/lookup results resize to the
// destination. Lowering throws std::logic_error when one slot would have to
// hold two widths (a register read into a field of another width, a hit
// flag wider than one bit, a list slot whose width differs from the list's
// element width) or when an instruction writes a header field: p4rt::Interp
// would then keep a width in its store that the field declaration does not
// say.
//
// Header fields are slots too. Each block lists the header fields it reads
// (SlotBlock::headers); the executor fills those slots from a header value
// array before the block's first op. Header ids index SlotProgram::headers,
// the distinct annotations of every header field the IR declares; the
// network binds each annotation to a data-plane field at deploy time.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ir/ir.hpp"

namespace hydra::ir {

enum class SlotCode : std::uint8_t {
  kMov,      // dst = a
  kMovMask,  // dst = a & mask
  kAdd,      // dst = (a + b) & mask
  kSub,      // dst = (a - b) & mask
  kMul,      // dst = (a * b) & mask
  kDiv,      // dst = b ? a / b : mask
  kMod,      // dst = b ? a % b : 0
  kBitAnd,   // dst = a & b
  kBitOr,    // dst = a | b
  kBitXor,   // dst = a ^ b
  kShl,      // dst = b < 64 ? (a << b) & mask : 0
  kShr,      // dst = b < 64 ? a >> b : 0
  kNot,      // dst = a == 0
  kBitNot,   // dst = ~a & mask
  kNeg,      // dst = (0 - a) & mask
  kAnd,      // dst = a != 0 && b != 0
  kOr,       // dst = a != 0 || b != 0
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kAbsDiff,   // dst = |a - b|
  kLookup,    // SlotProgram::lookups[a]
  kRegRead,   // dst = registers[a]
  kRegWrite,  // registers[a] = b
  kPush,      // SlotProgram::pushes[a].push(b)
  kReport,    // SlotProgram::reports[a]
  kReject,
  kBranch,  // if a == 0, continue at op index dst
  kJump,    // continue at op index dst
};

inline constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

struct SlotOp {
  SlotCode code = SlotCode::kMov;
  // 1 on the op that completes an IR instruction: summing it over the
  // executed ops gives InterpMetrics::instructions exactly.
  std::uint8_t ir_instr = 0;
  std::uint32_t dst = 0;  // result slot; kBranch/kJump: target op index
  std::uint32_t a = 0;    // operand slot, or a register / side-table index
  std::uint32_t b = 0;    // operand slot
  std::uint64_t mask = ~0ULL;
};

// kTableLookup: keys resize to the table's key widths; results resize to
// their destination fields.
struct SlotLookup {
  int table = -1;
  bool config_scalar = false;
  std::vector<std::uint32_t> keys;
  std::vector<int> key_widths;
  std::vector<std::uint32_t> dsts;
  std::vector<std::uint64_t> dst_masks;
  std::uint32_t hit = kNoSlot;
};

// kPush onto a bounded tele list (saturating, like the header stack).
struct SlotPush {
  std::uint32_t count = 0;
  std::uint64_t count_mask = 0;
  std::vector<std::uint32_t> slots;
  std::uint64_t elem_mask = 0;
};

struct SlotReport {
  std::vector<std::uint32_t> slots;
  std::vector<int> widths;
};

// One header field a block reads: slot = values[header] & mask.
struct HeaderLoad {
  std::uint32_t slot = 0;
  std::uint32_t header = 0;  // index into SlotProgram::headers
  std::uint64_t mask = 0;
};

struct SlotBlock {
  std::vector<SlotOp> ops;
  std::vector<HeaderLoad> headers;
};

// A tele field: the slots a frame load/store copies.
struct TeleSlot {
  std::uint32_t slot = 0;
  int width = 1;
};

struct SlotProgram {
  std::string name;  // the checker's
  std::uint32_t field_count = 0;
  std::vector<int> field_widths;  // by field id
  // Template store: fields zero, constants set, temporaries zero.
  std::vector<std::uint64_t> initial;
  std::vector<TeleSlot> tele;
  // Local and metadata fields: zeroed when a hop starts. (Header slots
  // need no zeroing: a block loads every header slot it reads.)
  std::vector<std::uint32_t> scratch;
  std::vector<std::string> headers;  // distinct header annotations

  std::vector<SlotLookup> lookups;
  std::vector<SlotPush> pushes;
  std::vector<SlotReport> reports;

  SlotBlock init;
  SlotBlock tele_block;
  SlotBlock check;
};

// Lowers `ir` into a slot program; throws std::logic_error on a width
// conflict or a header write (see the top of this file).
SlotProgram lower_to_slots(const CheckerIR& ir);

}  // namespace hydra::ir
