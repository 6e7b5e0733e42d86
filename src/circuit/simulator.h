// Bit-parallel netlist simulation.
//
// A single pass over the gate list evaluates 64 input assignments at once:
// every signal carries a 64-bit word whose bit t is the signal's value under
// assignment t.  Exhaustively evaluating an n-input circuit therefore costs
// 2^n / 64 passes — for the paper's 8x8 multipliers (n = 16) that is 1024
// words, i.e. roughly half a million gate operations per candidate, which is
// what makes CGP search with full-input-space error metrics practical.
//
// sim_program is the one compiled simulator: every exhaustive result in
// src/ (WMED sweeps, result tables) runs through it.  simulate_block is the
// single-word interpreter behind sampled-stream simulation
// (circuit/activity.h) and the scalar exhaustive oracles of
// tests/test_util.h.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/netlist.h"
#include "support/assert.h"
#include "support/simd.h"

namespace axc::circuit {

/// One compiled gate operation of a sim_program schedule.  Slot offsets are
/// premultiplied by sim_program::lanes, so the step executors index the
/// slot buffer directly.
struct sim_step {
  gate_fn fn{gate_fn::const0};
  std::uint32_t in0{0};  ///< slot offset, premultiplied by lanes
  std::uint32_t in1{0};
  std::uint32_t out{0};  ///< slot offset, premultiplied by lanes
};

/// Executes the steps of a step *table* named by an active-index list over
/// a slot buffer, eight lanes per signal.  Backends live in
/// sim_step_kernels*.cpp (scalar / AVX2 / AVX-512 behind runtime dispatch,
/// same rules as the metrics scan kernels); all are bit-identical.
using sim_steps_indexed_fn = void (*)(const sim_step* table,
                                      const std::uint32_t* indices,
                                      std::size_t count, std::uint64_t* slots);
/// Packs node flags into an ascending active-index list; returns the count.
/// `out` must have room for `count` entries.
using sim_pack_fn = std::size_t (*)(const std::uint8_t* flags,
                                    std::size_t count, std::uint32_t* out);

/// Whether a step-executor backend is compiled in AND runnable here.
[[nodiscard]] bool sim_steps_level_available(simd::level l);
/// automatic -> AXC_SIMD override or best available; explicit levels are
/// clamped down to availability (scalar is always the floor).
[[nodiscard]] simd::level resolve_sim_steps_level(simd::level requested);
/// The executor and pack kernel for a resolved level (scalar fallback,
/// never null).
[[nodiscard]] sim_steps_indexed_fn sim_steps_indexed_kernel(
    simd::level resolved);
[[nodiscard]] sim_pack_fn sim_pack_kernel(simd::level resolved);

/// Evaluates one 64-assignment block over every gate.
/// `inputs[i]` is the word for primary input i; `outputs[o]` receives the
/// word for primary output o.  `scratch` must have num_signals() elements.
void simulate_block(const netlist& nl, std::span<const std::uint64_t> inputs,
                    std::span<std::uint64_t> outputs,
                    std::span<std::uint64_t> scratch);

/// The canonical exhaustive input pattern: bit t of the returned word for
/// input i within block `block` equals bit i of the assignment index
/// (block*64 + t).  Inputs 0..5 toggle inside a word; higher inputs are
/// constant across a word.
std::uint64_t exhaustive_input_word(std::size_t input_index,
                                    std::size_t block);

/// Compiled, cone-restricted, wide-lane simulation schedule — the fast path
/// of the CGP search inner loop (see README.md in this directory).
///
/// The schedule is a step *table* over a caller-defined slot space plus a
/// packed list of the table entries that execute (ascending, which must be
/// a topological order).  Every signal occupies `lanes` consecutive 64-bit
/// words, so one pass evaluates lanes*64 input assignments and the
/// per-gate dispatch cost is amortized over whole vector rows.
///
/// Two builders fill it:
///  - rebuild(netlist): table entry k is gate k, writing slot ni + k of the
///    netlist's own address space; the active list is the output cone
///    (netlist::active_mask()), so inactive gates cost nothing.
///  - the table API (reset_table/set_table_step/set_output_slot/
///    set_active_from_flags), which cgp::cone_program drives over the CGP
///    address space and patches per mutant in O(dirty).
/// The topological read contract applies to the *active* steps: every slot
/// an active step reads (per gate_fn operand dependence) is an input slot
/// or the output slot of an earlier active step.  Ignored operands may name
/// unwritten or stale slots, and dormant table entries may hold anything;
/// the executors never read either.
///
/// Lane layout: input i of lane-major span `inputs` occupies
/// inputs[i*lanes .. i*lanes+lanes); outputs are packed the same way.  Lane
/// l of every signal carries an independent 64-assignment block, so
/// callers may mix arbitrary blocks in one pass.
///
/// Storage is reused across rebuilds: after the first schedule of a given
/// size, rebuilding and running allocate nothing.
class sim_program {
 public:
  static constexpr std::size_t lanes = 8;

  sim_program() { set_simd_level(simd::level::automatic); }
  explicit sim_program(const netlist& nl) : sim_program() { rebuild(nl); }

  /// Recompiles for `nl`, reusing storage.
  void rebuild(const netlist& nl);

  [[nodiscard]] std::size_t num_inputs() const { return num_inputs_; }
  [[nodiscard]] std::size_t num_outputs() const { return output_slots_.size(); }

  /// One pass over the active steps: `lanes` blocks of 64 assignments.
  /// `inputs` must have num_inputs()*lanes words, `outputs`
  /// num_outputs()*lanes.
  void run(std::span<const std::uint64_t> inputs,
           std::span<std::uint64_t> outputs);

  /// run() without the output copy: evaluates the schedule and leaves the
  /// results in the slot buffer, to be read lane-major via output_rows().
  /// This is the entry the batched WMED scan consumes — its kernel loads
  /// each candidate output plane straight from the slot row, so the per-pass
  /// num_outputs()*lanes-word gather disappears.
  void run_in_place(std::span<const std::uint64_t> inputs);

  /// Fills `rows` (num_outputs() entries) with pointers to each output's
  /// lane row inside the slot buffer.  The pointers are stable across
  /// run()/run_in_place() calls — hoist the fill out of a sweep loop — and
  /// are invalidated by rebuild(), reset_table() and set_output_slot().
  void output_rows(std::span<const std::uint64_t*> rows) const {
    AXC_EXPECTS(rows.size() == output_slots_.size());
    for (std::size_t o = 0; o < output_slots_.size(); ++o) {
      rows[o] = slot_base() + output_slots_[o];
    }
  }

  // --- table construction and in-place patching --------------------------
  // Slot indices at this interface are *un*-premultiplied: inputs occupy
  // slots [0, num_inputs); the caller owns the rest of [0, num_slots).

  /// Starts a fresh schedule of `table_size` steps over `num_slots` slots.
  /// Keeps storage; slot words beyond the current size are
  /// zero-initialized, and the active list starts empty.
  void reset_table(std::size_t num_inputs, std::size_t num_outputs,
                   std::size_t num_slots, std::size_t table_size) {
    AXC_EXPECTS(num_slots >= num_inputs);
    num_inputs_ = num_inputs;
    output_slots_.assign(num_outputs, 0);
    slots_.resize(num_slots * lanes + kSlotPad);
    table_.resize(table_size);
    active_idx_.clear();
  }

  /// Writes step `t`; the step reads follow gate_fn operand dependence.
  void set_table_step(std::size_t t, gate_fn fn, std::uint32_t in0_slot,
                      std::uint32_t in1_slot, std::uint32_t out_slot) {
    table_[t] = sim_step{fn, static_cast<std::uint32_t>(in0_slot * lanes),
                         static_cast<std::uint32_t>(in1_slot * lanes),
                         static_cast<std::uint32_t>(out_slot * lanes)};
  }

  void set_output_slot(std::size_t o, std::uint32_t slot) {
    output_slots_[o] = static_cast<std::uint32_t>(slot * lanes);
  }

  [[nodiscard]] gate_fn table_fn(std::size_t t) const { return table_[t].fn; }

  /// Rebuilds the active index list from per-step flags (`count` ==
  /// table size): step t executes iff flags[t] != 0.
  void set_active_from_flags(const std::uint8_t* flags, std::size_t count);

  /// Steps a pass executes (for rebuild(netlist): the active cone size).
  [[nodiscard]] std::size_t active_count() const { return active_idx_.size(); }
  [[nodiscard]] std::uint32_t active_index(std::size_t i) const {
    return active_idx_[i];
  }
  /// Selects the step-executor and pack backends.  `automatic` (what
  /// construction selects) is the strongest compiled-in backend the CPU
  /// supports, AXC_SIMD environment override honoured.  Bit-identical at
  /// every level — the evaluator forwards its forced scan level here so
  /// parity tests exercise the whole sweep (simulate + scan) on one
  /// backend.
  void set_simd_level(simd::level l);

 private:
  /// slots_ is overallocated by this many words so the executing base can
  /// be rounded up to a 64-byte boundary: std::vector only guarantees
  /// 16-byte alignment, and unaligned 64-byte signal rows straddle cache
  /// lines on every access (a measured double-digit-percent executor tax).
  static constexpr std::size_t kSlotPad = 7;

  /// The 64-byte-aligned base of the slot buffer; all premultiplied slot
  /// offsets (output_slots_, step operands) are relative to this.
  [[nodiscard]] const std::uint64_t* slot_base() const {
    const auto p = reinterpret_cast<std::uintptr_t>(slots_.data());
    return slots_.data() + ((~p + 1) & 63) / 8;
  }
  [[nodiscard]] std::uint64_t* slot_base() {
    const auto p = reinterpret_cast<std::uintptr_t>(slots_.data());
    return slots_.data() + ((~p + 1) & 63) / 8;
  }

  std::vector<sim_step> table_;             ///< one step per caller node
  std::vector<std::uint32_t> active_idx_;   ///< executing steps, ascending
  std::vector<std::uint32_t> output_slots_;  ///< premultiplied by lanes
  std::size_t num_inputs_{0};
  std::vector<std::uint64_t> slots_;  ///< num_slots * lanes + kSlotPad words
  std::vector<std::uint8_t> flags_;   ///< rebuild() cone flags, reused
  sim_steps_indexed_fn steps_fn_{nullptr};
  sim_pack_fn pack_fn_{nullptr};
};

}  // namespace axc::circuit
