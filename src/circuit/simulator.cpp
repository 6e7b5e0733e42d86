#include "circuit/simulator.h"

#include <array>

#include "support/assert.h"

namespace axc::circuit {

void simulate_block(const netlist& nl, std::span<const std::uint64_t> inputs,
                    std::span<std::uint64_t> outputs,
                    std::span<std::uint64_t> scratch) {
  AXC_EXPECTS(inputs.size() == nl.num_inputs());
  AXC_EXPECTS(outputs.size() == nl.num_outputs());
  AXC_EXPECTS(scratch.size() >= nl.num_signals());

  for (std::size_t i = 0; i < inputs.size(); ++i) scratch[i] = inputs[i];

  const std::size_t ni = nl.num_inputs();
  const std::span<const gate_node> gates = nl.gates();
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const gate_node& g = gates[k];
    scratch[ni + k] = eval_gate(g.fn, scratch[g.in0], scratch[g.in1]);
  }
  for (std::size_t o = 0; o < outputs.size(); ++o) {
    outputs[o] = scratch[nl.output(o)];
  }
}

std::uint64_t exhaustive_input_word(std::size_t input_index,
                                    std::size_t block) {
  // Inputs 0..5 have period 2,4,...,64 inside a word; the repeating patterns
  // are compile-time constants.  Input i >= 6 is bit (i - 6) of the block
  // index, replicated across the word.
  static constexpr std::array<std::uint64_t, 6> kWithinWord = {
      0xaaaaaaaaaaaaaaaaULL, 0xccccccccccccccccULL, 0xf0f0f0f0f0f0f0f0ULL,
      0xff00ff00ff00ff00ULL, 0xffff0000ffff0000ULL, 0xffffffff00000000ULL,
  };
  if (input_index < kWithinWord.size()) return kWithinWord[input_index];
  return (block >> (input_index - 6)) & 1 ? ~std::uint64_t{0} : 0;
}

void sim_program::rebuild(const netlist& nl) {
  const std::size_t ni = nl.num_inputs();
  const std::span<const gate_node> gates = nl.gates();
  // The netlist's address space is the slot space: gate k writes slot
  // ni + k and operands are addresses verbatim.
  reset_table(ni, nl.num_outputs(), nl.num_signals(), gates.size());
  for (std::size_t k = 0; k < gates.size(); ++k) {
    const gate_node& g = gates[k];
    set_table_step(k, g.fn, g.in0, g.in1, static_cast<std::uint32_t>(ni + k));
  }
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    set_output_slot(o, nl.output(o));
  }
  // The cone rule (outputs seed it; functions that ignore an operand do not
  // pull it in) has a single owner: netlist::active_mask().
  const std::vector<bool> active = nl.active_mask();
  flags_.assign(active.begin(), active.end());
  set_active_from_flags(flags_.data(), flags_.size());
}

void sim_program::run(std::span<const std::uint64_t> inputs,
                      std::span<std::uint64_t> outputs) {
  AXC_EXPECTS(outputs.size() == output_slots_.size() * lanes);
  run_in_place(inputs);

  const std::uint64_t* const base = slot_base();
  for (std::size_t o = 0; o < output_slots_.size(); ++o) {
    const std::uint64_t* const src = base + output_slots_[o];
    for (std::size_t w = 0; w < lanes; ++w) outputs[o * lanes + w] = src[w];
  }
}

void sim_program::set_simd_level(simd::level l) {
  const simd::level resolved = resolve_sim_steps_level(l);
  steps_fn_ = sim_steps_indexed_kernel(resolved);
  pack_fn_ = sim_pack_kernel(resolved);
}

void sim_program::set_active_from_flags(const std::uint8_t* flags,
                                        std::size_t count) {
  AXC_EXPECTS(count == table_.size());
  active_idx_.resize(count);  // worst case: every step active
  active_idx_.resize(pack_fn_(flags, count, active_idx_.data()));
}

void sim_program::run_in_place(std::span<const std::uint64_t> inputs) {
  AXC_EXPECTS(inputs.size() == num_inputs_ * lanes);

  std::uint64_t* const base = slot_base();
  for (std::size_t i = 0; i < inputs.size(); ++i) base[i] = inputs[i];
  steps_fn_(table_.data(), active_idx_.data(), active_idx_.size(), base);
}

}  // namespace axc::circuit
