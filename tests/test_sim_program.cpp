#include <gtest/gtest.h>

#include <vector>

#include "cgp/genotype.h"
#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "mult/multipliers.h"
#include "support/rng.h"
#include "support/simd.h"
#include "test_util.h"

namespace axc::circuit {
namespace {

// Reference: simulate one block with the straightforward all-gates path.
std::vector<std::uint64_t> reference_block(const netlist& nl,
                                           std::size_t block) {
  std::vector<std::uint64_t> in(nl.num_inputs()), out(nl.num_outputs()),
      scratch(nl.num_signals());
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    in[i] = exhaustive_input_word(i, block);
  }
  simulate_block(nl, in, out, scratch);
  return out;
}

constexpr std::size_t W = sim_program::lanes;

/// Runs `program` (compiled for `nl`) with lane l carrying block blocks[l]
/// and checks every lane against the reference.
void expect_blocks_match(sim_program& program, const netlist& nl,
                         const std::vector<std::size_t>& blocks) {
  ASSERT_EQ(blocks.size(), W);
  std::vector<std::uint64_t> in(nl.num_inputs() * W), out(nl.num_outputs() * W);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    for (std::size_t l = 0; l < W; ++l) {
      in[i * W + l] = exhaustive_input_word(i, blocks[l]);
    }
  }
  program.run(in, out);

  for (std::size_t l = 0; l < W; ++l) {
    const std::vector<std::uint64_t> expected = reference_block(nl, blocks[l]);
    for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
      EXPECT_EQ(out[o * W + l], expected[o]) << "lane " << l << " output " << o;
    }
  }
}

/// A fresh program for `nl`; each lane carries an arbitrary, independent
/// block.
void expect_lane_parity(const netlist& nl, rng& gen) {
  sim_program program(nl);
  ASSERT_EQ(program.num_inputs(), nl.num_inputs());
  ASSERT_EQ(program.num_outputs(), nl.num_outputs());
  std::vector<std::size_t> blocks(W);
  for (auto& b : blocks) b = gen.below(1024);
  expect_blocks_match(program, nl, blocks);
}

/// Every step-executor backend this binary can dispatch to here.
std::vector<simd::level> forced_levels() {
  std::vector<simd::level> levels{simd::level::scalar};
  for (const simd::level l : {simd::level::avx2, simd::level::avx512}) {
    if (sim_steps_level_available(l)) levels.push_back(l);
  }
  return levels;
}

TEST(sim_program, bit_identical_to_simulate_block_random_netlists) {
  rng gen(321);
  for (int trial = 0; trial < 15; ++trial) {
    const netlist nl = test::random_netlist(10, 6, 80, gen);
    expect_lane_parity(nl, gen);
  }
}

TEST(sim_program, bit_identical_on_multiplier) {
  rng gen(99);
  for (const netlist& nl :
       {mult::unsigned_multiplier(8), mult::signed_multiplier(8),
        mult::truncated_multiplier(8, 6)}) {
    expect_lane_parity(nl, gen);
  }
}

TEST(sim_program, simulates_only_the_active_cone) {
  rng gen(17);
  for (int trial = 0; trial < 10; ++trial) {
    const netlist nl = test::random_netlist(8, 3, 60, gen);
    const std::vector<bool> mask = nl.active_mask();
    std::size_t active = 0;
    for (const bool a : mask) active += a ? 1 : 0;
    const sim_program program(nl);
    EXPECT_EQ(program.active_count(), active);
    EXPECT_LE(program.active_count(), nl.num_gates());
  }
}

TEST(sim_program, rebuild_reusable_across_candidates) {
  rng gen(23);
  sim_program program;
  std::vector<std::size_t> blocks(W);
  for (std::size_t l = 0; l < W; ++l) blocks[l] = l;
  for (int trial = 0; trial < 8; ++trial) {
    const netlist nl = test::random_netlist(6 + trial % 3, 4, 30 + 8 * trial,
                                            gen);
    program.rebuild(nl);
    expect_lane_parity(nl, gen);  // fresh program, same answer...
    expect_blocks_match(program, nl, blocks);  // ...and the reused one too
  }
}

TEST(sim_program, ignored_operand_on_inactive_gate_reads_no_stale_slot) {
  // Gate 0 (slot 4) is outside the cone; active gate 1 names it as the
  // operand its function ignores.  rebuild() keeps that operand verbatim,
  // so it points at a slot this schedule never writes — and which still
  // holds the previous schedule's words.  The executor must not read it.
  netlist nl(4, 2);
  const std::uint32_t dead = nl.add_gate(gate_fn::xor2, 0, 1);
  const std::uint32_t inv = nl.add_gate(gate_fn::not_a, 2, dead);
  const std::uint32_t wire = nl.add_gate(gate_fn::buf_b, dead, 3);
  nl.set_output(0, nl.add_gate(gate_fn::and2, inv, wire));
  nl.set_output(1, nl.add_gate(gate_fn::orn_ba, inv, 1));
  ASSERT_FALSE(nl.active_mask()[0]);

  // A previous schedule on the same object writes every slot of the new
  // one with all-ones words: in this space slot 4 is an active gate.
  netlist previous(4, 1);
  std::uint32_t ones = previous.add_gate(gate_fn::const1, 0, 0);
  for (int k = 0; k < 8; ++k) {
    ones = previous.add_gate(gate_fn::and2, ones, ones);
  }
  previous.set_output(0, ones);

  std::vector<std::size_t> blocks(W, 0);
  for (const simd::level level : forced_levels()) {
    sim_program program;
    program.set_simd_level(level);
    program.rebuild(previous);
    expect_blocks_match(program, previous, blocks);
    program.rebuild(nl);
    EXPECT_EQ(program.active_count(), 4u);
    expect_blocks_match(program, nl, blocks);
  }
}

}  // namespace
}  // namespace axc::circuit

namespace axc::cgp {
namespace {

parameters wide_params(std::size_t inputs, std::size_t outputs,
                       std::size_t columns) {
  parameters p;
  p.num_inputs = inputs;
  p.num_outputs = outputs;
  p.columns = columns;
  p.rows = 1;
  p.levels_back = columns;
  p.function_set.assign(circuit::default_function_set().begin(),
                        circuit::default_function_set().end());
  return p;
}

TEST(decode_cone, equals_decode_then_compacted) {
  rng gen(42);
  for (int trial = 0; trial < 25; ++trial) {
    genotype g = genotype::random(wide_params(6, 4, 40), gen);
    for (int m = 0; m < trial; ++m) g.mutate(gen);
    const circuit::netlist cone = g.decode_cone();
    const circuit::netlist compacted = g.decode().compacted();
    EXPECT_EQ(cone, compacted) << "trial " << trial;
  }
}

TEST(decode_cone, function_identical_to_full_decode) {
  rng gen(77);
  for (int trial = 0; trial < 10; ++trial) {
    genotype g = genotype::random(wide_params(8, 5, 64), gen);
    for (int m = 0; m < 20; ++m) g.mutate(gen);
    const circuit::netlist full = g.decode();
    const circuit::netlist cone = g.decode_cone();
    EXPECT_TRUE(cone.validate().empty());
    for (std::uint64_t v = 0; v < 256; ++v) {
      EXPECT_EQ(test::naive_eval(cone, v), test::naive_eval(full, v))
          << "v=" << v;
    }
  }
}

TEST(decode_cone, drops_seeded_padding) {
  const circuit::netlist seed = mult::unsigned_multiplier(3);
  parameters p = wide_params(6, 6, seed.num_gates() + 50);
  rng gen(5);
  const genotype g = genotype::from_netlist(p, seed, gen);
  // Padding nodes are inactive, so the cone is exactly the seeded function.
  EXPECT_LE(g.decode_cone().num_gates(), seed.num_gates());
  EXPECT_EQ(g.decode().num_gates(), p.node_count());
}

}  // namespace
}  // namespace axc::cgp
