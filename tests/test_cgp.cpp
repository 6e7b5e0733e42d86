#include <gtest/gtest.h>

#include "cgp/evolver.h"
#include "cgp/genotype.h"
#include "circuit/simulator.h"
#include "metrics/mult_spec.h"
#include "mult/multipliers.h"
#include "support/rng.h"
#include "test_util.h"

namespace axc::cgp {
namespace {

parameters small_params() {
  parameters p;
  p.num_inputs = 4;
  p.num_outputs = 2;
  p.columns = 20;
  p.rows = 1;
  p.levels_back = 20;
  p.function_set.assign(circuit::default_function_set().begin(),
                        circuit::default_function_set().end());
  p.max_mutations = 3;
  p.lambda = 4;
  return p;
}

TEST(parameters, gene_count_formula) {
  const parameters p = small_params();
  // S = r*c*(na+1) + no with na = 2.
  EXPECT_EQ(p.gene_count(), 20u * 3u + 2u);
  EXPECT_TRUE(p.validate().empty());
}

TEST(parameters, validation_catches_errors) {
  parameters p = small_params();
  p.function_set.clear();
  EXPECT_FALSE(p.validate().empty());
  p = small_params();
  p.lambda = 0;
  EXPECT_FALSE(p.validate().empty());
  p = small_params();
  p.columns = 0;
  EXPECT_FALSE(p.validate().empty());
}

TEST(genotype, random_decodes_to_valid_netlist) {
  rng gen(1);
  for (int trial = 0; trial < 20; ++trial) {
    const genotype g = genotype::random(small_params(), gen);
    const circuit::netlist nl = g.decode();
    EXPECT_TRUE(nl.validate().empty()) << "trial " << trial;
    EXPECT_EQ(nl.num_gates(), 20u);
  }
}

TEST(genotype, mutation_preserves_validity) {
  // Property: any number of successive mutations keeps the decoded netlist
  // structurally valid.
  rng gen(2);
  genotype g = genotype::random(small_params(), gen);
  for (int step = 0; step < 500; ++step) {
    g.mutate(gen);
    ASSERT_TRUE(g.decode().validate().empty()) << "step " << step;
  }
}

TEST(genotype, mutation_changes_bounded_gene_count) {
  rng gen(3);
  const genotype original = genotype::random(small_params(), gen);
  for (int trial = 0; trial < 100; ++trial) {
    genotype mutant = original;
    mutant.mutate(gen);
    // h = 3: at most 3 genes re-randomized (possibly to the same value).
    EXPECT_LE(mutant.distance(original), 3u);
  }
}

TEST(genotype, rows_and_levels_back_respected) {
  parameters p = small_params();
  p.rows = 4;
  p.columns = 6;
  p.levels_back = 2;
  rng gen(4);
  for (int trial = 0; trial < 10; ++trial) {
    genotype g = genotype::random(p, gen);
    for (int m = 0; m < 50; ++m) g.mutate(gen);
    const auto& nodes = g.nodes();
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      const std::size_t column = k / p.rows;
      const std::size_t first_col =
          column > p.levels_back ? column - p.levels_back : 0;
      for (const std::uint32_t src : {nodes[k].in0, nodes[k].in1}) {
        if (src < p.num_inputs) continue;  // primary input: always legal
        const std::size_t src_col = (src - p.num_inputs) / p.rows;
        EXPECT_GE(src_col, first_col);
        EXPECT_LT(src_col, column);
      }
    }
  }
}

TEST(genotype, seeding_preserves_function) {
  const circuit::netlist seed_nl = mult::unsigned_multiplier(3);
  parameters p;
  p.num_inputs = 6;
  p.num_outputs = 6;
  p.columns = seed_nl.num_gates() + 16;
  p.rows = 1;
  p.levels_back = p.columns;
  p.function_set.assign(circuit::default_function_set().begin(),
                        circuit::default_function_set().end());
  rng gen(5);
  const genotype g = genotype::from_netlist(p, seed_nl, gen);
  const circuit::netlist decoded = g.decode();
  for (std::uint64_t v = 0; v < 64; ++v) {
    EXPECT_EQ(test::naive_eval(decoded, v), test::naive_eval(seed_nl, v));
  }
}

TEST(genotype, seeded_padding_is_inactive) {
  const circuit::netlist seed_nl = mult::unsigned_multiplier(2);
  parameters p;
  p.num_inputs = 4;
  p.num_outputs = 4;
  p.columns = seed_nl.num_gates() + 32;
  p.rows = 1;
  p.levels_back = p.columns;
  p.function_set.assign(circuit::default_function_set().begin(),
                        circuit::default_function_set().end());
  rng gen(6);
  const genotype g = genotype::from_netlist(p, seed_nl, gen);
  const circuit::netlist decoded = g.decode();
  const auto mask = decoded.active_mask();
  for (std::size_t k = seed_nl.num_gates(); k < decoded.num_gates(); ++k) {
    EXPECT_FALSE(mask[k]) << "padding gate " << k << " active";
  }
}

TEST(evolver_ordering, feasible_beats_infeasible) {
  EXPECT_TRUE(better({0.5, 100.0, true}, {0.0, 1.0, false}));
  EXPECT_FALSE(better({0.0, 1.0, false}, {0.5, 100.0, true}));
}

TEST(evolver_ordering, feasible_ranked_by_area) {
  EXPECT_TRUE(better({0.1, 5.0, true}, {0.0, 6.0, true}));
  EXPECT_FALSE(better({0.1, 6.0, true}, {0.0, 5.0, true}));
}

TEST(evolver_ordering, infeasible_ranked_by_error) {
  EXPECT_TRUE(better({0.2, 1.0, false}, {0.3, 1.0, false}));
  EXPECT_FALSE(better({0.3, 1.0, false}, {0.2, 1.0, false}));
}

TEST(evolver_ordering, not_worse_accepts_equal) {
  const evaluation a{0.1, 5.0, true};
  EXPECT_TRUE(not_worse(a, a));
}

// Toy objective: make output 0 equal input 0 AND input 1 with minimal area.
test::score_fn toy_objective() {
  return [](const circuit::netlist& nl) -> evaluation {
    std::size_t wrong = 0;
    for (std::uint64_t v = 0; v < 16; ++v) {
      const std::uint64_t expected = (v & 1) & ((v >> 1) & 1);
      if ((test::naive_eval(nl, v) & 1) != expected) ++wrong;
    }
    evaluation e;
    e.error = static_cast<double>(wrong) / 16.0;
    e.feasible = wrong == 0;
    e.area = static_cast<double>(nl.active_gate_count());
    return e;
  };
}

TEST(evolver, solves_toy_synthesis_problem) {
  rng gen(7);
  const genotype seed = genotype::random(small_params(), gen);
  evolver::options opts;
  opts.iterations = 3000;
  const auto result = test::evolve(seed, toy_objective(), opts, gen);
  EXPECT_TRUE(result.best_eval.feasible);
  EXPECT_LE(result.best_eval.area, 2.0);  // a single AND suffices
  EXPECT_EQ(result.evaluations, 1 + 3000 * 4);
}

TEST(evolver, neutral_drift_moves_recorded) {
  rng gen(8);
  const genotype seed = genotype::random(small_params(), gen);
  evolver::options opts;
  opts.iterations = 500;
  const auto result = test::evolve(seed, toy_objective(), opts, gen);
  // With inactive-node mutations, some accepted offspring tie the parent.
  EXPECT_GT(result.neutral_moves, 0u);
}

TEST(evolver, deterministic_given_seed) {
  const auto run_once = [](std::uint64_t s) {
    rng gen(s);
    const genotype seed = genotype::random(small_params(), gen);
    evolver::options opts;
    opts.iterations = 300;
    return test::evolve(seed, toy_objective(), opts, gen);
  };
  const auto a = run_once(42);
  const auto b = run_once(42);
  EXPECT_EQ(a.best_eval.area, b.best_eval.area);
  EXPECT_EQ(a.improvements, b.improvements);
  EXPECT_EQ(a.best, b.best);
}

TEST(evolver, should_stop_ends_run_early_with_best_so_far) {
  rng gen(11);
  const genotype seed = genotype::random(small_params(), gen);
  evolver::options opts;
  opts.iterations = 1000;
  std::size_t polls = 0;
  opts.should_stop = [&polls] { return ++polls > 100; };
  const auto result = test::evolve(seed, toy_objective(), opts, gen);
  EXPECT_TRUE(result.stopped);
  EXPECT_EQ(result.iterations, 100u);
  EXPECT_EQ(result.evaluations, 1 + 100 * 4);

  // Without the stop hook nothing is stopped and nothing is polled.
  rng gen2(11);
  const genotype seed2 = genotype::random(small_params(), gen2);
  evolver::options plain;
  plain.iterations = 1000;
  const auto full = test::evolve(seed2, toy_objective(), plain, gen2);
  EXPECT_FALSE(full.stopped);
  EXPECT_EQ(full.iterations, 1000u);
}

TEST(evolver, generation_callback_ticks_every_generation) {
  rng gen(12);
  const genotype seed = genotype::random(small_params(), gen);
  evolver::options opts;
  opts.iterations = 250;
  std::vector<std::size_t> ticks;
  opts.on_generation = [&](std::size_t iteration, const evaluation&) {
    ticks.push_back(iteration);
  };
  (void)test::evolve(seed, toy_objective(), opts, gen);
  ASSERT_EQ(ticks.size(), 250u);
  EXPECT_EQ(ticks.front(), 0u);
  EXPECT_EQ(ticks.back(), 249u);
}

TEST(evolver, hooks_do_not_perturb_rng_stream) {
  // Observation must be free: a run with hooks lands on the identical
  // genotype as a run without them.
  const auto run_once = [](bool hooked) {
    rng gen(13);
    const genotype seed = genotype::random(small_params(), gen);
    evolver::options opts;
    opts.iterations = 400;
    if (hooked) {
      opts.on_generation = [](std::size_t, const evaluation&) {};
      opts.should_stop = [] { return false; };
    }
    return test::evolve(seed, toy_objective(), opts, gen);
  };
  const auto plain = run_once(false);
  const auto hooked = run_once(true);
  EXPECT_EQ(plain.best, hooked.best);
  EXPECT_EQ(plain.improvements, hooked.improvements);
}

TEST(evolver, improvement_callback_fires_monotonically) {
  rng gen(9);
  const genotype seed = genotype::random(small_params(), gen);
  evolver::options opts;
  opts.iterations = 2000;
  std::vector<evaluation> improvements;
  opts.on_improvement = [&](std::size_t, const evaluation& e) {
    improvements.push_back(e);
  };
  (void)test::evolve(seed, toy_objective(), opts, gen);
  for (std::size_t i = 1; i < improvements.size(); ++i) {
    EXPECT_TRUE(better(improvements[i], improvements[i - 1]));
  }
}

}  // namespace
}  // namespace axc::cgp
