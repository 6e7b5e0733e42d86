#include <gtest/gtest.h>

#include "cgp/annealer.h"
#include "circuit/netlist.h"
#include "test_util.h"

namespace axc::cgp {
namespace {

parameters toy_params() {
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

// Objective: output0 = a & b (feasible when exact), minimize active gates.
annealer::evaluate_fn toy_objective() {
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

TEST(annealer, cost_orders_like_eq1) {
  const annealer::options opts;
  const evaluation feasible{0.0, 10.0, true};
  const evaluation infeasible{0.01, 1.0, false};
  EXPECT_LT(annealer::cost(feasible, opts),
            annealer::cost(infeasible, opts));
  const evaluation worse_infeasible{0.5, 1.0, false};
  EXPECT_LT(annealer::cost(infeasible, opts),
            annealer::cost(worse_infeasible, opts));
}

TEST(annealer, solves_toy_problem) {
  rng gen(3);
  const genotype seed = genotype::random(toy_params(), gen);
  annealer::options opts;
  opts.iterations = 12000;
  const auto result = annealer::run(seed, toy_objective(), opts, gen);
  EXPECT_TRUE(result.best_eval.feasible);
  EXPECT_LE(result.best_eval.area, 3.0);
  EXPECT_EQ(result.evaluations, 12001u);
}

TEST(annealer, accepts_uphill_moves_early) {
  rng gen(5);
  const genotype seed = genotype::random(toy_params(), gen);
  annealer::options opts;
  opts.iterations = 5000;
  opts.initial_temperature_fraction = 0.5;  // hot start
  const auto result = annealer::run(seed, toy_objective(), opts, gen);
  EXPECT_GT(result.uphill_accepted, 0u);
}

TEST(annealer, best_so_far_never_regresses) {
  // The returned best must be at least as good as the seed.
  rng gen(7);
  const genotype seed = genotype::random(toy_params(), gen);
  const auto eval_fn = toy_objective();
  const evaluation seed_eval = eval_fn(seed.decode());
  annealer::options opts;
  opts.iterations = 1000;
  const auto result = annealer::run(seed, eval_fn, opts, gen);
  EXPECT_TRUE(not_worse(result.best_eval, seed_eval));
}

TEST(annealer, deterministic_for_seed) {
  const auto run_once = [] {
    rng gen(11);
    const genotype seed = genotype::random(toy_params(), gen);
    annealer::options opts;
    opts.iterations = 800;
    return annealer::run(seed, toy_objective(), opts, gen);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.accepted, b.accepted);
}

}  // namespace
}  // namespace axc::cgp
