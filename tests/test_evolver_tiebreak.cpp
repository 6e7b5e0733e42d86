#include <gtest/gtest.h>

#include "cgp/evolver.h"
#include "circuit/netlist.h"
#include "test_util.h"

namespace axc::cgp {
namespace {

parameters toy_params() {
  parameters p;
  p.num_inputs = 3;
  p.num_outputs = 1;
  p.columns = 12;
  p.rows = 1;
  p.levels_back = 12;
  p.function_set.assign(circuit::default_function_set().begin(),
                        circuit::default_function_set().end());
  p.max_mutations = 2;
  p.lambda = 4;
  return p;
}

// Feasibility: output matches majority(a, b, c) on at least 6 of 8
// assignments; error = fraction of mismatches.  Many distinct feasible
// functions exist, with different errors at the same area — exactly the
// plateau structure the tie-break is about.
test::score_fn majority_objective() {
  return [](const circuit::netlist& nl) -> evaluation {
    std::size_t wrong = 0;
    for (std::uint64_t v = 0; v < 8; ++v) {
      const unsigned ones =
          static_cast<unsigned>((v & 1) + ((v >> 1) & 1) + ((v >> 2) & 1));
      const std::uint64_t expected = ones >= 2 ? 1 : 0;
      if ((test::naive_eval(nl, v) & 1) != expected) ++wrong;
    }
    evaluation e;
    e.error = static_cast<double>(wrong) / 8.0;
    e.feasible = wrong <= 2;
    e.area = static_cast<double>(nl.active_gate_count());
    return e;
  };
}

TEST(error_tiebreak, reduces_final_error_at_equal_or_lower_area) {
  // Across several seeds, the tie-break run must never finish with higher
  // error at equal area than the plain run, and on aggregate strictly
  // reduces error.
  double plain_error = 0.0, tiebreak_error = 0.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    evolver::options plain;
    plain.iterations = 800;
    plain.error_tiebreak = false;
    evolver::options biased = plain;
    biased.error_tiebreak = true;

    rng gp(seed);
    const genotype start = genotype::random(toy_params(), gp);
    rng g1(seed * 7 + 1);
    const auto a = test::evolve(start, majority_objective(), plain, g1);
    rng g2(seed * 7 + 1);
    const auto b = test::evolve(start, majority_objective(), biased, g2);

    ASSERT_TRUE(a.best_eval.feasible);
    ASSERT_TRUE(b.best_eval.feasible);
    plain_error += a.best_eval.error;
    tiebreak_error += b.best_eval.error;
  }
  EXPECT_LE(tiebreak_error, plain_error);
}

TEST(error_tiebreak, does_not_break_area_minimization) {
  rng gen(3);
  const genotype start = genotype::random(toy_params(), gen);
  evolver::options opts;
  opts.iterations = 2000;
  opts.error_tiebreak = true;
  rng g(5);
  const auto result = test::evolve(start, majority_objective(), opts, g);
  EXPECT_TRUE(result.best_eval.feasible);
  EXPECT_LE(result.best_eval.area, 3.0);  // majority needs <= 4 gates
}

TEST(error_tiebreak, off_by_default_in_raw_evolver) {
  const evolver::options opts;
  EXPECT_FALSE(opts.error_tiebreak);
}

TEST(error_tiebreak, rejects_equal_area_higher_error_drift) {
  // Direct unit check of the acceptance rule via a scripted objective:
  // candidate stream alternates between two feasible equal-area circuits
  // with different errors; with tie-break the parent must keep the lower
  // error.  We emulate by running one iteration from a parent whose
  // mutants are all equal-area: acceptance keeps error monotone.
  rng gen(11);
  const genotype start = genotype::random(toy_params(), gen);
  evolver::options opts;
  opts.iterations = 400;
  opts.error_tiebreak = true;

  double last_error = 2.0;
  bool monotone = true;
  double last_area = 1e9;
  opts.on_improvement = [&](std::size_t, const evaluation& e) {
    if (e.feasible) {
      // Improvements must lower area or (at equal area) lower error.
      if (e.area == last_area && e.error > last_error) monotone = false;
      last_area = e.area;
      last_error = e.error;
    }
  };
  rng g(13);
  (void)test::evolve(start, majority_objective(), opts, g);
  EXPECT_TRUE(monotone);
}

}  // namespace
}  // namespace axc::cgp
