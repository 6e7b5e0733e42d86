// The genotype-native incremental evaluation pipeline (cone_program +
// evolver::run_incremental) must be a pure throughput optimization:
// bit-identical to decoding every mutant to a netlist and recompiling from
// scratch — per-candidate WMED/area, whole searches, and the approximator's
// incremental toggle.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "cgp/cone_program.h"
#include "cgp/evolver.h"
#include "cgp/genotype.h"
#include "core/wmed_approximator.h"
#include "dist/pmf.h"
#include "metrics/wmed_evaluator.h"
#include "mult/adders.h"
#include "mult/multipliers.h"
#include "support/rng.h"
#include "tech/analysis.h"

namespace axc {
namespace {

cgp::parameters mult_params(const circuit::netlist& seed,
                            std::size_t extra_columns) {
  cgp::parameters p;
  p.num_inputs = seed.num_inputs();
  p.num_outputs = seed.num_outputs();
  p.columns = seed.num_gates() + extra_columns;
  p.rows = 1;
  p.levels_back = p.columns;
  p.function_set.assign(circuit::default_function_set().begin(),
                        circuit::default_function_set().end());
  return p;
}

TEST(incremental_eval, mutate_overloads_share_the_rng_stream) {
  // The dirty-recording overload must consume the RNG identically, or the
  // incremental and netlist-based searches would diverge by construction.
  const circuit::netlist seed = mult::unsigned_multiplier(6);
  rng gen_a(42), gen_b(42);
  cgp::genotype a = cgp::genotype::from_netlist(mult_params(seed, 20), seed,
                                                gen_a);
  cgp::genotype b = cgp::genotype::from_netlist(mult_params(seed, 20), seed,
                                                gen_b);
  std::vector<std::uint32_t> dirty;
  for (int step = 0; step < 200; ++step) {
    a.mutate(gen_a);
    dirty.clear();
    b.mutate(gen_b, dirty);
    ASSERT_EQ(a, b) << "step " << step;
    ASSERT_FALSE(dirty.empty());
    ASSERT_LE(dirty.size(), b.params().max_mutations);
  }
}

TEST(incremental_eval, randomized_mutation_sequences_match_full_recompile) {
  // Drive one incremental evaluator through a long randomized mutation
  // sequence — identical/patched/recompiled paths all get exercised — and
  // check every child against a from-scratch netlist evaluation,
  // bit-identically (EXPECT_EQ on doubles, not NEAR).
  const metrics::mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 40.0);
  const auto& lib = tech::cell_library::nangate45_like();
  const double target = 1e-3;

  metrics::wmed_evaluator reference(spec, d);
  const auto reference_score = [&](const circuit::netlist& nl) {
    cgp::evaluation e;
    e.error = reference.evaluate(nl, target);
    e.feasible = e.error <= target;
    e.area = e.feasible ? tech::estimate_area(nl, lib) : 0.0;
    return e;
  };

  for (const std::uint64_t seed_value : {3ull, 77ull}) {
    rng gen(seed_value);
    const circuit::netlist seed = mult::unsigned_multiplier(8);
    cgp::genotype parent =
        cgp::genotype::from_netlist(mult_params(seed, 48), seed, gen);

    auto incremental =
        core::make_incremental_wmed_evaluator(spec, d, lib, target);
    const cgp::evaluation parent_eval = incremental->evaluate_and_bind(parent);
    {
      const cgp::evaluation ref = reference_score(parent.decode_cone());
      EXPECT_EQ(parent_eval.error, ref.error);
      EXPECT_EQ(parent_eval.area, ref.area);
      EXPECT_EQ(parent_eval.feasible, ref.feasible);
    }

    std::vector<std::uint32_t> dirty;
    cgp::evaluation bound_eval = parent_eval;
    for (int step = 0; step < 120; ++step) {
      cgp::genotype child = parent;
      dirty.clear();
      child.mutate(gen, dirty);

      const cgp::evaluation fast =
          incremental->evaluate_child(parent, child, dirty);
      const cgp::evaluation ref = reference_score(child.decode_cone());
      ASSERT_EQ(fast.error, ref.error) << "seed " << seed_value << " step "
                                       << step;
      ASSERT_EQ(fast.area, ref.area) << "step " << step;
      ASSERT_EQ(fast.feasible, ref.feasible) << "step " << step;

      // Occasionally accept the child to exercise rebinding, including
      // after patched and recompiled applies.
      if (step % 7 == 3) {
        parent = child;
        bound_eval = fast;
        incremental->rebind(parent, bound_eval);
      } else {
        // The binding must be undisturbed: the parent still scores the
        // same through the bound schedule.
        const cgp::evaluation again =
            incremental->evaluate_child(parent, parent, {});
        ASSERT_EQ(again.error, bound_eval.error) << "step " << step;
      }
    }
  }
}

TEST(incremental_eval, cone_program_delta_classification_is_exercised) {
  // Sanity-check that a realistic mutation stream hits all three delta
  // classes — otherwise the parity test above would vacuously pass.
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  rng gen(5);
  cgp::genotype parent =
      cgp::genotype::from_netlist(mult_params(seed, 48), seed, gen);

  cgp::cone_program cone;
  cone.bind(parent);

  std::size_t identical = 0, patched = 0, recompiled = 0;
  std::vector<std::uint32_t> dirty;
  for (int step = 0; step < 300; ++step) {
    cgp::genotype child = parent;
    dirty.clear();
    child.mutate(gen, dirty);
    switch (cone.apply(parent, child, dirty)) {
      case cgp::cone_program::delta::identical: ++identical; break;
      case cgp::cone_program::delta::patched: ++patched; break;
      case cgp::cone_program::delta::recompiled: ++recompiled; break;
    }
    cone.release_child(parent);
  }
  EXPECT_GT(identical, 0u);
  EXPECT_GT(patched, 0u);
  EXPECT_GT(recompiled, 0u);
}

cgp::evolver::run_result netlist_search(const circuit::netlist& seed,
                                        const metrics::mult_spec& spec,
                                        const dist::pmf& d, double target,
                                        std::size_t iterations,
                                        std::uint64_t seed_value) {
  const auto& lib = tech::cell_library::nangate45_like();
  metrics::wmed_evaluator evaluator(spec, d);
  rng gen(seed_value);
  const cgp::genotype start =
      cgp::genotype::from_netlist(mult_params(seed, 32), seed, gen);
  cgp::evolver::options opts;
  opts.iterations = iterations;
  opts.error_tiebreak = true;
  return cgp::evolver::run(
      start,
      [&](const circuit::netlist& nl) {
        cgp::evaluation e;
        e.error = evaluator.evaluate(nl, target);
        e.feasible = e.error <= target;
        e.area = e.feasible ? tech::estimate_area(nl, lib) : 0.0;
        return e;
      },
      opts, gen);
}

cgp::evolver::run_result incremental_search(const circuit::netlist& seed,
                                            const metrics::mult_spec& spec,
                                            const dist::pmf& d, double target,
                                            std::size_t iterations,
                                            std::uint64_t seed_value) {
  const auto& lib = tech::cell_library::nangate45_like();
  rng gen(seed_value);
  const cgp::genotype start =
      cgp::genotype::from_netlist(mult_params(seed, 32), seed, gen);
  cgp::evolver::options opts;
  opts.iterations = iterations;
  opts.error_tiebreak = true;
  const auto evaluator =
      core::make_incremental_wmed_evaluator(spec, d, lib, target);
  return cgp::evolver::run_incremental(start, *evaluator, opts, gen);
}

TEST(incremental_eval, search_reproduces_netlist_search_bit_for_bit) {
  const metrics::mult_spec spec{6, false};
  const dist::pmf d = dist::pmf::half_normal(64, 16.0);
  const circuit::netlist seed = mult::unsigned_multiplier(6);
  const double target = 0.003;

  for (const std::uint64_t s : {1ull, 9ull}) {
    const auto full = netlist_search(seed, spec, d, target, 150, s);
    const auto fast = incremental_search(seed, spec, d, target, 150, s);
    EXPECT_EQ(fast.best, full.best) << "seed " << s;
    EXPECT_EQ(fast.best_eval.error, full.best_eval.error);
    EXPECT_EQ(fast.best_eval.area, full.best_eval.area);
    EXPECT_EQ(fast.evaluations, full.evaluations);
    EXPECT_EQ(fast.improvements, full.improvements);
    EXPECT_EQ(fast.neutral_moves, full.neutral_moves);
  }
}

TEST(incremental_eval, approximator_toggle_changes_nothing) {
  core::approximation_config config;
  config.spec = metrics::mult_spec{6, false};
  config.distribution = dist::pmf::half_normal(64, 16.0);
  config.iterations = 80;
  config.extra_columns = 16;
  config.rng_seed = 21;

  const circuit::netlist seed = mult::unsigned_multiplier(6);

  config.incremental = true;
  const core::evolved_design fast =
      core::wmed_approximator(config).approximate(seed, 0.004);

  config.incremental = false;
  const core::evolved_design full =
      core::wmed_approximator(config).approximate(seed, 0.004);

  EXPECT_EQ(fast.netlist, full.netlist);
  EXPECT_EQ(fast.wmed, full.wmed);
  EXPECT_EQ(fast.area_um2, full.area_um2);
  EXPECT_EQ(fast.evaluations, full.evaluations);
  EXPECT_EQ(fast.improvements, full.improvements);
}

}  // namespace
}  // namespace axc
