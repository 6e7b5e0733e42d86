// The genotype-native incremental evaluation pipeline (cone_program +
// evolver::run_incremental) must be a pure throughput optimization:
// bit-identical to decoding every mutant to a netlist and recompiling from
// scratch — per-candidate WMED/area (or evaluation::dominated() for a
// mutant whose exact score ranks below its parent), and whole searches
// under every acceptance rule against the plain (1 + lambda) loop oracle
// of test_util.h, at small and wide operand widths alike.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <string>
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
#include "test_util.h"

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

/// The run order of cgp::evolver under error_tiebreak, written out from
/// Eq. 1: does `c` rank strictly below `p`?
bool ranks_below(const cgp::evaluation& c, const cgp::evaluation& p) {
  if (c.feasible != p.feasible) return p.feasible;
  if (!p.feasible) return c.error > p.error;
  return c.area > p.area || (c.area == p.area && c.error > p.error);
}

bool is_dominated(const cgp::evaluation& e) {
  const cgp::evaluation d = cgp::evaluation::dominated();
  return e.error == d.error && e.area == d.area && e.feasible == d.feasible;
}

TEST(incremental_eval, randomized_mutation_sequences_match_full_recompile) {
  // Drive one incremental evaluator through a long randomized mutation
  // sequence — identical/patched/recompiled paths all get exercised — with
  // the parent's child_bound, and check every child against a from-scratch
  // netlist evaluation: either bit-identical (EXPECT_EQ on doubles, not
  // NEAR), or evaluation::dominated() while the reference ranks strictly
  // below the parent.  The reference area comes from decode_cone() for
  // every child, so a screened child's area claim is checked too.
  const metrics::mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 40.0);
  const auto& lib = tech::cell_library::nangate45_like();
  const double target = 1e-3;
  cgp::evolver::options opts;
  opts.error_tiebreak = true;

  metrics::wmed_evaluator reference(spec, d);
  const auto reference_score = [&](const circuit::netlist& nl) {
    cgp::evaluation e;
    e.error = reference.evaluate(nl, target);
    e.feasible = e.error <= target;
    e.area = e.feasible ? tech::estimate_area(nl, lib) : 0.0;
    return e;
  };

  std::size_t exact = 0, area_screened = 0, error_screened = 0;
  for (const std::uint64_t seed_value : {3ull, 77ull}) {
    rng gen(seed_value);
    const circuit::netlist seed = mult::unsigned_multiplier(8);
    cgp::genotype parent =
        cgp::genotype::from_netlist(mult_params(seed, 48), seed, gen);

    auto incremental =
        core::make_incremental_wmed_evaluator(spec, d, lib, target);
    cgp::evaluation parent_eval = incremental->evaluate_and_bind(parent);
    {
      const cgp::evaluation ref = reference_score(parent.decode_cone());
      EXPECT_EQ(parent_eval.error, ref.error);
      EXPECT_EQ(parent_eval.area, ref.area);
      EXPECT_EQ(parent_eval.feasible, ref.feasible);
    }

    std::vector<std::uint32_t> dirty;
    for (int step = 0; step < 400; ++step) {
      cgp::genotype child = parent;
      dirty.clear();
      child.mutate(gen, dirty);

      const cgp::evaluation fast = incremental->evaluate_child(
          parent, child, dirty, cgp::evolver::bound_for(parent_eval, opts));
      const circuit::netlist cone = child.decode_cone();
      const cgp::evaluation ref = reference_score(cone);
      if (is_dominated(fast)) {
        ASSERT_TRUE(ranks_below(ref, parent_eval))
            << "seed " << seed_value << " step " << step;
        const double area = tech::estimate_area(cone, lib);
        ASSERT_GE(area, parent_eval.area) << "step " << step;
        ++(area > parent_eval.area ? area_screened : error_screened);
      } else {
        ASSERT_EQ(fast.error, ref.error) << "seed " << seed_value << " step "
                                         << step;
        ASSERT_EQ(fast.area, ref.area) << "step " << step;
        ASSERT_EQ(fast.feasible, ref.feasible) << "step " << step;
        ++exact;
      }

      // Every few steps accept the child when the search could, with its
      // exact evaluation, to exercise rebinding after patched and
      // recompiled applies and to move the bound.
      if (step % 7 == 3 && !ranks_below(ref, parent_eval)) {
        parent = child;
        parent_eval = ref;
        incremental->rebind(parent, parent_eval);
      } else {
        // The binding must be undisturbed: the parent still scores the
        // same through the bound schedule.
        const cgp::evaluation again =
            incremental->evaluate_child(parent, parent, {}, {});
        ASSERT_EQ(again.error, parent_eval.error) << "step " << step;
      }
    }
  }
  // Every path must be hit often, or the checks above pass vacuously.
  EXPECT_GE(exact, 100u);
  EXPECT_GE(area_screened, 20u);
  EXPECT_GE(error_screened, 20u);
}

TEST(incremental_eval, cone_program_delta_classification_is_exercised) {
  // Sanity-check that a realistic mutation stream hits all three delta
  // classes and all three gate-list classes — otherwise the parity test
  // above would vacuously pass — and that each gate-list class describes
  // step_fns() truthfully: `same` is the parent's list, `subset` the
  // parent's list with gates left out.
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  rng gen(5);
  cgp::genotype parent =
      cgp::genotype::from_netlist(mult_params(seed, 48), seed, gen);

  cgp::cone_program cone;
  cone.bind(parent);
  const std::span<const circuit::gate_fn> bound_fns = cone.step_fns();
  const std::vector<circuit::gate_fn> parent_fns(bound_fns.begin(),
                                                 bound_fns.end());

  using gate_change = cgp::cone_program::gate_change;
  std::size_t identical = 0, patched = 0, recompiled = 0;
  std::size_t same = 0, subset = 0, other = 0;
  std::vector<std::uint32_t> dirty;
  for (int step = 0; step < 300; ++step) {
    cgp::genotype child = parent;
    dirty.clear();
    child.mutate(gen, dirty);
    const cgp::cone_program::delta d = cone.apply(parent, child, dirty);
    switch (d) {
      case cgp::cone_program::delta::identical: ++identical; continue;
      case cgp::cone_program::delta::patched: ++patched; break;
      case cgp::cone_program::delta::recompiled: ++recompiled; break;
    }
    const std::span<const circuit::gate_fn> fns = cone.step_fns();
    const std::vector<circuit::gate_fn> child_fns(fns.begin(), fns.end());
    switch (cone.gates()) {
      case gate_change::same:
        ++same;
        EXPECT_EQ(child_fns, parent_fns) << "step " << step;
        break;
      case gate_change::subset: {
        ++subset;
        // Greedy subsequence match against the parent's list.
        std::size_t i = 0;
        for (const circuit::gate_fn fn : parent_fns) {
          if (i < child_fns.size() && child_fns[i] == fn) ++i;
        }
        EXPECT_EQ(i, child_fns.size()) << "step " << step;
        EXPECT_LT(child_fns.size(), parent_fns.size()) << "step " << step;
        break;
      }
      case gate_change::other: ++other; break;
    }
    cone.release_child(parent);
  }
  EXPECT_GT(identical, 0u);
  EXPECT_GT(patched, 0u);
  EXPECT_GT(recompiled, 0u);
  EXPECT_GT(same, 0u);
  EXPECT_GT(subset, 0u);
  EXPECT_GT(other, 0u);
}

template <typename Spec>
cgp::evolver::run_result netlist_search(const circuit::netlist& seed,
                                        const Spec& spec, const dist::pmf& d,
                                        double target,
                                        const cgp::evolver::options& opts,
                                        std::uint64_t seed_value) {
  const auto& lib = tech::cell_library::nangate45_like();
  metrics::basic_wmed_evaluator<Spec> evaluator(spec, d);
  rng gen(seed_value);
  const cgp::genotype start =
      cgp::genotype::from_netlist(mult_params(seed, 32), seed, gen);
  return test::plain_evolve(
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

template <typename Spec>
cgp::evolver::run_result incremental_search(const circuit::netlist& seed,
                                            const Spec& spec,
                                            const dist::pmf& d, double target,
                                            const cgp::evolver::options& opts,
                                            std::uint64_t seed_value) {
  const auto& lib = tech::cell_library::nangate45_like();
  rng gen(seed_value);
  const cgp::genotype start =
      cgp::genotype::from_netlist(mult_params(seed, 32), seed, gen);
  const auto evaluator =
      core::make_incremental_wmed_evaluator(spec, d, lib, target);
  return cgp::evolver::run_incremental(start, *evaluator, opts, gen);
}

/// Whole searches under every acceptance rule (error_tiebreak x
/// neutral_drift): the bounded incremental pipeline must reproduce the
/// plain loop's trajectory over from-scratch netlist scores exactly — best
/// genotype, its score and every run counter.
template <typename Spec>
void expect_same_search_under_every_rule(const Spec& spec,
                                         const circuit::netlist& seed,
                                         double target) {
  const std::size_t n = spec.operand_count();
  const dist::pmf d =
      dist::pmf::half_normal(n, static_cast<double>(n) / 4.0);
  for (const bool tiebreak : {false, true}) {
    for (const bool drift : {false, true}) {
      cgp::evolver::options opts;
      opts.iterations = 500;
      opts.error_tiebreak = tiebreak;
      opts.neutral_drift = drift;
      for (const std::uint64_t s : {1ull, 9ull}) {
        const auto full = netlist_search(seed, spec, d, target, opts, s);
        const auto fast = incremental_search(seed, spec, d, target, opts, s);
        const std::string where =
            "w=" + std::to_string(spec.width) + " tiebreak " +
            std::to_string(tiebreak) + " drift " + std::to_string(drift) +
            " seed " + std::to_string(s);
        EXPECT_EQ(fast.best, full.best) << where;
        EXPECT_EQ(fast.best_eval.error, full.best_eval.error) << where;
        EXPECT_EQ(fast.best_eval.area, full.best_eval.area) << where;
        EXPECT_EQ(fast.best_eval.feasible, full.best_eval.feasible) << where;
        EXPECT_EQ(fast.evaluations, full.evaluations) << where;
        EXPECT_EQ(fast.improvements, full.improvements) << where;
        EXPECT_EQ(fast.neutral_moves, full.neutral_moves) << where;
        EXPECT_GT(full.improvements, 0u) << where;
      }
    }
  }
}

TEST(incremental_eval, search_reproduces_netlist_search_bit_for_bit) {
  for (const unsigned w : {4u, 6u, 8u}) {
    expect_same_search_under_every_rule(metrics::mult_spec{w, false},
                                        mult::unsigned_multiplier(w), 0.003);
    expect_same_search_under_every_rule(metrics::adder_spec{w},
                                        mult::ripple_adder(w), 0.003);
  }
}

TEST(incremental_eval, approximator_reports_the_sweep_wmed_at_small_widths) {
  // Widths below 6 search on the same pipeline: the approximator's design
  // carries exactly the WMED evaluate() gives its netlist, which equals the
  // natural-order oracle up to summation order.
  core::approximation_config config;
  config.spec = metrics::mult_spec{4, false};
  config.distribution = dist::pmf::half_normal(16, 4.0);
  config.iterations = 200;
  config.extra_columns = 16;
  config.rng_seed = 21;

  const core::wmed_approximator approx(config);
  const core::evolved_design design =
      approx.approximate(mult::unsigned_multiplier(4), 0.02);
  metrics::wmed_evaluator evaluator(approx.shared_cache());
  EXPECT_EQ(design.wmed, evaluator.evaluate(design.netlist));
  EXPECT_LE(design.wmed, 0.02);
  EXPECT_GT(design.improvements, 0u);
  EXPECT_NEAR(design.wmed,
              test::natural_order_wmed(config.spec,
                                       approx.shared_cache()->weight,
                                       design.netlist),
              1e-13);
}

}  // namespace
}  // namespace axc
