// Parity of the WMED engine (operand-major bit-plane sweep, cone-restricted
// wide-lane simulation, distribution-ordered blocks) against the
// straightforward reference implementations: the table-based wmed() and
// the natural-order sweep oracle of test_util.h.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "cgp/genotype.h"
#include "dist/pmf.h"
#include "metrics/compiled_table.h"
#include "metrics/error_metrics.h"
#include "metrics/wmed_evaluator.h"
#include "mult/multipliers.h"
#include "support/rng.h"
#include "test_util.h"

namespace axc::metrics {
namespace {

std::vector<dist::pmf> test_distributions(std::size_t n) {
  rng gen(13);
  std::vector<double> ragged(n);
  for (auto& w : ragged) w = gen.uniform01() * gen.uniform01();
  return {dist::pmf::uniform(n), dist::pmf::half_normal(n, n / 4.0),
          dist::pmf::normal(n, n / 2.0, n / 8.0),
          dist::pmf::signed_normal(n, 0.0, n / 6.0),
          dist::pmf::from_weights(ragged)};
}

TEST(wmed_fast_path, matches_reference_path_across_distributions) {
  for (const bool is_signed : {false, true}) {
    const mult_spec spec{8, is_signed};
    const circuit::netlist nl = mult::broken_array_multiplier(8, 2, 3,
                                                              is_signed);
    for (const dist::pmf& d : test_distributions(256)) {
      wmed_evaluator evaluator(spec, d);
      const double fast = evaluator.evaluate(nl);
      const double reference =
          test::natural_order_wmed(spec, evaluator.shared()->weight, nl);
      EXPECT_NEAR(fast, reference, 1e-13) << "signed=" << is_signed;
    }
  }
}

TEST(wmed_fast_path, matches_table_based_wmed_on_mutated_candidates) {
  const mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 40.0);
  wmed_evaluator evaluator(spec, d);
  const auto exact = exact_product_table(spec);

  cgp::parameters params;
  params.num_inputs = 16;
  params.num_outputs = 16;
  const circuit::netlist seed = mult::unsigned_multiplier(8);
  params.columns = seed.num_gates() + 40;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  rng gen(7);
  cgp::genotype g = cgp::genotype::from_netlist(params, seed, gen);

  for (int step = 0; step < 6; ++step) {
    const circuit::netlist nl = g.decode_cone();
    const auto table = result_table(nl, spec);
    const double reference = wmed(exact, table, spec, d);
    EXPECT_NEAR(evaluator.evaluate(nl), reference, 1e-12) << "step " << step;
    for (int m = 0; m < 5; ++m) g.mutate(gen);
  }
}

TEST(wmed_fast_path, reordered_sweep_value_is_visit_order_independent) {
  // The completed sweep reduces exact per-operand integer error totals in
  // fixed operand order, so two distributions inducing *different* block
  // orders must score a candidate identically up to their weights — checked
  // here by comparing against the order-free table-based reference, and by
  // exact reproducibility across interleaved evaluations.
  const mult_spec spec{8, false};
  const circuit::netlist nl = mult::truncated_multiplier(8, 5);

  wmed_evaluator skewed(spec, dist::pmf::half_normal(256, 20.0));
  const double first = skewed.evaluate(nl);
  // Interleave other candidates to perturb any reused internal state.
  (void)skewed.evaluate(mult::truncated_multiplier(8, 2));
  (void)skewed.evaluate(mult::unsigned_multiplier(8));
  EXPECT_EQ(skewed.evaluate(nl), first);  // bit-identical, not just close

  // Same candidate under uniform weights (natural visit order) agrees with
  // the table-based definition, as does the skewed evaluator.
  const auto exact = exact_product_table(spec);
  const auto table = result_table(nl, spec);
  EXPECT_NEAR(first,
              wmed(exact, table, spec, dist::pmf::half_normal(256, 20.0)),
              1e-12);
  wmed_evaluator uniform_eval(spec, dist::pmf::uniform(256));
  EXPECT_NEAR(uniform_eval.evaluate(nl),
              wmed(exact, table, spec, dist::pmf::uniform(256)), 1e-12);
}

TEST(wmed_fast_path, abort_classification_agrees_with_reference) {
  const mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 64.0);
  wmed_evaluator evaluator(spec, d);

  for (unsigned dropped : {2u, 5u, 8u, 11u}) {
    const circuit::netlist nl = mult::truncated_multiplier(8, dropped);
    const double full = evaluator.evaluate(nl);
    for (const double bound : {full * 0.01, full * 0.5, full * 2.0 + 1e-9}) {
      const double fast = evaluator.evaluate(nl, bound);
      const double reference = test::natural_order_wmed(
          spec, evaluator.shared()->weight, nl, bound);
      // Both paths must classify feasibility identically...
      EXPECT_EQ(fast > bound, reference > bound)
          << "dropped=" << dropped << " bound=" << bound;
      // ...and any partial value stays a lower bound of the true error.
      EXPECT_LE(fast, full + 1e-12);
    }
  }
}

TEST(wmed_fast_path, distribution_order_visits_heavy_mass_first) {
  // An evaluator weighted towards large operands must abort a candidate
  // that is only broken for large operands sooner than the natural-order
  // reference path classifies it — observable through identical decisions
  // here, and through the recorded perf trajectory (BENCH_micro.json).
  const mult_spec spec{8, false};
  std::vector<double> top_heavy(256, 1e-6);
  for (std::size_t a = 192; a < 256; ++a) top_heavy[a] = 1.0;
  wmed_evaluator evaluator(spec, dist::pmf::from_weights(top_heavy));

  const circuit::netlist bam = mult::broken_array_multiplier(8, 3, 0);
  const double full = evaluator.evaluate(bam);
  const double aborted = evaluator.evaluate(bam, full / 1000.0);
  EXPECT_GT(aborted, full / 1000.0);
  EXPECT_LE(aborted, full + 1e-12);
}

TEST(wmed_fast_path, shared_state_tiles_every_width) {
  // One operand A per block at every width: 2^(2w-6) blocks from width 6
  // on, 2^w below (each B then repeats 2^(6-w) times per block), always a
  // whole number of 8-lane passes.  No exact table is kept resident: the
  // exact planes encode it.
  for (unsigned w = 3; w <= 8; ++w) {
    const mult_spec spec{w, false};
    const auto shared = wmed_evaluator::make_shared_state(
        spec, dist::pmf::uniform(spec.operand_count()));
    const std::size_t blocks =
        w >= 6 ? std::size_t{1} << (2 * w - 6) : std::size_t{1} << w;
    EXPECT_EQ(shared->block_count, blocks) << "w=" << w;
    EXPECT_EQ(shared->pass_count * wmed_evaluator::lanes, blocks);
    EXPECT_EQ(shared->block_order.size(), blocks);
    EXPECT_EQ(shared->exact_planes.size(), blocks * shared->planes);
    EXPECT_EQ(shared->input_planes.size(), blocks * 2 * w);
    EXPECT_EQ(shared->total_shift, w >= 6 ? 0u : 6 - w);
  }
}

TEST(wmed_fast_path, small_widths_run_the_same_sweep) {
  // Widths 3..5 share the sweep: evaluate() must agree with the natural-
  // order oracle within the wide widths' tolerance, classify every abort
  // bound the same way, and stay a lower bound when it aborts.
  for (const unsigned width : {3u, 4u, 5u}) {
    for (const bool is_signed : {false, true}) {
      const mult_spec spec{width, is_signed};
      for (const dist::pmf& d : test_distributions(spec.operand_count())) {
        wmed_evaluator evaluator(spec, d);
        const std::span<const double> weight = evaluator.shared()->weight;
        for (const unsigned dropped : {1u, width / 2, width}) {
          const circuit::netlist nl =
              mult::truncated_multiplier(width, dropped, is_signed);
          const double full = evaluator.evaluate(nl);
          EXPECT_NEAR(full, test::natural_order_wmed(spec, weight, nl),
                      1e-13)
              << "w=" << width << " signed=" << is_signed;
          for (const double bound : {full * 0.01, full * 0.5, full * 2.0}) {
            const double fast = evaluator.evaluate(nl, bound);
            EXPECT_EQ(fast > bound,
                      test::natural_order_wmed(spec, weight, nl, bound) >
                          bound)
                << "w=" << width << " bound=" << bound;
            EXPECT_LE(fast, full + 1e-12);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace axc::metrics
