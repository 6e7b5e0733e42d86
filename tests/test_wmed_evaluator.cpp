#include <gtest/gtest.h>

#include "dist/pmf.h"
#include "metrics/compiled_table.h"
#include "metrics/error_metrics.h"
#include "metrics/wmed_evaluator.h"
#include "mult/multipliers.h"
#include "support/rng.h"

namespace axc::metrics {
namespace {

struct eval_case {
  unsigned width;
  bool is_signed;
};

class evaluator_param : public ::testing::TestWithParam<eval_case> {};

TEST_P(evaluator_param, matches_reference_wmed) {
  const mult_spec spec{GetParam().width, GetParam().is_signed};
  const dist::pmf d = dist::pmf::half_normal(spec.operand_count(),
                                             spec.operand_count() / 4.0);
  wmed_evaluator evaluator(spec, d);
  const auto exact = exact_product_table(spec);

  // Exact, truncated and broken-array multipliers of this width.
  const circuit::netlist exact_nl =
      spec.is_signed ? mult::signed_multiplier(spec.width)
                     : mult::unsigned_multiplier(spec.width);
  for (const circuit::netlist& nl :
       {exact_nl, mult::truncated_multiplier(spec.width, spec.width / 2,
                                             spec.is_signed),
        mult::broken_array_multiplier(spec.width, 1, spec.width / 2,
                                      spec.is_signed)}) {
    const auto table = result_table(nl, spec);
    const double reference = wmed(exact, table, spec, d);
    EXPECT_NEAR(evaluator.evaluate(nl), reference, 1e-12);
  }
}

TEST_P(evaluator_param, exact_multiplier_scores_zero) {
  const mult_spec spec{GetParam().width, GetParam().is_signed};
  const dist::pmf d = dist::pmf::uniform(spec.operand_count());
  wmed_evaluator evaluator(spec, d);
  const circuit::netlist nl = spec.is_signed
                                  ? mult::signed_multiplier(spec.width)
                                  : mult::unsigned_multiplier(spec.width);
  EXPECT_DOUBLE_EQ(evaluator.evaluate(nl), 0.0);
}

INSTANTIATE_TEST_SUITE_P(specs, evaluator_param,
                         ::testing::Values(eval_case{3, false},
                                           eval_case{4, false},
                                           eval_case{4, true},
                                           eval_case{6, false},
                                           eval_case{8, false},
                                           eval_case{8, true}));

TEST(wmed_evaluator, early_abort_lower_bounds_true_error) {
  const mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::uniform(256);
  wmed_evaluator evaluator(spec, d);
  const circuit::netlist bad = mult::truncated_multiplier(8, 12);

  const double full = evaluator.evaluate(bad);
  const double aborted = evaluator.evaluate(bad, full / 100.0);
  EXPECT_GT(aborted, full / 100.0);  // proves infeasibility vs the bound
  EXPECT_LE(aborted, full + 1e-12);  // partial sums never exceed the total
}

TEST(wmed_evaluator, abort_threshold_above_error_changes_nothing) {
  const mult_spec spec{6, false};
  const dist::pmf d = dist::pmf::half_normal(64, 10.0);
  wmed_evaluator evaluator(spec, d);
  const circuit::netlist nl = mult::truncated_multiplier(6, 3);
  const double full = evaluator.evaluate(nl);
  EXPECT_DOUBLE_EQ(evaluator.evaluate(nl, full * 2 + 1e-6), full);
}

TEST(wmed_evaluator, reusable_across_candidates) {
  const mult_spec spec{6, false};
  const dist::pmf d = dist::pmf::uniform(64);
  wmed_evaluator evaluator(spec, d);
  const double e1 = evaluator.evaluate(mult::truncated_multiplier(6, 2));
  const double e2 = evaluator.evaluate(mult::truncated_multiplier(6, 6));
  const double e1_again =
      evaluator.evaluate(mult::truncated_multiplier(6, 2));
  EXPECT_DOUBLE_EQ(e1, e1_again);
  EXPECT_LT(e1, e2);  // deeper truncation, larger error
}

TEST(wmed_evaluator, distribution_weighting_matters) {
  // A multiplier exact for small A but broken for large A must score better
  // under a small-A-heavy distribution than under uniform.
  const mult_spec spec{8, false};
  const circuit::netlist nl = mult::broken_array_multiplier(8, 2, 0);

  wmed_evaluator uniform_eval(spec, dist::pmf::uniform(256));
  wmed_evaluator skewed_eval(spec, dist::pmf::half_normal(256, 20.0));
  // BAM with hbl=2 drops operand-B LSB rows; both see errors, but the
  // comparison direction with operand-A weighting is deterministic: the
  // error |a * (b mod 4 dropped)| grows with a, so small-a weighting helps.
  EXPECT_LT(skewed_eval.evaluate(nl), uniform_eval.evaluate(nl));
}

}  // namespace
}  // namespace axc::metrics
