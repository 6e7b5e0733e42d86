// Adders on the bit-plane WMED fast path: parity of
// metrics::adder_wmed_evaluator (the component-spec generalization of the
// operand-major sweep) against the 2^(2w) table-based adder_wmed()
// reference, and the adder search running end to end without per-candidate
// tables.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cgp/genotype.h"
#include "core/wmed_approximator.h"
#include "dist/pmf.h"
#include "metrics/adder_metrics.h"
#include "metrics/compiled_table.h"
#include "metrics/wmed_evaluator.h"
#include "mult/adders.h"
#include "mult/approx_adders.h"
#include "support/rng.h"
#include "test_util.h"

namespace axc::metrics {
namespace {

std::vector<dist::pmf> adder_distributions(std::size_t n) {
  rng gen(29);
  std::vector<double> ragged(n);
  for (auto& w : ragged) w = gen.uniform01() * gen.uniform01();
  std::vector<double> top_heavy(n, 1e-6);
  for (std::size_t a = 3 * n / 4; a < n; ++a) top_heavy[a] = 1.0;
  return {dist::pmf::uniform(n), dist::pmf::half_normal(n, n / 5.0),
          dist::pmf::normal(n, n / 2.0, n / 8.0),
          dist::pmf::from_weights(ragged), dist::pmf::from_weights(top_heavy)};
}

std::vector<std::pair<std::string, circuit::netlist>> candidate_adders(
    unsigned width) {
  std::vector<std::pair<std::string, circuit::netlist>> adders;
  adders.emplace_back("exact", mult::ripple_adder(width));
  for (const unsigned k : {2u, 4u, 6u}) {
    adders.emplace_back("loa-" + std::to_string(k),
                        mult::lower_or_adder(width, k));
  }
  for (const unsigned seg : {2u, 4u}) {
    adders.emplace_back("esa-" + std::to_string(seg),
                        mult::segmented_adder(width, seg));
  }
  for (const unsigned k : {2u, 3u}) {
    adders.emplace_back("trunc-" + std::to_string(k),
                        mult::truncated_adder(width, k));
  }
  return adders;
}

TEST(adder_fast_path, matches_table_reference_across_distributions) {
  const adder_spec spec{8};
  const auto exact = exact_sum_table(spec);
  for (const dist::pmf& d : adder_distributions(256)) {
    adder_wmed_evaluator evaluator(spec, d);
    for (const auto& [name, nl] : candidate_adders(8)) {
      const double fast = evaluator.evaluate(nl);
      const double table = adder_wmed(exact, result_table(nl, spec), spec, d);
      EXPECT_NEAR(fast, table, 1e-13) << name;
      EXPECT_NEAR(test::natural_order_wmed(spec, evaluator.shared()->weight,
                                           nl),
                  fast, 1e-13)
          << name;
    }
  }
}

TEST(adder_fast_path, matches_tables_on_mutated_cgp_candidates) {
  const adder_spec spec{8};
  const dist::pmf d = dist::pmf::half_normal(256, 48.0);
  adder_wmed_evaluator evaluator(spec, d);
  const auto exact = exact_sum_table(spec);

  const circuit::netlist seed = mult::ripple_adder(8);
  cgp::parameters params;
  params.num_inputs = 16;
  params.num_outputs = 9;
  params.columns = seed.num_gates() + 24;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  rng gen(17);
  cgp::genotype g = cgp::genotype::from_netlist(params, seed, gen);

  for (int step = 0; step < 6; ++step) {
    const circuit::netlist nl = g.decode_cone();
    const double table = adder_wmed(exact, result_table(nl, spec), spec, d);
    EXPECT_NEAR(evaluator.evaluate(nl), table, 1e-12) << "step " << step;
    for (int m = 0; m < 4; ++m) g.mutate(gen);
  }
}

TEST(adder_fast_path, abort_classification_agrees_with_reference) {
  const adder_spec spec{8};
  const dist::pmf d = dist::pmf::half_normal(256, 48.0);
  adder_wmed_evaluator evaluator(spec, d);

  for (const auto& [name, nl] : candidate_adders(8)) {
    const double full = evaluator.evaluate(nl);
    if (full == 0.0) continue;
    for (const double bound : {full * 0.01, full * 0.5, full * 2.0 + 1e-9}) {
      const double fast = evaluator.evaluate(nl, bound);
      const double reference = test::natural_order_wmed(
          spec, evaluator.shared()->weight, nl, bound);
      EXPECT_EQ(fast > bound, reference > bound) << name << " bound "
                                                 << bound;
      EXPECT_LE(fast, full + 1e-12);
    }
  }
}

TEST(adder_fast_path, skewed_distribution_reweights_like_the_tables) {
  // A top-heavy D must punish a truncated adder (uniform low-bit errors)
  // the same way through both paths, and differently from uniform D.
  const adder_spec spec{8};
  const auto exact = exact_sum_table(spec);
  const circuit::netlist loa = mult::lower_or_adder(8, 4);

  std::vector<double> low_heavy(256, 1e-6);
  for (std::size_t a = 0; a < 32; ++a) low_heavy[a] = 1.0;
  const dist::pmf skew = dist::pmf::from_weights(low_heavy);
  const dist::pmf flat = dist::pmf::uniform(256);

  adder_wmed_evaluator skew_eval(spec, skew);
  adder_wmed_evaluator flat_eval(spec, flat);
  const double skewed = skew_eval.evaluate(loa);
  const double uniform = flat_eval.evaluate(loa);
  EXPECT_NEAR(skewed, adder_wmed(exact, result_table(loa, spec), spec, skew),
              1e-13);
  EXPECT_NEAR(uniform, adder_wmed(exact, result_table(loa, spec), spec, flat),
              1e-13);
  EXPECT_NE(skewed, uniform);
}

}  // namespace
}  // namespace axc::metrics

namespace axc::core {
namespace {

TEST(adder_approximator, evolves_adders_through_the_fast_path) {
  // End-to-end: the generalized approximator searches 8-bit adders via the
  // genotype-native incremental pipeline (no per-candidate 2^16 tables).
  adder_approximation_config config;
  config.spec = metrics::adder_spec{8};
  config.distribution = dist::pmf::half_normal(256, 48.0);
  config.iterations = 250;
  config.extra_columns = 16;
  config.rng_seed = 7;

  const circuit::netlist seed = mult::ripple_adder(8);
  const adder_wmed_approximator approx(config);

  const auto exact = metrics::exact_sum_table(config.spec);
  for (const double target : {0.0, 0.002}) {
    const evolved_design design = approx.approximate(seed, target);
    EXPECT_LE(design.wmed, target + 1e-12) << "target " << target;
    EXPECT_TRUE(design.netlist.validate().empty());
    // The reported WMED agrees with the table-based definition.
    EXPECT_NEAR(design.wmed,
                metrics::adder_wmed(
                    exact, metrics::result_table(design.netlist, config.spec),
                    config.spec, config.distribution),
                1e-12);
  }
}

TEST(adder_approximator, default_distribution_derives_from_spec) {
  adder_approximation_config config;
  config.spec = metrics::adder_spec{6};
  const adder_wmed_approximator approx(config);
  EXPECT_EQ(approx.config().distribution.size(), std::size_t{64});
}

}  // namespace
}  // namespace axc::core
