// Parity of the wide-lane batch characterization (compiled_table /
// result_table) against the scalar simulate_block oracle
// (test::scalar_result_table), for exact, hand-built approximate, and
// evolved mult and adder netlists — the contract the deployment pipeline's
// fast path rests on.
#include <gtest/gtest.h>

#include "core/wmed_approximator.h"
#include "metrics/compiled_table.h"
#include "mult/adders.h"
#include "mult/approx_adders.h"
#include "mult/lut.h"
#include "mult/multipliers.h"
#include "test_util.h"

namespace axc::metrics {
namespace {

template <component_spec Spec>
void expect_wide_matches_scalar(const circuit::netlist& nl, const Spec& spec) {
  const std::vector<std::int64_t> scalar = test::scalar_result_table(nl, spec);
  const std::vector<std::int64_t> wide = result_table(nl, spec);
  ASSERT_EQ(scalar.size(), wide.size());
  EXPECT_EQ(scalar, wide);

  // The compiled table is the narrowed wide table.
  const basic_compiled_table<Spec> table(nl, spec);
  ASSERT_EQ(table.table().size(), scalar.size());
  for (std::size_t v = 0; v < scalar.size(); ++v) {
    ASSERT_EQ(table.table()[v], static_cast<std::int32_t>(scalar[v]))
        << "entry " << v;
  }
}

TEST(compiled_table, exact_multipliers_match_scalar_path) {
  expect_wide_matches_scalar(mult::unsigned_multiplier(8),
                             mult_spec{8, false});
  expect_wide_matches_scalar(mult::signed_multiplier(8), mult_spec{8, true});
}

TEST(compiled_table, exact_multiplier_equals_behavioural_table) {
  const compiled_mult_table from_circuit(mult::signed_multiplier(8),
                                         mult_spec{8, true});
  const compiled_mult_table exact =
      compiled_mult_table::exact(mult_spec{8, true});
  EXPECT_EQ(from_circuit.table(), exact.table());
}

TEST(compiled_table, approximate_multipliers_match_scalar_path) {
  expect_wide_matches_scalar(mult::truncated_multiplier(8, 6),
                             mult_spec{8, false});
  expect_wide_matches_scalar(mult::truncated_multiplier(8, 7, true),
                             mult_spec{8, true});
  expect_wide_matches_scalar(mult::broken_array_multiplier(8, 2, 6),
                             mult_spec{8, false});
}

TEST(compiled_table, adders_match_scalar_path) {
  expect_wide_matches_scalar(mult::ripple_adder(8), adder_spec{8});
  expect_wide_matches_scalar(mult::lower_or_adder(8, 4), adder_spec{8});
}

TEST(compiled_table, adder_table_decodes_sums) {
  const compiled_adder_table table(mult::ripple_adder(8), adder_spec{8});
  EXPECT_EQ(table.by_pattern(200, 100), 300);
  EXPECT_EQ(table.apply(255, 255), 510);
}

TEST(compiled_table, partial_block_widths_match_scalar_path) {
  // Widths whose pair space does not fill one 64-assignment block (w = 2)
  // or one 8-lane chunk (w <= 4) exercise the tail handling.
  for (const unsigned width : {2u, 3u, 4u}) {
    expect_wide_matches_scalar(mult::unsigned_multiplier(width),
                               mult_spec{width, false});
  }
}

TEST(compiled_table, evolved_mult_netlist_matches_scalar_path) {
  // An actual CGP survivor (compacted evolved netlist), the input the
  // deployment pipeline characterizes.
  core::approximation_config cfg;
  cfg.spec = metrics::mult_spec{4, false};
  cfg.distribution = dist::pmf::half_normal(16, 4.0);
  cfg.iterations = 300;
  cfg.extra_columns = 16;
  cfg.rng_seed = 11;
  const core::wmed_approximator approximator(cfg);
  const auto design =
      approximator.approximate(mult::unsigned_multiplier(4), 0.01);
  expect_wide_matches_scalar(design.netlist, cfg.spec);
}

TEST(compiled_table, evolved_adder_netlist_matches_scalar_path) {
  core::adder_approximation_config cfg;
  cfg.spec = metrics::adder_spec{6};
  cfg.distribution = dist::pmf::half_normal(64, 16.0);
  cfg.iterations = 200;
  cfg.extra_columns = 12;
  cfg.rng_seed = 7;
  const core::adder_wmed_approximator approximator(cfg);
  const auto design = approximator.approximate(mult::ripple_adder(6), 0.005);
  expect_wide_matches_scalar(design.netlist, cfg.spec);
}

TEST(compiled_table, legacy_product_lut_alias_still_works) {
  const mult::product_lut lut(mult::unsigned_multiplier(8),
                              mult_spec{8, false});
  EXPECT_EQ(lut.multiply(100, 200), 20000);
  EXPECT_EQ(lut.by_pattern(255, 255), 255 * 255);
}

}  // namespace
}  // namespace axc::metrics
