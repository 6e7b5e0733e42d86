#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "dist/pmf.h"
#include "metrics/compiled_table.h"
#include "metrics/error_metrics.h"
#include "metrics/mult_spec.h"
#include "mult/multipliers.h"
#include "test_util.h"

namespace axc::metrics {
namespace {

struct spec_case {
  unsigned width;
  bool is_signed;
};

class spec_param : public ::testing::TestWithParam<spec_case> {};

TEST_P(spec_param, operand_value_round_trip) {
  const mult_spec spec{GetParam().width, GetParam().is_signed};
  for (std::uint64_t p = 0; p < spec.operand_count(); ++p) {
    const std::int64_t v = spec.operand_value(p);
    EXPECT_EQ(v, test::as_value(p, spec.width, spec.is_signed));
    if (spec.is_signed) {
      EXPECT_GE(v, -(std::int64_t{1} << (spec.width - 1)));
      EXPECT_LT(v, std::int64_t{1} << (spec.width - 1));
    } else {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, std::int64_t{1} << spec.width);
    }
  }
}

TEST_P(spec_param, exact_table_is_products) {
  const mult_spec spec{GetParam().width, GetParam().is_signed};
  const auto table = exact_product_table(spec);
  ASSERT_EQ(table.size(), spec.pair_count());
  for (std::uint64_t b = 0; b < spec.operand_count(); b += 3) {
    for (std::uint64_t a = 0; a < spec.operand_count(); a += 3) {
      EXPECT_EQ(table[(b << spec.width) | a],
                spec.operand_value(a) * spec.operand_value(b));
    }
  }
}

TEST_P(spec_param, exact_multiplier_has_zero_error) {
  const mult_spec spec{GetParam().width, GetParam().is_signed};
  const circuit::netlist nl = spec.is_signed
                                  ? mult::signed_multiplier(spec.width)
                                  : mult::unsigned_multiplier(spec.width);
  const auto exact = exact_product_table(spec);
  const auto approx = result_table(nl, spec);
  EXPECT_DOUBLE_EQ(med(exact, approx, spec), 0.0);
  EXPECT_DOUBLE_EQ(worst_case_error(exact, approx, spec), 0.0);
  EXPECT_DOUBLE_EQ(error_rate(exact, approx), 0.0);
}

INSTANTIATE_TEST_SUITE_P(widths, spec_param,
                         ::testing::Values(spec_case{2, false},
                                           spec_case{2, true},
                                           spec_case{4, false},
                                           spec_case{4, true},
                                           spec_case{6, false},
                                           spec_case{8, false},
                                           spec_case{8, true}));

TEST(wmed, uniform_reduces_to_med) {
  const mult_spec spec{4, false};
  const auto exact = exact_product_table(spec);
  const circuit::netlist approx_nl = mult::truncated_multiplier(4, 3);
  const auto approx = result_table(approx_nl, spec);
  const dist::pmf du = dist::pmf::uniform(16);
  EXPECT_NEAR(wmed(exact, approx, spec, du), med(exact, approx, spec),
              1e-15);
}

TEST(wmed, bounded_between_zero_and_one) {
  const mult_spec spec{4, false};
  const auto exact = exact_product_table(spec);
  // Worst multiplier: constant all-ones output.
  std::vector<std::int64_t> awful(spec.pair_count(),
                                  (std::int64_t{1} << 8) - 1);
  for (const auto& d :
       {dist::pmf::uniform(16), dist::pmf::half_normal(16, 4.0)}) {
    const double e = wmed(exact, awful, spec, d);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
    EXPECT_GT(e, 0.5);  // it really is awful
  }
}

TEST(wmed, weights_gate_which_errors_matter) {
  const mult_spec spec{4, false};
  const auto exact = exact_product_table(spec);
  // Corrupt only rows with operand A = 15.
  auto approx = exact;
  for (std::uint64_t b = 0; b < 16; ++b) approx[(b << 4) | 15] += 40;

  // All mass on A=0: the corruption is invisible.
  std::vector<double> w0(16, 0.0);
  w0[0] = 1.0;
  EXPECT_DOUBLE_EQ(
      wmed(exact, approx, spec, dist::pmf::from_weights(w0)), 0.0);

  // All mass on A=15: the corruption is fully visible.
  std::vector<double> w15(16, 0.0);
  w15[15] = 1.0;
  const double focused =
      wmed(exact, approx, spec, dist::pmf::from_weights(w15));
  EXPECT_NEAR(focused, 40.0 / 256.0, 1e-12);

  // Uniform sees 1/16 of it.
  EXPECT_NEAR(wmed(exact, approx, spec, dist::pmf::uniform(16)),
              focused / 16.0, 1e-12);
}

TEST(wmed, linear_in_distribution_blend) {
  const mult_spec spec{4, false};
  const auto exact = exact_product_table(spec);
  const auto approx =
      result_table(mult::broken_array_multiplier(4, 1, 2), spec);
  const dist::pmf a = dist::pmf::uniform(16);
  const dist::pmf b = dist::pmf::half_normal(16, 3.0);
  const double ea = wmed(exact, approx, spec, a);
  const double eb = wmed(exact, approx, spec, b);
  const double emid = wmed(exact, approx, spec, a.blend(b, 0.25));
  EXPECT_NEAR(emid, 0.75 * ea + 0.25 * eb, 1e-12);
}

TEST(mean_absolute_error, in_lsb_units) {
  const std::vector<std::int64_t> exact{0, 10, 20, 30};
  const std::vector<std::int64_t> approx{1, 10, 18, 30};
  EXPECT_NEAR(mean_absolute_error(exact, approx), (1 + 0 + 2 + 0) / 4.0,
              1e-12);
}

TEST(worst_case_error, picks_maximum) {
  const mult_spec spec{2, false};
  const std::vector<std::int64_t> exact{0, 0, 0, 0, 0, 0, 0, 0,
                                        0, 0, 0, 0, 0, 0, 0, 0};
  std::vector<std::int64_t> approx = exact;
  approx[5] = -3;  // |err| = 3 out of scale 16
  EXPECT_NEAR(worst_case_error(exact, approx, spec), 3.0 / 16.0, 1e-12);
}

TEST(mean_relative_error, skips_zero_exact_products) {
  const std::vector<std::int64_t> exact{0, 4, 8};
  const std::vector<std::int64_t> approx{100, 2, 8};
  // v=0 skipped; (|4-2|/4 + 0)/2 = 0.25.
  EXPECT_NEAR(mean_relative_error(exact, approx), 0.25, 1e-12);
}

TEST(error_rate, counts_mismatches) {
  const std::vector<std::int64_t> exact{1, 2, 3, 4};
  const std::vector<std::int64_t> approx{1, 0, 3, 0};
  EXPECT_DOUBLE_EQ(error_rate(exact, approx), 0.5);
}

TEST(error_bias, signed_mean_deviation) {
  const mult_spec spec{2, false};
  std::vector<std::int64_t> exact(16, 0), approx(16, 0);
  approx[0] = 16;   // +16
  approx[1] = -16;  // -16 -> cancels
  EXPECT_DOUBLE_EQ(error_bias(exact, approx, spec), 0.0);
  approx[1] = 16;
  EXPECT_NEAR(error_bias(exact, approx, spec), 32.0 / (16.0 * 16.0), 1e-12);
}

TEST(error_map, localizes_errors) {
  const mult_spec spec{4, false};
  const auto exact = exact_product_table(spec);
  auto approx = exact;
  approx[(std::uint64_t{3} << 4) | 7] += 13;  // a=7, b=3
  const auto map = error_map(exact, approx, spec);
  EXPECT_NEAR(map[(3 << 4) | 7], 13.0 / 256.0, 1e-12);
  EXPECT_DOUBLE_EQ(map[(3 << 4) | 6], 0.0);
}

TEST(error_map, truncation_errors_concentrate_at_large_operands) {
  const mult_spec spec{8, false};
  const auto exact = exact_product_table(spec);
  const auto approx = result_table(mult::truncated_multiplier(8, 8), spec);
  const auto map = error_map(exact, approx, spec);
  const auto grid = downsample_error_map(map, spec, 4);
  // Dropping low columns hurts everywhere but exact zero rows/cols survive;
  // the top-right cell (both operands large) must err more than top-left.
  EXPECT_GT(grid[3 * 4 + 3], grid[0]);
}

TEST(downsample_error_map, preserves_total_mean) {
  const mult_spec spec{4, false};
  const auto exact = exact_product_table(spec);
  const auto approx =
      result_table(mult::broken_array_multiplier(4, 1, 3), spec);
  const auto map = error_map(exact, approx, spec);
  const auto grid = downsample_error_map(map, spec, 4);
  double mean_map = 0.0, mean_grid = 0.0;
  for (const double m : map) mean_map += m;
  for (const double g : grid) mean_grid += g;
  mean_map /= static_cast<double>(map.size());
  mean_grid /= static_cast<double>(grid.size());
  EXPECT_NEAR(mean_map, mean_grid, 1e-12);
}

}  // namespace
}  // namespace axc::metrics
