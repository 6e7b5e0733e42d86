#include <gtest/gtest.h>

#include "metrics/adder_metrics.h"
#include "metrics/compiled_table.h"
#include "mult/adders.h"
#include "mult/approx_adders.h"

namespace axc::mult {
namespace {

using metrics::adder_spec;

std::int64_t reference_loa(std::uint64_t a, std::uint64_t b, unsigned w,
                           unsigned k) {
  const std::uint64_t mask = (std::uint64_t{1} << k) - 1;
  const std::uint64_t low = (a | b) & mask;
  const std::uint64_t carry =
      k > 0 ? ((a >> (k - 1)) & (b >> (k - 1)) & 1) : 0;
  const std::uint64_t high = (a >> k) + (b >> k) + carry;
  return static_cast<std::int64_t>((high << k) | low);
}

class loa_param : public ::testing::TestWithParam<unsigned> {};

TEST_P(loa_param, matches_behavioural_model) {
  const unsigned w = 6, k = GetParam();
  const circuit::netlist nl = lower_or_adder(w, k);
  const auto table = metrics::result_table(nl, adder_spec{w});
  for (std::uint64_t b = 0; b < 64; ++b) {
    for (std::uint64_t a = 0; a < 64; ++a) {
      EXPECT_EQ(table[(b << w) | a], reference_loa(a, b, w, k))
          << "k=" << k << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(approx_bits, loa_param,
                         ::testing::Values(0, 1, 2, 3, 4, 6));

TEST(lower_or_adder, zero_approx_bits_is_exact) {
  const adder_spec spec{8};
  EXPECT_EQ(metrics::result_table(lower_or_adder(8, 0), spec),
            metrics::exact_sum_table(spec));
}

TEST(segmented_adder, full_segment_is_exact) {
  const adder_spec spec{8};
  EXPECT_EQ(metrics::result_table(segmented_adder(8, 8), spec),
            metrics::exact_sum_table(spec));
}

TEST(segmented_adder, drops_inter_segment_carries) {
  const unsigned w = 6, seg = 2;
  const circuit::netlist nl = segmented_adder(w, seg);
  const auto table = metrics::result_table(nl, adder_spec{w});
  for (std::uint64_t b = 0; b < 64; ++b) {
    for (std::uint64_t a = 0; a < 64; ++a) {
      std::uint64_t expected = 0;
      std::uint64_t last_carry = 0;
      for (unsigned base = 0; base < w; base += seg) {
        const std::uint64_t am = (a >> base) & 3;
        const std::uint64_t bm = (b >> base) & 3;
        expected |= ((am + bm) & 3) << base;
        last_carry = (am + bm) >> 2;
      }
      expected |= last_carry << w;
      EXPECT_EQ(static_cast<std::uint64_t>(table[(b << w) | a]), expected);
    }
  }
}

TEST(truncated_adder, matches_model) {
  const unsigned w = 6, k = 3;
  const circuit::netlist nl = truncated_adder(w, k);
  const auto table = metrics::result_table(nl, adder_spec{w});
  for (std::uint64_t b = 0; b < 64; ++b) {
    for (std::uint64_t a = 0; a < 64; ++a) {
      const std::uint64_t expected = ((a >> k) + (b >> k)) << k;
      EXPECT_EQ(static_cast<std::uint64_t>(table[(b << w) | a]), expected);
    }
  }
}

TEST(adder_wmed, exact_adder_scores_zero) {
  const adder_spec spec{6};
  const auto exact = metrics::exact_sum_table(spec);
  const auto sums = metrics::result_table(ripple_adder(6), spec);
  EXPECT_DOUBLE_EQ(
      metrics::adder_wmed(exact, sums, spec, dist::pmf::uniform(64)), 0.0);
}

TEST(adder_wmed, bounded_and_monotone_in_approximation) {
  const adder_spec spec{8};
  const auto exact = metrics::exact_sum_table(spec);
  const dist::pmf d = dist::pmf::half_normal(256, 40.0);
  double previous = -1.0;
  for (const unsigned k : {0u, 2u, 4u, 6u}) {
    const auto sums = metrics::result_table(lower_or_adder(8, k), spec);
    const double e = metrics::adder_wmed(exact, sums, spec, d);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
    EXPECT_GT(e, previous);
    previous = e;
  }
}

TEST(adder_wmed, distribution_weighting_matters) {
  // LOA's error depends on low-bit patterns of *both* operands; weighting
  // operand A toward zero (whose low bits are zero) reduces WMED.
  const adder_spec spec{8};
  const auto exact = metrics::exact_sum_table(spec);
  const auto sums = metrics::result_table(lower_or_adder(8, 4), spec);
  std::vector<double> zero_heavy(256, 0.01);
  zero_heavy[0] = 10.0;
  const double skew = metrics::adder_wmed(
      exact, sums, spec, dist::pmf::from_weights(zero_heavy));
  const double uniform =
      metrics::adder_wmed(exact, sums, spec, dist::pmf::uniform(256));
  EXPECT_LT(skew, uniform);
}

TEST(approx_adders, cost_ordering) {
  // More approximation, fewer gates.
  EXPECT_LT(lower_or_adder(8, 4).active_gate_count(),
            lower_or_adder(8, 1).active_gate_count());
  EXPECT_LT(segmented_adder(8, 2).active_gate_count(),
            segmented_adder(8, 8).active_gate_count());
  EXPECT_LT(truncated_adder(8, 4).active_gate_count(),
            truncated_adder(8, 0).active_gate_count());
}

}  // namespace
}  // namespace axc::mult
