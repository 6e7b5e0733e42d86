#include <gtest/gtest.h>

#include "circuit/simulator.h"
#include "mult/adders.h"
#include "test_util.h"

namespace axc::mult {
namespace {

class adder_widths : public ::testing::TestWithParam<unsigned> {};

TEST_P(adder_widths, ripple_adder_exhaustively_correct) {
  const unsigned w = GetParam();
  const circuit::netlist nl = ripple_adder(w);
  ASSERT_EQ(nl.num_inputs(), 2 * std::size_t{w});
  ASSERT_EQ(nl.num_outputs(), std::size_t{w} + 1);
  ASSERT_TRUE(nl.validate().empty());

  const auto table = test::evaluate_exhaustive(nl);
  for (std::uint64_t b = 0; b < (1u << w); ++b) {
    for (std::uint64_t a = 0; a < (1u << w); ++a) {
      EXPECT_EQ(table[(b << w) | a], a + b)
          << "w=" << w << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(widths, adder_widths,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

TEST(build_adder, zero_extension_for_short_operand) {
  // 2-bit + 4-bit unsigned, 5-bit result.
  circuit::netlist nl(6, 5);
  const std::vector<std::uint32_t> a{0, 1};
  const std::vector<std::uint32_t> b{2, 3, 4, 5};
  const auto sum = build_adder(nl, a, b, 5, /*sign_extend=*/false);
  for (std::size_t i = 0; i < 5; ++i) nl.set_output(i, sum[i]);

  const auto table = test::evaluate_exhaustive(nl);
  for (std::uint64_t v = 0; v < 64; ++v) {
    const std::uint64_t av = v & 3;
    const std::uint64_t bv = v >> 2;
    EXPECT_EQ(table[v], av + bv) << "a=" << av << " b=" << bv;
  }
}

TEST(build_adder, sign_extension_for_short_operand) {
  // 2-bit signed + 4-bit, 4-bit result (mod 16).
  circuit::netlist nl(6, 4);
  const std::vector<std::uint32_t> a{0, 1};
  const std::vector<std::uint32_t> b{2, 3, 4, 5};
  const auto sum = build_adder(nl, a, b, 4, /*sign_extend=*/true);
  for (std::size_t i = 0; i < 4; ++i) nl.set_output(i, sum[i]);

  const auto table = test::evaluate_exhaustive(nl);
  for (std::uint64_t v = 0; v < 64; ++v) {
    const std::int64_t av = test::as_value(v & 3, 2, true);
    const std::uint64_t bv = v >> 2;
    const std::uint64_t expected =
        static_cast<std::uint64_t>(av + static_cast<std::int64_t>(bv)) & 15;
    EXPECT_EQ(table[v], expected) << "a=" << av << " b=" << bv;
  }
}

TEST(build_adder, result_truncated_modulo) {
  // 4 + 4 -> only 4 result bits: wraparound semantics.
  circuit::netlist nl(8, 4);
  const std::vector<std::uint32_t> a{0, 1, 2, 3};
  const std::vector<std::uint32_t> b{4, 5, 6, 7};
  const auto sum = build_adder(nl, a, b, 4, false);
  for (std::size_t i = 0; i < 4; ++i) nl.set_output(i, sum[i]);

  const auto table = test::evaluate_exhaustive(nl);
  for (std::uint64_t v = 0; v < 256; ++v) {
    EXPECT_EQ(table[v], ((v & 15) + (v >> 4)) & 15);
  }
}

TEST(ripple_adder, linear_area_growth) {
  const std::size_t g4 = ripple_adder(4).num_gates();
  const std::size_t g8 = ripple_adder(8).num_gates();
  // Full-adder chains grow linearly: doubling width roughly doubles gates.
  EXPECT_GT(g8, g4);
  EXPECT_LT(g8, 3 * g4);
}

}  // namespace
}  // namespace axc::mult
