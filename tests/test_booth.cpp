#include <gtest/gtest.h>

#include "circuit/structural.h"
#include "metrics/compiled_table.h"
#include "metrics/error_metrics.h"
#include "metrics/mult_spec.h"
#include "mult/booth.h"
#include "mult/multipliers.h"

namespace axc::mult {
namespace {

using metrics::mult_spec;

class booth_widths : public ::testing::TestWithParam<unsigned> {};

TEST_P(booth_widths, exhaustively_correct_signed) {
  const unsigned w = GetParam();
  const circuit::netlist nl = booth_multiplier(w);
  ASSERT_TRUE(nl.validate().empty());
  const mult_spec spec{w, true};
  const auto table = metrics::result_table(nl, spec);
  const auto exact = metrics::exact_product_table(spec);
  for (std::size_t v = 0; v < table.size(); ++v) {
    ASSERT_EQ(table[v], exact[v])
        << "w=" << w << " a=" << (v & ((1u << w) - 1)) << " b=" << (v >> w);
  }
}

INSTANTIATE_TEST_SUITE_P(even_widths, booth_widths,
                         ::testing::Values(2, 4, 6, 8));

TEST(booth_multiplier, wallace_schedule_also_exact) {
  const circuit::netlist nl = booth_multiplier(8, schedule::wallace);
  const mult_spec spec{8, true};
  EXPECT_EQ(metrics::result_table(nl, spec),
            metrics::exact_product_table(spec));
}

TEST(booth_multiplier, structurally_distinct_from_baugh_wooley) {
  const auto booth = circuit::analyze_structure(booth_multiplier(8));
  const auto bw = circuit::analyze_structure(signed_multiplier(8));
  // Booth halves the partial-product rows; composition must differ
  // noticeably (it uses OR-based selectors, BW uses NAND rows).
  EXPECT_NE(booth.active_gates, bw.active_gates);
  const auto ors =
      booth.function_histogram[static_cast<std::size_t>(circuit::gate_fn::or2)];
  EXPECT_GT(ors, 20u);
}

TEST(booth_multiplier, rejects_odd_width) {
  EXPECT_DEATH((void)booth_multiplier(5), "precondition");
}

TEST(booth_multiplier, usable_as_cgp_seed_scale) {
  // The paper's c = 320..490 window should accommodate the Booth seed too.
  const circuit::netlist nl = booth_multiplier(8);
  EXPECT_LE(nl.num_gates(), 500u);
  EXPECT_GE(nl.num_gates(), 150u);
}

}  // namespace
}  // namespace axc::mult
