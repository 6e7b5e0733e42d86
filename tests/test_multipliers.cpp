#include <gtest/gtest.h>

#include "circuit/simulator.h"
#include "metrics/compiled_table.h"
#include "metrics/error_metrics.h"
#include "metrics/mult_spec.h"
#include "mult/multipliers.h"
#include "test_util.h"

namespace axc::mult {
namespace {

using metrics::mult_spec;

void expect_exact(const circuit::netlist& nl, unsigned width,
                  bool is_signed) {
  ASSERT_TRUE(nl.validate().empty());
  const mult_spec spec{width, is_signed};
  const auto table = metrics::result_table(nl, spec);
  const auto exact = metrics::exact_product_table(spec);
  for (std::size_t v = 0; v < table.size(); ++v) {
    ASSERT_EQ(table[v], exact[v])
        << "w=" << width << (is_signed ? " signed" : " unsigned")
        << " a=" << (v & ((1u << width) - 1)) << " b=" << (v >> width);
  }
}

struct mult_case {
  unsigned width;
  bool is_signed;
  schedule sched;
};

class exact_mult_param : public ::testing::TestWithParam<mult_case> {};

TEST_P(exact_mult_param, exhaustively_correct) {
  const auto [width, is_signed, sched] = GetParam();
  const circuit::netlist nl = is_signed ? signed_multiplier(width, sched)
                                        : unsigned_multiplier(width, sched);
  expect_exact(nl, width, is_signed);
}

INSTANTIATE_TEST_SUITE_P(
    generators, exact_mult_param,
    ::testing::Values(mult_case{2, false, schedule::ripple},
                      mult_case{2, true, schedule::ripple},
                      mult_case{3, false, schedule::ripple},
                      mult_case{3, true, schedule::ripple},
                      mult_case{4, false, schedule::ripple},
                      mult_case{4, true, schedule::ripple},
                      mult_case{4, false, schedule::wallace},
                      mult_case{4, true, schedule::wallace},
                      mult_case{5, true, schedule::ripple},
                      mult_case{6, false, schedule::ripple},
                      mult_case{6, true, schedule::wallace},
                      mult_case{8, false, schedule::ripple},
                      mult_case{8, true, schedule::ripple},
                      mult_case{8, false, schedule::wallace},
                      mult_case{8, true, schedule::wallace}));

TEST(unsigned_multiplier, gate_count_in_paper_range) {
  // The paper seeds CGP with c = 320 .. 490 nodes for 8-bit multipliers.
  const circuit::netlist ripple = unsigned_multiplier(8);
  EXPECT_GE(ripple.num_gates(), 250u);
  EXPECT_LE(ripple.num_gates(), 500u);
}

TEST(wallace_schedule, shallower_than_ripple) {
  const circuit::netlist r = unsigned_multiplier(8, schedule::ripple);
  const circuit::netlist w = unsigned_multiplier(8, schedule::wallace);
  // Compare logic depth via unit-delay longest path.
  const auto depth = [](const circuit::netlist& nl) {
    std::vector<double> arrival(nl.num_signals(), 0.0);
    double max_depth = 0.0;
    for (std::size_t k = 0; k < nl.num_gates(); ++k) {
      const circuit::gate_node& g = nl.gate(k);
      arrival[nl.num_inputs() + k] =
          1.0 + std::max(arrival[g.in0], arrival[g.in1]);
    }
    for (const auto out : nl.outputs()) {
      max_depth = std::max(max_depth, arrival[out]);
    }
    return max_depth;
  };
  EXPECT_LT(depth(w), depth(r));
}

class truncated_param : public ::testing::TestWithParam<unsigned> {};

TEST_P(truncated_param, truncation_semantics) {
  const unsigned dropped = GetParam();
  const circuit::netlist nl = truncated_multiplier(4, dropped);
  const auto table = metrics::result_table(nl, mult_spec{4, false});
  for (std::uint64_t b = 0; b < 16; ++b) {
    for (std::uint64_t a = 0; a < 16; ++a) {
      // Reference: sum of kept partial products.
      std::int64_t expected = 0;
      for (unsigned i = 0; i < 4; ++i) {
        for (unsigned j = 0; j < 4; ++j) {
          if (i + j < dropped) continue;
          expected += static_cast<std::int64_t>(((a >> i) & 1) *
                                                ((b >> j) & 1))
                      << (i + j);
        }
      }
      EXPECT_EQ(table[(b << 4) | a], expected & 0xFF)
          << "dropped=" << dropped << " a=" << a << " b=" << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(depths, truncated_param,
                         ::testing::Values(0, 1, 2, 3, 4, 8));

TEST(truncated_multiplier, zero_drop_is_exact) {
  expect_exact(truncated_multiplier(6, 0), 6, false);
  expect_exact(truncated_multiplier(4, 0, /*is_signed=*/true), 4, true);
}

TEST(truncated_multiplier, error_grows_with_truncation) {
  const mult_spec spec{8, false};
  const auto exact = metrics::exact_product_table(spec);
  double previous = -1.0;
  for (const unsigned dropped : {0u, 2u, 4u, 6u, 8u, 10u}) {
    const auto table =
        metrics::result_table(truncated_multiplier(8, dropped), spec);
    const double e = metrics::med(exact, table, spec);
    EXPECT_GT(e, previous);
    previous = e;
  }
}

TEST(truncated_multiplier, area_shrinks_with_truncation) {
  std::size_t previous = truncated_multiplier(8, 0).active_gate_count();
  for (const unsigned dropped : {2u, 4u, 6u, 8u}) {
    const std::size_t gates =
        truncated_multiplier(8, dropped).active_gate_count();
    EXPECT_LT(gates, previous);
    previous = gates;
  }
}

TEST(broken_array_multiplier, no_breaks_is_exact) {
  expect_exact(broken_array_multiplier(5, 0, 0), 5, false);
  expect_exact(broken_array_multiplier(4, 0, 0, true), 4, true);
}

TEST(broken_array_multiplier, semantics_match_model) {
  // Kept partial products: j >= hbl and i + j >= vbl.
  const unsigned hbl = 1, vbl = 3;
  const circuit::netlist nl = broken_array_multiplier(4, hbl, vbl);
  const auto table = metrics::result_table(nl, mult_spec{4, false});
  for (std::uint64_t b = 0; b < 16; ++b) {
    for (std::uint64_t a = 0; a < 16; ++a) {
      std::int64_t expected = 0;
      for (unsigned i = 0; i < 4; ++i) {
        for (unsigned j = 0; j < 4; ++j) {
          if (j < hbl || i + j < vbl) continue;
          expected += static_cast<std::int64_t>(((a >> i) & 1) *
                                                ((b >> j) & 1))
                      << (i + j);
        }
      }
      EXPECT_EQ(table[(b << 4) | a], expected & 0xFF);
    }
  }
}

TEST(broken_array_multiplier, deeper_breaks_cost_less_err_more) {
  const mult_spec spec{8, false};
  const auto exact = metrics::exact_product_table(spec);
  const auto shallow = broken_array_multiplier(8, 1, 2);
  const auto deep = broken_array_multiplier(8, 3, 6);
  EXPECT_LT(deep.active_gate_count(), shallow.active_gate_count());
  EXPECT_GT(
      metrics::med(exact, metrics::result_table(deep, spec), spec),
      metrics::med(exact, metrics::result_table(shallow, spec), spec));
}

TEST(zero_exact_wrapper, forces_zero_products) {
  // Wrap a deliberately broken multiplier; zero operands must still yield 0.
  const circuit::netlist broken = truncated_multiplier(4, 5);
  const circuit::netlist wrapped = zero_exact_wrapper(broken, 4);
  const auto table = metrics::result_table(wrapped, mult_spec{4, false});
  for (std::uint64_t x = 0; x < 16; ++x) {
    EXPECT_EQ(table[(x << 4) | 0], 0) << "a=0 b=" << x;
    EXPECT_EQ(table[(0 << 4) | x], 0) << "a=" << x << " b=0";
  }
}

TEST(zero_exact_wrapper, preserves_nonzero_behaviour) {
  const circuit::netlist inner = truncated_multiplier(4, 3);
  const circuit::netlist wrapped = zero_exact_wrapper(inner, 4);
  const auto inner_table = metrics::result_table(inner, mult_spec{4, false});
  const auto wrapped_table =
      metrics::result_table(wrapped, mult_spec{4, false});
  for (std::uint64_t b = 1; b < 16; ++b) {
    for (std::uint64_t a = 1; a < 16; ++a) {
      EXPECT_EQ(wrapped_table[(b << 4) | a], inner_table[(b << 4) | a]);
    }
  }
}

TEST(zero_exact_wrapper, wrapping_exact_multiplier_is_exact) {
  expect_exact(zero_exact_wrapper(unsigned_multiplier(4), 4), 4, false);
}

struct mac_case {
  unsigned width;
  unsigned acc_width;
  bool is_signed;
};

class mac_param : public ::testing::TestWithParam<mac_case> {};

TEST_P(mac_param, accumulates_correctly) {
  const auto [w, acc_w, is_signed] = GetParam();
  const circuit::netlist multiplier =
      is_signed ? signed_multiplier(w) : unsigned_multiplier(w);
  const circuit::netlist mac = build_mac(multiplier, w, acc_w, is_signed);
  ASSERT_EQ(mac.num_inputs(), 2 * std::size_t{w} + acc_w);
  ASSERT_EQ(mac.num_outputs(), std::size_t{acc_w});
  ASSERT_TRUE(mac.validate().empty());

  rng gen(2024);
  const std::uint64_t acc_mask = (std::uint64_t{1} << acc_w) - 1;
  for (int trial = 0; trial < 300; ++trial) {
    const std::uint64_t a = gen.below(1u << w);
    const std::uint64_t b = gen.below(1u << w);
    const std::uint64_t acc = gen() & acc_mask;
    const std::uint64_t assignment = a | (b << w) | (acc << (2 * w));
    const std::uint64_t got = test::naive_eval(mac, assignment);

    const std::int64_t product = test::as_value(a, w, is_signed) *
                                 test::as_value(b, w, is_signed);
    const std::uint64_t expected =
        (acc + static_cast<std::uint64_t>(product)) & acc_mask;
    EXPECT_EQ(got, expected) << "a=" << a << " b=" << b << " acc=" << acc;
  }
}

INSTANTIATE_TEST_SUITE_P(configs, mac_param,
                         ::testing::Values(mac_case{4, 8, false},
                                           mac_case{4, 10, true},
                                           mac_case{8, 16, false},
                                           mac_case{8, 20, true},
                                           mac_case{8, 24, true}));

TEST(filtered_multiplier, custom_keep_predicate) {
  // Keep only the diagonal partial products a_i * b_i.
  const circuit::netlist nl = filtered_multiplier(
      4, false, schedule::ripple,
      [](unsigned i, unsigned j) { return i == j; });
  const auto table = metrics::result_table(nl, mult_spec{4, false});
  for (std::uint64_t b = 0; b < 16; ++b) {
    for (std::uint64_t a = 0; a < 16; ++a) {
      std::int64_t expected = 0;
      for (unsigned i = 0; i < 4; ++i) {
        expected += static_cast<std::int64_t>(((a >> i) & 1) * ((b >> i) & 1))
                    << (2 * i);
      }
      EXPECT_EQ(table[(b << 4) | a], expected);
    }
  }
}

}  // namespace
}  // namespace axc::mult
