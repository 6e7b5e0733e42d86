#include <gtest/gtest.h>

#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "support/rng.h"
#include "test_util.h"

namespace axc::circuit {
namespace {

TEST(exhaustive_input_word, within_word_patterns) {
  // Input i < 6 toggles with period 2^(i+1) inside a word.
  for (std::size_t i = 0; i < 6; ++i) {
    const std::uint64_t w = exhaustive_input_word(i, 0);
    for (std::uint64_t t = 0; t < 64; ++t) {
      EXPECT_EQ((w >> t) & 1, (t >> i) & 1) << "input " << i << " t " << t;
    }
  }
}

TEST(exhaustive_input_word, block_level_patterns) {
  for (std::size_t i = 6; i < 16; ++i) {
    for (std::size_t block = 0; block < 1024; block += 37) {
      const std::uint64_t w = exhaustive_input_word(i, block);
      const bool expected = (block >> (i - 6)) & 1;
      EXPECT_EQ(w, expected ? ~std::uint64_t{0} : 0);
    }
  }
}

TEST(simulate_block, matches_naive_on_random_circuits) {
  rng gen(1234);
  for (int trial = 0; trial < 20; ++trial) {
    const netlist nl = test::random_netlist(6, 4, 40, gen);
    std::vector<std::uint64_t> in_words(6), out_words(4),
        scratch(nl.num_signals());
    for (std::size_t i = 0; i < 6; ++i) {
      in_words[i] = exhaustive_input_word(i, 0);
    }
    simulate_block(nl, in_words, out_words, scratch);
    for (std::uint64_t v = 0; v < 64; ++v) {
      const std::uint64_t expected = test::naive_eval(nl, v);
      std::uint64_t got = 0;
      for (std::size_t o = 0; o < 4; ++o) {
        got |= ((out_words[o] >> v) & 1) << o;
      }
      EXPECT_EQ(got, expected) << "trial " << trial << " v " << v;
    }
  }
}

class exhaustive_sizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(exhaustive_sizes, evaluate_exhaustive_matches_naive) {
  const std::size_t ni = GetParam();
  rng gen(100 + ni);
  const netlist nl = test::random_netlist(ni, 5, 60, gen);
  const auto table = test::evaluate_exhaustive(nl);
  ASSERT_EQ(table.size(), std::size_t{1} << ni);
  // Spot-check a stride covering every block.
  const std::size_t stride = table.size() > 4096 ? 17 : 1;
  for (std::size_t v = 0; v < table.size(); v += stride) {
    EXPECT_EQ(table[v], test::naive_eval(nl, v)) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(widths, exhaustive_sizes,
                         ::testing::Values(1, 2, 5, 6, 7, 8, 11, 16));

TEST(evaluate_exhaustive, partial_last_block) {
  // ni < 6 exercises the sub-word tail path.
  rng gen(55);
  const netlist nl = test::random_netlist(3, 2, 10, gen);
  const auto table = test::evaluate_exhaustive(nl);
  ASSERT_EQ(table.size(), 8u);
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(table[v], test::naive_eval(nl, v));
  }
}

TEST(simulate_words, arbitrary_value_streams) {
  rng gen(77);
  const netlist nl = test::random_netlist(10, 6, 80, gen);
  std::vector<std::uint64_t> stream(200);
  for (auto& v : stream) v = gen.below(1u << 10);
  const auto out = test::simulate_words(nl, stream);
  ASSERT_EQ(out.size(), stream.size());
  for (std::size_t k = 0; k < stream.size(); ++k) {
    EXPECT_EQ(out[k], test::naive_eval(nl, stream[k]));
  }
}

TEST(simulate_words, non_multiple_of_64_length) {
  rng gen(78);
  const netlist nl = test::random_netlist(4, 3, 20, gen);
  std::vector<std::uint64_t> stream(97);
  for (auto& v : stream) v = gen.below(16);
  const auto out = test::simulate_words(nl, stream);
  ASSERT_EQ(out.size(), 97u);
  for (std::size_t k = 0; k < stream.size(); ++k) {
    EXPECT_EQ(out[k], test::naive_eval(nl, stream[k]));
  }
}

}  // namespace
}  // namespace axc::circuit
