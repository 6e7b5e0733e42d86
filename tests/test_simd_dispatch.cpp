// SIMD dispatch parity: every compiled-in scan/step-executor backend must
// produce bit-identical WMED evaluations — across component classes
// (mult/adder), widths 6/7/8, signedness, evolved netlists, the
// genotype-native incremental path, and the early-abort path — when forced
// via the evaluator argument or the AXC_SIMD environment override.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "cgp/genotype.h"
#include "circuit/simulator.h"
#include "core/wmed_approximator.h"
#include "dist/pmf.h"
#include "metrics/scan_kernels.h"
#include "metrics/wmed_evaluator.h"
#include "mult/adders.h"
#include "mult/approx_adders.h"
#include "mult/multipliers.h"
#include "support/rng.h"
#include "support/simd.h"

namespace axc::metrics {
namespace {

/// Every backend this binary can actually dispatch to on this machine.
std::vector<simd::level> forced_levels() {
  std::vector<simd::level> levels{simd::level::scalar};
  for (const simd::level l : {simd::level::avx2, simd::level::avx512}) {
    if (scan_level_available(l)) levels.push_back(l);
  }
  return levels;
}

/// Mutated variants of a seed netlist, via the CGP genotype (what the
/// search actually scores).
std::vector<circuit::netlist> evolved_variants(const circuit::netlist& seed,
                                               std::uint64_t seed_value,
                                               int count) {
  cgp::parameters params;
  params.num_inputs = seed.num_inputs();
  params.num_outputs = seed.num_outputs();
  params.columns = seed.num_gates() + 24;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  rng gen(seed_value);
  cgp::genotype g = cgp::genotype::from_netlist(params, seed, gen);
  std::vector<circuit::netlist> variants;
  for (int i = 0; i < count; ++i) {
    for (int m = 0; m < 4; ++m) g.mutate(gen);
    variants.push_back(g.decode_cone());
  }
  return variants;
}

template <component_spec Spec>
void expect_backend_parity(const Spec& spec, const dist::pmf& d,
                           const std::vector<circuit::netlist>& candidates,
                           const char* what) {
  const auto shared = basic_wmed_evaluator<Spec>::make_shared_state(spec, d);
  basic_wmed_evaluator<Spec> reference(shared, simd::level::scalar);
  ASSERT_EQ(reference.simd_level(), simd::level::scalar);

  for (const simd::level level : forced_levels()) {
    basic_wmed_evaluator<Spec> forced(shared, level);
    ASSERT_EQ(forced.simd_level(), resolve_scan_level(level));
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const double expected = reference.evaluate(candidates[c]);
      // Full sweeps: bit-identical, not just close.
      EXPECT_EQ(forced.evaluate(candidates[c]), expected)
          << what << " candidate " << c << " level "
          << simd::level_name(level);
      // Abort path: the partial value is bit-identical too (the batched
      // kernel applies per-block totals in the pre-batch visit order).
      for (const double bound : {expected * 0.01, expected * 0.6}) {
        EXPECT_EQ(forced.evaluate(candidates[c], bound),
                  reference.evaluate(candidates[c], bound))
            << what << " candidate " << c << " bound " << bound << " level "
            << simd::level_name(level);
      }
    }
  }
}

TEST(simd_dispatch, mult_backends_bit_identical_across_widths_and_signs) {
  for (const unsigned width : {6u, 7u, 8u}) {
    for (const bool is_signed : {false, true}) {
      const mult_spec spec{width, is_signed};
      const dist::pmf d = dist::pmf::half_normal(
          spec.operand_count(), static_cast<double>(spec.operand_count()) / 4.0);
      std::vector<circuit::netlist> candidates;
      candidates.push_back(is_signed ? mult::signed_multiplier(width)
                                     : mult::unsigned_multiplier(width));
      candidates.push_back(
          mult::truncated_multiplier(width, width / 2, is_signed));
      candidates.push_back(
          mult::broken_array_multiplier(width, 2, 1, is_signed));
      expect_backend_parity(spec, d, candidates, "mult");
    }
  }
}

TEST(simd_dispatch, adder_backends_bit_identical_across_widths) {
  for (const unsigned width : {6u, 7u, 8u}) {
    const adder_spec spec{width};
    const dist::pmf d = dist::pmf::half_normal(
        spec.operand_count(), static_cast<double>(spec.operand_count()) / 3.0);
    std::vector<circuit::netlist> candidates;
    candidates.push_back(mult::ripple_adder(width));
    candidates.push_back(mult::lower_or_adder(width, width / 2));
    candidates.push_back(mult::truncated_adder(width, 2));
    expect_backend_parity(spec, d, candidates, "adder");
  }
}

TEST(simd_dispatch, evolved_netlists_bit_identical) {
  const mult_spec spec{8, false};
  const dist::pmf d = dist::pmf::half_normal(256, 64.0);
  expect_backend_parity(spec, d,
                        evolved_variants(mult::unsigned_multiplier(8), 41, 6),
                        "evolved mult");

  const adder_spec aspec{8};
  const dist::pmf ad = dist::pmf::half_normal(256, 48.0);
  expect_backend_parity(aspec, ad,
                        evolved_variants(mult::ripple_adder(8), 43, 6),
                        "evolved adder");
}

TEST(simd_dispatch, incremental_search_is_backend_independent) {
  // The whole search, not just one evaluation: a small (1+lambda) run with
  // AXC_SIMD forcing each backend must evolve the same design.
  const char* const outer = std::getenv("AXC_SIMD");
  const std::string saved = outer != nullptr ? outer : "";
  const auto run = [](simd::level level) {
    EXPECT_EQ(setenv("AXC_SIMD", simd::level_name(level), 1), 0);
    EXPECT_EQ(resolve_scan_level(simd::level::automatic), level);
    core::approximation_config config;
    config.spec = metrics::mult_spec{8, false};
    config.distribution = dist::pmf::half_normal(256, 64.0);
    config.iterations = 60;
    config.rng_seed = 9;
    const core::wmed_approximator approximator(config);
    return approximator.approximate(mult::unsigned_multiplier(8), 1e-3);
  };
  const core::evolved_design reference = run(simd::level::scalar);
  for (const simd::level level : forced_levels()) {
    const core::evolved_design design = run(level);
    EXPECT_EQ(design.netlist, reference.netlist)
        << simd::level_name(level);
    EXPECT_EQ(design.wmed, reference.wmed) << simd::level_name(level);
    EXPECT_EQ(design.area_um2, reference.area_um2)
        << simd::level_name(level);
    EXPECT_EQ(design.evaluations, reference.evaluations)
        << simd::level_name(level);
  }
  if (outer != nullptr) {
    ASSERT_EQ(setenv("AXC_SIMD", saved.c_str(), 1), 0);
  } else {
    ASSERT_EQ(unsetenv("AXC_SIMD"), 0);
  }
}

TEST(simd_dispatch, resolution_rules) {
  // Explicit levels resolve to themselves when available, and only clamp
  // downward, never upward.
  EXPECT_EQ(resolve_scan_level(simd::level::scalar), simd::level::scalar);
  for (const simd::level l : {simd::level::avx2, simd::level::avx512}) {
    const simd::level resolved = resolve_scan_level(l);
    EXPECT_LE(static_cast<int>(resolved), static_cast<int>(l));
    if (scan_level_available(l)) EXPECT_EQ(resolved, l);
  }
  // automatic -> the strongest available backend.
  EXPECT_EQ(resolve_scan_level(simd::level::automatic), best_scan_level());
  // The scan kernel table never hands out a null or illegal kernel.
  for (const simd::level l : forced_levels()) {
    EXPECT_NE(scan_kernel(l), nullptr);
  }
  // The simulator's step executors follow the same rules.
  EXPECT_EQ(circuit::resolve_sim_steps_level(simd::level::scalar),
            simd::level::scalar);
  EXPECT_NE(circuit::sim_steps_indexed_kernel(simd::level::scalar), nullptr);
  EXPECT_NE(circuit::sim_pack_kernel(simd::level::scalar), nullptr);
}

TEST(simd_dispatch, env_override_forces_the_backend) {
  ASSERT_EQ(setenv("AXC_SIMD", "scalar", 1), 0);
  EXPECT_EQ(simd::env_override(), simd::level::scalar);
  EXPECT_EQ(resolve_scan_level(simd::level::automatic), simd::level::scalar);

  // An explicit config knob is not overridden by the environment.
  if (scan_level_available(simd::level::avx2)) {
    EXPECT_EQ(resolve_scan_level(simd::level::avx2), simd::level::avx2);
  }

  ASSERT_EQ(setenv("AXC_SIMD", "not-a-level", 1), 0);
  EXPECT_EQ(simd::env_override(), std::nullopt);
  EXPECT_EQ(resolve_scan_level(simd::level::automatic), best_scan_level());

  ASSERT_EQ(unsetenv("AXC_SIMD"), 0);
  EXPECT_EQ(simd::env_override(), std::nullopt);
}

TEST(simd_dispatch, level_names_round_trip) {
  for (const simd::level l :
       {simd::level::automatic, simd::level::scalar, simd::level::avx2,
        simd::level::avx512}) {
    EXPECT_EQ(simd::parse_level(simd::level_name(l)), l);
  }
  EXPECT_EQ(simd::parse_level("bogus"), std::nullopt);
}

}  // namespace
}  // namespace axc::metrics
