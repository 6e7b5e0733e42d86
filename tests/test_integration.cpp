// Cross-module integration tests: the paper's central claims at smoke scale.
#include <gtest/gtest.h>

#include "core/design_flow.h"
#include "core/wmed_approximator.h"
#include "data/digits.h"
#include "imgproc/gaussian_filter.h"
#include "metrics/compiled_table.h"
#include "metrics/error_metrics.h"
#include "metrics/wmed_evaluator.h"
#include "mult/lut.h"
#include "mult/multipliers.h"
#include "nn/models.h"
#include "nn/quantize.h"
#include "nn/trainer.h"

namespace axc {
namespace {

using metrics::mult_spec;

// Claim 1 (case study 1): a multiplier evolved for distribution D scores a
// better WMED_D than one evolved for the uniform distribution at comparable
// area, because the search can spend its error budget on unlikely operands.
TEST(integration, distribution_tailoring_beats_uniform_under_target_metric) {
  const mult_spec spec{6, false};
  const dist::pmf d2 = dist::pmf::half_normal(64, 10.0);
  const dist::pmf du = dist::pmf::uniform(64);
  const circuit::netlist seed = mult::unsigned_multiplier(6);

  core::approximation_config cfg;
  cfg.spec = spec;
  cfg.iterations = 3000;
  cfg.extra_columns = 32;
  cfg.rng_seed = 9;
  cfg.runs_per_target = 2;

  const double target = 0.003;
  cfg.distribution = d2;
  const core::wmed_approximator tailored(cfg);
  cfg.distribution = du;
  const core::wmed_approximator generic(cfg);

  // Evolve under each distribution, then compare areas at the shared WMED
  // target measured under D2 (the application metric).
  double tailored_area = 1e18, generic_area = 1e18;
  metrics::wmed_evaluator d2_eval(spec, d2);
  for (std::size_t run = 0; run < cfg.runs_per_target; ++run) {
    const auto td = tailored.approximate(seed, target, run);
    tailored_area = std::min(tailored_area, td.area_um2);

    const auto gd = generic.approximate(seed, target, run);
    // The uniform-evolved design must meet the *same* D2 budget to be a
    // fair drop-in; re-measure and keep it only if it qualifies.
    if (d2_eval.evaluate(gd.netlist) <= target) {
      generic_area = std::min(generic_area, gd.area_um2);
    }
  }
  EXPECT_LT(tailored_area, generic_area)
      << "tailored=" << tailored_area << " generic=" << generic_area;
}

// Claim 2 (Fig. 4): the error mass of an evolved multiplier follows the
// inverse of the distribution weight — low error where D is heavy.
TEST(integration, error_map_reflects_distribution) {
  const mult_spec spec{6, false};
  const dist::pmf d2 = dist::pmf::half_normal(64, 8.0);
  core::approximation_config cfg;
  cfg.spec = spec;
  cfg.distribution = d2;
  cfg.iterations = 4000;
  cfg.extra_columns = 32;
  cfg.rng_seed = 31;
  const core::wmed_approximator approx(cfg);
  const auto design =
      approx.approximate(mult::unsigned_multiplier(6), 0.01);

  const auto exact = metrics::exact_product_table(spec);
  const auto table = metrics::result_table(design.netlist, spec);
  const auto map = metrics::error_map(exact, table, spec);

  // Mean |error| over rows with small operand A (heavy weight) vs rows with
  // large operand A (near-zero weight).
  double light_zone = 0.0, heavy_zone = 0.0;
  for (std::uint64_t b = 0; b < 64; ++b) {
    for (std::uint64_t a = 0; a < 16; ++a) {
      heavy_zone += map[(b << 6) | a];
    }
    for (std::uint64_t a = 48; a < 64; ++a) {
      light_zone += map[(b << 6) | a];
    }
  }
  EXPECT_LE(heavy_zone, light_zone);
}

// Claim 3 (Fig. 5 logic): a multiplier family with smaller WMED under the
// coefficient distribution yields better filtered-image quality.
TEST(integration, filter_quality_tracks_coefficient_wmed) {
  const mult_spec spec{8, false};
  // Gaussian 3x3 coefficients are 1, 2, 4: mass entirely on tiny operands.
  std::vector<double> w(256, 0.0);
  w[1] = 4.0 / 16.0;
  w[2] = 8.0 / 16.0;
  w[4] = 4.0 / 16.0;
  const dist::pmf coeff_dist = dist::pmf::from_weights(w);

  const auto exact = metrics::exact_product_table(spec);
  const mult::product_lut lut_good(mult::broken_array_multiplier(8, 0, 4),
                                   spec);
  const mult::product_lut lut_bad(mult::broken_array_multiplier(8, 3, 4),
                                  spec);

  const double wmed_good =
      metrics::wmed(exact, std::vector<std::int64_t>(lut_good.table().begin(),
                                                     lut_good.table().end()),
                    spec, coeff_dist);
  const double wmed_bad =
      metrics::wmed(exact, std::vector<std::int64_t>(lut_bad.table().begin(),
                                                     lut_bad.table().end()),
                    spec, coeff_dist);
  ASSERT_LT(wmed_good, wmed_bad);

  const auto qg = imgproc::evaluate_filter_quality(lut_good, 5, 32);
  const auto qb = imgproc::evaluate_filter_quality(lut_bad, 5, 32);
  EXPECT_GT(qg.mean_psnr_db, qb.mean_psnr_db);
}

// Claim 4 (case study 2 plumbing): weight-distribution-driven design flow
// produces a LUT whose quantized-NN accuracy at a modest WMED budget stays
// close to the exact-multiplier accuracy.
TEST(integration, nn_accuracy_survives_modest_wmed) {
  const auto train_set = data::make_mnist_like(800, 77);
  const auto test_set = data::make_mnist_like(200, 78);
  const auto train_x = data::to_tensors(train_set);
  const auto test_x = data::to_tensors(test_set);

  nn::network mlp = nn::make_mlp(55, 28 * 28, 32);
  nn::train_config tcfg;
  tcfg.epochs = 3;
  tcfg.learning_rate = 0.1f;
  nn::train(mlp, train_x, train_set.labels, tcfg);

  nn::quantized_network qnet(
      mlp, std::span<const nn::tensor>(train_x).subspan(0, 48));
  const auto exact_lut = mult::product_lut::exact(mult_spec{8, true});
  const double exact_acc =
      qnet.accuracy(test_x, test_set.labels, exact_lut);

  // Evolve a signed multiplier against the actual weight distribution.
  // A uniform floor protects rare-but-critical operands (e.g. the output
  // layer's large weights, which are a tiny fraction of the histogram) —
  // the alpha-weight flexibility the paper's Sec. III-A explicitly allows.
  const dist::pmf weight_dist =
      dist::pmf::from_int8_samples(qnet.quantized_weights())
          .blend(dist::pmf::uniform(256), 0.1);
  core::approximation_config cfg;
  cfg.spec = mult_spec{8, true};
  cfg.distribution = weight_dist;
  cfg.iterations = 1200;  // smoke budget
  cfg.extra_columns = 32;
  cfg.rng_seed = 5;
  const core::wmed_approximator approx(cfg);
  const auto design =
      approx.approximate(mult::signed_multiplier(8), 0.0003);
  ASSERT_LE(design.wmed, 0.0003 + 1e-12);

  const mult::product_lut evolved_lut(design.netlist, cfg.spec);
  const double approx_acc =
      qnet.accuracy(test_x, test_set.labels, evolved_lut);
  EXPECT_GT(approx_acc, exact_acc - 0.05)
      << "exact=" << exact_acc << " approx=" << approx_acc;
}

}  // namespace
}  // namespace axc
