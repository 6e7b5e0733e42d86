// Self-tests of the driver's own arithmetic: the tail-percentile rule and
// front_hv on fronts whose hypervolume is worked out by hand.  Run with
// `axbench --unit-tests` (perfbench/run.py --selftest runs them first).
#include <cmath>
#include <cstdio>

#include "common.h"

namespace axbench {

namespace {

int g_failures = 0;

void expect_near(double got, double want, const char* what) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++g_failures;
  }
}

void expect_rule(std::size_t samples, std::optional<double> want) {
  const std::optional<double> got = tail_quantile(samples);
  if (got != want) {
    std::fprintf(stderr, "FAIL tail_quantile(%zu): got %g, want %g\n",
                 samples, got.value_or(-1.0), want.value_or(-1.0));
    ++g_failures;
  }
}

}  // namespace

int run_unit_tests() {
  // Percentile rule: the highest percentile with >= 10 samples beyond it.
  expect_rule(0, std::nullopt);
  expect_rule(19, std::nullopt);   // p50 leaves 9 above
  expect_rule(20, 0.5);            // p50 leaves 10 above
  expect_rule(99, 0.5);            // p90 leaves 9 above
  expect_rule(100, 0.9);
  expect_rule(999, 0.9);           // p99 leaves 9 above
  expect_rule(1000, 0.99);
  expect_rule(10000, 0.999);
  expect_rule(100000, 0.9999);

  // Linear-interpolation quantiles.
  expect_near(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5, "median of 4");
  expect_near(quantile({1.0, 2.0, 3.0, 4.0, 5.0}, 0.9), 4.6, "p90 of 5");
  expect_near(quantile({7.0}, 0.99), 7.0, "p99 of 1");
  expect_near(quantile({3.0, 1.0, 2.0}, 1.0), 3.0, "max");

  // Hypervolume, both objectives minimized.
  expect_near(hypervolume({{1.0, 1.0}}, 3.0, 4.0), 6.0, "one point");
  // (1,3) and (2,1) under (4,4): 3x1 + 2x3 - overlap 2x1 = 7.
  expect_near(hypervolume({{2.0, 1.0}, {1.0, 3.0}}, 4.0, 4.0), 7.0,
              "two points");
  // A dominated point adds nothing; one outside the box neither.
  expect_near(hypervolume({{1.0, 3.0}, {2.0, 1.0}, {3.0, 3.5}, {5.0, 0.0}},
                          4.0, 4.0),
              7.0, "dominated and outside points");
  expect_near(hypervolume({{1.0, 1.0}, {1.0, 1.0}}, 2.0, 2.0), 1.0,
              "duplicate point");
  expect_near(hypervolume({}, 2.0, 2.0), 0.0, "empty front");

  // front_hv: x = log10(wmed) floored at -7, reference (0, exact area),
  // normalized by the 7 x area box.
  //   (wmed 1e-3, area 50) and (wmed 1e-1, area 20), exact area 100:
  //   slice 1: (0 - -3) x (100 - 50) = 150; slice 2: (0 - -1) x (50 - 20)
  //   = 30; total 180 / 700.
  expect_near(front_hv({{1e-3, 50.0, 0}, {1e-1, 20.0, 1}}, 100.0),
              180.0 / 700.0, "front_hv two points");
  //   wmed 0 sits on the floor: (0 - -7) x (100 - 90) / 700 = 0.1.
  expect_near(front_hv({{0.0, 90.0, 0}}, 100.0), 0.1, "front_hv floor");
  //   A design no smaller than the seed adds nothing.
  expect_near(front_hv({{1e-2, 100.0, 0}}, 100.0), 0.0, "front_hv seed");

  if (g_failures == 0) std::printf("unit tests passed\n");
  return g_failures == 0 ? 0 : 1;
}

}  // namespace axbench
