// Fig. 3 — power vs WMED trade-offs of 8-bit unsigned multipliers evolved
// for D1 / D2 / Du, against conventional approximate baselines (truncated
// and broken-array multipliers).  Three panels, one per evaluation metric
// (WMED_D1, WMED_D2, WMED_Du); every multiplier is evaluated under all
// three, exactly as in the paper ("each multiplier is also evaluated using
// the remaining WMEDs that were not considered during the design").
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/design_flow.h"
#include "core/pareto.h"
#include "core/wmed_approximator.h"
#include "metrics/compiled_table.h"
#include "metrics/error_metrics.h"
#include "mult/multipliers.h"

namespace {

using namespace axc;
using metrics::mult_spec;

struct candidate {
  std::string series;
  circuit::netlist netlist;
  double wmed[3]{};   // under D1, D2, Du
  double power_uw{};  // under the design-relevant workload (Du operands)
};

}  // namespace

int main() {
  bench::banner("Fig. 3",
                "Pareto fronts: evolved multipliers vs truncated/BAM");

  const mult_spec spec{8, false};
  const dist::pmf dists[3] = {dist::pmf::normal(256, 127.0, 32.0),
                              dist::pmf::half_normal(256, 64.0),
                              dist::pmf::uniform(256)};
  const char* dist_names[3] = {"D1", "D2", "Du"};

  // Budget: a subset of the 14 paper targets by default.
  std::vector<double> targets = core::default_wmed_targets();
  if (bench::scale() < 2.0) {
    std::vector<double> sub;
    for (std::size_t i = 0; i < targets.size(); i += 2) {
      sub.push_back(targets[i]);
    }
    targets = sub;
  }
  const std::size_t iterations = bench::scaled(2500);

  const circuit::netlist seed = mult::unsigned_multiplier(8);
  std::vector<candidate> candidates;

  // --- proposed: evolve per distribution and target ---
  for (int di = 0; di < 3; ++di) {
    core::approximation_config cfg;
    cfg.spec = spec;
    cfg.distribution = dists[di];
    cfg.iterations = iterations;
    cfg.extra_columns = 64;
    cfg.rng_seed = 300 + static_cast<std::uint64_t>(di);
    const core::wmed_approximator approximator(cfg);
    for (const double target : targets) {
      const auto design = approximator.approximate(seed, target);
      candidates.push_back(
          {std::string("proposed-") + dist_names[di], design.netlist});
    }
    std::printf("evolved %zu designs for %s\n", targets.size(),
                dist_names[di]);
  }

  // --- baselines ---
  for (const unsigned drop : {2u, 4u, 6u, 8u, 10u, 12u}) {
    candidates.push_back({"truncated-" + std::to_string(drop),
                          mult::truncated_multiplier(8, drop)});
  }
  for (const auto [hbl, vbl] : {std::pair{0u, 4u}, std::pair{0u, 8u},
                                std::pair{1u, 6u}, std::pair{2u, 8u},
                                std::pair{2u, 12u}, std::pair{3u, 10u}}) {
    candidates.push_back(
        {"bam-h" + std::to_string(hbl) + "v" + std::to_string(vbl),
         mult::broken_array_multiplier(8, hbl, vbl)});
  }
  candidates.push_back({"exact", seed});

  // --- characterize everything under all three metrics ---
  const auto exact_table = metrics::exact_product_table(spec);
  for (candidate& c : candidates) {
    const auto table = metrics::result_table(c.netlist, spec);
    for (int di = 0; di < 3; ++di) {
      c.wmed[di] = metrics::wmed(exact_table, table, spec, dists[di]);
    }
    c.power_uw = core::characterize_multiplier(
                     c.netlist, spec, dists[2],
                     tech::cell_library::nangate45_like(), 2048)
                     .power_uw;
  }

  for (int panel = 0; panel < 3; ++panel) {
    std::printf("\n--- Panel WMED_%s: power [uW] vs WMED [%%] ---\n",
                dist_names[panel]);
    std::printf("%-16s %12s %12s\n", "series", "WMED%", "power_uW");
    for (const candidate& c : candidates) {
      std::printf("%-16s %12.5f %12.2f\n", c.series.c_str(),
                  100.0 * c.wmed[panel], c.power_uw);
    }
    // Pareto front of this panel.
    std::vector<core::pareto_point> points;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      points.push_back({candidates[i].wmed[panel],
                        candidates[i].power_uw, i});
    }
    const auto front = core::pareto_front(points);
    std::size_t proposed_on_front = 0;
    const std::string prefix = std::string("proposed-") + dist_names[panel];
    for (const auto& p : front) {
      if (candidates[p.index].series == prefix) ++proposed_on_front;
    }
    std::printf("Pareto front size %zu; %zu points from %s\n", front.size(),
                proposed_on_front, prefix.c_str());
  }

  std::printf(
      "\nPaper reference (shape): multipliers evolved for the panel's own\n"
      "distribution dominate the front of that panel; truncated/BAM points\n"
      "lie above/right of the evolved fronts.\n");
  return 0;
}
