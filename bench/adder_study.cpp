// Extension — the WMED methodology applied to a second component class:
// approximate 8-bit adders.  Evolves adders under a non-uniform operand
// distribution and compares against the classic approximate-adder families
// (lower-part-OR, equal-segmentation, truncated), demonstrating that the
// paper's method is not multiplier-specific (Sec. III introduces it for
// combinational circuits in general).
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/pareto.h"
#include "core/wmed_approximator.h"
#include "metrics/adder_metrics.h"
#include "metrics/compiled_table.h"
#include "mult/adders.h"
#include "mult/approx_adders.h"
#include "tech/analysis.h"

namespace {

using namespace axc;

}  // namespace

int main() {
  bench::banner("Adder study", "WMED-evolved adders vs LOA/ESA/truncated");

  const metrics::adder_spec spec{8};
  const dist::pmf d = dist::pmf::half_normal(256, 48.0);
  const auto exact = metrics::exact_sum_table(spec);
  const auto& lib = tech::cell_library::nangate45_like();

  struct row {
    std::string name;
    double wmed, area;
  };
  std::vector<row> rows;
  const auto add = [&](const std::string& name, const circuit::netlist& nl) {
    rows.push_back({name,
                    metrics::adder_wmed(exact, metrics::result_table(nl, spec),
                                        spec, d),
                    tech::estimate_area(nl, lib)});
  };

  add("exact-ripple", mult::ripple_adder(8));
  for (const unsigned k : {2u, 4u, 6u}) {
    add("loa-" + std::to_string(k), mult::lower_or_adder(8, k));
  }
  for (const unsigned seg : {2u, 4u}) {
    add("esa-" + std::to_string(seg), mult::segmented_adder(8, seg));
  }
  for (const unsigned k : {2u, 4u}) {
    add("trunc-" + std::to_string(k), mult::truncated_adder(8, k));
  }

  // WMED-evolved adders at a few error budgets, searched through the
  // generalized approximator: the same genotype-native incremental pipeline
  // and bit-plane sweep as the multiplier runs — no per-candidate 2^16 sum
  // tables anywhere in the inner loop (tables above remain the scoring
  // reference for the survey adders).
  const circuit::netlist seed = mult::ripple_adder(8);
  core::adder_approximation_config cfg;
  cfg.spec = spec;
  cfg.distribution = d;
  cfg.iterations = bench::scaled(1200);
  cfg.extra_columns = 32;
  cfg.rng_seed = 5;
  const core::adder_wmed_approximator approx(cfg);

  for (const double target : {0.0005, 0.002, 0.01}) {
    const core::evolved_design design = approx.approximate(seed, target);
    add("evolved@" + std::to_string(target), design.netlist);
  }

  std::printf("%-18s %10s %10s\n", "adder", "WMED%", "area_um2");
  for (const row& r : rows) {
    std::printf("%-18s %10.4f %10.1f\n", r.name.c_str(), 100.0 * r.wmed,
                r.area);
  }

  std::vector<core::pareto_point> points;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    points.push_back({rows[i].wmed, rows[i].area, i});
  }
  std::printf("\nPareto-optimal (WMED vs area):\n");
  for (const auto& p : core::pareto_front(points)) {
    std::printf("  %s\n", rows[p.index].name.c_str());
  }
  return 0;
}
