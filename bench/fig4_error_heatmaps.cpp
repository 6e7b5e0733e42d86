// Fig. 4 — per-input-pair error heat maps of multipliers evolved for D1,
// D2 and Du at a common WMED budget.  The paper's observation: the error
// mass moves away from the operand values the distribution makes likely
// (low error near x=127 for D1, low error for x<127 for D2, spread-out
// error for Du).
#include <cstdio>

#include "bench_util.h"
#include "core/wmed_approximator.h"
#include "metrics/compiled_table.h"
#include "metrics/error_metrics.h"
#include "mult/multipliers.h"

namespace {

using namespace axc;
using metrics::mult_spec;

void print_heatmap(const char* name, const std::vector<double>& grid,
                   std::size_t cells) {
  std::printf("\n%s (rows = operand j high..low, cols = operand i low..high,"
              " cell = mean |error| %% of output range)\n",
              name);
  double max_cell = 0.0;
  for (const double g : grid) max_cell = std::max(max_cell, g);
  for (std::size_t row = cells; row-- > 0;) {
    std::printf("  j~%3zu |", row * (256 / cells));
    for (std::size_t col = 0; col < cells; ++col) {
      std::printf(" %6.3f", 100.0 * grid[row * cells + col]);
    }
    std::printf("   ");
    for (std::size_t col = 0; col < cells; ++col) {
      const double v = max_cell > 0 ? grid[row * cells + col] / max_cell : 0;
      std::printf("%c", " .:-=+*#%@"[static_cast<int>(v * 9.999)]);
    }
    std::printf("\n");
  }
  std::printf("          i:   0     32     64     96    128    160    192    224\n");
}

}  // namespace

int main() {
  bench::banner("Fig. 4", "error heat maps of comparable evolved multipliers");

  const mult_spec spec{8, false};
  const dist::pmf dists[3] = {dist::pmf::normal(256, 127.0, 32.0),
                              dist::pmf::half_normal(256, 64.0),
                              dist::pmf::uniform(256)};
  const char* names[3] = {"Multiplier D1", "Multiplier D2", "Multiplier Du"};

  const circuit::netlist seed = mult::unsigned_multiplier(8);
  const auto exact_table = metrics::exact_product_table(spec);
  const double target = 0.002;  // 0.2% WMED under the design distribution

  for (int di = 0; di < 3; ++di) {
    core::approximation_config cfg;
    cfg.spec = spec;
    cfg.distribution = dists[di];
    cfg.iterations = bench::scaled(2500);
    cfg.extra_columns = 64;
    cfg.rng_seed = 400 + static_cast<std::uint64_t>(di);
    const core::wmed_approximator approximator(cfg);
    const auto design = approximator.approximate(seed, target);

    const auto table = metrics::result_table(design.netlist, spec);
    const auto map = metrics::error_map(exact_table, table, spec);
    const auto grid = metrics::downsample_error_map(map, spec, 8);
    print_heatmap(names[di], grid, 8);

    // Column profile over operand A (the weighted operand).
    double low = 0, mid = 0, high = 0;
    for (std::size_t b = 0; b < 256; ++b) {
      for (std::size_t a = 0; a < 86; ++a) low += map[(b << 8) | a];
      for (std::size_t a = 86; a < 170; ++a) mid += map[(b << 8) | a];
      for (std::size_t a = 170; a < 256; ++a) high += map[(b << 8) | a];
    }
    std::printf("  mean |err| by operand-i zone: low %.4f%%  mid %.4f%%  "
                "high %.4f%%  (WMED_design=%.4f%%, area=%.0f um2)\n",
                100.0 * low / (86 * 256.0), 100.0 * mid / (84 * 256.0),
                100.0 * high / (86 * 256.0), 100.0 * design.wmed,
                design.area_um2);
  }

  std::printf("\nPaper reference (shape): D1 -> low error around i=127;"
              " D2 -> low error for i<127; Du -> error spread uniformly.\n");
  return 0;
}
