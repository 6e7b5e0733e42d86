#include "metrics/adder_metrics.h"

#include <cstdlib>

#include "support/assert.h"

namespace axc::metrics {

std::vector<std::int64_t> exact_sum_table(const adder_spec& spec) {
  const std::size_t n = spec.operand_count();
  std::vector<std::int64_t> table(spec.pair_count());
  for (std::size_t b = 0; b < n; ++b) {
    for (std::size_t a = 0; a < n; ++a) {
      table[(b << spec.width) | a] = static_cast<std::int64_t>(a + b);
    }
  }
  return table;
}

double adder_wmed(std::span<const std::int64_t> exact,
                  std::span<const std::int64_t> approx,
                  const adder_spec& spec, const dist::pmf& d) {
  AXC_EXPECTS(exact.size() == spec.pair_count());
  AXC_EXPECTS(approx.size() == spec.pair_count());
  AXC_EXPECTS(d.size() == spec.operand_count());

  const std::size_t n = spec.operand_count();
  double acc = 0.0;
  for (std::size_t a = 0; a < n; ++a) {
    if (d[a] == 0.0) continue;
    double row = 0.0;
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t v = (b << spec.width) | a;
      row += static_cast<double>(std::llabs(exact[v] - approx[v]));
    }
    acc += d[a] * row;
  }
  return acc / (static_cast<double>(n) * spec.output_scale());
}

}  // namespace axc::metrics
