#include "metrics/mult_spec.h"

namespace axc::metrics {

std::vector<std::int64_t> exact_product_table(const mult_spec& spec) {
  const std::size_t n = spec.operand_count();
  std::vector<std::int64_t> table(spec.pair_count());
  for (std::size_t b = 0; b < n; ++b) {
    const std::int64_t vb = spec.operand_value(b);
    for (std::size_t a = 0; a < n; ++a) {
      table[(b << spec.width) | a] = spec.operand_value(a) * vb;
    }
  }
  return table;
}

}  // namespace axc::metrics
