// WMED for approximate adders — the method applied to a second component
// class (unsigned w+w -> w+1 adders), demonstrating that the metric is not
// multiplier-specific.  Layout mirrors mult_spec: entry[(b << w) | a].
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dist/pmf.h"

namespace axc::metrics {

struct adder_spec {
  unsigned width{8};

  [[nodiscard]] std::size_t operand_count() const {
    return std::size_t{1} << width;
  }
  [[nodiscard]] std::size_t pair_count() const {
    return std::size_t{1} << (2 * width);
  }
  /// WMED normalization: the output range 2^(w+1).
  [[nodiscard]] double output_scale() const {
    return static_cast<double>(std::uint64_t{1} << (width + 1));
  }

  // component_spec interface (metrics/component_spec.h): an adder drives
  // w+1 unsigned sum bits.
  [[nodiscard]] unsigned result_bits() const { return width + 1; }
  [[nodiscard]] bool result_is_signed() const { return false; }
  [[nodiscard]] std::int64_t result_value(std::uint64_t pattern) const {
    const auto mask = (std::uint64_t{1} << (width + 1)) - 1;
    return static_cast<std::int64_t>(pattern & mask);
  }

  friend bool operator==(const adder_spec&, const adder_spec&) = default;
};

/// entry[(b << w) | a] = a + b.
std::vector<std::int64_t> exact_sum_table(const adder_spec& spec);

/// component_spec exact table hook.
inline std::vector<std::int64_t> exact_result_table(const adder_spec& spec) {
  return exact_sum_table(spec);
}

/// WMED over adders: D-weighted (operand A) mean (operand B) absolute sum
/// error, normalized by the output range.  In [0, 1].
double adder_wmed(std::span<const std::int64_t> exact,
                  std::span<const std::int64_t> approx,
                  const adder_spec& spec, const dist::pmf& d);

}  // namespace axc::metrics
