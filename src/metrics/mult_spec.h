// Interface contract of a combinational multiplier under evaluation.
//
// Inputs 0..w-1 of the netlist carry operand A (the operand whose data
// distribution drives WMED, e.g. the filter coefficient / NN weight);
// inputs w..2w-1 carry operand B.  Outputs 0..2w-1 carry the product,
// LSB first.  For signed multipliers operands and product are two's
// complement.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace axc::metrics {

struct mult_spec {
  unsigned width{8};
  bool is_signed{false};

  [[nodiscard]] std::size_t operand_count() const {
    return std::size_t{1} << width;
  }
  [[nodiscard]] std::size_t pair_count() const {
    return std::size_t{1} << (2 * width);
  }
  /// Two's-complement (or plain) value of a w-bit operand pattern.
  [[nodiscard]] std::int64_t operand_value(std::uint64_t pattern) const {
    const auto mask = (std::uint64_t{1} << width) - 1;
    pattern &= mask;
    if (is_signed && (pattern >> (width - 1)) != 0) {
      return static_cast<std::int64_t>(pattern) -
             static_cast<std::int64_t>(std::uint64_t{1} << width);
    }
    return static_cast<std::int64_t>(pattern);
  }
  /// Value of a 2w-bit product pattern.
  [[nodiscard]] std::int64_t product_value(std::uint64_t pattern) const {
    const unsigned bits = 2 * width;
    const auto mask =
        bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
    pattern &= mask;
    if (is_signed && (pattern >> (bits - 1)) != 0) {
      return static_cast<std::int64_t>(pattern) -
             static_cast<std::int64_t>(std::uint64_t{1} << bits);
    }
    return static_cast<std::int64_t>(pattern);
  }
  /// Normalization constant of the paper's WMED: the full output range 2^2w.
  [[nodiscard]] double output_scale() const {
    return static_cast<double>(std::uint64_t{1} << (2 * width));
  }

  // component_spec interface (metrics/component_spec.h): a multiplier
  // drives 2w product bits, signed iff the operands are.
  [[nodiscard]] unsigned result_bits() const { return 2 * width; }
  [[nodiscard]] bool result_is_signed() const { return is_signed; }
  [[nodiscard]] std::int64_t result_value(std::uint64_t pattern) const {
    return product_value(pattern);
  }

  friend bool operator==(const mult_spec&, const mult_spec&) = default;
};

/// Exact products for every operand-pattern pair: entry[(b << w) | a] =
/// value(a) * value(b).  Fits int32 for w <= 15.
std::vector<std::int64_t> exact_product_table(const mult_spec& spec);

/// component_spec exact table hook.
inline std::vector<std::int64_t> exact_result_table(const mult_spec& spec) {
  return exact_product_table(spec);
}

}  // namespace axc::metrics
