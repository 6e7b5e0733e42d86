// Compiled behavioural tables: the bridge from gate-level components to
// application-level simulation (image filters, quantized NN inference).
//
// A w-bit two-operand component is fully characterized by its 2^(2w)-entry
// result table; applications then "execute" the approximate circuit at
// lookup speed, exactly as the paper evaluates approximate NNs.  The table
// is generic over metrics::component_spec — multipliers (product tables)
// and adders (sum tables) compile through one implementation, and future
// component classes join for free.
//
// Characterization runs through circuit::sim_program (cone-restricted
// table schedule, 512 assignments per pass) — the one netlist -> table
// builder in src/.  Its parity oracle is the scalar simulate_block builder
// test::scalar_result_table (tests/test_util.h).
#pragma once

#include <concepts>
#include <cstdint>
#include <vector>

#include "circuit/netlist.h"
#include "metrics/adder_metrics.h"
#include "metrics/component_spec.h"
#include "metrics/mult_spec.h"

namespace axc::metrics {

/// Decoded results of a candidate netlist for every operand-pattern pair:
/// entry[(b << w) | a] (the functional signature: the product table of a
/// multiplier, the sum table of an adder).  The netlist is compiled once
/// (sim_program, cone-restricted) and filled eight blocks per pass.
template <component_spec Spec>
std::vector<std::int64_t> result_table(const circuit::netlist& nl,
                                       const Spec& spec);

extern template std::vector<std::int64_t> result_table<mult_spec>(
    const circuit::netlist&, const mult_spec&);
extern template std::vector<std::int64_t> result_table<adder_spec>(
    const circuit::netlist&, const adder_spec&);

template <component_spec Spec>
class basic_compiled_table {
 public:
  /// Characterizes a component netlist exhaustively (batch fast path).
  basic_compiled_table(const circuit::netlist& nl, const Spec& spec);

  /// Behavioural table of the exact component (reference paths).
  static basic_compiled_table exact(const Spec& spec);

  /// Result by operand *bit patterns* (masked to width).
  [[nodiscard]] std::int32_t by_pattern(std::uint32_t a,
                                        std::uint32_t b) const {
    const std::uint32_t mask = (1u << spec_.width) - 1u;
    return table_[((b & mask) << spec_.width) | (a & mask)];
  }

  /// Result by operand *values*; signed specs accept negative operands.
  /// Operand A is the distribution-carrying operand (coefficient/weight).
  [[nodiscard]] std::int32_t apply(std::int32_t a, std::int32_t b) const {
    return by_pattern(static_cast<std::uint32_t>(a),
                      static_cast<std::uint32_t>(b));
  }

  /// Legacy product_lut name of apply(), for the multiplier workloads.
  [[nodiscard]] std::int32_t multiply(std::int32_t a, std::int32_t b) const
    requires std::same_as<Spec, mult_spec>
  {
    return apply(a, b);
  }

  [[nodiscard]] const Spec& spec() const { return spec_; }
  [[nodiscard]] const std::vector<std::int32_t>& table() const {
    return table_;
  }

 private:
  basic_compiled_table(Spec spec, std::vector<std::int32_t> table)
      : spec_(spec), table_(std::move(table)) {}

  Spec spec_;
  std::vector<std::int32_t> table_;
};

extern template class basic_compiled_table<mult_spec>;
extern template class basic_compiled_table<adder_spec>;

using compiled_mult_table = basic_compiled_table<mult_spec>;
using compiled_adder_table = basic_compiled_table<adder_spec>;

}  // namespace axc::metrics
