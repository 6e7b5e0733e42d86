// Switching-activity profiling.
//
// Dynamic power of a CMOS gate is proportional to how often its output
// toggles.  We estimate per-gate toggle rates by simulating a stream of
// input vectors (drawn from the application's operand distribution) and
// counting output transitions bit-parallel: with 64 consecutive time steps
// packed into one word, the toggle count of a signal is
// popcount(w ^ (w >> 1)) plus the boundary transition to the previous word.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "circuit/netlist.h"

namespace axc::circuit {

struct activity_profile {
  /// toggles[k] / cycles = expected output transitions of gate k per cycle.
  std::vector<double> gate_toggle_rate;
  /// Same for primary inputs (useful for input-pin capacitance models).
  std::vector<double> input_toggle_rate;
  /// Fraction of cycles in which gate k's output is 1 (static probability).
  std::vector<double> gate_one_probability;
  std::size_t cycles{0};
};

/// Profiles toggle rates over a stream of input vectors.
/// `input_values[t]` packs the full input assignment at time t
/// (input i at bit i).
activity_profile profile_activity(const netlist& nl,
                                  std::span<const std::uint64_t> input_values);

}  // namespace axc::circuit
