#include "metrics/compiled_table.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "circuit/simulator.h"
#include "support/assert.h"

namespace axc::metrics {

namespace {

template <component_spec Spec>
void check_shape(const circuit::netlist& nl, const Spec& spec) {
  AXC_EXPECTS(nl.num_inputs() == 2 * spec.width);
  AXC_EXPECTS(nl.num_outputs() == spec.result_bits());
}

std::vector<std::int32_t> narrow_table(std::vector<std::int64_t> wide) {
  std::vector<std::int32_t> table(wide.size());
  for (std::size_t v = 0; v < wide.size(); ++v) {
    table[v] = static_cast<std::int32_t>(wide[v]);
  }
  return table;
}

// The int32 in-memory table caps the width (2^(2w) entries, int32 results);
// checked before the characterization runs, so an oversized spec aborts
// loudly instead of attempting a gigabyte-scale fill.  The int64
// result_table() builder is only bounded by the simulator's input limit.
template <component_spec Spec>
std::vector<std::int32_t> build_narrow(const circuit::netlist& nl,
                                       const Spec& spec) {
  AXC_EXPECTS(spec.width <= 12);
  return narrow_table(result_table(nl, spec));
}

}  // namespace

template <component_spec Spec>
std::vector<std::int64_t> result_table(const circuit::netlist& nl,
                                       const Spec& spec) {
  check_shape(nl, spec);
  constexpr std::size_t W = circuit::sim_program::lanes;
  circuit::sim_program program(nl);

  const std::size_t ni = nl.num_inputs();
  const unsigned result_bits = spec.result_bits();
  const std::size_t total = spec.pair_count();
  const std::size_t blocks = (total + 63) / 64;
  std::vector<std::int64_t> table(total);
  std::vector<std::uint64_t> in(ni * W);
  std::vector<std::uint64_t> out(result_bits * W);

  for (std::size_t base = 0; base < blocks; base += W) {
    const std::size_t lanes = std::min(W, blocks - base);
    for (std::size_t i = 0; i < ni; ++i) {
      for (std::size_t l = 0; l < W; ++l) {
        // Idle lanes of a partial chunk re-simulate the first block; their
        // outputs are never read.
        in[i * W + l] =
            circuit::exhaustive_input_word(i, base + (l < lanes ? l : 0));
      }
    }
    program.run(in, out);

    for (std::size_t l = 0; l < lanes; ++l) {
      // Transpose lane l: bit t of out[o*W+l] is output bit o of
      // assignment (base+l)*64 + t.
      std::uint64_t patterns[64];
      std::memset(patterns, 0, sizeof(patterns));
      for (unsigned o = 0; o < result_bits; ++o) {
        std::uint64_t w = out[o * W + l];
        while (w != 0) {
          const int t = std::countr_zero(w);
          w &= w - 1;
          patterns[t] |= std::uint64_t{1} << o;
        }
      }
      const std::size_t first = (base + l) * 64;
      const std::size_t limit = std::min<std::size_t>(64, total - first);
      for (std::size_t t = 0; t < limit; ++t) {
        table[first + t] = spec.result_value(patterns[t]);
      }
    }
  }
  return table;
}

template <component_spec Spec>
basic_compiled_table<Spec>::basic_compiled_table(const circuit::netlist& nl,
                                                 const Spec& spec)
    : spec_(spec), table_(build_narrow(nl, spec)) {}

template <component_spec Spec>
basic_compiled_table<Spec> basic_compiled_table<Spec>::exact(
    const Spec& spec) {
  AXC_EXPECTS(spec.width <= 12);
  return basic_compiled_table(spec, narrow_table(exact_result_table(spec)));
}

template std::vector<std::int64_t> result_table<mult_spec>(
    const circuit::netlist&, const mult_spec&);
template std::vector<std::int64_t> result_table<adder_spec>(
    const circuit::netlist&, const adder_spec&);

template class basic_compiled_table<mult_spec>;
template class basic_compiled_table<adder_spec>;

}  // namespace axc::metrics
