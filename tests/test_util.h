// Shared test helpers: naive reference implementations the optimized
// library code is checked against, plus random-structure generators.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "cgp/evolver.h"
#include "cgp/genotype.h"
#include "circuit/gate.h"
#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "metrics/component_spec.h"
#include "support/assert.h"
#include "support/rng.h"

namespace axc::test {

/// Reference single-assignment evaluator (no bit-parallel tricks): input
/// assignment packed as bit i = input i; returns packed outputs.
inline std::uint64_t naive_eval(const circuit::netlist& nl,
                                std::uint64_t assignment) {
  std::vector<std::uint64_t> value(nl.num_signals(), 0);
  for (std::size_t i = 0; i < nl.num_inputs(); ++i) {
    value[i] = (assignment >> i) & 1 ? ~std::uint64_t{0} : 0;
  }
  for (std::size_t k = 0; k < nl.num_gates(); ++k) {
    const circuit::gate_node& g = nl.gate(k);
    value[nl.num_inputs() + k] =
        circuit::eval_gate(g.fn, value[g.in0], value[g.in1]);
  }
  std::uint64_t out = 0;
  for (std::size_t o = 0; o < nl.num_outputs(); ++o) {
    out |= (value[nl.output(o)] & 1) << o;
  }
  return out;
}

/// Transposes one simulate_block result: bit t of out_words[o] becomes
/// bit o of packed[t], for the first `limit` assignments.
inline void scatter_block(std::span<const std::uint64_t> out_words,
                          std::size_t limit, std::uint64_t* packed) {
  for (std::size_t o = 0; o < out_words.size(); ++o) {
    for (std::uint64_t w = out_words[o]; w != 0; w &= w - 1) {
      const auto t = static_cast<std::size_t>(std::countr_zero(w));
      if (t < limit) packed[t] |= std::uint64_t{1} << o;
    }
  }
}

/// The scalar exhaustive evaluator, the oracle circuit::sim_program and
/// metrics::result_table are checked against: simulate_block over every
/// gate, one 64-assignment block at a time in natural order.  result[v]
/// packs the outputs of input assignment v (output o at bit o).  Up to 26
/// inputs and 64 outputs.
inline std::vector<std::uint64_t> evaluate_exhaustive(
    const circuit::netlist& nl) {
  const std::size_t ni = nl.num_inputs();
  AXC_EXPECTS(ni >= 1 && ni <= 26);
  AXC_EXPECTS(nl.num_outputs() >= 1 && nl.num_outputs() <= 64);
  const std::size_t total = std::size_t{1} << ni;
  std::vector<std::uint64_t> result(total, 0);
  std::vector<std::uint64_t> in(ni), out(nl.num_outputs()),
      scratch(nl.num_signals());
  for (std::size_t block = 0; block * 64 < total; ++block) {
    for (std::size_t i = 0; i < ni; ++i) {
      in[i] = circuit::exhaustive_input_word(i, block);
    }
    circuit::simulate_block(nl, in, out, scratch);
    scatter_block(out, std::min<std::size_t>(64, total - block * 64),
                  &result[block * 64]);
  }
  return result;
}

/// simulate_block over arbitrary assignments: input_values[k] packs
/// assignment k (input i at bit i); outputs are packed the same way.
inline std::vector<std::uint64_t> simulate_words(
    const circuit::netlist& nl, std::span<const std::uint64_t> input_values) {
  const std::size_t ni = nl.num_inputs();
  AXC_EXPECTS(ni <= 64 && nl.num_outputs() <= 64);
  std::vector<std::uint64_t> result(input_values.size(), 0);
  std::vector<std::uint64_t> in(ni), out(nl.num_outputs()),
      scratch(nl.num_signals());
  for (std::size_t base = 0; base < input_values.size(); base += 64) {
    const std::size_t limit =
        std::min<std::size_t>(64, input_values.size() - base);
    for (std::size_t i = 0; i < ni; ++i) {
      std::uint64_t plane = 0;
      for (std::size_t t = 0; t < limit; ++t) {
        plane |= ((input_values[base + t] >> i) & 1) << t;
      }
      in[i] = plane;
    }
    circuit::simulate_block(nl, in, out, scratch);
    scatter_block(out, limit, &result[base]);
  }
  return result;
}

/// metrics::result_table through the scalar oracle: entry[(b << w) | a]
/// is the decoded result for operand patterns a, b.
template <metrics::component_spec Spec>
std::vector<std::int64_t> scalar_result_table(const circuit::netlist& nl,
                                              const Spec& spec) {
  const std::vector<std::uint64_t> raw = evaluate_exhaustive(nl);
  std::vector<std::int64_t> table(raw.size());
  for (std::size_t v = 0; v < raw.size(); ++v) {
    table[v] = spec.result_value(raw[v]);
  }
  return table;
}

/// Structurally valid random netlist (for property tests).
inline circuit::netlist random_netlist(std::size_t inputs, std::size_t outputs,
                                       std::size_t gates, rng& gen) {
  circuit::netlist nl(inputs, outputs);
  const auto fns = circuit::full_function_set();
  for (std::size_t k = 0; k < gates; ++k) {
    const auto limit = static_cast<std::uint32_t>(inputs + k);
    nl.add_gate(fns[gen.below(fns.size())],
                static_cast<std::uint32_t>(gen.below(limit)),
                static_cast<std::uint32_t>(gen.below(limit)));
  }
  for (std::size_t o = 0; o < outputs; ++o) {
    nl.set_output(o, static_cast<std::uint32_t>(gen.below(inputs + gates)));
  }
  return nl;
}

/// Signed/unsigned interpretation helpers mirroring metrics::mult_spec.
inline std::int64_t as_value(std::uint64_t pattern, unsigned bits,
                             bool is_signed) {
  const std::uint64_t mask =
      bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  pattern &= mask;
  if (is_signed && bits < 64 && (pattern >> (bits - 1)) != 0) {
    return static_cast<std::int64_t>(pattern) -
           static_cast<std::int64_t>(std::uint64_t{1} << bits);
  }
  return static_cast<std::int64_t>(pattern);
}

/// The natural-order WMED sweep, the parity oracle of
/// metrics::basic_wmed_evaluator: simulate_block over the 2^(2w) operand
/// pairs in natural order (operand A in the low inputs), gather every
/// pair's result and add weight[a] * |exact - result| one pair at a time.
/// `weight` is the evaluator's shared_state::weight.  Once the running sum
/// exceeds `abort_above` (checked per 64-pair block) the partial sum is
/// returned.
template <metrics::component_spec Spec>
double natural_order_wmed(
    const Spec& spec, std::span<const double> weight,
    const circuit::netlist& nl,
    double abort_above = std::numeric_limits<double>::infinity()) {
  const std::vector<std::int64_t> exact = exact_result_table(spec);
  const std::size_t ni = nl.num_inputs();
  const std::size_t no = nl.num_outputs();
  const std::uint64_t a_mask = (std::uint64_t{1} << spec.width) - 1;
  std::vector<std::uint64_t> scratch(nl.num_signals());
  std::vector<std::uint64_t> in(ni);
  std::vector<std::uint64_t> out(no);

  double acc = 0.0;
  for (std::size_t block = 0; block < spec.pair_count() / 64; ++block) {
    for (std::size_t i = 0; i < ni; ++i) {
      in[i] = circuit::exhaustive_input_word(i, block);
    }
    circuit::simulate_block(nl, in, out, scratch);
    std::uint64_t raw[64] = {};
    scatter_block(out, 64, raw);
    for (std::size_t t = 0; t < 64; ++t) {
      const std::size_t v = block * 64 + t;
      const std::int64_t err = exact[v] - spec.result_value(raw[t]);
      acc += weight[v & a_mask] * static_cast<double>(err < 0 ? -err : err);
    }
    if (acc > abort_above) return acc;
  }
  return acc;
}

/// Scores one decoded candidate (Eq. 1).
using score_fn = std::function<cgp::evaluation(const circuit::netlist&)>;

/// The smallest conforming cgp::incremental_evaluator: every candidate's
/// decode_cone() is scored from scratch and nothing is ever screened, so
/// cgp::evolver::run_incremental can search netlist toy objectives.
class decoding_evaluator final : public cgp::incremental_evaluator {
 public:
  explicit decoding_evaluator(score_fn score) : score_(std::move(score)) {}

  cgp::evaluation evaluate_and_bind(const cgp::genotype& parent) override {
    return score_(parent.decode_cone());
  }
  void rebind(const cgp::genotype&, const cgp::evaluation&) override {}
  cgp::evaluation evaluate_child(const cgp::genotype&,
                                 const cgp::genotype& child,
                                 std::span<const std::uint32_t>,
                                 const cgp::child_bound&) override {
    return score_(child.decode_cone());
  }

 private:
  score_fn score_;
};

/// run_incremental over a netlist objective.
inline cgp::evolver::run_result evolve(const cgp::genotype& seed,
                                       const score_fn& score,
                                       const cgp::evolver::options& opts,
                                       rng& gen) {
  decoding_evaluator evaluator(score);
  return cgp::evolver::run_incremental(seed, evaluator, opts, gen);
}

/// The (1 + lambda) loop written out plainly — copy the parent, mutate,
/// score each child's decode_cone() from scratch, keep the earliest
/// strictly best, accept it when Eq. 1 (and the tie-break) allows — the
/// oracle cgp::evolver::run_incremental must reproduce bit for bit.  No
/// hooks: an oracle run always spends its whole budget.
inline cgp::evolver::run_result plain_evolve(
    const cgp::genotype& seed, const score_fn& score,
    const cgp::evolver::options& opts, rng& gen) {
  using cgp::evaluation;
  // Eq. 1: feasible first, then area (feasible) or error (infeasible);
  // error_tiebreak then orders equal keys by error.
  const auto strictly_better = [&opts](const evaluation& a,
                                       const evaluation& b) {
    if (a.feasible != b.feasible) return a.feasible;
    const double ka = a.feasible ? a.area : a.error;
    const double kb = b.feasible ? b.area : b.error;
    if (ka != kb) return ka < kb;
    return opts.error_tiebreak && a.error < b.error;
  };
  cgp::evolver::run_result result{seed, score(seed.decode_cone())};
  result.evaluations = 1;
  const std::size_t lambda = seed.params().lambda;
  for (std::size_t iter = 0; iter < opts.iterations; ++iter) {
    std::vector<cgp::genotype> children(lambda, result.best);
    std::vector<evaluation> evals;
    for (cgp::genotype& child : children) {
      child.mutate(gen);
      evals.push_back(score(child.decode_cone()));
    }
    result.evaluations += lambda;
    std::size_t best = 0;
    for (std::size_t k = 1; k < lambda; ++k) {
      if (strictly_better(evals[k], evals[best])) best = k;
    }
    const bool accept = opts.neutral_drift
                            ? !strictly_better(result.best_eval, evals[best])
                            : strictly_better(evals[best], result.best_eval);
    if (accept) {
      const bool improved = cgp::better(evals[best], result.best_eval);
      ++(improved ? result.improvements : result.neutral_moves);
      result.best = std::move(children[best]);
      result.best_eval = evals[best];
    }
    ++result.iterations;
  }
  return result;
}

}  // namespace axc::test
