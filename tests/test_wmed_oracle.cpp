// An independent WMED oracle for the evaluation engine.
//
// The oracle is deliberately naive and shares nothing with the engine but
// the netlist data structure: it interprets the candidate gate by gate for
// every one of the 2^(2w) operand pairs with its own gate semantics, decodes
// the result bits and the exact result itself, sums D(a) * |f - f'| in
// extended precision and normalizes the way
// metrics::basic_wmed_evaluator::shared_state::weight documents
// (D(a) / (2^w * output_scale)).  Random mutated genotypes are scored by the
// engine through the path the search uses at every width —
// cgp::cone_program bind/apply + evaluate_program — and must agree within
// 1e-12 relative (the summation order differs), exactly on feasibility for
// targets away from the value, and bit for bit with the fixed-order double
// reduction sum_a weight[a] * S_a of the oracle's exact integer row sums
// S_a.  A mutant whose WMED equals its parent's must also survive the
// search's error screen, whose rounding margin these distributions stress.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "cgp/cone_program.h"
#include "cgp/evolver.h"
#include "cgp/genotype.h"
#include "circuit/netlist.h"
#include "core/wmed_approximator.h"
#include "dist/pmf.h"
#include "metrics/adder_metrics.h"
#include "metrics/mult_spec.h"
#include "metrics/wmed_evaluator.h"
#include "mult/adders.h"
#include "mult/multipliers.h"
#include "support/rng.h"
#include "tech/cell_library.h"

namespace axc {
namespace {

enum class kind { mult_unsigned, mult_signed, adder };

const char* kind_name(kind k) {
  switch (k) {
    case kind::mult_unsigned: return "mult-unsigned";
    case kind::mult_signed: return "mult-signed";
    case kind::adder: return "adder";
  }
  return "?";
}

unsigned result_bits(kind k, unsigned w) {
  return k == kind::adder ? w + 1 : 2 * w;
}

/// The normalization of shared_state::weight: 2^w operand patterns times
/// the output range (2^2w for multipliers, 2^(w+1) for adders).
long double denominator(kind k, unsigned w) {
  const int range_bits = k == kind::adder ? static_cast<int>(w) + 1
                                          : 2 * static_cast<int>(w);
  return std::ldexp(1.0L, static_cast<int>(w) + range_bits);
}

std::int64_t sign_extend(std::uint64_t pattern, unsigned bits) {
  const std::uint64_t top = std::uint64_t{1} << (bits - 1);
  return static_cast<std::int64_t>(pattern ^ top) -
         static_cast<std::int64_t>(top);
}

std::int64_t exact_value(kind k, unsigned w, std::uint64_t a,
                         std::uint64_t b) {
  switch (k) {
    case kind::mult_unsigned:
      return static_cast<std::int64_t>(a * b);
    case kind::mult_signed:
      return sign_extend(a, w) * sign_extend(b, w);
    case kind::adder:
      return static_cast<std::int64_t>(a + b);
  }
  return 0;
}

bool gate(circuit::gate_fn fn, bool a, bool b) {
  using circuit::gate_fn;
  switch (fn) {
    case gate_fn::const0: return false;
    case gate_fn::const1: return true;
    case gate_fn::buf_a: return a;
    case gate_fn::not_a: return !a;
    case gate_fn::buf_b: return b;
    case gate_fn::not_b: return !b;
    case gate_fn::and2: return a && b;
    case gate_fn::nand2: return !(a && b);
    case gate_fn::or2: return a || b;
    case gate_fn::nor2: return !(a || b);
    case gate_fn::xor2: return a != b;
    case gate_fn::xnor2: return a == b;
    case gate_fn::andn_ab: return a && !b;
    case gate_fn::andn_ba: return !a && b;
    case gate_fn::orn_ab: return a || !b;
    case gate_fn::orn_ba: return !a || b;
  }
  return false;
}

/// Per operand A: sum over every operand B of |exact - candidate|, from a
/// gate-by-gate interpretation of `nl` (inputs 0..w-1 carry A, w..2w-1 B).
std::vector<std::int64_t> error_rows(kind k, unsigned w,
                                     const circuit::netlist& nl) {
  const std::uint64_t n = std::uint64_t{1} << w;
  const unsigned bits = result_bits(k, w);
  std::vector<std::uint8_t> signal(nl.num_signals());
  std::vector<std::int64_t> rows(n, 0);
  for (std::uint64_t a = 0; a < n; ++a) {
    for (std::uint64_t b = 0; b < n; ++b) {
      for (unsigned i = 0; i < w; ++i) {
        signal[i] = (a >> i) & 1;
        signal[w + i] = (b >> i) & 1;
      }
      for (std::size_t g = 0; g < nl.num_gates(); ++g) {
        const circuit::gate_node& node = nl.gate(g);
        signal[2 * w + g] =
            gate(node.fn, signal[node.in0] != 0, signal[node.in1] != 0);
      }
      std::uint64_t pattern = 0;
      for (unsigned o = 0; o < bits; ++o) {
        pattern |= std::uint64_t{signal[nl.output(o)]} << o;
      }
      const std::int64_t got = k == kind::mult_signed
                                   ? sign_extend(pattern, bits)
                                   : static_cast<std::int64_t>(pattern);
      const std::int64_t diff = exact_value(k, w, a, b) - got;
      rows[a] += diff < 0 ? -diff : diff;
    }
  }
  return rows;
}

/// The engine's completed-sweep reduction, from the oracle's exact rows:
/// weight[a] = D(a) / (2^w * output_scale) in double, summed in ascending a.
double fixed_order_wmed(kind k, unsigned w,
                        const std::vector<std::int64_t>& rows,
                        const dist::pmf& d) {
  const double denom = static_cast<double>(denominator(k, w));
  double acc = 0.0;
  for (std::size_t a = 0; a < rows.size(); ++a) {
    acc += d[a] / denom * static_cast<double>(rows[a]);
  }
  return acc;
}

double oracle_wmed(kind k, unsigned w, const std::vector<std::int64_t>& rows,
                   const dist::pmf& d) {
  long double sum = 0.0L;
  for (std::size_t a = 0; a < rows.size(); ++a) {
    sum += static_cast<long double>(d[a]) *
           static_cast<long double>(rows[a]);
  }
  return static_cast<double>(sum / denominator(k, w));
}

/// The adversarial distributions over 2^w operand patterns.
std::vector<std::pair<std::string, dist::pmf>> adversarial_pmfs(unsigned w) {
  const std::size_t n = std::size_t{1} << w;
  std::vector<std::pair<std::string, dist::pmf>> pmfs;
  pmfs.emplace_back("half-normal",
                    dist::pmf::half_normal(n, static_cast<double>(n) / 4));

  // Whole quarter-blocks of operand A carry no mass at all.
  std::vector<double> blocks(n);
  for (std::size_t a = 0; a < n; ++a) {
    blocks[a] = (a / (n / 4)) % 2 == 1 ? 0.0 : static_cast<double>(a + 1);
  }
  pmfs.emplace_back("zero-mass-blocks", dist::pmf::from_masses(blocks));

  std::vector<double> point(n, 0.0);
  point[n / 2 + 1] = 1.0;
  pmfs.emplace_back("single-point", dist::pmf::from_masses(point));

  // Subnormal masses beside normal ones.
  std::vector<double> subnormal(n);
  const double tiny = std::numeric_limits<double>::denorm_min();
  for (std::size_t a = 0; a < n; ++a) {
    subnormal[a] = a % 3 == 0 ? tiny * static_cast<double>(a + 1)
                              : 1.0 / static_cast<double>(a + 2);
  }
  pmfs.emplace_back("subnormal", dist::pmf::from_masses(subnormal));

  // Masses with no finite decimal form, passed through the %.17g text round
  // trip sweep specs use.
  std::vector<double> decimal(n);
  for (std::size_t a = 0; a < n; ++a) {
    const double mass = 0.1 * static_cast<double>(a % 7 + 1) /
                        static_cast<double>(a + 3);
    char text[64];
    std::snprintf(text, sizeof text, "%.17g", mass);
    decimal[a] = std::strtod(text, nullptr);
    EXPECT_EQ(decimal[a], mass) << text;
  }
  pmfs.emplace_back("decimal-round-trip", dist::pmf::from_masses(decimal));
  return pmfs;
}

/// `seed` in a 1-row grid with 16 spare columns and the default functions.
cgp::parameters padded_params(const circuit::netlist& seed) {
  cgp::parameters params;
  params.num_inputs = seed.num_inputs();
  params.num_outputs = seed.num_outputs();
  params.columns = seed.num_gates() + 16;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set.assign(circuit::default_function_set().begin(),
                             circuit::default_function_set().end());
  return params;
}

template <typename Spec>
void check_against_oracle(kind k, unsigned w, const Spec& spec,
                          const circuit::netlist& seed, std::uint64_t seed_value) {
  const auto pmfs = adversarial_pmfs(w);
  std::vector<metrics::basic_wmed_evaluator<Spec>> evaluators;
  evaluators.reserve(pmfs.size());
  for (const auto& entry : pmfs) evaluators.emplace_back(spec, entry.second);

  rng gen(seed_value);
  cgp::genotype parent =
      cgp::genotype::from_netlist(padded_params(seed), seed, gen);
  for (int m = 0; m < 4; ++m) parent.mutate(gen);

  cgp::cone_program cone;
  cone.bind(parent);

  // Candidate 0 is the parent itself; the rest are its mutants.
  for (int c = 0; c < 4; ++c) {
    cgp::genotype child = parent;
    std::vector<std::uint32_t> dirty;
    if (c > 0) child.mutate(gen, dirty);
    const bool applied =
        c > 0 &&
        cone.apply(parent, child, dirty) != cgp::cone_program::delta::identical;
    const std::vector<std::int64_t> rows = error_rows(k, w, child.decode());

    for (std::size_t p = 0; p < pmfs.size(); ++p) {
      const std::string where = std::string(kind_name(k)) + " w=" +
                                std::to_string(w) + " candidate " +
                                std::to_string(c) + " " + pmfs[p].first;
      auto& evaluator = evaluators[p];
      const auto engine = [&](double abort_above) {
        return evaluator.evaluate_program(cone.program(), abort_above);
      };
      const double expected = oracle_wmed(k, w, rows, pmfs[p].second);
      const double got = engine(std::numeric_limits<double>::infinity());
      EXPECT_LE(std::abs(got - expected), 1e-12 * expected)
          << where << ": engine " << got << " oracle " << expected;
      EXPECT_EQ(got, fixed_order_wmed(k, w, rows, pmfs[p].second)) << where;

      if (expected > 0.0) {
        const double above = expected * (1.0 + 1e-6);
        const double below = expected * (1.0 - 1e-6);
        EXPECT_LE(engine(above), above) << where << " feasible above";
        EXPECT_GT(engine(below), below) << where << " infeasible below";
      } else {
        EXPECT_LE(engine(0.0), 0.0) << where << " exact at target 0";
      }
    }
    if (applied) cone.release_child(parent);
  }
}

TEST(wmed_oracle, unsigned_multipliers_match_naive_wmed) {
  for (unsigned w = 3; w <= 8; ++w) {
    check_against_oracle(kind::mult_unsigned, w, metrics::mult_spec{w, false},
                         mult::unsigned_multiplier(w), 100 + w);
  }
}

TEST(wmed_oracle, signed_multipliers_match_naive_wmed) {
  for (unsigned w = 3; w <= 8; ++w) {
    check_against_oracle(kind::mult_signed, w, metrics::mult_spec{w, true},
                         mult::signed_multiplier(w), 200 + w);
  }
}

TEST(wmed_oracle, adders_match_naive_wmed) {
  for (unsigned w = 3; w <= 8; ++w) {
    check_against_oracle(kind::adder, w, metrics::adder_spec{w},
                         mult::ripple_adder(w), 300 + w);
  }
}

/// The child of `parent` that commutes the inputs of its first active AND
/// gate with two distinct inputs: the same function and cone through a
/// patched schedule.  `dirty` receives the two swapped genes.
cgp::genotype commute_active_and(const cgp::genotype& parent,
                                 std::vector<std::uint32_t>& dirty) {
  std::vector<std::uint8_t> active;
  parent.mark_cone(active);
  const cgp::parameters& p = parent.params();
  for (std::size_t k = 0; k < parent.nodes().size(); ++k) {
    const cgp::genotype::node_genes& n = parent.nodes()[k];
    if (!active[k] || p.function_set[n.fn] != circuit::gate_fn::and2 ||
        n.in0 == n.in1) {
      continue;
    }
    circuit::netlist swapped(p.num_inputs, p.num_outputs);
    for (std::size_t j = 0; j < parent.nodes().size(); ++j) {
      const cgp::genotype::node_genes& m = parent.nodes()[j];
      swapped.add_gate(p.function_set[m.fn], j == k ? m.in1 : m.in0,
                       j == k ? m.in0 : m.in1);
    }
    for (std::size_t o = 0; o < p.num_outputs; ++o) {
      swapped.set_output(o, parent.output_genes()[o]);
    }
    rng unused(0);
    const cgp::genotype donor = cgp::genotype::from_netlist(p, swapped, unused);
    dirty = {static_cast<std::uint32_t>(3 * k),
             static_cast<std::uint32_t>(3 * k + 1)};
    cgp::genotype child = parent;
    child.copy_genes_from(donor, dirty);
    return child;
  }
  ADD_FAILURE() << "no active AND gate with distinct inputs";
  return parent;
}

/// Returns how many cases would have been screened out without the margin.
template <typename Spec>
std::size_t check_equal_error_child(kind k, unsigned w, const Spec& spec,
                                    const circuit::netlist& seed,
                                    std::uint64_t seed_value) {
  rng gen(seed_value);
  cgp::genotype parent =
      cgp::genotype::from_netlist(padded_params(seed), seed, gen);
  for (int m = 0; m < 6; ++m) parent.mutate(gen);

  std::vector<std::uint32_t> dirty;
  const cgp::genotype child = commute_active_and(parent, dirty);
  EXPECT_EQ(child.decode_cone().num_gates(), parent.decode_cone().num_gates());
  {
    cgp::cone_program cone;
    cone.bind(parent);
    EXPECT_EQ(cone.apply(parent, child, dirty),
              cgp::cone_program::delta::patched);
    cone.release_child(parent);
  }
  const std::vector<std::int64_t> rows = error_rows(k, w, child.decode());

  cgp::evolver::options opts;
  opts.error_tiebreak = true;
  std::size_t unmargined_screens = 0;
  for (const auto& [name, pmf] : adversarial_pmfs(w)) {
    const std::string where = std::string(kind_name(k)) + " w=" +
                              std::to_string(w) + " " + name;
    // An unbounded target keeps every candidate feasible (some of the
    // masses are not normalized), so only the error screen can reject the
    // child.
    const auto shared =
        metrics::basic_wmed_evaluator<Spec>::make_shared_state(spec, pmf);
    const auto evaluator = core::make_incremental_wmed_evaluator<Spec>(
        shared, tech::cell_library::nangate45_like(),
        std::numeric_limits<double>::infinity());
    const cgp::evaluation parent_eval = evaluator->evaluate_and_bind(parent);
    EXPECT_TRUE(parent_eval.feasible) << where;
    const cgp::evaluation got = evaluator->evaluate_child(
        parent, child, dirty, cgp::evolver::bound_for(parent_eval, opts));
    EXPECT_EQ(got.error, parent_eval.error) << where;
    EXPECT_EQ(got.area, parent_eval.area) << where;
    EXPECT_TRUE(got.feasible) << where;
    EXPECT_TRUE(cgp::not_worse(got, parent_eval)) << where;
    const double expected = oracle_wmed(k, w, rows, pmf);
    EXPECT_LE(std::abs(got.error - expected), 1e-12 * expected) << where;

    // Would the parent's error itself, as the abort bound, have screened
    // out this equal-error child?
    metrics::basic_wmed_evaluator<Spec> sweep(shared);
    cgp::cone_program cone;
    cone.bind(child);
    if (sweep.evaluate_program(cone.program(), parent_eval.error) >
        parent_eval.error) {
      ++unmargined_screens;
    }
  }
  return unmargined_screens;
}

TEST(wmed_oracle, equal_error_mutants_survive_the_screen_margin) {
  // Under error_tiebreak a mutant of the parent's area is swept only up to
  // the parent's error plus a rounding margin (core/wmed_approximator.cpp).
  // A mutant with exactly the parent's error must come back exact — and so
  // acceptable — under every adversarial distribution.
  std::size_t unmargined_screens = 0;
  for (const unsigned w : {4u, 6u, 8u}) {
    unmargined_screens += check_equal_error_child(
        kind::mult_unsigned, w, metrics::mult_spec{w, false},
        mult::unsigned_multiplier(w), 400 + w);
    unmargined_screens += check_equal_error_child(
        kind::mult_signed, w, metrics::mult_spec{w, true},
        mult::signed_multiplier(w), 500 + w);
    unmargined_screens += check_equal_error_child(
        kind::adder, w, metrics::adder_spec{w}, mult::ripple_adder(w),
        600 + w);
  }
  // The running sum does overshoot the completed value somewhere, so
  // without the margin this test would catch the wrongly screened child.
  EXPECT_GT(unmargined_screens, 0u);
}

}  // namespace
}  // namespace axc
