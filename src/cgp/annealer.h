// Simulated-annealing search over CGP genotypes.
//
// A baseline for the paper's (1 + lambda) evolution strategy: identical
// representation, identical mutation operator, identical Eq.-1 objective —
// only the acceptance rule differs (Metropolis with a geometric cooling
// schedule instead of elitist selection).  Automated approximation tools
// in the literature (ABACUS [4]) use exactly this style of greedy/annealed
// iterative refinement, so the comparison bench (ablation_search) contrasts
// the two search paradigms at equal evaluation budget.
#pragma once

#include <functional>

#include "cgp/evolver.h"
#include "cgp/genotype.h"
#include "circuit/netlist.h"

namespace axc::cgp {

class annealer {
 public:
  /// Scores one decoded candidate (Eq. 1).
  using evaluate_fn = std::function<evaluation(const circuit::netlist&)>;

  struct options {
    std::size_t iterations{10000};
    /// Start temperature as a fraction of the seed's cost (relative scale
    /// keeps one setting usable across circuit sizes).
    double initial_temperature_fraction{0.05};
    /// Geometric schedule down to this fraction of the initial temperature.
    double final_temperature_fraction{1e-4};
    /// Scalarization of Eq. 1's infeasible branch: cost = penalty*(1+error).
    double infeasible_penalty{1e9};
  };

  struct run_result {
    genotype best;
    evaluation best_eval;
    std::size_t iterations{0};
    std::size_t evaluations{0};
    std::size_t accepted{0};
    std::size_t uphill_accepted{0};
  };

  /// Scalar cost of an evaluation under the annealer's objective.
  static double cost(const evaluation& e, const options& opts);

  static run_result run(const genotype& seed,
                        const evaluate_fn& evaluate,
                        const options& opts, rng& gen);
};

}  // namespace axc::cgp
