#include "cgp/evolver.h"

#include <utility>
#include <vector>

namespace axc::cgp {

bool better(const evaluation& a, const evaluation& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (a.feasible) return a.area < b.area;
  return a.error < b.error;
}

bool not_worse(const evaluation& a, const evaluation& b) {
  return !better(b, a);
}

evolver::run_result evolver::run_incremental(const genotype& seed,
                                             incremental_evaluator& evaluator,
                                             const options& opts, rng& gen) {
  run_result result{seed, evaluator.evaluate_and_bind(seed), 0, 1, 0, 0};
  genotype parent = seed;
  evaluation parent_eval = result.best_eval;
  const std::size_t lambda = parent.params().lambda;

  // Strict ordering used to pick the best offspring and to decide
  // acceptance; optionally refines Eq. 1 with an error tie-break.
  const auto strictly_better = [&opts](const evaluation& a,
                                       const evaluation& b) {
    if (better(a, b)) return true;
    if (opts.error_tiebreak && !better(b, a)) {
      // Equal under Eq. 1: compare errors.
      return a.error < b.error;
    }
    return false;
  };
  const auto acceptable = [&](const evaluation& a, const evaluation& b) {
    if (!opts.neutral_drift) return strictly_better(a, b);
    if (opts.error_tiebreak) {
      return strictly_better(a, b) || (!better(b, a) && a.error <= b.error);
    }
    return not_worse(a, b);
  };

  // Children are refreshed by O(dirty) gene resync instead of whole-genotype
  // copies (the genotype is ~kilobytes; a generation touches ~h genes).
  // resync[k] names every gene by which child k may differ from the current
  // parent: its own last mutation, plus — after an acceptance, which swaps
  // the winner into the parent slot — the winner's dirty genes.
  std::vector<genotype> children(lambda, parent);
  std::vector<evaluation> evals(lambda);
  std::vector<std::vector<std::uint32_t>> dirty(lambda);
  std::vector<std::vector<std::uint32_t>> resync(lambda);
  // The evaluator is bound to one parent at a time; it rebinds lazily on
  // the first evaluation after an acceptance changed the parent.
  bool is_bound = true;

  for (std::size_t iter = 0; iter < opts.iterations; ++iter) {
    if (opts.should_stop && opts.should_stop()) {
      result.stopped = true;
      break;
    }
    // Mutation consumes the shared RNG in offspring order.
    for (std::size_t k = 0; k < lambda; ++k) {
      children[k].copy_genes_from(parent, resync[k]);
      dirty[k].clear();
      children[k].mutate(gen, dirty[k]);
      resync[k] = dirty[k];
    }
    if (!is_bound) {
      evaluator.rebind(parent, parent_eval);
      is_bound = true;
    }
    const child_bound bound = bound_for(parent_eval, opts);
    for (std::size_t k = 0; k < lambda; ++k) {
      evals[k] = evaluator.evaluate_child(parent, children[k], dirty[k], bound);
    }
    result.evaluations += lambda;

    // Scan in mutation order, keeping the earliest strictly-best offspring.
    std::size_t best_k = 0;
    for (std::size_t k = 1; k < lambda; ++k) {
      if (strictly_better(evals[k], evals[best_k])) best_k = k;
    }

    if (acceptable(evals[best_k], parent_eval)) {
      const bool improved = better(evals[best_k], parent_eval);
      // Swap rather than move: the displaced child slot then holds the old
      // parent, which differs from the new parent by exactly the accepted
      // dirty genes — already what resync[best_k] holds.  Every other child
      // now also differs by those genes on top of its own mutation.
      std::swap(parent, children[best_k]);
      parent_eval = evals[best_k];
      is_bound = false;
      const std::vector<std::uint32_t>& accepted = dirty[best_k];
      for (std::size_t k = 0; k < lambda; ++k) {
        if (k == best_k) continue;
        resync[k].insert(resync[k].end(), accepted.begin(), accepted.end());
      }
      if (improved) {
        ++result.improvements;
        if (opts.on_improvement) opts.on_improvement(iter, parent_eval);
      } else {
        ++result.neutral_moves;
      }
    }
    ++result.iterations;
    if (opts.on_generation) opts.on_generation(iter, parent_eval);
  }

  result.best = std::move(parent);
  result.best_eval = parent_eval;
  return result;
}

child_bound evolver::bound_for(const evaluation& parent, const options& opts) {
  // Mirrors run_incremental's order: below a feasible parent ranks every
  // infeasible child and every feasible one of larger area; at equal area
  // only error_tiebreak ranks a larger error below.
  child_bound bound;
  if (parent.feasible) bound.max_area = parent.area;
  if (opts.error_tiebreak) bound.equal_area_max_error = parent.error;
  return bound;
}

}  // namespace axc::cgp
