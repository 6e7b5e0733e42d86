#include "cgp/evolver.h"

#include <utility>
#include <vector>

#include "support/assert.h"

namespace axc::cgp {

bool better(const evaluation& a, const evaluation& b) {
  if (a.feasible != b.feasible) return a.feasible;
  if (a.feasible) return a.area < b.area;
  return a.error < b.error;
}

bool not_worse(const evaluation& a, const evaluation& b) {
  return !better(b, a);
}

namespace {

/// One (1 + lambda) run, shared by the netlist-based and incremental
/// pipelines.  Hooks:
///   initial(seed) -> evaluation                     (first parent score)
///   mutate_children(parent, children, gen)          (refresh + mutate all)
///   evaluate_offspring(parent, parent_eval, children, evals)
///   on_accept(best_k)                               (parent was replaced)
///
/// Acceptance *swaps* parent and the winning child instead of moving: the
/// displaced child slot then holds the old parent, which differs from the
/// new parent by exactly the winner's dirty genes.  The incremental
/// pipeline exploits this to refresh children by O(dirty) gene resync
/// instead of full-genotype copies.
template <typename init_fn, typename mutate_fn, typename eval_fn,
          typename accept_fn>
evolver::run_result run_core(const genotype& seed, const init_fn& initial,
                             const mutate_fn& mutate_children,
                             const eval_fn& evaluate_offspring,
                             const accept_fn& on_accept,
                             const evolver::options& opts, rng& gen) {
  evolver::run_result result{seed, initial(seed), 0, 1, 0, 0};
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

  std::vector<genotype> children(lambda, parent);
  std::vector<evaluation> evals(lambda);

  for (std::size_t iter = 0; iter < opts.iterations; ++iter) {
    if (opts.should_stop && opts.should_stop()) {
      result.stopped = true;
      break;
    }
    // Mutation consumes the shared RNG in offspring order.
    mutate_children(parent, children, gen);
    evaluate_offspring(parent, parent_eval, children, evals);
    result.evaluations += lambda;

    // Scan in mutation order, keeping the earliest strictly-best offspring.
    std::size_t best_k = 0;
    for (std::size_t k = 1; k < lambda; ++k) {
      if (strictly_better(evals[k], evals[best_k])) best_k = k;
    }

    if (acceptable(evals[best_k], parent_eval)) {
      const bool improved = better(evals[best_k], parent_eval);
      std::swap(parent, children[best_k]);
      parent_eval = evals[best_k];
      on_accept(best_k);
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

/// The plain mutation hook of the netlist-based pipelines.
void mutate_plain(const genotype& parent, std::vector<genotype>& children,
                  rng& gen) {
  for (genotype& child : children) {
    child = parent;
    child.mutate(gen);
  }
}

constexpr auto no_accept_hook = [](std::size_t) {};

}  // namespace

evolver::run_result evolver::run(const genotype& seed,
                                 const evaluate_fn& evaluate,
                                 const options& opts, rng& gen) {
  AXC_EXPECTS(evaluate != nullptr);
  const auto initial = [&evaluate](const genotype& g) {
    return evaluate(g.decode_cone());
  };
  const auto evaluate_offspring = [&evaluate](const genotype&,
                                              const evaluation&,
                                              std::vector<genotype>& children,
                                              std::vector<evaluation>& evals) {
    for (std::size_t k = 0; k < children.size(); ++k) {
      evals[k] = evaluate(children[k].decode_cone());
    }
  };
  return run_core(seed, initial, mutate_plain, evaluate_offspring,
                  no_accept_hook, opts, gen);
}

evolver::run_result evolver::run_incremental(const genotype& seed,
                                             incremental_evaluator& evaluator,
                                             const options& opts, rng& gen) {
  // The evaluator is bound to one parent at a time; it rebinds lazily on
  // the first evaluation after an acceptance changed the parent.
  bool is_bound = true;
  const auto initial = [&evaluator](const genotype& g) {
    return evaluator.evaluate_and_bind(g);
  };

  // Mutation with dirty-gene recording; RNG draws are identical to the
  // plain mutate(), so incremental and netlist-based runs share streams.
  //
  // Children are refreshed by O(dirty) gene resync instead of whole-genotype
  // copies (the genotype is ~kilobytes; a generation touches ~h genes).
  // resync[k] names every gene by which child k may differ from the current
  // parent: its own last mutation, plus — after an acceptance, where
  // run_core swaps the winner into the parent slot — the winner's dirty
  // genes, appended to every other child's list by on_accept below.
  const std::size_t lambda = seed.params().lambda;
  std::vector<std::vector<std::uint32_t>> dirty(lambda);
  std::vector<std::vector<std::uint32_t>> resync(lambda);
  const auto mutate_children = [&dirty, &resync](const genotype& parent,
                                                 std::vector<genotype>& children,
                                                 rng& g) {
    for (std::size_t k = 0; k < children.size(); ++k) {
      children[k].copy_genes_from(parent, resync[k]);
      dirty[k].clear();
      children[k].mutate(g, dirty[k]);
      resync[k] = dirty[k];
    }
  };

  const auto evaluate_offspring = [&](const genotype& parent,
                                      const evaluation& parent_eval,
                                      std::vector<genotype>& children,
                                      std::vector<evaluation>& evals) {
    if (!is_bound) {
      evaluator.rebind(parent, parent_eval);
      is_bound = true;
    }
    const child_bound bound = bound_for(parent_eval, opts);
    for (std::size_t k = 0; k < children.size(); ++k) {
      evals[k] = evaluator.evaluate_child(parent, children[k], dirty[k], bound);
    }
  };
  const auto on_accept = [&is_bound, &dirty, &resync](std::size_t best_k) {
    is_bound = false;
    // The swapped-out child (slot best_k) is the old parent: it differs
    // from the new parent by exactly the accepted dirty genes, which is
    // already what resync[best_k] holds.  Every other child now also
    // differs by those genes on top of its own mutation.
    const std::vector<std::uint32_t>& acc = dirty[best_k];
    for (std::size_t k = 0; k < resync.size(); ++k) {
      if (k == best_k) continue;
      resync[k].insert(resync[k].end(), acc.begin(), acc.end());
    }
  };
  return run_core(seed, initial, mutate_children, evaluate_offspring,
                  on_accept, opts, gen);
}

child_bound evolver::bound_for(const evaluation& parent, const options& opts) {
  // Mirrors run_core's order: below a feasible parent ranks every
  // infeasible child and every feasible one of larger area; at equal area
  // only error_tiebreak ranks a larger error below.
  child_bound bound;
  if (parent.feasible) bound.max_area = parent.area;
  if (opts.error_tiebreak) bound.equal_area_max_error = parent.error;
  return bound;
}

}  // namespace axc::cgp
