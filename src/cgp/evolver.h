// (1 + lambda) evolution strategy over CGP genotypes (Sec. III-C).
//
// Each generation creates lambda mutants of the parent; the best mutant
// replaces the parent if it is *not worse* — accepting equal fitness is
// CGP's neutral drift and is essential for escaping plateaus.  Fitness
// follows the paper's Eq. 1: a candidate is feasible when its error is
// within the target threshold, feasible candidates are ranked by area, and
// infeasible ones rank below every feasible candidate (ranked among
// themselves by error so a search seeded out of the feasible region can
// climb back in).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <span>

#include "cgp/genotype.h"
#include "support/rng.h"

namespace axc::cgp {

/// Outcome of evaluating one candidate.
struct evaluation {
  double error{0.0};  ///< e.g. WMED; only ordering matters when infeasible
  double area{0.0};   ///< minimization objective when feasible
  bool feasible{false};

  /// The stand-in an incremental evaluator may return for a mutant it has
  /// proven cannot replace its parent: infeasible with +inf error, which
  /// ranks strictly below every feasible parent.
  [[nodiscard]] static evaluation dominated() {
    return {std::numeric_limits<double>::infinity(), 0.0, false};
  }
};

/// Strict-weak "a is strictly better than b" per Eq. 1 (+ error tie-break).
[[nodiscard]] bool better(const evaluation& a, const evaluation& b);

/// "a can replace b" — better or equal (neutral drift acceptance).
[[nodiscard]] bool not_worse(const evaluation& a, const evaluation& b);

/// The tightest bound under which a mutant could still replace its parent,
/// derived by the evolver from the parent's evaluation and its own
/// acceptance rule (evolver::bound_for).  Default-constructed it bounds
/// nothing.
struct child_bound {
  /// A mutant with larger area cannot be accepted: the parent's area when
  /// the parent is feasible, +inf otherwise.
  double max_area{std::numeric_limits<double>::infinity()};
  /// A mutant of exactly max_area cannot be accepted with a larger error:
  /// the parent's error under error_tiebreak, +inf without it.
  double equal_area_max_error{std::numeric_limits<double>::infinity()};
};

/// Genotype-native incremental evaluation contract (see cone_program): the
/// evolver hands the evaluator the parent genotype and each mutant's dirty
/// gene list instead of a materialized netlist, so the evaluator can keep
/// the parent's compiled sim_program/cone schedule across the lambda
/// mutants of a generation and patch rather than recompile.
///
/// Contract: evaluate_child(parent, child, dirty, bound) returns either
/// exactly what evaluate_and_bind(child) would, or evaluation::dominated()
/// — and the latter only when that exact evaluation ranks strictly below
/// the parent under the run's order.  This lets the evaluator skip or cut
/// short the work on mutants that cannot be accepted, and the search stays
/// bit-identical to full recompilation.  Why: with neutral drift
/// acceptable(c, p) is !strictly_better(p, c), and without it
/// strictly_better(c, p); the order is lexicographic in (feasible, area,
/// error under error_tiebreak), a strict weak order.  Replacing a child that
/// ranks strictly below the parent by another value that also does (a)
/// cannot make it acceptable; (b) cannot make it the generation's best over
/// an acceptable sibling, by transitivity — the best is the earliest member
/// of the top equivalence class, which then ranks at or above the parent;
/// (c) changes nothing when no sibling is acceptable, since nothing is
/// accepted either way.  Selection, acceptance, RNG draws and every run
/// counter are therefore unchanged.
class incremental_evaluator {
 public:
  virtual ~incremental_evaluator() = default;

  /// Compiles `parent`'s cone schedule and fully evaluates it; `parent`
  /// becomes the bound base for evaluate_child().
  virtual evaluation evaluate_and_bind(const genotype& parent) = 0;

  /// Rebinds to a new parent whose evaluation is already known (an accepted
  /// child) — compile only, no re-evaluation.
  virtual void rebind(const genotype& parent, const evaluation& eval) = 0;

  /// Evaluates a mutant of the bound parent.  `dirty` lists the flat gene
  /// indices touched by mutation (genotype::mutate(rng&, dirty)); the
  /// binding is left undisturbed.  `bound` is the parent's child_bound (a
  /// default one asks for the exact evaluation).
  virtual evaluation evaluate_child(const genotype& parent,
                                    const genotype& child,
                                    std::span<const std::uint32_t> dirty,
                                    const child_bound& bound) = 0;
};

class evolver {
 public:
  /// Called whenever the parent strictly improves.
  using progress_fn =
      std::function<void(std::size_t iteration, const evaluation&)>;
  /// Called after every generation with the parent's (best-so-far) score —
  /// same shape as progress_fn, distinct name for call-site clarity.
  using generation_fn = progress_fn;
  /// Cooperative cancellation: polled once per generation, before mutating.
  using stop_fn = std::function<bool()>;

  struct options {
    std::size_t iterations{10000};
    bool neutral_drift{true};
    /// Among feasible candidates of equal area, prefer lower error.  Eq. 1
    /// leaves equal-fitness ordering open; biasing the neutral drift toward
    /// low error keeps the error budget spent on many small deviations
    /// instead of a few catastrophic ones, which matters at short search
    /// budgets (see DESIGN.md ablations).
    bool error_tiebreak{false};
    progress_fn on_improvement{};
    generation_fn on_generation{};
    /// Returning true ends the run before the next generation's mutation
    /// draws; the best-so-far result is returned with `stopped` set.  A
    /// stopped run consumed a prefix of the full run's RNG stream, so
    /// restarting the search from scratch (not from the stopped parent) is
    /// what reproduces the uninterrupted result.
    stop_fn should_stop{};
  };

  struct run_result {
    genotype best;
    evaluation best_eval;
    std::size_t iterations{0};
    std::size_t evaluations{0};
    std::size_t improvements{0};
    std::size_t neutral_moves{0};
    bool stopped{false};  ///< options::should_stop ended the run early
  };

  /// Runs the (1 + lambda) ES from `seed`; lambda and mutation strength
  /// come from the genotype's parameters.  Mutants are never decoded to
  /// netlists here: `evaluator` keeps the parent's compiled schedule and
  /// receives (parent, child, dirty genes, the parent's bound_for()) for
  /// each mutant in turn.  Given a conforming evaluator the result is
  /// bit-identical to a plain copy-mutate-score loop over from-scratch
  /// evaluations (tests/test_util.h keeps one as the oracle).
  static run_result run_incremental(const genotype& seed,
                                    incremental_evaluator& evaluator,
                                    const options& opts, rng& gen);

  /// The child_bound run_incremental hands the evaluator for the mutants
  /// of a parent scored `parent` under `opts`' acceptance rule.
  [[nodiscard]] static child_bound bound_for(const evaluation& parent,
                                             const options& opts);
};

}  // namespace axc::cgp
