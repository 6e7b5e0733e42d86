#include "cgp/annealer.h"

#include <cmath>
#include <utility>

#include "support/assert.h"

namespace axc::cgp {

double annealer::cost(const evaluation& e, const options& opts) {
  if (e.feasible) return e.area;
  return opts.infeasible_penalty * (1.0 + e.error);
}

annealer::run_result annealer::run(const genotype& seed,
                                   const evaluate_fn& evaluate,
                                   const options& opts, rng& gen) {
  AXC_EXPECTS(evaluate != nullptr);
  AXC_EXPECTS(opts.iterations > 0);
  AXC_EXPECTS(opts.initial_temperature_fraction > 0.0);
  AXC_EXPECTS(opts.final_temperature_fraction > 0.0);
  AXC_EXPECTS(opts.final_temperature_fraction <=
              opts.initial_temperature_fraction);

  genotype current = seed;
  evaluation current_eval = evaluate(current.decode());
  run_result result{seed, current_eval, 0, 1, 0, 0};

  const double seed_cost = cost(current_eval, opts);
  const double t0 =
      opts.initial_temperature_fraction * (seed_cost > 0 ? seed_cost : 1.0);
  const double t1 = t0 * (opts.final_temperature_fraction /
                          opts.initial_temperature_fraction);
  const double decay =
      std::pow(t1 / t0, 1.0 / static_cast<double>(opts.iterations));

  double temperature = t0;
  for (std::size_t iter = 0; iter < opts.iterations; ++iter) {
    genotype candidate = current;
    candidate.mutate(gen);
    const evaluation cand_eval = evaluate(candidate.decode());
    ++result.evaluations;

    const double delta = cost(cand_eval, opts) - cost(current_eval, opts);
    bool accept = delta <= 0.0;
    if (!accept) {
      accept = gen.uniform01() < std::exp(-delta / temperature);
      if (accept) ++result.uphill_accepted;
    }
    if (accept) {
      current = std::move(candidate);
      current_eval = cand_eval;
      ++result.accepted;
      if (better(current_eval, result.best_eval)) {
        result.best = current;
        result.best_eval = current_eval;
      }
    }
    temperature *= decay;
    ++result.iterations;
  }
  return result;
}

}  // namespace axc::cgp
