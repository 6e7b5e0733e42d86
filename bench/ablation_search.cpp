// Ablation — search paradigms at equal evaluation budget: the paper's
// (1 + lambda) CGP evolution strategy (with and without the error
// tie-break) vs simulated annealing over the same genotype, mutation
// operator and Eq.-1 objective, plus the effect of seeding (exact array vs
// Wallace vs Booth multiplier) and of the CGP function set.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "cgp/annealer.h"
#include "core/wmed_approximator.h"
#include "metrics/wmed_evaluator.h"
#include "mult/booth.h"
#include "mult/multipliers.h"
#include "tech/analysis.h"

namespace {

using namespace axc;

struct setup {
  metrics::mult_spec spec{8, true};
  dist::pmf d = dist::pmf::signed_normal(256, 0.0, 30.0);
  double target{0.002};
  std::size_t iterations{0};
};

cgp::parameters make_params(const circuit::netlist& seed,
                            std::span<const circuit::gate_fn> fns) {
  cgp::parameters p;
  p.num_inputs = seed.num_inputs();
  p.num_outputs = seed.num_outputs();
  p.columns = seed.num_gates() + 64;
  p.rows = 1;
  p.levels_back = p.columns;
  p.function_set.assign(fns.begin(), fns.end());
  p.max_mutations = 5;
  p.lambda = 4;
  return p;
}

/// The annealer's Eq.-1 objective over decoded netlists.
cgp::annealer::evaluate_fn make_objective(metrics::wmed_evaluator& eval,
                                          double target) {
  return [&eval, target](const circuit::netlist& nl) -> cgp::evaluation {
    cgp::evaluation e;
    e.error = eval.evaluate(nl, target);
    e.feasible = e.error <= target;
    e.area = e.feasible ? tech::estimate_area(
                              nl, tech::cell_library::nangate45_like())
                        : 0.0;
    return e;
  };
}

}  // namespace

int main() {
  bench::banner("Ablation", "search strategy, seeding, function set");
  setup s;
  s.iterations = bench::scaled(2500);

  metrics::wmed_evaluator eval(s.spec, s.d);
  const auto objective = make_objective(eval, s.target);
  // The ES arms score mutants through the search's own incremental
  // pipeline, sharing the reporting evaluator's tables.
  const auto es_run = [&](const cgp::genotype& start,
                          const cgp::evolver::options& eopts, rng& g) {
    const auto evaluator =
        core::make_incremental_wmed_evaluator<metrics::mult_spec>(
            eval.shared(), tech::cell_library::nangate45_like(), s.target);
    return cgp::evolver::run_incremental(start, *evaluator, eopts, g);
  };
  const double seed_area = tech::estimate_area(
      mult::signed_multiplier(8), tech::cell_library::nangate45_like());
  std::printf("target WMED %.2f%%, budget %zu evaluations, exact area %.0f\n\n",
              100 * s.target, s.iterations * 4, seed_area);
  std::printf("%-34s %10s %10s\n", "configuration", "area_um2", "WMED%");

  const auto report = [&](const char* name, const circuit::netlist& nl) {
    std::printf("%-34s %10.1f %10.4f\n", name,
                tech::estimate_area(nl, tech::cell_library::nangate45_like()),
                100.0 * eval.evaluate(nl));
  };

  // --- search strategies over the same seed ---
  {
    const circuit::netlist seed = mult::signed_multiplier(8);
    const auto params = make_params(seed, circuit::default_function_set());
    rng gen(42);
    const auto start = cgp::genotype::from_netlist(params, seed, gen);

    cgp::evolver::options eopts;
    eopts.iterations = s.iterations;
    eopts.error_tiebreak = false;
    rng g1(1);
    report("(1+4) ES, plain Eq. 1",
           es_run(start, eopts, g1).best.decode());

    eopts.error_tiebreak = true;
    rng g2(1);
    report("(1+4) ES, error tie-break",
           es_run(start, eopts, g2).best.decode());

    cgp::annealer::options aopts;
    aopts.iterations = s.iterations * 4;  // match evaluation budget
    rng g3(1);
    report("simulated annealing",
           cgp::annealer::run(start, objective, aopts, g3).best.decode());
  }

  // --- seeding (same budget, ES with tie-break) ---
  std::printf("\n");
  for (const auto& [name, seed] :
       {std::pair<const char*, circuit::netlist>{
            "seed: Baugh-Wooley ripple", mult::signed_multiplier(8)},
        {"seed: Baugh-Wooley Wallace",
         mult::signed_multiplier(8, mult::schedule::wallace)},
        {"seed: Booth radix-4", mult::booth_multiplier(8)}}) {
    const auto params = make_params(seed, circuit::default_function_set());
    rng gen(42);
    const auto start = cgp::genotype::from_netlist(params, seed, gen);
    cgp::evolver::options eopts;
    eopts.iterations = s.iterations;
    eopts.error_tiebreak = true;
    rng g(1);
    report(name, es_run(start, eopts, g).best.decode());
  }

  // --- function set (same budget, BW ripple seed) ---
  // The Baugh-Wooley seed contains constant-one correction gates, so the
  // basic set is extended with constants to stay seedable.
  std::vector<circuit::gate_fn> basic_plus(
      circuit::basic_function_set().begin(),
      circuit::basic_function_set().end());
  basic_plus.push_back(circuit::gate_fn::const0);
  basic_plus.push_back(circuit::gate_fn::const1);

  std::printf("\n");
  for (const auto& [name, fns] :
       {std::pair<const char*, std::span<const circuit::gate_fn>>{
            "gates: basic 8 + constants", basic_plus},
        {"gates: default (paper) set", circuit::default_function_set()},
        {"gates: all 16 functions", circuit::full_function_set()}}) {
    const circuit::netlist seed = mult::signed_multiplier(8);
    const auto params = make_params(seed, fns);
    rng gen(42);
    const auto start = cgp::genotype::from_netlist(params, seed, gen);
    cgp::evolver::options eopts;
    eopts.iterations = s.iterations;
    eopts.error_tiebreak = true;
    rng g(1);
    report(name, es_run(start, eopts, g).best.decode());
  }
  return 0;
}
