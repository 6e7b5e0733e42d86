#include "core/wmed_approximator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <utility>

#include "cgp/cone_program.h"
#include "core/component_handle.h"
#include "core/search_session.h"
#include "metrics/wmed_evaluator.h"
#include "support/assert.h"
#include "tech/analysis.h"

namespace axc::core {

namespace {

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/// cgp::incremental_evaluator over the genotype-native pipeline: compile or
/// patch the parent's cone schedule, estimate area straight from the active
/// gate functions, run the bit-plane sweep with early abort at the tightest
/// bound under which the mutant could still replace its parent.  Every
/// result is bit-identical to scoring decode_cone() through
/// basic_wmed_evaluator::evaluate(), or evaluation::dominated() for a
/// mutant whose exact score ranks strictly below the parent (tested in
/// tests/test_incremental_eval.cpp).
template <metrics::component_spec Spec>
class incremental_wmed final : public cgp::incremental_evaluator {
 public:
  incremental_wmed(wmed_shared_cache<Spec> cache,
                   const tech::cell_library& lib, double target,
                   simd::level simd)
      : evaluator_(std::move(cache), simd), lib_(&lib), target_(target) {
    cone_.program().set_simd_level(evaluator_.simd_level());
    // Terms of the sweep's running sum: one per 64-assignment block.
    const double terms =
        static_cast<double>(evaluator_.shared()->block_count) + 1.0;
    margin_rel_ = std::ldexp(terms, -49);
    margin_abs_ = std::ldexp(terms, -1069);
  }

  cgp::evaluation evaluate_and_bind(const cgp::genotype& parent) override {
    cone_.bind(parent);
    parent_eval_ = score({});
    return parent_eval_;
  }

  void rebind(const cgp::genotype& parent,
              const cgp::evaluation& eval) override {
    cone_.bind(parent);
    parent_eval_ = eval;  // the known evaluation spares the parent sweep
  }

  cgp::evaluation evaluate_child(const cgp::genotype& parent,
                                 const cgp::genotype& child,
                                 std::span<const std::uint32_t> dirty,
                                 const cgp::child_bound& bound) override {
    const cgp::cone_program::delta d = cone_.apply(parent, child, dirty);
    // Phenotype-identical mutants (every mutated gene landed on its old
    // value or in the inactive padding) score exactly like the parent.
    if (d == cgp::cone_program::delta::identical) return parent_eval_;
    const cgp::evaluation eval = score(bound);
    cone_.release_child(parent);
    return eval;
  }

 private:
  using gate_change = cgp::cone_program::gate_change;

  cgp::evaluation score(const cgp::child_bound& bound) {
    // Area first when it can screen: a mutant larger than a feasible parent
    // cannot replace it whatever its error, so it skips the sweep.  Below
    // an infeasible parent only feasible mutants need their area, and a
    // mutant that only dropped gates cannot be larger than its parent (a
    // float sum of positive terms never grows when terms are left out), so
    // both keep the cheaper order.
    const bool area_first = bound.max_area != kUnbounded &&
                            cone_.gates() != gate_change::subset;
    double area = 0.0;
    if (area_first) {
      area = estimate_area();
      if (area > bound.max_area) return cgp::evaluation::dominated();
      if (area == bound.max_area) {
        // Equal area to a feasible parent: the mutant must also stay within
        // the parent's error (when the run breaks ties on error) and the
        // target.  A sweep that exceeds that limit proves the exact score
        // ranks below the parent; one that completes within it is exact.
        const double limit =
            std::min(target_, error_limit(bound.equal_area_max_error));
        const double error =
            evaluator_.evaluate_program(cone_.program(), limit);
        if (error > limit) return cgp::evaluation::dominated();
        return {error, area, true};
      }
    }

    cgp::evaluation eval;
    // Eq. 1: abort the error sweep once the candidate is proven infeasible;
    // area is only ranked among feasible candidates.
    eval.error = evaluator_.evaluate_program(cone_.program(), target_);
    eval.feasible = eval.error <= target_;
    if (eval.feasible && !area_first) area = estimate_area();
    eval.area = eval.feasible ? area : 0.0;
    return eval;
  }

  [[nodiscard]] double estimate_area() {
    // A mutant that only moved edges has the parent's gate list, so a
    // feasible parent's recorded area is its area bit for bit.
    if (cone_.gates() == gate_change::same &&
        parent_eval_.feasible) {
      return parent_eval_.area;
    }
    return tech::estimate_area(cone_.step_fns(), *lib_);
  }

  /// The abort bound that screens out mutants of error strictly above
  /// `error`.  The sweep aborts on its running sum `acc`, accumulated per
  /// block in visit order, while a completed sweep returns the fixed-order
  /// per-operand reduction W; the two round differently, so aborting at
  /// `error` itself could screen out a mutant whose W equals it.  Let S be
  /// the exact real sum of the weighted errors, N = block_count (the terms
  /// of acc; W has 2^w <= N terms), u = 2^-53,
  /// gamma = N u / (1 - N u) and d = denorm_min (a product may underflow by
  /// up to d / 2).  Both sums of non-negative terms lie within
  /// gamma * S + N * d of S, and acc only grows, so an abort at a partial
  /// sum above L gives W > (1 - 2 gamma) L - 2 N d, which exceeds `error`
  /// whenever L >= (error + 2 N d) / (1 - 2 gamma).  The limit below adds
  /// error * (N + 1) * 2^-49 (16 (N + 1) u, about eight times 2 gamma) and
  /// 32 (N + 1) d (sixteen times 2 N d); the headroom also absorbs the
  /// rounding of the limit's own arithmetic.  For w = 8 the relative slack
  /// is 1.8e-12.  tests/test_wmed_oracle.cpp checks that equal-error mutants
  /// survive it under subnormal and %.17g-round-tripped distributions.
  [[nodiscard]] double error_limit(double error) const {
    return error + (error * margin_rel_ + margin_abs_);
  }

  metrics::basic_wmed_evaluator<Spec> evaluator_;
  cgp::cone_program cone_;
  const tech::cell_library* lib_;
  double target_;
  double margin_rel_{0.0};
  double margin_abs_{0.0};
  cgp::evaluation parent_eval_{};
};

}  // namespace

template <metrics::component_spec Spec>
void finalize_config(basic_approximation_config<Spec>& config) {
  // An unset distribution derives its size from the spec; a set one must
  // match it — fail loudly instead of silently mis-weighting WMED.
  if (config.distribution.empty()) {
    config.distribution = dist::pmf::uniform(config.spec.operand_count());
  } else if (config.distribution.size() != config.spec.operand_count()) {
    std::fprintf(stderr,
                 "axc: approximation_config.distribution has %zu entries but "
                 "spec width %u requires %zu\n",
                 config.distribution.size(), config.spec.width,
                 config.spec.operand_count());
    std::abort();
  }
  AXC_EXPECTS(config.library != nullptr);
  AXC_EXPECTS(!config.function_set.empty());
}

template <metrics::component_spec Spec>
std::unique_ptr<cgp::incremental_evaluator> make_incremental_wmed_evaluator(
    wmed_shared_cache<Spec> cache, const tech::cell_library& lib,
    double target, simd::level simd) {
  return std::make_unique<incremental_wmed<Spec>>(std::move(cache), lib,
                                                  target, simd);
}

template <metrics::component_spec Spec>
std::unique_ptr<cgp::incremental_evaluator> make_incremental_wmed_evaluator(
    const Spec& spec, const dist::pmf& d, const tech::cell_library& lib,
    double target, simd::level simd) {
  return make_incremental_wmed_evaluator<Spec>(
      metrics::basic_wmed_evaluator<Spec>::make_shared_state(spec, d), lib,
      target, simd);
}

template <metrics::component_spec Spec>
std::optional<evolved_design> run_search_job(
    const basic_approximation_config<Spec>& config,
    const wmed_shared_cache<Spec>& cache, const circuit::netlist& seed,
    double target, std::size_t run_index, const search_hooks& hooks) {
  AXC_EXPECTS(cache != nullptr);
  AXC_EXPECTS(cache->spec == config.spec);
  AXC_EXPECTS(target >= 0.0 && target <= 1.0);
  AXC_EXPECTS(seed.num_inputs() == 2 * config.spec.width);
  AXC_EXPECTS(seed.num_outputs() == config.spec.result_bits());

  cgp::parameters params;
  params.num_inputs = seed.num_inputs();
  params.num_outputs = seed.num_outputs();
  params.columns = seed.num_gates() + config.extra_columns;
  params.rows = 1;
  params.levels_back = params.columns;
  params.function_set = config.function_set;
  params.max_mutations = config.max_mutations;
  params.lambda = config.lambda;

  // Decorrelate runs/targets deterministically from the base seed; the
  // stream depends only on (rng_seed, target, run_index), never on job
  // scheduling, so sessions can run jobs in any order on any thread.
  std::uint64_t mix = config.rng_seed;
  mix ^= 0x9e3779b97f4a7c15ULL * (run_index + 1);
  mix ^= static_cast<std::uint64_t>(target * 1e12) * 0xd1342543de82ef95ULL;
  rng gen(splitmix64(mix));

  const cgp::genotype start =
      cgp::genotype::from_netlist(params, seed, gen);

  cgp::evolver::options opts;
  opts.iterations = config.iterations;
  opts.error_tiebreak = config.error_tiebreak;
  opts.on_improvement = hooks.on_improvement;
  opts.on_generation = hooks.on_generation;
  opts.should_stop = hooks.should_stop;

  // Genotype-native pipeline: mutants never round-trip through a netlist;
  // the parent's compiled schedule is shared and patched.
  const auto evaluator = make_incremental_wmed_evaluator<Spec>(
      cache, *config.library, target);
  const cgp::evolver::run_result run =
      cgp::evolver::run_incremental(start, *evaluator, opts, gen);
  if (run.stopped) return std::nullopt;

  evolved_design design{run.best.decode_cone(), 0.0, 0.0, target,
                        run_index, run.evaluations, run.improvements};
  metrics::basic_wmed_evaluator<Spec> wmed(cache);
  design.wmed = wmed.evaluate(design.netlist);
  design.area_um2 = tech::estimate_area(design.netlist, *config.library);
  return design;
}

template <metrics::component_spec Spec>
basic_wmed_approximator<Spec>::basic_wmed_approximator(
    basic_approximation_config<Spec> config)
    : config_(std::move(config)) {
  finalize_config(config_);
  cache_ = metrics::basic_wmed_evaluator<Spec>::make_shared_state(
      config_.spec, config_.distribution);
}

template <metrics::component_spec Spec>
evolved_design basic_wmed_approximator<Spec>::approximate(
    const circuit::netlist& seed, double target,
    std::size_t run_index) const {
  // No stop hook, so the job always completes.
  return *run_search_job(config_, cache_, seed, target, run_index);
}

template <metrics::component_spec Spec>
std::vector<evolved_design> basic_wmed_approximator<Spec>::sweep(
    const circuit::netlist& seed, std::span<const double> targets,
    const std::function<void(const evolved_design&)>& on_design) const {
  // One single-plan serial session: same job order and RNG streams as the
  // historic nested target/run loop, with the evaluator cache shared
  // across all jobs.
  sweep_plan plan;
  plan.targets.assign(targets.begin(), targets.end());
  plan.runs_per_target = config_.runs_per_target;

  session_config options;
  options.on_design = on_design;

  search_session session(make_component(config_, cache_), seed,
                         std::move(plan), std::move(options));
  session.run();
  return session.designs();
}

template class basic_wmed_approximator<metrics::mult_spec>;
template class basic_wmed_approximator<metrics::adder_spec>;

template void finalize_config<metrics::mult_spec>(
    basic_approximation_config<metrics::mult_spec>&);
template void finalize_config<metrics::adder_spec>(
    basic_approximation_config<metrics::adder_spec>&);

template std::optional<evolved_design> run_search_job<metrics::mult_spec>(
    const basic_approximation_config<metrics::mult_spec>&,
    const wmed_shared_cache<metrics::mult_spec>&, const circuit::netlist&,
    double, std::size_t, const search_hooks&);
template std::optional<evolved_design> run_search_job<metrics::adder_spec>(
    const basic_approximation_config<metrics::adder_spec>&,
    const wmed_shared_cache<metrics::adder_spec>&, const circuit::netlist&,
    double, std::size_t, const search_hooks&);

template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::mult_spec>(const metrics::mult_spec&,
                                                    const dist::pmf&,
                                                    const tech::cell_library&,
                                                    double, simd::level);
template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::adder_spec>(
    const metrics::adder_spec&, const dist::pmf&, const tech::cell_library&,
    double, simd::level);
template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::mult_spec>(
    wmed_shared_cache<metrics::mult_spec>, const tech::cell_library&, double,
    simd::level);
template std::unique_ptr<cgp::incremental_evaluator>
make_incremental_wmed_evaluator<metrics::adder_spec>(
    wmed_shared_cache<metrics::adder_spec>, const tech::cell_library&, double,
    simd::level);

std::vector<double> default_wmed_targets() {
  // 14 log-spaced levels spanning the paper's WMED axis (0.0001 % .. 10 %),
  // expressed as fractions.
  std::vector<double> targets;
  targets.reserve(14);
  for (int k = 0; k < 14; ++k) {
    const double exponent = -6.0 + 5.0 * static_cast<double>(k) / 13.0;
    targets.push_back(std::pow(10.0, exponent));
  }
  return targets;
}

}  // namespace axc::core
