// Design-space exploration, twice over:
//
//   Part 1 — enumerate the library's building blocks (truncated,
//   broken-array and zero-exact multipliers), characterize error and
//   hardware cost, and print the Pareto-optimal set: a fast baseline study
//   with no evolution at all.
//
//   Part 2 — run the paper's evolutionary exploration through the session
//   API: a sweep_plan over several WMED targets, job-parallel CGP runs
//   sharing one evaluator cache, a live Pareto archive — and the
//   checkpoint/resume flow: the sweep is cancelled midway, saved to disk,
//   resumed from the file, and finishes with a front identical to an
//   uninterrupted run's.
#include <cstdio>
#include <string>
#include <vector>

#include "core/design_flow.h"
#include "core/pareto.h"
#include "core/search_session.h"
#include "metrics/compiled_table.h"
#include "metrics/error_metrics.h"
#include "mult/multipliers.h"

namespace {

void enumerate_building_blocks(const axc::dist::pmf& d) {
  using namespace axc;
  const metrics::mult_spec spec{8, false};
  const auto exact = metrics::exact_product_table(spec);
  const auto& lib = tech::cell_library::nangate45_like();

  struct row {
    std::string name;
    double wmed, wce, mre, er, area, power, pdp;
  };
  std::vector<row> rows;

  const auto add = [&](const std::string& name,
                       const circuit::netlist& nl) {
    const auto table = metrics::result_table(nl, spec);
    const auto hw = core::characterize_multiplier(nl, spec, d, lib, 2048);
    rows.push_back({name, metrics::wmed(exact, table, spec, d),
                    metrics::worst_case_error(exact, table, spec),
                    metrics::mean_relative_error(exact, table),
                    metrics::error_rate(exact, table), hw.area_um2,
                    hw.power_uw, hw.pdp_fj});
  };

  add("exact", mult::unsigned_multiplier(8));
  add("exact-wallace", mult::unsigned_multiplier(8, mult::schedule::wallace));
  for (const unsigned k : {2u, 4u, 6u, 8u, 10u}) {
    add("trunc-" + std::to_string(k), mult::truncated_multiplier(8, k));
  }
  for (const auto [h, v] : {std::pair{1u, 4u}, std::pair{2u, 6u},
                            std::pair{2u, 10u}, std::pair{3u, 8u}}) {
    add("bam-h" + std::to_string(h) + "v" + std::to_string(v),
        mult::broken_array_multiplier(8, h, v));
  }
  for (const unsigned k : {6u, 8u}) {
    add("zx-trunc-" + std::to_string(k),
        mult::zero_exact_wrapper(mult::truncated_multiplier(8, k), 8));
  }

  std::printf("%-14s %9s %8s %8s %7s %9s %9s %9s\n", "design", "WMED%",
              "WCE%", "MRE%", "ER%", "area", "power_uW", "PDP_fJ");
  for (const row& r : rows) {
    std::printf("%-14s %9.4f %8.3f %8.2f %7.1f %9.1f %9.2f %9.1f\n",
                r.name.c_str(), 100 * r.wmed, 100 * r.wce, 100 * r.mre,
                100 * r.er, r.area, r.power, r.pdp);
  }

  std::vector<core::pareto_point> points;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    points.push_back({rows[i].wmed, rows[i].pdp, i});
  }
  std::printf("\nPareto-optimal building blocks (WMED vs PDP):\n");
  for (const auto& p : core::pareto_front(points)) {
    std::printf("  %s\n", rows[p.index].name.c_str());
  }
}

void evolve_with_session(const axc::dist::pmf& d) {
  using namespace axc;
  constexpr const char* kCheckpoint = "explorer_session.axs";

  core::approximation_config config;
  config.spec = metrics::mult_spec{8, false};
  config.distribution = d;
  config.iterations = 1200;  // demo budget; the paper runs ~1 h per job
  const core::component_handle component = core::make_component(config);
  const circuit::netlist seed = mult::unsigned_multiplier(8);

  core::sweep_plan plan;
  plan.targets = {0.0005, 0.002, 0.01, 0.05};

  // Phase 1: start the sweep, then cancel it from the progress stream
  // after two jobs — as a deadline, a crash or a preempted worker would.
  core::session_config options;
  core::search_session* running = nullptr;
  options.on_progress = [&](const core::progress_event& e) {
    if (e.kind == core::progress_kind::job_finished) {
      std::printf("  [job %zu] target %.3f%% -> WMED %.4f%% area %.1f\n",
                  e.job_id, 100.0 * e.target, 100.0 * e.wmed, e.area_um2);
      // >= not ==: with job_threads > 1 the completion counter can skip
      // values between an increment and its event emission.
      if (e.completed_jobs >= 2) running->request_stop();
    }
  };
  core::search_session session(component, seed, plan, options);
  running = &session;
  std::printf("\nEvolutionary sweep, phase 1 (cancelled after 2 jobs):\n");
  session.run();
  if (!session.save_file(kCheckpoint)) {
    std::fprintf(stderr, "checkpoint save failed\n");
    std::exit(1);
  }
  std::printf("  checkpointed %zu/%zu jobs to %s\n", session.completed_jobs(),
              session.total_jobs(), kCheckpoint);

  // Phase 2: resume from disk — completed designs are restored verbatim,
  // only the remaining jobs run.  The final archive is identical to an
  // uninterrupted sweep's (the session parity tests assert this bit for
  // bit).
  core::session_config resume_options;
  resume_options.on_progress = [](const core::progress_event& e) {
    if (e.kind == core::progress_kind::job_finished) {
      std::printf("  [job %zu] target %.3f%% -> WMED %.4f%% area %.1f\n",
                  e.job_id, 100.0 * e.target, 100.0 * e.wmed, e.area_um2);
    }
  };
  auto resumed = core::search_session::resume_file(kCheckpoint, component,
                                                   resume_options);
  if (!resumed) {
    std::printf("  resume failed (checkpoint/component mismatch)\n");
    return;
  }
  std::printf("Evolutionary sweep, phase 2 (resumed %zu/%zu done):\n",
              resumed->completed_jobs(), resumed->total_jobs());
  resumed->run();

  std::printf("\nEvolved Pareto front (WMED vs area):\n");
  for (const auto& p : resumed->front()) {
    // front() indices are job ids; design() is the id-safe lookup (it
    // matters on partially completed sessions, where designs() is dense).
    const auto design = resumed->design(p.index);
    if (!design) continue;
    std::printf("  target %.3f%%: WMED %.4f%%  area %.1f um2  (%zu gates)\n",
                100.0 * design->target, 100.0 * p.x, p.y,
                design->netlist.active_gate_count());
  }
}

}  // namespace

int main() {
  const axc::dist::pmf d = axc::dist::pmf::half_normal(256, 64.0);
  enumerate_building_blocks(d);
  evolve_with_session(d);
  return 0;
}
