#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/component_handle.h"
#include "core/search_session.h"
#include "core/wmed_approximator.h"
#include "mult/adders.h"
#include "mult/multipliers.h"

namespace axc::core {
namespace {

using metrics::adder_spec;
using metrics::mult_spec;

approximation_config small_mult_config() {
  approximation_config cfg;
  cfg.spec = mult_spec{4, false};
  cfg.distribution = dist::pmf::half_normal(16, 4.0);
  cfg.iterations = 300;
  cfg.extra_columns = 16;
  cfg.rng_seed = 11;
  return cfg;
}

adder_approximation_config small_adder_config() {
  adder_approximation_config cfg;
  cfg.spec = adder_spec{6};
  cfg.distribution = dist::pmf::half_normal(64, 16.0);
  cfg.iterations = 200;
  cfg.extra_columns = 12;
  cfg.rng_seed = 7;
  return cfg;
}

sweep_plan small_plan() {
  sweep_plan plan;
  plan.targets = {0.002, 0.02};
  plan.runs_per_target = 2;
  return plan;
}

void expect_same_designs(const std::vector<evolved_design>& a,
                         const std::vector<evolved_design>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].netlist, b[i].netlist) << "design " << i;
    EXPECT_EQ(a[i].wmed, b[i].wmed) << "design " << i;
    EXPECT_EQ(a[i].area_um2, b[i].area_um2) << "design " << i;
    EXPECT_EQ(a[i].target, b[i].target) << "design " << i;
    EXPECT_EQ(a[i].run_index, b[i].run_index) << "design " << i;
    EXPECT_EQ(a[i].evaluations, b[i].evaluations) << "design " << i;
    EXPECT_EQ(a[i].improvements, b[i].improvements) << "design " << i;
  }
}

void expect_same_front(const std::vector<pareto_point>& a,
                       const std::vector<pareto_point>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "front point " << i;
  }
}

TEST(sweep_plan, expands_target_major) {
  const sweep_plan plan = small_plan();
  const auto jobs = plan.jobs();
  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(jobs[0].id, 0u);
  EXPECT_EQ(jobs[0].target, 0.002);
  EXPECT_EQ(jobs[0].run_index, 0u);
  EXPECT_EQ(jobs[1].target, 0.002);
  EXPECT_EQ(jobs[1].run_index, 1u);
  EXPECT_EQ(jobs[3].id, 3u);
  EXPECT_EQ(jobs[3].target, 0.02);
  EXPECT_EQ(jobs[3].run_index, 1u);
}

TEST(search_session, matches_per_job_approximate_mult) {
  // The session is pure orchestration: its designs must be bit-identical
  // to calling approximate() per (target, run) pair directly.
  const approximation_config cfg = small_mult_config();
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  const sweep_plan plan = small_plan();

  const wmed_approximator approx(cfg);
  std::vector<evolved_design> reference;
  for (const sweep_job& job : plan.jobs()) {
    reference.push_back(approx.approximate(seed, job.target, job.run_index));
  }

  search_session session(make_component(cfg), seed, plan);
  session.run();
  EXPECT_TRUE(session.finished());
  expect_same_designs(session.designs(), reference);
}

TEST(search_session, matches_per_job_approximate_adder) {
  // Second component class through the same type-erased handle: adders run
  // the fast path (width 6) behind the identical session API.
  const adder_approximation_config cfg = small_adder_config();
  const circuit::netlist seed = mult::ripple_adder(6);
  sweep_plan plan;
  plan.targets = {0.001, 0.01};
  plan.runs_per_target = 1;

  const adder_wmed_approximator approx(cfg);
  std::vector<evolved_design> reference;
  for (const sweep_job& job : plan.jobs()) {
    reference.push_back(approx.approximate(seed, job.target, job.run_index));
  }

  search_session session(make_component(cfg), seed, plan);
  session.run();
  EXPECT_TRUE(session.finished());
  expect_same_designs(session.designs(), reference);

  // ...and job-parallel execution changes nothing for adders either.
  session_config options;
  options.job_threads = 2;
  search_session parallel(make_component(cfg), seed, plan, options);
  parallel.run();
  expect_same_designs(parallel.designs(), reference);
}

TEST(search_session, legacy_sweep_equals_session) {
  // sweep() is a thin wrapper over a single-plan session; both surfaces
  // must agree (and the on_design callback order must stay plan order).
  const approximation_config cfg = [] {
    approximation_config c = small_mult_config();
    c.runs_per_target = 2;
    return c;
  }();
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  const std::vector<double> targets{0.002, 0.02};

  const wmed_approximator approx(cfg);
  std::vector<double> observed_targets;
  const auto designs =
      approx.sweep(seed, targets, [&](const evolved_design& d) {
        observed_targets.push_back(d.target);
      });

  sweep_plan plan;
  plan.targets = targets;
  plan.runs_per_target = cfg.runs_per_target;
  search_session session(make_component(cfg), seed, plan);
  session.run();

  expect_same_designs(designs, session.designs());
  ASSERT_EQ(observed_targets.size(), 4u);
  EXPECT_EQ(observed_targets[0], 0.002);
  EXPECT_EQ(observed_targets[3], 0.02);
}

TEST(search_session, job_parallel_bit_identical) {
  // Job-level parallelism must not change any result: each job owns its
  // RNG stream and evaluators, only the shared immutable cache is common.
  const approximation_config cfg = small_mult_config();
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  const sweep_plan plan = small_plan();

  search_session serial(make_component(cfg), seed, plan);
  serial.run();

  for (const std::size_t threads : {2u, 4u}) {
    session_config options;
    options.job_threads = threads;
    search_session parallel(make_component(cfg), seed, plan, options);
    parallel.run();
    EXPECT_TRUE(parallel.finished());
    expect_same_designs(parallel.designs(), serial.designs());
    expect_same_front(parallel.front(), serial.front());
  }
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("axc-session-test-" + name + "-" + std::to_string(::getpid())))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(search_session, checkpoint_bytes_invariant_to_job_threads) {
  // Shard workers run their jobs on every CPU, so a published checkpoint is
  // written by a multi-threaded session: its bytes (the explicit final save
  // and the last autosave alike) must not depend on the job thread count.
  const approximation_config cfg = small_mult_config();
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  sweep_plan plan = small_plan();
  plan.targets.push_back(0.05);

  std::string final_bytes[2];
  std::string autosave_bytes[2];
  const std::size_t thread_counts[2] = {1, 4};
  for (std::size_t i = 0; i < 2; ++i) {
    const std::string tag = "threads" + std::to_string(thread_counts[i]);
    session_config options;
    options.job_threads = thread_counts[i];
    options.autosave_path = temp_path(tag + "-autosave");
    options.autosave_generations = 64;
    search_session session(make_component(cfg), seed, plan, options);
    session.run();
    ASSERT_TRUE(session.finished());
    const std::string final_path = temp_path(tag + "-final");
    ASSERT_TRUE(session.save_file(final_path));
    final_bytes[i] = slurp(final_path);
    autosave_bytes[i] = slurp(options.autosave_path);
    std::filesystem::remove(final_path);
    std::filesystem::remove(options.autosave_path);
  }
  EXPECT_FALSE(final_bytes[0].empty());
  EXPECT_EQ(final_bytes[1], final_bytes[0]);
  EXPECT_EQ(autosave_bytes[1], autosave_bytes[0]);
  EXPECT_EQ(autosave_bytes[0], final_bytes[0]);
}

TEST(search_session, shared_evaluator_cache_built_once) {
  // The ROADMAP lever this PR closes: one exact-plane build per session,
  // not one per run.  Width 6 exercises the fast path's bit-plane tables.
  approximation_config cfg = small_mult_config();
  cfg.spec = mult_spec{6, false};
  cfg.distribution = dist::pmf::half_normal(64, 16.0);
  cfg.iterations = 40;
  const component_handle component = make_component(cfg);
  EXPECT_EQ(component.cache_builds(), 0u);

  search_session session(component, mult::unsigned_multiplier(6),
                         small_plan());
  session.run();
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.total_jobs(), 4u);
  EXPECT_EQ(component.cache_builds(), 1u);
}

TEST(search_session, progress_events_cover_job_lifecycle) {
  const approximation_config cfg = small_mult_config();
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  sweep_plan plan;
  plan.targets = {0.02};
  plan.runs_per_target = 1;

  std::vector<progress_event> events;
  session_config options;
  options.generation_stride = 100;
  options.on_progress = [&](const progress_event& e) {
    events.push_back(e);
  };
  search_session session(make_component(cfg), seed, plan, options);
  session.run();

  ASSERT_GE(events.size(), 3u);
  EXPECT_EQ(events.front().kind, progress_kind::job_started);
  EXPECT_EQ(events.front().total_jobs, 1u);
  EXPECT_EQ(events.back().kind, progress_kind::session_finished);
  EXPECT_EQ(events.back().completed_jobs, 1u);

  std::size_t generations = 0, improvements = 0, finished = 0;
  for (const progress_event& e : events) {
    if (e.kind == progress_kind::job_generation) ++generations;
    if (e.kind == progress_kind::job_improved) ++improvements;
    if (e.kind == progress_kind::job_finished) ++finished;
  }
  // 300 iterations / stride 100 = 3 ticks; the sweep from an exact seed to
  // a loose 2 % target always improves at least once.
  EXPECT_EQ(generations, 3u);
  EXPECT_GE(improvements, 1u);
  EXPECT_EQ(finished, 1u);

  // session_finished is a once-only terminal event: running an
  // already-finished session again must not re-emit it.
  const std::size_t events_after_first_run = events.size();
  session.run();
  EXPECT_EQ(events.size(), events_after_first_run);
}

TEST(search_session, save_resume_reproduces_identical_front) {
  const approximation_config cfg = small_mult_config();
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  const sweep_plan plan = small_plan();
  const component_handle component = make_component(cfg);

  search_session uninterrupted(component, seed, plan);
  uninterrupted.run();

  // Stop after the second completed job (request_stop is safe from inside
  // a progress callback), checkpoint, resume, finish.
  session_config options;
  search_session* stopping_session = nullptr;
  options.on_progress = [&](const progress_event& e) {
    // >= not ==: robust against counter skips under job parallelism.
    if (e.kind == progress_kind::job_finished && e.completed_jobs >= 2) {
      stopping_session->request_stop();
    }
  };
  search_session to_stop(component, seed, plan, options);
  stopping_session = &to_stop;
  to_stop.run();
  EXPECT_TRUE(to_stop.stopped());
  EXPECT_FALSE(to_stop.stop_requested());  // consumed by run()
  EXPECT_EQ(to_stop.completed_jobs(), 2u);
  EXPECT_FALSE(to_stop.finished());

  std::stringstream checkpoint;
  to_stop.save(checkpoint);

  std::optional<search_session> resumed =
      search_session::resume(checkpoint, component);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->completed_jobs(), 2u);
  EXPECT_EQ(resumed->total_jobs(), 4u);
  EXPECT_EQ(resumed->seed(), seed);

  resumed->run();
  EXPECT_TRUE(resumed->finished());
  expect_same_designs(resumed->designs(), uninterrupted.designs());
  expect_same_front(resumed->front(), uninterrupted.front());
}

TEST(search_session, cancel_mid_run_leaves_job_pending) {
  // A stop request between generations abandons the in-flight run; the job
  // re-runs from scratch on the next run() and lands on the same result.
  const approximation_config cfg = small_mult_config();
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  sweep_plan plan;
  plan.targets = {0.02};
  plan.runs_per_target = 1;

  search_session reference(make_component(cfg), seed, plan);
  reference.run();

  session_config options;
  options.generation_stride = 50;
  search_session* session_ptr = nullptr;
  bool stop_fired = false;
  options.on_progress = [&](const progress_event& e) {
    if (e.kind == progress_kind::job_generation && !stop_fired) {
      stop_fired = true;
      session_ptr->request_stop();
    }
  };
  search_session session(make_component(cfg), seed, plan, options);
  session_ptr = &session;
  session.run();
  EXPECT_EQ(session.completed_jobs(), 0u);
  EXPECT_FALSE(session.finished());

  session.run();  // re-runs the abandoned job from scratch
  EXPECT_TRUE(session.finished());
  expect_same_designs(session.designs(), reference.designs());
}

TEST(search_session, stop_requested_before_run_wins) {
  // A request_stop() that lands before (or while) run() starts must not be
  // swallowed: that run executes nothing, and the next run() proceeds.
  const approximation_config cfg = small_mult_config();
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  sweep_plan plan;
  plan.targets = {0.02};

  search_session session(make_component(cfg), seed, plan);
  session.request_stop();
  EXPECT_TRUE(session.stop_requested());
  session.run();
  EXPECT_EQ(session.completed_jobs(), 0u);
  EXPECT_TRUE(session.stopped());

  session.run();
  EXPECT_TRUE(session.finished());
  EXPECT_FALSE(session.stopped());

  // front() indices resolve through design(), including on a session that
  // completed in stages.
  for (const auto& p : session.front()) {
    const auto d = session.design(p.index);
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(d->wmed, p.x);
    EXPECT_EQ(d->area_um2, p.y);
  }
  EXPECT_FALSE(session.design(99).has_value());
}

TEST(search_session, resume_rejects_mismatched_component) {
  const approximation_config cfg = small_mult_config();
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  sweep_plan plan;
  plan.targets = {0.02};

  search_session session(make_component(cfg), seed, plan);
  session.run();
  std::stringstream checkpoint;
  session.save(checkpoint);

  approximation_config other = cfg;
  other.rng_seed = 999;  // a different search: resuming would lie
  EXPECT_FALSE(search_session::resume(checkpoint, make_component(other))
                   .has_value());

  // A different operand distribution changes every job's result even
  // though name/width/seed/budget all match — the fingerprint catches it.
  checkpoint.clear();
  checkpoint.seekg(0);
  approximation_config skewed = cfg;
  skewed.distribution = dist::pmf::half_normal(16, 2.0);
  EXPECT_FALSE(search_session::resume(checkpoint, make_component(skewed))
                   .has_value());

  // So does a different cell library (it drives the area objective).
  checkpoint.clear();
  checkpoint.seekg(0);
  approximation_config relibbed = cfg;
  relibbed.library = &tech::cell_library::unit();
  EXPECT_FALSE(search_session::resume(checkpoint, make_component(relibbed))
                   .has_value());

  // The matching handle still resumes after the rejected attempts.
  checkpoint.clear();
  checkpoint.seekg(0);
  EXPECT_TRUE(
      search_session::resume(checkpoint, make_component(cfg)).has_value());

  std::stringstream garbage("not a checkpoint\n");
  EXPECT_FALSE(
      search_session::resume(garbage, make_component(cfg)).has_value());
}

TEST(search_session, zero_runs_per_target_is_an_empty_sweep) {
  // Legacy sweep() returned an empty vector for runs_per_target == 0; the
  // session path must keep that contract instead of asserting.
  approximation_config cfg = small_mult_config();
  cfg.runs_per_target = 0;
  const wmed_approximator approx(cfg);
  const std::vector<double> targets{0.01};
  EXPECT_TRUE(approx.sweep(mult::unsigned_multiplier(4), targets).empty());

  sweep_plan plan;
  plan.targets = targets;
  plan.runs_per_target = 0;
  search_session session(make_component(cfg), mult::unsigned_multiplier(4),
                         plan);
  session.run();
  EXPECT_TRUE(session.finished());
  EXPECT_EQ(session.total_jobs(), 0u);
  EXPECT_TRUE(session.designs().empty());
}

TEST(component_registry, runtime_selection_matches_typed_config) {
  component_options options;
  options.width = 4;
  options.distribution = dist::pmf::half_normal(16, 4.0);
  options.iterations = 300;
  options.extra_columns = 16;
  options.rng_seed = 11;

  const component_handle by_name =
      component_registry::instance().make("mult", options);
  ASSERT_TRUE(static_cast<bool>(by_name));
  EXPECT_EQ(by_name.name(), "mult");
  EXPECT_EQ(by_name.width(), 4u);
  EXPECT_EQ(by_name.seed_inputs(), 8u);
  EXPECT_EQ(by_name.seed_outputs(), 8u);

  const component_handle typed = make_component(small_mult_config());
  const circuit::netlist seed = mult::unsigned_multiplier(4);
  const auto a = by_name.run_job(seed, 0.01, 0);
  const auto b = typed.run_job(seed, 0.01, 0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->netlist, b->netlist);
  EXPECT_EQ(a->wmed, b->wmed);

  EXPECT_FALSE(static_cast<bool>(
      component_registry::instance().make("divider", options)));

  const auto names = component_registry::instance().names();
  EXPECT_NE(std::find(names.begin(), names.end(), "mult"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "adder"), names.end());
}

TEST(component_registry, adder_component_runs_jobs) {
  component_options options;
  options.width = 6;
  options.iterations = 60;
  options.extra_columns = 12;
  const component_handle adder =
      component_registry::instance().make("adder", options);
  ASSERT_TRUE(static_cast<bool>(adder));
  EXPECT_EQ(adder.seed_outputs(), 7u);  // w + 1 sum bits
  const auto design = adder.run_job(mult::ripple_adder(6), 0.01, 0);
  ASSERT_TRUE(design.has_value());
  EXPECT_LE(design->wmed, 0.01 + 1e-12);
}

}  // namespace
}  // namespace axc::core
