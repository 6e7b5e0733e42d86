// The per-layer ladder of a traced run.  Each rung times or counts calls
// into one module's public functions, made from here, on one spec of the
// workload under test.  Which end-to-end metric each rung should move is
// listed in perfbench/README.md.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <thread>

#include "common.h"
#include "core/result_store.h"
#include "core/search_session.h"
#include "metrics/wmed_evaluator.h"
#include "support/net.h"

namespace axbench {

namespace fs = std::filesystem;

namespace {

using axc::metrics::basic_wmed_evaluator;

double us_since(bench_clock::time_point t0) {
  return seconds_between(t0, bench_clock::now()) * 1e6;
}

/// Median per-call time in µs of `fn`, over `batches` batches of `per_batch`
/// calls (batching keeps clock reads out of sub-µs calls).
template <typename Fn>
double per_call_us(tracer& sink, const char* name, std::size_t batches,
                   std::size_t per_batch, Fn&& fn) {
  std::vector<double> samples;
  for (std::size_t b = 0; b < batches; ++b) {
    scoped_span s(&sink, name);
    const auto t0 = bench_clock::now();
    for (std::size_t i = 0; i < per_batch; ++i) fn();
    samples.push_back(us_since(t0) / static_cast<double>(per_batch));
  }
  return median(std::move(samples));
}

class ladder {
 public:
  ladder(const context& ctx, const core::sweep_spec& spec, tracer& sink,
         outcome& out)
      : ctx_(ctx), spec_(spec), sink_(sink), out_(out),
        reps_(ctx.short_mode ? 3 : 9) {}

  void run() {
    scoped_span root(&sink_, "ladder", 1ULL << 50);
    if (spec_.component == "mult") {
      evaluator_rungs(axc::metrics::mult_spec{spec_.options.width,
                                              spec_.options.is_signed});
    } else {
      evaluator_rungs(axc::metrics::adder_spec{spec_.options.width});
    }
    session_rungs();
    shard_rungs();
    store_and_net_rungs();
    server_rungs();
  }

 private:
  void add(const char* name, double value, const char* unit) {
    out_.metrics.push_back({name, value, unit});
  }

  /// Three of the plan's targets: the tightest, a middle one, the loosest.
  [[nodiscard]] std::vector<double> probe_targets() const {
    const auto& t = spec_.plan.targets;
    return {t.front(), t[t.size() / 2], t.back()};
  }

  // ---- metrics + cgp -------------------------------------------------------

  template <typename Spec>
  void evaluator_rungs(const Spec& typed) {
    using evaluator = basic_wmed_evaluator<Spec>;
    std::vector<double> build_ms;
    std::shared_ptr<const typename evaluator::shared_state> shared;
    for (std::size_t r = 0; r < reps_; ++r) {
      scoped_span s(&sink_, "metrics.make_shared_state");
      const auto t0 = bench_clock::now();
      shared = evaluator::make_shared_state(typed, spec_.options.distribution);
      build_ms.push_back(us_since(t0) / 1e3);
    }
    add("metrics.shared_state_ms", median(build_ms), "ms");

    // cgp: generation deltas through component_handle::run_job.
    const core::component_handle handle = spec_.make_component();
    std::vector<double> deltas_us;
    double evals = 0.0;
    double improvements = 0.0;
    for (const double target : probe_targets()) {
      std::vector<bench_clock::time_point> ticks;
      ticks.reserve(spec_.options.iterations + 1);
      core::search_hooks hooks;
      hooks.on_generation = [&ticks](std::size_t, const auto&) {
        ticks.push_back(bench_clock::now());
      };
      std::optional<core::evolved_design> design;
      {
        scoped_span s(&sink_, "cgp.run_job");
        design = handle.run_job(spec_.seed, target, 0, hooks);
      }
      if (!design) {
        out_.fail("ladder: run_job returned no design");
        continue;
      }
      for (std::size_t i = 1; i < ticks.size(); ++i) {
        deltas_us.push_back(seconds_between(ticks[i - 1], ticks[i]) * 1e6);
      }
      evals += static_cast<double>(design->evaluations);
      improvements += static_cast<double>(design->improvements);
      designs_.push_back(*std::move(design));
    }
    const double jobs = static_cast<double>(probe_targets().size());
    add("cgp.generation_p50_us", median(deltas_us), "us");
    add("cgp.generation_p99_us", quantile(deltas_us, 0.99), "us");
    add("cgp.evals_per_job", evals / jobs, "count");
    add("cgp.improvements_per_job", improvements / jobs, "count");

    // Full sweeps vs the distribution-ordered early abort: the evolved
    // designs under no bound, then under the plan's tightest target (which
    // every design evolved for a looser target exceeds).
    evaluator ev(shared);
    const double bound = spec_.plan.targets.front();
    double sum = 0.0;
    const double full = per_call_us(sink_, "metrics.evaluate_full", reps_,
                                    designs_.size(), [&, i = 0u]() mutable {
                                      sum += ev.evaluate(
                                          designs_[i++ % designs_.size()]
                                              .netlist);
                                    });
    const double abort = per_call_us(
        sink_, "metrics.evaluate_abort", reps_, designs_.size(),
        [&, i = 0u]() mutable {
          sum += ev.evaluate(designs_[i++ % designs_.size()].netlist, bound);
        });
    add("metrics.evaluate_full_us", full, "us");
    add("metrics.evaluate_abort_us", abort, "us");
    if (!(sum >= 0.0)) out_.fail("ladder: evaluator returned NaN");
  }

  // ---- core.session --------------------------------------------------------

  void session_rungs() {
    struct job_times {
      bench_clock::time_point start, first_tick, last_tick, finish;
      std::size_t ticks{0};
    };
    std::vector<job_times> jobs(probe_targets().size());
    core::sweep_plan plan;
    plan.targets = probe_targets();
    plan.runs_per_target = 1;
    core::session_config config;
    config.job_threads = 1;
    config.generation_stride = 1;
    config.on_progress = [&jobs](const core::progress_event& e) {
      const auto now = bench_clock::now();
      job_times& j = jobs[e.job_id];
      switch (e.kind) {
        case core::progress_kind::job_started: j.start = now; break;
        case core::progress_kind::job_generation:
          if (j.ticks++ == 0) j.first_tick = now;
          j.last_tick = now;
          break;
        case core::progress_kind::job_finished: j.finish = now; break;
        default: break;
      }
    };
    core::search_session session(spec_.make_component(), spec_.seed, plan,
                                 config);
    {
      scoped_span s(&sink_, "session.run");
      session.run();
    }
    std::vector<double> job_ms;
    std::vector<double> overhead_ms;
    for (const job_times& j : jobs) {
      const double span = seconds_between(j.start, j.finish) * 1e3;
      // Generation spans: tick-to-tick, plus the first generation priced at
      // the job's mean generation time.
      double generations = 0.0;
      if (j.ticks > 1) {
        const double between = seconds_between(j.first_tick, j.last_tick) * 1e3;
        generations = between * static_cast<double>(j.ticks) /
                      static_cast<double>(j.ticks - 1);
      }
      job_ms.push_back(span);
      overhead_ms.push_back(span - generations);
    }
    add("session.job_p50_ms", median(job_ms), "ms");
    add("session.job_max_ms", quantile(job_ms, 1.0), "ms");
    add("session.job_overhead_ms", median(overhead_ms), "ms");

    const std::string path = ctx_.run_dir + "/ladder-session.axs";
    std::vector<double> save_ms;
    std::vector<double> resume_ms;
    for (std::size_t r = 0; r < reps_; ++r) {
      scoped_span s(&sink_, "session.save_file");
      const auto t0 = bench_clock::now();
      if (!session.save_file(path)) out_.fail("ladder: save_file failed");
      save_ms.push_back(us_since(t0) / 1e3);
    }
    for (std::size_t r = 0; r < reps_; ++r) {
      scoped_span s(&sink_, "session.resume_file");
      const auto t0 = bench_clock::now();
      auto resumed =
          core::search_session::resume_file(path, spec_.make_component());
      resume_ms.push_back(us_since(t0) / 1e3);
      if (!resumed || resumed->completed_jobs() != plan.job_count()) {
        out_.fail("ladder: resume_file lost jobs");
      }
    }
    add("session.checkpoint_save_ms", median(save_ms), "ms");
    add("session.checkpoint_resume_ms", median(resume_ms), "ms");
    std::ostringstream os;
    session.save(os);
    checkpoint_ = os.str();
  }

  // ---- core.shard_runner ---------------------------------------------------

  void shard_rungs() {
    struct shard_times {
      std::optional<bench_clock::time_point> spawned, heartbeat, completed;
    };
    std::vector<shard_times> shards(2);
    const std::string dir = ctx_.run_dir + "/ladder-sweep";
    core::shard_runner_config config;
    config.shards = 2;
    config.work_dir = dir + "/work";
    config.store_dir = dir + "/store";
    config.worker_binary = ctx_.tool("axc_worker");
    config.on_event = [&shards](const core::shard_event& e) {
      if (e.shard >= shards.size()) return;
      const auto now = bench_clock::now();
      shard_times& s = shards[e.shard];
      using kind = core::shard_event_kind;
      if (e.kind == kind::spawned && !s.spawned) s.spawned = now;
      if (e.kind == kind::heartbeat && !s.heartbeat) s.heartbeat = now;
      if (e.kind == kind::completed) s.completed = now;
    };
    core::sweep_result result;
    {
      scoped_span s(&sink_, "shard.run_sweep");
      result = core::run_sweep(spec_, config);
    }
    const auto returned = bench_clock::now();
    if (!result.complete) out_.fail("ladder: run_sweep incomplete");
    front_ = core::serialize_front(result.front);

    std::vector<double> to_heartbeat_ms;
    std::vector<double> busy_ms;
    std::optional<bench_clock::time_point> last_completed;
    for (const shard_times& s : shards) {
      if (!s.spawned || !s.completed) continue;
      const auto beat = s.heartbeat.value_or(*s.completed);
      to_heartbeat_ms.push_back(seconds_between(*s.spawned, beat) * 1e3);
      busy_ms.push_back(seconds_between(*s.spawned, *s.completed) * 1e3);
      if (!last_completed || *s.completed > *last_completed) {
        last_completed = s.completed;
      }
    }
    double attempts = 0.0;
    for (const core::shard_outcome& s : result.shards) {
      attempts += static_cast<double>(s.attempts);
    }
    double mean_busy = 0.0;
    for (const double b : busy_ms) mean_busy += b;
    mean_busy /= std::max<std::size_t>(1, busy_ms.size());
    add("shard.spawn_to_heartbeat_ms", median(to_heartbeat_ms), "ms");
    add("shard.busy_ms", median(busy_ms), "ms");
    add("shard.imbalance",
        mean_busy > 0.0 ? quantile(busy_ms, 1.0) / mean_busy : 0.0, "ratio");
    add("shard.tail_ms",
        last_completed ? seconds_between(*last_completed, returned) * 1e3
                       : 0.0,
        "ms");
    add("shard.attempts", attempts, "count");
  }

  // ---- core.result_store + support.net -------------------------------------

  void store_and_net_rungs() {
    auto store = core::result_store::open(ctx_.run_dir + "/ladder-store");
    if (!store) {
      out_.fail("ladder: cannot open store");
      return;
    }
    std::vector<double> put_ms;
    for (std::size_t r = 0; r < reps_; ++r) {
      scoped_span s(&sink_, "store.put");
      const auto t0 = bench_clock::now();
      if (!store->put("session", core::result_store::format_key(r + 1),
                      checkpoint_)) {
        out_.fail("ladder: store put failed");
      }
      put_ms.push_back(us_since(t0) / 1e3);
    }
    add("store.put_ms", median(put_ms), "ms");

    const std::string key = core::result_store::format_key(spec_.store_key());
    if (!store->put("front", key, front_)) out_.fail("ladder: put failed");
    bool same = true;
    add("store.get_us",
        per_call_us(sink_, "store.get", reps_, 50,
                    [&] { same = same && store->get("front", key) == front_; }),
        "us");
    if (!same) out_.fail("ladder: store get returned other bytes");

    core::serve_request request;
    request.spec = spec_;
    const std::string request_text = core::encode_request(request);
    const std::string reply_frame = axc::support::net::encode_frame(
        core::encode_reply({.status = "hit", .key = key, .payload = front_}));
    std::size_t bytes = 0;
    add("net.encode_us",
        per_call_us(sink_, "net.encode_frame", reps_, 200, [&] {
          bytes += axc::support::net::encode_frame(request_text).size();
        }),
        "us");
    add("net.decode_us",
        per_call_us(sink_, "net.decode_frame", reps_, 200, [&] {
          bytes += axc::support::net::decode_frame(reply_frame, 1u << 24)
                       .value_or(std::string())
                       .size();
        }),
        "us");
    if (bytes == 0) out_.fail("ladder: frames carried no bytes");
  }

  // ---- core.result_server (hosted in-process) -----------------------------

  void server_rungs() {
    const std::string dir = ctx_.run_dir + "/ladder-server";
    const std::string key = core::result_store::format_key(spec_.store_key());
    {
      auto store = core::result_store::open(dir + "/store");
      if (!store || !store->put("front", key, front_)) {
        out_.fail("ladder: cannot publish front");
        return;
      }
    }
    core::server_config config;
    config.store_dir = dir + "/store";
    config.work_dir = dir + "/work";
    config.socket_path = dir + "/s";
    config.worker_binary = ctx_.tool("axc_worker");
    config.queue_limit = 1;
    core::result_server server(config);
    if (!server.start()) {
      out_.fail("ladder: result_server did not start");
      return;
    }
    std::thread accept_loop([&server] { server.serve(); });

    core::serve_request request;
    request.spec = spec_;
    const std::string hit_text = core::encode_request(request);
    bool all_hits = true;
    const std::size_t calls = ctx_.short_mode ? 50 : 400;
    // Interleaved, so both samples see the same machine state.
    std::vector<double> handle_us;
    std::vector<double> round_trip_us;
    for (std::size_t i = 0; i < calls; ++i) {
      {
        scoped_span s(&sink_, "server.handle_request", (1ULL << 51) + i);
        const auto t0 = bench_clock::now();
        const std::string reply = server.handle_request(hit_text);
        handle_us.push_back(us_since(t0));
        all_hits = all_hits &&
                   reply.rfind("axc-serve-reply v1\nstatus hit", 0) == 0;
      }
      scoped_span s(&sink_, "server.round_trip", (1ULL << 52) + i);
      const auto t0 = bench_clock::now();
      const auto reply = request_once(config.socket_path, hit_text, &sink_);
      round_trip_us.push_back(us_since(t0));
      all_hits = all_hits && reply && reply->status == "hit" &&
                 reply->payload == front_;
    }
    if (!all_hits) out_.fail("ladder: hosted server missed a hit");
    const double handle_p50 = median(handle_us);
    add("server.handle_request_us", handle_p50, "us");
    add("server.transport_us", median(round_trip_us) - handle_p50, "us");

    // A miss burst against queue_limit 1: A is enqueued and starts, a
    // second get of A coalesces onto it, B fills the queue, C is refused.
    const auto burst = [&](std::size_t i, const char* verb) {
      core::serve_request r;
      r.verb = verb;
      r.spec = miss_spec(ctx_, (1u << 21) + i);
      return request_once(config.socket_path, core::encode_request(r),
                          &sink_);
    };
    {
      scoped_span s(&sink_, "server.miss_burst", 1ULL << 53);
      const auto a = burst(0, "get");
      const auto a_again = burst(0, "get");
      const auto b = burst(1, "get");
      const auto c = burst(2, "get");
      const auto a_done = burst(0, "wait");
      const auto b_done = burst(1, "wait");
      if (!a || a->status != "miss-enqueued" || !b_done ||
          b_done->status != "hit" || !a_done || a_done->status != "hit") {
        out_.fail("ladder: miss burst did not settle");
      }
      (void)a_again;
      (void)c;
    }
    const core::serve_stats stats = server.stats();
    server.request_stop();
    accept_loop.join();
    add("server.hits", static_cast<double>(stats.hits), "count");
    add("server.coalesced", static_cast<double>(stats.coalesced), "count");
    add("server.rejected", static_cast<double>(stats.rejected), "count");
    add("server.sweeps_completed", static_cast<double>(stats.sweeps_completed),
        "count");
    add("server.useful_work",
        stats.misses_enqueued > 0
            ? static_cast<double>(stats.sweeps_completed) /
                  static_cast<double>(stats.misses_enqueued)
            : 0.0,
        "ratio");
  }

  const context& ctx_;
  const core::sweep_spec& spec_;
  tracer& sink_;
  outcome& out_;
  std::size_t reps_;
  std::vector<core::evolved_design> designs_;
  std::string checkpoint_;
  std::string front_;
};

}  // namespace

void run_ladder(const context& ctx, const core::sweep_spec& spec,
                tracer& sink, outcome& out) {
  ladder(ctx, spec, sink, out).run();
}

}  // namespace axbench
