// Shared pieces of the axbench driver: statistics, front quality, span
// tracing, child processes, workload inputs and the run context.
//
// Everything the programs under test receive is a pure function of the
// workload seed (see the input generators below); the driver itself is the
// only place that looks at a clock.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "core/pareto.h"
#include "core/result_server.h"
#include "core/shard_runner.h"
#include "support/net.h"

namespace axbench {

namespace core = axc::core;

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(bench_clock::time_point a,
                                            bench_clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- statistics ------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of the samples; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// The reporting rule for tails: the highest of p50, p90, p99, p99.9 and
/// p99.99 that has at least ten samples beyond it (samples ranked above
/// ceil(q * n)).  nullopt below 20 samples, where no percentile qualifies.
[[nodiscard]] std::optional<double> tail_quantile(std::size_t samples);

// ---- front quality ---------------------------------------------------------

/// Area dominated by `points` (both objectives minimized) inside the box
/// bounded by the reference point; points not strictly better than the
/// reference in both objectives contribute nothing.
[[nodiscard]] double hypervolume(
    std::vector<std::pair<double, double>> points, double ref_x,
    double ref_y);

/// front_hv: hypervolume of a WMED-vs-area front in the (log10 WMED, area)
/// plane, WMED floored at 1e-7, against the fixed reference point
/// (WMED = 1, area = the exact seed circuit's area), as a share of the
/// reference box.  In (0, 1] whenever one design is smaller than the seed.
[[nodiscard]] double front_hv(const std::vector<core::pareto_point>& front,
                              double exact_area);

// ---- tracing ---------------------------------------------------------------

struct span_record {
  const char* name{""};
  std::uint64_t id{0};
  std::uint64_t parent{0};   ///< 0 = root
  std::uint64_t request{0};  ///< shared by every span of one request
  double start_us{0.0};      ///< since the tracer was created
  double end_us{0.0};
};

/// In-memory span sink.  Spans are appended when they close and written out
/// once, when the run ends.  A null tracer pointer means "tracing off": the
/// scoped_span guards below then do nothing at all.
class tracer {
 public:
  tracer() : origin_(bench_clock::now()) {}
  tracer(const tracer&) = delete;
  tracer& operator=(const tracer&) = delete;

  [[nodiscard]] std::uint64_t next_id();
  [[nodiscard]] double now_us() const;
  void record(const span_record& span);
  [[nodiscard]] std::vector<span_record> spans() const;
  /// Writes every span as one JSON document; false on I/O failure.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  bench_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<span_record> spans_;
  std::uint64_t next_id_{0};
};

/// RAII span around one call.  Nested guards on the same thread become
/// children; a non-zero `request` starts a new request id, otherwise the
/// enclosing span's id is inherited.
class scoped_span {
 public:
  scoped_span(tracer* sink, const char* name, std::uint64_t request = 0);
  scoped_span(const scoped_span&) = delete;
  scoped_span& operator=(const scoped_span&) = delete;
  ~scoped_span();

 private:
  tracer* sink_;
  span_record record_{};
  std::uint64_t saved_parent_{0};
  std::uint64_t saved_request_{0};
};

// ---- child processes -------------------------------------------------------

/// One program under test, started with posix_spawn.  stdout goes to
/// `out_path`, stderr to `out_path + ".log"`.  The destructor kills and
/// reaps a child that is still running, so no early return leaves an
/// orphan behind.
class child {
 public:
  child() = default;
  child(const child&) = delete;
  child& operator=(const child&) = delete;
  child(child&& other) noexcept : pid_(std::exchange(other.pid_, -1)) {}
  child& operator=(child&& other) noexcept;
  ~child() { kill_and_reap(); }

  [[nodiscard]] static std::optional<child> spawn(
      const std::vector<std::string>& argv, const std::string& out_path);

  /// Blocks until exit; the shell-style code (128 + signal when killed).
  int wait();
  /// SIGTERM, then up to `grace_seconds` for a clean exit, then SIGKILL.
  int stop(double grace_seconds);

 private:
  void kill_and_reap();
  pid_t pid_{-1};
};

/// Largest resident set, in MiB, of any reaped descendant process
/// (getrusage RUSAGE_CHILDREN).  Workers count because their parents reap
/// them before the driver reaps the parent.
[[nodiscard]] double children_peak_rss_mb();

// ---- run context -----------------------------------------------------------

struct context {
  std::string workload;
  std::uint64_t seed{1};
  double seconds{10.0};
  bool trace{false};
  /// Tiny budgets for the self-test: checks every metric prints, not speed.
  bool short_mode{false};
  std::string bin_dir;  ///< where axc_sweep / axc_worker / axc_serve live
  std::string run_dir;  ///< scratch for this run; removed at exit
  std::string results_dir;  ///< result records and span dumps
  unsigned nproc{1};

  [[nodiscard]] std::string tool(const char* name) const {
    return bin_dir + "/" + name;
  }
};

// ---- workload inputs (pure functions of the seed) ---------------------------

/// splitmix64 of (seed, stream): independent seeded streams per input kind.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/// sweep_mult8: 8-bit unsigned multiplier under half_normal(256, 24), the 14
/// default targets x 2 runs, fixed generation budget; `variant` picks one
/// of the run's seeded rng_seeds.
[[nodiscard]] core::sweep_spec mult8_sweep_spec(const context& ctx,
                                                std::size_t variant);
/// The distinct specs whose fronts serve_mixed pre-publishes for its hits.
[[nodiscard]] std::vector<core::sweep_spec> hit_specs(const context& ctx);
/// The i-th tiny 8-bit adder sweep of serve_mixed's miss stream.
[[nodiscard]] core::sweep_spec miss_spec(const context& ctx, std::size_t i);
/// Area of the spec's exact seed circuit (the front_hv reference).
[[nodiscard]] double seed_area(const core::sweep_spec& spec);

/// run_sweep_inprocess across `threads` job threads (bit-identical to one).
[[nodiscard]] core::sweep_result reference_sweep(const core::sweep_spec& spec,
                                                 unsigned threads);

// ---- client side of the serving protocol -----------------------------------

/// One request/reply on an open connection: send, receive, parse.  nullopt
/// when any step fails.  Spans (if traced) cover each step.
[[nodiscard]] std::optional<core::serve_reply> exchange(
    const axc::support::net::unix_stream& stream,
    const std::string& request_text, tracer* sink);

/// exchange() over a fresh connection (connect is spanned too).
[[nodiscard]] std::optional<core::serve_reply> request_once(
    const std::string& socket_path, const std::string& request_text,
    tracer* sink);

// ---- results ---------------------------------------------------------------

struct metric {
  std::string name;
  double value{0.0};
  std::string unit;
};

struct outcome {
  std::uint64_t attempted{0};
  std::uint64_t failed{0};
  /// Output-check failures (wrong bytes, wrong front) beside failed ops.
  std::vector<std::string> errors;
  /// What the final JSON line reports (end-to-end or per-layer set).
  std::vector<metric> metrics;
  /// Reported on stdout and in the record file, not in the final line.
  std::vector<metric> details;

  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
};

/// The per-layer ladder on one spec of the workload (traced runs only).
void run_ladder(const context& ctx, const core::sweep_spec& spec,
                tracer& sink, outcome& out);

/// Runs one workload (the end-to-end metrics, or with ctx.trace the
/// tracing overhead and the per-layer ladder); fills `out`.
void run_workload(const context& ctx, outcome& out);

/// Self-tests of the driver's own code (percentile rule, front_hv).
[[nodiscard]] int run_unit_tests();

}  // namespace axbench
