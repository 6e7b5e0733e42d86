// Session-based design-space exploration (the orchestration layer).
//
// The paper's methodology — repeat the CGP search for several target error
// levels E_i and several repetitions, then assemble a Pareto front — is a
// sweep of independent jobs.  A search_session makes that sweep a
// first-class, resumable object instead of a blocking call:
//
//   * a sweep_plan expands (targets x runs_per_target) into explicit jobs,
//     each deterministic in (rng_seed, target, run_index) alone;
//   * a job scheduler runs pending jobs on a thread_pool (job-level
//     parallelism, the search's only parallel axis) — results are
//     bit-identical at any job_threads setting because jobs never share
//     mutable state;
//   * the per-(spec, distribution) evaluator tables are built once per
//     session and shared by every job via the component_handle's cache;
//   * observers get a structured progress_event stream (job started /
//     improved / generation tick / finished), serialized so callbacks
//     need no locking of their own;
//   * request_stop() cancels cooperatively: queued jobs are dropped,
//     in-flight jobs stop at the next generation and stay pending;
//   * the live Pareto archive (WMED vs area, payload = job id) is
//     maintained incrementally as jobs finish;
//   * save()/resume() checkpoint completed jobs — evolved netlists in the
//     circuit::write_netlist text format plus scores and plan state — so a
//     sweep survives process exit and can be sharded across machines by
//     passing the checkpoint around.  A resumed session re-runs pending
//     jobs from scratch (cancelled runs consumed a prefix of their RNG
//     stream), which reproduces exactly the uninterrupted result.
//
// Durability (PR 6): checkpoints are written in the "axc-session v2"
// format — every section (header + each job record) carries a CRC32 and
// the file ends in an `end <count>` footer sentinel.  save_file() is
// atomic and durable (temp file + flush + fsync + rename), so a crash
// mid-save can never clobber the previous good checkpoint.  resume()
// *salvages* truncated or corrupted v2 files: every job record whose CRC
// checks out is restored, damaged records are dropped (they simply re-run)
// — only a damaged header rejects the file.  The pre-CRC v1 format is
// rejected with a named error (re-run the sweep).  session_config grows
// autosave knobs so long sweeps persist progress without any caller code.
//
// The legacy one-shot APIs (basic_wmed_approximator::approximate/sweep)
// are thin wrappers over a single-plan session.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "core/component_handle.h"
#include "core/pareto.h"
#include "core/wmed_approximator.h"

namespace axc::core {

/// One unit of schedulable work: a CGP run at one (target, repetition).
struct sweep_job {
  std::size_t id{0};  ///< index into the expanded plan (target-major)
  double target{0.0};
  std::size_t run_index{0};
};

/// The declarative sweep: targets x runs_per_target, expanded target-major
/// (all repetitions of targets[0] first) to match the legacy sweep order.
struct sweep_plan {
  std::vector<double> targets;
  std::size_t runs_per_target{1};

  [[nodiscard]] std::size_t job_count() const {
    return targets.size() * runs_per_target;
  }
  [[nodiscard]] std::vector<sweep_job> jobs() const;
};

enum class progress_kind : std::uint8_t {
  job_started,
  job_generation,  ///< periodic tick (session_config::generation_stride)
  job_improved,    ///< the run's parent strictly improved
  job_finished,
  session_finished,  ///< every job of the plan has completed
};

/// One entry of the session's structured progress stream.  Events are
/// emitted under a dedicated callback lock, so observers see a serialized
/// stream and may freely call session accessors (designs()/front()/save())
/// or request_stop() from inside the callback.
struct progress_event {
  progress_kind kind{progress_kind::job_started};
  std::size_t job_id{0};
  double target{0.0};
  std::size_t run_index{0};
  /// Generations completed when the event fired (0 for job_started).
  std::size_t generation{0};
  /// Best-so-far score (job_improved / job_generation: the parent's
  /// constrained error and area; job_finished: the measured final WMED and
  /// area of the compacted design).
  double wmed{0.0};
  double area_um2{0.0};
  /// Session-level completion counters at emit time.
  std::size_t completed_jobs{0};
  std::size_t total_jobs{0};
};

struct session_config {
  /// Worker threads for running jobs concurrently (1 = in-order serial).
  /// Each job itself runs single-threaded.
  std::size_t job_threads{1};
  /// Emit a job_generation event every N generations (0 = never).
  std::size_t generation_stride{0};
  std::function<void(const progress_event&)> on_progress{};
  /// Observes completed designs (legacy sweep() callback compatibility).
  std::function<void(const evolved_design&)> on_design{};
  /// When non-empty, the session checkpoints itself (atomic save_file) to
  /// this path after every completed job — so a killed process loses at
  /// most the in-flight jobs, which re-run deterministically on resume.
  std::string autosave_path{};
  /// Additionally autosave every N generation ticks counted across all
  /// running jobs (0 = only on job completion).  Mid-job autosaves still
  /// record only *completed* jobs; the knob bounds the wall-clock between
  /// checkpoints when individual jobs are long.
  std::size_t autosave_generations{0};
};

/// What resume() found in the checkpoint (optional out-param; resuming
/// never depends on it).  `salvaged` means the file was damaged and the
/// intact prefix/records were recovered instead of rejecting the file.
struct resume_report {
  /// Checkpoint format version: 2, or 1 for a rejected pre-CRC file.
  unsigned version{0};
  bool salvaged{false};
  std::size_t jobs_recovered{0};
  std::size_t jobs_dropped{0};  ///< corrupt/truncated records skipped
};

class search_session {
 public:
  /// `seed` is the exact circuit every job starts from; its shape must
  /// match the component (seed_inputs/seed_outputs).
  search_session(component_handle component, circuit::netlist seed,
                 sweep_plan plan, session_config options = {});
  search_session(search_session&&) noexcept;
  search_session& operator=(search_session&&) noexcept;
  ~search_session();

  /// Runs every pending job; returns when all completed or after
  /// request_stop() has drained the in-flight jobs.  A stop request is
  /// consumed when run() returns (stopped() records that it fired), so
  /// calling run() again continues the stopped session in-process; a
  /// request that races run()'s start wins and that run() executes
  /// nothing.
  void run();

  /// Cooperative cancellation, callable from any thread including progress
  /// callbacks: drops queued jobs, stops in-flight runs at their next
  /// generation (those jobs stay pending and re-run from scratch later).
  void request_stop();
  /// A stop request is pending (not yet consumed by a run()).
  [[nodiscard]] bool stop_requested() const;
  /// The most recent run() ended early via request_stop().
  [[nodiscard]] bool stopped() const;

  [[nodiscard]] const component_handle& component() const;
  [[nodiscard]] const circuit::netlist& seed() const;
  [[nodiscard]] const sweep_plan& plan() const;
  [[nodiscard]] std::size_t total_jobs() const;
  [[nodiscard]] std::size_t completed_jobs() const;
  [[nodiscard]] bool finished() const;

  /// Completed designs in plan order (pending jobs omitted).  After an
  /// uninterrupted run this equals the legacy sweep() result bit for bit,
  /// at any job_threads setting.  NOTE: on a partially-completed session
  /// positions do NOT correspond to job ids — resolve a front() point's
  /// index through design(), not through this vector.
  [[nodiscard]] std::vector<evolved_design> designs() const;

  /// The completed design of one job (nullopt while the job is pending) —
  /// the lookup to use for front() indices.
  [[nodiscard]] std::optional<evolved_design> design(
      std::size_t job_id) const;

  /// Snapshot of the live Pareto archive: x = WMED, y = area_um2,
  /// index = job id (resolve via design(index)).
  [[nodiscard]] std::vector<pareto_point> front() const;

  /// Writes the checkpoint ("axc-session v2"): component fingerprint, plan,
  /// seed netlist and every completed job (scores + evolved netlist), each
  /// section closed by a CRC32 line, the file by an `end <count>` footer.
  /// Text, diffable, netlists in the circuit::write_netlist format.
  void save(std::ostream& os) const;
  /// Atomic and durable: writes `<path>.tmp`, flushes, fsyncs, renames
  /// over `path`, then fsyncs the parent directory (rename alone is not
  /// durable across power loss) — false on any failure, and a previously
  /// saved good checkpoint at `path` is never clobbered by a failed save.
  [[nodiscard]] bool save_file(const std::string& path) const;

  /// Rebuilds a session from a checkpoint.  The handle must describe the
  /// same search (name, width, rng_seed, iterations are fingerprinted);
  /// nullopt on a damaged header or a fingerprint mismatch (reason on
  /// stderr).  Completed jobs are restored verbatim; run() then executes
  /// only the remainder, and the final designs()/front() equal an
  /// uninterrupted run's.  v2 checkpoints are *salvaged*: job records with
  /// failing CRCs (bit flips, torn writes, truncation) are dropped and
  /// everything intact is recovered — the dropped jobs merely re-run.
  /// `report` (optional) describes what was recovered.
  [[nodiscard]] static std::optional<search_session> resume(
      std::istream& is, component_handle component,
      session_config options = {}, resume_report* report = nullptr);
  [[nodiscard]] static std::optional<search_session> resume_file(
      const std::string& path, component_handle component,
      session_config options = {}, resume_report* report = nullptr);

 private:
  struct impl;
  explicit search_session(std::unique_ptr<impl> state);

  /// The v2 parser behind resume(): parses from memory with per-section
  /// CRC checks and record-level salvage.
  [[nodiscard]] static std::optional<search_session> resume_v2(
      const std::string& text, component_handle component,
      session_config options, resume_report* report);

  std::unique_ptr<impl> impl_;
};

}  // namespace axc::core
