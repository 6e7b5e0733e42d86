// Fault-tolerant sharded sweep runtime (the coordinator side).
//
// A sweep_plan is embarrassingly parallel across targets, and PR 6's
// durable checkpoints make every shard's progress recoverable — so a sweep
// can be split across worker *processes* and survive worker crashes, hangs
// and truncated autosaves:
//
//   * sweep_spec is a self-contained, serializable description of one
//     sweep (component name + options + plan + seed netlist) — everything
//     a fresh process needs to rebuild the identical search ("axc-sweep-
//     spec v2" text format);
//   * split_plan() cuts the plan into contiguous target sub-plans; global
//     job ids are shard job_offset + local id, so shard results map back
//     into the full plan unambiguously;
//   * run_sweep() writes one spec + checkpoint path per shard, launches
//     one worker process (tools/axc_worker) per shard, and supervises
//     them: heartbeats from checkpoint growth, per-attempt deadlines
//     (attempt_timeout), progress deadlines (stall_timeout), SIGKILL on
//     deadline, retry with exponential backoff up to max_attempts.  A
//     relaunched worker *resumes* the shard's autosaved checkpoint, so a
//     crash only re-runs the jobs that were in flight;
//   * after supervision, every shard checkpoint (including a failed
//     shard's partial one) is salvaged through search_session::resume and
//     merged — designs by global job id, fronts through the order-
//     independent pareto_archive — so the merged result of an interrupted,
//     retried sweep is bit-identical to an uninterrupted single-process
//     run of the same spec (jobs are pure functions of (rng_seed, target,
//     run_index)).
//
// Fault injection for all of the above is deterministic: workers arm
// support/fault.h plans from the AXC_FAULT environment variable, and
// shard_env lets a test hand a poison env to one shard's *first* attempt
// only — the retry must succeed because the state on disk differs, which
// is exactly the property the kill-resume tests pin down.
//
// PR 7 closes the remaining gap: the *coordinator itself* can now die.
// run_sweep keeps an append-only journal (`<work_dir>/coordinator.journal`,
// one self-CRC'd line per record — grammar in src/core/README.md) of every
// supervision milestone: shard spawns with cumulative attempt numbers,
// shard completions/failures, store publishes, and a final `done`.  A
// re-run of the same spec + work_dir replays the journal — completed shards
// are not respawned, attempt counters continue where the dead coordinator
// left them (so shard_env first-attempt poison is never re-applied), and
// surviving shard checkpoints are resumed as usual — then merges and
// publishes a front bit-identical to an uninterrupted run.  When
// config.store_dir is set, the merge publishes into a core::result_store:
// each completed shard checkpoint under kind "session" and, once complete,
// the serialized front under kind "front", both keyed by store_key()
// (idempotent: content-addressed puts make re-publishing after a crash a
// no-op).  Coordinator crash points for the recovery suite:
// `coord-crash-after-spawn` (SIGKILLs all live workers, then _Exit(43)),
// `coord-crash-mid-merge` (_Exit(43) between shard merges) and the store's
// `store-crash-mid-index-append` (_Exit(44) between an object write and
// its index record).
//
// PR 10 takes the runtime off-box.  Workers are launched through
// support::worker_launcher command templates (core/node_pool.h: an empty
// `run` template is today's local fork/exec; `ssh {host} ...` or the CI
// fake-ssh script reach other machines), shards are *leased* to nodes from
// a core::node_pool (consecutive-failure quarantine with timed
// re-probation, per-node backoff), and a dead node's shards are reassigned
// to healthy nodes riding the same spec + checkpoint + journal + merge
// contract — a relaunch on node B resumes the checkpoint fetched from node
// A.  Remote checkpoints are pulled with the node's `fetch` template and
// CRC-verified through the axc-session-v2 salvage path before adoption, so
// a torn transfer is a detected, retried event (`node-fetch-torn`), never
// silent corruption.  Straggler shards can be speculatively duplicated
// onto another node (`speculate_after`); because every job is a pure
// function of (rng_seed, target, run_index) the two copies' results are
// bit-identical and the first CRC-valid completed checkpoint wins.  The
// journal grows `lease`/`fetch`/`release` records on the same CRC-per-line
// grammar (replayed coordinators ignore unknown tags, so the records are
// crash-safe by construction).  Node-level fault points
// (fault::points::node_launch_fail / node_dead_midrun / node_fetch_torn /
// node_heartbeat_stall) make every failure mode a deterministic ctest
// input.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "circuit/netlist.h"
#include "core/component_handle.h"
#include "core/node_pool.h"
#include "core/pareto.h"
#include "core/search_session.h"

namespace axc::core {

class result_store;

/// Everything needed to rebuild one sweep in a fresh process.  Components
/// are rebuilt by name through the component_registry with these options;
/// the cell library and SIMD level are not serialized (workers use the
/// defaults — both are bit-identical execution knobs or fingerprinted,
/// so a mismatch is caught at checkpoint resume, not silently mixed).
struct sweep_spec {
  std::string component{"mult"};
  component_options options{};
  sweep_plan plan{};
  /// Placeholder shape; callers must supply the component's real seed.
  circuit::netlist seed{1, 1};

  /// Registry lookup; empty handle when `component` is unknown.
  [[nodiscard]] component_handle make_component() const;

  /// Range checks on top of the syntax: width in 3..12, iterations at
  /// most 2^30, extra-columns at most 2^16, max-mutations in 1..2^16,
  /// lambda in 1..2^10, runs-per-target at most 2^16, finite targets in
  /// [0, 1], an empty or 2^width-entry distribution, and a seed netlist
  /// shaped like the component (when the registry knows it).  Empty when
  /// the spec is usable, else the problem.  make_component() and
  /// store_key() are safe on any spec that passes.
  [[nodiscard]] std::string validate() const;

  /// "axc-sweep-spec v2": strict text format (doubles as %.17g, netlist in
  /// the circuit::write_netlist format, `end` terminator).  Spec files are
  /// coordinator-written scratch, so read() is strict — any damage, or a
  /// spec validate() rejects, returns nullopt.  Each line is split by
  /// support::token_reader (token grammar in src/core/README.md): counts
  /// are unsigned decimal, doubles finite decimal, and a line with tokens
  /// after its last field is damage.
  void write(std::ostream& os) const;
  [[nodiscard]] bool write_file(const std::string& path) const;
  [[nodiscard]] static std::optional<sweep_spec> read(std::istream& is);
  /// read() without the validate() step: syntax only.  For callers that
  /// answer a well-formed but unusable spec differently from damage.
  [[nodiscard]] static std::optional<sweep_spec> parse(std::istream& is);
  [[nodiscard]] static std::optional<sweep_spec> read_file(
      const std::string& path);

  /// Identity of the seed's table (store kind "table"): the component
  /// fingerprint (every result-affecting knob, incl. the distribution
  /// masses bit-for-bit) FNV-folded with the seed netlist's structure (input
  /// count, every gate's fn/in0/in1, the outputs).  0 when the component is
  /// unknown to the registry.
  [[nodiscard]] std::uint64_t table_key() const;
  /// Stable identity of this sweep for the result store and coordinator
  /// journal: table_key(), seed included, FNV-folded with the plan (target
  /// bits + runs_per_target).  Two specs share a key iff they produce
  /// bit-identical sweep results.  0 when table_key() is.
  [[nodiscard]] std::uint64_t store_key() const;
};

/// One shard of a plan: a contiguous target-major slice, plus the global
/// job id of its first job.
struct plan_shard {
  sweep_plan plan{};
  std::size_t job_offset{0};
};

/// Cuts `plan` into at most `shards` contiguous target subsets (never
/// splitting one target's repetitions across shards); at least one target
/// per shard, surplus targets distributed to the leading shards.
[[nodiscard]] std::vector<plan_shard> split_plan(const sweep_plan& plan,
                                                 std::size_t shards);

enum class shard_event_kind : std::uint8_t {
  spawned,     ///< worker process launched (attempt counts from 1)
  heartbeat,   ///< shard checkpoint grew (jobs_done advanced)
  timed_out,   ///< attempt_timeout exceeded — worker killed
  stalled,     ///< stall_timeout without checkpoint growth — worker killed
  exited,      ///< worker exited abnormally (exit_code: 128+sig if killed)
  retrying,    ///< relaunch scheduled after backoff
  completed,   ///< worker finished its shard cleanly
  failed,      ///< attempts exhausted; shard left to checkpoint salvage
  drained,     ///< should_stop() asked for a graceful drain; worker killed
  speculated,  ///< duplicate launch for a straggler shard (another node)
  fetch_torn,  ///< fetched checkpoint failed CRC validation; refetching
};

/// Supervision progress stream (the process-level analogue of
/// progress_event).  Serialized: emitted from the coordinator loop only.
struct shard_event {
  shard_event_kind kind{shard_event_kind::spawned};
  std::size_t shard{0};
  std::size_t attempt{0};
  std::size_t jobs_done{0};  ///< completed jobs visible in the checkpoint
  std::size_t jobs_total{0};  ///< jobs in this shard's plan
  int exit_code{0};           ///< exited/retrying/failed only
  std::string node{};         ///< name of the node the launch ran on
};

struct shard_runner_config {
  /// Worker processes to split the plan across (clamped to target count).
  std::size_t shards{2};
  /// Launch attempts per shard before giving up (>= 1).
  std::size_t max_attempts{3};
  /// Hard deadline per attempt; 0 = none.  Enforced by SIGKILL + retry.
  std::chrono::milliseconds attempt_timeout{0};
  /// Kill an attempt whose checkpoint shows no new completed job for this
  /// long; 0 = none.  Catches live-locked / sleeping workers that would
  /// never hit attempt_timeout sized for the whole shard.
  std::chrono::milliseconds stall_timeout{0};
  /// First relaunch delay; doubles per further attempt.
  std::chrono::milliseconds backoff{100};
  /// Supervision cadence: heartbeat scrapes, stall/attempt deadlines,
  /// backoff, speculation and should_stop run at least this often.  A
  /// worker exit does not wait for it — the loop sleeps in poll() on the
  /// workers' exit fds and ticks as soon as one finishes (plain sleep on
  /// platforms without pidfds).
  std::chrono::milliseconds poll_interval{20};
  /// Forwarded to workers (--autosave-generations): mid-job checkpoint
  /// cadence on top of the per-job autosave workers always run with.
  std::size_t worker_autosave_generations{0};
  /// Scratch directory for shard spec + checkpoint files (created if
  /// missing).  Checkpoints persist across run_sweep calls: re-running a
  /// killed coordinator resumes where its workers left off.
  std::string work_dir{};
  /// Path to the worker executable (tools/axc_worker).
  std::string worker_binary{};
  /// Per-shard extra "KEY=VALUE" environment entries, applied to the FIRST
  /// attempt only (index = shard).
  /// The fault-injection hook: arm AXC_FAULT for one shard's first life and
  /// the retry runs clean — recovery succeeds because the on-disk state
  /// differs, not because the fault went away by luck.
  std::vector<std::vector<std::string>> shard_env{};
  /// When non-empty, publish the merge into a core::result_store at this
  /// root: every completed shard's checkpoint bytes under kind "session"
  /// (key = format_key of that shard spec's store_key()) and — only when
  /// the merge is complete — the serialize_front() text under kind "front"
  /// (key = format_key(spec.store_key())); never a "table" (the server's
  /// `table` verb builds those on request).  Publishing is idempotent, so
  /// a crashed-and-re-run coordinator converges on the same contents.
  std::string store_dir{};
  /// An open store at store_dir to publish through, so a caller that runs
  /// many sweeps (the result server) skips the whole-index load of an open
  /// per sweep.  Not owned; null = open store_dir.
  result_store* store{nullptr};
  /// Nodes to lease shard launches to (core/node_pool.h).  Empty = one
  /// implicit local node with a slot per shard — exactly the single-box
  /// behavior this config had before multi-node dispatch existed.
  std::vector<node_config> nodes{};
  node_policy nodes_policy{};
  /// Straggler speculation: a shard whose only launch has run this long
  /// without completing gets ONE duplicate launch on another node (its own
  /// scratch checkpoint; the first CRC-valid completed checkpoint wins —
  /// harmless because both are bit-identical).  0 = off.
  std::chrono::milliseconds speculate_after{0};
  /// Let speculation losers run to completion instead of killing them when
  /// the winner lands (the byte-equality test harness knob; production
  /// wants the default false).
  bool speculation_keep_losers{false};
  std::function<void(const shard_event&)> on_event{};
  /// Polled once per supervision tick; returning true drains the sweep:
  /// live workers are SIGKILLed (their checkpoints stay), the merge runs
  /// over whatever completed, and the result comes back `drained` (and
  /// normally incomplete — re-running the same spec + work_dir resumes).
  /// How axc_sweep's SIGTERM handler and the result server's shutdown
  /// stop a sweep without orphaning processes or losing durable state.
  std::function<bool()> should_stop{};
};

struct shard_outcome {
  std::size_t shard{0};
  std::size_t attempts{0};
  bool completed{false};  ///< a worker attempt exited 0
  bool timed_out{false};  ///< some attempt was killed on a deadline
  int last_exit_code{0};
  std::size_t jobs_total{0};
  std::size_t jobs_recovered{0};  ///< salvaged from the shard checkpoint
  std::size_t jobs_dropped{0};    ///< damaged checkpoint records skipped
  std::string node{};             ///< node whose checkpoint won the shard
  bool speculative_win{false};    ///< the winner was the duplicate launch
};

/// The merged sweep.  `complete` means every job of the plan has a design;
/// a partial merge (failed shard, damaged checkpoint) still returns every
/// salvaged design and the front over them.
struct sweep_result {
  bool complete{false};
  /// True when config.should_stop ended supervision early (graceful
  /// drain); the merge still covers every salvaged checkpoint.
  bool drained{false};
  /// Completed designs in plan order (missing jobs omitted), equal to an
  /// uninterrupted search_session::designs() when complete.
  std::vector<evolved_design> designs{};
  /// Indexed by global job id (nullopt = job lost with a failed shard).
  std::vector<std::optional<evolved_design>> by_job{};
  /// Merged Pareto front; index = global job id.
  std::vector<pareto_point> front{};
  std::vector<shard_outcome> shards{};
  /// Final node_pool health snapshot (empty for the implicit local node).
  std::vector<node_status> nodes{};
};

/// Runs `spec` sharded across supervised worker processes and merges the
/// surviving checkpoints.  Requires config.worker_binary + work_dir; on
/// platforms without process support every shard fails and the result is
/// an empty partial merge.
[[nodiscard]] sweep_result run_sweep(const sweep_spec& spec,
                                     const shard_runner_config& config);

/// Single-process reference: the same spec through one in-process
/// search_session.  run_sweep() of an interrupted, retried sweep must
/// reproduce this bit for bit — the acceptance property of the runtime.
[[nodiscard]] sweep_result run_sweep_inprocess(const sweep_spec& spec,
                                               session_config options = {});

}  // namespace axc::core
