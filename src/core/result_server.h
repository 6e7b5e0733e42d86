// Approximation-as-a-service: the serving half of the sweep runtime.
//
// PR 6 made sweeps distributable and crash-proof; PR 7 made their results
// durable and content-addressed.  result_server closes the loop the paper
// promises — "spec + width + distribution (+ error budget) -> ranked
// Pareto front" — as a long-lived daemon (tools/axc_serve) answering
// requests over a Unix-domain socket (support/net.h CRC-framed messages):
//
//   * the HIT path is a result_store lookup: `front` objects keyed by
//     sweep_spec::store_key(), served as the exact stored bytes (so a
//     served front is byte-identical to `axc_store get front <key>`) in
//     microseconds.  An optional error budget filters the front to points
//     with wmed <= budget before replying;
//   * the MISS path enqueues a shard_runner::run_sweep on a background
//     job queue.  Jobs are coalesced by store_key — N concurrent
//     identical requests cost ONE sweep — the queue is bounded
//     (explicit `miss-rejected` backpressure, never silent tail growth),
//     and `status` / `wait` verbs poll or block on the in-flight job;
//   * `table` requests serve compiled characterization tables (store
//     kind "table", keyed by sweep_spec::table_key(): component and seed,
//     not the plan).  Their only producer: the first request builds and
//     stores the seed's table, later ones are store hits;
//   * the server inherits the repo's killability contract.  Every
//     accepted miss is journaled (`<work_dir>/server.journal`, CRC'd
//     lines: header `serve v1`, then `enqueue/done/fail <key16>`) with
//     the spec durably written to `<work_dir>/jobs/<key16>.spec` FIRST —
//     so a server killed at any instant (fault points
//     `server-crash-mid-enqueue`, `server-crash-before-reply`, plus the
//     coordinator/store points firing inside the in-server run_sweep)
//     re-adopts unfinished jobs on restart and converges on the same
//     published front;
//   * SIGTERM/SIGINT drain: request_stop() (async-signal-safe via the
//     self-pipe at stop_write_fd()) stops the accept loop, tells the
//     in-flight sweep's supervision loop to kill its workers
//     (shard_runner_config::should_stop), wakes blocked `wait`ers with
//     `draining`, joins every connection thread, and leaves the journal
//     in a state the next life resumes from.
//
// Protocol grammar and failure semantics are documented in
// src/core/README.md ("Serving"); tests/test_result_server.cpp pins the
// five acceptance properties (hit byte-identity, miss->sweep->hit
// bit-exactness vs run_sweep_inprocess, coalescing, kill-restart
// convergence, malformed-frame resilience).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/result_store.h"
#include "core/shard_runner.h"
#include "support/net.h"

namespace axc::core {

// ---- Request/reply text (the payload inside net.h frames) ---------------
//
//   axc-serve v1
//   verb <get|status|wait|table>
//   [budget <%.17g>]           filter: front points with wmed <= budget
//   [timeout-ms <N>]           wait only; how long to block
//   spec
//   <sweep_spec::write text, "axc-sweep-spec v2" ... "end">
//
//   axc-serve-reply v1
//   status <hit|miss-enqueued|miss-rejected|queued|running|failed|
//           unknown|malformed|draining|timeout|error>
//   key <16hex>                store key the request resolved to
//   payload <n>\n<n raw bytes> (hit only; last — bytes are binary-safe)
//   end                        (replies without a payload)

struct serve_request {
  std::string verb{"get"};
  std::optional<double> budget{};
  std::int64_t timeout_ms{30000};  ///< wait verb only
  sweep_spec spec{};
};

struct serve_reply {
  std::string status{"error"};
  std::string key{};
  std::optional<std::string> payload{};
};

[[nodiscard]] std::string encode_request(const serve_request& request);
[[nodiscard]] std::optional<serve_request> parse_request(
    std::string_view text);
[[nodiscard]] std::string encode_reply(const serve_reply& reply);
[[nodiscard]] std::optional<serve_reply> parse_reply(std::string_view text);

struct server_config {
  /// result_store root the server answers from and publishes into.
  std::string store_dir{};
  /// Unix-domain socket path; empty = no socket (in-process
  /// handle_request only — how the protocol unit tests run).
  std::string socket_path{};
  /// Journal + job specs + per-sweep scratch live here.
  std::string work_dir{};
  /// tools/axc_worker path; empty = no sweep capability (every miss is
  /// rejected).
  std::string worker_binary{};
  /// Pending-jobs bound; an enqueue past it is rejected explicitly.
  std::size_t queue_limit{8};
  /// Forwarded to the per-job shard_runner_config.
  std::size_t shards{2};
  std::size_t max_attempts{3};
  /// Multi-node dispatch for miss-path sweeps: nodes parsed from an
  /// axc-nodes v1 file (axc_serve --nodes).  Empty = local workers.
  std::vector<node_config> nodes{};
  std::chrono::milliseconds speculate_after{0};
  /// Largest request frame accepted (a bogus length rejects before any
  /// allocation).
  std::size_t max_frame_bytes{1u << 20};
  /// Per-connection receive timeout: a connected-but-silent client
  /// releases its handler thread after this long.  0 = wait forever.
  long receive_timeout_ms{5000};
};

struct serve_stats {
  std::uint64_t hits{0};
  std::uint64_t misses_enqueued{0};
  std::uint64_t coalesced{0};   ///< requests folded into an in-flight job
  std::uint64_t rejected{0};    ///< backpressure (queue_limit) rejections
  std::uint64_t malformed{0};   ///< bad frames or unparseable requests
  std::uint64_t sweeps_completed{0};
  std::uint64_t sweeps_failed{0};
  std::uint64_t tables_built{0};
  std::uint64_t jobs_adopted{0};  ///< journal re-adoptions at start()
};

class result_server {
 public:
  explicit result_server(server_config config);
  result_server(const result_server&) = delete;
  result_server& operator=(const result_server&) = delete;
  ~result_server();

  /// Opens the store, replays the server journal (re-enqueueing every
  /// `enqueue` without a matching `done`/`fail` whose front isn't already
  /// stored), starts the sweep worker thread, and — when socket_path is
  /// set — binds the listener.  False when the store or socket can't be
  /// set up.
  [[nodiscard]] bool start();

  /// Accept loop; blocks until request_stop().  Each connection gets a
  /// handler thread reading frames until the peer closes, errors, or the
  /// drain begins; damaged frames drop that connection only.  On return
  /// every handler thread is joined and the in-flight sweep (if any) has
  /// been drained.
  void serve();

  /// Begins the drain (safe from any thread).  The async-signal-safe
  /// spelling is `write(stop_write_fd(), "x", 1)` from a signal handler.
  void request_stop();
  [[nodiscard]] int stop_write_fd() const { return stop_pipe_[1]; }
  [[nodiscard]] bool stopping() const {
    return stop_.load(std::memory_order_relaxed);
  }

  /// One request through the full serving logic, no socket involved —
  /// the surface the unit tests (and bm_server_encode) drive directly.
  /// Input is the request *payload* text; returns the reply text.
  [[nodiscard]] std::string handle_request(std::string_view request_text);

  [[nodiscard]] serve_stats stats() const;
  [[nodiscard]] const server_config& config() const { return config_; }

 private:
  enum class job_state : std::uint8_t { queued, running };

  struct job {
    sweep_spec spec{};
    job_state state{job_state::queued};
  };

  struct connection;

  [[nodiscard]] serve_reply process(const serve_request& request);
  [[nodiscard]] serve_reply serve_front(std::uint64_t key,
                                        std::optional<double> budget);
  [[nodiscard]] serve_reply serve_table(const serve_request& request);
  [[nodiscard]] serve_reply enqueue_miss(const serve_request& request,
                                         std::uint64_t key);
  /// queued / running / failed for a key this life knows (jobs_mutex_
  /// held); nullopt when it has no job and no failure on record.
  [[nodiscard]] std::optional<std::string> job_status_locked(
      std::uint64_t key) const;
  void worker_loop();
  void run_job(std::uint64_t key, job& item);
  void handle_connection(connection& conn);
  [[nodiscard]] bool journal_append(std::string_view body);
  void replay_journal();
  void refresh_store();
  [[nodiscard]] std::string job_spec_path(std::uint64_t key) const;

  server_config config_;
  std::optional<result_store> store_;
  mutable std::mutex store_mutex_;
  /// The worker thread's own handle for run_sweep's publishes, opened once:
  /// puts never wait on store_mutex_, and no miss reloads the index.
  std::optional<result_store> publisher_;

  // Job queue + coalescing map, all under jobs_mutex_; jobs_cv_ wakes the
  // worker thread and any `wait` verbs blocked on a key.  Lock order:
  // jobs_mutex_, then store_mutex_, then stats_mutex_.
  mutable std::mutex jobs_mutex_;
  std::condition_variable jobs_cv_;
  std::deque<std::uint64_t> queue_;
  /// Unsettled jobs only (node-based, so a job's address stays stable
  /// while the worker thread runs it outside the lock).  A published job
  /// is erased — its answer is the store's front from then on, and the
  /// store was refreshed before the erase — so memory does not grow with
  /// the misses served.
  std::unordered_map<std::uint64_t, job> jobs_;
  /// Keys whose sweep failed this life: retries answer `failed` instead of
  /// re-running it.  The spec is not kept.
  std::unordered_set<std::uint64_t> failed_;
  std::thread worker_;

  support::net::unix_listener listener_;
  std::vector<std::unique_ptr<connection>> connections_;

  std::atomic<bool> stop_{false};
  int stop_pipe_[2]{-1, -1};

  mutable std::mutex stats_mutex_;
  serve_stats stats_;

  std::mutex journal_mutex_;
  bool started_{false};
};

}  // namespace axc::core
