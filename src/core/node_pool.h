// Node registry for multi-node sweep dispatch: liveness, quarantine,
// lease accounting.
//
// The coordinator (core/shard_runner.cpp) leases shards to nodes from this
// pool.  Health is tracked per node from lease outcomes: a failure backs
// the node off (exponential, per node), `quarantine_after` *consecutive*
// failures quarantines it, and a quarantined node re-enters probation only
// after its re-probation delay elapses — one lease at a time, so a flaky
// host cannot reabsorb the whole plan the moment it answers ping again.  A
// node declared dead (node-dead-midrun, a failed liveness probe) goes
// straight to quarantine.
//
// The pool is deliberately clock-free: every mutating call takes `now`, so
// unit tests drive quarantine and re-probation with synthetic time points
// and the coordinator passes its own steady_clock reading.  Nothing here
// talks to the network — reachability is whatever the launch/fetch
// commands report.
//
// Nodes files ("axc-nodes v1", parse_nodes_file) describe the fleet:
//
//   axc-nodes v1
//   # comment / blank lines allowed
//   node fast-box
//   host 10.0.0.7
//   slots 4
//   workdir /tmp/axc
//   worker /opt/axc/axc_worker
//   run ssh -oBatchMode=yes {host}
//   fetch scp {host}:{src} {dst}
//   push scp {src} {host}:{dst}
//   end
//
// Every attribute except `node`/`end` is optional: an empty `run` template
// launches locally (the degenerate single-node file reproduces plain
// fork/exec), an empty `workdir` means the node shares the coordinator's
// filesystem, and an empty `worker` means the coordinator's own worker
// binary path is valid on the node.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "support/launcher.h"

namespace axc::core {

/// One node a sweep may lease shards to.
struct node_config {
  std::string name{"local"};
  /// Substituted for `{host}` in the templates; purely textual.
  std::string host{};
  /// Concurrent shard launches (worker processes) this node accepts; each
  /// worker runs its jobs on all of the node's CPUs.
  std::size_t slots{1};
  /// Scratch directory for shard spec/checkpoint files on the node; empty
  /// = the node shares the coordinator's filesystem and uses its paths.
  std::string workdir{};
  /// Worker binary path on the node; empty = the coordinator's path.
  std::string worker{};
  support::launch_template tpl{};

  [[nodiscard]] support::worker_launcher launcher() const {
    return support::worker_launcher{tpl, host};
  }
  [[nodiscard]] bool shares_filesystem() const { return workdir.empty(); }

  bool operator==(const node_config&) const = default;
};

/// Parses an "axc-nodes v1" stream.  Strict: unknown keys, attributes
/// outside a node block, duplicate names, a missing `end`, or zero nodes
/// all reject the file (nullopt) — a half-read fleet silently dropping
/// nodes would be worse than an error.
[[nodiscard]] std::optional<std::vector<node_config>> parse_nodes(
    std::istream& in);
[[nodiscard]] std::optional<std::vector<node_config>> parse_nodes_file(
    const std::string& path);

/// Health policy knobs (times scale down in tests, up in production).
struct node_policy {
  /// Consecutive lease failures that quarantine a node.
  std::size_t quarantine_after{3};
  /// Base delay before a failed node is offered work again; doubles per
  /// consecutive failure (capped by quarantine, which takes over).
  std::chrono::milliseconds backoff{250};
  /// Base quarantine duration; doubles per additional quarantine trip.
  std::chrono::milliseconds reprobation{2000};
  double reprobation_factor{2.0};
};

enum class node_health : std::uint8_t { healthy, backing_off, quarantined };

/// Snapshot of one node's pool state (reporting / assertions).
struct node_status {
  std::string name{};
  node_health health{node_health::healthy};
  std::size_t active{0};           ///< leases currently held
  std::size_t launches{0};         ///< lifetime leases granted
  std::size_t failures{0};         ///< lifetime lease failures
  std::size_t consecutive_failures{0};
  std::size_t quarantines{0};      ///< times quarantined
  bool probation{false};           ///< re-admitted, not yet trusted
};

class node_pool {
 public:
  using clock = std::chrono::steady_clock;

  explicit node_pool(std::vector<node_config> nodes, node_policy policy = {});

  /// Leases a slot: the eligible node (healthy or past its delay, active <
  /// slots, on probation at most one lease) preferring any index not in
  /// `avoid`, then fewest active leases, then lowest index — deterministic
  /// given identical histories.  nullopt when no node qualifies.
  [[nodiscard]] std::optional<std::size_t> acquire(
      clock::time_point now, const std::vector<std::size_t>& avoid = {});

  /// Releases a lease without judging the node (speculation losers killed
  /// by the winner, coordinator drain).
  void release(std::size_t node);
  /// Lease finished well: the node is trusted again (consecutive-failure
  /// count and probation reset).
  void release_success(std::size_t node);
  /// Lease failed (launch error, non-zero exit, torn fetch, deadline
  /// kill): backs the node off, quarantines it at the policy threshold.
  void release_failure(std::size_t node, clock::time_point now);
  /// The node itself is gone (node-dead-midrun, unreachable host): every
  /// judgment at once — straight to quarantine.  Leases still held are NOT
  /// auto-released; callers release as they reap each launch.
  void mark_dead(std::size_t node, clock::time_point now);

  [[nodiscard]] std::size_t size() const { return states_.size(); }
  [[nodiscard]] const node_config& config(std::size_t node) const {
    return states_[node].config;
  }
  [[nodiscard]] node_status status(std::size_t node) const;
  [[nodiscard]] std::vector<node_status> report() const;
  /// True when some node could eventually accept a lease again (i.e. the
  /// pool is not permanently exhausted — quarantined nodes re-probate, so
  /// only an empty pool is dead forever).
  [[nodiscard]] bool any_possible() const { return !states_.empty(); }
  /// Earliest instant any currently-blocked node becomes eligible again;
  /// nullopt when a node is eligible right now (or the pool is empty).
  [[nodiscard]] std::optional<clock::time_point> next_eligible(
      clock::time_point now) const;

 private:
  struct state {
    node_config config{};
    node_health health{node_health::healthy};
    std::size_t active{0};
    std::size_t launches{0};
    std::size_t failures{0};
    std::size_t consecutive{0};
    std::size_t quarantines{0};
    bool probation{false};
    /// Instant before which the node is not offered leases.
    clock::time_point available_at{};
  };

  [[nodiscard]] bool eligible(const state& s, clock::time_point now) const;

  std::vector<state> states_{};
  node_policy policy_{};
};

}  // namespace axc::core
