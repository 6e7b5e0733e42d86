#include "core/shard_runner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <thread>
#include <utility>

#include "circuit/serialize.h"
#include "core/node_pool.h"
#include "core/result_store.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/journal.h"
#include "support/launcher.h"
#include "support/subprocess.h"
#include "support/tokens.h"

#if AXC_HAS_SUBPROCESS
#include <poll.h>
#endif

namespace axc::core {

namespace {

constexpr std::string_view kSpecMagic = "axc-sweep-spec v2";
/// Operand widths the evaluator (>= 3: at least one 64-assignment block)
/// and the compiled tables (2^(2w) entries) support.
constexpr unsigned kMinSpecWidth = 3;
constexpr unsigned kMaxSpecWidth = 12;
/// Ceilings on the spec's counts.  Far above any real search (defaults:
/// 20000 iterations, 64 extra columns, 5 mutations, lambda 4, one run per
/// target), low enough that a damaged or hostile spec cannot ask a worker
/// for 2^64 generations or jobs.
constexpr std::size_t kMaxSpecIterations = std::size_t{1} << 30;
constexpr std::size_t kMaxSpecExtraColumns = std::size_t{1} << 16;
constexpr unsigned kMaxSpecMutations = 1u << 16;
constexpr std::size_t kMaxSpecLambda = std::size_t{1} << 10;
constexpr std::size_t kMaxSpecRunsPerTarget = std::size_t{1} << 16;
constexpr std::string_view kJournalMagic = "coord v1";

/// Coordinator crash points _Exit with 43 (44 is the store's mid-append
/// point) so tests distinguish an injected crash from real worker exits.
constexpr int kCoordCrashExit = 43;
constexpr std::string_view kFaultCrashAfterSpawn = "coord-crash-after-spawn";
constexpr std::string_view kFaultCrashMidMerge = "coord-crash-mid-merge";

/// Relaunch delay growth per further attempt (config.backoff is the first).
constexpr double kBackoffFactor = 2.0;
/// Remote nodes only: how often to pull a checkpoint copy for heartbeat
/// observation, and how many times a torn final fetch is retried.
constexpr std::chrono::milliseconds kFetchInterval{200};
constexpr std::size_t kFetchRetries = 2;

/// Shortest exact decimal: %.17g round-trips every double through the
/// stream extractor (same convention as the session checkpoint format).
std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::nullopt_t spec_error(const char* what) {
  std::fprintf(stderr, "axc: sweep spec: %s\n", what);
  return std::nullopt;
}

using clock = std::chrono::steady_clock;

/// Completed jobs visible in a shard checkpoint: the count of v2 job
/// record lines.  Netlist lines inside records start with "gate"/"out"/
/// "inputs"/"outputs", never "job ", so a plain scan is exact — and cheap
/// enough to run every supervision poll.
std::size_t count_checkpoint_jobs(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return 0;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();
  std::size_t count = 0;
  std::size_t pos = 0;
  while (true) {
    pos = text.find("\njob ", pos);
    if (pos == std::string::npos) break;
    ++count;
    pos += 5;
  }
  return count;
}

/// One worker process launched for a shard on some node.  A shard normally
/// has one; a straggler under speculation has two (primary + duplicate),
/// each writing its own local checkpoint path so they never contend.
struct shard_launch {
  std::size_t node{0};
  bool speculative{false};
  std::optional<support::subprocess> proc{};
  /// Where this launch's checkpoint lands on the *coordinator* (for a
  /// shared-filesystem node the worker writes it here directly).
  std::string checkpoint_path{};
  /// Paths on the node ( == the local paths when filesystems are shared).
  std::string remote_spec{};
  std::string remote_checkpoint{};
  clock::time_point started{};
  clock::time_point last_growth{};
  clock::time_point last_fetch{};
  std::size_t last_jobs{0};
  bool deadline_killed{false};
  bool node_died{false};  ///< killed by node-dead-midrun, already judged
};

struct shard_state {
  plan_shard part{};
  std::string spec_path{};
  std::string checkpoint_path{};  ///< primary path: resume + merge identity
  std::uint64_t store_key{0};  ///< this shard spec's result-store identity
  std::vector<shard_launch> launches{};
  std::size_t attempt{0};
  clock::time_point next_spawn{};
  /// Nodes recent failures ran on — avoided (softly) at the next lease.
  std::vector<std::size_t> avoid_nodes{};
  bool speculated{false};  ///< one duplicate per shard, ever
  bool winner_seen{false};
  /// Attempts ran out while a speculative duplicate was still running; the
  /// duplicate's own death settles the shard as failed.
  bool exhausted{false};
  bool done{false};
  bool failed{false};
  shard_outcome outcome{};
};

/// Sleeps until the next supervision tick: at most `interval`, but no
/// longer than it takes some live worker to exit, so a finished shard is
/// reaped, merged and published at worker speed instead of at the next
/// tick.  Heartbeat, deadline, backoff and stop checks keep the `interval`
/// cadence.  Falls back to a plain sleep when any launch has no exit fd.
void wait_for_tick(const std::vector<shard_state>& states,
                   std::chrono::milliseconds interval) {
#if AXC_HAS_SUBPROCESS
  std::vector<::pollfd> fds;
  for (const shard_state& s : states) {
    for (const shard_launch& l : s.launches) {
      if (!l.proc) continue;
      if (l.proc->exit_fd() < 0) {
        std::this_thread::sleep_for(interval);
        return;
      }
      fds.push_back(::pollfd{l.proc->exit_fd(), POLLIN, 0});
    }
  }
  // EINTR just ends the wait early: one extra tick, nothing missed.
  (void)::poll(fds.data(), static_cast<::nfds_t>(fds.size()),
               static_cast<int>(interval.count()));
#else
  (void)states;
  std::this_thread::sleep_for(interval);
#endif
}

// ---- Coordinator journal ------------------------------------------------
//
// Append-only record of supervision milestones under
// `<work_dir>/coordinator.journal`, in the CRC-line format and with the
// salvage and torn-tail rules of support/journal.h.  Record bodies:
//
//   coord v1 key <16hex>          header; key = sweep_spec::store_key()
//   spawn <shard> <attempt>       worker launched (attempts cumulative
//                                 across coordinator lives)
//   lease <shard> <node> <what>   shard leased to a node; <what> is the
//                                 attempt number or "spec" (duplicate)
//   fetch <shard> <node> <how>    checkpoint pull: ok / torn / fail
//   release <shard> <node> <why>  lease ended without winning: exit<code>,
//                                 torn, dead, superseded, drain, launch
//   complete <shard>              a CRC-valid completed checkpoint won
//   fail <shard> <exit>           attempts exhausted in some life
//   publish <kind> <key> <16hex>  object landed in the result store
//   done                          front published; sweep fully finished
//
// lease/fetch/release are diagnostic truth, not replay state: load_journal
// ignores unknown tags (which is also what makes adding them replay-safe —
// a PR-7-era coordinator re-running this journal skips them cleanly).
//
// A re-run replays spawn/complete to resume supervision: completed shards
// are not respawned (their checkpoints merge directly) and attempt
// counters continue, so first-attempt-only shard_env poison stays applied
// exactly once per shard ever.  A missing, damaged or foreign-key journal
// degrades to a fresh sweep — correctness never depends on the journal
// (worker checkpoints carry the results); it only avoids redundant work
// and keeps attempt accounting truthful across lives.

struct journal_replay {
  bool valid{false};  ///< header present with this sweep's key
  std::vector<std::size_t> attempts{};  ///< cumulative spawns per shard
  std::vector<bool> completed{};
};

[[nodiscard]] std::string journal_header(std::uint64_t key) {
  return std::string(kJournalMagic) + " key " + support::hex16(key);
}

journal_replay load_journal(const std::string& path, std::uint64_t key,
                            std::size_t shard_count) {
  journal_replay replay;
  replay.attempts.assign(shard_count, 0);
  replay.completed.assign(shard_count, false);
  const auto apply = [&](std::string_view body) {
    support::token_reader ls(body);
    const std::string_view tag = ls.next();
    std::size_t shard = 0, attempt = 0;
    if (tag == "spawn") {
      if ((ls >> shard >> attempt) && shard < shard_count) {
        replay.attempts[shard] = std::max(replay.attempts[shard], attempt);
      }
    } else if (tag == "complete") {
      if ((ls >> shard) && shard < shard_count) {
        replay.completed[shard] = true;
      }
    }
    // fail/publish/done need no replay: retries restart each life, and
    // publishing is idempotent (content-addressed puts).
  };
  // A header for another key means a foreign journal: start fresh.
  replay.valid = support::journal::replay(support::journal::load(path),
                                          journal_header(key), apply)
                     .has_value();
  return replay;
}

/// One FNV-1a step over a 64-bit word (the store-key fold).
void fnv_mix(std::uint64_t& h, std::uint64_t v) {
  h ^= v;
  h *= 0x100000001b3ULL;
}

/// Appends one coordinator journal record.  Failure is ignored: a lost
/// record only costs redundant work on the next life, never correctness.
void note(const std::string& journal, std::string_view body) {
  (void)support::journal::append(journal, body);
}

}  // namespace

component_handle sweep_spec::make_component() const {
  return component_registry::instance().make(component, options);
}

std::uint64_t sweep_spec::table_key() const {
  const component_handle handle = make_component();
  if (!handle) return 0;
  // The component fingerprint already covers every result-affecting option
  // (incl. the distribution masses bit-for-bit) and the output count; fold
  // in the seed's structure, not its serialization (hits compute this).
  std::uint64_t h = handle.fingerprint();
  fnv_mix(h, seed.num_inputs());
  for (const circuit::gate_node& g : seed.gates()) {
    fnv_mix(h, static_cast<std::uint64_t>(g.fn));
    fnv_mix(h, (std::uint64_t{g.in0} << 32) | g.in1);
  }
  for (const std::uint32_t out : seed.outputs()) fnv_mix(h, out);
  return h;
}

std::uint64_t sweep_spec::store_key() const {
  std::uint64_t h = table_key();
  if (h == 0) return 0;
  // Fold in the plan the same way so distinct target sets get distinct
  // store identities.
  fnv_mix(h, plan.runs_per_target);
  fnv_mix(h, plan.targets.size());
  for (const double target : plan.targets) {
    fnv_mix(h, std::bit_cast<std::uint64_t>(target));
  }
  return h;
}

void sweep_spec::write(std::ostream& os) const {
  os << kSpecMagic << "\n";
  os << "component " << component << "\n";
  os << "width " << options.width << "\n";
  os << "signed " << (options.is_signed ? 1 : 0) << "\n";
  os << "iterations " << options.iterations << "\n";
  os << "extra-columns " << options.extra_columns << "\n";
  os << "max-mutations " << options.max_mutations << "\n";
  os << "lambda " << options.lambda << "\n";
  os << "error-tiebreak " << (options.error_tiebreak ? 1 : 0) << "\n";
  // Vestigial: every search runs the incremental pipeline; the line keeps
  // the v2 grammar byte for byte.
  os << "incremental 1\n";
  os << "rng-seed " << options.rng_seed << "\n";
  os << "distribution " << options.distribution.size();
  for (const double mass : options.distribution.masses()) {
    os << ' ' << format_double(mass);
  }
  os << "\n";
  os << "runs-per-target " << plan.runs_per_target << "\n";
  os << "targets " << plan.targets.size();
  for (const double target : plan.targets) {
    os << ' ' << format_double(target);
  }
  os << "\n";
  os << "seed-netlist\n";
  circuit::write_netlist(os, seed);
  os << "end\n";
}

bool sweep_spec::write_file(const std::string& path) const {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  write(os);
  os.flush();
  return os.good();
}

std::string sweep_spec::validate() const {
  if (options.width < kMinSpecWidth || options.width > kMaxSpecWidth) {
    return "width out of range";
  }
  if (options.iterations > kMaxSpecIterations) {
    return "iterations above 2^30";
  }
  if (options.extra_columns > kMaxSpecExtraColumns) {
    return "extra-columns above 2^16";
  }
  if (options.max_mutations == 0 ||
      options.max_mutations > kMaxSpecMutations) {
    return "max-mutations outside 1..2^16";
  }
  if (options.lambda == 0 || options.lambda > kMaxSpecLambda) {
    return "lambda outside 1..2^10";
  }
  if (plan.runs_per_target > kMaxSpecRunsPerTarget) {
    return "runs-per-target above 2^16";
  }
  for (const double target : plan.targets) {
    if (!std::isfinite(target) || target < 0.0 || target > 1.0) {
      return "target outside [0, 1]";
    }
  }
  if (!options.distribution.empty() &&
      options.distribution.size() != std::size_t{1} << options.width) {
    return "distribution size does not match width";
  }
  if (const component_handle handle = make_component()) {
    if (seed.num_inputs() != handle.seed_inputs() ||
        seed.num_outputs() != handle.seed_outputs()) {
      return "seed netlist shape does not match component";
    }
  }
  return {};
}

std::optional<sweep_spec> sweep_spec::read(std::istream& is) {
  std::optional<sweep_spec> spec = parse(is);
  if (!spec) return spec;
  if (const std::string problem = spec->validate(); !problem.empty()) {
    return spec_error(problem.c_str());
  }
  return spec;
}

std::optional<sweep_spec> sweep_spec::parse(std::istream& is) {
  std::string line;
  if (!std::getline(is, line) || line != kSpecMagic) {
    return spec_error("bad magic line");
  }

  sweep_spec spec;
  const auto read_field = [&is, &line](std::string_view key, auto& value) {
    if (!std::getline(is, line)) return false;
    support::token_reader ls(line);
    std::string_view k;
    return ls >> k >> value && k == key && ls.at_end();
  };
  // `<key> <count> <count doubles>`, nothing after.
  const auto read_doubles = [&is, &line](std::string_view key,
                                         std::vector<double>& values) {
    if (!std::getline(is, line)) return false;
    support::token_reader ls(line);
    std::string_view k;
    std::size_t count = 0;
    if (!(ls >> k >> count) || k != key || count > (1u << 24)) return false;
    values.resize(count);
    for (double& value : values) {
      if (!(ls >> value)) return false;
    }
    return ls.at_end();
  };

  int flag = 0;
  if (!read_field("component", spec.component)) {
    return spec_error("missing component line");
  }
  if (!read_field("width", spec.options.width)) {
    return spec_error("missing width line");
  }
  if (!read_field("signed", flag)) return spec_error("missing signed line");
  spec.options.is_signed = flag != 0;
  if (!read_field("iterations", spec.options.iterations)) {
    return spec_error("missing iterations line");
  }
  if (!read_field("extra-columns", spec.options.extra_columns)) {
    return spec_error("missing extra-columns line");
  }
  if (!read_field("max-mutations", spec.options.max_mutations)) {
    return spec_error("missing max-mutations line");
  }
  if (!read_field("lambda", spec.options.lambda)) {
    return spec_error("missing lambda line");
  }
  if (!read_field("error-tiebreak", flag)) {
    return spec_error("missing error-tiebreak line");
  }
  spec.options.error_tiebreak = flag != 0;
  // Vestigial (see write()): required, value ignored.
  if (!read_field("incremental", flag)) {
    return spec_error("missing incremental line");
  }
  if (!read_field("rng-seed", spec.options.rng_seed)) {
    return spec_error("missing rng-seed line");
  }

  {
    std::vector<double> masses;
    if (!read_doubles("distribution", masses)) {
      return spec_error("bad distribution line");
    }
    double total = 0.0;
    for (const double mass : masses) {
      if (mass < 0.0) return spec_error("bad distribution mass");
      total += mass;
    }
    if (!masses.empty() && !(total > 0.0)) {
      return spec_error("distribution has no mass");
    }
    // from_masses, not from_weights: the renormalizing division is not
    // bit-stable across a text round trip, and the distribution feeds the
    // component fingerprint — a worker must rebuild the coordinator's pmf
    // exactly or its checkpoints would be rejected at merge time.
    if (!masses.empty()) {
      spec.options.distribution = dist::pmf::from_masses(masses);
    }
  }
  if (!read_field("runs-per-target", spec.plan.runs_per_target)) {
    return spec_error("missing runs-per-target line");
  }
  if (!read_doubles("targets", spec.plan.targets)) {
    return spec_error("bad targets line");
  }
  spec.options.runs_per_target = spec.plan.runs_per_target;

  if (!std::getline(is, line) || line != "seed-netlist") {
    return spec_error("missing seed-netlist section");
  }
  std::optional<circuit::netlist> seed = circuit::read_netlist(is);
  if (!seed) return spec_error("malformed seed netlist");
  spec.seed = *std::move(seed);
  if (!std::getline(is, line) || line != "end") {
    return spec_error("missing end marker");
  }
  return spec;
}

std::optional<sweep_spec> sweep_spec::read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return spec_error("cannot open spec file");
  return read(is);
}

std::vector<plan_shard> split_plan(const sweep_plan& plan,
                                   std::size_t shards) {
  std::vector<plan_shard> parts;
  if (plan.targets.empty()) return parts;
  const std::size_t n =
      std::clamp<std::size_t>(shards, 1, plan.targets.size());
  const std::size_t base = plan.targets.size() / n;
  const std::size_t surplus = plan.targets.size() % n;
  std::size_t next_target = 0;
  std::size_t job_offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    plan_shard part;
    part.job_offset = job_offset;
    part.plan.runs_per_target = plan.runs_per_target;
    const std::size_t take = base + (i < surplus ? 1 : 0);
    part.plan.targets.assign(plan.targets.begin() + next_target,
                             plan.targets.begin() + next_target + take);
    next_target += take;
    job_offset += part.plan.job_count();
    parts.push_back(std::move(part));
  }
  return parts;
}

namespace {

void emit(const shard_runner_config& config, const shard_state& s,
          shard_event_kind kind, int exit_code = 0, std::size_t jobs = 0,
          const std::string& node = {}) {
  if (!config.on_event) return;
  shard_event event;
  event.kind = kind;
  event.shard = s.outcome.shard;
  event.attempt = s.attempt;
  event.jobs_done = jobs;
  event.jobs_total = s.part.plan.job_count();
  event.exit_code = exit_code;
  event.node = node;
  config.on_event(event);
}

std::string basename_of(const std::string& path) {
  return std::filesystem::path(path).filename().string();
}

std::optional<std::string> read_file_text(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return std::nullopt;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// A checkpoint is a valid *win* for a shard only when the v2 salvage path
/// accepts every section and recovers every job of the shard's plan — the
/// same gate merge_shards applies, run early so a torn fetch or truncated
/// file turns into a retry instead of a partial merge.
bool checkpoint_complete(const std::string& path,
                         const component_handle& component,
                         std::size_t expected_jobs) {
  resume_report report;
  auto session = search_session::resume_file(path, component, {}, &report);
  return session && report.jobs_dropped == 0 &&
         report.jobs_recovered == expected_jobs;
}

std::string reason_exit(int code) { return "exit" + std::to_string(code); }

/// Starts one worker launch for `s` on `node_idx` (a lease the caller
/// already acquired).  Returns false when the launch could not start —
/// push failure, injected node-launch-fail, spawn failure — with nothing
/// running; the caller settles the lease.
bool start_launch(const shard_runner_config& config, node_pool& pool,
                  shard_state& s, std::size_t node_idx, bool speculative,
                  const std::string& journal) {
  const node_config& node = pool.config(node_idx);
  shard_launch l;
  l.node = node_idx;
  l.speculative = speculative;
  l.checkpoint_path =
      speculative ? s.checkpoint_path + ".dup" : s.checkpoint_path;
  if (speculative) {
    // The duplicate starts from scratch on its own path (determinism makes
    // the re-execution free); a stale dup from an earlier life would fake
    // heartbeats.
    std::error_code ec;
    std::filesystem::remove(l.checkpoint_path, ec);
  }
  if (node.shares_filesystem()) {
    l.remote_spec = s.spec_path;
    l.remote_checkpoint = l.checkpoint_path;
  } else {
    l.remote_spec = node.workdir + "/" + basename_of(s.spec_path);
    l.remote_checkpoint = node.workdir + "/" + basename_of(l.checkpoint_path);
  }

  if (auto victim = fault::fire(fault::points::node_launch_fail);
      victim && *victim == node_idx) {
    note(journal, "release " + std::to_string(s.outcome.shard) + " " +
                  node.name + " launch");
    return false;
  }

  const support::worker_launcher launcher = node.launcher();
  if (!node.shares_filesystem()) {
    if (!launcher.push_file(s.spec_path, l.remote_spec)) {
      note(journal, "release " + std::to_string(s.outcome.shard) +
                    " " + node.name + " launch");
      return false;
    }
    // Reassignment rides the checkpoint contract: push the shard's current
    // primary checkpoint so the new node *resumes* the dead node's
    // progress instead of recomputing it.
    std::error_code ec;
    if (!speculative && std::filesystem::exists(s.checkpoint_path, ec)) {
      if (!launcher.push_file(s.checkpoint_path, l.remote_checkpoint)) {
        note(journal, "release " + std::to_string(s.outcome.shard) +
                      " " + node.name + " launch");
        return false;
      }
    }
  }

  std::vector<std::string> argv = {
      node.worker.empty() ? config.worker_binary : node.worker, "--spec",
      l.remote_spec, "--checkpoint", l.remote_checkpoint};
  if (config.worker_autosave_generations > 0) {
    argv.push_back("--autosave-generations");
    argv.push_back(std::to_string(config.worker_autosave_generations));
  }
  std::vector<std::string> env;
  if (!speculative && s.attempt == 1 &&
      s.outcome.shard < config.shard_env.size()) {
    const auto& extra = config.shard_env[s.outcome.shard];
    env.insert(env.end(), extra.begin(), extra.end());
  }
  l.proc = launcher.launch(argv, env);
  l.started = clock::now();
  l.last_growth = l.started;
  l.last_fetch = l.started;
  if (!l.proc) {
    note(journal, "release " + std::to_string(s.outcome.shard) + " " +
                  node.name + " launch");
    return false;
  }
  note(journal,
       "lease " + std::to_string(s.outcome.shard) + " " + node.name + " " +
       (speculative ? std::string("spec") : std::to_string(s.attempt)));
  if (!speculative) {
    note(journal, "spawn " + std::to_string(s.outcome.shard) + " " +
                  std::to_string(s.attempt));
  }
  emit(config, s,
       speculative ? shard_event_kind::speculated : shard_event_kind::spawned,
       0, l.last_jobs, node.name);
  s.launches.push_back(std::move(l));
  return true;
}

/// Brings a successful launch's checkpoint to the coordinator and CRC-
/// validates it.  Shared filesystem: validate in place.  Remote: fetch to
/// a scratch path, inject node-fetch-torn, validate, and only then durably
/// land the bytes on the launch's local path.  Retries torn/failed fetches
/// (the window a flaky transport gets before the lease is judged failed).
bool retrieve_valid_checkpoint(const shard_runner_config& config,
                               const node_config& node, shard_state& s,
                               shard_launch& l,
                               const component_handle& component,
                               const std::string& journal) {
  const std::size_t expected = s.part.plan.job_count();
  const std::string shard_str = std::to_string(s.outcome.shard);
  if (node.shares_filesystem()) {
    if (checkpoint_complete(l.checkpoint_path, component, expected)) {
      return true;
    }
    note(journal, "fetch " + shard_str + " " + node.name + " torn");
    emit(config, s, shard_event_kind::fetch_torn, 0, l.last_jobs, node.name);
    return false;
  }
  const support::worker_launcher launcher = node.launcher();
  const std::string scratch = l.checkpoint_path + ".fetch";
  std::error_code ec;
  for (std::size_t i = 0; i <= kFetchRetries; ++i) {
    if (!launcher.fetch_file(l.remote_checkpoint, scratch)) {
      note(journal, "fetch " + shard_str + " " + node.name + " fail");
      continue;
    }
    if (auto cut = fault::fire(fault::points::node_fetch_torn)) {
      const auto size = std::filesystem::file_size(scratch, ec);
      if (!ec && *cut < size) std::filesystem::resize_file(scratch, *cut, ec);
    }
    if (checkpoint_complete(scratch, component, expected)) {
      const auto bytes = read_file_text(scratch);
      if (bytes && support::write_file_durable(l.checkpoint_path, *bytes)) {
        std::filesystem::remove(scratch, ec);
        note(journal, "fetch " + shard_str + " " + node.name + " ok");
        return true;
      }
    }
    note(journal, "fetch " + shard_str + " " + node.name + " torn");
    emit(config, s, shard_event_kind::fetch_torn, 0, l.last_jobs, node.name);
  }
  std::filesystem::remove(scratch, ec);
  return false;
}

/// Best-effort partial salvage from a remote node after an unsuccessful
/// exit: pull whatever checkpoint the node autosaved and adopt it as the
/// shard's primary when it knows *more* jobs — so a retry on another node
/// resumes the dead lease's progress and a failed shard still merges it.
void salvage_remote_partial(const node_config& node, shard_state& s,
                            shard_launch& l) {
  if (node.shares_filesystem()) return;
  const support::worker_launcher launcher = node.launcher();
  const std::string scratch = l.checkpoint_path + ".salvage";
  std::error_code ec;
  if (launcher.fetch_file(l.remote_checkpoint, scratch)) {
    if (count_checkpoint_jobs(scratch) >
        count_checkpoint_jobs(s.checkpoint_path)) {
      if (const auto bytes = read_file_text(scratch)) {
        (void)support::write_file_durable(s.checkpoint_path, *bytes);
      }
    }
  }
  std::filesystem::remove(scratch, ec);
}

sweep_result merge_shards(const sweep_spec& spec,
                          std::vector<shard_state>& states) {
  sweep_result result;
  result.by_job.assign(spec.plan.job_count(), std::nullopt);
  const component_handle component = spec.make_component();
  pareto_archive archive;
  for (shard_state& s : states) {
    // The mid-merge kill window: workers are done, their checkpoints are
    // durable, but the merged front was never assembled.  _Exit models
    // SIGKILL; a re-run respawns nothing (journal says complete), merges
    // the same checkpoints and lands the identical front.
    if (fault::fire(kFaultCrashMidMerge)) std::_Exit(kCoordCrashExit);
    s.outcome.jobs_total = s.part.plan.job_count();
    resume_report report;
    auto session = search_session::resume_file(s.checkpoint_path, component,
                                               {}, &report);
    if (session) {
      s.outcome.jobs_recovered = report.jobs_recovered;
      s.outcome.jobs_dropped = report.jobs_dropped;
      for (std::size_t local = 0; local < session->total_jobs(); ++local) {
        if (auto design = session->design(local)) {
          const std::size_t global = s.part.job_offset + local;
          archive.insert(pareto_point{design->wmed, design->area_um2, global});
          result.by_job[global] = *std::move(design);
        }
      }
    }
    result.shards.push_back(s.outcome);
  }
  result.front = archive.points();
  result.complete = true;
  for (auto& design : result.by_job) {
    if (design) {
      result.designs.push_back(*design);
    } else {
      result.complete = false;
    }
  }
  return result;
}

}  // namespace

sweep_result run_sweep(const sweep_spec& spec,
                       const shard_runner_config& config) {
  std::vector<shard_state> states;
  if (config.worker_binary.empty() || config.work_dir.empty()) {
    std::fprintf(stderr,
                 "axc: run_sweep: worker_binary and work_dir are required\n");
    sweep_result empty;
    empty.by_job.assign(spec.plan.job_count(), std::nullopt);
    return empty;
  }
  std::error_code ec;
  std::filesystem::create_directories(config.work_dir, ec);

  const std::uint64_t sweep_key = spec.store_key();
  const std::vector<plan_shard> parts = split_plan(spec.plan, config.shards);
  const std::string journal = config.work_dir + "/coordinator.journal";
  const journal_replay replay = load_journal(journal, sweep_key, parts.size());
  if (!replay.valid) {
    // Fresh (or foreign/damaged) journal: durably replace it with just the
    // header — records then append behind it.
    if (!support::write_file_durable(
            journal, support::journal::encode(journal_header(sweep_key)))) {
      std::fprintf(stderr, "axc: run_sweep: cannot write %s\n",
                   journal.c_str());
    }
  }

  for (std::size_t i = 0; i < parts.size(); ++i) {
    shard_state s;
    s.part = parts[i];
    s.outcome.shard = i;
    const std::string stem =
        config.work_dir + "/shard-" + std::to_string(i);
    s.spec_path = stem + ".spec";
    s.checkpoint_path = stem + ".axc";
    sweep_spec shard_spec;
    shard_spec.component = spec.component;
    shard_spec.options = spec.options;
    shard_spec.options.runs_per_target = s.part.plan.runs_per_target;
    shard_spec.plan = s.part.plan;
    shard_spec.seed = spec.seed;
    s.store_key = shard_spec.store_key();
    if (!shard_spec.write_file(s.spec_path)) {
      std::fprintf(stderr, "axc: run_sweep: cannot write %s\n",
                   s.spec_path.c_str());
      s.failed = true;
    }
    // Journal replay: a shard some earlier coordinator life saw finish is
    // not respawned — its checkpoint merges directly — and attempt
    // numbering continues where that life stopped (spawn_attempt
    // pre-increments, so first-attempt-only shard_env never re-applies).
    s.attempt = replay.attempts[i];
    s.outcome.attempts = s.attempt;
    if (replay.completed[i] &&
        std::filesystem::exists(s.checkpoint_path, ec)) {
      s.done = true;
      s.winner_seen = true;
      s.outcome.completed = true;
      emit(config, s, shard_event_kind::completed, 0,
           count_checkpoint_jobs(s.checkpoint_path));
    }
    states.push_back(std::move(s));
  }

  const std::size_t max_attempts = std::max<std::size_t>(config.max_attempts, 1);
  shard_runner_config cfg = config;
  cfg.max_attempts = max_attempts;

  // The node fleet.  No nodes configured = one implicit local node with a
  // slot per shard (plus one for a speculative duplicate) — the single-box
  // behavior of the pre-multi-node runtime, launch for launch.
  const bool implicit_local = cfg.nodes.empty();
  std::vector<node_config> fleet = cfg.nodes;
  if (implicit_local) {
    node_config local;
    local.name = "local";
    local.slots = parts.size() + 1;
    fleet.push_back(std::move(local));
  }
  node_pool pool(fleet, cfg.nodes_policy);
  const component_handle component = spec.make_component();

  const auto backoff_delay = [&cfg](std::size_t attempt) {
    double scale = 1.0;
    for (std::size_t a = 1; a < attempt; ++a) scale *= kBackoffFactor;
    return std::chrono::milliseconds(
        static_cast<std::int64_t>(cfg.backoff.count() * scale));
  };

  bool drained = false;
  while (true) {
    if (cfg.should_stop && cfg.should_stop()) {
      // Graceful drain: take the live workers down hard (their autosaved
      // checkpoints are the durable state; a SIGKILL here is exactly the
      // crash the resume path already survives) and fall through to the
      // partial merge.  Re-running the same spec + work_dir later resumes.
      drained = true;
      for (shard_state& s : states) {
        for (shard_launch& l : s.launches) {
          if (!l.proc) continue;
          l.proc->kill_hard();
          l.proc.reset();  // blocks until the worker is reaped
          pool.release(l.node);
          note(journal, "release " + std::to_string(s.outcome.shard) +
                        " " + pool.config(l.node).name + " drain");
          emit(cfg, s, shard_event_kind::drained, 0, l.last_jobs,
               pool.config(l.node).name);
        }
        s.launches.clear();
      }
      break;
    }
    const auto now = clock::now();

    // Injected node death (fault::points::node_dead_midrun, payload = node
    // index): every launch on the victim dies and the node is quarantined
    // at once — the deterministic stand-in for a host losing power.
    if (fault::active()) {
      if (const auto victim = fault::fire(fault::points::node_dead_midrun);
          victim && *victim < pool.size()) {
        pool.mark_dead(*victim, now);
        for (shard_state& s : states) {
          for (shard_launch& l : s.launches) {
            if (l.node == *victim && l.proc) {
              l.proc->kill_hard();
              l.node_died = true;
            }
          }
        }
      }
    }

    bool pending = false;
    for (shard_state& s : states) {
      if (s.done || s.failed) continue;

      // Reap finished launches; supervise the rest.
      for (std::size_t li = 0; li < s.launches.size();) {
        shard_launch& l = s.launches[li];
        const node_config& node = pool.config(l.node);
        const auto status = l.proc->poll();
        if (!status) {
          // Heartbeat: checkpoint growth is the worker's progress signal.
          // Shared filesystem reads the file directly; remote launches
          // pull a copy every kFetchInterval.  node-heartbeat-stall
          // suppresses the observation, making a healthy worker look
          // stalled — the supervision must then kill and retry it.
          std::size_t jobs = l.last_jobs;
          bool observed = false;
          if (node.shares_filesystem()) {
            if (!fault::fire(fault::points::node_heartbeat_stall)) {
              jobs = count_checkpoint_jobs(l.checkpoint_path);
              observed = true;
            }
          } else if (now - l.last_fetch >= kFetchInterval) {
            l.last_fetch = now;
            if (!fault::fire(fault::points::node_heartbeat_stall)) {
              const std::string hb = l.checkpoint_path + ".hb";
              if (node.launcher().fetch_file(l.remote_checkpoint, hb)) {
                jobs = count_checkpoint_jobs(hb);
                observed = true;
              }
              std::error_code hb_ec;
              std::filesystem::remove(hb, hb_ec);
            }
          }
          if (observed && jobs > l.last_jobs) {
            l.last_jobs = jobs;
            l.last_growth = now;
            emit(cfg, s, shard_event_kind::heartbeat, 0, jobs, node.name);
          }
          if (!l.deadline_killed && cfg.attempt_timeout.count() > 0 &&
              now - l.started > cfg.attempt_timeout) {
            l.deadline_killed = true;
            emit(cfg, s, shard_event_kind::timed_out, 0, l.last_jobs,
                 node.name);
            l.proc->kill_hard();
          } else if (!l.deadline_killed && cfg.stall_timeout.count() > 0 &&
                     now - l.last_growth > cfg.stall_timeout) {
            l.deadline_killed = true;
            emit(cfg, s, shard_event_kind::stalled, 0, l.last_jobs,
                 node.name);
            l.proc->kill_hard();
          }
          ++li;
          continue;
        }

        // The launch finished.  A clean exit only *wins* the shard once
        // its checkpoint is fetched and CRC-valid; anything else is a
        // failed lease.
        l.proc.reset();
        if (l.deadline_killed) s.outcome.timed_out = true;
        const bool was_speculative = l.speculative;
        if (status->success() &&
            retrieve_valid_checkpoint(cfg, node, s, l, component, journal)) {
          pool.release_success(l.node);
          if (!s.winner_seen) {
            s.winner_seen = true;
            s.outcome.completed = true;
            s.outcome.last_exit_code = 0;
            s.outcome.node = node.name;
            s.outcome.speculative_win = l.speculative;
            // Stop the losers BEFORE touching the primary path — a loser
            // on a shared filesystem is still writing it.
            if (!cfg.speculation_keep_losers) {
              for (std::size_t lj = 0; lj < s.launches.size(); ++lj) {
                if (lj == li) continue;
                shard_launch& other = s.launches[lj];
                if (other.proc) {
                  other.proc->kill_hard();
                  other.proc.reset();
                }
                pool.release(other.node);
                note(journal, "release " + std::to_string(s.outcome.shard) +
                              " " + pool.config(other.node).name +
                              " superseded");
              }
              shard_launch winner = std::move(s.launches[li]);
              s.launches.clear();
              s.launches.push_back(std::move(winner));
              li = 0;
            }
            // Land the winning bytes on the primary path (merge identity).
            // A keep_losers primary completing later rewrites it with the
            // same bytes — determinism makes the overlap benign.
            shard_launch& w = s.launches[li];
            if (w.checkpoint_path != s.checkpoint_path) {
              if (const auto bytes = read_file_text(w.checkpoint_path)) {
                (void)support::write_file_durable(s.checkpoint_path, *bytes);
              }
            }
            note(journal, "complete " + std::to_string(s.outcome.shard));
            emit(cfg, s, shard_event_kind::completed, 0, w.last_jobs,
                 node.name);
          }
          // A keep_losers loser just leaves its checkpoint on disk for
          // inspection (the byte-equality assertion reads it).
          s.launches.erase(s.launches.begin() + li);
          continue;
        }

        // Failed lease: judge the node, salvage partial progress, and let
        // the reconcile step below decide retry vs. exhaustion.
        if (l.node_died) {
          pool.release(l.node);  // already judged by mark_dead
        } else {
          pool.release_failure(l.node, now);
        }
        s.outcome.last_exit_code = status->code;
        const std::string reason = l.node_died ? std::string("dead")
                                   : status->success()
                                       ? std::string("torn")
                                       : reason_exit(status->code);
        note(journal, "release " + std::to_string(s.outcome.shard) +
                      " " + node.name + " " + reason);
        emit(cfg, s, shard_event_kind::exited, status->code, l.last_jobs,
             node.name);
        if (!was_speculative) salvage_remote_partial(node, s, l);
        s.avoid_nodes.assign(1, l.node);
        s.launches.erase(s.launches.begin() + li);
        if (!was_speculative && !s.winner_seen) {
          if (s.attempt >= cfg.max_attempts) {
            if (s.launches.empty()) {
              s.failed = true;
              note(journal, "fail " + std::to_string(s.outcome.shard) + " " +
                            std::to_string(status->code));
              emit(cfg, s, shard_event_kind::failed, status->code);
            } else {
              // A speculative duplicate still carries the shard; only its
              // death finishes the verdict (reconcile below).
              s.exhausted = true;
            }
          } else {
            s.next_spawn = now + backoff_delay(s.attempt);
            emit(cfg, s, shard_event_kind::retrying, status->code);
          }
        }
      }

      // Speculation: the shard's single primary launch has been running
      // past speculate_after — duplicate it on another node (once).  The
      // first CRC-valid completed checkpoint wins; bit-identity makes the
      // race harmless.
      if (cfg.speculate_after.count() > 0 && !s.speculated &&
          !s.winner_seen && s.launches.size() == 1 &&
          !s.launches[0].speculative &&
          now - s.launches[0].started > cfg.speculate_after) {
        const std::vector<std::size_t> avoid{s.launches[0].node};
        if (const auto n = pool.acquire(now, avoid)) {
          s.speculated = true;
          if (!start_launch(cfg, pool, s, *n, true, journal)) {
            pool.release_failure(*n, now);
          }
        }
      }

      // Reconcile: finalize a won shard, respawn a dead one, or declare
      // it failed once attempts are exhausted with nothing running.
      if (!s.done && !s.failed && s.launches.empty()) {
        if (s.winner_seen) {
          s.done = true;
        } else if (s.exhausted) {
          s.failed = true;
          note(journal, "fail " + std::to_string(s.outcome.shard) + " " +
                        std::to_string(s.outcome.last_exit_code));
          emit(cfg, s, shard_event_kind::failed, s.outcome.last_exit_code);
        } else if (now >= s.next_spawn) {
          if (const auto n = pool.acquire(now, s.avoid_nodes)) {
            ++s.attempt;
            s.outcome.attempts = s.attempt;
            if (start_launch(cfg, pool, s, *n, false, journal)) {
              // The after-spawn kill window: the journal says this attempt
              // exists, nothing has finished.  Take the workers down with
              // the coordinator (a real SIGKILL of the process group does
              // the same) so the re-run supervises from checkpoints alone.
              if (fault::fire(kFaultCrashAfterSpawn)) {
                for (shard_state& victim : states) {
                  for (shard_launch& vl : victim.launches) {
                    if (vl.proc) vl.proc->kill_hard();
                  }
                }
                std::_Exit(kCoordCrashExit);
              }
            } else {
              pool.release_failure(*n, now);
              s.avoid_nodes.assign(1, *n);
              if (s.attempt >= cfg.max_attempts) {
                s.failed = true;
                s.outcome.last_exit_code = 127;
                note(journal,
                     "fail " + std::to_string(s.outcome.shard) + " 127");
                emit(cfg, s, shard_event_kind::failed, 127);
              } else {
                s.next_spawn = now + backoff_delay(s.attempt);
                emit(cfg, s, shard_event_kind::retrying, 127);
              }
            }
          }
          // No eligible node right now: hold the shard until quarantine /
          // backoff clocks release one.
        }
      }

      if (!s.done && !s.failed) pending = true;
    }
    if (!pending) break;
    wait_for_tick(states, cfg.poll_interval);
  }

  sweep_result result = merge_shards(spec, states);
  result.drained = drained;
  if (!implicit_local) result.nodes = pool.report();

  if (!cfg.store_dir.empty()) {
    // Publish into the result store.  Content-addressed puts make this
    // idempotent, so every coordinator life re-publishes unconditionally
    // and the store converges on the uninterrupted run's exact contents.
    std::optional<result_store> opened;
    if (!cfg.store) opened = result_store::open(cfg.store_dir);
    result_store* const store = opened ? &*opened : cfg.store;
    if (!store) {
      std::fprintf(stderr, "axc: run_sweep: cannot open store %s\n",
                   cfg.store_dir.c_str());
      return result;
    }
    for (const shard_state& s : states) {
      if (!s.outcome.completed) continue;
      const auto bytes = read_file_text(s.checkpoint_path);
      if (!bytes) continue;
      const std::string key = result_store::format_key(s.store_key);
      if (const auto hash = store->put("session", key, *bytes)) {
        note(journal, "publish session " + key + " " + support::hex16(*hash));
      } else {
        std::fprintf(stderr, "axc: run_sweep: session publish failed (%s)\n",
                     key.c_str());
      }
    }
    if (result.complete) {
      const std::string key = result_store::format_key(sweep_key);
      if (const auto hash =
              store->put("front", key, serialize_front(result.front))) {
        note(journal, "publish front " + key + " " + support::hex16(*hash));
        note(journal, "done");
      } else {
        std::fprintf(stderr, "axc: run_sweep: front publish failed (%s)\n",
                     key.c_str());
      }
    }
  }

  return result;
}

sweep_result run_sweep_inprocess(const sweep_spec& spec,
                                 session_config options) {
  sweep_result result;
  result.by_job.assign(spec.plan.job_count(), std::nullopt);
  const component_handle component = spec.make_component();
  if (!component) {
    std::fprintf(stderr, "axc: run_sweep_inprocess: unknown component '%s'\n",
                 spec.component.c_str());
    return result;
  }
  search_session session(component, spec.seed, spec.plan,
                         std::move(options));
  session.run();
  result.complete = session.finished();
  result.designs = session.designs();
  result.front = session.front();
  for (std::size_t id = 0; id < session.total_jobs(); ++id) {
    result.by_job[id] = session.design(id);
  }
  return result;
}

}  // namespace axc::core
