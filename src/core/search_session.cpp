#include "core/search_session.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <sstream>
#include <string_view>
#include <utility>

#include "circuit/serialize.h"
#include "support/assert.h"
#include "support/checksum.h"
#include "support/fault.h"
#include "support/io.h"
#include "support/journal.h"
#include "support/thread_pool.h"

namespace axc::core {

namespace {

/// Shortest exact decimal representation: %.17g round-trips every double
/// through the stream extractor, so checkpointed scores and targets compare
/// bit-identical after resume.
std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::nullopt_t resume_error(const char* what) {
  std::fprintf(stderr, "axc: session resume: %s\n", what);
  return std::nullopt;
}

/// The pre-CRC format; recognized only to name it when rejecting it.
constexpr std::string_view kRetiredMagic = "axc-session v1";
constexpr std::string_view kMagicV2 = "axc-session v2";

/// Plan-size sanity bound for resume(): far above any real sweep (the
/// paper uses 14 targets x 25 runs) but small enough that a corrupted
/// count in a checkpoint is rejected instead of driving a huge allocation.
constexpr std::size_t kMaxPlanEntries = std::size_t{1} << 20;

bool starts_with(std::string_view line, std::string_view prefix) {
  return line.substr(0, prefix.size()) == prefix;
}

/// Line cursor over an in-memory checkpoint, tracking byte offsets so CRC
/// ranges can be recomputed exactly as written.
struct text_lines {
  std::string_view text;
  std::size_t pos{0};

  struct entry {
    std::size_t start;       ///< byte offset of the line's first character
    std::string_view line;   ///< without the trailing newline
  };

  std::optional<entry> next() {
    if (pos >= text.size()) return std::nullopt;
    const std::size_t start = pos;
    const std::size_t nl = text.find('\n', pos);
    std::string_view line;
    if (nl == std::string_view::npos) {
      line = text.substr(pos);
      pos = text.size();
    } else {
      line = text.substr(pos, nl - pos);
      pos = nl + 1;
    }
    return entry{start, line};
  }
};

/// Parses one circuit::write_netlist block starting at the cursor; leaves
/// the cursor just past the terminating "out" line.  nullopt when the
/// block is malformed or runs into checkpoint structure lines (truncation).
std::optional<circuit::netlist> parse_netlist_block(text_lines& cur) {
  const std::size_t start = cur.pos;
  while (auto l = cur.next()) {
    if (l->line == "out" || starts_with(l->line, "out ")) {
      std::istringstream is{
          std::string(cur.text.substr(start, cur.pos - start))};
      return circuit::read_netlist(is);
    }
    if (starts_with(l->line, "crc ") || starts_with(l->line, "job ") ||
        starts_with(l->line, "end")) {
      return std::nullopt;
    }
  }
  return std::nullopt;
}

/// Parses a "crc <8-hex>" line (exactly 8 lowercase digits) into its value.
std::optional<std::uint32_t> parse_crc_line(std::string_view line) {
  if (!starts_with(line, "crc ")) return std::nullopt;
  return support::parse_crc(line.substr(4));
}

}  // namespace

std::vector<sweep_job> sweep_plan::jobs() const {
  std::vector<sweep_job> expanded;
  expanded.reserve(job_count());
  std::size_t id = 0;
  for (const double target : targets) {
    for (std::size_t run = 0; run < runs_per_target; ++run) {
      expanded.push_back(sweep_job{id++, target, run});
    }
  }
  return expanded;
}

struct search_session::impl {
  impl(component_handle component_in, circuit::netlist seed_in,
       sweep_plan plan_in, session_config options_in)
      : component(std::move(component_in)),
        seed(std::move(seed_in)),
        plan(std::move(plan_in)),
        options(std::move(options_in)),
        jobs(plan.jobs()),
        results(jobs.size()) {
    AXC_EXPECTS(static_cast<bool>(component));
    // runs_per_target == 0 is a legal empty plan (legacy sweep() returned
    // an empty result for it).
    AXC_EXPECTS(seed.num_inputs() == component.seed_inputs());
    AXC_EXPECTS(seed.num_outputs() == component.seed_outputs());
  }

  [[nodiscard]] progress_event base_event(progress_kind kind,
                                          const sweep_job& job) const {
    progress_event event;
    event.kind = kind;
    event.job_id = job.id;
    event.target = job.target;
    event.run_index = job.run_index;
    event.completed_jobs = completed.load(std::memory_order_relaxed);
    event.total_jobs = jobs.size();
    return event;
  }

  /// Serializes observer callbacks on their own mutex, never the state
  /// lock: slow observers (logging every generation) only throttle each
  /// other, not workers updating results or readers calling
  /// designs()/front()/save().  Observers may therefore call any session
  /// accessor; no lock cycle exists because emit_mutex is never acquired
  /// while state_mutex is held.
  void emit(const progress_event& event) {
    if (!options.on_progress) return;
    std::scoped_lock lock(emit_mutex);
    options.on_progress(event);
  }

  void run_one(const sweep_job& job) {
    emit(base_event(progress_kind::job_started, job));

    search_hooks hooks;
    hooks.should_stop = [this] {
      return stop.load(std::memory_order_relaxed);
    };
    if (options.on_progress) {
      hooks.on_improvement = [this, job](std::size_t iteration,
                                         const cgp::evaluation& eval) {
        progress_event event = base_event(progress_kind::job_improved, job);
        event.generation = iteration + 1;
        event.wmed = eval.error;
        event.area_um2 = eval.area;
        emit(event);
      };
    }
    // One generation hook serves both consumers: the stride-gated
    // job_generation events and the session-wide autosave tick counter.
    const std::size_t stride =
        options.on_progress ? options.generation_stride : 0;
    const std::size_t autosave_every =
        options.autosave_path.empty() ? 0 : options.autosave_generations;
    if (stride > 0 || autosave_every > 0) {
      hooks.on_generation = [this, job, stride, autosave_every](
                                std::size_t iteration,
                                const cgp::evaluation& best) {
        if (stride > 0 && (iteration + 1) % stride == 0) {
          progress_event event =
              base_event(progress_kind::job_generation, job);
          event.generation = iteration + 1;
          event.wmed = best.error;
          event.area_um2 = best.area;
          emit(event);
        }
        if (autosave_every > 0) {
          const std::size_t tick =
              generation_ticks.fetch_add(1, std::memory_order_relaxed) + 1;
          if (tick % autosave_every == 0) autosave();
        }
      };
    }

    std::optional<evolved_design> design =
        component.run_job(seed, job.target, job.run_index, hooks);
    if (!design) return;  // cancelled mid-run: the job stays pending

    // Publish under the state lock, notify outside it.  Reading the slot
    // afterwards without the lock is safe: each slot is written exactly
    // once, by this thread.
    const evolved_design* published = nullptr;
    {
      std::scoped_lock lock(state_mutex);
      archive.insert(pareto_point{design->wmed, design->area_um2, job.id});
      results[job.id] = std::move(*design);
      completed.fetch_add(1, std::memory_order_relaxed);
      published = &*results[job.id];
    }
    // Persist before notifying: if an observer (or the process) dies right
    // after this point, the finished job is already on disk.
    autosave();

    progress_event event = base_event(progress_kind::job_finished, job);
    event.generation = component.iterations();
    event.wmed = published->wmed;
    event.area_um2 = published->area_um2;
    emit(event);
    if (options.on_design) {
      std::scoped_lock lock(emit_mutex);
      options.on_design(*published);
    }
  }

  void run() {
    // No stop.store(false) here: a request_stop() racing run()'s start
    // must win (run nothing).  The request is consumed once, at exit.
    std::vector<sweep_job> pending;
    {
      std::scoped_lock lock(state_mutex);
      for (const sweep_job& job : jobs) {
        if (!results[job.id]) pending.push_back(job);
      }
    }

    if (!pending.empty()) {
      const std::size_t workers =
          std::min(std::max<std::size_t>(options.job_threads, 1),
                   pending.size());
      if (workers <= 1) {
        for (const sweep_job& job : pending) {
          if (stop.load(std::memory_order_relaxed)) break;
          run_one(job);
        }
      } else {
        thread_pool pool(workers);
        {
          std::scoped_lock lock(pool_mutex);
          active_pool = &pool;
        }
        for (const sweep_job& job : pending) {
          pool.submit([this, job] {
            if (!stop.load(std::memory_order_relaxed)) run_one(job);
          });
        }
        pool.wait_idle();
        {
          std::scoped_lock lock(pool_mutex);
          active_pool = nullptr;
        }
      }
    }

    // Consume the stop request so the next run() can re-run the abandoned
    // jobs; record a stop only if it actually cut work short (a request
    // landing after the final job completed does not make this run
    // "stopped").
    const bool requested = stop.exchange(false);
    last_run_stopped.store(
        requested && completed.load(std::memory_order_relaxed) != jobs.size());

    // Once-only terminal event, even if run() is called again on an
    // already-finished session.
    if (completed.load(std::memory_order_relaxed) == jobs.size() &&
        !finish_emitted.exchange(true)) {
      progress_event event;
      event.kind = progress_kind::session_finished;
      event.completed_jobs = jobs.size();
      event.total_jobs = jobs.size();
      emit(event);
    }
  }

  /// "axc-session v2": header section (magic .. seed netlist) and each job
  /// record carry a trailing `crc <8-hex>` line (CRC32 of the section's
  /// exact bytes); the footer `end <count>` doubles as a completeness
  /// sentinel.  Sections are staged through a stringstream so the CRC
  /// covers precisely what lands in the file.
  void save(std::ostream& os) const {
    std::scoped_lock lock(state_mutex);
    std::ostringstream header;
    header << kMagicV2 << "\n";
    header << "component " << component.name() << "\n";
    header << "width " << component.width() << "\n";
    header << "rng-seed " << component.rng_seed() << "\n";
    header << "iterations " << component.iterations() << "\n";
    header << "fingerprint " << component.fingerprint() << "\n";
    header << "runs-per-target " << plan.runs_per_target << "\n";
    header << "targets " << plan.targets.size();
    for (const double target : plan.targets) {
      header << " " << format_double(target);
    }
    header << "\n";
    header << "seed-netlist\n";
    circuit::write_netlist(header, seed);
    const std::string header_bytes = header.str();
    os << header_bytes << "crc " << support::hex8(support::crc32(header_bytes))
       << "\n";

    std::size_t saved = 0;
    for (std::size_t id = 0; id < results.size(); ++id) {
      if (!results[id]) continue;
      const evolved_design& design = *results[id];
      std::ostringstream record;
      record << "job " << id << " target " << format_double(design.target)
             << " run " << design.run_index << " wmed "
             << format_double(design.wmed) << " area "
             << format_double(design.area_um2) << " evaluations "
             << design.evaluations << " improvements "
             << design.improvements << "\n";
      circuit::write_netlist(record, design.netlist);
      const std::string record_bytes = record.str();
      os << record_bytes << "crc "
         << support::hex8(support::crc32(record_bytes)) << "\n";
      ++saved;
    }
    os << "end " << saved << "\n";
  }

  /// Atomic durable write via support::write_file_durable (temp file +
  /// flush + fsync + rename + parent-directory fsync — the last step makes
  /// the rename itself power-loss durable).  A failed save never disturbs
  /// an existing good checkpoint at `path`.  Fault injection points:
  /// `session-save-fail` (transient failure), `session-save-truncate`
  /// (torn write surviving into the file) and `session-save-dirsync-fail`
  /// (directory fsync failure after the rename).
  [[nodiscard]] bool save_to_file(const std::string& path) const {
    std::scoped_lock save_lock(save_mutex);
    std::ostringstream os;
    save(os);
    return support::write_file_durable(
        path, os.str(),
        {kFaultSaveFail, kFaultSaveTruncate, kFaultSaveDirsync});
  }

  /// Best-effort checkpoint to options.autosave_path (no-op when unset).
  /// Failures are tolerated — the next tick or job completion retries —
  /// and the atomic writer guarantees the last good file survives.
  void autosave() const {
    if (options.autosave_path.empty()) return;
    (void)save_to_file(options.autosave_path);
  }

  static constexpr std::string_view kFaultSaveFail = "session-save-fail";
  static constexpr std::string_view kFaultSaveTruncate =
      "session-save-truncate";
  static constexpr std::string_view kFaultSaveDirsync =
      "session-save-dirsync-fail";

  component_handle component;
  circuit::netlist seed;
  sweep_plan plan;
  session_config options;
  std::vector<sweep_job> jobs;
  std::vector<std::optional<evolved_design>> results;  ///< by job id
  pareto_archive archive;
  std::atomic<bool> stop{false};
  std::atomic<bool> last_run_stopped{false};
  std::atomic<bool> finish_emitted{false};
  std::atomic<std::size_t> completed{0};
  /// Session-wide generation counter driving autosave_generations ticks.
  mutable std::atomic<std::size_t> generation_ticks{0};
  /// Guards results/archive; never held while observer callbacks run.
  mutable std::mutex state_mutex;
  /// Serializes observer callbacks (on_progress/on_design).
  std::mutex emit_mutex;
  /// Serializes file writers (explicit save_file + autosaves) so two
  /// writers of the same path never interleave on the shared temp file.
  mutable std::mutex save_mutex;
  std::mutex pool_mutex;  ///< guards active_pool across run()/request_stop()
  thread_pool* active_pool{nullptr};
};

search_session::search_session(component_handle component,
                               circuit::netlist seed, sweep_plan plan,
                               session_config options)
    : impl_(std::make_unique<impl>(std::move(component), std::move(seed),
                                   std::move(plan), std::move(options))) {}

search_session::search_session(std::unique_ptr<impl> state)
    : impl_(std::move(state)) {}

search_session::search_session(search_session&&) noexcept = default;
search_session& search_session::operator=(search_session&&) noexcept =
    default;
search_session::~search_session() = default;

void search_session::run() { impl_->run(); }

void search_session::request_stop() {
  impl_->stop.store(true);
  std::scoped_lock lock(impl_->pool_mutex);
  if (impl_->active_pool != nullptr) impl_->active_pool->clear_pending();
}

bool search_session::stop_requested() const {
  return impl_->stop.load(std::memory_order_relaxed);
}

bool search_session::stopped() const {
  return impl_->last_run_stopped.load(std::memory_order_relaxed);
}

const component_handle& search_session::component() const {
  return impl_->component;
}

const circuit::netlist& search_session::seed() const { return impl_->seed; }

const sweep_plan& search_session::plan() const { return impl_->plan; }

std::size_t search_session::total_jobs() const { return impl_->jobs.size(); }

std::size_t search_session::completed_jobs() const {
  return impl_->completed.load(std::memory_order_relaxed);
}

bool search_session::finished() const {
  return completed_jobs() == total_jobs();
}

std::vector<evolved_design> search_session::designs() const {
  std::scoped_lock lock(impl_->state_mutex);
  std::vector<evolved_design> out;
  out.reserve(impl_->jobs.size());
  for (const auto& result : impl_->results) {
    if (result) out.push_back(*result);
  }
  return out;
}

std::optional<evolved_design> search_session::design(
    std::size_t job_id) const {
  std::scoped_lock lock(impl_->state_mutex);
  if (job_id >= impl_->results.size()) return std::nullopt;
  return impl_->results[job_id];
}

std::vector<pareto_point> search_session::front() const {
  std::scoped_lock lock(impl_->state_mutex);
  return impl_->archive.points();
}

void search_session::save(std::ostream& os) const { impl_->save(os); }

bool search_session::save_file(const std::string& path) const {
  return impl_->save_to_file(path);
}

std::optional<search_session> search_session::resume(
    std::istream& is, component_handle component, session_config options,
    resume_report* report) {
  if (report) *report = resume_report{};
  if (!component) return resume_error("empty component handle");

  std::string text{std::istreambuf_iterator<char>(is),
                   std::istreambuf_iterator<char>()};
  text_lines cur{text};
  const auto magic = cur.next();
  if (!magic) return resume_error("empty checkpoint");
  if (magic->line == kRetiredMagic) {
    if (report) report->version = 1;
    return resume_error(
        "checkpoint v1 is no longer readable; re-run the sweep");
  }
  if (magic->line == kMagicV2) {
    if (report) report->version = 2;
    return resume_v2(text, std::move(component), std::move(options), report);
  }
  return resume_error("bad magic line");
}

std::optional<search_session> search_session::resume_v2(
    const std::string& text, component_handle component,
    session_config options, resume_report* report) {
  text_lines cur{text};
  (void)cur.next();  // magic line, validated by the dispatcher

  // ---- Header: strict.  Without a trustworthy plan/fingerprint nothing
  // in the body is interpretable, so any damage here rejects the file.
  const auto read_field = [&cur](const char* key, auto& value) {
    const auto l = cur.next();
    if (!l) return false;
    std::istringstream ls{std::string(l->line)};
    std::string k;
    return static_cast<bool>(ls >> k >> value) && k == key;
  };

  std::string name;
  if (!read_field("component", name)) {
    return resume_error("missing component line");
  }
  if (name != component.name()) {
    return resume_error("component name does not match the handle");
  }
  unsigned width = 0;
  if (!read_field("width", width) || width != component.width()) {
    return resume_error("component width does not match the handle");
  }
  std::uint64_t rng_seed = 0;
  if (!read_field("rng-seed", rng_seed) ||
      rng_seed != component.rng_seed()) {
    return resume_error("rng seed does not match the handle");
  }
  std::size_t iterations = 0;
  if (!read_field("iterations", iterations) ||
      iterations != component.iterations()) {
    return resume_error("iteration budget does not match the handle");
  }
  std::uint64_t fingerprint = 0;
  if (!read_field("fingerprint", fingerprint) ||
      fingerprint != component.fingerprint()) {
    return resume_error(
        "config fingerprint does not match the handle (distribution, "
        "budget, function set or tie-break policy differ)");
  }

  sweep_plan plan;
  if (!read_field("runs-per-target", plan.runs_per_target) ||
      plan.runs_per_target > kMaxPlanEntries) {
    return resume_error("bad runs-per-target line");
  }
  {
    const auto l = cur.next();
    if (!l) return resume_error("missing targets line");
    std::istringstream ls{std::string(l->line)};
    std::string k;
    std::size_t count = 0;
    if (!(ls >> k >> count) || k != "targets" || count > kMaxPlanEntries) {
      return resume_error("bad targets line");
    }
    plan.targets.resize(count);
    for (double& target : plan.targets) {
      if (!(ls >> target)) return resume_error("truncated targets line");
    }
  }
  if (plan.runs_per_target != 0 &&
      plan.targets.size() > kMaxPlanEntries / plan.runs_per_target) {
    return resume_error("plan expansion too large");
  }

  {
    const auto l = cur.next();
    if (!l || l->line != "seed-netlist") {
      return resume_error("missing seed-netlist section");
    }
  }
  std::optional<circuit::netlist> seed = parse_netlist_block(cur);
  if (!seed) return resume_error("malformed seed netlist");
  if (seed->num_inputs() != component.seed_inputs() ||
      seed->num_outputs() != component.seed_outputs()) {
    return resume_error("seed netlist shape does not match the component");
  }
  {
    const auto l = cur.next();
    if (!l) return resume_error("truncated header (missing crc)");
    const auto expected = parse_crc_line(l->line);
    if (!expected) return resume_error("malformed header crc line");
    if (support::crc32(std::string_view(text).substr(0, l->start)) !=
        *expected) {
      return resume_error("header crc mismatch");
    }
  }

  auto state = std::make_unique<impl>(std::move(component), *std::move(seed),
                                      std::move(plan), std::move(options));

  // ---- Body: salvage.  Each job record is independently CRC-guarded;
  // damaged or truncated records are dropped (those jobs just re-run) and
  // scanning resyncs at the next record boundary.
  std::size_t recovered = 0;
  std::size_t dropped = 0;
  bool stray_bytes = false;
  bool footer = false;
  std::size_t footer_count = 0;

  const auto resync = [&cur] {
    while (true) {
      const std::size_t mark = cur.pos;
      const auto l = cur.next();
      if (!l) return;
      if (starts_with(l->line, "job ") || starts_with(l->line, "end")) {
        cur.pos = mark;
        return;
      }
    }
  };

  while (true) {
    const std::size_t record_start = cur.pos;
    const auto l = cur.next();
    if (!l) break;  // EOF without a footer: truncated
    if (starts_with(l->line, "end")) {
      std::istringstream ls{std::string(l->line)};
      std::string k;
      footer = static_cast<bool>(ls >> k >> footer_count) && k == "end";
      break;
    }
    if (!starts_with(l->line, "job ")) {
      stray_bytes = true;  // damage between records; skip to the next one
      resync();
      continue;
    }

    std::istringstream ls{std::string(l->line)};
    std::string k0, k1, k2, k3, k4, k5, k6;
    std::size_t id = 0, run_index = 0, evaluations = 0, improvements = 0;
    double target = 0.0, wmed = 0.0, area = 0.0;
    const bool job_line_ok =
        static_cast<bool>(ls >> k0 >> id >> k1 >> target >> k2 >>
                          run_index >> k3 >> wmed >> k4 >> area >> k5 >>
                          evaluations >> k6 >> improvements) &&
        k0 == "job" && k1 == "target" && k2 == "run" && k3 == "wmed" &&
        k4 == "area" && k5 == "evaluations" && k6 == "improvements";

    std::optional<circuit::netlist> nl;
    if (job_line_ok) nl = parse_netlist_block(cur);
    std::optional<std::uint32_t> expected;
    std::size_t crc_start = 0;
    if (nl) {
      const auto cl = cur.next();
      if (cl) {
        crc_start = cl->start;
        expected = parse_crc_line(cl->line);
      }
    }
    if (!job_line_ok || !nl || !expected ||
        support::crc32(std::string_view(text).substr(
            record_start, crc_start - record_start)) != *expected) {
      ++dropped;
      resync();
      continue;
    }

    // The CRC vouches for these bytes, so a structural mismatch now means
    // the wrong file (or a writer bug), not corruption — reject loudly.
    if (id >= state->jobs.size() || state->results[id].has_value()) {
      return resume_error("job record id out of range or duplicated");
    }
    if (target != state->jobs[id].target ||
        run_index != state->jobs[id].run_index) {
      return resume_error("job record does not match the plan expansion");
    }
    if (nl->num_inputs() != state->seed.num_inputs() ||
        nl->num_outputs() != state->seed.num_outputs()) {
      return resume_error("job netlist shape does not match the component");
    }
    state->archive.insert(pareto_point{wmed, area, id});
    state->results[id] = evolved_design{*std::move(nl), wmed,      area,
                                        target,         run_index, evaluations,
                                        improvements};
    ++recovered;
  }
  state->completed.store(recovered, std::memory_order_relaxed);

  const bool salvaged =
      dropped > 0 || stray_bytes || !footer || footer_count != recovered;
  if (salvaged) {
    std::fprintf(stderr,
                 "axc: session resume: salvaged v2 checkpoint (%zu job%s "
                 "recovered, %zu dropped%s)\n",
                 recovered, recovered == 1 ? "" : "s", dropped,
                 footer ? "" : ", footer missing");
  }
  if (report) {
    report->salvaged = salvaged;
    report->jobs_recovered = recovered;
    report->jobs_dropped = dropped;
  }
  return search_session(std::move(state));
}

std::optional<search_session> search_session::resume_file(
    const std::string& path, component_handle component,
    session_config options, resume_report* report) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return resume_error("cannot open checkpoint file");
  return resume(is, std::move(component), std::move(options), report);
}

}  // namespace axc::core
