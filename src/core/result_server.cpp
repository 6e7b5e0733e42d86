#include "core/result_server.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <unordered_set>

#include "support/fault.h"
#include "support/io.h"
#include "support/journal.h"
#include "support/tokens.h"

#if AXC_HAS_NET
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>
#endif

namespace axc::core {

namespace {

constexpr std::string_view kRequestMagic = "axc-serve v1";
constexpr std::string_view kReplyMagic = "axc-serve-reply v1";
constexpr std::string_view kJournalMagic = "serve v1";

/// Server crash points _Exit with 45 (42 worker, 43 coordinator, 44 store)
/// so the recovery tests can tell which injected death they observed.
constexpr int kServerCrashExit = 45;
constexpr std::string_view kFaultCrashMidEnqueue = "server-crash-mid-enqueue";
constexpr std::string_view kFaultCrashBeforeReply =
    "server-crash-before-reply";

std::string format_double(double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

[[nodiscard]] bool known_status(std::string_view status) {
  return status == "hit" || status == "miss-enqueued" ||
         status == "miss-rejected" || status == "queued" ||
         status == "running" || status == "failed" || status == "unknown" ||
         status == "malformed" || status == "draining" ||
         status == "timeout" || status == "error";
}

}  // namespace

// ---- Protocol text -------------------------------------------------------

std::string encode_request(const serve_request& request) {
  std::ostringstream os;
  os << kRequestMagic << "\n";
  os << "verb " << request.verb << "\n";
  if (request.budget) os << "budget " << format_double(*request.budget) << "\n";
  os << "timeout-ms " << request.timeout_ms << "\n";
  os << "spec\n";
  request.spec.write(os);
  return os.str();
}

std::optional<serve_request> parse_request(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string line;
  if (!std::getline(is, line) || line != kRequestMagic) return std::nullopt;
  serve_request request;
  bool saw_verb = false;
  while (std::getline(is, line)) {
    if (line == "spec") {
      // Syntax only: a well-formed spec that fails validate() is answered
      // `error` by process(), not `malformed`.
      auto spec = sweep_spec::parse(is);
      if (!spec || !saw_verb) return std::nullopt;
      request.spec = *std::move(spec);
      return request;
    }
    support::token_reader ls(line);
    const std::string_view tag = ls.next();
    if (tag == "verb") {
      if (!(ls >> request.verb)) return std::nullopt;
      if (request.verb != "get" && request.verb != "status" &&
          request.verb != "wait" && request.verb != "table") {
        return std::nullopt;
      }
      saw_verb = true;
    } else if (tag == "budget") {
      double budget = 0.0;
      if (!(ls >> budget)) return std::nullopt;
      request.budget = budget;
    } else if (tag == "timeout-ms") {
      if (!(ls >> request.timeout_ms) || request.timeout_ms < 0) {
        return std::nullopt;
      }
    } else {
      return std::nullopt;  // strict: unknown header lines are damage
    }
    if (!ls.at_end()) return std::nullopt;
  }
  return std::nullopt;  // never reached the spec section
}

std::string encode_reply(const serve_reply& reply) {
  std::string out(kReplyMagic);
  out += "\nstatus ";
  out += reply.status;
  out += '\n';
  if (!reply.key.empty()) {
    out += "key ";
    out += reply.key;
    out += '\n';
  }
  if (reply.payload) {
    out += "payload ";
    out += std::to_string(reply.payload->size());
    out += '\n';
    out += *reply.payload;
  } else {
    out += "end\n";
  }
  return out;
}

std::optional<serve_reply> parse_reply(std::string_view text) {
  std::istringstream is{std::string(text)};
  std::string line;
  if (!std::getline(is, line) || line != kReplyMagic) return std::nullopt;
  serve_reply reply;
  {
    if (!std::getline(is, line)) return std::nullopt;
    support::token_reader ls(line);
    std::string_view tag;
    if (!(ls >> tag >> reply.status) || tag != "status" ||
        !known_status(reply.status) || !ls.at_end()) {
      return std::nullopt;
    }
  }
  while (std::getline(is, line)) {
    support::token_reader ls(line);
    const std::string_view tag = ls.next();
    if (tag == "key") {
      if (!(ls >> reply.key) || !ls.at_end()) return std::nullopt;
    } else if (tag == "end") {
      if (!ls.at_end()) return std::nullopt;
      return reply;
    } else if (tag == "payload") {
      std::size_t size = 0;
      if (!(ls >> size) || !ls.at_end() || size > text.size()) {
        return std::nullopt;
      }
      std::string payload(size, '\0');
      is.read(payload.data(), static_cast<std::streamsize>(size));
      if (static_cast<std::size_t>(is.gcount()) != size) return std::nullopt;
      reply.payload = std::move(payload);
      return reply;
    } else {
      return std::nullopt;
    }
  }
  return std::nullopt;  // missing end/payload terminator
}

// ---- Server --------------------------------------------------------------

struct result_server::connection {
  support::net::unix_stream stream{};
  std::thread thread{};
  std::atomic<bool> done{false};
};

result_server::result_server(server_config config)
    : config_(std::move(config)) {}

result_server::~result_server() {
  request_stop();
  {
    std::scoped_lock lock(jobs_mutex_);
  }
  jobs_cv_.notify_all();
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  if (worker_.joinable()) worker_.join();
#if AXC_HAS_NET
  for (int& fd : stop_pipe_) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
#endif
}

std::string result_server::job_spec_path(std::uint64_t key) const {
  return config_.work_dir + "/jobs/" + result_store::format_key(key) +
         ".spec";
}

bool result_server::journal_append(std::string_view body) {
  std::scoped_lock lock(journal_mutex_);
  return support::journal::append(config_.work_dir + "/server.journal",
                                  body);
}

void result_server::replay_journal() {
  const std::string path = config_.work_dir + "/server.journal";
  std::vector<std::uint64_t> enqueued;
  std::unordered_set<std::uint64_t> settled;  // done or fail
  const auto apply = [&](std::string_view body) {
    support::token_reader ls(body);
    std::string_view tag, key_hex;
    if (!(ls >> tag >> key_hex)) return;
    const auto key = support::parse_hex(key_hex);
    if (!key) return;
    if (tag == "enqueue") {
      enqueued.push_back(*key);
    } else if (tag == "done" || tag == "fail") {
      settled.insert(*key);
    }
  };
  if (!support::journal::replay(support::journal::load(path), kJournalMagic,
                                apply)) {
    // Missing, foreign or header-damaged journal: start fresh.
    if (!support::write_file_durable(path,
                                     support::journal::encode(kJournalMagic))) {
      std::fprintf(stderr, "axc-serve: cannot write journal %s\n",
                   path.c_str());
    }
    return;
  }
  // Re-adopt every accepted job no previous life settled.  A job whose
  // front actually landed (the crash hit between publish and the `done`
  // record) is recognized from the store and settled retroactively.
  for (const std::uint64_t key : enqueued) {
    if (settled.contains(key)) continue;
    const std::string key16 = result_store::format_key(key);
    {
      std::scoped_lock lock(store_mutex_);
      if (store_ && store_->contains("front", key16)) {
        (void)journal_append("done " + key16);
        settled.insert(key);
        continue;
      }
    }
    auto spec = sweep_spec::read_file(job_spec_path(key));
    if (!spec) {
      std::fprintf(stderr,
                   "axc-serve: journaled job %s has no readable spec; "
                   "dropping it\n",
                   key16.c_str());
      (void)journal_append("fail " + key16);
      settled.insert(key);
      continue;
    }
    std::scoped_lock lock(jobs_mutex_);
    jobs_.try_emplace(key, job{*std::move(spec), job_state::queued});
    queue_.push_back(key);
    settled.insert(key);  // guard against duplicate enqueue records
    std::scoped_lock stats_lock(stats_mutex_);
    ++stats_.jobs_adopted;
  }
}

bool result_server::start() {
  std::error_code ec;
  std::filesystem::create_directories(config_.work_dir + "/jobs", ec);
  std::filesystem::create_directories(config_.work_dir + "/sweeps", ec);
  {
    std::scoped_lock lock(store_mutex_);
    store_ = result_store::open(config_.store_dir);
    if (!store_) {
      std::fprintf(stderr, "axc-serve: cannot open store %s\n",
                   config_.store_dir.c_str());
      return false;
    }
  }
  publisher_ = result_store::open(config_.store_dir);
#if AXC_HAS_NET
  // Close-on-exec, like every fd the daemon owns: the workers it spawns
  // must not inherit the stop pipe, the listener or client connections.
  if (::pipe2(stop_pipe_, O_CLOEXEC) != 0) {
    std::fprintf(stderr, "axc-serve: cannot create stop pipe\n");
    return false;
  }
#endif
  replay_journal();
  worker_ = std::thread([this] { worker_loop(); });
  if (!config_.socket_path.empty()) {
    auto listener = support::net::unix_listener::listen_at(
        config_.socket_path);
    if (!listener) {
      std::fprintf(stderr, "axc-serve: cannot listen at %s\n",
                   config_.socket_path.c_str());
      request_stop();
      return false;
    }
    listener_ = *std::move(listener);
  }
  started_ = true;
  return true;
}

void result_server::request_stop() {
  stop_.store(true, std::memory_order_relaxed);
  jobs_cv_.notify_all();
#if AXC_HAS_NET
  if (stop_pipe_[1] >= 0) {
    const char byte = 'x';
    (void)!::write(stop_pipe_[1], &byte, 1);
  }
#endif
}

void result_server::refresh_store() {
  std::scoped_lock lock(store_mutex_);
  if (store_) store_->refresh();
}

serve_stats result_server::stats() const {
  std::scoped_lock lock(stats_mutex_);
  return stats_;
}

// ---- Request handling ----------------------------------------------------

std::string result_server::handle_request(std::string_view request_text) {
  auto request = parse_request(request_text);
  if (!request) {
    {
      std::scoped_lock lock(stats_mutex_);
      ++stats_.malformed;
    }
    return encode_reply(serve_reply{.status = "malformed"});
  }
  return encode_reply(process(*request));
}

serve_reply result_server::serve_front(std::uint64_t key,
                                       std::optional<double> budget) {
  const std::string key16 = result_store::format_key(key);
  std::optional<std::string> bytes;
  {
    std::scoped_lock lock(store_mutex_);
    if (store_) bytes = store_->get("front", key16);
  }
  if (!bytes) return serve_reply{.status = "unknown", .key = key16};
  serve_reply reply{.status = "hit", .key = key16};
  if (budget) {
    // Budget filtering re-serializes, so a budgeted reply is NOT the
    // stored bytes; unbudgeted hits are, which is the byte-identity the
    // tests compare against `axc_store get`.
    const auto points = parse_front(*bytes);
    if (!points) return serve_reply{.status = "error", .key = key16};
    std::vector<pareto_point> kept;
    for (const pareto_point& p : *points) {
      if (p.x <= *budget) kept.push_back(p);
    }
    reply.payload = serialize_front(kept);
  } else {
    reply.payload = *std::move(bytes);
  }
  std::scoped_lock lock(stats_mutex_);
  ++stats_.hits;
  return reply;
}

serve_reply result_server::serve_table(const serve_request& request) {
  const component_handle handle = request.spec.make_component();
  if (!handle) return serve_reply{.status = "error"};
  // The plan cannot change a truth table: one key per component and seed.
  const std::string key16 = result_store::format_key(request.spec.table_key());
  {
    std::scoped_lock lock(store_mutex_);
    if (store_) {
      if (auto bytes = store_->get("table", key16)) {
        serve_reply reply{.status = "hit", .key = key16,
                          .payload = *std::move(bytes)};
        std::scoped_lock stats_lock(stats_mutex_);
        ++stats_.hits;
        return reply;
      }
    }
  }
  const std::string payload = serialize_table(
      handle.width(), handle.characterize(request.spec.seed));
  std::scoped_lock lock(store_mutex_);
  if (!store_ || !store_->put("table", key16, payload)) {
    return serve_reply{.status = "error", .key = key16};
  }
  // Serve the store's bytes, not the local buffer: a table hit and the
  // miss that built it must be byte-identical.
  auto bytes = store_->get("table", key16);
  if (!bytes) return serve_reply{.status = "error", .key = key16};
  {
    std::scoped_lock stats_lock(stats_mutex_);
    ++stats_.tables_built;
    ++stats_.hits;
  }
  return serve_reply{.status = "hit", .key = key16,
                     .payload = *std::move(bytes)};
}

std::optional<std::string> result_server::job_status_locked(
    std::uint64_t key) const {
  if (const auto it = jobs_.find(key); it != jobs_.end()) {
    return it->second.state == job_state::queued ? "queued" : "running";
  }
  if (failed_.contains(key)) return "failed";
  return std::nullopt;
}

serve_reply result_server::enqueue_miss(const serve_request& request,
                                        std::uint64_t key) {
  const std::string key16 = result_store::format_key(key);
  // Another process (a coordinator publishing out-of-band) may have landed
  // this front since our index was last read: catch up before paying for
  // a sweep.
  refresh_store();
  std::unique_lock lock(jobs_mutex_);
  if (const auto status = job_status_locked(key)) {
    // Coalesce: someone else already owns this key's sweep (or it failed).
    std::scoped_lock stats_lock(stats_mutex_);
    if (*status != "failed") ++stats_.coalesced;
    return serve_reply{.status = *status, .key = key16};
  }
  // No job knows the key: either the front was published (by us — a job
  // is released only after the store has seen its front — or by another
  // process), or nobody has swept it yet.  Probe under the job lock so a
  // job released since the caller's probe cannot be missed.
  {
    serve_reply again = serve_front(key, request.budget);
    if (again.status == "hit") return again;
  }
  if (stop_.load(std::memory_order_relaxed)) {
    return serve_reply{.status = "draining", .key = key16};
  }
  if (config_.worker_binary.empty() || queue_.size() >= config_.queue_limit) {
    std::scoped_lock stats_lock(stats_mutex_);
    ++stats_.rejected;
    return serve_reply{.status = "miss-rejected", .key = key16};
  }
  // Durability order: spec file, then journal record, then the in-memory
  // queue.  A crash after the journal append leaves exactly the state
  // replay_journal() re-adopts.
  {
    std::ostringstream os;
    request.spec.write(os);
    if (!support::write_file_durable(job_spec_path(key), os.str())) {
      return serve_reply{.status = "error", .key = key16};
    }
  }
  if (!journal_append("enqueue " + key16)) {
    return serve_reply{.status = "error", .key = key16};
  }
  // The mid-enqueue kill window: the job is journaled and its spec is
  // durable, but no worker thread knows about it and no reply was sent.
  // _Exit models SIGKILL; the restarted server must re-adopt and run it.
  if (fault::fire(kFaultCrashMidEnqueue)) std::_Exit(kServerCrashExit);
  jobs_.try_emplace(key, job{request.spec, job_state::queued});
  queue_.push_back(key);
  lock.unlock();
  jobs_cv_.notify_all();
  std::scoped_lock stats_lock(stats_mutex_);
  ++stats_.misses_enqueued;
  return serve_reply{.status = "miss-enqueued", .key = key16};
}

serve_reply result_server::process(const serve_request& request) {
  // Range-check before anything builds a component from the spec: a
  // hostile width or distribution must not take the daemon down.
  if (!request.spec.validate().empty()) return serve_reply{.status = "error"};
  if (request.verb == "table") return serve_table(request);
  const std::uint64_t key = request.spec.store_key();
  if (key == 0) return serve_reply{.status = "error"};
  const std::string key16 = result_store::format_key(key);

  if (request.verb == "status") {
    // Both looks under the job lock: a job released in between would
    // otherwise be in neither place.
    std::scoped_lock lock(jobs_mutex_);
    {
      std::scoped_lock store_lock(store_mutex_);
      if (store_ && store_->contains("front", key16)) {
        return serve_reply{.status = "hit", .key = key16};
      }
    }
    return serve_reply{.status = job_status_locked(key).value_or("unknown"),
                       .key = key16};
  }

  serve_reply reply = serve_front(key, request.budget);
  if (reply.status != "hit") reply = enqueue_miss(request, key);
  if (request.verb == "get" || reply.status == "hit" ||
      reply.status == "miss-rejected" || reply.status == "failed" ||
      reply.status == "draining" || reply.status == "error") {
    return reply;
  }

  // wait: block until the coalesced job settles, the drain begins, or the
  // client's deadline passes.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(request.timeout_ms);
  {
    std::unique_lock lock(jobs_mutex_);
    // Settled = released: published (re-probe the store) or failed.
    const bool settled = jobs_cv_.wait_until(lock, deadline, [&] {
      return stop_.load(std::memory_order_relaxed) || !jobs_.contains(key);
    });
    if (stop_.load(std::memory_order_relaxed)) {
      return serve_reply{.status = "draining", .key = key16};
    }
    if (!settled) return serve_reply{.status = "timeout", .key = key16};
  }
  serve_reply settled = serve_front(key, request.budget);
  if (settled.status == "hit") return settled;
  return serve_reply{.status = "failed", .key = key16};
}

// ---- Background sweeps ---------------------------------------------------

void result_server::run_job(std::uint64_t key, job& item) {
  const std::string key16 = result_store::format_key(key);
  shard_runner_config cfg;
  cfg.shards = config_.shards;
  cfg.max_attempts = config_.max_attempts;
  cfg.work_dir = config_.work_dir + "/sweeps/" + key16;
  cfg.worker_binary = config_.worker_binary;
  cfg.store_dir = config_.store_dir;
  cfg.store = publisher_ ? &*publisher_ : nullptr;
  // The job queue dispatches through the node pool when a fleet is
  // configured; each sweep gets its own pool (health is cheap to relearn
  // per job, and a poisoned node cannot wedge the queue across jobs).
  cfg.nodes = config_.nodes;
  cfg.speculate_after = config_.speculate_after;
  cfg.should_stop = [this] { return stopping(); };
  const sweep_result result = run_sweep(item.spec, cfg);
  if (result.drained && !result.complete) {
    // Drain interrupted the sweep: no done/fail record, so the journal
    // still says `enqueue` and the next life re-adopts the job; the
    // sweep's own coordinator journal + shard checkpoints make the re-run
    // resume instead of restart.
    std::scoped_lock lock(jobs_mutex_);
    item.state = job_state::queued;
    return;
  }
  bool published = false;
  {
    std::scoped_lock lock(store_mutex_);
    if (store_) store_->refresh();
    published = result.complete && store_ &&
                store_->contains("front", key16);
  }
  (void)journal_append((published ? "done " : "fail ") + key16);
  {
    // Release the job (`item` dies here).  The refresh above happened
    // first, so anyone who finds the key gone also finds its front.
    std::scoped_lock lock(jobs_mutex_);
    jobs_.erase(key);
    if (!published) failed_.insert(key);
  }
  {
    std::scoped_lock lock(stats_mutex_);
    if (published) {
      ++stats_.sweeps_completed;
    } else {
      ++stats_.sweeps_failed;
    }
  }
  jobs_cv_.notify_all();
}

void result_server::worker_loop() {
  while (true) {
    job* item = nullptr;
    std::uint64_t key = 0;
    {
      std::unique_lock lock(jobs_mutex_);
      jobs_cv_.wait(lock, [&] {
        return stop_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (stop_.load(std::memory_order_relaxed)) {
        // Drain: leave queued jobs journaled for the next life.
        return;
      }
      key = queue_.front();
      queue_.pop_front();
      if (const auto it = jobs_.find(key); it != jobs_.end()) {
        item = &it->second;
        item->state = job_state::running;
      }
    }
    if (item) {
      jobs_cv_.notify_all();  // wake `status`/`wait` observers
      run_job(key, *item);
    }
  }
}

// ---- Socket front door ---------------------------------------------------

void result_server::handle_connection(connection& conn) {
  while (!stopping()) {
    support::net::frame_error error = support::net::frame_error::none;
    auto payload = conn.stream.receive(config_.max_frame_bytes, &error);
    if (!payload) {
      // Damaged framing poisons only this connection — the listener keeps
      // accepting.  (io covers receive timeouts; closed is a clean hangup;
      // neither is client-sent damage.)
      if (error != support::net::frame_error::closed &&
          error != support::net::frame_error::io) {
        std::scoped_lock lock(stats_mutex_);
        ++stats_.malformed;
      }
      break;
    }
    const std::string reply = handle_request(*payload);
    // The before-reply kill window: the request is fully processed (an
    // enqueue is journaled, a hit was read) but the client never hears.
    // The restarted server must answer an identical retry consistently.
    if (fault::fire(kFaultCrashBeforeReply)) std::_Exit(kServerCrashExit);
    if (!conn.stream.send(reply)) break;
  }
  conn.stream.close();
  conn.done.store(true, std::memory_order_release);
}

void result_server::serve() {
#if AXC_HAS_NET
  if (!listener_.valid()) return;
  while (!stopping()) {
    ::pollfd fds[2] = {{listener_.fd(), POLLIN, 0},
                       {stop_pipe_[0], POLLIN, 0}};
    const int ready = ::poll(fds, 2, 200);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    // Reap finished connection handlers between accepts so a long-lived
    // server doesn't accumulate joinable threads.
    std::erase_if(connections_, [](const std::unique_ptr<connection>& c) {
      if (!c->done.load(std::memory_order_acquire)) return false;
      if (c->thread.joinable()) c->thread.join();
      return true;
    });
    if (fds[1].revents & POLLIN) {
      request_stop();
      break;
    }
    if (!(fds[0].revents & POLLIN)) continue;
    auto stream = listener_.accept();
    if (!stream) continue;
    auto conn = std::make_unique<connection>();
    conn->stream = *std::move(stream);
    if (config_.receive_timeout_ms > 0) {
      (void)conn->stream.set_receive_timeout_ms(config_.receive_timeout_ms);
    }
    connection* raw = conn.get();
    conn->thread = std::thread([this, raw] { handle_connection(*raw); });
    connections_.push_back(std::move(conn));
  }
  // Drain: stop accepting, finish/abort handlers, stop the sweep thread.
  request_stop();
  listener_.close();
  for (auto& conn : connections_) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  connections_.clear();
  if (worker_.joinable()) worker_.join();
#endif
}

}  // namespace axc::core
