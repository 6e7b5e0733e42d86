#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "dist/pmf.h"
#include "mult/adders.h"
#include "mult/multipliers.h"
#include "support/net.h"
#include "tech/analysis.h"

extern char** environ;

namespace axbench {

// ---- statistics ------------------------------------------------------------

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::optional<double> tail_quantile(std::size_t samples) {
  std::optional<double> best;
  for (const double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(samples) - 1e-9));
    if (samples >= rank + 10) best = q;
  }
  return best;
}

// ---- front quality ---------------------------------------------------------

double hypervolume(std::vector<std::pair<double, double>> points,
                   double ref_x, double ref_y) {
  std::erase_if(points, [&](const auto& p) {
    return !(p.first < ref_x && p.second < ref_y);
  });
  std::sort(points.begin(), points.end());
  double volume = 0.0;
  double ceiling = ref_y;
  for (const auto& [x, y] : points) {
    if (y >= ceiling) continue;  // dominated by an earlier (smaller-x) point
    volume += (ref_x - x) * (ceiling - y);
    ceiling = y;
  }
  return volume;
}

double front_hv(const std::vector<core::pareto_point>& front,
                double exact_area) {
  constexpr double kLogFloor = -7.0;
  std::vector<std::pair<double, double>> points;
  points.reserve(front.size());
  for (const core::pareto_point& p : front) {
    const double x = p.x > 0.0 ? std::max(std::log10(p.x), kLogFloor)
                               : kLogFloor;
    points.emplace_back(x, p.y);
  }
  return hypervolume(std::move(points), 0.0, exact_area) /
         (-kLogFloor * exact_area);
}

// ---- tracing ---------------------------------------------------------------

namespace {
thread_local std::uint64_t t_parent = 0;
thread_local std::uint64_t t_request = 0;
}  // namespace

std::uint64_t tracer::next_id() {
  std::scoped_lock lock(mutex_);
  return ++next_id_;
}

double tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(bench_clock::now() -
                                                   origin_)
      .count();
}

void tracer::record(const span_record& span) {
  std::scoped_lock lock(mutex_);
  spans_.push_back(span);
}

std::vector<span_record> tracer::spans() const {
  std::scoped_lock lock(mutex_);
  return spans_;
}

bool tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"spans\": [\n", f);
  const std::vector<span_record> all = spans();
  for (std::size_t i = 0; i < all.size(); ++i) {
    const span_record& s = all[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.start_us,
                 s.end_us, i + 1 < all.size() ? "," : "");
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

scoped_span::scoped_span(tracer* sink, const char* name,
                         std::uint64_t request)
    : sink_(sink) {
  if (sink_ == nullptr) return;
  record_.name = name;
  record_.id = sink_->next_id();
  record_.parent = t_parent;
  record_.request = request != 0 ? request : t_request;
  saved_parent_ = t_parent;
  saved_request_ = t_request;
  t_parent = record_.id;
  t_request = record_.request;
  record_.start_us = sink_->now_us();
}

scoped_span::~scoped_span() {
  if (sink_ == nullptr) return;
  record_.end_us = sink_->now_us();
  t_parent = saved_parent_;
  t_request = saved_request_;
  sink_->record(record_);
}

// ---- child processes -------------------------------------------------------

child& child::operator=(child&& other) noexcept {
  if (this != &other) {
    kill_and_reap();
    pid_ = std::exchange(other.pid_, -1);
  }
  return *this;
}

std::optional<child> child::spawn(const std::vector<std::string>& argv,
                                  const std::string& out_path) {
  if (argv.empty()) return std::nullopt;
  posix_spawn_file_actions_t actions;
  if (posix_spawn_file_actions_init(&actions) != 0) return std::nullopt;
  const std::string log_path = out_path + ".log";
  posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                   O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, args[0], &actions, nullptr, args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (rc != 0) return std::nullopt;
  child c;
  c.pid_ = pid;
  return c;
}

namespace {
int decode_status(int status) {
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return WEXITSTATUS(status);
}
}  // namespace

int child::wait() {
  if (pid_ <= 0) return -1;
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(pid_, &status, 0);
  } while (r < 0 && errno == EINTR);
  pid_ = -1;
  return r < 0 ? -1 : decode_status(status);
}

int child::stop(double grace_seconds) {
  if (pid_ <= 0) return -1;
  ::kill(pid_, SIGTERM);
  const auto deadline =
      bench_clock::now() + std::chrono::duration<double>(grace_seconds);
  while (bench_clock::now() < deadline) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_) {
      pid_ = -1;
      return decode_status(status);
    }
    if (r < 0 && errno != EINTR) {
      pid_ = -1;
      return -1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::kill(pid_, SIGKILL);
  return wait();
}

void child::kill_and_reap() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  (void)wait();
}

double children_peak_rss_mb() {
  ::rusage usage{};
  if (::getrusage(RUSAGE_CHILDREN, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- workload inputs -------------------------------------------------------

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
/// rng_seeds stay in a readable range; any value is valid to the search.
std::uint64_t spec_seed(std::uint64_t seed, std::uint64_t stream) {
  return 1 + mix(seed, stream) % 1000000007ULL;
}
}  // namespace

core::sweep_spec mult8_sweep_spec(const context& ctx, std::size_t variant) {
  core::sweep_spec spec;
  spec.component = "mult";
  spec.options.width = 8;
  spec.options.distribution = axc::dist::pmf::half_normal(256, 24.0);
  spec.options.iterations = ctx.short_mode ? 200 : 2000;
  spec.options.rng_seed = spec_seed(ctx.seed, 1 + variant);
  spec.plan.targets = core::default_wmed_targets();
  spec.plan.runs_per_target = 2;
  spec.options.runs_per_target = 2;
  spec.seed = axc::mult::unsigned_multiplier(8);
  return spec;
}

std::vector<core::sweep_spec> hit_specs(const context& ctx) {
  // Distinct operand distributions (NN-weight-like half-normals of
  // several spreads): each is its own store key and its own front.
  static constexpr double kSigmas[] = {12.0, 16.0, 24.0, 32.0, 48.0, 64.0};
  const std::size_t count = ctx.short_mode ? 2 : std::size(kSigmas);
  std::vector<core::sweep_spec> specs;
  for (std::size_t k = 0; k < count; ++k) {
    core::sweep_spec spec;
    spec.component = "mult";
    spec.options.width = 8;
    spec.options.distribution =
        axc::dist::pmf::half_normal(256, kSigmas[k]);
    spec.options.iterations = ctx.short_mode ? 60 : 300;
    spec.options.rng_seed = spec_seed(ctx.seed, 100 + k);
    spec.plan.targets = core::default_wmed_targets();
    spec.plan.runs_per_target = 1;
    spec.options.runs_per_target = 1;
    spec.seed = axc::mult::unsigned_multiplier(8);
    specs.push_back(std::move(spec));
  }
  return specs;
}

core::sweep_spec miss_spec(const context& ctx, std::size_t i) {
  core::sweep_spec spec;
  spec.component = "adder";
  spec.options.width = 8;
  spec.options.distribution = axc::dist::pmf::half_normal(256, 32.0);
  spec.options.iterations = ctx.short_mode ? 60 : 300;
  spec.options.rng_seed = spec_seed(ctx.seed, 10000 + i);
  spec.plan.targets = {1e-4, 1e-3, 1e-2, 5e-2};
  spec.plan.runs_per_target = 1;
  spec.options.runs_per_target = 1;
  spec.seed = axc::mult::ripple_adder(8);
  return spec;
}

double seed_area(const core::sweep_spec& spec) {
  return axc::tech::estimate_area(spec.seed, *spec.options.library);
}

core::sweep_result reference_sweep(const core::sweep_spec& spec,
                                   unsigned threads) {
  core::session_config options;
  options.job_threads = std::max(1u, threads);
  return core::run_sweep_inprocess(spec, options);
}

// ---- client side of the serving protocol -----------------------------------

std::optional<core::serve_reply> exchange(
    const axc::support::net::unix_stream& stream,
    const std::string& request_text, tracer* sink) {
  {
    scoped_span s(sink, "net.send");
    if (!stream.send(request_text)) return std::nullopt;
  }
  std::optional<std::string> text;
  {
    scoped_span s(sink, "net.receive");
    text = stream.receive(1u << 24);
  }
  if (!text) return std::nullopt;
  return core::parse_reply(*text);
}

std::optional<core::serve_reply> request_once(const std::string& socket_path,
                                              const std::string& request_text,
                                              tracer* sink) {
  std::optional<axc::support::net::unix_stream> stream;
  {
    scoped_span s(sink, "net.connect");
    stream = axc::support::net::unix_stream::connect(socket_path);
  }
  if (!stream) return std::nullopt;
  return exchange(*stream, request_text, sink);
}

}  // namespace axbench
