// The two workloads and the run loop shared by them.
//
//   sweep_mult8  spec -> published front through `axc_sweep --store`
//   serve_mixed  miss -> front through `axc_serve --worker`, hits beside
//
// Each run: generate inputs from the seed (untimed), set up several times
// (timed: setup_s is their median), measure for --seconds, then check every
// output against an independent source of truth (untimed).  A traced run
// measures two short segments, untraced then traced, reports the ratio of
// their end-to-end numbers as the tracing overhead, and then runs the
// per-layer ladder (ladder.cpp) on one of the workload's own specs.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>

#include "common.h"
#include "core/result_store.h"
#include "support/net.h"

namespace axbench {

namespace fs = std::filesystem;

namespace {

double ms_between(bench_clock::time_point a, bench_clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// One measured segment of the timed loop.
struct segment {
  std::vector<double> setup_s;  ///< set-ups made inside the timed loop
  std::vector<double> op_ms;  ///< the workload's primary operation
  double ops_per_s{0.0};
  std::vector<double> hv;      ///< front_hv of each front delivered
  std::vector<double> hit_us;  ///< served hits (serve_mixed)
  double hits_per_s{0.0};
  double misses_per_s{0.0};
};

class workload {
 public:
  virtual ~workload() = default;
  /// Untimed input generation.
  virtual void prepare(outcome&) {}
  /// One timed set-up; `keep` leaves the system up for measure().
  virtual void setup(bool keep, tracer* sink, outcome& out) = 0;
  virtual segment measure(double seconds, tracer* sink, outcome& out) = 0;
  /// Untimed output checks; tears the system down.
  virtual void finish(outcome& out) = 0;
  /// Which quantile tail_ms reports (fixed per workload so it compares).
  [[nodiscard]] virtual double tail_q() const = 0;
  /// Timed set-ups per run; setup_s is their median.
  [[nodiscard]] virtual std::size_t setup_reps() const { return 9; }
  [[nodiscard]] virtual core::sweep_spec ladder_spec() const = 0;
};

// ---- sweep_mult8 -------------------------------------------------------------

/// The line axc_sweep prints per front point (tools/axc_sweep.cpp).
std::string front_lines(const std::vector<core::pareto_point>& front) {
  std::string text;
  char line[160];
  for (const core::pareto_point& p : front) {
    std::snprintf(line, sizeof line, "  wmed %.6g  area %.6g um^2  (job %zu)\n",
                  p.x, p.y, p.index);
    text += line;
  }
  return text;
}

std::string printed_front(const std::string& stdout_text) {
  std::string lines;
  std::istringstream in(stdout_text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("  wmed ", 0) == 0) lines += line + "\n";
  }
  return lines;
}

class sweep_workload final : public workload {
 public:
  explicit sweep_workload(const context& ctx) : ctx_(ctx) {}

  void prepare(outcome&) override {
    exact_area_ = seed_area(mult8_sweep_spec(ctx_, 0));
  }

  /// No up-front set-up: each sweep's own set-up (set_up_sweep) is timed
  /// right before it, so the set-up samples spread over the whole run.
  void setup(bool, tracer*, outcome&) override {}
  [[nodiscard]] std::size_t setup_reps() const override { return 0; }

  segment measure(double seconds, tracer* sink, outcome& out) override {
    segment seg;
    const auto start = bench_clock::now();
    do {
      const std::size_t v = rep_ % kVariants;
      const std::string dir = ctx_.run_dir + "/sweep-" + std::to_string(rep_);
      const std::string spec_path = dir + "/mult8.spec";
      const auto s0 = bench_clock::now();
      set_up_sweep(v, dir, spec_path, sink, out);
      seg.setup_s.push_back(seconds_between(s0, bench_clock::now()));
      const std::vector<std::string> argv = {
          ctx_.tool("axc_sweep"), "--spec",   spec_path,
          "--worker",             ctx_.tool("axc_worker"),
          "--work-dir",           dir + "/work",
          "--shards",             "2",
          "--store",              dir + "/store"};
      ++out.attempted;
      int code = -1;
      const auto t0 = bench_clock::now();
      {
        scoped_span op(sink, "sweep.spec_to_front", rep_ + 1);
        std::optional<child> proc;
        {
          scoped_span s(sink, "sweep.spawn");
          proc = child::spawn(argv, dir + "/stdout");
        }
        if (proc) {
          scoped_span s(sink, "sweep.wait");
          code = proc->wait();
        }
      }
      const auto t1 = bench_clock::now();
      if (code != 0) {
        out.fail("axc_sweep exited with " + std::to_string(code));
      } else {
        seg.op_ms.push_back(ms_between(t0, t1));
        collected c;
        c.variant = v;
        c.printed = printed_front(read_file(dir + "/stdout"));
        if (auto store = core::result_store::open(dir + "/store")) {
          c.stored = store->get("front", variants_[v].key16).value_or("");
        }
        if (auto points = core::parse_front(c.stored)) {
          seg.hv.push_back(front_hv(*points, exact_area_));
        }
        results_.push_back(std::move(c));
      }
      std::error_code ec;
      fs::remove_all(dir, ec);
      ++rep_;
    } while (seconds_between(start, bench_clock::now()) < seconds);
    const double busy_s =
        std::accumulate(seg.op_ms.begin(), seg.op_ms.end(), 0.0) / 1e3;
    seg.ops_per_s =
        busy_s > 0.0 ? static_cast<double>(seg.op_ms.size()) / busy_s : 0.0;
    return seg;
  }

  /// Every published front must be byte-identical to run_sweep_inprocess
  /// of its spec, both as stored and as axc_sweep printed it.
  void finish(outcome& out) override {
    for (std::size_t v = 0; v < std::min(rep_, kVariants); ++v) {
      const core::sweep_result reference =
          reference_sweep(variants_[v].spec, ctx_.nproc);
      if (!reference.complete) {
        out.fail("in-process reference sweep incomplete");
        continue;
      }
      const std::string stored = core::serialize_front(reference.front);
      const std::string printed = front_lines(reference.front);
      for (std::size_t i = 0; i < results_.size(); ++i) {
        if (results_[i].variant != v) continue;
        if (results_[i].stored != stored) {
          out.fail("sweep " + std::to_string(i) +
                   ": stored front differs from run_sweep_inprocess");
        }
        if (results_[i].printed != printed) {
          out.fail("sweep " + std::to_string(i) +
                   ": printed front differs from run_sweep_inprocess");
        }
      }
    }
  }

  /// About 22-26 sweeps per 30 s run: p75 keeps several samples above it,
  /// p90 only two or three.
  [[nodiscard]] double tail_q() const override { return 0.75; }
  [[nodiscard]] core::sweep_spec ladder_spec() const override {
    return mult8_sweep_spec(ctx_, 0);
  }

 private:
  /// Sweeps cycle through kVariants seeded rng_seeds, so one run's median
  /// spans several searches, not one.
  static constexpr std::size_t kVariants = 4;

  /// A sweep's set-up: its fresh directory, its spec generated and written
  /// there, and the store key the front will be published under, asked of
  /// `axc_client key` as a script would.  The key must match the spec's
  /// own.  Writing the spec file alone took a fraction of a millisecond,
  /// which spread far more from run to run than a process start does.
  void set_up_sweep(std::size_t v, const std::string& dir,
                    const std::string& spec_path, tracer* sink,
                    outcome& out) {
    scoped_span s(sink, "setup.sweep");
    fs::create_directories(dir);
    variant& spec = variants_[v];
    spec.spec = mult8_sweep_spec(ctx_, v);
    spec.key16 = core::result_store::format_key(spec.spec.store_key());
    if (!spec.spec.write_file(spec_path)) out.fail("cannot write " + spec_path);
    const std::string key_path = dir + "/key";
    auto proc = child::spawn(
        {ctx_.tool("axc_client"), "key", "--spec", spec_path}, key_path);
    const int code = proc ? proc->wait() : -1;
    std::string key = read_file(key_path);
    while (!key.empty() && key.back() == '\n') key.pop_back();
    if (code != 0 || key != spec.key16) {
      out.fail("axc_client key gave '" + key + "', not " + spec.key16);
    }
  }

  struct variant {
    core::sweep_spec spec;
    std::string key16;
  };
  struct collected {
    std::size_t variant{0};
    std::string printed;
    std::string stored;
  };

  const context& ctx_;
  std::array<variant, kVariants> variants_;
  double exact_area_{1.0};
  std::size_t rep_{0};
  std::vector<collected> results_;
};

// ---- serve_mixed -------------------------------------------------------------

class serve_workload final : public workload {
 public:
  explicit serve_workload(const context& ctx) : ctx_(ctx) {}

  void prepare(outcome& out) override {
    specs_ = hit_specs(ctx_);
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      const core::sweep_spec& spec = specs_[k];
      const core::sweep_result ref = reference_sweep(spec, ctx_.nproc);
      if (!ref.complete) out.fail("hit spec front incomplete");
      fronts_.push_back(core::serialize_front(ref.front));
      keys_.push_back(core::result_store::format_key(spec.store_key()));
      // Every spec is served unfiltered, and under three seeded budgets
      // drawn from its own targets.
      core::serve_request request;
      request.spec = spec;
      cases_.push_back({core::encode_request(request), k, std::nullopt, {}});
      for (std::uint64_t j = 0; j < 3; ++j) {
        const auto& targets = spec.plan.targets;
        request.budget =
            targets[mix(ctx_.seed, 200 + 8 * k + j) % targets.size()];
        cases_.push_back(
            {core::encode_request(request), k, request.budget, {}});
      }
    }
    dir_ = ctx_.run_dir + "/serve";
    socket_ = dir_ + "/s";
    auto store = core::result_store::open(dir_ + "/store");
    if (!store) {
      out.fail("cannot open store");
      return;
    }
    for (std::size_t k = 0; k < specs_.size(); ++k) {
      if (!store->put("front", keys_[k], fronts_[k])) {
        out.fail("cannot publish front");
      }
    }
  }

  /// One daemon start against the store prepare() published: spawn, wait
  /// until it accepts, one warm-up `get` per spec (the store warm-up).
  /// Every start after the first finds its journal and store in place, as
  /// a restarted daemon does.
  void setup(bool keep, tracer* sink, outcome& out) override {
    scoped_span root(sink, "setup.serve");
    const std::vector<std::string> argv = {
        ctx_.tool("axc_serve"), "--store",  dir_ + "/store",
        "--socket",             socket_,    "--work-dir",
        dir_ + "/work",         "--worker", ctx_.tool("axc_worker")};
    {
      scoped_span s(sink, "setup.daemon_start");
      auto proc = child::spawn(argv, dir_ + "/daemon.out");
      if (!proc) {
        out.fail("cannot spawn axc_serve");
        return;
      }
      daemon_ = std::move(*proc);
      const auto deadline = bench_clock::now() + std::chrono::seconds(20);
      while (!axc::support::net::unix_stream::connect(socket_)) {
        if (bench_clock::now() > deadline) {
          out.fail("axc_serve never accepted a connection");
          return;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    {
      scoped_span s(sink, "setup.warmup");
      for (const hit_case& c : cases_) {
        if (c.budget) continue;
        const auto reply = request_once(socket_, c.request, nullptr);
        if (!reply || reply->status != "hit") out.fail("warm-up get missed");
      }
    }
    if (keep) {
      load_expected(out);
    } else {
      (void)daemon_.stop(10.0);
    }
  }

  /// One closed-loop hit client, and the miss client on this thread
  /// beside it.
  segment measure(double seconds, tracer* sink, outcome& out) override {
    const auto start = bench_clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<bench_clock::duration>(
                    std::chrono::duration<double>(seconds));
    client_result hits;
    client_result misses;
    {
      std::jthread hit_client([&] {
        run_hit_client(mix(ctx_.seed, 500 + segments_), deadline, sink, hits);
      });
      run_miss_client(deadline, sink, misses);
    }
    const double window = seconds_between(start, bench_clock::now());
    ++segments_;

    segment seg;
    for (client_result* r : {&hits, &misses}) {
      out.attempted += r->attempted;
      for (std::string& e : r->errors) out.fail(std::move(e));
    }
    // p50_ms and tail_ms time the misses; ops_per_s counts the hits served
    // beside them, so a change that trades one for the other shows.
    seg.hit_us = std::move(hits.hit_us);
    seg.hits_per_s = static_cast<double>(seg.hit_us.size()) / window;
    seg.ops_per_s = seg.hits_per_s;
    seg.op_ms = std::move(misses.miss_ms);
    seg.misses_per_s = static_cast<double>(seg.op_ms.size()) / window;
    for (miss_record& m : misses.misses) {
      seg.hv.push_back(m.hv);
      misses_.push_back(std::move(m));
    }
    return seg;
  }

  void finish(outcome& out) override {
    (void)daemon_.stop(20.0);
    // Every miss front must equal the store's bytes and an uninterrupted
    // in-process run of the same spec.
    auto store = core::result_store::open(dir_ + "/store");
    if (!store) {
      out.fail("cannot reopen the daemon's store");
      return;
    }
    std::vector<std::string> reference(misses_.size());
    std::atomic<std::size_t> next{0};
    std::vector<std::jthread> pool;
    for (unsigned t = 0; t < ctx_.nproc; ++t) {
      pool.emplace_back([&] {
        for (std::size_t i; (i = next.fetch_add(1)) < misses_.size();) {
          const core::sweep_result ref =
              reference_sweep(miss_spec(ctx_, misses_[i].index), 1);
          if (ref.complete) reference[i] = core::serialize_front(ref.front);
        }
      });
    }
    pool.clear();  // joins
    for (std::size_t i = 0; i < misses_.size(); ++i) {
      const miss_record& m = misses_[i];
      const auto key = core::result_store::format_key(
          miss_spec(ctx_, m.index).store_key());
      if (store->get("front", key).value_or("") != m.payload) {
        out.fail("miss " + std::to_string(m.index) +
                 ": served front differs from the store");
      }
      if (reference[i] != m.payload) {
        out.fail("miss " + std::to_string(m.index) +
                 ": served front differs from run_sweep_inprocess");
      }
    }
  }

  [[nodiscard]] double tail_q() const override { return 0.9; }
  [[nodiscard]] core::sweep_spec ladder_spec() const override {
    return miss_spec(ctx_, 1u << 20);
  }

 private:
  struct hit_case {
    std::string request;
    std::size_t spec{0};
    std::optional<double> budget;
    std::string expected;  ///< payload bytes a correct hit carries
  };
  struct miss_record {
    std::size_t index{0};
    std::string payload;
    double hv{0.0};
  };
  struct client_result {
    std::uint64_t attempted{0};
    std::vector<std::string> errors;
    std::vector<double> hit_us;
    std::vector<double> miss_ms;
    std::vector<miss_record> misses;
  };

  /// Expected payloads come from result_store::get on the served store: the
  /// exact bytes unfiltered, and exactly the stored points with
  /// wmed <= budget under a budget.
  void load_expected(outcome& out) {
    auto store = core::result_store::open(dir_ + "/store");
    if (!store) {
      out.fail("cannot read back the store");
      return;
    }
    for (hit_case& c : cases_) {
      const std::string bytes =
          store->get("front", keys_[c.spec]).value_or("");
      if (!c.budget) {
        c.expected = bytes;
        continue;
      }
      std::vector<core::pareto_point> kept;
      for (const core::pareto_point& p :
           core::parse_front(bytes).value_or(
               std::vector<core::pareto_point>{})) {
        if (p.x <= *c.budget) kept.push_back(p);
      }
      c.expected = core::serialize_front(kept);
    }
  }

  /// Closed loop over one connection: the next `get` goes out when the
  /// previous one answered.  A quarter of the requests carry a budget.
  void run_hit_client(std::uint64_t rng_seed, bench_clock::time_point deadline,
                      tracer* sink, client_result& r) const {
    std::mt19937_64 rng(rng_seed);
    const std::size_t per_spec = cases_.size() / specs_.size();
    std::uint64_t request_id = rng_seed << 20;
    std::optional<axc::support::net::unix_stream> conn;
    while (bench_clock::now() < deadline) {
      const std::size_t spec = rng() % specs_.size();
      const std::size_t variant =
          rng() % 4 == 0 ? 1 + rng() % (per_spec - 1) : 0;
      const hit_case& c = cases_[spec * per_spec + variant];
      ++r.attempted;
      const auto t0 = bench_clock::now();
      std::optional<core::serve_reply> reply;
      {
        scoped_span op(sink, "client.get_hit", ++request_id);
        if (!conn) {
          scoped_span s(sink, "net.connect");
          conn = axc::support::net::unix_stream::connect(socket_);
        }
        if (conn) reply = exchange(*conn, c.request, sink);
      }
      const auto t1 = bench_clock::now();
      if (!reply || reply->status != "hit" || !reply->payload) {
        conn.reset();  // the next request reconnects
        r.errors.push_back("hit request failed: " +
                           (reply ? reply->status : std::string("no reply")));
        continue;
      }
      if (*reply->payload != c.expected) {
        r.errors.push_back("served payload differs from result_store::get");
        continue;
      }
      r.hit_us.push_back(seconds_between(t0, t1) * 1e6);
    }
  }

  /// Closed loop over the seeded stream of distinct tiny sweeps: `get`
  /// (a miss, enqueued) then `wait` on the same connection until the
  /// published front comes back.
  void run_miss_client(bench_clock::time_point deadline, tracer* sink,
                       client_result& r) {
    while (bench_clock::now() < deadline) {
      const std::size_t index = next_miss_++;
      const core::sweep_spec spec = miss_spec(ctx_, index);
      core::serve_request request;
      request.spec = spec;
      const std::string get_text = core::encode_request(request);
      request.verb = "wait";
      request.timeout_ms = 120000;
      const std::string wait_text = core::encode_request(request);
      ++r.attempted;
      const auto t0 = bench_clock::now();
      std::optional<core::serve_reply> first;
      std::optional<core::serve_reply> settled;
      {
        scoped_span op(sink, "client.miss_to_front", (1ULL << 40) + index);
        auto stream = axc::support::net::unix_stream::connect(socket_);
        if (stream) {
          {
            scoped_span s(sink, "client.get_miss");
            first = exchange(*stream, get_text, sink);
          }
          if (first && first->status == "miss-enqueued") {
            scoped_span s(sink, "client.wait");
            settled = exchange(*stream, wait_text, sink);
          }
        }
      }
      const auto t1 = bench_clock::now();
      if (!first || first->status != "miss-enqueued") {
        r.errors.push_back("miss get answered " +
                           (first ? first->status : std::string("nothing")));
        continue;
      }
      if (!settled || settled->status != "hit" || !settled->payload) {
        r.errors.push_back("miss wait answered " +
                           (settled ? settled->status : std::string("nothing")));
        continue;
      }
      r.miss_ms.push_back(ms_between(t0, t1));
      miss_record m;
      m.index = index;
      m.payload = *settled->payload;
      if (auto points = core::parse_front(m.payload)) {
        m.hv = front_hv(*points, seed_area(spec));
      }
      r.misses.push_back(std::move(m));
    }
  }

  const context& ctx_;
  std::vector<core::sweep_spec> specs_;
  std::vector<std::string> fronts_;
  std::vector<std::string> keys_;
  std::vector<hit_case> cases_;
  std::string dir_;
  std::string socket_;
  child daemon_;
  std::size_t segments_{0};
  std::size_t next_miss_{0};
  std::vector<miss_record> misses_;
};

void add(std::vector<metric>& into, const char* name, double value,
         const char* unit) {
  into.push_back({name, value, unit});
}

double ratio(double traced, double untraced) {
  return untraced > 0.0 ? traced / untraced : 0.0;
}

}  // namespace

void run_workload(const context& ctx, outcome& out) {
  std::unique_ptr<workload> w;
  if (ctx.workload == "sweep_mult8") {
    w = std::make_unique<sweep_workload>(ctx);
  } else {
    w = std::make_unique<serve_workload>(ctx);
  }
  std::unique_ptr<tracer> sink;
  if (ctx.trace) sink = std::make_unique<tracer>();

  w->prepare(out);
  // Set-up repeats; the last one stays up for the timed loop.  A traced
  // run alternates untraced and traced set-ups after a cold first one,
  // which it leaves out of both, to price the tracing.
  const std::size_t setups = w->setup_reps();
  std::vector<double> setup_s[2];
  for (std::size_t r = 0; r < setups; ++r) {
    const bool traced = ctx.trace && r % 2 == 1;
    const auto t0 = bench_clock::now();
    w->setup(r + 1 == setups, traced ? sink.get() : nullptr, out);
    if (!ctx.trace || r > 0) {
      setup_s[traced ? 1 : 0].push_back(
          seconds_between(t0, bench_clock::now()));
    }
  }

  if (!ctx.trace) {
    const segment seg = w->measure(ctx.seconds, nullptr, out);
    setup_s[0].insert(setup_s[0].end(), seg.setup_s.begin(),
                      seg.setup_s.end());
    w->finish(out);
    auto& m = out.metrics;
    add(m, "setup_s", median(setup_s[0]), "s");
    add(m, "p50_ms", median(seg.op_ms), "ms");
    add(m, "tail_ms", quantile(seg.op_ms, w->tail_q()), "ms");
    add(m, "ops_per_s", seg.ops_per_s, "1/s");
    add(m, "rss_peak_mb", children_peak_rss_mb(), "MiB");
    add(m, "front_hv", mean(seg.hv), "share");

    // The same numbers under the names of the issue, plus sample counts
    // and the tail the percentile rule supports.
    auto& d = out.details;
    const double n = static_cast<double>(seg.op_ms.size());
    add(d, "op_samples", n, "count");
    if (const auto q = tail_quantile(seg.op_ms.size())) {
      add(d, "op_rule_quantile", *q, "q");
      add(d, "op_rule_tail_ms", quantile(seg.op_ms, *q), "ms");
    }
    if (ctx.workload == "sweep_mult8") {
      add(d, "sweep_s", median(seg.op_ms) / 1e3, "s");
    } else {
      add(d, "miss_p50_ms", median(seg.op_ms), "ms");
      add(d, "miss_p90_ms", quantile(seg.op_ms, 0.9), "ms");
      add(d, "misses_per_s", seg.misses_per_s, "1/s");
      add(d, "hit_p50_us", median(seg.hit_us), "us");
      add(d, "hit_p99_us", quantile(seg.hit_us, 0.99), "us");
      add(d, "hits_per_s", seg.hits_per_s, "1/s");
      add(d, "hit_samples", static_cast<double>(seg.hit_us.size()), "count");
    }
  } else {
    const double part = ctx.seconds / 4.0;
    const segment plain = w->measure(part, nullptr, out);
    const segment traced = w->measure(part, sink.get(), out);
    setup_s[0].insert(setup_s[0].end(), plain.setup_s.begin(),
                      plain.setup_s.end());
    setup_s[1].insert(setup_s[1].end(), traced.setup_s.begin(),
                      traced.setup_s.end());
    w->finish(out);
    auto& m = out.metrics;
    add(m, "trace.overhead_setup_s",
        ratio(median(setup_s[1]), median(setup_s[0])), "ratio");
    add(m, "trace.overhead_p50_ms",
        ratio(median(traced.op_ms), median(plain.op_ms)), "ratio");
    add(m, "trace.overhead_tail_ms",
        ratio(quantile(traced.op_ms, w->tail_q()),
              quantile(plain.op_ms, w->tail_q())),
        "ratio");
    add(m, "trace.overhead_ops_per_s",
        ratio(traced.ops_per_s, plain.ops_per_s), "ratio");
    add(m, "trace.overhead_front_hv", ratio(mean(traced.hv), mean(plain.hv)),
        "ratio");
    run_ladder(ctx, w->ladder_spec(), *sink, out);
    const std::string path = ctx.results_dir + "/" + ctx.workload + "-seed" +
                             std::to_string(ctx.seed) + "-spans.json";
    if (!sink->write_json(path)) out.fail("cannot write " + path);
  }
}

}  // namespace axbench
