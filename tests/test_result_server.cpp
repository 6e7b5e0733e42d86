// Serving-subsystem acceptance: the five properties the PR promises.
//
//   (a) a served hit is byte-identical to `axc_store get front <key>`
//       (and an error budget filters it without touching the store);
//   (b) a miss runs ONE sweep and the subsequent hit is bit-identical to
//       run_sweep_inprocess of the same spec;
//   (c) N concurrent identical requests coalesce into one sweep;
//   (d) a server SIGKILLed mid-enqueue, mid-sweep, or before replying is
//       restarted on the same directories and converges on the identical
//       front (the CRC'd server journal re-adopts the job);
//   (e) malformed, truncated and oversized frames never wedge the accept
//       loop — a valid request on a fresh connection is still answered.
//
// In-process properties drive result_server::handle_request directly (no
// socket); the kill/restart cases run the real tools/axc_serve binary and
// talk to it over its socket.  ctest points AXC_SERVE_BIN / AXC_WORKER_BIN
// at the built tools; cases needing them skip when unset.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/result_server.h"
#include "core/result_store.h"
#include "core/shard_runner.h"
#include "dist/pmf.h"
#include "mult/multipliers.h"
#include "support/net.h"
#include "support/subprocess.h"

#if AXC_HAS_NET
#include <fcntl.h>
#endif

namespace axc::core {
namespace {

namespace fs = std::filesystem;

const char* serve_binary() { return std::getenv("AXC_SERVE_BIN"); }
const char* worker_binary() { return std::getenv("AXC_WORKER_BIN"); }

/// Same shape as the coordinator-resume suite's sweep; rng_seed varies per
/// case so each test owns a distinct store key.
sweep_spec serve_spec(std::uint64_t rng_seed) {
  sweep_spec spec;
  spec.component = "mult";
  spec.options.width = 4;
  spec.options.distribution = dist::pmf::half_normal(16, 4.0);
  spec.options.iterations = 120;
  spec.options.extra_columns = 16;
  spec.options.rng_seed = rng_seed;
  spec.plan.targets = {0.002, 0.02};
  spec.plan.runs_per_target = 2;
  spec.options.runs_per_target = 2;
  spec.seed = mult::unsigned_multiplier(4);
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() /
                           ("axc-serve-test-" + name + "-" +
                            std::to_string(::getpid())))
                              .string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir;
}

server_config local_config(const std::string& root) {
  server_config config;
  config.store_dir = root + "/store";
  config.work_dir = root + "/work";
  return config;
}

serve_request make_request(std::string verb, sweep_spec spec) {
  serve_request request;
  request.verb = std::move(verb);
  request.spec = std::move(spec);
  return request;
}

/// One in-process request end to end: encode, handle, parse the reply.
serve_reply ask(result_server& server, const serve_request& request) {
  const auto reply = parse_reply(server.handle_request(
      encode_request(request)));
  EXPECT_TRUE(reply.has_value());
  return reply.value_or(serve_reply{});
}

/// A hand-built front published under `spec`'s key, so hit-path tests need
/// no sweep at all.  Returns the exact stored bytes.
std::string publish_front(const std::string& store_dir,
                          const sweep_spec& spec) {
  const std::vector<pareto_point> points = {
      {0.001, 9.25, 0}, {0.01, 5.5, 1}, {0.05, 2.125, 2}};
  auto store = result_store::open(store_dir);
  EXPECT_TRUE(store.has_value());
  const std::string key = result_store::format_key(spec.store_key());
  EXPECT_TRUE(store->put("front", key, serialize_front(points)).has_value());
  return store->get("front", key).value_or("");
}

// ---- Protocol text -------------------------------------------------------

TEST(result_server, protocol_round_trips) {
  serve_request request = make_request("wait", serve_spec(100));
  request.budget = 0.015625;
  request.timeout_ms = 1234;
  const auto parsed = parse_request(encode_request(request));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->verb, "wait");
  ASSERT_TRUE(parsed->budget.has_value());
  EXPECT_EQ(*parsed->budget, 0.015625);
  EXPECT_EQ(parsed->timeout_ms, 1234);
  EXPECT_EQ(parsed->spec.store_key(), request.spec.store_key());

  serve_reply reply{.status = "hit", .key = "00000000deadbeef",
                    .payload = std::string("bin\0\nary", 8)};
  const auto back = parse_reply(encode_reply(reply));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->status, "hit");
  EXPECT_EQ(back->key, reply.key);
  ASSERT_TRUE(back->payload.has_value());
  EXPECT_EQ(*back->payload, *reply.payload);

  const auto bare = parse_reply(
      encode_reply(serve_reply{.status = "queued", .key = "0123"}));
  ASSERT_TRUE(bare.has_value());
  EXPECT_FALSE(bare->payload.has_value());
}

TEST(result_server, rejects_damaged_request_text) {
  const std::string good = encode_request(make_request("get", serve_spec(101)));
  EXPECT_FALSE(parse_request("").has_value());
  EXPECT_FALSE(parse_request("axc-serve v2\nverb get\n").has_value());
  EXPECT_FALSE(parse_request("axc-serve v1\nverb steal\nspec\n").has_value());
  EXPECT_FALSE(
      parse_request("axc-serve v1\nvverb get\nspec\n").has_value());
  // Cutting the spec section anywhere must fail sweep_spec::parse.
  EXPECT_FALSE(parse_request(good.substr(0, good.size() / 2)).has_value());
  EXPECT_FALSE(parse_request(good.substr(0, good.size() - 4)).has_value());
  EXPECT_FALSE(parse_reply("axc-serve-reply v1\nstatus wat\nend\n")
                   .has_value());
  EXPECT_FALSE(parse_reply("axc-serve-reply v1\nstatus hit\npayload 99\nxy")
                   .has_value());
}

// ---- Property (a): hit byte-identity ------------------------------------

TEST(result_server, hit_bytes_match_store_get_exactly) {
  const std::string root = fresh_dir("hit");
  const sweep_spec spec = serve_spec(102);
  const std::string stored = publish_front(root + "/store", spec);
  ASSERT_FALSE(stored.empty());

  result_server server(local_config(root));
  ASSERT_TRUE(server.start());
  const serve_reply reply = ask(server, make_request("get", spec));
  EXPECT_EQ(reply.status, "hit");
  EXPECT_EQ(reply.key, result_store::format_key(spec.store_key()));
  ASSERT_TRUE(reply.payload.has_value());
  EXPECT_EQ(*reply.payload, stored);  // the exact bytes axc_store get prints
  EXPECT_EQ(server.stats().hits, 1u);

  const serve_reply status = ask(server, make_request("status", spec));
  EXPECT_EQ(status.status, "hit");

  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(result_server, budget_filters_the_front) {
  const std::string root = fresh_dir("budget");
  const sweep_spec spec = serve_spec(103);
  const std::string stored = publish_front(root + "/store", spec);

  result_server server(local_config(root));
  ASSERT_TRUE(server.start());
  serve_request request = make_request("get", spec);
  request.budget = 0.02;
  const serve_reply reply = ask(server, request);
  EXPECT_EQ(reply.status, "hit");
  ASSERT_TRUE(reply.payload.has_value());
  const auto filtered = parse_front(*reply.payload);
  ASSERT_TRUE(filtered.has_value());
  const auto full = parse_front(stored);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(filtered->size(), 2u);  // 0.05 point is over budget
  EXPECT_LT(filtered->size(), full->size());
  for (const pareto_point& p : *filtered) EXPECT_LE(p.x, 0.02);

  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(result_server, out_of_range_spec_gets_error_and_server_keeps_serving) {
  const std::string root = fresh_dir("hostile-spec");
  const sweep_spec good = serve_spec(112);
  const std::string stored = publish_front(root + "/store", good);

  result_server server(local_config(root));
  ASSERT_TRUE(server.start());

  // Width 40 with an empty distribution once made store_key() allocate a
  // 2^40-entry pmf; a 3-mass distribution at width 4 hit finalize_config's
  // abort().  Both are well-formed text, so the reply is `error`.
  sweep_spec wide = good;
  wide.options.width = 40;
  wide.options.distribution = {};
  sweep_spec short_pmf = good;
  short_pmf.options.distribution =
      dist::pmf::from_masses(std::vector<double>{0.5, 0.25, 0.25});
  for (const sweep_spec& bad : {wide, short_pmf}) {
    for (const char* verb : {"get", "status", "wait", "table"}) {
      EXPECT_EQ(ask(server, make_request(verb, bad)).status, "error") << verb;
    }
  }
  EXPECT_EQ(server.stats().malformed, 0u);

  const serve_reply reply = ask(server, make_request("get", good));
  EXPECT_EQ(reply.status, "hit");
  ASSERT_TRUE(reply.payload.has_value());
  EXPECT_EQ(*reply.payload, stored);

  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(result_server, absurd_count_fields_are_refused_before_enqueue) {
  // A server that can sweep (a worker path is configured) must still never
  // enqueue a spec whose count field is out of range: "-1" is damage
  // (`malformed`), the 2^64 - 1 it used to wrap to fails validate()
  // (`error`).  Either way nothing reaches the miss path.
  const std::string root = fresh_dir("absurd-counts");
  server_config config = local_config(root);
  config.worker_binary =
      worker_binary() ? worker_binary() : root + "/no-such-worker";
  result_server server(config);
  ASSERT_TRUE(server.start());
  for (const char* key :
       {"iterations", "runs-per-target", "extra-columns", "lambda"}) {
    std::string text = encode_request(make_request("get", serve_spec(113)));
    const std::size_t begin =
        text.find("\n" + std::string(key) + " ") + std::strlen(key) + 2;
    const std::size_t end = text.find('\n', begin);
    for (const char* value : {"-1", "18446744073709551615"}) {
      const std::string request =
          std::string(text).replace(begin, end - begin, value);
      const auto reply = parse_reply(server.handle_request(request));
      ASSERT_TRUE(reply.has_value());
      EXPECT_TRUE(reply->status == "malformed" || reply->status == "error")
          << key << " " << value << ": " << reply->status;
    }
  }
  EXPECT_EQ(server.stats().misses_enqueued, 0u);
  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(result_server, read_only_replica_rejects_misses) {
  const std::string root = fresh_dir("replica");
  result_server server(local_config(root));  // no worker binary
  ASSERT_TRUE(server.start());
  const sweep_spec spec = serve_spec(104);
  EXPECT_EQ(ask(server, make_request("status", spec)).status, "unknown");
  EXPECT_EQ(ask(server, make_request("get", spec)).status, "miss-rejected");
  EXPECT_EQ(server.stats().rejected, 1u);
  std::error_code ec;
  fs::remove_all(root, ec);
}

// ---- Tables --------------------------------------------------------------

TEST(result_server, table_builds_once_then_serves_stored_bytes) {
  const std::string root = fresh_dir("table");
  result_server server(local_config(root));
  ASSERT_TRUE(server.start());
  const sweep_spec spec = serve_spec(105);

  const serve_reply built = ask(server, make_request("table", spec));
  ASSERT_EQ(built.status, "hit");
  ASSERT_TRUE(built.payload.has_value());
  const auto table = parse_table(*built.payload);
  ASSERT_TRUE(table.has_value());
  EXPECT_EQ(table->width, 4u);
  EXPECT_FALSE(table->values.empty());

  // Second request is a pure store hit with the identical bytes; a sweep
  // of the same component (different plan) shares the table key.
  const serve_reply again = ask(server, make_request("table", spec));
  ASSERT_EQ(again.status, "hit");
  EXPECT_EQ(*again.payload, *built.payload);
  sweep_spec other_plan = serve_spec(105);
  other_plan.plan.targets = {0.5};
  other_plan.plan.runs_per_target = 1;
  const serve_reply shared = ask(server, make_request("table", other_plan));
  EXPECT_EQ(shared.key, built.key);
  EXPECT_EQ(server.stats().tables_built, 1u);

  auto store = result_store::open(root + "/store");
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->entries("table").size(), 1u);
  EXPECT_EQ(store->get("table", built.key), *built.payload);

  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(result_server, each_seed_is_served_its_own_front_and_table) {
  // Specs alike but for their seed: the array multiplier, the Wallace one
  // (same behaviour, another structure) and a truncated one.
  const std::string root = fresh_dir("seeds");
  std::vector<sweep_spec> specs(3, serve_spec(115));
  specs[1].seed = mult::unsigned_multiplier(4, mult::schedule::wallace);
  specs[2].seed = mult::truncated_multiplier(4, 2);
  std::vector<std::string> fronts;
  {
    auto store = result_store::open(root + "/store");
    ASSERT_TRUE(store.has_value());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const std::vector<pareto_point> points = {
          {0.001 * static_cast<double>(i + 1), 9.25, 0}};
      fronts.push_back(serialize_front(points));
      ASSERT_TRUE(store->put("front",
                             result_store::format_key(specs[i].store_key()),
                             fronts.back())
                      .has_value());
    }
  }

  result_server server(local_config(root));
  ASSERT_TRUE(server.start());
  std::vector<std::string> table_keys;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const serve_reply front = ask(server, make_request("get", specs[i]));
    ASSERT_EQ(front.status, "hit") << i;
    EXPECT_EQ(front.payload, fronts[i]) << i;
    const serve_reply table = ask(server, make_request("table", specs[i]));
    ASSERT_EQ(table.status, "hit") << i;
    const component_handle handle = specs[i].make_component();
    EXPECT_EQ(table.payload,
              serialize_table(handle.width(),
                              handle.characterize(specs[i].seed)))
        << i;
    table_keys.push_back(table.key);
  }
  EXPECT_NE(table_keys[0], table_keys[1]);
  EXPECT_NE(table_keys[0], table_keys[2]);
  EXPECT_NE(table_keys[1], table_keys[2]);
  EXPECT_EQ(server.stats().tables_built, 3u);

  std::error_code ec;
  fs::remove_all(root, ec);
}

// ---- Property (b): miss -> sweep -> hit ---------------------------------

TEST(result_server, miss_sweeps_then_hits_bit_identically) {
  if (!worker_binary()) GTEST_SKIP() << "AXC_WORKER_BIN not set";
  const std::string root = fresh_dir("miss");
  const sweep_spec spec = serve_spec(106);
  const sweep_result reference = run_sweep_inprocess(spec);
  ASSERT_TRUE(reference.complete);

  server_config config = local_config(root);
  config.worker_binary = worker_binary();
  result_server server(config);
  ASSERT_TRUE(server.start());

  const serve_reply miss = ask(server, make_request("get", spec));
  EXPECT_EQ(miss.status, "miss-enqueued");
  serve_request wait = make_request("wait", spec);
  wait.timeout_ms = 120000;
  const serve_reply hit = ask(server, wait);
  ASSERT_EQ(hit.status, "hit");
  ASSERT_TRUE(hit.payload.has_value());
  EXPECT_EQ(*hit.payload, serialize_front(reference.front));

  // And the served bytes are exactly what landed in the store.
  auto store = result_store::open(root + "/store");
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->get("front", hit.key), *hit.payload);
  EXPECT_EQ(server.stats().sweeps_completed, 1u);
  EXPECT_EQ(server.stats().misses_enqueued, 1u);

  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(result_server, miss_publishes_no_table_and_the_first_request_builds_it) {
  if (!worker_binary()) GTEST_SKIP() << "AXC_WORKER_BIN not set";
  const std::string root = fresh_dir("miss-table");
  const sweep_spec spec = serve_spec(116);
  server_config config = local_config(root);
  config.worker_binary = worker_binary();
  result_server server(config);
  ASSERT_TRUE(server.start());

  serve_request wait = make_request("wait", spec);
  wait.timeout_ms = 120000;
  ASSERT_EQ(ask(server, wait).status, "hit");
  {
    auto store = result_store::open(root + "/store");
    ASSERT_TRUE(store.has_value());
    EXPECT_TRUE(store->entries("table").empty());
    EXPECT_EQ(store->entries("front").size(), 1u);
  }

  const serve_reply built = ask(server, make_request("table", spec));
  ASSERT_EQ(built.status, "hit");
  EXPECT_EQ(server.stats().tables_built, 1u);
  const component_handle handle = spec.make_component();
  EXPECT_EQ(built.payload,
            serialize_table(handle.width(), handle.characterize(spec.seed)));
  const serve_reply again = ask(server, make_request("table", spec));
  ASSERT_EQ(again.status, "hit");
  EXPECT_EQ(again.payload, built.payload);
  EXPECT_EQ(server.stats().tables_built, 1u);

  std::error_code ec;
  fs::remove_all(root, ec);
}

// ---- Property (c): coalescing -------------------------------------------

TEST(result_server, concurrent_identical_requests_share_one_sweep) {
  if (!worker_binary()) GTEST_SKIP() << "AXC_WORKER_BIN not set";
  const std::string root = fresh_dir("coalesce");
  const sweep_spec spec = serve_spec(107);

  server_config config = local_config(root);
  config.worker_binary = worker_binary();
  result_server server(config);
  ASSERT_TRUE(server.start());

  serve_request wait = make_request("wait", spec);
  wait.timeout_ms = 120000;
  const std::string request_text = encode_request(wait);
  constexpr std::size_t kClients = 4;
  std::vector<std::string> replies(kClients);
  {
    std::vector<std::thread> clients;
    for (std::size_t i = 0; i < kClients; ++i) {
      clients.emplace_back([&, i] {
        replies[i] = server.handle_request(request_text);
      });
    }
    for (auto& t : clients) t.join();
  }
  std::optional<std::string> payload;
  for (const std::string& text : replies) {
    const auto reply = parse_reply(text);
    ASSERT_TRUE(reply.has_value());
    ASSERT_EQ(reply->status, "hit");
    ASSERT_TRUE(reply->payload.has_value());
    if (!payload) payload = reply->payload;
    EXPECT_EQ(*reply->payload, *payload);  // everyone sees the same bytes
  }
  const serve_stats stats = server.stats();
  EXPECT_EQ(stats.sweeps_completed, 1u);  // N requests, ONE sweep
  EXPECT_EQ(stats.misses_enqueued, 1u);
  EXPECT_EQ(stats.coalesced, kClients - 1);

  std::error_code ec;
  fs::remove_all(root, ec);
}

// ---- Settled jobs are released ------------------------------------------

TEST(result_server, many_distinct_misses_each_wait_to_a_hit) {
  if (!worker_binary()) GTEST_SKIP() << "AXC_WORKER_BIN not set";
  const std::string root = fresh_dir("many-misses");
  server_config config = local_config(root);
  config.worker_binary = worker_binary();
  result_server server(config);
  ASSERT_TRUE(server.start());
#if AXC_HAS_NET
  EXPECT_NE(::fcntl(server.stop_write_fd(), F_GETFD) & FD_CLOEXEC, 0);
#endif

  // Each published job leaves the job table; its answer is the store's.
  constexpr std::uint64_t kMisses = 20;
  for (std::uint64_t i = 0; i < kMisses; ++i) {
    const sweep_spec spec = serve_spec(300 + i);
    serve_request wait = make_request("wait", spec);
    wait.timeout_ms = 120000;
    const serve_reply hit = ask(server, wait);
    ASSERT_EQ(hit.status, "hit") << "miss " << i;
    EXPECT_EQ(ask(server, make_request("status", spec)).status, "hit")
        << "miss " << i;
  }
  const serve_stats stats = server.stats();
  EXPECT_EQ(stats.misses_enqueued, kMisses);
  EXPECT_EQ(stats.sweeps_completed, kMisses);
  EXPECT_EQ(stats.sweeps_failed, 0u);

  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(result_server, failed_sweep_answers_failed_without_rerunning) {
  const std::string root = fresh_dir("failed");
  server_config config = local_config(root);
  config.worker_binary = "/bin/false";  // every worker exits 1
  config.max_attempts = 1;
  result_server server(config);
  ASSERT_TRUE(server.start());
  const sweep_spec spec = serve_spec(320);

  EXPECT_EQ(ask(server, make_request("get", spec)).status, "miss-enqueued");
  serve_request wait = make_request("wait", spec);
  wait.timeout_ms = 120000;
  EXPECT_EQ(ask(server, wait).status, "failed");
  // The failure is remembered (key + verdict only): retries answer it
  // without a second sweep.
  EXPECT_EQ(ask(server, make_request("get", spec)).status, "failed");
  EXPECT_EQ(ask(server, wait).status, "failed");
  EXPECT_EQ(ask(server, make_request("status", spec)).status, "failed");
  const serve_stats stats = server.stats();
  EXPECT_EQ(stats.sweeps_failed, 1u);
  EXPECT_EQ(stats.sweeps_completed, 0u);
  EXPECT_EQ(stats.misses_enqueued, 1u);

  std::error_code ec;
  fs::remove_all(root, ec);
}

// ---- Property (d): kill/restart convergence ------------------------------

/// Blocks (with a hard deadline) until the child exits.
std::optional<support::exit_status> wait_exit(support::subprocess& proc) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    if (auto status = proc.poll()) return status;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  proc.kill_hard();
  return std::nullopt;
}

/// One axc_serve life on `root`'s directories, optionally with an armed
/// fault plan; needs_worker toggles sweep capability.
std::optional<support::subprocess> spawn_server(const std::string& root,
                                                const std::string& fault_plan,
                                                bool with_worker) {
  std::vector<std::string> argv = {serve_binary(), "--store",
                                   root + "/store",  "--socket",
                                   root + "/sock",   "--work-dir",
                                   root + "/work"};
  if (with_worker) {
    argv.insert(argv.end(), {"--worker", worker_binary()});
  }
  std::vector<std::string> env;
  if (!fault_plan.empty()) env.push_back("AXC_FAULT=" + fault_plan);
  return support::subprocess::spawn(argv, env);
}

/// Retries until the daemon's socket accepts (a fresh life unlinks any
/// stale socket file, so early failures are expected).
std::optional<support::net::unix_stream> connect_server(
    const std::string& root) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (auto stream = support::net::unix_stream::connect(root + "/sock")) {
      return stream;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return std::nullopt;
}

/// Sends one request; nullopt when the server died before replying (the
/// crash cases) or the reply is unparseable.
std::optional<serve_reply> ask_over_socket(const std::string& root,
                                           const serve_request& request) {
  auto stream = connect_server(root);
  if (!stream) return std::nullopt;
  if (!stream->send(encode_request(request))) return std::nullopt;
  const auto frame = stream->receive(64u << 20);
  if (!frame) return std::nullopt;
  return parse_reply(*frame);
}

/// Life 1 dies at `fault_plan`'s point while handling a `get`; life 2 on
/// the same directories must converge on the reference front.
void run_kill_restart_case(const std::string& name,
                           const std::string& fault_plan, int crash_exit,
                           std::uint64_t rng_seed) {
  if (!serve_binary() || !worker_binary()) {
    GTEST_SKIP() << "AXC_SERVE_BIN / AXC_WORKER_BIN not set";
  }
  const std::string root = fresh_dir(name);
  const sweep_spec spec = serve_spec(rng_seed);
  const sweep_result reference = run_sweep_inprocess(spec);
  ASSERT_TRUE(reference.complete);

  auto crashed = spawn_server(root, fault_plan, /*with_worker=*/true);
  ASSERT_TRUE(crashed.has_value());
  // The get both probes the store and arms the enqueue; depending on the
  // fault point the reply may never arrive — that's the point.
  (void)ask_over_socket(root, make_request("get", spec));
  const auto status = wait_exit(*crashed);
  ASSERT_TRUE(status.has_value()) << "server did not die at " << fault_plan;
  EXPECT_FALSE(status->signalled);
  ASSERT_EQ(status->code, crash_exit)
      << "the armed fault point did not fire";

  // Life 2: clean restart re-adopts the journaled job and finishes it.
  auto restarted = spawn_server(root, "", /*with_worker=*/true);
  ASSERT_TRUE(restarted.has_value());
  serve_request wait = make_request("wait", spec);
  wait.timeout_ms = 120000;
  const auto reply = ask_over_socket(root, wait);
  ASSERT_TRUE(reply.has_value()) << "restarted server gave no reply";
  ASSERT_EQ(reply->status, "hit");
  ASSERT_TRUE(reply->payload.has_value());
  EXPECT_EQ(*reply->payload, serialize_front(reference.front));

  // SIGTERM drains life 2 cleanly (exit 0), and the store agrees.
  restarted->terminate();
  const auto drained = wait_exit(*restarted);
  ASSERT_TRUE(drained.has_value());
  EXPECT_TRUE(drained->success());
  auto store = result_store::open(root + "/store");
  ASSERT_TRUE(store.has_value());
  EXPECT_EQ(store->get("front", result_store::format_key(spec.store_key())),
            serialize_front(reference.front));

  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(result_server, killed_mid_enqueue_readopts_and_converges) {
  run_kill_restart_case("mid-enqueue", "server-crash-mid-enqueue@1", 45,
                        108);
}

TEST(result_server, killed_mid_sweep_readopts_and_converges) {
  // The coordinator fault point fires inside the server's embedded
  // run_sweep — a genuine mid-sweep kill with workers already running.
  run_kill_restart_case("mid-sweep", "coord-crash-after-spawn@1", 43, 109);
}

TEST(result_server, killed_before_reply_still_serves_after_restart) {
  if (!serve_binary()) GTEST_SKIP() << "AXC_SERVE_BIN not set";
  const std::string root = fresh_dir("before-reply");
  const sweep_spec spec = serve_spec(110);
  const std::string stored = publish_front(root + "/store", spec);
  ASSERT_FALSE(stored.empty());

  auto crashed =
      spawn_server(root, "server-crash-before-reply@1", /*with_worker=*/false);
  ASSERT_TRUE(crashed.has_value());
  EXPECT_FALSE(ask_over_socket(root, make_request("get", spec)).has_value());
  const auto status = wait_exit(*crashed);
  ASSERT_TRUE(status.has_value());
  ASSERT_EQ(status->code, 45);

  auto restarted = spawn_server(root, "", /*with_worker=*/false);
  ASSERT_TRUE(restarted.has_value());
  const auto reply = ask_over_socket(root, make_request("get", spec));
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->status, "hit");
  EXPECT_EQ(*reply->payload, stored);
  restarted->terminate();
  const auto drained = wait_exit(*restarted);
  ASSERT_TRUE(drained.has_value());
  EXPECT_TRUE(drained->success());

  std::error_code ec;
  fs::remove_all(root, ec);
}

// ---- Property (e): hostile frames don't wedge the accept loop ------------

TEST(result_server, malformed_frames_never_wedge_the_accept_loop) {
  namespace net = support::net;
  const std::string root = fresh_dir("hostile");
  const sweep_spec spec = serve_spec(111);
  const std::string stored = publish_front(root + "/store", spec);

  server_config config = local_config(root);
  config.socket_path = root + "/sock";
  config.receive_timeout_ms = 1000;
  result_server server(config);
  ASSERT_TRUE(server.start());
  std::thread accept_thread([&server] { server.serve(); });

  const auto connect = [&root] {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    std::optional<net::unix_stream> stream;
    while (!stream && std::chrono::steady_clock::now() < deadline) {
      stream = net::unix_stream::connect(root + "/sock");
      if (!stream) {
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    return stream;
  };

  // A parade of abuse, each on its own connection: raw garbage, a frame
  // cut mid-header, a bit-flipped frame, a 4 GiB length claim, and a
  // well-framed request whose *payload* is garbage.
  const std::string good_frame =
      net::encode_frame(encode_request(make_request("get", spec)));
  {
    auto c = connect();
    ASSERT_TRUE(c.has_value());
    ASSERT_TRUE(net::write_all(c->fd(), "GET / HTTP/1.1\r\n\r\n"));
  }
  {
    auto c = connect();
    ASSERT_TRUE(c.has_value());
    ASSERT_TRUE(net::write_all(
        c->fd(), std::string_view(good_frame).substr(0, 9)));
  }
  {
    auto c = connect();
    ASSERT_TRUE(c.has_value());
    std::string flipped = good_frame;
    flipped[net::kFrameHeaderBytes + 5] ^= 0x20;
    ASSERT_TRUE(net::write_all(c->fd(), flipped));
  }
  {
    auto c = connect();
    ASSERT_TRUE(c.has_value());
    std::string huge = good_frame.substr(0, net::kFrameHeaderBytes);
    for (int i = 0; i < 4; ++i) huge[4 + i] = static_cast<char>(0xFF);
    const std::uint32_t crc =
        support::crc32(std::string_view(huge.data(), 12));
    for (int i = 0; i < 4; ++i) {
      huge[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xFFu);
    }
    ASSERT_TRUE(net::write_all(c->fd(), huge));
  }
  {
    auto c = connect();
    ASSERT_TRUE(c.has_value());
    ASSERT_TRUE(c->send("definitely not an axc-serve request"));
    const auto frame = c->receive(1u << 20);
    ASSERT_TRUE(frame.has_value());  // framing fine, request malformed
    const auto reply = parse_reply(*frame);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->status, "malformed");
  }

  // After all of that, a fresh connection with a valid request is served.
  auto c = connect();
  ASSERT_TRUE(c.has_value());
  ASSERT_TRUE(c->send(encode_request(make_request("get", spec))));
  const auto frame = c->receive(1u << 20);
  ASSERT_TRUE(frame.has_value()) << "accept loop wedged";
  const auto reply = parse_reply(*frame);
  ASSERT_TRUE(reply.has_value());
  ASSERT_EQ(reply->status, "hit");
  EXPECT_EQ(*reply->payload, stored);
  // Each connection has its own handler thread, so this reply can overtake
  // the handlers still counting the earlier connections' damage: wait for
  // the count instead of sampling it once.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.stats().malformed < 4u &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(server.stats().malformed, 4u);

  server.request_stop();
  accept_thread.join();
  std::error_code ec;
  fs::remove_all(root, ec);
}

}  // namespace
}  // namespace axc::core
