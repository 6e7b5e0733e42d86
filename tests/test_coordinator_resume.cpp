// Coordinator crash-recovery: the PR's acceptance property (a).  The real
// tools/axc_sweep coordinator is killed at every armed fault point —
// right after spawning its first worker, between shard merges, and inside
// the store's index append — then re-run over the surviving journal,
// shard checkpoints and store.  Each re-run must resume supervision
// (completed shards are not re-executed), publish into the result store,
// and land a front bit-identical to an uninterrupted in-process run of
// the same spec.
//
// ctest points AXC_SWEEP_BIN / AXC_WORKER_BIN at the built tools (see
// CMakeLists); the cases skip when either is unset.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "core/result_store.h"
#include "core/shard_runner.h"
#include "dist/pmf.h"
#include "mult/multipliers.h"
#include "support/subprocess.h"

namespace axc::core {
namespace {

namespace fs = std::filesystem;

const char* sweep_binary() { return std::getenv("AXC_SWEEP_BIN"); }
const char* worker_binary() { return std::getenv("AXC_WORKER_BIN"); }

sweep_spec small_spec() {
  sweep_spec spec;
  spec.component = "mult";
  spec.options.width = 4;
  spec.options.distribution = dist::pmf::half_normal(16, 4.0);
  spec.options.iterations = 150;
  spec.options.extra_columns = 16;
  spec.options.rng_seed = 13;
  spec.plan.targets = {0.002, 0.02};
  spec.plan.runs_per_target = 2;
  spec.options.runs_per_target = 2;
  spec.seed = mult::unsigned_multiplier(4);
  return spec;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = (fs::temp_directory_path() /
                           ("axc-coord-test-" + name + "-" +
                            std::to_string(::getpid())))
                              .string();
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir;
}

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

/// One coordinator life: axc_sweep over `spec_path`, publishing into
/// `store_dir`, optionally with an armed fault plan.
std::optional<support::exit_status> run_coordinator(
    const std::string& spec_path, const std::string& work_dir,
    const std::string& store_dir, const std::string& fault_plan) {
  std::vector<std::string> argv = {
      sweep_binary(), "--spec",    spec_path, "--worker", worker_binary(),
      "--work-dir",   work_dir,    "--store", store_dir,
      "--shards",     "2"};
  std::vector<std::string> env;
  if (!fault_plan.empty()) env.push_back("AXC_FAULT=" + fault_plan);
  auto proc = support::subprocess::spawn(argv, env);
  if (!proc) return std::nullopt;
  return wait_exit(*proc);
}

/// The per-shard "session" store keys run_sweep publishes under: derived
/// from the same shard specs the coordinator builds.
std::vector<std::string> shard_session_keys(const sweep_spec& spec,
                                            std::size_t shards) {
  std::vector<std::string> keys;
  for (const plan_shard& part : split_plan(spec.plan, shards)) {
    sweep_spec shard_spec;
    shard_spec.component = spec.component;
    shard_spec.options = spec.options;
    shard_spec.options.runs_per_target = part.plan.runs_per_target;
    shard_spec.plan = part.plan;
    shard_spec.seed = spec.seed;
    keys.push_back(result_store::format_key(shard_spec.store_key()));
  }
  return keys;
}

/// Kill the coordinator at `fault_plan`'s armed point (expected to die
/// with `crash_exit`), re-run it clean, and require the published front to
/// be bit-identical to the uninterrupted reference.
void run_crash_resume_case(const std::string& name,
                           const std::string& fault_plan, int crash_exit) {
  if (!sweep_binary() || !worker_binary()) {
    GTEST_SKIP() << "AXC_SWEEP_BIN / AXC_WORKER_BIN not set";
  }
  const sweep_spec spec = small_spec();
  const sweep_result reference = run_sweep_inprocess(spec);
  ASSERT_TRUE(reference.complete);
  const std::string reference_front = serialize_front(reference.front);

  const std::string root = fresh_dir(name);
  const std::string spec_path = root + "/sweep.spec";
  const std::string work_dir = root + "/work";
  const std::string store_dir = root + "/store";
  ASSERT_TRUE(spec.write_file(spec_path));

  // Life 1: dies at the armed point (_Exit models SIGKILL — no unwinding,
  // no flushes, workers taken down with it).
  const auto crashed =
      run_coordinator(spec_path, work_dir, store_dir, fault_plan);
  ASSERT_TRUE(crashed.has_value()) << "coordinator did not exit";
  EXPECT_FALSE(crashed->signalled);
  ASSERT_EQ(crashed->code, crash_exit)
      << "the armed fault point did not fire";

  // Life 2: clean re-run resumes from journal + checkpoints + store.
  const auto resumed = run_coordinator(spec_path, work_dir, store_dir, "");
  ASSERT_TRUE(resumed.has_value()) << "re-run coordinator did not exit";
  ASSERT_TRUE(resumed->success())
      << "re-run failed with exit " << resumed->code;

  // The published front is bit-identical to the uninterrupted run's.
  auto store = result_store::open(store_dir);
  ASSERT_TRUE(store.has_value());
  const std::string front_key = result_store::format_key(spec.store_key());
  const auto published = store->get("front", front_key);
  ASSERT_TRUE(published.has_value()) << "no front published";
  EXPECT_EQ(*published, reference_front);
  const auto parsed = parse_front(*published);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), reference.front.size());
  for (std::size_t i = 0; i < parsed->size(); ++i) {
    EXPECT_EQ((*parsed)[i], reference.front[i]) << "front point " << i;
  }

  // Both shard checkpoints were published too, framed as valid v2
  // session files.
  for (const std::string& key : shard_session_keys(spec, 2)) {
    const auto session = store->get("session", key);
    ASSERT_TRUE(session.has_value()) << "session " << key;
    EXPECT_EQ(session->rfind("axc-session v2", 0), 0u);
  }
  // Nothing else: tables are the server's `table` verb's to build.
  EXPECT_TRUE(store->entries("table").empty());
  EXPECT_EQ(store->entries().size(), 3u);  // two sessions and the front
  EXPECT_EQ(store->scrub().quarantined, 0u);

  std::error_code ec;
  fs::remove_all(root, ec);
}

TEST(coordinator_resume, killed_after_spawn) {
  run_crash_resume_case("after-spawn", "coord-crash-after-spawn@1", 43);
}

TEST(coordinator_resume, killed_mid_merge) {
  run_crash_resume_case("mid-merge", "coord-crash-mid-merge@1", 43);
}

TEST(coordinator_resume, killed_mid_index_append) {
  run_crash_resume_case("mid-index-append",
                        "store-crash-mid-index-append@1", 44);
}

// The journal also guards against redundant work: a shard the first life
// saw complete is not respawned by the second life.
TEST(coordinator_resume, completed_shards_are_not_respawned) {
  if (!worker_binary()) GTEST_SKIP() << "AXC_WORKER_BIN not set";
  const sweep_spec spec = small_spec();
  const sweep_result reference = run_sweep_inprocess(spec);

  const std::string root = fresh_dir("no-respawn");
  shard_runner_config config;
  config.shards = 2;
  config.max_attempts = 3;
  config.work_dir = root + "/work";
  config.worker_binary = worker_binary();
  config.store_dir = root + "/store";
  // The first life publishes through a handle opened before it, as the
  // result server does: the puts land in that handle's own index.
  auto handle = result_store::open(config.store_dir);
  ASSERT_TRUE(handle.has_value());
  config.store = &*handle;

  const sweep_result first = run_sweep(spec, config);
  ASSERT_TRUE(first.complete);
  ASSERT_EQ(first.shards[0].attempts, 1u);
  EXPECT_TRUE(handle->contains("front",
                               result_store::format_key(spec.store_key())));
  EXPECT_EQ(handle->entries().size(), 3u);

  // Re-running the finished sweep replays the journal: zero new spawns,
  // attempt counters preserved, same merge, same published bytes.
  std::size_t spawns = 0;
  shard_runner_config again = config;
  again.store = nullptr;  // this life opens store_dir itself
  again.on_event = [&spawns](const shard_event& event) {
    spawns += event.kind == shard_event_kind::spawned ? 1 : 0;
  };
  const sweep_result second = run_sweep(spec, again);
  EXPECT_EQ(spawns, 0u);
  ASSERT_TRUE(second.complete);
  ASSERT_EQ(second.shards.size(), first.shards.size());
  for (std::size_t i = 0; i < first.shards.size(); ++i) {
    EXPECT_EQ(second.shards[i].attempts, first.shards[i].attempts);
    EXPECT_TRUE(second.shards[i].completed);
  }
  EXPECT_EQ(serialize_front(second.front), serialize_front(first.front));
  EXPECT_EQ(serialize_front(second.front),
            serialize_front(reference.front));

  std::error_code ec;
  fs::remove_all(root, ec);
}

}  // namespace
}  // namespace axc::core
