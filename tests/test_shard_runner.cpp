// Sharded sweep runtime tests: plan splitting, spec serialization, and the
// PR's acceptance property — a sweep interrupted by injected worker
// crashes, a truncated autosave and enforced deadlines, then retried and
// merged, reproduces the uninterrupted session's designs and Pareto front
// bit-exactly, for both component classes and at any job_threads setting.
//
// Process-level cases launch the real tools/axc_worker binary; ctest
// points AXC_WORKER_BIN at it (see CMakeLists), and the cases skip when
// the variable is unset (e.g. running the test binary by hand).
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/shard_runner.h"
#include "dist/pmf.h"
#include "mult/adders.h"
#include "mult/multipliers.h"
#include "support/subprocess.h"

namespace axc::core {
namespace {

sweep_spec mult_spec_small() {
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

sweep_spec adder_spec_small() {
  sweep_spec spec;
  spec.component = "adder";
  spec.options.width = 6;
  spec.options.distribution = dist::pmf::half_normal(64, 16.0);
  spec.options.iterations = 120;
  spec.options.extra_columns = 12;
  spec.options.rng_seed = 7;
  spec.plan.targets = {0.001, 0.01};
  spec.plan.runs_per_target = 2;
  spec.options.runs_per_target = 2;
  spec.seed = mult::ripple_adder(6);
  return spec;
}

const char* worker_binary() { return std::getenv("AXC_WORKER_BIN"); }

std::string fresh_work_dir(const char* name) {
  const std::string dir =
      (std::filesystem::temp_directory_path() /
       (std::string("axc-shard-test-") + name + "-" +
        std::to_string(::getpid())))
          .string();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return dir;
}

void expect_same_result(const sweep_result& a, const sweep_result& b) {
  ASSERT_EQ(a.designs.size(), b.designs.size());
  for (std::size_t i = 0; i < a.designs.size(); ++i) {
    EXPECT_EQ(a.designs[i].netlist, b.designs[i].netlist) << "design " << i;
    EXPECT_EQ(a.designs[i].wmed, b.designs[i].wmed) << "design " << i;
    EXPECT_EQ(a.designs[i].area_um2, b.designs[i].area_um2) << "design " << i;
    EXPECT_EQ(a.designs[i].target, b.designs[i].target) << "design " << i;
    EXPECT_EQ(a.designs[i].run_index, b.designs[i].run_index)
        << "design " << i;
    EXPECT_EQ(a.designs[i].evaluations, b.designs[i].evaluations)
        << "design " << i;
  }
  ASSERT_EQ(a.front.size(), b.front.size());
  for (std::size_t i = 0; i < a.front.size(); ++i) {
    EXPECT_EQ(a.front[i], b.front[i]) << "front point " << i;
  }
}

TEST(split_plan, contiguous_target_major_with_exact_offsets) {
  sweep_plan plan;
  plan.targets = {0.1, 0.2, 0.3, 0.4, 0.5};
  plan.runs_per_target = 3;
  const auto parts = split_plan(plan, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].plan.targets, (std::vector<double>{0.1, 0.2, 0.3}));
  EXPECT_EQ(parts[0].job_offset, 0u);
  EXPECT_EQ(parts[1].plan.targets, (std::vector<double>{0.4, 0.5}));
  EXPECT_EQ(parts[1].job_offset, 9u);
  EXPECT_EQ(parts[0].plan.runs_per_target, 3u);
}

TEST(split_plan, clamps_shards_to_target_count) {
  sweep_plan plan;
  plan.targets = {0.1, 0.2};
  plan.runs_per_target = 1;
  EXPECT_EQ(split_plan(plan, 8).size(), 2u);
  EXPECT_EQ(split_plan(plan, 0).size(), 1u);
  EXPECT_TRUE(split_plan(sweep_plan{}, 4).empty());
}

TEST(split_plan, more_shards_than_jobs_gives_one_target_each) {
  // 3 targets x 1 run = 3 jobs, 8 requested shards: one shard per target,
  // never an empty shard.
  sweep_plan plan;
  plan.targets = {0.1, 0.2, 0.3};
  plan.runs_per_target = 1;
  const auto parts = split_plan(plan, 8);
  ASSERT_EQ(parts.size(), 3u);
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(parts[i].plan.targets,
              (std::vector<double>{plan.targets[i]}));
    EXPECT_EQ(parts[i].plan.job_count(), 1u);
    EXPECT_EQ(parts[i].job_offset, i);
  }
}

TEST(split_plan, empty_plan_yields_no_shards) {
  EXPECT_TRUE(split_plan(sweep_plan{}, 1).empty());
  EXPECT_TRUE(split_plan(sweep_plan{}, 0).empty());
  // Targets without repetitions is still an empty plan job-wise, but the
  // target split itself is well-defined (shards of zero jobs each).
  sweep_plan zero_runs;
  zero_runs.targets = {0.1, 0.2};
  zero_runs.runs_per_target = 0;
  const auto parts = split_plan(zero_runs, 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0].plan.job_count(), 0u);
  EXPECT_EQ(parts[1].job_offset, 0u);
}

TEST(split_plan, single_job_plan_is_one_full_shard) {
  sweep_plan plan;
  plan.targets = {0.25};
  plan.runs_per_target = 1;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{7}}) {
    const auto parts = split_plan(plan, shards);
    ASSERT_EQ(parts.size(), 1u) << shards;
    EXPECT_EQ(parts[0].plan.targets, plan.targets);
    EXPECT_EQ(parts[0].plan.job_count(), 1u);
    EXPECT_EQ(parts[0].job_offset, 0u);
  }
}

TEST(split_plan, offsets_partition_the_full_plan) {
  sweep_plan plan;
  plan.targets = {1, 2, 3, 4, 5, 6, 7};
  plan.runs_per_target = 2;
  const auto parts = split_plan(plan, 3);
  std::size_t next = 0;
  std::size_t targets = 0;
  for (const auto& part : parts) {
    EXPECT_EQ(part.job_offset, next);
    next += part.plan.job_count();
    targets += part.plan.targets.size();
  }
  EXPECT_EQ(next, plan.job_count());
  EXPECT_EQ(targets, plan.targets.size());
}

TEST(sweep_spec, round_trips_bit_exactly) {
  const sweep_spec original = mult_spec_small();
  std::ostringstream os;
  original.write(os);
  std::istringstream is(os.str());
  const auto restored = sweep_spec::read(is);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->component, original.component);
  EXPECT_EQ(restored->plan.targets, original.plan.targets);
  EXPECT_EQ(restored->plan.runs_per_target, original.plan.runs_per_target);
  EXPECT_EQ(restored->seed, original.seed);
  // The distribution must rebuild mass-for-mass (no renormalization
  // drift): the component fingerprint — and thus checkpoint
  // compatibility between coordinator and workers — depends on it.
  EXPECT_EQ(restored->options.distribution, original.options.distribution);
  EXPECT_EQ(restored->make_component().fingerprint(),
            original.make_component().fingerprint());
}

TEST(sweep_spec, second_generation_round_trip_is_stable) {
  // write(read(write(x))) == write(read(...)): the format is a fixpoint,
  // so shard specs re-derived from parsed specs stay compatible.
  const sweep_spec original = adder_spec_small();
  std::ostringstream first;
  original.write(first);
  std::istringstream is1(first.str());
  const auto once = sweep_spec::read(is1);
  ASSERT_TRUE(once.has_value());
  std::ostringstream second;
  once->write(second);
  EXPECT_EQ(first.str(), second.str());
}

TEST(sweep_spec, adversarial_doubles_round_trip_with_stable_fingerprint) {
  // Distribution masses and plan targets at the edges of double's range:
  // denormals, the denormal/normal boundary, huge magnitudes, and classic
  // shortest-decimal stress cases.  The %.17g text format must rebuild
  // every one bit-exactly — the component fingerprint (and thus
  // coordinator/worker checkpoint compatibility and the result-store key)
  // hashes the raw bits.
  sweep_spec original = mult_spec_small();
  original.options.distribution = dist::pmf::from_masses(std::vector<double>{
      5e-324, 6.3e-322, 2.2250738585072014e-308, 2.2250738585072009e-308,
      1.7976931348623157e308, 0.1, 1.0 / 3.0, 1e-17, 123456789.12345679,
      0.0, 7.2, 1e-300, 2.5e-150, 42.0, 1.0000000000000002, 3.14159});
  original.plan.targets = {5e-324, 1.0 / 3.0, 0.1, 2.2250738585072014e-308};
  original.options.runs_per_target = original.plan.runs_per_target;

  std::ostringstream os;
  original.write(os);
  std::istringstream is(os.str());
  const auto restored = sweep_spec::read(is);
  ASSERT_TRUE(restored.has_value());

  const auto original_masses = original.options.distribution.masses();
  const auto restored_masses = restored->options.distribution.masses();
  ASSERT_EQ(restored_masses.size(), original_masses.size());
  for (std::size_t i = 0; i < original_masses.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored_masses[i]),
              std::bit_cast<std::uint64_t>(original_masses[i]))
        << "mass " << i;
  }
  ASSERT_EQ(restored->plan.targets.size(), original.plan.targets.size());
  for (std::size_t i = 0; i < original.plan.targets.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(restored->plan.targets[i]),
              std::bit_cast<std::uint64_t>(original.plan.targets[i]))
        << "target " << i;
  }
  EXPECT_EQ(restored->make_component().fingerprint(),
            original.make_component().fingerprint());
  EXPECT_EQ(restored->store_key(), original.store_key());

  // Fixpoint even on the adversarial values: a shard spec re-derived from
  // this parse serializes to the identical bytes.
  std::ostringstream second;
  restored->write(second);
  EXPECT_EQ(second.str(), os.str());
}

TEST(sweep_spec, store_key_separates_plans_sharing_a_component) {
  const sweep_spec base = mult_spec_small();
  ASSERT_NE(base.store_key(), 0u);
  sweep_spec more_runs = base;
  more_runs.plan.runs_per_target += 1;
  EXPECT_NE(more_runs.store_key(), base.store_key());
  sweep_spec other_targets = base;
  other_targets.plan.targets.push_back(0.1);
  EXPECT_NE(other_targets.store_key(), base.store_key());
  sweep_spec unknown = base;
  unknown.component = "no-such-component";
  EXPECT_EQ(unknown.store_key(), 0u);
}

/// A fixed spec whose distribution is pure IEEE arithmetic (counts
/// normalized by one division), so its keys are the same on every host.
sweep_spec pinned_spec(const char* component, unsigned width) {
  sweep_spec spec;
  spec.component = component;
  spec.options.width = width;
  std::vector<std::uint64_t> counts(std::size_t{1} << width);
  for (std::size_t a = 0; a < counts.size(); ++a) counts[a] = a % 5 + 1;
  spec.options.distribution = dist::pmf::from_counts(counts);
  spec.options.iterations = 400;
  spec.options.extra_columns = 24;
  spec.options.rng_seed = 2024;
  spec.plan.targets = {0.001, 0.01};
  spec.plan.runs_per_target = 2;
  spec.options.runs_per_target = 2;
  spec.seed = std::string(component) == "mult"
                  ? mult::unsigned_multiplier(width)
                  : mult::ripple_adder(width);
  return spec;
}

TEST(sweep_spec, wide_keys_are_pinned_and_small_width_keys_moved) {
  // Checkpoints, store objects and "table" entries are keyed by these
  // values: at width >= 6 they must never move by accident.  Below width 6
  // the WMED reduction changed its last bits, so the fingerprint folds one
  // constant there and entries written before that change are rejected,
  // not mixed.  Store keys moved once on purpose when the seed's structure
  // joined them (mult8 was 0x89aa80b073a1a1b5, adder8 0x8c8c6f2b30df793c):
  // stores written before that miss once and re-sweep.
  const sweep_spec mult8 = pinned_spec("mult", 8);
  EXPECT_EQ(mult8.make_component().fingerprint(), 0xbe30cd22899b34ecULL);
  EXPECT_EQ(mult8.store_key(), 0xe0d71c16b8757982ULL);
  const sweep_spec adder8 = pinned_spec("adder", 8);
  EXPECT_EQ(adder8.make_component().fingerprint(), 0xe180982f683e11c9ULL);
  EXPECT_EQ(adder8.store_key(), 0x7152a2c242ecfff3ULL);
  // The width-4 values the natural-order sum was keyed by.
  const sweep_spec mult4 = pinned_spec("mult", 4);
  EXPECT_NE(mult4.make_component().fingerprint(), 0x9195f1baaed0c063ULL);
  EXPECT_NE(mult4.store_key(), 0x1f6addb4740706e2ULL);
}

TEST(sweep_spec, seed_structure_is_part_of_every_key) {
  // Array- and Wallace-scheduled exact multipliers behave alike but seed
  // different searches, so neither may be served the other's front, and
  // each seed's table is its own.
  const sweep_spec array = pinned_spec("mult", 8);
  sweep_spec wallace = array;
  wallace.seed = mult::unsigned_multiplier(8, mult::schedule::wallace);
  EXPECT_EQ(wallace.make_component().fingerprint(),
            array.make_component().fingerprint());
  EXPECT_NE(wallace.table_key(), array.table_key());
  EXPECT_NE(wallace.store_key(), array.store_key());
  // The same structure built again keys identically.
  sweep_spec rebuilt = array;
  rebuilt.seed = mult::unsigned_multiplier(8);
  EXPECT_EQ(rebuilt.table_key(), array.table_key());
  EXPECT_EQ(rebuilt.store_key(), array.store_key());
}

TEST(sweep_spec, incremental_line_is_required_and_ignored) {
  // The line is vestigial: written as 1, read as any integer, never part
  // of the spec's identity; a spec without it is still malformed.
  const sweep_spec original = mult_spec_small();
  std::ostringstream os;
  original.write(os);
  const std::string text = os.str();
  const std::string line = "\nincremental 1\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);

  std::string zero = text;
  zero.replace(at, line.size(), "\nincremental 0\n");
  std::istringstream zero_is(zero);
  const auto restored = sweep_spec::read(zero_is);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(restored->store_key(), original.store_key());
  std::ostringstream rewritten;
  restored->write(rewritten);
  EXPECT_EQ(rewritten.str(), text);

  std::string missing = text;
  missing.erase(at, line.size() - 1);
  std::istringstream missing_is(missing);
  EXPECT_FALSE(sweep_spec::read(missing_is).has_value());
}

TEST(sweep_spec, read_rejects_damage) {
  const sweep_spec original = mult_spec_small();
  std::ostringstream os;
  original.write(os);
  const std::string text = os.str();
  const std::size_t stride = text.size() / 16 + 1;
  for (std::size_t cut = 0; cut + 1 < text.size(); cut += stride) {
    std::istringstream is(text.substr(0, cut));
    EXPECT_FALSE(sweep_spec::read(is).has_value()) << "cut " << cut;
  }
  std::istringstream garbage("axc-sweep-spec v9\n");
  EXPECT_FALSE(sweep_spec::read(garbage).has_value());
}

TEST(sweep_spec, read_rejects_a_v1_spec_with_a_threads_line) {
  // v1 carried a `threads` line after `lambda`; v2 dropped it and bumped
  // the magic, so an old spec fails on its first line.
  std::ostringstream os;
  mult_spec_small().write(os);
  std::string text = os.str();
  text.replace(text.find("v2"), 2, "v1");
  const std::size_t lambda_end = text.find('\n', text.find("\nlambda ") + 1);
  text.insert(lambda_end + 1, "threads 1\n");
  std::istringstream is(text);
  EXPECT_FALSE(sweep_spec::read(is).has_value());
}

/// Serializes `spec` and reads it back — the path a worker, the result
/// server and axc_client take.
bool reads_back(const sweep_spec& spec) {
  std::ostringstream os;
  spec.write(os);
  std::istringstream is(os.str());
  return sweep_spec::read(is).has_value();
}

TEST(sweep_spec, read_rejects_out_of_range_values) {
  ASSERT_TRUE(reads_back(mult_spec_small()));
  ASSERT_TRUE(reads_back(adder_spec_small()));

  // Widths the evaluator and compiled tables cannot handle — width 40 with
  // an empty distribution used to die in std::bad_alloc.
  for (const unsigned width : {0u, 2u, 13u, 40u}) {
    sweep_spec spec = mult_spec_small();
    spec.options.width = width;
    spec.options.distribution = {};
    EXPECT_FALSE(reads_back(spec)) << "width " << width;
    EXPECT_FALSE(spec.validate().empty()) << "width " << width;
  }

  sweep_spec no_lambda = mult_spec_small();
  no_lambda.options.lambda = 0;
  EXPECT_FALSE(reads_back(no_lambda));

  for (const double target : {-0.1, 1.5, std::nan(""), HUGE_VAL}) {
    sweep_spec spec = mult_spec_small();
    spec.plan.targets.push_back(target);
    EXPECT_FALSE(reads_back(spec)) << "target " << target;
  }

  // Distribution size must be 0 or 2^width: a width-4 spec with 8 masses
  // used to hit finalize_config's abort().
  sweep_spec short_pmf = mult_spec_small();
  short_pmf.options.distribution = dist::pmf::half_normal(8, 2.0);
  EXPECT_FALSE(reads_back(short_pmf));
  sweep_spec uniform = mult_spec_small();
  uniform.options.distribution = {};
  EXPECT_TRUE(reads_back(uniform));

  // A seed netlist that does not fit the component.
  sweep_spec wrong_seed = mult_spec_small();
  wrong_seed.seed = mult::unsigned_multiplier(3);
  EXPECT_FALSE(reads_back(wrong_seed));
  sweep_spec adder_seed = mult_spec_small();
  adder_seed.seed = mult::ripple_adder(4);
  EXPECT_FALSE(reads_back(adder_seed));
}

/// `spec` serialized, with the value on its `<key> ...` line replaced by
/// `value` verbatim.
std::string with_field(const sweep_spec& spec, const std::string& key,
                       const std::string& value) {
  std::ostringstream os;
  spec.write(os);
  std::string text = os.str();
  const std::size_t begin = text.find("\n" + key + " ") + key.size() + 2;
  const std::size_t end = text.find('\n', begin);
  return text.replace(begin, end - begin, value);
}

TEST(sweep_spec, count_fields_have_ceilings_and_take_no_sign) {
  // Each count field at its documented ceiling reads back; one past it
  // fails validate(); "-1" (which stream extraction wrapped to 2^64 - 1,
  // so `runs-per-target -1` once asked for 2^64 - 1 jobs) fails the syntax.
  struct field {
    const char* key;
    std::uint64_t ceiling;
    void (*set)(sweep_spec&, std::uint64_t);
  };
  const field fields[] = {
      {"iterations", std::uint64_t{1} << 30,
       [](sweep_spec& s, std::uint64_t v) { s.options.iterations = v; }},
      {"extra-columns", std::uint64_t{1} << 16,
       [](sweep_spec& s, std::uint64_t v) { s.options.extra_columns = v; }},
      {"max-mutations", std::uint64_t{1} << 16,
       [](sweep_spec& s, std::uint64_t v) {
         s.options.max_mutations = static_cast<unsigned>(v);
       }},
      {"lambda", std::uint64_t{1} << 10,
       [](sweep_spec& s, std::uint64_t v) { s.options.lambda = v; }},
      {"runs-per-target", std::uint64_t{1} << 16,
       [](sweep_spec& s, std::uint64_t v) {
         s.plan.runs_per_target = v;
         s.options.runs_per_target = v;
       }},
  };
  for (const field& f : fields) {
    sweep_spec at = mult_spec_small();
    f.set(at, f.ceiling);
    EXPECT_TRUE(at.validate().empty()) << f.key;
    EXPECT_TRUE(reads_back(at)) << f.key;

    sweep_spec above = mult_spec_small();
    f.set(above, f.ceiling + 1);
    EXPECT_FALSE(above.validate().empty()) << f.key;
    EXPECT_FALSE(reads_back(above)) << f.key;

    sweep_spec wrapped = mult_spec_small();
    f.set(wrapped, std::numeric_limits<std::uint64_t>::max());
    EXPECT_FALSE(wrapped.validate().empty()) << f.key;

    for (const char* signed_value : {"-1", "+1"}) {
      std::istringstream is(with_field(mult_spec_small(), f.key, signed_value));
      EXPECT_FALSE(sweep_spec::parse(is).has_value())
          << f.key << " " << signed_value;
    }
    std::istringstream one(with_field(mult_spec_small(), f.key, "1"));
    EXPECT_TRUE(sweep_spec::read(one).has_value()) << f.key;
  }
}

TEST(sweep_spec, parse_rejects_trailing_and_glued_tokens) {
  const sweep_spec spec = mult_spec_small();
  for (const auto& [key, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"width", "4 4"},
           {"width", "4x"},
           {"rng-seed", "13 junk"},
           {"component", "mult extra"},
           {"targets", "2 0.002 0.02 0.5"},
           {"targets", "2 0.002 0x1p3"},
           {"targets", "2 0.002 inf"},
       }) {
    std::istringstream is(with_field(spec, key, value));
    EXPECT_FALSE(sweep_spec::parse(is).has_value()) << key << " " << value;
  }
}

TEST(sweep_spec, read_rejects_unusable_distribution_masses) {
  std::ostringstream os;
  mult_spec_small().write(os);
  const std::string text = os.str();
  const std::size_t begin = text.find("\ndistribution ") + 1;
  const std::size_t end = text.find('\n', begin);
  const auto with_masses = [&](const std::string& masses) {
    std::string line = "distribution 16";
    for (int i = 0; i < 16; ++i) line += " " + masses;
    return text.substr(0, begin) + line + text.substr(end);
  };
  for (const char* mass : {"-0.5", "nan", "inf", "0"}) {
    std::istringstream is(with_masses(mass));
    EXPECT_FALSE(sweep_spec::read(is).has_value()) << "mass " << mass;
  }
  std::istringstream ok(with_masses("0.0625"));
  EXPECT_TRUE(sweep_spec::read(ok).has_value());
}

TEST(run_sweep_inprocess, matches_plain_session_at_any_job_threads) {
  const sweep_spec spec = mult_spec_small();
  const sweep_result serial = run_sweep_inprocess(spec);
  ASSERT_TRUE(serial.complete);
  session_config parallel_options;
  parallel_options.job_threads = 3;
  const sweep_result parallel = run_sweep_inprocess(spec, parallel_options);
  ASSERT_TRUE(parallel.complete);
  expect_same_result(parallel, serial);
}

/// The acceptance property: crash + truncated autosave + retry == the
/// uninterrupted run, bit for bit.
void run_kill_resume_identity(const sweep_spec& spec, const char* name) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_result reference = run_sweep_inprocess(spec);
  ASSERT_TRUE(reference.complete);

  shard_runner_config config;
  config.shards = 2;
  config.max_attempts = 3;
  config.worker_autosave_generations = 16;
  config.work_dir = fresh_work_dir(name);
  config.worker_binary = worker;
  // Shard 0, first life only: the worker's third save is torn at byte 350,
  // and the process dies hard at its 60th generation tick.  Workers run
  // their jobs on every CPU, and both hit counters are process-wide, so the
  // ticks and saves of all job threads interleave in the count: the third
  // save may be a 16-tick autosave or a job-completion save.  Whichever
  // file the relaunch faces (torn, or intact but partial), it must salvage
  // or reject-then-start-fresh and reconverge.
  config.shard_env = {
      {"AXC_FAULT=session-save-truncate@3=350;worker-crash-generation@60"}};

  const sweep_result sharded = run_sweep(spec, config);
  ASSERT_GE(sharded.shards.size(), 2u);
  EXPECT_GE(sharded.shards[0].attempts, 2u)
      << "the injected crash did not force a retry";
  EXPECT_EQ(sharded.shards[0].last_exit_code, 0);
  ASSERT_TRUE(sharded.complete);
  expect_same_result(sharded, reference);

  // ...and the merged result is also invariant to the reference's
  // job-level parallelism (ties in the archive break by job id, not by
  // completion order).
  session_config parallel_options;
  parallel_options.job_threads = 2;
  const sweep_result parallel = run_sweep_inprocess(spec, parallel_options);
  expect_same_result(sharded, parallel);

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

TEST(shard_runner, kill_resume_identity_mult) {
  run_kill_resume_identity(mult_spec_small(), "mult");
}

TEST(shard_runner, kill_resume_identity_adder) {
  run_kill_resume_identity(adder_spec_small(), "adder");
}

TEST(shard_runner, stalled_worker_is_killed_and_retried) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_spec spec = mult_spec_small();
  const sweep_result reference = run_sweep_inprocess(spec);

  shard_runner_config config;
  config.shards = 2;
  config.max_attempts = 2;
  // Generous enough that a legitimately-working shard (which completes a
  // job, i.e. grows its checkpoint, well within this) is never killed,
  // even under sanitizers.
  config.stall_timeout = std::chrono::milliseconds(2500);
  config.work_dir = fresh_work_dir("stall");
  config.worker_binary = worker;
  // First life of shard 1 sleeps 30s before doing anything: no checkpoint
  // growth, so the stall deadline must SIGKILL it long before that.
  config.shard_env = {{}, {"AXC_FAULT=worker-sleep-start=30000"}};

  const auto start = std::chrono::steady_clock::now();
  const sweep_result sharded = run_sweep(spec, config);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(25)) << "stall kill did not fire";
  ASSERT_GE(sharded.shards.size(), 2u);
  EXPECT_TRUE(sharded.shards[1].timed_out);
  EXPECT_GE(sharded.shards[1].attempts, 2u);
  ASSERT_TRUE(sharded.complete);
  expect_same_result(sharded, reference);

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

TEST(shard_runner, worker_exit_wakes_supervision_before_the_poll_interval) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";
  {
    auto probe = support::subprocess::spawn({"/bin/sh", "-c", "exit 0"});
    ASSERT_TRUE(probe.has_value());
    if (probe->exit_fd() < 0) GTEST_SKIP() << "kernel without pidfd support";
  }
  const sweep_spec spec = mult_spec_small();
  const sweep_result reference = run_sweep_inprocess(spec);

  // With a 5 s tick, a sweep that waited for ticks would take >= 5 s; one
  // woken by its workers' exits takes about as long as the workers do.
  shard_runner_config config;
  config.shards = 2;
  config.poll_interval = std::chrono::seconds(5);
  config.work_dir = fresh_work_dir("wake");
  config.worker_binary = worker;
  const auto start = std::chrono::steady_clock::now();
  const sweep_result sharded = run_sweep(spec, config);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(2500));
  ASSERT_TRUE(sharded.complete);
  expect_same_result(sharded, reference);

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

TEST(shard_runner, exhausted_attempts_yield_partial_merge) {
  const char* worker = worker_binary();
  if (!worker) GTEST_SKIP() << "AXC_WORKER_BIN not set";

  const sweep_spec spec = mult_spec_small();
  const sweep_result reference = run_sweep_inprocess(spec);

  shard_runner_config config;
  config.shards = 2;
  config.max_attempts = 1;  // no retry: the crash is fatal for shard 0
  config.worker_autosave_generations = 16;
  config.work_dir = fresh_work_dir("partial");
  config.worker_binary = worker;
  config.shard_env = {{"AXC_FAULT=worker-crash-generation@40"}};

  const sweep_result sharded = run_sweep(spec, config);
  ASSERT_GE(sharded.shards.size(), 2u);
  EXPECT_FALSE(sharded.shards[0].completed);
  EXPECT_TRUE(sharded.shards[1].completed);
  EXPECT_FALSE(sharded.complete);
  // Shard 1's jobs (global ids 2, 3) still merged, bit-equal to the
  // reference; shard 0's jobs are lost or partially salvaged from its
  // autosaves, never wrong.
  ASSERT_EQ(sharded.by_job.size(), 4u);
  for (std::size_t id = 2; id < 4; ++id) {
    ASSERT_TRUE(sharded.by_job[id].has_value()) << "job " << id;
    EXPECT_EQ(sharded.by_job[id]->netlist, reference.by_job[id]->netlist);
    EXPECT_EQ(sharded.by_job[id]->wmed, reference.by_job[id]->wmed);
  }
  for (std::size_t id = 0; id < 2; ++id) {
    if (sharded.by_job[id]) {
      EXPECT_EQ(sharded.by_job[id]->netlist, reference.by_job[id]->netlist)
          << "salvaged job " << id;
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(config.work_dir, ec);
}

}  // namespace
}  // namespace axc::core
