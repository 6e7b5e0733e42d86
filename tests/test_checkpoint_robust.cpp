// Durability tests for the "axc-session v2" checkpoint format: CRC-guarded
// sections, atomic save_file, salvage of truncated/corrupted files, the
// named rejection of retired v1 files, autosave, and the injected-failure
// paths of save_to_file.
// The recurring acceptance shape: damage a checkpoint any way we can,
// resume whatever survives, run to completion — the result must equal the
// uninterrupted session bit for bit (dropped jobs simply re-run).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "circuit/serialize.h"
#include "core/component_handle.h"
#include "core/search_session.h"
#include "core/wmed_approximator.h"
#include "dist/pmf.h"
#include "mult/multipliers.h"
#include "support/fault.h"

namespace axc::core {
namespace {

approximation_config small_config() {
  approximation_config cfg;
  cfg.spec = metrics::mult_spec{4, false};
  cfg.distribution = dist::pmf::half_normal(16, 4.0);
  cfg.iterations = 150;
  cfg.extra_columns = 16;
  cfg.rng_seed = 13;
  return cfg;
}

sweep_plan small_plan() {
  sweep_plan plan;
  plan.targets = {0.002, 0.02};
  plan.runs_per_target = 2;
  return plan;
}

circuit::netlist seed_netlist() { return mult::unsigned_multiplier(4); }

/// A finished reference session plus its serialized checkpoint.
struct finished_fixture {
  std::vector<evolved_design> designs;
  std::vector<pareto_point> front;
  std::string checkpoint;
};

const finished_fixture& finished() {
  static const finished_fixture fixture = [] {
    search_session session(make_component(small_config()), seed_netlist(),
                           small_plan());
    session.run();
    std::ostringstream os;
    session.save(os);
    return finished_fixture{session.designs(), session.front(), os.str()};
  }();
  return fixture;
}

void expect_same_designs(const std::vector<evolved_design>& a,
                         const std::vector<evolved_design>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].netlist, b[i].netlist) << "design " << i;
    EXPECT_EQ(a[i].wmed, b[i].wmed) << "design " << i;
    EXPECT_EQ(a[i].area_um2, b[i].area_um2) << "design " << i;
    EXPECT_EQ(a[i].evaluations, b[i].evaluations) << "design " << i;
  }
}

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("axc-ckpt-test-") + name + "-" +
           std::to_string(::getpid())))
      .string();
}

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

TEST(checkpoint_v2, round_trips_a_finished_session) {
  const finished_fixture& ref = finished();
  EXPECT_EQ(ref.checkpoint.substr(0, 14), "axc-session v2");

  std::istringstream is(ref.checkpoint);
  resume_report report;
  auto resumed = search_session::resume(is, make_component(small_config()),
                                        {}, &report);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(report.version, 2u);
  EXPECT_FALSE(report.salvaged);
  EXPECT_EQ(report.jobs_recovered, 4u);
  EXPECT_EQ(report.jobs_dropped, 0u);
  EXPECT_TRUE(resumed->finished());
  expect_same_designs(resumed->designs(), ref.designs);
  EXPECT_EQ(resumed->front(), ref.front);
}

TEST(checkpoint_v2, rejects_wrong_fingerprint) {
  approximation_config other = small_config();
  other.rng_seed = 999;
  std::istringstream is(finished().checkpoint);
  EXPECT_FALSE(
      search_session::resume(is, make_component(other)).has_value());
}

TEST(checkpoint_v2, truncation_at_any_byte_salvages_and_reconverges) {
  // Cut the checkpoint at a sweep of byte offsets.  Every cut must either
  // resume (salvaging a subset of the jobs) or fail cleanly (header
  // damage); whatever survives, running the remainder must reproduce the
  // uninterrupted designs and front exactly.
  const finished_fixture& ref = finished();
  const std::string& full = ref.checkpoint;
  const std::size_t stride = full.size() / 24 + 1;
  for (std::size_t cut = 0; cut < full.size(); cut += stride) {
    std::istringstream is(full.substr(0, cut));
    resume_report report;
    auto session = search_session::resume(is, make_component(small_config()),
                                          {}, &report);
    if (!session) continue;  // damaged header: the worker starts fresh
    EXPECT_LE(report.jobs_recovered, 4u) << "cut " << cut;
    EXPECT_TRUE(report.salvaged || report.jobs_recovered == 4u)
        << "cut " << cut;
    session->run();
    EXPECT_TRUE(session->finished()) << "cut " << cut;
    expect_same_designs(session->designs(), ref.designs);
    EXPECT_EQ(session->front(), ref.front) << "cut " << cut;
  }
}

TEST(checkpoint_v2, dropping_the_footer_flags_salvage) {
  const std::string& full = finished().checkpoint;
  const std::size_t end_pos = full.rfind("end ");
  ASSERT_NE(end_pos, std::string::npos);
  std::istringstream is(full.substr(0, end_pos));
  resume_report report;
  auto session = search_session::resume(is, make_component(small_config()),
                                        {}, &report);
  ASSERT_TRUE(session.has_value());
  // All records intact; only the sentinel is missing.
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.jobs_recovered, 4u);
  EXPECT_EQ(report.jobs_dropped, 0u);
}

TEST(checkpoint_v2, corrupted_job_record_is_dropped_and_rerun) {
  const finished_fixture& ref = finished();
  std::string text = ref.checkpoint;
  // Flip one bit inside the first job record's netlist, past the header.
  const std::size_t job_pos = text.find("\njob ");
  ASSERT_NE(job_pos, std::string::npos);
  const std::size_t gate_pos = text.find("gate", job_pos);
  ASSERT_NE(gate_pos, std::string::npos);
  text[gate_pos + 7] ^= 0x10;

  std::istringstream is(text);
  resume_report report;
  auto session = search_session::resume(is, make_component(small_config()),
                                        {}, &report);
  ASSERT_TRUE(session.has_value());
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.jobs_dropped, 1u);
  EXPECT_EQ(report.jobs_recovered, 3u);
  session->run();
  expect_same_designs(session->designs(), ref.designs);
  EXPECT_EQ(session->front(), ref.front);
}

TEST(checkpoint_v2, single_bit_flips_never_crash_resume) {
  const std::string& full = finished().checkpoint;
  const std::size_t stride = full.size() / 64 + 1;
  for (std::size_t byte = 0; byte < full.size(); byte += stride) {
    std::string mutated = full;
    mutated[byte] ^= 0x04;
    std::istringstream is(mutated);
    // Any outcome is fine (reject, salvage, or full recovery when the flip
    // lands in ignorable bytes); crashing or hanging is not.
    (void)search_session::resume(is, make_component(small_config()));
  }
  SUCCEED();
}

TEST(checkpoint_v1, is_rejected_with_a_named_error) {
  // The legacy v1 format (no CRCs, `completed N` up front, bare `end`) is
  // no longer read: even a complete, well-formed v1 file for this very
  // component must be rejected, by name, rather than mis-accepted.
  const component_handle component = make_component(small_config());
  std::ostringstream v1;
  v1 << "axc-session v1\n";
  v1 << "component mult\n";
  v1 << "width 4\n";
  v1 << "rng-seed 13\n";
  v1 << "iterations 150\n";
  v1 << "fingerprint " << component.fingerprint() << "\n";
  v1 << "runs-per-target 2\n";
  v1 << "targets 2 0.002 0.02\n";
  v1 << "seed-netlist\n";
  circuit::write_netlist(v1, seed_netlist());
  v1 << "completed 0\n";
  v1 << "end\n";

  std::istringstream is(v1.str());
  resume_report report;
  testing::internal::CaptureStderr();
  const auto session = search_session::resume(is, component, {}, &report);
  const std::string diagnostic = testing::internal::GetCapturedStderr();
  EXPECT_FALSE(session.has_value());
  EXPECT_EQ(report.version, 1u);
  EXPECT_EQ(report.jobs_recovered, 0u);
  EXPECT_NE(diagnostic.find(
                "checkpoint v1 is no longer readable; re-run the sweep"),
            std::string::npos)
      << diagnostic;
}

TEST(save_file, is_atomic_and_durable) {
  const std::string path = temp_path("atomic");
  std::filesystem::remove(path);
  search_session session(make_component(small_config()), seed_netlist(),
                         small_plan());
  ASSERT_TRUE(session.save_file(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  auto resumed =
      search_session::resume_file(path, make_component(small_config()));
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(resumed->completed_jobs(), 0u);
  std::filesystem::remove(path);
}

TEST(save_file, injected_failure_never_clobbers_the_good_checkpoint) {
  const std::string path = temp_path("savefail");
  std::filesystem::remove(path);
  search_session session(make_component(small_config()), seed_netlist(),
                         small_plan());
  ASSERT_TRUE(session.save_file(path));
  const std::string good = slurp(path);

  fault::configure("session-save-fail");
  EXPECT_FALSE(session.save_file(path));
  fault::clear();

  EXPECT_EQ(slurp(path), good);  // untouched
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::filesystem::remove(path);
}

TEST(save_file, reports_failure_when_directory_fsync_fails) {
  // The rename landed but the directory entry never reached stable
  // storage: a power loss could still resurrect the old file, so the save
  // must report failure — and a clean retry (the fsync recovers) must
  // succeed against the same path with the renamed file already in place.
  const std::string path = temp_path("dirsync");
  std::filesystem::remove(path);
  search_session session(make_component(small_config()), seed_netlist(),
                         small_plan());
  ASSERT_TRUE(session.save_file(path));
  const std::string good = slurp(path);

  fault::configure("session-save-dirsync-fail@1");
  EXPECT_FALSE(session.save_file(path));
  fault::clear();
  // The file itself is whole (rename happened; only durability was in
  // doubt), so a reader still salvages a valid checkpoint...
  EXPECT_EQ(slurp(path), good);
  // ...and the retry completes durably.
  EXPECT_TRUE(session.save_file(path));
  EXPECT_EQ(slurp(path), good);
  std::filesystem::remove(path);
}

TEST(save_file, injected_truncation_is_salvaged_on_resume) {
  const finished_fixture& ref = finished();
  const std::string path = temp_path("truncate");
  std::filesystem::remove(path);
  search_session session(make_component(small_config()), seed_netlist(),
                         small_plan());
  session.run();

  // Truncate the *saved temp file* mid-body before it is renamed in: the
  // torn-write shape a power cut produces.
  const std::size_t cut = ref.checkpoint.size() / 2;
  fault::configure("session-save-truncate@1=" + std::to_string(cut));
  ASSERT_TRUE(session.save_file(path));
  fault::clear();
  EXPECT_EQ(std::filesystem::file_size(path), cut);

  resume_report report;
  auto resumed = search_session::resume_file(
      path, make_component(small_config()), {}, &report);
  if (resumed) {
    EXPECT_TRUE(report.salvaged);
    resumed->run();
    expect_same_designs(resumed->designs(), ref.designs);
    EXPECT_EQ(resumed->front(), ref.front);
  }
  std::filesystem::remove(path);
}

TEST(autosave, persists_progress_during_run) {
  const std::string path = temp_path("autosave");
  std::filesystem::remove(path);
  session_config options;
  options.autosave_path = path;
  options.autosave_generations = 32;
  search_session session(make_component(small_config()), seed_netlist(),
                         small_plan(), options);
  session.run();
  ASSERT_TRUE(std::filesystem::exists(path));

  // The autosaved file includes every completed job and resumes to the
  // full uninterrupted result.
  resume_report report;
  auto resumed = search_session::resume_file(
      path, make_component(small_config()), {}, &report);
  ASSERT_TRUE(resumed.has_value());
  EXPECT_EQ(report.jobs_recovered, 4u);
  expect_same_designs(resumed->designs(), finished().designs);
  EXPECT_EQ(resumed->front(), finished().front);
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace axc::core
