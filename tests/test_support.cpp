#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "support/rng.h"
#include "support/subprocess.h"

#if AXC_HAS_SUBPROCESS
#include <fcntl.h>
#include <poll.h>
#endif

namespace axc {
namespace {

TEST(splitmix, deterministic) {
  std::uint64_t s1 = 42, s2 = 42;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

TEST(splitmix, advances_state) {
  std::uint64_t s = 42;
  const auto a = splitmix64(s);
  const auto b = splitmix64(s);
  EXPECT_NE(a, b);
}

TEST(rng, deterministic_for_seed) {
  rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(rng, different_seeds_diverge) {
  rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a() == b() ? 1 : 0;
  EXPECT_LT(same, 4);
}

TEST(rng, reseed_restarts_sequence) {
  rng a(9);
  const auto first = a();
  a.reseed(9);
  EXPECT_EQ(a(), first);
}

TEST(rng, below_respects_bound) {
  rng gen(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(gen.below(bound), bound);
  }
}

TEST(rng, below_covers_all_residues) {
  rng gen(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(gen.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(rng, below_is_roughly_uniform) {
  rng gen(11);
  std::vector<int> counts(8, 0);
  constexpr int kDraws = 80000;
  for (int i = 0; i < kDraws; ++i) ++counts[gen.below(8)];
  for (const int c : counts) {
    EXPECT_NEAR(c, kDraws / 8, kDraws / 8 * 0.1);
  }
}

TEST(rng, between_is_inclusive) {
  rng gen(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = gen.between(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(rng, uniform01_in_range) {
  rng gen(17);
  for (int i = 0; i < 10000; ++i) {
    const double u = gen.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(rng, uniform01_mean_near_half) {
  rng gen(19);
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) sum += gen.uniform01();
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(rng, normal_moments) {
  rng gen(23);
  double sum = 0.0, sq = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    const double x = gen.normal();
    sum += x;
    sq += x * x;
  }
  const double mean = sum / kDraws;
  const double var = sq / kDraws - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.05);
}

TEST(rng, normal_scaled) {
  rng gen(29);
  double sum = 0.0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) sum += gen.normal(10.0, 2.0);
  EXPECT_NEAR(sum / kDraws, 10.0, 0.1);
}

TEST(rng, chance_extremes) {
  rng gen(31);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(gen.chance(0.0));
    EXPECT_TRUE(gen.chance(1.0));
  }
}

TEST(rng, chance_probability) {
  rng gen(37);
  int hits = 0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) hits += gen.chance(0.25) ? 1 : 0;
  EXPECT_NEAR(hits, kDraws * 0.25, kDraws * 0.02);
}

#if AXC_HAS_SUBPROCESS

/// True when `fd` is readable within `ms`.
bool readable_within(int fd, int ms) {
  ::pollfd p{fd, POLLIN, 0};
  return ::poll(&p, 1, ms) == 1 && (p.revents & POLLIN) != 0;
}

std::optional<support::subprocess> spawn_sh(const std::string& script) {
  return support::subprocess::spawn({"/bin/sh", "-c", script});
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(subprocess, exit_fd_turns_readable_on_exit_and_closes_on_reap) {
  auto child = spawn_sh("sleep 0.2; exit 3");
  ASSERT_TRUE(child.has_value());
  const int fd = child->exit_fd();
  if (fd < 0) GTEST_SKIP() << "kernel without pidfd support";
  EXPECT_NE(::fcntl(fd, F_GETFD) & FD_CLOEXEC, 0);
  EXPECT_FALSE(readable_within(fd, 0)) << "readable while still running";
  ASSERT_TRUE(readable_within(fd, 10000)) << "exit never signalled";
  const auto status = child->poll();
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->code, 3);
  EXPECT_EQ(child->exit_fd(), -1);
  EXPECT_EQ(::fcntl(fd, F_GETFD), -1) << "pidfd left open after reap";
}

TEST(subprocess, moved_from_handle_holds_no_exit_fd) {
  auto child = spawn_sh("exit 0");
  ASSERT_TRUE(child.has_value());
  const int fd = child->exit_fd();
  support::subprocess moved = std::move(*child);
  EXPECT_EQ(child->exit_fd(), -1);
  EXPECT_FALSE(child->running());
  EXPECT_EQ(moved.exit_fd(), fd);
  support::subprocess assigned;
  assigned = std::move(moved);
  EXPECT_EQ(moved.exit_fd(), -1);
  EXPECT_EQ(assigned.exit_fd(), fd);
  const auto status = assigned.wait();
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->success());
  EXPECT_EQ(assigned.exit_fd(), -1);
}

TEST(subprocess, spawning_leaks_no_descriptors) {
  if (!std::filesystem::exists("/proc/self/fd")) {
    GTEST_SKIP() << "no /proc/self/fd";
  }
  const std::size_t before = open_fd_count();
  for (int i = 0; i < 200; ++i) {
    auto child = spawn_sh("exit 0");
    ASSERT_TRUE(child.has_value());
    switch (i % 3) {
      case 0:  // blocking reap
        ASSERT_TRUE(child->wait().has_value());
        break;
      case 1:  // wake on the exit fd, then the non-blocking reap
        if (child->exit_fd() >= 0) {
          ASSERT_TRUE(readable_within(child->exit_fd(), 10000));
        }
        while (!child->poll()) {
        }
        break;
      default:  // the destructor kills and reaps
        break;
    }
  }
  EXPECT_EQ(open_fd_count(), before);
}

#endif  // AXC_HAS_SUBPROCESS

}  // namespace
}  // namespace axc
