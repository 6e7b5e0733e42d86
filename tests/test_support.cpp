#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "support/checksum.h"
#include "support/journal.h"
#include "support/rng.h"
#include "support/subprocess.h"
#include "support/tokens.h"

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

/// The bytewise CRC-32 loop crc32() replaced: one table lookup per byte,
/// table built at run time.  The oracle for the slicing-by-8 version.
std::uint32_t crc32_bytewise(std::string_view bytes, std::uint32_t seed = 0) {
  static const std::vector<std::uint32_t> table = [] {
    std::vector<std::uint32_t> t(256);
    for (std::uint32_t n = 0; n < 256; ++n) {
      std::uint32_t c = n;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[n] = c;
    }
    return t;
  }();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c = table[(c ^ static_cast<unsigned char>(ch)) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(crc32, known_answers) {
  EXPECT_EQ(support::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(support::crc32(""), 0u);
  EXPECT_EQ(support::crc32("a"), 0xE8B7BE43u);
  EXPECT_EQ(support::crc32("The quick brown fox jumps over the lazy dog"),
            0x414FA339u);
}

TEST(crc32, slicing_by_8_matches_the_bytewise_loop) {
  // Random bytes at every length 0..300, read at offsets 0..7 of one buffer
  // so the 8-byte steps start at every alignment, with random seeds.
  rng gen(0xC3C);
  std::string buffer(320, '\0');
  for (char& c : buffer) c = static_cast<char>(gen.below(256));
  for (std::size_t length = 0; length <= 300; ++length) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const std::string_view bytes(buffer.data() + offset, length);
      ASSERT_EQ(support::crc32(bytes), crc32_bytewise(bytes))
          << "length " << length << " offset " << offset;
      const auto seed = static_cast<std::uint32_t>(gen());
      ASSERT_EQ(support::crc32(bytes, seed), crc32_bytewise(bytes, seed))
          << "length " << length << " offset " << offset;
    }
  }
}

TEST(crc32, seed_chains_partial_updates_at_any_split) {
  rng gen(0x5EED);
  for (int round = 0; round < 200; ++round) {
    std::string bytes(gen.below(300), '\0');
    for (char& c : bytes) c = static_cast<char>(gen.below(256));
    const std::size_t cut = bytes.empty() ? 0 : gen.below(bytes.size() + 1);
    const std::string_view all(bytes);
    const std::uint32_t whole = support::crc32(all);
    EXPECT_EQ(support::crc32(all.substr(cut),
                             support::crc32(all.substr(0, cut))),
              whole)
        << "size " << bytes.size() << " cut " << cut;
    EXPECT_EQ(whole, crc32_bytewise(all));
  }
}

TEST(token_reader, splits_on_c_locale_whitespace) {
  support::token_reader r(" \tgate\vand\f 3\r\n12  ");
  EXPECT_EQ(r.next(), "gate");
  EXPECT_EQ(r.next(), "and");
  EXPECT_FALSE(r.at_end());
  std::uint32_t a = 0, b = 0;
  EXPECT_TRUE(r >> a >> b);
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 12u);
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(r.next(), "");
  std::string missing = "kept";
  EXPECT_FALSE(r >> missing);  // exhausted line fails like a stream
  EXPECT_EQ(missing, "kept");
}

/// One extraction of a T from `token`; nullopt when the reader fails.
template <typename T>
std::optional<T> read_one(std::string_view token) {
  support::token_reader r(token);
  T value{};
  if (!(r >> value)) return std::nullopt;
  return value;
}

TEST(token_reader, integers_are_whole_decimal_tokens) {
  EXPECT_EQ(read_one<std::size_t>("0"), 0u);
  EXPECT_EQ(read_one<std::size_t>("007"), 7u);
  EXPECT_EQ(read_one<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(read_one<std::uint64_t>("18446744073709551616"), std::nullopt);
  EXPECT_EQ(read_one<unsigned>("4294967296"), std::nullopt);
  // Unsigned fields take no sign at all: "-1" used to wrap to 2^64 - 1.
  EXPECT_EQ(read_one<std::size_t>("-1"), std::nullopt);
  EXPECT_EQ(read_one<std::size_t>("+1"), std::nullopt);
  EXPECT_EQ(read_one<std::size_t>("-0"), std::nullopt);
  // Signed fields take a leading '-', never '+'.
  EXPECT_EQ(read_one<int>("-1"), -1);
  EXPECT_EQ(read_one<std::int64_t>("-9223372036854775808"),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(read_one<int>("+1"), std::nullopt);
  EXPECT_EQ(read_one<int>("2147483648"), std::nullopt);
  // The whole token: no glued suffix, no hex, no decimal point.
  for (const char* bad : {"12abc", "0x10", "1.0", "1e3", "1-2", "-", ""}) {
    EXPECT_EQ(read_one<std::size_t>(bad), std::nullopt) << bad;
    EXPECT_EQ(read_one<int>(bad), std::nullopt) << bad;
  }
}

TEST(token_reader, doubles_are_finite_decimal_tokens) {
  EXPECT_EQ(read_one<double>("0.1"), 0.1);
  EXPECT_EQ(read_one<double>("+2.5"), 2.5);
  EXPECT_EQ(read_one<double>("-.5"), -0.5);
  EXPECT_EQ(read_one<double>("5."), 5.0);
  EXPECT_EQ(read_one<double>("1E3"), 1000.0);
  EXPECT_EQ(read_one<double>("4.9406564584124654e-324"), 5e-324);
  EXPECT_EQ(read_one<double>("1.7976931348623157e+308"),
            std::numeric_limits<double>::max());
  // Underflow rounds the way strtod rounds it (the stream extractor did
  // the same); overflow is not finite and fails.
  EXPECT_EQ(read_one<double>("1e-400"), 0.0);
  EXPECT_EQ(read_one<double>("1e400"), std::nullopt);
  for (const char* bad :
       {"inf", "-inf", "+inf", "nan", "NaN", "infinity", "0x1p3", "0X1P3",
        "1.5abc", "1e", "1e+", ".", "-", "+", "--1", "+-1", "-+1", "++1",
        "1.5.3", "1e5e5", "1,5", ""}) {
    EXPECT_EQ(read_one<double>(bad), std::nullopt) << bad;
  }
  // %.17g never writes more than 24 characters; past kMaxDoubleToken the
  // token is damage even when it is a valid number.
  const std::string longest =
      "0." + std::string(support::token_reader::kMaxDoubleToken - 3, '0') +
      "1";
  ASSERT_EQ(longest.size(), support::token_reader::kMaxDoubleToken);
  EXPECT_TRUE(read_one<double>(longest).has_value());
  EXPECT_EQ(read_one<double>(longest + "0"), std::nullopt);
}

TEST(token_reader, doubles_get_strtods_bits) {
  // A double token reads exactly when strtod reads all of it to a finite
  // value, and to strtod's bits (the stream extractor's routine): %.17g of
  // random finite bit patterns (what the writers emit), the same at random
  // precision, and random decimal strings with long mantissas and
  // exponents past both ends of the range (underflow, overflow, subnormal
  // rounding).  Guards any change of converter.
  rng gen(0xD0B1E);
  char text[96];
  for (int i = 0; i < 300000; ++i) {
    std::uint64_t bits = gen();
    while (((bits >> 52) & 0x7FF) == 0x7FF) bits = gen();  // no inf/nan
    const double value = std::bit_cast<double>(bits);
    switch (i % 3) {
      case 0:
        std::snprintf(text, sizeof text, "%.17g", value);
        break;
      case 1:
        std::snprintf(text, sizeof text, gen.chance(0.5) ? "%.*g" : "%.*e",
                      static_cast<int>(1 + gen.below(30)), value);
        break;
      default: {
        std::string s = gen.chance(0.2) ? "-" : gen.chance(0.1) ? "+" : "";
        const std::uint64_t digits = 1 + gen.below(40);
        const std::uint64_t point = gen.below(digits + 1);
        for (std::uint64_t d = 0; d < digits; ++d) {
          if (d == point) s += '.';
          s += static_cast<char>('0' + gen.below(10));
        }
        if (gen.chance(0.8)) {
          s += 'e' + std::to_string(gen.between(-360, 330));
        }
        std::snprintf(text, sizeof text, "%s", s.c_str());
        break;
      }
    }
    const std::string_view token(text);
    char* end = nullptr;
    const double want = std::strtod(text, &end);
    const bool want_ok =
        end == text + token.size() && std::isfinite(want) &&
        token.size() <= support::token_reader::kMaxDoubleToken;
    const std::optional<double> got = read_one<double>(token);
    ASSERT_EQ(got.has_value(), want_ok) << text;
    if (got) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(*got),
                std::bit_cast<std::uint64_t>(want))
          << text;
    }
  }
}

TEST(token_reader, failure_is_sticky) {
  support::token_reader r("width x 8");
  std::string_view key;
  unsigned width = 3;
  EXPECT_FALSE(r >> key >> width);
  EXPECT_EQ(key, "width");
  EXPECT_EQ(width, 3u);
  unsigned next = 0;
  EXPECT_FALSE(r >> next);  // "8" is never consumed after a failure
  EXPECT_EQ(next, 0u);
}

TEST(hex, lowercase_fixed_width_round_trip) {
  EXPECT_EQ(support::hex16(0x1f2e3d4c5b6a7988ULL), "1f2e3d4c5b6a7988");
  EXPECT_EQ(support::hex16(0), "0000000000000000");
  EXPECT_EQ(support::hex8(0xCBF43926u), "cbf43926");
  EXPECT_EQ(support::hex8(7), "00000007");
  EXPECT_EQ(support::parse_hex("1f2e3d4c5b6a7988"), 0x1f2e3d4c5b6a7988ULL);
  EXPECT_EQ(support::parse_hex("ffffffffffffffff"), ~std::uint64_t{0});
  EXPECT_EQ(support::parse_hex("7"), 7u);
  for (const char* bad : {"", "ABCD", "0x12", "-1", "+1", " 1", "1 ", "g",
                          "11111111111111111"}) {
    EXPECT_FALSE(support::parse_hex(bad).has_value()) << bad;
  }
  EXPECT_EQ(support::parse_crc("cbf43926"), 0xCBF43926u);
  for (const char* bad : {"cbf4392", "0cbf43926", "CBF43926", "cbf4392 "}) {
    EXPECT_FALSE(support::parse_crc(bad).has_value()) << bad;
  }
}

TEST(journal, line_round_trips_and_rejects_any_other_suffix) {
  namespace journal = support::journal;
  EXPECT_EQ(journal::encode("serve v1"),
            "serve v1 crc " + support::hex8(support::crc32("serve v1")) + "\n");
  for (const std::string body : {"", "done", "put a b c crc d"}) {
    const std::string line = journal::encode(body);
    const std::string_view framed(line.data(), line.size() - 1);
    EXPECT_EQ(journal::decode(framed), std::string_view(body));
  }
  const std::string line = journal::encode("spawn 0 1");
  const std::string_view framed(line.data(), line.size() - 1);
  EXPECT_FALSE(journal::decode(line).has_value());  // the '\n' is not body
  EXPECT_FALSE(journal::decode(std::string(framed) + "\r").has_value());
  EXPECT_FALSE(journal::decode(framed.substr(1)).has_value());
  EXPECT_FALSE(
      journal::decode(framed.substr(0, framed.size() - 1)).has_value());
  EXPECT_EQ(journal::decode("123456789 crc cbf43926"), "123456789");
  EXPECT_FALSE(journal::decode("123456789 crc CBF43926").has_value());
  EXPECT_FALSE(journal::decode("123456789  crc cbf43926").has_value());
}

TEST(journal, replay_checks_the_header_and_salvages_damaged_lines) {
  namespace journal = support::journal;
  const std::string header = journal::encode("hdr v1 key 01");
  const std::string a = journal::encode("rec a");
  const std::string b = journal::encode("rec b");
  std::string damaged = journal::encode("rec x");
  damaged[1] ^= 0x20;
  const auto bodies_of = [](std::string_view bytes, std::string_view hdr) {
    std::vector<std::string> bodies;
    const auto r = journal::replay(bytes, hdr, [&](std::string_view body) {
      bodies.emplace_back(body);
    });
    return std::make_pair(r, bodies);
  };

  const std::string text = header + a + damaged + "\n" + b + "rec c cr";
  const auto [r, bodies] = bodies_of(text, "hdr v1 key 01");
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(bodies, (std::vector<std::string>{"rec a", "rec b"}));
  EXPECT_TRUE(r->damaged);  // the flipped line; the empty line is not damage
  EXPECT_EQ(r->end, text.size() - 8);  // the torn tail stays unread
  EXPECT_EQ(r->last_line, r->end - b.size());

  // Header alone: it is the last complete line.
  const auto only = bodies_of(header, "hdr v1 key 01").first;
  ASSERT_TRUE(only.has_value());
  EXPECT_EQ(only->end, header.size());
  EXPECT_EQ(only->last_line, 0u);
  EXPECT_FALSE(only->damaged);

  // The header is compared byte for byte: another key, a CRLF header, a
  // damaged or missing header are all foreign journals.
  EXPECT_FALSE(bodies_of(text, "hdr v1 key 02").first.has_value());
  std::string crlf = header;
  crlf.insert(crlf.size() - 1, "\r");
  EXPECT_FALSE(bodies_of(crlf + a, "hdr v1 key 01").first.has_value());
  EXPECT_FALSE(bodies_of(damaged + a, "rec x").first.has_value());
  EXPECT_FALSE(bodies_of(a + header, "hdr v1 key 01").first.has_value());
  EXPECT_FALSE(bodies_of("", "hdr v1 key 01").first.has_value());

  // scan() from the middle: nothing new reports no last line.
  const auto rest = journal::scan(text, text.size() - 8, [](auto) {
    ADD_FAILURE() << "a torn tail is not a record";
  });
  EXPECT_EQ(rest.end, text.size() - 8);
  EXPECT_EQ(rest.last_line, std::string_view::npos);
}

TEST(journal, a_record_appended_after_a_torn_tail_replays) {
  namespace journal = support::journal;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("axc-journal-test-" + std::to_string(::getpid())))
          .string();
  std::filesystem::remove(path);
  ASSERT_TRUE(journal::append(path, "rec 1"));  // created on first append
  {
    // A power loss mid-append: half a record, no newline.
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("rec 2 crc 1234", f);
    std::fclose(f);
  }
  ASSERT_TRUE(journal::append(path, "rec 3"));
  ASSERT_TRUE(journal::append(path, "rec 4"));
  const std::string bytes = journal::load(path);
  EXPECT_EQ(bytes, journal::encode("rec 1") + "rec 2 crc 1234\n" +
                       journal::encode("rec 3") + journal::encode("rec 4"));
  std::vector<std::string> bodies;
  const auto r = journal::scan(bytes, 0, [&](std::string_view body) {
    bodies.emplace_back(body);
  });
  EXPECT_EQ(bodies, (std::vector<std::string>{"rec 1", "rec 3", "rec 4"}));
  EXPECT_TRUE(r.damaged);
  EXPECT_EQ(r.end, bytes.size());
  std::filesystem::remove(path);
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
