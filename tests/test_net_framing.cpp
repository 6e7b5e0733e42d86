// Wire-framing hardening for support/net.h — the serialize-suite treatment
// applied to the serving protocol's frames: every prefix truncation, every
// single-bit flip, bogus lengths and CRC mismatches must be *detected*
// (never crash, never hang, never hand back damaged payload bytes), both
// through the pure decode_frame() core and through read_frame() off a real
// socketpair.  The accept loop's resilience to hostile clients rests on
// exactly these properties.  Also: every socket is close-on-exec, so a
// worker the daemon spawns never inherits its listener or connections.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "support/checksum.h"
#include "support/net.h"
#include "support/subprocess.h"

#if AXC_HAS_NET
#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace axc::support::net {
namespace {

constexpr std::size_t kMax = 1u << 20;

std::string sample_frame() {
  // Binary-hostile payload: NULs, newlines, high bytes.
  return encode_frame(std::string("fro\0nt\nbytes\xff\x80", 14));
}

/// Patches the length field and re-fixes the header CRC, so the length is
/// the ONLY lie in the header (isolates the oversized/truncated checks
/// from the header-CRC check).
std::string with_length(std::string frame, std::uint32_t length) {
  for (int i = 0; i < 4; ++i) {
    frame[4 + i] = static_cast<char>((length >> (8 * i)) & 0xFFu);
  }
  const std::uint32_t header_crc =
      crc32(std::string_view(frame.data(), 12));
  for (int i = 0; i < 4; ++i) {
    frame[12 + i] = static_cast<char>((header_crc >> (8 * i)) & 0xFFu);
  }
  return frame;
}

TEST(net_framing, round_trips_payloads_exactly) {
  for (const std::string payload :
       {std::string(), std::string("x"), std::string("front bytes"),
        std::string("\0\n\xff binary \r\n", 13), std::string(70000, 'z')}) {
    const std::string frame = encode_frame(payload);
    ASSERT_EQ(frame.size(), kFrameHeaderBytes + payload.size());
    frame_error error = frame_error::io;
    const auto decoded = decode_frame(frame, kMax, &error);
    ASSERT_TRUE(decoded.has_value()) << payload.size();
    EXPECT_EQ(error, frame_error::none);
    EXPECT_EQ(*decoded, payload);
  }
}

TEST(net_framing, every_prefix_truncation_is_detected) {
  const std::string frame = sample_frame();
  for (std::size_t n = 0; n < frame.size(); ++n) {
    frame_error error = frame_error::none;
    const auto decoded = decode_frame(frame.substr(0, n), kMax, &error);
    EXPECT_FALSE(decoded.has_value()) << "prefix " << n;
    if (n == 0) {
      EXPECT_EQ(error, frame_error::closed);
    } else if (n < 4) {
      EXPECT_EQ(error, frame_error::truncated) << "prefix " << n;
    } else {
      // Past the magic the cut lands mid-header or mid-payload.
      EXPECT_NE(error, frame_error::none) << "prefix " << n;
    }
  }
}

TEST(net_framing, every_single_bit_flip_is_detected) {
  // CRC32 detects all single-bit errors, so no flipped frame may decode —
  // in the magic (bad_magic), the framing fields (bad_header), or the
  // payload (bad_crc).
  const std::string frame = sample_frame();
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = frame;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      frame_error error = frame_error::none;
      EXPECT_FALSE(decode_frame(mutated, kMax, &error).has_value())
          << "byte " << byte << " bit " << bit;
      EXPECT_NE(error, frame_error::none) << "byte " << byte;
    }
  }
}

TEST(net_framing, bogus_length_rejects_before_allocation) {
  // A hostile 4 GiB length with an internally consistent header must be
  // rejected by the caller's cap, not trusted into an allocation.
  const std::string frame = with_length(sample_frame(), 0xFFFFFFFFu);
  frame_error error = frame_error::none;
  EXPECT_FALSE(decode_frame(frame, kMax, &error).has_value());
  EXPECT_EQ(error, frame_error::oversized);

  // In-cap but longer than the bytes that follow: truncated, not served.
  const std::string stretched = with_length(sample_frame(), 1000);
  error = frame_error::none;
  EXPECT_FALSE(decode_frame(stretched, kMax, &error).has_value());
  EXPECT_EQ(error, frame_error::truncated);

  // Shorter than the real payload: the CRC no longer matches the shorter
  // slice (trailing bytes are garbage either way).
  const std::string shortened = with_length(sample_frame(), 3);
  error = frame_error::none;
  EXPECT_FALSE(decode_frame(shortened, kMax, &error).has_value());
  EXPECT_EQ(error, frame_error::bad_crc);
}

TEST(net_framing, payload_crc_mismatch_is_bad_crc) {
  std::string frame = sample_frame();
  frame[kFrameHeaderBytes + 2] =
      static_cast<char>(frame[kFrameHeaderBytes + 2] ^ 0x10);
  frame_error error = frame_error::none;
  EXPECT_FALSE(decode_frame(frame, kMax, &error).has_value());
  EXPECT_EQ(error, frame_error::bad_crc);
}

TEST(net_framing, foreign_magic_is_bad_magic) {
  std::string frame = sample_frame();
  std::memcpy(frame.data(), "HTTP", 4);
  frame_error error = frame_error::none;
  EXPECT_FALSE(decode_frame(frame, kMax, &error).has_value());
  EXPECT_EQ(error, frame_error::bad_magic);
}

#if AXC_HAS_NET

struct socket_pair {
  int fd[2]{-1, -1};
  socket_pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fd), 0); }
  ~socket_pair() {
    close_writer();
    if (fd[1] >= 0) ::close(fd[1]);
  }
  void close_writer() {
    if (fd[0] >= 0) ::close(fd[0]);
    fd[0] = -1;
  }
};

TEST(net_framing, socket_round_trips_back_to_back_frames) {
  socket_pair sp;
  ASSERT_TRUE(write_frame(sp.fd[0], "first"));
  ASSERT_TRUE(write_frame(sp.fd[0], std::string("sec\0ond", 7)));
  frame_error error = frame_error::none;
  auto a = read_frame(sp.fd[1], kMax, &error);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(*a, "first");
  auto b = read_frame(sp.fd[1], kMax, &error);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, std::string("sec\0ond", 7));
  sp.close_writer();
  EXPECT_FALSE(read_frame(sp.fd[1], kMax, &error).has_value());
  EXPECT_EQ(error, frame_error::closed);
}

TEST(net_framing, socket_survives_every_truncation_point) {
  // The peer hangs up mid-frame at every possible byte: read_frame must
  // return promptly (the writer end is closed, so no blocking read can
  // hang) and never fabricate a payload.
  const std::string frame = sample_frame();
  for (std::size_t n = 0; n < frame.size(); ++n) {
    socket_pair sp;
    ASSERT_TRUE(write_all(sp.fd[0], std::string_view(frame).substr(0, n)));
    sp.close_writer();
    frame_error error = frame_error::none;
    EXPECT_FALSE(read_frame(sp.fd[1], kMax, &error).has_value())
        << "cut at " << n;
    EXPECT_NE(error, frame_error::none);
  }
}

TEST(net_framing, socket_rejects_bit_flipped_frames) {
  const std::string frame = sample_frame();
  for (std::size_t byte = 0; byte < frame.size(); ++byte) {
    socket_pair sp;
    std::string mutated = frame;
    mutated[byte] = static_cast<char>(mutated[byte] ^ 0x04);
    ASSERT_TRUE(write_all(sp.fd[0], mutated));
    sp.close_writer();
    frame_error error = frame_error::none;
    EXPECT_FALSE(read_frame(sp.fd[1], kMax, &error).has_value())
        << "byte " << byte;
  }
}

TEST(net_framing, socket_rejects_oversized_before_reading_payload) {
  // Only the 16 header bytes arrive; the declared 4 GiB payload never
  // will.  read_frame must reject on the header alone — blocking for the
  // payload would wedge a handler thread forever.
  socket_pair sp;
  const std::string header =
      with_length(sample_frame(), 0xFFFFFFF0u).substr(0, kFrameHeaderBytes);
  ASSERT_TRUE(write_all(sp.fd[0], header));
  frame_error error = frame_error::none;
  EXPECT_FALSE(read_frame(sp.fd[1], kMax, &error).has_value());
  EXPECT_EQ(error, frame_error::oversized);
}

TEST(net_framing, garbage_then_valid_frame_on_fresh_connection) {
  // A poisoned stream is dropped, but the protocol recovers on a fresh
  // connection — the property the server's accept loop builds on.
  {
    socket_pair sp;
    ASSERT_TRUE(write_all(sp.fd[0], "GET / HTTP/1.1\r\n\r\n"));
    sp.close_writer();
    frame_error error = frame_error::none;
    EXPECT_FALSE(read_frame(sp.fd[1], kMax, &error).has_value());
    EXPECT_EQ(error, frame_error::bad_magic);
  }
  socket_pair fresh;
  ASSERT_TRUE(write_frame(fresh.fd[0], "still serving"));
  const auto decoded = read_frame(fresh.fd[1], kMax);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, "still serving");
}

bool close_on_exec(int fd) {
  const int flags = ::fcntl(fd, F_GETFD);
  return flags >= 0 && (flags & FD_CLOEXEC) != 0;
}

/// "socket:[<inode>]" — how /proc names the socket behind an fd.
std::string proc_fd_target(int fd) {
  std::error_code ec;
  return std::filesystem::read_symlink(
             "/proc/self/fd/" + std::to_string(fd), ec)
      .string();
}

TEST(net_framing, sockets_are_close_on_exec_and_never_reach_children) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("axc-net-cloexec-" + std::to_string(::getpid()));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  auto listener = unix_listener::listen_at((dir / "sock").string());
  ASSERT_TRUE(listener.has_value());
  auto client = unix_stream::connect((dir / "sock").string());
  ASSERT_TRUE(client.has_value());
  auto accepted = listener->accept();
  ASSERT_TRUE(accepted.has_value());
  EXPECT_TRUE(close_on_exec(listener->fd()));
  EXPECT_TRUE(close_on_exec(client->fd()));
  EXPECT_TRUE(close_on_exec(accepted->fd()));

  if (!fs::exists("/proc/self/fd")) GTEST_SKIP() << "no /proc/self/fd";
  const std::vector<std::string> ours = {proc_fd_target(listener->fd()),
                                         proc_fd_target(client->fd()),
                                         proc_fd_target(accepted->fd())};
  // A child spawned while all three are open lists every fd it holds.
  const std::string listing = (dir / "child-fds").string();
  auto child = subprocess::spawn(
      {"/bin/sh", "-c",
       // `|| :` — the glob's own directory fd is gone by the time it is
       // read back.
       "for f in /proc/$$/fd/*; do readlink \"$f\" || :; done > " + listing});
  ASSERT_TRUE(child.has_value());
  const auto status = child->wait();
  ASSERT_TRUE(status.has_value() && status->success());
  for (const std::string& target : ours) {
    ASSERT_EQ(target.rfind("socket:", 0), 0u) << target;
  }
  // The child may hold only sockets this test process was itself handed
  // without close-on-exec by whoever launched it — none of ours.
  std::vector<std::string> inherited;
  for (const auto& entry : fs::directory_iterator("/proc/self/fd", ec)) {
    const int fd = std::stoi(entry.path().filename().string());
    const std::string target = proc_fd_target(fd);
    if (target.rfind("socket:", 0) == 0 && !close_on_exec(fd)) {
      inherited.push_back(target);
    }
  }
  std::ifstream is(listing);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    ++lines;
    if (line.rfind("socket:", 0) != 0) continue;
    EXPECT_NE(std::find(inherited.begin(), inherited.end(), line),
              inherited.end())
        << "child holds socket " << line;
  }
  EXPECT_GT(lines, 0u);
  fs::remove_all(dir, ec);
}

#endif  // AXC_HAS_NET

}  // namespace
}  // namespace axc::support::net
