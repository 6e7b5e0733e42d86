// Unix-domain stream sockets + CRC-framed length-prefixed messaging for
// the result-serving daemon.
//
// core::result_server answers "spec -> front" requests over a local
// socket; this header wraps the POSIX surface it needs — socket/bind/
// listen/accept/connect with EINTR-safe blocking reads and writes — and
// the one wire format every message uses:
//
//   frame := header(16 bytes) payload
//   header := magic(4, "AXF1") length(4, LE) payload-crc32(4, LE)
//             header-crc32(4, LE, over the first 12 bytes)
//
// The header carries its own CRC32 so a desynchronized, truncated or
// bit-flipped stream is *detected* before a single payload byte is
// trusted; the payload CRC catches damage inside the body.  Lengths are
// capped by the caller (an attacker-supplied 4 GB length must reject
// without allocating), and every read distinguishes "peer closed" from
// "malformed bytes" so servers can drop bad clients without wedging the
// accept loop — the contract tests/test_net_framing.cpp sweeps with
// truncations, bit flips, bogus lengths and CRC mismatches.
//
// Every socket is created close-on-exec (SOCK_CLOEXEC, accept4): the
// daemon spawns worker processes, and a worker that inherited the
// listener or a client connection would keep them alive past the
// daemon's death — clients would connect to a socket nobody accepts.
//
// Like support/subprocess.h, non-POSIX builds compile but every entry
// point reports failure (AXC_HAS_NET == 0) and callers degrade.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>

#include "support/checksum.h"

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>
#define AXC_HAS_NET 1
#else
#define AXC_HAS_NET 0
#endif

namespace axc::support::net {

inline constexpr std::string_view kFrameMagic = "AXF1";
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// Why a frame read returned no payload.  `closed` is the orderly case (a
/// peer hanging up between requests); everything else is damage or abuse.
enum class frame_error : std::uint8_t {
  none,
  closed,     ///< clean EOF before any header byte
  truncated,  ///< EOF mid-header or mid-payload
  bad_magic,  ///< stream out of sync / not speaking this protocol
  bad_header, ///< header CRC mismatch (bit flip in the framing itself)
  oversized,  ///< declared length exceeds the caller's cap
  bad_crc,    ///< payload bytes fail their CRC
  io,         ///< read/write syscall failure (incl. a receive timeout)
};

namespace detail {

inline void put_u32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFFu));
  out.push_back(static_cast<char>((v >> 8) & 0xFFu));
  out.push_back(static_cast<char>((v >> 16) & 0xFFu));
  out.push_back(static_cast<char>((v >> 24) & 0xFFu));
}

[[nodiscard]] inline std::uint32_t get_u32(const char* p) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(p[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(p[3])) << 24;
}

}  // namespace detail

/// One frame's exact wire bytes.  Kept separate from the fd path so the
/// hardening tests can mutate encoded bytes before they touch a socket.
[[nodiscard]] inline std::string encode_frame(std::string_view payload) {
  std::string out;
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(kFrameMagic);
  detail::put_u32(out, static_cast<std::uint32_t>(payload.size()));
  detail::put_u32(out, crc32(payload));
  detail::put_u32(out, crc32(std::string_view(out.data(), 12)));
  out.append(payload.data(), payload.size());
  return out;
}

/// Validates and strips the framing from exact in-memory frame bytes (the
/// pure-function core of read_frame, shared with its tests).
[[nodiscard]] inline std::optional<std::string> decode_frame(
    std::string_view bytes, std::size_t max_payload,
    frame_error* error = nullptr) {
  const auto fail = [error](frame_error e) -> std::optional<std::string> {
    if (error) *error = e;
    return std::nullopt;
  };
  if (bytes.empty()) return fail(frame_error::closed);
  if (bytes.size() < kFrameHeaderBytes) return fail(frame_error::truncated);
  if (bytes.substr(0, 4) != kFrameMagic) return fail(frame_error::bad_magic);
  if (detail::get_u32(bytes.data() + 12) !=
      crc32(bytes.substr(0, 12))) {
    return fail(frame_error::bad_header);
  }
  const std::uint32_t length = detail::get_u32(bytes.data() + 4);
  if (length > max_payload) return fail(frame_error::oversized);
  if (bytes.size() < kFrameHeaderBytes + length) {
    return fail(frame_error::truncated);
  }
  const std::string_view payload = bytes.substr(kFrameHeaderBytes, length);
  if (detail::get_u32(bytes.data() + 8) != crc32(payload)) {
    return fail(frame_error::bad_crc);
  }
  if (error) *error = frame_error::none;
  return std::string(payload);
}

#if AXC_HAS_NET

/// Blocking read of exactly `n` bytes, retrying short reads and EINTR.
/// Returns the byte count delivered before EOF/error (== n on success);
/// `eof` (optional) distinguishes a clean close from a syscall failure.
[[nodiscard]] inline std::size_t read_exact(int fd, char* buf, std::size_t n,
                                            bool* eof = nullptr) {
  if (eof) *eof = false;
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, buf + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      if (eof) *eof = true;
      break;
    }
    if (errno == EINTR) continue;
    break;
  }
  return got;
}

/// Blocking write of all of `bytes`, retrying short writes and EINTR.
[[nodiscard]] inline bool write_all(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t r = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

[[nodiscard]] inline bool write_frame(int fd, std::string_view payload) {
  return write_all(fd, encode_frame(payload));
}

/// Reads one frame off `fd`.  Header first (so a bogus length is rejected
/// before any payload allocation), then exactly the declared payload.
/// nullopt with the reason in `error`; the stream is unusable after any
/// error except `closed` (framing offers no resync point — drop the
/// connection, which is what result_server does).
[[nodiscard]] inline std::optional<std::string> read_frame(
    int fd, std::size_t max_payload, frame_error* error = nullptr) {
  const auto fail = [error](frame_error e) -> std::optional<std::string> {
    if (error) *error = e;
    return std::nullopt;
  };
  char header[kFrameHeaderBytes];
  bool eof = false;
  const std::size_t got = read_exact(fd, header, sizeof header, &eof);
  if (got == 0 && eof) return fail(frame_error::closed);
  if (got < sizeof header) {
    return fail(eof ? frame_error::truncated : frame_error::io);
  }
  if (std::string_view(header, 4) != kFrameMagic) {
    return fail(frame_error::bad_magic);
  }
  if (detail::get_u32(header + 12) != crc32(std::string_view(header, 12))) {
    return fail(frame_error::bad_header);
  }
  const std::uint32_t length = detail::get_u32(header + 4);
  if (length > max_payload) return fail(frame_error::oversized);
  std::string payload(length, '\0');
  if (read_exact(fd, payload.data(), length, &eof) < length) {
    return fail(eof ? frame_error::truncated : frame_error::io);
  }
  if (detail::get_u32(header + 8) != crc32(payload)) {
    return fail(frame_error::bad_crc);
  }
  if (error) *error = frame_error::none;
  return payload;
}

/// RAII fd for one connected Unix-domain stream (either side).
class unix_stream {
 public:
  unix_stream() = default;
  explicit unix_stream(int fd) : fd_(fd) {}
  unix_stream(unix_stream&& other) noexcept : fd_(other.fd_) {
    other.fd_ = -1;
  }
  unix_stream& operator=(unix_stream&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  unix_stream(const unix_stream&) = delete;
  unix_stream& operator=(const unix_stream&) = delete;
  ~unix_stream() { close(); }

  [[nodiscard]] static std::optional<unix_stream> connect(
      const std::string& path) {
    ::sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path) return std::nullopt;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return std::nullopt;
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int r;
    do {
      r = ::connect(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr);
    } while (r < 0 && errno == EINTR);
    if (r < 0) {
      ::close(fd);
      return std::nullopt;
    }
    return unix_stream(fd);
  }

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Bounds how long a blocking read may wait (a connected-but-silent
  /// client must not pin a handler thread forever); 0 restores "forever".
  [[nodiscard]] bool set_receive_timeout_ms(long ms) {
    ::timeval tv{};
    tv.tv_sec = ms / 1000;
    tv.tv_usec = (ms % 1000) * 1000;
    return ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) == 0;
  }

  [[nodiscard]] bool send(std::string_view payload) const {
    return write_frame(fd_, payload);
  }
  [[nodiscard]] std::optional<std::string> receive(
      std::size_t max_payload, frame_error* error = nullptr) const {
    return read_frame(fd_, max_payload, error);
  }

  void close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_{-1};
};

/// RAII listening socket bound at a filesystem path.  Binding removes a
/// stale socket file first (the daemon owns its path), and the destructor
/// unlinks it so a clean shutdown leaves nothing behind.
class unix_listener {
 public:
  unix_listener() = default;
  unix_listener(unix_listener&& other) noexcept
      : fd_(other.fd_), path_(std::move(other.path_)) {
    other.fd_ = -1;
    other.path_.clear();
  }
  unix_listener& operator=(unix_listener&& other) noexcept {
    if (this != &other) {
      close();
      fd_ = other.fd_;
      path_ = std::move(other.path_);
      other.fd_ = -1;
      other.path_.clear();
    }
    return *this;
  }
  unix_listener(const unix_listener&) = delete;
  unix_listener& operator=(const unix_listener&) = delete;
  ~unix_listener() { close(); }

  [[nodiscard]] static std::optional<unix_listener> listen_at(
      const std::string& path, int backlog = 16) {
    ::sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path) return std::nullopt;
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return std::nullopt;
    ::unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::bind(fd, reinterpret_cast<::sockaddr*>(&addr), sizeof addr) != 0 ||
        ::listen(fd, backlog) != 0) {
      ::close(fd);
      return std::nullopt;
    }
    unix_listener listener;
    listener.fd_ = fd;
    listener.path_ = path;
    return listener;
  }

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] const std::string& path() const { return path_; }

  /// Blocking accept with EINTR retry; nullopt on a real failure (the
  /// accept loop treats that as shutdown).
  [[nodiscard]] std::optional<unix_stream> accept() const {
    int client;
    do {
      client = ::accept4(fd_, nullptr, nullptr, SOCK_CLOEXEC);
    } while (client < 0 && errno == EINTR);
    if (client < 0) return std::nullopt;
    return unix_stream(client);
  }

  void close() {
    if (fd_ >= 0) {
      ::close(fd_);
      ::unlink(path_.c_str());
    }
    fd_ = -1;
    path_.clear();
  }

 private:
  int fd_{-1};
  std::string path_{};
};

#else  // !AXC_HAS_NET: compile-through stubs; every entry point fails.

[[nodiscard]] inline bool write_all(int, std::string_view) { return false; }
[[nodiscard]] inline bool write_frame(int, std::string_view) {
  return false;
}
[[nodiscard]] inline std::optional<std::string> read_frame(
    int, std::size_t, frame_error* error = nullptr) {
  if (error) *error = frame_error::io;
  return std::nullopt;
}

class unix_stream {
 public:
  [[nodiscard]] static std::optional<unix_stream> connect(
      const std::string&) {
    return std::nullopt;
  }
  [[nodiscard]] bool valid() const { return false; }
  [[nodiscard]] int fd() const { return -1; }
  [[nodiscard]] bool set_receive_timeout_ms(long) { return false; }
  [[nodiscard]] bool send(std::string_view) const { return false; }
  [[nodiscard]] std::optional<std::string> receive(
      std::size_t, frame_error* error = nullptr) const {
    if (error) *error = frame_error::io;
    return std::nullopt;
  }
  void close() {}
};

class unix_listener {
 public:
  [[nodiscard]] static std::optional<unix_listener> listen_at(
      const std::string&, int = 16) {
    return std::nullopt;
  }
  [[nodiscard]] bool valid() const { return false; }
  [[nodiscard]] int fd() const { return -1; }
  [[nodiscard]] std::optional<unix_stream> accept() const {
    return std::nullopt;
  }
  void close() {}
};

#endif

}  // namespace axc::support::net
