// Durable file I/O: the one atomic-replace path every on-disk artifact
// shares.
//
// Both the session checkpoints (core/search_session) and the result store
// (core/result_store) promise the same thing: a crash at any instant leaves
// either the previous good file or the new one at the destination path,
// never a half-written hybrid, and a successful return means the bytes are
// on stable storage.  That takes four steps, in order:
//
//   1. write `<path>.tmp` and flush it to the kernel;
//   2. fsync the tmp file (page-cache ghost -> stable storage);
//   3. rename over `path` (POSIX-atomic replace);
//   4. fsync the *parent directory* — the rename itself is a directory
//      mutation, and without this step a power loss can roll the directory
//      back to the old entry (or to no entry at all) even though the file
//      data was synced.
//
// Deterministic fault injection (support/fault.h) hooks each step so the
// crash-recovery tests can replay transient failures and torn writes:
// callers name their own points via durable_write_faults, keeping hit
// counters per subsystem (session saves vs store puts) instead of tangling
// them in one shared counter.
#pragma once

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <system_error>

#if defined(__unix__) || defined(__APPLE__)
#include <cerrno>
#include <fcntl.h>
#include <unistd.h>
#endif

#include "support/fault.h"

namespace axc::support {

/// Owning, move-only file descriptor (closed on destruction).
class unique_fd {
 public:
  unique_fd() = default;
  explicit unique_fd(int fd) : fd_(fd < 0 ? -1 : fd) {}
  unique_fd(unique_fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  unique_fd& operator=(unique_fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  unique_fd(const unique_fd&) = delete;
  unique_fd& operator=(const unique_fd&) = delete;
  ~unique_fd() { reset(); }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset() {
#if defined(__unix__) || defined(__APPLE__)
    if (fd_ >= 0) ::close(fd_);
#endif
    fd_ = -1;
  }

 private:
  int fd_{-1};
};

#if defined(__unix__) || defined(__APPLE__)

namespace detail {

/// fsync with EINTR retry (fsync is interruptible on some filesystems).
inline bool fsync_fd(int fd) {
  while (::fsync(fd) != 0) {
    if (errno != EINTR) return false;
  }
  return true;
}

}  // namespace detail

/// fsyncs an existing file by path.  True on success.
[[nodiscard]] inline bool fsync_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = detail::fsync_fd(fd);
  ::close(fd);
  return ok;
}

/// fsyncs the directory containing `path`, making a rename into that
/// directory durable across power loss.  True on success.
[[nodiscard]] inline bool fsync_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = detail::fsync_fd(fd);
  ::close(fd);
  return ok;
}

/// Opens `path` read-only and close-on-exec; invalid when it can't.
[[nodiscard]] inline unique_fd open_read(const std::string& path) {
  return unique_fd(::open(path.c_str(), O_RDONLY | O_CLOEXEC));
}

/// Appends everything from byte `offset` to end of file onto `out`
/// (pread, so the descriptor's own position is untouched).  False on a
/// read error.
[[nodiscard]] inline bool read_to_end(int fd, std::uint64_t offset,
                                      std::string& out) {
  char buf[1 << 16];
  while (true) {
    const ::ssize_t n =
        ::pread(fd, buf, sizeof buf, static_cast<::off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return true;
    out.append(buf, static_cast<std::size_t>(n));
    offset += static_cast<std::uint64_t>(n);
  }
}

#else  // no POSIX fd syscalls: flush-to-kernel is the best available

[[nodiscard]] inline bool fsync_file(const std::string&) { return true; }
[[nodiscard]] inline bool fsync_parent_dir(const std::string&) {
  return true;
}
[[nodiscard]] inline unique_fd open_read(const std::string&) { return {}; }
[[nodiscard]] inline bool read_to_end(int, std::uint64_t, std::string&) {
  return false;
}

#endif

/// Injection points a durable write arms (empty name = point disabled).
/// Semantics, matching the session checkpoint tests that established them:
///   fail      fires before anything is written — a transient failure; the
///             destination file is untouched and the caller may retry;
///   truncate  payload = byte count the tmp file is cut to after writing —
///             a torn write that *survives into the published file* (the
///             readers' salvage paths are what must cope with it);
///   dirsync   the final directory fsync reports failure — the renamed file
///             is in place but its durability is not guaranteed, so the
///             write reports failure and the caller retries.
struct durable_write_faults {
  std::string_view fail{};
  std::string_view truncate{};
  std::string_view dirsync{};
};

/// Atomic, durable replace of `path` with `bytes` (tmp + flush + fsync +
/// rename + parent-dir fsync).  False on any failure; a failed write never
/// disturbs an existing good file at `path` (except the injected torn
/// write, which exists to exercise reader salvage).
[[nodiscard]] inline bool write_file_durable(
    const std::string& path, std::string_view bytes,
    const durable_write_faults& faults = {}) {
  if (!faults.fail.empty() && fault::fire(faults.fail)) return false;
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.flush();
    if (!os) {
      os.close();
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (!faults.truncate.empty()) {
    if (const auto cut = fault::fire(faults.truncate)) {
      std::error_code ec;
      const auto size = std::filesystem::file_size(tmp, ec);
      if (!ec && *cut < size) std::filesystem::resize_file(tmp, *cut, ec);
    }
  }
  if (!fsync_file(tmp)) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  // Rename alone is not durable: the directory entry itself must reach
  // stable storage, or a power loss can resurrect the pre-rename state.
  const bool dir_fault =
      !faults.dirsync.empty() && fault::fire(faults.dirsync).has_value();
  if (dir_fault || !fsync_parent_dir(path)) return false;
  return true;
}

}  // namespace axc::support
