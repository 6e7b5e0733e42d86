// The append-only CRC-line journal: one line format, one durable append,
// one salvage-and-resync replay for every journal the runtime keeps (the
// coordinator's `coordinator.journal`, the server's `server.journal` and
// the result store's `index.axc`).
//
// Grammar.  A journal is a header line followed by records, every line
//
//   <body> crc <8hex>\n
//
// where <8hex> is the CRC-32 of <body> in exactly eight lowercase hex
// digits.  The body is the caller's (a tag and its fields); this module
// never looks inside it.  Replay rules:
//
//   * the first line must be the expected header line byte for byte
//     (callers fold a key into the header body where a journal belongs to
//     one sweep), or the whole journal is foreign and replays as nothing;
//   * a line whose CRC suffix is missing or wrong is damage: it is
//     dropped and the scan resyncs at the next '\n';
//   * a newline-less tail is an append in progress or a torn write, never
//     a record;
//   * '\r' is an ordinary body byte, so a CRLF line fails its CRC.
//
// Torn-tail rule.  append() writes the whole line in one write(2) and
// fsyncs that descriptor.  When the file does not end in '\n' (a power
// loss or a short write left a fragment), the record starts with '\n':
// the fragment becomes one damaged line of its own and the new record
// stays intact, where gluing it onto the fragment would have lost it.
// The check is one pread of the last byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "support/checksum.h"
#include "support/io.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/stat.h>
#endif

namespace axc::support {

namespace detail {

[[nodiscard]] inline std::string to_hex(std::uint64_t v, int digits) {
  std::string out(static_cast<std::size_t>(digits), '0');
  for (int i = digits - 1; i >= 0; --i, v >>= 4) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[v & 0xFu];
  }
  return out;
}

}  // namespace detail

/// `v` as 16 lowercase hex digits: store keys and content hashes.
[[nodiscard]] inline std::string hex16(std::uint64_t v) {
  return detail::to_hex(v, 16);
}

/// `v` as 8 lowercase hex digits: CRC-32 values.
[[nodiscard]] inline std::string hex8(std::uint32_t v) {
  return detail::to_hex(v, 8);
}

/// 1 to 16 lowercase hex digits; no sign, no `0x`, no uppercase.
[[nodiscard]] inline std::optional<std::uint64_t> parse_hex(
    std::string_view s) {
  if (s.empty() || s.size() > 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : s) {
    v <<= 4;
    if (c >= '0' && c <= '9') {
      v |= static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      v |= static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return std::nullopt;
    }
  }
  return v;
}

/// Exactly 8 lowercase hex digits, the CRC field of every framed format.
[[nodiscard]] inline std::optional<std::uint32_t> parse_crc(
    std::string_view s) {
  if (s.size() != 8) return std::nullopt;
  const auto v = parse_hex(s);
  if (!v) return std::nullopt;
  return static_cast<std::uint32_t>(*v);
}

namespace journal {

inline constexpr std::string_view kCrcTag = " crc ";
/// Length of the " crc <8hex>" suffix.
inline constexpr std::size_t kSuffix = kCrcTag.size() + 8;

/// `<body> crc <8hex>\n`.
[[nodiscard]] inline std::string encode(std::string_view body) {
  std::string line;
  line.reserve(body.size() + kSuffix + 1);
  line += body;
  line += kCrcTag;
  line += hex8(crc32(body));
  line += '\n';
  return line;
}

/// The body of one line (without its '\n') when its CRC suffix holds.
[[nodiscard]] inline std::optional<std::string_view> decode(
    std::string_view line) {
  if (line.size() < kSuffix) return std::nullopt;
  const std::string_view body = line.substr(0, line.size() - kSuffix);
  if (line.substr(body.size(), kCrcTag.size()) != kCrcTag) return std::nullopt;
  const auto stored = parse_crc(line.substr(line.size() - 8));
  if (!stored || *stored != crc32(body)) return std::nullopt;
  return body;
}

struct scan_result {
  /// Offset just past the last complete line scanned (the scan start when
  /// there was none): everything before it has been consumed.
  std::size_t end{0};
  /// Start of that last complete line; npos when the scan saw none.
  std::size_t last_line{std::string_view::npos};
  /// A non-empty line failed its CRC and was dropped.
  bool damaged{false};
};

/// Hands the body of every CRC-valid complete line of `bytes` from offset
/// `from` on to `on_body`, in order.
template <class OnBody>
scan_result scan(std::string_view bytes, std::size_t from, OnBody&& on_body) {
  scan_result r{.end = from};
  for (std::size_t nl; (nl = bytes.find('\n', r.end)) != bytes.npos;) {
    const std::string_view line = bytes.substr(r.end, nl - r.end);
    if (const auto body = decode(line)) {
      on_body(*body);
    } else if (!line.empty()) {
      r.damaged = true;
    }
    r.last_line = r.end;
    r.end = nl + 1;
  }
  return r;
}

/// Checks the header line, then scans the records behind it; nullopt when
/// `bytes` does not start with encode(header).  The header counts as the
/// last complete line when no record follows it.
template <class OnBody>
std::optional<scan_result> replay(std::string_view bytes,
                                  std::string_view header, OnBody&& on_body) {
  const std::string first = encode(header);
  if (!bytes.starts_with(first)) return std::nullopt;
  scan_result r = scan(bytes, first.size(), on_body);
  if (r.last_line == std::string_view::npos) r.last_line = 0;
  return r;
}

/// The whole file at `path`; empty when it is missing or unreadable,
/// which replays as a foreign journal.
[[nodiscard]] inline std::string load(const std::string& path) {
  std::string bytes;
  const unique_fd fd = open_read(path);
  if (!fd.valid() || !read_to_end(fd.get(), 0, bytes)) bytes.clear();
  return bytes;
}

/// Durable append of one record (created with no header when `path` is
/// missing): one write of the whole line, then fsync of that descriptor.
/// False on any failure; a short write leaves a torn tail, which the next
/// append steps over.
[[nodiscard]] inline bool append(const std::string& path,
                                 std::string_view body) {
#if defined(__unix__) || defined(__APPLE__)
  const unique_fd fd(
      ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0666));
  struct ::stat st {};
  if (!fd.valid() || ::fstat(fd.get(), &st) != 0) return false;
  char last = '\n';
  if (st.st_size > 0 && ::pread(fd.get(), &last, 1, st.st_size - 1) != 1) {
    return false;
  }
  const std::string line = (last == '\n' ? "" : "\n") + encode(body);
  ::ssize_t n = 0;
  do {
    n = ::write(fd.get(), line.data(), line.size());
  } while (n < 0 && errno == EINTR);
  return n == static_cast<::ssize_t>(line.size()) && detail::fsync_fd(fd.get());
#else
  const std::string bytes = load(path);
  std::ofstream os(path, std::ios::binary | std::ios::app);
  if (!bytes.empty() && bytes.back() != '\n') os << '\n';
  os << encode(body);
  os.flush();
  return static_cast<bool>(os);
#endif
}

}  // namespace journal
}  // namespace axc::support
