// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) and FNV-1a 64 over byte
// ranges.
//
// CRC-32 is the integrity check of the "axc-session v2" checkpoint format,
// the result-store framing, the journals and the serving wire frames: a
// torn or bit-flipped record fails its CRC and the salvage path drops
// exactly that record instead of the whole file.  Every served hit pays it
// twice (client encode, server decode) over a ~11 KB request, so it runs
// slicing-by-8: eight compile-time tables (8 KiB) fold eight bytes per
// step, ~5x the bytewise loop, with the same values and the same `seed`
// chaining (tests/test_support.cpp keeps the bytewise loop as its oracle).
// FNV-1a 64 is the *content address* of the result store — wide enough
// that distinct artifacts get distinct object names, and cheap enough to
// hash megabyte checkpoints on every put.  Both functions are
// allocation-free.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace axc::support {

namespace detail {

/// tables[0] is the bytewise table; tables[k][n] is the CRC register
/// after byte n is followed by k zero bytes, so eight table lookups fold
/// eight input bytes at once.
consteval std::array<std::array<std::uint32_t, 256>, 8> make_crc32_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    tables[0][n] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t n = 0; n < 256; ++n) {
      const std::uint32_t c = tables[k - 1][n];
      tables[k][n] = tables[0][c & 0xFFu] ^ (c >> 8);
    }
  }
  return tables;
}

inline constexpr std::array<std::array<std::uint32_t, 256>, 8> crc32_tables =
    make_crc32_tables();

/// Little-endian 32-bit load from any alignment (one mov on x86-64).
[[nodiscard]] inline std::uint32_t load_le32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// One-shot CRC-32 of a byte range.  `seed` chains partial updates:
/// crc32(ab) == crc32(b, crc32(a)).
[[nodiscard]] inline std::uint32_t crc32(std::string_view bytes,
                                         std::uint32_t seed = 0) {
  const auto& t = detail::crc32_tables;
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  std::size_t n = bytes.size();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, p += 8) {
    const std::uint32_t lo = detail::load_le32(p) ^ c;
    const std::uint32_t hi = detail::load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

/// FNV-1a 64-bit hash of a byte range.  `seed` chains partial updates the
/// same way crc32's does (pass a previous result to continue hashing).
[[nodiscard]] inline std::uint64_t fnv1a64(
    std::string_view bytes, std::uint64_t seed = 0xcbf29ce484222325ULL) {
  std::uint64_t h = seed;
  for (const char ch : bytes) {
    h ^= static_cast<unsigned char>(ch);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace axc::support
