// Whitespace-split token reader over one line of text.
//
// The line-oriented text formats (netlists, sweep specs, the serving
// protocol) read each line as whitespace-separated tokens.  token_reader
// does that over a string_view with no allocation and no stream object, so
// a served hit's ~11 KB request parses without ~340 stream constructions.
//
// Extraction mirrors stream syntax (`r >> key >> value`, `if (!r)`), and a
// failure is sticky, but each value must be exactly one whole token:
//
//   * integers go through std::from_chars in base 10: unsigned fields take
//     digits only (no sign), signed fields an optional leading '-', never
//     '+'; out-of-range values fail;
//   * doubles are `[+-]digits[.digits][(e|E)[+-]digits]` (either digit run
//     before the exponent may be empty, not both), at most
//     kMaxDoubleToken characters, and finite; inf, nan and hex floats
//     fail.  strtod converts them, on a NUL-terminated stack copy: it is
//     the routine the stream extractor called, so a token gets the bits
//     it always got, and underflow still reads as 0.  (std::from_chars is
//     ~3x faster but grows every spec reader's peak RSS; see "Token
//     grammar" in src/core/README.md.)  strtod reads the C locale's '.'
//     (nothing here calls setlocale); under another decimal point the
//     whole-token check fails, it never misreads;
//   * strings take the token as is.
//
// Whitespace is the C locale's isspace set: ' ', \t, \n, \v, \f, \r.
#pragma once

#include <charconv>
#include <cmath>
#include <concepts>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>

namespace axc::support {

class token_reader {
 public:
  /// Longest accepted double token; %.17g never writes more than 24.
  static constexpr std::size_t kMaxDoubleToken = 63;

  explicit token_reader(std::string_view line) noexcept : rest_(line) {}

  /// Next token, or an empty view when the line holds no more.
  [[nodiscard]] std::string_view next() noexcept {
    std::size_t begin = 0;
    while (begin < rest_.size() && is_space(rest_[begin])) ++begin;
    std::size_t end = begin;
    while (end < rest_.size() && !is_space(rest_[end])) ++end;
    const std::string_view token = rest_.substr(begin, end - begin);
    rest_.remove_prefix(end);
    return token;
  }

  /// True when only whitespace remains.
  [[nodiscard]] bool at_end() const noexcept {
    for (const char c : rest_) {
      if (!is_space(c)) return false;
    }
    return true;
  }

  explicit operator bool() const noexcept { return ok_; }

  token_reader& operator>>(std::string_view& out) noexcept {
    const std::string_view token = take();
    if (!token.empty()) out = token;
    return *this;
  }

  token_reader& operator>>(std::string& out) {
    const std::string_view token = take();
    if (!token.empty()) out.assign(token);
    return *this;
  }

  template <std::integral T>
    requires(!std::same_as<T, bool>)
  token_reader& operator>>(T& out) noexcept {
    const std::string_view token = take();
    if (token.empty()) return *this;
    T value{};
    const auto [end, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc{} || end != token.data() + token.size()) {
      ok_ = false;
    } else {
      out = value;
    }
    return *this;
  }

  token_reader& operator>>(double& out) noexcept {
    const std::string_view token = take();
    if (token.empty()) return *this;
    // strtod also reads hex floats; the grammar is decimal only.
    const std::size_t sign = token[0] == '+' || token[0] == '-' ? 1 : 0;
    if (token.size() > kMaxDoubleToken ||
        (token.size() > sign + 1 && token[sign] == '0' &&
         (token[sign + 1] == 'x' || token[sign + 1] == 'X'))) {
      ok_ = false;
      return *this;
    }
    char buf[kMaxDoubleToken + 1];
    std::memcpy(buf, token.data(), token.size());
    buf[token.size()] = '\0';
    char* end = nullptr;
    const double value = std::strtod(buf, &end);
    // Non-finite covers "inf", "nan" and overflow, which strtod reads.
    if (end != buf + token.size() || !std::isfinite(value)) {
      ok_ = false;
    } else {
      out = value;
    }
    return *this;
  }

 private:
  static constexpr bool is_space(char c) noexcept {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  /// Next token for an extraction; empty (and the reader failed) when
  /// the reader already failed or the line is exhausted.
  std::string_view take() noexcept {
    if (!ok_) return {};
    const std::string_view token = next();
    if (token.empty()) ok_ = false;
    return token;
  }

  std::string_view rest_;
  bool ok_{true};
};

}  // namespace axc::support
