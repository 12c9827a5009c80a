// Strict, whole-string parsing for CLI flags and spec tokens: numbers and
// enum names.
//
// std::strtoull-style parsing silently turns garbage into 0 ("--count abc"
// runs a zero-scenario soak that exits green); these helpers accept a value
// only when the ENTIRE string is a well-formed number in range (or a name in
// the enum's table), and fail otherwise so callers can fail loudly.
#pragma once

#include <array>
#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

#include "util/assert.hpp"

namespace amac::util {

/// Parses a non-negative decimal integer. The whole string must be digits
/// (no sign, no whitespace, no trailing junk) and fit in 64 bits.
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64(
    std::string_view v) {
  std::uint64_t out = 0;
  const char* end = v.data() + v.size();
  const auto res = std::from_chars(v.data(), end, out);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return out;
}

/// Like parse_u64, but also accepts a 0x/0X-prefixed hexadecimal form
/// (--expect-digest takes the fingerprint exactly as the soak prints it).
[[nodiscard]] inline std::optional<std::uint64_t> parse_u64_any(
    std::string_view v) {
  if (v.size() > 2 && v[0] == '0' && (v[1] == 'x' || v[1] == 'X')) {
    std::uint64_t out = 0;
    const char* end = v.data() + v.size();
    const auto res = std::from_chars(v.data() + 2, end, out, 16);
    if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
    return out;
  }
  return parse_u64(v);
}

/// Parses a finite decimal floating-point value (fixed or scientific
/// form). The whole string must parse, and inf/nan are rejected — a NaN
/// ratio would slide through min/max range checks (every comparison is
/// false) and silently disable whatever the flag controls.
[[nodiscard]] inline std::optional<double> parse_double(std::string_view v) {
  double out = 0.0;
  const char* end = v.data() + v.size();
  const auto res =
      std::from_chars(v.data(), end, out, std::chars_format::general);
  if (res.ec != std::errc{} || res.ptr != end || !std::isfinite(out)) {
    return std::nullopt;
  }
  return out;
}

/// Name tables for small enums (spec tokens, CLI output): `names[i]`
/// spells enum value i. enum_name is the table lookup.
template <typename Enum, std::size_t N>
[[nodiscard]] const char* enum_name(const std::array<const char*, N>& names,
                                    Enum e) {
  AMAC_ASSERT(static_cast<std::size_t>(e) < N);
  return names[static_cast<std::size_t>(e)];
}

/// The strict inverse of enum_name: the whole of `v` must be a name in the
/// table. Returns false (and leaves `out` untouched) otherwise.
template <typename Enum, std::size_t N>
[[nodiscard]] bool enum_from_name(const std::array<const char*, N>& names,
                                  std::string_view v, Enum& out) {
  for (std::size_t i = 0; i < N; ++i) {
    if (v == names[i]) {
      out = static_cast<Enum>(i);
      return true;
    }
  }
  return false;
}

}  // namespace amac::util
