// Strict decimal parsing for every text format the project reads: job
// specs, the daemon's command line and VCD files.
//
// std::strtoull skips leading whitespace, accepts a sign ("-1" wraps to
// 2^64 - 1) and a "0x" prefix under base 0, and saturates silently on
// overflow. A spec or a flag that decodes to a different number than it
// spells is worse than one refused, so every decimal token goes through
// this one parser instead.
#pragma once

#include <charconv>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace tmsim {

/// `text` as a decimal in [lo, hi], or nullopt. std::from_chars takes no
/// sign, whitespace or prefix and reports overflow, so "", "-1", "+1",
/// " 1", "0x1" and "18446744073709551616" all fail.
inline std::optional<std::uint64_t> parse_decimal(
    std::string_view text, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  std::uint64_t v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < lo || v > hi) {
    return std::nullopt;
  }
  return v;
}

}  // namespace tmsim
