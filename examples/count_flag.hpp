// Numeric flags of the example CLIs that count something: scenarios,
// cycles, periods, shard indices.
#pragma once

#include <cctype>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

namespace htnoc::cli {

/// std::stoull without the sign it accepts: std::stoull reads "-1" as
/// 2^64 - 1, which turns a typo into a run of 2^64 - 1 cycles. A sign, or
/// anything std::stoull rejects, throws std::invalid_argument, and a value
/// above `max` throws std::out_of_range; the CLIs report both as usage
/// errors.
inline std::uint64_t parse_count(
    const std::string& s, int base = 10,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) {
  const std::size_t first = s.find_first_not_of(" \t\n\v\f\r");
  if (first == std::string::npos ||
      std::isdigit(static_cast<unsigned char>(s[first])) == 0) {
    throw std::invalid_argument("parse_count");
  }
  const std::uint64_t v = std::stoull(s, nullptr, base);
  if (v > max) throw std::out_of_range("parse_count");
  return v;
}

}  // namespace htnoc::cli
