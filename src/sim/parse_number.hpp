#pragma once

// Strict whole-string number parsing for text from outside the program
// (command-line options, CLI padding specs).

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace h2sim::sim {

/// Parses all of `s` as a whole number or, for double, a finite real; false
/// on an empty string, a leading '+' or whitespace, trailing characters, a
/// sign on an unsigned type, or a value out of range.
template <typename T>
bool parse_number(std::string_view s, T* out) {
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || end != s.data() + s.size()) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  *out = v;
  return true;
}

}  // namespace h2sim::sim
