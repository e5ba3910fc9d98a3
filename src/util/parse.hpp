// Whole-token number parsing for command-line values: every numeric
// argument of tucker_cli and tuckerd goes through this one rule.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace ht {

/// `text` as a T in [lo, hi], or nullopt when the whole token is not one:
/// empty, a leading space or '+', a sign on an unsigned type, trailing
/// characters, a value outside T or outside [lo, hi], or NaN.
template <typename T>
std::optional<T> parse_number(std::string_view text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || !(value >= lo && value <= hi)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace ht
