#include "common/cli.hpp"

#include <charconv>
#include <cstdlib>
#include <iostream>

namespace fgnvm {

std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi) {
  if (text.empty()) return std::nullopt;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
  }
  std::uint64_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || end != text.data() + text.size() || v < lo ||
      v > hi) {
    return std::nullopt;
  }
  return v;
}

std::uint64_t uint_flag_or_exit(const char* prog, std::string_view flag,
                                std::string_view text, std::uint64_t lo,
                                std::uint64_t hi) {
  if (const auto v = parse_uint(text, lo, hi)) return *v;
  std::cerr << prog << ": invalid " << flag << " value '" << text
            << "' (expected an integer in [" << lo << ", " << hi << "])\n";
  std::exit(2);
}

}  // namespace fgnvm
