// Strict parsing of numeric command-line flag values, shared by the example
// binaries: a typo such as `--ops 2e3` or `--tcp 70000` must fail loudly
// instead of running with a truncated or wrapped value.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace fgnvm {

/// `text` as a decimal integer in [lo, hi]: digits only (no sign, blank,
/// radix prefix, exponent or trailing text); nullopt otherwise.
std::optional<std::uint64_t> parse_uint(std::string_view text,
                                        std::uint64_t lo, std::uint64_t hi);

/// parse_uint for the value of command-line flag `flag`. A bad value prints
/// "<prog>: invalid <flag> value '<text>' (expected an integer in
/// [lo, hi])" to stderr and exits with status 2.
std::uint64_t uint_flag_or_exit(const char* prog, std::string_view flag,
                                std::string_view text, std::uint64_t lo,
                                std::uint64_t hi);

}  // namespace fgnvm
