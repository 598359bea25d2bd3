#include "host_speed.hpp"

#include <array>
#include <chrono>

namespace perfbench {

double probe_ns_per_iter(std::uint64_t iters) {
  // A 256 KiB table: larger than L1, well inside L2.
  static const std::array<std::uint32_t, 1 << 16> table = [] {
    std::array<std::uint32_t, 1 << 16> t{};
    for (std::size_t i = 0; i < t.size(); ++i) {
      t[i] = static_cast<std::uint32_t>(i * 2654435761u);
    }
    return t;
  }();
  // The volatile seed and sink keep the loop from being folded. Each
  // iteration draws a xorshift value, loads from the table at it and takes
  // two branches the predictor cannot learn.
  volatile std::uint64_t seed = 88172645463325252ULL;
  std::uint64_t x = seed, acc = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const std::uint32_t v = table[x & 0xFFFF];
    if (v & 1) {
      acc += v;
    } else {
      acc ^= v >> 3;
    }
    if ((x >> 20) & 1) acc += 7;
  }
  const auto t1 = std::chrono::steady_clock::now();
  volatile std::uint64_t sink = acc;
  (void)sink;
  return std::chrono::duration<double, std::nano>(t1 - t0).count() /
         static_cast<double>(iters);
}

}  // namespace perfbench
