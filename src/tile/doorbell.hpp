// Sleep-after-spin wait of an idle shard worker (DESIGN.md §14).
//
// A worker whose command ring is empty first spins and yields. After
// kSpinBeforePark of fruitless polling it parks in the kernel on its
// Doorbell, and the coordinator pays for a wake-up (a system call) only
// while the worker is parked. On an idle host the waits end inside the
// spin. On a loaded one a parked worker leaves its CPU to the threads that
// have work. Nothing waits on a worker's answer: a head-of-line
// coordinator that needs one runs the shard's commands itself under the
// shard's claim (Topology::run_claimed).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>

namespace fgnvm::tile {

/// How long a waiter polls before it parks.
inline constexpr std::chrono::microseconds kSpinBeforePark{100};

/// The polling half of a wait: yields between polls and says when
/// kSpinBeforePark is spent.
class SpinBudget {
 public:
  /// Yields the CPU once; true once kSpinBeforePark has passed since the
  /// first call after construction or reset().
  bool yield_then_expired() {
    const auto now = std::chrono::steady_clock::now();
    if (start_ == std::chrono::steady_clock::time_point{}) start_ = now;
    std::this_thread::yield();
    return std::chrono::steady_clock::now() - start_ >= kSpinBeforePark;
  }
  void reset() { start_ = {}; }

 private:
  std::chrono::steady_clock::time_point start_{};
};

/// On its own cache line: the notifier touches it after every publication.
class alignas(64) Doorbell {
 public:
  /// Waiter side: sleeps until ring(), unless `ready()` already holds.
  /// Wake-ups may be spurious; callers re-check their own condition.
  template <typename Ready>
  void park(const Ready& ready) {
    // Both sides update one word with sequentially consistent
    // read-modify-writes: either the waiter's update comes second and
    // ready() sees the publication that preceded the ring, or the ring
    // comes second and finds the sleep bit set.
    const std::uint32_t armed =
        word_.fetch_or(kSleeping, std::memory_order_seq_cst) | kSleeping;
    if (!ready()) word_.wait(armed, std::memory_order_seq_cst);
  }

  /// Notifier side, after publishing what the waiter waits for: one atomic
  /// increment, plus one system call per park (the ring that clears the
  /// sleep bit wakes the waiter; later rings find it clear).
  void ring() {
    std::uint32_t w =
        word_.fetch_add(kRing, std::memory_order_seq_cst) + kRing;
    while ((w & kSleeping) != 0) {
      if (word_.compare_exchange_weak(w, w & ~kSleeping,
                                      std::memory_order_seq_cst)) {
        word_.notify_one();
        return;
      }
    }
  }

 private:
  static constexpr std::uint32_t kSleeping = 1;  // a waiter sleeps
  static constexpr std::uint32_t kRing = 2;      // the rest counts rings
  std::atomic<std::uint32_t> word_{0};
};

}  // namespace fgnvm::tile
