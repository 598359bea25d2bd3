// Helper threads for the overlapped blocked-channel walk (DESIGN.md §9).
//
// When a memory-only record blocks on a full channel, MemorySystem walks
// that channel to its capacity-freeing tick on the calling thread. Every
// other channel must reach the same resume cycle, and channels share no
// mutable state under lazy scheduling, so those walks can run at the same
// time. ChannelHelpers owns the threads that run them: the blocked channel
// publishes a rising watermark (the first cycle of its chain it has not yet
// ticked; every cycle below it was ticked without freeing capacity, so the
// resume cycle cannot lie below it), each helper walks its share of the
// other channels up to the watermark as it rises, and finish() hands over
// the final horizon and joins the episode.
//
// Channel c (c != blocked) belongs to share rank(c) % helpers, where
// rank(c) is c's position among the non-blocked channels, so the shares
// differ by at most one channel. Share h is helper h's to claim, but a
// helper that has not claimed it by finish() (it was napping, or the OS
// had not scheduled it) loses it: the calling thread claims and walks that
// share itself instead of waiting for a wake-up. Helpers spin briefly
// between episodes and then nap; nothing ever wakes them, so an episode
// costs the caller no system call. The destructor stops and joins them.
// All per-episode state is sized at construction: an episode allocates
// nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "sched/controller.hpp"

namespace fgnvm::sys {

class ChannelHelpers {
 public:
  /// Starts `helpers` (>= 1) threads over `channels`. `due` and
  /// `maybe_completed` are the owner's per-channel due caches and drain
  /// flags: a helper reads the due cycles of its channels when an episode
  /// begins and writes both back before the episode ends.
  ChannelHelpers(std::vector<std::unique_ptr<sched::ControllerBase>>& channels,
                 std::vector<Cycle>& due,
                 std::vector<std::uint8_t>& maybe_completed, unsigned helpers);
  ~ChannelHelpers();
  ChannelHelpers(const ChannelHelpers&) = delete;
  ChannelHelpers& operator=(const ChannelHelpers&) = delete;

  /// Starts an episode: the helpers walk every channel but `blocked` up to
  /// `mark`, then follow publish(). The caller must not touch those
  /// channels (or their due / drain entries) until finish() or abort()
  /// returns.
  void begin(std::uint64_t blocked, Cycle mark);

  /// Raises the watermark. Marks only rise within an episode.
  void publish(Cycle mark) { mark_.value.store(mark, std::memory_order_release); }

  /// Ends the episode: every share is walked up to `horizon` (>= every
  /// published mark), by its helper or, if the helper has not claimed it
  /// yet, by the calling thread. Rethrows the first exception a share's
  /// walk raised.
  void finish(Cycle horizon);

  /// Ends the episode without a horizon: shares stop where they are and
  /// abort() waits for the helpers that hold one. For the caller's own
  /// exception path, so it never throws; a share's exception is dropped in
  /// favour of the caller's.
  void abort() noexcept;

 private:
  struct alignas(64) Slot {
    std::vector<Cycle> due;  // the share's private due copies, by channel
    std::exception_ptr error;
    // Last episode whose share was claimed (by its helper or the caller)
    // and last episode whose share walk finished.
    std::atomic<std::uint64_t> claimed{0};
    std::atomic<std::uint64_t> done{0};
  };
  template <typename T>
  struct alignas(64) Padded {
    std::atomic<T> value{};
  };

  void helper_loop(unsigned h);
  /// Claims share h for `episode`; false if it is already claimed.
  bool claim(unsigned h, std::uint64_t episode);
  /// Walks share h, following the watermark until the final horizon (or
  /// an abort), then marks it done for `episode`.
  void run_share(unsigned h, std::uint64_t episode);
  /// Claims and walks every unclaimed share on the calling thread, then
  /// waits for the shares the helpers hold.
  void settle();
  /// Waits for the next episode after `seen`; false on shutdown.
  bool wait_for_episode(std::uint64_t seen);
  /// Stops and joins every started helper.
  void shutdown() noexcept;

  std::vector<std::unique_ptr<sched::ControllerBase>>& channels_;
  std::vector<Cycle>& due_;
  std::vector<std::uint8_t>& maybe_completed_;
  const unsigned helpers_;
  std::vector<Slot> slots_;

  // Episode parameters, written before the epoch bump that publishes them.
  std::uint64_t blocked_ = 0;

  Padded<std::uint64_t> epoch_;   // bumped once per episode
  Padded<Cycle> mark_;            // watermark; the final horizon once final_
  Padded<bool> final_;            // mark_ holds the final horizon
  Padded<bool> abort_;            // stop walking at once
  Padded<bool> stop_;             // shut down

  std::vector<std::thread> threads_;
};

}  // namespace fgnvm::sys
