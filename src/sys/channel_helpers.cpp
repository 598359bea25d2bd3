#include "sys/channel_helpers.hpp"

#include <chrono>

namespace fgnvm::sys {

namespace {

/// How long an idle helper spins before it starts napping. Blocking
/// episodes on a deep write-heavy queue arrive every few tens of
/// microseconds, so a helper that spins this long rarely misses one there;
/// one left idle (a run that stopped blocking, or a finished run) soon
/// stops taking a core.
constexpr std::chrono::microseconds kIdleSpin{200};

/// A napping helper's sleep between two looks at the episode counter. The
/// caller never wakes a helper (a wake-up costs it a system call per
/// episode); an episode that starts while its helpers nap is walked by the
/// caller alone, as without helpers.
constexpr std::chrono::microseconds kNap{100};

/// Spin-waits yield on every poll instead of pausing. The OS may place a
/// helper on the caller's CPU or on another helper's (on a 4-vCPU VM, two
/// of three helpers often shared one): a pause-spin there burns the time
/// slice the thread it waits for needs, which made a third of the runs on
/// that VM 2-3x slower than without helpers; yielding hands the CPU back.
template <typename Ready>
void spin_until(Ready ready) {
  while (!ready()) std::this_thread::yield();
}

}  // namespace

ChannelHelpers::ChannelHelpers(
    std::vector<std::unique_ptr<sched::ControllerBase>>& channels,
    std::vector<Cycle>& due, std::vector<std::uint8_t>& maybe_completed,
    unsigned helpers)
    : channels_(channels),
      due_(due),
      maybe_completed_(maybe_completed),
      helpers_(helpers),
      slots_(helpers) {
  for (Slot& s : slots_) s.due.assign(channels_.size(), kNeverCycle);
  threads_.reserve(helpers_);
  try {
    for (unsigned h = 0; h < helpers_; ++h) {
      threads_.emplace_back([this, h] { helper_loop(h); });
    }
  } catch (...) {
    shutdown();
    throw;
  }
}

ChannelHelpers::~ChannelHelpers() { shutdown(); }

void ChannelHelpers::shutdown() noexcept {
  stop_.value.store(true, std::memory_order_release);
  for (std::thread& t : threads_) t.join();
}

void ChannelHelpers::begin(std::uint64_t blocked, Cycle mark) {
  blocked_ = blocked;
  mark_.value.store(mark, std::memory_order_relaxed);
  final_.value.store(false, std::memory_order_relaxed);
  abort_.value.store(false, std::memory_order_relaxed);
  epoch_.value.store(epoch_.value.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
}

void ChannelHelpers::finish(Cycle horizon) {
  mark_.value.store(horizon, std::memory_order_relaxed);
  final_.value.store(true, std::memory_order_release);
  settle();
  std::exception_ptr first;
  for (Slot& s : slots_) {
    if (s.error && !first) first = s.error;
    s.error = nullptr;
  }
  if (first) std::rethrow_exception(first);
}

void ChannelHelpers::abort() noexcept {
  abort_.value.store(true, std::memory_order_release);
  settle();
  for (Slot& s : slots_) s.error = nullptr;
}

void ChannelHelpers::settle() {
  const std::uint64_t episode = epoch_.value.load(std::memory_order_relaxed);
  for (unsigned h = 0; h < helpers_; ++h) {
    if (claim(h, episode)) run_share(h, episode);
  }
  for (Slot& s : slots_) {
    spin_until([&] {
      return s.done.load(std::memory_order_acquire) == episode;
    });
  }
}

bool ChannelHelpers::claim(unsigned h, std::uint64_t episode) {
  std::uint64_t last = slots_[h].claimed.load(std::memory_order_relaxed);
  return last < episode && slots_[h].claimed.compare_exchange_strong(
                               last, episode, std::memory_order_acq_rel);
}

bool ChannelHelpers::wait_for_episode(std::uint64_t seen) {
  const auto changed = [&] {
    return epoch_.value.load(std::memory_order_acquire) != seen ||
           stop_.value.load(std::memory_order_acquire);
  };
  const auto deadline = std::chrono::steady_clock::now() + kIdleSpin;
  bool napping = false;
  while (!changed()) {
    if (napping) {
      std::this_thread::sleep_for(kNap);
    } else {
      std::this_thread::yield();
      napping = std::chrono::steady_clock::now() >= deadline;
    }
  }
  return !stop_.value.load(std::memory_order_acquire);
}

void ChannelHelpers::helper_loop(unsigned h) {
  std::uint64_t seen = 0;
  while (wait_for_episode(seen)) {
    // A helper that wakes after its episode's finish() finds its share
    // claimed by the caller and waits for the next episode.
    seen = epoch_.value.load(std::memory_order_acquire);
    if (claim(h, seen)) run_share(h, seen);
  }
}

void ChannelHelpers::run_share(unsigned h, std::uint64_t episode) {
  Slot& slot = slots_[h];
  const std::uint64_t n = channels_.size();
  const std::uint64_t blocked = blocked_;
  const auto mine = [&](std::uint64_t ch) {
    return ch != blocked && (ch < blocked ? ch : ch - 1) % helpers_ == h;
  };
  for (std::uint64_t ch = 0; ch < n; ++ch) {
    if (mine(ch)) slot.due[ch] = due_[ch];
  }
  try {
    Cycle reached = 0;  // every channel of the share has run up to here
    while (!abort_.value.load(std::memory_order_acquire)) {
      // final_ before mark_: once final_ reads true, mark_ holds the horizon.
      const bool last = final_.value.load(std::memory_order_acquire);
      const Cycle mark = mark_.value.load(std::memory_order_acquire);
      if (mark > reached) {
        for (std::uint64_t ch = 0; ch < n; ++ch) {
          if (mine(ch) && slot.due[ch] < mark) {
            slot.due[ch] = channels_[ch]->advance_to(slot.due[ch], mark);
          }
        }
        reached = mark;
      }
      if (last) break;
      spin_until([&] {
        return mark_.value.load(std::memory_order_relaxed) != mark ||
               final_.value.load(std::memory_order_relaxed) ||
               abort_.value.load(std::memory_order_relaxed);
      });
    }
  } catch (...) {
    slot.error = std::current_exception();
  }
  // A channel's due moves iff it ticked, and a tick may buffer completions.
  for (std::uint64_t ch = 0; ch < n; ++ch) {
    if (mine(ch) && slot.due[ch] != due_[ch]) {
      due_[ch] = slot.due[ch];
      maybe_completed_[ch] = 1;
    }
  }
  slot.done.store(episode, std::memory_order_release);
}

}  // namespace fgnvm::sys
