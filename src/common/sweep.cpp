#include "common/sweep.hpp"

#include <cstdlib>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "common/cli.hpp"

namespace fgnvm::sim {

namespace {

thread_local bool t_in_item = false;

/// Marks the current thread as running a sweep item for its lifetime.
struct ItemScope {
  ItemScope() { t_in_item = true; }
  ~ItemScope() { t_in_item = false; }
};

}  // namespace

bool SweepRunner::in_item() { return t_in_item; }

std::uint64_t clamp_thread_count(std::uint64_t requested, const char* what) {
  if (requested == 0) {
    std::cerr << "[warn ] " << what
              << "=0 is invalid; falling back to 1 thread\n";
    return 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  const std::uint64_t ceiling = 4ULL * (hw > 0 ? hw : 1);
  if (requested > ceiling) {
    std::cerr << "[warn ] " << what << "=" << requested
              << " exceeds 4x hardware_concurrency; clamping to " << ceiling
              << "\n";
    return ceiling;
  }
  return requested;
}

unsigned sweep_thread_count(unsigned requested) {
  if (requested > 0) return requested;
  if (const char* env = std::getenv("FGNVM_THREADS")) {
    const auto v = parse_uint(env, 1, std::numeric_limits<unsigned>::max());
    if (!v) {
      throw std::runtime_error(std::string("FGNVM_THREADS='") + env +
                               "' is not a positive integer");
    }
    return static_cast<unsigned>(*v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

SweepRunner::SweepRunner(unsigned threads) {
  const unsigned n = sweep_thread_count(threads);
  workers_.reserve(n - 1);
  for (unsigned i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SweepRunner::~SweepRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void SweepRunner::run_items(std::unique_lock<std::mutex>& lock) {
  while (next_index_ < job_size_) {
    const std::size_t i = next_index_++;
    ++in_flight_;
    lock.unlock();
    try {
      const ItemScope scope;
      (*job_)(i);
      lock.lock();
    } catch (...) {
      lock.lock();
      if (!error_) error_ = std::current_exception();
      next_index_ = job_size_;  // abandon undispatched items
    }
    if (--in_flight_ == 0 && next_index_ >= job_size_) {
      done_cv_.notify_all();
    }
  }
}

void SweepRunner::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || next_index_ < job_size_; });
    if (stop_) return;
    run_items(lock);
  }
}

void SweepRunner::for_each(std::size_t n,
                           const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  std::unique_lock<std::mutex> lock(mu_);
  job_ = &fn;
  job_size_ = n;
  next_index_ = 0;
  error_ = nullptr;
  work_cv_.notify_all();
  run_items(lock);  // the calling thread is a full pool member
  done_cv_.wait(lock,
                [this] { return next_index_ >= job_size_ && in_flight_ == 0; });
  job_size_ = 0;
  job_ = nullptr;
  if (error_) {
    std::exception_ptr e = error_;
    error_ = nullptr;
    std::rethrow_exception(e);
  }
}

}  // namespace fgnvm::sim
