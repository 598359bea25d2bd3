// fgnvm::obs — request-level tracing and time-series observability.
//
// Three collection products, all passive (never influence simulated timing):
//  * Per-request trace records: the full lifecycle (enqueue -> first issue
//    attempt -> activate -> burst -> completion) with blocked cycles
//    attributed per BlockCause. Records are exact under cycle-accurate
//    stepping; under event skipping, spans resolve at event granularity
//    (the cause observed at an event is charged until the next event).
//    Either way the spans partition the queue wait exactly:
//      sum(blocked) == column_issue_cycle - enqueue_cycle.
//  * Epoch-sampled time-series: IPC, queue depths (incl. per-bank max/mean),
//    open activations and tile-group occupancy, sampled at the first tick at
//    or after each epoch boundary (samples carry their true cycle stamp).
//  * Log2-bucketed latency histograms per request class
//    (read / underfetch re-sense read / write).
//
// Overhead contract: with tracing disabled (the default) the simulator takes
// one `if (ptr)` branch per hook — no allocations, no stat changes, and the
// event-skipping loops stay bit-identical with the cycle-accurate loop.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "mem/request.hpp"
#include "obs/block_cause.hpp"

namespace fgnvm::obs {

/// Request classes with separate latency histograms.
enum class RequestClass : std::uint8_t {
  kRead = 0,
  kUnderfetchRead,  ///< read whose serving ACT re-sensed an already-open row
  kWrite,
  kCount
};

inline constexpr std::size_t kNumRequestClasses =
    static_cast<std::size_t>(RequestClass::kCount);

constexpr const char* to_string(RequestClass c) {
  switch (c) {
    case RequestClass::kRead: return "read";
    case RequestClass::kUnderfetchRead: return "underfetch_read";
    case RequestClass::kWrite: return "write";
    case RequestClass::kCount: break;
  }
  return "?";
}

/// Power-of-two-bucketed histogram: bucket i counts samples in
/// [2^i, 2^(i+1)), except bucket 0 which covers [0, 2). One overflow bucket.
class Log2Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void add(std::uint64_t value);
  void merge(const Log2Histogram& other);

  /// Value at `fraction` of the distribution (0.5 = p50), linearly
  /// interpolated within the covering power-of-two bucket. Overflow samples
  /// clamp to the top bucket boundary. 0 when empty.
  double percentile(double fraction) const;

  std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }
  std::uint64_t overflow() const { return overflow_; }
  std::uint64_t total() const { return total_; }

  static std::uint64_t bucket_low(std::size_t i) {
    return i == 0 ? 0 : 1ULL << i;
  }
  static std::uint64_t bucket_high(std::size_t i) { return 1ULL << (i + 1); }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Tracing configuration, part of sys::SystemConfig.
struct ObsConfig {
  bool enabled = false;               // key: obs_trace
  Cycle epoch = 1024;                 // key: obs_epoch (time-series period)
  std::uint64_t max_records = 65536;  // key: obs_max_records (0 = aggregate
                                      // and histogram only, keep no records)

  static ObsConfig from_config(const Config& cfg);
};

/// One request's lifecycle. Unreached stages keep kNeverCycle.
struct RequestTrace {
  RequestId id = 0;
  OpType op = OpType::kRead;
  RequestClass klass = RequestClass::kRead;
  std::uint64_t channel = 0, rank = 0, bank = 0, sag = 0, cd = 0;
  Cycle enqueue = 0;
  Cycle first_attempt = kNeverCycle;  // first scheduler consideration
  Cycle activate = kNeverCycle;       // ACT covering this request issued
  Cycle burst = kNeverCycle;          // reads: data-burst start;
                                      // writes: column (program) issue
  Cycle completion = kNeverCycle;     // reads: burst done; writes: program done
  std::array<std::uint64_t, kNumBlockCauses> blocked{};

  std::uint64_t blocked_total() const;
};

/// One epoch sample. `ipc` is retired instructions per *memory* cycle over
/// the preceding inter-sample span (0 for memory-only runs).
struct TimeSeriesSample {
  Cycle cycle = 0;
  double ipc = 0.0;
  std::uint64_t read_q = 0;        // queued reads, all channels
  std::uint64_t write_q = 0;       // queued writes, all channels
  std::uint64_t inflight = 0;      // column issued, burst pending
  double mean_bank_q = 0.0;        // queued reads per bank, mean
  std::uint64_t max_bank_q = 0;    // queued reads per bank, max
  std::uint64_t open_acts = 0;     // SAGs with an ACT/write in progress
  std::uint64_t busy_tiles = 0;    // (SAG, CD) tile groups actively busy
  double tile_util = 0.0;          // busy_tiles / total tile groups
  std::uint64_t migrations = 0;    // hybrid: cumulative completed promotions
  double dram_hit_rate = 0.0;      // hybrid: lifetime DRAM share of demand
                                   // accesses (0 for non-hybrid systems)
};

/// Append-only sample log with exact CSV round-tripping.
class TimeSeries {
 public:
  void push(const TimeSeriesSample& s) { samples_.push_back(s); }
  const std::vector<TimeSeriesSample>& samples() const { return samples_; }

  std::string to_csv() const;
  /// Parses to_csv() output (header required). Throws std::runtime_error on
  /// malformed input. Round-trip exact: from_csv(to_csv()) == *this.
  static TimeSeries from_csv(const std::string& csv);

  bool operator==(const TimeSeries& other) const;

 private:
  std::vector<TimeSeriesSample> samples_;
};

/// Memory-side values one controller contributes to an epoch sample;
/// Controller::sample_obs accumulates into it.
struct ChannelSample {
  std::uint64_t read_q = 0;
  std::uint64_t write_q = 0;
  std::uint64_t inflight = 0;
  std::uint64_t max_bank_q = 0;
  std::uint64_t banks = 0;
  std::uint64_t open_acts = 0;
  std::uint64_t busy_tiles = 0;
  std::uint64_t tile_groups = 0;
};

/// Per-channel trace collector. The controller calls the on_* hooks at its
/// collection points; all hooks are O(1) amortized. Not thread-safe (one
/// simulation = one thread, as in SweepRunner).
class ChannelCollector {
 public:
  explicit ChannelCollector(const ObsConfig& cfg);

  // -- controller hooks ---------------------------------------------------
  void on_enqueue(const mem::MemRequest& req, Cycle now);
  void on_forwarded() { ++forwarded_; }
  void on_coalesced() { ++coalesced_; }
  /// Start of tick: charges the span since the previous tick to each open
  /// request's pending cause. State is static between ticks, so this makes
  /// attribution exact for the cycle-accurate loop and event-granular for
  /// the skipping loops.
  void close_spans(Cycle now);
  /// End of tick: records why `id` could not issue this tick (charged until
  /// the next tick by close_spans). Stamps first_attempt on first call.
  void set_cause(RequestId id, BlockCause cause, Cycle now);
  void on_activate(RequestId id, Cycle now, bool underfetch);
  void on_read_burst(RequestId id, Cycle issue, Cycle burst_start);
  void on_write_issue(RequestId id, Cycle issue, Cycle done);
  void on_read_complete(RequestId id, Cycle done);

  // -- results ------------------------------------------------------------
  const std::vector<RequestTrace>& records() const { return records_; }
  const std::array<std::uint64_t, kNumBlockCauses>& cause_totals() const {
    return cause_totals_;
  }
  const Log2Histogram& histogram(RequestClass c) const {
    return hists_.at(static_cast<std::size_t>(c));
  }
  /// Pre-sizes the open-request map. The live set is bounded by the
  /// channel's queue capacities, so one up-front reservation stops
  /// steady-state rehash churn on the hot path.
  void reserve_open(std::size_t n) { open_.reserve(n); }
  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t coalesced() const { return coalesced_; }
  std::uint64_t dropped_records() const { return dropped_; }

 private:
  struct OpenRec {
    RequestTrace rec;
    BlockCause pending = BlockCause::kNone;
  };

  void finish(OpenRec& o);

  ObsConfig cfg_;
  std::unordered_map<RequestId, OpenRec> open_;
  std::vector<RequestTrace> records_;
  std::array<std::uint64_t, kNumBlockCauses> cause_totals_{};
  std::array<Log2Histogram, kNumRequestClasses> hists_{};
  Cycle span_start_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t coalesced_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Per-run observer: owns one ChannelCollector per channel plus the
/// epoch-sampled time-series. Created by sys::MemorySystem when
/// ObsConfig::enabled; shared into sim::RunResult so it outlives the run.
class Observer {
 public:
  Observer(const ObsConfig& cfg, std::uint64_t channels);

  const ObsConfig& config() const { return cfg_; }
  ChannelCollector* channel(std::uint64_t i) { return collectors_.at(i).get(); }
  const ChannelCollector& channel(std::uint64_t i) const {
    return *collectors_.at(i);
  }
  std::uint64_t channels() const { return collectors_.size(); }

  /// The runner installs a retired-instruction source so epoch samples can
  /// carry IPC; cleared again before the run returns (the source captures
  /// loop-local state).
  void set_instruction_source(std::function<std::uint64_t()> fn) {
    instr_source_ = std::move(fn);
  }

  bool sample_due(Cycle now) const { return now >= next_sample_; }
  /// First cycle at which sample_due() holds.
  Cycle next_sample() const { return next_sample_; }
  /// Completes `s` with IPC over the inter-sample span and appends it.
  void record_sample(TimeSeriesSample s);

  const TimeSeries& series() const { return series_; }

  void set_run_info(const std::string& workload, const std::string& config) {
    workload_ = workload;
    config_name_ = config;
  }
  const std::string& workload() const { return workload_; }
  const std::string& config_name() const { return config_name_; }

  // -- aggregates across channels -----------------------------------------
  std::array<std::uint64_t, kNumBlockCauses> cause_totals() const;
  std::uint64_t blocked_cycles_total() const;
  Log2Histogram histogram(RequestClass c) const;
  std::uint64_t completed_records() const;
  std::uint64_t dropped_records() const;
  std::uint64_t forwarded() const;
  std::uint64_t coalesced() const;

 private:
  ObsConfig cfg_;
  std::vector<std::unique_ptr<ChannelCollector>> collectors_;
  TimeSeries series_;
  std::function<std::uint64_t()> instr_source_;
  Cycle next_sample_ = 0;
  Cycle last_sample_cycle_ = 0;
  std::uint64_t last_instr_ = 0;
  std::string workload_;
  std::string config_name_;
};

}  // namespace fgnvm::obs
