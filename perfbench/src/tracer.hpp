// Span tracer for the benchmark's traced runs.
//
// Spans are recorded by the benchmark around its calls into the simulator's
// public functions. Hot spans are aggregated in memory per (parent, name) as
// {calls, total ns, self ns}; spans near the root are also kept verbatim
// with their start and end. Everything is written out once, at exit.
//
// Self time of a span is its duration minus the time covered by its direct
// children. Spans nest strictly (each end() closes the innermost open span).
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Aggregated timing of one span name.
struct SpanTotals {
  std::uint64_t calls = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// A span kept verbatim (depth below Tracer::kKeepDepth).
struct SpanRecord {
  std::uint32_t id = 0;
  std::uint32_t parent = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class Tracer {
 public:
  using Id = std::uint32_t;
  static constexpr Id kRoot = 0;

  /// Spans opened at depth < kKeepDepth (0 = the root's children) are also
  /// stored as SpanRecords: a unit and the runs inside it, not hot calls.
  static constexpr std::size_t kKeepDepth = 2;

  Tracer();

  /// Interns a span or counter name. Call outside hot loops.
  Id intern(std::string_view name);

  /// Opens and closes a span at explicit timestamps in ns.
  void begin(Id id, std::int64_t now_ns);
  void end(std::int64_t now_ns);

  /// Adds to a named counter (ratios measured where the work happens).
  void add(Id counter, std::uint64_t n = 1) {
    if (counters_.size() <= counter) counters_.resize(counter + 1, 0);
    counters_[counter] += n;
  }
  std::uint64_t counter(std::string_view name) const;

  /// Totals of every span with this name, summed over parents.
  SpanTotals totals(std::string_view name) const;

  const std::vector<SpanRecord>& records() const { return records_; }

  /// Writes the aggregated spans, counters and verbatim records as JSON.
  void write_json(std::ostream& os) const;

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  struct Frame {
    Id id = 0;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
  };

  Id find(std::string_view name) const;  // kRoot when unknown

  std::vector<std::string> names_;
  std::vector<Frame> stack_;
  // by_parent_[parent][id]; grown on demand.
  std::vector<std::vector<SpanTotals>> by_parent_;
  std::vector<std::uint64_t> counters_;
  std::vector<SpanRecord> records_;
};

/// RAII span on the steady clock; a no-op when given a null tracer.
class Span {
 public:
  Span(Tracer* t, Tracer::Id id) : t_(t) {
    if (t_) t_->begin(id, Tracer::now_ns());
  }
  Span(Tracer& t, Tracer::Id id) : Span(&t, id) {}
  ~Span() {
    if (t_) t_->end(Tracer::now_ns());
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace perfbench
