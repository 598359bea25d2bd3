#include "tracer.hpp"

#include <stdexcept>

namespace perfbench {

Tracer::Tracer() { names_.emplace_back("<root>"); }

Tracer::Id Tracer::intern(std::string_view name) {
  if (const Id id = find(name); id != kRoot) return id;
  names_.emplace_back(name);
  return static_cast<Id>(names_.size() - 1);
}

Tracer::Id Tracer::find(std::string_view name) const {
  for (std::size_t i = 1; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<Id>(i);
  }
  return kRoot;
}

void Tracer::begin(Id id, std::int64_t now_ns) {
  stack_.push_back(Frame{id, now_ns, 0});
}

void Tracer::end(std::int64_t now_ns) {
  if (stack_.empty()) throw std::logic_error("Tracer::end without begin");
  const Frame f = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now_ns - f.start_ns;
  const Id parent = stack_.empty() ? kRoot : stack_.back().id;
  if (!stack_.empty()) stack_.back().child_ns += dur;

  if (by_parent_.size() <= parent) by_parent_.resize(parent + 1);
  std::vector<SpanTotals>& row = by_parent_[parent];
  if (row.size() <= f.id) row.resize(f.id + 1);
  SpanTotals& s = row[f.id];
  ++s.calls;
  s.total_ns += dur;
  s.self_ns += dur - f.child_ns;

  if (stack_.size() < kKeepDepth) {
    records_.push_back(SpanRecord{f.id, parent, f.start_ns, now_ns});
  }
}

std::uint64_t Tracer::counter(std::string_view name) const {
  const Id id = find(name);
  return id != kRoot && id < counters_.size() ? counters_[id] : 0;
}

SpanTotals Tracer::totals(std::string_view name) const {
  SpanTotals sum;
  const Id id = find(name);
  if (id == kRoot) return sum;
  for (const std::vector<SpanTotals>& row : by_parent_) {
    if (id < row.size()) {
      sum.calls += row[id].calls;
      sum.total_ns += row[id].total_ns;
      sum.self_ns += row[id].self_ns;
    }
  }
  return sum;
}

void Tracer::write_json(std::ostream& os) const {
  os << "{\n  \"spans\": [";
  bool first = true;
  for (std::size_t p = 0; p < by_parent_.size(); ++p) {
    for (std::size_t id = 0; id < by_parent_[p].size(); ++id) {
      const SpanTotals& s = by_parent_[p][id];
      if (s.calls == 0) continue;
      os << (first ? "\n" : ",\n") << "    {\"name\": \"" << names_[id]
         << "\", \"parent\": \"" << names_[p] << "\", \"calls\": " << s.calls
         << ", \"total_ns\": " << s.total_ns << ", \"self_ns\": " << s.self_ns
         << "}";
      first = false;
    }
  }
  os << "\n  ],\n  \"counters\": {";
  first = true;
  for (std::size_t id = 0; id < counters_.size(); ++id) {
    if (counters_[id] == 0) continue;
    os << (first ? "\n" : ",\n") << "    \"" << names_[id]
       << "\": " << counters_[id];
    first = false;
  }
  os << "\n  },\n  \"records\": [";
  first = true;
  for (const SpanRecord& r : records_) {
    os << (first ? "\n" : ",\n") << "    {\"name\": \"" << names_[r.id]
       << "\", \"parent\": \"" << names_[r.parent]
       << "\", \"start_ns\": " << r.start_ns << ", \"end_ns\": " << r.end_ns
       << "}";
    first = false;
  }
  os << "\n  ]\n}\n";
}

}  // namespace perfbench
