// Three-level inclusive-enough cache hierarchy (Nehalem-like shape) used to
// filter raw CPU address streams down to the LLC-miss traffic the memory
// system actually sees.
#pragma once

#include <vector>

#include "cache/cache.hpp"
#include "trace/trace.hpp"

namespace fgnvm::cache {

struct HierarchyParams {
  CacheParams l1{32 * 1024, 64, 8};
  CacheParams l2{256 * 1024, 64, 8};
  CacheParams l3{8 * 1024 * 1024, 64, 16};
};

class CacheHierarchy {
 public:
  explicit CacheHierarchy(const HierarchyParams& params = {});

  /// One CPU access. Returns the memory operations that reach main memory:
  /// at most one fill read (on LLC miss) and any dirty writebacks evicted
  /// out of the LLC.
  std::vector<trace::TraceRecord> access(Addr addr, OpType op);

  const SetAssocCache& level(std::size_t i) const { return levels_.at(i); }

  /// LLC misses per kilo-instruction given an instruction count.
  double llc_mpki(std::uint64_t instructions) const;

 private:
  void spill(std::size_t level, Addr victim,
             std::vector<trace::TraceRecord>& mem_ops);

  std::vector<SetAssocCache> levels_;
};

/// Replays a raw access trace through a hierarchy and returns the LLC-miss
/// trace, preserving instruction gaps (gaps of filtered-out records fold
/// into the following miss).
trace::Trace filter_trace(const trace::Trace& raw, CacheHierarchy& hierarchy);

}  // namespace fgnvm::cache
