// Trace toolbox: generate synthetic workloads, characterize trace files,
// and filter raw CPU access streams through the cache hierarchy into
// LLC-miss traces (the gem5+SPEC pipeline of the paper, reproduced).
//
//   trace_tool generate <profile|list> <memory_ops> <out.trace>
//   trace_tool analyze <in.trace>
//   trace_tool filter <in.trace> <out.trace>   # raw stream -> LLC misses
#include <iostream>
#include <string>

#include "cache/hierarchy.hpp"
#include "sys/presets.hpp"
#include "trace/analyzer.hpp"
#include "trace/generator.hpp"
#include "trace/io.hpp"
#include "trace/stream.hpp"
#include "trace/spec_profiles.hpp"

namespace {

int usage() {
  std::cerr << "usage:\n"
            << "  trace_tool generate <profile|list> <memory_ops> <out>\n"
            << "  trace_tool analyze <in>\n"
            << "  trace_tool filter <in> <out>\n"
            << "  trace_tool convert <in> <out.fgs|out.trace>\n"
            << "files ending in .fgs use the FGS1 stream format (replayable "
               "with bounded memory),\nothers the text format; inputs are "
               "format-sniffed.\n";
  return 2;
}

bool has_suffix(const std::string& path, const std::string& suffix) {
  return path.size() > suffix.size() &&
         path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void write_any(const std::string& path, const fgnvm::trace::Trace& t) {
  if (has_suffix(path, ".fgs")) {
    fgnvm::trace::write_trace_stream_file(path, t);
  } else {
    fgnvm::trace::write_trace_file(path, t);
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fgnvm;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];

  try {
    if (cmd == "generate") {
      if (argc < 3) return usage();
      const std::string profile_name = argv[2];
      if (profile_name == "list") {
        for (const auto& p : trace::spec2006_profiles()) {
          std::cout << p.name << ": mpki=" << p.mpki
                    << " writes=" << p.write_fraction
                    << " row_locality=" << p.row_locality
                    << " streams=" << p.num_streams
                    << " footprint=" << (p.footprint_bytes >> 20) << "MB\n";
        }
        return 0;
      }
      if (argc != 5) return usage();
      const trace::WorkloadProfile p = trace::spec2006_profile(profile_name);
      const trace::Trace t =
          trace::generate_trace(p, std::stoull(argv[3]));
      write_any(argv[4], t);
      std::cout << "wrote " << t.records.size() << " records to " << argv[4]
                << "\n";
      return 0;
    }
    if (cmd == "analyze") {
      if (argc != 3) return usage();
      const trace::Trace t = trace::read_trace_any_file(argv[2]);
      const auto summary = trace::analyze(t, sys::reference_geometry());
      std::cout << t.name << ": " << summary.to_string() << "\n";
      return 0;
    }
    if (cmd == "convert") {
      if (argc != 4) return usage();
      const trace::Trace t = trace::read_trace_any_file(argv[2]);
      write_any(argv[3], t);
      std::cout << "converted " << t.records.size() << " records to "
                << argv[3] << "\n";
      return 0;
    }
    if (cmd == "filter") {
      if (argc != 4) return usage();
      const trace::Trace raw = trace::read_trace_any_file(argv[2]);
      cache::CacheHierarchy hierarchy;
      const trace::Trace llc = cache::filter_trace(raw, hierarchy);
      trace::write_trace_file(argv[3], llc);
      std::cout << "raw: " << raw.records.size() << " accesses ("
                << raw.mpki() << " per-ki), llc: " << llc.records.size()
                << " misses (" << llc.mpki() << " MPKI), L1 hit rate "
                << hierarchy.level(0).stats().hit_rate() << "\n";
      return 0;
    }
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
