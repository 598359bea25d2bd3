// Text trace serialization.
//
// Format (NVMain-style, one record per line):
//   <icount_gap> <hex address> <R|W>
// Lines starting with '#' are comments; the first comment conventionally
// carries the trace name.
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace fgnvm::trace {

void write_trace(std::ostream& os, const Trace& trace);
void write_trace_file(const std::string& path, const Trace& trace);

/// Throws std::runtime_error on malformed input.
Trace read_trace(std::istream& is, const std::string& name = "trace");
Trace read_trace_file(const std::string& path);

/// Reads a text or FGS1 stream trace (see trace/stream.hpp), sniffing the
/// magic bytes. A file in the retired FGT1 binary format throws an error
/// that says to convert it to FGS1 (.fgs).
Trace read_trace_any_file(const std::string& path);

}  // namespace fgnvm::trace
