#include "trace/io.hpp"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace/stream.hpp"

namespace fgnvm::trace {

void write_trace(std::ostream& os, const Trace& trace) {
  os << "# " << trace.name << "\n";
  for (const TraceRecord& r : trace.records) {
    os << r.icount_gap << " 0x" << std::hex << r.addr << std::dec << " "
       << to_string(r.op) << "\n";
  }
}

void write_trace_file(const std::string& path, const Trace& trace) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("write_trace_file: cannot open " + path);
  write_trace(f, trace);
}

Trace read_trace(std::istream& is, const std::string& name) {
  Trace t;
  t.name = name;
  std::string line;
  std::uint64_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (line[0] == '#') {
      if (line_no == 1 && line.size() > 2) t.name = line.substr(2);
      continue;
    }
    std::istringstream ls(line);
    TraceRecord r;
    std::string addr_str, op_str;
    if (!(ls >> r.icount_gap >> addr_str >> op_str)) {
      throw std::runtime_error("read_trace: malformed line " +
                               std::to_string(line_no) + ": '" + line + "'");
    }
    r.addr = std::stoull(addr_str, nullptr, 0);
    if (op_str == "R" || op_str == "r") {
      r.op = OpType::kRead;
    } else if (op_str == "W" || op_str == "w") {
      r.op = OpType::kWrite;
    } else {
      throw std::runtime_error("read_trace: bad op '" + op_str + "' at line " +
                               std::to_string(line_no));
    }
    t.records.push_back(r);
  }
  return t;
}

Trace read_trace_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) throw std::runtime_error("read_trace_file: cannot open " + path);
  return read_trace(f, path);
}

Trace read_trace_any_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("read_trace_any_file: cannot open " + path);
  char magic[4] = {};
  f.read(magic, 4);
  f.close();
  if (std::memcmp(magic, "FGT1", 4) == 0) {
    throw std::runtime_error(
        "read_trace_any_file: " + path +
        " is in the retired FGT1 binary trace format; convert it to the FGS1 "
        "stream format (.fgs) with a trace_tool that still reads FGT1 "
        "('trace_tool convert <in> <out.fgs>')");
  }
  if (std::memcmp(magic, "FGS1", 4) == 0) return read_trace_stream_file(path);
  return read_trace_file(path);
}

}  // namespace fgnvm::trace
