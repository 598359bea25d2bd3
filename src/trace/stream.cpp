#include "trace/stream.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace fgnvm::trace {

namespace {

constexpr char kStreamMagic[4] = {'F', 'G', 'S', '1'};
constexpr std::size_t kMinWindow = 64u << 10;
constexpr std::uint32_t kMaxNameLen = 4096;

std::uint32_t load_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64(const unsigned char* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

void store_u32(unsigned char* p, std::uint32_t v) {
  p[0] = static_cast<unsigned char>(v);
  p[1] = static_cast<unsigned char>(v >> 8);
  p[2] = static_cast<unsigned char>(v >> 16);
  p[3] = static_cast<unsigned char>(v >> 24);
}

void store_u64(unsigned char* p, std::uint64_t v) {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("StreamReader(" + path + "): " + what);
}

}  // namespace

StreamReader::StreamReader(const std::string& path, StreamReaderOptions opts)
    : path_(path) {
  fd_ = ::open(path.c_str(), O_RDONLY);
  if (fd_ < 0) fail(path_, "cannot open");
  struct stat st{};
  if (::fstat(fd_, &st) != 0) {
    ::close(fd_);
    fd_ = -1;
    fail(path_, "fstat failed");
  }
  file_size_ = static_cast<std::uint64_t>(st.st_size);
  const long ps = ::sysconf(_SC_PAGESIZE);
  page_ = ps > 0 ? static_cast<std::size_t>(ps) : 4096;
  window_bytes_ = std::max(opts.window_bytes, kMinWindow);
  // Round to whole pages so a window always starts page-aligned.
  window_bytes_ = (window_bytes_ + page_ - 1) / page_ * page_;
  use_mmap_ = !opts.force_buffered;
  try {
    parse_header();
  } catch (...) {
    drop_window();
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

StreamReader::~StreamReader() {
  drop_window();
  if (fd_ >= 0) ::close(fd_);
}

void StreamReader::drop_window() {
  if (win_ != nullptr && use_mmap_) {
    ::munmap(win_, win_len_);
  }
  win_ = nullptr;
  win_len_ = 0;
}

void StreamReader::map_window(std::uint64_t aligned_off, std::size_t len) {
  if (use_mmap_) {
    drop_window();
    void* m = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd_,
                     static_cast<off_t>(aligned_off));
    if (m == MAP_FAILED) {
      // Fall back to buffered reads for the rest of this reader's life.
      use_mmap_ = false;
    } else {
      ::madvise(m, len, MADV_SEQUENTIAL);
      win_ = static_cast<unsigned char*>(m);
      win_off_ = aligned_off;
      win_len_ = len;
      peak_resident_ = std::max(peak_resident_, len);
      return;
    }
  }
  if (!buf_) buf_ = std::make_unique<unsigned char[]>(window_bytes_);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n =
        ::pread(fd_, buf_.get() + got, len - got,
                static_cast<off_t>(aligned_off + got));
    if (n < 0) fail(path_, "pread failed");
    if (n == 0) break;  // shorter than expected; ensure() detects truncation
    got += static_cast<std::size_t>(n);
  }
  win_ = buf_.get();
  win_off_ = aligned_off;
  win_len_ = got;
  peak_resident_ = std::max(peak_resident_, window_bytes_);
}

const unsigned char* StreamReader::ensure(std::size_t need) {
  if (off_ + need > file_size_) return nullptr;
  if (win_ != nullptr && off_ >= win_off_ &&
      off_ + need <= win_off_ + win_len_) {
    return win_ + (off_ - win_off_);
  }
  const std::uint64_t aligned = off_ / page_ * page_;
  const std::size_t len = static_cast<std::size_t>(
      std::min<std::uint64_t>(window_bytes_, file_size_ - aligned));
  map_window(aligned, len);
  if (off_ + need > win_off_ + win_len_) return nullptr;  // short read
  return win_ + (off_ - win_off_);
}

void StreamReader::parse_header() {
  const unsigned char* p = ensure(16);
  if (p == nullptr) fail(path_, "truncated header");
  if (std::memcmp(p, kStreamMagic, 4) != 0) fail(path_, "bad magic");
  const std::uint32_t version = load_u32(p + 4);
  if (version != kStreamVersion) {
    fail(path_, "unsupported version " + std::to_string(version));
  }
  const std::uint32_t name_len = load_u32(p + 8);
  if (name_len > kMaxNameLen) fail(path_, "implausible name length");
  off_ = 12;
  p = ensure(name_len + 24);
  if (p == nullptr) fail(path_, "truncated header");
  name_.assign(reinterpret_cast<const char*>(p), name_len);
  record_count_ = load_u64(p + name_len);
  tail_icount_ = load_u64(p + name_len + 8);
  total_insts_ = load_u64(p + name_len + 16);
  off_ += name_len + 24;
  records_off_ = off_;
}

bool StreamReader::next(TraceRecord& out) {
  if (read_count_ >= record_count_) return false;
  const unsigned char* p = ensure(1);
  if (p == nullptr) fail(path_, "truncated record stream");
  const std::size_t len = *p;
  if (len == 0) fail(path_, "zero-length record");
  if (len < kStreamPayloadBytes) fail(path_, "undersized record");
  if (len > kMaxRecordLen) fail(path_, "oversized record");
  p = ensure(1 + len);
  if (p == nullptr) fail(path_, "truncated record");
  out.icount_gap = load_u32(p + 1);
  out.addr = load_u64(p + 5);
  const unsigned char op = p[13];
  if (op > 1) fail(path_, "bad op byte");
  out.op = op != 0 ? OpType::kWrite : OpType::kRead;
  off_ += 1 + len;  // bytes past the payload are forward-compat skipped
  ++read_count_;
  return true;
}

void StreamReader::reset() {
  off_ = records_off_;
  read_count_ = 0;
}

StreamWriter::StreamWriter(const std::string& path, const std::string& name)
    : path_(path) {
  if (name.size() > kMaxNameLen) {
    throw std::runtime_error("StreamWriter: name too long");
  }
  f_ = std::fopen(path.c_str(), "wb");
  if (f_ == nullptr) {
    throw std::runtime_error("StreamWriter: cannot open " + path);
  }
  unsigned char hdr[12];
  std::memcpy(hdr, kStreamMagic, 4);
  store_u32(hdr + 4, kStreamVersion);
  store_u32(hdr + 8, static_cast<std::uint32_t>(name.size()));
  std::fwrite(hdr, 1, sizeof(hdr), f_);
  std::fwrite(name.data(), 1, name.size(), f_);
  counts_pos_ = std::ftell(f_);
  unsigned char zeros[24] = {};
  std::fwrite(zeros, 1, sizeof(zeros), f_);
}

StreamWriter::~StreamWriter() {
  try {
    finish();
  } catch (...) {
    if (f_ != nullptr) std::fclose(f_);
    f_ = nullptr;
  }
}

void StreamWriter::append(const TraceRecord& r) {
  if (finished_) {
    throw std::runtime_error("StreamWriter: append after finish");
  }
  if (r.icount_gap > 0xFFFFFFFFull) {
    throw std::runtime_error("StreamWriter: gap exceeds 32 bits");
  }
  unsigned char rec[1 + kStreamPayloadBytes];
  rec[0] = static_cast<unsigned char>(kStreamPayloadBytes);
  store_u32(rec + 1, static_cast<std::uint32_t>(r.icount_gap));
  store_u64(rec + 5, r.addr);
  rec[13] = r.op == OpType::kWrite ? 1 : 0;
  if (std::fwrite(rec, 1, sizeof(rec), f_) != sizeof(rec)) {
    throw std::runtime_error("StreamWriter: write failed for " + path_);
  }
  ++count_;
  insts_ += r.icount_gap + 1;
}

void StreamWriter::finish() {
  if (finished_) return;
  finished_ = true;
  unsigned char counts[24];
  store_u64(counts, count_);
  store_u64(counts + 8, tail_icount_);
  store_u64(counts + 16, insts_ + tail_icount_);
  bool ok = std::fseek(f_, counts_pos_, SEEK_SET) == 0;
  ok = ok && std::fwrite(counts, 1, sizeof(counts), f_) == sizeof(counts);
  ok = std::fclose(f_) == 0 && ok;
  f_ = nullptr;
  if (!ok) {
    throw std::runtime_error("StreamWriter: finish failed for " + path_);
  }
}

void write_trace_stream_file(const std::string& path, const Trace& trace) {
  StreamWriter w(path, trace.name);
  for (const TraceRecord& r : trace.records) w.append(r);
  w.set_tail(trace.tail_icount);
  w.finish();
}

Trace read_trace_stream_file(const std::string& path) {
  StreamReader r(path);
  Trace t;
  t.name = r.name();
  t.tail_icount = r.tail_icount();
  t.records.reserve(static_cast<std::size_t>(
      std::min<std::uint64_t>(r.memory_ops(), 1u << 20)));
  TraceRecord rec;
  while (r.next(rec)) t.records.push_back(rec);
  if (t.total_instructions() != r.total_instructions()) {
    throw std::runtime_error("read_trace_stream_file: header instruction " +
                             std::string("count disagrees with records"));
  }
  return t;
}

bool is_stream_trace_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  char magic[4] = {};
  const std::size_t n = std::fread(magic, 1, 4, f);
  std::fclose(f);
  return n == 4 && std::memcmp(magic, kStreamMagic, 4) == 0;
}

}  // namespace fgnvm::trace
