// Unit tests for fgnvm::obs: blocking-cause attribution on hand-built
// FgNVM conflict scenarios, histogram bucket edges, time-series CSV
// round-tripping, and the blocked-cycle accounting invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "mem/geometry.hpp"
#include "mem/timing.hpp"
#include "nvm/fgnvm_bank.hpp"
#include "obs/observer.hpp"
#include "sched/controller.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "trace/generator.hpp"
#include "trace/spec_profiles.hpp"

namespace fgnvm::obs {
namespace {

// ------------------------------------------------------------ Log2Histogram

TEST(Log2HistogramTest, BucketEdges) {
  Log2Histogram h;
  h.add(0);
  h.add(1);  // bucket 0: [0, 2)
  h.add(2);
  h.add(3);  // bucket 1: [2, 4)
  h.add(4);  // bucket 2: [4, 8)
  h.add(1023);  // bucket 9: [512, 1024)
  h.add(1024);  // bucket 10: [1024, 2048)
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(9), 1u);
  EXPECT_EQ(h.bucket(10), 1u);
  EXPECT_EQ(h.overflow(), 0u);
  EXPECT_EQ(h.total(), 7u);

  EXPECT_EQ(Log2Histogram::bucket_low(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_high(0), 2u);
  EXPECT_EQ(Log2Histogram::bucket_low(9), 512u);
  EXPECT_EQ(Log2Histogram::bucket_high(9), 1024u);
}

TEST(Log2HistogramTest, OverflowAndMerge) {
  Log2Histogram h;
  h.add((1ULL << Log2Histogram::kBuckets) - 1);  // last bucket
  h.add(1ULL << Log2Histogram::kBuckets);        // overflow
  EXPECT_EQ(h.bucket(Log2Histogram::kBuckets - 1), 1u);
  EXPECT_EQ(h.overflow(), 1u);

  Log2Histogram other;
  other.add(5);
  other.merge(h);
  EXPECT_EQ(other.total(), 3u);
  EXPECT_EQ(other.bucket(2), 1u);
  EXPECT_EQ(other.overflow(), 1u);
}

TEST(Log2HistogramTest, PercentileInterpolatesWithinBuckets) {
  Log2Histogram empty;
  EXPECT_DOUBLE_EQ(empty.percentile(0.5), 0.0);

  // Four samples in bucket 9 ([512, 1024)): percentiles interpolate
  // linearly across the bucket span, and the fraction clamps to [0, 1].
  Log2Histogram single;
  for (int i = 0; i < 4; ++i) single.add(600);
  EXPECT_DOUBLE_EQ(single.percentile(0.0), 512.0);
  EXPECT_DOUBLE_EQ(single.percentile(0.5), 768.0);
  EXPECT_DOUBLE_EQ(single.percentile(1.0), 1024.0);
  EXPECT_DOUBLE_EQ(single.percentile(-3.0), single.percentile(0.0));
  EXPECT_DOUBLE_EQ(single.percentile(7.0), single.percentile(1.0));

  // Split across buckets 0 ([0, 2), 3 samples) and 2 ([4, 8), 1 sample):
  // the walk skips the empty bucket 1 and lands mid-bucket on each side.
  Log2Histogram split;
  split.add(0);
  split.add(1);
  split.add(1);
  split.add(5);
  EXPECT_DOUBLE_EQ(split.percentile(0.5), (2.0 / 3.0) * 2.0);
  EXPECT_DOUBLE_EQ(split.percentile(0.9), 4.0 + 0.6 * 4.0);

  // Overflow-only distributions clamp to the top bucket boundary.
  Log2Histogram over;
  over.add(1ULL << Log2Histogram::kBuckets);
  EXPECT_DOUBLE_EQ(
      over.percentile(0.99),
      static_cast<double>(Log2Histogram::bucket_high(Log2Histogram::kBuckets - 1)));
}

// ------------------------------------------------------------ TimeSeries

TimeSeriesSample sample(Cycle cycle) {
  TimeSeriesSample s;
  s.cycle = cycle;
  s.ipc = 1.0 / 3.0;  // not exactly representable in decimal
  s.read_q = 7;
  s.write_q = 3;
  s.inflight = 2;
  s.mean_bank_q = 7.0 / 16.0;
  s.max_bank_q = 4;
  s.open_acts = 5;
  s.busy_tiles = 6;
  s.tile_util = 6.0 / 32.0;
  s.migrations = 9;
  s.dram_hit_rate = 2.0 / 3.0;
  return s;
}

TEST(TimeSeriesTest, CsvRoundTripIsExact) {
  TimeSeries ts;
  ts.push(sample(1024));
  ts.push(sample(2048));
  const TimeSeries back = TimeSeries::from_csv(ts.to_csv());
  EXPECT_TRUE(ts == back);
  EXPECT_EQ(back.samples().size(), 2u);
  EXPECT_EQ(back.samples()[1].cycle, 2048u);
}

TEST(TimeSeriesTest, FromCsvRejectsMalformedInput) {
  EXPECT_THROW(TimeSeries::from_csv(""), std::runtime_error);
  EXPECT_THROW(TimeSeries::from_csv("not,a,header\n1,2,3\n"),
               std::runtime_error);
  TimeSeries ts;
  ts.push(sample(1));
  std::string csv = ts.to_csv();
  csv += "1,2,3\n";  // truncated row
  EXPECT_THROW(TimeSeries::from_csv(csv), std::runtime_error);
}

// ------------------------------------------------------------ attribution

/// 2-SAG x 2-CD FgNVM bank behind one controller with a collector attached.
/// Geometry: 4096 rows (2048 per SAG), 1 KB rows, 64 B lines, 8 lines per CD
/// segment — row r maps to SAG r/2048, column c to CD c/8.
class ObsFixture {
 public:
  explicit ObsFixture(sched::ControllerConfig cfg = {},
                      nvm::AccessModes modes = nvm::AccessModes::all_on())
      : collector_(ObsConfig{/*enabled=*/true, /*epoch=*/1024,
                             /*max_records=*/65536}) {
    geo_.banks_per_rank = 8;
    geo_.rows_per_bank = 4096;
    geo_.row_bytes = 1024;
    geo_.line_bytes = 64;
    geo_.num_sags = 2;
    geo_.num_cds = 2;
    decoder_ = std::make_unique<mem::AddressDecoder>(geo_);
    ctrl_ = std::make_unique<sched::ControllerT<nvm::FgNvmBank>>(
        geo_, timing_, cfg, nvm::FgNvmBank(geo_, timing_, modes));
    ctrl_->set_collector(&collector_);
  }

  mem::MemRequest request(std::uint64_t bank, std::uint64_t row,
                          std::uint64_t col, OpType op, RequestId id) {
    mem::MemRequest r;
    r.id = id;
    r.op = op;
    r.addr = decoder_->decode(decoder_->encode(0, 0, bank, row, col));
    return r;
  }

  Cycle run_until_complete(RequestId id, Cycle max_cycles = 100000) {
    for (; now_ < max_cycles; ++now_) {
      ctrl_->tick(now_);
      ctrl_->drain_completed(completed_);
      for (const auto& done : completed_) {
        if (done.id == id) return done.completion;
      }
    }
    ADD_FAILURE() << "request " << id << " never completed";
    return kNeverCycle;
  }

  void run_cycles(Cycle n) {
    const Cycle end = now_ + n;
    for (; now_ < end; ++now_) {
      ctrl_->tick(now_);
      ctrl_->drain_completed(completed_);
    }
  }

  const RequestTrace& record_of(RequestId id) {
    for (const RequestTrace& r : collector_.records()) {
      if (r.id == id) return r;
    }
    ADD_FAILURE() << "no trace record for request " << id;
    static RequestTrace missing;
    return missing;
  }

  std::uint64_t blocked(RequestId id, BlockCause cause) {
    return record_of(id).blocked[static_cast<std::size_t>(cause)];
  }

  /// Reads block until their column issues at completion - tCAS - tBURST;
  /// the attribution spans must partition that wait exactly.
  void expect_read_invariant(const RequestTrace& r) {
    ASSERT_EQ(r.op, OpType::kRead);
    const Cycle column_issue = r.completion - timing_.tCAS - timing_.tBURST;
    EXPECT_EQ(r.blocked_total(), column_issue - r.enqueue)
        << "request " << r.id;
    EXPECT_EQ(r.burst, r.completion - timing_.tBURST) << "request " << r.id;
  }

  mem::MemGeometry geo_;
  mem::TimingParams timing_;
  ChannelCollector collector_;
  std::unique_ptr<mem::AddressDecoder> decoder_;
  std::unique_ptr<sched::ControllerT<nvm::FgNvmBank>> ctrl_;
  std::vector<mem::MemRequest> completed_;
  Cycle now_ = 0;
};

TEST(ObsAttributionTest, UncontendedReadHasNoBlockedCycles) {
  ObsFixture f;
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  f.run_until_complete(1);
  const RequestTrace& r = f.record_of(1);
  f.expect_read_invariant(r);
  // The only wait is its own ACT sensing (tRCD): pure service time.
  EXPECT_EQ(f.blocked(1, BlockCause::kService), f.timing_.tRCD);
  EXPECT_EQ(r.blocked_total(), f.timing_.tRCD);
  EXPECT_EQ(r.klass, RequestClass::kRead);
  EXPECT_EQ(r.activate, 0u);
  EXPECT_EQ(r.first_attempt, 0u);
}

TEST(ObsAttributionTest, SharedCdSensingIsCdBusy) {
  // Two same-cycle reads in different SAGs whose lines live in the same CD:
  // Multi-Activation permits overlapping ACTs, but the shared CD's local
  // bitline path serializes the sensing (Section 4).
  ObsFixture f;
  auto a = f.request(0, 10, 0, OpType::kRead, 1);    // SAG 0, CD 0
  auto b = f.request(0, 2048, 0, OpType::kRead, 2);  // SAG 1, CD 0
  ASSERT_EQ(a.addr.sag, 0u);
  ASSERT_EQ(b.addr.sag, 1u);
  ASSERT_EQ(a.addr.cd, b.addr.cd);
  f.ctrl_->enqueue(a, 0);
  f.ctrl_->enqueue(b, 0);
  f.run_until_complete(2);
  f.expect_read_invariant(f.record_of(1));
  f.expect_read_invariant(f.record_of(2));
  EXPECT_GT(f.blocked(2, BlockCause::kCdBusy), 0u);
}

TEST(ObsAttributionTest, SerializedActivationIsSagBusy) {
  // With Multi-Activation off, sensing is serialized bank-wide: a read in a
  // different SAG *and* different CD still waits on the in-flight ACT.
  nvm::AccessModes modes = nvm::AccessModes::all_on();
  modes.multi_activation = false;
  ObsFixture f({}, modes);
  auto a = f.request(0, 10, 0, OpType::kRead, 1);    // SAG 0, CD 0
  auto b = f.request(0, 2048, 8, OpType::kRead, 2);  // SAG 1, CD 1
  ASSERT_NE(a.addr.sag, b.addr.sag);
  ASSERT_NE(a.addr.cd, b.addr.cd);
  f.ctrl_->enqueue(a, 0);
  f.ctrl_->enqueue(b, 0);
  f.run_until_complete(2);
  f.expect_read_invariant(f.record_of(2));
  EXPECT_GT(f.blocked(2, BlockCause::kSagBusy), 0u);
  EXPECT_EQ(f.blocked(2, BlockCause::kCdBusy), 0u);
}

TEST(ObsAttributionTest, ProgramPulseIsWriteBlock) {
  // A draining write holds its SAG for the full program pulse; a read
  // arriving at the same SAG during the pulse is write-blocked.
  sched::ControllerConfig cfg;
  cfg.wq_high = 2;
  cfg.wq_low = 1;
  ObsFixture f(cfg);
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kWrite, 1), 0);
  f.ctrl_->enqueue(f.request(0, 11, 0, OpType::kWrite, 2), 0);
  f.run_cycles(2);  // drain starts: ACT + column for the first write
  f.ctrl_->enqueue(f.request(0, 12, 0, OpType::kRead, 3), f.now_);
  f.run_until_complete(3);
  f.expect_read_invariant(f.record_of(3));
  EXPECT_GT(f.blocked(3, BlockCause::kWriteBlock), 0u);
}

TEST(ObsAttributionTest, BusContentionIsBusConflict) {
  // Two reads in different banks contend only for the shared data bus.
  ObsFixture f;
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  f.ctrl_->enqueue(f.request(1, 10, 0, OpType::kRead, 2), 0);
  f.run_until_complete(2);
  f.expect_read_invariant(f.record_of(1));
  f.expect_read_invariant(f.record_of(2));
  EXPECT_GT(f.blocked(2, BlockCause::kBusConflict), 0u);
}

TEST(ObsAttributionTest, FcfsTailIsQueuePolicy) {
  sched::ControllerConfig cfg;
  cfg.policy = sched::SchedulerPolicy::kFcfs;
  ObsFixture f(cfg);
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);
  f.ctrl_->enqueue(f.request(1, 10, 0, OpType::kRead, 2), 0);
  f.run_until_complete(2);
  f.expect_read_invariant(f.record_of(2));
  EXPECT_GT(f.blocked(2, BlockCause::kQueuePolicy), 0u);
}

TEST(ObsAttributionTest, UnderfetchResenseIsClassified) {
  // Second read hits the open row but an unsensed CD: the re-sensing ACT
  // reclassifies it as an underfetch read.
  ObsFixture f;
  f.ctrl_->enqueue(f.request(0, 10, 0, OpType::kRead, 1), 0);  // CD 0
  f.run_until_complete(1);
  f.ctrl_->enqueue(f.request(0, 10, 8, OpType::kRead, 2), f.now_);  // CD 1
  f.run_until_complete(2);
  EXPECT_EQ(f.record_of(1).klass, RequestClass::kRead);
  EXPECT_EQ(f.record_of(2).klass, RequestClass::kUnderfetchRead);
  EXPECT_EQ(f.collector_.histogram(RequestClass::kUnderfetchRead).total(), 1u);
}

TEST(ObsAttributionTest, CauseTotalsMatchPerRecordSums) {
  // A batch with a bit of everything; afterwards the collector's per-cause
  // totals must equal the per-record sums, and each read's blocked spans
  // must partition its queue wait exactly.
  ObsFixture f;
  RequestId id = 1;
  for (std::uint64_t i = 0; i < 24; ++i) {
    const std::uint64_t bank = i % 4;
    const std::uint64_t row = (i % 2) * 2048 + i;  // both SAGs
    const std::uint64_t col = (i % 2) * 8;         // both CDs
    f.ctrl_->enqueue(f.request(bank, row, col, OpType::kRead, id++), f.now_);
    f.run_cycles(2);
  }
  f.run_cycles(5000);
  ASSERT_EQ(f.completed_.size(), 24u);
  ASSERT_EQ(f.collector_.records().size(), 24u);

  std::array<std::uint64_t, kNumBlockCauses> sums{};
  double latency_sum = 0.0;
  for (const RequestTrace& r : f.collector_.records()) {
    f.expect_read_invariant(r);
    for (std::size_t c = 0; c < kNumBlockCauses; ++c) sums[c] += r.blocked[c];
    latency_sum += static_cast<double>(r.completion - r.enqueue);
  }
  for (std::size_t c = 0; c < kNumBlockCauses; ++c) {
    EXPECT_EQ(f.collector_.cause_totals()[c], sums[c])
        << to_string(static_cast<BlockCause>(c));
  }
  // Aggregate consistency with the controller's own latency accounting:
  // total blocked cycles == sum(read latency) - count * (tCAS + tBURST).
  const Distribution& dist =
      f.ctrl_->stats().distribution("read_latency");
  EXPECT_EQ(dist.count(), 24u);
  EXPECT_DOUBLE_EQ(dist.sum(), latency_sum);
  std::uint64_t blocked_total = 0;
  for (const std::uint64_t s : sums) blocked_total += s;
  EXPECT_EQ(static_cast<double>(blocked_total),
            dist.sum() - 24.0 * static_cast<double>(f.timing_.tCAS +
                                                    f.timing_.tBURST));
}

// ------------------------------------------------------------ end to end

sys::SystemConfig obs_system_config() {
  Config raw;
  raw.set("name", "obs_test");
  raw.set("sags", "4");
  raw.set("cds", "4");
  raw.set("scheduler", "frfcfs_aug");
  raw.set("obs_trace", "true");
  raw.set("obs_epoch", "256");
  return sys::SystemConfig::from_config(raw);
}

TEST(ObsEndToEndTest, RunnerExportsObserver) {
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("milc"), 3000);
  const sys::SystemConfig cfg = obs_system_config();
  const sim::RunResult r = sim::run_memory_only(tr, cfg);
  ASSERT_NE(r.obs, nullptr);
  EXPECT_EQ(r.obs->workload(), tr.name);

  // Every accepted request produced exactly one record (none dropped), and
  // the per-cause blocked totals reconcile with the controller's aggregate
  // read-latency accounting, net of forwarded reads served from the queue.
  const std::uint64_t completed = r.obs->completed_records();
  EXPECT_EQ(r.obs->dropped_records(), 0u);
  EXPECT_EQ(completed + r.obs->forwarded() + r.obs->coalesced(),
            r.reads + r.writes);

  std::uint64_t read_blocked = 0;
  std::uint64_t read_count = 0;
  double read_latency = 0.0;
  for (std::uint64_t ch = 0; ch < r.obs->channels(); ++ch) {
    for (const RequestTrace& rec : r.obs->channel(ch).records()) {
      if (rec.op != OpType::kRead) continue;
      ++read_count;
      read_blocked += rec.blocked_total();
      read_latency += static_cast<double>(rec.completion - rec.enqueue);
    }
  }
  const Distribution& dist = r.controller.distribution("read_latency");
  EXPECT_EQ(dist.count(), read_count + r.obs->forwarded());
  // Forwarded reads are recorded with latency 1 and never enter a queue.
  EXPECT_DOUBLE_EQ(
      read_latency + static_cast<double>(r.obs->forwarded()), dist.sum());
  const sys::SystemConfig& sc = cfg;
  EXPECT_EQ(static_cast<double>(read_blocked),
            read_latency - static_cast<double>(read_count) *
                               static_cast<double>(sc.timing.tCAS +
                                                   sc.timing.tBURST));

  // Time-series: one sample on every epoch boundary, strictly increasing.
  const auto& samples = r.obs->series().samples();
  ASSERT_FALSE(samples.empty());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].cycle % cfg.obs.epoch, 0u) << "sample " << i;
    if (i > 0) {
      EXPECT_GT(samples[i].cycle, samples[i - 1].cycle);
    }
  }

  // Exports: JSON mentions every cause; CSVs are well-formed and the
  // time-series CSV round-trips exactly.
  const std::string json = sim::obs_json(*r.obs);
  for (std::size_t c = 1; c < kNumBlockCauses; ++c) {
    EXPECT_NE(json.find(to_string(static_cast<BlockCause>(c))),
              std::string::npos);
  }
  const TimeSeries back =
      TimeSeries::from_csv(sim::obs_timeseries_csv(*r.obs));
  EXPECT_TRUE(back == r.obs->series());
  const std::string req_csv = sim::obs_requests_csv(*r.obs);
  const std::uint64_t rows =
      static_cast<std::uint64_t>(std::count(req_csv.begin(), req_csv.end(),
                                            '\n'));
  EXPECT_EQ(rows, completed + 1);  // header + one row per record
}

// No skip of the event-skipping loops may pass an epoch sample: with an
// observer attached, every run kind must sample the same cycles (and see
// the same queue state there) as the cycle-accurate loop.
class ObsLoopTest : public ::testing::TestWithParam<const char*> {
 protected:
  static void expect_same_series(const obs::Observer* skip,
                                 const obs::Observer* eager) {
    ASSERT_NE(skip, nullptr);
    ASSERT_NE(eager, nullptr);
    EXPECT_GT(eager->series().samples().size(), 8u);
    EXPECT_TRUE(skip->series() == eager->series())
        << "event-skip:\n" << skip->series().to_csv()
        << "cycle-accurate:\n" << eager->series().to_csv();
  }

  const trace::Trace trace_ =
      trace::generate_trace(trace::spec2006_profile(GetParam()), 3000);
  const sys::SystemConfig cfg_ = obs_system_config();
};

TEST_P(ObsLoopTest, WorkloadSeriesMatchesCycleAccurate) {
  const sim::RunResult skip = sim::run_workload(
      trace_, cfg_, {}, 500'000'000, sim::LoopMode::kEventSkip);
  const sim::RunResult eager = sim::run_workload(
      trace_, cfg_, {}, 500'000'000, sim::LoopMode::kCycleAccurate);
  expect_same_series(skip.obs.get(), eager.obs.get());
}

TEST_P(ObsLoopTest, MemoryOnlySeriesMatchesCycleAccurate) {
  const sim::RunResult skip = sim::run_memory_only(
      trace_, cfg_, 500'000'000, sim::LoopMode::kEventSkip);
  const sim::RunResult eager = sim::run_memory_only(
      trace_, cfg_, 500'000'000, sim::LoopMode::kCycleAccurate);
  expect_same_series(skip.obs.get(), eager.obs.get());
}

TEST_P(ObsLoopTest, MultiprogrammedSeriesMatchesCycleAccurate) {
  const std::vector<trace::Trace> traces{trace_, trace_};
  const sim::MultiProgramResult skip = sim::run_multiprogrammed(
      traces, cfg_, {}, 500'000'000, sim::LoopMode::kEventSkip);
  const sim::MultiProgramResult eager = sim::run_multiprogrammed(
      traces, cfg_, {}, 500'000'000, sim::LoopMode::kCycleAccurate);
  expect_same_series(skip.obs.get(), eager.obs.get());
}

INSTANTIATE_TEST_SUITE_P(Profiles, ObsLoopTest,
                         ::testing::Values("milc", "mcf"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

TEST(ObsEndToEndTest, DisabledByDefault) {
  const trace::Trace tr =
      trace::generate_trace(trace::spec2006_profile("milc"), 500);
  Config raw;
  const sys::SystemConfig cfg = sys::SystemConfig::from_config(raw);
  EXPECT_FALSE(cfg.obs.enabled);
  const sim::RunResult r = sim::run_memory_only(tr, cfg);
  EXPECT_EQ(r.obs, nullptr);
}

}  // namespace
}  // namespace fgnvm::obs
