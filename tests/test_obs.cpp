// Flight-recorder tests (DESIGN.md §14): ring overflow keeps the newest
// events and counts drops, lane timestamps clamp monotone, histogram
// percentiles are exact nearest-rank, the cross-rank metric aggregation
// reduces correctly, PhaseBreakdown::maxAcross's single collective equals
// the field-wise max, concurrent emission into distinct lanes is
// race-free (the tsan preset runs this file via the `threads` label), the
// Chrome trace JSON is well-formed and clock-ordered per lane, and the
// headline property — a fully traced streamed + threaded + overlapped +
// rebalanced + failure-injected join is bit-identical to the untraced run
// while its trace covers every PhaseBreakdown phase.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <sstream>
#include <vector>

#include "core/spatial_join.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "util/thread_pool.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;
namespace ob = mvio::obs;

namespace {

std::string tempPath(const char* stem) {
  return std::string(::testing::TempDir()) + stem;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Minimal trace-event view parsed back out of the writer's JSON (the
/// writer emits flat objects whose only nesting is "args":{...}).
struct Ev {
  std::string name, ph;
  int pid = -1, tid = -1;
  double ts = 0;
};

std::vector<std::string> splitTopLevelObjects(const std::string& array) {
  std::vector<std::string> out;
  int depth = 0;
  std::size_t start = 0;
  bool inString = false;
  for (std::size_t i = 0; i < array.size(); ++i) {
    const char c = array[i];
    if (inString) {
      if (c == '\\') ++i;
      else if (c == '"') inString = false;
      continue;
    }
    if (c == '"') inString = true;
    else if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) out.push_back(array.substr(start, i - start + 1));
    }
  }
  return out;
}

std::string strField(const std::string& obj, const std::string& key) {
  const std::string tag = "\"" + key + "\":\"";
  const std::size_t p = obj.find(tag);
  if (p == std::string::npos) return "";
  const std::size_t b = p + tag.size();
  return obj.substr(b, obj.find('"', b) - b);
}

double numField(const std::string& obj, const std::string& key) {
  const std::string tag = "\"" + key + "\":";
  const std::size_t p = obj.find(tag);
  if (p == std::string::npos) return -1;
  return std::strtod(obj.c_str() + p + tag.size(), nullptr);
}

std::vector<Ev> parseTrace(const std::string& path) {
  const std::string json = slurp(path);
  const std::size_t b = json.find("\"traceEvents\":[");
  const std::size_t e = json.rfind(']');
  EXPECT_NE(b, std::string::npos);
  std::vector<Ev> out;
  for (const std::string& obj : splitTopLevelObjects(json.substr(b, e - b))) {
    // Skip the nested "args" objects the splitter also collects and the
    // metadata records — only B/E/i events carry a timeline.
    const std::string ph = strField(obj, "ph");
    if (ph != "B" && ph != "E" && ph != "i") continue;
    out.push_back({strField(obj, "name"), ph, static_cast<int>(numField(obj, "pid")),
                   static_cast<int>(numField(obj, "tid")), numField(obj, "ts")});
  }
  return out;
}

/// Per-lane invariants every trace the writer produces must satisfy:
/// nondecreasing timestamps and balanced begin/end nesting.
void expectWellFormed(const std::vector<Ev>& events) {
  std::map<std::pair<int, int>, double> lastTs;
  std::map<std::pair<int, int>, int> depth;
  for (const Ev& ev : events) {
    const auto key = std::make_pair(ev.pid, ev.tid);
    const auto it = lastTs.find(key);
    if (it != lastTs.end()) {
      EXPECT_GE(ev.ts, it->second - 1e-6)
          << ev.name << " steps back on lane " << ev.pid << ":" << ev.tid;
    }
    lastTs[key] = ev.ts;
    if (ev.ph == "B") depth[key] += 1;
    if (ev.ph == "E") {
      EXPECT_GT(depth[key], 0) << ev.name << " ends an unopened span";
      depth[key] -= 1;
    }
  }
  for (const auto& [key, d] : depth) {
    EXPECT_EQ(d, 0) << "lane " << key.first << ":" << key.second << " left spans open";
  }
}

}  // namespace

// ---- Ring buffer ---------------------------------------------------------

TEST(TraceRing, OverflowKeepsNewestAndCountsDrops) {
  ob::TraceLane lane(4);
  for (int i = 0; i < 10; ++i) {
    lane.emit("ev", static_cast<double>(i), ob::EventType::kInstant,
              std::to_string(i));
  }
  EXPECT_EQ(lane.emitted(), 10u);
  EXPECT_EQ(lane.drops(), 6u);
  const auto events = lane.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].detail, std::to_string(6 + i))
        << "overflow must keep the newest events, oldest first";
  }
}

TEST(TraceRing, TimestampsClampMonotone) {
  // Worker spans priced from measured CPU can ask for a timestamp behind
  // the lane's history (deferred charge under round overlap); the lane
  // clamps instead of recording time travel.
  ob::TraceLane lane(8);
  lane.emit("a", 5.0, ob::EventType::kBegin);
  lane.emit("a", 4.0, ob::EventType::kEnd);   // behind: clamps to 5.0
  lane.emit("b", 4.5, ob::EventType::kBegin);  // still behind: clamps
  lane.emit("b", 6.0, ob::EventType::kEnd);
  const auto events = lane.snapshot();
  ASSERT_EQ(events.size(), 4u);
  double last = 0;
  for (const auto& ev : events) {
    EXPECT_GE(ev.t, last);
    last = ev.t;
  }
  EXPECT_EQ(events[1].t, 5.0);
  EXPECT_EQ(events[2].t, 5.0);
  EXPECT_EQ(events[3].t, 6.0);
}

// ---- Metrics -------------------------------------------------------------

TEST(Metrics, HistogramExactPercentiles) {
  ob::Histogram h;
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) values.push_back(i);
  std::shuffle(values.begin(), values.end(), std::mt19937(7));
  for (const double v : values) h.observe(v);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  // Nearest-rank (ceil(q*N), 1-based) is exact, not interpolated.
  EXPECT_EQ(h.quantile(0.5), 50.0);
  EXPECT_EQ(h.quantile(0.99), 99.0);
  EXPECT_EQ(h.quantile(0.0), 1.0);
  EXPECT_EQ(h.quantile(1.0), 100.0);
  EXPECT_EQ(ob::exactQuantile({3.0}, 0.99), 3.0);
  EXPECT_EQ(ob::exactQuantile({}, 0.5), 0.0);
}

TEST(Metrics, AggregateAcrossRanks) {
  std::mutex mu;
  std::vector<ob::MetricSummary> merged;
  mm::Runtime::run(4, [&](mm::Comm& comm) {
    ob::Session session(ob::TraceConfig::off(), 0);
    const double r = comm.rank();
    ob::addCount("bytes", static_cast<std::uint64_t>(10 * (comm.rank() + 1)));
    ob::setGauge("imbalance", 1.0 + r);
    ob::observe("cell_seconds", r + 1);
    auto out = ob::aggregateMetrics(comm);
    std::lock_guard<std::mutex> lock(mu);
    if (comm.rank() == 0) merged = std::move(out);
  });
  ASSERT_EQ(merged.size(), 3u);  // sorted by name
  EXPECT_EQ(merged[0].name, "bytes");
  EXPECT_EQ(merged[0].kind, 'c');
  EXPECT_EQ(merged[0].count, 4u);  // one sample per rank
  EXPECT_EQ(merged[0].min, 10.0);
  EXPECT_EQ(merged[0].max, 40.0);
  EXPECT_EQ(merged[0].sum, 100.0);
  EXPECT_EQ(merged[0].p50, 20.0);
  EXPECT_EQ(merged[0].p99, 40.0);
  EXPECT_EQ(merged[1].name, "cell_seconds");
  EXPECT_EQ(merged[1].kind, 'h');
  EXPECT_EQ(merged[1].count, 4u);  // ranks' samples merged
  EXPECT_EQ(merged[1].sum, 10.0);
  EXPECT_EQ(merged[1].p50, 2.0);
  EXPECT_EQ(merged[2].name, "imbalance");
  EXPECT_EQ(merged[2].kind, 'g');
  EXPECT_EQ(merged[2].min, 1.0);
  EXPECT_EQ(merged[2].max, 4.0);
}

TEST(Metrics, HelpersNoOpWithoutSession) {
  // Tier-1 path: no session installed, the helpers must be inert.
  EXPECT_FALSE(ob::metricsOn());
  EXPECT_FALSE(ob::tracingOn());
  ob::addCount("nope", 1);
  ob::observe("nope", 1.0);
  ob::traceInstant("nope");
}

// ---- PhaseBreakdown::maxAcross single collective -------------------------

TEST(Phases, MaxAcrossMatchesFieldwiseMax) {
  // The folded 23-slot uint64 reduction must equal the field-wise max the
  // old two-collective form computed — non-negative doubles order by bit
  // pattern, so the result is bit-exact.
  constexpr int kProcs = 5;
  const auto build = [](int rank) {
    mc::PhaseBreakdown p;
    const double r = rank;
    p.read = 1.25 * r;
    p.parse = 7.0 - r;          // max on rank 0
    p.partition = 0.003 * r;
    p.comm = r == 2 ? 9.5 : 0.25;
    p.compute = 1e-9 * r;
    p.spill = 0.5 * r;
    p.migrate = r == 1 ? 3.125 : 0;
    p.checkpoint = 0.0625 * r;
    p.recovery = r == 3 ? 2.5 : 0;
    p.compaction = 0.125 * r;
    p.overlapped = 11.0 - 2 * r;  // max on rank 0
    p.workerCpu = 4.0 * r;
    p.workerCritical = 2.0 * r;
    p.rounds = static_cast<std::uint64_t>(3 + rank % 2);
    p.refineSpillBytes = static_cast<std::uint64_t>(1000 * rank);
    p.migrateBytes = static_cast<std::uint64_t>(rank == 1 ? 777 : 5);
    p.migrateRounds = static_cast<std::uint64_t>(rank);
    p.checkpointBytes = static_cast<std::uint64_t>(1 << rank);
    p.checkpointEpochs = static_cast<std::uint64_t>(rank == 4 ? 9 : 2);
    p.recoveryBytes = static_cast<std::uint64_t>(50 - 10 * rank);
    p.recoveryRounds = static_cast<std::uint64_t>(rank % 3);
    p.compactionBytes = static_cast<std::uint64_t>(13 * rank);
    p.reclaimedBytes = static_cast<std::uint64_t>(rank == 2 ? 4096 : 0);
    return p;
  };
  mc::PhaseBreakdown expected;
  for (int r = 0; r < kProcs; ++r) {
    const mc::PhaseBreakdown p = build(r);
    expected.read = std::max(expected.read, p.read);
    expected.parse = std::max(expected.parse, p.parse);
    expected.partition = std::max(expected.partition, p.partition);
    expected.comm = std::max(expected.comm, p.comm);
    expected.compute = std::max(expected.compute, p.compute);
    expected.spill = std::max(expected.spill, p.spill);
    expected.migrate = std::max(expected.migrate, p.migrate);
    expected.checkpoint = std::max(expected.checkpoint, p.checkpoint);
    expected.recovery = std::max(expected.recovery, p.recovery);
    expected.compaction = std::max(expected.compaction, p.compaction);
    expected.overlapped = std::max(expected.overlapped, p.overlapped);
    expected.workerCpu = std::max(expected.workerCpu, p.workerCpu);
    expected.workerCritical = std::max(expected.workerCritical, p.workerCritical);
    expected.rounds = std::max(expected.rounds, p.rounds);
    expected.refineSpillBytes = std::max(expected.refineSpillBytes, p.refineSpillBytes);
    expected.migrateBytes = std::max(expected.migrateBytes, p.migrateBytes);
    expected.migrateRounds = std::max(expected.migrateRounds, p.migrateRounds);
    expected.checkpointBytes = std::max(expected.checkpointBytes, p.checkpointBytes);
    expected.checkpointEpochs = std::max(expected.checkpointEpochs, p.checkpointEpochs);
    expected.recoveryBytes = std::max(expected.recoveryBytes, p.recoveryBytes);
    expected.recoveryRounds = std::max(expected.recoveryRounds, p.recoveryRounds);
    expected.compactionBytes = std::max(expected.compactionBytes, p.compactionBytes);
    expected.reclaimedBytes = std::max(expected.reclaimedBytes, p.reclaimedBytes);
  }

  std::mutex mu;
  mc::PhaseBreakdown reduced;
  mm::Runtime::run(kProcs, [&](mm::Comm& comm) {
    const mc::PhaseBreakdown out = build(comm.rank()).maxAcross(comm);
    std::lock_guard<std::mutex> lock(mu);
    if (comm.rank() == 0) reduced = out;
  });
  EXPECT_EQ(reduced.read, expected.read);
  EXPECT_EQ(reduced.parse, expected.parse);
  EXPECT_EQ(reduced.partition, expected.partition);
  EXPECT_EQ(reduced.comm, expected.comm);
  EXPECT_EQ(reduced.compute, expected.compute);
  EXPECT_EQ(reduced.spill, expected.spill);
  EXPECT_EQ(reduced.migrate, expected.migrate);
  EXPECT_EQ(reduced.checkpoint, expected.checkpoint);
  EXPECT_EQ(reduced.recovery, expected.recovery);
  EXPECT_EQ(reduced.compaction, expected.compaction);
  EXPECT_EQ(reduced.overlapped, expected.overlapped);
  EXPECT_EQ(reduced.workerCpu, expected.workerCpu);
  EXPECT_EQ(reduced.workerCritical, expected.workerCritical);
  EXPECT_EQ(reduced.rounds, expected.rounds);
  EXPECT_EQ(reduced.refineSpillBytes, expected.refineSpillBytes);
  EXPECT_EQ(reduced.migrateBytes, expected.migrateBytes);
  EXPECT_EQ(reduced.migrateRounds, expected.migrateRounds);
  EXPECT_EQ(reduced.checkpointBytes, expected.checkpointBytes);
  EXPECT_EQ(reduced.checkpointEpochs, expected.checkpointEpochs);
  EXPECT_EQ(reduced.recoveryBytes, expected.recoveryBytes);
  EXPECT_EQ(reduced.recoveryRounds, expected.recoveryRounds);
  EXPECT_EQ(reduced.compactionBytes, expected.compactionBytes);
  EXPECT_EQ(reduced.reclaimedBytes, expected.reclaimedBytes);
}

// ---- Concurrent emission (tsan preset runs this via -L threads) ----------

TEST(TraceThreads, ConcurrentLaneEmissionIsRaceFree) {
  // Lanes are single-writer by contract: each pool worker owns exactly
  // one lane. Hammering distinct lanes concurrently must be clean under
  // TSan and lose nothing.
  constexpr int kWorkers = 4;
  constexpr int kEvents = 2000;
  ob::Tracer tracer(ob::TraceConfig::on(1 << 12), kWorkers);
  mvio::util::ThreadPool pool(kWorkers);
  pool.runOnWorkers([&](int w) {
    ob::TraceLane& lane = tracer.lane(ob::Tracer::workerLane(w));
    for (int i = 0; i < kEvents; ++i) {
      lane.emit("tick", static_cast<double>(i), ob::EventType::kInstant);
    }
  });
  for (int w = 0; w < kWorkers; ++w) {
    const ob::TraceLane& lane = tracer.lane(ob::Tracer::workerLane(w));
    EXPECT_EQ(lane.emitted(), static_cast<std::uint64_t>(kEvents));
    EXPECT_EQ(lane.drops(), 0u);
    EXPECT_EQ(lane.snapshot().size(), static_cast<std::size_t>(kEvents));
  }
  EXPECT_EQ(tracer.lane(ob::Tracer::mainLane()).emitted(), 0u);
}

// ---- Chrome trace writer -------------------------------------------------

TEST(TraceWriter, ChromeJsonWellFormedAndClockOrdered) {
  const std::string path = tempPath("trace_writer.json");
  mm::Runtime::run(2, [&](mm::Comm& comm) {
    // Rank 1 uses a tiny ring so end events whose begins were dropped
    // exercise the writer's orphan-skip path.
    ob::Session session(ob::TraceConfig::on(comm.rank() == 0 ? 64 : 6), 1);
    for (int i = 0; i < 8; ++i) {
      ob::ScopedSpan outer("round");
      comm.clock().advanceBy(0.5);
      {
        ob::ScopedSpan inner("comm");
        comm.clock().advanceBy(0.25);
        ob::traceInstant("note", "detail with \"quotes\"\nand newline");
      }
    }
    ob::traceSpanAtLane(session.tracer()->prepLane(), "parse", 0.125, 0.875);
    ob::writeChromeTrace(comm, path);
  });

  const std::vector<Ev> events = parseTrace(path);
  ASSERT_FALSE(events.empty());
  expectWellFormed(events);
  const std::string raw = slurp(path);
  EXPECT_NE(raw.find("\"process_name\""), std::string::npos);
  EXPECT_NE(raw.find("\"rank 1\""), std::string::npos);
  EXPECT_NE(raw.find("\"prep\""), std::string::npos);
  EXPECT_NE(raw.find("\\\"quotes\\\""), std::string::npos) << "details must be JSON-escaped";
  EXPECT_NE(raw.find("\"droppedEvents\""), std::string::npos);
  // Rank 1's 6-slot ring dropped events; rank 0's kept all 8 rounds.
  int rank0Rounds = 0;
  for (const Ev& ev : events) {
    if (ev.pid == 0 && ev.name == "round" && ev.ph == "B") ++rank0Rounds;
  }
  EXPECT_EQ(rank0Rounds, 8);
  std::remove(path.c_str());
}

// ---- Headline: traced run bit-identical, trace covers every phase --------

namespace {

/// Streamed + threaded + overlapped + budget-bound + checkpointed +
/// rebalanced join with a mid-stream kill: every PhaseBreakdown phase is
/// exercised in one run.
mc::JoinConfig fullPipelineConfig(const std::string& ckptDir) {
  mc::JoinConfig cfg;
  cfg.framework.gridCells = 36;
  cfg.framework.threadsPerRank = 4;
  cfg.framework.rebalanceCells = true;
  // The 4-worker pool parses threads chunks per exchange round, so chunks
  // are kept small to leave enough rounds for two sealed epochs (the
  // compaction fold needs a base target behind the newest seal).
  cfg.framework.stream.chunkBytes = 2 << 10;
  cfg.framework.stream.memoryBudget = 32 << 10;
  cfg.framework.stream.overlapRounds = true;
  cfg.framework.stream.checkpointEveryRounds = 1;
  cfg.framework.stream.checkpointDir = ckptDir;
  cfg.framework.stream.compaction.everyEpochs = 1;
  cfg.framework.failSchedule = {{2, 3, 0}};
  return cfg;
}

}  // namespace

TEST(TraceEndToEnd, TracedJoinBitIdenticalAndCoversAllPhases) {
  mp::LustreParams params;
  params.nodes = 8;
  auto volume = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 61);
  specR.space.world = mg::Envelope(0, 0, 20, 20);
  volume->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(
                              mo::generateWktText(mo::RecordGenerator(specR), 1500)));
  mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 62);
  specS.space.world = specR.space.world;
  volume->create("s.wkt", std::make_shared<mp::MemoryBackingStore>(
                              mo::generateWktText(mo::RecordGenerator(specS), 800)));
  mc::WktParser parser;

  const std::string tracePath = tempPath("trace_join.json");
  std::array<std::vector<mc::JoinPair>, 2> pairs;
  std::array<std::uint64_t, 2> globalPairs{0, 0};
  std::array<std::uint64_t, 2> rounds{0, 0};
  std::array<std::uint64_t, 2> checkpointBytes{0, 0};
  std::array<int, 2> died{0, 0};

  for (int mode = 0; mode < 2; ++mode) {  // 0 = untraced, 1 = traced
    const bool traced = mode == 1;
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      const mc::JoinConfig cfg =
          fullPipelineConfig(traced ? "__ck_obs_t" : "__ck_obs_u");
      ob::Session session(traced ? ob::TraceConfig::on(1 << 14) : ob::TraceConfig::off(),
                          cfg.framework.threadsPerRank);
      mc::DatasetHandle r{"r.wkt", &parser, {}};
      mc::DatasetHandle s{"s.wkt", &parser, {}};
      std::vector<mc::JoinPair> local;
      const auto stats = mc::spatialJoin(comm, *volume, r, s, cfg, &local);
      const auto reduced = stats.phases.maxAcross(comm);
      if (traced) ob::writeChromeTrace(comm, tracePath);
      std::lock_guard<std::mutex> lock(mu);
      auto& p = pairs[static_cast<std::size_t>(mode)];
      p.insert(p.end(), local.begin(), local.end());
      if (stats.recovery.died) died[static_cast<std::size_t>(mode)] += 1;
      if (!stats.recovery.died) globalPairs[static_cast<std::size_t>(mode)] = stats.globalPairs;
      if (comm.rank() == 0) {
        rounds[static_cast<std::size_t>(mode)] = reduced.rounds;
        checkpointBytes[static_cast<std::size_t>(mode)] = reduced.checkpointBytes;
      }
    });
    std::sort(pairs[static_cast<std::size_t>(mode)].begin(),
              pairs[static_cast<std::size_t>(mode)].end());
  }

  // Bit-identity: the recorder only reads the clock, so the traced run's
  // results — and its deterministic byte/round accounting — are the
  // untraced run's, exactly.
  ASSERT_FALSE(pairs[0].empty());
  EXPECT_EQ(died[0], 1);
  EXPECT_EQ(died[1], 1);
  EXPECT_EQ(pairs[1], pairs[0]) << "tracing must not change the join result";
  EXPECT_EQ(globalPairs[1], globalPairs[0]);
  EXPECT_EQ(rounds[1], rounds[0]);
  EXPECT_EQ(checkpointBytes[1], checkpointBytes[0]);

  // The trace is well-formed and covers every PhaseBreakdown phase.
  const std::vector<Ev> events = parseTrace(tracePath);
  ASSERT_FALSE(events.empty());
  expectWellFormed(events);
  std::map<std::string, int> spanCount;
  bool workerSpan = false;
  bool prepParse = false;
  for (const Ev& ev : events) {
    if (ev.ph == "B") {
      spanCount[ev.name] += 1;
      if (ev.tid >= 1 && ev.tid <= 4) workerSpan = true;
      if (ev.tid == 5 && ev.name == "parse") prepParse = true;  // prep lane: after 4 workers
    }
  }
  for (const char* phase : {"read", "parse", "partition", "comm", "compute", "spill",
                            "migrate", "checkpoint", "recovery", "compaction", "round"}) {
    EXPECT_GE(spanCount[phase], 1) << "no span for phase " << phase;
  }
  EXPECT_TRUE(workerSpan) << "worker lanes must carry parse/compute spans";
  EXPECT_TRUE(prepParse) << "round overlap must replay each chunk's deferred parse on the prep lane";
  std::remove(tracePath.c_str());
}

// ---- Run report ----------------------------------------------------------

TEST(RunReport, JsonRoundTripsThroughComparatorSchema) {
  const std::string path = tempPath("report_obs.json");
  std::mutex mu;
  mm::Runtime::run(2, [&](mm::Comm& comm) {
    ob::Session session(ob::TraceConfig::off(), 0);
    ob::addCount("bytes", static_cast<std::uint64_t>(100 * (comm.rank() + 1)));
    ob::RunReport report;
    report.name = "unit";
    report.setup = "2 ranks";
    mc::PhaseBreakdown local;
    local.read = 1.0 + comm.rank();
    local.rounds = 3;
    const mc::PhaseBreakdown reduced = report.capturePhases(comm, local);
    report.captureMetrics(comm);
    std::lock_guard<std::mutex> lock(mu);
    if (comm.rank() == 0) {
      // The same reduction feeds the caller (table) and the report.
      EXPECT_EQ(reduced.read, 2.0);
      report.addValue("pairs", 42);
      report.writeFile(path);
    }
  });
  const std::string json = slurp(path);
  EXPECT_NE(json.find("\"schema\":\"mvio.run_report\""), std::string::npos);
  EXPECT_NE(json.find("\"version\":1"), std::string::npos);
  EXPECT_NE(json.find("\"read\":2"), std::string::npos);
  EXPECT_NE(json.find("\"rounds\":3"), std::string::npos);
  EXPECT_NE(json.find("\"pairs\":42"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"bytes\""), std::string::npos);
  EXPECT_NE(json.find("\"sum\":300"), std::string::npos);
  std::remove(path.c_str());
}
