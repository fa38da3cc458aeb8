// Hybrid MPI+threads pipeline tests (DESIGN.md §10): the per-rank worker
// pool itself, the record-boundary slicer behind parallel parse, and the
// headline property of the whole tentpole — at any threadsPerRank, with
// or without round overlap, composed with streaming budgets, owned-cell
// rebalancing, and injected rank failure, every pipeline (join, overlay,
// index, range query) produces results bit-identical to the serial run.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/parser.hpp"
#include "core/range_query.hpp"
#include "core/spatial_join.hpp"
#include "geom/batch_shard.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;
namespace mu = mvio::util;

namespace {

std::shared_ptr<mp::Volume> lustreVolume(int nodes = 8) {
  mp::LustreParams params;
  params.nodes = nodes;
  return std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
}

/// Read a whole volume file into a string (for bit-identity assertions).
std::string fileBytes(mp::Volume& volume, const std::string& name) {
  const auto file = volume.lookup(name);
  std::string bytes(file->data->size(), '\0');
  file->data->read(0, bytes.data(), bytes.size());
  return bytes;
}

}  // namespace

// ---- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunOnWorkersCoversEveryWorkerOnce) {
  mu::ThreadPool pool(4);
  EXPECT_EQ(pool.threads(), 4);
  std::array<std::atomic<int>, 4> hits{};
  const mu::PoolTiming t = pool.runOnWorkers([&](int w) { hits[static_cast<std::size_t>(w)] += 1; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GE(t.cpuSum, t.cpuMax);
  EXPECT_GE(t.cpuMax, 0.0);

  // The pool is reusable: a second region runs every worker again.
  pool.runOnWorkers([&](int w) { hits[static_cast<std::size_t>(w)] += 1; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
}

TEST(ThreadPool, ParallelForClaimsEveryIndexExactlyOnce) {
  constexpr std::size_t kTasks = 1000;
  mu::ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(kTasks);
  pool.parallelFor(kTasks, [&](int /*w*/, std::size_t i) { hits[i] += 1; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, WorkerExceptionPropagatesAndPoolStaysUsable) {
  mu::ThreadPool pool(4);
  EXPECT_THROW(pool.runOnWorkers([](int w) {
    if (w == 2) MVIO_CHECK(false, "worker 2 boom");
  }),
               mvio::util::Error);
  std::atomic<int> ran{0};
  pool.runOnWorkers([&](int) { ran += 1; });
  EXPECT_EQ(ran.load(), 4);
}

TEST(ThreadPool, SingleThreadRunsInlineOnCaller) {
  mu::ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id seen;
  pool.runOnWorkers([&](int w) {
    EXPECT_EQ(w, 0);
    seen = std::this_thread::get_id();
  });
  EXPECT_EQ(seen, caller);
}

// ---- FormatReader::sliceChunk: record-boundary slicing --------------------

namespace {

/// Every slice must tile the text exactly and start at a record boundary.
void expectValidSlicing(std::string_view text, const std::vector<std::string_view>& parts) {
  std::string joined;
  std::size_t offset = 0;
  for (const std::string_view part : parts) {
    if (!part.empty()) {
      const auto at = static_cast<std::size_t>(part.data() - text.data());
      EXPECT_EQ(at, offset) << "slices must be contiguous";
      if (at != 0) {
        EXPECT_EQ(text[at - 1], '\n') << "a slice must start right after a delimiter";
      }
      offset = at + part.size();
    }
    joined.append(part);
  }
  EXPECT_EQ(joined, text) << "concatenated slices must reproduce the text byte for byte";
}

}  // namespace

TEST(SliceRecords, TilesAtRecordBoundaries) {
  const std::string text =
      "POINT (1 2)\nLINESTRING (0 0, 9 9)\nPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n"
      "POINT (3 4)\nPOINT (5 6)\nPOINT (7 8)\n";
  const mc::WktParser parser;
  for (const int slices : {1, 2, 3, 4, 7, 16}) {
    const auto parts = parser.sliceChunk(text, slices);
    ASSERT_EQ(static_cast<int>(parts.size()), slices);
    expectValidSlicing(text, parts);
  }
}

TEST(SliceRecords, RecordStraddlingTheRawCutStaysWhole) {
  // One long record dominates the middle: every naive byte cut lands
  // inside it, so the slicer must push the cut past its delimiter and the
  // record must end up whole in exactly one slice.
  const std::string big(600, 'x');
  const std::string text = "POINT (1 1)\n" + big + "\nPOINT (2 2)\n";
  const mc::WktParser parser;
  for (const int slices : {2, 3, 8}) {
    const auto parts = parser.sliceChunk(text, slices);
    expectValidSlicing(text, parts);
    int holders = 0;
    for (const std::string_view part : parts) {
      if (part.find(big) != std::string_view::npos) holders += 1;
    }
    EXPECT_EQ(holders, 1) << "the straddling record must live whole in one slice";
  }
}

TEST(SliceRecords, ShortTextsLeaveTrailingSlicesEmpty) {
  const mc::WktParser parser;
  const std::string text = "POINT (1 2)\n";
  const auto parts = parser.sliceChunk(text, 8);
  ASSERT_EQ(parts.size(), 8u);
  EXPECT_EQ(parts[0], text);
  for (std::size_t k = 1; k < parts.size(); ++k) EXPECT_TRUE(parts[k].empty());
  // No trailing delimiter: the final record still lands in one slice.
  const auto open = parser.sliceChunk("POINT (1 2)\nPOINT (3 4)", 4);
  expectValidSlicing("POINT (1 2)\nPOINT (3 4)", open);
}

// ---- Parallel parse: byte-identity and stats attribution ------------------

namespace {

/// All seven OGC types plus the parser edge cases the slicer must not
/// disturb: userData tabs, blank lines, CRLF line ends, malformed records
/// (including ones positioned to sit near raw cut points), no trailing
/// newline.
std::string parserTortureText() {
  std::string text;
  text += "POINT (3 3)\tattr-a\n";
  text += "LINESTRING (0 0, 10 10, 12 4)\n";
  text += "not-a-geometry at all\n";
  text += "POLYGON ((1 1, 9 1, 9 9, 1 9, 1 1))\tattr-b\n";
  text += "\n";
  text += "MULTIPOINT ((1 1), (11 11), (-3 4))\r\n";
  text += "MULTILINESTRING ((0 0, 4 0), (6 6, 6 14, 14 14))\n";
  text += "POINT (brokenness\n";
  text += "MULTIPOLYGON (((0 0, 3 0, 3 3, 0 3, 0 0)), ((10 10, 14 10, 14 14, 10 14, 10 10)))\n";
  text += "GEOMETRYCOLLECTION (POINT (2 8), LINESTRING (8 2, 12 2), "
          "POLYGON ((4 4, 7 4, 7 7, 4 7, 4 4)))\n";
  for (int i = 0; i < 40; ++i) {
    text += "POINT (" + std::to_string(i) + " " + std::to_string(2 * i) + ")\tbulk-" +
            std::to_string(i) + "\n";
  }
  text += "POINT (99 99)";  // no trailing newline
  return text;
}

}  // namespace

TEST(ParallelParse, ByteIdenticalToSerialAtEveryThreadCount) {
  const mc::WktParser parser;
  const std::string text = parserTortureText();

  mg::GeometryBatch serial;
  const mc::ParseStats base = parser.parseAll(text, serial);
  ASSERT_GT(base.records, 0u);
  ASSERT_GT(base.badRecords, 0u) << "the torture text must exercise bad-record attribution";
  std::string baseBytes;
  mg::encodeShard(serial, baseBytes);

  for (const int threads : {1, 2, 4, 8}) {
    mu::ThreadPool pool(threads);
    mg::GeometryBatch out;
    mc::ParseTiming timing;
    const mc::ParseStats ps = parser.parseChunk(text, out, &pool, &timing);
    EXPECT_EQ(ps.records, base.records) << "threads=" << threads;
    EXPECT_EQ(ps.badRecords, base.badRecords)
        << "bad records must be attributed identically at threads=" << threads;
    EXPECT_EQ(ps.bytes, base.bytes) << "threads=" << threads;
    std::string bytes;
    mg::encodeShard(out, bytes);
    EXPECT_EQ(bytes, baseBytes) << "parallel parse must splice a byte-identical batch, threads="
                                << threads;
    EXPECT_GE(timing.cpuSum + 1e-12, timing.critical);
  }
}

// ---- End-to-end bit-identity across the pipelines -------------------------

namespace {

/// Two-layer fixture matching the recovery tests: enough records that a
/// 4 KB-chunk streaming run executes several data rounds on four ranks.
struct HybridFixture {
  std::shared_ptr<mp::Volume> volume = lustreVolume();
  mc::WktParser parser;

  HybridFixture() {
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 71);
    specR.space.world = mg::Envelope(0, 0, 20, 20);
    volume->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specR), 1500)));
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 72);
    specS.space.world = specR.space.world;
    volume->create("s.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specS), 800)));
  }

  static mc::StreamConfig streamed() {
    mc::StreamConfig sc;
    sc.chunkBytes = 4 << 10;
    sc.memoryBudget = 32 << 10;
    return sc;
  }
};

struct JoinOutcome {
  std::vector<mc::JoinPair> pairs;  ///< all live ranks' pairs, sorted
  std::uint64_t globalPairs = 0;
  double overlapped = 0;
  double workerCpu = 0;
  double workerCritical = 0;
  int died = 0;
};

JoinOutcome runJoin(HybridFixture& fx, const std::function<void(mc::JoinConfig&)>& tweak) {
  JoinOutcome run;
  std::mutex mu;
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = 36;
    tweak(cfg);
    mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
    mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
    std::vector<mc::JoinPair> local;
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg, &local);
    std::lock_guard<std::mutex> lock(mu);
    run.pairs.insert(run.pairs.end(), local.begin(), local.end());
    if (stats.recovery.died) {
      run.died += 1;
      return;
    }
    run.globalPairs = stats.globalPairs;
    run.overlapped = std::max(run.overlapped, stats.phases.overlapped);
    run.workerCpu += stats.phases.workerCpu;
    run.workerCritical += stats.phases.workerCritical;
  });
  std::sort(run.pairs.begin(), run.pairs.end());
  return run;
}

}  // namespace

TEST(HybridPipeline, JoinBitIdenticalAcrossThreadCounts) {
  HybridFixture fx;
  const JoinOutcome base = runJoin(fx, [](mc::JoinConfig&) {});
  ASSERT_FALSE(base.pairs.empty());

  // One-shot pipeline, fanned-out refine.
  for (const int threads : {2, 4, 8}) {
    const JoinOutcome t = runJoin(fx, [&](mc::JoinConfig& cfg) {
      cfg.framework.threadsPerRank = threads;
    });
    EXPECT_EQ(t.pairs, base.pairs) << "one-shot threads=" << threads;
    EXPECT_EQ(t.globalPairs, base.globalPairs);
    EXPECT_GE(t.workerCpu + 1e-12, t.workerCritical);
    EXPECT_GT(t.workerCritical, 0.0) << "pool regions must report their critical path";
  }

  // Streaming pipeline (bounded budget): parallel parse + grouped refine.
  const JoinOutcome streamedBase = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = HybridFixture::streamed();
  });
  EXPECT_EQ(streamedBase.pairs, base.pairs);
  for (const int threads : {4, 8}) {
    const JoinOutcome t = runJoin(fx, [&](mc::JoinConfig& cfg) {
      cfg.framework.stream = HybridFixture::streamed();
      cfg.framework.threadsPerRank = threads;
    });
    EXPECT_EQ(t.pairs, base.pairs) << "streamed threads=" << threads;
    EXPECT_EQ(t.globalPairs, base.globalPairs);
  }
}

TEST(HybridPipeline, RoundOverlapPreservesResultsAndHidesPrep) {
  HybridFixture fx;
  const JoinOutcome base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = HybridFixture::streamed();
    cfg.framework.stream.overlapRounds = false;
  });
  ASSERT_FALSE(base.pairs.empty());
  EXPECT_EQ(base.overlapped, 0.0) << "without overlapRounds nothing may be credited as hidden";

  for (const int threads : {1, 4}) {
    const JoinOutcome t = runJoin(fx, [&](mc::JoinConfig& cfg) {
      cfg.framework.stream = HybridFixture::streamed();
      cfg.framework.stream.overlapRounds = true;
      cfg.framework.threadsPerRank = threads;
    });
    EXPECT_EQ(t.pairs, base.pairs) << "overlap threads=" << threads;
    EXPECT_EQ(t.globalPairs, base.globalPairs);
    EXPECT_GT(t.overlapped, 0.0)
        << "overlapped rounds must hide some prep/flush time under exchanges, threads=" << threads;
  }
}

TEST(HybridPipeline, ThreadsComposeWithRebalanceAndInjectedFailure) {
  HybridFixture fx;
  const JoinOutcome base = runJoin(fx, [](mc::JoinConfig&) {});
  ASSERT_FALSE(base.pairs.empty());

  const JoinOutcome composed = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = HybridFixture::streamed();
    cfg.framework.stream.overlapRounds = true;
    cfg.framework.stream.checkpointEveryRounds = 2;
    cfg.framework.stream.checkpointDir = "__ck_threads";
    cfg.framework.threadsPerRank = 4;
    cfg.framework.rebalanceCells = true;
    cfg.framework.failSchedule = {{2, 3, 0}};
  });
  EXPECT_EQ(composed.died, 1);
  EXPECT_EQ(composed.pairs, base.pairs)
      << "threads + overlap + rebalance + mid-stream kill must not change the join result";
  EXPECT_EQ(composed.globalPairs, base.globalPairs);
}

TEST(HybridPipeline, OverlayRasterBitIdenticalWithThreads) {
  HybridFixture fx;
  std::array<std::string, 2> rasters;
  std::array<double, 2> totalsR{0, 0};

  for (int mode = 0; mode < 2; ++mode) {
    const std::string out = mode == 0 ? "cov_serial.bin" : "cov_threads.bin";
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.outputPath = out;
      if (mode == 1) {
        cfg.framework.stream = HybridFixture::streamed();
        cfg.framework.stream.overlapRounds = true;
        cfg.framework.threadsPerRank = 4;
      }
      mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
      mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
      const auto stats = mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
      std::lock_guard<std::mutex> lock(mu);
      totalsR[static_cast<std::size_t>(mode)] = stats.totalR;
    });
    rasters[static_cast<std::size_t>(mode)] = fileBytes(*fx.volume, out);
  }
  ASSERT_FALSE(rasters[0].empty());
  EXPECT_EQ(rasters[0], rasters[1])
      << "threaded+overlapped overlay must write a bit-identical coverage raster";
  EXPECT_EQ(totalsR[0], totalsR[1]);
}

TEST(HybridPipeline, IndexShardsBitIdenticalWithThreadsAndBudgetHolds) {
  HybridFixture fx;
  constexpr std::uint64_t kBudget = 32 << 10;
  std::array<std::map<int, std::string>, 2> perRank;
  std::atomic<std::uint64_t> peak{0};

  for (int mode = 0; mode < 2; ++mode) {
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::IndexingConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.framework.stream.chunkBytes = 4 << 10;
      cfg.framework.stream.memoryBudget = kBudget;
      if (mode == 1) {
        cfg.framework.threadsPerRank = 4;
        cfg.framework.stream.overlapRounds = true;
      }
      mc::DatasetHandle data{"r.wkt", &fx.parser, {}};
      mc::IndexingStats stats;
      const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg, &stats);
      std::string bytes;
      mg::encodeShard(index.batch(), bytes);
      std::lock_guard<std::mutex> lock(mu);
      perRank[static_cast<std::size_t>(mode)][comm.rank()] = std::move(bytes);
      if (mode == 1) {
        peak = std::max(peak.load(), stats.refinePeakBytes);
      }
    });
  }
  EXPECT_EQ(perRank[0], perRank[1])
      << "every rank's adopted index batch must be byte-identical under threads";
  // The group loader reserves its share out of the same budget, so the
  // stores' resident tails + staged group stay near the bound. The
  // documented structural slack on top (DESIGN.md §10): the staged group
  // overshoots its share by the one cell that crossed the dispatch
  // threshold. Half a budget of headroom covers it; without the
  // reservation the staged group alone would blow through it.
  EXPECT_LE(peak.load(), kBudget + kBudget / 2)
      << "parallel streaming refine exceeded the memory budget + one-cell slack";
}

TEST(HybridPipeline, RangeQueryCountsMatchAcrossThreads) {
  HybridFixture fx;
  const std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {-5, -5, -1, -1}, {7, 3, 18, 9}};
  std::array<std::vector<std::uint64_t>, 2> counts;

  for (int mode = 0; mode < 2; ++mode) {
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::RangeQueryConfig cfg;
      cfg.framework.gridCells = 36;
      if (mode == 1) {
        cfg.framework.stream = HybridFixture::streamed();
        cfg.framework.stream.overlapRounds = true;
        cfg.framework.threadsPerRank = 4;
      }
      mc::DatasetHandle data{"r.wkt", &fx.parser, {}};
      const auto got = mc::batchRangeQuery(comm, *fx.volume, data, queries, cfg);
      if (comm.rank() == 0) counts[static_cast<std::size_t>(mode)] = got;
    });
  }
  ASSERT_EQ(counts[0].size(), queries.size());
  EXPECT_GT(counts[0][1], 0u) << "the whole-world query must match records";
  EXPECT_EQ(counts[0], counts[1]) << "threaded range query must report identical counts";
}
