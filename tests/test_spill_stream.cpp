// Streaming-pipeline and spill-to-disk tests (DESIGN.md §7): BatchShard
// round trips (all seven OGC types, empty batch, userData blobs) and
// corruption rejection, the SpillStore blob lifecycle, the CellStore's
// streaming regime against its resident regime, batch splice /
// incremental index adoption, the batch-native WKB join key, and the
// headline acceptance property — a chunked run with a memory budget
// smaller than the input spills (bytes-spilled > 0) yet produces
// bit-identical join/index/overlay results to the one-shot pass.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <map>
#include <mutex>
#include <numeric>

#include "core/cell_store.hpp"
#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/spatial_join.hpp"
#include "geom/batch_shard.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "pfs/spill_store.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;

namespace {

/// A batch covering all seven OGC types with mixed userData and cells.
mg::GeometryBatch mixedBatch() {
  const char* wkts[] = {
      "POINT (3 3)",
      "LINESTRING (0 0, 10 10, 12 4)",
      "POLYGON ((1 1, 9 1, 9 9, 1 9, 1 1))",
      "POLYGON ((0 0, 20 0, 20 20, 0 20, 0 0), (5 5, 15 5, 15 15, 5 15, 5 5))",
      "MULTIPOINT ((1 1), (11 11), (-3 4))",
      "MULTILINESTRING ((0 0, 4 0), (6 6, 6 14, 14 14))",
      "MULTIPOLYGON (((0 0, 3 0, 3 3, 0 3, 0 0)), ((10 10, 14 10, 14 14, 10 14, 10 10)))",
      "GEOMETRYCOLLECTION (POINT (2 8), LINESTRING (8 2, 12 2), "
      "POLYGON ((4 4, 7 4, 7 7, 4 7, 4 4)))",
  };
  mg::GeometryBatch batch;
  int cell = 0;
  for (const char* w : wkts) {
    mg::Geometry g = mg::readWkt(w);
    g.userData = std::string("attr-") + std::to_string(cell) + std::string(cell, 'x');
    batch.append(g, cell);
    ++cell;
  }
  return batch;
}

void expectRecordsEqual(const mg::GeometryBatch& a, std::size_t i, const mg::GeometryBatch& b,
                        std::size_t j) {
  EXPECT_EQ(a.type(i), b.type(j));
  EXPECT_EQ(a.cell(i), b.cell(j));
  EXPECT_EQ(a.envelope(i), b.envelope(j));
  EXPECT_EQ(a.userData(i), b.userData(j));
  EXPECT_EQ(mg::writeWkb(a.materialize(i)), mg::writeWkb(b.materialize(j)));
}

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

// ---- BatchShard codec ----------------------------------------------------

TEST(BatchShard, RoundTripAllTypes) {
  const mg::GeometryBatch batch = mixedBatch();
  std::string blob;
  mg::encodeShard(batch, blob);
  // The splitting rule's size prediction is the real encoded size.
  mg::forEachShardRange(batch, 0, [&](std::size_t, std::size_t, std::uint64_t bytes) {
    EXPECT_EQ(bytes, blob.size());
  });

  mg::GeometryBatch out;
  EXPECT_EQ(mg::decodeShard(blob, out), batch.size());
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) expectRecordsEqual(batch, i, out, i);
}

TEST(BatchShard, EmptyBatchRoundTrip) {
  const mg::GeometryBatch empty;
  std::string blob;
  mg::encodeShard(empty, blob);
  EXPECT_EQ(blob.size(), mg::kShardHeaderBytes);
  mg::GeometryBatch out;
  EXPECT_EQ(mg::decodeShard(blob, out), 0u);
  EXPECT_TRUE(out.empty());
}

TEST(BatchShard, SubRangeEncodingAndAppendDecoding) {
  const mg::GeometryBatch batch = mixedBatch();
  // Two shards split mid-batch; decoding both into one batch must
  // reproduce the original record sequence (decode appends — the splice
  // property the spill/reload path relies on).
  const std::size_t mid = batch.size() / 2;
  std::string first, second;
  mg::encodeShard(batch, 0, mid, first);
  mg::encodeShard(batch, mid, batch.size(), second);

  mg::GeometryBatch out;
  EXPECT_EQ(mg::decodeShard(first, out), mid);
  EXPECT_EQ(mg::decodeShard(second, out), batch.size() - mid);
  ASSERT_EQ(out.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) expectRecordsEqual(batch, i, out, i);
}

TEST(BatchShard, RejectsCorruption) {
  const mg::GeometryBatch batch = mixedBatch();
  std::string blob;
  mg::encodeShard(batch, blob);

  mg::GeometryBatch out;
  // Truncated header.
  EXPECT_THROW(mg::decodeShard(std::string_view(blob).substr(0, 10), out), mvio::util::Error);
  // Corrupted magic (header checksum catches it first — still an error).
  std::string badMagic = blob;
  badMagic[0] ^= 0x5A;
  EXPECT_THROW(mg::decodeShard(badMagic, out), mvio::util::Error);
  // Corrupted record-count field.
  std::string badCount = blob;
  badCount[9] ^= 0x01;
  EXPECT_THROW(mg::decodeShard(badCount, out), mvio::util::Error);
  // Truncated payload.
  EXPECT_THROW(mg::decodeShard(std::string_view(blob).substr(0, blob.size() - 3), out),
               mvio::util::Error);
  // Flipped payload byte.
  std::string badPayload = blob;
  badPayload[blob.size() - 1] ^= 0x80;
  EXPECT_THROW(mg::decodeShard(badPayload, out), mvio::util::Error);
  // All failures must leave nothing half-appended visible to the caller
  // beyond the records that were never committed (decode validates before
  // appending columns; the batch may hold no partial record count drift).
  EXPECT_THROW(mg::decodeShard(std::string_view(blob).substr(0, 10), out), mvio::util::Error);
}

// ---- Batch splice --------------------------------------------------------

TEST(GeometryBatch, SplicePreservesRecordsAndIndices) {
  const mg::GeometryBatch a = mixedBatch();
  const mg::GeometryBatch b = mixedBatch();
  mg::GeometryBatch spliced;
  spliced.splice(a);  // copy form
  const std::size_t base = spliced.size();
  spliced.splice(b);
  ASSERT_EQ(spliced.size(), a.size() + b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expectRecordsEqual(a, i, spliced, i);
  for (std::size_t i = 0; i < b.size(); ++i) expectRecordsEqual(b, i, spliced, base + i);
  EXPECT_GT(spliced.memoryBytes(), a.memoryBytes());
}

TEST(GeometryBatch, MoveSpliceIntoEmptyAdoptsArenas) {
  mg::GeometryBatch src = mixedBatch();
  const std::size_t n = src.size();
  mg::GeometryBatch dst;
  dst.splice(std::move(src));
  EXPECT_EQ(dst.size(), n);
  EXPECT_TRUE(src.empty());  // NOLINT(bugprone-use-after-move): reset by contract
}

// ---- SpillStore ----------------------------------------------------------

TEST(SpillStore, BlobLifecycleAndStats) {
  auto volume = lustreVolume(2);
  mp::SpillStore store(*volume, "__spill/rank0");

  EXPECT_FALSE(store.contains("a"));
  store.put("a", std::string(1000, 'a'));
  store.put("b", std::string(500, 'b'));
  EXPECT_TRUE(store.contains("a"));
  EXPECT_EQ(store.fetch("a"), std::string(1000, 'a'));
  EXPECT_EQ(store.stats().blobsWritten, 2u);
  EXPECT_EQ(store.stats().bytesWritten, 1500u);
  EXPECT_EQ(store.stats().bytesRead, 1000u);
  EXPECT_EQ(store.stats().bytesHeld, 1500u);

  // Ranged reads count only the bytes read and stay inside the blob.
  EXPECT_EQ(store.fetch("b", 497, 3), "bbb");
  EXPECT_EQ(store.stats().bytesRead, 1003u);
  EXPECT_THROW((void)store.fetch("b", 499, 2), mvio::util::Error);
  EXPECT_THROW((void)store.fetch("b", 501, 0), mvio::util::Error);

  // Replacement accounts held bytes by delta, not by sum.
  store.put("a", std::string(200, 'A'));
  EXPECT_EQ(store.stats().bytesHeld, 700u);
  EXPECT_EQ(store.stats().peakBytesHeld, 1500u);

  store.remove("b");
  EXPECT_FALSE(store.contains("b"));
  EXPECT_EQ(store.stats().bytesHeld, 200u);

  store.clear();
  EXPECT_FALSE(store.contains("a"));
  EXPECT_EQ(store.stats().bytesHeld, 0u);
}

TEST(SpillStore, ReplacingForeignBlobKeepsStatsSane) {
  // Run 2 overwriting run 1's shards must not underflow the unsigned
  // held-bytes counters, and the adopted blob must be clear()-able.
  auto volume = lustreVolume(2);
  {
    mp::SpillStore first(*volume, "__x/rank0");
    first.put("owned.manifest", std::string(100, 'm'));
  }
  mp::SpillStore second(*volume, "__x/rank0");
  second.put("owned.manifest", std::string(40, 'n'));
  EXPECT_EQ(second.stats().bytesHeld, 40u);
  EXPECT_EQ(second.stats().peakBytesHeld, 40u);
  second.clear();
  EXPECT_FALSE(second.contains("owned.manifest"));

  // Removing a foreign blob drops it without touching unaccounted bytes.
  {
    mp::SpillStore writer(*volume, "__x/rank0");
    writer.put("stray", "zz");
  }
  mp::SpillStore third(*volume, "__x/rank0");
  third.remove("stray");
  EXPECT_EQ(third.stats().bytesHeld, 0u);
  EXPECT_FALSE(third.contains("stray"));
}

TEST(SpillStore, BlobsSurviveAcrossStoreInstances) {
  auto volume = lustreVolume(2);
  {
    mp::SpillStore writer(*volume, "__persist/rank0");
    writer.put("shard.0", "hello shards");
    // writer destructs without clear(): blobs stay on the volume.
  }
  mp::SpillStore reader(*volume, "__persist/rank0");
  ASSERT_TRUE(reader.contains("shard.0"));
  EXPECT_EQ(reader.fetch("shard.0"), "hello shards");
}

// ---- CellStore -------------------------------------------------------------

namespace {

/// One cell's record sequence as comparable keys (cell | userData | WKB).
std::vector<std::string> recordKeys(const mg::BatchSpan& span) {
  std::vector<std::string> out;
  for (std::size_t k = 0; k < span.size(); ++k) {
    out.push_back(std::to_string(span.batch().cell(span.recordIndex(k))) + "|" +
                  std::string(span.userData(k)) + "|" +
                  mg::writeWkb(span.batch().materialize(span.recordIndex(k))));
  }
  return out;
}

std::vector<std::string> recordKeys(const mg::GeometryBatch& b) {
  std::vector<std::uint32_t> idx(b.size());
  std::iota(idx.begin(), idx.end(), std::uint32_t{0});
  return recordKeys(mg::BatchSpan(&b, idx.data(), idx.size()));
}

}  // namespace

TEST(CellStore, StreamingStoreServesTheResidentCellSequences) {
  // One seeded record set, delivered in exchange-sized rounds to a
  // resident store and to a streaming store whose budget forces many
  // cell-sorted segments; a last two-record round stays resident as the
  // streaming store's tail.
  auto volume = lustreVolume(2);
  mp::SpillStore spill(*volume, "__cellstore/rank0");
  std::uint64_t written = 0;
  const mc::SpillChargeFn charge = [&written](std::uint64_t bytes, bool isWrite) {
    if (isWrite) written += bytes;
  };
  mc::CellStore resident(&spill, "res", 0, charge);
  mc::CellStore streaming(&spill, "str", 1024, charge);
  mvio::util::Rng rng(20261017);
  const auto xy = [](double x, double y) { return std::to_string(x) + " " + std::to_string(y); };
  std::uint64_t records = 0;
  for (int round = 0; round <= 30; ++round) {
    mg::GeometryBatch batch;
    for (int k = 0; k < (round < 30 ? 12 : 2); ++k, ++records) {
      const double x = rng.uniform(0, 100);
      const double y = rng.uniform(0, 100);
      const double w = rng.uniform(0.1, 5);
      const std::string wkt = records % 3 == 0 ? "POINT (" + xy(x, y) + ")"
                                               : "POLYGON ((" + xy(x, y) + ", " + xy(x + w, y) +
                                                     ", " + xy(x + w, y + w) + ", " +
                                                     xy(x, y + w) + ", " + xy(x, y) + "))";
      mg::Geometry g = mg::readWkt(wkt);
      g.userData = "rec-" + std::to_string(records);
      batch.append(g, static_cast<int>(rng.below(16)));
    }
    resident.add(mg::GeometryBatch(batch));
    streaming.add(std::move(batch));
  }
  resident.finalize();
  streaming.finalize();
  ASSERT_TRUE(streaming.streaming());
  ASSERT_GT(written, 0u) << "the budget must force spilled segments";
  ASSERT_GT(streaming.trackedBytes(), 0u) << "the last round must stay resident as the tail";
  ASSERT_EQ(streaming.records(), records);
  ASSERT_EQ(resident.records(), records);
  const std::vector<int> cells = resident.cells();
  ASSERT_EQ(streaming.cells(), cells);

  // Per cell, the resident span and the streaming store's assembled batch
  // hold the same records in the same (arrival) order.
  std::map<int, std::vector<std::string>> want;
  for (const int cell : cells) {
    want[cell] = recordKeys(resident.cellSpan(cell));
    EXPECT_EQ(recordKeys(streaming.takeCellAssembled(cell)), want[cell]) << "cell " << cell;
  }
  // Assembling each cell once reads every spilled piece back at most once.
  EXPECT_GT(streaming.reloadBytes(), 0u);
  EXPECT_LE(streaming.reloadBytes(), written);
  // A streaming store serves cells only as owned batches.
  EXPECT_THROW((void)streaming.cellSpan(cells.front()), mvio::util::Error);

  // Migration round trip: extracting a cell removes it from the store;
  // adding its records back restores the cell's sequence.
  const int moved = cells[cells.size() / 2];
  for (mc::CellStore* store : {&resident, &streaming}) {
    mg::GeometryBatch out = store->extractCell(moved);
    EXPECT_EQ(recordKeys(out), want[moved]);
    EXPECT_EQ(store->records(), records - out.size());
    const std::vector<int> left = store->cells();
    EXPECT_EQ(std::find(left.begin(), left.end(), moved), left.end());
    store->addMigrated(std::move(out));
    EXPECT_EQ(store->records(), records);
    EXPECT_EQ(store->cells(), cells);
  }
  for (const int cell : cells) {
    EXPECT_EQ(recordKeys(resident.cellSpan(cell)), want[cell]) << "cell " << cell;
    EXPECT_EQ(recordKeys(streaming.takeCellAssembled(cell)), want[cell]) << "cell " << cell;
  }
  streaming.releaseBlobs();
}

// ---- Batch-native WKB join key -------------------------------------------

TEST(SpatialJoin, BatchNativeKeyMatchesMaterializedKey) {
  const mg::GeometryBatch batch = mixedBatch();
  std::string scratch;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(mc::geometryKey(batch, i, scratch), mc::geometryKey(batch.materialize(i)))
        << "record " << i;
  }
}

// ---- Incremental index adoption + shard persistence ----------------------

TEST(DistributedIndex, IncrementalAddBatchMatchesOneShot) {
  // Build one index from the whole batch and one from two addBatch calls;
  // both must answer every probe identically (lazy tree rebuild included).
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kLakes, 41);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  const mo::RecordGenerator gen(spec);
  const mc::GridSpec grid(mg::Envelope(0, 0, 20, 20), 5, 5);

  mg::GeometryBatch whole, partA, partB;
  for (std::uint64_t i = 0; i < 120; ++i) {
    const mg::Geometry g = gen.geometry(i);
    const int cell = grid.cellOfPoint(g.envelope().center());
    whole.append(g, cell);
    (i % 2 == 0 ? partA : partB).append(g, cell);
  }

  const auto oneShot = mc::DistributedIndex::fromBatch(std::move(whole), grid);
  mc::DistributedIndex incremental = mc::DistributedIndex::fromBatch(std::move(partA), grid);
  incremental.addBatch(std::move(partB));

  EXPECT_EQ(incremental.localGeometries(), oneShot.localGeometries());
  mvio::util::Rng rng(7);
  for (int q = 0; q < 30; ++q) {
    const double x = rng.uniform(-2, 18), y = rng.uniform(-2, 18);
    const mg::Envelope box(x, y, x + rng.uniform(0.1, 6), y + rng.uniform(0.1, 6));
    EXPECT_EQ(incremental.queryCount(box), oneShot.queryCount(box));
  }
}

// ---- Streaming vs one-shot end-to-end equivalence ------------------------

namespace {

struct TwoLayerFixture {
  std::shared_ptr<mp::Volume> volume = lustreVolume();
  mc::WktParser parser;

  TwoLayerFixture() {
    // Small-record datasets (every record well under the 4 KB chunk —
    // Algorithm 1 requires a block to hold the largest record).
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 51);
    specR.space.world = mg::Envelope(0, 0, 20, 20);
    volume->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specR), 500)));
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 52);
    specS.space.world = specR.space.world;
    volume->create("s.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specS), 400)));
  }

  /// Streaming config per the acceptance criterion: 4 KB chunks and a
  /// budget far below the input size.
  static mc::StreamConfig streamedConfig() {
    mc::StreamConfig sc;
    sc.chunkBytes = 4 << 10;
    sc.memoryBudget = 8 << 10;
    return sc;
  }
};

}  // namespace

TEST(StreamingPipeline, JoinMatchesOneShotAndSpills) {
  TwoLayerFixture fx;
  std::array<std::vector<mc::JoinPair>, 2> pairs;
  std::array<std::uint64_t, 2> spilled{0, 0};
  std::array<std::uint64_t, 2> rounds{0, 0};

  for (int mode = 0; mode < 2; ++mode) {
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::JoinConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.framework.stream.chunkBytes = mc::StreamConfig::kWholePartition;
      if (mode == 1) cfg.framework.stream = TwoLayerFixture::streamedConfig();
      mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
      mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
      std::vector<mc::JoinPair> local;
      const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg, &local);
      std::lock_guard<std::mutex> lock(mu);
      auto& dst = pairs[static_cast<std::size_t>(mode)];
      dst.insert(dst.end(), local.begin(), local.end());
      spilled[static_cast<std::size_t>(mode)] += stats.phases.spill > 0 ? 1 : 0;
      rounds[static_cast<std::size_t>(mode)] =
          std::max(rounds[static_cast<std::size_t>(mode)], stats.phases.rounds);
    });
    std::sort(pairs[static_cast<std::size_t>(mode)].begin(),
              pairs[static_cast<std::size_t>(mode)].end());
  }

  ASSERT_FALSE(pairs[0].empty());
  EXPECT_EQ(pairs[0], pairs[1]);
  EXPECT_EQ(rounds[0], 2u);  // one-shot: one round per layer
  EXPECT_GT(rounds[1], 2u);  // streaming: chunked rounds + termination rounds
  EXPECT_GT(spilled[1], 0u) << "streamed run must have spilled on some rank";
}

TEST(StreamingPipeline, SpillStatsReportBytes) {
  TwoLayerFixture fx;
  std::atomic<std::uint64_t> bytesSpilled{0};
  std::atomic<std::uint64_t> heldAfter{0};
  mm::Runtime::run(3, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = 25;
    cfg.framework.stream = TwoLayerFixture::streamedConfig();
    mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
    mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
    const mc::JoinStats st = mc::spatialJoin(comm, *fx.volume, r, s, cfg);
    bytesSpilled += st.spill.bytesWritten;
    heldAfter += st.spill.bytesHeld;
    EXPECT_EQ(st.spill.bytesRead, st.spill.bytesWritten)
        << "every spilled byte (staged chunks and owned-cell pieces) is reloaded exactly once";
    EXPECT_GT(st.phases.refineSpillBytes, 0u) << "cell-major refine must stream from shards";
  });
  EXPECT_GT(bytesSpilled.load(), 0u);
  EXPECT_EQ(heldAfter.load(), 0u) << "scratch blobs must be drained by the run";
}

TEST(StreamingPipeline, RefinePeakStaysWithinBudget) {
  // The headline bound of the cell-major refine: with a budget far below
  // the owned set, the refine phase's serving structures (resident tail +
  // current cell) never exceed StreamConfig::memoryBudget, spill is
  // non-zero, and results still match the resident-refine run.
  TwoLayerFixture fx;
  constexpr std::uint64_t kBudget = 32 << 10;
  std::array<std::uint64_t, 2> counted{0, 0};

  for (int mode = 0; mode < 2; ++mode) {
    std::atomic<std::uint64_t> records{0};
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::FrameworkConfig cfg;
      cfg.gridCells = 64;
      if (mode == 1) {
        cfg.stream.chunkBytes = 4 << 10;
        cfg.stream.memoryBudget = kBudget;
      }
      struct CountTask final : mc::RefineTask {
        std::uint64_t n = 0;
        void refineCellBatch(const mc::GridSpec&, int, const mg::BatchSpan& r,
                             const mg::BatchSpan&) override {
          n += r.size();
        }
      } task;
      mc::DatasetHandle data{"r.wkt", &fx.parser, {}};
      const auto fw = mc::runFilterRefine(comm, *fx.volume, data, nullptr, cfg, task);
      records += task.n;
      if (mode == 1) {
        EXPECT_GT(fw.spill.bytesWritten, 0u) << "budgeted run must spill";
        EXPECT_LE(fw.refinePeakBytes, kBudget)
            << "refine-phase resident bytes exceed the memory budget";
      }
    });
    counted[static_cast<std::size_t>(mode)] = records.load();
  }
  ASSERT_GT(counted[0], 0u);
  EXPECT_EQ(counted[0], counted[1]) << "streamed refine must see the identical record multiset";
}

TEST(StreamingPipeline, IndexMatchesOneShot) {
  TwoLayerFixture fx;
  const std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {-5, -5, -1, -1}, {7, 3, 18, 9}};
  std::array<std::vector<std::uint64_t>, 2> counts;
  counts.fill(std::vector<std::uint64_t>(queries.size(), 0));

  for (int mode = 0; mode < 2; ++mode) {
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::IndexingConfig cfg;
      cfg.framework.gridCells = 49;
      if (mode == 1) cfg.framework.stream = TwoLayerFixture::streamedConfig();
      mc::DatasetHandle data{"r.wkt", &fx.parser, {}};
      const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const std::uint64_t local = index.queryCount(queries[q]);
        std::lock_guard<std::mutex> lock(mu);
        counts[static_cast<std::size_t>(mode)][q] += local;
      }
    });
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_GT(counts[0][1], 0u);
}

TEST(StreamingPipeline, OverlayOutputBitIdentical) {
  TwoLayerFixture fx;
  std::array<std::string, 2> rasters;
  std::array<double, 2> totalsR{0, 0}, totalsS{0, 0};

  for (int mode = 0; mode < 2; ++mode) {
    const std::string out = mode == 0 ? "cov_oneshot.bin" : "cov_stream.bin";
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.outputPath = out;
      if (mode == 1) cfg.framework.stream = TwoLayerFixture::streamedConfig();
      mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
      mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
      const auto stats = mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        totalsR[static_cast<std::size_t>(mode)] = stats.totalR;
        totalsS[static_cast<std::size_t>(mode)] = stats.totalS;
      }
    });
    rasters[static_cast<std::size_t>(mode)] = fileBytes(*fx.volume, out);
  }

  ASSERT_FALSE(rasters[0].empty());
  EXPECT_EQ(rasters[0], rasters[1]) << "coverage raster must be bit-identical across paths";
  EXPECT_EQ(totalsR[0], totalsR[1]);
  EXPECT_EQ(totalsS[0], totalsS[1]);
  EXPECT_GT(totalsR[0], 0.0);
}

TEST(StreamingPipeline, OverlayRefineReloadsEachSpilledByteOnce) {
  // Read-once spill: a segment blob holds one piece per cell, and the
  // refine visits each cell once, so refine reloads never exceed the
  // bytes spilled — at one and at two threads per rank — and the raster
  // stays bit-identical to the one-shot run's. The 8 KiB budget over 100
  // cells flushes 3 to 7 segments per layer store on every rank; a
  // window that caches and evicts shards reloads more than was spilled.
  TwoLayerFixture fx;
  std::array<std::string, 3> rasters;  // index = threads per rank; 0 = one-shot

  for (const int threads : {0, 1, 2}) {
    const std::string out = "cov_readonce" + std::to_string(threads) + ".bin";
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 100;
      cfg.outputPath = out;
      if (threads > 0) {
        cfg.framework.stream.chunkBytes = 4 << 10;
        cfg.framework.stream.memoryBudget = 8 << 10;
        cfg.framework.threadsPerRank = threads;
      }
      mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
      mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
      const auto stats = mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
      if (threads > 0) {
        EXPECT_GT(stats.phases.refineSpillBytes, 0u) << "rank " << comm.rank();
        EXPECT_LE(stats.phases.refineSpillBytes, stats.spill.bytesWritten)
            << "refine reloaded spilled bytes more than once (rank " << comm.rank()
            << ", threads " << threads << ")";
      }
    });
    rasters[static_cast<std::size_t>(threads)] = fileBytes(*fx.volume, out);
  }

  ASSERT_FALSE(rasters[0].empty());
  EXPECT_EQ(rasters[1], rasters[0]) << "streamed raster (1 thread) differs from one-shot";
  EXPECT_EQ(rasters[2], rasters[0]) << "streamed raster (2 threads) differs from one-shot";
}

TEST(StreamingPipeline, PfsPricedSpillKeepsResultsAndChargesTime) {
  // With StreamConfig::spillOnPfs the scratch traffic is priced by the
  // Volume's storage model (queue contention) instead of the flat rate:
  // results must be unchanged, spill time must still be charged, and the
  // byte volumes must match the flat-rate run exactly (pricing moves
  // time, never data).
  TwoLayerFixture fx;
  std::array<std::vector<mc::JoinPair>, 2> pairs;
  std::array<std::uint64_t, 2> spillBytes{0, 0};
  std::array<std::atomic<int>, 2> ranksCharged{};

  for (int mode = 0; mode < 2; ++mode) {
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::JoinConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.framework.stream = TwoLayerFixture::streamedConfig();
      cfg.framework.stream.spillOnPfs = mode == 1;
      mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
      mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
      std::vector<mc::JoinPair> local;
      const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg, &local);
      if (stats.phases.spill > 0) ranksCharged[static_cast<std::size_t>(mode)] += 1;
      std::lock_guard<std::mutex> lock(mu);
      auto& dst = pairs[static_cast<std::size_t>(mode)];
      dst.insert(dst.end(), local.begin(), local.end());
      spillBytes[static_cast<std::size_t>(mode)] += stats.phases.refineSpillBytes;
    });
    std::sort(pairs[static_cast<std::size_t>(mode)].begin(),
              pairs[static_cast<std::size_t>(mode)].end());
  }

  ASSERT_FALSE(pairs[0].empty());
  EXPECT_EQ(pairs[0], pairs[1]) << "spill pricing must not change results";
  EXPECT_EQ(spillBytes[0], spillBytes[1]) << "pricing must not change spill byte volumes";
  EXPECT_GT(ranksCharged[1].load(), 0) << "PFS-priced spill must charge time on spilling ranks";
}

TEST(StreamingPipeline, ChunkedReadCountsMatchOneShot) {
  // The chunked reader must deliver every record exactly once, for both
  // boundary strategies, at an adversarially small chunk size.
  TwoLayerFixture fx;
  const std::string text = fileBytes(*fx.volume, "r.wkt");
  std::uint64_t expected = 0;
  fx.parser.parseAll(text, [&](mg::Geometry&&) { ++expected; });

  for (const auto strategy : {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
    std::atomic<std::uint64_t> records{0};
    mm::Runtime::run(5, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::FrameworkConfig cfg;
      cfg.gridCells = 1;  // single cell: no replication, exact count
      cfg.stream.chunkBytes = 4 << 10;
      struct CountTask final : mc::RefineTask {
        std::uint64_t n = 0;
        void refineCellBatch(const mc::GridSpec&, int, const mg::BatchSpan& r,
                             const mg::BatchSpan&) override {
          n += r.size();
        }
      } task;
      mc::DatasetHandle data{"r.wkt", &fx.parser, {}};
      data.partition.strategy = strategy;
      data.partition.maxGeometryBytes = 2 << 10;  // halo smaller than the chunk
      const auto stats = mc::runFilterRefine(comm, *fx.volume, data, nullptr, cfg, task);
      records += task.n;
      EXPECT_GT(stats.ioR.iterations, 1u);
    });
    EXPECT_EQ(records.load(), expected) << "strategy=" << static_cast<int>(strategy);
  }
}
