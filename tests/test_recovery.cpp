// Checkpoint/recovery subsystem tests (DESIGN.md §9): epoch checkpoint
// round trips over all seven OGC types + userData, torn-seal and
// corrupt-manifest crash consistency (recovery falls back to the previous
// sealed epoch), the recovery loader's stale-manifest ownership guard,
// the adaptive rebalance trigger, and the headline acceptance property —
// killing k ≥ 1 ranks mid-stream yields join, index, and overlay results
// bit-identical to the failure-free run, with PhaseBreakdown reporting
// the checkpoint and recovery byte/round volumes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <optional>

#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/parser.hpp"
#include "core/spatial_join.hpp"
#include "geom/batch_shard.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "io/file.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "pfs/spill_store.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/recovery.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/perf.hpp"
#include "util/thread_pool.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;
namespace mr = mvio::recovery;

namespace {

/// A batch covering all seven OGC types with mixed userData and cells.
mg::GeometryBatch mixedBatch() {
  const char* wkts[] = {
      "POINT (3 3)",
      "LINESTRING (0 0, 10 10, 12 4)",
      "POLYGON ((1 1, 9 1, 9 9, 1 9, 1 1))",
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

/// `batch` as the WKT lines an input file holds (tab-separated userData,
/// cells dropped): the text an extent log points into.
std::string wktLines(const mg::GeometryBatch& batch) {
  std::string text;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    text += mg::writeWkt(batch.materialize(i)) + "\t" + std::string(batch.userData(i)) + "\n";
  }
  return text;
}

/// Log `chunks` chunks of layer R that each span the whole of `text` (an
/// input file), then seal the extent log.
void logWholeFile(mr::CheckpointCoordinator& ckpt, const std::string& text, int chunks) {
  for (int i = 0; i < chunks; ++i) ckpt.logChunk(0, {{0, text.size()}}, text);
  ckpt.sealIngest();
}

/// Bit equality of two batches: every column and arena byte (the shard
/// encoding) and every envelope.
void expectBatchesBitEqual(const mg::GeometryBatch& a, const mg::GeometryBatch& b) {
  ASSERT_EQ(a.size(), b.size());
  std::string ea, eb;
  mg::encodeShard(a, ea);
  mg::encodeShard(b, eb);
  EXPECT_EQ(ea, eb);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(&a.envelope(i), &b.envelope(i), sizeof(mg::Envelope)), 0) << i;
  }
}

/// Two-layer fixture sized so a 4 KB-chunk streaming run executes well
/// over six data rounds on four ranks — room for a mid-stream kill point
/// with sealed epochs both behind and ahead of it.
struct RecoveryFixture {
  std::shared_ptr<mp::Volume> volume = lustreVolume();
  mc::WktParser parser;

  RecoveryFixture() {
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 61);
    specR.space.world = mg::Envelope(0, 0, 20, 20);
    volume->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specR), 1500)));
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 62);
    specS.space.world = specR.space.world;
    volume->create("s.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specS), 800)));
  }

  static mc::StreamConfig streamedConfig(std::uint64_t checkpointEvery,
                                         const std::string& ckptDir) {
    mc::StreamConfig sc;
    sc.chunkBytes = 4 << 10;
    sc.memoryBudget = 32 << 10;
    sc.checkpointEveryRounds = checkpointEvery;
    sc.checkpointDir = ckptDir;
    return sc;
  }
};

}  // namespace

// ---- Checkpoint writer / reader round trips ------------------------------

TEST(Checkpoint, EpochRoundTripAllTypes) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  const std::string text = wktLines(batch);
  volume->create("rt.wkt", std::make_shared<mp::MemoryBackingStore>(text));
  const mc::WktParser parser;
  mg::GeometryBatch ingested;
  parser.parseAll(text, ingested);
  ASSERT_EQ(ingested.size(), batch.size());

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mc::StreamConfig cfg;
    cfg.checkpointEveryRounds = 1;
    cfg.checkpointDir = "__ck_rt";
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    ASSERT_TRUE(ckpt.enabled());

    logWholeFile(ckpt, text, 1);
    ckpt.noteRound(0, batch);
    const std::vector<int> owner(8, 0);  // one rank owns every cell
    ASSERT_TRUE(ckpt.maybeCheckpoint(1, owner));
    EXPECT_EQ(ckpt.epochsSealed(), 1u);
    EXPECT_GT(phases.checkpointBytes, 0u);
    EXPECT_EQ(phases.checkpointEpochs, 1u);

    // Seal + manifest validate and the delta reproduces every record.
    const auto seal = mr::findLastSealedEpoch(*volume, cfg.checkpointDir, 1, 1);
    ASSERT_TRUE(seal.has_value());
    EXPECT_EQ(seal->epoch, 1u);
    EXPECT_EQ(seal->roundsCompleted, 1u);
    ASSERT_EQ(seal->cellLoads.size(), owner.size());
    EXPECT_EQ(seal->cellLoads[3], 1u);

    const auto manifest =
        mr::readShardSetManifest(*volume, cfg.checkpointDir, 0, /*base=*/false, 1);
    ASSERT_TRUE(manifest.has_value());
    EXPECT_EQ(manifest->records[0], batch.size());
    mg::GeometryBatch delta;
    mr::loadShardSet(*volume, cfg.checkpointDir, 0, *manifest, 0, owner, delta);
    ASSERT_EQ(delta.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) expectRecordsEqual(batch, i, delta, i);

    // The extent log round-trips the pre-projection records too: re-read
    // from the input and re-parsed, the chunk is the ingested one, and it
    // carries every type and attribute of the batch.
    const mr::IngestLog log = mr::readIngestLog(*volume, cfg.checkpointDir, 0, {text.size(), 0});
    ASSERT_EQ(log.chunks[0].size(), 1u);
    EXPECT_EQ(log.chunks[1].size(), 0u);
    mg::GeometryBatch chunk;
    const mc::DatasetHandle input{"rt.wkt", &parser, {}};
    mr::ChunkReadAhead reads(comm, *volume);
    reads.enqueue(input, log.chunks[0][0]);
    EXPECT_EQ(reads.take(log.chunks[0][0], chunk), text.size());
    expectBatchesBitEqual(ingested, chunk);
    ASSERT_EQ(chunk.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(chunk.type(i), batch.type(i));
      EXPECT_EQ(chunk.envelope(i), batch.envelope(i));
      EXPECT_EQ(chunk.userData(i), batch.userData(i));
      EXPECT_EQ(mg::writeWkb(chunk.materialize(i)), mg::writeWkb(batch.materialize(i)));
    }

    // Stale-manifest guard: a map that assigns a present cell elsewhere
    // rejects the delta.
    std::vector<int> stale(owner);
    stale[2] = 1;
    mg::GeometryBatch rejected;
    EXPECT_THROW(mr::loadShardSet(*volume, cfg.checkpointDir, 0, *manifest, 0, stale, rejected),
                 mvio::util::Error);
  });
}

// The extent log's replay contract: a chunk re-read from its logged
// extents and re-parsed equals the ingested chunk bit for bit, whatever
// cut the partitioner made — the kMessage ring (rank 0's carry spans an
// iteration boundary), several one-shot iterations (several extents), the
// maxGeometryBytes fallback (a re-read block), kOverlap halos, framed WKB
// and a pool parse.
TEST(Checkpoint, ExtentLogReparsesBitExact) {
  auto volume = lustreVolume();
  const mo::RecordGenerator gen(mo::datasetSpec(mo::DatasetId::kCemetery, 71));
  constexpr std::uint64_t kRecords = 600;
  const std::string wkt = mo::generateWktText(gen, kRecords);
  volume->create("ext.wkt", std::make_shared<mp::MemoryBackingStore>(wkt));
  volume->create("ext.wkb",
                 std::make_shared<mp::MemoryBackingStore>(mo::generateWkbText(gen, kRecords)));
  const mc::WktParser parser;
  const mc::FormatReader* wkb = mc::FormatRegistry::instance().get("wkb");

  mc::PartitionConfig oneShot;
  oneShot.blockSize = 2 << 10;
  mc::PartitionConfig fallback;
  fallback.maxGeometryBytes = 16 << 10;
  mc::PartitionConfig overlap;
  overlap.strategy = mc::BoundaryStrategy::kOverlap;
  overlap.maxGeometryBytes = 16 << 10;
  struct Case {
    std::string name;
    mc::DatasetHandle input;
    std::uint64_t chunkBytes;
    int threads;
  };
  const std::vector<Case> cases = {
      {"streamed kMessage", {"ext.wkt", &parser, {}}, 4 << 10, 1},
      {"one-shot, several iterations",
       {"ext.wkt", &parser, oneShot},
       mc::PartitionReader::kWholePartition,
       1},
      {"maxGeometryBytes fallback", {"ext.wkt", &parser, fallback}, 256, 1},
      {"kOverlap", {"ext.wkt", &parser, overlap}, 3 << 10, 1},
      {"framed WKB", {"ext.wkb", nullptr, {}, wkb}, 4 << 10, 1},
      {"pool parse", {"ext.wkt", &parser, {}}, 4 << 10, 3},
  };
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    std::mutex mu;
    std::uint64_t records = 0, bytesRead = 0, maxChunks = 0, maxExtents = 0;
    mm::Runtime::run(4, [&](mm::Comm& comm) {
      mc::PhaseBreakdown phases;
      mc::StreamConfig sc;
      sc.checkpointEveryRounds = 1;
      sc.checkpointDir = "__ck_ext" + std::to_string(k);
      mr::CheckpointCoordinator ckpt(comm, *volume, sc, &phases);
      std::optional<mvio::util::ThreadPool> pool;
      if (c.threads > 1) pool.emplace(c.threads);
      mvio::io::File file = mvio::io::File::open(comm, *volume, c.input.path);
      mc::PartitionReader reader(comm, file, c.input.partition, c.chunkBytes, &c.input.reader());
      std::vector<mg::GeometryBatch> ingested;
      std::uint64_t extents = 0;
      std::string text;
      while (reader.next(text)) {
        mg::GeometryBatch chunk;
        c.input.reader().parseChunk(text, chunk, pool ? &*pool : nullptr);
        ckpt.logChunk(0, reader.extents(), text);
        extents = std::max<std::uint64_t>(extents, reader.extents().size());
        ingested.push_back(std::move(chunk));
      }
      ckpt.sealIngest();

      const mr::IngestLog log =
          mr::readIngestLog(*volume, sc.checkpointDir, comm.worldRank(), {file.size(), 0});
      ASSERT_EQ(log.chunks[0].size(), ingested.size()) << c.name;
      // Every chunk's re-read is queued and a stripe width of them posted
      // before the first is parsed, as recovery does.
      mr::ChunkReadAhead reads(comm, *volume);
      for (const mr::LoggedChunk& logged : log.chunks[0]) reads.enqueue(c.input, logged);
      reads.post();
      std::uint64_t mine = 0;
      for (std::size_t i = 0; i < ingested.size(); ++i) {
        mg::GeometryBatch again;
        reads.take(log.chunks[0][i], again);
        expectBatchesBitEqual(ingested[i], again);
        mine += again.size();
      }
      std::lock_guard<std::mutex> lock(mu);
      records += mine;
      bytesRead += reader.counters().bytesRead;
      maxChunks = std::max<std::uint64_t>(maxChunks, ingested.size());
      maxExtents = std::max(maxExtents, extents);
    });
    EXPECT_EQ(records, kRecords) << c.name << ": the chunks must tile the file";
    if (c.name == "streamed kMessage") EXPECT_GT(maxChunks, 1u) << c.name;
    if (c.name == "one-shot, several iterations") EXPECT_GT(maxExtents, 1u) << c.name;
    if (c.name == "maxGeometryBytes fallback") {
      EXPECT_GT(bytesRead, wkt.size()) << c.name << ": some block must have been re-read";
    }
  }
}

TEST(Checkpoint, EachShardByteIsHashedOncePerSide) {
  // A manifest ref is the shard's own header-checksum word, so writing a
  // delta hashes each shard byte once (the codec's two CRCs) and loading
  // it hashes each byte once more — no second pass over the blob.
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();
  mg::GeometryBatch big;  // > kMaxShardBytes, so layer 1 spans several shards
  for (int k = 0; k < 4000; ++k) {
    for (std::size_t i = 0; i < batch.size(); ++i) big.appendRecordFrom(batch, i, batch.cell(i));
  }

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mc::StreamConfig cfg;
    cfg.checkpointEveryRounds = 1;
    cfg.checkpointDir = "__ck_hash_once";
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    ckpt.noteRound(0, batch);
    ckpt.noteRound(1, big);
    const std::vector<int> owner(8, 0);
    const std::uint64_t beforeWrite = mvio::util::perf::bytesChecksummed();
    ASSERT_TRUE(ckpt.maybeCheckpoint(1, owner));
    const std::uint64_t written = mvio::util::perf::bytesChecksummed() - beforeWrite;

    const auto manifest =
        mr::readShardSetManifest(*volume, cfg.checkpointDir, 0, /*base=*/false, 1);
    ASSERT_TRUE(manifest.has_value());
    ASSERT_EQ(manifest->shards[0].size(), 1u);
    ASSERT_GT(manifest->shards[1].size(), 1u);
    // Each shard's bytes bar its 8-byte header-checksum word.
    std::uint64_t hashable = 0;
    for (int layer = 0; layer < 2; ++layer) {
      for (const mr::ShardSetManifest::Shard& ref : manifest->shards[layer]) {
        hashable += ref.bytes - 8;
      }
    }
    EXPECT_EQ(written, hashable);

    const std::uint64_t beforeLoad = mvio::util::perf::bytesChecksummed();
    mg::GeometryBatch loaded[2];
    EXPECT_EQ(mr::loadShardSet(*volume, cfg.checkpointDir, 0, *manifest, 0, owner, loaded[0]),
              batch.size());
    EXPECT_EQ(mr::loadShardSet(*volume, cfg.checkpointDir, 0, *manifest, 1, owner, loaded[1]),
              big.size());
    EXPECT_EQ(mvio::util::perf::bytesChecksummed() - beforeLoad, hashable);
  });
}

TEST(Checkpoint, TornSealFallsBackToPreviousEpoch) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mc::StreamConfig cfg;
    cfg.checkpointEveryRounds = 1;
    cfg.checkpointDir = "__ck_torn";
    cfg.tearEpochSeal = 2;  // epoch 2's seal is written truncated
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    const std::vector<int> owner(8, 0);
    ckpt.noteRound(0, batch);
    ASSERT_TRUE(ckpt.maybeCheckpoint(1, owner));
    ckpt.noteRound(0, batch);
    ASSERT_TRUE(ckpt.maybeCheckpoint(2, owner));

    // The torn epoch-2 seal is rejected; the scan falls back to epoch 1.
    EXPECT_FALSE(mr::readEpochSeal(*volume, cfg.checkpointDir, 2).has_value());
    const auto seal = mr::findLastSealedEpoch(*volume, cfg.checkpointDir, 1, 2);
    ASSERT_TRUE(seal.has_value());
    EXPECT_EQ(seal->epoch, 1u);

    // A corrupted rank manifest makes epoch 1 partial too: no epoch
    // survives validation.
    mp::SpillStore rankStore(*volume, mr::rankPrefix(cfg.checkpointDir, 0));
    std::string m = rankStore.fetch("ep1.manifest");
    m[10] ^= 0x40;
    rankStore.put("ep1.manifest", std::move(m));
    EXPECT_FALSE(mr::findLastSealedEpoch(*volume, cfg.checkpointDir, 1, 2).has_value());
  });
}

// ---- Adaptive rebalance trigger ------------------------------------------

TEST(AdaptiveRebalance, SkipsWhenImbalanceBelowThreshold) {
  RecoveryFixture fx;
  // Threshold high enough that no realistic imbalance clears it: the pass
  // must measure, record, and skip — no cells move, nothing hits the wire.
  std::atomic<int> skipped{0};
  std::atomic<std::uint64_t> moved{0}, wireBytes{0};
  std::atomic<int> measured{0};
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = 36;
    cfg.framework.rebalanceCells = true;
    cfg.framework.rebalanceThreshold = 1e9;
    mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
    mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg);
    if (stats.balance.skipped) skipped += 1;
    if (stats.balance.imbalance >= 1.0) measured += 1;
    moved += stats.balance.cellsMoved;
    wireBytes += stats.balance.transport.bytesSent;
  });
  EXPECT_EQ(skipped.load(), 4);
  EXPECT_EQ(measured.load(), 4) << "imbalance must be measured even when the pass is skipped";
  EXPECT_EQ(moved.load(), 0u);
  EXPECT_EQ(wireBytes.load(), 0u);

  // The default threshold (1.0) always triggers on non-empty grids.
  std::atomic<int> ran{0};
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = 36;
    cfg.framework.rebalanceCells = true;
    mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
    mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg);
    if (!stats.balance.skipped && stats.balance.imbalance >= 1.0) ran += 1;
  });
  EXPECT_EQ(ran.load(), 4);
}

// ---- Headline acceptance: kill ranks mid-stream, results identical -------

namespace {

struct JoinRun {
  std::vector<mc::JoinPair> pairs;   ///< all live ranks' pairs, sorted
  std::uint64_t globalPairs = 0;
  std::uint64_t dataRounds = 0;      ///< max PhaseBreakdown::rounds minus terminations
  int died = 0, recovered = 0;
  std::uint64_t checkpointBytes = 0, recoveryBytes = 0, recoveryRounds = 0;
  std::uint64_t deadCheckpointBytes = 0;  ///< durable bytes the dead ranks wrote
  std::uint64_t epochUsed = 0;
  std::uint64_t recoveryPasses = 0;   ///< max across survivors
  std::uint64_t deadRanksSeen = 0;    ///< max RecoveryStats::deadRanks (cumulative)
  std::uint64_t compactionBytes = 0, reclaimedBytes = 0;  ///< summed across ranks
  std::uint64_t migrationPasses = 0;  ///< max across ranks, both layers
};

JoinRun runJoin(RecoveryFixture& fx, const std::function<void(mc::JoinConfig&)>& tweak) {
  JoinRun run;
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
    run.dataRounds = std::max(run.dataRounds, stats.phases.rounds);
    run.checkpointBytes += stats.phases.checkpointBytes;
    run.compactionBytes += stats.phases.compactionBytes;
    run.reclaimedBytes += stats.phases.reclaimedBytes;
    run.migrationPasses = std::max(run.migrationPasses, stats.balance.migrationPasses);
    // A rank killed *during* recovery carries both bits: it recovered in
    // an earlier pass, then died. Count it as a death only — recovered
    // tallies the ranks that finished the job.
    if (stats.recovery.died) {
      run.died += 1;
      run.deadCheckpointBytes += stats.phases.checkpointBytes;
    }
    if (!stats.recovery.died && stats.recovery.recovered) {
      run.recovered += 1;
      run.globalPairs = stats.globalPairs;
      run.recoveryBytes += stats.phases.recoveryBytes;
      run.recoveryRounds = std::max(run.recoveryRounds, stats.phases.recoveryRounds);
      run.epochUsed = stats.recovery.epochUsed;
      run.recoveryPasses = std::max(run.recoveryPasses, stats.recovery.recoveryPasses);
      run.deadRanksSeen = std::max(run.deadRanksSeen, stats.recovery.deadRanks);
    } else if (!stats.recovery.died) {
      run.globalPairs = stats.globalPairs;
    }
  });
  std::sort(run.pairs.begin(), run.pairs.end());
  return run;
}

}  // namespace

TEST(FailureRecovery, JoinBitIdenticalAfterMidStreamKill) {
  RecoveryFixture fx;

  // Failure-free baseline (checkpointing on, so its overhead is also
  // exercised on the no-failure path).
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_base");
  });
  ASSERT_FALSE(base.pairs.empty());
  EXPECT_EQ(base.died, 0);
  EXPECT_GT(base.checkpointBytes, 0u) << "checkpointed run must write durable bytes";
  // Two-layer streaming: rounds = dataR + 1 + dataS + 1.
  ASSERT_GE(base.dataRounds, 8u) << "fixture must stream enough rounds for a mid-stream kill";

  // Kill one rank after round 3 (epoch 1 sealed at round 2 — one round of
  // deliveries to the dead rank is unsealed and must come back via replay).
  const JoinRun killed = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_k1");
    cfg.framework.failSchedule = {{2, 3, 0}};
  });
  EXPECT_EQ(killed.died, 1);
  EXPECT_EQ(killed.recovered, 3);
  EXPECT_EQ(killed.epochUsed, 1u);
  EXPECT_GT(killed.recoveryBytes, 0u) << "PhaseBreakdown must report recovery bytes";
  EXPECT_GT(killed.recoveryRounds, 0u) << "PhaseBreakdown must report replayed rounds";
  EXPECT_EQ(killed.pairs, base.pairs) << "join results must be identical to the failure-free run";
  EXPECT_EQ(killed.globalPairs, base.globalPairs);

  // Kill two ranks (k = 2), later in the stream.
  const JoinRun killed2 = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_k2");
    cfg.framework.failSchedule = {{1, 5, 0}, {3, 5, 0}};
  });
  EXPECT_EQ(killed2.died, 2);
  EXPECT_EQ(killed2.recovered, 2);
  EXPECT_EQ(killed2.epochUsed, 2u) << "epoch 2 (sealed at round 4) is the recovery point";
  EXPECT_EQ(killed2.pairs, base.pairs);

  // Torn seal: the epoch sealed just before the kill is torn mid-write;
  // recovery must fall back to the previous sealed epoch and replay more
  // rounds — results still identical.
  const JoinRun torn = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_torn_e2e");
    cfg.framework.stream.tearEpochSeal = 2;
    cfg.framework.failSchedule = {{2, 5, 0}};
  });
  EXPECT_EQ(torn.recovered, 3);
  EXPECT_EQ(torn.epochUsed, 1u) << "torn epoch 2 must be skipped in favour of epoch 1";
  EXPECT_GT(torn.recoveryRounds, killed2.recoveryRounds)
      << "falling back one epoch must replay more rounds than the same kill with epoch 2 intact";
  EXPECT_EQ(torn.pairs, base.pairs);

  // Failure recovery composed with skew-aware rebalancing on the
  // survivors (world-rank translation of the LPT map).
  const JoinRun rebalanced = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_rb");
    cfg.framework.failSchedule = {{2, 3, 0}};
    cfg.framework.rebalanceCells = true;
  });
  EXPECT_EQ(rebalanced.recovered, 3);
  EXPECT_EQ(rebalanced.pairs, base.pairs);
}

TEST(FailureRecovery, OverlayRasterBitIdenticalWhenRankZeroDies) {
  RecoveryFixture fx;
  // Mode 0: failure-free. Mode 1: rank 0 dies. Mode 2: ranks 0-2 die at
  // one boundary, so the lone survivor replays through a 1-rank exchange.
  constexpr int kModes = 3;
  std::array<std::string, kModes> rasters;
  std::array<double, kModes> totalsR{0, 0, 0};
  std::array<int, kModes> died{0, 0, 0};

  for (int mode = 0; mode < kModes; ++mode) {
    const std::string out = "cov_mode" + std::to_string(mode) + ".bin";
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.outputPath = out;
      if (mode == 1) {
        cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_ov");
        // Rank 0 dies: epoch seals it wrote pre-kill must still commit,
        // and the survivors' collective write re-roots on the shrunk
        // communicator.
        cfg.framework.failSchedule = {{0, 4, 0}};
      } else if (mode == 2) {
        cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_ov_lone");
        cfg.framework.failSchedule = {{0, 4, 0}, {1, 4, 0}, {2, 4, 0}};
      }
      mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
      mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
      const auto stats = mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
      std::lock_guard<std::mutex> lock(mu);
      if (stats.recovery.died) died[static_cast<std::size_t>(mode)] += 1;
      if (!stats.recovery.died) totalsR[static_cast<std::size_t>(mode)] = stats.totalR;
    });
    rasters[static_cast<std::size_t>(mode)] = fileBytes(*fx.volume, out);
  }

  ASSERT_FALSE(rasters[0].empty());
  EXPECT_EQ(died[1], 1);
  EXPECT_EQ(died[2], 3);
  for (int mode = 1; mode < kModes; ++mode) {
    EXPECT_EQ(rasters[0], rasters[static_cast<std::size_t>(mode)])
        << "mode " << mode << ": coverage raster must be bit-identical to the failure-free run";
    EXPECT_NEAR(totalsR[0], totalsR[static_cast<std::size_t>(mode)],
                1e-9 * std::max(1.0, std::abs(totalsR[0])));
  }
  EXPECT_GT(totalsR[0], 0.0);
}

TEST(FailureRecovery, SingleLayerIndexMatchesAfterKill) {
  RecoveryFixture fx;
  const std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {-5, -5, -1, -1}, {7, 3, 18, 9}};
  std::array<std::vector<std::uint64_t>, 2> counts;
  counts.fill(std::vector<std::uint64_t>(queries.size(), 0));

  for (int mode = 0; mode < 2; ++mode) {
    std::mutex mu;
    mm::Runtime::run(5, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::IndexingConfig cfg;
      cfg.framework.gridCells = 49;
      if (mode == 1) {
        cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_idx");
        cfg.framework.failSchedule = {{1, 3, 0}, {3, 3, 0}};
      }
      mc::DatasetHandle data{"r.wkt", &fx.parser, {}};
      mc::IndexingStats stats;
      const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg, &stats);
      if (stats.recovery.died) {
        EXPECT_EQ(index.localGeometries(), 0u) << "dead ranks adopt nothing";
        return;
      }
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const std::uint64_t local = index.queryCount(queries[q]);
        std::lock_guard<std::mutex> lock(mu);
        counts[static_cast<std::size_t>(mode)][q] += local;
      }
    });
  }
  EXPECT_EQ(counts[0], counts[1]) << "index query counts must survive the kill";
  EXPECT_GT(counts[0][1], 0u);
}

// After recovery the survivors resume the round loop with their own
// staged chunks, so the only input re-read past the kill round is the dead
// rank's share: recovery reads the dead rank's durable blobs (its sealed
// sets once per survivor), the seal scan, every rank's ingest manifest and
// every rank's logged extents for the rounds between the seal and the
// kill — nothing more.
TEST(FailureRecovery, ResumedRoundsReadOnlyTheDeadRanksLog) {
  RecoveryFixture fx;
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__rd_base");
  });
  const std::string dir = "__rd_kill";
  const JoinRun killed = runJoin(fx, [&](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, dir);
    cfg.framework.failSchedule = {{2, 3, 0}};
  });
  EXPECT_EQ(killed.died, 1);
  EXPECT_EQ(killed.pairs, base.pairs);
  ASSERT_EQ(killed.epochUsed, 1u) << "epoch 1 (sealed at round 2) is the recovery point";
  constexpr std::uint64_t kSealedRound = 2, kKillRound = 3;
  EXPECT_EQ(killed.recoveryRounds, kKillRound - kSealedRound);

  const std::array<std::uint64_t, 2> inputs = {fileBytes(*fx.volume, "r.wkt").size(),
                                               fileBytes(*fx.volume, "s.wkt").size()};
  std::vector<mr::IngestLog> logs;
  std::uint64_t roundsR = 0;
  for (int q = 0; q < 4; ++q) {
    logs.push_back(mr::readIngestLog(*fx.volume, dir, q, inputs));
    roundsR = std::max<std::uint64_t>(roundsR, logs.back().chunks[0].size());
  }
  ASSERT_GT(roundsR, kKillRound) << "the kill must pre-empt rounds of layer R";
  const auto extentBytes = [](const mr::LoggedChunk& c) {
    std::uint64_t bytes = 0;
    for (const mc::FileExtent& e : c.extents) bytes += e.length;
    return bytes;
  };
  std::uint64_t replayedLog = 0;
  for (std::uint64_t t = kSealedRound + 1; t <= kKillRound; ++t) {
    const int layer = t <= roundsR ? 0 : 1;
    const std::uint64_t chunk = layer == 0 ? t - 1 : t - roundsR - 1;
    for (int q = 0; q < 4; ++q) {
      const auto& logged = logs[static_cast<std::size_t>(q)].chunks[layer];
      if (chunk < logged.size()) replayedLog += extentBytes(logged[chunk]);
    }
  }
  // The dead rank's share of the input, which the adopting survivor
  // re-reads from the kill round on, and its durable blobs — its sealed
  // shard sets, which every survivor reads to restore the orphans it now
  // owns, and its ingest manifest. Each survivor also scans the seal and
  // every rank's epoch manifest, and the replay reads each rank's ingest
  // manifest once.
  constexpr int kDead = 2, kSurvivors = 3;
  const auto blob = [&](int q, const std::string& name) {
    return static_cast<std::uint64_t>(fileBytes(*fx.volume, mr::rankPrefix(dir, q) + "/" + name).size());
  };
  std::uint64_t deadLog = 0;
  for (int layer = 0; layer < 2; ++layer) {
    for (const mr::LoggedChunk& c : logs[kDead].chunks[layer]) deadLog += extentBytes(c);
  }
  std::uint64_t sealScan = fileBytes(*fx.volume, mr::globalPrefix(dir) + "/ep1.seal").size();
  std::uint64_t ingestManifests = 0;
  for (int q = 0; q < 4; ++q) {
    sealScan += blob(q, "ep1.manifest");
    ingestManifests += blob(q, "ing.manifest");
  }
  EXPECT_LE(killed.recoveryBytes, deadLog + kSurvivors * killed.deadCheckpointBytes +
                                      kSurvivors * sealScan + replayedLog + ingestManifests)
      << "survivors must not re-read their own input for the rounds after the kill";
  // The re-reads are posted ahead (ChunkReadAhead), which moves when they
  // reach the storage model, not what they read: every extent is still
  // read once, so the bytes equal the blocking re-reads' on this schedule.
  EXPECT_EQ(killed.recoveryBytes, 134'668u);
}

namespace {

/// Records each refined cell's arrival order: a digest of its R then S
/// records' envelopes and userData, in the order refine sees them.
class ArrivalOrderTask final : public mc::RefineTask {
 public:
  void refineCellBatch(const mc::GridSpec& /*grid*/, int cell, const mg::BatchSpan& r,
                       const mg::BatchSpan& s) override {
    std::string seq;
    for (const mg::BatchSpan* span : {&r, &s}) {
      for (std::size_t k = 0; k < span->size(); ++k) {
        const mg::Envelope& e = span->envelope(k);
        seq.append(reinterpret_cast<const char*>(&e), sizeof e);
        seq.append(span->userData(k));
      }
      seq.push_back('|');
    }
    digests[cell] = mvio::util::fnv1a(seq);
    records += r.size() + s.size();
  }
  std::map<int, std::uint64_t> digests;
  std::uint64_t records = 0;
};

}  // namespace

// Each survivor sends its own chunk and the logged chunks of the dead
// ranks it adopts in ascending source order, so every cell receives its
// records in the failure-free order — the order FP-summing consumers
// need to stay bit-identical. Rank 0 dying puts the adopted chunk before
// the lowest survivor's own; the last rank dying puts it after; a
// two-wave cascade adopts from the final survivor set through a windowed
// exchange.
TEST(FailureRecovery, AdoptedChunksKeepTheSourceOrder) {
  RecoveryFixture fx;
  struct Case {
    std::string name;
    int windowPhases;
    std::vector<mvio::sim::FailureEvent> schedule;
    int died;
  };
  const std::vector<Case> cases = {
      {"failure-free", 1, {}, 0},
      {"failure-free windowed", 3, {}, 0},
      {"rank 0 dies", 1, {{0, 3, 0}}, 1},
      {"the last rank dies", 1, {{3, 3, 0}}, 1},
      {"two-wave cascade through a windowed exchange", 3, {{1, 3, 0}, {2, 3, 1}}, 2},
  };
  std::vector<std::map<int, std::uint64_t>> orders;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const Case& c = cases[k];
    std::map<int, std::uint64_t> order;
    int died = 0;
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::FrameworkConfig cfg;
      cfg.gridCells = 36;
      cfg.windowPhases = c.windowPhases;
      cfg.stream = RecoveryFixture::streamedConfig(2, "__ck_order" + std::to_string(k));
      cfg.failSchedule = c.schedule;
      ArrivalOrderTask task;
      mc::DatasetHandle r{"r.wkt", &fx.parser, {}};
      mc::DatasetHandle s{"s.wkt", &fx.parser, {}};
      const auto stats = mc::runFilterRefine(comm, *fx.volume, r, &s, cfg, task);
      std::lock_guard<std::mutex> lock(mu);
      if (stats.recovery.died) {
        died += 1;
        return;
      }
      for (const auto& [cell, digest] : task.digests) {
        EXPECT_TRUE(order.emplace(cell, digest).second) << "cell " << cell << " refined twice";
      }
    });
    EXPECT_EQ(died, c.died) << c.name;
    orders.push_back(std::move(order));
  }
  ASSERT_FALSE(orders[0].empty());
  for (std::size_t k = 1; k < cases.size(); ++k) {
    EXPECT_EQ(orders[k], orders[0])
        << cases[k].name << ": every cell must receive its records in the failure-free order";
  }
}

// ---- Cascading failures + compaction + sharded replay (DESIGN.md §11) ----

TEST(CascadingFailure, SecondKillDuringRecoveryBitIdenticalWithCompaction) {
  RecoveryFixture fx;
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__cas_base");
  });
  ASSERT_FALSE(base.pairs.empty());

  // Rank 2 dies at the round-5 boundary and rank 1 dies *during* the
  // recovery pass, with checkpoint GC + compaction on.
  const JoinRun cascaded = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__cas_new");
    cfg.framework.stream.compaction.everyEpochs = 2;
    cfg.framework.failSchedule = {{2, 5, 0}, {1, 5, 1}};
  });
  EXPECT_EQ(cascaded.died, 2);
  EXPECT_EQ(cascaded.recovered, 2);
  EXPECT_EQ(cascaded.recoveryPasses, 2u) << "the mid-recovery death must trigger a second pass";
  EXPECT_EQ(cascaded.deadRanksSeen, 2u);
  EXPECT_EQ(cascaded.epochUsed, 2u) << "epoch 2 (sealed at round 4) is the recovery point";
  EXPECT_EQ(cascaded.pairs, base.pairs)
      << "join results must survive a cascading two-kill schedule";
  EXPECT_EQ(cascaded.globalPairs, base.globalPairs);
  EXPECT_GT(cascaded.compactionBytes, 0u) << "the round-4 seal must have folded a base";
  EXPECT_GT(cascaded.reclaimedBytes, 0u) << "GC must delete folded deltas";
  EXPECT_LT(cascaded.recoveryBytes, base.checkpointBytes)
      << "aggregate recovery reads must stay below one copy of the durable state";
}

TEST(CascadingFailure, ShardedReplayReadsBelowOneDurableCopy) {
  RecoveryFixture fx;
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__eq_base");
  });

  // Two-kill cascade with compaction off: the replay re-reads the input
  // of every unsealed round, split across the survivors by source rank.
  const JoinRun sharded = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__eq_shard");
    cfg.framework.failSchedule = {{1, 3, 0}, {3, 3, 1}};
  });
  EXPECT_EQ(sharded.died, 2);
  EXPECT_EQ(sharded.recoveryPasses, 2u);
  EXPECT_EQ(sharded.pairs, base.pairs);
  EXPECT_EQ(sharded.globalPairs, base.globalPairs);
  EXPECT_LT(sharded.recoveryBytes, base.checkpointBytes)
      << "splitting the chunk log by source rank must keep aggregate replay reads below one "
         "copy of the durable state";
}

namespace {

/// An input file whose byte `at` reads as `changed` for every read issued
/// after the whole file has been served once: a file edited between a
/// streamed kMessage ingest, which reads each byte exactly once, and the
/// recovery that re-reads it.
class EditedAfterIngest final : public mp::BackingStore {
 public:
  EditedAfterIngest(std::string bytes, std::uint64_t at, char changed)
      : bytes_(std::move(bytes)), at_(at), changed_(changed) {}
  [[nodiscard]] std::uint64_t size() const override { return bytes_.size(); }
  void read(std::uint64_t offset, char* dst, std::size_t n) const override {
    const std::uint64_t servedBefore = served_.fetch_add(n);
    std::memcpy(dst, bytes_.data() + offset, n);
    if (servedBefore >= bytes_.size() && at_ >= offset && at_ < offset + n) {
      dst[at_ - offset] = changed_;
    }
  }

 private:
  std::string bytes_;
  std::uint64_t at_;
  char changed_;
  mutable std::atomic<std::uint64_t> served_{0};
};

}  // namespace

// The extent log trusts the input not to change during a run, and checks
// it: a coordinate digit edited after ingest still parses, so only the
// logged checksum can tell. Recovery must refuse with a typed error, not
// join the edited record.
TEST(FailureRecovery, ChangedInputIsATypedError) {
  RecoveryFixture fx;
  std::string s = fileBytes(*fx.volume, "s.wkt");
  // A digit inside the dead rank's first S block, which its adopter
  // re-reads after the kill.
  std::uint64_t at = 2 * (4 << 10) + 100;
  while (at < s.size() && (s[at] < '0' || s[at] > '9')) ++at;
  ASSERT_LT(at, s.size());
  const char changed = s[at] == '9' ? '8' : static_cast<char>(s[at] + 1);
  fx.volume->createOrReplace("s.wkt",
                             std::make_shared<EditedAfterIngest>(std::move(s), at, changed));
  try {
    runJoin(fx, [](mc::JoinConfig& cfg) {
      cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_edited");
      cfg.framework.failSchedule = {{2, 3, 0}};
    });
    ADD_FAILURE() << "recovery re-parsed an input that changed after ingest";
  } catch (const mvio::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("changed since ingest"), std::string::npos) << e.what();
  }
}

// runFilterRefine is the only guard on a fault config: every malformed
// schedule must be rejected before it can strike.
TEST(FailureRecovery, FaultScheduleValidationRejectsMalformedSchedules) {
  RecoveryFixture fx;
  int runs = 0;
  // Runs a 4-rank join under `schedule` and rethrows its error after
  // checking the message names the intended rejection.
  const auto runRejected = [&](std::vector<mvio::sim::FailureEvent> schedule,
                               const std::string& why, std::uint64_t checkpointEvery = 2) {
    const std::string ckptDir = "__ck_bad" + std::to_string(runs++);
    try {
      runJoin(fx, [&](mc::JoinConfig& cfg) {
        cfg.framework.stream = RecoveryFixture::streamedConfig(checkpointEvery, ckptDir);
        cfg.framework.failSchedule = schedule;
      });
    } catch (const mvio::util::Error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
      throw;
    }
  };
  EXPECT_THROW(runRejected({{4, 3, 0}}, "outside the communicator"), mvio::util::Error);
  EXPECT_THROW(runRejected({{2, 3, 0}, {2, 5, 0}}, "same rank twice"), mvio::util::Error);
  EXPECT_THROW(runRejected({{0, 3, 0}, {1, 3, 0}, {2, 3, 0}, {3, 3, 0}}, "at least one survivor"),
               mvio::util::Error);
  EXPECT_THROW(runRejected({{2, 3, 1}}, "first failure wave"), mvio::util::Error);
  EXPECT_THROW(runRejected({{2, 0, 0}}, "without a kill round"), mvio::util::Error);
  EXPECT_THROW(runRejected({{2, 3, -1}}, "negative recovery pass"), mvio::util::Error);
  EXPECT_THROW(runRejected({{2, 1000, 0}}, "beyond the data-round schedule"), mvio::util::Error);
  EXPECT_THROW(runRejected({{2, 3, 0}}, "requires StreamConfig::checkpointEveryRounds", 0),
               mvio::util::Error);
}

TEST(CascadingFailure, LaterRoundWaveComposesWithRebalance) {
  RecoveryFixture fx;
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__lw_base");
  });

  // A second wave scheduled at a *later* round boundary: everything past
  // the first kill is recovery territory, so the survivors detect it on
  // their next allgather and run another pass — composed with skew-aware
  // rebalancing on the doubly-shrunk communicator.
  const JoinRun waves = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__lw_run");
    cfg.framework.stream.compaction.everyEpochs = 1;
    cfg.framework.failSchedule = {{0, 3, 0}, {2, 5, 0}};
    cfg.framework.rebalanceCells = true;
  });
  EXPECT_EQ(waves.died, 2);
  EXPECT_EQ(waves.recovered, 2);
  EXPECT_EQ(waves.recoveryPasses, 2u);
  EXPECT_EQ(waves.pairs, base.pairs);
}

// ---- Budget-bounded migration --------------------------------------------

TEST(AdaptiveRebalance, BudgetBoundedMigrationKeepsResults) {
  RecoveryFixture fx;
  const JoinRun unbounded = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.rebalanceCells = true;
  });
  ASSERT_FALSE(unbounded.pairs.empty());
  EXPECT_EQ(unbounded.migrationPasses, 2u) << "no budget: one pass per layer";

  // A tiny memory budget forces the leaving cells through several staged
  // passes; each cell still moves wholly in one pass, so per-cell record
  // order — and every refine result — is unchanged.
  const JoinRun bounded = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.rebalanceCells = true;
    cfg.framework.stream.chunkBytes = 4 << 10;
    cfg.framework.stream.memoryBudget = 8 << 10;
  });
  EXPECT_GT(bounded.migrationPasses, 2u)
      << "a budget smaller than the leaving sets must stage the migration";
  EXPECT_EQ(bounded.pairs, unbounded.pairs);
  EXPECT_EQ(bounded.globalPairs, unbounded.globalPairs);
}

// ---- Checkpoint GC + epoch compaction ------------------------------------

TEST(Checkpoint, CompactionFoldsAndReclaims) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  const std::string text = wktLines(batch);
  volume->create("gc.wkt", std::make_shared<mp::MemoryBackingStore>(text));

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mc::StreamConfig cfg;
    cfg.checkpointEveryRounds = 1;
    cfg.checkpointDir = "__ck_gc";
    cfg.compaction.everyEpochs = 2;
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    logWholeFile(ckpt, text, 4);
    const std::vector<int> owner(8, 0);
    for (std::uint64_t e = 1; e <= 4; ++e) {
      ckpt.noteRound(0, batch);
      ASSERT_TRUE(ckpt.maybeCheckpoint(e, owner));
    }

    // Epoch 4's seal triggered the second fold: base 3 supersedes base 1.
    const auto baseM =
        mr::readShardSetManifest(*volume, cfg.checkpointDir, 0, /*base=*/true, 0);
    ASSERT_TRUE(baseM.has_value());
    EXPECT_EQ(baseM->epoch, 3u);
    EXPECT_EQ(baseM->rounds, 3u);
    EXPECT_EQ(baseM->records[0], 3 * batch.size());
    mg::GeometryBatch restored;
    EXPECT_EQ(mr::loadShardSet(*volume, cfg.checkpointDir, 0, *baseM, 0, owner, restored),
              3 * batch.size());

    // The seal scan still validates after GC: manifests and seals are
    // kept even for folded epochs.
    const auto seal = mr::findLastSealedEpoch(*volume, cfg.checkpointDir, 1, 4);
    ASSERT_TRUE(seal.has_value());
    EXPECT_EQ(seal->epoch, 4u);

    // Folded delta shards are gone (their manifest survives as metadata).
    const auto m1 = mr::readShardSetManifest(*volume, cfg.checkpointDir, 0, /*base=*/false, 1);
    ASSERT_TRUE(m1.has_value());
    mg::GeometryBatch dropped;
    EXPECT_THROW(mr::loadShardSet(*volume, cfg.checkpointDir, 0, *m1, 0, owner, dropped),
                 mvio::util::Error);
    // Epoch 4 is outside the base: its delta must still load.
    const auto m4 = mr::readShardSetManifest(*volume, cfg.checkpointDir, 0, /*base=*/false, 4);
    ASSERT_TRUE(m4.has_value());
    mg::GeometryBatch tail;
    EXPECT_EQ(mr::loadShardSet(*volume, cfg.checkpointDir, 0, *m4, 0, owner, tail), batch.size());

    // The extent log holds no data to reclaim: compaction leaves it whole,
    // and every logged chunk still re-reads from the input.
    const mr::IngestLog log = mr::readIngestLog(*volume, cfg.checkpointDir, 0, {text.size(), 0});
    ASSERT_EQ(log.chunks[0].size(), 4u);
    const mc::WktParser parser;
    const mc::DatasetHandle input{"gc.wkt", &parser, {}};
    mr::ChunkReadAhead reads(comm, *volume);
    for (const mr::LoggedChunk& logged : log.chunks[0]) reads.enqueue(input, logged);
    for (const mr::LoggedChunk& logged : log.chunks[0]) {
      mg::GeometryBatch chunk;
      reads.take(logged, chunk);
      EXPECT_EQ(chunk.size(), batch.size());
    }

    // The superseded base-1 shards were reclaimed too.
    mp::SpillStore rankStore(*volume, mr::rankPrefix(cfg.checkpointDir, 0));
    EXPECT_FALSE(rankStore.contains(mr::shardName(/*base=*/true, 1, 0, 0)));
    EXPECT_TRUE(rankStore.contains(mr::shardName(/*base=*/true, 3, 0, 0)));

    EXPECT_GT(phases.compactionBytes, 0u);
    EXPECT_GT(phases.reclaimedBytes, 0u);
    EXPECT_GT(phases.compaction, 0.0) << "fold I/O must be charged to the compaction phase";
  });
}

TEST(Checkpoint, CompactionSkipsTornSeal) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();
  const std::string text = wktLines(batch);
  volume->create("torn.wkt", std::make_shared<mp::MemoryBackingStore>(text));

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mc::StreamConfig cfg;
    cfg.checkpointEveryRounds = 1;
    cfg.checkpointDir = "__ck_gc_torn";
    cfg.compaction.everyEpochs = 2;
    cfg.tearEpochSeal = 2;  // the epoch that would trigger the fold
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    logWholeFile(ckpt, text, 2);
    const std::vector<int> owner(8, 0);
    ckpt.noteRound(0, batch);
    ASSERT_TRUE(ckpt.maybeCheckpoint(1, owner));
    ckpt.noteRound(0, batch);
    ASSERT_TRUE(ckpt.maybeCheckpoint(2, owner));

    // A torn seal must not anchor a fold: compaction would GC the epoch-1
    // delta that the fallback recovery still needs.
    EXPECT_FALSE(
        mr::readShardSetManifest(*volume, cfg.checkpointDir, 0, /*base=*/true, 0).has_value());
    EXPECT_EQ(phases.compactionBytes, 0u);
    EXPECT_EQ(phases.reclaimedBytes, 0u);
    const auto m1 = mr::readShardSetManifest(*volume, cfg.checkpointDir, 0, /*base=*/false, 1);
    ASSERT_TRUE(m1.has_value());
    mg::GeometryBatch delta;
    EXPECT_EQ(mr::loadShardSet(*volume, cfg.checkpointDir, 0, *m1, 0, owner, delta), batch.size());
    const mr::IngestLog log = mr::readIngestLog(*volume, cfg.checkpointDir, 0, {text.size(), 0});
    ASSERT_EQ(log.chunks[0].size(), 2u);
    const mc::WktParser parser;
    const mc::DatasetHandle input{"torn.wkt", &parser, {}};
    mr::ChunkReadAhead reads(comm, *volume);
    reads.enqueue(input, log.chunks[0][0]);
    mg::GeometryBatch chunk;
    reads.take(log.chunks[0][0], chunk);
    EXPECT_EQ(chunk.size(), batch.size());
  });
}

TEST(Checkpoint, CompactionRejectsSwappedDeltaShard) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mc::StreamConfig cfg;
    cfg.checkpointEveryRounds = 1;
    cfg.checkpointDir = "__ck_gc_swap";
    cfg.compaction.everyEpochs = 2;
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    const std::vector<int> owner(8, 0);
    ckpt.noteRound(0, batch);
    ASSERT_TRUE(ckpt.maybeCheckpoint(1, owner));

    // Replace epoch 1's delta shard with a well-formed shard of other
    // records: it decodes cleanly, but no longer matches its manifest.
    mg::GeometryBatch other;
    other.appendRecordFrom(batch, 0, 0);
    std::string swapped;
    mg::encodeShard(other, swapped);
    mp::SpillStore rankStore(*volume, mr::rankPrefix(cfg.checkpointDir, 0));
    ASSERT_TRUE(rankStore.contains(mr::shardName(/*base=*/false, 1, 0, 0)));
    rankStore.put(mr::shardName(/*base=*/false, 1, 0, 0), std::move(swapped));

    // Epoch 2's seal fires the fold over epoch 1: it must refuse the
    // swapped shard rather than fold its records into the base.
    ckpt.noteRound(0, batch);
    EXPECT_THROW(ckpt.maybeCheckpoint(2, owner), mvio::util::Error);
    EXPECT_FALSE(
        mr::readShardSetManifest(*volume, cfg.checkpointDir, 0, /*base=*/true, 0).has_value());
  });
}

TEST(Checkpoint, SealScanCacheSkipsRevalidation) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mc::StreamConfig cfg;
    cfg.checkpointEveryRounds = 1;
    cfg.checkpointDir = "__ck_cache";
    cfg.tearEpochSeal = 3;  // the newest epoch is rejected on every scan
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    const std::vector<int> owner(8, 0);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      ckpt.noteRound(0, batch);
      ASSERT_TRUE(ckpt.maybeCheckpoint(e, owner));
    }

    mr::SealScanCache cache;
    std::uint64_t firstBytes = 0, secondBytes = 0;
    const auto first = mr::findLastSealedEpoch(*volume, cfg.checkpointDir, 1, 3, &firstBytes, &cache);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->epoch, 2u);
    EXPECT_GT(firstBytes, 0u);
    ASSERT_TRUE(cache.validated.has_value());
    EXPECT_EQ(cache.rejected, std::vector<std::uint64_t>{3});

    // A cascading pass re-runs the scan: the cache answers both the
    // rejected epoch 3 and the validated epoch 2 with zero reads.
    const auto second = mr::findLastSealedEpoch(*volume, cfg.checkpointDir, 1, 3, &secondBytes, &cache);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->epoch, 2u);
    EXPECT_EQ(secondBytes, 0u) << "cached scan must not re-read any seal or manifest";
  });
}
