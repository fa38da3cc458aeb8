// Format-registry + binary ingest coverage (DESIGN.md §12): registry
// dispatch, length-prefixed WKB record framing, boundary resolution at
// adversarial chunk cuts (header straddling a block edge, empty and
// truncated tail records), record-aligned slicing for the parallel
// decode — and the headline property of the binary fast path: WKT ingest
// and WKB ingest produce bit-identical join / overlay / index results at
// every thread count, one-shot and streamed, under both boundary
// strategies, including an injected failure that replays a WKB-fed chunk
// log.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/spatial_join.hpp"
#include "geom/batch_shard.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "io/file.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mi = mvio::io;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;
namespace mu = mvio::util;

namespace {

constexpr std::uint64_t kMaxRec = 11ull << 20;  // PartitionConfig default

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

/// A framed WKB stream over all seven OGC types plus the batch it should
/// decode to and the exact record-boundary offsets (0 and one past each
/// record, the last being the stream size).
struct FramedCorpus {
  std::string bytes;
  std::vector<std::uint64_t> bounds;
  mg::GeometryBatch batch;
};

FramedCorpus mixedCorpus() {
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
  FramedCorpus c;
  c.bounds.push_back(0);
  int i = 0;
  for (const char* w : wkts) {
    mg::Geometry g = mg::readWkt(w);
    g.userData = std::string("attr-") + std::to_string(i++);
    c.batch.append(g, 0);
    mc::appendWkbRecord(g, g.userData, c.bytes);
    c.bounds.push_back(c.bytes.size());
  }
  return c;
}

std::string shardBytes(const mg::GeometryBatch& b) {
  std::string out;
  mg::encodeShard(b, out);
  return out;
}

}  // namespace

// ---- Registry dispatch ----------------------------------------------------

TEST(FormatRegistry, BuiltinsAndDispatch) {
  mc::FormatRegistry& reg = mc::FormatRegistry::instance();
  const std::vector<std::string> names = reg.names();
  for (const char* expected : {"csv", "wkb", "wkt"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin format " << expected;
  }

  const mc::FormatReader* wkt = reg.get("wkt");
  EXPECT_EQ(wkt->framing(), mc::Framing::kDelimited);
  EXPECT_EQ(wkt->delimiter(), '\n');
  const mc::FormatReader* wkb = reg.get("wkb");
  EXPECT_EQ(wkb->framing(), mc::Framing::kFramed);

  EXPECT_EQ(reg.find("no-such-format"), nullptr);
  EXPECT_THROW((void)reg.get("no-such-format"), mu::Error);
}

TEST(FormatRegistry, TextReaderMatchesParserBehavior) {
  // The registry's "wkt" entry must parse exactly like a bare WktParser —
  // the behavior-preserving default every existing pipeline rides on.
  const std::string text =
      "POINT (1 2)\tattr-a\nnot a geometry\nPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n";
  const mc::WktParser parser;
  mg::GeometryBatch direct;
  const mc::ParseStats base = parser.parseAll(text, direct);

  mg::GeometryBatch viaFormat;
  const mc::ParseStats got =
      mc::FormatRegistry::instance().get("wkt")->parseChunk(text, viaFormat, nullptr);
  EXPECT_EQ(got.records, base.records);
  EXPECT_EQ(got.badRecords, base.badRecords);
  EXPECT_EQ(got.bytes, base.bytes);
  EXPECT_EQ(shardBytes(viaFormat), shardBytes(direct));
}

// ---- Framed encode/decode round trip --------------------------------------

TEST(WkbFormat, RoundTripDecodesToIdenticalArenas) {
  const FramedCorpus c = mixedCorpus();
  const std::string want = shardBytes(c.batch);

  const mc::WkbFormatReader columnar(true);
  mg::GeometryBatch got;
  const mc::ParseStats ps = columnar.parseChunk(c.bytes, got, nullptr, nullptr);
  EXPECT_EQ(ps.records, c.batch.size());
  EXPECT_EQ(ps.badRecords, 0u);
  EXPECT_EQ(ps.bytes, c.bytes.size());
  EXPECT_EQ(shardBytes(got), want) << "zero-parse columnar decode must rebuild the exact arenas";

  // The materialized reference path (per-record Geometry) must agree with
  // the columnar fast path bit for bit.
  const mc::WkbFormatReader materialized(false);
  mg::GeometryBatch ref;
  const mc::ParseStats rs = materialized.parseChunk(c.bytes, ref, nullptr, nullptr);
  EXPECT_EQ(rs.records, ps.records);
  EXPECT_EQ(shardBytes(ref), want);

  // Batch-sourced framing writes the same stream as the Geometry overload.
  std::string reframed;
  for (std::size_t i = 0; i < c.batch.size(); ++i) mc::appendWkbRecord(c.batch, i, reframed);
  EXPECT_EQ(reframed, c.bytes);
}

// ---- Boundary resolution at adversarial cuts ------------------------------

TEST(WkbFormat, SplitBoundaryAtEveryPrefixLength) {
  const FramedCorpus c = mixedCorpus();
  const mc::WkbFormatReader fmt;
  // Every possible raw block cut — including cuts straddling a record
  // header — must resolve to the largest true boundary inside the block.
  for (std::uint64_t cut = 0; cut <= c.bytes.size(); ++cut) {
    std::int64_t want = -1;  // a block too short to verify a magic has no boundary
    if (cut >= 4) {
      want = 0;
      for (const std::uint64_t b : c.bounds) {
        if (b <= cut) want = static_cast<std::int64_t>(b);
      }
    }
    const std::int64_t got = fmt.splitBoundary(std::string_view(c.bytes).substr(0, cut), kMaxRec);
    ASSERT_EQ(got, want) << "block cut at byte " << cut;
  }
  // A block smaller than its one record reports "no boundary" (-1) when it
  // starts mid-record, exactly like a delimiter-free text block.
  const std::string_view midRecord = std::string_view(c.bytes).substr(3, 8);
  EXPECT_EQ(fmt.splitBoundary(midRecord, kMaxRec), -1);
  // So does a block lying wholly inside the final record.
  const std::string_view tail = std::string_view(c.bytes).substr(c.bounds[c.bounds.size() - 2] + 1);
  EXPECT_EQ(fmt.splitBoundary(tail, kMaxRec), -1);
}

TEST(WkbFormat, BlocksStartingMidRecordResolveTheirFirstBoundary) {
  const FramedCorpus c = mixedCorpus();
  const mc::WkbFormatReader fmt;
  // Stop before the last record: a block wholly inside it holds no record
  // start, so it resolves no boundary at all (checked below).
  for (std::size_t k = 1; k + 2 < c.bounds.size(); ++k) {
    // Cut into the middle of record k's header and payload; the remainder
    // of the stream must still split at its true boundaries.
    for (const std::uint64_t off : {c.bounds[k] + 1, c.bounds[k] + 5, c.bounds[k] + 13}) {
      const std::string_view block = std::string_view(c.bytes).substr(off);
      const std::int64_t got = fmt.splitBoundary(block, kMaxRec);
      ASSERT_EQ(got, static_cast<std::int64_t>(c.bytes.size() - off)) << "offset " << off;
      const std::uint64_t first = fmt.firstBoundary(block, 0, kMaxRec);
      ASSERT_EQ(first, c.bounds[k + 1] - off) << "offset " << off;
    }
  }
}

TEST(WkbFormat, NextBoundaryWalksHeadersAndDetectsTruncation) {
  const FramedCorpus c = mixedCorpus();
  const mc::WkbFormatReader fmt;
  for (std::uint64_t from = 0; from <= c.bytes.size(); ++from) {
    const auto it = std::lower_bound(c.bounds.begin(), c.bounds.end(), from);
    ASSERT_NE(it, c.bounds.end());
    EXPECT_EQ(fmt.nextBoundary(c.bytes, 0, from, kMaxRec), *it) << "from=" << from;
  }
  // A window cut inside the final record: the record leaves the window, so
  // there is no boundary past its start — the kOverlap halo check fires.
  const std::string_view shortWindow = std::string_view(c.bytes).substr(0, c.bytes.size() - 3);
  EXPECT_EQ(fmt.nextBoundary(shortWindow, 0, shortWindow.size(), kMaxRec), mc::FormatReader::npos);
}

TEST(WkbFormat, RejectsEmptyTruncatedAndGarbageRecords) {
  const FramedCorpus c = mixedCorpus();
  const mc::WkbFormatReader fmt;

  // Empty record (wkbLen = 0): a frame with no payload must be rejected.
  std::string empty;
  mu::putScalar<std::uint32_t>(empty, mc::kWkbRecordMagic);
  mu::putScalar<std::uint32_t>(empty, 0);
  mu::putScalar<std::uint32_t>(empty, 0);
  mg::GeometryBatch out;
  mc::ParseStats ps = fmt.parseChunk(empty, out, nullptr, nullptr);
  EXPECT_EQ(ps.records, 0u);
  EXPECT_GE(ps.badRecords, 1u);

  // Truncations: records fully before the cut decode; a cut mid-record
  // counts exactly one bad tail, a cut on a boundary counts none.
  for (std::size_t k = 0; k + 1 < c.bounds.size(); ++k) {
    for (const std::uint64_t cut :
         {c.bounds[k], c.bounds[k] + 5, c.bounds[k] + 12, c.bounds[k] + 20}) {
      if (cut > c.bytes.size()) continue;
      const bool onBoundary =
          std::find(c.bounds.begin(), c.bounds.end(), cut) != c.bounds.end();
      mg::GeometryBatch b;
      const mc::ParseStats st = fmt.parseChunk(std::string_view(c.bytes).substr(0, cut), b, nullptr, nullptr);
      std::size_t whole = 0;
      while (whole + 1 < c.bounds.size() && c.bounds[whole + 1] <= cut) ++whole;
      EXPECT_EQ(st.records, whole) << "cut=" << cut;
      EXPECT_EQ(st.badRecords, onBoundary ? 0u : 1u) << "cut=" << cut;
    }
  }

  // Garbage between two intact frames: the reader must resynchronize on
  // the next magic and keep decoding.
  std::string mixed = c.bytes.substr(0, c.bounds[1]);
  mixed += "\x07garbage-not-a-frame";
  mixed += c.bytes.substr(c.bounds[1], c.bounds[2] - c.bounds[1]);
  mg::GeometryBatch b;
  ps = fmt.parseChunk(mixed, b, nullptr, nullptr);
  EXPECT_EQ(ps.records, 2u) << "both intact frames must survive the garbage between them";
  EXPECT_GE(ps.badRecords, 1u);
}

// ---- Parallel decode: record-aligned slicing ------------------------------

TEST(WkbFormat, ParallelDecodeByteIdenticalToSerial) {
  // A bigger stream so every thread count gets real slices.
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 77);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  const std::string stream = mo::generateWkbText(mo::RecordGenerator(spec), 600);

  const mc::WkbFormatReader fmt;
  mg::GeometryBatch serial;
  const mc::ParseStats base = fmt.parseChunk(stream, serial, nullptr, nullptr);
  ASSERT_EQ(base.badRecords, 0u);
  ASSERT_EQ(base.records, 600u);
  const std::string want = shardBytes(serial);

  for (const int slices : {1, 2, 3, 4, 7, 16}) {
    const auto parts = fmt.sliceFramedRecords(stream, slices, kMaxRec);
    ASSERT_EQ(static_cast<int>(parts.size()), slices);
    std::string joined;
    std::size_t offset = 0;
    for (const std::string_view part : parts) {
      if (!part.empty()) {
        const auto at = static_cast<std::size_t>(part.data() - stream.data());
        EXPECT_EQ(at, offset) << "slices must be contiguous";
        offset = at + part.size();
      }
      joined.append(part);
    }
    EXPECT_EQ(joined, stream) << "slices must tile the stream byte for byte";
  }

  for (const int threads : {1, 2, 4, 8}) {
    mu::ThreadPool pool(threads);
    mg::GeometryBatch out;
    mc::ParseTiming timing;
    const mc::ParseStats ps = fmt.parseChunk(stream, out, &pool, &timing);
    EXPECT_EQ(ps.records, base.records) << "threads=" << threads;
    EXPECT_EQ(ps.badRecords, base.badRecords) << "threads=" << threads;
    EXPECT_EQ(ps.bytes, base.bytes) << "threads=" << threads;
    EXPECT_EQ(shardBytes(out), want) << "threads=" << threads;
    EXPECT_GE(timing.cpuSum + 1e-12, timing.critical);
  }
}

// ---- PartitionReader: framed boundary resolution under MPI ----------------

namespace {

/// Partition r.wkb across 4 ranks under `strategy` (and optional streaming
/// chunks), decode every rank's text, and check the global outcome: every
/// record decodes exactly once.
void runPartitionedDecode(mc::BoundaryStrategy strategy, std::uint64_t chunkBytes,
                          std::uint64_t records, bool smallRecords = false) {
  auto volume = lustreVolume();
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 71);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  if (smallRecords) {
    // Algorithm 1 requires every chunk to fit the largest record; cap the
    // rings so tiny chunks stay legal while still straddling most headers.
    spec.maxVertices = 12;
    spec.holeProbability = 0;
  }
  volume->create("r.wkb", std::make_shared<mp::MemoryBackingStore>(
                              mo::generateWkbText(mo::RecordGenerator(spec), records)));

  const mc::FormatReader* fmt = mc::FormatRegistry::instance().get("wkb");
  std::mutex mtx;
  std::uint64_t totalRecords = 0, totalBad = 0;
  std::vector<std::string> allAttrs;
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::PartitionConfig cfg;
    cfg.strategy = strategy;
    mi::File file = mi::File::open(comm, *volume, "r.wkb");
    mc::PartitionReader reader(comm, file, cfg, chunkBytes, fmt);
    std::string text;
    mg::GeometryBatch local;
    mc::ParseStats stats;
    while (reader.next(text)) {
      const mc::ParseStats ps = fmt->parseChunk(text, local, nullptr);
      stats.records += ps.records;
      stats.badRecords += ps.badRecords;
    }
    std::lock_guard<std::mutex> lock(mtx);
    totalRecords += stats.records;
    totalBad += stats.badRecords;
    for (std::size_t i = 0; i < local.size(); ++i) allAttrs.emplace_back(local.userData(i));
  });

  EXPECT_EQ(totalRecords, records);
  EXPECT_EQ(totalBad, 0u) << "framed partitioning must never hand a parser a torn record";
  std::sort(allAttrs.begin(), allAttrs.end());
  EXPECT_EQ(std::unique(allAttrs.begin(), allAttrs.end()), allAttrs.end())
      << "no record may be decoded twice";
}

}  // namespace

TEST(FramedPartitioning, MessageStrategyOneShotAndStreamed) {
  runPartitionedDecode(mc::BoundaryStrategy::kMessage, 0, 900);
  runPartitionedDecode(mc::BoundaryStrategy::kMessage, 4 << 10, 900);
  // Tiny chunks force record headers to straddle nearly every block edge.
  runPartitionedDecode(mc::BoundaryStrategy::kMessage, 640, 300, /*smallRecords=*/true);
}

TEST(FramedPartitioning, OverlapStrategyOneShotAndStreamed) {
  runPartitionedDecode(mc::BoundaryStrategy::kOverlap, 0, 900);
  runPartitionedDecode(mc::BoundaryStrategy::kOverlap, 4 << 10, 900);
  runPartitionedDecode(mc::BoundaryStrategy::kOverlap, 640, 300, /*smallRecords=*/true);
}

// ---- End-to-end: WKT ingest ≡ WKB ingest ----------------------------------

namespace {

/// Both encodings of the same two seeded layers on one volume.
struct FormatFixture {
  std::shared_ptr<mp::Volume> volume = lustreVolume();
  mc::WktParser parser;
  const mc::FormatReader* wkb = mc::FormatRegistry::instance().get("wkb");

  FormatFixture() {
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 71);
    specR.space.world = mg::Envelope(0, 0, 20, 20);
    const mo::RecordGenerator genR(specR);
    volume->create("r.wkt",
                   std::make_shared<mp::MemoryBackingStore>(mo::generateWktText(genR, 1200)));
    volume->create("r.wkb",
                   std::make_shared<mp::MemoryBackingStore>(mo::generateWkbText(genR, 1200)));
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 72);
    specS.space.world = specR.space.world;
    const mo::RecordGenerator genS(specS);
    volume->create("s.wkt",
                   std::make_shared<mp::MemoryBackingStore>(mo::generateWktText(genS, 700)));
    volume->create("s.wkb",
                   std::make_shared<mp::MemoryBackingStore>(mo::generateWkbText(genS, 700)));
  }

  [[nodiscard]] mc::DatasetHandle layer(char which, bool binary,
                                        mc::BoundaryStrategy strategy) const {
    mc::DatasetHandle ds;
    ds.path = std::string(1, which) + (binary ? ".wkb" : ".wkt");
    if (binary) {
      ds.format = wkb;
    } else {
      ds.parser = &parser;
    }
    ds.partition.strategy = strategy;
    return ds;
  }
};

struct JoinSetup {
  bool binary = false;
  int threads = 1;
  bool streamed = false;
  mc::BoundaryStrategy strategy = mc::BoundaryStrategy::kMessage;
  std::function<void(mc::JoinConfig&)> tweak;
};

std::vector<mc::JoinPair> runJoin(FormatFixture& fx, const JoinSetup& setup, int* died = nullptr) {
  std::vector<mc::JoinPair> pairs;
  std::mutex mtx;
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = 36;
    cfg.framework.threadsPerRank = setup.threads;
    if (setup.streamed) {
      cfg.framework.stream.chunkBytes = 4 << 10;
      cfg.framework.stream.memoryBudget = 32 << 10;
    }
    if (setup.tweak) setup.tweak(cfg);
    const mc::DatasetHandle r = fx.layer('r', setup.binary, setup.strategy);
    const mc::DatasetHandle s = fx.layer('s', setup.binary, setup.strategy);
    std::vector<mc::JoinPair> local;
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg, &local);
    std::lock_guard<std::mutex> lock(mtx);
    pairs.insert(pairs.end(), local.begin(), local.end());
    if (stats.recovery.died && died != nullptr) *died += 1;
  });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

}  // namespace

TEST(FormatBitIdentity, JoinPairsMatchAcrossFormatsThreadsAndStrategies) {
  FormatFixture fx;
  const std::vector<mc::JoinPair> base = runJoin(fx, {});
  ASSERT_FALSE(base.empty());

  for (const bool streamed : {false, true}) {
    for (const int threads : {1, 4}) {
      for (const auto strategy :
           {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
        JoinSetup setup;
        setup.binary = true;
        setup.threads = threads;
        setup.streamed = streamed;
        setup.strategy = strategy;
        EXPECT_EQ(runJoin(fx, setup), base)
            << "binary ingest diverged: streamed=" << streamed << " threads=" << threads
            << " strategy=" << (strategy == mc::BoundaryStrategy::kMessage ? "msg" : "overlap");
      }
    }
  }
}

TEST(FormatBitIdentity, OverlayRasterBytesMatchAcrossFormats) {
  FormatFixture fx;
  std::array<std::string, 2> rasters;
  for (int mode = 0; mode < 2; ++mode) {
    const bool binary = mode == 1;
    const std::string out = binary ? "cov_wkb.bin" : "cov_wkt.bin";
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.outputPath = out;
      if (binary) {
        // The binary run also exercises streaming + threads: the raster is
        // a pure function of the record multiset, so it must not budge.
        cfg.framework.stream.chunkBytes = 4 << 10;
        cfg.framework.stream.memoryBudget = 32 << 10;
        cfg.framework.threadsPerRank = 4;
      }
      const mc::DatasetHandle r = fx.layer('r', binary, mc::BoundaryStrategy::kMessage);
      const mc::DatasetHandle s = fx.layer('s', binary, mc::BoundaryStrategy::kMessage);
      (void)mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
    });
    rasters[static_cast<std::size_t>(mode)] = fileBytes(*fx.volume, out);
  }
  ASSERT_FALSE(rasters[0].empty());
  EXPECT_EQ(rasters[0], rasters[1])
      << "WKB ingest must write a bit-identical coverage raster to WKT ingest";
}

TEST(FormatBitIdentity, IndexContentsMatchAcrossFormats) {
  FormatFixture fx;
  // Partition offsets differ between the encodings, so records arrive in a
  // different order — compare per-rank record counts plus the sorted
  // multiset of per-record content hashes (geometry WKB + userData), which
  // arrival order cannot disturb.
  std::array<std::map<int, std::vector<std::uint64_t>>, 2> perRank;
  for (int mode = 0; mode < 2; ++mode) {
    const bool binary = mode == 1;
    for (const int threads : {1, 4}) {
      std::mutex mtx;
      std::map<int, std::vector<std::uint64_t>> ranks;
      mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
        mc::IndexingConfig cfg;
        cfg.framework.gridCells = 36;
        cfg.framework.threadsPerRank = threads;
        const mc::DatasetHandle data = fx.layer('r', binary, mc::BoundaryStrategy::kMessage);
        const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg, nullptr);
        const mg::GeometryBatch& b = index.batch();
        std::vector<std::uint64_t> keys;
        keys.reserve(b.size());
        std::string scratch;
        for (std::size_t i = 0; i < b.size(); ++i) {
          scratch.clear();
          mg::appendWkb(b, i, scratch);
          keys.push_back(mu::fnv1a(scratch) * 1000003u ^ mu::fnv1a(b.userData(i)));
        }
        std::sort(keys.begin(), keys.end());
        std::lock_guard<std::mutex> lock(mtx);
        ranks[comm.rank()] = std::move(keys);
      });
      if (threads == 1) {
        perRank[static_cast<std::size_t>(mode)] = ranks;
      } else {
        EXPECT_EQ(ranks, perRank[static_cast<std::size_t>(mode)])
            << "thread count changed index contents, mode=" << mode;
      }
    }
  }
  EXPECT_EQ(perRank[0], perRank[1])
      << "every rank must index the same record multiset under both encodings";
}

TEST(FormatBitIdentity, InjectedFailureReplaysWkbChunkLog) {
  FormatFixture fx;
  const std::vector<mc::JoinPair> base = runJoin(fx, {});
  ASSERT_FALSE(base.empty());

  // Streamed binary ingest with checkpoints; rank 2 dies mid-stream. The
  // chunk log holds parsed batches, so replay is format-independent — the
  // survivors must reconstruct exactly the failure-free (and WKT) result.
  JoinSetup setup;
  setup.binary = true;
  setup.threads = 4;
  setup.streamed = true;
  setup.tweak = [](mc::JoinConfig& cfg) {
    cfg.framework.stream.checkpointEveryRounds = 2;
    cfg.framework.stream.checkpointDir = "__ck_format";
    cfg.framework.failSchedule = {{2, 3, 0}};
  };
  int died = 0;
  const std::vector<mc::JoinPair> recovered = runJoin(fx, setup, &died);
  EXPECT_EQ(died, 1);
  EXPECT_EQ(recovered, base)
      << "a failure replaying the WKB-fed chunk log must not change the join result";
}
