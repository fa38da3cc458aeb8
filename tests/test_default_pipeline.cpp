// The pipelined default (DESIGN.md §7, §10): StreamConfig{} derives each
// kMessage layer's read chunk from its size, the rank count and its stripe
// size, and overlaps parse with exchange wherever there are rounds. These
// tests pin the chunk rule (kOverlap and an explicit blockSize stay
// one-shot), check that records larger than the derived chunk still
// ingest (the kMessage boundary probe and fallback), and hold the default
// to explicit one-shot — join pairs, overlay raster bytes, index and
// batch-query counts — across strategies, rank counts, worker pools and
// partition schemes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <string>
#include <vector>

#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/range_query.hpp"
#include "core/spatial_join.hpp"
#include "geom/wkt.hpp"
#include "io/file.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "util/error.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;

namespace {

/// A stripe small enough that test-sized files span several derived chunks.
constexpr std::uint64_t kStripe = 8 << 10;
constexpr std::uint64_t kWhole = mc::StreamConfig::kWholePartition;

std::shared_ptr<mp::Volume> lustreVolume() {
  mp::LustreParams params;
  params.nodes = 8;
  return std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
}

void install(mp::Volume& volume, const std::string& name, std::string bytes) {
  volume.create(name, std::make_shared<mp::MemoryBackingStore>(std::move(bytes)),
                mp::StripeSettings{kStripe, 4});
}

std::string fileBytes(mp::Volume& volume, const std::string& name) {
  const auto file = volume.lookup(name);
  std::string bytes(file->data->size(), '\0');
  file->data->read(0, bytes.data(), bytes.size());
  return bytes;
}

std::uint64_t ceilDiv(std::uint64_t a, std::uint64_t b) { return (a + b - 1) / b; }

}  // namespace

// ---- The chunk rule ---------------------------------------------------------

namespace {

/// A ring of `vertices` points around (10, 10): one record far larger than
/// the derived chunk, overlapping many roads.
mg::Geometry giantPolygon(std::size_t vertices) {
  constexpr double kPi = 3.14159265358979323846;
  mg::Ring ring;
  for (std::size_t k = 0; k < vertices; ++k) {
    const double a = 2.0 * kPi * static_cast<double>(k) / static_cast<double>(vertices);
    ring.coords.push_back({10.0 + 4.0 * std::cos(a), 10.0 + 4.0 * std::sin(a)});
  }
  ring.coords.push_back(ring.coords.front());
  return mg::Geometry::polygon({ring});
}

}  // namespace

TEST(ChunkRule, DerivedChunkStaysWithinStripeAndPartition) {
  const mc::PartitionConfig message;
  mc::PartitionConfig overlap;
  overlap.strategy = mc::BoundaryStrategy::kOverlap;
  mc::PartitionConfig explicitBlock;
  explicitBlock.blockSize = 4096;
  for (const int p : {1, 2, 3, 4, 7, 16, 64}) {
    for (const std::uint64_t stripe : {std::uint64_t{4} << 10, std::uint64_t{1} << 20}) {
      for (const std::uint64_t size : {std::uint64_t{1}, std::uint64_t{999}, stripe,
                                       2 * stripe * p - 1, 2 * stripe * p, 5 * stripe * p + 17,
                                       std::uint64_t{29} << 20, std::uint64_t{3} << 30}) {
        // kOverlap re-reads a halo every streamed round, and an explicit
        // blockSize is the caller's own layout: both read one-shot.
        EXPECT_EQ(mc::resolveChunkBytes(0, size, p, stripe, overlap), kWhole)
            << "size " << size << " p " << p;
        EXPECT_EQ(mc::resolveChunkBytes(0, size, p, stripe, explicitBlock), kWhole)
            << "size " << size << " p " << p;
        const std::uint64_t chunk = mc::resolveChunkBytes(0, size, p, stripe, message);
        const std::uint64_t partition = ceilDiv(size, static_cast<std::uint64_t>(p));
        if (size / static_cast<std::uint64_t>(p) < 2 * stripe) {
          // Fewer than two stripes a rank: one chunk covers the partition.
          EXPECT_EQ(chunk, kWhole) << "size " << size << " p " << p;
          continue;
        }
        ASSERT_NE(chunk, kWhole) << "size " << size << " p " << p;
        EXPECT_GE(chunk, stripe) << "size " << size << " p " << p;
        EXPECT_LT(chunk, partition) << "size " << size << " p " << p;
        // The rounds split the file evenly: min(3, size / (p × stripe)).
        const std::uint64_t rounds = ceilDiv(size, chunk * static_cast<std::uint64_t>(p));
        const std::uint64_t want =
            std::min<std::uint64_t>(3, size / static_cast<std::uint64_t>(p) / stripe);
        EXPECT_EQ(rounds, want) << "size " << size << " p " << p;
      }
    }
  }
  // Explicit values pass through untouched.
  EXPECT_EQ(mc::resolveChunkBytes(4096, 1 << 30, 4, kStripe, message), 4096u);
  EXPECT_EQ(mc::resolveChunkBytes(4096, 1 << 30, 4, kStripe, overlap), 4096u);
  EXPECT_EQ(mc::resolveChunkBytes(kWhole, 1 << 30, 4, kStripe, message), kWhole);
}

TEST(ChunkRule, EveryRankReadsTheSameThreeRounds) {
  auto volume = lustreVolume();
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 5);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  const std::string text = mo::generateWktText(mo::RecordGenerator(spec), 1200);
  install(*volume, "a.wkt", text);
  constexpr int kProcs = 4;
  ASSERT_GE(text.size(), 3 * kProcs * kStripe);

  std::vector<std::uint64_t> chunks(kProcs), iterations(kProcs), calls(kProcs);
  std::vector<std::string> texts(kProcs);
  mm::Runtime::run(kProcs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mvio::io::File file = mvio::io::File::open(comm, *volume, "a.wkt");
    const auto me = static_cast<std::size_t>(comm.rank());
    chunks[me] = mc::resolveChunkBytes(0, file.size(), comm.size(), file.stripe().stripeSize,
                                       mc::PartitionConfig{});
    mc::PartitionReader reader(comm, file, mc::PartitionConfig{}, 0);
    std::string chunk;
    while (reader.next(chunk)) {
      ++calls[me];
      texts[me] += chunk;
    }
    iterations[me] = reader.counters().iterations;
  });
  for (int r = 0; r < kProcs; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(chunks[i], chunks[0]) << "rank " << r;
    EXPECT_EQ(iterations[i], 3u) << "rank " << r;
    EXPECT_EQ(calls[i], 3u) << "streamed: one next() per round, rank " << r;
    EXPECT_FALSE(texts[i].empty()) << "every rank reads, rank " << r;
  }
  std::string all;
  for (const std::string& t : texts) all += t;
  std::string sortedAll = all, sortedText = text;
  std::sort(sortedAll.begin(), sortedAll.end());
  std::sort(sortedText.begin(), sortedText.end());
  EXPECT_EQ(sortedAll, sortedText) << "the rounds cover every byte exactly once";
}

TEST(ChunkRule, ExplicitBlockSizeIsKeptAndRejectsOversizedRecord) {
  // A kMessage config with its own blockSize reads in exactly those blocks
  // when chunkBytes is left to derive, even on a file of many stripes a
  // rank: one next() call, ceil(size / (p × blockSize)) iterations, and a
  // record larger than the block is still an error, not a fallback.
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 5);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  const std::string text = mo::generateWktText(mo::RecordGenerator(spec), 1200);
  const std::string giant = mg::writeWkt(giantPolygon(2000)) + "\tgiant\n";
  constexpr int kProcs = 4;
  constexpr std::uint64_t kBlock = 16 << 10;
  ASSERT_GE(text.size(), 3 * kProcs * kStripe);
  ASSERT_GT(giant.size(), kBlock);
  mc::PartitionConfig cfg;
  cfg.blockSize = kBlock;
  ASSERT_EQ(mc::resolveChunkBytes(0, text.size(), kProcs, kStripe, cfg), kWhole);

  auto volume = lustreVolume();
  install(*volume, "a.wkt", text);
  install(*volume, "giant.wkt",
          mo::generateWktText(mo::RecordGenerator(spec), 600) + giant + text);
  std::vector<std::uint64_t> iterations(kProcs), calls(kProcs);
  std::vector<std::string> texts(kProcs);
  mm::Runtime::run(kProcs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mvio::io::File file = mvio::io::File::open(comm, *volume, "a.wkt");
    const auto me = static_cast<std::size_t>(comm.rank());
    mc::PartitionReader reader(comm, file, cfg, 0);
    std::string chunk;
    while (reader.next(chunk)) {
      ++calls[me];
      texts[me] += chunk;
    }
    iterations[me] = reader.counters().iterations;
  });
  std::string all;
  for (int r = 0; r < kProcs; ++r) {
    const auto i = static_cast<std::size_t>(r);
    EXPECT_EQ(calls[i], 1u) << "one-shot, rank " << r;
    EXPECT_EQ(iterations[i], ceilDiv(text.size(), kProcs * kBlock)) << "rank " << r;
    all += texts[i];
  }
  EXPECT_EQ(all.size(), text.size());

  try {
    mm::Runtime::run(kProcs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mvio::io::File file = mvio::io::File::open(comm, *volume, "giant.wkt");
      mc::PartitionReader reader(comm, file, cfg, 0);
      std::string chunk;
      while (reader.next(chunk)) {
      }
    });
    ADD_FAILURE() << "a record larger than the explicit block must be rejected";
  } catch (const mvio::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("no record boundary inside a file block"),
              std::string::npos)
        << e.what();
  }
}

// ---- Records larger than the derived chunk -----------------------------------

namespace {

struct OversizedRun {
  std::vector<mc::JoinPair> pairs;
  std::uint64_t bytesRead = 0;
  std::uint64_t maxIterations = 0;
};

}  // namespace

TEST(DefaultPipeline, RecordLargerThanDerivedChunkStillIngests) {
  constexpr std::uint64_t kMaxRecord = 128 << 10;
  mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 17);
  specR.space.world = mg::Envelope(0, 0, 20, 20);
  mo::SynthSpec specTail = mo::datasetSpec(mo::DatasetId::kCemetery, 18);
  specTail.space.world = specR.space.world;
  mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 19);
  specS.space.world = specR.space.world;

  for (const bool wkb : {false, true}) {
    // head records (~30 %), the giant record (~45 %), tail records.
    const mg::Geometry giant = giantPolygon(wkb ? 5200 : 2000);
    std::string giantBytes;
    if (wkb) {
      mc::appendWkbRecord(giant, "giant", giantBytes);
    } else {
      giantBytes = mg::writeWkt(giant) + "\tgiant\n";
    }
    const auto encode = [&](const mo::SynthSpec& spec, std::uint64_t n) {
      return wkb ? mo::generateWkbText(mo::RecordGenerator(spec), n)
                 : mo::generateWktText(mo::RecordGenerator(spec), n);
    };
    std::string head, tail;
    for (std::uint64_t n = 10; head.size() < giantBytes.size() * 2 / 3; n += 10) {
      head = encode(specR, n);
    }
    for (std::uint64_t n = 10; tail.size() < giantBytes.size() / 2; n += 10) {
      tail = encode(specTail, n);
    }
    const std::string text = head + giantBytes + tail;
    ASSERT_LT(giantBytes.size(), kMaxRecord);

    auto volume = lustreVolume();
    install(*volume, "r", text);
    install(*volume, "s.wkt", mo::generateWktText(mo::RecordGenerator(specS), 300));
    const std::uint64_t giantKey = mc::geometryKey(giant);
    const mc::FormatReader* wkbFormat = mc::FormatRegistry::instance().get("wkb");
    const mc::WktParser parser;

    for (const auto strategy : {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
      mc::PartitionConfig part;
      part.strategy = strategy;
      part.maxGeometryBytes = kMaxRecord;
      for (const int procs : {1, 3, 4}) {
        const std::uint64_t chunk = mc::resolveChunkBytes(0, text.size(), procs, kStripe, part);
        if (strategy == mc::BoundaryStrategy::kMessage) {
          ASSERT_GT(giantBytes.size(), chunk);
        } else {
          ASSERT_EQ(chunk, kWhole) << "the kOverlap default reads one-shot";
        }
        const auto run = [&](std::uint64_t chunkBytes) {
          OversizedRun out;
          std::mutex mu;
          mm::Runtime::run(procs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
            mc::JoinConfig cfg;
            cfg.framework.gridCells = 25;
            cfg.framework.stream.chunkBytes = chunkBytes;
            const mc::DatasetHandle r = wkb ? mc::DatasetHandle{"r", nullptr, part, wkbFormat}
                                            : mc::DatasetHandle{"r", &parser, part};
            const mc::DatasetHandle s{"s.wkt", &parser, part};
            std::vector<mc::JoinPair> local;
            const mc::JoinStats st = mc::spatialJoin(comm, *volume, r, s, cfg, &local);
            const std::lock_guard<std::mutex> lock(mu);
            out.pairs.insert(out.pairs.end(), local.begin(), local.end());
            out.bytesRead += st.ioR.bytesRead;
            out.maxIterations = std::max(out.maxIterations, st.ioR.iterations);
          });
          std::sort(out.pairs.begin(), out.pairs.end());
          return out;
        };
        const char* strategyName =
            strategy == mc::BoundaryStrategy::kMessage ? " message" : " overlap";
        const std::string where =
            std::string(wkb ? "wkb" : "wkt") + strategyName + " p=" + std::to_string(procs);
        const OversizedRun oneShot = run(kWhole);
        const OversizedRun derived = run(0);
        ASSERT_FALSE(oneShot.pairs.empty()) << where;
        EXPECT_EQ(derived.pairs, oneShot.pairs) << where;
        EXPECT_TRUE(std::any_of(derived.pairs.begin(), derived.pairs.end(),
                                [&](const mc::JoinPair& p) { return p.keyR == giantKey; }))
            << "the giant record must join, " << where;
        if (strategy == mc::BoundaryStrategy::kMessage) {
          EXPECT_GT(derived.maxIterations, 1u) << "the default must stream, " << where;
          // A block inside the giant record had no boundary: the rest of
          // the file was read again in blocks of maxGeometryBytes.
          EXPECT_GT(derived.bytesRead, text.size()) << "fallback re-read, " << where;
        }
      }
    }
  }
}

// ---- Default vs explicit one-shot: the configuration matrix -------------------

namespace {

struct MatrixCase {
  mc::BoundaryStrategy strategy;
  int procs;
  int threads;
  mc::PartitionScheme scheme;

  [[nodiscard]] std::string name() const {
    return std::string(strategy == mc::BoundaryStrategy::kMessage ? "message" : "overlap") +
           " p=" + std::to_string(procs) + " t=" + std::to_string(threads) + " " +
           mc::partitionSchemeName(scheme);
  }
};

std::vector<MatrixCase> matrixCases() {
  std::vector<MatrixCase> cases;
  for (const auto strategy : {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
    for (const int procs : {1, 3, 4}) {
      for (const int threads : {1, 2}) {
        for (const auto scheme : {mc::PartitionScheme::kUniform, mc::PartitionScheme::kQuadtree}) {
          cases.push_back({strategy, procs, threads, scheme});
        }
      }
    }
  }
  return cases;
}

struct MatrixFixture {
  std::shared_ptr<mp::Volume> volume = lustreVolume();
  mc::WktParser parser;
  std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {-5, -5, -1, -1}, {7, 3, 18, 9}};

  MatrixFixture() {
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 71);
    specR.space.world = mg::Envelope(0, 0, 20, 20);
    specR.space.clusters = 3;
    specR.space.clusterStddev = 1.0;
    specR.space.uniformFraction = 0.05;
    install(*volume, "r.wkt", mo::generateWktText(mo::RecordGenerator(specR), 1200));
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 71);
    specS.space = specR.space;
    install(*volume, "s.wkt", mo::generateWktText(mo::RecordGenerator(specS), 600));
  }

  /// The case's framework config: the library default, or explicit one-shot.
  static mc::FrameworkConfig config(const MatrixCase& c, bool oneShot) {
    mc::FrameworkConfig fw;
    fw.gridCells = 36;
    fw.threadsPerRank = c.threads;
    if (c.scheme != mc::PartitionScheme::kUniform) {
      fw.partition.scheme = c.scheme;
      fw.partition.sampleRate = 1.0;
      fw.partition.targetCells = 12;
    }
    if (oneShot) fw.stream.chunkBytes = kWhole;
    return fw;
  }

  /// A 16 KiB record bound: about one derived chunk, so the kMessage
  /// boundary probe runs on every streamed round.
  [[nodiscard]] mc::DatasetHandle handle(const std::string& path, const MatrixCase& c) const {
    mc::PartitionConfig part;
    part.strategy = c.strategy;
    part.maxGeometryBytes = 16 << 10;
    return {path, &parser, part};
  }
};

}  // namespace

TEST(DefaultPipeline, JoinMatchesExplicitOneShot) {
  MatrixFixture fx;
  for (const MatrixCase& c : matrixCases()) {
    std::vector<mc::JoinPair> pairs[2];
    std::uint64_t globalPairs[2] = {0, 0};
    std::uint64_t rounds[2] = {0, 0};
    for (const bool oneShot : {false, true}) {
      std::mutex mu;
      mm::Runtime::run(c.procs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
        mc::JoinConfig cfg;
        cfg.framework = MatrixFixture::config(c, oneShot);
        std::vector<mc::JoinPair> local;
        const mc::JoinStats st = mc::spatialJoin(comm, *fx.volume, fx.handle("r.wkt", c),
                                                 fx.handle("s.wkt", c), cfg, &local);
        const std::lock_guard<std::mutex> lock(mu);
        pairs[oneShot].insert(pairs[oneShot].end(), local.begin(), local.end());
        globalPairs[oneShot] = st.globalPairs;
        rounds[oneShot] = std::max(rounds[oneShot], st.phases.rounds);
      });
      std::sort(pairs[oneShot].begin(), pairs[oneShot].end());
    }
    ASSERT_FALSE(pairs[1].empty()) << c.name();
    EXPECT_EQ(pairs[0], pairs[1]) << c.name();
    EXPECT_EQ(globalPairs[0], globalPairs[1]) << c.name();
    EXPECT_EQ(rounds[1], 2u) << "one-shot: one round per layer, " << c.name();
    if (c.strategy == mc::BoundaryStrategy::kMessage) {
      EXPECT_GT(rounds[0], 2u) << "the default must stream, " << c.name();
    } else {
      EXPECT_EQ(rounds[0], 2u) << "the kOverlap default reads one-shot, " << c.name();
    }
  }
}

TEST(DefaultPipeline, OverlayRasterMatchesExplicitOneShot) {
  MatrixFixture fx;
  for (const MatrixCase& c : matrixCases()) {
    std::string rasters[2];
    for (const bool oneShot : {false, true}) {
      const std::string out = oneShot ? "cov_oneshot.bin" : "cov_default.bin";
      mm::Runtime::run(c.procs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
        mc::OverlayConfig cfg;
        cfg.framework = MatrixFixture::config(c, oneShot);
        cfg.outputPath = out;
        const mc::DatasetHandle r = fx.handle("r.wkt", c);
        const mc::DatasetHandle s = fx.handle("s.wkt", c);
        (void)mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
      });
      rasters[oneShot] = fileBytes(*fx.volume, out);
      fx.volume->remove(out);
    }
    ASSERT_FALSE(rasters[1].empty()) << c.name();
    EXPECT_EQ(rasters[0], rasters[1]) << c.name();
  }
}

TEST(DefaultPipeline, IndexAndBatchQueryCountsMatchExplicitOneShot) {
  MatrixFixture fx;
  for (const MatrixCase& c : matrixCases()) {
    std::vector<std::uint64_t> indexCounts[2];
    std::vector<std::uint64_t> batchCounts[2];
    for (const bool oneShot : {false, true}) {
      indexCounts[oneShot].assign(fx.queries.size(), 0);
      std::mutex mu;
      mm::Runtime::run(c.procs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
        const mc::FrameworkConfig fw = MatrixFixture::config(c, oneShot);
        mc::IndexingConfig icfg;
        icfg.framework = fw;
        const mc::DistributedIndex index =
            mc::buildDistributedIndex(comm, *fx.volume, fx.handle("r.wkt", c), icfg);
        mc::RangeQueryConfig rcfg;
        rcfg.framework = fw;
        const std::vector<std::uint64_t> batch =
            mc::batchRangeQuery(comm, *fx.volume, fx.handle("r.wkt", c), fx.queries, rcfg);
        const std::lock_guard<std::mutex> lock(mu);
        for (std::size_t q = 0; q < fx.queries.size(); ++q) {
          indexCounts[oneShot][q] += index.queryCount(fx.queries[q]);
        }
        if (comm.rank() == 0) batchCounts[oneShot] = batch;
      });
    }
    EXPECT_GT(indexCounts[1][1], 0u) << "whole-domain query must match records, " << c.name();
    EXPECT_EQ(indexCounts[0], indexCounts[1]) << c.name();
    EXPECT_EQ(batchCounts[0], batchCounts[1]) << c.name();
  }
}
