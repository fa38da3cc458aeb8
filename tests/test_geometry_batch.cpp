// GeometryBatch pipeline tests: the arena-backed batch must round-trip
// parse → exchange → materialize with results identical to the
// per-Geometry path (the exchange delivers every record byte for byte),
// the bulk parsers must agree between their sink and batch overloads on
// edge-case inputs (CRLF lines, empty records, EOF-unterminated final
// records), and the grid satellites
// (inverse-width cell math, range-local locator sort) must keep their
// semantics.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/exchange.hpp"
#include "core/grid.hpp"
#include "core/parser.hpp"
#include "geom/batch_shard.hpp"
#include "geom/geometry_batch.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "mpi/runtime.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;

namespace {

const char* kMixedWkt =
    "POINT (1 2)\tname=a\n"
    "LINESTRING (0 0, 1 1, 2 0)\tname=b\n"
    "POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0), (1 1, 2 1, 2 2, 1 2, 1 1))\tname=c\n"
    "MULTIPOINT ((1 2), (3 4))\n"
    "MULTIPOINT (5 6, 7 8)\n"
    "MULTILINESTRING ((0 0, 1 1), (2 2, 3 3, 4 4))\n"
    "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5)))\n"
    "GEOMETRYCOLLECTION (POINT (9 9), LINESTRING (0 0, 2 2))\n"
    "POLYGON EMPTY\n"
    "MULTIPOINT EMPTY\n";

std::vector<mg::Geometry> parseLegacy(const mc::Parser& p, std::string_view text,
                                      mc::ParseStats* stats = nullptr) {
  std::vector<mg::Geometry> out;
  const auto s = p.parseAll(text, [&](mg::Geometry&& g) { out.push_back(std::move(g)); });
  if (stats != nullptr) *stats = s;
  return out;
}

void expectBatchMatches(const mg::GeometryBatch& batch, const std::vector<mg::Geometry>& reference) {
  ASSERT_EQ(batch.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_EQ(batch.type(i), reference[i].type()) << "record " << i;
    EXPECT_EQ(batch.envelope(i), reference[i].envelope()) << "record " << i;
    EXPECT_EQ(batch.userData(i), reference[i].userData) << "record " << i;
    const mg::Geometry m = batch.materialize(i);
    EXPECT_EQ(mg::writeWkb(m), mg::writeWkb(reference[i])) << "record " << i;
    EXPECT_EQ(m.userData, reference[i].userData) << "record " << i;
  }
}

}  // namespace

TEST(GeometryBatch, WktParseMatchesLegacyPath) {
  mc::WktParser parser;
  mc::ParseStats legacyStats;
  const auto reference = parseLegacy(parser, kMixedWkt, &legacyStats);

  mg::GeometryBatch batch;
  const auto batchStats = parser.parseAll(kMixedWkt, batch);
  EXPECT_EQ(batchStats.records, legacyStats.records);
  EXPECT_EQ(batchStats.badRecords, legacyStats.badRecords);
  EXPECT_EQ(batchStats.bytes, legacyStats.bytes);
  expectBatchMatches(batch, reference);
}

TEST(GeometryBatch, CsvParseMatchesLegacyPath) {
  const std::string text = "1.5,2.5,trip=1\n-3,4\n\n8.25,9.75,a,b,c\n";
  mc::CsvPointParser parser;
  mc::ParseStats legacyStats;
  const auto reference = parseLegacy(parser, text, &legacyStats);

  mg::GeometryBatch batch;
  const auto batchStats = parser.parseAll(text, batch);
  EXPECT_EQ(batchStats.records, legacyStats.records);
  EXPECT_EQ(batchStats.records, 3u);
  expectBatchMatches(batch, reference);
  EXPECT_EQ(batch.userData(2), "a,b,c");
}

TEST(GeometryBatch, ParserEdgeCases) {
  mc::WktParser parser;

  // CRLF line endings: the \r must be trimmed, not parsed.
  {
    mg::GeometryBatch batch;
    const auto stats = parser.parseAll("POINT (1 2)\r\nPOINT (3 4)\r\n", batch);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.badRecords, 0u);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch.materialize(1).pointCoord(), (mg::Coord{3, 4}));
  }
  // Empty records (consecutive delimiters, whitespace padding) are skipped
  // without counting as bad.
  {
    mg::GeometryBatch batch;
    const auto stats = parser.parseAll("\n\nPOINT (1 2)\n   \n\nPOINT (3 4)\n\n", batch);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.badRecords, 0u);
  }
  // EOF-unterminated final record still parses.
  {
    mg::GeometryBatch batch;
    const auto stats = parser.parseAll("POINT (1 2)\nPOINT (3 4)", batch);
    EXPECT_EQ(stats.records, 2u);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch.materialize(1).pointCoord(), (mg::Coord{3, 4}));
  }
  // Malformed records are counted and skipped; the batch stays consistent
  // (the open record rolls back, later records still land).
  {
    mg::GeometryBatch batch;
    const auto stats = parser.parseAll("POINT (1 2)\nPOLYGON ((0 0, 1 1))\nPOINT (5 6)\n", batch);
    EXPECT_EQ(stats.records, 2u);
    EXPECT_EQ(stats.badRecords, 1u);
    ASSERT_EQ(batch.size(), 2u);
    EXPECT_EQ(batch.materialize(1).pointCoord(), (mg::Coord{5, 6}));
  }
}

TEST(GeometryBatch, AppendRecordFromSelfSurvivesReallocation) {
  mc::WktParser parser;
  mg::GeometryBatch batch;
  parser.parseAll("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\tattrs\nPOINT (7 8)\n", batch);
  const std::string wkb0 = mg::writeWkb(batch.materialize(0));
  // Repeated self-appends force several arena growths mid-copy.
  for (int k = 0; k < 200; ++k) batch.appendRecordFrom(batch, 0, k);
  ASSERT_EQ(batch.size(), 202u);
  for (std::size_t i = 2; i < batch.size(); ++i) {
    EXPECT_EQ(batch.cell(i), static_cast<int>(i) - 2);
    EXPECT_EQ(batch.userData(i), "attrs");
    EXPECT_EQ(mg::writeWkb(batch.materialize(i)), wkb0);
  }
}

TEST(GeometryBatch, AppendRefusesNestingPastReaderLimit) {
  // `levels` nested GEOMETRYCOLLECTIONs around one point.
  const auto nested = [](int levels) {
    mg::Geometry g = mg::Geometry::point({1, 2});
    for (int k = 0; k < levels; ++k) {
      g = mg::Geometry::multi(mg::GeometryType::kGeometryCollection, {g});
    }
    return g;
  };
  mg::GeometryBatch batch;
  batch.append(mg::Geometry::point({0, 0}), "first", 3);
  batch.append(nested(mg::kMaxNestingDepth), "deep", 4);
  ASSERT_EQ(batch.size(), 2u);
  // The deepest accepted tree passes the shard decoder's structural check.
  std::string shard;
  mg::encodeShard(batch, shard);
  mg::GeometryBatch decoded;
  EXPECT_EQ(mg::decodeShard(shard, decoded), 2u);

  const std::size_t vertices = batch.totalVertices();
  EXPECT_THROW(batch.append(nested(mg::kMaxNestingDepth + 1), "deeper", 5), mvio::util::Error);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch.totalVertices(), vertices);
  std::string after;
  mg::encodeShard(batch, after);
  EXPECT_EQ(after, shard) << "a refused record must leave the arenas untouched";
  // The builder is usable again: the refused record left no open record.
  batch.append(mg::Geometry::point({5, 6}), "next", 6);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.materialize(2).pointCoord(), (mg::Coord{5, 6}));
}

TEST(GeometryBatch, ClearKeepsNothing) {
  mc::WktParser parser;
  mg::GeometryBatch batch;
  parser.parseAll(kMixedWkt, batch);
  batch.clear();
  EXPECT_EQ(batch.size(), 0u);
  EXPECT_EQ(batch.totalVertices(), 0u);
  parser.parseAll("POINT (1 2)\n", batch);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch.materialize(0).pointCoord(), (mg::Coord{1, 2}));
}

namespace {

/// One record as its bytes: cell, shape tokens, coordinates and envelope
/// (both compared bitwise) and userData.
struct RecordBytes {
  int cell = 0;
  std::vector<std::uint32_t> shape;
  std::string coords;
  std::string envelope;
  std::string user;

  friend bool operator==(const RecordBytes&, const RecordBytes&) = default;
};

RecordBytes recordBytes(const mg::GeometryBatch& b, std::size_t i) {
  RecordBytes r;
  r.cell = b.cell(i);
  r.shape.assign(b.shapeOf(i), b.shapeOf(i) + b.shapeTokenCount(i));
  r.coords.assign(reinterpret_cast<const char*>(b.coordsOf(i)),
                  b.vertexCount(i) * sizeof(mg::Coord));
  r.envelope.assign(reinterpret_cast<const char*>(&b.envelope(i)), sizeof(mg::Envelope));
  r.user = std::string(b.userData(i));
  return r;
}

/// The exchange invariant: every record reaches the owner of its cell
/// exactly once, byte for byte (shape tokens, coordinates, envelope,
/// userData), and a rank's records arrive in the documented order: per
/// window phase each source in ascending rank order — the rank's own
/// records in its own slot — each in its send order.
void batchExchangeInvariant(int nprocs, int phases, int totalCells) {
  std::vector<std::vector<RecordBytes>> sent(static_cast<std::size_t>(nprocs));
  std::vector<std::vector<RecordBytes>> received(static_cast<std::size_t>(nprocs));
  const char* kShapes[] = {"POLYGON ((0 0, 3 0, 3 3, 0 0))",
                           "GEOMETRYCOLLECTION (POINT (1 2), MULTILINESTRING ((0 0, 1 1)))",
                           "POLYGON ((0 0, 4 0, 4 4, 0 0), (1 1, 2 1, 2 2, 1 1))", "POLYGON EMPTY"};

  mm::Runtime::run(nprocs, [&](mm::Comm& comm) {
    mvio::util::Rng rng(700 + static_cast<std::uint64_t>(comm.rank()));
    mg::GeometryBatch outgoing;
    for (int i = 0; i < 150; ++i) {
      const int cell = static_cast<int>(rng.below(static_cast<std::uint64_t>(totalCells)));
      const std::string tag = std::to_string(comm.rank()) + ":" + std::to_string(i);
      if (i % 3 == 0) {
        mvio::geom::readWktInto(kShapes[(i / 3) % 4], tag, outgoing, cell);
      } else {
        outgoing.beginRecord();
        outgoing.pushShape(static_cast<std::uint32_t>(mg::GeometryType::kPoint));
        outgoing.pushCoord({rng.uniform(0, 1), rng.uniform(0, 1)});
        outgoing.commitRecord(tag, cell);
      }
    }
    // A tombstoned record (projected to no cell) must be dropped silently.
    outgoing.beginRecord();
    outgoing.pushShape(static_cast<std::uint32_t>(mg::GeometryType::kPoint));
    outgoing.pushCoord({0.5, 0.5});
    outgoing.commitRecord("dropped", mg::GeometryBatch::kNoCell);
    auto& mySent = sent[static_cast<std::size_t>(comm.rank())];
    for (std::size_t i = 0; i + 1 < outgoing.size(); ++i) {
      mySent.push_back(recordBytes(outgoing, i));
    }

    mc::ExchangeStats stats;
    mg::GeometryBatch mine = mc::exchangeByCell(
        comm, std::move(outgoing), [&](int cell) { return mc::roundRobinOwner(cell, comm.size()); },
        phases, totalCells, &stats);

    auto& myReceived = received[static_cast<std::size_t>(comm.rank())];
    for (std::size_t i = 0; i < mine.size(); ++i) myReceived.push_back(recordBytes(mine, i));
    if (phases > 1) {
      EXPECT_GT(stats.phases, 1u);
    }
  });

  // The expected arrival sequence, from the windowing rule: cells split
  // into min(phases, cells) contiguous id ranges.
  const int windows = std::min(phases, totalCells);
  const int cellsPerWindow = (totalCells + windows - 1) / windows;
  auto windowOf = [&](int cell) { return std::min(cell / cellsPerWindow, windows - 1); };
  for (int r = 0; r < nprocs; ++r) {
    auto ownedBy = [&](const RecordBytes& rec) {
      return mc::roundRobinOwner(rec.cell, nprocs) == r;
    };
    std::vector<RecordBytes> expected;
    for (int w = 0; w < windows; ++w) {
      for (int src = 0; src < nprocs; ++src) {
        for (const RecordBytes& rec : sent[static_cast<std::size_t>(src)]) {
          if (ownedBy(rec) && windowOf(rec.cell) == w) expected.push_back(rec);
        }
      }
    }
    const auto& got = received[static_cast<std::size_t>(r)];
    ASSERT_EQ(got.size(), expected.size()) << "rank " << r;
    for (std::size_t k = 0; k < got.size(); ++k) {
      EXPECT_TRUE(got[k] == expected[k])
          << "rank " << r << " record " << k << ": got " << got[k].user << "@" << got[k].cell
          << ", expected " << expected[k].user << "@" << expected[k].cell;
    }
  }
}

}  // namespace

TEST(GeometryBatchExchange, AllToAllDeliversEverythingOnce) { batchExchangeInvariant(4, 1, 64); }

TEST(GeometryBatchExchange, SlidingWindowMatchesSinglePhase) {
  batchExchangeInvariant(4, 4, 64);
  batchExchangeInvariant(3, 7, 20);
}

TEST(GeometryBatchExchange, SingleRankKeepsEverything) { batchExchangeInvariant(1, 1, 16); }

TEST(GeometryBatchExchange, MorePhasesThanCellsClamps) { batchExchangeInvariant(2, 100, 5); }

TEST(GridSatellites, CellOfPointMatchesDivisionReference) {
  mvio::util::Rng rng(41);
  const mc::GridSpec grid(mg::Envelope(-180, -85, 180, 85), 23, 11);
  const double dx = grid.bounds().width() / grid.cellsX();
  const double dy = grid.bounds().height() / grid.cellsY();
  for (int trial = 0; trial < 2000; ++trial) {
    const mg::Coord c{rng.uniform(-200, 200), rng.uniform(-100, 100)};
    int cx = static_cast<int>((c.x - grid.bounds().minX()) / dx);
    int cy = static_cast<int>((c.y - grid.bounds().minY()) / dy);
    cx = std::clamp(cx, 0, grid.cellsX() - 1);
    cy = std::clamp(cy, 0, grid.cellsY() - 1);
    EXPECT_EQ(grid.cellOfPoint(c), grid.cellIdOf(cx, cy)) << "trial " << trial;
  }
}

TEST(GridSatellites, LocatorSortsOnlyAppendedRange) {
  const mc::GridSpec grid(mg::Envelope(0, 0, 4, 4), 4, 4);
  const mc::CellLocator locator(grid);
  std::vector<int> out;
  // First query lands in high-numbered cells.
  locator.overlappingCells(mg::Envelope(2.5, 2.5, 3.5, 3.5), out);
  const std::vector<int> firstBatch = out;
  EXPECT_EQ(firstBatch, (std::vector<int>{10, 11, 14, 15}));
  // Second query appends low-numbered cells; the earlier entries must keep
  // their positions (the old code re-sorted the whole vector).
  locator.overlappingCells(mg::Envelope(0.5, 0.5, 1.5, 1.5), out);
  ASSERT_EQ(out.size(), 8u);
  EXPECT_TRUE(std::equal(firstBatch.begin(), firstBatch.end(), out.begin()));
  EXPECT_EQ((std::vector<int>{out.begin() + 4, out.end()}), (std::vector<int>{0, 1, 4, 5}));
}
