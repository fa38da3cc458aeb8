// Batch-native refine layer tests: the record predicates
// (recordIntersects / recordContains / recordIntersectsBox) must agree
// with the Geometry-walking reference in support/reference_predicates.hpp,
// recordClippedMeasure with clippedMeasure on materialized records, the
// batch-backed DistributedIndex must return exactly the legacy
// per-Geometry results, and the overlay CoverageTask must survive its port
// to the batch-span interface cell for cell.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>
#include <set>

#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "geom/clip.hpp"
#include "geom/geometry_batch.hpp"
#include "geom/rtree.hpp"
#include "geom/wkt.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "support/reference_predicates.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;

namespace {

/// A batch covering all seven OGC types, plus degenerate shapes (hole
/// polygons, single-vertex lines) that exercise the traversal edge cases.
mg::GeometryBatch mixedBatch() {
  const char* wkts[] = {
      "POINT (3 3)",
      "POINT (0 0)",
      "LINESTRING (0 0, 10 10)",
      "LINESTRING (-5 5, 15 5, 15 12)",
      "POLYGON ((1 1, 9 1, 9 9, 1 9, 1 1))",
      "POLYGON ((0 0, 20 0, 20 20, 0 20, 0 0), (5 5, 15 5, 15 15, 5 15, 5 5))",
      "MULTIPOINT ((1 1), (11 11), (-3 4))",
      "MULTILINESTRING ((0 0, 4 0), (6 6, 6 14, 14 14))",
      "MULTIPOLYGON (((0 0, 3 0, 3 3, 0 3, 0 0)), ((10 10, 14 10, 14 14, 10 14, 10 10)))",
      "GEOMETRYCOLLECTION (POINT (2 8), LINESTRING (8 2, 12 2), "
      "POLYGON ((4 4, 7 4, 7 7, 4 7, 4 4)))",
  };
  mg::GeometryBatch batch;
  for (const char* w : wkts) batch.append(mg::readWkt(w));

  // Random clustered polygons/lines for bulk coverage.
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kLakes, 77);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  const mo::RecordGenerator gen(spec);
  for (std::uint64_t i = 0; i < 60; ++i) batch.append(gen.geometry(i));
  mo::SynthSpec lines = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 78);
  lines.space.world = mg::Envelope(0, 0, 20, 20);
  const mo::RecordGenerator lineGen(lines);
  for (std::uint64_t i = 0; i < 60; ++i) batch.append(lineGen.geometry(i));
  return batch;
}

std::vector<mg::Envelope> probeBoxes() {
  std::vector<mg::Envelope> boxes = {
      {2, 2, 6, 6},          // generic overlap
      {-100, -100, 100, 100},  // contains everything
      {6, 6, 14, 14},        // sits inside the hole of the donut polygon
      {3, 3, 3, 3},          // degenerate point-box
      {0, 0, 1e-9, 1e-9},    // corner touch
      {30, 30, 40, 40},      // disjoint
      {9, 1, 9, 9},          // degenerate edge-box on a polygon edge
  };
  mvio::util::Rng rng(123);
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform(-2, 18), y = rng.uniform(-2, 18);
    boxes.emplace_back(x, y, x + rng.uniform(0.01, 8), y + rng.uniform(0.01, 8));
  }
  return boxes;
}

}  // namespace

TEST(BatchRefine, IntersectsBoxMatchesMaterializedPredicate) {
  const mg::GeometryBatch batch = mixedBatch();
  for (const auto& box : probeBoxes()) {
    const mg::Geometry boxGeom = mg::Geometry::box(box);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(mg::recordIntersectsBox(batch, i, box),
                mg::reference::intersects(boxGeom, batch.materialize(i)))
          << "record " << i << " box [" << box.minX() << "," << box.minY() << "," << box.maxX()
          << "," << box.maxY() << "]";
    }
  }
}

namespace {

/// A predicate's answer, or that it threw (contains() rejects a
/// non-polygonal container that reaches its polygon check).
enum class Outcome { kFalse, kTrue, kThrows };

template <typename F>
Outcome outcomeOf(F&& predicate) {
  try {
    return predicate() ? Outcome::kTrue : Outcome::kFalse;
  } catch (const mvio::util::Error&) {
    return Outcome::kThrows;
  }
}

const char* nameOf(Outcome o) {
  return o == Outcome::kTrue ? "true" : o == Outcome::kFalse ? "false" : "throws";
}

/// Seeded generator over all seven OGC types. Vertices sit on a half-unit
/// lattice in [0, 8], so shared vertices, vertices on edges, collinear
/// overlaps and touching envelopes are common.
class ShapeGenerator {
 public:
  explicit ShapeGenerator(std::uint64_t seed) : rng_(seed) {}

  mg::Geometry any(int depth) {
    switch (rng_.below(depth > 0 ? 7 : 3)) {
      case 0: return mg::Geometry::point(vertex());
      case 1: return line();
      case 2: return polygon();
      case 3: return multi(mg::GeometryType::kMultiPoint, depth);
      case 4: return multi(mg::GeometryType::kMultiLineString, depth);
      case 5: return multi(mg::GeometryType::kMultiPolygon, depth);
      default: return multi(mg::GeometryType::kGeometryCollection, depth);
    }
  }

 private:
  mg::Coord vertex() {
    return {0.5 * static_cast<double>(rng_.below(17)), 0.5 * static_cast<double>(rng_.below(17))};
  }

  mg::Geometry line() {
    std::vector<mg::Coord> c(2 + rng_.below(3));
    for (auto& v : c) v = vertex();
    return mg::Geometry::lineString(std::move(c));
  }

  /// A rectangle (with a hole when it is wide enough) or a triangle.
  mg::Geometry polygon() {
    if (rng_.below(3) == 0) {
      const mg::Coord a = vertex(), b = vertex(), c = vertex();
      return mg::Geometry::polygon({mg::Ring{{a, b, c, a}}});
    }
    const mg::Envelope e(unitGrid(), unitGrid(), unitGrid(), unitGrid());
    std::vector<mg::Ring> rings = {rectRing(e)};
    if (e.width() >= 2 && e.height() >= 2 && rng_.below(2) == 0) {
      // Hole one unit inside the shell, or touching it on the left edge.
      const double inset = rng_.below(2) == 0 ? 1.0 : 0.0;
      rings.push_back(rectRing({e.minX() + inset, e.minY() + 1, e.maxX() - 1, e.maxY() - 1}));
    }
    return mg::Geometry::polygon(std::move(rings));
  }

  /// Zero to three parts; a collection's parts may be collections
  /// themselves (one level less deep), including empty ones.
  mg::Geometry multi(mg::GeometryType type, int depth) {
    std::vector<mg::Geometry> parts(rng_.below(4));
    for (auto& p : parts) {
      switch (type) {
        case mg::GeometryType::kMultiPoint: p = mg::Geometry::point(vertex()); break;
        case mg::GeometryType::kMultiLineString: p = line(); break;
        case mg::GeometryType::kMultiPolygon: p = polygon(); break;
        default: p = any(depth - 1); break;
      }
    }
    return mg::Geometry::multi(type, std::move(parts));
  }

  double unitGrid() { return static_cast<double>(rng_.below(9)); }

  static mg::Ring rectRing(const mg::Envelope& e) {
    return {{{e.minX(), e.minY()}, {e.maxX(), e.minY()}, {e.maxX(), e.maxY()}, {e.minX(), e.maxY()},
             {e.minX(), e.minY()}}};
  }

  mvio::util::Rng rng_;
};

/// Hand-placed cases the random lattice may miss.
std::vector<mg::Geometry> fixedShapes() {
  const char* wkts[] = {
      "POLYGON ((0 0, 8 0, 8 8, 0 8, 0 0), (2 2, 6 2, 6 6, 2 6, 2 2))",  // holed
      "POINT (0 0)",  // on a shell vertex
      "POINT (4 0)",  // on a shell edge
      "POINT (2 4)",  // on a hole edge
      "POINT (6 6)",  // on a hole vertex
      "POINT (4 4)",  // inside the hole
      "POINT (1 1)",  // inside the ring body
      "POLYGON ((3 3, 5 3, 5 5, 3 5, 3 3))",    // inside the hole
      "POLYGON ((8 8, 10 8, 10 10, 8 8))",      // touches the shell at a corner
      "POLYGON ((8 10, 10 8, 10 10, 8 10))",    // MBR touches, geometry does not
      "LINESTRING (8 0, 8 8)",                  // along a shell edge
      "LINESTRING (9 9, 12 12)",                // MBR corner-touch off the shell
      "LINESTRING (1 1, 7 1)",                  // inside the ring body
      "LINESTRING (1 4, 7 4)",                  // crosses the hole
      "GEOMETRYCOLLECTION (POINT (20 20), POLYGON ((0 0, 8 0, 8 8, 0 8, 0 0)))",
      "GEOMETRYCOLLECTION (LINESTRING (0 0, 20 20), MULTIPOLYGON (((0 0, 9 0, 9 9, 0 9, 0 0))))",
      "GEOMETRYCOLLECTION (GEOMETRYCOLLECTION EMPTY, MULTIPOINT EMPTY, "
      "GEOMETRYCOLLECTION (POINT (1 1), LINESTRING (0 0, 3 3)))",
      "GEOMETRYCOLLECTION (GEOMETRYCOLLECTION EMPTY)",
      "GEOMETRYCOLLECTION EMPTY",
      "MULTIPOLYGON EMPTY",
      "MULTIPOINT ((1 1), (4 4))",
  };
  std::vector<mg::Geometry> out;
  for (const char* w : wkts) out.push_back(mg::readWkt(w));
  return out;
}

struct PairTally {
  int pairs = 0;
  int intersecting = 0;  ///< pairs the reference intersects() held on
  int containing = 0;    ///< pairs the reference contains() held on
  int mismatches = 0;
};

/// Compares recordIntersects / recordContains with the reference on every
/// ordered pair of `shapes` (so both argument orders), and the Geometry
/// wrappers with them; the first few mismatches are reported in full.
void compareAllPairs(const std::vector<mg::Geometry>& shapes, PairTally& tally) {
  mg::GeometryBatch batch;
  for (const auto& g : shapes) batch.append(g);
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    for (std::size_t j = 0; j < shapes.size(); ++j) {
      const mg::Geometry& a = shapes[i];
      const mg::Geometry& b = shapes[j];
      const Outcome refI = outcomeOf([&] { return mg::reference::intersects(a, b); });
      const Outcome recI = outcomeOf([&] { return mg::recordIntersects(batch, i, batch, j); });
      const Outcome refC = outcomeOf([&] { return mg::reference::contains(a, b); });
      const Outcome recC = outcomeOf([&] { return mg::recordContains(batch, i, batch, j); });
      const bool same = recI == refI && recC == refC &&
                        outcomeOf([&] { return mg::intersects(a, b); }) == refI &&
                        outcomeOf([&] { return mg::contains(a, b); }) == refC;
      if (!same && ++tally.mismatches <= 5) {
        ADD_FAILURE() << mg::writeWkt(a) << " vs " << mg::writeWkt(b) << ": intersects "
                      << nameOf(recI) << " (reference " << nameOf(refI) << "), contains "
                      << nameOf(recC) << " (reference " << nameOf(refC) << ")";
      }
      ++tally.pairs;
      tally.intersecting += refI == Outcome::kTrue;
      tally.containing += refC == Outcome::kTrue;
    }
  }
}

}  // namespace

TEST(BatchRefine, RecordPredicatesMatchReference) {
  std::vector<mg::Geometry> shapes = fixedShapes();
  ShapeGenerator gen(2024);
  for (int k = 0; k < 220; ++k) shapes.push_back(gen.any(2));
  PairTally tally;
  compareAllPairs(shapes, tally);
  EXPECT_EQ(tally.mismatches, 0) << "of " << tally.pairs << " pairs";
  // The lattice keeps both answers common, so neither side is vacuous.
  EXPECT_GT(tally.intersecting, tally.pairs / 10);
  EXPECT_LT(tally.intersecting, tally.pairs - tally.pairs / 10);
  EXPECT_GT(tally.containing, tally.pairs / 100);
}

TEST(BatchRefine, RecordPredicatesMatchReferenceOnNearCollinearProbes) {
  // The probe generator of Segments.NearCollinearHitsHaveOverlappingBoxes:
  // four points rounded off one random line, so orientation signs are
  // rounding noise. Each probe yields two segments, a point on the line
  // and a thin triangle on the first segment.
  mvio::util::Rng rng(7);
  PairTally tally;
  for (int i = 0; i < 20'000; ++i) {
    const mg::Coord p{rng.uniform(-20, 20), rng.uniform(-20, 20)};
    const double angle = rng.uniform(0, 6.283185307179586);
    const mg::Coord dir{std::cos(angle), std::sin(angle)};
    double t[4];
    for (double& v : t) v = rng.uniform(-30, 30);
    std::sort(t, t + 4);
    if (rng.below(2)) std::swap(t[1], t[2]);  // overlapping along the line
    const auto at = [&](double s) { return mg::Coord{p.x + s * dir.x, p.y + s * dir.y}; };
    const mg::Coord a = at(t[0]), b = at(t[1]), c = at(t[2]), d = at(t[3]);
    const mg::Coord apex{a.x - 1e-9 * dir.y, a.y + 1e-9 * dir.x};
    compareAllPairs({mg::Geometry::lineString({a, b}), mg::Geometry::lineString({c, d}),
                     mg::Geometry::point(at(0.5 * (t[1] + t[2]))),
                     mg::Geometry::polygon({mg::Ring{{a, b, apex, a}}})},
                    tally);
  }
  EXPECT_EQ(tally.mismatches, 0) << "of " << tally.pairs << " pairs";
  EXPECT_GT(tally.intersecting, tally.pairs / 4);
  EXPECT_GT(tally.containing, 0);
}

TEST(BatchRefine, ClippedMeasureMatchesMaterializedMeasure) {
  const mg::GeometryBatch batch = mixedBatch();
  for (const auto& box : probeBoxes()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Identical arithmetic (shared span primitives), so exact equality.
      EXPECT_DOUBLE_EQ(mg::recordClippedMeasure(batch, i, box),
                       mg::clippedMeasure(batch.materialize(i), box))
          << "record " << i;
    }
  }
}

TEST(BatchRefine, RTreeBulkLoadFromSpanMatchesManualEntries) {
  const mg::GeometryBatch batch = mixedBatch();
  std::vector<std::uint32_t> idx(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) idx[i] = static_cast<std::uint32_t>(i);
  const mg::BatchSpan span(&batch, idx.data(), idx.size());

  mg::RTree fromSpan(8);
  fromSpan.bulkLoad(span);
  std::vector<mg::RTree::Entry> entries;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    entries.push_back({batch.envelope(i), static_cast<std::uint64_t>(i)});
  }
  mg::RTree manual(8);
  manual.bulkLoad(std::move(entries));

  ASSERT_EQ(fromSpan.size(), manual.size());
  for (const auto& box : probeBoxes()) {
    auto a = fromSpan.search(box);
    auto b = manual.search(box);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

namespace {

/// The pre-refactor CellIndex: materialized geometries + an R-tree, with
/// the query loop the old DistributedIndex ran. Kept here as the reference
/// the batch-backed index must match record for record. (bench_micro_geom's
/// LegacyCells prices the same layout for the alloc counters; if the
/// legacy semantics ever need a fix, change both.)
struct LegacyIndex {
  struct Cell {
    std::vector<mg::Geometry> geometries;
    std::vector<std::size_t> ids;  // original batch record ids
    mg::RTree rtree{16};
  };
  mc::GridSpec grid;
  std::map<int, Cell> cells;

  static LegacyIndex build(const mg::GeometryBatch& batch, const mc::GridSpec& grid) {
    LegacyIndex index;
    index.grid = grid;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch.cell(i) == mg::GeometryBatch::kNoCell) continue;
      Cell& cell = index.cells[batch.cell(i)];
      cell.geometries.push_back(batch.materialize(i));
      cell.ids.push_back(i);
    }
    for (auto& [id, cell] : index.cells) {
      std::vector<mg::RTree::Entry> entries;
      for (std::size_t k = 0; k < cell.geometries.size(); ++k) {
        entries.push_back({cell.geometries[k].envelope(), static_cast<std::uint64_t>(k)});
      }
      cell.rtree.bulkLoad(std::move(entries));
    }
    return index;
  }

  [[nodiscard]] std::set<std::size_t> query(const mg::Envelope& box) const {
    std::set<std::size_t> out;
    const mg::Geometry boxGeom = mg::Geometry::box(box);
    for (const auto& [cellId, cell] : cells) {
      cell.rtree.query(box, [&](std::uint64_t k) {
        const mg::Geometry& g = cell.geometries[static_cast<std::size_t>(k)];
        const mg::Coord ref{std::max(g.envelope().minX(), box.minX()),
                            std::max(g.envelope().minY(), box.minY())};
        if (grid.cellOfPoint(ref) != cellId) return;
        if (!mg::reference::intersects(boxGeom, g)) return;
        out.insert(cell.ids[static_cast<std::size_t>(k)]);
      });
    }
    return out;
  }
};

}  // namespace

TEST(BatchRefine, DistributedIndexMatchesLegacyPerGeometryIndex) {
  mg::GeometryBatch batch = mixedBatch();
  const mc::GridSpec grid(mg::Envelope(-5, -5, 25, 25), 6, 6);
  // Tag cells with replication, exactly like the framework's project step.
  {
    const std::size_t n = batch.size();
    std::vector<int> cells;
    for (std::size_t i = 0; i < n; ++i) {
      cells.clear();
      grid.overlappingCells(batch.envelope(i), cells);
      ASSERT_FALSE(cells.empty());
      batch.setCell(i, cells[0]);
      for (std::size_t k = 1; k < cells.size(); ++k) batch.appendRecordFrom(batch, i, cells[k]);
    }
  }

  const LegacyIndex legacy = LegacyIndex::build(batch, grid);
  const std::uint64_t total = batch.size();
  const auto index = mc::DistributedIndex::fromBatch(std::move(batch), grid);
  EXPECT_EQ(index.localGeometries(), total);
  EXPECT_EQ(index.batch().size(), total);

  for (const auto& box : probeBoxes()) {
    std::set<std::size_t> got;
    index.query(box, [&](std::size_t id) { got.insert(id); });
    EXPECT_EQ(got, legacy.query(box)) << "box [" << box.minX() << "," << box.minY() << ","
                                      << box.maxX() << "," << box.maxY() << "]";
    EXPECT_EQ(index.queryCount(box), got.size());
  }

  // Matched records materialize on demand from the adopted arenas.
  index.query(mg::Envelope(2, 2, 6, 6), [&](std::size_t id) {
    EXPECT_FALSE(index.materialize(id).isEmpty());
  });
}

TEST(BatchRefine, OverlayCoverageRegressionThroughBatchInterface) {
  // Overlay CoverageTask regression through the batch-span interface:
  // every cell of the row-major output must equal a serial per-Geometry
  // recomputation (not just the global sums).
  mp::LustreParams params;
  params.nodes = 4;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  mo::SynthSpec polys = mo::datasetSpec(mo::DatasetId::kLakes, 91);
  polys.space.world = mg::Envelope(0, 0, 30, 30);
  polys.maxRadius = 1.5;
  const std::string textR = mo::generateWktText(mo::RecordGenerator(polys), 200);
  vol->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(textR));

  mc::WktParser parser;
  std::vector<mg::Geometry> all;
  parser.parseAll(textR, [&](mg::Geometry&& g) { all.push_back(std::move(g)); });

  for (int nprocs : {1, 4}) {
    mc::OverlayStats stats;
    std::mutex mu;
    mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 25;
      cfg.outputPath = "batch_cov.bin";
      mc::DatasetHandle r{"r.wkt", &parser, {}};
      const auto st = mc::gridCoverageOverlay(comm, *vol, r, nullptr, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        stats = st;
      }
    });

    auto obj = vol->lookup("batch_cov.bin");
    std::vector<mc::CellCoverage> fileCov(static_cast<std::size_t>(stats.grid.cellCount()));
    obj->data->read(0, reinterpret_cast<char*>(fileCov.data()),
                    fileCov.size() * sizeof(mc::CellCoverage));
    for (int c = 0; c < stats.grid.cellCount(); ++c) {
      double serial = 0;
      for (const auto& g : all) serial += mg::clippedMeasure(g, stats.grid.cellEnvelope(c));
      // Identical per-record terms; only the accumulation order differs
      // (records arrive in exchange order), hence the ULP-scale tolerance.
      EXPECT_NEAR(fileCov[static_cast<std::size_t>(c)].measureR, serial,
                  1e-12 * std::max(1.0, serial))
          << "cell " << c << " nprocs " << nprocs;
    }
  }
}
