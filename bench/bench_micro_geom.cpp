// Micro-benchmarks (google-benchmark): the geometry-engine hot paths that
// dominate the pipeline's compute phases — WKT parsing (per-Geometry vs
// arena-backed batch), exchange packing (per-destination staging vs
// single-pack), WKB round trips, R-tree construction/query, the exact
// record predicate. The parse/pack pairs report allocations and payload bytes
// copied per record via the bench/common.hpp counters.

#include <benchmark/benchmark.h>

#include "common.hpp"
#include "core/grid.hpp"
#include "core/indexing.hpp"
#include "geom/batch_shard.hpp"
#include "geom/quadtree.hpp"
#include "geom/rtree.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "osm/synth.hpp"
#include "util/rng.hpp"

namespace {

using namespace mvio;

std::vector<std::string> polygonRecords(std::size_t n) {
  osm::SynthSpec spec;
  spec.maxVertices = 128;
  osm::RecordGenerator gen(spec);
  std::vector<std::string> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(geom::writeWkt(gen.geometry(i), 6));
  return out;
}

/// Newline-delimited WKT text with tab-separated attributes, as the
/// pipeline's parse phase sees it after the partitioned read.
std::string recordText(std::size_t n) {
  const auto records = polygonRecords(n);
  std::string text;
  for (std::size_t i = 0; i < records.size(); ++i) {
    text += records[i];
    text += "\tosm_id=";
    text += std::to_string(i);
    text += '\n';
  }
  return text;
}

void reportPerRecord(benchmark::State& state, const bench::Counters& delta, std::uint64_t records) {
  if (records == 0) return;
  state.counters["allocs/rec"] =
      static_cast<double>(delta.allocs) / static_cast<double>(records);
  state.counters["copiedB/rec"] =
      static_cast<double>(delta.bytesCopied) / static_cast<double>(records);
}

// Bulk parse, per-Geometry path: one heap Geometry per record.
void BM_ParseAllLegacy(benchmark::State& state) {
  const std::string text = recordText(256);
  core::WktParser parser;
  std::uint64_t records = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    std::vector<geom::Geometry> out;
    const auto stats = parser.parseAll(text, [&](geom::Geometry&& g) { out.push_back(std::move(g)); });
    records += stats.records;
    benchmark::DoNotOptimize(out.size());
  }
  reportPerRecord(state, bench::countersSince(t0), records);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseAllLegacy);

// Bulk parse, batch path: records parse straight into reused arenas.
void BM_ParseAllBatch(benchmark::State& state) {
  const std::string text = recordText(256);
  core::WktParser parser;
  geom::GeometryBatch out;
  std::uint64_t records = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    out.clear();
    const auto stats = parser.parseAll(text, out);
    records += stats.records;
    benchmark::DoNotOptimize(out.size());
  }
  reportPerRecord(state, bench::countersSince(t0), records);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * text.size()));
}
BENCHMARK(BM_ParseAllBatch);

/// A parsed batch spread over `kPackDests` destinations (cell % kPackDests)
/// and its records grouped by destination, as the exchange groups them.
constexpr int kPackDests = 8;

struct PackInput {
  geom::GeometryBatch batch;
  std::vector<std::uint32_t> order;
  std::vector<int> dests;
};

PackInput packInput() {
  core::WktParser parser;
  PackInput in;
  parser.parseAll(recordText(256), in.batch);
  for (std::size_t i = 0; i < in.batch.size(); ++i) in.batch.setCell(i, static_cast<int>(i) % 64);
  for (int d = 0; d < kPackDests; ++d) {
    for (std::size_t i = 0; i < in.batch.size(); ++i) {
      if (in.batch.cell(i) % kPackDests != d) continue;
      in.order.push_back(static_cast<std::uint32_t>(i));
      in.dests.push_back(d);
    }
  }
  return in;
}

// Exchange packing, staging: copy each destination's records into its own
// batch, then encode each staged batch into the send buffer (two copies
// of every payload byte).
void BM_ExchangePackStaging(benchmark::State& state) {
  const PackInput in = packInput();
  std::string sendBuf;
  std::uint64_t records = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    std::vector<geom::GeometryBatch> perDest(kPackDests);
    for (std::size_t k = 0; k < in.order.size(); ++k) {
      const std::uint32_t i = in.order[k];
      geom::GeometryBatch& staged = perDest[static_cast<std::size_t>(in.dests[k])];
      staged.appendRecordFrom(in.batch, i, in.batch.cell(i));
    }
    sendBuf.clear();
    for (const auto& d : perDest) geom::encodeShard(d, sendBuf);
    records += in.order.size();
    benchmark::DoNotOptimize(sendBuf.data());
  }
  reportPerRecord(state, bench::countersSince(t0), records);
}
BENCHMARK(BM_ExchangePackStaging);

// Exchange packing, the exchange's path: the frame writer puts one
// BatchShard per destination into one reused buffer, each record written
// once straight from the arenas.
void BM_ExchangePackBatch(benchmark::State& state) {
  const PackInput in = packInput();
  std::string sendBuf;
  std::uint64_t records = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    sendBuf.clear();
    benchmark::DoNotOptimize(geom::encodeShardRuns(in.batch, in.order, in.dests, sendBuf).size());
    records += in.order.size();
  }
  reportPerRecord(state, bench::countersSince(t0), records);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * sendBuf.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(records));
}
BENCHMARK(BM_ExchangePackBatch);

void BM_WktParsePolygon(benchmark::State& state) {
  const auto records = polygonRecords(256);
  std::uint64_t bytes = 0;
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& r = records[i++ % records.size()];
    benchmark::DoNotOptimize(geom::readWkt(r));
    bytes += r.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WktParsePolygon);

void BM_WktParsePoint(benchmark::State& state) {
  std::uint64_t bytes = 0;
  const std::string r = "POINT (-122.41941 37.77493)";
  for (auto _ : state) {
    benchmark::DoNotOptimize(geom::readWkt(r));
    bytes += r.size();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_WktParsePoint);

void BM_WkbRoundTrip(benchmark::State& state) {
  const auto records = polygonRecords(64);
  std::vector<geom::Geometry> geoms;
  for (const auto& r : records) geoms.push_back(geom::readWkt(r));
  std::size_t i = 0;
  for (auto _ : state) {
    const auto bytes = geom::writeWkb(geoms[i++ % geoms.size()]);
    benchmark::DoNotOptimize(geom::readWkb(bytes));
  }
}
BENCHMARK(BM_WkbRoundTrip);

void BM_RTreeBulkLoad(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(5);
  std::vector<geom::RTree::Entry> entries;
  entries.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0, 1000), y = rng.uniform(0, 1000);
    entries.push_back({geom::Envelope(x, y, x + 1, y + 1), i});
  }
  for (auto _ : state) {
    geom::RTree tree(16);
    auto copy = entries;
    tree.bulkLoad(std::move(copy));
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_RTreeQuery(benchmark::State& state) {
  util::Rng rng(6);
  std::vector<geom::RTree::Entry> entries;
  for (std::size_t i = 0; i < 100000; ++i) {
    const double x = rng.uniform(0, 1000), y = rng.uniform(0, 1000);
    entries.push_back({geom::Envelope(x, y, x + 1, y + 1), i});
  }
  geom::RTree tree(16);
  tree.bulkLoad(std::move(entries));
  for (auto _ : state) {
    const double x = rng.uniform(0, 990), y = rng.uniform(0, 990);
    std::uint64_t hits = 0;
    tree.query(geom::Envelope(x, y, x + 10, y + 10), [&](std::uint64_t) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeQuery);

// ---- Adaptive-partitioner lookup paths (DESIGN.md §13). Variable-extent
// cell maps make multi-cell overlap lists longer, so the two lookups on
// that path get their own datapoints: QuadTree::search reserving its
// result vector from estimateMatches (node-level counts, no per-entry
// rectangle tests — allocs/rec stays ~0 even for wide queries), and
// CellLocator::overlappingCells' per-call sort+dedupe tail.

void BM_QuadTreeSearch(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(7);
  geom::QuadTree tree(geom::Envelope(0, 0, 1000, 1000));
  for (std::size_t i = 0; i < n; ++i) {
    const double x = rng.uniform(0, 999), y = rng.uniform(0, 999);
    tree.insert(geom::Envelope(x, y, x + 1, y + 1), i);
  }
  std::uint64_t hits = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    const double x = rng.uniform(0, 950), y = rng.uniform(0, 950);
    const auto matches = tree.search(geom::Envelope(x, y, x + 50, y + 50));
    hits += matches.size();
    benchmark::DoNotOptimize(matches.data());
  }
  reportPerRecord(state, bench::countersSince(t0), hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(hits));
}
BENCHMARK(BM_QuadTreeSearch)->Arg(10000)->Arg(100000);

void BM_CellLocatorOverlappingCells(benchmark::State& state) {
  // Arg = query side in cells: bigger boxes model the longer overlap
  // lists a coarse partition cell (a union of many uniform cells)
  // produces when translated back to uniform members.
  const int side = static_cast<int>(state.range(0));
  const core::GridSpec grid(geom::Envelope(0, 0, 1000, 1000), 64, 64);
  const core::CellLocator locator(grid);
  const double cellW = 1000.0 / 64;
  util::Rng rng(8);
  std::vector<int> out;
  std::uint64_t cellsOut = 0;
  for (auto _ : state) {
    out.clear();
    // Batch 32 lookups into one vector — the framework's calling
    // pattern; each call sorts+dedupes only its own appended tail.
    for (int q = 0; q < 32; ++q) {
      const double x = rng.uniform(0, 1000 - side * cellW);
      const double y = rng.uniform(0, 1000 - side * cellW);
      locator.overlappingCells(geom::Envelope(x, y, x + side * cellW, y + side * cellW), out);
    }
    cellsOut += out.size();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(cellsOut));
}
BENCHMARK(BM_CellLocatorOverlappingCells)->Arg(1)->Arg(4)->Arg(12);

// ---- Refine-layer indexing: legacy materialized layout vs batch-backed
// DistributedIndex. The build pair prices constructing per-cell R-trees
// (legacy: one heap Geometry per record first; batch: arena MBRs in
// place), the query pair prices filter + exact refine (legacy:
// intersects() on materialized geometries; batch: recordIntersectsBox on
// arena records). allocs/rec is the acceptance metric for the
// "zero per-record Geometry heap allocations" claim — the batch variants
// amortize to ~0 while the legacy variants pay several per record.

constexpr int kIndexCells = 16;

/// Cell-tagged batch shaped like a rank's post-exchange holdings:
/// records replicate to every overlapping cell, exactly like the
/// framework's project step (the reference-point dedup in the query
/// paths below assumes this).
mvio::geom::GeometryBatch indexInputBatch(std::size_t n, core::GridSpec& gridOut) {
  const std::string text = recordText(n);
  core::WktParser parser;
  geom::GeometryBatch batch;
  parser.parseAll(text, batch);
  gridOut = core::GridSpec::squarish(batch.bounds(), kIndexCells);
  const std::size_t parsed = batch.size();
  std::vector<int> cells;
  for (std::size_t i = 0; i < parsed; ++i) {
    cells.clear();
    gridOut.overlappingCells(batch.envelope(i), cells);
    batch.setCell(i, cells.empty() ? geom::GeometryBatch::kNoCell : cells[0]);
    for (std::size_t k = 1; k < cells.size(); ++k) batch.appendRecordFrom(batch, i, cells[k]);
  }
  return batch;
}

/// The pre-refactor CellIndex layout: materialize every record into its
/// cell, then bulk-load one R-tree per cell. Shared by the legacy build
/// and query benches so both price the identical layout.
/// (tests/test_batch_refine.cpp's LegacyIndex asserts result identity for
/// the same layout; if the legacy semantics ever need a fix, change both.)
struct LegacyCells {
  std::unordered_map<int, std::vector<geom::Geometry>> geoms;
  std::unordered_map<int, geom::RTree> trees;
};

LegacyCells buildLegacyCells(const geom::GeometryBatch& input) {
  LegacyCells out;
  for (std::size_t i = 0; i < input.size(); ++i) {
    out.geoms[input.cell(i)].push_back(input.materialize(i));
  }
  for (auto& [cell, geoms] : out.geoms) {
    std::vector<geom::RTree::Entry> entries;
    entries.reserve(geoms.size());
    for (std::size_t k = 0; k < geoms.size(); ++k) {
      entries.push_back({geoms[k].envelope(), static_cast<std::uint64_t>(k)});
    }
    auto [it, ok] = out.trees.emplace(cell, geom::RTree(16));
    it->second.bulkLoad(std::move(entries));
  }
  return out;
}

void BM_IndexBuildLegacy(benchmark::State& state) {
  core::GridSpec grid;
  const geom::GeometryBatch input = indexInputBatch(256, grid);
  std::uint64_t records = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    const LegacyCells cells = buildLegacyCells(input);
    records += input.size();
    benchmark::DoNotOptimize(cells.trees.size());
  }
  reportPerRecord(state, bench::countersSince(t0), records);
}
BENCHMARK(BM_IndexBuildLegacy);

void BM_IndexBuildBatch(benchmark::State& state) {
  core::GridSpec grid;
  const geom::GeometryBatch input = indexInputBatch(256, grid);
  std::uint64_t records = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    geom::GeometryBatch copy = input;  // the real pipeline moves; copy keeps iterations independent
    const auto index = core::DistributedIndex::fromBatch(std::move(copy), grid);
    records += index.localGeometries();
    benchmark::DoNotOptimize(index.cellCount());
  }
  reportPerRecord(state, bench::countersSince(t0), records);
}
BENCHMARK(BM_IndexBuildBatch);

void BM_IndexQueryLegacy(benchmark::State& state) {
  // The pre-refactor query layout and loop: per-cell materialized
  // geometries + R-tree, reference-point dedup, then intersects() on the
  // heap Geometry. allocs/rec divides by final matched records — the same
  // denominator as the batch variant below.
  core::GridSpec grid;
  const geom::GeometryBatch input = indexInputBatch(256, grid);
  const LegacyCells cells = buildLegacyCells(input);
  util::Rng rng(9);
  const geom::Envelope world = input.bounds();
  std::uint64_t visited = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    const double x = rng.uniform(world.minX(), world.maxX());
    const double y = rng.uniform(world.minY(), world.maxY());
    const geom::Envelope q(x, y, x + world.width() / 8, y + world.height() / 8);
    const geom::Geometry qGeom = geom::Geometry::box(q);
    std::uint64_t hits = 0;
    for (const auto& [cell, tree] : cells.trees) {
      const auto& geoms = cells.geoms.at(cell);
      tree.query(q, [&](std::uint64_t k) {
        const geom::Geometry& g = geoms[static_cast<std::size_t>(k)];
        const geom::Coord ref{std::max(g.envelope().minX(), q.minX()),
                              std::max(g.envelope().minY(), q.minY())};
        if (grid.cellOfPoint(ref) != cell) return;
        if (geom::intersects(qGeom, g)) ++hits;
      });
    }
    visited += hits;
    benchmark::DoNotOptimize(hits);
  }
  reportPerRecord(state, bench::countersSince(t0), visited);
}
BENCHMARK(BM_IndexQueryLegacy);

void BM_IndexQueryBatch(benchmark::State& state) {
  core::GridSpec grid;
  geom::GeometryBatch input = indexInputBatch(256, grid);
  const geom::Envelope world = input.bounds();
  const auto index = core::DistributedIndex::fromBatch(std::move(input), grid);
  util::Rng rng(9);
  std::uint64_t visited = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    const double x = rng.uniform(world.minX(), world.maxX());
    const double y = rng.uniform(world.minY(), world.maxY());
    const geom::Envelope q(x, y, x + world.width() / 8, y + world.height() / 8);
    std::uint64_t hits = 0;
    index.query(q, [&](std::size_t) { ++hits; });
    visited += hits;
    benchmark::DoNotOptimize(hits);
  }
  reportPerRecord(state, bench::countersSince(t0), visited);
}
BENCHMARK(BM_IndexQueryBatch);

void BM_PolygonIntersects(benchmark::State& state) {
  osm::SynthSpec spec;
  spec.minVertices = 16;
  spec.maxVertices = 64;
  spec.maxRadius = 5.0;
  spec.space.world = geom::Envelope(0, 0, 20, 20);
  osm::RecordGenerator gen(spec);
  geom::GeometryBatch batch;
  for (std::uint64_t i = 0; i < 64; ++i) batch.append(gen.geometry(i));
  std::size_t i = 0;
  const bench::Counters t0 = bench::countersNow();
  for (auto _ : state) {
    // The record predicate the join refine runs, on arena records in place.
    benchmark::DoNotOptimize(
        geom::recordIntersects(batch, i % batch.size(), batch, (i + 7) % batch.size()));
    ++i;
  }
  const bench::Counters delta = bench::countersSince(t0);
  state.counters["allocs/call"] = static_cast<double>(delta.allocs) / static_cast<double>(i);
}
BENCHMARK(BM_PolygonIntersects);

}  // namespace

BENCHMARK_MAIN();
