#include "core/partition_map.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/exchange.hpp"
#include "geom/quadtree.hpp"
#include "geom/space_curve.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

using util::fnv1a;
using util::putScalar;
using util::readScalar;

constexpr std::uint32_t kMapMagic = 0x4D50564D;  // "MVPM"
constexpr std::uint32_t kMapVersion = 1;
// magic + version + scheme + 4 bounds doubles + cellsX/cellsY +
// partCount + groupCount.
constexpr std::size_t kMapFixed = 4 + 4 + 4 + 32 + 4 + 4 + 4 + 4;
/// Hilbert curve order of the range-split scheme's cell ordering.
constexpr int kHilbertCurveOrder = 16;

/// Rewrite arbitrary group labels into the canonical relabeling: scanning
/// uniform cells ascending, each first-seen label gets the next fresh id.
int canonicalize(std::vector<std::int32_t>& group) {
  std::vector<std::int32_t> fresh;
  std::vector<std::int32_t> remap;
  for (auto& g : group) {
    const auto it = std::find(fresh.begin(), fresh.end(), g);
    if (it == fresh.end()) {
      fresh.push_back(g);
      remap.push_back(static_cast<std::int32_t>(fresh.size() - 1));
      g = remap.back();
    } else {
      g = remap[static_cast<std::size_t>(it - fresh.begin())];
    }
  }
  return static_cast<int>(fresh.size());
}

/// Replication-aware per-uniform-cell sample weights: every sample
/// envelope counts once in each uniform cell it overlaps, mirroring what
/// projection will replicate.
std::vector<std::uint64_t> uniformWeights(const GridSpec& grid,
                                          const std::vector<geom::Envelope>& samples) {
  std::vector<std::uint64_t> w(static_cast<std::size_t>(grid.cellCount()), 0);
  std::vector<int> cells;
  for (const auto& env : samples) {
    cells.clear();
    grid.overlappingCells(env, cells);
    for (const int u : cells) ++w[static_cast<std::size_t>(u)];
  }
  return w;
}

int clampTarget(const PartitionerConfig& cfg, const GridSpec& grid, int worldSize) {
  int target = cfg.targetCells > 0 ? cfg.targetCells : 8 * std::max(1, worldSize);
  return std::clamp(target, 1, grid.cellCount());
}

PartitionMap buildQuadtreeMap(const PartitionerConfig& cfg, const GridSpec& grid,
                              const std::vector<geom::Envelope>& samples, int worldSize) {
  const int target = clampTarget(cfg, grid, worldSize);
  // Node capacity near samples/target makes hot regions subdivide until
  // per-leaf sample load approaches the per-cell target.
  const auto capacity = std::max<std::size_t>(1, samples.size() / static_cast<std::size_t>(target));
  geom::QuadTree tree(grid.bounds(), /*maxDepth=*/12, capacity);
  std::uint64_t id = 0;
  for (const auto& env : samples) {
    // Samples are envelopes of records inside the global bounds by
    // construction; clamp defensively to keep insert() total.
    tree.insert(env.intersection(grid.bounds()).isNull() ? grid.bounds() : env, id++);
  }
  std::vector<std::int32_t> group(static_cast<std::size_t>(grid.cellCount()), 0);
  for (int u = 0; u < grid.cellCount(); ++u) {
    group[static_cast<std::size_t>(u)] = tree.leafOf(grid.cellEnvelope(u).center());
  }
  const int parts = canonicalize(group);
  if (parts <= 1) return PartitionMap::uniform(grid);
  return PartitionMap::grouped(PartitionScheme::kQuadtree, grid, std::move(group), parts);
}

PartitionMap buildHilbertMap(const PartitionerConfig& cfg, const GridSpec& grid,
                             const std::vector<geom::Envelope>& samples, int worldSize) {
  const int target = clampTarget(cfg, grid, worldSize);
  const std::vector<std::uint64_t> weights = uniformWeights(grid, samples);
  const geom::CurveGrid curve{grid.bounds(), kHilbertCurveOrder};

  // Uniform cells in Hilbert order of their centers (id breaks key ties).
  std::vector<std::pair<std::uint64_t, int>> order;
  order.reserve(static_cast<std::size_t>(grid.cellCount()));
  for (int u = 0; u < grid.cellCount(); ++u) {
    order.emplace_back(curve.hilbertKeyOf(grid.cellEnvelope(u).center()), u);
  }
  std::sort(order.begin(), order.end());

  // Cut the curve into `target` contiguous ~equal-weight ranges. The +1
  // floor keeps empty cells from collapsing ranges to nothing.
  std::uint64_t total = 0;
  for (const auto w : weights) total += w + 1;
  std::vector<std::int32_t> group(static_cast<std::size_t>(grid.cellCount()), 0);
  std::uint64_t cum = 0;
  for (const auto& [key, u] : order) {
    (void)key;
    const auto range = static_cast<std::int32_t>(
        std::min<std::uint64_t>(static_cast<std::uint64_t>(target) - 1,
                                cum * static_cast<std::uint64_t>(target) / total));
    group[static_cast<std::size_t>(u)] = range;
    cum += weights[static_cast<std::size_t>(u)] + 1;
  }
  const int parts = canonicalize(group);
  if (parts <= 1) return PartitionMap::uniform(grid);
  return PartitionMap::grouped(PartitionScheme::kHilbert, grid, std::move(group), parts);
}

/// Max and mean per-rank load for a cell→rank assignment.
void rankLoadStats(const std::vector<std::uint64_t>& cellLoads, const std::vector<int>& owner,
                   int nprocs, std::uint64_t& maxLoad, double& meanLoad) {
  std::vector<std::uint64_t> perRank(static_cast<std::size_t>(nprocs), 0);
  for (std::size_t c = 0; c < cellLoads.size(); ++c) {
    perRank[static_cast<std::size_t>(owner[c])] += cellLoads[c];
  }
  maxLoad = 0;
  std::uint64_t total = 0;
  for (const auto l : perRank) {
    maxLoad = std::max(maxLoad, l);
    total += l;
  }
  meanLoad = nprocs > 0 ? static_cast<double>(total) / nprocs : 0.0;
}

}  // namespace

std::vector<int> roundRobinOwners(std::size_t cells, int nprocs) {
  std::vector<int> owner(cells);
  for (std::size_t c = 0; c < cells; ++c) owner[c] = roundRobinOwner(static_cast<int>(c), nprocs);
  return owner;
}

double loadImbalance(const std::vector<std::uint64_t>& loads, const std::vector<int>& owner,
                     int nprocs) {
  std::uint64_t maxLoad = 0;
  double meanLoad = 0.0;
  rankLoadStats(loads, owner, nprocs, maxLoad, meanLoad);
  return meanLoad > 0 ? static_cast<double>(maxLoad) / meanLoad : 0.0;
}

const char* partitionSchemeName(PartitionScheme scheme) {
  switch (scheme) {
    case PartitionScheme::kUniform:
      return "uniform";
    case PartitionScheme::kQuadtree:
      return "quadtree";
    case PartitionScheme::kHilbert:
      return "hilbert";
  }
  return "?";
}

PartitionMap PartitionMap::uniform(const GridSpec& grid) {
  PartitionMap map;
  map.scheme_ = PartitionScheme::kUniform;
  map.grid_ = grid;
  map.partCount_ = grid.cellCount();
  return map;
}

PartitionMap PartitionMap::grouped(PartitionScheme scheme, const GridSpec& grid,
                                   std::vector<std::int32_t> group, int partCount) {
  MVIO_CHECK(scheme != PartitionScheme::kUniform, "grouped map needs an adaptive scheme");
  MVIO_CHECK(group.size() == static_cast<std::size_t>(grid.cellCount()),
             "group array must cover every uniform cell");
  MVIO_CHECK(partCount >= 1, "partition map needs at least one cell");
  PartitionMap map;
  map.scheme_ = scheme;
  map.grid_ = grid;
  map.group_ = std::move(group);
  map.partCount_ = partCount;
  return map;
}

void PartitionMap::overlappingCells(const geom::Envelope& box, std::vector<int>& out) const {
  const std::size_t first = out.size();
  grid_.overlappingCells(box, out);
  if (!group_.empty()) translateCells(out, first);
}

void PartitionMap::translateCells(std::vector<int>& cells, std::size_t first) const {
  if (group_.empty()) return;
  for (std::size_t i = first; i < cells.size(); ++i) {
    cells[i] = group_[static_cast<std::size_t>(cells[i])];
  }
  std::sort(cells.begin() + static_cast<std::ptrdiff_t>(first), cells.end());
  cells.erase(std::unique(cells.begin() + static_cast<std::ptrdiff_t>(first), cells.end()),
              cells.end());
}

bool operator==(const PartitionMap& a, const PartitionMap& b) {
  return a.scheme_ == b.scheme_ && a.partCount_ == b.partCount_ && a.group_ == b.group_ &&
         a.grid_.bounds() == b.grid_.bounds() && a.grid_.cellsX() == b.grid_.cellsX() &&
         a.grid_.cellsY() == b.grid_.cellsY();
}

std::string encodePartitionMap(const PartitionMap& map) {
  std::string s;
  putScalar<std::uint32_t>(s, kMapMagic);
  putScalar<std::uint32_t>(s, kMapVersion);
  putScalar<std::uint32_t>(s, static_cast<std::uint32_t>(map.scheme()));
  const geom::Envelope& b = map.grid().bounds();
  putScalar<double>(s, b.minX());
  putScalar<double>(s, b.minY());
  putScalar<double>(s, b.maxX());
  putScalar<double>(s, b.maxY());
  putScalar<std::uint32_t>(s, static_cast<std::uint32_t>(map.grid().cellsX()));
  putScalar<std::uint32_t>(s, static_cast<std::uint32_t>(map.grid().cellsY()));
  putScalar<std::uint32_t>(s, static_cast<std::uint32_t>(map.cellCount()));
  if (map.isUniform()) {
    putScalar<std::uint32_t>(s, 0);
  } else {
    putScalar<std::uint32_t>(s, static_cast<std::uint32_t>(map.grid().cellCount()));
    for (int u = 0; u < map.grid().cellCount(); ++u) {
      putScalar<std::int32_t>(s, map.groupOf(u));
    }
  }
  putScalar<std::uint64_t>(s, fnv1a(s.data(), s.size()));
  return s;
}

std::optional<PartitionMap> decodePartitionMap(std::string_view blob) {
  if (blob.size() < kMapFixed + 8) return std::nullopt;
  const char* p = blob.data();
  if (readScalar<std::uint32_t>(p) != kMapMagic) return std::nullopt;
  if (readScalar<std::uint32_t>(p + 4) != kMapVersion) return std::nullopt;
  const auto schemeRaw = readScalar<std::uint32_t>(p + 8);
  if (schemeRaw > static_cast<std::uint32_t>(PartitionScheme::kHilbert)) return std::nullopt;
  const double minX = readScalar<double>(p + 12);
  const double minY = readScalar<double>(p + 20);
  const double maxX = readScalar<double>(p + 28);
  const double maxY = readScalar<double>(p + 36);
  const auto cellsX = readScalar<std::uint32_t>(p + 44);
  const auto cellsY = readScalar<std::uint32_t>(p + 48);
  const auto partCount = readScalar<std::uint32_t>(p + 52);
  const auto groupCount = readScalar<std::uint32_t>(p + 56);

  if (!std::isfinite(minX) || !std::isfinite(minY) || !std::isfinite(maxX) ||
      !std::isfinite(maxY) || !(minX < maxX) || !(minY < maxY)) {
    return std::nullopt;
  }
  if (cellsX < 1 || cellsY < 1 || cellsX > (1u << 16) || cellsY > (1u << 16)) {
    return std::nullopt;
  }
  const std::uint64_t cells = static_cast<std::uint64_t>(cellsX) * cellsY;
  const std::size_t expect = kMapFixed + static_cast<std::size_t>(groupCount) * 4 + 8;
  if (blob.size() != expect) return std::nullopt;
  if (fnv1a(blob.data(), expect - 8) != readScalar<std::uint64_t>(p + expect - 8)) {
    return std::nullopt;
  }

  const GridSpec grid(geom::Envelope(minX, minY, maxX, maxY), static_cast<int>(cellsX),
                      static_cast<int>(cellsY));
  const auto scheme = static_cast<PartitionScheme>(schemeRaw);
  if (groupCount == 0) {
    // Uniform maps carry no group array; the scheme must agree.
    if (scheme != PartitionScheme::kUniform || partCount != cells) return std::nullopt;
    return PartitionMap::uniform(grid);
  }
  if (scheme == PartitionScheme::kUniform) return std::nullopt;
  if (groupCount != cells || partCount < 1 || partCount > groupCount) return std::nullopt;

  std::vector<std::int32_t> group(groupCount);
  const char* g = p + kMapFixed;
  std::int32_t fresh = 0;
  for (std::uint32_t u = 0; u < groupCount; ++u, g += 4) {
    const auto v = readScalar<std::int32_t>(g);
    // Enforce the canonical relabeling: a value is either already seen
    // or exactly the next fresh id. Anything else is a corrupt map.
    if (v < 0 || v > fresh) return std::nullopt;
    if (v == fresh) ++fresh;
    group[u] = v;
  }
  if (fresh != static_cast<std::int32_t>(partCount)) return std::nullopt;
  return PartitionMap::grouped(scheme, grid, std::move(group), static_cast<int>(partCount));
}

PartitionMap buildPartitionMap(const PartitionerConfig& cfg, const GridSpec& grid,
                               const std::vector<geom::Envelope>& samples, int worldSize) {
  if (cfg.scheme == PartitionScheme::kUniform || samples.empty() || grid.cellCount() <= 1) {
    return PartitionMap::uniform(grid);
  }
  if (cfg.scheme == PartitionScheme::kQuadtree) {
    return buildQuadtreeMap(cfg, grid, samples, worldSize);
  }
  return buildHilbertMap(cfg, grid, samples, worldSize);
}

PartitionPlan planPartition(const PartitionMap& map, const std::vector<geom::Envelope>& samples,
                            int worldSize, std::uint64_t totalRecords, double bytesPerRecord,
                            const PartitionCostModel& model) {
  PartitionPlan plan;
  plan.scheme = map.scheme();
  plan.cells = map.cellCount();
  plan.samples = samples.size();
  if (samples.empty() || worldSize < 1) return plan;

  const GridSpec& grid = map.grid();
  const std::vector<std::uint64_t> uniformLoads = uniformWeights(grid, samples);

  // Adaptive loads: one count per partition cell a sample overlaps
  // (projection replicates exactly once per partition cell).
  std::vector<std::uint64_t> adaptiveLoads(static_cast<std::size_t>(map.cellCount()), 0);
  std::vector<int> cells;
  for (const auto& env : samples) {
    cells.clear();
    map.overlappingCells(env, cells);
    for (const int c : cells) ++adaptiveLoads[static_cast<std::size_t>(c)];
  }

  std::uint64_t sampleTotal = 0;
  for (const auto l : adaptiveLoads) sampleTotal += l;
  const double scale =
      sampleTotal > 0 ? static_cast<double>(totalRecords) / static_cast<double>(sampleTotal) : 0.0;

  // Uniform grid, round-robin owners, then the LPT pass the rebalancer
  // would run: its max-rank load is the refine bound, and every cell that
  // changes owner is migration traffic.
  const std::vector<int> rrUniform = roundRobinOwners(uniformLoads.size(), worldSize);
  std::uint64_t maxUniformRR = 0;
  double meanUniform = 0.0;
  rankLoadStats(uniformLoads, rrUniform, worldSize, maxUniformRR, meanUniform);
  const std::vector<int> lptUniform = lptAssignCells(uniformLoads, worldSize);
  std::uint64_t maxUniformLpt = 0;
  double meanUniformLpt = 0.0;
  rankLoadStats(uniformLoads, lptUniform, worldSize, maxUniformLpt, meanUniformLpt);
  std::uint64_t movedSamples = 0;
  for (std::size_t c = 0; c < uniformLoads.size(); ++c) {
    if (lptUniform[c] != rrUniform[c]) movedSamples += uniformLoads[c];
  }

  const std::vector<int> rrAdaptive = roundRobinOwners(adaptiveLoads.size(), worldSize);
  std::uint64_t maxAdaptive = 0;
  double meanAdaptive = 0.0;
  rankLoadStats(adaptiveLoads, rrAdaptive, worldSize, maxAdaptive, meanAdaptive);

  plan.imbalanceUniform =
      meanUniform > 0 ? static_cast<double>(maxUniformRR) / meanUniform : 1.0;
  plan.imbalanceAdaptive =
      meanAdaptive > 0 ? static_cast<double>(maxAdaptive) / meanAdaptive : 1.0;

  const double movedRecords = static_cast<double>(movedSamples) * scale;
  plan.predictedMigrationBytes = static_cast<std::uint64_t>(movedRecords * bytesPerRecord);
  plan.predictedUniformSeconds =
      static_cast<double>(maxUniformLpt) * scale * model.refineSecondsPerRecord +
      movedRecords * bytesPerRecord / model.migrateBytesPerSecond +
      movedRecords * model.migratePerGeometrySeconds;
  plan.predictedAdaptiveSeconds =
      static_cast<double>(maxAdaptive) * scale * model.refineSecondsPerRecord;

  const double hi = std::max(plan.predictedUniformSeconds, plan.predictedAdaptiveSeconds);
  plan.predictedMargin =
      hi > 0 ? std::abs(plan.predictedUniformSeconds - plan.predictedAdaptiveSeconds) / hi : 0.0;
  if (map.isUniform()) {
    plan.predictedWinner = PartitionScheme::kUniform;
  } else {
    plan.predictedWinner = plan.predictedAdaptiveSeconds <= plan.predictedUniformSeconds
                               ? map.scheme()
                               : PartitionScheme::kUniform;
  }
  return plan;
}

RebalanceDecision priceRebalance(const std::vector<std::uint64_t>& loads,
                                 const std::vector<int>& from, const std::vector<int>& to,
                                 int nprocs, double bytesPerRecord, double threshold,
                                 const PartitionCostModel& model) {
  RebalanceDecision d;
  if (nprocs < 1 || loads.empty()) return d;
  std::uint64_t maxFrom = 0;
  std::uint64_t maxTo = 0;
  double mean = 0.0;
  rankLoadStats(loads, from, nprocs, maxFrom, mean);
  rankLoadStats(loads, to, nprocs, maxTo, mean);
  std::uint64_t moved = 0;
  for (std::size_t c = 0; c < loads.size(); ++c) {
    if (from[c] != to[c]) moved += loads[c];
  }
  d.migrateBytes = static_cast<std::uint64_t>(static_cast<double>(moved) * bytesPerRecord);
  d.migrateSeconds = static_cast<double>(d.migrateBytes) / model.migrateBytesPerSecond +
                     static_cast<double>(moved) * model.migratePerGeometrySeconds;
  const double saved = maxFrom > maxTo ? static_cast<double>(maxFrom - maxTo) : 0.0;
  d.gainSeconds = saved * model.refineSecondsPerRecord;
  d.worthIt = d.gainSeconds > d.migrateSeconds * std::max(threshold, 0.0);
  return d;
}

}  // namespace mvio::core
