#pragma once
// Sample-based adaptive partitioning (DESIGN.md §13).
//
// The uniform grid is the root cause of the skew the rebalancer then
// pays migration traffic to clean up: hot cells overload the ranks that
// round-robin happens to hand them to. Following Aji et al. ("Effective
// Spatial Data Partitioning for Scalable Query Processing"), a cheap
// pilot pass samples ~1% of records during ingest, the samples are
// allgathered, and every rank deterministically builds the same
// variable-extent PartitionMap before the first exchange round:
//
//  * kQuadtree — an MX-CIF quadtree over the sample envelopes splits hot
//    regions until per-leaf sample load is near target; uniform cells
//    are grouped by the leaf containing their center.
//  * kHilbert — uniform cells are sorted by the Hilbert key of their
//    center and cut into contiguous, ~equal-weight key ranges.
//
// A partition cell is always a union of whole uniform-grid cells, so the
// refine phase can sub-bucket each partition cell back into its uniform
// members and run the existing per-cell tasks (duplicate-avoidance
// reference points, cell envelopes) unchanged — adaptive runs are
// bit-compatible with the uniform grid by construction.
//
// The map has a wire codec (magic + trailing FNV-1a, fuzzed like every
// other durable artifact) so epoch seals can carry it: recovery restores
// the sealed map and replays the chunk log through the identical
// projection.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/grid.hpp"
#include "geom/coord.hpp"
#include "geom/envelope.hpp"

namespace mvio::core {

enum class PartitionScheme : std::uint32_t { kUniform = 0, kQuadtree = 1, kHilbert = 2 };

[[nodiscard]] const char* partitionSchemeName(PartitionScheme scheme);

/// Per-rank cap on pilot samples (bounds the allgather payload).
inline constexpr std::size_t kMaxPilotSamplesPerRank = 1u << 16;

/// Partitioner knobs (FrameworkConfig::partition).
struct PartitionerConfig {
  PartitionScheme scheme = PartitionScheme::kUniform;
  /// Pilot pass: sample roughly this fraction of parsed records (at most
  /// kMaxPilotSamplesPerRank per rank).
  double sampleRate = 0.01;
  /// Partition cells to build (0 = 8 per rank, clamped to the grid).
  int targetCells = 0;
};

/// Cell map of a run: the uniform grid plus an optional grouping of
/// uniform cells into variable-extent partition cells. The uniform case
/// keeps `group_` empty so every lookup stays the grid's branch-free
/// arithmetic plus one predictable emptiness test.
class PartitionMap {
 public:
  PartitionMap() = default;

  [[nodiscard]] static PartitionMap uniform(const GridSpec& grid);
  /// Adaptive map; `group[u]` is the partition cell of uniform cell `u`
  /// and must be a canonical relabeling: scanning u ascending, each new
  /// value is the next unused id (so ids are deterministic).
  [[nodiscard]] static PartitionMap grouped(PartitionScheme scheme, const GridSpec& grid,
                                            std::vector<std::int32_t> group, int partCount);

  [[nodiscard]] PartitionScheme scheme() const { return scheme_; }
  [[nodiscard]] const GridSpec& grid() const { return grid_; }
  [[nodiscard]] bool isUniform() const { return group_.empty(); }
  /// Partition cells (== grid cells for the uniform map).
  [[nodiscard]] int cellCount() const { return group_.empty() ? grid_.cellCount() : partCount_; }

  /// Partition cell of uniform cell `u`.
  [[nodiscard]] int groupOf(int u) const {
    return group_.empty() ? u : group_[static_cast<std::size_t>(u)];
  }

  /// Partition cell owning a point (the duplicate-avoidance reference
  /// lookup at partition granularity).
  [[nodiscard]] int cellOfPoint(const geom::Coord& c) const {
    const int u = grid_.cellOfPoint(c);
    return group_.empty() ? u : group_[static_cast<std::size_t>(u)];
  }

  /// Append every partition cell whose extent intersects `box`; the
  /// appended tail is sorted and deduped (same contract as CellLocator).
  void overlappingCells(const geom::Envelope& box, std::vector<int>& out) const;

  /// Translate uniform cell ids appended past `first` (e.g. a CellLocator
  /// result) into partition ids in place; sorts + dedupes the tail.
  void translateCells(std::vector<int>& cells, std::size_t first) const;

  friend bool operator==(const PartitionMap& a, const PartitionMap& b);
  friend bool operator!=(const PartitionMap& a, const PartitionMap& b) { return !(a == b); }

 private:
  PartitionScheme scheme_ = PartitionScheme::kUniform;
  GridSpec grid_;
  std::vector<std::int32_t> group_;  ///< empty = identity (uniform)
  int partCount_ = 0;
};

// ---- Wire codec -----------------------------------------------------------
// magic + version + scheme + grid bounds/shape + canonical group array +
// trailing FNV-1a. Embedded verbatim in epoch seals and index manifests.

[[nodiscard]] std::string encodePartitionMap(const PartitionMap& map);

/// Decode + validate (checksum, exact size, canonical grouping, finite
/// bounds). nullopt on any corruption — never throws, never loads a
/// structurally inconsistent map.
[[nodiscard]] std::optional<PartitionMap> decodePartitionMap(std::string_view blob);

// ---- Builder --------------------------------------------------------------

/// Deterministically build the configured map from the allgathered pilot
/// samples (identical on every rank by construction: same samples, same
/// arithmetic). Falls back to the uniform map when the scheme is uniform,
/// the sample set is empty, or the grid has a single cell.
[[nodiscard]] PartitionMap buildPartitionMap(const PartitionerConfig& cfg, const GridSpec& grid,
                                             const std::vector<geom::Envelope>& samples,
                                             int worldSize);

// ---- Cost model -----------------------------------------------------------
// Prices partition and rebalance decisions in seconds instead of raw load
// ratios: projected refine cost of the most-loaded rank plus migration
// bytes at the measured shard rate.

struct PartitionCostModel {
  double refineSecondsPerRecord = 3e-7;    ///< per-record filter+refine cost
  double migrateBytesPerSecond = 2.5e9;    ///< shard wire rate (SerializationCostModel)
  double migratePerGeometrySeconds = 3e-7; ///< per-record pack/unpack cost
};

/// The pilot-pass prediction, published in FrameworkStats and checked by
/// bench_partition against the measured outcome.
struct PartitionPlan {
  PartitionScheme scheme = PartitionScheme::kUniform;
  int cells = 0;              ///< partition cells in the built map
  std::uint64_t samples = 0;  ///< global pilot samples the plan is built from
  /// Sampled max-rank load share (max/mean over ranks), round-robin owners.
  double imbalanceUniform = 0.0;
  double imbalanceAdaptive = 0.0;
  /// Predicted end-state seconds for the most-loaded rank: uniform grid
  /// with an LPT rebalance pass (refine + migration) vs the adaptive map
  /// with round-robin owners (refine only).
  double predictedUniformSeconds = 0.0;
  double predictedAdaptiveSeconds = 0.0;
  /// Predicted migration bytes the uniform+LPT run pays.
  std::uint64_t predictedMigrationBytes = 0;
  PartitionScheme predictedWinner = PartitionScheme::kUniform;
  /// Relative separation of the two predictions; below ~0.1 the schemes
  /// are within the model's noise and either winner is defensible.
  double predictedMargin = 0.0;
};

/// Build the plan for `map` against the uniform baseline on the same
/// samples. `totalRecords` scales sampled loads to run size;
/// `bytesPerRecord` is the measured (or estimated) wire size.
[[nodiscard]] PartitionPlan planPartition(const PartitionMap& map,
                                          const std::vector<geom::Envelope>& samples,
                                          int worldSize, std::uint64_t totalRecords,
                                          double bytesPerRecord,
                                          const PartitionCostModel& model = {});

/// Price one rebalance proposal: refine seconds saved by moving from
/// owners `from` to `to` vs the wire seconds the move costs. `threshold`
/// (FrameworkConfig::rebalanceThreshold) scales the required payoff.
struct RebalanceDecision {
  double gainSeconds = 0.0;
  double migrateSeconds = 0.0;
  std::uint64_t migrateBytes = 0;
  bool worthIt = false;
};
[[nodiscard]] RebalanceDecision priceRebalance(const std::vector<std::uint64_t>& loads,
                                               const std::vector<int>& from,
                                               const std::vector<int>& to, int nprocs,
                                               double bytesPerRecord, double threshold,
                                               const PartitionCostModel& model = {});

}  // namespace mvio::core
