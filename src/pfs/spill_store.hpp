#pragma once
// Spill store: named byte blobs on a Volume, used by the streaming
// pipeline as node-local scratch (DESIGN.md §7).
//
// The streaming rounds bound their working set by writing pending batch
// shards out and reloading them when their round comes up; the
// distributed index persists a rank's owned cells the same way
// (DistributedIndex::{save,load}Shards). Traffic is whole-blob put/fetch
// plus ranged fetches (the CellStore reads one cell's piece of a segment
// blob), so the store is deliberately tiny: every blob is
// one MemoryBackingStore file on the Volume under `prefix`/, created
// with createOrReplace and readable by any later SpillStore attached to
// the same Volume and prefix — which is what makes shards survive
// "across runs" inside one simulation.
//
// The store is layer-pure: it moves bytes, never geometry. The shard
// codec (geom/batch_shard.hpp) converts batches to bytes, and the
// framework charges the modelled scratch-I/O time
// (StreamConfig::spillBytesPerSecond) to the rank clock at the call
// sites. Stats count blobs and bytes in both directions plus the peak
// bytes resident, which is how benches report bytes-spilled.
//
// Thread safety: one SpillStore per rank (names carry the rank), over a
// Volume whose registry is itself thread-safe.

#include <cstdint>
#include <string>
#include <unordered_map>

#include "pfs/volume.hpp"

namespace mvio::pfs {

struct SpillStats {
  std::uint64_t blobsWritten = 0;
  std::uint64_t blobsRead = 0;
  std::uint64_t bytesWritten = 0;  ///< total bytes spilled
  std::uint64_t bytesRead = 0;     ///< total bytes reloaded
  std::uint64_t bytesHeld = 0;     ///< bytes currently resident in the store
  std::uint64_t peakBytesHeld = 0;
};

/// Prices spill traffic. Two regimes: a flat bytes/s rate modelling
/// node-local scratch (SSD/tmpfs — no cross-rank contention), or the
/// Volume's StorageModel when the scratch directory lives on the parallel
/// filesystem itself — then every spill write and reload is a priced
/// request against the shared queue stations (OSTs / NSD servers, client
/// links, backbone), so concurrent spilling ranks contend exactly like
/// concurrent readers do. The store itself stays layer-pure (it moves
/// bytes); callers ask the pricer for the virtual seconds and charge
/// their own clock.
class SpillPricer {
 public:
  /// Node-local scratch: seconds = bytes / rate, no shared state.
  static SpillPricer flatRate(double bytesPerSecond);

  /// Scratch on the PFS: requests are priced by `volume`'s storage model
  /// as issued by compute node `node` (contention included).
  static SpillPricer onVolume(Volume& volume, int node, StripeSettings stripe = {});

  /// Virtual seconds one spill transfer of `bytes` takes when issued at
  /// virtual time `start`.
  [[nodiscard]] double seconds(std::uint64_t bytes, bool isWrite, double start) const;

 private:
  SpillPricer() = default;
  Volume* volume_ = nullptr;  ///< null = flat-rate regime
  int node_ = 0;
  StripeSettings stripe_;
  double bytesPerSecond_ = 2.0e9;
};

class SpillStore {
 public:
  /// Attach to `volume` under `prefix` (e.g. "__spill/rank3"). Blobs put
  /// by an earlier store with the same prefix are immediately fetchable.
  SpillStore(Volume& volume, std::string prefix);

  /// Store `bytes` under `name`, replacing any previous blob of that name.
  void put(const std::string& name, std::string bytes);

  /// Read back the whole blob; throws util::Error if absent.
  [[nodiscard]] std::string fetch(const std::string& name) const;

  /// Read back `n` bytes at `offset` of a blob (one ranged read; only the
  /// bytes read are counted). [offset, offset+n) must lie within the blob.
  [[nodiscard]] std::string fetch(const std::string& name, std::uint64_t offset,
                                  std::uint64_t n) const;

  [[nodiscard]] bool contains(const std::string& name) const;

  /// Drop one blob (missing names are ignored).
  void remove(const std::string& name);

  /// Drop every blob this store instance wrote (including blobs adopted
  /// by overwriting a name left behind by an earlier instance).
  void clear();

  [[nodiscard]] const SpillStats& stats() const { return stats_; }

  /// Volume path of a blob name (prefix + "/" + name).
  [[nodiscard]] std::string pathOf(const std::string& name) const;

 private:
  Volume* volume_;
  std::string prefix_;
  /// name → held bytes for blobs this instance wrote (clear() scope and
  /// O(1) replace/remove accounting — large streaming runs put and drop
  /// millions of shards).
  std::unordered_map<std::string, std::uint64_t> written_;
  mutable SpillStats stats_;
};

}  // namespace mvio::pfs
