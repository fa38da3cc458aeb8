#pragma once
// The Table 3 dataset catalog, reproduced synthetically.
//
//   #  Dataset       Shape    Paper size  Paper count  Seq. I/O+parse
//   1  Cemetery      Polygon  56 MB       193 K        2.1 s
//   2  Lakes         Polygon  9 GB        8 M          328 s
//   3  Roads         Polygon  24 GB       72 M         786 s
//   4  All Objects   Polygon  92 GB       263 M        4728 s
//   5  Road Network  Line     137 GB      717 M        2873 s
//   6  All Nodes     Point    96 GB       2.7 B        3782 s
//
// Each entry carries a SynthSpec tuned so the synthetic records match the
// paper dataset's average record size and shape type. Installers place
// either a virtual (O(1)-memory, scaled) file or an exact in-memory file
// onto a pfs::Volume. bench_e2e/README.md records the scale used per
// workload.

#include <cstdint>
#include <string>

#include "osm/synth.hpp"
#include "osm/virtual_file.hpp"
#include "pfs/volume.hpp"

namespace mvio::osm {

enum class DatasetId { kCemetery, kLakes, kRoads, kAllObjects, kRoadNetwork, kAllNodes };

struct DatasetInfo {
  const char* name;
  const char* shape;
  std::uint64_t paperBytes;
  std::uint64_t paperCount;
  double paperSeqIoSeconds;  ///< Table 3 "I/O (sec)" column
};

const DatasetInfo& datasetInfo(DatasetId id);

/// The tuned generator spec for a catalog dataset.
SynthSpec datasetSpec(DatasetId id, std::uint64_t seed = 42);

struct InstalledDataset {
  std::string path;          ///< name on the volume
  std::uint64_t bytes = 0;   ///< actual file size installed
  DatasetId id{};
};

/// Install a scaled virtual file: size = paperBytes * scale, O(1) memory.
InstalledDataset installVirtualDataset(pfs::Volume& volume, DatasetId id, double scale,
                                       pfs::StripeSettings stripe = {},
                                       std::uint64_t blockSize = 4ull << 20,
                                       std::size_t poolSize = 384, std::size_t cacheBlocks = 64,
                                       std::uint64_t seed = 42);

/// Install an exact in-memory file holding records [0, count).
InstalledDataset installExactDataset(pfs::Volume& volume, DatasetId id, std::uint64_t count,
                                     pfs::StripeSettings stripe = {}, std::uint64_t seed = 42);

}  // namespace mvio::osm
