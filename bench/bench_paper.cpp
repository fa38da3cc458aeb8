// The paper's evaluation in one driver: Tables 1–3, Figures 8–20 and the
// ablations, each a plain function over the shared helpers below.
//
//   bench_paper [figure...]   run the named figures (default: all, in list order)
//   bench_paper --list        print the figure names
//
// Each figure prints its tables and a verdict on the paper's expectation,
// and reports every numeric cell as `<column>_<row>` plus
// `expect_reproduced` (MVIO_REPORT_OUT, one figure a run). Verdicts never
// fail the run, since timing shapes move; broken invariants exit 1.

#include <algorithm>
#include <array>
#include <cctype>
#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <tuple>

#include "common.hpp"
#include "geom/space_curve.hpp"
#include "sim/clock.hpp"

namespace {

using namespace mvio;

// ---- Tables that report, verdicts and invariants -------------------------

/// A table cell: its text and, for a numeric cell, the reported value.
struct Cell {
  Cell(std::string s) : text(std::move(s)) {}
  Cell(const char* s) : text(s) {}
  Cell(std::string s, double v) : text(std::move(s)), value(v) {}
  std::string text;
  std::optional<double> value;
};

Cell num(std::uint64_t n) { return {std::to_string(n), static_cast<double>(n)}; }
Cell secs(double s) { return {util::formatSeconds(s), s}; }
Cell bytes(std::uint64_t b) { return {util::formatBytes(b), static_cast<double>(b)}; }
Cell fixed(double v, int digits) { return {util::formatFixed(v, digits), v}; }
Cell bandwidth(double n, double s) { return {util::formatBandwidth(n / s), n / s}; }

std::string slug(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

/// A column header and its report key: the header's slug unless named.
struct Column {
  Column(const char* h) : header(h), key(slug(h)) {}
  Column(const char* h, const char* k) : header(h), key(k) {}
  std::string header, key;
};

std::vector<std::string> headers(const std::vector<Column>& columns) {
  std::vector<std::string> out;
  for (const auto& c : columns) out.push_back(c.header);
  return out;
}

/// A printed table whose numeric cells are also report values, keyed
/// `<column key>_<row key>` (the row's sweep values: "s64_n4", "p20").
class Table {
 public:
  Table(obs::RunReport& report, std::vector<Column> columns)
      : report_(report), columns_(std::move(columns)), table_(headers(columns_)) {}

  void row(const std::string& key, const std::vector<Cell>& cells) {
    std::vector<std::string> text;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      text.push_back(cells[i].text);
      if (cells[i].value) report_.addValue(columns_[i].key + "_" + key, *cells[i].value);
    }
    table_.addRow(std::move(text));
  }

  void print() const { std::printf("%s\n", table_.str().c_str()); }

 private:
  obs::RunReport& report_;
  std::vector<Column> columns_;
  util::TextTable table_;
};

/// Print the standard header; the setup line doubles as the report's.
void header(obs::RunReport& report, const std::string& title, const std::string& paper,
            const std::string& setup) {
  bench::printHeader(title, paper, setup);
  report.setup = setup;
}

/// Print the verdict on the header's "paper:" line with the numbers
/// behind it, and record it as `expect_reproduced`.
void verdict(obs::RunReport& report, bool reproduced, const std::string& measured) {
  std::printf("expectation: %s — %s\n\n", reproduced ? "reproduced" : "NOT reproduced",
              measured.c_str());
  report.addValue("expect_reproduced", reproduced ? 1.0 : 0.0);
}

int gViolations = 0;

/// A deterministic invariant: a violation fails the run.
void require(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("INVARIANT VIOLATED: %s\n", what.c_str());
  ++gViolations;
}

template <class T>
bool allEqual(const std::vector<T>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::not_equal_to<>()) == v.end();
}
bool decreasing(const std::vector<double>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::less_equal<>()) == v.end();
}
bool increasing(const std::vector<double>& v) {
  return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) == v.end();
}
double minOf(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

/// "a → b → c" over formatted values, for verdict lines.
std::string chain(const std::vector<double>& v,
                  const std::function<std::string(double)>& format = util::formatSeconds) {
  std::string out;
  for (const double x : v) out += (out.empty() ? "" : " → ") + format(x);
  return out;
}
std::string ratio(double v) { return util::formatFixed(v, 2); }

// ---- Datasets, volumes and timed runs ------------------------------------

/// A catalog dataset at a scale factor: its scaled size, a record pool
/// and its virtual WKT file `<name>.wkt`.
struct ScaledDataset {
  ScaledDataset(osm::DatasetId id, double s, std::uint64_t floor = 64ull << 10)
      : info(osm::datasetInfo(id)),
        scale(s),
        bytes(bench::scaledBytes(static_cast<double>(info.paperBytes), s, floor)),
        file(std::string(info.name) + ".wkt"),
        pool(std::make_shared<const osm::RecordPool>(osm::RecordGenerator(osm::datasetSpec(id)),
                                                     256)) {}

  /// Install the file on `volume`; `seed` picks its block contents.
  void install(pfs::Volume& volume, std::uint64_t seed, pfs::StripeSettings stripe = {}) const {
    const std::uint64_t block = std::min<std::uint64_t>(1ull << 20, bytes);
    volume.createOrReplace(file, osm::makeVirtualWktFile(pool, bytes, block, seed, 96), stripe);
  }

  const osm::DatasetInfo& info;
  double scale;
  std::uint64_t bytes;
  std::string file;
  std::shared_ptr<const osm::RecordPool> pool;
};

/// `volume` holding one virtual binary file of fixed-size records.
std::shared_ptr<pfs::Volume> binaryVolume(std::shared_ptr<pfs::Volume> volume, const char* path,
                                          std::uint64_t records, std::size_t recordBytes,
                                          std::function<void(std::uint64_t, char*)> fill,
                                          pfs::StripeSettings stripe = {}) {
  volume->createOrReplace(
      path, osm::makeVirtualBinaryFile(records, recordBytes, std::move(fill), 4ull << 20, 96),
      stripe);
  return volume;
}

/// Install `count` generated records of `spec` as an in-memory WKT file.
void installText(pfs::Volume& volume, const char* path, const osm::SynthSpec& spec,
                 std::uint64_t count) {
  volume.createOrReplace(path, std::make_shared<pfs::MemoryBackingStore>(
                                   osm::generateWktText(osm::RecordGenerator(spec), count)));
}

/// A catalog spec re-seeded into a square world of Gaussian clusters
/// (zero keeps the catalog's radius and vertex bounds).
osm::SynthSpec clustered(osm::DatasetId id, std::uint64_t seed, double side, int clusters,
                         double stddev, double maxRadius = 0, int minVertices = 0,
                         int maxVertices = 0) {
  osm::SynthSpec spec = osm::datasetSpec(id, seed);
  spec.space.world = geom::Envelope(0, 0, side, side);
  spec.space.clusters = clusters;
  spec.space.clusterStddev = stddev;
  if (maxRadius > 0) spec.maxRadius = maxRadius;
  if (minVertices > 0) spec.minVertices = minVertices;
  if (maxVertices > 0) spec.maxVertices = maxVertices;
  return spec;
}

/// Synchronize the clocks, run `body`, and return its modelled seconds
/// (the max across ranks). Collective.
template <class F>
double timedMax(mpi::Comm& comm, F&& body) {
  comm.syncClocks();
  const double t0 = comm.clock().now();
  body();
  return comm.allreduceMax(comm.clock().now()) - t0;
}

/// A partition config with the benches' 64 KiB record bound.
core::PartitionConfig readConfig(std::uint64_t block, bool collective) {
  core::PartitionConfig cfg;
  cfg.blockSize = block;
  cfg.maxGeometryBytes = 64ull << 10;
  cfg.collectiveRead = collective;
  return cfg;
}

/// One timed partitioned read: iterations and readers from rank 0, the
/// fragment and byte counters summed over ranks.
struct ReadStats {
  double seconds = 0;
  std::uint64_t iterations = 0, fragments = 0, fragmentBytes = 0, bytesRead = 0;
  std::size_t readers = 0;
};

/// Install `data` (`seed`, `stripe`) on a fresh COMET volume of `nodes`
/// nodes at the dataset's scale and time one read with 16 ranks a node.
ReadStats timedRead(const ScaledDataset& data, int nodes, std::uint64_t seed,
                    pfs::StripeSettings stripe, const core::PartitionConfig& cfg,
                    io::Hints hints = {}) {
  auto volume = bench::cometVolume(nodes, data.scale);
  data.install(*volume, seed, stripe);
  ReadStats out;
  mpi::Runtime::run(nodes * 16, sim::MachineModel::comet(nodes), [&](mpi::Comm& comm) {
    auto file = io::File::open(comm, *volume, data.file, hints);
    core::PartitionResult res;
    const double t = timedMax(comm, [&] { res = core::readPartitioned(comm, file, cfg); });
    const std::uint64_t frags = comm.allreduceSumU64(res.fragmentsSent);
    const std::uint64_t fragBytes = comm.allreduceSumU64(res.fragmentBytes);
    const std::uint64_t bytesRead = comm.allreduceSumU64(res.bytesRead);
    if (comm.rank() == 0) {
      out = {t, res.iterations, frags, fragBytes, bytesRead, file.aggregatorRanks().size()};
    }
  });
  return out;
}

/// One timed collective read on ROGER nodes through a per-rank file view:
/// `view` sets the rank's view and returns its element count. Returns the
/// seconds and the element count summed over ranks.
std::pair<double, std::uint64_t> viewRead(
    pfs::Volume& volume, const char* path, int procs, const mpi::Datatype& type,
    const std::function<std::uint64_t(mpi::Comm&, io::File&)>& view) {
  std::pair<double, std::uint64_t> out;
  mpi::Runtime::run(procs, sim::MachineModel::roger(procs / 20), [&](mpi::Comm& comm) {
    auto file = io::File::open(comm, volume, path);
    const std::uint64_t n = view(comm, file);
    std::vector<char> buf(n * type.size());
    const double dt =
        timedMax(comm, [&] { file.readAtAll(0, buf.data(), static_cast<int>(n), type); });
    const std::uint64_t total = comm.allreduceSumU64(n);
    if (comm.rank() == 0) out = {dt, total};
  });
  return out;
}

/// One framework run as rank 0 sees it: phases reduced with maxAcross,
/// the global result count (join pairs, indexed records), the makespan.
struct PhaseRun {
  core::PhaseBreakdown phases;
  std::uint64_t results = 0;
  double makespan = 0;
};

/// The paper's pipeline for Figures 17–20: each layer read in one round,
/// no round overlap, so every phase of the breakdown stays exposed.
core::StreamConfig paperStream() {
  core::StreamConfig sc;
  sc.chunkBytes = core::StreamConfig::kWholePartition;
  sc.overlapRounds = false;
  return sc;
}

PhaseRun indexRun(pfs::Volume& volume, const std::string& path, int procs,
                  const sim::MachineModel& machine, const core::FrameworkConfig& framework) {
  PhaseRun out;
  volume.model().reset();
  const core::WktParser parser;
  mpi::Runtime::run(procs, machine, [&](mpi::Comm& comm) {
    core::IndexingConfig cfg;
    cfg.framework = framework;
    core::IndexingStats stats;
    (void)core::buildDistributedIndex(comm, volume, {path, &parser, {}}, cfg, &stats);
    const auto reduced = stats.phases.maxAcross(comm);
    const double end = comm.allreduceMax(comm.clock().now());
    if (comm.rank() == 0) out = {reduced, stats.globalGeometries, end};
  });
  return out;
}

PhaseRun joinRun(pfs::Volume& volume, const char* r, const char* s, int procs, int cells) {
  PhaseRun out;
  volume.model().reset();
  const core::WktParser parser;
  const auto machine = sim::MachineModel::roger(std::max(procs / 20, 1));
  mpi::Runtime::run(procs, machine, [&](mpi::Comm& comm) {
    core::JoinConfig cfg;
    cfg.framework.gridCells = cells;
    cfg.framework.stream = paperStream();
    const auto stats = core::spatialJoin(comm, volume, {r, &parser, {}}, {s, &parser, {}}, cfg);
    const auto reduced = stats.phases.maxAcross(comm);
    const double end = comm.allreduceMax(comm.clock().now());
    if (comm.rank() == 0) out = {reduced, stats.globalPairs, end};
  });
  return out;
}

/// The phase columns of Figures 18–20, one series each over the sweep.
enum PhaseColumn { kReadParse, kPartition, kComm, kCompute };
using PhaseSeries = std::array<std::vector<double>, 4>;

/// Figures 18–20: one framework run per process count, printed as the
/// paper's phase breakdown. The result count must not move with procs.
PhaseSeries breakdownSweep(obs::RunReport& report, const char* computeColumn,
                           const char* resultColumn, const std::vector<int>& procs,
                           const std::function<PhaseRun(int)>& run) {
  Table table(report, {"procs", "read+parse", "partition", "comm", computeColumn, "total",
                       resultColumn});
  PhaseSeries cols;
  std::vector<std::uint64_t> results;
  for (const int p : procs) {
    const PhaseRun r = run(p);
    const core::PhaseBreakdown& ph = r.phases;
    table.row("p" + std::to_string(p),
              {std::to_string(p), secs(ph.read + ph.parse), secs(ph.partition), secs(ph.comm),
               secs(ph.compute), secs(ph.total()), num(r.results)});
    const double values[4] = {ph.read + ph.parse, ph.partition, ph.comm, ph.compute};
    for (int c = 0; c < 4; ++c) cols[c].push_back(values[c]);
    results.push_back(r.results);
  }
  table.print();
  require(allEqual(results), report.name + ": " + resultColumn + " differ across process counts");
  return cols;
}

/// Whether phase `k` is the largest at every sweep point.
bool dominates(const PhaseSeries& cols, int k) {
  for (std::size_t i = 0; i < cols[k].size(); ++i) {
    for (int c = 0; c < 4; ++c) if (c != k && cols[c][i] >= cols[k][i]) return false;
  }
  return true;
}

// ---- Tables 1–3 -------------------------------------------------------------

// Table 1: one binary file read through every MPI access level (level 2,
// data sieving, is not in the paper's table); the checksums must agree.
void table1(obs::RunReport& report) {
  constexpr std::uint64_t kRects = 2'000'000;  // 64 MB
  header(report, "Table 1 — MPI file read access levels",
         "levels trade independence vs aggregation and contiguity vs views",
         util::formatBytes(kRects * 32) + " binary MBR file, 32 ranks / 2 nodes, Lustre model");
  const auto fill = [](std::uint64_t i, char* out) {
    const double vals[4] = {static_cast<double>(i), 0.0, static_cast<double>(i) + 1, 1.0};
    std::memcpy(out, vals, 32);
  };
  static const char* kPatterns[] = {"contiguous + independent", "contiguous + collective",
                                    "non-contiguous + independent", "non-contiguous + collective"};
  Table table(report, {"level", "pattern", "time", "bytes via model", "checksum"});
  std::vector<double> times, checksums, moved;
  for (const int level : {0, 1, 2, 3}) {
    auto volume = binaryVolume(bench::cometVolume(2, 1.0 / 16), "data.bin", kRects, 32, fill,
                               {1ull << 20, 32});
    double t = 0, checksum = 0;
    std::uint64_t modelBytes = 0;
    mpi::Runtime::run(32, sim::MachineModel::comet(2), [&](mpi::Comm& comm) {
      auto file = io::File::open(comm, *volume, "data.bin");
      const auto p = static_cast<std::uint64_t>(comm.size());
      const auto rank = static_cast<std::uint64_t>(comm.rank());
      const std::uint64_t perRank = kRects / p;
      std::vector<core::RectData> buf(perRank);
      if (level <= 1) {  // contiguous: rank r reads records [r*perRank, (r+1)*perRank)
        file.setView(rank * perRank * 32, mpi::Datatype::byte(), mpi::Datatype::byte());
      } else {  // non-contiguous: single records round-robin across ranks
        file.setView(rank * 32, core::mpiRect(), core::mpiRect().resized(0, p * 32));
      }
      const double dt = timedMax(comm, [&] {
        if (level == 0 || level == 2) {
          file.readAt(0, buf.data(), static_cast<int>(perRank), core::mpiRect());
        } else {
          file.readAtAll(0, buf.data(), static_cast<int>(perRank), core::mpiRect());
        }
      });
      double localSum = 0;
      for (const auto& r : buf) localSum += r.minX;
      const double globalSum = comm.allreduceSum(localSum);
      const std::uint64_t total = comm.allreduceSumU64(file.counters().bytesMoved);
      if (comm.rank() == 0) std::tie(t, modelBytes, checksum) = std::tuple(dt, total, globalSum);
    });
    table.row("level" + std::to_string(level),
              {"Level " + std::to_string(level), kPatterns[level], secs(t), bytes(modelBytes),
               fixed(checksum, 0)});
    times.push_back(t);
    checksums.push_back(checksum);
    moved.push_back(static_cast<double>(modelBytes));
  }
  table.print();
  std::printf("Identical checksums confirm every level delivered the same records.\n"
              "Level 2's data sieving reads the whole hull, hence the larger byte volume.\n\n");
  require(allEqual(checksums), "table1: the four levels' checksums differ");
  verdict(report,
          moved[2] == *std::max_element(moved.begin(), moved.end()) &&
              std::max(times[0], times[1]) < std::min(times[2], times[3]),
          "levels 0 → 3: " + chain(times) + "; sieving level 2 moves " +
              util::formatBytes(static_cast<std::uint64_t>(moved[2])));
}

// Table 2: every (operator, type) pair of the paper's table through a
// real allreduce: MIN and MAX over RECT, LINE and POINT, UNION over RECT.
void table2(obs::RunReport& report) {
  constexpr int kCount = 100'000;
  header(report, "Table 2 — Spatial datatypes and reduction operators",
         "MIN/MAX defined for RECT/LINE/POINT, UNION for RECT",
         std::to_string(kCount) + " elements per rank, 16 ranks");
  Table table(report, {"operator", "type", "allreduce time", "sample measure"});
  std::vector<double> samples;
  const auto runCase = [&](const char* opName, const char* typeName, const mpi::Op& op,
                           const mpi::Datatype& type, int doublesPerElem) {
    double t = 0, sample = 0;
    mpi::Runtime::run(16, [&](mpi::Comm& comm) {
      util::Rng rng(7 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<double> mine(static_cast<std::size_t>(kCount) * doublesPerElem);
      for (std::size_t i = 0; i < mine.size(); i += 2) {
        mine[i] = rng.uniform(-100, 100);
        if (i + 1 < mine.size()) mine[i + 1] = mine[i] + rng.uniform(0, 10);
      }
      std::vector<double> out(mine.size(), 0.0);
      const double dt =
          timedMax(comm, [&] { comm.allreduce(mine.data(), out.data(), kCount, type, op); });
      if (comm.rank() == 0) std::tie(t, sample) = std::pair(dt, out[0]);
    });
    table.row(slug(opName + 4) + "_" + slug(typeName + 4),  // "min_rect"
              {opName, typeName, secs(t), fixed(sample, 2)});
    samples.push_back(sample);
  };
  runCase("MPI_MIN", "MPI_RECT", core::spatialMin(), core::mpiRect(), 4);
  runCase("MPI_MIN", "MPI_LINE", core::spatialMin(), core::mpiLine(), 4);
  runCase("MPI_MIN", "MPI_POINT", core::spatialMin(), core::mpiPoint(), 2);
  runCase("MPI_MAX", "MPI_RECT", core::spatialMax(), core::mpiRect(), 4);
  runCase("MPI_MAX", "MPI_LINE", core::spatialMax(), core::mpiLine(), 4);
  runCase("MPI_MAX", "MPI_POINT", core::spatialMax(), core::mpiPoint(), 2);
  runCase("MPI_UNION", "MPI_RECT", core::rectUnion(), core::mpiRect(), 4);
  table.print();
  // Every sample is a rect's minX; the union's lies left of any one rect's.
  verdict(report, samples[6] <= std::min(samples[0], samples[3]),
          "all 7 pairs reduced; UNION minX " + ratio(samples[6]) + " vs MIN/MAX rect minX " +
              ratio(samples[0]) + "/" + ratio(samples[3]));
}

// Table 3: the dataset catalog with *sequential* I/O + parse time, the
// paper's motivation. The last column is the paper's full-file time.
void table3(obs::RunReport& report) {
  header(report, "Table 3 — Datasets and sequential I/O + parse time",
         "polygon data parses slower than line/point data of similar size",
         "scale 1/1000, single process");
  Table table(report,
              {"#", "dataset", "shape", "file", "records", "measured (scaled)", "paper (full)"});
  std::vector<double> seconds;
  for (const auto id : {osm::DatasetId::kCemetery, osm::DatasetId::kLakes, osm::DatasetId::kRoads,
                        osm::DatasetId::kAllObjects, osm::DatasetId::kRoadNetwork,
                        osm::DatasetId::kAllNodes}) {
    const ScaledDataset data(id, 1.0 / 1000.0, 256ull << 10);
    auto volume = bench::rogerVolume(1, 1.0);
    data.install(*volume, 17);
    double t = 0;
    std::uint64_t records = 0;
    mpi::Runtime::run(1, sim::MachineModel::roger(1), [&](mpi::Comm& comm) {
      auto file = io::File::open(comm, *volume, data.file);
      const double t0 = comm.clock().now();
      const auto part = core::readPartitioned(comm, file, readConfig(0, false));
      {
        mpi::CpuCharge charge(comm);
        core::WktParser().parseAll(part.text, [&](geom::Geometry&&) { ++records; });
      }
      t = comm.clock().now() - t0;
    });
    seconds.push_back(t);
    table.row(data.info.name, {std::to_string(seconds.size()), data.info.name, data.info.shape,
                               bytes(data.bytes), num(records), secs(t),
                               secs(data.info.paperSeqIoSeconds)});
  }
  table.print();
  // Rows 3, 4, 5: all_objects (polygons), road_network (lines), all_nodes (points).
  verdict(report, seconds[3] > std::max(seconds[4], seconds[5]),
          "all_objects " + util::formatSeconds(seconds[3]) + " vs road_network " +
              util::formatSeconds(seconds[4]) + " vs all_nodes " + util::formatSeconds(seconds[5]));
}

// ---- Figures 8–13: file reads and MPI datatypes ------------------------------

// Figure 8: Level-0 read bandwidth. The addendum counts allocations and
// payload copies of the per-Geometry and batch paths; batch is traced.
void fig08(obs::RunReport& report) {
  const ScaledDataset data(osm::DatasetId::kAllObjects, 1.0 / 128.0);
  header(report, "Figure 8 — Level 0 read bandwidth, All Objects (92 GB), 64 OSTs",
         "rises with nodes, ~22 GB/s peak around 48 nodes, slight dip at 72",
         "scale 1/128: file " + util::formatBytes(data.bytes) +
             ", stripe 64|128 MB -> scaled, 16 ranks/node");
  Table table(report, {"stripe(paper)", "nodes", "procs", "iters", {"read time", "read_seconds"},
                       "bandwidth"});
  bool shaped = true;
  std::string measured;
  for (const int mb : {64, 128}) {
    const std::uint64_t stripe = bench::scaledBytes(mb * 1024.0 * 1024.0, data.scale);
    std::vector<double> bw;
    for (const int nodes : {4, 8, 16, 32, 48, 64, 72}) {
      const ReadStats r = timedRead(data, nodes, 7, {stripe, 64}, readConfig(stripe, false));
      table.row("s" + std::to_string(mb) + "_n" + std::to_string(nodes),
                {std::to_string(mb) + " MB", std::to_string(nodes), std::to_string(nodes * 16),
                 num(r.iterations), secs(r.seconds), bandwidth(data.bytes, r.seconds)});
      bw.push_back(static_cast<double>(data.bytes) / r.seconds);
    }
    const auto peak = std::max_element(bw.begin(), bw.end()) - bw.begin();  // 32..64 nodes
    shaped = shaped && peak >= 3 && peak <= 5 && bw.back() < bw[peak];
    measured += std::to_string(mb) + " MB, 4 → 72 nodes " + chain(bw, util::formatBandwidth) + "; ";
  }
  table.print();
  verdict(report, shaped, measured);
  Table t2(report, {"pipeline", {"owned geoms", "owned"}, "time", {"allocs", "alloc_count"},
                    "alloc bytes", {"payload copied", "bytes_copied"}});
  for (int mode = 0; mode < 2; ++mode) {  // 0 = per-Geometry, 1 = batch
    auto volume = bench::cometVolume(2, data.scale);
    volume->createOrReplace("cmp.wkt", osm::makeVirtualWktFile(data.pool, 16ull << 20, 1ull << 20,
                                                               7, 96));
    double seconds = 0;
    std::uint64_t owned = 0;
    const bench::Counters c0 = bench::countersNow();
    mpi::Runtime::run(32, sim::MachineModel::comet(2), [&](mpi::Comm& comm) {
      bench::RankRecorder rec(mode == 1, 1);
      auto file = io::File::open(comm, *volume, "cmp.wkt");
      obs::traceBegin("read");
      const auto part = core::readPartitioned(comm, file, readConfig(0, false));
      obs::traceEnd("read");
      const core::WktParser parser;
      auto owner = [&](int cell) { return core::roundRobinOwner(cell, comm.size()); };
      comm.syncClocks();
      const double t0 = comm.clock().now();
      std::uint64_t mine = 0;
      std::vector<int> cells;
      if (mode == 0) {
        // Heap Geometry objects are staged into a batch record by record
        // (the per-record payload copy the batch path never makes) and
        // materialized back after the exchange.
        std::vector<geom::Geometry> geoms;
        {
          mpi::CpuCharge charge(comm);
          parser.parseAll(part.text, [&](geom::Geometry&& g) { geoms.push_back(std::move(g)); });
        }
        const auto grid = core::buildGlobalGrid(comm, geoms, 256);
        geom::GeometryBatch staged;
        {
          mpi::CpuCharge charge(comm);
          staged.reserve(geoms.size(), geoms.size() * 4, geoms.size() * 2, geoms.size() * 8);
          for (auto& g : geoms) {
            cells.clear();
            grid.overlappingCells(g.envelope(), cells);
            for (const int cell : cells) staged.append(g, cell);
          }
          geoms.clear();
          geoms.shrink_to_fit();
        }
        const auto result =
            core::exchangeByCell(comm, std::move(staged), owner, 1, grid.cellCount());
        std::vector<geom::Geometry> materialized;
        {
          mpi::CpuCharge charge(comm);
          materialized.reserve(result.size());
          for (std::size_t i = 0; i < result.size(); ++i) materialized.push_back(result.materialize(i));
        }
        mine = materialized.size();
      } else {
        geom::GeometryBatch batch;
        {
          obs::ScopedSpan span("parse");
          mpi::CpuCharge charge(comm);
          parser.parseAll(part.text, batch);
        }
        const auto grid = core::buildGlobalGrid(comm, batch.bounds(), 256);
        {
          obs::ScopedSpan span("partition");
          mpi::CpuCharge charge(comm);
          const std::size_t n = batch.size();
          for (std::size_t i = 0; i < n; ++i) {
            cells.clear();
            grid.overlappingCells(batch.envelope(i), cells);
            batch.setCell(i, cells.empty() ? geom::GeometryBatch::kNoCell : cells[0]);
            for (std::size_t k = 1; k < cells.size(); ++k) {
              batch.appendRecordFrom(batch, i, cells[k]);
            }
          }
        }
        obs::traceBegin("comm");
        mine = core::exchangeByCell(comm, std::move(batch), owner, 1, grid.cellCount()).size();
        obs::traceEnd("comm");
      }
      const double t1 = comm.allreduceMax(comm.clock().now());
      const std::uint64_t total = comm.allreduceSumU64(mine);
      rec.finish(comm);
      if (comm.rank() == 0) std::tie(seconds, owned) = std::pair(t1 - t0, total);
    });
    const bench::Counters d = bench::countersSince(c0);
    t2.row(mode == 0 ? "pergeom" : "batch",
           {mode == 0 ? "per-geometry" : "batch", num(owned), secs(seconds), num(d.allocs),
            bytes(d.allocBytes), bytes(d.bytesCopied)});
  }
  bench::printHeader(
      "Figure 8 addendum — parse→project→exchange, per-Geometry vs GeometryBatch",
      "batch path: fewer allocations, one payload-byte copy on the send side",
      "16 MB All Objects sample, 32 ranks, 256 cells, 1 exchange phase");
  t2.print();
}

// Figure 9: Level-0 read bandwidth for Roads (24 GB) over 16..96 OSTs at
// a fixed 32 MB stripe.
void fig09(obs::RunReport& report) {
  const ScaledDataset data(osm::DatasetId::kRoads, 1.0 / 64.0);
  const std::uint64_t stripe = bench::scaledBytes(32.0 * 1024 * 1024, data.scale);
  header(report, "Figure 9 — Level 0 read bandwidth, Roads (24 GB), stripe 32 MB",
         "bandwidth increases with OST count before saturating; 8-9 GB/s peak",
         "scale 1/64: file " + util::formatBytes(data.bytes) + ", 16 ranks/node");
  Table table(report, {"OSTs", "nodes", "procs", "read time", "bandwidth"});
  std::vector<double> at32;  // bandwidth at 32 nodes, where OSTs, not clients, bound it
  for (const int osts : {16, 32, 64, 96}) {
    for (const int nodes : {4, 8, 16, 32}) {
      const ReadStats r = timedRead(data, nodes, 11, {stripe, osts}, readConfig(stripe, false));
      table.row("o" + std::to_string(osts) + "_n" + std::to_string(nodes),
                {std::to_string(osts), std::to_string(nodes), std::to_string(nodes * 16),
                 secs(r.seconds), bandwidth(data.bytes, r.seconds)});
      if (nodes == 32) at32.push_back(static_cast<double>(data.bytes) / r.seconds);
    }
  }
  table.print();
  verdict(report, increasing(at32),
          "at 32 nodes, 16 → 96 OSTs: " + chain(at32, util::formatBandwidth));
}

// Figure 10: Algorithm 1 vs halo reads; then the message-based read through
// the streamed pipeline, whose round overlap is DESIGN.md §10's.
void fig10(obs::RunReport& report) {
  const ScaledDataset data(osm::DatasetId::kLakes, 1.0 / 32.0);
  const std::uint64_t block = bench::scaledBytes(32.0 * 1024 * 1024, data.scale);
  const std::uint64_t halo = bench::scaledBytes(11.0 * 1024 * 1024, data.scale);
  header(report, "Figure 10 — Message vs Overlap partitioning, Lakes (9 GB)",
         "message-based wins for every stripe count and process count",
         "scale 1/32: file " + util::formatBytes(data.bytes) + ", block 32 MB -> " +
             util::formatBytes(block) + ", halo 11 MB -> " + util::formatBytes(halo));
  Table table(report, {"OSTs", "procs", "message time", "overlap time", "overlap/message",
                       "redundant bytes"});
  std::vector<double> ratios;
  for (const int osts : {32, 64, 96}) {
    for (const int procs : {64, 128, 256}) {
      ReadStats r[2];
      for (int mode = 0; mode < 2; ++mode) {
        core::PartitionConfig cfg = readConfig(block, true);  // the paper's Level-1 section
        cfg.maxGeometryBytes = halo;
        cfg.strategy = mode == 0 ? core::BoundaryStrategy::kMessage
                                 : core::BoundaryStrategy::kOverlap;
        r[mode] = timedRead(data, procs / 16, 3, {block, osts}, cfg);
      }
      ratios.push_back(r[1].seconds / r[0].seconds);
      table.row("o" + std::to_string(osts) + "_p" + std::to_string(procs),
                {std::to_string(osts), std::to_string(procs), secs(r[0].seconds),
                 secs(r[1].seconds), fixed(ratios.back(), 2), bytes(r[1].bytesRead - data.bytes)});
    }
  }
  table.print();
  verdict(report, minOf(ratios) > 1.0, "overlap/message " + chain(ratios, ratio));
  const ScaledDataset pipeData(osm::DatasetId::kLakes, data.scale / 8.0);
  const std::uint64_t pipeBlock = bench::scaledBytes(32.0 * 1024 * 1024, pipeData.scale);
  std::printf("message-based partitioning through the streamed pipeline "
              "(64 procs, 32 OSTs, file %s):\n", util::formatBytes(pipeData.bytes).c_str());
  Table pipe(report, {"pipeline", "makespan", "read", "parse", "comm", "hidden", "speedup"});
  double base = 0;
  for (const auto& [label, key, threads, overlap] :
       {std::tuple("serial rounds", "serial", 1, false), std::tuple("t=4 workers", "t4", 4, false),
        std::tuple("t=4 + round overlap", "t4_overlap", 4, true)}) {
    auto volume = bench::cometVolume(4, pipeData.scale);
    pipeData.install(*volume, 3, {pipeBlock, 32});
    core::FrameworkConfig fw;
    fw.gridCells = 256;
    fw.stream.chunkBytes = pipeBlock;
    fw.threadsPerRank = threads;
    fw.stream.overlapRounds = overlap;
    const PhaseRun r = indexRun(*volume, pipeData.file, 64, sim::MachineModel::comet(4), fw);
    if (base == 0) base = r.makespan;
    const core::PhaseBreakdown& ph = r.phases;
    pipe.row(key, {label, secs(r.makespan), secs(ph.read), secs(ph.parse), secs(ph.comm),
                   secs(ph.overlapped), {ratio(base / r.makespan) + "x", base / r.makespan}});
  }
  pipe.print();
}

// Figure 11: Level-1 reads; ROMIO picks one reader per node only when the
// node count divides or is a multiple of the stripe count.
void fig11(obs::RunReport& report) {
  const ScaledDataset data(osm::DatasetId::kRoads, 1.0 / 64.0);
  const std::uint64_t stripe = bench::scaledBytes(16.0 * 1024 * 1024, data.scale);
  header(report, "Figure 11 — Level 1 collective read time, Roads (24 GB), stripe 16 MB",
         "dips when nodes is neither a multiple nor divisor of the stripe count "
         "(24/48 nodes vs 64 OSTs -> 16/32 readers)",
         "scale 1/64: file " + util::formatBytes(data.bytes) + ", 16 ranks/node");
  Table table(report, {"OSTs", "nodes", "procs", "readers", "read time", "bandwidth"});
  std::map<int, double> at64;  // nodes -> read time on 64 OSTs
  for (const int osts : {32, 64, 96}) {
    for (const int nodes : {8, 16, 24, 32, 48, 64}) {
      const ReadStats r = timedRead(data, nodes, 11, {stripe, osts}, readConfig(stripe, true));
      table.row("o" + std::to_string(osts) + "_n" + std::to_string(nodes),
                {std::to_string(osts), std::to_string(nodes), std::to_string(nodes * 16),
                 num(r.readers), secs(r.seconds), bandwidth(data.bytes, r.seconds)});
      if (osts == 64) at64[nodes] = r.seconds;
    }
  }
  table.print();
  std::printf("Compare with Figure 8/9: independent (Level 0) beats collective (Level 1) for this\n"
              "contiguous pattern — the paper's finding (2).\n\n");
  verdict(report, at64[24] > at64[16] && at64[48] > at64[32],
          "64 OSTs, 16 → 24 → 32 → 48 nodes " + chain({at64[16], at64[24], at64[32], at64[48]}));
}

// Figure 12: with the contiguous type, user code assembles the C structs:
// an extra pass, charged as measured CPU and counted as copied bytes.
void fig12(obs::RunReport& report) {
  constexpr std::uint64_t kRects = 4'000'000;  // 128 MB
  header(report, "Figure 12 — Binary MBR read: MPI_Type_struct vs MPI_Type_contiguous (GPFS)",
         "struct datatype is faster than contiguous + user-side struct assembly",
         "file: " + util::formatBytes(kRects * 32) + " (" + std::to_string(kRects) +
             " rectangles), Level 1, 20 ranks/node");
  const auto fill = [](std::uint64_t i, char* out) {
    const double x = static_cast<double>(i % 360) - 180.0, y = static_cast<double>(i % 170) - 85.0;
    const double vals[4] = {x, y, x + 0.5, y + 0.5};
    std::memcpy(out, vals, 32);
  };
  Table table(report, {"procs", "struct time", "contiguous time", "contig/struct",
                       "struct copied", "contig copied"});
  std::vector<double> ratios;
  for (const int procs : {20, 40, 80}) {
    double times[2] = {0, 0};
    std::uint64_t copied[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {  // 0 = struct, 1 = contiguous
      const bench::Counters c0 = bench::countersNow();
      auto volume =
          binaryVolume(bench::rogerVolume(procs / 20, 1.0), "rects.bin", kRects, 32, fill);
      mpi::Runtime::run(procs, sim::MachineModel::roger(procs / 20), [&](mpi::Comm& comm) {
        auto file = io::File::open(comm, *volume, "rects.bin");
        const std::uint64_t perRank = kRects / static_cast<std::uint64_t>(comm.size());
        file.setView(perRank * 32 * static_cast<std::uint64_t>(comm.rank()), mpi::Datatype::byte(),
                     mpi::Datatype::byte());
        const double t = timedMax(comm, [&] {
          std::vector<core::RectData> rects(perRank);
          if (mode == 0) {  // the datatype delivers RectData directly
            file.readAtAll(0, rects.data(), static_cast<int>(perRank), core::mpiRectStruct());
            return;
          }
          std::vector<double> raw(perRank * 4);
          file.readAtAll(0, raw.data(), static_cast<int>(perRank * 4), mpi::Datatype::float64());
          mpi::CpuCharge charge(comm);
          for (std::uint64_t i = 0; i < perRank; ++i) {
            rects[i] = {raw[i * 4], raw[i * 4 + 1], raw[i * 4 + 2], raw[i * 4 + 3]};
          }
          util::perf::addBytesCopied(perRank * 32);
        });
        if (comm.rank() == 0) times[mode] = t;
      });
      copied[mode] = bench::countersSince(c0).bytesCopied;
    }
    ratios.push_back(times[1] / times[0]);
    table.row("p" + std::to_string(procs),
              {std::to_string(procs), secs(times[0]), secs(times[1]), fixed(ratios.back(), 2),
               bytes(copied[0]), bytes(copied[1])});
  }
  table.print();
  verdict(report, minOf(ratios) > 1.0, "contig/struct at 20 → 80 procs: " + chain(ratios, ratio));
}

// Figure 13: the UNION operator the partitioner derives the grid with.
void fig13(obs::RunReport& report) {
  header(report, "Figure 13 — MPI_Reduce / MPI_Scan with geometric UNION (MPI_RECT)",
         "time grows with rectangle count; the reduction-tree cost model charges "
         "log2(P) levels of transfer + operator application",
         "40 ranks over ROGER-like nodes");
  Table table(report, {"rect count", "reduce time", "scan time", "result area"});
  std::vector<double> reduces, scans;
  for (const int count : {100'000, 200'000, 400'000}) {
    double reduceTime = 0, scanTime = 0, area = 0;
    mpi::Runtime::run(40, sim::MachineModel::roger(2), [&](mpi::Comm& comm) {
      util::Rng rng(1000 + static_cast<std::uint64_t>(comm.rank()));
      std::vector<core::RectData> mine(static_cast<std::size_t>(count));
      for (auto& r : mine) {
        const double x = rng.uniform(-170, 160), y = rng.uniform(-80, 70);
        r = {x, y, x + rng.uniform(0, 10), y + rng.uniform(0, 10)};
      }
      std::vector<core::RectData> out(mine.size(), core::RectData::unionIdentity());
      const double reduceT = timedMax(comm, [&] {
        comm.reduce(mine.data(), out.data(), count, core::mpiRect(), core::rectUnion(), 0);
      });
      const double scanT = timedMax(comm, [&] {
        comm.scan(mine.data(), out.data(), count, core::mpiRect(), core::rectUnion());
      });
      if (comm.rank() == 0) std::tie(reduceTime, scanTime) = std::pair(reduceT, scanT);
      // Inclusive scan on the last rank equals the full reduction.
      if (comm.rank() == comm.size() - 1) area = out[0].area();
    });
    table.row("n" + std::to_string(count),
              {std::to_string(count), secs(reduceTime), secs(scanTime), fixed(area, 1)});
    reduces.push_back(reduceTime);
    scans.push_back(scanTime);
  }
  table.print();
  verdict(report, increasing(reduces) && increasing(scans),
          "reduce " + chain(reduces) + ", scan " + chain(scans));
}

// ---- Figures 14–16: parsing and non-contiguous reads on GPFS -----------------

// Figure 14: parsing is real work, charged as measured CPU time.
void fig14(obs::RunReport& report) {
  header(report, "Figure 14 — I/O + parsing, All Nodes vs All Objects (GPFS, Level 1)",
         "All Objects slower than All Nodes (polygon parsing); scaling flattens near 80 procs",
         "scale 1/1000: ~96 MB point file vs ~92 MB mixed file, 20 ranks/node");
  Table table(report, {"dataset", "procs", "read time", "parse time", "total", "records"});
  std::vector<double> totals[2];
  for (const int d : {0, 1}) {
    const ScaledDataset data(d == 0 ? osm::DatasetId::kAllNodes : osm::DatasetId::kAllObjects,
                             1.0 / 1000.0);
    std::vector<std::uint64_t> counts;
    for (const int procs : {20, 40, 80, 160}) {
      auto volume = bench::rogerVolume(procs / 20, 1.0);
      data.install(*volume, 13);
      double readTime = 0, parseTime = 0;
      std::uint64_t records = 0;
      mpi::Runtime::run(procs, sim::MachineModel::roger(procs / 20), [&](mpi::Comm& comm) {
        auto file = io::File::open(comm, *volume, data.file);
        comm.syncClocks();
        const double t0 = comm.clock().now();
        const auto part = core::readPartitioned(comm, file, readConfig(0, true));
        const double tRead = comm.allreduceMax(comm.clock().now());
        std::uint64_t mine = 0;
        {
          mpi::CpuCharge charge(comm);
          core::WktParser().parseAll(part.text, [&](geom::Geometry&&) { ++mine; });
        }
        const double tParse = comm.allreduceMax(comm.clock().now());
        const std::uint64_t total = comm.allreduceSumU64(mine);
        if (comm.rank() == 0) {
          std::tie(readTime, parseTime, records) = std::tuple(tRead - t0, tParse - tRead, total);
        }
      });
      table.row(std::string(data.info.name) + "_p" + std::to_string(procs),
                {data.info.name, std::to_string(procs), secs(readTime), secs(parseTime),
                 secs(readTime + parseTime), num(records)});
      counts.push_back(records);
      totals[d].push_back(readTime + parseTime);
    }
    require(allEqual(counts), std::string("fig14: ") + data.info.name +
                                  " record count differs across process counts");
  }
  table.print();
  bool slower = true;
  for (std::size_t i = 0; i < totals[0].size(); ++i) slower = slower && totals[1][i] > totals[0][i];
  verdict(report, slower, "total at 20 → 160 procs: All Nodes " + chain(totals[0]) +
                              ", All Objects " + chain(totals[1]));
}

/// Figures 15–16: per process count, the contiguous baseline (one range a
/// rank) and one read per block size through `view(comm, file, block)`,
/// which sets a rank's round-robin view and returns its element count.
/// Returns, per process count, the baseline's seconds then each block's.
std::vector<std::vector<double>> blockSweep(
    obs::RunReport& report, const char* blockColumn, const char* path, std::uint64_t count,
    const mpi::Datatype& type, const std::function<void(std::uint64_t, char*)>& fill,
    const std::vector<std::uint64_t>& blocks,
    const std::function<std::uint64_t(mpi::Comm&, io::File&, std::uint64_t)>& view) {
  Table table(report, {"mode", blockColumn, "procs", "time", "bandwidth"});
  const std::uint64_t fileBytes = count * type.size();
  std::vector<std::vector<double>> out;
  for (const int procs : {20, 40}) {
    const std::string p = std::to_string(procs);
    const auto read = [&](const std::function<std::uint64_t(mpi::Comm&, io::File&)>& setView) {
      auto volume = bench::rogerVolume(procs / 20, 1.0);
      return viewRead(*binaryVolume(volume, path, count, type.size(), fill), path, procs, type,
                      setView);
    };
    const double contig = read([&](mpi::Comm& comm, io::File& file) {
      const std::uint64_t perRank = count / static_cast<std::uint64_t>(comm.size());
      file.setView(perRank * type.size() * static_cast<std::uint64_t>(comm.rank()),
                   mpi::Datatype::byte(), mpi::Datatype::byte());
      return perRank;
    }).first;
    table.row("contiguous_p" + p,
              {"contiguous", "-", p, secs(contig), bandwidth(fileBytes, contig)});
    out.push_back({contig});
    for (const std::uint64_t block : blocks) {
      const auto [t, n] =
          read([&](mpi::Comm& comm, io::File& file) { return view(comm, file, block); });
      table.row("noncontig_b" + std::to_string(block) + "_p" + p,
                {"non-contig", std::to_string(block), p, secs(t), bandwidth(n * type.size(), t)});
      out.back().push_back(t);
    }
  }
  table.print();
  return out;
}

// Figure 15: contiguous (Level 1) vs round-robin blocks of B MBRs (Level 3).
void fig15(obs::RunReport& report) {
  const std::uint64_t rects = static_cast<std::uint64_t>(10e9 / 32.0) / 32;  // scale 1/32
  header(report, "Figure 15 — Binary MBR file: contiguous vs non-contiguous access (GPFS)",
         "contiguous much faster; larger NC blocks perform better",
         "scale 1/32: " + util::formatBytes(rects * 32) + " (" + std::to_string(rects) + " MBRs)");
  const auto fill = [](std::uint64_t i, char* out) {
    const double x = static_cast<double>((i * 37) % 360) - 180.0;
    const double y = static_cast<double>((i * 17) % 170) - 85.0;
    const double vals[4] = {x, y, x + 1, y + 1};
    std::memcpy(out, vals, 32);
  };
  const auto times = blockSweep(
      report, "block (MBRs)", "mbr.bin", rects, core::mpiRect(), fill, {64, 512, 4096, 32768},
      [&](mpi::Comm& comm, io::File& file, std::uint64_t block) {
        // My block of B rects out of every P*B; whole rounds only, so
        // every rank reads the same count.
        const auto p = static_cast<std::uint64_t>(comm.size());
        const auto filetype = mpi::Datatype::contiguous(static_cast<int>(block), core::mpiRect())
                                  .resized(0, p * block * 32);
        file.setView(static_cast<std::uint64_t>(comm.rank()) * block * 32, core::mpiRect(),
                     filetype);
        return rects / (p * block) * block;
      });
  bool shaped = true;
  for (const auto& t : times) {
    shaped = shaped && t[0] < *std::min_element(t.begin() + 1, t.end()) && t.back() < t[1];
  }
  verdict(report, shaped, "contiguous, then B=64 → 32768: 20 procs " + chain(times[0]) +
                              "; 40 procs " + chain(times[1]));
}

// Figure 16: vertex-count and displacement arrays come first; each rank's
// round-robin blocks of polygons become an MPI_Type_indexed view.
void fig16(obs::RunReport& report) {
  constexpr std::uint64_t kPolygons = 200'000;
  util::Rng rng(99);  // power-law vertex counts, packed (x, y) doubles
  std::vector<int> vertexCount(kPolygons), displacement(kPolygons);  // in coordinates
  std::uint64_t coords = 0;
  for (std::uint64_t i = 0; i < kPolygons; ++i) {
    vertexCount[i] = static_cast<int>(rng.powerLaw(4, 512, 2.2));
    displacement[i] = static_cast<int>(coords);
    coords += static_cast<std::uint64_t>(vertexCount[i]);
  }
  header(report, "Figure 16 — Non-contiguous polygon reads with MPI_Type_indexed (GPFS)",
         "contiguous wins; NC is slow and very sensitive to block size / process count",
         util::formatBytes(coords * 16) + " packed coordinates, " + std::to_string(kPolygons) +
             " polygons, power-law vertex counts");
  const auto fill = [](std::uint64_t i, char* out) {
    const double vals[2] = {static_cast<double>(i % 360) - 180.0,
                            static_cast<double>(i % 170) - 85.0};
    std::memcpy(out, vals, 16);
  };
  const auto times = blockSweep(
      report, "block (polys)", "poly.bin", coords, core::mpiPoint(), fill, {32, 256, 2048},
      [&](mpi::Comm& comm, io::File& file, std::uint64_t block) {
        std::vector<int> lens, disps;
        std::uint64_t mine = 0;
        const auto stride = static_cast<std::uint64_t>(comm.size()) * block;
        for (auto first = static_cast<std::uint64_t>(comm.rank()) * block; first < kPolygons;
             first += stride) {
          for (std::uint64_t g = first; g < std::min(first + block, kPolygons); ++g) {
            lens.push_back(vertexCount[g]);
            disps.push_back(displacement[g]);
            mine += static_cast<std::uint64_t>(vertexCount[g]);
          }
        }
        file.setView(0, core::mpiPoint(), mpi::Datatype::indexed(lens, disps, core::mpiPoint()));
        return mine;
      });
  bool wins = true;
  for (const auto& t : times) wins = wins && t[0] < *std::min_element(t.begin() + 1, t.end());
  verdict(report, wins, "contiguous, then B=32 → 2048: 20 procs " + chain(times[0]) +
                            "; 40 procs " + chain(times[1]));
}

// ---- Figures 17–20: the framework's join and indexing breakdowns -------------

// Figure 17: each phase is its max across processes, so the total is
// less than the sum.
void fig17(obs::RunReport& report) {
  header(report, "Figure 17 — Join breakdown vs grid cells (Lakes x Cemetery, 80 procs)",
         "total decreases as grid cells increase; phases shift with the mapping",
         "synthetic lakes (12000 dense polygons) x cemetery (6000), ROGER model");
  auto volume = bench::rogerVolume(4, 1.0);
  installText(*volume, "lakes.wkt", clustered(osm::DatasetId::kLakes, 5, 100, 6, 3, 1.2, 48, 768),
              12000);
  installText(*volume, "cemetery.wkt", clustered(osm::DatasetId::kCemetery, 6, 100, 6, 3, 1.0),
              6000);
  Table table(report, {"cells", "partition", "comm", "join", "total", "pairs"});
  std::vector<double> totals;
  std::vector<std::uint64_t> pairs;
  for (const int cells : {64, 256, 1024, 4096}) {
    const PhaseRun r = joinRun(*volume, "lakes.wkt", "cemetery.wkt", 80, cells);
    table.row("c" + std::to_string(cells),
              {std::to_string(cells), secs(r.phases.partition), secs(r.phases.comm),
               secs(r.phases.compute), secs(r.phases.total()), num(r.results)});
    totals.push_back(r.phases.total());
    pairs.push_back(r.results);
  }
  table.print();
  require(allEqual(pairs), "fig17: pairs differ across grid cell counts");
  verdict(report, decreasing(totals), "total at 64 → 4096 cells: " + chain(totals));
}

// Figure 18: vertex-dense lakes make the exact refine the dominant phase.
void fig18(obs::RunReport& report) {
  header(report, "Figure 18 — Join breakdown vs processes (Lakes x Cemetery)",
         "join time dominates and decreases with more processes",
         "synthetic lakes (10000, vertex-dense) x cemetery (6000), 1024 cells");
  auto volume = bench::rogerVolume(8, 1.0);
  installText(*volume, "lakes.wkt",
              clustered(osm::DatasetId::kLakes, 21, 60, 8, 6, 2.5, 96, 2048), 10000);
  installText(*volume, "cemetery.wkt",
              clustered(osm::DatasetId::kCemetery, 22, 60, 8, 6, 2.0, 48), 6000);
  const PhaseSeries cols = breakdownSweep(report, "join", "pairs", {20, 40, 80, 160}, [&](int p) {
    return joinRun(*volume, "lakes.wkt", "cemetery.wkt", p, 1024);
  });
  verdict(report, dominates(cols, kCompute) && decreasing(cols[kCompute]),
          "20 → 160 procs: join " + chain(cols[kCompute]) + ", comm " + chain(cols[kComm]));
}

// Figure 19: many small geometries, so the exchange outweighs the join.
void fig19(obs::RunReport& report) {
  header(report, "Figure 19 — Join breakdown vs processes (Roads x Cemetery)",
         "communication dominates the execution time",
         "synthetic roads (40000 small polygons) x cemetery (2000), 1024 cells");
  auto volume = bench::rogerVolume(8, 1.0);
  installText(*volume, "roads.wkt",
              clustered(osm::DatasetId::kRoads, 31, 200, 48, 20, 0.3, 4, 16), 40000);
  installText(*volume, "cemetery.wkt",
              clustered(osm::DatasetId::kCemetery, 32, 200, 48, 20, 0.4), 2000);
  const PhaseSeries cols = breakdownSweep(report, "join", "pairs", {20, 40, 80, 160}, [&](int p) {
    return joinRun(*volume, "roads.wkt", "cemetery.wkt", p, 1024);
  });
  verdict(report, dominates(cols, kComm),
          "20 → 160 procs: comm " + chain(cols[kComm]) + ", read+parse " + chain(cols[kReadParse]));
}

// Figure 20: distributed in-memory indexing among 2048 grid cells.
void fig20(obs::RunReport& report) {
  header(report, "Figure 20 — Distributed indexing breakdown (Road Network, 2048 cells)",
         "all phases improve with process count (paper: 717M edges in 90 s at 320 procs)",
         "synthetic road network, 150000 polylines");
  osm::SynthSpec spec = osm::datasetSpec(osm::DatasetId::kRoadNetwork, 41);
  spec.space.world = geom::Envelope(0, 0, 300, 300);
  auto volume = bench::rogerVolume(16, 1.0);
  installText(*volume, "road_network.wkt", spec, 150'000);
  core::FrameworkConfig fw;
  fw.gridCells = 2048;
  fw.stream = paperStream();
  const PhaseSeries cols =
      breakdownSweep(report, "index", "indexed", {80, 160, 240, 320}, [&](int p) {
        return indexRun(*volume, "road_network.wkt", p, sim::MachineModel::roger(p / 20), fw);
      });
  verdict(report, std::all_of(cols.begin(), cols.end(), decreasing),
          "80 → 320 procs: read+parse " + chain(cols[kReadParse]) + "; partition " +
              chain(cols[kPartition]) + "; comm " + chain(cols[kComm]) + "; index " +
              chain(cols[kCompute]));
}

// ---- Ablations ---------------------------------------------------------------

// The cb_nodes hint forces the collective-buffering reader count.
void ablationAggregators(obs::RunReport& report) {
  const ScaledDataset data(osm::DatasetId::kLakes, 1.0 / 64.0);
  const std::uint64_t stripe = bench::scaledBytes(32.0 * 1024 * 1024, data.scale);
  header(report, "Ablation — cb_nodes aggregator hint (Level 1)",
         "collective read time falls as readers grow toward the node count",
         util::formatBytes(data.bytes) + " lakes file, 8 nodes, 64 OSTs");
  Table table(report, {"cb_nodes hint", "readers", "read time", "bandwidth"});
  std::vector<double> forced;
  for (const int hint : {1, 2, 4, 8, 0}) {  // 0 = ROMIO rule
    io::Hints hints;
    hints.cbNodes = hint;
    const ReadStats r = timedRead(data, 8, 3, {stripe, 64}, readConfig(stripe, true), hints);
    table.row(hint == 0 ? "auto" : "h" + std::to_string(hint),
              {hint == 0 ? "auto (ROMIO rule)" : std::to_string(hint), num(r.readers),
               secs(r.seconds), bandwidth(data.bytes, r.seconds)});
    if (hint != 0) forced.push_back(r.seconds);
  }
  table.print();
  verdict(report, decreasing(forced), "read time at cb_nodes 1 → 8: " + chain(forced));
}

// Block-size granularity of the Level-0 read (§5.1.1).
void ablationBlocksize(obs::RunReport& report) {
  const ScaledDataset data(osm::DatasetId::kRoads, 1.0 / 64.0);
  header(report, "Ablation — block size vs iterations, fragments and bandwidth (Level 0)",
         "fewer iterations with larger blocks; bandwidth saturates once blocks are big",
         util::formatBytes(data.bytes) + " roads file, 128 procs");
  Table table(report, {"block", "iterations", "fragments", "fragment bytes", "time", "bandwidth"});
  std::vector<double> iters, bw;
  for (const std::uint64_t kib : {128, 256, 512, 1024, 2048}) {
    const std::uint64_t block = kib << 10;
    const ReadStats r = timedRead(data, 8, 11, {block, 64}, readConfig(block, false));
    table.row("b" + std::to_string(kib) + "k",
              {util::formatBytes(block), num(r.iterations), num(r.fragments),
               bytes(r.fragmentBytes), secs(r.seconds), bandwidth(data.bytes, r.seconds)});
    iters.push_back(static_cast<double>(r.iterations));
    bw.push_back(static_cast<double>(data.bytes) / r.seconds);
  }
  table.print();
  verdict(report, decreasing(iters) && bw.back() >= bw.front(),
          "iterations " + chain(iters, [](double v) { return util::formatFixed(v, 0); }) +
              "; bandwidth " + chain(bw, util::formatBandwidth));
}

// Figure 5's point, on Hilbert-sorted (§4.1) skewed data: each rank's
// share of join candidates and its spatial footprint.
void ablationDecluster(obs::RunReport& report) {
  constexpr int kRanks = 16;
  constexpr std::uint64_t kRecords = 40'000;
  header(report, "Ablation (Figure 5) — contiguous vs round-robin partitioning of sorted data",
         "contiguous partitioning of spatially sorted, skewed data is coarse and "
         "unbalanced; round-robin declusters and balances",
         std::to_string(kRecords) + " clustered geometries, Hilbert-sorted, " +
             std::to_string(kRanks) + " partitions");
  const osm::SynthSpec spec = clustered(osm::DatasetId::kCemetery, 77, 100, 5, 4.0);
  const osm::RecordGenerator gen(spec);
  std::vector<std::pair<std::uint64_t, geom::Envelope>> items;  // (Hilbert key, box)
  const geom::CurveGrid curve{spec.space.world, 14};
  for (std::uint64_t i = 0; i < kRecords; ++i) {
    const auto g = gen.geometry(i);
    items.emplace_back(curve.hilbertKeyOf(geom::centroid(g)), g.envelope());
  }
  std::sort(items.begin(), items.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  util::Rng rng(5);  // a fixed batch of skewed queries stands in for the refine
  std::vector<geom::Envelope> queries;
  for (int q = 0; q < 400; ++q) {
    queries.push_back(items[rng.below(items.size())].second);
    queries.back().expandBy(1.0);
  }
  // (max/mean refine load, mean footprint area) under one rank mapping.
  const auto measure = [&](const std::function<int(std::size_t)>& rankOf) {
    std::vector<double> work(kRanks, 0);
    std::vector<geom::Envelope> footprint(kRanks);
    for (std::size_t i = 0; i < items.size(); ++i) {
      const auto r = static_cast<std::size_t>(rankOf(i));
      footprint[r].expandToInclude(items[i].second);
      for (const auto& q : queries) work[r] += items[i].second.intersects(q) ? 1 : 0;
    }
    const double total = std::accumulate(work.begin(), work.end(), 0.0);
    double area = 0;
    for (const auto& e : footprint) area += e.area();
    const double peak = *std::max_element(work.begin(), work.end());
    return std::pair(total > 0 ? peak * kRanks / total : 0.0, area / kRanks);
  };
  const std::size_t chunk = (items.size() + kRanks - 1) / kRanks;
  const auto contig = measure([&](std::size_t i) { return static_cast<int>(i / chunk); });
  const auto rr = measure([&](std::size_t i) { return static_cast<int>(i % kRanks); });
  Table table(report, {"partitioning", "max/mean refine load", "avg rank footprint area"});
  table.row("contiguous",
            {"contiguous (Figure 5a)", fixed(contig.first, 2), fixed(contig.second, 1)});
  table.row("round_robin", {"round-robin (Figure 5b)", fixed(rr.first, 2), fixed(rr.second, 1)});
  table.print();
  std::printf("Contiguous partitions are spatially coarse (small footprints) but load-skewed;\n"
              "round-robin declusters every partition across the whole extent and flattens the\n"
              "max/mean ratio toward 1.0 — the paper's Figure 5 observation.\n\n");
  verdict(report, rr.first < contig.first && contig.second < rr.second,
          "max/mean load, contiguous → round-robin: " + chain({contig.first, rr.first}, ratio));
}

// The two cell-lookup engines (core/grid.hpp): timing on random boxes,
// and reference cells missed on boxes whose corners sit on computed cell
// edges.
void ablationLocator(obs::RunReport& report) {
  constexpr int kGeoms = 200'000;
  constexpr int kEdgeBoxes = 200'000;
  header(report, "Ablation — cell locator: R-tree of cell boundaries vs arithmetic",
         "the paper uses the R-tree; uniform grids admit O(1) arithmetic",
         std::to_string(kGeoms) + " random envelopes projected onto grids of varying size, plus " +
             std::to_string(kEdgeBoxes) + " with corners on computed cell edges (±1 ulp)");
  util::Rng rng(3);
  std::vector<geom::Envelope> boxes;
  for (int i = 0; i < kGeoms; ++i) {
    const double x = rng.uniform(-180, 179), y = rng.uniform(-85, 84);
    boxes.emplace_back(x, y, x + rng.uniform(0.01, 2.0), y + rng.uniform(0.01, 2.0));
  }
  Table table(report, {"grid cells", "rtree time", "arithmetic time", "speedup", "cells touched",
                       "rtree missed ref", "arithmetic missed ref"});
  std::vector<double> speedups;
  std::vector<double> rtreeMissed;
  for (const int cells : {256, 1024, 4096, 16384}) {
    const geom::Envelope bounds(-180, -85, 180, 85);
    const core::GridSpec grid = core::GridSpec::squarish(bounds, cells);
    const core::CellLocator locator(grid);
    const auto project = [&](const auto& engine) {  // (host seconds, cells touched)
      std::vector<int> out;
      std::uint64_t touched = 0;
      const sim::WallTimer wall;
      for (const auto& b : boxes) {
        out.clear();
        engine.overlappingCells(b, out);
        touched += out.size();
      }
      return std::pair(wall.elapsed(), touched);
    };
    const auto [rtreeTime, touchedRtree] = project(locator);
    const auto [arithTime, touchedArith] = project(grid);
    require(touchedRtree == touchedArith, "ablation_locator: the engines touch different cell "
                                          "counts at " + std::to_string(cells) + " cells");

    // Duplicate avoidance reports a pair only in cellOfPoint(reference
    // point); an engine that leaves that cell out of a box's projection
    // loses the box's pairs there. Corners on a random cell's edges
    // (cellEnvelope: minX + k·cellW), nudged by -1/0/+1 ulp and kept
    // inside the bounds.
    const auto onEdge = [&](double edge, double lo, double hi) {
      const int nudge = static_cast<int>(rng.below(3)) - 1;
      const double v = nudge == 0 ? edge : std::nextafter(edge, nudge * HUGE_VAL);
      return std::clamp(v, lo, hi);
    };
    std::uint64_t missedRtree = 0, missedArith = 0;
    std::vector<int> out;
    const auto misses = [&](const auto& engine, const geom::Envelope& box, int ref) {
      out.clear();
      engine.overlappingCells(box, out);
      return std::find(out.begin(), out.end(), ref) == out.end();
    };
    for (int i = 0; i < kEdgeBoxes; ++i) {
      const geom::Envelope cell = grid.cellEnvelope(
          static_cast<int>(rng.below(static_cast<std::uint64_t>(grid.cellCount()))));
      const double x = onEdge(rng.below(2) == 0 ? cell.minX() : cell.maxX(), bounds.minX(),
                              bounds.maxX());
      const double y = onEdge(rng.below(2) == 0 ? cell.minY() : cell.maxY(), bounds.minY(),
                              bounds.maxY());
      const geom::Envelope box(x, y, std::min(bounds.maxX(), x + rng.uniform(0, cell.width())),
                               std::min(bounds.maxY(), y + rng.uniform(0, cell.height())));
      const int ref = grid.cellOfPoint({x, y});
      missedRtree += misses(locator, box, ref) ? 1 : 0;
      missedArith += misses(grid, box, ref) ? 1 : 0;
    }
    require(missedArith == 0, "ablation_locator: the arithmetic engine missed " +
                                  std::to_string(missedArith) + " reference cells at " +
                                  std::to_string(cells) + " cells");
    speedups.push_back(rtreeTime / arithTime);
    rtreeMissed.push_back(static_cast<double>(missedRtree));
    table.row("c" + std::to_string(grid.cellCount()),
              {std::to_string(grid.cellCount()), secs(rtreeTime), secs(arithTime),
               fixed(speedups.back(), 1), num(touchedArith), num(missedRtree), num(missedArith)});
  }
  table.print();
  std::printf("Boxes with corners on computed cell edges: the R-tree of cellEnvelope rectangles\n"
              "can leave out the cell cellOfPoint (duplicate avoidance) names, so a pipeline\n"
              "projecting through it loses pairs; the arithmetic shares cellOfPoint's floor and\n"
              "never does. The pipeline projects through the arithmetic.\n\n");
  verdict(report, minOf(speedups) > 1.0,
          "R-tree/arithmetic time " + chain(speedups, ratio) + "; R-tree missed reference cells " +
              chain(rtreeMissed, [](double v) { return util::formatFixed(v, 0); }));
}

// Sliding-window exchange phases (§4.2.3 "Handling large data exchange").
void ablationWindow(obs::RunReport& report) {
  constexpr int kCells = 512;
  constexpr int kGeomsPerRank = 4000;
  header(report, "Ablation — sliding-window exchange phases",
         "peak buffer shrinks with phases; comm time grows mildly (extra rounds)",
         "40 ranks, " + std::to_string(kGeomsPerRank) + " geometries each, " +
             std::to_string(kCells) + " cells");
  Table table(report,
              {"phases", "comm time", "bytes sent (rank 0)", "peak phase bytes", "received"});
  std::vector<double> peaks;
  std::vector<std::uint64_t> receivedAt;
  for (const int phases : {1, 2, 4, 8, 16}) {
    double t = 0;
    std::uint64_t sent = 0, peak = 0, received = 0;
    mpi::Runtime::run(40, sim::MachineModel::roger(2), [&](mpi::Comm& comm) {
      util::Rng rng(500 + static_cast<std::uint64_t>(comm.rank()));
      geom::GeometryBatch outgoing;
      outgoing.reserve(kGeomsPerRank, kGeomsPerRank * 5, kGeomsPerRank * 2, kGeomsPerRank * 8);
      for (int i = 0; i < kGeomsPerRank; ++i) {
        const int cell = static_cast<int>(rng.below(kCells));
        const double x = rng.uniform(0, 100), y = rng.uniform(0, 100);
        outgoing.append(geom::Geometry::box(geom::Envelope(x, y, x + 1, y + 1)), cell);
      }
      core::ExchangeStats stats;
      geom::GeometryBatch mine;
      const auto owner = [&](int cell) { return core::roundRobinOwner(cell, comm.size()); };
      const double dt = timedMax(comm, [&] {
        mine = core::exchangeByCell(comm, std::move(outgoing), owner, phases, kCells, &stats);
      });
      const std::uint64_t rcv = comm.allreduceSumU64(mine.size());
      if (comm.rank() == 0) {
        std::tie(t, sent, received) = std::tuple(dt, stats.bytesSent, rcv);
        peak = stats.phases > 0 ? stats.bytesSent / stats.phases : 0;
      }
    });
    table.row("ph" + std::to_string(phases),
              {std::to_string(phases), secs(t), bytes(sent), bytes(peak), num(received)});
    peaks.push_back(static_cast<double>(peak));
    receivedAt.push_back(received);
  }
  table.print();
  require(allEqual(receivedAt), "ablation_window: received differs across phase counts");
  const auto asBytes = [](double v) { return util::formatBytes(static_cast<std::uint64_t>(v)); };
  verdict(report, decreasing(peaks), "peak phase bytes, 1 → 16 phases: " + chain(peaks, asBytes));
}

// The one figure list, in run order; `--list` prints it.
using FigureFn = void (*)(obs::RunReport&);
constexpr std::pair<const char*, FigureFn> kFigures[] = {
    {"table1", table1}, {"table2", table2}, {"table3", table3}, {"fig08", fig08},
    {"fig09", fig09},   {"fig10", fig10},   {"fig11", fig11},   {"fig12", fig12},
    {"fig13", fig13},   {"fig14", fig14},   {"fig15", fig15},   {"fig16", fig16},
    {"fig17", fig17},   {"fig18", fig18},   {"fig19", fig19},   {"fig20", fig20},
    {"ablation_aggregators", ablationAggregators}, {"ablation_blocksize", ablationBlocksize},
    {"ablation_decluster", ablationDecluster},     {"ablation_locator", ablationLocator},
    {"ablation_window", ablationWindow}};

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::pair<const char*, FigureFn>> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      for (const auto& figure : kFigures) std::printf("%s\n", figure.first);
      return 0;
    }
    const auto* it = std::find_if(std::begin(kFigures), std::end(kFigures),
                                  [&](const auto& figure) { return arg == figure.first; });
    if (it == std::end(kFigures)) {
      std::fprintf(stderr, "bench_paper: unknown figure '%s' (see --list)\n", arg.c_str());
      return 2;
    }
    selected.push_back(*it);
  }
  if (selected.empty()) selected.assign(std::begin(kFigures), std::end(kFigures));
  if (selected.size() > 1 && std::getenv("MVIO_REPORT_OUT") != nullptr) {
    std::fprintf(stderr, "bench_paper: MVIO_REPORT_OUT holds one report; name one figure\n");
    return 2;
  }
  for (const auto& [name, run] : selected) {
    obs::RunReport report;
    report.name = name;
    run(report);
    bench::maybeWriteReport(report);
  }
  if (gViolations > 0) std::fprintf(stderr, "bench_paper: %d invariant(s) violated\n", gViolations);
  return gViolations > 0 ? 1 : 0;
}
