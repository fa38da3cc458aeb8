// End-to-end benchmark harness (README.md next to this file). One process
// runs one workload through the library's public entry points at a fixed
// scale:
//
//   join_wkt        spatialJoin, one-shot WKT, 4 ranks x 1 thread
//   overlay_stream  gridCoverageOverlay over WKB streamed in 512 KiB chunks
//                   under a 4 MiB memory budget, 2 ranks x 2 threads
//   index_skew      buildDistributedIndex + queryCount + batchRangeQuery on
//                   three-cluster polygons, quadtree map + LPT rebalancing
//   join_recover    streamed WKT spatialJoin with checkpoints, compaction
//                   and rank 1 killed after data round 5
//
// Run shape: set-up — generate the inputs from --seed, install them on a
// COMET volume, run one untimed warm-up rep — three times; then timed
// reps for --seconds (at least nine), each on a fresh volume; then the
// peak-RSS reading and the ground-truth checks of every rep. --trace-dir
// adds three traced reps (one Chrome/Perfetto trace each), a 1-rank rep
// and single-threaded layer probes. Everything is measured from outside the library: the
// stats structs the entry points return, the flight recorder, and host
// timers around direct calls into each layer.
//
// The process prints one "started <kind> <k>" line on stdout as each rep
// begins, so e2e.py knows how many reps were lost when it kills a hung
// process, and the raw samples as one JSON line at the end; e2e.py turns
// them into metrics. Progress goes to stderr.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/vector_io.hpp"
#include "geom/batch_shard.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "osm/datasets.hpp"
#include "osm/synth.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace mvio;

constexpr std::uint64_t kMiB = 1ull << 20;
constexpr int kGridCells = 1024;
constexpr int kSetups = 3;        ///< set-ups per process; setup_s is their median
constexpr int kMinTimedReps = 9;  ///< floor when --seconds is short
constexpr int kTracedReps = 3;
/// Lane ring size for traced reps: large enough that no event drops at
/// these input sizes (obs.dropped_events reports it).
constexpr std::size_t kTraceLaneEvents = 1 << 16;
/// Records of the first layer the layer probes run on (~8 MB of WKT).
constexpr std::uint64_t kProbeRecords = 30'000;
constexpr std::uint64_t kProbeQueries = 2'000;

double hostSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile, the definition obs::Histogram uses.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

std::uint64_t scaled(std::uint64_t n, double scale) {
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(std::llround(static_cast<double>(n) * scale)));
}

/// The machine and volume every workload runs on: COMET, 2 nodes, with the
/// Lustre request latency scaled by 0.05 so modelled reads stay a minority
/// of the makespan at these input sizes.
sim::MachineModel machine() { return sim::MachineModel::comet(2); }

std::shared_ptr<pfs::Volume> cometVolume() {
  pfs::LustreParams p;
  p.nodes = 2;
  p.ostLatency = 1.0e-3 * 0.05;
  return std::make_shared<pfs::Volume>(std::make_shared<pfs::LustreModel>(p));
}

template <typename Fn>
void forEachLine(std::string_view text, Fn&& fn) {
  std::size_t at = 0;
  while (at < text.size()) {
    std::size_t end = text.find('\n', at);
    if (end == std::string_view::npos) end = text.size();
    if (end > at) fn(text.substr(at, end - at));
    at = end + 1;
  }
}

/// The geometry of one "<wkt>\t<attributes>" input line, parsed by the
/// Geometry reader (not the pipeline's arena parser).
geom::Geometry readWktLine(std::string_view line) {
  return geom::readWkt(line.substr(0, line.find('\t')));
}

/// `count` distinct indices in [0, n), ascending, from `seed`.
std::vector<std::uint64_t> sampleIndices(std::uint64_t n, std::uint64_t count, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> out;
  count = std::min(count, n);
  while (out.size() < count) {
    const std::uint64_t i = rng.below(n);
    if (std::find(out.begin(), out.end(), i) == out.end()) out.push_back(i);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- One rep -------------------------------------------------------------

/// What one rank reports for one rep, read from the stats structs the
/// entry points return (and, on traced reps, from its flight recorder).
struct RankSample {
  bool died = false;
  double clock = 0;    ///< virtual seconds at the end of the workload
  double hostEnd = 0;  ///< host seconds when the rank finished the workload
  /// One breakdown per pipeline the workload ran (index_skew runs two).
  std::vector<core::PhaseBreakdown> phases;
  core::GridSpec grid;
  std::uint64_t ownedBefore = 0, ownedAfter = 0;  ///< post-exchange records around rebalancing
  std::uint64_t candidates = 0, pairs = 0;        ///< global join filter/refine counts
  std::vector<std::uint64_t> queryCounts;         ///< index_skew: local queryCount per query
  std::vector<double> queryLatency;               ///< index_skew: host seconds per query
  obs::MetricsRegistry::Snapshot metrics;         ///< traced reps only
};

struct Rep {
  std::vector<RankSample> ranks;
  double wall = 0;  ///< host seconds from launch until the last rank finished
  double cpu = 0;   ///< host process CPU seconds, all threads
  std::string error;
  // Workload results the checks compare.
  std::vector<core::JoinPair> samplePairs;  ///< pairs of the sampled S records, sorted
  std::uint64_t pairCount = 0, pairDigest = 0;
  double totalR = 0, totalS = 0;
  std::uint64_t rasterDigest = 0;
  std::vector<std::uint64_t> queryCounts, batchCounts;  ///< summed over ranks / batchRangeQuery
  std::vector<double> queryLatency;                     ///< max over ranks

  [[nodiscard]] double makespan() const {
    double m = 0;
    for (const RankSample& r : ranks) {
      if (!r.died) m = std::max(m, r.clock);
    }
    return m;
  }
};

struct RepMode {
  int ranks = 0;
  std::string tracePath;     ///< non-empty: record spans and write a Chrome trace here
  bool failureFree = false;  ///< drop injected failures
};

/// Launch `ranks` rank threads running `body`, timing the rep from the
/// host. No obs::Session is installed on untraced reps, so they run the
/// library's default (recorder-free) path. Results are gathered host-side
/// through `rep`, never with a collective: after an injected failure the
/// dead rank has left the pipeline's communicators.
template <typename Body>
void runRanks(const RepMode& mode, int threads, Rep& rep, Body&& body) {
  rep.ranks.assign(static_cast<std::size_t>(mode.ranks), RankSample{});
  const double cpu0 = processCpuSeconds();
  const double wall0 = hostSeconds();
  mpi::Runtime::run(mode.ranks, machine(), [&](mpi::Comm& comm) {
    RankSample& me = rep.ranks[static_cast<std::size_t>(comm.rank())];
    std::optional<obs::Session> session;
    if (!mode.tracePath.empty()) session.emplace(obs::TraceConfig::on(kTraceLaneEvents), threads);
    body(comm, me);
    me.hostEnd = hostSeconds();
    if (session) {
      me.metrics = session->metrics().snapshot();
      // Every rank thread, the killed one included, reaches this point,
      // so the gather on the launch communicator completes.
      obs::writeChromeTrace(comm, mode.tracePath);
    }
  });
  rep.cpu = processCpuSeconds() - cpu0;
  double end = wall0;
  for (const RankSample& r : rep.ranks) end = std::max(end, r.hostEnd);
  rep.wall = end - wall0;
}

// ---- Workloads -----------------------------------------------------------

/// First record index a layer's inputs start at. --seed moves only this
/// index: each seed draws a fresh sample of records from a distribution
/// (cluster layout, shapes) the workload fixes, so input size and skew do
/// not depend on the seed. Any seed is accepted; it picks one of
/// kSeedBlocks blocks of 1M indices (layer 1 starts half-way in), so seeds
/// that differ modulo kSeedBlocks give disjoint inputs. Every index has 13
/// digits, which keeps the records' "id=" attribute the same width too.
std::uint64_t firstRecord(std::uint64_t seed, int layer) {
  constexpr std::uint64_t kSeedBlocks = 8'000'000;
  return 1'000'000'000'000ull + (seed % kSeedBlocks) * 1'000'000ull +
         static_cast<std::uint64_t>(layer) * 500'000ull;
}

/// One input layer: `count` consecutive records of `gen` from `first` on.
struct Layer {
  osm::RecordGenerator gen;
  std::uint64_t first = 0;
  std::uint64_t count = 0;

  /// The k-th record's WKT line, exactly as wkt() writes it.
  [[nodiscard]] std::string record(std::uint64_t k) const { return gen.record(first + k); }

  /// Newline-terminated WKT lines (osm::generateWktText's format).
  [[nodiscard]] std::string wkt() const {
    std::string out;
    for (std::uint64_t k = 0; k < count; ++k) {
      out += record(k);
      out += '\n';
    }
    return out;
  }

  /// Framed WKB records built from the printed WKT, as
  /// osm::generateWkbText builds them, so both encodings carry the same
  /// doubles.
  [[nodiscard]] std::string wkb() const {
    std::string out;
    for (std::uint64_t k = 0; k < count; ++k) {
      const std::string line = record(k);
      const std::size_t tab = line.find('\t');
      const std::string_view attrs =
          tab == std::string::npos ? std::string_view() : std::string_view(line).substr(tab + 1);
      core::appendWkbRecord(readWktLine(line), attrs, out);
    }
    return out;
  }
};

/// Query rectangles centred on seeded records of `layer` (so they follow
/// the data's skew), half-widths uniform in [0.005, 0.05] degrees. Corners
/// sit on a 1e-6 lattice: batchRangeQuery ships its queries as 6-decimal
/// text, and only lattice values survive that round trip unchanged, so
/// both query paths see the same boxes.
std::vector<geom::Envelope> makeQueries(const Layer& layer, std::uint64_t count, std::uint64_t seed) {
  const auto lattice = [](double v) { return std::round(v * 1e6) / 1e6; };
  util::Rng rng(seed);
  std::vector<geom::Envelope> out;
  out.reserve(count);
  for (std::uint64_t q = 0; q < count; ++q) {
    const geom::Envelope e = layer.gen.geometry(layer.first + rng.below(layer.count)).envelope();
    const double cx = 0.5 * (e.minX() + e.maxX());
    const double cy = 0.5 * (e.minY() + e.maxY());
    const double h = rng.uniform(0.005, 0.05);
    out.emplace_back(lattice(cx - h), lattice(cy - h), lattice(cx + h), lattice(cy + h));
  }
  return out;
}

/// The shared spatial distribution of the join and overlay inputs: both
/// layers use one generator seed, so polygons and lines crowd into the
/// same 24 clusters the way cemeteries and roads share cities.
osm::SynthSpec clusteredSpec(osm::DatasetId id) {
  osm::SynthSpec spec = osm::datasetSpec(id, 71);
  spec.space.world = geom::Envelope(0, 0, 24, 24);
  spec.space.clusters = 24;
  spec.space.clusterStddev = 1.0;
  return spec;
}

struct InputFile {
  std::string name;
  std::shared_ptr<pfs::MemoryBackingStore> data;
};

class Workload {
 public:
  Workload(int ranks, int threads) : ranks_(ranks), threads_(threads) {}
  virtual ~Workload() = default;

  [[nodiscard]] int ranks() const { return ranks_; }
  [[nodiscard]] int threads() const { return threads_; }

  /// Make the input files (and query batch) from `seed`; `scale` shrinks
  /// record counts and stream byte sizes alike (the smoke run).
  void generate(std::uint64_t seed, double scale) {
    scale_ = scale;
    layers_.clear();
    files_.clear();
    makeInputs(seed);
  }
  /// Prepare what the per-rep result digests need (cheap; after set-up).
  virtual void prepare() {}
  virtual void run(pfs::Volume& volume, const RepMode& mode, Rep& rep) = 0;
  /// Build the ground truth (after the timed reps and the RSS reading).
  virtual void buildReference() = 0;
  /// Empty when `rep` matches the ground truth, else what differs.
  [[nodiscard]] virtual std::string check(const Rep& rep) = 0;

  [[nodiscard]] const std::vector<Layer>& layers() const { return layers_; }
  /// Input records of the first pipeline (the refine-rate calibration).
  [[nodiscard]] std::uint64_t pipelineRecords() const {
    std::uint64_t n = 0;
    for (const Layer& l : layers_) n += l.count;
    return n;
  }

  [[nodiscard]] std::uint64_t inputBytes() const {
    std::uint64_t n = 0;
    for (const InputFile& f : files_) n += f.data->size();
    return n;
  }

  /// A fresh volume holding the inputs: no queue state, checkpoint blobs or
  /// output files survive from an earlier rep.
  [[nodiscard]] std::shared_ptr<pfs::Volume> freshVolume() const {
    auto volume = cometVolume();
    for (const InputFile& f : files_) volume->createOrReplace(f.name, f.data);
    return volume;
  }

 protected:
  virtual void makeInputs(std::uint64_t seed) = 0;

  /// Append a layer of `count` records (before scaling) and install it
  /// under `name` as WKT or WKB.
  const Layer& addLayer(const osm::SynthSpec& spec, std::uint64_t seed, std::uint64_t count,
                        const std::string& name, bool wkb) {
    MVIO_CHECK(count <= 500'000, "a layer must fit in half of its seed's index block");
    layers_.push_back({osm::RecordGenerator(spec), firstRecord(seed, static_cast<int>(layers_.size())),
                       scaled(count, scale_)});
    const Layer& l = layers_.back();
    files_.push_back({name, std::make_shared<pfs::MemoryBackingStore>(wkb ? l.wkb() : l.wkt())});
    return l;
  }

  /// Chunk and budget sizes, floored at 16 KiB so every record still fits.
  [[nodiscard]] std::uint64_t bytes(std::uint64_t n) const {
    return std::max<std::uint64_t>(16 << 10, scaled(n, scale_));
  }

  double scale_ = 1.0;
  int ranks_;
  int threads_;
  std::vector<Layer> layers_;  ///< layer R first
  std::vector<InputFile> files_;
};

/// Shared by join_wkt and join_recover: cemetery polygons x road lines.
class JoinWorkload final : public Workload {
 public:
  struct Shape {
    std::uint64_t recordsR, recordsS;
    std::uint64_t chunkBytes;       ///< 0 = one-shot
    std::uint64_t checkpointEvery;  ///< data rounds per sealed epoch; 0 = off
    bool killRank1;                 ///< fail rank 1 after data round 5
  };

  explicit JoinWorkload(Shape shape) : Workload(4, 1), shape_(shape) {}

  void makeInputs(std::uint64_t seed) override {
    addLayer(clusteredSpec(osm::DatasetId::kCemetery), seed, shape_.recordsR, "r.wkt", false);
    addLayer(clusteredSpec(osm::DatasetId::kRoadNetwork), seed, shape_.recordsS, "s.wkt", false);
    sampleSeed_ = seed;
  }

  void prepare() override {
    // 256 seeded S records: their pairs are checked against serialJoin.
    const Layer& s = layers_[1];
    sampleS_.clear();
    sampleKeys_.clear();
    for (const std::uint64_t k : sampleIndices(s.count, 256, sampleSeed_)) {
      sampleS_.push_back(readWktLine(s.record(k)));
      sampleKeys_.push_back(core::geometryKey(sampleS_.back()));
    }
    std::sort(sampleKeys_.begin(), sampleKeys_.end());
  }

  void run(pfs::Volume& volume, const RepMode& mode, Rep& rep) override {
    const core::WktParser parser;
    std::mutex mu;
    std::vector<core::JoinPair> pairs;
    runRanks(mode, 1, rep, [&](mpi::Comm& comm, RankSample& me) {
      core::JoinConfig cfg;
      cfg.framework.gridCells = kGridCells;
      cfg.framework.stream.chunkBytes = shape_.chunkBytes > 0 ? bytes(shape_.chunkBytes) : 0;
      cfg.framework.stream.checkpointEveryRounds = shape_.checkpointEvery;
      if (shape_.checkpointEvery > 0) cfg.framework.stream.compaction.everyEpochs = 2;
      if (shape_.killRank1 && !mode.failureFree) cfg.framework.failSchedule = {{1, 5, 0}};
      const core::DatasetHandle r{"r.wkt", &parser, {}};
      const core::DatasetHandle s{"s.wkt", &parser, {}};
      std::vector<core::JoinPair> local;
      const core::JoinStats st = core::spatialJoin(comm, volume, r, s, cfg, &local);
      me.clock = comm.clock().now();
      me.died = st.recovery.died;
      me.phases = {st.phases};
      me.grid = st.grid;
      me.ownedBefore = me.ownedAfter = st.ownedRecords;
      me.candidates = st.candidatePairs;
      me.pairs = st.globalPairs;
      const std::lock_guard<std::mutex> lock(mu);
      pairs.insert(pairs.end(), local.begin(), local.end());
    });
    std::sort(pairs.begin(), pairs.end());
    rep.pairCount = pairs.size();
    rep.pairDigest = util::fnv1a(reinterpret_cast<const char*>(pairs.data()),
                                 pairs.size() * sizeof(core::JoinPair));
    for (const core::JoinPair& p : pairs) {
      if (std::binary_search(sampleKeys_.begin(), sampleKeys_.end(), p.keyS)) {
        rep.samplePairs.push_back(p);
      }
    }
  }

  void buildReference() override {
    // serialJoin of the sampled S records against all of R, with R parsed
    // from the installed text in blocks of 100k records.
    expected_.clear();
    std::vector<geom::Geometry> block;
    const auto flush = [&] {
      const std::vector<core::JoinPair> got =
          core::serialJoin(block, sampleS_, core::JoinPredicate::kIntersects);
      expected_.insert(expected_.end(), got.begin(), got.end());
      block.clear();
    };
    forEachLine(files_[0].data->contents(), [&](std::string_view line) {
      block.push_back(readWktLine(line));
      if (block.size() == 100'000) flush();
    });
    flush();
    std::sort(expected_.begin(), expected_.end());
    if (shape_.killRank1) {
      Rep ref;
      run(*freshVolume(), {ranks_, {}, true}, ref);
      MVIO_CHECK(ref.samplePairs == expected_, "failure-free reference run disagrees with serialJoin");
      failureFree_ = {ref.pairCount, ref.pairDigest};
    }
  }

  std::string check(const Rep& rep) override {
    if (rep.samplePairs != expected_) {
      return "sampled pairs differ from serialJoin (" + std::to_string(rep.samplePairs.size()) +
             " vs " + std::to_string(expected_.size()) + ")";
    }
    if (shape_.killRank1 && std::pair(rep.pairCount, rep.pairDigest) != failureFree_) {
      return "pairs differ from the failure-free run (" + std::to_string(rep.pairCount) + " vs " +
             std::to_string(failureFree_.first) + ")";
    }
    return {};
  }

 private:
  Shape shape_;
  std::uint64_t sampleSeed_ = 0;
  std::vector<geom::Geometry> sampleS_;
  std::vector<std::uint64_t> sampleKeys_;
  std::vector<core::JoinPair> expected_;
  std::pair<std::uint64_t, std::uint64_t> failureFree_;
};

/// overlay_stream: WKB polygons + lines, streamed under a memory budget on
/// threaded ranks with round overlap, ending in the collective raster write.
class OverlayWorkload final : public Workload {
 public:
  OverlayWorkload() : Workload(2, 2) {}

  void makeInputs(std::uint64_t seed) override {
    addLayer(clusteredSpec(osm::DatasetId::kCemetery), seed, 50'000, "r.wkb", true);
    addLayer(clusteredSpec(osm::DatasetId::kRoadNetwork), seed, 25'000, "s.wkb", true);
    raster_.reset();
  }

  void run(pfs::Volume& volume, const RepMode& mode, Rep& rep) override {
    const core::FormatReader* wkb = core::FormatRegistry::instance().get("wkb");
    const std::string output = "coverage.bin";
    runRanks(mode, threads_, rep, [&](mpi::Comm& comm, RankSample& me) {
      core::OverlayConfig cfg;
      cfg.framework.gridCells = kGridCells;
      cfg.framework.threadsPerRank = threads_;
      cfg.framework.stream.chunkBytes = bytes(kMiB / 2);
      cfg.framework.stream.memoryBudget = bytes(4 * kMiB);
      cfg.framework.stream.overlapRounds = true;
      cfg.outputPath = output;
      const core::DatasetHandle r{"r.wkb", nullptr, {}, wkb};
      const core::DatasetHandle s{"s.wkb", nullptr, {}, wkb};
      const core::OverlayStats st = core::gridCoverageOverlay(comm, volume, r, &s, cfg);
      me.clock = comm.clock().now();
      me.phases = {st.phases};
      me.grid = st.grid;
      if (comm.rank() == 0) {
        rep.totalR = st.totalR;
        rep.totalS = st.totalS;
      }
    });
    const auto& raster = volume.lookup(output)->data;
    std::string bytes(raster->size(), '\0');
    raster->read(0, bytes.data(), bytes.size());
    rep.rasterDigest = util::fnv1a(bytes);
  }

  void buildReference() override {
    // Serial measure sums, decoding each WKB frame with geom::readWkb (the
    // Geometry decoder, not the pipeline's columnar one).
    const auto sum = [](const std::string& framed, double (*measure)(const geom::Geometry&)) {
      double total = 0;
      std::size_t at = 0;
      while (at < framed.size()) {
        MVIO_CHECK(at + core::kWkbRecordHeaderBytes <= framed.size(), "truncated WKB frame");
        const auto userLen = util::readScalar<std::uint32_t>(framed.data() + at + 4);
        const auto wkbLen = util::readScalar<std::uint32_t>(framed.data() + at + 8);
        const std::size_t wkbAt = at + core::kWkbRecordHeaderBytes + userLen;
        MVIO_CHECK(wkbAt + wkbLen <= framed.size(), "truncated WKB frame");
        total += measure(geom::readWkb(std::string_view(framed).substr(wkbAt, wkbLen)));
        at = wkbAt + wkbLen;
      }
      return total;
    };
    expectR_ = sum(files_[0].data->contents(), geom::area);
    expectS_ = sum(files_[1].data->contents(), geom::length);
  }

  std::string check(const Rep& rep) override {
    const auto close = [](double got, double want) {
      return std::abs(got - want) <= 1e-9 * std::max(std::abs(want), 1e-300);
    };
    if (!close(rep.totalR, expectR_) || !close(rep.totalS, expectS_)) {
      char buf[160];
      std::snprintf(buf, sizeof(buf), "coverage totals %.17g / %.17g differ from serial %.17g / %.17g",
                    rep.totalR, rep.totalS, expectR_, expectS_);
      return buf;
    }
    if (!raster_) raster_ = rep.rasterDigest;
    if (rep.rasterDigest != *raster_) return "raster bytes differ from the first checked rep";
    return {};
  }

 private:
  double expectR_ = 0, expectS_ = 0;
  std::optional<std::uint64_t> raster_;
};

/// index_skew: build the index over three-cluster polygons with the
/// quadtree map and LPT rebalancing, time every query through queryCount,
/// then answer the same batch with batchRangeQuery.
class IndexWorkload final : public Workload {
 public:
  IndexWorkload() : Workload(4, 1) {}

  void makeInputs(std::uint64_t seed) override {
    osm::SynthSpec spec = osm::datasetSpec(osm::DatasetId::kCemetery, 91);
    spec.space.world = geom::Envelope(0, 0, 20, 20);
    spec.space.clusters = 3;
    spec.space.clusterStddev = 1.0;
    spec.space.uniformFraction = 0.05;
    const Layer& data = addLayer(spec, seed, 200'000, "d.wkt", false);
    queries_ = makeQueries(data, scaled(20'000, scale_), seed * 2 + 1);
    sampleSeed_ = seed * 2 + 2;
  }

  void run(pfs::Volume& volume, const RepMode& mode, Rep& rep) override {
    const core::WktParser parser;
    std::vector<std::uint64_t> batch;
    runRanks(mode, 1, rep, [&](mpi::Comm& comm, RankSample& me) {
      core::FrameworkConfig fw;
      fw.gridCells = kGridCells;
      fw.partition.scheme = core::PartitionScheme::kQuadtree;
      fw.rebalanceCells = true;
      const core::DatasetHandle data{"d.wkt", &parser, {}};
      core::IndexingConfig icfg;
      icfg.framework = fw;
      core::IndexingStats ist;
      const core::DistributedIndex index = core::buildDistributedIndex(comm, volume, data, icfg, &ist);
      me.queryCounts.resize(queries_.size());
      me.queryLatency.resize(queries_.size());
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        const double t0 = hostSeconds();
        me.queryCounts[q] = index.queryCount(queries_[q]);
        me.queryLatency[q] = hostSeconds() - t0;
      }
      core::RangeQueryConfig rcfg;
      rcfg.framework = fw;
      core::RangeQueryStats rst;
      std::vector<std::uint64_t> counts = core::batchRangeQuery(comm, volume, data, queries_, rcfg, &rst);
      me.clock = comm.clock().now();
      me.phases = {ist.phases, rst.phases};
      me.grid = ist.grid;
      me.ownedBefore = ist.balance.ownedRecordsBefore;
      me.ownedAfter = ist.balance.ownedRecordsAfter;
      if (comm.rank() == 0) batch = std::move(counts);
    });
    rep.batchCounts = std::move(batch);
    rep.queryCounts.assign(queries_.size(), 0);
    rep.queryLatency.assign(queries_.size(), 0.0);
    for (const RankSample& r : rep.ranks) {
      for (std::size_t q = 0; q < queries_.size(); ++q) {
        rep.queryCounts[q] += r.queryCounts[q];
        rep.queryLatency[q] = std::max(rep.queryLatency[q], r.queryLatency[q]);
      }
    }
  }

  void buildReference() override {
    // Brute-force counts for 200 seeded queries: every record whose exact
    // geometry intersects the query box, via the Geometry predicate.
    std::vector<geom::Geometry> data;
    data.reserve(layers_[0].count);
    forEachLine(files_[0].data->contents(), [&](std::string_view line) { data.push_back(readWktLine(line)); });
    brute_.clear();
    for (const std::uint64_t q : sampleIndices(queries_.size(), 200, sampleSeed_)) {
      const geom::Envelope& box = queries_[q];
      const geom::Geometry boxGeom = geom::Geometry::box(box);
      std::uint64_t n = 0;
      for (const geom::Geometry& g : data) {
        if (g.envelope().intersects(box) && geom::intersects(boxGeom, g)) ++n;
      }
      brute_.emplace_back(q, n);
    }
  }

  std::string check(const Rep& rep) override {
    if (rep.queryCounts != rep.batchCounts) return "queryCount totals differ from batchRangeQuery";
    for (const auto& [q, n] : brute_) {
      if (rep.queryCounts[q] != n) {
        return "query " + std::to_string(q) + " counts " + std::to_string(rep.queryCounts[q]) +
               ", brute force " + std::to_string(n);
      }
    }
    return {};
  }

 private:
  std::uint64_t sampleSeed_ = 0;
  std::vector<geom::Envelope> queries_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> brute_;
};

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "join_wkt") {
    return std::make_unique<JoinWorkload>(JoinWorkload::Shape{100'000, 50'000, 0, 0, false});
  }
  if (name == "join_recover") {
    return std::make_unique<JoinWorkload>(JoinWorkload::Shape{150'000, 75'000, kMiB / 2, 2, true});
  }
  if (name == "overlay_stream") return std::make_unique<OverlayWorkload>();
  if (name == "index_skew") return std::make_unique<IndexWorkload>();
  throw std::invalid_argument("unknown workload '" + name +
                              "' (join_wkt, overlay_stream, index_skew, join_recover)");
}

// ---- Per-layer metrics -----------------------------------------------------

using Layers = std::map<std::string, double>;

/// Per-layer metrics of one traced rep, read from the stats structs and the
/// ranks' metrics registries. Times are the max across live ranks of the
/// workload's summed pipelines; volumes are summed over ranks. Only
/// measured CPU is reported in seconds: the phases the model prices from
/// bytes and requests (read, comm, spill, migrate, checkpoint, recovery,
/// compaction) repeat almost exactly for a seed, so they appear as bytes
/// and counts here and as shares of the makespan in the trace (e2e.py's
/// trace.<span>.share).
Layers repLayers(const Rep& rep, const Workload& w, double inputBytes) {
  const auto maxOf = [&](auto field) {
    double m = 0;
    for (const RankSample& r : rep.ranks) {
      double v = 0;
      for (const core::PhaseBreakdown& p : r.phases) v += static_cast<double>(field(p));
      m = std::max(m, v);
    }
    return m;
  };
  const auto sumOf = [&](auto field) {
    double s = 0;
    for (const RankSample& r : rep.ranks) {
      for (const core::PhaseBreakdown& p : r.phases) s += static_cast<double>(field(p));
    }
    return s;
  };
  std::uint64_t exchangeBytes = 0;
  std::vector<double> cellSeconds;
  for (const RankSample& r : rep.ranks) {
    for (const auto& [name, v] : r.metrics.counters) {
      if (name == "exchange.bytes") exchangeBytes += v;
    }
    for (const auto& [name, samples] : r.metrics.histograms) {
      if (name == "refine.cell_seconds") cellSeconds.insert(cellSeconds.end(), samples.begin(), samples.end());
    }
  }
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const auto maxMeanOf = [&](std::uint64_t RankSample::*field) {
    double mx = 0, sum = 0, n = 0;
    for (const RankSample& r : rep.ranks) {
      if (r.died) continue;
      mx = std::max(mx, static_cast<double>(r.*field));
      sum += static_cast<double>(r.*field);
      n += 1;
    }
    return ratio(mx, n > 0 ? sum / n : 0);
  };

  Layers m;
  m["io.read_mb_s"] = ratio(inputBytes / 1e6, maxOf([](const auto& p) { return p.read; }));
  m["pfs.reload_mb"] = sumOf([](const auto& p) { return p.refineSpillBytes; }) / 1e6;
  m["pfs.reload_ratio"] = ratio(m["pfs.reload_mb"] * 1e6, inputBytes);
  m["format.parse_s"] = maxOf([](const auto& p) { return p.parse; });
  m["grid.partition_s"] = maxOf([](const auto& p) { return p.partition; });
  m["grid.imbalance_before"] = maxMeanOf(&RankSample::ownedBefore);
  m["grid.imbalance_after"] = maxMeanOf(&RankSample::ownedAfter);
  m["exchange.mb"] = static_cast<double>(exchangeBytes) / 1e6;
  m["exchange.rounds"] = maxOf([](const auto& p) { return p.rounds; });
  m["exchange.migrate_mb"] = sumOf([](const auto& p) { return p.migrateBytes; }) / 1e6;
  m["geom.compute_s"] = maxOf([](const auto& p) { return p.compute; });
  double candidates = 0, pairs = 0;
  for (const RankSample& r : rep.ranks) {
    candidates = std::max(candidates, static_cast<double>(r.candidates));
    pairs = std::max(pairs, static_cast<double>(r.pairs));
  }
  m["geom.candidates"] = candidates;
  m["geom.hit_ratio"] = ratio(pairs, candidates);
  m["geom.cell_p50_ms"] = quantile(cellSeconds, 0.5) * 1e3;
  m["geom.cell_max_ms"] = quantile(cellSeconds, 1.0) * 1e3;
  const double workerCpu = sumOf([](const auto& p) { return p.workerCpu; });
  const double workerCritical = sumOf([](const auto& p) { return p.workerCritical; });
  m["thread_pool.efficiency"] = ratio(workerCpu, w.threads() * workerCritical);
  m["thread_pool.hidden_share"] = ratio(maxOf([](const auto& p) { return p.overlapped; }), rep.makespan());
  m["recovery.checkpoint_mb"] = sumOf([](const auto& p) { return p.checkpointBytes; }) / 1e6;
  m["recovery.recover_mb"] = sumOf([](const auto& p) { return p.recoveryBytes; }) / 1e6;
  m["recovery.replay_rounds"] = maxOf([](const auto& p) { return p.recoveryRounds; });
  m["recovery.reclaimed_mb"] = sumOf([](const auto& p) { return p.reclaimedBytes; }) / 1e6;
  // Summed per-rank refine CPU of the first pipeline, for the calibration.
  double firstCompute = 0;
  for (const RankSample& r : rep.ranks) {
    if (!r.phases.empty()) firstCompute += r.phases.front().compute;
  }
  m["first_pipeline_compute_s"] = firstCompute;
  return m;
}

/// Median of three host-timed calls of `fn` (seconds).
template <typename Fn>
double timeMedian3(Fn&& fn) {
  std::vector<double> t;
  for (int k = 0; k < 3; ++k) {
    const double t0 = hostSeconds();
    fn();
    t.push_back(hostSeconds() - t0);
  }
  return median(t);
}

double mbPerSecond(double bytes, double seconds) { return seconds > 0 ? bytes / seconds / 1e6 : 0; }

/// Layer probes on records [0, kProbeRecords) of the workload's first
/// layer, on the run's grid: single-threaded (the exchange probe runs 4
/// ranks), host-timed, median of three calls each.
void runProbes(const Workload& w, const core::GridSpec& grid, double scale, Layers& m) {
  const Layer sample{w.layers().front().gen, w.layers().front().first, scaled(kProbeRecords, scale)};
  const std::string wkt = sample.wkt();
  const std::string wkb = sample.wkb();
  const core::FormatRegistry& formats = core::FormatRegistry::instance();

  geom::GeometryBatch parsed;
  formats.get("wkt")->parseChunk(wkt, parsed, nullptr);
  m["format.wkt_mb_s"] = mbPerSecond(static_cast<double>(wkt.size()), timeMedian3([&] {
    geom::GeometryBatch b;
    formats.get("wkt")->parseChunk(wkt, b, nullptr);
  }));
  m["format.wkb_mb_s"] = mbPerSecond(static_cast<double>(wkb.size()), timeMedian3([&] {
    geom::GeometryBatch b;
    formats.get("wkb")->parseChunk(wkb, b, nullptr);
  }));

  const core::PartitionMap map = core::PartitionMap::uniform(grid);
  const core::CellLocator locator(grid);
  geom::GeometryBatch projected;
  std::vector<double> t;
  for (int k = 0; k < 3; ++k) {
    geom::GeometryBatch copy = parsed;
    const double t0 = hostSeconds();
    projected = core::projectToCells(map, &locator, std::move(copy));
    t.push_back(hostSeconds() - t0);
  }
  m["grid.project_mrec_s"] = static_cast<double>(parsed.size()) / median(t) / 1e6;
  std::uint64_t placed = 0;
  for (std::size_t i = 0; i < projected.size(); ++i) {
    if (projected.cell(i) != geom::GeometryBatch::kNoCell) ++placed;
  }
  m["grid.replication"] = static_cast<double>(placed) / static_cast<double>(parsed.size());

  // Exchange pack/unpack: per-rank thread CPU around exchangeByCell.
  constexpr int kProbeRanks = 4;
  std::vector<geom::GeometryBatch> parts(kProbeRanks);
  for (std::size_t i = 0; i < projected.size(); ++i) {
    parts[i % kProbeRanks].appendRecordFrom(projected, i, projected.cell(i));
  }
  std::vector<double> rates;
  for (int k = 0; k < 3; ++k) {
    std::vector<double> cpu(kProbeRanks, 0.0);
    std::vector<std::uint64_t> bytes(kProbeRanks, 0);
    mpi::Runtime::run(kProbeRanks, machine(), [&](mpi::Comm& comm) {
      geom::GeometryBatch mine = parts[static_cast<std::size_t>(comm.rank())];
      core::ExchangeStats xs;
      const sim::ThreadCpuTimer timer;
      core::exchangeByCell(comm, std::move(mine), [](int cell) { return core::roundRobinOwner(cell, kProbeRanks); },
                           1, grid.cellCount(), &xs);
      cpu[static_cast<std::size_t>(comm.rank())] = timer.elapsed();
      bytes[static_cast<std::size_t>(comm.rank())] = xs.bytesSent + xs.bytesReceived;
    });
    double b = 0, c = 0;
    for (int r = 0; r < kProbeRanks; ++r) {
      b += static_cast<double>(bytes[static_cast<std::size_t>(r)]);
      c += cpu[static_cast<std::size_t>(r)];
    }
    rates.push_back(mbPerSecond(b, c));
  }
  m["exchange.pack_mb_s"] = median(rates);

  std::optional<core::DistributedIndex> index;
  const double build = timeMedian3([&] {
    index.reset();
    index.emplace(core::DistributedIndex::fromBatch(geom::GeometryBatch(projected), grid));
  });
  m["geom.rtree_build_mrec_s"] = static_cast<double>(projected.size()) / build / 1e6;
  // Per-query latency percentiles over the batch (p99 has 20 queries
  // beyond it), median over three passes.
  const std::vector<geom::Envelope> queries = makeQueries(sample, kProbeQueries, 7);
  std::uint64_t hits = 0;
  std::vector<double> p50, p99;
  for (int k = 0; k < 3; ++k) {
    std::vector<double> latency;
    latency.reserve(queries.size());
    for (const geom::Envelope& q : queries) {
      const double t0 = hostSeconds();
      hits += index->queryCount(q);
      latency.push_back(hostSeconds() - t0);
    }
    p50.push_back(quantile(latency, 0.5) * 1e6);
    p99.push_back(quantile(latency, 0.99) * 1e6);
  }
  m["geom.rtree_query_p50_us"] = median(p50);
  m["geom.rtree_query_p99_us"] = median(p99);
  MVIO_CHECK(hits > 0, "probe queries matched nothing");

  std::string shard;
  const double encode = timeMedian3([&] {
    shard.clear();
    geom::encodeShard(parsed, shard);
  });
  const double decode = timeMedian3([&] {
    geom::GeometryBatch b;
    geom::decodeShard(shard, b);
  });
  m["recovery.shard_encode_mb_s"] = mbPerSecond(static_cast<double>(shard.size()), encode);
  m["recovery.shard_decode_mb_s"] = mbPerSecond(static_cast<double>(shard.size()), decode);
}

// ---- Output ---------------------------------------------------------------

class JsonObject {
 public:
  JsonObject& num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return raw(key, buf);
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (const char c : v) {
      if (c == '"' || c == '\\') q.push_back('\\');
      q.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
    }
    return raw(key, q + "\"");
  }
  JsonObject& nums(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? "," : "", v[i]);
      s += buf;
    }
    return raw(key, s + "]");
  }
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + json;
    return *this;
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string repJson(const Rep& rep, const char* kind) {
  JsonObject o;
  o.str("kind", kind).num("makespan_s", rep.makespan()).num("wall_s", rep.wall).num("cpu_s", rep.cpu);
  if (!rep.queryLatency.empty()) {
    // index_skew: percentiles over the rep's queries (p99 has 1% of them
    // beyond it).
    o.num("query_p50_us", quantile(rep.queryLatency, 0.5) * 1e6)
        .num("query_p99_us", quantile(rep.queryLatency, 0.99) * 1e6);
  }
  return o.str("error", rep.error).str();
}

/// Run one rep on a fresh volume and check it; exceptions and mismatches
/// both mark the rep failed. The "started" line is flushed before the rep
/// runs, so it survives the process being killed mid-rep.
Rep checkedRep(Workload& w, const RepMode& mode, bool check, const char* kind, std::size_t k) {
  std::printf("started %s %zu\n", kind, k);
  std::fflush(stdout);
  Rep rep;
  try {
    w.run(*w.freshVolume(), mode, rep);
    if (check) rep.error = w.check(rep);
  } catch (const std::exception& e) {
    rep.error = std::string("threw: ") + e.what();
  }
  return rep;
}

int runBenchmark(const util::Cli& cli) {
  const std::string name = cli.str("workload");
  const auto seed = static_cast<std::uint64_t>(cli.integer("seed"));
  const bool smoke = cli.boolean("smoke");
  MVIO_CHECK(smoke || !cli.str("seconds").empty(),
             "--seconds is required (e2e.py passes BENCHMARK.json's run_seconds)");
  const double seconds = smoke ? 0 : cli.real("seconds");
  const std::string traceDir = cli.str("trace-dir");
  const double scale = smoke ? 0.02 : 1.0;

  std::unique_ptr<Workload> w = makeWorkload(name);
  const RepMode mode{w->ranks(), {}, false};

  // Set-up, repeated so setup_s is a median: generate, install, warm up.
  std::vector<double> setup;
  for (int k = 0; k < (smoke ? 1 : kSetups); ++k) {
    const double t0 = hostSeconds();
    w->generate(seed, scale);
    Rep warm;
    w->run(*w->freshVolume(), mode, warm);
    setup.push_back(hostSeconds() - t0);
  }
  w->prepare();
  std::fprintf(stderr, "%s: set-up %.2fs median of %zu, input %.1f MB\n", name.c_str(), median(setup),
               setup.size(), static_cast<double>(w->inputBytes()) / 1e6);

  std::vector<Rep> timed;
  const double loop0 = hostSeconds();
  while (smoke ? timed.size() < 2
               : (hostSeconds() - loop0 < seconds || timed.size() < kMinTimedReps)) {
    timed.push_back(checkedRep(*w, mode, false, "timed", timed.size()));
  }
  const double rss = peakRssMb();

  w->buildReference();
  for (Rep& rep : timed) {
    if (rep.error.empty()) rep.error = w->check(rep);
  }

  std::vector<std::string> repsJson;
  for (const Rep& rep : timed) repsJson.push_back(repJson(rep, "timed"));
  JsonObject layers;
  std::vector<std::string> traceFiles;

  if (!traceDir.empty()) {
    std::map<std::string, std::vector<double>> perRep;
    std::vector<double> tracedWall;
    core::GridSpec grid;
    for (int k = 0; k < kTracedReps; ++k) {
      const std::string path = traceDir + "/" + name + ".rep" + std::to_string(k) + ".trace.json";
      Rep rep = checkedRep(*w, {w->ranks(), path, false}, true, "traced", static_cast<std::size_t>(k));
      repsJson.push_back(repJson(rep, "traced"));
      if (!rep.error.empty()) continue;
      traceFiles.push_back("\"" + path + "\"");
      tracedWall.push_back(rep.wall);
      grid = rep.ranks.front().grid;
      for (const auto& [key, v] : repLayers(rep, *w, static_cast<double>(w->inputBytes()))) {
        perRep[key].push_back(v);
      }
    }
    Layers m;
    for (const auto& [key, v] : perRep) m[key] = median(v);

    // The paper's scaling axis: the same workload on one rank.
    const Rep single = checkedRep(*w, {1, {}, true}, true, "one_rank", 0);
    repsJson.push_back(repJson(single, "one_rank"));
    std::vector<double> makespans;
    std::vector<double> walls;
    for (const Rep& rep : timed) {
      makespans.push_back(rep.makespan());
      walls.push_back(rep.wall);
    }
    m["framework.speedup_vs_p1"] = single.makespan() / median(makespans);
    m["obs.overhead"] = median(tracedWall) / median(walls) - 1.0;

    runProbes(*w, grid, scale, m);
    const double refined = m["grid.replication"] * static_cast<double>(w->pipelineRecords());
    m["calib.exchange_mb_s_model"] = core::SerializationCostModel{}.bytesPerSecond / 1e6;
    m["calib.exchange_mb_s_measured"] = m["exchange.pack_mb_s"];
    m["calib.spill_write_mb_s_model"] = core::StreamConfig{}.spillBytesPerSecond / 1e6;
    m["calib.spill_write_mb_s_measured"] = m["recovery.shard_encode_mb_s"];
    m["calib.spill_read_mb_s_model"] = core::StreamConfig{}.spillBytesPerSecond / 1e6;
    m["calib.spill_read_mb_s_measured"] = m["recovery.shard_decode_mb_s"];
    m["calib.refine_krec_s_model"] = 1e-3 / core::PartitionCostModel{}.refineSecondsPerRecord;
    m["calib.refine_krec_s_measured"] =
        m["first_pipeline_compute_s"] > 0 ? refined / m["first_pipeline_compute_s"] / 1e3 : 0;
    m.erase("first_pipeline_compute_s");
    for (const auto& [key, v] : m) layers.num(key, v);
  }

  std::string reps = "[";
  for (std::size_t i = 0; i < repsJson.size(); ++i) reps += (i ? "," : "") + repsJson[i];
  std::string files = "[";
  for (std::size_t i = 0; i < traceFiles.size(); ++i) files += (i ? "," : "") + traceFiles[i];
  std::printf("%s\n", JsonObject()
                          .str("workload", name)
                          .num("seed", static_cast<double>(seed))
                          .num("ranks", w->ranks())
                          .num("threads", w->threads())
                          .num("input_mb", static_cast<double>(w->inputBytes()) / 1e6)
                          .nums("setup_s", setup)
                          .num("peak_rss_mb", rss)
                          .raw("reps", reps + "]")
                          .raw("trace_files", files + "]")
                          .raw("layers", layers.str())
                          .str()
                          .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  mvio::util::Cli cli("bench_e2e: one end-to-end benchmark workload (see bench_e2e/README.md)");
  cli.flag("workload", "join_wkt", "join_wkt | overlay_stream | index_skew | join_recover")
      .flag("seed", "1", "input seed: the same seed gives the same inputs")
      .flag("seconds", "", "required: host seconds of timed reps (at least 9 reps)")
      .flag("smoke", "false", "about 1/50 scale, one set-up and 2 timed reps; ignores --seconds")
      .flag("trace-dir", "", "traced run: write Perfetto traces here and measure the layers");
  try {
    if (!cli.parse(argc, argv)) return 0;
    return runBenchmark(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
