// Checkpoint/recovery sweep (DESIGN.md §9).
//
// Table 1 — checkpoint overhead vs StreamConfig::checkpointEveryRounds:
// the extent log (each chunk's input-file extents and CRC-32C, written
// once at the end of ingest) is a small fixed write-ahead cost;
// epoch deltas add bytes per sealed epoch, so tighter intervals write
// more durable bytes and spend more checkpoint time while every other
// column stays flat. Results must be identical on every row.
//
// Table 2 — recovery cost vs kill round at a fixed interval: a later
// kill has more sealed epochs behind it, so fewer rounds replay from the
// extent log (re-read from the input and re-parsed); a kill right after a
// seal replays the least. Join results
// must be identical to the failure-free baseline in every row — the
// bit-identity the recovery tests assert, priced here.
//
// Table 3 — elasticity (DESIGN.md §11): the same two-kill schedule under
// sharded replay alone and sharded replay + checkpoint GC/epoch
// compaction. Sharding divides the aggregate input re-reads across the
// survivors, so recovery must read less than one copy of the durable
// state (table 1's every-2 checkpoint bytes); compaction folds the delta
// tail into one base and reclaims durable bytes. Pairs must not change.

#include <mutex>

#include "common.hpp"
#include "util/error.hpp"

int main() {
  using namespace mvio;
  constexpr int kProcs = 8;
  constexpr std::uint64_t kChunk = 16 << 10;

  bench::printHeader(
      "Checkpoint/recovery sweep — spatial join under failure injection (8 procs)",
      "identical pairs on every row; durable bytes track the epoch interval, replay "
      "cost tracks the gap between the kill and the last seal",
      "synthetic cemetery x road layers, 16 KiB chunks, COMET Lustre model");

  osm::SynthSpec specR = osm::datasetSpec(osm::DatasetId::kCemetery, 71);
  specR.space.world = geom::Envelope(0, 0, 25, 25);
  osm::SynthSpec specS = osm::datasetSpec(osm::DatasetId::kRoadNetwork, 72);
  specS.space.world = specR.space.world;

  auto volume = bench::cometVolume(kProcs / 4, 1.0);
  volume->createOrReplace("r.wkt", std::make_shared<pfs::MemoryBackingStore>(
                                       osm::generateWktText(osm::RecordGenerator(specR), 6000)));
  volume->createOrReplace("s.wkt", std::make_shared<pfs::MemoryBackingStore>(
                                       osm::generateWktText(osm::RecordGenerator(specS), 4000)));
  core::WktParser parser;

  struct Outcome {
    std::uint64_t pairs = 0;
    std::uint64_t ckptBytes = 0, ckptEpochs = 0, recBytes = 0, recRounds = 0, epochUsed = 0;
    std::uint64_t compactBytes = 0, reclaimedBytes = 0;
    double ckptSeconds = 0, recSeconds = 0, totalSeconds = 0;
    std::uint64_t rounds = 0;
  };
  /// `compactEvery` is CompactionPolicy::everyEpochs.
  auto runJoin = [&](std::uint64_t every, const std::string& dir,
                     std::vector<sim::FailureEvent> failSchedule,
                     std::uint64_t compactEvery = 0) {
    Outcome out;
    std::atomic<std::uint64_t> pairs{0}, ckptBytes{0}, ckptEpochs{0}, recBytes{0}, recRounds{0},
        epochUsed{0}, rounds{0}, compactBytes{0}, reclaimedBytes{0};
    std::mutex mu;
    mpi::Runtime::run(kProcs, sim::MachineModel::comet(kProcs / 4), [&](mpi::Comm& comm) {
      core::JoinConfig cfg;
      cfg.framework.gridCells = 144;
      cfg.framework.stream.chunkBytes = kChunk;
      cfg.framework.stream.checkpointEveryRounds = every;
      cfg.framework.stream.checkpointDir = dir;
      cfg.framework.stream.compaction.everyEpochs = compactEvery;
      cfg.framework.failSchedule = failSchedule;  // copy: every rank thread reads it
      core::DatasetHandle r{"r.wkt", &parser, {}};
      core::DatasetHandle s{"s.wkt", &parser, {}};
      const auto stats = core::spatialJoin(comm, *volume, r, s, cfg);
      pairs += stats.localPairs;
      ckptBytes += stats.phases.checkpointBytes;
      recBytes += stats.phases.recoveryBytes;
      compactBytes += stats.phases.compactionBytes;
      reclaimedBytes += stats.phases.reclaimedBytes;
      std::lock_guard<std::mutex> lock(mu);
      ckptEpochs = std::max(ckptEpochs.load(), stats.phases.checkpointEpochs);
      recRounds = std::max(recRounds.load(), stats.phases.recoveryRounds);
      rounds = std::max(rounds.load(), stats.phases.rounds);
      epochUsed = std::max(epochUsed.load(), stats.recovery.epochUsed);
      out.ckptSeconds = std::max(out.ckptSeconds, stats.phases.checkpoint);
      out.recSeconds = std::max(out.recSeconds, stats.phases.recovery);
      out.totalSeconds = std::max(out.totalSeconds, stats.phases.total());
    });
    out.pairs = pairs.load();
    out.ckptBytes = ckptBytes.load();
    out.ckptEpochs = ckptEpochs.load();
    out.recBytes = recBytes.load();
    out.recRounds = recRounds.load();
    out.epochUsed = epochUsed.load();
    out.rounds = rounds.load();
    out.compactBytes = compactBytes.load();
    out.reclaimedBytes = reclaimedBytes.load();
    return out;
  };

  // ---- Table 1: checkpoint overhead sweep --------------------------------
  const Outcome baseline = runJoin(0, "__ck_off", {});
  util::TextTable overhead({"every", "pairs", "ckpt bytes", "epochs", "ckpt t", "total"});
  overhead.addRow({"off", std::to_string(baseline.pairs), util::formatBytes(baseline.ckptBytes),
                   "0", util::formatSeconds(baseline.ckptSeconds),
                   util::formatSeconds(baseline.totalSeconds)});
  Outcome every2;  ///< the interval table 3 runs at: its durable bytes bound recovery reads
  for (const std::uint64_t every : {8u, 4u, 2u, 1u}) {
    const Outcome o = runJoin(every, "__ck_e" + std::to_string(every), {});
    MVIO_CHECK(o.pairs == baseline.pairs, "checkpointed run changed the join result");
    if (every == 2) every2 = o;
    overhead.addRow({std::to_string(every), std::to_string(o.pairs),
                     util::formatBytes(o.ckptBytes), std::to_string(o.ckptEpochs),
                     util::formatSeconds(o.ckptSeconds), util::formatSeconds(o.totalSeconds)});
  }
  std::printf("%s\n", overhead.str().c_str());

  // ---- Table 2: recovery replay cost vs kill round -----------------------
  const std::uint64_t dataRounds = baseline.rounds >= 2 ? baseline.rounds - 2 : 0;
  util::TextTable recov(
      {"kill@", "epoch", "replayed", "rec bytes", "rec t", "pairs", "identical"});
  for (const std::uint64_t killRound : {2u, 5u, 8u}) {
    if (killRound > dataRounds) continue;
    const Outcome o =
        runJoin(4, "__ck_kill" + std::to_string(killRound), {{kProcs - 1, killRound, 0}});
    MVIO_CHECK(o.pairs == baseline.pairs, "recovered run changed the join result");
    recov.addRow({std::to_string(killRound), std::to_string(o.epochUsed),
                  std::to_string(o.recRounds), util::formatBytes(o.recBytes),
                  util::formatSeconds(o.recSeconds), std::to_string(o.pairs), "yes"});
  }
  std::printf("%s\n", recov.str().c_str());

  // ---- Table 3: sharded replay with and without compaction ---------------
  util::TextTable elastic({"config", "rec bytes", "replayed", "compact bytes", "reclaimed",
                           "rec t", "pairs", "identical"});
  const std::uint64_t elasticKill = std::min<std::uint64_t>(5, dataRounds);
  const auto elasticRow = [&](const char* name, const std::string& dir,
                              std::uint64_t compactEvery) {
    const Outcome o = runJoin(
        2, dir, {{kProcs - 1, elasticKill, 0}, {kProcs / 2, elasticKill, 0}}, compactEvery);
    MVIO_CHECK(o.pairs == baseline.pairs, "elasticity config changed the join result");
    elastic.addRow({name, util::formatBytes(o.recBytes), std::to_string(o.recRounds),
                    util::formatBytes(o.compactBytes), util::formatBytes(o.reclaimedBytes),
                    util::formatSeconds(o.recSeconds), std::to_string(o.pairs), "yes"});
    return o;
  };
  const Outcome shard = elasticRow("sharded replay", "__el_shard", 0);
  const Outcome gc = elasticRow("sharded + compaction", "__el_gc", 2);
  MVIO_CHECK(shard.recBytes < every2.ckptBytes,
             "sharded replay must read less than one copy of the durable state");
  MVIO_CHECK(gc.recBytes < every2.ckptBytes,
             "compaction must keep recovery reads below one copy of the durable state");
  MVIO_CHECK(gc.reclaimedBytes > 0, "compaction must reclaim durable bytes");
  std::printf("%s\n", elastic.str().c_str());
  std::printf("note: pairs must be identical on every row of all three tables. Durable\n"
              "checkpoint bytes grow as the epoch interval shrinks; replayed rounds shrink as\n"
              "the kill point moves past more sealed epochs; sharding divides replay reads\n"
              "across survivors and compaction reclaims the folded delta history.\n");
  return 0;
}
