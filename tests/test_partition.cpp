// File partitioning tests (Algorithm 1 + overlap strategy): the key
// invariant is lossless record ownership — across any process count,
// block size, strategy and access level, the union of all ranks' text
// must contain every record of the file exactly once.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <mutex>
#include <vector>

#include "core/file_partition.hpp"
#include "core/parser.hpp"
#include "io/file.hpp"
#include "mpi/runtime.hpp"
#include "pfs/lustre.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;

namespace {

/// Build a WKT-ish file of `n` variable-length records; returns the text
/// and the multiset of records for validation.
std::pair<std::string, std::map<std::string, int>> makeRecordFile(std::uint64_t seed, int n,
                                                                  bool trailingNewline = true) {
  mvio::util::Rng rng(seed);
  std::string text;
  std::map<std::string, int> expect;
  for (int i = 0; i < n; ++i) {
    std::string rec = "REC" + std::to_string(i) + ":";
    const auto len = rng.below(120);  // records from ~6 to ~130 bytes
    for (std::uint64_t k = 0; k < len; ++k) rec += static_cast<char>('a' + rng.below(26));
    expect[rec]++;
    text += rec;
    if (i + 1 < n || trailingNewline) text += '\n';
  }
  return {text, expect};
}

std::map<std::string, int> splitRecords(const std::string& text) {
  std::map<std::string, int> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    if (end > pos) out[text.substr(pos, end - pos)]++;
    if (end == text.size()) break;
    pos = end + 1;
  }
  return out;
}

std::shared_ptr<mp::Volume> volumeWith(const std::string& name, std::string content,
                                       mp::StripeSettings stripe = {1 << 10, 4}) {
  mp::LustreParams params;
  params.nodes = 8;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  vol->create(name, std::make_shared<mp::MemoryBackingStore>(std::move(content)), stripe);
  return vol;
}

struct Combo {
  int nprocs;
  std::uint64_t blockSize;  // 0 = equal split
  mc::BoundaryStrategy strategy;
  bool collective;
};

void runLossless(const Combo& combo, std::uint64_t seed, int records, bool trailingNewline) {
  auto [text, expect] = makeRecordFile(seed, records, trailingNewline);
  auto vol = volumeWith("data", text);

  std::mutex mu;
  std::map<std::string, int> got;
  std::uint64_t totalFragments = 0;

  mm::Runtime::run(combo.nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    auto file = mvio::io::File::open(comm, *vol, "data");
    mc::PartitionConfig cfg;
    cfg.blockSize = combo.blockSize;
    cfg.maxGeometryBytes = 512;  // records are small
    cfg.strategy = combo.strategy;
    cfg.collectiveRead = combo.collective;
    const mc::PartitionResult res = mc::readPartitioned(comm, file, cfg);

    auto local = splitRecords(res.text);
    std::lock_guard<std::mutex> lock(mu);
    for (auto& [rec, cnt] : local) got[rec] += cnt;
    totalFragments += res.fragmentsSent;
  });

  EXPECT_EQ(got, expect) << "nprocs=" << combo.nprocs << " block=" << combo.blockSize
                         << " strategy=" << (combo.strategy == mc::BoundaryStrategy::kMessage ? "msg" : "ovl")
                         << " collective=" << combo.collective;
  if (combo.strategy == mc::BoundaryStrategy::kOverlap) {
    EXPECT_EQ(totalFragments, 0u);
  }
}

/// Every rank's PartitionResult, indexed by rank.
std::vector<mc::PartitionResult> readEveryRank(int nprocs, mp::Volume& vol,
                                               const mc::PartitionConfig& cfg) {
  std::vector<mc::PartitionResult> out(static_cast<std::size_t>(nprocs));
  mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    auto file = mvio::io::File::open(comm, vol, "data");
    out[static_cast<std::size_t>(comm.rank())] = mc::readPartitioned(comm, file, cfg);
  });
  return out;
}

std::map<std::string, int> unionOfRecords(const std::vector<mc::PartitionResult>& results) {
  std::map<std::string, int> got;
  for (const auto& res : results) {
    for (const auto& [rec, cnt] : splitRecords(res.text)) got[rec] += cnt;
  }
  return got;
}

}  // namespace

TEST(Partition, SingleRankGetsWholeFile) {
  runLossless({1, 0, mc::BoundaryStrategy::kMessage, false}, 1, 50, true);
}

TEST(Partition, FileWithoutTrailingNewline) {
  runLossless({4, 0, mc::BoundaryStrategy::kMessage, false}, 2, 80, false);
  runLossless({4, 0, mc::BoundaryStrategy::kOverlap, false}, 2, 80, false);
}

TEST(Partition, MoreRanksThanRecords) {
  runLossless({12, 0, mc::BoundaryStrategy::kMessage, false}, 3, 5, true);
}

class PartitionSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, int, bool>> {};

TEST_P(PartitionSweep, LosslessOwnership) {
  const auto [nprocs, blockSize, strategyInt, collective] = GetParam();
  const auto strategy = strategyInt == 0 ? mc::BoundaryStrategy::kMessage : mc::BoundaryStrategy::kOverlap;
  runLossless({nprocs, blockSize, strategy, collective}, 77 + static_cast<std::uint64_t>(nprocs), 400,
              true);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PartitionSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),          // process counts
                       ::testing::Values(0ull, 700ull, 2048ull),  // block sizes (0 = equal split)
                       ::testing::Values(0, 1),                   // strategy
                       ::testing::Values(false, true)));          // Level 0 vs Level 1

TEST(Partition, MessageStrategySendsFragments) {
  auto [text, expect] = makeRecordFile(5, 500, true);
  auto vol = volumeWith("data", text);
  std::atomic<std::uint64_t> fragments{0};
  std::atomic<std::uint64_t> iterations{0};
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    auto file = mvio::io::File::open(comm, *vol, "data");
    mc::PartitionConfig cfg;
    cfg.blockSize = 512;
    cfg.maxGeometryBytes = 512;
    const auto res = mc::readPartitioned(comm, file, cfg);
    fragments += res.fragmentsSent;
    iterations = res.iterations;
  });
  EXPECT_GT(fragments.load(), 0u);
  EXPECT_GT(iterations.load(), 1u);  // multi-iteration path exercised
}

TEST(Partition, OverlapReadsRedundantBytes) {
  auto [text, expect] = makeRecordFile(6, 500, true);
  const std::uint64_t fileSize = text.size();
  auto vol = volumeWith("data", text);
  std::atomic<std::uint64_t> msgBytes{0}, ovlBytes{0};
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    auto file = mvio::io::File::open(comm, *vol, "data");
    mc::PartitionConfig cfg;
    cfg.blockSize = 2048;
    cfg.maxGeometryBytes = 512;
    cfg.strategy = mc::BoundaryStrategy::kMessage;
    msgBytes += mc::readPartitioned(comm, file, cfg).bytesRead;
    cfg.strategy = mc::BoundaryStrategy::kOverlap;
    ovlBytes += mc::readPartitioned(comm, file, cfg).bytesRead;
  });
  EXPECT_EQ(msgBytes.load(), fileSize);     // non-overlapping blocks read once
  EXPECT_GT(ovlBytes.load(), fileSize);     // halo regions are redundant
}

TEST(Partition, RecordLargerThanBlockFailsLoudly) {
  std::string text = "short\n" + std::string(5000, 'x') + "\nend\n";
  auto vol = volumeWith("data", text);
  // Reads under `strategy` and rethrows its error after checking the
  // message names the intended boundary check.
  const auto readRejected = [&](mc::BoundaryStrategy strategy, const std::string& why) {
    try {
      mm::Runtime::run(2, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
        auto file = mvio::io::File::open(comm, *vol, "data");
        mc::PartitionConfig cfg;
        cfg.blockSize = 256;  // smaller than the 5000-byte record
        cfg.maxGeometryBytes = 100;
        cfg.strategy = strategy;
        mc::readPartitioned(comm, file, cfg);
      });
    } catch (const mvio::util::Error& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos) << e.what();
      throw;
    }
  };
  EXPECT_THROW(readRejected(mc::BoundaryStrategy::kMessage, "no record boundary inside a file block"),
               mvio::util::Error);
  EXPECT_THROW(readRejected(mc::BoundaryStrategy::kOverlap, "record extends past the halo region"),
               mvio::util::Error);
}

TEST(Partition, EmptyFileRejected) {
  auto vol = volumeWith("data", "x");  // placeholder; create empty separately
  vol->createOrReplace("empty", std::make_shared<mp::MemoryBackingStore>(std::string()));
  EXPECT_THROW(mm::Runtime::run(2,
                                [&](mm::Comm& comm) {
                                  auto file = mvio::io::File::open(comm, *vol, "empty");
                                  mc::readPartitioned(comm, file, mc::PartitionConfig{});
                                }),
               mvio::util::Error);
}

TEST(Partition, TextOrderPreservedWithinRank) {
  // Records assigned to a rank appear in file order in its text.
  auto [text, expect] = makeRecordFile(8, 300, true);
  auto vol = volumeWith("data", text);
  mm::Runtime::run(3, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    auto file = mvio::io::File::open(comm, *vol, "data");
    mc::PartitionConfig cfg;
    cfg.blockSize = 1024;
    cfg.maxGeometryBytes = 512;
    const auto res = mc::readPartitioned(comm, file, cfg);
    // Record ids must be strictly increasing within this rank's text.
    long last = -1;
    std::size_t pos = 0;
    while ((pos = res.text.find("REC", pos)) != std::string::npos) {
      const long id = std::strtol(res.text.c_str() + pos + 3, nullptr, 10);
      EXPECT_GT(id, last);
      last = id;
      pos += 3;
    }
  });
}

TEST(Partition, EqualSplitReachesEveryRank) {
  // A file far below nprocs x maxGeometryBytes (the default 11 MiB bound)
  // is still split equally: every rank reads its share and keeps records.
  auto [text, expect] = makeRecordFile(9, 3000, true);
  const std::uint64_t fileSize = text.size();
  ASSERT_GT(fileSize, 150'000u);
  auto vol = volumeWith("data", text);
  constexpr int kProcs = 4;
  const std::uint64_t share = (fileSize + kProcs - 1) / kProcs;

  for (const auto strategy : {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
    for (const bool collective : {false, true}) {
      mc::PartitionConfig cfg;
      cfg.strategy = strategy;
      cfg.collectiveRead = collective;
      const auto results = readEveryRank(kProcs, *vol, cfg);
      const bool message = strategy == mc::BoundaryStrategy::kMessage;
      SCOPED_TRACE(std::string(message ? "msg" : "ovl") + (collective ? " level1" : " level0"));

      EXPECT_EQ(unionOfRecords(results), expect);
      std::uint64_t total = 0;
      for (int r = 0; r < kProcs; ++r) {
        const auto& res = results[static_cast<std::size_t>(r)];
        EXPECT_FALSE(res.text.empty()) << "rank " << r;
        EXPECT_EQ(res.iterations, 1u);
        if (message) {
          const std::uint64_t mine = r + 1 < kProcs ? share : fileSize - (kProcs - 1) * share;
          EXPECT_EQ(res.bytesRead, mine) << "rank " << r;
        }
        total += res.bytesRead;
      }
      if (message) EXPECT_EQ(total, fileSize);
    }
  }
}

TEST(Partition, OversizedRecordFallsBack) {
  // One 5,000-byte record is longer than a third of the file, so the
  // middle of three equal blocks holds no record boundary. kMessage falls
  // back to the clamped block (here the whole file on rank 0) and reads
  // again; kOverlap's halo covers the record without a second read.
  std::string text;
  std::map<std::string, int> expect;
  const auto add = [&](const std::string& rec) {
    text += rec + "\n";
    expect[rec]++;
  };
  for (int i = 0; i < 40; ++i) add("head" + std::to_string(i));
  add(std::string(5000, 'x'));
  for (int i = 0; i < 40; ++i) add("tail" + std::to_string(i));
  const std::uint64_t fileSize = text.size();
  ASSERT_GT(5000u, fileSize / 3);
  auto vol = volumeWith("data", text);
  constexpr int kProcs = 3;
  const std::uint64_t share = (fileSize + kProcs - 1) / kProcs;

  for (const auto strategy : {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
    mc::PartitionConfig cfg;
    cfg.strategy = strategy;
    const auto results = readEveryRank(kProcs, *vol, cfg);
    EXPECT_EQ(unionOfRecords(results), expect);
    if (strategy == mc::BoundaryStrategy::kMessage) {
      // The first read gave each rank its equal share; the re-read gave
      // the whole file to rank 0 alone.
      EXPECT_EQ(results[0].bytesRead, share + fileSize);
      EXPECT_EQ(results[1].bytesRead, share);
      EXPECT_EQ(results[2].bytesRead, fileSize - 2 * share);
      EXPECT_EQ(results[0].text, text);
      for (const auto& res : results) EXPECT_EQ(res.iterations, 1u);
    }
  }
}

namespace {

/// One rank's streamed read: each next() call's text and extents, the
/// read counters and the virtual seconds the reads took.
struct StreamedRead {
  std::vector<std::string> texts;
  std::vector<std::vector<mc::FileExtent>> extents;
  mc::PartitionResult counters;
  double seconds = 0;
};

std::vector<StreamedRead> streamEveryRank(int nprocs, mp::Volume& vol, const std::string& name,
                                          const mc::PartitionConfig& cfg,
                                          std::uint64_t chunkBytes) {
  std::vector<StreamedRead> out(static_cast<std::size_t>(nprocs));
  mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    StreamedRead& mine = out[static_cast<std::size_t>(comm.rank())];
    auto file = mvio::io::File::open(comm, vol, name);
    const double t0 = comm.clock().now();
    mc::PartitionReader reader(comm, file, cfg, chunkBytes);
    std::string text;
    while (reader.next(text)) {
      mine.texts.push_back(text);
      mine.extents.push_back(reader.extents());
    }
    mine.seconds = comm.clock().now() - t0;
    mine.counters = reader.counters();
  });
  return out;
}

}  // namespace

// Read-ahead moves only when each request reaches the storage model. A
// file striped 256 B x 16 reads ahead (window up to 4 KiB, so every
// stream's last windows cross EOF); the same bytes on one 64-byte stripe
// give a one-request window, the blocking streamed read. Every next()
// call's text and extents must match between the two, and their
// concatenation must match the blocking one-shot read with the chunk as
// its block size.
TEST(Partition, StreamedReadAheadKeepsText) {
  const auto [text, expect] = makeRecordFile(31, 700, true);
  auto vol = volumeWith("ahead", text, {256, 16});
  vol->create("blocking", std::make_shared<mp::MemoryBackingStore>(text), {64, 1});

  for (const auto strategy : {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
    for (const std::uint64_t chunk : {300ull, 700ull, 2048ull}) {
      for (int nprocs = 1; nprocs <= 5; ++nprocs) {
        SCOPED_TRACE(std::string(strategy == mc::BoundaryStrategy::kMessage ? "msg" : "ovl") +
                     " chunk=" + std::to_string(chunk) + " nprocs=" + std::to_string(nprocs));
        mc::PartitionConfig cfg;
        cfg.maxGeometryBytes = 512;
        cfg.strategy = strategy;
        const auto ahead = streamEveryRank(nprocs, *vol, "ahead", cfg, chunk);
        const auto blocking = streamEveryRank(nprocs, *vol, "blocking", cfg, chunk);
        cfg.blockSize = chunk;
        std::vector<std::vector<mc::FileExtent>> oneShotExtents(static_cast<std::size_t>(nprocs));
        std::vector<std::string> oneShotText(static_cast<std::size_t>(nprocs));
        mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
          auto file = mvio::io::File::open(comm, *vol, "blocking");
          mc::PartitionReader reader(comm, file, cfg, mc::PartitionReader::kWholePartition);
          std::string t;
          reader.next(t);
          oneShotText[static_cast<std::size_t>(comm.rank())] = t;
          oneShotExtents[static_cast<std::size_t>(comm.rank())] = reader.extents();
        });
        std::map<std::string, int> got;
        for (int r = 0; r < nprocs; ++r) {
          const StreamedRead& a = ahead[static_cast<std::size_t>(r)];
          const StreamedRead& b = blocking[static_cast<std::size_t>(r)];
          EXPECT_EQ(a.texts, b.texts) << "rank " << r;
          EXPECT_EQ(a.extents, b.extents) << "rank " << r;
          EXPECT_EQ(a.counters.bytesRead, b.counters.bytesRead) << "rank " << r;
          EXPECT_EQ(a.counters.iterations, b.counters.iterations) << "rank " << r;
          std::string joined;
          std::vector<mc::FileExtent> extents;
          for (std::size_t i = 0; i < a.texts.size(); ++i) {
            joined += a.texts[i];
            extents.insert(extents.end(), a.extents[i].begin(), a.extents[i].end());
          }
          EXPECT_EQ(joined, oneShotText[static_cast<std::size_t>(r)]) << "rank " << r;
          EXPECT_EQ(extents, oneShotExtents[static_cast<std::size_t>(r)]) << "rank " << r;
          for (const auto& [rec, cnt] : splitRecords(joined)) got[rec] += cnt;
        }
        EXPECT_EQ(got, expect);
      }
    }
  }

  // A kMessage fallback that fires with reads in flight: one 900-byte
  // record leaves a later 256-byte block without a boundary while the
  // window is posted well past it. The dropped requests were read, so the
  // read-ahead side reports more bytes; the text is the same.
  std::string big;
  std::map<std::string, int> bigExpect;
  for (int i = 0; i < 200; ++i) {
    const std::string rec = i == 40 ? std::string(900, 'z') : "rec" + std::to_string(i);
    big += rec + "\n";
    bigExpect[rec]++;
  }
  vol->createOrReplace("ahead", std::make_shared<mp::MemoryBackingStore>(big), {256, 16});
  vol->createOrReplace("blocking", std::make_shared<mp::MemoryBackingStore>(big), {64, 1});
  mc::PartitionConfig cfg;
  cfg.maxGeometryBytes = 1024;
  for (int nprocs = 1; nprocs <= 3; ++nprocs) {
    SCOPED_TRACE("fallback nprocs=" + std::to_string(nprocs));
    const auto ahead = streamEveryRank(nprocs, *vol, "ahead", cfg, 256);
    const auto blocking = streamEveryRank(nprocs, *vol, "blocking", cfg, 256);
    std::uint64_t aheadBytes = 0, blockingBytes = 0;
    std::map<std::string, int> got;
    for (int r = 0; r < nprocs; ++r) {
      const StreamedRead& a = ahead[static_cast<std::size_t>(r)];
      EXPECT_EQ(a.texts, blocking[static_cast<std::size_t>(r)].texts) << "rank " << r;
      EXPECT_EQ(a.extents, blocking[static_cast<std::size_t>(r)].extents) << "rank " << r;
      aheadBytes += a.counters.bytesRead;
      blockingBytes += blocking[static_cast<std::size_t>(r)].counters.bytesRead;
      for (const std::string& t : a.texts) {
        for (const auto& [rec, cnt] : splitRecords(t)) got[rec] += cnt;
      }
    }
    EXPECT_EQ(got, bigExpect);
    EXPECT_GT(blockingBytes, big.size()) << "the fallback must have re-read a block";
    EXPECT_GT(aheadBytes, blockingBytes) << "the fallback must have dropped posted reads";
  }
}

// The paper's Lustre mechanism: read bandwidth grows with the OSTs serving
// a file at once. Two ranks streaming 512 KiB chunks cover one 1 MiB
// stripe per iteration; with the window posted, all four stripes of a
// 4 x 1 MiB file are in flight, and the read runs within 1.25x of the
// lesser of the four OSTs' rate and the clients' cap. A one-stripe file
// has nothing to spread over and reads at the one-OST rate.
TEST(Partition, ReadAheadFillsTheStripeSet) {
  constexpr std::uint64_t kMiB = 1ull << 20;
  std::string text;
  const std::string line = std::string(99, 'r') + "\n";
  while (text.size() < 8 * kMiB) text += line;
  mp::LustreParams params;
  params.nodes = 8;
  params.ostLatency = 5.0e-5;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  vol->create("striped", std::make_shared<mp::MemoryBackingStore>(text), {kMiB, 4});
  vol->create("single", std::make_shared<mp::MemoryBackingStore>(text), {kMiB, 1});

  std::set<int> nodes;
  mm::Runtime::run(2, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    if (comm.rank() == 0) {
      for (int r = 0; r < comm.size(); ++r) nodes.insert(comm.nodeOfRank(r));
    }
  });
  const double clientCap = params.clientBandwidth * static_cast<double>(nodes.size());
  const auto readSeconds = [&](const std::string& name) {
    vol->model().reset();
    double seconds = 0;
    std::uint64_t bytes = 0;
    for (const StreamedRead& r : streamEveryRank(2, *vol, name, {}, kMiB / 2)) {
      seconds = std::max(seconds, r.seconds);
      bytes += r.counters.bytesRead;
    }
    EXPECT_EQ(bytes, text.size()) << name;
    return seconds;
  };
  const double bytes = static_cast<double>(text.size());
  const double striped = readSeconds("striped");
  EXPECT_LE(striped, 1.25 * bytes / std::min(4 * params.ostBandwidth, clientCap));
  const double single = readSeconds("single");
  EXPECT_GE(single, bytes / params.ostBandwidth);
  EXPECT_LE(single, 1.25 * bytes / std::min(params.ostBandwidth, clientCap));
}
