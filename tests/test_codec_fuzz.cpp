// Durable-codec fuzz (DESIGN.md §11): every checkpoint artifact the
// recovery path trusts — batch shards, shard-set manifests (epoch deltas
// and the base), ingest manifests, and epoch seals — must reject *every*
// single-bit flip and *every* truncation of a well-formed blob: a
// corrupted artifact may never crash the reader and may never silently
// load. The checksums make this exhaustive check cheap. Manifests, seals
// and maps end in FNV-1a, each of whose per-byte steps is a bijection on
// the 64-bit state, so a one-byte change always changes the checksum.
// Shards carry CRC-32C, which catches every burst of at most 32 bits.
// Neither is a MAC, though: a writer can recompute it, so the decoders
// must also bound every count in a checksum-valid blob by the bytes it
// actually holds, and check every length and every record's structure
// before they leave their output changed (the Crafted* cases).
//
// Deliberately runtime-free (no simulated communicator): pure unit
// coverage that the ASan preset exercises on every CI run.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/format.hpp"
#include "core/parser.hpp"
#include "core/partition_map.hpp"
#include "geom/batch_shard.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "pfs/lustre.hpp"
#include "pfs/spill_store.hpp"
#include "recovery/checkpoint.hpp"
#include "util/bytes.hpp"
#include "util/crc32c.hpp"
#include "util/error.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mp = mvio::pfs;
namespace mr = mvio::recovery;

namespace {

std::shared_ptr<mp::Volume> smallVolume() {
  mp::LustreParams params;
  params.nodes = 2;
  return std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
}

/// All seven OGC types with userData, so the shard payload exercises
/// every column and both arenas.
mg::GeometryBatch mixedBatch() {
  const char* wkts[] = {
      "POINT (3 3)",
      "LINESTRING (0 0, 10 10, 12 4)",
      "POLYGON ((1 1, 9 1, 9 9, 1 9, 1 1))",
      "MULTIPOINT ((1 1), (11 11), (-3 4))",
      "MULTILINESTRING ((0 0, 4 0), (6 6, 6 14, 14 14))",
      "MULTIPOLYGON (((0 0, 3 0, 3 3, 0 3, 0 0)), ((10 10, 14 10, 14 14, 10 14, 10 10)))",
      "GEOMETRYCOLLECTION (POINT (2 8), LINESTRING (8 2, 12 2), "
      "POLYGON ((4 4, 7 4, 7 7, 4 7, 4 4)))",
  };
  mg::GeometryBatch batch;
  int cell = 0;
  for (const char* w : wkts) {
    mg::Geometry g = mg::readWkt(w);
    g.userData = std::string("attr-") + std::to_string(cell);
    batch.append(g, cell);
    ++cell;
  }
  return batch;
}

/// Drive `tryLoad` with the pristine blob (must load), then with every
/// single-bit flip and every truncation (must all reject — return false
/// or throw util::Error, never crash, never load garbage).
void fuzzBlob(const std::string& good, const std::function<bool(const std::string&)>& tryLoad,
              const char* what) {
  ASSERT_TRUE(tryLoad(good)) << what << ": the pristine blob must load";
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string mutated = good;
    mutated[i] = static_cast<char>(mutated[i] ^ (1u << (i % 8)));
    EXPECT_FALSE(tryLoad(mutated)) << what << ": accepted a bit flip at byte " << i;
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(tryLoad(good.substr(0, len))) << what << ": accepted truncation to " << len
                                               << " of " << good.size() << " bytes";
  }
}

/// The util::Error message `body` throws ("" when it returns).
std::string rejection(const std::function<void()>& body) {
  try {
    body();
  } catch (const mvio::util::Error& e) {
    return e.what();
  }
  return "";
}

/// Wrap a thrower: rejection-by-util::Error counts as a clean reject.
bool noThrow(const std::function<void()>& body) {
  try {
    body();
    return true;
  } catch (const mvio::util::Error&) {
    return false;
  }
}

}  // namespace

TEST(CodecFuzz, BatchShardRejectsCorruption) {
  const mg::GeometryBatch batch = mixedBatch();
  std::string good;
  mg::encodeShard(batch, good);
  fuzzBlob(good,
           [&](const std::string& blob) {
             mg::GeometryBatch out;
             return noThrow([&] { mg::decodeShard(blob, out); }) && out.size() == batch.size();
           },
           "BatchShard");
}

TEST(CodecFuzz, EpochSealRejectsCorruption) {
  mr::EpochSeal seal;
  seal.epoch = 3;
  seal.roundsCompleted = 6;
  seal.worldSize = 2;
  seal.cellOwner = {0, 1, 0, 1, 0, 1, 0, 1};
  seal.cellLoads = {5, 0, 7, 1, 0, 0, 9, 2};
  seal.rankManifestChecksums = {0x1111111111111111ull, 0x2222222222222222ull};
  const std::string good = mr::encodeEpochSeal(seal);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_seal";
  mp::SpillStore store(*volume, mr::globalPrefix(dir));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("ep3.seal", std::string(blob));
             const auto got = mr::readEpochSeal(*volume, dir, 3);
             return got.has_value() && got->epoch == 3 && got->cellOwner == seal.cellOwner;
           },
           "EpochSeal");
}

namespace {

/// A small grouped (non-uniform) map: 4x4 grid split into quadrant-ish
/// partition cells via the quadtree builder on a skewed sample pile.
mc::PartitionMap groupedMap() {
  const mc::GridSpec grid(mg::Envelope(0, 0, 16, 16), 4, 4);
  mc::PartitionerConfig cfg;
  cfg.scheme = mc::PartitionScheme::kQuadtree;
  cfg.targetCells = 4;
  std::vector<mg::Envelope> samples;
  for (int i = 0; i < 200; ++i) {
    const double d = 0.01 * i;
    samples.emplace_back(1.0 + d, 1.0, 1.5 + d, 1.5);
  }
  samples.emplace_back(12.0, 12.0, 13.0, 13.0);
  return mc::buildPartitionMap(cfg, grid, samples, 2);
}

}  // namespace

TEST(CodecFuzz, PartitionMapRejectsCorruption) {
  const mc::PartitionMap map = groupedMap();
  ASSERT_FALSE(map.isUniform()) << "fixture must produce a grouped map";
  const std::string good = mc::encodePartitionMap(map);
  fuzzBlob(good,
           [&](const std::string& blob) {
             const auto got = mc::decodePartitionMap(blob);
             return got.has_value() && *got == map;
           },
           "PartitionMap");
  // The uniform map's (group-free) encoding must hold the same line.
  const mc::PartitionMap uni = mc::PartitionMap::uniform(map.grid());
  fuzzBlob(mc::encodePartitionMap(uni),
           [&](const std::string& blob) {
             const auto got = mc::decodePartitionMap(blob);
             return got.has_value() && *got == uni;
           },
           "PartitionMap(uniform)");
}

TEST(CodecFuzz, EpochSealWithPartitionMapRejectsCorruption) {
  // A v2 seal carrying an embedded adaptive map: corruption anywhere —
  // seal header, arrays, embedded map bytes, or checksums — must reject
  // the whole seal (the embedded map is re-validated by its own codec).
  const mc::PartitionMap map = groupedMap();
  mr::EpochSeal seal;
  seal.epoch = 5;
  seal.roundsCompleted = 10;
  seal.worldSize = 2;
  seal.cellOwner.assign(static_cast<std::size_t>(map.cellCount()), 0);
  seal.cellLoads.assign(static_cast<std::size_t>(map.cellCount()), 3);
  seal.rankManifestChecksums = {0xaaaaull, 0xbbbbull};
  seal.partitionMap = mc::encodePartitionMap(map);
  const std::string good = mr::encodeEpochSeal(seal);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_seal_map";
  mp::SpillStore store(*volume, mr::globalPrefix(dir));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("ep5.seal", std::string(blob));
             const auto got = mr::readEpochSeal(*volume, dir, 5);
             return got.has_value() && got->epoch == 5 && got->partitionMap == seal.partitionMap;
           },
           "EpochSeal(v2+map)");
}

namespace {

/// The delta and base manifests the golden and fuzz cases share.
mr::ShardSetManifest deltaManifest() {
  mr::ShardSetManifest set;
  set.epoch = 1;
  set.rounds = 2;
  set.records[0] = 7;
  set.records[1] = 3;
  set.shards[0] = {{128, 0xabcdefull}, {64, 0x123456ull}};
  set.shards[1] = {{32, 0x777777ull}};
  return set;
}

mr::ShardSetManifest baseManifest() {
  mr::ShardSetManifest set;
  set.base = true;
  set.epoch = 2;
  set.rounds = 4;
  set.records[0] = 21;
  set.records[1] = 9;
  set.shards[0] = {{256, 0xfeedull}};
  set.shards[1] = {{96, 0xbeefull}, {48, 0xcafeull}};
  return set;
}

std::string toHex(const std::string& bytes) {
  static const char* kDigits = "0123456789abcdef";
  std::string hex;
  for (const unsigned char c : bytes) {
    hex += kDigits[c >> 4];
    hex += kDigits[c & 15];
  }
  return hex;
}

}  // namespace

TEST(CodecFuzz, ShardSetManifestBytesAreStable) {
  // Durable bytes pinned to the layout both manifest kinds have always
  // had (MVCR delta / MVCB base): a checkpoint written before the shared
  // codec must still read back, and vice versa.
  EXPECT_EQ(toHex(mr::encodeShardSetManifest(deltaManifest())),
            "4d56435201000000010000000000000002000000000000000700000000000000"
            "02000000000000008000000000000000efcdab00000000004000000000000000"
            "5634120000000000030000000000000001000000000000002000000000000000"
            "777777000000000054581215bd857638");
  EXPECT_EQ(toHex(mr::encodeShardSetManifest(baseManifest())),
            "4d56434201000000020000000000000004000000000000001500000000000000"
            "01000000000000000001000000000000edfe0000000000000900000000000000"
            "02000000000000006000000000000000efbe0000000000003000000000000000"
            "feca000000000000bad68750c41a44a3");
}

TEST(CodecFuzz, RankManifestRejectsCorruption) {
  const std::string good = mr::encodeShardSetManifest(deltaManifest());

  auto volume = smallVolume();
  const std::string dir = "__fuzz_manifest";
  mp::SpillStore store(*volume, mr::rankPrefix(dir, 0));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("ep1.manifest", std::string(blob));
             const auto got = mr::readShardSetManifest(*volume, dir, 0, /*base=*/false, 1);
             return got.has_value() && got->records[0] == 7 && got->shards[0].size() == 2;
           },
           "ShardSetManifest(delta)");
}

TEST(CodecFuzz, BaseManifestRejectsCorruption) {
  const std::string good = mr::encodeShardSetManifest(baseManifest());

  auto volume = smallVolume();
  const std::string dir = "__fuzz_base";
  mp::SpillStore store(*volume, mr::rankPrefix(dir, 0));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("base.manifest", std::string(blob));
             const auto got = mr::readShardSetManifest(*volume, dir, 0, /*base=*/true, 0);
             return got.has_value() && got->epoch == 2 && got->shards[1].size() == 2;
           },
           "ShardSetManifest(base)");
}

namespace {

/// An extent log over a 1000-byte R input and a 500-byte S input: a
/// one-shot chunk of two extents, an empty chunk, a streamed chunk, and
/// two S chunks.
mr::IngestLog extentLog() {
  mr::IngestLog log;
  log.chunks[0] = {{{{0, 120}, {480, 140}}, 0x1234abcdu}, {{}, 0}, {{{620, 380}}, 0xfedcba98u}};
  log.chunks[1] = {{{{0, 250}}, 0x1u}, {{{250, 250}}, 0xffffffffu}};
  return log;
}

constexpr std::array<std::uint64_t, 2> kExtentLogInputs = {1000, 500};

/// A checksum-valid ingest manifest of `words` after the magic and version.
std::string craftIngestManifest(const std::vector<std::uint64_t>& words) {
  std::string blob;
  mvio::util::putScalar<std::uint32_t>(blob, 0x4943564Du);  // "MVCI"
  mvio::util::putScalar<std::uint32_t>(blob, 2);            // extent-log version
  for (const std::uint64_t w : words) mvio::util::putScalar<std::uint64_t>(blob, w);
  mvio::util::putScalar<std::uint64_t>(blob, mvio::util::fnv1a(blob.data(), blob.size()));
  return blob;
}

}  // namespace

TEST(CodecFuzz, IngestManifestRejectsCorruption) {
  const mr::IngestLog log = extentLog();
  const std::string good = mr::encodeIngestManifest(log);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_ingest";
  mp::SpillStore store(*volume, mr::rankPrefix(dir, 0));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("ing.manifest", std::string(blob));
             mr::IngestLog got;
             return noThrow([&] { got = mr::readIngestLog(*volume, dir, 0, kExtentLogInputs); }) &&
                    got == log;
           },
           "IngestManifest");
}

TEST(CodecFuzz, CraftedIngestManifestRejects) {
  // Checksum-valid manifests whose counts or extents lie: each must be a
  // util::Error before any count sizes a vector (2^40 extents of 16 bytes
  // would ask for 16 TiB).
  auto volume = smallVolume();
  const std::string dir = "__fuzz_crafted_ingest";
  mp::SpillStore store(*volume, mr::rankPrefix(dir, 0));
  const auto rejects = [&](const std::vector<std::uint64_t>& words, const std::string& why) {
    store.put("ing.manifest", craftIngestManifest(words));
    const std::string msg =
        rejection([&] { (void)mr::readIngestLog(*volume, dir, 0, kExtentLogInputs); });
    EXPECT_NE(msg.find(why), std::string::npos) << "got \"" << msg << "\"";
  };
  // The well-formed baseline: one R chunk of one extent, no S chunks.
  store.put("ing.manifest", craftIngestManifest({1, 1, 7, 100, 900, 0}));
  const mr::IngestLog ok = mr::readIngestLog(*volume, dir, 0, kExtentLogInputs);
  ASSERT_EQ(ok.chunks[0].size(), 1u);
  EXPECT_EQ(ok.chunks[0][0].extents, (std::vector<mc::FileExtent>{{100, 900}}));

  rejects({1, 1ull << 40, 7, 100, 900, 0}, "count exceeds its bytes");
  rejects({1ull << 40, 1, 7, 100, 900, 0}, "count exceeds its bytes");
  rejects({1, 1, 7, 100, 901, 0}, "ends past its input file");
  rejects({1, 1, 7, ~std::uint64_t{0} - 7, 16, 0}, "ends past its input file");
  rejects({0, 1, 1, 7, 0, 501}, "ends past its input file");
  rejects({1, 1, 1ull << 32, 100, 900, 0}, "corrupt ingest manifest");
  rejects({1, 1, 7, 100, 900, 0, 0}, "corrupt ingest manifest");
}

TEST(CodecFuzz, TornSealTailsAlwaysReject) {
  // The exact failure mode tearEpochSeal injects: a seal prefix of any
  // length — including zero — must never validate.
  mr::EpochSeal seal;
  seal.epoch = 2;
  seal.roundsCompleted = 4;
  seal.worldSize = 1;
  seal.cellOwner = {0, 0, 0, 0};
  seal.cellLoads = {1, 2, 3, 4};
  seal.rankManifestChecksums = {0x42ull};
  const std::string good = mr::encodeEpochSeal(seal);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_torn";
  mp::SpillStore store(*volume, mr::globalPrefix(dir));
  for (std::size_t len = 0; len < good.size(); ++len) {
    store.put("ep2.seal", good.substr(0, len));
    EXPECT_FALSE(mr::readEpochSeal(*volume, dir, 2).has_value())
        << "a torn ep2.seal of " << len << " bytes validated";
    // And the full scan must agree the epoch is unusable.
    EXPECT_FALSE(mr::findLastSealedEpoch(*volume, dir, 1, 2).has_value());
  }
}

// ---- Crafted blobs: checksum-valid, hostile counts ------------------------
//
// Each blob below carries a correct checksum around a count the bytes
// cannot back, or (shards) a record whose lengths or shape stream do not
// hold together. The decoder must reject it before the count sizes any
// allocation — never over-read, never wrap a size product — and a
// rejected shard leaves the batch it decodes into as it was.

TEST(CodecFuzz, CraftedSealWithNegativeWorldSizeRejects) {
  // worldSize 0xFFFFFFFD is -3 as an int; with 2 cells the unchecked
  // array-end sum wraps back to exactly this 44-byte blob.
  std::string blob;
  mvio::util::putScalar<std::uint32_t>(blob, 0x4743564Du);  // "MVCG"
  mvio::util::putScalar<std::uint32_t>(blob, 2);            // seal version
  mvio::util::putScalar<std::uint64_t>(blob, 1);            // epoch
  mvio::util::putScalar<std::uint64_t>(blob, 1);            // rounds completed
  mvio::util::putScalar<std::uint32_t>(blob, 0xFFFFFFFDu);  // worldSize
  mvio::util::putScalar<std::uint32_t>(blob, 2);            // cells
  mvio::util::putScalar<std::uint32_t>(blob, 0);            // partition-map bytes
  mvio::util::putScalar<std::uint64_t>(blob, mvio::util::fnv1a(blob.data(), blob.size()));
  ASSERT_EQ(blob.size(), 44u);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_crafted_seal";
  mp::SpillStore store(*volume, mr::globalPrefix(dir));
  store.put("ep1.seal", std::move(blob));
  EXPECT_FALSE(mr::readEpochSeal(*volume, dir, 1).has_value());
}

TEST(CodecFuzz, CraftedManifestShardCountRejects) {
  // shards = 2^60: times 16 bytes per ref the product wraps to 0, which
  // an unchecked comparison against the 0 bytes left would accept.
  std::string blob;
  mvio::util::putScalar<std::uint32_t>(blob, 0x5243564Du);  // "MVCR"
  mvio::util::putScalar<std::uint32_t>(blob, 1);            // version
  mvio::util::putScalar<std::uint64_t>(blob, 1);            // epoch
  mvio::util::putScalar<std::uint64_t>(blob, 2);            // rounds
  mvio::util::putScalar<std::uint64_t>(blob, 0);            // layer-0 records
  mvio::util::putScalar<std::uint64_t>(blob, 1ull << 60);   // layer-0 shards
  mvio::util::putScalar<std::uint64_t>(blob, mvio::util::fnv1a(blob.data(), blob.size()));

  auto volume = smallVolume();
  const std::string dir = "__fuzz_crafted_manifest";
  mp::SpillStore store(*volume, mr::rankPrefix(dir, 0));
  store.put("ep1.manifest", std::move(blob));
  std::optional<mr::ShardSetManifest> got;
  noThrow([&] { got = mr::readShardSetManifest(*volume, dir, 0, /*base=*/false, 1); });
  EXPECT_FALSE(got.has_value());
}

namespace {

/// Recompute a shard's payload and header CRC-32C words (header offsets
/// 40 and 48), so a hand-edited blob is checksum-valid again.
void resealShard(std::string& blob) {
  const std::uint64_t payloadSum =
      mvio::util::crc32c(blob.data() + mg::kShardHeaderBytes, blob.size() - mg::kShardHeaderBytes);
  std::memcpy(blob.data() + 40, &payloadSum, 8);
  const std::uint64_t headerSum = mvio::util::crc32c(blob.data(), 48);
  std::memcpy(blob.data() + 48, &headerSum, 8);
}

}  // namespace

TEST(CodecFuzz, CraftedShardRecordCountRejects) {
  // n = (2^64 + 44) / 12: times the 12 fixed bytes per record the product
  // wraps to 44, the payload this blob actually holds.
  constexpr std::uint64_t kRecords = 1537228672809129305ull;
  std::string blob;
  mvio::util::putScalar<std::uint32_t>(blob, 0x4853564Du);  // "MVSH"
  mvio::util::putScalar<std::uint32_t>(blob, 3);            // version
  mvio::util::putScalar<std::uint64_t>(blob, kRecords);
  mvio::util::putScalar<std::uint64_t>(blob, 0);  // coords
  mvio::util::putScalar<std::uint64_t>(blob, 0);  // shape tokens
  mvio::util::putScalar<std::uint64_t>(blob, 0);  // userData bytes
  mvio::util::putScalar<std::uint64_t>(blob, 0);  // payload checksum (resealed)
  mvio::util::putScalar<std::uint64_t>(blob, 0);  // header checksum (resealed)
  ASSERT_EQ(blob.size(), mg::kShardHeaderBytes);
  blob += std::string(44, '\0');
  resealShard(blob);

  // Every check before the count bound passes, so the rejection must
  // come from the bound itself.
  mg::GeometryBatch out;
  const std::string why = rejection([&] { mg::decodeShard(blob, out); });
  EXPECT_NE(why.find("truncated payload"), std::string::npos) << why;
  EXPECT_EQ(out.size(), 0u);
}

namespace {

/// Offsets into the payload of a v3 shard of `n` records: the cells,
/// shape-length and userData-length columns, then the shape tokens.
std::size_t shapeLenAt(std::size_t n, std::size_t k) {
  return mg::kShardHeaderBytes + 4 * n + 4 * k;
}
std::size_t userLenAt(std::size_t n, std::size_t k) {
  return mg::kShardHeaderBytes + 8 * n + 4 * k;
}
std::size_t shapeTokenAt(std::size_t n, std::size_t t) {
  return mg::kShardHeaderBytes + 12 * n + 4 * t;
}

void putU32At(std::string& blob, std::size_t at, std::uint32_t v) {
  std::memcpy(blob.data() + at, &v, 4);
}

/// Decode a checksum-valid but structurally bad shard into a batch that
/// already holds one record: the decoder must throw with `expect` in its
/// message and leave that batch exactly as it was.
void expectRejectedUntouched(const std::string& blob, const char* expect) {
  mg::GeometryBatch out;
  out.append(mg::readWkt("POINT (9 9)"), 2);
  const std::uint64_t bytesBefore = out.memoryBytes();
  const std::string why = rejection([&] { mg::decodeShard(blob, out); });
  EXPECT_NE(why.find(expect), std::string::npos)
      << "wanted '" << expect << "', got '" << why << "'";
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out.memoryBytes(), bytesBefore);
  EXPECT_EQ(out.totalVertices(), 1u);
  EXPECT_EQ(mg::writeWkt(out.materialize(0)), "POINT (9 9)");
  EXPECT_EQ(out.cell(0), 2);
}

/// Two linestrings, 4 shape tokens and 6 coordinates: the shard the
/// crafted cases below edit.
std::string linePairShard() {
  mg::GeometryBatch pair;
  pair.append(mg::readWkt("LINESTRING (0 0, 1 1, 2 2)"), 0);
  pair.append(mg::readWkt("LINESTRING (5 5, 6 6, 7 7)"), 1);
  std::string blob;
  mg::encodeShard(pair, blob);
  return blob;
}

/// A record of `levels` collections nested one in another around a
/// point, built straight through the arena builder (which checks no
/// depth).
mg::GeometryBatch nestedCollection(int levels) {
  mg::GeometryBatch b;
  b.beginRecord();
  for (int k = 0; k < levels; ++k) {
    b.pushShape(static_cast<std::uint32_t>(mg::GeometryType::kGeometryCollection));
    b.pushShape(1);
  }
  b.pushShape(static_cast<std::uint32_t>(mg::GeometryType::kPoint));
  b.pushCoord({1, 2});
  b.commitRecord("deep", 0);
  return b;
}

}  // namespace

TEST(CodecFuzz, CraftedShardBadOffsetsLeaveOutputUntouched) {
  // A checksum-valid 2-record shard whose first userData length (7) runs
  // past the empty userData arena. The decoder must reject it before the
  // batch it decodes into changes.
  std::string blob = linePairShard();
  ASSERT_EQ(mvio::util::readScalar<std::uint32_t>(blob.data() + userLenAt(2, 0)), 0u);
  putU32At(blob, userLenAt(2, 0), 7);
  resealShard(blob);
  expectRejectedUntouched(blob, "bad userData lengths");
}

TEST(CodecFuzz, CraftedShardShapeLengthPastArenaRejects) {
  std::string blob = linePairShard();
  ASSERT_EQ(mvio::util::readScalar<std::uint32_t>(blob.data() + shapeLenAt(2, 1)), 2u);
  putU32At(blob, shapeLenAt(2, 1), 3);  // the arena holds 2 tokens past record 0
  resealShard(blob);
  expectRejectedUntouched(blob, "bad shape lengths");
}

TEST(CodecFuzz, CraftedShardUnknownTypeTokenRejects) {
  std::string blob = linePairShard();
  ASSERT_EQ(mvio::util::readScalar<std::uint32_t>(blob.data() + shapeTokenAt(2, 2)),
            static_cast<std::uint32_t>(mg::GeometryType::kLineString));
  putU32At(blob, shapeTokenAt(2, 2), 9);  // record 1's type tag
  resealShard(blob);
  expectRejectedUntouched(blob, "bad type tag");
}

TEST(CodecFuzz, CraftedShardRingNeedsMissingCoordsRejects) {
  // Record 0's vertex count 3 → 5 leaves record 1 one of its three
  // coordinates; a polygon ring past every coordinate is the same check.
  std::string blob = linePairShard();
  putU32At(blob, shapeTokenAt(2, 1), 5);
  resealShard(blob);
  expectRejectedUntouched(blob, "coord arena underrun");

  mg::GeometryBatch poly;
  poly.append(mg::readWkt("POLYGON ((0 0, 4 0, 4 4, 0 0))"), 0);
  std::string ring;
  mg::encodeShard(poly, ring);
  ASSERT_EQ(mvio::util::readScalar<std::uint32_t>(ring.data() + shapeTokenAt(1, 2)), 4u);
  putU32At(ring, shapeTokenAt(1, 2), 9);
  resealShard(ring);
  expectRejectedUntouched(ring, "coord arena underrun");
}

TEST(CodecFuzz, ShardNestingFollowsTheReaderLimit) {
  // kMaxNestingDepth nested collections decode, one more does not — the
  // line readWkb draws on the same records.
  for (const int levels : {mg::kMaxNestingDepth, mg::kMaxNestingDepth + 1}) {
    const mg::GeometryBatch deep = nestedCollection(levels);
    std::string blob;
    mg::encodeShard(deep, blob);
    const std::string wkb = mg::writeWkb(deep.materialize(0));
    if (levels <= mg::kMaxNestingDepth) {
      mg::GeometryBatch out;
      EXPECT_EQ(mg::decodeShard(blob, out), 1u);
      EXPECT_EQ(out.shapeTokenCount(0), deep.shapeTokenCount(0));
      EXPECT_NO_THROW((void)mg::readWkb(wkb));
    } else {
      expectRejectedUntouched(blob, "nested too deeply");
      EXPECT_THROW((void)mg::readWkb(wkb), mvio::util::Error);
    }
  }
}

namespace {

/// Every column of record `i` compared bitwise with record `j` of `b`.
void expectSameRecord(const mg::GeometryBatch& a, std::size_t i, const mg::GeometryBatch& b,
                      std::size_t j) {
  ASSERT_EQ(a.type(i), b.type(j)) << "record " << i;
  EXPECT_EQ(a.cell(i), b.cell(j)) << "record " << i;
  EXPECT_EQ(a.userData(i), b.userData(j)) << "record " << i;
  EXPECT_EQ(std::memcmp(&a.envelope(i), &b.envelope(j), sizeof(mg::Envelope)), 0) << "record " << i;
  ASSERT_EQ(a.shapeTokenCount(i), b.shapeTokenCount(j)) << "record " << i;
  EXPECT_EQ(std::memcmp(a.shapeOf(i), b.shapeOf(j), a.shapeTokenCount(i) * 4), 0) << "record " << i;
  ASSERT_EQ(a.vertexCount(i), b.vertexCount(j)) << "record " << i;
  EXPECT_EQ(std::memcmp(a.coordsOf(i), b.coordsOf(j), a.vertexCount(i) * sizeof(mg::Coord)), 0)
      << "record " << i;
}

}  // namespace

TEST(CodecFuzz, ShardRoundTripIsBitExact) {
  // All seven OGC types through append(Geometry), then empty, holed and
  // nested-collection records through the WKT and WKB readers, then
  // copies through appendRecordFrom.
  mg::GeometryBatch src = mixedBatch();
  const char* wkts[] = {
      "POINT EMPTY",
      "LINESTRING EMPTY",
      "MULTIPOLYGON EMPTY",
      "GEOMETRYCOLLECTION EMPTY",
      "POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (2 2, 4 2, 4 4, 2 2), (6 6, 8 6, 8 8, 6 6))",
      "GEOMETRYCOLLECTION (GEOMETRYCOLLECTION (POINT (-1.5 2.25), MULTIPOINT EMPTY), "
      "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)), ((5 5, 6 5, 6 6, 5 5), (5.2 5.1, 5.8 5.1, 5.8 5.7, "
      "5.2 5.1))))",
  };
  int cell = 100;
  for (const char* w : wkts) mg::readWktInto(w, std::string("wkt-") + w, src, cell++);
  for (const char* w : {"MULTILINESTRING ((0.1 0.2, 1e300 -1e-300), (3 4, 5 6, 7 8))",
                        "GEOMETRYCOLLECTION (POINT (1 1), GEOMETRYCOLLECTION (LINESTRING (0 0, 1 "
                        "1), POLYGON ((0 0, 2 0, 2 2, 0 0))))"}) {
    mg::readWkbInto(mg::writeWkb(mg::readWkt(w)), "from-wkb", src, cell++);
  }
  const std::size_t originals = src.size();
  for (std::size_t i = 0; i < originals; i += 2) {
    src.appendRecordFrom(src, i, 1000 + static_cast<int>(i));
  }

  // encodeShard over the whole batch and over a sub-range.
  for (const auto [lo, hi] : {std::pair<std::size_t, std::size_t>{0, src.size()}, {3, 11}}) {
    std::string blob;
    mg::encodeShard(src, lo, hi, blob);
    EXPECT_EQ(blob.size(), mg::shardCounts(blob).encodedBytes());
    mg::GeometryBatch back;
    ASSERT_EQ(mg::decodeShard(blob, back), hi - lo);
    for (std::size_t k = 0; k < hi - lo; ++k) expectSameRecord(back, k, src, lo + k);
  }

  // The run writer over a scattered order: one shard per run of keys,
  // each decoding to exactly its records.
  std::vector<std::uint32_t> order;
  std::vector<int> keys;
  for (int key = 0; key < 3; ++key) {
    for (std::size_t i = src.size(); i-- > 0;) {
      if (static_cast<int>(i % 3) == key) {
        order.push_back(static_cast<std::uint32_t>(i));
        keys.push_back(key);
      }
    }
  }
  std::string frames = "prefix";
  const std::vector<mg::ShardRun> runs = mg::encodeShardRuns(src, order, keys, frames);
  ASSERT_EQ(runs.size(), 3u);
  mg::GeometryBatch back;
  std::size_t end = 6;
  for (const mg::ShardRun& run : runs) {
    EXPECT_EQ(run.offset, end);
    const std::size_t bytes = run.counts.encodedBytes();
    end += bytes;
    ASSERT_EQ(mg::decodeShard(std::string_view(frames).substr(run.offset, bytes), back),
              run.counts.records);
  }
  EXPECT_EQ(end, frames.size());
  ASSERT_EQ(back.size(), order.size());
  for (std::size_t k = 0; k < order.size(); ++k) expectSameRecord(back, k, src, order[k]);
}

// ---- WKB record stream (core/format.hpp framing) --------------------------
//
// Unlike the checkpoint artifacts above, the ingest record stream carries
// no checksum — raw WKB straight off a file. The guarantee is therefore
// not reject-everything but *containment*: the reader must never throw,
// never over-read, account for every byte, and never turn a damaged
// stream into more records than the writer framed.

namespace {

struct FramedBlob {
  std::string bytes;
  std::vector<std::size_t> bounds;  // 0 and one past each record
};

FramedBlob framedMixedBlob() {
  const mg::GeometryBatch batch = mixedBatch();
  FramedBlob blob;
  blob.bounds.push_back(0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    mc::appendWkbRecord(batch, i, blob.bytes);
    blob.bounds.push_back(blob.bytes.size());
  }
  return blob;
}

}  // namespace

TEST(CodecFuzz, WkbRecordStreamTruncationsAccountEveryRecord) {
  const FramedBlob blob = framedMixedBlob();
  const mc::WkbFormatReader fmt;
  for (std::size_t len = 0; len <= blob.bytes.size(); ++len) {
    std::size_t whole = 0;
    while (whole + 1 < blob.bounds.size() && blob.bounds[whole + 1] <= len) ++whole;
    const bool onBoundary =
        std::find(blob.bounds.begin(), blob.bounds.end(), len) != blob.bounds.end();
    mg::GeometryBatch out;
    mc::ParseStats st;
    EXPECT_TRUE(noThrow([&] {
      st = fmt.parseChunk(std::string_view(blob.bytes).substr(0, len), out, nullptr, nullptr);
    })) << "truncation to " << len << " bytes threw";
    EXPECT_EQ(st.records, whole) << "len=" << len;
    EXPECT_EQ(out.size(), whole) << "len=" << len;
    EXPECT_EQ(st.badRecords, onBoundary ? 0u : 1u) << "len=" << len;
    EXPECT_EQ(st.bytes, len);
  }
}

TEST(CodecFuzz, WkbRecordStreamBitFlipsNeverCrashOrInventRecords) {
  const FramedBlob blob = framedMixedBlob();
  const mc::WkbFormatReader fmt;
  const std::size_t framed = blob.bounds.size() - 1;
  for (std::size_t i = 0; i < blob.bytes.size(); ++i) {
    std::string mutated = blob.bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ (1u << (i % 8)));
    mg::GeometryBatch out;
    mc::ParseStats st;
    EXPECT_TRUE(noThrow(
        [&] { st = fmt.parseChunk(mutated, out, nullptr, nullptr); }))
        << "bit flip at byte " << i << " threw";
    EXPECT_EQ(st.bytes, mutated.size()) << "flip at byte " << i;
    EXPECT_LE(st.records, framed) << "flip at byte " << i << " invented records";
    if (st.records < framed) {
      EXPECT_GE(st.badRecords, 1u)
          << "flip at byte " << i << " silently dropped a record";
    }
  }
}

// ---- Nesting depth: both geometry decoders bound their recursion ----------
//
// A collection nested 100,000 deep is a 2 MB WKT line or a 0.9 MB framed
// WKB record, far below the record-size bound, and overflowed the stack of
// an unbounded recursive descent. Past kMaxNestingDepth a record is bad:
// counted, skipped, and the chunk goes on.

namespace {

constexpr int kOverflowDepth = 100000;

/// `collections` GEOMETRYCOLLECTIONs around `leaf`, as WKT.
std::string nestedWkt(int collections, const std::string& leaf = "POINT (1 2)") {
  std::string wkt;
  for (int i = 0; i < collections; ++i) wkt += "GEOMETRYCOLLECTION (";
  wkt += leaf;
  wkt.append(static_cast<std::size_t>(collections), ')');
  return wkt;
}

/// The same nesting as one framed WKB record.
std::string nestedWkbRecord(int collections, const std::string& leaf = "POINT (1 2)") {
  std::string wkb;
  for (int i = 0; i < collections; ++i) {
    wkb.push_back(1);                              // little-endian
    mvio::util::putScalar<std::uint32_t>(wkb, 7);  // GeometryCollection
    mvio::util::putScalar<std::uint32_t>(wkb, 1);  // one part
  }
  wkb += mg::writeWkb(mg::readWkt(leaf));
  std::string record;
  mvio::util::putScalar<std::uint32_t>(record, mc::kWkbRecordMagic);
  mvio::util::putScalar<std::uint32_t>(record, 0);
  mvio::util::putScalar<std::uint32_t>(record, static_cast<std::uint32_t>(wkb.size()));
  return record + wkb;
}

}  // namespace

TEST(CodecFuzz, WktTooDeepRecordIsCountedBadNotACrash) {
  const std::string text = "POINT (0 0)\n" + nestedWkt(kOverflowDepth) + "\nPOINT (3 4)\n";
  mg::GeometryBatch out;
  const mc::ParseStats st = mc::WktParser().parseAll(text, out);
  EXPECT_EQ(st.records, 2u);
  EXPECT_EQ(st.badRecords, 1u);
  EXPECT_EQ(out.size(), 2u);
}

TEST(CodecFuzz, WkbTooDeepRecordIsCountedBadNotACrash) {
  const std::string good = nestedWkbRecord(0);
  const std::string text = good + nestedWkbRecord(kOverflowDepth) + good;
  mg::GeometryBatch out;
  const mc::ParseStats st = mc::FormatRegistry::instance().get("wkb")->parseChunk(text, out, nullptr);
  EXPECT_EQ(st.records, 2u);
  EXPECT_EQ(st.badRecords, 1u);
  EXPECT_EQ(out.size(), 2u);
}

TEST(CodecFuzz, NestingLimitIsExactInBothEncodings) {
  const mc::FormatReader& wkt = *mc::FormatRegistry::instance().get("wkt");
  const mc::FormatReader& wkb = *mc::FormatRegistry::instance().get("wkb");
  // A multi-part leaf holds its parts one level down, like a collection.
  for (const auto& [leaf, leafDepth] :
       {std::pair<std::string, int>{"POINT (1 2)", 0}, {"MULTIPOINT ((1 2), (3 4))", 1}}) {
    for (const int depth : {mg::kMaxNestingDepth, mg::kMaxNestingDepth + 1}) {
      const int collections = depth - leafDepth;
      const bool accepted = depth <= mg::kMaxNestingDepth;
      mg::GeometryBatch a, b;
      const mc::ParseStats sa = wkt.parseChunk(nestedWkt(collections, leaf), a, nullptr);
      const mc::ParseStats sb = wkb.parseChunk(nestedWkbRecord(collections, leaf), b, nullptr);
      EXPECT_EQ(sa.records, accepted ? 1u : 0u) << leaf << " at depth " << depth;
      EXPECT_EQ(sb.records, sa.records) << leaf << " at depth " << depth;
      EXPECT_EQ(sa.badRecords + sb.badRecords, accepted ? 0u : 2u) << leaf << " at depth " << depth;
    }
  }
}
