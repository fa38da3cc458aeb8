#include "core/format.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "core/parser.hpp"
#include "geom/wkb.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

/// Minimum bytes of one WKB payload: order byte + type code. Anything
/// shorter (including the zero-length record) is rejected outright.
constexpr std::uint64_t kMinWkbPayload = 5;

/// Record-size bound used when slicing an already boundary-aligned chunk
/// for parallel decode (parseChunk has no PartitionConfig in hand). Only
/// insane lengths need rejecting there; a record bigger than this simply
/// leaves the chunk tail in one slice.
constexpr std::uint64_t kSliceRecordBound = 1ull << 30;

struct RecordHeader {
  std::uint32_t magic = 0;
  std::uint32_t userLen = 0;
  std::uint32_t wkbLen = 0;
};

RecordHeader headerAt(std::string_view buf, std::uint64_t pos) {
  RecordHeader h;
  h.magic = util::readScalar<std::uint32_t>(buf.data() + pos);
  h.userLen = util::readScalar<std::uint32_t>(buf.data() + pos + 4);
  h.wkbLen = util::readScalar<std::uint32_t>(buf.data() + pos + 8);
  return h;
}

/// Header sanity beyond the magic: a record must be at least a real WKB
/// node and must fit `maxRecordBytes` in total — the same bound that sizes
/// the kOverlap halo and the kMessage fragment buffer, so a plausible
/// header never implies a fragment larger than the transport can carry.
bool plausibleHeader(const RecordHeader& h, std::uint64_t maxRecordBytes) {
  if (h.magic != kWkbRecordMagic) return false;
  if (h.wkbLen < kMinWkbPayload) return false;
  const std::uint64_t total =
      kWkbRecordHeaderBytes + static_cast<std::uint64_t>(h.userLen) + h.wkbLen;
  return total <= maxRecordBytes;
}

/// Does a record chain starting at `pos` stay well-formed until it leaves
/// the window? A candidate boundary is accepted only when every header the
/// chain passes is plausible — a magic pattern inside a coordinate payload
/// fails this with overwhelming probability, because the "lengths" that
/// follow it must themselves chain onto further valid headers.
bool chainValidates(std::string_view buf, std::uint64_t pos, std::uint64_t maxRecordBytes) {
  const std::uint64_t n = buf.size();
  while (true) {
    if (pos == n) return true;
    if (pos + kWkbRecordHeaderBytes > n) return true;  // cannot disprove at the cut
    const RecordHeader h = headerAt(buf, pos);
    if (!plausibleHeader(h, maxRecordBytes)) return false;
    pos += kWkbRecordHeaderBytes + h.userLen + h.wkbLen;
    if (pos > n) return true;  // record leaves the window
  }
}

/// Next offset >= `from` where a full 4-byte magic matches, or npos.
std::uint64_t findMagic(std::string_view buf, std::uint64_t from) {
  const std::uint64_t n = buf.size();
  while (from + 4 <= n) {
    const void* p = std::memchr(buf.data() + from, 'W', static_cast<std::size_t>(n - from));
    if (p == nullptr) return FormatReader::npos;
    const std::uint64_t pos = static_cast<std::uint64_t>(static_cast<const char*>(p) - buf.data());
    if (pos + 4 > n) return FormatReader::npos;
    if (util::readScalar<std::uint32_t>(buf.data() + pos) == kWkbRecordMagic) return pos;
    from = pos + 1;
  }
  return FormatReader::npos;
}

}  // namespace

// ---- Framed record writer ----------------------------------------------

void appendWkbRecord(const geom::GeometryBatch& b, std::size_t i, std::string& out) {
  const std::string_view user = b.userData(i);
  util::putScalar<std::uint32_t>(out, kWkbRecordMagic);
  util::putScalar<std::uint32_t>(out, static_cast<std::uint32_t>(user.size()));
  util::putScalar<std::uint32_t>(out, static_cast<std::uint32_t>(b.wkbSize(i)));
  util::putBytes(out, user.data(), user.size());
  geom::appendWkb(b, i, out);
}

void appendWkbRecord(const geom::Geometry& g, std::string_view userData, std::string& out) {
  thread_local std::string wkb;
  wkb.clear();
  geom::appendWkb(g, wkb);
  util::putScalar<std::uint32_t>(out, kWkbRecordMagic);
  util::putScalar<std::uint32_t>(out, static_cast<std::uint32_t>(userData.size()));
  util::putScalar<std::uint32_t>(out, static_cast<std::uint32_t>(wkb.size()));
  util::putBytes(out, userData.data(), userData.size());
  out.append(wkb);
}

// ---- FormatReader: the slicer and the parallel parse --------------------

std::vector<std::string_view> FormatReader::sliceChunk(std::string_view text, int slices) const {
  MVIO_CHECK(slices >= 1, "sliceChunk: need at least one slice");
  const std::uint64_t n = text.size();
  const auto count = static_cast<std::size_t>(slices);
  // Cut points: raw k*n/slices offsets (at least one byte past the previous
  // cut), each advanced to the next record boundary from the previous cut.
  // Monotone, so the slices tile the chunk and ParseStats::bytes sums to
  // the serial value. Where no boundary follows — a garbage frame chain, an
  // unterminated last line — the remaining cuts stay at n: the tail lands
  // in one slice, so bad-record accounting matches the serial decode.
  std::vector<std::uint64_t> cuts(count + 1, n);
  cuts[0] = 0;
  for (std::size_t k = 1; k < count; ++k) {
    const std::uint64_t raw = std::max<std::uint64_t>(k * n / count, cuts[k - 1] + 1);
    const std::uint64_t b = nextBoundary(text, cuts[k - 1], raw, kSliceRecordBound);
    if (b == npos) break;
    cuts[k] = b;
  }
  std::vector<std::string_view> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(text.substr(static_cast<std::size_t>(cuts[k]),
                              static_cast<std::size_t>(cuts[k + 1] - cuts[k])));
  }
  return out;
}

ParseStats FormatReader::parseChunk(std::string_view text, geom::GeometryBatch& out,
                                    util::ThreadPool* pool, ParseTiming* timing) const {
  const int slices = pool != nullptr ? pool->threads() : 1;
  if (slices <= 1) {
    sim::ThreadCpuTimer timer;
    const ParseStats stats = parseAll(text, out);
    if (timing != nullptr) timing->cpuSum = timing->critical = timer.elapsed();
    return stats;
  }

  const std::vector<std::string_view> parts = sliceChunk(text, slices);
  std::vector<geom::GeometryBatch> batches(parts.size());
  std::vector<ParseStats> partStats(parts.size());
  const util::PoolTiming pt = pool->runOnWorkers([&](int w) {
    const auto k = static_cast<std::size_t>(w);
    partStats[k] = parseAll(parts[k], batches[k]);
  });
  if (const obs::ObsContext& octx = obs::obsContext(); octx.tracer != nullptr && octx.clock != nullptr) {
    obs::traceWorkerSpans("parse", octx.clock->now(), pt.perWorker);
  }

  // Splice back in slice order — the only serial step, charged on the
  // critical path. Slice 0 into an empty `out` adopts the arenas (no copy).
  sim::ThreadCpuTimer mergeTimer;
  ParseStats stats;
  for (std::size_t k = 0; k < parts.size(); ++k) {
    out.splice(std::move(batches[k]));
    stats.records += partStats[k].records;
    stats.badRecords += partStats[k].badRecords;
    stats.bytes += partStats[k].bytes;
  }
  const double merge = mergeTimer.elapsed();
  if (timing != nullptr) {
    timing->cpuSum = pt.cpuSum + merge;
    timing->critical = pt.cpuMax + merge;
  }
  return stats;
}

// ---- WkbFormatReader ----------------------------------------------------

std::int64_t WkbFormatReader::splitBoundary(std::string_view block,
                                            std::uint64_t maxRecordBytes) const {
  const std::uint64_t first = firstBoundary(block, 0, maxRecordBytes);
  if (first == npos) return -1;  // the whole block sits inside one record
  const std::uint64_t n = block.size();
  std::uint64_t pos = first;
  while (pos + kWkbRecordHeaderBytes <= n) {
    const RecordHeader h = headerAt(block, pos);
    if (!plausibleHeader(h, maxRecordBytes)) break;  // garbage tail stays a fragment
    const std::uint64_t total = kWkbRecordHeaderBytes + h.userLen + h.wkbLen;
    if (pos + total > n) break;  // record straddles the block edge
    pos += total;
  }
  return static_cast<std::int64_t>(pos);
}

std::uint64_t WkbFormatReader::firstBoundary(std::string_view buf, std::uint64_t from,
                                             std::uint64_t maxRecordBytes) const {
  std::uint64_t cand = from;
  while (true) {
    cand = findMagic(buf, cand);
    if (cand == npos) return npos;
    if (chainValidates(buf, cand, maxRecordBytes)) return cand;
    ++cand;
  }
}

std::uint64_t WkbFormatReader::nextBoundary(std::string_view buf, std::uint64_t knownBoundary,
                                            std::uint64_t from,
                                            std::uint64_t maxRecordBytes) const {
  const std::uint64_t n = buf.size();
  std::uint64_t pos = knownBoundary;
  while (pos < from) {
    if (pos + kWkbRecordHeaderBytes > n) return npos;
    const RecordHeader h = headerAt(buf, pos);
    if (!plausibleHeader(h, maxRecordBytes)) return npos;
    pos += kWkbRecordHeaderBytes + h.userLen + h.wkbLen;
    if (pos > n) return npos;  // the record containing `from` leaves the window
  }
  return pos;
}

ParseStats WkbFormatReader::parseAll(std::string_view text, geom::GeometryBatch& out) const {
  const std::uint64_t n = text.size();
  const std::size_t records = static_cast<std::size_t>(n) / 64 + 1;
  out.reserve(records, records * 8, records * 2, records * 8);
  ParseStats stats;
  stats.bytes = n;
  std::uint64_t pos = 0;
  while (pos < n) {
    if (pos + kWkbRecordHeaderBytes > n) {  // truncated tail header
      ++stats.badRecords;
      break;
    }
    const RecordHeader h = headerAt(text, pos);
    const std::uint64_t total =
        kWkbRecordHeaderBytes + static_cast<std::uint64_t>(h.userLen) + h.wkbLen;
    if (h.magic != kWkbRecordMagic || h.wkbLen < kMinWkbPayload || pos + total > n) {
      // Garbage or a lying length: count it and resynchronize on the next
      // byte-verified magic, so one corrupt frame cannot take down the
      // rest of the chunk.
      ++stats.badRecords;
      pos = findMagic(text, pos + 1);
      if (pos == npos) break;
      continue;
    }
    const std::string_view user = text.substr(static_cast<std::size_t>(pos + kWkbRecordHeaderBytes),
                                              h.userLen);
    const std::string_view wkb = text.substr(
        static_cast<std::size_t>(pos + kWkbRecordHeaderBytes + h.userLen), h.wkbLen);
    try {
      // Payload slack past what the WKB grammar consumes is tolerated (the
      // frame length governs advancement), so both decode modes accept and
      // reject exactly the same inputs.
      if (columnar_) {
        geom::readWkbInto(wkb, user, out);
      } else {
        geom::Geometry g = geom::readWkb(wkb);
        g.userData.assign(user);
        out.append(g);
      }
      ++stats.records;
    } catch (const util::Error&) {
      ++stats.badRecords;
    }
    pos += total;
  }
  return stats;
}

// ---- FormatRegistry ------------------------------------------------------

namespace {

/// The builtin readers, in name order.
const std::array<const FormatReader*, 3>& builtins() {
  static const CsvPointParser csv{};
  static const WkbFormatReader wkb{};
  static const WktParser wkt{};
  static const std::array<const FormatReader*, 3> readers = {&csv, &wkb, &wkt};
  return readers;
}

}  // namespace

FormatRegistry& FormatRegistry::instance() {
  static FormatRegistry registry;
  return registry;
}

const FormatReader* FormatRegistry::find(std::string_view name) const {
  for (const FormatReader* r : builtins()) {
    if (r->name() == name) return r;
  }
  return nullptr;
}

const FormatReader* FormatRegistry::get(std::string_view name) const {
  const FormatReader* r = find(name);
  if (r == nullptr) {
    util::raise("unknown ingest format: " + std::string(name), __FILE__, __LINE__);
  }
  return r;
}

std::vector<std::string> FormatRegistry::names() const {
  std::vector<std::string> out;
  for (const FormatReader* r : builtins()) out.emplace_back(r->name());
  return out;
}

}  // namespace mvio::core
