#include "core/parser.hpp"

#include <cstring>

#include "geom/wkt.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "util/decimal.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace mvio::core {

namespace {

std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\r')) ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\r')) --e;
  return s.substr(b, e - b);
}

/// Split one CSV point record into coordinates + attribute slice. Throws
/// util::Error on malformed input, returns false for blank records.
bool splitCsvPoint(std::string_view record, double& x, double& y, std::string_view& attrs) {
  const std::string_view line = trim(record);
  if (line.empty()) return false;
  const char* cur = line.data();
  const char* end = line.data() + line.size();
  auto r1 = util::parseDouble(cur, end, x);
  MVIO_CHECK(r1.ec == std::errc(), "CSV point: bad x coordinate");
  cur = r1.ptr;
  MVIO_CHECK(cur < end && *cur == ',', "CSV point: expected comma after x");
  ++cur;
  auto r2 = util::parseDouble(cur, end, y);
  MVIO_CHECK(r2.ec == std::errc(), "CSV point: bad y coordinate");
  cur = r2.ptr;
  if (cur < end && *cur == ',') {
    attrs = std::string_view(cur + 1, static_cast<std::size_t>(end - cur - 1));
  } else {
    attrs = {};
  }
  return true;
}

/// Split the WKT record into geometry text + attribute tail (tab-separated).
void splitWktRecord(std::string_view record, std::string_view& wktPart, std::string_view& attrs) {
  wktPart = record;
  attrs = {};
  const std::size_t tab = record.find('\t');
  if (tab != std::string_view::npos) {
    wktPart = record.substr(0, tab);
    attrs = record.substr(tab + 1);
  }
  wktPart = trim(wktPart);
}

/// Delimiter-splitting driver shared by both parseAll overloads. `handle`
/// parses one non-empty record and returns whether a geometry was produced;
/// it may throw util::Error for malformed content.
template <typename Handler>
ParseStats splitRecords(std::string_view text, char delim, Handler&& handle) {
  ParseStats stats;
  stats.bytes = text.size();
  const char* cur = text.data();
  const char* const end = text.data() + text.size();
  while (cur <= end) {
    const char* nl =
        cur < end ? static_cast<const char*>(std::memchr(cur, delim, static_cast<std::size_t>(end - cur)))
                  : nullptr;
    const char* recEnd = nl != nullptr ? nl : end;
    if (recEnd > cur) {
      const std::string_view record(cur, static_cast<std::size_t>(recEnd - cur));
      try {
        if (handle(record)) ++stats.records;
      } catch (const util::Error&) {
        ++stats.badRecords;
      }
    }
    if (nl == nullptr) break;
    cur = nl + 1;
  }
  return stats;
}

}  // namespace

std::vector<std::string_view> sliceRecords(std::string_view text, char delim, int slices) {
  MVIO_CHECK(slices >= 1, "sliceRecords: need at least one slice");
  const std::size_t n = text.size();
  const auto count = static_cast<std::size_t>(slices);
  // Cut points: raw k*n/slices offsets, each advanced to one past the next
  // delimiter (or the end). Monotonic by construction, so the slices tile
  // the text exactly and ParseStats::bytes sums to the serial value.
  std::vector<std::size_t> cuts(count + 1, n);
  cuts[0] = 0;
  for (std::size_t k = 1; k < count; ++k) {
    std::size_t raw = k * n / count;
    if (raw < cuts[k - 1]) raw = cuts[k - 1];
    const char* nl = raw < n ? static_cast<const char*>(std::memchr(text.data() + raw, delim, n - raw))
                             : nullptr;
    cuts[k] = nl != nullptr ? static_cast<std::size_t>(nl - text.data()) + 1 : n;
  }
  std::vector<std::string_view> out;
  out.reserve(count);
  for (std::size_t k = 0; k < count; ++k) {
    out.push_back(text.substr(cuts[k], cuts[k + 1] - cuts[k]));
  }
  return out;
}

ParseStats Parser::parseAll(std::string_view text,
                            const std::function<void(geom::Geometry&&)>& sink) const {
  geom::Geometry g;
  return splitRecords(text, delimiter(), [&](std::string_view record) {
    if (!parseRecord(record, g)) return false;
    sink(std::move(g));
    g = geom::Geometry();
    return true;
  });
}

ParseStats Parser::parseAll(std::string_view text, geom::GeometryBatch& out) const {
  // Records average well under 100 bytes in the paper's datasets; a rough
  // pre-size avoids the early arena doublings without overshooting much.
  out.reserveRecords(text.size() / 64 + 1, 8, 8);
  return splitRecords(text, delimiter(),
                      [&](std::string_view record) { return parseRecordInto(record, out); });
}

ParseStats Parser::parseAllParallel(std::string_view text, geom::GeometryBatch& out,
                                    util::ThreadPool& pool, ParseTiming* timing) const {
  const int slices = pool.threads();
  if (slices <= 1) {
    sim::ThreadCpuTimer timer;
    const ParseStats stats = parseAll(text, out);
    if (timing != nullptr) timing->cpuSum = timing->critical = timer.elapsed();
    return stats;
  }

  const std::vector<std::string_view> parts = sliceRecords(text, delimiter(), slices);
  std::vector<geom::GeometryBatch> batches(parts.size());
  std::vector<ParseStats> partStats(parts.size());
  const util::PoolTiming pt = pool.runOnWorkers(
      [&](int w) { partStats[static_cast<std::size_t>(w)] = parseAll(parts[static_cast<std::size_t>(w)], batches[static_cast<std::size_t>(w)]); });
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

bool Parser::parseRecordInto(std::string_view record, geom::GeometryBatch& out) const {
  geom::Geometry g;
  if (!parseRecord(record, g)) return false;
  out.append(g);
  return true;
}

bool WktParser::parseRecord(std::string_view record, geom::Geometry& out) const {
  std::string_view wktPart, attrs;
  splitWktRecord(record, wktPart, attrs);
  if (wktPart.empty()) return false;  // padding / blank line
  out = geom::readWkt(wktPart);
  out.userData.assign(attrs);
  return true;
}

bool WktParser::parseRecordInto(std::string_view record, geom::GeometryBatch& out) const {
  std::string_view wktPart, attrs;
  splitWktRecord(record, wktPart, attrs);
  if (wktPart.empty()) return false;  // padding / blank line
  geom::readWktInto(wktPart, attrs, out);
  return true;
}

bool CsvPointParser::parseRecord(std::string_view record, geom::Geometry& out) const {
  double x = 0, y = 0;
  std::string_view attrs;
  if (!splitCsvPoint(record, x, y, attrs)) return false;
  out = geom::Geometry::point({x, y});
  out.userData.assign(attrs);
  return true;
}

bool CsvPointParser::parseRecordInto(std::string_view record, geom::GeometryBatch& out) const {
  double x = 0, y = 0;
  std::string_view attrs;
  if (!splitCsvPoint(record, x, y, attrs)) return false;
  out.beginRecord();
  out.pushShape(static_cast<std::uint32_t>(geom::GeometryType::kPoint));
  out.pushCoord({x, y});
  out.commitRecord(attrs);
  return true;
}

}  // namespace mvio::core
