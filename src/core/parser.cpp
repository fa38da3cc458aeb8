#include "core/parser.hpp"

#include <cstring>

#include "geom/wkt.hpp"
#include "util/decimal.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

constexpr char kDelim = '\n';

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

/// Line-splitting loop shared by both parseAll overloads. `handle`
/// parses one non-empty record and returns whether a geometry was produced;
/// it may throw util::Error for malformed content.
template <typename Handler>
ParseStats splitRecords(std::string_view text, Handler&& handle) {
  ParseStats stats;
  stats.bytes = text.size();
  const char* cur = text.data();
  const char* const end = text.data() + text.size();
  while (cur <= end) {
    const char* nl =
        cur < end ? static_cast<const char*>(std::memchr(cur, kDelim, static_cast<std::size_t>(end - cur)))
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

std::int64_t Parser::splitBoundary(std::string_view block, std::uint64_t /*maxRecordBytes*/) const {
  if (block.empty()) return -1;
#if defined(__GLIBC__)
  const void* p = ::memrchr(block.data(), kDelim, block.size());
  return p == nullptr ? -1 : static_cast<const char*>(p) - block.data() + 1;
#else
  std::int64_t pos = static_cast<std::int64_t>(block.size()) - 1;
  while (pos >= 0 && block[static_cast<std::size_t>(pos)] != kDelim) --pos;
  return pos < 0 ? -1 : pos + 1;
#endif
}

std::uint64_t Parser::nextBoundary(std::string_view buf, std::uint64_t /*knownBoundary*/,
                                   std::uint64_t from, std::uint64_t /*maxRecordBytes*/) const {
  if (from == 0) return 0;  // the window start is a boundary by convention
  if (from - 1 >= buf.size()) return npos;
  const void* p = std::memchr(buf.data() + from - 1, kDelim, static_cast<std::size_t>(buf.size() - from + 1));
  return p == nullptr ? npos : static_cast<std::uint64_t>(static_cast<const char*>(p) - buf.data()) + 1;
}

ParseStats Parser::parseAll(std::string_view text,
                            const std::function<void(geom::Geometry&&)>& sink) const {
  geom::Geometry g;
  return splitRecords(text, [&](std::string_view record) {
    if (!parseRecord(record, g)) return false;
    sink(std::move(g));
    g = geom::Geometry();
    return true;
  });
}

ParseStats Parser::parseAll(std::string_view text, geom::GeometryBatch& out) const {
  // Records average well under 100 bytes in the paper's datasets; a rough
  // pre-size avoids the early arena doublings without overshooting much.
  const std::size_t records = text.size() / 64 + 1;
  out.reserve(records, records * 8, records * 2, records * 8);
  return splitRecords(text, [&](std::string_view record) { return parseRecordInto(record, out); });
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
