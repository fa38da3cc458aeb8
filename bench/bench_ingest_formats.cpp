// Ingest format shoot-out (DESIGN.md §12): the same seeded polygon corpus
// (fig15/fig16-style cemetery polygons) parsed from WKT text, decoded
// from the length-prefixed WKB record stream through a materialized
// Geometry, and decoded zero-parse straight into the GeometryBatch
// arenas. Measures parse-phase CPU, heap allocations, and records/s —
// the claim the binary fast path rides on is >= 2x less parse CPU than
// WKT (checked hard below; in practice the gap is an order of
// magnitude), with bit-identical arenas out of every path. A final row
// fans the columnar decode over a 4-thread pool via the record-aligned
// slicer. With MVIO_REPORT_OUT set, every row's parse CPU, records and
// allocations land in a run report (bench/common.hpp).

#include "common.hpp"

int main() {
  using namespace mvio;
  constexpr std::uint64_t kRecords = 20000;
  constexpr int kThreads = 4;
  constexpr int kReps = 3;

  osm::SynthSpec spec = osm::datasetSpec(osm::DatasetId::kCemetery, 13);
  spec.space.world = geom::Envelope(0, 0, 20, 20);
  const osm::RecordGenerator gen(spec);
  const std::string wktText = osm::generateWktText(gen, kRecords);
  const std::string wkbText = osm::generateWkbText(gen, kRecords);

  bench::printHeader(
      "Ingest format shoot-out — WKT text vs length-prefixed WKB records",
      "binary ingest removes the per-coordinate text scan; decode is a bounded memcpy per record",
      "20000 cemetery polygons, one seed in both encodings, serial + 4-thread decode");

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  const core::WkbFormatReader materialized(false);
  const core::WkbFormatReader columnar(true);
  util::ThreadPool pool(kThreads);

  struct Mode {
    const char* label;
    const char* key;  ///< run-report key prefix
    const std::string* input;
    const core::FormatReader* fmt;
    util::ThreadPool* pool;
  };
  const Mode modes[] = {
      {"wkt text", "wkt", &wktText, wkt, nullptr},
      {"wkb materialized", "wkb_materialized", &wkbText, &materialized, nullptr},
      {"wkb columnar", "wkb_columnar", &wkbText, &columnar, nullptr},
      {"wkb columnar t=4", "wkb_columnar_t4", &wkbText, &columnar, &pool},
  };
  obs::RunReport report;
  report.name = "ingest_formats";
  report.setup = "20000 cemetery polygons, WKT text vs WKB records, serial + 4-thread decode, best of 3";

  util::TextTable table({"mode", "input MB", "records", "parse cpu ms", "Mrec/s", "allocs",
                         "alloc MB", "vs wkt cpu"});
  std::string wktShard;
  double wktCpu = 0;
  double columnarCpu = 0;
  for (const Mode& m : modes) {
    double cpu = 1e30;
    core::ParseStats stats;
    bench::Counters delta;
    std::string shard;
    for (int rep = 0; rep < kReps; ++rep) {
      geom::GeometryBatch batch;
      core::ParseTiming timing;
      const bench::Counters t0 = bench::countersNow();
      sim::ThreadCpuTimer timer;
      stats = m.fmt->parseChunk(*m.input, batch, m.pool, &timing);
      const double elapsed = m.pool != nullptr ? timing.critical : timer.elapsed();
      if (elapsed < cpu) {
        cpu = elapsed;
        delta = bench::countersSince(t0);
      }
      if (rep == 0) geom::encodeShard(batch, shard);
    }
    MVIO_CHECK(stats.records == kRecords, "bench corpus must parse fully");
    MVIO_CHECK(stats.badRecords == 0, "bench corpus must parse cleanly");
    if (m.fmt == wkt) {
      wktShard = shard;
      wktCpu = cpu;
    } else {
      // The headline correctness claim: every decode path rebuilds arenas
      // bit-identical to the WKT parse of the same seeded records.
      MVIO_CHECK(shard == wktShard, "format decode diverged from the WKT parse");
    }
    if (m.fmt == &columnar && m.pool == nullptr) columnarCpu = cpu;
    table.addRow({m.label, util::formatFixed(static_cast<double>(m.input->size()) / 1.0e6, 2),
                  std::to_string(stats.records), util::formatFixed(cpu * 1e3, 2),
                  util::formatFixed(static_cast<double>(stats.records) / cpu / 1.0e6, 2),
                  std::to_string(delta.allocs),
                  util::formatFixed(static_cast<double>(delta.allocBytes) / 1.0e6, 2),
                  util::formatFixed(wktCpu / cpu, 1) + "x"});
    const std::string key = m.key;
    report.addValue(key + "_parse_cpu_ms", cpu * 1e3);
    report.addValue(key + "_records", static_cast<double>(stats.records));
    report.addValue(key + "_allocs", static_cast<double>(delta.allocs));
    report.addValue(key + "_alloc_mb", static_cast<double>(delta.allocBytes) / 1.0e6);
  }
  std::printf("%s\n", table.str().c_str());
  report.addValue("wkt_vs_columnar_cpu", wktCpu / columnarCpu);
  bench::maybeWriteReport(report);

  MVIO_CHECK(wktCpu >= 2.0 * columnarCpu,
             "binary fast path must cut parse-phase CPU at least 2x vs WKT");
  std::printf("zero-parse columnar decode: %.1fx less parse CPU than WKT text\n",
              wktCpu / columnarCpu);
  return 0;
}
