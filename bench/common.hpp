#pragma once
// Shared scaffolding for the bench harnesses (bench_paper and the rest).
//
// Every harness reproduces one table or figure of the paper at a
// documented scale factor (bench_e2e/README.md):
//  * file sizes, stripe sizes, block sizes and per-request latencies are
//    scaled by the same factor, which leaves modelled *bandwidths*
//    invariant (time and bytes shrink together);
//  * compute phases run real parsing/joining on the scaled data and are
//    charged via measured thread-CPU time;
//  * each harness prints the paper's qualitative expectation next to the
//    regenerated series so the shape comparison is one glance.

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/vector_io.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "osm/datasets.hpp"
#include "osm/virtual_file.hpp"
#include "util/format.hpp"
#include "util/perf.hpp"
#include "util/stats.hpp"

// ---- Allocation counting ------------------------------------------------
// Every bench binary is a single translation unit including this header,
// so the replaceable global allocation functions can live here. They count
// calls and bytes, which is how the harnesses verify the batch pipeline's
// "fewer allocations" claim next to its timings.
//
// Under AddressSanitizer the override is disabled: ASan pairs its own
// operator-new interceptor with the malloc/free below and reports an
// alloc-dealloc mismatch. Sanitized runs (the asan preset) therefore
// report zero allocation counts — they exist to catch memory bugs, not
// to price allocations.

#if defined(__SANITIZE_ADDRESS__)
#define MVIO_BENCH_COUNT_ALLOCS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MVIO_BENCH_COUNT_ALLOCS 0
#endif
#endif
#ifndef MVIO_BENCH_COUNT_ALLOCS
#define MVIO_BENCH_COUNT_ALLOCS 1
#endif

namespace mvio::bench {
inline std::atomic<std::uint64_t> gAllocCount{0};
inline std::atomic<std::uint64_t> gAllocBytes{0};

inline void* countedAlloc(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  gAllocBytes.fetch_add(size, std::memory_order_relaxed);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace mvio::bench

#if MVIO_BENCH_COUNT_ALLOCS
void* operator new(std::size_t size) { return mvio::bench::countedAlloc(size); }
void* operator new[](std::size_t size) { return mvio::bench::countedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace mvio::bench {

/// Snapshot of the pipeline counters (heap allocations here, payload byte
/// copies from util::perf) for before/after deltas around a measured phase.
struct Counters {
  std::uint64_t allocs = 0;
  std::uint64_t allocBytes = 0;
  std::uint64_t bytesCopied = 0;
};

inline Counters countersNow() {
  return {gAllocCount.load(std::memory_order_relaxed), gAllocBytes.load(std::memory_order_relaxed),
          util::perf::bytesCopied()};
}

inline Counters countersSince(const Counters& t0) {
  const Counters now = countersNow();
  return {now.allocs - t0.allocs, now.allocBytes - t0.allocBytes, now.bytesCopied - t0.bytesCopied};
}

/// COMET-like Lustre volume (96 OSTs) with request latency scaled by
/// `scale` so that scaled-down stripes keep the paper's latency/transfer
/// ratio.
inline std::shared_ptr<pfs::Volume> cometVolume(int nodes, double scale) {
  pfs::LustreParams p;
  p.nodes = nodes;
  p.ostLatency = 1.0e-3 * scale;
  return std::make_shared<pfs::Volume>(std::make_shared<pfs::LustreModel>(p));
}

/// ROGER-like GPFS volume with the filesystem block size scaled.
inline std::shared_ptr<pfs::Volume> rogerVolume(int nodes, double scale) {
  pfs::GpfsParams p;
  p.nodes = nodes;
  p.serverLatency = 0.8e-3 * scale;
  p.fsBlockSize = std::max<std::uint64_t>(static_cast<std::uint64_t>(8.0 * (1 << 20) * scale), 4096);
  return std::make_shared<pfs::Volume>(std::make_shared<pfs::GpfsModel>(p));
}

/// Reach into the volume and reset queue state between configurations.
inline void resetModel(pfs::Volume& volume) { volume.model().reset(); }

/// Print the standard harness header.
inline void printHeader(const std::string& experiment, const std::string& paperSays,
                        const std::string& setup) {
  std::printf("==============================================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("  paper: %s\n", paperSays.c_str());
  std::printf("  setup: %s\n", setup.c_str());
  std::printf("==============================================================================\n");
}

/// Scaled stripe helper: paper stripe sizes shrink with the file scale but
/// never below 64 KiB so requests stay non-trivial.
inline std::uint64_t scaledBytes(double paperBytes, double scale, std::uint64_t floor = 64ull << 10) {
  const auto v = static_cast<std::uint64_t>(paperBytes * scale);
  return std::max(v, floor);
}

// ---- Flight recorder / run reports (DESIGN.md §14) ----------------------
// The CI obs lane drives these through the environment:
//   MVIO_TRACE_OUT=<path>   record spans on the instrumented configuration
//                           and write one Chrome/Perfetto trace JSON there
//   MVIO_REPORT_OUT=<path>  write the bench's versioned run-report JSON
//                           there (scripts/check_bench.py gates on it)
// Unset (the default, and the tier-1 path) both are inert.

/// Per-rank recorder for one instrumented Runtime::run. Construct at the
/// top of the rank lambda; tracing turns on only when `record` is set AND
/// MVIO_TRACE_OUT names a destination, so a sweep traces just its
/// designated configuration. finish() is collective — call it as the last
/// collective of the rank function to gather and write the trace.
class RankRecorder {
 public:
  /// Bench rings hold 4 Ki events per lane — framework spans arrive per
  /// round/cell, not per record, so that is headroom, and the lanes stay
  /// small enough to trace a many-rank configuration.
  RankRecorder(bool record, int workerLanes)
      : session(record && std::getenv("MVIO_TRACE_OUT") != nullptr
                    ? obs::TraceConfig::on(1 << 12)
                    : obs::TraceConfig::off(),
                workerLanes) {}

  void finish(mpi::Comm& comm) {
    if (session.tracer() == nullptr) return;
    const char* path = std::getenv("MVIO_TRACE_OUT");
    const std::uint64_t written = obs::writeChromeTrace(comm, path);
    if (comm.rank() == 0) {
      std::printf("trace: wrote %llu events to %s\n",
                  static_cast<unsigned long long>(written), path);
    }
  }

  obs::Session session;
};

/// Drive-by (§14): the bench allocation counters report through the
/// metrics registry — current totals are published as process-level
/// counters next to util::perf's payload-bytes-copied counter, and the
/// registry's scalar contents are appended to the report as single-sample
/// summaries.
inline void appendProcessMetrics(obs::RunReport& report) {
  obs::MetricsRegistry& m = obs::processMetrics();
  obs::Counter& ac = m.counter("bench.alloc_count");
  obs::Counter& ab = m.counter("bench.alloc_bytes");
  ac.reset();
  ac.add(gAllocCount.load(std::memory_order_relaxed));
  ab.reset();
  ab.add(gAllocBytes.load(std::memory_order_relaxed));
  const obs::MetricsRegistry::Snapshot snap = m.snapshot();
  const auto append = [&](const std::string& name, char kind, double v) {
    obs::MetricSummary s;
    s.name = name;
    s.kind = kind;
    s.count = 1;
    s.min = s.max = s.sum = s.mean = s.p50 = s.p99 = v;
    report.metrics.push_back(std::move(s));
  };
  for (const auto& [name, v] : snap.counters) append(name, 'c', static_cast<double>(v));
  for (const auto& [name, v] : snap.gauges) append(name, 'g', v);
}

/// Write the report to MVIO_REPORT_OUT when set (no-op otherwise),
/// folding the process-global counters in first.
inline void maybeWriteReport(obs::RunReport& report) {
  const char* path = std::getenv("MVIO_REPORT_OUT");
  if (path == nullptr) return;
  appendProcessMetrics(report);
  report.writeFile(path);
  std::printf("report: wrote %s\n", path);
}

// ---- Streaming / rebalancing phase columns ------------------------------
// Shared column set for harnesses that price the bounded-memory pipeline:
// exchange rounds and spill time next to the refine phase's shard-reload
// bytes and the shard-migration wire volume (bytes + blob rounds), so a
// budget or rebalance sweep prints comparable rows everywhere.

inline std::vector<std::string> streamPhaseColumns() {
  return {"rounds", "spill t", "refine reload", "migr bytes", "migr blobs",
          "read",   "parse",   "comm",          "migrate",    "total"};
}

inline std::vector<std::string> streamPhaseRow(const core::PhaseBreakdown& p) {
  return {std::to_string(p.rounds),
          util::formatSeconds(p.spill),
          util::formatBytes(p.refineSpillBytes),
          util::formatBytes(p.migrateBytes),
          std::to_string(p.migrateRounds),
          util::formatSeconds(p.read),
          util::formatSeconds(p.parse),
          util::formatSeconds(p.comm),
          util::formatSeconds(p.migrate),
          util::formatSeconds(p.total())};
}

}  // namespace mvio::bench
