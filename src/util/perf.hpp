#pragma once
// Lightweight process-wide performance counters for the hot pipeline paths.
//
// The batch pipeline's whole point is fewer heap allocations and fewer
// payload-byte copies than the per-Geometry path. Allocations are counted
// by the bench binaries (bench/common.hpp overrides operator new); byte
// copies are counted here, at the serialization/staging call sites, so
// benches can print "payload bytes copied" next to wall time and verify
// the exchange performs exactly one copy of payload bytes into the send
// buffer per phase.
//
// The storage is the process-global metrics registry (obs/metrics.hpp,
// counter "pipeline.bytes_copied"), so the value also lands in run
// reports. The handle is resolved once per thread; the per-call cost is
// the same relaxed fetch_add as the old standalone atomic.

#include <atomic>
#include <cstdint>

#include "obs/metrics.hpp"

namespace mvio::util::perf {

inline std::atomic<std::uint64_t>& bytesCopiedCounter() {
  static obs::Counter& counter = obs::processMetrics().counter("pipeline.bytes_copied");
  return counter.raw();
}

/// Charge `n` payload bytes copied by a serialization or staging step.
inline void addBytesCopied(std::uint64_t n) {
  bytesCopiedCounter().fetch_add(n, std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t bytesCopied() {
  return bytesCopiedCounter().load(std::memory_order_relaxed);
}

}  // namespace mvio::util::perf
