#pragma once
// Lightweight process-wide performance counters for the hot pipeline paths.
//
// The batch pipeline's whole point is fewer heap allocations and fewer
// payload-byte copies than the per-Geometry path. Allocations are counted
// by the bench binaries (bench/common.hpp overrides operator new); byte
// copies are counted here, at the serialization/staging call sites, so
// benches can print "payload bytes copied" next to wall time and verify
// the exchange performs exactly one copy of payload bytes into the send
// buffer per phase. Bytes checksummed are counted the same way, at the
// shard codec's CRC calls, so a test can pin each durable byte to one
// hash per side (write, then load).
//
// The storage is the process-global metrics registry (obs/metrics.hpp,
// counters "pipeline.bytes_copied" and "pipeline.bytes_checksummed"), so
// the values also land in run reports. The handle is resolved once per
// thread; the per-call cost is the same relaxed fetch_add as the old
// standalone atomic.

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

inline std::atomic<std::uint64_t>& bytesChecksummedCounter() {
  static obs::Counter& counter = obs::processMetrics().counter("pipeline.bytes_checksummed");
  return counter.raw();
}

/// Charge `n` bytes run through a shard checksum.
inline void addBytesChecksummed(std::uint64_t n) {
  bytesChecksummedCounter().fetch_add(n, std::memory_order_relaxed);
}

[[nodiscard]] inline std::uint64_t bytesChecksummed() {
  return bytesChecksummedCounter().load(std::memory_order_relaxed);
}

}  // namespace mvio::util::perf
