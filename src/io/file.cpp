#include "io/file.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "util/bytes.hpp"
#include "util/error.hpp"

namespace mvio::io {

namespace {

/// Run metadata element for the two-phase request exchange.
const mpi::Datatype& runDatatype() {
  static const mpi::Datatype t = mpi::Datatype::contiguous(2, mpi::Datatype::uint64());
  return t;
}

}  // namespace

File File::open(mpi::Comm& comm, pfs::Volume& volume, const std::string& name, Hints hints) {
  auto object = volume.lookup(name);

  // Count distinct compute nodes in the communicator.
  std::set<int> nodes;
  for (int r = 0; r < comm.size(); ++r) nodes.insert(comm.nodeOfRank(r));
  const int aggCount = aggregatorCount(static_cast<int>(nodes.size()), object->stripe.stripeCount,
                                       volume.model().supportsStriping(), hints.cbNodes);
  std::vector<int> aggregators = chooseAggregatorRanks(comm, aggCount);

  // Collective semantics: everyone synchronises on open.
  comm.barrier();
  return File(comm, volume, std::move(object), hints, std::move(aggregators));
}

File::File(mpi::Comm& comm, pfs::Volume& volume, std::shared_ptr<pfs::FileObject> object, Hints hints,
           std::vector<int> aggregators)
    : comm_(&comm),
      volume_(&volume),
      object_(std::move(object)),
      hints_(hints),
      aggregators_(std::move(aggregators)) {}

std::uint64_t File::size() const { return object_->data->size(); }
const pfs::StripeSettings& File::stripe() const { return object_->stripe; }

void File::setView(std::uint64_t disp, const mpi::Datatype& etype, const mpi::Datatype& filetype) {
  view_ = ViewMap(disp, etype, filetype);
}

// ---- Independent byte access ----------------------------------------------

std::size_t File::readAtBytes(std::uint64_t offset, void* buf, std::size_t n) {
  return wait(ireadAtBytes(offset, buf, n));
}

ReadRequest File::ireadAtBytes(std::uint64_t offset, void* buf, std::size_t n) {
  MVIO_CHECK(n <= kRomioMaxBytes, "ROMIO limit: cannot read more than 2 GB in a single operation");
  const std::uint64_t fileSize = size();
  const double now = comm_->clock().now();
  if (offset >= fileSize || n == 0) return {now, 0};
  const auto m = static_cast<std::size_t>(std::min<std::uint64_t>(n, fileSize - offset));
  object_->data->read(offset, static_cast<char*>(buf), m);
  counters_.modelRequests += 1;
  counters_.bytesMoved += m;
  return {volume_->model().read(comm_->nodeId(), object_->stripe, offset, m, now), m};
}

std::size_t File::wait(const ReadRequest& request) {
  comm_->clock().advanceTo(request.done);
  return request.bytes;
}

std::size_t File::writeAtBytes(std::uint64_t offset, const void* buf, std::size_t n) {
  MVIO_CHECK(n <= kRomioMaxBytes, "ROMIO limit: cannot write more than 2 GB in a single operation");
  if (n == 0) return 0;
  object_->data->write(offset, static_cast<const char*>(buf), n);
  const double done =
      volume_->model().write(comm_->nodeId(), object_->stripe, offset, n, comm_->clock().now());
  comm_->clock().advanceTo(done);
  counters_.modelRequests += 1;
  counters_.bytesMoved += n;
  return n;
}

std::size_t File::readAtAllBytes(std::uint64_t offset, void* buf, std::size_t n) {
  MVIO_CHECK(n <= kRomioMaxBytes, "ROMIO limit: cannot read more than 2 GB in a single operation");
  const std::uint64_t fileSize = size();
  std::size_t m = 0;
  if (offset < fileSize && n > 0) m = static_cast<std::size_t>(std::min<std::uint64_t>(n, fileSize - offset));
  std::vector<Run> runs;
  if (m > 0) runs.push_back({offset, m});
  collectiveTransfer(false, runs, static_cast<char*>(buf));
  return m;
}

// ---- Typed access -----------------------------------------------------------

std::vector<Run> File::typedRuns(std::uint64_t offsetEtypes, int count,
                                 const mpi::Datatype& memType) const {
  MVIO_CHECK(count >= 0, "negative element count");
  const std::uint64_t payloadBytes = memType.size() * static_cast<std::uint64_t>(count);
  MVIO_CHECK(payloadBytes <= kRomioMaxBytes, "ROMIO limit: single operation exceeds 2 GB");
  std::vector<Run> runs = view_.runs(offsetEtypes * view_.etype().size(), payloadBytes);
  const std::uint64_t fileSize = size();
  for (const auto& r : runs) {
    MVIO_CHECK(r.offset + r.length <= fileSize, "view access reaches past end of file");
  }
  return runs;
}

void File::sieveRead(const std::vector<Run>& runs, char* payload) {
  if (runs.empty()) return;
  auto& model = volume_->model();
  auto& clock = comm_->clock();
  const int node = comm_->nodeId();

  // Fast path: one contiguous run needs no sieving.
  if (runs.size() == 1) {
    object_->data->read(runs[0].offset, payload, runs[0].length);
    clock.advanceTo(model.read(node, object_->stripe, runs[0].offset, runs[0].length, clock.now()));
    counters_.modelRequests += 1;
    counters_.bytesMoved += runs[0].length;
    return;
  }

  // Data sieving: read the whole hull [lo, hi) in buffer-sized windows and
  // pick out the requested pieces — ROMIO's strategy for independent
  // non-contiguous access (and the reason it reads "hole" bytes too).
  // Library CPU (piece processing + staging copies) is charged from the
  // hints' cost model.
  clock.advanceBy(static_cast<double>(runs.size()) * hints_.cpuPerPieceSeconds);
  const std::uint64_t lo = runs.front().offset;
  const std::uint64_t hi = runs.back().offset + runs.back().length;
  std::vector<char> window(static_cast<std::size_t>(std::min<std::uint64_t>(hints_.sieveBufferSize, hi - lo)));

  // Per-run payload prefix offsets.
  std::vector<std::uint64_t> prefix(runs.size() + 1, 0);
  for (std::size_t i = 0; i < runs.size(); ++i) prefix[i + 1] = prefix[i] + runs[i].length;

  std::size_t cursor = 0;  // current run index
  for (std::uint64_t wLo = lo; wLo < hi; wLo += window.size()) {
    const std::uint64_t wHi = std::min<std::uint64_t>(wLo + window.size(), hi);
    object_->data->read(wLo, window.data(), wHi - wLo);
    clock.advanceTo(model.read(node, object_->stripe, wLo, wHi - wLo, clock.now()));
    clock.advanceBy(static_cast<double>(wHi - wLo) / hints_.cpuBytesPerSecond);
    counters_.modelRequests += 1;
    counters_.bytesMoved += wHi - wLo;

    while (cursor < runs.size() && runs[cursor].offset < wHi) {
      const Run& r = runs[cursor];
      const std::uint64_t a = std::max(r.offset, wLo);
      const std::uint64_t b = std::min(r.offset + r.length, wHi);
      if (a < b) {
        std::memcpy(payload + prefix[cursor] + (a - r.offset), window.data() + (a - wLo), b - a);
      }
      if (r.offset + r.length <= wHi) {
        ++cursor;
      } else {
        break;  // run continues into the next window
      }
    }
  }
}

int File::readAt(std::uint64_t offsetEtypes, void* buf, int count, const mpi::Datatype& memType) {
  const std::vector<Run> runs = typedRuns(offsetEtypes, count, memType);
  const std::uint64_t payloadBytes = memType.size() * static_cast<std::uint64_t>(count);
  std::vector<char> payload(static_cast<std::size_t>(payloadBytes));
  sieveRead(runs, payload.data());
  if (count > 0) memType.unpack(payload.data(), payload.size(), buf, count);
  return count;
}

int File::writeAt(std::uint64_t offsetEtypes, const void* buf, int count, const mpi::Datatype& memType) {
  const std::vector<Run> runs = typedRuns(offsetEtypes, count, memType);
  std::string payload;
  if (count > 0) memType.pack(buf, count, payload);
  auto& model = volume_->model();
  auto& clock = comm_->clock();
  const int node = comm_->nodeId();
  std::uint64_t pos = 0;
  for (const auto& r : runs) {
    object_->data->write(r.offset, payload.data() + pos, r.length);
    clock.advanceTo(model.write(node, object_->stripe, r.offset, r.length, clock.now()));
    counters_.modelRequests += 1;
    counters_.bytesMoved += r.length;
    pos += r.length;
  }
  return count;
}

int File::readAtAll(std::uint64_t offsetEtypes, void* buf, int count, const mpi::Datatype& memType) {
  const std::vector<Run> runs = typedRuns(offsetEtypes, count, memType);
  const std::uint64_t payloadBytes = memType.size() * static_cast<std::uint64_t>(count);
  std::vector<char> payload(static_cast<std::size_t>(payloadBytes));
  collectiveTransfer(false, runs, payload.data());
  if (count > 0) memType.unpack(payload.data(), payload.size(), buf, count);
  return count;
}

int File::writeAtAll(std::uint64_t offsetEtypes, const void* buf, int count, const mpi::Datatype& memType) {
  const std::vector<Run> runs = typedRuns(offsetEtypes, count, memType);
  std::string payload;
  if (count > 0) memType.pack(buf, count, payload);
  collectiveTransfer(true, runs, payload.data());
  return count;
}

// ---- Two-phase collective transfer ------------------------------------------

void File::collectiveTransfer(bool isWrite, const std::vector<Run>& myRuns, char* payload) {
  mpi::Comm& comm = *comm_;
  const int p = comm.size();
  const int a = static_cast<int>(aggregators_.size());
  const std::uint64_t stripeSize = object_->stripe.stripeSize;

  // Local hull.
  std::uint64_t lo = ~0ull, hi = 0, myBytes = 0;
  for (const auto& r : myRuns) {
    MVIO_CHECK(r.offset + r.length <= size(), "collective access reaches past end of file");
    lo = std::min(lo, r.offset);
    hi = std::max(hi, r.offset + r.length);
    myBytes += r.length;
  }
  MVIO_CHECK(myBytes <= kRomioMaxBytes, "ROMIO limit: single collective operation exceeds 2 GB per rank");

  // Round 1: hull exchange (the "extra" metadata round of collective I/O).
  std::vector<std::uint64_t> hulls(static_cast<std::size_t>(2 * p));
  const std::uint64_t mine[2] = {lo, hi};
  comm.allgather(mine, 2, mpi::Datatype::uint64(), hulls.data());
  std::uint64_t gLo = ~0ull, gHi = 0;
  for (int i = 0; i < p; ++i) {
    gLo = std::min(gLo, hulls[static_cast<std::size_t>(2 * i)]);
    gHi = std::max(gHi, hulls[static_cast<std::size_t>(2 * i + 1)]);
  }
  if (gHi <= gLo || gLo == ~0ull) {
    comm.barrier();  // nobody moves data; stay collective
    return;
  }

  // Stripe-aligned file domains over [gLo, gHi).
  auto domainStart = [&](int d) -> std::uint64_t {
    if (d <= 0) return gLo;
    if (d >= a) return gHi;
    const std::uint64_t raw = gLo + (gHi - gLo) * static_cast<std::uint64_t>(d) / static_cast<std::uint64_t>(a);
    const std::uint64_t aligned = (raw + stripeSize - 1) / stripeSize * stripeSize;
    return std::clamp(aligned, gLo, gHi);
  };

  // Split my runs across aggregator domains. Runs are offset-ascending, so
  // pieces for domain d form a contiguous slice of the payload.
  std::vector<std::vector<Run>> requests(static_cast<std::size_t>(a));
  std::vector<std::uint64_t> bytesPerDomain(static_cast<std::size_t>(a), 0);
  {
    int d = 0;  // runs are ascending, so the domain index only moves forward
    for (const auto& r : myRuns) {
      std::uint64_t cur = r.offset;
      const std::uint64_t end = r.offset + r.length;
      while (cur < end) {
        while (d + 1 < a && domainStart(d + 1) <= cur) ++d;
        const std::uint64_t dEnd = domainStart(d + 1);  // domainStart(a) == gHi > cur
        const std::uint64_t pieceEnd = std::min(end, dEnd);
        requests[static_cast<std::size_t>(d)].push_back({cur, pieceEnd - cur});
        bytesPerDomain[static_cast<std::size_t>(d)] += pieceEnd - cur;
        cur = pieceEnd;
      }
    }
  }

  // Round 2: request metadata to aggregators (alltoall counts + alltoallv runs).
  std::vector<int> sendCounts(static_cast<std::size_t>(p), 0);
  for (int d = 0; d < a; ++d) {
    sendCounts[static_cast<std::size_t>(aggregators_[static_cast<std::size_t>(d)])] =
        static_cast<int>(requests[static_cast<std::size_t>(d)].size());
  }
  std::vector<int> recvCounts(static_cast<std::size_t>(p), 0);
  comm.alltoall(sendCounts.data(), 1, mpi::Datatype::int32(), recvCounts.data());

  std::vector<int> sendDispls(static_cast<std::size_t>(p), 0);
  std::vector<int> recvDispls(static_cast<std::size_t>(p), 0);
  int sendTotal = 0, recvTotal = 0;
  for (int i = 0; i < p; ++i) {
    sendDispls[static_cast<std::size_t>(i)] = sendTotal;
    recvDispls[static_cast<std::size_t>(i)] = recvTotal;
    sendTotal += sendCounts[static_cast<std::size_t>(i)];
    recvTotal += recvCounts[static_cast<std::size_t>(i)];
  }
  std::vector<Run> sendRuns(static_cast<std::size_t>(sendTotal));
  {
    for (int d = 0; d < a; ++d) {
      const int dst = aggregators_[static_cast<std::size_t>(d)];
      std::copy(requests[static_cast<std::size_t>(d)].begin(), requests[static_cast<std::size_t>(d)].end(),
                sendRuns.begin() + sendDispls[static_cast<std::size_t>(dst)]);
    }
  }
  std::vector<Run> recvRuns(static_cast<std::size_t>(recvTotal));
  static_assert(sizeof(Run) == 16, "Run must pack as 2x uint64");
  // Request-list processing cost (ROMIO flattening/offset-length handling).
  comm.clock().advanceBy(static_cast<double>(sendTotal) * hints_.cpuPerPieceSeconds);
  comm.alltoallv(sendRuns.data(), sendCounts.data(), sendDispls.data(), recvRuns.data(), recvCounts.data(),
                 recvDispls.data(), runDatatype());

  // Aggregator-side service buffers, one per source rank.
  std::vector<std::uint64_t> srcBytes(static_cast<std::size_t>(p), 0);
  for (int src = 0; src < p; ++src) {
    for (int k = 0; k < recvCounts[static_cast<std::size_t>(src)]; ++k) {
      srcBytes[static_cast<std::size_t>(src)] +=
          recvRuns[static_cast<std::size_t>(recvDispls[static_cast<std::size_t>(src)] + k)].length;
    }
  }
  std::vector<std::string> service(static_cast<std::size_t>(p));
  for (int src = 0; src < p; ++src) {
    service[static_cast<std::size_t>(src)].resize(srcBytes[static_cast<std::size_t>(src)]);
  }

  // ---- WRITE: payload travels requester -> aggregator first. -------------
  if (isWrite) {
    std::vector<int> byteSend(static_cast<std::size_t>(p), 0);
    std::vector<int> byteSendDispls(static_cast<std::size_t>(p), 0);
    std::vector<int> byteRecv(static_cast<std::size_t>(p), 0);
    std::vector<int> byteRecvDispls(static_cast<std::size_t>(p), 0);
    std::uint64_t off = 0;
    for (int d = 0; d < a; ++d) {
      const int dst = aggregators_[static_cast<std::size_t>(d)];
      byteSend[static_cast<std::size_t>(dst)] = static_cast<int>(bytesPerDomain[static_cast<std::size_t>(d)]);
      byteSendDispls[static_cast<std::size_t>(dst)] = static_cast<int>(off);
      off += bytesPerDomain[static_cast<std::size_t>(d)];
    }
    int pos = 0;
    for (int i = 0; i < p; ++i) {
      byteRecv[static_cast<std::size_t>(i)] = static_cast<int>(srcBytes[static_cast<std::size_t>(i)]);
      byteRecvDispls[static_cast<std::size_t>(i)] = pos;
      pos += byteRecv[static_cast<std::size_t>(i)];
    }
    std::vector<char> inbound(static_cast<std::size_t>(pos));
    comm.alltoallv(payload, byteSend.data(), byteSendDispls.data(), inbound.data(), byteRecv.data(),
                   byteRecvDispls.data(), mpi::Datatype::byte());
    for (int src = 0; src < p; ++src) {
      util::copyBytes(service[static_cast<std::size_t>(src)].data(),
                      inbound.data() + byteRecvDispls[static_cast<std::size_t>(src)],
                      srcBytes[static_cast<std::size_t>(src)]);
    }
  }

  // ---- Aggregator I/O in cb_buffer_size cycles. ---------------------------
  if (recvTotal > 0) {
    // Aggregator-side piece processing cost.
    comm.clock().advanceBy(static_cast<double>(recvTotal) * hints_.cpuPerPieceSeconds);
    std::uint64_t needLo = ~0ull, needHi = 0;
    for (const auto& r : recvRuns) {
      needLo = std::min(needLo, r.offset);
      needHi = std::max(needHi, r.offset + r.length);
    }
    if (needHi > needLo && needLo != ~0ull) {
      auto& model = volume_->model();
      auto& clock = comm_->clock();
      const int node = comm_->nodeId();
      const std::uint64_t cycleBytes = std::max<std::uint64_t>(hints_.cbBufferSize, 1);
      std::vector<char> window(static_cast<std::size_t>(std::min<std::uint64_t>(cycleBytes, needHi - needLo)));
      // Per-source cursors over their (ascending) run lists, plus payload prefix.
      std::vector<int> cursor(static_cast<std::size_t>(p), 0);
      std::vector<std::vector<std::uint64_t>> prefix(static_cast<std::size_t>(p));
      for (int src = 0; src < p; ++src) {
        const int n = recvCounts[static_cast<std::size_t>(src)];
        prefix[static_cast<std::size_t>(src)].assign(static_cast<std::size_t>(n) + 1, 0);
        for (int k = 0; k < n; ++k) {
          prefix[static_cast<std::size_t>(src)][static_cast<std::size_t>(k) + 1] =
              prefix[static_cast<std::size_t>(src)][static_cast<std::size_t>(k)] +
              recvRuns[static_cast<std::size_t>(recvDispls[static_cast<std::size_t>(src)] + k)].length;
        }
      }

      for (std::uint64_t wLo = needLo; wLo < needHi; wLo += window.size()) {
        const std::uint64_t wHi = std::min<std::uint64_t>(wLo + window.size(), needHi);
        // Read the cycle (for writes this is the read half of read-modify-
        // write, which ROMIO performs when requests may not cover the cycle).
        object_->data->read(wLo, window.data(), wHi - wLo);
        clock.advanceTo(model.read(node, object_->stripe, wLo, wHi - wLo, clock.now()));
        clock.advanceBy(static_cast<double>(wHi - wLo) / hints_.cpuBytesPerSecond);
        counters_.modelRequests += 1;
        counters_.bytesMoved += wHi - wLo;

        for (int src = 0; src < p; ++src) {
          int& ci = cursor[static_cast<std::size_t>(src)];
          const int n = recvCounts[static_cast<std::size_t>(src)];
          while (ci < n) {
            const Run& r = recvRuns[static_cast<std::size_t>(recvDispls[static_cast<std::size_t>(src)] + ci)];
            if (r.offset >= wHi) break;
            const std::uint64_t s = std::max(r.offset, wLo);
            const std::uint64_t e = std::min(r.offset + r.length, wHi);
            if (s < e) {
              char* svc = service[static_cast<std::size_t>(src)].data() +
                          prefix[static_cast<std::size_t>(src)][static_cast<std::size_t>(ci)] +
                          (s - r.offset);
              if (isWrite) {
                std::memcpy(window.data() + (s - wLo), svc, e - s);
              } else {
                std::memcpy(svc, window.data() + (s - wLo), e - s);
              }
            }
            if (r.offset + r.length <= wHi) {
              ++ci;
            } else {
              break;
            }
          }
        }

        if (isWrite) {
          object_->data->write(wLo, window.data(), wHi - wLo);
          clock.advanceTo(model.write(node, object_->stripe, wLo, wHi - wLo, clock.now()));
          counters_.modelRequests += 1;
          counters_.bytesMoved += wHi - wLo;
        }
      }
    }
  }

  // ---- READ: payload travels aggregator -> requester. ---------------------
  if (!isWrite) {
    std::vector<int> byteSend(static_cast<std::size_t>(p), 0);
    std::vector<int> byteSendDispls(static_cast<std::size_t>(p), 0);
    std::vector<int> byteRecv(static_cast<std::size_t>(p), 0);
    std::vector<int> byteRecvDispls(static_cast<std::size_t>(p), 0);
    int pos = 0;
    std::vector<char> outbound;
    for (int i = 0; i < p; ++i) {
      byteSend[static_cast<std::size_t>(i)] = static_cast<int>(srcBytes[static_cast<std::size_t>(i)]);
      byteSendDispls[static_cast<std::size_t>(i)] = pos;
      pos += byteSend[static_cast<std::size_t>(i)];
    }
    outbound.resize(static_cast<std::size_t>(pos));
    for (int i = 0; i < p; ++i) {
      util::copyBytes(outbound.data() + byteSendDispls[static_cast<std::size_t>(i)],
                      service[static_cast<std::size_t>(i)].data(),
                      srcBytes[static_cast<std::size_t>(i)]);
    }
    std::uint64_t off = 0;
    for (int d = 0; d < a; ++d) {
      const int src = aggregators_[static_cast<std::size_t>(d)];
      byteRecv[static_cast<std::size_t>(src)] = static_cast<int>(bytesPerDomain[static_cast<std::size_t>(d)]);
      byteRecvDispls[static_cast<std::size_t>(src)] = static_cast<int>(off);
      off += bytesPerDomain[static_cast<std::size_t>(d)];
    }
    comm.alltoallv(outbound.data(), byteSend.data(), byteSendDispls.data(), payload, byteRecv.data(),
                   byteRecvDispls.data(), mpi::Datatype::byte());
  }
}

}  // namespace mvio::io
