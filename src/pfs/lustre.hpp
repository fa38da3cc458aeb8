#pragma once
// Lustre-like storage model (see DESIGN.md §2, substitution table).
//
// Mechanisms modelled, each tied to a finding in the paper:
//  * Per-OST queueing (latency + bandwidth): bandwidth scales with the
//    number of distinct OSTs hit concurrently, up to stripeCount — the
//    rising segments of Figs 8 and 9.
//  * Per-node client throughput cap: a single Lustre client moves well
//    under the link rate, so small node counts are client-bound — the
//    low-process end of Fig 8.
//  * Aggregate backbone cap (COMET quotes ~100 GB/s durable storage).
//  * Congestion: per-request service latency grows with the backlog
//    already queued on the OST, giving the mild post-peak decline the
//    paper observes at 72 nodes.
//
// Stripe placement: stripe s of a file lives on OST s mod stripeCount —
// Lustre's round-robin layout, except that the model has no per-file
// first OST: every file starts on OST 0. Requests priced at offset 0 of a
// default 1 MiB x 4 layout (SpillPricer::onVolume: spill, checkpoint and
// recovery blobs) therefore all queue on OST 0 when they fit in one
// stripe.

#include <mutex>
#include <vector>

#include "pfs/storage_model.hpp"

namespace mvio::pfs {

struct LustreParams {
  int osts = 96;                       ///< OST pool size (COMET: 96)
  double ostBandwidth = 0.36e9;        ///< service rate per OST, bytes/s
  double ostLatency = 1.0e-3;          ///< base per-request latency, s
  double congestionFactor = 0.01;      ///< extra service per unit of queued backlog
  double clientBandwidth = 1.3e9;      ///< per-node client cap, bytes/s
  double aggregateBandwidth = 100e9;   ///< backbone cap, bytes/s
  int nodes = 72;                      ///< compute nodes issuing I/O
};

class LustreModel final : public StorageModel {
 public:
  explicit LustreModel(const LustreParams& params);

  double read(int node, const StripeSettings& stripe, std::uint64_t offset, std::uint64_t bytes,
              double start) override;

  [[nodiscard]] int serverCount() const override { return params_.osts; }
  [[nodiscard]] bool supportsStriping() const override { return true; }
  void reset() override;

  [[nodiscard]] const LustreParams& params() const { return params_; }

 private:
  LustreParams params_;
  std::mutex mutex_;
  std::vector<QueueStation> osts_;
  std::vector<QueueStation> clients_;
  QueueStation backbone_;
};

}  // namespace mvio::pfs
