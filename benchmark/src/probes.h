#pragma once
// Outside-in layer probes.
//
// The library has no in-program layer spans yet, so the traced run
// estimates where the time goes by replaying each layer's public
// functions on COPIES of state captured at checkpoints: gossip views of
// sampled agent pairs, their allocation columns, the solve allocation.
// Each replay is timed on its own, giving a per-call cost at that point of
// the run; multiplying by how often the run calls the layer (counted by
// the library's own telemetry) gives the layer's estimated CPU seconds.
// These are estimates of cost per call, not measurements of the live run.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/allocation.h"
#include "core/instance.h"
#include "core/pair_order_cache.h"
#include "core/pairwise.h"
#include "dist/runtime.h"

namespace delaylb::benchmark {

/// Per-call costs (µs) and work shapes gathered over all checkpoints.
struct LayerSamples {
  std::vector<double> pack_digest_us, pack_entries_us, merge_us;
  std::vector<double> pack_column_us, pack_delta_us, unpack_column_us;
  std::vector<double> balance_us, preview_us, proxy_scan_us, waterfill_us;
  std::vector<double> partner_scan_us;
  std::vector<double> view_entries, shipped_per_leg, column_nnz;
  double shipped = 0.0;
  double adopted = 0.0;
  /// Gossip CPU estimate: for every interval between checkpoints, the
  /// rounds run in it x (2 digests + 2 entry packs + 2 merges) x the
  /// median per-call cost measured at the checkpoint closing it.
  double gossip_est_s = 0.0;
};

/// Probes a DistributedRuntime between RunUntil calls.
class RuntimeProbe {
 public:
  RuntimeProbe(const core::Instance& instance, std::uint64_t seed);

  /// Samples agent pairs at one checkpoint. `rounds` is the number of
  /// gossip rounds the run started since the previous checkpoint.
  void Sample(const dist::DistributedRuntime& runtime, std::size_t checkpoint,
              std::uint64_t rounds);

  const LayerSamples& samples() const noexcept { return samples_; }

 private:
  void ProbePair(const dist::DistributedRuntime& runtime, std::size_t a,
                 std::size_t b, std::vector<double>& round_costs);

  const core::Instance& instance_;
  std::uint64_t seed_;
  core::PairOrderCache cache_;
  core::PairBalanceWorkspace ws_;
  LayerSamples samples_;
  double sink_ = 0.0;  ///< keeps replayed results observable
};

/// Probes a solver engine's allocation between Steps.
class SolveProbe {
 public:
  SolveProbe(const core::Instance& instance, std::uint64_t seed);

  /// core.pairwise: PairBalancePreview (MinE's impr() oracle) on sampled
  /// server pairs, and the exact partner scan of sampled servers — one
  /// preview per candidate, pruned against the best improvement so far,
  /// as MinE's serial exact policy runs it. Order cache warm.
  void SamplePreviews(const core::Allocation& alloc, std::size_t step);
  /// opt: one exact row minimization (opt::Waterfill) on sampled rows.
  void SampleWaterfills(const core::Allocation& alloc, std::size_t step);

  const LayerSamples& samples() const noexcept { return samples_; }

 private:
  const core::Instance& instance_;
  std::uint64_t seed_;
  std::unique_ptr<core::PairOrderCache> cache_;  ///< built on first use
  core::PairBalanceWorkspace ws_;
  LayerSamples samples_;
  double sink_ = 0.0;
};

}  // namespace delaylb::benchmark
