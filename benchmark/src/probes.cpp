#include "probes.h"

#include <algorithm>
#include <chrono>

#include "common.h"
#include "dist/gossip.h"
#include "dist/message.h"
#include "opt/waterfill.h"
#include "util/rng.h"

namespace delaylb::benchmark {
namespace {

/// Pairs sampled per checkpoint: enough for a stable median per
/// checkpoint, few enough that probing stays a small share of the run.
constexpr std::size_t kPairsPerCheckpoint = 16;
/// Whole partner scans (m - 1 previews each) per solve checkpoint.
constexpr std::size_t kScansPerCheckpoint = 4;

template <class F>
double TimeUs(F&& call) {
  const auto start = std::chrono::steady_clock::now();
  call();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// The sample rng of one checkpoint: a pure function of (seed,
/// checkpoint), so probes pick the same pairs in every repetition.
util::Rng CheckpointRng(std::uint64_t seed, std::size_t checkpoint) {
  return util::Rng(seed * 0x9E3779B97F4A7C15ull + 0x51ED2701 +
                   static_cast<std::uint64_t>(checkpoint));
}

}  // namespace

RuntimeProbe::RuntimeProbe(const core::Instance& instance, std::uint64_t seed)
    : instance_(instance),
      seed_(seed),
      cache_(instance, core::PairOrderCache::kDefaultMaxBytes, 1) {}

void RuntimeProbe::Sample(const dist::DistributedRuntime& runtime,
                          std::size_t checkpoint, std::uint64_t rounds) {
  const std::size_t m = runtime.size();
  std::vector<std::size_t> active;
  for (std::size_t id = 0; id < m; ++id) {
    if (runtime.agent(id).active()) active.push_back(id);
  }
  if (active.size() < 2) return;
  util::Rng rng = CheckpointRng(seed_, checkpoint);
  std::vector<double> round_costs;
  for (std::size_t k = 0; k < kPairsPerCheckpoint; ++k) {
    const std::size_t a = active[rng.below(active.size())];
    std::size_t b = active[rng.below(active.size() - 1)];
    if (b == a) b = active.back();
    ProbePair(runtime, a, b, round_costs);
  }
  samples_.gossip_est_s +=
      static_cast<double>(rounds) * Quantile(round_costs, 0.5) * 1e-6;
}

void RuntimeProbe::ProbePair(const dist::DistributedRuntime& runtime,
                             std::size_t a, std::size_t b,
                             std::vector<double>& round_costs) {
  const dist::Agent& agent_a = runtime.agent(a);
  const dist::Agent& agent_b = runtime.agent(b);

  // dist.gossip: one pull leg of a's push to b, replayed on view copies.
  const dist::GossipView& view_a = agent_a.view();
  const dist::GossipView& view_b = agent_b.view();
  std::vector<std::uint16_t> digest;
  const double digest_us = TimeUs([&] { digest = view_a.PackDigest(0); });
  std::vector<double> entries;
  const double pack_us =
      TimeUs([&] { entries = view_b.PackEntriesNewerThan(digest); });
  dist::GossipView target = view_a;
  std::size_t adopted = 0;
  const double merge_us =
      TimeUs([&] { adopted = target.MergeEntries(entries); });
  samples_.pack_digest_us.push_back(digest_us);
  samples_.pack_entries_us.push_back(pack_us);
  samples_.merge_us.push_back(merge_us);
  // A round is push (digest), pull (entries + digest, merged by the
  // pusher) and delta (entries, merged by the puller): each call twice.
  round_costs.push_back(2.0 * (digest_us + pack_us + merge_us));
  samples_.view_entries.push_back(static_cast<double>(view_a.entries()));
  samples_.shipped_per_leg.push_back(static_cast<double>(entries.size() / 4));
  samples_.shipped += static_cast<double>(entries.size() / 4);
  samples_.adopted += static_cast<double>(adopted);

  // dist.agent: the partner-selection proxy scan over a's whole view.
  const double s_a = instance_.speed(a);
  const double l_a = agent_a.load();
  double best = -1.0;
  samples_.proxy_scan_us.push_back(TimeUs([&] {
    for (const dist::GossipEntry& e : view_a.known()) {
      if (e.id == a || dist::IsTombstone(e.load)) continue;
      const double score = core::BulkTransferProxy(
          s_a, instance_.speed(e.id), l_a, e.load, instance_.latency(a, e.id));
      best = std::max(best, score);
    }
  }));

  // dist.message + core.pairwise: a's balance request to b, b's
  // Algorithm-1 answer, and the delta-encoded reply.
  const std::span<const double> column_a = agent_a.column();
  std::size_t nnz = 0;
  for (const double v : column_a) nnz += v != 0.0 ? 1 : 0;
  samples_.column_nnz.push_back(static_cast<double>(nnz));
  dist::Message request;
  samples_.pack_column_us.push_back(
      TimeUs([&] { dist::PackColumn(column_a, request); }));
  std::vector<double> decoded;
  samples_.unpack_column_us.push_back(TimeUs([&] {
    dist::UnpackColumn(request, column_a.size(), {}, decoded);
  }));
  core::ColumnBalanceInput input;
  input.s_i = s_a;
  input.s_j = instance_.speed(b);
  input.c_i = cache_.lat_col(a);
  input.c_j = cache_.lat_col(b);
  input.r_i = decoded;
  input.r_j = agent_b.column();
  input.order_cache = &cache_;
  input.cache_i = a;
  input.cache_j = b;
  core::BalanceColumns(input, ws_);  // warms the pair's cached order
  core::PairBalanceResult result;
  samples_.balance_us.push_back(
      TimeUs([&] { result = core::BalanceColumns(input, ws_); }));
  dist::Message reply;
  samples_.pack_delta_us.push_back(TimeUs(
      [&] { dist::PackColumnDelta(column_a, ws_.new_rki, reply); }));
  sink_ += best + result.improvement +
           static_cast<double>(reply.payload.size() + decoded.size());
}

SolveProbe::SolveProbe(const core::Instance& instance, std::uint64_t seed)
    : instance_(instance), seed_(seed) {}

void SolveProbe::SamplePreviews(const core::Allocation& alloc,
                                std::size_t step) {
  if (cache_ == nullptr) {
    cache_ = std::make_unique<core::PairOrderCache>(
        instance_, core::PairOrderCache::kDefaultMaxBytes, 1);
  }
  const std::size_t m = instance_.size();
  util::Rng rng = CheckpointRng(seed_, step);
  for (std::size_t k = 0; k < kPairsPerCheckpoint; ++k) {
    const std::size_t i = rng.below(m);
    std::size_t j = rng.below(m - 1);
    if (j == i) j = m - 1;
    core::PairBalancePreview(instance_, alloc, i, j, ws_, cache_.get());
    core::PairBalanceResult result;
    samples_.preview_us.push_back(TimeUs([&] {
      result =
          core::PairBalancePreview(instance_, alloc, i, j, ws_, cache_.get());
    }));
    sink_ += result.improvement;
  }
  for (std::size_t k = 0; k < kScansPerCheckpoint; ++k) {
    const std::size_t id = rng.below(m);
    const auto scan = [&] {
      double best = 0.0;
      for (std::size_t j = 0; j < m; ++j) {
        if (j == id) continue;
        const core::PairBalanceResult r = core::PairBalancePreview(
            instance_, alloc, id, j, ws_, cache_.get(), best);
        if (!r.aborted && r.improvement > best) best = r.improvement;
      }
      sink_ += best;
    };
    scan();
    samples_.partner_scan_us.push_back(TimeUs(scan));
  }
}

void SolveProbe::SampleWaterfills(const core::Allocation& alloc,
                                  std::size_t step) {
  const std::size_t m = instance_.size();
  util::Rng rng = CheckpointRng(seed_, step);
  std::vector<double> intercept(m);
  for (std::size_t k = 0; k < kPairsPerCheckpoint; ++k) {
    // Row i against every other row's load: coordinate descent's social
    // intercept l^{-i}_j / s_j + c_ij (opt/coordinate_descent.h).
    const std::size_t i = rng.below(m);
    const std::span<const double> row = alloc.row(i);
    for (std::size_t s = 0; s < m; ++s) {
      intercept[s] = (alloc.load(s) - row[s]) / instance_.speed(s) +
                     instance_.latency(i, s);
    }
    opt::WaterfillResult fill;
    samples_.waterfill_us.push_back(TimeUs([&] {
      fill = opt::Waterfill(instance_.speeds(), intercept, instance_.load(i));
    }));
    sink_ += fill.objective;
  }
}

}  // namespace delaylb::benchmark
