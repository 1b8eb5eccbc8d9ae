// Runtime workloads: the message-passing DistributedRuntime on the
// clustered topology of bench_shard_scaling / bench_churn_scaling.
//
// Measured phase: RunUntil in 50 ms segments (only those calls are
// timed). After each segment the mean latency a request observes,
// SumC / sum(n_i), is sampled off LightSnapshot (untimed) — its time
// average is latency_auc_ms, i.e. how fast the distributed algorithm
// lowers latency.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/allocation.h"
#include "core/cost.h"
#include "dist/runtime.h"
#include "net/latency_matrix.h"
#include "probes.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

namespace delaylb::benchmark {
namespace {

constexpr double kSegmentMs = 50.0;
/// One PDES worker: lock-step windows on a shared host stall on whichever
/// core is slowest, which made multi-worker timings swing by 2x between
/// runs. Results are bit-identical for any worker count.
constexpr std::size_t kWorkers = 1;
constexpr double kMb = 1024.0 * 1024.0;
/// Probes run every kProbeEvery segments (every 100 ms of sim time).
constexpr std::size_t kProbeEvery = 2;

struct RuntimeSpec {
  std::size_t m;
  std::size_t shards;
  double horizon_ms;
  /// bench_churn_scaling's timeline: 10% of the servers drain out over
  /// [300, 400] ms and rejoin over [600, 700] ms (horizon 1000 ms).
  bool churn;
};

/// bench_shard_scaling's clustered topology: `groups` tight blocks (intra
/// 2-8 ms) separated by wide gaps (inter 40-80 ms), speeds U[1,5],
/// exponential loads with mean 120 — the same draws for the same
/// (m, seed), so instances are shared with that bench.
core::Instance MakeClustered(std::size_t m, std::size_t groups,
                             std::uint64_t seed) {
  util::Rng rng(seed);
  net::LatencyMatrix lat(m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = i + 1; j < m; ++j) {
      const bool same = (i * groups) / m == (j * groups) / m;
      lat.SetSymmetric(i, j, same ? rng.uniform(2.0, 8.0)
                                  : rng.uniform(40.0, 80.0));
    }
  }
  std::vector<double> speeds(m), loads(m);
  for (std::size_t i = 0; i < m; ++i) {
    speeds[i] = rng.uniform(1.0, 5.0);
    loads[i] = rng.exponential(120.0);
  }
  return core::Instance(std::move(speeds), std::move(loads), std::move(lat));
}

void ScheduleChurn(dist::DistributedRuntime& runtime, std::size_t m) {
  const double leave_start = 300.0;
  const double join_start = 600.0;
  const double wave = 100.0;
  const std::size_t churners = std::max<std::size_t>(1, m / 10);
  const std::size_t stride = std::max<std::size_t>(1, m / churners);
  std::vector<std::size_t> ids;
  for (std::size_t i = 3 % stride; i < m && ids.size() < churners;
       i += stride) {
    ids.push_back(i);
  }
  for (std::size_t k = 0; k < ids.size(); ++k) {
    const double offset =
        wave * static_cast<double>(k) / static_cast<double>(ids.size());
    runtime.ScheduleLeave(ids[k], leave_start + offset);
    runtime.ScheduleJoin(ids[k], join_start + offset);
  }
}

/// Largest relative gap between an organization's assembled row sum and
/// its demand n_i.
double WorstRowError(const core::Instance& instance,
                     const dist::DistributedRuntime& runtime) {
  const core::Allocation alloc = runtime.AssembleAllocation();
  double worst = 0.0;
  for (std::size_t i = 0; i < instance.size(); ++i) {
    double row = 0.0;
    for (const double r : alloc.row(i)) row += r;
    worst = std::max(worst, std::fabs(row - instance.load(i)) /
                                std::max(1.0, instance.load(i)));
  }
  return worst;
}

dist::AgentStats SumStats(const dist::DistributedRuntime& runtime) {
  dist::AgentStats total;
  for (std::size_t id = 0; id < runtime.size(); ++id) {
    const dist::AgentStats& s = runtime.agent(id).stats();
    total.balances_completed += s.balances_completed;
    total.balances_rejected += s.balances_rejected;
    total.balances_no_gain += s.balances_no_gain;
    total.gossip_rounds += s.gossip_rounds;
    total.gossip_adopted += s.gossip_adopted;
    total.joins_completed += s.joins_completed;
    total.join_fallbacks += s.join_fallbacks;
    total.drain_handoffs += s.drain_handoffs;
  }
  return total;
}

/// Rejected handshakes (busy, stale, bounced, timed out, rolled back)
/// over all attempted ones.
double FailRatio(const dist::AgentStats& stats) {
  const double attempts = static_cast<double>(
      stats.balances_completed + stats.balances_rejected +
      stats.balances_no_gain);
  return attempts > 0.0
             ? static_cast<double>(stats.balances_rejected) / attempts
             : 0.0;
}

/// PDES wall lanes of a traced run, summed over windows: the barrier-to-
/// barrier wall time and each shard's dispatch busy time.
struct WallLanes {
  double window_s = 0.0;
  std::vector<double> busy_s;
};

WallLanes ReadWallLanes(const std::string& trace_json, std::size_t shards) {
  WallLanes lanes;
  lanes.busy_s.assign(shards, 0.0);
  const util::JsonValue doc = util::JsonValue::Parse(trace_json);
  for (const util::JsonValue& event : doc.At("traceEvents").AsArray()) {
    const util::JsonValue* cat = event.Find("cat");
    if (cat == nullptr || cat->AsString() != "pdes.wall") continue;
    const double seconds = event.At("dur").AsNumber() * 1e-6;
    const std::string& name = event.At("name").AsString();
    if (name == "window") {
      lanes.window_s += seconds;
    } else if (name == "dispatch") {
      const auto tid = static_cast<std::size_t>(event.At("tid").AsNumber());
      if (tid < shards) lanes.busy_s[tid] += seconds;
    }
  }
  return lanes;
}

void ReportLayers(const dist::DistributedRuntime& runtime, const obs::Hub& hub,
                  const RuntimeProbe& probe, const dist::RuntimeSnapshot& snap,
                  double cpu_s, Report& report) {
  const obs::MetricRegistry& metrics = hub.metrics();
  const LayerSamples& s = probe.samples();
  const auto counter = [&metrics](const char* name) {
    return static_cast<double>(metrics.CounterValue(name));
  };
  const auto quantile = [&metrics](const char* name, double q) {
    return metrics.Has(name) ? metrics.Histogram(name).Quantile(q) : 0.0;
  };

  // sim: the PDES kernel.
  report.Layer("sim.events", static_cast<double>(runtime.events_dispatched()));
  report.Layer("sim.windows", static_cast<double>(runtime.windows()));
  report.Layer("sim.window_events_p50", quantile("pdes.window_events", 0.5));
  report.Layer("sim.heap_occupancy_p99",
               quantile("pdes.heap_occupancy", 0.99));
  const WallLanes lanes = ReadWallLanes(hub.TraceJson(), runtime.shards());
  const double busy_max =
      *std::max_element(lanes.busy_s.begin(), lanes.busy_s.end());
  const double busy_mean = Mean(lanes.busy_s);
  // Time each worker spent at window barriers instead of dispatching.
  report.Layer("sim.barrier_stall_s",
               lanes.window_s - busy_mean * static_cast<double>(
                                                runtime.shards()) /
                                    static_cast<double>(kWorkers));
  report.Layer("sim.shard_busy_max_s", busy_max);
  report.Layer("sim.shard_busy_mean_s", busy_mean);

  // dist.gossip.
  const dist::AgentStats stats = SumStats(runtime);
  report.Layer("gossip.rounds", static_cast<double>(stats.gossip_rounds));
  report.Layer("gossip.view_entries", Mean(s.view_entries));
  report.Layer("gossip.shipped_per_leg", Mean(s.shipped_per_leg));
  report.Layer("gossip.adopt_yield",
               s.shipped > 0.0 ? s.adopted / s.shipped : 0.0);
  report.Layer("gossip.pack_digest_us_p50", Quantile(s.pack_digest_us, 0.5));
  report.Layer("gossip.pack_digest_us_p99", Quantile(s.pack_digest_us, 0.99));
  report.Layer("gossip.pack_entries_us_p50",
               Quantile(s.pack_entries_us, 0.5));
  report.Layer("gossip.pack_entries_us_p99",
               Quantile(s.pack_entries_us, 0.99));
  report.Layer("gossip.merge_us_p50", Quantile(s.merge_us, 0.5));
  report.Layer("gossip.merge_us_p99", Quantile(s.merge_us, 0.99));
  report.Layer("gossip.est_s", s.gossip_est_s);
  report.Layer("gossip.share", cpu_s > 0.0 ? s.gossip_est_s / cpu_s : 0.0);
  report.Layer("wire.gossip_mb", static_cast<double>(snap.bytes_gossip) / kMb);

  // dist.message: column codecs. A balance attempt packs the request
  // column; Algorithm 1 at the responder (completed or no-gain) unpacks
  // it; a completed exchange also packs and unpacks the delta reply.
  const double completed = counter("handshake.completed");
  const double no_gain = counter("handshake.no_gain");
  const double attempts = completed + no_gain +
                          counter("handshake.abort.busy") +
                          counter("handshake.abort.stale") +
                          counter("handshake.bounce") +
                          counter("handshake.timeout");
  const double pack_column = Quantile(s.pack_column_us, 0.5);
  const double pack_delta = Quantile(s.pack_delta_us, 0.5);
  const double unpack = Quantile(s.unpack_column_us, 0.5);
  const double codec_est_s =
      1e-6 * (attempts * pack_column + (completed + no_gain) * unpack +
              completed * (pack_delta + unpack));
  report.Layer("codec.pack_column_us_p50", pack_column);
  report.Layer("codec.pack_delta_us_p50", pack_delta);
  report.Layer("codec.unpack_column_us_p50", unpack);
  report.Layer("codec.column_nnz_mean", Mean(s.column_nnz));
  report.Layer("codec.est_s", codec_est_s);
  report.Layer("wire.column_mb", static_cast<double>(snap.bytes_column) / kMb);
  report.Layer("wire.membership_mb",
               static_cast<double>(snap.bytes_membership) / kMb);
  report.Layer("wire.control_mb",
               static_cast<double>(snap.bytes_control) / kMb);
  report.Layer("wire.total_mb", static_cast<double>(snap.bytes_sent) / kMb);

  // core.pairwise: Algorithm 1 runs at the responder of every completed
  // or no-gain balance and of every seeded join.
  const double pairwise_calls =
      completed + no_gain + counter("membership.joins");
  const double balance_us = Quantile(s.balance_us, 0.5);
  const double pairwise_est_s = 1e-6 * pairwise_calls * balance_us;
  report.Layer("pairwise.balance_us_p50", balance_us);
  report.Layer("pairwise.balance_us_p99", Quantile(s.balance_us, 0.99));
  report.Layer("pairwise.calls", pairwise_calls);
  report.Layer("pairwise.est_s", pairwise_est_s);

  // dist.agent: handshake outcomes (sim-domain telemetry) and the
  // partner-selection scan every balance attempt runs.
  report.Layer("handshake.completed", completed);
  report.Layer("handshake.no_gain", no_gain);
  report.Layer("handshake.abort_busy", counter("handshake.abort.busy"));
  report.Layer("handshake.abort_stale", counter("handshake.abort.stale"));
  report.Layer("handshake.bounce", counter("handshake.bounce"));
  report.Layer("handshake.timeout", counter("handshake.timeout"));
  report.Layer("handshake.fail_ratio", FailRatio(stats));
  report.Layer("handshake.latency_p50_ms",
               quantile("handshake.latency.completed", 0.5));
  report.Layer("handshake.latency_p99_ms",
               quantile("handshake.latency.completed", 0.99));
  const double proxy_scan = Quantile(s.proxy_scan_us, 0.5);
  const double select_est_s = 1e-6 * attempts * proxy_scan;
  report.Layer("select.proxy_scan_us_p50", proxy_scan);
  report.Layer("select.est_s", select_est_s);

  // dist.membership.
  report.Layer("membership.joins", counter("membership.joins"));
  report.Layer("membership.join_fallbacks",
               counter("membership.join_fallbacks"));
  report.Layer("membership.drain_handoffs",
               counter("membership.drain_handoffs"));
  report.Layer("membership.departures", counter("membership.departures"));

  const double attributed =
      s.gossip_est_s + codec_est_s + pairwise_est_s + select_est_s;
  report.Layer("attributed_share", cpu_s > 0.0 ? attributed / cpu_s : 0.0);
  report.Layer("unattributed_s", cpu_s - attributed);
}

void RunRuntime(const RuntimeSpec& spec, const Options& options,
                Report& report) {
  // ---- set-up: instance generation + runtime construction -------------
  const Stopwatch setup;
  const core::Instance instance =
      MakeClustered(spec.m, 8, options.seed * 977 + spec.m);
  const double instance_s = setup.WallSeconds();
  const std::unique_ptr<obs::Hub> hub = MakeHub(options);
  dist::RuntimeOptions runtime_options;
  runtime_options.seed = options.seed;
  runtime_options.shards = spec.shards;
  runtime_options.threads = kWorkers;
  runtime_options.obs = hub.get();
  if (spec.churn) runtime_options.initial_members.assign(spec.m, 1);
  dist::DistributedRuntime runtime(instance, runtime_options);
  if (spec.churn) ScheduleChurn(runtime, spec.m);
  const double setup_s = setup.WallSeconds();
  report.Timing("setup_s", setup_s);
  report.Timing("setup.instance_s", instance_s);
  report.Timing("setup.construct_s", setup_s - instance_s);

  // ---- measured phase: RunUntil calls only ------------------------------
  std::unique_ptr<RuntimeProbe> probe;
  if (hub != nullptr) {
    probe = std::make_unique<RuntimeProbe>(instance, options.seed);
  }
  const double demand = instance.total_load();
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> costs;  // SumC after every segment
  // Conservation holds exactly whenever no exchange is on the wire: check
  // the assembled row sums at every segment boundary where that is so.
  std::size_t conserved_points = 0;
  double worst_row = 0.0;
  std::uint64_t probed_rounds = 0;
  const auto segments =
      static_cast<std::size_t>(std::llround(spec.horizon_ms / kSegmentMs));
  for (std::size_t segment = 1; segment <= segments; ++segment) {
    const double until = kSegmentMs * static_cast<double>(segment);
    {
      const BenchSpan span(hub.get(), "RunUntil", until);
      const Stopwatch watch;
      runtime.RunUntil(until);
      run_s += watch.WallSeconds();
      cpu_s += watch.CpuSeconds();
    }
    costs.push_back(runtime.LightSnapshot().total_cost);
    if (runtime.UncommittedExchanges() == 0) {
      ++conserved_points;
      worst_row = std::max(worst_row, WorstRowError(instance, runtime));
    }
    if (probe != nullptr &&
        (segment % kProbeEvery == 0 || segment == segments)) {
      const BenchSpan span(hub.get(), "probes", until);
      const std::uint64_t rounds = SumStats(runtime).gossip_rounds;
      probe->Sample(runtime, segment, rounds - probed_rounds);
      probed_rounds = rounds;
    }
  }
  report.Timing("run_s", run_s);
  report.Timing("cpu_s", cpu_s);
  const dist::RuntimeSnapshot snap = runtime.LightSnapshot();
  const std::uint64_t events = runtime.events_dispatched();
  const dist::AgentStats stats = SumStats(runtime);

  // ---- output checks (untimed) ---------------------------------------------
  report.Check("conservation", worst_row <= 1e-9,
               "worst relative row-sum error " + Exact(worst_row) + " over " +
                   std::to_string(conserved_points) + " quiescent samples");
  report.Check("byte_classes",
               snap.bytes_control + snap.bytes_column + snap.bytes_gossip +
                       snap.bytes_membership ==
                   snap.bytes_sent,
               "control + column + gossip + membership != bytes_sent");
  if (spec.churn) {
    report.Check("members_restored", snap.members == spec.m,
                 std::to_string(snap.members) + " members at the end");
  }
  // How far from optimal the run ended, certified (informational: far
  // from convergence the linear lower bound is loose).
  const core::Allocation alloc = runtime.AssembleAllocation();
  const Stopwatch gap_watch;
  const double gap_ratio =
      CertifiedGap(instance, alloc) / core::TotalCost(instance, alloc);
  report.Timing("bench.gap_eval_s", gap_watch.WallSeconds());

  // ---- deterministic results ---------------------------------------------
  report.Value("latency_final_ms", costs.back() / demand);
  report.Value("latency_auc_ms", Mean(costs) / demand);
  report.Value("gap_ratio", gap_ratio);
  report.Value("conserved_points", static_cast<double>(conserved_points));
  report.Value("events", static_cast<double>(events));
  report.Value("windows", static_cast<double>(runtime.windows()));
  report.Value("messages", static_cast<double>(snap.messages_sent));
  report.Value("wire_mb", static_cast<double>(snap.bytes_sent) / kMb);
  report.Value("fail_ratio", FailRatio(stats));
  report.Value("gossip_rounds", static_cast<double>(stats.gossip_rounds));
  report.Value("gossip_adopted", static_cast<double>(stats.gossip_adopted));
  report.Value("drain_handoffs", static_cast<double>(stats.drain_handoffs));
  report.Text("sumc_final", Exact(costs.back()));

  if (hub != nullptr) {
    ReportLayers(runtime, *hub, *probe, snap, cpu_s, report);
    report.Check("export", ExportHub(*hub, spec.horizon_ms, options),
                 "could not write the metrics/trace documents");
  }
}

}  // namespace

void RunGossip(const Options& options, Report& report) {
  RunRuntime({options.quick ? 200u : 800u, 1, 400.0, false}, options,
             report);
}

void RunChurn(const Options& options, Report& report) {
  RunRuntime({options.quick ? 200u : 500u, 4, 1000.0, true}, options, report);
}

}  // namespace delaylb::benchmark
