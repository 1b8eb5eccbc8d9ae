// Solve workloads: a core::Engine from the identity allocation until the
// certified gap (common.h) is at most kGapTolerance x SumC — a fixed
// accuracy, so a faster engine cannot win by stopping early.
//
// Measured phase: the first `timed_steps` Engine::Step calls — a fixed
// amount of work, chosen at or just below the Step count any seed needs
// to certify, so run_s does not inherit the seed-to-seed spread of that
// count. The remaining Steps run untimed until the certificate holds; the
// count is reported (steps). The gap is evaluated after every Step
// outside the timed region (bench.gap_eval_s).

#include <algorithm>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "core/engine.h"
#include "core/workload.h"
#include "probes.h"
#include "util/rng.h"
#include "workloads.h"

namespace delaylb::benchmark {
namespace {

constexpr double kGapTolerance = 1e-3;
/// A Step cap far above what any size here needs; hitting it fails a
/// check instead of looping forever.
constexpr std::size_t kMaxSteps = 1000;
/// Traced runs probe the allocation every kProbeEvery Steps.
constexpr std::size_t kProbeEvery = 5;

struct SolveSpec {
  const char* engine;
  std::size_t m;
  std::size_t timed_steps;

  bool mine() const { return std::string_view(engine) == "mine"; }
};

void ReportLayers(const SolveSpec& spec, const obs::Hub& hub,
                  const SolveProbe& probe,
                  const std::vector<double>& step_ms,
                  const std::vector<double>& balances, double cpu_s,
                  Report& report) {
  const LayerSamples& s = probe.samples();
  const obs::MetricRegistry& metrics = hub.metrics();
  // Estimates cover the timed Steps, the ones cpu_s measures.
  const double steps =
      static_cast<double>(std::min(step_ms.size(), spec.timed_steps));
  const double m = static_cast<double>(spec.m);
  double attributed = 0.0;
  if (spec.mine()) {
    // core.pairwise: every server runs one exact partner scan per Step,
    // previewing each of the other m - 1 servers.
    const double scan_us = Quantile(s.partner_scan_us, 0.5);
    attributed = 1e-6 * steps * m * scan_us;
    report.Layer("pairwise.preview_us_p50", Quantile(s.preview_us, 0.5));
    report.Layer("pairwise.preview_us_p99", Quantile(s.preview_us, 0.99));
    report.Layer("pairwise.scan_us_p50", scan_us);
    report.Layer("pairwise.calls", steps * m * (m - 1.0));
    report.Layer("pairwise.est_s", attributed);
    report.Layer("mine.iterations",
                 static_cast<double>(metrics.CounterValue("mine.iterations")));
    report.Layer("mine.balances_per_step", Mean(balances));
    report.Layer("mine.step_ms_p50", Quantile(step_ms, 0.5));
    report.Layer("mine.step_ms_max", Quantile(step_ms, 1.0));
  } else {
    // opt: one Waterfill per row per coordinate-descent round.
    const double waterfill_us = Quantile(s.waterfill_us, 0.5);
    attributed = 1e-6 * steps * m * waterfill_us;
    report.Layer("cd.waterfill_us_p50", waterfill_us);
    report.Layer("cd.est_s", attributed);
    report.Layer("cd.iterations", static_cast<double>(metrics.CounterValue(
                                      "engine.iterations")));
    report.Layer("cd.step_ms_p50", Quantile(step_ms, 0.5));
    report.Layer("cd.step_ms_max", Quantile(step_ms, 1.0));
  }
  report.Layer("attributed_share", cpu_s > 0.0 ? attributed / cpu_s : 0.0);
  report.Layer("unattributed_s", cpu_s - attributed);
}

void RunSolve(const SolveSpec& spec, const Options& options, Report& report) {
  // ---- set-up: instance generation + engine construction ---------------
  const Stopwatch setup;
  util::Rng rng(options.seed * 977 + spec.m);
  core::ScenarioParams params;
  params.m = spec.m;
  params.mean_load = 50.0;
  params.network = core::NetworkKind::kPlanetLab;
  const core::Instance instance = core::MakeScenario(params, rng);
  const double instance_s = setup.WallSeconds();
  const std::unique_ptr<obs::Hub> hub = MakeHub(options);
  core::EngineOptions engine_options;
  engine_options.mine.seed = options.seed;
  // One worker, for the reason the runtime workloads give: per-server
  // fan-out barriers amplify a shared host's noise. MinE's trace is
  // bit-identical for any thread count.
  engine_options.mine.threads = 1;
  engine_options.mine.obs = hub.get();
  const std::unique_ptr<core::Engine> engine =
      core::MakeEngine(spec.engine, instance, engine_options);
  core::Allocation alloc(instance);
  const double setup_s = setup.WallSeconds();
  report.Timing("setup_s", setup_s);
  report.Timing("setup.instance_s", instance_s);
  report.Timing("setup.construct_s", setup_s - instance_s);

  // ---- measured phase: Step calls only ----------------------------------
  std::unique_ptr<SolveProbe> probe;
  if (hub != nullptr) {
    probe = std::make_unique<SolveProbe>(instance, options.seed);
  }
  const double demand = instance.total_load();
  double run_s = 0.0;
  double cpu_s = 0.0;
  double gap_eval_s = 0.0;
  double cost = 0.0;
  double gap = 0.0;
  std::size_t raised = 0;  // Steps that increased SumC
  double previous = std::numeric_limits<double>::infinity();
  std::vector<double> latency, step_ms, balances;
  while (step_ms.size() < kMaxSteps) {
    core::IterationStats stats;
    {
      const BenchSpan span(hub.get(), "Step",
                           static_cast<double>(step_ms.size() + 1));
      const Stopwatch watch;
      stats = engine->Step(alloc);
      step_ms.push_back(1e3 * watch.WallSeconds());
      if (step_ms.size() <= spec.timed_steps) {
        run_s += step_ms.back() * 1e-3;
        cpu_s += watch.CpuSeconds();
      }
    }
    cost = stats.total_cost;
    if (cost > previous * (1.0 + 1e-12)) ++raised;
    previous = cost;
    latency.push_back(cost / demand);
    balances.push_back(static_cast<double>(stats.balances));
    const Stopwatch gap_watch;
    gap = CertifiedGap(instance, alloc);
    gap_eval_s += gap_watch.WallSeconds();
    if (probe != nullptr && step_ms.size() % kProbeEvery == 0) {
      const BenchSpan span(hub.get(), "probes",
                           static_cast<double>(step_ms.size()));
      if (spec.mine()) {
        probe->SamplePreviews(alloc, step_ms.size());
      } else {
        probe->SampleWaterfills(alloc, step_ms.size());
      }
    }
    if (step_ms.size() >= spec.timed_steps && gap <= kGapTolerance * cost) {
      break;
    }
  }
  report.Timing("run_s", run_s);
  report.Timing("cpu_s", cpu_s);
  report.Timing("bench.gap_eval_s", gap_eval_s);

  // ---- checks ------------------------------------------------------------
  report.Check("valid", alloc.Valid(instance),
               "allocation infeasible at the stop");
  report.Check("certificate", gap >= 0.0 && gap <= kGapTolerance * cost,
               "gap " + Exact(gap) + " vs SumC " + Exact(cost) + " after " +
                   std::to_string(step_ms.size()) + " Steps");
  report.Check("monotone", raised == 0,
               std::to_string(raised) + " Steps raised SumC");

  // ---- deterministic results ---------------------------------------------
  report.Value("latency_final_ms", cost / demand);
  report.Value("latency_auc_ms", Mean(latency));
  report.Value("gap_ratio", gap / cost);
  report.Value("steps", static_cast<double>(step_ms.size()));
  report.Text("sumc_final", Exact(cost));

  if (hub != nullptr) {
    ReportLayers(spec, *hub, *probe, step_ms, balances, cpu_s, report);
    report.Check("export",
                 ExportHub(*hub, static_cast<double>(step_ms.size()), options),
                 "could not write the metrics/trace documents");
  }
}

}  // namespace

void RunSolveMine(const Options& options, Report& report) {
  RunSolve(options.quick ? SolveSpec{"mine", 128, 5}
                         : SolveSpec{"mine", 250, 15},
           options, report);
}

void RunSolveCd(const Options& options, Report& report) {
  RunSolve(options.quick ? SolveSpec{"coordinate-descent", 128, 10}
                         : SolveSpec{"coordinate-descent", 600, 36},
           options, report);
}

}  // namespace delaylb::benchmark
