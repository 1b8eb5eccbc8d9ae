#pragma once
// Shared pieces of the delaylb benchmark binary: the command line, the
// per-run report it prints, clocks, and the optimality certificate.
//
// The binary runs ONE repetition of one workload per process and prints a
// single JSON report on stdout; benchmark/run.py repeats, alternates and
// aggregates. Everything here times the library only through its public
// entry points, from outside.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/allocation.h"
#include "core/instance.h"
#include "obs/hub.h"

namespace delaylb::benchmark {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Attach the flight recorder (wall lanes on) and run the checkpoint
  /// probes; per-layer numbers come only from such runs.
  bool traced = false;
  /// Small sizes for a fast smoke run (no pinned fingerprints apply).
  bool quick = false;
  /// Traced runs write the hub's metrics and the merged trace here
  /// (empty = skip).
  std::string metrics_out;
  std::string trace_out;
};

/// Wall-clock and process-CPU stopwatch (CPU covers every thread of the
/// process, so it exposes spinning and oversubscription).
class Stopwatch {
 public:
  Stopwatch();
  double WallSeconds() const;
  double CpuSeconds() const;

 private:
  double wall0_;
  double cpu0_;
};

double PeakRssMb();

/// Wall time of a fixed reference kernel that uses nothing from the
/// library: sorting doubles and chasing pointers through a 16 MB cycle,
/// best of three. run.py divides the repetition's timings by it, so a
/// host that runs everything slower for minutes at a time does not read
/// as a regression (see benchmark/README.md).
double ReferenceSeconds();

/// Nearest-rank quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Mean(const std::vector<double>& samples);

/// The Frank-Wolfe duality gap of `alloc`: with g_ij = l_j/s_j + c_ij (the
/// gradient of SumC),
///   gap = sum_i ( sum_j r_ij g_ij - n_i min_{j: c_ij finite} g_ij ).
/// SumC is convex, so SumC(alloc) - gap is a certified lower bound on the
/// optimum: no reference solve is needed to know how far from optimal an
/// allocation is. One O(m^2) pass over public accessors.
double CertifiedGap(const core::Instance& instance,
                    const core::Allocation& alloc);

/// One repetition's findings, printed as one JSON object.
///
///  * timing: wall-domain numbers (vary run to run);
///  * values: deterministic results, identical for every repetition of one
///    seed and between traced and untraced runs;
///  * layers: per-layer numbers, traced runs only;
///  * checks: output checks (name, pass, detail).
class Report {
 public:
  void Timing(std::string name, double value);
  void Value(std::string name, double value);
  void Text(std::string name, std::string value);
  void Layer(std::string name, double value);
  void Check(std::string name, bool ok, std::string detail = {});

  std::string ToJson(const Options& options) const;
  std::size_t failures() const noexcept;

 private:
  struct CheckResult {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<std::pair<std::string, double>> timing_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::pair<std::string, std::string>> texts_;
  std::vector<std::pair<std::string, double>> layers_;
  std::vector<CheckResult> checks_;
};

/// Exact textual form of a double (%.17g) for fingerprint comparisons.
std::string Exact(double value);

/// The hub of a traced run: wall lanes on, so the PDES kernel also
/// profiles its windows. Null for untraced runs.
std::unique_ptr<obs::Hub> MakeHub(const Options& options);

/// A wall-clock span of the benchmark itself (RunUntil segment, Step,
/// probe batch) on the traced run's recorder, track "benchmark". No-op
/// when `hub` is null.
class BenchSpan {
 public:
  BenchSpan(obs::Hub* hub, const char* name, double arg);
  ~BenchSpan();
  BenchSpan(const BenchSpan&) = delete;
  BenchSpan& operator=(const BenchSpan&) = delete;

 private:
  obs::Hub* hub_;
  const char* name_;
  double arg_;
  double start_us_ = 0.0;
};

/// Writes the hub's metrics and trace documents to the paths in
/// `options` (each skipped when empty); false when a write fails.
bool ExportHub(const obs::Hub& hub, double now, const Options& options);

}  // namespace delaylb::benchmark
