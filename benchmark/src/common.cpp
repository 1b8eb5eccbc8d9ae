#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "util/json.h"

namespace delaylb::benchmark {

namespace {

/// Wall-lane track of the benchmark's own spans, clear of the PDES
/// kernel's per-shard tracks.
constexpr std::uint32_t kBenchTrack = 1000;

std::atomic<std::uint64_t> reference_sink{0};

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

double ReferenceSeconds() {
  constexpr std::size_t kSortSize = std::size_t{1} << 18;
  constexpr std::size_t kCycleSize = std::size_t{1} << 22;  // 16 MB
  constexpr std::size_t kChaseSteps = std::size_t{1} << 18;
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next_random = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // One random cycle through all slots (Sattolo), built untimed.
  std::vector<std::uint32_t> cycle(kCycleSize);
  for (std::size_t i = 0; i < kCycleSize; ++i) {
    cycle[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = kCycleSize - 1; i > 0; --i) {
    std::swap(cycle[i], cycle[next_random() % i]);
  }
  std::vector<double> values(kSortSize);
  double best = std::numeric_limits<double>::infinity();
  std::uint64_t sink = 0;
  for (int round = 0; round < 3; ++round) {
    const Stopwatch watch;
    for (double& v : values) v = static_cast<double>(next_random() >> 11);
    std::sort(values.begin(), values.end());
    std::uint32_t at = 0;
    for (std::size_t step = 0; step < kChaseSteps; ++step) at = cycle[at];
    sink += at + static_cast<std::uint64_t>(values[kSortSize / 2]);
    best = std::min(best, watch.WallSeconds());
  }
  // Publish the results so the kernel cannot be optimized away.
  reference_sink.store(sink, std::memory_order_relaxed);
  return best;
}

Stopwatch::Stopwatch() : wall0_(WallNow()), cpu0_(ProcessCpuSeconds()) {}

double Stopwatch::WallSeconds() const { return WallNow() - wall0_; }

double Stopwatch::CpuSeconds() const { return ProcessCpuSeconds() - cpu0_; }

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

double CertifiedGap(const core::Instance& instance,
                    const core::Allocation& alloc) {
  const std::size_t m = instance.size();
  std::vector<double> marginal(m);  // l_j / s_j
  for (std::size_t j = 0; j < m; ++j) {
    marginal[j] = alloc.load(j) / instance.speed(j);
  }
  double gap = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    const std::span<const double> row = alloc.row(i);
    double best = std::numeric_limits<double>::infinity();
    for (std::size_t j = 0; j < m; ++j) {
      const double c = instance.latency(i, j);
      if (std::isfinite(c)) best = std::min(best, marginal[j] + c);
    }
    // sum_j r_ij (g_ij - best): the same value as the formula above when
    // the row sums to n_i, written as a sum of non-negative terms so
    // rounding can never certify below zero.
    for (std::size_t j = 0; j < m; ++j) {
      const double c = instance.latency(i, j);
      if (std::isfinite(c)) gap += row[j] * (marginal[j] + c - best);
    }
  }
  return gap;
}

void Report::Timing(std::string name, double value) {
  timing_.emplace_back(std::move(name), value);
}

void Report::Value(std::string name, double value) {
  values_.emplace_back(std::move(name), value);
}

void Report::Text(std::string name, std::string value) {
  texts_.emplace_back(std::move(name), std::move(value));
}

void Report::Layer(std::string name, double value) {
  layers_.emplace_back(std::move(name), value);
}

void Report::Check(std::string name, bool ok, std::string detail) {
  checks_.push_back({std::move(name), ok, std::move(detail)});
}

std::size_t Report::failures() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(checks_.begin(), checks_.end(),
                    [](const CheckResult& c) { return !c.ok; }));
}

std::string Report::ToJson(const Options& options) const {
  std::string out;
  util::JsonWriter w(&out);
  const auto numbers =
      [&w](const char* key,
           const std::vector<std::pair<std::string, double>>& entries) {
        w.Key(key);
        w.BeginObject();
        for (const auto& [name, value] : entries) {
          w.Key(name);
          w.Number(value);
        }
        w.EndObject();
      };
  w.BeginObject();
  w.Key("workload");
  w.String(options.workload);
  w.Key("seed");
  w.UInt(options.seed);
  w.Key("traced");
  w.Bool(options.traced);
  w.Key("quick");
  w.Bool(options.quick);
  numbers("timing", timing_);
  numbers("values", values_);
  w.Key("texts");
  w.BeginObject();
  for (const auto& [name, value] : texts_) {
    w.Key(name);
    w.String(value);
  }
  w.EndObject();
  numbers("layers", layers_);
  w.Key("checks");
  w.BeginArray();
  for (const CheckResult& check : checks_) {
    w.BeginObject();
    w.Key("name");
    w.String(check.name);
    w.Key("ok");
    w.Bool(check.ok);
    w.Key("detail");
    w.String(check.detail);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return out;
}

std::string Exact(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

std::unique_ptr<obs::Hub> MakeHub(const Options& options) {
  if (!options.traced) return nullptr;
  obs::HubOptions hub_options;
  hub_options.wall_lanes = true;
  auto hub = std::make_unique<obs::Hub>(hub_options);
  hub->trace().ThreadName(obs::TracePid::kWall, kBenchTrack, "benchmark");
  return hub;
}

BenchSpan::BenchSpan(obs::Hub* hub, const char* name, double arg)
    : hub_(hub), name_(name), arg_(arg) {
  if (hub_ != nullptr) start_us_ = hub_->trace().WallNowUs();
}

BenchSpan::~BenchSpan() {
  if (hub_ == nullptr) return;
  obs::TraceRecorder& trace = hub_->trace();
  trace.WallSpan(0, kBenchTrack, name_, "benchmark", start_us_,
                 trace.WallNowUs() - start_us_, {{"at", arg_}});
}

namespace {

bool WriteFile(const std::string& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary);
  file << text;
  return static_cast<bool>(file);
}

}  // namespace

bool ExportHub(const obs::Hub& hub, double now, const Options& options) {
  bool ok = true;
  if (!options.metrics_out.empty()) {
    ok = WriteFile(options.metrics_out, hub.MetricsJson(now)) && ok;
  }
  if (!options.trace_out.empty()) {
    ok = WriteFile(options.trace_out, hub.TraceJson()) && ok;
  }
  return ok;
}

}  // namespace delaylb::benchmark
