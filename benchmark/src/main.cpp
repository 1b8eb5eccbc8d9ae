// delaylb_benchmark: one repetition of one benchmark workload.
//
//   delaylb_benchmark <workload> [--seed N] [--traced] [--quick]
//                     [--metrics-out FILE] [--trace-out FILE]
//
// Prints one JSON report on stdout (see Report in common.h) and exits 0
// when every output check passed, 1 when one failed, 2 on a usage error
// and 3 when the run threw. benchmark/run.py builds this binary, repeats
// it in fresh processes and aggregates the reports.

#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "common.h"
#include "workloads.h"

namespace delaylb::benchmark {

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"gossip-m800", RunGossip},
      {"churn-m500-sharded", RunChurn},
      {"solve-mine-m250", RunSolveMine},
      {"solve-cd-m600", RunSolveCd},
  };
  return workloads;
}

namespace {

int Usage() {
  std::cerr << "usage: delaylb_benchmark <workload> [--seed N] [--traced] "
               "[--quick] [--metrics-out FILE] [--trace-out FILE]\n"
               "workloads:";
  for (const Workload& w : Workloads()) std::cerr << ' ' << w.name;
  std::cerr << '\n';
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  Options options;
  options.workload = argv[1];
  for (int k = 2; k < argc; ++k) {
    const std::string_view flag = argv[k];
    const bool has_value = k + 1 < argc;
    if (flag == "--traced") {
      options.traced = true;
    } else if (flag == "--quick") {
      options.quick = true;
    } else if (flag == "--seed" && has_value) {
      options.seed = std::stoull(argv[++k]);
    } else if (flag == "--metrics-out" && has_value) {
      options.metrics_out = argv[++k];
    } else if (flag == "--trace-out" && has_value) {
      options.trace_out = argv[++k];
    } else {
      return Usage();
    }
  }
  for (const Workload& workload : Workloads()) {
    if (options.workload != workload.name) continue;
    Report report;
    workload.run(options, report);
    report.Timing("peak_rss_mb", PeakRssMb());
    report.Timing("reference_s", ReferenceSeconds());
    std::cout << report.ToJson(options) << '\n';
    return report.failures() == 0 ? 0 : 1;
  }
  return Usage();
}

}  // namespace
}  // namespace delaylb::benchmark

int main(int argc, char** argv) {
  try {
    return delaylb::benchmark::Main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "delaylb_benchmark: " << e.what() << '\n';
    return 3;
  }
}
