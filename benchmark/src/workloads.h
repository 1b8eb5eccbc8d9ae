#pragma once
// The benchmark's workloads. Each runs one repetition into a Report:
// set-up (instance generation + construction), the measured phase (only
// the library's public entry points are timed), then untimed output
// checks and — in traced runs — the layer probes.

#include <vector>

#include "common.h"

namespace delaylb::benchmark {

struct Workload {
  const char* name;
  void (*run)(const Options& options, Report& report);
};

/// Every workload, in the order run.py alternates them.
const std::vector<Workload>& Workloads();

void RunGossip(const Options& options, Report& report);
void RunChurn(const Options& options, Report& report);
void RunSolveMine(const Options& options, Report& report);
void RunSolveCd(const Options& options, Report& report);

}  // namespace delaylb::benchmark
