#!/usr/bin/env python3
"""The delaylb benchmark: one command that builds, runs, checks and reports.

Standard library only. Builds benchmark/ (a CMake project over the library
sources) into build-bench/, then runs its delaylb_benchmark binary, one
repetition per fresh process.

Suite mode (no --workload): every workload x --reps repetitions (default 5),
alternating workloads, then prints every end-to-end metric by name with its
unit (median, quartiles, min/max, n), runs the output checks and writes a
results JSON for compare.py. --traced adds one traced run per workload and
prints the per-layer table. --quick runs small sizes once, for a smoke test.

    python3 benchmark/run.py [--reps N] [--seed N] [--traced] [--quick]
                             [--out FILE]

Single-workload mode (the BENCHMARK.json command): repeats one workload for
--seconds seconds (default: run_seconds of BENCHMARK.json) and prints, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics — the medians of the end-to-end metrics (--trace 0) or
the per-layer metrics of one extra traced run (--trace 1).

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Exit status: 0 when every check passed, 1 otherwise (including a build
failure, which prints no result).
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "delaylb_benchmark"
OUT = HERE / "out"

# Single-workload mode: never start a repetition that would end past
# --seconds, but always run at least this many so a median exists.
MIN_REPS = 3
# One repetition must finish well inside the 180 s a run may take.
REP_TIMEOUT_S = 150
# End-to-end metrics the binary reports as wall-domain timings; the rest
# are deterministic results of the run.
TIMING_METRICS = ("setup_s", "run_s", "cpu_s", "peak_rss_mb")
# The time metrics are reported in reference seconds: raw seconds x
# REFERENCE_S / the repetition's own reference-kernel time. A shared host
# that runs everything 25% slower for minutes at a time (measured) then
# does not read as a regression. REFERENCE_S is about the kernel's time on
# the baseline host, so the numbers stay close to wall seconds there.
REFERENCE_S = 0.05
SCALED_METRICS = ("setup_s", "run_s", "cpu_s")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def jobs():
    return max(1, min(4, os.cpu_count() or 1))


def build():
    """Configures and builds the benchmark binary; False on failure."""
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "--target",
              "delaylb_benchmark", "-j", str(jobs())]]
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as error:
            log(f"build: {error}")
            return False
        if done.returncode != 0:
            log(f"build failed: {' '.join(step)}")
            return False
    return BINARY.exists()


def run_rep(workload, seed, quick=False, traced=False):
    """One repetition in a fresh process: {'report', 'exit', 'error'}."""
    cmd = [str(BINARY), workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        cmd += ["--traced",
                "--metrics-out", str(OUT / f"{workload}.metrics.json"),
                "--trace-out", str(OUT / f"{workload}.trace.json")]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"report": None, "exit": None,
                "error": f"timed out after {REP_TIMEOUT_S} s"}
    report = None
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            report = json.loads(lines[-1])
        except json.JSONDecodeError:
            report = None
    error = None
    if report is None:
        error = f"exit {done.returncode}, no report: {done.stderr.strip()}"
    return {"report": report, "exit": done.returncode, "error": error}


def rep_failures(rep):
    """Failed output checks of one repetition, as strings."""
    if rep["report"] is None:
        return [rep["error"]]
    failed = [f"{c['name']}: {c['detail']}"
              for c in rep["report"]["checks"] if not c["ok"]]
    if rep["exit"] != 0 and not failed:
        failed.append(f"exit {rep['exit']}")
    return failed


def cross_rep_failures(workload, seed, quick, reps):
    """Determinism across repetitions (traced ones included — the recorder
    must not perturb the run) and the pinned seed-1 fingerprints."""
    reports = [r["report"] for r in reps if r["report"] is not None]
    failures = []
    if not reports:
        return failures
    first = reports[0]
    for report in reports[1:]:
        for key in ("values", "texts"):
            if report[key] != first[key]:
                diff = sorted(k for k in set(first[key]) | set(report[key])
                              if first[key].get(k) != report[key].get(k))
                kind = "traced" if report["traced"] else "untraced"
                failures.append(f"determinism: {kind} repetition differs "
                                f"in {', '.join(diff)}")
    pinned = json.loads((HERE / "fingerprints.json").read_text())
    if quick or seed != pinned["seed"]:
        return failures
    for name, expected in pinned["workloads"].get(workload, {}).items():
        got = first["texts"].get(name, first["values"].get(name))
        if got != expected:
            failures.append(f"fingerprint {name}: {got!r} != pinned "
                            f"{expected!r}")
    return failures


def metric(report, name):
    """One end-to-end metric of one repetition's report."""
    if name not in TIMING_METRICS:
        return report["values"][name]
    value = report["timing"][name]
    if name in SCALED_METRICS:
        value *= REFERENCE_S / report["timing"]["reference_s"]
    return value


def end_to_end_samples(spec, reps):
    """Per-repetition values of every end-to-end metric (untraced only)."""
    samples = {m["name"]: [] for m in spec["end_to_end"]}
    for rep in reps:
        report = rep["report"]
        if report is None or report["traced"]:
            continue
        for name in samples:
            samples[name].append(metric(report, name))
    return samples


def layer_metrics(spec, traced, untraced_reps):
    """Every per-layer metric of the traced repetition; metrics of layers
    the workload does not exercise read 0."""
    layers = {m["name"]: 0.0 for m in spec["per_layer"]}
    report = traced["report"]
    unknown = sorted(set(report["layers"]) - set(layers))
    layers.update({k: v for k, v in report["layers"].items()
                   if k in layers})
    for name in ("setup.instance_s", "setup.construct_s",
                 "bench.gap_eval_s"):
        layers[name] = report["timing"][name]
    good = [r["report"] for r in untraced_reps if r["report"] is not None]
    if good:
        scaled = statistics.median(metric(r, "run_s") for r in good)
        layers["obs.overhead_ratio"] = metric(report, "run_s") / scaled - 1.0
        if "events" in report["values"]:  # runtime workloads
            wall = statistics.median(r["timing"]["run_s"] for r in good)
            events = report["values"]["events"]
            layers["sim.us_per_event"] = 1e6 * wall / events
            layers["sim.events_per_s"] = events / wall
    return layers, unknown


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_end_to_end(spec, workload, samples):
    print(f"\n== {workload}: end-to-end (untraced repetitions) ==")
    print(f"{'metric':<18} {'unit':<6} {'median':>14} {'q1':>14} "
          f"{'q3':>14} {'min':>14} {'max':>14} {'n':>3}")
    for metric in spec["end_to_end"]:
        values = samples[metric["name"]]
        if not values:
            continue
        q1, q3 = quartiles(values)
        print(f"{metric['name']:<18} {metric['unit']:<6} "
              f"{statistics.median(values):>14.6g} {q1:>14.6g} "
              f"{q3:>14.6g} {min(values):>14.6g} {max(values):>14.6g} "
              f"{len(values):>3}")
    print("(medians and quartiles only: this few repetitions cannot support "
          "a tail percentile)")


def print_layers(spec, workload, layers):
    print(f"\n== {workload}: per-layer (one traced repetition) ==")
    for metric in spec["per_layer"]:
        print(f"{metric['name']:<28} {metric['unit']:<8} "
              f"{layers[metric['name']]:>16.6g}")


def single_workload(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"unknown workload {args.workload!r}; one of {', '.join(names)}")
        return 2
    if not build():
        return 1
    start = time.monotonic()
    reps, durations = [], []
    while True:
        began = time.monotonic()
        reps.append(run_rep(args.workload, args.seed, args.quick))
        durations.append(time.monotonic() - began)
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and (
                elapsed + statistics.median(durations) > args.seconds):
            break
    traced = None
    if args.trace:
        traced = run_rep(args.workload, args.seed, args.quick, traced=True)
    every = reps + ([traced] if traced else [])

    failures = [f for rep in every for f in rep_failures(rep)]
    failures += cross_rep_failures(args.workload, args.seed, args.quick,
                                   every)
    failed_reps = sum(1 for rep in every if rep_failures(rep))
    good = [r for r in reps if r["report"] is not None]
    if not good or (args.trace and traced["report"] is None):
        for failure in failures:
            log(f"FAIL {failure}")
        return 1

    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace:
        values, unknown = layer_metrics(spec, traced, good)
        failures += [f"unknown per-layer metric {name}" for name in unknown]
        print_layers(spec, args.workload, values)
    else:
        samples = end_to_end_samples(spec, good)
        print_end_to_end(spec, args.workload, samples)
        values = {name: statistics.median(v) for name, v in samples.items()}
    for failure in failures:
        print(f"FAIL {failure}")
    result = {
        "correct": not failures,
        "attempted": len(every),
        "failed": failed_reps,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


def host():
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model}


def suite(args, spec):
    if not build():
        return 1
    names = [w["name"] for w in spec["workloads"]]
    reps = {name: [] for name in names}
    total = 1 if args.quick else args.reps
    for index in range(total):
        for name in names:  # alternate workloads, one process each
            log(f"[{index + 1}/{total}] {name}")
            reps[name].append(run_rep(name, args.seed, args.quick))
    traced = {}
    if args.traced:
        for name in names:
            log(f"[traced] {name}")
            traced[name] = run_rep(name, args.seed, args.quick, traced=True)

    results = {"seed": args.seed, "quick": args.quick, "reps": total,
               "host": host(), "workloads": {}}
    check_failures = 0
    for name in names:
        every = reps[name] + ([traced[name]] if name in traced else [])
        failures = [f for rep in every for f in rep_failures(rep)]
        failures += cross_rep_failures(name, args.seed, args.quick, every)
        good = [r for r in reps[name] if r["report"] is not None]
        samples = end_to_end_samples(spec, good)
        print_end_to_end(spec, name, samples)
        entry = {"end_to_end": samples, "failures": failures,
                 "timing": [r["report"]["timing"] for r in good],
                 "values": good[0]["report"]["values"] if good else {},
                 "texts": good[0]["report"]["texts"] if good else {}}
        if name in traced and traced[name]["report"] is not None:
            layers, unknown = layer_metrics(spec, traced[name], good)
            failures += [f"unknown per-layer metric {u}" for u in unknown]
            print_layers(spec, name, layers)
            entry["layers"] = layers
        for failure in failures:
            print(f"FAIL {name}: {failure}")
        check_failures += len(failures)
        results["workloads"][name] = entry
    results["check_failures"] = check_failures

    out = Path(args.out) if args.out else OUT / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"\ncheck_failures: {check_failures}")
    print(f"results: {out}")
    return 0 if check_failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload for --seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", help="results JSON (suite mode)")
    args = parser.parse_args()
    try:
        spec = load_spec()
    except (OSError, ValueError) as error:
        log(f"cannot read BENCHMARK.json: {error}")
        return 1
    if args.workload:
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        return single_workload(args, spec)
    return suite(args, spec)


if __name__ == "__main__":
    sys.exit(main())
