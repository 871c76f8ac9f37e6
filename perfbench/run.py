#!/usr/bin/env python3
"""The repo benchmark: builds the simulator from source and measures one
workload of BENCHMARK.json end to end (--trace 0) or layer by layer
(--trace 1).

    python3 perfbench/run.py --workload idle-overload --seed 42 \
        --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Run it from the repository root. Each measurement runs in its own child
process (perfbench_runner), so every peak RSS is that run's own and the
traced run's trace buffer never reaches an untraced figure. Workload
definitions, recorded fingerprints, the layer -> end-to-end map and the
seed-tree medians live in perfbench/workloads.json.

The last line of stdout is the result object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit status: 0 with a result, also when a child crashes (its jobs count as
failed); 1 when the benchmark cannot build or start (no result printed);
2 on bad arguments.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

END_TO_END = ["run_cpu_s", "run_wall_s", "setup_s", "peak_rss_mb",
              "locality", "gmtt_s", "makespan_s"]
SIMULATED = {"locality", "gmtt_s", "makespan_s"}
# Host times are reported at the speed of a host on which one calibration
# loop (perfbench_calib) takes this much CPU. A loop runs before the first
# child and after each; a child's host times are scaled by
# REFERENCE_CALIB_S / the mean of the two loops next to it, and the run
# reports the median over its children. Other tenants of a shared machine
# slow the loop and the simulator together for tens of seconds at a time,
# which no median over one run's children can remove.
REFERENCE_CALIB_S = 0.2
HOST_TIMES = {"run_cpu_s", "run_wall_s", "setup_s"}

# Cluster seed of sub-seed i is seed + i * SUB_SEED_STRIDE, so the sub-seed
# sets of nearby seeds never overlap.
SUB_SEED_STRIDE = 1000003


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def fail(message):
    log("perfbench: " + message)
    sys.exit(1)


def build():
    """Configure (once) and build this package (runner, calibration loop,
    self-test); returns the build directory. Build output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources at %s/src; run from a full checkout"
             % ROOT)
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(os.path.abspath(base), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))
    return build_dir


def self_test(build_dir):
    """The C++ self-test (trace-kind -> layer counting, per-layer ratios)
    plus this file's own ratio code."""
    proc = subprocess.run([os.path.join(build_dir, "perfbench_selftest")],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    sys.stderr.write(proc.stdout + proc.stderr)
    absent = ratio(1.5, 0)
    python_ok = (ratio(1, 4)["value"] == 0.25 and absent["value"] is None
                 and describe("x", absent).endswith("absent (1.5 / 0)"))
    if not python_ok:
        log("perfbench self-test: run.py ratio code failed")
    return proc.returncode == 0 and python_ok


def child(build_dir, mode, args):
    """One measurement in its own process: its report, or None when the
    child exited with an error or printed no report."""
    proc = subprocess.run([os.path.join(build_dir, "perfbench_runner"), mode]
                          + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: %s child failed (%d): %s"
            % (mode, proc.returncode, proc.stderr.strip()))
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        log("perfbench: %s child printed no report" % mode)
        return None


def calibrate(build_dir):
    """CPU seconds of one host-speed calibration loop."""
    proc = subprocess.run([os.path.join(build_dir, "perfbench_calib")],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail("calibration loop failed")
    return float(proc.stdout.split()[0])


def recorded_pr8_fingerprint(row):
    """Fingerprint of the BENCH_PR8.json row matching `row`, or None."""
    try:
        with open(os.path.join(ROOT, "BENCH_PR8.json")) as f:
            results = json.load(f)["results"]
    except (OSError, ValueError, KeyError):
        return None
    for r in results:
        if all(r.get(k) == v for k, v in row.items()):
            return r["fingerprint"]
    return None


class Checks:
    """Output checks, each printed once with the number of runs it held
    on; a failure also prints the figures it failed on."""

    def __init__(self):
        self.outcomes = {}
        self.ok = True

    def check(self, ok, what, detail=""):
        passed, failed, first = self.outcomes.get(what, (0, 0, ""))
        if not ok and not first:
            first = detail
        self.outcomes[what] = (passed + ok, failed + (not ok), first)
        self.ok = self.ok and ok
        return ok

    def lines(self):
        for what, (passed, failed, first) in self.outcomes.items():
            line = "%s %s [%d/%d]" % ("FAIL" if failed else "ok  ", what,
                                      passed, passed + failed)
            yield line + (": " + first if first else "")


def run_ok(checks, report, reference, mode):
    """Per-run checks: the fingerprint (when there is a reference for it)
    and the repair and speculation ledgers. Returns whether this run's jobs
    count as done."""
    f = report["facts"]
    ok = True
    if reference is not None:
        ok = checks.check(f["fingerprint"] == reference,
                          "%s fingerprint == %s" % (mode, reference),
                          f["fingerprint"])
    ok &= checks.check(
        f["repairs_enqueued"] == f["repairs_landed"] + f["repairs_abandoned"],
        "repairs enqueued == landed + abandoned",
        "%d != %d + %d" % (f["repairs_enqueued"], f["repairs_landed"],
                           f["repairs_abandoned"]))
    # A speculative race ends in at most one win and one kill, and a race
    # cut short by a node loss in neither, so both stay within launches.
    ok &= checks.check(
        f["speculative_wins"] <= f["speculative_launched"]
        and f["speculative_killed"] <= f["speculative_launched"],
        "speculation wins, kills <= launches",
        "wins %d, kills %d, launches %d" % (f["speculative_wins"],
                                            f["speculative_killed"],
                                            f["speculative_launched"]))
    return ok


def ratio(num, den, unit="ratio"):
    """A ratio with its base; absent (value None) when the base is 0."""
    return {"unit": unit, "value": num / den if den else None,
            "num": num, "den": den}


def number(v):
    """Counts in full, other figures to six significant digits."""
    return "%d" % v if float(v).is_integer() else "%.6g" % v


def describe(name, m):
    if "den" in m:
        value = "absent" if m["value"] is None else number(m["value"])
        return "%-30s %s (%s / %s)" % (name, value, number(m["num"]),
                                       number(m["den"]))
    if m["value"] is None:
        return "%-30s absent" % name
    return "%-30s %s %s" % (name, number(m["value"]), m["unit"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int,
                        help="cluster seed of the run's first sub-seed")
    parser.add_argument("--workload-seed", type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    opts = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        spec = json.load(f)
    if opts.self_test:
        sys.exit(0 if self_test(build()) else 1)
    if opts.workload not in spec["workloads"]:
        parser.error("--workload must be one of: "
                     + ", ".join(spec["workloads"]))
    if opts.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = spec["workloads"][opts.workload]
    recorded = wl["recorded_seeds"]
    wseed = (recorded["workload"] if opts.workload_seed is None
             else opts.workload_seed)
    cseed = recorded["cluster"] if opts.seed is None else opts.seed

    build_dir = build()
    checks = Checks()
    checks.check(self_test(build_dir), "per-layer self-test")

    # At the recorded seeds the first sub-seed's fingerprint must equal the
    # recorded one (and the committed BENCH_PR8.json row, where the
    # workload has one); on other seeds its repeat must equal its first run.
    reference = None
    if (wseed, cseed) == (recorded["workload"], recorded["cluster"]):
        reference = wl["fingerprint"]
        if "bench_pr8_row" in wl:
            pr8 = recorded_pr8_fingerprint(wl["bench_pr8_row"])
            checks.check(pr8 == reference,
                         "recorded fingerprint %s == BENCH_PR8.json row %s"
                         % (reference, pr8))
    global_ok = checks.ok

    runs, traced, loops = [], [], []
    totals = {"jobs": 0, "failed": 0}
    jobs_per_run = next(int(a.split("=", 1)[1]) for a in wl["args"]
                        if a.startswith("jobs="))

    def measure(mode, seed, sink):
        nonlocal reference
        report = child(build_dir, mode, wl["args"] + [
            "wseed=%d" % wseed, "seed=%d" % seed])
        if report is None:
            # A crashed or silent child is a run whose output check failed:
            # all its jobs count as failed.
            checks.check(False, "%s child exits 0 with a report" % mode,
                         "seed %d" % seed)
            totals["jobs"] += jobs_per_run
            totals["failed"] += jobs_per_run
            return None
        facts = report["facts"]
        if seed == cseed and reference is None:
            reference = facts["fingerprint"]
        ok = run_ok(checks, report, reference if seed == cseed else None,
                    mode)
        totals["jobs"] += facts["jobs"]
        totals["failed"] += facts["failed_jobs"] if ok else facts["jobs"]
        sink.append(dict(report, seed=seed))
        return sink[-1]

    if not opts.trace:
        # Untraced: one run per sub-seed, then the first sub-seed again.
        # The sub-seed count is fixed by --seconds and the workload's
        # nominal run cost, never by timing, so a seed always names the
        # same inputs; the medians over sub-seeds keep seed-to-seed
        # variation of the simulated cluster out of the run's figures.
        count = max(2, int(round(opts.seconds / wl["nominal_run_s"])))
        seeds = [cseed + i * SUB_SEED_STRIDE for i in range(count)]
        loops.append(calibrate(build_dir))
        for seed in seeds + [cseed]:
            report = measure("run", seed, runs)
            loops.append(calibrate(build_dir))
            if report is not None:
                report["calib_s"] = (loops[-2] + loops[-1]) / 2
    else:
        # Traced: pairs of untraced and traced runs of the first sub-seed
        # until the next pair would overrun --seconds; at least one pair.
        start, longest, pairs = time.monotonic(), 0.0, 0
        while not pairs or (time.monotonic() - start + longest
                            <= opts.seconds):
            pairs += 1
            t0 = time.monotonic()
            measure("run", cseed, runs)
            measure("traced", cseed, traced)
            longest = max(longest, time.monotonic() - t0)

    def med(reports, name):
        return statistics.median(r["metrics"][name]["value"] for r in reports)

    # With no child that reported there are no metrics: every job failed.
    metrics, notes, raw = {}, [], []
    if runs and not opts.trace:
        distinct = {}
        for report in runs:
            distinct.setdefault(report["seed"], report)
        distinct = list(distinct.values())
        for name in END_TO_END:
            # Simulated figures repeat exactly per sub-seed: take the median
            # over distinct sub-seeds. Host costs: over every run.
            if name in HOST_TIMES:
                raw.append("%s %s" % (name, number(med(runs, name))))
                value = statistics.median(
                    r["metrics"][name]["value"] * REFERENCE_CALIB_S
                    / r["calib_s"] for r in runs)
            else:
                value = med(distinct if name in SIMULATED else runs, name)
            metrics[name] = {"value": value,
                             "unit": runs[0]["metrics"][name]["unit"]}
        notes.append("host times scaled to a %s s calibration loop; "
                     "loop median %s s over %d loops; unscaled medians: %s"
                     % (number(REFERENCE_CALIB_S),
                        number(statistics.median(loops)), len(loops),
                        ", ".join(raw)))
    elif runs and traced:
        for name, m in traced[0]["metrics"].items():
            if name == "traced_run_cpu_s":
                continue
            if m["value"] is not None and "den" not in m:
                m = dict(m, value=med(traced, name))
            metrics[name] = m
        untraced_cpu = med(runs, "run_cpu_s")
        metrics["obs.trace_overhead_frac"] = ratio(
            med(traced, "traced_run_cpu_s") - untraced_cpu, untraced_cpu)
        allocs = runs[0]["facts"]["allocations"]
        metrics["alloc.count"] = {"value": allocs, "unit": "count"}
        metrics["alloc.per_job"] = ratio(allocs, runs[0]["facts"]["jobs"],
                                         "count/job")

    print("perfbench %s: workload seed %d, cluster seed %d, %d untraced + "
          "%d traced runs of %d jobs" % (opts.workload, wseed, cseed,
                                         len(runs), len(traced),
                                         jobs_per_run))
    for name, m in metrics.items():
        print("  " + describe(name, m))
    for note in notes:
        print("  " + note)
    for line in checks.lines():
        print("  check " + line)

    # The result line carries every metric as a number: a ratio whose base
    # is 0 is absent above and reported as 0 here.
    result = {
        "correct": checks.ok,
        "attempted": totals["jobs"],
        "failed": totals["failed"] if global_ok else totals["jobs"],
        "metrics": {name: {"value": m["value"] if m["value"] is not None
                           else 0, "unit": m["unit"]}
                    for name, m in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
