#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (bench_e2e) from the repository root.

  python3 bench/e2e/run.py --workload NAME --seed N --seconds T --trace 0|1
      One run of one workload.  Prints bench_e2e's report, then, as the last
      line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
      --trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
      per_layer metrics (the traced run, whose Chrome trace-event file lands
      in .bench_build/e2e/trace-NAME.json).
  python3 bench/e2e/run.py --set OUT.json [--runs 5] [--seed 1] [--seconds T]
      A set: every workload --runs times, seeds seed..seed+runs-1, with the
      end-to-end metrics of every run written to OUT.json.
  python3 bench/e2e/run.py --compare A.json B.json
      Per workload and end-to-end metric: each set's median and quartiles and
      a verdict against the metric's bound.  Exits 1 if anything got worse
      or any run failed.
  python3 bench/e2e/run.py --smoke
      bench_e2e --smoke: tiny sizes, every workload, traced path included.

Every call configures and builds bench_e2e (Release) into .bench_build/e2e
first; after the first build that only rebuilds what changed.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = Path(__file__).resolve().parent
BUILD_DIR = ROOT / ".bench_build" / "e2e"
BINARY = BUILD_DIR / "bench_e2e"
RUN_TIMEOUT_S = 170
METRIC_LINE = re.compile(r"^(\S+) (\S+) (\S+)$")


class BenchError(Exception):
    pass


def call(cmd, timeout, stdout, stderr=None):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=ROOT,
                            start_new_session=True, text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout} s: {' '.join(map(str, cmd))}")
    return proc.returncode, out


def build():
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "-j4", "--target", "bench_e2e"],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            code, _ = call(step, 840, log, subprocess.STDOUT)
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                raise BenchError("build failed:\n" + "\n".join(tail))


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(args):
    """Runs bench_e2e; returns (exit code, {name: (value, unit)})."""
    code, out = call([str(BINARY)] + args, RUN_TIMEOUT_S, subprocess.PIPE)
    metrics = {}
    for line in out.splitlines():
        print(line)
        match = METRIC_LINE.match(line)
        if match and not line.startswith("#"):
            metrics[match.group(1)] = (float(match.group(2)), match.group(3))
    return code, metrics


def one_run(workload, seed, seconds, trace):
    """One contract run; returns the result object."""
    args = [f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}"]
    if trace:
        args.append(f"--trace={BUILD_DIR / f'trace-{workload}.json'}")
    code, metrics = run_bench(args)
    if "runs_attempted" not in metrics or "runs_failed" not in metrics:
        raise BenchError(f"bench_e2e exited {code} without a result")
    wanted = load_benchmark()["per_layer" if trace else "end_to_end"]
    report = {}
    for entry in wanted:
        name = entry["name"]
        if name not in metrics:
            raise BenchError(f"bench_e2e did not report {name}")
        value, unit = metrics[name]
        if unit != entry["unit"]:
            raise BenchError(f"{name}: unit {unit}, BENCHMARK.json says {entry['unit']}")
        report[name] = {"value": value, "unit": unit}
    failed = int(metrics["runs_failed"][0])
    return {
        "correct": code == 0 and failed == 0,
        "attempted": int(metrics["runs_attempted"][0]),
        "failed": failed,
        "metrics": report,
    }


def make_set(path, runs, seed, seconds):
    bench = load_benchmark()
    result = {"workloads": {}}
    for workload in (w["name"] for w in bench["workloads"]):
        entry = {"seeds": [], "attempted": 0, "failed": 0, "metrics": {}}
        for r in range(runs):
            one = one_run(workload, seed + r, seconds, False)
            entry["seeds"].append(seed + r)
            entry["attempted"] += one["attempted"]
            entry["failed"] += one["failed"]
            for name, m in one["metrics"].items():
                entry["metrics"].setdefault(name, []).append(m["value"])
        result["workloads"][workload] = entry
    Path(path).write_text(json.dumps(result, indent=1) + "\n")
    return all(e["failed"] == 0 for e in result["workloads"].values())


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(metric, va, vb):
    """B against A for one metric: (verdict, quartiles A, quartiles B).

    Worse means B's median is worse than A's by more than the bound.  When
    either side's spread (interquartile range over median) exceeds the bound
    the comparison is unresolved, unless every B run beats every A run.
    Better means B's median beats A's by more than A's own spread."""
    bound = metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    qa, qb = quartiles(va), quartiles(vb)
    spread_a = (qa[2] - qa[0]) / qa[1]
    spread_b = (qb[2] - qb[0]) / qb[1]
    worse_by = sign * (qb[1] - qa[1]) / qa[1]
    if all(sign * x < sign * y for x in vb for y in va):
        return "better", qa, qb
    if max(spread_a, spread_b) > bound:
        return "unresolved", qa, qb
    if worse_by > bound:
        return "WORSE", qa, qb
    if -worse_by > spread_a:
        return "better", qa, qb
    return "within bound", qa, qb


def compare(path_a, path_b):
    bench = load_benchmark()
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    ok = True
    print(f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':<32} "
          f"{'B median [q1, q3]':<32} {'B vs A':>8}  verdict (bound)")
    for workload in (w["name"] for w in bench["workloads"]):
        if workload not in a or workload not in b:
            print(f"{workload:<15} missing from {'A' if workload not in a else 'B'}")
            ok = False
            continue
        for side, entry in (("A", a[workload]), ("B", b[workload])):
            print(f"{workload:<15} fail_frac {side}: {entry['failed']} / "
                  f"{entry['attempted']}")
            ok = ok and entry["failed"] == 0
        for metric in bench["end_to_end"]:
            name = metric["name"]
            va, vb = a[workload]["metrics"][name], b[workload]["metrics"][name]
            result, qa, qb = verdict(metric, va, vb)
            ok = ok and result != "WORSE"
            side_a = f"{qa[1]:.5g} [{qa[0]:.5g}, {qa[2]:.5g}]"
            side_b = f"{qb[1]:.5g} [{qb[0]:.5g}, {qb[2]:.5g}]"
            change = 100.0 * (qb[1] - qa[1]) / qa[1]
            print(f"{workload:<15} {name:<12} {side_a:<32} {side_b:<32} "
                  f"{change:>+7.2f}%  {result} ({100 * metric['bound']:g}%)")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="default: BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", metavar="OUT.json")
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    try:
        if args.compare:
            return 0 if compare(*args.compare) else 1
        if args.seconds is None:
            args.seconds = load_benchmark()["run_seconds"]
        build()
        if args.smoke:
            code, _ = run_bench(["--smoke"])
            return code
        if args.set:
            return 0 if make_set(args.set, args.runs, args.seed, args.seconds) else 1
        if not args.workload:
            parser.error("--workload, --set, --compare or --smoke is required")
        result = one_run(args.workload, args.seed, args.seconds, args.trace == 1)
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    except (BenchError, OSError, ValueError, KeyError) as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
