"""Benchmark of the `fujita` package, measured from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds `src/fujita`; the program is loaded from
there.  `--trace 0` reports the end-to-end metrics of BENCHMARK.json:
set-up time as the median of several fresh processes, then one fresh
process running the workload's closed loop for about S seconds.  `--trace 1`
reports the per-layer metrics: the same loop runs S/2 seconds plain and
S/2 seconds with span wrappers installed (see tracer.py), and the latency
ratio of the two over their common queries is the tracing overhead.  Every
answer is checked (see workloads.py); a wrong answer or an exception counts
as failed and the run goes on.  A readable report goes to stderr; the last
line of stdout is the JSON result.

End-to-end times are host-normalized.  On the shared 2-core x86 virtual
machine this benchmark was built on (CPython 3.11.7), each core flips between
two speeds about 2x apart within a second, independently of the other core,
with CPU time equal to wall time.  So every process of a run is pinned to
one CPU, and each worker runs a fixed stdlib Fraction loop (the reference)
around its set-up and after every query.  A set-up time is scaled by REF_MS /
(mean reference time around it), a query latency by REF_MS / (mean of the
references after the nearest queries): each is the time on a host that runs
the reference in REF_MS.  The raw times are printed on stderr.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

from tracer import layer_metrics
from workloads import BENCH, ROOT, SRC, WORKLOADS

REF_MS = 2.5  # nominal reference-loop time that normalized times refer to
REF_WINDOW = 4  # a latency is normalized by the references of queries i-4 .. i+4
SETUP_RUNS = 5  # fresh processes timed for setup_s, spread around the measured
# loop so that one slow stretch of the host does not move them all; the
# median is reported
BUDGET_S = 170  # every child is killed past this point of the run
EXTRA_UNITS = {
    "failed_frac": "ratio",
    "host.ref_loop_ms": "ms",
    "delpezzo.zariski_self_s": "s",
    "toric.polytope_self_s": "s",
}


def worker(deadline, workload, seed, seconds=0.0, trace=False, setup_only=False) -> dict:
    argv = [
        sys.executable,
        str(BENCH / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(seconds),
    ]
    if trace:
        argv.append("--trace")
    if setup_only:
        argv.append("--setup-only")
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def latencies(run) -> list[float]:
    lat, refs = run["latencies_s"], run["ref_ms"]
    out = []
    for i, x in enumerate(lat):
        near = refs[max(0, i - REF_WINDOW): i + REF_WINDOW + 1]
        out.append(x * REF_MS * len(near) / sum(near))
    return out


def setup_time(run) -> float:
    return run["setup_s"] * REF_MS / run["setup_ref_ms"]


def percentile(xs, p) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[round(p * 100) - 1]


def end_to_end(deadline, args) -> tuple[dict, list[dict], str]:
    def setup():
        return worker(deadline, args.workload, args.seed, setup_only=True)

    setups = [setup() for _ in range(SETUP_RUNS // 2)]
    run = worker(deadline, args.workload, args.seed, args.seconds)
    setups.append(run)
    setups += [setup() for _ in range(SETUP_RUNS - len(setups))]
    raw = run["latencies_s"]
    lat = latencies(run)
    metrics = {
        "setup_s": statistics.median(setup_time(s) for s in setups),
        "queries_per_s": len(lat) / sum(lat),
        "query_p50_ms": statistics.median(lat) * 1000.0,
        "query_p90_ms": percentile(lat, 0.9) * 1000.0,
        "peak_rss_mb": run["peak_rss_mb"],
        "host.ref_loop_ms": statistics.fmean(run["ref_ms"]),
    }
    beyond = sum(1 for x in lat if x * 1000.0 > metrics["query_p90_ms"])
    note = (
        f"{len(lat)} queries; query_p90_ms has {beyond} samples beyond it; setup_s is the "
        f"median of {len(setups)}; raw: setup_s {statistics.median(s['setup_s'] for s in setups):.4g}, "
        f"queries_per_s {len(raw) / sum(raw):.4g}, query_p50_ms {statistics.median(raw) * 1000:.4g}, "
        f"query_p90_ms {percentile(raw, 0.9) * 1000:.4g}"
    )
    return metrics, [run], note


def per_layer(deadline, args) -> tuple[dict, list[dict], str]:
    plain = worker(deadline, args.workload, args.seed, args.seconds / 2)
    traced = worker(deadline, args.workload, args.seed, args.seconds / 2, trace=True)
    metrics = layer_metrics(traced["trace"], traced["attempted"])
    n = min(len(plain["latencies_s"]), len(traced["latencies_s"]))
    traced_s = sum(latencies(traced)[:n])
    metrics["trace.overhead_frac"] = traced_s / sum(latencies(plain)[:n]) - 1.0
    metrics["host.ref_loop_ms"] = statistics.fmean(traced["ref_ms"])
    note = (
        f"traced {traced['attempted']} queries; overhead over the first {n} queries "
        f"of a plain run of the same seed"
    )
    return metrics, [plain, traced], note


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "fujita" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"bench: no program to measure: {SRC / 'fujita'} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    # Every process then loads bytecode, as from an installed package.
    compileall.compile_dir(str(SRC / "fujita"), quiet=1)

    try:
        if args.trace:
            metrics, runs, note = per_layer(deadline, args)
        else:
            metrics, runs, note = end_to_end(deadline, args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    metrics["failed_frac"] = failed / attempted

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    print(f"== {args.workload} seed={args.seed} trace={args.trace}: {note}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}", file=sys.stderr)
    for r in runs:
        for i, problems in r["problems"]:
            print(f"  FAILED query {i}: {'; '.join(problems)}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
