"""Record the benchmark's reference files.

    python3 bench/record.py golden              # bench/golden/*.json
    python3 bench/record.py baseline            # bench/baseline.json

`golden` stores the exact answers of the default seed's first queries for
the in-process workloads, and the stdout and exit code of every CLI query.
Re-record only for a change that is meant to alter answers or output.
`baseline` runs `bench/run.py` on seeds 1..10 per workload plain, and once
traced, and stores every result with the git sha, Python version and nproc.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

from workloads import BENCH, DEFAULT_SEED, GOLDEN, GOLDEN_QUERIES, ROOT, SRC, WORKLOADS, CliCatalog

BASELINE_RUNS = 10  # plain runs per workload, on seeds 1..10


def cli_commands() -> list[tuple[str, ...]]:
    """The cli-catalog queries: `fixtures run` over the whole catalog,
    `invariants` on every file, `balanced` on files with subvariety data,
    `zariski` on the surfaces.  The degree-1 file is left to `fixtures run`:
    alone it takes seconds."""
    cmds = [("fixtures", "run", "--json")]
    for path in sorted((SRC / "fujita" / "fixtures_data").glob("*.json")):
        if path.name.startswith("dp1-"):
            continue
        rel = path.relative_to(ROOT).as_posix()
        doc = json.loads(path.read_text(encoding="utf-8"))
        cmds.append(("invariants", "--json", rel))
        if doc.get("subvarieties"):
            cmds.append(("balanced", "--json", rel))
        if doc["model"]["kind"] == "del_pezzo":
            cmds.append(("zariski", "--json", rel))
    return cmds


def record_golden():
    sys.path.insert(0, str(SRC))
    GOLDEN.mkdir(exist_ok=True)
    for name, cls in WORKLOADS.items():
        if cls is CliCatalog:
            wl = CliCatalog(DEFAULT_SEED)
            doc = {}
            for args in [CliCatalog.setup_command] + cli_commands():
                doc[" ".join(args)] = wl.run(args)
        else:
            wl = cls(DEFAULT_SEED)
            wl.load_golden = lambda: None
            wl.setup()
            answers = [wl.canonical(wl.run(wl.query(i))) for i in range(GOLDEN_QUERIES)]
            doc = {"seed": DEFAULT_SEED, "answers": answers}
        with open(GOLDEN / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"recorded {name}", file=sys.stderr)


def bench(workload, seed, seconds, trace) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    host = [ln.split()[1] for ln in proc.stderr.splitlines() if ln.split()[:1] == ["host.ref_loop_ms"]]
    result["host_ref_loop_ms"] = float(host[0])
    return result


def spread(values) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_over_median": (q3 - q1) / statistics.median(values)}


def record_baseline():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                         text=True).stdout.strip()
    out = {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        name = w["name"]
        seeds = range(1, BASELINE_RUNS + 1)
        plain = [bench(name, seed, spec["run_seconds"], 0) for seed in seeds]
        traced = bench(name, DEFAULT_SEED, spec["run_seconds"], 1)
        summary = {
            m["name"]: spread([r["metrics"][m["name"]]["value"] for r in plain])
            for m in spec["end_to_end"]
        }
        out["workloads"][name] = {"plain_runs": plain, "plain_summary": summary,
                                  "traced_run": traced}
        print(f"{name}: " + ", ".join(f"{k} {v['iqr_over_median']:.3f}"
                                      for k, v in summary.items()), file=sys.stderr)
    with open(BENCH / "baseline.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("what", choices=("golden", "baseline"))
    args = ap.parse_args()
    if args.what == "golden":
        record_golden()
    else:
        record_baseline()


if __name__ == "__main__":
    main()
