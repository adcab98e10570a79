"""One workload in one fresh process: set up, run the closed loop, report.

    python3 bench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

Prints one JSON line: the set-up time, every query latency, the reference
loop's mean time around set-up and its time after every query, the
attempted and failed counts, peak RSS and, with --trace, the per-layer span
sums.
`bench/run.py` starts this; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from fractions import Fraction

from workloads import SRC, WORKLOADS, CliCatalog

REF_ITERATIONS = 300


def reference_ms() -> float:
    """Host-speed reading: a fixed stdlib Fraction loop, in ms.  The
    collector is off so that only the host's speed moves it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = Fraction(0)
        for i in range(1, REF_ITERATIONS + 1):
            s += Fraction(1, i) * Fraction(i + 1, 3)
        return (time.perf_counter() - t0) * 1000.0
    finally:
        gc.enable()


def run_loop(wl, seconds: float, tracer=None, tamper=None) -> dict:
    """Closed loop over whole rounds of queries.  A new round starts only if
    the last round's duration still fits in `seconds`; at least one round
    runs.  Only the program's calls are timed.  An exception or a failed
    check counts the query as failed and the loop goes on.  After every
    query the reference loop runs once, so the references near a query
    track the host's speed while it ran.  `tamper(i, ans)` lets the self-test
    plant a wrong answer after the timed call."""
    latencies, problems, refs = [], [], []
    failed = i = 0
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for _ in range(wl.round_size):
            q = wl.query(i)
            if tracer is not None:
                tracer.query = i
            t0 = time.perf_counter()
            try:
                ans = wl.run(q)
            except Exception as exc:
                ans = exc
            latencies.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.query = -1
                tracer.paused = True  # program calls made by a check are not traced
            try:
                if isinstance(ans, Exception):
                    raise ans
                if tamper is not None:
                    ans = tamper(i, ans)
                bad = wl.check(i, q, ans)
            except Exception as exc:  # counted as a failed query
                bad = [f"{type(exc).__name__}: {exc}"]
            if tracer is not None:
                tracer.paused = False
            if bad:
                failed += 1
                problems.append([i, bad])
            refs.append(reference_ms())
            i += 1
        now = time.perf_counter()
        if now - start + (now - round_start) > seconds:
            break
    return {
        "latencies_s": latencies,
        "ref_ms": refs,
        "attempted": i,
        "failed": failed,
        "problems": problems[:5],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    tracer = None
    refs = [reference_ms() for _ in range(10)]
    t0 = time.perf_counter()
    if cls is CliCatalog:
        wl = CliCatalog(args.seed, traced=args.trace)
    else:
        sys.path.insert(0, str(SRC))
        import fujita.cli  # noqa: F401  (the whole package, as a CLI process loads it)

        import_s = time.perf_counter() - t0
        wl = cls(args.seed)
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
    wl.setup()
    setup_s = wl.setup_s if cls is CliCatalog else time.perf_counter() - t0
    refs += [reference_ms() for _ in range(10)]
    out = {"setup_s": setup_s, "setup_ref_ms": statistics.fmean(refs)}
    if not args.setup_only:
        out.update(run_loop(wl, args.seconds, tracer))
        who = resource.RUSAGE_CHILDREN if cls is CliCatalog else resource.RUSAGE_SELF
        out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        if tracer is not None:
            out["trace"] = tracer.partial(import_s)
        elif args.trace:
            from tracer import merge

            out["trace"] = merge(wl.partials)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
