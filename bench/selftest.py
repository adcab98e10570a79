"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

For every workload, runs one round of the default seed through the same
loop the benchmark uses, with three planted faults: a wrong `a` (or a
changed CLI stdout), a flipped balanced verdict (or a changed exit code),
and an exception.  On dp-dual-path the wrong `a` is too large and comes
with the matching boundary class a*L + K and a valid ray witness, so that
only the Zariski certificate can catch it.  Exactly those three queries
must be counted as failed, and the round must go on to its end.  On the
in-process workloads each fault must be caught by a check of its own, not
only by the comparison with the recorded default-seed answers.  The other
queries pass their checks, including that comparison.  Also checks that
the tracer rebinds `solve_lp` at every module-level name it is bound to.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from worker import run_loop
from workloads import DEFAULT_SEED, SRC, WORKLOADS, CliCatalog, DpDualPath

GOLDEN_MISMATCH = "answer differs from the recorded default-seed answer"


def larger_a(wl, ans):
    """a + 1 with boundary (a + 1)*L + K and its witness: the old witness
    plus a nonnegative combination of the generators equal to L."""
    from fujita.qlinalg import VecQ

    bundle = VecQ(ans["bundle"])
    extra = wl.surfaces[ans["degree"]].variety().eff_cone.express_nonneg(bundle)
    return dict(
        ans,
        a=str(Fraction(ans["a"]) + 1),
        boundary=[str(Fraction(x) + y) for x, y in zip(ans["boundary"], ans["bundle"])],
        witness=tuple(w + x for w, x in zip(ans["witness"], extra)),
    )


def tamperer(wl):
    def tamper(i, ans):
        ans = dict(ans)
        if i == 0:
            if "stdout" in ans:
                ans["stdout"] += "\n"
            elif isinstance(wl, DpDualPath):
                ans = larger_a(wl, ans)
            else:
                ans["a"] = str(Fraction(ans["a"]) + 1)
        elif i == 1:
            if "rc" in ans:
                ans["rc"] += 1
            else:
                ans["balanced"] = not ans["balanced"]
        elif i == 2:
            raise RuntimeError("planted exception")
        return ans

    return tamper


def main() -> int:
    sys.path.insert(0, str(SRC))
    ok = True
    for name, cls in WORKLOADS.items():
        wl = cls(DEFAULT_SEED)
        wl.setup()
        res = run_loop(wl, 0.0, tamper=tamperer(wl))
        failed_ids = [i for i, _ in res["problems"]]
        good = res["failed"] == 3 and failed_ids == [0, 1, 2] and res["attempted"] == wl.round_size
        if cls is not CliCatalog:
            good &= all(set(p) - {GOLDEN_MISMATCH} for _, p in res["problems"])
        ok &= good
        print(f"{'ok' if good else 'FAIL'} {name}: {res['failed']} of {res['attempted']} failed")
        for i, problems in res["problems"]:
            print(f"    query {i}: {'; '.join(problems)}")

    import fujita.cones
    import fujita.simplex
    import fujita.toric
    from tracer import Tracer

    orig = fujita.simplex.solve_lp
    Tracer().install()
    bound = [fujita.simplex.solve_lp, fujita.cones.solve_lp, fujita.toric.solve_lp]
    good = all(f is not orig and f.__wrapped__ is orig for f in bound)
    ok &= good
    print(f"{'ok' if good else 'FAIL'} tracer rebinds solve_lp in simplex, cones and toric")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
