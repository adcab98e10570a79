"""The benchmark's workloads: seeded inputs, the timed query, answer checks.

Each workload is a closed loop with one client: the next query is sent only
after the previous one returned.  Queries come in rounds (one per degree, per
fan, or one pass over the CLI command list), so every run sees the same mix.
Inputs are made here from the seed, never filtered through the program, and
every answer is checked without the code path that produced it.  Answers of
the default seed, and all CLI stdout, must match the recorded files in
`golden/` byte for byte.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = BENCH / "golden"
DEFAULT_SEED = 0
GOLDEN_QUERIES = 60  # answers of the default seed kept per in-process workload
TRACE_MARK = "BENCH_TRACE "


def minus_one_curves(r: int) -> list[tuple[int, ...]]:
    """The (-1)-curves a*H - sum b_i E_i on the plane blown up in r general
    points (r <= 7), as coordinates (a, -b_1, ..., -b_r): square -1 and
    anticanonical degree 1, found from sorted b-multisets and their
    permutations."""
    out = set()
    for a in range(7):
        for bs in itertools.combinations_with_replacement(range(-1, a + 1), r):
            if sum(bs) == 3 * a - 1 and sum(b * b for b in bs) == a * a + 1:
                for perm in set(itertools.permutations(bs)):
                    out.add((a,) + tuple(-b for b in perm))
    return sorted(out)


def _ints(vec) -> tuple[int, ...]:
    return tuple(int(x) for x in vec)


def _fracs(vec) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in vec)


def witness_problems(a, bundle, canonical, boundary, gens, witness) -> list[str]:
    """The ray witness must be nonnegative and recombine exactly to a*L + K."""
    target = tuple(a * l + k for l, k in zip(bundle, canonical))
    out = []
    if tuple(boundary) != target:
        out.append("boundary class != a*L + K")
    if len(witness) != len(gens):
        return out + [f"witness has {len(witness)} entries for {len(gens)} generators"]
    if any(w < 0 for w in witness):
        out.append("negative witness coefficient")
    combo = [Fraction(0)] * len(target)
    for w, g in zip(witness, gens):
        if w:
            for t, x in enumerate(g):
                combo[t] += w * x
    if tuple(combo) != target:
        out.append("witness does not recombine to a*L + K")
    return out


def dot(u, v) -> int:
    """The intersection form diag(1, -1, ..., -1) of a blown-up plane."""
    return u[0] * v[0] - sum(x * y for x, y in zip(u[1:], v[1:]))


def positive_definite(m: list[list[int]]) -> bool:
    """Every leading principal minor positive; Bareiss elimination, whose
    k-th pivot is the k-th leading principal minor, keeps it in integers."""
    m = [row[:] for row in m]
    prev = 1
    for k in range(len(m)):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return True


def zariski_problems(boundary, positive, support, curves) -> tuple[list[str], int]:
    """Certificate that the boundary class D is not big, so that `a` is
    least: D = P + N with N = sum m_i C_i, m_i > 0, over distinct
    (-1)-curves C_i of negative definite Gram matrix, P nef (P.C >= 0 on
    every (-1)-curve; they generate the effective cone), P.C_i = 0 and
    P^2 = 0.  Then P + N is the Zariski decomposition of D and its volume
    P^2 is 0.  Checked in integers after clearing denominators.  Also
    returns b as the decomposition gives it: rank - #support if P = 0,
    else 1."""
    scale = 1
    for x in [*boundary, *positive, *(m for _, m in support)]:
        scale = scale * x.denominator // math.gcd(scale, x.denominator)
    cs = [_fracs(c) for c, _ in support]
    if len(set(cs)) != len(cs) or not set(cs) <= set(curves):
        return ["support of N is not a set of distinct (-1)-curves"], 0
    cs = [_ints(c) for c in cs]
    d = [int(x * scale) for x in boundary]
    p = [int(x * scale) for x in positive]
    ms = [int(m * scale) for _, m in support]
    out = []
    if any(m <= 0 for m in ms):
        out.append("nonpositive multiplicity in N")
    if not positive_definite([[-dot(c, e) for e in cs] for c in cs]):
        out.append("support of N is not negative definite")
    n = [sum(m * c[t] for m, c in zip(ms, cs)) for t in range(len(d))]
    if [x + y for x, y in zip(p, n)] != d:
        out.append("P + N != a*L + K")
    if any(dot(p, c) < 0 for c in curves):
        out.append("P is not nef")
    if any(dot(p, c) != 0 for c in cs):
        out.append("P meets the support of N")
    if dot(p, p) != 0:
        out.append("P^2 != 0: a*L + K is big, a is not least")
    return out, (len(d) - len(cs) if not any(p) else 1)


class InProcess:
    """Shared loop plumbing for workloads that call the library directly."""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.golden = None

    def load_golden(self):
        if self.seed == DEFAULT_SEED:
            with open(GOLDEN / f"{self.name}.json", encoding="utf-8") as fh:
                self.golden = json.load(fh)["answers"]

    def check(self, i, q, ans) -> list[str]:
        out = self.check_answer(q, ans)
        if self.golden is not None and i < len(self.golden):
            if self.canonical(ans) != self.golden[i]:
                out.append("answer differs from the recorded default-seed answer")
        return out

    @staticmethod
    def canonical(ans: dict) -> str:
        """The exact answer as recorded: everything but the LP witness."""
        return json.dumps({k: v for k, v in ans.items() if k != "witness"}, sort_keys=True)


class DpDualPath(InProcess):
    """Del Pezzo degrees 2-7, round robin; a query is the dual-path call set.

    Degree 2 comes twice per round: its 56-column LPs are the workload's
    largest, and with seven queries a round the median falls inside one
    degree's latencies (degree 4) instead of in the gap between two.
    """

    name = "dp-dual-path"
    degrees = (2, 2, 3, 4, 5, 6, 7)

    def setup(self):
        from fujita import fixtures

        catalog = fixtures.load_catalog()
        self.surfaces, self.curves, self.gens = {}, {}, {}
        for d in set(self.degrees):
            surf = catalog[f"dp{d}-anticanonical"].problem.model.surface
            curves = minus_one_curves(9 - d)
            gens = [_ints(g) for g in surf.variety().eff_cone.generators]
            if sorted(gens) != curves:
                raise RuntimeError(f"degree {d}: program's cone generators are not the (-1)-curves")
            if _ints(surf.canonical) != (-3,) + (1,) * (9 - d):
                raise RuntimeError(f"degree {d}: unexpected canonical class")
            self.surfaces[d], self.curves[d], self.gens[d] = surf, curves, gens
        self.load_golden()
        self.round_size = len(self.degrees)

    def query(self, i):
        """c*(-K) plus a nonnegative combination of (-1)-curves: big, since
        -K is ample."""
        rng = self.rng
        d = self.degrees[i % len(self.degrees)]
        c = rng.randint(1, 2)
        v = [3 * c] + [-c] * (9 - d)
        for curve in rng.sample(self.curves[d], rng.randint(1, 3)):
            n = rng.randint(1, 3)
            v = [x + n * y for x, y in zip(v, curve)]
        return d, tuple(v)

    def run(self, q) -> dict:
        from fujita import delpezzo, invariants
        from fujita.qlinalg import VecQ

        d, v = q
        surf = self.surfaces[d]
        m = surf.variety()
        bundle = VecQ(v)
        fr = invariants.fujita(m, bundle)
        bi = invariants.b_invariant(m, bundle)
        sb = delpezzo.surface_b(surf, bundle)
        bal = delpezzo.surface_balanced(surf, bundle)
        rigid = invariants.is_rigid_class(m, fr.boundary_class)
        return {
            "degree": d,
            "bundle": list(v),
            "a": str(fr.a),
            "boundary": [str(x) for x in fr.boundary_class],
            "witness": _fracs(fr.witness),
            "b": bi.b,
            "face": sorted(bi.face.generators_in_face),
            "surface_b": sb.b,
            "surface_case": sb.case.value,
            "components": sb.n_components,
            "balanced": bal.balanced,
            "rigid": rigid,
        }

    def check_answer(self, q, ans) -> list[str]:
        from fujita import delpezzo
        from fujita.qlinalg import VecQ

        d, v = q
        a = Fraction(ans["a"])
        boundary = _fracs(ans["boundary"])
        out = [] if a > 0 else ["a <= 0"]
        out += witness_problems(
            a, v, (-3,) + (1,) * (9 - d), boundary, self.gens[d], ans["witness"]
        )
        dec = delpezzo.zariski_decompose(self.surfaces[d], VecQ(boundary))
        problems, b = zariski_problems(
            boundary, _fracs(dec.positive), dec.negative_support, self.curves[d]
        )
        out += problems
        if b != ans["b"]:
            out.append(f"Zariski b {b} != polyhedral b {ans['b']}")
        if ans["surface_b"] != ans["b"]:
            out.append(f"surface b {ans['surface_b']} != polyhedral b {ans['b']}")
        if ans["balanced"] != ans["rigid"]:
            out.append("balanced != rigid")
        return out


class ToricPolytope(InProcess):
    """The catalog's toric fans plus two products, round robin; a query is
    a, the minimal-face b, rigidity and the toric balanced verdict."""

    name = "toric-polytope"

    def setup(self):
        from fujita import fixtures, toric

        catalog = fixtures.load_catalog()
        fans = {
            fid: fx.problem.model.fan
            for fid, fx in sorted(catalog.items())
            if fx.problem.model.kind == "toric"
        }
        fans["dp6-toric*dp6-toric"] = toric.fan_product(fans["dp6-toric"], fans["dp6-toric"])
        fans["toric-no-control*p2-toric"] = toric.fan_product(
            fans["toric-no-control"], fans["p2-toric"]
        )
        self.fans = list(fans.items())
        self.models = [toric.variety_model(f) for _, f in self.fans]
        self.gens = [[_ints(g) for g in m.eff_cone.generators] for m in self.models]
        self.load_golden()
        self.round_size = len(self.fans)

    def query(self, i):
        """Every boundary coefficient positive: a strictly positive
        combination of all cone generators, hence big."""
        j = i % len(self.fans)
        return j, tuple(self.rng.randint(1, 3) for _ in self.fans[j][1].rays)

    def run(self, q) -> dict:
        from fujita import invariants, toric

        j, coeffs = q
        fan, m = self.fans[j][1], self.models[j]
        bundle = toric.ns_presentation(fan).divisor_class(coeffs)
        fr = invariants.fujita(m, bundle)
        face = m.eff_cone.minimal_face(fr.boundary_class)
        rigid = invariants.is_rigid_class(m, fr.boundary_class)
        balanced = toric.toric_balanced_all_subvarieties(fan, coeffs)
        return {
            "fan": self.fans[j][0],
            "coeffs": list(coeffs),
            "bundle": [str(x) for x in bundle],
            "canonical": [str(x) for x in m.canonical],
            "a": str(fr.a),
            "boundary": [str(x) for x in fr.boundary_class],
            "witness": _fracs(fr.witness),
            "b": m.ns_rank - face.span_dim,
            "face": sorted(face.generators_in_face),
            "rigid": rigid,
            "balanced": balanced,
        }

    def check_answer(self, q, ans) -> list[str]:
        j, _ = q
        a = Fraction(ans["a"])
        rank = len(ans["bundle"])
        out = [] if a > 0 else ["a <= 0"]
        out += witness_problems(
            a,
            _fracs(ans["bundle"]),
            _fracs(ans["canonical"]),
            _fracs(ans["boundary"]),
            self.gens[j],
            ans["witness"],
        )
        if not 1 <= ans["b"] <= rank:
            out.append(f"b = {ans['b']} outside 1..{rank}")
        support = {i for i, w in enumerate(ans["witness"]) if w}
        if not support <= set(ans["face"]):
            out.append("witness support is not inside the minimal face")
        if ans["balanced"] != ans["rigid"]:
            out.append("balanced != rigid")
        return out


class CliCatalog:
    """Each query is one cold `fujita` process on the fixture catalog."""

    name = "cli-catalog"
    setup_command = ("fixtures", "list", "--json")

    def __init__(self, seed: int, traced: bool = False):
        self.seed = seed
        self.traced = traced
        self.partials: list[dict] = []
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )

    def setup(self):
        with open(GOLDEN / f"{self.name}.json", encoding="utf-8") as fh:
            self.golden = json.load(fh)
        # The recorded commands, not the catalog directory, fix the query set.
        setup_key = " ".join(self.setup_command)
        self.queries = [tuple(k.split(" ")) for k in sorted(self.golden) if k != setup_key]
        random.Random(self.seed).shuffle(self.queries)
        self.round_size = len(self.queries)
        t0 = time.perf_counter()
        ans = self.run(self.setup_command)
        self.setup_s = time.perf_counter() - t0
        bad = self.check(-1, self.setup_command, ans)
        if bad:
            raise RuntimeError(f"set-up command failed: {bad}")
        self.partials.clear()  # traced layer totals cover the query processes only

    def query(self, i):
        return self.queries[i % len(self.queries)]

    def run(self, args) -> dict:
        if self.traced:
            argv = [sys.executable, str(BENCH / "cli_shim.py"), *args]
        else:
            argv = [sys.executable, "-m", "fujita.cli", *args]
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True, timeout=120)
        if self.traced:
            lines = proc.stderr.decode().splitlines()
            marks = [ln for ln in lines if ln.startswith(TRACE_MARK)]
            if not marks:
                raise RuntimeError(f"traced CLI process left no trace: {lines[-3:]}")
            self.partials.append(json.loads(marks[-1][len(TRACE_MARK):]))
        return {"rc": proc.returncode, "stdout": proc.stdout.decode()}

    def check(self, i, args, ans) -> list[str]:
        want = self.golden[" ".join(args)]
        out = []
        if ans["rc"] != want["rc"]:
            out.append(f"exit code {ans['rc']} != recorded {want['rc']}")
        if ans["stdout"] != want["stdout"]:
            out.append("stdout differs from the recorded output")
        return out


WORKLOADS = {w.name: w for w in (DpDualPath, ToricPolytope, CliCatalog)}
