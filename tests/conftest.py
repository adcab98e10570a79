import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from fujita import cones, delpezzo, invariants, qlinalg, toric
from fujita.cones import ConeQ
from fujita.fixtures import load_catalog
from fujita.qlinalg import MatQ, VecQ, scaled_ints, span_dim

MEMOS = (invariants.fujita, delpezzo.zariski_for_variety, delpezzo._surface_case, toric._class_of)


@pytest.fixture(autouse=True)
def clear_memos():
    """Every test starts with empty memos, so that call counts and timings
    do not depend on which tests ran before."""
    for memo in MEMOS:
        memo.cache_clear()


@pytest.fixture(scope="session")
def toric_fans():
    """The catalog's toric fans and the two product fans of the benchmark."""
    fans = {
        fid: fx.problem.model.fan
        for fid, fx in sorted(load_catalog().items())
        if fx.problem.model.kind == "toric"
    }
    fans["dp6-toric*dp6-toric"] = toric.fan_product(fans["dp6-toric"], fans["dp6-toric"])
    fans["toric-no-control*p2-toric"] = toric.fan_product(
        fans["toric-no-control"], fans["p2-toric"]
    )
    return fans


def counting(monkeypatch, owner, name):
    """Replace owner.name by a wrapper that records each call."""
    calls = []
    orig = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def dots_taken(c, v) -> int:
    """The idot calls of one read of every f_j.v on c, whose facets exist:
    1 for the packed product, one per facet on the dot path.  Calls from
    `cones` and from `qlinalg`, the home of the packed product, count."""
    with pytest.MonkeyPatch.context() as mp:
        calls = [counting(mp, owner, "idot") for owner in (cones, qlinalg)]
        c._slots(scaled_ints(v)[0])
    return sum(map(len, calls))


def products_by_packing(calls, c) -> tuple[int, int]:
    """Of the `PackedRows.products` calls recorded in `calls`, those on c's
    facets in facet order (K's, and those of `contains` and `minimal_face`)
    and those on its facets in the order of the last base's f.K groups
    (L's in `min_a_with_point`)."""
    grouped = c._base[3] if c._base else None
    return sum(args[0] is c._packed for args in calls), sum(args[0] is grouped for args in calls)


def packing_rows(rows) -> list:
    """rows repeated in order up to `qlinalg.PACK_MIN_ROWS` rows, the
    fewest that `PackedRows` packs; each row, each pair of neighbours, the
    last row and the largest absolute row sum are those of rows."""
    return [rows[i % len(rows)] for i in range(max(len(rows), qlinalg.PACK_MIN_ROWS))]


def packing_cone(gens) -> list[VecQ]:
    """The generators of the simplicial cone of d independent gens in Q^d,
    in the first d coordinates, plus the orthant of the next
    `qlinalg.PACK_MIN_ROWS` - d: its facets are gens' facets padded with
    zeros and the unit rows of the added coordinates, PACK_MIN_ROWS in
    all, so its products pack while its largest absolute facet row sum
    is that of gens' cone."""
    d, n = len(gens), max(len(gens), qlinalg.PACK_MIN_ROWS)
    return [VecQ(list(g) + [0] * (n - d)) for g in gens] + [unit(n, i) for i in range(d, n)]


def packing_probe(v, dim) -> VecQ:
    """v's entries repeated in order up to dim entries: on a
    `packing_cone`, the added unit facets take v's entries as products."""
    return VecQ([v[i % v.dim] for i in range(dim)])


def straddling(size) -> list[int]:
    """Positive slot values [A, B, x] for slots of `size` bytes, A and B
    greater than x, whose little-endian bytes, A's followed by B's, hold
    x's one byte past the start of A's slot."""
    ones = [1] * (size - 1)
    return [int.from_bytes(bytes(b), "little") for b in ([2] + ones, [1] + [2] * (size - 1), ones + [1])]


@st.composite
def random_cones(draw):
    """Cones in dimensions 1-5, each full-dimensional and strict, as every
    ConeQ is: d to d + 3 nonnegative combinations of a random basis B of
    Q^d whose coefficient vectors span Q^d, so the cone spans Q^d and lies
    in the simplicial cone of B.  Zero and repeated generators occur."""
    d = draw(st.integers(1, 5))
    rows = st.lists(st.integers(-3, 3), min_size=d, max_size=d)
    basis = draw(st.lists(rows, min_size=d, max_size=d).filter(lambda b: span_dim(b) == d))
    coefs = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    combos = draw(st.lists(coefs, min_size=d, max_size=d + 3).filter(lambda cs: span_dim(cs) == d))
    gens = [[sum(k * b[t] for k, b in zip(cs, basis)) for t in range(d)] for cs in combos]
    return ConeQ(gens, ambient_dim=d)


def with_fresh_cone(m):
    """A new model with m's fields over a new ConeQ on the same generators,
    its facets not built.  The constructor checks the new model as it
    checked m."""
    return invariants.VarietyModel(
        m.name,
        m.ns_rank,
        m.canonical,
        ConeQ(m.eff_cone.generators, ambient_dim=m.ns_rank),
        m.intersection_form,
        m.provenance,
    )


def vec(*xs) -> VecQ:
    return VecQ(xs)


def unit(dim, i) -> VecQ:
    return VecQ([1 if j == i else 0 for j in range(dim)])


def identity(n) -> MatQ:
    return MatQ([list(unit(n, i)) for i in range(n)])


def transpose(m) -> MatQ:
    return MatQ(list(zip(*[r.entries for r in m.row_list()])))


def frac(p, q=1) -> Fraction:
    return Fraction(p, q)


@pytest.fixture
def rng():
    return random.Random(20240517)


def random_rational_vector(rng, dim, num_range=(-12, 12), den_range=(1, 7)) -> VecQ:
    return VecQ(
        [
            Fraction(rng.randint(*num_range), rng.randint(*den_range))
            for _ in range(dim)
        ]
    )


def sample_big_classes(model, rng, count, lo=-5, hi=10, max_tries=200000):
    """The seeded box sampler used by the dual-path and invariance suites:
    integer coordinate vectors in [lo, hi] filtered by interior membership."""
    from fujita.cones import Containment

    out = []
    tries = 0
    while len(out) < count:
        tries += 1
        if tries > max_tries:
            raise AssertionError("sampler exhausted; cone too thin for the box")
        v = VecQ([rng.randint(lo, hi) for _ in range(model.ns_rank)])
        if model.eff_cone.contains(v) is Containment.INSIDE:
            out.append(v)
    return out
