import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fujita import cones, delpezzo, invariants, toric
from fujita.cones import ConeQ
from fujita.fixtures import load_catalog
from fujita.qlinalg import MatQ, VecQ, scaled_ints

MEMOS = (invariants.fujita, delpezzo.zariski_decompose)


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
    1 for the packed product, one per facet on the dot path."""
    with pytest.MonkeyPatch.context() as mp:
        calls = counting(mp, cones, "idot")
        c._slots(scaled_ints(v)[0])
    return len(calls)


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
