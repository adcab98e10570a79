"""Each stage of the a -> boundary class -> face -> b chain runs once per
(model, class), the memos stay within their fixed bound, and toric balance
read through class rigidity agrees with the adjoint-divisor route."""

import random
from dataclasses import FrozenInstanceError

import pytest

from fujita import delpezzo, toric
from fujita.cones import ConeQ
from fujita.delpezzo import del_pezzo, surface_b, surface_balanced, zariski_decompose
from fujita.errors import NotBig
from fujita.fixtures import load_catalog
from fujita.invariants import b_invariant, fujita, is_rigid_class
from fujita.qlinalg import VecQ
from fujita.toric import Fan, class_is_rigid, fan_product, ns_presentation, variety_model
from conftest import MEMOS, vec
from oracles import toric_balanced_by_adjoint

BOUND = 16


@pytest.fixture(scope="module")
def toric_fans():
    """The catalog's toric fans and the two product fans of the benchmark."""
    fans = {
        fid: fx.problem.model.fan
        for fid, fx in sorted(load_catalog().items())
        if fx.problem.model.kind == "toric"
    }
    fans["dp6-toric*dp6-toric"] = fan_product(fans["dp6-toric"], fans["dp6-toric"])
    fans["toric-no-control*p2-toric"] = fan_product(fans["toric-no-control"], fans["p2-toric"])
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


@pytest.mark.parametrize("degree", [2, 3, 5, 7])
def test_surface_calls_share_one_ray_lp_and_one_zariski(monkeypatch, degree):
    surf = del_pezzo(degree)
    m = surf.variety()
    bundle = -2 * surf.canonical + m.eff_cone.generators[0] + 2 * m.eff_cone.generators[-1]
    rays = counting(monkeypatch, ConeQ, "min_a_with_witness")
    decompositions = counting(monkeypatch, delpezzo, "_zariski")

    fr = fujita(m, bundle)
    res = b_invariant(m, bundle)
    case = surface_b(surf, bundle)
    balance = surface_balanced(surf, bundle)
    rigid = is_rigid_class(m, fr.boundary_class)

    assert len(rays) == 1
    assert len(decompositions) == 1
    assert res.fujita is fr
    assert case.b == res.b
    assert balance.balanced == rigid


def test_toric_query_builds_one_polytope(monkeypatch, toric_fans):
    for name, fan in toric_fans.items():
        m = variety_model(fan)
        coeffs = [1 + i % 3 for i in range(len(fan.rays))]
        bundle = ns_presentation(fan).divisor_class(coeffs)
        polytopes = counting(monkeypatch, toric, "divisor_polytope")
        fr = fujita(m, bundle)
        m.eff_cone.minimal_face(fr.boundary_class)
        rigid = is_rigid_class(m, fr.boundary_class)
        balanced = toric.toric_balanced_all_subvarieties(fan, coeffs)
        assert len(polytopes) == 1, name
        assert balanced == rigid, name
        monkeypatch.undo()


def test_memos_stay_within_their_bound():
    surf = del_pezzo(8)
    m = surf.variety()
    p2 = Fan.smooth([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    for i in range(1000):
        bundle = vec(i + 2, -1 - i % 2 - i // 2 % 3)  # distinct, inside the cone
        zariski_decompose(surf, fujita(m, bundle).boundary_class)
        zariski_decompose(surf, vec(i, -i))
        class_is_rigid(p2, vec(i))
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == BOUND
        assert info.currsize <= BOUND
        assert info.misses >= 1000


def test_exceptions_are_not_cached():
    m = del_pezzo(8).variety()
    not_big = vec(0, 1)  # the exceptional curve: boundary, not interior
    for _ in range(2):
        with pytest.raises(NotBig):
            fujita(m, not_big)
    info = fujita.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def test_repeat_calls_return_the_shared_frozen_result():
    surf = del_pezzo(6)
    m = surf.variety()
    bundle = -1 * surf.canonical
    fr = fujita(m, bundle)
    assert fujita(m, VecQ(list(bundle))) is fr
    with pytest.raises(FrozenInstanceError):
        fr.a = 0
    assert isinstance(fr.witness, tuple)
    dec = zariski_decompose(surf, fr.boundary_class)
    assert zariski_decompose(surf, fr.boundary_class) is dec
    assert isinstance(dec.negative_support, tuple)


def test_balance_through_rigidity_matches_adjoint_route(toric_fans):
    rng = random.Random(3141)
    seen = set()
    for name, fan in toric_fans.items():
        m = variety_model(fan)
        pres = ns_presentation(fan)
        checked = 0
        while checked < 6:
            coeffs = [rng.randint(-1, 4) for _ in fan.rays]
            if not m.is_big(pres.divisor_class(coeffs)):
                continue
            expected = toric_balanced_by_adjoint(fan, coeffs)
            assert toric.toric_balanced_all_subvarieties(fan, coeffs) == expected, (name, coeffs)
            seen.add(expected)
            checked += 1
    assert seen == {True, False}
