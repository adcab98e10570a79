"""Acceptance suite: the exit criteria of the build.

Every check is exact rational equality; each criterion prints one pass/fail
line and asserts its wall-clock budget (single core, generous desk-scale
bounds).  Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import random
import time

import pytest

from fujita import fixtures
from fujita.cones import ConeQ, Containment
from fujita.delpezzo import (
    SurfaceCase,
    del_pezzo,
    enumerate_negative_curves,
    quadric_surface,
    surface_b,
    surface_balanced,
)
from fujita.invariants import (
    b_invariant,
    check_birational_invariance,
    fujita,
    invariant_pair,
    is_rigid_class,
)
from fujita.qlinalg import MatQ, VecQ
from fujita.toric import fibration_b_crosscheck
from conftest import counting, sample_big_classes


def report(num, ok, detail, budget, elapsed):
    line = f"ACCEPTANCE {num:2d} {'PASS' if ok else 'FAIL'} {detail} ({elapsed:.2f}s, budget {budget}s)"
    print(line)
    assert ok, line
    assert elapsed < budget, line


def fixture_values(fid, catalog):
    rep = fixtures.run_fixture(catalog[fid])
    assert rep.passed, [c for c in rep.checks if not c.ok]
    return {c.name: c.actual for c in rep.checks}


@pytest.fixture(scope="module")
def catalog():
    return fixtures.load_catalog()


def test_acceptance_01_anticanonical_identity(catalog):
    t0 = time.perf_counter()
    checked = 0
    for d in range(1, 10):
        m = del_pezzo(d).variety()
        assert invariant_pair(m, -1 * m.canonical) == (1, m.ns_rank), d
        checked += 1
    q = quadric_surface().variety()
    assert invariant_pair(q, -1 * q.canonical) == (1, 2)
    checked += 1
    for fx in catalog.values():
        m = fx.problem.model.variety
        minus_k = -1 * m.canonical
        if m.eff_cone.contains(minus_k) is Containment.INSIDE:
            assert invariant_pair(m, minus_k) == (1, m.ns_rank), fx.id
            checked += 1
        for _, datum in fx.problem.subvarieties:
            my = datum.model
            minus_ky = -1 * my.canonical
            if my.eff_cone.contains(minus_ky) is Containment.INSIDE:
                assert invariant_pair(my, minus_ky) == (1, my.ns_rank), fx.id
                checked += 1
    report(
        1,
        checked >= 30,
        f"a(X,-K)=1 and b(X,-K)=rk NS on {checked} built-in models incl. the rank-9 cone",
        5,
        time.perf_counter() - t0,
    )


def test_acceptance_02_cubic_threefold(catalog):
    t0 = time.perf_counter()
    vals = fixture_values("cubic-threefold", catalog)
    ok = (
        vals["a"] == "2"
        and vals["b"] == 1
        and vals["line.a"] == "2"
        and vals["line.b"] == 1
        and vals["line.verdict"] == "weakly_balanced_not_balanced"
    )
    report(2, ok, "cubic threefold: (2,1) equal pair, weakly balanced not balanced", 1, time.perf_counter() - t0)


def test_acceptance_03_x22(catalog):
    t0 = time.perf_counter()
    vals = fixture_values("x22-lines", catalog)
    ok = vals["a"] == vals["line.a"] == "2" and vals["b"] == vals["line.b"] == 1
    report(3, ok, "intersection of two quadrics: a_X=a_Y=2, b_X=b_Y=1", 1, time.perf_counter() - t0)


def test_acceptance_04_bt_cubic(catalog):
    t0 = time.perf_counter()
    vals = fixture_values("bt-cubic-fibration", catalog)
    ok = (
        vals["b"] == 2
        and vals["smooth-cubic-fiber.a"] == "1"
        and vals["smooth-cubic-fiber.b"] == 7
        and vals["smooth-cubic-fiber.verdict"] == "not_weakly_balanced"
    )
    report(4, ok, "cubic-pencil fibration: b_X=2, fiber (1,7), not weakly balanced", 1, time.perf_counter() - t0)


def test_acceptance_05_pgl2_p3(catalog):
    t0 = time.perf_counter()
    vals = fixture_values("pgl2-p3", catalog)
    ok = (
        vals["b"] == 2
        and vals["plane-section.a"] == "1"
        and vals["plane-section.b"] == 1
        and vals["plane-section.verdict"] == "balanced"
    )
    report(5, ok, "blown-up P3: b(X)=2, plane section (1,1), balanced", 1, time.perf_counter() - t0)


def test_acceptance_06_toric_no_control(catalog):
    t0 = time.perf_counter()
    vals = fixture_values("toric-no-control", catalog)
    ok = (
        vals["ns_rank"] == 5
        and vals["nef-threefold.ns_rank"] == 8
        and vals["b"] == 5
        and vals["nef-threefold.b"] == 1
        and vals["nef-threefold.verdict"] == "balanced"
    )
    report(6, ok, "rank 8 > rank 5 subvariety yet b_Y=1 < 5=b_X", 5, time.perf_counter() - t0)


def test_acceptance_07_mu_threefold(catalog):
    t0 = time.perf_counter()
    vals = fixture_values("mu-threefold-divisor", catalog)
    q = quadric_surface().variety()
    a_y = fujita(q, VecQ([11, 1])).a
    ok = vals["a"] == "1" and vals["boundary-divisor-normalization.a"] == "2" and a_y == 2 > 1
    report(7, ok, "bidegree (11,1) normalization: a=2 > 1 = ambient a", 1, time.perf_counter() - t0)


def test_acceptance_08_dual_path_oracle():
    t0 = time.perf_counter()
    rng = random.Random(0x5EED)
    total = 0
    for degree in range(2, 8):
        surf = del_pezzo(degree)
        model = surf.variety()
        for bundle in sample_big_classes(model, rng, 200):
            case = surface_b(surf, bundle)
            poly_b = b_invariant(model, bundle).b
            assert case.b == poly_b, (degree, tuple(bundle))
            bal = surface_balanced(surf, bundle).balanced
            rigid = is_rigid_class(model, fujita(model, bundle).boundary_class)
            assert bal == rigid, (degree, tuple(bundle))
            total += 1
    report(
        8,
        total == 1200,
        f"surface-case b == polyhedral b and balanced == rigid on {total} random bundles, degrees 2-7",
        60,
        time.perf_counter() - t0,
    )


def test_degree_one_b_from_the_zariski_face(monkeypatch):
    # next to acceptance 8, which leaves degree 1 out: on 200 seeded big
    # bundles c*(-K) plus a few (-1)-curves of the degree-1 surface,
    # `b_invariant` (which reads the certified Zariski face there) equals
    # `surface_b`, and no facet of the 240-generator cone is built
    t0 = time.perf_counter()
    surf = del_pezzo(1)
    gens = surf.eff_cone.generators
    facets = counting(monkeypatch, ConeQ, "_compute_facets")
    rng = random.Random(0xD1)
    cases = set()
    for _ in range(200):
        bundle = rng.randint(1, 2) * -surf.canonical
        for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
            bundle = bundle + rng.randint(1, 3) * gens[j]
        case = surface_b(surf, bundle)
        assert b_invariant(surf, bundle).b == case.b, tuple(bundle)
        cases.add(case.case)
    elapsed = time.perf_counter() - t0
    print(f"DEGREE 1: b_invariant == surface_b on 200 bundles ({elapsed:.2f}s, budget 30s)")
    assert facets == [] and surf.eff_cone._facets is None
    assert cases == set(SurfaceCase)
    assert elapsed < 30


def test_acceptance_09_birational_invariance():
    t0 = time.perf_counter()
    rng = random.Random(0xB1FA)
    p2 = del_pezzo(9).variety()
    bl = del_pezzo(8).variety()
    pull_p2 = MatQ([[1], [0]])
    m6 = del_pezzo(6).variety()
    m5 = del_pezzo(5).variety()
    pull_dp6 = MatQ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
    total = 0
    for bundle in sample_big_classes(p2, rng, 50, lo=1, hi=10):
        assert check_birational_invariance(p2, bl, pull_p2, bundle)
        total += 1
    for bundle in sample_big_classes(m6, rng, 50):
        assert check_birational_invariance(m6, m5, pull_dp6, bundle)
        total += 1
    report(
        9,
        total == 100,
        "a and b agree across the plane/blow-up and degree-6/degree-5 pullback pairs, 50 bundles each",
        10,
        time.perf_counter() - t0,
    )


def test_acceptance_10_negative_curve_counts():
    t0 = time.perf_counter()
    counts = {d: len(enumerate_negative_curves(d)) for d in range(1, 8)}
    expected = {7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}
    report(
        10,
        counts == expected,
        "negative-curve counts (3,6,10,16,27,56,240) for degrees 7..1",
        10,
        time.perf_counter() - t0,
    )


def test_acceptance_11_fibration_crosscheck(catalog):
    t0 = time.perf_counter()
    bl = catalog["bl1p2-ruling-fibration"].problem
    pq = catalog["p1xp1-o21-fibration"].problem
    pair1 = fibration_b_crosscheck(bl.model.fan, bl.bundle_toric_coeffs, bl.fibration)
    pair2 = fibration_b_crosscheck(pq.model.fan, pq.bundle_toric_coeffs, pq.fibration)
    ok = pair1 == (1, 1) and pair2 == (1, 1) and pair1[0] == pair1[1] and pair2[0] == pair2[1]
    report(
        11,
        ok,
        "b via minimal face == b via vertical-divisor rank on both fibration fixtures",
        1,
        time.perf_counter() - t0,
    )
