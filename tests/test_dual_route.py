"""The facet route of `ConeQ.min_a_with_face`: bigness, a and the minimal
face read off two packed facet products, and the witness read off the
face's memoized inverse when the face is simplicial, else one LP over the
face's generators, either checked in integers.  The ray LP on a copy of
the cone without facets is the oracle for a and the face, and `solve_lp`
on the face's generators for the witness on a simplicial face."""

import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fujita import cli, cones
from fujita.cones import ConeQ
from fujita.delpezzo import del_pezzo
from fujita.errors import InternalError, KPseudoEffective, NotBig
from fujita.invariants import VarietyModel, fujita
from fujita.qlinalg import MatQ, VecQ, nullspace
from fujita.simplex import LPResult, LPStatus, solve_lp
from fujita.toric import ns_presentation, variety_model
from conftest import counting, dots_taken, random_rational_vector, vec, with_fresh_cone
from oracles import min_a_and_face_by_ray_lp

HUGE = (2**64 + 1, 2**200 + 3)


def with_facets(cone):
    """A new cone on the same generators, its facets built."""
    c = ConeQ(cone.generators, ambient_dim=cone.ambient_dim)
    c.facets
    return c


def check_dual_route(c, base, direction):
    """`min_a_with_face` on c, whose facets exist, against the ray-LP
    route; the boundary point must be base + a*direction, and the witness
    nonnegative, on the face and recombine to it.  On a simplicial face the
    witness is the one combination there is, so it must equal `solve_lp`'s
    on the face's generators.  Returns whether the direction was
    interior."""
    assert c._facets_int is not None
    got = c.min_a_with_face(base, direction)
    expected = min_a_and_face_by_ray_lp(c, base, direction)
    if expected is None:
        assert got is None, (base, direction)
        return False
    a, point, witness, face = got
    assert point == base + a * direction
    assert (a, face.generators_in_face, face.span_dim) == expected, (base, direction)
    assert len(witness) == len(c.generators)
    assert all(w >= 0 for w in witness)
    assert {j for j, w in enumerate(witness) if w} <= face.generators_in_face
    combo = VecQ.zero(c.ambient_dim)
    for w, g in zip(witness, c.generators):
        combo = combo + w * g
    assert combo == point
    inside = sorted(face.generators_in_face)
    if len(inside) == face.span_dim:
        expected = [Fraction(0)] * len(c.generators)
        if inside:
            gens = [c.generators[j] for j in inside]
            res = solve_lp([list(col) for col in zip(*gens)], list(point), [0] * len(inside))
            for j, x in zip(inside, res.x):
                expected[j] = x
        assert witness == tuple(expected), (base, direction)
    return True


@st.composite
def strict_cones(draw):
    """Strict cones in dimensions 2-5: nonnegative combinations of r <= d
    random vectors, so full-dimensional or not."""
    d = draw(st.integers(2, 5))
    r = draw(st.integers(1, d))
    ints = st.integers(-3, 3)
    basis = [draw(st.lists(ints, min_size=d, max_size=d)) for _ in range(r)]
    coefs = st.lists(st.integers(0, 3), min_size=r, max_size=r)
    gens = []
    for cs in draw(st.lists(coefs, min_size=1, max_size=8)):
        gens.append([sum(k * b[t] for k, b in zip(cs, basis)) for t in range(d)])
    c = ConeQ(gens, ambient_dim=d)
    assume(c.generators and c.is_strict())
    return c


@settings(max_examples=150, deadline=None)
@given(strict_cones(), st.randoms(use_true_random=False))
def test_random_strict_cones_match_ray_lp(c, rng):
    c.facets
    d = c.ambient_dim
    interior = VecQ.zero(d)
    for g in c.generators:
        interior = interior + Fraction(rng.randint(1, 3), rng.randint(1, 2)) * g
    directions = [interior, c.generators[0], random_rational_vector(rng, d, (-4, 4), (1, 3))]
    directions += [n * interior for n in HUGE]
    bases = [random_rational_vector(rng, d, (-6, 6), (1, 3)) for _ in range(2)]
    bases += [n * bases[0] + vec(*[1] * d) for n in HUGE]
    for base in bases:
        for direction in directions:
            check_dual_route(c, base, direction)


def test_width_boundary():
    # f.K = +-2^63 needs 128-bit slots: one bit less carries into the next
    # slot (or out of the last one); both products are probed at the edge
    for gens in ([vec(1)], [vec(1, 0), vec(1, 1)], [vec(1, 2), vec(0, 1)]):
        c = with_facets(ConeQ(gens))
        inside = sum(c.generators[1:], c.generators[0])
        for e in (62, 63, 64):
            for x in (2**e - 1, 2**e, 2**e + 1):
                for v in (vec(x), vec(x, 0), vec(x, x), vec(x, -x), vec(0, x), vec(x, 1)):
                    if v.dim == c.ambient_dim:
                        for base in (v, -v):
                            assert check_dual_route(c, base, inside)
                            check_dual_route(c, inside, base)


def test_wide_slots_on_del_pezzo():
    surf = del_pezzo(3)
    c = with_facets(surf.variety().eff_cone)
    bundle = -2 * surf.canonical + c.generators[0] + 3 * c.generators[5]
    for n in (1,) + HUGE:
        for base, direction in ((surf.canonical, n * bundle), (n * surf.canonical, bundle)):
            assert check_dual_route(c, base, direction)
        # one packed product at n = 1; past 2^64, one idot per facet
        for v in (n * bundle, n * surf.canonical):
            assert dots_taken(c, v) == (1 if n == 1 else len(c._facets_int))


@pytest.mark.parametrize("degree", range(2, 8))
def test_del_pezzo_bundles_match_ray_lp(degree):
    # 200 seeded bundles: c*(-K) plus a few (-1)-curves, big for c > 0;
    # c = 0 leaves sums of curves, which are big or not
    surf = del_pezzo(degree)
    c = with_facets(surf.variety().eff_cone)
    rng = random.Random(0xD0A1 + degree)
    gens = list(c.generators)
    big = 0
    for _ in range(200):
        v = rng.randint(0, 2) * -surf.canonical
        for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
            v = v + rng.randint(1, 3) * gens[j]
        big += check_dual_route(c, surf.canonical, v)
    assert 100 < big < 200


def test_toric_bundles_match_ray_lp(toric_fans):
    rng = random.Random(0x7041C)
    for name, fan in toric_fans.items():
        m = variety_model(fan)
        c = with_facets(m.eff_cone)
        pres = ns_presentation(fan)
        big = 0
        for i in range(30):
            lo = 1 if i % 2 else -1
            coeffs = [rng.randint(lo, 3) for _ in fan.rays]
            big += check_dual_route(c, m.canonical, pres.divisor_class(coeffs))
        assert big >= 15, name


@pytest.mark.parametrize(
    "model, bundle, error",
    [
        # a boundary class of the degree-8 del Pezzo: the exceptional curve
        (del_pezzo(8).variety(), vec(0, 1), NotBig),
        # the canonical class of a del Pezzo surface: outside the cone
        (del_pezzo(4).variety(), vec(-3, 1, 1, 1, 1, 1), NotBig),
        # K in the interior (a = -1/2) and on the boundary (a = 0)
        (VarietyModel("k-interior", 2, vec(1, 1), ConeQ([vec(1, 0), vec(0, 1)])), vec(1, 2), KPseudoEffective),
        (VarietyModel("k-boundary", 2, vec(0, 1), ConeQ([vec(1, 0), vec(0, 1)])), vec(1, 1), KPseudoEffective),
    ],
)
def test_errors_match_the_lp_route(monkeypatch, model, bundle, error):
    messages = []
    for warm in (False, True):
        m = with_fresh_cone(model)
        if warm:
            m.eff_cone.facets
        rays = counting(monkeypatch, ConeQ, "min_a_with_witness")
        with pytest.raises(error) as exc:
            fujita(m, bundle)
        assert len(rays) == (0 if warm else error is KPseudoEffective)
        messages.append(str(exc.value))
        monkeypatch.undo()
    assert messages[0] == messages[1]


def test_fujita_alone_leaves_degree_one_facets_unbuilt(monkeypatch):
    # DD of the degree-1 cone takes tens of seconds; a needs none of it
    surf = del_pezzo(1)
    m = with_fresh_cone(surf.variety())
    runs = counting(monkeypatch, ConeQ, "_compute_facets")
    fr = fujita(m, -2 * surf.canonical + m.eff_cone.generators[0])
    assert runs == []
    assert fr.face is None and m.eff_cone._facets_int is None
    assert fr.a > 0


def test_a_wrong_cached_inverse_is_caught():
    surf = del_pezzo(7)
    c = with_facets(surf.variety().eff_cone)
    bundle = -2 * surf.canonical + c.generators[0] + 2 * c.generators[-1]
    answer = c.min_a_with_face(surf.canonical, bundle)
    face = answer[3]
    assert len(face.generators_in_face) == face.span_dim > 0
    mask = sum([1 << j for j in face.generators_in_face])
    entry = c._faces[mask]
    _, rows, det, inverse = entry
    doubled = [[2 * x for x in r] for r in inverse]
    negated = [[-x for x in r] for r in inverse]
    # doubled: a nonnegative witness that misses the point; negated with its
    # determinant: one that recombines but is negative
    for planted in ((face, rows, det, doubled), (face, rows, -det, negated)):
        c._faces[mask] = planted
        with pytest.raises(InternalError) as exc:
            c.min_a_with_face(surf.canonical, bundle)
        assert cli._error_payload(exc.value)[0] == cli.EXIT_INTERNAL
    c._faces[mask] = entry
    assert c.min_a_with_face(surf.canonical, bundle) == answer


def test_a_wrong_lp_witness_is_caught(monkeypatch):
    # a non-simplicial face: four generators spanning three dimensions, so
    # the witness comes from the LP on them
    surf = del_pezzo(6)
    c = with_facets(surf.variety().eff_cone)
    bundle = -1 * surf.canonical + c.generators[0] + 2 * c.generators[4]
    answer = c.min_a_with_face(surf.canonical, bundle)
    face = answer[3]
    assert len(face.generators_in_face) > face.span_dim
    (kernel,) = nullspace(MatQ([list(col) for col in zip(*face.generator_vectors())]))
    solve = cones.solve_lp

    def infeasible(res):
        return LPResult(LPStatus.INFEASIBLE, None, None)

    def doubled(res):
        # nonnegative, but twice the boundary point
        return res._replace(x=tuple([2 * x for x in res.x]))

    def shifted(res):
        # plus a multiple of the face's kernel: recombines, but the kernel
        # vector has entries of both signs on a strict cone, so one goes
        # negative
        n = (1 + max(res.x)) / min([abs(k) for k in kernel if k])
        return res._replace(x=tuple([x + n * k for x, k in zip(res.x, kernel)]))

    for plant in (infeasible, doubled, shifted):
        monkeypatch.setattr(cones, "solve_lp", lambda *args: plant(solve(*args)))
        with pytest.raises(InternalError) as exc:
            c.min_a_with_face(surf.canonical, bundle)
        assert cli._error_payload(exc.value)[0] == cli.EXIT_INTERNAL
    monkeypatch.undo()
    assert c.min_a_with_face(surf.canonical, bundle) == answer
