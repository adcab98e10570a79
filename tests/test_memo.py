"""Each stage of the a -> boundary class -> face -> b chain runs once per
(model, class), the memos stay within their fixed bound, and toric balance
read through class rigidity agrees with the adjoint-divisor route."""

import random

import pytest

from fujita import cones, delpezzo, qlinalg, toric
from fujita.cones import FACE_MEMO_BOUND, ConeQ
from fujita.delpezzo import del_pezzo, surface_b, surface_balanced, zariski_decompose
from fujita.errors import NotBig
from fujita.invariants import b_invariant, fujita, is_rigid_class
from fujita.qlinalg import VecQ
from fujita.toric import ns_presentation, variety_model
from conftest import MEMOS, counting, vec, with_fresh_cone
from oracles import minimal_face_by_facet_loop, toric_balanced_by_adjoint

BOUND = 16


def fresh_cone(m, warm):
    """m over a new ConeQ on the same generators, its facets built iff warm,
    with every memo emptied: the counts below then do not depend on which
    tests already built the facets of the shared cone."""
    for memo in MEMOS:
        memo.cache_clear()
    fresh = with_fresh_cone(m)
    if warm:
        fresh.eff_cone.facets
    return fresh


@pytest.mark.parametrize("degree", [2, 3, 5, 7])
def test_surface_calls_share_one_ray_lp_and_one_zariski(monkeypatch, degree):
    surf = del_pezzo(degree)
    for warm in (False, True):
        m = fresh_cone(surf.variety(), warm)
        monkeypatch.setattr(surf, "_variety", m)
        bundle = -2 * surf.canonical + m.eff_cone.generators[0] + 2 * m.eff_cone.generators[-1]
        rays = counting(monkeypatch, ConeQ, "min_a_with_witness")
        decompositions = counting(monkeypatch, delpezzo, "_zariski")
        memberships = counting(monkeypatch, ConeQ, "contains")
        faces = counting(monkeypatch, ConeQ, "minimal_face")
        lps = counting(monkeypatch, cones, "solve_lp")
        solves = counting(monkeypatch, qlinalg, "solve")

        fr = fujita(m, bundle)
        res = b_invariant(m, bundle)
        case = surface_b(surf, bundle)
        balance = surface_balanced(surf, bundle)
        rigid = is_rigid_class(m, fr.boundary_class)

        if warm:
            # the facet products decide bigness, a and the face; the
            # witness is read off the face's inverse when the face is
            # simplicial, else one LP over its generators gives it
            simplicial = len(res.face.generators_in_face) == res.face.span_dim
            assert (len(rays), len(memberships), len(faces), len(lps)) == (0, 0, 0, 0 if simplicial else 1)
            assert all(len(lp[2]) == len(res.face.generators_in_face) for lp in lps)
        else:
            # `fujita` asks the cone once whether the bundle is big, then
            # solves the ray LP; `b_invariant` builds the facets for the face
            assert (len(rays), len(memberships), len(faces), len(lps)) == (1, 1, 1, 2)
        # the face pass and the Zariski kernel prove membership of the
        # boundary class themselves, and `is_rigid_class` leaves the
        # question to its route
        assert len(decompositions) == 1
        assert solves == []
        assert res.fujita is fr
        assert case.b == res.b
        assert balance.balanced == rigid
        monkeypatch.undo()


def test_toric_query_builds_no_polytope_and_no_rigidity_lp(monkeypatch, toric_fans):
    for name, fan in toric_fans.items():
        for warm in (False, True):
            m = fresh_cone(variety_model(fan), warm)
            monkeypatch.setattr(toric, "variety_model", lambda f: m)
            coeffs = [1 + i % 3 for i in range(len(fan.rays))]
            bundle = ns_presentation(fan).divisor_class(coeffs)
            polytopes = counting(monkeypatch, toric, "divisor_polytope")
            supports = counting(monkeypatch, toric, "positive_support")
            memberships = counting(monkeypatch, ConeQ, "contains")
            rays = counting(monkeypatch, ConeQ, "min_a_with_witness")
            faces = counting(monkeypatch, ConeQ, "minimal_face")
            lps = counting(monkeypatch, cones, "solve_lp")
            res = b_invariant(m, bundle)
            fr = res.fujita
            chain_lps = len(lps)
            rigid = is_rigid_class(m, fr.boundary_class)
            balanced = toric.toric_balanced_all_subvarieties(fan, coeffs)
            # rigidity and the balanced verdict are read off the minimal
            # face of the boundary class: no polytope, no LP
            assert (len(polytopes), len(supports), len(lps)) == (0, 0, chain_lps), name
            # `toric.variety_model` builds the facets with the model, so a
            # query sees the warm state.  Warm, the facet products decide
            # bigness, a and the face of `b_invariant`, the witness is read
            # off the face's inverse when the face is simplicial ({0}
            # included) and is one LP over its generators otherwise,
            # rigidity asks the face once, through its memo, and the
            # balanced verdict reads the face `fujita` returned.
            # Cold (a cone built without facets), `fujita` asks whether the
            # bundle is big and solves the ray LP, and `b_invariant`,
            # rigidity and the balanced verdict's `b_invariant` each ask
            # `minimal_face`; the first builds the facets.
            if warm:
                assert (len(memberships), len(rays), len(faces)) == (0, 0, 1), name
                simplicial = len(res.face.generators_in_face) == res.face.span_dim
                assert chain_lps == (0 if simplicial else 1), name
            else:
                assert (len(memberships), len(rays), len(faces)) == (1, 1, 3), name
                assert chain_lps == 2, name
            assert balanced == rigid, name
            monkeypatch.undo()


def test_one_lp_per_divisor_polytope(monkeypatch, toric_fans):
    # emptiness, the implicit equalities and the sample point come from one
    # support LP, whether the polytope is empty, a point or full-dimensional
    kinds = set()
    for name, fan in toric_fans.items():
        k = len(fan.rays)
        for coeffs in ([1] * k, [0] * k, [-1] * k):
            lps = counting(monkeypatch, cones, "solve_lp")
            poly = toric.divisor_polytope(fan, coeffs)
            assert len(lps) == 1, (name, coeffs)
            kinds.add(min(poly.dim, 1))
            monkeypatch.undo()
    assert kinds == {-1, 0, 1}


def test_memos_stay_within_their_bound():
    surf = del_pezzo(8)
    m = surf.variety()
    for i in range(1000):
        bundle = vec(i + 2, -1 - i % 2 - i // 2 % 3)  # distinct, inside the cone
        zariski_decompose(surf, fujita(m, bundle).boundary_class)
        zariski_decompose(surf, vec(i, -i))
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == BOUND
        assert info.currsize <= BOUND
        assert info.misses >= 1000


def test_face_memo_stays_within_its_bound():
    # sums of at most three generators of the degree-2 cone meet more
    # distinct faces than the bound; each face, asked again after the memo
    # was emptied, is unchanged and equals the per-facet loop's.  The whole
    # cone, the face of an interior point, has the key of every generator.
    c = ConeQ(del_pezzo(2).variety().eff_cone.generators)
    c.facets
    gens = c.generators
    every = (1 << len(gens)) - 1
    rng = random.Random(2718)
    points = [sum(gens[1:], gens[0])]
    for _ in range(1000):
        v = gens[rng.randrange(len(gens))]
        for j in rng.sample(range(len(gens)), rng.randint(0, 2)):
            v = v + gens[j]
        points.append(v)
    first = []
    for v in points:
        face = c.minimal_face(v)
        assert len(c._faces) <= FACE_MEMO_BOUND
        first.append(face)
        assert all(0 <= key <= every for key in c._faces)
    assert len({f.generators_in_face for f in first}) > FACE_MEMO_BOUND
    for v, face in zip(points, first):
        assert c.minimal_face(v) == face == minimal_face_by_facet_loop(c, v)
        assert len(c._faces) <= FACE_MEMO_BOUND


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
    with pytest.raises(AttributeError):
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
