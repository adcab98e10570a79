"""Each stage of the a -> boundary class -> face -> b chain runs once per
(model, class), the memos stay within their fixed bound, rigidity and the
Zariski decomposition read the model they are asked about, and toric balance
read through class rigidity agrees with the adjoint-divisor route."""

import itertools
import random
from fractions import Fraction

import pytest

from fujita import cones, delpezzo, qlinalg, toric
from fujita.cones import FACE_MEMO_BOUND, ConeQ
from fujita.delpezzo import (
    SurfaceCase,
    del_pezzo,
    negative_classes,
    quadric_surface,
    surface_b,
    surface_balanced,
    weak_balance_curve_check,
    zariski_decompose,
    zariski_for_variety,
)
from fujita.errors import InvalidModel, NotBig, NotPseudoEffective
from fujita.invariants import VarietyModel, b_invariant, fujita, is_rigid_class
from fujita.qlinalg import MatQ, VecQ
from fujita.toric import ns_presentation, variety_model
from conftest import MEMOS, counting, products_by_packing, vec, with_fresh_cone
from oracles import minimal_face_by_facet_loop, rank_by_bareiss, toric_balanced_by_adjoint

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
        m = fresh_cone(surf, warm)
        bundle = -2 * surf.canonical + m.eff_cone.generators[0] + 2 * m.eff_cone.generators[-1]
        rays = counting(monkeypatch, ConeQ, "min_a_with_witness")
        decompositions = counting(monkeypatch, delpezzo, "_zariski")
        memberships = counting(monkeypatch, ConeQ, "contains")
        faces = counting(monkeypatch, ConeQ, "minimal_face")
        lps = counting(monkeypatch, cones, "solve_lp")
        solves = counting(monkeypatch, qlinalg, "solve")
        products = counting(monkeypatch, qlinalg.PackedRows, "products")

        fr = fujita(m, bundle)
        chain_products = products_by_packing(products, m.eff_cone)
        res = b_invariant(m, bundle)
        face_products = tuple(x - y for x, y in zip(products_by_packing(products, m.eff_cone), chain_products))
        case = surface_b(m, bundle)
        balance = surface_balanced(m, bundle)
        rigid = is_rigid_class(m, fr.boundary_class)

        if warm:
            # one product of K in facet order, for its groups, and one of L
            # in their order decide bigness, a and the face; the witness is
            # read off the face's dual facets when the face is simplicial,
            # else one LP over its generators gives it, and `b_invariant`
            # reads the face kept with the point, no product
            simplicial = len(res.face.generators_in_face) == res.face.span_dim
            assert (len(rays), len(memberships), len(faces), len(lps)) == (0, 0, 1, 0 if simplicial else 1)
            assert all(len(lp[2]) == len(res.face.generators_in_face) for lp in lps)
            assert (chain_products, face_products) == ((1, 1), (0, 0))
        else:
            # `fujita` asks the cone once whether the bundle is big, then
            # solves the ray LP; `b_invariant` builds the facets for the
            # face and takes one product in facet order
            assert (len(rays), len(memberships), len(faces), len(lps)) == (1, 1, 1, 2)
            assert (chain_products, face_products) == ((0, 0), (1, 0))
        # the face pass and the Zariski kernel prove membership of the
        # boundary class themselves, and `is_rigid_class` leaves the
        # question to its route
        assert len(decompositions) == 1
        assert solves == []
        assert res.fujita is fr
        assert case.b == res.b
        assert balance.balanced == rigid
        monkeypatch.undo()


@pytest.mark.parametrize("degree", [1, 2, 4, 7])
def test_surface_questions_share_one_zariski_run_and_one_square(monkeypatch, degree):
    # `surface_b`, `surface_balanced` and `is_rigid_class` of one bundle
    # read one memoized case analysis and one decomposition: one kernel run,
    # and at most one pairing, the square of a nonzero positive part.  The
    # memos are emptied per bundle, as two bundles may share a boundary class
    surf = del_pezzo(degree)
    gens = surf.eff_cone.generators
    rng = random.Random(0x5A5E + degree)
    cases = set()
    for _ in range(12):
        for memo in MEMOS:
            memo.cache_clear()
        bundle = rng.randint(1, 2) * -surf.canonical
        for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
            bundle = bundle + rng.randint(1, 3) * gens[j]
        boundary = fujita(surf, bundle).boundary_class
        with pytest.MonkeyPatch.context() as mp:
            kernels = counting(mp, delpezzo, "_zariski")
            pairs = counting(mp, VarietyModel, "pair")
            case = surface_b(surf, bundle)
            balance = surface_balanced(surf, bundle)
            rigid = is_rigid_class(surf, boundary)
        assert len(kernels) == 1 and len(pairs) == (case.case is SurfaceCase.BASE_CURVE)
        assert balance.analysis is case and balance.balanced == rigid
        cases.add(case.case)
    assert cases == set(SurfaceCase)


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
            products = counting(monkeypatch, qlinalg.PackedRows, "products")
            res = b_invariant(m, bundle)
            fr = res.fujita
            chain_lps = len(lps)
            rigid = is_rigid_class(m, fr.boundary_class)
            balanced = toric.toric_balanced_all_subvarieties(fan, coeffs)
            # rigidity and the balanced verdict are read off the minimal
            # face of the boundary class: no polytope, no LP
            assert (len(polytopes), len(supports), len(lps)) == (0, 0, chain_lps), name
            # `toric.variety_model` builds the facets with the model, so a
            # query sees the warm state.  Warm, one product of K in facet
            # order and one of L in the order of K's groups decide bigness,
            # a and the face, the witness is read off the
            # face's dual facets when the face is simplicial ({0} included) and
            # is one LP over its generators otherwise, and `b_invariant`,
            # rigidity and the balanced verdict each ask `minimal_face`,
            # which reads the face kept with the point and takes no product.
            # Cold (a cone built without facets), `fujita` asks whether the
            # bundle is big and solves the ray LP, which keeps no face, so
            # each of the three `minimal_face` calls takes one product in
            # facet order, the first after building the facets, unless the
            # boundary class is 0, whose face {0} needs neither.
            counts = products_by_packing(products, m.eff_cone)
            if warm:
                assert (len(memberships), len(rays), len(faces), counts) == (0, 0, 3, (1, 1)), name
                simplicial = len(res.face.generators_in_face) == res.face.span_dim
                assert chain_lps == (0 if simplicial else 1), name
            else:
                faces_taken = 0 if fr.boundary_class.is_zero() else 3
                assert (len(memberships), len(rays), len(faces), counts) == (1, 1, 3, (faces_taken, 0)), name
                assert chain_lps == 2, name
            assert balanced == rigid, name
            monkeypatch.undo()


def test_rigidity_reads_the_cone_of_the_model_it_is_asked_about(monkeypatch, toric_fans):
    # a model built anew over the generators of a cached one, as the README
    # says to build a changed model: every membership and face question of
    # `is_rigid_class` goes to its own cone, and no model is rebuilt from
    # its provenance tag.  An outside class makes the del Pezzo kernel fail
    # (degrees 2-7) or the membership test run first (degree 8, the quadric),
    # so the cone is asked on every route.
    cases = []
    for fan in toric_fans.values():
        m = with_fresh_cone(variety_model(fan))
        bundle = ns_presentation(fan).divisor_class([1 + i % 3 for i in range(len(fan.rays))])
        cases.append((m, variety_model(fan), bundle))
    for surf in [del_pezzo(d) for d in (2, 5, 7, 8)] + [quadric_surface()]:
        cases.append((with_fresh_cone(surf.variety()), surf.variety(), -1 * surf.canonical))
    outside_seen = 0
    for m, cached, bundle in cases:
        boundary = fujita(m, bundle).boundary_class
        for d, outside in ((boundary, False), (-1 * bundle, True)):
            with pytest.MonkeyPatch.context() as mp:
                memberships = counting(mp, ConeQ, "contains")
                faces = counting(mp, ConeQ, "minimal_face")
                rebuilt = [
                    counting(mp, toric, "variety_model"),
                    counting(mp, delpezzo, "del_pezzo"),
                    counting(mp, delpezzo, "quadric_surface"),
                ]
                if outside:
                    with pytest.raises(NotPseudoEffective):
                        is_rigid_class(m, d)
                    outside_seen += 1
                    assert memberships or faces, m.name
                else:
                    rigid = is_rigid_class(m, d)
                asked = memberships + faces
                assert all(args[0] is m.eff_cone for args in asked), m.name
                assert rebuilt == [[], [], []], m.name
        assert rigid == is_rigid_class(cached, boundary), m.name
    assert outside_seen == len(cases)


@pytest.mark.parametrize("surf", [del_pezzo(2), del_pezzo(5), del_pezzo(8), quadric_surface()])
def test_surface_functions_read_the_cone_of_the_model_they_are_given(monkeypatch, surf):
    # a model built anew over a surface's generators: every attribute read
    # on a ConeQ during the case split, the balanced verdict, the Zariski
    # decomposition (inside and outside the cone) and the curve check is
    # made on the new model's own cone
    m = with_fresh_cone(surf)
    bundle = -1 * m.canonical + m.eff_cone.generators[0]
    curve = VecQ([1] + [0] * (m.ns_rank - 1))  # H, or a ruling of the quadric
    seen = []
    read = ConeQ.__getattribute__

    def spy(cone, name):
        seen.append(cone)
        return read(cone, name)

    monkeypatch.setattr(ConeQ, "__getattribute__", spy)
    case = surface_b(m, bundle)
    balance = surface_balanced(m, bundle)
    boundary = fujita(m, bundle).boundary_class
    zariski_decompose(m, boundary)
    with pytest.raises(NotPseudoEffective):
        zariski_decompose(m, -1 * bundle)
    weak_balance_curve_check(m, bundle, curve)
    monkeypatch.undo()
    assert seen and all(cone is m.eff_cone for cone in seen), m.name
    assert case.b == b_invariant(surf, bundle).b
    assert balance.balanced == is_rigid_class(surf, boundary)


def test_lattice_surface_zariski_is_one_memo_entry_per_model(monkeypatch):
    # a lattice surface with the degree-7 form and generators: a second
    # decomposition of an equal class is a memo hit, and the curves are
    # built once per model (each generator paired once) for every
    # decomposition and every `negative_classes` call
    surf = del_pezzo(7)
    dp = surf.variety()
    gens = dp.eff_cone.generators
    m = VarietyModel("raw-dp7", 3, dp.canonical, ConeQ(gens), dp.intersection_form)
    builds = counting(monkeypatch, delpezzo, "SurfaceCurves")
    pairs = counting(monkeypatch, VarietyModel, "pair")
    kernels = counting(monkeypatch, delpezzo, "_zariski")
    d = -1 * surf.canonical + gens[0]
    dec = zariski_for_variety(m, d)
    assert zariski_for_variety(m, VecQ(list(d))) is dec
    assert zariski_for_variety.cache_info().hits == 1
    zariski_for_variety(m, 2 * gens[1] + gens[2])
    assert negative_classes(m) == negative_classes(m) == gens
    assert (len(builds), len(pairs), len(kernels)) == (1, 0, 2)
    assert dec == zariski_decompose(surf, d)


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
    pres = ns_presentation(toric.Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)]))
    for i in range(1000):
        bundle = vec(i + 2, -1 - i % 2 - i // 2 % 3)  # distinct, inside the cone
        zariski_decompose(surf, fujita(m, bundle).boundary_class)
        zariski_decompose(surf, vec(i, -i))
        surface_b(surf, bundle)
        pres.divisor_class((i, 1, 0))
    for memo in MEMOS:
        info = memo.cache_info()
        assert info.maxsize == BOUND
        assert info.currsize <= BOUND
        assert info.misses >= 1000


def test_fan_caches_stay_within_their_bound():
    # 20 Hirzebruch fans overflow both fan-keyed caches; asked again, after
    # the first of them were evicted, every fan gives the same answer
    def answer(n):
        fan = toric.Fan([(1, 0), (0, 1), (-1, n), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
        m = variety_model(fan)
        res = b_invariant(m, -m.canonical)
        return m.canonical, m.eff_cone.facets, res.fujita.a, res.b

    first = [answer(n) for n in range(20)]
    for cache in (ns_presentation, variety_model):
        info = cache.cache_info()
        assert info.maxsize == BOUND
        assert info.currsize <= BOUND
    assert [answer(n) for n in range(20)] == first


def memo_kinds(c) -> tuple[int, int]:
    """The number of simplicial and of other faces in the cone's face memo,
    each entry checked for its kind: a simplicial face keeps its dual
    facets and every coordinate as its rows, any other face None and its
    span_dim pivot rows."""
    kinds = [0, 0]
    for mask, (face, rows, cells, duals) in c._faces.items():
        assert mask == sum([1 << j for j in face.generators_in_face])
        simplicial = len(face.generators_in_face) == face.span_dim
        assert (duals is not None) == simplicial
        assert len(rows) == (c.ambient_dim if simplicial else face.span_dim)
        kinds[not simplicial] += 1
    return kinds[0], kinds[1]


def test_face_memo_stays_within_its_bound():
    # sums of at most three generators of the degree-2 cone meet more
    # distinct faces than the bound; each face, asked again, is unchanged
    # and equals the per-facet loop's.  Every face is memoized; a full memo
    # drops only the simplicial ones, so no non-simplicial face met ever
    # leaves it.  The whole cone, the face of an interior point, has the
    # key of every generator.
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
    first, kept = [], set()
    for v in points:
        face = c.minimal_face(v)
        assert len(c._faces) <= FACE_MEMO_BOUND
        first.append(face)
        assert all(0 <= key <= every for key in c._faces)
        if len(face.generators_in_face) > face.span_dim:
            kept.add(sum([1 << j for j in face.generators_in_face]))
        assert kept <= set(c._faces)
    assert len({f.generators_in_face for f in first}) > FACE_MEMO_BOUND
    for v, face in zip(points, first):
        assert c.minimal_face(v) == face == minimal_face_by_facet_loop(c, v)
        assert len(c._faces) <= FACE_MEMO_BOUND and kept <= set(c._faces)
    simplicial, other = memo_kinds(c)
    assert simplicial > 0 and other == len(kept) > 0


def test_face_memo_is_emptied_when_full():
    # the cone over the 6-cube, generators (s, 1) for s in {-1, 1}^6: the
    # point (c, 1), c in {-1, 0, 1}^6, lies inside the cube face that fixes
    # the coordinates where c is nonzero, and the cones over the 473 cube
    # faces of dimension 2 or more are non-simplicial, more than the
    # bound.  A full memo first drops its simplicial faces (vertices and
    # edges) and keeps the others; once those alone fill it, it is emptied.
    # Each face, asked again, is unchanged and equals the per-facet loop's.
    c = ConeQ([list(s) + [1] for s in itertools.product((-1, 1), repeat=6)])
    c.facets
    points = [vec(*x, 1) for x in itertools.product((-1, 0, 1), repeat=6)]
    first, sizes, drops = [], [], []
    for v in points:
        before = memo_kinds(c)
        first.append(c.minimal_face(v))
        sizes.append(len(c._faces))
        if sizes[-1] <= sum(before):
            # one eviction, then the new face: the non-simplicial faces
            # kept, or none when they filled the memo
            assert sum(before) == FACE_MEMO_BOUND
            drops.append(before[1] if before[1] < FACE_MEMO_BOUND else 0)
            assert sizes[-1] == drops[-1] + 1
    assert max(sizes) == FACE_MEMO_BOUND and sizes[-1] < FACE_MEMO_BOUND
    assert min(drops) == 0 < max(drops)
    assert sum(len(f.generators_in_face) > f.span_dim for f in first) == 473
    for v, face in zip(points, first):
        assert c.minimal_face(v) == face == minimal_face_by_facet_loop(c, v)
        assert len(c._faces) <= FACE_MEMO_BOUND


def queries_with_bound(monkeypatch, models, sample, count, bound):
    """count seeded queries round robin over new cones on the models'
    generators, facets built, with the face memo bound patched.  After every
    query each face that ever held cells found by the face LP must still
    hold some.  Returns the answers with their faces, the number of face
    LPs, per cone the number of such faces and the most faces held, and
    the number of queries after which some face had left the memo."""
    monkeypatch.setattr(cones, "FACE_MEMO_BOUND", bound)
    cs = [ConeQ(m.eff_cone.generators, ambient_dim=m.ns_rank) for m in models]
    for c in cs:
        c.facets
    lps = counting(monkeypatch, cones, "solve_lp")
    rng = random.Random(0xB0D)
    answers, evictions = [], 0
    # per cone, the faces whose cells the face LP found
    held = [set() for _ in cs]
    peaks = [[0, 0] for _ in cs]
    for i in range(count):
        k = i % len(cs)
        c = cs[k]
        before = set(c._faces)
        answer = c.min_a_with_point(models[k].canonical, sample(k, rng))
        face = c._point[1].generators_in_face
        answers.append((answer, face))
        evictions += not before <= c._faces.keys()
        mask = sum([1 << j for j in face])
        if c._faces[mask][3] is None:
            held[k].add(mask)
        assert all(c._faces[mask][2] for mask in held[k])
        peaks[k][0] = max(peaks[k][0], len(held[k]))
        peaks[k][1] = max(peaks[k][1], len(c._faces))
    monkeypatch.undo()
    return answers, len(lps), peaks, evictions


def test_eviction_never_costs_a_face_lp(toric_fans):
    # 3000 seeded degree-2 queries and 3000 over the toric catalog, first
    # with a bound no memo reaches, then with one more than the most
    # non-simplicial faces any of these cones held: the memo then evicts
    # often, but drops only simplicial faces, which need no LP, so the
    # answers, witnesses, faces and face-LP counts are the same
    surf = del_pezzo(2)
    gens = surf.variety().eff_cone.generators

    def dp_sample(k, rng):
        bundle = rng.randint(1, 2) * -surf.canonical
        for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
            bundle = bundle + rng.randint(1, 3) * gens[j]
        return bundle

    fans = list(toric_fans.values())

    def toric_sample(k, rng):
        return ns_presentation(fans[k]).divisor_class([rng.randint(1, 3) for _ in fans[k].rays])

    for models, sample in (([surf.variety()], dp_sample), ([variety_model(f) for f in fans], toric_sample)):
        with pytest.MonkeyPatch.context() as mp:
            unbounded = queries_with_bound(mp, models, sample, 3000, 10**6)
            bound = 1 + max(other for other, _ in unbounded[2])
            assert bound < max(size for _, size in unbounded[2]) and unbounded[3] == 0
            bounded = queries_with_bound(mp, models, sample, 3000, bound)
        assert bounded[:2] == unbounded[:2] and bounded[3] > 0
        assert max(size for _, size in bounded[2]) == bound


def test_chain_reads_k_and_the_boundary_face_once(monkeypatch, toric_fans):
    # on a warm cone, K's groups and their packing are kept after the first
    # query, so each later `fujita` query takes one packed product, of L in
    # the order of K's groups, and none of K; the boundary point is kept
    # with its face, so `minimal_face` and toric rigidity on that point, or
    # on an equal vector built anew, take none
    for name, fan in toric_fans.items():
        m = fresh_cone(variety_model(fan), warm=True)
        monkeypatch.setattr(toric, "variety_model", lambda f: m)
        c = m.eff_cone
        bundle = ns_presentation(fan).divisor_class([1 + i % 3 for i in range(len(fan.rays))])
        fujita(m, bundle)
        for k in (2, 3, 5):
            with pytest.MonkeyPatch.context() as mp:
                products = counting(mp, qlinalg.PackedRows, "products")
                fr = fujita(m, k * bundle)
                assert products_by_packing(products, c) == (0, 1), name
                for point in (fr.boundary_class, VecQ(list(fr.boundary_class))):
                    face = c.minimal_face(point)
                    assert face is c._point[1] and face == minimal_face_by_facet_loop(c, point), name
                    rigid = toric.class_is_rigid(fan, point)
                    assert rigid == (len(face.generators_in_face) == face.span_dim), name
                assert products_by_packing(products, c) == (0, 1) and len(products) == 1, name
        monkeypatch.undo()


def test_point_face_memo_stays_within_its_bound():
    # the cone keeps one boundary point with its face, the last one
    # `min_a_with_point` returned: `minimal_face` of it runs no product, and
    # an older point is computed again, equal to the per-facet loop's
    surf = del_pezzo(2)
    c = ConeQ(surf.variety().eff_cone.generators)
    c.facets
    gens = c.generators
    rng = random.Random(1618)
    answers = []
    for i in range(60):
        bundle = -1 * surf.canonical
        for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
            bundle = bundle + rng.randint(1, 4) * gens[j]
        a, point, _ = c.min_a_with_point(surf.canonical, bundle)
        face = c._point[1]
        assert c._point[0] == point and face == minimal_face_by_facet_loop(c, point)
        answers.append((point, face))
    last, last_face = answers[-1]
    older = [(p, f) for p, f in answers[:-1:3] if p != last]
    assert len(older) > 10
    with pytest.MonkeyPatch.context() as mp:
        slots = counting(mp, ConeQ, "_slots")
        assert c.minimal_face(VecQ(list(last))) is last_face
        assert slots == []
        for point, face in older:
            assert c.minimal_face(point) == face == minimal_face_by_facet_loop(c, point)
        assert len(slots) == len(older)
    assert c._point == (last, last_face)


def test_a_point_in_a_stored_cell_runs_no_face_lp(monkeypatch):
    # the first visit to a non-simplicial face runs the face LP and keeps
    # its final basis B as a cell, its inverse on the face's pivot rows R
    # built at once.  L + g, g in B, keeps a and the face and moves the
    # boundary point by a*g inside cone(B): the cell holds it, and neither
    # an LP nor an inverse runs.
    surf = del_pezzo(6)
    c = ConeQ(surf.variety().eff_cone.generators)
    c.facets
    gens = c.generators
    bundle = -1 * surf.canonical + gens[0] + 2 * gens[4]
    lps = counting(monkeypatch, cones, "solve_lp")
    inverses = counting(monkeypatch, cones, "scaled_inverse")
    a, point, witness = c.min_a_with_point(surf.canonical, bundle)
    face = c._point[1]
    assert len(face.generators_in_face) > face.span_dim and (len(lps), len(inverses)) == (1, 1)
    mask = sum([1 << j for j in face.generators_in_face])
    _, rows, [cell], duals = c._faces[mask]
    basis, det, inverse, coords = cell
    assert duals is None and coords == [tuple([gens[j][t] for j in basis]) for t in range(c.ambient_dim)]
    assert len(basis) == len(rows) == face.span_dim and det > 0
    assert len(inverse) == len(rows) and all(len(r) == len(rows) for r in inverse)
    assert {j for j, w in enumerate(witness) if w} <= set(basis) <= face.generators_in_face
    g = gens[basis[0]]
    assert c.min_a_with_point(surf.canonical, bundle + g)[:2] == (a, point + a * g)
    assert c._point[1] is face and (len(lps), len(inverses)) == (1, 1)
    assert c._faces[mask][2] == [cell]


def _cell_queries(cases, count, lps):
    """count seeded queries round robin over (cone, K, bundle sampler):
    every witness is nonnegative and recombines to its point, and one that
    no LP gave, read off a cell or a simplicial face's dual facets, has an
    independent support.  Returns the cell witnesses on non-simplicial
    faces."""
    hits = 0
    for i in range(count):
        c, canonical, sample = cases[i % len(cases)]
        before = len(lps)
        a, point, witness = c.min_a_with_point(canonical, sample())
        face = c._point[1]
        support = [j for j, w in enumerate(witness) if w]
        assert min(witness) >= 0 and set(support) <= face.generators_in_face
        assert sum([witness[j] * c.generators[j] for j in support], VecQ.zero(c.ambient_dim)) == point
        if len(lps) == before and support:
            vectors = MatQ([list(c.generators[j]) for j in support])
            assert rank_by_bareiss(vectors) == len(support)
            hits += len(face.generators_in_face) > face.span_dim
    return hits


def test_a_face_keeps_at_most_its_generator_count_of_cells(monkeypatch, toric_fans):
    # 2000 seeded queries on del Pezzo degrees 2-6 and 2000 over the toric
    # catalog: a simplicial face ({0} too) keeps its one cell, on G_F, any
    # other keeps at most |F| cells, and on those faces cells answer many
    # queries.  Equal coordinate rows of cells are one tuple.
    rng = random.Random(5772)
    lps = counting(monkeypatch, cones, "solve_lp")
    dp, tor = [], []
    for d in (2, 3, 4, 5, 6):
        surf = del_pezzo(d)
        c = ConeQ(surf.variety().eff_cone.generators)
        c.facets
        gens = c.generators

        def sample(gens=gens, anti=-1 * surf.canonical):
            bundle = anti
            for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
                bundle = bundle + rng.randint(1, 4) * gens[j]
            return bundle

        dp.append((c, surf.canonical, sample))
    for fan in toric_fans.values():
        m = variety_model(fan)
        c = ConeQ(m.eff_cone.generators, ambient_dim=m.ns_rank)
        c.facets
        pres = ns_presentation(fan)

        def sample(pres=pres, k=len(fan.rays)):
            return pres.divisor_class([rng.randint(1, 3) for _ in range(k)])

        tor.append((c, m.canonical, sample))
    hits = [_cell_queries(cases, 2000, lps) for cases in (dp, tor)]
    assert min(hits) > 100, hits
    for c, _, _ in dp + tor:
        for face, rows, cells, duals in c._faces.values():
            size = len(face.generators_in_face)
            if duals is not None:
                assert [cell[0] for cell in cells] == [tuple(sorted(face.generators_in_face))]
            else:
                assert size > face.span_dim and 0 < len(cells) <= size
                assert all(len(cell[0]) == len(rows) == face.span_dim for cell in cells)
    rows = [r for c, _, _ in dp + tor for entry in c._faces.values() for cell in entry[2] for r in cell[3]]
    assert len({id(r) for r in rows}) == len(set(rows)) < len(rows) // 10


def test_exceptions_are_not_cached():
    m = del_pezzo(8).variety()
    not_big = vec(0, 1)  # the exceptional curve: boundary, not interior
    for _ in range(2):
        with pytest.raises(NotBig):
            fujita(m, not_big)
    info = fujita.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)


def test_one_class_map_per_toric_query(monkeypatch, toric_fans):
    # 300 seeded queries shaped like the benchmark's toric query, each
    # with empty memos: the class map, `fujita`, `minimal_face`, rigidity
    # and the balanced verdict, whose lookup finds the class the query
    # mapped, so the coefficients are mapped to a class once
    fans = list(toric_fans.values())
    models = [variety_model(f) for f in fans]
    rng = random.Random(0xC1A55)
    maps = counting(monkeypatch, MatQ, "apply")
    for i in range(300):
        for memo in MEMOS:
            memo.cache_clear()
        fan, m = fans[i % len(fans)], models[i % len(fans)]
        coeffs = tuple(rng.randint(1, 3) for _ in fan.rays)
        bundle = ns_presentation(fan).divisor_class(coeffs)
        fr = fujita(m, bundle)
        m.eff_cone.minimal_face(fr.boundary_class)
        rigid = is_rigid_class(m, fr.boundary_class)
        assert toric.toric_balanced_all_subvarieties(fan, coeffs) == rigid
    assert len(maps) == 300


def test_class_memo_shares_classes_and_keeps_no_error(toric_fans):
    # equal integer coefficients, as a list or a tuple, give the one kept
    # class; a wrong count raises on every call and is not kept; entries
    # that are not ints are mapped anew, so a bool equal to a kept int is
    # still rejected
    pres = ns_presentation(toric_fans["dp6-toric"])
    k = len(pres.fan.rays)
    cls = pres.divisor_class([1 + i % 3 for i in range(k)])
    assert pres.divisor_class(tuple(1 + i % 3 for i in range(k))) is cls
    for _ in range(3):
        with pytest.raises(InvalidModel, match="^coefficient count does not match ray count$"):
            pres.divisor_class([1] * (k + 1))
    info = toric._class_of.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 4, 1)
    exact = [Fraction(1 + i % 3) for i in range(k)]
    assert pres.divisor_class(exact) == cls and pres.divisor_class(exact) is not cls
    with pytest.raises(TypeError):
        pres.divisor_class([True] + [1 + i % 3 for i in range(1, k)])
    assert toric._class_of.cache_info().currsize == 1


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
