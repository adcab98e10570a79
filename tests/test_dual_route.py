"""The facet route of `ConeQ.min_a_with_point`: bigness, a and the
boundary point's minimal face read off two packed facet products, the face
kept for `minimal_face`, and the witness read off the first cell of the
memoized face that holds the point (a simplicial face's one cell, from its
dual facets, else a stored cell or the cell of the face LP's basis),
checked in integers.  The ray LP on a copy of the cone without facets is the
oracle for a and the face, and `solve_lp` and `Fraction` Gauss-Jordan on
the answering cell's generators for the witness.  `b_invariant` gives the
same answer on a cone whichever route it took."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fujita import cli, cones, qlinalg
from fujita.cones import ConeQ
from fujita.delpezzo import del_pezzo
from fujita.errors import InternalError, KPseudoEffective, NotBig
from fujita.fixtures import load_catalog
from fujita.invariants import VarietyModel, b_invariant, fujita
from fujita.qlinalg import MatQ, VecQ, nullspace, scaled_ints
from fujita.simplex import LPResult, LPStatus, solve_lp
from fujita.toric import ns_presentation, variety_model
from conftest import (
    counting,
    dots_taken,
    packing_cone,
    packing_probe,
    random_cones,
    random_rational_vector,
    straddling,
    vec,
    with_fresh_cone,
)
from oracles import (
    combination_by_fractions,
    min_a_and_face_by_facet_loop,
    min_a_and_face_by_ray_lp,
    minimal_face_by_facet_loop,
    rank_by_bareiss,
)

HUGE = (2**64 + 1, 2**200 + 3)


def with_facets(cone):
    """A new cone on the same generators, its facets built."""
    c = ConeQ(cone.generators, ambient_dim=cone.ambient_dim)
    c.facets
    return c


def check_dual_route(c, base, direction):
    """`min_a_with_point` on c, whose facets exist, and `minimal_face` of
    its point against the ray-LP route; the boundary point must be
    base + a*direction, and the witness nonnegative, on the face and
    recombine to it.  On a simplicial face the witness is the one
    combination there is, so it must equal `solve_lp`'s on the face's
    generators.  a and the face must also equal the per-facet arg-max
    loop's.  Returns whether the direction was interior."""
    assert c._facets is not None
    got = c.min_a_with_point(base, direction)
    expected = min_a_and_face_by_ray_lp(c, base, direction)
    by_loop = min_a_and_face_by_facet_loop(c, base, direction)
    if expected is None:
        assert got is None and by_loop is None, (base, direction)
        return False
    a, point, witness = got
    face = c.minimal_face(point)
    assert point == base + a * direction
    assert (a, face.generators_in_face, face.span_dim) == expected, (base, direction)
    assert (a, face.generators_in_face) == by_loop, (base, direction)
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


@settings(max_examples=150, deadline=None)
@given(random_cones(), st.randoms(use_true_random=False))
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
    # slot (or out of the last one); both products are probed at the edge,
    # on each cone as it is, below the crossover, and with the orthant
    # that brings it to PACK_MIN_ROWS facets, so that it packs
    for gens in ([vec(1)], [vec(1, 0), vec(1, 1)], [vec(1, 2), vec(0, 1)]):
        for c in (with_facets(ConeQ(gens)), with_facets(ConeQ(packing_cone(gens)))):
            inside = sum(c.generators[1:], c.generators[0])
            for e in (62, 63, 64):
                for x in (2**e - 1, 2**e, 2**e + 1):
                    for v in (vec(x), vec(x, 0), vec(x, x), vec(x, -x), vec(0, x), vec(x, 1)):
                        if v.dim == len(gens):
                            v = packing_probe(v, c.ambient_dim)
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
            assert dots_taken(c, v) == (1 if n == 1 else len(c._facets))


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


def tie_groups(c, base, a, direction):
    """The distinct f.K over the facets that reach a: those vanishing at
    base + a*direction."""
    point = base + a * direction
    return {f.dot(base) for f in c.facets if f.dot(point) == 0}


def test_grouped_arg_max_on_every_sign_of_fk():
    # the orthant, its facets x, y, z >= 0: groups of f.K < 0 (min of the
    # f.L), f.K = 0 (every ratio 0) and f.K > 0 (max of the f.L)
    c = with_facets(ConeQ([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]))
    cases = [
        # base, direction, a, the generators of the point's face
        ((-1, 0, 1), (1, 1, 1), 1, {1, 2}),
        ((-1, 0, 1), (3, 1, 2), Fraction(1, 3), {1, 2}),
        ((0, 0, 1), (1, 2, 1), 0, {2}),
        ((0, 2, 1), (1, 2, 1), 0, {1, 2}),
        ((1, 2, 3), (1, 1, 1), -1, {1, 2}),
        ((1, 2, 3), (2, 1, 5), Fraction(-1, 2), {1, 2}),
        # a reached in two groups (f.K = -1 and -2), and in three
        ((-1, -2, 1), (1, 2, 1), 1, {2}),
        ((1, 2, 3), (1, 2, 3), -1, set()),
        ((-2, 0, -1), (2, 5, 1), 1, {1}),
    ]
    signs, ties = set(), 0
    for base, direction, a, face in cases:
        base, direction = vec(*base), vec(*direction)
        assert check_dual_route(c, base, direction)
        assert c.min_a_with_point(base, direction)[0] == a
        assert c.minimal_face(base + a * direction).generators_in_face == face
        signs |= {(n > 0) - (n < 0) for n, _, _ in c._base[3]}
        ties += len(tie_groups(c, base, a, direction)) > 1
    assert signs == {-1, 0, 1} and ties == 3


@pytest.mark.parametrize("degree", [3, 5])
def test_grouped_arg_max_on_del_pezzo_cones_with_mixed_bases(degree):
    # bases of every sign against the del Pezzo facets (not K, whose f.K
    # is -2 or -3 on every facet): many groups, ties across groups included
    surf = del_pezzo(degree)
    c = with_facets(surf.variety().eff_cone)
    rng = random.Random(0x6A0 + degree)
    gens = list(c.generators)
    signs, ties = set(), 0
    for i in range(150):
        base = vec(*[rng.randint(-3, 3) for _ in range(c.ambient_dim)])
        if i % 3 == 0:
            base = surf.canonical + rng.choice(gens)
        direction = -1 * surf.canonical
        for j in rng.sample(range(len(gens)), rng.randint(0, 2)):
            direction = direction + rng.randint(1, 2) * gens[j]
        assert check_dual_route(c, base, direction)
        a = c.min_a_with_point(base, direction)[0]
        signs |= {(n > 0) - (n < 0) for n, _, _ in c._base[3]}
        ties += len(tie_groups(c, base, a, direction)) > 1
    assert signs == {-1, 0, 1} and ties > 10


def test_a_base_switch_drops_only_the_simplicial_faces(monkeypatch):
    # K, then another base, then K again on one cone.  Each switch reorders
    # the one facet store by the new base's f.K and drops the simplicial
    # faces, whose duals are facet indices; the other faces keep their
    # LP-found cells, so the revisited face of K's first query runs no face
    # LP.  Every a, face and witness equals the per-facet loop's and the
    # `Fraction` solve's on the answering basis.
    surf = del_pezzo(6)
    c = with_facets(surf.variety().eff_cone)
    gens, k = c.generators, surf.canonical
    lex = c.facets
    # bundles[4] meets the face of g_0, g_1, g_3, g_4 (span 3) from both bases
    bundles = [-1 * k + gens[0] + 2 * g for g in gens]
    lps = counting(monkeypatch, cones, "solve_lp")
    orders, kept = [], {}
    for base in (k, k + gens[1], k):
        vk = scaled_ints(base)[0]
        for i, bundle in enumerate(bundles[4:] + bundles):
            before = len(lps)
            a, point, witness = c.min_a_with_point(base, bundle)
            face = c._point[1]
            assert (a, face.generators_in_face) == min_a_and_face_by_facet_loop(c, base, bundle)
            mask = sum([1 << j for j in face.generators_in_face])
            basis = c._faces[mask][2][0][0]
            expected = [Fraction(0)] * len(gens)
            for j, x in zip(basis, combination_by_fractions([gens[j] for j in basis], point)):
                expected[j] = x
            assert list(witness) == expected, (base, bundle)
            if i == 0:
                # the first query after a switch: no simplicial face is left,
                # and every other face kept its cells, the same list
                assert len(face.generators_in_face) > face.span_dim
                assert all(e[3] is None for e in c._faces.values())
                assert all(c._faces[m][2] is cells and cells for m, cells in kept.items())
                if base == k and kept:
                    assert len(lps) == before
        dots = [qlinalg.idot(f, vk) for f in c._facets]
        assert dots == sorted(dots) and c.facets == lex
        orders.append(c._facets)
        assert any(e[3] is not None for e in c._faces.values())
        kept = {m: e[2] for m, e in c._faces.items() if e[3] is None}
    assert orders[0] != orders[1] and kept


# L's products in the group order on the orthant of Q^8 with this base:
# f.K = -2 on the facets in slots 0-3, -1 on those in slots 4-7
TIE_BASE = vec(-1, -1, -1, -1, -2, -2, -2, -2)
TIE_SLOTS = [
    [2, 5, 5, 2, 9, 9, 9, 9],  # the first and last slot of a group
    [5, 2, 2, 5, 9, 9, 9, 9],  # inside a group
    [3, 3, 3, 3, 9, 9, 9, 9],  # a whole group
    [9, 9, 9, 9, 1, 3, 3, 1],  # the first and last slot of the last group
    [4, 6, 6, 4, 2, 3, 3, 2],  # two groups, each at its first and last slot
]


def check_ties(base, slots, size):
    """`min_a_with_point` on the orthant whose facets take the products
    `slots` of L in the group order; the face must equal the per-facet
    loop's, and L's product must come in slots of `size` bytes on a
    little-endian host (None: one idot per facet)."""
    d = len(slots)
    c = with_facets(ConeQ([vec(*[int(i == j) for j in range(d)]) for i in range(d)]))
    direction = vec(*slots[::-1])  # facet j is x_(d-1-j) >= 0
    assert check_dual_route(c, base, direction)
    point, face = c._point
    assert face == minimal_face_by_facet_loop(c, point), slots
    sl = c._packed.products(scaled_ints(direction)[0])
    assert list(sl) == slots
    packed = type(sl) is memoryview
    assert (sl.itemsize if packed else None) == (size if qlinalg.sys.byteorder == "little" else None)
    return sl if packed else None


class TestTieScan:
    """The facets reaching a found by the tie scan of one group-ordered
    product: ties at a group's ends, inside it, across groups and over a
    whole group, in each slot width, and a slot byte pattern that straddles
    two slots, which is no tie."""

    @pytest.mark.parametrize("n, size", [(1, 2), (2**20, 4), (2**40, 8), (2**70, None)])
    def test_ties_in_every_width(self, n, size):
        for slots in TIE_SLOTS:
            check_ties(TIE_BASE, [n * x for x in slots], size)

    @pytest.mark.parametrize("size", [2, 4, 8])
    def test_a_straddling_match_is_no_tie(self, size):
        # [A, B, x] twice, six facets, so that the product packs: x's bytes
        # straddle each A, B pair, and the ties are the two x slots
        slots = straddling(size) * 2
        sl = check_ties(vec(*[-1] * len(slots)), slots, size)
        if sl is not None:
            assert sl.obj.find(slots[2].to_bytes(size, "little")) == 1


class TestTieScanDotPath:
    """The tie cases with `qlinalg` reading the host as big-endian."""

    @pytest.fixture(autouse=True)
    def big_endian(self, monkeypatch):
        monkeypatch.setattr(qlinalg, "sys", SimpleNamespace(byteorder="big"))

    test_ties_in_every_width = TestTieScan.test_ties_in_every_width
    test_a_straddling_match_is_no_tie = TestTieScan.test_a_straddling_match_is_no_tie


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


def b_on_both_routes(m, bundle):
    """`b_invariant` on a cold copy of m (a by the ray LP, the face by
    `minimal_face` after it builds the facets) and on a warm one (a by the
    facet products, the face read from the cone's point slot): a, the
    boundary class, b and the face generators must be equal."""
    answers = []
    for warm in (False, True):
        c = with_fresh_cone(m)
        if warm:
            c.eff_cone.facets
        res = b_invariant(c, bundle)
        assert (c.eff_cone._point is not None) == warm, m.name
        answers.append((res.fujita.a, res.fujita.boundary_class, res.b, res.face.generator_vectors()))
    assert answers[0] == answers[1], m.name
    return answers[0]


def test_b_is_the_same_on_both_routes_over_the_catalog():
    # every catalog model with its bundle, subvarieties included, but the
    # degree-1 surface: DD of its cone, which the warm copy needs, takes
    # tens of seconds (its L = -K is checked cold in the next test)
    cases = []
    for fid, fx in sorted(load_catalog().items()):
        if fid != "dp1-anticanonical":
            cases.append((fx.problem.model.variety, fx.problem.bundle_class))
            cases += [(y.model, y.restricted_bundle) for _, y in fx.problem.subvarieties]
    assert len(cases) == 26
    for m, bundle in cases:
        b_on_both_routes(m, bundle)


@pytest.mark.parametrize("degree", range(2, 8))
def test_b_is_the_same_on_both_routes_on_del_pezzo_bundles(degree):
    # seeded big bundles, c*(-K) with c > 0 plus a few (-1)-curves
    surf = del_pezzo(degree)
    gens = surf.eff_cone.generators
    rng = random.Random(0xB0B + degree)
    nonzero = 0
    for _ in range(6):
        v = rng.randint(1, 2) * -surf.canonical
        for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
            v = v + rng.randint(1, 3) * gens[j]
        nonzero += not b_on_both_routes(surf, v)[1].is_zero()
    assert nonzero > 0


def test_fujita_alone_leaves_degree_one_facets_unbuilt(monkeypatch):
    # DD of the degree-1 cone takes tens of seconds; a needs none of it,
    # and neither does b of L = -K, whose boundary class a*L + K is 0
    surf = del_pezzo(1)
    m = with_fresh_cone(surf.variety())
    runs = counting(monkeypatch, ConeQ, "_compute_facets")
    fr = fujita(m, -2 * surf.canonical + m.eff_cone.generators[0])
    assert fr.a > 0
    res = b_invariant(m, -1 * surf.canonical)
    assert (res.fujita.a, res.b, res.face.generators_in_face) == (1, m.ns_rank, frozenset())
    assert runs == [] and m.eff_cone._facets is None


def check_dual_rule(c, queries, n):
    """`min_a_with_point` on c, whose facets exist, for n * base and
    n * direction over the queries.  On each boundary point's face F the
    dual rule must answer iff rank(G_F) = |F| by the Bareiss oracle; on a
    simplicial face its facets must be dual to G_F, the witness must be
    `Fraction` Gauss-Jordan's solve on G_F, and no elimination, inverse or
    LP may run in `cones`; it must be memoized with those dual facets,
    every coordinate as its rows and one cell on G_F.  Any other face must
    be memoized, and the witness must be the `Fraction` solve on the basis
    of its front cell, the one that answered.  Returns the number of
    simplicial and of other faces met."""
    met = [0, 0]
    with pytest.MonkeyPatch.context() as mp:
        solves = [counting(mp, cones, name) for name in ("pivot_columns", "scaled_inverse", "solve_lp")]
        for base, direction in queries:
            for calls in solves:
                calls.clear()
            got = c.min_a_with_point(n * base, n * direction)
            if got is None:
                continue
            _, point, witness = got
            face = c._point[1]
            inside = sorted(face.generators_in_face)
            gens = [c.generators[j] for j in inside]
            simplicial = not gens or rank_by_bareiss(MatQ([list(g) for g in gens])) == len(gens)
            duals = c._duals(inside)
            assert (duals is not None) == simplicial, (base, direction)
            met[not simplicial] += 1
            mask = sum([1 << j for j in inside])
            assert mask in c._faces and c._faces[mask][0] == face
            _, rows, cells, memo_duals = c._faces[mask]
            if simplicial:
                assert face.span_dim == len(gens) and memo_duals == duals
                assert list(rows) == list(range(c.ambient_dim)) and [cell[0] for cell in cells] == [tuple(inside)]
                assert solves == [[], [], []], (base, direction)
                # the duals index the facets as stored after the query
                for f, j in zip(duals, inside):
                    assert [VecQ(c._facets[f]).dot(g) > 0 for g in gens] == [i == j for i in inside]
            else:
                assert memo_duals is None
                inside = cells[0][0]
                gens = [c.generators[j] for j in inside]
            expected = [Fraction(0)] * len(c.generators)
            for j, x in zip(inside, combination_by_fractions(gens, point)):
                expected[j] = x
            assert list(witness) == expected, (base, direction)
    return met


class TestDualRule:
    """Faces met by seeded queries on del Pezzo degrees 2-7, the toric
    catalog with the benchmark's product fans and random cones, at scale 1
    and 2^80 (products past 63 bits come back as lists): the dual rule
    against the Bareiss rank, and every witness, off a simplicial face's
    dual facets or a cell of any other face, against a `Fraction` solve."""

    @pytest.mark.parametrize("n", [1, 2**80])
    def test_del_pezzo_faces(self, n):
        met = [0, 0]
        for degree in range(2, 8):
            surf = del_pezzo(degree)
            c = with_facets(surf.variety().eff_cone)
            rng = random.Random(0xD0A1 + degree)
            gens = list(c.generators)
            queries = []
            for _ in range(60):
                v = rng.randint(1, 2) * -surf.canonical
                for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
                    v = v + rng.randint(1, 3) * gens[j]
                queries.append((surf.canonical, v))
            met = [x + y for x, y in zip(met, check_dual_rule(c, queries, n))]
        assert min(met) > 10, met

    @pytest.mark.parametrize("n", [1, 2**80])
    def test_toric_faces(self, toric_fans, n):
        rng = random.Random(0x7041D)
        met = [0, 0]
        for fan in toric_fans.values():
            m = variety_model(fan)
            c = with_facets(m.eff_cone)
            pres = ns_presentation(fan)
            queries = []
            for i in range(20):
                coeffs = [rng.randint(-1 if i % 2 else 1, 3) for _ in fan.rays]
                queries.append((m.canonical, pres.divisor_class(coeffs)))
            met = [x + y for x, y in zip(met, check_dual_rule(c, queries, n))]
        assert min(met) > 10, met

    @settings(max_examples=60, deadline=None)
    @given(random_cones(), st.randoms(use_true_random=False))
    def test_random_cone_faces(self, c, rng):
        check_dual_rule_on_random_cone(c, rng)


def check_dual_rule_on_random_cone(c, rng):
    """The dual rule on a random cone: random bases and the negated
    generators along an interior direction, at scale 1 and 2^80."""
    c.facets
    d = c.ambient_dim
    interior = VecQ.zero(d)
    for g in c.generators:
        interior = interior + rng.randint(1, 3) * g
    queries = [(random_rational_vector(rng, d, (-6, 6), (1, 3)), interior) for _ in range(3)]
    queries += [(-1 * g, interior) for g in c.generators]
    for n in (1, 2**80):
        assert sum(check_dual_rule(c, queries, n)) == len(queries)


class TestDualRuleDotPath:
    """The dual rule again with `qlinalg` reading the host as big-endian,
    so that every product comes back as a list of one idot per facet."""

    @pytest.fixture(autouse=True)
    def big_endian(self, monkeypatch):
        monkeypatch.setattr(qlinalg, "sys", SimpleNamespace(byteorder="big"))

    @settings(max_examples=60, deadline=None)
    @given(random_cones(), st.randoms(use_true_random=False))
    def test_random_cone_faces(self, c, rng):
        check_dual_rule_on_random_cone(c, rng)

    test_del_pezzo_faces = TestDualRule.test_del_pezzo_faces
    test_toric_faces = TestDualRule.test_toric_faces


def test_a_wrong_dual_facet_or_product_is_caught(monkeypatch):
    # a simplicial face, whose witness is read off its dual facets: a
    # planted dual facet that holds its generator, one that misses another
    # generator of the face, and a doubled f_j.g_j are each an internal
    # error.  Each plant meets the face on a new copy of the cone, as a
    # memoized face would not run `_duals` or the cell again.  The error
    # leaves no memo entry, and the next query answers as before.
    surf = del_pezzo(5)
    cone = surf.variety().eff_cone
    c = with_facets(cone)
    bundle = -1 * surf.canonical + c.generators[0] + 2 * c.generators[1]
    answer = c.min_a_with_point(surf.canonical, bundle)
    face = c.minimal_face(answer[1])
    inside = sorted(face.generators_in_face)
    assert len(inside) == face.span_dim > 1
    mask = sum([1 << j for j in inside])
    duals = c._duals(inside)
    assert list(c._faces) == [mask] and c._faces[mask][3] == duals
    # facets holding g_j (f.g_j = 0), and facets holding neither g_j nor
    # the face's other generator g_i (a wrong lam_j, still positive)
    j, i = inside
    dual = c._facets[duals[0]]  # the duals index the facets as stored after the query
    on_j = [e for e in range(len(c._facets)) if c._gen_facet_masks[j] >> e & 1]
    holding = c._gen_facet_masks[j] | c._gen_facet_masks[i]
    off_other = [e for e in range(len(c._facets)) if not holding >> e & 1]
    assert on_j and off_other
    dot = cones.idot
    plants = [
        (ConeQ, "_duals", lambda self, inside: (on_j[0],) + duals[1:], "misses its generator"),
        (ConeQ, "_duals", lambda self, inside: (off_other[0],) + duals[1:], "misses the boundary point"),
        (cones, "idot", lambda a, b: 2 * dot(a, b) if a is facet and b is generator else dot(a, b), "misses the boundary point"),
    ]
    for owner, name, plant, message in plants:
        c = with_facets(cone)
        # f_j.g_j for the first generator: its dual facet against it, and
        # no other product of that facet (its cell row may be the facet);
        # the query reorders this copy's own facet tuples
        facet, generator = c._facets[c._facets.index(dual)], c._gens_int[j]
        monkeypatch.setattr(owner, name, plant)
        with pytest.raises(InternalError, match=message) as exc:
            c.min_a_with_point(surf.canonical, bundle)
        assert cli._error_payload(exc.value)[0] == cli.EXIT_INTERNAL
        assert c._faces == {}
        monkeypatch.undo()
        assert c.min_a_with_point(surf.canonical, bundle) == answer
        assert c._faces[mask][3] == duals


def test_a_wrong_memoized_simplicial_cell_is_caught():
    # the one cell of a simplicial face, memoized by its first query, then
    # planted: an inverse doubled (a nonnegative witness that misses the
    # point) and one negated (a negative witness, a miss, which a simplicial
    # face cannot have).  Each is an internal error, exit 5, the face leaves
    # the memo, and the next query answers as before.
    surf = del_pezzo(5)
    c = with_facets(surf.variety().eff_cone)
    bundle = -1 * surf.canonical + c.generators[0] + 2 * c.generators[1]
    answer = c.min_a_with_point(surf.canonical, bundle)
    face = c._point[1]
    assert len(face.generators_in_face) == face.span_dim > 1
    mask = sum([1 << j for j in face.generators_in_face])
    for n, message in ((2, "misses the boundary point"), (-1, "dual facets of a simplicial face miss")):
        face, rows, [(basis, det, inverse, coords)], duals = c._faces[mask]
        c._faces[mask][2][0] = basis, det, [[n * x for x in r] for r in inverse], coords
        with pytest.raises(InternalError, match=message) as exc:
            c.min_a_with_point(surf.canonical, bundle)
        assert cli._error_payload(exc.value)[0] == cli.EXIT_INTERNAL
        assert mask not in c._faces
        assert c.min_a_with_point(surf.canonical, bundle) == answer
        assert c._faces[mask][2] == [(basis, det, inverse, coords)]


def test_a_wrong_face_lp_result_is_caught(monkeypatch):
    # a non-simplicial face: four generators spanning three dimensions, so
    # the face LP proposes the basis of its first point's cell.  Each plant
    # meets the face on a new copy of the cone, with no cells yet: an LP
    # that is not optimal, a basis whose cell gives a negative witness, and
    # a basis with a repeated column, whose inverse does not exist.  Each
    # is an internal error, and the next query answers as before.
    surf = del_pezzo(6)
    cone = surf.variety().eff_cone
    bundle = -1 * surf.canonical + cone.generators[0] + 2 * cone.generators[4]

    def fresh():
        return with_facets(cone)

    c = fresh()
    answer = c.min_a_with_point(surf.canonical, bundle)
    face = c.minimal_face(answer[1])
    inside = face.generator_vectors()
    assert len(inside) > face.span_dim
    # a basis of the face's span drawn from its generators on which the
    # point has a negative coefficient, by the `Fraction` oracle
    negative = next(
        b
        for b in itertools.combinations(range(len(inside)), face.span_dim)
        if min(combination_by_fractions([inside[j] for j in b], answer[1]) or [0]) < 0
    )
    solve = cones.solve_lp

    def infeasible(res):
        return LPResult(LPStatus.INFEASIBLE, None, None)

    def negative_basis(res):
        return res._replace(basis=negative)

    def repeated_column(res):
        return res._replace(basis=res.basis[:1] + res.basis[:-1])

    for plant, message in (
        (infeasible, "LP is infeasible"),
        (negative_basis, "witness is negative"),
        (repeated_column, "basis is singular"),
    ):
        c = fresh()  # built first: its constructor's strictness LP is not planted
        monkeypatch.setattr(cones, "solve_lp", lambda *args: plant(solve(*args)))
        with pytest.raises(InternalError, match=message) as exc:
            c.min_a_with_point(surf.canonical, bundle)
        assert cli._error_payload(exc.value)[0] == cli.EXIT_INTERNAL
        monkeypatch.undo()
        assert c.min_a_with_point(surf.canonical, bundle) == answer
    # the LP and the cell see only the face's pivot rows R; with one of
    # them dropped from the memo the cell's witness misses a row, which the
    # check of every coordinate row catches
    c = fresh()
    c.min_a_with_point(surf.canonical, bundle)
    mask = sum([1 << j for j in face.generators_in_face])
    entry = c._faces[mask]
    c._faces[mask] = entry[0], entry[1][:-1], [], None
    with pytest.raises(InternalError):
        c.min_a_with_point(surf.canonical, bundle)
    assert mask not in c._faces
    c._faces[mask] = entry
    assert c.min_a_with_point(surf.canonical, bundle) == answer


def test_a_wrong_cell_inverse_is_caught():
    # a cell kept from the face LP on a non-simplicial face, its inverse
    # doubled before reuse: the witness it gives is nonnegative but misses
    # the point, and that is an internal error, not a miss
    surf = del_pezzo(6)
    c = with_facets(surf.variety().eff_cone)
    bundle = -1 * surf.canonical + c.generators[0] + 2 * c.generators[4]
    answer = c.min_a_with_point(surf.canonical, bundle)
    assert c.min_a_with_point(surf.canonical, bundle) == answer
    face = c.minimal_face(answer[1])
    assert len(face.generators_in_face) > face.span_dim
    mask = sum([1 << j for j in face.generators_in_face])
    entry = c._faces[mask]
    _, rows, [(basis, det, inverse, coords)], _ = entry
    c._faces[mask] = face, rows, [(basis, det, [[2 * x for x in r] for r in inverse], coords)], None
    with pytest.raises(InternalError) as exc:
        c.min_a_with_point(surf.canonical, bundle)
    assert cli._error_payload(exc.value)[0] == cli.EXIT_INTERNAL
    assert mask not in c._faces
    c._faces[mask] = entry
    assert c.min_a_with_point(surf.canonical, bundle) == answer


def test_a_wrong_ray_lp_witness_is_caught(monkeypatch):
    # the cold route: with no facets, a and the witness are the ray LP's x,
    # checked in integers as the facet route's witness is.  One more on the
    # first generator's weight leaves a as it is but no longer recombines
    # to a*L + K.
    surf = del_pezzo(3)
    m = with_fresh_cone(surf)
    bundle = -1 * surf.canonical
    ray_lp = ConeQ._ray_lp

    def planted(self, base, direction):
        res = ray_lp(self, base, direction)
        return res._replace(x=(res.x[0] + 1,) + tuple(res.x[1:]))

    monkeypatch.setattr(ConeQ, "_ray_lp", planted)
    with pytest.raises(InternalError) as exc:
        fujita(m, bundle)
    assert cli._error_payload(exc.value)[0] == cli.EXIT_INTERNAL
    with pytest.raises(InternalError):
        cones.min_a_on_ray(m.eff_cone, m.canonical, bundle)
    assert m.eff_cone._facets is None
    monkeypatch.undo()
    assert fujita(m, bundle).a == 1


def test_a_negative_ray_lp_witness_is_caught(monkeypatch):
    # the cold route again: the ray LP's x plus a multiple of a kernel vector
    # of the generators still recombines to a*L + K with a unchanged, but the
    # kernel vector has entries of both signs on a strict cone, so one
    # weight goes negative
    surf = del_pezzo(3)
    m = with_fresh_cone(surf)
    bundle = -1 * surf.canonical
    gens = m.eff_cone.generators
    kernel = nullspace(MatQ([list(col) for col in zip(*gens)]))[0]
    k = len(gens)
    ray_lp = ConeQ._ray_lp

    def planted(self, base, direction):
        res = ray_lp(self, base, direction)
        n = (1 + max(res.x[:k])) / min([abs(v) for v in kernel if v])
        lam = tuple([x + n * v for x, v in zip(res.x[:k], kernel)])
        return res._replace(x=lam + tuple(res.x[k:]))

    monkeypatch.setattr(ConeQ, "_ray_lp", planted)
    with pytest.raises(InternalError) as exc:
        fujita(m, bundle)
    assert cli._error_payload(exc.value)[0] == cli.EXIT_INTERNAL
    with pytest.raises(InternalError):
        cones.min_a_on_ray(m.eff_cone, m.canonical, bundle)
    assert m.eff_cone._facets is None
    monkeypatch.undo()
    assert fujita(m, bundle).a == 1


@settings(max_examples=60, deadline=None)
@given(random_cones(), st.randoms(use_true_random=False))
def test_ray_lp_witness_recombines_on_random_cones(c, rng):
    # the cold route's checked witness: nonnegative, recombining to the
    # boundary point, with the a of the facet route on a copy with facets
    d = c.ambient_dim
    interior = VecQ.zero(d)
    for g in c.generators:
        interior = interior + Fraction(rng.randint(1, 3), rng.randint(1, 2)) * g
    warm = with_facets(c)
    for _ in range(3):
        base = random_rational_vector(rng, d, (-6, 6), (1, 3))
        a, witness = c.min_a_with_witness(base, interior)
        assert len(witness) == len(c.generators)
        assert all(w >= 0 for w in witness)
        combo = VecQ.zero(d)
        for w, g in zip(witness, c.generators):
            combo = combo + w * g
        assert combo == base + a * interior
        assert warm.min_a_with_point(base, interior)[0] == a
