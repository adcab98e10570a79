import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fujita import cones, qlinalg
from fujita.cones import (
    ConeQ,
    Containment,
    is_strict,
    min_a_on_ray,
    minimal_face,
    positive_support,
)
from fujita.delpezzo import del_pezzo, quadric_surface
from fujita.errors import Infeasible, NonStrictCone, OutsideCone, UnboundedBelow
from fujita.qlinalg import VecQ, span_dim
from fujita.toric import variety_model
from conftest import counting, dots_taken, random_rational_vector, vec
from oracles import (
    brute_force_facets,
    contains_by_facet_loop,
    contains_by_lp,
    facet_generator_masks_by_dot,
    facets_of_degenerate_by_reduction,
    fm_facets,
    minimal_face_by_facet_loop,
    minimal_face_generators_lp,
    positive_support_by_basis_enumeration,
)


def int_facets(c):
    return sorted(tuple(int(x) for x in f) for f in c.facets)


def dp6_cone():
    return del_pezzo(6).variety().eff_cone


def bl1p2_cone():
    return ConeQ([vec(0, 1), vec(1, -1)])


FIXTURE_CONES = {
    "orthant2": ConeQ([vec(1, 0), vec(0, 1)]),
    "orthant3": ConeQ([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]),
    "bl1p2": bl1p2_cone(),
    "quadric": quadric_surface().variety().eff_cone,
    "dp7": del_pezzo(7).variety().eff_cone,
    "dp6": dp6_cone(),
    "dp5": del_pezzo(5).variety().eff_cone,
    "dp4": del_pezzo(4).variety().eff_cone,
    "dp3": del_pezzo(3).variety().eff_cone,
}


class TestDualize:
    def test_first_orthant(self):
        assert int_facets(ConeQ([vec(1, 0), vec(0, 1)])) == [(0, 1), (1, 0)]

    def test_redundant_generator(self):
        assert int_facets(ConeQ([vec(1, 0), vec(1, 1), vec(0, 1)])) == [(0, 1), (1, 0)]

    def test_dp6_matches_brute_force(self):
        c = dp6_cone()
        gens = [tuple(int(x) for x in g) for g in c.generators]
        expected = brute_force_facets(gens, 4, bound=3)
        assert set(map(tuple, int_facets(c))) == expected

    def test_dp6_generator_saturation(self):
        # every generator saturates at least dim(cone) - 1 = 3 facets
        c = dp6_cone()
        c.facets
        masks = c._facet_gen_masks
        for j in range(len(c.generators)):
            assert sum(1 for m in masks if m >> j & 1) >= 3

    def test_facet_tightness_invariant(self):
        # each facet is tight on >= dim(cone) - 1 independent generators
        for name, c in FIXTURE_CONES.items():
            gens = c.generators
            target = c.dim() - 1
            for f in c.facets:
                tight = [g for g in gens if f.dot(g) == 0]
                assert span_dim(tight) >= target, name

    @pytest.mark.parametrize("name", ["orthant2", "orthant3", "bl1p2", "quadric", "dp7", "dp6", "dp5"])
    def test_fourier_motzkin_agreement(self, name):
        # independent FM oracle for dim <= 5
        c = FIXTURE_CONES[name]
        gens = [tuple(int(x) for x in g) for g in c.generators]
        assert set(map(tuple, int_facets(c))) == fm_facets(gens, c.ambient_dim)

    def test_degenerate_cone_equations(self):
        c = ConeQ([vec(1, 0), vec(-1, 0)])
        assert int_facets(c) == [(0, -1), (0, 1)]

    def test_single_ray_in_plane(self):
        c = ConeQ([vec(2, 4)])
        facets = int_facets(c)
        # one inequality along the ray plus the +/- equation pair
        assert len(facets) == 3
        for f in facets:
            assert sum(a * b for a, b in zip(f, (1, 2))) >= 0

    @pytest.mark.parametrize("strict", [True, False])
    def test_lower_dimensional_matches_reduction_route(self, strict):
        # a random basis of an r-dimensional subspace of Q^d; the generators
        # are combinations of it, and a non-strict cone also gets the
        # negative of its first generator
        rng = random.Random(4909 + strict)
        checked = 0
        while checked < 60:
            d = rng.randint(2, 5)
            r = rng.randint(1, d - 1)
            basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]
            lo = 0 if strict else -2
            gens = []
            for _ in range(rng.randint(1, 6)):
                coefs = [rng.randint(lo, 3) for _ in range(r)]
                gens.append([sum(c * b[t] for c, b in zip(coefs, basis)) for t in range(d)])
            if not strict:
                gens.append([-x for x in gens[0]])
            c = ConeQ(gens, ambient_dim=d)
            if not c.generators or c.dim() != r or c.is_strict() != strict:
                continue
            checked += 1
            expected = facets_of_degenerate_by_reduction(c)
            assert [tuple(int(x) for x in f) for f in c.facets] == expected, gens

    def test_duality_round_trip(self):
        # up to rank 8 / 56 generators
        for name in ["orthant2", "orthant3", "bl1p2", "quadric", "dp7", "dp6", "dp5", "dp4", "dp3"]:
            c = FIXTURE_CONES[name]
            back = ConeQ(c.facets, ambient_dim=c.ambient_dim)
            assert sorted(tuple(int(x) for x in g) for g in back.facets) == sorted(
                tuple(int(x) for x in g) for g in c.generators
            ), name

    def test_duality_round_trip_rank8(self):
        c = del_pezzo(2).variety().eff_cone
        assert len(c.facets) == 702
        back = ConeQ(c.facets, ambient_dim=8)
        assert sorted(tuple(int(x) for x in g) for g in back.facets) == sorted(
            tuple(int(x) for x in g) for g in c.generators
        )


class TestContains:
    def test_orthant_examples(self):
        c = FIXTURE_CONES["orthant2"]
        assert c.contains(vec(1, 1)) is Containment.INSIDE
        assert c.contains(vec(1, 0)) is Containment.BOUNDARY
        assert c.contains(vec(-1, 2)) is Containment.OUTSIDE

    def test_facet_path_agrees_with_lp_oracle(self):
        # 1000 seeded random rational points per fixture cone
        for name, c in FIXTURE_CONES.items():
            rng = random.Random(hash(name) & 0xFFFF)
            fresh = ConeQ(c.generators, ambient_dim=c.ambient_dim)
            fresh.facets  # force the facet route
            for _ in range(1000):
                v = random_rational_vector(rng, c.ambient_dim, (-6, 6), (1, 4))
                by_facets = fresh.contains(v)
                by_lp = fresh.express_nonneg(v)
                assert (by_lp is None) == (by_facets is Containment.OUTSIDE), name

    def test_lp_route_matches_facet_route(self):
        for name, c in FIXTURE_CONES.items():
            rng = random.Random(0xBEE + hash(name) % 1000)
            lazy = ConeQ(c.generators, ambient_dim=c.ambient_dim)  # no facets yet
            eager = ConeQ(c.generators, ambient_dim=c.ambient_dim)
            eager.facets
            for _ in range(40):
                v = random_rational_vector(rng, c.ambient_dim, (-5, 5), (1, 3))
                assert lazy.contains(v) is eager.contains(v), name

    def test_ray_lp_matches_bounded_lp_oracle(self):
        # strict and non-strict, full and lower-dimensional cones in
        # dimensions 1-4, asked before their facets exist; the vectors are
        # random points, generators, positive combinations and zero
        rng = random.Random(1307)
        seen = {}
        for _ in range(400):
            d = rng.randint(1, 4)
            r = rng.randint(1, d)
            basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(r)]
            lo = rng.choice([0, -1])
            gens = []
            for _ in range(rng.randint(1, 5)):
                coefs = [rng.randint(lo, 3) for _ in range(r)]
                gens.append([sum(c * b[t] for c, b in zip(coefs, basis)) for t in range(d)])
            c = ConeQ(gens, ambient_dim=d)
            if not c.generators:
                continue
            kind = (c.is_strict(), c.is_full_dimensional())
            probes = [VecQ.zero(d), c.generators[0]]
            probes += [random_rational_vector(rng, d, (-4, 4), (1, 3)) for _ in range(3)]
            for _ in range(3):
                weights = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in gens]
                probes.append(sum((w * g for w, g in zip(weights, c.generators)), VecQ.zero(d)))
            for v in probes:
                got = c.contains(v)
                assert got is contains_by_lp(c, v), (gens, v)
                seen.setdefault(kind, set()).add(got)
            assert c._facets_int is None
        assert set(seen) == {(s, f) for s in (True, False) for f in (True, False)}
        assert set().union(*seen.values()) == set(Containment)

    def test_zero_vector(self):
        c = FIXTURE_CONES["orthant2"]
        assert c.contains(VecQ.zero(2)) is Containment.BOUNDARY

    def test_halfplane_interior(self):
        c = ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)])
        assert c.contains(vec(3, 1)) is Containment.INSIDE
        assert c.contains(vec(3, 0)) is Containment.BOUNDARY
        assert c.contains(vec(0, -1)) is Containment.OUTSIDE

    @pytest.mark.parametrize(
        "gens",
        [[(1,), (-1,)], [(1, 0), (-1, 0), (0, 1), (0, -1)], [(1, 0), (0, 1), (-1, -1)]],
        ids=["line", "plus-minus-axes", "three-rays"],
    )
    def test_whole_space_is_interior(self, gens):
        # no facet bounds the whole space, so every point is interior: by
        # the ray LP, and again once the (empty) facet list exists
        c = ConeQ([VecQ(g) for g in gens])
        probes = [VecQ.zero(c.ambient_dim), VecQ([3, -2][: c.ambient_dim])]
        for v in probes:
            assert c.contains(v) is Containment.INSIDE
        assert c.facets == ()
        for v in probes:
            assert c.contains(v) is Containment.INSIDE


class TestFacetMemo:
    def test_facets_memoized_once(self, monkeypatch):
        # every reader after the first sees the one computed dual description
        c = del_pezzo(3).variety().eff_cone
        fresh = ConeQ(c.generators, ambient_dim=c.ambient_dim)
        runs = []
        compute = ConeQ._compute_facets

        def counted(self):
            runs.append(self)
            compute(self)

        monkeypatch.setattr(ConeQ, "_compute_facets", counted)
        first = fresh.facets
        anticanonical = vec(3, -1, -1, -1, -1, -1, -1)
        assert fresh.contains(anticanonical) is Containment.INSIDE
        fresh.minimal_face(fresh.generators[0])
        assert all(fresh.facets == first for _ in range(8))
        assert runs == [fresh]
        assert len(first) == 99


def face_outcome(face_of, c, v):
    """The minimal face of v, or the class of the error it raises."""
    try:
        return face_of(c, v)
    except (OutsideCone, NonStrictCone) as exc:
        return type(exc)


def check_packed_against_loop(c, v, seen):
    """contains and minimal_face on a cone with facets against the per-facet
    loops; records each outcome in `seen`."""
    got = c.contains(v)
    assert got is contains_by_facet_loop(c, v), v
    face = face_outcome(ConeQ.minimal_face, c, v)
    assert face == face_outcome(minimal_face_by_facet_loop, c, v), v
    seen.update([got, face if isinstance(face, type) else "face"])


def big_probes(c, v, rng):
    """v scaled past 2^64 and 2^200, plus a small offset, so that huge slots
    sit next to small ones; and the largest facet row at the edge of the
    64-bit slot, where s_j = +-l1 * max|v_t| crosses 2^63."""
    out = []
    for n in (2**64 + 1, 2**200 + 3):
        out.append(n * v)
        out.append(n * v + random_rational_vector(rng, c.ambient_dim, (-2, 2), (1, 2)))
    if c.facets:
        f = max(c._facets_int, key=lambda f: sum(map(abs, f)))
        l1 = sum(map(abs, f))
        for m in (-(-(2**63) // l1), 2**63 // l1):
            edge = VecQ([m * ((x > 0) - (x < 0)) for x in f])
            out += [edge, -edge]
    return out


@st.composite
def random_cones(draw):
    """Cones in dimensions 1-5 spanned by combinations of r <= d basis
    vectors: full-dimensional or lower-dimensional (facets with +/-
    equation pairs), strict or not."""
    d = draw(st.integers(1, 5))
    r = draw(st.integers(1, d))
    ints = st.integers(-3, 3)
    basis = [draw(st.lists(ints, min_size=d, max_size=d)) for _ in range(r)]
    coefs = st.lists(st.integers(draw(st.sampled_from([0, 0, -1])), 3), min_size=r, max_size=r)
    gens = []
    for cs in draw(st.lists(coefs, min_size=1, max_size=6)):
        gens.append([sum(k * b[t] for k, b in zip(cs, basis)) for t in range(d)])
    return ConeQ(gens, ambient_dim=d)


class TestIncidenceMasks:
    """The facet-generator incidence read off DD's zero sets against one
    integer dot per (facet, generator) pair."""

    @settings(max_examples=150, deadline=None)
    @given(random_cones())
    def test_random_cones_match_dot_loop(self, c):
        c.facets
        assert c._facet_gen_masks == facet_generator_masks_by_dot(c)

    def test_del_pezzo_toric_and_lower_dimensional_cones(self, toric_fans):
        cases = [del_pezzo(d).variety().eff_cone for d in range(2, 8)]
        cases += [variety_model(f).eff_cone for f in toric_fans.values()]
        # the +/- equation rows of a lower-dimensional cone vanish on every
        # generator
        cases += [
            ConeQ([vec(2, -1)]),
            ConeQ([vec(1, 0, 0), vec(1, 1, 0), vec(2, 1, 0)]),
            ConeQ([vec(1, 2, 3, 0), vec(0, 1, 1, 0), vec(1, 3, 4, 0), vec(1, 0, 1, 1)]),
        ]
        for c in cases:
            c.facets
            assert c._facet_gen_masks == facet_generator_masks_by_dot(c), c
        assert {c.is_full_dimensional() for c in cases} == {True, False}


def check_random_cone(c, rng):
    """Small probes and their huge multiples on c against the per-facet
    loops.  Small probes take the one packed product on a little-endian
    host; probes past 2^64 take one idot per facet."""
    c.facets
    d = c.ambient_dim
    probes = [VecQ.zero(d)] + list(c.generators)
    probes += [random_rational_vector(rng, d, (-4, 4), (1, 3)) for _ in range(4)]
    if c.generators:
        weights = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in c.generators]
        probes.append(sum((w * g for w, g in zip(weights, c.generators)), VecQ.zero(d)))
    small = list(probes)
    for v in small[1:]:
        probes += big_probes(c, v, rng)
    seen = set()
    for v in probes:
        check_packed_against_loop(c, v, seen)
    if c.facets:
        per_facet = len(c._facets_int)
        small_cost = 1 if cones.sys.byteorder == "little" else per_facet
        for v in small:
            assert dots_taken(c, v) == small_cost, v
            if not v.is_zero():
                for n in (2**64 + 1, 2**200 + 3):
                    assert dots_taken(c, n * v) == per_facet, v


class TestPackedSigns:
    @settings(max_examples=150, deadline=None)
    @given(random_cones(), st.randoms(use_true_random=False))
    def test_random_cones_match_facet_loop(self, c, rng):
        check_random_cone(c, rng)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_del_pezzo_classes_match_facet_loop(self, degree):
        # 500 seeded classes: box points, Fraction points, sums of a few
        # generators (often on the boundary) and their huge multiples
        eff = del_pezzo(degree).variety().eff_cone
        c = ConeQ(eff.generators, ambient_dim=eff.ambient_dim)
        c.facets
        rng = random.Random(0xFACE + degree)
        gens = list(c.generators)
        seen = set()
        for i in range(500):
            kind = i % 4
            if kind == 0:
                v = VecQ([rng.randint(-5, 10) for _ in range(c.ambient_dim)])
            elif kind == 1:
                v = random_rational_vector(rng, c.ambient_dim, (-6, 6), (1, 4))
            else:
                v = VecQ.zero(c.ambient_dim)
                for j in rng.sample(range(len(gens)), rng.randint(1, 4)):
                    v = v + rng.randint(1, 3) * gens[j]
                if kind == 3:
                    v = (2**64 + rng.randint(0, 9)) * v
            check_packed_against_loop(c, v, seen)
        assert seen == {*Containment, "face", OutsideCone}

    def test_width_boundary(self):
        # s = +-2^63 does not fit a 64-bit slot; one bit less carries into
        # the next slot (or out of the last one) and flips the sign read.
        # The last cone has a facet entry past 2^63, which no slot can hold.
        seen = set()
        for c in (
            ConeQ([vec(1)]),
            ConeQ([vec(1, 0), vec(1, 1)]),
            ConeQ([vec(1, 2), vec(0, 1)]),
            ConeQ([vec(2**64, 1), vec(0, 1)]),
        ):
            c.facets
            for e in (62, 63, 64):
                for x in (2**e - 1, 2**e, 2**e + 1):
                    for v in (vec(x), vec(x, 0), vec(x, x), vec(x, -x), vec(0, x), vec(x, 1)):
                        if v.dim == c.ambient_dim:
                            check_packed_against_loop(c, v, seen)
                            check_packed_against_loop(c, -v, seen)
        assert seen == {*Containment, "face", OutsideCone}

    def test_one_product_per_question(self, monkeypatch):
        eff = del_pezzo(2).variety().eff_cone
        c = ConeQ(eff.generators, ambient_dim=eff.ambient_dim)
        assert len(c.facets) == 702
        c.is_strict()  # the one memoized strictness LP of minimal_face
        boundary = c.generators[0] + c.generators[1]
        inside = vec(3, -1, -1, -1, -1, -1, -1, -1)
        dots = [counting(monkeypatch, owner, "idot") for owner in (qlinalg, cones)]
        lps = counting(monkeypatch, cones, "solve_lp")
        for v in (boundary, inside, -inside):
            for ask in (c.contains, lambda v: face_outcome(ConeQ.minimal_face, c, v)):
                for calls in dots:
                    calls.clear()
                ask(v)
                assert sum(map(len, dots)) == 1
        assert lps == []

    def test_one_packing_per_width(self):
        # one 64-bit packing serves every small probe; a probe whose
        # product needs more than 63 bits takes one idot per facet
        c = ConeQ(del_pezzo(3).variety().eff_cone.generators, ambient_dim=7)
        v = vec(3, -1, -1, -1, -1, -1, -1)
        for _ in range(2):
            for n in (1, 2**80, 2**200):
                assert c.contains(n * v) is Containment.INSIDE
                assert c.minimal_face(n * v).span_dim == 7
                assert dots_taken(c, n * v) == (1 if n == 1 else len(c._facets_int))


class TestDotPath:
    """The packed-sign cases again with `cones` reading the host as
    big-endian, so that every product, small ones too, takes one idot per
    facet."""

    @pytest.fixture(autouse=True)
    def big_endian(self, monkeypatch):
        monkeypatch.setattr(cones, "sys", SimpleNamespace(byteorder="big"))

    @settings(max_examples=150, deadline=None)
    @given(random_cones(), st.randoms(use_true_random=False))
    def test_random_cones_match_facet_loop(self, c, rng):
        check_random_cone(c, rng)

    test_del_pezzo_classes_match_facet_loop = TestPackedSigns.test_del_pezzo_classes_match_facet_loop
    test_width_boundary = TestPackedSigns.test_width_boundary


class TestStrictness:
    def test_orthant_strict(self):
        assert is_strict(FIXTURE_CONES["orthant2"])

    def test_line_not_strict(self):
        c = ConeQ([vec(1, 0), vec(-1, 0)])
        assert not is_strict(c)

    def test_whole_plane(self):
        c = ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])
        assert not c.is_strict()

    def test_halfplane_lineality(self):
        c = ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)])
        assert not c.is_strict()

    def test_strictness_is_one_memoized_lp(self, monkeypatch):
        calls = counting(monkeypatch, cones, "solve_lp")
        for gens, strict in (([vec(1, 0), vec(1, 1)], True), ([vec(1, 0), vec(-1, 0)], False)):
            c = ConeQ(gens)
            assert [c.is_strict() for _ in range(3)] == [strict] * 3
        assert len(calls) == 2

    def test_del_pezzo_cones_strict(self):
        for d in range(1, 10):
            assert is_strict(del_pezzo(d).variety().eff_cone)


class TestMinimalFace:
    def test_zero_face(self):
        c = FIXTURE_CONES["orthant2"]
        f = minimal_face(c, VecQ.zero(2))
        assert f.span_dim == 0 and f.generators_in_face == frozenset()

    def test_ray_face(self):
        c = FIXTURE_CONES["orthant2"]
        f = minimal_face(c, vec(3, 0))
        assert f.span_dim == 1
        assert f.generator_vectors() == (vec(1, 0),)

    def test_bl1p2_boundary_ray(self):
        c = bl1p2_cone()
        f = minimal_face(c, vec(1, -1))
        assert f.span_dim == 1
        assert f.generator_vectors() == (vec(1, -1),)
        # codimension 1 in the rank-2 lattice
        assert c.ambient_dim - f.span_dim == 1

    def test_interior_gives_whole_cone(self):
        c = dp6_cone()
        f = minimal_face(c, vec(3, -1, -1, -1))
        assert f.span_dim == c.dim()

    def test_interior_face_spans_the_cone_dimension(self, toric_fans):
        # the whole-cone face takes its span from `dim()`; Bareiss on the
        # generators is the reference, and the plane in Q^3 keeps dim()
        # apart from the ambient dimension
        cones_ = [del_pezzo(d).variety().eff_cone for d in range(2, 8)]
        cones_ += [variety_model(fan).eff_cone for fan in toric_fans.values()]
        cones_.append(ConeQ([vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0)]))
        for c in cones_:
            total = VecQ.zero(c.ambient_dim)
            for g in c.generators:
                total = total + g
            f = c.minimal_face(total)
            assert f.generators_in_face == frozenset(range(len(c.generators))), c
            assert f.span_dim == c.dim() == span_dim(c.generators), c

    def test_outside_rejected(self):
        with pytest.raises(OutsideCone):
            minimal_face(FIXTURE_CONES["orthant2"], vec(-1, 0))

    def test_non_strict_rejected(self):
        with pytest.raises(NonStrictCone):
            minimal_face(ConeQ([vec(1, 0), vec(-1, 0)]), vec(1, 0))

    def test_face_contains_vector(self):
        # span of the face generators contains v
        for name in ["dp6", "dp5", "dp4"]:
            c = FIXTURE_CONES[name]
            rng = random.Random(99)
            gens = list(c.generators)
            for _ in range(15):
                picks = rng.sample(range(len(gens)), rng.randint(1, 3))
                v = VecQ.zero(c.ambient_dim)
                for i in picks:
                    v = v + rng.randint(1, 4) * gens[i]
                face = c.minimal_face(v)
                vecs = list(face.generator_vectors())
                assert span_dim(vecs) == span_dim(vecs + [v]), name

    def test_minimality_by_facet_removal_on_simple_cones(self):
        # removing any active facet strictly enlarges the cut; valid on
        # cones/points with simple incidence (see also the LP oracle below,
        # which covers the non-simple cones)
        cases = [
            (FIXTURE_CONES["orthant3"], vec(2, 0, 0)),
            (FIXTURE_CONES["orthant3"], vec(1, 1, 0)),
            (bl1p2_cone(), vec(1, -1)),
            (dp6_cone(), vec(0, 1, 0, 0)),
            (dp6_cone(), vec(1, -1, -1, 0)),
        ]
        for c, v in cases:
            face = c.minimal_face(v)
            masks = c._facet_gen_masks
            all_gens = (1 << len(c.generators)) - 1
            active = [i for i, f in enumerate(c.facets) if f.dot(v) == 0]
            for dropped in active:
                gmask = all_gens
                for i in active:
                    if i != dropped:
                        gmask &= masks[i]
                enlarged = [c.generators[j] for j in range(len(c.generators)) if gmask >> j & 1]
                assert span_dim(enlarged) > face.span_dim

    def test_against_lp_support_oracle(self):
        for name in ["orthant3", "bl1p2", "quadric", "dp6", "dp5", "dp4"]:
            c = FIXTURE_CONES[name]
            rng = random.Random(0xACE + len(name))
            gens = list(c.generators)
            for _ in range(12):
                picks = rng.sample(range(len(gens)), rng.randint(1, min(3, len(gens))))
                v = VecQ.zero(c.ambient_dim)
                for i in picks:
                    v = v + rng.randint(1, 3) * gens[i]
                face = c.minimal_face(v)
                assert face.generators_in_face == minimal_face_generators_lp(c, v), name


class TestMinAOnRay:
    def test_symmetric_diagonal(self):
        assert min_a_on_ray(FIXTURE_CONES["orthant2"], vec(-3, -3), vec(1, 1)) == 3

    def test_plane_adjunction(self):
        c = ConeQ([vec(1)])
        assert min_a_on_ray(c, vec(-3), vec(1)) == 3

    def test_bl1p2_two_facets(self):
        a = min_a_on_ray(bl1p2_cone(), vec(-3, 1), vec(2, -1))
        assert a == 2

    def test_fractional_answer(self):
        # boundary reached at a rational, non-integer parameter
        a = min_a_on_ray(FIXTURE_CONES["orthant2"], vec(-1, -3), vec(2, 5))
        assert a == Fraction(3, 5)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            min_a_on_ray(FIXTURE_CONES["orthant2"], vec(0, -1), vec(-1, 0))

    def test_unbounded(self):
        # direction inside a non-strict cone going both ways
        c = ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)])
        with pytest.raises(UnboundedBelow):
            min_a_on_ray(c, vec(0, 1), vec(1, 0))

    @pytest.mark.parametrize(
        "gens, base, direction",
        [([(1,), (-1,)], (-1,), (1,)), ([(1, 0), (0, 1), (-1, -1)], (2, -5), (0, 1))],
        ids=["line", "three-rays"],
    )
    def test_whole_space_unbounded_on_both_routes(self, gens, base, direction):
        # no finite least a in the whole space: by the ray LP, and again
        # once the (empty) facet list exists
        for warm in (False, True):
            c = ConeQ([VecQ(g) for g in gens])
            if warm:
                assert c.facets == ()
            with pytest.raises(UnboundedBelow):
                c.min_a_with_face(VecQ(base), VecQ(direction))

    def test_boundary_probe_property(self):
        eps = Fraction(1, 1000)
        cases = [
            (FIXTURE_CONES["orthant2"], vec(-3, -3), vec(1, 1)),
            (bl1p2_cone(), vec(-3, 1), vec(2, -1)),
            (dp6_cone(), vec(-3, 1, 1, 1), vec(3, -1, -1, -1)),
            (dp6_cone(), vec(-3, 1, 1, 1), vec(3, 0, -1, -1)),
        ]
        for c, base, direction in cases:
            a = min_a_on_ray(c, base, direction)
            assert c.contains(base + a * direction) is Containment.BOUNDARY
            assert c.contains(base + (a - eps) * direction) is Containment.OUTSIDE

    def test_witness_reconstructs_boundary_point(self):
        c = dp6_cone()
        base, direction = vec(-3, 1, 1, 1), vec(3, 0, -1, -1)
        a, witness = c.min_a_with_witness(base, direction)
        point = VecQ.zero(4)
        for lam, g in zip(witness, c.generators):
            point = point + lam * g
        assert point == base + a * direction


@st.composite
def small_systems(draw):
    """{x >= 0 : A x = b} with tiny integer entries, biased to degeneracy:
    scaled duplicate rows, zero right-hand sides, and columns that repeat
    or negate another one (lines and implicit equalities)."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        k = draw(st.sampled_from([1, -1, 2]))
        rows[-1] = [k * v for v in rows[0]]
        b[-1] = k * b[0]
    if n > 1 and draw(st.booleans()):
        k = draw(st.sampled_from([1, -1]))
        for r in rows:
            r[-1] = k * r[0]
    if draw(st.booleans()):
        b = [0] * m
    measured = sorted(draw(st.sets(st.integers(0, n - 1))))
    return rows, b, measured


class TestPositiveSupport:
    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    def test_matches_basis_enumeration(self, system):
        a, b, measured = system
        expected = positive_support_by_basis_enumeration(a, b, measured)
        found = positive_support(a, b, measured)
        if expected is None:
            assert found is None
            return
        support, x = found
        assert support == expected
        assert all(v >= 0 for v in x)
        assert all(sum(r[j] * x[j] for j in range(len(x))) == bv for r, bv in zip(a, b))
        assert {i for i in measured if x[i] > 0} == support

    def test_forced_large_coefficient(self):
        # x0 = 5 on every feasible point: t0 is capped at 1, w0 carries the rest
        support, x = positive_support([[1, 0], [0, 1]], [5, 0], [0, 1])
        assert support == {0}
        assert x == (5, 0)

    def test_infeasible(self):
        assert positive_support([[1, 1]], [-1], [0, 1]) is None

    def test_non_strict_lineality_support(self):
        # the line through (1, 0, 0) plus two rays off it: the generators in
        # some vanishing nonnegative combination span the lineality space
        gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 1)]
        assert not ConeQ(gens).is_strict()
        a_rows = [[g[t] for g in gens] for t in range(3)]
        support, _ = positive_support(a_rows, [0, 0, 0], range(4))
        assert support == {0, 1}
