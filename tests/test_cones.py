import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from conftest import random_rational_vector, vec
from oracles import (
    brute_force_facets,
    fm_facets,
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
        masks = c.facet_generator_masks()
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

    def test_zero_vector(self):
        c = FIXTURE_CONES["orthant2"]
        assert c.contains(VecQ.zero(2)) is Containment.BOUNDARY

    def test_halfplane_interior(self):
        c = ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)])
        assert c.contains(vec(3, 1)) is Containment.INSIDE
        assert c.contains(vec(3, 0)) is Containment.BOUNDARY
        assert c.contains(vec(0, -1)) is Containment.OUTSIDE


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
        assert all(fresh.facets is first for _ in range(8))
        assert runs == [fresh]
        assert len(first) == 99


class TestStrictness:
    def test_orthant_strict(self):
        assert is_strict(FIXTURE_CONES["orthant2"])

    def test_line_not_strict(self):
        c = ConeQ([vec(1, 0), vec(-1, 0)])
        assert not is_strict(c)
        assert c.lineality_dim == 1

    def test_whole_plane(self):
        c = ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])
        assert c.lineality_dim == 2

    def test_halfplane_lineality(self):
        c = ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)])
        assert c.lineality_dim == 1

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
            masks = c.facet_generator_masks()
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
        # the line through (1, 0, 0) plus two rays off it
        c = ConeQ([vec(1, 0, 0), vec(-1, 0, 0), vec(0, 1, 0), vec(1, 1, 1)])
        assert c.lineality_dim == 1
