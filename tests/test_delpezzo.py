from fractions import Fraction

import pytest

from fujita.cones import ConeQ, Containment
from fujita.delpezzo import (
    DelPezzoModel,
    SurfaceCase,
    curve_fujita,
    del_pezzo,
    enumerate_negative_curves,
    quadric_surface,
    surface_b,
    surface_balanced,
    negative_classes,
    weak_balance_curve_check,
    zariski_decompose,
    zariski_for_variety,
)
from fujita.errors import (
    CurveInExcludedLocus,
    DegreeOutOfRange,
    NonPositiveDegree,
    NotPseudoEffective,
)
from fujita.invariants import VarietyModel, b_invariant, fujita, is_rigid_class
from fujita.qlinalg import MatQ, VecQ, inertia
from conftest import random_rational_vector, sample_big_classes, vec
from oracles import minus_one_curves_by_multisets, zariski_by_fractions

CURVE_COUNTS = {7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}


class TestEnumeration:
    def test_regression_counts(self):
        for d, count in CURVE_COUNTS.items():
            assert len(enumerate_negative_curves(d)) == count

    def test_degree6_explicit(self):
        got = {tuple(int(x) for x in c) for c in enumerate_negative_curves(6)}
        assert got == {
            (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1),
        }

    def test_count_stable_under_bound_increase(self):
        for d in CURVE_COUNTS:
            assert len(enumerate_negative_curves(d, search_bound=8)) == CURVE_COUNTS[d]

    @pytest.mark.parametrize("search_bound", [6, 8])
    def test_matches_multiset_oracle(self, search_bound):
        for d in range(1, 8):
            got = {
                tuple(int(x) for x in c)
                for c in enumerate_negative_curves(d, search_bound=search_bound)
            }
            assert got == minus_one_curves_by_multisets(d, search_bound)

    def test_numerical_identities(self):
        for d in (6, 3, 1):
            m = del_pezzo(d)
            for c in m.negative_curves:
                assert m.pair(c, c) == -1
                assert m.pair(-1 * m.canonical, c) == 1

    def test_degree_out_of_range(self):
        with pytest.raises(DegreeOutOfRange):
            enumerate_negative_curves(8)
        with pytest.raises(DegreeOutOfRange):
            DelPezzoModel(0)

    def test_canonical_self_intersection_is_degree(self):
        for d in range(1, 10):
            m = del_pezzo(d)
            assert m.pair(m.canonical, m.canonical) == d
        q = quadric_surface()
        assert q.pair(q.canonical, q.canonical) == 8


class TestZariski:
    def test_exceptional_curve(self):
        m = del_pezzo(8)
        z = zariski_decompose(m, vec(0, 1))
        assert z.positive.is_zero()
        assert z.negative_support == ((vec(0, 1), Fraction(1)),)

    def test_nef_class(self):
        m = del_pezzo(8)
        z = zariski_decompose(m, vec(1, -1))
        assert z.positive == vec(1, -1) and not z.negative_support

    def test_dp6_mixed_class(self):
        m = del_pezzo(6)
        d = -1 * m.canonical + 2 * vec(0, 1, 0, 0)
        z = zariski_decompose(m, d)
        assert z.positive + z.negative == d
        for c, mult in z.negative_support:
            assert mult > 0
            assert m.pair(z.positive, c) == 0

    def test_not_pseudo_effective(self):
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(del_pezzo(8), vec(-1, 0))

    def test_invariant_identities_random(self, rng):
        # exact identities on seeded pseudo-effective classes
        for degree in (7, 6, 5, 4):
            m = del_pezzo(degree)
            cone = m.variety().eff_cone
            checked = 0
            while checked < 25:
                d = VecQ([rng.randint(-3, 8) for _ in range(m.rank)])
                if cone.contains(d) is Containment.OUTSIDE:
                    continue
                checked += 1
                z = zariski_decompose(m, d)
                assert z.positive + z.negative == d
                for c in m.negative_curves:
                    assert m.pair(z.positive, c) >= 0
                support = [c for c, _ in z.negative_support]
                for c, mult in z.negative_support:
                    assert mult > 0
                    assert m.pair(z.positive, c) == 0
                if support:
                    gram = MatQ([[m.pair(a, b) for b in support] for a in support])
                    assert inertia(gram) == (0, len(support), 0)


def _raw_surfaces():
    """Lattice-surface models with no del Pezzo provenance, so Zariski goes
    through their negative generators: the quadric with its form halved, a
    degree-6 surface given by its (-1)-curves with its form times 2/3, and
    the Hirzebruch surface F_2 in the basis (fiber, negative section)."""
    quad = quadric_surface()
    dp6 = del_pezzo(6)
    return [
        VarietyModel(
            "raw-half-quadric", 2, quad.canonical, ConeQ([vec(1, 0), vec(0, 1)]),
            intersection_form=MatQ([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]),
        ),
        VarietyModel(
            "raw-dp6", 4, dp6.canonical, ConeQ(dp6.negative_curves),
            intersection_form=MatQ(
                [[Fraction(2, 3) * x for x in row] for row in dp6.intersection_form.row_list()]
            ),
        ),
        VarietyModel(
            "raw-f2", 2, vec(-4, -2), ConeQ([vec(1, 0), vec(0, 1)]),
            intersection_form=MatQ([[0, 1], [1, -2]]),
        ),
    ]


def _zariski_cases():
    """(name, model, route, oracle curves): every del Pezzo degree, the
    quadric and the raw lattice surfaces."""
    cases = []
    for surf in [del_pezzo(d) for d in range(1, 10)] + [quadric_surface()]:
        cases.append(
            (surf.name, surf.variety(), lambda d, s=surf: zariski_decompose(s, d),
             surf.negative_curves, surf.pair)
        )
    for m in _raw_surfaces():
        cases.append(
            (m.name, m, lambda d, m=m: zariski_for_variety(m, d), negative_classes(m), m.pair)
        )
    return cases


class TestZariskiKernelOracle:
    """The integer kernel against the Fraction loop it replaced."""

    def test_equal_decompositions_inside_the_cone(self, rng):
        for name, m, route, curves, pair in _zariski_cases():
            gens = m.eff_cone.generators
            count = 4 if m.ns_rank == 9 else 12
            for _ in range(count):
                # a nonnegative rational combination of a few generators,
                # plus a multiple of -K where that is pseudo-effective
                d = VecQ.zero(m.ns_rank)
                for g in rng.sample(gens, min(len(gens), rng.randint(1, 4))):
                    d = d + Fraction(rng.randint(0, 9), rng.randint(1, 5)) * g
                if m.name != "raw-f2" and rng.random() < 0.5:
                    d = d + Fraction(rng.randint(1, 4), rng.randint(1, 3)) * (-1 * m.canonical)
                assert route(d) == zariski_by_fractions(curves, pair, m.eff_cone, d), (name, d)

    def test_same_error_outside_the_cone(self, rng):
        for name, m, route, curves, pair in _zariski_cases():
            outside = []
            while len(outside) < 6:
                d = random_rational_vector(rng, m.ns_rank)
                if m.eff_cone.contains(d) is Containment.OUTSIDE:
                    outside.append(d)
            for d in outside:
                with pytest.raises(NotPseudoEffective) as expected:
                    zariski_by_fractions(curves, pair, m.eff_cone, d)
                with pytest.raises(NotPseudoEffective) as got:
                    route(d)
                assert str(got.value) == str(expected.value), (name, d)


class TestSurfaceB:
    def test_anticanonical(self):
        for d in (6, 3):
            m = del_pezzo(d)
            res = surface_b(m, -1 * m.canonical)
            assert res.case is SurfaceCase.BASE_POINT
            assert res.n_components == 0
            assert res.b == m.rank

    def test_bl1p2_fibration_case(self):
        res = surface_b(del_pezzo(8), vec(2, -1))
        assert res.case is SurfaceCase.BASE_CURVE and res.b == 1

    def test_dp6_rigid_case_cross_checked(self):
        m = del_pezzo(6)
        bundle = -1 * m.canonical + vec(0, 1, 0, 0)
        res = surface_b(m, bundle)
        assert res.case is SurfaceCase.BASE_POINT
        assert res.b == b_invariant(m.variety(), bundle).b == 3

    def test_dual_path_oracle_sample(self, rng):
        # small-scale version of the acceptance criterion: surface case
        # analysis must equal the polyhedral codimension
        for degree in (7, 6, 5):
            m = del_pezzo(degree)
            model = m.variety()
            for bundle in sample_big_classes(model, rng, 20):
                assert surface_b(m, bundle).b == b_invariant(model, bundle).b


class TestSurfaceBalanced:
    def test_anticanonical_balanced(self):
        m = del_pezzo(5)
        res = surface_balanced(m, -1 * m.canonical)
        assert res.balanced and res.fiber_class is None

    def test_bl1p2_unbalanced_with_fiber_witness(self):
        res = surface_balanced(del_pezzo(8), vec(2, -1))
        assert not res.balanced
        assert res.fiber_class == vec(1, -1)

    def test_rigid_chain_balanced(self):
        m = del_pezzo(6)
        res = surface_balanced(m, -1 * m.canonical + vec(0, 1, 0, 0))
        assert res.balanced

    def test_matches_rigidity(self, rng):
        for degree in (6, 4):
            m = del_pezzo(degree)
            model = m.variety()
            for bundle in sample_big_classes(model, rng, 15):
                adjoint = fujita(model, bundle).boundary_class
                assert surface_balanced(m, bundle).balanced == is_rigid_class(model, adjoint)


class TestCurveChecks:
    def test_curve_fujita_values(self):
        assert curve_fujita(1) == 2
        assert curve_fujita(2) == 1
        assert curve_fujita(11) == Fraction(2, 11)

    def test_nonpositive_degree(self):
        with pytest.raises(NonPositiveDegree):
            curve_fujita(0)

    @pytest.mark.parametrize("degree", [0.5, True])
    def test_float_and_bool_degrees_rejected(self, degree):
        with pytest.raises(TypeError):
            curve_fujita(degree)

    def test_quadric_bidegree_11_1(self):
        # the (1)-factor drives the invariant: a = 2 through the quadric model
        q = quadric_surface().variety()
        assert fujita(q, vec(11, 1)).a == 2 == curve_fujita(1)

    def test_cubic_surface_hyperplane(self):
        m = del_pezzo(3)
        assert weak_balance_curve_check(m, -1 * m.canonical, vec(1, 0, 0, 0, 0, 0, 0))
        # a(C) = 2/3 < 1

    def test_dp6_hyperplane(self):
        m = del_pezzo(6)
        assert weak_balance_curve_check(m, -1 * m.canonical, vec(1, 0, 0, 0))

    def test_bl1p2_bundle(self):
        m = del_pezzo(8)
        assert weak_balance_curve_check(m, vec(2, -1), vec(1, 0))

    def test_exceptional_excluded(self):
        m = del_pezzo(6)
        with pytest.raises(CurveInExcludedLocus):
            weak_balance_curve_check(m, -1 * m.canonical, vec(0, 1, 0, 0))

    def test_anticanonical_degree_one_excluded(self):
        # degree-1 surface: the anticanonical class itself has (-K, C) = 1
        m = del_pezzo(1)
        with pytest.raises(CurveInExcludedLocus):
            weak_balance_curve_check(m, -1 * m.canonical, -1 * m.canonical)
