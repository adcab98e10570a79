import random
from fractions import Fraction

import pytest

from fujita import qlinalg
from fujita.cones import Containment
from fujita.delpezzo import del_pezzo, quadric_surface, surface_balanced
from fujita.errors import (
    IncompleteFan,
    InvalidModel,
    NonSimplicialCone,
    NonSmoothCone,
    NonTerminalCone,
    NotBig,
    ProjectionIncompatible,
)
from fujita.invariants import b_invariant, fujita, invariant_pair, is_rigid_class
from fujita.qlinalg import MatQ, VecQ, abs_det, solve, span_dim
from fujita.toric import (
    Fan,
    covering_cones,
    divisor_polytope,
    effective_cone,
    fan_product,
    fibration_b_crosscheck,
    ns_presentation,
    polytope_dim,
    toric_balanced_all_subvarieties,
    toric_rigid,
    variety_model,
)
from conftest import counting, vec
from oracles import divisor_class_by_solve, fan_coverage_by_solve, implicit_equalities_per_ray


def p2_fan():
    return Fan.smooth([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])


def p1_fan():
    return Fan.smooth([(1,), (-1,)], [(0,), (1,)])


def p1xp1_fan():
    return Fan.smooth(
        [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (2, 1), (1, 3), (3, 0)]
    )


def bl1p2_fan():
    return Fan.smooth(
        [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 3), (3, 1), (1, 2), (2, 0)]
    )


def hexagon_fan():
    return Fan.smooth(
        [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)],
        [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)],
    )


def bl_line_p3_fan():
    return Fan.smooth(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 0)],
        [(0, 2, 3), (1, 2, 3), (0, 4, 2), (1, 4, 2), (0, 4, 3), (1, 4, 3)],
    )


class TestFanValidation:
    def test_non_primitive_ray(self):
        with pytest.raises(InvalidModel):
            Fan([(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])

    def test_duplicate_ray(self):
        with pytest.raises(InvalidModel):
            Fan([(1, 0), (1, 0), (0, 1)], [(0, 2), (2, 1)])

    def test_non_simplicial(self):
        with pytest.raises(NonSimplicialCone):
            Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1, 2)])

    def test_degenerate_cone(self):
        with pytest.raises(NonSimplicialCone):
            Fan([(1, 0), (-1, 0), (0, 1)], [(0, 1), (0, 2), (1, 2)])

    def test_incomplete_missing_cone(self):
        with pytest.raises(IncompleteFan):
            Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2)])

    def test_smooth_constructor_rejects_singular(self):
        with pytest.raises(NonSmoothCone):
            Fan.smooth([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])

    def test_simplicial_constructor_accepts_singular(self):
        f = Fan.simplicial([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])
        assert not f.smooth_checked

    def test_strict_terminality_box_test(self):
        # the 1/2(1,1) surface quotient point is not terminal
        with pytest.raises(NonTerminalCone):
            Fan.simplicial(
                [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)], strict=True
            )

    def test_strict_mode_passes_complete_fans(self):
        for fan_maker in (p2_fan, p1xp1_fan, bl1p2_fan, hexagon_fan, bl_line_p3_fan):
            f = fan_maker()
            Fan(f.rays, f.max_cones, strict=True)

    def test_strict_terminality_ignores_coordinate_size(self, monkeypatch):
        # two cones of |det| 2 whose bounding boxes hold about 4 * 10^6
        # lattice points; the test walks the 2 points of each N / N_sigma
        big = 10**6
        rays = [(1, 0), (2 * big + 1, 2), (-1, 0), (0, -1)]
        cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
        with pytest.raises(NonTerminalCone, match=str((big + 1, 1))):
            Fan.simplicial(rays, cones, strict=True)
        f = Fan.simplicial(rays, cones)
        calls = []
        orig = qlinalg.solve

        def counted(*args):
            calls.append(args)
            return orig(*args)

        monkeypatch.setattr(qlinalg, "solve", counted)
        with pytest.raises(NonTerminalCone):
            f._check_terminal()
        assert abs_det(MatQ([rays[0], rays[1]])) == 2
        assert len(calls) <= 2

    def test_strict_mode_passes_singular_terminal_fan(self):
        # P(1,1,1,2): one singular cone, of type 1/2(1,1,1), which is terminal
        rays = [(-1, -1, -2), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        f = Fan.simplicial(rays, cones, strict=True)
        assert not f.smooth_checked


def _cone_inverses(fan):
    return [
        qlinalg.scaled_inverse(list(zip(*[fan.rays[i] for i in c])))[1]
        for c in fan.max_cones
    ]


def test_coverage_matches_solve_route(toric_fans):
    for name, fan in toric_fans.items():
        expected = fan_coverage_by_solve(fan.rays, fan.max_cones)
        assert covering_cones(fan.lattice_dim, _cone_inverses(fan)) == expected, name


# rays at about 0, 117, 243, 405, 540 and 675 degrees: every cone is strictly
# convex and every ray lies in exactly two cones, but the cones go twice
# round the origin, so only the sampled coverage can reject the fan
WINDING_RAYS = [(1, 0), (-1, 2), (-1, -2), (1, 1), (-1, 0), (1, -1)]
WINDING_CONES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]


@pytest.mark.parametrize("strict", [False, True])
def test_fan_winding_twice_is_incomplete(strict):
    with pytest.raises(IncompleteFan) as expected:
        fan_coverage_by_solve(WINDING_RAYS, WINDING_CONES)
    with pytest.raises(IncompleteFan) as got:
        Fan(WINDING_RAYS, WINDING_CONES, strict=strict)
    assert "lies in 2 maximal cones" in str(expected.value)
    assert str(got.value) == str(expected.value)


def test_fan_checks_make_no_rational_solve(monkeypatch, toric_fans):
    calls = []
    orig = qlinalg.solve

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(qlinalg, "solve", counted)
    for fan in toric_fans.values():
        Fan(fan.rays, fan.max_cones, require_smooth=fan.smooth_checked)
    fan_product(toric_fans["dp6-toric"], toric_fans["dp6-toric"])
    assert calls == []


def test_divisor_class_matches_solve_route(toric_fans):
    rng = random.Random(1729)
    for name, fan in toric_fans.items():
        pres = ns_presentation(fan)
        k = len(fan.rays)
        units = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
        assert list(pres.ray_classes) == [divisor_class_by_solve(pres, u) for u in units], name
        for _ in range(8):
            ints = [rng.randint(-6, 6) for _ in range(k)]
            fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k)]
            for coeffs in (ints, fracs):
                got = pres.divisor_class(coeffs)
                assert got == divisor_class_by_solve(pres, coeffs), (name, coeffs)


def test_toric_queries_make_no_rational_solve(monkeypatch, toric_fans):
    models = {name: variety_model(fan) for name, fan in toric_fans.items()}
    solves = counting(monkeypatch, qlinalg, "solve")
    for name, fan in toric_fans.items():
        m = models[name]
        coeffs = [1 + i % 3 for i in range(len(fan.rays))]
        bundle = ns_presentation(fan).divisor_class(coeffs)
        fr = fujita(m, bundle)
        b_invariant(m, bundle)
        is_rigid_class(m, fr.boundary_class)
        toric_balanced_all_subvarieties(fan, coeffs)
    assert solves == []


class TestNSPresentation:
    def test_p2(self):
        pres = ns_presentation(p2_fan())
        assert pres.rank == 1
        assert all(c == vec(1) for c in pres.ray_classes)

    def test_p1xp1_opposite_rays_identified(self):
        pres = ns_presentation(p1xp1_fan())
        assert pres.rank == 2
        assert pres.ray_classes[0] == pres.ray_classes[1]
        assert pres.ray_classes[2] == pres.ray_classes[3]
        assert pres.ray_classes[0] != pres.ray_classes[2]

    def test_bl_line_p3_rank_two(self):
        assert ns_presentation(bl_line_p3_fan()).rank == 2

    def test_rank_formula(self):
        for f in (p2_fan(), p1xp1_fan(), bl1p2_fan(), hexagon_fan(), bl_line_p3_fan()):
            assert ns_presentation(f).rank == len(f.rays) - f.lattice_dim

    def test_principal_divisors_vanish(self):
        f = hexagon_fan()
        pres = ns_presentation(f)
        for m in ((1, 0), (0, 1), (2, -3)):
            coeffs = [sum(a * b for a, b in zip(m, r)) for r in f.rays]
            assert pres.divisor_class(coeffs).is_zero()

    def test_lift_class_round_trip(self):
        f = bl1p2_fan()
        pres = ns_presentation(f)
        cls = pres.divisor_class([1, 0, 1, 0])
        assert pres.divisor_class(pres.lift_class(cls)) == cls


class TestEffectiveCone:
    def test_p2_single_ray(self):
        c = effective_cone(p2_fan())
        assert {tuple(int(x) for x in g) for g in c.generators} == {(1,)}

    def test_bl1p2_two_extremal_rays(self):
        c = effective_cone(bl1p2_fan())
        facets = c.facets
        assert len(facets) == 2
        assert c.dim() == 2

    def test_f2_fiber_and_negative_section(self):
        f2 = Fan.smooth([(1, 0), (0, 1), (-1, 2), (0, -1)], [(0, 1), (1, 2), (2, 3), (3, 0)])
        c = effective_cone(f2)
        pres = ns_presentation(f2)
        # the negative section D_{(0,-1)} and a fiber D_{(1,0)} generate
        fiber = pres.ray_classes[0]
        section = pres.ray_classes[3]
        got = {tuple(g.entries) for g in c.generators}
        assert tuple(fiber.entries) in got and tuple(section.entries) in got


class TestPolytopes:
    def test_p2_hyperplane_triangle(self):
        assert polytope_dim(p2_fan(), [1, 0, 0]) == 2

    def test_p2_zero_divisor_origin(self):
        assert polytope_dim(p2_fan(), [0, 0, 0]) == 0

    def test_bl1p2_exceptional_point(self):
        assert polytope_dim(bl1p2_fan(), [0, 0, 0, 1]) == 0

    def test_empty_polytope(self):
        assert polytope_dim(p2_fan(), [-1, 0, 0]) == -1

    def test_segment(self):
        # adjoint divisor of the (2,1) polarization on the quadric
        assert polytope_dim(p1xp1_fan(), [-1, 3, -1, 1]) == 1

    def test_scaling_invariance(self):
        cases = [
            (p2_fan(), [1, 0, 0]),
            (bl1p2_fan(), [0, 0, 0, 1]),
            (p1xp1_fan(), [-1, 3, -1, 1]),
            (hexagon_fan(), [1, 1, 1, 1, 1, 1]),
        ]
        for f, coeffs in cases:
            base = polytope_dim(f, coeffs)
            for n in (1, 2, 3):
                assert polytope_dim(f, [n * c for c in coeffs]) == base

    def test_sample_point_satisfies_inequalities(self):
        poly = divisor_polytope(bl1p2_fan(), [1, 0, 1, 0])
        assert poly.sample_point is not None
        for ray, a in poly.inequalities:
            assert ray.dot(poly.sample_point) >= -a


def _random_polytopes(toric_fans, per_fan=10):
    """Random divisors on every fan, plus each fan's K, 0 and -K."""
    rng = random.Random(1985)
    for name, fan in toric_fans.items():
        k = len(fan.rays)
        yield name, fan, [-1] * k
        yield name, fan, [0] * k
        yield name, fan, [1] * k
        for _ in range(per_fan):
            yield name, fan, [rng.randint(-2, 2) for _ in range(k)]


def test_implicit_equalities_match_per_ray_route(toric_fans):
    kinds = set()
    for name, fan, coeffs in _random_polytopes(toric_fans):
        expected = implicit_equalities_per_ray(fan, coeffs)
        poly = divisor_polytope(fan, coeffs)
        if expected is None:
            assert poly.dim == -1 and poly.sample_point is None, (name, coeffs)
            kinds.add("empty")
            continue
        assert set(poly.tight_rays) == expected, (name, coeffs)
        n = fan.lattice_dim
        assert poly.dim == n - span_dim([VecQ(fan.rays[i]) for i in expected])
        kinds.add("point" if poly.dim == 0 else "full" if poly.dim == n else "lower")
    assert kinds == {"empty", "point", "lower", "full"}


def test_sample_point_has_zero_slack_exactly_on_tight_rays(toric_fans):
    for name, fan, coeffs in _random_polytopes(toric_fans):
        poly = divisor_polytope(fan, coeffs)
        if poly.dim < 0:
            continue
        slack = [ray.dot(poly.sample_point) + a for ray, a in poly.inequalities]
        assert all(s >= 0 for s in slack), (name, coeffs)
        assert {i for i, s in enumerate(slack) if s == 0} == set(poly.tight_rays), (name, coeffs)


class TestRigidity:
    def test_exceptional_rigid(self):
        assert toric_rigid(bl1p2_fan(), [0, 0, 0, 1]) is True

    def test_hyperplane_not_rigid(self):
        assert toric_rigid(p2_fan(), [1, 0, 0]) is False

    def test_zero_divisor_rigid(self):
        assert toric_rigid(p2_fan(), [0, 0, 0]) is True


class TestBalanced:
    def test_p2(self):
        assert toric_balanced_all_subvarieties(p2_fan(), [1, 0, 0]) is True

    def test_bl1p2_ruling_not_balanced(self):
        assert toric_balanced_all_subvarieties(bl1p2_fan(), [1, 0, 1, 0]) is False

    def test_not_big_rejected(self):
        with pytest.raises(NotBig):
            toric_balanced_all_subvarieties(bl1p2_fan(), [0, 0, 0, 1])

    def test_ray_relabeling_invariance(self):
        f = bl1p2_fan()
        perm = [2, 0, 3, 1]  # new index -> old index
        rays = [f.rays[i] for i in perm]
        inverse = {old: new for new, old in enumerate(perm)}
        cones = [tuple(sorted(inverse[i] for i in c)) for c in f.max_cones]
        g = Fan.smooth(rays, cones)
        for coeffs in ([1, 0, 1, 0], [1, 1, 1, 1]):
            permuted = [0] * 4
            for new, old in enumerate(perm):
                permuted[new] = coeffs[old]
            assert toric_balanced_all_subvarieties(f, coeffs) == \
                toric_balanced_all_subvarieties(g, permuted)


class TestAnticanonical:
    def test_big_and_full_b(self):
        for fan_maker in (p2_fan, p1xp1_fan, bl1p2_fan, hexagon_fan, bl_line_p3_fan):
            f = fan_maker()
            pres = ns_presentation(f)
            model = variety_model(f)
            minus_k = pres.divisor_class([1] * len(f.rays))
            assert model.eff_cone.contains(minus_k) is Containment.INSIDE
            assert invariant_pair(model, minus_k) == (1, model.ns_rank)


class TestFibration:
    def test_bl1p2_ruling(self):
        assert fibration_b_crosscheck(bl1p2_fan(), [1, 0, 1, 0], MatQ([[1, -1]])) == (1, 1)

    def test_quadric_first_factor(self):
        assert fibration_b_crosscheck(p1xp1_fan(), [0, 2, 0, 1], MatQ([[1, 0]])) == (1, 1)

    def test_quadric_fujita_value(self):
        pres = ns_presentation(p1xp1_fan())
        assert fujita(variety_model(p1xp1_fan()), pres.divisor_class([0, 2, 0, 1])).a == 2

    def test_identity_projection_rejected(self):
        with pytest.raises(ProjectionIncompatible):
            fibration_b_crosscheck(p1xp1_fan(), [0, 2, 0, 1], MatQ.identity(2))

    def test_wrong_factor_rejected(self):
        with pytest.raises(ProjectionIncompatible):
            fibration_b_crosscheck(p1xp1_fan(), [0, 2, 0, 1], MatQ([[0, 1]]))


def class_isomorphism(fan, dp_classes):
    """Matrix carrying the fan's internal NS basis onto the surface basis,
    determined by matching boundary-divisor classes."""
    pres = ns_presentation(fan)
    r = pres.rank
    idx = []
    from fujita.qlinalg import span_dim

    for i in range(len(fan.rays)):
        if span_dim([pres.ray_classes[j] for j in idx + [i]]) > len(idx):
            idx.append(i)
        if len(idx) == r:
            break
    basis = MatQ(list(zip(*[pres.ray_classes[i].entries for i in idx])))
    images = [dp_classes[i] for i in idx]
    rows = []
    for t in range(len(images[0])):
        sol = solve(basis.transpose(), VecQ([img[t] for img in images]))
        assert sol is not None and sol.unique
        rows.append(sol.particular.entries)
    m = MatQ(rows)
    for i in range(len(fan.rays)):
        assert m.apply(pres.ray_classes[i]) == dp_classes[i], i
    return m


class TestSurfacePipelineAgreement:
    """The toric route and the del Pezzo surface route must agree exactly
    where both apply."""

    def check(self, fan, surface, dp_ray_classes, bundles):
        pres = ns_presentation(fan)
        model_t = variety_model(fan)
        model_s = surface.variety()
        iso = class_isomorphism(fan, dp_ray_classes)
        for coeffs in bundles:
            cls_t = pres.divisor_class(coeffs)
            cls_s = iso.apply(cls_t)
            if model_t.eff_cone.contains(cls_t) is not Containment.INSIDE:
                continue
            assert invariant_pair(model_t, cls_t) == invariant_pair(model_s, cls_s)
            bal_t = toric_balanced_all_subvarieties(fan, coeffs)
            assert bal_t == surface_balanced(surface, cls_s).balanced

    def test_bl1p2(self):
        dp = [vec(1, -1), vec(1, -1), vec(1, 0), vec(0, 1)]
        self.check(
            bl1p2_fan(),
            del_pezzo(8),
            dp,
            [[1, 0, 1, 0], [1, 1, 1, 1], [2, 0, 1, 0], [3, 1, 2, 0]],
        )

    def test_quadric(self):
        dp = [vec(1, 0), vec(1, 0), vec(0, 1), vec(0, 1)]
        self.check(
            p1xp1_fan(),
            quadric_surface(),
            dp,
            [[0, 2, 0, 1], [1, 1, 1, 1], [0, 3, 0, 1], [2, 1, 0, 1]],
        )

    def test_hexagon_is_degree6(self):
        dp = [
            vec(1, -1, 0, -1),
            vec(1, -1, -1, 0),
            vec(1, 0, -1, -1),
            vec(0, 1, 0, 0),
            vec(0, 0, 1, 0),
            vec(0, 0, 0, 1),
        ]
        self.check(
            hexagon_fan(),
            del_pezzo(6),
            dp,
            [[1, 1, 1, 1, 1, 1], [2, 1, 1, 1, 1, 1], [1, 2, 1, 2, 1, 1], [2, 2, 2, 1, 1, 1]],
        )


class TestFanProduct:
    def test_product_structure(self):
        f = fan_product(p2_fan(), p1_fan())
        assert f.lattice_dim == 3
        assert len(f.rays) == 5
        assert len(f.max_cones) == 6
        assert ns_presentation(f).rank == 2

    def test_product_anticanonical(self):
        f = fan_product(p1_fan(), p1_fan())
        pres = ns_presentation(f)
        model = variety_model(f)
        assert invariant_pair(model, pres.divisor_class([1, 1, 1, 1])) == (1, 2)
