import math
import random
import re
from fractions import Fraction

import pytest

from fujita import cones, qlinalg, toric
from fujita.cones import ConeQ, Containment
from fujita.delpezzo import del_pezzo, quadric_surface, surface_balanced
from fujita.errors import (
    IncompleteFan,
    InvalidModel,
    NonSimplicialCone,
    NonSmoothCone,
    NonTerminalCone,
    NotBig,
    NotPseudoEffective,
    ProjectionIncompatible,
)
from fujita.invariants import b_invariant, fujita, invariant_pair, is_rigid_class
from fujita.qlinalg import MatQ, VecQ, solve, span_dim
from fujita.toric import (
    TERMINAL_WALK_BOUND,
    Fan,
    class_is_rigid,
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
from conftest import counting, identity, transpose, vec
from oracles import (
    check_fibration_hull_by_nullspace,
    cones_holding_by_solve,
    divisor_class_by_solve,
    fan_coverage_by_solve,
    implicit_equalities_per_ray,
    lift_class,
    pivot_split,
    strict_fan_checks_by_solve,
)


def p2_fan():
    return Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], require_smooth=True)


def p1_fan():
    return Fan([(1,), (-1,)], [(0,), (1,)], require_smooth=True)


def p1xp1_fan():
    return Fan(
        [(1, 0), (-1, 0), (0, 1), (0, -1)], [(0, 2), (2, 1), (1, 3), (3, 0)],
        require_smooth=True,
    )


def bl1p2_fan():
    return Fan(
        [(1, 0), (0, 1), (-1, -1), (1, 1)], [(0, 3), (3, 1), (1, 2), (2, 0)],
        require_smooth=True,
    )


def hexagon_fan():
    return Fan(
        [(1, 0), (0, 1), (-1, -1), (1, 1), (-1, 0), (0, -1)],
        [(0, 3), (3, 1), (1, 4), (4, 2), (2, 5), (5, 0)],
        require_smooth=True,
    )


def bl_line_p3_fan():
    return Fan(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 0)],
        [(0, 2, 3), (1, 2, 3), (0, 4, 2), (1, 4, 2), (0, 4, 3), (1, 4, 3)],
        require_smooth=True,
    )


class TestFanValidation:
    def test_non_primitive_ray(self):
        with pytest.raises(InvalidModel):
            Fan([(2, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])

    def test_non_integer_entries(self):
        # each ray entry and cone index is read as `modelio.parse_int` reads
        # one; a float, a non-integral Fraction or a bool is not truncated
        # to an integer but names its ray or cone
        rays = [(1, 0), (0, 1), (-1, -1)]
        cones = [(0, 1), (1, 2), (0, 2)]
        for x in (1.7, 1.0, Fraction(3, 2), True, "1/0", "x"):
            with pytest.raises(InvalidModel, match="^ray 0 has an entry that is not an integer"):
                Fan([(x, 0)] + rays[1:], cones)
            with pytest.raises(InvalidModel, match="^cone 2 has an entry that is not an integer"):
                Fan(rays, cones[:2] + [(0, x)])
        # exact integers in any form are read as they are
        fan = Fan([(Fraction(1), "0"), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, Fraction(4, 2))])
        assert fan == Fan(rays, cones)

    def test_int_entries_build_no_fraction(self, monkeypatch):
        # an int entry is read at once; a bool, a float, a fraction string
        # and None still name their ray or cone, and an integer given as a
        # string or a Fraction is still read
        rays = [(1, 0), (0, 1), (-1, -1)]
        cones = [(0, 1), (1, 2), (0, 2)]
        rats = counting(monkeypatch, toric, "as_rat")
        Fan(rays, cones)
        assert rats == []
        for x in (True, 1.5, "1/2", None):
            with pytest.raises(InvalidModel, match=f"^ray 0 has an entry that is not an integer: {re.escape(repr(x))}$"):
                Fan([(x, 0)] + rays[1:], cones)
            with pytest.raises(InvalidModel, match=f"^cone 2 has an entry that is not an integer: {re.escape(repr(x))}$"):
                Fan(rays, cones[:2] + [(0, x)])
        ints = Fan(rays + [(3, -2)], [(0, 1), (1, 2), (2, 3), (3, 0)])
        for x in (3, "3", Fraction(6, 2)):
            fan = Fan(rays + [(x, -2)], [(0, 1), (1, 2), (2, x), (x, 0)])
            assert fan == ints and type(fan.rays[3][0]) is int and type(fan.max_cones[2][1]) is int

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
        with pytest.raises(IncompleteFan, match="no maximal cone"):
            Fan([(1, 0), (0, 1), (-1, -1)], [])

    def test_smooth_constructor_rejects_singular(self):
        with pytest.raises(NonSmoothCone):
            Fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)], require_smooth=True)

    def test_simplicial_constructor_accepts_singular(self):
        f = Fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])
        assert not f.smooth_checked

    def test_strict_terminality_box_test(self):
        # the 1/2(1,1) surface quotient point is not terminal
        with pytest.raises(NonTerminalCone):
            Fan([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)], strict=True)

    def test_strict_mode_passes_complete_fans(self):
        # the walls of the P^1 fan are the empty cone
        for fan_maker in (p1_fan, p2_fan, p1xp1_fan, bl1p2_fan, hexagon_fan, bl_line_p3_fan):
            f = fan_maker()
            Fan(f.rays, f.max_cones, strict=True)

    def test_strict_terminality_ignores_coordinate_size(self, monkeypatch):
        # two cones of |det| 2 whose bounding boxes hold about 4 * 10^6
        # lattice points; the test walks the 2 points of each N / N_sigma
        big = 10**6
        rays = [(1, 0), (2 * big + 1, 2), (-1, 0), (0, -1)]
        cones = [(0, 1), (1, 2), (2, 3), (3, 0)]
        assert qlinalg.scaled_inverse([list(r) for r in zip(rays[0], rays[1])])[0] == 2
        solves = counting(monkeypatch, qlinalg, "solve")
        with pytest.raises(NonTerminalCone, match=str((big + 1, 1))):
            Fan(rays, cones, strict=True)
        assert solves == []

    def test_strict_mode_passes_singular_terminal_fan(self):
        # P(1,1,1,2): one singular cone, of type 1/2(1,1,1), which is terminal
        rays = [(-1, -1, -2), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        cones = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        f = Fan(rays, cones, strict=True)
        assert not f.smooth_checked


def test_coverage_matches_solve_route(toric_fans):
    # the fan check accepted these fans: the oracle finds w in cone 0 alone
    for name, fan in toric_fans.items():
        w = [sum(x) for x in zip(*[fan.rays[i] for i in fan.max_cones[0]])]
        assert cones_holding_by_solve(fan.rays, fan.max_cones, w) == [0], name


# rays at about 0, 117, 243, 405, 540 and 675 degrees: every cone is strictly
# convex and every ray lies in exactly two cones, but the cones go twice
# round the origin, so only the point w can reject the fan
WINDING_RAYS = [(1, 0), (-1, 2), (-1, -2), (1, 1), (-1, 0), (1, -1)]
WINDING_CONES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]
# the same in 3-D: the plane rays at z = 0 and the poles +-e3, each plane
# cone joined to each pole (12 cones)
WINDING_3D = (
    [r + (0,) for r in WINDING_RAYS] + [(0, 0, 1), (0, 0, -1)],
    [c + (pole,) for c in WINDING_CONES for pole in (6, 7)],
)


@pytest.mark.parametrize("strict", [False, True])
def test_fan_winding_twice_is_incomplete(strict):
    for rays, cones in ((WINDING_RAYS, WINDING_CONES), WINDING_3D):
        with pytest.raises(IncompleteFan) as expected:
            strict_fan_checks_by_solve(rays, cones)
        with pytest.raises(IncompleteFan) as got:
            Fan(rays, cones, strict=strict)
        assert "lies in 2 maximal cones" in str(expected.value)
        assert str(got.value) == str(expected.value)
        with pytest.raises(IncompleteFan, match="lies in 2 maximal cones"):
            fan_coverage_by_solve(rays, cones)


# rays at 0, 90, about 89.94, 180 and 270 degrees: cones (0, 1) and (1, 2)
# lie on the same side of the ray (0, 1), so three cones overlap in a thin
# sliver that a sampled direction almost never meets
OVERLAP_RAYS = [(1, 0), (0, 1), (1, 1000), (-1, 0), (0, -1)]
OVERLAP_CONES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]


@pytest.mark.parametrize("strict", [False, True])
def test_overlapping_fan_is_incomplete(strict):
    with pytest.raises(IncompleteFan) as expected:
        strict_fan_checks_by_solve(OVERLAP_RAYS, OVERLAP_CONES)
    with pytest.raises(IncompleteFan, match="do not cover both sides") as got:
        Fan(OVERLAP_RAYS, OVERLAP_CONES, strict=strict)
    assert str(got.value) == str(expected.value)


# P(1,1,1,2), terminal with one singular cone, and the fan of the
# non-terminal 1/2(1,1) quotient point
P1112 = ([(-1, -1, -2), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
HALF_11 = ([(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])


def test_fan_checks_make_no_rational_solve(monkeypatch, toric_fans):
    # nor draw a random number: coverage is decided at one exact point
    def refuse(*args):
        raise AssertionError("a fan check drew a random number")

    monkeypatch.setattr(random, "Random", refuse)
    calls = counting(monkeypatch, qlinalg, "solve")
    for strict in (False, True):
        for fan in toric_fans.values():
            Fan(fan.rays, fan.max_cones, require_smooth=fan.smooth_checked, strict=strict)
        fan_product(toric_fans["dp6-toric"], toric_fans["dp6-toric"])
        fan_product(toric_fans["toric-no-control"], toric_fans["p2-toric"])
        Fan(*P1112, strict=strict)
        if strict:
            with pytest.raises(NonTerminalCone):
                Fan(*HALF_11, strict=True)
        else:
            Fan(*HALF_11)
    assert calls == []


def _strict_outcome(check, rays, cones):
    try:
        check(rays, cones)
    except (IncompleteFan, NonTerminalCone) as e:
        return type(e), str(e)
    return None


def _random_plane_fan(rng):
    """Rays at distinct angles, no two opposite, each cone spanned by
    neighbours in angle order.  A gap of more than half a turn between
    neighbours makes the fan incomplete; most singular cones are not
    terminal."""
    k = rng.randint(3, 7)
    rays = {}
    while len(rays) < k:
        r = (rng.randint(-3, 3), rng.randint(-3, 3))
        if r == (0, 0) or math.gcd(*r) != 1:
            continue
        rays[math.atan2(r[1], r[0])] = r
    ordered = [rays[t] for t in sorted(rays)]
    if any(r[0] * q[1] == r[1] * q[0] for r in ordered for q in ordered if r != q):
        return None
    return ordered, [(i, (i + 1) % k) for i in range(k)]


def _fan_cases(toric_fans):
    """150 fans: the catalog and product fans, P1112, HALF_11, both winding
    fans, and seeded random plane fans."""
    cases = [(fan.rays, fan.max_cones) for fan in toric_fans.values()]
    cases += [P1112, HALF_11, (WINDING_RAYS, WINDING_CONES), WINDING_3D]
    rng = random.Random(6151)
    while len(cases) < 150:
        drawn = _random_plane_fan(rng)
        if drawn is not None:
            cases.append(drawn)
    return cases


def test_strict_checks_match_fraction_route(toric_fans):
    outcomes = set()
    for rays, cones in _fan_cases(toric_fans):
        expected = _strict_outcome(strict_fan_checks_by_solve, rays, cones)
        got = _strict_outcome(lambda r, c: Fan(r, c, strict=True), rays, cones)
        assert got == expected, rays
        outcomes.add(None if expected is None else expected[1].split()[-1])
    # every strict outcome is reached: accepted, a misoriented wall, a point
    # of conv(0, rays), and (walls passed) w in two cones
    assert outcomes == {None, "sides", "rays)", "cones"}, outcomes


def _accepts(check, rays, cones):
    try:
        check(rays, cones)
    except IncompleteFan:
        return False
    return True


def test_one_point_rule_matches_sampled_coverage(toric_fans):
    # the oracle's 27 sampled directions check the rule at the one point w:
    # a fan is accepted iff every direction lies in exactly one maximal cone
    for rays, cones in _fan_cases(toric_fans):
        assert _accepts(Fan, rays, cones) == _accepts(fan_coverage_by_solve, rays, cones), rays


def _walk_fan(q):
    """Four cones of |det| q round rays summing to zero."""
    rays = [(1, 0, 0), (0, 0, 1), (1, q, 1), (-2, -q, -2)]
    return rays, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_strict_terminality_walk_is_bounded():
    rays, cones = _walk_fan(10001)
    with pytest.raises(NonTerminalCone) as walked:
        Fan(rays, cones, strict=True)
    assert str(walked.value) == "cone (0, 1, 3) contains the lattice point (-1, -6000, -1) of conv(0, rays)"
    q = TERMINAL_WALK_BOUND + 1
    rays, cones = _walk_fan(q)
    assert not Fan(rays, cones).smooth_checked
    with pytest.raises(InvalidModel) as over:
        Fan(rays, cones, strict=True)
    assert type(over.value) is InvalidModel
    assert str(over.value) == f"cone (0, 1, 2) has |det| {q}, over the walk bound {TERMINAL_WALK_BOUND}"


def pivot_det_fans():
    """Two complete plane fans whose first two rays span sublattices of
    index 2 and 3, so the pivot block of the class map has |det| 2 and 3."""
    return {
        "det2": Fan([(1, 1), (1, -1), (-1, 0)], [(0, 1), (1, 2), (0, 2)]),
        "det3": Fan([(1, 2), (2, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)]),
    }


def test_class_map_is_a_kernel_basis_of_the_ray_matrix(toric_fans):
    # in plain integers: each row of the class map, its denominators
    # cleared, sums the rays to zero, and the class of the i-th non-pivot
    # ray is the i-th unit vector
    fans = {**toric_fans, **pivot_det_fans()}
    for name, index in (("det2", 2), ("det3", 3)):
        (a, b), (c, d) = fans[name].rays[:2]
        assert abs(a * d - b * c) == index
    for name, fan in fans.items():
        pres = ns_presentation(fan)
        _, basis = pivot_split(fan)
        assert pres.rank == len(basis) == pres.class_map.rows, name
        for row in pres.class_map.row_list():
            den = math.lcm(*[x.denominator for x in row])
            ints = [x.numerator * (den // x.denominator) for x in row]
            for t in range(fan.lattice_dim):
                assert sum(y * ray[t] for y, ray in zip(ints, fan.rays)) == 0, name
        for pos, ray in enumerate(basis):
            unit = [int(i == pos) for i in range(pres.rank)]
            assert list(pres.ray_classes[ray]) == unit, (name, ray)


def test_divisor_class_matches_solve_route(toric_fans):
    rng = random.Random(1729)
    for name, fan in {**toric_fans, **pivot_det_fans()}.items():
        pres = ns_presentation(fan)
        k = len(fan.rays)
        units = [[1 if j == i else 0 for j in range(k)] for i in range(k)]
        assert list(pres.ray_classes) == [divisor_class_by_solve(fan, u) for u in units], name
        assert list(pres.ray_classes) == [pres.divisor_class(u) for u in units], name
        for _ in range(8):
            ints = [rng.randint(-6, 6) for _ in range(k)]
            fracs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(k)]
            for coeffs in (ints, fracs):
                got = pres.divisor_class(coeffs)
                assert got == divisor_class_by_solve(fan, coeffs), (name, coeffs)


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

    def test_coefficient_count_must_match_rays(self):
        pres = ns_presentation(p2_fan())
        for coeffs in ([1, 0], [1, 0, 0, 0]):
            with pytest.raises(InvalidModel, match="^coefficient count does not match ray count$"):
                pres.divisor_class(coeffs)

    def test_lift_class_round_trip(self):
        f = bl1p2_fan()
        pres = ns_presentation(f)
        cls = pres.divisor_class([1, 0, 1, 0])
        assert pres.divisor_class(lift_class(f, cls)) == cls


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
        f2 = Fan(
            [(1, 0), (0, 1), (-1, 2), (0, -1)],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
            require_smooth=True,
        )
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
        fan, coeffs = bl1p2_fan(), [1, 0, 1, 0]
        poly = divisor_polytope(fan, coeffs)
        assert poly.sample_point is not None
        for ray, a in zip(fan.rays, coeffs):
            assert VecQ(ray).dot(poly.sample_point) >= -a


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
        slack = [VecQ(ray).dot(poly.sample_point) + a for ray, a in zip(fan.rays, coeffs)]
        assert all(s >= 0 for s in slack), (name, coeffs)
        assert {i for i, s in enumerate(slack) if s == 0} == set(poly.tight_rays), (name, coeffs)


def _rank_rule_cases(toric_fans):
    """On every fan: the zero class, seeded coefficients with zeros and
    negatives, and the boundary classes a*L + K of seeded big bundles,
    lifted to rational coefficients."""
    rng = random.Random(0x9A7E)
    for name, fan in toric_fans.items():
        k = len(fan.rays)
        pres = ns_presentation(fan)
        yield name, fan, [0] * k
        for _ in range(25):
            yield name, fan, [rng.randint(-2, 3) for _ in range(k)]
        for _ in range(4):
            bundle = pres.divisor_class([rng.randint(1, 3) for _ in range(k)])
            fr = fujita(variety_model(fan), bundle)
            yield name, fan, list(lift_class(fan, fr.boundary_class))


def test_rank_rule_matches_polytope_lp(toric_fans):
    # dim = |F| - span_dim(F), F the minimal face of the class, against
    # the support LP of `divisor_polytope`
    seen = set()
    for name, fan, coeffs in _rank_rule_cases(toric_fans):
        expected = divisor_polytope(fan, coeffs).dim
        m = variety_model(fan)
        cls = ns_presentation(fan).divisor_class(coeffs)
        assert polytope_dim(fan, coeffs) == expected, (name, coeffs)
        if expected < 0:
            with pytest.raises(NotPseudoEffective):
                toric_rigid(fan, coeffs)
            with pytest.raises(NotPseudoEffective):
                class_is_rigid(fan, cls)
            with pytest.raises(NotPseudoEffective):
                is_rigid_class(m, cls)
        else:
            assert toric_rigid(fan, coeffs) is (expected == 0), (name, coeffs)
            assert class_is_rigid(fan, cls) is (expected == 0), (name, coeffs)
            assert is_rigid_class(m, cls) is (expected == 0), (name, coeffs)
        seen.add(min(expected, 2))
    assert seen == {-1, 0, 1, 2}


def test_tight_rays_are_the_rays_off_the_face(toric_fans):
    # the rays `fibration_b_crosscheck` takes as tight: those whose class is
    # off the minimal face of the boundary class
    rng = random.Random(0x71647)
    for name, fan in toric_fans.items():
        pres = ns_presentation(fan)
        for _ in range(6):
            coeffs = [rng.randint(1, 3) for _ in fan.rays]
            res = b_invariant(variety_model(fan), pres.divisor_class(coeffs))
            poly = divisor_polytope(fan, lift_class(fan, res.fujita.boundary_class))
            off = set(range(len(fan.rays))) - res.face.generators_in_face
            assert off == set(poly.tight_rays), (name, coeffs)


def test_a_model_is_built_with_its_facets_and_no_facet_tuple(monkeypatch, toric_fans):
    # `variety_model` builds its cone's facets once, with the model, and
    # reads no `ConeQ.facets`, which would build a tuple of VecQ to drop
    reads = []
    facets = ConeQ.facets
    monkeypatch.setattr(ConeQ, "facets", property(lambda c: reads.append(c) or facets.fget(c)))
    runs = counting(monkeypatch, ConeQ, "_compute_facets")
    for name, fan in toric_fans.items():
        m = variety_model.__wrapped__(fan)
        assert m.eff_cone._facets is not None, name
        assert [c for c in runs if c[0] is m.eff_cone] == [(m.eff_cone,)], name
    assert reads == [] and len(runs) == len(toric_fans)
    assert tuple(m.eff_cone.facets) and reads == [m.eff_cone]


def test_toric_queries_run_on_the_facet_route(monkeypatch, toric_fans):
    # the model is built with its facets, so a query runs no DD and no ray
    # LP; the witness needs no LP when the face is simplicial (on P^2 a*L + K
    # is 0 and its face is {0}) and one LP over its generators otherwise.
    # The models are built anew: the memoized ones may have had their
    # facets built by earlier queries.
    models = {name: variety_model.__wrapped__(fan) for name, fan in toric_fans.items()}
    by_fan = {fan: models[name] for name, fan in toric_fans.items()}
    monkeypatch.setattr(toric, "variety_model", by_fan.__getitem__)
    runs = counting(monkeypatch, ConeQ, "_compute_facets")
    rays = counting(monkeypatch, ConeQ, "min_a_with_witness")
    lps = counting(monkeypatch, cones, "solve_lp")
    kinds = set()
    for name, fan in toric_fans.items():
        m = models[name]
        coeffs = [1 + i % 3 for i in range(len(fan.rays))]
        bundle = ns_presentation(fan).divisor_class(coeffs)
        before = len(lps)
        res = b_invariant(m, bundle)
        is_rigid_class(m, res.fujita.boundary_class)
        toric_balanced_all_subvarieties(fan, coeffs)
        simplicial = len(res.face.generators_in_face) == res.face.span_dim
        assert len(lps) - before == (0 if simplicial else 1), name
        kinds.add(simplicial)
        if name == "p2-toric":
            assert res.fujita.boundary_class.is_zero()
            assert res.face.generators_in_face == frozenset()
            assert set(res.fujita.witness) == {0}
    assert "p2-toric" in toric_fans and kinds == {True, False}
    assert runs == [] and rays == []


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
        g = Fan(rays, cones, require_smooth=True)
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
            fibration_b_crosscheck(p1xp1_fan(), [0, 2, 0, 1], identity(2))

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
        sol = solve(transpose(basis), VecQ([img[t] for img in images]))
        assert sol is not None and not sol.kernel
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


def _projection_outcome(check):
    try:
        return check()
    except ProjectionIncompatible as e:
        return str(e)


def test_fibration_check_matches_nullspace_route(toric_fans):
    # Random big bundles, and projections that are either combinations of
    # the annihilator of the adjoint polytope's tight rays (mostly accepted)
    # or small random matrices (mostly rejected).
    rng = random.Random(2013)
    accepted = []
    for name, fan in toric_fans.items():
        n = fan.lattice_dim
        pres = ns_presentation(fan)
        for _ in range(5):
            coeffs = [rng.randint(1, 3) for _ in fan.rays]
            res = b_invariant(variety_model(fan), pres.divisor_class(coeffs))
            tight = divisor_polytope(fan, lift_class(fan, res.fujita.boundary_class)).tight_rays
            hull = qlinalg.nullspace(MatQ([fan.rays[i] for i in tight])) if tight else ()
            for _ in range(12):
                if hull and rng.random() < 0.5:
                    rows = [
                        [sum(rng.randint(-2, 2) * h[j] for h in hull) for j in range(n)]
                        for _ in range(rng.randint(1, len(hull) + 1))
                    ]
                else:
                    rows = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(rng.randint(1, n))]
                proj = MatQ(rows)
                expected = _projection_outcome(lambda: check_fibration_hull_by_nullspace(fan, tight, proj))
                got = _projection_outcome(lambda: fibration_b_crosscheck(fan, coeffs, proj))
                if expected is None:
                    assert isinstance(got, tuple), (name, coeffs, rows)
                else:
                    assert got == expected, (name, coeffs, rows)
                accepted.append(expected is None)
    assert 0 < sum(accepted) < len(accepted)
