"""Complete simplicial toric varieties from fans.

A `Fan` is a complete simplicial fan given by primitive integer rays and
maximal cones (as ray-index sets).  The divisor class group presentation
NS = Z^rays / image(M) gives the class map, the effective cone is spanned by
the boundary divisor classes (generator j is the class of ray j; none is
zero on a complete fan), and its facets are built with the model.  An
invariant divisor is rigid iff its polytope {m : <m, v_ray> >= -a_ray} is
a point, which is the executable h^0 oracle used by the balancedness
criterion.

That dimension is read off the minimal face F of the effective cone
containing the class, with no LP.  The polytope is the set of
nonnegative coefficient vectors of the class in the exact sequence
0 -> M -> Z^rays -> Cl -> 0 (Cox, Little and Schenck, Toric Varieties,
2011, 4.1): the rays off F are tight on all of it, a relative-interior
point is positive on every ray in F, so the polytope spans the fibre of
the class map restricted to the coordinates in F, and its dimension is
|F| - span_dim(F).  It is empty iff the class is outside the cone.
`divisor_polytope` stays the LP answer, and the tests' oracle for that
rule: one exact LP per polytope gives its emptiness, its implicit
equalities (hence its dimension) and a relative-interior point.

Completeness is checked by ridge pairing (every codimension-one wall lies in
exactly two maximal cones) plus 27 seeded generic sample directions each
covered exactly once.  That check runs in integers: one fraction-free
Gauss-Jordan elimination per maximal cone gives |det| (degenerate and
smoothness checks) and |det| times the inverse of the ray matrix, and the
cone coordinates of a direction, scaled to integers, are then signed by one
integer matrix-vector product per cone.  Strict mode upgrades this to an
exact degree argument (opposite-side orientation at every wall makes the
covering number locally constant, so the sampled directions fix it at one
everywhere; a fan winding twice round the origin passes the walls and fails
the samples) and checks terminality of each singular cone on the |det|
lattice points of its fundamental parallelepiped.  Both strict checks read
the same per-cone inverse: a row of it is the wall normal, its columns are
the steps between the lattice points.  Toric
contractions and flips are not implemented; every criterion in scope
reduces to polytope dimensions and spans.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import invariants, qlinalg
from .cones import ConeQ, positive_support
from .errors import (
    IncompleteFan,
    InvalidModel,
    NonSimplicialCone,
    NonSmoothCone,
    NonTerminalCone,
    NotPseudoEffective,
    OutsideCone,
    ProjectionIncompatible,
)
from .invariants import Toric, VarietyModel
from .qlinalg import MatQ, VecQ, as_rat, idot, scaled_ints, scaled_inverse, span_dim
from .simplex import solve_lp  # noqa: F401  (bench/selftest.py checks the tracer rebinds it here)


class Fan:
    """Complete simplicial fan; immutable and hashable."""

    __slots__ = ("lattice_dim", "rays", "max_cones", "smooth_checked", "_hash")

    def __init__(self, rays, max_cones, require_smooth=False, strict=False):
        rays = tuple(tuple(int(x) for x in r) for r in rays)
        if not rays:
            raise InvalidModel("fan needs at least one ray")
        n = len(rays[0])
        if any(len(r) != n for r in rays):
            raise InvalidModel("rays of mixed dimension")
        for r in rays:
            g = 0
            for x in r:
                g = gcd(g, x)
            if g != 1:
                raise InvalidModel(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise InvalidModel("rays must be pairwise distinct")
        cones = tuple(tuple(sorted(set(c))) for c in max_cones)
        for c in cones:
            if any(i < 0 or i >= len(rays) for i in c):
                raise InvalidModel(f"cone {c} references a missing ray")
            if len(c) != n:
                raise NonSimplicialCone(
                    f"maximal cone {c} does not have {n} rays"
                )
        self.lattice_dim = n
        self.rays = rays
        self.max_cones = cones
        smooth = True
        dets = []
        inverses = []
        for c in cones:
            d, inverse = scaled_inverse(list(zip(*[rays[i] for i in c])))
            if d == 0:
                raise NonSimplicialCone(f"maximal cone {c} is degenerate")
            if d != 1:
                smooth = False
                if require_smooth:
                    raise NonSmoothCone(
                        f"maximal cone {c} has determinant of absolute value {d}"
                    )
            dets.append(d)
            inverses.append(inverse)
        self.smooth_checked = smooth
        self._hash = hash((n, rays, cones))
        self._check_complete(strict, inverses)
        if strict and not smooth:
            self._check_terminal(dets, inverses)

    @classmethod
    def smooth(cls, rays, max_cones, strict=False) -> "Fan":
        return cls(rays, max_cones, require_smooth=True, strict=strict)

    @classmethod
    def simplicial(cls, rays, max_cones, strict=False) -> "Fan":
        return cls(rays, max_cones, require_smooth=False, strict=strict)

    def __eq__(self, other):
        return (
            isinstance(other, Fan)
            and self.rays == other.rays
            and self.max_cones == other.max_cones
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Fan(dim=%d, rays=%d, max_cones=%d)" % (
            self.lattice_dim,
            len(self.rays),
            len(self.max_cones),
        )

    # -- validation ---------------------------------------------------------

    def _check_complete(self, strict: bool, inverses):
        """Every wall lies in exactly two maximal cones; in strict mode the
        two lie on opposite sides of it.  Row j of |det M| M^-1, M the ray
        matrix of an owner and j the position of its ray off the wall,
        vanishes on the wall and is positive on that ray, so the wall is
        oriented correctly iff it is negative on the other owner's ray."""
        n = self.lattice_dim
        ridges: dict[tuple[int, ...], list[int]] = {}
        for ci, c in enumerate(self.max_cones):
            for drop in range(n):
                ridge = c[:drop] + c[drop + 1:]
                ridges.setdefault(ridge, []).append(ci)
        for ridge, owners in ridges.items():
            if len(owners) != 2:
                raise IncompleteFan(
                    f"wall {ridge} lies in {len(owners)} maximal cones, expected 2"
                )
        if strict:
            for ridge, (first, other) in ridges.items():
                c = self.max_cones[first]
                j = next(p for p, i in enumerate(c) if i not in ridge)
                extra = next(i for i in self.max_cones[other] if i not in ridge)
                if idot(inverses[first][j], self.rays[extra]) >= 0:
                    raise IncompleteFan(
                        f"maximal cones on wall {ridge} do not cover both sides"
                    )
        # sampled coverage: 27 generic directions, each in exactly one cone
        covering_cones(n, inverses)

    def _check_terminal(self, dets, inverses):
        """conv(0, rays of a singular cone) may contain no lattice point
        other than its vertices.  Such a point has coordinates in [0, 1) on
        the rays, so it is one of the |det| points of N / N_sigma: the
        closure of {0} under adding each column of M^-1 mod 1, where the
        columns of M are the rays.  The walk runs in integers, on |det|
        times those coordinates mod |det|, from the inverses `__init__`
        computed.  Run only in strict mode."""
        for c, d, inverse in zip(self.max_cones, dets, inverses):
            if d == 1:
                continue
            steps = list(zip(*inverse))
            zero = (0,) * len(c)
            seen = {zero}
            frontier = [zero]
            while frontier:
                lam = frontier.pop()
                for step in steps:
                    nxt = tuple([(x + y) % d for x, y in zip(lam, step)])
                    if nxt in seen:
                        continue
                    if sum(nxt) <= d:
                        rows = zip(*[self.rays[i] for i in c])
                        pt = tuple([idot(row, nxt) // d for row in rows])
                        raise NonTerminalCone(
                            f"cone {c} contains the lattice point {pt} of conv(0, rays)"
                        )
                    seen.add(nxt)
                    frontier.append(nxt)


def covering_cones(n: int, inverses) -> list[int]:
    """Sampled coverage: the maximal cone holding each of 27 seeded generic
    directions, which must be exactly one.

    `inverses[c]` is |det M_c| * M_c^-1, M_c the matrix whose columns are
    the rays of cone c, so the cone coordinates of a direction u have the
    signs of `inverses[c]` times u scaled to integers by the lcm of its
    denominators.  A draw with a zero coordinate on some cone is not generic
    and is skipped."""
    rng = random.Random(271828 + 101 * n)
    found: list[int] = []
    attempts = 0
    while len(found) < 27:
        attempts += 1
        if attempts > 2000:
            raise IncompleteFan("could not sample generic directions")
        u = [Fraction(rng.randint(-997, 997), rng.randint(1, 499)) for _ in range(n)]
        w, _ = scaled_ints(u)
        generic = True
        hits = []
        for c, inverse in enumerate(inverses):
            lam = [idot(row, w) for row in inverse]
            if 0 in lam:
                generic = False
                break
            if all(x > 0 for x in lam):
                hits.append(c)
        if not generic:
            continue
        if len(hits) != 1:
            raise IncompleteFan(
                f"generic direction {tuple(u)} lies in {len(hits)} maximal cones"
            )
        found.append(hits[0])
    return found


def fan_product(f1: Fan, f2: Fan) -> Fan:
    """Product fan (rays embedded in the direct sum, cones pairwise)."""
    n1, n2 = f1.lattice_dim, f2.lattice_dim
    rays = [r + (0,) * n2 for r in f1.rays] + [(0,) * n1 + r for r in f2.rays]
    shift = len(f1.rays)
    cones = [
        tuple(c1) + tuple(shift + i for i in c2)
        for c1 in f1.max_cones
        for c2 in f2.max_cones
    ]
    return Fan(rays, cones, require_smooth=f1.smooth_checked and f2.smooth_checked)


# -- divisor class machinery ---------------------------------------------------


class NSPresentation(NamedTuple):
    """NS = Z^rays / image(M), in the basis of the non-pivot boundary rays.

    The class of sum a_ray D_ray has coordinate a_ray - <m, v_ray> on each
    basis ray, m the character with <m, v> = a on the pivot rays: m =
    P^-1 a_pivot, P the matrix whose rows are the pivot rays.  With
    det = |det P| and the integer matrix det * P^-1 from one
    `qlinalg.scaled_inverse`, <m, v_ray> = basis_rows[i] . a_pivot / det,
    where basis_rows[i] is v_ray times det * P^-1 for the i-th basis ray."""

    fan: Fan
    rank: int
    pivot_rays: tuple[int, ...]
    basis_rays: tuple[int, ...]
    pivot_det: int
    basis_rows: tuple[tuple[int, ...], ...]
    ray_classes: tuple[VecQ, ...]

    def divisor_class(self, coeffs) -> VecQ:
        """Class of sum a_ray D_ray in the chosen NS basis, in integers:
        the coefficients are scaled once by the lcm of their denominators."""
        ints, den = scaled_ints(coeffs)
        if len(ints) != len(self.fan.rays):
            raise InvalidModel("coefficient count does not match ray count")
        pivot = [ints[i] for i in self.pivot_rays]
        det = self.pivot_det
        return VecQ(
            [
                Fraction(det * ints[i] - idot(row, pivot), det * den)
                for i, row in zip(self.basis_rays, self.basis_rows)
            ]
        )

    def canonical_class(self) -> VecQ:
        return self.divisor_class([-1] * len(self.fan.rays))

    def lift_class(self, cls: VecQ) -> tuple[Fraction, ...]:
        """An invariant divisor with the given class: coefficients placed on
        the basis rays, zero on the pivot rays."""
        coeffs = [Fraction(0)] * len(self.fan.rays)
        for pos, ray in enumerate(self.basis_rays):
            coeffs[ray] = cls[pos]
        return tuple(coeffs)


@lru_cache(maxsize=None)
def ns_presentation(f: Fan) -> NSPresentation:
    """Deterministic class-group presentation: pivot rays are the first
    lattice_dim rays that are linearly independent, in ray order."""
    pivots = qlinalg.pivot_columns(f.rays)
    if len(pivots) < f.lattice_dim:
        raise IncompleteFan("rays do not span the lattice")
    basis = tuple(i for i in range(len(f.rays)) if i not in pivots)
    det, inverse = scaled_inverse([f.rays[i] for i in pivots])
    columns = list(zip(*inverse))
    rows = tuple([tuple([idot(f.rays[i], col) for col in columns]) for i in basis])
    pres = NSPresentation(f, len(basis), tuple(pivots), basis, det, rows, ())
    classes = tuple(
        pres.divisor_class([1 if j == i else 0 for j in range(len(f.rays))])
        for i in range(len(f.rays))
    )
    return NSPresentation(f, len(basis), tuple(pivots), basis, det, rows, classes)


def effective_cone(f: Fan) -> ConeQ:
    """Cone generated by the classes of all boundary divisors."""
    return variety_model(f).eff_cone


@lru_cache(maxsize=None)
def variety_model(f: Fan) -> VarietyModel:
    """The model of the fan, its cone's facets built: every toric query
    reads them, and DD on these cones is cheap."""
    pres = ns_presentation(f)
    cone = ConeQ(pres.ray_classes, ambient_dim=pres.rank)
    cone.facets
    return VarietyModel(
        name=f"toric-{len(f.rays)}rays-dim{f.lattice_dim}",
        ns_rank=pres.rank,
        canonical=pres.canonical_class(),
        eff_cone=cone,
        intersection_form=None,
        provenance=Toric(f),
    )


# -- divisor polytopes ----------------------------------------------------------


class DivisorPolytope(NamedTuple):
    """{m : <m, v_ray> >= -a_ray}; dim is -1 when empty.  `tight_rays` are
    the rays whose inequality holds with equality on the whole polytope;
    `sample_point` is a relative-interior point, strict on every other ray."""

    dim: int
    sample_point: VecQ | None
    tight_rays: tuple[int, ...]


def divisor_polytope(f: Fan, coeffs) -> DivisorPolytope:
    """Polytope of an invariant divisor, its dimension, and a sample point.

    The dimension comes from the affine hull: a constraint that cannot attain
    positive slack anywhere on the polytope is an implicit equality, and the
    hull is cut out by exactly those.  One exact LP on the slacks
    (`cones.positive_support`) finds all of them at once, decides emptiness
    and gives a point with positive slack on every other ray.
    """
    n = f.lattice_dim
    k = len(f.rays)
    a = [as_rat(x) for x in coeffs]
    if len(a) != k:
        raise InvalidModel("coefficient count does not match ray count")
    # columns: m+ (n), m- (n), slack (k) ; rows: <m, v_i> - slack_i = -a_i
    rows = []
    for i, v in enumerate(f.rays):
        row = list(v) + [-x for x in v] + [0] * k
        row[2 * n + i] = -1
        rows.append(row)
    found = positive_support(rows, [-x for x in a], range(2 * n, 2 * n + k))
    if found is None:
        return DivisorPolytope(-1, None, ())
    slack, x = found
    tight = tuple([i for i in range(k) if 2 * n + i not in slack])
    dim = n - span_dim([f.rays[i] for i in tight])
    return DivisorPolytope(dim, VecQ([x[t] - x[n + t] for t in range(n)]), tight)


def _class_dim(f: Fan, cls: VecQ) -> int:
    """Dimension of the polytope of any invariant divisor of the class,
    -1 iff empty: |F| - span_dim(F), F the generators of the minimal face
    containing the class (see the module docstring)."""
    try:
        face = variety_model(f).eff_cone.minimal_face(cls)
    except OutsideCone:
        return -1
    return len(face.generators_in_face) - face.span_dim


def polytope_dim(f: Fan, coeffs) -> int:
    """Dimension of the divisor polytope; -1 iff empty.  Read off the
    minimal face; `divisor_polytope(f, coeffs).dim` is the LP answer."""
    return _class_dim(f, ns_presentation(f).divisor_class(coeffs))


def toric_rigid(f: Fan, coeffs) -> bool:
    """True iff the divisor polytope is a single point (h^0 of every
    multiple is one); false on positive dimension.  Raises
    NotPseudoEffective when it is empty, which happens exactly for a class
    outside the effective cone."""
    return class_is_rigid(f, ns_presentation(f).divisor_class(coeffs))


def class_is_rigid(f: Fan, cls: VecQ) -> bool:
    """Rigidity of a divisor class: its polytope is a point iff the
    generators of its minimal face are linearly independent."""
    d = _class_dim(f, cls)
    if d < 0:
        raise NotPseudoEffective("divisor class is not pseudo-effective")
    return d == 0


def toric_balanced_all_subvarieties(f: Fan, bundle_coeffs) -> bool:
    """Balanced against every toric subvariety iff the adjoint boundary
    class a*L + K is rigid.  Linear equivalence translates the divisor
    polytope, so any invariant divisor of that class decides it, and
    `class_is_rigid`'s rule applies to the face that b is read from."""
    bundle = ns_presentation(f).divisor_class(bundle_coeffs)
    face = invariants.b_invariant(variety_model(f), bundle).face
    return len(face.generators_in_face) == face.span_dim


# -- fibrations ------------------------------------------------------------------


class FibrationData(NamedTuple):
    projection: MatQ
    vertical_ray_indices: frozenset[int]
    ns_pi_rank: int


def fibration_data(f: Fan, projection: MatQ) -> FibrationData:
    """Vertical rays are those with nonzero image under the lattice
    projection; their classes span the vertical part of NS."""
    pres = ns_presentation(f)
    if projection.cols != f.lattice_dim:
        raise ProjectionIncompatible("projection width does not match the lattice")
    vertical = frozenset(
        i for i, r in enumerate(f.rays) if not projection.apply(VecQ(r)).is_zero()
    )
    ns_pi = span_dim([pres.ray_classes[i] for i in sorted(vertical)])
    return FibrationData(projection, vertical, ns_pi)


def fibration_b_crosscheck(f: Fan, bundle_coeffs, projection: MatQ) -> tuple[int, int]:
    """Both computations of b: codimension of the minimal supported face,
    and rank NS - rank of the vertical subgroup of the supplied fibration.

    The projection is verified against the adjoint divisor: the direction
    space of its polytope's affine hull must equal the annihilator of
    ker(projection), otherwise the projection does not realize the
    semi-ample fibration and the call is rejected.  The rays tight on that
    polytope are those off the minimal face b was read from (see the
    module docstring), so the check needs no LP.
    """
    pres = ns_presentation(f)
    model = variety_model(f)
    res = invariants.b_invariant(model, pres.divisor_class(bundle_coeffs))

    # the hull's directions are the annihilator of the tight rays, so they
    # match the annihilator of ker(projection) iff span(tight) = ker(projection):
    # the projection kills every tight ray and the dimensions add up
    tight = [r for i, r in enumerate(f.rays) if i not in res.face.generators_in_face]
    if not (
        all(projection.apply(VecQ(r)).is_zero() for r in tight)
        and span_dim(tight) + span_dim(projection.row_list()) == f.lattice_dim
    ):
        raise ProjectionIncompatible(
            "polytope affine hull does not match the annihilator of ker(projection)"
        )
    fib = fibration_data(f, projection)
    return res.b, model.ns_rank - fib.ns_pi_rank


