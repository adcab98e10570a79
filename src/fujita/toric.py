"""Complete simplicial toric varieties from fans.

A `Fan` is a complete simplicial fan given by primitive integer rays and
maximal cones (as ray-index sets).  The divisor class group presentation
NS = Z^rays / image(M) gives the class map, a kernel basis of the ray
matrix; the effective cone is spanned by the boundary divisor classes
(generator j is the class of ray j; none is zero on a complete fan), and
its facets are built with the model.  An invariant divisor is rigid iff
its polytope {m : <m, v_ray> >= -a_ray} is a point, which is the
executable h^0 oracle used by the balancedness criterion.  The class map
keeps its last MEMO_BOUND classes of int coefficients, so a toric query
that maps its coefficients twice computes the class once.

That dimension is read off the minimal face F of the effective cone
containing the class, with no LP.  The polytope is the set of
nonnegative coefficient vectors of the class in the exact sequence
0 -> M -> Z^rays -> Cl -> 0 (Cox, Little and Schenck, Toric Varieties,
2011, 4.1): the rays off F are tight on all of it, a relative-interior
point is positive on every ray in F, so the polytope spans the fibre of
the class map restricted to the coordinates in F, and its dimension is
|F| - span_dim(F).  It is empty iff the class is outside the cone.  The
rule reads the cone it is given: `is_rigid_class` that of its own model.
`divisor_polytope` stays the LP answer, and the tests' oracle for that
rule: one exact LP per polytope gives its emptiness, its implicit
equalities (hence its dimension) and a relative-interior point.

Completeness is checked exactly, in integers: every codimension-one wall
lies in exactly two maximal cones, on opposite sides of it, and no maximal
cone but the first holds w, the sum of the first cone's rays (see
`Fan._check_complete` for why that suffices).  One fraction-free
Gauss-Jordan elimination per maximal cone gives |det| (degenerate and
smoothness checks) and |det| times the inverse of the ray matrix, whose
rows are the normals of the cone's walls and sign w by one integer
matrix-vector product.  Strict mode adds terminality of each singular cone
of |det| at most TERMINAL_WALK_BOUND, walked on the |det| lattice points
of its fundamental parallelepiped, whose steps are the columns of the same
inverse.  Toric contractions and flips are not implemented; every
criterion in scope reduces to polytope dimensions and spans.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import invariants
from .cones import ConeQ, positive_support
from .errors import (
    DimensionMismatch,
    IncompleteFan,
    InvalidModel,
    NonSimplicialCone,
    NonSmoothCone,
    NonTerminalCone,
    NotPseudoEffective,
    OutsideCone,
    ProjectionIncompatible,
)
from .invariants import MEMO_BOUND, Toric, VarietyModel
from .qlinalg import _INT, MatQ, VecQ, as_rat, idot, nullspace, scaled_inverse, span_dim
from .simplex import solve_lp  # noqa: F401  (bench/selftest.py checks the tracer rebinds it here)

# Largest |det| of a singular cone whose terminality strict mode walks,
# about 5 us a point; a larger one raises InvalidModel.  Not a setting.
TERMINAL_WALK_BOUND = 2**16


def _integer(x, where: str) -> int:
    """x as an integer, read as `modelio.parse_int` reads one: an int as it
    is, else `as_rat` with denominator 1; else an InvalidModel naming where."""
    if type(x) is int:
        return x
    try:
        q = as_rat(x)
        if q.denominator == 1:
            return q.numerator
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise InvalidModel(f"{where} has an entry that is not an integer: {x!r}")


class Fan:
    """Complete simplicial fan; immutable and hashable."""

    __slots__ = ("lattice_dim", "rays", "max_cones", "smooth_checked", "_hash")

    def __init__(self, rays, max_cones, require_smooth=False, strict=False):
        rays = tuple(tuple([_integer(x, f"ray {i}") for x in r]) for i, r in enumerate(rays))
        if not rays:
            raise InvalidModel("fan needs at least one ray")
        n = len(rays[0])
        if any(len(r) != n for r in rays):
            raise InvalidModel("rays of mixed dimension")
        for r in rays:
            if gcd(*r) != 1:
                raise InvalidModel(f"ray {r} is not primitive")
        if len(set(rays)) != len(rays):
            raise InvalidModel("rays must be pairwise distinct")
        cones = tuple(
            tuple(sorted({_integer(i, f"cone {k}") for i in c})) for k, c in enumerate(max_cones)
        )
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
        self._check_complete(inverses)
        if strict and not smooth:
            self._check_terminal(dets, inverses)

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

    def _check_complete(self, inverses):
        """Every wall lies in exactly two maximal cones, on opposite sides
        of it: row j of |det M| M^-1, M the ray matrix of an owner and j the
        position of its ray off the wall, vanishes on the wall and is
        positive on that ray, so it must be negative on the other owner's
        ray.  Then every point off the walls lies in the same number of
        maximal cones.  w, the sum of the first cone's rays, is interior to
        that cone (its coordinates there are all 1).  If no other closed
        cone holds w, a neighbourhood of w lies in the first cone alone and
        the number is 1; if another does, that cone meets the interior of
        the first and the number is at least 2.  A closed cone holds w iff
        no row of its scaled inverse is negative on w."""
        if not self.max_cones:
            raise IncompleteFan("fan has no maximal cone")
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
        for ridge, (first, other) in ridges.items():
            c = self.max_cones[first]
            j = next(p for p, i in enumerate(c) if i not in ridge)
            extra = next(i for i in self.max_cones[other] if i not in ridge)
            if idot(inverses[first][j], self.rays[extra]) >= 0:
                raise IncompleteFan(
                    f"maximal cones on wall {ridge} do not cover both sides"
                )
        w = tuple([sum(x) for x in zip(*[self.rays[i] for i in self.max_cones[0]])])
        hits = sum(all(idot(row, w) >= 0 for row in inverse) for inverse in inverses)
        if hits != 1:
            raise IncompleteFan(f"point {w} lies in {hits} maximal cones")

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
            if d > TERMINAL_WALK_BOUND:
                raise InvalidModel(f"cone {c} has |det| {d}, over the walk bound {TERMINAL_WALK_BOUND}")
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
    """NS = Z^rays / image(M) as a class map: its rows are a basis of the
    kernel of the ray matrix R, whose columns are the rays.  A row y kills
    every principal divisor (<m, v_ray>)_ray iff R y = 0, so the class of
    sum a_ray D_ray is `class_map` times a (Gale duality), and
    `ray_classes` are the class map's columns.  Equality and hashing are
    by identity, as for `VarietyModel`, so a class memo lookup hashes only
    the coefficients."""

    fan: Fan
    rank: int
    class_map: MatQ
    ray_classes: tuple[VecQ, ...]

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def divisor_class(self, coeffs) -> VecQ:
        """Class of sum a_ray D_ray (`_class_of`), kept for the last
        MEMO_BOUND tuples of int coefficients: equal ones, as a list or a
        tuple, get the identical VecQ.  Other entries are mapped anew, as
        a bool or a float equal to an int would find that int's class."""
        key = tuple(coeffs)
        if _INT.issuperset(map(type, key)):
            return _class_of(self, key)
        return _class_of.__wrapped__(self, key)


@lru_cache(maxsize=MEMO_BOUND)
def _class_of(pres: NSPresentation, coeffs: tuple) -> VecQ:
    """The class map times the coefficients, in integers (`MatQ.apply`)."""
    try:
        return pres.class_map.apply(coeffs)
    except DimensionMismatch:
        raise InvalidModel("coefficient count does not match ray count") from None


@lru_cache(maxsize=MEMO_BOUND)
def ns_presentation(f: Fan) -> NSPresentation:
    """Deterministic class-group presentation by one `qlinalg.nullspace`
    of the ray matrix.  The pivot rays are the first lattice_dim linearly
    independent rays in ray order (a complete fan's rays span the
    lattice); each other ray has one class coordinate, and its class is
    the unit vector on it.  The last MEMO_BOUND fans' presentations are
    kept."""
    class_map = MatQ(nullspace(MatQ(zip(*f.rays))))
    rows, den = class_map.scaled_rows()
    classes = tuple([VecQ.from_scaled(col, den) for col in zip(*rows)])
    return NSPresentation(f, class_map.rows, class_map, classes)


def effective_cone(f: Fan) -> ConeQ:
    """Cone generated by the classes of all boundary divisors."""
    return variety_model(f).eff_cone


@lru_cache(maxsize=MEMO_BOUND)
def variety_model(f: Fan) -> VarietyModel:
    """The model of the fan, its cone's facets built: every toric query
    reads them, and DD on these cones is cheap.  The last MEMO_BOUND
    fans' models are kept, with their facets and faces."""
    pres = ns_presentation(f)
    cone = ConeQ(pres.ray_classes, ambient_dim=pres.rank)
    cone._compute_facets()
    return VarietyModel(
        name=f"toric-{len(f.rays)}rays-dim{f.lattice_dim}",
        ns_rank=pres.rank,
        canonical=pres.divisor_class([-1] * len(f.rays)),
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


def _class_dim(cone: ConeQ, cls: VecQ) -> int:
    """Dimension of the polytope of any invariant divisor of the class,
    -1 iff empty: |F| - span_dim(F), F the generators of the minimal face
    of the class in the effective cone (see the module docstring)."""
    try:
        face = cone.minimal_face(cls)
    except OutsideCone:
        return -1
    return len(face.generators_in_face) - face.span_dim


def _rigid(cone: ConeQ, cls: VecQ) -> bool:
    """Rigidity of a divisor class: its polytope is a point iff the
    generators of its minimal face in the cone are linearly independent."""
    d = _class_dim(cone, cls)
    if d < 0:
        raise NotPseudoEffective("divisor class is not pseudo-effective")
    return d == 0


def polytope_dim(f: Fan, coeffs) -> int:
    """Dimension of the divisor polytope; -1 iff empty.  Read off the
    minimal face; `divisor_polytope(f, coeffs).dim` is the LP answer."""
    return _class_dim(effective_cone(f), ns_presentation(f).divisor_class(coeffs))


def toric_rigid(f: Fan, coeffs) -> bool:
    """True iff the divisor polytope is a single point (h^0 of every
    multiple is one); false on positive dimension.  Raises
    NotPseudoEffective when it is empty, which happens exactly for a class
    outside the effective cone."""
    return class_is_rigid(f, ns_presentation(f).divisor_class(coeffs))


def class_is_rigid(f: Fan, cls: VecQ) -> bool:
    """Rigidity of a divisor class on the fan's model (see `_rigid`)."""
    return _rigid(effective_cone(f), cls)


def toric_balanced_all_subvarieties(f: Fan, bundle_coeffs) -> bool:
    """Balanced against every toric subvariety iff the adjoint boundary
    class a*L + K is rigid.  Linear equivalence translates the divisor
    polytope, so any invariant divisor of that class decides it, and
    `_rigid` reads the face that b is read from."""
    m = variety_model(f)
    fr = invariants.fujita(m, ns_presentation(f).divisor_class(bundle_coeffs))
    return _rigid(m.eff_cone, fr.boundary_class)


# -- fibrations ------------------------------------------------------------------


def fibration_data(f: Fan, projection: MatQ) -> int:
    """The rank of the vertical part of NS: the span of the classes of the
    vertical rays, those with nonzero image under the lattice projection."""
    pres = ns_presentation(f)
    if projection.cols != f.lattice_dim:
        raise ProjectionIncompatible("projection width does not match the lattice")
    return span_dim([c for r, c in zip(f.rays, pres.ray_classes) if not projection.apply(r).is_zero()])


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
        all(projection.apply(r).is_zero() for r in tight)
        and span_dim(tight) + span_dim(projection.row_list()) == f.lattice_dim
    ):
        raise ProjectionIncompatible(
            "polytope affine hull does not match the annihilator of ker(projection)"
        )
    return res.b, model.ns_rank - fibration_data(f, projection)


