"""Finitely generated rational polyhedral cones.

A `ConeQ` is stored by its generators (primitive integer vectors); the facet
description is computed lazily by the double description method with
lexicographic insertion order and memoized on the cone.  Membership,
strictness, and the ray optimization `min_a_on_ray` run on an exact
rational simplex whenever the facets have not been materialized; once
facets exist, sign checks are used.
Both routes are equivalent: the interior of a full-dimensional cone is its
relative interior, and relint(cone(G)) consists of the strictly positive
combinations of all generators.

`positive_support` finds, by one LP, the coordinates that some point of
{x >= 0 : A x = b} makes positive; the rest are the always-active
constraints.  It gives the lineality space of a non-strict cone here and
the implicit equalities of toric divisor polytopes.

Faces here are supported faces (cut out by functionals nonnegative on the
cone).  For finitely generated cones these coincide with extremal faces, so
the distinction drawn for general closed cones is vacuous in this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from . import qlinalg
from .errors import (
    DimensionMismatch,
    Infeasible,
    NonStrictCone,
    OutsideCone,
    UnboundedBelow,
)
from .qlinalg import (
    MatQ,
    VecQ,
    pivot_columns,
    primitive_int,
    scaled_inverse,
    sign_normalized,
    span_dim,
)
from .simplex import LPStatus, solve_lp


class Containment(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


def _idot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(mul, a, b))


def _int_scaled(v: VecQ) -> tuple[int, ...]:
    """v times the lcm of its denominators (same ray, integer entries)."""
    den = 1
    for x in v.entries:
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        return tuple([x.numerator for x in v.entries])
    return tuple([int(x * den) for x in v.entries])


def positive_support(
    a_rows: Sequence[Sequence], b: Sequence, measured: Iterable[int]
) -> tuple[frozenset[int], tuple[Fraction, ...]] | None:
    """The indices in `measured` that some x in {x >= 0 : A x = b} makes
    positive, and a feasible x positive on exactly those; None when the
    system is infeasible.  A must have at least one row.

    One LP (Freund, Roundy and Todd 1985): homogenize to A y = s b with
    s >= 1, write each measured y_i as t_i + w_i with 0 <= t_i <= 1, and
    maximize the sum of the t_i.  A feasible point positive on the whole
    support, scaled up by s, puts t_i = 1 on it, and t_i is 0 off it; so
    the support is {i : t_i = 1} and the point is y / s.
    """
    measured = list(measured)
    n = len(a_rows[0])
    k = len(measured)
    # columns: y (n; t_i for measured i), w (k), sigma = s - 1, u (k)
    # rows: A y + sum A_i w_i - b sigma = b ; t_i + u_i = 1
    rows = [
        list(ar) + [ar[i] for i in measured] + [-bv] + [0] * k
        for ar, bv in zip(a_rows, b)
    ]
    for p, i in enumerate(measured):
        row = [0] * (n + 2 * k + 1)
        row[i] = 1
        row[n + k + 1 + p] = 1
        rows.append(row)
    c = [0] * (n + 2 * k + 1)
    for i in measured:
        c[i] = -1
    res = solve_lp(rows, list(b) + [1] * k, c)
    if res.status is LPStatus.INFEASIBLE:
        return None
    assert res.status is LPStatus.OPTIMAL
    y = list(res.x[:n])
    for p, i in enumerate(measured):
        y[i] += res.x[n + p]
    s = 1 + res.x[n + k]
    support = frozenset([i for i in measured if res.x[i] == 1])
    return support, tuple([v / s for v in y])


def _dd_extremal_rays(cons: list[tuple[int, ...]], d: int) -> list[tuple[int, ...]]:
    """Extremal rays of {x : c.x >= 0 for all c in cons}.

    Requires the constraints to span Q^d, which makes every intermediate cone
    pointed.  Constraints are inserted in lexicographic order starting from a
    greedily chosen independent basis; zero sets are tracked as bitmasks and
    adjacency is decided by the standard combinatorial test (no third ray's
    zero set contains the common zero set of the candidate pair).
    """
    order = sorted(range(len(cons)), key=lambda i: cons[i])
    independent = set(pivot_columns([cons[i] for i in order]))
    chosen = [i for p, i in enumerate(order) if p in independent]
    rest = [i for p, i in enumerate(order) if p not in independent]
    if len(chosen) < d:
        raise ValueError("constraints do not span the ambient space")

    # the columns of |det B| B^-1, B the basis rows: positive multiples of
    # the rays of the starting simplicial cone
    det, inverse = scaled_inverse([cons[i] for i in chosen])
    assert det > 0
    rays: list[tuple[int, ...]] = [primitive_int(col) for col in zip(*inverse)]
    full = (1 << d) - 1
    masks = [full ^ (1 << j) for j in range(d)]
    nproc = d
    thresh = d - 2

    for ci in rest:
        g = cons[ci]
        vals = [_idot(g, r) for r in rays]
        bit = 1 << nproc
        nproc += 1
        if all(v >= 0 for v in vals):
            for i, v in enumerate(vals):
                if v == 0:
                    masks[i] |= bit
            continue
        pos = [i for i, v in enumerate(vals) if v > 0]
        zer = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        new_rays: list[tuple[int, ...]] = []
        new_masks: list[int] = []
        nrays = len(rays)
        for ip in pos:
            mp = masks[ip]
            vp = vals[ip]
            rp = rays[ip]
            for im in neg:
                mm = mp & masks[im]
                if mm.bit_count() < thresh:
                    continue
                ok = True
                for k in range(nrays):
                    if k != ip and k != im and masks[k] & mm == mm:
                        ok = False
                        break
                if not ok:
                    continue
                vn = vals[im]
                rn = rays[im]
                vec = tuple(vp * rn[t] - vn * rp[t] for t in range(d))
                g_ = 0
                for t in vec:
                    g_ = gcd(g_, t)
                if g_ > 1:
                    vec = tuple(t // g_ for t in vec)
                new_rays.append(vec)
                new_masks.append(mm | bit)
        rays = [rays[i] for i in pos] + [rays[i] for i in zer] + new_rays
        masks = [masks[i] for i in pos] + [masks[i] | bit for i in zer] + new_masks
    return rays


@dataclass(frozen=True)
class FaceQ:
    """A supported face of a cone: the cut of all facets vanishing on a
    given vector, recorded by the generators it contains."""

    parent: "ConeQ"
    generators_in_face: frozenset[int]
    span_dim: int

    def generator_vectors(self) -> tuple[VecQ, ...]:
        gens = self.parent.generators
        return tuple([gens[i] for i in sorted(self.generators_in_face)])


class ConeQ:
    """Rational polyhedral cone given by generators, with a lazy dual
    (facet) description."""

    __slots__ = (
        "ambient_dim",
        "_gens",
        "_gens_int",
        "_dim",
        "_full_dim",
        "_facets",
        "_facets_int",
        "_facet_gen_masks",
        "_lineality",
    )

    def __init__(self, generators: Iterable, ambient_dim: int | None = None):
        raw = [g if isinstance(g, VecQ) else VecQ(g) for g in generators]
        if ambient_dim is None:
            if not raw:
                raise ValueError("ambient_dim required for a cone with no generators")
            ambient_dim = raw[0].dim
        for g in raw:
            if g.dim != ambient_dim:
                raise DimensionMismatch("generator dimension mismatch")
        ints = [primitive_int(g.entries) for g in raw if not g.is_zero()]
        self.ambient_dim = ambient_dim
        self._gens_int = tuple(ints)
        self._gens = tuple(VecQ(g) for g in ints)
        self._dim = None
        self._full_dim = None
        self._facets = None
        self._facets_int = None
        self._facet_gen_masks = None
        self._lineality = None

    @property
    def generators(self) -> tuple[VecQ, ...]:
        return self._gens

    def dim(self) -> int:
        """Dimension of the linear span of the cone."""
        if self._dim is None:
            self._dim = span_dim(self._gens) if self._gens else 0
        return self._dim

    def is_full_dimensional(self) -> bool:
        if self._full_dim is None:
            self._full_dim = self.dim() == self.ambient_dim
        return self._full_dim

    # -- dual description -------------------------------------------------

    @property
    def facets(self) -> tuple[VecQ, ...]:
        """Irredundant facet normals (plus +/- equation pairs when the cone
        is not full dimensional), primitive integer, lexicographic order."""
        if self._facets is None:
            self._compute_facets()
        return self._facets

    def facet_generator_masks(self) -> tuple[int, ...]:
        """Per facet, a bitmask of the generators it annihilates."""
        self.facets
        return self._facet_gen_masks

    def _compute_facets(self):
        d = self.ambient_dim
        gens = self._gens_int
        if not gens:
            normals = []
            for i in range(d):
                e = tuple(1 if j == i else 0 for j in range(d))
                normals.append(e)
                normals.append(tuple(-x for x in e))
        elif self.dim() == d:
            normals = _dd_extremal_rays(list(gens), d)
        else:
            normals = self._facets_of_degenerate()
        normals.sort()
        facets_int = tuple(normals)
        masks = []
        for f in facets_int:
            m = 0
            for j, g in enumerate(gens):
                if _idot(f, g) == 0:
                    m |= 1 << j
            masks.append(m)
        self._facet_gen_masks = tuple(masks)
        self._facets_int = facets_int
        self._facets = tuple(VecQ(f) for f in facets_int)

    def _facets_of_degenerate(self) -> list[tuple[int, ...]]:
        """Facets of a cone spanning a proper subspace: reduce to the span,
        dualize there, lift back, and add the +/- annihilator equations."""
        gens = self._gens_int
        d = self.ambient_dim
        kernel = [
            sign_normalized(primitive_int(v.entries))
            for v in qlinalg.nullspace(MatQ(gens))
        ]
        # independent generator subset spanning the cone, in lex order
        sorted_gens = sorted(set(gens))
        span_basis = [sorted_gens[p] for p in pivot_columns(sorted_gens)]
        r = self.dim()
        bmat = MatQ(zip(*span_basis))  # columns are the basis vectors
        reduced = []
        for g in gens:
            sol = qlinalg.solve(bmat, VecQ(g))
            assert sol is not None
            reduced.append(primitive_int(sol.particular))
        inner = _dd_extremal_rays(list(set(reduced)), r)
        gram = MatQ(
            [[_idot(a, b) for b in span_basis] for a in span_basis]
        )
        lifted = []
        for f in inner:
            alpha = qlinalg.solve(gram, VecQ(f))
            assert alpha is not None
            vec = VecQ.zero(d)
            for coef, bas in zip(alpha.particular, span_basis):
                vec = vec + coef * VecQ(bas)
            lifted.append(primitive_int(vec.entries))
        out = lifted
        for k in kernel:
            out.append(k)
            out.append(tuple(-x for x in k))
        return out

    # -- membership --------------------------------------------------------

    def contains(self, v: VecQ) -> Containment:
        """Classify v against the cone: Inside iff every facet sign is
        strictly positive, Boundary iff all are nonnegative with at least one
        zero, Outside otherwise.  Computed by facet signs once the dual
        description exists, and by an equivalent exact LP before that."""
        if v.dim != self.ambient_dim:
            raise DimensionMismatch("vector dimension mismatch")
        if not self._gens_int:
            return Containment.BOUNDARY if v.is_zero() else Containment.OUTSIDE
        if v.is_zero() and self._lineality == 0:
            return Containment.BOUNDARY
        if self._facets_int is not None:
            # positive rescaling preserves all signs; integer dots are far
            # cheaper than Fraction arithmetic on big facet lists
            vi = _int_scaled(v)
            boundary = False
            for f in self._facets_int:
                s = _idot(f, vi)
                if s < 0:
                    return Containment.OUTSIDE
                if s == 0:
                    boundary = True
            return Containment.BOUNDARY if boundary else Containment.INSIDE
        return self._contains_lp(v)

    def _contains_lp(self, v: VecQ) -> Containment:
        gens = self._gens_int
        d = self.ambient_dim
        k = len(gens)
        total = [sum(g[t] for g in gens) for t in range(d)]
        # columns: mu_1..mu_k, t, slack ; rows: sum mu g + t*total = v, t + slack = 1
        a_rows = []
        for t in range(d):
            a_rows.append([g[t] for g in gens] + [total[t], 0])
        a_rows.append([0] * k + [1, 1])
        b = list(v.entries) + [1]
        c = [0] * k + [-1, 0]
        res = solve_lp(a_rows, b, c)
        if res.status is LPStatus.INFEASIBLE:
            return Containment.OUTSIDE
        assert res.status is LPStatus.OPTIMAL
        t_star = res.x[k]
        if t_star > 0 and self.is_full_dimensional():
            return Containment.INSIDE
        return Containment.BOUNDARY

    def express_nonneg(self, v: VecQ) -> tuple[Fraction, ...] | None:
        """A nonnegative combination of the generators equal to v, or None.

        This is the LP feasibility oracle the membership classification is
        tested against.
        """
        if v.dim != self.ambient_dim:
            raise DimensionMismatch("vector dimension mismatch")
        gens = self._gens_int
        if not gens:
            return () if v.is_zero() else None
        a_rows = [[g[t] for g in gens] for t in range(self.ambient_dim)]
        res = solve_lp(a_rows, list(v.entries), [0] * len(gens))
        if res.status is LPStatus.INFEASIBLE:
            return None
        return res.x

    # -- strictness / lineality ---------------------------------------------

    @property
    def lineality_dim(self) -> int:
        if self._lineality is None:
            self._lineality = self._compute_lineality()
        return self._lineality

    def is_strict(self) -> bool:
        """True iff the cone contains no line."""
        return self.lineality_dim == 0

    def _compute_lineality(self) -> int:
        gens = self._gens_int
        if not gens:
            return 0
        d = self.ambient_dim
        k = len(gens)
        # strictness test: is there a nonzero nonnegative kernel combination?
        a_rows = [[g[t] for g in gens] for t in range(d)]
        res = solve_lp(a_rows + [[1] * k], [0] * d + [1], [0] * k)
        if res.status is LPStatus.INFEASIBLE:
            return 0
        # the generators in some nonnegative kernel combination are exactly
        # those in the lineality space
        support, _ = positive_support(a_rows, [0] * d, range(k))
        return span_dim([self._gens[i] for i in support])

    # -- faces ---------------------------------------------------------------

    def minimal_face(self, v: VecQ) -> FaceQ:
        """The minimal supported face containing v: the face cut out by all
        facets vanishing at v.  v = 0 returns the face {0} without forcing
        facet enumeration.

        One pass over the facets both rejects v (a negative sign) and
        collects the facets vanishing at v.  On a non-strict cone an
        outside v still raises OutsideCone before NonStrictCone."""
        if v.dim != self.ambient_dim:
            raise DimensionMismatch("vector dimension mismatch")
        if not self.is_strict():
            if self.contains(v) is Containment.OUTSIDE:
                raise OutsideCone(f"{v!r} is outside the cone")
            raise NonStrictCone("minimal_face requires a strict cone")
        if v.is_zero():
            return FaceQ(self, frozenset(), 0)
        self.facets
        vi = _int_scaled(v)
        masks = self._facet_gen_masks
        gmask = (1 << len(self._gens_int)) - 1
        for f, m in zip(self._facets_int, masks):
            s = _idot(f, vi)
            if s < 0:
                raise OutsideCone(f"{v!r} is outside the cone")
            if s == 0:
                gmask &= m
        gens_in = frozenset(j for j in range(len(self._gens_int)) if gmask >> j & 1)
        sd = span_dim([self._gens[j] for j in sorted(gens_in)])
        return FaceQ(self, gens_in, sd)

    # -- ray optimization ----------------------------------------------------

    def min_a_on_ray(self, base: VecQ, direction: VecQ) -> Fraction:
        """Least rational a with base + a*direction in the cone."""
        a, _ = self.min_a_with_witness(base, direction)
        return a

    def min_a_with_witness(
        self, base: VecQ, direction: VecQ
    ) -> tuple[Fraction, tuple[Fraction, ...]]:
        """As min_a_on_ray, also returning the nonnegative generator
        combination realizing the boundary point."""
        if base.dim != self.ambient_dim or direction.dim != self.ambient_dim:
            raise DimensionMismatch("ray data dimension mismatch")
        gens = self._gens_int
        k = len(gens)
        # columns: lam (k), a_plus, a_minus ; rows: sum lam g - a*dir = base
        a_rows = []
        for t in range(self.ambient_dim):
            a_rows.append([g[t] for g in gens] + [-direction[t], direction[t]])
        c = [0] * k + [1, -1]
        res = solve_lp(a_rows, list(base.entries), c)
        if res.status is LPStatus.INFEASIBLE:
            raise Infeasible("ray never meets the cone")
        if res.status is LPStatus.UNBOUNDED:
            raise UnboundedBelow(
                "no finite minimum along the ray; direction is not big "
                "or the cone is not strict"
            )
        a = res.x[k] - res.x[k + 1]
        return a, res.x[:k]

    def __repr__(self):
        return "ConeQ(dim ambient=%d, generators=%d)" % (
            self.ambient_dim,
            len(self._gens_int),
        )


# -- module-level operation surface ------------------------------------------

def dualize(c: ConeQ) -> list[VecQ]:
    """Irredundant facet normals of the cone, deterministic (lexicographic)
    order; degenerate cones yield inequality normals plus +/- equations."""
    return list(c.facets)


def contains(c: ConeQ, v: VecQ) -> Containment:
    return c.contains(v)


def minimal_face(c: ConeQ, v: VecQ) -> FaceQ:
    return c.minimal_face(v)


def min_a_on_ray(c: ConeQ, base: VecQ, direction: VecQ) -> Fraction:
    return c.min_a_on_ray(base, direction)


def is_strict(c: ConeQ) -> bool:
    return c.is_strict()
