"""Finitely generated rational polyhedral cones.

A `ConeQ` is stored by its generators (primitive integer vectors); the facet
description is computed lazily by the double description method with
lexicographic insertion order and memoized on the cone.  A cone that
spans a proper subspace is dualized by the same one run, on its generators
together with the annihilator of its span as +/- equation pairs; those
pairs are then listed among the facets.

Until the facets exist, membership and the least a with base +
a*direction in the cone solve one LP, the ray LP; membership takes v along
the generator sum, which lies in relint(cone(G)): v is outside iff that
least a is positive or none exists, and in the relative interior iff it is
negative or unbounded below.  Strictness is one memoized LP: the cone is
strict iff no nonzero nonnegative combination of the generators vanishes.

Once the facets exist, membership and the minimal face read every f_j.v
off one packed product (Kronecker substitution), packed once with the
facets: x = sum_t v_t P_t + HIGH, P_t = sum_j f_jt 2^(64 j), HIGH the top
bit of every 64-bit slot, holds f_j.v + 2^63 in slot j.  While l1 * max|v_t|
< 2^63 (l1 the largest absolute row sum of the facets), no slot borrows or
carries, and x ^ HIGH holds every f_j.v in two's complement; a larger
product, or a big-endian host, takes one integer dot per facet.  v is
outside iff some f_j.v < 0 and on the boundary iff the least is 0 (with no
facets, the whole space, every v is interior); its minimal face is cut out
by the facets vanishing at v: the generators on all of them.

Two such products, of L and of K, give the least a with K + aL in the cone
by LP duality.  L is interior iff every f_j.L > 0; then K + aL is in the
cone iff a >= -f_j.K / f_j.L for every j, so a is the largest ratio.  The
facets reaching it are exactly those vanishing at K + aL, all others being
positive there, so by the same rule they cut out its minimal face.

Faces are memoized per cone, keyed by the bitmask of their generators G_F,
at most FACE_MEMO_BOUND of them; the memo is emptied when full.  One
elimination of G_F's coordinate rows gives span_dim and the pivot rows R.
When the face is simplicial (|F| = span_dim: G_F is independent), the
entry also keeps d = |det G_F[R, :]| and d * G_F[R, :]^-1.  The witness of
a point p of the face, its unique combination of G_F, is then that inverse
times p[R] over d: one integer matrix-vector product.  A non-simplicial
face takes its witness from one LP on its generators, which must end
optimal; its solution is scaled to integers over one denominator d.  Either
witness, d * lam, must be nonnegative and recombine to d * p, or the call
raises InternalError.

`positive_support` finds, by one LP, the coordinates that some point of
{x >= 0 : A x = b} makes positive; the rest are the always-active
constraints.  Its one caller is `toric.divisor_polytope`, for the implicit
equalities and a sample point of a divisor polytope.  No query path calls
it: toric rigidity and the fibration check read the minimal face instead.

Faces here are supported faces (cut out by functionals nonnegative on the
cone).  For finitely generated cones these coincide with extremal faces, so
the distinction drawn for general closed cones is vacuous in this module.
"""

from __future__ import annotations

import sys
from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd
from operator import and_, not_
from typing import Iterable, NamedTuple, Sequence

from . import qlinalg
from .errors import (
    DimensionMismatch,
    Infeasible,
    InternalError,
    NonStrictCone,
    OutsideCone,
    UnboundedBelow,
)
from .qlinalg import (
    MatQ,
    VecQ,
    idot,
    pivot_columns,
    primitive_int,
    scaled_ints,
    scaled_inverse,
    sign_normalized,
    span_dim,
)
from .simplex import LPResult, LPStatus, solve_lp

# Faces kept per cone, keyed by their generator mask.  A fixed bound, not a
# setting: the toric benchmark meets fewer than 200 distinct faces on its
# largest cone, and the memo is emptied when full, so memory does not grow
# with the number of queries.
FACE_MEMO_BOUND = 256


class Containment(Enum):
    INSIDE = "inside"
    BOUNDARY = "boundary"
    OUTSIDE = "outside"


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


def _dd_extremal_rays(cons: list[tuple[int, ...]], d: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Extremal rays of {x : c.x >= 0 for all c in cons}, and per ray its
    zero set: the bitmask of the constraints vanishing on it, bit i for
    cons[i].

    Requires the constraints to span Q^d, which makes every intermediate cone
    pointed.  Constraints are inserted in lexicographic order starting from a
    greedily chosen independent basis; adjacency is decided on the zero sets
    by the standard combinatorial test (no third ray's zero set contains the
    common zero set of the candidate pair).
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
    full = sum([1 << i for i in chosen])
    masks = [full ^ (1 << i) for i in chosen]
    thresh = d - 2

    for ci in rest:
        g = cons[ci]
        vals = [idot(g, r) for r in rays]
        bit = 1 << ci
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
    return rays, masks


class FaceQ(NamedTuple):
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
        "_facets_int",
        "_facet_gen_masks",
        "_faces",
        "_l1",
        "_packing",
        "_strict",
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
        self._facets_int = None
        self._facet_gen_masks = None
        self._faces = {}
        self._packing = None
        self._strict = None

    @property
    def generators(self) -> tuple[VecQ, ...]:
        return self._gens

    def dim(self) -> int:
        """Dimension of the linear span of the cone."""
        if self._dim is None:
            self._dim = span_dim(self._gens_int)
        return self._dim

    def is_full_dimensional(self) -> bool:
        return self.dim() == self.ambient_dim

    # -- dual description -------------------------------------------------

    @property
    def facets(self) -> tuple[VecQ, ...]:
        """Irredundant facet normals (plus +/- equation pairs when the cone
        is not full dimensional), primitive integer, lexicographic order.
        Built anew on each call from the integer rows the cone keeps."""
        if self._facets_int is None:
            self._compute_facets()
        return tuple([VecQ(f) for f in self._facets_int])

    @property
    def _facets(self) -> tuple[tuple[int, ...], ...] | None:
        # bench/tracer.py counts the facets of each DD run by this name
        return self._facets_int

    def _compute_facets(self):
        """The facets, the generators each annihilates (DD's zero sets, less
        the equation rows, which vanish on every generator) and the packing."""
        d = self.ambient_dim
        gens = self._gens_int
        every = (1 << len(gens)) - 1
        if not gens:
            normals = []
            for i in range(d):
                e = tuple(1 if j == i else 0 for j in range(d))
                normals += [e, tuple(-x for x in e)]
            zero_sets = [0] * len(normals)
        elif self.dim() == d:
            normals, zero_sets = _dd_extremal_rays(list(gens), d)
        else:
            # the facet normals of a lower-dimensional cone are taken in its
            # span: the annihilator joins the DD input as +/- equations
            eqs = [
                sign_normalized(primitive_int(v))
                for v in qlinalg.nullspace(MatQ(gens))
            ]
            eqs += [tuple([-x for x in e]) for e in eqs]
            normals, zero_sets = _dd_extremal_rays(list(gens) + eqs, d)
            normals += eqs
            zero_sets += [every] * len(eqs)
        ordered = sorted(zip(normals, zero_sets))
        facets_int = tuple([f for f, _ in ordered])
        self._facet_gen_masks = tuple([z & every for _, z in ordered])
        self._l1 = max([sum(map(abs, f)) for f in facets_int], default=0)
        if self._l1 < 1 << 63:  # else no product fits the 64-bit slots
            high = int.from_bytes((bytes(7) + b"\x80") * len(facets_int), "little")
            biased = [b"".join([(x + (1 << 63)).to_bytes(8, "little") for x in c]) for c in zip(*facets_int)]
            self._packing = [int.from_bytes(b, "little") - high for b in biased], high
        self._facets_int = facets_int

    def _slots(self, vi: list[int]) -> Sequence[int]:
        """Every f_j.vi, in facet order, from the one packed product, or
        one dot per facet when the product needs more than 63 bits or the
        host is big-endian (see the module docstring)."""
        if self._facets_int is None:
            self._compute_facets()
        if sys.byteorder != "little" or (self._l1 * max([abs(x) for x in vi] + [1])).bit_length() > 63:
            return [idot(f, vi) for f in self._facets_int]
        cols, high = self._packing
        raw = ((idot(vi, cols) + high) ^ high).to_bytes(8 * len(self._facets_int), "little")
        return memoryview(raw).cast("q")

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
        if v.is_zero() and self._strict:
            return Containment.BOUNDARY
        if self._facets_int is not None:
            # no facets: the cone is the whole space
            least = min(self._slots(scaled_ints(v)[0]), default=1)
            if least < 0:
                return Containment.OUTSIDE
            return Containment.BOUNDARY if least == 0 else Containment.INSIDE
        # the a with v + a*total in the cone form [a*, oo), all of Q, or
        # nothing when v is off the span (see the module docstring)
        res = self._ray_lp(v, [sum(col) for col in zip(*self._gens_int)])
        if res.status is LPStatus.INFEASIBLE:
            return Containment.OUTSIDE
        k = len(self._gens_int)
        a = -1 if res.status is LPStatus.UNBOUNDED else res.x[k] - res.x[k + 1]
        if a > 0:
            return Containment.OUTSIDE
        if a < 0 and self.is_full_dimensional():
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

    # -- strictness ------------------------------------------------------------

    def is_strict(self) -> bool:
        """True iff the cone contains no line, that is, no nonzero
        nonnegative combination of the generators vanishes (one LP,
        memoized)."""
        if self._strict is None:
            gens = self._gens_int
            d = self.ambient_dim
            k = len(gens)
            a_rows = [[g[t] for g in gens] for t in range(d)] + [[1] * k]
            self._strict = not gens or (
                solve_lp(a_rows, [0] * d + [1], [0] * k).status is LPStatus.INFEASIBLE
            )
        return self._strict

    # -- faces ---------------------------------------------------------------

    def minimal_face(self, v: VecQ) -> FaceQ:
        """The minimal supported face containing v: the face cut out by all
        facets vanishing at v.  v = 0 returns the face {0} without forcing
        facet enumeration.

        One packed product both rejects v (a negative slot) and marks the
        facets vanishing at v (its zero slots); a generator is in the face
        iff it vanishes on all of them.  On a non-strict cone an outside v
        still raises OutsideCone before NonStrictCone."""
        if v.dim != self.ambient_dim:
            raise DimensionMismatch("vector dimension mismatch")
        if not self.is_strict():
            if self.contains(v) is Containment.OUTSIDE:
                raise OutsideCone(f"{v!r} is outside the cone")
            raise NonStrictCone("minimal_face requires a strict cone")
        if v.is_zero():
            return FaceQ(self, frozenset(), 0)
        sl = self._slots(scaled_ints(v)[0])
        if min(sl) < 0:
            raise OutsideCone(f"{v!r} is outside the cone")
        # every generator when no facet vanishes at v
        every = (1 << len(self._gens_int)) - 1
        return self._face(reduce(and_, compress(self._facet_gen_masks, map(not_, sl)), every))[0]

    def _face(self, mask: int) -> tuple[FaceQ, tuple[int, ...] | None, int, list[list[int]] | None]:
        """The memoized face whose generators G_F are the set bits of mask,
        and its witness solver: when the face is simplicial (|F| = span_dim),
        the pivot coordinate rows R of G_F, d = |det G_F[R, :]| and the
        integer matrix d * G_F[R, :]^-1; else None, 0, None.  One
        elimination of G_F's coordinate rows gives R and span_dim."""
        entry = self._faces.get(mask)
        if entry is None:
            gens = self._gens_int
            inside = [j for j in range(len(gens)) if mask >> j & 1]
            coords = [[gens[j][t] for j in inside] for t in range(self.ambient_dim)]
            rows = pivot_columns(coords)
            face = FaceQ(self, frozenset(inside), len(rows))
            if len(rows) < len(inside):
                entry = face, None, 0, None
            else:
                entry = (face, tuple(rows), *scaled_inverse([coords[t] for t in rows]))
            if len(self._faces) >= FACE_MEMO_BOUND:
                self._faces.clear()
            self._faces[mask] = entry
        return entry

    # -- ray optimization ----------------------------------------------------

    def min_a_with_face(
        self, base: VecQ, direction: VecQ
    ) -> tuple[Fraction, VecQ, tuple[Fraction, ...], FaceQ | None] | None:
        """The least a, the boundary point base + a*direction, a witness as
        in `min_a_with_witness` and the point's minimal face; None unless
        direction is interior.  With the facets built, two packed products
        give a and the face (see the module docstring), and the witness is
        read off the face's memoized inverse when the face is simplicial,
        else one LP on its generators; either is checked in integers.
        Without them, `contains` and the ray LP answer and the face is None,
        left to `minimal_face`: a alone never forces the facets.  Both
        routes raise UnboundedBelow on the whole space (no facets)."""
        if base.dim != self.ambient_dim or direction.dim != self.ambient_dim:
            raise DimensionMismatch("ray data dimension mismatch")
        if self._facets_int is None:
            if self.contains(direction) is not Containment.INSIDE:
                return None
            a, witness = self.min_a_with_witness(base, direction)
            return a, base + a * direction, witness, None
        if not self._facets_int:
            raise UnboundedBelow("no finite minimum along the ray; the cone is the whole space")
        (vl, dl), (vk, dk) = scaled_ints(direction), scaled_ints(base)
        sl = self._slots(vl)
        if min(sl) <= 0:
            return None
        sk = self._slots(vk)
        num, den, mask = -sk[0], sl[0], self._facet_gen_masks[0]
        for k, l, m in zip(sk, sl, self._facet_gen_masks):
            c = -k * den - num * l  # -k/l against num/den; l, den > 0
            if c > 0:
                num, den, mask = -k, l, m
            elif c == 0:
                mask &= m
        scale = den * dk
        gens = self._gens_int
        face, rows, det, inverse = self._face(mask)
        inside = sorted(face.generators_in_face)
        # scale*(a*direction + base), in integers, and G_F by coordinate rows
        p = [num * l + den * k for l, k in zip(vl, vk)]
        coords = [[gens[j][t] for j in inside] for t in range(self.ambient_dim)]
        if rows is not None:
            # the unique combination: G_F lam = p, lam = inverse p[R] / det
            pr = [p[t] for t in rows]
            lam = [idot(r, pr) for r in inverse]
        else:
            res = solve_lp(coords, p, [0] * len(inside))
            if res.status is not LPStatus.OPTIMAL:
                raise InternalError(f"face witness LP is {res.status.value}")
            lam, det = scaled_ints(res.x)
        if min(lam, default=0) < 0 or [idot(r, lam) for r in coords] != [det * x for x in p]:
            raise InternalError("face witness is negative or misses the boundary point")
        witness = [Fraction(0)] * len(gens)
        for j, x in zip(inside, lam):
            witness[j] = Fraction(x, det * scale)
        point = VecQ([Fraction(x, scale) for x in p])
        return Fraction(num * dl, scale), point, tuple(witness), face

    def min_a_with_witness(
        self, base: VecQ, direction: VecQ
    ) -> tuple[Fraction, tuple[Fraction, ...]]:
        """The least a with base + a*direction in the cone, by the ray LP,
        and a nonnegative generator combination equal to that point."""
        if base.dim != self.ambient_dim or direction.dim != self.ambient_dim:
            raise DimensionMismatch("ray data dimension mismatch")
        k = len(self._gens_int)
        res = self._ray_lp(base, direction)
        if res.status is LPStatus.INFEASIBLE:
            raise Infeasible("ray never meets the cone")
        if res.status is LPStatus.UNBOUNDED:
            raise UnboundedBelow(
                "no finite minimum along the ray; direction is not big "
                "or the cone is not strict"
            )
        a = res.x[k] - res.x[k + 1]
        return a, res.x[:k]

    def _ray_lp(self, base: VecQ, direction: Sequence) -> LPResult:
        """The LP min a s.t. base + a*direction is a nonnegative combination
        of the generators; x is the combination, then a+ and a-."""
        gens = self._gens_int
        # columns: lam (k), a_plus, a_minus ; rows: sum lam g - a*dir = base
        a_rows = [
            [g[t] for g in gens] + [-direction[t], direction[t]] for t in range(self.ambient_dim)
        ]
        return solve_lp(a_rows, list(base.entries), [0] * len(gens) + [1, -1])

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
    return c.min_a_with_witness(base, direction)[0]


def is_strict(c: ConeQ) -> bool:
    return c.is_strict()
