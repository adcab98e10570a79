"""Finitely generated rational polyhedral cones.

A `ConeQ` is an effective cone: full-dimensional and strict.  It is stored
by its generators (primitive integer vectors), and the constructor checks
once that they span Q^ambient_dim (one elimination) and that the cone
contains no line (one LP: no nonzero nonnegative combination of the
generators vanishes), raising InvalidModel otherwise.  The facet
description is computed lazily by the double description method with
lexicographic insertion order and memoized on the cone.

Until the facets exist, membership and the least a with base +
a*direction in the cone solve one LP, the ray LP; membership takes v along
the generator sum, which is interior, so the least a exists: v is outside
iff it is positive, on the boundary iff it is 0, and interior iff it is
negative.  The ray LP's witness of base + a*direction is checked in
integers as the facet route's is (below).

Once the facets exist, membership and the minimal face read every f_j.v
off one packed product (`qlinalg.PackedRows`, kept with the facets in the
cone's one facet store).  v is outside iff some f_j.v < 0 and on the
boundary iff the least is 0; its minimal face is cut out by the facets
vanishing at v: the generators on all of them.

Two such products, of L and of K, give the least a with K + aL in the cone
by LP duality.  L is interior iff every f_j.L > 0; then K + aL is in the
cone iff a >= -f_j.K / f_j.L for every j, so a is the largest ratio.  The
facets reaching it are exactly those vanishing at K + aL, all others being
positive there, so by the same rule they cut out its minimal face.  K is
fixed per model: K's one product orders the store by f_j.K in place, and
the cone keeps K, its scaled integers and each group's bounds [lo, hi), so
a query with an equal base takes one product, of L, and a new base
reorders.  Within a group the ratio -f_j.K / f_j.L is largest at the least
f_j.L when f_j.K < 0, at the greatest when f_j.K > 0, and is 0 throughout
when f_j.K = 0.  So L's product is read one group at a time, as a
zero-copy slice, by C-level min and max: L is interior iff every group's
least f_j.L is positive, the group winners are compared exactly, and the
masks ANDed for the face are those of the winning groups' facets that
reach a (all of a group with f_j.K = 0), found by one `qlinalg.positions`
scan of the group's slots.

A cell of a face F is a basis B of span(G_F) drawn from its generators
G_F, with coordinate rows R on which G_B is invertible, kept as (B, d,
d * G_B[R, :]^-1, G_B's coordinate rows) for an integer d > 0.  A point p
of F has the witness lam = inverse p[R] / d on the first cell that gives
lam >= 0 (some basis does, by Caratheodory's theorem).  A witness that is
negative or misses p on a coordinate row raises InternalError, and F
leaves the memo.

Every face is memoized per cone by its generator mask, with its cells.  F
is simplicial when G_F is independent, as more than 90% of the distinct
faces that seeded del Pezzo queries meet on the degree-2 cone are.  The
facets' zero sets, transposed in each store, give per generator g_j the
bitmask of the facets holding it.  F is simplicial iff each g_j in F has a
dual facet f_j, one holding every other generator of F but not g_j (Fukuda
and Prodon 1996); prefix and suffix ANDs find them all in O(|F|)
big-integer operations.  As f_j.g_i = 0 for i != j, F has one cell, with
no elimination, inverse or LP: B = G_F, R every coordinate, d the lcm of
the f_j.g_j and row j (d / f_j.g_j) f_j.  It is built on the first witness
read and kept once that witness passes; the witness is unique, so a miss
is an internal error.

Any other face takes one elimination of G_F's coordinate rows for span_dim
and the pivot rows R that all its cells share, and keeps at most |F|
cells, most recently used first.  When every cell misses, the final basis
of one LP on the rows R of G_F and p gives a new front cell, dropping the
last when the face is full; so a revisited face may answer with an earlier
query's basis.  A full memo or a reorder of the facets drops the
simplicial faces, which name duals by facet index and cost no LP to
rebuild, and empties the memo only if the others fill it.  The boundary
point is kept with its face in one slot, like K.  Only `minimal_face`
hands out faces, on either route: it reads that point's face with no
product, and builds the facets for a nonzero point of the ray LP.

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

from enum import Enum
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, compress, groupby
from math import gcd, lcm
from operator import and_, not_
from typing import Iterable, NamedTuple, Sequence

from .errors import (
    DimensionMismatch,
    Infeasible,
    InternalError,
    InvalidModel,
    OutsideCone,
    UnboundedBelow,
)
from .qlinalg import (
    PackedRows,
    VecQ,
    idot,
    pivot_columns,
    positions,
    primitive_int,
    scaled_ints,
    scaled_inverse,
)
from .simplex import LPResult, LPStatus, solve_lp

# Faces kept per cone, keyed by generator mask: a fixed bound, not a setting.
# Over 20 000 queries at seed 5 the memo peaks at 179 faces on `toric-polytope`;
# `dp-dual-path` degrees 2-4 fill it 21, 4 and 1 times, keeping at most 126, 27
# and 10 non-simplicial faces, so memory does not grow with the queries.
FACE_MEMO_BOUND = 256

# a face's cell (module docstring): B, d, d * G_B[R, :]^-1, G_B's coordinate rows
Cell = tuple[tuple[int, ...], int, list[list[int]], list[tuple[int, ...]]]
# cells share equal coordinate rows: on `dp-dual-path` 9 208 rows take 391 values
_shared_row = lru_cache(maxsize=1024)(lambda row: row)


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
    if res.status is not LPStatus.OPTIMAL:
        raise InternalError(f"positive-support LP is {res.status.value}")
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
    if det <= 0:
        raise InternalError(f"independent constraints give |det| = {det}")
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


def check_witness(coords: Sequence[Sequence[int]], lam: list[int], det: int, p: list[int]):
    """Raise InternalError unless lam >= 0 and the support's generators,
    given by their coordinate rows and weighted by lam, sum to det * p:
    lam / det is a witness of p."""
    if min(lam, default=0) < 0 or [idot(r, lam) for r in coords] != [det * x for x in p]:
        raise InternalError("witness is negative or misses the boundary point")


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
    """Full-dimensional strict rational polyhedral cone given by
    generators, with a lazy dual (facet) description."""

    __slots__ = (
        "ambient_dim",
        "_gens",
        "_gens_int",
        "_facets",
        "_facet_gen_masks",
        "_gen_facet_masks",
        "_faces",
        "_point",
        "_base",
        "_packed",
    )

    def __init__(self, generators: Iterable, ambient_dim: int | None = None):
        raw = [g if isinstance(g, VecQ) else VecQ(g) for g in generators]
        if ambient_dim is None:
            ambient_dim = raw[0].dim if raw else 0
        for g in raw:
            if g.dim != ambient_dim:
                raise DimensionMismatch("generator dimension mismatch")
        ints = [primitive_int(g) for g in raw if not g.is_zero()]
        self.ambient_dim = ambient_dim
        self._gens_int = tuple(ints)
        self._gens = tuple([VecQ.from_scaled(g, 1) for g in ints])
        self._facets = None
        self._facet_gen_masks = None
        self._gen_facet_masks = None
        self._faces = {}
        self._point = None
        self._base = None
        self._packed = None
        if not ints:
            raise InvalidModel("effective cone needs a nonzero generator")
        # the rank by one elimination of the ambient_dim coordinate rows
        if len(pivot_columns(ints)) < ambient_dim:
            raise InvalidModel(f"effective cone generators must span Q^{ambient_dim}")
        if not self.is_strict():
            raise InvalidModel("effective cone must be strict (no lines)")

    @property
    def generators(self) -> tuple[VecQ, ...]:
        return self._gens

    def dim(self) -> int:
        """Dimension of the cone, which spans its ambient space."""
        return self.ambient_dim

    # -- dual description -------------------------------------------------

    @property
    def facets(self) -> tuple[VecQ, ...]:
        """Irredundant facet normals, primitive integer, in lexicographic
        order whatever the stored order; built anew on each call."""
        if self._facets is None:
            self._compute_facets()
        return tuple([VecQ.from_scaled(f, 1) for f in sorted(self._facets)])

    def _compute_facets(self):
        """DD's facets and their zero sets, stored in lexicographic order."""
        self._store(sorted(zip(*_dd_extremal_rays(list(self._gens_int), self.ambient_dim))))

    def _store(self, ordered: Sequence[tuple[tuple[int, ...], int]]):
        """Store the (facet, zero set) pairs in this order, with per generator
        the facets holding it (the transpose) and the facets' packing."""
        self._facet_gen_masks = tuple([z for _, z in ordered])
        # column t of the zero sets' bit strings is generator k-1-t; read
        # each column last facet first, so that facet i is bit i
        k = len(self._gens_int)
        columns = zip(*[format(z, f"0{k}b") for z in self._facet_gen_masks])
        self._gen_facet_masks = tuple([int("".join(col)[::-1], 2) for col in columns][::-1])
        self._facets = tuple([f for f, _ in ordered])
        self._packed = PackedRows(self._facets)

    def _slots(self, vi: list[int]) -> Sequence[int]:
        """Every f_j.vi, in facet order (`qlinalg.PackedRows.products`)."""
        if self._facets is None:
            self._compute_facets()
        return self._packed.products(vi)

    # -- membership --------------------------------------------------------

    def contains(self, v: VecQ) -> Containment:
        """Classify v against the cone: Inside iff every facet sign is
        strictly positive, Boundary iff all are nonnegative with at least one
        zero, Outside otherwise.  Computed by facet signs once the dual
        description exists, and by an equivalent exact LP before that."""
        if v.dim != self.ambient_dim:
            raise DimensionMismatch("vector dimension mismatch")
        if v.is_zero():
            return Containment.BOUNDARY
        if self._facets is not None:
            least = min(self._slots(scaled_ints(v)[0]))
            if least < 0:
                return Containment.OUTSIDE
            return Containment.BOUNDARY if least == 0 else Containment.INSIDE
        # the a with v + a*total in the cone form [a*, oo): total is
        # interior and -total is not in the cone (see the module docstring)
        res = self._ray_lp(v, [sum(col) for col in zip(*self._gens_int)])
        if res.status is not LPStatus.OPTIMAL:
            raise InternalError(f"membership ray LP is {res.status.value}")
        k = len(self._gens_int)
        a = res.x[k] - res.x[k + 1]
        if a > 0:
            return Containment.OUTSIDE
        return Containment.INSIDE if a < 0 else Containment.BOUNDARY

    def express_nonneg(self, v: VecQ) -> tuple[Fraction, ...] | None:
        """A nonnegative combination of the generators equal to v, or None.

        This is the LP feasibility oracle the membership classification is
        tested against.
        """
        if v.dim != self.ambient_dim:
            raise DimensionMismatch("vector dimension mismatch")
        gens = self._gens_int
        a_rows = [[g[t] for g in gens] for t in range(self.ambient_dim)]
        res = solve_lp(a_rows, list(v.entries), [0] * len(gens))
        if res.status is LPStatus.INFEASIBLE:
            return None
        return res.x

    # -- strictness ------------------------------------------------------------

    def is_strict(self) -> bool:
        """True iff the cone contains no line, that is, no nonzero
        nonnegative combination of the generators vanishes: one LP, the
        check the constructor runs."""
        gens = self._gens_int
        d = self.ambient_dim
        k = len(gens)
        a_rows = [[g[t] for g in gens] for t in range(d)] + [[1] * k]
        return solve_lp(a_rows, [0] * d + [1], [0] * k).status is LPStatus.INFEASIBLE

    # -- faces ---------------------------------------------------------------

    def minimal_face(self, v: VecQ) -> FaceQ:
        """The minimal supported face containing v: the face cut out by all
        facets vanishing at v.  v = 0 returns the face {0} without forcing
        facet enumeration.

        One packed product both rejects v (a negative slot) and marks the
        facets vanishing at v (its zero slots); a generator is in the face
        iff it vanishes on all of them.  The last boundary point that
        `min_a_with_point` returned is read from its slot instead."""
        if v.dim != self.ambient_dim:
            raise DimensionMismatch("vector dimension mismatch")
        if self._point is not None and self._point[0] == v:
            return self._point[1]
        if v.is_zero():
            return FaceQ(self, frozenset(), 0)
        sl = self._slots(scaled_ints(v)[0])
        if min(sl) < 0:
            raise OutsideCone(f"{v!r} is outside the cone")
        # every generator when no facet vanishes at v
        every = (1 << len(self._gens_int)) - 1
        return self._face(reduce(and_, compress(self._facet_gen_masks, map(not_, sl)), every))[0]

    def _face(self, mask: int) -> tuple[FaceQ, Sequence[int], list[Cell], tuple[int, ...] | None]:
        """The memo entry (face, R, cells, duals) of the face whose
        generators G_F are the set bits of mask, read before F is tested.  A
        simplicial face (G_F independent) has R every coordinate and duals[i]
        a facet f_j holding every generator of F but its i-th, g_j; any
        other face has duals None and R the pivot coordinate rows of G_F, by
        one elimination.  A full memo drops the simplicial faces first."""
        entry = self._faces.get(mask)
        if entry is not None:
            return entry
        inside, rest = [], mask
        while rest:
            inside.append((rest & -rest).bit_length() - 1)
            rest &= rest - 1
        duals = self._duals(inside)
        if duals is not None:
            entry = FaceQ(self, frozenset(inside), len(inside)), range(self.ambient_dim), [], duals
        else:
            gens = self._gens_int
            rows = tuple(pivot_columns([[gens[j][t] for j in inside] for t in range(self.ambient_dim)]))
            entry = FaceQ(self, frozenset(inside), len(rows)), rows, [], None
        if len(self._faces) >= FACE_MEMO_BOUND:
            self._drop_simplicial()
        self._faces[mask] = entry
        return entry

    def _drop_simplicial(self):
        """Drop the memo's simplicial faces; empty it if the others fill it."""
        kept = {m: e for m, e in self._faces.items() if e[3] is None}
        self._faces = kept if len(kept) < FACE_MEMO_BOUND else {}

    def _duals(self, inside: list[int]) -> tuple[int, ...] | None:
        """Per generator g_j of the face F with generators `inside`, the
        first facet f_j in the stored order that contains every other
        generator of F and not g_j; None when some g_j has none, which
        happens iff G_F is dependent.  With every f_j, f_j.g_i = 0 for
        i != j and f_j.g_j > 0, so G_F is independent; conversely each
        cone(G_F minus g_j) of a simplicial face is a face of the cone, the
        cut of the facets that contain it, and g_j is not in it.  Prefix and
        suffix ANDs of the generators' facet masks give each f_j in O(|F|)
        operations."""
        masks = [self._gen_facet_masks[j] for j in inside]
        before = every = (1 << len(self._facets)) - 1
        # after[i]: the AND of the masks after the i-th
        after = list(accumulate(reversed(masks), and_, initial=every))[-2::-1]
        duals = []
        for m, rest in zip(masks, after):
            others = before & rest & ~m
            if not others:
                return None
            duals.append((others & -others).bit_length() - 1)
            before &= m
        return tuple(duals)

    # -- ray optimization ----------------------------------------------------

    def min_a_with_point(
        self, base: VecQ, direction: VecQ
    ) -> tuple[Fraction, VecQ, tuple[Fraction, ...]] | None:
        """The least a, the boundary point base + a*direction and a witness
        as in `min_a_with_witness`; None unless direction is interior.  With
        the facets built, two packed products give a and the point's face
        (see the module docstring), and the witness is read off the first
        of the face's cells that holds the point, else off a new cell, and
        checked in integers.  Without the facets, `contains` and the ray LP
        answer: a alone never forces them."""
        if base.dim != self.ambient_dim or direction.dim != self.ambient_dim:
            raise DimensionMismatch("ray data dimension mismatch")
        if self._facets is None:
            if self.contains(direction) is not Containment.INSIDE:
                return None
            a, witness = self.min_a_with_witness(base, direction)
            return a, base + a * direction, witness
        vl, dl = scaled_ints(direction)
        if self._base is None or self._base[0] != base:
            vk, dk = scaled_ints(base)
            self._base = base, vk, dk, self._groups(self._slots(vk))
        _, vk, dk, groups = self._base
        sl, masks = self._packed.products(vl), self._facet_gen_masks
        # per group: -f.K, the f.L of its best facet and its bounds (see the
        # module docstring); L is interior iff the least f.L of every group
        # is positive
        tops = []
        for n, lo, hi in groups:
            ls = sl[lo:hi]
            least = min(ls)
            if least <= 0:
                return None
            tops.append((n, least if n >= 0 else max(ls), lo, hi))
        num, den = tops[0][:2]
        for n, l, _, _ in tops:
            if n * den > num * l:  # l, den > 0
                num, den = n, l
        # the facets reaching a: a whole group with f.K = 0, else the
        # facets of a group with its best f.L
        mask = (1 << len(self._gens_int)) - 1
        for n, l, lo, hi in tops:
            if n * den == num * l:
                if not n:
                    mask = reduce(and_, masks[lo:hi], mask)
                    continue
                for i in positions(sl, l, lo, hi):
                    mask &= masks[i]
        scale = den * dk
        face, rows, cells, duals = self._face(mask)
        # scale*(a*direction + base) in integers
        p = [num * l + den * k for l, k in zip(vl, vk)]
        pr = p if len(rows) == self.ambient_dim else [p[t] for t in rows]
        try:
            # the stored cells, most recently used first, then a new one
            for i, (basis, det, inverse, coords) in enumerate(cells):
                # G_B lam = p, lam = inverse p[R] / det: a hit iff lam >= 0
                lam = [idot(r, pr) for r in inverse]
                if min(lam, default=0) >= 0:
                    break
            else:
                if duals is not None and cells:
                    raise InternalError("the dual facets of a simplicial face miss its point")
                i = len(cells)
                basis, det, inverse, coords = self._new_cell(face, rows, pr, duals)
                lam = [idot(r, pr) for r in inverse]
            check_witness(coords, lam, det, p)
        except InternalError:
            # no face with a failing cell stays memoized
            self._faces.pop(mask, None)
            raise
        if i == len(cells):
            cells.append((basis, det, inverse, coords))
        if i:
            # to the front; at most |F| cells, the least recently used goes
            cells.insert(0, cells.pop(i))
            del cells[len(face.generators_in_face):]
        witness = [Fraction(0)] * len(self._gens_int)
        for j, x in zip(basis, lam):
            witness[j] = Fraction(x, det * scale)
        point = VecQ.from_scaled(p, scale)
        self._point = point, face
        return Fraction(num * dl, scale), point, tuple(witness)

    def _new_cell(self, face: FaceQ, rows: Sequence[int], pr: list[int], duals: tuple[int, ...] | None) -> Cell:
        """A cell of the face for the point with rows pr, as none of its
        cells holds it: a simplicial face's one cell, from its dual facets,
        or else the final basis of the face LP on the rows R of G_F and pr,
        which imply the others as the point lies in span(G_F)."""
        basis = sorted(face.generators_in_face)
        gens = self._gens_int
        if duals is not None:
            facets = [self._facets[f] for f in duals]
            dots = [idot(f, gens[j]) for f, j in zip(facets, basis)]
            if min(dots, default=1) <= 0:
                raise InternalError("a dual facet of a simplicial face misses its generator")
            det = lcm(*dots)
            inverse = [f if x == det else [det // x * v for v in f] for f, x in zip(facets, dots)]
        else:
            res = solve_lp([[gens[j][t] for j in basis] for t in rows], pr, [0] * len(basis))
            if res.status is not LPStatus.OPTIMAL:
                raise InternalError(f"face witness LP is {res.status.value}")
            basis = [basis[j] for j in sorted(res.basis)]
            det, inverse = scaled_inverse([[gens[j][t] for j in basis] for t in rows])
            if inverse is None:
                raise InternalError("the face LP's basis is singular")
        coords = [_shared_row(r) for r in zip(*[gens[j] for j in basis])]
        return tuple(basis), det, inverse, coords or [()] * self.ambient_dim

    def _groups(self, sk: Sequence[int]) -> list[tuple[int, int, int]]:
        """Given every f.K, store the facets stably ordered by f.K; per group
        of equal f.K, its -f.K and its bounds [lo, hi) in that order."""
        order = sorted(range(len(sk)), key=sk.__getitem__)
        groups, lo = [], 0
        for k, run in groupby(order, key=sk.__getitem__):
            hi = lo + len(list(run))
            groups.append((-k, lo, hi))
            lo = hi
        self._store([(self._facets[j], self._facet_gen_masks[j]) for j in order])
        self._drop_simplicial()
        return groups

    def min_a_with_witness(
        self, base: VecQ, direction: VecQ
    ) -> tuple[Fraction, tuple[Fraction, ...]]:
        """The least a with base + a*direction in the cone, by the ray LP,
        and a nonnegative generator combination equal to that point,
        checked in integers as on the facet route."""
        if base.dim != self.ambient_dim or direction.dim != self.ambient_dim:
            raise DimensionMismatch("ray data dimension mismatch")
        k = len(self._gens_int)
        res = self._ray_lp(base, direction)
        if res.status is LPStatus.INFEASIBLE:
            raise Infeasible("ray never meets the cone")
        if res.status is LPStatus.UNBOUNDED:
            raise UnboundedBelow("no finite minimum along the ray; direction is not big")
        a = res.x[k] - res.x[k + 1]
        lam, det = scaled_ints(res.x[:k])
        p, scale = scaled_ints(base + a * direction)
        check_witness(list(zip(*self._gens_int)), [scale * x for x in lam], det, p)
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
    order."""
    return list(c.facets)


def contains(c: ConeQ, v: VecQ) -> Containment:
    return c.contains(v)


def minimal_face(c: ConeQ, v: VecQ) -> FaceQ:
    return c.minimal_face(v)


def min_a_on_ray(c: ConeQ, base: VecQ, direction: VecQ) -> Fraction:
    return c.min_a_with_witness(base, direction)[0]


def is_strict(c: ConeQ) -> bool:
    return c.is_strict()
