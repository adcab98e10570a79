"""Del Pezzo surface models and the surface-side invariant pipeline.

Models live in the basis (H, E_1, ..., E_r) of the blow-up of the plane in r
general points (general position throughout: no (-2)-curves), with
intersection form diag(1, -1, ..., -1) and canonical class -3H + sum E_i.
The plane itself, the blow-up in one point, and the quadric surface get
explicit one/two-ray cones; for 1 <= degree <= 7 the effective cone is
generated by the enumerated negative curves.  A surface is its
`VarietyModel` (`DelPezzoModel`), built once per degree by `del_pezzo` and
`quadric_surface`; the surface functions below take any model with a form
and read only the model they are given.

The degree-b computation runs twice in this package: polyhedrally (minimal
supported face) and through the Zariski decomposition case split implemented
here (`surface`, one memoized answer per (model, bundle) holding the case,
b and the balanced verdict); the test suite drives both on random big
bundles and demands exact agreement.

The Zariski decomposition (`zariski_for_variety`, the one entry) reads the
negative generators of the asked model's own effective cone and its own
form, built into integers once per model (`_surface_curves`), with each
curve's self-intersection and, built on first use, the bitmask of the
curves it meets.  The kernel (`_zariski`) solves each support's Gram
system exactly.  On a del Pezzo surface a negative-definite support is a
set of pairwise disjoint (-1)-curves (two meeting ones have the Gram minor
1 - m^2 <= 0): the meet masks show it, its Gram matrix is -I, and the
solve reads the self-intersections with no Gram entry built.  A support
whose curves meet, on a raw surface, takes its Gram matrix and one
fraction-free inverse.  On a del Pezzo model whose generators are all
(-1)-curves (degrees 1-7) it runs before any membership test, because a
run that succeeds proves the class pseudo-effective: P meets every
generator non-negatively, so P is nef; a nef class is pseudo-effective
(the nef cone is the dual of the effective cone and lies inside it); and
N is a nonnegative combination of curves.  A failing run always asks the cone
whether the class was outside it.

The same decomposition of a boundary class p = aL + K = P + N, N = sum
mu_i C_i, gives the minimal face of p on a del Pezzo surface of degree at
most 7 (Manin, Cubic Forms, 1974; Dolgachev, Classical Algebraic Geometry,
2012, ch. 8), with a certificate that `surface_face` checks in integers:
a functional s, nonnegative on every generator, vanishing exactly on the
face and at p, and a witness of p positive on every generator of the face.

- P = 0: the C_i are pairwise disjoint (-1)-curves and the face is
  cone(C_1, ..., C_n).  s = -K + sum C_i, the pullback of -K_Y from the
  contraction X -> Y of the C_i, has s.C_i = 0 and s.C = 1 + sum C_i.C >= 1
  on every other (-1)-curve C; the witness is N.  (p = 0 gives the face
  {0} and s = -K.)
- P != 0: P = t c for a conic class c (c^2 = 0, -K.c = 2) and t > 0, and the
  face is the facet c^perp, whose generators are the components of the
  reducible fibres of |c|, pairs E + E' = c of curves meeting each other
  and no other component.  s = c, and the witness N + (2t / #components)
  sum of the components recombines to N + t c.

`invariants.b_invariant` reads b off this face on the degree-1 surface,
whose cone has 19 440 facets; degrees 2-7 keep the polyhedral face, so
that the two b computations above stay independent.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import prod
from typing import NamedTuple

from . import invariants
from .cones import ConeQ, Containment, FaceQ, check_witness
from .errors import (
    CurveInExcludedLocus,
    DegreeOutOfRange,
    DimensionMismatch,
    InternalError,
    InternalNonTermination,
    InvalidModel,
    NonPositiveDegree,
    NotPseudoEffective,
)
from .invariants import MEMO_BOUND, DelPezzo, VarietyModel
from .qlinalg import MatQ, PackedRows, VecQ, as_rat, idot, scaled_ints, scaled_inverse, span_dim


@lru_cache(maxsize=None)
def enumerate_negative_curves(degree: int) -> tuple[VecQ, ...]:
    """All classes aH - sum b_i E_i with self-intersection -1 and
    anticanonical degree 1, by exhaustive search.

    The search picks b_1, b_2, ... in turn and needs sum b = 3a - 1 and
    sum b^2 = a^2 + 1.  A branch with `rem` entries left, which still need
    `need` in the sum and at most `room` in the squares, is cut when
    rem * room < need^2: by Cauchy-Schwarz (sum b)^2 <= rem * sum b^2 over
    the remaining entries, so no completion exists and the cut is exact.
    Over all r entries the same cut, r(a^2 + 1) >= (3a - 1)^2, holds for a
    from 0 up to 1, 1, 1, 2, 2, 3, 7 (r = 2..8) and fails beyond.
    """
    if not 1 <= degree <= 7:
        raise DegreeOutOfRange(f"negative-curve enumeration needs degree in 1..7, got {degree}")
    r = 9 - degree
    found: list[tuple[int, ...]] = []
    a = 0
    while r * (a * a + 1) >= (3 * a - 1) ** 2:
        target_sum = 3 * a - 1
        target_sq = a * a + 1
        bmax = a if a >= 1 else 0

        def rec(i: int, s: int, sq: int, prefix: list[int]):
            if sq > target_sq:
                return
            if i == r:
                if s == target_sum and sq == target_sq:
                    found.append((a,) + tuple(-b for b in prefix))
                return
            rem = r - i
            if s + rem * bmax < target_sum or s - rem > target_sum:
                return
            need = target_sum - s
            if rem * (target_sq - sq) < need * need:
                return
            for b in range(-1, bmax + 1):
                prefix.append(b)
                rec(i + 1, s + b, sq + b * b, prefix)
                prefix.pop()

        rec(0, 0, 0, [])
        a += 1
    found.sort()
    return tuple(VecQ(f) for f in found)


class DelPezzoModel(VarietyModel):
    """A del Pezzo surface is its `VarietyModel`: the fields are built once
    from the degree, and `provenance` keeps the degree and the quadric flag.
    `variety()` returns the model itself."""

    __slots__ = ()

    def __new__(cls, degree: int, quadric: bool = False):
        if quadric:
            if degree != 8:
                raise DegreeOutOfRange("the quadric surface has degree 8")
            form = MatQ([[0, 1], [1, 0]])
            canonical = VecQ([-2, -2])
            gens = (VecQ([1, 0]), VecQ([0, 1]))
            name = "quadric-surface"
        else:
            if not 1 <= degree <= 9:
                raise DegreeOutOfRange(f"degree must be 1..9, got {degree}")
            r = 9 - degree
            form = MatQ(
                [[(1 if i == 0 else -1) if i == j else 0 for j in range(r + 1)]
                 for i in range(r + 1)]
            )
            canonical = VecQ([-3] + [1] * r)
            if degree == 9:
                gens = (VecQ([1]),)
            elif degree == 8:
                gens = (VecQ([0, 1]), VecQ([1, -1]))
            else:
                gens = enumerate_negative_curves(degree)
            name = f"del-pezzo-degree-{degree}"
        rank = canonical.dim
        return super().__new__(
            cls, name, rank, canonical, ConeQ(gens, ambient_dim=rank), form,
            DelPezzo(degree, quadric),
        )

    def variety(self) -> VarietyModel:
        return self


@lru_cache(maxsize=None)
def del_pezzo(degree: int) -> DelPezzoModel:
    return DelPezzoModel(degree)


@lru_cache(maxsize=None)
def quadric_surface() -> DelPezzoModel:
    return DelPezzoModel(8, quadric=True)


class ZariskiDecomposition(NamedTuple):
    positive: VecQ
    negative_support: tuple[tuple[VecQ, Fraction], ...]

    @property
    def negative(self) -> VecQ:
        n = VecQ.zero(self.positive.dim)
        for curve, mult in self.negative_support:
            n = n + mult * curve
        return n


class SurfaceCurves(NamedTuple):
    """The negative generators of a model's effective cone with its
    intersection form, in integers, for the Zariski kernel.

    `form` is the form times the lcm of its denominators.  A positive
    multiple of the form leaves every sign, the supports and the Gram
    solutions unchanged (the Gram matrix and the right-hand side scale
    alike), so the kernel never divides by it.  `images.rows[i]` is form
    times curve i, so `images.products` pairs a class with every curve in
    one packed product.  `squares[i]` is curve i's self-intersection under
    that form, and `meets[i]` the bitmask of the other curves that curve i
    meets (bit j for curve j), None until `_meets` builds it."""

    curves: tuple[VecQ, ...]
    form: list[list[int]]
    ints: tuple[list[int], ...]
    images: PackedRows
    squares: tuple[int, ...]
    meets: list[int | None]


@lru_cache(maxsize=MEMO_BOUND)
def _surface_curves(m: VarietyModel) -> SurfaceCurves:
    """The curves of m for the kernel, built once per model: each generator
    of m's cone (a primitive integer vector) is paired with itself once,
    through its image under the scaled form, and kept iff negative."""
    if m.intersection_form is None:
        raise InvalidModel(
            f"model {m.name!r} has no intersection form; Zariski decomposition unavailable"
        )
    form = m.intersection_form.scaled_rows()[0]
    kept = []
    for g in m.eff_cone.generators:
        v = scaled_ints(g)[0]
        image = [idot(row, v) for row in form]
        square = idot(v, image)
        if square < 0:
            kept.append((g, v, image, square))
    curves, ints, images, squares = zip(*kept) if kept else ((), (), (), ())
    return SurfaceCurves(curves, form, ints, PackedRows(images), squares, [None] * len(curves))


def _meets(sc: SurfaceCurves, i: int) -> int:
    """The bitmask of the curves other than curve i that meet it: the
    nonzero slots of one packed product of curve i with every curve, taken
    on the first call and kept."""
    mask = sc.meets[i]
    if mask is None:
        pairs = sc.images.products(sc.ints[i])
        mask = sc.meets[i] = sum([1 << j for j in compress(range(len(pairs)), pairs)]) & ~(1 << i)
    return mask


def _zariski(sc: SurfaceCurves, d: VecQ) -> ZariskiDecomposition:
    """Iterative Zariski decomposition against a fixed negative-curve list,
    in integers.

    Maintain a support set; each round adds every curve the current residual
    meets negatively and re-solves the Gram system so the residual is
    orthogonal to the support.  A non-unique or non-positive Gram solution
    would contradict negative definiteness and trips the internal guard.

    d is scaled once to D = den * d by the lcm of its denominators.  With
    det * G^-1 for the support's Gram matrix G, the multiplicities are
    y / (det * den) for the integer y = det * G^-1 (D . F c_i), and the
    residual is carried as the integer vector det * den * (d - N) =
    det * D - sum y_i c_i.  The curves' meet masks (`_meets`) decide
    whether the support is pairwise disjoint, as every del Pezzo support
    is.  Then G is diagonal, its entries the self-intersections g_ii, and
    det = |prod g_ii| and y_i = (det / g_ii) rhs_i are read off it with no
    Gram entry built; a support whose curves meet, on a raw surface, takes
    its Gram matrix and `_gram_solve`.  Each round's scan pairs the
    residual with every curve in one packed product (`qlinalg.PackedRows`;
    one dot per curve once the products may pass 63 bits), and the first
    scan, of D, holds every right-hand side D . F c_i.  The residual meets
    each support curve in exactly 0, as det * rhs - G y = 0, so a new curve
    is never in the support, which therefore grows strictly, bounded by the
    curve count; a nonzero product on a support curve means a broken solve
    and trips the guard.  Fractions are built only for the result.  The
    caller decides pseudo-effectivity.
    """
    if d.dim != len(sc.form):
        raise DimensionMismatch("vector dimension mismatch")
    big_d, den = scaled_ints(d)
    ints, images, squares = sc.ints, sc.images.rows, sc.squares
    support: list[int] = []
    ys: list[int] = []
    det = 1
    residual = big_d
    first = meets = sc.images.products(big_d)
    while True:
        if any([meets[i] for i in support]):
            raise InternalNonTermination("the residual meets a support curve")
        if min(meets, default=0) >= 0:
            break
        # the curves with residual . F c_i < 0
        support.extend(compress(range(len(ints)), map((0).__gt__, meets)))
        rhs = [first[i] for i in support]
        every = sum([1 << i for i in support])
        if any([_meets(sc, i) & every for i in support]):
            det, ys = _gram_solve([[idot(ints[i], images[j]) for j in support] for i in support], rhs)
        else:
            det = abs(prod([squares[i] for i in support]))
            ys = [det // squares[i] * r for i, r in zip(support, rhs)]
        if min(ys) <= 0:
            raise InternalNonTermination("nonpositive multiplicity in support")
        residual = [det * x for x in big_d]
        for y, i in zip(ys, support):
            residual = [r - y * c for r, c in zip(residual, ints[i])]
        meets = sc.images.products(residual)
    scale = det * den
    return ZariskiDecomposition(
        positive=VecQ.from_scaled(residual, scale),
        negative_support=tuple([(sc.curves[i], Fraction(y, scale)) for i, y in zip(support, ys)]),
    )


def _gram_solve(gram: list[list[int]], rhs: list[int]) -> tuple[int, list[int]]:
    """det = |det G| > 0 and the integer y = det * G^-1 rhs for the square
    integer Gram matrix G of a support whose curves meet, by one
    `qlinalg.scaled_inverse`."""
    det, inverse = scaled_inverse(gram)
    if det == 0:
        raise InternalNonTermination("support Gram system is degenerate")
    return det, [idot(row, rhs) for row in inverse]


def _require_pseudo_effective(cone: ConeQ, d: VecQ) -> None:
    if cone.contains(d) is Containment.OUTSIDE:
        raise NotPseudoEffective("class is not pseudo-effective")


@lru_cache(maxsize=MEMO_BOUND)
def zariski_for_variety(m: VarietyModel, d: VecQ) -> ZariskiDecomposition:
    """Zariski decomposition d = P + N on any model with an intersection
    form, against the negative generators of its own effective cone.  The
    last MEMO_BOUND results are kept per (model, class): the surface case
    split and the rigidity of the same boundary class share one
    decomposition.

    On a del Pezzo model whose generators are all negative (degrees 1-7),
    membership is tested only when the kernel fails (see the module
    docstring); elsewhere it is tested first, and again on a failure."""
    sc = _surface_curves(m)
    if not (isinstance(m.provenance, DelPezzo) and len(sc.curves) == len(m.eff_cone.generators)):
        _require_pseudo_effective(m.eff_cone, d)
    try:
        return _zariski(sc, d)
    except InternalNonTermination:
        _require_pseudo_effective(m.eff_cone, d)
        raise


def zariski_decompose(m: VarietyModel, d: VecQ) -> ZariskiDecomposition:
    """Zariski decomposition on a surface model: the memoized entry."""
    return zariski_for_variety(m, d)


def negative_classes(m: VarietyModel) -> tuple[VecQ, ...]:
    """Effective-cone generators of negative self-intersection."""
    return _surface_curves(m).curves


class SurfaceCase(Enum):
    BASE_POINT = "base_point"    # positive part zero
    BASE_CURVE = "base_curve"    # positive part a nonzero square-zero nef class


class SurfaceAnswer(NamedTuple):
    case: SurfaceCase
    b: int
    n_components: int
    balanced: bool
    fiber_class: VecQ | None     # primitive fiber class witness when unbalanced in the fibration case


@lru_cache(maxsize=MEMO_BOUND)
def surface(m: VarietyModel, bundle: VecQ) -> SurfaceAnswer:
    """b and the balanced verdict of a bundle on m, any model with a form,
    from the Zariski decomposition of its boundary class a*L + K.  A zero
    positive part gives b = rank - #support, and L is balanced (the class
    is rigid).  A nonzero one, necessarily square-zero and nef, gives b = 1,
    and the general fiber realizes the same pair (a, 1): L is unbalanced,
    with the fiber's primitive class as the witness.  The last MEMO_BOUND
    answers are kept per (model, bundle)."""
    dec = zariski_for_variety(m, invariants.fujita(m, bundle).boundary_class)
    n = len(dec.negative_support)
    if dec.positive.is_zero():
        return SurfaceAnswer(SurfaceCase.BASE_POINT, m.ns_rank - n, n, True, None)
    if m.pair(dec.positive, dec.positive) != 0:
        raise InternalNonTermination(
            "positive part of a boundary class must have square zero"
        )
    return SurfaceAnswer(SurfaceCase.BASE_CURVE, 1, n, False, dec.positive.primitive())


def surface_b(m: VarietyModel, bundle: VecQ) -> SurfaceAnswer:
    """`surface(m, bundle)`; kept only because the benchmark names it."""
    return surface(m, bundle)


def surface_balanced(m: VarietyModel, bundle: VecQ) -> SurfaceAnswer:
    """`surface(m, bundle)`; kept only because the benchmark names it."""
    return surface(m, bundle)


class SurfaceFace(NamedTuple):
    face: FaceQ                     # the minimal face of the class in the model's cone
    functional: VecQ                # s: s.g >= 0 on every generator, 0 exactly on the face, s.p = 0
    witness: tuple[Fraction, ...]   # the class from the generators, weights positive exactly on the face


def surface_face(m: VarietyModel, p: VecQ) -> SurfaceFace:
    """The minimal face of a boundary class p in the effective cone of a
    del Pezzo model of degree 1-7, read off its memoized Zariski
    decomposition p = P + N, N = sum mu_i C_i, with its certificate, checked
    in integers (see the module docstring); a failed check is an
    InternalError.

    P = 0: s = -K + sum C_i, and the witness is N.  P = t c, c a conic:
    s = c, whose zero set is the components of the reducible fibres of |c|,
    each meeting one other, its partner E' = c - E; the witness is N plus
    2t / #components on each component."""
    sc = _surface_curves(m)
    if len(sc.curves) != len(m.eff_cone.generators):
        raise InvalidModel(f"model {m.name!r} has effective generators that are not negative curves")
    dec = zariski_for_variety(m, p)
    weights = [Fraction(0)] * len(sc.curves)
    for curve, mult in dec.negative_support:
        weights[sc.curves.index(curve)] = mult
    fibred = not dec.positive.is_zero()
    if fibred:
        s = dec.positive.primitive()
        if m.pair(s, s) != 0 or m.pair(m.canonical, s) != -2:
            raise InternalError("the positive part of a boundary class is not a multiple of a conic")
    else:
        s = sum([c for c, _ in dec.negative_support], -1 * m.canonical)
    si = scaled_ints(s)[0]
    values = sc.images.products(si)
    zeros = [j for j, x in enumerate(values) if not x]
    if fibred:
        # the zero set of the conic s: the fibre components, each paired
        # with the one component it meets
        t = next(Fraction(x, y) for x, y in zip(dec.positive, si) if y)
        every = sum([1 << j for j in zeros])
        for i in zeros:
            partner = _meets(sc, i) & every
            j = partner.bit_length() - 1
            if partner.bit_count() != 1 or [x + y for x, y in zip(sc.ints[i], sc.ints[j])] != si:
                raise InternalError("a fibre component of the conic has no partner summing to it")
            weights[i] += 2 * t / len(zeros)
    # the certificate: s >= 0 on every generator and 0 exactly on the face,
    # s.p = 0, and the witness, positive exactly on the face, sums to p
    lam, den = scaled_ints(weights)
    face = [j for j, x in enumerate(lam) if x]
    if min(values, default=0) < 0 or zeros != face:
        raise InternalError("s is negative on a generator or vanishes off the face")
    pi, pq = scaled_ints(p)
    if idot([idot(row, si) for row in sc.form], pi):
        raise InternalError("s does not vanish at the boundary class")
    check_witness(list(zip(*sc.ints)), [pq * x for x in lam], den, pi)
    dim = span_dim([sc.ints[j] for j in face])
    return SurfaceFace(FaceQ(m.eff_cone, frozenset(face), dim), s, tuple(weights))


def curve_fujita(deg_on_curve) -> Fraction:
    """a(C, L|_C) = 2/deg for a rational curve; b is always 1."""
    deg = as_rat(deg_on_curve)
    if deg <= 0:
        raise NonPositiveDegree(f"curve degree must be positive, got {deg}")
    return Fraction(2) / deg


def weak_balance_curve_check(m: VarietyModel, bundle: VecQ, curve: VecQ) -> bool:
    """Check a(C, L|_C) <= a(X, L) for an irreducible rational curve class
    outside the excluded locus.

    Exceptional classes are rejected; so is any class of anticanonical
    degree < 2, which covers the degree-one anticanonical classes.  For
    degree 1 the singular rational members of the anticanonical pencil are
    not separate classes, so excluding them is the caller's responsibility.
    """
    if curve in negative_classes(m):
        raise CurveInExcludedLocus("exceptional curve classes are excluded")
    k_deg = m.pair(-1 * m.canonical, curve)
    if k_deg < 2:
        raise CurveInExcludedLocus(
            f"anticanonical degree {k_deg} < 2 puts the class in the excluded locus"
        )
    a_x = invariants.fujita(m, bundle).a
    a_c = curve_fujita(m.pair(bundle, curve))
    return a_c <= a_x
