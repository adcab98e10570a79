"""Del Pezzo surface models and the surface-side invariant pipeline.

Models live in the basis (H, E_1, ..., E_r) of the blow-up of the plane in r
general points (general position throughout: no (-2)-curves), with
intersection form diag(1, -1, ..., -1) and canonical class -3H + sum E_i.
The plane itself, the blow-up in one point, and the quadric surface get
explicit one/two-ray cones; for 1 <= degree <= 7 the effective cone is
generated by the enumerated negative curves.

The degree-b computation runs twice in this package: polyhedrally (minimal
supported face) and through the Zariski decomposition case split implemented
here; the test suite drives both on random big bundles and demands exact
agreement.

The Zariski decomposition runs in integers (`_zariski`): the class is scaled
once by the lcm of its denominators, each curve's image under the form is
precomputed, and the Gram system of the support is solved by one
fraction-free inverse.  Where the (-1)-curves generate the effective cone
(degrees 1-7) the kernel runs before any membership test, because a run that
succeeds proves the class pseudo-effective: P meets every generator
non-negatively, so P is nef; a nef class is pseudo-effective (the nef cone
is the dual of the effective cone and lies inside it); and N is a
nonnegative combination of curves.  Only a failing run asks the cone whether
the class was outside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from . import invariants
from .cones import ConeQ, Containment, _idot
from .errors import (
    CurveInExcludedLocus,
    DegreeOutOfRange,
    DimensionMismatch,
    InternalNonTermination,
    InvalidModel,
    NonPositiveDegree,
    NotPseudoEffective,
)
from .invariants import MEMO_BOUND, DelPezzo, VarietyModel
from .qlinalg import MatQ, VecQ, as_rat, primitive_int, scaled_inverse


@lru_cache(maxsize=None)
def enumerate_negative_curves(degree: int, search_bound: int = 6) -> tuple[VecQ, ...]:
    """All classes aH - sum b_i E_i with self-intersection -1 and
    anticanonical degree 1, by exhaustive search with 0 <= a <= search_bound.

    The classical bound is a <= 6; the regression suite re-runs the search
    with bound 8 and checks the count is stable.

    The search picks b_1, b_2, ... in turn and needs sum b = 3a - 1 and
    sum b^2 = a^2 + 1.  A branch with `rem` entries left, which still need
    `need` in the sum and at most `room` in the squares, is cut when
    rem * room < need^2: by Cauchy-Schwarz (sum b)^2 <= rem * sum b^2 over
    the remaining entries, so no completion exists and the cut is exact.
    """
    if not 1 <= degree <= 7:
        raise DegreeOutOfRange(f"negative-curve enumeration needs degree in 1..7, got {degree}")
    r = 9 - degree
    found: list[tuple[int, ...]] = []
    for a in range(0, search_bound + 1):
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
    found.sort()
    return tuple(VecQ(f) for f in found)


class DelPezzoModel:
    """A del Pezzo surface presented on its Neron-Severi lattice."""

    def __init__(self, degree: int, quadric: bool = False):
        if quadric:
            if degree != 8:
                raise DegreeOutOfRange("the quadric surface has degree 8")
            self.degree = 8
            self.quadric = True
            self.rank = 2
            self.intersection_form = MatQ([[0, 1], [1, 0]])
            self.canonical = VecQ([-2, -2])
            self.negative_curves: tuple[VecQ, ...] = ()
            self.eff_generators = (VecQ([1, 0]), VecQ([0, 1]))
            self.name = "quadric-surface"
        else:
            if not 1 <= degree <= 9:
                raise DegreeOutOfRange(f"degree must be 1..9, got {degree}")
            self.degree = degree
            self.quadric = False
            r = 9 - degree
            self.rank = r + 1
            self.intersection_form = MatQ(
                [[(1 if i == 0 else -1) if i == j else 0 for j in range(r + 1)]
                 for i in range(r + 1)]
            )
            self.canonical = VecQ([-3] + [1] * r)
            if degree == 9:
                self.negative_curves = ()
                self.eff_generators = (VecQ([1]),)
            elif degree == 8:
                self.negative_curves = (VecQ([0, 1]),)
                self.eff_generators = (VecQ([0, 1]), VecQ([1, -1]))
            else:
                self.negative_curves = enumerate_negative_curves(degree)
                self.eff_generators = self.negative_curves
            self.name = f"del-pezzo-degree-{degree}"
        # on degrees 1-7 the negative curves are the effective-cone generators
        self.curves_generate_cone = self.eff_generators is self.negative_curves
        self.zariski_curves = SurfaceCurves(self.negative_curves, self.intersection_form)
        self._variety: VarietyModel | None = None

    @property
    def r(self) -> int:
        return 0 if self.quadric else 9 - self.degree

    def pair(self, u: VecQ, v: VecQ) -> Fraction:
        ue, ve = u.entries, v.entries
        if self.quadric:
            return ue[0] * ve[1] + ue[1] * ve[0]
        s = ue[0] * ve[0]
        for a, b in zip(ue[1:], ve[1:]):
            s -= a * b
        return s

    def variety(self) -> VarietyModel:
        if self._variety is None:
            self._variety = VarietyModel(
                name=self.name,
                ns_rank=self.rank,
                canonical=self.canonical,
                eff_cone=ConeQ(self.eff_generators, ambient_dim=self.rank),
                intersection_form=self.intersection_form,
                provenance=DelPezzo(self.degree, self.quadric),
            )
        return self._variety

    def __repr__(self):
        return f"DelPezzoModel({self.name})"


@lru_cache(maxsize=None)
def del_pezzo(degree: int) -> DelPezzoModel:
    return DelPezzoModel(degree)


@lru_cache(maxsize=None)
def quadric_surface() -> DelPezzoModel:
    return DelPezzoModel(8, quadric=True)


@dataclass(frozen=True)
class ZariskiDecomposition:
    positive: VecQ
    negative_support: tuple[tuple[VecQ, Fraction], ...]

    @property
    def negative(self) -> VecQ:
        n = VecQ.zero(self.positive.dim)
        for curve, mult in self.negative_support:
            n = n + mult * curve
        return n


class SurfaceCurves:
    """A fixed list of negative curves with the intersection form, in
    integers, for the Zariski kernel.

    `form` is the form times the lcm of its denominators.  A positive
    multiple of the form leaves every sign, the supports and the Gram
    solutions unchanged (the Gram matrix and the right-hand side scale
    alike), so the kernel never divides by it.  `images[i]` is form times
    curve i, so a class pairs with a curve in one integer dot product."""

    __slots__ = ("curves", "form", "ints", "images")

    def __init__(self, curves: Sequence[VecQ], form: MatQ):
        rows = form.row_list()
        den = lcm(*[x.denominator for row in rows for x in row])
        self.curves = tuple(curves)
        self.form = [[x.numerator * (den // x.denominator) for x in row] for row in rows]
        # cone generators and enumerated curves are integer vectors
        assert all(x.denominator == 1 for c in self.curves for x in c)
        self.ints = [[x.numerator for x in c] for c in self.curves]
        self.images = [self.image(c) for c in self.ints]

    def image(self, v: Sequence[int]) -> list[int]:
        """form times the integer vector v."""
        return [_idot(row, v) for row in self.form]


def _zariski(sc: SurfaceCurves, d: VecQ) -> ZariskiDecomposition:
    """Iterative Zariski decomposition against a fixed negative-curve list,
    in integers.

    Maintain a support set; each round adds every curve the current residual
    meets negatively and re-solves the Gram system so the residual is
    orthogonal to the support.  The support grows strictly, bounded by the
    curve count, so termination is structural; a non-unique or non-positive
    Gram solution would contradict negative definiteness and trips the
    internal guard.

    d is scaled once to D = den * d by the lcm of its denominators.  With
    det * G^-1 from `qlinalg.scaled_inverse` of the support's Gram matrix G,
    the multiplicities are y / (det * den) for the integer y = det * G^-1
    (D . F c_i), and the residual is carried as the integer vector
    det * den * (d - N) = det * D - sum y_i c_i.  Fractions are built only
    for the result.  The caller decides pseudo-effectivity.
    """
    if d.dim != len(sc.form):
        raise DimensionMismatch("vector dimension mismatch")
    den = lcm(*[x.denominator for x in d])
    big_d = [x.numerator * (den // x.denominator) for x in d]
    ints, images = sc.ints, sc.images
    k = len(ints)
    in_support = [False] * k
    support: list[int] = []
    ys: list[int] = []
    det = 1
    residual = big_d
    rounds = 0
    while True:
        new = [i for i in range(k) if not in_support[i] and _idot(residual, images[i]) < 0]
        if not new:
            break
        rounds += 1
        if rounds > k + 1:
            raise InternalNonTermination("support exceeded the curve count")
        support.extend(new)
        for i in new:
            in_support[i] = True
        gram = [[_idot(ints[i], images[j]) for j in support] for i in support]
        det, inverse = scaled_inverse(gram)
        if det == 0:
            raise InternalNonTermination("support Gram system is degenerate")
        rhs = [_idot(big_d, images[i]) for i in support]
        ys = [_idot(row, rhs) for row in inverse]
        if any(y <= 0 for y in ys):
            raise InternalNonTermination("nonpositive multiplicity in support")
        residual = [det * x for x in big_d]
        for y, i in zip(ys, support):
            residual = [r - y * c for r, c in zip(residual, ints[i])]
    scale = det * den
    return ZariskiDecomposition(
        positive=VecQ([Fraction(r, scale) for r in residual]),
        negative_support=tuple([(sc.curves[i], Fraction(y, scale)) for i, y in zip(support, ys)]),
    )


def _require_pseudo_effective(cone: ConeQ, d: VecQ) -> None:
    if cone.contains(d) is Containment.OUTSIDE:
        raise NotPseudoEffective("class is not pseudo-effective")


@lru_cache(maxsize=MEMO_BOUND)
def zariski_decompose(m: DelPezzoModel, d: VecQ) -> ZariskiDecomposition:
    """Zariski decomposition d = P + N on a del Pezzo model.  The last
    MEMO_BOUND results are kept per (model, class): the surface case split
    and the rigidity of the same boundary class share one decomposition.

    Where the negative curves generate the effective cone (degrees 1-7),
    membership is tested only when the kernel fails (see the module
    docstring); elsewhere it is tested first."""
    cone = m.variety().eff_cone
    if m.curves_generate_cone:
        try:
            return _zariski(m.zariski_curves, d)
        except InternalNonTermination:
            _require_pseudo_effective(cone, d)
            raise
    _require_pseudo_effective(cone, d)
    return _zariski(m.zariski_curves, d)


def negative_classes(m: VarietyModel) -> tuple[VecQ, ...]:
    """Effective-cone generators of negative self-intersection."""
    return tuple(g for g in m.eff_cone.generators if m.pair(g, g) < 0)


def zariski_for_variety(m: VarietyModel, d: VecQ) -> ZariskiDecomposition:
    """Zariski decomposition on any surface-like variety model: a del Pezzo
    provenance uses its enumerated negative curves, a raw model with an
    intersection form uses its negative generators."""
    prov = m.provenance
    if isinstance(prov, DelPezzo):
        surf = quadric_surface() if prov.quadric else del_pezzo(prov.degree)
        return zariski_decompose(surf, d)
    if m.intersection_form is not None:
        _require_pseudo_effective(m.eff_cone, d)
        return _zariski(SurfaceCurves(negative_classes(m), m.intersection_form), d)
    raise InvalidModel(
        f"model {m.name!r} has no intersection form; Zariski decomposition unavailable"
    )


class SurfaceCase(Enum):
    BASE_POINT = "base_point"    # positive part zero
    BASE_CURVE = "base_curve"    # positive part a nonzero square-zero nef class


@dataclass(frozen=True)
class SurfaceCaseAnalysis:
    case: SurfaceCase
    b: int
    n_components: int


@dataclass(frozen=True)
class SurfaceBalance:
    balanced: bool
    analysis: SurfaceCaseAnalysis
    fiber_class: VecQ | None     # primitive fiber class witness when unbalanced in the fibration case


def _surface_case(m: DelPezzoModel, bundle: VecQ) -> tuple[SurfaceCaseAnalysis, VecQ]:
    """Decompose the boundary class a*L + K and split on its positive part:
    zero gives b = rank - #support, a nonzero (necessarily square-zero nef)
    class gives b = 1.  Returns the analysis and the positive part."""
    fr = invariants.fujita(m.variety(), bundle)
    dec = zariski_decompose(m, fr.boundary_class)
    n = len(dec.negative_support)
    if dec.positive.is_zero():
        return SurfaceCaseAnalysis(SurfaceCase.BASE_POINT, m.rank - n, n), dec.positive
    p = primitive_int(dec.positive)
    if _idot(p, m.zariski_curves.image(p)) != 0:
        raise InternalNonTermination(
            "positive part of a boundary class must have square zero"
        )
    return SurfaceCaseAnalysis(SurfaceCase.BASE_CURVE, 1, n), dec.positive


def surface_b(m: DelPezzoModel, bundle: VecQ) -> SurfaceCaseAnalysis:
    """The case split for b on a surface: decompose a*L + K; a vanishing
    positive part gives b = rank - #support, a nonzero one gives b = 1."""
    return _surface_case(m, bundle)[0]


def surface_balanced(m: DelPezzoModel, bundle: VecQ) -> SurfaceBalance:
    """Balanced iff the adjoint boundary class is rigid (positive part
    zero).  In the fibration case the general fiber realizes the same pair
    (a, 1), and its primitive class is returned as the witness."""
    analysis, positive = _surface_case(m, bundle)
    if analysis.case is SurfaceCase.BASE_POINT:
        return SurfaceBalance(True, analysis, None)
    return SurfaceBalance(False, analysis, positive.primitive())


def curve_fujita(deg_on_curve) -> Fraction:
    """a(C, L|_C) = 2/deg for a rational curve; b is always 1."""
    deg = as_rat(deg_on_curve)
    if deg <= 0:
        raise NonPositiveDegree(f"curve degree must be positive, got {deg}")
    return Fraction(2) / deg


def weak_balance_curve_check(m: DelPezzoModel, bundle: VecQ, curve: VecQ) -> bool:
    """Check a(C, L|_C) <= a(X, L) for an irreducible rational curve class
    outside the excluded locus.

    Exceptional classes are rejected; so is any class of anticanonical
    degree < 2, which covers the degree-one anticanonical classes.  For
    degree 1 the singular rational members of the anticanonical pencil are
    not separate classes, so excluding them is the caller's responsibility.
    """
    if curve in m.negative_curves:
        raise CurveInExcludedLocus("exceptional curve classes are excluded")
    k_deg = m.pair(-1 * m.canonical, curve)
    if k_deg < 2:
        raise CurveInExcludedLocus(
            f"anticanonical degree {k_deg} < 2 puts the class in the excluded locus"
        )
    a_x = invariants.fujita(m.variety(), bundle).a
    a_c = curve_fujita(m.pair(bundle, curve))
    return a_c <= a_x
