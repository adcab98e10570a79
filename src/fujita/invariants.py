"""Headline invariants on a generic variety model.

A `VarietyModel` packages a Neron-Severi rank, a canonical class, and a
strict finitely generated effective cone.  On top of that this module
computes the two geometric constants of the asymptotic point-count
formalism: the least multiple `a` such that a*L + K lands in the effective
cone, and the codimension `b` of the minimal supported face containing that
adjoint boundary class; plus rigidity bookkeeping and the lexicographic
balanced-verdict comparison against subvariety data.

The chain a -> boundary class a*L + K -> minimal face -> b is written once:
`fujita` takes a, the boundary class and its witness from one
`ConeQ.min_a_with_point` call (the facet route divides the integer point it
already holds instead of recomputing a*L + K in Fractions), and
`b_invariant` asks the cone's `minimal_face` for the face of that class,
whichever route the cone took, except on the degree-1 del Pezzo surface,
where the certified face of its Zariski decomposition answers with no
facets (`b_route`, fixed per model); every other caller (the (a, b) pair, the
CLI report, the fixture runner, the toric fibration cross-check) reads
theirs.  Each stage is computed once per (model, class): `fujita` and the
Zariski decomposition keep small memos of their last results, immutable
NamedTuples shared between callers, never exceptions, with a fixed bound,
and the face of the boundary point is kept by the cone, so `b_invariant`
and toric rigidity read it with no product.  Rigidity reads the asked
model's own cone and form; the provenance tag only picks the oracle.

Membership in the effective cone is asked once, by the stage that needs
it: `fujita` (is the bundle big, read off the facet product of a once the
facets exist), `SubvarietyDatum` (is the restricted bundle big) and the
rigidity route (is the class pseudo-effective).

Subvariety data (the subvariety's own model and the restricted bundle) is
explicit user input: computing restriction maps between Neron-Severi
lattices is a case-by-case geometric task, so fixtures carry the restricted
classes with them.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .cones import ConeQ, Containment, FaceQ
from .errors import (
    BigFailureOnY,
    DimensionMismatch,
    IncompatibleModels,
    InvalidModel,
    KPseudoEffective,
    NotBig,
    NotPseudoEffective,
    RigidityUndecidable,
)
from .qlinalg import MatQ, VecQ, idot, inertia, scaled_ints

DivisorClass = VecQ

# Results kept by each memo on the chain.  A fixed bound, not a setting: a
# bundle is asked for at most a few times in a row, and an unbounded memo
# would grow memory with the number of queries.
MEMO_BOUND = 16


# -- provenance tags -----------------------------------------------------------

class Raw:
    """No extra structure beyond the lattice data.  Not a tuple: an empty
    tuple would test false."""

    __slots__ = ()


class DelPezzo(NamedTuple):
    degree: int
    quadric: bool = False


class Toric(NamedTuple):
    fan: object  # toric.Fan; typed loosely to avoid an import cycle


class _ModelFields(NamedTuple):
    name: str
    ns_rank: int
    canonical: DivisorClass
    eff_cone: ConeQ
    intersection_form: MatQ | None = None
    provenance: object = Raw()


class VarietyModel(_ModelFields):
    """Rank, canonical class, effective cone, optional intersection form,
    checked on construction.

    Equality and hashing are by identity.  The cone already compares by
    identity, so field equality only ever held between models sharing one
    cone object; identity keeps the memo lookups below cheap.  `_replace`
    skips the checks, so build a changed model with the constructor.
    """

    __slots__ = ()
    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.canonical.dim != self.ns_rank:
            raise InvalidModel("canonical class dimension does not match rank")
        if self.eff_cone.ambient_dim != self.ns_rank:
            raise InvalidModel("effective cone ambient dimension does not match rank")
        form = self.intersection_form
        if form is not None:
            if form.rows != self.ns_rank or form.cols != self.ns_rank:
                raise InvalidModel("intersection form size does not match rank")
            if not form.is_symmetric():
                raise InvalidModel("intersection form must be symmetric")
            if inertia(form) != (1, self.ns_rank - 1, 0):
                raise InvalidModel("intersection form must have signature (1, rank-1)")
        return self

    def pair(self, u: DivisorClass, v: DivisorClass) -> Fraction:
        """Intersection product, when the model carries a form.  It runs in
        integers: the form's rows are scaled once per form, each class once
        per call, and one Fraction divides by the product of the scales."""
        form = self.intersection_form
        if form is None:
            raise InvalidModel(f"model {self.name!r} has no intersection form")
        if u.dim != self.ns_rank or v.dim != self.ns_rank:
            raise DimensionMismatch(f"classes of dim {u.dim} and {v.dim} on rank {self.ns_rank}")
        rows, den = form.scaled_rows()
        (iu, du), (iv, dv) = scaled_ints(u), scaled_ints(v)
        return Fraction(idot(iu, [idot(row, iv) for row in rows]), den * du * dv)

    def is_big(self, d: DivisorClass) -> bool:
        return self.eff_cone.contains(d) is Containment.INSIDE


class FujitaResult(NamedTuple):
    a: Fraction
    boundary_class: DivisorClass          # a*L + K, on the cone boundary
    witness: tuple[Fraction, ...]         # nonnegative combination in the generators


class BInvariantResult(NamedTuple):
    b: int
    face: FaceQ                           # the minimal face of the boundary class
    fujita: FujitaResult                  # the a and boundary class b was read from


class _DatumFields(NamedTuple):
    name: str
    model: VarietyModel
    restricted_bundle: DivisorClass


class SubvarietyDatum(_DatumFields):
    """A subvariety with its own model and the user-supplied restricted
    bundle, expressed in the subvariety's basis; checked on construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.restricted_bundle.dim != self.model.ns_rank:
            raise InvalidModel("restricted bundle dimension does not match model")
        if not self.model.is_big(self.restricted_bundle):
            raise BigFailureOnY(
                f"restricted bundle on {self.name!r} is not big"
            )
        return self


class BalancedClass(Enum):
    BALANCED = "balanced"
    WEAKLY_BALANCED_NOT_BALANCED = "weakly_balanced_not_balanced"
    NOT_WEAKLY_BALANCED = "not_weakly_balanced"


class BalancedVerdict(NamedTuple):
    pair_x: tuple[Fraction, int]
    pair_y: tuple[Fraction, int]
    classification: BalancedClass


# -- operations ---------------------------------------------------------------

@lru_cache(maxsize=MEMO_BOUND)
def fujita(m: VarietyModel, bundle: DivisorClass) -> FujitaResult:
    """Least rational a with a*bundle + K in the effective cone.

    Requires the bundle to be big; a <= 0 (canonical class pseudo-effective)
    is reported as an error because every verdict downstream assumes the
    uniruled setting.  The last MEMO_BOUND results are kept per (model,
    bundle).
    """
    found = m.eff_cone.min_a_with_point(m.canonical, bundle)
    if found is None:
        raise NotBig(f"bundle is not big on {m.name!r}")
    a, boundary, witness = found
    if a <= 0:
        raise KPseudoEffective(
            f"canonical class of {m.name!r} is pseudo-effective along the ray (a={a})"
        )
    return FujitaResult(a, boundary, witness)


def b_route(m: VarietyModel) -> str:
    """The route that finds the minimal face of a boundary class on m,
    fixed per model: "zariski_face" on the degree-1 del Pezzo surface,
    whose cone's 19 440 facets cost tens of seconds of DD, else
    "polyhedral", the cone's own `minimal_face`."""
    p = m.provenance
    return "zariski_face" if isinstance(p, DelPezzo) and p.degree == 1 else "polyhedral"


def b_invariant(m: VarietyModel, bundle: DivisorClass) -> BInvariantResult:
    """The chain a -> boundary class -> minimal face -> b: the codimension
    of the minimal supported face containing a*L + K, from the cone or,
    on the degree-1 del Pezzo surface, from the certified Zariski face
    (`b_route`)."""
    fr = fujita(m, bundle)
    if b_route(m) == "zariski_face":
        face = delpezzo.surface_face(m, fr.boundary_class).face
    else:
        face = m.eff_cone.minimal_face(fr.boundary_class)
    return BInvariantResult(m.ns_rank - face.span_dim, face, fr)


def invariant_pair(m: VarietyModel, bundle: DivisorClass) -> tuple[Fraction, int]:
    """(a, b) in one call."""
    res = b_invariant(m, bundle)
    return res.fujita.a, res.b


def is_rigid_class(m: VarietyModel, d: DivisorClass) -> bool:
    """Rigidity of a pseudo-effective class, read off m's own cone and form.

    Toric models use the divisor polytope (rigid iff dimension zero), whose
    dimension is read off the minimal face of the class in m's cone with no
    LP; models with an intersection form, every del Pezzo model among them,
    use the Zariski route (rigid iff the positive part vanishes); a raw
    model without one has no rigidity oracle.  Each route raises
    NotPseudoEffective on a class outside the effective cone, asking the
    cone itself when it must.
    """
    if isinstance(m.provenance, Toric):
        return toric._rigid(m.eff_cone, d)
    if m.intersection_form is not None:
        return delpezzo.zariski_for_variety(m, d).positive.is_zero()
    if m.eff_cone.contains(d) is Containment.OUTSIDE:
        raise NotPseudoEffective(f"class is not pseudo-effective on {m.name!r}")
    raise RigidityUndecidable(
        f"model {m.name!r} carries neither surface nor toric rigidity data"
    )


def balanced_verdict(
    m: VarietyModel, bundle: DivisorClass, y: SubvarietyDatum
) -> BalancedVerdict:
    """Lexicographic comparison of the (a, b) pairs of the ambient model and
    a subvariety datum.  The datum checked its restricted bundle big when
    it was built."""
    pair_x = invariant_pair(m, bundle)
    pair_y = invariant_pair(y.model, y.restricted_bundle)
    if pair_y > pair_x:
        cls = BalancedClass.NOT_WEAKLY_BALANCED
    elif pair_y == pair_x:
        cls = BalancedClass.WEAKLY_BALANCED_NOT_BALANCED
    else:
        cls = BalancedClass.BALANCED
    return BalancedVerdict(pair_x, pair_y, cls)


def check_birational_invariance(
    m: VarietyModel,
    blowup: VarietyModel,
    pullback: MatQ,
    bundle: DivisorClass,
) -> bool:
    """True iff (a, b) agree between (m, L) and (blowup, pullback L).

    Used as a property test across blow-up model pairs, not as a production
    feature.
    """
    if pullback.cols != m.ns_rank or pullback.rows != blowup.ns_rank:
        raise IncompatibleModels(
            f"pullback is {pullback.rows}x{pullback.cols}, expected "
            f"{blowup.ns_rank}x{m.ns_rank}"
        )
    return invariant_pair(m, bundle) == invariant_pair(blowup, pullback.apply(bundle))


# The surface and toric modules build on this one and import it, so they are
# bound here, after every name they read from it exists: whichever of the
# three is imported first, the others then find it complete or in progress.
# A module-level name costs a query no import statement.
from . import delpezzo, toric  # noqa: E402
