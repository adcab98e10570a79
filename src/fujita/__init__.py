"""Exact-rational invariants of polarized varieties with finitely generated
pseudo-effective cones: the least adjoint multiple a(X, L), the minimal-face
codimension b(X, L), Zariski decompositions, rigidity, and balanced
line-bundle verdicts, with del Pezzo and complete toric constructors."""

from .cones import ConeQ, Containment, FaceQ, dualize, minimal_face, min_a_on_ray
from .delpezzo import (
    DelPezzoModel,
    ZariskiDecomposition,
    curve_fujita,
    del_pezzo,
    enumerate_negative_curves,
    quadric_surface,
    surface,
    surface_b,
    surface_balanced,
    weak_balance_curve_check,
    zariski_decompose,
)
from .fixtures import load_catalog, run_fixture
from .invariants import (
    BalancedClass,
    BalancedVerdict,
    BInvariantResult,
    DivisorClass,
    FujitaResult,
    SubvarietyDatum,
    VarietyModel,
    b_invariant,
    balanced_verdict,
    check_birational_invariance,
    fujita,
    invariant_pair,
    is_rigid_class,
)
from .qlinalg import MatQ, VecQ, rank, solve, span_dim
from .toric import (
    Fan,
    effective_cone,
    fan_product,
    fibration_b_crosscheck,
    ns_presentation,
    polytope_dim,
    toric_balanced_all_subvarieties,
    toric_rigid,
    variety_model,
)

__version__ = "0.1.0"
