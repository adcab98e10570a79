from fractions import Fraction

import pytest

from fujita import delpezzo, toric
from fujita.cones import ConeQ
from fujita.delpezzo import del_pezzo, quadric_surface, zariski_decompose
from fujita.errors import (
    BigFailureOnY,
    IncompatibleModels,
    InvalidModel,
    KPseudoEffective,
    NotBig,
    NotPseudoEffective,
    RigidityUndecidable,
)
from fujita.fixtures import load_catalog
from fujita.invariants import (
    BalancedClass,
    BInvariantResult,
    FujitaResult,
    Raw,
    SubvarietyDatum,
    VarietyModel,
    b_invariant,
    balanced_verdict,
    check_birational_invariance,
    fujita,
    invariant_pair,
    is_rigid_class,
)
from fujita.qlinalg import MatQ, VecQ
from fujita.simplex import solve_lp
from fujita.toric import Fan, ns_presentation, variety_model
from conftest import counting, frac, identity, random_rational_vector, vec


def rank1_model(canonical=-2, name="rank1"):
    return VarietyModel(
        name=name,
        ns_rank=1,
        canonical=vec(canonical),
        eff_cone=ConeQ([vec(1)]),
    )


CUBIC_3FOLD = rank1_model(-2, "cubic-threefold")
LINE = rank1_model(-2, "line")
ORTHANT2 = ConeQ([vec(1, 0), vec(0, 1)])


class TestModelValidation:
    def test_dimension_checks(self):
        with pytest.raises(InvalidModel):
            VarietyModel("bad", 2, vec(1), ORTHANT2)

    def test_strictness_required(self):
        # the cone rejects itself when built, before any model holds it
        with pytest.raises(InvalidModel, match="strict"):
            VarietyModel("bad", 2, vec(1, 1), ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)]))

    def test_signature_check(self):
        with pytest.raises(InvalidModel):
            VarietyModel(
                "bad",
                2,
                vec(-3, 1),
                ConeQ([vec(1, 0), vec(0, 1)]),
                intersection_form=MatQ([[1, 0], [0, 1]]),
            )

    def test_asymmetric_form_rejected(self):
        with pytest.raises(InvalidModel):
            VarietyModel(
                "bad",
                2,
                vec(-3, 1),
                ConeQ([vec(1, 0), vec(0, 1)]),
                intersection_form=MatQ([[1, 2], [0, -1]]),
            )


    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: VarietyModel("bad", 2, vec(1), ORTHANT2),
             InvalidModel, "canonical class dimension does not match rank"),
            (lambda: VarietyModel(name="bad", ns_rank=2, canonical=vec(1, 1), eff_cone=ConeQ([vec(1)])),
             InvalidModel, "effective cone ambient dimension does not match rank"),
            (lambda: VarietyModel("bad", 2, vec(1, 1), ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)])),
             InvalidModel, "effective cone must be strict (no lines)"),
            (lambda: VarietyModel("bad", 2, vec(1, 1), ORTHANT2, MatQ([[1]])),
             InvalidModel, "intersection form size does not match rank"),
            (lambda: VarietyModel("bad", 2, vec(1, 1), ORTHANT2, MatQ([[1, 2], [0, -1]])),
             InvalidModel, "intersection form must be symmetric"),
            (lambda: VarietyModel("bad", 2, vec(1, 1), ORTHANT2, identity(2)),
             InvalidModel, "intersection form must have signature (1, rank-1)"),
            (lambda: SubvarietyDatum("line", LINE, vec(1, 1)),
             InvalidModel, "restricted bundle dimension does not match model"),
            (lambda: SubvarietyDatum(name="fiber", model=del_pezzo(8).variety(), restricted_bundle=vec(1, -1)),
             BigFailureOnY, "restricted bundle on 'fiber' is not big"),
        ],
    )
    def test_construction_errors(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert str(exc.value) == message


class TestRecords:
    def test_the_face_is_held_by_the_cone_alone(self):
        # no result carries a copy of the boundary face, so none depends on
        # the route the cone took; `b_invariant` asks `minimal_face`
        assert FujitaResult._fields == ("a", "boundary_class", "witness")
        assert BInvariantResult._fields == ("b", "face", "fujita")
        assert not hasattr(ConeQ, "min_a_with_face")

    def test_fields_cannot_be_assigned(self):
        m = del_pezzo(6).variety()
        res = b_invariant(m, vec(3, 0, -1, -1))
        records = [
            (res, "b"),
            (res.fujita, "a"),
            (res.face, "span_dim"),
            (solve_lp([[1, 1]], [1], [1, 0]), "status"),
            (zariski_decompose(del_pezzo(6), res.fujita.boundary_class), "positive"),
            (m, "eff_cone"),
            (m, "not_a_field"),
        ]
        for record, field in records:
            with pytest.raises(AttributeError):
                setattr(record, field, None)

    def test_models_compare_and_hash_by_identity(self):
        cone = ConeQ([vec(1)])
        m1, m2 = (VarietyModel("rank1", 1, vec(-2), cone) for _ in range(2))
        assert m1 == m1 and m1 != m2 and not m1 == m2
        assert len({m1: 1, m2: 2}) == 2
        fr = fujita(m1, vec(1))
        assert fujita(m1, vec(1)) is fr and fujita(m2, vec(1)) is not fr

    def test_raw_provenance_is_a_true_tag_and_routes_by_form(self, monkeypatch):
        quad = quadric_surface().variety()
        cone = [vec(1, 0), vec(0, 1)]
        bare = VarietyModel("bare", 2, quad.canonical, ConeQ(cone))
        formed = VarietyModel("formed", 2, quad.canonical, ConeQ(cone), quad.intersection_form, Raw())
        for m in (bare, formed):
            assert isinstance(m.provenance, Raw) and m.provenance
        zariski = counting(monkeypatch, delpezzo, "zariski_for_variety")
        polytopes = counting(monkeypatch, toric, "_rigid")
        assert is_rigid_class(formed, vec(1, 0)) is False
        with pytest.raises(RigidityUndecidable):
            is_rigid_class(bare, vec(1, 0))
        with pytest.raises(NotPseudoEffective):
            is_rigid_class(bare, vec(-1, 0))
        assert len(zariski) == 1 and polytopes == []


def _forms():
    """Every model with an intersection form: the catalog's (ambient and
    subvariety models), the del Pezzo surfaces and the quadric, and a
    lattice surface whose form has denominators."""
    models = [del_pezzo(d).variety() for d in range(1, 10)] + [quadric_surface().variety()]
    for fx in load_catalog().values():
        models.append(fx.problem.model.variety)
        models.extend(datum.model for _, datum in fx.problem.subvarieties)
    models.append(
        VarietyModel(
            "halves-thirds", 2, vec(-1, 1), ConeQ([vec(1, 0), vec(0, 1)]),
            MatQ([[frac(1, 2), 0], [0, frac(-1, 3)]]),
        )
    )
    return [m for m in models if m.intersection_form is not None]


def test_pair_matches_the_fraction_product(rng):
    forms = _forms()
    assert len({m.ns_rank for m in forms}) >= 9
    for m in forms:
        form = m.intersection_form
        for _ in range(10):
            u = random_rational_vector(rng, m.ns_rank)
            v = random_rational_vector(rng, m.ns_rank)
            assert m.pair(u, v) == u.dot(form.apply(v))
        for g in m.eff_cone.generators[:10]:
            assert m.pair(g, m.canonical) == g.dot(form.apply(m.canonical))


class TestFujita:
    def test_anticanonical_is_one(self):
        for d in (9, 6, 3, 1):
            m = del_pezzo(d).variety()
            fr = fujita(m, -1 * m.canonical)
            assert fr.a == 1
            assert fr.boundary_class.is_zero()

    def test_cubic_threefold_index_two(self):
        fr = fujita(CUBIC_3FOLD, vec(1))
        assert fr.a == 2 and fr.boundary_class.is_zero()

    def test_bl1p2_derived_example(self):
        m = del_pezzo(8).variety()
        fr = fujita(m, vec(2, -1))
        assert fr.a == 2
        assert fr.boundary_class == vec(1, -1)

    def test_not_big_rejected(self):
        m = del_pezzo(8).variety()
        with pytest.raises(NotBig):
            fujita(m, vec(1, -1))  # fiber class, on the boundary

    def test_k_pseudo_effective_rejected(self):
        m = VarietyModel("k-eff", 1, vec(1), ConeQ([vec(1)]))
        with pytest.raises(KPseudoEffective):
            fujita(m, vec(1))

    def test_witness_is_nonnegative_combination(self):
        m = del_pezzo(6).variety()
        fr = fujita(m, vec(3, 0, -1, -1))
        assert all(x >= 0 for x in fr.witness)
        point = VecQ.zero(4)
        for lam, g in zip(fr.witness, m.eff_cone.generators):
            point = point + lam * g
        assert point == fr.boundary_class

    def test_scaling_property(self):
        # a(cL) = a(L)/c, b unchanged (the boundary class is identical)
        m = del_pezzo(5).variety()
        base = vec(4, -1, -1, -1, -1)
        fr = fujita(m, base)
        b0 = b_invariant(m, base).b
        for c in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
            scaled = fujita(m, c * base)
            assert scaled.a == fr.a / c
            assert scaled.boundary_class == fr.boundary_class
            assert b_invariant(m, c * base).b == b0


class TestBInvariant:
    def test_anticanonical_full_rank(self):
        for d in (7, 4, 2):
            m = del_pezzo(d).variety()
            res = b_invariant(m, -1 * m.canonical)
            assert res.b == m.ns_rank
            assert res.face.generator_vectors() == ()

    def test_cubic_threefold(self):
        assert b_invariant(CUBIC_3FOLD, vec(1)).b == 1

    def test_bl1p2(self):
        res = b_invariant(del_pezzo(8).variety(), vec(2, -1))
        assert res.b == 1
        assert res.face.generator_vectors() == (vec(1, -1),)

    def test_range_invariant(self):
        for d in (6, 5):
            m = del_pezzo(d).variety()
            res = b_invariant(m, vec(5, -1, 0, -2, *([0] * (m.ns_rank - 4))))
            assert 1 <= res.b <= m.ns_rank
            assert res.b == m.ns_rank - res.face.span_dim


class TestRigidity:
    def test_exceptional_curve_rigid(self):
        m = del_pezzo(8).variety()
        assert is_rigid_class(m, vec(0, 1)) is True

    def test_nef_class_not_rigid(self):
        m = del_pezzo(8).variety()
        assert is_rigid_class(m, vec(1, -1)) is False

    def test_plane_hyperplane_not_rigid(self):
        m = del_pezzo(9).variety()
        assert is_rigid_class(m, vec(1)) is False

    def test_zero_class_rigid(self):
        m = del_pezzo(7).variety()
        assert is_rigid_class(m, VecQ.zero(3)) is True

    def test_raw_without_form_undecidable(self):
        with pytest.raises(RigidityUndecidable):
            is_rigid_class(CUBIC_3FOLD, vec(1))

    @pytest.mark.parametrize(
        "route", ["toric", "dp2", "dp5", "dp7", "dp8", "dp9", "quadric", "lattice-form", "raw"]
    )
    def test_outside_class_not_pseudo_effective_on_every_route(self, route):
        # each route decides membership itself; the exception type is the
        # same whichever route raises it
        if route == "toric":
            p2 = Fan([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)], require_smooth=True)
            m = variety_model(p2)
            outside = ns_presentation(p2).divisor_class([-1, 0, 0])
        elif route.startswith("dp"):
            surf = del_pezzo(int(route[2:]))
            m, outside = surf.variety(), surf.canonical
        elif route == "quadric":
            m, outside = quadric_surface().variety(), vec(-1, 0)
        elif route == "lattice-form":
            quad = quadric_surface().variety()
            m = VarietyModel(
                "raw-quadric",
                2,
                quad.canonical,
                ConeQ([vec(1, 0), vec(0, 1)]),
                intersection_form=quad.intersection_form,
            )
            outside = vec(1, -1)
        else:
            m, outside = CUBIC_3FOLD, vec(-1)
        with pytest.raises(NotPseudoEffective):
            is_rigid_class(m, outside)

    def test_raw_with_form_uses_zariski(self):
        quad = quadric_surface().variety()
        raw = VarietyModel(
            "raw-quadric",
            2,
            quad.canonical,
            ConeQ([vec(1, 0), vec(0, 1)]),
            intersection_form=quad.intersection_form,
        )
        assert is_rigid_class(raw, vec(1, 0)) is False
        assert is_rigid_class(raw, VecQ.zero(2)) is True


class TestBalancedVerdict:
    def test_cubic_threefold_line(self):
        datum = SubvarietyDatum("line", LINE, vec(1))
        v = balanced_verdict(CUBIC_3FOLD, vec(1), datum)
        assert v.pair_x == (2, 1) and v.pair_y == (2, 1)
        assert v.classification is BalancedClass.WEAKLY_BALANCED_NOT_BALANCED

    def test_bt_cubic_fiber(self):
        bt = VarietyModel(
            "bt-cubic",
            2,
            vec(-1, -1),
            ConeQ([vec(1, 0), vec(-1, 3)]),
        )
        fiber = del_pezzo(3).variety()
        datum = SubvarietyDatum("fiber", fiber, -1 * fiber.canonical)
        v = balanced_verdict(bt, vec(1, 1), datum)
        assert v.pair_x == (1, 2) and v.pair_y == (1, 7)
        assert v.classification is BalancedClass.NOT_WEAKLY_BALANCED

    def test_balanced_case(self):
        plane = rank1_model(-3, "plane")
        datum = SubvarietyDatum("plane-section", plane, vec(3))
        bl = VarietyModel(
            "ambient",
            2,
            vec(-1, -1),
            ConeQ([vec(1, 0), vec(0, 1)]),
        )
        v = balanced_verdict(bl, vec(1, 1), datum)
        assert v.pair_x == (1, 2) and v.pair_y == (1, 1)
        assert v.classification is BalancedClass.BALANCED

    def test_big_failure_on_y(self):
        with pytest.raises(BigFailureOnY):
            SubvarietyDatum("bad", del_pezzo(8).variety(), vec(1, -1))

    def test_depends_only_on_pairs(self):
        # same pairs, different metadata: identical classification
        d1 = SubvarietyDatum("alpha", LINE, vec(1))
        d2 = SubvarietyDatum("omega", rank1_model(-2, "other-name"), vec(1))
        v1 = balanced_verdict(CUBIC_3FOLD, vec(1), d1)
        v2 = balanced_verdict(CUBIC_3FOLD, vec(1), d2)
        assert v1.classification is v2.classification
        assert v1.pair_y == v2.pair_y


class TestBirationalInvariance:
    def test_identity_pullback(self):
        m = del_pezzo(6).variety()
        assert check_birational_invariance(
            m, m, identity(4), vec(3, -1, -1, -1)
        )

    def test_plane_to_blowup(self):
        p2 = del_pezzo(9).variety()
        bl = del_pezzo(8).variety()
        pullback = MatQ([[1], [0]])
        assert check_birational_invariance(p2, bl, pullback, vec(1))
        pair = invariant_pair(p2, vec(1))
        assert pair == (3, 1)

    def test_dp6_to_dp5(self):
        m6 = del_pezzo(6).variety()
        m5 = del_pezzo(5).variety()
        pullback = MatQ([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
        assert check_birational_invariance(m6, m5, pullback, -1 * m6.canonical)

    def test_incompatible_shapes(self):
        with pytest.raises(IncompatibleModels):
            check_birational_invariance(
                del_pezzo(9).variety(), del_pezzo(8).variety(), identity(1), vec(1)
            )


class TestRigidImpliesBalancedAgainstCurves:
    CURVE_LISTS = {
        6: [vec(1, 0, 0, 0), vec(1, -1, 0, 0), vec(2, -1, -1, 0), vec(2, -1, -1, -1)],
        5: [vec(1, 0, 0, 0, 0), vec(1, -1, 0, 0, 0), vec(2, -1, -1, -1, 0)],
    }

    def curve_datum(self, surface, bundle, curve):
        # a rational curve as a rank-one model with the restricted degree
        deg = surface.pair(bundle, curve)
        model = VarietyModel(
            name="rational-curve",
            ns_rank=1,
            canonical=vec(-2),
            eff_cone=ConeQ([vec(1)]),
        )
        return SubvarietyDatum("curve", model, vec(deg))

    def test_rigid_adjoint_balanced_against_curve_data(self):
        # when a*L + K is rigid on a del Pezzo model, the verdict against
        # every non-exceptional curve datum comes out balanced
        from fujita.delpezzo import weak_balance_curve_check

        for degree, curves in self.CURVE_LISTS.items():
            m = del_pezzo(degree)
            model = m.variety()
            bundle = -1 * m.canonical + VecQ([0, 1] + [0] * (m.ns_rank - 2))
            assert is_rigid_class(model, fujita(model, bundle).boundary_class)
            for curve in curves:
                assert weak_balance_curve_check(m, bundle, curve)
                datum = self.curve_datum(m, bundle, curve)
                verdict = balanced_verdict(model, bundle, datum)
                assert verdict.classification is BalancedClass.BALANCED, (degree, tuple(curve))

    def test_curve_pair_matches_curve_fujita(self):
        from fujita.delpezzo import curve_fujita

        m = del_pezzo(6)
        bundle = -1 * m.canonical
        curve = vec(1, 0, 0, 0)
        datum = self.curve_datum(m, bundle, curve)
        pair = balanced_verdict(m.variety(), bundle, datum).pair_y
        assert pair == (curve_fujita(m.pair(bundle, curve)), 1)
