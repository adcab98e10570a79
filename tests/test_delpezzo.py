import random
from fractions import Fraction

import pytest

from fujita import delpezzo, qlinalg
from fujita.cones import ConeQ, Containment
from fujita.delpezzo import (
    DelPezzoModel,
    SurfaceCase,
    _surface_curves,
    _zariski,
    curve_fujita,
    del_pezzo,
    enumerate_negative_curves,
    quadric_surface,
    surface_b,
    surface_balanced,
    surface_face,
    negative_classes,
    weak_balance_curve_check,
    zariski_decompose,
    zariski_for_variety,
)
from fujita.errors import (
    CurveInExcludedLocus,
    DegreeOutOfRange,
    DimensionMismatch,
    InternalError,
    InternalNonTermination,
    InvalidModel,
    NonPositiveDegree,
    NotPseudoEffective,
)
from fujita.invariants import VarietyModel, b_invariant, fujita, is_rigid_class
from fujita.qlinalg import MatQ, VecQ, inertia, scaled_ints
from conftest import counting, random_rational_vector, sample_big_classes, vec
from oracles import minimal_face_by_facet_loop, minus_one_curves_by_multisets, zariski_by_fractions

CURVE_COUNTS = {7: 3, 6: 6, 5: 10, 4: 16, 3: 27, 2: 56, 1: 240}


class TestEnumeration:
    def test_regression_counts(self):
        for d, count in CURVE_COUNTS.items():
            assert len(enumerate_negative_curves(d)) == count

    def test_degree6_explicit(self):
        got = {tuple(int(x) for x in c) for c in enumerate_negative_curves(6)}
        assert got == {
            (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1),
        }

    def test_count_stable_under_bound_increase(self):
        # the oracle searches up to a = 8, past the bound the search derives
        for d in CURVE_COUNTS:
            got = len(enumerate_negative_curves(d))
            assert got == len(minus_one_curves_by_multisets(d, 8)) == CURVE_COUNTS[d]

    @pytest.mark.parametrize("oracle_bound", [6, 8])
    def test_matches_multiset_oracle(self, oracle_bound):
        for d in range(1, 8):
            got = {tuple(int(x) for x in c) for c in enumerate_negative_curves(d)}
            assert got == minus_one_curves_by_multisets(d, oracle_bound)

    def test_numerical_identities(self):
        for d in (6, 3, 1):
            m = del_pezzo(d)
            for c in negative_classes(m):
                assert m.pair(c, c) == -1
                assert m.pair(-1 * m.canonical, c) == 1

    def test_degree_out_of_range(self):
        with pytest.raises(DegreeOutOfRange):
            enumerate_negative_curves(8)
        with pytest.raises(DegreeOutOfRange):
            DelPezzoModel(0)
        with pytest.raises(DegreeOutOfRange):
            DelPezzoModel(3, quadric=True)

    def test_a_surface_is_its_model(self):
        for m in [del_pezzo(d) for d in range(1, 10)] + [quadric_surface()]:
            assert isinstance(m, VarietyModel)
            assert m.variety() is m
        assert quadric_surface().provenance == (8, True)

    def test_pair_rejects_a_class_of_the_wrong_length(self):
        # the pairing is the variety's form, which checks dimensions
        for m in (del_pezzo(6), del_pezzo(9), quadric_surface()):
            short, long = VecQ([1] * (m.ns_rank - 1)), VecQ([1] * (m.ns_rank + 1))
            for u, v in ((short, m.canonical), (m.canonical, long), (long, long)):
                with pytest.raises(DimensionMismatch):
                    m.pair(u, v)

    def test_canonical_self_intersection_is_degree(self):
        for d in range(1, 10):
            m = del_pezzo(d)
            assert m.pair(m.canonical, m.canonical) == d
        q = quadric_surface()
        assert q.pair(q.canonical, q.canonical) == 8


class TestZariski:
    def test_exceptional_curve(self):
        m = del_pezzo(8)
        z = zariski_decompose(m, vec(0, 1))
        assert z.positive.is_zero()
        assert z.negative_support == ((vec(0, 1), Fraction(1)),)

    def test_nef_class(self):
        m = del_pezzo(8)
        z = zariski_decompose(m, vec(1, -1))
        assert z.positive == vec(1, -1) and not z.negative_support

    def test_dp6_mixed_class(self):
        m = del_pezzo(6)
        d = -1 * m.canonical + 2 * vec(0, 1, 0, 0)
        z = zariski_decompose(m, d)
        assert z.positive + z.negative == d
        for c, mult in z.negative_support:
            assert mult > 0
            assert m.pair(z.positive, c) == 0

    def test_not_pseudo_effective(self):
        with pytest.raises(NotPseudoEffective):
            zariski_decompose(del_pezzo(8), vec(-1, 0))

    def test_invariant_identities_random(self, rng):
        # exact identities on seeded pseudo-effective classes
        for degree in (7, 6, 5, 4):
            m = del_pezzo(degree)
            cone = m.variety().eff_cone
            checked = 0
            while checked < 25:
                d = VecQ([rng.randint(-3, 8) for _ in range(m.ns_rank)])
                if cone.contains(d) is Containment.OUTSIDE:
                    continue
                checked += 1
                z = zariski_decompose(m, d)
                assert z.positive + z.negative == d
                for c in negative_classes(m):
                    assert m.pair(z.positive, c) >= 0
                support = [c for c, _ in z.negative_support]
                for c, mult in z.negative_support:
                    assert mult > 0
                    assert m.pair(z.positive, c) == 0
                if support:
                    gram = MatQ([[m.pair(a, b) for b in support] for a in support])
                    assert inertia(gram) == (0, len(support), 0)


def _raw_surfaces():
    """Lattice-surface models with no del Pezzo provenance, so Zariski goes
    through their negative generators: the quadric with its form halved, a
    degree-6 surface given by its (-1)-curves with its form times 2/3, and
    the Hirzebruch surface F_2 in the basis (fiber, negative section)."""
    quad = quadric_surface()
    dp6 = del_pezzo(6)
    return [
        VarietyModel(
            "raw-half-quadric", 2, quad.canonical, ConeQ([vec(1, 0), vec(0, 1)]),
            intersection_form=MatQ([[0, Fraction(1, 2)], [Fraction(1, 2), 0]]),
        ),
        VarietyModel(
            "raw-dp6", 4, dp6.canonical, ConeQ(negative_classes(dp6)),
            intersection_form=MatQ(
                [[Fraction(2, 3) * x for x in row] for row in dp6.intersection_form.row_list()]
            ),
        ),
        VarietyModel(
            "raw-f2", 2, vec(-4, -2), ConeQ([vec(1, 0), vec(0, 1)]),
            intersection_form=MatQ([[0, 1], [1, -2]]),
        ),
    ]


def _zariski_cases():
    """(name, model, route, oracle curves): every del Pezzo degree, the
    quadric and the raw lattice surfaces."""
    cases = []
    for surf in [del_pezzo(d) for d in range(1, 10)] + [quadric_surface()]:
        cases.append(
            (surf.name, surf.variety(), lambda d, s=surf: zariski_decompose(s, d),
             negative_classes(surf), surf.pair)
        )
    for m in _raw_surfaces():
        cases.append(
            (m.name, m, lambda d, m=m: zariski_for_variety(m, d), negative_classes(m), m.pair)
        )
    return cases


class TestZariskiKernelOracle:
    """The integer kernel against the Fraction loop it replaced."""

    def test_equal_decompositions_inside_the_cone(self, rng):
        for name, m, route, curves, pair in _zariski_cases():
            gens = m.eff_cone.generators
            count = 4 if m.ns_rank == 9 else 12
            for _ in range(count):
                # a nonnegative rational combination of a few generators,
                # plus a multiple of -K where that is pseudo-effective
                d = VecQ.zero(m.ns_rank)
                for g in rng.sample(gens, min(len(gens), rng.randint(1, 4))):
                    d = d + Fraction(rng.randint(0, 9), rng.randint(1, 5)) * g
                if m.name != "raw-f2" and rng.random() < 0.5:
                    d = d + Fraction(rng.randint(1, 4), rng.randint(1, 3)) * (-1 * m.canonical)
                assert route(d) == zariski_by_fractions(curves, pair, m.eff_cone, d), (name, d)

    def test_same_error_outside_the_cone(self, rng):
        for name, m, route, curves, pair in _zariski_cases():
            outside = []
            while len(outside) < 6:
                d = random_rational_vector(rng, m.ns_rank)
                if m.eff_cone.contains(d) is Containment.OUTSIDE:
                    outside.append(d)
            for d in outside:
                with pytest.raises(NotPseudoEffective) as expected:
                    zariski_by_fractions(curves, pair, m.eff_cone, d)
                with pytest.raises(NotPseudoEffective) as got:
                    route(d)
                assert str(got.value) == str(expected.value), (name, d)


def boundary_classes(surf, count, seed):
    """a L + K for seeded big L = c*(-K) plus a few (-1)-curves, c > 0."""
    rng = random.Random(seed)
    gens = surf.eff_cone.generators
    out = []
    for _ in range(count):
        bundle = rng.randint(1, 2) * -surf.canonical
        for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
            bundle = bundle + rng.randint(1, 3) * gens[j]
        out.append(fujita(surf, bundle).boundary_class)
    return out


def raw_chain():
    """Curves C1, C2 with C1^2 = -1, C2^2 = -2, C1.C2 = 1 on a raw model:
    their Gram matrix is not diagonal."""
    return VarietyModel(
        "raw-chain", 3, vec(-3, 1, 1), ConeQ([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]),
        intersection_form=MatQ([[1, 0, 0], [0, -1, 1], [0, 1, -2]]),
    )


class TestPackedCurveScan:
    """The kernel's curve scan, one packed product per round (one dot per
    curve past 63 bits), against the Fraction loop."""

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_boundary_classes_match_fraction_loop(self, monkeypatch, degree):
        surf = del_pezzo(degree)
        sc = _surface_curves(surf)
        assert len(sc.curves) == CURVE_COUNTS[degree]
        nonzero = 0
        for d in boundary_classes(surf, 5 if degree == 1 else 15, 0x5CA7 + degree):
            expected = zariski_by_fractions(sc.curves, surf.pair, surf.eff_cone, d)
            assert _zariski(sc, d) == expected, d
            nonzero += bool(expected.negative_support)
            if d.is_zero():
                continue
            # D past 2^64: every scan takes one idot per curve
            for n in (2**64 + 1, 2**200 + 3):
                with monkeypatch.context() as mp:
                    dots = counting(mp, qlinalg, "idot")
                    got = _zariski(sc, n * d)
                assert len(dots) >= len(sc.curves)
                assert got == zariski_by_fractions(sc.curves, surf.pair, surf.eff_cone, n * d), d
        assert nonzero > 0

    def test_one_product_per_round_on_degree_two(self, monkeypatch):
        # each round scans the curves with one packed product, and the last
        # one finds none; every support is pairwise disjoint (-1)-curves,
        # which the curves' meet masks show, so each Gram matrix is -I and is
        # read off the self-intersections: no Gram entry, no inverse, and
        # every idot is a packed product's.  A curve's meet mask takes one
        # packed product of that curve, the first time a support holds it,
        # and is kept.
        surf = del_pezzo(2)
        sc = _surface_curves.__wrapped__(surf)  # no mask built yet
        products = counting(monkeypatch, qlinalg.PackedRows, "products")
        inverses = counting(monkeypatch, delpezzo, "scaled_inverse")
        dots = [counting(monkeypatch, owner, "idot") for owner in (qlinalg, delpezzo)]
        rounds_seen, held, masks_built, sizes = set(), set(), [], set()
        for d in boundary_classes(surf, 40, 0x2D07):
            for calls in [products, *dots]:
                calls.clear()
            res = _zariski(sc, d)
            built = [i for _, v in products for i, c in enumerate(sc.ints) if v is c]
            rounds = len(products) - len(built) - 1
            assert rounds <= 1
            support = {sc.curves.index(c) for c, _ in res.negative_support}
            assert set(built) == support - held
            held |= support
            masks_built += built
            sizes.add(len(support))
            assert sum(map(len, dots)) == len(products)
            rounds_seen.add(rounds)
        assert {0, 1} <= rounds_seen and inverses == []
        assert sorted(masks_built) == sorted(held) and max(sizes) >= 2
        assert {i for i, mask in enumerate(sc.meets) if mask is not None} == held

    def test_support_grown_over_two_rounds(self, monkeypatch):
        # curves C1, C2 with C1^2 = -1, C2^2 = -2, C1.C2 = 1: D = 3 C1 + C2
        # meets only C1 negatively, and D - 2 C1 then meets C2 negatively,
        # so the Gram right-hand sides of round two are D's, not the
        # residual's.  No del Pezzo class needs a second round.  Round one's
        # support, C1 alone, is read off its self-intersection; round two's
        # curves meet, and its Gram matrix is inverted.
        m = raw_chain()
        sc = _surface_curves(m)
        products = counting(monkeypatch, qlinalg.PackedRows, "products")
        inverses = counting(monkeypatch, delpezzo, "scaled_inverse")
        rng = random.Random(0xC4A1)
        classes = [vec(0, 3, 1), vec(1, 3, 1), vec(2, 5, 2)]
        classes += [vec(rng.randint(0, 4), rng.randint(0, 9), rng.randint(0, 9)) for _ in range(30)]
        two_rounds = 0
        for d in classes:
            for n in (1, 2**64 + 1):
                products.clear()
                inverses.clear()
                assert _zariski(sc, n * d) == zariski_by_fractions(sc.curves, m.pair, m.eff_cone, n * d), d
                if len(products) == 3:
                    assert [len(gram) for (gram,) in inverses] == [2]
                    two_rounds += 1
        assert two_rounds >= 6

    def test_a_wrong_inverse_is_caught(self, monkeypatch):
        # a planted determinant twice the true one leaves the residual
        # negative on the support curves, a doubled inverse or a doubled
        # self-intersection positive: each means a broken solve, never a new
        # curve.  The inverse is planted on the raw chain's second round,
        # whose curves meet; the self-intersections on a degree-3 support of
        # disjoint curves, which the mask solve reads off them.
        m = raw_chain()
        chain = _surface_curves(m), vec(0, 3, 1)
        surf = del_pezzo(3)
        sc = _surface_curves(surf)
        d = next(d for d in boundary_classes(surf, 20, 0xBAD) if _zariski(sc, d).negative_support)
        plants = [
            ("scaled_inverse", lambda det, inv: (2 * det, inv)),
            ("scaled_inverse", lambda det, inv: (det, [[2 * x for x in r] for r in inv])),
        ]
        for name, plant in plants:
            solve = getattr(delpezzo, name)
            monkeypatch.setattr(delpezzo, name, lambda *args: plant(*solve(*args)))
            with pytest.raises(InternalNonTermination, match="meets a support curve"):
                _zariski(*chain)
            monkeypatch.undo()
        doubled = sc._replace(squares=tuple([2 * x for x in sc.squares]))
        with pytest.raises(InternalNonTermination, match="meets a support curve"):
            _zariski(doubled, d)
        assert _zariski(sc, d) == zariski_by_fractions(sc.curves, surf.pair, surf.eff_cone, d)
        assert _zariski(*chain) == zariski_by_fractions(chain[0].curves, m.pair, m.eff_cone, chain[1])


def conic_cases(surf, count, seed):
    """Boundary classes of seeded big bundles on surf, split by the
    positive part of their Zariski decomposition: those with P = 0 and a
    nonempty support, and those with P != 0."""
    rigid, fibred = [], []
    for p in boundary_classes(surf, count, seed):
        dec = zariski_for_variety(surf, p)
        if dec.positive.is_zero():
            if dec.negative_support:
                rigid.append(p)
        else:
            fibred.append(p)
    return rigid, fibred


def check_face(surf, p):
    """The unplanted answer: surface_face passes its checks, and on degrees
    2-7 its face is the per-facet loop's."""
    got = surface_face(surf, p)
    if surf.provenance.degree > 1:
        assert got.face == minimal_face_by_facet_loop(surf.eff_cone, p)


class TestSurfaceFace:
    """The minimal face from the Zariski decomposition, with its
    certificate, which `b_invariant` reads on degree 1."""

    @pytest.mark.parametrize("degree", range(2, 8))
    def test_equals_the_polyhedral_face(self, degree):
        # an oracle test: the certified face equals the cone's minimal face,
        # s and the witness are checked here again in Fractions, and b is
        # `surface_b`'s
        surf = del_pezzo(degree)
        gens = surf.eff_cone.generators
        rng = random.Random(0xFACE + degree)
        kinds = set()
        for _ in range(40):
            bundle = rng.randint(1, 2) * -surf.canonical
            for j in rng.sample(range(len(gens)), rng.randint(1, 3)):
                bundle = bundle + rng.randint(1, 3) * gens[j]
            p = fujita(surf, bundle).boundary_class
            got = surface_face(surf, p)
            assert got.face == surf.eff_cone.minimal_face(p), (degree, bundle)
            values = [surf.pair(got.functional, g) for g in gens]
            assert min(values) >= 0 and surf.pair(got.functional, p) == 0
            assert {j for j, x in enumerate(values) if x == 0} == got.face.generators_in_face
            assert {j for j, w in enumerate(got.witness) if w} == got.face.generators_in_face
            assert min(got.witness) >= 0
            assert sum([w * g for w, g in zip(got.witness, gens)], VecQ.zero(surf.ns_rank)) == p
            assert surf.ns_rank - got.face.span_dim == surface_b(surf, bundle).b
            kinds.add(surface_b(surf, bundle).case)
        assert kinds == set(SurfaceCase)

    def test_the_zero_class(self):
        for degree in (1, 4):
            surf = del_pezzo(degree)
            got = surface_face(surf, VecQ.zero(surf.ns_rank))
            assert (got.face.generators_in_face, got.face.span_dim) == (frozenset(), 0)
            assert got.functional == -1 * surf.canonical and not any(got.witness)

    def test_needs_every_generator_negative(self):
        for surf in (del_pezzo(8), quadric_surface()):
            with pytest.raises(InvalidModel):
                surface_face(surf, -1 * surf.canonical)

    @pytest.mark.parametrize("degree", [1, 3])
    def test_a_planted_wrong_support_is_caught(self, monkeypatch, degree):
        # a support curve dropped, or swapped for a curve outside the
        # support: s then fails to vanish at the class or on the face, or
        # the witness misses the class
        surf = del_pezzo(degree)
        rigid, _ = conic_cases(surf, 16, 0x5A + degree)
        curves = negative_classes(surf)
        for p in rigid[:3]:
            dec = zariski_for_variety(surf, p)
            support = dec.negative_support
            other = next(c for c in curves if c not in [c for c, _ in support])
            for planted in (support[1:], ((other, support[0][1]),) + support[1:]):
                wrong = dec._replace(negative_support=planted)
                monkeypatch.setattr(delpezzo, "zariski_for_variety", lambda m, d: wrong)
                with pytest.raises(InternalError):
                    surface_face(surf, p)
                monkeypatch.undo()
            check_face(surf, p)

    @pytest.mark.parametrize("degree", [1, 3])
    def test_a_planted_wrong_conic_is_caught(self, monkeypatch, degree):
        # the positive part t c swapped for t c' with another conic c', or
        # for t (c + c'), which is no conic
        surf = del_pezzo(degree)
        _, fibred = conic_cases(surf, 30, 0xC0 + degree)
        conics = {zariski_for_variety(surf, p).positive.primitive() for p in fibred}
        assert len(conics) >= 2
        for p in fibred[:3]:
            dec = zariski_for_variety(surf, p)
            c = dec.positive.primitive()
            other = next(x for x in conics if x != c)
            t = next(x / y for x, y in zip(dec.positive, c) if y)
            for planted in (t * other, t * (c + other)):
                wrong = dec._replace(positive=planted)
                monkeypatch.setattr(delpezzo, "zariski_for_variety", lambda m, d: wrong)
                with pytest.raises(InternalError):
                    surface_face(surf, p)
                monkeypatch.undo()
            check_face(surf, p)

    @pytest.mark.parametrize("degree", [1, 3])
    def test_a_planted_wrong_fibre_pairing_is_caught(self, monkeypatch, degree):
        # the meet masks of two reducible fibres E + E' and F + F' planted
        # so that E meets F' and F meets E' among the fibre components: the
        # pairing is an involution still, but E + F' is not the conic
        surf = del_pezzo(degree)
        _, fibred = conic_cases(surf, 30, 0xF1 + degree)
        sc = _surface_curves(surf)
        for p in fibred[:3]:
            c = scaled_ints(zariski_for_variety(surf, p).positive.primitive())[0]
            fibres = [j for j, x in enumerate(sc.images.products(c)) if not x]
            every = sum([1 << j for j in fibres])
            partner = {i: (delpezzo._meets(sc, i) & every).bit_length() - 1 for i in fibres}
            e, f = fibres[0], next(j for j in fibres if j not in (fibres[0], partner[fibres[0]]))
            planted = list(sc.meets)
            for i in (e, partner[e], f, partner[f]):
                planted[i] = delpezzo._meets(sc, i) & ~every
            for i, j in ((e, partner[f]), (f, partner[e])):
                planted[i] |= 1 << j
                planted[j] |= 1 << i
            monkeypatch.setattr(delpezzo, "_surface_curves", lambda m: sc._replace(meets=planted))
            with pytest.raises(InternalError, match="no partner summing to it"):
                surface_face(surf, p)
            monkeypatch.undo()
            check_face(surf, p)


class TestSurfaceB:
    def test_anticanonical(self):
        for d in (6, 3):
            m = del_pezzo(d)
            res = surface_b(m, -1 * m.canonical)
            assert res.case is SurfaceCase.BASE_POINT
            assert res.n_components == 0
            assert res.b == m.ns_rank

    def test_bl1p2_fibration_case(self):
        res = surface_b(del_pezzo(8), vec(2, -1))
        assert res.case is SurfaceCase.BASE_CURVE and res.b == 1

    def test_dp6_rigid_case_cross_checked(self):
        m = del_pezzo(6)
        bundle = -1 * m.canonical + vec(0, 1, 0, 0)
        res = surface_b(m, bundle)
        assert res.case is SurfaceCase.BASE_POINT
        assert res.b == b_invariant(m.variety(), bundle).b == 3

    def test_dual_path_oracle_sample(self, rng):
        # small-scale version of the acceptance criterion: surface case
        # analysis must equal the polyhedral codimension
        for degree in (7, 6, 5):
            m = del_pezzo(degree)
            model = m.variety()
            for bundle in sample_big_classes(model, rng, 20):
                assert surface_b(m, bundle).b == b_invariant(model, bundle).b


class TestSurfaceBalanced:
    def test_anticanonical_balanced(self):
        m = del_pezzo(5)
        res = surface_balanced(m, -1 * m.canonical)
        assert res.balanced and res.fiber_class is None

    def test_bl1p2_unbalanced_with_fiber_witness(self):
        res = surface_balanced(del_pezzo(8), vec(2, -1))
        assert not res.balanced
        assert res.fiber_class == vec(1, -1)

    def test_rigid_chain_balanced(self):
        m = del_pezzo(6)
        res = surface_balanced(m, -1 * m.canonical + vec(0, 1, 0, 0))
        assert res.balanced

    def test_matches_rigidity(self, rng):
        for degree in (6, 4):
            m = del_pezzo(degree)
            model = m.variety()
            for bundle in sample_big_classes(model, rng, 15):
                adjoint = fujita(model, bundle).boundary_class
                assert surface_balanced(m, bundle).balanced == is_rigid_class(model, adjoint)


class TestCurveChecks:
    def test_curve_fujita_values(self):
        assert curve_fujita(1) == 2
        assert curve_fujita(2) == 1
        assert curve_fujita(11) == Fraction(2, 11)

    def test_nonpositive_degree(self):
        with pytest.raises(NonPositiveDegree):
            curve_fujita(0)

    @pytest.mark.parametrize("degree", [0.5, True])
    def test_float_and_bool_degrees_rejected(self, degree):
        with pytest.raises(TypeError):
            curve_fujita(degree)

    def test_quadric_bidegree_11_1(self):
        # the (1)-factor drives the invariant: a = 2 through the quadric model
        q = quadric_surface().variety()
        assert fujita(q, vec(11, 1)).a == 2 == curve_fujita(1)

    def test_cubic_surface_hyperplane(self):
        m = del_pezzo(3)
        assert weak_balance_curve_check(m, -1 * m.canonical, vec(1, 0, 0, 0, 0, 0, 0))
        # a(C) = 2/3 < 1

    def test_dp6_hyperplane(self):
        m = del_pezzo(6)
        assert weak_balance_curve_check(m, -1 * m.canonical, vec(1, 0, 0, 0))

    def test_bl1p2_bundle(self):
        m = del_pezzo(8)
        assert weak_balance_curve_check(m, vec(2, -1), vec(1, 0))

    def test_exceptional_excluded(self):
        m = del_pezzo(6)
        with pytest.raises(CurveInExcludedLocus):
            weak_balance_curve_check(m, -1 * m.canonical, vec(0, 1, 0, 0))

    def test_anticanonical_degree_one_excluded(self):
        # degree-1 surface: the anticanonical class itself has (-K, C) = 1
        m = del_pezzo(1)
        with pytest.raises(CurveInExcludedLocus):
            weak_balance_curve_check(m, -1 * m.canonical, -1 * m.canonical)
