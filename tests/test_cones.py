import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fujita import cones, qlinalg
from fujita.cones import (
    ConeQ,
    Containment,
    is_strict,
    min_a_on_ray,
    minimal_face,
    positive_support,
)
from fujita.delpezzo import del_pezzo, quadric_surface
from fujita.errors import Infeasible, InternalError, InvalidModel, OutsideCone, UnboundedBelow
from fujita.qlinalg import VecQ, span_dim
from fujita.simplex import LPResult, LPStatus
from fujita.toric import variety_model
from conftest import (
    counting,
    dots_taken,
    packing_cone,
    packing_probe,
    random_cones,
    random_rational_vector,
    vec,
)
from oracles import (
    brute_force_facets,
    contains_by_facet_loop,
    contains_by_lp,
    facet_generator_masks_by_dot,
    fm_facets,
    minimal_face_by_facet_loop,
    minimal_face_generators_lp,
    positive_support_by_basis_enumeration,
)


def int_facets(c):
    return sorted(tuple(int(x) for x in f) for f in c.facets)


def dp6_cone():
    return del_pezzo(6).variety().eff_cone


def bl1p2_cone():
    return ConeQ([vec(0, 1), vec(1, -1)])


FIXTURE_CONES = {
    "orthant2": ConeQ([vec(1, 0), vec(0, 1)]),
    "orthant3": ConeQ([vec(1, 0, 0), vec(0, 1, 0), vec(0, 0, 1)]),
    "bl1p2": bl1p2_cone(),
    "quadric": quadric_surface().variety().eff_cone,
    "dp7": del_pezzo(7).variety().eff_cone,
    "dp6": dp6_cone(),
    "dp5": del_pezzo(5).variety().eff_cone,
    "dp4": del_pezzo(4).variety().eff_cone,
    "dp3": del_pezzo(3).variety().eff_cone,
}


class TestDualize:
    def test_first_orthant(self):
        assert int_facets(ConeQ([vec(1, 0), vec(0, 1)])) == [(0, 1), (1, 0)]

    def test_redundant_generator(self):
        assert int_facets(ConeQ([vec(1, 0), vec(1, 1), vec(0, 1)])) == [(0, 1), (1, 0)]

    def test_dp6_matches_brute_force(self):
        c = dp6_cone()
        gens = [tuple(int(x) for x in g) for g in c.generators]
        expected = brute_force_facets(gens, 4, bound=3)
        assert set(map(tuple, int_facets(c))) == expected

    def test_dp6_generator_saturation(self):
        # every generator saturates at least dim(cone) - 1 = 3 facets
        c = dp6_cone()
        c.facets
        masks = c._facet_gen_masks
        for j in range(len(c.generators)):
            assert sum(1 for m in masks if m >> j & 1) >= 3

    def test_facet_tightness_invariant(self):
        # each facet is tight on >= dim(cone) - 1 independent generators
        for name, c in FIXTURE_CONES.items():
            gens = c.generators
            target = c.dim() - 1
            for f in c.facets:
                tight = [g for g in gens if f.dot(g) == 0]
                assert span_dim(tight) >= target, name

    @pytest.mark.parametrize("name", ["orthant2", "orthant3", "bl1p2", "quadric", "dp7", "dp6", "dp5"])
    def test_fourier_motzkin_agreement(self, name):
        # independent FM oracle for dim <= 5
        c = FIXTURE_CONES[name]
        gens = [tuple(int(x) for x in g) for g in c.generators]
        assert set(map(tuple, int_facets(c))) == fm_facets(gens, c.ambient_dim)

    def test_single_ray_in_plane(self):
        # spans a line only: rejected when built, so it is never dualized
        with pytest.raises(InvalidModel, match=r"must span Q\^2"):
            ConeQ([vec(2, 4)])

    def test_duality_round_trip(self):
        # up to rank 8 / 56 generators
        for name in ["orthant2", "orthant3", "bl1p2", "quadric", "dp7", "dp6", "dp5", "dp4", "dp3"]:
            c = FIXTURE_CONES[name]
            back = ConeQ(c.facets, ambient_dim=c.ambient_dim)
            assert sorted(tuple(int(x) for x in g) for g in back.facets) == sorted(
                tuple(int(x) for x in g) for g in c.generators
            ), name

    def test_duality_round_trip_rank8(self):
        c = del_pezzo(2).variety().eff_cone
        assert len(c.facets) == 702
        back = ConeQ(c.facets, ambient_dim=8)
        assert sorted(tuple(int(x) for x in g) for g in back.facets) == sorted(
            tuple(int(x) for x in g) for g in c.generators
        )


class TestContains:
    def test_orthant_examples(self):
        c = FIXTURE_CONES["orthant2"]
        assert c.contains(vec(1, 1)) is Containment.INSIDE
        assert c.contains(vec(1, 0)) is Containment.BOUNDARY
        assert c.contains(vec(-1, 2)) is Containment.OUTSIDE

    def test_facet_path_agrees_with_lp_oracle(self):
        # 1000 seeded random rational points per fixture cone
        for name, c in FIXTURE_CONES.items():
            rng = random.Random(hash(name) & 0xFFFF)
            fresh = ConeQ(c.generators, ambient_dim=c.ambient_dim)
            fresh.facets  # force the facet route
            for _ in range(1000):
                v = random_rational_vector(rng, c.ambient_dim, (-6, 6), (1, 4))
                by_facets = fresh.contains(v)
                by_lp = fresh.express_nonneg(v)
                assert (by_lp is None) == (by_facets is Containment.OUTSIDE), name

    def test_lp_route_matches_facet_route(self):
        for name, c in FIXTURE_CONES.items():
            rng = random.Random(0xBEE + hash(name) % 1000)
            lazy = ConeQ(c.generators, ambient_dim=c.ambient_dim)  # no facets yet
            eager = ConeQ(c.generators, ambient_dim=c.ambient_dim)
            eager.facets
            for _ in range(40):
                v = random_rational_vector(rng, c.ambient_dim, (-5, 5), (1, 3))
                assert lazy.contains(v) is eager.contains(v), name

    def test_ray_lp_matches_bounded_lp_oracle(self):
        # cones in dimensions 1-4, nonnegative combinations of a random
        # basis, asked before their facets exist; the vectors are random
        # points, generators, positive combinations and zero
        rng = random.Random(1307)
        seen = set()
        checked = 0
        while checked < 400:
            d = rng.randint(1, 4)
            basis = [[rng.randint(-3, 3) for _ in range(d)] for _ in range(d)]
            combos = [[rng.randint(0, 3) for _ in range(d)] for _ in range(rng.randint(d, d + 3))]
            if span_dim(basis) < d or span_dim(combos) < d:
                continue
            checked += 1
            gens = [[sum(k * b[t] for k, b in zip(cs, basis)) for t in range(d)] for cs in combos]
            c = ConeQ(gens, ambient_dim=d)
            probes = [VecQ.zero(d), c.generators[0]]
            probes += [random_rational_vector(rng, d, (-4, 4), (1, 3)) for _ in range(3)]
            for _ in range(3):
                weights = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in gens]
                probes.append(sum((w * g for w, g in zip(weights, c.generators)), VecQ.zero(d)))
            for v in probes:
                got = c.contains(v)
                assert got is contains_by_lp(c, v), (gens, v)
                seen.add(got)
            assert c._facets is None
        assert seen == set(Containment)

    def test_zero_vector(self):
        c = FIXTURE_CONES["orthant2"]
        assert c.contains(VecQ.zero(2)) is Containment.BOUNDARY

    @pytest.mark.parametrize("status", [LPStatus.INFEASIBLE, LPStatus.UNBOUNDED])
    def test_a_membership_ray_lp_not_optimal_is_an_internal_error(self, monkeypatch, status):
        # the generator sum is interior and the cone strict, so the ray LP
        # of membership has an optimum; anything else is a bug.  The zero
        # vector needs no LP.
        c = ConeQ([vec(1, 0), vec(1, 1)])
        monkeypatch.setattr(cones, "solve_lp", lambda *args: LPResult(status, None, None))
        assert c.contains(VecQ.zero(2)) is Containment.BOUNDARY
        with pytest.raises(InternalError, match=f"membership ray LP is {status.value}"):
            c.contains(vec(1, 2))


class TestFacetMemo:
    def test_facets_memoized_once(self, monkeypatch):
        # every reader after the first sees the one computed dual description
        c = del_pezzo(3).variety().eff_cone
        fresh = ConeQ(c.generators, ambient_dim=c.ambient_dim)
        runs = []
        compute = ConeQ._compute_facets

        def counted(self):
            runs.append(self)
            compute(self)

        monkeypatch.setattr(ConeQ, "_compute_facets", counted)
        first = fresh.facets
        anticanonical = vec(3, -1, -1, -1, -1, -1, -1)
        assert fresh.contains(anticanonical) is Containment.INSIDE
        fresh.minimal_face(fresh.generators[0])
        assert all(fresh.facets == first for _ in range(8))
        assert runs == [fresh]
        assert len(first) == 99


def face_outcome(face_of, c, v):
    """The minimal face of v, or the class of the error it raises."""
    try:
        return face_of(c, v)
    except OutsideCone as exc:
        return type(exc)


def check_packed_against_loop(c, v, seen):
    """contains and minimal_face on a cone with facets against the per-facet
    loops; records each outcome in `seen`."""
    got = c.contains(v)
    assert got is contains_by_facet_loop(c, v), v
    face = face_outcome(ConeQ.minimal_face, c, v)
    assert face == face_outcome(minimal_face_by_facet_loop, c, v), v
    seen.update([got, face if isinstance(face, type) else "face"])


def big_probes(c, v, rng):
    """v scaled past 2^64 and 2^200, plus a small offset, so that huge slots
    sit next to small ones; and the largest facet row at the edge of the
    64-bit slot, where s_j = +-l1 * max|v_t| crosses 2^63."""
    out = []
    for n in (2**64 + 1, 2**200 + 3):
        out.append(n * v)
        out.append(n * v + random_rational_vector(rng, c.ambient_dim, (-2, 2), (1, 2)))
    f = max(c._facets, key=lambda f: sum(map(abs, f)))
    l1 = sum(map(abs, f))
    for m in (-(-(2**63) // l1), 2**63 // l1):
        edge = VecQ([m * ((x > 0) - (x < 0)) for x in f])
        out += [edge, -edge]
    return out


class TestIncidenceMasks:
    """The facet-generator incidence read off DD's zero sets against one
    integer dot per (facet, generator) pair."""

    @settings(max_examples=150, deadline=None)
    @given(random_cones())
    def test_random_cones_match_dot_loop(self, c):
        c.facets
        assert c._facet_gen_masks == facet_generator_masks_by_dot(c)

    def test_del_pezzo_and_toric_cones(self, toric_fans):
        cases = [del_pezzo(d).variety().eff_cone for d in range(2, 8)]
        cases += [variety_model(f).eff_cone for f in toric_fans.values()]
        for c in cases:
            c.facets
            assert c._facet_gen_masks == facet_generator_masks_by_dot(c), c


def check_random_cone(c, rng):
    """Small probes and their huge multiples on c against the per-facet
    loops.  Small probes take the one packed product on a little-endian
    host when c has at least PACK_MIN_ROWS facets (about 2 in 5 of the
    random cones); probes past 2^64, and any probe on fewer facets, take
    one idot per facet."""
    c.facets
    d = c.ambient_dim
    probes = [VecQ.zero(d)] + list(c.generators)
    probes += [random_rational_vector(rng, d, (-4, 4), (1, 3)) for _ in range(4)]
    weights = [Fraction(rng.randint(0, 3), rng.randint(1, 2)) for _ in c.generators]
    probes.append(sum((w * g for w, g in zip(weights, c.generators)), VecQ.zero(d)))
    small = list(probes)
    for v in small[1:]:
        probes += big_probes(c, v, rng)
    seen = set()
    for v in probes:
        check_packed_against_loop(c, v, seen)
    per_facet = len(c._facets)
    packs = qlinalg.sys.byteorder == "little" and per_facet >= qlinalg.PACK_MIN_ROWS
    small_cost = 1 if packs else per_facet
    for v in small:
        assert dots_taken(c, v) == small_cost, v
        if not v.is_zero():
            for n in (2**64 + 1, 2**200 + 3):
                assert dots_taken(c, n * v) == per_facet, v


class TestPackedSigns:
    @settings(max_examples=150, deadline=None)
    @given(random_cones(), st.randoms(use_true_random=False))
    def test_random_cones_match_facet_loop(self, c, rng):
        check_random_cone(c, rng)

    @pytest.mark.parametrize("degree", [2, 3])
    def test_del_pezzo_classes_match_facet_loop(self, degree):
        # 500 seeded classes: box points, Fraction points, sums of a few
        # generators (often on the boundary) and their huge multiples
        eff = del_pezzo(degree).variety().eff_cone
        c = ConeQ(eff.generators, ambient_dim=eff.ambient_dim)
        c.facets
        rng = random.Random(0xFACE + degree)
        gens = list(c.generators)
        seen = set()
        for i in range(500):
            kind = i % 4
            if kind == 0:
                v = VecQ([rng.randint(-5, 10) for _ in range(c.ambient_dim)])
            elif kind == 1:
                v = random_rational_vector(rng, c.ambient_dim, (-6, 6), (1, 4))
            else:
                v = VecQ.zero(c.ambient_dim)
                for j in rng.sample(range(len(gens)), rng.randint(1, 4)):
                    v = v + rng.randint(1, 3) * gens[j]
                if kind == 3:
                    v = (2**64 + rng.randint(0, 9)) * v
            check_packed_against_loop(c, v, seen)
        assert seen == {*Containment, "face", OutsideCone}

    def test_width_boundary(self):
        # s = +-2^63 does not fit a 64-bit slot; one bit less carries into
        # the next slot (or out of the last one) and flips the sign read.
        # The last cone has a facet entry past 2^63, which no slot can hold.
        # Each cone is probed as it is, below the crossover, and with the
        # orthant that brings it to PACK_MIN_ROWS facets, so that it packs
        seen = set()
        for gens in ([vec(1)], [vec(1, 0), vec(1, 1)], [vec(1, 2), vec(0, 1)], [vec(2**64, 1), vec(0, 1)]):
            for c in (ConeQ(gens), ConeQ(packing_cone(gens))):
                assert (len(c.facets) >= qlinalg.PACK_MIN_ROWS) == (c.ambient_dim > len(gens))
                for e in (62, 63, 64):
                    for x in (2**e - 1, 2**e, 2**e + 1):
                        for v in (vec(x), vec(x, 0), vec(x, x), vec(x, -x), vec(0, x), vec(x, 1)):
                            if v.dim == len(gens):
                                v = packing_probe(v, c.ambient_dim)
                                check_packed_against_loop(c, v, seen)
                                check_packed_against_loop(c, -v, seen)
        assert seen == {*Containment, "face", OutsideCone}

    def test_one_product_per_question(self, monkeypatch):
        eff = del_pezzo(2).variety().eff_cone
        c = ConeQ(eff.generators, ambient_dim=eff.ambient_dim)
        assert len(c.facets) == 702
        boundary = c.generators[0] + c.generators[1]
        inside = vec(3, -1, -1, -1, -1, -1, -1, -1)
        dots = [counting(monkeypatch, owner, "idot") for owner in (qlinalg, cones)]
        lps = counting(monkeypatch, cones, "solve_lp")
        for v in (boundary, inside, -inside):
            for ask in (c.contains, lambda v: face_outcome(ConeQ.minimal_face, c, v)):
                for calls in dots:
                    calls.clear()
                ask(v)
                assert sum(map(len, dots)) == 1
        assert lps == []

    def test_one_packing_per_width(self):
        # the small probe's products fit 16-bit slots, whose packing is
        # built on the first product and kept for every later one; a probe
        # whose product needs more than 63 bits takes one idot per facet and
        # builds no packing
        c = ConeQ(del_pezzo(3).variety().eff_cone.generators, ambient_dim=7)
        v = vec(3, -1, -1, -1, -1, -1, -1)
        for _ in range(2):
            for n in (1, 2**80, 2**200):
                assert c.contains(n * v) is Containment.INSIDE
                assert c.minimal_face(n * v).span_dim == 7
                assert dots_taken(c, n * v) == (1 if n == 1 else len(c._facets))
        assert list(c._packed._packings) == [2]


class TestDotPath:
    """The packed-sign cases again with `qlinalg` reading the host as
    big-endian, so that every product, small ones too, takes one idot per
    facet."""

    @pytest.fixture(autouse=True)
    def big_endian(self, monkeypatch):
        monkeypatch.setattr(qlinalg, "sys", SimpleNamespace(byteorder="big"))

    @settings(max_examples=150, deadline=None)
    @given(random_cones(), st.randoms(use_true_random=False))
    def test_random_cones_match_facet_loop(self, c, rng):
        check_random_cone(c, rng)

    test_del_pezzo_classes_match_facet_loop = TestPackedSigns.test_del_pezzo_classes_match_facet_loop
    test_width_boundary = TestPackedSigns.test_width_boundary


NOT_STRICT = r"effective cone must be strict \(no lines\)"


class TestStrictness:
    """Every ConeQ is full-dimensional and strict: the constructor checks
    both and rejects any other cone."""

    def test_orthant_strict(self):
        assert is_strict(FIXTURE_CONES["orthant2"])

    def test_line_not_strict(self):
        with pytest.raises(InvalidModel, match=NOT_STRICT):
            ConeQ([vec(1), vec(-1)])

    def test_whole_plane(self):
        with pytest.raises(InvalidModel, match=NOT_STRICT):
            ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1)])

    def test_halfplane_lineality(self):
        with pytest.raises(InvalidModel, match=NOT_STRICT):
            ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)])

    @pytest.mark.parametrize(
        "gens, ambient_dim, message",
        [
            ([vec(1, 2, 0), vec(0, 1, 1), vec(1, 3, 1)], None, "effective cone generators must span Q^3"),
            ([vec(1, 0), vec(-1, 0)], None, "effective cone generators must span Q^2"),
            ([vec(1, 0), vec(0, 1), vec(-1, -1)], None, "effective cone must be strict (no lines)"),
            ([], 2, "effective cone needs a nonzero generator"),
            ([vec(0, 0)], None, "effective cone needs a nonzero generator"),
            ([], 0, "effective cone needs a nonzero generator"),
            ([VecQ([])], None, "effective cone needs a nonzero generator"),
        ],
        ids=["plane-in-space", "line-in-plane", "whole-plane", "no-generators",
             "zero-generator", "ambient-0", "zero-vector-in-q0"],
    )
    def test_only_full_dimensional_strict_cones_are_built(self, gens, ambient_dim, message):
        with pytest.raises(InvalidModel) as exc:
            ConeQ(gens, ambient_dim=ambient_dim)
        assert str(exc.value) == message

    def test_strictness_is_one_lp_when_built(self, monkeypatch):
        calls = counting(monkeypatch, cones, "solve_lp")
        c = ConeQ([vec(1, 0), vec(1, 1)])
        with pytest.raises(InvalidModel, match=NOT_STRICT):
            ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)])
        assert len(calls) == 2
        assert c.is_strict() and len(calls) == 3

    def test_del_pezzo_cones_strict(self):
        for d in range(1, 10):
            assert is_strict(del_pezzo(d).variety().eff_cone)


class TestMinimalFace:
    def test_zero_face(self):
        c = FIXTURE_CONES["orthant2"]
        f = minimal_face(c, VecQ.zero(2))
        assert f.span_dim == 0 and f.generators_in_face == frozenset()

    def test_ray_face(self):
        c = FIXTURE_CONES["orthant2"]
        f = minimal_face(c, vec(3, 0))
        assert f.span_dim == 1
        assert f.generator_vectors() == (vec(1, 0),)

    def test_bl1p2_boundary_ray(self):
        c = bl1p2_cone()
        f = minimal_face(c, vec(1, -1))
        assert f.span_dim == 1
        assert f.generator_vectors() == (vec(1, -1),)
        # codimension 1 in the rank-2 lattice
        assert c.ambient_dim - f.span_dim == 1

    def test_interior_gives_whole_cone(self):
        c = dp6_cone()
        f = minimal_face(c, vec(3, -1, -1, -1))
        assert f.span_dim == c.dim()

    def test_interior_face_spans_the_cone_dimension(self, toric_fans):
        # the whole-cone face spans the ambient space; Bareiss on the
        # generators is the reference
        cones_ = [del_pezzo(d).variety().eff_cone for d in range(2, 8)]
        cones_ += [variety_model(fan).eff_cone for fan in toric_fans.values()]
        for c in cones_:
            total = VecQ.zero(c.ambient_dim)
            for g in c.generators:
                total = total + g
            f = c.minimal_face(total)
            assert f.generators_in_face == frozenset(range(len(c.generators))), c
            assert f.span_dim == c.dim() == span_dim(c.generators), c

    def test_outside_rejected(self):
        with pytest.raises(OutsideCone):
            minimal_face(FIXTURE_CONES["orthant2"], vec(-1, 0))

    def test_non_strict_rejected(self):
        # a cone with a line has no minimal faces to ask for: it is
        # rejected when built
        with pytest.raises(InvalidModel, match=NOT_STRICT):
            ConeQ([vec(1, 0), vec(-1, 0), vec(0, 1)])

    def test_face_contains_vector(self):
        # span of the face generators contains v
        for name in ["dp6", "dp5", "dp4"]:
            c = FIXTURE_CONES[name]
            rng = random.Random(99)
            gens = list(c.generators)
            for _ in range(15):
                picks = rng.sample(range(len(gens)), rng.randint(1, 3))
                v = VecQ.zero(c.ambient_dim)
                for i in picks:
                    v = v + rng.randint(1, 4) * gens[i]
                face = c.minimal_face(v)
                vecs = list(face.generator_vectors())
                assert span_dim(vecs) == span_dim(vecs + [v]), name

    def test_minimality_by_facet_removal_on_simple_cones(self):
        # removing any active facet strictly enlarges the cut; valid on
        # cones/points with simple incidence (see also the LP oracle below,
        # which covers the non-simple cones)
        cases = [
            (FIXTURE_CONES["orthant3"], vec(2, 0, 0)),
            (FIXTURE_CONES["orthant3"], vec(1, 1, 0)),
            (bl1p2_cone(), vec(1, -1)),
            (dp6_cone(), vec(0, 1, 0, 0)),
            (dp6_cone(), vec(1, -1, -1, 0)),
        ]
        for c, v in cases:
            face = c.minimal_face(v)
            masks = c._facet_gen_masks
            all_gens = (1 << len(c.generators)) - 1
            active = [i for i, f in enumerate(c.facets) if f.dot(v) == 0]
            for dropped in active:
                gmask = all_gens
                for i in active:
                    if i != dropped:
                        gmask &= masks[i]
                enlarged = [c.generators[j] for j in range(len(c.generators)) if gmask >> j & 1]
                assert span_dim(enlarged) > face.span_dim

    def test_against_lp_support_oracle(self, monkeypatch):
        # the LP support oracle on every cone, and on those of rank <= 5
        # the cut of the Fourier-Motzkin facets vanishing at v, which needs
        # neither DD nor an LP.  With a memo of two faces, every point is
        # asked again after the memo has evicted.
        monkeypatch.setattr(cones, "FACE_MEMO_BOUND", 2)
        for name in ["orthant3", "bl1p2", "quadric", "dp6", "dp5", "dp4"]:
            c = FIXTURE_CONES[name]
            rng = random.Random(0xACE + len(name))
            gens = list(c.generators)
            ints = [tuple(int(x) for x in g) for g in gens]
            fm = fm_facets(ints, c.ambient_dim) if c.ambient_dim <= 5 else None
            points, faces = [], []
            for _ in range(12):
                picks = rng.sample(range(len(gens)), rng.randint(1, min(3, len(gens))))
                v = VecQ.zero(c.ambient_dim)
                for i in picks:
                    v = v + rng.randint(1, 3) * gens[i]
                face = c.minimal_face(v)
                assert face.generators_in_face == minimal_face_generators_lp(c, v), name
                if fm is not None:
                    vanishing = [f for f in fm if sum(a * x for a, x in zip(f, v)) == 0]
                    on_all = [all(sum(a * x for a, x in zip(f, g)) == 0 for f in vanishing) for g in ints]
                    assert face.generators_in_face == {j for j, on in enumerate(on_all) if on}, name
                points.append(v)
                faces.append(face)
            assert len(c._faces) <= 2 < len(set(faces)), name
            assert [c.minimal_face(v) for v in points] == faces, name


class TestMinAOnRay:
    def test_symmetric_diagonal(self):
        assert min_a_on_ray(FIXTURE_CONES["orthant2"], vec(-3, -3), vec(1, 1)) == 3

    def test_plane_adjunction(self):
        c = ConeQ([vec(1)])
        assert min_a_on_ray(c, vec(-3), vec(1)) == 3

    def test_bl1p2_two_facets(self):
        a = min_a_on_ray(bl1p2_cone(), vec(-3, 1), vec(2, -1))
        assert a == 2

    def test_fractional_answer(self):
        # boundary reached at a rational, non-integer parameter
        a = min_a_on_ray(FIXTURE_CONES["orthant2"], vec(-1, -3), vec(2, 5))
        assert a == Fraction(3, 5)

    def test_infeasible(self):
        with pytest.raises(Infeasible):
            min_a_on_ray(FIXTURE_CONES["orthant2"], vec(0, -1), vec(-1, 0))

    def test_unbounded(self):
        # -direction lies in the cone, so base + a*direction stays in it as
        # a goes to -oo
        with pytest.raises(UnboundedBelow):
            min_a_on_ray(FIXTURE_CONES["orthant2"], vec(0, 1), vec(-1, 0))

    def test_boundary_probe_property(self):
        eps = Fraction(1, 1000)
        cases = [
            (FIXTURE_CONES["orthant2"], vec(-3, -3), vec(1, 1)),
            (bl1p2_cone(), vec(-3, 1), vec(2, -1)),
            (dp6_cone(), vec(-3, 1, 1, 1), vec(3, -1, -1, -1)),
            (dp6_cone(), vec(-3, 1, 1, 1), vec(3, 0, -1, -1)),
        ]
        for c, base, direction in cases:
            a = min_a_on_ray(c, base, direction)
            assert c.contains(base + a * direction) is Containment.BOUNDARY
            assert c.contains(base + (a - eps) * direction) is Containment.OUTSIDE

    def test_witness_reconstructs_boundary_point(self):
        c = dp6_cone()
        base, direction = vec(-3, 1, 1, 1), vec(3, 0, -1, -1)
        a, witness = c.min_a_with_witness(base, direction)
        point = VecQ.zero(4)
        for lam, g in zip(witness, c.generators):
            point = point + lam * g
        assert point == base + a * direction


@st.composite
def small_systems(draw):
    """{x >= 0 : A x = b} with tiny integer entries, biased to degeneracy:
    scaled duplicate rows, zero right-hand sides, and columns that repeat
    or negate another one (lines and implicit equalities)."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        k = draw(st.sampled_from([1, -1, 2]))
        rows[-1] = [k * v for v in rows[0]]
        b[-1] = k * b[0]
    if n > 1 and draw(st.booleans()):
        k = draw(st.sampled_from([1, -1]))
        for r in rows:
            r[-1] = k * r[0]
    if draw(st.booleans()):
        b = [0] * m
    measured = sorted(draw(st.sets(st.integers(0, n - 1))))
    return rows, b, measured


class TestPositiveSupport:
    @settings(max_examples=300, deadline=None)
    @given(small_systems())
    def test_matches_basis_enumeration(self, system):
        a, b, measured = system
        expected = positive_support_by_basis_enumeration(a, b, measured)
        found = positive_support(a, b, measured)
        if expected is None:
            assert found is None
            return
        support, x = found
        assert support == expected
        assert all(v >= 0 for v in x)
        assert all(sum(r[j] * x[j] for j in range(len(x))) == bv for r, bv in zip(a, b))
        assert {i for i in measured if x[i] > 0} == support

    def test_forced_large_coefficient(self):
        # x0 = 5 on every feasible point: t0 is capped at 1, w0 carries the rest
        support, x = positive_support([[1, 0], [0, 1]], [5, 0], [0, 1])
        assert support == {0}
        assert x == (5, 0)

    def test_infeasible(self):
        assert positive_support([[1, 1]], [-1], [0, 1]) is None

    def test_unbounded_lp_is_an_internal_error(self, monkeypatch):
        # the LP is bounded by construction: any other status is a bug
        unbounded = LPResult(LPStatus.UNBOUNDED, None, None)
        monkeypatch.setattr(cones, "solve_lp", lambda *args: unbounded)
        with pytest.raises(InternalError, match="positive-support LP is unbounded"):
            positive_support([[1, 0], [0, 1]], [5, 0], [0, 1])

    def test_non_strict_lineality_support(self):
        # the line through (1, 0, 0) plus two rays off it: the generators in
        # some vanishing nonnegative combination span the lineality space
        gens = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (1, 1, 1)]
        with pytest.raises(InvalidModel, match=NOT_STRICT):
            ConeQ(gens)
        a_rows = [[g[t] for g in gens] for t in range(3)]
        support, _ = positive_support(a_rows, [0, 0, 0], range(4))
        assert support == {0, 1}
