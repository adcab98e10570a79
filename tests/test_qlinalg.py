import tracemalloc
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fujita import qlinalg
from fujita.errors import DimensionMismatch
from fujita.qlinalg import (
    MatQ,
    VecQ,
    inertia,
    nullspace,
    pivot_columns,
    primitive_int,
    rank,
    scaled_ints,
    scaled_inverse,
    solve,
    span_dim,
)
from conftest import counting, identity, packing_rows, straddling, transpose, unit
from oracles import (
    add_fractions_bigint,
    det_by_permutations,
    inertia_by_fractions,
    mul_fractions_bigint,
    pivot_columns_by_bareiss,
    rank_by_bareiss,
    scaled_inverse_by_bareiss,
    solve_by_back_substitution,
)


class TestRank:
    def test_identity(self):
        assert rank(identity(3)) == 3

    def test_zero_matrix(self):
        assert rank(MatQ([[0] * 5, [0] * 5])) == 0

    def test_proportional_rows(self):
        assert rank(MatQ([[1, -1], [2, -2]])) == 1

    def test_rank_transpose(self, rng):
        for _ in range(40):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = MatQ([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)])
            assert rank(m) == rank(transpose(m))


class TestSolve:
    def test_scalar(self):
        sol = solve(MatQ([[2]]), VecQ([3]))
        assert not sol.kernel and sol.particular == VecQ([Fraction(3, 2)])

    def test_underdetermined(self):
        sol = solve(MatQ([[1, 1]]), VecQ([1]))
        assert sol.kernel
        assert len(sol.kernel) == 1
        # particular solves, kernel annihilates
        m = MatQ([[1, 1]])
        assert m.apply(sol.particular) == VecQ([1])
        assert m.apply(sol.kernel[0]) == VecQ([0])

    def test_inconsistent(self):
        assert solve(MatQ([[1], [1]]), VecQ([0, 1])) is None

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(MatQ([[1, 0]]), VecQ([1, 2]))

    def test_substitution_exact(self, rng):
        for _ in range(60):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = MatQ([[Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(c)] for _ in range(r)])
            rhs = VecQ([Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(r)])
            sol = solve(m, rhs)
            if sol is None:
                continue
            assert m.apply(sol.particular) == rhs
            for kv in sol.kernel:
                assert m.apply(kv) == VecQ.zero(r)

    def test_nullspace(self):
        ker = nullspace(MatQ([[1, 1, 0], [0, 0, 1]]))
        assert len(ker) == 1
        assert ker[0] == VecQ([-1, 1, 0])


class TestSpanDim:
    def test_empty(self):
        assert span_dim([]) == 0

    def test_plane(self):
        assert span_dim([VecQ([1, 0]), VecQ([0, 1]), VecQ([1, 1])]) == 2

    def test_three_exceptional_classes(self):
        # E1, E2, E3 inside the rank-4 lattice of the degree-6 surface
        vs = [VecQ([0, 1, 0, 0]), VecQ([0, 0, 1, 0]), VecQ([0, 0, 0, 1])]
        assert span_dim(vs) == 3

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            span_dim([VecQ([1, 0]), VecQ([1, 0, 0])])


class TestVecQ:
    def test_no_floats(self):
        with pytest.raises(TypeError):
            VecQ([0.5, 1])

    def test_arithmetic(self):
        v = VecQ([1, 2]) + Fraction(1, 2) * VecQ([2, -4])
        assert v == VecQ([2, 0])
        assert (-v)[0] == -2

    def test_primitive(self):
        assert primitive_int([Fraction(2, 3), Fraction(-4, 3)]) == (1, -2)
        assert primitive_int([0, 0]) == (0, 0)

    def test_scaled_ints(self):
        assert scaled_ints([Fraction(1, 2), 3, Fraction(-2, 3)]) == ([3, 18, -4], 6)
        # the least common multiple, not the product of the denominators
        assert scaled_ints([Fraction(1, 2), Fraction(3, 4)]) == ([2, 3], 4)
        assert scaled_ints(VecQ([4, -1])) == ([4, -1], 1)
        assert scaled_ints([]) == ([], 1)
        # an int stays an int: the fast path does not build Fractions
        assert all(type(x) is int for x in scaled_ints([2, Fraction(5), "3/1"])[0])
        with pytest.raises(TypeError):
            scaled_ints([0.5])

    def test_hash_is_kept_and_equal_across_routes(self):
        v = VecQ([Fraction(1, 3), -2, Fraction(5, 7)])
        h = hash(v)
        assert v._h == h and hash(v) == h
        # Fractions over another denominator, 'p/q' strings, the entries,
        # from_scaled with a common factor and arithmetic on ints give one
        # (n, q) and one hash
        routes = [
            VecQ([Fraction(7, 21), Fraction(-42, 21), Fraction(15, 21)]),
            VecQ(["1/3", "-2", "10/14"]),
            VecQ(list(v)),
            VecQ.from_scaled([6 * 7, 6 * -42, 6 * 15], 6 * 21),
            VecQ([2, -12, 3]) * Fraction(1, 6) + VecQ([0, 0, Fraction(5, 7) - Fraction(1, 2)]),
        ]
        for w in routes:
            assert w == v and hash(w) == h
            assert (w._n, w._q) == ((7, -42, 15), 21)
        assert {v: 1}[routes[-1]] == 1
        ints = VecQ([3, -6])
        for w in (VecQ([Fraction(6, 2), "-6"]), VecQ.from_scaled([9, -18], 3)):
            assert w == ints and hash(w) == hash(ints) and (w._n, w._q) == ((3, -6), 1)
        assert VecQ([1, 2]) != VecQ([1, 2, 0]) and VecQ([1]) != (Fraction(1),)

    def test_reduced_invariants(self):
        # Fraction keeps lowest terms with positive denominator
        x = Fraction(6, -4)
        assert x.numerator == -3 and x.denominator == 2


@settings(max_examples=300, deadline=None)
@given(
    an=st.integers(min_value=-(2**63), max_value=2**63),
    ad=st.integers(min_value=1, max_value=2**63),
    bn=st.integers(min_value=-(2**63), max_value=2**63),
    bd=st.integers(min_value=1, max_value=2**63),
)
def test_fraction_arithmetic_against_bigint_oracle(an, ad, bn, bd):
    s = Fraction(an, ad) + Fraction(bn, bd)
    on, od = add_fractions_bigint(an, ad, bn, bd)
    assert (s.numerator, s.denominator) == (on, od)
    p = Fraction(an, ad) * Fraction(bn, bd)
    on, od = mul_fractions_bigint(an, ad, bn, bd)
    assert (p.numerator, p.denominator) == (on, od)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.booleans(),
)
def test_scaled_inverse_det_against_permutation_oracle(rows, repeat_row):
    # a repeated row makes every other draw singular
    if repeat_row:
        rows = rows[:-1] + [rows[0]]
    assert scaled_inverse(rows)[0] == abs(det_by_permutations(rows))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.lists(
                st.one_of(st.integers(-2, 2), st.builds(Fraction, st.integers(-2, 2), st.just(3))),
                min_size=d,
                max_size=d,
            ),
            max_size=7,
        )
    )
)
def test_pivot_columns_are_the_greedy_independent_picks(vectors):
    # a vector is picked iff it is independent of every earlier one
    greedy = [
        i
        for i, v in enumerate(vectors)
        if span_dim([VecQ(u) for u in vectors[: i + 1]]) > span_dim([VecQ(u) for u in vectors[:i]])
    ]
    assert pivot_columns(vectors) == greedy


class TestAbsDet:
    """|det| is the first entry of ``scaled_inverse``, the only determinant left in src."""

    def test_identity_and_signs(self):
        identity = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        assert scaled_inverse(identity) == (1, identity)
        assert scaled_inverse([[0, 1], [1, 0]])[0] == 1
        assert scaled_inverse([[2, 1], [1, -3]]) == (7, [[3, 1], [1, -2]])

    def test_singular(self):
        assert scaled_inverse([[1, 2, 3], [2, 4, 6], [0, 1, 5]]) == (0, None)
        assert scaled_inverse([[0, 0], [0, 0]]) == (0, None)

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            scaled_inverse([[1, 2], [3, 4], [5, 6]])


class TestScaledInverse:
    def test_small_cases(self):
        assert scaled_inverse([[2, 1], [1, 3]]) == (5, [[3, -1], [-1, 2]])
        # a negative determinant: the sign goes into |det| * m^-1
        assert scaled_inverse([[0, 1], [1, 0]]) == (1, [[0, 1], [1, 0]])
        assert scaled_inverse([[-3]]) == (3, [[-1]])
        assert scaled_inverse([]) == (1, [])

    def test_singular(self):
        assert scaled_inverse([[1, 2], [2, 4]]) == (0, None)
        assert scaled_inverse([[0, 0, 1], [0, 1, 0], [0, 2, 0]]) == (0, None)

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            scaled_inverse([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.booleans(),
)
def test_scaled_inverse_against_solve(rows, singular):
    n = len(rows)
    # every other draw gets a last row that is a combination of the others
    if singular:
        rows = rows[:-1] + [[x - 2 * y for x, y in zip(rows[0], rows[-2])] if n > 1 else [0]]
    d = abs(det_by_permutations(rows))
    got = scaled_inverse(rows)
    assert got == scaled_inverse_by_bareiss(rows)
    if d == 0:
        assert got == (0, None)
        return
    columns = [solve(MatQ(rows), unit(n, j)).particular for j in range(n)]
    expected = [[d * columns[j][i] for j in range(n)] for i in range(n)]
    assert got == (d, expected)


RATIONALS = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)),
)


def lowest_terms(v: VecQ) -> bool:
    return v._q > 0 and gcd(v._q, *v._n) == 1 and all(type(x) is int for x in v._n)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda d: st.tuples(
            st.lists(RATIONALS, min_size=d, max_size=d),
            st.lists(RATIONALS, min_size=d, max_size=d),
        )
    ),
    RATIONALS,
    st.integers(1, 12),
)
def test_vecq_against_fraction_tuples(pair, scalar, factor):
    xs, ys = [tuple(Fraction(x) for x in t) for t in pair]
    u, v = VecQ(xs), VecQ(ys)
    # ints, Fractions and 'p/q' strings, and from_scaled of any multiple,
    # build the same vector
    ints, den = scaled_ints(xs)
    for w in (VecQ([str(x) for x in xs]), VecQ([int(x) if x.denominator == 1 else x for x in xs]),
              VecQ.from_scaled([factor * x for x in ints], factor * den)):
        assert w == u and hash(w) == hash(u) and w.entries == xs and lowest_terms(w)
    assert (u == v) == (xs == ys)
    if xs == ys:
        assert hash(u) == hash(v)
    assert u.entries == xs and tuple(u) == xs and list(u) == list(xs) and len(u) == u.dim == len(xs)
    assert all(u[i] == xs[i] for i in range(len(xs)))
    assert scaled_ints(u) == scaled_ints(list(xs))
    results = {
        "+": (u + v, [a + b for a, b in zip(xs, ys)]),
        "-": (u - v, [a - b for a, b in zip(xs, ys)]),
        "neg": (-u, [-a for a in xs]),
        "*": (u * scalar, [scalar * a for a in xs]),
        "r*": (scalar * u, [scalar * a for a in xs]),
        "primitive": (u.primitive(), list(primitive_int(xs))),
    }
    for op, (got, want) in results.items():
        assert got.entries == tuple(want), op
        assert lowest_terms(got), op
        assert got == VecQ(want) and hash(got) == hash(VecQ(want)), op
    assert u.is_zero() == all(a == 0 for a in xs)
    assert lowest_terms(u) and lowest_terms(v)
    assert repr(u) == "VecQ(%s)" % ", ".join(str(a) for a in xs)


def test_vecq_rejects_floats_and_bools():
    for bad in ([0.5], [1, True], [False], [1, 2.0]):
        with pytest.raises(TypeError):
            VecQ(bad)
    with pytest.raises(TypeError):
        VecQ([1, 2]) * 0.5
    with pytest.raises(TypeError):
        VecQ([1, 2]) * True
    with pytest.raises(TypeError):
        VecQ([1, 2]) + (1, 2)
    with pytest.raises(DimensionMismatch):
        VecQ([1, 2]) + VecQ([1])


@st.composite
def rational_systems(draw):
    """A rational matrix up to 6 x 6, with some rows replaced by
    combinations of earlier ones (rank-deficient draws), and a right-hand
    side that is either drawn freely or m times a drawn x (consistent)."""
    r = draw(st.integers(1, 6))
    c = draw(st.integers(1, 6))
    rows = [draw(st.lists(RATIONALS, min_size=c, max_size=c)) for _ in range(r)]
    for i in range(1, r):
        if draw(st.booleans()):
            s, t = draw(RATIONALS), draw(RATIONALS)
            j = draw(st.integers(0, i - 1))
            rows[i] = [s * a + t * b for a, b in zip(rows[j], rows[i - 1])]
    m = MatQ(rows)
    if draw(st.booleans()):
        rhs = VecQ(draw(st.lists(RATIONALS, min_size=r, max_size=r)))
    else:
        rhs = m.apply(VecQ(draw(st.lists(RATIONALS, min_size=c, max_size=c))))
    return m, rhs


@settings(max_examples=400, deadline=None)
@given(rational_systems())
def test_kernels_against_bareiss_oracles(system):
    m, rhs = system
    assert rank(m) == rank_by_bareiss(m)
    assert span_dim(m.row_list()) == rank_by_bareiss(m)
    columns = [list(col) for col in zip(*[r.entries for r in m.row_list()])]
    assert pivot_columns(columns) == pivot_columns_by_bareiss(columns)
    assert pivot_columns(m.row_list()) == pivot_columns_by_bareiss(m.row_list())
    assert solve(m, rhs) == solve_by_back_substitution(m, rhs)
    assert nullspace(m) == solve_by_back_substitution(m, VecQ.zero(m.rows)).kernel


@st.composite
def symmetric_forms(draw):
    """Symmetric rational matrices up to 6 x 6: free draws, zero diagonals,
    sums of hyperbolic planes, and degenerate congruences P^T D P."""
    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["free", "zero_diagonal", "hyperbolic", "degenerate"]))
    a = [[Fraction(0)] * n for _ in range(n)]
    if kind == "degenerate":
        diag = draw(st.lists(st.sampled_from([-2, -1, 0, 0, 1, 3]), min_size=n, max_size=n))
        p = [draw(st.lists(RATIONALS, min_size=n, max_size=n)) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                a[i][j] = sum(Fraction(p[k][i]) * diag[k] * p[k][j] for k in range(n))
        return MatQ(a)
    for i in range(n):
        for j in range(i, n):
            if kind == "hyperbolic":
                x = draw(RATIONALS) if j == i + 1 and i % 2 == 0 else 0
            elif kind == "zero_diagonal" and i == j:
                x = 0
            else:
                x = draw(RATIONALS)
            a[i][j] = a[j][i] = Fraction(x)
    return MatQ(a)


@settings(max_examples=400, deadline=None)
@given(symmetric_forms())
def test_inertia_against_fraction_oracle(form):
    assert inertia(form) == inertia_by_fractions(form)


class TestInertia:
    def test_standard_lorentzian(self):
        m = MatQ([[1, 0, 0], [0, -1, 0], [0, 0, -1]])
        assert inertia(m) == (1, 2, 0)

    def test_hyperbolic_plane(self):
        assert inertia(MatQ([[0, 1], [1, 0]])) == (1, 1, 0)

    def test_degenerate(self):
        assert inertia(MatQ([[1, 1], [1, 1]])) == (1, 0, 1)

    def test_random_congruence_invariance(self, rng):
        # P^T D P has the same inertia as D for invertible P
        for _ in range(20):
            n = rng.randint(1, 4)
            diag = [rng.choice([-2, -1, 0, 1, 3]) for _ in range(n)]
            d = MatQ([[diag[i] if i == j else 0 for j in range(n)] for i in range(n)])
            expected = (
                sum(1 for x in diag if x > 0),
                sum(1 for x in diag if x < 0),
                sum(1 for x in diag if x == 0),
            )
            while True:
                p = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
                if rank(MatQ(p)) == n:
                    break
            pm = MatQ(p)
            prod = MatQ(
                [
                    [
                        sum(pm.entry(k, i) * d.entry(k, l) * pm.entry(l, j) for k in range(n) for l in range(n))
                        for j in range(n)
                    ]
                    for i in range(n)
                ]
            )
            assert inertia(prod) == expected


def products_by_loop(rows, v):
    return [sum(a * b for a, b in zip(r, v)) for r in rows]


def dots_in(monkeypatch, packed, v):
    """products(v) and the number of idot calls it took."""
    with monkeypatch.context() as mp:
        calls = counting(mp, qlinalg, "idot")
        got = list(packed.products(v))
    return got, len(calls)


class TestPackedRows:
    """Every row.v from one packed product while l1 * max|v| < 2^63 (l1
    the largest absolute row sum), in the narrowest of 16-, 32- and 64-bit
    slots that holds that bound, one idot per row past it or on fewer than
    PACK_MIN_ROWS rows, and the same numbers either way."""

    # l1 = 1, 2, 3 and a row entry past 2^63, which no slot can hold;
    # repeated up to the crossover, so that they pack
    ROWS = ([(1,)], [(1, 0), (1, 1)], [(1, 2), (0, 1)], [(2**64, 1), (0, 1)])

    def test_width_boundary(self, monkeypatch):
        # s = +-2^63 does not fit a 64-bit slot; one bit less carries into
        # the next slot (or out of the last one) and flips the sign read
        paths = set()
        for rows in map(packing_rows, self.ROWS):
            packed = qlinalg.PackedRows(rows)
            l1 = max(sum(map(abs, r)) for r in rows)
            for e in (62, 63, 64):
                for x in (2**e - 1, 2**e, 2**e + 1):
                    for v in ((x,), (x, 0), (x, x), (x, -x), (0, x), (x, 1)):
                        if len(v) != len(rows[0]):
                            continue
                        for w in (v, tuple(-t for t in v)):
                            got, dots = dots_in(monkeypatch, packed, w)
                            assert got == products_by_loop(rows, w), (rows, w)
                            fits = l1 * max(map(abs, w)) < 2**63
                            assert dots == (1 if fits else len(rows)), (rows, w)
                            paths.add(fits)
        assert paths == {True, False}

    def test_slot_edges(self, monkeypatch):
        # with l1 = 1, products of +-(2^63 - 1) are the widest a slot
        # holds, next to each other in both orders; 2^63 takes the dots
        packed = qlinalg.PackedRows(packing_rows([(1, 0), (0, -1), (1, 0)]))
        edge = 2**63 - 1
        for v in ((edge, 0), (0, edge), (-edge, edge), (edge, -edge), (-edge, 1)):
            got, dots = dots_in(monkeypatch, packed, v)
            assert got == products_by_loop(packed.rows, v) and dots == 1, v
        for v in ((edge + 1, 0), (0, -edge - 1)):
            got, dots = dots_in(monkeypatch, packed, v)
            assert got == products_by_loop(packed.rows, v) and dots == len(packed.rows), v

    def test_narrow_slot_edges(self, monkeypatch):
        # products at the edges of the 16- and 32-bit slots, next to each
        # other in both orders: +-(2^15 - 1), +-2^15, +-(2^31 - 1), +-2^31
        # as entries of v, and with l1 = 3 also the entries that put
        # l1 * max|v| just under and at 2^15 and 2^31.  Each takes the
        # narrowest slots that hold l1 * max|v| and one idot; a width one bit
        # narrower carries into the next slot
        for rows in map(packing_rows, ([(1, 0), (0, -1), (1, 0)], [(1, 2), (-2, -1), (3, 0)])):
            packed = qlinalg.PackedRows(rows)
            l1 = max(sum(map(abs, r)) for r in rows)
            edges = {2**15 - 1, 2**15, 2**31 - 1, 2**31}
            edges |= {(2**15 - 1) // l1, (2**15 - 1) // l1 + 1, (2**31 - 1) // l1, (2**31 - 1) // l1 + 1}
            for e in sorted(edges):
                for v in ((e, 0), (0, e), (e, e), (e, -e), (e, 1), (1, e)):
                    for w in (v, tuple(-t for t in v)):
                        got, dots = dots_in(monkeypatch, packed, w)
                        assert got == products_by_loop(rows, w) and dots == 1, (rows, w)
                        bound = l1 * max(map(abs, w))
                        size = min(s for s in (2, 4, 8) if bound < 2 ** (8 * s - 1))
                        assert packed.products(w).itemsize == size, (rows, w)

    def test_few_rows_take_one_dot_per_row(self, monkeypatch, rng):
        # the measured crossover: up to 4 rows take one idot per row, at
        # every width, and 5 rows one packed product.  Below it the
        # products and the positions of each value are those of the packed
        # path, forced by a crossover of one row
        assert qlinalg.PACK_MIN_ROWS == 5
        for n in range(6):
            for bits in (3, 20, 40, 200):
                rows = [tuple(rng.randint(-9, 9) for _ in range(3)) for _ in range(n)]
                v = [rng.randint(-(2**bits), 2**bits) for _ in range(3)]
                l1 = max([sum(map(abs, r)) for r in rows], default=0)
                fits = l1 * max(map(abs, v)) < 2**63
                packed = qlinalg.PackedRows(rows)
                got, dots = dots_in(monkeypatch, packed, v)
                assert (got, dots) == (products_by_loop(rows, v), 1 if n == 5 and fits else n), (rows, v)
                if n == 5:
                    continue
                with monkeypatch.context() as mp:
                    mp.setattr(qlinalg, "PACK_MIN_ROWS", 1)
                    forced = packed.products(v)
                    assert list(forced) == got
                    assert (type(forced) is memoryview) == (n > 0 and fits)
                    for x in set(got):
                        for lo, hi in ((0, n), (1, n), (0, n - 1)):
                            at = qlinalg.positions(forced, x, lo, hi)
                            assert qlinalg.positions(packed.products(v), x, lo, hi) == at, (rows, v)

    def test_packing_columns_match_the_byte_join(self, rng):
        # each column from one packing of its biased slots equals the column built
        # from one `to_bytes` object per entry, on random rows with negative
        # entries and on rows holding the slot edges -2^(w-1), -(2^(w-1) - 1)
        # and 2^(w-1) - 1, at every width; HIGH is the same too
        def by_bytes(rows, size):
            bias = 1 << (8 * size - 1)
            high = int.from_bytes(bias.to_bytes(size, "little") * len(rows), "little")
            biased = [b"".join([(x + bias).to_bytes(size, "little") for x in c]) for c in zip(*rows)]
            return [int.from_bytes(b, "little") - high for b in biased], high

        for size in (2, 4, 8):
            edge = 1 << (8 * size - 1)
            cases = [[tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(rng.randint(1, 30))]
                     for d in (1, 3, 7) for _ in range(10)]
            cases.append([(-edge, edge - 1, 0), (edge - 1, -edge, 1 - edge), (0, 1 - edge, -1)])
            cases.append([(-edge,), (edge - 1,), (-edge,)])
            for rows in cases:
                packing = qlinalg.PackedRows(rows)._packing(size)
                assert packing == by_bytes(rows, size), (size, rows)

    def test_packing_peak_memory(self, rng):
        # the 16-bit packing of 19 440 rows of dimension 10 with entries in
        # [-6, 6], the degree-1 cone's facet count, peaks under 2 MB while
        # it is built; one to_bytes object per entry peaked at 4.4 MB
        rows = [tuple(rng.randint(-6, 6) for _ in range(10)) for _ in range(19440)]
        packed = qlinalg.PackedRows(rows)
        tracemalloc.start()
        try:
            packed._packing(2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 1024 * 1024, peak
        assert list(packed.products([1] + [0] * 9)) == [r[0] for r in rows]

    def test_positions_reads_whole_slots(self):
        # x's bytes one byte past a slot start, A's then B's, match no slot;
        # the matches at both ends of [lo, hi) do, and none outside it
        for size in (2, 4, 8):
            a, b, x = straddling(size)
            values = [x, a, b, x, a, b, x, x]
            packed = qlinalg.PackedRows([[int(i == j) for j in range(8)] for i in range(8)])
            sl = packed.products(values)
            assert sl.itemsize == size and sl.obj.find(x.to_bytes(size, "little"), size) == 1 + size
            for got in (sl, list(sl)):
                assert qlinalg.positions(got, x, 0, 8) == [0, 3, 6, 7]
                assert qlinalg.positions(got, x, 1, 7) == [3, 6]
                assert qlinalg.positions(got, x, 4, 6) == []
                assert qlinalg.positions(got, a, 1, 2) == [1]

    def test_random_rows(self, monkeypatch, rng):
        for _ in range(200):
            d = rng.randint(1, 6)
            rows = [tuple(rng.randint(-9, 9) for _ in range(d)) for _ in range(rng.randint(1, 40))]
            packed = qlinalg.PackedRows(rows)
            for bits in (3, 20, 58, 64, 200):
                v = [rng.randint(-(2**bits), 2**bits) for _ in range(d)]
                assert dots_in(monkeypatch, packed, v)[0] == products_by_loop(rows, v)

    def test_no_rows(self):
        assert list(qlinalg.PackedRows(()).products([1, 2])) == []

    def test_big_endian_takes_one_dot_per_row(self, monkeypatch):
        monkeypatch.setattr(qlinalg, "sys", SimpleNamespace(byteorder="big"))
        for rows in self.ROWS:
            packed = qlinalg.PackedRows(rows)
            for v in ((1,), (3, -2), (2**62, 1)):
                if len(v) == len(rows[0]):
                    assert dots_in(monkeypatch, packed, v) == (products_by_loop(rows, v), len(rows))
