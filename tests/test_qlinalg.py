from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fujita.errors import DimensionMismatch
from fujita.qlinalg import (
    MatQ,
    VecQ,
    abs_det,
    inertia,
    nullspace,
    pivot_columns,
    primitive_int,
    rank,
    solve,
    span_dim,
)
from oracles import add_fractions_bigint, det_by_permutations, mul_fractions_bigint


class TestRank:
    def test_identity(self):
        assert rank(MatQ.identity(3)) == 3

    def test_zero_matrix(self):
        assert rank(MatQ([[0] * 5, [0] * 5])) == 0

    def test_proportional_rows(self):
        assert rank(MatQ([[1, -1], [2, -2]])) == 1

    def test_rank_transpose(self, rng):
        for _ in range(40):
            r = rng.randint(1, 5)
            c = rng.randint(1, 5)
            m = MatQ([[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(c)] for _ in range(r)])
            assert rank(m) == rank(m.transpose())


class TestSolve:
    def test_scalar(self):
        sol = solve(MatQ([[2]]), VecQ([3]))
        assert sol.unique and sol.particular == VecQ([Fraction(3, 2)])

    def test_underdetermined(self):
        sol = solve(MatQ([[1, 1]]), VecQ([1]))
        assert not sol.unique
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


class TestAbsDet:
    def test_identity_and_signs(self):
        assert abs_det(MatQ.identity(4)) == 1
        assert abs_det(MatQ([[0, 1], [1, 0]])) == 1
        assert abs_det(MatQ([[2, 1], [1, -3]])) == 7

    def test_singular(self):
        assert abs_det(MatQ([[1, 2, 3], [2, 4, 6], [0, 1, 5]])) == 0
        assert abs_det(MatQ([[0, 0], [0, 0]])) == 0

    def test_rational_rows(self):
        assert abs_det(MatQ([[Fraction(1, 2), 1], [Fraction(1, 3), Fraction(-2, 5)]])) == Fraction(8, 15)

    def test_not_square(self):
        with pytest.raises(DimensionMismatch):
            abs_det(MatQ([[1, 2, 3], [4, 5, 6]]))


@settings(max_examples=300, deadline=None)
@given(
    st.integers(2, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n), min_size=n, max_size=n
        )
    ),
    st.booleans(),
)
def test_abs_det_against_permutation_oracle(rows, repeat_row):
    # a repeated row makes every other draw singular
    if repeat_row:
        rows = rows[:-1] + [rows[0]]
    assert abs_det(MatQ(rows)) == abs(det_by_permutations(rows))


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
