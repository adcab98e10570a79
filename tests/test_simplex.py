import gc
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fujita.simplex import LPStatus, solve_lp
from oracles import lp_by_basis_enumeration

F = Fraction
BEALE = (
    [
        [F(1, 4), -8, -1, 9, 1, 0, 0],
        [F(1, 2), -12, F(-1, 2), 3, 0, 1, 0],
        [0, 0, 1, 0, 0, 0, 1],
    ],
    [0, 0, 1],
    [F(-3, 4), 20, F(-1, 2), 6, 0, 0, 0],
)


def test_basic_optimum():
    # min -x - y  st  x + y + s = 4, x + 3y + t = 6
    res = solve_lp([[1, 1, 1, 0], [1, 3, 0, 1]], [4, 6], [-1, -1, 0, 0])
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == -4


def test_infeasible():
    # x = -1 with x >= 0 (after sign flip becomes -x = 1)
    res = solve_lp([[1]], [-1], [0])
    assert res.status is LPStatus.INFEASIBLE


def test_unbounded():
    # min -x st x - y = 0
    res = solve_lp([[1, -1]], [0], [-1, 0])
    assert res.status is LPStatus.UNBOUNDED


def test_degenerate_bland_terminates():
    # classic cycling-prone instance (Beale); Bland must terminate
    res = solve_lp(*BEALE)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == Fraction(-5, 4)


def test_exact_rational_answer():
    # min x st 3x = 2
    res = solve_lp([[3]], [2], [1])
    assert res.status is LPStatus.OPTIMAL
    assert res.x[0] == Fraction(2, 3)


def test_redundant_rows_dropped():
    res = solve_lp([[1, 1], [2, 2]], [3, 6], [1, 0])
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == 0


def test_zero_rows():
    res = solve_lp([], [], [1, 1])
    assert res.status is LPStatus.OPTIMAL
    assert res.x == (0, 0)


def test_feasibility_problem():
    res = solve_lp([[1, 1], [1, -1]], [2, 0], [0, 0])
    assert res.status is LPStatus.OPTIMAL
    assert res.x == (1, 1)


# x as the rational tableau (the solver before the integer rewrite) returned
# it.  Where the optimum is not unique, Bland's rule picks one vertex, so an
# equal x shows the same pivot sequence.
PINNED = {
    "beale": (*BEALE, (1, 0, 1, 0, F(3, 4), 0, 0)),
    "fraction_row_negative_rhs": (
        [[-2, -1, F(-1, 3), -1, 0, 3], [1, 0, 1, 0, 1, 1]],
        [F(-2, 3), 1],
        [2, 0, 1, 0, 2, 1],
        (0, F(1, 3), 1, 0, 0, 0),
    ),
    "duplicated_rows": (
        [[1, 1, 1, 0], [1, 1, 1, 0], [0, 1, 0, 1]],
        [2, 2, 1],
        [0, 0, 0, 0],
        (1, 1, 0, 0),
    ),
    "tie_on_objective": ([[1, 1, 1, 1]], [F(3, 2)], [1, 1, 1, 1], (F(3, 2), 0, 0, 0)),
    # scaling the first row to integers must not change the phase-1 objective
    "scaled_row_phase1": (
        [[0, F(2, 3), F(2, 3)], [-1, -1, 2]],
        [F(2, 3), 1],
        [0, 1, 1],
        (1, 0, 1),
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_x_pinned_to_rational_pivot_path(name):
    a, b, c, x = PINNED[name]
    res = solve_lp(a, b, c)
    assert res.status is LPStatus.OPTIMAL
    assert res.x == x
    assert all(type(v) is Fraction for v in res.x)
    assert res.objective == sum(F(cv) * xv for cv, xv in zip(c, x))


_entry = st.one_of(
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([2, 3])),
)


@st.composite
def small_lps(draw):
    """Small LPs biased to degeneracy: tiny entries, scaled duplicate rows
    (redundant equalities), all-zero right-hand sides, Fraction entries and
    negative right-hand sides."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 7))
    rows = [draw(st.lists(_entry, min_size=n, max_size=n)) for _ in range(m)]
    b = draw(st.lists(_entry, min_size=m, max_size=m))
    if m > 1 and draw(st.booleans()):
        k = draw(st.sampled_from([1, -1, 2, F(1, 2)]))
        rows[-1] = [k * v for v in rows[0]]
        b[-1] = k * b[0]
    if draw(st.booleans()):
        b = [0] * m
    c = draw(st.lists(_entry, min_size=n, max_size=n))
    return rows, b, c


def _agrees_with_oracle(a, b, c):
    status, optimum, optimal_xs = lp_by_basis_enumeration(a, b, c)
    res = solve_lp(a, b, c)
    assert res.status is status
    if status is LPStatus.OPTIMAL:
        assert res.objective == optimum
        assert res.x in optimal_xs


@settings(max_examples=300, deadline=None)
@given(small_lps())
def test_matches_basis_enumeration(lp):
    _agrees_with_oracle(*lp)


@settings(max_examples=60, deadline=None)
@given(
    st.permutations(range(3)),
    st.lists(st.sampled_from([1, 2, F(1, 3), F(-5, 2), -1]), min_size=3, max_size=3),
)
def test_beale_rescaled_and_permuted(order, scales):
    # Nonzero row scalings and row orders leave the LP unchanged but move
    # the degenerate pivots around; negative scalings give negative rhs.
    a, b, c = BEALE
    rows = [[scales[i] * v for v in a[i]] for i in order]
    rhs = [scales[i] * b[i] for i in order]
    res = solve_lp(rows, rhs, c)
    assert res.objective == F(-5, 4)
    _agrees_with_oracle(rows, rhs, c)


def _block_growth(fn, reps=300) -> int:
    """Allocated blocks gained over `reps` calls, with the collector off."""
    for _ in range(20):
        fn()
    gc.collect()
    gc.disable()
    try:
        before = sys.getallocatedblocks()
        for _ in range(reps):
            fn()
        return sys.getallocatedblocks() - before
    finally:
        gc.enable()


def _query_path_sites():
    """One call per site on the query path that builds a tuple."""
    from fujita.cones import ConeQ, _int_scaled
    from fujita.delpezzo import _zariski, del_pezzo
    from fujita.qlinalg import MatQ, VecQ, solve
    from fujita.toric import Fan, divisor_polytope

    rational = VecQ([F(1, 2), F(2, 3), 5])
    integral = VecQ([4, -1, 0, 7])
    cone = ConeQ([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    face = cone.minimal_face(VecQ([1, 1, 0]))
    p2 = Fan.smooth([(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (0, 2)])
    surf = del_pezzo(8)
    return {
        "VecQ": lambda: VecQ([F(1, 2), 3, -1]),
        "_int_scaled": lambda: (_int_scaled(rational), _int_scaled(integral)),
        "FaceQ.generator_vectors": face.generator_vectors,
        "ConeQ._contains_lp": lambda: cone._contains_lp(rational),
        "solve (kernel)": lambda: solve(MatQ([[1, 1, 1]]), VecQ([1])),
        "divisor_polytope": lambda: divisor_polytope(p2, [1, 1, 1]),
        "_zariski (support)": lambda: _zariski(surf.zariski_curves, VecQ([1, 1])),
    }


def test_no_tuple_freelist_drift():
    # Each tuple built from a generator is resized from a length hint and
    # leaves a block in the freelist of another size.  The integer tableau
    # allocates almost no gc-tracked objects, so full collections (which
    # empty the freelists) stop running and peak memory creeps up.  Per-LP
    # code builds lists; a regression here grows by thousands of blocks.
    a = [[F((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 4) for j in range(12)] for i in range(8)]
    b = [F(i % 3 + 1, 1 + i % 2) for i in range(8)]
    c = [F(j % 5, 1 + j % 3) for j in range(12)]
    assert solve_lp(a, b, c).status is LPStatus.OPTIMAL
    assert _block_growth(lambda: solve_lp(a, b, c)) < 500
    # the other query-path sites: each leaves about 100 blocks whatever the
    # call count, and a generator-built tuple there adds one block per call
    growth = {name: _block_growth(fn, 1000) for name, fn in _query_path_sites().items()}
    assert all(g < 400 for g in growth.values()), growth
