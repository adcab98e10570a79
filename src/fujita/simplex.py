"""Dense exact simplex with Bland's rule on a fraction-free integer tableau.

Solves   min c.x  subject to  A x = b,  x >= 0   in two phases.  Results are
exact `fractions.Fraction` values, but the tableau holds Python integers in
the style of lrs (Avis 2000):

* Each constraint row, with its right-hand side, is scaled once to integers
  by the lcm of its denominators (`qlinalg.scaled_ints`, which takes a row
  of ints as it is); the phase-2 objective is scaled by its own.
* Every row, the reduced-cost row included, shares one denominator D > 0,
  the absolute value of the current basis determinant: the true tableau is
  T / D.  The artificial start basis is the identity, so D starts at 1.
* Every pivot is `qlinalg.pivot`, the package's one elimination step: each
  other row becomes (p*a - f*b) // D, exact by Sylvester's identity
  (Bareiss 1968), the pivot row is kept and D becomes p.  A negative p,
  which only the artificial drive-out step can pick, is handled by
  negating the pivot row first, so D stays positive.  `solve_lp` keeps
  the basis itself.

Because D > 0, the sign of a stored reduced cost is the sign of the true
one, and the ratio test compares rhs_i / a_i by cross-multiplication.  So
Bland's rule (smallest entering index, smallest basic variable on ratio
ties) picks exactly the pivots the rational tableau would, which keeps its
termination guarantee on the degenerate systems the cone machinery
produces.  Row scaling would change the phase-1 objective (the sum of the
artificials), so artificial i is weighted by lcm / scale_i, which restores
it up to a positive factor.  Artificial columns are never read, so they are
not stored.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import lcm
from typing import NamedTuple, Sequence

from .errors import InternalError
from .qlinalg import pivot, scaled_ints


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LPResult(NamedTuple):
    """The status, and on OPTIMAL the optimum, an optimal vertex x and its
    basis: the basic column of each constraint row the solver kept (a
    redundant row is dropped), in row order.  The basis columns are
    independent and x is zero off them."""

    status: LPStatus
    objective: Fraction | None
    x: tuple[Fraction, ...] | None
    basis: tuple[int, ...] | None = None


def _run_phase(tableau, basis, n, m, d) -> tuple[bool, int]:
    """Bland iterations on a tableau whose last row is the reduced-cost row
    and whose last column is the rhs; columns below n may enter.  Returns
    (False on unbounded, the final denominator)."""
    while True:
        enter = -1
        obj = tableau[m]
        for j in range(n):
            if obj[j] < 0:
                enter = j
                break
        if enter < 0:
            return True, d
        leave = -1
        for i in range(m):
            r = tableau[i]
            a = r[enter]
            if a > 0:
                rhs = r[n]
                if leave < 0:
                    better = True
                else:
                    lhs, rhs_cmp = rhs * a_best, rhs_best * a
                    better = lhs < rhs_cmp or (lhs == rhs_cmp and basis[i] < basis[leave])
                if better:
                    leave, a_best, rhs_best = i, a, rhs
        if leave < 0:
            return False, d
        d = pivot(tableau, leave, enter, d)
        basis[leave] = enter


def solve_lp(a_rows: Sequence[Sequence], b: Sequence, c: Sequence) -> LPResult:
    """Minimize c.x subject to A x = b, x >= 0 (all data exact rationals)."""
    m = len(a_rows)
    c_int, c_den = scaled_ints(c)
    n = len(c_int)
    tableau: list[list[int]] = []
    scales: list[int] = []
    for ar, bv in zip(a_rows, b):
        row = list(ar)
        if len(row) != n:
            raise ValueError("constraint width does not match objective length")
        row.append(bv)
        row, scale = scaled_ints(row)
        if row[n] < 0:
            row = [-v for v in row]
        tableau.append(row)
        scales.append(scale)
    if m == 0:
        if any(v < 0 for v in c_int):
            return LPResult(LPStatus.UNBOUNDED, None, None)
        return LPResult(LPStatus.OPTIMAL, Fraction(0), tuple([Fraction(0)] * n), ())

    # phase 1: artificial basis; artificial i costs lcm / scale_i, so the
    # reduced costs are a positive multiple of those of the unscaled system
    basis = [n + i for i in range(m)]
    big = 1
    for s in scales:
        big = lcm(big, s)
    obj = [0] * (n + 1)
    for row, s in zip(tableau, scales):
        w = big // s
        obj = [a - w * v for a, v in zip(obj, row)]
    tableau.append(obj)

    feasible, d = _run_phase(tableau, basis, n, m, 1)
    if not feasible:
        raise InternalError("phase 1 cannot be unbounded")
    if tableau[m][n] < 0:
        return LPResult(LPStatus.INFEASIBLE, None, None)

    # drive surviving artificials out of the basis, drop redundant rows
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            row = tableau[i]
            col = next((j for j in range(n) if row[j] != 0), None)
            if col is None:
                drop.append(i)
            else:
                d = pivot(tableau, i, col, d)
                basis[i] = col
    if drop:
        tableau = [r for i, r in enumerate(tableau[:m]) if i not in drop]
        basis = [bv for i, bv in enumerate(basis) if i not in drop]
        m = len(basis)
    else:
        del tableau[m]

    # phase 2: reduced costs d*c - sum_i c_B(i) * row_i
    obj = [d * v for v in c_int]
    obj.append(0)
    for i in range(m):
        cb = c_int[basis[i]]
        if cb != 0:
            obj = [a - cb * v for a, v in zip(obj, tableau[i])]
    tableau.append(obj)

    feasible, d = _run_phase(tableau, basis, n, m, d)
    if not feasible:
        return LPResult(LPStatus.UNBOUNDED, None, None)

    zero = Fraction(0)
    x = [zero] * n
    total = 0
    for i in range(m):
        v = tableau[i][n]
        if v:
            x[basis[i]] = Fraction(v, d)
            total += c_int[basis[i]] * v
    return LPResult(LPStatus.OPTIMAL, Fraction(total, d * c_den), tuple(x), tuple(basis))
