"""Exact rational linear algebra kernel.

Scalars are arbitrary-precision `fractions.Fraction` values, which are always
reduced and carry a positive denominator; there is no floating-point
representation anywhere in the package.  Vectors and matrices are immutable
values, so everything here is safe to share between threads.

Elimination is fraction-free in the Bareiss style: rows are cleared to
integers and updated by the exact two-by-two determinant recurrence, which
keeps intermediate entries polynomially bounded (naive rational elimination
explodes denominators already on rank-9 del Pezzo Gram systems).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DimensionMismatch

Rat = Fraction


def as_rat(x) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to an exact Fraction.

    Floats are rejected on purpose.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class VecQ:
    """Immutable vector with exact rational entries."""

    __slots__ = ("_e",)

    def __init__(self, entries: Iterable):
        # from a list: a tuple built from a generator is resized from a
        # length hint and parks blocks in the freelists of other sizes
        self._e = tuple([as_rat(x) for x in entries])

    @staticmethod
    def zero(dim: int) -> "VecQ":
        return VecQ([0] * dim)

    @staticmethod
    def unit(dim: int, i: int) -> "VecQ":
        return VecQ([1 if j == i else 0 for j in range(dim)])

    @property
    def dim(self) -> int:
        return len(self._e)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self._e

    def __len__(self):
        return len(self._e)

    def __iter__(self):
        return iter(self._e)

    def __getitem__(self, i):
        return self._e[i]

    def __eq__(self, other):
        return isinstance(other, VecQ) and self._e == other._e

    def __hash__(self):
        return hash(self._e)

    def __repr__(self):
        return "VecQ(%s)" % ", ".join(str(x) for x in self._e)

    def _check(self, other: "VecQ"):
        if not isinstance(other, VecQ):
            raise TypeError(f"expected VecQ, got {type(other).__name__}")
        if len(other._e) != len(self._e):
            raise DimensionMismatch(f"{len(self._e)} vs {len(other._e)}")

    def __add__(self, other: "VecQ") -> "VecQ":
        self._check(other)
        return VecQ(a + b for a, b in zip(self._e, other._e))

    def __sub__(self, other: "VecQ") -> "VecQ":
        self._check(other)
        return VecQ(a - b for a, b in zip(self._e, other._e))

    def __neg__(self) -> "VecQ":
        return VecQ(-a for a in self._e)

    def __mul__(self, scalar) -> "VecQ":
        s = as_rat(scalar)
        return VecQ(s * a for a in self._e)

    __rmul__ = __mul__

    def dot(self, other: "VecQ") -> Fraction:
        self._check(other)
        return sum((a * b for a, b in zip(self._e, other._e)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self._e)

    def primitive(self) -> "VecQ":
        """Primitive integer vector on the same ray (zero stays zero)."""
        return VecQ(primitive_int(self._e))


def scaled_ints(values: Iterable) -> tuple[list[int], int]:
    """The integers den*values and den, the lcm of the denominators.

    This is the one place that clears denominators.  Sequences are built as
    lists on purpose: tuples built from generators are resized from a
    length hint and leave blocks in the tuple freelists.
    """
    exact = []
    den = 1
    for v in values:
        if type(v) is not int:
            v = as_rat(v)
            den = lcm(den, v.denominator)
        exact.append(v)
    if den == 1:
        return [int(v) for v in exact], 1
    return [v * den if type(v) is int else v.numerator * (den // v.denominator) for v in exact], den


def primitive_int(entries: Iterable) -> tuple[int, ...]:
    """Clear denominators and divide by the gcd, preserving direction."""
    ints, _ = scaled_ints(entries)
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return tuple(ints)


def sign_normalized(entries: Sequence[int]) -> tuple[int, ...]:
    """Flip sign so the first nonzero entry is positive (for equations)."""
    for v in entries:
        if v != 0:
            return tuple(entries) if v > 0 else tuple(-x for x in entries)
    return tuple(entries)


class MatQ:
    """Immutable dense matrix of exact rationals (row major)."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        self._rows = tuple([VecQ(r) for r in rows])
        widths = {len(r) for r in self._rows}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")

    @staticmethod
    def identity(n: int) -> "MatQ":
        return MatQ([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def row(self, i: int) -> VecQ:
        return self._rows[i]

    def row_list(self) -> tuple[VecQ, ...]:
        return self._rows

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def transpose(self) -> "MatQ":
        return MatQ(zip(*[r.entries for r in self._rows])) if self._rows else MatQ([])

    def apply(self, v: VecQ) -> VecQ:
        """Matrix-vector product."""
        if v.dim != self.cols:
            raise DimensionMismatch(f"{self.cols} columns vs vector of dim {v.dim}")
        return VecQ(r.dot(v) for r in self._rows)

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self.entry(i, j) == self.entry(j, i)
            for i in range(self.rows)
            for j in range(i + 1, self.cols)
        )

    def __eq__(self, other):
        return isinstance(other, MatQ) and self._rows == other._rows

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return "MatQ(%d x %d)" % (self.rows, self.cols)


def _bareiss_echelon(
    rows: list[list[int]], limit_cols: int, jordan: bool = False
) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form in place; pivots restricted to the
    first `limit_cols` columns.  Returns (rows, pivot column list).

    With `jordan` the same update also clears each pivot column above the
    pivot (fraction-free Gauss-Jordan).  After k pivots the pivot rows are
    adj(A_k) times the original rows, A_k the k x k pivot block, so the
    divisions stay exact above the pivot as they do below it; columns left
    of the current pivot are not kept up to date."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    prev = 1
    for c in range(limit_cols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][c]
        top = rows[r]
        for i in range(0 if jordan else r + 1, len(rows)):
            if i == r:
                continue
            cur = rows[i]
            vi = cur[c]
            # full Bareiss update even when vi == 0 keeps divisions exact
            for j in range(c + 1, ncols):
                cur[j] = (pv * cur[j] - vi * top[j]) // prev
            cur[c] = 0
        prev = pv
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m: MatQ) -> int:
    """Rank over the rationals by fraction-free elimination."""
    rows = [scaled_ints(r)[0] for r in m.row_list()]
    _, pivots = _bareiss_echelon(rows, m.cols)
    return len(pivots)


def span_dim(vectors: Sequence[Sequence]) -> int:
    """Dimension of the rational span of the given equal-length vectors."""
    vs = list(vectors)
    if not vs:
        return 0
    d = len(vs[0])
    for v in vs:
        if len(v) != d:
            raise DimensionMismatch("vectors of mixed dimension")
    rows = [scaled_ints(v)[0] for v in vs]
    _, pivots = _bareiss_echelon(rows, d)
    return len(pivots)


def pivot_columns(vectors: Sequence[Sequence]) -> list[int]:
    """Indices of the vectors independent of all earlier ones: the pivot
    columns of the matrix whose columns are the given vectors."""
    vs = list(vectors)
    if not vs:
        return []
    _, pivots = _bareiss_echelon([scaled_ints(r)[0] for r in zip(*vs)], len(vs))
    return pivots


def scaled_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """|det m| and the integer matrix |det m| * m^-1 of a square integer
    matrix m, or (0, None) when m is singular.

    Fraction-free Gauss-Jordan on [m | I] leaves d m^-1 in the right half,
    where the last pivot d is det m up to the sign of the row swaps."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch(f"{n}-row matrix is not square")
    if n == 0:
        return 1, []
    aug = [list(r) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(rows)]
    aug, pivots = _bareiss_echelon(aug, n, jordan=True)
    if len(pivots) < n:
        return 0, None
    d = aug[n - 1][n - 1]
    if d < 0:
        return -d, [[-x for x in r[n:]] for r in aug]
    return d, [r[n:] for r in aug]


@dataclass(frozen=True)
class LinearSolution:
    """Affine solution set of a consistent linear system.

    `particular + span(kernel)` is the full solution set; the system has a
    unique solution exactly when the kernel basis is empty.
    """

    particular: VecQ
    kernel: tuple[VecQ, ...]

    @property
    def unique(self) -> bool:
        return not self.kernel


def solve(m: MatQ, rhs: VecQ) -> LinearSolution | None:
    """Solve m x = rhs exactly.

    Returns None when the system is inconsistent, otherwise a particular
    solution together with a kernel basis (free variables set to one, in
    column order, so the output is deterministic).
    """
    if rhs.dim != m.rows:
        raise DimensionMismatch(f"{m.rows} rows vs rhs of dim {rhs.dim}")
    n = m.cols
    aug = [scaled_ints(list(r.entries) + [b])[0] for r, b in zip(m.row_list(), rhs)]
    aug, pivots = _bareiss_echelon(aug, n)
    nrows = len(aug)
    for i in range(len(pivots), nrows):
        if aug[i][n] != 0:
            return None

    free_cols = [c for c in range(n) if c not in pivots]

    def back_substitute(freevals: dict[int, Fraction], b_on: bool) -> VecQ:
        x: list[Fraction] = [Fraction(0)] * n
        for c, val in freevals.items():
            x[c] = val
        for k in range(len(pivots) - 1, -1, -1):
            c = pivots[k]
            row = aug[k]
            s = Fraction(row[n]) if b_on else Fraction(0)
            for j in range(c + 1, n):
                if row[j] != 0 and x[j] != 0:
                    s -= row[j] * x[j]
            x[c] = s / row[c]
        return VecQ(x)

    particular = back_substitute({}, True)
    kernel = tuple([back_substitute({f: Fraction(1)}, False) for f in free_cols])
    return LinearSolution(particular, kernel)


def nullspace(m: MatQ) -> tuple[VecQ, ...]:
    """Basis of {x : m x = 0}, deterministic order."""
    sol = solve(m, VecQ.zero(m.rows))
    assert sol is not None
    return sol.kernel


def inertia(m: MatQ) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix,
    by exact symmetric congruence reduction (Sylvester's law).

    Only the trailing submatrix a[i:, i:] is kept current; it stays symmetric
    because the row-only Schur update a'[k][j] = a[k][j] - a[k][i]a[i][j]/d
    already is the symmetric Schur complement.
    """
    if not m.is_symmetric():
        raise DimensionMismatch("matrix is not symmetric")
    n = m.rows
    a = [[m.entry(i, j) for j in range(n)] for i in range(n)]
    pos = neg = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                mate = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if mate is None:
                    zero += 1
                    continue
                # symmetric row+column addition, a[i][i] becomes 2*a[i][mate]
                for j in range(i, n):
                    a[i][j] += a[mate][j]
                for j in range(i, n):
                    a[j][i] += a[j][mate]
        d = a[i][i]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for k in range(i + 1, n):
            f = a[k][i] / d
            if f == 0:
                continue
            for j in range(i + 1, n):
                a[k][j] -= f * a[i][j]
    return pos, neg, zero
