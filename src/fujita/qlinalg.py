"""Exact rational linear algebra kernel.

Scalars are arbitrary-precision `fractions.Fraction` values, which are always
reduced and carry a positive denominator; there is no floating-point
representation anywhere in the package.  Vectors and matrices are immutable
values, so everything here is safe to share between threads.

A `VecQ` holds one integer tuple n over one denominator q > 0 in lowest
terms (gcd(n..., q) = 1), so equal vectors have equal (n, q), and equality
and the hash read those.  Its arithmetic runs on the integers, and
`scaled_ints` of a `VecQ` is a copy of n with q, no denominator clearing.
`VecQ.from_scaled` builds a vector from integers a kernel already holds.
The `Fraction` entries are built on the first read of `entries`, an index
or an iteration, and kept.

Elimination is fraction-free in the Bareiss style: rows are cleared to
integers and updated by the exact two-by-two determinant recurrence, which
keeps intermediate entries polynomially bounded (naive rational elimination
explodes denominators already on rank-9 del Pezzo Gram systems).  `pivot`
is the one row update in the package: the simplex tableau, the echelon
forms behind rank, pivot columns, inverses and solves, and the symmetric
reduction of `inertia` all run on it.  Rows share one denominator, kept
positive, so stored signs are true signs.

`PackedRows` is the one home of the packed product: every row.v of a
fixed set of integer rows from one big-integer product, in the narrowest
of 16-, 32- and 64-bit slots that holds the bound l1 * max|v|, with its
width and byte-order guards.  The cone's facet products and the Zariski
curve scan both read it, and `positions` finds a value's slots in a
product without reading the others; fewer than PACK_MIN_ROWS rows skip it.
"""

from __future__ import annotations

import re
import struct
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch, InternalError

_INT = frozenset([int])
_UNSIGNED = {2: "H", 4: "I", 8: "Q"}  # struct codes of unsigned slots by byte size

PACK_MIN_ROWS = 5  # fewer rows take one idot per row: a measured constant (see PackedRows)


def as_rat(x) -> Fraction:
    """Coerce an int, Fraction, or -?[0-9]+(/[0-9]+)? string to a Fraction.

    Floats are rejected on purpose.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not rational scalars")
    if isinstance(x, str) and not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", x):
        raise ValueError(f"not an integer or 'p/q' literal: {x!r}")
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


class VecQ:
    """Immutable vector with exact rational entries, kept as integers over
    one denominator in lowest terms (see the module docstring)."""

    __slots__ = ("_n", "_q", "_e", "_h")

    def __init__(self, entries: Iterable):
        # scaled by the lcm of the denominators, which leaves gcd 1
        n, self._q = scaled_ints(entries)
        self._n = tuple(n)

    @classmethod
    def from_scaled(cls, ints: Sequence[int], den: int) -> "VecQ":
        """The vector ints / den, for integers ints and den > 0; their
        common factor is divided out."""
        v = cls.__new__(cls)
        g = gcd(den, *ints) if den != 1 else 1
        if g > 1:
            v._n, v._q = tuple([x // g for x in ints]), den // g
        else:
            v._n, v._q = tuple(ints), den
        return v

    @staticmethod
    def zero(dim: int) -> "VecQ":
        return VecQ.from_scaled([0] * dim, 1)

    @property
    def dim(self) -> int:
        return len(self._n)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        """The entries as Fractions, built on the first read and kept."""
        try:
            return self._e
        except AttributeError:
            q = self._q
            self._e = tuple([Fraction(x, q) for x in self._n])
            return self._e

    def __len__(self):
        return len(self._n)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return isinstance(other, VecQ) and self._q == other._q and self._n == other._n

    def __hash__(self):
        # memo keys hash one vector several times: kept in _h from the
        # first call
        try:
            return self._h
        except AttributeError:
            self._h = hash((self._n, self._q))
            return self._h

    def __repr__(self):
        return "VecQ(%s)" % ", ".join(str(x) for x in self.entries)

    def _check(self, other: "VecQ"):
        if not isinstance(other, VecQ):
            raise TypeError(f"expected VecQ, got {type(other).__name__}")
        if len(other._n) != len(self._n):
            raise DimensionMismatch(f"{len(self._n)} vs {len(other._n)}")

    def _common(self, other: "VecQ") -> tuple[int, int, int]:
        """The factors that bring self and other to their common
        denominator m, and m."""
        self._check(other)
        m = lcm(self._q, other._q)
        return m // self._q, m // other._q, m

    def __add__(self, other: "VecQ") -> "VecQ":
        s, t, m = self._common(other)
        return VecQ.from_scaled([s * a + t * b for a, b in zip(self._n, other._n)], m)

    def __sub__(self, other: "VecQ") -> "VecQ":
        s, t, m = self._common(other)
        return VecQ.from_scaled([s * a - t * b for a, b in zip(self._n, other._n)], m)

    def __neg__(self) -> "VecQ":
        return VecQ.from_scaled([-a for a in self._n], self._q)

    def __mul__(self, scalar) -> "VecQ":
        s = as_rat(scalar)
        return VecQ.from_scaled([s.numerator * a for a in self._n], s.denominator * self._q)

    __rmul__ = __mul__

    def dot(self, other: "VecQ") -> Fraction:
        self._check(other)
        return Fraction(idot(self._n, other._n), self._q * other._q)

    def is_zero(self) -> bool:
        return not any(self._n)

    def primitive(self) -> "VecQ":
        """Primitive integer vector on the same ray (zero stays zero)."""
        return VecQ.from_scaled(primitive_int(self), 1)


def scaled_ints(values: Iterable) -> tuple[list[int], int]:
    """The integers den*values and den, the lcm of the denominators.

    This is the one place that clears denominators.  A VecQ already holds
    them, so it is read, not cleared, and a row of ints is returned as it
    is.  Sequences are built as lists on purpose: tuples built from
    generators are resized from a length hint and leave blocks in the tuple
    freelists.
    """
    if type(values) is VecQ:
        return list(values._n), values._q
    exact = list(values)
    if _INT.issuperset(map(type, exact)):
        return exact, 1
    den = 1
    for i, v in enumerate(exact):
        if type(v) is not int:
            exact[i] = v = as_rat(v)
            den = lcm(den, v.denominator)
    if den == 1:
        return [int(v) for v in exact], 1
    return [v * den if type(v) is int else v.numerator * (den // v.denominator) for v in exact], den


def primitive_int(entries: Iterable) -> tuple[int, ...]:
    """Clear denominators and divide by the gcd, preserving direction."""
    ints, _ = scaled_ints(entries)
    g = gcd(*ints)
    return tuple([v // g for v in ints] if g > 1 else ints)


class MatQ:
    """Immutable dense matrix of exact rationals (row major)."""

    __slots__ = ("_rows", "_scaled")

    def __init__(self, rows: Iterable[Iterable]):
        self._rows = tuple([VecQ(r) for r in rows])
        widths = {len(r) for r in self._rows}
        if len(widths) > 1:
            raise DimensionMismatch("ragged rows")
        self._scaled = None

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0]) if self._rows else 0

    def row_list(self) -> tuple[VecQ, ...]:
        return self._rows

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def scaled_rows(self) -> tuple[list[list[int]], int]:
        """The rows times the lcm of all denominators, and that lcm.
        Computed on the first call and shared by every later one, so
        callers must not modify the rows."""
        if self._scaled is None:
            den = lcm(*[r._q for r in self._rows])
            self._scaled = [[x * (den // r._q) for x in r._n] for r in self._rows], den
        return self._scaled

    def apply(self, v) -> VecQ:
        """Matrix-vector product with a VecQ or any rational sequence."""
        vi, dv = scaled_ints(v)
        if len(vi) != self.cols:
            raise DimensionMismatch(f"{self.cols} columns vs vector of dim {len(vi)}")
        rows, den = self.scaled_rows()
        return VecQ.from_scaled([idot(r, vi) for r in rows], den * dv)

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


def idot(a: Sequence[int], b: Sequence[int]) -> int:
    """Dot product of two integer sequences."""
    return sum(map(mul, a, b))


class PackedRows:
    """A fixed tuple of integer rows whose products row.v with any integer
    vector v are read off one big-integer product (Kronecker
    substitution; SIMD within a register, Lamport 1975).

    For a slot width w, the packing x = sum_t v_t P_t + HIGH, P_t = sum_j
    r_jt 2^(w j), HIGH the top bit of every w-bit slot, holds r_j.v +
    2^(w-1) in slot j.  While l1 * max|v_t| < 2^(w-1) (l1 the largest
    absolute row sum), no slot borrows or carries, and x ^ HIGH holds every
    r_j.v in two's complement, read as one `memoryview` cast to signed
    w-bit slots.  w is the least of 16, 32 and 64 that holds that bound,
    and each width's packing is built on its first use and kept.  Each
    column is read off one `struct.pack` of its entries plus 2^(w-1) into
    unsigned little-endian w-bit slots, so the build holds one column's
    entries at a time.  A product needing more than 63 bits, a big-endian
    host or fewer than PACK_MIN_ROWS rows takes one `idot` per row instead.
    The crossover, per call of product, min and `positions`, per-row vs packed:
    1 row 1.3 vs 2.7 us, 4 rows 4.2 vs 5.4, 6 rows 3.6 vs 3.2, 16 rows 8.4 vs 3.7."""

    __slots__ = ("rows", "_l1", "_packings")

    def __init__(self, rows: Sequence[Sequence[int]]):
        self.rows = tuple(rows)
        self._l1 = max([sum(map(abs, r)) for r in self.rows], default=0)
        self._packings = {}

    def _packing(self, size: int) -> tuple[list[int], int]:
        """The columns P_t and HIGH for slots of `size` bytes, built on
        the first call and kept."""
        try:
            return self._packings[size]
        except KeyError:
            bias = 1 << (8 * size - 1)
            high = int.from_bytes(bias.to_bytes(size, "little") * len(self.rows), "little")
            code = _UNSIGNED[size]
            fmt = f"<{len(self.rows)}{code}"
            dim = len(self.rows[0]) if self.rows else 0
            columns = [struct.pack(fmt, *[r[t] + bias for r in self.rows]) for t in range(dim)]
            packing = self._packings[size] = [int.from_bytes(b, "little") - high for b in columns], high
            return packing

    def products(self, v: Sequence[int]) -> Sequence[int]:
        """Every row.v, in row order: one packed product in the narrowest
        slots that hold l1 * max|v_t|, or one `idot` per row (see above)."""
        if len(self.rows) >= PACK_MIN_ROWS and sys.byteorder == "little":
            bits = (self._l1 * max([abs(x) for x in v] + [1])).bit_length()
            if bits < 64:
                size, code = (2, "h") if bits < 16 else (4, "i") if bits < 32 else (8, "q")
                cols, high = self._packing(size)
                raw = ((idot(v, cols) + high) ^ high).to_bytes(size * len(self.rows), "little")
                return memoryview(raw).cast(code)
        return [idot(r, v) for r in self.rows]


def positions(products: Sequence[int], x: int, lo: int, hi: int) -> list[int]:
    """The indices i in [lo, hi) with products[i] == x, in increasing
    order, for a result of `PackedRows.products`.  A packed result is
    searched for x's slot bytes at slot-aligned offsets of its bytes; a
    list by `list.index`."""
    found = []
    if type(products) is memoryview:
        raw, size = products.obj, products.itemsize
        pattern, end = x.to_bytes(size, "little", signed=True), hi * size
        at = raw.find(pattern, lo * size, end)
        while at >= 0:
            if at % size == 0:  # else it straddles two slots
                found.append(at // size)
            at = raw.find(pattern, at + 1, end)
        return found
    at = lo - 1
    for _ in range(products[lo:hi].count(x)):
        at = products.index(x, at + 1, hi)
        found.append(at)
    return found


def pivot(rows: list[list[int]], r: int, c: int, d: int, first: int = 0) -> int:
    """Fraction-free pivot on (r, c) of integer rows over the common
    denominator d > 0; returns the new denominator.

    The rows stand for rows / d.  Every other row from `first` on becomes
    (p*a - f*b) // d, p the pivot and f its entry in column c; the quotient
    is exact by Sylvester's identity (Bareiss 1968), as every stored entry
    is a minor of the integer input.  The pivot row is kept and p is the new
    denominator.  A negative p is handled by negating the pivot row first,
    which negates the whole new tableau, so the denominator stays positive
    and stored signs are true signs."""
    piv_row = rows[r]
    p = piv_row[c]
    if p < 0:
        rows[r] = piv_row = [-v for v in piv_row]
        p = -p
    for i in range(first, len(rows)):
        row = rows[i]
        if i == r:
            continue
        f = row[c]
        if f == 0:
            if p != d:
                rows[i] = [p * a // d for a in row]
        else:
            rows[i] = [(p * a - f * b) // d for a, b in zip(row, piv_row)]
    return p


def _jordan(rows: list[list[int]], limit_cols: int, forward=False) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan form in place by `pivot`, pivots
    restricted to the first `limit_cols` columns and taken in column order
    from the first row at or below the current one.  Returns (rows, pivot
    column list, d): pivot row k holds d on its pivot column and d times
    the reduced row echelon form, the rows after the pivots are zero on the
    first `limit_cols` columns, and d is the absolute value of the pivot
    block's determinant.  With `forward` the rows above a pivot are left alone."""
    pivots: list[int] = []
    d = 1
    for c in range(limit_cols):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        d = pivot(rows, r, c, d, r if forward else 0)
        pivots.append(c)
    return rows, pivots, d


def rank(m: MatQ) -> int:
    """Rank over the rationals by fraction-free elimination."""
    return span_dim(m.row_list())


def span_dim(vectors: Sequence[Sequence]) -> int:
    """Dimension of the rational span of the given equal-length vectors."""
    vs = list(vectors)
    if not vs:
        return 0
    d = len(vs[0])
    for v in vs:
        if len(v) != d:
            raise DimensionMismatch("vectors of mixed dimension")
    return len(_jordan([scaled_ints(v)[0] for v in vs], d, forward=True)[1])


def pivot_columns(vectors: Sequence[Sequence]) -> list[int]:
    """Indices of the vectors independent of all earlier ones: the pivot
    columns of the matrix whose columns are the given vectors."""
    vs = list(vectors)
    if not vs:
        return []
    return _jordan([scaled_ints(r)[0] for r in zip(*vs)], len(vs), forward=True)[1]


def scaled_inverse(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
    """|det m| and the integer matrix |det m| * m^-1 of a square integer
    matrix m, or (0, None) when m is singular.

    Fraction-free Gauss-Jordan on [m | I] leaves d * [I | m^-1], where the
    last denominator d is |det m|."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise DimensionMismatch(f"{n}-row matrix is not square")
    if n == 0:
        return 1, []
    aug = [list(r) + [1 if j == i else 0 for j in range(n)] for i, r in enumerate(rows)]
    aug, pivots, d = _jordan(aug, n)
    if len(pivots) < n:
        return 0, None
    return d, [r[n:] for r in aug]


class LinearSolution(NamedTuple):
    """Affine solution set of a consistent linear system.

    `particular + span(kernel)` is the full solution set; the system has a
    unique solution exactly when the kernel basis is empty.
    """

    particular: VecQ
    kernel: tuple[VecQ, ...]


def solve(m: MatQ, rhs: VecQ) -> LinearSolution | None:
    """Solve m x = rhs exactly.

    Returns None when the system is inconsistent, otherwise a particular
    solution together with a kernel basis (free variables set to one, in
    column order, so the output is deterministic).
    """
    if rhs.dim != m.rows:
        raise DimensionMismatch(f"{m.rows} rows vs rhs of dim {rhs.dim}")
    n = m.cols
    rows, den = m.scaled_rows()
    bi, db = scaled_ints(rhs)
    # the system times den * db
    aug = [[db * x for x in r] + [den * b] for r, b in zip(rows, bi)]
    aug, pivots, d = _jordan(aug, n)
    if any(row[n] != 0 for row in aug[len(pivots):]):
        return None
    # pivot row k reads d * x[pivots[k]] + sum over free f of row[f] * x[f] = row[n]
    particular = [0] * n
    for k, c in enumerate(pivots):
        particular[c] = aug[k][n]
    kernel = []
    for f in range(n):
        if f in pivots:
            continue
        x = [0] * n
        x[f] = d
        for k, c in enumerate(pivots):
            x[c] = -aug[k][f]
        kernel.append(VecQ.from_scaled(x, d))
    return LinearSolution(VecQ.from_scaled(particular, d), tuple(kernel))


def nullspace(m: MatQ) -> tuple[VecQ, ...]:
    """Basis of {x : m x = 0}, deterministic order."""
    sol = solve(m, VecQ.zero(m.rows))
    if sol is None:
        raise InternalError("a homogeneous system has no solution")
    return sol.kernel


def inertia(m: MatQ) -> tuple[int, int, int]:
    """Signature (positive, negative, zero) of a symmetric rational matrix,
    by exact symmetric congruence reduction (Sylvester's law).

    The form is scaled to integers once; a positive multiple has the same
    signature.  Only the trailing block is kept, and `pivot` keeps it equal
    to d times the Schur complement with d > 0, so it stays symmetric and
    the sign of each diagonal pivot is a true sign.
    """
    if not m.is_symmetric():
        raise DimensionMismatch("matrix is not symmetric")
    a = [list(r) for r in m.scaled_rows()[0]]  # a copy: the rows are shared
    d = 1
    pos = neg = zero = 0
    while a:
        if a[0][0] == 0:
            swap = next((j for j in range(1, len(a)) if a[j][j] != 0), None)
            if swap is not None:
                a[0], a[swap] = a[swap], a[0]
                for row in a:
                    row[0], row[swap] = row[swap], row[0]
            else:
                mate = next((j for j in range(1, len(a)) if a[0][j] != 0), None)
                if mate is None:
                    zero += 1
                    a = [row[1:] for row in a[1:]]
                    continue
                # symmetric row+column addition, a[0][0] becomes 2*a[0][mate]
                a[0] = [x + y for x, y in zip(a[0], a[mate])]
                for row in a:
                    row[0] += row[mate]
        if a[0][0] > 0:
            pos += 1
        else:
            neg += 1
        d = pivot(a, 0, 0, d)
        a = [row[1:] for row in a[1:]]
    return pos, neg, zero
