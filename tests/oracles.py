"""Independent test oracles.

Everything here deliberately avoids the library's own dual-description and
membership code paths: Fourier-Motzkin elimination and brute-force normal
search double-check facet lists, a raw big-integer calculator checks
Fraction arithmetic, a per-generator LP support test checks minimal faces,
basis enumeration solves small LPs and finds positive supports without
the simplex, the Leibniz expansion checks determinants without
elimination, the adjoint-divisor route checks toric balance without the
class lift, one LP per ray checks the implicit equalities of divisor
polytopes without the single support LP, a flat multiset search checks
the pruned (-1)-curve recursion, one rational solve per cone and
direction checks the integer fan-coverage test, the Fraction loop checks
the integer Zariski kernel, one rational solve on the pivot rays checks
the integer toric class map, the support LP of the divisor polytope checks
toric rigidity read off the minimal face, reduction to the span with a Gram lift checks
the one-DD dual of lower-dimensional cones, a nullspace wall normal
with a Fraction lattice walk checks the strict fan checks, an LP of
another shape (v minus a bounded multiple of the generator sum) checks
membership by the ray LP, the forward Bareiss echelon with Fraction
back-substitution and the Fraction Schur loop check the Gauss-Jordan
kernel on `qlinalg.pivot`, the annihilator of the tight rays checks
the span-dimension test of a fibration projection, one integer dot
per facet checks the packed facet signs of membership and minimal faces,
one integer dot per (facet, generator) pair checks the incidence masks
read off DD, and the ray LP on a copy of the cone without facets checks
the facet route for a and its minimal face.
"""

from fractions import Fraction
import random
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd, prod
from typing import Sequence

from fujita import qlinalg
from fujita.cones import ConeQ, Containment, FaceQ, _dd_extremal_rays
from fujita.delpezzo import ZariskiDecomposition
from fujita.errors import (
    DimensionMismatch,
    IncompleteFan,
    InternalNonTermination,
    NonStrictCone,
    NonTerminalCone,
    NotPseudoEffective,
    OutsideCone,
    ProjectionIncompatible,
)
from fujita.qlinalg import (
    LinearSolution,
    MatQ,
    VecQ,
    as_rat,
    idot,
    pivot_columns,
    primitive_int,
    scaled_ints,
    sign_normalized,
    solve,
    span_dim,
)
from fujita.simplex import LPStatus, solve_lp


def _primitive(row):
    g = 0
    for x in row:
        g = gcd(g, x)
    if g > 1:
        row = tuple(x // g for x in row)
    return tuple(row)


def fm_facets(gens, dim):
    """Facet normals of cone(gens) by Fourier-Motzkin elimination of the
    combination coefficients; intended for dim <= 5."""
    k = len(gens)
    width = k + dim
    rows = set()
    for i in range(k):
        row = [0] * width
        row[i] = 1
        rows.add(tuple(row))  # lambda_i >= 0
    for t in range(dim):
        row = [0] * width
        row[k + t] = 1
        for i, g in enumerate(gens):
            row[i] = -int(g[t])
        rows.add(_primitive(tuple(row)))   # x_t - sum lambda g = 0, as two ineqs
        rows.add(_primitive(tuple(-x for x in row)))
    rows = {r for r in rows if any(r)}
    for var in range(k):
        pos = [r for r in rows if r[var] > 0]
        neg = [r for r in rows if r[var] < 0]
        zer = {r for r in rows if r[var] == 0}
        new = set(zer)
        for p in pos:
            for n in neg:
                combo = tuple(p[var] * nv - n[var] * pv for pv, nv in zip(p, n))
                if any(combo):
                    new.add(_primitive(combo))
        rows = new
    x_rows = {_primitive(r[k:]) for r in rows if any(r[k:])}
    # facets: tight generator set spans dim(cone) - 1
    cone_dim = span_dim([VecQ(g) for g in gens])
    facets = set()
    for f in x_rows:
        tight = [VecQ(g) for g in gens if sum(a * int(b) for a, b in zip(f, g)) == 0]
        if span_dim(tight) == cone_dim - 1:
            facets.add(f)
    return facets


def brute_force_facets(gens, dim, bound=3):
    """All primitive integer normals with entries in [-bound, bound] that are
    nonnegative on the generators and tight on a spanning-minus-one set."""
    cone_dim = span_dim([VecQ(g) for g in gens])
    found = set()
    for f in product(range(-bound, bound + 1), repeat=dim):
        if not any(f):
            continue
        vals = [sum(a * int(b) for a, b in zip(f, g)) for g in gens]
        if any(v < 0 for v in vals):
            continue
        tight = [VecQ(g) for g, v in zip(gens, vals) if v == 0]
        if span_dim(tight) == cone_dim - 1:
            found.add(_primitive(f))
    return found


def minimal_face_generators_lp(cone, v) -> frozenset:
    """Indices of generators lying in the minimal face containing v, by the
    support characterization: g_i is in the face iff some nonnegative
    representation of v uses it with positive coefficient.  The coefficient
    is measured through a capped auxiliary u = min(lambda_i, 1) so forced
    large coefficients stay feasible."""
    gens = [tuple(int(x) for x in g.primitive()) for g in cone.generators]
    k = len(gens)
    d = cone.ambient_dim
    out = set()
    for i in range(k):
        # columns: lambda (k), u, s1, s2
        rows = [[g[t] for g in gens] + [0, 0, 0] for t in range(d)]
        bound = [0] * (k + 3)
        bound[i] = -1
        bound[k] = 1
        bound[k + 1] = 1
        rows.append(bound)  # u - lambda_i + s1 = 0
        cap = [0] * (k + 3)
        cap[k] = 1
        cap[k + 2] = 1
        rows.append(cap)  # u + s2 = 1
        c = [0] * (k + 3)
        c[k] = -1
        res = solve_lp(rows, list(v.entries) + [0, 1], c)
        if res.status is LPStatus.OPTIMAL and res.x[k] > 0:
            out.add(i)
    return frozenset(out)


def contains_by_lp(cone, v) -> Containment:
    """Membership before facets exist, by the LP max t <= 1 with v - t*total
    a nonnegative combination of the generators, total their sum: v is in
    the cone iff t = 0 is feasible, and in its relative interior iff t* > 0."""
    gens = cone._gens_int
    d = cone.ambient_dim
    k = len(gens)
    total = [sum(g[t] for g in gens) for t in range(d)]
    # columns: mu_1..mu_k, t, slack ; rows: sum mu g + t*total = v, t + slack = 1
    a_rows = []
    for t in range(d):
        a_rows.append([g[t] for g in gens] + [total[t], 0])
    a_rows.append([0] * k + [1, 1])
    b = list(v.entries) + [1]
    c = [0] * k + [-1, 0]
    res = solve_lp(a_rows, b, c)
    if res.status is LPStatus.INFEASIBLE:
        return Containment.OUTSIDE
    assert res.status is LPStatus.OPTIMAL
    t_star = res.x[k]
    if t_star > 0 and cone.is_full_dimensional():
        return Containment.INSIDE
    return Containment.BOUNDARY


def add_fractions_bigint(an, ad, bn, bd):
    """(an/ad) + (bn/bd) with raw integer arithmetic and explicit reduction."""
    num = an * bd + bn * ad
    den = ad * bd
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g:
        num //= g
        den //= g
    return num, den or 1


def mul_fractions_bigint(an, ad, bn, bd):
    num = an * bn
    den = ad * bd
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g:
        num //= g
        den //= g
    return num, den or 1


def _basic_solutions(a_rows, b, n):
    """Every basic solution of A x = b: for each set S of at most m columns
    with A_S x_S = b uniquely solvable, that solution padded with zeros."""
    m = len(a_rows)
    out = []
    if all(Fraction(v) == 0 for v in b):
        out.append((Fraction(0),) * n)
    for size in range(1, min(m, n) + 1):
        for cols in combinations(range(n), size):
            sol = solve(MatQ([[row[j] for j in cols] for row in a_rows]), VecQ(b))
            if sol is None or not sol.unique:
                continue
            x = [Fraction(0)] * n
            for j, v in zip(cols, sol.particular):
                x[j] = v
            out.append(tuple(x))
    return out


def lp_by_basis_enumeration(a_rows, b, c):
    """min c.x st A x = b, x >= 0 for small LPs (m <= 4, n <= 7) without the
    simplex: returns (status, optimum or None, set of optimal basic x).

    Feasible iff some basic solution is nonnegative.  Unbounded iff feasible
    and the polytope {r >= 0 : A r = 0, sum r = 1} has a vertex with c.r < 0.
    Otherwise the optimum is the least c.x over the nonnegative basic
    solutions."""
    n = len(c)
    assert len(a_rows) <= 4 and n <= 7

    def cost(x):
        return sum((Fraction(cv) * xv for cv, xv in zip(c, x)), Fraction(0))

    feasible = [x for x in _basic_solutions(a_rows, b, n) if min(x, default=0) >= 0]
    if not feasible:
        return LPStatus.INFEASIBLE, None, frozenset()
    rays = _basic_solutions(list(a_rows) + [[1] * n], [0] * len(a_rows) + [1], n)
    if any(min(r) >= 0 and cost(r) < 0 for r in rays):
        return LPStatus.UNBOUNDED, None, frozenset()
    best = min(cost(x) for x in feasible)
    return LPStatus.OPTIMAL, best, frozenset(x for x in feasible if cost(x) == best)


def positive_support_by_basis_enumeration(a_rows, b, measured):
    """The indices in `measured` that some x in {x >= 0 : A x = b} makes
    positive, or None when the system is infeasible, without the simplex.

    {x >= 0 : A x = b} is the convex hull of its vertices plus the cone of
    its extreme rays, so its support is the union of theirs: the vertices
    are the nonnegative basic solutions, the extreme rays (scaled to sum 1)
    the vertices of {r >= 0 : A r = 0, sum r = 1}."""
    n = len(a_rows[0])
    points = [x for x in _basic_solutions(a_rows, b, n) if min(x) >= 0]
    if not points:
        return None
    rays = _basic_solutions(list(a_rows) + [[1] * n], [0] * len(a_rows) + [1], n)
    points += [r for r in rays if min(r) >= 0]
    return frozenset(i for i in measured if any(x[i] > 0 for x in points))


def implicit_equalities_per_ray(fan, coeffs):
    """Rays whose inequality <m, v_ray> >= -a_ray is tight on the whole
    divisor polytope, or None when it is empty, by one LP per ray: ray j is
    tight iff the largest t <= 1 with slack_j >= t is 0.  A first LP asking
    for slack t on every ray settles emptiness and, when t > 0, that no ray
    is tight."""
    n = fan.lattice_dim
    k = len(fan.rays)
    a = [Fraction(x) for x in coeffs]

    def max_common_slack(bound_set):
        # columns: m+ (n), m- (n), slack (k), t, cap
        rows = []
        for i, v in enumerate(fan.rays):
            row = list(v) + [-x for x in v] + [0] * (k + 2)
            row[2 * n + i] = -1
            if i in bound_set:
                row[2 * n + k] = -1
            rows.append(row)
        rows.append([0] * (2 * n + k) + [1, 1])
        res = solve_lp(rows, [-x for x in a] + [1], [0] * (2 * n + k) + [-1, 0])
        return None if res.status is LPStatus.INFEASIBLE else res.x[2 * n + k]

    probe = max_common_slack(range(k))
    if probe is None:
        return None
    if probe > 0:
        return frozenset()
    return frozenset(j for j in range(k) if max_common_slack({j}) == 0)


def det_by_permutations(rows) -> Fraction:
    """det by the Leibniz expansion over all permutations (n <= 6)."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = prod((rows[i][perm[i]] for i in range(n)), start=1)
        total += -term if inversions % 2 else term
    return Fraction(total)


def toric_balanced_by_adjoint(fan, bundle_coeffs) -> bool:
    """Toric balance read off the adjoint divisor a*L + K itself: the
    coefficients a*l_ray - 1 (K is minus the sum of the boundary divisors),
    cleared to integers, and the dimension of their polytope by the support
    LP, not by the minimal face."""
    from fujita.invariants import fujita
    from fujita.toric import divisor_polytope, ns_presentation, variety_model

    pres = ns_presentation(fan)
    fr = fujita(variety_model(fan), pres.divisor_class(bundle_coeffs))
    adjoint = [fr.a * Fraction(x) - 1 for x in bundle_coeffs]
    den = 1
    for x in adjoint:
        den = den * x.denominator // gcd(den, x.denominator)
    return divisor_polytope(fan, [x * den for x in adjoint]).dim == 0


def minus_one_curves_by_multisets(degree, search_bound) -> set:
    """Classes (a, -b_1, ..., -b_r) with sum b = 3a - 1 and sum b^2 = a^2 + 1
    for 0 <= a <= search_bound and -1 <= b_i <= max(a, 0), r = 9 - degree:
    every sorted multiset of b values is tested, and each solution is put
    in every order.  No recursion and no pruning."""
    r = 9 - degree
    found = set()
    for a in range(search_bound + 1):
        values = range(-1, max(a, 0) + 1)
        for bs in combinations_with_replacement(values, r):
            if sum(bs) == 3 * a - 1 and sum(b * b for b in bs) == a * a + 1:
                for perm in set(permutations(bs)):
                    found.add((a,) + tuple(-b for b in perm))
    return found


def fan_coverage_by_solve(rays, max_cones) -> list:
    """The cone holding each of the 27 seeded generic directions of the fan
    check, found by solving M_c x = u in rationals for every maximal cone c
    (M_c has the cone's rays as columns); raises IncompleteFan as the fan
    check does."""
    n = len(rays[0])
    rng = random.Random(271828 + 101 * n)
    matrices = [MatQ(list(zip(*[rays[i] for i in c]))) for c in max_cones]
    found = []
    attempts = 0
    while len(found) < 27:
        attempts += 1
        if attempts > 2000:
            raise IncompleteFan("could not sample generic directions")
        u = VecQ(
            [Fraction(rng.randint(-997, 997), rng.randint(1, 499)) for _ in range(n)]
        )
        generic = True
        hits = []
        for c, mat in enumerate(matrices):
            lam = solve(mat, u).particular
            if any(x == 0 for x in lam):
                generic = False
                break
            if all(x > 0 for x in lam):
                hits.append(c)
        if not generic:
            continue
        if len(hits) != 1:
            raise IncompleteFan(
                f"generic direction {tuple(u)} lies in {len(hits)} maximal cones"
            )
        found.append(hits[0])
    return found


def zariski_by_fractions(curves, pair, eff_cone, d) -> ZariskiDecomposition:
    """Iterative Zariski decomposition against a fixed negative-curve list.

    Maintain a support set; each round adds every curve the current residual
    meets negatively and re-solves the Gram system so the residual is
    orthogonal to the support.  The support grows strictly, bounded by the
    curve count, so termination is structural; a non-unique or non-positive
    Gram solution would contradict negative definiteness and trips the
    internal guard.
    """
    if eff_cone.contains(d) is Containment.OUTSIDE:
        raise NotPseudoEffective("class is not pseudo-effective")
    support: list[VecQ] = []
    in_support: set[VecQ] = set()
    mults: list[Fraction] = []
    negative = VecQ.zero(d.dim)
    rounds = 0
    while True:
        residual = d - negative
        new = [c for c in curves if c not in in_support and pair(residual, c) < 0]
        if not new:
            break
        rounds += 1
        if rounds > len(curves) + 1:
            raise InternalNonTermination("support exceeded the curve count")
        support.extend(new)
        in_support.update(new)
        gram = MatQ([[pair(ci, cj) for cj in support] for ci in support])
        rhs = VecQ([pair(d, ci) for ci in support])
        sol = solve(gram, rhs)
        if sol is None or not sol.unique:
            raise InternalNonTermination("support Gram system is degenerate")
        mults = list(sol.particular)
        if any(x <= 0 for x in mults):
            raise InternalNonTermination("nonpositive multiplicity in support")
        negative = VecQ.zero(d.dim)
        for c, x in zip(support, mults):
            negative = negative + x * c
    return ZariskiDecomposition(
        positive=d - negative,
        negative_support=tuple(list(zip(support, mults))),
    )


def divisor_class_by_solve(pres, coeffs) -> VecQ:
    """Class of sum a_ray D_ray in the presentation's basis: solve for the
    character m with <m, v> = a on the pivot rays in rationals, then
    subtract <m, v> from a on each basis ray."""
    f = pres.fan
    xs = [as_rat(a) for a in coeffs]
    pivot_matrix = MatQ([f.rays[i] for i in pres.pivot_rays])
    m = solve(pivot_matrix, VecQ([xs[i] for i in pres.pivot_rays]))
    assert m is not None and m.unique
    mv = m.particular
    return VecQ([xs[i] - mv.dot(VecQ(f.rays[i])) for i in pres.basis_rays])


def facets_of_degenerate_by_reduction(cone) -> list:
    """Facets of a cone spanning a proper subspace: reduce to the span,
    dualize there, lift back, and add the +/- annihilator equations.
    Sorted, as `ConeQ.facets` lists them."""
    gens = cone._gens_int
    d = cone.ambient_dim
    kernel = [
        sign_normalized(primitive_int(v.entries))
        for v in qlinalg.nullspace(MatQ(gens))
    ]
    # independent generator subset spanning the cone, in lex order
    sorted_gens = sorted(set(gens))
    span_basis = [sorted_gens[p] for p in pivot_columns(sorted_gens)]
    r = cone.dim()
    bmat = MatQ(zip(*span_basis))  # columns are the basis vectors
    reduced = []
    for g in gens:
        sol = qlinalg.solve(bmat, VecQ(g))
        assert sol is not None
        reduced.append(primitive_int(sol.particular))
    inner, _ = _dd_extremal_rays(list(set(reduced)), r)
    gram = MatQ(
        [[idot(a, b) for b in span_basis] for a in span_basis]
    )
    lifted = []
    for f in inner:
        alpha = qlinalg.solve(gram, VecQ(f))
        assert alpha is not None
        vec = VecQ.zero(d)
        for coef, bas in zip(alpha.particular, span_basis):
            vec = vec + coef * VecQ(bas)
        lifted.append(primitive_int(vec.entries))
    out = lifted
    for k in kernel:
        out.append(k)
        out.append(tuple(-x for x in k))
    return sorted(out)


def strict_fan_checks_by_solve(rays, max_cones) -> None:
    """The strict fan checks in rationals, raising what `Fan(..., strict=True)`
    raises on a fan whose cones are simplicial and nondegenerate: wall
    counts, wall orientation by a nullspace normal, the sampled coverage
    (`fan_coverage_by_solve`), then terminality by a Fraction walk over
    the columns of M^-1 mod 1, M solved one unit vector at a time."""
    n = len(rays[0])
    cones = [tuple(sorted(set(c))) for c in max_cones]
    ridges = {}
    for c in cones:
        for drop in range(n):
            ridge = c[:drop] + c[drop + 1:]
            ridges.setdefault(ridge, []).append(c)
    for ridge, owners in ridges.items():
        if len(owners) != 2:
            raise IncompleteFan(
                f"wall {ridge} lies in {len(owners)} maximal cones, expected 2"
            )
    for ridge, owners in ridges.items():
        wall = MatQ([rays[i] for i in ridge])
        normal = qlinalg.nullspace(wall)
        assert len(normal) == 1
        h = normal[0]
        extras = []
        for c in owners:
            extra = next(i for i in c if i not in ridge)
            extras.append(h.dot(VecQ(rays[extra])))
        if extras[0] * extras[1] >= 0:
            raise IncompleteFan(
                f"maximal cones on wall {ridge} do not cover both sides"
            )
    fan_coverage_by_solve(rays, cones)
    for c in cones:
        mat = MatQ(list(zip(*[rays[i] for i in c])))
        if abs(det_by_permutations([list(r.entries) for r in mat.row_list()])) == 1:
            continue
        steps = [solve(mat, VecQ([int(i == j) for i in range(n)])).particular for j in range(n)]
        zero = (Fraction(0),) * n
        seen = {zero}
        frontier = [zero]
        while frontier:
            lam = frontier.pop()
            for step in steps:
                nxt = tuple([(x + y) % 1 for x, y in zip(lam, step)])
                if nxt in seen:
                    continue
                if sum(nxt) <= 1:
                    pt = tuple([int(x) for x in mat.apply(VecQ(nxt))])
                    raise NonTerminalCone(
                        f"cone {c} contains the lattice point {pt} of conv(0, rays)"
                    )
                seen.add(nxt)
                frontier.append(nxt)


# -- the elimination kernels as they were before `qlinalg.pivot` --------------
# Forward Bareiss echelon with an optional Jordan pass, back-substitution in
# Fractions and a Fraction Schur loop; kept verbatim as oracles for the
# Gauss-Jordan kernel on `qlinalg.pivot`.


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


def rank_by_bareiss(m: MatQ) -> int:
    """Rank over the rationals by fraction-free elimination."""
    rows = [scaled_ints(r)[0] for r in m.row_list()]
    _, pivots = _bareiss_echelon(rows, m.cols)
    return len(pivots)


def pivot_columns_by_bareiss(vectors: Sequence[Sequence]) -> list[int]:
    """Indices of the vectors independent of all earlier ones: the pivot
    columns of the matrix whose columns are the given vectors."""
    vs = list(vectors)
    if not vs:
        return []
    _, pivots = _bareiss_echelon([scaled_ints(r)[0] for r in zip(*vs)], len(vs))
    return pivots


def scaled_inverse_by_bareiss(rows: Sequence[Sequence[int]]) -> tuple[int, list[list[int]] | None]:
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


def solve_by_back_substitution(m: MatQ, rhs: VecQ) -> LinearSolution | None:
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


def inertia_by_fractions(m: MatQ) -> tuple[int, int, int]:
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


def check_fibration_hull_by_nullspace(f, tight_rays, projection) -> None:
    """The projection check of `toric.fibration_b_crosscheck` as it was
    before the span-dimension test: the annihilator of the tight rays, by a
    nullspace, must span the row space of the projection."""
    hull_dirs = qlinalg.nullspace(MatQ([f.rays[i] for i in tight_rays])) if tight_rays \
        else tuple(VecQ([int(i == j) for j in range(f.lattice_dim)]) for i in range(f.lattice_dim))
    proj_rows = list(projection.row_list())
    ra = span_dim(list(hull_dirs))
    rb = span_dim(proj_rows)
    rc = span_dim(list(hull_dirs) + proj_rows)
    if not ra == rb == rc:
        raise ProjectionIncompatible(
            "polytope affine hull does not match the annihilator of ker(projection)"
        )


def contains_by_facet_loop(cone, v) -> Containment:
    """`ConeQ.contains` on a cone whose facets exist, by one integer dot
    per facet: the facet route of `contains` before the packed product."""
    if v.dim != cone.ambient_dim:
        raise DimensionMismatch("vector dimension mismatch")
    if not cone._gens_int:
        return Containment.BOUNDARY if v.is_zero() else Containment.OUTSIDE
    if v.is_zero() and cone._strict:
        return Containment.BOUNDARY
    assert cone._facets_int is not None
    # positive rescaling preserves all signs; integer dots are far
    # cheaper than Fraction arithmetic on big facet lists
    vi, _ = scaled_ints(v)
    boundary = False
    for f in cone._facets_int:
        s = idot(f, vi)
        if s < 0:
            return Containment.OUTSIDE
        if s == 0:
            boundary = True
    return Containment.BOUNDARY if boundary else Containment.INSIDE


def minimal_face_by_facet_loop(cone, v) -> FaceQ:
    """`ConeQ.minimal_face` by one integer dot per facet, intersecting the
    generator masks of the facets vanishing at v."""
    if v.dim != cone.ambient_dim:
        raise DimensionMismatch("vector dimension mismatch")
    if not cone.is_strict():
        if contains_by_facet_loop(cone, v) is Containment.OUTSIDE:
            raise OutsideCone(f"{v!r} is outside the cone")
        raise NonStrictCone("minimal_face requires a strict cone")
    if v.is_zero():
        return FaceQ(cone, frozenset(), 0)
    if cone._facets_int is None:
        cone._compute_facets()
    vi, _ = scaled_ints(v)
    masks = cone._facet_gen_masks
    gmask = (1 << len(cone._gens_int)) - 1
    for f, m in zip(cone._facets_int, masks):
        s = idot(f, vi)
        if s < 0:
            raise OutsideCone(f"{v!r} is outside the cone")
        if s == 0:
            gmask &= m
    gens_in = frozenset(j for j in range(len(cone._gens_int)) if gmask >> j & 1)
    sd = span_dim([cone._gens_int[j] for j in sorted(gens_in)])
    return FaceQ(cone, gens_in, sd)


def facet_generator_masks_by_dot(cone) -> tuple[int, ...]:
    """Per facet, the bitmask of the generators it annihilates, by one
    integer dot per (facet, generator) pair."""
    masks = []
    for f in cone._facets_int:
        m = 0
        for j, g in enumerate(cone._gens_int):
            if idot(f, g) == 0:
                m |= 1 << j
        masks.append(m)
    return tuple(masks)


def min_a_and_face_by_ray_lp(cone, base, direction):
    """a, the face generators and the face's span dimension of
    `ConeQ.min_a_with_face`, or None when direction is not interior: by
    membership and the ray LP on a copy of the cone without facets, and the
    face by the per-facet loop at base + a*direction."""
    fresh = ConeQ(cone.generators, ambient_dim=cone.ambient_dim)
    if fresh.contains(direction) is not Containment.INSIDE:
        return None
    a, _ = fresh.min_a_with_witness(base, direction)
    face = minimal_face_by_facet_loop(cone, base + a * direction)
    return a, face.generators_in_face, face.span_dim
