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
the pruned (-1)-curve recursion, one rational solve per cone and point
checks the integer fan-coverage test, and 27 sampled directions check
that one point decides coverage, the Fraction loop checks
the integer Zariski kernel, one rational back-substitution on the pivot
rays checks the toric class map, the support LP of the divisor polytope
checks toric rigidity read off the minimal face, a nullspace wall normal
with a Fraction lattice walk checks the strict fan checks, an LP of
another shape (v minus a bounded multiple of the generator sum) checks
membership by the ray LP, the forward Bareiss echelon with Fraction
back-substitution and the Fraction Schur loop check the Gauss-Jordan
kernel on `qlinalg.pivot`, the annihilator of the tight rays checks
the span-dimension test of a fibration projection, one integer dot
per facet checks the packed facet signs of membership and minimal faces,
one integer dot per (facet, generator) pair checks the incidence masks
read off DD, the ray LP on a copy of the cone without facets checks
the facet route for a and its minimal face, and the per-facet arg-max loop
with one integer dot per facet checks the grouped arg-max of
`ConeQ.min_a_with_point`, `Fraction` Gauss-Jordan on a face's
generators checks the witness read off a simplicial face's dual facets,
and the conic and plane classes, by the Cauchy-Schwarz-bounded search,
check DD's facets of the del Pezzo cones of degrees 2-7.
`lift_class` is no oracle: it lifts a class to the coefficients that
`divisor_polytope` takes.
"""

from fractions import Fraction
import random
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd, prod
from typing import Sequence

from fujita import qlinalg
from fujita.cones import ConeQ, Containment, FaceQ
from fujita.delpezzo import ZariskiDecomposition
from fujita.errors import (
    DimensionMismatch,
    IncompleteFan,
    InternalNonTermination,
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
    scaled_ints,
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
    the cone iff t = 0 is feasible, and in its interior iff t* > 0."""
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
    return Containment.INSIDE if t_star > 0 else Containment.BOUNDARY


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
            if sol is None or sol.kernel:
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


def nef_normals(degree) -> set:
    """The facet normals of the effective cone of the del Pezzo surface of
    degree 2..7, with no DD: the extremal rays of the nef cone, the conic
    classes F (F^2 = 0, -K.F = 2) and the plane classes (F^2 = 1,
    -K.F = 3) aH - sum b_i E_i with every b_i >= 0, each as its normal
    J F = (a, b_1, ..., b_r), J = diag(1, -1, ..., -1).  The search is that
    of `delpezzo.enumerate_negative_curves`: a branch is cut when
    Cauchy-Schwarz leaves no completion, and a runs from 1 while the cut
    over all r entries, r(a^2 - F^2) >= (3a + K.F)^2, holds."""
    r = 9 - degree
    found = set()
    for square, k_deg in ((0, 2), (1, 3)):
        a = 1
        while r * (a * a - square) >= (3 * a - k_deg) ** 2:
            target_sum, target_sq = 3 * a - k_deg, a * a - square

            def rec(prefix, s, sq):
                rem = r - len(prefix)
                need = target_sum - s
                if not rem:
                    if not need and sq == target_sq:
                        found.add((a,) + tuple(prefix))
                elif need >= 0 and rem * (target_sq - sq) >= need * need:
                    for b in range(a + 1):
                        rec(prefix + [b], s + b, sq + b * b)

            rec([], 0, 0)
            a += 1
    return found


def dot(u, v) -> Fraction:
    """The dot product of two rational vectors of one dimension, one
    `Fraction` product per entry."""
    return sum([Fraction(a) * b for a, b in zip(u, v, strict=True)], Fraction(0))


def cones_holding_by_solve(rays, max_cones, u) -> list:
    """The maximal cones c holding u, found by solving M_c x = u in
    rationals (M_c has the cone's rays as columns) and testing x >= 0."""
    found = []
    for c, cone in enumerate(max_cones):
        lam = solve(MatQ(list(zip(*[rays[i] for i in cone]))), VecQ(u)).particular
        if all(x >= 0 for x in lam):
            found.append(c)
    return found


def fan_coverage_by_solve(rays, max_cones) -> list:
    """The cone holding each of 27 seeded generic directions, found by
    solving M_c x = u in rationals for every maximal cone c (M_c has the
    cone's rays as columns); raises IncompleteFan when a direction lies in
    other than one cone.  A fan whose walls pass is complete iff this
    passes, so it checks the fan check's one-point rule without it."""
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
        if sol is None or sol.kernel:
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


def pivot_split(fan) -> tuple[list[int], list[int]]:
    """The first lattice_dim linearly independent rays in ray order, by the
    oracle's Bareiss echelon, and the other rays: the class coordinates."""
    pivots = pivot_columns_by_bareiss(fan.rays)
    return pivots, [i for i in range(len(fan.rays)) if i not in pivots]


def divisor_class_by_solve(fan, coeffs) -> VecQ:
    """Class of sum a_ray D_ray, one coordinate per non-pivot ray: solve
    for the character m with <m, v> = a on the pivot rays in rationals by
    back-substitution, then subtract <m, v> from a on each non-pivot ray."""
    pivots, basis = pivot_split(fan)
    xs = [as_rat(a) for a in coeffs]
    pivot_matrix = MatQ([fan.rays[i] for i in pivots])
    m = solve_by_back_substitution(pivot_matrix, VecQ([xs[i] for i in pivots]))
    assert m is not None and not m.kernel
    mv = m.particular
    return VecQ([xs[i] - dot(mv, fan.rays[i]) for i in basis])


def lift_class(fan, cls: VecQ) -> tuple[Fraction, ...]:
    """An invariant divisor with the given class, as `divisor_polytope`
    takes it: coefficients placed on the non-pivot rays, zero on the pivot
    rays."""
    coeffs = [Fraction(0)] * len(fan.rays)
    for pos, ray in enumerate(pivot_split(fan)[1]):
        coeffs[ray] = cls[pos]
    return tuple(coeffs)


def strict_fan_checks_by_solve(rays, max_cones) -> None:
    """The strict fan checks in rationals, raising what `Fan(..., strict=True)`
    raises on a fan whose cones are simplicial and nondegenerate: wall
    counts, wall orientation by a nullspace normal, the cones holding w,
    the sum of the first cone's rays (`cones_holding_by_solve`), then
    terminality by a Fraction walk over the columns of M^-1 mod 1, M
    solved one unit vector at a time.  The walk has no |det| bound."""
    n = len(rays[0])
    cones = [tuple(sorted(set(c))) for c in max_cones]
    if not cones:
        raise IncompleteFan("fan has no maximal cone")
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
            extras.append(dot(h, rays[extra]))
        if extras[0] * extras[1] >= 0:
            raise IncompleteFan(
                f"maximal cones on wall {ridge} do not cover both sides"
            )
    w = tuple([sum(rays[i][k] for i in cones[0]) for k in range(n)])
    hits = cones_holding_by_solve(rays, cones, w)
    if len(hits) != 1:
        raise IncompleteFan(f"point {w} lies in {len(hits)} maximal cones")
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


def combination_by_fractions(vectors, p) -> list[Fraction] | None:
    """The coefficients c with sum c_i vectors[i] = p when the vectors are
    independent, else None: plain `Fraction` Gauss-Jordan on the columns
    [vectors | p], with no `qlinalg` elimination, packing or scaling."""
    n = len(vectors)
    rows = [[Fraction(v[t]) for v in vectors] + [Fraction(p[t])] for t in range(len(p))]
    for c in range(n):
        r = next((i for i in range(c, len(rows)) if rows[i][c] != 0), None)
        if r is None:
            return None
        rows[c], rows[r] = rows[r], rows[c]
        piv = rows[c][c]
        rows[c] = [x / piv for x in rows[c]]
        for i in range(len(rows)):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    if any(row[n] != 0 for row in rows[n:]):
        raise AssertionError("p is not in the span of the vectors")
    return [rows[c][n] for c in range(n)]


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
    if v.is_zero():
        return Containment.BOUNDARY
    assert cone._facets is not None
    # positive rescaling preserves all signs; integer dots are far
    # cheaper than Fraction arithmetic on big facet lists
    vi, _ = scaled_ints(v)
    boundary = False
    for f in cone._facets:
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
    if v.is_zero():
        return FaceQ(cone, frozenset(), 0)
    if cone._facets is None:
        cone._compute_facets()
    vi, _ = scaled_ints(v)
    masks = cone._facet_gen_masks
    gmask = (1 << len(cone._gens_int)) - 1
    for f, m in zip(cone._facets, masks):
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
    for f in cone._facets:
        m = 0
        for j, g in enumerate(cone._gens_int):
            if idot(f, g) == 0:
                m |= 1 << j
        masks.append(m)
    return tuple(masks)


def min_a_and_face_by_ray_lp(cone, base, direction):
    """a, and the face generators and span dimension of the boundary
    point, as `ConeQ.min_a_with_point` and `minimal_face` give them, or
    None when direction is not interior: by membership and the ray LP on a
    copy of the cone without facets, and the face by the per-facet loop at
    base + a*direction."""
    fresh = ConeQ(cone.generators, ambient_dim=cone.ambient_dim)
    if fresh.contains(direction) is not Containment.INSIDE:
        return None
    a, _ = fresh.min_a_with_witness(base, direction)
    face = minimal_face_by_facet_loop(cone, base + a * direction)
    return a, face.generators_in_face, face.span_dim


def min_a_and_face_by_facet_loop(cone, base, direction):
    """a and the generators of the boundary point's minimal face, as
    `ConeQ.min_a_with_point` and `minimal_face` give them, or None when
    direction is not interior: one integer dot per facet for f.L and f.K,
    and the per-facet arg-max loop of the ratios -f.K / f.L, ANDing the
    generator masks of the facets that reach a."""
    if cone._facets is None:
        cone._compute_facets()
    vl, dl = scaled_ints(direction)
    vk, dk = scaled_ints(base)
    sl = [idot(f, vl) for f in cone._facets]
    sk = [idot(f, vk) for f in cone._facets]
    if min(sl) <= 0:
        return None
    num, den, mask = -sk[0], sl[0], cone._facet_gen_masks[0]
    for k, l, m in zip(sk, sl, cone._facet_gen_masks):
        c = -k * den - num * l  # -k/l against num/den; l, den > 0
        if c > 0:
            num, den, mask = -k, l, m
        elif c == 0:
            mask &= m
    a = Fraction(num * dl, den * dk)
    return a, frozenset(j for j in range(len(cone._gens_int)) if mask >> j & 1)
