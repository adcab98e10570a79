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
the integer Zariski kernel, and one rational solve on the pivot rays checks
the integer toric class map.
"""

from fractions import Fraction
import random
from itertools import combinations, combinations_with_replacement, permutations, product
from math import gcd, prod

from fujita.cones import Containment
from fujita.delpezzo import ZariskiDecomposition
from fujita.errors import IncompleteFan, InternalNonTermination, NotPseudoEffective
from fujita.qlinalg import MatQ, VecQ, as_rat, solve, span_dim
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
    """det by the Leibniz expansion over all permutations (n <= 5)."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        term = prod((Fraction(rows[i][perm[i]]) for i in range(n)), start=Fraction(1))
        total += -term if inversions % 2 else term
    return total


def toric_balanced_by_adjoint(fan, bundle_coeffs) -> bool:
    """Toric balance read off the adjoint divisor a*L + K itself: the
    coefficients a*l_ray - 1 (K is minus the sum of the boundary divisors),
    cleared to integers, and the dimension of their polytope."""
    from fujita.invariants import fujita
    from fujita.toric import ns_presentation, toric_rigid, variety_model

    pres = ns_presentation(fan)
    fr = fujita(variety_model(fan), pres.divisor_class(bundle_coeffs))
    adjoint = [fr.a * Fraction(x) - 1 for x in bundle_coeffs]
    den = 1
    for x in adjoint:
        den = den * x.denominator // gcd(den, x.denominator)
    return toric_rigid(fan, [x * den for x in adjoint])


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
