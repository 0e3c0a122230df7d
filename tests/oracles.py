"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and written against the definitions
only: dense Fraction-based Gaussian elimination, O(k^4) enumeration of
satisfied difference equalities, and certification decided by solving linear
systems.  Nothing imports the package's elimination or configuration code.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def frac_rref(rows):
    """Reduced row echelon form over Q, rows rescaled to primitive ints."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return []
    cols = len(mat[0])
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, len(mat)) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        pv = mat[pivot_row][col]
        mat[pivot_row] = [x / pv for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col]:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
    out = []
    for row in mat:
        if not any(row):
            continue
        denom = 1
        for x in row:
            denom = denom * x.denominator // _gcd(denom, x.denominator)
        ints = [int(x * denom) for x in row]
        g = 0
        for x in ints:
            g = _gcd(g, abs(x))
        lead = next(x for x in ints if x)
        if lead < 0:
            g = -g
        out.append(tuple(x // g for x in ints))
    return out


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


def frac_rank(rows) -> int:
    return len(frac_rref(rows))


def frac_solvable(rows, target) -> bool:
    """Whether target is a rational linear combination of the rows."""
    rows = [list(row) for row in rows]
    if not rows:
        return not any(target)
    return frac_rank(rows) == frac_rank(rows + [list(target)])


def satisfied_contents(points):
    """Contents of every difference equality the tuple satisfies, by brute
    enumeration of all ordered index 4-tuples."""
    k = len(points)
    seen = set()
    out = []
    for i1, i2, i3, i4 in itertools.product(range(k), repeat=4):
        if points[i1] - points[i2] != points[i3] - points[i4]:
            continue
        vec = [0] * k
        vec[i1] += 1
        vec[i2] -= 1
        vec[i3] -= 1
        vec[i4] += 1
        tv = tuple(vec)
        if any(tv) and tv not in seen:
            seen.add(tv)
            out.append(tv)
    return out


def literal_certifies(contents, k, i, j) -> bool:
    """Whether the span of ``contents`` certifies (i, j), 1-based i > j: every
    ordered witness pair (i', j') of the definition is tried with the oracle
    solver."""
    for ip in range(1, k + 1):
        for jp in range(1, k + 1):
            if ip == jp:
                continue
            if not ((ip < i and jp < i) or (jp == i and ip < j)):
                continue
            vec = [0] * k
            vec[i - 1] += 1
            vec[j - 1] -= 1
            vec[ip - 1] -= 1
            vec[jp - 1] += 1
            if not any(vec):
                continue
            if frac_solvable(contents, vec):
                return True
    return False


def literal_certified_pairs(contents, k):
    """Certified pairs of the span of ``contents``, in scan order."""
    return [
        (i, j) for i in range(2, k + 1) for j in range(1, i) if literal_certifies(contents, k, i, j)
    ]


def brute_certifies(points, i, j) -> bool:
    """Certification decided straight from the definition with the oracle solver
    (1-based i > j)."""
    return literal_certifies(satisfied_contents(points), len(points), i, j)


def brute_certified_count(points) -> int:
    return len(literal_certified_pairs(satisfied_contents(points), len(points)))


def brute_distinct_differences(points) -> int:
    return len({abs(a - b) for a, b in itertools.combinations(points, 2)})


def all_leads_pattern_counts(ground_n, k, leads):
    """Walk every k-subset of [1..N] whose lead (least element) is in
    ``leads``, in lexicographic order, and map each difference pattern (each
    index pair labelled by the position of the first pair with the same
    difference) to [count, least subset]."""
    counts = {}
    for lead in leads:
        for rest in itertools.combinations(range(lead + 1, ground_n + 1), k - 1):
            points = (lead,) + rest
            first = {}
            pattern = tuple(
                first.setdefault(points[j] - points[i], n)
                for n, (i, j) in enumerate(itertools.combinations(range(k), 2))
            )
            if pattern in counts:
                counts[pattern][0] += 1
            else:
                counts[pattern] = [1, points]
    return counts


def brute_digit_ground_set(limit, kappa):
    """Every v in 1..limit whose base-(kappa+1) digits of v - 1 are all 0 or 1."""

    def digits(x):
        while x:
            x, digit = divmod(x, kappa + 1)
            yield digit

    return [v for v in range(1, limit + 1) if all(d <= 1 for d in digits(v - 1))]


def _largest_disjoint(classes) -> int:
    """Largest 2p with p >= 2 pairwise-disjoint pairs from one class."""
    best = 0
    for pairs in classes:
        for size in range(len(pairs), 1, -1):
            if 2 * size <= best:
                break
            for combo in itertools.combinations(pairs, size):
                used = [v for p in combo for v in p]
                if len(set(used)) == len(used):
                    best = max(best, 2 * size)
                    break
    return best


def brute_largest_star(points) -> int:
    """Largest 2p with p >= 2 disjoint pairs of equal numeric sums."""
    k = len(points)
    by_sum = {}
    for a, b in itertools.combinations(range(k), 2):
        by_sum.setdefault(points[a] + points[b], []).append((a, b))
    return _largest_disjoint(by_sum.values())


def literal_largest_star(contents, k) -> int:
    """Largest 2p with p >= 2 disjoint pairs whose sums the span of
    ``contents`` forces equal; each pair joins the first class whose first
    pair it is sum-equal to (congruence modulo a span is transitive)."""
    classes = []
    for a, b in itertools.combinations(range(k), 2):
        for cls in classes:
            c, d = cls[0]
            vec = [0] * k
            vec[a] += 1
            vec[b] += 1
            vec[c] -= 1
            vec[d] -= 1
            if frac_solvable(contents, vec):
                cls.append((a, b))
                break
        else:
            classes.append([(a, b)])
    return _largest_disjoint(classes)


def literal_candidate_products(contents, k, variables):
    """Span members with four +-1 entries on ``variables``, first nonzero
    entry +1: every 4-subset a < b < c < d in lexicographic order, then its
    three sign patterns with +1 on {a,b}, {a,c}, {a,d}, each tested by
    solving a linear system."""
    out = []
    for a, b, c, d in itertools.combinations(sorted(variables), 4):
        for plus, minus in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c))):
            vec = [0] * k
            for v in plus:
                vec[v - 1] = 1
            for v in minus:
                vec[v - 1] = -1
            if frac_solvable(contents, vec):
                out.append(tuple(vec))
    return out


def literal_minimal_implications(contents, k, max_t):
    """``(subset, products, coefficients)`` for every subset of at most
    ``max_t`` of the independent ``contents``, by index tuple in
    lexicographic order, that minimally implies some span member with
    four +-1 entries: ``products`` lists every such member, in
    support-lexicographic and then sign-pattern order, and
    ``coefficients`` writes the first over the subset.  Every +-1 vector
    of support 4 is tested against the whole span, every subset for
    independence, and minimality by the membership of a span member in
    the span of the subset and of each of its subsets one smaller."""
    members = literal_candidate_products(contents, k, range(1, k + 1))
    out = []
    for size in range(1, max_t + 1):
        for subset in itertools.combinations(range(len(contents)), size):
            rows = [list(contents[i]) for i in subset]
            if frac_rank(rows) != size:
                continue
            premises = {tuple(row) for row in rows} | {tuple(-x for x in row) for row in rows}
            products = [
                vec
                for vec in members
                if vec not in premises
                and frac_rank(rows + [list(vec)]) == size
                and not any(frac_solvable(rows[:i] + rows[i + 1 :], vec) for i in range(size))
            ]
            if products:
                out.append((subset, products, _coefficients(rows, products[0])))
    return sorted(out)


def _coefficients(rows, target):
    """The unique c with sum c_i * rows[i] = target, for independent rows
    and a target in their span: row i of the reduced system
    [rows^T | target] is a multiple of (e_i | c_i)."""
    system = [[row[j] for row in rows] + [target[j]] for j in range(len(target))]
    return tuple(Fraction(r[-1], r[i]) for i, r in enumerate(frac_rref(system)))


def section_dim(contents, k, support):
    """dim {v in span(contents) : supp(v) subseteq support}, via rank difference."""
    if not contents:
        return 0
    comp = [j for j in range(k) if (j + 1) not in support]
    full = frac_rank(contents)
    if not comp:
        return full
    return full - frac_rank([[row[c] for c in comp] for row in contents])


def literal_equality(contents, k):
    """The first pair (i, j), 1-based i < j, with x_i = x_j implied by
    ``contents``, or None."""
    for i in range(k):
        for j in range(i + 1, k):
            vec = [0] * k
            vec[i], vec[j] = 1, -1
            if frac_solvable(contents, vec):
                return i + 1, j + 1
    return None


def brute_valid(points) -> bool:
    return literal_equality(satisfied_contents(points), len(points)) is None


def literal_collinearity_free(contents, k) -> bool:
    """No support-3 span member: at each 3-subset S, a vector with support
    exactly S exists iff dim W_S exceeds the dimension at every 2-subset
    (a vector space over Q is never a union of proper subspaces)."""
    for s in itertools.combinations(range(1, k + 1), 3):
        d = section_dim(contents, k, s)
        if d == 0:
            continue
        if all(section_dim(contents, k, set(s) - {v}) < d for v in s):
            return False
    return True


def brute_collinearity_free(points) -> bool:
    return literal_collinearity_free(satisfied_contents(points), len(points))


def literal_c_light(contents, k, c) -> bool:
    """No variable set S whose section holds t >= 1 independent implied
    equations with |S| < c*t + 1, tried over every S."""
    for size in range(1, k + 1):
        for s in itertools.combinations(range(1, k + 1), size):
            t = section_dim(contents, k, s)
            if t >= 1 and size < c * t + 1:
                return False
    return True


def brute_c_light(points, c) -> bool:
    return literal_c_light(satisfied_contents(points), len(points), c)


def brute_c_good(points, c) -> bool:
    return brute_valid(points) and brute_collinearity_free(points) and brute_c_light(points, c)


def brute_alteration_sweep(sampled, k, good):
    """Visit every k-subset of the sorted sample in lexicographic index order,
    skip those holding a deleted element, and delete the largest element of
    each subset whose points fail ``good``.  Returns the survivors and the
    deletion log of (deleted element, subset points)."""
    elems = sorted(sampled)
    alive = [True] * len(elems)
    log = []
    for idx in itertools.combinations(range(len(elems)), k):
        if not all(alive[i] for i in idx):
            continue
        points = tuple(elems[i] for i in idx)
        if not good(points):
            alive[idx[-1]] = False
            log.append((elems[idx[-1]], points))
    return [e for e, a in zip(elems, alive) if a], log


def integer_root(x, q):
    """Largest r with r**q <= x, by doubling and bisection."""
    lo, hi = 0, 1
    while hi**q <= x:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**q <= x:
            lo = mid
        else:
            hi = mid
    return lo
