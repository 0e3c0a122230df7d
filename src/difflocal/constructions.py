"""Set constructions: sphere-slice digit sets and the randomized local-good set.

``behrend_set`` maps a maximal sphere slice of the integer box [1..m]^d into Z
through the base-(16*kappa*m) digit map phi(v) = sum v_{i+1} * base^i.  Digits
stay below base/2 after any signed combination with coefficients bounded by
kappa, so a relation alpha*s1 + beta*s2 + gamma*s3 = 0 (nonzero coefficients
of magnitude <= kappa summing to zero) would force the three preimages to be
collinear on a sphere, which is impossible; the image therefore avoids all
such triples.  The slice is enumerated in full, so boxes are capped at 10^8
vectors and 27 dimensions.

``random_local_set`` samples a rho-random subset of a progression-free ground
set inside [1..floor(n^c)] and then deletes one element from every k-subset
whose configuration fails to be c-good, until exactly n elements remain whose
k-subsets are all c-good.  Because deleting elements never creates new bad
subsets, a single deterministic sweep in subset order suffices, and it need
only visit the subsets that can be bad.  A subset repeats a difference iff
it contains a *core*: a 3-term progression, or a 4-core {a<b, p<q} with
b - a = q - p.  Its difference equalities are spanned by the equations of
its cores, so a subset with no progression and at most one 4-core forms the
rank-0 configuration or a rank-1 one spanned by a support-4 vector.  That is
valid and collinearity-free, and light for c <= 2, since a heavy variable set
needs t >= 3 implied equations.  So only the subsets that hold a progression
or two distinct 4-cores can be bad, and at k = 4, where two distinct 4-cores
need five points, only those with a progression: on the progression-free
ground set the sweep classifies nothing.  For each lead element in turn the
sweep collects the k-subsets it leads that contain such a *seed* of live
elements and visits them in subset order, classifying each difference
pattern once.  The result is re-verified before it is returned, by a check
that shares nothing with the sweep: it builds its own difference table,
visits every k-subset that holds a progression or a 4-core (every other
subset has pairwise distinct differences, so it forms the rank-0
configuration), and classifies each of their patterns with no shortcut.

At desk scale the sphere-slice parameters collapse inside [1..n^c] (the base
16*kappa*m alone overshoots the interval), so the ground set uses the other
classical progression-free shape: integers whose base-(kappa+1) digits are 0
or 1.  For those, any relation alpha*s1 + beta*s2 + gamma*s3 = 0 with nonzero
|alpha|,|beta|,|gamma| <= kappa and zero sum evaluates digitwise without
carries (each side of the balanced equation is at most kappa per digit), and
with 0/1 digits the only digitwise solutions force s1 = s2 = s3.  The
alteration sweep removes whatever bad subsets remain regardless, so kappa
only affects survival probability, not correctness.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress
from math import comb
from typing import Sequence

from .configuration import difference_pattern, from_points
from .goodness import is_c_good, parse_c, points_c_good
from .verifier import BudgetExceededError, check_budget

MAX_ENUMERATION = 10**8
EXACT_POWER_BITS = 1 << 20


class ConstructionError(Exception):
    """Degenerate or infeasible construction parameters."""


class RetriesExhaustedError(ConstructionError):
    """No sampling attempt survived the alteration with n elements."""


class InvariantError(Exception):
    """A construction broke its own guarantee: a defect, never a bad input."""


@dataclass(frozen=True, eq=True)
class SetArtifact:
    """A constructed integer set plus provenance that reproduces it bit-exactly."""

    elements: tuple[int, ...]
    provenance: dict = field(compare=False)

    def __post_init__(self) -> None:
        elems = self.elements
        if any(b <= a for a, b in zip(elems, elems[1:])):
            raise ValueError("elements must be strictly increasing")
        if elems and elems[0] <= 0:
            raise ValueError("elements must be positive")


def _norm_histograms(d: int, m: int) -> list[list[int]]:
    """hist[j][s] = number of vectors in [1..m]^j with squared norm s."""
    top = d * m * m
    squares = [i * i for i in range(1, m + 1)]
    hists = [[0] * (top + 1)]
    hists[0][0] = 1
    for _ in range(d):
        prev = hists[-1]
        nxt = [0] * (top + 1)
        for s, count in enumerate(prev):
            if count:
                # prev counts at most d - 1 coordinates, so s <= top - m^2
                for q in squares:
                    nxt[s + q] += count
        hists.append(nxt)
    return hists


def _sphere_slice(d: int, m: int, r: int, hists: list[list[int]]) -> list[tuple[int, ...]]:
    """All vectors of [1..m]^d with squared norm r, lexicographic order."""
    out: list[tuple[int, ...]] = []
    vec = [0] * d

    def extend(pos: int, remaining: int) -> None:
        if pos == d:
            if remaining == 0:
                out.append(tuple(vec))
            return
        left = d - pos - 1
        feas = hists[left]
        for x in range(1, m + 1):
            rem = remaining - x * x
            if rem < 0:
                break
            if feas[rem]:
                vec[pos] = x
                extend(pos + 1, rem)

    extend(0, r)
    del extend  # it calls itself: free the cycle without the cyclic GC
    return out


def behrend_set(*, d: int, m: int, kappa: int) -> SetArtifact:
    """Image of the first maximal sphere slice of [1..m]^d under the digit map.

    The slice radius r is the first squared norm attained by the most
    vectors, and every vector on it is enumerated, so the output size equals
    the slice size exactly.  A box with more than ``MAX_ENUMERATION`` vectors
    or more dimensions than that limit's bit length is rejected before any
    work; the second bound also caps the slice walk's recursion depth.
    """
    if d < 2:
        raise ConstructionError(f"dimension d must be at least 2, got {d}")
    if m < 1:
        raise ConstructionError(f"digit bound m must be at least 1, got {m}")
    if kappa < 1:
        raise ConstructionError(f"coefficient bound kappa must be at least 1, got {kappa}")
    # d is bounded first, so m**d is never formed for a huge d (for m >= 2 the
    # size bound alone forces d <= 26); both precede the histograms (about
    # d^2 * m^3 steps) and bound the slice walk's recursion depth
    max_d = MAX_ENUMERATION.bit_length()
    if d > max_d or m**d > MAX_ENUMERATION:
        raise ConstructionError(
            f"box [1..{m}]^{d} is too large: m^d = {m}^{d} must be at most "
            f"{MAX_ENUMERATION} and d at most {max_d}"
        )
    hists = _norm_histograms(d, m)
    r = max(range(len(hists[d])), key=hists[d].__getitem__)  # the first maximum
    base = 16 * kappa * m
    elements = sorted(_digit_map(v, base) for v in _sphere_slice(d, m, r, hists))
    provenance = {
        "construction": "behrend",
        "parameters": {
            "d": d,
            "m": m,
            "kappa": kappa,
            "base": base,
            "r": r,
            "slice_size": hists[d][r],
        },
    }
    return SetArtifact(tuple(elements), provenance)


def _digit_map(vec: Sequence[int], base: int) -> int:
    value = 0
    for digit in reversed(vec):
        value = value * base + digit
    return value


def behrend_auto(n: int, kappa: int) -> SetArtifact:
    """Choose d = floor(sqrt(ln n)), m = floor(e^{sqrt(ln n)} / (16 kappa)).

    Natural logarithms throughout (they pair with the e^{sqrt(log n)} digit
    bound).  All elements land in [1, n].  Degenerate sizes fail loudly: the
    error names the collapsed parameter.
    """
    if n < 16:
        raise ConstructionError(f"n must be at least 16, got {n}")
    if kappa < 1:
        raise ConstructionError(f"kappa must be at least 1, got {kappa}")
    root = math.sqrt(math.log(n))
    d = int(root)
    m = int(math.exp(root) / (16 * kappa))
    if m < 1:
        raise ConstructionError(
            f"parameter m collapsed to 0 for n={n}, kappa={kappa}: n is too small for the auto formulas"
        )
    if d < 2:
        raise ConstructionError(f"parameter d collapsed to {d} for n={n}: n is too small")
    artifact = behrend_set(d=d, m=m, kappa=kappa)
    if artifact.elements[-1] > n:
        raise InvariantError(f"digit map overflowed the target interval [1, {n}]")
    provenance = dict(artifact.provenance)
    provenance["parameters"] = dict(provenance["parameters"], n=n, auto=True)
    return SetArtifact(artifact.elements, provenance)


def digit_ground_set(limit: int, kappa: int) -> list[int]:
    """Integers in [1, limit] whose base-(kappa+1) digits (after -1 shift) are 0/1.

    Avoids every relation alpha*s1 + beta*s2 + gamma*s3 = 0 with distinct
    s_i and nonzero integer coefficients of magnitude <= kappa summing to 0.
    The shifted values v, sorted, are the binary numerals of 0, 1, 2, ...
    read in base kappa+1 (reading a 0/1 digit string in a larger base keeps
    its order), so the i-th is int(format(i, "b"), kappa + 1) and there are
    ``digit_ground_count`` of them.
    """
    return [1 + int(format(i, "b"), kappa + 1) for i in range(digit_ground_count(limit, kappa))]


def digit_ground_count(limit: int, kappa: int) -> int:
    """len(digit_ground_set(limit, kappa)), in closed form and without the list.

    Counts the v in [0, limit - 1] whose base-(kappa+1) digits are all 0 or
    1, walking the digits of limit - 1 from the top: below a digit 1 the
    choice 0 frees every lower digit, a digit of 2 or more frees this one
    too and ends the walk, and a walk that never leaves the bound counts
    limit - 1 itself.
    """
    if limit < 1:
        raise ConstructionError(f"limit must be positive, got {limit}")
    if kappa < 1:
        raise ConstructionError(f"kappa must be at least 1, got {kappa}")
    base = kappa + 1
    digits = []
    rest = limit - 1
    while rest:
        rest, digit = divmod(rest, base)
        digits.append(digit)
    count = 0
    for position in reversed(range(len(digits))):
        digit = digits[position]
        if digit == 1:
            count += 1 << position
        elif digit >= 2:
            return count + (2 << position)
    return count + 1


def power_floor(n: int, c: Fraction) -> int:
    """floor(n ** c), for c = p/q in [1, 2] the largest r in [n, n^2] with
    r^q <= n^p, by bisection without forming n^p (p = 2^30 - 1 at the
    paper's c).  r^q <= n^p iff log r <= c * log n; in floats both sides err
    by under 2^-48 * (log r + c * log n + 1) when ``math.log`` is faithful to
    a few ulps, so a gap over 2^-40 times that sum settles it.  Inside that
    margin the powers are compared exactly if neither exceeds
    ``EXACT_POWER_BITS`` bits, and BudgetExceededError is raised otherwise.
    """
    c = Fraction(c)
    if n < 1 or not 1 <= c <= 2:
        raise ValueError(f"power_floor needs n >= 1 and 1 <= c <= 2, got n={n}, c={c}")
    p, q = c.numerator, c.denominator
    log_target = float(c) * math.log(n)

    low, high = n, n * n  # n^q <= n^p <= n^(2q)
    while low < high:
        r = (low + high + 1) // 2
        log_r = math.log(r)
        if abs(log_r - log_target) > 2**-40 * (log_r + log_target + 1):
            fits = log_r < log_target
        elif max(q * r.bit_length(), p * n.bit_length()) <= EXACT_POWER_BITS:
            fits = r**q <= n**p
        else:
            raise BudgetExceededError(
                f"floor({n}^({c})) needs powers of more than {EXACT_POWER_BITS} bits to settle"
            )
        low, high = (r, high) if fits else (low, r - 1)
    return low


def random_local_set(
    n: int,
    k: int,
    c: Fraction | float | str,
    kappa: int = 2,
    seed: int = 0,
    max_retries: int = 8,
) -> SetArtifact:
    """An n-element set, inside [1, floor(n^c)], whose k-subsets are all c-good.

    Deterministic for fixed arguments: attempt t uses seed + t, elements of
    the ground set are sampled in increasing order with inclusion probability
    rho = min(1, 2n/|ground|), and each c-bad k-subset found in the sweep
    loses its largest element.  At rho = 1 every attempt samples the whole
    ground set, so only attempt 0 is made.  Survivors beyond n are trimmed
    from the top (keeping small elements dense).  The postcondition is
    machine-checked before returning, over every k-subset that repeats a
    difference (InvariantError if it fails).  Raises BudgetExceededError,
    before the ground set is built, when the ground set or C(n, k) exceeds
    ``resolve_budget()`` (every sample has at least n elements), and when an
    attempt's sweep would scan more than that many subsets.
    """
    try:
        c = parse_c(c)
    except ValueError as exc:
        raise ConstructionError(str(exc)) from exc
    if k < 4:
        raise ConstructionError(f"k must be at least 4, got {k}")
    if n < k:
        raise ConstructionError(f"n must be at least k={k}, got {n}")
    if max_retries < 0:
        raise ConstructionError(f"max_retries must be nonnegative, got {max_retries}")
    limit = power_floor(n, c)
    ground_size = digit_ground_count(limit, kappa)
    if ground_size < n:
        raise ConstructionError(
            f"ground set inside [1, {limit}] has only {ground_size} elements, need {n}"
        )
    budget = check_budget(ground_size, f"ground set inside [1, {limit}]")
    check_budget(comb(n, k), f"C({n},{k})", budget)
    ground = digit_ground_set(limit, kappa)
    rho = Fraction(2 * n, ground_size)
    tries = 1 if rho >= 1 else max_retries + 1
    # per failed attempt: its sample size, and its survivors (the sample
    # itself when it is too small to sweep)
    sizes = []
    kept = []
    for attempt in range(tries):
        seed_used = seed + attempt
        # at rho >= 1 every draw is below the threshold: the whole ground set
        rng = random.Random(seed_used)
        threshold = float(rho)
        sampled = [g for g in ground if rng.random() < threshold]
        sizes.append(len(sampled))
        if len(sampled) < n:
            kept.append(len(sampled))
            continue
        check_budget(comb(len(sampled), k), f"C({len(sampled)},{k})", budget)
        survivors, deletion_log = _alteration_sweep(sampled, k, c)
        if len(survivors) < n:
            kept.append(len(survivors))
            continue
        elements = survivors[:n]
        trimmed = survivors[n:]
        _verify_all_good(elements, k, c)
        provenance = {
            "construction": "random-local",
            "parameters": {
                "n": n,
                "k": k,
                "c": str(c),
                "kappa": kappa,
                "seed": seed,
                "max_retries": max_retries,
            },
            "limit": limit,
            "ground_size": ground_size,
            "rho": str(min(rho, Fraction(1))),
            "attempt": attempt,
            "seed_used": seed_used,
            "sampled_size": len(sampled),
            "deletion_log": [
                {"deleted": deleted, "subset": list(subset)} for deleted, subset in deletion_log
            ],
            "trimmed": list(trimmed),
        }
        return SetArtifact(tuple(elements), provenance)
    tried = "1 try (the sample is the whole ground set, so every try is the same)" if rho >= 1 else f"{tries} tries"
    size_range = f"{min(sizes)}" if min(sizes) == max(sizes) else f"{min(sizes)} to {max(sizes)}"
    raise RetriesExhaustedError(
        f"no attempt reached {n} survivors after {tried}; the most was {max(kept)},"
        f" at attempt {kept.index(max(kept))}; samples held {size_range} elements"
    )


def _alteration_sweep(
    sampled: Sequence[int], k: int, c: Fraction
) -> tuple[list[int], list[tuple[int, tuple[int, ...]]]]:
    """Delete the largest element of each c-bad k-subset met in subset order.

    Equivalent to a pass over every k-subset of the sorted sample in
    lexicographic index order that skips subsets with a deleted element and
    deletes the largest element of each c-bad one: deleting elements never
    creates bad subsets, so every subset that survives such a pass was
    inspected and found good.  This pass visits only the subsets that
    contain a *seed* (``_seeds_by_lead``): a 3-term progression, or the
    union of two distinct 4-cores.  Every other subset is c-good for
    c <= 2.  Its difference equalities are spanned by the progressions and
    4-cores it contains (``from_points``), so with no progression and at
    most one 4-core {a<b, p<q}, b - a = q - p, it forms the rank-0
    configuration or the rank-1 one spanned by x_a - x_b - x_p + x_q.  The
    latter implies no x_i = x_j and no support-3 equation (its only span
    vectors are multiples of a support-4 one), so it is valid and
    collinearity-free, and it is light, since a heavy variable set needs
    t >= 3 > rank (see ``goodness.is_c_good``).

    For each live lead index in increasing order the sweep collects the
    k-subsets with that least index that contain a seed of live elements,
    and visits them in lexicographic order under the same liveness test.
    Every subset the full pass would find bad is among them (a deletion
    only ever kills an element above the current lead), so the deletions
    and their order are the same.  A subset is held as a bit mask with bit
    n - 1 - i for index i, so a larger mask is a lexicographically earlier
    subset of the same size.

    A subset's verdict depends only on its difference pattern
    (``configuration.difference_pattern``), which fixes its configuration.
    Each new pattern is classified once through ``points_c_good``.
    """
    elems = sorted(sampled)
    n = len(elems)
    bits = [1 << (n - 1 - i) for i in range(n)]
    width = f"0{n}b"  # the mask's binary digits, index 0 first
    seeds = _seeds_by_lead(elems, k)
    dead = 0
    deletion_log: list[tuple[int, tuple[int, ...]]] = []
    verdicts: dict[tuple[int, ...], bool] = {}
    for lead in range(n):
        if dead & bits[lead]:
            continue
        later = [i for i in range(lead + 1, n) if not dead & bits[i]]
        candidates: set[int] = set()
        for first in [lead] + later:
            for seed in seeds[first]:
                required = seed | bits[lead]
                missing = k - required.bit_count()
                if missing < 0:
                    break  # the seeds of one lead come fewest elements first
                if seed & dead:
                    continue
                if missing == 0:
                    candidates.add(required)
                    continue
                rest = [bits[i] for i in later if not bits[i] & required]
                candidates.update(map(required.__or__, map(sum, combinations(rest, missing))))
        for mask in sorted(candidates, reverse=True):
            if mask & dead:
                continue
            points = tuple(compress(elems, map("1".__eq__, format(mask, width))))
            pattern = difference_pattern(points)
            good = verdicts.get(pattern)
            if good is None:
                good = verdicts[pattern] = points_c_good(points, c)
            if not good:
                dead |= mask & -mask
                deletion_log.append((points[-1], points))
    return [e for i, e in enumerate(elems) if not dead & bits[i]], deletion_log


def _seeds_by_lead(elems: Sequence[int], k: int) -> list[list[int]]:
    """The seeds of a sorted sequence for k-subsets, as masks (bit n - 1 - i
    for index i) listed under their least index, fewest elements first.

    A seed is a 3-term progression, or the union of two distinct 4-cores
    that fits in k elements.  Each index pair (i, j) names at most one
    progression, through the index of 2*a_j - a_i.  The 4-cores, needed only
    from k = 5, are read off one difference table: its pairs (a, b) with one
    difference are listed with a and b increasing, so two of them, (a, b)
    before (p, q), either share the middle index b = p (a progression) or
    are disjoint (a 4-core, met twice, since b - a = q - p also gives
    p - a = q - b).  Two 4-cores inside one k-subset share at least 8 - k
    indices, so they are paired only within the groups of cores that hold
    one (8 - k)-set of indices: over all pairs only from k = 8, where the
    one group is keyed by the empty set.
    """
    n = len(elems)
    bits = [1 << (n - 1 - i) for i in range(n)]
    index = {a: i for i, a in enumerate(elems)}
    found: set[int] = set()
    table: dict[int, list[tuple[int, int]]] = {}
    for j, high in enumerate(elems):
        for i in range(j):
            third = index.get(2 * high - elems[i])
            if third is not None:
                found.add(bits[i] | bits[j] | bits[third])
            if k >= 5:
                table.setdefault(high - elems[i], []).append((i, j))
    quads = {
        tuple(sorted((a, b, p, q)))
        for group in table.values()
        for (a, b), (p, q) in combinations(group, 2)
        if b != p
    }
    groups: dict[tuple[int, ...], list[int]] = {}
    for quad in quads:
        mask = sum(bits[i] for i in quad)
        for part in combinations(quad, max(8 - k, 0)):
            groups.setdefault(part, []).append(mask)
    found.update(a | b for group in groups.values() for a, b in combinations(group, 2))
    by_lead: list[list[int]] = [[] for _ in elems]
    for seed in sorted(found, key=int.bit_count):
        by_lead[n - seed.bit_length()].append(seed)
    return by_lead


def _verify_all_good(elements: Sequence[int], k: int, c: Fraction) -> None:
    """Raise InvariantError naming the first k-subset, in subset order, that
    is not c-good.

    The construction's postcondition, checked independently of the sweep
    that established it.  A subset whose C(k, 2) differences are pairwise
    distinct satisfies no difference equality, so it forms the rank-0
    configuration, which is c-good.  Every other subset holds a *core*: two
    index pairs with one difference, covering 3 indices (a progression) or
    4.  This check reads the cores off its own difference table, with index
    pairs as bit masks (bit n - 1 - i for index i), and lists each under
    its least index.  For each lead index in turn it collects the k-subsets
    with that least index that contain a core, and visits them in
    descending mask order, which is subset order; so the first bad subset
    it names is the first of all k-subsets.  Only one lead's subsets are
    held at a time, as in the sweep.  Each visited subset is classified by
    ``is_c_good`` through a difference-pattern memo of this call's own.
    Nothing of the sweep (its seeds, its rank-1 shortcut, its verdicts) is
    reused: every subset that repeats a difference is classified through
    its pattern.
    """
    elems = sorted(elements)
    n = len(elems)
    bits = [1 << (n - 1 - i) for i in range(n)]
    width = f"0{n}b"  # the mask's binary digits, index 0 first
    table: dict[int, list[int]] = {}
    for j, high in enumerate(elems):
        for i in range(j):
            table.setdefault(high - elems[i], []).append(bits[i] | bits[j])
    cores: list[set[int]] = [set() for _ in elems]
    for group in table.values():
        for a, b in combinations(group, 2):
            cores[n - (a | b).bit_length()].add(a | b)
    verdicts: dict[tuple[int, ...], bool] = {}
    for lead in range(n):
        later = bits[lead + 1 :]
        subsets: set[int] = set()
        for first in range(lead, n):
            for core in cores[first]:
                required = core | bits[lead]
                missing = k - required.bit_count()
                if missing < 0:
                    continue
                rest = [bit for bit in later if not bit & required]
                subsets.update(map(required.__or__, map(sum, combinations(rest, missing))))
        for mask in sorted(subsets, reverse=True):
            subset = tuple(compress(elems, map("1".__eq__, format(mask, width))))
            pattern = difference_pattern(subset)
            good = verdicts.get(pattern)
            if good is None:
                good = verdicts[pattern] = is_c_good(from_points(subset), c).c_good
            if not good:
                raise InvariantError(f"postcondition violated: {subset} is not {c}-good")
