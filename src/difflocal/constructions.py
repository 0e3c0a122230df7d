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
only visit the subsets that can be bad: those containing a *core* (a 3-term
progression or two disjoint pairs with one difference), the only way a
subset repeats a difference.  The cores are read off one difference table
of the sample; for each lead element in turn the sweep collects the
k-subsets it leads that contain a core of live elements and visits them in
subset order, classifying each difference pattern once.  The result is
re-verified exhaustively, over every k-subset, before it is returned.

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
from itertools import combinations
from math import comb
from typing import Sequence

from .configuration import difference_pattern
from .goodness import parse_c, points_c_good
from .verifier import BudgetExceededError, default_budget

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

    def __len__(self) -> int:
        return len(self.elements)


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
                for q in squares:
                    if s + q > top:
                        break
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
            "mode": "exhaustive",
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
    _check_ground_args(limit, kappa)
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


def _check_ground_args(limit: int, kappa: int) -> None:
    if limit < 1:
        raise ConstructionError(f"limit must be positive, got {limit}")
    if kappa < 1:
        raise ConstructionError(f"kappa must be at least 1, got {kappa}")


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
    loses its largest element.  Survivors beyond n are trimmed from the top
    (keeping small elements dense).  The postcondition is machine-checked by
    a full re-scan before returning (InvariantError if it fails).  Raises
    BudgetExceededError, before the ground set is built, when the ground set
    or C(n, k) exceeds ``default_budget()`` (every sample has at least n
    elements), and when an attempt's sweep would scan more than that many
    subsets.
    """
    try:
        c = parse_c(c)
    except ValueError as exc:
        raise ConstructionError(str(exc)) from exc
    if k < 4:
        raise ConstructionError(f"k must be at least 4, got {k}")
    if n < k:
        raise ConstructionError(f"n must be at least k={k}, got {n}")
    if kappa < 1:
        raise ConstructionError(f"kappa must be at least 1, got {kappa}")
    if max_retries < 0:
        raise ConstructionError(f"max_retries must be nonnegative, got {max_retries}")
    limit = power_floor(n, c)
    ground_size = digit_ground_count(limit, kappa)
    if ground_size < n:
        raise ConstructionError(
            f"ground set inside [1, {limit}] has only {ground_size} elements, need {n}"
        )
    budget = default_budget()
    if ground_size > budget:
        raise BudgetExceededError(
            f"ground set inside [1, {limit}] has {ground_size} elements, over budget {budget}"
        )
    if comb(n, k) > budget:
        raise BudgetExceededError(
            f"every alteration sweep would scan at least C({n},{k}) subsets, over budget {budget}"
        )
    ground = digit_ground_set(limit, kappa)
    rho = Fraction(2 * n, ground_size)
    failures = []
    for attempt in range(max_retries + 1):
        seed_used = seed + attempt
        if rho >= 1:
            sampled = list(ground)
        else:
            rng = random.Random(seed_used)
            threshold = float(rho)
            sampled = [g for g in ground if rng.random() < threshold]
        if len(sampled) < n:
            failures.append((attempt, len(sampled), 0))
            continue
        if comb(len(sampled), k) > budget:
            raise BudgetExceededError(
                f"alteration sweep would scan C({len(sampled)},{k}) subsets, over budget {budget}"
            )
        survivors, deletion_log = _alteration_sweep(sampled, k, c)
        if len(survivors) < n:
            failures.append((attempt, len(sampled), len(deletion_log)))
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
    raise RetriesExhaustedError(
        f"no attempt reached {n} survivors after {max_retries + 1} tries; attempts (id, sampled, deleted): {failures}"
    )


def _alteration_sweep(
    sampled: Sequence[int], k: int, c: Fraction
) -> tuple[list[int], list[tuple[int, tuple[int, ...]]]]:
    """Delete the largest element of each c-bad k-subset met in subset order.

    Equivalent to a pass over every k-subset of the sorted sample in
    lexicographic index order that skips subsets with a deleted element and
    deletes the largest element of each c-bad one: deleting elements never
    creates bad subsets, so every subset that survives such a pass was
    inspected and found good.  Only subsets that contain a core can be bad
    (a subset without one has pairwise distinct differences, forms the
    rank-0 configuration and is c-good), so this pass visits just those.
    For each live lead index in increasing order it collects the k-subsets
    with that least index that contain a core of live elements, and visits
    them in lexicographic order under the same liveness test.  Every
    subset the full pass would find bad is among them (a deletion only ever
    kills an element above the current lead), so the deletions and their
    order are the same.

    A subset's verdict depends only on its difference pattern
    (``configuration.difference_pattern``), which fixes its configuration.
    Each new pattern is classified once through ``points_c_good``.
    """
    elems = sorted(sampled)
    n = len(elems)
    dead: set[int] = set()
    deletion_log: list[tuple[int, tuple[int, ...]]] = []
    cores = _cores_by_lead(elems)
    verdicts: dict[tuple[int, ...], bool] = {}
    for lead in range(n):
        if lead in dead:
            continue
        later = [i for i in range(lead + 1, n) if i not in dead]
        candidates: set[tuple[int, ...]] = set()
        for first in [lead] + later:
            for core in cores[first]:
                required = core if first == lead else (lead,) + core
                if len(required) > k or not dead.isdisjoint(core):
                    continue
                rest = [i for i in later if i not in required]
                for extra in combinations(rest, k - len(required)):
                    candidates.add(tuple(sorted(required + extra)))
        for idx in sorted(candidates):
            if not dead.isdisjoint(idx):
                continue
            points = tuple(elems[i] for i in idx)
            pattern = difference_pattern(points)
            good = verdicts.get(pattern)
            if good is None:
                good = verdicts[pattern] = points_c_good(points, c)
            if not good:
                dead.add(idx[-1])
                deletion_log.append((elems[idx[-1]], points))
    return [e for i, e in enumerate(elems) if i not in dead], deletion_log


def _cores_by_lead(elems: Sequence[int]) -> list[list[tuple[int, ...]]]:
    """The cores of a sorted sequence, as index tuples listed under their least index.

    A core is a 3-term progression or a 4-set {a<b, c<d} with b - a = d - c;
    a subset repeats a difference iff it contains one.  Both are read off
    one difference table.  Its pairs (a, b) with one difference are listed
    with a and b increasing, so two of them, (a, b) before (p, q), either
    share the middle index b = p (a progression) or are disjoint; a 4-set
    b - a = q - p also has p - a = q - b and is met twice.
    """
    table: dict[int, list[tuple[int, int]]] = {}
    for j, high in enumerate(elems):
        for i in range(j):
            table.setdefault(high - elems[i], []).append((i, j))
    found: set[tuple[int, ...]] = set()
    for group in table.values():
        for (a, b), (p, q) in combinations(group, 2):
            found.add((a, b, q) if b == p else tuple(sorted((a, b, p, q))))
    by_lead: list[list[tuple[int, ...]]] = [[] for _ in elems]
    for core in found:
        by_lead[core[0]].append(core)
    return by_lead


def _verify_all_good(elements: Sequence[int], k: int, c: Fraction) -> None:
    for subset in combinations(elements, k):
        if not points_c_good(subset, c):
            raise InvariantError(f"postcondition violated: {subset} is not {c}-good")
