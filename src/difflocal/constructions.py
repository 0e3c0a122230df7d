"""Set constructions: sphere-slice digit sets and the randomized local-good set.

``behrend_set`` maps a maximal sphere slice of the integer box [1..m]^d into Z
through the base-(16*kappa*m) digit map phi(v) = sum v_{i+1} * base^i.  Digits
stay below base/2 after any signed combination with coefficients bounded by
kappa, so a relation alpha*s1 + beta*s2 + gamma*s3 = 0 (nonzero coefficients
of magnitude <= kappa summing to zero) would force the three preimages to be
collinear on a sphere, which is impossible; the image therefore avoids all
such triples.

``random_local_set`` samples a rho-random subset of a progression-free ground
set inside [1..floor(n^c)] and then deletes one element from every k-subset
whose configuration fails to be c-good, until exactly n elements remain whose
k-subsets are all c-good.  Because deleting elements never creates new bad
subsets, a single deterministic sweep in subset order suffices; the result is
re-verified exhaustively before it is returned.

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
from math import comb
from typing import Sequence

from .goodness import parse_c, points_c_good
from .verifier import BudgetExceededError, default_budget

DEFAULT_MAX_ENUMERATION = 10**8


class ConstructionError(Exception):
    """Degenerate or infeasible construction parameters."""


class RetriesExhaustedError(ConstructionError):
    """No sampling attempt survived the alteration with n elements."""


@dataclass(frozen=True)
class BehrendParams:
    """Sphere-slice parameters; ``r`` maximizes the slice size, ties to smallest."""

    d: int
    m: int
    kappa: int
    r: int
    slice_size: int

    @property
    def base(self) -> int:
        return 16 * self.kappa * self.m

    @classmethod
    def choose(cls, d: int, m: int, kappa: int) -> "BehrendParams":
        if d < 2:
            raise ConstructionError(f"dimension d must be at least 2, got {d}")
        if m < 1:
            raise ConstructionError(f"digit bound m must be at least 1, got {m}")
        if kappa < 1:
            raise ConstructionError(f"coefficient bound kappa must be at least 1, got {kappa}")
        counts = _norm_histograms(d, m)[d]
        best_r, best_count = 0, 0
        for r, count in enumerate(counts):
            if count > best_count:
                best_r, best_count = r, count
        return cls(d=d, m=m, kappa=kappa, r=best_r, slice_size=best_count)


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


def behrend_set(
    params: BehrendParams | None = None,
    *,
    d: int | None = None,
    m: int | None = None,
    kappa: int | None = None,
    max_enumeration: int = DEFAULT_MAX_ENUMERATION,
    sample: int | None = None,
    sample_seed: int = 0,
) -> SetArtifact:
    """Image of the best sphere slice under the digit map.

    In exhaustive mode (``m**d <= max_enumeration``) the output size equals
    the slice size exactly.  For larger boxes a sampling mode must be selected
    explicitly via ``sample``: that many vectors are drawn with a seeded
    generator and only sampled slice members are emitted (the maximal-slice-r
    choice is still exact; the size guarantee is not).
    """
    if params is None:
        if d is None or m is None or kappa is None:
            raise ConstructionError("specify either params or all of d, m, kappa")
        params = BehrendParams.choose(d, m, kappa)
    d_, m_, kappa_ = params.d, params.m, params.kappa
    if params.slice_size == 0:
        raise ConstructionError("empty sphere slice (m = 0?)")
    base = params.base
    exhaustive = m_**d_ <= max_enumeration
    if not exhaustive and sample is None:
        raise ConstructionError(
            f"m^d = {m_**d_} exceeds max_enumeration={max_enumeration}; pass sample= to subsample"
        )
    hists = _norm_histograms(d_, m_)
    if exhaustive:
        vectors = _sphere_slice(d_, m_, params.r, hists)
    else:
        rng = random.Random(sample_seed)
        picked = set()
        for _ in range(sample):  # type: ignore[arg-type]
            v = tuple(rng.randint(1, m_) for _ in range(d_))
            if sum(x * x for x in v) == params.r:
                picked.add(v)
        vectors = sorted(picked)
    elements = sorted(_digit_map(v, base) for v in vectors)
    provenance = {
        "construction": "behrend",
        "parameters": {
            "d": d_,
            "m": m_,
            "kappa": kappa_,
            "base": base,
            "r": params.r,
            "slice_size": params.slice_size,
            "mode": "exhaustive" if exhaustive else f"sample:{sample}:{sample_seed}",
        },
    }
    return SetArtifact(tuple(elements), provenance)


def _digit_map(vec: Sequence[int], base: int) -> int:
    value = 0
    for digit in reversed(vec):
        value = value * base + digit
    return value


def behrend_auto(n: int, kappa: int, *, max_enumeration: int = DEFAULT_MAX_ENUMERATION) -> SetArtifact:
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
    artifact = behrend_set(d=d, m=m, kappa=kappa, max_enumeration=max_enumeration)
    assert artifact.elements[-1] <= n, "digit map overflowed the target interval"
    provenance = dict(artifact.provenance)
    provenance["parameters"] = dict(provenance["parameters"], n=n, auto=True)
    return SetArtifact(artifact.elements, provenance)


def digit_ground_set(limit: int, kappa: int) -> list[int]:
    """Integers in [1, limit] whose base-(kappa+1) digits (after -1 shift) are 0/1.

    Avoids every relation alpha*s1 + beta*s2 + gamma*s3 = 0 with distinct
    s_i and nonzero integer coefficients of magnitude <= kappa summing to 0.
    """
    if limit < 1:
        raise ConstructionError(f"limit must be positive, got {limit}")
    if kappa < 1:
        raise ConstructionError(f"kappa must be at least 1, got {kappa}")
    base = kappa + 1
    values = [0]
    power = 1
    while power <= limit - 1:
        values += [v + power for v in values if v + power <= limit - 1]
        power *= base
    return sorted(v + 1 for v in values)


def iroot(x: int, q: int) -> int:
    """floor(x ** (1/q)) by integer Newton iteration (no float anywhere)."""
    if x < 0 or q < 1:
        raise ValueError("iroot requires x >= 0 and q >= 1")
    if q == 1 or x in (0, 1):
        return x
    r = 1 << -(-x.bit_length() // q)  # 2^ceil(bits/q) >= x^(1/q)
    while True:
        t = ((q - 1) * r + x // r ** (q - 1)) // q
        if t >= r:
            break
        r = t
    while r**q > x:
        r -= 1
    while (r + 1) ** q <= x:
        r += 1
    return r


def power_floor(n: int, c: Fraction) -> int:
    """floor(n ** c) for a positive integer n and rational c."""
    c = Fraction(c)
    return iroot(n ** c.numerator, c.denominator)


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
    a full re-scan before returning.  Raises BudgetExceededError when an
    attempt's sweep would scan more than ``default_budget()`` subsets.
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
    ground = digit_ground_set(limit, kappa)
    if len(ground) < n:
        raise ConstructionError(
            f"ground set inside [1, {limit}] has only {len(ground)} elements, need {n}"
        )
    rho = Fraction(2 * n, len(ground))
    budget = default_budget()
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
            "ground_size": len(ground),
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
    """One pass over k-subsets in subset order, deleting the largest element of
    each c-bad subset met.  Deleting elements never creates bad subsets, so
    every subset that survives the pass was inspected and found good.
    """
    elems = sorted(sampled)
    n = len(elems)
    alive = [True] * n
    deletion_log: list[tuple[int, tuple[int, ...]]] = []
    from itertools import combinations

    for idx in combinations(range(n), k):
        if not all(alive[i] for i in idx):
            continue
        points = tuple(elems[i] for i in idx)
        if not points_c_good(points, c):
            alive[idx[-1]] = False
            deletion_log.append((elems[idx[-1]], points))
    return [e for e, a in zip(elems, alive) if a], deletion_log


def _verify_all_good(elements: Sequence[int], k: int, c: Fraction) -> None:
    from itertools import combinations

    for subset in combinations(elements, k):
        if not points_c_good(subset, c):
            raise AssertionError(f"postcondition violated: {subset} is not {c}-good")
