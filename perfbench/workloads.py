"""The benchmark's workloads: seeded inputs, the operations of one pass, and
the checks each operation's output must pass.

Every workload is a closed loop from a single caller: a pass runs its
operations one after another, each waiting for the previous result.  The
operations call difflocal's public API (and, for ``analyze``, the CLI entry
point in-process).  Functions are looked up on their modules at call time,
so the tracer's wrappers are the ones called when tracing is on.

Each check takes a route that is cheaper than, and separate from, the timed
call: closed-form bounds, naive recounts of differences, a report
round-trip.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from typing import Any, Callable

import difflocal
from difflocal import cli, constructions, harness, reportfmt

C_BUILD = "19/10"


@dataclass
class Op:
    """One operation: the timed call, the work units it counts, its checks."""

    label: str
    call: Callable[[], Any]
    units: Callable[[Any], int]
    check: Callable[[Any], list[str]]
    canonical: Callable[[Any], Any]


@dataclass
class Workload:
    name: str
    unit: str
    ops: list[Op]
    inputs: dict = field(default_factory=dict)  # printed description of the inputs


def certified_bound(k: int) -> int:
    """The paper's bound (k^2-2k)/4 for even k, (k-1)(k-3)/4 + 3 for odd k."""
    return (k * k - 2 * k) // 4 if k % 2 == 0 else (k - 1) * (k - 3) // 4 + 3


def distinct_differences(points) -> int:
    return len({abs(a - b) for a, b in itertools.combinations(points, 2)})


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def canonical_json(value) -> str:
    return json.dumps(_jsonable(value), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# scan


SCAN_THREADS = 2  # = nproc on the 2-core reference machine, and the CLI default there


def scan(seed: int, smoke: bool, threads: int = SCAN_THREADS) -> Workload:
    grounds = [(12, 4)] if smoke else [(36, 4), (15, 6)]

    def op(ground_n: int, k: int) -> Op:
        total = comb(ground_n, k)

        def check(report) -> list[str]:
            errors = []
            if report.max_certified != certified_bound(k):
                errors.append(f"max_certified {report.max_certified} != bound {certified_bound(k)}")
            if report.non_star_attainers:
                errors.append(f"{report.non_star_attainers} non-star attainers")
            if report.cross_check_failures:
                errors.append(f"{report.cross_check_failures} cross-check failures")
            if report.c2_divergences:
                errors.append(f"{report.c2_divergences} divergences between c and 2")
            good = sum(report.histogram.values())
            if report.subsets_scanned != total or good != report.good_count or good + report.bad_count != total:
                errors.append(
                    f"histogram {good} + bad {report.bad_count} != C({ground_n},{k}) = {total}"
                )
            return errors

        return Op(
            label=f"scan_ground({ground_n},{k})",
            call=lambda: difflocal.scan_ground(ground_n, k, "paper", threads=threads),
            units=lambda _report: total,
            check=check,
            canonical=lambda report: report.to_report(),
        )

    return Workload(
        name="scan",
        unit="subset classified",
        ops=[op(n, k) for n, k in grounds],
        inputs={
            "grounds": grounds,
            "c": "paper",
            "threads": threads,
            "subsets": sum(comb(n, k) for n, k in grounds),
            "seed_used": False,
        },
    )


def scan_lead_shares(grounds) -> tuple[float, list[float]]:
    """Time the scan once per lead, serially: (total seconds, largest lead's
    share of its scan's total, per scan)."""
    c = harness.parse_c("paper")
    total, shares = 0.0, []
    for ground_n, k in grounds:
        times = []
        for lead in range(1, ground_n - k + 2):
            start = time.perf_counter_ns()
            harness._scan_chunk((ground_n, k, c, (lead,)))
            times.append((time.perf_counter_ns() - start) / 1e9)
        total += sum(times)
        shares.append(max(times) / sum(times))
    return total, shares


# ---------------------------------------------------------------------------
# construct


def integer_root_floor(x: int, q: int) -> int:
    """Largest r with r**q <= x, by bisection (independent of the library's iroot)."""
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


def sample_size(n: int, kappa: int, seed: int) -> int:
    """Size of the first sample ``random_local_set`` draws for this seed.

    Mirrors its sampling: each ground element kept with probability
    rho = 2n / |ground| (all kept when rho >= 1).  Seeded artifacts must stay
    byte-identical across versions, so this sampling is fixed behaviour.
    """
    c = Fraction(C_BUILD)
    ground = constructions.digit_ground_set(constructions.power_floor(n, c), kappa)
    rho = Fraction(2 * n, len(ground))
    if rho >= 1:
        return len(ground)
    rng = random.Random(seed)
    threshold = float(rho)
    return sum(1 for _ in ground if rng.random() < threshold)


def size_controlled_seeds(n: int, kappa: int, seed: int, count: int) -> tuple[list[int], int]:
    """``count`` seeds, drawn from a stream fixed by ``seed``, whose sample has
    the expected size min(2n, |ground|).

    The sweep visits C(sample size, 4) subsets, so an unconstrained sample
    (size sd about 2.6 at n=20) would change a build's work by about a
    quarter between seeds; fixing the size leaves the inputs seeded but the
    work comparable.
    """
    c = Fraction(C_BUILD)
    target = min(2 * n, len(constructions.digit_ground_set(constructions.power_floor(n, c), kappa)))
    rng = random.Random(seed)
    chosen: list[int] = []
    while len(chosen) < count:
        candidate = rng.getrandbits(32)
        if sample_size(n, kappa, candidate) == target:
            chosen.append(candidate)
    return chosen, target


def construct(seed: int, smoke: bool) -> Workload:
    n, k, kappa = (8 if smoke else 20), 4, 2
    count = 1 if smoke else 8
    limit = integer_root_floor(n**19, 10)  # floor(n^(19/10))
    seeds, target = size_controlled_seeds(n, kappa, seed, count)

    def op(sub_seed: int) -> Op:
        def call():
            artifact = difflocal.random_local_set(n, k, C_BUILD, kappa=kappa, seed=sub_seed)
            verdict = difflocal.check_local_property(artifact.elements, 4, 4)
            return artifact, verdict

        def check(result) -> list[str]:
            artifact, verdict = result
            elems = artifact.elements
            errors = []
            if len(elems) != n:
                errors.append(f"{len(elems)} elements, want {n}")
            if not all(1 <= e <= limit for e in elems) or any(b <= a for a, b in zip(elems, elems[1:])):
                errors.append(f"elements not strictly increasing inside [1, {limit}]")
            if not verdict.holds:
                errors.append(f"check_local_property(4, 4) fails at {verdict.witness_subset}")
            for subset in itertools.combinations(elems, 4):
                if distinct_differences(subset) < 4:
                    errors.append(f"recount: {subset} spans fewer than 4 differences")
                    break
            return errors

        def units(result) -> int:
            return comb(result[0].provenance["sampled_size"], k) + comb(n, k)

        def canonical(result):
            artifact, verdict = result
            prov = artifact.provenance
            return {
                "seed": sub_seed,
                "elements": artifact.elements,
                "attempt": prov["attempt"],
                "sampled_size": prov["sampled_size"],
                "deleted": [entry["deleted"] for entry in prov["deletion_log"]],
                "min_differences": verdict.min_differences,
            }

        return Op(f"random_local_set(seed={sub_seed})", call, units, check, canonical)

    return Workload(
        name="construct",
        unit="subset swept",
        ops=[op(s) for s in seeds],
        inputs={"n": n, "k": k, "c": C_BUILD, "kappa": kappa, "sample_size": target, "seeds": seeds},
    )


# ---------------------------------------------------------------------------
# lemma


def lemma(seed: int, smoke: bool) -> Workload:
    """Fixed suites: the seed is unused.

    One lemma instance costs anywhere from a millisecond to a second (the
    per-instance coefficient of variation is about 1.8), so the instances
    that fit in a run of a few seconds would differ in total cost by about
    20% from seed to seed.  Running the same suites every time keeps the
    work equal; the suites themselves are seeded by their index.
    """
    count = 8 if smoke else 16
    suite_seeds = [0] if smoke else list(range(8))

    def op(suite_seed: int) -> Op:
        def check(result) -> list[str]:
            errors = []
            if result["failures"]:
                errors.append(f"{result['failures']} failures: {result['counterexamples'][:3]}")
            if result["instances"] != count:
                errors.append(f"{result['instances']} instances, want {count}")
            return errors

        return Op(
            label=f"lemma_property_suite(seed={suite_seed}, instance_count={count})",
            call=lambda: difflocal.lemma_property_suite(seed=suite_seed, instance_count=count),
            units=lambda _result: count,
            check=check,
            canonical=lambda result: result,
        )

    return Workload(
        name="lemma",
        unit="lemma instance",
        ops=[op(s) for s in suite_seeds],
        inputs={"suite_seeds": suite_seeds, "instance_count": count, "seed_used": False},
    )


# ---------------------------------------------------------------------------
# analyze


def realized_star(rng: random.Random, p: int) -> list[int]:
    """2p points centre +- d_j with seeded offsets, of configuration rank p-1
    (a tuple with stray coincidences raises the rank and is drawn again)."""
    centre = 4 * 10**6
    while True:
        offsets = rng.sample(range(1, 10**6), p)
        points = [x for d in offsets for x in (centre + d, centre - d)]
        if difflocal.from_points(points).rank == p - 1:
            return points


def analyze(seed: int, smoke: bool) -> Workload:
    rng = random.Random(seed)
    cases: list[tuple[str, list[int], dict]] = []
    for p in (4,) if smoke else (5, 6, 7, 8):
        cases.append((f"star{2 * p}", realized_star(rng, p), {"certified": p * p - p, "star": 2 * p}))
    for k in () if smoke else (9, 11, 13):
        row = difflocal.odd_equality_case(k, seed=rng.getrandbits(32))
        cases.append((f"odd{k}", row["points"], {"certified": certified_bound(k)}))

    def op(kind: str, points: list[int], expect: dict) -> Op:
        argv = ["analyze", "--points", ",".join(map(str, points)), "--c", "2"]
        k = len(points)

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            return code, out.getvalue()

        def check(result) -> list[str]:
            code, text = result
            if code != 0:
                return [f"exit code {code}"]
            errors = []
            if "\ncross_check: ok\n" not in text:
                errors.append("cross_check is not ok")
            report = reportfmt.parse(text)
            if reportfmt.emit(report) != text:
                errors.append("report does not round-trip through reportfmt.parse")
            distinct = distinct_differences(points)
            if report["distinct_differences"] != distinct:
                errors.append(f"distinct_differences {report['distinct_differences']} != recount {distinct}")
            if report["certified_count"] != expect["certified"] or report["certified_count"] != comb(k, 2) - distinct:
                errors.append(f"certified_count {report['certified_count']} != {expect['certified']}")
            if report["goodness"]["c_good"] is not True:
                errors.append("configuration is not 2-good")
            if "star" in expect and report["largest_star"]["size"] != expect["star"]:
                errors.append(f"largest star {report['largest_star']['size']} != {expect['star']}")
            return errors

        return Op(f"analyze {kind}", call, lambda _result: 1, check, lambda result: result[1])

    return Workload(
        name="analyze",
        unit="analyze call",
        ops=[op(*case) for case in cases],
        inputs={"tuples": [kind for kind, _, _ in cases], "c": "2"},
    )


WORKLOADS: dict[str, Callable[[int, bool], Workload]] = {
    "scan": scan,
    "construct": construct,
    "lemma": lemma,
    "analyze": analyze,
}
