#!/usr/bin/env python3
"""difflocal benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; difflocal is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with nothing patched.
``--trace 1`` makes a separate traced run and prints the per-layer metrics.
``--smoke`` swaps in tiny inputs (for the benchmark's own test).

Every metric is printed on its own line as ``metric <name> <value> <unit>``;
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md explains the workloads and what each
layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5
MIN_PASSES = 2
KERNEL_POINTS = (3, 10, 14, 27, 31, 45, 52, 68, 71, 86, 93, 104, 117, 125)
# Fastest time of reference_kernel() on the reference machine (2-core shared
# VM, Python 3.11.7); timings are rescaled to that machine's speed.
REFERENCE_KERNEL_S = 0.0102


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    parser.add_argument("--probe-setup", type=int, default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_workloads():
    """Import difflocal from this checkout's src/ and the workload module."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    import difflocal

    if Path(difflocal.__file__).resolve().parent != SRC / "difflocal":
        raise SystemExit(f"error: imported difflocal from {difflocal.__file__}, not from {SRC}")
    return workloads


# ---------------------------------------------------------------------------
# environment and set-up


def environment(seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "git_sha": sha or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "loadavg_start": read_loadavg(),
    }


def read_loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def run_setup_probe(args) -> int:
    """Child side of a set-up probe: import, build inputs, report elapsed time."""
    workloads = load_workloads()
    workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    print(json.dumps({"setup_s": (time.monotonic_ns() - args.probe_setup) / 1e9}))
    return 0


def spawn_setup_probe(args) -> float:
    """Set-up time of a fresh process: from spawn to inputs ready.

    CLOCK_MONOTONIC is system-wide, so the child can subtract the parent's
    reading taken just before the spawn.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", "0"] + (["--smoke"] if args.smoke else [])
    cmd += ["--probe-setup", str(time.monotonic_ns())]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# ---------------------------------------------------------------------------
# passes


def reference_kernel() -> int:
    """Fixed pure-Python work shaped like difflocal's inner loops (pair-sum
    grouping as in ``from_points``, difference sets as in the scan and the
    sweep), independent of the code under test."""
    total = 0
    for subset in itertools.combinations(KERNEL_POINTS, 5):
        sums: dict[int, list] = {}
        for i in range(5):
            for j in range(i, 5):
                sums.setdefault(subset[i] + subset[j], []).append((i, j))
        total += len(sums) + len({b - a for a, b in itertools.combinations(subset, 2)})
    return total


def run_pass(ops, span=None, kernel=False) -> dict:
    """Run every operation once, in order; checks run after the clock stops.

    With ``kernel``, the reference kernel is timed before each operation,
    outside the operation's own time.
    """
    latencies, results, kernels = [], [], []
    start = time.perf_counter_ns()
    for op in ops:
        if kernel:
            begin = time.perf_counter_ns()
            reference_kernel()
            kernels.append(time.perf_counter_ns() - begin)
        begin = time.perf_counter_ns()
        try:
            if span is None:
                result = (True, op.call())
            else:
                with span(f"bench.{op.label.split('(')[0]}"):
                    result = (True, op.call())
        except Exception as exc:  # an operation that raises counts as failed
            result = (False, f"{type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter_ns() - begin)
        results.append(result)
    wall_ns = time.perf_counter_ns() - start
    return {"wall_s": wall_ns / 1e9, "latencies": latencies, "results": results, "kernels": kernels}


def check_pass(workload, outcome: dict, workloads) -> dict:
    """Check each operation's output; count units and failures; digest the pass."""
    failed, units, canon = 0, 0, []
    for op, (ok, value) in zip(workload.ops, outcome["results"]):
        try:
            errors = op.check(value) if ok else [value]
        except Exception as exc:  # a check that cannot read the output fails it
            errors = [f"check raised {type(exc).__name__}: {exc}"]
        if errors:
            failed += 1
            print(f"FAILED {op.label}: {'; '.join(errors)}", file=sys.stderr)
            canon.append({"failed": op.label})
            continue
        units += op.units(value)
        canon.append(op.canonical(value))
    digest = hashlib.sha256(workloads.canonical_json(canon).encode()).hexdigest()
    return {"failed": failed, "attempted": len(workload.ops), "units": units, "digest": digest}


def run_timed(args, workload, workloads) -> tuple[list[dict], list[dict], list[float]]:
    """Repeat the pass while another one fits in ``--seconds`` (at least
    MIN_PASSES times), with a set-up probe before each of the first passes,
    so that probes and passes sample the machine at different moments."""
    passes, checks, setup = [], [], []
    start = time.monotonic()
    while True:
        if len(setup) < SETUP_PROBES:
            setup.append(spawn_setup_probe(args))
        outcome = run_pass(workload.ops, kernel=True)
        passes.append(outcome)
        checks.append(check_pass(workload, outcome, workloads))
        median_wall = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= MIN_PASSES and time.monotonic() - start + median_wall > args.seconds:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(spawn_setup_probe(args))
    return passes, checks, setup


def fastest_repeats(passes: list[dict]) -> list[float]:
    """Each operation's fastest repeat over the passes, in seconds.

    Co-tenant load on the shared reference machine slows the same operation
    by up to 2x, in bursts of seconds and in phases of minutes.  The fastest
    of the interleaved repeats removes the bursts.  A phase slows the whole
    run, so end-to-end times are also divided by the run's slowdown, the
    reference kernel's fastest time over its time on the reference machine.
    """
    return [min(column) / 1e9 for column in zip(*(p["latencies"] for p in passes))]


def verify_digests(name: str, seed: int, smoke: bool, checks: list[dict]) -> str:
    """Compare each pass's digest with the first and with the stored one."""
    digest = checks[0]["digest"]
    if any(c["digest"] != digest for c in checks):
        for c in checks:
            c["failed"] = c["attempted"]
        return f"{digest} MISMATCH: passes of one run disagree"
    stored = None if smoke else json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed))
    if stored is None:
        return f"{digest} (no stored digest for this seed)"
    if stored != digest:
        for c in checks:
            c["failed"] = c["attempted"]
        return f"{digest} MISMATCH: stored {stored}"
    return f"{digest} matches stored"


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(args, workloads, workload) -> tuple[dict, list[dict], list[str]]:
    passes, checks, setup = run_timed(args, workload, workloads)
    digest_note = verify_digests(workload.name, args.seed, args.smoke, checks)
    kernel_s = min(ns for p in passes for ns in p["kernels"]) / 1e9
    slowdown = kernel_s / REFERENCE_KERNEL_S
    fastest = fastest_repeats(passes)
    raw_wall = sum(fastest)
    raw_setup = statistics.median(setup)
    wall = raw_wall / slowdown
    metrics = {
        "setup_s": (raw_setup / slowdown, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (checks[0]["units"] / wall, "ops/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [
        f"machine: reference kernel fastest {kernel_s:.6f} s, {slowdown:.4f} x the reference machine; "
        f"as measured here wall_s {raw_wall:.6f} s, setup_s {raw_setup:.6f} s",
        f"setup_s samples {[round(s, 4) for s in setup]}",
        f"passes {len(passes)}, elapsed per pass {[round(p['wall_s'], 4) for p in passes]}",
        f"fastest repeat per operation (s) {[round(t, 4) for t in fastest]}",
        f"ops per pass {checks[0]['units']}, one op = one {workload.unit}",
        f"digest {digest_note}",
    ]
    if workload.name == "analyze":
        latencies = [ns / 1e6 for p in passes for ns in p["latencies"]]
        metrics["latency_p50_ms"] = (statistics.median(latencies), "ms")
        found = tail(latencies)
        if found is not None:
            metrics["latency_tail_ms"] = (found[1], "ms")
            notes.append(f"latency_tail_ms is p{found[0]:.1f} of {len(latencies)} samples")
    return metrics, checks, notes


# ---------------------------------------------------------------------------
# traced run


def traced(args, workloads, workload) -> tuple[dict, list[dict], list[str]]:
    """Per-layer metrics of one traced pass, next to untraced reference passes
    run before and after it (the overhead compares against their best repeats).

    ``scan`` is traced at threads=1, since pool workers are out of reach of
    wrappers installed in this process; its reference pass is the same scan
    timed once per lead, which also gives the lead balance.  A threads=2 pass
    gives the pool's busy share.
    """
    from tracer import Tracer

    notes: list[str] = []
    checks = []
    derived: dict[str, tuple[float, str]] = {}
    lead_share = pool_share = 0.0
    if workload.name == "scan":
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        pool_pass = run_pass(workload.ops)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        checks.append(check_pass(workload, pool_pass, workloads))
        busy = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        pool_share = busy / (workloads.SCAN_THREADS * pool_pass["wall_s"])
        notes.append(f"pool pass {pool_pass['wall_s']:.4f} s, worker cpu {busy:.4f} s")
        traced_workload = workloads.scan(args.seed, args.smoke, threads=1)
        try:
            reference_wall, lead_shares = workloads.scan_lead_shares(workload.inputs["grounds"])
        except Exception as exc:  # the private chunk function was refactored: report, go on
            notes.append(f"absent: per-lead timing ({type(exc).__name__}: {exc})")
            reference_wall, lead_share = run_pass(traced_workload.ops)["wall_s"], None
        else:
            lead_share = max(lead_shares)
            notes.append(f"per-lead pass {reference_wall:.4f} s, largest lead share per scan {lead_shares}")
    else:
        references = [run_pass(workload.ops)]
        traced_workload = workload

    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = run_pass(traced_workload.ops, span=tracer.span)
    finally:
        tracer.uninstall()
    checks.append(check_pass(traced_workload, traced_pass, workloads))
    if workload.name != "scan":
        references.append(run_pass(workload.ops))
        checks += [check_pass(workload, r, workloads) for r in references]
        reference_wall = sum(fastest_repeats(references))
    verify_digests(workload.name, args.seed, args.smoke, checks)

    def present(*labels: str) -> bool:
        return all(label in tracer.calls for label in labels)

    valid = tracer.calls.get("goodness.is_valid", 0)
    pcg = tracer.calls.get("goodness.points_c_good", 0)
    pcg_slow = tracer.edge_calls("goodness.points_c_good", "configuration.from_points")
    swept = tracer.edge_calls("constructions.alteration_sweep", "goodness.points_c_good")
    scanned_slow = tracer.edge_calls("harness.scan_chunk", "configuration.from_points")
    artifacts = [v[0] for ok, v in traced_pass["results"] if ok and workload.name == "construct"]
    enumerated = sum(comb(a.provenance["sampled_size"], a.provenance["parameters"]["k"]) for a in artifacts)
    deletions = sum(len(a.provenance["deletion_log"]) for a in artifacts)
    scanned = traced_workload.inputs.get("subsets", 0)
    # A derived share is omitted when a traced name it counts is absent.
    if present("goodness.points_c_good", "configuration.from_points"):
        derived["goodness.fast_path_share"] = (share(pcg - pcg_slow, pcg), "share")
    if present("goodness.is_valid"):
        derived["goodness.unique_basis_share"] = (share(len(tracer.bases), valid), "share")
    if present("constructions.alteration_sweep", "goodness.points_c_good"):
        derived["constructions.sweep_live_share"] = (share(swept, enumerated), "share")
    derived["constructions.deletions"] = (deletions, "count")
    if lead_share is not None:
        derived["harness.lead_max_share"] = (lead_share, "share")
    derived["harness.pool_busy_share"] = (pool_share, "share")
    if present("harness.scan_chunk", "configuration.from_points"):
        derived["harness.rank0_share"] = (share(scanned - scanned_slow, scanned), "share")
    derived["trace.overhead_share"] = (traced_pass["wall_s"] / reference_wall - 1, "share")
    metrics = {**tracer.layer_metrics(), **derived}

    notes += [
        f"reference pass {reference_wall:.4f} s, traced pass {traced_pass['wall_s']:.4f} s",
        f"bases: {pcg - pcg_slow} fast-path of {pcg} points_c_good calls; "
        f"{len(tracer.bases)} distinct bases of {valid} classified",
        f"sweep: {swept} checked of {enumerated} enumerated, {deletions} deletions; "
        f"scan: {scanned - scanned_slow} rank-0 of {scanned} scanned",
        f"absent: {tracer.absent or 'none'}",
        "call tree " + json.dumps(tracer.call_tree()[:40]),
    ]
    return metrics, checks, notes


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "difflocal" / "__init__.py").is_file():
        print(f"error: no difflocal sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.probe_setup is not None:
        return run_setup_probe(args)
    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(args.seed)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    run = traced if args.trace else end_to_end
    metrics, checks, notes = run(args, workloads, workload)
    env["loadavg_end"] = read_loadavg()

    failed = sum(c["failed"] for c in checks)
    attempted = sum(c["attempted"] for c in checks)
    print("env " + json.dumps(env))
    print(f"workload {workload.name} inputs " + workloads.canonical_json(workload.inputs))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")
    print(f"metric failed_share {failed / attempted} share ({failed} of {attempted} operations)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if not name.startswith("latency_")
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
