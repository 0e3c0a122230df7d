"""Per-layer tracing of difflocal, installed from outside the library.

The tracer replaces each function named in ``TRACED`` with a wrapper that
records calls and self time, then restores the originals.  A function is
replaced everywhere it is bound by name: in its home module, and in every
other difflocal module (and the package itself) that imported the same
object with ``from ... import``.  ``exactlin`` is called through the module
attribute, so one patch per function covers it.

Spans are aggregated in memory per (caller, callee) edge instead of being
kept one by one: the scan alone makes millions of traced calls, and a list
of that many span records would cost hundreds of megabytes and distort the
timings it measures.  Self time is a span's duration minus the time spent
in traced callees, so it excludes the callees' wrapper overhead too.

A traced name that no longer exists (a later change may merge or delete a
kernel) is listed as absent and its metrics are omitted; tracing never
fails on it.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# metric label -> (home module, attribute path inside it)
TRACED = (
    ("exactlin.residue", "difflocal.exactlin", "residue"),
    ("exactlin.section_dim", "difflocal.exactlin", "section_dim"),
    ("exactlin.rank_of_columns", "difflocal.exactlin", "rank_of_columns"),
    ("exactlin.reduce", "difflocal.exactlin", "reduce"),
    ("exactlin.member", "difflocal.exactlin", "member"),
    ("configuration.from_points", "difflocal.configuration", "from_points"),
    ("configuration.certified_pairs", "difflocal.configuration", "KConfiguration.certified_pairs"),
    ("configuration.distinct_difference_count", "difflocal.configuration", "distinct_difference_count"),
    ("goodness.is_valid", "difflocal.goodness", "is_valid"),
    ("goodness.is_collinearity_free", "difflocal.goodness", "is_collinearity_free"),
    ("goodness.heaviness_sweep", "difflocal.goodness", "_heaviness_sweep"),
    ("goodness.largest_star", "difflocal.goodness", "largest_star"),
    ("goodness.is_c_good", "difflocal.goodness", "is_c_good"),
    ("goodness.points_c_good", "difflocal.goodness", "points_c_good"),
    ("implications.minimal_implications", "difflocal.implications", "minimal_implications"),
    ("implications.check_structure", "difflocal.implications", "check_structure"),
    ("implications.solve_coefficients", "difflocal.implications", "_solve_coefficients"),
    ("implications.candidate_products", "difflocal.implications", "_candidate_products"),
    ("constructions.alteration_sweep", "difflocal.constructions", "_alteration_sweep"),
    ("constructions.verify_all_good", "difflocal.constructions", "_verify_all_good"),
    ("verifier.check_local_property", "difflocal.verifier", "check_local_property"),
    ("harness.scan_chunk", "difflocal.harness", "_scan_chunk"),
    ("reportfmt.emit", "difflocal.reportfmt", "emit"),
    ("cli.cmd_analyze", "difflocal.cli", "cmd_analyze"),
)

BENCH_CALLER = "bench"  # caller label of spans opened by the benchmark itself


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) for a dotted path, or None if any part is missing."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    original = getattr(owner, parts[-1], None)
    if original is None:
        return None
    return owner, parts[-1], original


class Tracer:
    """Counts calls and self time per traced function while installed."""

    def __init__(self, traced=TRACED) -> None:
        self.traced = traced
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.edges: dict[tuple[str, str], list[int]] = {}  # (caller, callee) -> [calls, ns]
        self.absent: list[str] = []
        self.bases: set = set()  # distinct basis rows seen by goodness.is_valid
        self._stack: list[list] = []  # open spans: [label, ns spent in traced callees]
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "difflocal" or name.startswith("difflocal.")]
        for label, module_name, path in self.traced:
            found = _resolve(module_name, path)
            if found is None:
                self.absent.append(label)
                continue
            owner, attr, original = found
            self.calls[label] = 0
            self.self_ns[label] = 0
            wrapper = self._wrap(label, original)
            self._patch(owner, attr, wrapper)
            if "." in path:
                continue  # a method: the class attribute is the only binding
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def span(self, label: str):
        """Context manager for a span opened by the benchmark around one operation."""
        return _Span(self, label)

    def _enter(self, label: str) -> list:
        frame = [label, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, elapsed: int) -> None:
        stack = self._stack
        stack.pop()
        label = frame[0]
        caller = stack[-1] if stack else None
        if caller is not None:
            caller[1] += elapsed
        if label in self.calls:
            self.calls[label] += 1
            self.self_ns[label] += elapsed - frame[1]
        edge = self.edges.setdefault((caller[0] if caller else "", label), [0, 0])
        edge[0] += 1
        edge[1] += elapsed

    def _wrap(self, label: str, fn):
        enter, leave = self._enter, self._exit
        record_basis = label == "goodness.is_valid"
        bases = self.bases

        def traced(*args, **kwargs):
            if record_basis:
                bases.add(args[0].basis.rows)
            frame = enter(label)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame, perf_counter_ns() - start)

        traced.__wrapped__ = fn
        return traced

    def edge_calls(self, caller: str, callee: str) -> int:
        return self.edges.get((caller, callee), (0, 0))[0]

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """``<label>.calls`` and ``<label>.self_s`` for every traced name present."""
        out: dict[str, tuple[float, str]] = {}
        for label, _, _ in self.traced:
            if label in self.calls:
                out[f"{label}.calls"] = (self.calls[label], "count")
                out[f"{label}.self_s"] = (self.self_ns[label] / 1e9, "s")
        return out

    def call_tree(self) -> list[dict]:
        """Aggregated spans, one row per (caller, callee) edge, heaviest first."""
        rows = [
            {"caller": caller or BENCH_CALLER, "callee": callee, "calls": n, "total_s": ns / 1e9}
            for (caller, callee), (n, ns) in self.edges.items()
        ]
        rows.sort(key=lambda row: -row["total_s"])
        return rows


class _Span:
    def __init__(self, tracer: Tracer, label: str) -> None:
        self.tracer = tracer
        self.label = label

    def __enter__(self):
        self.frame = self.tracer._enter(self.label)
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.frame, perf_counter_ns() - self.start)
