"""Command-line driver: build, analyze, verify, scan.

Set files are UTF-8 text, one decimal integer per line, '#' starting a
comment; readers warn and sort by default and reject non-increasing input
under --strict.  Every file-producing command writes a sibling
``<out>.manifest`` recording the command, parameters, seed, tool version,
and the sha256 digest of the output (``inputs`` is always empty: no
command records the files it reads); rerunning the same command reproduces
byte-identical outputs.  Both files are rendered before either is written,
so a path that no report can name exits 2 and leaves neither; an output
whose manifest cannot be written is removed again.

Exit codes: 0 success / property holds, 1 property fails (or construction
retries exhausted), 2 usage or parameter validation (including a file that
cannot be read or written), 3 budget exceeded, 4 internal invariant
violation (a cross-check mismatch anywhere, or a constructed set failing
its own postcondition).  Errors print one ``error: ...`` line on stderr,
never a traceback.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from math import comb
from pathlib import Path

from . import __version__, reportfmt
from .configuration import distinct_difference_count, from_points, render_content
from .constructions import (
    ConstructionError,
    InvariantError,
    RetriesExhaustedError,
    behrend_auto,
    behrend_set,
    random_local_set,
)
from .goodness import is_c_good, largest_star, parse_c
from .scan import scan_ground
from .verifier import BudgetExceededError, check_local_property, resolve_budget

EXIT_OK = 0
EXIT_PROPERTY_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INVARIANT = 4


class CliError(Exception):
    """A usage or parameter error found by the driver itself."""


# the first matching type gives the exit code: a subclass precedes its base
EXIT_CODES = (
    (CliError, EXIT_USAGE),
    (BudgetExceededError, EXIT_BUDGET),
    (InvariantError, EXIT_INVARIANT),
    (RetriesExhaustedError, EXIT_PROPERTY_FAIL),
    (ConstructionError, EXIT_USAGE),
    (ValueError, EXIT_USAGE),
    (OSError, EXIT_USAGE),
)


def read_set_file(path: str | Path, strict: bool = False) -> list[int]:
    values = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values.append(int(line))
        except ValueError:
            raise CliError(f"{path}:{lineno}: not an integer: {line!r}")
    if not values:
        raise CliError(f"{path}: empty set file")
    increasing = all(b > a for a, b in zip(values, values[1:]))
    if not increasing:
        if strict:
            raise CliError(f"{path}: elements not strictly increasing (strict mode)")
        print(f"warning: {path}: elements not strictly increasing; sorting", file=sys.stderr)
        values = sorted(set(values))
    return values


def _path_field(path: str | Path) -> str:
    """``str(path)`` as a report field: ``./``-prefixed when the report would
    otherwise read it back as another scalar (``123``, ``true``, ``1/2``).
    CliError when neither form can be named (surrounding blanks, a newline)."""
    text = str(path)
    for field in (text, f"./{text}"):
        try:
            reportfmt.emit([field])
        except ValueError:
            continue
        return field
    raise CliError(f"a report cannot name the path {text!r}")


def write_output(out: str, text: str, command: str, params: dict, seed=None) -> None:
    """Write ``text`` to ``out`` and, after it, the sibling ``<out>.manifest``
    holding the sha256 of the bytes written.  Both are rendered and encoded
    before either file is opened, and the output is removed again when the
    manifest cannot be written."""
    if not out:
        raise CliError("--out needs a file name, got ''")
    path = Path(out)
    data = text.encode()
    manifest = reportfmt.emit(
        {
            "manifest": command,
            "version": __version__,
            "parameters": {key: params[key] for key in sorted(params)},
            "seed": "none" if seed is None else seed,
            "inputs": [],
            "outputs": [{"path": _path_field(path), "sha256": hashlib.sha256(data).hexdigest()}],
        }
    ).encode()
    manifest_path = path.with_name(path.name + ".manifest")
    path.write_bytes(data)
    try:
        manifest_path.write_bytes(manifest)
    except BaseException:
        path.unlink()
        raise


def _parse_points(args) -> list[int]:
    if args.points is None:
        return read_set_file(args.points_file, strict=args.strict)
    points = []
    for item in args.points.split(","):
        item = item.strip()
        try:
            points.append(int(item))
        except ValueError:
            raise CliError(f"--points: not an integer: {item!r}")
    return points


def cmd_build(args) -> int:
    if args.subcommand == "behrend":
        params: dict = {"kappa": args.kappa}
        if args.n is not None:
            if args.d is not None or args.m is not None:
                raise CliError("--n (auto mode) excludes --d/--m")
            artifact = behrend_auto(args.n, args.kappa)
            params["n"] = args.n
            params["mode"] = "auto"
        else:
            if args.d is None or args.m is None:
                raise CliError("explicit mode needs both --d and --m (or use --n)")
            artifact = behrend_set(d=args.d, m=args.m, kappa=args.kappa)
            params.update({"d": args.d, "m": args.m, "mode": "explicit"})
        seed = None
    else:  # random-local
        c = parse_c(args.c)
        artifact = random_local_set(
            n=args.n,
            k=args.k,
            c=c,
            kappa=args.kappa,
            seed=args.seed,
            max_retries=args.max_retries,
        )
        params = {
            "n": args.n,
            "k": args.k,
            "c": c,
            "kappa": args.kappa,
            "max_retries": args.max_retries,
        }
        seed = args.seed
    text = "".join(f"{e}\n" for e in artifact.elements)
    write_output(args.out, text, f"build {args.subcommand}", params, seed)
    print(f"wrote {len(artifact.elements)} elements to {Path(args.out)}")
    return EXIT_OK


def cmd_analyze(args) -> int:
    points = _parse_points(args)
    if not 2 <= len(points) <= 24:
        raise CliError(f"analyze needs between 2 and 24 points, got {len(points)}")
    c = parse_c(args.c)
    config = from_points(points)
    goodness = is_c_good(config, c, budget=resolve_budget())
    star_size, star_witness = largest_star(config)
    certified = config.certified_pairs()
    distinct = distinct_difference_count(points)
    report = {
        "report": "analyze",
        "k": config.k,
        "points": list(points),
        "c": c,
        "rank": config.rank,
        "basis": [render_content(row) for row in config.basis.rows],
        "certified_count": len(certified),
        "certified_pairs": [f"{i},{j}" for i, j in certified],
        "distinct_differences": distinct,
        "goodness": goodness_report_dict(goodness),
        "largest_star": {
            "size": star_size,
            "pairs": [f"{a},{b}" for a, b in (star_witness.pairs if star_witness else ())],
        },
    }
    cross_ok = len(certified) == comb(config.k, 2) - distinct
    report["cross_check"] = "ok" if cross_ok else "MISMATCH"
    text = reportfmt.emit(report)
    if args.out is not None:
        write_output(args.out, text, "analyze", {"c": c, "k": config.k})
    print(text, end="")
    return EXIT_OK if cross_ok else EXIT_INVARIANT


def goodness_report_dict(report) -> dict:
    out: dict = {"c": report.c, "valid": report.valid}
    if report.equality_witness is not None:
        i, j = report.equality_witness
        out["equality_witness"] = f"x{i} = x{j}"
    if report.collinearity_free is not None:
        out["collinearity_free"] = report.collinearity_free
    if report.collinearity_witness is not None:
        out["collinearity_witness"] = render_content(report.collinearity_witness)
    if report.c_light is not None:
        out["c_light"] = report.c_light
    if report.heaviness_witness is not None:
        w = report.heaviness_witness
        out["heaviness_witness"] = {
            "variables": " ".join(f"x{v}" for v in w.variables),
            "variable_count": len(w.variables),
            "t": w.t,
            "section_basis": [render_content(row) for row in w.section_basis.rows],
        }
    out["c_good"] = report.c_good
    return out


def cmd_verify(args) -> int:
    points = read_set_file(args.set_file, strict=args.strict)
    verdict = check_local_property(points, args.k, args.l, budget=args.budget)
    report = {
        "report": "verify",
        "set_file": _path_field(args.set_file),
        "n": len(points),
        "k": args.k,
        "l": args.l,
        "holds": verdict.holds,
        "min_differences": verdict.min_differences,
        "witness_subset": list(verdict.witness_subset),
    }
    print(reportfmt.emit(report), end="")
    return EXIT_OK if verdict.holds else EXIT_PROPERTY_FAIL


def cmd_scan(args) -> int:
    report = scan_ground(args.N, args.k, parse_c(args.c), budget=args.budget)
    text = reportfmt.emit(report.to_report())
    if args.out is not None:
        write_output(args.out, text, "scan", {"N": args.N, "k": args.k, "c": report.c})
    print(text, end="")
    if report.cross_check_failures:
        return EXIT_INVARIANT
    return EXIT_OK if report.bound_respected and not report.c2_divergences else EXIT_PROPERTY_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="difflocal",
        description="difference-set local properties: constructions, analysis, verification, scans",
    )
    parser.add_argument("--version", action="version", version=f"difflocal {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a set and write it with a manifest")
    build_sub = p_build.add_subparsers(dest="subcommand", required=True)
    p_behrend = build_sub.add_parser("behrend", help="sphere-slice digit construction")
    p_behrend.add_argument("--d", type=int)
    p_behrend.add_argument("--m", type=int)
    p_behrend.add_argument("--n", type=int, help="auto mode: derive d and m from n")
    p_behrend.add_argument("--kappa", type=int, default=2)
    p_behrend.add_argument("--out", required=True)
    p_behrend.set_defaults(func=cmd_build)
    p_random = build_sub.add_parser("random-local", help="randomized locally-good set")
    p_random.add_argument("--n", type=int, required=True)
    p_random.add_argument("--k", type=int, required=True)
    p_random.add_argument("--c", required=True, help="rational in (1,2], decimal, or 'paper'")
    p_random.add_argument("--kappa", type=int, default=2)
    p_random.add_argument("--seed", type=int, default=0)
    p_random.add_argument("--max-retries", type=int, default=8)
    p_random.add_argument("--out", required=True)
    p_random.set_defaults(func=cmd_build)

    p_analyze = sub.add_parser("analyze", help="full configuration report for a point tuple")
    p_analyze.add_argument("points_file", nargs="?", help="set file holding the points")
    p_analyze.add_argument("--points", help="comma-separated points, e.g. '1,2,5,6,9'")
    p_analyze.add_argument("--c", default="2")
    p_analyze.add_argument("--strict", action="store_true")
    p_analyze.add_argument("--out")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="check the (k,l)-local property of a set file")
    p_verify.add_argument("set_file")
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--l", type=int, required=True)
    p_verify.add_argument("--budget", type=int, default=None)
    p_verify.add_argument("--strict", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="classify every k-subset of [1..N]")
    p_scan.add_argument("--N", type=int, required=True)
    p_scan.add_argument("--k", type=int, required=True)
    p_scan.add_argument("--c", default="2")
    p_scan.add_argument("--budget", type=int, default=None)
    p_scan.add_argument("--out")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze" and (args.points is None) == (args.points_file is None):
            raise CliError("analyze needs exactly one of a points file and --points")
        return args.func(args)
    except tuple(kind for kind, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
