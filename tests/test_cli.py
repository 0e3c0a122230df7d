import contextlib
import hashlib
import io
import random
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from difflocal import __version__, cli, constructions, reportfmt, scan
from difflocal.scan import realize_star


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBuildBehrend:
    def test_worked_example_writes_exact_file(self, tmp_path, capsys):
        out = tmp_path / "set.txt"
        code, _, _ = run(capsys, "build", "behrend", "--d", "2", "--m", "3", "--kappa", "2", "--out", str(out))
        assert code == 0
        assert out.read_text() == "98\n193\n"
        manifest = reportfmt.parse((tmp_path / "set.txt.manifest").read_text())
        assert manifest["version"]
        assert manifest["outputs"][0]["sha256"]

    def test_auto_mode_degenerate_names_parameter(self, tmp_path, capsys):
        out = tmp_path / "set.txt"
        code, _, err = run(capsys, "build", "behrend", "--n", "100", "--kappa", "2", "--out", str(out))
        assert code == 2
        assert "m" in err

    def test_oversized_box_exits_2_at_once(self, tmp_path, capsys):
        out = tmp_path / "set.txt"
        for d, m in [("40", "150"), ("1000", "1")]:
            start = time.perf_counter()
            code, _, err = run(capsys, "build", "behrend", "--d", d, "--m", m, "--out", str(out))
            assert time.perf_counter() - start < 2
            assert code == 2
            assert err.startswith("error: ") and len(err.splitlines()) == 1
            assert not out.exists()

    def test_auto_and_explicit_flags_conflict(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "build", "behrend", "--n", "100", "--d", "2", "--m", "3", "--out", str(tmp_path / "x")
        )
        assert code == 2


class TestBuildRandomLocal:
    def test_deterministic_rerun_bit_identical(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        args = ["build", "random-local", "--n", "15", "--k", "4", "--c", "1.9", "--seed", "7"]
        assert run(capsys, *args, "--out", str(out1))[0] == 0
        assert run(capsys, *args, "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        m1 = reportfmt.parse((tmp_path / "a.txt.manifest").read_text())
        m2 = reportfmt.parse((tmp_path / "b.txt.manifest").read_text())
        assert m1["outputs"][0]["sha256"] == m2["outputs"][0]["sha256"]

    def test_output_line_count(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        code, _, _ = run(capsys, "build", "random-local", "--n", "12", "--k", "4", "--c", "1.9", "--seed", "1", "--out", str(out))
        assert code == 0
        assert len(out.read_text().splitlines()) == 12

    def test_sweep_over_budget_exits_3(self, tmp_path, capsys, monkeypatch):
        # n = 8 samples 16 elements: the sweep would scan C(16,4) = 1820 subsets
        monkeypatch.setenv("DIFFLOCAL_BUDGET", "1000")
        out = tmp_path / "r.txt"
        code, _, err = run(capsys, "build", "random-local", "--n", "8", "--k", "4", "--c", "1.9", "--out", str(out))
        assert code == 3
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "C(16,4)" in err
        assert not out.exists()

    def test_kappa_below_1_exits_2(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        code, _, err = run(capsys, "build", "random-local", "--n", "20", "--k", "4", "--c", "1.9", "--kappa", "0", "--out", str(out))
        assert code == 2
        assert err == "error: kappa must be at least 1, got 0\n"
        assert not out.exists()

    def test_huge_n_exits_3_before_building_anything(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        code, _, err = run(capsys, "build", "random-local", "--n", "10000000", "--k", "4", "--c", "2", "--out", str(out))
        assert code == 3
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()

    def test_paper_c(self, tmp_path, capsys):
        # floor(8^c) = 63 is found without forming 8^(2^30 - 1)
        out = tmp_path / "r.txt"
        code, _, _ = run(capsys, "build", "random-local", "--n", "8", "--k", "4", "--c", "paper", "--out", str(out))
        assert code == 0
        assert out.read_text().split() == ["1", "2", "4", "5", "10", "11", "13", "14"]
        manifest = reportfmt.parse((tmp_path / "r.txt.manifest").read_text())
        assert manifest["parameters"]["c"] == Fraction(2) - Fraction(1, 2**29)

    def test_failed_postcondition_exits_4(self, tmp_path, capsys, monkeypatch):
        # a sweep that deletes nothing leaves bad subsets in the kappa=1 sample
        monkeypatch.setattr(constructions, "_alteration_sweep", lambda sampled, k, c: (sorted(sampled), []))
        out = tmp_path / "r.txt"
        code, _, err = run(capsys, "build", "random-local", "--n", "8", "--k", "4", "--c", "2", "--kappa", "1", "--out", str(out))
        assert code == 4
        assert err.startswith("error: postcondition violated") and len(err.splitlines()) == 1
        assert not out.exists()


class TestAnalyze:
    def test_five_point_report(self, capsys):
        code, out, _ = run(capsys, "analyze", "--points", "1,2,5,6,9")
        assert code == 0
        report = reportfmt.parse(out)
        assert report["certified_count"] == 4
        assert report["distinct_differences"] == 6
        assert report["goodness"]["collinearity_witness"] == "x1 - 2*x3 + x5"
        assert report["goodness"]["c_good"] is False
        assert report["largest_star"]["size"] == 4
        assert report["cross_check"] == "ok"

    def test_star_realization_with_progressions(self, capsys):
        code, out, _ = run(capsys, "analyze", "--points", "0,10,1,9,2,8")
        assert code == 0
        report = reportfmt.parse(out)
        assert report["largest_star"]["size"] == 6
        assert report["certified_count"] == 8
        assert report["distinct_differences"] == 7
        assert report["goodness"]["c_good"] is False  # 0,1,2 is a progression

    def test_clean_star_realization_is_good(self, capsys):
        code, out, _ = run(capsys, "analyze", "--points", "65,63,68,60,80,48")
        assert code == 0
        report = reportfmt.parse(out)
        assert report["certified_count"] == 6
        assert report["goodness"]["c_good"] is True
        assert report["largest_star"]["size"] == 6

    def test_repeated_points_rejected(self, capsys):
        # from_points refuses them; analyze has no check of its own
        code, _, err = run(capsys, "analyze", "--points", "1,1,2,3")
        assert code == 2
        assert err == "error: points must be pairwise distinct\n"

    def test_repeated_points_give_one_error_line(self, capsys):
        code, out, err = run(capsys, "analyze", "--points", "1,2,2,5")
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_parse_error_carries_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("1\n2\nxyz\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "bad.txt:3" in err

    def test_report_round_trips(self, capsys):
        code, out, _ = run(capsys, "analyze", "--points", "1,2,5,6,9", "--c", "paper")
        report = reportfmt.parse(out)
        assert reportfmt.parse(reportfmt.emit(report)) == report

    def test_twenty_point_star_within_gate(self, capsys):
        points = ",".join(map(str, realize_star(10)))
        start = time.perf_counter()
        code, out, _ = run(capsys, "analyze", "--points", points)
        assert time.perf_counter() - start < 20
        assert code == 0
        report = reportfmt.parse(out)
        assert report["goodness"]["c_good"] is True
        assert report["largest_star"]["size"] == 20

    def test_witness_sweep_over_budget_exits_3(self, capsys, monkeypatch):
        # the cube is heavy at 2 on all 8 variables: its 8 rows of rank 4
        # decide the verdict with no independence test, and the witness
        # search, run when the report reads the witness, takes 63 nodes
        # over sizes 6, 7 and 8, all counted against the one budget
        cube = "0,1,10,11,100,101,110,111"
        code, out, _ = run(capsys, "analyze", "--points", cube, "--c", "2")
        assert code == 0
        assert reportfmt.parse(out)["goodness"]["heaviness_witness"]["variable_count"] == 8
        monkeypatch.setenv("DIFFLOCAL_BUDGET", "63")
        code, fitted, _ = run(capsys, "analyze", "--points", cube, "--c", "2")
        assert (code, fitted) == (0, out)
        for budget in ("62", "20"):
            monkeypatch.setenv("DIFFLOCAL_BUDGET", budget)
            code, out, err = run(capsys, "analyze", "--points", cube, "--c", "2")
            assert code == 3
            assert out == ""
            assert err == f"error: heaviness search exceeds its budget of {budget} nodes\n"

    @pytest.mark.parametrize("count", [1, 25])
    def test_point_count_outside_its_range_exits_2(self, capsys, count):
        points = ",".join(str(2**i) for i in range(count))
        code, out, err = run(capsys, "analyze", "--points", points)
        assert code == 2
        assert out == ""
        assert err == f"error: analyze needs between 2 and 24 points, got {count}\n"

    def test_file_and_points_together_exit_2(self, tmp_path, capsys):
        points = tmp_path / "points.txt"
        points.write_text("1\n2\n5\n6\n9\n")
        code, out, err = run(capsys, "analyze", str(points), "--points", "1,2,3,4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        # either input alone is fine
        assert run(capsys, "analyze", str(points))[0] == 0

    def test_search_over_budget_exits_3(self, capsys, monkeypatch):
        # a 16-point star is light: the partition makes 38 independence
        # tests at 2 and 52 at 3/2; one short exits 3
        points = ",".join(map(str, realize_star(8)))
        for c, budget, error in [
            ("2", "37", "matroid partition exceeds its budget of 37 steps"),
            ("3/2", "51", "matroid partition exceeds its budget of 51 steps"),
        ]:
            monkeypatch.setenv("DIFFLOCAL_BUDGET", str(int(budget) + 1))
            assert run(capsys, "analyze", "--points", points, "--c", c)[0] == 0
            monkeypatch.setenv("DIFFLOCAL_BUDGET", budget)
            code, out, err = run(capsys, "analyze", "--points", points, "--c", c)
            assert code == 3
            assert out == ""
            assert err == f"error: {error}\n"


class TestVerify:
    def test_ap_fails_with_witness(self, tmp_path, capsys):
        f = tmp_path / "ap.txt"
        f.write_text("".join(f"{i}\n" for i in range(10)))
        code, out, _ = run(capsys, "verify", str(f), "--k", "4", "--l", "4")
        assert code == 1
        report = reportfmt.parse(out)
        assert report["min_differences"] == 3
        assert report["witness_subset"] == [0, 1, 2, 3]

    def test_random_local_output_holds(self, tmp_path, capsys):
        out = tmp_path / "r.txt"
        run(capsys, "build", "random-local", "--n", "12", "--k", "4", "--c", "1.9", "--seed", "2", "--out", str(out))
        code, text, _ = run(capsys, "verify", str(out), "--k", "4", "--l", "4")
        assert code == 0
        assert reportfmt.parse(text)["holds"] is True

    def test_budget_exit_code(self, tmp_path, capsys):
        # a 79-term progression is decided within the budget; a sparse set is not
        f = tmp_path / "big.txt"
        f.write_text("".join(f"{i}\n" for i in range(1, 80)))
        code, out, _ = run(capsys, "verify", str(f), "--k", "8", "--l", "8", "--budget", "1000")
        assert code == 1
        assert reportfmt.parse(out)["min_differences"] == 7
        f.write_text("".join(f"{i}\n" for i in sorted(random.Random(2).sample(range(3000), 22))))
        code, _, err = run(capsys, "verify", str(f), "--k", "8", "--l", "20", "--budget", "1000")
        assert code == 3
        assert err == "error: local-property search: 1002 candidates exceed the budget of 1000\n"

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_must_be_positive(self, tmp_path, capsys, budget):
        f = tmp_path / "s.txt"
        f.write_text("1\n2\n4\n8\n")
        code, _, err = run(capsys, "verify", str(f), "--k", "4", "--l", "4", "--budget", budget)
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_strict_mode_rejects_unsorted(self, tmp_path, capsys):
        f = tmp_path / "u.txt"
        f.write_text("3\n1\n2\n")
        code, _, err = run(capsys, "verify", str(f), "--k", "2", "--l", "1", "--strict")
        assert code == 2
        code2, out, err = run(capsys, "verify", str(f), "--k", "2", "--l", "1")
        assert code2 == 0  # default mode warns and sorts

    def test_comments_and_blanks_ignored(self, tmp_path, capsys):
        f = tmp_path / "c.txt"
        f.write_text("# header\n1\n\n5 # trailing\n11\n")
        code, out, _ = run(capsys, "verify", str(f), "--k", "3", "--l", "3")
        assert code == 0


class TestScan:
    def test_small_scan_report(self, tmp_path, capsys):
        out = tmp_path / "scan.txt"
        code, text, _ = run(capsys, "scan", "--N", "10", "--k", "4", "--c", "2", "--out", str(out))
        assert code == 0
        report = reportfmt.parse(text)
        assert report["subsets_scanned"] == 210
        assert report["bound_respected"] is True
        assert out.read_text() == text

    def test_budget_exit(self, capsys):
        code, _, err = run(capsys, "scan", "--N", "1000", "--k", "6")
        assert code == 3

    @pytest.mark.parametrize("budget", ["0", "-1"])
    def test_budget_must_be_positive(self, capsys, budget):
        code, text, err = run(capsys, "scan", "--N", "8", "--k", "4", "--budget", budget)
        assert code == 2
        assert text == "" and err.startswith("error: ") and len(err.splitlines()) == 1

    def test_paper_c_literal(self, capsys):
        code, text, _ = run(capsys, "scan", "--N", "9", "--k", "4", "--c", "paper")
        assert code == 0
        report = reportfmt.parse(text)
        assert report["c"] == Fraction(2) - Fraction(1, 2**29)

    @pytest.mark.parametrize("k", ["2", "3"])
    def test_k_below_4_is_a_usage_error(self, capsys, k):
        code, text, err = run(capsys, "scan", "--N", "5", "--k", k)
        assert code == 2
        assert text == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_k_above_max_variables_exits_2_before_the_walk(self, monkeypatch, capsys):
        def refuse(payload):
            raise AssertionError("the scan walked")

        monkeypatch.setattr(scan, "_scan_chunk", refuse)
        code, text, err = run(capsys, "scan", "--N", "66", "--k", "65")
        assert code == 2
        assert text == ""
        assert err == "error: scan needs k <= 64 variables, got k=65\n"


@pytest.mark.parametrize(
    "command",
    [
        ["scan", "--N", "8", "--k", "4"],
        ["analyze", "--points", "1,2,4,8"],
        ["build", "random-local", "--n", "8", "--k", "4"],
    ],
    ids=["scan", "analyze", "build-random-local"],
)
@pytest.mark.parametrize("c", ["1/0", "1e200000000"])
def test_bad_c_is_one_error_line(tmp_path, capsys, command, c):
    out = tmp_path / "x.txt"
    argv = command + ["--c", c] + (["--out", str(out)] if command[0] == "build" else [])
    start = time.perf_counter()
    code, text, err = run(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 2
    assert text == "" and err.startswith("error: ") and len(err.splitlines()) == 1
    assert repr(c) in err
    assert not out.exists()


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--nonsense"])
    assert exc.value.code == 2


def test_build_behrend_n10_degenerate_is_loud(tmp_path, capsys):
    code, _, err = run(capsys, "build", "behrend", "--n", "10", "--kappa", "2", "--out", str(tmp_path / "x"))
    assert code != 0
    assert "n" in err


def test_analyze_out_writes_report_and_manifest(tmp_path, capsys):
    out = tmp_path / "report.txt"
    code, text, _ = run(capsys, "analyze", "--points", "1,2,5,6,9", "--out", str(out))
    assert code == 0
    assert out.read_text() == text
    manifest = reportfmt.parse((tmp_path / "report.txt.manifest").read_text())
    assert manifest["outputs"][0]["path"] == str(out)


@pytest.mark.parametrize("name", ["123", "7", "true", "1/2"])
def test_paths_that_read_as_scalars(tmp_path, capsys, monkeypatch, name):
    # an int, bool or fraction would not read back as a string, so the
    # reports name such a path with a "./" prefix
    monkeypatch.chdir(tmp_path)
    (tmp_path / "1").mkdir()
    for argv in (
        ["build", "behrend", "--d", "2", "--m", "3", "--out", name],
        ["scan", "--N", "8", "--k", "4", "--out", name],
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        manifest = reportfmt.parse(Path(name + ".manifest").read_text())
        assert manifest["outputs"][0]["path"] == "./" + name
    Path(name).write_text("1\n2\n4\n8\n16\n")
    code, out, err = run(capsys, "verify", name, "--k", "4", "--l", "4")
    assert code == 0, err
    assert reportfmt.parse(out)["set_file"] == "./" + name


class TestFileErrors:
    """A file that cannot be read or written exits 2 with one error line."""

    def test_verify_missing_file(self, tmp_path, capsys):
        code, _, err = run(capsys, "verify", str(tmp_path / "missing.txt"), "--k", "4", "--l", "4")
        assert code == 2
        assert err.startswith("error: ") and "missing.txt" in err
        assert "Traceback" not in err

    def test_analyze_directory(self, tmp_path, capsys):
        code, _, err = run(capsys, "analyze", str(tmp_path))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    def test_scan_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "scan.txt"
        code, _, err = run(capsys, "scan", "--N", "8", "--k", "4", "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    def test_unwritable_manifest_removes_the_output(self, tmp_path, capsys):
        out = tmp_path / "o.txt"
        (tmp_path / "o.txt.manifest").mkdir()
        code, _, err = run(capsys, "scan", "--N", "8", "--k", "4", "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert not out.exists()


set_file_bytes = st.one_of(
    st.binary(max_size=120),
    st.lists(
        st.one_of(st.integers(-99, 10**6).map(str), st.text(alphabet="0123456789-+ #\t\xe9", max_size=8)),
        max_size=14,
    ).map(lambda lines: "\n".join(lines).encode("utf-8")),
)


@settings(max_examples=150, deadline=None)
@given(set_file_bytes)
def test_verify_survives_arbitrary_set_files(raw):
    """Any bytes, non-UTF-8 included: a documented exit code, at most one
    error line and never a traceback (an escaping exception fails here)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "set.txt"
        path.write_bytes(raw)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", str(path), "--k", "2", "--l", "1"])
    assert code in (0, 1, 2, 3)
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert len(errors) <= 1
    assert "Traceback" not in err.getvalue()


OUT_COMMANDS = {
    "build-behrend": ["build", "behrend", "--d", "2", "--m", "3"],
    "build-random-local": ["build", "random-local", "--n", "8", "--k", "4", "--c", "1.9"],
    "analyze": ["analyze", "--points", "1,2,5,6,9"],
    "scan": ["scan", "--N", "8", "--k", "4"],
}


class TestOutput:
    """Every --out gets its manifest, or neither file is written."""

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    @pytest.mark.parametrize("name", ["x ", "a\nb", ""], ids=["blank", "newline", "empty"])
    def test_unnameable_path_writes_nothing(self, tmp_path, capsys, monkeypatch, command, name):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *OUT_COMMANDS[command], "--out", name)
        assert code == 2
        assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
        assert repr(name) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", OUT_COMMANDS)
    def test_manifest_digests_the_bytes_on_disk(self, tmp_path, capsys, command):
        out = tmp_path / "out.txt"
        code, _, err = run(capsys, *OUT_COMMANDS[command], "--out", str(out))
        assert code == 0, err
        manifest = reportfmt.parse((tmp_path / "out.txt.manifest").read_text())
        assert manifest["inputs"] == []
        assert manifest["outputs"] == [
            {"path": str(out), "sha256": hashlib.sha256(out.read_bytes()).hexdigest()}
        ]

    def test_behrend_manifest_text(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "build", "behrend", "--d", "2", "--m", "3", "--kappa", "2", "--out", "set.txt")
        assert (code, out) == (0, "wrote 2 elements to set.txt\n")
        assert Path("set.txt.manifest").read_text() == (
            "manifest: build behrend\n"
            f"version: {__version__}\n"
            "parameters:\n"
            "  d: 2\n"
            "  kappa: 2\n"
            "  m: 3\n"
            "  mode: explicit\n"
            "seed: none\n"
            "inputs: []\n"
            "outputs:\n"
            "  -\n"
            "    path: set.txt\n"
            "    sha256: 992b9e809c278b7ef13d00f122b79f61ed82868f068a8e5fe2e5d32f3d19df9b\n"
        )


def test_verify_k_above_bound_exits_2(tmp_path, capsys):
    points = tmp_path / "p.txt"
    points.write_text("".join(f"{i}\n" for i in range(1100)))
    code, out, err = run(capsys, "verify", str(points), "--k", "1100", "--l", "1")
    assert code == 2
    assert out == "" and err == "error: k must be between 2 and 256, got 1100\n"
