import dataclasses
import io
import json
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F

import pytest

from fracpow.cli import format_rational, main
from fracpow.counting import CountReport, constancy_scan
from fracpow.cyclotomic import CycloProduct, cyclotomic_poly
from fracpow.series import FracSeries
from helpers import tau_oracle


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cyclo_phi_text():
    code, out, err = run_cli(["cyclo", "phi", "1"])
    assert (code, out.strip(), err) == (0, "1 - x", "")
    code, out, _ = run_cli(["cyclo", "phi", "12"])
    assert out.strip() == "1 - x^2 + x^4"


def test_cyclo_phi_json():
    code, out, _ = run_cli(["cyclo", "phi", "6", "--format", "json"])
    assert json.loads(out) == {"n": 6, "coefficients": ["1", "-1", "1"]}


def test_cyclo_expand():
    code, out, _ = run_cli(["cyclo", "expand", "2", "2"])
    assert json.loads(out) == {"basis": "phi", "exps": [[4, "1"]]}


def test_cyclo_part():
    code, out, _ = run_cli(["cyclo", "part", "--poly", "1,1,1", "--m", "2:1,3:1"])
    assert json.loads(out) == {"basis": "phi", "exps": [[1, "-1"], [3, "1"]]}
    code, out, _ = run_cli(
        ["cyclo", "part", "--poly", "1,1,1", "--m", "2:1,3:1", "--no-1mx-inverse"]
    )
    assert json.loads(out) == {"basis": "phi", "exps": [[3, "1"]]}


def test_decide_verdicts():
    code, out, _ = run_cli(["decide", "--m", "2:1,3:1"])
    report = json.loads(out)
    assert code == 0
    assert report["verdict"] == "impossible_by_theorem"
    cert = report["certificate"]
    assert cert["witness"] == {"p": 2, "t": 1}
    assert cert["recurrence"] == {"p": 2, "t": 1, "a": [1, 1], "total": 2, "gcd": 1}
    assert cert["contradiction"]["holds"] is True

    assert json.loads(run_cli(["decide", "--m", "2:1,4:1"])[1])["verdict"] == "degenerate_gcd"
    assert (
        json.loads(run_cli(["decide", "--m", "1:1,2:1"])[1])["verdict"]
        == "outside_hypothesis"
    )


def test_deterministic_output():
    first = run_cli(["decide", "--m", "2:1,3:1"])
    second = run_cli(["decide", "--m", "2:1,3:1"])
    assert first == second
    s1 = run_cli(["solve", "--m", "2:1,3:1", "--cutoff", "3"])
    s2 = run_cli(["solve", "--m", "2:1,3:1", "--cutoff", "3"])
    assert s1 == s2


def test_solve_json():
    code, out, _ = run_cli(["solve", "--m", "2:1,3:1", "--cutoff", "2"])
    data = json.loads(out)
    assert code == 0
    assert data["cutoff"] == "2"
    assert ["1/2", "1"] in data["terms"]
    assert ["3/4", "-1"] in data["terms"]


def test_solve_poly_rhs():
    # (1+x)/(1-x): still solvable, fractional exponents expected
    code, out, _ = run_cli(["solve", "--m", "2:1,3:1", "--rhs-poly", "1,1", "--cutoff", "2"])
    assert code == 0
    data = json.loads(out)
    assert data["terms"][0] == ["0", "1"]
    assert any(exp == "1/2" for exp, _ in data["terms"])


def test_solve_factors_rhs():
    code, out, _ = run_cli(
        ["solve", "--m", "2:1,4:1", "--rhs-factors", "2:-1", "--cutoff", "6"]
    )
    assert json.loads(out)["terms"] == [["0", "1"], ["1", "1"], ["4", "1"], ["5", "1"]]
    code, _, err = run_cli(
        [
            "solve",
            "--m",
            "2:1,4:1",
            "--rhs-poly",
            "1",
            "--rhs-factors",
            "2:-1",
            "--cutoff",
            "2",
        ]
    )
    assert code == 2 and json.loads(err)["error"]["kind"] == "usage"


def test_error_exit_codes():
    # hypothesis error (b_0 = 1): exit 1, nothing on stdout
    code, out, err = run_cli(["solve", "--m", "1:1,2:1", "--cutoff", "2"])
    assert code == 1 and out == ""
    assert json.loads(err)["error"]["kind"] == "hypothesis"
    # usage error (descending coefficients): exit 2
    code, out, err = run_cli(["decide", "--m", "3:1,2:1"])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "usage"
    # domain error (rhs polynomial vanishing at 1): exit 1
    code, out, err = run_cli(["decide", "--m", "2:1,3:1", "--rhs-poly", "1,-1"])
    assert code == 1 and json.loads(err)["error"]["kind"] == "domain"
    # well-formed but invalid polynomials stay domain errors
    for argv in (
        ["solve", "--m", "2:1,3:1", "--rhs-poly", "1,1/2", "--cutoff", "2"],
        ["cyclo", "part", "--poly", "1,1/2", "--m", "2:1,3:1"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "") and json.loads(err)["error"]["kind"] == "domain"


def test_oversized_lists_are_capacity_errors(tmp_path, monkeypatch):
    huge = tmp_path / "huge.txt"
    huge.write_text(f"# bound={10**30}\n0\n1\n")
    for argv in (
        ["solve", "--m", "2:1", "--cutoff", "1e30"],
        ["count", "--m", "1:1", "--set", str(huge), "--upto", str(10**20)],
        ["enumerate", "--b", "2", "--below", "1e400"],
        # the messages print no value past the 4300-digit int-to-str limit
        ["solve", "--m", "2:1", "--cutoff", "1e5000"],
        ["enumerate", "--b", "2", "--below", "1e5000"],
    ):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        error = json.loads(err)["error"]
        assert error["kind"] == "capacity"
        if argv[0] == "solve":
            # the message speaks of the cutoff, not of the length of G
            assert "cutoff" in error["message"]
    # tau builds one factor per order before it expands anything, so it
    # checks the cap itself; a lowered cap shows that check with short
    # lists before the real cap is tried
    monkeypatch.setattr("fracpow.cli.MAX_LIST_LEN", 50)
    assert run_cli(["tau", "--upto", "50"])[0] == 0
    code, out, err = run_cli(["tau", "--upto", "51"])
    assert (code, out) == (1, "") and json.loads(err)["error"]["kind"] == "capacity"
    # the lattice holds every k/b, so below a bound it has at least
    # floor(b * bound) + 1 elements; with b = 1 and no ratios exactly that
    monkeypatch.setattr("fracpow.lattice.MAX_LIST_LEN", 50)
    code, out, _ = run_cli(["enumerate", "--b", "1", "--below", "49"])
    assert code == 0 and len(json.loads(out)) == 50
    code, out, err = run_cli(["enumerate", "--b", "1", "--below", "50"])
    assert (code, out) == (1, "") and json.loads(err)["error"]["kind"] == "capacity"
    # solve expands G up to x^(b_0 cutoff), b_0 cutoff + 1 coefficients
    monkeypatch.setattr("fracpow.solver.MAX_LIST_LEN", 50)
    assert run_cli(["solve", "--m", "2:1", "--cutoff", "49/2"])[0] == 0
    code, out, err = run_cli(["solve", "--m", "2:1", "--cutoff", "25"])
    assert (code, out) == (1, "") and json.loads(err)["error"]["kind"] == "capacity"
    monkeypatch.undo()
    code, out, err = run_cli(["tau", "--upto", str(10**20)])
    assert (code, out) == (1, "") and json.loads(err)["error"]["kind"] == "capacity"



def test_unprintable_results_are_capacity_errors():
    # the JSON cutoff field of a solve at 1e-5000 is 1/10^5000, past the
    # 4300-digit int-to-str limit; nothing reaches stdout before the error
    solve = ["solve", "--m", "2:1,3:1", "--cutoff", "1e-5000"]
    code, out, err = run_cli(solve)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["kind"] == "capacity"
    # the text form prints the series, which has no cutoff field
    assert run_cli(solve + ["--format", "text"]) == (0, "1\n", "")
    # a coefficient of 10^5000 / 2 is unprintable in either format
    for fmt in ("json", "text"):
        argv = ["solve", "--m", "2:1,3:1", "--rhs-poly", "1,1e5000", "--cutoff", "1"]
        code, out, err = run_cli(argv + ["--format", fmt])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["kind"] == "capacity"


def test_huge_exponent_literals_are_refused_at_once():
    # first in a child process with a timeout: without the exponent cap,
    # Fraction would spend minutes building a billion-digit integer
    argv = ["solve", "--m", "2:1,3:1", "--cutoff", "1e999999999"]
    proc = subprocess.run(
        [sys.executable, "-m", "fracpow.cli", *argv], capture_output=True, text=True, timeout=10
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert json.loads(proc.stderr)["error"]["kind"] == "capacity"
    for fmt in ("json", "text"):
        start = time.perf_counter()
        code, out, err = run_cli(argv + ["--format", fmt])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert json.loads(err)["error"]["kind"] == "capacity"


def _reuse_argvs(set_path):
    solve = ["solve", "--m", "2:1,4:1", "--cutoff", "6"]
    both = ["--rhs-poly", "1", "--rhs-factors", "2:-1"]
    count = ["count", "--m", "1:1,2:1", "--set", set_path, "--upto", "40"]
    part = ["cyclo", "part", "--poly", "1,1,1", "--m", "2:1,3:1"]
    lattice = ["enumerate", "--b", "2", "--thetas", "3/2", "--below", "2"]
    return [
        solve + ["--rhs-factors", "2:-1"],
        solve,  # no right side right after --rhs-factors
        solve + both,  # the two right sides exclude each other
        solve + ["--rhs-poly", "1,1", "--format", "text"],
        ["solve", "--m", "2:1,3:1", "--cutoff", "1/0"],  # malformed flag value
        ["solve", "--m", "2:1,3:1", "--cutoff", "3", "--bogus"],
        ["decide", "--m", "2:1,3:1", "--rhs-poly", "1,1,1"],
        ["decide", "--m", "2:1,3:1", "--format", "text"],
        count,
        count + ["--format", "text"],
        ["construct", "--kind", "moser", "--k", "3", "--bound", "12"],
        ["cyclo", "phi", "12"],
        ["cyclo", "phi", "12", "--format", "json"],
        ["cyclo", "expand", "2", "6", "--format", "text"],
        ["cyclo", "expand", "2", "6"],
        part + ["--no-1mx-inverse"],
        part + ["--format", "text"],
        lattice,
        lattice + ["--format", "text"],
        ["tau", "--upto", "12", "--format", "json"],
        ["tau", "--upto", "12"],
        [],
    ]


def _fresh_process(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fracpow.cli", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_parser_reuse_matches_fresh_processes(tmp_path):
    # one parser serves every call in a process; no call may leave state
    # behind that changes a later one, in either order
    path = tmp_path / "ruzsa.txt"
    assert run_cli(["construct", "--kind", "ruzsa", "--bound", "40", "--out", str(path)])[0] == 0
    argvs = _reuse_argvs(str(path))
    forward = [run_cli(argv) for argv in argvs]
    backward = [run_cli(argv) for argv in reversed(argvs)][::-1]
    with ThreadPoolExecutor(max_workers=2) as pool:
        fresh = list(pool.map(_fresh_process, argvs))
    for argv, first, second, alone in zip(argvs, forward, backward, fresh):
        assert first == second == alone, argv
    assert {code for code, _, _ in forward} == {0, 2}


def _refuse(*args):
    raise AssertionError("rendered a format that was not asked for")


class _NoText(int):
    """An int that JSON prints (json uses int.__repr__) but str refuses."""

    def __str__(self):
        _refuse()


def test_only_the_requested_format_is_rendered(tmp_path, monkeypatch):
    solve = ["solve", "--m", "2:1,3:1", "--cutoff", "4"]
    with monkeypatch.context() as patch:
        patch.setattr(FracSeries, "__str__", _refuse)
        assert run_cli(solve)[0] == 0
    with monkeypatch.context() as patch:
        patch.setattr(FracSeries, "to_json_dict", _refuse)
        assert run_cli(solve + ["--format", "text"])[0] == 0

    path = tmp_path / "ruzsa.txt"
    run_cli(["construct", "--kind", "ruzsa", "--bound", "100", "--out", str(path)])
    count = ["count", "--m", "1:1,2:1", "--set", str(path), "--upto", "100"]
    with monkeypatch.context() as patch:
        patch.setattr(CountReport, "to_json_dict", _refuse)
        assert run_cli(count + ["--format", "text"]) == (0, " ".join(["1"] * 101) + "\n", "")
    with monkeypatch.context() as patch:

        def scan_without_text(*args):
            report = constancy_scan(*args)
            return dataclasses.replace(report, values=tuple(map(_NoText, report.values)))

        patch.setattr("fracpow.cli.constancy_scan", scan_without_text)
        code, out, _ = run_cli(count)
        assert code == 0 and json.loads(out)["values"] == [1] * 101

    # both formats of enumerate print each element once through
    # format_rational; an eager second payload would double the calls
    calls = []

    def counted(q):
        calls.append(q)
        return format_rational(q)

    monkeypatch.setattr("fracpow.cli.format_rational", counted)
    for fmt in ("json", "text"):
        calls.clear()
        code, out, _ = run_cli(
            ["enumerate", "--b", "2", "--thetas", "3/2", "--below", "3", "--format", fmt]
        )
        assert code == 0 and len(calls) == 26


SOLVE_ARGV = ["solve", "--m", "2:1,3:1", "--cutoff", "2"]


def _fractional_onemx(self):
    return CycloProduct.make("onemx", {1: F(1, 2)})


@pytest.mark.parametrize(
    "target, replacement, argv",
    [
        ("fracpow.cli.verify_solution", lambda *args: False, SOLVE_ARGV),
        ("fracpow.solver._round_limit", lambda *args: 0, SOLVE_ARGV),
        (
            "fracpow.cyclotomic.CycloProduct.to_onemx",
            _fractional_onemx,
            ["decide", "--m", "2:1,3:1"],
        ),
        ("fracpow.cyclotomic.euler_phi", lambda n: n + 1, ["cyclo", "phi", "35"]),
    ],
    ids=["residual", "contraction", "onemx-exponent", "phi-degree"],
)
def test_failed_self_checks_are_internal_errors(monkeypatch, target, replacement, argv):
    # each self-check path prints one JSON error object and exits 1;
    # an earlier test may have cached Phi_35, and a failed call caches
    # nothing
    cyclotomic_poly.cache_clear()
    monkeypatch.setattr(target, replacement)
    code, out, err = run_cli(argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["error"]["kind"] == "internal"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["decide", "--m", "2:1,3:1", "--rhs-poly", "1,x"], "--rhs-poly"),
        (["solve", "--m", "2:1,3:1", "--rhs-poly", "1,,2", "--cutoff", "2"], "--rhs-poly"),
        (["cyclo", "part", "--poly", "1,y", "--m", "2:1,3:1"], "--poly"),
        (["solve", "--m", "2:1,3:1", "--cutoff", "0"], "--cutoff"),
        (["enumerate", "--b", "2", "--thetas", "3/2", "--below", "-1"], "--below"),
        (["enumerate", "--b", "2", "--below", "z"], "--below"),
        (
            ["solve", "--m", "2:1,3:1", "--cutoff", "2", "--rhs-factors", "1:-1,1:2"],
            "--rhs-factors",
        ),
        (["solve", "--m", "2:1,3:1", "--cutoff", "2", "--rhs-factors", "2"], "--rhs-factors"),
        (["solve", "--m", "2:x", "--cutoff", "2"], "--m"),
        (["cyclo", "part", "--poly", "1,1,1", "--m", "3:1,2:1"], "--m"),
        (["enumerate", "--b", "2", "--thetas", "3/x", "--below", "1"], "--thetas"),
        (["solve", "--m", "2:1,3:1", "--cutoff", "1/0"], "--cutoff"),
        (
            ["solve", "--m", "2:1,4:1", "--cutoff", "2"]
            + ["--rhs-poly", "1", "--rhs-factors", "2:-1"],
            "--rhs-poly",
        ),
        (["construct", "--kind", "digit", "--k", "2", "--bound", "5"], "--period"),
    ],
)
def test_malformed_flag_values_name_their_flag(argv, flag):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert error["kind"] == "usage" and flag in error["message"]


def test_construct_and_count(tmp_path):
    path = tmp_path / "ruzsa.txt"
    code, out, _ = run_cli(
        ["construct", "--kind", "ruzsa", "--bound", "200", "--out", str(path)]
    )
    assert code == 0 and out == ""
    header, *lines = path.read_text().splitlines()
    assert header == "# bound=200"
    assert lines[:4] == ["0", "1", "4", "5"]

    code, out, _ = run_cli(["count", "--m", "1:1,2:1", "--set", str(path), "--upto", "200"])
    report = json.loads(out)
    assert report["values"] == [1] * 201
    assert report["constant_from"] == 0
    assert report["safe_bound"] == 200

    code, _, err = run_cli(["count", "--m", "1:1,2:1", "--set", str(path), "--upto", "201"])
    assert code == 2 and "safe bound" in json.loads(err)["error"]["message"]


def test_set_file_errors(tmp_path):
    count = ["count", "--m", "1:1,2:1", "--upto", "3", "--set"]
    code, out, err = run_cli(count + [str(tmp_path / "missing.txt")])
    assert (code, out) == (2, "") and json.loads(err)["error"]["kind"] == "usage"
    code, _, err = run_cli(count + [str(tmp_path)])
    assert code == 2 and json.loads(err)["error"]["kind"] == "usage"
    latin = tmp_path / "latin.txt"
    latin.write_bytes("# bound=3\n0\n\u00e9\n".encode("utf-8"))
    code, out, err = run_cli(count + [str(latin)])
    assert (code, out) == (1, "") and json.loads(err)["error"]["kind"] == "domain"
    code, out, err = run_cli(
        ["construct", "--kind", "ruzsa", "--bound", "5", "--out", str(tmp_path / "no" / "x")]
    )
    assert (code, out) == (2, "") and json.loads(err)["error"]["kind"] == "usage"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--m", "2:1,3:1", "--cutoff", "2", "--bogus"],
        ["solve", "--cutoff", "2"],
        ["tau", "--upto", "abc"],
        ["cyclo", "nope"],
        [],
    ],
)
def test_argparse_errors_are_json(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"]["kind"] == "usage"


def test_help_exits_zero():
    with pytest.raises(SystemExit) as info:
        run_cli(["tau", "--help"])
    assert info.value.code == 0


def test_construct_kinds():
    code, out, _ = run_cli(
        ["construct", "--kind", "digit", "--k", "2", "--period", "2", "--bound", "20"]
    )
    assert out == "# bound=20\n0\n1\n4\n5\n16\n17\n20\n"
    code, out, _ = run_cli(["construct", "--kind", "moser", "--k", "3", "--bound", "12"])
    assert out == "# bound=12\n0\n1\n2\n9\n10\n11\n"
    code, _, err = run_cli(["construct", "--kind", "ruzsa", "--k", "2", "--bound", "5"])
    assert code == 2
    code, _, err = run_cli(["construct", "--kind", "moser", "--bound", "5"])
    assert code == 2


def test_enumerate():
    code, out, _ = run_cli(["enumerate", "--b", "2", "--thetas", "3/2", "--below", "1"])
    assert json.loads(out) == ["0", "1/2", "3/4", "1"]
    code, out, _ = run_cli(["enumerate", "--b", "1", "--below", "3"])
    assert json.loads(out) == ["0", "1", "2", "3"]


def test_tau():
    code, out, _ = run_cli(["tau", "--upto", "10"])
    lines = out.strip().splitlines()
    assert lines[0] == "1\t1"
    assert lines[1] == "2\t-24"
    assert lines[9] == "10\t-115920"
    code, out, _ = run_cli(["tau", "--upto", "3", "--format", "json"])
    assert json.loads(out) == [[1, 1], [2, -24], [3, 252]]
    code, out, _ = run_cli(["tau", "--upto", "60", "--format", "json"])
    assert json.loads(out) == [[k, v] for k, v in enumerate(tau_oracle(60), 1)]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fracpow.cli", "cyclo", "phi", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1 + x"
