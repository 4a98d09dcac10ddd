"""Command-line behavior: formats, exit codes, determinism."""

import json

import pytest
from click.testing import CliRunner

from tautdr import cli
from tautdr.intersection import ProductCapabilityError
from tautdr.pixton import HeldOutMismatchError, PolynomialityError


@pytest.fixture()
def runner():
    return CliRunner()


# ---------------------------------------------------------------------------
# stable-graphs


def test_stable_graphs_counts(runner):
    result = runner.invoke(cli.main, ["stable-graphs", "--genus", "1", "--legs", "1"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["count"] == 2
    assert len(payload["graphs"]) == 2

    result = runner.invoke(cli.main, ["stable-graphs", "--genus", "0", "--legs", "3"])
    assert json.loads(result.output)["count"] == 1


def test_stable_graphs_rejects_unstable_type(runner):
    result = runner.invoke(cli.main, ["stable-graphs", "--genus", "0", "--legs", "2"])
    assert result.exit_code == 2


def test_stable_graphs_respects_bounds_flag(runner):
    # an explicit cap below the problem dimension turns the request away
    result = runner.invoke(
        cli.main,
        ["stable-graphs", "--genus", "0", "--legs", "4", "--bounds", "0"],
    )
    assert result.exit_code == 2
    result = runner.invoke(
        cli.main,
        ["stable-graphs", "--genus", "0", "--legs", "4", "--bounds", "1"],
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["count"] == 4


def test_stable_graphs_csv_and_text(runner):
    result = runner.invoke(
        cli.main,
        ["stable-graphs", "--genus", "1", "--legs", "1", "--format", "csv"],
    )
    lines = result.output.strip().splitlines()
    assert lines[0] == "index,genera,legs,edges,aut_order"
    assert len(lines) == 3
    result = runner.invoke(
        cli.main,
        ["stable-graphs", "--genus", "1", "--legs", "1", "--format", "text"],
    )
    assert "count: 2" in result.output


# ---------------------------------------------------------------------------
# dr


def test_dr_constant_term_integral(runner):
    result = runner.invoke(
        cli.main, ["dr", "--genus", "1", "--a", "0", "--degree", "1"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["constant_term_integral"] == "-1/24"
    assert payload["verdict"] == "not-applicable"


def test_dr_vanishing_verdict(runner):
    result = runner.invoke(
        cli.main, ["dr", "--genus", "0", "--a", "1,-1,0,0", "--degree", "1"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["verdict"] == "pairing-null"
    assert payload["pairings"]
    assert all(value == "0" for _, value in payload["pairings"])


def test_dr_rejects_unbalanced_vector(runner):
    result = runner.invoke(
        cli.main, ["dr", "--genus", "0", "--a", "1,1", "--degree", "0"]
    )
    assert result.exit_code == 2
    assert "sum" in result.output.lower()


def test_dr_rejects_bad_integer_list(runner):
    result = runner.invoke(
        cli.main, ["dr", "--genus", "0", "--a", "1,banana", "--degree", "0"]
    )
    assert result.exit_code == 2


def test_dr_accepts_explicit_samples(runner):
    result = runner.invoke(
        cli.main,
        [
            "dr",
            "--genus",
            "1",
            "--a",
            "0",
            "--degree",
            "2",
            "--r-samples",
            "6,7,8,9,10,11,12",
        ],
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["samples"] == [6, 7, 8, 9, 10, 11, 12]
    assert payload["verdict"] == "pairing-null"


def test_dr_names_what_an_incomplete_verdict_skipped(runner):
    reason = (
        "boundary generators of degree 2: dimension 5 exceeds "
        "PRODUCT_DIMENSION_BOUND = 4"
    )
    for fmt, verdict, skipped in [
        ("text", "verdict: incomplete", f"skipped: {reason}"),
        ("csv", "verdict,incomplete", f"skipped,{reason}"),
    ]:
        result = runner.invoke(
            cli.main,
            ["dr", "--genus", "2", "--a", "1,-1", "--degree", "3", "--format", fmt],
        )
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert verdict in lines
        assert [line for line in lines if line.startswith("skipped")] == [skipped]


def test_dr_exit_one_on_failing_verdict(runner, monkeypatch):
    def fake_check(g, A, d, samples=None):
        return {
            "problem": {"g": g, "A": list(A), "d": d},
            "samples": [],
            "class": {"ambient": [g, len(A)], "terms": []},
            "constant_term": {"ambient": [g, len(A)], "terms": []},
            "constant_term_integral": None,
            "pairings": [["psi_1", "1/2"]],
            "verdict": "FAIL",
        }

    monkeypatch.setattr(cli, "vanishing_check", fake_check)
    result = runner.invoke(
        cli.main, ["dr", "--genus", "0", "--a", "1,-1,0,0", "--degree", "1"]
    )
    assert result.exit_code == 1


@pytest.mark.parametrize(
    "error, code",
    [
        (ProductCapabilityError, 3),
        (HeldOutMismatchError, 4),
        (PolynomialityError, 4),
    ],
)
def test_dr_failure_exit_codes(runner, monkeypatch, error, code):
    # capability limits and internal-consistency failures each get their own
    # exit code and one stderr line instead of a traceback
    def raising(*args, **kwargs):
        raise error("the reason")

    monkeypatch.setattr(cli, "r_polynomial", raising)
    result = runner.invoke(
        cli.main, ["dr", "--genus", "1", "--a", "0", "--degree", "1"]
    )
    assert result.exit_code == code
    assert result.stdout == ""
    assert result.stderr == f"error: {error.__name__}: the reason\n"


def test_dr_csv_format(runner):
    result = runner.invoke(
        cli.main,
        ["dr", "--genus", "1", "--a", "0", "--degree", "1", "--format", "csv"],
    )
    lines = result.output.strip().splitlines()
    assert lines[0] == "key,value"
    keys = {line.split(",", 1)[0] for line in lines[1:]}
    assert "verdict" in keys


# ---------------------------------------------------------------------------
# loop-demo


def test_loop_demo_single_row(runner):
    result = runner.invoke(cli.main, ["loop-demo", "1", "--format", "csv"])
    assert result.exit_code == 0
    assert result.output.splitlines() == ["lhs,partial_rhs", "1,4"]


def test_loop_demo_three_rows(runner):
    result = runner.invoke(cli.main, ["loop-demo", "3", "--format", "csv"])
    assert result.output.splitlines() == [
        "lhs,partial_rhs",
        "1,4",
        "1,6",
        "1,8",
    ]


def test_loop_demo_rejects_nonpositive(runner):
    assert runner.invoke(cli.main, ["loop-demo", "0"]).exit_code == 2


def test_loop_demo_json(runner):
    result = runner.invoke(cli.main, ["loop-demo", "2"])
    payload = json.loads(result.output)
    assert [row["partial_rhs"] for row in payload["rows"]] == ["4", "6"]


# ---------------------------------------------------------------------------
# Determinism, output files


def test_identical_runs_are_byte_identical(runner, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["dr", "--genus", "0", "--a", "1,-1,0,0", "--degree", "1"]
    assert runner.invoke(cli.main, args + ["--out", str(out1)]).exit_code == 0
    assert runner.invoke(cli.main, args + ["--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_echo_excludes_destination(runner, tmp_path):
    out = tmp_path / "echo.json"
    args = [
        "stable-graphs",
        "--genus",
        "1",
        "--legs",
        "1",
        "--out",
        str(out),
    ]
    assert runner.invoke(cli.main, args).exit_code == 0
    payload = json.loads(out.read_text())
    assert "out" not in payload["config"]
    assert "seed" not in payload["config"]

