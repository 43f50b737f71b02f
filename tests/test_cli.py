from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mulab.cli import RunReport, main
from mulab.errors import ParseError

EVENT_FLAG = "prefix=[1,1,1];tail=[0]"
QUIET_FLAG = "prefix=[];tail=[1]"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fields_of(out: str) -> dict[str, str]:
    report = RunReport.parse(out)
    return {"command": report.command, **dict(report.fields)}


def test_report_text_round_trip():
    report = RunReport("demo", (("alpha", "1"), ("note", "two words here")))
    assert RunReport.parse(report.to_text()) == report


def test_report_parse_requires_a_command_line():
    with pytest.raises(ParseError):
        RunReport.parse("alpha: 1")
    with pytest.raises(ParseError):
        RunReport.parse("no separator")


@pytest.mark.parametrize("route", ["ubin", "wwkl", "ivt"])
def test_routes_agree_with_direct_search(capsys, route):
    code, out, _ = run_cli(capsys, route, "--flag", EVENT_FLAG)
    assert code == 0
    got = fields_of(out)
    assert got["command"] == route
    assert got["fired"] == "True"
    assert got["witness"] == "3"
    assert got["agrees_with_direct_search"] == "True"


def test_wwkl_runs_past_the_old_budget_cliff(capsys):
    flag = f"prefix=[{','.join(['1'] * 21)},0];tail=[1]"
    code, out, _ = run_cli(capsys, "--json", "wwkl", "--flag", flag)
    assert code == 0
    got = json.loads(out)
    assert got["witness"] == "21"
    assert got["agrees_with_direct_search"] == "True"


def test_dq_route_fires_on_the_first_nonzero(capsys):
    code, out, _ = run_cli(capsys, "dq", "--flag", "prefix=[0,0,0];tail=[1]")
    assert code == 0
    got = fields_of(out)
    assert got["fired"] == "True"
    assert got["witness"] == "3"
    assert got["value"] == "7/8"
    assert got["certificate"] == "dq-series"


def test_ubin_route_details(capsys):
    code, out, _ = run_cli(capsys, "ubin", "--flag", EVENT_FLAG)
    assert code == 0
    got = fields_of(out)
    assert got["x_minus"] == "1/4"
    assert got["x_plus"] == "3/4"
    assert got["digit_minus"] == "0"
    assert got["digit_plus"] == "1"
    assert got["xi_bound"] == "4"
    assert got["search_bound"] == "6"


def test_quiet_flag_reports_no_witness(capsys):
    # the dq series sums to 1 only over the all-zero flag
    code, out, _ = run_cli(capsys, "dq", "--flag", "prefix=[];tail=[0]")
    assert code == 0
    got = fields_of(out)
    assert got["fired"] == "False"
    assert got["witness"] == "none"
    assert got["value"] == "1"


def test_weier_argmaxes(capsys):
    _, out, _ = run_cli(capsys, "weier", "--flag", EVENT_FLAG)
    got = fields_of(out)
    assert got["argmax_plus"] == "1/4"
    assert got["argmax_minus"] == "3/4"
    assert got["argmaxes_equal"] == "False"
    _, out, _ = run_cli(capsys, "weier", "--flag", QUIET_FLAG)
    got = fields_of(out)
    assert got["argmaxes_equal"] == "True"


def test_json_output_carries_the_same_fields(capsys):
    _, text_out, _ = run_cli(capsys, "ivt", "--flag", EVENT_FLAG)
    _, json_out, _ = run_cli(capsys, "--json", "ivt", "--flag", EVENT_FLAG)
    data = json.loads(json_out)
    assert data == fields_of(text_out)


def test_json_flag_works_after_the_subcommand(capsys):
    _, before, _ = run_cli(capsys, "--json", "dq", "--flag", EVENT_FLAG)
    _, after, _ = run_cli(capsys, "dq", "--flag", EVENT_FLAG, "--json")
    assert json.loads(before) == json.loads(after)


def test_seed_flag_works_in_both_positions(capsys):
    _, before, _ = run_cli(capsys, "--seed", "2", "corpus")
    _, after, _ = run_cli(capsys, "corpus", "--seed", "2")
    assert before == after
    assert fields_of(before)["seed"] == "2"


def test_corpus_report(capsys):
    code, out, _ = run_cli(capsys, "corpus", "--size", "30")
    assert code == 0
    got = fields_of(out)
    assert got["size"] == "30"
    assert int(got["with_event"]) + int(got["without_event"]) == 30


def test_fan_bound(capsys):
    code, out, _ = run_cli(capsys, "fan", "--functional", "ifz:3:1:2")
    assert code == 0
    assert fields_of(out)["fan_bound"] == "4"


def test_fan_with_tree_reports_the_cover(capsys):
    code, out, _ = run_cli(capsys, "fan", "--functional", "const:2",
                           "--tree", "truncate:1:full")
    assert code == 0
    got = fields_of(out)
    assert got["cover_bound"] == "2"
    assert got["cover_size"] == "4"
    assert got["antecedent"] == "True"
    assert got["consequent"] == "True"
    assert got["implication"] == "True"


def test_fan_budget_violation_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "fan", "--functional", "sum:25",
                             "--budget", "100")
    assert code == 1
    assert out == ""
    assert "property violation" in err


@pytest.mark.parametrize("budget", ["-1", "0"])
def test_fan_budget_below_one_is_exit_two(capsys, budget):
    code, out, err = run_cli(capsys, "fan", "--functional", "max:3",
                             "--budget", budget)
    assert code == 2
    assert out == ""
    assert err == f"input error: --budget must be at least 1, got {budget}\n"


def test_negative_corpus_size_is_exit_two(capsys):
    code, out, err = run_cli(capsys, "corpus", "--size", "-5")
    assert code == 2
    assert out == ""
    assert err == "input error: --size must be nonnegative, got -5\n"


def test_normalize_formula_text(capsys):
    code, out, _ = run_cli(
        capsys, "normalize", "--formula",
        "(all st f:1 (ex st n:0 (atom iszero f n)))")
    assert code == 0
    got = fields_of(out)
    assert got["steps"] == "none"
    assert got["certificate"] == "equivalence"
    assert got["foralls"] == "f:1"
    assert got["exists"] == "n:0"
    assert got["obligation"] == "(all f:1 (ex-in n (app t f) (atom iszero f n)))"


def test_normalize_reads_files_and_relativizes(capsys, tmp_path):
    path = tmp_path / "input.sexp"
    path.write_text("; note\n(all f:1 (ex n:0 (atom iszero f n)))\n")
    code, out, _ = run_cli(capsys, "normalize", "--formula", str(path),
                           "--relativize")
    assert code == 0
    got = fields_of(out)
    assert got["foralls"] == "f:1"
    assert got["exists"] == "n:0"


def test_normalize_rejects_stuck_markers_as_exit_one(capsys):
    code, _, err = run_cli(capsys, "normalize", "--formula",
                           "(and (all st x:0 (atom p x)) (atom q))")
    assert code == 1
    assert "property violation" in err


def test_over_deep_nesting_is_exit_two(capsys):
    deep = "(not " * 1000 + "(atom p)" + ")" * 1000
    code, out, err = run_cli(capsys, "normalize", "--formula", deep)
    assert code == 2
    assert out == ""
    assert err.startswith("input error: nesting too deep")
    assert err.count("\n") == 1


def test_bad_flag_syntax_is_exit_two(capsys):
    code, out, err = run_cli(capsys, "ubin", "--flag", "garbage")
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_bad_functional_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "fan", "--functional", "nope:3")
    assert code == 2
    assert "input error" in err


def test_bad_tree_is_exit_two(capsys):
    code, _, _ = run_cli(capsys, "fan", "--functional", "const:1",
                         "--tree", "triangle")
    assert code == 2


def test_missing_arguments_exit_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["ubin"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["sideways"])


@pytest.mark.skipif(shutil.which("mulab") is None,
                    reason="console script not on PATH")
def test_installed_entry_point():
    proc = subprocess.run(["mulab", "corpus", "--size", "20"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("command: corpus")


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mulab.cli", "--json", "ubin", "--flag",
         "prefix=[1,1,1];tail=[0]"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agrees_with_direct_search"] == "True"
