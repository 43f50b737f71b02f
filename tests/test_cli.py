from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import tomllib
from decimal import MAX_EMAX, MAX_PREC, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import mulab.cli
from mulab.cli import _text, main
from mulab.errors import (
    BoundViolation,
    BudgetExceeded,
    MalformedWitness,
    MeasureZero,
    NotInCbar,
    NotNormalizable,
    OutOfRange,
    ParseError,
    PropertyError,
    UnsupportedPresentation,
)
from mulab.formulas import ExIn, Quant, format_formula, parse_formula
from mulab.functionals import catalog_functional
from mulab.sequences import DEFAULT_BUDGET

from oracles import free_names
from test_formulas import marked_formulas, reused_name_formulas

EVENT_FLAG = "prefix=[1,1,1];tail=[0]"
QUIET_FLAG = "prefix=[];tail=[1]"


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_captured(*argv: str) -> tuple[int, str, str]:
    """run_cli for a hypothesis test, which must not share capsys."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_report(text: str) -> tuple[str, list[tuple[str, str]]]:
    """A printed report read back: the first ``command`` line names the
    command, and every other non-blank ``key: value`` line is a field."""
    command = None
    fields = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        key, sep, value = line.partition(": ")
        if not sep:
            raise ParseError(f"not a report line: {raw!r}")
        if key == "command" and command is None:
            command = value
        else:
            fields.append((key, value))
    if command is None:
        raise ParseError("report has no command line")
    return command, fields


def fields_of(out: str) -> dict[str, str]:
    command, fields = parse_report(out)
    return {"command": command, **dict(fields)}


def test_report_parse_requires_a_command_line():
    with pytest.raises(ParseError):
        parse_report("alpha: 1")
    with pytest.raises(ParseError):
        parse_report("no separator")


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


def test_wwkl_scales_to_event_one_hundred_thousand(capsys):
    # about 2m membership queries on strings up to m bits long, each
    # recorded once and never coded: only Xi codes the largest string
    m = 100_000
    flag = f"prefix=[{','.join(['1'] * m)},0];tail=[1]"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "wwkl", "--flag", flag)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert (got["witness"], got["search_bound"]) == ("100000", "100000")
    assert got["xi_bound"] == str(Decimal(2 ** (m + 1) - 1))
    assert elapsed < 15, f"wwkl at event {m} took {elapsed:.1f} s"


def test_long_redundant_prefix_canonicalizes_fast(capsys):
    # every prefix entry repeats the tail, so all are absorbed into it
    m = 100_000
    flag = f"prefix=[{','.join(['1'] * m)}];tail=[1]"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "ubin", "--flag", flag)
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    assert fields_of(out)["flag"] == "prefix=[];tail=[1]"
    assert elapsed < 5, f"a {m}-entry redundant prefix took {elapsed:.1f} s"


def test_dq_route_fires_on_the_first_nonzero(capsys):
    code, out, _ = run_cli(capsys, "dq", "--flag", "prefix=[0,0,0];tail=[1]")
    assert code == 0
    got = fields_of(out)
    assert got["fired"] == "True"
    assert got["witness"] == "3"
    assert got["value"] == "7/8"
    assert got["certificate"] == "dq-series"


# The first event at which a route's report held an int past the
# interpreter's 4300-digit limit on str(int): x_minus/x_plus, xi_bound,
# epsilon or dq's value grow like 2^m at event m.
FIRST_LONG_EVENT = {"wwkl": 14_284, "dq": 14_285, "ubin": 14_286,
                    "ivt": 14_286, "weier": 14_286}


@pytest.mark.parametrize("route,event", [
    (route, event) for route, first in FIRST_LONG_EVENT.items()
    for event in (first, 20_000)])
def test_routes_report_events_past_the_int_str_limit(capsys, route, event):
    if route == "dq":
        flag = f"prefix=[{','.join(['0'] * event)}];tail=[1]"
    else:
        flag = f"prefix=[{','.join(['1'] * event)}];tail=[0]"
    code, out, err = run_cli(capsys, route, "--flag", flag)
    assert (code, err) == (0, "")
    got = fields_of(out)
    if route == "weier":
        # weier reports no witness; epsilon = 2^(1 - m) names the event m
        assert got["event"] == "True"
        assert got["epsilon"] == f"1/{Decimal(2 ** (event - 1))}"
    else:
        assert got["witness"] == str(event)
    if route in ("ubin", "wwkl", "ivt"):
        assert got["agrees_with_direct_search"] == "True"


BELOW_DIGIT_LIMIT = [0, 1, -7, True, False, None, "word", Fraction(-3, 4),
                     Fraction(5), 10 ** 4299, -(10 ** 4299) + 1,
                     Fraction(1, 10 ** 4299 - 1)]
ABOVE_DIGIT_LIMIT = [10 ** 4300, -(2 ** 20_000), Fraction(1, 2 ** 19_999),
                     Fraction(-(3 ** 9000), 2 ** 20_000 + 1),
                     Fraction(3 ** 20_000, 7), Fraction(7, 3 ** 20_000),
                     # 5k to 300k digits, ints and Fractions of both signs
                     3 ** 10_480, -(7 ** 40_000),
                     Fraction(-(3 ** 12_000), 10 ** 5_000 + 1),
                     Fraction(7 ** 355_000, 3)]


def test_report_values_below_the_digit_limit_print_as_str():
    assert [_text(v) for v in BELOW_DIGIT_LIMIT] == \
        [str(v) for v in BELOW_DIGIT_LIMIT]


def test_report_values_above_the_digit_limit_print_as_unlimited_str():
    for value in ABOVE_DIGIT_LIMIT:
        with pytest.raises(ValueError):
            str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = [str(v) for v in ABOVE_DIGIT_LIMIT]
    finally:
        sys.set_int_max_str_digits(limit)
    assert [_text(v) for v in ABOVE_DIGIT_LIMIT] == expected


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


# one argv per subcommand, and fan also with a tree
REPORT_ARGVS = {
    **{route: (route, "--flag", EVENT_FLAG)
       for route in ("ubin", "wwkl", "ivt", "dq", "weier")},
    "fan": ("fan", "--functional", "sum:3"),
    "fan --tree": ("fan", "--functional", "const:2", "--tree", "truncate:1:full"),
    "normalize": ("normalize", "--formula",
                  "(all st f:1 (ex st n:0 (atom iszero f n)))"),
    "corpus": ("corpus", "--size", "30"),
}


@pytest.mark.parametrize("case", REPORT_ARGVS)
def test_json_output_carries_the_same_fields(capsys, case):
    # text and JSON come from one printer: same fields, in the same order
    _, text_out, _ = run_cli(capsys, *REPORT_ARGVS[case])
    _, json_out, _ = run_cli(capsys, "--json", *REPORT_ARGVS[case])
    assert list(json.loads(json_out).items()) == \
        list(fields_of(text_out).items())


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


def test_fan_cover_on_a_long_path_tree_is_fast(capsys):
    # the cover check walks the path down 8000 levels, two membership
    # queries a level, each linear in its length
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fan", "--functional", "const:8000",
                             "--tree", "path:01")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert (got["cover_bound"], got["antecedent"]) == ("8000", "False")
    assert elapsed < 5, f"const:8000 on path:01 took {elapsed:.1f} s"


def test_fan_cover_on_a_wide_full_tree_is_fast(capsys):
    # the one leaf answers nothing, so the cover check decides it without
    # building a string of the cut's 200,000 bits
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fan", "--functional", "const:200000",
                             "--tree", "full")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert (got["cover_bound"], got["antecedent"]) == ("200000", "False")
    assert elapsed < 2, f"const:200000 on full took {elapsed:.1f} s"


def test_fan_cover_of_a_million_bits_prints_in_full_and_fast(capsys):
    # cover_size is 2^1000000, 301,030 digits: Decimal(int) alone took
    # about 2 s to write it
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fan", "--functional", "const:1000000",
                             "--tree", "full")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    digits = fields_of(out)["cover_size"]
    assert len(digits) == 301_030
    with localcontext() as ctx:
        ctx.prec, ctx.Emax = MAX_PREC, MAX_EMAX
        assert Decimal(digits) == Decimal(2) ** 1_000_000
    assert elapsed < 1, f"const:1000000 on full took {elapsed:.1f} s"


def test_fan_cover_larger_than_the_budget_is_decided(capsys):
    code, out, err = run_cli(capsys, "fan", "--functional", "const:25",
                             "--tree", "truncate:24:full")
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert got["cover_size"] == "33554432"
    assert got["antecedent"] == "True"
    assert got["consequent"] == "True"


def test_fan_budget_violation_is_exit_one(capsys):
    code, out, err = run_cli(capsys, "fan", "--functional", "sum:25",
                             "--budget", "100")
    assert code == 1
    assert out == ""
    assert "property violation" in err


def test_fan_budget_counts_tree_nodes(capsys):
    # sum:3 has a 15-node tree
    code, out, err = run_cli(capsys, "fan", "--functional", "sum:3",
                             "--budget", "14")
    assert (code, out) == (1, "")
    assert err == "property violation: omega_fan: over 14 replay nodes\n"
    code, out, _ = run_cli(capsys, "fan", "--functional", "sum:3",
                           "--budget", "15")
    assert code == 0
    assert fields_of(out)["fan_bound"] == "3"


def test_fan_budget_defaults_to_the_library_budget(capsys):
    # the parser spells the default itself, so that the CLI need not
    # import mulab.sequences; this ties the two spellings together
    code, out, _ = run_cli(capsys, "fan", "--functional", "sum:3")
    assert code == 0
    assert fields_of(out)["node_budget"] == str(DEFAULT_BUDGET)


def test_bad_tree_is_exit_two_before_the_fan_replay(capsys):
    code, out, err = run_cli(capsys, "fan", "--functional", "sum:25",
                             "--tree", "bogus", "--budget", "100")
    assert code == 2
    assert out == ""
    assert err == "input error: unknown tree syntax: 'bogus'\n"


def test_fan_bound_is_the_same_with_a_tree(capsys):
    for spec in ("ifz:3:1:2", "sum:5", "const:2"):
        _, plain, _ = run_cli(capsys, "fan", "--functional", spec)
        _, with_tree, _ = run_cli(capsys, "fan", "--functional", spec,
                                  "--tree", "truncate:6:full")
        assert fields_of(with_tree)["fan_bound"] == fields_of(plain)["fan_bound"]


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


@pytest.mark.parametrize("size", [100_001, 10 ** 20])
def test_corpus_size_past_the_cap_is_exit_two_at_once(capsys, size):
    # the seeded filler draws each flag, so a huge --size would run for
    # as long as it takes to draw them; it is refused before any draw
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "corpus", "--size", str(size))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"input error: --size must be at most 100000, got {size}\n"


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


# a lifted binder whose name occurs in the side it passes is renamed
CAPTURES = {
    "forall-pull past a free name": (
        "(imp (atom p v) (all st v:0 (atom q v)))",
        "steps: forall-pull\ncertificate: equivalence\nforalls: v2:0\n"
        "exists: none\nmatrix: (imp (atom p v) (atom q v2))\n"
        "normal_form: (all st v2:0 (imp (atom p v) (atom q v2)))\n"
        "obligation: (all v2:0 (imp (atom p v) (atom q v2)))\n"),
    "one name bound on both sides": (
        "(imp (ex st v:0 (atom p v)) (all st v:0 (atom q v)))",
        "steps: R1a-flip-antecedent forall-pull\ncertificate: equivalence\n"
        "foralls: v2:0 v:0\nexists: none\nmatrix: (imp (atom p v2) (atom q v))\n"
        "normal_form: (all st v2:0 (all st v:0 (imp (atom p v2) (atom q v))))\n"
        "obligation: (all v2:0 (all v:0 (imp (atom p v2) (atom q v))))\n"),
    "exists-pull past a free name": (
        "(imp (atom p v) (ex st v:1 (atom q v)))",
        "steps: exists-pull\ncertificate: equivalence\nforalls: none\n"
        "exists: v2:1\nmatrix: (imp (atom p v) (atom q v2))\n"
        "normal_form: (ex st v2:1 (imp (atom p v) (atom q v2)))\n"
        "obligation: (ex-in v2 t (imp (atom p v) (atom q v2)))\n"),
    "flip past a free name": (
        "(imp (ex st v:0 (atom p v)) (atom q v))",
        "steps: R1a-flip-antecedent\ncertificate: equivalence\nforalls: v2:0\n"
        "exists: none\nmatrix: (imp (atom p v2) (atom q v))\n"
        "normal_form: (all st v2:0 (imp (atom p v2) (atom q v)))\n"
        "obligation: (all v2:0 (imp (atom p v2) (atom q v)))\n"),
}


@pytest.mark.parametrize("case", CAPTURES)
def test_lifting_a_binder_captures_no_name(capsys, case):
    text, rest = CAPTURES[case]
    code, out, err = run_cli(capsys, "normalize", "--formula", text)
    assert (code, err) == (0, "")
    assert out == f"command: normalize\nsource: {text}\n{rest}"


def test_normalize_reads_files_and_relativizes(capsys, tmp_path):
    path = tmp_path / "input.sexp"
    path.write_text("; note\n(all f:1 (ex n:0 (atom iszero f n)))\n")
    code, out, _ = run_cli(capsys, "normalize", "--formula", str(path),
                           "--relativize")
    assert code == 0
    got = fields_of(out)
    assert got["foralls"] == "f:1"
    assert got["exists"] == "n:0"


def test_normalize_text_wins_over_a_file_of_that_name(capsys, tmp_path,
                                                     monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "(atom p)").write_text("(atom q)\n")
    code, out, _ = run_cli(capsys, "normalize", "--formula", "(atom p)")
    assert code == 0
    assert fields_of(out)["source"] == "(atom p)"


def test_normalize_missing_file_is_exit_two(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "normalize", "--formula", "nope.sexp")
    assert code == 2
    assert out == ""
    assert err.startswith("input error: ")
    assert "formula file 'nope.sexp'" in err
    assert err.count("\n") == 1


def test_normalize_non_utf8_file_is_exit_two(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "latin1.sexp").write_bytes(b"(atom caf\xe9)\n")
    code, out, err = run_cli(capsys, "normalize", "--formula", "latin1.sexp")
    assert (code, out) == (2, "")
    assert err == ("input error: cannot read formula file 'latin1.sexp': "
                   "not UTF-8 at byte 9\n")


def test_normalize_nul_in_a_file_name_is_exit_two(capsys):
    code, out, err = run_cli(capsys, "normalize", "--formula", "a\x00b.sexp")
    assert (code, out) == (2, "")
    assert err == ("input error: cannot read formula file 'a\\x00b.sexp': "
                   "embedded null byte\n")


def test_normalize_rejects_stuck_markers_as_exit_one(capsys):
    code, _, err = run_cli(capsys, "normalize", "--formula",
                           "(and (all st x:0 (atom p x)) (atom q))")
    assert code == 1
    assert "property violation" in err


def test_ten_thousand_nested_negations_normalize(capsys):
    d = 10_000
    text = "(not " * d + "(all st x:0 (ex st y:0 (atom r x y)))" + ")" * d
    code, out, err = run_cli(capsys, "normalize", "--formula", text)
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert got["source"] == text
    assert got["steps"] == " ".join(["not-push"] * (2 * d))
    assert (got["foralls"], got["exists"]) == ("x:0", "y:0")
    assert got["matrix"] == "(not " * d + "(atom r x y)" + ")" * d


def test_a_large_pure_degree_is_not_deep_nesting(capsys):
    code, out, err = run_cli(capsys, "normalize", "--formula",
                             "(all st x:1200 (atom p x))")
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert got["steps"] == "none"
    assert got["foralls"] == "x:1200"
    assert got["source"] == "(all st x:1200 (atom p x))"


def test_a_deep_normal_form_prints(capsys):
    # R1b turns 600 marked number universals into 600 guarded ones, each
    # under its own implication: a matrix 1200 levels deep
    k = 600
    names = [f"x{j}" for j in range(k)]
    text = ("(imp " + "".join(f"(all st {v}:0 " for v in names)
            + "(atom p " + " ".join(names) + ")" + ")" * k + " (atom q))")
    code, out, err = run_cli(capsys, "normalize", "--formula", text)
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert got["steps"] == "R1b-bound-antecedent"
    assert (got["foralls"], got["exists"]) == ("none", "N:0")
    guarded = "".join(f"(all {v}:0 (imp (atom leq {v} N) " for v in names)
    assert got["matrix"] == ("(imp " + guarded + "(atom p " + " ".join(names)
                             + ")" + "))" * k + " (atom q))")


def test_relativize_walks_deep_nesting(capsys):
    d = 600
    text = "(not " * d + "(all x:0 (ex y:0 (atom r x y)))" + ")" * d
    code, out, err = run_cli(capsys, "normalize", "--formula", text,
                             "--relativize")
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert got["source"] == ("(not " * d + "(all st x:0 (ex st y:0 (atom r x y)))"
                             + ")" * d)
    assert got["steps"] == " ".join(["not-push"] * (2 * d))
    assert (got["foralls"], got["exists"]) == ("x:0", "y:0")
    assert got["matrix"] == "(not " * d + "(atom r x y)" + ")" * d


def test_herbrandizing_substitutes_through_a_deep_witness_body(capsys):
    d = 600
    text = ("(imp (all st x:0 (ex st y:0 " + "(not " * d + "(atom r x y)"
            + ")" * d + ")) (atom q))")
    code, out, err = run_cli(capsys, "normalize", "--formula", text)
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert got["steps"] == "R2-herbrandize R1b-bound-antecedent"
    assert (got["foralls"], got["exists"]) == ("Y:1", "N:0")
    assert got["matrix"] == ("(imp (all x:0 (imp (atom leq x N) " + "(not " * d
                             + "(atom r x (app Y x))" + ")" * d + ")) (atom q))")


def test_a_recursion_error_past_the_parser_is_a_bug(monkeypatch):
    # no walk refuses deep input, so a RecursionError anywhere in
    # normalize is a bug, not an input error, and must surface
    import mulab.formulas

    def overflow(formula):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(mulab.formulas, "to_normal_form", overflow)
    with pytest.raises(RecursionError):
        main(["normalize", "--formula", "(atom p)"])


# one run per layer, each past its parser: the layer's module and the
# name the runner looks up in it
PAST_THE_PARSERS = {
    "route": (["ubin", "--flag", EVENT_FLAG], "extractors", "ubin_extraction"),
    "cover": (["fan", "--functional", "const:1", "--tree", "full"], "trees",
              "scf_check"),
    "normalize": (["normalize", "--formula", "(atom p)"], "formulas",
                  "to_normal_form"),
}


def inject(monkeypatch, layer, error) -> list[str]:
    """Make the layer's looked-up name raise error("injected"); return
    the argv that reaches it."""
    argv, module, name = PAST_THE_PARSERS[layer]

    def broken(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(importlib.import_module(f"mulab.{module}"), name,
                        broken)
    return argv


@pytest.mark.parametrize("error", [ValueError, OutOfRange,
                                   UnsupportedPresentation, NotInCbar])
@pytest.mark.parametrize("layer", sorted(PAST_THE_PARSERS))
def test_an_error_past_the_parsers_is_a_bug(monkeypatch, capsys, layer, error):
    # only an InputError exits 2 and a PropertyError 1; anything else a
    # run raises is a bug
    argv = inject(monkeypatch, layer, error)
    with pytest.raises(error, match="injected"):
        main(argv)
    assert capsys.readouterr() == ("", "")


PROPERTY_ERRORS = [BoundViolation, BudgetExceeded, MalformedWitness,
                   MeasureZero, NotNormalizable]


def test_the_exit_one_class_is_exactly_the_property_errors():
    assert sorted(PropertyError.__subclasses__(), key=lambda c: c.__name__) \
        == PROPERTY_ERRORS


@pytest.mark.parametrize("error", PROPERTY_ERRORS)
@pytest.mark.parametrize("layer", sorted(PAST_THE_PARSERS))
def test_a_property_error_past_the_parsers_is_exit_one(monkeypatch, capsys,
                                                       layer, error):
    argv = inject(monkeypatch, layer, error)
    assert run_cli(capsys, *argv) == (1, "", "property violation: injected\n")


def test_deeply_nested_truncations_check_the_cover(capsys):
    # nested truncations are kept as they are, not flattened
    tree = "truncate:5:" * 2000 + "full"
    code, out, err = run_cli(capsys, "fan", "--functional", "const:1",
                             "--tree", tree)
    assert (code, err) == (0, "")
    got = fields_of(out)
    assert got["tree"] == tree
    _, once, _ = run_cli(capsys, "fan", "--functional", "const:1",
                         "--tree", "truncate:5:full")
    assert {**fields_of(once), "tree": tree} == got


def test_bad_flag_syntax_is_exit_two(capsys):
    code, out, err = run_cli(capsys, "ubin", "--flag", "garbage")
    assert code == 2
    assert out == ""
    assert "input error" in err


def test_bad_functional_is_exit_two(capsys):
    code, _, err = run_cli(capsys, "fan", "--functional", "nope:3")
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("spec", ["proj:-1", "ifz:0:-2:1", "sum:-3"])
def test_negative_functional_indices_are_exit_two(capsys, spec):
    code, out, err = run_cli(capsys, "fan", "--functional", spec)
    assert (code, out) == (2, "")
    assert err.startswith("input error:") and "needs" in err


# a spelling of a functional -> the catalog name it is echoed as
ECHOED_NAMES = {" f0 + f1 ": "f0+f1", "\tmax:4 \n": "max:4", "sum:04": "sum:4",
                "const:-05": "const:-5", "const:-0": "const:0",
                "f00 + 01": "f0+1", "1+f2+f0": "1+f2+f0"}


@pytest.mark.parametrize("tree", [(), ("--tree", "full")])
@pytest.mark.parametrize("spec", ECHOED_NAMES)
def test_fan_echoes_the_functional_it_built(capsys, spec, tree):
    # like the tree and the flag, the functional is echoed as what was
    # built from it (the catalog's name for it), not as typed, and that
    # name builds the same functional under the same name
    name = ECHOED_NAMES[spec]
    code, out, err = run_cli(capsys, "--json", "fan", "--functional", spec, *tree)
    if tree and name.startswith("const:-"):
        # the cover check refuses a negative value, naming the functional
        assert (code, out) == (2, "")
        assert f"but {name} gives" in err
    else:
        assert code == 0
        assert json.loads(out)["functional"] == name
    assert catalog_functional(name).name == name


def test_bad_tree_is_exit_two(capsys):
    code, _, _ = run_cli(capsys, "fan", "--functional", "const:1",
                         "--tree", "triangle")
    assert code == 2


HUGE = "1" * 5000  # past the interpreter's 4300-digit limit on int(str)

UNUSABLE_ARGUMENTS = [
    # digits are ASCII: str.isdigit() also takes superscripts
    (["fan", "--functional", "const:1", "--tree", "truncate:²:full"],
     "bad truncate syntax: 'truncate:²:full'"),
    (["fan", "--functional", "const:1", "--tree", "path:1+full@²"],
     "bad graft level in 'path:1+full@²'"),
    (["fan", "--functional", "f²"], "unknown functional 'f²'"),
    (["fan", "--functional", "f0+²"], "unknown functional 'f0+²'"),
    # a number past the digit limit is refused where it is read
    (["ubin", "--flag", f"prefix=[{HUGE}];tail=[1]"],
     f"bad number list in 'prefix=[{HUGE}];tail=[1]'"),
    (["fan", "--functional", "const:1", "--tree", f"truncate:{HUGE}:full"],
     f"bad truncate syntax: 'truncate:{HUGE}:full'"),
    (["fan", "--functional", "const:1", "--tree", f"path:1+full@{HUGE}"],
     f"bad graft level in 'path:1+full@{HUGE}'"),
    (["fan", "--functional", f"f{HUGE}"], f"unknown functional 'f{HUGE}'"),
    (["normalize", "--formula", f"(all x:{HUGE} (atom p x))"],
     f"bad type '{HUGE}' in x:{HUGE}: degree {HUGE} is past 10000"),
    # the cover check cuts at g's values, so they must be naturals
    (["fan", "--functional", "const:-5", "--tree", "full"],
     "the cover check needs natural values, but const:-5 gives -5"),
    # each catalog kind names its least argument value
    (["fan", "--functional", "proj:-1"], "proj:N needs N >= 0"),
    (["fan", "--functional", "sum:-3"], "sum:N needs N >= 0"),
    (["fan", "--functional", "max:0"], "max:N needs N >= 1"),
    (["fan", "--functional", "ifz:0:-2:1"], "ifz:I:J:K needs I, J, K >= 0"),
    (["fan", "--functional", "proj:x"], "bad functional spec 'proj:x'"),
    (["fan", "--functional", "const:1:2"], "unknown functional 'const:1:2'"),
    (["fan", "--functional", "sum"], "unknown functional 'sum'"),
    # blanks may stand around the punctuation of a flag, not inside a number
    (["ubin", "--flag", "prefix=[1 2];tail=[3]"],
     "bad number list in 'prefix=[1 2];tail=[3]'"),
    # each entry between commas is one number, and a flag's syntax admits
    # only ASCII digits, commas and blanks
    (["ubin", "--flag", "prefix=[1,,2];tail=[3]"],
     "bad number list in 'prefix=[1,,2];tail=[3]'"),
    (["ubin", "--flag", "prefix=[1,];tail=[3]"],
     "bad number list in 'prefix=[1,];tail=[3]'"),
    (["ubin", "--flag", "prefix=[+1];tail=[3]"],
     "bad sequence syntax: 'prefix=[+1];tail=[3]'"),
    (["ubin", "--flag", "prefix=[1_0];tail=[3]"],
     "bad sequence syntax: 'prefix=[1_0];tail=[3]'"),
    (["ubin", "--flag", "prefix=[٣];tail=[3]"],
     "bad sequence syntax: 'prefix=[٣];tail=[3]'"),
    (["ubin", "--flag", "prefix=[1];tail=[ ]"], "tail must be nonempty"),
]


@pytest.mark.parametrize("argv, message", UNUSABLE_ARGUMENTS,
                         ids=[str(i) for i in range(len(UNUSABLE_ARGUMENTS))])
def test_unusable_arguments_are_exit_two_and_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


# what the lab accepts: flags with small values, every catalog form and
# every tree form
FLAGS = st.builds(
    lambda prefix, tail: (f"prefix=[{','.join(map(str, prefix))}];"
                          f"tail=[{','.join(map(str, tail))}]"),
    st.lists(st.integers(0, 5), max_size=30),
    st.lists(st.integers(0, 5), min_size=1, max_size=5))
SMALL = st.integers(0, 7)
TREES = st.recursive(
    st.one_of(
        st.just("full"),
        st.builds("flagtree:{}:{}".format, st.integers(0, 1), FLAGS),
        st.builds(lambda bits, graft: f"path:{bits}" + (
            "" if graft is None else f"+full@{graft}"),
            st.text("01", min_size=1, max_size=4), st.none() | SMALL)),
    lambda inner: st.builds("truncate:{}:{}".format, SMALL, inner),
    max_leaves=3)
SUM_TERMS = st.lists(st.builds("f{}".format, SMALL) | st.builds(str, SMALL),
                     min_size=1, max_size=3)


@st.composite
def fan_arguments(draw):
    tree = draw(st.none() | TREES)
    # the cover check needs natural values; the fan bound takes any
    const = st.integers(0 if tree else -7, 7)
    functional = draw(st.one_of(
        st.builds("const:{}".format, const),
        st.builds("proj:{}".format, SMALL),
        st.builds("sum:{}".format, SMALL),
        st.builds("max:{}".format, st.integers(1, 7)),
        st.builds("ifz:{}:{}:{}".format, SMALL, SMALL, SMALL),
        SUM_TERMS.filter(lambda ts: any(t[0] == "f" for t in ts))
        .map("+".join)))
    return ["fan", "--functional", functional] + (
        [] if tree is None else ["--tree", tree])


@pytest.mark.parametrize("route", ["ubin", "wwkl", "ivt", "dq", "weier"])
@settings(max_examples=25, deadline=None)
@given(flag=FLAGS)
def test_valid_flags_exit_zero(route, flag):
    code, _, err = run_captured(route, "--flag", flag)
    assert (code, err) == (0, "")


@st.composite
def long_flags(draw):
    """(prefix, tail) of a flag at the hard cases: a prefix of nonzero
    fill 1-9 whose length is log-uniform up to 1000, one zero at a drawn
    index of it or none, and a tail of period 1-4 with values 0-9."""
    bits = draw(st.integers(0, 10))
    length = draw(st.integers(1 << bits >> 1, min(1 << bits, 1000)))
    fill = draw(st.randoms(use_true_random=False))
    prefix = [fill.randint(1, 9) for _ in range(length)]
    if length:
        zero = draw(st.none() | st.integers(0, length - 1))
        if zero is not None:
            prefix[zero] = 0
    return prefix, draw(st.lists(st.integers(0, 9), min_size=1, max_size=4))


# the far end of the range: an event in the prefix at 999, and one in
# the tail at 1001
LONG_EXAMPLES = [([1] * 999 + [0], [1]), ([7] * 1000, [3, 0])]


def flag_text(prefix, tail) -> str:
    return (f"prefix=[{','.join(map(str, prefix))}];"
            f"tail=[{','.join(map(str, tail))}]")


def first_index(prefix, tail, hit) -> str:
    """The first index whose value hits, by a scan of the prefix and one
    period, as the route reports it."""
    return next((str(i) for i, v in enumerate(prefix + tail) if hit(v)), "none")


@pytest.mark.parametrize("route", ["ubin", "wwkl", "ivt"])
@settings(max_examples=30, deadline=None)
@given(flag=long_flags())
@example(flag=LONG_EXAMPLES[0])
@example(flag=LONG_EXAMPLES[1])
def test_long_flags_agree_with_a_direct_scan(route, flag):
    code, out, err = run_captured(route, "--flag", flag_text(*flag))
    assert (code, err) == (0, "")
    got = fields_of(out)
    event = first_index(*flag, lambda v: v == 0)
    assert (got["witness"], got["mu_exact"]) == (event, event)
    assert got["fired"] == str(event != "none")
    assert got["agrees_with_direct_search"] == "True"


@settings(max_examples=30, deadline=None)
@given(flag=long_flags())
@example(flag=LONG_EXAMPLES[0])
@example(flag=LONG_EXAMPLES[1])
def test_long_flags_and_their_mirrors_find_the_first_nonzero(flag):
    # the mirror swaps zero and nonzero, so its first nonzero lies deep
    prefix, tail = flag
    for flag in (flag, ([int(not v) for v in prefix], [int(not v) for v in tail])):
        code, out, err = run_captured("dq", "--flag", flag_text(*flag))
        assert (code, err) == (0, "")
        witness = first_index(*flag, lambda v: v != 0)
        assert fields_of(out)["witness"] == witness


@settings(max_examples=30, deadline=None)
@given(flag=long_flags())
@example(flag=LONG_EXAMPLES[0])
@example(flag=LONG_EXAMPLES[1])
def test_long_flags_split_the_argmaxes_exactly_when_they_fire(flag):
    code, out, err = run_captured("weier", "--flag", flag_text(*flag))
    assert (code, err) == (0, "")
    got = fields_of(out)
    quiet = first_index(*flag, lambda v: v == 0) == "none"
    assert got["argmaxes_equal"] == str(quiet)
    assert got["event"] == str(not quiet)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(-10 ** 6, 10 ** 6), size=st.integers(0, 30))
def test_valid_corpus_arguments_exit_zero(seed, size):
    code, _, err = run_captured("corpus", "--seed", str(seed),
                                "--size", str(size))
    assert (code, err) == (0, "")


@settings(max_examples=100, deadline=None)
@given(argv=fan_arguments())
def test_valid_fan_arguments_never_exit_two(argv):
    code, out, err = run_captured(*argv)
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith("property violation: ")
        assert err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(formula=marked_formulas())
def test_printed_formulas_normalize_or_get_stuck(formula):
    code, out, err = run_captured("normalize", "--formula",
                                  format_formula(formula))
    assert code in (0, 1)
    if code == 1:
        assert out == "" and err.startswith("property violation: ")


@settings(max_examples=120, deadline=None)
@given(formula=reused_name_formulas())
@example(formula=parse_formula("(imp (ex st v:0 (atom p v)) (all st v:0 (atom q v)))"))
@example(formula=parse_formula("(imp (atom p u) (ex st u:1 (atom q (app u c))))"))
def test_printed_normal_forms_parse_back_with_the_source_free_names(formula):
    code, out, err = run_captured("normalize", "--formula", format_formula(formula))
    if code == 1:  # stuck, or a witness in head position
        assert out == "" and err.startswith("property violation: ")
        return
    assert (code, err) == (0, "")
    got = fields_of(out)
    source = parse_formula(got["source"])
    normal_form = parse_formula(got["normal_form"])
    obligation = parse_formula(got["obligation"])
    assert free_names(normal_form) == free_names(source)
    # the obligation names its witnesses free: the entry bounds below
    # its universals, one for each existential
    foralls, exists = (() if got[k] == "none" else got[k].split()
                       for k in ("foralls", "exists"))
    node = obligation
    for _ in foralls:
        assert isinstance(node, Quant)
        node = node.body
    witnesses = set()
    for _ in exists:
        assert isinstance(node, ExIn)
        witnesses.add(node.bound if isinstance(node.bound, str) else node.bound.head)
        node = node.body
    assert free_names(obligation) == free_names(source) | witnesses
    assert not witnesses & free_names(source)


SUBCOMMANDS = [("ubin", "binary expansion route"),
               ("wwkl", "tree path route"),
               ("ivt", "intermediate value route"),
               ("dq", "rational witness route"),
               ("weier", "maximum location pair"),
               ("fan", "branch-on-demand bounds"),
               ("normalize", "drive a formula to normal form"),
               ("corpus", "describe the seeded flag corpus")]


def test_the_flag_table_drives_the_parser(monkeypatch, capsys):
    # one subcommand per table row, in table order, with the row's help
    # text; the five flag commands come first and take a required --flag
    table = [(name, help_text)
             for name, (help_text, _, _) in mulab.cli._COMMANDS.items()]
    assert table == SUBCOMMANDS
    flag_commands = [name for name, (_, run, _) in mulab.cli._COMMANDS.items()
                     if run is mulab.cli._run_flag]
    assert flag_commands == [name for name, _ in SUBCOMMANDS[:5]]
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert re.findall(r"^    (\w+) +(\S.*)$", out, re.M) == SUBCOMMANDS
    for command in flag_commands:
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"mulab {command}: error: the following "
                            "arguments are required: --flag\n")


BUILD_PARSER = mulab.cli._build_parser


def cli_outcome(monkeypatch, argv: list[str], equip) -> tuple:
    """What main(argv) does when its parser gives options to the commands
    equip(named) names, for the set named that main asks for: its return
    value or SystemExit code, stdout, stderr and, where main returns, the
    parsed arguments."""
    parsed = []

    def build_parser(named: set) -> argparse.ArgumentParser:
        parser = BUILD_PARSER(equip(named))
        parse = parser.parse_args

        def parse_args(args: list[str]) -> argparse.Namespace:
            parsed.append(parse(args))
            return parsed[-1]

        parser.parse_args = parse_args
        return parser

    monkeypatch.setattr(mulab.cli, "_build_parser", build_parser)
    monkeypatch.setenv("COLUMNS", "80")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue(), [vars(a) for a in parsed]


def every_command(named: set) -> set:
    return set(mulab.cli._COMMANDS)


# argvs whose outcome a parser built for every command sets: help at each
# level, abbreviations, command names as option values or after "--", a
# missing or unknown command, a missing option and extra arguments
PARSER_CASES = [
    ["--help"], *[[command, "--help"] for command, _ in SUBCOMMANDS],
    ["--he"], ["-h", "ubin"], ["ubin", "-h", "fan"],
    ["ubin", "--fl", EVENT_FLAG], ["corpus", "--si", "3", "--se", "2"],
    ["--seed", "fan", "ubin", "--flag", "x"], ["--seed=ubin", "fan"],
    ["--seed", "2", "--json", "dq", "--flag", EVENT_FLAG],
    ["--", "ubin"], ["--", "ubin", "--flag", EVENT_FLAG],
    ["--bogus", "fan", "ubin"],
    [], ["--json"], ["sideways"], ["ubin"], ["fan", "--tree", "full"],
    ["ubin", "--flag", EVENT_FLAG, "extra"],
    ["ubin", "--flag", EVENT_FLAG, "fan"],
    ["normalize", "--formula", "(atom p)", "--relativize", "corpus"],
]


@pytest.mark.parametrize("argv", PARSER_CASES,
                         ids=lambda argv: " ".join(argv) or "no arguments")
def test_the_parser_for_the_named_command_acts_as_the_full_one(monkeypatch,
                                                              argv):
    outcome = cli_outcome(monkeypatch, argv, lambda named: named)
    assert outcome == cli_outcome(monkeypatch, argv, every_command)
    code, _, _, parsed = outcome
    assert len(parsed) == isinstance(code, int)


def test_the_parser_cases_catch_a_parser_for_the_last_command_name(
        monkeypatch):
    # the first command name in argv is the one argparse runs; a parser
    # built for the last one differs from the full parser on some case
    def last_named(argv: list[str]):
        names = [arg for arg in argv if arg in mulab.cli._COMMANDS]
        return lambda named: set(names[-1:]) or {None}

    differing = [argv for argv in PARSER_CASES
                 if cli_outcome(monkeypatch, argv, last_named(argv))
                 != cli_outcome(monkeypatch, argv, every_command)]
    assert differing == [["ubin", "-h", "fan"], ["--bogus", "fan", "ubin"],
                         ["ubin", "--flag", EVENT_FLAG, "fan"],
                         ["normalize", "--formula", "(atom p)", "--relativize",
                          "corpus"]]


def test_a_dq_argv_gives_options_to_dq_only(monkeypatch):
    asked = []
    cli_outcome(monkeypatch, ["dq", "--flag", EVENT_FLAG],
                lambda named: asked.append(named) or named)
    assert asked == [{"dq"}]
    (subparsers,) = [action for action in BUILD_PARSER({"dq"})._actions
                     if isinstance(action, argparse._SubParsersAction)]
    options = {name: [action.dest for action in parser._actions]
               for name, parser in subparsers.choices.items()}
    assert options == {**{name: [] for name, _ in SUBCOMMANDS},
                       "dq": ["help", "json", "seed", "flag"]}


def undescribed_options(help_text: str) -> list[str]:
    """The options in help_text's option list printed with no
    description: argparse sets a description two or more blanks after
    the option, or on the next line, indented past it."""
    lines = help_text.splitlines()
    listed = lines[lines.index("options:") + 1:]
    missing = []
    for line, follows in zip(listed, listed[1:] + [""]):
        if not line.startswith("  -"):
            continue
        option, _, description = line.strip().partition("  ")
        if not description.strip() and not (follows.startswith("   ")
                                            and follows.strip()):
            missing.append(option)
    return missing


def test_every_option_of_every_subcommand_says_what_it_does(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    for command, _ in SUBCOMMANDS:
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        assert "--json" in help_text and "--seed" in help_text
        assert undescribed_options(help_text) == [], command


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


CONSOLE_RUN = """
import importlib, sys
module, name, *args = sys.argv[1:]
sys.argv = ["mulab", *args]
getattr(importlib.import_module(module), name)()
"""


def test_console_script_target_runs_without_installing():
    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as file:
        scripts = tomllib.load(file)["project"]["scripts"]
    target = re.fullmatch(r"([\w.]+):(\w+)", scripts["mulab"])
    assert target is not None, scripts

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", CONSOLE_RUN, target[1], target[2], *args],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(root / "src")})

    ok = run("corpus", "--size", "20")
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("command: corpus")
    assert run("corpus", "--size", "-1").returncode == 2


def test_module_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "mulab.cli", "--json", "ubin", "--flag",
         "prefix=[1,1,1];tail=[0]"],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["agrees_with_direct_search"] == "True"


COLD_START = """
import contextlib, io, sys
import mulab.cli
loaded = ["mulab.formulas" in sys.modules]
for argv in (["ubin", "--flag", "prefix=[1];tail=[0]"],
             ["fan", "--functional", "sum:3", "--tree", "full"],
             ["normalize", "--formula", "(all st f:1 (atom iszero f f))"]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = mulab.cli.main(argv)
    loaded.append((code, "mulab.formulas" in sys.modules))
print(loaded)
"""


def test_only_normalize_loads_the_formula_layer():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stderr == ""
    assert proc.stdout == "[False, (0, False), (0, False), (0, True)]\n"


LOADED_LAYERS = """
import contextlib, io, sys
import mulab.cli
def layers():
    return sorted(name for name in sys.modules
                  if name.split(".")[0] == "mulab")
print(layers())
with contextlib.redirect_stdout(io.StringIO()):
    code = mulab.cli.main(sys.argv[1:])
print(code, layers())
print("fractions" in sys.modules, "decimal" in sys.modules)
"""

CLI_LAYERS = ["mulab", "mulab.cli", "mulab.errors"]
FAN_LAYERS = sorted(CLI_LAYERS + ["mulab.coding", "mulab.functionals",
                                  "mulab.sequences", "mulab.trees",
                                  "mulab.value"])
ROUTE_LAYERS = sorted(FAN_LAYERS + ["mulab.extractors", "mulab.reals"])
COMMAND_LAYERS = [
    *[([route, "--flag", "prefix=[1,1,0];tail=[1]"], ROUTE_LAYERS)
      for route in ("ubin", "wwkl", "ivt", "dq", "weier")],
    (["fan", "--functional", "sum:3"], FAN_LAYERS),
    (["fan", "--functional", "sum:3", "--tree", "full"], FAN_LAYERS),
    (["normalize", "--formula", "(all st f:1 (ex st n:0 (atom iszero f n)))"],
     sorted(CLI_LAYERS + ["mulab.formulas", "mulab.value"])),
    (["corpus", "--size", "20"],
     sorted(CLI_LAYERS + ["mulab.corpus", "mulab.sequences", "mulab.value"])),
]


@pytest.mark.parametrize("argv, layers", COMMAND_LAYERS,
                         ids=[" ".join(argv[:1] + argv[3:4])
                              for argv, _ in COMMAND_LAYERS])
def test_each_command_loads_only_its_own_layers(argv, layers):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_LAYERS, *argv], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stderr == ""
    cold, run, numeric = proc.stdout.splitlines()
    assert cold == repr(CLI_LAYERS)
    assert run == f"0 {layers!r}"
    if argv[0] == "normalize":
        assert numeric == "False False"


UNUSED_MODULES = """
import sys
import mulab.cli
import mulab.formulas
print(sorted(set(sys.modules) & {"dataclasses", "inspect", "ast", "dis",
                                 "tokenize"}))
"""


def test_the_value_classes_import_no_code_generation():
    # the value classes share one hand-written constructor on
    # mulab.value.Value, so nothing pulls in dataclasses or the modules
    # it needs to generate code
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", UNUSED_MODULES], capture_output=True,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.stderr == ""
    assert proc.stdout == "[]\n"
