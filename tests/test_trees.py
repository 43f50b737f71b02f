from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest

from mulab.coding import string_code
from mulab.errors import MeasureZero, ParseError
from mulab.functionals import catalog_functional
from mulab.sequences import PresentedSequence
from mulab.trees import (
    FlagTree,
    FullTree,
    PathTree,
    TracedTreeView,
    Truncation,
    format_tree,
    greedy_path,
    measure_positive,
    parse_tree,
    scf_check,
)

from oracles import level_set

EVENT_AT_2 = PresentedSequence((1, 1), (0,))
NO_EVENT = PresentedSequence((), (1,))

SAMPLE_TREES = [
    FullTree(),
    FlagTree(0, EVENT_AT_2),
    FlagTree(1, EVENT_AT_2),
    FlagTree(0, NO_EVENT),
    FlagTree(0, PresentedSequence((0,), (1,))),
    PathTree((0, 1, 1)),
    PathTree((1,), full_below=2),
    PathTree((0, 1), full_below=4),
    Truncation(0, FullTree()),
    Truncation(3, FullTree()),
    Truncation(2, PathTree((0, 1))),
]


@pytest.mark.parametrize("tree", SAMPLE_TREES, ids=format_tree)
def test_level_count_matches_brute_enumeration(tree):
    for n in range(7):
        assert tree.level_count(n) == len(level_set(tree, n))


@pytest.mark.parametrize("tree", SAMPLE_TREES, ids=format_tree)
def test_membership_is_prefix_closed(tree):
    for n in range(1, 7):
        for v in level_set(tree, n):
            assert tree.member(n - 1, v >> 1)


@pytest.mark.parametrize("tree", SAMPLE_TREES, ids=format_tree)
def test_member_rejects_out_of_range_values(tree):
    assert not tree.member(2, -1)
    assert not tree.member(2, 4)


def test_gated_branch_dies_exactly_at_the_event():
    tree = FlagTree(0, EVENT_AT_2)
    # value 1 at length 1 is the string "1", the gated side
    assert tree.member(1, 1)
    assert not tree.member(2, 0b10)
    assert not tree.member(2, 0b11)
    assert tree.level_count(1) == 2
    assert tree.level_count(2) == 2
    assert tree.level_count(3) == 4


def test_alive_looks_past_finite_survival():
    tree = FlagTree(0, EVENT_AT_2)
    assert tree.alive(1, 0)
    assert tree.member(1, 1) and not tree.alive(1, 1)
    assert Truncation(5, FullTree()).member(1, 0)
    assert not Truncation(5, FullTree()).alive(1, 0)


def test_measure_values():
    assert FullTree().measure_lower() == 1
    # the gated branch is a single path, so only the full half counts
    assert FlagTree(0, NO_EVENT).measure_lower() == Fraction(1, 2)
    for n in range(1, 9):
        assert FlagTree(0, NO_EVENT).level_count(n) == 2 ** (n - 1) + 1
    assert FlagTree(1, EVENT_AT_2).measure_lower() == Fraction(1, 2)
    assert PathTree((0, 1)).measure_lower() == 0
    assert PathTree((0, 1), full_below=4).measure_lower() == Fraction(1, 16)
    assert Truncation(3, FullTree()).measure_lower() == 0
    assert measure_positive(FullTree())
    assert not measure_positive(PathTree((1,)))


@pytest.mark.parametrize("tree,prefix,tail", [
    (FullTree(), (), (1,)),
    (FlagTree(1, EVENT_AT_2), (), (1,)),
    (FlagTree(0, NO_EVENT), (), (1,)),
    (FlagTree(0, EVENT_AT_2), (0,), (1,)),
    (PathTree((0, 1, 1), full_below=5), (0, 1, 1, 0, 1), (1,)),
    (PathTree((1,), full_below=2), (), (1,)),
])
def test_greedy_path_known_cases(tree, prefix, tail):
    assert greedy_path(tree) == PresentedSequence(prefix, tail)


@pytest.mark.parametrize("tree", [t for t in SAMPLE_TREES if measure_positive(t)],
                         ids=format_tree)
def test_greedy_path_stays_in_the_tree(tree):
    path = greedy_path(tree)
    for n in range(9):
        value = 0
        for d in range(n):
            value = (value << 1) | path.value(d)
        assert tree.member(n, value)


@pytest.mark.parametrize("tree", [
    PathTree((0, 1)),
    Truncation(4, FullTree()),
    Truncation(2, PathTree((1,), full_below=1)),
])
def test_greedy_path_needs_positive_measure(tree):
    with pytest.raises(MeasureZero):
        greedy_path(tree)


@pytest.mark.parametrize("text", [
    "full",
    "flagtree:0:prefix=[1];tail=[0]",
    "flagtree:1:prefix=[];tail=[2]",
    "path:0110",
    "path:1+full@3",
    "truncate:4:full",
    "truncate:2:path:01",
])
def test_parse_format_round_trip(text):
    assert format_tree(parse_tree(text)) == text


@pytest.mark.parametrize("text", [
    "full",
    "flagtree:0:prefix=[1];tail=[0]",
    "path:01",
    "path:1+full@3",
    "truncate:2:path:01",
    "truncate:1:full",
])
def test_readme_tree_spellings_parse_and_round_trip(text):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"`{text}`" in readme or f"'{text}'" in readme
    assert format_tree(parse_tree(text)) == text


@pytest.mark.parametrize("tree", SAMPLE_TREES, ids=format_tree)
def test_format_parse_round_trip(tree):
    assert parse_tree(format_tree(tree)) == tree


@pytest.mark.parametrize("bad", [
    "",
    "flagtree:2:prefix=[];tail=[1]",
    "flagtree:0",
    "path:",
    "path:012",
    "path:01+full@x",
    "truncate:x:full",
    "truncate:3",
    "bogus",
])
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(ParseError):
        parse_tree(bad)


def test_traced_view_answers_membership_under_the_string_coding():
    tree = FlagTree(0, EVENT_AT_2)
    view = TracedTreeView(tree)
    assert view.member(1, 1) is True
    assert view.member(2, 3) is False
    assert string_code(1, 1) in view.trace
    assert string_code(2, 3) in view.trace
    assert view.query(string_code(0, 0)) == 1


def test_scf_antecedent_and_consequent_both_hold():
    report = scf_check(catalog_functional("const:2"), Truncation(1, FullTree()))
    assert report.bound == 2
    assert report.cover_size == 4
    assert report.antecedent and report.consequent and report.implication


def test_scf_vacuous_on_the_full_tree():
    report = scf_check(catalog_functional("const:2"), FullTree())
    assert not report.antecedent
    assert not report.consequent
    assert report.implication


def test_scf_consequent_without_antecedent():
    report = scf_check(catalog_functional("f0+f1"), Truncation(0, FullTree()))
    assert report.bound == 2
    assert not report.antecedent
    assert report.consequent
    assert report.implication


@pytest.mark.parametrize("spec", ["const:1", "const:2", "proj:0", "f0+f1",
                                  "max:2", "ifz:0:0:1"])
@pytest.mark.parametrize("tree", SAMPLE_TREES, ids=format_tree)
def test_scf_implication_holds_across_the_grid(spec, tree):
    assert scf_check(catalog_functional(spec), tree).implication


def test_invalid_constructions_rejected():
    with pytest.raises(ValueError):
        FlagTree(2, NO_EVENT)
    with pytest.raises(ValueError):
        PathTree(())
    with pytest.raises(ValueError):
        PathTree((0, 2))
    with pytest.raises(ValueError):
        PathTree((1,), full_below=-1)
    with pytest.raises(ValueError):
        Truncation(-1, FullTree())
