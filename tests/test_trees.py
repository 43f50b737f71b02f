from __future__ import annotations

import time
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from mulab.coding import string_code
from mulab.errors import MeasureZero, ParseError
from mulab.functionals import (
    TracedFunctional,
    _fan_replay,
    catalog_functional,
    catalog_names,
    omega_fan,
)
from mulab.sequences import PresentedSequence
from mulab.trees import (
    FlagTree,
    FullTree,
    PathTree,
    TracedTreeView,
    Truncation,
    _meets,
    format_tree,
    greedy_path,
    measure_positive,
    parse_tree,
    scf_check,
)

from oracles import (
    level_set,
    reference_fan_replay,
    reference_meets,
    reference_path_member,
    reference_scf,
    replay_outcome,
)
from test_cli import TREES

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


@given(st.lists(st.integers(0, 1), min_size=1, max_size=5),
       st.none() | st.integers(0, 24), st.integers(0, 40), st.data())
def test_path_membership_matches_the_bit_by_bit_oracle(bits, full_below,
                                                       length, data):
    # values on the path, one bit off it at any depth, or anywhere
    on_path = sum(bits[d % len(bits)] << (length - 1 - d) for d in range(length))
    value = data.draw(st.integers(0, length).map(lambda k: on_path ^ (1 << k >> 1))
                      | st.integers(-1, 1 << length))
    assert (PathTree(tuple(bits), full_below).member(length, value)
            == reference_path_member(bits, full_below, length, value))


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


@pytest.mark.parametrize("name", catalog_names())
def test_readme_lists_each_catalog_spelling(name):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert f"`{name}`" in readme


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
    # levels are read in ASCII digits only
    "truncate:²:full",
    "truncate:５:full",
    "path:1+full@٣",
])
def test_parse_rejects_bad_syntax(bad):
    with pytest.raises(ParseError):
        parse_tree(bad)


@pytest.mark.parametrize("text, rest", [("truncate:3", "truncate:3"),
                                        ("truncate:2: truncate:x:full",
                                         "truncate:x:full")])
def test_a_bad_truncation_is_named_from_where_it_starts(text, rest):
    with pytest.raises(ParseError, match=f"^bad truncate syntax: {rest!r}$"):
        parse_tree(text)


def test_nested_truncations_parse_in_time_linear_in_their_number():
    text = "truncate:3:" * 200_000 + "full"
    start = time.perf_counter()
    tree = parse_tree(text)
    assert format_tree(tree) == text
    assert time.perf_counter() - start < 10
    assert tree.member(3, 0) and not tree.member(4, 0)


def test_traced_view_answers_membership_under_the_string_coding():
    tree = FlagTree(0, EVENT_AT_2)
    view = TracedTreeView(tree)
    assert view.query(1, 1) is True
    assert view.query(2, 3) is False
    assert (1, 1) in view.trace
    assert (2, 3) in view.trace
    assert view.query(0, 0) is True
    assert view.top() == string_code(2, 3)


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


CATALOG_SPECS = ["const:0", "const:1", "const:2", "const:4", "proj:0", "proj:3",
                 "sum:3", "max:2", "max:3", "ifz:0:0:1", "ifz:3:1:2", "f0+f1",
                 "f0+f1+1"]

# bodies with replay leaves that no zero-padded cover element reaches (a 1
# answered at or past the bound), or whose answers fix bits below the cut
ADAPTIVE = [
    TracedFunctional("far", lambda v: 1 if v(5) else 2),
    TracedFunctional("gate", lambda v: v(5) if v(0) == 1 else 0),
    TracedFunctional("late", lambda v: 3 if v(4) else v(0) + v(1)),
    TracedFunctional("chain", lambda v: v(v(0) + 2) + 2 * v(1)),
    TracedFunctional("deep-zero", lambda v: 0 if v(6) else 3),
    TracedFunctional("edge", lambda v: 1 if v(2) else 2),
    TracedFunctional("split", lambda v: 2 if v(0) else 3),
]

SCF_TREES = [*SAMPLE_TREES, Truncation(1, FullTree()), Truncation(2, FullTree()),
             Truncation(2, FlagTree(1, EVENT_AT_2))]


@pytest.mark.parametrize("g", [*map(catalog_functional, CATALOG_SPECS), *ADAPTIVE],
                         ids=lambda g: g.name)
def test_scf_matches_the_brute_force_cover(g):
    for tree in SCF_TREES:
        assert scf_check(g, tree) == reference_scf(g, tree), format_tree(tree)


@pytest.mark.parametrize("spec,tree", [
    (f"{kind}:{n}", tree) for kind in ("const", "sum") for n in range(1, 9)
    for tree in ("full", f"truncate:{n - 1}:full")])
def test_scf_matches_the_brute_force_cover_on_the_fan_workload_shapes(spec, tree):
    g, tree = catalog_functional(spec), parse_tree(tree)
    assert scf_check(g, tree) == reference_scf(g, tree)


def test_scf_skips_leaves_no_cover_element_reaches():
    # bound 2; the only leaf meeting the tree answers 1 at index 5, where
    # every zero-padded cover element of length 2 reads 0
    far = ADAPTIVE[0]
    report = scf_check(far, Truncation(1, FullTree()))
    assert report == reference_scf(far, Truncation(1, FullTree()))
    assert (report.bound, report.antecedent, report.consequent) == (2, True, True)


# decision trees over indices 0-5 whose leaves add up more queries, so a
# run can ask an index it has already asked; an index -1 on some branch
# ends the replay in a ValueError
QUERY_TREES = st.recursive(
    st.tuples(st.integers(0, 3), st.lists(st.integers(0, 5), max_size=3)),
    lambda inner: st.tuples(st.integers(-1, 5), inner, inner),
    max_leaves=8)


def _decide(tree):
    def body(view):
        node = tree
        while len(node) == 3:
            index, if_zero, if_one = node
            node = if_one if view(index) else if_zero
        constant, tail = node
        return constant + sum(map(view, tail))
    return body


def _scf_outcome(check, g, tree):
    try:
        return check(g, tree)
    except ValueError as error:
        return type(error), str(error)


@settings(max_examples=60, deadline=None)
@given(QUERY_TREES)
def test_replay_and_cover_check_match_their_references_on_drawn_bodies(tree):
    g = TracedFunctional(repr(tree), _decide(tree))
    # fork and rerun runs the body once per node it reaches
    runs = []
    counted = TracedFunctional(g.name, lambda view: runs.append(None) or g.body(view))
    replay_outcome(reference_fan_replay, counted, 1 << 10)
    for node_budget in range(1, len(runs) + 2):
        assert (replay_outcome(_fan_replay, g, node_budget)
                == replay_outcome(reference_fan_replay, g, node_budget)), node_budget
    for scf_tree in SCF_TREES:
        assert (_scf_outcome(scf_check, g, scf_tree)
                == _scf_outcome(reference_scf, g, scf_tree)), format_tree(scf_tree)


@given(TREES.map(parse_tree), st.integers(0, 12), st.integers(0, 14))
def test_meets_matches_the_depth_first_walk(tree, length, extra):
    # every unanswered/0/1 pattern on the root bit, both sides of the cut
    # and one more index
    indices = sorted({0, 1, length - 1, length, length + 1, extra} - {-1})
    for pattern in product((None, 0, 1), repeat=len(indices)):
        answers = {i: bit for i, bit in zip(indices, pattern) if bit is not None}
        assert (_meets(tree, answers, length)
                == reference_meets(tree, answers, length)), answers


def test_scf_rejects_a_negative_cut():
    for tree in SCF_TREES:
        with pytest.raises(ValueError):
            scf_check(catalog_functional("const:-1"), tree)


@pytest.mark.parametrize("spec,tree", [("const:12", "truncate:11:full"),
                                       ("sum:5", "full"),
                                       ("ifz:3:1:2", "truncate:1:full")])
def test_scf_runs_g_as_often_as_the_fan_replay(spec, tree):
    g = catalog_functional(spec)
    body = g.body
    runs = []

    def counted(view):
        runs.append(None)
        return body(view)

    g.body = counted
    omega_fan(g)
    fan_runs = len(runs)
    runs.clear()
    scf_check(g, parse_tree(tree))
    assert len(runs) == fan_runs


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


# a bool in an integer field counts as 0 or 1 and is stored as that int,
# so the tree answers and prints as the int-built one does
@pytest.mark.parametrize("built,text", [
    (lambda: PathTree((True, False)), "path:10"),
    (lambda: PathTree((1,), full_below=True), "path:1+full@1"),
    (lambda: Truncation(True, FullTree()), "truncate:1:full"),
    (lambda: FlagTree(True, NO_EVENT), "flagtree:1:prefix=[];tail=[1]"),
], ids=["path-bits", "graft-level", "truncation-level", "root-bit"])
def test_a_bool_tree_field_is_stored_as_its_int(built, text):
    tree = built()
    assert format_tree(tree) == text
    parsed = parse_tree(text)
    assert repr(tree) == repr(parsed)  # True would print as True
    assert [tree.member(n, v) for n in range(4) for v in range(1 << n)] == [
        parsed.member(n, v) for n in range(4) for v in range(1 << n)]


@pytest.mark.parametrize("built,message", [
    (lambda: PathTree((0.0, 1.0)), "bits must be a nonempty binary tuple"),
    (lambda: PathTree((1,), full_below=2.0), "graft level must be nonnegative"),
    (lambda: Truncation(1.0, FullTree()), "truncation level must be nonnegative"),
    (lambda: FlagTree(1.0, NO_EVENT), "root_bit must be 0 or 1"),
], ids=["path-bits", "graft-level", "truncation-level", "root-bit"])
def test_a_non_integer_tree_field_is_refused(built, message):
    with pytest.raises(ValueError, match=message):
        built()
