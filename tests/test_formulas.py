from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from importlib import resources
from itertools import count
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, find, given, settings, strategies as st

import mulab.formulas
from mulab.errors import FormulaScopeError, NotNormalizable, ParseError
from mulab.formulas import (
    And,
    App,
    Arrow,
    Atom,
    Base,
    ExIn,
    Implies,
    NormalForm,
    Not,
    Or,
    Quant,
    RuleStep,
    RuleTrace,
    Seq,
    extraction_obligation,
    format_formula,
    is_internal,
    parse_formula,
    parse_type,
    relativize_st,
    replay,
    to_normal_form,
)

from oracles import (
    _internal, _kids, _marked, _symbols, _term_symbols, _walk, alpha_equal,
    formula_depth, marked_measure, preorder, reference_normalize, replace_at,
    subformula_at,
)


def fixture_text(name: str) -> str:
    return (resources.files("mulab") / "fixtures" / name).read_text()


FIXTURES = {
    "pi01_transfer": (("R1c-bound-consequent",), "equivalence"),
    "seq_extensionality": (("R1b-bound-antecedent",), "equivalence"),
    "tree_extensionality": (("forall-pull", "R1b-bound-antecedent"), "equivalence"),
    "ubin_to_transfer": (("R1a-flip-antecedent", "R2-herbrandize", "R3-drop-st",
                          "forall-pull", "R1c-bound-consequent", "exists-pull"),
                         "implication"),
    "standard_part": (("R4-idealize",), "equivalence"),
}


# ---------------------------------------------------------------------------
# types

def test_pure_types_print_as_degrees():
    assert format_formula(Base()) == "0"
    assert format_formula(Arrow(Base(), Base())) == "1"
    assert format_formula(Arrow(Arrow(Base(), Base()), Base())) == "2"


def test_parse_type_spot_values():
    assert parse_type("2") == Arrow(Arrow(Base(), Base()), Base())
    assert parse_type("0*") == Seq(Base())
    assert parse_type("1*") == Seq(Arrow(Base(), Base()))
    assert parse_type("0->0") == parse_type("1")
    assert parse_type("(0->0)->0") == parse_type("2")
    assert parse_type("1->0->0") == Arrow(parse_type("1"), parse_type("1"))


@pytest.mark.parametrize("text", ["0", "1", "3", "0*", "1**", "(1->1)",
                                  "(1->1)*", "2->1", "(0*->0)"])
def test_type_round_trip(text):
    t = parse_type(text)
    assert parse_type(format_formula(t)) == t


@pytest.mark.parametrize("text", ["(0->1)*", "(0->1)**", "((0->1)->0)*", "1*", "(0*->0)"])
def test_canonical_type_spellings_print_as_read(text):
    # an arrow inside a sequence type writes its parentheses once
    assert format_formula(parse_type(text)) == text
    binder = f"(all st F:{text} (atom p F))"
    assert format_formula(parse_formula(binder)) == binder


@pytest.mark.parametrize("bad", ["", "x", "0->", "(0", "0)", "*", "0 0", "²", "٣", "1²"])
def test_parse_type_rejects_garbage(bad):
    with pytest.raises(ParseError):
        parse_type(bad)


def test_a_pure_degree_is_built_and_printed_without_recursion():
    t = parse_type("10000")
    assert format_formula(t) == "10000"
    for _ in range(10000):
        assert t.right == Base()
        t = t.left
    assert t == Base()
    # a digit stands for that many nested arrows, so the parser bounds it
    with pytest.raises(ParseError, match="degree 10001 is past 10000"):
        parse_type("10001")


# ---------------------------------------------------------------------------
# parsing and printing

GOOD_FORMULAS = [
    "(atom p)",
    "(atom iszero f n)",
    "(not (atom p x))",
    "(and (atom p) (atom q))",
    "(or (atom p) (imp (atom q) (atom r)))",
    "(all st f:1 (ex n:0 (atom iszero f n)))",
    "(ex st Phi:2 (atom total Phi))",
    "(ex-in a w (atom near a))",
    "(atom graph (app F x y) x)",
    "(all x:0* (atom listed x))",
    "(all st F:(0->1) (atom p F))",
    "(ex y:((0->1))* (all z:(0->1)->0 (atom q y z)))",
]


@pytest.mark.parametrize("text", GOOD_FORMULAS)
def test_formula_round_trip(text):
    f = parse_formula(text)
    assert parse_formula(format_formula(f)) == f


@pytest.mark.parametrize("text, message", [
    ("(atom p)\n  ; note (\n\t(atom q)",
     "line 3 col 2: trailing input (at '(')"),
    ("(all x:0\n   (atom p x) junk)", "line 2 col 15: expected ')' (at 'junk')"),
    ("(all st (atom p))", "line 1 col 9: expected var:type (at '(')"),
    ("(all x:0 (atom p x)", "end of input: unexpected end"),
    ("(atom p (app f)) ; done", "line 1 col 15: app needs at least one argument (at ')')"),
])
def test_parse_errors_name_the_line_and_column(text, message):
    with pytest.raises(ParseError) as exc:
        parse_formula(text)
    assert str(exc.value) == message


def test_comments_and_whitespace_are_ignored():
    f = parse_formula("""
    ; a marked universal over sequences
    (all st f:1
      (atom p f))  ; trailing note
    """)
    assert f == Quant("all", True, "f", parse_type("1"), Atom("p", ("f",)))


@pytest.mark.parametrize("bad", [
    "",
    "(",
    "(atom)",
    "(all st (atom p))",
    "(all x (atom p x))",
    "(all x:0 (atom p x)) junk",
    "(imp (atom p))",
    "(widget x)",
    "(all x:banana (atom p x))",
    "(ex-in a (atom p a))",
])
def test_parser_rejects_bad_input(bad):
    with pytest.raises(ParseError):
        parse_formula(bad)


def test_parser_wants_a_term_for_an_entry_bound():
    with pytest.raises(ParseError, match="expected a term"):
        parse_formula("(ex-in x)")


def test_a_quantifier_kind_is_all_or_ex():
    with pytest.raises(ValueError, match="bad quantifier kind 'some'"):
        Quant("some", True, "x", Base(), Atom("p", ("x",)))


def test_parser_rejects_rebinding():
    with pytest.raises(FormulaScopeError):
        parse_formula("(all x:0 (ex x:0 (atom p x)))")
    with pytest.raises(FormulaScopeError):
        parse_formula("(all x:0 (ex-in x w (atom p x)))")


def test_parser_lets_a_name_be_bound_again_once_its_scope_closes():
    f = parse_formula("(and (all x:0 (atom p x)) (ex-in x w (atom q x)))")
    assert (f.left.var, f.right.var) == ("x", "x")


def test_parser_reads_nesting_deeper_than_the_recursion_limit():
    d = 5000
    f = parse_formula("(not " * d + "(atom p " + "(app f " * d + "y" + ")" * (d + 1)
                      + ")" * d)
    for _ in range(d):
        assert isinstance(f, Not)
        f = f.body
    term = f.args[0]
    for _ in range(d):
        assert isinstance(term, App)
        term = term.args[0]
    assert term == "y"


def test_subformula_navigation_round_trip():
    f = parse_formula(GOOD_FORMULAS[5])
    for path in [(), (0,), (0, 0)]:
        assert replace_at(f, path, subformula_at(f, path)) == f


def test_navigation_round_trips_a_chain_deeper_than_the_recursion_limit():
    leaf = Atom("p")
    f = leaf
    for _ in range(5000):
        f = Not(f)
    path = (0,) * 5000
    assert subformula_at(f, path) is leaf
    same = replace_at(f, path, subformula_at(f, path))
    other = replace_at(f, path, Atom("q"))
    assert subformula_at(same, path) is leaf
    assert subformula_at(other, path) == Atom("q")
    for g in (same, other):
        node = g
        for _ in range(5000):
            assert isinstance(node, Not)
            node = node.body


# ---------------------------------------------------------------------------
# relativization

def test_relativize_marks_unguarded_quantifiers():
    f = parse_formula("(all f:1 (ex n:0 (atom iszero f n)))")
    g = relativize_st(f)
    assert g == parse_formula("(all st f:1 (ex st n:0 (atom iszero f n)))")


def test_relativize_leaves_guarded_number_quantifiers_internal():
    bounded = parse_formula(
        "(all f:1 (all n:0 (imp (atom leq n N) (atom iszero f n))))")
    g = relativize_st(bounded)
    inner = g.body
    assert g.st and not inner.st
    searched = parse_formula(
        "(ex n:0 (and (atom leq n N) (atom iszero f n)))")
    assert not relativize_st(searched).st


def test_relativize_still_marks_self_bounded_guards():
    # a guard whose bound mentions the quantified variable is no guard
    f = parse_formula("(all n:0 (imp (atom leq n n) (atom p n)))")
    assert relativize_st(f).st


# ---------------------------------------------------------------------------
# normalization against the bundled derivations

@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_normal_forms(name):
    src = parse_formula(fixture_text(f"{name}.sexp"))
    expected = parse_formula(fixture_text(f"{name}.nf.sexp"))
    nf, trace = to_normal_form(src)
    assert alpha_equal(nf.to_formula(), expected)
    rules, certificate = FIXTURES[name]
    assert trace.rules() == rules
    assert trace.certificate == certificate


def herbrand_text(pairs):
    """marked forall-exists pairs in an antecedent, a marked existential
    consequent."""
    body = "(atom r " + " ".join(f"x{j} y{j}" for j in range(pairs)) + ")"
    return ("(imp " + "".join(f"(all st x{j}:0 (ex st y{j}:0 " for j in range(pairs))
            + body + ")" * (2 * pairs) + " (ex st z:0 (atom q z)))")


@pytest.mark.parametrize("text", [fixture_text(f"{name}.sexp") for name in sorted(FIXTURES)]
                         + [herbrand_text(pairs) for pairs in (2, 3, 4)],
                         ids=sorted(FIXTURES) + ["herbrand-2", "herbrand-3", "herbrand-4"])
def test_printed_formulas_parse_back(text):
    # Herbrandizing two or more pairs names functionals of compound type,
    # printed as binders like Y2:(0->1)
    src = parse_formula(text)
    nf, _ = to_normal_form(src)
    for f in (src, nf.to_formula(), extraction_obligation(nf)):
        assert parse_formula(format_formula(f)) == f


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_normalization_is_idempotent(name):
    src = parse_formula(fixture_text(f"{name}.sexp"))
    nf, _ = to_normal_form(src)
    again, trace = to_normal_form(nf.to_formula())
    assert trace.rules() == ()
    assert alpha_equal(again.to_formula(), nf.to_formula())


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_replay_reproduces_the_normal_form(name):
    src = parse_formula(fixture_text(f"{name}.sexp"))
    nf, trace = to_normal_form(src)
    # replay keeps the engine's bookkeeping markers, so compare up to them
    assert alpha_equal(replay(src, trace), nf.to_formula())


def test_replay_rejects_a_tampered_source():
    src = parse_formula(fixture_text("pi01_transfer.sexp"))
    _, trace = to_normal_form(src)
    other = parse_formula(fixture_text("seq_extensionality.sexp"))
    with pytest.raises(ValueError):
        replay(other, trace)


def test_replay_rejects_a_path_that_leaves_the_formula():
    # the step's cell chain says child 0 of the root, an atom
    step = RuleStep("not-push", "equivalence", ((), 0), Atom("p"), Atom("q"))
    with pytest.raises(ValueError, match=r"path \(0,\) leaves Atom"):
        replay(Atom("p"), RuleTrace((step,)))


def test_certificate_depends_only_on_weakening_steps():
    nf_src = parse_formula(fixture_text("pi01_transfer.sexp"))
    _, trace = to_normal_form(nf_src)
    assert all(s.tag == "equivalence" for s in trace.steps)
    _, weak = to_normal_form(parse_formula(fixture_text("ubin_to_transfer.sexp")))
    assert [s.rule for s in weak.steps if s.tag == "implication"] == ["R3-drop-st"]


def test_unreachable_markers_are_an_error():
    stuck = parse_formula("(and (all st x:0 (atom p x)) (atom q))")
    with pytest.raises(NotNormalizable):
        to_normal_form(stuck)


def test_is_internal_answers_at_a_marked_root_without_summarizing():
    f = parse_formula("(all st x:0 (imp (atom p x) (ex st y:0 (atom q x y))))")
    assert not is_internal(f)
    assert [getattr(node, field, None) for node in (f, f.body)
            for field in mulab.formulas._SUMMARY.values()] == [None] * 4
    # after a run has summarized the root, the answer is the summary's
    to_normal_form(f)
    assert is_internal(f) == mulab.formulas._internal(f, 1) == _internal(f, 1)


def test_internal_formulas_normalize_to_themselves():
    f = parse_formula("(all x:0 (imp (atom p x) (ex y:0 (atom q x y))))")
    assert is_internal(f)
    nf, trace = to_normal_form(f)
    assert trace.rules() == ()
    assert nf.foralls == () and nf.exists == ()
    assert nf.matrix == f


# ---------------------------------------------------------------------------
# rule order and the step limit

def flip_text(k):
    """k nested marked existentials in one antecedent."""
    return ("(imp " + "".join(f"(ex st x{j}:{j % 2} " for j in range(k))
            + "(atom p " + " ".join(f"x{j}" for j in range(k)) + ")"
            + ")" * k + " (atom q))")


def pull_text(k):
    """k guarded marked universals in nested consequents."""
    f = "(atom p " + " ".join(f"x{j}" for j in range(1, k + 1)) + ")"
    for j in range(k, 0, -1):
        guard = "c" if j == 1 else f"x{j - 1}"
        f = f"(imp (atom g {guard}) (all st x{j}:0 {f}))"
    return f


def negation_text(d):
    """a marked forall-exists under d negations."""
    return "(not " * d + "(all st x:0 (ex st y:0 (atom r x y)))" + ")" * d


def negation_formula(d):
    """negation_text(d), built without the parser."""
    f = Quant("all", True, "x", Base(), Quant("ex", True, "y", Base(), Atom("r", ("x", "y"))))
    for _ in range(d):
        f = Not(f)
    return f


FAMILIES = [
    (flip_text(8), ("R1a-flip-antecedent",) * 8, ("0", "1") * 4, ()),
    (herbrand_text(3),
     ("R2-herbrandize",) * 3 + ("R1b-bound-antecedent", "R1c-bound-consequent"),
     ("1", "(0->1)", "(0->(0->1))"), ("0", "0")),
    (pull_text(5), ("forall-pull",) * 15, ("0",) * 5, ()),
    (negation_text(4), ("not-push",) * 8, ("0",), ("0",)),
]


@pytest.mark.parametrize("text, rules, foralls, exists", FAMILIES)
def test_benchmark_families_fire_their_rules_in_order(text, rules, foralls, exists):
    nf, trace = to_normal_form(parse_formula(text))
    assert trace.rules() == rules
    assert tuple(format_formula(t) for _, t in nf.foralls) == foralls
    assert tuple(format_formula(t) for _, t in nf.exists) == exists


def test_rules_fire_by_priority_then_outermost_leftmost():
    # not-push could fire on both sides; the left one goes first, and
    # the flip it enables outranks the right one
    f = parse_formula("(imp (not (all st x:0 (atom p x)))"
                      " (not (ex st y:0 (atom q y))))")
    _, trace = to_normal_form(f)
    assert [(s.rule, s.path) for s in trace.steps] == [
        ("not-push", (0,)), ("R1a-flip-antecedent", ()),
        ("not-push", (0, 1)), ("forall-pull", (0,))]


def test_a_change_seen_through_a_marked_chain_reaches_the_guard_above():
    # the first not-push leaves the `below` of (all st x ...) as it was,
    # since another not-push waits under it, but turns its body into a
    # marked existential: Herbrandizing at the root now outranks the rest
    f = parse_formula("(imp (all st x:0 (not (all st y:0 (not (all st z:0"
                      " (atom p x y z)))))) (atom q))")
    _, trace = to_normal_form(f)
    assert [(s.rule, s.path) for s in trace.steps] == [
        ("not-push", (0, 0)), ("R2-herbrandize", ()), ("not-push", (0, 0, 0, 0)),
        ("not-push", (0, 0, 0)), ("R1b-bound-antecedent", (0,))]
    assert_engine_matches_the_reference(f)


def test_forty_nested_pulls_run_past_four_hundred_steps():
    nf, trace = to_normal_form(parse_formula(pull_text(40)))
    assert trace.rules() == ("forall-pull",) * 820
    assert [format_formula(t) for _, t in nf.foralls] == ["0"] * 40
    assert nf.exists == ()


@pytest.mark.parametrize("text", [flip_text(40), pull_text(12), negation_text(24),
                                  herbrand_text(8), pull_text(40), negation_text(96),
                                  herbrand_text(32), flip_text(256)],
                         ids=["flip-40", "pull-12", "negation-24", "herbrand-8",
                              "pull-40", "negation-96", "herbrand-32", "flip-256"])
def test_engine_matches_the_reference_on_large_benchmark_families(text):
    f = parse_formula(text)
    want, stuck = reference_normalize(f)
    assert stuck is None
    _, trace = to_normal_form(f)
    assert [(s.rule, s.tag, s.path, s.before, s.after)
            for s in trace.steps] == want


@pytest.mark.parametrize("family, small, large", [
    (negation_formula, 200, 400),
    (lambda k: parse_formula(pull_text(k)), 20, 40),
], ids=["negation", "pull"])
def test_summary_work_per_step_does_not_grow_with_depth(monkeypatch, family, small,
                                                        large):
    # each step re-summarizes the levels between successive hits, which
    # are adjacent here, not every ancestor of the hit
    calls = 0
    summarize = mulab.formulas._summarize

    def counted(f, p):
        nonlocal calls
        calls += 1
        return summarize(f, p)

    monkeypatch.setattr(mulab.formulas, "_summarize", counted)
    per_step = {}
    for n in (small, large):
        f = family(n)
        calls = 0
        _, trace = to_normal_form(f)
        per_step[n] = calls / len(trace.steps)
    assert 0 < per_step[large] <= 1.25 * per_step[small]


def doubled(leaf, depth, share=True):
    """depth nested And(g, g) over leaf(): 2^depth leaf positions, on
    depth + 1 distinct nodes when shared, else each position built anew."""
    if depth == 0:
        return leaf()
    if share:
        g = doubled(leaf, depth - 1)
        return And(g, g)
    return And(doubled(leaf, depth - 1, False), doubled(leaf, depth - 1, False))


def test_a_formula_of_shared_subformulas_normalizes_in_time_linear_in_its_nodes():
    # 2^18 positions, 22 distinct nodes: each walk visits a node once
    matrix = doubled(lambda: Atom("p", ("x",)), 18)
    start = time.perf_counter()
    nf, trace = to_normal_form(Quant("all", True, "x", Base(), matrix))
    elapsed = time.perf_counter() - start
    assert trace.steps == ()
    assert nf == NormalForm((("x", Base()),), (), matrix)
    assert elapsed < 0.5, f"18 shared conjunctions took {elapsed:.2f} s"


SHARED_SHAPES = {
    "under-a-universal": lambda share: Quant(
        "all", True, "x", Base(), doubled(lambda: Atom("p", ("x",)), 5, share)),
    "pulled": lambda share: Implies(
        Atom("q"),
        Quant("all", True, "x", Base(), doubled(lambda: Atom("p", ("x",)), 5, share))),
    "in-an-antecedent": lambda share: Implies(
        Quant("all", True, "x", Base(), doubled(lambda: Atom("p", ("x",)), 5, share)),
        Atom("q")),
    "pushed-at-each-position": lambda share: doubled(
        lambda: Not(Quant("ex", True, "y", Base(), Atom("p", ("y",)))), 4, share),
    "marked-antecedents": lambda share: Implies(
        doubled(lambda: Quant("all", True, "x", Base(), Atom("p", ("x",))), 4, share),
        Atom("q")),
}


@pytest.mark.parametrize("shape", SHARED_SHAPES)
def test_shared_subformulas_normalize_like_their_unshared_copies(shape):
    # M and D, and with them the step limit and its message, count
    # positions, not distinct nodes
    shared, unshared = (SHARED_SHAPES[shape](share) for share in (True, False))
    assert shared == unshared
    assert (mulab.formulas._scan(shared) == mulab.formulas._scan(unshared)
            == (_symbols(unshared), marked_measure(unshared)[0],
                formula_depth(unshared)))
    assert is_internal(shared) == is_internal(unshared)
    results = []
    for f in (shared, unshared):
        try:
            results.append(to_normal_form(f))
        except NotNormalizable as exc:
            results.append(str(exc))
    assert results[0] == results[1]
    assert_engine_matches_the_reference(shared)


def test_normalizer_work_grows_linearly_on_flips(monkeypatch):
    # the summary walk and each step's descent ask _below for children
    calls = {}
    below = mulab.formulas._below

    def counted(f, pol):
        calls[k] += 1
        return below(f, pol)

    monkeypatch.setattr(mulab.formulas, "_below", counted)
    for k in (256, 512):
        f = parse_formula(flip_text(k))
        calls[k] = 0
        to_normal_form(f)
    assert 0 < calls[256]
    assert calls[512] <= 2.5 * calls[256]


def test_a_thousand_binder_flip_normalizes():
    k = 1000
    binders = [(f"x{j}", (Base(), parse_type("1"))[j % 2]) for j in range(k)]
    body = Atom("p", tuple(v for v, _ in binders))
    for v, t in reversed(binders):
        body = Quant("ex", True, v, t, body)
    nf, trace = to_normal_form(Implies(body, Atom("q")))
    assert trace.rules() == ("R1a-flip-antecedent",) * k
    assert [s.path for s in trace.steps] == [(0,) * j for j in range(k)]
    assert nf.foralls == tuple(binders)
    assert nf.exists == ()


def test_a_thousand_deep_negation_normalizes():
    d = 1000
    nf, trace = to_normal_form(negation_formula(d))
    assert trace.rules() == ("not-push",) * (2 * d)
    # x climbs the d negations to the root, then y climbs them below x
    assert [s.path for s in trace.steps] == (
        [(0,) * j for j in range(d - 1, -1, -1)] + [(0,) * j for j in range(d, 0, -1)])
    assert nf.foralls == (("x", Base()),)
    assert nf.exists == (("y", Base()),)
    node = nf.matrix
    for _ in range(d):
        assert isinstance(node, Not)
        node = node.body
    assert node == Atom("r", ("x", "y"))


def test_a_ten_thousand_deep_negation_replays_from_its_parsed_source():
    d = 10_000
    src = parse_formula(negation_text(d))
    nf, trace = to_normal_form(src)
    assert trace.rules() == ("not-push",) * (2 * d)
    assert (trace.steps[0].path, trace.steps[-1].path) == ((0,) * (d - 1), (0,))
    assert format_formula(replay(src, trace)) == format_formula(nf.to_formula())


@pytest.mark.parametrize("text", [
    pull_text(12),
    herbrand_text(4),
    negation_text(24),
    # Herbrandizing substitutes an applied term for a head: raised mid-run
    "(imp (all st x:0 (ex st y:0 (atom r (app y x)))) (atom q))",
    # markers stuck under a conjunction: raised after the run
    "(and (all st x:0 (atom p x)) (atom q))",
])
def test_normalizer_leaves_no_reference_cycles(text):
    f = parse_formula(text)
    gc.collect()
    gc.disable()
    try:
        # the second run finds the summaries the first left on the nodes
        for _ in range(2):
            try:
                to_normal_form(f)
            except NotNormalizable:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("text", [
    fixture_text("ubin_to_transfer.sexp"),
    herbrand_text(3),
    # positive, a normal form; negative, R3 fires at the universal
    "(all st F:1 (ex st n:0 (atom p (app F n))))",
    "(imp (all st F:1 (atom p F)) (ex st y:0 (atom q y)))",
    # R2 keeps the names of the terms it looks into
    "(imp (all st x:0 (ex st y:0 (atom r (app f x) (app g (app f y))))) (atom q))",
], ids=["ubin_to_transfer", "herbrand-3", "higher-type-universal", "antecedent-universal",
        "herbrand-terms"])
def test_summaries_left_on_nodes_are_invisible_and_reused_at_either_polarity(text):
    f = parse_formula(text)
    to_normal_form(f)
    nodes = list(preorder(f))
    fresh = list(preorder(parse_formula(text)))
    assert nodes == fresh
    assert [hash(x) for x in nodes] == [hash(x) for x in fresh]
    assert [repr(x) for x in nodes] == [repr(x) for x in fresh]
    # the same node objects, now also at the opposite polarity
    assert_engine_matches_the_reference(Not(f))
    assert_engine_matches_the_reference(Implies(f, Atom("q")))
    assert_engine_matches_the_reference(Implies(Implies(f, Atom("q")), f))


TYPES = (Base(), parse_type("1"), parse_type("2"))


@st.composite
def marked_formulas(draw, depth=8):
    """Formulas of depth at most `depth` over marked and unmarked
    quantifiers of types 0, 1 and 2 and guarded number quantifiers.
    Binders are never rebound, as the parser demands."""
    fresh = count()

    def term(scope):
        head = draw(st.sampled_from(scope + ["c"]))
        if draw(st.booleans()):
            return head
        return App(head, (draw(st.sampled_from(scope + ["c"])),))

    def go(d, scope):
        kinds = ["atom"] + (["not", "and", "or", "imp", "quant", "quant"] if d else [])
        kinds += ["guarded"] if d >= 2 else []
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            arity = draw(st.integers(min_value=0, max_value=2))
            return Atom(draw(st.sampled_from("pq")), tuple(term(scope) for _ in range(arity)))
        if kind == "not":
            return Not(go(d - 1, scope))
        if kind in ("and", "or", "imp"):
            cls = {"and": And, "or": Or, "imp": Implies}[kind]
            return cls(go(d - 1, scope), go(d - 1, scope))
        var = f"v{next(fresh)}"
        q = draw(st.sampled_from(("all", "ex")))
        if kind == "quant":
            return Quant(q, draw(st.booleans()), var, draw(st.sampled_from(TYPES)),
                         go(d - 1, scope + [var]))
        guard = Atom("leq", (var, draw(st.sampled_from(scope + ["c"]))))
        body = go(d - 2, scope + [var])
        return Quant(q, draw(st.booleans()), var, Base(),
                     Implies(guard, body) if q == "all" else And(guard, body))

    return go(depth, [])


@st.composite
def reused_name_formulas(draw, depth=4, pool=("u", "v")):
    """Formulas like marked_formulas' whose binders take their names from
    a small pool: a name is bound again in a disjoint scope, never inside
    its own, as the parser demands, and atoms and terms use pool names
    outside any binder of theirs too, so free.  Implications come twice
    as often as the other connectives, as the rules lift binders out of
    them."""

    def term():
        head = draw(st.sampled_from(pool + ("c",)))
        if draw(st.booleans()):
            return head
        return App(head, (draw(st.sampled_from(pool + ("c",))),))

    def go(d, scope):
        free = [v for v in pool if v not in scope]
        kinds = ["atom"] + (["not", "and", "or", "imp", "imp"] if d else [])
        kinds += ["quant", "quant"] if d and free else []
        kind = draw(st.sampled_from(kinds))
        if kind == "atom":
            arity = draw(st.integers(min_value=0, max_value=2))
            return Atom(draw(st.sampled_from("pq")), tuple(term() for _ in range(arity)))
        if kind == "not":
            return Not(go(d - 1, scope))
        if kind in ("and", "or", "imp"):
            cls = {"and": And, "or": Or, "imp": Implies}[kind]
            return cls(go(d - 1, scope), go(d - 1, scope))
        var = draw(st.sampled_from(free))
        return Quant(draw(st.sampled_from(("all", "ex"))), draw(st.booleans()), var,
                     draw(st.sampled_from(TYPES)), go(d - 1, scope | {var}))

    return go(depth, frozenset())


def assert_engine_matches_the_reference(f):
    try:
        want, stuck = reference_normalize(f)
    except NotNormalizable:
        with pytest.raises(NotNormalizable):
            to_normal_form(f)
        return
    if stuck is None:
        _, trace = to_normal_form(f)
        assert [(s.rule, s.tag, s.path, s.before, s.after)
                for s in trace.steps] == want
    else:
        # the engine names what is left, which depends on the steps taken
        with pytest.raises(NotNormalizable) as exc:
            to_normal_form(f)
        assert str(exc.value).endswith(": " + format_formula(stuck))


@settings(max_examples=300, deadline=None)
@given(marked_formulas())
def test_engine_matches_the_rule_major_reference(f):
    assert_engine_matches_the_reference(f)


@settings(max_examples=100, deadline=None)
@given(marked_formulas(depth=6))
def test_engine_matches_the_reference_on_shared_subformulas(f):
    # one object at several positions, at both polarities
    assert_engine_matches_the_reference(Implies(f, f))
    assert_engine_matches_the_reference(
        Implies(Not(f), Implies(f, And(Not(Not(f)), f))))


@settings(max_examples=300, deadline=None)
@given(marked_formulas())
# each guard fires once in these: R1a, R2 and R1b, then forall-pull,
# R1c and exists-pull
@example(parse_formula("(and (imp (ex st x:0 (atom p x)) (atom q)) (and (imp (all"
                       " st y:0 (ex st z:0 (atom p y z))) (atom q)) (imp (all st"
                       " u:0 (atom p u)) (atom q))))"))
@example(parse_formula("(and (imp (atom q) (all st x:0 (atom p x))) (and (imp (atom"
                       " q) (ex st y:0 (atom p y))) (imp (atom q) (ex st F:1 (atom"
                       " p F)))))"))
def test_an_implication_guard_fires_only_where_it_is_filed(f):
    # an implication runs only the guards filed under its marked sides
    # (_IMPLIES_GUARDS: antecedent, consequent or both), so a guard that
    # fired with its side unmarked would be a step the engine never takes
    guards = mulab.formulas._GUARDS[Implies]
    filed = mulab.formulas._IMPLIES_GUARDS
    with mock.patch.object(mulab.formulas, "_internal", _internal):
        for _, node, _ in _walk(f):
            if type(node) is not Implies:
                continue
            sides = _marked(node.left) | _marked(node.right) << 1
            for pol in (1, -1):
                for bit, guard in guards:
                    if guard(node, pol):
                        assert (bit, guard) in filed[sides], guard.__name__


@settings(max_examples=300, deadline=None)
@given(marked_formulas())
def test_every_step_lowers_the_termination_measure(f):
    try:
        steps, _ = reference_normalize(f)
    except NotNormalizable:
        return
    marked = marked_measure(f)[0]
    assert len(steps) <= marked * (formula_depth(f) + marked + 1)
    current = f
    for _, _, path, _, after in steps:
        before = marked_measure(current)
        current = replace_at(current, path, after)
        assert marked_measure(current) < before


@st.composite
def shared_formulas(draw, size=12):
    """API-built formulas in which subformula and term objects sit at
    several positions: each new node takes its parts from the nodes built
    before it.  Terms nest `App`s, and `ex-in` bounds are terms.  Every
    binder gets a fresh name, so the printed formula parses back."""
    fresh = count()
    terms: list = ["c", "d"]
    forms: list = [Atom("p"), Atom("q", ("c",))]

    def pick(nodes):
        return nodes[draw(st.integers(min_value=0, max_value=len(nodes) - 1))]

    for _ in range(draw(st.integers(min_value=1, max_value=size))):
        kind = draw(st.sampled_from(("app", "atom", "not", "and", "or", "imp",
                                     "quant", "quant", "ex-in")))
        if kind == "app":
            terms.append(App(draw(st.sampled_from("fg")), (pick(terms), pick(terms))))
        elif kind == "atom":
            forms.append(Atom(draw(st.sampled_from("pqr")), (pick(terms), pick(terms))))
        elif kind == "not":
            forms.append(Not(pick(forms)))
        elif kind in ("and", "or", "imp"):
            cls = {"and": And, "or": Or, "imp": Implies}[kind]
            forms.append(cls(pick(forms), pick(forms)))
        elif kind == "quant":
            forms.append(Quant(draw(st.sampled_from(("all", "ex"))), draw(st.booleans()),
                               f"v{next(fresh)}", draw(st.sampled_from(TYPES)),
                               pick(forms)))
        else:
            forms.append(ExIn(f"v{next(fresh)}", pick(terms), pick(forms)))
    return forms[-1]


def normalize_quietly(f):
    try:
        to_normal_form(f)
    except NotNormalizable:
        pass


@settings(max_examples=200, deadline=None)
@given(shared_formulas())
def test_one_walk_reads_the_names_marked_count_and_depth(f):
    # M and D count positions, however many share a node
    assert mulab.formulas._scan(f) == (_symbols(f), marked_measure(f)[0],
                                       formula_depth(f))
    for t in preorder(f):
        if isinstance(t, (str, App)):
            assert mulab.formulas._scan(t) == (_term_symbols(t), 0, 0)
        if isinstance(t, App):
            # the names an App keeps, on terms that share App objects
            kept = mulab.formulas._term_names(t)
            assert kept == _term_symbols(t) and mulab.formulas._term_names(t) is kept
    # is_internal on fresh nodes: the drawn formula and an unshared copy
    copy = parse_formula(format_formula(f))
    assert copy == f
    assert is_internal(f) == is_internal(copy) == _internal(f, 1)
    # then on nodes that runs summarized at either polarity, or both
    normalize_quietly(Not(copy))
    normalize_quietly(f)
    normalize_quietly(Implies(f, Atom("q")))
    for node in (*preorder(f), *preorder(copy)):
        if not isinstance(node, (str, App)):
            assert is_internal(node) == _internal(node, 1)


@settings(max_examples=200, deadline=None)
@given(shared_formulas())
def test_the_structure_helpers_agree_with_the_oracle_walk(f):
    for x in preorder(f):
        assert mulab.formulas._with_parts(x, mulab.formulas._parts(x)) == x
    # children and polarities, against the oracle's own walk
    for start in (1, -1):
        at = {path: (node, pol) for path, node, pol in _walk(f, (), start)}
        for path, (node, pol) in at.items():
            assert mulab.formulas._below(node, pol) == tuple(
                at[path + (i,)] for i in range(len(_kids(node))))


def unshared_copy(f):
    """f built again from the leaves up, with a new formula node at every
    position, so that no node of it has a summary yet.  (Printing and
    parsing back would not do: a rewrite may nest two binders of one
    name that the drawn formula held side by side.)"""
    order, todo = [], [f]
    while todo:
        node = todo.pop()
        order.append(node)
        todo += _kids(node)
    built: list = []
    for node in reversed(order):
        n = len(_kids(node))
        kids = built[len(built) - n:]
        del built[len(built) - n:]
        # the subformulas are the last parts: an atom's terms and an
        # ex-in's bound come before them
        parts = mulab.formulas._parts(node)
        built.append(mulab.formulas._with_parts(node, (*parts[:len(parts) - n], *kids)))
    return built[0]


def wrong_summaries(f):
    """The positions of f whose node keeps a summary, at either polarity,
    other than the one worked out afresh at that position of an unshared
    copy."""
    copy = unshared_copy(f)
    assert copy == f
    wrong = []
    todo = [(f, copy, ())]
    while todo:
        node, fresh, path = todo.pop()
        for pol, field in mulab.formulas._SUMMARY.items():
            kept = getattr(node, field, None)
            if kept is not None and kept != mulab.formulas._summary(fresh, pol):
                wrong.append((path, pol))
        todo += [(kid, fresh_kid, path + (i,)) for i, (kid, fresh_kid)
                 in enumerate(zip(_kids(node), _kids(fresh)))]
    return wrong


def herbrandized(f):
    """The results of the R2 steps of a run on f, stuck or not."""
    built = []

    def r2(node, names):
        after, tag = mulab.formulas._r2(node, names)
        built.append(after)
        return after, tag

    rules = tuple((name, kind, guard, r2 if build is mulab.formulas._r2 else build)
                  for name, kind, guard, build in mulab.formulas._RULES)
    with mock.patch.object(mulab.formulas, "_RULES", rules):
        normalize_quietly(f)
    return built


@settings(max_examples=200, deadline=None)
@given(shared_formulas())
def test_summaries_carried_through_herbrandizing_equal_fresh_ones(g):
    # g sits where R2 fires, under an existential on c, a name its terms
    # use; its nodes keep summaries at both polarities to carry
    for pol in (1, -1):
        mulab.formulas._summary(g, pol)
    f = Implies(Quant("all", True, "x", Base(), Quant("ex", True, "c", Base(), g)),
                Atom("q"))
    results = herbrandized(f)
    assert results
    for after in results:
        assert wrong_summaries(after) == []


@pytest.mark.parametrize("pairs", range(1, 9))
def test_summaries_carried_through_the_herbrand_family_equal_fresh_ones(pairs):
    results = herbrandized(parse_formula(herbrand_text(pairs)))
    assert len(results) == pairs
    for after in results:
        assert wrong_summaries(after) == []


def test_summaries_carried_through_relativizing_would_be_caught():
    # marking changes what guards read, so relativize_st's rebuild must
    # not carry summaries; the check above sees it on some drawn formula
    def carried_wrong(g):
        for pol in (1, -1):
            mulab.formulas._summary(g, pol)
        marked = mulab.formulas._rebuild(g, mulab.formulas._mark_unguarded, carry=True)
        return bool(wrong_summaries(marked))

    find(shared_formulas(), carried_wrong)


def test_herbrandizing_refuses_a_witness_in_a_nested_head():
    # (app f (app y x)) keeps y among its names, so R2 looks inside it
    f = parse_formula("(imp (all st x:0 (ex st y:0 (atom r (app g x) (app f (app y x)))))"
                      " (atom q))")
    with pytest.raises(NotNormalizable, match="head position 'y'"):
        to_normal_form(f)


def test_herbrandizing_keeps_names_only_on_the_terms_it_asks_about():
    # a set at every App of a deep term would cost the square of its depth
    term = "z"
    for j in range(50):
        term = App(f"f{j}", (term,))
    to_normal_form(Implies(Quant("all", True, "x", Base(), Quant(
        "ex", True, "y", Base(), Atom("r", (term, "y")))), Atom("q")))
    assert term._names == {"z", *(f"f{j}" for j in range(50))}
    assert getattr(term.args[0], "_names", None) is None


# The parser refuses a binder nested under one of its name, so these
# formulas are built with the constructors.

def test_herbrandizing_stops_at_a_binder_of_the_witness_name():
    inner = Quant("all", False, "y", Base(), Atom("q", ("y",)))
    f = Implies(Quant("all", True, "x", Base(), Quant(
        "ex", True, "y", Base(), And(Atom("p", ("y",)), inner))), Atom("r"))
    step = to_normal_form(f)[1].steps[0]
    assert step.rule == "R2-herbrandize"
    assert step.after == Quant("all", True, "Y", parse_type("1"), Implies(
        Quant("all", True, "x", Base(), And(Atom("p", (App("Y", ("x",)),)), inner)),
        Atom("r")))


def test_herbrandizing_puts_the_witness_only_in_the_bound_of_an_entry_binder():
    f = Implies(Quant("all", True, "x", Base(), Quant(
        "ex", True, "y", Base(), ExIn("y", "y", Atom("q", ("y",))))), Atom("r"))
    step = to_normal_form(f)[1].steps[0]
    assert step.rule == "R2-herbrandize"
    assert step.after.body.left.body == ExIn("y", App("Y", ("x",)), Atom("q", ("y",)))


def test_a_renamed_binder_leaves_an_inner_binder_of_its_old_name_alone():
    inner = Quant("all", False, "z", Base(), Atom("s", ("z",)))
    f = Implies(Quant("ex", True, "z", Base(), And(Atom("p", ("z",)), inner)),
                Atom("q", ("z",)))
    step = to_normal_form(f)[1].steps[0]
    assert step.rule == "R1a-flip-antecedent"
    assert step.after == Quant("all", True, "z2", Base(), Implies(
        And(Atom("p", ("z2",)), inner), Atom("q", ("z",))))


# ---------------------------------------------------------------------------
# alpha equality

def test_alpha_equal_ignores_bound_names():
    f = parse_formula("(all st f:1 (ex st n:0 (atom iszero f n)))")
    g = parse_formula("(all st h:1 (ex st k:0 (atom iszero h k)))")
    assert alpha_equal(f, g)


def test_alpha_equal_respects_structure():
    f = parse_formula("(all st f:1 (atom p f))")
    assert not alpha_equal(f, parse_formula("(all f:1 (atom p f))"))
    assert not alpha_equal(f, parse_formula("(ex st f:1 (atom p f))"))
    assert not alpha_equal(f, parse_formula("(all st f:2 (atom p f))"))
    assert not alpha_equal(f, parse_formula("(all st f:1 (atom q f))"))


def test_alpha_equal_keeps_free_names_rigid():
    assert not alpha_equal(parse_formula("(atom p x)"), parse_formula("(atom p y)"))
    assert alpha_equal(parse_formula("(atom p x)"), parse_formula("(atom p x)"))


def test_alpha_equal_walks_chains_deeper_than_the_recursion_limit():
    def chain(var, free="c"):
        f = Quant("all", True, var, Base(), Atom("p", (var, free)))
        for _ in range(5000):
            f = Not(f)
        return f

    assert alpha_equal(chain("x"), chain("y"))
    assert not alpha_equal(chain("x"), chain("y", free="d"))


def test_alpha_equal_ignores_the_monotone_marker():
    base = parse_formula("(ex st n:0 (atom p n))")
    marked = Quant("ex", True, "n", Base(), Atom("p", ("n",)), mono=True)
    assert alpha_equal(base, marked)


# ---------------------------------------------------------------------------
# extraction obligations

def test_obligation_with_a_bare_witness():
    nf = NormalForm((), (("x", Base()),), Atom("p", ("x",)))
    assert extraction_obligation(nf) == ExIn("x", "t", Atom("p", ("x",)))


def test_obligation_applies_witnesses_to_the_universals():
    nf = NormalForm((("f", parse_type("1")),), (("m", Base()),),
                    Atom("expands", ("f", "m")))
    expected = Quant("all", False, "f", parse_type("1"),
                     ExIn("m", App("t", ("f",)), Atom("expands", ("f", "m"))))
    assert extraction_obligation(nf) == expected


def test_obligation_numbers_multiple_witnesses():
    nf = NormalForm((("f", parse_type("1")),),
                    (("a", Base()), ("b", Base())),
                    Atom("pair", ("a", "b")))
    got = extraction_obligation(nf)
    assert got.body.bound == App("t1", ("f",))
    assert got.body.body.bound == App("t2", ("f",))


def test_obligation_avoids_name_capture():
    nf = NormalForm((), (("x", Base()),), Atom("p", ("x", "t")))
    assert extraction_obligation(nf).bound == "t2"
    # a forall variable the matrix never mentions is taken too
    nf = NormalForm((("t", Base()),), (("x", Base()),), Atom("p", ("x",)))
    assert extraction_obligation(nf).body.bound == App("t2", ("t",))


# ---------------------------------------------------------------------------
# no walk recurses

SHALLOW_STACK = """
import sys
from mulab.errors import FormulaScopeError
from mulab.formulas import (App, Arrow, Atom, Base, Implies, Not, Quant, Seq,
                            _term_names, extraction_obligation, format_formula,
                            parse_formula, parse_type, relativize_st,
                            replay, to_normal_form)
from mulab.trees import FullTree, Truncation, format_tree, parse_tree
from oracles import alpha_equal

D = 2000
sys.setrecursionlimit(150)

# types: a pure degree, a right-nested arrow, a sequence chain
pure = Base()
for _ in range(D):
    pure = Arrow(pure, Base())
arrows, seqs = Seq(Base()), Base()
for _ in range(D):
    arrows, seqs = Arrow(Base(), arrows), Seq(seqs)
assert format_formula(pure) == str(D)
assert format_formula(arrows) == "(0->" * D + "0*" + ")" * D
assert format_formula(seqs) == "0" + "*" * D
again = Base()
for _ in range(D):
    again = Arrow(again, Base())
assert alpha_equal(Quant("all", True, "x", pure, Atom("p", ("x",))),
                   Quant("all", True, "z", again, Atom("p", ("z",))))
assert not alpha_equal(Quant("all", True, "x", pure, Atom("p")),
                       Quant("all", True, "x", Arrow(again, Base()), Atom("p")))

# hash and repr open the chains from their own stacks: equal chains hash
# alike, a chain hashes as the tuple of its fields, and reprs are exact
assert hash(pure) == hash(again) == hash((pure.left, pure.right))
assert hash(arrows) == hash((arrows.left, arrows.right))
assert repr(pure) == "Arrow(left=" * D + "Base()" + ", right=Base())" * D
assert repr(arrows) == ("Arrow(left=Base(), right=" * D + "Seq(inner=Base())"
                        + ")" * D)

# a deep term and a deep negation chain, printed
term = "y"
for _ in range(D):
    term = App("f", (term,))
assert _term_names(term) == {"f", "y"}  # kept by a walk of its own
nots = Atom("r", ("x", term))
for _ in range(D):
    nots = Not(nots)
assert format_formula(nots) == ("(not " * D + "(atom r x " + "(app f " * D + "y"
                                + ")" * (2 * D + 1))
assert hash(nots) == hash((nots.body,))
assert repr(nots) == ("Not(body=" * D + "Atom(pred='r', args=('x', "
                      + "App(head='f', args=(" * D + "'y'" + ",))" * D + "))"
                      + ")" * D)

# relativize marks the outer quantifiers, and returns the unmarked chain
# as the same object
src = Quant("all", False, "x", Base(), Quant("ex", False, "y", Base(), nots))
rel = relativize_st(src)
assert rel.st and rel.body.st and rel.body.body is nots

# R2 substitutes an applied functional for y at the bottom of the chain
nf, trace = to_normal_form(Implies(rel, Atom("q")))
assert trace.rules() == ("R2-herbrandize", "R1b-bound-antecedent")
printed = format_formula(extraction_obligation(nf))
assert printed.count("(not ") == D
assert "(app f " * D + "(app Y x)" + ")" * D in printed

# the parser: the deep negation and its deep term, then a marked chain
# normalized and replayed
text = format_formula(nots)
parsed = parse_formula(text)
assert format_formula(parsed) == text and hash(parsed) == hash(nots)
text = "(not " * D + "(all st x:0 (ex st y:0 (atom r x y)))" + ")" * D
neg = parse_formula(text)
assert format_formula(neg) == text
nf, trace = to_normal_form(neg)
assert len(trace.steps) == 2 * D
assert format_formula(replay(neg, trace)) == format_formula(nf.to_formula())

# nested distinct binders, and one bound again at the bottom
text = "".join(f"(all x{j}:0 " for j in range(D)) + "(atom p)" + ")" * D
assert format_formula(parse_formula(text)) == text
try:
    parse_formula(text.replace("(atom p)", "(ex x0:0 (atom p))"))
except FormulaScopeError:
    pass
else:
    raise AssertionError("rebinding at the bottom was accepted")

# binder types nested in parentheses, in arrows, and in both
chain = "(0->" * (D - 1) + "1" + ")" * (D - 1)
for ann, printed in (("(" * D + "0" + ")" * D, "0"),
                     ("->".join(["0"] * (D + 1)), chain),
                     ("(0->" * D + "0" + ")" * D, chain)):
    assert format_formula(parse_type(ann)) == printed
    binder = parse_formula(f"(all st x:{ann} (atom p x))")
    assert format_formula(binder.vtype) == printed

# trees: nested truncations, parsed, printed and queried
text = "truncate:5:" * D + "full"
built = FullTree()
for _ in range(D):
    built = Truncation(5, built)
for tree in (parse_tree(text), built):
    assert format_tree(tree) == text
    assert hash(tree) == hash(built) == hash((5, tree.inner))
    assert repr(tree) == "Truncation(level=5, inner=" * D + "FullTree()" + ")" * D
    assert tree.member(5, 31) and not tree.member(6, 0)
    assert (tree.level_count(5), tree.level_count(6)) == (32, 0)
print("ok")
"""


def test_formula_and_tree_walks_run_on_a_shallow_stack():
    # every input is over ten times deeper than the recursion limit
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(str(d) for d in (tests.parent / "src", tests))
    proc = subprocess.run(
        [sys.executable, "-c", SHALLOW_STACK], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert proc.stderr == ""
    assert proc.stdout == "ok\n"
