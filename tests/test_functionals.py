from __future__ import annotations

import pkgutil
from fractions import Fraction
from importlib import import_module
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import mulab
from mulab.errors import BudgetExceeded, MalformedWitness, ParseError
from mulab.functionals import (
    TracedFunctional,
    TracedSeqView,
    TracedView,
    _fan_replay,
    catalog_functional,
    e2_from_mu,
    mu_from_e2,
    omega_fan,
    theta_special,
    xi_by_tracing,
)
from mulab.sequences import OpaqueSequence, PresentedSequence, mu_exact
from mulab.trees import TracedTreeView
from oracles import (catalog_names, from_rational, reference_fan_replay,
                     replay_outcome)

flags = st.tuples(
    st.lists(st.integers(min_value=0, max_value=3), max_size=6).map(tuple),
    st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=4).map(tuple),
).map(lambda pt: PresentedSequence(pt[0], pt[1]))


def test_eval_traced_reports_value_and_queries():
    g = catalog_functional("ifz:0:1:2")
    value, trace = g.eval_traced(PresentedSequence((0, 7), (1,)))
    assert value == 7
    assert trace == frozenset({0, 1})
    value, trace = g.eval_traced(PresentedSequence((3, 7), (9,)))
    assert value == 9
    assert trace == frozenset({0, 2})


def test_eval_traced_reads_through_a_traced_seq_view():
    # each answer passes through int(), as every TracedSeqView's does
    doubled = TracedFunctional("doubled", lambda view: view(0) * 2)
    assert doubled.eval_traced(lambda i: 2.5) == (4, frozenset({0}))
    # and more than DEFAULT_BUDGET distinct indices is a budget error
    with pytest.raises(BudgetExceeded):
        TracedFunctional("hunt", _hunt).eval_traced(PresentedSequence((), (1,)))


def test_catalog_spot_values():
    ones = PresentedSequence((), (1,))
    ramp = PresentedSequence((0, 1, 2, 3, 4), (0,))
    assert catalog_functional("const:5")(ones) == 5
    assert catalog_functional("const:-1")(ones) == -1
    assert catalog_functional("proj:3")(ramp) == 3
    assert catalog_functional("sum:4")(ramp) == 6
    assert catalog_functional("max:3")(ramp) == 2
    assert catalog_functional("f0+f1+1")(ramp) == 2
    assert catalog_functional("f0+f1")(ramp) == 1


@pytest.mark.parametrize("bad", ["", "max:0", "bogus", "proj:x", "sum",
                                 "f0+g1", "const:1:2", "ifz:1:2", "proj:-1",
                                 "sum:-3", "ifz:-1:1:2", "ifz:0:-2:1", "ifz:0:1:-3",
                                 # numbers are read in ASCII digits only
                                 "proj:５", "const:+5", "const:--5", "sum:1_0",
                                 "f²", "f0+²", "f٣+1"])
def test_catalog_rejects_bad_specs(bad):
    with pytest.raises(ParseError):
        catalog_functional(bad)


def test_catalog_names_all_instantiate():
    for name in catalog_names():
        spec = (name.replace("N", "2").replace("I", "0")
                .replace("J", "1").replace("K", "2"))
        catalog_functional(spec)(PresentedSequence((), (1,)))


@pytest.mark.parametrize("spec,expected", [
    ("const:5", 0),
    ("proj:0", 1),
    ("proj:3", 4),
    ("sum:4", 4),
    ("max:3", 3),
    ("ifz:3:1:2", 4),
    ("f0+f1+1", 2),
])
def test_fan_modulus_known_values(spec, expected):
    assert omega_fan(catalog_functional(spec)) == expected


@pytest.mark.parametrize("spec", ["proj:2", "sum:3", "max:2", "ifz:2:0:1"])
def test_fan_modulus_is_sound_on_binary_inputs(spec):
    g = catalog_functional(spec)
    n = omega_fan(g)
    for prefix in product((0, 1), repeat=n):
        outputs = {g(PresentedSequence(prefix, tail))
                   for tail in [(0,), (1,), (0, 1)]}
        assert len(outputs) == 1


def _gate(view):
    return view(5) if view(0) == 1 else 0


def test_single_run_trace_is_not_a_modulus_for_adaptive_bodies():
    g = TracedFunctional("gate", _gate)
    _, trace = g.eval_traced(PresentedSequence((), (0,)))
    naive = max(trace) + 1
    assert naive == 1
    assert omega_fan(g) == 6
    a = PresentedSequence((1, 0, 0, 0, 0, 0), (0,))
    b = PresentedSequence((1, 0, 0, 0, 0, 1), (1,))
    assert a.values(naive) == b.values(naive)
    assert g(a) != g(b)


def _hunt(view):
    i = 0
    while view(i) != 0:
        i += 1
    return i


def test_fan_modulus_rejects_unbounded_search():
    with pytest.raises(BudgetExceeded):
        omega_fan(TracedFunctional("hunt", _hunt), node_budget=50)


def test_a_fan_budget_of_no_nodes_admits_not_even_the_root():
    # a constant asks nothing, so only the root's own count refuses it
    with pytest.raises(BudgetExceeded, match="^omega_fan: over 0 replay nodes$"):
        omega_fan(TracedFunctional("zero", lambda view: 0), node_budget=0)


def test_fan_modulus_rejects_negative_queries():
    with pytest.raises(ValueError):
        omega_fan(TracedFunctional("neg", lambda view: view(-1)))


REPLAY_BODIES = [
    *map(catalog_functional, ["const:3", "proj:2", *(f"sum:{n}" for n in range(9)),
                              *(f"max:{n}" for n in range(1, 9)), "ifz:3:1:2",
                              "f0+f1+1"]),
    TracedFunctional("gate", _gate),
    TracedFunctional("hunt", _hunt),
    TracedFunctional("neg", lambda view: view(1) + (view(-1) if view(4) == 0 else 0)),
    # asks index 1 again in every run, and on its 0-branch a third time
    TracedFunctional("again", lambda view: view(1) + view(1 + view(1)) + view(1)),
]


@pytest.mark.parametrize("g", REPLAY_BODIES, ids=lambda g: g.name)
def test_replay_matches_fork_and_rerun_leaf_for_leaf_and_budget_for_budget(g):
    leaves, error = replay_outcome(reference_fan_replay, g, 1 << 10)
    # a finite tree has 2L - 1 nodes; hunt's is infinite, neg's ends in an error
    size = 2 * len(leaves) - 1 if error is None else 64
    for node_budget in range(1, size + 2):
        assert (replay_outcome(_fan_replay, g, node_budget)
                == replay_outcome(reference_fan_replay, g, node_budget)), node_budget


@pytest.mark.parametrize("g", REPLAY_BODIES, ids=lambda g: g.name)
def test_replay_carries_the_largest_queried_index(g):
    top = -1
    try:
        for answers, _ in _fan_replay(g, 64):
            top = max(top, max(answers, default=-1))
            assert answers.top == top
            assert answers.ones == [i for i, a in answers.items() if a == 1]
    except (BudgetExceeded, ValueError):
        pass


def _count_runs(g):
    body = g.body
    runs = []

    def counted(view):
        runs.append(None)
        return body(view)

    g.body = counted
    return runs


@pytest.mark.parametrize("g,expected", [
    *((catalog_functional(f"sum:{n}"), 1 << n) for n in (0, 1, 3, 6, 10)),
    (catalog_functional("proj:7"), 2),
    (catalog_functional("const:7"), 1),
    (TracedFunctional("gate", _gate), 3),
], ids=lambda x: getattr(x, "name", str(x)))
def test_replay_runs_the_body_once_per_leaf(g, expected):
    runs = _count_runs(g)
    omega_fan(g)
    assert len(runs) == expected


@pytest.mark.parametrize("spec", [f"{kind}:{n}" for kind in ("sum", "max")
                                  for n in range(1, 11)])
def test_replay_work_on_the_fan_workload_shapes(spec):
    # sum:N and max:N query 0..N-1 on every path: 2^N leaves, one body run
    # each, and 2^(N+1) - 1 nodes
    n = int(spec.partition(":")[2])
    g = catalog_functional(spec)
    runs = _count_runs(g)
    assert sum(1 for _ in _fan_replay(g, 1 << 20)) == len(runs) == 1 << n
    nodes = (1 << (n + 1)) - 1
    with pytest.raises(BudgetExceeded, match=f"^omega_fan: over {nodes - 1} replay"):
        omega_fan(g, node_budget=nodes - 1)
    assert omega_fan(g, node_budget=nodes) == n


def test_replay_budget_counts_tree_nodes():
    # sum:3 has 8 leaves and 15 nodes
    g = catalog_functional("sum:3")
    with pytest.raises(BudgetExceeded, match="^omega_fan: over 14 replay nodes$"):
        omega_fan(g, node_budget=14)
    assert omega_fan(g, node_budget=15) == 3


@pytest.mark.parametrize("spec,bound,cover_size", [
    ("const:0", 0, 1),
    ("max:3", 1, 2),
    ("sum:3", 3, 8),
    ("ifz:3:1:2", 1, 2),
])
def test_theta_bound_and_cover(spec, bound, cover_size):
    got = theta_special(catalog_functional(spec))
    assert type(got) is int and got == bound
    assert 1 << got == cover_size


def test_theta_cover_dominates_the_functional():
    g = catalog_functional("sum:4")
    bound = theta_special(g)
    for prefix in product((0, 1), repeat=omega_fan(g)):
        assert g(PresentedSequence(prefix, (0,))) <= bound


def test_theta_bound_is_not_capped_by_the_node_budget():
    # the cover is never built, so 2^10 prefixes cost one replay node
    assert theta_special(catalog_functional("const:10"), node_budget=100) == 10


def test_seq_view_traces_and_budgets():
    view = TracedSeqView(PresentedSequence((4, 5), (6,)), budget=3)
    assert view.query(1) == 5
    assert view.query(1) == 5
    assert view.trace == {1}
    view.query(0)
    view.query(2)
    with pytest.raises(BudgetExceeded):
        view.query(9)
    view.reset()
    assert view.trace == set()
    assert view.query(9) == 6


def test_real_view_codes_its_answers():
    view = TracedView(from_rational(Fraction(2, 3)))
    view._record_cells(range(2, 5), 3)
    assert view.trace == {2, 3, 4}
    assert view.subject.approx(4) == Fraction(2, 3)
    assert view.subject.exact_value() == Fraction(2, 3)


def test_every_view_kind_answers_queries():
    # a view is its subject and its trace: a kind of its own exists only
    # to answer queries, and a reader that reads its subject itself
    # views it through TracedView, not through a kind that only holds it
    for module in pkgutil.iter_modules(mulab.__path__):
        import_module(f"mulab.{module.name}")
    kinds, stack = set(), [TracedView]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if cls.__module__.startswith("mulab."):
                kinds.add(cls)
    assert kinds == {TracedSeqView, TracedTreeView}
    for cls in kinds:
        assert "query" in vars(cls), cls.__name__
    assert "query" not in vars(TracedView)


def test_xi_by_tracing_counts_both_runs():
    def phi(view, k):
        return [view.query(i) for i in range(k)]

    a = TracedSeqView(PresentedSequence((), (1,)))
    b = TracedSeqView(PresentedSequence((2,), (1,)))
    assert xi_by_tracing(phi, a, b, 5) == 5
    assert xi_by_tracing(phi, a, b, 0) == 0

    def lopsided(view, k):
        if view.query(0) == 2:
            return [view.query(7)]
        return [0]

    assert xi_by_tracing(lopsided, a, b, 1) == 8


@given(flags)
def test_zero_existence_round_trip(f):
    phi = e2_from_mu(mu_exact)
    assert phi(f) == (0 if mu_exact(f) is not None else 1)
    assert mu_from_e2(phi)(f) == mu_exact(f)


def test_mu_from_e2_reads_no_value_of_the_flag(monkeypatch):
    # once phi says a zero exists, the search asks the flag where the
    # first zero below its horizon is; it scans no entry
    f = PresentedSequence((1,) * 50 + (0,), (1,))
    value = PresentedSequence.value
    reads = []

    def counting_value(self, n):
        if self is f:
            reads.append(n)
        return value(self, n)

    monkeypatch.setattr(PresentedSequence, "value", counting_value)
    assert mu_from_e2(e2_from_mu(mu_exact))(f) == 50
    assert reads == [], reads


def test_mu_from_e2_rejects_an_existence_claim_without_a_zero():
    # phi claims a zero exists, but the sequence is 1 forever
    with pytest.raises(MalformedWitness, match="contradicted the scan"):
        mu_from_e2(lambda f: 0)(PresentedSequence((), (1,)))


@settings(max_examples=60)
@given(flags, flags)
def test_traced_functional_accepts_views_and_sequences(f, g):
    func = catalog_functional("f0+f1+1")
    assert func(f.value) == func(f)
    assert func(g) == g.value(0) + g.value(1) + 1


@settings(max_examples=60)
@given(flags, st.sampled_from(["const:3", "proj:2", "sum:3", "max:4",
                               "ifz:0:1:2", "f0+f2+1"]))
def test_a_traced_functional_reads_an_opaque_sequence_like_its_presentation(p, spec):
    g = catalog_functional(spec)
    opaque = OpaqueSequence(p.value)
    assert g(opaque) == g(p)
    assert g.eval_traced(opaque) == g.eval_traced(p)
    assert TracedSeqView(opaque).subject is opaque
