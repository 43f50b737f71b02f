"""Type-two functionals, query tracing, and derived moduli.

A TracedFunctional wraps a deterministic body that sees its input only
through a query view (index -> natural).  Everything else here is built
on replaying such bodies:

* omega_fan computes a fan modulus by replay over binary answers: each
  run answers every new query 1 and notes only its index, as an open
  branch point, and the next run backs up to the last open index,
  answers it 0 and goes on from there, one run per leaf.  The body's
  view is the answers dict's own lookup: an answered query is a plain
  dict lookup, and only a new query runs Python code.  The modulus is
  1 + the largest index queried anywhere in the completed tree, which
  the replay keeps as it goes.  A single run's trace would not be a
  sound modulus for adaptive bodies; the whole tree is.
* theta_special reads a bound off the same replay tree: the largest
  value at any of its leaves, which comes with the finite cover of
  zero-padded prefixes of that length.  trees.scf_check decides the
  cover check from the same leaves, never running g outside the replay.
* xi_by_tracing runs a reader through two views of any kind (a real's
  column, a tree, a table or a sequence) and reports 1 + the largest
  index either one touched.

Budgets make divergence on discontinuous inputs an error, not a hang.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

from .errors import BudgetExceeded, MalformedWitness, ParseError
from .sequences import DEFAULT_BUDGET, OpaqueSequence, PresentedSequence, _natural

__all__ = [
    "TracedFunctional",
    "omega_fan",
    "theta_special",
    "TracedView",
    "TracedSeqView",
    "xi_by_tracing",
    "catalog_functional",
    "e2_from_mu",
    "mu_from_e2",
]

View = Callable[[int], int]
Sequence = PresentedSequence | OpaqueSequence


class TracedFunctional:
    """A deterministic body over a query view, with per-evaluation tracing.
    Not frozen: the body can be swapped for a wrapped one."""

    def __init__(self, name: str, body: Callable[[View], int]) -> None:
        self.name = name
        self.body = body

    def __repr__(self) -> str:
        return f"TracedFunctional(name={self.name!r}, body={self.body!r})"

    def eval_traced(self, view: View | Sequence) -> tuple[int, frozenset[int]]:
        """The body's value on view, a sequence of either kind or a bare
        callable, and the distinct indices it queried, read through a
        TracedSeqView: each answer passes through int(), and more than
        DEFAULT_BUDGET distinct indices raise BudgetExceeded."""
        traced = TracedSeqView(view)
        return int(self.body(traced.query)), frozenset(traced.trace)

    def __call__(self, view: View | Sequence) -> int:
        return self.eval_traced(view)[0]


def _over(node_budget: int) -> BudgetExceeded:
    return BudgetExceeded(f"omega_fan: over {node_budget} replay nodes")


class _Answers(dict):
    """The answers of one replay run, keys in query order.  Looking up an
    answered index is a plain dict lookup; only a new index reaches
    __missing__, which counts its node, answers it 1, appends it to
    ones, the open 1-branches in query order, and raises top, the
    largest index queried so far in the whole replay."""

    __slots__ = ("budget", "nodes", "top", "ones")

    def __init__(self, budget: int) -> None:
        super().__init__()
        self.budget = budget
        self.nodes = 1
        self.top = -1
        self.ones: list[int] = []

    def __missing__(self, i: int) -> int:
        if i < 0:
            raise ValueError("negative index queried")
        self.nodes += 1
        if self.nodes > self.budget:
            raise _over(self.budget)
        if i > self.top:
            self.top = i
        self.ones.append(i)
        self[i] = 1
        return 1


def _fan_replay(g: TracedFunctional, node_budget: int
                ) -> Iterator[tuple[_Answers, int]]:
    """Leaves (answers, value) of g's complete binary decision tree,
    1-branches first.  At each leaf answers.ones lists the indices the
    leaf answers 1, in query order, and answers.top is the largest index
    queried at this leaf or any before it, -1 when none.

    One run of g per leaf: a run answers each new query 1 and notes its
    index as open, and the next run pops the last open index, trims the
    answers back to it and answers it 0.  Every 1-answer on the path is
    open, as its 0-branch is still to come.  The body's view is the
    answers dict's own lookup, so a query answered before in this run or
    on the shared prefix is a plain dict lookup, and only a new query
    runs Python code.  Nodes are counted in preorder as they are
    reached.  The answers dict is reused, its keys in query order: read
    or copy it before asking for the next leaf, and look it up with get,
    as indexing an unanswered key queries it.
    """
    answers = _Answers(node_budget)
    if answers.nodes > node_budget:
        raise _over(node_budget)
    query = answers.__getitem__
    ones = answers.ones
    trim = answers.popitem
    while True:
        yield answers, int(g.body(query))
        if not ones:
            return
        index = ones.pop()
        answers.nodes += 1
        if answers.nodes > node_budget:
            raise _over(node_budget)
        while trim()[0] != index:
            pass
        answers[index] = 0


def omega_fan(g: TracedFunctional, node_budget: int = DEFAULT_BUDGET) -> int:
    """Fan modulus on Cantor space: inputs agreeing below it get equal values.

    Explores the complete binary decision tree of g by replay.  Raises
    BudgetExceeded once the tree has more than node_budget nodes, which
    is the fate of genuinely discontinuous bodies.
    """
    for answers, _ in _fan_replay(g, node_budget):
        pass
    return 1 + answers.top


def theta_special(g: TracedFunctional,
                  node_budget: int = DEFAULT_BUDGET) -> int:
    """Bound of the special fan for g: the max of g over the zero-padded
    prefixes at the fan modulus, at least 0.

    By determinism each such prefix runs g down exactly one leaf of the
    replay tree, and each leaf is reached by some prefix, so the bound is
    the largest leaf value.  The cover, every zero-padded prefix of the
    bound's length, has 1 << bound elements and is never built.
    """
    bound = 0
    for _, value in _fan_replay(g, node_budget):
        if value > bound:
            bound = value
    return bound


class TracedView:
    """A view of subject that records the distinct entries a reader asks
    for, within budget.  TracedSeqView and trees.TracedTreeView answer
    queries and record them; the other readers read the subject (a
    real's column, one cell per row, or a function's table, one
    Cantor-paired cell per point and precision) and record what they
    read.  The subject stays reachable for exactness escapes, which is
    how the concrete functionals stay total at their tie points."""

    def __init__(self, subject, budget: int = DEFAULT_BUDGET):
        self.subject = subject
        self.trace: set = set()
        self.budget = budget

    def _record(self, entry) -> None:
        self.trace.add(entry)
        if len(self.trace) > self.budget:
            raise BudgetExceeded(f"view queried more than {self.budget} indices")

    def _record_cells(self, cells: Iterable, size: int) -> None:
        """Record the size entries of cells in one set update, as size
        calls of _record in their order would.  A run that may pass the
        budget falls back to _record, one entry at a time, so the error
        comes at the same entry, with budget + 1 entries in the trace."""
        if len(self.trace) + size <= self.budget:
            self.trace.update(cells)
            return
        for entry in cells:
            self._record(entry)

    def reset(self) -> None:
        self.trace.clear()

    def top(self) -> int:
        return max(self.trace, default=-1)


class TracedSeqView(TracedView):
    """Answers a query through ``value`` of a presented or an opaque
    sequence, or through a bare callable itself."""

    def __init__(self, seq: Sequence | View, budget: int = DEFAULT_BUDGET):
        super().__init__(seq, budget)
        self._answer = seq.value if isinstance(seq, (PresentedSequence,
                                                     OpaqueSequence)) else seq

    def query(self, i: int) -> int:
        self._record(i)
        return int(self._answer(i))


TwinPhi = Callable[[TracedView, int], list]


def xi_by_tracing(phi: TwinPhi, f_view: TracedView, g_view: TracedView,
                  k: int) -> int:
    """1 + the larger top() of the two views after producing the first k
    outputs of phi on each; 0 when nothing is queried.

    For deterministic phi whose negative decisions are certified by the
    queried values alone, inputs agreeing below the returned bound get
    agreeing first k outputs.
    """
    for view in (f_view, g_view):
        view.reset()
        phi(view, k)
    return max(f_view.top(), g_view.top()) + 1


# ---------------------------------------------------------------------------
# named catalog

def _linear(projections: Iterable[int], constant: int = 0) -> Callable[[View], int]:
    """The body view(p0) + view(p1) + ... + constant, queried in order."""
    return lambda view: sum(map(view, projections), constant)


def _largest(indices: Iterable[int]) -> Callable[[View], int]:
    """The body max(view(i0), view(i1), ...), queried in order."""
    return lambda view: max(map(view, indices))


# spelling -> (least value of its arguments, None for any; body builder)
_CATALOG: dict[str, tuple[int | None, Callable[..., Callable[[View], int]]]] = {
    "const:N": (None, lambda c: _linear((), c)),
    "proj:N": (0, lambda i: _linear((i,))),
    "sum:N": (0, lambda n: _linear(range(n))),
    "max:N": (1, lambda n: _largest(range(n))),
    "ifz:I:J:K": (0, lambda i, j, k: lambda view: view(j) if view(i) == 0 else view(k)),
}


def _terms(spec: str) -> tuple[str, list[int], int] | None:
    """The name, projection indices and summed constant of a '+'-joined
    mix such as f0+f1+1, or None unless spec is one with a projection.
    The name keeps the terms in their order, each written canonically
    (f00 as f0, 01 as 1), and joins them by '+' with no blanks."""
    names: list[str] = []
    projections: list[int] = []
    constant = 0
    for term in spec.split("+"):
        term = term.strip()
        if not term:
            return None
        index = _natural(term[1:]) if term.startswith("f") else None
        if index is not None:
            projections.append(index)
            names.append(f"f{index}")
        elif (value := _natural(term)) is not None:
            constant += value
            names.append(str(value))
        else:
            return None
    return ("+".join(names), projections, constant) if projections else None


def _integer(text: str, spec: str) -> int:
    """An optionally negative number in ASCII digits, read from spec."""
    n = _natural(text.removeprefix("-"))
    if n is None:
        raise ParseError(f"bad functional spec {spec!r}")
    return -n if text.startswith("-") else n


def catalog_functional(spec: str) -> TracedFunctional:
    """Build a functional from its catalog name: a spelling of _CATALOG
    with numbers for its letters, or a '+'-joined mix of projections fI
    and constants such as f0+f1+1.  Each kind's arguments must be at
    least its table value; only const:N takes any integer.  The
    functional is named canonically, whatever the spelling of spec:
    sum:04 as sum:4, const:-0 as const:0, ' f0 + f1 ' as f0+f1.
    """
    spec = spec.strip()
    kind, *args = spec.split(":")
    for spelling, (least, build) in _CATALOG.items():
        name, *letters = spelling.split(":")
        if kind == name and len(args) == len(letters):
            values = [_integer(arg, spec) for arg in args]
            if least is not None and min(values) < least:
                raise ParseError(f"{spelling} needs {', '.join(letters)} >= {least}")
            return TracedFunctional(":".join([kind, *map(str, values)]),
                                    build(*values))
    terms = _terms(spec)
    if terms is None:
        raise ParseError(f"unknown functional {spec!r}")
    name, projections, constant = terms
    return TracedFunctional(name, _linear(projections, constant))


# ---------------------------------------------------------------------------
# interconversion with the zero-existence functional

def e2_from_mu(mu) -> Callable[[PresentedSequence], int]:
    """Zero-existence decision: 0 when f hits zero somewhere, else 1."""

    def phi(f: PresentedSequence) -> int:
        return 0 if mu(f) is not None else 1

    return phi


def mu_from_e2(phi: Callable[[PresentedSequence], int]):
    """Least-zero search driven by a zero-existence decision: phi says
    whether f hits zero, and ``f.zero_below(f.horizon)`` says where."""

    def mu(f: PresentedSequence) -> int | None:
        if phi(f) != 0:
            return None
        n = f.zero_below(f.horizon)
        if n is None:
            raise MalformedWitness("existence functional contradicted the scan")
        return n

    return mu
