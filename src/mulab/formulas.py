"""A small formula language with a standardness marker and the rewrite
engine that drives marked formulas into a two-block normal form.

Formulas are S-expressions over typed quantifiers.  Types are the base
number type 0, arrow types, and finite-sequence types tau*; a bare digit
n abbreviates the pure type n -> (n-1 -> (... -> 0)).  Quantifiers may
carry the marker ``st`` restricting them to standard objects, and the
bounded form ``(ex-in x w body)`` ranges over entries of the sequence w.

``to_normal_form`` repeatedly applies local rewrites, highest priority
first and outermost first within a priority, until the formula reads as
a block of marked universals, then a block of marked existentials, then
a marker-free matrix.  Each node keeps a summary of the rules that fire
at it and below it, one per polarity, worked out the first time a run
asks and kept for every later one, since nodes never change.  The engine
finds each step from these summaries, not by rescanning the formula: a
step costs the nodes it builds and the ancestors it rebuilds.  Marked
quantifiers that reach the root are settled and never visited again.
Herbrandization (R2) substitutes a term for its witness through a body:
each term it looks at keeps the names in it, so it passes over a term
without the witness, and the nodes it rebuilds keep the summaries of
those they replace, as a term put for a name changes nothing a rule
guard reads.  So R2 pays for the nodes it changes, not for the terms
earlier steps left in the body.  A rule that lifts a binder over the
other side of an implication (R1a and the pulls) renames it first, to a
fresh name put through its body the same way, when its name occurs on
that side: the lifted binder never captures a name there.
Every step records the path it fired at together with the exact
subformula before and after, so a trace can be replayed against the
source formula.  Steps are equivalences except for the marker-dropping
rule, which only preserves truth top-down; a trace's certificate says
which kind the whole run is.  A run on a source with M marked
quantifiers and depth D stops within M*(D+M+1) steps; one that went past
that limit would raise NotNormalizable.

No walk over formulas, terms and types recurses, the parser included:
each keeps its own stack, so nesting depth costs time and memory only.
"""

from __future__ import annotations

import re
from operator import is_, is_not
from typing import Callable, Union

from .errors import FormulaScopeError, NotNormalizable, ParseError
from .value import Value, setfield

__all__ = [
    "Base", "Arrow", "Seq", "Type", "parse_type",
    "App", "Term", "Atom", "Not", "And", "Or", "Implies", "Quant", "ExIn",
    "Formula", "parse_formula", "format_formula",
    "is_internal", "relativize_st",
    "RuleStep", "RuleTrace", "NormalForm", "to_normal_form", "replay",
    "extraction_obligation",
]


# ---------------------------------------------------------------------------
# types

class Base(Value):
    pass


class Arrow(Value):
    _fields = ("left", "right")


class Seq(Value):
    _fields = ("inner",)


Type = Union[Base, Arrow, Seq]


def _pure_degree(t: Type) -> int | None:
    d = 0
    while isinstance(t, Arrow) and isinstance(t.right, Base):
        t, d = t.left, d + 1
    return d if isinstance(t, Base) else None


_MAX_DEGREE = 10_000  # a digit n builds n nested arrows


def parse_type(text: str, where: str = "") -> Type:
    """Read a type in one loop.  `groups` holds a list for the whole text
    and one for each parenthesis still open: the units read in it so far,
    each left of an arrow.  A group that ends folds them in from the right."""

    def fail(msg: str) -> ParseError:
        ctx = f" in {where}" if where else ""
        return ParseError(f"bad type {text!r}{ctx}: {msg}")

    groups: list[list[Type]] = [[]]
    pos = 0
    while True:
        while text.startswith("(", pos):
            groups.append([])
            pos += 1
        start = pos
        while pos < len(text) and text[pos] in "0123456789":
            pos += 1
        if pos == start:
            raise fail(f"unexpected {text[pos]!r}" if pos < len(text)
                       else "unexpected end")
        # lengths first: int() refuses a run past the interpreter's limit
        digits = text[start:pos].lstrip("0") or "0"
        if len(digits) > len(str(_MAX_DEGREE)) or int(digits) > _MAX_DEGREE:
            raise fail(f"degree {digits} is past {_MAX_DEGREE}")
        t = Base()
        for _ in range(int(digits)):
            t = Arrow(t, Base())
        # the unit ends; so does each group it closes, unless an arrow follows
        while True:
            while text.startswith("*", pos):
                pos += 1
                t = Seq(t)
            if text.startswith("->", pos):
                pos += 2
                groups[-1].append(t)
                break
            for left in reversed(groups.pop()):
                t = Arrow(left, t)
            if not groups:
                if pos != len(text):
                    raise fail(f"trailing {text[pos:]!r}")
                return t
            if not text.startswith(")", pos):
                raise fail("missing ')'")
            pos += 1


# ---------------------------------------------------------------------------
# terms and formulas

# The classes below write their fields themselves, in `_fields` order:
# the rewrite builds thousands of them per run, and a written-out
# constructor skips the binding and the loop over `_fields` that
# `Value.__init__` pays on every call.

class App(Value):
    _fields = ("head", "args")

    def __init__(self, head: str, args: tuple[Term, ...]) -> None:
        setfield(self, "head", head)
        setfield(self, "args", args)


Term = Union[str, App]


class Atom(Value):
    _fields = ("pred", "args")
    args = ()

    def __init__(self, pred: str, args: tuple[Term, ...] = args) -> None:
        setfield(self, "pred", pred)
        setfield(self, "args", args)


class Not(Value):
    _fields = ("body",)

    def __init__(self, body: Formula) -> None:
        setfield(self, "body", body)


class _Binary(Value):
    """And, Or and Implies; == tells them apart by class."""

    _fields = ("left", "right")

    def __init__(self, left: Formula, right: Formula) -> None:
        setfield(self, "left", left)
        setfield(self, "right", right)


class And(_Binary):
    pass


class Or(_Binary):
    pass


class Implies(_Binary):
    pass


class Quant(Value):
    # kind is "all" or "ex"; mono marks bound variables the engine
    # already bounded
    _fields = ("kind", "st", "var", "vtype", "body", "mono")
    mono = False

    def __init__(self, kind: str, st: bool, var: str, vtype: Type,
                 body: Formula, mono: bool = mono) -> None:
        if kind not in ("all", "ex"):
            raise ValueError(f"bad quantifier kind {kind!r}")
        setfield(self, "kind", kind)
        setfield(self, "st", st)
        setfield(self, "var", var)
        setfield(self, "vtype", vtype)
        setfield(self, "body", body)
        setfield(self, "mono", mono)


class ExIn(Value):
    _fields = ("var", "bound", "body")

    def __init__(self, var: str, bound: Term, body: Formula) -> None:
        setfield(self, "var", var)
        setfield(self, "bound", bound)
        setfield(self, "body", body)


Formula = Union[Atom, Not, And, Or, Implies, Quant, ExIn]


def _parts(x: Formula | Term) -> tuple:
    """The terms and subformulas directly below a formula or a term."""
    t = type(x)
    if t is Atom or t is App:
        return x.args
    if t is Quant or t is Not:
        return (x.body,)
    if t is ExIn:
        return (x.bound, x.body)
    return () if t is str else (x.left, x.right)


def _with_parts(x: Formula | Term, parts: tuple | list) -> Formula | Term:
    """x built again with `parts` in place of `_parts(x)`."""
    t = type(x)
    if t is Atom or t is App:
        return t(x.pred if t is Atom else x.head, tuple(parts))
    if t is Quant:
        return Quant(x.kind, x.st, x.var, x.vtype, parts[0], x.mono)
    if t is ExIn:
        return ExIn(x.var, *parts)
    return x if t is str else t(*parts)


def _below(f: Formula, pol: int) -> tuple[tuple[Formula, int], ...]:
    """The children of f, each with its polarity when f sits at polarity
    pol: implication antecedents and negations flip it."""
    t = type(f)
    if t is Implies:
        return (f.left, -pol), (f.right, pol)
    if t is Quant or t is ExIn:
        return ((f.body, pol),)
    if t is Not:
        return ((f.body, -pol),)
    return () if t is Atom else ((f.left, pol), (f.right, pol))


def _splice(f: Formula, i: int, kid: Formula) -> Formula:
    """f with its child i replaced by kid."""
    t = type(f)
    if t is Quant:
        return Quant(f.kind, f.st, f.var, f.vtype, kid, f.mono)
    if t is Not:
        return Not(kid)
    if t is ExIn:
        return ExIn(f.var, f.bound, kid)
    return t(kid, f.right) if i == 0 else t(f.left, kid)


# ---------------------------------------------------------------------------
# parsing

# blanks and comments, then one token: a parenthesis, a symbol, or ""
# at the end of the input
_TOKEN = re.compile(r"(?:[ \t\r\n]+|;[^\n]*)*([()]|[^ \t\r\n();]*)")
_RUN = re.compile(r"[^ \t\r\n;]*")


def _tokenize(text: str) -> tuple[list[str], list[int]]:
    """The tokens of text, ending with "", and their offsets.  A binder
    whose type opens with a parenthesis, as in ``F:(0->1)*``, keeps its
    type with its name when the run up to the next blank balances."""
    toks: list[str] = []
    starts: list[int] = []
    tok, pos = None, 0
    while tok != "":
        m = _TOKEN.match(text, pos)
        tok, pos = m[1], m.end()
        if ":" in tok and text.startswith("(", pos):
            run = _RUN.match(text, pos)[0]
            if run.count("(") == run.count(")"):
                tok, pos = tok + run, pos + len(run)
        toks.append(tok)
        starts.append(m.start(1))
    return toks, starts


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks, self.starts = _tokenize(text)
        self.pos = 0

    def fail(self, msg: str, back: int = 0) -> ParseError:
        """The error at the current token, or `back` tokens before it."""
        tok, start = self.toks[self.pos - back], self.starts[self.pos - back]
        if not tok:
            return ParseError(f"end of input: {msg}")
        line = self.text.count("\n", 0, start) + 1
        col = start - self.text.rfind("\n", 0, start)
        return ParseError(f"line {line} col {col}: {msg} (at {tok!r})")

    def next(self) -> str:
        tok = self.toks[self.pos]
        if not tok:
            raise self.fail("unexpected end")
        self.pos += 1
        return tok

    def expect(self, text: str) -> None:
        if self.next() != text:
            raise self.fail(f"expected {text!r}", 1)

    def symbol(self) -> str:
        tok = self.next()
        if tok in ("(", ")"):
            raise self.fail("expected a symbol", 1)
        return tok


# each form's class, and the parts it reads after its head and binder:
# "f" a formula, "t" a term, "*" terms up to its ")"
_FORMS = {"atom": (Atom, "*"), "not": (Not, "f"), "and": (And, "ff"),
          "or": (Or, "ff"), "imp": (Implies, "ff"), "all": (Quant, "f"),
          "ex": (Quant, "f"), "ex-in": (ExIn, "tf")}


def parse_formula(text: str) -> Formula:
    """Read a formula shift-reduce, from an explicit stack of open forms.
    A form is [class, parts, todo, var]: `todo` spells the parts it still
    reads, as in _FORMS, and `var` is the name it binds, in scope until
    it closes.  A form whose `todo` is spent reads its ")" and becomes
    the next part of the form below it; the bottom form takes the whole
    formula.  Binders that spell their type alike share one type."""
    p = _Parser(text)
    scope: set[str] = set()
    types: dict[str, Type] = {}
    forms: list[list] = [[None, [], "f", None]]
    while True:
        todo = forms[-1][2]
        if not todo or todo == "*" and p.toks[p.pos] in ("", ")"):
            if len(forms) == 1:
                break
            cls, parts, _, var = forms.pop()
            p.expect(")")
            if cls is App and len(parts) == 1:
                raise p.fail("app needs at least one argument", 1)
            scope.discard(var)
            node = (cls(parts[0], tuple(parts[1:])) if cls is Atom or cls is App
                    else cls(*parts))
        elif todo[0] != "f":
            node = p.next()
            if node == ")":
                raise p.fail("expected a term", 1)
            if node == "(":
                p.expect("app")
                forms.append([App, [p.symbol()], "*", None])
                continue
        else:
            p.expect("(")
            head = p.symbol()
            if head not in _FORMS:
                raise p.fail(f"unknown form {head!r}", 1)
            cls, todo = _FORMS[head]
            parts = [p.symbol()] if head == "atom" or head == "ex-in" else []
            var = parts[0] if head == "ex-in" else None
            if cls is Quant:
                st = p.toks[p.pos] == "st"
                p.pos += st
                binder = p.next()
                var, _, ann = binder.partition(":")
                if not var or not ann:
                    raise p.fail("expected var:type", 1)
                vtype = types.get(ann)
                if vtype is None:
                    vtype = types[ann] = parse_type(ann, where=binder)
                parts = [head, st, var, vtype]
            if var is not None:
                if var in scope:
                    raise FormulaScopeError(f"variable {var!r} rebound")
                scope.add(var)
            forms.append([cls, parts, todo, var])
            continue
        form = forms[-1]
        form[1].append(node)
        if form[2] != "*":
            form[2] = form[2][1:]
    if p.toks[p.pos]:
        raise p.fail("trailing input")
    return forms[0][1][0]


# how each node but a quantifier opens; its parts follow, each after a blank
_OPEN = {Not: "(not", And: "(and", Or: "(or", Implies: "(imp",
         Atom: "(atom {0.pred}", App: "(app {0.head}", ExIn: "(ex-in {0.var}"}


def format_formula(root: Formula | Term | Type,
                   printed: dict[int, tuple[object, str]] | None = None) -> str:
    """Print a formula, or a term or a type, from an explicit stack.  A
    node writes its opening text and pushes the rest in reverse; a string
    on the stack, a name or a piece of syntax, is written as it stands.

    `printed` maps the id of a node already printed to that node and its
    text, which is written for it as it stands: a node prints alike
    wherever it sits, and the node an entry holds keeps its id from
    passing to another object."""
    out: list[str] = []
    stack = [root]
    while stack:
        x = stack.pop()
        t = type(x)
        if t is str:
            out.append(x)
        elif printed and id(x) in printed:
            out.append(printed[id(x)][1])
        elif t in _OPEN:
            out.append(_OPEN[t].format(x))
            stack.append(")")
            for part in reversed(_parts(x)):
                stack += (" " + part,) if type(part) is str else (part, " ")
        elif t is Quant:
            out.append(f"({x.kind} {'st ' if x.st else ''}{x.var}:")
            stack += (")", x.body, " ", x.vtype)
        elif t is Seq:  # an arrow inside writes its own parentheses
            stack += ("*", x.inner)
        else:
            d = _pure_degree(x)
            if d is None:
                out.append("(")
                stack += (")", x.right, "->", x.left)
            else:
                out.append(str(d))
    return "".join(out)


# ---------------------------------------------------------------------------
# basic queries

def _scan(f: Formula | Term) -> tuple[set[str], int, int]:
    """The names in f, its marked quantifiers M, counted at every
    position, and its depth D, the formula edges on its longest
    root-to-leaf path (terms add none).  One walk visits each distinct
    node once, its parts first, so a part that several positions share
    costs once and counts at each."""
    names: set[str] = set()
    got: dict[int, tuple[int, int]] = {}  # M and D of each node reached
    todo: list = [f]
    while todo:
        node = todo.pop()
        t = type(node)
        if t is tuple:  # a node again, after its parts: (node, 1 if marked, _below(node, 1))
            node, marked, kids = node
            depth = 0
            for k, _ in kids:
                m, d = got[id(k)]
                marked += m
                if d >= depth:
                    depth = d + 1
            got[id(node)] = marked, depth
        elif t is str:
            names.add(node)
        elif id(node) not in got:
            if t is Atom or t is App:  # only terms below
                names.add(node.pred if t is Atom else node.head)
                got[id(node)] = 0, 0
                todo += node.args
                continue
            if t is Quant or t is ExIn:
                names.add(node.var)
            todo.append((node, int(t is Quant and node.st), _below(node, 1)))
            todo += _parts(node)
    return (names, *got.get(id(f), (0, 0)))


def _term_names(x: App | Formula) -> frozenset[str]:
    """The names in a term or a formula, `_scan(x)[0]`, kept in a field
    of the node's own, `_names`, out of ==, hash and repr, and written
    once, on first use.  Only the node asked keeps a set, not the nodes
    below it: sets at every App of a deep term would cost the square of
    its depth, where this costs no more than the terms R2 asks about and
    the sides a quantifier is lifted over (`_lift`)."""
    names = getattr(x, "_names", None)
    if names is None:
        names = frozenset(_scan(x)[0])
        setfield(x, "_names", names)
    return names


def is_internal(f: Formula) -> bool:
    """True when no quantifier carries the standardness marker: False at
    a marked root, else the marked bit of the root's rule summary, which
    the engine keeps."""
    return not (_is_marked(f) or _summary(f, 1) & _MARKED)


def relativize_st(f: Formula) -> Formula:
    """Mark every quantifier standard except guarded number quantifiers
    and sequence-entry quantifiers, which are bounded already."""
    return _rebuild(f, _mark_unguarded)


def _mark_unguarded(x: Formula | Term) -> tuple[Formula | Term, tuple]:
    """The visit of `relativize_st`: a quantifier is marked unless it is a
    guarded number quantifier, (all n:0 (imp (atom leq n t) ...)) or
    (ex n:0 (and (atom leq n t) ...)) with n not in t."""
    if isinstance(x, Quant):
        b = x.body
        guard = b.left if isinstance(b, Implies if x.kind == "all" else And) else None
        guarded = (isinstance(x.vtype, Base) and isinstance(guard, Atom)
                   and guard.pred == "leq" and len(guard.args) == 2
                   and guard.args[0] == x.var
                   and x.var not in _scan(guard.args[1])[0])
        if x.st == guarded:
            x = Quant(x.kind, not guarded, x.var, x.vtype, x.body, x.mono)
    return x, _parts(x)


# ---------------------------------------------------------------------------
# rebuilding and fresh names

def _rebuild(root: Formula | Term, visit: Callable,
             carry: bool = False) -> Formula | Term:
    """Rebuild a formula or a term bottom-up from an explicit stack.
    `visit(node)` sees each node, last part first, and returns the node
    to build with the leading parts (`_parts`) of it to rebuild; in
    reverse visiting order these are done, left to right, just before
    it.  A node whose parts come back as the same objects stays as is.

    With `carry`, a node built anew keeps the rule summaries (`_summary`)
    of the node it replaces, at whichever polarities that one has them.
    Only a rebuild that changes nothing a guard reads may ask for it: R2's
    substitution into terms does, `relativize_st`'s marking does not."""
    order = []
    todo = [root]
    while todo:
        node, below = visit(todo.pop())
        order.append((node, below))
        todo += below
    done: list = []
    for node, below in reversed(order):
        if below:
            n = len(below)
            new = done[-n:]
            del done[-n:]
            if any(map(is_not, new, below)):
                new += _parts(node)[n:]
                built = _with_parts(node, new)
                if carry:
                    _carry(node, built)
                node = built
        done.append(node)
    return done[0]


def _carry(old: Formula, new: Formula) -> None:
    """Give new the rule summaries (`_summary`) that old has."""
    for field in _SUMMARY.values():
        got = getattr(old, field, None)
        if got is not None:
            setfield(new, field, got)


class _Names:
    def __init__(self, taken: set[str]):
        self.taken = set(taken)

    def fresh(self, base: str) -> str:
        name = base
        k = 2
        while name in self.taken:
            name = f"{base}{k}"
            k += 1
        self.taken.add(name)
        return name


# ---------------------------------------------------------------------------
# the rewrite rules

_EQ = "equivalence"
_IMP = "implication"


class RuleStep(Value):
    """One rewrite: its rule and tag, where it fired, and the subformula
    there before and after.  `at` is the last cell of a chain of (parent
    cell, child index) pairs from the root cell (), shared between the
    steps of a run.  `path` spells it out; equality and repr see that."""

    _fields = ("rule", "tag", "before", "after")  # hashed: no `at`

    def __init__(self, rule: str, tag: str, at: tuple, before: Formula,
                 after: Formula) -> None:
        setfield(self, "rule", rule)
        setfield(self, "tag", tag)  # _EQ or _IMP
        setfield(self, "before", before)
        setfield(self, "after", after)
        setfield(self, "at", at)

    @property
    def path(self) -> tuple[int, ...]:
        path, cell = [], self.at
        while cell:
            cell, i = cell
            path.append(i)
        return tuple(reversed(path))

    def _key(self) -> tuple:
        return self.rule, self.tag, self.path, self.before, self.after

    def __eq__(self, other: object) -> bool:
        return type(other) is RuleStep and self._key() == other._key()

    __hash__ = Value.__hash__

    def __repr__(self) -> str:
        return ("RuleStep(rule={!r}, tag={!r}, path={!r}, before={!r}, "
                "after={!r})".format(*self._key()))


class RuleTrace(Value):
    _fields = ("steps",)

    @property
    def certificate(self) -> str:
        """"equivalence" when every step is invertible, else
        "implication": the source formula implies the result."""
        return _IMP if any(s.tag == _IMP for s in self.steps) else _EQ

    def rules(self) -> tuple[str, ...]:
        return tuple(s.rule for s in self.steps)


# A rule is the node type it fires at, a guard, which says whether it
# fires at a node of that type and a given polarity, and a builder, which
# rewrites a node its guard accepts.  Only builders draw fresh names.
# Guards that need to know whether a subtree is internal ask
# `_internal(subtree, polarity)`, which reads the subtree's summary.


def _run(f: Formula, kind: str, number: bool = False) -> tuple[list[Quant], Formula]:
    """The maximal block of marked `kind` quantifiers (number-typed ones
    only, when asked) from f down, and the formula below it."""
    block = []
    while (isinstance(f, Quant) and f.kind == kind and f.st
           and (not number or isinstance(f.vtype, Base))):
        block.append(f)
        f = f.body
    return block, f


def _r1a_guard(node: Implies, pol: int) -> bool:
    return (isinstance(node.left, Quant) and node.left.kind == "ex"
            and node.left.st)


def _lift(q: Quant, past: Formula, names: _Names) -> tuple[str, Formula]:
    """The name and body under which q can be lifted over `past`: its
    own, or a fresh name put in its body when its name occurs anywhere
    in `past`, where it would capture a free name or nest a binder of
    that name."""
    if q.var not in _term_names(past):
        return q.var, q.body
    var = names.fresh(q.var)
    return var, _put(q.body, q.var, var)


def _r1a(node: Implies, names: _Names):
    """Marked existential antecedent becomes a marked universal outside."""
    q = node.left
    var, body = _lift(q, node.right, names)
    return Quant("all", True, var, q.vtype, Implies(body, node.right)), _EQ


def _r2_guard(node: Implies, pol: int) -> bool:
    chain, cur = _run(node.left, "all")
    return bool(chain) and isinstance(cur, Quant) and cur.kind == "ex" and cur.st


def _r2(node: Implies, names: _Names):
    """Herbrandize: a marked forall-exists antecedent trades its inner
    existential for a fresh functional quantified outside.  Only the new
    nodes above the witness body are summarized afresh (`_put`)."""
    chain, witness = _run(node.left, "all")
    ftype: Type = witness.vtype
    for q in reversed(chain):
        ftype = Arrow(q.vtype, ftype)
    base = witness.var.upper()
    fname = names.fresh(base if base != witness.var else "F" + witness.var)
    inner = _put(witness.body, witness.var,
                 App(fname, tuple(q.var for q in chain)))
    for q in reversed(chain):
        inner = Quant("all", True, q.var, q.vtype, inner)
    return Quant("all", True, fname, ftype,
                 Implies(inner, node.right)), _EQ


def _put(body: Formula, var: str, new: Term) -> Formula:
    """body with the term `new` wherever the name `var` is free in it; a
    head position takes only a name.

    It pays for what it changes.  It keeps whole a term whose kept names
    (`_term_names`) lack var, so the terms earlier steps put in cost
    nothing after their first look; a nested head is among those names,
    so var there is still found.  An atom puts its terms in itself, not
    through the rebuild's stack.  The nodes it rebuilds keep the
    summaries of those they replace (`_rebuild`'s `carry`): a term put
    for a name changes no node type, quantifier kind, marker, binder
    type or marked bit, and guards read nothing else."""

    def substitute(x):
        if type(x) is str:
            return (new if x == var else x), ()
        if x.head == var:
            if type(new) is not str:
                raise NotNormalizable("cannot substitute applied term for head "
                                      f"position {var!r}")
            x = App(new, x.args)
        return x, x.args

    def put(x: Term) -> Term:
        # a term in a formula node is kept when it lacks var, and else
        # substituted whole, without asking the terms below it
        if type(x) is str:
            return new if x == var else x
        return x if var not in _term_names(x) else _rebuild(x, substitute)

    def visit(x):
        t = type(x)
        if t is Atom:
            args = tuple([put(a) for a in x.args])
            if all(map(is_, args, x.args)):
                return x, ()
            built = Atom(x.pred, args)
            _carry(x, built)
            return built, ()
        if t is str or t is App:  # an entry bound
            return put(x), ()
        if (t is Quant or t is ExIn) and x.var == var:
            return x, (x.bound,) if t is ExIn else ()  # only a bound is outside
        return x, _parts(x)

    return _rebuild(body, visit, carry=True)


def _r3_guard(node: Quant, pol: int) -> bool:
    return (pol < 0 and node.kind == "all" and node.st
            and not isinstance(node.vtype, Base))


def _r3(node: Quant, names: _Names):
    """Drop the marker on a higher-type universal in antecedent position.
    The result is implied by the source but not equivalent to it."""
    return Quant(node.kind, False, node.var, node.vtype, node.body,
                 node.mono), _IMP


def _p4_guard(node: Implies, pol: int) -> bool:
    return (isinstance(node.right, Quant) and node.right.kind == "all"
            and node.right.st)


def _pull(node: Implies, names: _Names):
    """Pull a marked quantifier out of a consequent: any universal
    (_p4_guard), an existential only when it is higher type or already
    carries a monotone bound (_p7_guard)."""
    q = node.right
    var, body = _lift(q, node.left, names)
    return Quant(q.kind, True, var, q.vtype,
                 Implies(node.left, body), q.mono), _EQ


def _r1b_guard(node: Implies, pol: int) -> bool:
    chain, cur = _run(node.left, "all", number=True)
    return bool(chain) and _internal(cur, -pol)


def _r1b(node: Implies, names: _Names):
    """An antecedent block of marked number universals over an internal
    body collapses to one marked existential bound outside the
    implication, guarding the block with leq."""
    chain, cur = _run(node.left, "all", number=True)
    bound = names.fresh("N")
    guarded = cur
    for q in reversed(chain):
        guarded = Quant("all", False, q.var, Base(),
                        Implies(Atom("leq", (q.var, bound)), guarded))
    return Quant("ex", True, bound, Base(),
                 Implies(guarded, node.right), mono=True), _EQ


def _r1c_guard(node: Implies, pol: int) -> bool:
    q = node.right
    return (isinstance(q, Quant) and q.kind == "ex" and q.st
            and isinstance(q.vtype, Base) and not q.mono
            and _internal(q.body, pol))


def _r1c(node: Implies, names: _Names):
    """A marked number existential in a consequent becomes a plain
    bounded search below a fresh marked bound outside the implication.
    The fresh bound is monotone, so it is never re-bounded."""
    q = node.right
    bound = names.fresh("i")
    inner = Quant("ex", False, q.var, Base(),
                  And(Atom("leq", (q.var, bound)), q.body))
    return Quant("ex", True, bound, Base(),
                 Implies(node.left, inner), mono=True), _EQ


def _p7_guard(node: Implies, pol: int) -> bool:
    q = node.right
    return (isinstance(q, Quant) and q.kind == "ex" and q.st
            and (not isinstance(q.vtype, Base) or q.mono))


def _r4_guard(node: Quant, pol: int) -> bool:
    if node.kind != "all" or node.st:
        return False
    block, cur = _run(node.body, "ex")
    return bool(block) and _internal(cur, pol)


def _r4(node: Quant, names: _Names):
    """Idealize: a plain universal over a block of marked existentials
    becomes marked existential sequences outside, with the block turned
    into entry-bounded searches.  Tuples are handled componentwise."""
    block, cur = _run(node.body, "ex")
    seq_names = [names.fresh("w") for _ in block]
    inner: Formula = cur
    for q, w in zip(reversed(block), reversed(seq_names)):
        inner = ExIn(q.var, w, inner)
    result: Formula = Quant("all", False, node.var, node.vtype, inner)
    for q, w in zip(reversed(block), reversed(seq_names)):
        result = Quant("ex", True, w, Seq(q.vtype), result)
    return result, _EQ


def _p9_guard(node: Not, pol: int) -> bool:
    return isinstance(node.body, Quant) and node.body.st


def _p9(node: Not, names: _Names):
    """Push negation through marked quantifiers."""
    q = node.body
    dual = "all" if q.kind == "ex" else "ex"
    return Quant(dual, True, q.var, q.vtype, Not(q.body)), _EQ


# (name, node type, guard, builder), highest priority first
_RULES: tuple[tuple[str, type, Callable, Callable], ...] = (
    ("R1a-flip-antecedent", Implies, _r1a_guard, _r1a),
    ("R2-herbrandize", Implies, _r2_guard, _r2),
    ("R3-drop-st", Quant, _r3_guard, _r3),
    ("forall-pull", Implies, _p4_guard, _pull),
    ("R1b-bound-antecedent", Implies, _r1b_guard, _r1b),
    ("R1c-bound-consequent", Implies, _r1c_guard, _r1c),
    ("exists-pull", Implies, _p7_guard, _pull),
    ("R4-idealize", Quant, _r4_guard, _r4),
    ("not-push", Not, _p9_guard, _p9),
)

# Bit r of a summary's `below` stands for rule r, and _MARKED for a marked
# quantifier; `here` sits _HERE bits up.
_MARKED = 1 << len(_RULES)
_RULE_BITS = _MARKED - 1
_HERE = len(_RULES) + 1
_BELOW = (1 << _HERE) - 1
_GUARDS = {t: tuple((1 << r, guard)
                    for r, (_, kind, guard, _) in enumerate(_RULES) if kind is t)
           for t in (Not, Implies, Quant)}  # no rule fires at the others
# Each guard at an implication reads one side and fires only when that
# side is a marked quantifier, so an implication runs the guards of the
# sides that are: indexed by 1 for a marked antecedent, plus 2 for a
# marked consequent.
_ANTECEDENT_GUARDS = (_r1a_guard, _r2_guard, _r1b_guard)
_IMPLIES_GUARDS = tuple(
    tuple((bit, guard) for bit, guard in _GUARDS[Implies]
          if sides & (1 if guard in _ANTECEDENT_GUARDS else 2))
    for sides in range(4))
# the field that keeps a node's summary at each polarity
_SUMMARY = {1: "_summary_pos", -1: "_summary_neg"}


def _is_marked(f: Formula) -> bool:
    return type(f) is Quant and f.st


def _summary(node: Formula, pol: int) -> int:
    """The node's summary at polarity pol, here << _HERE | below:
    - `here` has bit r set when rule r fires at the node;
    - `below` ORs `here` over the whole subtree, plus _MARKED when a
      marked quantifier lies in it, so the subtree is internal exactly
      when that bit is clear.
    A summary depends only on the subtree and its polarity, and a node
    never changes, so the node keeps it in a field of its own, worked out
    on first use for it and for whatever of its subtree has none,
    children before parents, each distinct node once per polarity.  A
    subtree that a rewrite moves, or that several positions or calls
    share, keeps its summary.  It is an int, so it holds no reference
    back to its node."""
    got = getattr(node, _SUMMARY[pol], None)
    if got is not None:
        return got
    # depth first down to the nodes that have one; a node is summarized
    # when it comes off the stack the second time, after its children
    todo = [(node, pol, False)]
    while todo:
        f, p, ready = todo.pop()
        if ready:
            got = _summarize(f, p)
        elif getattr(f, _SUMMARY[p], None) is None:  # not reached before
            todo.append((f, p, True))
            for k, kp in _below(f, p):
                if getattr(k, _SUMMARY[kp], None) is None:
                    todo.append((k, kp, False))
    return got


def _summarize(f: Formula, p: int) -> int:
    """Work out f's summary at polarity p, and keep it.  Its children
    have theirs, and so every node below them.  Each node type reads its
    children and their polarities itself, as `_below` would give them."""
    t = type(f)
    field = _SUMMARY[p]
    if t is Implies:
        left, right = f.left, f.right
        guards = _IMPLIES_GUARDS[(type(left) is Quant and left.st)
                                 | (type(right) is Quant and right.st) << 1]
        below = getattr(left, _SUMMARY[-p]) | getattr(right, field)
    elif t is Quant:
        guards = _GUARDS[Quant]
        below = getattr(f.body, field)
        if f.st:
            below |= _MARKED
    elif t is Not:
        guards = _GUARDS[Not]
        below = getattr(f.body, _SUMMARY[-p])
    elif t is Atom:
        setfield(f, field, 0)
        return 0
    elif t is ExIn:
        guards, below = (), getattr(f.body, field)
    else:  # And, Or
        guards, below = (), getattr(f.left, field) | getattr(f.right, field)
    here = 0
    for bit, guard in guards:
        if guard(f, p):
            here |= bit
    got = here << _HERE | (below | here) & _BELOW
    setfield(f, field, got)
    return got


def _internal(f: Formula, pol: int) -> bool:
    """Whether f, a summarized node, holds no marked quantifier."""
    return not getattr(f, _SUMMARY[pol]) & _MARKED


class NormalForm(Value):
    _fields = ("foralls", "exists", "matrix")

    def to_formula(self) -> Formula:
        f = self.matrix
        for v, t in reversed(self.exists):
            f = Quant("ex", True, v, t, f)
        for v, t in reversed(self.foralls):
            f = Quant("all", True, v, t, f)
        return f


def to_normal_form(f: Formula) -> tuple[NormalForm, RuleTrace]:
    names, marked, depth = _scan(f)
    steps, current = _rewrite(f, _Names(names), marked, depth)

    foralls, cur = _run(current, "all")
    exists, cur = _run(cur, "ex")
    if not is_internal(cur):  # a summary read: only rebuilt nodes lack one
        raise NotNormalizable(
            "markers remain outside a forall-exists prefix: "
            + format_formula(cur))
    nf = NormalForm(tuple((q.var, q.vtype) for q in foralls),
                    tuple((q.var, q.vtype) for q in exists), cur)
    return nf, RuleTrace(tuple(steps))


def _rewrite(f: Formula, names: _Names, marked: int,
             depth: int) -> tuple[list[RuleStep], Formula]:
    """Rewrite f, with M = `marked` and D = `depth` (`_scan`), to a fixed
    point; return the steps and the result.

    Each step fires the highest-priority rule that fires anywhere, at its
    outermost-leftmost position: the first in preorder.  The node
    summaries (`_summary`) say where that is without a rescan.  Between
    steps the rewrite keeps a spine, one level per node from the root
    down to the last hit, like a zipper.  A level is
    [node, summary, pol, before, left, cell]:
    - `node` is the level's node as last built, and `summary` its summary
      then.  The node goes stale when a step below replaces its spine
      child, but `here` and `below` in `summary` remain those of the
      current subtree;
    - `before` ORs the rule bits at the positions before the node in
      preorder: the ancestors' `here` and `left`;
    - `left` ORs `below` over the node's left siblings;
    - `cell` is the level's place, as in RuleStep.at.

    A step reads the least rule bit pending at the root, climbs from the
    last hit to the deepest level whose subtree holds the first hit of
    that rule (the first level whose `before` lacks the bit and whose
    `below` has it), and descends from there to the hit through real
    children and their summaries.  Only the hit is built.  Its ancestors
    are then re-summarized bottom-up, each rebuilt around its new child,
    while something their guards see has changed.  A guard sees the heads
    of its node's children, the heads along chains of marked quantifiers
    below them, and the marked bit at the end of such a chain.  So a
    level passes a change up when its `below` changed, or, being a
    marked quantifier, when the level below passed up a change it sees,
    or else when its marked bit flipped.

    The next hit lies in the subtree of the highest level re-summarized:
    nothing outside it changed, so a rule that appeared or vanished, or
    whose first hit moved out of it, would have changed that level's
    `below`.  The climb thus never passes a stale level, and a step costs
    the levels between successive hits plus the levels whose summaries
    changed, not the depth of the formula.  The stale levels are rebuilt
    once, at the end.  A stale node keeps the summary of its own subtree:
    the current one lives in the spine only.
    """
    # Step limit.  Let M count the marked quantifiers and S sum, over
    # them, the unmarked nodes above each.  Every rule but R3 lowers S
    # without raising M: it lifts marked quantifiers past the node it
    # fired at, and R1b may merge a block of them into one.  R3 unmarks
    # one quantifier, lowering M, and raises S by less than M: only the
    # marked quantifiers below it gain a node.  S starts at most M*D for
    # a source of depth D, so a run has at most M steps of R3 and
    # M*D + M*(M-1) others, fewer than M*(D+M+1).
    limit = marked * (depth + marked + 1)
    steps: list[RuleStep] = []
    # Marked quantifiers at the root are settled: no rule fires at a
    # positive marked quantifier, and none fires above it, so they are
    # peeled off into `prefix` and later steps never revisit them.
    prefix: list[Quant] = []
    spine: list[list] = [[f, _summary(f, 1), 1, 0, 0, ()]]
    for _ in range(limit + 1):
        # Only a step at the root changes its head, and the root is then
        # the whole spine.
        node = spine[0][0]
        while _is_marked(node):
            prefix.append(node)
            node = node.body
            spine[0] = [node, _summary(node, 1), 1, 0, 0, (spine[0][5], 0)]
        pending = spine[0][1] & _RULE_BITS
        if not pending:
            break
        bit = pending & -pending
        rule_name, _, _, build = _RULES[bit.bit_length() - 1]
        # climb to the deepest level whose subtree holds the first hit
        k = len(spine) - 1
        while spine[k][3] & bit or not spine[k][1] & bit:
            k -= 1
        del spine[k + 1:]
        node, got, pol, before, _, cell = spine[k]
        while not got >> _HERE & bit:
            here, left = got >> _HERE, 0
            for i, (kid, kid_pol) in enumerate(_below(node, pol)):
                got = getattr(kid, _SUMMARY[kid_pol])
                if got & bit:
                    break
                left |= got & _BELOW
            before |= here | left
            cell = cell, i
            spine.append([kid, got, kid_pol, before, left, cell])
            node, pol = kid, kid_pol
        after, tag = build(node, names)
        steps.append(RuleStep(rule_name, tag, cell, node, after))
        spine[-1][:2] = after, _summary(after, pol)
        # re-summarize up while a guard can see a change; the hit's head
        # is one
        seen = True
        k = len(spine) - 2
        while k >= 0:
            level, child = spine[k], spine[k + 1]
            old = level[1]
            node = level[0] = _splice(level[0], child[5][1], child[0])
            got = level[1] = _summarize(node, level[2])
            if not _is_marked(node):
                seen = bool((got ^ old) & _MARKED)
            if not seen and not (got ^ old) & _BELOW:
                break
            k -= 1
        for j in range(max(k, 0) + 1, len(spine)):
            spine[j][3] = spine[j - 1][3] | spine[j - 1][1] >> _HERE | spine[j][4]
    else:
        raise NotNormalizable(
            f"no fixed point within the step limit M*(D+M+1) = {limit} "
            f"(M={marked} marked quantifiers, depth D={depth})")
    root = spine[-1][0]
    for k in range(len(spine) - 2, -1, -1):
        node, i = spine[k][0], spine[k + 1][5][1]
        root = node if _below(node, 1)[i][0] is root else _splice(node, i, root)
    for q in reversed(prefix):
        root = _splice(q, 0, root)
    return steps, root


def replay(f: Formula, trace: RuleTrace) -> Formula:
    """Re-run a recorded trace against a source formula, checking each
    step's before-state exactly.  Like the rewrite, it keeps a spine of
    [node, cell] levels down to the last step and rebuilds a node above
    it only when a later step climbs past; a step's cells are followed
    up to the spine only, so a step costs the levels it moves."""
    spine = [[f, ()]]
    level = {id(()): 0}  # the level of each cell on the spine
    for k, step in enumerate((*trace.steps, None)):
        below, cell = [], step.at if step else ()
        while id(cell) not in level:
            below.append(cell)
            cell = cell[0]
        while len(spine) > level[id(cell)] + 1:
            node, top = spine.pop()
            del level[id(top)]
            spine[-1][0] = _splice(spine[-1][0], top[1], node)
        if step is None:  # past the last step, with the root rebuilt
            return spine[0][0]
        for cell in reversed(below):
            node = spine[-1][0]
            kids = _below(node, 1)
            if cell[1] >= len(kids):
                raise ValueError(f"path {step.path} leaves {type(node).__name__}")
            level[id(cell)] = len(spine)
            spine.append([kids[cell[1]][0], cell])
        found = spine[-1][0]
        if found != step.before:
            raise ValueError(
                f"replay step {k} ({step.rule}) expected "
                f"{format_formula(step.before)} at {step.path}, found "
                f"{format_formula(found)}")
        spine[-1][0] = step.after


# ---------------------------------------------------------------------------
# extraction obligations

def extraction_obligation(nf: NormalForm) -> Formula:
    """The internal statement that realizes a normal form: plain
    universals over the forall block, then each existential witnessed
    inside a fresh term applied to the universals.  Taken are the names
    of the matrix and the block variables, all of nf.to_formula()'s."""
    taken = _scan(nf.matrix)[0]
    taken.update(v for v, _t in nf.foralls + nf.exists)
    names = _Names(taken)
    single = len(nf.exists) == 1
    body = nf.matrix
    witness_names = [names.fresh("t" if single else f"t{j + 1}")
                     for j in range(len(nf.exists))]
    for (v, _t), w in zip(reversed(nf.exists), reversed(witness_names)):
        bound: Term = (App(w, tuple(x for x, _ in nf.foralls))
                       if nf.foralls else w)
        body = ExIn(v, bound, body)
    for v, t in reversed(nf.foralls):
        body = Quant("all", False, v, t, body)
    return body
