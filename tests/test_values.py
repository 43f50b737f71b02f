"""The value classes: one instance of each, its repr pinned as text, its
==, hash and refusal of assignment; the call forms of the written-out
constructors and the calls Value's positional one refuses; and == on
chains deeper than the interpreter's recursion limit."""

from __future__ import annotations

from fractions import Fraction as Q

import pytest

from mulab.extractors import (RationalWitness, RepresentedContinuousFunction,
                              Route, RouteReport, TwoBump)
from mulab.formulas import (And, App, Arrow, Atom, Base, ExIn, Implies, Not,
                            NormalForm, Or, Quant, RuleStep, RuleTrace, Seq,
                            parse_type)
from mulab.functionals import ThetaResult, TracedFunctional, TracedView
from mulab.reals import FastCauchyReal, PDqSeries, PFlagShift, PRational
from mulab.sequences import (Found, NoneBelowBudget, OpaqueSequence,
                             PresentedSequence)
from mulab.trees import FlagTree, FullTree, PathTree, ScfReport, Truncation
from mulab.value import FrozenInstanceError, Value, setfield

from oracles import PCumFlagSeries, PScale, PSum


def seq():
    return PresentedSequence((1, 2, 2), (2,))  # canonical: (1,), (2,)


def p(x="x"):
    return Atom("p", (x, App("f", (x, "c"))))


def half():
    return PRational(Q(1, 2))


def smooth():
    return RepresentedContinuousFunction(abs, "abs")


def cells(*path):
    """A new chain of (parent cell, child index) cells spelling path."""
    cell = ()
    for i in path:
        cell = (cell, i)
    return cell


def step(path=(1, 0)):
    return RuleStep("R3-drop-st", "implication", cells(*path),
                    Quant("all", True, "x", Base(), p()),
                    Quant("all", False, "x", Base(), p()))


SEQ = "PresentedSequence(prefix=(1,), tail=(2,))"
HALF = "PRational(value=Fraction(1, 2))"
SMOOTH = "RepresentedContinuousFunction(value_rule=<built-in function abs>, descriptor='abs')"
ABS = "<built-in function abs>"
P_X = "Atom(pred='p', args=('x', App(head='f', args=('x', 'c'))))"
NOT_P_Y = "Not(body=Atom(pred='p', args=('y', App(head='f', args=('y', 'c')))))"
STEP = ("RuleStep(rule='R3-drop-st', tag='implication', path=(1, 0), "
        f"before=Quant(kind='all', st=True, var='x', vtype=Base(), body={P_X}, mono=False), "
        f"after=Quant(kind='all', st=False, var='x', vtype=Base(), body={P_X}, mono=False))")

# name: (build one instance, its repr text, the fields its hash is the
# tuple of, or None where == and hash are object identity)
VALUES = {
    "PresentedSequence": (seq, SEQ, ("prefix", "tail")),
    "OpaqueSequence": (lambda: OpaqueSequence(abs),
                       f"OpaqueSequence(evaluator={ABS})", ("evaluator",)),
    "Found": (lambda: Found(3), "Found(index=3)", ("index",)),
    "NoneBelowBudget": (lambda: NoneBelowBudget(16),
                        "NoneBelowBudget(budget=16)", ("budget",)),
    "PRational": (lambda: PRational(Q(1, 3)),
                  "PRational(value=Fraction(1, 3))", ("value",)),
    "PDqSeries": (lambda: PDqSeries(seq()), f"PDqSeries(flag={SEQ})", ("flag",)),
    "PFlagShift": (lambda: PFlagShift(Q(1, 2), -1, seq()),
                   f"PFlagShift(base=Fraction(1, 2), sign=-1, flag={SEQ})",
                   ("base", "sign", "flag")),
    # the reference sum-and-scale algebra of tests/oracles.py
    "PCumFlagSeries": (lambda: PCumFlagSeries(seq()),
                       f"PCumFlagSeries(flag={SEQ})", ("flag",)),
    "PSum": (lambda: PSum(PRational(Q(1, 2)), PRational(Q(-1, 4))),
             "PSum(left=PRational(value=Fraction(1, 2)), "
             "right=PRational(value=Fraction(-1, 4)))", ("left", "right")),
    "PScale": (lambda: PScale(Q(-3), PCumFlagSeries(seq())),
               f"PScale(factor=Fraction(-3, 1), arg=PCumFlagSeries(flag={SEQ}))",
               ("factor", "arg")),
    # the base of the presentation kinds, with no field of its own
    "FastCauchyReal": (FastCauchyReal, "FastCauchyReal()", ()),
    "TracedFunctional": (lambda: TracedFunctional("len", len),
                         "TracedFunctional(name='len', body=<built-in function len>)",
                         None),
    "ThetaResult": (lambda: ThetaResult(4), "ThetaResult(bound=4)", ("bound",)),
    "FullTree": (FullTree, "FullTree()", ()),
    "FlagTree": (lambda: FlagTree(1, seq()), f"FlagTree(root_bit=1, flag={SEQ})",
                 ("root_bit", "flag")),
    "PathTree": (lambda: PathTree((0, 1), 3), "PathTree(bits=(0, 1), full_below=3)",
                 ("bits", "full_below")),
    "Truncation": (lambda: Truncation(2, PathTree((1,))),
                   "Truncation(level=2, inner=PathTree(bits=(1,), full_below=None))",
                   ("level", "inner")),
    "ScfReport": (lambda: ScfReport(3, 8, True, False, 2),
                  "ScfReport(bound=3, cover_size=8, antecedent=True, "
                  "consequent=False, fan_bound=2)",
                  ("bound", "cover_size", "antecedent", "consequent", "fan_bound")),
    "RouteReport": (lambda: RouteReport("dq", seq(), True, 1, None, 1,
                                        {"certificate": "dq-series"}),
                    f"RouteReport(route='dq', flag={SEQ}, fired=True, witness=1, "
                    "xi_bound=None, search_bound=1, details={'certificate': 'dq-series'})",
                    None),
    "Route": (lambda: Route("r", 2, abs, abs, abs, TracedView, abs, 2, abs),
              f"Route(name='r', settled=2, pair={ABS}, observe={ABS}, "
              f"make_phi={ABS}, view=<class 'mulab.functionals.TracedView'>, "
              f"read={ABS}, precision=2, search_bound={ABS})", None),
    "RepresentedContinuousFunction": (smooth, SMOOTH, None),
    "TwoBump": (lambda: TwoBump(half(), half()),
                f"TwoBump(left_height={HALF}, right_height={HALF})",
                None),
    "RationalWitness": (lambda: RationalWitness(Q(7, 8), "dq-series"),
                        "RationalWitness(value=Fraction(7, 8), certificate='dq-series')",
                        ("value", "certificate")),
    "Base": (Base, "Base()", ()),
    "Arrow": (lambda: Arrow(Arrow(Base(), Base()), Seq(Base())),
              "Arrow(left=Arrow(left=Base(), right=Base()), right=Seq(inner=Base()))",
              ("left", "right")),
    "Seq": (lambda: Seq(Arrow(Base(), Base())),
            "Seq(inner=Arrow(left=Base(), right=Base()))", ("inner",)),
    "App": (lambda: App("f", ("x", App("g", ("y",)))),
            "App(head='f', args=('x', App(head='g', args=('y',))))", ("head", "args")),
    "Atom": (p, P_X, ("pred", "args")),
    "Not": (lambda: Not(p()), f"Not(body={P_X})", ("body",)),
    "And": (lambda: And(p(), Not(p("y"))), f"And(left={P_X}, right={NOT_P_Y})",
            ("left", "right")),
    "Or": (lambda: Or(p(), Not(p("y"))), f"Or(left={P_X}, right={NOT_P_Y})",
           ("left", "right")),
    "Implies": (lambda: Implies(p(), Not(p("y"))),
                f"Implies(left={P_X}, right={NOT_P_Y})", ("left", "right")),
    "Quant": (lambda: Quant("all", True, "x", Arrow(Base(), Base()), p(), True),
              "Quant(kind='all', st=True, var='x', vtype=Arrow(left=Base(), "
              f"right=Base()), body={P_X}, mono=True)",
              ("kind", "st", "var", "vtype", "body", "mono")),
    "ExIn": (lambda: ExIn("x", "w", p()), f"ExIn(var='x', bound='w', body={P_X})",
             ("var", "bound", "body")),
    "RuleStep": (step, STEP, ("rule", "tag", "before", "after")),
    "RuleTrace": (lambda: RuleTrace((step(),)), f"RuleTrace(steps=({STEP},))",
                  ("steps",)),
    "NormalForm": (lambda: NormalForm((("x", Base()),), (("y", Seq(Base())),), p()),
                   "NormalForm(foralls=(('x', Base()),), "
                   f"exists=(('y', Seq(inner=Base())),), matrix={P_X})",
                   ("foralls", "exists", "matrix")),
}

# value classes of tests/oracles.py, kept here to pin them as well
REFERENCE_ALGEBRA = {"PCumFlagSeries", "PSum", "PScale"}

# classes whose instances carry the same field values as each other's
SIBLINGS = [("PCumFlagSeries", "PDqSeries"), ("And", "Or", "Implies"),
            ("FullTree", "Base"), ("Found", "NoneBelowBudget", "ThetaResult")]


def twin(x):
    """An instance of a new value class with x's name and x's fields."""
    fields = vars(x)
    y = object.__new__(type(type(x).__name__, (Value,), {"_fields": tuple(fields)}))
    for name, value in fields.items():
        setfield(y, name, value)
    return y


def test_every_value_class_has_an_instance():
    assert len(VALUES) == 37
    for name, (make, _, _) in VALUES.items():
        assert type(make()).__name__ == name


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_pinned(name):
    make, text, _ = VALUES[name]
    assert repr(make()) == text


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_hash_alike(name):
    make, _, hashed = VALUES[name]
    x, y = make(), make()
    assert x == x and not x != x
    if hashed is None:  # == and hash are object identity
        assert x != y
        assert hash(x) == object.__hash__(x)
    else:
        assert x == y and not x != y
        assert hash(x) == hash(y) == hash(tuple(getattr(x, f) for f in hashed))


@pytest.mark.parametrize("name", VALUES)
def test_another_class_with_equal_fields_is_not_equal(name):
    x = VALUES[name][0]()
    y = twin(x)
    assert x != y and y != x
    assert not x == y and not y == x


@pytest.mark.parametrize("names", SIBLINGS)
def test_sibling_classes_with_equal_fields_differ(names):
    values = [VALUES[name][0]() for name in names]
    for a in values:
        for b in values:
            assert (a == b) is (a is b)


@pytest.mark.parametrize("name", VALUES)
def test_frozen_values_refuse_assignment(name):
    x = VALUES[name][0]()
    fields = list(vars(x))
    if name == "TracedFunctional":  # the tracer swaps in a counting body
        x.body = abs
        assert x.body is abs
        return
    for field in [*fields, "new_attribute"]:
        with pytest.raises(FrozenInstanceError):
            setattr(x, field, 0)
    for field in fields:
        with pytest.raises(AttributeError):
            delattr(x, field)
    assert vars(x).keys() == set(fields)
    assert issubclass(FrozenInstanceError, AttributeError)


@pytest.mark.parametrize("name, field", [("PScale", "shift")])
def test_derived_fields_stay_out_of_eq_hash_and_repr(name, field):
    make, text, _ = VALUES[name]
    x, y = make(), make()
    setfield(y, field, "something else")
    assert x == y and hash(x) == hash(y) and repr(y) == text


def test_a_step_compares_its_path_not_its_cells():
    x, y, z = step(), step(), step((0, 0))
    assert x.at is not y.at
    assert x == y and hash(x) == hash(y)
    assert x != z and hash(x) == hash(z)  # the hash leaves the path out


def chain(wrap, leaf, depth):
    """depth wraps around a leaf, every node built anew."""
    node = leaf()
    for _ in range(depth):
        node = wrap(node)
    return node


@pytest.mark.parametrize("wrap, leaf, other", [
    (Not, lambda: Atom("p", ("x",)), lambda: Atom("p", ("y",))),
    (lambda t: Truncation(5, t), FullTree, lambda: PathTree((1,))),
    (lambda t: Arrow(t, Base()), Base, lambda: Seq(Base())),
])
def test_eq_on_chains_past_the_recursion_limit(wrap, leaf, other):
    a, b = chain(wrap, leaf, 10_000), chain(wrap, leaf, 10_000)
    assert a == b and not a != b
    c = chain(wrap, other, 10_000)
    assert a != c and not a == c
    assert chain(wrap, leaf, 9_999) != a


def test_deep_parsed_types_compare_equal():
    assert parse_type("10000") == parse_type("10000")
    assert parse_type("10000") != parse_type("9999")


# (a value built by name or with defaults, the same value spelled
# positionally in full); only a class with its own __init__ takes either
CALL_FORMS = {
    "Atom default": (lambda: Atom("p"), lambda: Atom("p", ())),
    "Atom by name": (lambda: Atom(args=("x",), pred="p"), lambda: Atom("p", ("x",))),
    "Quant default": (lambda: Quant("all", True, "x", Base(), p()),
                      lambda: Quant("all", True, "x", Base(), p(), False)),
    "Quant by name": (lambda: Quant("ex", False, body=p(), vtype=Base(), var="x",
                                    mono=True),
                      lambda: Quant("ex", False, "x", Base(), p(), True)),
    "PathTree default": (lambda: PathTree((0, 1)), lambda: PathTree((0, 1), None)),
    "PathTree by name": (lambda: PathTree(bits=(1,), full_below=2),
                         lambda: PathTree((1,), 2)),
    "App by name": (lambda: App(args=("x", "c"), head="f"), lambda: App("f", ("x", "c"))),
    "App args by name": (lambda: App("f", args=("x",)), lambda: App("f", ("x",))),
    "Atom pred by name": (lambda: Atom(pred="p"), lambda: Atom("p", ())),
    "Not by name": (lambda: Not(body=p()), lambda: Not(p())),
    "Implies by name": (lambda: Implies(right=p("y"), left=p()),
                        lambda: Implies(p(), p("y"))),
    "Implies right by name": (lambda: Implies(p(), right=p("y")),
                              lambda: Implies(p(), p("y"))),
    "ExIn by name": (lambda: ExIn(body=p(), var="x", bound="w"),
                     lambda: ExIn("x", "w", p())),
    "ExIn body by name": (lambda: ExIn("x", App("t", ("y",)), body=p()),
                          lambda: ExIn("x", App("t", ("y",)), p())),
}


@pytest.mark.parametrize("form", CALL_FORMS)
def test_named_and_default_forms_match_the_positional_one(form):
    short, full = (make() for make in CALL_FORMS[form])
    assert type(short) is type(full)
    assert vars(short) == vars(full)
    assert vars(short).keys() == set(type(full)._fields)
    if type(full).__eq__ is Value.__eq__:
        assert short == full and hash(short) == hash(full)


def test_a_rule_step_by_name_matches_the_positional_one():
    # `at` is written beside the fields, so CALL_FORMS cannot hold it
    at = cells(1, 0)
    before, after = Quant("all", True, "x", Base(), p()), Quant("all", False, "x", Base(), p())
    short = RuleStep(after=after, before=before, at=at, tag="implication",
                     rule="R3-drop-st")
    full = RuleStep("R3-drop-st", "implication", at, before, after)
    mixed = RuleStep("R3-drop-st", "implication", at, after=after, before=before)
    assert vars(short) == vars(full) == vars(mixed)
    assert vars(short).keys() == {*RuleStep._fields, "at"}
    assert short == full == mixed and hash(short) == hash(full) == hash(mixed)
    assert short.path == (1, 0)


@pytest.mark.parametrize("call, message", [
    (lambda a: PSum(a, a, a), "PSum() takes 2 arguments but 3 were given"),
    (lambda a: PSum(a), "PSum() takes 2 arguments but 1 were given"),
    # a class that checks its fields binds them with its own signature
    (lambda a: Quant("all", True), "Quant.__init__() missing 3 required"),
    (lambda a: PathTree((1,), 2, 3), "PathTree.__init__() takes from 2 to 3"),
    (lambda a: App("f"), "App.__init__() missing 1 required"),
    (lambda a: Not(a, a), "Not.__init__() takes 2 positional"),
    (lambda a: Implies(a, left=a), "_Binary.__init__() got multiple values"),
    (lambda a: ExIn("x", "w", a, up=a), "ExIn.__init__() got an unexpected"),
    (lambda a: RuleStep("r", "t", ()), "RuleStep.__init__() missing 2 required"),
])
def test_a_bad_call_raises_type_error_naming_the_class(call, message):
    with pytest.raises(TypeError) as caught:
        call(PRational(Q(1)))
    assert str(caught.value).startswith(message)


def test_the_generic_constructor_takes_no_field_by_name():
    a = PRational(Q(1))
    with pytest.raises(TypeError):
        PSum(left=a, right=a)


@pytest.mark.parametrize("name", VALUES)
def test_every_field_lands_in_the_instance_dict(name):
    x = VALUES[name][0]()
    if isinstance(x, Value):
        assert all(field in vars(x) for field in type(x)._fields)


def value_classes():
    found, stack = set(), [Value]
    while stack:
        for sub in stack.pop().__subclasses__():
            found.add(sub)
            stack.append(sub)
    return {cls for cls in found if cls.__module__.startswith("mulab.")}


def test_only_classes_that_check_derive_or_build_formulas_write_a_constructor():
    # every other value class takes Value's, which reads _fields; the
    # formula nodes each rewrite step builds write theirs out for speed
    classes = value_classes()
    # _Bisection prints a closure, so its repr cannot be pinned here;
    # test_extractors holds its reads to the eager reference instead
    assert ({cls.__name__ for cls in classes}
            == VALUES.keys() - {"TracedFunctional", *REFERENCE_ALGEBRA}
            | {"_Binary", "_Bisection"})
    own = {cls.__name__ for cls in classes if "__init__" in vars(cls)}
    assert own == {"FlagTree", "PathTree", "Truncation", "Quant",
                   "PresentedSequence", "RuleStep", "App", "Atom", "Not",
                   "_Binary", "ExIn"}
