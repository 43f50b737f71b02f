"""Command line front end.

Each command is a row of one table, ``_COMMANDS``: its help text, runner
and options.  The parser lists every command by its help text, and only
the one argv names gets a parser, with its options and runner.  A
runner returns the report's fields: ``(key, value)`` pairs in report
order.  ``main`` puts ``command`` first and prints them as a flat block
of ``key: value`` lines or, under ``--json``, as one JSON object.  Each
option lives on the one parser that reads it: ``--json`` goes before
the command, and every other option belongs to its command.  Exit
codes: 0 on success, 1 on a PropertyError (a stated property fails on
the given input), 2 on an InputError (an argument is unusable, refused
where its runner reads it).  Any other exception is a bug and surfaces
as a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING

from .errors import BoundViolation, InputError, PropertyError

if TYPE_CHECKING:
    from .extractors import RouteReport
    from .sequences import PresentedSequence

# Each runner imports the layers it runs, and a command compiles no other:
# normalize loads no route or fan module, and fan no reals or extractors.

__all__ = ["main", "console_main"]


def _text(value: object) -> str:
    """``str(value)``, also for an int or Fraction past the interpreter's
    limit on int-to-str digits (exact values grow like 2^m at event m).
    Those are written by ``mulab.digits``, with the same digits."""
    try:
        return str(value)
    except ValueError:
        from .digits import int_text
        num, den = value.numerator, value.denominator
        return int_text(num) if den == 1 else f"{int_text(num)}/{int_text(den)}"


_Fields = list[tuple[str, object]]


def _ubin_fields(f: PresentedSequence, rep: RouteReport) -> _Fields:
    from .reals import counterexample_pair

    x_minus, x_plus = counterexample_pair(f)
    return [("x_minus", x_minus.exact_value()),
            ("x_plus", x_plus.exact_value()),
            ("digit_minus", rep.details.get("digit_minus", "skipped")),
            ("digit_plus", rep.details.get("digit_plus", "skipped")),
            ("fired", rep.fired)]


def _wwkl_fields(f: PresentedSequence, rep: RouteReport) -> _Fields:
    fields = [("fired", rep.fired)]
    if "path0" in rep.details:
        fields.append(("path0", rep.details["path0"]))
        fields.append(("path1", rep.details["path1"]))
    return fields


def _ivt_fields(f: PresentedSequence, rep: RouteReport) -> _Fields:
    from .extractors import flag_epsilon

    fields = [("epsilon", flag_epsilon(f))]
    if "root_plus" in rep.details:
        fields.append(("root_plus_approx", rep.details["root_plus"]))
        fields.append(("root_minus_approx", rep.details["root_minus"]))
    return fields + [("fired", rep.fired)]


def _route_fields(extraction: str, own_fields):
    """The fields of a pair-based route: its own, then its bounds and
    witness beside the direct search.  The extraction is looked up by
    name in mulab.extractors at call time, so a replaced module
    attribute (a profiler's wrapper, say) is the one that runs."""
    def fields(f: PresentedSequence) -> _Fields:
        from . import extractors
        from .sequences import mu_exact

        rep = getattr(extractors, extraction)(f)
        direct = mu_exact(f)
        return [*own_fields(f, rep),
                ("xi_bound", rep.xi_bound),
                ("search_bound", rep.search_bound),
                ("witness", rep.witness),
                ("mu_exact", direct),
                ("agrees_with_direct_search", rep.witness == direct)]
    return fields


def _dq_fields(f: PresentedSequence) -> _Fields:
    from .extractors import udq_extraction

    rep = udq_extraction(f)
    return [("value", rep.details["witness_value"]),
            ("certificate", rep.details["certificate"]),
            ("fired", rep.fired),
            ("witness", rep.witness)]


def _weier_fields(f: PresentedSequence) -> _Fields:
    from .extractors import flag_epsilon, weierstrass_counterexample
    from .sequences import mu_exact

    plus, minus = weierstrass_counterexample(f)
    a_plus, a_minus = plus.argmax(), minus.argmax()
    return [("epsilon", flag_epsilon(f)),
            ("argmax_plus", a_plus),
            ("argmax_minus", a_minus),
            ("argmaxes_equal", a_plus == a_minus),
            ("event", mu_exact(f) is not None)]


# flag command -> its report fields after ``flag``
_FLAG_FIELDS = {"ubin": _route_fields("ubin_extraction", _ubin_fields),
                "wwkl": _route_fields("uwwkl_extraction", _wwkl_fields),
                "ivt": _route_fields("uivt_extraction", _ivt_fields),
                "dq": _dq_fields, "weier": _weier_fields}


def _run_flag(args: argparse.Namespace) -> _Fields:
    from .sequences import parse_sequence

    f = parse_sequence(args.flag)
    return [("flag", f), *_FLAG_FIELDS[args.command](f)]


def _run_fan(args: argparse.Namespace) -> _Fields:
    from .functionals import catalog_functional, omega_fan
    from .trees import parse_tree, scf_check

    if args.budget < 1:
        raise InputError(f"--budget must be at least 1, got {args.budget}")
    g = catalog_functional(args.functional)
    if args.tree is None:
        return [("functional", g.name),
                ("fan_bound", omega_fan(g, node_budget=args.budget)),
                ("node_budget", args.budget)]
    # the cover check's one replay of g also yields the fan bound
    tree = parse_tree(args.tree)
    scf = scf_check(g, tree, node_budget=args.budget)
    if not scf.implication:
        raise BoundViolation("special cover implication failed")
    return [("functional", g.name),
            ("fan_bound", scf.fan_bound), ("node_budget", args.budget),
            ("tree", tree), ("cover_bound", scf.bound),
            ("cover_size", scf.cover_size),
            ("antecedent", scf.antecedent),
            ("consequent", scf.consequent),
            ("implication", scf.implication)]


def _run_normalize(args: argparse.Namespace) -> _Fields:
    from .formulas import (
        extraction_obligation,
        format_formula,
        parse_formula,
        relativize_st,
        to_normal_form,
    )

    text = args.formula
    # formula text opens with a parenthesis or a comment; anything else
    # names a file
    if not text.lstrip().startswith(("(", ";")):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, ValueError) as exc:  # open() refuses a NUL in a path
            reason = (exc.strerror if isinstance(exc, OSError) else
                      f"not UTF-8 at byte {exc.start}"
                      if isinstance(exc, UnicodeDecodeError) else str(exc))
            raise InputError(
                f"cannot read formula file {text!r}: {reason}") from None
    formula = parse_formula(text)
    if args.relativize:
        formula = relativize_st(formula)
    nf, trace = to_normal_form(formula)
    # the block types and the matrix, printed once: the normal form and
    # the obligation hold these very objects
    printed = {id(x): (x, format_formula(x))
               for x in (nf.matrix, *(t for _, t in nf.foralls + nf.exists))}

    def block(pairs: tuple) -> str:
        return " ".join(f"{v}:{printed[id(t)][1]}" for v, t in pairs) or "none"

    return [
        ("source", format_formula(formula)),
        ("steps", " ".join(trace.rules()) if trace.steps else "none"),
        ("certificate", trace.certificate),
        ("foralls", block(nf.foralls)),
        ("exists", block(nf.exists)),
        ("matrix", printed[id(nf.matrix)][1]),
        ("normal_form", format_formula(nf.to_formula(), printed)),
        ("obligation", format_formula(extraction_obligation(nf), printed)),
    ]


# the corpus holds every flag it draws: 10^5 flags take about 4 s and a
# 65 MB process on a 2-core VM, and a larger --size is refused unread
_CORPUS_CAP = 100_000


def _run_corpus(args: argparse.Namespace) -> _Fields:
    from .corpus import corpus_stats, flag_corpus

    if args.size < 0:
        raise InputError(f"--size must be nonnegative, got {args.size}")
    if args.size > _CORPUS_CAP:
        raise InputError(f"--size must be at most {_CORPUS_CAP}, "
                         f"got {args.size}")
    corpus = flag_corpus(seed=args.seed, size=args.size)
    stats = corpus_stats(corpus)
    return [("seed", args.seed), *sorted(stats.items())]


_FLAG_OPTIONS = [("--flag", dict(required=True, help="flag sequence, e.g. "
                                 "'prefix=[1,1,1,0];tail=[1]'"))]
# command -> (help text, runner, options as (name, add_argument keywords))
_COMMANDS = {
    "ubin": ("binary expansion route", _run_flag, _FLAG_OPTIONS),
    "wwkl": ("tree path route", _run_flag, _FLAG_OPTIONS),
    "ivt": ("intermediate value route", _run_flag, _FLAG_OPTIONS),
    "dq": ("rational witness route", _run_flag, _FLAG_OPTIONS),
    "weier": ("maximum location pair", _run_flag, _FLAG_OPTIONS),
    "fan": ("branch-on-demand bounds", _run_fan, [
        ("--functional", dict(required=True, help="catalog name, e.g. "
                              "max:4 or ifz:3:1:2 or f0+f1")),
        ("--tree", dict(help="optional tree for the special cover check")),
        ("--budget", dict(type=int, default=1 << 20, help="cap on the replay "
                          "tree's nodes, not on the work (default 2^20)"))]),
    "normalize": ("drive a formula to normal form", _run_normalize, [
        ("--formula", dict(required=True, help="formula text, which starts "
                           "with '(' or ';', or a path to a file holding "
                           "one")),
        ("--relativize", dict(action="store_true", help="mark quantifiers "
                              "standard before normalizing"))]),
    "corpus": ("describe the seeded flag corpus", _run_corpus, [
        ("--size", dict(type=int, default=120, help="least number of flags, "
                        f"0 to {_CORPUS_CAP:,}; the 18 fixed flags are "
                        "always in (default 120)")),
        ("--seed", dict(type=int, default=0, help="seed of the draw "
                        "(default 0)"))]),
}


def _build_parser(commands: set[str | None]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mulab",
        description="search operators, counterexample pairs, and the "
                    "normal form engine behind them")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    # add_parser lists a command by its help text alone, and the factory
    # builds nothing: only the one argv names gets a parser
    sub = parser.add_subparsers(dest="command", required=True,
                                prog="mulab", parser_class=lambda **_: None)
    for name, (help_text, run, options) in _COMMANDS.items():
        sub.add_parser(name, help=help_text)
        if name not in commands:
            continue
        p = sub.choices[name] = argparse.ArgumentParser(prog=f"mulab {name}")
        for option, keywords in options:
            p.add_argument(option, **keywords)
        p.set_defaults(run=run)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # no top-level option takes a value, so the first command name in
    # argv is the command argparse runs
    named = next((arg for arg in argv if arg in _COMMANDS), None)
    args = _build_parser({named}).parse_args(argv)
    try:
        pairs = [(k, "none" if v is None else _text(v))
                 for k, v in [("command", args.command), *args.run(args)]]
    except PropertyError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(dict(pairs), indent=2) if args.json else
          "\n".join(f"{k}: {v}" for k, v in pairs))
    return 0


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
