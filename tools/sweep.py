"""Sweeps along the fan width N, the event index m and the formula size k.

The width sweep measures what the fan replay costs as N grows, the
event sweep what each route costs as m grows, and the size sweep what
the normalizer costs as k grows:

    python3 tools/sweep.py --src src --widths 8 16
    python3 tools/sweep.py --src src --events 1000 64000
    python3 tools/sweep.py --src src --sizes 8 512

All run in process, with mulab loaded from ``--src``.  With none of the
three options the width sweep runs at its default range; given several,
they run in this order.  Each option is one row of the axis table
``AXES``: its points, the rule they must meet, its series, header and
row builder.  One loop prints, for each series, the header, one row per
point and the slope line, and one timer takes the best of 3 calls, each
on an input built outside the timed call.

Width sweep: for each of sum:N and max:N and each N in the range, runs
the fan replay and prints one row:

* leaves: the leaves of the body's decision tree (2^N for these two);
* runs: the body runs it took, counted on a wrapped copy of the body
  (one per leaf);
* best_s: the best of 3 timed ``omega_fan`` calls on the plain body;
* us_per_leaf: best_s per leaf, in microseconds.

After each functional's rows it prints the least-squares slope of
log2(best_s) against N.  A slope of 1 means the time doubles with each
added width, as the leaf count does: constant time per leaf.  Leaves
and runs do not depend on the machine; the times do.

Event sweep: for m on the doubling grid FIRST, 2 FIRST, 4 FIRST, ... up
to LAST, runs ubin, wwkl and ivt on the flag prefix=[1]*m+[0];tail=[1]
(event m) and dq on its mirror prefix=[0]*m+[1];tail=[0] (first nonzero
at m), each through its extraction in mulab.extractors, and prints one
row per route and m: the witness, xi_bound, search_bound ("none" where
the route reports none, and "<2^B" for a bound past 10^15 with B its bit
length), cells and the best of 3 timed extraction calls, each on a
freshly parsed flag.  cells counts the distinct cells the route's
traced views recorded, in one untimed run on a wrapped
``TracedView.__init__`` (0 for dq, which traces nothing); like the
witness and the bounds it does not depend on the machine.  After each
route's rows it prints the least-squares slope of log2(best_s) against
log2(m): 1 is time linear in m, 2 quadratic.

Size sweep: for k on the doubling grid FIRST, 2 FIRST, ... up to LAST
(FIRST even, so every negation depth is even), takes the text of the
pull, flip, herbrand and negation formulas of size k from the benchmark's
``perfbench/workloads.py`` (read only, at a fixed seed) and runs
``to_normal_form`` on each.  It prints one row per family and k: the
rewrite steps (k(k+1)/2 for pull, k for flip, k+2 for herbrand and 2k
for negation), the best of 3 timed calls, each on a freshly parsed
formula, and the microseconds per step.  Between steps and best_s,
summarized counts the rule summaries worked out (calls of
``formulas._summarize``) in one untimed run, on a wrapped copy; like the
steps it does not depend on the machine.  After each family's rows it
prints the least-squares slope of log2(best_s) against log2(k).
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from math import log2
from pathlib import Path
from typing import Callable, Iterable, NamedTuple
from unittest import mock

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

KINDS = ("sum", "max")
# route -> (extraction in mulab.extractors, flag with event m)
ROUTES = {
    "ubin": ("ubin_extraction", "prefix=[{ones}0];tail=[1]"),
    "wwkl": ("uwwkl_extraction", "prefix=[{ones}0];tail=[1]"),
    "ivt": ("uivt_extraction", "prefix=[{ones}0];tail=[1]"),
    "dq": ("udq_extraction", "prefix=[{zeros}1];tail=[0]"),
}
# family -> the workload op of size k; its argv ends with the formula text
FAMILIES = {
    "pull": lambda workloads, rng, k: workloads.pull_formula(rng, k),
    "flip": lambda workloads, rng, k: workloads.flip_formula(rng, k),
    "herbrand": lambda workloads, rng, k: workloads.herbrand_formula(rng, k),
    "negation": lambda workloads, rng, k: workloads.negation_formula(k),
}
FAMILY_SEED = 0
REPEATS = 3
NODE_BUDGET = 1 << 40  # far past any width run here: the sweep never cuts


def _load(src: Path) -> None:
    """Put src, then the benchmark's directory, first on the import path,
    and check that mulab imports from src."""
    sys.path[:0] = [str(src), str(PERFBENCH)]
    import mulab
    if src not in Path(mulab.__file__).resolve().parents:
        raise ImportError(f"mulab imported from {mulab.__file__}, not from {src}")


def _doubling(first: int, last: int) -> list[int]:
    """FIRST, 2 FIRST, 4 FIRST, ... up to LAST."""
    return [first << i for i in range((last // first).bit_length())]


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs."""
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum((x - mean_x) ** 2 for x in xs)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / spread


def _best(build, call) -> tuple[object, float]:
    """The last result and the best time of REPEATS calls, each on an input
    that build() makes fresh outside the timed call."""
    best = float("inf")
    for _ in range(REPEATS):
        given = build()
        start = time.perf_counter()
        result = call(given)
        best = min(best, time.perf_counter() - start)
    return result, best


def _cell(value: int | None) -> str:
    """A bound as printed: "none", the number, or past 10^15 "<2^B" with
    B its bit length (wwkl's Xi grows like 2^m)."""
    if value is None:
        return "none"
    return str(value) if value < 10 ** 15 else f"<2^{value.bit_length()}"


def _width_row(kind: str, n: int) -> tuple[str, float]:
    """The row of kind:N: leaves, body runs, best_s and us_per_leaf."""
    from mulab import functionals

    g = functionals.catalog_functional(f"{kind}:{n}")
    body, runs = g.body, []
    counted = functionals.TracedFunctional(
        g.name, lambda view: runs.append(None) or body(view))
    leaves = sum(1 for _ in functionals._fan_replay(counted, NODE_BUDGET))
    _, best = _best(lambda: g, lambda h: functionals.omega_fan(h, NODE_BUDGET))
    return (f"{kind}:{n:<{9 - len(kind)}} {leaves:>8} {len(runs):>8} "
            f"{best:>10.6f} {best / leaves * 1e6:>11.2f}"), best


def _event_row(route: str, m: int) -> tuple[str, float]:
    """The route's row at event m: witness, xi_bound, search_bound, cells
    and best_s."""
    from mulab import extractors, functionals, sequences

    extraction, template = ROUTES[route]
    text = template.format(ones="1," * m, zeros="0," * m)
    run = getattr(extractors, extraction)
    init, views = functionals.TracedView.__init__, []

    def kept(view, *args, **kwargs):
        views.append(view)
        init(view, *args, **kwargs)

    with mock.patch.object(functionals.TracedView, "__init__", kept):
        run(sequences.parse_sequence(text))
    cells = len(set().union(*(view.trace for view in views)))
    rep, best = _best(lambda: sequences.parse_sequence(text), run)
    return (f"{route:<5} {m:>8} {_cell(rep.witness):>8} "
            f"{_cell(rep.xi_bound):>12} {_cell(rep.search_bound):>12} "
            f"{cells:>8} {best:>10.6f}"), best


def _size_row(family: str, k: int) -> tuple[str, float]:
    """The family's row at size k: steps, nodes summarized, best_s and
    us_per_step."""
    import workloads
    from mulab import formulas

    text = FAMILIES[family](workloads, random.Random(FAMILY_SEED), k).argv[-1]
    summarize, summarized = formulas._summarize, []
    with mock.patch.object(formulas, "_summarize",
                           lambda f, p: summarized.append(None) or summarize(f, p)):
        formulas.to_normal_form(formulas.parse_formula(text))
    (_, trace), best = _best(lambda: formulas.parse_formula(text),
                             formulas.to_normal_form)
    steps = len(trace.steps)
    return (f"{family:<8} {k:>6} {steps:>8} {len(summarized):>10} "
            f"{best:>10.6f} {best / steps * 1e6:>11.2f}"), best


class Axis(NamedTuple):
    """One sweep axis, run by the option --<its key in AXES>."""

    help: str
    rule: Callable[[int, int], bool]  # on FIRST, LAST
    error: str
    points: Callable[[int, int], Iterable[int]]
    series: Iterable[str]
    header: str
    row: Callable[[str, int], tuple[str, float]]  # (series, point) -> line, best_s
    log_x: bool  # slope against log2 of the point, else against the point


AXES = {
    "widths": Axis(
        "the widths N to run, both ends included (default, when neither "
        "--events nor --sizes is given: 8 16)",
        lambda first, last: 1 <= first < last, "--widths needs 1 <= FIRST < LAST",
        lambda first, last: range(first, last + 1), KINDS,
        f"{'functional':<10} {'leaves':>8} {'runs':>8} {'best_s':>10} "
        f"{'us_per_leaf':>11}", _width_row, False),
    "events": Axis(
        "run the event sweep on m = FIRST, 2 FIRST, 4 FIRST, ... up to LAST",
        lambda first, last: 1 <= first and 2 * first <= last,
        "--events needs 1 <= FIRST and 2 FIRST <= LAST", _doubling, ROUTES,
        f"{'route':<5} {'m':>8} {'witness':>8} {'xi_bound':>12} "
        f"{'search_bound':>12} {'cells':>8} {'best_s':>10}", _event_row, True),
    "sizes": Axis(
        "run the size sweep on k = FIRST, 2 FIRST, 4 FIRST, ... up to LAST",
        lambda first, last: first >= 2 and first % 2 == 0 and 2 * first <= last,
        "--sizes needs an even FIRST >= 2 and 2 FIRST <= LAST", _doubling,
        FAMILIES, f"{'family':<8} {'k':>6} {'steps':>8} {'summarized':>10} "
        f"{'best_s':>10} {'us_per_step':>11}", _size_row, True),
}
DEFAULT_WIDTHS = (8, 16)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="directory holding the mulab package")
    for name, axis in AXES.items():
        parser.add_argument(f"--{name}", type=int, nargs=2,
                            metavar=("FIRST", "LAST"), help=axis.help)
    args = parser.parse_args(argv)
    if all(getattr(args, name) is None for name in AXES):
        args.widths = DEFAULT_WIDTHS
    runs = [(axis, getattr(args, name)) for name, axis in AXES.items()
            if getattr(args, name) is not None]
    for axis, (first, last) in runs:
        if not axis.rule(first, last):
            parser.error(axis.error)
    _load(args.src.resolve())
    for axis, (first, last) in runs:
        points = list(axis.points(first, last))
        xs = [log2(point) for point in points] if axis.log_x else points
        for series in axis.series:
            rows = [axis.row(series, point) for point in points]
            print(axis.header, *(line for line, _ in rows), sep="\n")
            slope = _slope(xs, [log2(best) for _, best in rows])
            print(f"{series}: log2 slope {slope:.3f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
