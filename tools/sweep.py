"""Sweeps along the fan width N, the event index m and the formula size k.

The width sweep measures what the fan replay costs as N grows, the
event sweep what each route costs as m grows, and the size sweep what
the normalizer costs as k grows:

    python3 tools/sweep.py --src src --widths 8 16
    python3 tools/sweep.py --src src --events 1000 64000
    python3 tools/sweep.py --src src --sizes 8 512

All run in process, with mulab loaded from ``--src``.  With none of the
three options the width sweep runs at its default range.

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
length) and the best of 3 timed extraction calls, each on a freshly
parsed flag.  After each route's rows it prints the least-squares slope
of log2(best_s) against log2(m): 1 is time linear in m, 2 quadratic.

Size sweep: for k on the doubling grid FIRST, 2 FIRST, ... up to LAST
(FIRST even, so every negation depth is even), takes the text of the
pull, flip, herbrand and negation formulas of size k from the benchmark's
``perfbench/workloads.py`` (read only, at a fixed seed) and runs
``to_normal_form`` on each.  It prints one row per family and k: the
rewrite steps (k(k+1)/2 for pull, k for flip, k+2 for herbrand and 2k
for negation), the best of 3 timed calls, each on a freshly parsed
formula, and the microseconds per step.  After each family's rows it
prints the least-squares slope of log2(best_s) against log2(k).
"""

from __future__ import annotations

import argparse
import importlib
import random
import sys
import time
from math import log2
from pathlib import Path

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


def _load(src: Path, name: str):
    """The module mulab.<name>, imported from src."""
    sys.path.insert(0, str(src))
    module = importlib.import_module(f"mulab.{name}")
    if src not in Path(module.__file__).resolve().parents:
        raise ImportError(f"mulab.{name} imported from {module.__file__}, "
                          f"not from {src}")
    return module


def _doubling(first: int, last: int) -> list[int]:
    """FIRST, 2 FIRST, 4 FIRST, ... up to LAST."""
    return [first << i for i in range((last // first).bit_length())]


def _slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs."""
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    spread = sum((x - mean_x) ** 2 for x in xs)
    return sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / spread


def sweep(functionals, kind: str, widths: range) -> list[tuple[int, int, int, float]]:
    """Rows (N, leaves, runs, best_s) for kind:N over widths."""
    rows = []
    for n in widths:
        g = functionals.catalog_functional(f"{kind}:{n}")
        body, runs = g.body, []
        counted = functionals.TracedFunctional(
            g.name, lambda view: runs.append(None) or body(view))
        leaves = sum(1 for _ in functionals._fan_replay(counted, NODE_BUDGET))
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            functionals.omega_fan(g, NODE_BUDGET)
            best = min(best, time.perf_counter() - start)
        rows.append((n, leaves, len(runs), best))
    return rows


def event_sweep(extractors, sequences, route: str, events: list[int]
                ) -> list[tuple[int, object, object, object, float]]:
    """Rows (m, witness, xi_bound, search_bound, best_s) for the route."""
    extraction, template = ROUTES[route]
    rows = []
    for m in events:
        text = template.format(ones="1," * m, zeros="0," * m)
        best = float("inf")
        for _ in range(REPEATS):
            f = sequences.parse_sequence(text)
            start = time.perf_counter()
            rep = getattr(extractors, extraction)(f)
            best = min(best, time.perf_counter() - start)
        rows.append((m, rep.witness, rep.xi_bound, rep.search_bound, best))
    return rows


def size_sweep(formulas, workloads, family: str, sizes: list[int]
               ) -> list[tuple[int, int, float]]:
    """Rows (k, steps, best_s) for the family."""
    rows = []
    for k in sizes:
        text = FAMILIES[family](workloads, random.Random(FAMILY_SEED), k).argv[-1]
        best = float("inf")
        for _ in range(REPEATS):
            f = formulas.parse_formula(text)
            start = time.perf_counter()
            _, trace = formulas.to_normal_form(f)
            best = min(best, time.perf_counter() - start)
        rows.append((k, len(trace.steps), best))
    return rows


def _print_widths(functionals, first: int, last: int) -> None:
    for kind in KINDS:
        rows = sweep(functionals, kind, range(first, last + 1))
        print(f"{'functional':<10} {'leaves':>8} {'runs':>8} "
              f"{'best_s':>10} {'us_per_leaf':>11}")
        for n, leaves, runs, best in rows:
            print(f"{kind}:{n:<{9 - len(kind)}} {leaves:>8} {runs:>8} "
                  f"{best:>10.6f} {best / leaves * 1e6:>11.2f}")
        slope = _slope([n for n, *_ in rows], [log2(best) for *_, best in rows])
        print(f"{kind}: log2 slope {slope:.3f}\n")


def _cell(value: int | None) -> str:
    """A bound as printed: "none", the number, or past 10^15 "<2^B" with
    B its bit length (wwkl's Xi grows like 2^m)."""
    if value is None:
        return "none"
    return str(value) if value < 10 ** 15 else f"<2^{value.bit_length()}"


def _print_events(extractors, sequences, first: int, last: int) -> None:
    for route in ROUTES:
        rows = event_sweep(extractors, sequences, route, _doubling(first, last))
        print(f"{'route':<5} {'m':>8} {'witness':>8} {'xi_bound':>12} "
              f"{'search_bound':>12} {'best_s':>10}")
        for m, witness, xi, bound, best in rows:
            print(f"{route:<5} {m:>8} {_cell(witness):>8} {_cell(xi):>12} "
                  f"{_cell(bound):>12} {best:>10.6f}")
        slope = _slope([log2(m) for m, *_ in rows],
                       [log2(best) for *_, best in rows])
        print(f"{route}: log2 slope {slope:.3f}\n")


def _print_sizes(formulas, first: int, last: int) -> None:
    sys.path.insert(0, str(PERFBENCH))
    import workloads

    for family in FAMILIES:
        rows = size_sweep(formulas, workloads, family, _doubling(first, last))
        print(f"{'family':<8} {'k':>6} {'steps':>8} {'best_s':>10} "
              f"{'us_per_step':>11}")
        for k, steps, best in rows:
            print(f"{family:<8} {k:>6} {steps:>8} {best:>10.6f} "
                  f"{best / steps * 1e6:>11.2f}")
        slope = _slope([log2(k) for k, *_ in rows],
                       [log2(best) for *_, best in rows])
        print(f"{family}: log2 slope {slope:.3f}\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="directory holding the mulab package")
    parser.add_argument("--widths", type=int, nargs=2, default=None,
                        metavar=("FIRST", "LAST"),
                        help="the widths N to run, both ends included "
                             "(default, when --events is not given: 8 16)")
    parser.add_argument("--events", type=int, nargs=2, default=None,
                        metavar=("FIRST", "LAST"),
                        help="run the event sweep on m = FIRST, 2 FIRST, "
                             "4 FIRST, ... up to LAST")
    parser.add_argument("--sizes", type=int, nargs=2, default=None,
                        metavar=("FIRST", "LAST"),
                        help="run the size sweep on k = FIRST, 2 FIRST, "
                             "4 FIRST, ... up to LAST")
    args = parser.parse_args(argv)
    if args.widths is None and args.events is None and args.sizes is None:
        args.widths = (8, 16)
    if args.widths is not None and not 1 <= args.widths[0] < args.widths[1]:
        parser.error("--widths needs 1 <= FIRST < LAST")
    if args.events is not None and not 1 <= 2 * args.events[0] <= args.events[1]:
        parser.error("--events needs 1 <= FIRST and 2 FIRST <= LAST")
    if args.sizes is not None and not (
            args.sizes[0] >= 2 and args.sizes[0] % 2 == 0
            and 2 * args.sizes[0] <= args.sizes[1]):
        parser.error("--sizes needs an even FIRST >= 2 and 2 FIRST <= LAST")
    src = args.src.resolve()
    if args.widths is not None:
        _print_widths(_load(src, "functionals"), *args.widths)
    if args.events is not None:
        _print_events(_load(src, "extractors"), _load(src, "sequences"),
                      *args.events)
    if args.sizes is not None:
        _print_sizes(_load(src, "formulas"), *args.sizes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
