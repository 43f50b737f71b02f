"""Fan-width sweep: what the fan replay costs as the width N grows.

    python3 tools/sweep.py --src src --widths 8 16

For each of sum:N and max:N and each N in the range, runs the fan
replay in process, loaded from ``--src``, and prints one row:

* leaves: the leaves of the body's decision tree (2^N for these two);
* runs: the body runs it took, counted on a wrapped copy of the body
  (one per leaf);
* best_s: the best of 3 timed ``omega_fan`` calls on the plain body;
* us_per_leaf: best_s per leaf, in microseconds.

After each functional's rows it prints the least-squares slope of
log2(best_s) against N.  A slope of 1 means the time doubles with each
added width, as the leaf count does: constant time per leaf.  Leaves
and runs do not depend on the machine; the times do.
"""

from __future__ import annotations

import argparse
import sys
import time
from math import log2
from pathlib import Path

KINDS = ("sum", "max")
REPEATS = 3
NODE_BUDGET = 1 << 40  # far past any width run here: the sweep never cuts


def _load(src: Path):
    sys.path.insert(0, str(src))
    import mulab.functionals
    if src not in Path(mulab.functionals.__file__).resolve().parents:
        raise ImportError(f"mulab.functionals imported from "
                          f"{mulab.functionals.__file__}, not from {src}")
    return mulab.functionals


def _slope(xs: list[int], ys: list[float]) -> float:
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=Path("src"),
                        help="directory holding the mulab package")
    parser.add_argument("--widths", type=int, nargs=2, default=(8, 16),
                        metavar=("FIRST", "LAST"),
                        help="the widths N to run, both ends included "
                             "(default: 8 16)")
    args = parser.parse_args(argv)
    first, last = args.widths
    if not 1 <= first < last:
        parser.error("--widths needs 1 <= FIRST < LAST")
    functionals = _load(args.src.resolve())
    for kind in KINDS:
        rows = sweep(functionals, kind, range(first, last + 1))
        print(f"{'functional':<10} {'leaves':>8} {'runs':>8} "
              f"{'best_s':>10} {'us_per_leaf':>11}")
        for n, leaves, runs, best in rows:
            print(f"{kind}:{n:<{9 - len(kind)}} {leaves:>8} {runs:>8} "
                  f"{best:>10.6f} {best / leaves * 1e6:>11.2f}")
        slope = _slope([n for n, *_ in rows], [log2(best) for *_, best in rows])
        print(f"{kind}: log2 slope {slope:.3f}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
