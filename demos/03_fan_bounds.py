"""Moduli for type-two functionals by replay over binary answers.

A single traced run of a functional is not a sound modulus: a body can
branch on an early query and only reach its deep queries on the other
branch.  Replaying it over every binary answer map closes that gap.  The
replay walks the decision tree one leftmost path at a time: each run
answers new queries 1 and notes each one's index as an open branch,
and the next run flips the last open index to 0, so the body runs once
per leaf.  The bound is 1 + the largest index queried in any run, which
the replay keeps as it goes.  It feeds the special-cover check against
presented trees.
"""

from __future__ import annotations

from mulab import (
    PresentedSequence,
    TracedFunctional,
    catalog_functional,
    omega_fan,
    scf_check,
    theta_special,
    parse_tree,
)


def main() -> None:
    for spec in ("const:5", "proj:3", "sum:4", "ifz:3:1:2", "f0+f1+1"):
        g = catalog_functional(spec)
        print(f"{spec:<10} fan bound = {omega_fan(g)}")

    # the adaptive trap: on all-zeros this body touches only index 0
    gate = TracedFunctional("gate", lambda view: view(5) if view(0) == 1 else 0)
    _, trace = gate.eval_traced(PresentedSequence((), (0,)))
    print("\nadaptive body, single-run trace :", sorted(trace))
    print("adaptive body, replayed bound   :", omega_fan(gate))
    a = PresentedSequence((1, 0, 0, 0, 0, 0), (0,))
    b = PresentedSequence((1, 0, 0, 0, 0, 1), (1,))
    print("inputs equal below the naive bound give",
          gate(a), "versus", gate(b))

    bound = theta_special(catalog_functional("sum:3"))
    print("\nsum:3 cover bound", bound, "with", 1 << bound, "prefixes")

    tree = parse_tree("truncate:1:full")
    report = scf_check(catalog_functional("const:2"), tree)
    print("\nspecial cover versus truncate:1:full")
    print("  antecedent :", report.antecedent)
    print("  consequent :", report.consequent)
    print("  implication:", report.implication)


if __name__ == "__main__":
    main()
