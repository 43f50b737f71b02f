"""Driving marked-quantifier statements to their two-block normal form.

Formulas carry a standardness marker on quantifiers.  The engine pulls
marked quantifiers outward with a small set of rewrite rules until the
formula reads "for all marked ..., there exist marked ..., internal
matrix", records every step, and reports whether the steps preserved
equivalence or only implication.  The normal form then dictates the
shape of the term a constructive reading must produce.
"""

from __future__ import annotations

from importlib import resources

from mulab import (
    extraction_obligation,
    format_formula,
    parse_formula,
    replay,
    to_normal_form,
)

SOURCE = """
(all st f:1
  (imp (ex n:0 (atom iszero f n))
       (ex st m:0 (atom iszero f m))))
"""


def main() -> None:
    f = parse_formula(SOURCE)
    print("source      :", format_formula(f))
    nf, trace = to_normal_form(f)
    print("steps       :", ", ".join(trace.rules()) or "none")
    print("certificate :", trace.certificate)
    print("normal form :", format_formula(nf.to_formula()))
    # the trace alone rebuilds the normal form from the source
    print("replayed    :", format_formula(replay(f, trace)))
    print("obligation  :", format_formula(extraction_obligation(nf)))

    # a bundled derivation where one step genuinely weakens the statement
    text = (resources.files("mulab") / "fixtures" / "ubin_to_transfer.sexp").read_text()
    g = parse_formula(text)
    nf, trace = to_normal_form(g)
    print("\nbundled implication fixture")
    for step in trace.steps:
        print(f"  {step.rule:<22} [{step.tag}]")
    print("certificate :", trace.certificate)
    print("prefix      :",
          " ".join(v for v, _ in nf.foralls), "|",
          " ".join(v for v, _ in nf.exists))


if __name__ == "__main__":
    main()
