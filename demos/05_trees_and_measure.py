"""Binary trees with decidable levels, their measure, and path finding.

The flag-gated tree is full until its flag hits zero, after which one
half stops growing.  Its measure is therefore 1 or 1/2, decided by the
same search as everything else, and the greedy path finder prefers the
1-branch wherever that branch keeps reaching new levels.
"""

from __future__ import annotations

from mulab import (
    PresentedSequence,
    format_sequence,
    format_tree,
    greedy_path,
    parse_tree,
)


def show(text: str) -> None:
    tree = parse_tree(text)
    print("tree        :", format_tree(tree))
    print("  levels    :", [tree.level_count(n) for n in range(7)])
    print("  measure   :", tree.measure_lower())
    try:
        print("  path      :", format_sequence(greedy_path(tree)))
    except Exception as exc:
        print("  path      : refused,", exc)


def main() -> None:
    show("full")
    print()
    show("flagtree:0:prefix=[1,1,1];tail=[0]")
    print()
    show("flagtree:1:prefix=[];tail=[2]")
    print()
    show("path:011+full@4")
    print()
    show("path:01")  # a bare path has measure zero, so no path is owed

    f = PresentedSequence((1, 1, 1), (0,))
    tree = parse_tree(f"flagtree:0:{format_sequence(f)}")
    print("\nthe gated half dies exactly at the flag's zero:")
    for n in range(6):
        row = ["#" if tree.member(n, v) else "." for v in range(1 << n)]
        print(f"  level {n}: {''.join(row)}")


if __name__ == "__main__":
    main()
