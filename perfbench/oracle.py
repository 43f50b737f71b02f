"""Independent answers for every benchmark op.

Nothing here imports mulab.  Flags are scanned directly, fan bounds and
cover data come from closed forms per catalog spec, and formula runs are
checked against the rule list and quantifier block shapes their family
implies.  A check raises Mismatch on a wrong answer; the benchmark then
aborts the run instead of counting an error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm


class Mismatch(Exception):
    """A report disagrees with the oracle."""


def _expect(what: str, got: object, want: object) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


def _field(rep: dict, key: str) -> str:
    if key not in rep:
        raise Mismatch(f"report has no field {key!r}")
    return rep[key]


# ---------------------------------------------------------------------------
# flags

@dataclass(frozen=True)
class FlagValues:
    prefix: tuple[int, ...]
    tail: tuple[int, ...]

    def value(self, n: int) -> int:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.tail[(n - len(self.prefix)) % len(self.tail)]

    def _first(self, hit) -> int | None:
        # the prefix plus one period decides every search
        for n in range(len(self.prefix) + len(self.tail)):
            if hit(self.value(n)):
                return n
        return None

    @property
    def first_zero(self) -> int | None:
        return self._first(lambda v: v == 0)

    @property
    def first_nonzero(self) -> int | None:
        return self._first(lambda v: v != 0)


def flag_values(prefix: tuple[int, ...], tail: tuple[int, ...]) -> FlagValues:
    return FlagValues(tuple(prefix), tuple(tail))


_FLAG_RE = re.compile(r"^prefix=\[([0-9,]*)\];tail=\[([0-9,]+)\]$")


def _parse_flag(text: str) -> FlagValues:
    m = _FLAG_RE.match(text)
    if not m:
        raise Mismatch(f"not a flag: {text!r}")
    ints = [tuple(int(v) for v in g.split(",")) if g else () for g in m.groups()]
    return FlagValues(ints[0], ints[1])


def _same_sequence(a: FlagValues, b: FlagValues) -> bool:
    horizon = max(len(a.prefix), len(b.prefix)) + lcm(len(a.tail), len(b.tail))
    return all(a.value(n) == b.value(n) for n in range(horizon))


@dataclass(frozen=True)
class Expect:
    route: str
    flag: FlagValues


def _none_or(n: int | None) -> str:
    return "none" if n is None else str(n)


def _delta(event: int | None) -> Fraction:
    """The shift a flag induces: 0 without event, else 2^(1 - max(m, 1))."""
    if event is None:
        return Fraction(0)
    return Fraction(1, 1 << (max(event, 1) - 1))


def _check_search(rep: dict, event: int | None, settled: bool) -> None:
    """Witness fields shared by ubin, wwkl and ivt."""
    _expect("fired", _field(rep, "fired"), str(event is not None))
    _expect("witness", _field(rep, "witness"), _none_or(event))
    _expect("mu_exact", _field(rep, "mu_exact"), _none_or(event))
    _expect("agrees_with_direct_search",
            _field(rep, "agrees_with_direct_search"), "True")
    if event is None or settled:
        _expect("search_bound", _field(rep, "search_bound"), "none")
        return
    bound = _field(rep, "search_bound")
    if not bound.isdigit() or int(bound) < event:
        raise Mismatch(f"search_bound {bound!r} below witness {event}")
    if not _field(rep, "xi_bound").isdigit():
        raise Mismatch(f"xi_bound {rep['xi_bound']!r} is not a number")


def check_route(expect: Expect, rep: dict) -> None:
    route, flag = expect.route, expect.flag
    _expect("command", _field(rep, "command"), route)
    if not _same_sequence(_parse_flag(_field(rep, "flag")), flag):
        raise Mismatch(f"flag {rep['flag']!r} is not the input sequence")
    event = flag.first_zero
    delta = _delta(event)
    settled = event is not None and event < 2
    if route == "ubin":
        _expect("x_minus", _field(rep, "x_minus"), str(Fraction(1, 2) - delta))
        _expect("x_plus", _field(rep, "x_plus"), str(Fraction(1, 2) + delta))
        digits = ("skipped", "skipped") if settled else (
            ("1", "1") if event is None else ("0", "1"))
        _expect("digits", (_field(rep, "digit_minus"),
                           _field(rep, "digit_plus")), digits)
        _check_search(rep, event, settled)
    elif route == "wwkl":
        _expect("path0", _field(rep, "path0"),
                "prefix=[];tail=[1]" if event is None else "prefix=[0];tail=[1]")
        _expect("path1", _field(rep, "path1"), "prefix=[];tail=[1]")
        _check_search(rep, event, False)
    elif route == "ivt":
        _expect("epsilon", _field(rep, "epsilon"), str(delta))
        _check_search(rep, event, settled)
    elif route == "dq":
        first = flag.first_nonzero
        value = Fraction(1) if first is None else 1 - Fraction(1, 1 << first)
        _expect("value", _field(rep, "value"), str(value))
        _expect("certificate", _field(rep, "certificate"), "dq-series")
        _expect("fired", _field(rep, "fired"), str(first is not None))
        _expect("witness", _field(rep, "witness"), _none_or(first))
    elif route == "weier":
        # the plus bump peaks higher on the left, the minus bump on the
        # right; a tie (no event) resolves to the left peak
        _expect("epsilon", _field(rep, "epsilon"), str(delta))
        _expect("argmax_plus", _field(rep, "argmax_plus"), "1/4")
        _expect("argmax_minus", _field(rep, "argmax_minus"),
                "1/4" if event is None else "3/4")
        _expect("argmaxes_equal", _field(rep, "argmaxes_equal"),
                str(event is None))
        _expect("event", _field(rep, "event"), str(event is not None))
    else:
        raise Mismatch(f"no oracle for route {route!r}")


def check_corpus(size: int, seed: int, rep: dict) -> None:
    """Invariants only: the corpus content belongs to the program."""
    _expect("command", _field(rep, "command"), "corpus")
    _expect("seed", _field(rep, "seed"), str(seed))
    got = {k: int(_field(rep, k)) for k in
           ("size", "with_event", "without_event", "all_zero", "max_event_index")}
    if got["size"] < size:
        raise Mismatch(f"corpus size {got['size']} below the requested {size}")
    _expect("with_event + without_event",
            got["with_event"] + got["without_event"], got["size"])
    if not 0 <= got["all_zero"] <= got["with_event"]:
        raise Mismatch(f"all_zero {got['all_zero']} outside 0..with_event")
    if (got["max_event_index"] >= 0) != (got["with_event"] > 0):
        raise Mismatch("max_event_index disagrees with with_event")


# ---------------------------------------------------------------------------
# fan

def fan_closed_form(spec: str) -> tuple[int, int]:
    """(fan_bound, cover_bound) of a catalog functional.

    The fan bound is 1 + the largest index any branch queries; the cover
    bound is the largest value on the zero-padded prefixes of that length.
    """
    if spec == "f0+f1":
        return 2, 2
    if spec == "f0+f1+1":
        return 2, 3
    kind, *args = spec.split(":")
    nums = [int(a) for a in args]
    if kind == "const":
        return 0, nums[0]
    if kind == "proj":
        return nums[0] + 1, 1
    if kind == "sum":
        return nums[0], nums[0]
    if kind == "max":
        return nums[0], 1
    if kind == "ifz":
        return max(nums) + 1, 1
    raise Mismatch(f"no closed form for {spec!r}")


def _cover_truth(spec: str, tree: str, cover_bound: int) -> tuple[bool, bool]:
    """(antecedent, consequent) for const:N / sum:N against full or
    truncate:L:full."""
    kind, n = spec.split(":")[0], int(spec.split(":")[1])
    if tree == "full":
        return False, False
    m = re.fullmatch(r"truncate:(\d+):full", tree)
    if not m or kind not in ("const", "sum"):
        raise Mismatch(f"no cover oracle for {spec!r} on {tree!r}")
    level = int(m.group(1))
    # an element misses the tree when its g-value (the cut depth) exceeds
    # the level; sum:N is 0 on the all-zero element
    min_depth = n if kind == "const" else 0
    return min_depth > level, cover_bound > level


def check_fan(spec: str, tree: str | None, rep: dict) -> None:
    fan_bound, cover_bound = fan_closed_form(spec)
    _expect("command", _field(rep, "command"), "fan")
    _expect("functional", _field(rep, "functional"), spec)
    _expect("fan_bound", _field(rep, "fan_bound"), str(fan_bound))
    if tree is None:
        return
    antecedent, consequent = _cover_truth(spec, tree, cover_bound)
    _expect("tree", _field(rep, "tree"), tree)
    _expect("cover_bound", _field(rep, "cover_bound"), str(cover_bound))
    _expect("cover_size", _field(rep, "cover_size"), str(1 << cover_bound))
    _expect("antecedent", _field(rep, "antecedent"), str(antecedent))
    _expect("consequent", _field(rep, "consequent"), str(consequent))
    _expect("implication", _field(rep, "implication"), "True")


# ---------------------------------------------------------------------------
# formulas

def _block_types(text: str) -> tuple[str, ...]:
    if text == "none":
        return ()
    return tuple(b.partition(":")[2] for b in text.split())


def check_normalize(steps: tuple[str, ...], certificate: str,
                    foralls: tuple[str, ...], exists: tuple[str, ...],
                    rep: dict) -> None:
    _expect("command", _field(rep, "command"), "normalize")
    _expect("steps", _field(rep, "steps"), " ".join(steps) or "none")
    _expect("certificate", _field(rep, "certificate"), certificate)
    _expect("forall block", _block_types(_field(rep, "foralls")), foralls)
    _expect("exists block", _block_types(_field(rep, "exists")), exists)
    for key in ("matrix", "normal_form", "obligation"):
        if not _field(rep, key).startswith("("):
            raise Mismatch(f"{key} {rep[key]!r} is not a formula")
