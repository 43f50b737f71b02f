"""Seeded op generators for the four benchmark workloads.

An op is one argv for ``mulab.cli.main`` plus the oracle that checks its
report.  Inputs are built here from the seed alone (flags as
``prefix=[...];tail=[...]`` text, formulas as S-expression text), never
through ``mulab.corpus`` or other program code, so a change to the
program cannot change the workload.  The expected answers are computed
here as well, by direct scans and closed forms.

A workload is an endless sequence of passes.  Pass ``i`` of a seed is a
pure function of ``(workload, seed, i)``: the same seed gives a
byte-identical op list.  Size parameters are drawn by stratified
sampling (one draw from each of n equal slices of the range), so every
pass covers the whole range and the cost of a pass varies little from
seed to seed.  The normalize sizes, whose cost grows with their square
or cube, sit on a fixed grid instead; there the seed picks binder types,
names and the op order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from oracle import (
    Expect,
    check_corpus,
    check_fan,
    check_normalize,
    check_route,
    flag_values,
)

# The recorded baseline defects.  An op tagged with one of these may fail
# (any nonzero exit or escaped exception, but not a timeout) without
# counting as an unexpected failure; it still counts against
# success_rate.  If it succeeds, its report must be correct.
KNOWN_DEFECTS = {
    "wwkl-budget": "wwkl on a flag with its event at 21 exhausts the 2^20 "
                   "membership budget (exit 1)",
    "step-cap": "normalize on a pull formula with k >= 28 needs k(k+1)/2 "
                "steps and hits the 400-step cap (exit 1)",
    "recursion": "normalize on 1000 nested (not ...) raises RecursionError "
                 "out of mulab.cli.main",
}

WORKLOADS = ("flags-shallow", "flags-deep", "fan", "normalize")


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[dict], None]   # raises oracle.Mismatch
    known_defect: str | None = None


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    # string seeds hash with sha512, so the stream does not depend on
    # PYTHONHASHSEED or the process
    return random.Random(f"mulab-bench:{workload}:{seed}:{pass_index}")


def strata(rng: random.Random, lo: int, hi: int, n: int,
           log: bool = False) -> list[int]:
    """n integers in [lo, hi], one from each of n equal slices, shuffled."""
    a, b = (math.log(lo), math.log(hi + 1)) if log else (lo, hi + 1)
    out = []
    for i in range(n):
        u = a + (i + rng.random()) * (b - a) / n
        out.append(min(hi, max(lo, int(math.exp(u) if log else u))))
    rng.shuffle(out)
    return out


def grid(lo: int, hi: int, n: int, log: bool = False) -> list[int]:
    """n evenly spaced integers from lo to hi inclusive (log-spaced if log)."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    points = (a + i * (b - a) / (n - 1) for i in range(n))
    return [round(math.exp(u) if log else u) for u in points]


def flag_text(prefix: tuple[int, ...], tail: tuple[int, ...]) -> str:
    return (f"prefix=[{','.join(map(str, prefix))}];"
            f"tail=[{','.join(map(str, tail))}]")


def _nonzero(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(1, 6) for _ in range(n))


def _any(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randrange(0, 6) for _ in range(n))


def _route_op(route: str, prefix: tuple[int, ...], tail: tuple[int, ...],
              known_defect: str | None = None) -> Op:
    text = flag_text(prefix, tail)
    expect = Expect(route, flag_values(prefix, tail))
    return Op(("--json", route, "--flag", text),
              lambda rep, e=expect: check_route(e, rep), known_defect)


# ---------------------------------------------------------------------------
# flags-shallow

SHALLOW_ROUTES = ("ubin", "wwkl", "ivt", "dq", "weier")
SHALLOW_EVENTS = (0, 1, 3, 7, 17, 20, 21)
SHALLOW_RANDOM_FLAGS = 80
SHALLOW_CORPUS_OPS = 6


def _shallow_boundary(rng: random.Random) -> list[tuple[tuple, tuple]]:
    flags = [
        (_nonzero(rng, rng.randrange(0, 11)), _nonzero(rng, rng.randrange(1, 5))),
        ((), (0,)),                                        # all zero
        (_nonzero(rng, rng.randrange(0, 6)),
         _nonzero(rng, 2) + (0,)),                         # event in the tail
    ]
    for m in SHALLOW_EVENTS:
        flags.append((_nonzero(rng, m) + (0,), _any(rng, rng.randrange(1, 5))))
    return flags


def _shallow_random(rng: random.Random) -> tuple[tuple, tuple]:
    # the corpus regime: short prefixes, small values, rare zeros
    prefix = tuple(0 if rng.random() < 0.15 else rng.randrange(1, 6)
                   for _ in range(rng.randrange(0, 11)))
    tail = tuple(0 if rng.random() < 0.08 else rng.randrange(1, 6)
                 for _ in range(rng.randrange(1, 5)))
    return prefix, tail


def flags_shallow_pass(rng: random.Random) -> list[Op]:
    ops = []
    for prefix, tail in _shallow_boundary(rng):
        event = flag_values(prefix, tail).first_zero
        for route in SHALLOW_ROUTES:
            defect = "wwkl-budget" if route == "wwkl" and event == 21 else None
            ops.append(_route_op(route, prefix, tail, defect))
    for _ in range(SHALLOW_RANDOM_FLAGS):
        prefix, tail = _shallow_random(rng)
        ops += [_route_op(route, prefix, tail) for route in SHALLOW_ROUTES]
    for size in strata(rng, 60, 240, SHALLOW_CORPUS_OPS):
        seed = rng.randrange(0, 1 << 16)
        ops.append(Op(("--json", "corpus", "--size", str(size),
                       "--seed", str(seed)),
                      lambda rep, s=size, d=seed: check_corpus(s, d, rep)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# flags-deep

DEEP_EVENT_FLAGS = 34
DEEP_QUIET_FLAGS = 6


def flags_deep_pass(rng: random.Random) -> list[Op]:
    ops = []
    ms = strata(rng, 18, 256, DEEP_EVENT_FLAGS, log=True)
    quiet = strata(rng, 18, 256, DEEP_QUIET_FLAGS, log=True)
    for m, has_event in [(m, True) for m in ms] + [(m, False) for m in quiet]:
        if has_event:
            prefix, tail = _nonzero(rng, m) + (0,), _any(rng, rng.randrange(1, 5))
        else:
            prefix, tail = _nonzero(rng, m), _nonzero(rng, rng.randrange(1, 5))
        ops += [_route_op(route, prefix, tail) for route in ("ubin", "ivt", "weier")]
        # dq hunts the first nonzero: m zeros, then the event
        ops.append(_route_op("dq", (0,) * m + (rng.randrange(1, 6),),
                             _any(rng, rng.randrange(1, 5))))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# fan

FAN_WIDTHS = range(6, 16)        # sum:N and max:N, each once per pass
COVER_WIDTHS = range(6, 14)      # const:N and sum:N cover checks
FAN_CHEAP_OPS = 60             # over half the pass, so p50 is a cheap op


def _fan_op(spec: str, tree: str | None = None) -> Op:
    argv = ("--json", "fan", "--functional", spec)
    if tree is not None:
        argv += ("--tree", tree)
    return Op(argv, lambda rep, s=spec, t=tree: check_fan(s, t, rep))


def _cheap_functional(rng: random.Random) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return "ifz:" + ":".join(str(rng.randrange(0, 6)) for _ in range(3))
    if kind == 1:
        return f"proj:{rng.randrange(0, 10)}"
    if kind == 2:
        return f"const:{rng.randrange(0, 10)}"
    return rng.choice(("f0+f1", "f0+f1+1"))


def fan_pass(rng: random.Random) -> list[Op]:
    ops = [_fan_op(f"{kind}:{n}") for n in FAN_WIDTHS for kind in ("sum", "max")]
    ops += [_fan_op(_cheap_functional(rng)) for _ in range(FAN_CHEAP_OPS)]
    for n in COVER_WIDTHS:
        for kind in ("const", "sum"):
            # truncate:(N-1):full: const:N misses it on all 2^N cover
            # elements; the full tree fails the antecedent at once
            ops.append(_fan_op(f"{kind}:{n}", f"truncate:{n - 1}:full"))
            ops.append(_fan_op(f"{kind}:{n}", "full"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# normalize

# The five bundled fixtures, as text, with the current engine's rule list
# and block shapes (types only; fresh names may change).
FIXTURES = (
    ("pi01_transfer",
     "(all st f:1\n  (imp (ex n:0 (atom iszero f n))\n"
     "       (ex st m:0 (atom iszero f m))))\n",
     ("R1c-bound-consequent",), "equivalence", ("1",), ("0",)),
    ("seq_extensionality",
     "(all st F:2\n  (all st f:1\n    (all st g:1\n"
     "      (imp (all st n:0 (atom eqat f g n))\n"
     "           (atom eqval F f g)))))\n",
     ("R1b-bound-antecedent",), "equivalence", ("2", "1", "1"), ("0",)),
    ("standard_part",
     "(all st G:2\n  (all T:1\n    (ex st a:1\n      (ex st k:0\n"
     "        (atom approximates G T a k)))))\n",
     ("R4-idealize",), "equivalence", ("2",), ("1*", "0*")),
    ("tree_extensionality",
     "(all st P:2\n  (all st T:1\n    (all st S:1\n"
     "      (imp (all st s:0 (atom agree T S s))\n"
     "           (all st k:0 (atom patheq P T S k))))))\n",
     ("forall-pull", "R1b-bound-antecedent"), "equivalence",
     ("2", "1", "1", "0"), ("0",)),
    ("ubin_to_transfer",
     "(imp (ex st Phi:2\n       (all st g:1\n"
     "         (ex st m:0 (atom expands Phi g m))))\n"
     "     (all st f:1\n       (imp (ex n:0 (atom iszero f n))\n"
     "            (ex st k:0 (atom iszero f k)))))\n",
     ("R1a-flip-antecedent", "R2-herbrandize", "R3-drop-st", "forall-pull",
      "R1c-bound-consequent", "exists-pull"), "implication",
     ("2", "2", "1"), ("0",)),
)

NORMALIZE_FIXTURE_ROUNDS = 8   # over half the pass, so p50 is a fixture
NORMALIZE_FLIP_OPS = 8
NORMALIZE_HERBRAND_OPS = 10
NORMALIZE_PULL_OPS = (5, 3)      # k in 4..27, k in 28..40 (over the cap)
NORMALIZE_NEGATION_OPS = 8
STEP_CAP_K = 28                  # k(k+1)/2 > 400 from here on
DEEP_NEGATION = 1000


def _normalize_op(text: str, steps: tuple[str, ...], certificate: str,
                  foralls: tuple[str, ...], exists: tuple[str, ...],
                  known_defect: str | None = None) -> Op:
    expect = (steps, certificate, foralls, exists)
    return Op(("--json", "normalize", "--formula", text),
              lambda rep, e=expect: check_normalize(*e, rep), known_defect)


def flip_formula(rng: random.Random, k: int) -> Op:
    """k nested marked existentials in one antecedent: one R1a each."""
    types = [rng.choice("01") for _ in range(k)]
    text = ("(imp " + "".join(f"(ex st x{j + 1}:{t} " for j, t in enumerate(types))
            + "(atom p " + " ".join(f"x{j + 1}" for j in range(k)) + ")"
            + ")" * k + " (atom q))")
    return _normalize_op(text, ("R1a-flip-antecedent",) * k, "equivalence",
                         tuple(types), ())


def _curried(j: int) -> str:
    """Printed type of a functional of j number arguments into numbers."""
    t = "1"
    for _ in range(j - 1):
        t = f"(0->{t})"
    return t


def herbrand_formula(rng: random.Random, pairs: int) -> Op:
    """pairs marked forall-exists pairs in an antecedent, a marked
    existential consequent: R2 per pair, then R1b and R1c."""
    body = "(atom r " + " ".join(f"x{j} y{j}" for j in range(1, pairs + 1)) + ")"
    text = ("(imp " + "".join(f"(all st x{j}:0 (ex st y{j}:0 "
                              for j in range(1, pairs + 1))
            + body + ")" * (2 * pairs)
            + f" (ex st z:0 (atom {rng.choice('qs')} z)))")
    steps = ("R2-herbrandize",) * pairs + ("R1b-bound-antecedent",
                                           "R1c-bound-consequent")
    return _normalize_op(text, steps, "equivalence",
                         tuple(_curried(j) for j in range(1, pairs + 1)),
                         ("0", "0"))


def pull_formula(rng: random.Random, k: int) -> Op:
    """k guarded marked universals in nested consequents: binder j is
    pulled past j implications, k(k+1)/2 forall-pulls in all."""
    f = "(atom p " + " ".join(f"x{j}" for j in range(1, k + 1)) + ")"
    for j in range(k, 0, -1):
        guard = "c" if j == 1 else f"x{j - 1}"
        f = f"(imp (atom {rng.choice('gh')} {guard}) (all st x{j}:0 {f}))"
    defect = "step-cap" if k >= STEP_CAP_K else None
    return _normalize_op(f, ("forall-pull",) * (k * (k + 1) // 2),
                         "equivalence", ("0",) * k, (), defect)


def negation_formula(d: int) -> Op:
    """A marked forall-exists under d negations (d even): each quantifier
    is pushed past all d, 2d not-pushes."""
    text = "(not " * d + "(all st x:0 (ex st y:0 (atom r x y)))" + ")" * d
    defect = "recursion" if d >= DEEP_NEGATION else None
    return _normalize_op(text, ("not-push",) * (2 * d), "equivalence",
                         ("0",), ("0",), defect)


def normalize_pass(rng: random.Random) -> list[Op]:
    ops = [_normalize_op(text, steps, cert, fa, ex)
           for _ in range(NORMALIZE_FIXTURE_ROUNDS)
           for _name, text, steps, cert, fa, ex in FIXTURES]
    ops += [flip_formula(rng, k)
            for k in grid(8, 256, NORMALIZE_FLIP_OPS, log=True)]
    ops += [herbrand_formula(rng, p)
            for p in grid(2, 32, NORMALIZE_HERBRAND_OPS)]
    below, over = NORMALIZE_PULL_OPS
    ops += [pull_formula(rng, k) for k in
            grid(4, STEP_CAP_K - 1, below) + grid(STEP_CAP_K, 40, over)]
    ops += [negation_formula(2 * h)
            for h in grid(1, 48, NORMALIZE_NEGATION_OPS)]
    ops.append(negation_formula(DEEP_NEGATION))
    rng.shuffle(ops)
    return ops


_PASSES = {
    "flags-shallow": flags_shallow_pass,
    "flags-deep": flags_deep_pass,
    "fan": fan_pass,
    "normalize": normalize_pass,
}


def make_pass(workload: str, seed: int, pass_index: int) -> list[Op]:
    return _PASSES[workload](_rng(workload, seed, pass_index))
