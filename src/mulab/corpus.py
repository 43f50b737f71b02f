"""A reproducible corpus of flag sequences for exercising the routes.

The fixed head covers the boundary shapes: no event at all, events at
0, 1, 3, 7, 17, 64 and 200, an event sitting inside the periodic tail
rather than the prefix, all-zero flags, and zeros-then-one flags whose
first nonzero entry (the dq event) sits at 64 and 200.  The seeded
remainder draws short prefixes and tails, so its events stay small.
"""

from __future__ import annotations

import random

from .sequences import PresentedSequence, mu_exact

__all__ = ["flag_corpus", "corpus_stats", "DEFAULT_CORPUS_SIZE"]

DEFAULT_CORPUS_SIZE = 120


def _fixed_head() -> list[PresentedSequence]:
    head = [
        PresentedSequence((), (1,)),                  # never fires
        PresentedSequence((), (2, 3)),
        PresentedSequence((7, 1, 9), (4,)),
        PresentedSequence((0,), (1,)),                # event at 0
        PresentedSequence((1, 0), (2,)),              # event at 1
        PresentedSequence((1, 1, 1, 0), (1,)),        # event at 3
        PresentedSequence((1,) * 7 + (0,), (1,)),     # event at 7
        PresentedSequence((1,) * 17 + (0,), (1,)),    # event at 17
        PresentedSequence((1,) * 64 + (0,), (1,)),    # event at 64
        PresentedSequence((1,) * 200 + (0,), (1,)),   # event at 200
        PresentedSequence((), (1, 1, 0)),             # event inside the tail
        PresentedSequence((3, 5), (2, 0, 4)),
        PresentedSequence((), (0,)),                  # all zero
        PresentedSequence((0, 0, 3), (1,)),
        PresentedSequence((2,), (0,)),
        PresentedSequence((1, 1, 1), (5, 0)),
        PresentedSequence((0,) * 64 + (1,), (0,)),    # first nonzero at 64
        PresentedSequence((0,) * 200 + (1,), (0,)),   # first nonzero at 200
    ]
    return head


def flag_corpus(seed: int = 0, size: int = DEFAULT_CORPUS_SIZE
                ) -> tuple[PresentedSequence, ...]:
    """At least ``size`` distinct flags, fixed head plus seeded filler."""
    out: dict[PresentedSequence, None] = {}
    for f in _fixed_head():
        out.setdefault(f, None)
    rng = random.Random(seed)
    while len(out) < size:
        plen = rng.randrange(0, 11)
        prefix = tuple(0 if rng.random() < 0.15 else rng.randrange(1, 6)
                       for _ in range(plen))
        tlen = rng.randrange(1, 5)
        tail = tuple(0 if rng.random() < 0.08 else rng.randrange(1, 6)
                     for _ in range(tlen))
        if all(v == 0 for v in tail) and rng.random() < 0.8:
            tail = tuple(rng.randrange(1, 6) for _ in range(tlen))
        out.setdefault(PresentedSequence(prefix, tail), None)
    return tuple(out)


def corpus_stats(corpus: tuple[PresentedSequence, ...]) -> dict[str, int]:
    fires = [mu_exact(f) for f in corpus]
    nonzero = [f.first_nonzero for f in corpus]
    return {
        "size": len(corpus),
        "with_event": sum(1 for m in fires if m is not None),
        "without_event": sum(1 for m in fires if m is None),
        "max_event_index": max((m for m in fires if m is not None),
                               default=-1),
        "all_zero": sum(1 for m in nonzero if m is None),
    }
