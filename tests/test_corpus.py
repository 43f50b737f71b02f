from __future__ import annotations

from mulab.corpus import DEFAULT_CORPUS_SIZE, corpus_stats, flag_corpus
from mulab.sequences import PresentedSequence

from oracles import scan_first_zero


def test_corpus_is_deterministic_per_seed():
    assert flag_corpus(seed=5) == flag_corpus(seed=5)
    assert flag_corpus(seed=5) != flag_corpus(seed=6)


def test_corpus_has_distinct_entries_of_the_requested_size():
    corpus = flag_corpus(seed=2, size=40)
    assert len(corpus) == 40
    assert len(set(corpus)) == 40


def test_fixed_head_survives_every_seed():
    must_have = [
        PresentedSequence((), (1,)),
        PresentedSequence((0,), (1,)),
        PresentedSequence((1,) * 17 + (0,), (1,)),
        PresentedSequence((1,) * 64 + (0,), (1,)),
        PresentedSequence((1,) * 200 + (0,), (1,)),
        PresentedSequence((0,) * 64 + (1,), (0,)),
        PresentedSequence((0,) * 200 + (1,), (0,)),
        PresentedSequence((), (0,)),
    ]
    for seed in (0, 1, 9):
        corpus = flag_corpus(seed=seed, size=30)
        for f in must_have:
            assert f in corpus


def test_stats_match_a_direct_scan():
    corpus = flag_corpus(seed=0)
    stats = corpus_stats(corpus)
    events = [scan_first_zero(f.values(f.horizon)) for f in corpus]
    assert stats["size"] == DEFAULT_CORPUS_SIZE == len(corpus)
    assert stats["with_event"] == sum(1 for e in events if e is not None)
    assert stats["without_event"] == sum(1 for e in events if e is None)
    assert stats["with_event"] + stats["without_event"] == stats["size"]
    assert stats["max_event_index"] == max(e for e in events if e is not None)


def test_seed_zero_covers_the_interesting_region():
    stats = corpus_stats(flag_corpus(seed=0))
    assert stats["with_event"] >= 60
    assert stats["without_event"] >= 20
    assert stats["max_event_index"] >= 17
    assert stats["all_zero"] >= 1
