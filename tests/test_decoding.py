import hashlib
import io
import itertools
from pathlib import Path

import numpy as np
import pytest

from helpers import reference_beam, tiny_model, toy_tgt_vocab
from polyg2p.checkpoint import load_checkpoint
from polyg2p.corpus import BOS_ID, EOS_ID
from polyg2p.decoding import (
    NBestEntry,
    beam_search,
    default_max_len,
    greedy_decode,
    score_sequence,
    write_nbest,
)


FIXTURE = Path(__file__).resolve().parent.parent / "bench" / "fixture" / "paper.mg2p"

# Source id rows for the committed paper-size checkpoint: a language token,
# then graphemes.
FIXTURE_SOURCES = ([49, 5, 9, 11, 5], [55, 21, 42, 40, 13, 18, 5], [66, 26, 31, 33, 28])

# SHA-256 of beam_search's n-best lists on FIXTURE_SOURCES at widths 1, 10
# and 100: each entry's phonemes, log_prob.hex() and truncated flag.
# Recorded before the decoder state became [layers, B, n] arrays; any change
# to the order of float32 arithmetic in inference moves it. The bits
# also depend on the BLAS kernels: recorded with numpy 2.4.6 and
# scipy-openblas 0.3.31 on x86-64.
INFERENCE_BITS = "50a3e4e026b5f64a44c2f156d0a0163768a653f50fc4f9397735ad8b3573537c"


def test_beam_search_nbest_match_recorded_bits():
    bundle = load_checkpoint(FIXTURE)
    digest = hashlib.sha256()
    for width in (1, 10, 100):
        for src in FIXTURE_SOURCES:
            for entry in beam_search(src, bundle.params, bundle.config, bundle.tgt_vocab, width):
                digest.update(f"{' '.join(entry.phonemes)}\t{entry.log_prob.hex()}\t"
                              f"{entry.truncated}\n".encode())
    assert digest.hexdigest() == INFERENCE_BITS


def test_beam_width_one_equals_greedy_on_random_models():
    vocab = toy_tgt_vocab(5)
    for seed in range(10):
        config, params = tiny_model(seed=seed, tgt_vocab=len(vocab))
        src = [4, 5 + seed % 3]
        nbest = beam_search(src, params, config, vocab, width=1)
        tokens, log_prob = greedy_decode(src, params, config, vocab)
        assert nbest[0].phonemes == tokens
        assert nbest[0].log_prob == pytest.approx(log_prob, abs=1e-9)


def _enumerate_ranked(src, params, config, vocab, max_len):
    """Exhaustive ranking of every reachable hypothesis, scored independently."""
    allowed = [i for i in range(len(vocab)) if i not in (0, 1, 3)]  # PAD/BOS/UNK
    phoneme_ids = [i for i in allowed if i != EOS_ID]
    ranked = []
    for steps in range(1, max_len + 1):
        for seq in itertools.product(phoneme_ids, repeat=steps - 1):
            score = score_sequence(src, list(seq), params, config, include_eos=True)
            ranked.append((-score, steps, (BOS_ID,) + seq + (EOS_ID,), seq, False))
    for seq in itertools.product(phoneme_ids, repeat=max_len):
        score = score_sequence(src, list(seq), params, config, include_eos=False)
        ranked.append((-score, max_len + 1, (BOS_ID,) + seq, seq, True))
    ranked.sort()
    return [
        NBestEntry(tuple(vocab.decode(seq)), -neg, truncated)
        for neg, _, _, seq, truncated in ranked
    ]


def test_beam_equals_exhaustive_enumeration():
    # width exceeds the whole search space, so nothing is ever pruned and the
    # n-best list must be the true ranking of every sequence up to max_len
    vocab = toy_tgt_vocab(3)  # 3 phonemes + EOS expandable
    config, params = tiny_model(seed=42, tgt_vocab=len(vocab), dtype=np.float64)
    src = [4, 6, 5]
    max_len = 3
    nbest = beam_search(src, params, config, vocab, width=100, max_len=max_len)
    expected = _enumerate_ranked(src, params, config, vocab, max_len)[:100]
    assert len(nbest) == len(expected)
    for got, want in zip(nbest, expected):
        assert got.phonemes == want.phonemes
        assert got.truncated == want.truncated
        assert got.log_prob == pytest.approx(want.log_prob, abs=1e-9)


def test_beam_matches_pruned_per_hypothesis_reference():
    # widths below the search space prune, so this checks which candidates survive
    vocab = toy_tgt_vocab(5)
    for seed, src in ((21, [4, 6, 5]), (22, [7, 4])):
        config, params = tiny_model(seed=seed, tgt_vocab=len(vocab), dtype=np.float64)
        for width, max_len in itertools.product((1, 2, 5, 12, 100), (2, 3, 4)):
            got = beam_search(src, params, config, vocab, width=width, max_len=max_len)
            want = reference_beam(src, params, config, vocab, width, max_len)
            assert [(e.phonemes, e.truncated) for e in got] == \
                [(e.phonemes, e.truncated) for e in want]
            for g, w in zip(got, want):
                assert g.log_prob == pytest.approx(w.log_prob, abs=1e-9)


def test_exact_ties_rank_by_completion_step_then_token_ids():
    # a zero generator gives every allowed token the same log-prob at every step
    vocab = toy_tgt_vocab(4)
    config, params = tiny_model(seed=13, tgt_vocab=len(vocab), dtype=np.float64)
    params["generator.weights"].data[:] = 0.0
    params["generator.bias"].data[:] = 0.0
    nbest = beam_search([4, 5], params, config, vocab, width=4, max_len=3)
    # every tie survives pruning; behind the step-1 EOS, the step-2 EOS endings
    # outrank the live paths of equal score, in token order
    assert [(e.phonemes, e.truncated) for e in nbest] == [
        ((), False), (("p1",), False), (("p2",), False), (("p3",), False)]
    nbest = beam_search([4, 5], params, config, vocab, width=4, max_len=1)
    assert [(e.phonemes, e.truncated) for e in nbest] == [
        ((), False), (("p1",), True), (("p2",), True), (("p3",), True)]

    # with p2 likelier than p1, the beam holds p2 before p1, yet the exact tie
    # between p1 p2 and p2 p1 still goes to the smaller token ids
    vocab = toy_tgt_vocab(2)
    config, params = tiny_model(seed=13, tgt_vocab=len(vocab), dtype=np.float64)
    params["generator.weights"].data[:] = 0.0
    params["generator.bias"].data[:] = [0.0, 0.0, -1.0, 0.0, 0.3, 1.0]
    nbest = beam_search([4, 5], params, config, vocab, width=4, max_len=2)
    assert [(e.phonemes, e.truncated) for e in nbest] == [
        (("p2", "p2"), True), (("p1", "p2"), True), (("p2", "p1"), True), ((), False)]
    assert nbest[1].log_prob == nbest[2].log_prob


def test_top_score_non_decreasing_in_width():
    vocab = toy_tgt_vocab(6)
    for seed in (0, 1, 2, 3):
        config, params = tiny_model(seed=seed, tgt_vocab=len(vocab))
        src = [4, 5]
        tops = [beam_search(src, params, config, vocab, width=w)[0].log_prob
                for w in (1, 2, 5, 10)]
        for narrow, wide in zip(tops, tops[1:]):
            assert wide >= narrow - 1e-9


def test_wider_beam_dominates_elementwise():
    vocab = toy_tgt_vocab(4)
    config, params = tiny_model(seed=9, tgt_vocab=len(vocab))
    narrow = beam_search([4, 5], params, config, vocab, width=4)
    wide = beam_search([4, 5], params, config, vocab, width=12)
    for n_entry, w_entry in zip(narrow, wide[: len(narrow)]):
        assert w_entry.log_prob >= n_entry.log_prob - 1e-9


def test_every_score_matches_teacher_forced_rescoring():
    vocab = toy_tgt_vocab(4)
    for seed in (3, 4, 5):
        config, params = tiny_model(seed=seed, tgt_vocab=len(vocab))
        src = [4, 6]
        for entry in beam_search(src, params, config, vocab, width=8, max_len=4):
            rescored = score_sequence(src, vocab.encode(entry.phonemes), params, config,
                                      include_eos=not entry.truncated)
            assert entry.log_prob == pytest.approx(rescored, abs=1e-5)


def test_nbest_sorted_unique_and_flagged():
    vocab = toy_tgt_vocab(4)
    config, params = tiny_model(seed=6, tgt_vocab=len(vocab))
    nbest = beam_search([4, 5, 6], params, config, vocab, width=20, max_len=2)
    assert len(nbest) <= 20
    assert len({e.phonemes for e in nbest}) == len(nbest)
    for a, b in zip(nbest, nbest[1:]):
        assert a.log_prob >= b.log_prob
    assert any(e.truncated for e in nbest)      # max_len 2 cuts some paths
    assert any(not e.truncated for e in nbest)  # and EOS finishes others
    for e in nbest:
        if not e.truncated:
            assert len(e.phonemes) < 2 + 1  # finished within max_len steps


def test_eos_forced_model_returns_empty_sequence():
    vocab = toy_tgt_vocab(4)
    config, params = tiny_model(seed=7, tgt_vocab=len(vocab))
    params["generator.weights"].data[:] = 0.0
    params["generator.bias"].data[:] = -50.0
    params["generator.bias"].data[EOS_ID] = 50.0
    tokens, log_prob = greedy_decode([4, 5], params, config, vocab)
    assert tokens == ()
    assert log_prob == pytest.approx(0.0, abs=1e-6)  # probability ~1 per step
    top = beam_search([4, 5], params, config, vocab, width=3)[0]
    assert top.phonemes == () and not top.truncated


def test_default_max_len_bound():
    assert default_max_len(4) == 18
    vocab = toy_tgt_vocab(3)
    config, params = tiny_model(seed=8, tgt_vocab=len(vocab))
    for entry in beam_search([4], params, config, vocab, width=3):
        assert len(entry.phonemes) <= default_max_len(1)


def test_empty_source_errors():
    vocab = toy_tgt_vocab(3)
    config, params = tiny_model(seed=8, tgt_vocab=len(vocab))
    with pytest.raises(ValueError, match="empty source"):
        beam_search([], params, config, vocab)
    with pytest.raises(ValueError, match="empty source"):
        greedy_decode([], params, config, vocab)
    for decode in (beam_search, greedy_decode):
        with pytest.raises(ValueError, match="max_len"):
            decode([4], params, config, vocab, max_len=0)
    with pytest.raises(ValueError, match="width"):
        beam_search([4], params, config, vocab, width=0)


def test_concurrent_decoding_over_shared_parameters():
    import threading

    vocab = toy_tgt_vocab(4)
    config, params = tiny_model(seed=12, tgt_vocab=len(vocab))
    sources = [[4, 5], [5, 6], [6, 4], [4, 6, 5]]
    expected = [beam_search(s, params, config, vocab, width=4) for s in sources]

    results = [None] * len(sources)

    def worker(i):
        results[i] = beam_search(sources[i], params, config, vocab, width=4)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(len(sources))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert results == expected


def test_write_nbest_format():
    buf = io.StringIO()
    write_nbest(buf, "real", [NBestEntry(("r", "i:", "l"), -0.25, False),
                              NBestEntry(("r", "e", "l"), -1.5, False)])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "real\t1\t-0.250000\tr i: l"
    assert lines[1] == "real\t2\t-1.500000\tr e l"
