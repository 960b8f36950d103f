import io
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import recursive_levenshtein
from polyg2p.metrics import (
    EvalReport,
    evaluate,
    exact_match,
    levenshtein,
    per,
    wer,
    wer100,
    write_report,
)

tokens = st.lists(st.sampled_from(["a", "b", "c"]), max_size=6)


def test_levenshtein_identity():
    assert levenshtein(["x"], ["x"]) == 0


def test_levenshtein_insertions_only():
    assert levenshtein([], ["a", "b"]) == 2


def test_levenshtein_single_substitution():
    assert levenshtein(["k", "a", "t"], ["k", "b", "t"]) == 1
    assert recursive_levenshtein(["k", "a", "t"], ["k", "b", "t"]) == 1


@given(tokens, tokens)
def test_levenshtein_matches_recursive_oracle(a, b):
    assert levenshtein(a, b) == recursive_levenshtein(a, b)


@given(tokens, tokens, tokens)
@settings(max_examples=60)
def test_levenshtein_is_a_metric(a, b, c):
    assert levenshtein(a, b) == levenshtein(b, a)
    assert (levenshtein(a, b) == 0) == (a == b)
    assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@given(tokens, tokens)
def test_levenshtein_bounds(a, b):
    d = levenshtein(a, b)
    assert abs(len(a) - len(b)) <= d <= max(len(a), len(b), 0)


def test_per_examples():
    assert per(["k", "a", "t"], ["k", "a", "t"]) == 0.0
    assert per(["k", "a", "t"], ["k", "b", "t"]) == pytest.approx(1 / 3)
    assert per(list("abcdef"), ["x"]) == 6.0  # may exceed 1, never clamped


def test_per_empty_gold_errors():
    with pytest.raises(ValueError, match="empty gold"):
        per(["a"], [])


def test_per_zero_iff_exact():
    assert per(["a", "b"], ["a", "b"]) == 0.0
    assert per(["a"], ["a", "b"]) > 0.0


def test_wer_examples():
    gold = (["k"], ["a"], ["t"], ["s"])
    assert wer([(g, g) for g in gold]) == 0.0
    pairs = [(["x"], ["k"])] + [(g, g) for g in gold[1:]]
    assert wer(pairs) == 25.0


def test_low_per_can_coexist_with_total_wer():
    pairs = []
    for _ in range(10):
        gold = ["p"] * 10
        pred = ["q"] + ["p"] * 9
        pairs.append((pred, gold))
    assert wer(pairs) == 100.0
    assert sum(per(p, g) for p, g in pairs) / len(pairs) == pytest.approx(0.1)


def test_exact_match_normalizes_unicode():
    assert exact_match(["é"], ["é"])  # NFC-equivalent tokens


def _fake_nbest(gold, rank, depth):
    filler = [["z", str(i)] for i in range(depth)]
    filler.insert(rank - 1, list(gold))
    return filler


def test_wer100_boundary_rank_100_found():
    gold = ["a", "b"]
    assert wer100([(_fake_nbest(gold, 100, 120), gold)]) == 0.0


def test_wer100_boundary_rank_101_missed():
    gold = ["a", "b"]
    assert wer100([(_fake_nbest(gold, 101, 120), gold)]) == 100.0


def test_wer100_gold_on_top():
    gold = ["a"]
    assert wer100([([gold], gold), ([gold, ["b"]], gold)]) == 0.0


def test_wer100_warns_on_narrow_beam():
    with pytest.warns(UserWarning, match="beam width"):
        wer100([([["a"]], ["a"])], width=10)


@dataclass
class _Hyp:
    phonemes: tuple


@dataclass
class _Entry:
    lang: str
    phonemes: tuple


def _decoder(table):
    def decode_fn(entry):
        return [_Hyp(tuple(p)) for p in table[(entry.lang, entry.phonemes)]]
    return decode_fn


def test_evaluate_equal_weight_macro():
    entries = [
        _Entry("aaa", ("p",)), _Entry("aaa", ("q",)),
        _Entry("bbb", ("p",)), _Entry("bbb", ("q",)),
    ]
    table = {
        ("aaa", ("p",)): [("x",)], ("aaa", ("q",)): [("x",)],   # all wrong
        ("bbb", ("p",)): [("p",)], ("bbb", ("q",)): [("q",)],   # all right
    }
    report = evaluate(entries, _decoder(table))
    assert report.per_language["aaa"].wer == 100.0
    assert report.per_language["bbb"].wer == 0.0
    assert report.macro.wer == pytest.approx(50.0, abs=1e-9)


def test_evaluate_single_language_macro_equals_language():
    entries = [_Entry("aaa", ("p",)), _Entry("aaa", ("q", "r"))]
    table = {("aaa", ("p",)): [("p",)], ("aaa", ("q", "r")): [("q", "q")]}
    report = evaluate(entries, _decoder(table))
    lang = report.per_language["aaa"]
    assert report.macro.wer == lang.wer == 50.0
    assert report.macro.per == lang.per == pytest.approx(100.0 * (0.0 + 0.5) / 2)


def test_evaluate_macro_invariant_to_word_counts():
    base = [_Entry("aaa", ("p",)), _Entry("bbb", ("q",))]
    doubled = base + [_Entry("bbb", ("q",))] * 3
    table = {("aaa", ("p",)): [("x",)], ("bbb", ("q",)): [("q",)]}
    assert evaluate(base, _decoder(table)).macro.wer == \
        evaluate(doubled, _decoder(table)).macro.wer


def test_evaluate_wer100_never_exceeds_wer():
    rng = np.random.default_rng(0)
    entries, table = [], {}
    for lang in ("aaa", "bbb", "ccc"):
        for i in range(8):
            gold = tuple(rng.choice(["p", "q", "r"], size=3))
            entry = _Entry(lang, gold)
            entries.append(entry)
            top = tuple(rng.choice(["p", "q", "r"], size=3))
            table[(lang, gold)] = [top, gold] if rng.random() < 0.5 else [top]
    report = evaluate(entries, _decoder(table))
    for scores in report.per_language.values():
        assert scores.wer100 <= scores.wer + 1e-12


def test_evaluate_per_scores_match_their_definitions():
    rng = np.random.default_rng(1)
    entries, table = [], {}
    for i in range(12):
        gold = tuple(rng.choice(["p", "q", "r"], size=1 + i % 4))
        entries.append(_Entry("aaa", gold))
        table[("aaa", gold)] = [tuple(rng.choice(["p", "q", "r"], size=rng.integers(0, 5)))]
    scores = evaluate(entries, _decoder(table)).per_language["aaa"]
    tops = [table[("aaa", e.phonemes)][0] for e in entries]
    assert scores.per == 100.0 * sum(per(t, e.phonemes) for t, e in zip(tops, entries)) / 12
    assert scores.per_corpus == (100.0 * sum(levenshtein(t, e.phonemes)
                                             for t, e in zip(tops, entries))
                                 / sum(len(e.phonemes) for e in entries))


def test_evaluate_empty_gold_errors():
    with pytest.raises(ValueError, match="empty gold"):
        evaluate([_Entry("aaa", ())], lambda e: [_Hyp(("p",))])


def test_evaluate_empty_corpus_errors():
    with pytest.raises(ValueError, match="empty test corpus"):
        evaluate([], lambda e: [])


def test_report_format_two_decimals_and_macro_row():
    entries = [_Entry("aaa", ("p",)), _Entry("aaa", ("q",)), _Entry("aaa", ("r",))]
    table = {("aaa", ("p",)): [("p",)], ("aaa", ("q",)): [("x",)], ("aaa", ("r",)): [("r",)]}
    report = evaluate(entries, _decoder(table))
    buf = io.StringIO()
    write_report(buf, report)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "lang\twords\tWER\tWER100\tPER"
    assert lines[1] == "aaa\t3\t33.33\t33.33\t33.33"
    assert lines[2].startswith("MACRO\t3\t33.33")
