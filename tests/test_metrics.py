import ast
import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import names_of, recursive_levenshtein
from polyg2p import metrics
from polyg2p.metrics import (
    EvalReport,
    evaluate,
    levenshtein,
    score,
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


def test_levenshtein_is_called_only_by_score():
    # the one scoring loop: nothing else in the package takes an edit distance
    package = Path(metrics.__file__).resolve().parent
    found = [(path.name, func) for path in sorted(package.glob("*.py"))
             for func in names_of(ast.parse(path.read_text(encoding="utf-8")), "levenshtein")]
    assert found == [("metrics.py", "score")]


def _scores_of(pairs):
    """`score`'s one-language scores for (top-1 guess, gold) pairs."""
    entries = [_Entry("aaa", tuple(gold)) for _, gold in pairs]
    return score(entries, [[_Hyp(tuple(pred))] for pred, _ in pairs]).per_language["aaa"]


def test_per_examples():
    assert _scores_of([(["k", "a", "t"], ["k", "a", "t"])]).per == 0.0
    assert _scores_of([(["k", "a", "t"], ["k", "b", "t"])]).per == pytest.approx(100 / 3)
    assert _scores_of([(list("abcdef"), ["x"])]).per == 600.0  # may exceed 100, never clamped


def test_empty_nbest_list_scores_as_a_miss():
    # no decoder yields one; bench/run.py passes it for a word whose search failed
    scores = score([_Entry("aaa", ("k", "a"))], [[]]).per_language["aaa"]
    assert (scores.wer, scores.wer100, scores.per, scores.per_corpus) == (100.0, 100.0, 100.0, 100.0)


def test_per_empty_gold_errors():
    with pytest.raises(ValueError, match="empty gold"):
        score([_Entry("aaa", ())], [[_Hyp(("a",))]])


def test_per_zero_iff_exact():
    assert _scores_of([(["a", "b"], ["a", "b"])]).per == 0.0
    assert _scores_of([(["a"], ["a", "b"])]).per > 0.0


def test_wer_examples():
    gold = (["k"], ["a"], ["t"], ["s"])
    assert _scores_of([(g, g) for g in gold]).wer == 0.0
    pairs = [(["x"], ["k"])] + [(g, g) for g in gold[1:]]
    assert _scores_of(pairs).wer == 25.0


def test_low_per_can_coexist_with_total_wer():
    pairs = []
    for _ in range(10):
        gold = ["p"] * 10
        pred = ["q"] + ["p"] * 9
        pairs.append((pred, gold))
    scores = _scores_of(pairs)
    assert scores.wer == 100.0
    assert scores.per == pytest.approx(10.0)


def test_exact_match_normalizes_unicode():
    assert _scores_of([(["e\u0301"], ["\u00e9"])]).wer == 0.0  # NFC-equivalent tokens
    # an NFD gold against its NFC prediction: one rule for every metric
    nfd, nfc = ("e\u0301", "t"), ("\u00e9", "t")
    assert _scores_of([(nfc, nfd)]).per == 0.0
    scores = evaluate([_Entry("aaa", nfd)], lambda e: [_Hyp(nfc)]).per_language["aaa"]
    assert (scores.wer, scores.wer100, scores.per, scores.per_corpus) == (0.0, 0.0, 0.0, 0.0)
    scores = evaluate([_Entry("aaa", nfd)], lambda e: [_Hyp(("x",)), _Hyp(nfc)])
    assert scores.per_language["aaa"].wer100 == 0.0


def _fake_nbest(gold, rank, depth):
    filler = [["z", str(i)] for i in range(depth)]
    filler.insert(rank - 1, list(gold))
    return filler


def _evaluate_wer100(gold, nbest, width=None):
    hyps = [_Hyp(tuple(p)) for p in nbest]
    return evaluate([_Entry("aaa", tuple(gold))], lambda e: hyps, width=width).macro.wer100


def test_wer100_boundary_rank_100_found():
    gold = ["a", "b"]
    assert _evaluate_wer100(gold, _fake_nbest(gold, 100, 120)) == 0.0


def test_wer100_boundary_rank_101_missed():
    gold = ["a", "b"]
    assert _evaluate_wer100(gold, _fake_nbest(gold, 101, 120)) == 100.0


def test_wer100_gold_on_top():
    gold = ("a",)
    entries = [_Entry("aaa", gold), _Entry("aaa", gold)]
    assert score(entries, [[_Hyp(gold)], [_Hyp(gold), _Hyp(("b",))]]).macro.wer100 == 0.0


def test_wer100_warns_on_narrow_beam():
    with pytest.warns(UserWarning, match="beam width 10"):
        _evaluate_wer100(["a"], [["a"]], width=10)


def test_narrow_beam_warning_names_the_callers_file():
    entries, hyps = [_Entry("aaa", ("a",))], [_Hyp(("a",))]
    calls = {
        "evaluate": lambda: evaluate(entries, lambda e: hyps, width=10),
        "score": lambda: score(entries, [hyps], width=10),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)], name


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


def _evaluate(entries, decode_fn):
    """`evaluate`'s report, checked equal to `score` over the same n-best lists."""
    report = evaluate(entries, decode_fn)
    assert score(entries, [decode_fn(e) for e in entries]) == report
    return report


def test_evaluate_equal_weight_macro():
    entries = [
        _Entry("aaa", ("p",)), _Entry("aaa", ("q",)),
        _Entry("bbb", ("p",)), _Entry("bbb", ("q",)),
    ]
    table = {
        ("aaa", ("p",)): [("x",)], ("aaa", ("q",)): [("x",)],   # all wrong
        ("bbb", ("p",)): [("p",)], ("bbb", ("q",)): [("q",)],   # all right
    }
    report = _evaluate(entries, _decoder(table))
    assert report.per_language["aaa"].wer == 100.0
    assert report.per_language["bbb"].wer == 0.0
    assert report.macro.wer == pytest.approx(50.0, abs=1e-9)


def test_evaluate_single_language_macro_equals_language():
    entries = [_Entry("aaa", ("p",)), _Entry("aaa", ("q", "r"))]
    table = {("aaa", ("p",)): [("p",)], ("aaa", ("q", "r")): [("q", "q")]}
    report = _evaluate(entries, _decoder(table))
    lang = report.per_language["aaa"]
    assert report.macro.wer == lang.wer == 50.0
    assert report.macro.per == lang.per == pytest.approx(100.0 * (0.0 + 0.5) / 2)


def test_evaluate_macro_invariant_to_word_counts():
    base = [_Entry("aaa", ("p",)), _Entry("bbb", ("q",))]
    doubled = base + [_Entry("bbb", ("q",))] * 3
    table = {("aaa", ("p",)): [("x",)], ("bbb", ("q",)): [("q",)]}
    assert _evaluate(base, _decoder(table)).macro.wer == \
        _evaluate(doubled, _decoder(table)).macro.wer


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
    report = _evaluate(entries, _decoder(table))
    for scores in report.per_language.values():
        assert scores.wer100 <= scores.wer + 1e-12


def test_evaluate_per_scores_match_their_definitions():
    rng = np.random.default_rng(1)
    entries, table = [], {}
    for i in range(12):
        gold = tuple(rng.choice(["p", "q", "r"], size=1 + i % 4))
        entries.append(_Entry("aaa", gold))
        table[("aaa", gold)] = [tuple(rng.choice(["p", "q", "r"], size=rng.integers(0, 5)))]
    scores = _evaluate(entries, _decoder(table)).per_language["aaa"]
    tops = [table[("aaa", e.phonemes)][0] for e in entries]
    assert scores.per == 100.0 * sum(levenshtein(t, e.phonemes) / len(e.phonemes)
                                     for t, e in zip(tops, entries)) / 12
    assert scores.per_corpus == (100.0 * sum(levenshtein(t, e.phonemes)
                                             for t, e in zip(tops, entries))
                                 / sum(len(e.phonemes) for e in entries))


def test_evaluate_empty_gold_errors():
    with pytest.raises(ValueError, match="empty gold"):
        evaluate([_Entry("aaa", ())], lambda e: [_Hyp(("p",))])


def test_evaluate_empty_corpus_errors():
    with pytest.raises(ValueError, match="empty test corpus"):
        evaluate([], lambda e: [])


@pytest.mark.parametrize("lists", [0, 1, 3])
def test_score_rejects_a_count_of_nbest_lists_unlike_the_entries(lists):
    entries = [_Entry("aaa", ("p",)), _Entry("bbb", ("q",))]
    with pytest.raises(ValueError):
        score(entries, iter([[_Hyp(("p",))]] * lists))


def test_report_format_two_decimals_and_macro_row():
    entries = [_Entry("aaa", ("p",)), _Entry("aaa", ("q",)), _Entry("aaa", ("r",))]
    table = {("aaa", ("p",)): [("p",)], ("aaa", ("q",)): [("x",)], ("aaa", ("r",)): [("r",)]}
    report = _evaluate(entries, _decoder(table))
    buf = io.StringIO()
    write_report(buf, report)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "lang\twords\tWER\tWER100\tPER"
    assert lines[1] == "aaa\t3\t33.33\t33.33\t33.33"
    assert lines[2].startswith("MACRO\t3\t33.33")
