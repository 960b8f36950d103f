"""Edit-distance evaluation: PER, WER, and WER over the 100-best list.

Per-language scores are macro-averaged with equal weight per language.
Exact match compares NFC-normalized phoneme token sequences. PER is averaged
per word, then per language (mean of ratios); a corpus-level ratio-of-sums
variant is also provided.
"""

from __future__ import annotations

import unicodedata
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

TokenSeq = Sequence[str]


def levenshtein(a: TokenSeq, b: TokenSeq) -> int:
    """Minimum insertions/deletions/substitutions over whole tokens."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        current = [i]
        for j, y in enumerate(b, start=1):
            current.append(min(
                previous[j] + 1,
                current[j - 1] + 1,
                previous[j - 1] + (x != y),
            ))
        previous = current
    return previous[-1]


def per(pred: TokenSeq, gold: TokenSeq) -> float:
    """Phoneme error rate for one word: edit distance / gold length (ratio)."""
    return _per_of(levenshtein(pred, gold), gold)


def _per_of(distance: int, gold: TokenSeq) -> float:
    if not gold:
        raise ValueError("empty gold sequence")
    return distance / len(gold)


def _nfc(tokens: TokenSeq) -> tuple[str, ...]:
    return tuple(unicodedata.normalize("NFC", t) for t in tokens)


def exact_match(pred: TokenSeq, gold: TokenSeq) -> bool:
    return _nfc(pred) == _nfc(gold)


def wer(pairs: Sequence[tuple[TokenSeq, TokenSeq]]) -> float:
    """Percentage of (top-1 prediction, gold) pairs that do not match exactly."""
    if not pairs:
        raise ValueError("no pairs to score")
    misses = sum(1 for pred, gold in pairs if not exact_match(pred, gold))
    return 100.0 * misses / len(pairs)


def wer100(
    nbest_pairs: Sequence[tuple[Sequence[TokenSeq], TokenSeq]],
    width: int | None = None,
) -> float:
    """Percentage of words whose gold sequence is absent from the first 100 guesses."""
    if not nbest_pairs:
        raise ValueError("no n-best lists to score")
    if width is not None and width < 100:
        warnings.warn(f"WER 100 computed from beam width {width} (< 100)", stacklevel=2)
    misses = 0
    for candidates, gold in nbest_pairs:
        if not any(exact_match(c, gold) for c in list(candidates)[:100]):
            misses += 1
    return 100.0 * misses / len(nbest_pairs)


@dataclass
class LanguageScores:
    wer: float
    wer100: float
    per: float
    per_corpus: float  # ratio-of-sums variant, also in percent
    word_count: int


@dataclass
class MacroScores:
    wer: float
    wer100: float
    per: float


@dataclass
class EvalReport:
    per_language: dict[str, LanguageScores]
    macro: MacroScores


def evaluate(
    entries: Iterable,
    decode_fn: Callable[[object], Sequence],
    width: int | None = None,
) -> EvalReport:
    """Score a test corpus with equal-per-language averaging.

    `entries` are LexiconEntry-like objects (lang + phonemes); `decode_fn`
    maps an entry to its n-best list (objects with a .phonemes attribute,
    best first). Languages unseen in training are scored like any other.
    """
    by_lang: dict[str, list] = {}
    for entry in entries:
        by_lang.setdefault(entry.lang, []).append(entry)
    if not by_lang:
        raise ValueError("empty test corpus")

    per_language: dict[str, LanguageScores] = {}
    for lang in sorted(by_lang):
        top_pairs = []
        nbest_pairs = []
        ratios = []
        edits, gold_tokens = 0, 0
        for entry in by_lang[lang]:
            nbest = decode_fn(entry)
            top = nbest[0].phonemes if nbest else ()
            top_pairs.append((top, entry.phonemes))
            nbest_pairs.append(([c.phonemes for c in nbest], entry.phonemes))
            distance = levenshtein(top, entry.phonemes)
            ratios.append(_per_of(distance, entry.phonemes))
            edits += distance
            gold_tokens += len(entry.phonemes)
        per_language[lang] = LanguageScores(
            wer=wer(top_pairs),
            wer100=wer100(nbest_pairs, width=width),
            per=100.0 * sum(ratios) / len(ratios),
            per_corpus=100.0 * edits / gold_tokens,
            word_count=len(by_lang[lang]),
        )

    langs = list(per_language.values())
    macro = MacroScores(
        wer=sum(s.wer for s in langs) / len(langs),
        wer100=sum(s.wer100 for s in langs) / len(langs),
        per=sum(s.per for s in langs) / len(langs),
    )
    return EvalReport(per_language, macro)


def write_report(fh, report: EvalReport) -> None:
    """Tab-separated per-language table plus a MACRO row, 2 decimal places."""
    fh.write("lang\twords\tWER\tWER100\tPER\n")
    for lang in sorted(report.per_language):
        s = report.per_language[lang]
        fh.write(f"{lang}\t{s.word_count}\t{s.wer:.2f}\t{s.wer100:.2f}\t{s.per:.2f}\n")
    total = sum(s.word_count for s in report.per_language.values())
    m = report.macro
    fh.write(f"MACRO\t{total}\t{m.wer:.2f}\t{m.wer100:.2f}\t{m.per:.2f}\n")


def report_as_dict(report: EvalReport) -> dict:
    return {
        "per_language": {
            lang: {
                "wer": s.wer,
                "wer100": s.wer100,
                "per": s.per,
                "per_corpus": s.per_corpus,
                "words": s.word_count,
            }
            for lang, s in report.per_language.items()
        },
        "macro": {"wer": report.macro.wer, "wer100": report.macro.wer100, "per": report.macro.per},
    }
