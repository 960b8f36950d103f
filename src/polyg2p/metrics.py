"""Edit-distance evaluation: PER, WER, and WER over the 100-best list.

Per-language scores are macro-averaged with equal weight per language.
All three metrics compare phoneme tokens under one rule: each token is
NFC-normalized (Unicode Standard Annex #15), so a gold transcription and a
prediction that differ only in how a symbol is composed score as equal.
`score` is the one scoring loop, and every WER, WER 100 and PER number comes
out of it: it takes the entries and their n-best lists, one list at a time,
normalizes each word's gold and n-best tokens once and takes WER, WER 100
(the rank-100 cut-off is decided there) and both PERs from those. `evaluate`
is its wrapper for a per-entry decode function. PER is averaged per word,
then per language (mean of ratios); a corpus-level ratio-of-sums variant is
also provided.
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


def _nfc(tokens: TokenSeq) -> tuple[str, ...]:
    return tuple(unicodedata.normalize("NFC", t) for t in tokens)


def _warn_if_narrow(width: int | None) -> None:
    """Warn that a beam narrower than 100 cannot hold the 100 guesses WER 100
    counts. The warning names the caller of the public function that calls
    this one, so `evaluate` warns itself and passes `score` no width."""
    if width is not None and width < 100:
        warnings.warn(f"WER 100 computed from beam width {width} (< 100)", stacklevel=3)


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


def score(
    entries: Sequence,
    nbests: Iterable[Sequence],
    width: int | None = None,
) -> EvalReport:
    """Score a test corpus with equal-per-language averaging.

    `entries` are LexiconEntry-like objects (lang + phonemes); `nbests` gives
    each entry's n-best list in the same order (objects with a .phonemes
    attribute, best first). It is read one list at a time, so it may be an
    iterator that decodes as it goes; a count that differs from the entries'
    raises ValueError, as does an empty gold sequence. Each word's gold and
    n-best tokens are NFC-normalized once, and all the scores are taken from
    those. Languages unseen in training are scored like any other.
    """
    if not entries:
        raise ValueError("empty test corpus")

    _warn_if_narrow(width)

    # per language, in input order: (miss, WER 100 miss, edits, gold tokens, PER) per word
    tallies: dict[str, list[tuple[bool, bool, int, int, float]]] = {}
    for entry, nbest in zip(entries, nbests, strict=True):
        gold = _nfc(entry.phonemes)
        if not gold:
            raise ValueError("empty gold sequence")
        guesses = [c.phonemes for c in nbest]
        top = _nfc(guesses[0]) if guesses else ()
        miss = top != gold
        # a WER 100 miss: none of the first 100 guesses is the gold; ranks
        # 2-100 are normalized only until one matches
        miss100 = miss and all(_nfc(g) != gold for g in guesses[1:100])
        distance = levenshtein(top, gold)
        tallies.setdefault(entry.lang, []).append(
            (miss, miss100, distance, len(gold), distance / len(gold)))

    per_language: dict[str, LanguageScores] = {}
    for lang in sorted(tallies):
        misses, misses100, edits, gold_tokens, ratios = zip(*tallies[lang])
        words = len(ratios)
        per_language[lang] = LanguageScores(
            wer=100.0 * sum(misses) / words,
            wer100=100.0 * sum(misses100) / words,
            per=100.0 * sum(ratios) / words,
            per_corpus=100.0 * sum(edits) / sum(gold_tokens),
            word_count=words,
        )

    langs = list(per_language.values())
    macro = MacroScores(
        wer=sum(s.wer for s in langs) / len(langs),
        wer100=sum(s.wer100 for s in langs) / len(langs),
        per=sum(s.per for s in langs) / len(langs),
    )
    return EvalReport(per_language, macro)


def evaluate(
    entries: Iterable,
    decode_fn: Callable[[object], Sequence],
    width: int | None = None,
) -> EvalReport:
    """`score` over `entries` and `decode_fn(entry)` for each, in input order."""
    entries = list(entries)
    _warn_if_narrow(width)
    return score(entries, map(decode_fn, entries))


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
