"""Synthetic lexicons and the desk-scale language-ID experiment.

Two generators: a single-language memorization corpus (random spellings with
random pronunciations) and a bilingual corpus in which both languages share
the same spellings but map every letter to a different phoneme, so the
pronunciation is ambiguous without knowing the language. The language-ID
experiment on the latter, run by criterion 3 and
`scripts/run_langid_experiment.py`, lives here too.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import ModelBundle
from .corpus import (DatasetSplit, LexiconEntry, build_vocab, encode_pairs, split_train_val,
                     tokenize_graphemes)
from .decoding import greedy_decode
from .model import ModelConfig, TrainingSchedule, train_model

LETTERS = tuple("abcdefgh")
PHONES_A = ("ɑ", "β", "ʃ", "ð", "ɛ", "ɸ", "ɣ", "χ")
PHONES_B = ("ɛ", "ɸ", "ɣ", "χ", "ɑ", "β", "ʃ", "ð")  # every letter maps differently


def _random_spellings(n: int, rng: np.random.Generator,
                      min_len: int = 3, max_len: int = 7) -> list[str]:
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        length = int(rng.integers(min_len, max_len + 1))
        word = "".join(LETTERS[i] for i in rng.integers(0, len(LETTERS), length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def rule_based_entry(word: str, lang: str, mapping: dict[str, str]) -> LexiconEntry:
    graphemes = tokenize_graphemes(word, lang, use_lang_token=False)
    return LexiconEntry(lang, graphemes, tuple(mapping[g] for g in graphemes))


def conflicting_bilingual_corpus(
    n_words: int = 200,
    seed: int = 7,
    langs: tuple[str, str] = ("aaa", "bbb"),
) -> list[LexiconEntry]:
    """Shared spellings, two languages, systematically conflicting letter rules."""
    rng = np.random.default_rng(seed)
    map_a = dict(zip(LETTERS, PHONES_A))
    map_b = dict(zip(LETTERS, PHONES_B))
    entries: list[LexiconEntry] = []
    for word in _random_spellings(n_words, rng):
        entries.append(rule_based_entry(word, langs[0], map_a))
        entries.append(rule_based_entry(word, langs[1], map_b))
    return entries


def memorization_corpus(n_words: int = 50, seed: int = 11, lang: str = "mem") -> list[LexiconEntry]:
    """Random spellings paired with unrelated random pronunciations."""
    rng = np.random.default_rng(seed)
    entries: list[LexiconEntry] = []
    for word in _random_spellings(n_words, rng):
        n_phones = int(rng.integers(3, 7))
        phones = tuple(PHONES_A[i] for i in rng.integers(0, len(PHONES_A), n_phones))
        entries.append(LexiconEntry(lang, tokenize_graphemes(word, lang, False), phones))
    return entries


def bilingual_split() -> DatasetSplit:
    """The language-ID experiment's data: 200 shared spellings in two languages,
    10% of the entries held out."""
    return split_train_val(conflicting_bilingual_corpus(200, seed=7), val_fraction=0.1, seed=5)


def train_bilingual(split: DatasetSplit, lang_token: bool) -> ModelBundle:
    """Train the experiment's model, with or without the `<lang>` source token:
    h=64, no dropout, 150 epochs of batch-8 SGD at lr 1.0, clip 5, seed 29,
    no validation set."""
    src_vocab = build_vocab(split.train, "source", lang_tokens=lang_token)
    tgt_vocab = build_vocab(split.train, "target")
    pairs = encode_pairs(split.train, src_vocab, tgt_vocab, lang_token)
    config = ModelConfig(len(src_vocab), len(tgt_vocab), hidden_size=64, src_embed=64,
                         tgt_embed=64, dropout=0.0)
    schedule = TrainingSchedule(epochs=150, batch_size=8, lr=1.0, clip=5.0, seed=29)
    result = train_model(pairs, [], config, schedule)
    return ModelBundle(result.params, config, src_vocab, tgt_vocab, {"lang_token": lang_token})


def held_out_wer(bundle: ModelBundle, split: DatasetSplit) -> dict[str, float]:
    """Greedy-decoding WER (%) on the held-out words, per language."""
    use_lang = bundle.meta["lang_token"]
    scores = {}
    for lang in sorted({e.lang for e in split.validation}):
        held_out = [e for e in split.validation if e.lang == lang]
        wrong = 0
        for entry in held_out:
            src = bundle.src_vocab.encode(entry.source_tokens(use_lang))
            tokens, _ = greedy_decode(src, bundle.params, bundle.config, bundle.tgt_vocab)
            wrong += tokens != entry.phonemes
        scores[lang] = 100.0 * wrong / len(held_out)
    return scores
