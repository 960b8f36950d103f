"""Synthetic lexicons and the desk-scale language-ID experiment.

Two generators: a single-language memorization corpus (random spellings with
random pronunciations) and a bilingual corpus in which both languages share
the same spellings but map every letter to a different phoneme, so the
pronunciation is ambiguous without knowing the language. The language-ID
experiment on the latter, run by criterion 3 and
`scripts/run_langid_experiment.py` through `train_bilingual_pair`, lives
here too.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .checkpoint import ModelBundle
from .corpus import (DatasetSplit, LexiconEntry, build_vocab, encode_pairs, split_train_val,
                     tokenize_graphemes)
from .decoding import NBestEntry, greedy_decode
from .metrics import score
from .model import ModelConfig, TrainingSchedule, train_model

LETTERS = tuple("abcdefgh")
PHONES_A = ("ɑ", "β", "ʃ", "ð", "ɛ", "ɸ", "ɣ", "χ")
PHONES_B = ("ɛ", "ɸ", "ɣ", "χ", "ɑ", "β", "ʃ", "ð")  # every letter maps differently


def _random_spellings(n: int, rng: np.random.Generator) -> list[str]:
    """`n` distinct spellings of 3-7 letters."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < n:
        length = int(rng.integers(3, 8))
        word = "".join(LETTERS[i] for i in rng.integers(0, len(LETTERS), length))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def rule_based_entry(word: str, lang: str, mapping: dict[str, str]) -> LexiconEntry:
    graphemes = tokenize_graphemes(word)
    return LexiconEntry(lang, graphemes, tuple(mapping[g] for g in graphemes))


def conflicting_bilingual_corpus(n_words: int = 200, seed: int = 7) -> list[LexiconEntry]:
    """Shared spellings in `aaa` and `bbb`, systematically conflicting letter rules."""
    rng = np.random.default_rng(seed)
    map_a = dict(zip(LETTERS, PHONES_A))
    map_b = dict(zip(LETTERS, PHONES_B))
    entries: list[LexiconEntry] = []
    for word in _random_spellings(n_words, rng):
        entries.append(rule_based_entry(word, "aaa", map_a))
        entries.append(rule_based_entry(word, "bbb", map_b))
    return entries


def memorization_corpus(n_words: int = 50, seed: int = 11) -> list[LexiconEntry]:
    """Random spellings paired with unrelated random pronunciations, in language `mem`."""
    rng = np.random.default_rng(seed)
    entries: list[LexiconEntry] = []
    for word in _random_spellings(n_words, rng):
        n_phones = int(rng.integers(3, 7))
        phones = tuple(PHONES_A[i] for i in rng.integers(0, len(PHONES_A), n_phones))
        entries.append(LexiconEntry("mem", tokenize_graphemes(word), phones))
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


_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread():
    """Processes started inside run their BLAS on one thread: the library
    reads these variables once, at start-up. The caller's values come back
    on exit."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARIABLES}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARIABLES, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                del os.environ[name]
            else:
                os.environ[name] = value


def train_bilingual_pair(split: DatasetSplit) -> tuple[ModelBundle, ModelBundle]:
    """`train_bilingual` with and without the `<lang>` token, as (langid,
    nolangid), trained at the same time in two worker processes. The runs
    share nothing, so each is bit-identical to training it alone.

    Workers are spawned, not forked (a fork after OpenBLAS has started its
    threads can hang), so the caller's main module must be import-safe. Each
    runs one BLAS thread: with a thread per core in each worker, the two
    workers' BLAS threads spin against each other (on 2 vCPUs the pair took
    168 s, against 27 s with one thread each)."""
    with ProcessPoolExecutor(2, mp_context=multiprocessing.get_context("spawn")) as pool:
        with _one_blas_thread():  # submit starts the workers
            runs = [pool.submit(train_bilingual, split, lang_token) for lang_token in (True, False)]
        return runs[0].result(), runs[1].result()


def held_out_wer(bundle: ModelBundle, split: DatasetSplit) -> dict[str, float]:
    """Greedy-decoding WER (%) on the held-out words, per language, scored by
    `metrics.score`."""
    sources = [bundle.source_ids("".join(e.graphemes), e.lang) for e in split.validation]
    nbests = ([NBestEntry(*greedy_decode(src, bundle.params, bundle.config, bundle.tgt_vocab))]
              for src in sources)
    report = score(split.validation, nbests)
    return {lang: scores.wer for lang, scores in report.per_language.items()}
