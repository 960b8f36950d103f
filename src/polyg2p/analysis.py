"""Embedding introspection and cross-language pronunciation probes.

Neighbor lists use cosine similarity over the input embedding tables only:
the source table for language-ID tokens, the target table for phonemes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .checkpoint import ModelBundle
from .corpus import RESERVED, is_lang_token, lang_token
from .decoding import beam_search


@dataclass
class NeighborList:
    query: str
    neighbors: list[tuple[str, float]]  # (token, cosine similarity), best first


def _cosine_to_row(table: np.ndarray, row: int) -> np.ndarray:
    norms = np.linalg.norm(table, axis=1)
    norms[norms == 0] = 1.0
    return (table @ table[row]) / (norms * norms[row])


def _nearest(table: np.ndarray, tokens: tuple[str, ...], query: str, k: int,
             candidates: set[str]) -> NeighborList:
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    row = tokens.index(query)
    if not np.any(table[row]):
        raise ValueError(f"{query!r} has a zero embedding")
    sims = _cosine_to_row(table, row)
    ranked = sorted(
        ((tokens[i], float(sims[i])) for i in range(len(tokens))
         if tokens[i] != query and tokens[i] in candidates),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return NeighborList(query, ranked[:k])


def nearest_phonemes(symbol: str, k: int, bundle: ModelBundle) -> NeighborList:
    """Top-k phonemes by target-embedding cosine similarity to `symbol`."""
    vocab = bundle.tgt_vocab
    if symbol not in vocab:
        raise KeyError(f"unknown phoneme {symbol!r}")
    candidates = {t for t in vocab.tokens if t not in RESERVED}
    return _nearest(bundle.params["tgt_embedding"].data, vocab.tokens, symbol, k, candidates)


def nearest_languages(lang: str, k: int, bundle: ModelBundle) -> NeighborList:
    """Top-k languages by source-embedding cosine similarity of their ID tokens."""
    vocab = bundle.src_vocab
    token = lang_token(lang)
    if token not in vocab:
        raise KeyError(f"unknown language token {token!r}")
    candidates = {t for t in vocab.tokens if is_lang_token(t)}
    return _nearest(bundle.params["src_embedding"].data, vocab.tokens, token, k, candidates)


def translate_as(word: str, langs: list[str], bundle: ModelBundle,
                 width: int = 10) -> dict[str, tuple[str, ...]]:
    """Pronounce one spelling under several language-ID tokens (top-1 each)."""
    if not bundle.uses_lang_token:
        raise ValueError("cross-token translation needs a model trained with language "
                         "tokens; this one was trained without them")
    results: dict[str, tuple[str, ...]] = {}
    for lang in langs:
        nbest = beam_search(bundle.source_ids(word, lang), bundle.params, bundle.config,
                            bundle.tgt_vocab, width=width)
        results[lang] = nbest[0].phonemes if nbest else ()
    return results
