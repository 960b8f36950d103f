"""Greedy and beam-search decoding with n-best output.

Hypotheses are ranked by cumulative log-probability with no length
normalization, the paper's one ranking rule. Ties are broken by earlier
completion step, then lexicographically by token ids, so n-best lists are
deterministic.
PAD/BOS/UNK are never proposed; a hypothesis finishes when it emits EOS and
is finalized as-is (flagged truncated) if it reaches max_len first.

`beam_search` holds the beam as arrays: token paths [rows, max_len+1],
cumulative float64 scores, and each row's completion step (max_len+1 while
live). The decoder state of the live rows is one `DecoderState` in beam
order: h and c [layers, live, h] and the attentional vector [live, h]. Each
step runs one `decode_step` over the live rows (the per-step kernel that
training runs too), keeps every candidate tied with the width-th best score,
and ranks the finished rows and the candidates with one `np.lexsort` on the
ranking contract; the next state is the new state's rows at the survivors'
parents, one fancy index per array. `greedy_decode` is a separate argmax
loop, the independent width-1 reference that tests compare `beam_search`
against. `decode_step` records no tape entries; the decoders and
`score_sequence` run `encode` under `ad.inference_mode`, so inference builds
no graph at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Vocabulary
from .model import (
    DecoderState,
    ModelConfig,
    ModelParams,
    decode_step,
    encode,
    initial_state,
)

_BANNED = np.array([PAD_ID, BOS_ID, UNK_ID], dtype=np.intp)


@dataclass(frozen=True)
class NBestEntry:
    phonemes: tuple[str, ...]
    log_prob: float
    truncated: bool = False


def default_max_len(src_len: int) -> int:
    return 2 * src_len + 10


def beam_search(
    src_ids: Sequence[int],
    params: ModelParams,
    config: ModelConfig,
    tgt_vocab: Vocabulary,
    width: int = 100,
    max_len: int | None = None,
) -> list[NBestEntry]:
    """N-best beam search over phoneme sequences for one source sequence."""
    if not src_ids:
        raise ValueError("empty source")
    if width < 1:
        raise ValueError("beam width must be >= 1")
    if max_len is None:
        max_len = default_max_len(len(src_ids))
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    live_done = max_len + 1  # completion step of a hypothesis that has not emitted EOS

    with ad.inference_mode():
        encoded = encode([src_ids], params, config)
        state = initial_state(encoded, config)  # one row per live hypothesis, in beam order
        paths = np.full((1, max_len + 1), PAD_ID, dtype=np.intp)
        paths[0, 0] = BOS_ID
        scores = np.zeros(1)
        done = np.full(1, live_done, dtype=np.intp)

        for step in range(1, max_len + 1):
            live = np.flatnonzero(done == live_done)
            if live.size == 0:
                break
            finished = np.flatnonzero(done != live_done)

            # the one-row encoding serves every live hypothesis
            log_probs, new_state = decode_step(paths[live, step - 1], state, encoded,
                                               params, config)
            cand = log_probs + scores[live, None]
            cand[:, _BANNED] = -np.inf

            flat = cand.ravel()
            kept = np.flatnonzero(np.isfinite(flat))
            if kept.size > width:
                # keep everything tied with the width-th best so ties break stably
                threshold = np.partition(flat[kept], -width)[-width]
                kept = kept[flat[kept] >= threshold]
            parent, token = np.divmod(kept, cand.shape[1])

            # the pool: hypotheses finished earlier, then this step's candidates
            new_paths = paths[live[parent]]
            new_paths[:, step] = token
            pool_paths = np.concatenate([paths[finished], new_paths])
            pool_scores = np.concatenate([scores[finished], flat[kept]])
            pool_done = np.concatenate(
                [done[finished], np.where(token == EOS_ID, step, live_done)])

            # ranking contract: score, then completion step, then token ids; paths of
            # equal completion step have equal length, so columns 1..step decide
            order = np.lexsort((*pool_paths[:, step:0:-1].T, pool_done, -pool_scores))[:width]
            paths, scores, done = pool_paths[order], pool_scores[order], pool_done[order]
            # live survivors are all candidates, which follow the finished rows in the pool
            rows = parent[order[done == live_done] - finished.size]
            state = DecoderState(new_state.h[:, rows], new_state.c[:, rows], new_state.attn[rows])

    return [
        NBestEntry(tuple(tgt_vocab.decode(row[1:end].tolist())), float(score),
                   truncated=end == live_done)
        for row, score, end in zip(paths, scores, done.tolist())
    ]


def greedy_decode(
    src_ids: Sequence[int],
    params: ModelParams,
    config: ModelConfig,
    tgt_vocab: Vocabulary,
    max_len: int | None = None,
) -> tuple[tuple[str, ...], float]:
    """Argmax decoding until EOS or max_len; equals beam_search with width 1."""
    if not src_ids:
        raise ValueError("empty source")
    if max_len is None:
        max_len = default_max_len(len(src_ids))
    if max_len < 1:
        raise ValueError("max_len must be >= 1")

    with ad.inference_mode():
        encoded = encode([src_ids], params, config)
        state = initial_state(encoded, config)
        prev = np.array([BOS_ID], dtype=np.intp)
        ids: list[int] = []
        total = 0.0
        for _ in range(max_len):
            log_probs, state = decode_step(prev, state, encoded, params, config)
            row = log_probs[0]
            row[_BANNED] = -np.inf
            tok = int(row.argmax())
            total += float(row[tok])
            if tok == EOS_ID:
                break
            ids.append(tok)
            prev = np.array([tok], dtype=np.intp)
    return tuple(tgt_vocab.decode(ids)), total


def score_sequence(
    src_ids: Sequence[int],
    phoneme_ids: Sequence[int],
    params: ModelParams,
    config: ModelConfig,
    include_eos: bool = True,
) -> float:
    """Teacher-forced log-probability of a phoneme id sequence given a source."""
    golds = list(phoneme_ids) + ([EOS_ID] if include_eos else [])
    if not golds:
        raise ValueError("nothing to score")
    with ad.inference_mode():
        encoded = encode([src_ids], params, config)
        state = initial_state(encoded, config)
        prev = BOS_ID
        total = 0.0
        for gold in golds:
            log_probs, state = decode_step(np.array([prev], dtype=np.intp), state, encoded,
                                           params, config)
            total += float(log_probs[0, gold])
            prev = gold
    return total


def write_nbest(fh, word: str, entries: Sequence[NBestEntry]) -> None:
    """`word<TAB>rank<TAB>log_prob<TAB>phonemes` lines, best first."""
    for rank, entry in enumerate(entries, start=1):
        fh.write(f"{word}\t{rank}\t{entry.log_prob:.6f}\t{' '.join(entry.phonemes)}\n")
