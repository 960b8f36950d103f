"""Greedy and beam-search decoding with n-best output.

Hypotheses are ranked by cumulative log-probability with no length
normalization. Ties are broken by earlier completion step, then
lexicographically by token ids, so n-best lists are deterministic.
PAD/BOS/UNK are never proposed; a hypothesis finishes when it emits EOS and
is finalized as-is (flagged truncated) if it reaches max_len first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BOS_ID, EOS_ID, PAD_ID, UNK_ID, Vocabulary
from .model import (
    DecoderState,
    ModelConfig,
    ModelParams,
    decode_step,
    encode,
    initial_state,
)

_BANNED = (PAD_ID, BOS_ID, UNK_ID)


@dataclass
class Hypothesis:
    """A partial or complete decode: BOS-initiated token path and its score."""

    tokens: tuple[int, ...]
    log_prob: float
    state: DecoderState | None
    finished: bool
    finish_step: int | None = None

    def phoneme_ids(self) -> tuple[int, ...]:
        ids = self.tokens[1:]
        return ids[:-1] if self.finished else ids


@dataclass(frozen=True)
class NBestEntry:
    phonemes: tuple[str, ...]
    log_prob: float
    truncated: bool = False


def default_max_len(src_len: int) -> int:
    return 2 * src_len + 10


def _state_rows(state: DecoderState, i: int) -> tuple:
    return (
        tuple((h.data[i], c.data[i]) for h, c in state.layers),
        state.attn.data[i],
    )


def _stack_states(rows: Sequence[tuple]) -> DecoderState:
    n_layers = len(rows[0][0])
    layers = [
        (Tensor(np.stack([r[0][layer][0] for r in rows])),
         Tensor(np.stack([r[0][layer][1] for r in rows])))
        for layer in range(n_layers)
    ]
    return DecoderState(layers=layers, attn=Tensor(np.stack([r[1] for r in rows])))


def _sort_key(hyp: Hypothesis, max_len: int, length_normalize: bool = False):
    completion = hyp.finish_step if hyp.finished else max_len + 1
    score = hyp.log_prob / max(len(hyp.tokens) - 1, 1) if length_normalize else hyp.log_prob
    return (-score, completion, hyp.tokens)


def beam_search(
    src_ids: Sequence[int],
    params: ModelParams,
    config: ModelConfig,
    tgt_vocab: Vocabulary,
    width: int = 100,
    max_len: int | None = None,
    length_normalize: bool = False,
) -> list[NBestEntry]:
    """N-best beam search over phoneme sequences for one source sequence.

    With `length_normalize`, pruning and ranking use log_prob per generated
    token instead of the raw sum; reported log_probs stay cumulative."""
    if not src_ids:
        raise ValueError("empty source")
    if width < 1:
        raise ValueError("beam width must be >= 1")
    if max_len is None:
        max_len = default_max_len(len(src_ids))
    if max_len < 1:
        raise ValueError("max_len must be >= 1")

    with ad.inference_mode():
        encoded = encode([src_ids], params, config)
        start_state = initial_state(encoded, config)
        beam = [Hypothesis((BOS_ID,), 0.0, _state_rows(start_state, 0), finished=False)]

        for step in range(1, max_len + 1):
            live = [h for h in beam if not h.finished]
            if not live:
                break
            finished = [h for h in beam if h.finished]

            prev = np.array([h.tokens[-1] for h in live], dtype=np.intp)
            state = _stack_states([h.state for h in live])
            # the one-row encoding serves every live hypothesis
            log_probs, new_state = decode_step(prev, state, encoded, params, config)
            scores = log_probs.data + np.array([h.log_prob for h in live])[:, None]
            scores[:, list(_BANNED)] = -np.inf

            flat = scores.ravel()
            finite = np.flatnonzero(np.isfinite(flat))
            if finite.size > width:
                # keep everything tied with the width-th best so ties break stably
                threshold = np.partition(flat[finite], -width)[-width]
                finite = finite[flat[finite] >= threshold]
            vocab_size = scores.shape[1]
            candidates = []
            for idx in finite:
                row, tok = divmod(int(idx), vocab_size)
                parent = live[row]
                if tok == EOS_ID:
                    candidates.append(Hypothesis(parent.tokens + (EOS_ID,), float(flat[idx]),
                                                 None, finished=True, finish_step=step))
                else:
                    candidates.append(Hypothesis(parent.tokens + (tok,), float(flat[idx]),
                                                 _state_rows(new_state, row), finished=False))
            pool = finished + candidates
            pool.sort(key=lambda h: _sort_key(h, max_len, length_normalize))
            beam = pool[:width]

        beam.sort(key=lambda h: _sort_key(h, max_len, length_normalize))

    entries: list[NBestEntry] = []
    seen: set[tuple[str, ...]] = set()
    for hyp in beam:
        phonemes = tuple(tgt_vocab.decode(hyp.phoneme_ids()))
        if phonemes in seen:
            continue
        seen.add(phonemes)
        entries.append(NBestEntry(phonemes, hyp.log_prob, truncated=not hyp.finished))
    return entries


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

    with ad.inference_mode():
        encoded = encode([src_ids], params, config)
        state = initial_state(encoded, config)
        prev = np.array([BOS_ID], dtype=np.intp)
        ids: list[int] = []
        total = 0.0
        for _ in range(max_len):
            log_probs, state = decode_step(prev, state, encoded, params, config)
            row = log_probs.data[0].copy()
            row[list(_BANNED)] = -np.inf
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
            total += float(log_probs.data[0, gold])
            prev = gold
    return total


def write_nbest(fh, word: str, entries: Sequence[NBestEntry]) -> None:
    """`word<TAB>rank<TAB>log_prob<TAB>phonemes` lines, best first."""
    for rank, entry in enumerate(entries, start=1):
        fh.write(f"{word}\t{rank}\t{entry.log_prob:.6f}\t{' '.join(entry.phonemes)}\n")
