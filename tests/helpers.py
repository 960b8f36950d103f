"""Shared test oracles: finite differences, scalar LSTM math, a per-hypothesis
beam search, recursive edit distance; and a checkpoint meta editor."""

from __future__ import annotations

import json
import math
import struct

import numpy as np

from polyg2p import autodiff as ad
from polyg2p.corpus import BOS_ID, EOS_ID, PAD_ID, RESERVED, UNK_ID, Vocabulary
from polyg2p.decoding import NBestEntry
from polyg2p.model import (
    ModelConfig,
    decode_step,
    encode,
    init_params,
    initial_state,
)


def rel_err(a: np.ndarray, b: np.ndarray, guard: float = 1e-5) -> float:
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), guard)
    return float((np.abs(a - b) / denom).max())


def finite_difference(loss_fn, tensor, eps: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar loss w.r.t. one tensor's entries."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = loss_fn()
        flat[i] = orig - eps
        lo = loss_fn()
        flat[i] = orig
        grad_flat[i] = (hi - lo) / (2.0 * eps)
    return grad


def weighted_sum(*terms):
    """Scalar loss: the sum over (x, w) terms of sum(x * w), for constant
    weights w, recorded on the active tape. The gradient it sends to each x
    is its w."""
    tensors = [x for x, _ in terms]
    weights = [np.broadcast_to(np.asarray(w, dtype=x.data.dtype), x.data.shape)
               for x, w in terms]
    total = sum((x.data * w).sum() for x, w in zip(tensors, weights))

    def backward(g):
        for x, w in zip(tensors, weights):
            ad._accumulate(x, g * w)

    return ad._record(backward, np.asarray(total, dtype=tensors[0].data.dtype))[0]


def _sig(x: float) -> float:
    return 1.0 / (1.0 + math.exp(-x))


def scalar_cell_step(x, h, c, w_in, w_rec, bias):
    """LSTM step in plain python floats, gates ordered i,f,g,o; weights are
    nested lists in the canonical [4h x in] and [4h x h] layout."""
    hidden = len(h)
    pre = []
    for r in range(4 * hidden):
        total = bias[r]
        for k in range(len(x)):
            total += w_in[r][k] * x[k]
        for k in range(hidden):
            total += w_rec[r][k] * h[k]
        pre.append(total)
    i = [_sig(pre[r]) for r in range(hidden)]
    f = [_sig(pre[hidden + r]) for r in range(hidden)]
    g = [math.tanh(pre[2 * hidden + r]) for r in range(hidden)]
    o = [_sig(pre[3 * hidden + r]) for r in range(hidden)]
    c_new = [f[r] * c[r] + i[r] * g[r] for r in range(hidden)]
    h_new = [o[r] * math.tanh(c_new[r]) for r in range(hidden)]
    return h_new, c_new


def _matvec(m, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in m]


class OracleModel:
    """Independent plain-python forward pass of the whole architecture.

    Reads parameter buffers into nested lists and recomputes encoder
    annotations, attention, and per-step output distributions with explicit
    loops, for cross-checking the vectorized implementation. Weight matrices
    are read in the canonical [out x in] layout, the transpose of the
    [in x out] arrays the model multiplies by.
    """

    def __init__(self, params, config):
        self.config = config
        as_list = lambda name: params[name].data.tolist()
        canonical = lambda name: params[name].data.T.tolist()

        def cell(prefix):
            return (canonical(f"{prefix}.input_weights"),
                    canonical(f"{prefix}.recurrent_weights"), as_list(f"{prefix}.bias"))

        self.src_emb = as_list("src_embedding")
        self.tgt_emb = as_list("tgt_embedding")
        self.encoder = [{d: cell(f"encoder.l{i}.{d}") for d in ("fwd", "bwd")}
                        for i in range(config.enc_layers)]
        self.decoder = [cell(f"decoder.l{i}") for i in range(config.dec_layers)]
        self.w_score = as_list("attention.score_weights")
        self.w_out = canonical("attention.output_weights")
        self.b_out = as_list("attention.output_bias")
        self.w_gen = canonical("generator.weights")
        self.b_gen = as_list("generator.bias")

    def encode(self, src_ids):
        half = self.config.hidden_size // 2
        inputs = [list(self.src_emb[i]) for i in src_ids]
        finals = []
        for layer in self.encoder:
            states = {}
            for direction, order in (("fwd", range(len(inputs))),
                                     ("bwd", range(len(inputs) - 1, -1, -1))):
                w_in, w_rec, bias = layer[direction]
                h, c = [0.0] * half, [0.0] * half
                out = [None] * len(inputs)
                for t in order:
                    h, c = scalar_cell_step(inputs[t], h, c, w_in, w_rec, bias)
                    out[t] = h
                states[direction] = (out, h, c)
            inputs = [states["fwd"][0][t] + states["bwd"][0][t] for t in range(len(inputs))]
            finals.append((states["fwd"][1] + states["bwd"][1],
                           states["fwd"][2] + states["bwd"][2]))
        return inputs, finals  # annotations per position, per-layer (h0, c0)

    def attend(self, top, annotations):
        query = _matvec(list(map(list, zip(*self.w_score))), top)  # top @ W  ==  W^T applied
        scores = [sum(q * a for q, a in zip(query, ann)) for ann in annotations]
        peak = max(scores)
        exps = [math.exp(s - peak) for s in scores]
        total = sum(exps)
        weights = [e / total for e in exps]
        h = len(top)
        context = [sum(weights[s] * annotations[s][k] for s in range(len(annotations)))
                   for k in range(h)]
        return context, weights

    def log_probs(self, src_ids, prev_tokens):
        """Distribution after teacher-forcing `prev_tokens` (BOS first)."""
        annotations, finals = self.encode(src_ids)
        layer_states = [([x for x in h0], [x for x in c0]) for h0, c0 in finals]
        attn_prev = [0.0] * self.config.hidden_size
        out = None
        for token in prev_tokens:
            x = list(self.tgt_emb[token])
            if self.config.input_feeding:
                x = x + attn_prev
            for idx, (w_in, w_rec, bias) in enumerate(self.decoder):
                h, c = scalar_cell_step(x, *layer_states[idx], w_in, w_rec, bias)
                layer_states[idx] = (h, c)
                x = h
            context, _ = self.attend(x, annotations)
            combined = context + x
            pre = [sum(self.w_out[r][k] * combined[k] for k in range(len(combined))) + self.b_out[r]
                   for r in range(len(self.b_out))]
            attn_prev = [math.tanh(v) for v in pre]
            logits = [sum(self.w_gen[r][k] * attn_prev[k] for k in range(len(attn_prev)))
                      + self.b_gen[r] for r in range(len(self.b_gen))]
            peak = max(logits)
            lse = peak + math.log(sum(math.exp(v - peak) for v in logits))
            out = [v - lse for v in logits]
        return out


def reference_beam(src, params, config, vocab, width, max_len):
    """Plain per-hypothesis beam search, the pruning reference for `beam_search`.

    Each live hypothesis advances its own one-row decoder state. Candidates
    tied with the width-th best score are kept; the earlier-finished
    hypotheses and the candidates are sorted on the ranking contract key
    (score, completion step, token ids) and cut to `width`."""

    def key(hyp):
        tokens, score, _, finish = hyp
        return (-score, finish or max_len + 1, tokens)

    with ad.inference_mode():
        encoded = encode([src], params, config)
        beam = [((BOS_ID,), 0.0, initial_state(encoded, config), None)]
        for step in range(1, max_len + 1):
            live = [hyp for hyp in beam if hyp[3] is None]
            if not live:
                break
            candidates = []
            for tokens, score, state, _ in live:
                log_probs, new_state = decode_step([tokens[-1]], state, encoded, params, config)
                for tok, lp in enumerate(log_probs[0].tolist()):
                    if tok in (PAD_ID, BOS_ID, UNK_ID) or not math.isfinite(lp):
                        continue
                    finish = step if tok == EOS_ID else None
                    candidates.append((tokens + (tok,), score + lp, new_state, finish))
            if len(candidates) > width:
                threshold = sorted(c[1] for c in candidates)[-width]
                candidates = [c for c in candidates if c[1] >= threshold]
            finished = [hyp for hyp in beam if hyp[3] is not None]
            beam = sorted(finished + candidates, key=key)[:width]
    return [NBestEntry(tuple(vocab.decode(tokens[1:-1] if finish else tokens[1:])), score,
                       truncated=finish is None)
            for tokens, score, _, finish in beam]


def recursive_levenshtein(a, b) -> int:
    """Plain recursion over token lists; exponential, for short sequences only."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    if a[0] == b[0]:
        return recursive_levenshtein(a[1:], b[1:])
    return 1 + min(
        recursive_levenshtein(a[1:], b),
        recursive_levenshtein(a, b[1:]),
        recursive_levenshtein(a[1:], b[1:]),
    )


def tiny_model(
    seed: int = 0,
    src_vocab: int = 10,
    tgt_vocab: int = 9,
    hidden: int = 8,
    src_embed: int = 6,
    tgt_embed: int = 5,
    dropout: float = 0.0,
    dtype=np.float32,
    **kwargs,
):
    config = ModelConfig(
        src_vocab_size=src_vocab,
        tgt_vocab_size=tgt_vocab,
        hidden_size=hidden,
        src_embed=src_embed,
        tgt_embed=tgt_embed,
        dropout=dropout,
        **kwargs,
    )
    return config, init_params(config, seed=seed, dtype=dtype)


def in_x_out_shapes(config) -> dict[str, tuple[int, int]]:
    """The in-memory [in x out] shape of every weight matrix that multiplies
    activations; checkpoints hold each one as [out x in]."""
    h, half = config.hidden_size, config.hidden_size // 2
    shapes = {}
    for layer in range(config.enc_layers):
        in_size = config.src_embed if layer == 0 else h
        for direction in ("fwd", "bwd"):
            shapes[f"encoder.l{layer}.{direction}.input_weights"] = (in_size, 4 * half)
            shapes[f"encoder.l{layer}.{direction}.recurrent_weights"] = (half, 4 * half)
    for layer in range(config.dec_layers):
        in_size = h if layer else config.tgt_embed + (h if config.input_feeding else 0)
        shapes[f"decoder.l{layer}.input_weights"] = (in_size, 4 * h)
        shapes[f"decoder.l{layer}.recurrent_weights"] = (h, 4 * h)
    shapes["attention.output_weights"] = (2 * h, h)
    shapes["generator.weights"] = (h, config.tgt_vocab_size)
    return shapes


def assert_in_x_out(params, config) -> None:
    """Every weight matrix in `in_x_out_shapes` is C-contiguous [in x out]."""
    for name, shape in in_x_out_shapes(config).items():
        assert params[name].data.shape == shape, name
        assert params[name].data.flags.c_contiguous, name


def toy_tgt_vocab(n_phonemes: int) -> Vocabulary:
    return Vocabulary(RESERVED + tuple(f"p{i}" for i in range(1, n_phonemes + 1)))


def rewrite_meta(path, edit):
    """Apply `edit` to the JSON meta block that ends a checkpoint file."""
    raw = path.read_bytes()
    start = next(p for p in range(len(raw) - 2, 8, -1)
                 if struct.unpack("<Q", raw[p - 8 : p])[0] == len(raw) - p)
    meta = json.loads(raw[start:])
    edit(meta)
    new = json.dumps(meta).encode()
    path.write_bytes(raw[: start - 8] + struct.pack("<Q", len(new)) + new)
