"""Reverse-mode automatic differentiation over dense numpy buffers.

Ops compute eagerly and, when a Tape is active on the current thread, append
an entry with their backward rule. Without an active tape (or inside
`inference_mode`), ops are plain numpy math with no graph overhead.

Weight matrices are stored [in x out], C-contiguous, so every product with
a weight is `x @ w` with an untransposed right operand, the orientation BLAS
runs fastest. Backward passes keep that: an input gradient is
`(w @ g.T).T` (the transposed operand is the small gradient, not the
weight) and a weight gradient is `x.T @ g`, already [in x out].

The model's recurrent and attention math are fused ops with hand-written
backward rules, so a training batch records a few tape entries per timestep
rather than one per elementwise operation:

- `lstm_sequence` runs one LSTM direction over a padded batch. The input
  projection of every timestep is one GEMM; padded rows keep their state;
  the only matrix product left in the backward loop over time is
  `(w_rec @ dpre_t.T).T`, and each weight gradient is one GEMM over the
  stacked gate gradients.
- `lstm_step` is one LSTM cell update (the decoder, which input feeding keeps
  step by step).
- `attention` is bilinear scoring, masked softmax and context for n queries
  over a source batch of n rows, or of one row shared by all n.

The tape holds one entry per op call: the call's output tensors and one
backward function taking a gradient per output. `Tape.backward` calls it once
some output has a gradient, passing zeros for any output that has none (say a
final cell state nothing reads). Every op records through `_record`, so
`inference_mode` treats fused ops like any other.
`log_softmax` is a plain array function, not an op: the loss and inference
decoding share it. `model.train_model` owns the non-finite check.

A Tape is single-threaded; distinct tapes over shared read-only parameters
may run on different threads. Training is float32 by default; building
parameters as float64 propagates through every op for gradient checking.
"""

from __future__ import annotations

import functools
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

_local = threading.local()


def _tape_stack() -> list:
    stack = getattr(_local, "tapes", None)
    if stack is None:
        stack = _local.tapes = []
    return stack


def active_tape():
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A dense array and, once a backward pass reaches it, its gradient."""

    __slots__ = ("data", "grad", "name")

    def __init__(self, data, name: str | None = None):
        self.data = np.asarray(data)
        self.grad: np.ndarray | None = None
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"Tensor{label}(shape={self.data.shape}, dtype={self.data.dtype})"


class Tape:
    """Append-only record of op calls, each (outputs, backward); backward
    walks it in reverse."""

    def __init__(self):
        self.nodes: list[tuple[tuple[Tensor, ...], Callable]] = []

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _tape_stack().pop()
        assert popped is self

    def backward(self, loss: Tensor) -> None:
        """Accumulate gradients of `loss` into every tensor that feeds it."""
        if loss.data.shape != ():
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones_like(loss.data)
        for outputs, backward in reversed(self.nodes):
            grads = [t.grad for t in outputs]
            if any(g is not None for g in grads):
                backward(*(np.zeros_like(t.data) if g is None else g
                           for t, g in zip(outputs, grads)))


class inference_mode:
    """Context that disables graph recording on the current thread."""

    def __enter__(self):
        _tape_stack().append(None)
        return self

    def __exit__(self, *exc):
        _tape_stack().pop()


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    # the first gradient is a private copy: g may be a view of another buffer
    if t.grad is None:
        t.grad = g.astype(t.data.dtype)
    else:
        t.grad += g


def _record(backward: Callable, *outputs: np.ndarray) -> tuple[Tensor, ...]:
    """Wrap an op call's output arrays as tensors and, under an active tape,
    record the call: `backward` takes one gradient per output."""
    tensors = tuple(Tensor(data) for data in outputs)
    tape = active_tape()
    if tape is not None:
        tape.nodes.append((tensors, backward))
    return tensors


# --- elementwise -------------------------------------------------------------


def mul_const(x: Tensor, c) -> Tensor:
    """Multiply by a non-differentiable constant (broadcasting allowed)."""
    c = np.asarray(c, dtype=x.data.dtype)

    def backward(g):
        _accumulate(x, g * c)

    return _record(backward, x.data * c)[0]


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def backward(g):
        _accumulate(x, g * (1.0 - t * t))

    return _record(backward, t)[0]


# --- linear algebra ----------------------------------------------------------


def linear(x: Tensor, w: Tensor, bias: Tensor | None = None) -> Tensor:
    """x @ w (+ bias): x is [B x in], w is stored [in x out], bias [out]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ValueError(f"linear shape mismatch: {x.data.shape} x {w.data.shape}")
    out = x.data @ w.data
    if bias is not None:
        out = out + bias.data

    def backward(g):
        _accumulate(x, (w.data @ g.T).T)
        _accumulate(w, x.data.T @ g)
        if bias is not None:
            _accumulate(bias, g.sum(axis=0))

    return _record(backward, out)[0]


# --- shape manipulation ------------------------------------------------------


def concat(parts: Sequence[Tensor], axis: int = -1) -> Tensor:
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            index = [slice(None)] * g.ndim
            index[axis] = slice(lo, hi)
            _accumulate(p, g[tuple(index)])

    return _record(backward, np.concatenate([p.data for p in parts], axis=axis))[0]


# --- normalizations ----------------------------------------------------------


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis of a plain array; records nothing."""
    z = x - x.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    return z - lse


# --- recurrent cells and attention -------------------------------------------
#
# Gates are ordered i,f,g,o along the 4n axis. Sigmoid is 0.5*(tanh(x/2)+1),
# which is overflow-free for large |x|; all four activations are one tanh call
# over pre*scale, followed by *scale + offset (scale 0.5 on sigmoid gates, 1 on
# the candidate g).


@functools.cache
def _gate_constants(n: int, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """(scale, offset) over the 4n gate axis, built once per (n, dtype) and
    read-only, since every cell update of that size shares them."""
    scale = np.full(4 * n, 0.5, dtype=dtype)
    scale[2 * n : 3 * n] = 1.0
    offset = 1.0 - scale
    scale.flags.writeable = offset.flags.writeable = False
    return scale, offset


def _cell(acts: np.ndarray, c: np.ndarray, c_new: np.ndarray, tanh_c: np.ndarray,
          h_new: np.ndarray) -> None:
    """One LSTM update from cell state c [B,n] and `acts` [B,4n], which holds
    the pre-activations and is overwritten with the gate activations; writes
    c', tanh(c') and h' into the given buffers."""
    n = c.shape[1]
    scale, offset = _gate_constants(n, acts.dtype)
    acts *= scale
    np.tanh(acts, out=acts)
    acts *= scale
    acts += offset
    np.multiply(acts[:, n : 2 * n], c, out=c_new)
    c_new += acts[:, :n] * acts[:, 2 * n : 3 * n]
    np.tanh(c_new, out=tanh_c)
    np.multiply(acts[:, 3 * n :], tanh_c, out=h_new)


def _cell_partials(acts: np.ndarray, c_prev: np.ndarray, tanh_c: np.ndarray):
    """Backward factors of `_cell` for any leading shape: with dc' already
    including dh' * c_factor, dpre = [dc', dc', dc', dh'] * gate_factor and
    dc = dc' * f."""
    n = tanh_c.shape[-1]
    i, g, o = acts[..., :n], acts[..., 2 * n : 3 * n], acts[..., 3 * n :]
    dact = acts * (1.0 - acts)
    dact[..., 2 * n : 3 * n] = 1.0 - g * g
    gate_factor = np.concatenate([g, c_prev, i, tanh_c], axis=-1)
    gate_factor *= dact
    return gate_factor, o * (1.0 - tanh_c * tanh_c)


def _check_cell(x_shape, w_in: Tensor, w_rec: Tensor, bias: Tensor) -> int:
    n = w_rec.data.shape[0]
    if (w_rec.data.shape != (n, 4 * n) or w_in.data.shape != (x_shape[-1], 4 * n)
            or bias.data.shape != (4 * n,)):
        raise ValueError(f"LSTM shape mismatch: input {x_shape}, weights {w_in.data.shape} "
                         f"and {w_rec.data.shape}, bias {bias.data.shape}")
    return n


def lstm_step(x: Tensor, h: Tensor, c: Tensor, w_in: Tensor, w_rec: Tensor,
              bias: Tensor) -> tuple[Tensor, Tensor]:
    """One LSTM update of a [B,in] input and [B,n] state: c' = f*c + i*g,
    h' = o*tanh(c'). Weights are stored [in x 4n] and [n x 4n], bias [4n].
    Returns (h', c')."""
    n = _check_cell(x.data.shape, w_in, w_rec, bias)
    if h.data.shape != (x.data.shape[0], n) or c.data.shape != h.data.shape:
        raise ValueError(f"LSTM state shape mismatch: {h.data.shape}, {c.data.shape}")
    acts = x.data @ w_in.data
    recurrent = h.data @ w_rec.data
    recurrent += bias.data
    acts += recurrent
    tanh_c, h_new, c_new = (np.empty_like(c.data) for _ in range(3))
    _cell(acts, c.data, c_new, tanh_c, h_new)

    def backward(dh, dc_new):
        gate_factor, c_factor = _cell_partials(acts, c.data, tanh_c)
        dc = dh * c_factor
        dc += dc_new
        dpre = np.concatenate([dc, dc, dc, dh], axis=1)
        dpre *= gate_factor
        _accumulate(x, (w_in.data @ dpre.T).T)
        _accumulate(h, (w_rec.data @ dpre.T).T)
        _accumulate(c, dc * acts[:, n : 2 * n])
        _accumulate(w_in, x.data.T @ dpre)
        _accumulate(w_rec, h.data.T @ dpre)
        _accumulate(bias, dpre.sum(axis=0))

    return _record(backward, h_new, c_new)


def lstm_sequence(xs: Tensor, mask: np.ndarray, w_in: Tensor, w_rec: Tensor, bias: Tensor,
                  reverse: bool = False) -> tuple[Tensor, Tensor, Tensor]:
    """One LSTM direction over a padded batch xs [B,T,in], from a zero state.

    Weights are stored [in x 4n] and [n x 4n], bias [4n], as in `lstm_step`.
    `mask` [B,T] is 1 at real positions; at a padded position a row keeps
    its previous state, and its output there is that state. `reverse` runs
    from T-1 down to 0. Returns (outputs [B,T,n], final h [B,n], final c [B,n])."""
    batch, length = xs.data.shape[:2]
    n = _check_cell(xs.data.shape, w_in, w_rec, bias)
    if mask.shape != (batch, length):
        raise ValueError(f"mask shape {mask.shape} does not match input {xs.data.shape}")
    dtype = xs.data.dtype
    # internal buffers run in processing order p (t = T-1-p when reversed),
    # so every per-step slice is contiguous
    steps = np.s_[::-1] if reverse else np.s_[:]
    keep = mask.T[steps, :, None].astype(bool)           # [T,B,1]
    full = keep.all(axis=(1, 2))                         # [T]: no padding at step p
    x_steps = np.ascontiguousarray(xs.data.transpose(1, 0, 2)[steps]).reshape(
        length * batch, -1)
    acts = (x_steps @ w_in.data).reshape(length, batch, 4 * n)  # input projections first
    hs = np.zeros((length + 1, batch, n), dtype=dtype)   # hs[p]: state before step p
    cs = np.zeros((length + 1, batch, n), dtype=dtype)
    tanh_cs = np.empty((length, batch, n), dtype=dtype)
    for p in range(length):
        recurrent = hs[p] @ w_rec.data
        recurrent += bias.data
        acts[p] += recurrent
        _cell(acts[p], cs[p], cs[p + 1], tanh_cs[p], hs[p + 1])
        if not full[p]:
            padded = ~keep[p]
            np.copyto(hs[p + 1], hs[p], where=padded)
            np.copyto(cs[p + 1], cs[p], where=padded)

    def backward(g_outputs, g_h, g_c):
        gate_factor, c_factor = _cell_partials(acts, cs[:-1], tanh_cs)
        d_outputs = g_outputs.transpose(1, 0, 2)[steps]
        dpre = np.empty_like(acts)
        dh = g_h.copy()  # accumulates in place; dc is only rebound
        dc = g_c
        for p in range(length - 1, -1, -1):
            dh += d_outputs[p]
            dc_new = dh * c_factor[p]
            dc_new += dc
            np.multiply(np.concatenate([dc_new, dc_new, dc_new, dh], axis=1), gate_factor[p],
                        out=dpre[p])
            if not full[p]:
                dpre[p] *= keep[p]
            dh_prev = (w_rec.data @ dpre[p].T).T
            dc_prev = dc_new * acts[p, :, n : 2 * n]
            if not full[p]:
                padded = ~keep[p]
                np.copyto(dh_prev, dh, where=padded)
                np.copyto(dc_prev, dc, where=padded)
            dh, dc = dh_prev, dc_prev
        flat = dpre.reshape(length * batch, 4 * n)
        dx = (w_in.data @ flat.T).reshape(-1, length, batch)  # [in, p, b]
        _accumulate(xs, dx[:, steps].transpose(2, 1, 0))
        _accumulate(w_in, x_steps.T @ flat)
        _accumulate(w_rec, hs[:-1].reshape(length * batch, n).T @ flat)
        _accumulate(bias, flat.sum(axis=0))

    # outputs [B,T,n] in time order, and the final state: views of hs and cs
    return _record(backward, hs[1:][steps].transpose(1, 0, 2), hs[length], cs[length])


def attention(top: Tensor, annotations: Tensor, mask_add, w_score: Tensor
              ) -> tuple[Tensor, np.ndarray]:
    """Bilinear attention of n queries `top` [n,h] over `annotations` [B,S,h],
    where B is n or 1 (one source shared by every query).

    weights = softmax(top @ w_score @ a_s + mask_add) over s, context =
    sum_s weights_s a_s. `mask_add` [B,S] is a constant; large negative
    entries give exactly-zero weights. Returns (context [n,h], weights [n,S]);
    the weights are a plain array, not a differentiable output."""
    n, h = top.data.shape
    rows, length, ann_h = annotations.data.shape
    if rows not in (1, n) or ann_h != h or w_score.data.shape != (h, h):
        raise ValueError(f"attention shape mismatch: queries {top.data.shape}, annotations "
                         f"{annotations.data.shape}, score weights {w_score.data.shape}")
    if length == 0:
        raise ValueError("attention over an empty source")
    ann = annotations.data
    query = top.data @ w_score.data
    # reshape (not None-indexing) keeps these stacks BLAS-eligible for numpy's matmul
    scores = (ann @ query.reshape(n, h, 1)).reshape(n, length)  # ann broadcasts over n
    z = scores + np.asarray(mask_add, dtype=scores.dtype)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    weights = e / e.sum(axis=-1, keepdims=True)
    context = (weights.reshape(n, 1, length) @ ann).reshape(n, h)

    def backward(g):
        dweights = (ann @ g.reshape(n, h, 1)).reshape(n, length)
        dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
        dquery = (dscores.reshape(n, 1, length) @ ann).reshape(n, h)
        if rows == 1:
            dann = (weights.T @ g + dscores.T @ query)[None]
        else:
            dann = weights[:, :, None] * g[:, None, :] + dscores[:, :, None] * query[:, None, :]
        _accumulate(annotations, dann)
        _accumulate(top, (w_score.data @ dquery.T).T)
        _accumulate(w_score, top.data.T @ dquery)

    return _record(backward, context)[0], weights


# --- lookups and losses -------------------------------------------------------


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of `table` for an id array of any shape."""
    ids = np.asarray(ids, dtype=np.intp)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"embedding id out of range for table of {table.data.shape[0]} rows")

    def backward(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return _record(backward, table.data[ids])[0]


def cross_entropy(logits: Tensor, targets, pad_index: int) -> Tensor:
    """Mean of -log softmax(logits)[target] over non-pad positions."""
    targets = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise ValueError(f"cross_entropy expects [N,V] logits and N targets, got {logits.data.shape} and {targets.shape}")
    live = targets != pad_index
    n_live = int(live.sum())
    if n_live == 0:
        raise ValueError("empty target: all positions are padding")
    log_probs = log_softmax(logits.data)
    rows = np.arange(len(targets))
    picked = log_probs[rows, targets]
    loss = np.asarray(-picked[live].sum() / n_live, dtype=logits.data.dtype)

    def backward(g):
        grad = np.exp(log_probs)
        grad[rows, targets] -= 1.0
        grad[~live] = 0.0
        _accumulate(logits, grad * (g / n_live))

    return _record(backward, loss)[0]


def dropout(x: Tensor, rate: float, rng: np.random.Generator,
            draw_order: tuple[int, ...] | None = None) -> Tensor:
    """Inverted dropout; identity when rate is 0.

    The keep mask is drawn from `rng` over x's axes taken in `draw_order`
    (default: x's own order), so a [B,T,d] input with draw_order (1, 0, 2)
    consumes the stream as T successive [B,d] draws would."""
    if rate == 0.0:
        return x
    if draw_order is None:
        uniform = rng.random(x.data.shape)
    else:
        uniform = rng.random(tuple(x.data.shape[a] for a in draw_order))
        uniform = uniform.transpose(np.argsort(draw_order))
    keep = (uniform >= rate).astype(x.data.dtype)
    return mul_const(x, keep / (1.0 - rate))


# --- optimizer ---------------------------------------------------------------


def global_grad_norm(tensors: Iterable[Tensor]) -> float:
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float((t.grad.astype(np.float64) ** 2).sum())
    return float(np.sqrt(total))


def clip_gradients(tensors: Sequence[Tensor], max_norm: float) -> float:
    """Scale all gradients so their global norm is at most `max_norm`."""
    norm = global_grad_norm(tensors)
    if norm > max_norm:
        scale = max_norm / norm
        for t in tensors:
            if t.grad is not None:
                t.grad *= scale
    return norm


def sgd_step(tensors: Sequence[Tensor], lr: float) -> None:
    """In-place w <- w - lr*g."""
    for t in tensors:
        if t.grad is not None:
            t.data -= lr * t.grad


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
