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
backward rules, so a training batch records a fixed number of tape entries,
whatever its lengths:

- `encoder_sequence` is the whole stacked bidirectional encoder: both
  directions of every layer, their concatenation and the dropout between
  layers. A layer's two directions run as one loop over processing steps,
  on arrays with a leading direction axis of size 2 (direction 1 reads the
  source right to left) and the two cells' weights stacked to match. The
  input projection of every step is one GEMM per direction; padded rows keep
  their state; the only matrix product left in the backward loop over time
  is `(w_rec @ dpre_p.T).T`, and each weight gradient is one GEMM per
  direction over the stacked gate gradients.
- `decoder_sequence` is the whole teacher-forced decoder: every target step
  of the stacked LSTM layers, bilinear attention, the attentional vector and
  the dropout between layers. Input feeding keeps its forward pass step by
  step; each step runs `decoder_step`, a plain-array kernel that inference
  decoding calls too, so training and decoding share one copy of the math.
  Its backward loop over time keeps only the products that carry a gradient
  to the previous step; every weight gradient is one GEMM over the stacked
  steps and the annotation gradient one batched product.

The recurrent state is h and c as [layers, B, n] arrays, from the encoder's
final states to the decoder's. Both ops run one LSTM update, `_cell`, and
step back through it with `_cell_backward`, from `_cell_partials` over all steps.

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


def _cell(acts: np.ndarray, h: np.ndarray, c: np.ndarray, w_rec: np.ndarray, bias: np.ndarray,
          c_new: np.ndarray, tanh_c: np.ndarray, h_new: np.ndarray) -> None:
    """One LSTM update of the state (h, c) [..., B, n], for both recurrent ops:
    adds h @ w_rec + bias to `acts` [..., B, 4n], which holds x @ w_in,
    overwrites it with the gate activations and writes c', tanh(c') and h' into
    the given buffers. The encoder's leading axis is its two directions, each
    with its own w_rec [n x 4n] and bias [1 x 4n]."""
    recurrent = np.matmul(h, w_rec)
    recurrent += bias
    acts += recurrent
    n = c.shape[-1]
    scale, offset = _gate_constants(n, acts.dtype)
    acts *= scale
    np.tanh(acts, out=acts)
    acts *= scale
    acts += offset
    np.multiply(acts[..., n : 2 * n], c, out=c_new)
    c_new += acts[..., :n] * acts[..., 2 * n : 3 * n]
    np.tanh(c_new, out=tanh_c)
    np.multiply(acts[..., 3 * n :], tanh_c, out=h_new)


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


def _cell_backward(dh: np.ndarray, dc: np.ndarray, acts: np.ndarray, gate_factor: np.ndarray,
                   c_factor: np.ndarray, w_rec: np.ndarray, dpre: np.ndarray):
    """One step back through `_cell` and the recurrent product h @ w_rec: from
    the gradients dh of the step's new h and dc of its new c, write the
    pre-activation gradient into `dpre` [..., B, 4n] and return the previous
    state's (dh, dc). `gate_factor` and `c_factor` are `_cell_partials`'."""
    n = dh.shape[-1]
    dc_new = dh * c_factor
    dc_new += dc
    np.multiply(np.concatenate([dc_new, dc_new, dc_new, dh], axis=-1), gate_factor, out=dpre)
    return (np.matmul(w_rec, dpre.swapaxes(-1, -2)).swapaxes(-1, -2),
            dc_new * acts[..., n : 2 * n])


def encoder_sequence(xs: Tensor, mask: np.ndarray,
                     layers: Sequence[Sequence[tuple[Tensor, Tensor, Tensor]]],
                     keep: np.ndarray | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """The stacked bidirectional LSTM encoder over a padded batch, as one op.

    `xs` [B,S,e] is the embedded source and `mask` [B,S] 1 at real positions.
    `layers` holds each layer's forward and backward cell (w_in, w_rec, bias),
    both of hidden size n; a layer's output is its two directions' outputs
    concatenated, [B,S,2n], and the input of the next. `keep`
    [layers-1, B, S, 2n] is a constant inverted-dropout scale on the inputs of
    the upper layers. Returns the top layer's annotations [B,S,2n] and every
    layer's final h and c, each [layers, B, 2n], forward half first: the
    decoder's state layout.

    A layer runs both directions as one loop over processing steps p, with
    the direction as a leading axis of size 2: direction 0 reads position p,
    direction 1 position S-1-p. The forward buffers are step-major,
    [S, 2, B, .], so each step's [2, B, .] slice is contiguous. Every
    product is one `np.matmul` over the direction axis of the two cells'
    stacked weights. At a padded position a row keeps its previous state."""
    batch, length = xs.data.shape[:2]
    n = layers[0][0][1].data.shape[0]
    in_shapes = [xs.data.shape] + [(batch, length, 2 * n)] * (len(layers) - 1)
    if (mask.shape != (batch, length)
            or any(_check_cell(shape, *cell) != n
                   for shape, cells in zip(in_shapes, layers) for cell in cells)
            or (keep is not None and keep.shape != (len(layers) - 1, batch, length, 2 * n))):
        raise ValueError(f"encoder shape mismatch: {len(layers)} layers of hidden {n}, input "
                         f"{xs.data.shape}, mask {mask.shape}")
    real = mask.T.astype(bool)
    present = np.stack((real, real[::-1]), axis=1)[..., None]  # [S,2,B,1] in step order
    padded = ~present
    full = present.all(axis=(1, 2, 3))                         # [S]: no padding at step p
    x = xs.data
    final_h = np.empty((len(layers), batch, 2, n), dtype=x.dtype)
    final_c = np.empty_like(final_h)
    saved = []  # per layer, what its backward reads
    for l, cells in enumerate(layers):
        if l and keep is not None:
            x = x * keep[l - 1]
        w_in, w_rec, bias = (np.stack([cell[k].data for cell in cells]) for k in range(3))
        x_time = x.transpose(1, 0, 2)
        x_steps = np.stack((x_time, x_time[::-1])).reshape(2, length * batch, -1)
        acts = np.matmul(x_steps, w_in).reshape(2, length, batch, 4 * n)  # input projections first
        acts = np.ascontiguousarray(acts.transpose(1, 0, 2, 3))
        hs = np.zeros((length + 1, 2, batch, n), dtype=x.dtype)  # hs[p]: state before step p
        cs = np.zeros_like(hs)
        tanh_cs = np.empty((length, 2, batch, n), dtype=x.dtype)
        for p in range(length):
            _cell(acts[p], hs[p], cs[p], w_rec, bias[:, None], cs[p + 1], tanh_cs[p], hs[p + 1])
            if not full[p]:
                np.copyto(hs[p + 1], hs[p], where=padded[p])
                np.copyto(cs[p + 1], cs[p], where=padded[p])
        # step-major in memory, [S,B,2,n] in time order: later products' bits depend on it
        x = np.stack((hs[1:, 0], hs[:0:-1, 1]), axis=2).reshape(length, batch, 2 * n)
        x = x.transpose(1, 0, 2)
        final_h[l] = hs[-1].swapaxes(0, 1)
        final_c[l] = cs[-1].swapaxes(0, 1)
        saved.append((x_steps, w_in, w_rec, acts, hs, cs, tanh_cs))

    def backward(g_annotations, g_h, g_c):
        dx = g_annotations
        for l in range(len(layers) - 1, -1, -1):
            x_steps, w_in, w_rec, acts, hs, cs, tanh_cs = saved[l]
            if l + 1 < len(layers) and keep is not None:
                dx = dx * keep[l]
            g = dx.transpose(1, 0, 2).reshape(length, batch, 2, n)
            d_outputs = np.stack((g[:, :, 0], g[::-1, :, 1]), axis=1)  # [S,2,B,n] in step order
            gate_factor, c_factor = _cell_partials(acts, cs[:-1], tanh_cs)
            dpre = np.empty((2, length, batch, 4 * n), dtype=acts.dtype)  # so `flat` is a view
            dh = g_h[l].reshape(batch, 2, n).swapaxes(0, 1).copy()  # accumulates in place
            dc = g_c[l].reshape(batch, 2, n).swapaxes(0, 1)         # is only rebound
            for p in range(length - 1, -1, -1):
                dh += d_outputs[p]
                dh_prev, dc_prev = _cell_backward(dh, dc, acts[p], gate_factor[p], c_factor[p],
                                                  w_rec, dpre[:, p])
                if not full[p]:  # padded rows pass their gradient straight through
                    dpre[:, p] *= present[p]
                    np.copyto(dh_prev, dh, where=padded[p])
                    np.copyto(dc_prev, dc, where=padded[p])
                dh, dc = dh_prev, dc_prev
            flat = dpre.reshape(2, length * batch, 4 * n)
            d_steps = np.matmul(w_in, flat.swapaxes(1, 2)).reshape(2, -1, length, batch)
            dx = (d_steps[0] + d_steps[1][:, ::-1]).transpose(2, 1, 0)  # [in,S,B] -> [B,S,in]
            h_steps = hs[:-1].swapaxes(0, 1).reshape(2, length * batch, n)
            grads = (np.matmul(x_steps.swapaxes(1, 2), flat),
                     np.matmul(h_steps.swapaxes(1, 2), flat), flat.sum(axis=1))
            for direction, cell in enumerate(layers[l]):
                for w, d_w in zip(cell, grads):
                    _accumulate(w, d_w[direction])
        _accumulate(xs, dx)

    shape = (len(layers), batch, 2 * n)
    return _record(backward, x, final_h.reshape(shape), final_c.reshape(shape))


def attend(top: np.ndarray, annotations: np.ndarray, mask_add: np.ndarray, w_score: np.ndarray,
           query: np.ndarray | None = None, weights: np.ndarray | None = None
           ) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear attention on plain arrays: n queries `top` [n,h] over
    `annotations` [B,S,h], where B is n or 1 (one source shared by every query).

    weights = softmax(top @ w_score @ a_s + mask_add) over s, context =
    sum_s weights_s a_s. `mask_add` [B,S] holds 0 at real positions and a
    large negative number at padding, which gets an exactly-zero weight.
    `query` [n,h] and `weights` [n,S], if given, receive top @ w_score and the
    weights. Returns (context [n,h], weights [n,S])."""
    n, h = top.shape
    length = annotations.shape[1]
    query = np.matmul(top, w_score, out=query)
    # reshape (not None-indexing) keeps these stacks BLAS-eligible for numpy's matmul
    scores = (annotations @ query.reshape(n, h, 1)).reshape(n, length)  # broadcasts over n
    z = scores + np.asarray(mask_add, dtype=scores.dtype)
    z -= z.max(axis=-1, keepdims=True)
    e = np.exp(z, out=z)
    weights = np.divide(e, e.sum(axis=-1, keepdims=True), out=weights)
    return (weights.reshape(n, 1, length) @ annotations).reshape(n, h), weights


class DecoderBuffers:
    """The activations of `steps` decoder steps over `batch` rows, as
    `decoder_step` writes them and `decoder_sequence`'s backward reads them.
    The state before step t is `h[:, t]` and `c[:, t]`, each [layers, batch, n]."""

    __slots__ = ("dropped", "h", "c", "acts", "tanh_c", "query", "weights", "cat", "attn")

    def __init__(self, steps: int, batch: int, layers: int, n: int, length: int, dtype,
                 dropout: bool = False):
        shape = (steps, batch, n)
        # dropped[l-1, t]: the dropped-out input of layer l > 0
        self.dropped = np.empty((layers - 1, *shape), dtype) if dropout else None
        self.h = np.empty((layers, steps + 1, batch, n), dtype)  # h[l, t]: state before step t
        self.c = np.empty_like(self.h)
        self.acts = np.empty((layers, steps, batch, 4 * n), dtype)  # gate activations
        self.tanh_c = np.empty((layers, *shape), dtype)
        self.query = np.empty(shape, dtype)                 # top @ w_score
        self.weights = np.empty((steps, batch, length), dtype)
        self.cat = np.empty((steps, batch, 2 * n), dtype)   # [context; top]
        self.attn = np.empty((steps + 1, batch, n), dtype)  # attn[t]: input-fed vector of step t


def decoder_step(buf: DecoderBuffers, t: int, x0: np.ndarray, prev_h: np.ndarray,
                 prev_c: np.ndarray, cells: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
                 attention: tuple[np.ndarray, np.ndarray, np.ndarray],
                 annotations: np.ndarray, mask_add: np.ndarray,
                 keep: np.ndarray | None = None) -> None:
    """Step t of the stacked attentional decoder on plain arrays, the one copy
    of its math that training (`decoder_sequence`) and inference share.

    `x0` [B,in] is layer 0's input, `prev_h` and `prev_c` [layers,B,n] the
    state before the step, `cells` each layer's (w_in [in x 4n],
    w_rec [n x 4n], bias [4n]) and `attention` (w_score [n x n],
    w_out [2n x n], b_out [n]). `keep` [layers-1, B, n] scales each upper
    layer's input (inverted dropout).
    Per layer, the input projection x @ w_in and `_cell`; then
    attention of the top state over `annotations` [B or 1, S, n] and the
    attentional vector tanh([context; top] @ w_out + b_out), into buf.attn[t+1].
    The new state is buf.h[:, t+1] and buf.c[:, t+1]."""
    x = x0
    for layer, (w_in, w_rec, bias) in enumerate(cells):
        if layer and keep is not None:
            x = np.multiply(x, keep[layer - 1], out=buf.dropped[layer - 1, t])
        acts = np.matmul(x, w_in, out=buf.acts[layer, t])
        x = buf.h[layer, t + 1]
        _cell(acts, prev_h[layer], prev_c[layer], w_rec, bias, buf.c[layer, t + 1],
              buf.tanh_c[layer, t], x)
    w_score, w_out, b_out = attention
    n = x.shape[1]
    cat = buf.cat[t]
    cat[:, :n] = attend(x, annotations, mask_add, w_score, buf.query[t], buf.weights[t])[0]
    cat[:, n:] = x
    u = cat @ w_out
    u += b_out
    np.tanh(u, out=buf.attn[t + 1])


def decoder_sequence(emb: Tensor, h0: Tensor, c0: Tensor, starts: np.ndarray,
                     annotations: Tensor, mask_add: np.ndarray,
                     cells: Sequence[tuple[Tensor, Tensor, Tensor]],
                     w_score: Tensor, w_out: Tensor, b_out: Tensor,
                     keep: np.ndarray | None = None, input_feeding: bool = True) -> Tensor:
    """The teacher-forced decoder over every target step, as one op.

    `emb` [T,B,e] holds each step's previous-token embedding. Layer l starts
    from `h0[starts[l]]` and `c0[starts[l]]`, rows of [L,B,n] arrays, so one
    row may start several layers. `annotations` [B,S,n] is the source, with
    the constant `mask_add` [B,S] as in `attend`. With `input_feeding`, layer
    0 reads [emb_t; attn_{t-1}], from a zero attn_{-1}. `keep`
    [T, layers-1, B, n] is a constant inverted-dropout scale on the inputs of
    the upper layers. Each step runs `decoder_step`. Returns the attentional
    vectors [T*B, n], step-major.

    The backward pass through time keeps only what depends on the next
    step's gradient inside its loop: the products with w_out, w_score, each
    w_rec, the upper layers' w_in and the input-fed rows of layer 0's w_in.
    Every weight and bias gradient is one GEMM or sum over the stacked T*B
    rows, and the annotation gradient one batched product over the steps."""
    steps, batch, e = emb.data.shape
    layers = len(cells)
    n = cells[0][1].data.shape[0]
    rows, length, ann_h = annotations.data.shape
    in_size = e + n if input_feeding else e
    for layer, (w_in, w_rec, bias) in enumerate(cells):
        _check_cell((steps, batch, in_size if layer == 0 else n), w_in, w_rec, bias)
    if (rows != batch or ann_h != n or length == 0 or mask_add.shape != (batch, length)
            or h0.data.shape[1:] != (batch, n) or c0.data.shape != h0.data.shape
            or starts.shape != (layers,) or not 0 <= starts.min() <= starts.max() < len(h0.data)
            or [t.data.shape for t in (w_score, w_out, b_out)] != [(n, n), (2 * n, n), (n,)]
            or (keep is not None and keep.shape != (steps, layers - 1, batch, n))):
        raise ValueError(f"decoder shape mismatch: {steps} steps of {batch} rows, hidden {n}, "
                         f"annotations {annotations.data.shape}, mask {mask_add.shape}")
    dtype = emb.data.dtype
    buf = DecoderBuffers(steps, batch, layers, n, length, dtype, dropout=keep is not None)
    if input_feeding:
        x0 = np.empty((steps, batch, in_size), dtype)
        x0[:, :, :e] = emb.data
    else:
        x0 = emb.data
    buf.h[:, 0] = h0.data[starts]
    buf.c[:, 0] = c0.data[starts]
    buf.attn[0] = 0.0
    ann = annotations.data
    weights = [tuple(t.data for t in cell) for cell in cells]
    attention = (w_score.data, w_out.data, b_out.data)
    for t in range(steps):
        if input_feeding:
            x0[t, :, e:] = buf.attn[t]
        decoder_step(buf, t, x0[t], buf.h[:, t], buf.c[:, t], weights, attention, ann,
                     mask_add, None if keep is None else keep[t])

    def backward(g):
        d_attn = g.reshape(steps, batch, n)
        d_u = 1.0 - buf.attn[1:] * buf.attn[1:]  # tanh' now, times the gradient in the loop
        d_ctx = np.empty_like(buf.query)
        d_query = np.empty_like(buf.query)
        d_scores = np.empty_like(buf.weights)
        d_pre = np.empty_like(buf.acts)
        gate_factor, c_factor = _cell_partials(buf.acts, buf.c[:, :-1], buf.tanh_c)
        dh = np.zeros((layers, batch, n), dtype)  # of the state before the step
        dc = np.zeros_like(dh)
        w_fed = weights[0][0][e:]  # layer 0's input-fed rows
        d_fed = 0.0
        for t in range(steps - 1, -1, -1):
            du = d_u[t]
            du *= d_attn[t] + d_fed
            d_cat = (w_out.data @ du.T).T
            d_ctx[t] = d_cat[:, :n]
            d_weights = (ann @ d_ctx[t].reshape(batch, n, 1)).reshape(batch, length)
            w_t = buf.weights[t]
            np.multiply(w_t, d_weights - (d_weights * w_t).sum(axis=-1, keepdims=True),
                        out=d_scores[t])
            d_query[t] = (d_scores[t].reshape(batch, 1, length) @ ann).reshape(batch, n)
            d_in = d_cat[:, n:] + (w_score.data @ d_query[t].T).T  # gradient of the top h
            for l in range(layers - 1, -1, -1):
                w_in, w_rec, _ = weights[l]
                dpre = d_pre[l, t]
                dh[l], dc[l] = _cell_backward(dh[l] + d_in, dc[l], buf.acts[l, t],
                                              gate_factor[l, t], c_factor[l, t], w_rec, dpre)
                if l:
                    d_in = (w_in @ dpre.T).T
                    if keep is not None:
                        d_in *= keep[t, l - 1]
                elif input_feeding:
                    d_fed = (w_fed @ dpre.T).T

        def stacked(a):
            return a.reshape(steps * batch, a.shape[-1])

        for l, (w_in, w_rec, bias) in enumerate(cells):
            dpre = stacked(d_pre[l])
            if l == 0:
                x = x0
            else:
                x = buf.h[l - 1, 1:] if keep is None else buf.dropped[l - 1]
            _accumulate(w_in, stacked(x).T @ dpre)
            _accumulate(w_rec, stacked(buf.h[l, :-1]).T @ dpre)
            _accumulate(bias, dpre.sum(axis=0))
        for start, d_start in ((h0, dh), (c0, dc)):
            if start.grad is None:
                start.grad = np.zeros_like(start.data)
            np.add.at(start.grad, starts, d_start)  # sums where one state starts several layers
        d_emb = weights[0][0][:e] @ stacked(d_pre[0]).T  # [e, T*B]
        _accumulate(emb, d_emb.T.reshape(steps, batch, e))
        _accumulate(w_out, stacked(buf.cat).T @ stacked(d_u))
        _accumulate(b_out, stacked(d_u).sum(axis=0))
        _accumulate(w_score, stacked(buf.h[-1, 1:]).T @ stacked(d_query))
        # d annotations[b] = sum_t weights[t,b]^T d_ctx[t,b] + d_scores[t,b]^T query[t,b]
        over_s = np.concatenate([buf.weights, d_scores]).transpose(1, 2, 0)  # [B,S,2T]
        over_h = np.concatenate([d_ctx, buf.query]).transpose(1, 0, 2)       # [B,2T,n]
        _accumulate(annotations, over_s @ over_h)

    return _record(backward, buf.attn[1:].reshape(steps * batch, n))[0]


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


# --- optimizer ---------------------------------------------------------------


def global_grad_norm(tensors: Iterable[Tensor]) -> float:
    """The L2 norm of all gradients, summed in float64 with one float64
    temporary per tensor."""
    total = 0.0
    for t in tensors:
        if t.grad is not None:
            total += float(np.square(t.grad, dtype=np.float64).sum())
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
