"""Reverse-mode automatic differentiation over dense numpy buffers.

Ops compute eagerly and, only inside `with Tape()` on the current thread,
append an entry with their backward rule. Outside a tape, ops are plain numpy
math with no graph overhead. Tapes do not nest: opening a tape while another
records on the same thread raises RuntimeError, because the inner tape's
entries would never reach the outer tape's backward.

Weight matrices are stored [in x out], C-contiguous, so every product with
a weight is `x @ w` with an untransposed right operand, the orientation BLAS
runs fastest. Backward passes keep that: an input gradient is
`(w @ g.T).T` (the transposed operand is the small gradient, not the
weight) and a weight gradient is `x.T @ g`, already [in x out].

The model's math is three fused ops with hand-written backward rules, so a
training batch records three tape entries, whatever its lengths and depth:

- `encoder_sequence` is the source embedding lookup and the whole stacked
  bidirectional encoder: both directions of every layer, their
  concatenation and the dropout between layers. A layer's two directions
  run as one loop over processing steps, on arrays with a leading direction
  axis of size 2 (direction 1 reads the source right to left) and the two
  cells' weights stacked to match. The input projection of every step is
  one GEMM per direction; padded rows keep their state; the only matrix
  product left in the backward loop over time is `(w_rec @ dpre_p.T).T`,
  and each weight gradient is one GEMM per direction over the stacked gate
  gradients.
- `decoder_sequence` is the target embedding lookup and the whole
  teacher-forced decoder: every target step of the stacked LSTM layers,
  bilinear attention, the attentional vector and the dropout between
  layers. Input feeding keeps its forward pass step by step; each step runs
  `decoder_step`, a plain-array kernel that inference decoding calls too, so
  training and decoding share one copy of the math. Its backward loop over
  time keeps only the products that carry a gradient to the previous step;
  every weight gradient is one GEMM over the stacked steps and the
  annotation gradient one batched product.
- `cross_entropy` is the generator and the loss over every step's
  attentional vector.

The recurrent state is h and c as [layers, B, n] arrays, from the encoder's
final states to the decoder's. Both ops run one LSTM update, `_cell`, and
step back through it with `_cell_backward`, from `_cell_partials` over all steps.

Memory. The forward saves only what its backward cannot rebuild bit for bit:
per layer the gate activations and the h and c of every step, and in the
decoder the attention's query, weights and [context; top] and the
attentional vectors. No product is recomputed, since a GEMM's bits depend on
its row count. What is only a copy or one elementwise op is rebuilt, as a
fresh C-contiguous array in the layout the forward used, since bits also
depend on memory layout: each layer's stacked input (an embedding lookup, or
the layer below's h times its dropout scale) and tanh(c), which
`_cell_partials` then turns into c_factor in place. The backward passes write
over what they no longer read: the gate factors and then each step's
pre-activation gradient overwrite the decoder's activations, and the encoder
writes its factors straight into its gradient buffer. Each all-step buffer
is dropped after its last read. The one exception to the save rule:
`encoder_sequence` keeps each layer's `np.stack`ed copies of both
directions' `w_in` and `w_rec`, which its backward could stack again from
the parameters.

The tape holds one entry per op call: the call's output tensors and one
backward function taking a gradient per output. `Tape.backward` calls it once
some output has a gradient, passing zeros for any output that has none (say a
final cell state nothing reads). A tape walks backward once: each entry's
function, and with it everything the op saved, is dropped as soon as the walk
passes it, so after `backward` the tape holds only its entries' outputs.
Every op records through `_record`, the one reader of the active tape, so a
fused op records or not like any other.
`lookup`, the one range check of token ids, and `generator_log_probs` are
plain array functions, not ops: training and inference decoding share them.

Non-finite values. No op checks its inputs or outputs; the checks sit at the
edges, and each raises:
- loading a checkpoint rejects a tensor holding a NaN or an infinity
  (`model.params_from_arrays`, ValueError);
- training raises on a non-finite loss, gradient norm or validation loss
  (`model.train_model`, RuntimeError);
- decoding raises when a step has no finite candidate (`decoding.beam_search`,
  ValueError);
- the CLI turns each of these into exit 1 with one `error:` line.

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


def active_tape():
    return getattr(_local, "tape", None)


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
    """Append-only record of op calls, each (outputs, backward); `backward`
    walks it in reverse, once. The walk replaces each entry's function with
    None as it passes, which frees what that op saved; the entries and their
    outputs stay, so `len(nodes)` still counts the op calls."""

    def __init__(self):
        self.nodes: list[tuple[tuple[Tensor, ...], Callable | None]] = []
        self.walked = False

    def __enter__(self) -> "Tape":
        if active_tape() is not None:
            raise RuntimeError("a tape is already recording on this thread; tapes do not nest")
        _local.tape = self
        return self

    def __exit__(self, *exc) -> None:
        _local.tape = None

    def backward(self, loss: Tensor) -> None:
        """Accumulate gradients of `loss` into every tensor that feeds it."""
        if loss.data.shape != ():
            raise ValueError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if self.walked:
            raise RuntimeError("this tape has already run backward, which freed what its ops "
                               "saved; record the forward on a new tape")
        self.walked = True
        loss.grad = np.ones_like(loss.data)
        nodes = self.nodes
        for k in range(len(nodes) - 1, -1, -1):
            outputs, backward = nodes[k]
            nodes[k] = (outputs, None)  # what the op saved dies with `backward`
            grads = [t.grad for t in outputs]
            if any(g is not None for g in grads):
                backward(*(np.zeros_like(t.data) if g is None else g
                           for t, g in zip(outputs, grads)))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    """Add `g` into `t`'s gradient. The first gradient is kept, not copied: an
    op passes an array that it will not write again and passes to no other
    tensor (a fresh product, or a view of one that no other view overlaps)."""
    if t.grad is None:
        t.grad = g.astype(t.data.dtype, copy=False)
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


# --- plain-array functions ---------------------------------------------------


def generator_log_probs(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """log_softmax(x @ w + bias) over the vocabulary, for x [N,h] and w stored
    [h x V]: the generator of the loss and of inference decoding."""
    logits = x @ w
    logits += bias
    logits -= logits.max(axis=-1, keepdims=True)
    return logits - np.log(np.exp(logits).sum(axis=-1, keepdims=True))


def lookup(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows of `table` for an id array of any shape."""
    if ids.size and (ids.min() < 0 or ids.max() >= len(table)):
        raise IndexError(f"embedding id out of range for table of {len(table)} rows")
    return table[ids]


def _scatter_rows(t: Tensor, index: np.ndarray, g: np.ndarray) -> None:
    """Add g's rows into t's gradient at `index`; repeated indices accumulate."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    np.add.at(t.grad, index, g)


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
    np.multiply(acts[..., :n], acts[..., 2 * n : 3 * n], out=tanh_c)  # i*g, as scratch
    c_new += tanh_c
    np.tanh(c_new, out=tanh_c)
    np.multiply(acts[..., 3 * n :], tanh_c, out=h_new)


def _cell_partials(acts: np.ndarray, c_prev: np.ndarray, tanh_c: np.ndarray, out: np.ndarray):
    """Backward factors of `_cell` for any leading shape, written into `out`
    [..., 4n], which may be `acts` itself: with dc' already including
    dh' * c_factor, dpre = [dc', dc', dc', dh'] * out and dc = dc' * f.
    Consumes `tanh_c`, tanh(c') [..., n] as a fresh array no one else holds:
    it becomes c_factor in place. Returns the forget gate f and c_factor; the
    only other array is one quarter-size scratch, freed before f is copied."""
    n = tanh_c.shape[-1]
    i, f, g, o = (acts[..., k * n : (k + 1) * n] for k in range(4))
    d_i, d_f, d_g, d_o = (out[..., k * n : (k + 1) * n] for k in range(4))
    # each gate's slot is written only after its last read
    scratch = np.subtract(1.0, o)
    scratch *= o
    scratch *= tanh_c  # d_o, held until o's last read
    c_factor = np.multiply(tanh_c, tanh_c, out=tanh_c)
    np.subtract(1.0, c_factor, out=c_factor)
    c_factor *= o
    d_o[...] = scratch
    np.subtract(1.0, i, out=scratch)
    scratch *= i
    scratch *= g
    np.multiply(g, g, out=d_g)
    np.subtract(1.0, d_g, out=d_g)
    d_g *= i
    d_i[...] = scratch
    del scratch  # before forget is made
    forget = f.copy()
    np.subtract(1.0, forget, out=d_f)
    d_f *= forget
    d_f *= c_prev
    return forget, c_factor


def _check_cell(x_shape, w_in: Tensor, w_rec: Tensor, bias: Tensor) -> int:
    n = w_rec.data.shape[0]
    if (w_rec.data.shape != (n, 4 * n) or w_in.data.shape != (x_shape[-1], 4 * n)
            or bias.data.shape != (4 * n,)):
        raise ValueError(f"LSTM shape mismatch: input {x_shape}, weights {w_in.data.shape} "
                         f"and {w_rec.data.shape}, bias {bias.data.shape}")
    return n


def _cell_backward(dh: np.ndarray, dc: np.ndarray, forget: np.ndarray, c_factor: np.ndarray,
                   w_rec: np.ndarray, dpre: np.ndarray):
    """One step back through `_cell` and the recurrent product h @ w_rec: from
    the gradients dh of the step's new h and dc of its new c, overwrite the
    step's gate factors in `dpre` [..., B, 4n] with its pre-activation
    gradient and return the previous state's (dh, dc). The gate factors,
    `forget` and `c_factor` are `_cell_partials`'."""
    dc_new = dh * c_factor
    dc_new += dc
    np.multiply(np.concatenate([dc_new, dc_new, dc_new, dh], axis=-1), dpre, out=dpre)
    return (np.matmul(w_rec, dpre.swapaxes(-1, -2)).swapaxes(-1, -2), dc_new * forget)


def encoder_sequence(table: Tensor, ids: np.ndarray, mask: np.ndarray,
                     layers: Sequence[Sequence[tuple[Tensor, Tensor, Tensor]]],
                     keep: np.ndarray | None = None) -> tuple[Tensor, Tensor, Tensor]:
    """The source embedding lookup and the stacked bidirectional LSTM encoder
    over a padded batch, as one op.

    `ids` [B,S] are the source ids, embedded as rows of `table` [V,e], and
    `mask` [B,S] is 1 at real positions.
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
    batch, length = ids.shape
    n = layers[0][0][1].data.shape[0]
    in_shapes = [(batch, length, table.data.shape[1])]
    in_shapes += [(batch, length, 2 * n)] * (len(layers) - 1)
    if (mask.shape != (batch, length)
            or any(_check_cell(shape, *cell) != n
                   for shape, cells in zip(in_shapes, layers) for cell in cells)
            or (keep is not None and keep.shape != (len(layers) - 1, batch, length, 2 * n))):
        raise ValueError(f"encoder shape mismatch: {len(layers)} layers of hidden {n}, ids "
                         f"{ids.shape}, mask {mask.shape}")
    real = mask.T.astype(bool)
    present = np.stack((real, real[::-1]), axis=1)[..., None]  # [S,2,B,1] in step order
    padded = ~present
    full = present.all(axis=(1, 2, 3))                         # [S]: no padding at step p
    saved = []  # per layer, what its backward reads

    def outputs(hs):
        # step-major in memory, [S,B,2,n] in time order: later products' bits depend on it
        x = np.stack((hs[1:, 0], hs[:0:-1, 1]), axis=2).reshape(length, batch, 2 * n)
        return x.transpose(1, 0, 2)

    def input_steps(l):
        """Layer l's input as [2, S*B, in], a fresh C-contiguous array: step
        p's rows are position p for direction 0 and S-1-p for direction 1. It
        comes from `ids`, or from the saved states of the layer below, so the
        backward rebuilds it bit for bit instead of saving it."""
        if l == 0:
            x = lookup(table.data, ids)
        else:
            x = outputs(saved[l - 1][-1])
            if keep is not None:
                x = x * keep[l - 1]
        x_time = x.transpose(1, 0, 2)
        return np.stack((x_time, x_time[::-1])).reshape(2, length * batch, -1)

    dtype = table.data.dtype
    final_h = np.empty((len(layers), batch, 2, n), dtype=dtype)
    final_c = np.empty_like(final_h)
    tanh_c = np.empty((2, batch, n), dtype=dtype)  # one step's scratch
    for l, cells in enumerate(layers):
        w_in, w_rec, bias = (np.stack([cell[k].data for cell in cells]) for k in range(3))
        # the input projections first
        acts = np.matmul(input_steps(l), w_in).reshape(2, length, batch, 4 * n)
        acts = np.ascontiguousarray(acts.transpose(1, 0, 2, 3))
        hs = np.zeros((length + 1, 2, batch, n), dtype=dtype)  # hs[p]: state before step p
        cs = np.zeros_like(hs)
        for p in range(length):
            _cell(acts[p], hs[p], cs[p], w_rec, bias[:, None], cs[p + 1], tanh_c, hs[p + 1])
            if not full[p]:
                np.copyto(hs[p + 1], hs[p], where=padded[p])
                np.copyto(cs[p + 1], cs[p], where=padded[p])
        final_h[l] = hs[-1].swapaxes(0, 1)
        final_c[l] = cs[-1].swapaxes(0, 1)
        saved.append((w_in, w_rec, acts, cs, hs))

    def backward(g_annotations, g_h, g_c):
        dx = g_annotations
        for l in range(len(layers) - 1, -1, -1):
            w_in, w_rec, acts, cs, hs = saved.pop()
            if l + 1 < len(layers) and keep is not None:
                dx = dx * keep[l]
            g = dx.transpose(1, 0, 2).reshape(length, batch, 2, n)
            d_outputs = np.stack((g[:, :, 0], g[::-1, :, 1]), axis=1)  # [S,2,B,n] in step order
            dpre = np.empty((2, length, batch, 4 * n), dtype=acts.dtype)  # so `flat` is a view
            # the gate factors, then each step's dpre; at padded rows tanh(c) is
            # not the forward's, but dpre is zeroed there
            forget, c_factor = _cell_partials(acts, cs[:-1], np.tanh(cs[1:]),
                                              dpre.transpose(1, 0, 2, 3))
            del acts, cs  # read only by the partials
            dh = g_h[l].reshape(batch, 2, n).swapaxes(0, 1).copy()  # accumulates in place
            dc = g_c[l].reshape(batch, 2, n).swapaxes(0, 1)         # is only rebound
            for p in range(length - 1, -1, -1):
                dh += d_outputs[p]
                dh_prev, dc_prev = _cell_backward(dh, dc, forget[p], c_factor[p], w_rec,
                                                  dpre[:, p])
                if not full[p]:  # padded rows pass their gradient straight through
                    dpre[:, p] *= present[p]
                    np.copyto(dh_prev, dh, where=padded[p])
                    np.copyto(dc_prev, dc, where=padded[p])
                dh, dc = dh_prev, dc_prev
            del forget, c_factor, d_outputs
            flat = dpre.reshape(2, length * batch, 4 * n)
            d_steps = np.matmul(w_in, flat.swapaxes(1, 2)).reshape(2, -1, length, batch)
            dx = (d_steps[0] + d_steps[1][:, ::-1]).transpose(2, 1, 0)  # [in,S,B] -> [B,S,in]
            del d_steps
            h_steps = hs[:-1].swapaxes(0, 1).reshape(2, length * batch, n)
            grads = (np.matmul(input_steps(l).swapaxes(1, 2), flat),
                     np.matmul(h_steps.swapaxes(1, 2), flat), flat.sum(axis=1))
            for direction, cell in enumerate(layers[l]):
                for w, d_w in zip(cell, grads):
                    _accumulate(w, d_w[direction])
        _scatter_rows(table, ids, dx)

    x = outputs(saved[-1][-1])
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
    `decoder_step` writes them and `decoder_sequence`'s backward reads them;
    that backward overwrites `acts` with the gate gradients.
    The state before step t is `h[:, t]` and `c[:, t]`, each [layers, batch, n].
    `dropped` and `tanh_c` are one step's scratch, overwritten by the next
    step: the backward rebuilds them from `h` and `c`. Every other buffer
    holds all steps."""

    __slots__ = ("dropped", "h", "c", "acts", "tanh_c", "query", "weights", "cat", "attn")

    def __init__(self, steps: int, batch: int, layers: int, n: int, length: int, dtype,
                 dropout: bool = False):
        shape = (steps, batch, n)
        # dropped[l-1]: the dropped-out input of layer l > 0
        self.dropped = np.empty((layers - 1, batch, n), dtype) if dropout else None
        self.h = np.empty((layers, steps + 1, batch, n), dtype)  # h[l, t]: state before step t
        self.c = np.empty_like(self.h)
        self.acts = np.empty((layers, steps, batch, 4 * n), dtype)  # gate activations
        self.tanh_c = np.empty((layers, batch, n), dtype)
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
            x = np.multiply(x, keep[layer - 1], out=buf.dropped[layer - 1])
        acts = np.matmul(x, w_in, out=buf.acts[layer, t])
        x = buf.h[layer, t + 1]
        _cell(acts, prev_h[layer], prev_c[layer], w_rec, bias, buf.c[layer, t + 1],
              buf.tanh_c[layer], x)
    w_score, w_out, b_out = attention
    n = x.shape[1]
    cat = buf.cat[t]
    cat[:, :n] = attend(x, annotations, mask_add, w_score, buf.query[t], buf.weights[t])[0]
    cat[:, n:] = x
    u = cat @ w_out
    u += b_out
    np.tanh(u, out=buf.attn[t + 1])


def decoder_sequence(table: Tensor, ids: np.ndarray, h0: Tensor, c0: Tensor, starts: np.ndarray,
                     annotations: Tensor, mask_add: np.ndarray,
                     cells: Sequence[tuple[Tensor, Tensor, Tensor]],
                     w_score: Tensor, w_out: Tensor, b_out: Tensor,
                     keep: np.ndarray | None = None, input_feeding: bool = True) -> Tensor:
    """The target embedding lookup and the teacher-forced decoder over every
    target step, as one op.

    `ids` [T,B] holds each step's previous token, embedded as a row of
    `table` [V,e]. Layer l starts from `h0[starts[l]]` and `c0[starts[l]]`,
    rows of [L,B,n] arrays, so one row may start several layers.
    `annotations` [B,S,n] is the source, with the constant `mask_add` [B,S]
    as in `attend`. With `input_feeding`, layer 0 reads [emb_t; attn_{t-1}],
    from a zero attn_{-1}. `keep`
    [T, layers-1, B, n] is a constant inverted-dropout scale on the inputs of
    the upper layers. Each step runs `decoder_step`. Returns the attentional
    vectors [T*B, n], step-major.

    The backward pass through time keeps only what depends on the next
    step's gradient inside its loop: the products with w_out, w_score, each
    w_rec, the upper layers' w_in and the input-fed rows of layer 0's w_in.
    Every weight and bias gradient is one GEMM or sum over the stacked T*B
    rows, and the annotation gradient one batched product over the steps."""
    steps, batch = ids.shape
    e = table.data.shape[1]
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
    emb = lookup(table.data, ids)
    dtype = emb.dtype
    buf = DecoderBuffers(steps, batch, layers, n, length, dtype, dropout=keep is not None)
    fed = np.empty((batch, in_size), dtype) if input_feeding else None  # one step's scratch
    buf.h[:, 0] = h0.data[starts]
    buf.c[:, 0] = c0.data[starts]
    buf.attn[0] = 0.0
    ann = annotations.data
    weights = [tuple(t.data for t in cell) for cell in cells]
    attention = (w_score.data, w_out.data, b_out.data)
    for t in range(steps):
        x0 = emb[t] if fed is None else np.concatenate((emb[t], buf.attn[t]), axis=1, out=fed)
        decoder_step(buf, t, x0, buf.h[:, t], buf.c[:, t], weights, attention, ann,
                     mask_add, None if keep is None else keep[t])

    def stacked(a):
        return a.reshape(steps * batch, a.shape[-1])

    def layer_inputs(l):
        """Layer l's inputs of every step, [T,B,in], rebuilt bit for bit as a
        fresh C-contiguous array, the layout of the forward's all-step input."""
        if l == 0:
            emb = lookup(table.data, ids)
            return np.concatenate([emb, buf.attn[:-1]], axis=-1) if input_feeding else emb
        return buf.h[l - 1, 1:] if keep is None else buf.h[l - 1, 1:] * keep[:, l - 1]

    def backward(g):
        # the gate factors, then each step's dpre, overwrite the activations
        d_pre = buf.acts
        forget, c_factor = _cell_partials(d_pre, buf.c[:, :-1], np.tanh(buf.c[:, 1:]), d_pre)
        buf.c = None  # read only by the partials
        d_attn = g.reshape(steps, batch, n)
        d_u = 1.0 - buf.attn[1:] * buf.attn[1:]  # tanh' now, times the gradient in the loop
        d_ctx = np.empty_like(buf.query)
        d_query = np.empty_like(buf.query)
        d_scores = np.empty_like(buf.weights)
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
                dh[l], dc[l] = _cell_backward(dh[l] + d_in, dc[l], forget[l, t], c_factor[l, t],
                                              w_rec, dpre)
                if l:
                    d_in = (w_in @ dpre.T).T
                    if keep is not None:
                        d_in *= keep[t, l - 1]
                elif input_feeding:
                    d_fed = (w_fed @ dpre.T).T
        forget = c_factor = du = dpre = None  # before the weight-gradient products

        for start, d_start in ((h0, dh), (c0, dc)):
            _scatter_rows(start, starts, d_start)  # sums where one state starts several layers
        d_emb = weights[0][0][:e] @ stacked(d_pre[0]).T  # [e, T*B]
        _scatter_rows(table, ids, d_emb.T.reshape(steps, batch, e))
        _accumulate(w_out, stacked(buf.cat).T @ stacked(d_u))
        _accumulate(b_out, stacked(d_u).sum(axis=0))
        _accumulate(w_score, stacked(buf.h[-1, 1:]).T @ stacked(d_query))
        # each buffer goes after its last read, before the cells' weight gradients
        d_emb = buf.cat = d_u = None
        for l, (w_in, w_rec, bias) in enumerate(cells):
            d_layer = stacked(d_pre[l])
            _accumulate(w_in, stacked(layer_inputs(l)).T @ d_layer)
            _accumulate(w_rec, stacked(buf.h[l, :-1]).T @ d_layer)
            _accumulate(bias, d_layer.sum(axis=0))
        buf.acts = buf.h = d_pre = d_layer = None
        # what is left is read by the annotation gradient:
        # d annotations[b] = sum_t weights[t,b]^T d_ctx[t,b] + d_scores[t,b]^T query[t,b]
        over_s = np.concatenate([buf.weights, d_scores]).transpose(1, 2, 0)  # [B,S,2T]
        over_h = np.concatenate([d_ctx, buf.query]).transpose(1, 0, 2)       # [B,2T,n]
        _accumulate(annotations, over_s @ over_h)

    return _record(backward, buf.attn[1:].reshape(steps * batch, n))[0]


# --- loss --------------------------------------------------------------------


def cross_entropy(x: Tensor, w: Tensor, bias: Tensor, targets, pad_index: int) -> Tensor:
    """The generator and the loss as one op: the mean of
    -generator_log_probs(x, w, bias)[target] over non-pad positions, for
    attentional vectors x [N,h], generator weights w [h x V] and bias [V]."""
    targets = np.asarray(targets, dtype=np.intp)
    if (x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]
            or bias.data.shape != w.data.shape[1:] or targets.shape != x.data.shape[:1]):
        raise ValueError(f"cross_entropy shape mismatch: inputs {x.data.shape}, weights "
                         f"{w.data.shape}, bias {bias.data.shape}, targets {targets.shape}")
    live = targets != pad_index
    n_live = int(live.sum())
    if n_live == 0:
        raise ValueError("empty target: all positions are padding")
    log_probs = generator_log_probs(x.data, w.data, bias.data)
    rows = np.arange(len(targets))
    picked = log_probs[rows, targets]
    loss = np.asarray(-picked[live].sum() / n_live, dtype=x.data.dtype)

    def backward(g):
        d_logits = np.exp(log_probs)
        d_logits[rows, targets] -= 1.0
        d_logits[~live] = 0.0
        d_logits *= g / n_live
        _accumulate(x, (w.data @ d_logits.T).T)
        _accumulate(w, x.data.T @ d_logits)
        _accumulate(bias, d_logits.sum(axis=0))

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
    """In-place w <- w - lr*g. It consumes the gradients: each is scaled by
    `lr` in place, with no temporary, and `zero_grads` then drops it."""
    for t in tensors:
        if t.grad is not None:
            t.grad *= lr
            t.data -= t.grad


def zero_grads(tensors: Iterable[Tensor]) -> None:
    for t in tensors:
        t.grad = None
