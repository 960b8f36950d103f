"""Shared encoder-decoder with attention for grapheme-to-phoneme conversion.

Architecture: embeddings on both sides, a stacked bidirectional LSTM encoder
(per-direction hidden = hidden_size/2, outputs concatenated), a stacked LSTM
decoder initialized from the encoder's final states, bilinear ("general")
global attention over encoder annotations, and a softmax generator over the
phoneme vocabulary. The decoder input is the previous target embedding
concatenated with the previous attentional vector (input feeding).

The parameters are one name-keyed dict of tensors (`ModelParams`) built from
one list, `param_specs(config)`, of (name, canonical shape, kind). Its order
is the checkpoint order and the order gradient norms sum in.

The math runs as three fused autodiff ops, so a training batch records three
tape entries for any source or target length. The encoder is one
`ad.encoder_sequence` over the [B,S] id matrix: the embedding lookup and every
layer, stepping a layer's two directions together, as a leading direction
axis of size 2 over the `fwd` and `bwd` cells' weights. The decoder is one
`ad.decoder_sequence` over the [T,B] previous-token ids and every target
step. `ad.cross_entropy` then runs the generator and the loss once over all
steps' attentional vectors.
Dropout masks are drawn once per batch, the encoder's as [layers-1, S, B, h]
and the decoder's as [T, layers-1, B, h]: the random stream of one [B,h] draw
per step and upper layer.

`decode_step` is inference only and works on plain arrays: it runs
`ad.decoder_step`, the per-step kernel of `decoder_sequence`, without
dropout, reading its embeddings through the ops' `ad.lookup` and its log-probs
from the loss's `ad.generator_log_probs`, so inference has no second copy of
the math and records nothing. The recurrent state has one layout, h and c
[layers, B, h], from the encoder's final states in `EncodedSource` to a
`DecoderState`; `_start_layers` picks each decoder layer's start with one
index. A one-row `EncodedSource` serves any number of decoder rows, since the
kernel's attention broadcasts it. Beam search passes all its live hypotheses
as the rows of one `DecoderState`, so the model knows nothing of the beam.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .corpus import BOS_ID, EOS_ID, PAD_ID

GATE_ORDER = "input,forget,cell,output"
POOL_FACTOR = 20  # batches per length-sorting window in `make_batches`


@dataclass
class ModelConfig:
    src_vocab_size: int
    tgt_vocab_size: int
    hidden_size: int = 150
    src_embed: int = 150
    tgt_embed: int = 150
    enc_layers: int = 2
    dec_layers: int = 2
    dropout: float = 0.3
    input_feeding: bool = True

    def __post_init__(self):
        for name in ("src_vocab_size", "tgt_vocab_size", "hidden_size", "src_embed",
                     "tgt_embed", "enc_layers", "dec_layers"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:  # a bool or a float is not a size
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.hidden_size % 2 != 0:
            raise ValueError("hidden_size must be even (split across encoder directions)")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


# A parameter's kind fixes its initialization and the layout the model holds
# it in. "weight": a matrix that multiplies activations, canonical [out x in],
# held [in x out] C-contiguous so every product is `x @ w`. "table": an
# embedding table or the attention score matrix, held as written. Both draw
# uniform(-0.1, 0.1). "cell_bias": an LSTM bias, zero but for the forget-gate
# slice at 1.0. "bias": zero.
ParamSpec = tuple[str, tuple[int, ...], str]  # (name, canonical shape, kind)

# Parameters by name, in `param_specs` order.
ModelParams = dict[str, Tensor]


def _cell_specs(prefix: str, in_size: int, hidden: int) -> list[ParamSpec]:
    """One LSTM cell, gates ordered i,f,g,o along the 4h axis."""
    return [(f"{prefix}.input_weights", (4 * hidden, in_size), "weight"),
            (f"{prefix}.recurrent_weights", (4 * hidden, hidden), "weight"),
            (f"{prefix}.bias", (4 * hidden,), "cell_bias")]


def param_specs(config: ModelConfig) -> list[ParamSpec]:
    """Every parameter of `config`'s model, in checkpoint order: embeddings,
    encoder (per layer, fwd then bwd), decoder, attention, generator. Shapes
    are canonical, the layout checkpoints hold."""
    h = config.hidden_size
    specs = [("src_embedding", (config.src_vocab_size, config.src_embed), "table"),
             ("tgt_embedding", (config.tgt_vocab_size, config.tgt_embed), "table")]
    for layer in range(config.enc_layers):
        in_size = config.src_embed if layer == 0 else h
        for direction in ("fwd", "bwd"):
            specs += _cell_specs(f"encoder.l{layer}.{direction}", in_size, h // 2)
    for layer in range(config.dec_layers):
        in_size = h if layer else config.tgt_embed + (h if config.input_feeding else 0)
        specs += _cell_specs(f"decoder.l{layer}", in_size, h)
    return specs + [("attention.score_weights", (h, h), "table"),  # top @ W @ a_s
                    ("attention.output_weights", (h, 2 * h), "weight"),  # on [context; top]
                    ("attention.output_bias", (h,), "bias"),
                    ("generator.weights", (config.tgt_vocab_size, h), "weight"),
                    ("generator.bias", (config.tgt_vocab_size,), "bias")]


def _build(specs: list[ParamSpec], arrays: dict[str, np.ndarray], dtype) -> ModelParams:
    """Private C-contiguous `dtype` copies of canonical `arrays`, in spec
    order, each in the layout the model holds its kind in."""
    return {name: Tensor((arrays[name].T if kind == "weight" else arrays[name])
                         .astype(dtype, order="C"), name=name)
            for name, _, kind in specs}


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic initialization: weights uniform(-0.1, 0.1), biases zero,
    forget-gate bias 1.0.

    The uniform draws come in an order of their own, which fixes what a seed
    initializes: every LSTM cell, encoder then decoder, before the embeddings,
    the attention matrices and the generator."""
    rng = np.random.default_rng(seed)
    specs = param_specs(config)
    cells_first = sorted(specs, key=lambda spec: not spec[0].startswith(("encoder.", "decoder.")))
    arrays = {}
    for name, shape, kind in cells_first:
        uniform = kind in ("weight", "table")
        arrays[name] = rng.uniform(-0.1, 0.1, shape) if uniform else np.zeros(shape)
        if kind == "cell_bias":
            arrays[name][shape[0] // 4 : shape[0] // 2] = 1.0  # the forget gate's slice
    return _build(specs, arrays, dtype)


def clone_params(params: ModelParams) -> ModelParams:
    """Deep copy of all parameter buffers (gradients are not copied)."""
    return {name: Tensor(t.data.copy(), name=name) for name, t in params.items()}


def params_from_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> ModelParams:
    """Rebuild float32 ModelParams from named arrays in the canonical layout
    (e.g. a loaded checkpoint), which must hold exactly `param_specs`'s
    tensors, every entry finite; the arrays are copied, not kept."""
    specs = param_specs(config)
    unexpected = arrays.keys() - {name for name, _, _ in specs}
    if unexpected:
        raise ValueError(f"unexpected tensor {min(unexpected)!r}")
    for name, shape, _ in specs:
        if name not in arrays:
            raise ValueError(f"missing tensor {name!r}")
        if arrays[name].shape != shape:
            raise ValueError(f"tensor {name!r}: expected shape {shape}, got {arrays[name].shape}")
        if not np.isfinite(arrays[name]).all():
            raise ValueError(f"tensor {name!r} holds a NaN or an infinity")
    return _build(specs, arrays, np.float32)


def canonical_arrays(params: ModelParams, config: ModelConfig) -> dict[str, np.ndarray]:
    """Named parameter arrays in the canonical layout, as views: the inverse
    of `params_from_arrays`."""
    return {name: params[name].data.T if kind == "weight" else params[name].data
            for name, _, kind in param_specs(config)}


def _cell(params: ModelParams, prefix: str) -> tuple[Tensor, Tensor, Tensor]:
    """The LSTM cell `prefix`: (w_in [in x 4h], w_rec [h x 4h], bias [4h])."""
    return tuple(params[f"{prefix}.{part}"]
                 for part in ("input_weights", "recurrent_weights", "bias"))


# --- forward computation -----------------------------------------------------


@dataclass
class EncodedSource:
    annotations: Tensor        # [B, S, h]; one row (B=1) may serve any number of decoder rows
    mask_add: np.ndarray       # [B, S]: 0 at real tokens, -1e9 at padding (`ad.attend`'s form)
    final_h: Tensor            # [enc_layers, B, h]: each layer's final state, fwd half first
    final_c: Tensor            # [enc_layers, B, h]: each layer's final cell state


@dataclass
class DecoderState:
    """Inference-time decoder state of B rows, as plain arrays."""

    h: np.ndarray     # [layers, B, h]
    c: np.ndarray     # [layers, B, h]
    attn: np.ndarray  # previous attentional vector [B, h]


def pad_batch(rows: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer sequences with PAD_ID into an id matrix plus a 0/1 mask."""
    lengths = [len(r) for r in rows]
    real = np.arange(max(lengths)) < np.array(lengths)[:, None]
    ids = np.full(real.shape, PAD_ID, dtype=np.intp)
    ids[real] = np.fromiter(itertools.chain.from_iterable(rows), np.intp, sum(lengths))
    return ids, real.astype(np.float64)


def _keep_scale(shape, config: ModelConfig, training: bool, rng, dtype) -> np.ndarray | None:
    """Inverted-dropout scale, 0 or 1/(1-rate), drawn from `rng` in `shape`'s
    order; None when training drops nothing."""
    if not training or config.dropout == 0 or 0 in shape:
        return None
    return (rng.random(shape) >= config.dropout).astype(dtype) / (1.0 - config.dropout)


def encode(
    src_rows: Sequence[Sequence[int]],
    params: ModelParams,
    config: ModelConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> EncodedSource:
    """Run the bidirectional encoder over a batch of source id sequences."""
    if not src_rows or any(len(r) == 0 for r in src_rows):
        raise ValueError("empty source")
    dtype = params["src_embedding"].data.dtype
    ids, mask = pad_batch(src_rows)
    mask = mask.astype(dtype)

    # one [B,h] draw per step and upper layer: [S,B,h] per layer, in layer order
    keep = _keep_scale((config.enc_layers - 1, ids.shape[1], len(src_rows), config.hidden_size),
                       config, training, rng, dtype)
    annotations, final_h, final_c = ad.encoder_sequence(
        params["src_embedding"], ids, mask,
        [[_cell(params, f"encoder.l{layer}.{direction}") for direction in ("fwd", "bwd")]
         for layer in range(config.enc_layers)],
        keep=None if keep is None else keep.transpose(0, 2, 1, 3))
    return EncodedSource(annotations, _mask_add(mask), final_h, final_c)


def _start_layers(config: ModelConfig) -> np.ndarray:
    """Each decoder layer's start, as an index into the encoder's final states:
    the encoder layer of the same index, or the top one for the layers above."""
    return np.minimum(np.arange(config.dec_layers), config.enc_layers - 1)


def initial_state(encoded: EncodedSource, config: ModelConfig) -> DecoderState:
    """Decoder start state: encoder final states per layer, zero attentional vector."""
    starts = _start_layers(config)
    h = encoded.final_h.data[starts]
    return DecoderState(h, encoded.final_c.data[starts], np.zeros_like(h[0]))


_MASK_SCALE = 1e9


def _mask_add(mask: np.ndarray) -> np.ndarray:
    """0 at real source positions, -1e9 at padding: `ad.attend`'s `mask_add`."""
    return (mask - 1.0) * _MASK_SCALE


def attend(
    decoder_top_h: np.ndarray,
    annotations: np.ndarray,
    mask: np.ndarray,
    score_weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Bilinear attention: weights = softmax(h^T W a_s) over unmasked positions,
    context = sum_s weights_s * a_s, on plain arrays. Annotations and mask may
    be a single row shared by every query. Returns (context [B,h], weights [B,S])."""
    return ad.attend(decoder_top_h, annotations, _mask_add(mask), score_weights)


def decode_step(
    prev_ids,
    state: DecoderState,
    encoded: EncodedSource,
    params: ModelParams,
    config: ModelConfig,
) -> tuple[np.ndarray, DecoderState]:
    """One inference step, without dropout, on plain arrays; returns
    (log_probs [B, Vt], new state). It runs `ad.decoder_step`, the step
    kernel of training's `ad.decoder_sequence`, and records nothing.

    `encoded` may hold one source row for all B decoder rows (a beam)."""
    prev_ids = np.asarray(prev_ids, dtype=np.intp)
    emb = ad.lookup(params["tgt_embedding"].data, prev_ids)
    x0 = np.concatenate([emb, state.attn], axis=1) if config.input_feeding else emb
    ann = encoded.annotations.data
    buf = ad.DecoderBuffers(1, len(prev_ids), config.dec_layers, config.hidden_size,
                            ann.shape[1], ann.dtype)
    cells = [tuple(t.data for t in _cell(params, f"decoder.l{layer}"))
             for layer in range(config.dec_layers)]
    ad.decoder_step(buf, 0, x0, state.h, state.c, cells,
                    (params["attention.score_weights"].data,
                     params["attention.output_weights"].data,
                     params["attention.output_bias"].data),
                    ann, encoded.mask_add)
    log_probs = ad.generator_log_probs(buf.attn[1], params["generator.weights"].data,
                                       params["generator.bias"].data)
    return log_probs, DecoderState(buf.h[:, 1], buf.c[:, 1], buf.attn[1])


def forward_loss(
    batch: Sequence[tuple[Sequence[int], Sequence[int]]],
    params: ModelParams,
    config: ModelConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced cross-entropy over a batch of (src_ids, tgt_ids) pairs.

    Targets are wrapped as BOS ... EOS internally; PAD positions contribute
    no loss, and attention never sees padded source positions. The decoder
    runs as one `ad.decoder_sequence` over all steps, and the generator and
    loss as one `ad.cross_entropy` over every step's attentional vectors.
    """
    if not batch:
        raise ValueError("empty batch")
    src_rows = [pair[0] for pair in batch]
    tgt_rows = [pair[1] for pair in batch]
    encoded = encode(src_rows, params, config, training=training, rng=rng)

    dec_inputs, _ = pad_batch([[BOS_ID] + list(t) for t in tgt_rows])
    golds, _ = pad_batch([list(t) + [EOS_ID] for t in tgt_rows])
    steps = golds.shape[1]
    dtype = params["tgt_embedding"].data.dtype
    # one [B,h] draw per step and upper layer, in the order a step-by-step decoder draws
    keep = _keep_scale((steps, config.dec_layers - 1, len(batch), config.hidden_size),
                       config, training, rng, dtype)

    attn_vecs = ad.decoder_sequence(
        params["tgt_embedding"], dec_inputs.T, encoded.final_h, encoded.final_c,
        _start_layers(config), encoded.annotations, encoded.mask_add,
        [_cell(params, f"decoder.l{layer}") for layer in range(config.dec_layers)],
        params["attention.score_weights"], params["attention.output_weights"],
        params["attention.output_bias"], keep=keep, input_feeding=config.input_feeding)
    # attn_vecs are step-major, [steps*B, h]
    return ad.cross_entropy(attn_vecs, params["generator.weights"], params["generator.bias"],
                            golds.T.reshape(-1), PAD_ID)


def target_token_count(batch: Sequence[tuple[Sequence[int], Sequence[int]]]) -> int:
    """Non-pad target positions in a batch (each target contributes len+1 for EOS)."""
    return sum(len(tgt) + 1 for _, tgt in batch)


# --- training ----------------------------------------------------------------


@dataclass
class TrainingSchedule:
    epochs: int = 13
    batch_size: int = 64
    lr: float = 1.0
    clip: float = 5.0
    seed: int = 1
    lr_decay_factor: float | None = None
    lr_decay_start: int | None = None

    def __post_init__(self):
        if (self.lr_decay_factor is None) != (self.lr_decay_start is None):
            raise ValueError("lr_decay_factor and lr_decay_start must be set together")
        decays = self.lr_decay_start is not None
        for name, ok, rule in (("epochs", self.epochs >= 1, ">= 1"),
                               ("batch_size", self.batch_size >= 1, ">= 1"),
                               ("lr", self.lr >= 0, ">= 0"),  # lr 0 is allowed: it trains nothing
                               ("clip", self.clip > 0, "> 0"),
                               ("lr_decay_factor", not decays or self.lr_decay_factor > 0, "> 0"),
                               ("lr_decay_start", not decays or self.lr_decay_start >= 1, ">= 1")):
            if not ok:
                raise ValueError(f"{name} must be {rule}")


@dataclass
class EpochStats:
    epoch: int
    lr: float
    train_loss: float
    val_loss: float | None


@dataclass
class TrainResult:
    params: ModelParams
    best_params: ModelParams | None
    best_epoch: int | None
    history: list[EpochStats] = field(default_factory=list)


def make_batches(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    batch_size: int,
    rng: np.random.Generator,
) -> list[list[int]]:
    """Shuffle, then sort by source length within windows of batch_size*POOL_FACTOR
    to limit padding while keeping batch composition stochastic."""
    order = list(rng.permutation(len(pairs)))
    window = batch_size * POOL_FACTOR
    batches: list[list[int]] = []
    for start in range(0, len(order), window):
        chunk = sorted(order[start : start + window], key=lambda i: len(pairs[i][0]))
        for b in range(0, len(chunk), batch_size):
            batches.append(chunk[b : b + batch_size])
    return batches


def validation_loss(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    params: ModelParams,
    config: ModelConfig,
    batch_size: int = 64,
) -> float:
    """Token-weighted mean loss; independent of batching."""
    order = sorted(range(len(pairs)), key=lambda i: len(pairs[i][0]))
    total, tokens = 0.0, 0
    for start in range(0, len(order), batch_size):
        batch = [pairs[i] for i in order[start : start + batch_size]]
        n = target_token_count(batch)
        total += float(forward_loss(batch, params, config).data) * n
        tokens += n
    return total / tokens


def train_model(
    train_pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    val_pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    config: ModelConfig,
    schedule: TrainingSchedule,
    params: ModelParams | None = None,
    start_epoch: int = 1,
    epoch_callback: Callable[[int, ModelParams, EpochStats], None] | None = None,
) -> TrainResult:
    """SGD training with per-epoch shuffling, length-bucketed batches, global-norm
    gradient clipping, and an optional learning-rate decay. A batch whose loss
    or global gradient norm is not finite raises RuntimeError naming the epoch
    and batch, before the update, so no parameter is touched; a validation
    loss that is not finite raises it naming the epoch, before the epoch's
    parameters can become the best.

    Keeps (a copy of) the parameters with the best validation loss alongside the
    final ones. Deterministic for a fixed seed, config, and data.
    """
    if not train_pairs:
        raise ValueError("empty training set")
    if params is None:
        params = init_params(config, seed=schedule.seed)
    tensors = list(params.values())
    shuffle_rng = np.random.default_rng([schedule.seed, 1])
    dropout_rng = np.random.default_rng([schedule.seed, 2])

    result = TrainResult(params=params, best_params=None, best_epoch=None)
    best_val = math.inf
    lr = schedule.lr
    for epoch in range(1, schedule.epochs + 1):
        if schedule.lr_decay_start is not None and epoch >= schedule.lr_decay_start:
            lr *= schedule.lr_decay_factor
        if epoch < start_epoch:  # a resumed run replays the decay of the epochs it skips
            continue
        batches = make_batches(train_pairs, schedule.batch_size, shuffle_rng)
        total, tokens = 0.0, 0
        for batch_no, batch_idx in enumerate(batches):
            batch = [train_pairs[i] for i in batch_idx]
            with ad.Tape() as tape:
                loss = forward_loss(batch, params, config, training=True, rng=dropout_rng)
                tape.backward(loss)
            norm = ad.clip_gradients(tensors, schedule.clip)
            if not (np.isfinite(loss.data) and math.isfinite(norm)):
                raise RuntimeError(f"non-finite loss or gradient at epoch {epoch}, "
                                   f"batch {batch_no}; no parameter was updated")
            ad.sgd_step(tensors, lr)
            ad.zero_grads(tensors)
            n = target_token_count(batch)
            total += float(loss.data) * n
            tokens += n
        val = validation_loss(val_pairs, params, config, schedule.batch_size) if val_pairs else None
        if val is not None and not math.isfinite(val):
            raise RuntimeError(f"non-finite validation loss at epoch {epoch}")
        stats = EpochStats(epoch=epoch, lr=lr, train_loss=total / tokens, val_loss=val)
        result.history.append(stats)
        if val is not None and val < best_val:
            best_val = val
            result.best_params = clone_params(params)
            result.best_epoch = epoch
        if epoch_callback is not None:
            epoch_callback(epoch, params, stats)
    return result
