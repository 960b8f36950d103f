"""Shared encoder-decoder with attention for grapheme-to-phoneme conversion.

Architecture: embeddings on both sides, a stacked bidirectional LSTM encoder
(per-direction hidden = hidden_size/2, outputs concatenated), a stacked LSTM
decoder initialized from the encoder's final states, bilinear ("general")
global attention over encoder annotations, and a softmax generator over the
phoneme vocabulary. The decoder input is the previous target embedding
concatenated with the previous attentional vector (input feeding).

The math runs as fused autodiff ops. Each encoder direction of each layer is
one `lstm_sequence` over the whole padded batch, after a single embedding
lookup of the [B,S] id matrix. Input feeding keeps the decoder step by step:
per step, one `lstm_step` per layer and one `attention`. `forward_loss` then
runs the generator and the loss once over all steps' attentional vectors.
`decode_step` runs the same `_decoder_step` as training, without dropout, and
the loss's `ad.log_softmax`, so inference has no second code path; a one-row
`EncodedSource` can serve any number of decoder rows, since `attention`
broadcasts it. Beam search passes all its live hypotheses as the rows of one
`DecoderState` and reorders that state by gathering rows, so the model knows
nothing of the beam.
"""

from __future__ import annotations

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
        if self.hidden_size % 2 != 0:
            raise ValueError("hidden_size must be even (split across encoder directions)")
        for name in ("src_vocab_size", "tgt_vocab_size", "hidden_size", "src_embed",
                     "tgt_embed", "enc_layers", "dec_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")


# Weight matrices that multiply activations, by name suffix. In memory they
# are stored [in x out], C-contiguous, so every product is `x @ w`; their
# canonical layout, the one checkpoints hold and `_build_params`'s `buffer`
# hands out, is [out x in]. Every other tensor has one layout.
TRANSPOSED = (".input_weights", ".recurrent_weights", "attention.output_weights",
              "generator.weights")


@dataclass
class CellParams:
    """One LSTM cell; weights are stored [in x 4h] / [h x 4h], gates ordered
    i,f,g,o along the 4h axis."""

    input_weights: Tensor
    recurrent_weights: Tensor
    bias: Tensor


@dataclass
class AttentionParams:
    score_weights: Tensor   # [h x h] bilinear score matrix, top @ W @ a_s
    output_weights: Tensor  # stored [2h x h], applied to [context; decoder_top]
    output_bias: Tensor


@dataclass
class ModelParams:
    src_embedding: Tensor
    tgt_embedding: Tensor
    encoder: list[dict[str, CellParams]]  # per layer: {"fwd": ..., "bwd": ...}
    decoder: list[CellParams]
    attention: AttentionParams
    generator_weights: Tensor  # stored [h x Vt]
    generator_bias: Tensor

    def named(self):
        yield "src_embedding", self.src_embedding
        yield "tgt_embedding", self.tgt_embedding
        for i, layer in enumerate(self.encoder):
            for direction in ("fwd", "bwd"):
                cell = layer[direction]
                yield f"encoder.l{i}.{direction}.input_weights", cell.input_weights
                yield f"encoder.l{i}.{direction}.recurrent_weights", cell.recurrent_weights
                yield f"encoder.l{i}.{direction}.bias", cell.bias
        for i, cell in enumerate(self.decoder):
            yield f"decoder.l{i}.input_weights", cell.input_weights
            yield f"decoder.l{i}.recurrent_weights", cell.recurrent_weights
            yield f"decoder.l{i}.bias", cell.bias
        yield "attention.score_weights", self.attention.score_weights
        yield "attention.output_weights", self.attention.output_weights
        yield "attention.output_bias", self.attention.output_bias
        yield "generator.weights", self.generator_weights
        yield "generator.bias", self.generator_bias

    def tensors(self) -> list[Tensor]:
        return [t for _, t in self.named()]


def _cell_bias(four_h: int) -> np.ndarray:
    # forget-gate slice initialized to 1.0 for stable early training
    b = np.zeros(four_h)
    h = four_h // 4
    b[h : 2 * h] = 1.0
    return b


def _build_params(
    config: ModelConfig,
    dtype,
    buffer: Callable[[str, tuple[int, ...], str], np.ndarray],
) -> ModelParams:
    """Assemble ModelParams from `buffer(name, shape, kind)`, called once per
    tensor in the order `init_params` draws them, with the canonical shape.
    `kind` is "weight", "cell_bias" (forget-gate slice 1.0 at initialization)
    or "bias". Each tensor is a private C-contiguous `dtype` copy of its
    buffer, transposed to [in x out] if its name is in `TRANSPOSED`."""
    h = config.hidden_size
    half = h // 2

    def tensor(name: str, shape: tuple[int, ...], kind: str = "weight") -> Tensor:
        data = buffer(name, shape, kind)
        if name.endswith(TRANSPOSED):
            data = data.T
        return Tensor(data.astype(dtype, order="C"), name=name)

    def make_cell(prefix: str, in_size: int, hidden: int) -> CellParams:
        return CellParams(
            input_weights=tensor(f"{prefix}.input_weights", (4 * hidden, in_size)),
            recurrent_weights=tensor(f"{prefix}.recurrent_weights", (4 * hidden, hidden)),
            bias=tensor(f"{prefix}.bias", (4 * hidden,), "cell_bias"),
        )

    encoder = []
    for layer in range(config.enc_layers):
        in_size = config.src_embed if layer == 0 else h
        encoder.append({d: make_cell(f"encoder.l{layer}.{d}", in_size, half)
                        for d in ("fwd", "bwd")})
    decoder = []
    for layer in range(config.dec_layers):
        if layer == 0:
            in_size = config.tgt_embed + (h if config.input_feeding else 0)
        else:
            in_size = h
        decoder.append(make_cell(f"decoder.l{layer}", in_size, h))

    return ModelParams(
        src_embedding=tensor("src_embedding", (config.src_vocab_size, config.src_embed)),
        tgt_embedding=tensor("tgt_embedding", (config.tgt_vocab_size, config.tgt_embed)),
        encoder=encoder,
        decoder=decoder,
        attention=AttentionParams(
            score_weights=tensor("attention.score_weights", (h, h)),
            output_weights=tensor("attention.output_weights", (h, 2 * h)),
            output_bias=tensor("attention.output_bias", (h,), "bias"),
        ),
        generator_weights=tensor("generator.weights", (config.tgt_vocab_size, h)),
        generator_bias=tensor("generator.bias", (config.tgt_vocab_size,), "bias"),
    )


def init_params(config: ModelConfig, seed: int, dtype=np.float32) -> ModelParams:
    """Deterministic initialization: weights uniform(-0.1, 0.1), biases zero,
    forget-gate bias 1.0."""
    rng = np.random.default_rng(seed)

    def buffer(name: str, shape: tuple[int, ...], kind: str) -> np.ndarray:
        if kind == "weight":
            return rng.uniform(-0.1, 0.1, shape)
        return _cell_bias(shape[0]) if kind == "cell_bias" else np.zeros(shape)

    return _build_params(config, dtype, buffer)


def clone_params(params: ModelParams) -> ModelParams:
    """Deep copy of all parameter buffers (gradients are not copied)."""

    def copy(t: Tensor) -> Tensor:
        return Tensor(t.data.copy(), name=t.name)

    def copy_cell(cell: CellParams) -> CellParams:
        return CellParams(copy(cell.input_weights), copy(cell.recurrent_weights), copy(cell.bias))

    attention = params.attention
    return ModelParams(
        src_embedding=copy(params.src_embedding),
        tgt_embedding=copy(params.tgt_embedding),
        encoder=[{d: copy_cell(cell) for d, cell in layer.items()} for layer in params.encoder],
        decoder=[copy_cell(cell) for cell in params.decoder],
        attention=AttentionParams(copy(attention.score_weights), copy(attention.output_weights),
                                  copy(attention.output_bias)),
        generator_weights=copy(params.generator_weights),
        generator_bias=copy(params.generator_bias),
    )


def params_from_arrays(config: ModelConfig, arrays: dict[str, np.ndarray]) -> ModelParams:
    """Rebuild float32 ModelParams from named arrays in the canonical layout
    (e.g. a loaded checkpoint); the arrays are copied, not kept."""

    def buffer(name: str, shape: tuple[int, ...], kind: str) -> np.ndarray:
        if name not in arrays:
            raise ValueError(f"missing tensor {name!r}")
        if arrays[name].shape != shape:
            raise ValueError(f"tensor {name!r}: expected shape {shape}, got {arrays[name].shape}")
        return arrays[name]

    return _build_params(config, np.float32, buffer)


def canonical_arrays(params: ModelParams) -> dict[str, np.ndarray]:
    """Named parameter arrays in the canonical layout, as views: the inverse
    of `params_from_arrays`."""
    return {name: t.data.T if name.endswith(TRANSPOSED) else t.data
            for name, t in params.named()}


# --- forward computation -----------------------------------------------------


@dataclass
class EncodedSource:
    annotations: Tensor        # [B, S, h]; one row (B=1) may serve any number of decoder rows
    mask: np.ndarray           # [B, S] float 0/1, 1 at real tokens
    final_states: list[tuple[Tensor, Tensor]]  # per decoder-init layer: (h0, c0), each [B, h]


@dataclass
class DecoderState:
    layers: list[tuple[Tensor, Tensor]]  # per layer (h, c), each [B, h]
    attn: Tensor                         # previous attentional vector [B, h]


def pad_batch(rows: Sequence[Sequence[int]], pad_id: int = PAD_ID) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad integer sequences into an id matrix plus a 0/1 mask."""
    batch = len(rows)
    width = max(len(r) for r in rows)
    ids = np.full((batch, width), pad_id, dtype=np.intp)
    mask = np.zeros((batch, width), dtype=np.float64)
    for i, r in enumerate(rows):
        ids[i, : len(r)] = r
        mask[i, : len(r)] = 1.0
    return ids, mask


def _zeros(b: int, n: int, dtype) -> Tensor:
    return Tensor(np.zeros((b, n), dtype=dtype))


def _trim_pads(row: Sequence[int]) -> Sequence[int]:
    end = len(row)
    while end > 0 and row[end - 1] == PAD_ID:
        end -= 1
    return row[:end]


def encode(
    src_rows: Sequence[Sequence[int]],
    params: ModelParams,
    config: ModelConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> EncodedSource:
    """Run the bidirectional encoder over a batch of source id sequences.

    Trailing PAD ids count as padding, not content."""
    src_rows = [_trim_pads(r) for r in src_rows]
    if not src_rows or any(len(r) == 0 for r in src_rows):
        raise ValueError("empty source")
    dtype = params.src_embedding.data.dtype
    ids, mask = pad_batch(src_rows)
    mask = mask.astype(dtype)

    x = ad.embedding_lookup(params.src_embedding, ids)  # [B, S, e]
    final_states: list[tuple[Tensor, Tensor]] = []
    for layer_idx, layer in enumerate(params.encoder):
        if layer_idx > 0 and training and config.dropout > 0:
            # drawn in [S,B,e] order: the random stream of one [B,e] draw per step
            x = ad.dropout(x, config.dropout, rng, draw_order=(1, 0, 2))
        (out_f, h_f, c_f), (out_b, h_b, c_b) = (
            ad.lstm_sequence(x, mask, cell.input_weights, cell.recurrent_weights, cell.bias,
                             reverse=reverse)
            for cell, reverse in ((layer["fwd"], False), (layer["bwd"], True)))
        x = ad.concat([out_f, out_b])
        final_states.append((ad.concat([h_f, h_b]), ad.concat([c_f, c_b])))
    return EncodedSource(x, mask, final_states)


def initial_state(encoded: EncodedSource, config: ModelConfig) -> DecoderState:
    """Decoder start state: encoder final states per layer, zero attentional vector."""
    batch = encoded.mask.shape[0]
    dtype = encoded.annotations.data.dtype
    layers = [encoded.final_states[min(i, len(encoded.final_states) - 1)]
              for i in range(config.dec_layers)]
    return DecoderState(layers=list(layers), attn=_zeros(batch, config.hidden_size, dtype))


_MASK_SCALE = 1e9


def attend(
    decoder_top_h: Tensor,
    annotations: Tensor,
    mask: np.ndarray,
    attention: AttentionParams,
) -> tuple[Tensor, np.ndarray]:
    """Bilinear attention: weights = softmax(h^T W a_s) over unmasked positions,
    context = sum_s weights_s * a_s. Annotations and mask may be a single row
    shared by every query. Returns (context [B,h], weights [B,S] as an array)."""
    return ad.attention(decoder_top_h, annotations, (mask - 1.0) * _MASK_SCALE,
                        attention.score_weights)


def _decoder_step(
    prev_ids: np.ndarray,
    state: DecoderState,
    encoded: EncodedSource,
    params: ModelParams,
    config: ModelConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> DecoderState:
    """One decoder step from raw previous-token ids; the new state's `attn` is
    the attentional vector the generator reads."""
    emb = ad.embedding_lookup(params.tgt_embedding, prev_ids)
    x = ad.concat([emb, state.attn]) if config.input_feeding else emb
    new_layers: list[tuple[Tensor, Tensor]] = []
    for layer_idx, cell in enumerate(params.decoder):
        if layer_idx > 0 and training and config.dropout > 0:
            x = ad.dropout(x, config.dropout, rng)
        h, c = ad.lstm_step(x, *state.layers[layer_idx], cell.input_weights,
                            cell.recurrent_weights, cell.bias)
        new_layers.append((h, c))
        x = h
    context, _ = attend(x, encoded.annotations, encoded.mask, params.attention)
    attn_vec = ad.tanh(ad.linear(ad.concat([context, x]), params.attention.output_weights,
                                 params.attention.output_bias))
    return DecoderState(new_layers, attn_vec)


def _generator(attn_vecs: Tensor, params: ModelParams) -> Tensor:
    return ad.linear(attn_vecs, params.generator_weights, params.generator_bias)


def decode_step(
    prev_ids,
    state: DecoderState,
    encoded: EncodedSource,
    params: ModelParams,
    config: ModelConfig,
) -> tuple[np.ndarray, DecoderState]:
    """One inference step, without dropout, run under `ad.inference_mode`;
    returns (log_probs [B, Vt] as a plain array, new state).

    `encoded` may hold one source row for all B decoder rows (a beam)."""
    prev_ids = np.asarray(prev_ids, dtype=np.intp)
    if prev_ids.size and prev_ids.max() >= config.tgt_vocab_size:
        raise IndexError("target id out of range")
    new_state = _decoder_step(prev_ids, state, encoded, params, config)
    return ad.log_softmax(_generator(new_state.attn, params).data), new_state


def forward_loss(
    batch: Sequence[tuple[Sequence[int], Sequence[int]]],
    params: ModelParams,
    config: ModelConfig,
    training: bool = False,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Teacher-forced cross-entropy over a batch of (src_ids, tgt_ids) pairs.

    Targets are wrapped as BOS ... EOS internally; PAD positions contribute
    no loss, and attention never sees padded source positions. The generator
    and loss run once over every step's attentional vectors.
    """
    if not batch:
        raise ValueError("empty batch")
    src_rows = [pair[0] for pair in batch]
    tgt_rows = [pair[1] for pair in batch]
    encoded = encode(src_rows, params, config, training=training, rng=rng)
    state = initial_state(encoded, config)

    dec_inputs, _ = pad_batch([[BOS_ID] + list(t) for t in tgt_rows])
    golds, _ = pad_batch([list(t) + [EOS_ID] for t in tgt_rows])
    steps = golds.shape[1]

    attn_vecs = []
    for t in range(steps):
        state = _decoder_step(dec_inputs[:, t], state, encoded, params, config,
                              training=training, rng=rng)
        attn_vecs.append(state.attn)
    logits = _generator(ad.concat(attn_vecs, axis=0), params)  # [steps*B, Vt], step-major
    flat_targets = golds.T.reshape(-1)
    return ad.cross_entropy(logits, flat_targets, PAD_ID)


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


def _epoch_loss(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    batches: Sequence[Sequence[int]],
    loss_of_batch: Callable[[list], float],
) -> float:
    total, tokens = 0.0, 0
    for batch_idx in batches:
        batch = [pairs[i] for i in batch_idx]
        n = target_token_count(batch)
        total += loss_of_batch(batch) * n
        tokens += n
    return total / tokens


def validation_loss(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]],
    params: ModelParams,
    config: ModelConfig,
    batch_size: int = 64,
) -> float:
    """Token-weighted mean loss; independent of batching."""
    order = sorted(range(len(pairs)), key=lambda i: len(pairs[i][0]))
    batches = [order[i : i + batch_size] for i in range(0, len(order), batch_size)]
    with ad.inference_mode():
        return _epoch_loss(pairs, batches, lambda b: float(forward_loss(b, params, config).data))


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
    and batch, before the update, so no parameter is touched.

    Keeps (a copy of) the parameters with the best validation loss alongside the
    final ones. Deterministic for a fixed seed, config, and data.
    """
    if not train_pairs:
        raise ValueError("empty training set")
    if params is None:
        params = init_params(config, seed=schedule.seed)
    tensors = params.tensors()
    shuffle_rng = np.random.default_rng([schedule.seed, 1])
    dropout_rng = np.random.default_rng([schedule.seed, 2])

    result = TrainResult(params=params, best_params=None, best_epoch=None)
    best_val = math.inf
    lr = schedule.lr
    for epoch in range(start_epoch, schedule.epochs + 1):
        if (schedule.lr_decay_factor is not None and schedule.lr_decay_start is not None
                and epoch >= schedule.lr_decay_start):
            lr *= schedule.lr_decay_factor
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
        stats = EpochStats(epoch=epoch, lr=lr, train_loss=total / tokens, val_loss=val)
        result.history.append(stats)
        if val is not None and val < best_val:
            best_val = val
            result.best_params = clone_params(params)
            result.best_epoch = epoch
        if epoch_callback is not None:
            epoch_callback(epoch, params, stats)
    return result
