import dataclasses
import hashlib
import math

import numpy as np
import pytest

from helpers import (
    OracleModel,
    assert_in_x_out,
    buffer_bytes,
    in_x_out_shapes,
    scalar_cell_step,
    tiny_model,
    traced_backward,
)
from polyg2p import autodiff as ad
from polyg2p.autodiff import Tape
from polyg2p.corpus import EOS_ID, PAD_ID
from polyg2p.decoding import score_sequence
from polyg2p.model import (
    ModelConfig,
    TrainingSchedule,
    _keep_scale,
    attend,
    canonical_arrays,
    clone_params,
    decode_step,
    encode,
    forward_loss,
    init_params,
    initial_state,
    pad_batch,
    param_specs,
    params_from_arrays,
    target_token_count,
    train_model,
)


def _zero_cell(in_size, hidden):
    """(w_in [in x 4h], w_rec [h x 4h], bias [4h]), all zero."""
    return np.zeros((in_size, 4 * hidden)), np.zeros((hidden, 4 * hidden)), np.zeros(4 * hidden)


def _cell_step(x, h, c, cell):
    """One LSTM update of [B,in] input and [B,n] state through the decoder's
    step kernel, as a one-layer decoder; returns (h', c')."""
    batch, n = h.shape
    buf = ad.DecoderBuffers(1, batch, 1, n, 1, x.dtype)
    no_attention = (np.zeros((n, n)), np.zeros((2 * n, n)), np.zeros(n))
    ad.decoder_step(buf, 0, x, h[None], c[None], [cell], no_attention, np.zeros((1, 1, n)),
                    np.zeros((1, 1)))
    return buf.h[0, 1], buf.c[0, 1]


def test_cell_step_all_zero_parameters_give_zero_state():
    cell = _zero_cell(3, 4)
    h, c = _cell_step(np.ones((2, 3)), np.zeros((2, 4)), np.zeros((2, 4)), cell)
    assert np.allclose(h, 0.0)
    assert np.allclose(c, 0.0)


def test_cell_step_saturated_gates_carry_memory():
    # forget gate driven to ~1, input gate to ~0: c' = c
    cell = _zero_cell(3, 4)
    bias = cell[2]
    bias[0:4] = -50.0   # input gate
    bias[4:8] = 50.0    # forget gate
    c0 = np.array([[0.3, -0.7, 1.2, 0.0]])
    _, c1 = _cell_step(np.ones((1, 3)), np.zeros((1, 4)), c0, cell)
    assert np.allclose(c1, c0, atol=1e-6)


def test_cell_step_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    cell = (  # drawn [4h x in] and [4h x h], stored transposed
        np.ascontiguousarray(rng.uniform(-0.5, 0.5, (16, 3)).T),
        np.ascontiguousarray(rng.uniform(-0.5, 0.5, (16, 4)).T),
        rng.uniform(-0.5, 0.5, 16),
    )
    x = rng.uniform(-1, 1, 3)
    h0 = rng.uniform(-1, 1, 4)
    c0 = rng.uniform(-1, 1, 4)
    h1, c1 = _cell_step(x[None], h0[None], c0[None], cell)
    oh, oc = scalar_cell_step(x.tolist(), h0.tolist(), c0.tolist(), cell[0].T.tolist(),
                              cell[1].T.tolist(), cell[2].tolist())
    assert np.allclose(h1[0], oh, atol=1e-6)
    assert np.allclose(c1[0], oc, atol=1e-6)


def test_encode_single_token_annotation_shape_default_config():
    config = ModelConfig(src_vocab_size=6, tgt_vocab_size=5)
    params = init_params(config, seed=0)
    encoded = encode([[4]], params, config)
    assert encoded.annotations.data.shape == (1, 1, 150)


def test_encode_palindrome_symmetry():
    # fwd/bwd share weights; deeper layers are also made invariant to swapping
    # the two halves of their input, so the symmetry propagates upward
    config, params = tiny_model(seed=2, hidden=6, dtype=np.float64)
    half = config.hidden_size // 2
    for layer_idx in range(config.enc_layers):
        if layer_idx > 0:
            w = params[f"encoder.l{layer_idx}.fwd.input_weights"].data  # [in x 4h]
            w[half:] = w[:half]
        for field in ("input_weights", "recurrent_weights", "bias"):
            params[f"encoder.l{layer_idx}.bwd.{field}"].data = \
                params[f"encoder.l{layer_idx}.fwd.{field}"].data.copy()
    encoded = encode([[4, 5, 4]], params, config)
    ann = encoded.annotations.data[0]
    for t in range(3):
        assert np.allclose(ann[t, :half], ann[2 - t, half:], atol=1e-12)
        assert np.allclose(ann[t, half:], ann[2 - t, :half], atol=1e-12)


def test_encode_matches_scalar_oracle():
    config, params = tiny_model(seed=3, hidden=4, src_embed=3, tgt_embed=3, dtype=np.float64)
    oracle = OracleModel(params, config)
    src = [4, 7, 5]
    encoded = encode([src], params, config)
    expected_ann, expected_finals = oracle.encode(src)
    assert np.allclose(encoded.annotations.data[0], expected_ann, atol=1e-6)
    for h0, c0, (eh, ec) in zip(encoded.final_h.data, encoded.final_c.data, expected_finals):
        assert np.allclose(h0[0], eh, atol=1e-6)
        assert np.allclose(c0[0], ec, atol=1e-6)


def test_encode_tape_nodes_do_not_grow_with_source_length():
    # the encoder, with its source lookup
    config, params = tiny_model(seed=3, dropout=0.3)

    def nodes(length):
        with Tape() as tape:
            encode([[4 + i % 5 for i in range(length)], [5, 6]], params, config,
                   training=True, rng=np.random.default_rng(0))
        return len(tape.nodes)

    assert nodes(3) == nodes(12) == 1


def test_forward_loss_tape_entries_do_not_grow_with_target_length():
    # the encoder, the decoder (each with its lookup) and the generator with the loss
    def entries(layers, src_length, tgt_length):
        config, params = tiny_model(seed=3, dropout=0.3, **layers)
        batch = [([4 + i % 5 for i in range(src_length)], [4 + i % 5 for i in range(tgt_length)]),
                 ([5, 6], [7])]
        with Tape() as tape:
            forward_loss(batch, params, config, training=True, rng=np.random.default_rng(0))
        return len(tape.nodes)

    assert {entries(layers, s, t) for layers in ({}, {"enc_layers": 3, "dec_layers": 1})
            for s in (1, 3, 11) for t in (1, 2, 9)} == {3}


def test_encoder_dropout_draw_order_matches_stepwise_draws(monkeypatch):
    # encode draws each upper layer's mask as one [B,h] draw per source step,
    # layer after layer: the random stream of a step-by-step encoder
    config, params = tiny_model(seed=3, dropout=0.5, enc_layers=3)
    seen = []
    encoder_sequence = ad.encoder_sequence

    def spy(*args, keep):
        seen.append(keep)
        return encoder_sequence(*args, keep=keep)

    monkeypatch.setattr(ad, "encoder_sequence", spy)
    encode([[4, 5, 6, 7], [5, 6]], params, config, training=True, rng=np.random.default_rng(7))
    rng = np.random.default_rng(7)
    draws = [[rng.random((2, 8)) for _step in range(4)] for _layer in range(2)]
    expected = (np.array(draws) >= 0.5).transpose(0, 2, 1, 3) / 0.5  # [layers-1, B, S, h]
    assert np.array_equal(seen[0], expected)


@pytest.mark.parametrize("enc_layers,length", [(1, 1), (2, 5), (3, 4)])
def test_encode_runs_both_directions_in_one_cell_update_per_step(monkeypatch, enc_layers, length):
    # a layer steps its two directions together: one `_cell` call per layer
    # and source position, not one per direction
    config, params = tiny_model(seed=3, enc_layers=enc_layers)
    calls = []
    cell = ad._cell

    def counting(*args):
        calls.append(args[1].shape)
        return cell(*args)

    monkeypatch.setattr(ad, "_cell", counting)
    encode([list(range(4, 4 + length))], params, config)
    assert calls == [(2, 1, config.hidden_size // 2)] * (enc_layers * length)


def test_dropout_scale_is_zero_or_inverse_keep_rate():
    config, _ = tiny_model(dropout=0.25)
    keep = _keep_scale((200, 50), config, True, np.random.default_rng(0), np.float32)
    assert keep.dtype == np.float32
    assert set(np.unique(keep)) == {0.0, np.float32(1.0 / 0.75)}
    assert abs(keep.mean() - 1.0) < 0.02
    # nothing is dropped in inference, at rate 0, or without an upper layer
    assert _keep_scale((200, 50), config, False, np.random.default_rng(0), np.float32) is None
    assert _keep_scale((0, 3, 2, 8), config, True, np.random.default_rng(0), np.float32) is None
    config, _ = tiny_model(dropout=0.0)
    assert _keep_scale((200, 50), config, True, np.random.default_rng(0), np.float32) is None


# SHA-256 of one training-mode forward_loss (2 encoder layers, dropout 0.3, a
# padded batch, float32): the loss, then each parameter's name and gradient
# bytes in `named` order. Recorded before the encoder became one op; any
# change to the order of float32 arithmetic in training moves it. The bits
# also depend on the BLAS kernels: recorded with numpy 2.4.6 and
# scipy-openblas 0.3.31 on x86-64.
TRAINING_BITS = "4066cb16c767d2811f6562152a3efd8bd1ac446858a3aff7a428a370b7026e86"


def test_training_loss_and_gradients_match_recorded_bits():
    config = ModelConfig(src_vocab_size=12, tgt_vocab_size=10, hidden_size=8, src_embed=6,
                         tgt_embed=5, dropout=0.3)
    params = init_params(config, seed=23)
    batch = [([4, 11, 5, 6, 7], [4, 9, 5, 8]), ([5, 6], [7, 4, 6]), ([8, 9, 10], [9])]
    with Tape() as tape:
        loss = forward_loss(batch, params, config, training=True, rng=np.random.default_rng(4))
        tape.backward(loss)
    digest = hashlib.sha256(loss.data.tobytes())
    for name, tensor in params.items():
        digest.update(name.encode())
        digest.update(tensor.grad.tobytes())
    assert digest.hexdigest() == TRAINING_BITS


def _memory_batch(hidden, batch_size, src_len, tgt_len, vocab=20):
    """A dropout-training forward_loss of a random batch, run once to warm
    every cache, and the model's parameters."""
    config, params = tiny_model(src_vocab=vocab, tgt_vocab=vocab, hidden=hidden,
                                src_embed=hidden, tgt_embed=hidden, dropout=0.3)
    rng = np.random.default_rng(1)
    batch = [(list(rng.integers(4, vocab, src_len - i % 3)),
              list(rng.integers(4, vocab, tgt_len - i % 2))) for i in range(batch_size)]

    def loss_of():
        for t in params.values():
            t.grad = None
        return forward_loss(batch, params, config, training=True, rng=np.random.default_rng(2))

    with Tape() as tape:
        tape.backward(loss_of())
    return loss_of, params


def test_backward_keeps_only_gradients_and_op_outputs():
    # nothing an op saved for its backward outlives the walk; the tape still
    # holds its entries' outputs, and every tensor its gradient
    loss_of, params = _memory_batch(hidden=32, batch_size=8, src_len=10, tgt_len=9)
    _, _, held, tape = traced_backward(loss_of)
    outputs = [t for entry_outputs, _ in tape.nodes for t in entry_outputs]
    arrays = [t.data for t in outputs]
    arrays += [t.grad for t in outputs + list(params.values()) if t.grad is not None]
    object_bytes = 256 * (len(arrays) + len(outputs))  # each array's and tensor's header
    assert held <= buffer_bytes(arrays) + object_bytes


def test_backward_peak_stays_near_the_forward():
    # the gate factors and then each step's dpre overwrite the activations, and
    # each entry's saved arrays go once its backward has run: measured 1.25 here
    # (2.20 over 1.76 MB), 1.38 while the forward also saved what its backward
    # rebuilds, and 1.85 with a separate factor array and nothing freed
    loss_of, _ = _memory_batch(hidden=64, batch_size=16, src_len=12, tgt_len=10)
    forward, peak, _, _ = traced_backward(loss_of)
    assert peak / forward < 1.55


def test_forward_saves_only_what_backward_cannot_rebuild():
    # The arrays the forward saves, from their shapes: float32, 2+2 layers,
    # encoder cells of m=32 per direction, decoder cells of n=64, B=16 rows,
    # S=12 source steps and T=11 target steps (10 and EOS).
    loss_of, params = _memory_batch(hidden=64, batch_size=16, src_len=12, tgt_len=10)
    layers, batch, src, tgt, n, vocab = 2, 16, 12, 11, 64, 20
    m = n // 2
    encoder = layers * (2 * n * 4 * m + 2 * m * 4 * m  # stacked w_in (input 64) and w_rec
                        + src * 2 * batch * 4 * m      # gate activations
                        + 2 * (src + 1) * 2 * batch * m)  # h and c
    encoder += ((layers - 1) * src * batch * n         # dropout scale
                + batch * src * n + 2 * layers * batch * n)  # outputs: annotations, final h, c
    decoder = (2 * layers * (tgt + 1) * batch * n      # h and c
               + layers * tgt * batch * 4 * n          # gate activations
               + tgt * batch * (n + src + 2 * n)       # query, attention weights, [context; top]
               + (tgt + 1) * batch * n                 # attentional vectors, the output
               + (2 * layers - 1) * batch * n          # one step's dropped input and tanh(c)
               + tgt * (layers - 1) * batch * n)       # dropout scale
    saved = 4 * (encoder + decoder + tgt * batch * vocab)  # and the loss's log-probs
    # Below one all-step [T,B,n] array, the smallest that the backward
    # rebuilds: ids, masks and array headers fit in it, a rebuilt array does not.
    allowance = 4 * tgt * batch * n
    forward, peak, _, _ = traced_backward(loss_of)
    assert forward < saved + allowance
    # The backward's working arrays fit in the saved arrays it has freed, so it
    # peaks below the saved arrays plus every parameter gradient.
    grads = sum(t.data.nbytes for t in params.values())
    assert peak < saved + grads + allowance


def test_pad_batch_equals_the_per_row_loop():
    def padded_by_rows(rows, pad_id):
        ids = np.full((len(rows), max(len(r) for r in rows)), pad_id, dtype=np.intp)
        mask = np.zeros(ids.shape)
        for i, r in enumerate(rows):
            ids[i, : len(r)] = r
            mask[i, : len(r)] = 1.0
        return ids, mask

    rng = np.random.default_rng(28)
    ragged = [list(rng.integers(4, 50, rng.integers(1, 15))) for _ in range(64)]
    cases = ([[4, 5, 6], [7], [8, 9]], [[5]], [[4, 9, 9, 4]], [(6, 7), np.array([8, 9, 4])],
             [[3], [], [6, 7]], ragged)
    for rows in cases:
        for pad_id in (PAD_ID, 2):
            ids, mask = pad_batch(rows, pad_id)
            want_ids, want_mask = padded_by_rows(rows, pad_id)
            assert (ids.dtype, mask.dtype) == (np.intp, np.float64)
            np.testing.assert_array_equal(ids, want_ids)
            np.testing.assert_array_equal(mask, want_mask)


def test_encode_rejects_empty_input():
    config, params = tiny_model()
    with pytest.raises(ValueError, match="empty source"):
        encode([], params, config)
    with pytest.raises(ValueError, match="empty source"):
        encode([[]], params, config)


def test_encode_rejects_out_of_range_ids():
    config, params = tiny_model(src_vocab=6)
    with pytest.raises(IndexError):
        encode([[7]], params, config)


def test_decode_step_rejects_out_of_range_ids():
    config, params = tiny_model(tgt_vocab=7)
    encoded = encode([[4]], params, config)
    for ids in ([7], [-1]):
        with pytest.raises(IndexError, match="out of range"):
            decode_step(ids, initial_state(encoded, config), encoded, params, config)


def test_attend_single_position_takes_the_annotation():
    config, params = tiny_model(seed=4)
    h = config.hidden_size
    ann = np.random.default_rng(0).uniform(-1, 1, (1, 1, h)).astype(np.float32)
    top = np.random.default_rng(1).uniform(-1, 1, (1, h)).astype(np.float32)
    context, weights = attend(top, ann, np.ones((1, 1), dtype=np.float32),
                              params["attention.score_weights"].data)
    assert np.allclose(weights, [[1.0]])
    assert np.allclose(context, ann[:, 0, :])


def test_attend_zero_score_matrix_gives_uniform_weights():
    config, params = tiny_model(seed=4)
    params["attention.score_weights"].data[:] = 0.0
    h = config.hidden_size
    ann = np.random.default_rng(0).uniform(-1, 1, (1, 5, h)).astype(np.float32)
    top = np.ones((1, h), dtype=np.float32)
    _, weights = attend(top, ann, np.ones((1, 5), dtype=np.float32),
                        params["attention.score_weights"].data)
    assert np.allclose(weights, 0.2, atol=1e-7)


def test_attend_matches_brute_force_sum():
    rng = np.random.default_rng(6)
    h, length = 3, 4
    score_weights = rng.uniform(-1, 1, (h, h))
    ann = rng.uniform(-1, 1, (1, length, h))
    top = rng.uniform(-1, 1, (1, h))
    context, weights = attend(top, ann, np.ones((1, length)), score_weights)

    scores = [float(top[0] @ score_weights @ ann[0, s]) for s in range(length)]
    exps = [math.exp(s - max(scores)) for s in scores]
    expected_w = [e / sum(exps) for e in exps]
    expected_ctx = sum(w * ann[0, s] for s, w in enumerate(expected_w))
    assert np.allclose(weights[0], expected_w, atol=1e-6)
    assert np.allclose(context[0], expected_ctx, atol=1e-6)


def test_attention_masks_padding_to_exactly_zero():
    config, params = tiny_model(seed=7)
    h = config.hidden_size
    ann = np.random.default_rng(2).uniform(-1, 1, (2, 4, h)).astype(np.float32)
    top = np.random.default_rng(3).uniform(-1, 1, (2, h)).astype(np.float32)
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=np.float32)
    _, weights = attend(top, ann, mask, params["attention.score_weights"].data)
    assert np.all(weights[0, 2:] == 0.0)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)


def test_decode_step_distribution_normalizes():
    config, params = tiny_model(seed=8)
    encoded = encode([[4, 5]], params, config)
    log_probs, _ = decode_step([2], initial_state(encoded, config), encoded, params, config)
    assert np.exp(log_probs).sum() == pytest.approx(1.0, abs=1e-6)


def test_decode_step_zero_generator_gives_uniform():
    config, params = tiny_model(seed=9, tgt_vocab=7)
    params["generator.weights"].data[:] = 0.0
    params["generator.bias"].data[:] = 0.0
    encoded = encode([[4]], params, config)
    log_probs, _ = decode_step([2], initial_state(encoded, config), encoded, params, config)
    assert np.allclose(log_probs, -math.log(7), atol=1e-6)


def test_decode_step_matches_unrolled_oracle():
    config, params = tiny_model(seed=10, hidden=4, src_embed=3, tgt_embed=3,
                                src_vocab=8, tgt_vocab=7, dtype=np.float64)
    oracle = OracleModel(params, config)
    src = [4, 6, 5]
    prefix = [1, 4, 5]  # BOS then two phonemes
    encoded = encode([src], params, config)
    state = initial_state(encoded, config)
    log_probs = None
    for token in prefix:
        log_probs, state = decode_step([token], state, encoded, params, config)
    assert np.allclose(log_probs[0], oracle.log_probs(src, prefix), atol=1e-6)


def test_fresh_model_loss_is_near_log_vocab():
    config, params = tiny_model(seed=11, tgt_vocab=12)
    batch = [([4, 5, 6], [4, 5]), ([5, 6], [6, 7, 8])]
    loss = float(forward_loss(batch, params, config).data)
    assert abs(loss - math.log(12)) / math.log(12) < 0.20


def test_forward_loss_equal_length_batch_is_mean_of_singles():
    config, params = tiny_model(seed=12)
    pair_a = ([4, 5, 6], [4, 5])
    pair_b = ([5, 6], [6, 7])
    batched = float(forward_loss([pair_a, pair_b], params, config).data)
    single_a = float(forward_loss([pair_a], params, config).data)
    single_b = float(forward_loss([pair_b], params, config).data)
    assert batched == pytest.approx((single_a + single_b) / 2.0, abs=1e-5)


def test_forward_loss_padding_neutral_token_weighted():
    config, params = tiny_model(seed=13)
    pair_a = ([4, 5, 6, 7], [4, 5, 6, 7, 8])  # longer on both sides
    pair_b = ([5], [6])
    batched = float(forward_loss([pair_a, pair_b], params, config).data)
    n_a, n_b = len(pair_a[1]) + 1, len(pair_b[1]) + 1
    single_a = float(forward_loss([pair_a], params, config).data)
    single_b = float(forward_loss([pair_b], params, config).data)
    expected = (single_a * n_a + single_b * n_b) / (n_a + n_b)
    assert batched == pytest.approx(expected, abs=1e-5)


def test_forward_loss_overfits_single_pair_to_near_zero():
    # gold tokens driven to probability ~1 make the loss vanish
    config, params = tiny_model(seed=14, hidden=8)
    pair = ([4, 5, 6], [5, 7])
    for _ in range(300):
        with Tape() as tape:
            loss = forward_loss([pair], params, config, training=True)
            tape.backward(loss)
        ad.clip_gradients(list(params.values()), 5.0)
        ad.sgd_step(list(params.values()), 1.0)
        ad.zero_grads(list(params.values()))
    assert float(loss.data) < 0.02


def test_encode_padded_batch_matches_lone_sequence():
    config, params = tiny_model(seed=15)
    short, long = [4, 5], [4, 5, 6, 7, 8]
    both = encode([short, long], params, config)
    alone = encode([short], params, config)
    assert np.allclose(both.annotations.data[0, :2], alone.annotations.data[0], atol=1e-5)
    assert np.allclose(both.final_h.data[0, 0], alone.final_h.data[0, 0], atol=1e-5)


def test_encode_trims_explicit_pad_suffix():
    config, params = tiny_model(seed=15)
    plain = encode([[4, 5]], params, config)
    padded = encode([[4, 5, PAD_ID, PAD_ID]], params, config)
    assert padded.annotations.data.shape[1] == 2
    assert np.allclose(padded.annotations.data, plain.annotations.data, atol=1e-7)


def test_train_lr_zero_leaves_parameters_bit_identical():
    config, params = tiny_model(seed=16)
    before = {name: t.data.copy() for name, t in params.items()}
    pairs = [([4, 5], [4]), ([5, 6], [5, 6])]
    train_model(pairs, [], config, TrainingSchedule(epochs=2, batch_size=2, lr=0.0, seed=3),
                params=params)
    for name, t in params.items():
        assert np.array_equal(t.data, before[name]), name


def test_train_same_seed_reproduces_loss_log():
    config, _ = tiny_model(seed=0)
    pairs = [([4, 5], [4]), ([5, 6], [5, 6]), ([6, 4], [7]), ([4, 6], [8, 4])]
    schedule = TrainingSchedule(epochs=3, batch_size=2, lr=0.3, seed=21)
    hist_a = train_model(pairs, pairs[:2], config, schedule).history
    hist_b = train_model(pairs, pairs[:2], config, schedule).history
    assert [(h.train_loss, h.val_loss) for h in hist_a] == \
           [(h.train_loss, h.val_loss) for h in hist_b]


def test_train_aborts_on_non_finite_loss():
    config, params = tiny_model(seed=17)
    params["src_embedding"].data[4, 0] = np.nan
    with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
        train_model([([4], [4])], [], config,
                    TrainingSchedule(epochs=1, batch_size=1, lr=0.1, seed=1), params=params)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("name, index, value", [
    ("src_embedding", (4, 0), np.nan),                # the loss is NaN
    ("decoder.l1.input_weights", (0, 0), np.inf),     # the loss is finite, a gradient is NaN
])
def test_train_aborts_on_non_finite_value_before_any_update(name, index, value):
    config, params = tiny_model(seed=17)
    params[name].data[index] = value
    pairs = [([4], [4])]
    loss = float(forward_loss(pairs, params, config).data)
    assert math.isfinite(loss) == (value == np.inf)
    before = {n: t.data.tobytes() for n, t in params.items()}
    with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
        train_model(pairs, [], config,
                    TrainingSchedule(epochs=1, batch_size=1, lr=0.1, seed=1), params=params)
    for n, t in params.items():
        assert t.data.tobytes() == before[n], n


def test_forward_loss_equals_summed_score_sequence():
    # ties training to decoding: without dropout the token-weighted loss of a
    # batch is minus the teacher-forced log-probabilities of its pairs
    config, params = tiny_model(seed=17, src_vocab=12, tgt_vocab=10, hidden=8,
                                src_embed=7, tgt_embed=6, dtype=np.float64)
    batch = [([4, 11, 5, 6, 7], [4, 9, 5, 8]), ([5, 6], [7, 4, 6]), ([8, 9, 10], [9])]
    loss = float(forward_loss(batch, params, config).data) * target_token_count(batch)
    scored = sum(score_sequence(src, tgt, params, config) for src, tgt in batch)
    assert loss == pytest.approx(-scored, abs=1e-9)


def test_train_lr_decay_halves_after_start_epoch():
    config, _ = tiny_model(seed=18)
    schedule = TrainingSchedule(epochs=4, batch_size=2, lr=1.0, seed=5,
                                lr_decay_factor=0.5, lr_decay_start=3)
    result = train_model([([4, 5], [4])], [], config, schedule)
    assert [h.lr for h in result.history] == [1.0, 1.0, 0.5, 0.25]


def test_resumed_training_continues_the_lr_schedule():
    config, _ = tiny_model(seed=18)
    schedule = TrainingSchedule(epochs=4, batch_size=2, lr=1.0, seed=5,
                                lr_decay_factor=0.5, lr_decay_start=2)
    pairs = [([4, 5], [4])]
    whole = train_model(pairs, [], config, schedule)
    first = train_model(pairs, [], config, dataclasses.replace(schedule, epochs=2))
    resumed = train_model(pairs, [], config, schedule, params=first.params, start_epoch=3)
    assert [h.lr for h in whole.history] == [1.0, 0.5, 0.25, 0.125]
    assert [(h.epoch, h.lr) for h in resumed.history] == [(3, 0.25), (4, 0.125)]


def test_clone_params_is_independent_copy():
    config, params = tiny_model(seed=19)
    copy = clone_params(params)
    params["src_embedding"].data[0, 0] = 99.0
    assert copy["src_embedding"].data[0, 0] != 99.0
    assert list(copy) == list(params)


def test_params_from_arrays_rejects_missing_or_misshapen_tensor():
    config, params = tiny_model(seed=19)
    arrays = canonical_arrays(params, config)
    rebuilt = params_from_arrays(config, arrays)
    assert list(rebuilt) == list(params)
    assert all(np.array_equal(rebuilt[n].data, params[n].data) for n in params)
    missing = {k: v for k, v in arrays.items() if k != "decoder.l1.bias"}
    with pytest.raises(ValueError, match="missing tensor 'decoder.l1.bias'"):
        params_from_arrays(config, missing)
    misshapen = {**arrays, "attention.score_weights": np.zeros((8, 7), np.float32)}
    with pytest.raises(ValueError, match=r"'attention.score_weights': expected shape \(8, 8\)"):
        params_from_arrays(config, misshapen)
    extra = {**arrays, "decoder.l2.bias": np.zeros(32, np.float32)}
    with pytest.raises(ValueError, match="unexpected tensor 'decoder.l2.bias'"):
        params_from_arrays(config, extra)


def test_weight_matrices_are_stored_in_x_out():
    for kwargs in ({}, {"enc_layers": 1, "dec_layers": 3, "input_feeding": False}):
        for dtype in (np.float32, np.float64):
            config, params = tiny_model(seed=19, dtype=dtype, **kwargs)
            weights = {name for name, _, kind in param_specs(config) if kind == "weight"}
            assert weights == set(in_x_out_shapes(config))
            assert_in_x_out(params, config)
            assert_in_x_out(clone_params(params), config)
    config, params = tiny_model(seed=19)
    pairs = [([4, 5], [4]), ([5, 6], [5, 6])]
    result = train_model(pairs, pairs[:1], config,
                         TrainingSchedule(epochs=1, batch_size=2, lr=0.5, seed=3), params=params)
    assert_in_x_out(result.params, config)
    assert_in_x_out(result.best_params, config)


# SHA-256 of init_params(config, seed=7)'s canonical arrays (name, shape and
# bytes of each, in `named` order), recorded before weights were stored
# [in x out]: the layout must not change what a seed initializes.
INIT_HASHES = {
    ("small", "float32"): "b565d664fe6da43896fce7c9c97b3428b6415341daa0539b59d08cb538829606",
    ("small", "float64"): "4dcdaeb0ed5b1521fe739b4595a209bf3899cc19e7f5cacdd8bbcc4294ce6cde",
    ("deep", "float32"): "3f74bf63e155b1e1061798fe05f1bf9fa75c849592443ec37d79c609d7023c5a",
    ("deep", "float64"): "86d0b90ee215b1b27881b2480851385348dbe4addc63289251bc4c252c9ccf1c",
}


@pytest.mark.parametrize("name,dtype", sorted(INIT_HASHES))
def test_init_params_canonical_arrays_match_recorded_hashes(name, dtype):
    fields = {
        "small": dict(src_vocab_size=10, tgt_vocab_size=9, hidden_size=8, src_embed=6,
                      tgt_embed=5),
        "deep": dict(src_vocab_size=30, tgt_vocab_size=20, hidden_size=12, src_embed=7,
                     tgt_embed=9, enc_layers=1, dec_layers=3, input_feeding=False),
    }[name]
    config = ModelConfig(**fields)
    params = init_params(config, seed=7, dtype=np.dtype(dtype))
    digest = hashlib.sha256()
    for tensor_name, array in canonical_arrays(params, config).items():
        digest.update(tensor_name.encode())
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    assert digest.hexdigest() == INIT_HASHES[name, dtype]


def test_dropout_changes_training_forward_only():
    config, params = tiny_model(seed=20, dropout=0.5)
    batch = [([4, 5, 6], [4, 5])]
    plain = float(forward_loss(batch, params, config).data)
    rng = np.random.default_rng(0)
    noisy = float(forward_loss(batch, params, config, training=True, rng=rng).data)
    again = float(forward_loss(batch, params, config).data)
    assert plain == again
    assert noisy != plain


@pytest.mark.parametrize("name,value", [("enc_layers", 2.0), ("dec_layers", 8.5),
                                        ("hidden_size", True), ("src_vocab_size", "5")])
def test_model_config_sizes_must_be_ints(name, value):
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        ModelConfig(**{"src_vocab_size": 5, "tgt_vocab_size": 5, name: value})


def test_model_config_validation():
    with pytest.raises(ValueError, match="even"):
        ModelConfig(src_vocab_size=5, tgt_vocab_size=5, hidden_size=7)
    with pytest.raises(ValueError, match="dropout"):
        ModelConfig(src_vocab_size=5, tgt_vocab_size=5, dropout=1.0)
    with pytest.raises(ValueError, match=">= 1"):
        ModelConfig(src_vocab_size=0, tgt_vocab_size=5)
