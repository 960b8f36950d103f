import hashlib
import math

import numpy as np
import pytest

from helpers import OracleModel, assert_in_x_out, scalar_cell_step, tiny_model
from polyg2p import autodiff as ad
from polyg2p.autodiff import Tape, Tensor
from polyg2p.corpus import EOS_ID, PAD_ID
from polyg2p.decoding import score_sequence
from polyg2p.model import (
    CellParams,
    ModelConfig,
    TrainingSchedule,
    attend,
    canonical_arrays,
    clone_params,
    decode_step,
    encode,
    forward_loss,
    init_params,
    initial_state,
    params_from_arrays,
    target_token_count,
    train_model,
)


def _zero_cell(in_size, hidden):
    return CellParams(
        input_weights=Tensor(np.zeros((in_size, 4 * hidden))),
        recurrent_weights=Tensor(np.zeros((hidden, 4 * hidden))),
        bias=Tensor(np.zeros(4 * hidden)),
    )


def test_cell_step_all_zero_parameters_give_zero_state():
    cell = _zero_cell(3, 4)
    h, c = ad.lstm_step(Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 4))),
                        Tensor(np.zeros((2, 4))), cell.input_weights, cell.recurrent_weights,
                        cell.bias)
    assert np.allclose(h.data, 0.0)
    assert np.allclose(c.data, 0.0)


def test_cell_step_saturated_gates_carry_memory():
    # forget gate driven to ~1, input gate to ~0: c' = c
    cell = _zero_cell(3, 4)
    bias = cell.bias.data
    bias[0:4] = -50.0   # input gate
    bias[4:8] = 50.0    # forget gate
    c0 = np.array([[0.3, -0.7, 1.2, 0.0]])
    _, c1 = ad.lstm_step(Tensor(np.ones((1, 3))), Tensor(np.zeros((1, 4))), Tensor(c0),
                         cell.input_weights, cell.recurrent_weights, cell.bias)
    assert np.allclose(c1.data, c0, atol=1e-6)


def test_cell_step_matches_scalar_oracle():
    rng = np.random.default_rng(5)
    cell = CellParams(  # drawn [4h x in] and [4h x h], stored transposed
        input_weights=Tensor(np.ascontiguousarray(rng.uniform(-0.5, 0.5, (16, 3)).T)),
        recurrent_weights=Tensor(np.ascontiguousarray(rng.uniform(-0.5, 0.5, (16, 4)).T)),
        bias=Tensor(rng.uniform(-0.5, 0.5, 16)),
    )
    x = rng.uniform(-1, 1, 3)
    h0 = rng.uniform(-1, 1, 4)
    c0 = rng.uniform(-1, 1, 4)
    h1, c1 = ad.lstm_step(Tensor(x[None]), Tensor(h0[None]), Tensor(c0[None]),
                          cell.input_weights, cell.recurrent_weights, cell.bias)
    oh, oc = scalar_cell_step(x.tolist(), h0.tolist(), c0.tolist(),
                              cell.input_weights.data.T.tolist(),
                              cell.recurrent_weights.data.T.tolist(),
                              cell.bias.data.tolist())
    assert np.allclose(h1.data[0], oh, atol=1e-6)
    assert np.allclose(c1.data[0], oc, atol=1e-6)


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
    for layer_idx, layer in enumerate(params.encoder):
        if layer_idx > 0:
            w = layer["fwd"].input_weights.data  # [in x 4h]
            w[half:] = w[:half]
        for field in ("input_weights", "recurrent_weights", "bias"):
            getattr(layer["bwd"], field).data = getattr(layer["fwd"], field).data.copy()
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
    for (h0, c0), (eh, ec) in zip(encoded.final_states, expected_finals):
        assert np.allclose(h0.data[0], eh, atol=1e-6)
        assert np.allclose(c0.data[0], ec, atol=1e-6)


def test_encode_tape_nodes_do_not_grow_with_source_length():
    config, params = tiny_model(seed=3, dropout=0.3)

    def nodes(length):
        with Tape() as tape:
            encode([[4 + i % 5 for i in range(length)], [5, 6]], params, config,
                   training=True, rng=np.random.default_rng(0))
        return len(tape.nodes)

    assert nodes(3) == nodes(12)


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


def test_attend_single_position_takes_the_annotation():
    config, params = tiny_model(seed=4)
    h = config.hidden_size
    ann = Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 1, h)).astype(np.float32))
    top = Tensor(np.random.default_rng(1).uniform(-1, 1, (1, h)).astype(np.float32))
    context, weights = attend(top, ann, np.ones((1, 1), dtype=np.float32), params.attention)
    assert np.allclose(weights, [[1.0]])
    assert np.allclose(context.data, ann.data[:, 0, :])


def test_attend_zero_score_matrix_gives_uniform_weights():
    config, params = tiny_model(seed=4)
    params.attention.score_weights.data[:] = 0.0
    h = config.hidden_size
    ann = Tensor(np.random.default_rng(0).uniform(-1, 1, (1, 5, h)).astype(np.float32))
    top = Tensor(np.ones((1, h), dtype=np.float32))
    _, weights = attend(top, ann, np.ones((1, 5), dtype=np.float32), params.attention)
    assert np.allclose(weights, 0.2, atol=1e-7)


def test_attend_matches_brute_force_sum():
    rng = np.random.default_rng(6)
    h, length = 3, 4
    from polyg2p.model import AttentionParams

    att = AttentionParams(
        score_weights=Tensor(rng.uniform(-1, 1, (h, h))),
        output_weights=Tensor(rng.uniform(-1, 1, (2 * h, h))),
        output_bias=Tensor(np.zeros(h)),
    )
    ann = rng.uniform(-1, 1, (1, length, h))
    top = rng.uniform(-1, 1, (1, h))
    context, weights = attend(Tensor(top), Tensor(ann), np.ones((1, length)), att)

    scores = [float(top[0] @ att.score_weights.data @ ann[0, s]) for s in range(length)]
    exps = [math.exp(s - max(scores)) for s in scores]
    expected_w = [e / sum(exps) for e in exps]
    expected_ctx = sum(w * ann[0, s] for s, w in enumerate(expected_w))
    assert np.allclose(weights[0], expected_w, atol=1e-6)
    assert np.allclose(context.data[0], expected_ctx, atol=1e-6)


def test_attention_masks_padding_to_exactly_zero():
    config, params = tiny_model(seed=7)
    h = config.hidden_size
    ann = Tensor(np.random.default_rng(2).uniform(-1, 1, (2, 4, h)).astype(np.float32))
    top = Tensor(np.random.default_rng(3).uniform(-1, 1, (2, h)).astype(np.float32))
    mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=np.float32)
    _, weights = attend(top, ann, mask, params.attention)
    assert np.all(weights[0, 2:] == 0.0)
    assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-6)


def test_decode_step_distribution_normalizes():
    config, params = tiny_model(seed=8)
    encoded = encode([[4, 5]], params, config)
    log_probs, _ = decode_step([2], initial_state(encoded, config), encoded, params, config)
    assert np.exp(log_probs).sum() == pytest.approx(1.0, abs=1e-6)


def test_decode_step_zero_generator_gives_uniform():
    config, params = tiny_model(seed=9, tgt_vocab=7)
    params.generator_weights.data[:] = 0.0
    params.generator_bias.data[:] = 0.0
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
        ad.clip_gradients(params.tensors(), 5.0)
        ad.sgd_step(params.tensors(), 1.0)
        ad.zero_grads(params.tensors())
    assert float(loss.data) < 0.02


def test_encode_padded_batch_matches_lone_sequence():
    config, params = tiny_model(seed=15)
    short, long = [4, 5], [4, 5, 6, 7, 8]
    both = encode([short, long], params, config)
    alone = encode([short], params, config)
    assert np.allclose(both.annotations.data[0, :2], alone.annotations.data[0], atol=1e-5)
    assert np.allclose(both.final_states[0][0].data[0], alone.final_states[0][0].data[0],
                       atol=1e-5)


def test_encode_trims_explicit_pad_suffix():
    config, params = tiny_model(seed=15)
    plain = encode([[4, 5]], params, config)
    padded = encode([[4, 5, PAD_ID, PAD_ID]], params, config)
    assert padded.annotations.data.shape[1] == 2
    assert np.allclose(padded.annotations.data, plain.annotations.data, atol=1e-7)


def test_train_lr_zero_leaves_parameters_bit_identical():
    config, params = tiny_model(seed=16)
    before = {name: t.data.copy() for name, t in params.named()}
    pairs = [([4, 5], [4]), ([5, 6], [5, 6])]
    train_model(pairs, [], config, TrainingSchedule(epochs=2, batch_size=2, lr=0.0, seed=3),
                params=params)
    for name, t in params.named():
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
    params.src_embedding.data[4, 0] = np.nan
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
    dict(params.named())[name].data[index] = value
    pairs = [([4], [4])]
    loss = float(forward_loss(pairs, params, config).data)
    assert math.isfinite(loss) == (value == np.inf)
    before = {n: t.data.tobytes() for n, t in params.named()}
    with pytest.raises(RuntimeError, match="epoch 1, batch 0"):
        train_model(pairs, [], config,
                    TrainingSchedule(epochs=1, batch_size=1, lr=0.1, seed=1), params=params)
    for n, t in params.named():
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


def test_clone_params_is_independent_copy():
    config, params = tiny_model(seed=19)
    copy = clone_params(params)
    params.src_embedding.data[0, 0] = 99.0
    assert copy.src_embedding.data[0, 0] != 99.0
    assert [n for n, _ in copy.named()] == [n for n, _ in params.named()]


def test_params_from_arrays_rejects_missing_or_misshapen_tensor():
    config, params = tiny_model(seed=19)
    arrays = canonical_arrays(params)
    rebuilt = params_from_arrays(config, arrays)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(rebuilt.tensors(), params.tensors()))
    missing = {k: v for k, v in arrays.items() if k != "decoder.l1.bias"}
    with pytest.raises(ValueError, match="missing tensor 'decoder.l1.bias'"):
        params_from_arrays(config, missing)
    misshapen = {**arrays, "attention.score_weights": np.zeros((8, 7), np.float32)}
    with pytest.raises(ValueError, match=r"'attention.score_weights': expected shape \(8, 8\)"):
        params_from_arrays(config, misshapen)


def test_weight_matrices_are_stored_in_x_out():
    for kwargs in ({}, {"enc_layers": 1, "dec_layers": 3, "input_feeding": False}):
        for dtype in (np.float32, np.float64):
            config, params = tiny_model(seed=19, dtype=dtype, **kwargs)
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
    params = init_params(ModelConfig(**fields), seed=7, dtype=np.dtype(dtype))
    digest = hashlib.sha256()
    for tensor_name, array in canonical_arrays(params).items():
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


def test_model_config_validation():
    with pytest.raises(ValueError, match="even"):
        ModelConfig(src_vocab_size=5, tgt_vocab_size=5, hidden_size=7)
    with pytest.raises(ValueError, match="dropout"):
        ModelConfig(src_vocab_size=5, tgt_vocab_size=5, dropout=1.0)
    with pytest.raises(ValueError, match=">= 1"):
        ModelConfig(src_vocab_size=0, tgt_vocab_size=5)
