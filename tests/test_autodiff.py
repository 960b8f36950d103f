import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_difference, rel_err, weighted_sum
from polyg2p import autodiff as ad
from polyg2p.autodiff import Tape, Tensor


def f64(*shape, rng=None, scale=1.0):
    rng = rng or np.random.default_rng(0)
    return Tensor(rng.uniform(-scale, scale, shape).astype(np.float64))


def f64_weight(rows, cols, rng):
    """The draws of f64(rows, cols) for an [out x in] weight, stored [in x out]
    as `ad.linear` and the LSTM ops read it."""
    return Tensor(np.ascontiguousarray(f64(rows, cols, rng=rng).data.T))


# ad.linear (x @ w, w stored [in x out]) is the general matrix product op


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(ad.linear(eye, m).data, m.data)
    assert np.array_equal(ad.linear(m, eye).data, m.data)


def test_matmul_row_times_column():
    a = Tensor(np.array([[1.0, 2.0]]))
    b = Tensor(np.array([[3.0], [4.0]]))  # the column [3, 4]
    assert ad.linear(a, b).data == np.array([[11.0]])


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 4\)"):
        ad.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    a, b = f64(3, 4, rng=rng), f64_weight(2, 4, rng)
    with Tape() as tape:
        loss = weighted_sum((ad.tanh(ad.linear(a, b)), 1.0))
        tape.backward(loss)

    def loss_fn():
        return float(np.tanh(a.data @ b.data).sum())

    assert rel_err(a.grad, finite_difference(loss_fn, a)) <= 1e-5
    assert rel_err(b.grad, finite_difference(loss_fn, b)) <= 1e-5


def test_tanh_and_sigmoid_at_zero():
    assert ad.tanh(Tensor(np.zeros(3))).data.tolist() == [0.0, 0.0, 0.0]
    # with zero weights every LSTM gate is sigmoid(0), exactly 0.5, and the
    # candidate tanh(0) is 0: c' = 0.5*c and h' = 0.5*tanh(c')
    c = np.array([[0.8, -0.4]])
    zeros = lambda *shape: Tensor(np.zeros(shape))
    h1, c1 = ad.lstm_step(zeros(1, 3), zeros(1, 2), Tensor(c), zeros(3, 8), zeros(2, 8), zeros(8))
    assert np.array_equal(c1.data, 0.5 * c)
    assert np.array_equal(h1.data, 0.5 * np.tanh(0.5 * c))


def test_tanh_gradient_at_point_three():
    x = Tensor(np.array([0.3]))
    with Tape() as tape:
        loss = weighted_sum((ad.tanh(x), 1.0))
        tape.backward(loss)
    fd = finite_difference(lambda: float(np.tanh(x.data).sum()), x)
    assert rel_err(x.grad, fd) <= 1e-5


def _attention_weights(scores):
    """Softmax weights of `ad.attention` for given raw scores: with h=1, a unit
    query and a unit score matrix, the score of position s is annotation s."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n, length = scores.shape
    _, weights = ad.attention(Tensor(np.ones((n, 1))), Tensor(scores[:, :, None]),
                              np.zeros((n, length)), Tensor(np.ones((1, 1))))
    return weights


def test_softmax_symmetry():
    assert np.allclose(_attention_weights([0.0, 0.0]), [[0.5, 0.5]])


def test_softmax_large_inputs_no_overflow():
    out = _attention_weights([1000.0, 1000.0])
    assert np.allclose(out, [[0.5, 0.5]])
    assert np.all(np.isfinite(out))


def test_softmax_closed_form():
    out = _attention_weights([0.0, math.log(3.0)])
    assert np.allclose(out, [[0.25, 0.75]], atol=1e-12)


@given(st.lists(st.floats(-50, 50), min_size=1, max_size=8), st.floats(-30, 30))
def test_softmax_sums_to_one_and_shift_invariant(values, shift):
    x = np.array(values)
    a = _attention_weights(x)
    b = _attention_weights(x + shift)
    assert abs(a.sum() - 1.0) <= 1e-6
    assert np.allclose(a, b, atol=1e-9)


def test_softmax_gradient():
    # h=1: each annotation is both a score and a value, so the gradient of the
    # context runs through the softmax
    ann = f64(2, 5, 1, rng=np.random.default_rng(9))
    w = np.random.default_rng(10).uniform(-1, 1, (2, 1))
    top, w_score = Tensor(np.ones((2, 1))), Tensor(np.ones((1, 1)))
    with Tape() as tape:
        context, _ = ad.attention(top, ann, np.zeros((2, 5)), w_score)
        loss = weighted_sum((context, w))
        tape.backward(loss)

    def loss_fn():
        a = ann.data[:, :, 0]
        e = np.exp(a - a.max(axis=-1, keepdims=True))
        return float(((e / e.sum(axis=-1, keepdims=True) * a).sum(axis=-1) * w[:, 0]).sum())

    assert rel_err(ann.grad, finite_difference(loss_fn, ann)) <= 1e-5


def test_log_softmax_normalizes():
    out = ad.log_softmax(f64(3, 6, rng=np.random.default_rng(2)).data)
    assert np.allclose(np.exp(out).sum(axis=-1), 1.0, atol=1e-6)


def test_embedding_lookup_row():
    table = Tensor(np.eye(2))
    assert ad.embedding_lookup(table, [0]).data.tolist() == [[1.0, 0.0]]


def test_embedding_duplicate_ids_accumulate():
    table = f64(3, 4)
    with Tape() as tape:
        out = ad.embedding_lookup(table, [1, 1])
        loss = weighted_sum((out, 1.0))
        tape.backward(loss)
    assert np.allclose(table.grad[1], 2.0)
    assert np.allclose(table.grad[0], 0.0)


def test_embedding_out_of_range():
    with pytest.raises(IndexError, match="out of range"):
        ad.embedding_lookup(Tensor(np.zeros((2, 3))), [2])


def test_embedding_gradient():
    table = f64(5, 3, rng=np.random.default_rng(4))
    ids = [0, 2, 2, 4]
    w = np.random.default_rng(5).uniform(-1, 1, (4, 3))
    with Tape() as tape:
        loss = weighted_sum((ad.embedding_lookup(table, ids), w))
        tape.backward(loss)
    fd = finite_difference(lambda: float((table.data[ids] * w).sum()), table)
    assert rel_err(table.grad, fd) <= 1e-5


def test_cross_entropy_certain_prediction_is_zero():
    logits = np.full((2, 4), -1e3)
    logits[0, 1] = logits[1, 2] = 1e3
    loss = ad.cross_entropy(Tensor(logits), [1, 2], pad_index=0)
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_uniform_is_log_vocab():
    loss = ad.cross_entropy(Tensor(np.zeros((3, 4))), [1, 2, 3], pad_index=0)
    assert float(loss.data) == pytest.approx(math.log(4.0), rel=1e-9)


def test_cross_entropy_pad_positions_contribute_nothing():
    logits = np.random.default_rng(6).uniform(-1, 1, (4, 5))
    full = ad.cross_entropy(Tensor(logits), [1, 2, 0, 0], pad_index=0)
    live = ad.cross_entropy(Tensor(logits[:2]), [1, 2], pad_index=0)
    assert float(full.data) == pytest.approx(float(live.data), rel=1e-9)


def test_cross_entropy_all_pad_errors():
    with pytest.raises(ValueError, match="empty target"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), [0, 0], pad_index=0)


def test_cross_entropy_gradient():
    logits = f64(3, 5, rng=np.random.default_rng(11))
    targets = [1, 4, 0]
    with Tape() as tape:
        loss = ad.cross_entropy(logits, targets, pad_index=0)
        tape.backward(loss)

    def loss_fn():
        z = logits.data - logits.data.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        return float(-(logp[0, 1] + logp[1, 4]) / 2.0)

    assert rel_err(logits.grad, finite_difference(loss_fn, logits)) <= 1e-5


def test_backward_identity():
    x = Tensor(np.array(2.0))
    with Tape() as tape:
        tape.backward(x)
    assert x.grad == 1.0


def test_backward_sum_of_squares():
    # x @ x reads x through both operands; both gradients accumulate. The
    # gradient of sum(x @ x) at [a, b] is column sum a plus row sum b of x;
    # x is not symmetric, so a transposed input or weight gradient fails
    x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    with Tape() as tape:
        loss = weighted_sum((ad.linear(x, x), 1.0))
        tape.backward(loss)
    assert np.allclose(x.grad, [[7.0, 11.0], [9.0, 13.0]])


def test_backward_requires_scalar_loss():
    x = Tensor(np.zeros(3))
    with Tape() as tape:
        y = ad.tanh(x)
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)


def test_backward_ignored_node_gets_no_gradient():
    x, unused = Tensor(np.ones(2)), Tensor(np.ones(2))
    with Tape() as tape:
        ad.tanh(unused)  # on the tape but not feeding the loss
        loss = weighted_sum((x, 1.0))
        tape.backward(loss)
    assert unused.grad is None


def test_concat_gradients():
    rng = np.random.default_rng(12)
    a, b = f64(2, 3, rng=rng), f64(2, 5, rng=rng)
    w = rng.uniform(-1, 1, (4, 8))
    with Tape() as tape:
        glued = ad.concat([b, a])
        stacked = ad.concat([glued, ad.tanh(glued)], axis=0)
        loss = weighted_sum((stacked, w))
        tape.backward(loss)

    def loss_fn():
        glued = np.concatenate([b.data, a.data], axis=1)
        return float((np.concatenate([glued, np.tanh(glued)]) * w).sum())

    assert rel_err(a.grad, finite_difference(loss_fn, a)) <= 1e-5
    assert rel_err(b.grad, finite_difference(loss_fn, b)) <= 1e-5


def test_linear_matches_manual_composition():
    rng = np.random.default_rng(15)
    x, w, b = f64(3, 4, rng=rng), f64_weight(5, 4, rng), f64(5, rng=rng)
    out = ad.linear(x, w, b)
    assert np.allclose(out.data, x.data @ w.data + b.data)
    with Tape() as tape:
        loss = weighted_sum((ad.linear(x, w, b), 1.0))
        tape.backward(loss)
    fd = finite_difference(lambda: float((x.data @ w.data + b.data).sum()), w)
    assert rel_err(w.grad, fd) <= 1e-5
    assert np.allclose(b.grad, 3.0)


def test_sgd_update_arithmetic():
    w = Tensor(np.array([1.0]))
    w.grad = np.array([0.25])
    ad.sgd_step([w], lr=1.0)
    assert w.data == np.array([0.75])


def test_sgd_zero_gradient_leaves_weight():
    w = Tensor(np.array([1.5]))
    w.grad = np.zeros(1)
    ad.sgd_step([w], lr=1.0)
    assert w.data == np.array([1.5])


def test_sgd_lr_zero_is_identity():
    w = Tensor(np.array([1.0, -2.0]))
    w.grad = np.array([3.0, 4.0])
    before = w.data.copy()
    ad.sgd_step([w], lr=0.0)
    assert np.array_equal(w.data, before)


def test_clip_halves_gradients_at_double_norm():
    a = Tensor(np.zeros(2))
    a.grad = np.array([6.0, 8.0])  # norm 10
    norm = ad.clip_gradients([a], max_norm=5.0)
    assert norm == pytest.approx(10.0)
    assert np.allclose(a.grad, [3.0, 4.0])


def test_clip_leaves_small_gradients():
    a = Tensor(np.zeros(2))
    a.grad = np.array([0.3, 0.4])
    ad.clip_gradients([a], max_norm=5.0)
    assert np.allclose(a.grad, [0.3, 0.4])


def test_dropout_zero_rate_is_identity():
    x = Tensor(np.ones((2, 3)))
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_scales_kept_entries():
    x = Tensor(np.ones((200, 50)))
    out = ad.dropout(x, 0.25, np.random.default_rng(0)).data
    assert set(np.unique(out)) == {0.0, 1.0 / 0.75}
    assert abs(out.mean() - 1.0) < 0.02


def test_ops_without_tape_build_no_graph():
    x = Tensor(np.ones(3))
    y = ad.tanh(x)
    assert y._backward is None and y._inputs == ()


def test_inference_mode_masks_active_tape():
    x = Tensor(np.ones(3))
    with Tape() as tape:
        with ad.inference_mode():
            ad.tanh(x)
        assert tape.nodes == []


def test_dropout_draw_order_matches_stepwise_draws():
    x = Tensor(np.ones((3, 4, 5)))
    whole = ad.dropout(x, 0.5, np.random.default_rng(7), draw_order=(1, 0, 2)).data
    rng = np.random.default_rng(7)
    steps = [ad.dropout(Tensor(np.ones((3, 5))), 0.5, rng).data for _ in range(4)]
    assert np.array_equal(whole, np.stack(steps, axis=1))


# --- fused ops: gradients against central finite differences, float64 -------


def _check_gradients(loss_of, tensors):
    """Backward of `loss_of()` on a tape against finite differences of its
    forward, for every tensor in `tensors`."""
    with Tape() as tape:
        loss = loss_of()
        tape.backward(loss)
    for t in tensors:
        fd = finite_difference(lambda: float(loss_of().data), t)
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        assert rel_err(grad, fd) <= 1e-5, t.name


def _cell_weights(rng, in_size, hidden):
    """Weights drawn [4h x in] and [4h x h], stored [in x 4h] and [h x 4h]."""
    names = ("input_weights", "recurrent_weights", "bias")
    shapes = ((4 * hidden, in_size), (4 * hidden, hidden), (4 * hidden,))
    return [Tensor(np.ascontiguousarray(rng.uniform(-0.7, 0.7, s).T), name=n)
            for n, s in zip(names, shapes)]


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_sequence_gradient(reverse):
    rng = np.random.default_rng(21)
    batch, length, in_size, hidden = 3, 4, 2, 3
    xs = Tensor(rng.uniform(-1, 1, (batch, length, in_size)), name="xs")
    # a full row, a length-1 row, and one with a padded last step
    mask = np.array([[1, 1, 1, 1], [1, 0, 0, 0], [1, 1, 1, 0]], dtype=np.float64)
    weights = _cell_weights(rng, in_size, hidden)
    w_out = rng.uniform(-1, 1, (batch, length, hidden))
    w_h, w_c = rng.uniform(-1, 1, (2, batch, hidden))

    def loss_of():
        outputs, h, c = ad.lstm_sequence(xs, mask, *weights, reverse=reverse)
        return weighted_sum((outputs, w_out), (h, w_h), (c, w_c))

    _check_gradients(loss_of, [xs, *weights])
    assert np.all(xs.grad[mask == 0] == 0.0)  # padded inputs feed nothing


@pytest.mark.parametrize("c_in_loss", [True, False])
def test_lstm_step_gradient(c_in_loss):
    rng = np.random.default_rng(22)
    x, h, c = (Tensor(rng.uniform(-1, 1, (2, n)), name=name)
               for n, name in ((3, "x"), (4, "h"), (4, "c")))
    weights = _cell_weights(rng, 3, 4)
    w_h, w_c = rng.uniform(-1, 1, (2, 2, 4))

    def loss_of():
        h1, c1 = ad.lstm_step(x, h, c, *weights)
        # without c' in the loss, its view node gets no gradient at all
        return weighted_sum((h1, w_h), (c1, w_c)) if c_in_loss else weighted_sum((h1, w_h))

    _check_gradients(loss_of, [x, h, c, *weights])


@pytest.mark.parametrize("source_rows", [3, 1])
def test_attention_gradient_with_masked_position(source_rows):
    rng = np.random.default_rng(23)
    queries, length, hidden = 3, 4, 5
    top = Tensor(rng.uniform(-1, 1, (queries, hidden)), name="top")
    annotations = Tensor(rng.uniform(-1, 1, (source_rows, length, hidden)), name="annotations")
    w_score = Tensor(rng.uniform(-1, 1, (hidden, hidden)), name="w_score")
    mask_add = np.zeros((source_rows, length))
    mask_add[0, 2] = -1e9
    w_ctx = rng.uniform(-1, 1, (queries, hidden))

    def loss_of():
        context, _ = ad.attention(top, annotations, mask_add, w_score)
        return weighted_sum((context, w_ctx))

    _check_gradients(loss_of, [top, annotations, w_score])
    assert np.all(annotations.grad[0, 2] == 0.0)
    _, weights = ad.attention(top, annotations, mask_add, w_score)
    assert np.all(weights[: 1 if source_rows > 1 else queries, 2] == 0.0)


def test_attention_shared_source_equals_repeated_source():
    rng = np.random.default_rng(24)
    top = Tensor(rng.uniform(-1, 1, (4, 6)).astype(np.float32))
    one = rng.uniform(-1, 1, (1, 5, 6)).astype(np.float32)
    w_score = Tensor(rng.uniform(-1, 1, (6, 6)).astype(np.float32))
    mask_add = np.array([[0, 0, 0, -1e9, -1e9]], dtype=np.float32)
    shared = ad.attention(top, Tensor(one), mask_add, w_score)
    repeated = ad.attention(top, Tensor(np.repeat(one, 4, axis=0)), np.repeat(mask_add, 4, axis=0),
                            w_score)
    assert np.array_equal(shared[0].data, repeated[0].data)
    assert np.array_equal(shared[1], repeated[1])


def test_fused_ops_reject_mismatched_shapes():
    z = lambda *shape: Tensor(np.zeros(shape))
    with pytest.raises(ValueError, match=r"LSTM shape mismatch.*\(2, 8\)"):
        ad.lstm_step(z(1, 3), z(1, 2), z(1, 2), z(2, 8), z(2, 8), z(8))
    with pytest.raises(ValueError, match="state shape"):
        ad.lstm_step(z(1, 3), z(2, 2), z(2, 2), z(3, 8), z(2, 8), z(8))
    with pytest.raises(ValueError, match="mask shape"):
        ad.lstm_sequence(z(2, 4, 3), np.ones((2, 3)), z(3, 8), z(2, 8), z(8))
    with pytest.raises(ValueError, match="attention shape mismatch"):
        ad.attention(z(3, 4), z(2, 5, 4), np.zeros((2, 5)), z(4, 4))
    with pytest.raises(ValueError, match="empty source"):
        ad.attention(z(1, 4), z(1, 0, 4), np.zeros((1, 0)), z(4, 4))
