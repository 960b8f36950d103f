import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import finite_difference, matmul, rel_err, weighted_sum
from polyg2p import autodiff as ad
from polyg2p.autodiff import Tape, Tensor


def f64(*shape, rng=None, scale=1.0):
    rng = rng or np.random.default_rng(0)
    return Tensor(rng.uniform(-scale, scale, shape).astype(np.float64))


def f64_weight(rows, cols, rng):
    """The draws of f64(rows, cols) for an [out x in] weight, stored [in x out]
    as the generator and the LSTM ops read it."""
    return Tensor(np.ascontiguousarray(f64(rows, cols, rng=rng).data.T))


def _loss_of_logits(logits, targets):
    """cross_entropy of given logits: identity inputs times the logits as the
    generator weights, with a zero bias, give the logits exactly."""
    logits = np.asarray(logits, dtype=np.float64)
    return ad.cross_entropy(Tensor(np.eye(len(logits))), Tensor(logits),
                            Tensor(np.zeros(logits.shape[1])), targets, pad_index=0)


# the generator's product, x @ w with w stored [in x out]


def test_matmul_identity():
    eye, zero = np.eye(2), np.zeros(2)
    m = np.array([[1.0, 2.0], [3.0, 4.0]])
    expected = m - np.log(np.exp(m).sum(axis=1, keepdims=True))
    assert np.allclose(ad.generator_log_probs(m, eye, zero), expected, atol=1e-12)
    assert np.array_equal(ad.generator_log_probs(eye, m, zero),
                          ad.generator_log_probs(m, eye, zero))


def test_matmul_row_times_column():
    a = np.array([[1.0, 2.0]])
    b = np.array([[3.0, 0.0], [4.0, 0.0]])  # the column [3, 4], then a zero column
    log_probs = ad.generator_log_probs(a, b, np.zeros(2))
    assert log_probs[0, 0] - log_probs[0, 1] == pytest.approx(11.0)


def test_matmul_shape_mismatch_names_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 4\)"):
        ad.cross_entropy(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                         Tensor(np.zeros(4)), [1, 1], pad_index=0)


def test_tanh_and_sigmoid_at_zero():
    # with zero pre-activations every LSTM gate is sigmoid(0), exactly 0.5, and
    # the candidate tanh(0) is 0: c' = 0.5*c and h' = 0.5*tanh(c')
    c = np.array([[0.8, -0.4]])
    c1, tanh_c, h1 = (np.empty_like(c) for _ in range(3))
    ad._cell(np.zeros((1, 8)), np.zeros((1, 2)), c, np.zeros((2, 8)), np.zeros(8), c1, tanh_c, h1)
    assert np.array_equal(c1, 0.5 * c)
    assert np.array_equal(h1, 0.5 * np.tanh(0.5 * c))


def _attention_weights(scores):
    """Softmax weights of `ad.attend` for given raw scores: with h=1, a unit
    query and a unit score matrix, the score of position s is annotation s."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    n, length = scores.shape
    _, weights = ad.attend(np.ones((n, 1)), scores[:, :, None], np.zeros((n, length)),
                           np.ones((1, 1)))
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


def test_log_softmax_normalizes():
    rng = np.random.default_rng(2)
    out = ad.generator_log_probs(f64(3, 4, rng=rng).data, f64(4, 6, rng=rng).data,
                                 f64(6, rng=rng).data)
    assert np.allclose(np.exp(out).sum(axis=-1), 1.0, atol=1e-6)


def test_embedding_lookup_row():
    assert ad.lookup(np.eye(2), np.array([0])).tolist() == [[1.0, 0.0]]


def test_embedding_duplicate_ids_accumulate():
    # id 1 at two positions gets the sum of what two table rows of the same
    # values get there, through either sequence op
    rng = np.random.default_rng(27)
    cases = ((ad.encoder_sequence, _encoder_inputs(rng, batch=2, length=3, layers=1),
              [[1, 2, 1], [3, 0, 0]]),
             (ad.decoder_sequence, _decoder_inputs(rng, steps=2, batch=2, layers=1),
              [[1, 2], [3, 1]]))
    for op, inputs, ids in cases:
        table = inputs["table"].data
        copy = len(table)  # the index of a new row holding row 1's values
        split = np.array(ids)
        split[tuple(np.argwhere(split == 1)[1])] = copy  # the second id 1 reads the copy

        def output(table, ids):
            out = op(**{**inputs, "table": table, "ids": np.array(ids)})
            return out[0] if isinstance(out, tuple) else out

        w = rng.uniform(-1, 1, output(Tensor(table), ids).data.shape)

        def table_grad(table, ids):
            with Tape() as tape:
                tape.backward(weighted_sum((output(table, ids), w)))
            return table.grad

        joint = table_grad(Tensor(table.copy()), ids)
        apart = table_grad(Tensor(np.concatenate([table, table[1:2]])), split)
        assert np.array_equal(joint[1], apart[1] + apart[copy])
        assert np.array_equal(np.delete(joint, 1, axis=0), np.delete(apart[:copy], 1, axis=0))


def test_embedding_out_of_range():
    for ids in ([2], [-1]):
        with pytest.raises(IndexError, match="out of range"):
            ad.lookup(np.zeros((2, 3)), np.array(ids))
    # the sequence ops raise before they record anything
    rng = np.random.default_rng(28)
    for op, inputs in ((ad.encoder_sequence, _encoder_inputs(rng, batch=2, length=3, layers=1)),
                       (ad.decoder_sequence, _decoder_inputs(rng, steps=2, batch=2, layers=1))):
        ids = inputs["ids"].copy()
        ids[0, 0] = len(inputs["table"].data)
        with Tape() as tape, pytest.raises(IndexError, match="out of range"):
            op(**{**inputs, "ids": ids})
        assert tape.nodes == []


def test_cross_entropy_certain_prediction_is_zero():
    logits = np.full((2, 4), -1e3)
    logits[0, 1] = logits[1, 2] = 1e3
    loss = _loss_of_logits(logits, [1, 2])
    assert float(loss.data) == pytest.approx(0.0, abs=1e-9)


def test_cross_entropy_uniform_is_log_vocab():
    loss = _loss_of_logits(np.zeros((3, 4)), [1, 2, 3])
    assert float(loss.data) == pytest.approx(math.log(4.0), rel=1e-9)


def test_cross_entropy_pad_positions_contribute_nothing():
    logits = np.random.default_rng(6).uniform(-1, 1, (4, 5))
    full = _loss_of_logits(logits, [1, 2, 0, 0])
    live = _loss_of_logits(logits[:2], [1, 2])
    assert float(full.data) == pytest.approx(float(live.data), rel=1e-9)


def test_cross_entropy_all_pad_errors():
    with pytest.raises(ValueError, match="empty target"):
        _loss_of_logits(np.zeros((2, 3)), [0, 0])


def test_cross_entropy_gradient():
    rng = np.random.default_rng(11)
    x, w, bias = f64(3, 4, rng=rng), f64_weight(5, 4, rng), f64(5, rng=rng)
    targets = [1, 4, 0]

    def loss_fn():
        logits = x.data @ w.data + bias.data
        z = logits - logits.max(axis=-1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
        return float(-(logp[0, 1] + logp[1, 4]) / 2.0)

    with Tape() as tape:
        tape.backward(ad.cross_entropy(x, w, bias, targets, pad_index=0))
    for t in (x, w, bias):
        assert rel_err(t.grad, finite_difference(loss_fn, t)) <= 1e-5
    assert np.all(x.grad[2] == 0.0)  # a pad position feeds nothing


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
        loss = weighted_sum((matmul(x, x), 1.0))
        tape.backward(loss)
    assert np.allclose(x.grad, [[7.0, 11.0], [9.0, 13.0]])


def test_backward_requires_scalar_loss():
    x = Tensor(np.zeros((1, 3)))
    with Tape() as tape:
        y = matmul(x, Tensor(np.ones((3, 2))))
        with pytest.raises(ValueError, match="scalar"):
            tape.backward(y)


def test_backward_runs_once_and_frees_each_entrys_backward():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    with Tape() as tape:
        loss = weighted_sum((matmul(x, Tensor(np.ones((3, 2)))), 1.0))
        tape.backward(loss)
        assert len(tape.nodes) == 2 and all(fn is None for _, fn in tape.nodes)
        with pytest.raises(RuntimeError, match="already run backward"):
            tape.backward(loss)
    assert np.array_equal(x.grad, [[2.0, 2.0, 2.0]])  # the second call added nothing


def test_backward_ignored_node_gets_no_gradient():
    x, unused = Tensor(np.ones(2)), Tensor(np.ones((1, 2)))
    with Tape() as tape:
        matmul(unused, Tensor(np.ones((2, 2))))  # on the tape but not feeding the loss
        loss = weighted_sum((x, 1.0))
        tape.backward(loss)
    assert unused.grad is None


def test_cross_entropy_matches_manual_composition():
    # the loss of log_softmax(x @ w + bias) at the live targets, and the bias
    # gradient: the mean over live rows of softmax minus the one-hot target
    rng = np.random.default_rng(15)
    x, w, bias = f64(3, 4, rng=rng), f64_weight(5, 4, rng), f64(5, rng=rng)
    targets = [2, 0, 3]
    logits = x.data @ w.data + bias.data
    probs = np.exp(logits) / np.exp(logits).sum(axis=-1, keepdims=True)
    with Tape() as tape:
        loss = ad.cross_entropy(x, w, bias, targets, pad_index=0)
        tape.backward(loss)
    live = [0, 2]
    assert float(loss.data) == pytest.approx(-np.log(probs[live, [2, 3]]).mean(), rel=1e-12)
    onehot = np.eye(5)[[2, 3]]
    assert np.allclose(bias.grad, (probs[live] - onehot).mean(axis=0), atol=1e-12)


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


def test_sgd_step_is_bit_identical_to_subtracting_lr_times_the_gradient():
    # the gradient is scaled in place: a Python float lr is a weak scalar, so
    # float32 `lr * g` rounds the same as before
    rng = np.random.default_rng(27)
    w = Tensor(rng.normal(size=(50, 7)).astype(np.float32))
    w.grad = rng.normal(size=w.data.shape).astype(np.float32)
    expected = w.data - 0.1 * w.grad
    ad.sgd_step([w], lr=0.1)
    assert w.data.dtype == np.float32
    assert w.data.tobytes() == expected.tobytes()


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


def test_global_grad_norm_is_bit_identical_to_squaring_a_float64_copy():
    rng = np.random.default_rng(26)
    tensors = [Tensor(np.zeros(shape, np.float32)) for shape in ((600, 150), (150,), (7, 3, 5))]
    for t in tensors:
        t.grad = rng.normal(0, 0.3, t.data.shape).astype(np.float32)
    expected = math.sqrt(sum(float((t.grad.astype(np.float64) ** 2).sum()) for t in tensors))
    assert ad.global_grad_norm(tensors) == expected
    assert ad.global_grad_norm(tensors + [Tensor(np.zeros(2))]) == expected  # no gradient


def test_clip_leaves_small_gradients():
    a = Tensor(np.zeros(2))
    a.grad = np.array([0.3, 0.4])
    ad.clip_gradients([a], max_norm=5.0)
    assert np.allclose(a.grad, [0.3, 0.4])


def test_ops_without_tape_build_no_graph():
    x = Tensor(np.ones((1, 3)))
    y = matmul(x, Tensor(np.ones((3, 2))))  # outside any tape: nothing links y back to x
    with Tape() as tape:
        loss = weighted_sum((y, 1.0))
        tape.backward(loss)
    assert y.grad is not None and x.grad is None


def test_each_op_call_records_one_tape_entry():
    rng = np.random.default_rng(24)
    encoder = _encoder_inputs(rng, batch=2, length=5, layers=2, keep=True)
    inputs = _decoder_inputs(rng, steps=3, batch=2, layers=2)
    calls = (lambda: ad.encoder_sequence(**encoder),
             lambda: ad.decoder_sequence(**inputs),
             lambda: _loss_of_logits(np.zeros((3, 4)), [1, 2, 0]))
    for call in calls:
        with Tape() as tape:
            call()
        assert len(tape.nodes) == 1
    for layers in (1, 3):  # annotations, final h and final c at any depth
        with Tape() as tape:
            ad.encoder_sequence(**_encoder_inputs(rng, batch=2, length=5, layers=layers))
        assert len(tape.nodes[0][0]) == 3


def test_inference_mode_masks_active_tape():
    x = Tensor(np.ones((1, 3)))
    with Tape() as tape:
        with ad.inference_mode():
            matmul(x, Tensor(np.ones((3, 2))))
        assert tape.nodes == []


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


VOCAB = 5  # embedding table rows; id 0 is padding, so real ids repeat


def _embedding(rng, in_size, real):
    """A random [VOCAB, in_size] table and ids of 1 or more where `real` holds,
    0 elsewhere."""
    ids = np.where(real, rng.integers(1, VOCAB, real.shape), 0)
    return Tensor(rng.uniform(-1, 1, (VOCAB, in_size)), name="table"), ids


def _encoder_inputs(rng, batch, length, layers, in_size=3, hidden=2, keep=False):
    """Random float64 inputs of `ad.encoder_sequence`: source row b has
    length - 2b real positions (at least 1), the rest padding (id 0); with
    `keep`, a 0/2 inverted-dropout scale between the layers."""
    mask = np.zeros((batch, length))
    for b in range(batch):
        mask[b, : max(length - 2 * b, 1)] = 1.0
    cells = [[tuple(_cell_weights(rng, in_size if l == 0 else 2 * hidden, hidden))
              for _ in ("fwd", "bwd")] for l in range(layers)]
    for l, pair in enumerate(cells):
        for direction, cell in zip(("fwd", "bwd"), pair):
            for w in cell:
                w.name = f"l{l}.{direction}.{w.name}"
    scale = None
    if keep:
        scale = (rng.random((layers - 1, batch, length, 2 * hidden)) >= 0.5) / 0.5
    table, ids = _embedding(rng, in_size, mask == 1)
    return dict(table=table, ids=ids, mask=mask, layers=cells, keep=scale)


def _encoder_tensors(inputs):
    return [inputs["table"], *(w for pair in inputs["layers"] for cell in pair for w in cell)]


@pytest.mark.parametrize("case", ["one_layer", "dropout"])
def test_encoder_sequence_gradient(case):
    rng = np.random.default_rng(21)
    batch, length, hidden = 3, 4, 2  # rows of 4, 2 and 1 real positions
    layers = 1 if case == "one_layer" else 2
    inputs = _encoder_inputs(rng, batch, length, layers, hidden=hidden, keep=case == "dropout")
    w_ann = rng.uniform(-1, 1, (batch, length, 2 * hidden))
    w_finals = rng.uniform(-1, 1, (layers, 2, batch, 2 * hidden))

    def loss_of():
        annotations, final_h, final_c = ad.encoder_sequence(**inputs)
        return weighted_sum((annotations, w_ann), (final_h, w_finals[:, 0]),
                            (final_c, w_finals[:, 1]))

    _check_gradients(loss_of, _encoder_tensors(inputs))
    assert np.all(inputs["table"].grad[0] == 0.0)  # padding's id feeds nothing


def _encode_with_gradients(inputs, w_ann):
    """encoder_sequence's annotations and the gradients of sum(annotations *
    w_ann) for every input tensor, as bytes."""
    tensors = _encoder_tensors(inputs)
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        annotations = ad.encoder_sequence(**inputs)[0]
        tape.backward(weighted_sum((annotations, w_ann)))
    return annotations.data.tobytes(), [t.grad.tobytes() for t in tensors]


def test_dropout_zero_rate_is_identity():
    # a keep scale of ones (rate 0) gives the bits of no dropout at all
    rng = np.random.default_rng(23)
    inputs = _encoder_inputs(rng, batch=3, length=4, layers=3)
    w_ann = rng.uniform(-1, 1, (3, 4, 4))
    plain = _encode_with_gradients(inputs, w_ann)
    ones = np.ones((2, 3, 4, 4))
    assert _encode_with_gradients({**inputs, "keep": ones}, w_ann) == plain


def test_dropout_scales_kept_entries():
    # scaling layer 1's input by 2 is exact, so it equals doubling its input weights
    rng = np.random.default_rng(23)
    inputs = _encoder_inputs(rng, batch=3, length=4, layers=2)
    doubled = [list(pair) for pair in inputs["layers"]]
    doubled[1] = [(Tensor(2.0 * w_in.data), w_rec, bias) for w_in, w_rec, bias in doubled[1]]
    scaled = ad.encoder_sequence(**{**inputs, "keep": np.full((1, 3, 4, 4), 2.0)})[0]
    expected = ad.encoder_sequence(**{**inputs, "layers": doubled})[0]
    assert np.array_equal(scaled.data, expected.data)


def test_backward_passes_zeros_for_output_without_gradient():
    # only the annotations reach the loss: no final h or c gets a gradient, and
    # the tape passes zeros for them to encoder_sequence's backward
    rng = np.random.default_rng(22)
    inputs = _encoder_inputs(rng, batch=2, length=3, layers=2)
    w_ann = rng.uniform(-1, 1, (2, 3, 4))

    def loss_of():
        return weighted_sum((ad.encoder_sequence(**inputs)[0], w_ann))

    _check_gradients(loss_of, _encoder_tensors(inputs))


def _decoder_inputs(rng, steps, batch, layers, emb_size=3, hidden=4, length=5,
                    input_feeding=True, shared_start=False, dropout=False):
    """Random float64 inputs of `ad.decoder_sequence`. Source row b has
    length - b real positions (at least 1); the rest is masked."""
    t = lambda *shape, name=None: Tensor(rng.uniform(-1, 1, shape), name=name)
    starts = [(t(batch, hidden), t(batch, hidden)) for _ in range(1 if shared_start else layers)]
    h0, c0 = (Tensor(np.stack([s.data for s in states]), name=name)
              for states, name in zip(zip(*starts), ("h0", "c0")))
    mask_add = np.zeros((batch, length))
    for b in range(batch):
        mask_add[b, max(length - b, 1):] = -1e9
    cells = [tuple(_cell_weights(rng, (emb_size + hidden if input_feeding else emb_size)
                                 if l == 0 else hidden, hidden)) for l in range(layers)]
    for l, cell in enumerate(cells):
        for w in cell:
            w.name = f"l{l}.{w.name}"
    keep = None
    if dropout:
        keep = (rng.random((steps, layers - 1, batch, hidden)) >= 0.5) / 0.5
    table, ids = _embedding(rng, emb_size, np.ones((steps, batch), bool))
    return dict(
        table=table,
        ids=ids,
        h0=h0,
        c0=c0,
        starts=np.minimum(np.arange(layers), len(starts) - 1),
        annotations=t(batch, length, hidden, name="annotations"),
        mask_add=mask_add,
        cells=cells,
        w_score=t(hidden, hidden, name="w_score"),
        w_out=Tensor(np.ascontiguousarray(rng.uniform(-1, 1, (hidden, 2 * hidden)).T),
                     name="w_out"),
        b_out=t(hidden, name="b_out"),
        keep=keep,
        input_feeding=input_feeding,
    )


def _decoder_tensors(inputs):
    """Every differentiable input of `ad.decoder_sequence`."""
    return [inputs["table"], inputs["annotations"], inputs["w_score"], inputs["w_out"],
            inputs["b_out"], inputs["h0"], inputs["c0"],
            *(w for cell in inputs["cells"] for w in cell)]


@pytest.mark.parametrize("case", ["padded", "dropout", "one_row", "shared_start",
                                  "no_feeding"])
def test_decoder_sequence_gradient(case):
    rng = np.random.default_rng(25)
    steps, batch, layers = 4, 3, 2
    kwargs = {}
    if case == "dropout":
        kwargs["dropout"] = True
    elif case == "one_row":
        batch = 1
    elif case == "shared_start":
        layers, kwargs["shared_start"] = 3, True  # enc_layers=1 feeding dec_layers=3
    elif case == "no_feeding":
        kwargs["input_feeding"] = False
    inputs = _decoder_inputs(rng, steps, batch, layers, **kwargs)
    # padded target rows: row b ends after steps - b steps, and the loss, like
    # cross_entropy at PAD targets, sends its later steps no gradient
    w_loss = rng.uniform(-1, 1, (steps, batch, 4))
    for b in range(batch):
        w_loss[steps - b:, b] = 0.0
    w_loss = w_loss.reshape(steps * batch, 4)

    def loss_of():
        return weighted_sum((ad.decoder_sequence(**inputs), w_loss))

    _check_gradients(loss_of, _decoder_tensors(inputs))
    masked = inputs["mask_add"] < 0
    assert np.all(inputs["annotations"].grad[masked] == 0.0)  # padded source feeds nothing


def test_attention_shared_source_equals_repeated_source():
    # the decode-time rule: one annotation row serves every decoder row, with
    # the same bits as that row repeated
    rng = np.random.default_rng(24)
    f32 = lambda *shape: rng.uniform(-1, 1, shape).astype(np.float32)
    rows, n, length = 4, 6, 5
    one = f32(1, length, n)
    mask_add = np.array([[0, 0, 0, -1e9, -1e9]], dtype=np.float32)
    cells = [(f32(in_size, 4 * n), f32(n, 4 * n), f32(4 * n)) for in_size in (3 + n, n)]
    attention = (f32(n, n), f32(2 * n, n), f32(n))
    x0, prev = f32(rows, 3 + n), [(f32(rows, n), f32(rows, n)) for _ in cells]
    prev_h, prev_c = (np.stack(states) for states in zip(*prev))
    bufs = []
    for ann, mask in ((one, mask_add),
                      (np.repeat(one, rows, axis=0), np.repeat(mask_add, rows, axis=0))):
        buf = ad.DecoderBuffers(1, rows, 2, n, length, np.float32)
        ad.decoder_step(buf, 0, x0, prev_h, prev_c, cells, attention, ann, mask)
        bufs.append(buf)
    shared, repeated = bufs
    assert np.array_equal(shared.weights, repeated.weights)
    assert np.all(shared.weights[..., 3:] == 0.0)
    assert np.array_equal(shared.attn[1], repeated.attn[1])
    assert np.array_equal(shared.h[:, 1], repeated.h[:, 1])


def test_fused_ops_reject_mismatched_shapes():
    z = lambda *shape: Tensor(np.zeros(shape))
    encoder = _encoder_inputs(np.random.default_rng(0), batch=2, length=4, layers=2, keep=True)
    with pytest.raises(ValueError, match="encoder shape mismatch"):
        ad.encoder_sequence(**{**encoder, "mask": np.ones((2, 3))})
    with pytest.raises(ValueError, match="encoder shape mismatch"):
        ad.encoder_sequence(**{**encoder, "keep": np.ones((1, 2, 4, 2))})
    upper = encoder["layers"][1]
    with pytest.raises(ValueError, match=r"LSTM shape mismatch.*\(3, 8\)"):
        ad.encoder_sequence(**{**encoder, "layers": [encoder["layers"][0],
                                                     [(z(3, 8), *upper[0][1:]), upper[1]]]})
    inputs = _decoder_inputs(np.random.default_rng(0), steps=2, batch=2, layers=2)
    cells = inputs["cells"]
    with pytest.raises(ValueError, match=r"LSTM shape mismatch.*\(3, 16\)"):
        ad.decoder_sequence(**{**inputs, "cells": [(z(3, 16), *cells[0][1:]), cells[1]]})
    with pytest.raises(ValueError, match="decoder shape mismatch"):
        ad.decoder_sequence(**{**inputs, "annotations": z(1, 5, 4)})
    with pytest.raises(ValueError, match="decoder shape mismatch"):
        ad.decoder_sequence(**{**inputs, "annotations": z(2, 0, 4), "mask_add": np.zeros((2, 0))})
    with pytest.raises(ValueError, match="decoder shape mismatch"):
        ad.decoder_sequence(**{**inputs, "keep": np.ones((2, 2, 2, 4))})
