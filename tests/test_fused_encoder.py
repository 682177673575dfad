"""The fused whole-sequence ops against the step-by-step reference.

`lstm_layer` must match a loop of `lstm_step` at the valid positions, and
`attend` must match per-example `attention_scores` + `context_vector`, in
outputs and in every gradient, to 1e-12.  The whole model is also checked
against the per-timestep, per-example composition the fused ops replaced.
`lstm_layer`, which skips padded positions, must also match the dense
recurrence over every position (`dense_lstm_layer`): its valid states bit
for bit, and its gradients to 1e-12 of each array's largest magnitude."""

import logging
import warnings

import numpy as np
import pytest

from urgentbayes import encoder
from urgentbayes.autodiff import (
    Parameter,
    RngStream,
    Tensor,
    _accumulate,
    _check_finite,
    _node,
    affine,
    backward,
    concat,
    cross_entropy_from_logits,
    gather_rows,
    is_recording,
    logistic,
    no_grad,
)
from urgentbayes.encoder import (
    AFTER_LAYER_1,
    AFTER_LAYER_2,
    PREDICTION_INPUT,
    EncoderState,
    HyperParams,
    attend,
    attention_scores,
    context_vector,
    init_lstm_layer,
    lstm_layer,
    lstm_step,
)
from urgentbayes.errors import ConfigurationError, NonFiniteError, ShapeError, UsageError
from urgentbayes.training import build_model

ATOL = 1e-12


def reset(params):
    for p in params:
        p.zero_grad()


def grads(params):
    return [p.dense_grad() for p in params]


def summed(terms):
    """One scalar tensor: the sum of the given scalar tensors."""
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def random_lengths(gen, n, steps):
    """Mixed lengths in [1, steps] with at least one length-1 row and one
    full-length row."""
    lengths = gen.integers(1, steps + 1, size=n)
    lengths[0] = 1
    lengths[-1] = steps
    return gen.permutation(lengths)


# -- the recurrent layer ------------------------------------------------------

def looped_layer(layer, x):
    """lstm_step over every timestep; returns the per-step hidden states."""
    n, steps, _ = x.data.shape
    h = c = Tensor(np.zeros((n, layer.hidden_dim)))
    out = []
    for t in range(steps):
        h, c = lstm_step(layer, h, c, x[:, t])
        out.append(h)
    return out


SHAPES = [(1, 1, 3, 2), (3, 1, 4, 5), (4, 7, 3, 2), (2, 5, 6, 4), (5, 3, 1, 3), (6, 8, 3, 4)]


@pytest.mark.parametrize("n,steps,d,h", SHAPES)
def test_lstm_layer_matches_step_loop(n, steps, d, h):
    gen = np.random.default_rng(100 * n + steps)
    layer = init_lstm_layer(d, h, RngStream(n + steps).child("layer"), "layer")
    x = Parameter(gen.normal(size=(n, steps, d)), "x")
    # the fused loss weights padded positions too: their states are
    # constant zeros, so no gradient may flow from them
    weights = gen.normal(size=(n, steps, h))
    lengths = random_lengths(gen, n, steps)
    valid = np.arange(steps) < lengths[:, None]
    params = [x] + layer.parameters()

    reset(params)
    fused = lstm_layer(layer, x, lengths)
    backward((fused * weights).sum())
    fused_grads = grads(params)

    reset(params)
    looped = looped_layer(layer, x)
    backward(summed([
        (h_t * (weights[:, t] * valid[:, t, None])).sum() for t, h_t in enumerate(looped)
    ]))

    assert fused.data.shape == (n, steps, h)
    for t, h_t in enumerate(looped):
        rows = valid[:, t]
        np.testing.assert_allclose(fused.data[rows, t], h_t.data[rows], rtol=0, atol=ATOL)
    np.testing.assert_array_equal(fused.data[~valid], 0.0)
    for p, g in zip(params, fused_grads):
        np.testing.assert_allclose(g, p.dense_grad(), rtol=0, atol=ATOL, err_msg=p.name)
    np.testing.assert_array_equal(fused_grads[0][~valid], 0.0)


def dense_lstm_layer(params, x):
    """The recurrence over every position of every row, as `lstm_layer`
    ran before it skipped padded positions: the oracle whose valid states
    the packed op must match byte for byte, and whose gradients it must
    match to rounding."""
    wx, wh, bias = params.input_weights, params.recurrent_weights, params.bias
    n, steps, d = x.data.shape
    hd = params.hidden_dim
    keep = is_recording((x, wx, wh, bias))
    states = np.empty((n, steps, hd))
    gates = np.empty((n, steps, 4 * hd)) if keep else None
    cells = np.empty((n, steps, hd)) if keep else None
    projected = (x.data.reshape(-1, d) @ wx.data + bias.data).reshape(n, steps, 4 * hd)
    h = np.zeros((n, hd))
    c = np.zeros((n, hd))
    for t in range(steps):
        pre = projected[:, t] + h @ wh.data
        act = logistic(pre)
        act[:, 2 * hd : 3 * hd] = np.tanh(pre[:, 2 * hd : 3 * hd])
        if keep:
            _check_finite(pre, "LSTM pre-activation")
            gates[:, t] = act
        c = act[:, hd : 2 * hd] * c + act[:, :hd] * act[:, 2 * hd : 3 * hd]
        h = act[:, 3 * hd :] * np.tanh(c)
        states[:, t] = h
        if keep:
            cells[:, t] = c

    def bwd(g):
        i, f = gates[..., :hd], gates[..., hd : 2 * hd]
        cand, o = gates[..., 2 * hd : 3 * hd], gates[..., 3 * hd :]
        tanh_c = np.tanh(cells)
        slope = gates * (1.0 - gates)
        slope[..., 2 * hd : 3 * hd] = 1.0 - cand * cand
        through_c = o * (1.0 - tanh_c * tanh_c)
        prev_c = np.zeros((n, steps, hd))
        prev_c[:, 1:] = cells[:, :-1]
        d_pre = np.empty((n, steps, 4 * hd))
        dh_next = np.zeros((n, hd))
        dc_next = np.zeros((n, hd))
        for t in range(steps - 1, -1, -1):
            dh = g[:, t] + dh_next
            dc = dc_next + dh * through_c[:, t]
            dp = d_pre[:, t]
            dp[:, :hd] = dc * cand[:, t]
            dp[:, hd : 2 * hd] = dc * prev_c[:, t]
            dp[:, 2 * hd : 3 * hd] = dc * i[:, t]
            dp[:, 3 * hd :] = dh * tanh_c[:, t]
            dp *= slope[:, t]
            dh_next = dp @ wh.data.T
            dc_next = dc * f[:, t]
        flat = d_pre.reshape(n * steps, 4 * hd)
        if x.requires_grad:
            _accumulate(x, (flat @ wx.data.T).reshape(n, steps, d))
        _accumulate(wx, x.data.reshape(n * steps, d).T @ flat)
        prev_h = np.zeros((n, steps, hd))
        prev_h[:, 1:] = states[:, :-1]
        _accumulate(wh, prev_h.reshape(n * steps, hd).T @ flat)
        _accumulate(bias, flat.sum(axis=0))
    return _node(states, (x, wx, wh, bias), bwd)


def assert_matches_dense_recurrence(layer, x_data, lengths):
    """Valid states, recorded and not, byte-identical to `dense_lstm_layer`;
    dx and the three weight gradients within 1e-12 of the largest magnitude
    in the oracle's array, since the packed products sum the valid
    positions in another order."""
    steps = x_data.shape[1]
    gen = np.random.default_rng(len(lengths))
    valid = np.arange(steps) < lengths[:, None]
    # as in the model: the padded positions carry inputs but no gradient
    x = Parameter(x_data, "x")
    weights = gen.normal(size=(*valid.shape, layer.hidden_dim)) * valid[:, :, None]
    params = [x] + layer.parameters()
    outputs = []
    for op in (dense_lstm_layer, lambda p, v: lstm_layer(p, v, lengths)):
        reset(params)
        states = op(layer, x)
        backward((states * weights).sum())
        with no_grad():
            free = op(layer, Tensor(x.data)).data
        outputs.append((states.data[valid], free[valid], *grads(params)))
    names = ["states", "no_grad states", "dx", "dwx", "dwh", "dbias"]
    for name, want, got in zip(names, *outputs):
        if name.endswith("states"):
            assert got.tobytes() == want.tobytes(), name
        else:
            bound = 1e-12 * np.abs(want).max(initial=0.0)
            assert np.abs(got - want).max(initial=0.0) <= bound, name


# the forum shape's layers 1 and 2, the desk shape's layer 1, and small widths
@pytest.mark.parametrize("n,d,h", [(64, 128, 128), (64, 300, 128), (64, 32, 24), (7, 3, 4)])
def test_lstm_layer_matches_dense_recurrence(n, d, h):
    steps = 12
    gen = np.random.default_rng(d + h)
    layer = init_lstm_layer(d, h, RngStream(h).child("layer"), "layer")
    lengths = random_lengths(gen, n, steps)
    assert_matches_dense_recurrence(layer, gen.normal(size=(n, steps, d)), lengths)


@pytest.mark.parametrize("lengths", [
    [5],                  # one row: every product has one row
    [1, 1, 1, 1, 1, 1],   # one step, no recurrent gradient
    [3, 0, 5, 2],         # an empty row
    [6, 5, 3, 3, 1],      # already longest first
    [4, 2, 4, 2, 4, 2],   # tied lengths
], ids=["one-row", "all-length-1", "empty-row", "longest-first", "tied"])
def test_lstm_layer_edge_lengths_match_dense_recurrence(lengths):
    lengths = np.array(lengths)
    n, steps = len(lengths), int(lengths.max())
    gen = np.random.default_rng(steps)
    layer = init_lstm_layer(6, 5, RngStream(n).child("layer"), "layer")
    assert_matches_dense_recurrence(layer, gen.normal(size=(n, steps, 6)), lengths)


def test_lstm_layer_no_grad_same_states():
    gen = np.random.default_rng(7)
    layer = init_lstm_layer(3, 4, RngStream(7), "layer")
    x = Parameter(gen.normal(size=(2, 5, 3)), "x")
    lengths = np.array([5, 3])
    recorded = lstm_layer(layer, x, lengths)
    with no_grad():
        free = lstm_layer(layer, x, lengths)
    assert not free.requires_grad and free._parents == ()
    assert free.data.tobytes() == recorded.data.tobytes()


def test_lstm_layer_writes_over_its_input(monkeypatch):
    # projection blocks of two timesteps: each block is read before the
    # states overwrite it
    monkeypatch.setattr(encoder, "PROJECTION_BLOCK_BYTES", 2 * 3 * 4 * 4 * 8)
    gen = np.random.default_rng(8)
    layer = init_lstm_layer(4, 4, RngStream(8), "layer")
    x = gen.normal(size=(3, 7, 4))
    lengths = np.full(3, 7)
    with no_grad():
        want = lstm_layer(layer, Tensor(x), lengths).data
        states = lstm_layer(layer, Tensor(x), lengths, out=x)
    assert states.data is x
    assert x.tobytes() == want.tobytes()
    with pytest.raises(UsageError):
        lstm_layer(layer, Parameter(want, "x"), lengths, out=want)


def test_lstm_layer_zeroes_padded_states(monkeypatch):
    # projection blocks of two timesteps, as above; row 2 is empty
    monkeypatch.setattr(encoder, "PROJECTION_BLOCK_BYTES", 2 * 5 * 4 * 4 * 8)
    gen = np.random.default_rng(9)
    layer = init_lstm_layer(4, 4, RngStream(9), "layer")
    x = gen.normal(size=(5, 7, 4))
    lengths = np.array([3, 7, 0, 1, 5])
    padded = np.arange(7) >= lengths[:, None]
    recorded = lstm_layer(layer, Parameter(x.copy(), "x"), lengths).data
    with no_grad():
        free = lstm_layer(layer, Tensor(x.copy()), lengths).data
        # unsigned lengths order and count the rows as signed ones do
        unsigned = lstm_layer(layer, Tensor(x.copy()), lengths.astype(np.uint32)).data
        states = lstm_layer(layer, Tensor(x), lengths, out=x)
    assert states.data is x
    for out in (recorded, free, unsigned, x):
        assert out[padded].tobytes() == np.zeros((padded.sum(), 4)).tobytes()
        assert out.tobytes() == recorded.tobytes()
    assert (recorded[~padded] != 0.0).all()


def test_lstm_layer_rejects_bad_lengths():
    layer = init_lstm_layer(3, 2, RngStream(0), "layer")
    x = Tensor(np.zeros((2, 4, 3)))
    for lengths in ([4], [4, 5], [-1, 4], [[4, 4]]):
        with pytest.raises(ShapeError):
            lstm_layer(layer, x, np.array(lengths))


def test_lstm_layer_rejects_wrong_width():
    layer = init_lstm_layer(3, 2, RngStream(0), "layer")
    with pytest.raises(ShapeError):
        lstm_layer(layer, Tensor(np.zeros((2, 4, 5))), [4, 4])
    with pytest.raises(ShapeError):
        lstm_layer(layer, Tensor(np.zeros((2, 3))), [3, 3])


def test_lstm_layer_rejects_overflowing_pre_activation():
    # the gates would saturate to finite states; in training the overflow
    # must not pass
    layer = init_lstm_layer(2, 2, RngStream(0), "layer")
    layer.input_weights.data[...] = 1e200
    with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
        lstm_layer(layer, Tensor(np.full((1, 3, 2), 1e200)), [3])


def test_lstm_layer_saturates_gates_below_the_exp_range_without_warning():
    # pre-activations near -1e3, where e^-z overflows: under no_grad, and
    # recorded, since they are finite, the gates are exactly 0 and the
    # states finite
    layer = init_lstm_layer(2, 2, RngStream(0), "layer")
    layer.input_weights.data[...] = -500.0
    x = Tensor(np.ones((2, 3, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with no_grad():
            free = lstm_layer(layer, x, [3, 2]).data
        recorded = lstm_layer(layer, x, [3, 2]).data
    assert np.isfinite(free).all()
    assert free.tobytes() == recorded.tobytes()


# -- attention ------------------------------------------------------------------

def per_example_contexts(states, finals, lengths, mode):
    """attention_scores + context_vector one example at a time."""
    out = []
    for i, length in enumerate(lengths):
        st = EncoderState(
            states=states[i, :length],
            final_state=finals[i : i + 1],
        )
        attention_scores(st, mode)
        out.append(context_vector(st))
    return out


@pytest.mark.parametrize("mode", ["softmax", "ratio"])
@pytest.mark.parametrize("seed", range(4))
def test_attend_matches_per_example(mode, seed):
    gen = np.random.default_rng(seed)
    n, steps, h = int(gen.integers(2, 6)), int(gen.integers(1, 7)), int(gen.integers(1, 5))
    lengths = random_lengths(gen, n, steps)
    # positive states keep ratio-mode score sums away from zero
    lo = 0.2 if mode == "ratio" else -1.5
    states = Parameter(gen.uniform(lo, 1.5, (n, steps, h)), "states")
    finals = Parameter(gen.uniform(lo, 1.5, (n, h)), "finals")
    weights = gen.normal(size=(n, h))
    params = [states, finals]

    reset(params)
    fused = attend(states, finals, lengths, mode)
    backward((fused * weights).sum())
    fused_grads = grads(params)

    reset(params)
    reference = per_example_contexts(states, finals, lengths, mode)
    backward(summed([(ctx * weights[i]).sum() for i, ctx in enumerate(reference)]))

    for i, ctx in enumerate(reference):
        np.testing.assert_allclose(fused.data[i : i + 1], ctx.data, rtol=0, atol=ATOL)
    for p, g in zip(params, fused_grads):
        np.testing.assert_allclose(g, p.dense_grad(), rtol=0, atol=ATOL, err_msg=p.name)
    # padded positions neither attend nor receive gradient
    padded = np.arange(steps)[None, :] >= lengths[:, None]
    np.testing.assert_array_equal(fused_grads[0][padded], 0.0)


def test_attend_one_degenerate_ratio_row(caplog):
    # row 1 scores [1, -1] against [1, 0]: the sum vanishes
    states = np.array([
        [[0.5, 1.0], [2.0, 0.3], [1.0, 1.0]],
        [[1.0, 2.0], [-1.0, 5.0], [9.0, 9.0]],
        [[0.7, 0.1], [0.4, 0.9], [1.1, 0.6]],
    ])
    finals = np.array([[1.0, 0.5], [1.0, 0.0], [0.3, 1.2]])
    lengths = np.array([3, 2, 2])
    s, f = Parameter(states, "states"), Parameter(finals, "finals")
    with caplog.at_level(logging.WARNING):
        ctx = attend(s, f, lengths, "ratio")
    warnings = [r for r in caplog.records if "degenerate attention" in r.message]
    assert len(warnings) == 1
    # uniform over the two valid positions; the padded third row is ignored
    np.testing.assert_allclose(ctx.data[1], [0.0, 3.5], rtol=0, atol=ATOL)

    # the other rows are what they are without the degenerate row
    keep = np.array([0, 2])
    alone = attend(Tensor(states[keep]), Tensor(finals[keep]), lengths[keep], "ratio")
    assert ctx.data[keep].tobytes() == alone.data.tobytes()

    # and what per-example attention gives, gradients included
    weights = np.array([[0.3, -1.2], [0.8, 0.4], [-0.5, 0.9]])
    reset([s, f])
    backward((ctx * weights).sum())
    fused_grads = grads([s, f])
    reset([s, f])
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        reference = per_example_contexts(s, f, lengths, "ratio")
    assert sum("degenerate attention" in r.message for r in caplog.records) == 1
    for i, c in enumerate(reference):
        np.testing.assert_allclose(ctx.data[i : i + 1], c.data, rtol=0, atol=ATOL)
    backward(summed([(c * weights[i]).sum() for i, c in enumerate(reference)]))
    np.testing.assert_allclose(fused_grads[0], s.dense_grad(), rtol=0, atol=ATOL)
    np.testing.assert_allclose(fused_grads[1], f.dense_grad(), rtol=0, atol=ATOL)
    # uniform weights are constant: no gradient reaches the degenerate query
    np.testing.assert_array_equal(fused_grads[1][1], 0.0)


def test_attend_rejects_unknown_mode():
    with pytest.raises(ConfigurationError):
        attend(Tensor(np.ones((1, 2, 2))), Tensor(np.ones((1, 2))), np.array([2]), "linear")


# -- the whole model ---------------------------------------------------------------

def reference_logits(model, ids, lengths, masks):
    """The per-timestep, per-example composition: one gather and two
    lstm_step calls per timestep, attention one example at a time."""
    n = len(lengths)
    h1 = c1 = h2 = c2 = Tensor(np.zeros((n, model.hp.hidden_dim)))
    by_time = []
    for t in range(int(lengths.max())):
        h1, c1 = lstm_step(model.layer1, h1, c1, gather_rows(model.embedding, ids[:, t]))
        fed = h1 if masks is None else h1 * masks[AFTER_LAYER_1]
        h2, c2 = lstm_step(model.layer2, h2, c2, fed)
        by_time.append(h2 if masks is None else h2 * masks[AFTER_LAYER_2])
    contexts, finals = [], []
    for i, length in enumerate(lengths):
        rows = [by_time[t][i : i + 1] for t in range(length)]
        st = EncoderState(
            states=rows[0] if length == 1 else concat(rows, axis=0),
            final_state=by_time[length - 1][i : i + 1],
        )
        attention_scores(st, model.hp.attention_mode)
        contexts.append(context_vector(st))
        finals.append(st.final_state)
    pred_in = concat([concat(contexts, axis=0), concat(finals, axis=0)], axis=1)
    if masks is not None:
        pred_in = pred_in * masks[PREDICTION_INPUT]
    return affine(pred_in, model.head_weight, model.head_bias)


@pytest.mark.parametrize("kind", ["base", "mcd"])
@pytest.mark.parametrize("mode", ["softmax", "ratio"])
@pytest.mark.parametrize("seed", [0, 1])
def test_model_matches_per_step_composition(kind, mode, seed):
    gen = np.random.default_rng(seed)
    hp = HyperParams(max_len=7, embed_dim=4, hidden_dim=3, z_dim=2, attention_mode=mode)
    emb = gen.uniform(-0.5, 0.5, (15, hp.embed_dim))
    model = build_model(hp, emb, kind, seed)
    n = 5
    ids = gen.integers(0, 15, size=(n, hp.max_len))
    lengths = random_lengths(gen, n, hp.max_len - 1)
    labels = np.array([0, 1, 1, 0, 1])
    masks = model._placement_masks(n, RngStream(seed).child("masks"))
    assert (masks is None) == (kind == "base")
    params = model.parameters()

    reset(params)
    fused = model.batch_logits(ids, lengths, masks)
    backward(cross_entropy_from_logits(fused, labels))
    fused_grads = grads(params)

    reset(params)
    reference = reference_logits(model, ids, lengths, masks)
    backward(cross_entropy_from_logits(reference, labels))

    np.testing.assert_allclose(fused.data, reference.data, rtol=0, atol=ATOL)
    for p, g in zip(params, fused_grads):
        np.testing.assert_allclose(g, p.dense_grad(), rtol=0, atol=ATOL, err_msg=p.name)
    # prediction runs the same ops untaped
    assert model.infer_logits(ids, lengths, masks).tobytes() == fused.data.tobytes()


def test_embedding_gradient_touches_only_used_rows():
    gen = np.random.default_rng(3)
    hp = HyperParams(max_len=4, embed_dim=3, hidden_dim=2, z_dim=2)
    model = build_model(hp, gen.uniform(-0.5, 0.5, (30, 3)), "base", 3)
    ids = np.array([[2, 5, 5, 0], [7, 2, 0, 0]])
    lengths = np.array([3, 2])
    model.embedding.zero_grad()
    backward(cross_entropy_from_logits(model.batch_logits(ids, lengths), np.array([0, 1])))
    touched = np.flatnonzero(np.abs(model.embedding.dense_grad()).sum(axis=1))
    assert set(touched) <= {2, 5, 7}
