"""Unit and property tests for the reverse-mode engine."""

import math

import numpy as np
import pytest

from urgentbayes import autodiff as ad
from urgentbayes.autodiff import (
    Parameter,
    RngStream,
    Tensor,
    affine,
    backward,
    clip,
    concat,
    cross_entropy_from_logits,
    exp,
    gather_rows,
    grad_check,
    log,
    matmul,
    no_grad,
    sigmoid,
    softmax_stable,
    tanh_op,
    transpose,
)
from urgentbayes.encoder import (
    BaseClassifier,
    HyperParams,
    attend,
    init_lstm_layer,
    lstm_layer,
)
from urgentbayes.errors import (
    ConfigurationError,
    DomainError,
    NonFiniteError,
    ShapeError,
    UsageError,
)
from urgentbayes.mcd import McdClassifier, McdConfig


def _param(*shape):
    """A Parameter of distinct positive values, inside every op's domain."""
    return Parameter(np.linspace(0.5, 2.0, math.prod(shape)).reshape(shape), "p")


_LAYER = init_lstm_layer(4, 2, RngStream(0), "layer")

# every op the tape builds, each over Parameter inputs
TAPE_OPS = {
    "add": lambda: _param(3, 4) + _param(3, 4),
    "add_scalar": lambda: _param(3, 4) + 2.0,
    "neg": lambda: -_param(3, 4),
    "sub": lambda: _param(3, 4) - _param(3, 4),
    "sub_scalar": lambda: _param(3, 4) - 2.0,
    "rsub_scalar": lambda: 2.0 - _param(3, 4),
    "mul": lambda: _param(3, 4) * _param(3, 4),
    "mul_scalar": lambda: _param(3, 4) * 3.0,
    "div": lambda: _param(3, 4) / _param(3, 4),
    "div_scalar": lambda: _param(3, 4) / 2.0,
    "rdiv_scalar": lambda: 2.0 / _param(3, 4),
    "getitem": lambda: _param(3, 4)[1:],
    "sum": lambda: _param(3, 4).sum(axis=0),
    "mean": lambda: _param(3, 4).mean(),
    "affine": lambda: affine(_param(3, 4), _param(4, 2), _param(2)),
    "matmul": lambda: matmul(_param(3, 4), _param(4, 2)),
    "transpose": lambda: transpose(_param(3, 4)),
    "sigmoid": lambda: sigmoid(_param(3, 4)),
    "tanh_op": lambda: tanh_op(_param(3, 4)),
    "exp": lambda: exp(_param(3, 4)),
    "log": lambda: log(_param(3, 4)),
    "clip": lambda: clip(_param(3, 4), 1.0, 1.5),
    "softmax_stable": lambda: softmax_stable(_param(3, 4)),
    "concat": lambda: concat([_param(3, 4), _param(3, 2)], axis=1),
    "gather_rows": lambda: gather_rows(_param(3, 4), np.array([0, 2, 2])),
    "cross_entropy_from_logits": lambda: cross_entropy_from_logits(
        _param(3, 2), np.array([0, 1, 1])
    ),
    "lstm_layer": lambda: lstm_layer(_LAYER, _param(2, 3, 4)),
    "attend_softmax": lambda: attend(_param(3, 4, 2), _param(3, 2), [4, 2, 1], "softmax"),
    "attend_ratio": lambda: attend(_param(3, 4, 2), _param(3, 2), [4, 2, 1], "ratio"),
}


def scalar(t):
    return float(t.data.reshape(-1)[0])


class TestForwardValues:
    def test_sigmoid_zero(self):
        x = Parameter(np.array([0.0]), "x")
        y = sigmoid(x)
        assert scalar(y) == 0.5
        backward(y.sum())
        assert x.grad[0] == pytest.approx(0.25, abs=1e-15)

    def test_sigmoid_saturates_without_overflow(self):
        x = Tensor(np.array([40.0, -40.0]))
        y = sigmoid(x).data
        assert abs(y[0] - 1.0) < 1e-15
        assert abs(y[1] - 0.0) < 1e-15

    def test_softmax_known_ratio(self):
        x = Tensor(np.array([[math.log(2.0), 0.0]]))
        y = softmax_stable(x).data[0]
        np.testing.assert_allclose(y, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-12)

    def test_softmax_huge_logits_no_overflow(self):
        x = Tensor(np.array([[1000.0, 1000.0]]))
        y = softmax_stable(x).data[0]
        np.testing.assert_allclose(y, [0.5, 0.5], rtol=0, atol=1e-15)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(50, 9)) * 30)
        y = softmax_stable(x).data
        np.testing.assert_allclose(y.sum(axis=1), np.ones(50), atol=1e-12)
        assert (y >= 0).all()

    def test_cross_entropy_uniform_two_class(self):
        logits = Tensor(np.zeros((1, 2)))
        loss = cross_entropy_from_logits(logits, np.array([0]))
        assert scalar(loss) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_cross_entropy_confident_correct(self):
        logits = Tensor(np.array([[50.0, 0.0]]))
        loss = cross_entropy_from_logits(logits, np.array([0]))
        # -log(sigmoid(50)) is tiny but positive
        assert 0 <= scalar(loss) < 1e-20

    def test_cross_entropy_mean_over_batch(self):
        logits = Tensor(np.zeros((4, 3)))
        loss = cross_entropy_from_logits(logits, np.array([0, 1, 2, 0]))
        assert scalar(loss) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_affine_hand_case(self):
        x = Tensor(np.array([[1.0, 2.0]]))
        w = Parameter(np.array([[1.0, 0.0, -1.0], [0.5, 2.0, 1.0]]), "w")
        b = Parameter(np.array([0.0, 1.0, -1.0]), "b")
        y = affine(x, w, b)
        np.testing.assert_allclose(y.data, [[2.0, 5.0, 0.0]])

    def test_tanh_matches_numpy(self):
        x = Tensor(np.linspace(-3, 3, 13))
        np.testing.assert_allclose(tanh_op(x).data, np.tanh(x.data), rtol=1e-15)

    def test_clip_bounds(self):
        x = Tensor(np.array([-10.0, 0.0, 10.0]))
        np.testing.assert_allclose(clip(x, -8.0, 8.0).data, [-8.0, 0.0, 8.0])


class TestBackwardContracts:
    def test_unreached_parameter_keeps_zero_grad(self):
        a = Parameter(np.ones(3), "a")
        b = Parameter(np.ones(3), "b")
        loss = (a * 2.0).sum()
        backward(loss)
        np.testing.assert_allclose(a.grad, [2.0, 2.0, 2.0])
        np.testing.assert_allclose(b.grad, [0.0, 0.0, 0.0])

    def test_reuse_sums_gradients(self):
        a = Parameter(np.array([3.0]), "a")
        loss = (a * a).sum()
        backward(loss)
        assert a.grad[0] == pytest.approx(6.0)

    def test_gather_repeated_row_doubles_grad(self):
        table = Parameter(np.arange(6.0).reshape(3, 2), "emb")
        rows = gather_rows(table, np.array([1, 1, 2]))
        backward(rows.sum())
        np.testing.assert_allclose(table.grad, [[0, 0], [2, 2], [1, 1]])

    def test_non_scalar_loss_rejected(self):
        a = Parameter(np.ones(3), "a")
        with pytest.raises(UsageError):
            backward(a * 2.0)

    def test_grad_accumulates_across_backward_calls(self):
        a = Parameter(np.array([1.0]), "a")
        backward((a * 5.0).sum())
        backward((a * 5.0).sum())
        assert a.grad[0] == pytest.approx(10.0)
        a.zero_grad()
        assert a.grad[0] == 0.0

    def test_concat_splits_adjoint(self):
        a = Parameter(np.ones((2, 2)), "a")
        b = Parameter(np.ones((2, 3)), "b")
        out = concat([a, b], axis=1)
        assert out.data.shape == (2, 5)
        backward((out * np.arange(10.0).reshape(2, 5)).sum())
        np.testing.assert_allclose(a.grad, [[0, 1], [5, 6]])
        np.testing.assert_allclose(b.grad, [[2, 3, 4], [7, 8, 9]])

    def test_broadcast_grad_reduces(self):
        a = Parameter(np.ones((1, 3)), "a")
        b = Tensor(np.ones((4, 3)))
        backward((a + b).sum())
        np.testing.assert_allclose(a.grad, [[4.0, 4.0, 4.0]])

    @pytest.mark.parametrize("op", TAPE_OPS)
    def test_no_grad_prunes_graph(self, op):
        # the backward closure, and every array it saves, lives only on the tape
        with no_grad():
            y = TAPE_OPS[op]()
        assert not y.requires_grad
        assert y._parents == () and y._backward is None
        recorded = TAPE_OPS[op]()
        assert recorded.requires_grad and recorded._parents
        assert callable(recorded._backward)

    def test_deep_chain_does_not_overflow_stack(self):
        a = Parameter(np.array([1.0]), "a")
        y = a
        for _ in range(30_000):
            y = y + 0.0
        backward(y.sum())
        assert a.grad[0] == pytest.approx(1.0)


class TestFiniteDifferenceProperties:
    """Every differentiable op is compared against central differences on
    random inputs drawn from [-2, 2]."""

    def _check(self, build, n_params_shapes, seed, tol=1e-4):
        rng = np.random.default_rng(seed)
        params = [
            Parameter(rng.uniform(-2, 2, size=s), f"p{i}")
            for i, s in enumerate(n_params_shapes)
        ]
        report = grad_check(lambda: build(*params), params, tolerance=tol)
        assert report.passed, report.summary()

    def test_add_mul_div(self):
        self._check(lambda a, b: ((a * b + a) / (b + 3.0)).sum(), [(3, 4), (3, 4)], 0)

    def test_matmul(self):
        self._check(lambda a, b: matmul(a, b).sum(), [(3, 4), (4, 2)], 1)

    def test_affine(self):
        self._check(
            lambda x, w, b: (affine(x, w, b) * 0.7).sum(), [(5, 3), (3, 4), (4,)], 2
        )

    def test_sigmoid_tanh_exp(self):
        self._check(
            lambda a: (sigmoid(a) * tanh_op(a) + exp(a * 0.1)).sum(), [(4, 4)], 3
        )

    def test_log(self):
        rng = np.random.default_rng(4)
        p = Parameter(rng.uniform(0.5, 3.0, size=(3, 3)), "p")
        report = grad_check(lambda: log(p).sum(), [p])
        assert report.passed, report.summary()

    def test_softmax(self):
        self._check(
            lambda a: (softmax_stable(a) * np.arange(12.0).reshape(3, 4)).sum(),
            [(3, 4)],
            5,
        )

    def test_cross_entropy(self):
        labels = np.array([0, 2, 1])
        self._check(
            lambda a: cross_entropy_from_logits(a, labels), [(3, 3)], 6
        )

    def test_getitem_transpose_mean(self):
        self._check(
            lambda a: (transpose(a)[1:3] * 2.0).mean(), [(4, 5)], 7
        )

    def test_concat_gather(self):
        ids = np.array([0, 2, 2, 1])
        self._check(
            lambda t, b: (concat([gather_rows(t, ids), b], axis=1) * 0.5).sum(),
            [(3, 2), (4, 3)],
            9,
        )

    def test_corrupted_adjoint_is_caught(self):
        # Negative control: a deliberately wrong backward rule must fail
        # the finite-difference check, otherwise the checker proves nothing.
        def bad_square(t):
            # wrong: should be 2*x*g
            return ad._node(t.data * t.data, (t,), lambda g: ad._accumulate(t, g * t.data))

        p = Parameter(np.array([1.5, -0.5]), "p")
        report = grad_check(lambda: bad_square(p).sum(), [p])
        assert not report.passed


def dropout_model(rate, hidden_dim=4):
    hp = HyperParams(max_len=4, embed_dim=3, hidden_dim=hidden_dim, z_dim=2)
    return McdClassifier(hp, np.zeros((5, 3)), RngStream(0), McdConfig(dropout_rate=rate))


class TestDropout:
    """Inverted dropout as the models draw it: one scaled keep-mask per
    placement from `_placement_masks`."""

    def test_rate_zero_is_identity_object(self):
        assert dropout_model(0.0)._placement_masks(3, RngStream(1)) is None

    def test_inactive_is_identity_object(self):
        # the deterministic model's hook draws no masks
        assert BaseClassifier._placement_masks(dropout_model(0.3), 3, RngStream(1)) is None

    def test_mask_deterministic_per_stream(self):
        model = dropout_model(0.3, hidden_dim=8)
        a = model._placement_masks(8, RngStream(5).child("m", 0))
        b = model._placement_masks(8, RngStream(5).child("m", 0))
        c = model._placement_masks(8, RngStream(5).child("m", 1))
        for placement in a:
            np.testing.assert_array_equal(a[placement], b[placement])
            assert not np.array_equal(a[placement], c[placement])

    def test_preserves_expectation(self):
        model = dropout_model(0.3, hidden_dim=100)
        base = RngStream(123).child("exp")
        means = [model._placement_masks(100, base.child(i))[0].mean() for i in range(50)]
        assert abs(np.mean(means) - 1.0) < 0.01

    def test_survivors_scaled(self):
        for rate in (0.5, 0.3):
            masks = dropout_model(rate, hidden_dim=10)._placement_masks(10, RngStream(7))
            for mask in masks.values():
                kept = mask[mask != 0]
                assert kept.size
                np.testing.assert_array_equal(kept, 1.0 / (1.0 - rate))

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            dropout_model(1.0)
        with pytest.raises(ConfigurationError):
            dropout_model(-0.1)


class TestValidation:
    def test_nan_rejected_on_construction(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([1.0, float("nan")]))

    def test_inf_rejected_from_op(self):
        x = Tensor(np.array([800.0]))
        with pytest.raises(NonFiniteError):
            exp(x)

    def test_log_domain(self):
        with pytest.raises(DomainError):
            log(Tensor(np.array([0.0, 1.0])))

    def test_shape_mismatch_message(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones((2, 3)))
        with pytest.raises(ShapeError):
            matmul(a, b)

    def test_bad_label_rejected(self):
        logits = Tensor(np.zeros((2, 2)))
        with pytest.raises(DomainError):
            cross_entropy_from_logits(logits, np.array([0, 2]))

    def test_gather_out_of_range(self):
        t = Tensor(np.ones((3, 2)))
        with pytest.raises(DomainError):
            gather_rows(t, np.array([3]))


class TestDeterminism:
    def test_forward_bitwise_repeatable(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(4, 6)))
        w = Parameter(rng.normal(size=(6, 3)), "w")
        b = Parameter(rng.normal(size=(3,)), "b")

        def run():
            return softmax_stable(tanh_op(affine(x, w, b))).data.tobytes()

        assert run() == run()

    def test_rng_stream_identity(self):
        a = RngStream(42, key=("layer",)).child(3)
        b = RngStream(42).child("layer").child(3)
        assert a.generator().random(5).tobytes() == b.generator().random(5).tobytes()

    def test_rng_streams_differ_by_key(self):
        g1 = RngStream(42).child(0).generator().random(8)
        g2 = RngStream(42).child(1).generator().random(8)
        assert not np.array_equal(g1, g2)

    def test_string_tags_stable(self):
        r1 = RngStream(9).child("noise").generator().random(4)
        r2 = RngStream(9).child("noise").generator().random(4)
        np.testing.assert_array_equal(r1, r2)
