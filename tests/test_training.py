"""Training loop, optimizer, evaluation glue, and checkpoint format."""

import math
from pathlib import Path

import numpy as np
import pytest

from urgentbayes import encoder as encoder_module
from urgentbayes import mcd as mcd_module
from urgentbayes import training
from urgentbayes import vi as vi_module
from urgentbayes.autodiff import Parameter, RngStream, backward
from urgentbayes.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    restore_model,
    save_checkpoint,
)
from urgentbayes.corpus import LabeledExample
from urgentbayes.encoder import HyperParams, PredictiveDistribution
from urgentbayes.errors import (
    CheckpointError,
    ConfigurationError,
    DataError,
    DivergenceError,
    NonFiniteError,
    UsageError,
)
from urgentbayes.metrics import predictive_entropy
from urgentbayes.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    AdaptiveMomentState,
    TrainConfig,
    adaptive_moment_step,
    build_model,
    clip_gradient_norm,
    evaluate,
    train,
    train_accuracy,
)
from urgentbayes.vi import ViConfig


def tiny_hp(**overrides):
    defaults = dict(max_len=6, embed_dim=5, hidden_dim=4, z_dim=3)
    defaults.update(overrides)
    return HyperParams(**defaults)


def tiny_model(kind="base", seed=0, vocab=20, **hp_overrides):
    hp = tiny_hp(**hp_overrides)
    emb = RngStream(seed).child("emb").generator().uniform(-0.5, 0.5, (vocab, hp.embed_dim))
    return build_model(hp, emb, kind, seed, vi_cfg=ViConfig(z_dim=hp.z_dim))


def toy_split(n=12, seed=0, max_len=6):
    # class 1 posts always contain token 2, class 0 posts token 3
    gen = np.random.default_rng(seed)
    out = []
    for i in range(n):
        label = i % 2
        marker = 2 if label else 3
        length = int(gen.integers(2, max_len + 1))
        ids = np.zeros(max_len, dtype=np.int64)
        ids[:length] = gen.integers(4, 20, size=length)
        ids[gen.integers(0, length)] = marker
        out.append(LabeledExample(ids, length, label))
    return out


class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        cfg.validate()
        assert cfg.learning_rate == 1e-3
        assert cfg.batch_size == 64
        assert cfg.epochs == 20
        assert cfg.gradient_clip_norm == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(learning_rate=0.0),
            dict(learning_rate=-1.0),
            dict(learning_rate=math.inf),
            dict(learning_rate=math.nan),
            dict(batch_size=0),
            dict(epochs=-1),
            dict(model_kind="rnn"),
            dict(gradient_clip_norm=0.0),
            dict(batch_size=2.5),
            dict(batch_size=True),
            dict(epochs=1.5),
            dict(epochs=True),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            TrainConfig(**kwargs).validate()

    def test_no_clip_allowed(self):
        TrainConfig(gradient_clip_norm=None).validate()


class TestAdaptiveMoment:
    def test_zero_gradient_unchanged(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        state = AdaptiveMomentState([p])
        before = p.data.copy()
        for _ in range(3):
            p.grad[...] = 0.0
            adaptive_moment_step([p], state, 0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_first_step_closed_form(self):
        p = Parameter(np.array([1.0, 1.0, 1.0]), "p")
        g = np.array([0.5, -0.25, 3.0])
        state = AdaptiveMomentState([p])
        p.grad[...] = g
        adaptive_moment_step([p], state, 0.01)
        expected = 1.0 - 0.01 * g / (np.abs(g) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12)

    def test_constant_gradient_step_magnitude_approaches_lr(self):
        p = Parameter(np.array([0.0]), "p")
        state = AdaptiveMomentState([p])
        lr = 1e-3
        prev = p.data.copy()
        for _ in range(500):
            p.grad[...] = 0.7
            prev = p.data.copy()
            adaptive_moment_step([p], state, lr)
        step = abs(float(p.data[0] - prev[0]))
        assert step == pytest.approx(lr, rel=0.01)

    def test_state_length_mismatch(self):
        p = Parameter(np.zeros(2), "p")
        q = Parameter(np.zeros(2), "q")
        state = AdaptiveMomentState([p])
        with pytest.raises(UsageError):
            adaptive_moment_step([p, q], state, 0.1)


class TestClip:
    def test_scales_when_over(self):
        a = Parameter(np.zeros(1), "a")
        b = Parameter(np.zeros(1), "b")
        a.grad[...] = 6.0
        b.grad[...] = 8.0  # joint norm 10
        norm = clip_gradient_norm([a, b], 5.0)
        assert norm == pytest.approx(10.0)
        assert a.grad[0] == pytest.approx(3.0)
        assert b.grad[0] == pytest.approx(4.0)

    def test_leaves_small_untouched(self):
        a = Parameter(np.zeros(1), "a")
        a.grad[...] = 3.0
        norm = clip_gradient_norm([a], 5.0)
        assert norm == pytest.approx(3.0)
        assert a.grad[0] == 3.0

    def test_non_finite_gradient_is_not_scaled(self):
        # scaling by an infinite norm would turn inf into inf * 0 = NaN
        a = Parameter(np.zeros(2), "a")
        b = Parameter(np.zeros(1), "b")
        a.grad[...] = 3.0
        b.grad[...] = np.inf
        with pytest.raises(NonFiniteError, match="gradient of b"):
            clip_gradient_norm([a, b], 5.0)
        assert a.grad.tolist() == [3.0, 3.0]


class TestTrainLoop:
    def test_zero_epochs_params_unchanged(self):
        model = tiny_model()
        before = [p.data.copy() for p in model.parameters()]
        result = train(model, toy_split(), TrainConfig(epochs=0))
        assert result.loss_trace == [] and result.n_steps == 0
        for p, b in zip(model.parameters(), before):
            assert p.data.tobytes() == b.tobytes()

    def test_same_seed_bitwise_identical(self):
        split = toy_split()
        cfg = TrainConfig(epochs=3, batch_size=4, seed=7)
        runs = []
        for _ in range(2):
            model = tiny_model(seed=1)
            train(model, split, cfg)
            runs.append([p.data.copy() for p in model.parameters()])
        for x, y in zip(*runs):
            assert x.tobytes() == y.tobytes()

    def test_trace_shape_and_parts(self):
        model = tiny_model()
        result = train(model, toy_split(), TrainConfig(epochs=4, batch_size=5))
        assert [r.epoch for r in result.loss_trace] == [0, 1, 2, 3]
        assert all(set(r.parts) == {"cross_entropy"} for r in result.loss_trace)
        assert result.n_steps == 4 * 3  # ceil(12 / 5) batches per epoch

    def test_vi_trace_has_both_parts(self):
        model = tiny_model("vi")
        result = train(model, toy_split(), TrainConfig(epochs=2, batch_size=6, model_kind="vi"))
        for record in result.loss_trace:
            assert set(record.parts) == {"reconstruction", "kl"}
            assert math.isfinite(record.parts["kl"])

    def test_mcd_trains_with_dropout(self):
        model = tiny_model("mcd")
        result = train(model, toy_split(), TrainConfig(epochs=2, batch_size=6, model_kind="mcd"))
        assert len(result.loss_trace) == 2

    @pytest.mark.parametrize("kind, cfg_kind", [("base", "vi"), ("mcd", "base"), ("vi", "mcd")])
    def test_model_kind_must_match_model(self, kind, cfg_kind):
        model = tiny_model(kind)
        before = [p.data.copy() for p in model.parameters()]
        with pytest.raises(ConfigurationError, match="model_kind"):
            train(model, toy_split(), TrainConfig(epochs=1, model_kind=cfg_kind))
        for p, b in zip(model.parameters(), before):
            assert p.data.tobytes() == b.tobytes()

    def test_rejects_empty_and_single_class(self):
        model = tiny_model()
        with pytest.raises(DataError):
            train(model, [], TrainConfig())
        ones_only = [ex for ex in toy_split() if ex.label == 1]
        with pytest.raises(DataError):
            train(model, ones_only, TrainConfig())

    def test_divergence_aborts_with_diagnostic(self):
        model = tiny_model()
        cfg = TrainConfig(learning_rate=1e200, epochs=3, batch_size=12)
        with np.errstate(all="ignore"), pytest.raises(DivergenceError) as exc:
            train(model, toy_split(), cfg)
        assert "epoch" in str(exc.value)

    def test_loss_nonincreasing_in_most_seeds(self):
        # sanity property, not a theorem: full-batch steps at small lr
        # should not climb in at least 9 of 10 seeds
        good = 0
        for seed in range(10):
            model = tiny_model(seed=seed)
            cfg = TrainConfig(
                learning_rate=1e-3, epochs=10, batch_size=12, seed=seed
            )
            trace = train(model, toy_split(seed=seed), cfg).loss_trace
            losses = [r.loss for r in trace]
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                good += 1
        assert good >= 9, f"loss climbed in {10 - good} seeds"

    def test_loss_decreases_overall(self):
        model = tiny_model(seed=3)
        trace = train(
            model,
            toy_split(n=16, seed=3),
            TrainConfig(learning_rate=5e-3, epochs=20, batch_size=16),
        ).loss_trace
        assert trace[-1].loss < trace[0].loss

    def test_overfits_separable_toy(self):
        model = tiny_model(seed=4, hidden_dim=6)
        split = toy_split(n=16, seed=4)
        train(model, split, TrainConfig(learning_rate=1e-2, epochs=60, batch_size=16))
        assert train_accuracy(model, split) == 1.0

    def test_train_accuracy_scores_a_tie_as_label_0(self):
        model = tiny_model(seed=4)
        params = {p.name: p for p in model.parameters()}
        params["head.weight"].data[:, 1] = params["head.weight"].data[:, 0]
        params["head.bias"].data[:] = 0.25
        split = toy_split(n=12, seed=4)
        logits = model.infer_logits(*training._stack(split)[:2])
        assert np.array_equal(logits[:, 0], logits[:, 1])
        labels = np.array([ex.label for ex in split])
        assert train_accuracy(model, split) == np.mean(labels == 0) == 0.5

    @pytest.mark.parametrize("clip", [5.0, None])
    def test_non_finite_gradient_aborts_before_the_update(self, monkeypatch, clip):
        model = tiny_model(seed=2)
        weights = {p.name: p for p in model.parameters()}["layer1.recurrent_weights"]

        def poisoned_backward(loss):
            backward(loss)
            weights.grad[1, 2] = np.inf

        monkeypatch.setattr(training, "backward", poisoned_backward)
        before = [p.data.copy() for p in model.parameters()]
        cfg = TrainConfig(epochs=1, batch_size=12, gradient_clip_norm=clip)
        with pytest.raises(DivergenceError, match=r"epoch 0, step 0: .*layer1\.recurrent_weights"):
            train(model, toy_split(), cfg)
        for p, b in zip(model.parameters(), before):
            assert p.data.tobytes() == b.tobytes(), p.name


def dense_adam(datas, grads, first, second, t, lr):
    """The update applied to every row of every parameter, in the textbook
    form: the oracle the row-sparse step must match byte for byte."""
    for data, g, m, v in zip(datas, grads, first, second):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)


# Hand-made batches over a 60-row table. Row 30 is first gathered at step 3
# (so its first bias correction uses the global t = 3) and not at step 4,
# where only its moments move it. Row 0 is padding.
SPARSE_BATCHES = [
    ([[2, 3, 4, 5, 0, 0], [6, 7, 8, 0, 0, 0]], [4, 3], [1, 0]),
    ([[2, 9, 10, 11, 12, 0], [3, 4, 0, 0, 0, 0]], [5, 2], [0, 1]),
    ([[30, 2, 3, 0, 0, 0], [31, 5, 6, 7, 8, 9]], [3, 6], [1, 0]),
    ([[2, 3, 0, 0, 0, 0], [4, 5, 6, 0, 0, 0]], [2, 3], [1, 0]),
    ([[12, 11, 10, 9, 0, 0], [8, 30, 0, 0, 0, 0]], [4, 2], [0, 1]),
]


class TestRowSparseAdam:
    """The row-sparse step skips only rows whose update is exactly a no-op,
    so it must agree with `dense_adam` bit for bit."""

    def step_both(self, model, batches, clip_norm, lr=5e-2):
        """Run the batches through `adaptive_moment_step` and `dense_adam`
        side by side, checking parameters and moments after every step."""
        params = model.parameters()
        state = AdaptiveMomentState(params)
        datas = [p.data.copy() for p in params]
        first = [np.zeros_like(p.data) for p in params]
        second = [np.zeros_like(p.data) for p in params]
        norms, live_rows = [], []
        for t, (ids, lengths, labels) in enumerate(batches, start=1):
            loss, _ = model.batch_loss_parts(
                np.array(ids), np.array(lengths), np.array(labels), RngStream(t)
            )
            for p in params:
                p.zero_grad()
            backward(loss)
            norms.append(clip_gradient_norm(params, clip_norm))
            dense_adam(datas, [p.grad for p in params], first, second, t, lr)
            adaptive_moment_step(params, state, lr)
            for p, d, m, v, sm, sv in zip(params, datas, first, second, state.first, state.second):
                assert p.data.tobytes() == d.tobytes(), (t, p.name)
                assert sm.tobytes() == m.tobytes(), (t, p.name)
                assert sv.tobytes() == v.tobytes(), (t, p.name)
            live = state.live[0]
            live_rows.append(None if live is None else set(np.flatnonzero(live).tolist()))
        return state, norms, live_rows

    @pytest.mark.parametrize("kind", ["base", "mcd", "vi"])
    def test_matches_dense_update(self, kind):
        model = tiny_model(kind, seed=8, vocab=60)
        assert model.parameters()[0] is model.embedding
        pad_row = model.embedding.data[0].copy()
        state, norms, live_rows = self.step_both(model, SPARSE_BATCHES, clip_norm=0.05)
        assert max(norms) > 0.05  # clipping fired
        assert 30 not in live_rows[1] and 30 in live_rows[2]
        assert 0 not in live_rows[-1]  # the pad row never had a gradient
        assert model.embedding.data[0].tobytes() == pad_row.tobytes()
        assert not state.first[0][0].any() and not state.second[0][0].any()
        # the table stays on the sparse path, every other 2-D weight went dense
        assert state.live[0] is not None
        assert all(live is None for live in state.live[1:])

    @pytest.mark.parametrize("kind", ["base", "mcd", "vi"])
    def test_mostly_live_table_takes_dense_update(self, kind):
        model = tiny_model(kind, seed=9, vocab=13)
        batches = [b for b in SPARSE_BATCHES if max(map(max, b[0])) < 13]
        _, _, live_rows = self.step_both(model, batches, clip_norm=0.05)
        assert live_rows == [None] * len(batches)

    def test_all_rows_live(self):
        gen = np.random.default_rng(3)
        p = Parameter(gen.standard_normal((50, 4)), "p")
        state = AdaptiveMomentState([p])
        data, m, v = p.data.copy(), np.zeros((50, 4)), np.zeros((50, 4))
        for t in range(1, 5):
            p.grad[...] = gen.standard_normal((50, 4))
            dense_adam([data], [p.grad], [m], [v], t, 1e-2)
            adaptive_moment_step([p], state, 1e-2)
            assert state.live[0] is None
            assert p.data.tobytes() == data.tobytes()
            assert state.first[0].tobytes() == m.tobytes()
            assert state.second[0].tobytes() == v.tobytes()

    @pytest.mark.parametrize("kind", ["base", "mcd", "vi"])
    def test_train_matches_dense_train(self, kind, tmp_path, monkeypatch):
        examples = [
            LabeledExample(np.array(ids), length, label)
            for batch in SPARSE_BATCHES
            for ids, length, label in zip(*batch)
        ]
        cfg = TrainConfig(learning_rate=5e-2, epochs=3, batch_size=4, seed=1,
                          model_kind=kind, gradient_clip_norm=0.05)
        model, reference = tiny_model(kind, seed=10, vocab=60), tiny_model(kind, seed=10, vocab=60)
        result = train(model, examples, cfg)

        def dense_step(params, state, lr):
            state.step_count += 1
            dense_adam([p.data for p in params], [p.grad for p in params],
                       state.first, state.second, state.step_count, lr)

        monkeypatch.setattr(training, "adaptive_moment_step", dense_step)
        assert result.loss_trace == train(reference, examples, cfg).loss_trace
        tokens = ["<pad>", "<unk>"] + [f"t{i}" for i in range(58)]
        paths = [str(tmp_path / f"{name}.ckpt") for name in ("sparse", "dense")]
        save_checkpoint(paths[0], model, tokens)
        save_checkpoint(paths[1], reference, tokens)
        assert Path(paths[0]).read_bytes() == Path(paths[1]).read_bytes()

    def test_very_large_vocabulary(self, monkeypatch):
        # 200k rows: a train step must leave the rows no post gathered bitwise
        # alone, with zero moments, and move the rows the posts used
        states = []

        class RecordingState(AdaptiveMomentState):
            def __init__(self, params):
                super().__init__(params)
                states.append(self)

        monkeypatch.setattr(training, "AdaptiveMomentState", RecordingState)
        vocab = 200_000
        model = tiny_model(seed=11, vocab=vocab, embed_dim=2)
        gen = np.random.default_rng(11)
        examples = []
        for i in range(16):
            length = int(gen.integers(1, 7))
            ids = np.zeros(6, dtype=np.int64)
            ids[:length] = gen.integers(2, vocab, size=length)
            examples.append(LabeledExample(ids, length, i % 2))
        before = model.embedding.data.copy()
        train(model, examples, TrainConfig(learning_rate=1e-2, epochs=2, batch_size=8))
        used = np.unique(np.concatenate([ex.token_ids[: ex.true_length] for ex in examples]))
        unused = np.setdiff1d(np.arange(vocab), used)
        after = model.embedding.data
        assert after[unused].tobytes() == before[unused].tobytes()
        assert (after[used] != before[used]).any(axis=1).all()
        (state,) = states
        assert state.live[0] is not None  # the update stayed row-sparse
        assert not state.first[0][unused].any() and not state.second[0][unused].any()


class _StubModel:
    def __init__(self, labels_to_predict, probs=(0.9, 0.1)):
        self._labels = labels_to_predict
        self._probs = np.asarray(probs)

    def predict_batch(self, ids, lengths, rng=None):
        out = []
        for label in self._labels:
            probs = self._probs if label == 0 else self._probs[::-1]
            out.append(
                PredictiveDistribution(
                    mean_probs=probs.copy(),
                    mean_logits=np.log(probs),
                    per_sample_logits=np.log(probs)[None, :],
                    entropy=predictive_entropy(probs),
                    predicted_label=label,
                )
            )
        return out


class TestEvaluate:
    def test_hand_confusion(self):
        # TP=3 FP=1 FN=1 TN=5 for class 1
        y_true = [1, 1, 1, 0, 1, 0, 0, 0, 0, 0]
        y_pred = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        examples = [LabeledExample(np.zeros(4, dtype=np.int64), 1, y) for y in y_true]
        report = evaluate(_StubModel(y_pred), examples)
        assert report.accuracy == pytest.approx(0.8)
        one = report.per_class[1]
        assert (one.precision, one.recall, one.f1) == (0.75, 0.75, 0.75)

    def test_perfect_classifier(self):
        y = [0, 1, 0, 1, 1]
        examples = [LabeledExample(np.zeros(4, dtype=np.int64), 1, v) for v in y]
        report = evaluate(_StubModel(y), examples)
        assert report.accuracy == 1.0
        assert report.per_class[0].f1 == 1.0 and report.per_class[1].f1 == 1.0

    def test_all_predict_zero_on_imbalance(self):
        y_true = [1] * 2 + [0] * 8
        examples = [LabeledExample(np.zeros(4, dtype=np.int64), 1, v) for v in y_true]
        report = evaluate(_StubModel([0] * 10), examples)
        assert report.accuracy == pytest.approx(0.8)
        assert report.per_class[1].recall == 0.0

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            evaluate(_StubModel([]), [])

    def test_real_models_produce_reports(self):
        split = toy_split(n=8)
        for kind in ("base", "mcd", "vi"):
            model = tiny_model(kind)
            report = evaluate(model, split, RngStream(11))
            assert report.n_test == 8
            assert 0.0 <= report.mean_entropy <= math.log(2) + 1e-12

    @pytest.mark.parametrize("kind", ["base", "mcd", "vi"])
    def test_one_aggregation_per_predict_batch(self, monkeypatch, kind):
        blocks = []
        for module in (encoder_module, mcd_module, vi_module):
            def counting(block, original=module.aggregate_logit_samples):
                blocks.append(block.shape)
                return original(block)
            monkeypatch.setattr(module, "aggregate_logit_samples", counting)
        model = tiny_model(kind)
        ids, lengths, _ = training._stack(toy_split(n=5))
        dists = model.predict_batch(ids, lengths, RngStream(12))
        m = 1 if kind == "base" else model.cfg.num_samples if kind == "mcd" else model.cfg.m_test
        assert blocks == [(m, 5, 2)]
        assert len(dists) == 5

    def test_mean_entropy_is_average(self):
        y = [0, 1]
        examples = [LabeledExample(np.zeros(4, dtype=np.int64), 1, v) for v in y]
        report = evaluate(_StubModel(y, probs=(0.9, 0.1)), examples)
        assert report.mean_entropy == pytest.approx(predictive_entropy([0.9, 0.1]))


class TestBuildModel:
    def test_kinds_share_base_parameters(self):
        base = tiny_model("base", seed=9)
        mcd = tiny_model("mcd", seed=9)
        vi = tiny_model("vi", seed=9)
        base_names = {p.name: p for p in base.parameters()}
        for other in (mcd, vi):
            for p in other.parameters():
                if p.name in base_names:
                    assert p.data.tobytes() == base_names[p.name].data.tobytes()

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            build_model(tiny_hp(), np.zeros((5, 5)), "gru", 0)

    def test_parameter_names_and_order(self):
        trunk = ["embedding"] + [
            f"{layer}.{part}"
            for layer in ("layer1", "layer2")
            for part in ("input_weights", "recurrent_weights", "bias")
        ]
        for kind in ("base", "mcd"):
            names = [p.name for p in tiny_model(kind).parameters()]
            assert names == trunk + ["head.weight", "head.bias"]
        names = [p.name for p in tiny_model("vi").parameters()]
        maps = ("label", "post_hidden", "prior_hidden", "post_mu", "post_log_sigma",
                "prior_mu", "prior_log_sigma", "recon")
        heads = [f"heads.{key}.{part}" for key in maps for part in ("weight", "bias")]
        assert names == trunk + heads

    @pytest.mark.parametrize("kind", ["base", "mcd", "vi"])
    def test_every_parameter_gets_a_gradient(self, kind):
        # a parameter no loss reaches is clipped, stepped and saved for nothing
        model = tiny_model(kind, seed=5)
        ids = np.array([[2, 3, 4, 5, 6, 7], [8, 9, 10, 0, 0, 0], [11, 0, 0, 0, 0, 0]])
        lengths, labels = np.array([6, 3, 1]), np.array([1, 0, 1])
        loss, _ = model.batch_loss_parts(ids, lengths, labels, RngStream(6))
        for p in model.parameters():
            p.zero_grad()
        backward(loss)
        dead = [p.name for p in model.parameters() if not np.any(p.grad)]
        assert dead == []


class TestCheckpoint:
    def test_round_trip_all_kinds(self, tmp_path):
        tokens = ["<pad>", "<unk>"] + [f"t{i}" for i in range(18)]
        for kind in ("base", "mcd", "vi"):
            model = tiny_model(kind, seed=13)
            path = str(tmp_path / f"{kind}.ckpt")
            save_checkpoint(path, model, tokens)
            data = load_checkpoint(path)
            assert data.model_kind == kind
            assert data.vocab_tokens == tokens
            restored = restore_model(data)
            for p, q in zip(model.parameters(), restored.parameters()):
                assert p.name == q.name
                assert p.data.tobytes() == q.data.tobytes()

    def test_load_missing_file_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))

    def test_restored_model_predicts_identically(self, tmp_path):
        model = tiny_model("base", seed=14)
        split = toy_split(n=4, seed=14)
        ids = np.stack([ex.token_ids for ex in split])
        lengths = np.array([ex.true_length for ex in split])
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(path, model, ["<pad>", "<unk>"] + [f"t{i}" for i in range(18)])
        restored = restore_model(load_checkpoint(path))
        a = model.infer_logits(ids, lengths)
        b = restored.infer_logits(ids, lengths)
        assert a.tobytes() == b.tobytes()

    def test_write_is_deterministic(self, tmp_path):
        model = tiny_model("vi", seed=15)
        p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        tokens = ["<pad>", "<unk>", "x"]
        save_checkpoint(p1, model, tokens)
        save_checkpoint(p2, model, tokens)
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(CheckpointError):
            load_checkpoint(str(path))

    def test_version_mismatch(self, tmp_path):
        model = tiny_model(seed=16)
        path = tmp_path / "v.ckpt"
        save_checkpoint(str(path), model, ["<pad>", "<unk>"])
        blob = bytearray(path.read_bytes())
        blob[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(str(path))

    def test_truncation(self, tmp_path):
        model = tiny_model(seed=17)
        path = tmp_path / "t.ckpt"
        save_checkpoint(str(path), model, ["<pad>", "<unk>"])
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(str(path))

    def test_trailing_bytes(self, tmp_path):
        model = tiny_model(seed=18)
        path = tmp_path / "x.ckpt"
        save_checkpoint(str(path), model, ["<pad>", "<unk>"])
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointError, match="trailing"):
            load_checkpoint(str(path))

    def test_impossible_block_shape(self, tmp_path, declare_first_shape, impossible_shape):
        # the element count must not wrap: an oversized block reads as
        # truncated, and a shape numpy cannot build is a checkpoint error
        path = tmp_path / "huge.ckpt"
        save_checkpoint(str(path), tiny_model(seed=20), ["<pad>", "<unk>"])
        declare_first_shape(str(path), impossible_shape)
        with pytest.raises(CheckpointError, match="truncated|impossible shape"):
            load_checkpoint(str(path))

    def test_shape_mismatch_on_restore(self, tmp_path):
        model = tiny_model(seed=19)
        path = tmp_path / "s.ckpt"
        save_checkpoint(str(path), model, ["<pad>", "<unk>"])
        data = load_checkpoint(str(path))
        data.params["head.weight"] = data.params["head.weight"][:, :1]
        with pytest.raises(CheckpointError, match="shape"):
            restore_model(data)

    def test_legacy_header_loads_and_predicts_identically(self, tmp_path, edit_header):
        # files written before num_layers, num_classes and aggregate were
        # removed carry them, at their one legal value
        def add_legacy_keys(header):
            header["hyperparams"].update(num_layers=2, num_classes=2)
            if header["mcd"] is not None:
                header["mcd"]["aggregate"] = "mean_logits"

        split = toy_split(n=4, seed=21)
        ids = np.stack([ex.token_ids for ex in split])
        lengths = np.array([ex.true_length for ex in split])
        for kind in ("base", "mcd", "vi"):
            model = tiny_model(kind, seed=21)
            path = str(tmp_path / f"{kind}.ckpt")
            save_checkpoint(path, model, ["<pad>", "<unk>"] + [f"t{i}" for i in range(18)])
            edit_header(path, add_legacy_keys)
            restored = restore_model(load_checkpoint(path))
            for a, b in zip(
                model.predict_batch(ids, lengths, RngStream(22)),
                restored.predict_batch(ids, lengths, RngStream(22)),
            ):
                assert a.per_sample_logits.tobytes() == b.per_sample_logits.tobytes()
                assert a.mean_probs.tobytes() == b.mean_probs.tobytes()

    @pytest.mark.parametrize(
        "section, key, value",
        [
            (None, "model_kind", "xyz"),
            (None, "vocab", 5),
            ("hyperparams", "num_layers", 3),
            ("hyperparams", "num_classes", 4),
            ("hyperparams", "hidden_dim", 0),
            ("hyperparams", "attention_mode", "linear"),
            ("hyperparams", "unknown_field", 1),
            ("mcd", "aggregate", "median"),
            ("mcd", "dropout_rate", 1.5),
            ("vi", "z_dim", 7),
            ("mcd", "num_samples", 2.5),
            ("vi", "m_test", 2.5),
            ("hyperparams", "max_len", 2.5),
            ("hyperparams", "hidden_dim", True),
        ],
    )
    def test_bad_header_value_is_checkpoint_error(self, tmp_path, edit_header, section, key, value):
        kind = section if section in ("mcd", "vi") else "mcd"
        path = str(tmp_path / "h.ckpt")
        save_checkpoint(path, tiny_model(kind, seed=23), ["<pad>", "<unk>"])

        def set_value(header):
            (header if section is None else header[section])[key] = value

        edit_header(path, set_value)
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_legacy_vi_head_blocks_load_and_predict_identically(self, tmp_path, edit_blocks):
        # vi files written while the model still built the base head carry
        # its two blocks after layer2's, at the values a base model of the
        # same seed holds
        model = tiny_model("vi", seed=24)
        legacy = {p.name: p.data for p in tiny_model("base", seed=24).parameters()}
        path = str(tmp_path / "vi.ckpt")
        save_checkpoint(path, model, ["<pad>", "<unk>"] + [f"t{i}" for i in range(18)])

        def add_head(blocks):
            at = [name for name, _ in blocks].index("layer2.bias") + 1
            blocks[at:at] = [(name, legacy[name]) for name in ("head.weight", "head.bias")]

        edit_blocks(path, add_head)
        assert Path(path).read_bytes().count(b"head.weight") == 1
        restored = restore_model(load_checkpoint(path))
        split = toy_split(n=4, seed=24)
        ids = np.stack([ex.token_ids for ex in split])
        lengths = np.array([ex.true_length for ex in split])
        expected = model.infer_logits(ids, lengths)
        assert restored.infer_logits(ids, lengths).tobytes() == expected.tobytes()
        for a, b in zip(
            model.predict_batch(ids, lengths, RngStream(25)),
            restored.predict_batch(ids, lengths, RngStream(25)),
        ):
            assert a.per_sample_logits.tobytes() == b.per_sample_logits.tobytes()
            assert a.mean_probs.tobytes() == b.mean_probs.tobytes()

    @pytest.mark.parametrize(
        "name, shape", [("head.weight", (8, 3)), ("head.weight", (2, 8)), ("head.bias", (3,))]
    )
    def test_legacy_block_at_other_shape_is_checkpoint_error(
        self, tmp_path, edit_blocks, name, shape
    ):
        path = str(tmp_path / "vi.ckpt")
        save_checkpoint(path, tiny_model("vi", seed=26), ["<pad>", "<unk>"])
        edit_blocks(path, lambda blocks: blocks.append((name, np.zeros(shape))))
        with pytest.raises(CheckpointError, match="legacy block"):
            load_checkpoint(path)

    @pytest.mark.parametrize("name", ["embedding", "head.bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_block_is_checkpoint_error(self, tmp_path, edit_blocks, name, value):
        path = str(tmp_path / "nan.ckpt")
        save_checkpoint(path, tiny_model(seed=27), ["<pad>", "<unk>"])

        def poison(blocks):
            dict(blocks)[name].reshape(-1)[-1] = value

        edit_blocks(path, poison)
        with pytest.raises(CheckpointError, match=f"non-finite values in block '{name}'"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "tokens, problem",
        [
            (["help", "exam"], "expected <pad>, <unk> first"),
            (["<unk>", "<pad>", "x"], "expected <pad>, <unk> first"),
            (["<pad>"], "expected <pad>, <unk> first"),
            (["<pad>", "<unk>", "x", "y", "x"], "duplicate token 'x'"),
        ],
        ids=["other_words", "swapped", "one_token", "duplicate"],
    )
    def test_bad_vocab_is_checkpoint_error(self, tmp_path, tokens, problem):
        # the checks `load_vocabulary` makes of a vocabulary file
        path = str(tmp_path / "v.ckpt")
        save_checkpoint(path, tiny_model(seed=28), tokens)
        message = f"header vocab is not a vocabulary \\({problem}\\)"
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_missing_block_on_restore(self, tmp_path):
        model = tiny_model(seed=20)
        path = tmp_path / "mb.ckpt"
        save_checkpoint(str(path), model, ["<pad>", "<unk>"])
        data = load_checkpoint(str(path))
        del data.params["head.bias"]
        with pytest.raises(CheckpointError, match="missing"):
            restore_model(data)
