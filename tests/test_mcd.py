"""Tests for the Monte Carlo dropout variant."""

import numpy as np
import pytest

from urgentbayes import encoder
from urgentbayes.autodiff import RngStream
from urgentbayes.encoder import BaseClassifier, HyperParams
from urgentbayes.errors import ConfigurationError, UsageError
from urgentbayes.mcd import McdClassifier, McdConfig


def tiny_hp(**overrides):
    defaults = dict(max_len=6, embed_dim=5, hidden_dim=4, z_dim=3)
    defaults.update(overrides)
    return HyperParams(**defaults)


def make_pair(seed=0, rate=0.3, num_samples=10, vocab=20, **hp_overrides):
    """Base and MCD models with identical parameters."""
    hp = tiny_hp(**hp_overrides)
    emb = RngStream(seed).child("emb").generator().uniform(-0.5, 0.5, size=(vocab, hp.embed_dim))
    base = BaseClassifier(hp, emb, RngStream(seed))
    mcd = McdClassifier(hp, emb, RngStream(seed), McdConfig(rate, num_samples))
    return base, mcd


def batch(seed=1, n=4, vocab=20, max_len=6):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, vocab, size=(n, max_len))
    lengths = rng.integers(1, max_len + 1, size=n)
    return ids, lengths


class TestConfig:
    def test_rate_bounds(self):
        with pytest.raises(ConfigurationError):
            McdConfig(dropout_rate=1.0).validate()
        with pytest.raises(ConfigurationError):
            McdConfig(dropout_rate=-0.2).validate()

    def test_sample_count(self):
        with pytest.raises(ConfigurationError):
            McdConfig(num_samples=0).validate()
        for bad in (2.5, True, "10"):
            with pytest.raises(ConfigurationError, match="num_samples must be a positive integer"):
                McdConfig(num_samples=bad).validate()

    def test_defaults(self):
        cfg = McdConfig()
        cfg.validate()
        assert cfg.num_samples == 50 and cfg.dropout_rate == 0.3


class TestRateZeroDegeneracy:
    def test_bitwise_equal_to_deterministic_model(self):
        base, mcd = make_pair(rate=0.0, num_samples=7)
        ids, lengths = batch()
        base_logits = base.infer_logits(ids, lengths)
        rng = RngStream(99)
        samples = mcd.sample_logits(ids, lengths, rng, range(7))
        assert samples.shape == (7, len(ids), 2)
        for sample in samples:
            assert sample.tobytes() == base_logits.tobytes()
        base_pred = base.predict_batch(ids, lengths)
        mcd_pred = mcd.predict_batch(ids, lengths, rng)
        for bp, mp in zip(base_pred, mcd_pred):
            assert bp.mean_logits.tobytes() == mp.mean_logits.tobytes()
            assert bp.mean_probs.tobytes() == mp.mean_probs.tobytes()
            assert bp.predicted_label == mp.predicted_label

    @pytest.mark.parametrize("num_samples", [1, 7])
    def test_served_bitwise_equal_to_served_base(self, num_samples):
        base, mcd = make_pair(rate=0.0, num_samples=num_samples)
        ids, lengths = batch()
        rng = RngStream(99)
        want = base.serving_copy().infer_logits(ids, lengths)
        samples = mcd.serving_copy().sample_logits(ids, lengths, rng, range(num_samples))
        assert want.dtype == samples.dtype == np.float32
        assert samples.tobytes() == np.tile(want, (num_samples, 1, 1)).tobytes()
        want = want.astype(np.float64)
        for i, (bp, mp) in enumerate(
            zip(base.predict_batch(ids, lengths), mcd.predict_batch(ids, lengths, rng))
        ):
            assert bp.mean_logits.tobytes() == mp.mean_logits.tobytes() == want[i].tobytes()
            assert bp.mean_probs.tobytes() == mp.mean_probs.tobytes()
            assert mp.per_sample_logits.tobytes() == np.tile(want[i], (num_samples, 1)).tobytes()

    def test_parameters_identical_across_kinds(self):
        base, mcd = make_pair(rate=0.3)
        for pb, pm in zip(base.parameters(), mcd.parameters()):
            assert pb.data.tobytes() == pm.data.tobytes()


class TestStochasticForward:
    def test_same_sample_index_same_logits(self):
        _, mcd = make_pair(rate=0.5)
        ids, lengths = batch()
        rng = RngStream(7)
        a = mcd.sample_logits(ids, lengths, rng, [3])
        b = mcd.sample_logits(ids, lengths, rng, [3])
        np.testing.assert_array_equal(a, b)

    def test_different_sample_indices_differ(self):
        _, mcd = make_pair(rate=0.5)
        ids, lengths = batch()
        rng = RngStream(7)
        a, b = mcd.sample_logits(ids, lengths, rng, [0, 1])
        assert not np.array_equal(a, b)

    def test_training_loss_needs_stream(self):
        _, mcd = make_pair(rate=0.5)
        ids, lengths = batch()
        with pytest.raises(UsageError):
            mcd.batch_loss_parts(ids, lengths, np.zeros(len(ids), dtype=int))

    def test_training_masks_per_batch_element(self):
        _, mcd = make_pair(rate=0.5)
        masks = mcd._placement_masks(6, RngStream(3))
        assert masks[0].shape == (6, 4)
        assert masks[2].shape == (6, 8)
        # rows differ: each batch element gets its own mask
        assert not np.array_equal(masks[0][0], masks[0][1])

    def test_mask_scaling(self):
        _, mcd = make_pair(rate=0.5)
        masks = mcd._placement_masks(4, RngStream(3))
        values = np.unique(masks[0])
        assert set(values).issubset({0.0, 2.0})


class TestPrediction:
    def test_per_sample_trace_shape(self):
        _, mcd = make_pair(rate=0.3, num_samples=9)
        ids, lengths = batch(n=3)
        dists = mcd.predict_batch(ids, lengths, RngStream(11))
        assert len(dists) == 3
        assert all(d.per_sample_logits.shape == (9, 2) for d in dists)

    def test_m1_mean_equals_single_sample(self):
        _, mcd = make_pair(rate=0.4, num_samples=1)
        ids, lengths = batch(n=2)
        rng = RngStream(13)
        dists = mcd.predict_batch(ids, lengths, rng)
        (single,) = mcd.serving_copy().sample_logits(ids, lengths, rng, [0])
        for i, d in enumerate(dists):
            assert d.mean_logits.tobytes() == single[i].astype(np.float64).tobytes()

    def test_mean_probs_normalized(self):
        _, mcd = make_pair(rate=0.3, num_samples=20)
        ids, lengths = batch(n=5)
        for d in mcd.predict_batch(ids, lengths, RngStream(17)):
            assert d.mean_probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert d.predicted_label == int(np.argmax(d.mean_probs))

    def test_prediction_deterministic_given_stream(self):
        _, mcd = make_pair(rate=0.3, num_samples=12)
        ids, lengths = batch(n=3)
        a = mcd.predict_batch(ids, lengths, RngStream(19))
        b = mcd.predict_batch(ids, lengths, RngStream(19))
        for da, db in zip(a, b):
            assert da.mean_logits.tobytes() == db.mean_logits.tobytes()

    def test_small_m_mean_within_3se_of_large_m(self):
        _, mcd = make_pair(rate=0.4, num_samples=50)
        ids = np.array([[2, 3, 4, 5, 0, 0]])
        lengths = np.array([4])
        big = 5000
        rng = RngStream(23)
        samples = mcd.sample_logits(ids, lengths, rng, range(big))[:, 0]
        mean_big = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(50)
        mean_small = samples[:50].mean(axis=0)
        assert (np.abs(mean_small - mean_big) <= 3 * se + 1e-12).all()

    def test_variance_shrinks_with_m(self):
        # repeated M-sample means: var at M=100 below var at M=10
        _, mcd = make_pair(rate=0.3)
        ids = np.array([[2, 3, 4, 0, 0, 0]])
        lengths = np.array([3])
        root = RngStream(29)
        repeats = 200

        def mean_logit_dist(m_samples, tag):
            out = np.empty((repeats, 2))
            for r in range(repeats):
                rng = root.child(tag, r)
                sams = mcd.sample_logits(ids, lengths, rng, range(m_samples))[:, 0]
                out[r] = sams.mean(axis=0)
            return out.var(axis=0)

        var_10 = mean_logit_dist(10, "m10")
        var_100 = mean_logit_dist(100, "m100")
        assert (var_100 < var_10).all()

    def test_example_level_wrappers(self):
        # a one-post batch, the shape the predict command scores
        _, mcd = make_pair(rate=0.3, num_samples=6)
        ids, lengths = np.array([[2, 3, 0, 0, 0, 0]]), np.array([2])
        rng = RngStream(31)
        logits = mcd.serving_copy().sample_logits(ids, lengths, rng, range(6))
        assert logits.shape == (6, 1, 2)
        (dist,) = mcd.predict_batch(ids, lengths, rng)
        assert dist.per_sample_logits.shape == (6, 2)
        assert dist.per_sample_logits.tobytes() == logits[:, 0].astype(np.float64).tobytes()


def per_sample_reference(mcd, ids, lengths, rng, num_samples):
    """Each sample's logits from its own `infer_logits` call, with that
    sample's masks (row k of each placement's mask stream) repeated for
    every post, as the graph forward takes them."""
    rows = mcd._placement_masks(num_samples, rng)
    out = []
    for k in range(num_samples):
        masks = {p: np.repeat(m[k : k + 1], len(lengths), axis=0) for p, m in rows.items()}
        out.append(mcd.infer_logits(ids, lengths, masks))
    return np.stack(out)


def count_layer_calls(monkeypatch):
    """Counts `lstm_layer` calls per layer, told apart by the weights' name,
    which a serving copy keeps."""
    calls = {"layer1": 0, "layer2": 0}
    real = encoder.lstm_layer

    def counting(params, *args, **kwargs):
        calls[params.input_weights.name.split(".")[0]] += 1
        return real(params, *args, **kwargs)

    monkeypatch.setattr(encoder, "lstm_layer", counting)
    return calls


class TestStackedSamples:
    @pytest.mark.parametrize("hidden", [4, 24])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_equal_to_per_sample_passes(self, n, hidden):
        _, mcd = make_pair(rate=0.3, num_samples=9, hidden_dim=hidden)
        ids, lengths = batch(seed=n, n=n)
        rng = RngStream(41)
        stacked = mcd.sample_logits(ids, lengths, rng, range(9))
        reference = per_sample_reference(mcd, ids, lengths, rng, 9)
        assert stacked.tobytes() == reference.tobytes()
        graph = mcd.batch_logits(ids, lengths, {
            p: np.repeat(m[4:5], n, axis=0) for p, m in mcd._placement_masks(9, rng).items()
        })
        assert stacked[4].tobytes() == graph.data.tobytes()

    @pytest.mark.parametrize("hidden", [4, 24])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_served_equal_to_per_sample_passes(self, n, hidden):
        # the same contract within the float32 serving copy
        _, mcd = make_pair(rate=0.3, num_samples=9, hidden_dim=hidden)
        served = mcd.serving_copy()
        ids, lengths = batch(seed=n, n=n)
        rng = RngStream(41)
        stacked = served.sample_logits(ids, lengths, rng, range(9))
        assert stacked.dtype == np.float32
        reference = per_sample_reference(served, ids, lengths, rng, 9)
        assert stacked.tobytes() == reference.tobytes()
        # its weights take no gradient, so its graph forward records nothing
        graph = served.batch_logits(ids, lengths, {
            p: np.repeat(m[4:5], n, axis=0).astype(np.float32)
            for p, m in mcd._placement_masks(9, rng).items()
        })
        assert not graph.requires_grad and graph.data.dtype == np.float32
        assert stacked[4].tobytes() == graph.data.tobytes()

    @pytest.mark.parametrize("hidden", [4, 24])
    def test_one_post_within_rounding(self, hidden):
        # a one-row product takes another BLAS kernel than a stacked one
        _, mcd = make_pair(rate=0.3, num_samples=9, hidden_dim=hidden)
        ids, lengths = np.array([[2, 3, 4, 5, 0, 0]]), np.array([4])
        rng = RngStream(43)
        stacked = mcd.sample_logits(ids, lengths, rng, range(9))
        reference = per_sample_reference(mcd, ids, lengths, rng, 9)
        np.testing.assert_allclose(stacked, reference, rtol=0, atol=1e-12)

    def test_blocks_with_remainder_match_one_block(self, monkeypatch):
        _, mcd = make_pair(rate=0.3, num_samples=7)
        ids, lengths = batch(seed=5, n=4)
        rng = RngStream(47)
        one_block = mcd.predict_batch(ids, lengths, rng)
        # three samples per block: blocks of 3, 3 and 1, in the served dtype
        itemsize = mcd.serving_copy().layer2.input_weights.data.itemsize
        state_bytes = len(lengths) * int(lengths.max()) * mcd.hp.hidden_dim * itemsize
        monkeypatch.setattr(encoder, "PROJECTION_BLOCK_BYTES", 3 * state_bytes)
        calls = count_layer_calls(monkeypatch)
        blocked = mcd.predict_batch(ids, lengths, rng)
        assert calls == {"layer1": 1, "layer2": 3}
        for a, b in zip(one_block, blocked):
            assert a.per_sample_logits.tobytes() == b.per_sample_logits.tobytes()

    def test_mask_rows_do_not_depend_on_row_count(self):
        _, mcd = make_pair(rate=0.3)
        rng = RngStream(71)
        few, many = mcd._placement_masks(10, rng), mcd._placement_masks(50, rng)
        assert few.keys() == many.keys()
        for p in few:
            assert few[p].tobytes() == many[p][:10].tobytes()

    @pytest.mark.parametrize("n", [2, 5])
    def test_sample_drawn_alone_equals_its_row_of_the_block(self, n):
        _, mcd = make_pair(rate=0.3)
        ids, lengths = batch(seed=n, n=n)
        rng = RngStream(73)
        block = mcd.sample_logits(ids, lengths, rng, range(12))
        for m in (0, 5, 11):
            assert mcd.sample_logits(ids, lengths, rng, [m])[0].tobytes() == block[m].tobytes()

    def test_training_masks_keep_their_keys(self):
        rate = 0.3
        _, mcd = make_pair(rate=rate)
        rng = RngStream(79).child("step", 2)
        widths = {encoder.AFTER_LAYER_1: 4, encoder.AFTER_LAYER_2: 4, encoder.PREDICTION_INPUT: 8}
        masks = mcd._placement_masks(6, rng)
        assert masks.keys() == widths.keys()
        for p, w in widths.items():
            want = (rng.child(p).generator().random((6, w)) >= rate) / (1 - rate)
            assert masks[p].tobytes() == want.tobytes()

    def test_prediction_needs_stream_only_when_dropout_is_active(self):
        ids, lengths = batch(n=2)
        _, mcd = make_pair(rate=0.3)
        with pytest.raises(UsageError, match="random stream is required"):
            mcd.predict_batch(ids, lengths)
        with pytest.raises(UsageError, match="random stream is required"):
            mcd.sample_logits(ids, lengths, None, [0])
        _, mcd0 = make_pair(rate=0.0, num_samples=3)
        assert len(mcd0.predict_batch(ids, lengths)) == 2

    def test_layer1_runs_once_per_predict_batch(self, monkeypatch):
        _, mcd = make_pair(rate=0.3, num_samples=50)
        ids, lengths = batch(n=3)
        calls = count_layer_calls(monkeypatch)
        mcd.predict_batch(ids, lengths, RngStream(53))
        assert calls == {"layer1": 1, "layer2": 1}


class TestStandardError:
    def test_matches_numpy(self):
        _, mcd = make_pair(rate=0.4, num_samples=30)
        ids, lengths = batch(n=4)
        for dist in mcd.predict_batch(ids, lengths, RngStream(59)):
            p = dist.mean_probs[1]
            diff = dist.per_sample_logits[:, 1] - dist.per_sample_logits[:, 0]
            se_p = p * (1 - p) * np.std(diff, ddof=1) / np.sqrt(30)
            se = dist.mc_standard_error
            assert se.mean_probs > 0.0
            assert se.mean_probs == pytest.approx(se_p, rel=1e-12)
            assert se.entropy == pytest.approx(abs(np.log((1 - p) / p)) * se_p, rel=1e-12)

    def test_zero_without_spread(self):
        base, mcd0 = make_pair(rate=0.0, num_samples=8)
        _, mcd1 = make_pair(rate=0.3, num_samples=1)
        ids, lengths = batch(n=3)
        for model in (base, mcd0, mcd1):
            for dist in model.predict_batch(ids, lengths, RngStream(61)):
                assert dist.mc_standard_error == encoder.NO_MC_ERROR

    def test_shrinks_with_m(self):
        ids, lengths = batch(n=3)
        errors = {}
        for m in (10, 100):
            _, mcd = make_pair(rate=0.3, num_samples=m)
            # away from p = 1/2, where the entropy's slope in p vanishes
            mcd.head_bias.data[:] = [1.0, -1.0]
            dists = mcd.predict_batch(ids, lengths, RngStream(67))
            errors[m] = [d.mc_standard_error for d in dists]
        for small, large in zip(errors[10], errors[100]):
            assert large.mean_probs < small.mean_probs
            assert large.entropy < small.entropy
