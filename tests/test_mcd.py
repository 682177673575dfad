"""Tests for the Monte Carlo dropout variant."""

import numpy as np
import pytest

from urgentbayes.autodiff import RngStream
from urgentbayes.encoder import BaseClassifier, HyperParams
from urgentbayes.errors import ConfigurationError, UsageError
from urgentbayes.mcd import McdClassifier, McdConfig


def tiny_hp(**overrides):
    defaults = dict(max_len=6, embed_dim=5, hidden_dim=4, z_dim=3)
    defaults.update(overrides)
    return HyperParams(**defaults)


def make_pair(seed=0, rate=0.3, num_samples=10, vocab=20):
    """Base and MCD models with identical parameters."""
    hp = tiny_hp()
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
        for m in range(7):
            sample = mcd.sample_logits(ids, lengths, rng, m)
            assert sample.tobytes() == base_logits.tobytes()
        base_pred = base.predict_batch(ids, lengths)
        mcd_pred = mcd.predict_batch(ids, lengths, rng)
        for bp, mp in zip(base_pred, mcd_pred):
            assert bp.mean_logits.tobytes() == mp.mean_logits.tobytes()
            assert bp.mean_probs.tobytes() == mp.mean_probs.tobytes()
            assert bp.predicted_label == mp.predicted_label

    def test_parameters_identical_across_kinds(self):
        base, mcd = make_pair(rate=0.3)
        for pb, pm in zip(base.parameters(), mcd.parameters()):
            assert pb.data.tobytes() == pm.data.tobytes()


class TestStochasticForward:
    def test_same_sample_index_same_logits(self):
        _, mcd = make_pair(rate=0.5)
        ids, lengths = batch()
        rng = RngStream(7)
        a = mcd.sample_logits(ids, lengths, rng, 3)
        b = mcd.sample_logits(ids, lengths, rng, 3)
        np.testing.assert_array_equal(a, b)

    def test_different_sample_indices_differ(self):
        _, mcd = make_pair(rate=0.5)
        ids, lengths = batch()
        rng = RngStream(7)
        a = mcd.sample_logits(ids, lengths, rng, 0)
        b = mcd.sample_logits(ids, lengths, rng, 1)
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
        single = mcd.sample_logits(ids, lengths, rng, 0)
        for i, d in enumerate(dists):
            np.testing.assert_array_equal(d.mean_logits, single[i])

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
        samples = np.empty((big, 2))
        for m in range(big):
            samples[m] = mcd.sample_logits(ids, lengths, rng, m)[0]
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
                sams = np.empty((m_samples, 2))
                for m in range(m_samples):
                    sams[m] = mcd.sample_logits(ids, lengths, rng, m)[0]
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
        logits = mcd.sample_logits(ids, lengths, rng, 0)
        assert logits.shape == (1, 2)
        (dist,) = mcd.predict_batch(ids, lengths, rng)
        assert dist.per_sample_logits.shape == (6, 2)
        np.testing.assert_array_equal(dist.per_sample_logits[0], logits[0])
