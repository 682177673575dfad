"""The serving precision: `predict_batch` scores through a float32 copy of
the weights made on each call (`BaseClassifier.serving_copy`), while
training, and the forward of a model's own weights, stay float64 and serve
as the oracle the float32 logits are held to."""

import numpy as np
import pytest

from urgentbayes import corpus
from urgentbayes.autodiff import RngStream
from urgentbayes.encoder import HyperParams, aggregate_logit_samples
from urgentbayes.errors import NonFiniteError
from urgentbayes.mcd import McdConfig
from urgentbayes.synthetic import imbalanced_corpus
from urgentbayes.training import TrainConfig, _stack, build_model, train, train_accuracy
from urgentbayes.vi import ViConfig

KINDS = ("base", "mcd", "vi")
# the benchmark's desk shape, and its M
DESK_HP = HyperParams(max_len=12, embed_dim=32, hidden_dim=24, z_dim=8)
DESK_CFGS = dict(mcd_cfg=McdConfig(num_samples=10), vi_cfg=ViConfig(z_dim=8, m_test=10))
# |float32 - float64| <= SERVING_BOUND * max(1, |float64|), logit by logit
SERVING_BOUND = 1e-5
# labels must agree wherever the float64 mean logits differ by more
LABEL_MARGIN = 1e-4


def sample_block(model, ids, lengths, rng):
    """The (M, n, 2) logits `predict_batch` aggregates, from whichever
    weights `model` holds: its own float64 ones, or a serving copy's."""
    if model.kind == "base":
        return model.infer_logits(ids, lengths)[None]
    m = model.cfg.num_samples if model.kind == "mcd" else model.cfg.m_test
    return model.sample_logits(ids, lengths, rng, range(m))


def assert_served_within_bound(model, ids, lengths, rng):
    """The served logits against the float64 oracle, and predict_batch
    against both; returns how many labels the margin rule checked."""
    want = sample_block(model, ids, lengths, rng)
    got = sample_block(model.serving_copy(), ids, lengths, rng)
    assert want.dtype == np.float64 and got.dtype == np.float32
    error = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert error.max() <= SERVING_BOUND
    dists = model.predict_batch(ids, lengths, rng)
    checked = 0
    for i, (dist, oracle) in enumerate(zip(dists, aggregate_logit_samples(want))):
        assert dist.per_sample_logits.tobytes() == got[:, i].astype(np.float64).tobytes()
        if abs(oracle.mean_logits[1] - oracle.mean_logits[0]) > LABEL_MARGIN:
            assert dist.predicted_label == oracle.predicted_label
            checked += 1
    return checked


@pytest.fixture(scope="module")
def desk():
    posts = imbalanced_corpus(480, seed=3)
    tokens = [corpus.tokenize(p.text) for p in posts]
    vocab = corpus.build_vocabulary(tokens, min_frequency=1)
    examples = corpus.examples_from_posts(posts, vocab, DESK_HP.max_len)
    return examples, corpus.random_embeddings(vocab, DESK_HP.embed_dim, RngStream(3)).matrix


@pytest.mark.parametrize("kind", KINDS)
def test_trained_desk_model_serves_within_the_bound(kind, desk):
    examples, matrix = desk
    model = build_model(DESK_HP, matrix, kind, 5, **DESK_CFGS)
    train(model, examples[:360], TrainConfig(epochs=6, learning_rate=0.01, seed=5,
                                             model_kind=kind))
    assert train_accuracy(model, examples[360:]) > 0.9
    ids, lengths, _ = _stack(examples[360:])
    checked = assert_served_within_bound(model, ids, lengths, RngStream(9))
    assert checked > 0.9 * len(lengths)


def forum_batch(vocab, max_len, n, gen):
    """n posts of Zipf-distributed ids with log-normal lengths around 36."""
    ranks = np.arange(1, vocab, dtype=np.float64)
    weights = ranks**-0.8 / (ranks**-0.8).sum()
    lengths = np.clip(np.rint(36.0 * np.exp(gen.standard_normal(n))), 1, max_len).astype(int)
    ids = np.zeros((n, max_len), dtype=np.int64)
    for row, length in zip(ids, lengths):
        row[:length] = 1 + gen.choice(vocab - 1, size=length, p=weights)
    return ids, lengths


@pytest.fixture(scope="module")
def forum():
    gen = np.random.default_rng(8)
    matrix = gen.uniform(-0.5, 0.5, (20_000, 300))
    return matrix, forum_batch(20_000, 64, 64, gen)


@pytest.mark.parametrize("kind", KINDS)
def test_forum_shape_batch_serves_within_the_bound(kind, forum):
    # stock widths, vocabulary 20k, max_len 64, batch 64; mcd at M = 10
    matrix, (ids, lengths) = forum
    model = build_model(HyperParams(max_len=64), matrix, kind, 6,
                        mcd_cfg=McdConfig(num_samples=10))
    assert_served_within_bound(model, ids, lengths, RngStream(10))


@pytest.mark.parametrize("kind", KINDS)
def test_prediction_leaves_weights_and_training_alone(kind, desk):
    examples, matrix = desk
    ids, lengths, _ = _stack(examples[360:])
    cfg = TrainConfig(epochs=1, batch_size=32, seed=5, model_kind=kind)
    served, plain = (build_model(DESK_HP, matrix, kind, 5, **DESK_CFGS) for _ in range(2))
    params = served.parameters()
    before = [(p.data.dtype, p.data.tobytes()) for p in params]
    served.predict_batch(ids, lengths, RngStream(9))
    assert served.parameters() == params   # the same objects
    assert [(p.data.dtype, p.data.tobytes()) for p in params] == before
    got = train(served, examples[:64], cfg).loss_trace
    want = train(plain, examples[:64], cfg).loss_trace
    assert [r.loss for r in got] == [r.loss for r in want]
    for a, b in zip(params, plain.parameters()):
        assert a.data.dtype == np.float64
        assert a.data.tobytes() == b.data.tobytes(), a.name


def test_mcd_prediction_builds_no_full_mask_array(traced_peak):
    # 1,200 desk-shape posts at M = 10.  The parent tree's float64 path
    # peaked at 11.6 MB here; the float32 path takes about 7.4 MB, and a
    # cast after broadcasting, three (M, n, width) float32 masks of
    # 4.6 MB together, would take it past the parent's peak.
    gen = np.random.default_rng(5)
    vocab, n = 3000, 1200
    matrix = gen.uniform(-0.5, 0.5, (vocab, DESK_HP.embed_dim))
    lengths = gen.integers(1, DESK_HP.max_len + 1, n)
    ids = gen.integers(1, vocab, (n, DESK_HP.max_len))
    model = build_model(DESK_HP, matrix, "mcd", 3, mcd_cfg=McdConfig(num_samples=10))
    model.predict_batch(ids, lengths, RngStream(1))   # first-call allocations
    peak = traced_peak(lambda: model.predict_batch(ids, lengths, RngStream(1)))
    assert peak < 11_600_000


def tiny_model(kind):
    hp = HyperParams(max_len=6, embed_dim=5, hidden_dim=4, z_dim=3)
    matrix = RngStream(2).generator().uniform(-0.5, 0.5, (20, hp.embed_dim))
    return build_model(hp, matrix, kind, 2)


@pytest.mark.parametrize("kind", KINDS)
def test_serving_copy_is_float32_and_shares_the_embedding(kind):
    model = tiny_model(kind)
    served = model.serving_copy()
    assert served.kind == kind and served.hp is model.hp
    assert served.embedding.data is model.embedding.data
    for original, copy in zip(model.parameters()[1:], served.parameters()[1:]):
        assert copy.name == original.name and not copy.requires_grad
        assert copy.data.dtype == np.float32
        assert copy.data.tobytes() == original.data.astype(np.float32).tobytes()


@pytest.mark.parametrize("name", ["embedding", "layer2.recurrent_weights", "head"])
@pytest.mark.parametrize("kind", KINDS)
def test_a_weight_beyond_float32_range_is_refused(kind, name):
    model = tiny_model(kind)
    params = model.parameters()
    param = params[-1] if name == "head" else next(p for p in params if p.name == name)
    ids, lengths = np.array([[2, 3, 4, 0, 0, 0], [5, 6, 0, 0, 0, 0]]), np.array([3, 2])
    param.data[2 if name == "embedding" else 0] = 1e39   # the embedding's row 2 is read
    with pytest.raises(NonFiniteError, match=rf"^{param.name} holds a value beyond the float32"):
        model.predict_batch(ids, lengths, RngStream(1))
    # the float64 oracle still runs
    assert np.isfinite(model.infer_logits(ids, lengths)).all()
