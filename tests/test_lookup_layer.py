"""Layer 1 reads the embedding by token id: `lstm_layer` over a `Lookup`
against the composition it replaced, `lstm_layer(layer, gather_rows(table,
ids), lengths)`.

The states must be byte-identical, recorded and under `no_grad`.  The
table's gradient and `input_weights`' sum each id's positions before
multiplying, so they agree to 1e-12 of their largest magnitude; every other
gradient is byte-identical.  Whole-model predictions and a training step
are compared the same way, and the no-grad peak memory of the lookup is
checked against the composition's."""

import numpy as np
import pytest

from urgentbayes import encoder
from urgentbayes.autodiff import Parameter, RngStream, Tensor, backward, gather_rows, no_grad
from urgentbayes.encoder import BaseClassifier, HyperParams, Lookup, init_lstm_layer, lstm_layer
from urgentbayes.errors import DomainError, ShapeError, UsageError
from urgentbayes.training import build_model

RTOL = 1e-12


def zipf_ids(gen, shape, vocab, first=2):
    """Ids in [first, vocab) drawn by a Zipf law of exponent 1, as words
    are in text."""
    weights = 1.0 / np.arange(1, vocab - first + 1)
    return first + gen.choice(vocab - first, size=shape, p=weights / weights.sum())


def padded(ids, lengths):
    """ids with the pad id 0 at every position past its row's length."""
    ids = ids.copy()
    ids[np.arange(ids.shape[1]) >= lengths[:, None]] = 0
    return ids


# name: (posts, steps, embed_dim, hidden, vocab)
SHAPES = {
    "forum": (64, 64, 300, 128, 20_000),
    "desk": (40, 12, 32, 24, 24),
    "one_post": (1, 9, 5, 3, 12),
    "one_short_post": (1, 1, 5, 3, 12),
    "one_id": (5, 7, 5, 3, 12),
    "length_one": (6, 1, 5, 3, 12),
    "pad_in_post": (5, 8, 5, 3, 12),
}


def make_case(name, seed=0):
    """(layer, table, ids, lengths, output weights) of one case."""
    n, steps, d, h, vocab = SHAPES[name]
    gen = np.random.default_rng([seed, len(name)])
    layer = init_lstm_layer(d, h, RngStream(seed).child(name), "layer1")
    table = Parameter(gen.uniform(-0.5, 0.5, (vocab, d)), "embedding")
    lengths = gen.integers(1, steps + 1, size=n)
    lengths[gen.integers(n)] = steps
    ids = zipf_ids(gen, (n, steps), vocab)
    if name == "one_id":
        ids[...] = 7
    if name == "pad_in_post":
        ids[1, 0] = ids[3, lengths[3] - 1] = 0
    return layer, table, padded(ids, lengths), lengths, gen.normal(size=(n, steps, h))


def gradients(layer, table, x, lengths, weights):
    """The layer's gradients, table first, and the table's row record."""
    params = [table] + layer.parameters()
    for p in params:
        p.zero_grad()
    backward((lstm_layer(layer, x, lengths) * weights).sum())
    return [p.dense_grad() for p in params], table.grad_rows.copy()


def assert_close(got, want, what):
    assert np.abs(got - want).max() <= RTOL * np.abs(want).max(), what


@pytest.mark.parametrize("name", SHAPES)
def test_states_match_composition(name):
    layer, table, ids, lengths, _ = make_case(name)
    composed = lstm_layer(layer, gather_rows(table, ids), lengths).data
    recorded = lstm_layer(layer, Lookup(table, ids), lengths)
    assert recorded.requires_grad
    with no_grad():
        free = lstm_layer(layer, Lookup(table, ids), lengths)
    assert free._parents == ()
    assert recorded.data.tobytes() == composed.tobytes()
    assert free.data.tobytes() == composed.tobytes()


@pytest.mark.parametrize("name", SHAPES)
def test_gradients_match_composition(name):
    layer, table, ids, lengths, weights = make_case(name)
    got, rows = gradients(layer, table, Lookup(table, ids), lengths, weights)
    want, gathered_rows = gradients(layer, table, gather_rows(table, ids), lengths, weights)
    valid = np.arange(ids.shape[1]) < lengths[:, None]
    # only the ids at valid positions are recorded, the pad id among them
    # only when a post contains it
    assert rows.tolist() == np.unique(ids[valid]).tolist()
    assert (0 in rows) == (name == "pad_in_post")
    assert set(rows.tolist()) <= set(gathered_rows.tolist())
    assert not np.delete(got[0], rows, axis=0).any()
    assert not np.delete(want[0], rows, axis=0).any()
    assert_close(got[0], want[0], "embedding")
    assert_close(got[1], want[1], "input_weights")
    for p, a, b in zip(layer.parameters()[1:], got[2:], want[2:]):
        assert a.tobytes() == b.tobytes(), p.name


@pytest.mark.parametrize("counts", [[1, 3, 1, 20, 7, 8, 2], [9], [1], []])
def test_segment_sums_match_reduceat(counts):
    # runs shorter than LONG_RUN add a row per round, longer ones sum alone
    gen = np.random.default_rng(len(counts))
    n = sum(counts)
    rows = gen.normal(size=(n, 6))
    sort = gen.permutation(n)
    starts = np.cumsum([0] + counts[:-1]).astype(np.intp)[: len(counts)]
    got = encoder._segment_sums(rows, sort, starts)
    assert got.shape == (len(counts), 6)
    if counts:
        want = np.add.reduceat(rows[sort], starts, axis=0)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


@pytest.mark.parametrize("bad", [-1, 24])
@pytest.mark.parametrize("where", ["valid", "padded"])
def test_out_of_range_id_is_a_domain_error(bad, where):
    layer, table, ids, lengths, _ = make_case("desk")
    row = int(np.argmin(lengths))
    assert lengths[row] < ids.shape[1]   # its last position is padded
    ids[row, 0 if where == "valid" else -1] = bad
    with pytest.raises(DomainError, match="row id out of range"):
        lstm_layer(layer, Lookup(table, ids), lengths)


def test_model_rejects_an_out_of_range_id():
    hp = HyperParams(max_len=6, embed_dim=4, hidden_dim=3, z_dim=2)
    model = build_model(hp, np.zeros((10, 4)), "base", 0)
    with pytest.raises(DomainError, match="row id out of range"):
        model.infer_logits(np.array([[1, 10, 2]]), np.array([3]))
    with pytest.raises(DomainError, match="row id out of range"):
        model.batch_logits(np.array([[1, 2, 3], [4, -1, 0]]), np.array([3, 2]))


def test_lookup_shape_errors():
    layer = init_lstm_layer(4, 3, RngStream(0), "layer1")
    ids = np.ones((2, 3), dtype=int)
    for table, token_ids in [
        (Parameter(np.ones((5, 3)), "narrow"), ids),
        (Parameter(np.ones(5), "flat"), ids),
        (Parameter(np.ones((5, 4)), "table"), ids[0]),
    ]:
        with pytest.raises(ShapeError):
            lstm_layer(layer, Lookup(table, token_ids), np.array([3, 2]))


def test_lookup_table_with_a_gradient_must_be_a_parameter():
    # its backward writes through Parameter.add_rows, which keeps the row record
    layer = init_lstm_layer(4, 3, RngStream(0), "layer1")
    table = Tensor(np.ones((5, 4)), requires_grad=True)
    with pytest.raises(UsageError, match="only as a Parameter"):
        lstm_layer(layer, Lookup(table, np.ones((2, 3), dtype=int)), np.array([3, 2]))


# -- the whole model ---------------------------------------------------------------

KINDS = ["base", "mcd", "vi"]


@pytest.fixture
def composed(monkeypatch):
    """Runs the model's layer 1 over the gathered rows instead of a Lookup."""
    lookup = BaseClassifier._embed

    def gathered(model, ids, lengths):
        return gather_rows(*lookup(model, ids, lengths))

    def use():
        monkeypatch.setattr(BaseClassifier, "_embed", gathered)

    return use


def model_batch(kind, seed=4):
    hp = HyperParams(max_len=10, embed_dim=6, hidden_dim=5, z_dim=3)
    gen = np.random.default_rng(seed)
    model = build_model(hp, gen.uniform(-0.5, 0.5, (30, hp.embed_dim)), kind, seed)
    n = 9
    lengths = gen.integers(1, 9, size=n)
    ids = padded(zipf_ids(gen, (n, 10), 30), lengths)
    ids[2, 0] = 0   # a post holding the pad id
    labels = gen.integers(0, 2, size=n)
    return model, ids, lengths, labels


@pytest.mark.parametrize("kind", KINDS)
def test_predictions_match_composition(kind, composed):
    model, ids, lengths, _ = model_batch(kind)
    got = model.predict_batch(ids, lengths, RngStream(6))
    composed()
    want = model.predict_batch(ids, lengths, RngStream(6))
    for a, b in zip(got, want):
        assert a.per_sample_logits.tobytes() == b.per_sample_logits.tobytes()
        assert a.mean_probs.tobytes() == b.mean_probs.tobytes()
        assert a.entropy == b.entropy and a.mc_standard_error == b.mc_standard_error


@pytest.mark.parametrize("kind", KINDS)
def test_training_step_matches_composition(kind, composed):
    model, ids, lengths, labels = model_batch(kind)
    params = model.parameters()

    def step():
        for p in params:
            p.zero_grad()
        loss, _ = model.batch_loss_parts(ids, lengths, labels, RngStream(7))
        backward(loss)
        return loss.data.tobytes(), [p.dense_grad() for p in params]

    loss, got = step()
    composed()
    want_loss, want = step()
    assert loss == want_loss
    for p, a, b in zip(params, got, want):
        if p.name in ("embedding", "layer1.input_weights"):
            assert_close(a, b, p.name)
        else:
            assert a.tobytes() == b.tobytes(), p.name


# -- memory ------------------------------------------------------------------------

def no_grad_peak(traced_peak, layer, make_input, lengths):
    """The traced peak of one no-grad layer call, its input built inside."""
    def call():
        with no_grad():
            lstm_layer(layer, make_input(), lengths)

    return traced_peak(call)


@pytest.mark.parametrize(
    "n, steps, d, h, vocab",
    [(1200, 12, 32, 24, 24), (64, 64, 300, 128, 20_000)],
    ids=["desk_test_split", "forum_batch"],
)
def test_no_grad_peak_is_no_higher(n, steps, d, h, vocab, traced_peak):
    gen = np.random.default_rng(9)
    layer = init_lstm_layer(d, h, RngStream(9), "layer1")
    table = Parameter(gen.uniform(-0.5, 0.5, (vocab, d)), "embedding")
    # log-normal lengths around a median of 36, as the benchmark's posts
    lengths = np.clip(np.rint(36 * np.exp(gen.normal(size=n))), 1, steps).astype(int)
    ids = padded(zipf_ids(gen, (n, steps), vocab), lengths)
    lookup = no_grad_peak(traced_peak, layer, lambda: Lookup(table, ids), lengths)
    composed = no_grad_peak(traced_peak, layer, lambda: gather_rows(table, ids), lengths)
    assert lookup <= composed
