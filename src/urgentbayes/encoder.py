"""The deterministic classifier: embedding lookup, a two-layer LSTM,
dot-product attention over the top layer's states, and an affine
prediction head on (context ⊕ final state).

There is one forward implementation.  Each recurrent layer is a single
tape op over the whole padded `(n, T, d)` batch (`lstm_layer`, with a
hand-written backpropagation-through-time backward), and attention is a
single length-masked op over the `(n, T, hidden)` states (`attend`).
Training records them on the autodiff tape; prediction runs the same ops
under `no_grad`, so the zero-dropout Bayesian variant agrees with the
deterministic model bit for bit by construction.  Prediction can stack
several dropout samples of one batch: layer 1 then runs once, and layer
2, attention and the head run over blocks of samples (`infer_states`).  Only the head
(`_build_head`, `_head`) differs by kind; vi's is its reconstruction
head with the latent code at the prior mean.  Every kind's `predict_batch`
builds an (M, n, 2) block of sample logits (M = 1 here) and makes one
`aggregate_logit_samples` call, which returns the n posts' distributions.

The single-example `lstm_step`, `attention_scores` and `context_vector`
are the step-by-step reference the fused ops are tested against.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    _accumulate,
    _check_finite,
    _node,
    affine,
    concat,
    cross_entropy_from_logits,
    gather_rows,
    is_recording,
    logistic,
    matmul,
    no_grad,
    sigmoid,
    softmax_stable,
    tanh_op,
    transpose,
)
from .errors import ConfigurationError, DataError, ShapeError, UsageError
from .metrics import NUM_CLASSES, predictive_entropy

log = logging.getLogger(__name__)

ATTENTION_MODES = ("softmax", "ratio")
MODEL_KINDS = ("base", "mcd", "vi")

# size bound of one block of LSTM input projections (see lstm_layer)
PROJECTION_BLOCK_BYTES = 2 << 20

# dropout placement indices shared with the Monte Carlo variant
AFTER_LAYER_1 = 0
AFTER_LAYER_2 = 1
PREDICTION_INPUT = 2


def require_counts(owner, names):
    """Raises ConfigurationError unless each named field is an int >= 1, not a bool."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
            raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


@dataclass
class HyperParams:
    """Architecture sizes; training settings live in TrainConfig."""

    max_len: int = 128
    embed_dim: int = 300
    hidden_dim: int = 128
    attention_mode: str = "softmax"
    z_dim: int = 16

    def validate(self):
        require_counts(self, ("max_len", "embed_dim", "hidden_dim", "z_dim"))
        if self.attention_mode not in ATTENTION_MODES:
            raise ConfigurationError(
                f"attention_mode must be one of {ATTENTION_MODES}, got {self.attention_mode!r}"
            )


@dataclass
class LstmLayerParams:
    """Gate order in the fused matrices: input, forget, candidate, output."""

    input_weights: Parameter     # (input_dim, 4*hidden)
    recurrent_weights: Parameter  # (hidden, 4*hidden)
    bias: Parameter              # (4*hidden,)

    @property
    def hidden_dim(self):
        return self.recurrent_weights.data.shape[0]

    def parameters(self):
        return [self.input_weights, self.recurrent_weights, self.bias]


def _uniform_init(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.generator().uniform(-bound, bound, size=shape)


def init_lstm_layer(input_dim, hidden_dim, rng, name):
    wx = _uniform_init(rng.child("input"), (input_dim, 4 * hidden_dim), input_dim)
    wh = _uniform_init(rng.child("recurrent"), (hidden_dim, 4 * hidden_dim), hidden_dim)
    bias = np.zeros(4 * hidden_dim)
    bias[hidden_dim : 2 * hidden_dim] = 1.0  # forget gate starts open
    return LstmLayerParams(
        Parameter(wx, f"{name}.input_weights"),
        Parameter(wh, f"{name}.recurrent_weights"),
        Parameter(bias, f"{name}.bias"),
    )


def lstm_step(params, h_prev, c_prev, x):
    """One cell update over a batch of rows: returns (h, c)."""
    hd = params.hidden_dim
    pre = affine(x, params.input_weights, params.bias) + matmul(h_prev, params.recurrent_weights)
    i = sigmoid(pre[:, 0 * hd : 1 * hd])
    f = sigmoid(pre[:, 1 * hd : 2 * hd])
    g = tanh_op(pre[:, 2 * hd : 3 * hd])
    o = sigmoid(pre[:, 3 * hd : 4 * hd])
    c = f * c_prev + i * g
    h = o * tanh_op(c)
    return h, c


def lstm_layer(params, x, out=None):
    """Runs one layer from zero state over a padded (n, T, input_dim) batch
    and returns its hidden states, (n, T, hidden).

    One tape op: the input projection is one matmul per block of
    timesteps, and the recurrence follows `lstm_step`'s gate order and
    arithmetic.  Gate activations and cell states are kept only when a
    gradient can flow; the backward is hand-written backpropagation
    through time.

    Without a gradient the states may be written into `out`, an (n, T,
    hidden) array that may be x's own: each block of inputs is projected
    before any of its positions is overwritten."""
    wx, wh, bias = params.input_weights, params.recurrent_weights, params.bias
    if x.data.ndim != 3 or x.data.shape[2] != wx.data.shape[0]:
        raise ShapeError(
            f"lstm_layer expects (n, T, {wx.data.shape[0]}) input, got {x.data.shape}"
        )
    n, steps, d = x.data.shape
    hd = params.hidden_dim
    # input projections for blocks of timesteps of about 2 MB each, so that
    # a large prediction batch never holds an (n, T, 4*hidden) temporary
    block = max(1, PROJECTION_BLOCK_BYTES // (n * 4 * hd * 8))
    keep = is_recording((x, wx, wh, bias))
    if out is not None and keep:
        raise UsageError("lstm_layer writes into `out` only when no gradient is recorded")
    states = np.empty((n, steps, hd)) if out is None else out
    gates = np.empty((n, steps, 4 * hd)) if keep else None   # activated i, f, g, o
    cells = np.empty((n, steps, hd)) if keep else None
    h = np.zeros((n, hd))
    c = np.zeros((n, hd))
    for t in range(steps):
        if t % block == 0:
            window = x.data[:, t : t + block]
            projected = window.reshape(-1, d) @ wx.data
            projected += bias.data
            projected = projected.reshape(n, window.shape[1], 4 * hd)
        pre = projected[:, t % block] + h @ wh.data
        act = logistic(pre)
        act[:, 2 * hd : 3 * hd] = np.tanh(pre[:, 2 * hd : 3 * hd])
        if keep:
            # the gates saturate, so an overflow here would not reach the
            # output; training detects divergence through this check
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
        # d(gate)/d(pre-activation), and dc_t/dh_t through h = o * tanh(c)
        slope = gates * (1.0 - gates)
        slope[..., 2 * hd : 3 * hd] = 1.0 - cand * cand
        through_c = o * (1.0 - tanh_c * tanh_c)
        prev_c = np.zeros((n, steps, hd))
        prev_c[:, 1:] = cells[:, :-1]
        d_pre = np.empty((n, steps, 4 * hd))
        wh_t = wh.data.T
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
            dh_next = dp @ wh_t
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


@dataclass
class EncoderState:
    """One example's encoder outputs, as the reference `attention_scores`
    and `context_vector` read and fill them."""

    states: Tensor                 # (true_length, hidden), real tokens only
    final_state: Tensor            # (1, hidden), state at the last real token
    attention: Tensor = None       # (true_length, 1) once computed
    context: Tensor = None         # (1, hidden) once computed
    attention_degenerate: bool = False


def _ratio_weights_graph(scores):
    """Literal sum-normalization of raw dot products; falls back to
    uniform weights when the denominator vanishes."""
    denom = scores.sum()
    if abs(denom.item()) < 1e-12:
        _warn_degenerate(denom.item())
        return Tensor(np.full((scores.data.shape[0], 1), 1.0 / scores.data.shape[0])), True
    return scores / denom, False


def attention_scores(state, mode="softmax"):
    """Weights over the valid positions from dot products with the final
    state; stores them on the state and returns them."""
    if mode not in ATTENTION_MODES:
        raise ConfigurationError(f"unknown attention mode {mode!r}")
    scores = matmul(state.states, transpose(state.final_state))  # (L, 1)
    if mode == "softmax":
        weights = softmax_stable(scores, axis=0)
        state.attention_degenerate = False
    else:
        weights, state.attention_degenerate = _ratio_weights_graph(scores)
    state.attention = weights
    return weights


def context_vector(state):
    """Attention-weighted sum of the valid states: (1, hidden)."""
    if state.attention is None:
        raise UsageError("compute attention_scores before the context vector")
    ctx = matmul(transpose(state.attention), state.states)
    state.context = ctx
    return ctx


def _warn_degenerate(denom):
    log.warning(
        "degenerate attention: score sum %.3e below 1e-12, using uniform weights", denom
    )


def attend(states, finals, lengths, mode="softmax"):
    """Batched attention over padded (n, T, hidden) states: the weights of
    row i cover its first lengths[i] positions only and come from dot
    products with finals[i], as in `attention_scores`; returns the
    contexts, (n, hidden).  One tape op.

    In ratio mode a row whose score sum vanishes falls back to uniform
    weights with a warning, and the other rows are unaffected."""
    if mode not in ATTENTION_MODES:
        raise ConfigurationError(f"unknown attention mode {mode!r}")
    s, q = states.data, finals.data
    n, steps, _ = s.shape
    valid = np.arange(steps) < np.asarray(lengths)[:, None]       # (n, T)
    scores = np.matmul(s, q[:, :, None])[:, :, 0]                  # (n, T)
    if mode == "softmax":
        top = np.where(valid, scores, -np.inf).max(axis=1, keepdims=True)
        e = np.exp(np.where(valid, scores - top, -np.inf))
        weights = e / e.sum(axis=1, keepdims=True)
    else:
        denom = np.where(valid, scores, 0.0).sum(axis=1, keepdims=True)
        degenerate = np.abs(denom) < 1e-12                          # (n, 1)
        for row in np.flatnonzero(degenerate):
            _warn_degenerate(denom[row, 0])
        denom = np.where(degenerate, 1.0, denom)
        uniform = valid / valid.sum(axis=1, keepdims=True)
        weights = np.where(degenerate, uniform, np.where(valid, scores / denom, 0.0))

    def bwd(g):
        g_weights = np.matmul(s, g[:, :, None])[:, :, 0]
        centred = g_weights - (g_weights * weights).sum(axis=1, keepdims=True)
        if mode == "softmax":
            g_scores = weights * centred
        else:
            g_scores = np.where(valid & ~degenerate, centred / denom, 0.0)
        _accumulate(
            states, weights[:, :, None] * g[:, None, :] + g_scores[:, :, None] * q[:, None, :]
        )
        _accumulate(finals, np.matmul(g_scores[:, None, :], s)[:, 0, :])
    return _node(np.matmul(weights[:, None, :], s)[:, 0, :], (states, finals), bwd)


class MonteCarloError(NamedTuple):
    """Monte Carlo standard errors of an average over M stochastic passes,
    by the delta method on the mean logit difference d = l1 - l0: the
    error of p = mean_probs[1] (mean_probs[0] has the same) is
    p (1 - p) sd(d) / sqrt(M), and the entropy's is |ln((1 - p) / p)|
    times that.  Both are 0 for one pass or identical passes."""

    mean_probs: float
    entropy: float


NO_MC_ERROR = MonteCarloError(0.0, 0.0)


@dataclass
class PredictiveDistribution:
    """Aggregate of one-or-more stochastic forward passes on one example."""

    mean_probs: np.ndarray        # (2,)
    mean_logits: np.ndarray       # (2,)
    per_sample_logits: np.ndarray  # (M, 2)
    entropy: float
    predicted_label: int
    mc_standard_error: MonteCarloError = NO_MC_ERROR


def aggregate_logit_samples(sample_logits):
    """The n posts' `PredictiveDistribution`s from an (M, n, 2) block of
    logits, M stochastic passes over n posts: each post's mean logits
    (compensated summation, so independent of sample order), then softmax,
    entropy, argmax and the Monte Carlo standard error, all posts at once.
    Ties at argmax resolve to label 0."""
    block = np.asarray(sample_logits, dtype=np.float64)
    if block.ndim != 3 or block.shape[2] != NUM_CLASSES:
        raise ShapeError(f"expected an (M, n, {NUM_CLASSES}) array of logits")
    m, n = block.shape[:2]
    # identical samples are their own exact mean; fsum/m can land 1 ulp off
    mean_logits = block[0].copy()
    differ = np.flatnonzero((block != block[0]).any(axis=2).any(axis=0))
    columns = np.ascontiguousarray(block[:, differ].transpose(1, 2, 0))     # (k, 2, M)
    sums = [math.fsum(c) for c in columns.reshape(-1, m).tolist()]
    mean_logits[differ] = np.reshape(sums, (-1, NUM_CLASSES)) / m
    e = np.exp(mean_logits - mean_logits.max(axis=1, keepdims=True))
    mean_probs = e / e.sum(axis=1, keepdims=True)
    # `MonteCarloError`: one contiguous row of deviations per post, dotted alone
    p = mean_probs[differ, 1]
    spread = columns[:, 1] - columns[:, 0]
    spread -= (mean_logits[differ, 1] - mean_logits[differ, 0])[:, None]
    squares = np.matmul(spread[:, None, :], spread[:, :, None])[:, 0, 0]
    se_p = np.zeros(n)
    se_p[differ] = p * (1.0 - p) * np.sqrt(squares / (m - 1) / m)
    errors = [
        NO_MC_ERROR if se == 0.0 else MonteCarloError(se, abs(math.log((1.0 - q) / q)) * se)
        for se, q in zip(se_p.tolist(), mean_probs[:, 1].tolist())
    ]
    fields = zip(
        mean_probs, mean_logits, block.transpose(1, 0, 2),
        predictive_entropy(mean_probs).tolist(), np.argmax(mean_probs, axis=1).tolist(), errors,
    )
    return [PredictiveDistribution(*post) for post in fields]


class BaseClassifier:
    """Deterministic model; also the chassis the Bayesian variants extend.

    Dropout hooks are present but inert here: `_placement_masks` returns
    None, so every mask branch is skipped and the forward is exactly the
    plain deterministic computation."""

    kind = "base"

    def __init__(self, hp, embedding_matrix, rng):
        hp.validate()
        matrix = np.asarray(embedding_matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != hp.embed_dim:
            raise ShapeError(
                f"embedding matrix shape {matrix.shape} does not match embed_dim {hp.embed_dim}"
            )
        self.hp = hp
        init = rng.child("init")
        h = hp.hidden_dim
        self.embedding = Parameter(matrix.copy(), "embedding")
        self.layer1 = init_lstm_layer(hp.embed_dim, h, init.child("layer1"), "layer1")
        self.layer2 = init_lstm_layer(h, h, init.child("layer2"), "layer2")
        self._head_params = self._build_head(init)

    def _build_head(self, init):
        """Builds the kind-specific head from the `init` stream and returns
        its parameters: here the affine head on (context ⊕ final state)."""
        h = self.hp.hidden_dim
        self.head_weight = Parameter(
            _uniform_init(init.child("head"), (2 * h, NUM_CLASSES), 2 * h), "head.weight"
        )
        self.head_bias = Parameter(np.zeros(NUM_CLASSES), "head.bias")
        return [self.head_weight, self.head_bias]

    def parameters(self):
        return (
            [self.embedding]
            + self.layer1.parameters()
            + self.layer2.parameters()
            + self._head_params
        )

    # -- dropout hooks (overridden by the Monte Carlo variant) ----------

    def _placement_masks(self, n_rows, rng):
        """Scaled keep-masks per placement index, or None for no dropout."""
        return None

    # -- forward ------------------------------------------------------------

    def _embed(self, ids, lengths):
        """Checks a batch and gathers its embeddings up to its longest row:
        (n, T, embed_dim) with T = lengths.max()."""
        ids = np.asarray(ids)
        if (lengths < 1).any():
            raise DataError("cannot encode an empty sequence (true_length = 0)")
        steps = int(lengths.max())
        if ids.shape[1] < steps:
            raise ShapeError("token id rows shorter than stated true lengths")
        return gather_rows(self.embedding, ids[:, :steps])

    def _encode(self, ids, lengths, masks):
        """Runs the recurrent stack over a batch padded to its longest row:
        returns the top layer's states, (n, T, hidden) with T =
        lengths.max(), and each row's state at its last real token,
        (n, hidden).  Dropout masks are (rows, hidden) and shared across
        timesteps."""
        lengths = np.asarray(lengths)
        hidden = lstm_layer(self.layer1, self._embed(ids, lengths))
        if masks is not None:
            hidden = hidden * masks[AFTER_LAYER_1][:, None, :]
        states = lstm_layer(self.layer2, hidden)
        if masks is not None:
            states = states * masks[AFTER_LAYER_2][:, None, :]
        return states, states[np.arange(len(lengths)), lengths - 1]

    def batch_states(self, ids, lengths, masks=None):
        """Graph states with attention applied; returns (states, finals,
        contexts): the (n, T, hidden) top-layer states and two (n, hidden)
        tensors."""
        states, finals = self._encode(ids, lengths, masks)
        return states, finals, attend(states, finals, lengths, self.hp.attention_mode)

    def _head(self, finals, contexts, masks):
        pred_in = concat([contexts, finals], axis=1)
        if masks is not None:
            pred_in = pred_in * masks[PREDICTION_INPUT]
        return affine(pred_in, self.head_weight, self.head_bias)

    def batch_logits(self, ids, lengths, masks=None):
        _, finals, contexts = self.batch_states(ids, lengths, masks)
        return self._head(finals, contexts, masks)

    def batch_loss_parts(self, ids, lengths, labels, rng=None):
        """Loss tensor plus named scalar components for the loss trace."""
        masks = self._placement_masks(len(labels), rng)
        loss = cross_entropy_from_logits(self.batch_logits(ids, lengths, masks), labels)
        return loss, {"cross_entropy": loss.item()}

    def infer_states(self, ids, lengths, masks=None, logits=False):
        """The encoder under `no_grad`: returns (finals, contexts) as
        (rows, hidden) arrays, or with `logits` the head's (rows, 2) logits.

        Masks may stack s samples of a batch of n posts: each one reshapes
        to (s, n, width), sample-major, and the results have s*n rows,
        sample k's posts at rows k*n to (k+1)*n - 1.  Layer 1 runs once,
        since no mask reaches its input; layer 2 and attention run over
        blocks of c samples, c*n rows at a time, with c as large as keeps a
        block's (c*n, T, hidden) states within PROJECTION_BLOCK_BYTES.  With
        `logits` the head runs on each block before the next one starts, so
        a stacked batch never holds every sample's states.  Each mask
        multiplies the same values as in the graph forward, and in a batch
        of two or more posts every sample's rows equal the graph forward
        under that sample's masks bit for bit; a one-post batch can differ
        in the last bit, as its stacked products take another BLAS kernel."""
        lengths = np.asarray(lengths)
        n = len(lengths)
        with no_grad():
            lower = lstm_layer(self.layer1, self._embed(ids, lengths)).data
            _, steps, h = lower.shape
            stacked = {} if masks is None else {
                p: m.reshape(-1, n, 1, m.shape[-1]) for p, m in masks.items()
            }
            samples = len(stacked[AFTER_LAYER_1]) if stacked else 1
            c = min(samples, max(1, PROJECTION_BLOCK_BYTES // (n * steps * h * 8)))
            # one buffer holds each block's masked layer-2 input, and then
            # its layer-2 states; unmasked, layer 1's states are overwritten
            block_states = np.empty((c, n, steps, h)) if stacked else lower[None]
            if logits:
                out = np.empty((samples * n, NUM_CLASSES))
            else:
                finals_out, contexts_out = np.empty((samples * n, h)), np.empty((samples * n, h))
            for k in range(0, samples, c):
                b = min(c, samples - k)
                states = block_states[:b]
                if stacked:
                    np.multiply(lower, stacked[AFTER_LAYER_1][k : k + b], out=states)
                states = states.reshape(b * n, steps, h)
                lstm_layer(self.layer2, Tensor(states), out=states)
                if stacked:
                    states.reshape(b, n, steps, h)[:] *= stacked[AFTER_LAYER_2][k : k + b]
                block_lengths = np.tile(lengths, b)
                finals = states[np.arange(b * n), block_lengths - 1]
                contexts = attend(
                    Tensor(states), Tensor(finals), block_lengths, self.hp.attention_mode
                ).data
                if not logits:
                    finals_out[k * n : (k + b) * n] = finals
                    contexts_out[k * n : (k + b) * n] = contexts
                    continue
                # the head runs per sample: a BLAS product with two columns
                # rounds a row differently as the row count changes, and one
                # sample's n rows are what the graph forward multiplies
                for j in range(b):
                    rows = slice(j * n, (j + 1) * n)
                    head_masks = None
                    if stacked:
                        head_masks = {PREDICTION_INPUT: stacked[PREDICTION_INPUT][k + j, :, 0]}
                    out[(k + j) * n : (k + j + 1) * n] = self._head(
                        Tensor(finals[rows]), Tensor(contexts[rows]), head_masks
                    ).data
        return out if logits else (finals_out, contexts_out)

    def infer_logits(self, ids, lengths, masks=None):
        return self.infer_states(ids, lengths, masks, logits=True)

    # -- prediction -------------------------------------------------------

    def predict_batch(self, ids, lengths, rng=None):
        """One deterministic pass, aggregated as a block of M = 1 samples."""
        return aggregate_logit_samples(self.infer_logits(ids, lengths)[None])
