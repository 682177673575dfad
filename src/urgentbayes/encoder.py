"""The deterministic classifier: embedding lookup, a two-layer LSTM,
dot-product attention over the top layer's states, and an affine
prediction head on (context ⊕ final state).

There is one forward implementation.  Each recurrent layer is a single
tape op over a padded batch of n rows and T positions that runs each row
over its real positions only, as a packed sequence (`lstm_layer`, with a
hand-written backpropagation-through-time backward; the states at padded
positions are zeros), and attention is a single length-masked op over the
`(n, T, hidden)` states (`attend`).  Layer 1 reads the embedding by token
id (a `Lookup`): it projects each distinct id at a valid position once, no
`(n, T, embed_dim)` array of gathered rows is built, and its backward adds
to the embedding's gradient only the rows of the ids it read.  Training
records these ops on the autodiff tape, in float64; `infer_states` runs
the same ops under `no_grad`, in the dtype of the weights it is given.
Prediction can stack several dropout samples of one batch: layer 1 then
runs once, and layer 2, attention and the head run over blocks of samples
(`infer_states`).  Only the head (`_build_head`, `_head`) differs by kind;
vi's is its reconstruction head with the latent code at the prior mean.

Every kind's `predict_batch` scores through a `serving_copy`, whose
weights are float32 copies made on each call (the embedding stays
float64; layer 1 casts the rows a batch reads), builds an (M, n, 2) block
of sample logits (M = 1 here) and makes one `aggregate_logit_samples`
call, which returns the n posts' distributions in float64.  The float64
forward of the model's own weights (`infer_logits`, `batch_logits`) is the
oracle the served logits are held to, within 1e-5 max(1, |logit|) (below
5e-7 measured on trained models).  Bitwise claims hold within one
precision: the zero-dropout Bayesian variant agrees with the deterministic
model bit for bit by construction, in float64 as in float32, but a
float32 logit is not the float64 one.

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
    Constant,
    Parameter,
    Tensor,
    _accumulate,
    _check_finite,
    _logistic_passes,
    _node,
    affine,
    concat,
    cross_entropy_from_logits,
    gather_rows,  # unused here; perfbench's tracer wraps encoder.gather_rows by name
    is_recording,
    matmul,
    no_grad,
    sigmoid,
    softmax_stable,
    tanh_op,
    transpose,
)
from .blas import one_thread
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    NonFiniteError,
    ShapeError,
    UsageError,
)
from .metrics import NUM_CLASSES, _entropy

log = logging.getLogger(__name__)

ATTENTION_MODES = ("softmax", "ratio")
MODEL_KINDS = ("base", "mcd", "vi")

# size bound of one block of LSTM input projections (see lstm_layer)
PROJECTION_BLOCK_BYTES = 2 << 20
# fewest rows a step of lstm_layer multiplies (see lstm_layer)
MIN_ACTIVE_ROWS = 2
# runs at least this long are summed one at a time (see _segment_sums)
LONG_RUN = 8

# dropout placement indices shared with the Monte Carlo variant
AFTER_LAYER_1 = 0
AFTER_LAYER_2 = 1
PREDICTION_INPUT = 2


def require_counts(owner, names, minimum=1):
    """Raises ConfigurationError unless each named field is an int >= minimum
    (1 or 0), not a bool."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
            sign = "positive" if minimum else "non-negative"
            raise ConfigurationError(f"{name} must be a {sign} integer, got {value!r}")


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


def _cast(data, dtype, name):
    """`data` in `dtype`, under the caller's `np.errstate(over="raise")`: a
    finite value beyond the range of `dtype` would become inf, so it raises
    NonFiniteError naming `name` instead."""
    try:
        return data.astype(dtype, copy=False)
    except FloatingPointError:
        limit = np.finfo(dtype).max
        raise NonFiniteError(
            f"{name} holds a value beyond the {np.dtype(dtype).name} range ({limit:.1e})"
        ) from None


def served(param):
    """A float32 `Constant` copy of `param`, made under the caller's
    `np.errstate(over="raise")` (`_cast`)."""
    return Constant(_cast(param.data, np.float32, param.name), param.name)


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


class Lookup(NamedTuple):
    """Token ids, an (n, T) int array, naming rows of a (V, d) embedding
    `table`: the input `lstm_layer` reads in place of the (n, T, d) rows
    they would gather.  A table that needs a gradient is a `Parameter`,
    whose `add_rows` the backward writes through."""

    table: Tensor
    ids: np.ndarray


def _blocked_input(x, wx, bias, order, active, block, positions):
    """The input side of `lstm_layer` for an (n, T, d) tensor.  Returns an
    iterator over the steps that yields step t's input projections,
    x[order[:k], t] @ wx + bias for its k = active[t] rows, computed for
    `block` timesteps at a time, and the backward that takes the packed
    pre-activation adjoints of the valid `positions` and accumulates the
    gradients of x and wx."""
    n, steps, d = x.data.shape

    def projections():
        for t in range(steps):
            if t % block == 0:
                k = active[t]
                rows = x.data[order[:k], t : t + block].reshape(-1, d)
                if rows.dtype is not wx.data.dtype:
                    with np.errstate(over="raise"):
                        rows = _cast(rows, wx.data.dtype, "the layer input")
                projected = rows @ wx.data
                projected += bias.data
                projected = projected.reshape(k, -1, wx.data.shape[1])
            yield projected[: active[t], t % block]

    def bwd(d_pre):
        if x.requires_grad:
            dx = np.zeros((n * steps, d))
            dx[positions] = d_pre @ wx.data.T
            _accumulate(x, dx.reshape(n, steps, d))
        _accumulate(wx, x.data.reshape(n * steps, d)[positions].T @ d_pre)

    return projections(), bwd


def _segment_sums(rows, sort, starts):
    """Row i of the result sums rows[sort[starts[i] : starts[i + 1]]], the
    i-th run of `sort` (the last run ends at len(sort)).  np.add.reduceat
    over rows[sort] loops over every (run, column) pair: 15 ms for a forum
    batch's 2,500 x 512 adjoints in 1,150 runs (2 vCPUs, NumPy 2.4).  Here
    the runs shorter than LONG_RUN, most of them, add one row per round,
    each round over all of them, and the few longer ones, the most frequent
    words, are summed one at a time: 1.3 ms."""
    counts = np.diff(starts, append=len(sort))
    sums = rows[sort[starts]]
    short = counts < LONG_RUN
    for j in range(1, counts[short].max(initial=0)):
        more = np.flatnonzero(short & (counts > j))
        sums[more] += rows[sort[starts[more] + j]]
    for i in np.flatnonzero(~short).tolist():
        sums[i] = rows[sort[starts[i] : starts[i] + counts[i]]].sum(axis=0)
    return sums


def _lookup_input(table, ids, wx, bias, active, block, live, positions):
    """The input side of `lstm_layer` for a `Lookup`, as `_blocked_input`
    for the tensor of rows it names.  Lookup and projection are linear, so
    each distinct id u at a valid position is projected once, P = table[u]
    @ wx + bias, and each block of steps gathers its rows of P, as Devlin
    et al. (ACL 2014) precompute the first hidden layer of their network.
    The backward sums the pre-activation adjoints of each id's positions
    first, over the runs of the forward's stable sort of the ids
    (`_segment_sums`), so the table's gradient rows, D @ wx.T, and wx's
    gradient, table[u].T @ D, come from one row D per distinct id, and only
    those ids enter the table's row record (`Parameter.add_rows`)."""
    n, steps = ids.shape
    tokens = ids.reshape(-1)[positions]
    sort = tokens.argsort(kind="stable")
    ranked = tokens[sort]
    new = np.empty(len(ranked), dtype=bool)   # the first of each run of ids
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    starts = new.nonzero()[0]
    distinct = ranked[starts]
    # each position's row of P; a padded one reads row 0, whose projection
    # reaches no state that is kept
    inverse = np.empty_like(sort)
    inverse[sort] = new.cumsum() - 1
    slots = np.zeros(live.shape, dtype=np.intp)
    slots[live] = inverse
    slots = slots[::-1]   # `live` runs from the last step to the first
    picks = distinct
    if len(picks) < min(MIN_ACTIVE_ROWS, n * steps):
        # the dense projection multiplies two or more rows unless the batch
        # has one position, and a one-row product rounds differently
        picks = np.resize(picks, MIN_ACTIVE_ROWS)
    rows = table.data[picks]
    if rows.dtype is not wx.data.dtype:
        # only the rows read take the weights' dtype, not the whole table
        with np.errstate(over="raise"):
            rows = _cast(rows, wx.data.dtype, getattr(table, "name", "the table"))
    projected = rows @ wx.data
    projected += bias.data

    def projections():
        for t in range(steps):
            if t % block == 0:
                rows = projected.take(slots[t : t + block, : active[t]], axis=0)
            yield rows[t % block, : active[t]]

    def bwd(d_pre):
        segments = _segment_sums(d_pre, sort, starts)   # one row per id
        if table.requires_grad:
            table.add_rows(distinct, segments @ wx.data.T)
        _accumulate(wx, table.data[distinct].T @ segments)

    return projections(), bwd


def lstm_layer(params, x, lengths, out=None):
    """Runs one layer from zero state over a padded batch of n rows and T
    positions whose row i has lengths[i] real positions and returns its
    hidden states, (n, T, hidden), zero at the padded positions.  The input
    `x` is an (n, T, input_dim) tensor, or a `Lookup` of (n, T) token ids
    in a (V, input_dim) table, which layer 1 reads: it projects each
    distinct id at a valid position once, and its backward adds to the
    table's gradient only the rows of those ids (`_lookup_input`).

    One tape op over a packed batch, as cuDNN and PyTorch pack padded
    sequences: the rows are taken longest first, and step t runs only the
    rows longer than t, in the input projection, the recurrence and
    backpropagation through time.  The recurrence follows `lstm_step`'s
    gate order and arithmetic.  A step's pre-activations go into one reused
    buffer, and `logistic`'s in-place passes write the gates from there
    straight into their saved block, or back into the buffer when nothing
    is saved.  Gate activations and cell states are kept only when a
    gradient can flow, time-major, (T, n, 4*hidden) and (T, n, hidden), so
    each step's block is contiguous.  The backward is hand-written and
    stays packed: it fills one contiguous block of pre-activation adjoints
    per step, from the last step to the first, and forms the input's
    gradient and the three weight gradients from those valid positions
    only.

    The layer computes in the dtype of its weights; an input of another
    dtype is cast, a `Lookup` casting only the rows it reads.  In either
    precision the valid states are bitwise what the recurrence over every
    position gives wherever BLAS rounds a row of a product alike whatever
    other rows the product holds.  OpenBLAS does not for a one-row product
    (a matrix-vector kernel), so a step keeps at least MIN_ACTIVE_ROWS rows,
    and the states, and with them every prediction, stay byte-identical to
    the dense recurrence over the gathered rows.  The gradients sum the
    valid positions in another order than a dense pass does, and a Lookup
    sums each id's positions before multiplying, so they differ from it in
    the last bits (relative 3e-15 at the benchmark's shapes).

    Without a gradient the states may be written into `out`, an (n, T,
    hidden) array that may be a tensor input's own: each block of inputs is
    projected before any of its positions is overwritten."""
    wx, wh, bias = params.input_weights, params.recurrent_weights, params.bias
    lookup = isinstance(x, Lookup)
    if lookup:
        source = x.table
        if source.requires_grad and not isinstance(source, Parameter):
            raise UsageError("a Lookup's table receives a gradient only as a Parameter")
        ids = np.asarray(x.ids, dtype=np.intp)
        shape = ids.shape + source.data.shape[1:]
    else:
        source = x
        shape = x.data.shape
    if len(shape) != 3 or shape[2] != wx.data.shape[0]:
        raise ShapeError(f"lstm_layer expects (n, T, {wx.data.shape[0]}) input, got {shape}")
    if lookup and ids.size and (ids.min() < 0 or ids.max() >= source.data.shape[0]):
        raise DomainError("row id out of range")
    n, steps, _ = shape
    hd = params.hidden_dim
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.shape != (n,):
        raise ShapeError(f"lstm_layer expects {n} lengths, got shape {lengths.shape}")
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    if n and (ranked[-1] < 0 or ranked[0] > steps):
        raise ShapeError(f"lstm_layer expects lengths in [0, {steps}], got {lengths}")
    # valid[t]: the number of rows longer than t, which come first in `order`
    valid = np.searchsorted(-ranked, -np.arange(steps)).tolist()
    floor = min(n, MIN_ACTIVE_ROWS)
    active = [max(k, floor) for k in valid]
    # input projections for blocks of timesteps of about 2 MB each, so that
    # a large prediction batch never holds an (n, T, 4*hidden) temporary
    dtype = wx.data.dtype
    block = max(1, PROJECTION_BLOCK_BYTES // (n * 4 * hd * dtype.itemsize))
    keep = is_recording((source, wx, wh, bias))
    if out is not None and keep:
        raise UsageError("lstm_layer writes into `out` only when no gradient is recorded")
    # the valid positions in the order BPTT visits them: one block per
    # step, from the last step to the first, each in `order`'s row order
    # (flat indices into the (n * T) positions); a tensor input without a
    # gradient needs none
    live = positions = None
    if lookup or keep:
        back = np.arange(steps - 1, -1, -1)[:, None]
        live = ranked > back   # (T, n), the same steps and rows
        positions = (order * steps + back)[live]
    if lookup:
        projections, input_bwd = _lookup_input(
            source, ids, wx, bias, active, block, live, positions
        )
    else:
        projections, input_bwd = _blocked_input(x, wx, bias, order, active, block, positions)
    states = np.empty((n, steps, hd), dtype) if out is None else out
    # saved time-major, each step's active rows in `order`'s row order, so
    # a step's block is contiguous
    gates = np.empty((steps, n, 4 * hd)) if keep else None   # activated i, f, g, o
    cells = np.empty((steps, n, hd)) if keep else None
    work = np.empty((n, 4 * hd), dtype)   # each step's pre-activations
    spare = np.empty((n, hd), dtype)   # each step's candidate, then input * candidate
    h = np.zeros((n, hd), dtype)
    c = np.zeros((n, hd), dtype)
    # a gate whose pre-activation lies below about -709.78 (-88.72 in
    # float32) overflows e^-z and is 0.0
    with np.errstate(over="ignore"):
        for t, projected in enumerate(projections):
            k = active[t]
            pre = np.matmul(h[:k], wh.data, out=work[:k])
            pre += projected
            if keep:
                # the gates saturate, so an overflow here would not reach
                # the output; training detects divergence through this check
                _check_finite(pre, "LSTM pre-activation")
            cand = np.tanh(pre[:, 2 * hd : 3 * hd], out=spare[:k])
            act = _logistic_passes(pre, gates[t, :k] if keep else pre)
            act[:, 2 * hd : 3 * hd] = cand
            cand *= act[:, :hd]
            c_t, h_t = c[:k], h[:k]
            c_t *= act[:, hd : 2 * hd]
            c_t += cand
            np.tanh(c_t, out=h_t)
            h_t *= act[:, 3 * hd :]
            states[order[: valid[t]], t] = h[: valid[t]]
            if keep:
                cells[t, :k] = c_t
    if valid and valid[-1] < n:
        states[np.arange(steps) >= lengths[:, None]] = 0.0

    def bwd(g):
        g_rows = g.reshape(n * steps, hd)[positions]
        d_pre = np.empty((len(positions), 4 * hd))   # packed like `positions`
        slopes = np.empty((n, 4 * hd))
        tanh_cs, dhs, dcs = np.empty((n, hd)), np.empty((n, hd)), np.empty((n, hd))
        wh_t = wh.data.T
        dh_next = np.zeros((n, hd))   # a row is first written at its last step
        dc_next = np.zeros((n, hd))
        start = 0
        for t in range(steps - 1, -1, -1):
            k = valid[t]
            act = gates[t, :k]
            i, f = act[:, :hd], act[:, hd : 2 * hd]
            cand, o = act[:, 2 * hd : 3 * hd], act[:, 3 * hd :]
            tanh_c = np.tanh(cells[t, :k], out=tanh_cs[:k])
            # d(gate)/d(pre-activation), and dc_t/dh_t through h = o * tanh(c)
            slope = np.subtract(1.0, act, out=slopes[:k])
            slope *= act
            slope_cand = np.multiply(cand, cand, out=slope[:, 2 * hd : 3 * hd])
            np.subtract(1.0, slope_cand, out=slope_cand)
            dh = np.add(g_rows[start : start + k], dh_next[:k], out=dhs[:k])
            # dc = dc_next + dh * (o * (1 - tanh_c * tanh_c)), in place
            dc = np.multiply(tanh_c, tanh_c, out=dcs[:k])
            np.subtract(1.0, dc, out=dc)
            dc *= o
            dc *= dh
            dc += dc_next[:k]
            dp = d_pre[start : start + k]
            np.multiply(dc, cand, out=dp[:, :hd])
            np.multiply(dc, cells[t - 1, :k] if t else 0.0, out=dp[:, hd : 2 * hd])
            np.multiply(dc, i, out=dp[:, 2 * hd : 3 * hd])
            np.multiply(dh, tanh_c, out=dp[:, 3 * hd :])
            dp *= slope
            np.matmul(dp, wh_t, out=dh_next[:k])
            np.multiply(dc, f, out=dc_next[:k])
            start += k
        input_bwd(d_pre)
        # the state before each position; step 0's block, last, has none
        inner = len(positions) - (valid[0] if steps else 0)
        prev_h = states.reshape(n * steps, hd)[positions[:inner] - 1]
        _accumulate(wh, prev_h.T @ d_pre[:inner])
        _accumulate(bias, d_pre.sum(axis=0))
    return _node(states, (source, wx, wh, bias), bwd)


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
        uniform = valid / valid.sum(axis=1, keepdims=True, dtype=s.dtype)
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
        _entropy(mean_probs).tolist(), np.argmax(mean_probs, axis=1).tolist(), errors,
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

    def _serve_head(self):
        """On a serving copy, replaces the head's parameters by their
        `served` copies and returns them, as `_build_head` does."""
        self.head_weight, self.head_bias = map(served, self._head_params)
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
        """Checks a batch and returns layer 1's input: the `Lookup` of its
        ids up to its longest row, (n, T) with T = lengths.max(), in the
        embedding."""
        ids = np.asarray(ids)
        if (lengths < 1).any():
            raise DataError("cannot encode an empty sequence (true_length = 0)")
        steps = int(lengths.max())
        if steps > self.hp.max_len:
            raise DataError(
                f"a post of {steps} tokens is longer than the model's max_len {self.hp.max_len}"
            )
        if ids.shape[1] < steps:
            raise ShapeError("token id rows shorter than stated true lengths")
        return Lookup(self.embedding, ids[:, :steps])

    def _encode(self, ids, lengths, masks):
        """Runs the recurrent stack over a batch padded to its longest row:
        returns the top layer's states, (n, T, hidden) with T =
        lengths.max() and zeros past each row's length, and each row's
        state at its last real token, (n, hidden).  Dropout masks are
        (rows, hidden) and shared across timesteps."""
        lengths = np.asarray(lengths)
        hidden = lstm_layer(self.layer1, self._embed(ids, lengths), lengths)
        if masks is not None:
            hidden = hidden * masks[AFTER_LAYER_1][:, None, :]
        states = lstm_layer(self.layer2, hidden, lengths)
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
        (rows, hidden) arrays, or with `logits` the head's (rows, 2) logits,
        in the dtype of the model's weights: float64 on a model's own
        parameters, float32 on its `serving_copy`.  Masks are cast to it.

        Masks may stack s samples of a batch of n posts: each one reshapes
        to (s, n, width), sample-major, and the results have s*n rows,
        sample k's posts at rows k*n to (k+1)*n - 1.  Layer 1 runs once,
        since no mask reaches its input; layer 2 and attention run over
        blocks of c samples, c*n rows at a time, with c as large as keeps a
        block's (c*n, T, hidden) states within PROJECTION_BLOCK_BYTES.  With
        `logits` the head runs on each block before the next one starts, so
        a stacked batch never holds every sample's states.  Each mask
        multiplies the same values as in the graph forward, and in a batch
        of two or more posts every sample's rows equal the graph forward of
        the same weights under that sample's masks bit for bit; a one-post
        batch can differ in the last bit, as its stacked products take
        another BLAS kernel."""
        lengths = np.asarray(lengths)
        n = len(lengths)
        with no_grad():
            lower = lstm_layer(self.layer1, self._embed(ids, lengths), lengths).data
            _, steps, h = lower.shape
            dtype = lower.dtype
            stacked = {} if masks is None else {
                p: m.astype(dtype, copy=False).reshape(-1, n, 1, m.shape[-1])
                for p, m in masks.items()
            }
            samples = len(stacked[AFTER_LAYER_1]) if stacked else 1
            c = min(samples, max(1, PROJECTION_BLOCK_BYTES // (n * steps * h * dtype.itemsize)))
            # one buffer holds each block's masked layer-2 input, and then
            # its layer-2 states; unmasked, layer 1's states are overwritten
            block_states = np.empty((c, n, steps, h), dtype) if stacked else lower[None]
            if logits:
                out = np.empty((samples * n, NUM_CLASSES), dtype)
            else:
                finals_out = np.empty((samples * n, h), dtype)
                contexts_out = np.empty((samples * n, h), dtype)
            for k in range(0, samples, c):
                b = min(c, samples - k)
                states = block_states[:b]
                if stacked:
                    np.multiply(lower, stacked[AFTER_LAYER_1][k : k + b], out=states)
                states = states.reshape(b * n, steps, h)
                block_lengths = np.tile(lengths, b)
                lstm_layer(self.layer2, Tensor(states), block_lengths, out=states)
                if stacked:
                    states.reshape(b, n, steps, h)[:] *= stacked[AFTER_LAYER_2][k : k + b]
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

    def serving_copy(self):
        """The model `predict_batch` runs: a shallow copy whose weights are
        float32 `Constant`s made now from the float64 parameters, all but
        the embedding, which it shares (layer 1 casts only the rows a batch
        reads).  Nothing is cached, since training writes the parameters in
        place; the copy costs one cast of each weight.  Its forward runs in
        float32 and records nothing, and its outputs are float32 arrays."""
        copy = object.__new__(type(self))
        copy.__dict__.update(self.__dict__)
        copy.embedding = Constant(self.embedding.data, self.embedding.name)
        with np.errstate(over="raise"):
            copy.layer1 = LstmLayerParams(*map(served, self.layer1.parameters()))
            copy.layer2 = LstmLayerParams(*map(served, self.layer2.parameters()))
            copy._head_params = copy._serve_head()
        return copy

    def predict_batch(self, ids, lengths, rng=None):
        """One deterministic pass of the serving copy on one BLAS thread
        (`blas.one_thread`), aggregated as a block of M = 1 samples."""
        with one_thread():
            logits = self.serving_copy().infer_logits(ids, lengths)
        return aggregate_logit_samples(logits[None])
