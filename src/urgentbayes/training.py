"""Mini-batch training with adaptive moment estimation.

The loop is deterministic given (seed, data, config): batch order comes
from a per-epoch child stream and per-step stochasticity (dropout masks,
latent draws) from a per-step child stream, so repeating a run
reproduces every parameter bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, RngStream, _check_finite, backward, merge_rows, spread_rows
from .corpus import LabeledExample
from .encoder import MODEL_KINDS, BaseClassifier, HyperParams, require_counts
from .errors import (
    ConfigurationError,
    DataError,
    DivergenceError,
    NonFiniteError,
    UsageError,
)
from .mcd import McdClassifier, McdConfig
from .metrics import MetricsReport, build_report
from .vi import ViClassifier, ViConfig

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 20
    seed: int = 0
    model_kind: str = "base"
    gradient_clip_norm: float | None = 5.0

    def validate(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigurationError("learning_rate must be finite and positive")
        require_counts(self, ("batch_size",))
        require_counts(self, ("epochs",), minimum=0)
        if self.model_kind not in MODEL_KINDS:
            raise ConfigurationError(
                f"model_kind must be one of {MODEL_KINDS}, got {self.model_kind!r}"
            )
        if self.gradient_clip_norm is not None and not self.gradient_clip_norm > 0:
            raise ConfigurationError("gradient_clip_norm must be positive or none")


# A 2-D parameter is updated row by row while fewer than this share of its
# rows are live; past it, fancy indexing costs more than the dense update.
SPARSE_MAX_LIVE_SHARE = 0.5
# The dense update runs over blocks of rows of at most this many bytes per
# array, so that its passes over a block stay in cache: the six arrays one
# block touches fit a 2 MB L2.
ADAM_BLOCK_BYTES = 256 << 10


class AdaptiveMomentState:
    """First/second moment accumulators, one pair per parameter.

    For a 2-D parameter, `live[i]` is the sorted array of the rows that
    have ever had a nonzero gradient, and `first[i]`, `second[i]` are
    compact `(len(live[i]), d)` blocks whose row j belongs to row
    `live[i][j]`; every other row's moments are zero.  Once more than
    SPARSE_MAX_LIVE_SHARE of the rows are live, the full moments are
    allocated once and `live[i]` becomes None for good.  1-D parameters
    start dense.  `moments` builds the full arrays from either form."""

    def __init__(self, params: list[Parameter]):
        self.step_count = 0
        self.shapes = [p.data.shape for p in params]
        self.live = [
            np.empty(0, dtype=np.intp) if len(shape) == 2 else None
            for shape in self.shapes
        ]
        self.first = [
            np.zeros(shape if live is None else (0,) + shape[1:])
            for shape, live in zip(self.shapes, self.live)
        ]
        self.second = [np.zeros(m.shape) for m in self.first]

    def moments(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """The moments of parameter i as new full arrays."""
        live = self.live[i]
        if live is None:
            return self.first[i].copy(), self.second[i].copy()
        n = self.shapes[i][0]
        return spread_rows(self.first[i], live, n), spread_rows(self.second[i], live, n)


def _live_rows(state: AdaptiveMomentState, i: int, p: Parameter) -> np.ndarray | None:
    """Rows of parameter i, `p`, the step must update, or None for all of them.

    A row whose moments and gradient are all zero is left bitwise unchanged
    by the update (the moments stay 0 and the weight loses +0.0), so the
    rows that never had a nonzero gradient can be skipped exactly.  New
    nonzero rows are looked for only among the rows `p.grad` stores (the
    rows `p.grad_rows` records, or every row), so a batch's cost follows
    the rows it read; a recorded row whose gradient is zero does not become
    live.  The padding id is recorded only when a post contains it, so its
    row stays out of the live set when it only pads.  The compact moments
    grow with zero rows for the new live rows, or become the full arrays."""
    live = state.live[i]
    if live is None:
        return None
    nonzero = p.grad.any(axis=1)
    merged = merge_rows(
        live, np.flatnonzero(nonzero) if p.grad_rows is None else p.grad_rows[nonzero]
    )
    if len(merged) == len(live):
        return live
    # live rows never die, so once dense the update stays dense
    dense = len(merged) > SPARSE_MAX_LIVE_SHARE * len(p.data)
    at, n = (live, len(p.data)) if dense else (np.searchsorted(merged, live), len(merged))
    state.first[i] = spread_rows(state.first[i], at, n)
    state.second[i] = spread_rows(state.second[i], at, n)
    state.live[i] = None if dense else merged
    return state.live[i]


def _moment_update(p, m, v, g, lr, c1, c2):
    """The bias-corrected update of arrays `p`, `m`, `v` in place.

    Elementwise only, in the operation order of the textbook form
    `p -= lr * m_hat / (sqrt(v_hat) + eps)`, so a row subset rounds exactly
    as the whole array; the two work arrays replace its temporaries."""
    a = np.multiply(g, 1.0 - ADAM_BETA1)
    m *= ADAM_BETA1
    m += a
    np.multiply(g, 1.0 - ADAM_BETA2, out=a)
    a *= g
    v *= ADAM_BETA2
    v += a
    np.divide(m, c1, out=a)
    a *= lr
    b = np.divide(v, c2)
    np.sqrt(b, out=b)
    b += ADAM_EPSILON
    a /= b
    p -= a


def _blocked_update(p, rows, m, v, lr, c1, c2):
    """`_moment_update` of the rows `rows` of `p` (every row when None),
    whose moments `m`, `v` hold one row per row updated, over blocks of at
    most ADAM_BLOCK_BYTES per array (at least one row); the update is
    elementwise, so the result is bitwise that of one call over the whole
    arrays.  With a row record, each block's gradient is built from the
    recorded rows that fall in it, and no full gradient is made."""
    n = len(m)
    if not n:
        return
    step = max(1, ADAM_BLOCK_BYTES * n // m.nbytes)  # rows per block
    recorded, values = p.grad_rows, p.grad
    if recorded is None and rows is None and n <= step:
        _moment_update(p.data, m, v, values, lr, c1, c2)
        return
    if recorded is not None:
        if rows is not None:
            # positions in `m`; the recorded rows that are not live hold zeros
            at = np.searchsorted(rows, recorded)
            keep = rows[np.minimum(at, n - 1)] == recorded
            recorded, values = at[keep], values[keep]
        bounds = np.searchsorted(recorded, range(0, n + step, step)).tolist()
        work = np.empty((min(step, n),) + m.shape[1:])
    for k, start in enumerate(range(0, n, step)):
        end = min(start + step, n)
        if recorded is None:
            g = values[start:end] if rows is None else values[rows[start:end]]
        else:
            lo, hi = bounds[k], bounds[k + 1]
            g = work[: end - start]
            g[...] = 0.0
            g[recorded[lo:hi] - start] = values[lo:hi]
        if rows is None:
            _moment_update(p.data[start:end], m[start:end], v[start:end], g, lr, c1, c2)
        else:
            block = p.data[rows[start:end]]
            _moment_update(block, m[start:end], v[start:end], g, lr, c1, c2)
            p.data[rows[start:end]] = block


def adaptive_moment_step(
    params: list[Parameter],
    state: AdaptiveMomentState,
    learning_rate: float,
) -> None:
    """One bias-corrected adaptive moment update, in place."""
    if len(params) != len(state.first):
        raise UsageError("optimizer state does not match parameter list")
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - ADAM_BETA1**t
    c2 = 1.0 - ADAM_BETA2**t
    for i, p in enumerate(params):
        rows = _live_rows(state, i, p)
        _blocked_update(p, rows, state.first[i], state.second[i], learning_rate, c1, c2)


def _row_square_sums(p: Parameter) -> list[float]:
    """The sum of squares of each row `p.grad` stores (the rows
    `p.grad_rows` records, or every row); a 1-D gradient is one row.  A
    row's sum does not depend on which other rows are summed."""
    g = p.grad
    g = g.reshape(1, -1) if g.ndim < 2 else g.reshape(len(g), math.prod(g.shape[1:]))
    return (g * g).sum(axis=1).tolist()


def clip_gradient_norm(params: list[Parameter], max_norm: float | None) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm;
    with max_norm None, measure the norm and scale nothing.

    The squared norm is the correctly rounded sum (`math.fsum`) of every
    parameter's per-row sums of squares.  A zero row adds an exact zero and
    the sum does not depend on its order, so the norm depends only on the
    gradient values: measuring and scaling only the rows a compact
    gradient stores gives the bits of the whole arrays.

    Returns the pre-clip norm. Raises NonFiniteError, naming the
    parameter, when a gradient holds NaN or Inf (scaling by a non-finite
    norm would turn it into NaN).
    """
    with np.errstate(over="ignore"):  # a finite square may overflow to inf
        sums = [s for p in params for s in _row_square_sums(p)]
    try:
        norm = math.sqrt(math.fsum(sums))
    except OverflowError:  # finite row sums whose total overflows
        norm = math.inf
    if not math.isfinite(norm):
        for p in params:
            _check_finite(p.grad, f"the gradient of {p.name}")
    if max_norm is not None and norm > max_norm:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm


@dataclass
class EpochRecord:
    epoch: int
    loss: float
    parts: dict[str, float] = field(default_factory=dict)


@dataclass
class TrainResult:
    loss_trace: list[EpochRecord]
    n_steps: int


def _stack(examples: list[LabeledExample]):
    ids = np.stack([ex.token_ids for ex in examples])
    lengths = np.array([ex.true_length for ex in examples], dtype=np.int64)
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return ids, lengths, labels


def train(
    model: BaseClassifier,
    examples: list[LabeledExample],
    cfg: TrainConfig,
) -> TrainResult:
    cfg.validate()
    if cfg.model_kind != model.kind:
        raise ConfigurationError(
            f"model_kind {cfg.model_kind!r} does not match the {model.kind!r} model"
        )
    if not examples:
        raise DataError("training split is empty")
    labels_present = {ex.label for ex in examples}
    if labels_present != {0, 1}:
        raise DataError(
            f"training split must contain both classes, found labels {sorted(labels_present)}"
        )

    ids, lengths, labels = _stack(examples)
    params = model.parameters()
    state = AdaptiveMomentState(params)
    root = RngStream(cfg.seed)
    n = len(examples)

    trace: list[EpochRecord] = []
    global_step = 0
    for epoch in range(cfg.epochs):
        order = root.child("shuffle", epoch).generator().permutation(n)
        batch_losses: list[float] = []
        part_sums: dict[str, float] = {}
        for start in range(0, n, cfg.batch_size):
            pick = order[start : start + cfg.batch_size]
            step_rng = root.child("step", global_step)
            try:
                loss, parts = model.batch_loss_parts(
                    ids[pick], lengths[pick], labels[pick], rng=step_rng
                )
                loss_value = loss.item()
                if not math.isfinite(loss_value):
                    raise NonFiniteError("loss is not finite")
                for p in params:
                    p.zero_grad()
                backward(loss)
                # a NaN or Inf gradient must not reach the weights; the
                # norm finds one
                clip_gradient_norm(params, cfg.gradient_clip_norm)
            except NonFiniteError as exc:
                raise DivergenceError(
                    f"training diverged at epoch {epoch}, step {global_step}: {exc}"
                ) from exc
            adaptive_moment_step(params, state, cfg.learning_rate)
            batch_losses.append(loss_value)
            for k, v in parts.items():
                part_sums[k] = part_sums.get(k, 0.0) + v
            global_step += 1
        n_batches = len(batch_losses)
        trace.append(
            EpochRecord(
                epoch=epoch,
                loss=sum(batch_losses) / n_batches,
                parts={k: s / n_batches for k, s in part_sums.items()},
            )
        )
    return TrainResult(loss_trace=trace, n_steps=global_step)


def build_model(
    hp: HyperParams,
    embedding_matrix: np.ndarray,
    model_kind: str,
    seed: int,
    mcd_cfg: McdConfig | None = None,
    vi_cfg: ViConfig | None = None,
) -> BaseClassifier:
    """Construct a classifier of the requested kind.

    Equal seeds give bitwise-equal shared parameters across kinds, which
    is what makes paired model comparisons meaningful.
    """
    rng = RngStream(seed)
    if model_kind == "base":
        return BaseClassifier(hp, embedding_matrix, rng)
    if model_kind == "mcd":
        return McdClassifier(hp, embedding_matrix, rng, mcd_cfg)
    if model_kind == "vi":
        return ViClassifier(hp, embedding_matrix, rng, vi_cfg)
    raise ConfigurationError(f"unknown model kind {model_kind!r}")


def evaluate(
    model: BaseClassifier,
    examples: list[LabeledExample],
    rng: RngStream | None = None,
) -> MetricsReport:
    """Score a test split: deterministic pass for the base model,
    sampled predictive distributions for the Bayesian variants."""
    if not examples:
        raise UsageError("test split is empty")
    ids, lengths, labels = _stack(examples)
    dists = model.predict_batch(ids, lengths, rng)
    predictions = [d.predicted_label for d in dists]
    entropies = [d.entropy for d in dists]
    return build_report(labels, predictions, entropies)


def train_accuracy(model: BaseClassifier, examples: list[LabeledExample]) -> float:
    """Fraction of examples the deterministic forward labels correctly."""
    if not examples:
        raise UsageError("no examples")
    ids, lengths, labels = _stack(examples)
    logits = model.infer_logits(ids, lengths)
    predictions = np.argmax(logits, axis=1)  # a tie scores as label 0
    return float(np.mean(predictions == labels))
