"""Reverse-mode automatic differentiation over dense float arrays.

A small tape-based engine: every operation returns a `Tensor` built by
`_node`, which records the parent tensors and a closure computing the
parents' adjoints only while recording (outside `no_grad`, with some
parent requiring a gradient); otherwise the output keeps neither, nor any
array the closure saved.  Calling `backward` on a scalar walks the
recorded graph in reverse topological order and accumulates gradients
into every reachable `Parameter`.

Recorded ops, and so every gradient, are float64.  An op that is not
recorded computes in the dtype of the arrays it is given, float64 or
float32 (prediction serves float32 `Constant` copies of the parameters);
other data becomes float64.  NaN/Inf are rejected at op boundaries.
Randomness is funnelled through `RngStream`, a splittable stream keyed by
(seed, path) so that dropout masks and noise draws are reproducible
regardless of execution order.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError,
    NonFiniteError,
    ShapeError,
    UsageError,
)

_grad_enabled = True
_F64, _F32 = np.dtype(np.float64), np.dtype(np.float32)


@contextmanager
def no_grad():
    """Disable graph recording inside the block (pure inference)."""
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def _check_finite(data, what):
    # A full-array sum is NaN/Inf iff some element is (finite sums cannot
    # overflow at the magnitudes this engine sees); the isfinite rescan
    # guards the pathological all-finite-but-overflowing case.
    if not math.isfinite(data.sum()):
        if bool(np.isfinite(data).all()):
            return
        raise NonFiniteError(f"non-finite values in {what}")


class Tensor:
    """Dense float array plus the bookkeeping for reverse accumulation: float64,
    or float32 when given float32 data and no gradient is required."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype is not _F64 and (arr.dtype is not _F32 or requires_grad):
            arr = arr.astype(np.float64)
        _check_finite(arr, "tensor data")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        if self.data.size != 1:
            raise UsageError("item() requires a single-element tensor")
        return float(self.data.reshape(-1)[0])

    def numpy(self):
        return np.array(self.data)

    def backward(self):
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            def bwd(g):
                _accumulate(self, g)
                _accumulate(other, g)
            return _node(self.data + other.data, (self, other), bwd)
        return _node(self.data + other, (self,), lambda g: _accumulate(self, g))

    __radd__ = __add__

    def __neg__(self):
        return _node(-self.data, (self,), lambda g: _accumulate(self, -g))

    def __sub__(self, other):
        if isinstance(other, Tensor):
            def bwd(g):
                _accumulate(self, g)
                _accumulate(other, -g)
            return _node(self.data - other.data, (self, other), bwd)
        return _node(self.data - other, (self,), lambda g: _accumulate(self, g))

    def __rsub__(self, other):
        return _node(other - self.data, (self,), lambda g: _accumulate(self, -g))

    def __mul__(self, other):
        if isinstance(other, Tensor):
            def bwd(g):
                _accumulate(self, g * other.data)
                _accumulate(other, g * self.data)
            return _node(self.data * other.data, (self, other), bwd)
        return _node(self.data * other, (self,), lambda g: _accumulate(self, g * other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            def bwd(g):
                _accumulate(self, g / other.data)
                _accumulate(other, -g * self.data / (other.data * other.data))
            return _node(self.data / other.data, (self, other), bwd)
        return self * (1.0 / other)

    def __rtruediv__(self, other):
        return _node(
            other / self.data, (self,),
            lambda g: _accumulate(self, -g * other / (self.data * self.data)),
        )

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        def bwd(g):
            full = np.zeros_like(self.data)
            # add.at, not assignment: repeated indices must accumulate
            np.add.at(full, key, g)
            _accumulate(self, full)
        return _node(self.data[key], (self,), bwd)

    def sum(self, axis=None, keepdims=False):
        def bwd(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            _accumulate(self, np.broadcast_to(g, self.data.shape))
        return _node(self.data.sum(axis=axis, keepdims=keepdims), (self,), bwd)

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)


def merge_rows(rows, more):
    """The sorted distinct union of `rows`, sorted and distinct, and `more`,
    indices along the first axis in any order that may repeat."""
    # np.union1d would do, but its first call adds 1.5 MB to the peak
    # resident set (NumPy 2.4)
    merged = np.concatenate((rows, more))
    merged.sort()
    return merged[np.diff(merged, prepend=-1) != 0]


def spread_rows(block, at, n):
    """A new array of `n` rows, zero but for row `at[j]`, which is `block[j]`."""
    out = np.zeros((n,) + block.shape[1:])
    out[at] = block
    return out


class Parameter(Tensor):
    """A named trainable tensor, whose gradient is kept in one of two forms.

    With a row record, `grad_rows` (a sorted array of distinct indices
    along the first axis), `grad` is the compact `(len(grad_rows),) +
    shape[1:]` block: its row i is the gradient of row `grad_rows[i]`, and
    every other row is zero.  Without one (`grad_rows` None), `grad` is the
    full array.  A new parameter, like one after `zero_grad`, has an empty
    record and no rows, so a table whose gradient is never written holds
    none.  Two writers keep the form: `add_rows`, the sparse write, merges
    distinct rows into the block in sorted order and adds to the rows
    already there (the backward of `gather_rows` adds repeated rows through
    the same merge); `_accumulate`, a dense write, turns a recorded
    gradient into the full array.  A weight written densely every step
    reuses one full buffer: `zero_grad` keeps it for the next dense write.
    The gradient norm, clipping and the optimizer read `grad` directly, so
    an embedding's gradient costs what the ids a batch reads cost, not the
    size of the table; the encoder reads ids at valid positions only, so
    the padding id is recorded only when a post contains it.  `dense_grad`
    builds the full array from either form."""

    __slots__ = ("name", "grad_rows", "_spare")

    def __init__(self, data, name):
        super().__init__(data, requires_grad=True)
        self.data = np.ascontiguousarray(self.data)
        self.name = name
        self.grad_rows = None
        self._spare = None
        self.zero_grad()

    def zero_grad(self):
        """Leaves an empty record and no rows; a full gradient's buffer is
        kept for the next dense write."""
        if self.grad_rows is None:
            self._spare = self.grad
        self.grad = np.empty((0,) + self.data.shape[1:])
        self.grad_rows = np.empty(0, dtype=np.intp)

    def add_rows(self, rows, values):
        """grad[rows] += values for distinct `rows`."""
        at = self._grad_positions(rows)  # may replace the block
        self.grad[at] += values

    def dense_grad(self):
        """The gradient as a new full array."""
        if self.grad_rows is None:
            return self.grad.copy()
        return spread_rows(self.grad, self.grad_rows, len(self.data))

    def _grad_positions(self, rows):
        """The positions in `grad` of `rows`, indices along the first axis
        that may repeat.  With a record, the rows it lacks first join it,
        and the block, as zero rows in sorted order."""
        if self.grad_rows is None:
            return rows
        merged = merge_rows(self.grad_rows, rows)
        if len(merged) > len(self.grad_rows):
            at = np.searchsorted(merged, self.grad_rows)
            self.grad, self.grad_rows = spread_rows(self.grad, at, len(merged)), merged
        return np.searchsorted(self.grad_rows, rows)

    def _add_dense(self, g):
        """grad += g over every row.  A recorded gradient first becomes the
        full array, with the bytes of a zero-filled one added to."""
        if self.grad_rows is None:
            self.grad += g
            return
        full = self._spare if self._spare is not None else np.empty(self.data.shape)
        self._spare = None
        if len(self.grad_rows):
            full[...] = 0.0
            full[self.grad_rows] = self.grad
            full += g
        else:
            np.add(g, 0.0, out=full)  # 0.0 + g, in one pass
        self.grad, self.grad_rows = full, None

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Constant(Tensor):
    """A named tensor that never takes a gradient, over an array used as
    given: no conversion, copy or finiteness scan.  Prediction serves a
    float32 `Constant` of each parameter (`BaseClassifier.serving_copy`)."""

    __slots__ = ("name",)

    def __init__(self, data, name):
        self.data = data
        self.grad = None
        self.requires_grad = False
        self._parents = ()
        self._backward = None
        self.name = name


def is_recording(parents):
    """Whether an op over `parents` is recorded, i.e. a gradient can flow
    back through it.  `_node` decides by it; an op that allocates arrays
    only its backward reads (`encoder.lstm_layer`) consults it first."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def _node(data, parents, backward=None):
    """Build an op output.  The graph links and the `backward` closure (and
    with it every array the closure saves) are kept only while recording,
    i.e. when a gradient can flow back to some parent."""
    node = Tensor.__new__(Tensor)
    if not isinstance(data, np.ndarray):
        data = np.asarray(data)
    if data.dtype is not _F64 and data.dtype is not _F32:
        data = data.astype(np.float64)
    _check_finite(data, "operation output")
    node.data = data
    node.grad = None
    if is_recording(parents):
        node.requires_grad = True
        node._parents = parents
        node._backward = backward
    else:
        node.requires_grad = False
        node._parents = ()
        node._backward = None
    return node


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, n in enumerate(shape):
        if n == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def _accumulate(t, g):
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    if isinstance(t, Parameter):
        t._add_dense(g)
        return
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def backward(loss):
    """Accumulate d(loss)/d(parameter) into every reachable parameter.

    `loss` must be a scalar recorded on the live graph; parameters the loss
    does not depend on keep whatever gradient they already hold (zero after
    `zero_grad`).
    """
    if not isinstance(loss, Tensor):
        raise UsageError("backward expects a Tensor")
    if loss.data.size != 1:
        raise UsageError("backward requires a scalar loss")
    order = _topological_order(loss)
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def _topological_order(root):
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


# -- random streams ------------------------------------------------------

_MASK64 = (1 << 64) - 1


def _tag(value):
    if isinstance(value, str):
        digest = hashlib.blake2s(value.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big")
    return int(value) & _MASK64


class RngStream:
    """Splittable deterministic random stream.

    A stream is identified by (seed, key path); the same identity always
    yields the same draw sequence and distinct identities yield
    independent sequences.  `child` derives sub-streams, so consumers can
    index masks and noise by logical position (e.g. sample index, layer
    index) instead of execution order.
    """

    __slots__ = ("seed", "key")

    def __init__(self, seed, key=()):
        self.seed = int(seed)
        self.key = tuple(_tag(k) for k in key)

    def child(self, *ids):
        derived = RngStream.__new__(RngStream)
        derived.seed = self.seed
        derived.key = self.key + tuple(_tag(k) for k in ids)
        return derived

    def generator(self):
        """Fresh numpy Generator for this stream identity."""
        return np.random.default_rng((self.seed & _MASK64,) + self.key)

    def __repr__(self):
        return f"RngStream(seed={self.seed}, key={self.key})"


def derive_seed(root, *key):
    """An integer seed in [0, 2**63) for a subsystem, drawn from (root, key)."""
    return int(RngStream(root).child(*key).generator().integers(0, 2**63))


# -- operations ----------------------------------------------------------

def affine(x, weight, bias):
    """x @ weight + bias, with bias broadcast over rows."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or bias.data.ndim != 1:
        raise ShapeError("affine expects x (n,a), weight (a,b), bias (b,)")
    if x.data.shape[1] != weight.data.shape[0] or bias.data.shape[0] != weight.data.shape[1]:
        raise ShapeError(
            f"affine shapes do not agree: x {x.data.shape}, "
            f"weight {weight.data.shape}, bias {bias.data.shape}"
        )
    def bwd(g):
        _accumulate(x, g @ weight.data.T)
        _accumulate(weight, x.data.T @ g)
        _accumulate(bias, g.sum(axis=0))
    return _node(x.data @ weight.data + bias.data, (x, weight, bias), bwd)


def matmul(a, b):
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError("matmul expects 2-d operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul shapes do not agree: {a.data.shape} @ {b.data.shape}")
    def bwd(g):
        _accumulate(a, g @ b.data.T)
        _accumulate(b, a.data.T @ g)
    return _node(a.data @ b.data, (a, b), bwd)


def transpose(x):
    if x.data.ndim != 2:
        raise ShapeError("transpose expects a 2-d tensor")
    return _node(x.data.T.copy(), (x,), lambda g: _accumulate(x, g.T))


def _logistic_passes(z, out):
    """`logistic`'s four passes, without its guard on the overflow
    warning: a caller that runs them many times sets that once."""
    np.negative(z, out=out)
    np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def logistic(z, out=None):
    """Elementwise 1 / (1 + e^-z) of a float array, in four in-place
    passes (negate, exp, add one, reciprocal) over `out`, which may be `z`
    itself; a new array when omitted.  Where e^-z overflows, z below about
    -709.78 (-88.72 in float32), the result is 0.0, within 5.6e-309
    (2.9e-39) of the exact value, and no warning is raised.  Against a
    long-double evaluation on a dense grid over [-709, 745] its largest
    relative error in float64 is 1.17 machine epsilons (2.15 ulp), and that
    of the two-branch form used before 1.42 (2.28)."""
    if out is None:
        out = np.empty_like(z, dtype=_F32 if z.dtype is _F32 else _F64)
    with np.errstate(over="ignore"):
        return _logistic_passes(z, out)


def sigmoid(x):
    y = logistic(x.data)
    return _node(y, (x,), lambda g: _accumulate(x, g * y * (1.0 - y)))


def tanh_op(x):
    y = np.tanh(x.data)
    return _node(y, (x,), lambda g: _accumulate(x, g * (1.0 - y * y)))


def exp(x):
    with np.errstate(over="ignore"):
        y = np.exp(x.data)
    return _node(y, (x,), lambda g: _accumulate(x, g * y))


def log(x):
    if (x.data <= 0).any():
        raise DomainError("log requires strictly positive input")
    return _node(np.log(x.data), (x,), lambda g: _accumulate(x, g / x.data))


def clip(x, lo, hi):
    """Clamp values to [lo, hi]; gradient passes only where unclamped."""
    inside = (x.data >= lo) & (x.data <= hi)
    return _node(np.clip(x.data, lo, hi), (x,), lambda g: _accumulate(x, g * inside))


def softmax_stable(x, axis=-1):
    """exp(x - max) / sum along `axis`; rows sum to 1 and never overflow."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    def bwd(g):
        inner = (g * y).sum(axis=axis, keepdims=True)
        _accumulate(x, y * (g - inner))
    return _node(y, (x,), bwd)


def concat(parts, axis=0):
    parts = list(parts)
    if not parts:
        raise ShapeError("concat requires at least one part")
    ref = parts[0].data.shape
    for p in parts[1:]:
        s = p.data.shape
        if len(s) != len(ref) or any(
            s[i] != ref[i] for i in range(len(ref)) if i != axis % len(ref)
        ):
            raise ShapeError(f"concat dimension mismatch: {ref} vs {s}")
    def bwd(g):
        offset = 0
        for p in parts:
            n = p.data.shape[axis]
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + n)
            _accumulate(p, g[tuple(index)])
            offset += n
    return _node(np.concatenate([p.data for p in parts], axis=axis), (*parts,), bwd)


def gather_rows(table, ids):
    """Select rows of a (V, d) table by an id array of any shape; the output
    has shape ids.shape + (d,).  Adjoints scatter-add straight into the
    table's gradient buffer, touching only the selected rows, so a row used
    twice receives twice the gradient; a `Parameter` table adds them to its
    row record, so its gradient stays compact."""
    ids = np.asarray(ids, dtype=np.intp)
    if table.data.ndim != 2:
        raise ShapeError("gather_rows expects a 2-d table")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise DomainError("row id out of range")
    def bwd(g):
        rows = ids.reshape(-1)
        if isinstance(table, Parameter):
            rows = table._grad_positions(rows)
        elif table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, rows, g.reshape(-1, table.data.shape[1]))
    return _node(table.data[ids], (table,), bwd)


def cross_entropy_from_logits(logits, labels):
    """Mean negative log-softmax probability of the true class.

    Computed through log-sum-exp, never by exponentiating and re-logging,
    so confident logits stay exact."""
    if logits.data.ndim != 2:
        raise ShapeError("cross_entropy_from_logits expects (n, k) logits")
    labels = np.asarray(labels, dtype=np.intp)
    n, k = logits.data.shape
    if labels.shape != (n,):
        raise ShapeError(f"expected {n} labels, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise DomainError("label out of range")
    m = logits.data.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits.data - m).sum(axis=1))
    losses = lse - logits.data[np.arange(n), labels]
    def bwd(g):
        probs = np.exp(logits.data - m)
        probs /= probs.sum(axis=1, keepdims=True)
        probs[np.arange(n), labels] -= 1.0
        _accumulate(logits, (float(g) / n) * probs)
    return _node(losses.mean(), (logits,), bwd)


# -- gradient verification ------------------------------------------------

@dataclass
class GradCheckFailure:
    param: str
    index: int
    analytic: float
    numeric: float
    rel_error: float


@dataclass
class GradCheckReport:
    n_checked: int = 0
    max_rel_error: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def passed(self):
        return not self.failures

    def summary(self):
        status = "pass" if self.passed else f"FAIL ({len(self.failures)} coords)"
        return f"{status}: {self.n_checked} coords, max rel err {self.max_rel_error:.3e}"


def grad_check(f, params, epsilon=1e-5, tolerance=1e-4):
    """Compare analytic gradients of `f` against central finite differences.

    `f` is a zero-argument callable returning a scalar Tensor; it must be
    deterministic (freeze any RngStream it consumes).  Each parameter
    coordinate is perturbed by ±epsilon and the relative error
    |a - n| / max(|a|, |n|, 1e-8) is required to stay within `tolerance`.
    """
    report = GradCheckReport()
    for p in params:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = [p.dense_grad().reshape(-1) for p in params]
    with no_grad():
        for p, a in zip(params, analytic):
            flat = p.data.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + epsilon
                f_plus = f().item()
                flat[i] = original - epsilon
                f_minus = f().item()
                flat[i] = original
                numeric = (f_plus - f_minus) / (2.0 * epsilon)
                rel = abs(a[i] - numeric) / max(abs(a[i]), abs(numeric), 1e-8)
                report.n_checked += 1
                if rel > report.max_rel_error:
                    report.max_rel_error = rel
                if rel > tolerance:
                    report.failures.append(
                        GradCheckFailure(p.name, i, float(a[i]), numeric, rel)
                    )
    return report
