"""Evaluation metrics for binary urgency classification plus the exact
Wilcoxon signed-rank test used to compare model variants across runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientDataError, ShapeError, UsageError

# the task is binary: 0 = not urgent, 1 = urgent
NUM_CLASSES = 2


def predictive_entropy(probs):
    """Shannon entropy -sum(p * ln p) of a probability vector, nats; per row of a 2-D array.

    The 0 * ln 0 = 0 convention makes one-hot vectors score exactly 0."""
    p = np.asarray(probs, dtype=np.float64)
    if (p < 0).any():
        raise DomainError("probabilities must be non-negative")
    total = p.sum(axis=-1)
    if (np.abs(total - 1.0) > 1e-6).any():
        raise DomainError(f"probabilities must sum to 1, got {total}")
    h = _entropy(p)
    return float(h) if h.ndim == 0 else h


def _entropy(p):
    """`predictive_entropy` of a float64 array of valid probability
    vectors, unchecked: an array of one entropy per vector."""
    positive = np.where(p > 0, p, 1.0)    # 1 * ln 1 = 0 stands in for the rest
    h = -(positive * np.log(positive)).sum(axis=-1)
    return np.where(h > 0.0, h, 0.0)


def confusion_matrix(y_true, y_pred):
    """counts[i][j] = number of examples with true label i predicted as j."""
    y_true = np.asarray(y_true, dtype=np.intp)
    y_pred = np.asarray(y_pred, dtype=np.intp)
    if y_true.shape != y_pred.shape:
        raise ShapeError(f"label arrays differ in shape: {y_true.shape} vs {y_pred.shape}")
    for arr, what in ((y_true, "true"), (y_pred, "predicted")):
        if arr.size and (arr.min() < 0 or arr.max() >= NUM_CLASSES):
            raise DomainError(f"{what} label out of range for {NUM_CLASSES} classes")
    counts = np.zeros((NUM_CLASSES, NUM_CLASSES), dtype=np.int64)
    np.add.at(counts, (y_true, y_pred), 1)
    return counts


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class MetricsReport:
    accuracy: float
    mean_entropy: float
    per_class: dict
    confusion: list
    n_test: int

    def to_dict(self):
        """Stable field order: accuracy, entropy, then per-class blocks."""
        out = {
            "accuracy": self.accuracy,
            "mean_entropy": self.mean_entropy,
        }
        for label in sorted(self.per_class):
            cm = self.per_class[label]
            out[f"class_{label}"] = {
                "precision": cm.precision,
                "recall": cm.recall,
                "f1": cm.f1,
            }
        out["confusion"] = self.confusion
        out["n_test"] = self.n_test
        return out


def per_class_metrics(counts, label):
    """Precision/recall/F1 for one class; zero denominators yield 0."""
    tp = int(counts[label, label])
    predicted = int(counts[:, label].sum())
    actual = int(counts[label, :].sum())
    precision = tp / predicted if predicted else 0.0
    recall = tp / actual if actual else 0.0
    pr = precision + recall
    f1 = 2.0 * precision * recall / pr if pr > 0 else 0.0
    return ClassMetrics(precision, recall, f1)


def build_report(y_true, y_pred, entropies):
    """Assemble a MetricsReport from labels, predictions, and per-example
    predictive entropies."""
    y_true = np.asarray(y_true, dtype=np.intp)
    if y_true.size == 0:
        raise UsageError("cannot evaluate on an empty test set")
    entropies = np.asarray(entropies, dtype=np.float64)
    if entropies.shape[0] != y_true.shape[0]:
        raise ShapeError("one entropy value per example required")
    counts = confusion_matrix(y_true, y_pred)
    accuracy = float(np.trace(counts) / counts.sum())
    per_class = {label: per_class_metrics(counts, label) for label in range(counts.shape[0])}
    return MetricsReport(
        accuracy=accuracy,
        mean_entropy=float(entropies.mean()),
        per_class=per_class,
        confusion=counts.tolist(),
        n_test=int(y_true.size),
    )


# -- Wilcoxon signed-rank -------------------------------------------------

@dataclass
class WilcoxonResult:
    statistic: float          # W+, sum of ranks of positive differences
    n: int                    # differences remaining after zero removal
    p_value: float            # for the requested alternative
    alternative: str
    p_greater: float          # P(W+ >= observed) under the null
    p_less: float             # P(W+ <= observed) under the null
    p_two_sided: float


def _doubled_average_ranks(magnitudes):
    """Ranks of |d| with ties averaged, times 2 so every rank is an exact
    integer (the average of a run of consecutive integers is a half-integer)."""
    order = np.argsort(magnitudes, kind="stable")
    ranks2 = [0] * len(magnitudes)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and magnitudes[order[j + 1]] == magnitudes[order[i]]:
            j += 1
        # positions i..j (0-based) share ranks i+1..j+1; doubled average = (i+1)+(j+1)
        doubled = (i + 1) + (j + 1)
        for k in range(i, j + 1):
            ranks2[order[k]] = doubled
        i = j + 1
    return ranks2


def _signed_rank_counts(doubled_ranks):
    """Count sign assignments by doubled W+ via subset-sum convolution.

    Equivalent to enumerating all 2^n sign vectors: each rank is either in
    the positive set or not.  Counts are exact Python integers."""
    ways = {0: 1}
    for r in doubled_ranks:
        nxt = {}
        for w, c in ways.items():
            nxt[w] = nxt.get(w, 0) + c
            nxt[w + r] = nxt.get(w + r, 0) + c
        ways = nxt
    return ways


def signed_rank_null_distribution(n):
    """Exact null distribution of W+ for n untied ranks 1..n.

    Returns (values, probabilities) with values in half-rank units."""
    if n < 1:
        raise UsageError("need at least one rank")
    counts = _signed_rank_counts([2 * r for r in range(1, n + 1)])
    total = 2 ** n
    values = sorted(counts)
    probs = [counts[v] / total for v in values]
    return [v / 2.0 for v in values], probs


def wilcoxon_signed_rank(a, b, alternative="two_sided"):
    """Exact paired signed-rank test of a vs b.

    Zero differences are discarded; ties in |difference| receive averaged
    ranks; the null distribution is computed exactly over all 2^n sign
    assignments, so p-values are exact rational numbers."""
    if alternative not in ("two_sided", "greater", "less"):
        raise UsageError(f"unknown alternative {alternative!r}")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ShapeError("wilcoxon_signed_rank expects two 1-d arrays of equal length")
    diffs = a - b
    diffs = diffs[diffs != 0.0]
    n = diffs.size
    if n < 5:
        raise InsufficientDataError(
            f"only {n} nonzero difference(s); need at least 5 for a meaningful test"
        )
    ranks2 = _doubled_average_ranks(np.abs(diffs))
    w2_plus = sum(r for r, d in zip(ranks2, diffs) if d > 0)
    counts = _signed_rank_counts(ranks2)
    total = 2 ** n
    greater = sum(c for w, c in counts.items() if w >= w2_plus)
    less = sum(c for w, c in counts.items() if w <= w2_plus)
    p_greater = greater / total
    p_less = less / total
    p_two = min(1.0, 2.0 * min(p_greater, p_less))
    p_value = {"two_sided": p_two, "greater": p_greater, "less": p_less}[alternative]
    return WilcoxonResult(
        statistic=w2_plus / 2.0,
        n=n,
        p_value=p_value,
        alternative=alternative,
        p_greater=p_greater,
        p_less=p_less,
        p_two_sided=p_two,
    )


def mean_and_variance(values):
    """Mean and population variance (the spread measure reported per metric
    across experiment runs)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        raise UsageError("need at least one value")
    mean = float(arr.mean())
    variance = float(((arr - mean) ** 2).mean())
    return mean, variance
