"""Multi-run experiment protocols and paired model comparisons.

Two protocols: "80_20" reports the best run by accuracy, "40_60"
reports mean and spread over runs. Within a run every model kind sees
the identical train/test partition, so paired tests across kinds are
meaningful. Summaries contain no timestamps or paths: the same seed
yields byte-identical JSON.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .autodiff import RngStream, derive_seed
from .corpus import LabeledExample, stratified_split
from .encoder import MODEL_KINDS, HyperParams, require_counts
from .errors import ConfigurationError, InsufficientDataError
from .mcd import McdConfig
from .metrics import (
    MetricsReport,
    mean_and_variance,
    wilcoxon_signed_rank,
)
from .training import TrainConfig, build_model, evaluate, train
from .vi import ViConfig

PROTOCOLS = {"80_20": 0.8, "40_60": 0.4}

# metric keys in report order: accuracy, entropy, then class 0 and
# class 1 precision/recall/f1
METRIC_KEYS = (
    "accuracy",
    "mean_entropy",
    "class_0.precision",
    "class_0.recall",
    "class_0.f1",
    "class_1.precision",
    "class_1.recall",
    "class_1.f1",
)

# metric pairs compared across model kinds with the signed-rank test
COMPARISON_METRICS = ("mean_entropy", "class_1.recall")


def flatten_metrics(report: MetricsReport) -> dict[str, float]:
    flat = {
        "accuracy": report.accuracy,
        "mean_entropy": report.mean_entropy,
    }
    for label in (0, 1):
        cm = report.per_class[label]
        flat[f"class_{label}.precision"] = cm.precision
        flat[f"class_{label}.recall"] = cm.recall
        flat[f"class_{label}.f1"] = cm.f1
    return flat


@dataclass
class ExperimentPlan:
    protocol: str = "40_60"
    n_runs: int = 10
    model_kinds: tuple[str, ...] = ("base", "mcd", "vi")
    seed: int = 0
    hp: HyperParams = field(default_factory=HyperParams)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    mcd_cfg: McdConfig | None = None
    vi_cfg: ViConfig | None = None

    def validate(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"protocol must be one of {sorted(PROTOCOLS)}, got {self.protocol!r}"
            )
        require_counts(self, ("n_runs",))
        # the split seeds NumPy with (seed, run), which must be non-negative
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ConfigurationError(f"seed must be a non-negative integer, got {self.seed!r}")
        if not self.model_kinds:
            raise ConfigurationError("at least one model kind is required")
        for kind in self.model_kinds:
            if kind not in MODEL_KINDS:
                raise ConfigurationError(f"unknown model kind {kind!r}")
        if len(set(self.model_kinds)) != len(self.model_kinds):
            raise ConfigurationError("model kinds must be distinct")
        self.hp.validate()
        self.train_cfg.validate()


@dataclass
class ExperimentSummary:
    plan: ExperimentPlan
    reports: dict[str, list[MetricsReport]]
    comparisons: list[dict]

    def best_run_index(self, kind: str) -> int:
        accs = [r.accuracy for r in self.reports[kind]]
        return int(np.argmax(accs))  # first max wins ties

    def to_dict(self) -> dict:
        models = {}
        for kind in self.plan.model_kinds:
            runs = self.reports[kind]
            flats = [flatten_metrics(r) for r in runs]
            mean, variance, std = {}, {}, {}
            for key in METRIC_KEYS:
                m, v = mean_and_variance([f[key] for f in flats])
                mean[key] = m
                variance[key] = v
                std[key] = float(np.sqrt(v))
            best = self.best_run_index(kind)
            models[kind] = {
                "runs": [r.to_dict() for r in runs],
                "mean": mean,
                "variance": variance,
                "std": std,
                "best_run_index": best,
                "best_run": runs[best].to_dict(),
            }
        if self.plan.protocol == "80_20":
            table = {
                kind: {k: flatten_metrics(self.reports[kind][models[kind]["best_run_index"]])[k]
                       for k in METRIC_KEYS}
                for kind in self.plan.model_kinds
            }
        else:
            table = {
                kind: {
                    k: {
                        "mean": models[kind]["mean"][k],
                        "variance": models[kind]["variance"][k],
                        "std": models[kind]["std"][k],
                    }
                    for k in METRIC_KEYS
                }
                for kind in self.plan.model_kinds
            }
        return {
            "protocol": self.plan.protocol,
            "train_fraction": PROTOCOLS[self.plan.protocol],
            "n_runs": self.plan.n_runs,
            "model_kinds": list(self.plan.model_kinds),
            "seed": self.plan.seed,
            "models": models,
            "table": table,
            "comparisons": self.comparisons,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _compare(reports: dict[str, list[MetricsReport]], kinds) -> list[dict]:
    out = []
    for i, a in enumerate(kinds):
        for b in kinds[i + 1 :]:
            for metric in COMPARISON_METRICS:
                xs = [flatten_metrics(r)[metric] for r in reports[a]]
                ys = [flatten_metrics(r)[metric] for r in reports[b]]
                entry = {"metric": metric, "a": a, "b": b}
                try:
                    res = wilcoxon_signed_rank(xs, ys, alternative="two_sided")
                    entry.update(
                        statistic=res.statistic,
                        n=res.n,
                        p_two_sided=res.p_two_sided,
                        p_greater=res.p_greater,
                        p_less=res.p_less,
                    )
                except InsufficientDataError as exc:
                    entry["skipped"] = str(exc)
                out.append(entry)
    return out


def run_experiment(
    examples: list[LabeledExample],
    embedding_matrix: np.ndarray,
    plan: ExperimentPlan,
) -> ExperimentSummary:
    plan.validate()
    fraction = PROTOCOLS[plan.protocol]
    reports: dict[str, list[MetricsReport]] = {k: [] for k in plan.model_kinds}
    eval_root = RngStream(plan.seed).child("eval")
    for run in range(plan.n_runs):
        # one partition per run, shared by every model kind
        train_split, test_split = stratified_split(
            examples, fraction, (plan.seed, run)
        )
        model_seed = derive_seed(plan.seed, "model", run)
        train_seed = derive_seed(plan.seed, "train", run)
        for kind in plan.model_kinds:
            model = build_model(
                plan.hp, embedding_matrix, kind, model_seed,
                mcd_cfg=plan.mcd_cfg, vi_cfg=plan.vi_cfg,
            )
            cfg = replace(plan.train_cfg, model_kind=kind, seed=train_seed)
            train(model, train_split, cfg)
            report = evaluate(model, test_split, eval_root.child(run, kind))
            reports[kind].append(report)
    comparisons = _compare(reports, plan.model_kinds)
    return ExperimentSummary(plan=plan, reports=reports, comparisons=comparisons)
