"""Experiment protocol tests: split fairness, aggregation, summaries."""

import json

import numpy as np
import pytest

import urgentbayes.experiments as experiments
from urgentbayes.autodiff import RngStream
from urgentbayes.corpus import (
    build_vocabulary,
    examples_from_posts,
    random_embeddings,
    tokenize,
)
from urgentbayes.encoder import HyperParams
from urgentbayes.errors import ConfigurationError
from urgentbayes.experiments import (
    METRIC_KEYS,
    ExperimentPlan,
    ExperimentSummary,
    flatten_metrics,
    run_experiment,
)
from urgentbayes.metrics import ClassMetrics, MetricsReport
from urgentbayes.synthetic import separable_corpus, synthetic_posts, write_posts_csv
from urgentbayes.training import TrainConfig


def tiny_setup(n=12, seed=0, max_len=8):
    posts = synthetic_posts(n, 0.5, seed=seed)
    vocab = build_vocabulary([tokenize(p.text) for p in posts], min_frequency=1)
    examples = examples_from_posts(posts, vocab, max_len=max_len)
    hp = HyperParams(max_len=max_len, embed_dim=4, hidden_dim=3, z_dim=2)
    emb = random_embeddings(vocab, d=4, rng=RngStream(seed).child("emb"))
    return examples, emb.matrix, hp


def fast_plan(**overrides):
    defaults = dict(
        protocol="80_20",
        n_runs=2,
        model_kinds=("base",),
        seed=5,
        train_cfg=TrainConfig(epochs=1, batch_size=16),
    )
    defaults.update(overrides)
    return ExperimentPlan(**defaults)


def fake_report(accuracy, entropy=0.1, recall1=0.5):
    per_class = {
        0: ClassMetrics(0.9, 0.95, 0.92),
        1: ClassMetrics(0.6, recall1, 0.55),
    }
    return MetricsReport(
        accuracy=accuracy,
        mean_entropy=entropy,
        per_class=per_class,
        confusion=np.array([[8, 1], [1, 2]]),
        n_test=12,
    )


class TestPlanValidation:
    def test_defaults_valid(self):
        ExperimentPlan().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(protocol="50_50"),
            dict(n_runs=0),
            dict(model_kinds=()),
            dict(model_kinds=("base", "base")),
            dict(model_kinds=("transformer",)),
            dict(n_runs=2.5),
            dict(n_runs=True),
            dict(seed=-1),
            dict(seed=2.5),
        ],
    )
    def test_rejects(self, kwargs):
        with pytest.raises(ConfigurationError):
            fast_plan(**kwargs).validate()


class TestSplitFairness:
    def test_one_split_per_run_shared_by_kinds(self, monkeypatch):
        examples, emb, hp = tiny_setup()
        calls = []
        real = experiments.stratified_split

        def spy(ex, fraction, seed):
            calls.append(seed)
            return real(ex, fraction, seed)

        monkeypatch.setattr(experiments, "stratified_split", spy)
        plan = fast_plan(model_kinds=("base", "mcd", "vi"), n_runs=2, hp=hp)
        run_experiment(examples, emb, plan)
        # 2 runs x 3 kinds but only 2 split draws, one per run
        assert len(calls) == 2
        assert calls[0] != calls[1]

    def test_run_indexed_split_seeds_differ_across_seeds(self):
        examples, emb, hp = tiny_setup()
        a = run_experiment(examples, emb, fast_plan(hp=hp, seed=1))
        b = run_experiment(examples, emb, fast_plan(hp=hp, seed=2))
        assert a.to_json() != b.to_json()


class TestAggregation:
    def test_mean_variance_hand_case(self):
        plan = fast_plan(protocol="40_60", model_kinds=("base",), n_runs=2)
        summary = ExperimentSummary(
            plan=plan,
            reports={"base": [fake_report(0.8), fake_report(0.9)]},
            comparisons=[],
        )
        d = summary.to_dict()
        assert d["models"]["base"]["mean"]["accuracy"] == pytest.approx(0.85)
        assert d["models"]["base"]["variance"]["accuracy"] == pytest.approx(0.0025)
        assert d["models"]["base"]["std"]["accuracy"] == pytest.approx(0.05)

    def test_single_run_zero_variance(self):
        plan = fast_plan(protocol="40_60", n_runs=1)
        summary = ExperimentSummary(
            plan=plan, reports={"base": [fake_report(0.75)]}, comparisons=[]
        )
        d = summary.to_dict()
        assert all(v == 0.0 for v in d["models"]["base"]["variance"].values())
        assert d["models"]["base"]["mean"]["accuracy"] == 0.75

    def test_best_run_is_first_max_accuracy(self):
        plan = fast_plan(n_runs=3)
        summary = ExperimentSummary(
            plan=plan,
            reports={"base": [fake_report(0.7), fake_report(0.9), fake_report(0.9)]},
            comparisons=[],
        )
        assert summary.best_run_index("base") == 1
        assert summary.to_dict()["table"]["base"]["accuracy"] == 0.9

    def test_table_shapes_per_protocol(self):
        reports = {"base": [fake_report(0.8), fake_report(0.85)]}
        best = ExperimentSummary(fast_plan(protocol="80_20"), reports, []).to_dict()
        for key in METRIC_KEYS:
            assert isinstance(best["table"]["base"][key], float)
        spread = ExperimentSummary(fast_plan(protocol="40_60"), reports, []).to_dict()
        for key in METRIC_KEYS:
            cell = spread["table"]["base"][key]
            assert set(cell) == {"mean", "variance", "std"}

    def test_flatten_order_matches_metric_keys(self):
        flat = flatten_metrics(fake_report(0.8))
        assert tuple(flat) == METRIC_KEYS


class TestComparisons:
    def test_pairs_and_metrics_enumerated(self):
        examples, emb, hp = tiny_setup()
        plan = fast_plan(model_kinds=("base", "mcd", "vi"), n_runs=2, hp=hp)
        summary = run_experiment(examples, emb, plan)
        pairs = {(c["a"], c["b"], c["metric"]) for c in summary.comparisons}
        assert len(pairs) == 3 * 2  # 3 kind pairs x 2 metrics
        assert ("base", "mcd", "mean_entropy") in pairs
        assert ("mcd", "vi", "class_1.recall") in pairs

    def test_underpowered_comparison_is_skipped_not_fatal(self):
        examples, emb, hp = tiny_setup()
        plan = fast_plan(model_kinds=("base", "mcd"), n_runs=2, hp=hp)
        summary = run_experiment(examples, emb, plan)
        for entry in summary.comparisons:
            assert ("skipped" in entry) or ("p_two_sided" in entry)
        # 2 runs can never reach the 5 nonzero differences the exact
        # test needs, so every pair must carry the skip marker
        assert all("skipped" in c for c in summary.comparisons)


class TestDeterminism:
    def test_same_plan_byte_identical_json(self):
        examples, emb, hp = tiny_setup()
        plan_a = fast_plan(model_kinds=("base", "mcd"), hp=hp)
        plan_b = fast_plan(model_kinds=("base", "mcd"), hp=hp)
        a = run_experiment(examples, emb, plan_a).to_json()
        b = run_experiment(examples, emb, plan_b).to_json()
        assert a == b
        json.loads(a)  # must be valid JSON

    def test_runs_recorded_per_kind(self):
        examples, emb, hp = tiny_setup()
        summary = run_experiment(examples, emb, fast_plan(hp=hp, n_runs=3))
        assert len(summary.reports["base"]) == 3
        d = summary.to_dict()
        assert len(d["models"]["base"]["runs"]) == 3
        assert d["n_runs"] == 3


class TestSyntheticCorpus:
    def test_separable_counts(self):
        posts = separable_corpus(64, seed=1)
        labels = [1 if p.urgency > 4 else 0 for p in posts]
        assert len(posts) == 64
        assert sum(labels) == 32

    def test_imbalanced_fraction(self):
        posts = synthetic_posts(2000, 0.19, seed=2)
        positives = sum(1 for p in posts if p.urgency > 4)
        assert positives == 380

    def test_markers_separate_classes(self):
        from urgentbayes.synthetic import _CALM_MARKERS, _URGENT_MARKERS

        for post in synthetic_posts(100, 0.3, seed=3):
            tokens = set(tokenize(post.text))
            has_urgent = bool(tokens & set(_URGENT_MARKERS))
            has_calm = bool(tokens & set(_CALM_MARKERS))
            assert has_urgent != has_calm
            assert has_urgent == (post.urgency > 4)

    def test_csv_round_trip(self, tmp_path):
        from urgentbayes.corpus import load_posts

        posts = synthetic_posts(10, 0.3, seed=4)
        path = str(tmp_path / "posts.csv")
        write_posts_csv(path, posts)
        loaded = load_posts(path)
        assert [p.text for p in loaded] == [p.text for p in posts]
        assert [p.urgency for p in loaded] == [p.urgency for p in posts]

    def test_rejects_bad_fraction(self):
        with pytest.raises(ConfigurationError):
            synthetic_posts(10, 0.0)
