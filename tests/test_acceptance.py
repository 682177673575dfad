"""Acceptance gate: one test per shipping criterion.

Each test prints a single PASS/FAIL line with its measured numbers
(visible under pytest -s or in the captured-output section) and then
asserts.  Criteria 5 and 6 train real models and dominate the suite's
runtime; their budgets are asserted, not just observed.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy import integrate, stats

from urgentbayes.autodiff import RngStream, Tensor
from urgentbayes.cli import main as cli_main
from urgentbayes.corpus import (
    build_vocabulary,
    examples_from_posts,
    random_embeddings,
    tokenize,
)
from urgentbayes.encoder import HyperParams
from urgentbayes.experiments import (
    COMPARISON_METRICS,
    METRIC_KEYS,
    ExperimentPlan,
    run_experiment,
)
from urgentbayes.gradchecks import run_all
from urgentbayes.mcd import McdConfig
from urgentbayes.metrics import (
    predictive_entropy,
    signed_rank_null_distribution,
    wilcoxon_signed_rank,
)
from urgentbayes.synthetic import (
    imbalanced_corpus,
    separable_corpus,
    synthetic_posts,
    write_posts_csv,
)
from urgentbayes.training import TrainConfig, build_model, train, train_accuracy
from urgentbayes.vi import GaussianDiag, ViConfig, kl_diag_gaussians

FORUM_ENV = "URGENTBAYES_FORUM_CSV"


def _verdict(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _corpus_parts(posts, min_frequency=1):
    vocab = build_vocabulary([tokenize(p.text) for p in posts], min_frequency)
    return vocab


def _kl(mu_q, ls_q, mu_p, ls_p):
    q = GaussianDiag(Tensor(np.atleast_2d(mu_q)), Tensor(np.atleast_2d(ls_q)))
    p = GaussianDiag(Tensor(np.atleast_2d(mu_p)), Tensor(np.atleast_2d(ls_p)))
    return kl_diag_gaussians(q, p).item()


def test_criterion_1_gradient_correctness():
    # every operation plus end-to-end base, mcd and vi losses at
    # h=8, s=6, z=4, vocab 20, batch 2; rel err <= 1e-4 with eps 1e-5
    t0 = time.monotonic()
    checks = run_all("small")
    dt = time.monotonic() - t0
    n_pass = sum(c.passed for c in checks)
    worst = max(c.report.max_rel_error for c in checks)
    _verdict(
        1,
        n_pass == len(checks) and dt < 60.0,
        f"{n_pass}/{len(checks)} gradient checks passed, "
        f"worst rel err {worst:.2e}, {dt:.1f}s (budget 60s)",
    )


def test_criterion_2_kl_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(7)

    worst_int = 0.0
    for _ in range(20):
        mu_q, mu_p = rng.uniform(-3, 3, size=2)
        ls_q, ls_p = rng.uniform(-1.5, 1.5, size=2)
        closed = _kl([mu_q], [ls_q], [mu_p], [ls_p])
        s_q, s_p = math.exp(ls_q), math.exp(ls_p)

        def integrand(x):
            qx = stats.norm.pdf(x, mu_q, s_q)
            return qx * (
                stats.norm.logpdf(x, mu_q, s_q) - stats.norm.logpdf(x, mu_p, s_p)
            )

        numeric, _ = integrate.quad(integrand, mu_q - 12 * s_q, mu_q + 12 * s_q, limit=200)
        worst_int = max(worst_int, abs(closed - numeric))

    n = 100_000
    mc_ok = True
    for _ in range(10):
        mu_q = rng.uniform(-2, 2, size=4)
        mu_p = rng.uniform(-2, 2, size=4)
        ls_q = rng.uniform(-1, 1, size=4)
        ls_p = rng.uniform(-1, 1, size=4)
        closed = _kl(mu_q, ls_q, mu_p, ls_p)
        draws = mu_q + np.exp(ls_q) * rng.standard_normal((n, 4))
        diffs = stats.norm.logpdf(draws, mu_q, np.exp(ls_q)).sum(axis=1) - stats.norm.logpdf(
            draws, mu_p, np.exp(ls_p)
        ).sum(axis=1)
        se = diffs.std(ddof=1) / math.sqrt(n)
        mc_ok = mc_ok and abs(closed - diffs.mean()) <= 3 * se

    # fixed references, derived analytically: KL(N(1,1)||N(0,1)) = 1/2 and
    # KL(N(0,4)||N(0,1)) = -ln 2 + 3/2 = 0.80685... (displayed to 5 places)
    fixed_half = _kl([1.0], [0.0], [0.0], [0.0])
    fixed_var4 = _kl([0.0], [math.log(2.0)], [0.0], [0.0])
    fixed_ok = (
        abs(fixed_half - 0.5) <= 1e-6
        and abs(fixed_var4 - (-math.log(2.0) + 1.5)) <= 1e-6
    )
    dt = time.monotonic() - t0
    _verdict(
        2,
        worst_int <= 1e-6 and mc_ok and fixed_ok and dt < 30.0,
        f"integration gap {worst_int:.2e} (<=1e-6), MC within 3 SE: {mc_ok}, "
        f"fixed cases {fixed_half:.6f}/{fixed_var4:.6f}, {dt:.1f}s (budget 30s)",
    )


def test_criterion_3_mcd_degeneracy_and_convergence():
    t0 = time.monotonic()
    hp = HyperParams(max_len=6, embed_dim=5, hidden_dim=8, z_dim=4)
    emb = RngStream(11).child("emb").generator().uniform(-0.5, 0.5, (20, hp.embed_dim))
    ids = np.array([[2, 3, 4, 5, 6, 7]])
    lengths = np.array([6])

    base = build_model(hp, emb.copy(), "base", seed=4)
    bitwise_ok = True
    for m in (1, 7):
        mcd0 = build_model(
            hp, emb.copy(), "mcd", seed=4,
            mcd_cfg=McdConfig(dropout_rate=0.0, num_samples=m),
        )
        dist = mcd0.predict_batch(ids, lengths)[0]
        # both kinds serve in float32; aggregation holds the logits in float64
        want = base.serving_copy().infer_logits(ids, lengths)[0].astype(np.float64)
        bitwise_ok = bitwise_ok and dist.mean_logits.tobytes() == want.tobytes()
        bitwise_ok = bitwise_ok and all(
            row.tobytes() == want.tobytes() for row in dist.per_sample_logits
        )

    def spread(num_samples, repeats=200):
        model = build_model(
            hp, emb.copy(), "mcd", seed=4,
            mcd_cfg=McdConfig(dropout_rate=0.3, num_samples=num_samples),
        )
        means = np.empty((repeats, 2))
        for rep in range(repeats):
            dist = model.predict_batch(ids, lengths, RngStream(rep).child("c3", num_samples))[0]
            means[rep] = dist.mean_logits
        return means.var(axis=0).sum()

    var_small, var_large = spread(10), spread(100)
    dt = time.monotonic() - t0
    _verdict(
        3,
        bitwise_ok and var_large < var_small and dt < 60.0,
        f"rate-0 bitwise match: {bitwise_ok}, var(mean_logits) "
        f"M=100 {var_large:.3e} < M=10 {var_small:.3e}, {dt:.1f}s (budget 60s)",
    )


def test_criterion_4_entropy_bounds():
    rng = np.random.default_rng(13)
    u = rng.uniform(0.0, 1.0, size=10_000)
    values = np.array([predictive_entropy([x, 1.0 - x]) for x in u])
    in_bounds = bool((values >= 0.0).all() and (values <= math.log(2.0) + 1e-12).all())
    # references derived from the definition: H([.5,.5]) = ln 2 (0.693147...)
    # and H([.9,.1]) = -(0.9 ln 0.9 + 0.1 ln 0.1) = 0.325083...
    h_even = predictive_entropy([0.5, 0.5])
    h_skew = predictive_entropy([0.9, 0.1])
    even_ok = abs(h_even - math.log(2.0)) <= 1e-9
    skew_ok = abs(h_skew - 0.325083) <= 1e-6
    _verdict(
        4,
        in_bounds and even_ok and skew_ok,
        f"10^4 vectors in [0, ln 2]: {in_bounds}, "
        f"H(.5,.5)={h_even:.9f}, H(.9,.1)={h_skew:.6f}",
    )


def test_criterion_5_overfit_oracle():
    t0 = time.monotonic()
    posts = separable_corpus(64)
    vocab = _corpus_parts(posts)
    hp = HyperParams()  # stock architecture, no reductions
    examples = examples_from_posts(posts, vocab, hp.max_len)
    emb = random_embeddings(vocab, hp.embed_dim)

    results = {}
    kl_finite = True
    for kind in ("base", "mcd", "vi"):
        model = build_model(
            hp, emb.matrix.copy(), kind, seed=0, vi_cfg=ViConfig(z_dim=hp.z_dim)
        )
        res = train(model, examples, TrainConfig(epochs=200, model_kind=kind, seed=0))
        results[kind] = train_accuracy(model, examples)
        if kind == "vi":
            kls = [r.parts["kl"] for r in res.loss_trace]
            kl_finite = bool(np.isfinite(kls).all())
    dt = time.monotonic() - t0
    all_perfect = all(acc == 1.0 for acc in results.values())
    _verdict(
        5,
        all_perfect and kl_finite and dt < 180.0,
        "train accuracy " + ", ".join(f"{k}={v:.3f}" for k, v in results.items())
        + f", vi KL finite: {kl_finite}, {dt:.0f}s (budget 180s)",
    )


def test_criterion_6_protocol_at_desk_scale():
    t0 = time.monotonic()
    posts = imbalanced_corpus(2000)
    vocab = _corpus_parts(posts)
    # sized so every kind learns the minority class (F1 ~ .98) while the
    # ten-run sweep stays far inside the budget
    hp = HyperParams(max_len=12, embed_dim=32, hidden_dim=24, z_dim=8)
    examples = examples_from_posts(posts, vocab, hp.max_len)
    emb = random_embeddings(vocab, hp.embed_dim)
    plan = ExperimentPlan(
        protocol="40_60",
        n_runs=10,
        model_kinds=("base", "mcd", "vi"),
        seed=0,
        hp=hp,
        train_cfg=TrainConfig(epochs=12, batch_size=64),
        mcd_cfg=McdConfig(num_samples=10),
        vi_cfg=ViConfig(z_dim=hp.z_dim, m_test=10),
    )
    summary = run_experiment(examples, emb.matrix, plan).to_dict()
    dt = time.monotonic() - t0

    shaped = True
    for kind in plan.model_kinds:
        shaped = shaped and len(summary["models"][kind]["runs"]) == 10
        for key in METRIC_KEYS:
            cell = summary["table"][kind][key]
            shaped = shaped and set(cell) == {"mean", "variance", "std"}
    n_cmp = len(summary["comparisons"])
    shaped = shaped and n_cmp == 3 * len(COMPARISON_METRICS)

    v_base = summary["models"]["base"]["variance"]["class_1.f1"]
    v_vi = summary["models"]["vi"]["variance"]["class_1.f1"]
    direction = "lower" if v_vi < v_base else "not lower"
    # directional observation, reported not asserted
    print(
        f"criterion 6 note: run-to-run class-1 F1 variance "
        f"vi={v_vi:.2e} vs base={v_base:.2e} ({direction})"
    )
    _verdict(
        6,
        shaped and dt < 1200.0,
        f"40/60 x 10 runs on 2000 examples (19% positive) complete, "
        f"table has mean/variance/std for {len(METRIC_KEYS)} metrics x 3 models, "
        f"{n_cmp} paired comparisons, {dt:.0f}s (budget 1200s)",
    )


def test_criterion_7_wilcoxon_exactness():
    res = wilcoxon_signed_rank([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5, alternative="greater")
    exact_p = res.p_value == 0.03125  # 1/32 is a dyadic rational, == is exact
    sums_ok = True
    worst = 0.0
    for n in range(1, 13):
        _, probs = signed_rank_null_distribution(n)
        gap = abs(sum(probs) - 1.0)
        worst = max(worst, gap)
        sums_ok = sums_ok and gap <= 1e-12
    _verdict(
        7,
        exact_p and sums_ok,
        f"n=5 all-positive one-sided p={res.p_value} (want 0.03125), "
        f"null pmf sums to 1 within {worst:.1e} for n<=12",
    )


@pytest.mark.skipif(
    FORUM_ENV not in os.environ,
    reason=f"set {FORUM_ENV} to a posts CSV to run the dataset-conditional criterion",
)
def test_criterion_8_dataset_targets():
    from urgentbayes.corpus import load_posts

    t0 = time.monotonic()
    posts = load_posts(os.environ[FORUM_ENV])
    vocab = build_vocabulary([tokenize(p.text) for p in posts], min_frequency=2)
    hp = HyperParams(max_len=64, embed_dim=100, hidden_dim=64, z_dim=16)
    examples = examples_from_posts(posts, vocab, hp.max_len)
    emb = random_embeddings(vocab, hp.embed_dim)
    plan = ExperimentPlan(
        protocol="80_20",
        n_runs=10,
        model_kinds=("base", "mcd"),
        seed=0,
        hp=hp,
        train_cfg=TrainConfig(epochs=5, batch_size=64),
        mcd_cfg=McdConfig(num_samples=20),
    )
    summary = run_experiment(examples, emb.matrix, plan).to_dict()
    acc = summary["table"]["base"]["accuracy"]
    recall = summary["table"]["base"]["class_1.recall"]
    ent_base = summary["models"]["base"]["mean"]["mean_entropy"]
    ent_mcd = summary["models"]["mcd"]["mean"]["mean_entropy"]
    dt = time.monotonic() - t0
    _verdict(
        8,
        acc >= 0.85 and recall >= 0.60 and ent_mcd <= ent_base + 0.02,
        f"best-run accuracy {acc:.3f} (>=0.85), urgent recall {recall:.3f} (>=0.60), "
        f"mean entropy mcd {ent_mcd:.3f} <= base {ent_base:.3f} + 0.02, {dt:.0f}s",
    )


def test_criterion_9_byte_identical_summaries(tmp_path, capsys):
    csv_path = tmp_path / "posts.csv"
    write_posts_csv(str(csv_path), synthetic_posts(48, 0.5, seed=3))
    cfg_path = tmp_path / "tiny.cfg"
    cfg_path.write_text(
        "max_len = 8\nembed_dim = 4\nhidden_dim = 3\nz_dim = 2\n"
        "epochs = 2\nbatch_size = 8\nmin_frequency = 1\n"
        "mcd_samples = 5\nvi_test_samples = 5\n"
    )
    prep = tmp_path / "prep"
    assert cli_main(["prepare", "--data", str(csv_path), "--out", str(prep),
                     "--config", str(cfg_path)]) == 0
    capsys.readouterr()

    outputs = []
    for label in ("a", "b"):
        out_dir = tmp_path / label
        code = cli_main(
            ["experiment", "--protocol", "40_60", "--runs", "2",
             "--models", "base,mcd,vi", "--config", str(cfg_path), "--seed", "21",
             "--data", str(prep / "dataset.npz"), "--vocab", str(prep / "vocab.txt"),
             "--out", str(out_dir)]
        )
        assert code == 0
        capsys.readouterr()
        outputs.append((out_dir / "experiment_summary.json").read_bytes())
    identical = outputs[0] == outputs[1]
    parsed = json.loads(outputs[0])
    _verdict(
        9,
        identical and parsed["seed"] == 21,
        f"two runs, {len(outputs[0])} bytes each, byte-identical: {identical}",
    )
