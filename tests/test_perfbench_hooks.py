"""The benchmark's tracing hooks still find every name they wrap.

`perfbench/spans.py` wraps module functions and class methods by name
(`owner.__dict__[name]`); renaming or deleting one of them breaks
`perfbench/run.py --trace 1`.  These tests install the tracer, run a tiny
train and predict through the wrappers, and restore the originals.
`perfbench/workloads.py`, which the untraced run also loads, is imported
and its configs built, so a name or field it needs cannot go unnoticed."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from urgentbayes import training
from urgentbayes.autodiff import RngStream
from urgentbayes.corpus import LabeledExample
from urgentbayes.encoder import HyperParams

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS_PATH = PERFBENCH / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tiny_run(kind):
    """One train step and one predict call on a tiny model; returns the loss
    and the mean probabilities, for a bit-for-bit comparison."""
    hp = HyperParams(max_len=5, embed_dim=4, hidden_dim=3, z_dim=2)
    emb = RngStream(1).child("emb").generator().uniform(-0.5, 0.5, (12, hp.embed_dim))
    model = training.build_model(hp, emb, kind, 2)
    gen = np.random.default_rng(3)
    examples = [
        LabeledExample(gen.integers(2, 12, size=5), int(length), label)
        for length, label in zip([5, 1, 3, 2], [0, 1, 0, 1])
    ]
    cfg = training.TrainConfig(epochs=1, batch_size=4, model_kind=kind, seed=4)
    loss = training.train(model, examples, cfg).loss_trace[0].loss
    ids = np.stack([ex.token_ids for ex in examples])
    lengths = np.array([ex.true_length for ex in examples])
    dists = model.predict_batch(ids, lengths, RngStream(5))
    return loss, np.stack([d.mean_probs for d in dists]).tobytes()


def test_install_and_restore(spans):
    patches = spans.Patches()
    try:
        spans.Tracer().install(patches)
        saved = list(patches._saved)   # (owner, name, original)
        wrappers = [owner.__dict__[name] for owner, name, _ in saved]
    finally:
        patches.restore()
    assert saved
    for (owner, name, original), wrapper in zip(saved, wrappers):
        assert wrapper is not original, name
        assert owner.__dict__[name] is original, name


@pytest.mark.parametrize("kind", ["base", "mcd", "vi"])
def test_traced_run_matches_untraced(spans, kind):
    untraced = tiny_run(kind)
    patches = spans.Patches()
    tracer = spans.Tracer()
    try:
        tracer.install(patches)
        traced = tiny_run(kind)
    finally:
        patches.restore()
    assert traced == untraced
    assert tracer.train_steps[kind] == 1
    # a predict_batch that delegated to a wrapped super().predict_batch
    # would be counted twice
    assert tracer.predict_calls[kind] == 1
    assert tracer.tape_nodes[kind] > 0
    assert tracer.infer_calls[kind] >= 1


def test_workloads_import_and_configs(monkeypatch):
    # workloads.py imports its siblings as top-level modules, as run.py
    # runs it with perfbench/ on sys.path
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        workloads = importlib.import_module("workloads")
    finally:
        for name in {"inputs", "spans", "workloads"} - before:
            sys.modules.pop(name, None)
    for kind in workloads.KINDS:
        training.TrainConfig(epochs=1, batch_size=workloads.BATCH, model_kind=kind,
                             seed=0).validate()
    workloads.FORUM_HP.validate()
    workloads._desk_plan(SimpleNamespace(seed=0), 0).validate()
