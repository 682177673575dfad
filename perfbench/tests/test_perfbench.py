"""Self-tests of the benchmark. They run the benchmark itself, so they take
several minutes:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
from urgentbayes import corpus  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# metrics specified for the benchmark that are not end-to-end metrics here,
# because every workload must report every end-to-end metric and these exist
# on desk-protocol only; the desk-protocol record carries them instead
DROPPED_END_TO_END = {
    "protocol_run_s": "protocol_run_s",
    "urgent_recall.base": "urgent_recall",
    "urgent_recall.mcd": "urgent_recall",
    "urgent_recall.vi": "urgent_recall",
}
NAMED_END_TO_END = {
    "setup_s", "peak_rss_mb",
    "train_examples_per_s.base", "train_examples_per_s.mcd", "train_examples_per_s.vi",
    "predict_posts_per_s.base", "predict_posts_per_s.mcd", "predict_posts_per_s.vi",
    "post_latency_s.p50", "post_latency_s.tail",
} | set(DROPPED_END_TO_END)
NAMED_PER_LAYER = {
    "encoder.embed_fwd_s", "encoder.lstm1_fwd_s", "encoder.lstm2_fwd_s",
    "encoder.attention_fwd_s", "head.fwd_s", "autodiff.backward_s", "autodiff.tape_nodes",
    "training.clip_s", "training.adam_s", "training.other_s", "encoder.infer_s",
    "encoder.infer_calls", "encoder.aggregate_s", "predict.other_s", "corpus.prepare_s",
    "corpus.split_s", "checkpoint.save_s", "checkpoint.load_s", "training.train_s",
    "training.evaluate_s", "metrics.compare_s", "experiments.other_s",
}
EXACT_COUNTS = ("autodiff.tape_nodes.", "encoder.infer_calls.")


def _run(cwd, workload, seed, trace, seconds=1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False, cwd=cwd, timeout=600,
    )


_cache = {}


def result(workload, trace, index=0):
    """(detail record, result line) of a short run, cached per test session."""
    key = (workload, trace, index)
    if key not in _cache:
        out = _run(ROOT, workload, 7, trace)
        assert out.returncode == 0, out.stdout + out.stderr
        lines = out.stdout.strip().splitlines()
        _cache[key] = json.loads(lines[-2]), json.loads(lines[-1])
    return _cache[key]


def _input_hash(workload, seed):
    if workload == "forum":
        posts = [corpus.RawPost(text, urgency) for text, urgency in inputs.forum_posts(seed)]
        max_len = 64
    else:
        posts = inputs.desk_posts(seed)
        max_len = 12
    token_lists = [corpus.tokenize(p.text) for p in posts]
    vocab = corpus.build_vocabulary(token_lists, 1)
    examples = corpus.examples_from_posts(posts, vocab, max_len)
    record = inputs.input_record(len(vocab), examples, 64, [len(t) for t in token_lists])
    return record["ids_sha256"], record


@pytest.mark.parametrize("workload", ["forum", "desk-protocol"])
def test_input_hash_depends_on_seed_only(workload):
    h1, record = _input_hash(workload, 3)
    assert _input_hash(workload, 3)[0] == h1
    assert _input_hash(workload, 4)[0] != h1
    if workload == "forum":
        assert record["vocab_size"] == 20_000
        assert abs(record["urgent_share"] - 0.19) < 0.005
        assert 0.0 < record["truncated_share"] < 0.5


def test_benchmark_names_every_specified_metric():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    assert end_to_end | set(DROPPED_END_TO_END) == NAMED_END_TO_END
    per_layer = {m["name"].rsplit(".", 1)[0] if m["name"].rsplit(".", 1)[1] in
                 ("base", "mcd", "vi", "triage") else m["name"] for m in SPEC["per_layer"]}
    assert NAMED_PER_LAYER <= per_layer


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, res = result(workload, 0)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0
    if workload == "desk-protocol":
        for name in set(DROPPED_END_TO_END.values()):
            assert detail[name]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_match_untraced_and_repeat_counts(workload):
    detail_a, a = result(workload, 1, 0)
    _, b = result(workload, 1, 1)
    assert a["correct"] and b["correct"]
    assert detail_a["reference_ops_compared"] > 0 and detail_a["reference_mismatches"] == []
    assert set(a["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, m in a["metrics"].items():
        if name.startswith(EXACT_COUNTS):
            assert m["value"] == b["metrics"][name]["value"], name


def test_fails_without_the_program():
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".perfbench"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = _run(bare, WORKLOADS[0], 1, 0)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare)
