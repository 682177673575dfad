"""The two workloads: one closed-loop client, one op at a time.

`forum` is the ROADMAP forum shape (vocabulary 20,000, max_len 64, batch
64, stock widths). Set-up loads a generated CSV through `corpus`, builds one
model per kind and round-trips each through `checkpoint`. A fixed number of
times, spread over the run, it scores held-out batches with each kind at its
stock M and triages single posts with mcd at M=50; training steps, one batch
per kind, fill the rest of the run's seconds.

`desk-protocol` is acceptance criterion 6's shape: `imbalanced_corpus(2000)`,
tiny widths. A fixed number of times it runs one 40/60 protocol over base,
mcd and vi, scores the test split of a 40/60 split with each kind, and
triages single posts with mcd at the protocol's M=10; training epochs, one
per kind, fill the rest of the run's seconds.

Both report the same end-to-end metrics, measured at their own shape. In
trace mode a first, untraced set-up runs the workload's first ops as a
reference, and the traced ops must reproduce their losses and probabilities
bit for bit.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import inputs
import urgentbayes
from spans import KINDS, Tracer
from urgentbayes import checkpoint, corpus, encoder, experiments, mcd, training, vi
from urgentbayes.autodiff import RngStream
from urgentbayes.encoder import HyperParams
from urgentbayes.experiments import COMPARISON_METRICS, METRIC_KEYS, ExperimentPlan
from urgentbayes.mcd import McdConfig
from urgentbayes.training import TrainConfig
from urgentbayes.vi import ViConfig

SETUP_REPS = 5
BATCH = 64
TAIL_BEYOND = 10
# entropy may exceed ln 2 by rounding; 1e-12 is acceptance criterion 4's margin
LN2 = math.log(2.0)

FORUM_HP = HyperParams(max_len=64)
FORUM_SCORE_OPS = {"base": 8, "vi": 8, "mcd": 2}
FORUM_REFERENCE_TRIAGE = 4

DESK_HP = HyperParams(max_len=12, embed_dim=32, hidden_dim=24, z_dim=8)
DESK_MCD = McdConfig(num_samples=10)
DESK_VI = ViConfig(z_dim=8, m_test=10)
DESK_EPOCHS = 12
DESK_SCORE_OPS = {"base": 16, "vi": 16, "mcd": 8}
DESK_RECALL_FLOOR = 0.5


# imports the program as a user's command does and prints the seconds it took
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import urgentbayes.cli; print(time.perf_counter() - t0)")


def fresh_import_s():
    """Seconds to import the program in a fresh interpreter. Timed inside the
    child, so interpreter start-up is left out."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(urgentbayes.__file__)))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def samples_per_post(model):
    """The M each distribution must report: the stated sample count."""
    if model.kind == "mcd":
        return model.cfg.num_samples
    if model.kind == "vi":
        return model.cfg.m_test
    return 1


def check_distributions(dists, n_posts, m):
    """Problems with one predict_batch result; empty when it is valid."""
    problems = []
    if len(dists) != n_posts:
        problems.append(f"{len(dists)} distributions for {n_posts} posts")
    for d in dists:
        total = float(np.sum(d.mean_probs))
        if not abs(total - 1.0) <= 1e-12:
            problems.append(f"mean_probs sum to {total!r}")
        if not 0.0 <= d.entropy <= LN2 + 1e-12:
            problems.append(f"entropy {d.entropy!r} outside [0, ln 2]")
        if d.predicted_label not in (0, 1):
            problems.append(f"label {d.predicted_label!r}")
        if d.per_sample_logits.shape[0] != m:
            problems.append(f"{d.per_sample_logits.shape[0]} samples, expected M={m}")
        if problems:
            break
    return problems


def probs_fingerprint(dists):
    return np.stack([d.mean_probs for d in dists]).tobytes()


def tail_of(values):
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n


class Run:
    """State shared by both workloads: op accounting, timings, checks."""

    def __init__(self, seed, seconds, trace, scratch, patches):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.setup_s = []
        self.import_s = []
        self.train = {k: [] for k in KINDS}      # (examples, seconds)
        self.predict = {k: [] for k in KINDS}    # (posts, seconds)
        self.latency = []
        self.fingerprints = []                   # (op label, bytes), in op order
        self.reference = None
        self.patches = patches
        self.tracer = Tracer() if trace else None
        self.detail = {}

    def op(self, label, fn):
        """Runs one op; returns (result, seconds) or (None, None) on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an op that raises is a failed op, not a crash
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None, None
        return result, time.perf_counter() - t0

    def fail(self, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, label, problems):
        if problems:
            self.fail(f"{label}: {'; '.join(problems[:3])}")
            return False
        return True

    def keep(self, label, data):
        self.fingerprints.append((label, data))

    def compare_with_reference(self):
        """Trace mode: the traced ops must reproduce the reference ops."""
        ref = self.reference
        got = dict(self.fingerprints)
        mismatched = [label for label, data in ref if got.get(label) != data]
        self.detail["reference_ops_compared"] = len(ref)
        self.detail["reference_mismatches"] = mismatched
        if mismatched:
            self.fail(f"traced run differs from untraced run in {mismatched[:5]}")

    def _median(self, name, values):
        if values:
            return statistics.median(values)
        self.fail(f"no successful {name} op to measure")
        return 0.0

    def end_to_end(self):
        latency = self.latency or [0.0]
        tail, pct = tail_of(latency)
        self.detail["post_latency"] = {"samples": len(self.latency), "tail_percentile": pct}
        self.detail["setup_reps_s"] = self.setup_s
        self.detail["import_reps_s"] = self.import_s
        self.detail["samples"] = {
            "train_ops": {k: len(v) for k, v in self.train.items()},
            "predict_ops": {k: len(v) for k, v in self.predict.items()},
        }
        self.detail["op_seconds"] = {
            **{f"train.{k}": [dt for _, dt in v] for k, v in self.train.items()},
            **{f"predict.{k}": [dt for _, dt in v] for k, v in self.predict.items()},
            "triage": self.latency,
        }
        metrics = {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        for kind in KINDS:
            rates = [items / seconds for items, seconds in self.train[kind]]
            metrics[f"train_examples_per_s.{kind}"] = (self._median(f"train {kind}", rates),
                                                      "examples/s")
        for kind in KINDS:
            rates = [items / seconds for items, seconds in self.predict[kind]]
            metrics[f"predict_posts_per_s.{kind}"] = (self._median(f"predict {kind}", rates),
                                                     "posts/s")
        metrics["post_latency_s.p50"] = (self._median("triage", self.latency), "s")
        metrics["post_latency_s.tail"] = (tail, "s")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    def setups(self, set_up, reference_ops):
        """SETUP_REPS timed set-ups, each one a program import in a fresh
        interpreter plus the workload's set-up in this process; returns the
        last one's state. In trace mode the first set-up runs the reference
        ops untraced, then tracing starts, so the later set-ups are traced
        too."""
        state = None
        for rep in range(SETUP_REPS):
            if self.tracer and rep == 1:
                self.tracer.install(self.patches)
            if self.tracer and rep >= 1:
                self.tracer.new_op()
                self.tracer.setup_reps += 1
            state = None  # let the previous set-up's models go first
            import_s = fresh_import_s()
            t0 = time.perf_counter()
            state = set_up()
            self.setup_s.append(import_s + time.perf_counter() - t0)
            self.import_s.append(import_s)
            if self.tracer and rep == 0:
                reference_ops(state)
                self.reference, self.fingerprints = self.fingerprints, []
        return state

    def warm_up(self, model, examples):
        """The untimed warm-up op that ends each set-up: one triage call on
        the post of median length, so its cost does not vary with the seed."""
        ids, lengths, _ = inputs.stack([examples[inputs.triage_picks(examples, 1)[0]]])
        if self.tracer:
            self.tracer.tag = "warmup"
        model.predict_batch(ids, lengths, RngStream(self.seed).child("warmup"))
        if self.tracer:
            self.tracer.tag = None


def interleave(run, fixed, filler):
    """The closed loop of one run. Each op in `fixed` (name -> (count, op))
    runs exactly `count` times, spread evenly over the run's seconds, so
    slow drifts of the machine touch every metric alike. `filler` runs
    whenever no fixed op is behind its share of the elapsed time, at least
    once and then as long as another filler op fits in the run's seconds."""
    done = {name: 0 for name in fixed}
    fillers = 0
    last_filler = 0.0
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        pending = sorted((done[n] / count, n) for n, (count, _) in fixed.items() if done[n] < count)
        behind = [name for share, name in pending if share < elapsed / run.seconds]
        if behind:
            name = behind[0]
        elif fillers == 0 or elapsed + last_filler <= run.seconds:
            f0 = time.perf_counter()
            filler(fillers)
            fillers += 1
            last_filler = time.perf_counter() - f0
            continue
        elif pending:
            name = pending[0][1]
        else:
            return
        fixed[name][1](done[name])
        done[name] += 1


def reference_pass(fixed, counts, filler):
    """Trace mode: the first ops of each type, untraced, in a fixed order."""
    for name, (_, op) in fixed.items():
        for i in range(counts.get(name, 1)):
            op(i)
    filler(0)


# -- ops shared by both workloads ---------------------------------------------

def score_op(run, model, batches, reference):
    """predict_batch over held-out posts, at the model's stated M."""

    def op(i):
        ids, lengths, _ = batches[i % len(batches)]
        rng = RngStream(run.seed).child("score", model.kind, i)
        label = f"score.{model.kind}.{i}"
        dists, dt = run.op(label, lambda: model.predict_batch(ids, lengths, rng))
        if dists is not None and run.check(
                label, check_distributions(dists, len(ids), samples_per_post(model))):
            if not reference:
                run.predict[model.kind].append((len(ids), dt))
            run.keep(label, probs_fingerprint(dists))

    return op


def triage_op(run, model, examples, reference):
    """Single-post predict_batch calls (n=1), the `urgentbayes predict` path."""

    def op(k):
        ex = examples[k]
        ids, lengths = ex.token_ids[None, :], np.array([ex.true_length])
        rng = RngStream(run.seed).child("triage", k)
        tracer = None if reference else run.tracer
        if tracer:
            tracer.tag = "triage"
        label = f"triage.{k}"
        dists, dt = run.op(label, lambda: model.predict_batch(ids, lengths, rng))
        if tracer:
            tracer.tag = None
        if dists is not None and run.check(
                label, check_distributions(dists, 1, samples_per_post(model))):
            if not reference:
                run.latency.append(dt)
            run.keep(label, probs_fingerprint(dists))

    return op


def train_round_op(run, models, batches, reference):
    """One `train()` call per kind, one epoch over the next batch."""

    def op(r):
        for k, kind in enumerate(KINDS):
            step = r * len(KINDS) + k
            batch = batches[step % len(batches)]
            seed = int(RngStream(run.seed).child("train", step).generator().integers(2**62))
            cfg = TrainConfig(epochs=1, batch_size=BATCH, model_kind=kind, seed=seed)
            model = models[kind]
            label = f"train.{kind}.{step}"
            result, dt = run.op(label, lambda: training.train(model, batch, cfg))
            if result is None:
                continue
            losses = [rec.loss for rec in result.loss_trace]
            if run.check(label, [] if all(map(math.isfinite, losses)) else [f"loss {losses}"]):
                if not reference:
                    run.train[kind].append((len(batch), dt))
                run.keep(label, np.array(losses).tobytes())

    return op


def shuffled_triage(run, examples, count):
    picks = inputs.triage_picks(examples, count)
    order = np.random.default_rng([run.seed, 2]).permutation(len(picks))
    return [examples[picks[i]] for i in order]


def build_models(hp, matrix, seed, **cfgs):
    return {kind: training.build_model(hp, matrix, kind, seed, **cfgs) for kind in KINDS}


# -- forum -------------------------------------------------------------------

def _forum_batches(examples):
    """Training batches of 64 with the urgent share of the whole pool in
    each, so every batch holds both classes, and held-out scoring batches."""
    pool = examples[: inputs.FORUM_TRAIN_POSTS]
    urgent = [ex for ex in pool if ex.label == 1]
    calm = [ex for ex in pool if ex.label == 0]
    n_batches = len(pool) // BATCH
    per_batch = len(urgent) // n_batches
    train_batches = []
    for b in range(n_batches):
        picked = urgent[b * per_batch : (b + 1) * per_batch]
        picked += calm[b * (BATCH - per_batch) : (b + 1) * (BATCH - per_batch)]
        train_batches.append(picked)
    held = examples[inputs.FORUM_TRAIN_POSTS :]
    score_batches = [inputs.stack(held[i : i + BATCH]) for i in range(0, len(held), BATCH)]
    return train_batches, score_batches, held


def run_forum(run):
    rows = inputs.forum_posts(run.seed)
    csv_path = os.path.join(run.scratch, "forum_posts.csv")
    inputs.write_posts_csv(csv_path, rows)

    def set_up():
        posts = corpus.load_posts(csv_path)
        token_lists = [corpus.tokenize(p.text) for p in posts]
        vocab = corpus.build_vocabulary(token_lists, min_frequency=1)
        examples = corpus.examples_from_posts(posts, vocab, FORUM_HP.max_len)
        emb = corpus.random_embeddings(vocab, FORUM_HP.embed_dim, RngStream(run.seed))
        # the built models train; their checkpointed copies serve predictions,
        # so a prediction does not depend on how many train steps came before
        trained = build_models(FORUM_HP, emb.matrix, run.seed)
        served = {}
        for kind, model in trained.items():
            path = os.path.join(run.scratch, f"model_{kind}.ckpt")
            checkpoint.save_checkpoint(path, model, vocab.id_to_token)
            served[kind] = checkpoint.restore_model(checkpoint.load_checkpoint(path))
            os.remove(path)
        run.warm_up(served["mcd"], examples)
        return {"vocab": vocab, "examples": examples, "trained": trained, "served": served,
                "raw_lengths": [len(t) for t in token_lists]}

    state = run.setups(set_up, lambda st: forum_ops(run, st, reference=True))
    vocab, examples = state["vocab"], state["examples"]
    run.detail["inputs"] = inputs.input_record(len(vocab), examples, BATCH, state["raw_lengths"])
    if len(vocab) != inputs.FORUM_VOCAB_WORDS + 2:
        run.fail(f"vocabulary has {len(vocab)} entries, expected {inputs.FORUM_VOCAB_WORDS + 2}")
    forum_ops(run, state, reference=False)


def forum_ops(run, state, reference):
    """Fixed: held-out scoring with each kind at its stock M, and
    single-post mcd triage at M=50. Filler: one train step per kind."""
    served = state["served"]
    train_batches, score_batches, held = _forum_batches(state["examples"])
    triage_posts = shuffled_triage(run, held, inputs.FORUM_TRIAGE_POSTS)
    fixed = {f"score.{kind}": (FORUM_SCORE_OPS[kind],
                               score_op(run, served[kind], score_batches, reference))
             for kind in KINDS}
    fixed["triage"] = (len(triage_posts), triage_op(run, served["mcd"], triage_posts, reference))
    filler = train_round_op(run, state["trained"], train_batches, reference)
    if reference:
        reference_pass(fixed, {"triage": FORUM_REFERENCE_TRIAGE}, filler)
    else:
        interleave(run, fixed, filler)


# -- desk-protocol -------------------------------------------------------------

class ProtocolProbe:
    """Keeps what run_experiment's train() and predict_batch calls return,
    and in trace mode every step's loss, for the output checks."""

    def __init__(self, patches):
        self.patches = patches
        self.traces = []         # (kind, TrainResult)
        self.predictions = []    # (n posts, M, distributions)
        self.step_losses = []
        self.active = False      # records only while a protocol runs

    def install(self, keep_step_losses):
        probe = self

        def keep_trace(fn):
            def wrapper(model, *args, **kwargs):
                result = fn(model, *args, **kwargs)
                if probe.active:
                    probe.traces.append((model.kind, result))
                return result
            return wrapper

        def keep_predictions(fn):
            def wrapper(model, ids, *args, **kwargs):
                dists = fn(model, ids, *args, **kwargs)
                if probe.active:
                    probe.predictions.append((len(ids), samples_per_post(model), dists))
                return dists
            return wrapper

        def keep_losses(fn):
            def wrapper(*args, **kwargs):
                loss, parts = fn(*args, **kwargs)
                if probe.active:
                    probe.step_losses.append(loss.item())
                return loss, parts
            return wrapper

        self.patches.wrap(experiments, "train", keep_trace)
        for cls in (encoder.BaseClassifier, mcd.McdClassifier, vi.ViClassifier):
            self.patches.wrap(cls, "predict_batch", keep_predictions)
        if keep_step_losses:
            self.patches.wrap(encoder.BaseClassifier, "batch_loss_parts", keep_losses)
            self.patches.wrap(vi.ViClassifier, "batch_loss_parts", keep_losses)

    def take(self):
        kept = self.traces, self.predictions, self.step_losses
        self.traces, self.predictions, self.step_losses = [], [], []
        return kept


def _desk_plan(run, index):
    seed = int(RngStream(run.seed).child("protocol", index).generator().integers(2**62))
    return ExperimentPlan(
        protocol="40_60",
        n_runs=1,
        model_kinds=KINDS,
        seed=seed,
        hp=DESK_HP,
        train_cfg=TrainConfig(epochs=DESK_EPOCHS, batch_size=BATCH),
        mcd_cfg=DESK_MCD,
        vi_cfg=DESK_VI,
    )


def _check_summary(summary):
    problems = []
    table = summary["table"]
    for kind in KINDS:
        for key in METRIC_KEYS:
            cell = table.get(kind, {}).get(key, {})
            if set(cell) != {"mean", "variance", "std"}:
                problems.append(f"table[{kind}][{key}] has {sorted(cell)}")
    expected = 3 * len(COMPARISON_METRICS)
    if len(summary["comparisons"]) != expected:
        problems.append(f"{len(summary['comparisons'])} comparisons, expected {expected}")
    for kind in KINDS:
        recall = table[kind]["class_1.recall"]["mean"]
        if not recall >= DESK_RECALL_FLOOR:
            problems.append(f"{kind} urgent recall {recall} below {DESK_RECALL_FLOOR}")
    return problems


def run_desk(run):
    posts = inputs.desk_posts(run.seed)
    probe = ProtocolProbe(run.patches)
    probe.install(keep_step_losses=run.trace)

    def set_up():
        token_lists = [corpus.tokenize(p.text) for p in posts]
        vocab = corpus.build_vocabulary(token_lists, min_frequency=1)
        examples = corpus.examples_from_posts(posts, vocab, DESK_HP.max_len)
        emb = corpus.random_embeddings(vocab, DESK_HP.embed_dim, RngStream(run.seed))
        cfgs = {"mcd_cfg": DESK_MCD, "vi_cfg": DESK_VI}
        served = build_models(DESK_HP, emb.matrix, run.seed, **cfgs)
        trained = build_models(DESK_HP, emb.matrix, run.seed, **cfgs)
        run.warm_up(served["mcd"], examples)
        return {"vocab": vocab, "examples": examples, "emb": emb, "served": served,
                "trained": trained, "raw_lengths": [len(t) for t in token_lists]}

    state = run.setups(set_up, lambda st: desk_ops(run, probe, st, reference=True))
    run.detail["inputs"] = inputs.input_record(len(state["vocab"]), state["examples"], BATCH,
                                               state["raw_lengths"])
    desk_ops(run, probe, state, reference=False)


def desk_ops(run, probe, state, reference):
    """Fixed: one 40/60 protocol run, scoring the 1,200-post test split of a
    40/60 split with each kind, and single-post mcd triage at M=10.
    Filler: one epoch over the 800-post training split per kind."""
    examples, served = state["examples"], state["served"]
    train_split, test_split = corpus.stratified_split(examples, 0.4, run.seed)
    test_batch = [inputs.stack(test_split)]
    triage_posts = shuffled_triage(run, test_split, inputs.DESK_TRIAGE_POSTS)

    def protocol(index):
        plan = _desk_plan(run, index)
        label = f"protocol.{index}"
        probe.active = True
        summary, dt = run.op(label, lambda: experiments.run_experiment(
            examples, state["emb"].matrix, plan))
        probe.active = False
        traces, preds, losses = probe.take()
        if summary is None:
            return
        summary = summary.to_dict()
        problems = _check_summary(summary)
        for kind, result in traces:
            trace = [rec.loss for rec in result.loss_trace]
            if not all(map(math.isfinite, trace)):
                problems.append(f"{kind} loss trace {trace}")
        for n, m, dists in preds:
            problems += check_distributions(dists, n, m)
        if not run.check(label, problems):
            return
        if not reference:
            run.detail["protocol_run_s"] = dt
            run.detail["urgent_recall"] = {
                kind: summary["table"][kind]["class_1.recall"]["mean"] for kind in KINDS}
        run.keep(f"{label}.losses", np.array(losses).tobytes())
        run.keep(f"{label}.probs", b"".join(probs_fingerprint(d) for _, _, d in preds))
        run.keep(f"{label}.summary", json.dumps(summary).encode())

    fixed = {f"score.{kind}": (DESK_SCORE_OPS[kind],
                               score_op(run, served[kind], test_batch, reference))
             for kind in KINDS}
    fixed["triage"] = (len(triage_posts), triage_op(run, served["mcd"], triage_posts, reference))
    fixed["protocol"] = (1, protocol)
    filler = train_round_op(run, state["trained"], [train_split], reference)
    if reference:
        reference_pass(fixed, {"triage": len(triage_posts)}, filler)
    else:
        interleave(run, fixed, filler)


WORKLOADS = {"forum": run_forum, "desk-protocol": run_desk}
