"""Spans recorded around calls into the program's modules.

The program is not changed: `Patches` replaces module attributes and class
methods with wrappers and puts the originals back on exit. A `Tracer`
records one span per wrapped call (name, start, end, parent span, op id),
keeps the spans in memory and charges each span's self time (its duration
minus that of its child spans) to a per-layer metric key. Metric keys take
the kind of the enclosing train or predict call as a suffix where the kind
matters.
"""

from __future__ import annotations

import functools
import json
import time

from urgentbayes import (
    autodiff,
    checkpoint,
    corpus,
    encoder,
    experiments,
    mcd,
    training,
    vi,
)

KINDS = ("base", "mcd", "vi")
PREDICT_TAGS = KINDS + ("triage",)

TRAIN_LAYERS = (
    "encoder.embed_fwd_s",
    "encoder.lstm1_fwd_s",
    "encoder.lstm2_fwd_s",
    "encoder.attention_fwd_s",
    "encoder.other_fwd_s",
    "head.fwd_s",
    "autodiff.backward_s",
    "training.clip_s",
    "training.adam_s",
    "training.other_s",
)
PREDICT_LAYERS = (
    "encoder.infer_s",
    "encoder.aggregate_s",
    "predict.other_s",
)
SETUP_LAYERS = ("corpus.prepare_s", "checkpoint.save_s", "checkpoint.load_s")
PROTOCOL_LAYERS = ("corpus.split_s", "metrics.compare_s", "experiments.other_s")
PROTOCOL_KIND_LAYERS = ("training.train_s", "training.evaluate_s")


def per_layer_units():
    """Metric key -> unit for every per-layer metric: training layers once
    per kind, prediction layers once per predict tag."""
    units = {}
    for kind in KINDS:
        for name in TRAIN_LAYERS:
            units[f"{name}.{kind}"] = "s"
        units[f"autodiff.tape_nodes.{kind}"] = "count"
    for tag in PREDICT_TAGS:
        for name in PREDICT_LAYERS:
            units[f"{name}.{tag}"] = "s"
        units[f"encoder.infer_calls.{tag}"] = "count"
    for name in SETUP_LAYERS + PROTOCOL_LAYERS:
        units[name] = "s"
    for kind in KINDS:
        for name in PROTOCOL_KIND_LAYERS:
            units[f"{name}.{kind}"] = "s"
    return units


class Patches:
    """Replaces attributes with wrappers; `restore` undoes them in reverse."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, name, make_wrapper):
        original = owner.__dict__[name]
        wrapper = functools.wraps(original)(make_wrapper(original))
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper)

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(self):
        self.spans = []          # (span id, parent id, op id, name, start, end)
        self._stack = []         # [span id, name, key, start, child seconds]
        self._context = []       # kind or predict tag of the enclosing call
        self.op_id = 0
        self._next_id = 0
        self._infers = 0
        self.self_seconds = {}
        self.train_steps = {k: 0 for k in KINDS}
        self.predict_calls = {t: 0 for t in PREDICT_TAGS}
        self.infer_calls = {t: 0 for t in PREDICT_TAGS}
        self.tape_nodes = {}
        self.setup_reps = 0
        self.protocol_runs = 0
        self.tag = None          # set by the benchmark: "triage" or "warmup"

    # -- recording ---------------------------------------------------------

    def new_op(self):
        self.op_id += 1

    def _kind(self):
        return self._context[-1] if self._context else None

    def _enter(self, name, key):
        span_id = self._next_id
        self._next_id += 1
        self._stack.append([span_id, name, key, time.perf_counter(), 0.0])

    def _exit(self):
        end = time.perf_counter()
        span_id, name, key, start, child = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][0] if self._stack else None
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, parent, self.op_id, name, start, end))
        if key is not None:
            self.self_seconds[key] = self.self_seconds.get(key, 0.0) + duration - child

    def span(self, name, key, fn, *args, **kwargs):
        self._enter(name, key)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit()

    # -- installation --------------------------------------------------------

    def _spanned(self, name, metric, suffixed=True):
        """Wrapper factory: one span per call, self time charged to
        `metric` (suffixed by the current kind when `suffixed`)."""

        def make(fn):
            def wrapper(*args, **kwargs):
                kind = self._kind()
                key = f"{metric}.{kind}" if suffixed and kind else (None if suffixed else metric)
                return self.span(name, key, fn, *args, **kwargs)

            return wrapper

        return make

    def install(self, p):
        """Wraps every traced function; `p.restore()` removes the wrappers."""
        spanned = self._spanned

        p.wrap(encoder, "gather_rows", spanned("encoder.gather_rows", "encoder.embed_fwd_s"))
        p.wrap(encoder, "attention_scores", spanned("encoder.attention_scores", "encoder.attention_fwd_s"))
        p.wrap(encoder, "context_vector", spanned("encoder.context_vector", "encoder.attention_fwd_s"))
        p.wrap(encoder.BaseClassifier, "batch_states", spanned("encoder.batch_states", "encoder.other_fwd_s"))
        p.wrap(encoder.BaseClassifier, "infer_states", self._infer_wrapper)
        p.wrap(encoder.BaseClassifier, "batch_loss_parts", self._loss_wrapper)
        p.wrap(vi.ViClassifier, "batch_loss_parts", self._loss_wrapper)
        p.wrap(encoder, "lstm_step", self._lstm_wrapper)
        for module in (encoder, mcd, vi):
            p.wrap(module, "aggregate_logit_samples",
                   spanned(f"{module.__name__.rsplit('.', 1)[1]}.aggregate_logit_samples",
                           "encoder.aggregate_s"))
        for cls in (encoder.BaseClassifier, mcd.McdClassifier, vi.ViClassifier):
            p.wrap(cls, "predict_batch", self._predict_wrapper)

        p.wrap(training, "backward", self._backward_wrapper)
        p.wrap(training, "clip_gradient_norm", spanned("training.clip_gradient_norm", "training.clip_s"))
        p.wrap(training, "adaptive_moment_step", spanned("training.adaptive_moment_step", "training.adam_s"))
        p.wrap(training, "train", self._train_wrapper)
        p.wrap(training, "evaluate", self._evaluate_wrapper)
        p.wrap(experiments, "train", self._train_wrapper)
        p.wrap(experiments, "evaluate", self._evaluate_wrapper)

        for fn in ("load_posts", "tokenize", "build_vocabulary", "examples_from_posts",
                   "random_embeddings"):
            p.wrap(corpus, fn, spanned(f"corpus.{fn}", "corpus.prepare_s", suffixed=False))
        p.wrap(experiments, "stratified_split",
               spanned("corpus.stratified_split", "corpus.split_s", suffixed=False))
        p.wrap(checkpoint, "save_checkpoint",
               spanned("checkpoint.save_checkpoint", "checkpoint.save_s", suffixed=False))
        p.wrap(checkpoint, "load_checkpoint",
               spanned("checkpoint.load_checkpoint", "checkpoint.load_s", suffixed=False))
        p.wrap(checkpoint, "restore_model",
               spanned("checkpoint.restore_model", "checkpoint.load_s", suffixed=False))
        p.wrap(experiments, "wilcoxon_signed_rank",
               spanned("metrics.wilcoxon_signed_rank", "metrics.compare_s", suffixed=False))
        p.wrap(experiments, "run_experiment", self._experiment_wrapper)

    # -- wrappers that set context or count work ----------------------------

    def _lstm_wrapper(self, fn):
        def wrapper(params, *args, **kwargs):
            layer = "lstm1" if params.input_weights.name.startswith("layer1") else "lstm2"
            kind = self._kind()
            return self.span("encoder.lstm_step", f"encoder.{layer}_fwd_s.{kind}", fn,
                             params, *args, **kwargs)

        return wrapper

    def _infer_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self._infers += 1
            return self.span("encoder.infer_states", f"encoder.infer_s.{self._kind()}", fn,
                             *args, **kwargs)

        return wrapper

    def _loss_wrapper(self, fn):
        def wrapper(model, *args, **kwargs):
            kind = self._kind()
            if kind in KINDS:
                self.new_op()
                self.train_steps[kind] += 1
            return self.span("model.batch_loss_parts", f"head.fwd_s.{kind}", fn,
                             model, *args, **kwargs)

        return wrapper

    def _backward_wrapper(self, fn):
        def wrapper(loss):
            kind = self._kind()
            if kind not in self.tape_nodes:
                # counted once per kind, on its first step, outside any layer
                self.tape_nodes[kind] = self.span(
                    "tracer.count", None, lambda: len(autodiff._topological_order(loss)))
            return self.span("training.backward", f"autodiff.backward_s.{kind}", fn, loss)

        return wrapper

    def _train_wrapper(self, fn):
        def wrapper(model, *args, **kwargs):
            self._context.append(model.kind)
            try:
                key = f"training.train_s.{model.kind}" if self.in_protocol() else None
                self._enter("training.train", f"training.other_s.{model.kind}")
                try:
                    return fn(model, *args, **kwargs)
                finally:
                    self._exit_with_total(key)
            finally:
                self._context.pop()

        return wrapper

    def _evaluate_wrapper(self, fn):
        def wrapper(model, *args, **kwargs):
            key = f"training.evaluate_s.{model.kind}" if self.in_protocol() else None
            self._enter("training.evaluate", None)
            try:
                return fn(model, *args, **kwargs)
            finally:
                self._exit_with_total(key)

        return wrapper

    def _predict_wrapper(self, fn):
        def wrapper(model, ids, *args, **kwargs):
            tag = self.tag or model.kind
            if not self.in_protocol():
                self.new_op()
            self.predict_calls[tag] = self.predict_calls.get(tag, 0) + 1
            self._context.append(tag)
            before = self._infers
            try:
                return self.span("model.predict_batch", f"predict.other_s.{tag}", fn,
                                 model, ids, *args, **kwargs)
            finally:
                self.infer_calls[tag] = self.infer_calls.get(tag, 0) + self._infers - before
                self._context.pop()

        return wrapper

    def _experiment_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            self.new_op()
            self.protocol_runs += 1
            return self.span("experiments.run_experiment", "experiments.other_s", fn,
                             *args, **kwargs)

        return wrapper

    def in_protocol(self):
        return any(frame[1] == "experiments.run_experiment" for frame in self._stack)

    def _exit_with_total(self, total_key):
        start = self._stack[-1][3]
        self._exit()
        if total_key is not None:
            duration = self.spans[-1][5] - start
            self.self_seconds[total_key] = self.self_seconds.get(total_key, 0.0) + duration

    # -- results -------------------------------------------------------------

    def per_layer(self):
        """Every per-layer metric: seconds of self time per op, and counts."""
        out = {}
        for key, unit in per_layer_units().items():
            if key.startswith("autodiff.tape_nodes."):
                value = self.tape_nodes.get(key.rsplit(".", 1)[1], 0)
            elif key.startswith("encoder.infer_calls."):
                tag = key.rsplit(".", 1)[1]
                calls = self.predict_calls[tag]
                value = self.infer_calls[tag] / calls if calls else 0
            else:
                value = self.self_seconds.get(key, 0.0) / max(1, self._ops_for(key))
            out[key] = {"value": value, "unit": unit}
        return out

    def _ops_for(self, key):
        suffix = key.rsplit(".", 1)[1]
        base = key.rsplit(".", 1)[0]
        if base in TRAIN_LAYERS:
            return self.train_steps[suffix]
        if base in PREDICT_LAYERS:
            return self.predict_calls[suffix]
        if key in SETUP_LAYERS:
            return self.setup_reps
        return self.protocol_runs

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span_id, parent, op, name, start, end in self.spans:
                f.write(json.dumps({"id": span_id, "parent": parent, "op": op, "name": name,
                                    "start": start, "end": end}) + "\n")
