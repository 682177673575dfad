"""Fingerprint the outputs a change must keep, and compare two fingerprints.

Runs a fixed set of commands with fixed seeds and records a SHA-256 digest
of each artifact:

- `prepare` of a synthetic desk-shaped corpus (vocabulary, dataset);
- CLI `train` for base, mcd and vi (`loss_trace.json`, checkpoint);
- `predict --show-samples` with each checkpoint;
- `experiment` under the 80/20 and 40/60 protocols (`experiment_summary.json`);
- the `gradcheck` text;
- a forum-shape `train` call per kind (vocabulary 20,000, `max_len` 64,
  batch 64, stock widths, 1,024 posts, 2 epochs, so the embedding's
  optimizer state goes dense mid-run), ending with every weight and the
  full Adam moments.

Usage:

    python tools/fingerprint.py OUT_DIR [--against OTHER_DIR] [--tiny]

OUT_DIR receives `fingerprint.json` (artifact -> digest) and
`fingerprint.npz` (each artifact's numbers as one float64 vector, in a
fixed order). With `--against`, each artifact is reported as "identical"
or by the largest relative and absolute differences of its numbers from
OTHER_DIR's, and how many of them differ.
`--tiny` shrinks every shape so the whole set runs in seconds; its
digests are not comparable with full-size ones.  Digests depend on the
BLAS kernels and the CPU: compare runs made on one machine.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from urgentbayes import cli, training  # noqa: E402
from urgentbayes.checkpoint import load_checkpoint  # noqa: E402
from urgentbayes.corpus import LabeledExample  # noqa: E402
from urgentbayes.encoder import MODEL_KINDS, HyperParams  # noqa: E402
from urgentbayes.synthetic import imbalanced_corpus, write_posts_csv  # noqa: E402

SEED = 7
PREDICT_TEXT = "the quiz deadline is tomorrow and my submit page is failing"

# (desk posts, config lines, experiment runs), and the forum shape
FULL = dict(
    posts=600,
    config="max_len = 12\nembed_dim = 16\nhidden_dim = 8\nz_dim = 4\n"
    "epochs = 3\nbatch_size = 32\nlearning_rate = 0.01\ngradient_clip_norm = 0.5\n",
    runs=2,
    forum=dict(vocab=20_000, posts=1_024, epochs=2, hp=HyperParams(max_len=64)),
)
TINY = dict(
    posts=60,
    config="max_len = 6\nembed_dim = 4\nhidden_dim = 3\nz_dim = 2\n"
    "epochs = 1\nbatch_size = 16\nlearning_rate = 0.01\nmcd_samples = 3\n"
    "vi_train_samples = 2\nvi_test_samples = 3\n",
    runs=2,
    forum=dict(
        vocab=200, posts=96, epochs=2,
        hp=HyperParams(max_len=8, embed_dim=6, hidden_dim=4, z_dim=2),
    ),
)

_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _text_numbers(text):
    return np.array([float(x) for x in _NUMBER.findall(text)], dtype=np.float64)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"urgentbayes {' '.join(argv)} exited {code}")
    return out.getvalue()


class Fingerprint:
    def __init__(self):
        self.digests = {}
        self.numbers = {}

    def add(self, name, blob, numbers):
        self.digests[name] = hashlib.sha256(blob).hexdigest()
        self.numbers[name] = np.asarray(numbers, dtype=np.float64).reshape(-1)

    def add_text(self, name, text):
        self.add(name, text.encode("utf-8"), _text_numbers(text))

    def add_file(self, name, path):
        blob = Path(path).read_bytes()
        if path.endswith(".ckpt"):
            blocks = load_checkpoint(path).params.values()
            numbers = np.concatenate([b.reshape(-1) for b in blocks])
        elif path.endswith(".npz"):
            with np.load(path) as arrays:
                numbers = np.concatenate([arrays[k].reshape(-1) for k in sorted(arrays)])
        else:
            numbers = _text_numbers(blob.decode("utf-8"))
        self.add(name, blob, numbers)

    def add_arrays(self, name, arrays):
        digest = hashlib.sha256()
        for a in arrays:
            a = np.ascontiguousarray(a, dtype=np.float64)
            digest.update(repr(a.shape).encode())
            digest.update(a.tobytes())
        self.digests[name] = digest.hexdigest()
        self.numbers[name] = np.concatenate([np.reshape(a, -1) for a in arrays])

    def save(self, out_dir):
        with open(os.path.join(out_dir, "fingerprint.json"), "w", encoding="utf-8") as f:
            json.dump(self.digests, f, indent=2, sort_keys=True)
        np.savez(os.path.join(out_dir, "fingerprint.npz"), **self.numbers)


def cli_artifacts(fp, shape, work):
    csv_path = os.path.join(work, "posts.csv")
    write_posts_csv(csv_path, imbalanced_corpus(shape["posts"], seed=SEED))
    config = os.path.join(work, "run.cfg")
    Path(config).write_text(shape["config"], encoding="utf-8")
    prepared = os.path.join(work, "prepared")
    _run_cli(["prepare", "--data", csv_path, "--out", prepared, "--config", config])
    fp.add_file("prepare/vocab.txt", os.path.join(prepared, "vocab.txt"))
    fp.add_file("prepare/dataset.npz", os.path.join(prepared, "dataset.npz"))
    data = ["--config", config, "--data", os.path.join(prepared, "dataset.npz"),
            "--vocab", os.path.join(prepared, "vocab.txt"), "--seed", str(SEED)]
    for kind in MODEL_KINDS:
        out = os.path.join(work, f"train_{kind}")
        _run_cli(["train", "--model", kind, "--out", out, *data])
        fp.add_file(f"train/{kind}/loss_trace.json", os.path.join(out, "loss_trace.json"))
        ckpt = os.path.join(out, f"model_{kind}.ckpt")
        fp.add_file(f"train/{kind}/model.ckpt", ckpt)
        fp.add_text(f"predict/{kind}", _run_cli(
            ["predict", "--checkpoint", ckpt, "--text", PREDICT_TEXT,
             "--seed", str(SEED), "--show-samples"]
        ))
    for protocol in ("80_20", "40_60"):
        out = os.path.join(work, f"experiment_{protocol}")
        _run_cli(["experiment", "--protocol", protocol, "--runs", str(shape["runs"]),
                  "--models", ",".join(MODEL_KINDS), "--out", out, *data])
        fp.add_file(f"experiment/{protocol}", os.path.join(out, "experiment_summary.json"))
    fp.add_text("gradcheck", _run_cli(["gradcheck"]))


def forum_examples(vocab, posts, max_len, gen):
    """Posts of Zipf-distributed token ids with log-normal lengths around
    36 tokens, 19% urgent; each carries one of four class marker ids.  The
    exponent 0.8 spreads the ids so that, at full size, more than half the
    embedding's rows are live from step 12 of the first epoch on."""
    ranks = np.arange(1, vocab - 9, dtype=np.float64)
    weights = ranks**-0.8
    weights /= weights.sum()
    examples = []
    for i in range(posts):
        length = int(np.clip(np.rint(36.0 * np.exp(gen.standard_normal())), 1, max_len))
        label = int(gen.random() < 0.19)
        ids = np.zeros(max_len, dtype=np.int64)
        ids[:length] = 10 + gen.choice(vocab - 10, size=length, p=weights)
        ids[int(gen.integers(0, length))] = 2 + 4 * label + int(gen.integers(0, 4))
        examples.append(LabeledExample(ids, length, label))
    return examples


def _full_moments(state, i):
    # trees older than `AdaptiveMomentState.moments` keep full moment arrays
    if hasattr(state, "moments"):
        return state.moments(i)
    return state.first[i], state.second[i]


def forum_artifacts(fp, shape):
    forum = shape["forum"]
    hp = forum["hp"]
    gen = np.random.default_rng(SEED)
    examples = forum_examples(forum["vocab"], forum["posts"], hp.max_len, gen)
    matrix = gen.uniform(-0.5, 0.5, (forum["vocab"], hp.embed_dim))
    states = []
    real_state = training.AdaptiveMomentState

    class RecordingState(real_state):
        def __init__(self, params):
            super().__init__(params)
            states.append(self)

    training.AdaptiveMomentState = RecordingState
    try:
        for kind in MODEL_KINDS:
            model = training.build_model(hp, matrix, kind, SEED)
            cfg = training.TrainConfig(epochs=forum["epochs"], seed=SEED, model_kind=kind)
            result = training.train(model, examples, cfg)
            state = states[-1]
            params = model.parameters()
            losses = [r.loss for r in result.loss_trace]
            fp.add(f"forum/{kind}/losses", np.array(losses).tobytes(), losses)
            fp.add_arrays(f"forum/{kind}/weights", [p.data for p in params])
            fp.add_arrays(f"forum/{kind}/moments",
                          [m for i in range(len(params)) for m in _full_moments(state, i)])
    finally:
        training.AdaptiveMomentState = real_state


def describe_difference(a, b):
    """The largest relative and absolute differences of two artifacts'
    numbers, and how many differ: a large relative difference on a tiny
    value is told apart from one on a large value."""
    if a.shape != b.shape:
        return f"different shape: {a.size} numbers against {b.size}"
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):
        diff = np.where(same, 0.0, np.abs(a - b))
    diff[np.isnan(diff)] = np.inf   # a NaN against a number
    with np.errstate(invalid="ignore", divide="ignore"):
        rel = np.where(np.isinf(diff), np.inf, diff / np.fmax(np.abs(a), np.abs(b)))
    rel[same] = 0.0
    return (
        f"largest relative difference {rel.max(initial=0.0):.3e}, "
        f"absolute {diff.max(initial=0.0):.3e}; "
        f"{a.size - np.count_nonzero(same)} of {a.size} numbers differ"
    )


def compare(out_dir, other_dir):
    """Prints one line per artifact; returns the number that differ."""
    loaded = []
    for d in (out_dir, other_dir):
        with open(os.path.join(d, "fingerprint.json"), encoding="utf-8") as f:
            digests = json.load(f)
        with np.load(os.path.join(d, "fingerprint.npz")) as arrays:
            loaded.append((digests, {k: arrays[k] for k in arrays}))
    (mine, my_numbers), (theirs, their_numbers) = loaded
    differ = 0
    for name in sorted(set(mine) | set(theirs)):
        if name not in mine or name not in theirs:
            verdict = f"only in {out_dir if name in mine else other_dir}"
        elif mine[name] == theirs[name]:
            verdict = "identical"
        else:
            verdict = describe_difference(my_numbers[name], their_numbers[name])
        differ += verdict != "identical"
        print(f"{name:<32} {verdict}")
    return differ


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir")
    parser.add_argument("--against", default=None, help="a fingerprint directory to compare with")
    parser.add_argument("--tiny", action="store_true", help="tiny shapes, for a smoke run")
    args = parser.parse_args(argv)
    shape = TINY if args.tiny else FULL
    os.makedirs(args.out_dir, exist_ok=True)
    fp = Fingerprint()
    with tempfile.TemporaryDirectory() as work:
        cli_artifacts(fp, shape, work)
    forum_artifacts(fp, shape)
    fp.save(args.out_dir)
    print(f"{len(fp.digests)} artifacts written to {args.out_dir}")
    if args.against:
        return 1 if compare(args.out_dir, args.against) else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
