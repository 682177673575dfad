"""Command-line front end.

Subcommands: prepare, train, evaluate, experiment, predict, gradcheck.
Every command is deterministic given its flags, config file, and the
single root seed; all subsystem randomness derives from that seed.
Exit codes: 0 success; a package error prints one `error:` line and
exits with the code its class declares (see `errors`); a failed
gradient check exits with the numerical-divergence code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from .autodiff import RngStream, derive_seed
from .checkpoint import load_checkpoint, restore_model, save_checkpoint
from .config import RunConfig, load_config
from .corpus import (
    build_vocabulary,
    encode,
    examples_from_posts,
    load_dataset,
    load_posts,
    load_pretrained_embeddings,
    load_vocabulary,
    random_embeddings,
    save_dataset,
    save_vocabulary,
    tokenize,
)
from .encoder import MODEL_KINDS
from .errors import DataError, DivergenceError, UrgentBayesError, UsageError
from .experiments import PROTOCOLS, ExperimentPlan, run_experiment
from .gradchecks import format_checks, run_all
from .training import build_model, evaluate, train

EXIT_OK = 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _load_run_config(path: str | None) -> RunConfig:
    return load_config(path) if path else RunConfig()


def _resolve(flag_value: str | None, config_value: str, what: str) -> str:
    value = flag_value or config_value
    if not value:
        raise UsageError(f"{what} not given (flag or config key required)")
    return value


def _embeddings(cfg: RunConfig, vocab, seed: int):
    if cfg.embeddings_path:
        return load_pretrained_embeddings(
            cfg.embeddings_path, vocab, d=cfg.hp.embed_dim,
            rng=RngStream(seed).child("embeddings"),
        )
    return random_embeddings(vocab, d=cfg.hp.embed_dim, rng=RngStream(seed).child("embeddings"))


def _make_out_dir(path: str) -> None:
    """Create an output directory before any work that would write into it."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {path}: {exc}") from exc


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2))


def cmd_prepare(args) -> int:
    cfg = _load_run_config(args.config)
    if args.min_freq is not None:
        cfg.min_frequency = args.min_freq
    if args.max_len is not None:
        cfg.hp.max_len = args.max_len
    cfg.validate()
    _make_out_dir(args.out)
    posts = load_posts(args.data)
    token_lists = [tokenize(p.text) for p in posts]
    vocab = build_vocabulary(token_lists, min_frequency=cfg.min_frequency)
    examples = examples_from_posts(posts, vocab, max_len=cfg.hp.max_len)

    vocab_path = os.path.join(args.out, "vocab.txt")
    dataset_path = os.path.join(args.out, "dataset.npz")
    save_vocabulary(vocab, vocab_path)
    save_dataset(dataset_path, examples)

    total_tokens = sum(len(ts) for ts in token_lists)
    known = sum(1 for ts in token_lists for t in ts if t in vocab)
    counts = {"0": 0, "1": 0}
    for ex in examples:
        counts[str(ex.label)] += 1
    summary = {
        "n_posts": len(posts),
        "class_counts": counts,
        "vocab_size": len(vocab),
        "token_coverage": (known / total_tokens) if total_tokens else 0.0,
        "max_len": cfg.hp.max_len,
        "min_frequency": cfg.min_frequency,
        "vocab_path": vocab_path,
        "dataset_path": dataset_path,
    }
    with open(os.path.join(args.out, "summary.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2)
    _print_json(summary)
    return EXIT_OK


def _write_effective(cfg: RunConfig, out_dir: str) -> None:
    with open(os.path.join(out_dir, "effective_config.txt"), "w", encoding="utf-8") as f:
        f.write(cfg.effective_text())


def _check_token_ids(examples, data_path: str, vocab, vocab_source: str) -> None:
    """Fails before any model is built when a dataset uses token ids that
    its vocabulary does not hold, as when the two come from different
    `prepare` runs."""
    top = max(int(ex.token_ids.max()) for ex in examples)
    if top >= len(vocab):
        raise DataError(
            f"dataset {data_path} uses token id {top}, but {vocab_source} holds only "
            f"{len(vocab)} tokens; were they made by the same prepare run?"
        )


def _load_inputs(args, data_what: str, out_required: bool):
    """The run config, examples, vocabulary, embeddings and output
    directory (created; "" when optional and unset) of train and experiment."""
    cfg = _load_run_config(args.config)
    data_path = _resolve(args.data, cfg.train_data, data_what)
    vocab_path = _resolve(args.vocab, cfg.vocab_path, "vocabulary path")
    if out_required:
        out_dir = _resolve(args.out, cfg.out_dir, "output directory")
    else:
        out_dir = args.out or cfg.out_dir
    if out_dir:
        _make_out_dir(out_dir)
    examples = load_dataset(data_path)
    vocab = load_vocabulary(vocab_path)
    _check_token_ids(examples, data_path, vocab, f"vocabulary {vocab_path}")
    return cfg, examples, vocab, _embeddings(cfg, vocab, args.seed), out_dir


def cmd_train(args) -> int:
    cfg, examples, vocab, emb, out_dir = _load_inputs(
        args, "training data path", out_required=True
    )
    model = build_model(
        cfg.hp, emb.matrix, args.model, derive_seed(args.seed, "model"),
        mcd_cfg=cfg.mcd_cfg, vi_cfg=cfg.vi_cfg,
    )
    train_cfg = replace(
        cfg.train_cfg, model_kind=args.model, seed=derive_seed(args.seed, "train")
    )
    result = train(model, examples, train_cfg)

    ckpt_path = os.path.join(out_dir, f"model_{args.model}.ckpt")
    save_checkpoint(ckpt_path, model, vocab.id_to_token)
    trace = [
        {"epoch": r.epoch, "loss": r.loss, "parts": r.parts}
        for r in result.loss_trace
    ]
    with open(os.path.join(out_dir, "loss_trace.json"), "w", encoding="utf-8") as f:
        json.dump(trace, f, indent=2)
    _write_effective(cfg, out_dir)
    _print_json(
        {
            "model_kind": args.model,
            "checkpoint": ckpt_path,
            "epochs": len(trace),
            "final_loss": trace[-1]["loss"] if trace else None,
            "embedding_coverage": emb.coverage,
        }
    )
    return EXIT_OK


def cmd_evaluate(args) -> int:
    data = load_checkpoint(args.checkpoint)
    model = restore_model(data)
    examples = load_dataset(args.test)
    _check_token_ids(
        examples, args.test, data.vocabulary(), f"the vocabulary of {args.checkpoint}"
    )
    report = evaluate(model, examples, RngStream(args.seed).child("eval"))
    _print_json(report.to_dict())
    return EXIT_OK


def cmd_experiment(args) -> int:
    cfg, examples, _, emb, out_dir = _load_inputs(args, "data path", out_required=False)
    kinds = tuple(k.strip() for k in args.models.split(",") if k.strip())
    plan = ExperimentPlan(
        protocol=args.protocol,
        n_runs=args.runs,
        model_kinds=kinds,
        seed=args.seed,
        hp=cfg.hp,
        train_cfg=cfg.train_cfg,
        mcd_cfg=cfg.mcd_cfg,
        vi_cfg=cfg.vi_cfg,
    )
    summary = run_experiment(examples, emb.matrix, plan)
    text = summary.to_json()
    if out_dir:
        with open(
            os.path.join(out_dir, "experiment_summary.json"), "w", encoding="utf-8"
        ) as f:
            f.write(text)
        _write_effective(cfg, out_dir)
    print(text)
    return EXIT_OK


def cmd_predict(args) -> int:
    data = load_checkpoint(args.checkpoint)
    model = restore_model(data)
    vocab = data.vocabulary()
    tokens = tokenize(args.text)
    if not tokens:
        raise DataError("input text has no tokens")
    ids, true_length = encode(tokens, vocab, max_len=model.hp.max_len)
    dist = model.predict_batch(
        ids[None, :], np.array([true_length]), RngStream(args.seed).child("predict")
    )[0]
    record = {
        "text": args.text,
        "predicted_label": dist.predicted_label,
        "mean_probs": [float(p) for p in dist.mean_probs],
        "entropy": dist.entropy,
        "model_kind": model.kind,
        "num_samples": dist.per_sample_logits.shape[0],
        "mc_standard_error": dist.mc_standard_error._asdict(),
    }
    if args.show_samples:
        record["per_sample_logits"] = dist.per_sample_logits.tolist()
    _print_json(record)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    checks = run_all(size=args.size, seed=args.seed)
    print(format_checks(checks))
    return EXIT_OK if all(c.passed for c in checks) else DivergenceError.exit_code


def build_parser() -> _Parser:
    parser = _Parser(
        prog="urgentbayes",
        description="Urgency classification with deterministic and Bayesian "
        "recurrent models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="tokenize and encode a posts CSV")
    p.add_argument("--data", required=True, help="CSV with text,urgency columns")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None)
    p.add_argument("--min-freq", type=int, default=None, dest="min_freq")
    p.add_argument("--max-len", type=int, default=None, dest="max_len")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train one model kind")
    p.add_argument("--model", required=True, choices=MODEL_KINDS)
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data", default=None, help="encoded dataset (.npz)")
    p.add_argument("--vocab", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--test", required=True, help="encoded dataset (.npz)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="run a multi-seed protocol")
    p.add_argument("--protocol", required=True, choices=tuple(PROTOCOLS))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--models", default="base,mcd,vi")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--data", default=None)
    p.add_argument("--vocab", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser("predict", help="classify one post with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--text", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--show-samples", action="store_true", dest="show_samples")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference verification suite")
    p.add_argument("--size", default="small", choices=("small", "large"))
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UrgentBayesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
