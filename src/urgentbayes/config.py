"""Flat key-value run configuration.

One `key = value` per line, `#` starts a comment, blank lines ignored.
Unknown and duplicate keys are rejected so a typo cannot silently fall
back to a default. Every key has a documented default; the effective
(fully resolved) configuration is echoed next to any output a command
writes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .encoder import ATTENTION_MODES, HyperParams
from .errors import ConfigurationError
from .mcd import McdConfig
from .training import TrainConfig
from .vi import ViConfig


@dataclass
class RunConfig:
    # architecture
    max_len: int = 128
    embed_dim: int = 300
    hidden_dim: int = 128
    attention_mode: str = "softmax"
    z_dim: int = 16
    # training
    learning_rate: float = 1e-3
    batch_size: int = 64
    epochs: int = 20
    gradient_clip_norm: float | None = 5.0
    # sampling
    dropout_rate: float = 0.3
    mcd_samples: int = 50
    vi_train_samples: int = 1
    vi_test_samples: int = 20
    kl_weight: float = 1.0
    # corpus
    min_frequency: int = 2
    # paths (empty string = not set; flags may override)
    train_data: str = ""
    vocab_path: str = ""
    embeddings_path: str = ""
    out_dir: str = ""

    def validate(self) -> None:
        self.hyperparams().validate()
        self.train_config("base", 0).validate()
        self.mcd_config().validate()
        self.vi_config().validate()
        if self.min_frequency < 1:
            raise ConfigurationError("min_frequency must be at least 1")

    def hyperparams(self) -> HyperParams:
        return HyperParams(
            max_len=self.max_len,
            embed_dim=self.embed_dim,
            hidden_dim=self.hidden_dim,
            attention_mode=self.attention_mode,
            z_dim=self.z_dim,
        )

    def train_config(self, model_kind: str, seed: int) -> TrainConfig:
        return TrainConfig(
            learning_rate=self.learning_rate,
            batch_size=self.batch_size,
            epochs=self.epochs,
            seed=seed,
            model_kind=model_kind,
            gradient_clip_norm=self.gradient_clip_norm,
        )

    def mcd_config(self) -> McdConfig:
        return McdConfig(dropout_rate=self.dropout_rate, num_samples=self.mcd_samples)

    def vi_config(self) -> ViConfig:
        return ViConfig(
            z_dim=self.z_dim,
            m_train=self.vi_train_samples,
            m_test=self.vi_test_samples,
            kl_weight=self.kl_weight,
        )

    def effective_text(self) -> str:
        """The fully resolved configuration, echo-ready. Unset path
        keys (empty strings) are omitted so the text re-parses."""
        lines = ["# effective configuration"]
        for f in fields(self):
            value = getattr(self, f.name)
            if value == "":
                continue
            lines.append(f"{f.name} = {_render(value)}")
        return "\n".join(lines) + "\n"


def _render(value) -> str:
    if value is None:
        return "none"
    return str(value)


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _parse_value(key: str, raw: str, line_no: int):
    kind = _FIELD_TYPES[key]
    if key == "gradient_clip_norm":
        if raw.lower() == "none":
            return None
        kind = "float"
    try:
        if kind == "int":
            return int(raw)
        if kind in ("float", "float | None"):
            return float(raw)
    except ValueError:
        raise ConfigurationError(
            f"line {line_no}: value for {key!r} must be a {kind}, got {raw!r}"
        ) from None
    if key == "attention_mode" and raw not in ATTENTION_MODES:
        raise ConfigurationError(
            f"line {line_no}: attention_mode must be one of {ATTENTION_MODES}, got {raw!r}"
        )
    return raw


def parse_config(text: str) -> RunConfig:
    cfg = RunConfig()
    seen: set[str] = set()
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(
                f"line {line_no}: expected 'key = value', got {raw_line.strip()!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise ConfigurationError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"line {line_no}: duplicate key {key!r}")
        if not value:
            raise ConfigurationError(f"line {line_no}: empty value for {key!r}")
        seen.add(key)
        setattr(cfg, key, _parse_value(key, value, line_no))
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
