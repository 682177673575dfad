"""Flat key-value run configuration.

One `key = value` per line, `#` starts a comment, blank lines ignored.
Unknown and duplicate keys are rejected so a typo cannot silently fall
back to a default. Each key sets a field of one of the section configs
(`HyperParams`, `TrainConfig`, `McdConfig`, `ViConfig`), which hold its
default, type and checks; the effective (fully resolved) configuration
is echoed next to any output a command writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .corpus import read_text_lines
from .encoder import HyperParams
from .errors import ConfigurationError
from .mcd import McdConfig
from .training import TrainConfig
from .vi import ViConfig


@dataclass
class RunConfig:
    hp: HyperParams = field(default_factory=HyperParams)
    train_cfg: TrainConfig = field(default_factory=TrainConfig)
    mcd_cfg: McdConfig = field(default_factory=McdConfig)
    vi_cfg: ViConfig = field(default_factory=ViConfig)
    # corpus
    min_frequency: int = 2
    # paths (empty string = not set; flags may override)
    train_data: str = ""
    vocab_path: str = ""
    embeddings_path: str = ""
    out_dir: str = ""

    def validate(self) -> None:
        self.hp.validate()
        self.train_cfg.validate()
        self.mcd_cfg.validate()
        self.vi_cfg.validate()
        if self.min_frequency < 1:
            raise ConfigurationError("min_frequency must be at least 1")

    def effective_text(self) -> str:
        """The fully resolved configuration, echo-ready. Unset path
        keys (empty strings) are omitted so the text re-parses."""
        lines = ["# effective configuration"]
        for key in _KEYS:
            value = getattr(*_targets(self, key)[0])
            if value == "":
                continue
            lines.append(f"{key} = {'none' if value is None else value}")
        return "\n".join(lines) + "\n"


# Every file key, in echo order, with the fields it sets: "section.field",
# or a bare name for a field of RunConfig itself.
_KEYS = {
    "max_len": ("hp.max_len",),
    "embed_dim": ("hp.embed_dim",),
    "hidden_dim": ("hp.hidden_dim",),
    "attention_mode": ("hp.attention_mode",),
    "z_dim": ("hp.z_dim", "vi_cfg.z_dim"),
    "learning_rate": ("train_cfg.learning_rate",),
    "batch_size": ("train_cfg.batch_size",),
    "epochs": ("train_cfg.epochs",),
    "gradient_clip_norm": ("train_cfg.gradient_clip_norm",),
    "dropout_rate": ("mcd_cfg.dropout_rate",),
    "mcd_samples": ("mcd_cfg.num_samples",),
    "vi_train_samples": ("vi_cfg.m_train",),
    "vi_test_samples": ("vi_cfg.m_test",),
    "kl_weight": ("vi_cfg.kl_weight",),
    "min_frequency": ("min_frequency",),
    "train_data": ("train_data",),
    "vocab_path": ("vocab_path",),
    "embeddings_path": ("embeddings_path",),
    "out_dir": ("out_dir",),
}


def _targets(cfg: RunConfig, key: str) -> list[tuple[object, str]]:
    """The (owner, attribute) pairs that file key `key` sets on `cfg`."""
    splits = [path.rpartition(".") for path in _KEYS[key]]
    return [(getattr(cfg, section) if section else cfg, name) for section, _, name in splits]


def _parse_value(key: str, raw: str, kind: type, line_no: int):
    if kind is str:
        return raw
    if key == "gradient_clip_norm" and raw.lower() == "none":
        return None
    try:
        return kind(raw)
    except ValueError:
        raise ConfigurationError(
            f"line {line_no}: value for {key!r} must be a {kind.__name__}, got {raw!r}"
        ) from None


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
        if key not in _KEYS:
            raise ConfigurationError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"line {line_no}: duplicate key {key!r}")
        if not value:
            raise ConfigurationError(f"line {line_no}: empty value for {key!r}")
        seen.add(key)
        targets = _targets(cfg, key)
        # a key is set once, so its field still holds the default, whose
        # type is the key's type
        parsed = _parse_value(key, value, type(getattr(*targets[0])), line_no)
        for owner, name in targets:
            setattr(owner, name, parsed)
    cfg.validate()
    return cfg


def load_config(path: str) -> RunConfig:
    return parse_config("".join(read_text_lines(path, "config", ConfigurationError)))
