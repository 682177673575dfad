"""Binary checkpoint format.

Layout: a magic line, a little-endian uint32 format version, a
length-prefixed JSON header (model kind, hyperparameters, sampling
configs, vocabulary tokens in id order), then named parameter blocks.
Each block stores the name, the shape, and the values as row-major
float64 little-endian bytes. Loading rejects unknown versions, bad
magic, truncation, header values no model can be built from, and any
name or shape that disagrees with the model rebuilt from the header.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import Vocabulary
from .encoder import MODEL_KINDS, BaseClassifier, HyperParams
from .errors import CheckpointError, ConfigurationError
from .mcd import McdConfig
from .metrics import NUM_CLASSES
from .training import build_model
from .vi import ViConfig

MAGIC = b"URGENTBAYES-CKPT\n"
FORMAT_VERSION = 1

# header keys of removed settings that had one legal value; older files
# carry them and still load, at that value only
LEGACY_KEYS = {
    "hyperparams": {"num_layers": 2, "num_classes": 2},
    "mcd": {"aggregate": "mean_logits"},
}


@dataclass
class CheckpointData:
    model_kind: str
    hyperparams: HyperParams
    mcd_cfg: McdConfig | None
    vi_cfg: ViConfig | None
    vocab_tokens: list[str]
    params: dict[str, np.ndarray]

    def vocabulary(self) -> Vocabulary:
        token_to_id = {tok: i for i, tok in enumerate(self.vocab_tokens)}
        return Vocabulary(token_to_id=token_to_id, id_to_token=list(self.vocab_tokens))


def _write_block(out, name: str, array: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    out.write(struct.pack("<I", len(encoded)))
    out.write(encoded)
    out.write(struct.pack("<I", array.ndim))
    for dim in array.shape:
        out.write(struct.pack("<Q", dim))
    out.write(np.ascontiguousarray(array, dtype="<f8").tobytes())


def save_checkpoint(
    path: str,
    model: BaseClassifier,
    vocab_tokens: list[str],
) -> None:
    header = {
        "model_kind": model.kind,
        "hyperparams": asdict(model.hp),
        "mcd": asdict(model.cfg) if model.kind == "mcd" else None,
        "vi": asdict(model.cfg) if model.kind == "vi" else None,
        "vocab": list(vocab_tokens),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    params = model.parameters()
    with open(path, "wb") as out:
        out.write(MAGIC)
        out.write(struct.pack("<I", FORMAT_VERSION))
        out.write(struct.pack("<Q", len(header_bytes)))
        out.write(header_bytes)
        out.write(struct.pack("<I", len(params)))
        for p in params:
            _write_block(out, p.name, p.data)


class _Reader:
    def __init__(self, blob: bytes, path: str):
        self.blob = blob
        self.pos = 0
        self.path = path

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        chunk = self.blob[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]


def _section(header: dict, name: str) -> dict:
    """A header section's fields, with its legacy keys checked and dropped."""
    values = dict(header[name])
    for key, legal in LEGACY_KEYS.get(name, {}).items():
        if key in values:
            value = values.pop(key)
            if value != legal:
                raise ConfigurationError(f"{name}.{key} must be {legal!r}, got {value!r}")
    return values


def load_checkpoint(path: str) -> CheckpointData:
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    r = _Reader(blob, path)
    if r.take(len(MAGIC)) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file (bad magic)")
    version = r.u32()
    if version != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {version}, expected {FORMAT_VERSION}"
        )
    header_len = r.u64()
    try:
        header = json.loads(r.take(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key in ("model_kind", "hyperparams", "vocab"):
        if key not in header:
            raise CheckpointError(f"{path}: header missing {key!r}")

    n_params = r.u32()
    params: dict[str, np.ndarray] = {}
    for _ in range(n_params):
        try:
            name = r.take(r.u32()).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: block name is not UTF-8: {exc}") from exc
        ndim = r.u32()
        shape = tuple(r.u64() for _ in range(ndim))
        values = np.frombuffer(r.take(math.prod(shape) * 8), dtype="<f8")
        if name in params:
            raise CheckpointError(f"{path}: duplicate parameter block {name!r}")
        try:
            params[name] = values.reshape(shape).astype(np.float64)
        except ValueError as exc:
            raise CheckpointError(
                f"{path}: block {name!r} has impossible shape {shape}: {exc}"
            ) from exc
    if r.pos != len(blob):
        raise CheckpointError(f"{path}: trailing bytes after last block")

    if header["model_kind"] not in MODEL_KINDS:
        raise CheckpointError(
            f"{path}: model_kind must be one of {MODEL_KINDS}, got {header['model_kind']!r}"
        )
    try:
        hp = HyperParams(**_section(header, "hyperparams"))
        hp.validate()
        mcd_cfg = McdConfig(**_section(header, "mcd")) if header.get("mcd") else None
        vi_cfg = ViConfig(**header["vi"]) if header.get("vi") else None
        for cfg in (mcd_cfg, vi_cfg):
            if cfg is not None:
                cfg.validate()
        if vi_cfg is not None and vi_cfg.z_dim != hp.z_dim:
            raise ConfigurationError(
                f"vi.z_dim {vi_cfg.z_dim} differs from hyperparams.z_dim {hp.z_dim}"
            )
        vocab = header["vocab"]
        if not isinstance(vocab, list) or not all(isinstance(t, str) for t in vocab):
            raise ConfigurationError("vocab must be a list of token strings")
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: bad header fields: {exc}") from exc
    if header["model_kind"] == "vi":
        # older vi files carry the base head, which vi built and never
        # trained; they still load, with its blocks at their old shapes only
        old_head = {"head.weight": (2 * hp.hidden_dim, NUM_CLASSES), "head.bias": (NUM_CLASSES,)}
        for name, shape in old_head.items():
            stored = params.pop(name, None)
            if stored is not None and stored.shape != shape:
                raise CheckpointError(f"{path}: legacy block {name!r} has shape {stored.shape}")
    return CheckpointData(
        model_kind=header["model_kind"],
        hyperparams=hp,
        mcd_cfg=mcd_cfg,
        vi_cfg=vi_cfg,
        vocab_tokens=vocab,
        params=params,
    )


def restore_model(data: CheckpointData) -> BaseClassifier:
    """Rebuild a model from checkpoint data, verifying every block."""
    vocab_size = len(data.vocab_tokens)
    placeholder = np.zeros((vocab_size, data.hyperparams.embed_dim))
    model = build_model(
        data.hyperparams,
        placeholder,
        data.model_kind,
        seed=0,
        mcd_cfg=data.mcd_cfg,
        vi_cfg=data.vi_cfg,
    )
    expected = {p.name: p for p in model.parameters()}
    missing = sorted(set(expected) - set(data.params))
    extra = sorted(set(data.params) - set(expected))
    if missing or extra:
        raise CheckpointError(
            f"parameter blocks do not match model: missing {missing}, unexpected {extra}"
        )
    for name, p in expected.items():
        stored = data.params[name]
        if stored.shape != p.data.shape:
            raise CheckpointError(
                f"shape mismatch for {name!r}: checkpoint {stored.shape}, model {p.data.shape}"
            )
        p.data[...] = stored
    return model
