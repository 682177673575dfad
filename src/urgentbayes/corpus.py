"""Dataset ingestion: raw posts, urgency binarization, vocabulary,
sequence encoding, pretrained embeddings, and stratified splits."""

from __future__ import annotations

import csv
import math
import re
from collections import Counter
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .autodiff import RngStream
from .errors import (
    ConfigurationError,
    DataError,
    DomainError,
    FormatError,
    ParseError,
    StratificationError,
)

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

URGENCY_MIN = 1.0
URGENCY_MAX = 7.0
URGENCY_THRESHOLD = 4.0

# word characters clump together; every other non-space character stands alone
_TOKEN_RE = re.compile(r"\w+|[^\w\s]")


@dataclass
class RawPost:
    text: str
    urgency: float
    course_id: str = ""


def binarize_urgency(score):
    """Map an urgency score in [1, 7] to a binary label: 1 iff score > 4."""
    if not URGENCY_MIN <= score <= URGENCY_MAX:
        raise DomainError(f"urgency score {score} outside [{URGENCY_MIN}, {URGENCY_MAX}]")
    return 1 if score > URGENCY_THRESHOLD else 0


def tokenize(text):
    """Lowercase and split into word runs and single punctuation marks."""
    return _TOKEN_RE.findall(text.lower())


class Vocabulary:
    """Token inventory with fixed special ids: pad=0, unk=1.

    Built from the tokens in id order, which must start with the two
    special tokens and hold no token twice.  `build_vocabulary` retains
    tokens with ids 2.. in descending corpus frequency, ties broken
    lexicographically, so ids are reproducible."""

    pad_id = 0
    unk_id = 1

    def __init__(self, id_to_token):
        self.id_to_token = list(id_to_token)
        if self.id_to_token[:2] != [PAD_TOKEN, UNK_TOKEN]:
            raise FormatError(f"expected {PAD_TOKEN}, {UNK_TOKEN} first")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            repeated = next(t for i, t in enumerate(self.id_to_token) if self.token_to_id[t] != i)
            raise FormatError(f"duplicate token {repeated!r}")

    def __len__(self):
        return len(self.id_to_token)

    def id_for(self, token):
        return self.token_to_id.get(token, self.unk_id)

    def __contains__(self, token):
        return token in self.token_to_id


def build_vocabulary(corpus, min_frequency=2):
    if min_frequency < 1:
        raise ConfigurationError(f"min_frequency must be >= 1, got {min_frequency}")
    freq = Counter()
    for tokens in corpus:
        freq.update(tokens)
    freq.pop(PAD_TOKEN, None)
    freq.pop(UNK_TOKEN, None)
    retained = [t for t, c in freq.items() if c >= min_frequency]
    retained.sort(key=lambda t: (-freq[t], t))
    return Vocabulary([PAD_TOKEN, UNK_TOKEN] + retained)


def save_vocabulary(vocab, path):
    """One token per line; the line number (from 0) is the id."""
    with open(path, "w", encoding="utf-8") as fh:
        for token in vocab.id_to_token:
            if "\n" in token or "\r" in token:
                raise FormatError(f"token {token!r} cannot be serialized line-per-token")
            fh.write(token + "\n")


def read_text_lines(path, what, error, newline=None):
    """Streams the lines of UTF-8 text file `path`, as `open` with that
    `newline` yields them, skipping a leading byte-order mark; a caller
    that may stop early closes the generator. A file that cannot be
    opened, or whose bytes are not UTF-8, raises
    `error("cannot read <what> <path>: ...")`."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {what} {path}: {exc}") from exc


def load_vocabulary(path):
    lines = read_text_lines(path, "vocabulary", DataError)
    try:
        return Vocabulary(line.rstrip("\n") for line in lines)
    except FormatError as exc:
        raise FormatError(f"{path}: not a vocabulary file ({exc})") from exc


@dataclass
class LabeledExample:
    token_ids: np.ndarray
    true_length: int
    label: int


def encode(tokens, vocab, max_len=128):
    """Map tokens to ids, truncate at the tail, right-pad with pad_id.

    Returns (token_ids, true_length)."""
    if max_len < 1:
        raise ConfigurationError(f"max_len must be >= 1, got {max_len}")
    kept = tokens[:max_len]
    ids = np.full(max_len, vocab.pad_id, dtype=np.int64)
    for i, t in enumerate(kept):
        ids[i] = vocab.id_for(t)
    return ids, len(kept)


def make_example(tokens, label, vocab, max_len=128):
    ids, true_length = encode(tokens, vocab, max_len)
    return LabeledExample(ids, true_length, int(label))


def examples_from_posts(posts, vocab, max_len=128):
    out = []
    for p in posts:
        tokens = tokenize(p.text)
        out.append(make_example(tokens, binarize_urgency(p.urgency), vocab, max_len))
    return out


def load_posts(path):
    """Read a delimited dataset with header columns text, urgency, course_id."""
    posts = []
    with closing(read_text_lines(path, "dataset", DataError, newline="")) as lines:
        reader = csv.DictReader(lines)
        try:
            if reader.fieldnames is None:
                raise FormatError(f"{path}: empty dataset file")
            missing = {"text", "urgency"} - set(reader.fieldnames)
            if missing:
                raise FormatError(f"{path}: missing required columns {sorted(missing)}")
            for row in reader:
                line = reader.line_num
                text = (row["text"] or "").strip()
                if not text:
                    raise DataError(f"{path} line {line}: empty post text")
                try:
                    urgency = float(row["urgency"])
                except (TypeError, ValueError):
                    raise ParseError(
                        f"{path}: invalid urgency {row['urgency']!r}", line=line
                    ) from None
                if not URGENCY_MIN <= urgency <= URGENCY_MAX:
                    raise DataError(f"{path} line {line}: urgency {urgency} outside [1, 7]")
                posts.append(RawPost(text, urgency, row.get("course_id") or ""))
        except csv.Error as exc:
            # DictReader.line_num advances only past a parsed row; its reader's
            # count includes the line that failed
            raise ParseError(f"{path}: {exc}", line=reader.reader.line_num) from exc
    if not posts:
        raise DataError(f"{path}: dataset contains no rows")
    return posts


@dataclass
class EmbeddingTable:
    matrix: np.ndarray
    coverage: float
    matched: int = 0


def _fallback_rows(n, d, rng):
    return rng.generator().uniform(-0.05, 0.05, size=(n, d))


def random_embeddings(vocab, d=300, rng=None):
    """Uniform [-0.05, 0.05] table for training without a pretrained file."""
    if rng is None:
        rng = RngStream(0)
    matrix = _fallback_rows(len(vocab), d, rng.child("embeddings"))
    return EmbeddingTable(matrix, coverage=0.0, matched=0)


def load_pretrained_embeddings(path, vocab, d=300, rng=None):
    """Copy rows for vocabulary tokens found in a text embedding file.

    Each line is a token followed by d reals.  An optional leading
    "count dim" header is accepted; rows absent from the file fall back
    to the uniform initializer."""
    if rng is None:
        rng = RngStream(0)
    table = random_embeddings(vocab, d, rng)
    matrix = table.matrix
    matched = set()
    with closing(read_text_lines(path, "embeddings", DataError)) as lines:
        for line_num, line in enumerate(lines, start=1):
            fields = line.rstrip("\n").split(" ")
            if line_num == 1 and len(fields) == 2:
                try:
                    header_dim = int(fields[1])
                    int(fields[0])
                except ValueError:
                    raise ParseError(f"{path}: malformed line", line=1) from None
                if header_dim != d:
                    raise FormatError(
                        f"{path}: file declares {header_dim}-d vectors, expected {d}"
                    )
                continue
            if not line.strip():
                continue
            if len(fields) != d + 1:
                raise ParseError(
                    f"{path}: expected token + {d} values, got {len(fields)} fields",
                    line=line_num,
                )
            token = fields[0]
            try:
                values = [float(v) for v in fields[1:]]
            except ValueError:
                raise ParseError(f"{path}: non-numeric value", line=line_num) from None
            if not all(map(math.isfinite, values)):
                raise ParseError(f"{path}: non-finite value", line=line_num)
            row = vocab.token_to_id.get(token)
            if row is not None and row not in matched:
                matrix[row] = values
                matched.add(row)
    n_special = 2
    n_regular = len(vocab) - n_special
    n_matched = len(matched - {vocab.pad_id, vocab.unk_id})
    coverage = n_matched / n_regular if n_regular else 0.0
    return EmbeddingTable(matrix, coverage=coverage, matched=n_matched)


def stratified_split(examples, train_fraction, seed):
    """Split preserving class proportions: each class contributes
    round(train_fraction * class_count) examples to train, shuffled by seed.
    A class that this count would leave out of either split is an error."""
    if not 0.0 < train_fraction < 1.0:
        raise ConfigurationError(f"train_fraction must be in (0, 1), got {train_fraction}")
    by_label = {}
    for ex in examples:
        by_label.setdefault(ex.label, []).append(ex)
    if len(by_label) < 2:
        raise StratificationError(
            f"need both classes to stratify, found labels {sorted(by_label)}"
        )
    gen = np.random.default_rng(seed)
    train, test = [], []
    for label in sorted(by_label):
        members = by_label[label]
        order = gen.permutation(len(members))
        n_train = round(train_fraction * len(members))
        if not 0 < n_train < len(members):
            side = "train" if n_train == 0 else "test"
            raise StratificationError(
                f"class {label} has {len(members)} member(s): a {train_fraction} split "
                f"leaves the {side} split without it"
            )
        for i, idx in enumerate(order):
            (train if i < n_train else test).append(members[idx])
    return train, test


def save_dataset(path, examples):
    """Encoded examples to a single .npz archive."""
    if not examples:
        raise DataError("nothing to save: no examples")
    np.savez(
        path,
        token_ids=np.stack([ex.token_ids for ex in examples]).astype(np.int64),
        true_lengths=np.array([ex.true_length for ex in examples], dtype=np.int64),
        labels=np.array([ex.label for ex in examples], dtype=np.int64),
    )


def load_dataset(path):
    try:
        with np.load(path, allow_pickle=False) as archive:
            arrays = {k: archive[k] for k in archive.files}
    except (OSError, ValueError) as exc:
        raise FormatError(f"cannot read dataset {path}: {exc}") from exc
    for key in ("token_ids", "true_lengths", "labels"):
        if key not in arrays:
            raise FormatError(f"{path}: dataset missing array {key!r}")
        if not np.issubdtype(arrays[key].dtype, np.integer):
            raise FormatError(
                f"{path}: dataset array {key!r} has dtype {arrays[key].dtype}, not an integer type"
            )
    ids, lengths, labels = (
        arrays["token_ids"],
        arrays["true_lengths"],
        arrays["labels"],
    )
    if ids.ndim != 2 or lengths.shape != (ids.shape[0],) or labels.shape != lengths.shape:
        raise FormatError(f"{path}: dataset arrays have inconsistent shapes")
    if len(ids) == 0:
        raise DataError(f"{path}: dataset is empty")
    if (lengths < 1).any() or (lengths > ids.shape[1]).any():
        raise FormatError(f"{path}: true lengths out of range")
    if (ids < 0).any():
        raise FormatError(f"{path}: token ids must be non-negative, found {int(ids.min())}")
    if not np.isin(labels, (0, 1)).all():
        raise FormatError(f"{path}: labels must be 0 or 1")
    return [
        LabeledExample(ids[i], int(lengths[i]), int(labels[i]))
        for i in range(len(ids))
    ]
