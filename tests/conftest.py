"""Fixtures shared by the test modules."""

import json
import struct

import pytest

from urgentbayes.checkpoint import MAGIC, _write_block, load_checkpoint


def _edit_header(path, edit):
    """Rewrites the JSON header of the checkpoint at `path` through
    `edit(header)`, which changes the dict in place; the parameter
    blocks are kept byte for byte."""
    with open(path, "rb") as f:
        blob = f.read()
    start = len(MAGIC) + 4  # magic line, uint32 format version
    (length,) = struct.unpack("<Q", blob[start : start + 8])
    header = json.loads(blob[start + 8 : start + 8 + length])
    edit(header)
    encoded = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(blob[:start] + struct.pack("<Q", len(encoded)) + encoded)
        f.write(blob[start + 8 + length :])


@pytest.fixture
def edit_header():
    return _edit_header


def _edit_blocks(path, edit):
    """Rewrites the parameter blocks of the checkpoint at `path` through
    `edit(blocks)`, which changes the list of (name, array) pairs in
    place; the header is kept byte for byte."""
    blocks = list(load_checkpoint(path).params.items())
    edit(blocks)
    with open(path, "rb") as f:
        blob = f.read()
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<Q", blob[start : start + 8])
    with open(path, "wb") as f:
        f.write(blob[: start + 8 + length])
        f.write(struct.pack("<I", len(blocks)))
        for name, array in blocks:
            _write_block(f, name, array)


@pytest.fixture
def edit_blocks():
    return _edit_blocks
