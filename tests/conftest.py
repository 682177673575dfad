"""Fixtures shared by the test modules."""

import json
import struct

import pytest

from urgentbayes.checkpoint import MAGIC


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
