"""Fixtures shared by the test modules."""

import json
import struct
import tracemalloc

import pytest

from urgentbayes.checkpoint import MAGIC, _write_block, load_checkpoint


def _edit_header(path, edit):
    """Rewrites the JSON header of the checkpoint at `path` through
    `edit(header)`, which changes the dict in place or returns a
    replacement (any JSON value); the parameter blocks are kept byte for
    byte."""
    with open(path, "rb") as f:
        blob = f.read()
    start = len(MAGIC) + 4  # magic line, uint32 format version
    (length,) = struct.unpack("<Q", blob[start : start + 8])
    header = json.loads(blob[start + 8 : start + 8 + length])
    replacement = edit(header)
    if replacement is not None:
        header = replacement
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


def _declare_first_shape(path, shape):
    """Overwrites the dimensions declared by the first parameter block of
    the checkpoint at `path` (a 2-d block) with `shape`; every other byte
    is kept."""
    with open(path, "rb") as f:
        blob = bytearray(f.read())
    start = len(MAGIC) + 4
    (length,) = struct.unpack("<Q", blob[start : start + 8])
    pos = start + 8 + length + 4  # past the header and the block count
    (name_len,) = struct.unpack("<I", blob[pos : pos + 4])
    pos += 4 + name_len
    assert struct.unpack("<I", blob[pos : pos + 4]) == (2,)
    blob[pos + 4 : pos + 20] = struct.pack("<QQ", *shape)
    with open(path, "wb") as f:
        f.write(bytes(blob))


@pytest.fixture
def declare_first_shape():
    return _declare_first_shape


@pytest.fixture(params=[(2**40, 2**40), (2**63, 2), (0, 2**62), (0, 2**63)], ids=str)
def impossible_shape(request):
    """A block shape no array can take: its element count overflows int64,
    or a dimension or the byte size exceeds what numpy can build."""
    return request.param


def _traced_peak(fn):
    """Calls `fn()` with tracemalloc on and returns the peak of the memory
    it traced meanwhile, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def traced_peak():
    return _traced_peak
