"""Smoke test of `tools/fingerprint.py` at its tiny shape.

The digests depend on the BLAS kernels and the CPU, so none is pinned
here; the test runs the whole artifact set once and checks that a
comparison tells identical artifacts from a changed one."""

import importlib.util
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from urgentbayes import training

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"


@pytest.fixture(scope="module")
def fingerprint():
    spec = importlib.util.spec_from_file_location("fingerprint_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_run_and_comparison(fingerprint, tmp_path, capsys):
    state_class = training.AdaptiveMomentState
    mine, other = tmp_path / "mine", tmp_path / "other"
    assert fingerprint.main([str(mine), "--tiny"]) == 0
    assert training.AdaptiveMomentState is state_class  # the patch is undone
    digests = json.loads((mine / "fingerprint.json").read_text())
    kinds = ("base", "mcd", "vi")
    expected = {"prepare/vocab.txt", "prepare/dataset.npz", "gradcheck"}
    expected |= {f"experiment/{p}" for p in ("80_20", "40_60")}
    for kind in kinds:
        expected |= {f"train/{kind}/loss_trace.json", f"train/{kind}/model.ckpt",
                     f"predict/{kind}"}
        expected |= {f"forum/{kind}/{part}" for part in ("losses", "weights", "moments")}
    assert set(digests) == expected
    with np.load(mine / "fingerprint.npz") as numbers:
        assert set(numbers) == expected
        weights = numbers["forum/base/weights"]
    assert weights.size and np.isfinite(weights).all()

    shutil.copytree(mine, other)
    digests["forum/base/weights"] = "0" * 64
    (other / "fingerprint.json").write_text(json.dumps(digests))
    with np.load(mine / "fingerprint.npz") as numbers:
        changed = {k: numbers[k] for k in numbers}
    changed["forum/base/weights"] = weights * (1.0 + 2.0**-40)
    np.savez(other / "fingerprint.npz", **changed)
    capsys.readouterr()
    assert fingerprint.compare(str(mine), str(other)) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(expected)
    verdicts = dict(line.split(maxsplit=1) for line in lines)
    scaled = weights * (1.0 + 2.0**-40)
    verdict = verdicts.pop("forum/base/weights")
    assert verdict.startswith("largest relative difference 9.")
    assert verdict.endswith(
        f", absolute {np.abs(scaled - weights).max():.3e}; "
        f"{np.count_nonzero(scaled != weights)} of {weights.size} numbers differ"
    )
    assert set(verdicts.values()) == {"identical"}


def test_difference_counts_and_scales(fingerprint):
    # a large relative move on a tiny value shows as a tiny absolute one
    a = np.array([1.0, 2.0, np.nan, 1.5e-8, np.inf, 0.0, -3.0])
    b = np.array([1.0, 2.0 + 2.0**-40, np.nan, 1.5e-8 * (1 + 5.7e-5), np.inf, 0.0, -3.0])
    assert fingerprint.describe_difference(a, b) == (
        "largest relative difference 5.700e-05, absolute 9.095e-13; 2 of 7 numbers differ"
    )
    assert fingerprint.describe_difference(np.array([np.nan, 1.0]), np.array([1.0, 1.0])) == (
        "largest relative difference inf, absolute inf; 1 of 2 numbers differ"
    )
    assert fingerprint.describe_difference(a, b[:3]) == "different shape: 7 numbers against 3"
