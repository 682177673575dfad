"""Packaged verification suite: coverage, frozen-seed pass, negative control."""

import time

import numpy as np
import pytest

import urgentbayes.autodiff as ad
import urgentbayes.encoder as encoder
from urgentbayes.autodiff import Parameter
from urgentbayes.errors import ConfigurationError
from urgentbayes.gradchecks import (
    END_TO_END_SEEDS,
    end_to_end_checks,
    format_checks,
    op_checks,
    run_all,
)

EXPECTED_OPS = {
    "add", "subtract", "multiply", "divide", "negate", "matmul", "affine",
    "transpose_slice", "sigmoid", "tanh", "exp", "log", "clip", "softmax",
    "concat", "gather_rows", "sum_axis", "mean", "cross_entropy",
    "lstm_layer", "attention_softmax", "attention_ratio",
}


class TestOpChecks:
    def test_covers_operation_catalog(self):
        names = {c.name for c in op_checks(seed=0)}
        assert names == EXPECTED_OPS

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_all_ops_pass_any_seed(self, seed):
        checks = op_checks(seed)
        failed = [c.name for c in checks if not c.passed]
        assert failed == []


class TestEndToEnd:
    def test_frozen_defaults_pass(self):
        start = time.time()
        checks = end_to_end_checks()
        elapsed = time.time() - start
        for c in checks:
            assert c.passed, f"{c.name}: {c.report.summary()}"
        names = {c.name for c in checks}
        assert names == {"end_to_end_base_loss", "end_to_end_mcd_loss", "end_to_end_vi_loss"}
        assert elapsed < 60

    def test_default_seeds_cover_both_kinds(self):
        assert set(END_TO_END_SEEDS) == {"base", "mcd", "vi"}


class TestRunAll:
    def test_small_suite_passes(self):
        checks = run_all("small")
        assert all(c.passed for c in checks)
        assert len(checks) == len(EXPECTED_OPS) + 3

    def test_large_repeats_op_draws(self):
        # no model run needed to verify the count contract
        with pytest.raises(ConfigurationError):
            run_all("huge")

    @pytest.mark.parametrize("seed", [-1, 2.5])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        message = f"seed must be a non-negative integer, got {seed!r}"
        with pytest.raises(ConfigurationError, match=message):
            run_all(seed=seed)

    def test_report_text_shape(self):
        checks = op_checks(seed=1)
        text = format_checks(checks)
        assert "PASS" in text
        assert "max_rel_err" in text
        assert f"{len(checks)}/{len(checks)} checks passed" in text


class TestNegativeControl:
    def test_corrupted_adjoint_is_reported(self, monkeypatch):
        real_layer = encoder.lstm_layer

        def corrupt_layer(params, x):
            out = real_layer(params, x)
            if out._parents:
                real_backward = out._backward
                # sabotage: halves every adjoint the recurrent layer passes back
                out._backward = lambda g: real_backward(0.5 * g)
            return out

        monkeypatch.setattr(encoder, "lstm_layer", corrupt_layer)
        checks = end_to_end_checks()
        base = next(c for c in checks if c.name == "end_to_end_base_loss")
        assert not base.passed
        assert base.report.failures
        text = format_checks(checks)
        assert "FAIL" in text
        first = base.report.failures[0]
        assert "rel_err" in text and first.param


class TestFailureListing:
    def test_failure_lines_identify_coordinates(self):
        p = Parameter(np.array([1.5, -0.5]), "weights")

        def bad_square(t):
            return ad._node(t.data * t.data, (t,), lambda g: ad._accumulate(t, g * t.data))

        report = ad.grad_check(lambda: bad_square(p).sum(), [p])
        assert not report.passed
        assert {f.param for f in report.failures} == {"weights"}
