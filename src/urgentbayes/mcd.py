"""Monte Carlo dropout: the deterministic classifier with dropout kept
active at prediction time.

Masks are applied at three placements: after each recurrent layer
(reused across timesteps) and on the prediction-layer input.  At
prediction time the mask set for sample m is derived from the stream key
(seed, m, placement) and shared across the whole batch, so each of the M
stochastic passes behaves like one thinned network evaluated on every
example, and results do not depend on batch composition or execution
order.  With rate 0 every mask branch short-circuits and the model is
bit-for-bit the deterministic one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import (
    AFTER_LAYER_1,
    AFTER_LAYER_2,
    PREDICTION_INPUT,
    BaseClassifier,
    PredictiveDistribution,
    aggregate_logit_samples,
)
from .errors import ConfigurationError, UsageError
from .metrics import NUM_CLASSES

__all__ = [
    "McdConfig",
    "McdClassifier",
    "PredictiveDistribution",
    "aggregate_logit_samples",
]


@dataclass
class McdConfig:
    dropout_rate: float = 0.3
    num_samples: int = 50

    def validate(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )
        if self.num_samples < 1:
            raise ConfigurationError(f"num_samples must be >= 1, got {self.num_samples}")


class McdClassifier(BaseClassifier):
    kind = "mcd"

    def __init__(self, hp, embedding_matrix, rng, cfg=None):
        # consume rng exactly as the deterministic model does, so equal
        # seeds give bitwise-equal parameters across kinds
        super().__init__(hp, embedding_matrix, rng)
        cfg = cfg if cfg is not None else McdConfig()
        cfg.validate()
        self.cfg = cfg

    def _mask_shapes(self, n_rows):
        h = self.hp.hidden_dim
        return {
            AFTER_LAYER_1: (n_rows, h),
            AFTER_LAYER_2: (n_rows, h),
            PREDICTION_INPUT: (n_rows, 2 * h),
        }

    def _draw_masks(self, rng, n_rows):
        rate = self.cfg.dropout_rate
        masks = {}
        for placement, shape in self._mask_shapes(n_rows).items():
            keep = rng.child(placement).generator().random(shape) >= rate
            masks[placement] = keep / (1.0 - rate)
        return masks

    def _placement_masks(self, n_rows, rng):
        """Training: one mask row per batch element per placement, reused
        across timesteps.  Rate 0 disables masking entirely."""
        if self.cfg.dropout_rate == 0.0:
            return None
        if rng is None:
            raise UsageError("a random stream is required when dropout is active")
        return self._draw_masks(rng, n_rows)

    def sample_logits(self, ids, lengths, rng, sample_index):
        """One stochastic prediction pass: masks keyed by sample index,
        broadcast over the batch."""
        if self.cfg.dropout_rate == 0.0:
            return self.infer_logits(ids, lengths)
        masks = self._draw_masks(rng.child(sample_index), 1)
        return self.infer_logits(ids, lengths, masks)

    def predict_batch(self, ids, lengths, rng=None):
        if self.cfg.dropout_rate > 0.0 and rng is None:
            raise UsageError("a random stream is required when dropout is active")
        n = np.asarray(ids).shape[0]
        m = self.cfg.num_samples
        if self.cfg.dropout_rate == 0.0:
            # every pass is the deterministic one; no need to run it M times
            single = self.infer_logits(ids, lengths)
            samples = np.tile(single, (m, 1, 1))
        else:
            samples = np.empty((m, n, NUM_CLASSES))
            for k in range(m):
                samples[k] = self.sample_logits(ids, lengths, rng, k)
        return [aggregate_logit_samples(samples[:, i, :]) for i in range(n)]
