"""Monte Carlo dropout: the deterministic classifier with dropout kept
active at prediction time.

Masks are applied at three placements: after each recurrent layer
(reused across timesteps) and on the prediction-layer input.  At
prediction time the mask set for sample m is derived from the stream key
(seed, m, placement) and shared across the whole batch, so each of the M
stochastic passes behaves like one thinned network evaluated on every
example.  No mask reaches layer 1's input, so prediction runs layer 1
once and stacks the M samples through layer 2, attention and the head
(`BaseClassifier.infer_states`) into the (M, n, 2) block of logits that
`predict_batch` aggregates in one call.  In a batch of two or more posts
the stacked samples equal M separate passes bit for bit; in a one-post batch
a single pass's products take a matrix-vector kernel and can differ in
the last bit.  Results do not depend on execution order, and depend on
the other posts in a batch only through BLAS rounding in the last bits,
which can change with a product's row count.  With rate 0 every mask
branch short-circuits and the model is bit-for-bit the deterministic
one."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import (
    AFTER_LAYER_1,
    AFTER_LAYER_2,
    PREDICTION_INPUT,
    BaseClassifier,
    aggregate_logit_samples,
    require_counts,
)
from .errors import ConfigurationError, UsageError
from .metrics import NUM_CLASSES


@dataclass
class McdConfig:
    dropout_rate: float = 0.3
    num_samples: int = 50

    def validate(self):
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigurationError(
                f"dropout_rate must be in [0, 1), got {self.dropout_rate}"
            )
        require_counts(self, ("num_samples",))


class McdClassifier(BaseClassifier):
    kind = "mcd"

    def __init__(self, hp, embedding_matrix, rng, cfg=None):
        # consume rng exactly as the deterministic model does, so equal
        # seeds give bitwise-equal parameters across kinds
        super().__init__(hp, embedding_matrix, rng)
        cfg = cfg if cfg is not None else McdConfig()
        cfg.validate()
        self.cfg = cfg

    def _draw_masks(self, rng, n_rows):
        rate, h = self.cfg.dropout_rate, self.hp.hidden_dim
        widths = {AFTER_LAYER_1: h, AFTER_LAYER_2: h, PREDICTION_INPUT: 2 * h}
        masks = {}
        for placement, width in widths.items():
            keep = rng.child(placement).generator().random((n_rows, width)) >= rate
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

    def sample_logits(self, ids, lengths, rng, sample_indices):
        """Stochastic prediction passes, one per sample index: returns
        (k, n, 2) logits.  Sample m's masks are keyed by (rng, m,
        placement) and shared by every post in the batch; all k samples
        run stacked through one `infer_logits` call."""
        n = len(lengths)
        indices = list(sample_indices)
        if self.cfg.dropout_rate == 0.0:
            # every pass is the deterministic one; no need to run it k times
            return np.tile(self.infer_logits(ids, lengths), (len(indices), 1, 1))
        draws = [self._draw_masks(rng.child(k), 1) for k in indices]
        masks = {}
        for placement in draws[0]:
            rows = np.concatenate([d[placement] for d in draws])     # (k, width)
            masks[placement] = np.broadcast_to(rows[:, None], (len(indices), n, rows.shape[1]))
        return self.infer_logits(ids, lengths, masks).reshape(len(indices), n, NUM_CLASSES)

    def predict_batch(self, ids, lengths, rng=None):
        if self.cfg.dropout_rate > 0.0 and rng is None:
            raise UsageError("a random stream is required when dropout is active")
        samples = self.sample_logits(ids, lengths, rng, range(self.cfg.num_samples))
        return aggregate_logit_samples(samples)
