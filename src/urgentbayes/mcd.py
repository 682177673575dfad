"""Monte Carlo dropout: the deterministic classifier with dropout kept
active at prediction time.

Masks are applied at three placements: after each recurrent layer
(reused across timesteps) and on the prediction-layer input.  At
prediction time sample m's mask at each placement is row m of the stream
(seed, placement), shared across the whole batch, so each of the M
stochastic passes behaves like one thinned network evaluated on every
example.  No mask reaches layer 1's input, so prediction runs layer 1
once and stacks the M samples through layer 2, attention and the head
(`BaseClassifier.infer_states`) into the (M, n, 2) block of logits that
`predict_batch` aggregates in one call; it runs them on the float32
`serving_copy`, whose masks are cast row by row before they are broadcast
over the posts.  Bitwise claims hold within one precision.  In a batch
of two or more posts the stacked samples equal M separate passes of the
same weights bit for bit; in a one-post batch a single pass's products
take a matrix-vector kernel and can differ in the last bit.  Results do
not depend on execution order, and depend on the other posts in a batch
only through BLAS rounding in the last bits, which can change with a
product's row count.  With rate 0 every mask branch short-circuits and
the model is bit-for-bit the deterministic one, in float64 as in the
served float32."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blas import one_thread
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

    def _placement_masks(self, n_rows, rng):
        """Scaled keep-masks, (n_rows, width) per placement; row i of a
        placement is row i of the `rng.child(placement)` stream, whatever
        `n_rows` is.  Training takes one row per batch element, reused
        across timesteps; prediction one row per sample.  Rate 0 disables
        masking entirely."""
        rate, h = self.cfg.dropout_rate, self.hp.hidden_dim
        if rate == 0.0:
            return None
        if rng is None:
            raise UsageError("a random stream is required when dropout is active")
        widths = {AFTER_LAYER_1: h, AFTER_LAYER_2: h, PREDICTION_INPUT: 2 * h}
        return {
            p: (rng.child(p).generator().random((n_rows, w)) >= rate) / (1.0 - rate)
            for p, w in widths.items()
        }

    def sample_logits(self, ids, lengths, rng, sample_indices):
        """Stochastic prediction passes, one per sample index: returns
        (k, n, 2) logits.  Sample m's masks are row m of each placement's
        mask stream, shared by every post in the batch; all k samples run
        stacked through one `infer_logits` call."""
        n = len(lengths)
        indices = list(sample_indices)
        masks = self._placement_masks(max(indices) + 1, rng)
        if masks is None:
            # every pass is the deterministic one; no need to run it k times
            return np.tile(self.infer_logits(ids, lengths), (len(indices), 1, 1))
        # each sample's rows take the weights' dtype before they are
        # broadcast over the posts, so no (k, n, width) array is built
        dtype = self.layer2.input_weights.data.dtype
        masks = {
            p: np.broadcast_to(
                m[indices, None].astype(dtype, copy=False), (len(indices), n, m.shape[1])
            )
            for p, m in masks.items()
        }
        return self.infer_logits(ids, lengths, masks).reshape(len(indices), n, NUM_CLASSES)

    def predict_batch(self, ids, lengths, rng=None):
        """num_samples passes of the serving copy (`serving_copy`), on one
        BLAS thread (`blas.one_thread`)."""
        with one_thread():
            copy = self.serving_copy()
            samples = copy.sample_logits(ids, lengths, rng, range(self.cfg.num_samples))
        return aggregate_logit_samples(samples)
