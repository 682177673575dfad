"""Variational-inference variant: an approximate posterior q(z|x, y)
and a conditional prior p(z|x) over a latent code z, both diagonal
Gaussians computed from the encoder's final state.  Training minimizes
reconstruction cross-entropy (through a reparameterized sample from q)
plus the closed-form KL between q and p; prediction samples z from the
prior only, so labels never influence test-time output (`sample_logits`,
one (M, n, 2) block of logits, sample m keyed by (seed, "eps", m)), which
`predict_batch` runs on the float32 `serving_copy`; the noise is drawn in
float64 and cast.  The deterministic forward is the shared one; its
`_head` pins z at the prior mean."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .autodiff import (
    Parameter,
    Tensor,
    affine,
    clip,
    concat,
    cross_entropy_from_logits,
    exp,
    no_grad,
    tanh_op,
)
from .blas import one_thread
from .encoder import BaseClassifier, aggregate_logit_samples, require_counts, served, _uniform_init
from .errors import ConfigurationError, ShapeError, UsageError
from .metrics import NUM_CLASSES

LOG_SIGMA_BOUND = 8.0


@dataclass
class ViConfig:
    z_dim: int = 16
    m_train: int = 1
    m_test: int = 20
    kl_weight: float = 1.0

    def validate(self):
        require_counts(self, ("z_dim", "m_train", "m_test"))
        if not (math.isfinite(self.kl_weight) and self.kl_weight >= 0):
            raise ConfigurationError(f"kl_weight must be finite and >= 0, got {self.kl_weight}")

    def validate_against(self, hp):
        """`validate`, and that the latent size is the heads' `hp.z_dim`."""
        self.validate()
        if self.z_dim != hp.z_dim:
            raise ConfigurationError(
                f"latent size disagreement: heads built for {hp.z_dim}, config says {self.z_dim}"
            )


@dataclass
class GaussianDiag:
    """Diagonal Gaussian in log-sigma parameterization; rows are examples."""

    mu: Tensor          # (n, z_dim)
    log_sigma: Tensor   # (n, z_dim), clamped to +-LOG_SIGMA_BOUND upstream


@dataclass
class ViHeads:
    """The eight affine maps of `init_vi_heads`, a weight and a bias each.
    Field order is parameter order: the checkpoint's block order and the
    order in which gradient clipping sums squares."""

    label_weight: Parameter
    label_bias: Parameter
    post_hidden_weight: Parameter
    post_hidden_bias: Parameter
    prior_hidden_weight: Parameter
    prior_hidden_bias: Parameter
    post_mu_weight: Parameter
    post_mu_bias: Parameter
    post_log_sigma_weight: Parameter
    post_log_sigma_bias: Parameter
    prior_mu_weight: Parameter
    prior_mu_bias: Parameter
    prior_log_sigma_weight: Parameter
    prior_log_sigma_bias: Parameter
    recon_weight: Parameter
    recon_bias: Parameter

    def parameters(self):
        return [getattr(self, f.name) for f in fields(self)]

    def map(self, key):
        """(weight, bias) of the affine map named `key`."""
        return getattr(self, f"{key}_weight"), getattr(self, f"{key}_bias")


def init_vi_heads(hidden_dim, z_dim, rng):
    """The eight affine maps, key -> (fan-in, width), in parameter order;
    each weight is drawn from rng.child(key) and each bias starts at zero."""
    h, z = hidden_dim, z_dim
    maps = {
        "label": (1, z),
        "post_hidden": (h + z, h),
        "prior_hidden": (h, h),
        "post_mu": (h, z),
        "post_log_sigma": (h, z),
        "prior_mu": (h, z),
        "prior_log_sigma": (h, z),
        "recon": (z + 2 * h, NUM_CLASSES),
    }
    params = {}
    for key, (fan_in, width) in maps.items():
        weight = _uniform_init(rng.child(key), (fan_in, width), fan_in)
        params[f"{key}_weight"] = Parameter(weight, f"heads.{key}.weight")
        params[f"{key}_bias"] = Parameter(np.zeros(width), f"heads.{key}.bias")
    return ViHeads(**params)


def _gaussian_tower(inputs, heads, tower):
    """A tanh hidden layer, then the mean and the clamped log-sigma maps."""
    hidden = tanh_op(affine(inputs, *heads.map(f"{tower}_hidden")))
    mu = affine(hidden, *heads.map(f"{tower}_mu"))
    log_sigma = clip(
        affine(hidden, *heads.map(f"{tower}_log_sigma")), -LOG_SIGMA_BOUND, LOG_SIGMA_BOUND
    )
    return GaussianDiag(mu, log_sigma)


def posterior_params(finals, labels, heads):
    """q(z | x, y): condition on the final state and the embedded label."""
    labels = np.asarray(labels, dtype=np.float64).reshape(-1, 1)
    y_emb = affine(Tensor(labels), *heads.map("label"))
    return _gaussian_tower(concat([finals, y_emb], axis=1), heads, "post")


def prior_params(finals, heads):
    """p(z | x): no label path, by construction."""
    return _gaussian_tower(finals, heads, "prior")


def reparameterize(g, eps):
    """z = mu + sigma * eps; differentiable in mu and log_sigma.  `eps` is
    taken in mu's dtype."""
    eps = np.asarray(eps, dtype=g.mu.data.dtype)
    if eps.shape != g.mu.data.shape:
        raise ShapeError(f"eps shape {eps.shape} does not match mu shape {g.mu.data.shape}")
    return g.mu + exp(g.log_sigma) * eps


def kl_diag_gaussians(q, p):
    """Closed-form KL(q ‖ p) per row:
    sum_j [ log(sigma_p/sigma_q) + (sigma_q^2 + (mu_q - mu_p)^2) / (2 sigma_p^2) - 1/2 ]."""
    d_mu = q.mu - p.mu
    inv_var_p = exp(p.log_sigma * (-2.0))
    terms = (
        (p.log_sigma - q.log_sigma)
        + (exp(q.log_sigma * 2.0) + d_mu * d_mu) * inv_var_p * 0.5
        - 0.5
    )
    return terms.sum(axis=1)


def _recon_logits(z, finals, contexts, heads):
    """Affine head on (z ⊕ final state ⊕ context), one row per example."""
    return affine(concat([z, finals, contexts], axis=1), *heads.map("recon"))


def _latent_logits(g, m, finals, contexts, heads, rng):
    """Logits for latent sample m of g, its noise drawn from (rng, "eps", m)."""
    eps = rng.child("eps", m).generator().standard_normal(g.mu.data.shape)
    return _recon_logits(reparameterize(g, eps), finals, contexts, heads)


def _elbo_parts(finals, contexts, labels, heads, cfg, rng):
    """Shared ELBO computation; returns (loss, reconstruction, kl) tensors."""
    labels = np.asarray(labels)
    q = posterior_params(finals, labels, heads)
    p = prior_params(finals, heads)
    kl = kl_diag_gaussians(q, p).mean()
    recon = None
    for m in range(cfg.m_train):
        ce = cross_entropy_from_logits(_latent_logits(q, m, finals, contexts, heads, rng), labels)
        recon = ce if recon is None else recon + ce
    recon = recon * (1.0 / cfg.m_train)
    return recon + kl * cfg.kl_weight, recon, kl


class ViClassifier(BaseClassifier):
    kind = "vi"

    def __init__(self, hp, embedding_matrix, rng, cfg=None):
        super().__init__(hp, embedding_matrix, rng)
        cfg = cfg if cfg is not None else ViConfig(z_dim=hp.z_dim)
        cfg.validate_against(hp)
        self.cfg = cfg

    def _build_head(self, init):
        self.heads = init_vi_heads(self.hp.hidden_dim, self.hp.z_dim, init.child("heads"))
        return self.heads.parameters()

    def _serve_head(self):
        self.heads = ViHeads(*map(served, self._head_params))
        return self.heads.parameters()

    def _head(self, finals, contexts, masks):
        """Deterministic forward: the latent code pinned at the prior mean."""
        return _recon_logits(prior_params(finals, self.heads).mu, finals, contexts, self.heads)

    def batch_loss_parts(self, ids, lengths, labels, rng=None):
        if rng is None:
            raise UsageError("a random stream is required to sample the latent code")
        _, finals, contexts = self.batch_states(ids, lengths)
        loss, recon, kl = _elbo_parts(finals, contexts, labels, self.heads, self.cfg, rng)
        return loss, {"reconstruction": recon.item(), "kl": kl.item()}

    # -- prediction: the prior tower and reconstruction head under no_grad --

    def infer_logits(self, ids, lengths, masks=None):
        if masks is not None:
            raise UsageError("the variational path has no dropout placements")
        return super().infer_logits(ids, lengths)

    def sample_logits(self, ids, lengths, rng, sample_indices):
        """(k, n, 2) logits, one conditional-prior sample per index, sample m's
        noise from (rng, "eps", m); the encoder runs once for all k."""
        finals, contexts = (Tensor(a) for a in self.infer_states(ids, lengths))
        with no_grad():
            prior = prior_params(finals, self.heads)
            return np.stack([
                _latent_logits(prior, k, finals, contexts, self.heads, rng).data
                for k in sample_indices
            ])

    def predict_batch(self, ids, lengths, rng=None):
        """m_test latent samples from the conditional prior, on the serving
        copy and one BLAS thread (`blas.one_thread`); labels play no part
        anywhere in this path."""
        if rng is None:
            raise UsageError("a random stream is required to sample the latent code")
        with one_thread():
            samples = self.serving_copy().sample_logits(ids, lengths, rng, range(self.cfg.m_test))
        return aggregate_logit_samples(samples)
