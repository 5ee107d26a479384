"""Linear alignment of second-order statistics, in closed form, and its map.

Solves min_W ||W^T S_t W - S_s||_F^2 through whitening followed by recoloring.
Both covariances get the same trace-scaled ridge, so rank-deficient
pseudo-source statistics stay invertible; ``_source_root`` is the one
ridge-and-root of the pseudo-source side. The gradient solver of the same
objective lives in ``experiments``. The adapt loop never materialises adapted
rows: ``_adapted_head`` folds z -> (z - mu_t) W + mu_s_hat into the softmax
head (weight H W^T, bias b + H (mu_s_hat - W^T mu_t)) and ``_mapped`` carries
a batch's moments through it (the scatter S becomes W^T S W, ``_recolor``),
with ``apply_transform``, the row form, as their test reference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .head import SoftmaxHead
from .linalg import _check_eps, _check_width, _finite, _power, _read_only, _shrink, _square_pair
from .linalg import _symmetric, _symmetrized, validate_embeddings

DEFAULT_EPS = 1e-3


@dataclass(frozen=True)
class AlignmentTransform:
    """The affine map z -> (z - mu_t) W + mu_s_hat applied row-wise, checked
    when built and kept as read-only copies, so neither a reassignment nor a
    write to the caller's arrays or in place can change them."""

    w: np.ndarray
    mu_t: np.ndarray
    mu_s_hat: np.ndarray

    def __post_init__(self):
        names = ("w", "mu_t", "mu_s_hat")
        w = _finite(self.w, "transform w", 2)
        mu_t, mu_s_hat = (_finite(getattr(self, name), f"transform {name}", 1) for name in names[1:])
        d = w.shape[0]
        if w.shape != (d, d) or mu_t.shape != (d,) or mu_s_hat.shape != (d,):
            raise InvalidInput(
                f"inconsistent transform shapes: w {w.shape}, mu_t {mu_t.shape}, mu_s_hat {mu_s_hat.shape}"
            )
        for name, value in zip(names, (w, mu_t, mu_s_hat)):
            object.__setattr__(self, name, _read_only(value))


def solve_closed_form(sigma_t, sigma_s_hat, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Whitening-recoloring solution W = S_t^(-1/2) S_s^(1/2).

    Both covariances are ridge-regularized with the same eps before the
    matrix powers; the returned W satisfies W^T S_t_reg W = S_s_reg to
    floating-point accuracy.
    """
    sigma_t, sigma_s_hat = _square_pair(sigma_t, sigma_s_hat, "sigma_t", "sigma_s_hat")
    sigma_t = _symmetric(sigma_t, "sigma")
    _check_eps(eps)
    root_s = _source_root(_symmetric(sigma_s_hat, "sigma"), eps)
    return _closed_form(sigma_t, root_s, eps)


def _source_root(sigma_s_hat: np.ndarray, eps: float) -> np.ndarray:
    """S_s_reg^(1/2): the ridged square root of an exactly symmetric sigma_s_hat."""
    return _power(_shrink(sigma_s_hat, eps), 0.5)


def _closed_form(sigma_t: np.ndarray, root_s: np.ndarray, eps: float) -> np.ndarray:
    """``solve_closed_form`` of an exactly symmetric sigma_t, given root_s = ``_source_root``."""
    return _power(_shrink(sigma_t, eps), -0.5) @ root_s


def apply_transform(z, t: AlignmentTransform) -> np.ndarray:
    """Map each row z_i to (z_i - mu_t) W + mu_s_hat."""
    z = _check_width(validate_embeddings(z), t.w.shape[0], "transform")
    return (z - t.mu_t) @ t.w + t.mu_s_hat


def _recolor(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """W^T sigma W, symmetrized: the covariance (or scatter) of rows mapped through W."""
    return _symmetrized(w.T @ sigma @ w)


def _adapted_head(head: SoftmaxHead, w, mu_t, mu_s_hat) -> tuple[np.ndarray, np.ndarray]:
    """The (weight, bias) of the head with the map z -> (z - mu_t) W + mu_s_hat
    folded in, so that predicting z through them equals predicting the mapped
    row through ``head``."""
    return head.weight @ w.T, head.bias + head.weight @ (mu_s_hat - w.T @ mu_t)


def _mapped(batch: tuple, w, mu_t, mu_s_hat) -> tuple[int, np.ndarray, np.ndarray]:
    """The (count, mean, scatter) of the batch's rows after the map
    z -> (z - mu_t) W + mu_s_hat: the mean maps through it, the scatter
    becomes W^T S W."""
    n, mean, scatter = batch
    return n, (mean - mu_t) @ w + mu_s_hat, _recolor(w, scatter)
