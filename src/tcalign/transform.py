"""Linear alignment of second-order statistics.

Solves min_W ||W^T S_t W - S_s||_F^2 for the transform matching the test
covariance to the pseudo-source covariance, either in closed form through
whitening followed by recoloring, or by fixed-step gradient descent. Both
solvers regularize the two covariances with the same trace-scaled ridge so
rank-deficient pseudo-source statistics stay invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, InvalidInput
from .linalg import shrink, spd_power, validate_embeddings

DEFAULT_EPS = 1e-3
DEFAULT_LR = 1e-3
DEFAULT_MAX_ITERS = 1000
DEFAULT_TOL = 1e-9
STALL_ITERS = 10


@dataclass
class AlignmentTransform:
    """The affine map z -> (z - mu_t) W + mu_s_hat applied row-wise."""

    w: np.ndarray
    mu_t: np.ndarray
    mu_s_hat: np.ndarray

    def __post_init__(self):
        self.w = np.asarray(self.w, dtype=np.float64)
        self.mu_t = np.asarray(self.mu_t, dtype=np.float64)
        self.mu_s_hat = np.asarray(self.mu_s_hat, dtype=np.float64)
        if self.w.ndim != 2:
            raise InvalidInput(f"transform w must be a d x d matrix, got ndim={self.w.ndim}")
        if not (
            np.all(np.isfinite(self.w))
            and np.all(np.isfinite(self.mu_t))
            and np.all(np.isfinite(self.mu_s_hat))
        ):
            raise InvalidInput("alignment transform contains non-finite values")
        d = self.w.shape[0]
        if self.w.shape != (d, d) or self.mu_t.shape != (d,) or self.mu_s_hat.shape != (d,):
            raise InvalidInput(
                f"inconsistent transform shapes: w {self.w.shape}, mu_t {self.mu_t.shape}, "
                f"mu_s_hat {self.mu_s_hat.shape}"
            )

    @classmethod
    def identity(cls, d: int) -> "AlignmentTransform":
        return cls(w=np.eye(d), mu_t=np.zeros(d), mu_s_hat=np.zeros(d))


@dataclass
class SolverTrace:
    """Objective recorded at every gradient iteration, including iteration 0."""

    objective_values: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def _check_pair(sigma_t, sigma_s_hat) -> tuple[np.ndarray, np.ndarray]:
    sigma_t = np.asarray(sigma_t, dtype=np.float64)
    sigma_s_hat = np.asarray(sigma_s_hat, dtype=np.float64)
    if sigma_t.ndim != 2 or sigma_t.shape[0] != sigma_t.shape[1]:
        raise InvalidInput(f"sigma_t must be square, got {sigma_t.shape}")
    if sigma_s_hat.shape != sigma_t.shape:
        raise InvalidInput(
            f"shape mismatch: sigma_t {sigma_t.shape} vs sigma_s_hat {sigma_s_hat.shape}"
        )
    return sigma_t, sigma_s_hat


def objective(w, sigma_t, sigma_s_hat) -> float:
    """Alignment residual ||W^T sigma_t W - sigma_s_hat||_F^2."""
    sigma_t, sigma_s_hat = _check_pair(sigma_t, sigma_s_hat)
    w = np.asarray(w, dtype=np.float64)
    if w.shape != sigma_t.shape:
        raise InvalidInput(f"w shape {w.shape} does not match sigma shape {sigma_t.shape}")
    residual = w.T @ sigma_t @ w - sigma_s_hat
    return float(np.sum(residual * residual))


def objective_gradient(w, sigma_t, sigma_s_hat) -> np.ndarray:
    """Analytic gradient 4 sigma_t W (W^T sigma_t W - sigma_s_hat) of objective()."""
    sigma_t, sigma_s_hat = _check_pair(sigma_t, sigma_s_hat)
    w = np.asarray(w, dtype=np.float64)
    residual = w.T @ sigma_t @ w - sigma_s_hat
    return 4.0 * sigma_t @ w @ residual


def solve_closed_form(sigma_t, sigma_s_hat, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Whitening-recoloring solution W = S_t^(-1/2) S_s^(1/2).

    Both covariances are ridge-regularized with the same eps before the
    matrix powers; the returned W satisfies W^T S_t_reg W = S_s_reg to
    floating-point accuracy.
    """
    sigma_t, sigma_s_hat = _check_pair(sigma_t, sigma_s_hat)
    sigma_t_reg = shrink(sigma_t, eps)
    sigma_s_reg = shrink(sigma_s_hat, eps)
    return spd_power(sigma_t_reg, -0.5) @ spd_power(sigma_s_reg, 0.5)


def solve_gradient(
    sigma_t,
    sigma_s_hat,
    init=None,
    lr: float = DEFAULT_LR,
    max_iters: int = DEFAULT_MAX_ITERS,
    tol: float = DEFAULT_TOL,
    eps: float = DEFAULT_EPS,
    iterate_hook: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, SolverTrace]:
    """Fixed-step gradient descent on the regularized alignment objective.

    Returns the best iterate seen together with the per-iteration objective
    trace. Stops early once the relative improvement stays below ``tol`` for
    ten consecutive iterations. A non-finite objective aborts with
    DivergenceError carrying the last finite iterate; fixed steps are only
    stable when lr < 2 / (4 lambda_max^2), so large-scale covariances need a
    smaller learning rate than the 1e-3 default.
    """
    sigma_t, sigma_s_hat = _check_pair(sigma_t, sigma_s_hat)
    if lr <= 0:
        raise InvalidInput(f"learning rate must be positive, got {lr}")
    if max_iters < 1:
        raise InvalidInput(f"max_iters must be >= 1, got {max_iters}")
    sigma_t_reg = shrink(sigma_t, eps)
    sigma_s_reg = shrink(sigma_s_hat, eps)

    w = np.eye(sigma_t.shape[0]) if init is None else np.asarray(init, dtype=np.float64).copy()
    if w.shape != sigma_t.shape:
        raise InvalidInput(f"init shape {w.shape} does not match sigma shape {sigma_t.shape}")

    trace = SolverTrace()
    current = objective(w, sigma_t_reg, sigma_s_reg)
    if not np.isfinite(current):
        raise DivergenceError("objective is non-finite at the initial iterate", w, [])
    trace.objective_values.append(current)
    if iterate_hook is not None:
        iterate_hook(0, w.copy())

    best_w = w.copy()
    best_obj = current
    stall = 0
    for it in range(1, max_iters + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            w = w - lr * objective_gradient(w, sigma_t_reg, sigma_s_reg)
            value = objective(w, sigma_t_reg, sigma_s_reg) if np.all(np.isfinite(w)) else np.inf
        if not np.isfinite(value):
            raise DivergenceError(
                f"objective became non-finite at iteration {it} (lr={lr:g}); "
                "retry with a smaller learning rate",
                best_w,
                trace.objective_values,
            )
        trace.objective_values.append(value)
        trace.iterations = it
        if iterate_hook is not None:
            iterate_hook(it, w.copy())
        if value < best_obj:
            best_obj = value
            best_w = w.copy()
        previous = trace.objective_values[-2]
        improvement = (previous - value) / max(abs(previous), 1e-300)
        stall = stall + 1 if improvement < tol else 0
        if stall >= STALL_ITERS:
            trace.converged = True
            break
    return best_w, trace


def apply_transform(z, t: AlignmentTransform) -> np.ndarray:
    """Map each row z_i to (z_i - mu_t) W + mu_s_hat."""
    z = validate_embeddings(z)
    if z.shape[1] != t.w.shape[0]:
        raise InvalidInput(
            f"embedding dimension {z.shape[1]} does not match transform dimension {t.w.shape[0]}"
        )
    return (z - t.mu_t) @ t.w + t.mu_s_hat
