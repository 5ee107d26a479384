"""Linear alignment of second-order statistics.

Solves min_W ||W^T S_t W - S_s||_F^2 for the transform matching the test
covariance to the pseudo-source covariance. The adapt loop solves it in
closed form, through whitening followed by recoloring; fixed-step gradient
descent on the same objective is kept for the alignment-trace experiment,
which records its iterates. Both solvers regularize the two covariances
with the same trace-scaled ridge so rank-deficient pseudo-source statistics
stay invertible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, InvalidInput, _check_count, _finite_real
from .linalg import _check_eps, _check_width, _power, _shrink, _square_pair, _symmetric, shrink
from .linalg import validate_embeddings

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


@dataclass
class SolverTrace:
    """Objective recorded at every gradient iteration, including iteration 0."""

    objective_values: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def _checked(w, sigma_t, sigma_s_hat) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w, sigma_t, sigma_s_hat) as float64, once they are square matrices of one shape."""
    sigma_t, sigma_s_hat = _square_pair(sigma_t, sigma_s_hat, "sigma_t", "sigma_s_hat")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != sigma_t.shape:
        raise InvalidInput(f"w shape {w.shape} does not match sigma shape {sigma_t.shape}")
    return w, sigma_t, sigma_s_hat


def _residual(w, sigma_t, sigma_s_hat) -> np.ndarray:
    """W^T sigma_t W - sigma_s_hat of checked matrices."""
    return w.T @ sigma_t @ w - sigma_s_hat


def objective(w, sigma_t, sigma_s_hat) -> float:
    """Alignment residual ||W^T sigma_t W - sigma_s_hat||_F^2."""
    residual = _residual(*_checked(w, sigma_t, sigma_s_hat))
    return float(np.sum(residual * residual))


def objective_gradient(w, sigma_t, sigma_s_hat) -> np.ndarray:
    """Analytic gradient 4 sigma_t W (W^T sigma_t W - sigma_s_hat) of objective()."""
    w, sigma_t, sigma_s_hat = _checked(w, sigma_t, sigma_s_hat)
    return 4.0 * sigma_t @ w @ _residual(w, sigma_t, sigma_s_hat)


def solve_closed_form(sigma_t, sigma_s_hat, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Whitening-recoloring solution W = S_t^(-1/2) S_s^(1/2).

    Both covariances are ridge-regularized with the same eps before the
    matrix powers; the returned W satisfies W^T S_t_reg W = S_s_reg to
    floating-point accuracy.
    """
    sigma_t, sigma_s_hat = _square_pair(sigma_t, sigma_s_hat, "sigma_t", "sigma_s_hat")
    sigma_t = _symmetric(sigma_t, "sigma")
    _check_eps(eps)
    root_s = _power(_shrink(_symmetric(sigma_s_hat, "sigma"), eps), 0.5)
    return _closed_form(sigma_t, root_s, eps)


def _closed_form(sigma_t: np.ndarray, root_s: np.ndarray, eps: float) -> np.ndarray:
    """``solve_closed_form`` of a finite symmetric sigma_t, given root_s = S_s_reg^(1/2)."""
    return _power(_shrink(sigma_t, eps), -0.5) @ root_s


def solve_gradient(
    sigma_t,
    sigma_s_hat,
    lr: float = DEFAULT_LR,
    max_iters: int = DEFAULT_MAX_ITERS,
    eps: float = DEFAULT_EPS,
    iterate_hook: Callable[[int, np.ndarray], None] | None = None,
) -> tuple[np.ndarray, SolverTrace]:
    """Fixed-step gradient descent on the regularized alignment objective,
    starting from the identity.

    Returns the best iterate seen together with the per-iteration objective
    trace. Stops early once the relative improvement stays below
    ``DEFAULT_TOL`` for ``STALL_ITERS`` consecutive iterations. A non-finite
    objective aborts with DivergenceError carrying the best iterate seen
    before the blow-up (its ``last_iterate``); fixed steps are only stable
    when lr < 2 / (4 lambda_max^2), so large-scale covariances need a
    smaller learning rate than the 1e-3 default.
    """
    sigma_t, sigma_s_hat = _square_pair(sigma_t, sigma_s_hat, "sigma_t", "sigma_s_hat")
    if not (_finite_real(lr) and lr > 0):
        raise InvalidInput(f"learning rate must be finite and positive, got {lr}")
    _check_count("max_iters", max_iters, 1)
    sigma_t_reg = shrink(sigma_t, eps)
    sigma_s_reg = shrink(sigma_s_hat, eps)

    w = np.eye(sigma_t.shape[0])
    trace = SolverTrace()
    # the loop carries the residual: objective sum(r * r), step 4 sigma_t W r
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _residual(w, sigma_t_reg, sigma_s_reg)
        current = float(np.sum(residual * residual))
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
            w = w - lr * (4.0 * sigma_t_reg @ w @ residual)
            residual = _residual(w, sigma_t_reg, sigma_s_reg)
            value = float(np.sum(residual * residual)) if np.all(np.isfinite(w)) else np.inf
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
        stall = stall + 1 if improvement < DEFAULT_TOL else 0
        if stall >= STALL_ITERS:
            trace.converged = True
            break
    return best_w, trace


def apply_transform(z, t: AlignmentTransform) -> np.ndarray:
    """Map each row z_i to (z_i - mu_t) W + mu_s_hat."""
    z = _check_width(validate_embeddings(z), t.w.shape[0], "transform")
    return (z - t.mu_t) @ t.w + t.mu_s_hat
