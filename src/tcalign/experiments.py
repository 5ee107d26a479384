"""Theory-validation experiments and the tools only they use.

The theory says that the closer the test covariance is to a high-certainty
pseudo-source, the closer it is to the true source. ``validate_uncertainty_groups``
measures each uncertainty group's distance to the source, and
``validate_alignment_trace`` records distances and accuracy along one fixed-step
``solve_gradient``, which runs nowhere else. Both reuse the adapt path's kernels
without its loop. ``spearman`` and ``linear_fit_r2`` return None for an undefined
statistic (constant inputs, mismatched lengths, too few points) rather than a
silent 0, so threshold comparisons fail loudly instead of passing by accident.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DivergenceError, InvalidConfig, InvalidInput, _check_count, _check_positive
from .head import SoftmaxHead, check_labels, softmax_rows
from .linalg import _check_width, _covariance, _distance, _moments, _square_pair, shrink
from .linalg import validate_embeddings
from .pipeline import AdaptConfig, _adapted_head, _check_test, _fold, _recolor, _scored
from .pipeline import _source_covariance
from .transform import DEFAULT_EPS

DEFAULT_LR = 1e-3
DEFAULT_MAX_ITERS = 1000
DEFAULT_TOL = 1e-9
STALL_ITERS = 10


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

    Both covariances get the trace-scaled ridge of ``transform.solve_closed_form``.
    Returns the best iterate seen together with the per-iteration objective
    trace. Stops early once the relative improvement stays below
    ``DEFAULT_TOL`` for ``STALL_ITERS`` consecutive iterations. A non-finite
    objective aborts with DivergenceError carrying the best iterate seen
    before the blow-up (its ``last_iterate``); fixed steps are only stable
    when lr < 2 / (4 lambda_max^2), so large-scale covariances need a
    smaller learning rate than the 1e-3 default.
    """
    sigma_t, sigma_s_hat = _square_pair(sigma_t, sigma_s_hat, "sigma_t", "sigma_s_hat")
    _check_positive("learning rate", lr)
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


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def spearman(x, y) -> float | None:
    """Spearman rank correlation: Pearson correlation of average ranks.

    Returns None when undefined (length mismatch, fewer than 2 points, a NaN,
    which has no rank, or a constant sequence).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y) or len(x) < 2:
        return None
    if np.isnan(x).any() or np.isnan(y).any():
        return None
    rx = _ranks(x)
    ry = _ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = math.sqrt(float(rx @ rx) * float(ry @ ry))
    if denom == 0.0:
        return None
    return float(rx @ ry) / denom


@dataclass
class LinearFit:
    slope: float
    intercept: float
    r2: float | None


def linear_fit_r2(x, y) -> LinearFit | None:
    """Ordinary least squares y = slope*x + intercept with R^2.

    None for constant x or a non-finite input (no fit exists); r2 is None
    when y is constant (zero total variance makes the ratio meaningless).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y) or len(x) < 2:
        return None
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return None
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if sxx == 0.0:
        return None
    slope = float(xc @ (y - y.mean())) / sxx
    intercept = float(y.mean() - slope * x.mean())
    residual = y - (slope * x + intercept)
    ss_res = float(residual @ residual)
    ss_tot = float((y - y.mean()) @ (y - y.mean()))
    r2 = None if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r2=r2)


@dataclass
class GroupRow:
    group_index: int
    mean_uncertainty: float
    dist_to_source: float


def validate_uncertainty_groups(
    test,
    head: SoftmaxHead,
    source_stats,
    n_groups: int = 10,
) -> list[GroupRow]:
    """Split test instances into uncertainty-sorted groups and measure each
    group's covariance distance to the true source covariance."""
    test = validate_embeddings(test, "test")
    n = test.shape[0]
    _check_count("n_groups", n_groups, 1, InvalidConfig)
    if n // n_groups < 2:
        raise InvalidConfig(
            f"each group needs >= 2 instances: n={n} is too small for {n_groups} groups"
        )
    sigma_s = _source_covariance(source_stats, head.dim)
    _, _, uncertainties = _scored(_check_width(test, head.dim, "head"), head)
    order = np.argsort(uncertainties, kind="stable")  # ties go to the lower row
    size = n // n_groups
    rows = []
    for g in range(n_groups):
        lo = g * size
        hi = (g + 1) * size if g < n_groups - 1 else n  # remainder joins the last group
        idx = order[lo:hi]
        _, sigma_g = _covariance(_moments(test[idx]))
        rows.append(
            GroupRow(
                group_index=g,
                mean_uncertainty=float(uncertainties[idx].mean()),
                dist_to_source=_distance(sigma_g, sigma_s),
            )
        )
    return rows


@dataclass
class TraceRow:
    iteration: int
    dist_to_pseudo: float
    dist_to_source: float
    accuracy: float


@dataclass
class TraceResult:
    """The recorded rows, the rank correlations and R^2 (None where undefined)
    of dist_to_pseudo against dist_to_source and accuracy, and the solver's trace."""

    rows: list[TraceRow]
    spearman_pseudo_vs_source: float | None
    spearman_pseudo_vs_accuracy: float | None
    r2_pseudo_vs_source: float | None
    r2_pseudo_vs_accuracy: float | None
    solver_trace: SolverTrace


def validate_alignment_trace(
    test,
    head: SoftmaxHead,
    cfg: AdaptConfig,
    source_stats,
    labels,
    record_every: int = 10,
    lr: float = DEFAULT_LR,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> TraceResult:
    """Record gradient-solver iterates applied to the test set.

    The pseudo-source is the one ``adapt_transductive`` selects under ``cfg``,
    built from the same kernels; one ``solve_gradient`` with step ``lr`` and
    at most ``max_iters`` iterations then aligns the test covariance to it.
    Every ``record_every``-th iterate (plus the final one) is turned into a
    row of covariance distances and accuracy as the solver hands it over, so
    only the latest iterate is held; the summary correlations mirror the
    relationship plots of the alignment-theory experiments.
    """
    _check_positive("lr", lr, InvalidConfig)
    _check_count("max_iters", max_iters, 1, InvalidConfig)
    if labels is None:
        raise InvalidInput("alignment traces require test labels for the accuracy column")
    _check_count("record_every", record_every, 1, InvalidConfig)
    test = _check_test(test, head, "transductive")
    n = test.shape[0]
    labels = check_labels(labels, n)
    sigma_s = _source_covariance(source_stats, head.dim)

    _, classes, uncertainty = _scored(test, head)
    class_counts = np.bincount(classes, minlength=head.n_classes)
    empty = np.empty(0, dtype=np.int64)
    _, selected = _fold(cfg, empty, np.arange(n), uncertainty, classes, class_counts)
    mu_t, sigma_t = _covariance(_moments(test))
    mu_s_hat, sigma_s_hat = _covariance(_moments(test[selected]))

    rows = []

    def record(iteration: int, w: np.ndarray) -> None:
        sigma_i = _recolor(w, sigma_t)
        argmax = softmax_rows(test, *_adapted_head(head, w, mu_t, mu_s_hat)).argmax(axis=1)
        rows.append(
            TraceRow(
                iteration=iteration,
                dist_to_pseudo=_distance(sigma_i, sigma_s_hat),
                dist_to_source=_distance(sigma_i, sigma_s),
                accuracy=float(np.mean(argmax == labels)),
            )
        )

    latest = None

    def hook(iteration: int, w: np.ndarray) -> None:
        nonlocal latest
        latest = (iteration, w)
        if iteration % record_every == 0:
            record(iteration, w)

    _, solver_trace = solve_gradient(
        sigma_t, sigma_s_hat, lr=lr, max_iters=max_iters, eps=cfg.eps, iterate_hook=hook
    )
    if latest[0] % record_every != 0:  # the final iterate, not yet recorded
        record(*latest)
    dp, ds, acc = zip(*[(r.dist_to_pseudo, r.dist_to_source, r.accuracy) for r in rows])
    return TraceResult(
        rows=rows,
        spearman_pseudo_vs_source=spearman(dp, ds),
        spearman_pseudo_vs_accuracy=spearman(dp, acc),
        r2_pseudo_vs_source=getattr(linear_fit_r2(dp, ds), "r2", None),
        r2_pseudo_vs_accuracy=getattr(linear_fit_r2(dp, acc), "r2", None),
        solver_trace=solver_trace,
    )
