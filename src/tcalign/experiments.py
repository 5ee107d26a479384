"""Theory-validation experiments and the tools only they use.

The theory says that the closer the test covariance is to a high-certainty
pseudo-source, the closer it is to the true source. ``validate_uncertainty_groups``
measures each uncertainty group's distance to the source, and
``validate_alignment_trace`` records distances and accuracy along the fixed-step
descent ``_descent``, which only it and ``solve_gradient`` iterate. The groups
reuse the adapt path's kernels, and the trace takes its statistics from the
adapt loop, ``pipeline._batches``. ``spearman`` and the trace's R^2 share one
Pearson kernel, ``_pearson``, with exact power-of-two scaling; both return
None for an undefined statistic (constant inputs, mismatched lengths, too few
points), never a silent 0, so a threshold comparison fails loudly; a complex
input raises InvalidInput.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError, InvalidConfig, InvalidInput, _check_count, _check_positive
from .head import SoftmaxHead, check_labels, softmax_rows
from .linalg import _check_width, _covariance, _distance, _finite, _moments, _real, _spectral_radius
from .linalg import _shrink, _square_pair, shrink, validate_embeddings
from .pipeline import AdaptConfig, _batches, _check_test, _source_covariance
from .pseudo_source import _scored
from .transform import DEFAULT_EPS, _adapted_head, _recolor

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
    """(w, sigma_t, sigma_s_hat) as float64, once they are finite square matrices of one shape."""
    sigma_t, sigma_s_hat = _square_pair(sigma_t, sigma_s_hat, "sigma_t", "sigma_s_hat")
    w = _finite(w, "w", 2)
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
    lr: float | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
    eps: float = DEFAULT_EPS,
) -> tuple[np.ndarray, SolverTrace]:
    """Fixed-step gradient descent on the regularized alignment objective,
    starting from the identity: the checked entry to ``_descent``, drained.

    Both covariances get the trace-scaled ridge of ``transform.solve_closed_form``.
    Returns the best iterate seen together with the per-iteration objective
    trace. Stops early once the relative improvement stays below
    ``DEFAULT_TOL`` for ``STALL_ITERS`` consecutive iterations. A non-finite
    objective aborts with DivergenceError carrying the best iterate seen
    before the blow-up (its ``last_iterate``). Fixed steps are only stable
    when lr < 2 / (4 lambda_max^2), so ``lr=None`` takes 1e-3 / lambda_max^2
    of the regularized sigma_t, which scales with the covariances; an
    explicit ``lr`` is used as given.
    """
    sigma_t, sigma_s_hat = _square_pair(sigma_t, sigma_s_hat, "sigma_t", "sigma_s_hat")
    if lr is not None:
        _check_positive("learning rate", lr)
    _check_count("max_iters", max_iters, 1)
    trace = SolverTrace()
    for _, _, best_w in _descent(shrink(sigma_t, eps), shrink(sigma_s_hat, eps), lr, max_iters, trace):
        pass
    return best_w, trace


def _descent(sigma_t_reg, sigma_s_reg, lr, max_iters, trace: SolverTrace):
    """Yield (iteration, W, best W so far) from iteration 0, the identity, of
    the descent on ridged matrices, appending each objective to ``trace``.
    Each step builds a new W, so no yielded array is copied or changed."""
    w = np.eye(sigma_t_reg.shape[0])
    # the loop carries the residual: objective sum(r * r), step 4 sigma_t W r
    with np.errstate(over="ignore", invalid="ignore"):
        residual = _residual(w, sigma_t_reg, sigma_s_reg)
        current = float(np.sum(residual * residual))
    if not np.isfinite(current):
        raise DivergenceError("objective is non-finite at the initial iterate", w, [])
    if lr is None:
        lr = _default_step(sigma_t_reg)
    trace.objective_values.append(current)
    best_w, best_obj, stall = w, current, 0
    yield 0, w, best_w
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
        if value < best_obj:
            best_w, best_obj = w, value
        yield it, w, best_w
        previous = trace.objective_values[-2]
        improvement = (previous - value) / max(abs(previous), 1e-300)
        stall = stall + 1 if improvement < DEFAULT_TOL else 0
        if stall >= STALL_ITERS:
            trace.converged = True
            return


def _default_step(sigma_t_reg: np.ndarray) -> float:
    """1e-3 / lambda^2 for the spectral radius lambda of the regularized sigma_t,
    divided twice so that no square overflows; a step that is not a positive
    float64 raises InvalidInput."""
    radius = _spectral_radius(sigma_t_reg)
    step = 1e-3 / radius / radius if radius > 0 else math.inf
    if not 0 < step < math.inf:
        raise InvalidInput(
            f"the default step 1e-3 / lambda_max^2 of sigma_t (lambda_max {radius:.3g}) "
            "is not a positive float64; pass lr or rescale the embeddings"
        )
    return step


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks (1-based); tied values share the mean of their positions."""
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True, equal_nan=False)
    ends = np.cumsum(counts)
    return (ends - (counts - 1) / 2)[inverse]


def _pearson(x, y) -> float | None:
    """Pearson's r of two real vectors, or None where it is undefined: a length
    mismatch, fewer than 2 points, a non-finite entry or a constant vector.

    x and y are first scaled by the powers of two that bring their largest
    magnitudes into [0.5, 1), so that no sum of squares overflows or
    underflows; the scaling is exact, and normal-range inputs give the bits of
    the unscaled r.
    """
    x, y = _real(x, "x"), _real(y, "y")
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y) or len(x) < 2:
        return None
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        return None
    if x.min() == x.max() or y.min() == y.max():
        return None
    x, y = (np.ldexp(v, -int(np.frexp(np.abs(v).max())[1])) for v in (x, y))
    x, y = x - x.mean(), y - y.mean()
    return float(x @ y) / math.sqrt(float(x @ x) * float(y @ y))


def spearman(x, y) -> float | None:
    """Spearman rank correlation: ``_pearson`` of average ranks.

    Returns None when undefined (length mismatch, fewer than 2 points, a NaN,
    which has no rank, or a constant sequence).
    """
    x, y = _real(x, "x"), _real(y, "y")
    if x.ndim != 1 or y.ndim != 1 or np.isnan(x).any() or np.isnan(y).any():
        return None
    return _pearson(_ranks(x), _ranks(y))


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
    cfg: AdaptConfig | None,
    source_stats,
    labels,
    record_every: int = 10,
    lr: float | None = None,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> TraceResult:
    """Record gradient-solver iterates applied to the test set.

    mu_t, sigma_t and the pseudo-source are ``adapt_transductive``'s under
    ``cfg`` (None means ``AdaptConfig()``, as there): the one record of
    ``pipeline._batches`` over all n rows, whose closed-form solve raises where
    ``adapt_transductive``'s does. ``_descent`` (``solve_gradient`` without its
    checks), with step ``lr`` (by default from the test covariance's spectrum)
    and at most ``max_iters`` iterations, then aligns the test covariance to
    it. Every ``record_every``-th iterate (plus the final one) becomes a row
    of covariance distances and accuracy as the descent yields it, so no list
    of iterates is held; the correlations mirror the alignment-theory plots.
    """
    cfg = AdaptConfig._checked(cfg)
    if lr is not None:
        _check_positive("lr", lr, InvalidConfig)
    _check_count("max_iters", max_iters, 1, InvalidConfig)
    if labels is None:
        raise InvalidInput("alignment traces require test labels for the accuracy column")
    _check_count("record_every", record_every, 1, InvalidConfig)
    test = _check_test(test, head, "transductive")
    n = test.shape[0]
    labels = check_labels(labels, n)
    sigma_s = _source_covariance(source_stats, head.dim)

    ((*_, mu_t, sigma_t, mu_s_hat, sigma_s_hat),) = _batches(test, head, cfg, *_scored(test, head)[1:], n)

    def record(iteration: int, w: np.ndarray) -> TraceRow:
        sigma_i = _recolor(w, sigma_t)
        argmax = softmax_rows(test, *_adapted_head(head, w, mu_t, mu_s_hat)).argmax(axis=1)
        return TraceRow(
            iteration=iteration,
            dist_to_pseudo=_distance(sigma_i, sigma_s_hat),
            dist_to_source=_distance(sigma_i, sigma_s),
            accuracy=float(np.mean(argmax == labels)),
        )

    rows, solver_trace = [], SolverTrace()
    descent = _descent(_shrink(sigma_t, cfg.eps), _shrink(sigma_s_hat, cfg.eps), lr, max_iters, solver_trace)
    for iteration, w, _ in descent:
        if iteration % record_every == 0:
            rows.append(record(iteration, w))
    if iteration % record_every != 0:  # the final iterate, not yet recorded
        rows.append(record(iteration, w))
    dp, ds, acc = zip(*[(r.dist_to_pseudo, r.dist_to_source, r.accuracy) for r in rows])
    # the R^2 of a one-variable least-squares line is r^2
    r_source, r_accuracy = _pearson(dp, ds), _pearson(dp, acc)
    return TraceResult(
        rows=rows,
        spearman_pseudo_vs_source=spearman(dp, ds),
        spearman_pseudo_vs_accuracy=spearman(dp, acc),
        r2_pseudo_vs_source=None if r_source is None else r_source * r_source,
        r2_pseudo_vs_accuracy=None if r_accuracy is None else r_accuracy * r_accuracy,
        solver_trace=solver_trace,
    )
