"""End-to-end adaptation pipelines and theory-validation experiments.

Both modes run one loop. Per batch it folds the rows into streaming
statistics and a bounded index bank, selects the pseudo-source, solves for
the alignment transform and predicts the batch through it, falling back to
the unadapted head until 2 rows can be selected. Online mode feeds the test
set in batches; transductive mode is the same loop with a single batch of
all n rows, so it scores the whole test set, solves once and re-predicts
everything.

Adapted rows are never materialised. The affine map z -> (z - mu_t) W +
mu_s_hat is folded into the linear softmax head (weight H W^T, bias
b + H (mu_s_hat - W^T mu_t)), and the moments of the adapted rows follow
from the batch's own: the mean maps through the transform and the scatter
S becomes W^T S W. ``transform.apply_transform`` remains the reference
those identities are tested against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InsufficientSamples, InvalidConfig, InvalidInput
from .head import PredictionBatch, SoftmaxHead, accuracy, check_labels, predict
from .linalg import CovarianceAccumulator, correlation_distance, covariance, validate_embeddings
from .metrics import linear_fit_r2, spearman
from .pseudo_source import batch_uncertainties, class_balanced_select, most_certain
from .transform import AlignmentTransform, SolverTrace, solve_closed_form, solve_gradient

SOLVERS = ("closed", "gradient")
SELECTION_MODES = ("global", "class_balanced")
MODES = ("transductive", "online")


@dataclass
class AdaptConfig:
    """Knobs for one adaptation run; defaults follow the module conventions."""

    k: int = 30
    eps: float = 1e-3
    solver: str = "closed"
    lr: float = 1e-3
    max_iters: int = 1000
    tol: float = 1e-9
    selection_mode: str = "global"
    mode: str = "transductive"
    batch_size: int = 64

    def validate(self) -> "AdaptConfig":
        if self.k < 2:
            raise InvalidConfig(f"bank capacity k must be >= 2, got {self.k}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise InvalidConfig(f"eps must be finite and >= 0, got {self.eps}")
        if self.solver not in SOLVERS:
            raise InvalidConfig(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if self.selection_mode not in SELECTION_MODES:
            raise InvalidConfig(
                f"selection_mode must be one of {SELECTION_MODES}, got {self.selection_mode!r}"
            )
        if self.mode not in MODES:
            raise InvalidConfig(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.batch_size < 1:
            raise InvalidConfig(f"batch_size must be >= 1, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise InvalidConfig(f"lr must be finite and positive, got {self.lr}")
        if self.max_iters < 1:
            raise InvalidConfig(f"max_iters must be >= 1, got {self.max_iters}")
        if not math.isfinite(self.tol):
            raise InvalidConfig(f"tol must be finite, got {self.tol}")
        return self


@dataclass
class AdaptReport:
    """Quantities measured around one adaptation run."""

    n: int
    d: int
    c: int
    mode: str
    accuracy_before: float | None = None
    accuracy_after: float | None = None
    dist_test_to_pseudo_before: float = 0.0
    dist_test_to_pseudo_after: float = 0.0
    dist_test_to_source_before: float | None = None
    dist_test_to_source_after: float | None = None
    dist_pseudo_to_source: float | None = None
    solver_trace: SolverTrace | None = None
    selection_fallback: bool = False
    unadapted_batches: int = 0

    def to_dict(self) -> dict:
        out = asdict(self)
        trace = out.pop("solver_trace")  # last, and only when present
        if trace is not None:
            out["solver_trace"] = trace
        return out


def _select(cfg: AdaptConfig, uncertainty, classes, class_counts, rows) -> tuple[np.ndarray, bool]:
    """Pseudo-source rows (ascending) chosen among candidate ``rows``, and the fallback flag."""
    if cfg.selection_mode == "class_balanced":
        selection = class_balanced_select(uncertainty[rows], classes[rows], cfg.k, class_counts, rows)
        return selection.entries, selection.fallback
    return most_certain(uncertainty[rows], cfg.k, rows), False


def _fold(cfg: AdaptConfig, bank, rows, uncertainty, classes) -> np.ndarray:
    """Merge ``rows`` into the online bank of rows still eligible for selection:
    the k most certain so far, or the k most certain of each class in
    class-balanced mode (no per-class quota exceeds k, so selecting from the
    bank picks what selecting from every row would)."""
    bank = np.concatenate([bank, rows])
    per_class = classes[bank] if cfg.selection_mode == "class_balanced" else None
    return most_certain(uncertainty[bank], cfg.k, bank, per_class)


def _check_test(test, mode: str) -> np.ndarray:
    test = validate_embeddings(test, "test")
    if test.shape[0] < 2:
        raise InsufficientSamples(f"{mode} adaptation needs at least 2 test rows")
    return test


def _steps(test: np.ndarray, head: SoftmaxHead, cfg: AdaptConfig, batch_size: int):
    """Per batch of ``batch_size`` rows: predict, score, fold into the bank,
    select, and take the moments of the pseudo-source and of every row so far.

    Yields ``(lo, hi, unadapted predictions, fallback, batch_stats, moments)``,
    where batch_stats accumulates the batch's rows alone and moments is
    ``(mu_s_hat, sigma_s_hat, mu_t, sigma_t)``, or None while fewer than 2
    rows are selected. Selection keeps min(k, rows so far) rows and k >= 2, so
    only a first batch of one row goes without moments.
    """
    n, d = test.shape
    stats = CovarianceAccumulator(d)
    uncertainty = np.empty(n)
    classes = np.empty(n, dtype=np.int64)
    class_counts = np.zeros(head.n_classes, dtype=np.int64)
    bank = np.empty(0, dtype=np.int64)
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        preds = predict(head, test[lo:hi])
        batch_stats = CovarianceAccumulator(d).update(test[lo:hi])
        stats.merge(batch_stats)
        uncertainty[lo:hi] = batch_uncertainties(preds.probs)
        classes[lo:hi] = preds.argmax
        class_counts += np.bincount(preds.argmax, minlength=head.n_classes)
        bank = _fold(cfg, bank, np.arange(lo, hi), uncertainty, classes)
        selected, fallback = _select(cfg, uncertainty, classes, class_counts, bank)
        moments = (*covariance(test[selected]), *stats.finalize()) if len(selected) >= 2 else None
        yield lo, hi, preds, fallback, batch_stats, moments


def _recolor(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """W^T sigma W, symmetrized: the covariance (or scatter) of rows mapped through W."""
    out = w.T @ sigma @ w
    return (out + out.T) / 2.0


def _adapted_head(head: SoftmaxHead, t: AlignmentTransform) -> SoftmaxHead:
    """The head with the transform folded in, so that predicting z through it
    equals predicting (z - mu_t) W + mu_s_hat through ``head``."""
    return SoftmaxHead(
        weight=head.weight @ t.w.T,
        bias=head.bias + head.weight @ (t.mu_s_hat - t.w.T @ t.mu_t),
    )


def _mapped(batch: CovarianceAccumulator, t: AlignmentTransform) -> CovarianceAccumulator:
    """The moments of the batch's rows after the transform: the mean maps
    through it, the scatter becomes W^T S W."""
    out = CovarianceAccumulator(batch.dim)
    out.count = batch.count
    out.mean = (batch.mean - t.mu_t) @ t.w + t.mu_s_hat
    out.scatter = _recolor(t.w, batch.scatter)
    return out


def _solve(
    cfg: AdaptConfig, sigma_t, sigma_s_hat, iterate_hook=None
) -> tuple[np.ndarray, SolverTrace | None]:
    if cfg.solver == "gradient":
        return solve_gradient(
            sigma_t,
            sigma_s_hat,
            init=None,
            lr=cfg.lr,
            max_iters=cfg.max_iters,
            tol=cfg.tol,
            eps=cfg.eps,
            iterate_hook=iterate_hook,
        )
    return solve_closed_form(sigma_t, sigma_s_hat, cfg.eps), None


def _adapt(test, head: SoftmaxHead, cfg, labels, source_stats, mode: str):
    """The adaptation loop of both modes: per batch, solve against the current
    moments and predict the batch through that transform; a batch without
    moments is emitted unadapted. Transductive mode is one batch of all rows.

    Returns the predictions, the report and the transform of the last solve.
    """
    cfg = (cfg or AdaptConfig()).validate()
    test = _check_test(test, mode)
    n, d = test.shape
    if labels is not None:
        labels = check_labels(labels, n)

    batch_probs = []
    emitted = CovarianceAccumulator(d)
    correct_before = unadapted_batches = 0
    fallback_seen = False
    batch_size = n if mode == "transductive" else cfg.batch_size
    for lo, hi, preds, fallback, batch_stats, moments in _steps(test, head, cfg, batch_size):
        fallback_seen = fallback_seen or fallback
        if labels is not None:
            correct_before += int(np.count_nonzero(preds.argmax == labels[lo:hi]))
        if moments is None:
            batch_probs.append(preds.probs)
            emitted.merge(batch_stats)
            unadapted_batches += 1
            continue
        mu_s_hat, sigma_s_hat, mu_t, sigma_t = moments
        w, trace = _solve(cfg, sigma_t, sigma_s_hat)
        transform = AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat)
        batch_probs.append(predict(_adapted_head(head, transform), test[lo:hi]).probs)
        emitted.merge(_mapped(batch_stats, transform))

    # n >= 2, so the last batch was adapted and its moments cover every row
    probs = np.concatenate(batch_probs)
    preds_out = PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))
    _, sigma_emitted = emitted.finalize()
    report = AdaptReport(
        n=n,
        d=d,
        c=head.n_classes,
        mode=mode,
        dist_test_to_pseudo_before=correlation_distance(sigma_t, sigma_s_hat),
        dist_test_to_pseudo_after=correlation_distance(sigma_emitted, sigma_s_hat),
        solver_trace=trace,
        selection_fallback=fallback_seen,
        unadapted_batches=unadapted_batches,
    )
    if labels is not None:
        report.accuracy_before = correct_before / n
        report.accuracy_after = accuracy(preds_out, labels)
    if source_stats is not None:
        _, sigma_s = source_stats
        report.dist_test_to_source_before = correlation_distance(sigma_t, sigma_s)
        report.dist_test_to_source_after = correlation_distance(sigma_emitted, sigma_s)
        report.dist_pseudo_to_source = correlation_distance(sigma_s_hat, sigma_s)
    return preds_out, report, transform


def adapt_transductive(
    test,
    head: SoftmaxHead,
    cfg: AdaptConfig | None = None,
    labels=None,
    source_stats=None,
) -> tuple[PredictionBatch, AdaptReport, AlignmentTransform]:
    """Full-batch adaptation: score, select, align, re-predict, as the online
    loop does with a single batch of all n rows.

    ``source_stats`` is an optional (mean, covariance) pair of the true
    source domain; when given, the report carries source-side distances.
    """
    return _adapt(test, head, cfg, labels, source_stats, "transductive")


def adapt_online(
    test,
    head: SoftmaxHead,
    cfg: AdaptConfig | None = None,
    labels=None,
    source_stats=None,
) -> tuple[PredictionBatch, AdaptReport]:
    """Streaming adaptation: per batch, update statistics then predict through
    the current transform. Batches arriving before 2 rows can be selected
    (only a first batch of one row) are emitted unadapted and counted in the
    report."""
    preds, report, _ = _adapt(test, head, cfg, labels, source_stats, "online")
    return preds, report


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
    if n_groups < 1:
        raise InvalidConfig(f"n_groups must be >= 1, got {n_groups}")
    if n // n_groups < 2:
        raise InvalidConfig(
            f"each group needs >= 2 instances: n={n} is too small for {n_groups} groups"
        )
    _, sigma_s = source_stats
    preds = predict(head, test)
    uncertainties = batch_uncertainties(preds.probs)
    order = np.lexsort((np.arange(n), uncertainties))
    size = n // n_groups
    rows = []
    for g in range(n_groups):
        lo = g * size
        hi = (g + 1) * size if g < n_groups - 1 else n  # remainder joins the last group
        idx = order[lo:hi]
        _, sigma_g = covariance(test[idx])
        rows.append(
            GroupRow(
                group_index=g,
                mean_uncertainty=float(uncertainties[idx].mean()),
                dist_to_source=correlation_distance(sigma_g, sigma_s),
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
    rows: list[TraceRow] = field(default_factory=list)
    spearman_pseudo_vs_source: float | None = None
    spearman_pseudo_vs_accuracy: float | None = None
    r2_pseudo_vs_source: float | None = None
    r2_pseudo_vs_accuracy: float | None = None
    solver_trace: SolverTrace | None = None

    def summarize(self) -> None:
        dp = [r.dist_to_pseudo for r in self.rows]
        ds = [r.dist_to_source for r in self.rows]
        acc = [r.accuracy for r in self.rows]
        self.spearman_pseudo_vs_source = spearman(dp, ds)
        self.spearman_pseudo_vs_accuracy = spearman(dp, acc)
        fit_src = linear_fit_r2(dp, ds)
        fit_acc = linear_fit_r2(dp, acc)
        self.r2_pseudo_vs_source = fit_src.r2 if fit_src is not None else None
        self.r2_pseudo_vs_accuracy = fit_acc.r2 if fit_acc is not None else None


def validate_alignment_trace(
    test,
    head: SoftmaxHead,
    cfg: AdaptConfig,
    source_stats,
    labels,
    record_every: int = 10,
) -> TraceResult:
    """Record gradient-solver iterates applied to the test set.

    Every ``record_every``-th iterate (plus the final one) is turned into a
    row of covariance distances and accuracy; the summary correlations mirror
    the relationship plots of the alignment-theory experiments.
    """
    cfg = cfg.validate()
    if cfg.solver != "gradient":
        raise InvalidConfig("alignment traces require the gradient solver")
    if labels is None:
        raise InvalidInput("alignment traces require test labels for the accuracy column")
    if record_every < 1:
        raise InvalidConfig(f"record_every must be >= 1, got {record_every}")
    test = _check_test(test, "transductive")
    _, sigma_s = source_stats

    *_, (mu_s_hat, sigma_s_hat, mu_t, sigma_t) = next(_steps(test, head, cfg, test.shape[0]))

    recorded: list[tuple[int, np.ndarray]] = []

    def hook(iteration: int, w: np.ndarray) -> None:
        recorded.append((iteration, w))

    _, trace = _solve(cfg, sigma_t, sigma_s_hat, iterate_hook=hook)

    result = TraceResult(solver_trace=trace)
    last = len(recorded) - 1
    for pos, (iteration, w) in enumerate(recorded):
        if pos % record_every != 0 and pos != last:
            continue
        sigma_i = _recolor(w, sigma_t)
        adapted = _adapted_head(head, AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat))
        result.rows.append(
            TraceRow(
                iteration=iteration,
                dist_to_pseudo=correlation_distance(sigma_i, sigma_s_hat),
                dist_to_source=correlation_distance(sigma_i, sigma_s),
                accuracy=accuracy(predict(adapted, test), labels),
            )
        )
    result.summarize()
    return result
