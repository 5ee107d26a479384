"""End-to-end adaptation pipelines and theory-validation experiments.

Transductive mode scores the whole test set, selects the pseudo-source rows,
solves for the alignment transform once, and re-predicts everything through
it. Online mode folds batches into streaming statistics and a bounded index
bank, and predicts each batch with the transform available at that moment,
falling back to the unadapted head until enough evidence exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InsufficientSamples, InvalidConfig, InvalidInput
from .head import PredictionBatch, SoftmaxHead, accuracy, predict
from .linalg import CovarianceAccumulator, correlation_distance, covariance, validate_embeddings
from .metrics import linear_fit_r2, spearman
from .pseudo_source import batch_uncertainties, class_balanced_select, most_certain
from .transform import AlignmentTransform, SolverTrace, apply_transform, solve_closed_form, solve_gradient

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
        if self.eps < 0:
            raise InvalidConfig(f"eps must be >= 0, got {self.eps}")
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
        if self.lr <= 0:
            raise InvalidConfig(f"lr must be positive, got {self.lr}")
        if self.max_iters < 1:
            raise InvalidConfig(f"max_iters must be >= 1, got {self.max_iters}")
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
        out = {
            "n": self.n,
            "d": self.d,
            "c": self.c,
            "mode": self.mode,
            "accuracy_before": self.accuracy_before,
            "accuracy_after": self.accuracy_after,
            "dist_test_to_pseudo_before": self.dist_test_to_pseudo_before,
            "dist_test_to_pseudo_after": self.dist_test_to_pseudo_after,
            "dist_test_to_source_before": self.dist_test_to_source_before,
            "dist_test_to_source_after": self.dist_test_to_source_after,
            "dist_pseudo_to_source": self.dist_pseudo_to_source,
            "selection_fallback": self.selection_fallback,
            "unadapted_batches": self.unadapted_batches,
        }
        if self.solver_trace is not None:
            out["solver_trace"] = {
                "objective_values": list(self.solver_trace.objective_values),
                "iterations": self.solver_trace.iterations,
                "converged": self.solver_trace.converged,
            }
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


def _full_batch_core(test: np.ndarray, head: SoftmaxHead, cfg: AdaptConfig):
    """Predict, score and select over the whole test set, then take the moments
    of the pseudo-source and of the test set."""
    preds = predict(head, test)
    class_counts = np.bincount(preds.argmax, minlength=head.n_classes)
    rows, fallback = _select(
        cfg, batch_uncertainties(preds.probs), preds.argmax, class_counts, np.arange(test.shape[0])
    )
    if len(rows) < 2:
        raise InsufficientSamples("pseudo-source selection produced fewer than 2 entries")
    return preds, fallback, covariance(test[rows]), covariance(test)


def _solve(cfg: AdaptConfig, sigma_t, sigma_s_hat) -> tuple[np.ndarray, SolverTrace | None]:
    if cfg.solver == "gradient":
        w, trace = solve_gradient(
            sigma_t,
            sigma_s_hat,
            init=None,
            lr=cfg.lr,
            max_iters=cfg.max_iters,
            tol=cfg.tol,
            eps=cfg.eps,
        )
        return w, trace
    return solve_closed_form(sigma_t, sigma_s_hat, cfg.eps), None


def adapt_transductive(
    test,
    head: SoftmaxHead,
    cfg: AdaptConfig | None = None,
    labels=None,
    source_stats=None,
) -> tuple[PredictionBatch, AdaptReport, AlignmentTransform]:
    """Full-batch adaptation: score, select, align, re-predict.

    ``source_stats`` is an optional (mean, covariance) pair of the true
    source domain; when given, the report carries source-side distances.
    """
    cfg = (cfg or AdaptConfig()).validate()
    test = validate_embeddings(test, "test")
    if test.shape[0] < 2:
        raise InsufficientSamples("transductive adaptation needs at least 2 test rows")

    preds_before, fallback, (mu_s_hat, sigma_s_hat), (mu_t, sigma_t) = _full_batch_core(test, head, cfg)
    w, trace = _solve(cfg, sigma_t, sigma_s_hat)
    transform = AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat)

    transformed = apply_transform(test, transform)
    preds_after = predict(head, transformed)
    _, sigma_after = covariance(transformed)

    report = AdaptReport(
        n=test.shape[0],
        d=test.shape[1],
        c=head.n_classes,
        mode="transductive",
        dist_test_to_pseudo_before=correlation_distance(sigma_t, sigma_s_hat),
        dist_test_to_pseudo_after=correlation_distance(sigma_after, sigma_s_hat),
        solver_trace=trace,
        selection_fallback=fallback,
    )
    if labels is not None:
        report.accuracy_before = accuracy(preds_before, labels)
        report.accuracy_after = accuracy(preds_after, labels)
    if source_stats is not None:
        _, sigma_s = source_stats
        report.dist_test_to_source_before = correlation_distance(sigma_t, sigma_s)
        report.dist_test_to_source_after = correlation_distance(sigma_after, sigma_s)
        report.dist_pseudo_to_source = correlation_distance(sigma_s_hat, sigma_s)
    return preds_after, report, transform


def adapt_online(
    test,
    head: SoftmaxHead,
    cfg: AdaptConfig | None = None,
    labels=None,
    source_stats=None,
) -> tuple[PredictionBatch, AdaptReport]:
    """Streaming adaptation: per batch, update statistics then predict through
    the current transform. Batches arriving before both the accumulator and
    the selection hold at least 2 entries are emitted unadapted and counted
    in the report."""
    cfg = (cfg or AdaptConfig()).validate()
    test = validate_embeddings(test, "test")
    n, d = test.shape
    if n < 2:
        raise InsufficientSamples("online adaptation needs at least 2 test rows")

    stats = CovarianceAccumulator(d)
    uncertainty = np.empty(n)
    classes = np.empty(n, dtype=np.int64)
    class_counts = np.zeros(head.n_classes, dtype=np.int64)
    bank = selected = np.empty(0, dtype=np.int64)
    probs_out = np.empty((n, head.n_classes))
    emitted = np.empty_like(test)
    probs_before = np.empty((n, head.n_classes))
    unadapted_batches = 0
    fallback_seen = False

    for lo in range(0, n, cfg.batch_size):
        hi = min(lo + cfg.batch_size, n)
        batch = test[lo:hi]
        preds = predict(head, batch)
        probs_before[lo:hi] = preds.probs
        stats.update(batch)
        uncertainty[lo:hi] = batch_uncertainties(preds.probs)
        classes[lo:hi] = preds.argmax
        class_counts += np.bincount(preds.argmax, minlength=head.n_classes)
        bank = _fold(cfg, bank, np.arange(lo, hi), uncertainty, classes)
        selected, fallback = _select(cfg, uncertainty, classes, class_counts, bank)
        fallback_seen = fallback_seen or fallback
        if len(selected) < 2 or stats.count < 2:
            probs_out[lo:hi] = preds.probs
            emitted[lo:hi] = batch
            unadapted_batches += 1
            continue
        mu_s_hat, sigma_s_hat = covariance(test[selected])
        mu_t, sigma_t = stats.finalize()
        w, _ = _solve(cfg, sigma_t, sigma_s_hat)
        transform = AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat)
        transformed = apply_transform(batch, transform)
        adapted = predict(head, transformed)
        probs_out[lo:hi] = adapted.probs
        emitted[lo:hi] = transformed

    preds_out = PredictionBatch(probs=probs_out, argmax=probs_out.argmax(axis=1))
    preds_unadapted = PredictionBatch(probs=probs_before, argmax=probs_before.argmax(axis=1))

    mu_t, sigma_t = stats.finalize()
    report = AdaptReport(
        n=n,
        d=d,
        c=head.n_classes,
        mode="online",
        selection_fallback=fallback_seen,
        unadapted_batches=unadapted_batches,
    )
    _, sigma_emitted = covariance(emitted)
    if len(selected) >= 2:  # the pseudo-source selected after the last batch
        _, sigma_s_hat = covariance(test[selected])
        report.dist_test_to_pseudo_before = correlation_distance(sigma_t, sigma_s_hat)
        report.dist_test_to_pseudo_after = correlation_distance(sigma_emitted, sigma_s_hat)
        if source_stats is not None:
            _, sigma_s = source_stats
            report.dist_pseudo_to_source = correlation_distance(sigma_s_hat, sigma_s)
    if source_stats is not None:
        _, sigma_s = source_stats
        report.dist_test_to_source_before = correlation_distance(sigma_t, sigma_s)
        report.dist_test_to_source_after = correlation_distance(sigma_emitted, sigma_s)
    if labels is not None:
        report.accuracy_before = accuracy(preds_unadapted, labels)
        report.accuracy_after = accuracy(preds_out, labels)
    return preds_out, report


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
    test = validate_embeddings(test, "test")
    _, sigma_s = source_stats

    _, _, (mu_s_hat, sigma_s_hat), (mu_t, sigma_t) = _full_batch_core(test, head, cfg)

    recorded: list[tuple[int, np.ndarray]] = []

    def hook(iteration: int, w: np.ndarray) -> None:
        recorded.append((iteration, w))

    _, trace = solve_gradient(
        sigma_t,
        sigma_s_hat,
        init=None,
        lr=cfg.lr,
        max_iters=cfg.max_iters,
        tol=cfg.tol,
        eps=cfg.eps,
        iterate_hook=hook,
    )

    result = TraceResult(solver_trace=trace)
    last = len(recorded) - 1
    for pos, (iteration, w) in enumerate(recorded):
        if pos % record_every != 0 and pos != last:
            continue
        transform = AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat)
        transformed = apply_transform(test, transform)
        _, sigma_i = covariance(transformed)
        result.rows.append(
            TraceRow(
                iteration=iteration,
                dist_to_pseudo=correlation_distance(sigma_i, sigma_s_hat),
                dist_to_source=correlation_distance(sigma_i, sigma_s),
                accuracy=accuracy(predict(head, transformed), labels),
            )
        )
    result.summarize()
    return result
