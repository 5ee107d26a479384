"""End-to-end adaptation pipelines and theory-validation experiments.

``_adapt`` is the one adaptation loop. It checks the test matrix once, in
``_check_test``, and scores each row once, in ``_scored`` (one whole-matrix
product, so no score depends on the batch size). Per batch it then folds the
rows into streaming statistics and a bounded index bank, selects the
pseudo-source, solves for the alignment transform in closed form and
predicts the batch through it. Transductive mode is one batch of all n rows.
The pseudo-source half of the solve (mu_s_hat, sigma_s_hat, S_s^(1/2)) is
redone only when the selected rows change. Below the entry the loop calls
only kernels. Both experiments score through ``_scored``; the alignment
trace builds the transductive pseudo-source from the same kernels and
records the iterates of one gradient solve, which runs nowhere else.

Adapted rows are never materialised. The affine map z -> (z - mu_t) W +
mu_s_hat is folded into the linear softmax head (weight H W^T, bias
b + H (mu_s_hat - W^T mu_t)), and the moments of the adapted rows follow
from the batch's own: the mean maps through the transform and the scatter
S becomes W^T S W. ``transform.apply_transform`` remains the reference
those identities are tested against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InsufficientSamples, InvalidConfig, InvalidInput, _check_count, _finite_real
from .head import PredictionBatch, SoftmaxHead, check_labels, softmax_rows
from .linalg import CovarianceAccumulator, _check_eps, _check_width, _covariance, _moments
from .linalg import _power, _shrink, _symmetrized
from .linalg import correlation_distance, validate_embeddings
from .metrics import linear_fit_r2, spearman
from .pseudo_source import _class_quotas, _most_certain, _uncertainties
from .transform import DEFAULT_EPS, DEFAULT_LR, DEFAULT_MAX_ITERS
from .transform import AlignmentTransform, SolverTrace, _closed_form, solve_gradient

SELECTION_MODES = ("global", "class_balanced")


@dataclass(frozen=True)
class AdaptConfig:
    """Knobs for one adaptation run; ``eps`` defaults to ``transform.DEFAULT_EPS``.

    The mode is not a knob: it is the function called, ``adapt_transductive``
    or ``adapt_online`` (which alone reads ``batch_size``). A config is checked
    when it is built and cannot be changed afterwards; ``dataclasses.replace``
    builds (and checks) a modified copy.
    """

    k: int = 30
    eps: float = DEFAULT_EPS
    selection_mode: str = "global"
    batch_size: int = 64

    def __post_init__(self):
        _check_count("bank capacity k", self.k, 2, InvalidConfig)
        _check_eps(self.eps, InvalidConfig)
        if self.selection_mode not in SELECTION_MODES:
            raise InvalidConfig(
                f"selection_mode must be one of {SELECTION_MODES}, got {self.selection_mode!r}"
            )
        _check_count("batch_size", self.batch_size, 1, InvalidConfig)


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
    unadapted_batches: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _fold(cfg: AdaptConfig, bank, rows, uncertainty, classes, class_counts):
    """Merge ``rows`` into the online bank; return ``(bank, pseudo_source)``.

    A global bank keeps the k most certain rows so far and is itself the
    pseudo-source. A class-balanced bank keeps the k most certain rows of
    each class, and the pseudo-source keeps the most certain bank rows of
    each class up to its ``class_quotas`` share of min(k, bank size) slots;
    that share is at most min(k, n_j), n_j the class's rows so far, so
    selecting from the bank picks what selecting from every row would.
    """
    bank = np.concatenate([bank, rows])
    if cfg.selection_mode == "global":
        bank = _most_certain(uncertainty[bank], cfg.k, bank)
        return bank, bank
    bank = _most_certain(uncertainty[bank], cfg.k, bank, classes[bank])
    quotas = _class_quotas(class_counts, min(cfg.k, bank.size))
    return bank, _most_certain(uncertainty[bank], quotas, bank, classes[bank])


def _check_test(test, head: SoftmaxHead, mode: str) -> np.ndarray:
    test = validate_embeddings(test, "test")
    if test.shape[0] < 2:
        raise InsufficientSamples(f"{mode} adaptation needs at least 2 test rows")
    return _check_width(test, head.dim, "head")


def _recolor(w: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """W^T sigma W, symmetrized: the covariance (or scatter) of rows mapped through W."""
    return _symmetrized(w.T @ sigma @ w)


def _adapted_head(head: SoftmaxHead, t: AlignmentTransform) -> tuple[np.ndarray, np.ndarray]:
    """The (weight, bias) of the head with the transform folded in, so that
    predicting z through them equals predicting (z - mu_t) W + mu_s_hat
    through ``head``."""
    return head.weight @ t.w.T, head.bias + head.weight @ (t.mu_s_hat - t.w.T @ t.mu_t)


def _mapped(batch: tuple, t: AlignmentTransform) -> tuple[int, np.ndarray, np.ndarray]:
    """The (count, mean, scatter) of the batch's rows after the transform: the
    mean maps through it, the scatter becomes W^T S W."""
    n, mean, scatter = batch
    return n, (mean - t.mu_t) @ t.w + t.mu_s_hat, _recolor(t.w, scatter)


def _scored(test: np.ndarray, head: SoftmaxHead) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unadapted (probs, classes, uncertainty) of checked rows, from one whole-matrix product."""
    probs = softmax_rows(test, head.weight, head.bias)
    classes = probs.argmax(axis=1)
    return probs, classes, _uncertainties(probs, classes)


def _adapt(test, head: SoftmaxHead, cfg, labels, source_stats, mode: str):
    """The adaptation loop of both modes; returns the predictions, the report
    and the transform of the last solve. A batch that selects fewer than 2
    rows is emitted unadapted; k >= 2, so only a first batch of one row does.
    """
    cfg = cfg or AdaptConfig()
    test = _check_test(test, head, mode)
    n, d = test.shape
    if labels is not None:
        labels = check_labels(labels, n)

    c = head.n_classes
    probs, classes, uncertainty = _scored(test, head)  # unadapted; adapted rows overwrite probs
    class_counts = np.zeros(c, dtype=np.int64)
    bank = np.empty(0, dtype=np.int64)
    stats, emitted = CovarianceAccumulator(d), CovarianceAccumulator(d)
    source_rows = None  # the rows of the last pseudo-source moments
    unadapted_batches = 0
    batch_size = n if mode == "transductive" else cfg.batch_size
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        class_counts += np.bincount(classes[lo:hi], minlength=c)
        batch = _moments(test[lo:hi])
        stats._merge_moments(*batch)
        bank, selected = _fold(cfg, bank, np.arange(lo, hi), uncertainty, classes, class_counts)
        if len(selected) < 2:
            emitted._merge_moments(*batch)
            unadapted_batches += 1
            continue
        # the key is the selected rows, not the bank: class-balanced quotas
        # move with the class counts while the bank stands still
        if not np.array_equal(selected, source_rows):
            source_rows = selected
            mu_s_hat, sigma_s_hat = _covariance(test[selected])
            root_s = _power(_shrink(sigma_s_hat, cfg.eps), 0.5)
        mu_t, sigma_t = stats.finalize()
        w = _closed_form(sigma_t, root_s, cfg.eps)
        transform = AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat)
        softmax_rows(test[lo:hi], *_adapted_head(head, transform), out=probs[lo:hi])
        emitted._merge_moments(*_mapped(batch, transform))

    # n >= 2, so the last batch was adapted and its moments cover every row
    preds_out = PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))
    _, sigma_emitted = emitted.finalize()
    report = AdaptReport(
        n=n,
        d=d,
        c=c,
        mode=mode,
        dist_test_to_pseudo_before=correlation_distance(sigma_t, sigma_s_hat),
        dist_test_to_pseudo_after=correlation_distance(sigma_emitted, sigma_s_hat),
        unadapted_batches=unadapted_batches,
    )
    if labels is not None:
        report.accuracy_before = float(np.mean(classes == labels))
        report.accuracy_after = float(np.mean(preds_out.argmax == labels))
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
    _check_count("n_groups", n_groups, 1, InvalidConfig)
    if n // n_groups < 2:
        raise InvalidConfig(
            f"each group needs >= 2 instances: n={n} is too small for {n_groups} groups"
        )
    _, sigma_s = source_stats
    _, _, uncertainties = _scored(_check_width(test, head.dim, "head"), head)
    order = np.argsort(uncertainties, kind="stable")  # ties go to the lower row
    size = n // n_groups
    rows = []
    for g in range(n_groups):
        lo = g * size
        hi = (g + 1) * size if g < n_groups - 1 else n  # remainder joins the last group
        idx = order[lo:hi]
        _, sigma_g = _covariance(test[idx])
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
    if not (_finite_real(lr) and lr > 0):
        raise InvalidConfig(f"lr must be finite and positive, got {lr}")
    _check_count("max_iters", max_iters, 1, InvalidConfig)
    if labels is None:
        raise InvalidInput("alignment traces require test labels for the accuracy column")
    _check_count("record_every", record_every, 1, InvalidConfig)
    test = _check_test(test, head, "transductive")
    n = test.shape[0]
    labels = check_labels(labels, n)
    _, sigma_s = source_stats

    _, classes, uncertainty = _scored(test, head)
    class_counts = np.bincount(classes, minlength=head.n_classes)
    empty = np.empty(0, dtype=np.int64)
    _, selected = _fold(cfg, empty, np.arange(n), uncertainty, classes, class_counts)
    mu_t, sigma_t = _covariance(test)
    mu_s_hat, sigma_s_hat = _covariance(test[selected])

    result = TraceResult()

    def record(iteration: int, w: np.ndarray) -> None:
        sigma_i = _recolor(w, sigma_t)
        adapted = _adapted_head(head, AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat))
        argmax = softmax_rows(test, *adapted).argmax(axis=1)
        result.rows.append(
            TraceRow(
                iteration=iteration,
                dist_to_pseudo=correlation_distance(sigma_i, sigma_s_hat),
                dist_to_source=correlation_distance(sigma_i, sigma_s),
                accuracy=float(np.mean(argmax == labels)),
            )
        )

    latest = None

    def hook(iteration: int, w: np.ndarray) -> None:
        nonlocal latest
        latest = (iteration, w)
        if iteration % record_every == 0:
            record(iteration, w)

    _, result.solver_trace = solve_gradient(
        sigma_t, sigma_s_hat, lr=lr, max_iters=max_iters, eps=cfg.eps, iterate_hook=hook
    )
    if latest[0] % record_every != 0:  # the final iterate, not yet recorded
        record(*latest)
    result.summarize()
    return result
