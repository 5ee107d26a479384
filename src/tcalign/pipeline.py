"""The adapt path: transductive and online test-time correlation alignment.

``_adapt`` is the one adaptation loop. It checks the test matrix once, in
``_check_test``, and scores each row once, in ``_scored`` (one whole-matrix
product, so no score depends on the batch size). Per batch it pools the rows'
(count, mean, scatter) into the running one (``linalg._pooled``), folds them
into a bounded index bank, selects the pseudo-source, solves in closed form
and predicts the batch through it. Transductive mode is one batch of n rows.
The pseudo-source half of the solve (mu_s_hat, sigma_s_hat, S_s^(1/2)) is
redone only when the selected rows change.

Values inside, checks at the edge. Below the entry the loop calls only
kernels, reused by ``experiments``, from which this module imports nothing,
and hands them arrays: each solve's map is the (w, mu_t, mu_s_hat) it just
computed, and the report's distances go through ``linalg._distance``. The
one checked ``AlignmentTransform`` is built after the loop, from the last
solve, for the return value.

Adapted rows are never materialised. The affine map z -> (z - mu_t) W +
mu_s_hat is folded into the linear softmax head (weight H W^T, bias
b + H (mu_s_hat - W^T mu_t)), and the moments of the adapted rows follow
from the batch's own: the mean maps through the transform and the scatter
S becomes W^T S W. ``transform.apply_transform`` remains the reference
those identities are tested against.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InsufficientSamples, InvalidConfig, InvalidInput, _check_count
from .head import PredictionBatch, SoftmaxHead, check_labels, softmax_rows
from .linalg import _check_eps, _check_width, _covariance, _distance, _moments, _pooled
from .linalg import _power, _shrink, _square, _symmetrized, validate_embeddings
from .pseudo_source import _class_quotas, _most_certain, _uncertainties
from .transform import DEFAULT_EPS, AlignmentTransform, _closed_form

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


def _source_covariance(source_stats, dim: int) -> np.ndarray:
    """The covariance of a (mean, covariance) ``source_stats`` pair, once it is
    a finite dim x dim matrix; the mean is not read."""
    if not (isinstance(source_stats, (tuple, list)) and len(source_stats) == 2):
        kind = type(source_stats).__name__
        raise InvalidInput(f"source_stats must be a (mean, covariance) pair, got {kind}")
    sigma_s = _square(source_stats[1], "source_stats covariance")
    if sigma_s.shape != (dim, dim):
        raise InvalidInput(f"source_stats covariance must be {dim} x {dim}, got {sigma_s.shape}")
    return sigma_s


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
    if source_stats is not None:
        sigma_s = _source_covariance(source_stats, d)

    c = head.n_classes
    probs, classes, uncertainty = _scored(test, head)  # unadapted; adapted rows overwrite probs
    class_counts = np.zeros(c, dtype=np.int64)
    bank = np.empty(0, dtype=np.int64)
    stats = emitted = (0, np.zeros(d), np.zeros((d, d)))  # (count, mean, scatter) so far
    source_rows = None  # the rows of the last pseudo-source moments
    unadapted_batches = 0
    batch_size = n if mode == "transductive" else cfg.batch_size
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        class_counts += np.bincount(classes[lo:hi], minlength=c)
        batch = _moments(test[lo:hi])
        stats = _pooled(stats, batch)
        bank, selected = _fold(cfg, bank, np.arange(lo, hi), uncertainty, classes, class_counts)
        if len(selected) < 2:
            emitted = _pooled(emitted, batch)
            unadapted_batches += 1
            continue
        # the key is the selected rows, not the bank: class-balanced quotas
        # move with the class counts while the bank stands still
        if not np.array_equal(selected, source_rows):
            source_rows = selected
            mu_s_hat, sigma_s_hat = _covariance(_moments(test[selected]))
            root_s = _power(_shrink(sigma_s_hat, cfg.eps), 0.5)
        mu_t, sigma_t = _covariance(stats)
        w = _closed_form(sigma_t, root_s, cfg.eps)
        softmax_rows(test[lo:hi], *_adapted_head(head, w, mu_t, mu_s_hat), out=probs[lo:hi])
        emitted = _pooled(emitted, _mapped(batch, w, mu_t, mu_s_hat))

    # n >= 2, so the last batch was adapted and its moments cover every row
    preds_out = PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))
    _, sigma_emitted = _covariance(emitted)
    report = AdaptReport(
        n=n,
        d=d,
        c=c,
        mode=mode,
        dist_test_to_pseudo_before=_distance(sigma_t, sigma_s_hat),
        dist_test_to_pseudo_after=_distance(sigma_emitted, sigma_s_hat),
        unadapted_batches=unadapted_batches,
    )
    if labels is not None:
        report.accuracy_before = float(np.mean(classes == labels))
        report.accuracy_after = float(np.mean(preds_out.argmax == labels))
    if source_stats is not None:
        report.dist_test_to_source_before = _distance(sigma_t, sigma_s)
        report.dist_test_to_source_after = _distance(sigma_emitted, sigma_s)
        report.dist_pseudo_to_source = _distance(sigma_s_hat, sigma_s)
    return preds_out, report, AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat)


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
