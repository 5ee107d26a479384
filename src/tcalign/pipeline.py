"""The adapt path: transductive and online test-time correlation alignment.

This module is the loop and its edge: ``AdaptConfig``, ``AdaptReport``, the
boundary checks ``_check_test`` and ``_source_covariance``, the loop
``_batches``, ``_adapt``, which drains it, and the two public entries. Each
decision in the loop has one owner: scoring and selection (``_scored``,
``_fold``) are ``pseudo_source``'s; the source-side root, the solve and the map
folded into the head are ``transform``'s; the moments are ``linalg``'s. Per
batch ``_batches`` pools the rows' moments, folds the rows into a bounded index
bank, selects the pseudo-source and solves, and ``_adapt`` predicts the batch
through the adapted head; transductive mode is one batch of n rows. Rows are
scored once, and the pseudo-source half of the solve (mu_s_hat, sigma_s_hat,
S_s^(1/2)) is redone only when the selected rows change. Values inside, checks
at the edge: ``_adapt`` builds the one checked ``AlignmentTransform`` after the
loop. ``experiments`` takes the trace's statistics from ``_batches``; this
module imports nothing from it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InsufficientSamples, InvalidConfig, InvalidInput, _check_count
from .head import PredictionBatch, SoftmaxHead, check_labels, softmax_rows
from .linalg import _check_eps, _check_width, _covariance, _distance, _moments, _pooled, _square
from .linalg import validate_embeddings
from .pseudo_source import SELECTION_MODES, _fold, _scored
from .transform import DEFAULT_EPS, AlignmentTransform, _adapted_head, _closed_form, _mapped, _source_root


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

    @classmethod
    def _checked(cls, cfg) -> "AdaptConfig":
        """``cfg`` itself, or the defaults for None; anything else raises InvalidConfig."""
        if cfg is None:
            return cls()
        if not isinstance(cfg, cls):
            raise InvalidConfig(f"cfg must be an AdaptConfig or None, got {type(cfg).__name__}")
        return cfg


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


def _batches(test: np.ndarray, head: SoftmaxHead, cfg: AdaptConfig, classes, uncertainty, batch_size: int):
    """The adaptation loop over checked ``test`` rows scored as ``classes`` and
    ``uncertainty``: per batch of ``batch_size`` rows it pools the moments, folds
    the rows into the bank, selects the pseudo-source, solves and yields
    ``(lo, hi, moments, w, mu_t, sigma_t, mu_s_hat, sigma_s_hat)``, ``moments``
    being the batch's own. A batch that selects fewer than 2 rows is not solved:
    its last five fields are None."""
    n, d = test.shape
    class_counts = np.zeros(head.n_classes, dtype=np.int64)
    bank = np.empty(0, dtype=np.int64)
    stats = (0, np.zeros(d), np.zeros((d, d)))  # (count, mean, scatter) so far
    source_rows = None  # the rows of the last pseudo-source moments
    for lo in range(0, n, batch_size):
        hi = min(lo + batch_size, n)
        class_counts += np.bincount(classes[lo:hi], minlength=head.n_classes)
        batch = _moments(test[lo:hi])
        stats = _pooled(stats, batch)
        bank, selected = _fold(cfg, bank, np.arange(lo, hi), uncertainty, classes, class_counts)
        if len(selected) < 2:
            yield lo, hi, batch, None, None, None, None, None
            continue
        # the key is the selected rows, not the bank: class-balanced quotas
        # move with the class counts while the bank stands still
        if not np.array_equal(selected, source_rows):
            source_rows = selected
            mu_s_hat, sigma_s_hat = _covariance(_moments(test[selected]))
            root_s = _source_root(sigma_s_hat, cfg.eps)
        mu_t, sigma_t = _covariance(stats)
        yield lo, hi, batch, _closed_form(sigma_t, root_s, cfg.eps), mu_t, sigma_t, mu_s_hat, sigma_s_hat


def _adapt(test, head: SoftmaxHead, cfg, labels, source_stats, mode: str):
    """Both modes: drains ``_batches``, predicting each solved batch through the
    adapted head; returns the predictions, the report and the transform of the
    last solve. k >= 2, so only a first batch of one row is emitted unadapted."""
    cfg = AdaptConfig._checked(cfg)
    test = _check_test(test, head, mode)
    n, d = test.shape
    if labels is not None:
        labels = check_labels(labels, n)
    if source_stats is not None:
        sigma_s = _source_covariance(source_stats, d)

    probs, classes, uncertainty = _scored(test, head)  # unadapted; adapted rows overwrite probs
    emitted = (0, np.zeros(d), np.zeros((d, d)))  # (count, mean, scatter) of the emitted rows
    unadapted_batches = 0
    records = _batches(test, head, cfg, classes, uncertainty, n if mode == "transductive" else cfg.batch_size)
    for lo, hi, batch, w, mu_t, sigma_t, mu_s_hat, sigma_s_hat in records:
        if w is None:
            unadapted_batches += 1
        else:
            softmax_rows(test[lo:hi], *_adapted_head(head, w, mu_t, mu_s_hat), out=probs[lo:hi])
            batch = _mapped(batch, w, mu_t, mu_s_hat)
        emitted = _pooled(emitted, batch)

    # n >= 2, so the last batch was adapted and its moments cover every row
    preds_out = PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))
    _, sigma_emitted = _covariance(emitted)
    report = AdaptReport(
        n=n,
        d=d,
        c=head.n_classes,
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
