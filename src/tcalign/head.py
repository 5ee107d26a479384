"""Linear softmax decoder: prediction, desk-scale training, accuracy and labels.

The head is a plain multinomial logistic regression trained from zero
initialization by full-batch gradient descent, which keeps every run
deterministic without threading an RNG through the API. ``check_labels`` is
the package's one label rule (nonnegative integers, one per row), over
``linalg._indices``, the one integer rule; the head's JSON file format lives
in ``io``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, InvalidInput, NumericalFailure
from .errors import _check_count, _check_positive
from .linalg import _check_width, _indices, _read_only, _real, validate_embeddings


@dataclass(frozen=True)
class SoftmaxHead:
    """Linear decoder: c x d weight matrix plus length-c bias, checked when
    built and kept as read-only copies, so neither a reassignment nor a write
    to the caller's arrays or in place can change them."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        weight, bias = _real(self.weight, "head weight"), _real(self.bias, "head bias")
        if weight.ndim != 2:
            raise InvalidInput("head weight must be a c x d matrix")
        if bias.shape != (weight.shape[0],):
            raise InvalidInput(f"bias shape {bias.shape} does not match weight rows {weight.shape[0]}")
        if weight.shape[0] < 2:
            raise InvalidInput("head needs at least 2 classes")
        if weight.shape[1] < 1:
            raise InvalidInput("head needs at least 1 embedding dimension")
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise InvalidInput("head contains non-finite values")
        object.__setattr__(self, "weight", _read_only(weight))
        object.__setattr__(self, "bias", _read_only(bias))

    @property
    def n_classes(self) -> int:
        return self.weight.shape[0]

    @property
    def dim(self) -> int:
        return self.weight.shape[1]


@dataclass
class PredictionBatch:
    """Probability rows plus their argmax labels (ties to the lowest index)."""

    probs: np.ndarray
    argmax: np.ndarray


def softmax_rows(
    z: np.ndarray, weight: np.ndarray, bias: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise softmax of the logits z W^T + b of checked rows, max-subtracted
    against overflow, computed in one buffer (``out`` when given).

    Raises NumericalFailure when a row's largest logit is not finite, i.e.
    when finite inputs overflow the product: such a row has no softmax.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        probs = np.matmul(z, weight.T, out=out)
        probs += bias
        top = probs.max(axis=1, keepdims=True)
        if not np.all(np.isfinite(top)):
            raise NumericalFailure("logits z W^T + b are not finite: the rows overflow the head")
        probs -= top  # a logit far below its row's max may become -inf, whose exp is 0
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs


def predict(head: SoftmaxHead, z) -> PredictionBatch:
    """Class probabilities softmax(W z + b) for each embedding row."""
    z = _check_width(validate_embeddings(z), head.dim, "head")
    probs = softmax_rows(z, head.weight, head.bias)
    return PredictionBatch(probs=probs, argmax=probs.argmax(axis=1))


def train_head(
    z,
    labels,
    lr: float,
    epochs: int,
    n_classes: int | None = None,
) -> SoftmaxHead:
    """Full-batch gradient descent on mean cross-entropy from zero init.

    Deterministic: no shuffling, no random initialization. ``epochs`` counts
    full-batch steps; zero epochs returns the all-zero (uniform) head.
    """
    z = validate_embeddings(z)
    labels = check_labels(labels, z.shape[0])
    if np.unique(labels).size < 2:
        raise DegenerateLabels("training requires at least 2 distinct labels")
    c = int(labels.max()) + 1 if n_classes is None else n_classes
    _check_count("n_classes", c, 2)
    if labels.max() >= c:
        raise InvalidInput(f"labels must lie in [0, {c})")
    _check_positive("learning rate", lr)
    _check_count("epochs", epochs, 0)

    n, d = z.shape
    weight = np.zeros((c, d))
    bias = np.zeros(c)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    for _ in range(epochs):
        probs = softmax_rows(z, weight, bias)
        grad = probs - onehot
        weight -= lr * (grad.T @ z) / n
        bias -= lr * grad.mean(axis=0)
    return SoftmaxHead(weight=weight, bias=bias)


def check_labels(labels, n: int) -> np.ndarray:
    """Labels of n rows (embeddings or predictions) as an int64 vector of nonnegative integers."""
    labels = _indices(labels, "labels")
    if labels.shape != (n,):
        raise InvalidInput(f"label count {labels.shape} does not match row count {n}")
    return labels


def accuracy(preds: PredictionBatch, labels) -> float:
    """Fraction of rows whose argmax matches the label; a batch of no rows has none."""
    argmax = _indices(preds.argmax, "argmax", True)
    if argmax.ndim != 1 or argmax.size < 1:
        raise InvalidInput(f"argmax must be a 1-D vector with at least one row, got shape {argmax.shape}")
    return float(np.mean(argmax == check_labels(labels, argmax.size)))
