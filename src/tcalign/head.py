"""Linear softmax decoder: prediction, desk-scale training, persistence.

The head is a plain multinomial logistic regression trained from zero
initialization by full-batch gradient descent, which keeps every run
deterministic without threading an RNG through the API.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, InvalidInput, NumericalFailure, ParseError
from .errors import _check_count, _check_positive
from .io import _atomic_write, _class_indices, _float_texts, _read_text
from .linalg import _check_width, validate_embeddings

HEAD_FORMAT_VERSION = 1


@dataclass
class SoftmaxHead:
    """Linear decoder: c x d weight matrix plus length-c bias."""

    weight: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise InvalidInput("head weight must be a c x d matrix")
        if self.bias.shape != (self.weight.shape[0],):
            raise InvalidInput(
                f"bias shape {self.bias.shape} does not match weight rows {self.weight.shape[0]}"
            )
        if self.weight.shape[0] < 2:
            raise InvalidInput("head needs at least 2 classes")
        if not (np.all(np.isfinite(self.weight)) and np.all(np.isfinite(self.bias))):
            raise InvalidInput("head contains non-finite values")

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

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]


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
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise InvalidInput(f"label count {labels.shape} does not match row count {n}")
    return _class_indices(labels)


def accuracy(preds: PredictionBatch, labels) -> float:
    """Fraction of rows whose argmax matches the label."""
    return float(np.mean(preds.argmax == check_labels(labels, preds.argmax.shape[0])))


def save_head(head: SoftmaxHead, path) -> None:
    """Write the head as JSON with 17-significant-digit decimals (lossless for float64)."""
    c, d = head.weight.shape
    weight = _float_texts(head.weight)
    rows = ",\n    ".join("[" + ", ".join(weight[i * d : (i + 1) * d]) + "]" for i in range(c))
    bias = ", ".join(_float_texts(head.bias))
    text = (
        "{\n"
        f'  "version": {HEAD_FORMAT_VERSION},\n'
        f'  "c": {c},\n'
        f'  "d": {d},\n'
        f'  "weight": [\n    {rows}\n  ],\n'
        f'  "bias": [{bias}]\n'
        "}\n"
    )
    _atomic_write(path, text)


def _numbers(values: list) -> bool:
    """Whether every entry of a JSON list is a number: an int or a float, not a bool."""
    return all(type(v) is int or type(v) is float for v in values)


def load_head(path) -> SoftmaxHead:
    """Read a head JSON file, validating schema and shapes."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in head file {path}", f"line {exc.lineno}") from exc
    except (ValueError, RecursionError) as exc:  # integer digit limit, nesting depth
        raise ParseError(f"invalid JSON in head file {path}: {exc}", "top level") from exc
    if not isinstance(doc, dict):
        raise ParseError("head file must contain a JSON object", "top level")
    for key in ("version", "c", "d", "weight", "bias"):
        if key not in doc:
            raise ParseError("missing required field", f"field '{key}'")
    # exact types: JSON's true and 1.0 compare equal to 1, and bool is an int
    if type(doc["version"]) is not int or doc["version"] != HEAD_FORMAT_VERSION:
        raise ParseError(f"unsupported head version {doc['version']}", "field 'version'")
    c, d = doc["c"], doc["d"]
    if not (type(c) is int and type(d) is int and c >= 2 and d >= 1):
        raise ParseError("c and d must be integers with c >= 2, d >= 1", "fields 'c'/'d'")
    # exact types again: float() would take "1.5" and true for numbers
    weight, bias = doc["weight"], doc["bias"]
    if not (type(weight) is list and all(type(row) is list and _numbers(row) for row in weight)):
        raise ParseError("weight must be a list of lists of JSON numbers", "field 'weight'")
    if not (type(bias) is list and _numbers(bias)):
        raise ParseError("bias must be a list of JSON numbers", "field 'bias'")
    try:
        weight = np.array(weight, dtype=np.float64)
        bias = np.array(bias, dtype=np.float64)
        if weight.shape != (c, d):
            raise ParseError(f"weight must have {c} rows of {d} entries", "field 'weight'")
        if bias.shape != (c,):
            raise ParseError(f"bias must have {c} entries", "field 'bias'")
        return SoftmaxHead(weight=weight, bias=bias)
    except (InvalidInput, ValueError, OverflowError) as exc:  # ragged, huge, non-finite
        raise ParseError(f"head values are invalid: {exc}", "fields 'weight'/'bias'") from exc
