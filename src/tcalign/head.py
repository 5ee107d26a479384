"""Linear softmax decoder: prediction, desk-scale training, persistence.

The head is a plain multinomial logistic regression trained from zero
initialization by full-batch gradient descent, which keeps every run
deterministic without threading an RNG through the API.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabels, InvalidInput, ParseError
from .io import _atomic_write_text, _class_indices, fmt17
from .linalg import validate_embeddings

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
    def n(self) -> int:
        return self.probs.shape[0]

    @property
    def n_classes(self) -> int:
        return self.probs.shape[1]


def softmax_rows(logits: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max subtraction for overflow safety."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def predict(head: SoftmaxHead, z) -> PredictionBatch:
    """Class probabilities softmax(W z + b) for each embedding row."""
    z = validate_embeddings(z)
    if z.shape[1] != head.dim:
        raise InvalidInput(
            f"embedding dimension {z.shape[1]} does not match head dimension {head.dim}"
        )
    probs = softmax_rows(z @ head.weight.T + head.bias)
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
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != z.shape[0]:
        raise InvalidInput("labels must be a vector matching the embedding rows")
    labels = labels.astype(np.int64)
    if np.unique(labels).size < 2:
        raise DegenerateLabels("training requires at least 2 distinct labels")
    if labels.min() < 0:
        raise InvalidInput("labels must be nonnegative class indices")
    c = int(labels.max()) + 1 if n_classes is None else int(n_classes)
    if c < 2 or labels.max() >= c:
        raise InvalidInput(f"labels must lie in [0, {c})")
    if lr <= 0:
        raise InvalidInput(f"learning rate must be positive, got {lr}")
    if epochs < 0:
        raise InvalidInput(f"epochs must be >= 0, got {epochs}")

    n, d = z.shape
    weight = np.zeros((c, d))
    bias = np.zeros(c)
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels] = 1.0
    for _ in range(epochs):
        probs = softmax_rows(z @ weight.T + bias)
        grad = probs - onehot
        weight -= lr * (grad.T @ z) / n
        bias -= lr * grad.mean(axis=0)
    return SoftmaxHead(weight=weight, bias=bias)


def cross_entropy(head: SoftmaxHead, z, labels) -> float:
    """Mean negative log-likelihood of the true labels under the head."""
    preds = predict(head, z)
    labels = np.asarray(labels, dtype=np.int64)
    picked = preds.probs[np.arange(preds.n), labels]
    return float(-np.mean(np.log(np.maximum(picked, 1e-300))))


def check_labels(labels, n: int) -> np.ndarray:
    """Labels of n predictions as an int64 vector of nonnegative integers."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise InvalidInput(f"label count {labels.shape} does not match prediction count {n}")
    return _class_indices(labels)


def accuracy(preds: PredictionBatch, labels) -> float:
    """Fraction of rows whose argmax matches the label."""
    return float(np.mean(preds.argmax == check_labels(labels, preds.argmax.shape[0])))


def save_head(head: SoftmaxHead, path) -> None:
    """Write the head as JSON with 17-significant-digit decimals (lossless for float64)."""
    c, d = head.weight.shape
    rows = ",\n    ".join(
        "[" + ", ".join(fmt17(v) for v in row) + "]" for row in head.weight
    )
    bias = ", ".join(fmt17(v) for v in head.bias)
    text = (
        "{\n"
        f'  "version": {HEAD_FORMAT_VERSION},\n'
        f'  "c": {c},\n'
        f'  "d": {d},\n'
        f'  "weight": [\n    {rows}\n  ],\n'
        f'  "bias": [{bias}]\n'
        "}\n"
    )
    _atomic_write_text(path, text)


def load_head(path) -> SoftmaxHead:
    """Read a head JSON file, validating schema and shapes."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in head file {path}", f"line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("head file must contain a JSON object", "top level")
    for key in ("version", "c", "d", "weight", "bias"):
        if key not in doc:
            raise ParseError("missing required field", f"field '{key}'")
    if doc["version"] != HEAD_FORMAT_VERSION:
        raise ParseError(f"unsupported head version {doc['version']}", "field 'version'")
    c, d = doc["c"], doc["d"]
    if not (isinstance(c, int) and isinstance(d, int) and c >= 2 and d >= 1):
        raise ParseError("c and d must be integers with c >= 2, d >= 1", "fields 'c'/'d'")
    weight = doc["weight"]
    if not isinstance(weight, list) or len(weight) != c:
        raise ParseError(f"weight must have {c} rows", "field 'weight'")
    for i, row in enumerate(weight):
        if not isinstance(row, list) or len(row) != d:
            raise ParseError(f"weight row {i} must have {d} entries", f"field 'weight[{i}]'")
    bias = doc["bias"]
    if not isinstance(bias, list) or len(bias) != c:
        raise ParseError(f"bias must have {c} entries", "field 'bias'")
    try:
        head = SoftmaxHead(
            weight=np.array(weight, dtype=np.float64),
            bias=np.array(bias, dtype=np.float64),
        )
    except (InvalidInput, ValueError) as exc:
        raise ParseError(f"head values are invalid: {exc}", "fields 'weight'/'bias'") from exc
    return head
