"""Deterministic synthetic domain-shift generators.

The upstream demo data was produced with a framework RNG whose draws are not
reproducible, so this module fixes its own fully specified generator:
splitmix64 state updates, uniforms u = ((x >> 11) + 1) * 2^-53 in (0, 1],
and Box-Muller pairs consumed in order. Two independent implementations of
this recipe produce bit-identical streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


class NormalStream:
    """Standard normal draws from splitmix64 + Box-Muller, single consumer."""

    def __init__(self, seed: int):
        self.state = int(seed) & _MASK64
        self._pending: float | None = None

    def _next_u64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def next_uniform(self) -> float:
        """Uniform draw in (0, 1], safe to feed into log()."""
        return ((self._next_u64() >> 11) + 1) * 2.0**-53

    def next_normal(self) -> float:
        if self._pending is not None:
            z, self._pending = self._pending, None
            return z
        u1 = self.next_uniform()
        u2 = self.next_uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._pending = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def normal_matrix(self, n: int, d: int) -> np.ndarray:
        """n x d standard normals, row-major draw order.

        With d = 2 each row consumes exactly one Box-Muller pair: coordinate
        0 takes the cosine draw and coordinate 1 the sine draw.
        """
        out = np.empty((n, d))
        for i in range(n):
            for j in range(d):
                out[i, j] = self.next_normal()
        return out


@dataclass
class LabeledBatch:
    """Feature matrix with integer class labels."""

    features: np.ndarray
    labels: np.ndarray


@dataclass
class ShiftDataset:
    """Source/target feature pair for one synthetic shift scenario."""

    source: LabeledBatch
    target: LabeledBatch
    shift_kind: str
    seed: int


def _clusters(stream: NormalStream, specs) -> LabeledBatch:
    """Sample clusters in listed order; the cluster index is the class label."""
    blocks = []
    labels = []
    for label, (count, scale, offset) in enumerate(specs):
        blocks.append(stream.normal_matrix(count, 2) * scale + offset)
        labels.append(np.full(count, label, dtype=np.int64))
    return LabeledBatch(features=np.vstack(blocks), labels=np.concatenate(labels))


def gen_linear_shift(seed: int) -> ShiftDataset:
    """Three-cluster source (90 x 2) and linearly shifted target (750 x 2)."""
    stream = NormalStream(seed)
    source = _clusters(
        stream,
        [
            (30, 1.0, (0.0, 0.0)),
            (30, 1.0, (15.0, 15.0)),
            (30, 1.0, (0.0, 10.0)),
        ],
    )
    target = _clusters(
        stream,
        [
            (250, 2.0, (7.0, 7.0)),
            (250, 2.5, (0.0, 20.0)),
            (250, 3.0, (21.0, 21.0)),
        ],
    )
    return ShiftDataset(source=source, target=target, shift_kind="linear", seed=seed)


def gen_nonlinear_shift(seed: int) -> ShiftDataset:
    """Four-cluster source (120 x 2) and nonlinearly shifted target (1000 x 2)."""
    stream = NormalStream(seed)
    source = _clusters(
        stream,
        [
            (30, 1.0, (0.0, 0.0)),
            (30, 1.0, (10.0, 10.0)),
            (30, 1.0, (0.0, 10.0)),
            (30, 1.0, (-5.0, -10.0)),
        ],
    )
    target = _clusters(
        stream,
        [
            (250, 3.0, (5.0, 5.0)),
            (250, 1.0, (10.0, 10.0)),
            (250, 2.0, (0.0, 20.0)),
            (250, 2.5, (-9.0, 1.0)),
        ],
    )
    return ShiftDataset(source=source, target=target, shift_kind="nonlinear", seed=seed)
