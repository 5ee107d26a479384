"""Inputs, oracle and output checks of the benchmark workloads.

Inputs come from the benchmark's own numpy Generator, never from tcalign:
``c`` class means on a radius-4 sphere, uniform labels, unit isotropic noise,
then the seeded affine shift ``z (I + 0.3 G / sqrt(d)) + t`` with ``t`` drawn
at scale 0.5. The head is the Gaussian-LDA softmax head of the unshifted
means (weight = means, bias = -|mean|^2 / 2), so no training is needed.
Files are written with the documented byte layouts, not with tcalign's io.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

import numpy as np

MEAN_RADIUS = 4.0
SHIFT_SCALE = 0.3
OFFSET_SCALE = 0.5
PROB_SUM_ATOL = 1e-9
DIST_RTOL = 1e-6


@dataclass(frozen=True)
class Spec:
    kind: str  # "cli" (tcalign adapt on files) or "api" (adapt_transductive in memory)
    n: int
    d: int
    c: int
    k: int
    mode: str = "transductive"
    batch_size: int | None = None


# Why each workload was chosen, and which layers it loads or bypasses, is
# recorded with its name in BENCHMARK.json.
WORKLOADS = {
    "cli-transductive-64d": Spec("cli", 100_000, 64, 10, 128),
    "cli-online-64d": Spec("cli", 100_000, 64, 10, 128, mode="online", batch_size=256),
    "api-transductive-512d": Spec("api", 20_000, 512, 100, 1024),
}


def generate(spec: Spec, seed: int):
    """Return (z, labels, weight, bias) for one seed; the same seed gives the same arrays."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((spec.c, spec.d))
    means = MEAN_RADIUS * g / np.linalg.norm(g, axis=1, keepdims=True)
    labels = rng.integers(0, spec.c, size=spec.n)
    z = means[labels] + rng.standard_normal((spec.n, spec.d))
    shift = np.eye(spec.d) + SHIFT_SCALE * rng.standard_normal((spec.d, spec.d)) / np.sqrt(spec.d)
    offset = OFFSET_SCALE * rng.standard_normal(spec.d)
    z = z @ shift + offset
    if spec.kind == "cli":
        z = z.astype(np.float32)
    return z, labels, means, -0.5 * np.sum(means * means, axis=1)


def write_inputs(spec: Spec, workdir: str, z, labels, weight, bias) -> None:
    """Write the program's inputs: .tcae/.tcal/head JSON for the CLI, .npy for the API."""
    if spec.kind == "api":
        np.save(os.path.join(workdir, "z.npy"), z)
        np.save(os.path.join(workdir, "labels.npy"), labels)
        np.savez(os.path.join(workdir, "head.npz"), weight=weight, bias=bias)
        return
    n, d = z.shape
    with open(os.path.join(workdir, "test.tcae"), "wb") as fh:
        fh.write(b"TCAE" + struct.pack("<IBQQ", 1, 0, n, d))
        fh.write(np.ascontiguousarray(z, dtype="<f4").tobytes())
    with open(os.path.join(workdir, "test.tcal"), "wb") as fh:
        fh.write(b"TCAL" + struct.pack("<IQ", 1, n))
        fh.write(labels.astype("<u4").tobytes())
    head = {"version": 1, "c": spec.c, "d": d, "weight": weight.tolist(), "bias": bias.tolist()}
    with open(os.path.join(workdir, "head.json"), "w", encoding="utf-8") as fh:
        json.dump(head, fh)


def _cov(x: np.ndarray) -> np.ndarray:
    centered = x - x.mean(axis=0)
    return centered.T @ centered / (x.shape[0] - 1)


@dataclass
class Oracle:
    """Expected pseudo-source of a global-selection run, computed by the benchmark.

    Uncertainty is |onehot(argmax p) - p|^2 of the head's softmax, scored in
    the same row blocks as the program (whole matrix in transductive mode,
    one batch at a time online). The pseudo-source is the k smallest
    (uncertainty, arrival) pairs by ``lexsort``; the online bank after the
    last batch is the same set.
    """

    selected: np.ndarray
    dist_test_to_pseudo: float
    batches: int = 0
    unchanged_batches: int = 0

    @classmethod
    def build(cls, spec: Spec, z, weight, bias) -> "Oracle":
        z = np.asarray(z, dtype=np.float64)
        n = z.shape[0]
        block = spec.batch_size or n
        u = np.empty(n)
        for lo in range(0, n, block):
            logits = z[lo : lo + block] @ weight.T + bias
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            p = e / e.sum(axis=1, keepdims=True)
            top = p.max(axis=1)
            u[lo : lo + block] = np.sum(p * p, axis=1) - top * top + (1.0 - top) ** 2
        arrival = np.arange(n)
        selected = np.sort(np.lexsort((arrival, u))[: spec.k])
        diff = _cov(z) - _cov(z[selected])
        oracle = cls(selected, float(np.sum(diff * diff) / (4.0 * spec.d**2)))
        if spec.mode == "online":
            oracle._replay_bank(u, spec.k, block)
        return oracle

    def _replay_bank(self, u: np.ndarray, k: int, block: int) -> None:
        """Count batches after which the bank's membership is what it was before."""
        bank = np.empty(0, dtype=np.int64)
        for lo in range(0, u.size, block):
            cand = np.concatenate([bank, np.arange(lo, min(lo + block, u.size))])
            keep = cand[np.lexsort((cand, u[cand]))[:k]]
            self.batches += 1
            self.unchanged_batches += int(bank.size == k and not np.any(keep >= lo))
            bank = np.sort(keep)
        if not np.array_equal(bank, self.selected):
            raise AssertionError("online bank replay disagrees with the offline top-k")


def check_predictions(spec: Spec, argmax, probs, labels, report: dict) -> list[str]:
    """Checks shared by both kinds of run; returns the failures found."""
    problems = []
    if probs.shape != (spec.n, spec.c) or argmax.shape != (spec.n,):
        return [f"predictions have shape {probs.shape} / {argmax.shape}, want ({spec.n}, {spec.c})"]
    if not np.all(np.isfinite(probs)):
        problems.append("non-finite probabilities")
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > PROB_SUM_ATOL:
        problems.append(f"probability rows sum to 1 only within {worst:.3e}")
    if not np.array_equal(argmax, probs.argmax(axis=1)):
        problems.append("argmax column disagrees with the probabilities")
    accuracy = float(np.mean(argmax == labels))
    if report.get("accuracy_after") != accuracy:
        problems.append(f"report accuracy_after {report.get('accuracy_after')} != recomputed {accuracy}")
    for key, want in (("n", spec.n), ("d", spec.d), ("c", spec.c), ("mode", spec.mode)):
        if report.get(key) != want:
            problems.append(f"report {key} = {report.get(key)!r}, want {want!r}")
    return problems


def check_cli_outputs(spec: Spec, csv_path: str, report: dict, labels, oracle: Oracle) -> list[str]:
    """Check the predictions CSV and report of a CLI run against the labels and the oracle."""
    with open(csv_path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    want = ",".join(["argmax"] + [f"p{j}" for j in range(spec.c)])
    problems = [] if header == want else [f"CSV header {header[:40]!r}..."]
    if table.shape != (spec.n, spec.c + 1):
        return problems + [f"CSV has shape {table.shape}, want ({spec.n}, {spec.c + 1})"]
    argmax = table[:, 0].astype(np.int64)
    if not np.array_equal(argmax, table[:, 0]):
        problems.append("non-integer argmax column")
    problems += check_predictions(spec, argmax, table[:, 1:], labels, report)
    got = report.get("dist_test_to_pseudo_before")
    if got is None or abs(got - oracle.dist_test_to_pseudo) > DIST_RTOL * abs(oracle.dist_test_to_pseudo):
        problems.append(f"dist_test_to_pseudo_before {got} != oracle {oracle.dist_test_to_pseudo}")
    return problems
