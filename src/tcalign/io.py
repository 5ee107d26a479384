"""Bit-exact file formats: embeddings (.tcae), labels (.tcal), CSV, report JSON.

Binary layouts are little-endian with no padding. Every file the package
writes, head JSON and SVG plots included, goes through the temp-file rename
of ``_atomic_write``, so a crashed process never leaves a half-written
artifact; every decimal float is printed with ``FLOAT_FORMAT``.
"""

from __future__ import annotations

import contextlib
import json
import os
import struct

import numpy as np

from .errors import InvalidInput, ParseError
from .linalg import validate_embeddings

EMBEDDING_MAGIC = b"TCAE"
LABEL_MAGIC = b"TCAL"
FORMAT_VERSION = 1
DTYPE_F32 = 0
DTYPE_F64 = 1
FLOAT_FORMAT = "%.17g"  # 17 significant digits: lossless for float64 round-trips


def _atomic_write(path, data: bytes | str) -> None:
    """Write ``data`` (a str as UTF-8) to a temp file renamed over ``path``;
    the temp file is removed if the write or the rename fails."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def write_embeddings(path, z, dtype: str = "f64") -> None:
    """Write an n x d matrix as a .tcae file (row-major, little-endian)."""
    z = validate_embeddings(z)
    if dtype == "f64":
        code, payload = DTYPE_F64, z.astype("<f8").tobytes(order="C")
    elif dtype == "f32":
        code, payload = DTYPE_F32, z.astype("<f4").tobytes(order="C")
    else:
        raise InvalidInput(f"dtype must be 'f32' or 'f64', got {dtype!r}")
    n, d = z.shape
    header = EMBEDDING_MAGIC + struct.pack("<IBQQ", FORMAT_VERSION, code, n, d)
    _atomic_write(path, header + payload)


def read_embeddings(path) -> np.ndarray:
    """Read a .tcae file; 32-bit payloads are upcast to float64."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != EMBEDDING_MAGIC:
        raise ParseError(f"bad magic in {path}", "byte offset 0")
    if len(blob) < 25:
        raise ParseError(f"truncated header in {path}", f"byte offset {len(blob)}")
    version, code, n, d = struct.unpack_from("<IBQQ", blob, 4)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported embedding format version {version}", "byte offset 4")
    if code not in (DTYPE_F32, DTYPE_F64):
        raise ParseError(f"unknown dtype code {code}", "byte offset 8")
    if n < 1 or d < 1:
        raise ParseError(f"invalid shape {n} x {d}", "byte offset 9")
    item = 4 if code == DTYPE_F32 else 8
    expected = 25 + n * d * item
    if len(blob) != expected:
        raise ParseError(
            f"payload size mismatch in {path}: expected {expected} bytes, got {len(blob)}",
            f"byte offset {min(len(blob), expected)}",
        )
    kind = "<f4" if code == DTYPE_F32 else "<f8"
    values = np.frombuffer(blob, dtype=kind, count=n * d, offset=25)
    z = values.reshape(n, d).astype(np.float64)
    if not np.all(np.isfinite(z)):
        raise ParseError(f"non-finite values in {path}", "payload")
    return z


def _class_indices(labels: np.ndarray) -> np.ndarray:
    """``labels`` as int64, rejecting negative and non-integer values (NaN included)."""
    with np.errstate(invalid="ignore"):  # NaN/inf casts are caught by the comparison
        as_int = labels.astype(np.int64)
    if labels.size and (np.any(labels != as_int) or as_int.min() < 0):
        raise InvalidInput("labels must be nonnegative integers")
    return as_int


def write_labels(path, labels) -> None:
    """Write class indices as a .tcal file (u32 little-endian)."""
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.size < 1:
        raise InvalidInput("labels must be a non-empty 1-D vector")
    labels = _class_indices(labels)
    if labels.max() > 0xFFFFFFFF:
        raise InvalidInput(f"labels must fit in u32, got {labels.max()}")
    header = LABEL_MAGIC + struct.pack("<IQ", FORMAT_VERSION, labels.size)
    _atomic_write(path, header + labels.astype("<u4").tobytes())


def read_labels(path) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != LABEL_MAGIC:
        raise ParseError(f"bad magic in {path}", "byte offset 0")
    if len(blob) < 16:
        raise ParseError(f"truncated header in {path}", f"byte offset {len(blob)}")
    version, n = struct.unpack_from("<IQ", blob, 4)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported label format version {version}", "byte offset 4")
    expected = 16 + n * 4
    if n < 1 or len(blob) != expected:
        raise ParseError(
            f"payload size mismatch in {path}: expected {expected} bytes, got {len(blob)}",
            f"byte offset {min(len(blob), expected)}",
        )
    return np.frombuffer(blob, dtype="<u4", count=n, offset=16).astype(np.int64)


def _write_csv(path, names: list[str], row_template: str, rows) -> None:
    """Write CSV: a header of ``names``, then ``row_template % tuple(row)`` per row, LF endings."""
    lines = [",".join(names)]
    lines.extend(row_template % tuple(row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_predictions_csv(path, preds) -> None:
    """Persist a PredictionBatch as CSV: argmax column then one column per class."""
    c = preds.n_classes
    rows = zip(preds.argmax.tolist(), map(np.ndarray.tolist, preds.probs))
    _write_csv(
        path,
        ["argmax"] + [f"p{j}" for j in range(c)],
        "%d" + ("," + FLOAT_FORMAT) * c,
        ((label, *probs) for label, probs in rows),
    )


def read_predictions_csv(path):
    """Read a predictions CSV back into a ``PredictionBatch``."""
    from .head import PredictionBatch

    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("argmax,"):
        raise ParseError(f"missing predictions header in {path}", "line 1")
    n_cols = len(lines[0].split(","))
    argmax = []
    probs = []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"wrong field count in {path}", f"line {i}")
        try:
            argmax.append(int(parts[0]))
            probs.append([float(v) for v in parts[1:]])
        except ValueError as exc:
            raise ParseError(f"unparseable number in {path}: {exc}", f"line {i}") from exc
    if not probs:
        raise ParseError(f"no prediction rows in {path}", "line 2")
    return PredictionBatch(probs=np.array(probs), argmax=np.array(argmax, dtype=np.int64))


def table_to_csv(path, header: list[str], rows) -> None:
    """Write a table whose rows are an integer index followed by floats."""
    _write_csv(path, header, "%d" + ("," + FLOAT_FORMAT) * (len(header) - 1), rows)


def _json_ready(value):
    if isinstance(value, (np.floating, float)):
        v = float(value)
        return v if np.isfinite(v) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_json_ready(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def write_report_json(path, report_dict: dict) -> None:
    _atomic_write(path, json.dumps(_json_ready(report_dict), indent=2) + "\n")
