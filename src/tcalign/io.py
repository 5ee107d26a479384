"""Bit-exact file formats: embeddings (.tcae), labels (.tcal), CSV, report JSON.

Binary files are a 4-byte magic, a little-endian header struct with no padding
(``EMBEDDING_LAYOUT``, ``LABEL_LAYOUT``, version first) and the payload, read by
``_read_binary`` and ``_payload``; text files are read by ``_read_text``. Any
malformed file, non-UTF-8 text included, raises ParseError. Every file the
package writes, head JSON and SVG plots included, goes through the temp-file
rename of ``_atomic_write``, so a crashed process never leaves a half-written
artifact; every decimal float is printed with ``FLOAT_FORMAT``.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct

import numpy as np

from .errors import InvalidInput, ParseError
from .linalg import validate_embeddings

EMBEDDING_MAGIC = b"TCAE"
LABEL_MAGIC = b"TCAL"
EMBEDDING_LAYOUT = "<IBQQ"  # version, dtype code, rows, cols
LABEL_LAYOUT = "<IQ"  # version, count
FORMAT_VERSION = 1
DTYPE_F32 = 0
DTYPE_F64 = 1
PAYLOAD_DTYPES = {DTYPE_F32: "<f4", DTYPE_F64: "<f8"}
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


def _read_binary(path, magic: bytes, layout: str, kind: str) -> tuple[bytes, list, int]:
    """Read a binary file and check its magic, header length and version; return
    its bytes, the header fields after the version and the payload offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(magic)] != magic:
        raise ParseError(f"bad magic in {path}", "byte offset 0")
    offset = len(magic) + struct.calcsize(layout)
    if len(blob) < offset:
        raise ParseError(f"truncated header in {path}", f"byte offset {len(blob)}")
    version, *fields = struct.unpack_from(layout, blob, len(magic))
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported {kind} format version {version}", "byte offset 4")
    return blob, fields, offset


def _payload(path, blob: bytes, offset: int, dtype: str, count: int) -> np.ndarray:
    """The ``count`` values of ``dtype`` that must fill ``blob`` from ``offset`` to its end."""
    expected = offset + count * np.dtype(dtype).itemsize
    if count < 1 or len(blob) != expected:
        raise ParseError(
            f"payload size mismatch in {path}: expected {expected} bytes, got {len(blob)}",
            f"byte offset {min(len(blob), expected)}",
        )
    return np.frombuffer(blob, dtype=dtype, count=count, offset=offset)


def _read_text(path) -> str:
    """The UTF-8 text of ``path`` with universal newlines, as text-mode ``open`` reads it."""
    with open(path, "rb") as fh:
        try:
            return fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path} is not UTF-8 text", f"byte offset {exc.start}") from exc


def write_embeddings(path, z, dtype: str = "f64") -> None:
    """Write an n x d matrix as a .tcae file (row-major, little-endian)."""
    z = validate_embeddings(z)
    if dtype not in ("f32", "f64"):
        raise InvalidInput(f"dtype must be 'f32' or 'f64', got {dtype!r}")
    code = DTYPE_F64 if dtype == "f64" else DTYPE_F32
    header = EMBEDDING_MAGIC + struct.pack(EMBEDDING_LAYOUT, FORMAT_VERSION, code, *z.shape)
    _atomic_write(path, header + z.astype(PAYLOAD_DTYPES[code]).tobytes(order="C"))


def read_embeddings(path) -> np.ndarray:
    """Read a .tcae file; 32-bit payloads are upcast to float64."""
    blob, (code, n, d), offset = _read_binary(path, EMBEDDING_MAGIC, EMBEDDING_LAYOUT, "embedding")
    if code not in PAYLOAD_DTYPES:
        raise ParseError(f"unknown dtype code {code}", "byte offset 8")
    if n < 1 or d < 1:
        raise ParseError(f"invalid shape {n} x {d}", "byte offset 9")
    z = _payload(path, blob, offset, PAYLOAD_DTYPES[code], n * d).reshape(n, d).astype(np.float64)
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
    header = LABEL_MAGIC + struct.pack(LABEL_LAYOUT, FORMAT_VERSION, labels.size)
    _atomic_write(path, header + labels.astype("<u4").tobytes())


def read_labels(path) -> np.ndarray:
    blob, (n,), offset = _read_binary(path, LABEL_MAGIC, LABEL_LAYOUT, "label")
    return _payload(path, blob, offset, "<u4", n).astype(np.int64)


def table_to_csv(path, header: list[str], rows) -> None:
    """Write CSV: ``header``, then per row an integer index followed by floats, LF endings."""
    row_template = "%d" + ("," + FLOAT_FORMAT) * (len(header) - 1)
    lines = [",".join(header)]
    lines.extend(row_template % tuple(row) for row in rows)
    _atomic_write(path, "\n".join(lines) + "\n")


def write_predictions_csv(path, preds) -> None:
    """Persist a PredictionBatch as CSV: argmax column then one column per class."""
    header = ["argmax"] + [f"p{j}" for j in range(preds.n_classes)]
    rows = zip(preds.argmax.tolist(), map(np.ndarray.tolist, preds.probs))
    table_to_csv(path, header, ((label, *probs) for label, probs in rows))


def read_predictions_csv(path):
    """Read a predictions CSV back into a ``PredictionBatch``."""
    from .head import PredictionBatch

    lines = _read_text(path).splitlines()
    if not lines or not lines[0].startswith("argmax,"):
        raise ParseError(f"missing predictions header in {path}", "line 1")
    n_cols = len(lines[0].split(","))
    argmax, probs = [], []
    for i, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != n_cols:
            raise ParseError(f"wrong field count in {path}", f"line {i}")
        try:
            argmax.append(np.int64(int(parts[0])))
            probs.append([float(v) for v in parts[1:]])
        except (ValueError, OverflowError) as exc:
            raise ParseError(f"unparseable number in {path}: {exc}", f"line {i}") from exc
    if not probs:
        raise ParseError(f"no prediction rows in {path}", "line 2")
    return PredictionBatch(probs=np.array(probs), argmax=np.array(argmax, dtype=np.int64))


def _json_ready(value):
    """``value`` with every non-finite float replaced by None (JSON has no NaN)."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, list):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    return value


def write_report_json(path, report_dict: dict) -> None:
    _atomic_write(path, json.dumps(_json_ready(report_dict), indent=2) + "\n")
