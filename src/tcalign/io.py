"""Bit-exact file formats: embeddings (.tcae), labels (.tcal), CSV, report JSON.

Binary files are a 4-byte magic, a little-endian header struct with no padding
(``EMBEDDING_LAYOUT``, ``LABEL_LAYOUT``, version first) and the payload, read by
``_read_binary`` and ``_payload``; text files are read by ``_read_text``. Any
malformed file, non-UTF-8 text included, raises ParseError. Every file the
package writes, head JSON and SVG plots included, goes through the temp-file
rename of ``_atomic_write``, so a crashed process never leaves a half-written
artifact; a CSV streams to it chunk by chunk, never joined in memory. Every
JSON text the package emits, the report file and each line the CLI prints,
comes from one encoder, ``_json_text``: strict JSON, with a non-finite float
written as null.

Every decimal number is printed by one formatter, ``_fill_floats``, as
``FLOAT_FORMAT % x`` byte for byte, but in bulk: ``_csv_chunks`` (both CSV
writers) and ``_float_texts`` (head JSON) format whole arrays in numpy, about
4e4 values per chunk, from exact 17-digit significands and lookup tables. A
value whose rounding the bulk path cannot certify (within 2^-30 of a tie, or of
a decade boundary) and a non-finite one fall back to ``FLOAT_FORMAT % x`` one at
a time; no value of the benchmark workloads' outputs does. A CSV row's integer
index is one more float slot: a double holds every integer within +-2^53
exactly, and ``FLOAT_FORMAT`` prints it as ``%d`` does; an index beyond that
has ``"%d" % i`` spliced over its slot.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from collections.abc import Iterable, Iterator

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


def _atomic_write(path, data: bytes | str | Iterable[bytes]) -> None:
    """Write ``data`` (a str as UTF-8, or an iterable of byte chunks streamed in
    order) to a temp file renamed over ``path``; the temp file is removed if
    the write, a chunk or the rename fails."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in (data,) if isinstance(data, bytes) else data:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# Bulk FLOAT_FORMAT. A finite nonzero |x| = m 2^e (np.frexp) is printed from
# its 17-digit significand D = round(|x| 10^(16-E)), E = floor(log10 |x|), so
# that |x| ~ D 10^(E-16) with 10^16 <= D < 10^17. 10^(16-E) is tabled as a
# double-double (hi + lo) 2^b from exact integers; m hi is an exact Dekker
# two-product (head + its error), so |x| 10^(16-E) = head + tail where head
# holds the leading 53 bits (an integer, as head >= 2^53) and |tail| < 24
# (half an ulp of head < 2^57, plus m lo). The table is good to 2^-104
# relative (2^-47 absolute) and m lo and the tail sum each round once (2^-50,
# 2^-49), so tail is off by less than 2^-45 in absolute terms. Rounding D is
# therefore certain unless tail's fraction lies within _MARGIN = 2^-30 of 1/2
# or head + tail within _MARGIN of 10^16 (whose decade E is in doubt); those
# values, and non-finite ones, are printed by FLOAT_FORMAT one at a time. Where
# lo == 0 (10^(16-E) is a double, E in [-6, 16]) head + tail is exact and an
# exact half rounds to even, as the % operator does.
#
# Text is laid out in fixed slots of 8-byte words that lookup tables fill; a
# keep mask, also looked up, drops the unused bytes. A float's slot is
# ",-0.000" d0 | . d1 . d2 . d3 . d4 | ... | . d13 . d14 . d15 . d16 | e+ddd:
# delimiter, sign, the zeros of 0.000ddd, the digits with a point slot after
# each, and the exponent.
_E_MIN, _E_MAX = -325, 309  # decades of every finite double, +-1 for the log10 fix
_MARGIN = 2.0**-30
_SPLIT = 134217729.0  # 2^27 + 1: Dekker's split of a double into two 26-bit halves
_WORDS = 6  # words per float slot
_CHUNK_VALUES = 40960  # floats per chunk of rows: 4096 rows at c = 10, 2 x 2 MB of slots


def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """Rows hi, its Dekker halves and lo, and b, of 10^(16-E) = (hi + lo) 2^b, by E - _E_MIN."""
    hi, lo, exp = [], [], []
    for k in range(16 - _E_MIN, 15 - _E_MAX, -1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        shift = 120 - num.bit_length() + den.bit_length()  # scaled gets 120 or 121 bits
        scaled = (num << shift) // den if shift >= 0 else (num >> -shift) // den
        top = float(scaled)
        hi.append(math.ldexp(top, -120))
        lo.append(math.ldexp(float(scaled - int(top)), -120))
        exp.append(120 - shift)
    hi = np.array(hi)
    split = hi * _SPLIT
    hi_head = split - (split - hi)
    # b as int32, like frexp's exponents: np.ldexp is 10x slower with int64 ones
    return np.stack([hi, hi_head, hi - hi_head, lo]), np.array(exp, np.int32)


def _word_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables: the 4 digits of g < 10^4 interleaved with point slots
    (u64), the significant digits of g, the lead word by d0, the exponent word
    and the layout class by E, and the keep mask of a float slot by (class,
    significant digits, sign)."""
    g = np.arange(10000)
    quads = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    quads = quads.astype(np.uint8)
    groups = np.full((10000, 8), ord("."), np.uint8)
    groups[:, 1::2] = quads
    significant = np.where(g == 0, 0, 4 - (g % 10 == 0) - (g % 100 == 0) - (g % 1000 == 0))
    leads = np.frombuffer(b",-0.000", np.uint8) + np.zeros((10, 1), np.uint8)
    leads = np.hstack([leads, quads[:10, 3:]])
    exponent = np.arange(_E_MIN, _E_MAX + 1)
    exps = np.zeros((exponent.size, 8), np.uint8)
    exps[:, 0] = ord("e")
    exps[:, 1] = np.where(exponent < 0, ord("-"), ord("+"))
    exps[:, 2:5] = quads[np.abs(exponent), 1:]
    # E's layout class: 0 and 1 scientific with a 2- or 3-digit exponent, E + 6
    # positional (E in [-4, 16]); the keep masks of every (class, significant
    # digits, sign), in index order, from one E of each class
    sci = (exponent < -4) | (exponent > 16)
    classes = np.where(sci, np.abs(exponent) >= 100, exponent + 6)
    exponent, n_sig, neg = (
        a.ravel()
        for a in np.meshgrid([-5, -100, *range(-4, 17)], np.arange(1, 18), [False, True], indexing="ij")
    )
    sci = (exponent < -4) | (exponent > 16)
    n_digits = np.where(sci | (exponent < 0), n_sig, np.maximum(n_sig, exponent + 1))
    point = np.where(sci, 0, np.where(exponent >= 0, exponent, 16))
    point = np.where(n_sig > point + 1, point, 16)  # a point only before a digit
    keep = np.zeros((exponent.size, 8 * _WORDS), bool)
    keep[:, 0] = True
    keep[:, 1] = neg
    keep[:, 2:7] = np.arange(5) < np.where(sci | (exponent >= 0), 0, 1 - exponent)[:, None]
    keep[:, 7:40:2] = np.arange(17) < n_digits[:, None]
    keep[:, 8:39:2] = np.arange(16) == point[:, None]
    keep[:, 40:45] = sci[:, None]
    keep[:, 42] &= np.abs(exponent) >= 100
    return (
        groups.view(np.uint64).ravel(),
        significant,
        leads.view(np.uint64).ravel(),
        exps.view(np.uint64).ravel(),
        classes,
        keep.view(np.uint64),
    )


_POW10, _EXP = _pow10_table()
_GROUPS, _SIGNIFICANT, _LEADS, _EXPS, _CLASSES, _KEEP = _word_tables()


def _scaled(m: np.ndarray, e: np.ndarray, exponent: np.ndarray):
    """``(head, tail, exact)``: m 2^e 10^(16 - exponent) = head + tail (see above)."""
    i = exponent - _E_MIN
    hi, hi_head, hi_tail, lo = np.take(_POW10, i, axis=1)  # one gather; each row contiguous
    head = m * hi
    split = m * _SPLIT
    m_head = split - (split - m)
    m_tail = m - m_head
    err = ((m_head * hi_head - head) + m_head * hi_tail + m_tail * hi_head) + m_tail * hi_tail
    scale = e + np.take(_EXP, i)
    return np.ldexp(head, scale), np.ldexp(err + m * lo, scale), lo == 0


def _significands(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(D, E, certain)`` of positive finite ``a``: the 17-digit integer D and
    decade E with a ~ D 10^(E-16), and whether that rounding is certain."""
    shape, a = a.shape, a.ravel()
    m, e = np.frexp(a)
    exponent = np.floor(np.log10(a)).astype(np.int64)
    head, tail, exact = _scaled(m, e, exponent)
    # head + tail - 10^16 and - 10^17; head - 10^j is exact wherever it is small
    below, above = (head - 1e16) + tail, (head - 1e17) + tail
    redo = np.flatnonzero((below < 0) | (above >= 0))
    if redo.size:  # log10 can land one decade off next to a power of ten
        exponent[redo] += np.where(above[redo] >= 0, 1, -1)
        head[redo], tail[redo], exact[redo] = _scaled(m[redo], e[redo], exponent[redo])
        below, above = (head - 1e16) + tail, (head - 1e17) + tail
    whole = np.floor(tail)
    frac = tail - whole
    digits = head.astype(np.int64) + whole.astype(np.int64)
    digits += (frac > 0.5) | ((frac == 0.5) & (digits % 2 == 1))
    certain = exact | ((np.abs(frac - 0.5) >= _MARGIN) & (np.abs(below) >= _MARGIN))
    certain &= (below >= 0) & (above < 0)
    carry = digits == 10**17
    digits[carry] = 10**16
    exponent += carry
    digits[~certain] = 10**16  # a placeholder the fallback overwrites
    return digits.reshape(shape), exponent.reshape(shape), certain.reshape(shape)


def _fill_floats(x: np.ndarray, words: np.ndarray, keep: np.ndarray) -> None:
    """Write ``"," + FLOAT_FORMAT % v`` for every v of ``x`` (any shape) into the
    ``x.shape + (_WORDS,)`` u64 views ``words`` and ``keep``."""
    a = np.abs(x)
    regular = np.isfinite(a) & (a > 0)
    digits, exponent, certain = _significands(np.where(regular, a, 1.0))
    digits[~regular] = 0  # prints as "0"; non-finite values go to the fallback
    exponent[~regular] = 0
    lead, rest = np.divmod(digits, 10**16)
    groups = [rest // 10**12, rest // 10**8 % 10**4, rest // 10**4 % 10**4, rest % 10**4]
    n_sig = np.ones_like(digits)
    for j, group in enumerate(groups):
        n_sig = np.where(group != 0, 1 + 4 * j + _SIGNIFICANT[group], n_sig)
    e = exponent - _E_MIN
    words[..., 0] = _LEADS[lead]
    for j, group in enumerate(groups):
        words[..., 1 + j] = _GROUPS[group]
    words[..., 5] = _EXPS[e]
    np.take(_KEEP, (_CLASSES[e] * 17 + n_sig - 1) * 2 + np.signbit(x), axis=0, out=keep)
    for at in zip(*np.nonzero(~(certain & np.isfinite(a)))):
        _splice(words[at], keep[at], FLOAT_FORMAT % x[at])


def _splice(words: np.ndarray, keep: np.ndarray, text: str) -> None:
    """Write ``"," + text`` over one slot's u64 views ``words`` and ``keep``."""
    text = np.frombuffer(text.encode(), np.uint8)
    slot, mask = words.view(np.uint8), keep.view(np.uint8)
    slot[1 : 1 + text.size] = text
    mask[1:] = 0
    mask[1 : 1 + text.size] = 1


def _csv_chunks(header: list[str], index, values) -> Iterator[bytes | np.ndarray]:
    """The CSV text of ``header`` and rows ``"%d" % index[i]`` then ``FLOAT_FORMAT``
    of each of ``values[i]`` (comma-separated, LF endings), in chunks of rows."""
    index = np.asarray(index, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64).reshape(index.size, len(header) - 1)
    n, c = values.shape
    yield (",".join(header) + "\n").encode("utf-8")
    rows = max(1, _CHUNK_VALUES // max(c, 1))
    words = np.empty((min(rows, n), (c + 1) * _WORDS + 1), np.uint64)  # index, floats, newline
    keep = np.empty_like(words)
    words[:, -1] = np.frombuffer(b"\n".ljust(8, b"\0"), np.uint64)
    keep[:, -1] = np.frombuffer(b"\1".ljust(8, b"\0"), np.uint64)
    for start in range(0, n, rows):
        w, k = words[: min(rows, n - start)], keep[: min(rows, n - start)]
        idx = index[start : start + len(w)]
        slots = (len(w), c + 1, _WORDS)  # views: each row's slots are contiguous
        w_slots, k_slots = w[:, :-1].reshape(slots), k[:, :-1].reshape(slots)
        _fill_floats(np.column_stack([idx, values[start : start + len(w)]]), w_slots, k_slots)
        k.view(np.uint8)[:, 0] = 0  # the index slot's comma
        for r in np.flatnonzero((idx > 2**53) | (idx < -(2**53))):  # beyond a double's integers
            _splice(w_slots[r, 0], k_slots[r, 0], "%d" % idx[r])
        yield np.compress(k.view(bool).ravel(), w.view(np.uint8).ravel())


def _float_texts(values) -> list[str]:
    """``FLOAT_FORMAT % v`` for each v of ``values``, flattened in C order."""
    x = np.asarray(values, dtype=np.float64).ravel()
    words = np.empty((x.size, _WORDS), np.uint64)
    keep = np.empty_like(words)
    _fill_floats(x, words, keep)
    text = np.compress(keep.view(bool).ravel(), words.view(np.uint8).ravel()).tobytes()
    return text.decode("ascii").split(",")[1:]


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
    """Write an n x d matrix as a .tcae file (row-major, little-endian).

    An f32 file is refused, before anything is written, for a value that the
    cast would turn into an infinity."""
    z = validate_embeddings(z)
    if dtype not in ("f32", "f64"):
        raise InvalidInput(f"dtype must be 'f32' or 'f64', got {dtype!r}")
    code = DTYPE_F64 if dtype == "f64" else DTYPE_F32
    with np.errstate(over="ignore"):
        payload = z.astype(PAYLOAD_DTYPES[code])
    if code == DTYPE_F32 and not np.all(np.isfinite(payload)):
        raise InvalidInput(
            f"values beyond float32 range (largest |entry| {np.abs(z).max():.3g}); "
            "write with dtype='f64'"
        )
    header = EMBEDDING_MAGIC + struct.pack(EMBEDDING_LAYOUT, FORMAT_VERSION, code, *z.shape)
    _atomic_write(path, header + payload.tobytes(order="C"))


def read_embeddings(path) -> np.ndarray:
    """Read a .tcae file; 32-bit payloads are upcast to float64."""
    blob, (code, n, d), offset = _read_binary(path, EMBEDDING_MAGIC, EMBEDDING_LAYOUT, "embedding")
    if code not in PAYLOAD_DTYPES:
        raise ParseError(f"unknown dtype code {code}", "byte offset 8")
    if n < 1 or d < 1:
        raise ParseError(f"invalid shape {n} x {d}", "byte offset 9")
    payload = _payload(path, blob, offset, PAYLOAD_DTYPES[code], n * d)
    if not np.all(np.isfinite(payload)):  # before the upcast, which keeps finiteness
        raise ParseError(f"non-finite values in {path}", "payload")
    return payload.reshape(n, d).astype(np.float64)


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
    rows = list(rows)
    _atomic_write(path, _csv_chunks(header, [row[0] for row in rows], [row[1:] for row in rows]))


def write_predictions_csv(path, preds) -> None:
    """Persist a PredictionBatch as CSV: argmax column then one column per class."""
    header = ["argmax"] + [f"p{j}" for j in range(preds.n_classes)]
    _atomic_write(path, _csv_chunks(header, preds.argmax, preds.probs))


def read_predictions_csv(path):
    """Read a predictions CSV back into a ``PredictionBatch``.

    Each row must be what ``write_predictions_csv`` writes: an argmax of ASCII
    decimal digits below the number of probability columns, then finite
    probabilities."""
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
            if not (parts[0].isascii() and parts[0].isdigit()):
                raise ValueError(f"argmax {parts[0]!r} is not a decimal class index")
            label = int(parts[0])
            if label >= n_cols - 1:
                raise ValueError(f"argmax {label} is not below the class count {n_cols - 1}")
            row = [float(v) for v in parts[1:]]
            if not all(map(math.isfinite, row)):
                raise ValueError("a probability is not finite")
        except ValueError as exc:  # int() also refuses more than 4300 digits
            raise ParseError(f"unparseable number in {path}: {exc}", f"line {i}") from exc
        argmax.append(label)
        probs.append(row)
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


def _json_text(value, indent: int | None = None) -> str:
    """Strict JSON text of ``value``: non-finite floats become null, never
    ``NaN`` or ``Infinity``. The one JSON encoder of the report file and of
    every line the CLI prints."""
    return json.dumps(_json_ready(value), indent=indent, allow_nan=False)


def write_report_json(path, report_dict: dict) -> None:
    _atomic_write(path, _json_text(report_dict, indent=2) + "\n")
