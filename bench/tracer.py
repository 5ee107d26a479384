"""Span tracer that wraps tcalign's public API from outside the package.

``install`` replaces every public function and every public method (plus the
constructor) of the traced modules with a wrapper that records one span:
name, start, end, parent span and a work count. Each module namespace that
imported a wrapped function by name gets the wrapper too, so calls made
through ``from .linalg import covariance`` are traced like direct ones.
Spans live in growable ``array`` buffers and are written once, at
exit, by ``dump``. ``summarize`` turns a dump into per-layer metrics; a
span's self time is its duration minus the durations of its child spans.

Imported by the benchmark's child processes before the program runs; it
pulls in no numpy until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array

LAYERS = ("io", "head", "pseudo_source", "linalg", "transform", "pipeline", "cli")

# Per-element helpers: ``sort_key`` is the key of the bank's eviction ``max``
# (O(n*k) calls) and ``fmt17`` formats each CSV number (O(n*c) calls). A span
# per call would cost more than the run it measures; their time stays in the
# self time of ``PseudoSourceBank.add`` and of the CSV writers.
EXCLUDED = {"pseudo_source.BankEntry.sort_key", "io.fmt17"}

# Calls that return the pseudo-source, with its row count recorded as work.
SELECTIONS = ("pseudo_source.PseudoSourceBank.snapshot", "pseudo_source.class_balanced_select")


def _rows(x) -> int:
    shape = getattr(x, "shape", None)
    return int(shape[0]) if shape else len(x)


# Work recorded per span: (units, computed operation count). Units are rows,
# bytes or dimensions as the metric names say; operation counts are computed
# from shapes, not measured.
def _covariance_work(args, kwargs, result):
    z = args[0]
    n = _rows(z)
    d = result[1].shape[0]
    return n, n * d * d


def _predict_work(args, kwargs, result):
    head, z = args[0], args[1]
    n = _rows(z)
    return n, n * head.dim * head.n_classes


WORK = {
    "linalg.covariance": _covariance_work,
    "head.predict": _predict_work,
    "transform.apply_transform": lambda a, k, r: (_rows(a[0]), 0),
    "linalg.validate_embeddings": lambda a, k, r: (r.nbytes, 0),
    "linalg.sym_eig": lambda a, k, r: (r.values.shape[0], 0),
    "pseudo_source.batch_uncertainties": lambda a, k, r: (_rows(r), 0),
    "pseudo_source.PseudoSourceBank.snapshot": lambda a, k, r: (len(r), 0),
    "pseudo_source.class_balanced_select": lambda a, k, r: (len(r.entries), 0),
    "io.read_embeddings": lambda a, k, r: (os.path.getsize(a[0]), 0),
    "io.read_labels": lambda a, k, r: (os.path.getsize(a[0]), 0),
    "head.load_head": lambda a, k, r: (os.path.getsize(a[0]), 0),
    "io.write_predictions_csv": lambda a, k, r: (os.path.getsize(a[0]), 0),
    "io.write_report_json": lambda a, k, r: (os.path.getsize(a[0]), 0),
}


class Tracer:
    """In-memory span store; one instance per traced process."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.units = array("q")
        self.ops = array("q")
        self._stack: list[int] = []

    def wrap(self, qualname: str, fn):
        """Return ``fn`` recording a span named ``qualname``; wrap each name once."""
        nid = len(self.names)
        self.names.append(qualname)
        work = WORK.get(qualname)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.units.append(0)
            self.ops.append(0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if work is not None:
                self.units[idx], self.ops[idx] = work(args, kwargs, result)
            return result

        return traced

    def dump(self, path: str, meta: dict) -> None:
        """Write all spans to ``path``.npz (uncompressed) and ``path``.json."""
        import numpy as np

        np.savez(
            path + ".npz",
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            units=np.frombuffer(self.units, dtype=np.int64),
            ops=np.frombuffer(self.ops, dtype=np.int64),
        )
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, **meta}, fh)


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every module in LAYERS (already importable)."""
    modules = {layer: importlib.import_module(f"tcalign.{layer}") for layer in LAYERS}
    package = [m for key, m in sys.modules.items() if key == "tcalign" or key.startswith("tcalign.")]
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and f"{layer}.{name}" not in EXCLUDED:
                wrapped = tracer.wrap(f"{layer}.{name}", obj)
                for m in package:
                    if m.__dict__.get(name) is obj:
                        setattr(m, name, wrapped)
            elif inspect.isclass(obj):
                _wrap_class(tracer, f"{layer}.{name}", obj)


def _wrap_class(tracer: Tracer, prefix: str, cls) -> None:
    for attr, val in list(vars(cls).items()):
        if attr.startswith("_") and attr != "__init__":
            continue
        qual = prefix if attr == "__init__" else f"{prefix}.{attr}"
        if qual in EXCLUDED:
            continue
        if isinstance(val, (staticmethod, classmethod)):
            setattr(cls, attr, type(val)(tracer.wrap(qual, val.__func__)))
        elif inspect.isfunction(val):
            setattr(cls, attr, tracer.wrap(qual, val))


def load(path: str):
    """Read a dump back as (meta, dict of numpy arrays)."""
    import numpy as np

    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    with np.load(path + ".npz") as data:
        spans = {key: data[key] for key in data.files}
    return meta, spans


def summarize(meta: dict, spans: dict, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced process whose wall time was ``wall_s``."""
    import numpy as np

    names = meta["names"]
    name, parent, units = spans["name"], spans["parent"], spans["units"]
    dur = spans["end"] - spans["start"]
    nested = parent >= 0
    self_time = dur - np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)

    def per_name(weights=None) -> dict[str, float]:
        totals = np.bincount(name, weights=weights, minlength=len(names))
        return dict(zip(names, totals.tolist()))

    calls, secs, selfs = per_name(), per_name(dur), per_name(self_time)
    work, ops = per_name(units), per_name(spans["ops"])

    def count(table, qual) -> int:
        return int(table.get(qual, 0))

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(t for q, t in selfs.items() if q.split(".", 1)[0] == layer)
    attributed = sum(out.values())

    # spans are stored in call order, so the last selection span holds the final pseudo-source
    ids = {q: i for i, q in enumerate(names)}
    selections = np.flatnonzero(np.isin(name, [ids[q] for q in SELECTIONS if q in ids]))
    kept = int(units[selections[-1]]) if selections.size else 0
    scored = count(work, "pseudo_source.batch_uncertainties")
    eig_dims = units[name == ids.get("linalg.sym_eig", -1)]

    out.update(
        {
            "cli.import_s": float(meta.get("import_s", 0.0)),
            "pseudo_source.entries_built": count(calls, "pseudo_source.BankEntry"),
            "pseudo_source.bank_add.calls": count(calls, "pseudo_source.PseudoSourceBank.add"),
            "pseudo_source.bank_add.s": secs.get("pseudo_source.PseudoSourceBank.add", 0.0),
            "pseudo_source.batch_uncertainties.s": secs.get("pseudo_source.batch_uncertainties", 0.0),
            "pseudo_source.kept_per_scored": kept / scored if scored else 0.0,
            "pseudo_source.class_balanced_select.calls": count(calls, "pseudo_source.class_balanced_select"),
            "pseudo_source.class_balanced_select.s": secs.get("pseudo_source.class_balanced_select", 0.0),
            "io.read_embeddings.s": secs.get("io.read_embeddings", 0.0),
            "io.read_embeddings.bytes": count(work, "io.read_embeddings"),
            "io.read_labels.s": secs.get("io.read_labels", 0.0),
            "io.write_predictions_csv.s": secs.get("io.write_predictions_csv", 0.0),
            "io.write_predictions_csv.bytes": count(work, "io.write_predictions_csv"),
            "io.write_report_json.s": secs.get("io.write_report_json", 0.0),
            "io.disk_read_bytes": sum(count(work, q) for q in ("io.read_embeddings", "io.read_labels", "head.load_head")),
            "io.disk_written_bytes": count(work, "io.write_predictions_csv") + count(work, "io.write_report_json"),
            "head.load_head.s": secs.get("head.load_head", 0.0),
            "linalg.sym_eig.calls": count(calls, "linalg.sym_eig"),
            "linalg.sym_eig.s": secs.get("linalg.sym_eig", 0.0),
            "linalg.sym_eig.d": int(eig_dims.max(initial=0)),
            "transform.solve_closed_form.calls": count(calls, "transform.solve_closed_form"),
            "transform.solve_closed_form.s": secs.get("transform.solve_closed_form", 0.0),
            "linalg.correlation_distance.s": secs.get("linalg.correlation_distance", 0.0),
            "linalg.accumulator_update.calls": count(calls, "linalg.CovarianceAccumulator.update"),
            "linalg.accumulator_update.s": secs.get("linalg.CovarianceAccumulator.update", 0.0),
            "linalg.covariance.calls": count(calls, "linalg.covariance"),
            "linalg.covariance.rows": count(work, "linalg.covariance"),
            "linalg.covariance.s": secs.get("linalg.covariance", 0.0),
            "linalg.covariance.nd2_computed": count(ops, "linalg.covariance"),
            "head.predict.calls": count(calls, "head.predict"),
            "head.predict.rows": count(work, "head.predict"),
            "head.predict.s": secs.get("head.predict", 0.0),
            "head.predict.ndc_computed": count(ops, "head.predict"),
            "transform.apply_transform.rows": count(work, "transform.apply_transform"),
            "transform.apply_transform.s": secs.get("transform.apply_transform", 0.0),
            "linalg.validate_embeddings.calls": count(calls, "linalg.validate_embeddings"),
            "linalg.validate_embeddings.bytes": count(work, "linalg.validate_embeddings"),
            "linalg.validate_embeddings.s": secs.get("linalg.validate_embeddings", 0.0),
            "pipeline.adapt.s": secs.get("pipeline.adapt_transductive", 0.0) + secs.get("pipeline.adapt_online", 0.0),
            "trace.wall_s": wall_s,
            "trace.unattributed_s": wall_s - attributed,
            "trace.spans": int(dur.size),
        }
    )
    return out
