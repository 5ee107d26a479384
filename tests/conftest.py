import dataclasses
import struct

import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_orthogonal(rng, d):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def make_spd(rng, d, cond=100.0, scale=1.0):
    """Random SPD matrix with eigenvalues log-spaced within the given condition number."""
    q = random_orthogonal(rng, d)
    vals = np.exp(np.linspace(0.0, np.log(cond), d)) / cond * scale
    return (q * vals) @ q.T


def make_symmetric(rng, d, scale=1.0):
    a = rng.standard_normal((d, d)) * scale
    return (a + a.T) / 2.0


def normal_equation_r2(x, y):
    """Brute-force oracle: 1 - SS_res / SS_tot of the line of y on x solved from the normal equations."""
    x, y = np.asarray(x), np.asarray(y)
    a = np.vstack([x, np.ones_like(x)]).T
    residual = y - a @ np.linalg.solve(a.T @ a, a.T @ y)
    return 1.0 - residual @ residual / ((y - y.mean()) @ (y - y.mean()))


def write_f32_tcae(path, z):
    """Write ``z`` as a float32 .tcae file, laid out byte by byte here, as the
    benchmark writes its inputs, so the reader is checked on bytes the package
    did not write (``io.write_embeddings`` writes float64 only)."""
    z = np.asarray(z, dtype=np.float64)
    with open(path, "wb") as fh:
        fh.write(b"TCAE" + struct.pack("<IBQQ", 1, 0, *z.shape))
        fh.write(np.ascontiguousarray(z, dtype="<f4").tobytes())


def table_csv_reference(rows) -> bytes:
    """The CSV that ``io.table_to_csv`` must write for dataclass ``rows``, row
    by row: the type's field names, then ``%d`` of each row's first field and
    ``%.17g`` of each other one."""
    names = [f.name for f in dataclasses.fields(rows[0])]
    template = "%d" + ",%.17g" * (len(names) - 1)
    lines = [",".join(names)] + [template % dataclasses.astuple(row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


LAYOUTS = ("C", "F", "row-strided", "column-strided")


def laid_out(rng, n, d, layout, scale=1.0):
    """An n x d matrix of normal draws with the memory layout ``layout``."""
    base = rng.standard_normal((2 * n, 2 * d)) * scale
    if layout == "C":
        return np.ascontiguousarray(base[:n, :d])
    if layout == "F":
        return np.asfortranarray(base[:n, :d])
    return base[::2, :d] if layout == "row-strided" else base[:n, ::2]


def streamed_selections(test, head, cfg):
    """Score every row once, over the whole matrix, then fold ``test`` batch
    by batch into a bounded index bank, as online mode does, and yield
    ``(lo, hi, pseudo-source rows)`` after each batch."""
    from tcalign import batch_uncertainties, predict
    from tcalign.pseudo_source import _fold

    n = len(test)
    preds = predict(head, test)
    omegas, classes = batch_uncertainties(preds.probs), preds.argmax
    counts = np.zeros(head.n_classes, dtype=np.int64)
    bank = np.empty(0, dtype=np.int64)
    for lo in range(0, n, cfg.batch_size):
        hi = min(lo + cfg.batch_size, n)
        counts += np.bincount(classes[lo:hi], minlength=head.n_classes)
        bank, selected = _fold(cfg, bank, np.arange(lo, hi), omegas, classes, counts)
        yield lo, hi, selected


def streamed_pseudo_source(test, head, cfg):
    """The pseudo-source rows ``streamed_selections`` selects after the last batch."""
    *_, (_, _, selected) = streamed_selections(test, head, cfg)
    return selected.tolist()
