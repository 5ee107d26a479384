"""Dense linear algebra for small symmetric matrices, in float64 (eigensolves
on near-singular covariances are the accuracy bottleneck), and the owner of
both input rules. ``_numeric`` is the one conversion of an array argument: it
accepts only float and integer dtypes and refuses a ragged nest, complex
values, strings and every other dtype (object, bool, datetime) with
InvalidInput. It has two doors, its only callers: ``_real`` takes its result
to float64, and ``_indices`` to int64, refusing a value the cast would change.
``_symmetric`` accepts a matrix within SYMMETRY_ATOL x max|entry| of its
transpose and returns it symmetrized.
Moments are (count, mean, scatter) values, exactly symmetric as built:
``_moments`` makes one, ``_pooled`` merges two (as ``CovarianceAccumulator``
does) and ``_covariance`` divides. ``_eigh`` is the
one eigendecomposition, under ``_power`` and ``_spectral_radius``, and
``_distance`` the one covariance discrepancy. Values inside, checks at the
edge: a public entry checks a matrix once and passes it to its kernel, and the
adapt path and the experiments call the kernels on the matrices they built, so
``_symmetrized`` runs only on a matrix product or in ``_symmetric``, and no
built covariance is scanned again.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientSamples, InvalidInput, NumericalFailure, SingularMatrix, TcaError
from .errors import _check_count, _finite_real

SHRINK_FLOOR = 1e-12
SYMMETRY_ATOL = 1e-9


def _numeric(a, name: str) -> np.ndarray:
    """``np.asarray(a)`` when its dtype is a float or an integer one (kind f, i or u),
    or InvalidInput naming ``name``: for a ragged nest, complex values (even with
    every imaginary part 0), strings or bytes, and any other dtype (object, bool,
    datetime, timedelta, void), each with its own message."""
    try:
        a = np.asarray(a)
    except ValueError:  # numpy's verdict on a nest of uneven or nested sequences
        raise InvalidInput(f"{name} must be a regular array, got a ragged nest") from None
    kind = a.dtype.kind
    if kind in "fiu":
        return a
    if kind == "c":
        raise InvalidInput(f"{name} must be real, got complex values")
    if kind in "US":
        raise InvalidInput(f"{name} must be numeric, got strings")
    raise InvalidInput(f"{name} must hold integers or floats, got dtype {a.dtype}")


def _real(a, name: str) -> np.ndarray:
    """``a`` through ``_numeric``, as float64."""
    return np.asarray(_numeric(a, name), dtype=np.float64)


def _read_only(a: np.ndarray) -> np.ndarray:
    """A copy of ``a``, in its memory order, that cannot be written in place."""
    a = a.copy(order="K")
    a.setflags(write=False)
    return a


def _indices(values, name: str, signed: bool = False) -> np.ndarray:
    """``values`` through ``_numeric``, as int64, or InvalidInput for a value the
    cast would change (a fraction, NaN, an infinity) or, unless ``signed``, a negative one."""
    values = _numeric(values, name)
    with np.errstate(invalid="ignore"):  # NaN/inf casts are caught by the comparison
        as_int = values.astype(np.int64)
    if np.any(values != as_int) or (not signed and np.any(as_int < 0)):
        raise InvalidInput(f"{name} must be {'integers' if signed else 'nonnegative integers'}")
    return as_int


def validate_embeddings(z, name: str = "embeddings") -> np.ndarray:
    """Check an n x d embedding matrix and return it as a float64 array."""
    z = _real(z, name)
    if z.ndim != 2:
        raise InvalidInput(f"{name} must be a 2-D matrix, got ndim={z.ndim}")
    if z.shape[0] < 1 or z.shape[1] < 1:
        raise InvalidInput(f"{name} must have at least one row and one column, got {z.shape}")
    if not np.all(np.isfinite(z)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return z


def _check_width(z: np.ndarray, dim: int, owner: str, name: str = "embedding") -> np.ndarray:
    """``z`` itself, once its row width is the ``owner``'s dimension ``dim``."""
    if z.shape[1] != dim:
        raise InvalidInput(f"{name} dimension {z.shape[1]} does not match {owner} dimension {dim}")
    return z


def _square(a, name: str) -> np.ndarray:
    """A non-empty square matrix of finite entries, as float64."""
    a = _real(a, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InvalidInput(f"{name} must be a non-empty square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return a


def _square_pair(a, b, name_a: str, name_b: str) -> tuple[np.ndarray, np.ndarray]:
    """Two square matrices of one shape, as float64; errors name both arguments."""
    a, b = _square(a, name_a), _square(b, name_b)
    if a.shape != b.shape:
        raise InvalidInput(f"shape mismatch: {name_a} {a.shape} vs {name_b} {b.shape}")
    return a, b


def _symmetric(a, name: str) -> np.ndarray:
    """A square matrix (see ``_square``) equal to its transpose within
    SYMMETRY_ATOL * max|entry|, returned symmetrized: the tolerance follows the
    matrix's scale, and a zero matrix passes. The difference is taken of halves,
    which cannot overflow and are exact for normal-range values."""
    a = _square(a, name)
    half = a / 2.0
    if np.max(np.abs(half - half.T)) > SYMMETRY_ATOL / 2.0 * float(np.abs(a).max()):
        raise InvalidInput(f"{name} is not symmetric within {SYMMETRY_ATOL} x max|entry|")
    return _symmetrized(a)


def covariance(z) -> tuple[np.ndarray, np.ndarray]:
    """Column mean and unbiased sample covariance of an n x d batch.

    Uses the centered-scatter form (Z - mean)^T (Z - mean) / (n - 1), exactly symmetric.
    """
    z = validate_embeddings(z)
    if z.shape[0] < 2:
        raise InsufficientSamples(f"covariance needs at least 2 rows, got {z.shape[0]}")
    return _covariance(_moments(z))


def _covariance(moments: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(mean, scatter / (n - 1)) of a (count, mean, scatter) triple of n >= 2 rows."""
    n, mean, scatter = moments
    return mean, scatter / (n - 1)


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """(a + a^T) / 2 of a matrix product or, in ``_symmetric``, of an input, halved before the
    add so that no finite entry overflows; exact for normal-range values."""
    half = a / 2.0
    return half + half.T


def _moments(z: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """Row count, column mean and centered scatter (Z - mean)^T (Z - mean) of a checked batch.

    Raises InvalidInput, naming the largest magnitude, when the scatter
    overflows float64; a large mean with a small spread passes.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = z.mean(axis=0)
        centered = z - mean
        scatter = centered.T @ centered  # one symmetric rank-k update: exactly symmetric
    if not np.all(np.isfinite(scatter)):
        raise _overflow("|entry|", np.abs(z).max())
    return z.shape[0], mean, scatter


def _overflow(what: str, magnitude) -> InvalidInput:
    return InvalidInput(
        f"the embeddings' scatter overflows float64 (largest {what} {magnitude:.3g}); "
        "rescale the embeddings"
    )


def correlation_distance(a, b) -> float:
    """Covariance discrepancy ||a - b||_F^2 / (4 d^2) of two d x d matrices, inf on overflow."""
    return _distance(*_square_pair(a, b, "a", "b"))


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """``correlation_distance`` of two float64 matrices of one square shape."""
    d = a.shape[0]
    with np.errstate(over="ignore"):
        diff = a - b
        return float(np.sum(diff * diff) / (4.0 * d * d))


def shrink(sigma, eps: float) -> np.ndarray:
    """Trace-scaled ridge: sigma + (eps + floor) * trace/d * I, or floor * I when
    the trace is not positive. The ridge follows sigma's scale: scaling sigma
    by a power of two scales the output by it exactly, barring underflow.

    Keeps inverse square roots finite when sigma is rank-deficient, e.g. a
    pseudo-source covariance built from fewer samples than dimensions.
    """
    sigma = _symmetric(sigma, "sigma")
    _check_eps(eps)
    return _shrink(sigma, eps)


def _check_eps(eps, error: type[TcaError] = InvalidInput) -> None:
    """Raise ``error`` for a ridge ``eps`` that is not a finite real >= 0."""
    if not (_finite_real(eps) and eps >= 0):
        raise error(f"eps must be finite and >= 0, got {eps}")


def _shrink(sigma: np.ndarray, eps: float) -> np.ndarray:
    """``shrink`` of a symmetric matrix, rejecting a non-finite diagonal or ridge."""
    d = sigma.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        trace = float(np.trace(sigma))
        lam = (eps + SHRINK_FLOOR) * trace / d if trace > 0 else SHRINK_FLOOR
        shrunk = sigma + lam * np.eye(d)
    # an overflowing ridge always shows on the diagonal
    if not np.all(np.isfinite(shrunk.diagonal())):
        raise InvalidInput(
            f"sigma's diagonal plus the ridge eps * trace / d = {lam:.3g} (eps {eps:.3g}, "
            f"trace {trace:.3g}, d {d}) overflows float64; lower eps or rescale the embeddings"
        )
    return shrunk


def spd_power(sigma, p: float) -> np.ndarray:
    """Matrix power U diag(lambda^p) U^T of a symmetric positive definite matrix."""
    if not _finite_real(p):
        raise InvalidInput(f"power must be finite, got {p}")
    return _power(_symmetric(sigma, "sigma"), p)


def _eigh(sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors of a finite, exactly symmetric matrix."""
    try:
        return np.linalg.eigh(sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition did not converge: {exc}") from exc


def _spectral_radius(sigma: np.ndarray) -> float:
    """max |eigenvalue| of a finite, exactly symmetric matrix, such as ``shrink``'s output."""
    values, _ = _eigh(sigma)
    return float(max(-values[0], values[-1]))


def _power(sigma: np.ndarray, p: float) -> np.ndarray:
    """``spd_power`` of a finite, exactly symmetric matrix, such as ``shrink``'s output."""
    values, vectors = _eigh(sigma)
    min_val = float(values.min())
    if p < 0 and min_val <= 0:
        raise SingularMatrix(
            f"power {p} undefined: smallest eigenvalue {min_val:.3e} is not positive"
        )
    if p != int(p) and min_val < 0:
        # the zero eigenvalue of a semidefinite matrix rounds to as low as
        # -4 eps max|lambda| (measured at d = 2-64); below d times that it is negative
        if min_val < -4 * values.size * np.finfo(float).eps * float(np.abs(values).max()):
            raise SingularMatrix(
                f"fractional power {p} undefined for negative eigenvalue {min_val:.3e}"
            )
        values = np.maximum(values, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        powered = _symmetrized((vectors * values**p) @ vectors.T)
    if not np.all(np.isfinite(powered)):
        raise NumericalFailure(f"power {p} of sigma is not finite")
    return powered


def _pooled(a: tuple, b: tuple) -> tuple[int, np.ndarray, np.ndarray]:
    """(count, mean, scatter) of two such triples' rows; ``a`` itself only when ``b`` has none."""
    (n_a, mean_a, scatter_a), (n_b, mean_b, scatter_b) = a, b
    if n_b == 0:
        return a
    if n_a == 0:
        return n_b, mean_b.copy(), scatter_b.copy()
    total = n_a + n_b
    with np.errstate(over="ignore", invalid="ignore"):
        delta = mean_b - mean_a
        scatter = scatter_a + scatter_b + np.outer(delta, delta) * (n_a * n_b / total)
    if not np.all(np.isfinite(scatter)):
        scale = max(np.max(np.abs(m) + np.sqrt(np.diag(s) / c)) for c, m, s in (b, a))
        raise _overflow("column |mean| + rms deviation", scale)
    return total, mean_a + delta * (n_b / total), scatter


class CovarianceAccumulator:
    """Streaming mean/scatter accumulator with exact pairwise merging.

    Batches are folded in by ``_pooled``, so finalize() reproduces
    covariance() of the concatenated rows no matter how the stream was
    partitioned. Not safe for concurrent mutation.
    """

    def __init__(self, dim: int):
        _check_count("dimension", dim, 1)
        self.dim = int(dim)
        self.count = 0
        self.mean = np.zeros(self.dim)
        self.scatter = np.zeros((self.dim, self.dim))

    def update(self, batch) -> "CovarianceAccumulator":
        """Fold an n x d batch into the running moments."""
        batch = _check_width(validate_embeddings(batch, "batch"), self.dim, "accumulator", "batch")
        return self._pool(_moments(batch))

    def merge(self, other: "CovarianceAccumulator") -> "CovarianceAccumulator":
        """Fold another accumulator into this one (parallel-merge form)."""
        if other.dim != self.dim:
            raise InvalidInput(
                f"cannot merge accumulators of dimension {other.dim} and {self.dim}"
            )
        return self._pool((other.count, other.mean, other.scatter))

    def _pool(self, other: tuple) -> "CovarianceAccumulator":
        self.count, self.mean, self.scatter = _pooled((self.count, self.mean, self.scatter), other)
        return self

    def finalize(self) -> tuple[np.ndarray, np.ndarray]:
        """Return (mean, sigma) over everything accumulated so far."""
        if self.count < 2:
            raise InsufficientSamples(
                f"finalize needs at least 2 accumulated rows, got {self.count}"
            )
        return _covariance((self.count, self.mean.copy(), self.scatter))
