"""The package's two input rules, each with one owner in ``linalg``.

``_numeric`` converts every array argument, float or integer, and accepts only
float and integer dtypes: every public entry that takes an array raises
InvalidInput for a complex ndarray (even one whose imaginary parts are all 0)
or a list holding a complex number, whose imaginary part a cast would drop,
for a string or bytes ndarray or a list holding a string, which a cast would
parse, for a list nested to uneven depths, and for any other dtype: an object
array (whatever it holds), a list holding None and a boolean array. The
entries that take labels, rows, classes or an argmax refuse the same, and a
writer leaves no file; they then share one integer rule, ``_indices``, which
takes integral floats by value and refuses a fraction. A float argument that
must be non-empty and finite passes ``_real``'s checked form, ``_finite``,
whose two messages (a wrong rank or an empty array; a NaN or an infinity)
name the argument. ``_symmetric`` accepts a matrix within SYMMETRY_ATOL x
max|entry| of its transpose, so a matrix and its power-of-two multiples get
one verdict.
"""

import pickle
import re
from dataclasses import FrozenInstanceError, dataclass

import numpy as np
import pytest

from tcalign import (
    AlignmentTransform,
    CovarianceAccumulator,
    InvalidInput,
    PredictionBatch,
    SoftmaxHead,
    accuracy,
    adapt_online,
    adapt_transductive,
    apply_transform,
    batch_uncertainties,
    correlation_distance,
    covariance,
    most_certain,
    objective,
    objective_gradient,
    predict,
    shrink,
    solve_closed_form,
    solve_gradient,
    spd_power,
    spearman,
    train_head,
    validate_alignment_trace,
    validate_uncertainty_groups,
)
from tcalign.io import scatter_svg, table_to_csv, write_embeddings, write_labels, write_predictions_csv
from conftest import make_spd

Z = np.array([[0.0, 1.0], [1.0, 0.5], [2.0, -1.0], [-1.0, 0.0], [0.5, 2.0], [1.5, 1.5]])
LABELS = np.array([0, 1, 2, 0, 1, 2])
HEAD = SoftmaxHead(weight=np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]), bias=np.zeros(3))
S = np.array([[2.0, 0.5], [0.5, 1.0]])
MU = np.zeros(2)
PROBS = np.array([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]])
SERIES = np.array([0.1, 0.4, 0.2, 0.9])


@dataclass
class Row:
    """A table row for ``table_to_csv``: the index, then two values."""

    i: int
    x: float
    y: float


def _complex_array(a):
    return np.asarray(a) + 0.5j


def _zero_imaginary_array(a):
    return np.asarray(a) + 0j


def _nested_lists(a, change):
    """``a`` as nested lists of numbers whose first number is ``change(number)``."""
    out = np.asarray(a).tolist()
    first = out
    while isinstance(first[0], list):
        first = first[0]
    first[0] = change(first[0])
    return out


def _object_array(a, change):
    """``a`` as an object array whose first entry is ``change(entry)``."""
    out = np.asarray(a, dtype=np.float64).astype(object)
    out.flat[0] = change(out.flat[0])
    return out


def _list_with_complex(a):
    return _nested_lists(a, lambda x: complex(x, 0.5))


def _object_array_with_complex(a):
    return _object_array(a, lambda x: complex(x, 0.5))


def _string_array(a):
    return np.asarray(a, dtype=np.float64).astype(str)


def _bytes_array(a):
    return np.asarray(a, dtype=np.float64).astype(bytes)


def _list_with_string(a):
    return _nested_lists(a, str)


def _object_array_with_string(a):
    return _object_array(a, str)


def _ragged_list(a):
    """``a`` as nested lists whose first number is a pair, one level deeper."""
    return _nested_lists(a, lambda x: [x, x])


def _list_with_none(a):
    return _nested_lists(a, lambda x: None)


def _bool_array(a):
    return np.asarray(a) > 0


KINDS = [_complex_array, _zero_imaginary_array, _list_with_complex, _object_array_with_complex]
STRING_KINDS = [_string_array, _bytes_array, _list_with_string, _object_array_with_string]
# the gate's messages, and the dtype that each other kind reaches it with
COMPLEX = "must be real, got complex values"
STRINGS = "must be numeric, got strings"
RAGGED = "must be a regular array, got a ragged nest"
OTHER_DTYPES = {_list_with_none: "object", _bool_array: "bool"}


def _dtype_refused(dtype: str) -> str:
    return f"must hold integers or floats, got dtype {dtype}$"


# each entry, given ``bad`` (a malformed version of a valid argument) and a directory
ENTRIES = {
    "adapt_transductive": lambda bad, tmp: adapt_transductive(bad(Z), HEAD),
    "adapt_online": lambda bad, tmp: adapt_online(bad(Z), HEAD),
    "source_stats": lambda bad, tmp: adapt_transductive(Z, HEAD, source_stats=(MU, bad(S))),
    "predict": lambda bad, tmp: predict(HEAD, bad(Z)),
    "train_head": lambda bad, tmp: train_head(bad(Z), LABELS, 0.1, 1),
    "SoftmaxHead": lambda bad, tmp: SoftmaxHead(weight=bad(HEAD.weight), bias=HEAD.bias),
    "SoftmaxHead-bias": lambda bad, tmp: SoftmaxHead(weight=HEAD.weight, bias=bad(HEAD.bias)),
    "covariance": lambda bad, tmp: covariance(bad(Z)),
    "CovarianceAccumulator.update": lambda bad, tmp: CovarianceAccumulator(2).update(bad(Z)),
    "correlation_distance": lambda bad, tmp: correlation_distance(S, bad(S)),
    "shrink": lambda bad, tmp: shrink(bad(S), 0.1),
    "spd_power": lambda bad, tmp: spd_power(bad(S), 0.5),
    "solve_closed_form": lambda bad, tmp: solve_closed_form(S, bad(S)),
    "AlignmentTransform": lambda bad, tmp: AlignmentTransform(w=bad(S), mu_t=MU, mu_s_hat=MU),
    "AlignmentTransform-mu_t": lambda bad, tmp: AlignmentTransform(w=S, mu_t=bad(MU), mu_s_hat=MU),
    "AlignmentTransform-mean": lambda bad, tmp: AlignmentTransform(w=S, mu_t=MU, mu_s_hat=bad(MU)),
    "apply_transform": lambda bad, tmp: apply_transform(bad(Z), AlignmentTransform(S, MU, MU)),
    "objective": lambda bad, tmp: objective(bad(S), S, S),
    "objective_gradient": lambda bad, tmp: objective_gradient(np.eye(2), S, bad(S)),
    "solve_gradient": lambda bad, tmp: solve_gradient(bad(S), S, max_iters=2),
    "batch_uncertainties": lambda bad, tmp: batch_uncertainties(bad(PROBS)),
    "most_certain": lambda bad, tmp: most_certain(bad(SERIES), 2),
    "spearman": lambda bad, tmp: spearman(SERIES, bad(SERIES)),
    "spearman-x": lambda bad, tmp: spearman(bad(SERIES), SERIES),
    "validate_uncertainty_groups": lambda bad, tmp: validate_uncertainty_groups(
        bad(Z), HEAD, (MU, S), n_groups=2
    ),
    "validate_alignment_trace": lambda bad, tmp: validate_alignment_trace(
        bad(Z), HEAD, None, (MU, S), LABELS, max_iters=2
    ),
    "scatter_svg": lambda bad, tmp: scatter_svg([("target", bad(Z))]),
    "write_embeddings": lambda bad, tmp: write_embeddings(tmp / "z.tcae", bad(Z)),
    "write_predictions_csv": lambda bad, tmp: write_predictions_csv(
        tmp / "preds.csv", PredictionBatch(probs=bad(PROBS), argmax=np.array([0, 2]))
    ),
    "table_to_csv": lambda bad, tmp: table_to_csv(tmp / "table.csv", [Row(0, *bad(SERIES[:2]))]),
}


def _refusal(entry, kind, message: str) -> str:
    """What ``entry`` says of ``kind``: an object array is refused for its dtype,
    whatever it holds, except by table_to_csv, whose row fields unpack it into
    Python numbers that the gate sees as ``message`` says."""
    if kind in (_object_array_with_complex, _object_array_with_string) and entry is not ENTRIES["table_to_csv"]:
        return _dtype_refused("object")
    return message


@pytest.mark.parametrize("kind", KINDS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_complex_arguments_are_refused(tmp_path, entry, kind):
    # every array argument goes through linalg._numeric: a complex ndarray used
    # to be cut to its real part, and a list holding a complex number raised
    # a bare TypeError
    with pytest.raises(InvalidInput, match=_refusal(entry, kind, COMPLEX)):
        entry(kind, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", STRING_KINDS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_string_arguments_are_refused(tmp_path, entry, kind):
    # numbers written as strings used to be parsed (most_certain(["0.1"], 1)
    # returned [0]), and letters raised a bare ValueError
    with pytest.raises(InvalidInput, match=_refusal(entry, kind, STRINGS)):
        entry(kind, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_ragged_arguments_are_refused(tmp_path, entry):
    # numpy gives a ragged nest no shape; that used to surface as a bare ValueError
    with pytest.raises(InvalidInput, match=RAGGED):
        entry(_ragged_list, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("kind", OTHER_DTYPES, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("entry", ENTRIES.values(), ids=ENTRIES.keys())
def test_other_dtypes_are_refused(tmp_path, entry, kind):
    # None used to become NaN (spearman([None, 1.0, 2.0], [1, 2, 3]) returned
    # None, and table_to_csv wrote "0,nan"), and booleans became 0.0 and 1.0
    with pytest.raises(InvalidInput, match=_dtype_refused(OTHER_DTYPES[kind])):
        entry(kind, tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_object_array_of_numbers_is_refused():
    # the gate reads the dtype, not the entries: an object array is refused
    # even when every entry is a float
    with pytest.raises(InvalidInput, match=r"^embeddings must hold integers or floats, got dtype object$"):
        covariance(Z.astype(object))


# each ENTRIES argument that linalg._finite checks: the name its messages give, and its valid value
FINITE_ARGUMENTS = {
    **dict.fromkeys(["covariance", "predict", "train_head", "apply_transform", "write_embeddings"], ("embeddings", Z)),
    "CovarianceAccumulator.update": ("batch", Z),
    "scatter_svg": ("target", Z),
    **dict.fromkeys(
        ["adapt_transductive", "adapt_online", "validate_uncertainty_groups", "validate_alignment_trace"], ("test", Z)
    ),
    "correlation_distance": ("b", S),
    "shrink": ("sigma", S),
    "spd_power": ("sigma", S),
    "solve_closed_form": ("sigma_s_hat", S),
    "objective_gradient": ("sigma_s_hat", S),
    "solve_gradient": ("sigma_t", S),
    "source_stats": ("source_stats covariance", S),
    "objective": ("w", S),
    "SoftmaxHead": ("head weight", HEAD.weight),
    "SoftmaxHead-bias": ("head bias", HEAD.bias),
    "AlignmentTransform": ("transform w", S),
    "AlignmentTransform-mu_t": ("transform mu_t", MU),
    "AlignmentTransform-mean": ("transform mu_s_hat", MU),
    "write_predictions_csv": ("probabilities", PROBS),
}


def _first_entry(value):
    def bad(a):
        out = np.array(a, dtype=np.float64)
        out.flat[0] = value
        return out

    return bad


FINITE_KINDS = {
    "nan": _first_entry(np.nan),
    "inf": _first_entry(np.inf),
    "wrong-rank": lambda a: a[0] if a.ndim == 2 else a[None],
    "empty": lambda a: a[:0],
}


@pytest.mark.parametrize("kind", FINITE_KINDS)
@pytest.mark.parametrize("entry", FINITE_ARGUMENTS)
def test_one_rank_and_finiteness_rule(tmp_path, entry, kind):
    # linalg._finite checks every float array argument's rank, emptiness and
    # finiteness; the head, the transform and the probabilities used to word
    # each failure their own way
    name, valid = FINITE_ARGUMENTS[entry]
    bad = FINITE_KINDS[kind](valid)
    if kind in ("nan", "inf"):
        message = f"{name} contains non-finite entries"
    else:
        message = f"{name} must be a non-empty {valid.ndim}-D array, got shape {bad.shape}"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        ENTRIES[entry](FINITE_KINDS[kind], tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("fn", [objective, objective_gradient])
def test_non_finite_w_is_refused(fn):
    # w was converted but never scanned: the objective came back nan and its
    # gradient a matrix of NaNs
    with pytest.raises(InvalidInput, match=r"^w contains non-finite entries$"):
        fn(np.full((2, 2), np.nan), S, S)


@pytest.mark.parametrize(
    "cls, name",
    [(SoftmaxHead, "weight"), (SoftmaxHead, "bias"), *((AlignmentTransform, n) for n in ("w", "mu_t", "mu_s_hat"))],
    ids=lambda v: v if isinstance(v, str) else v.__name__,
)
def test_checked_fields_cannot_be_reassigned(cls, name):
    # the checks run when the object is built: a field assigned afterwards, or
    # the caller's array written after the build, used to bypass them (a NaN w
    # made apply_transform return NaN rows)
    fields = (
        {"weight": HEAD.weight.copy(), "bias": HEAD.bias.copy()}
        if cls is SoftmaxHead
        else {"w": S.copy(), "mu_t": MU.copy(), "mu_s_hat": MU.copy()}
    )
    built = cls(**fields)
    with pytest.raises(FrozenInstanceError):
        setattr(built, name, np.full_like(getattr(built, name), np.nan))
    kept = getattr(built, name).copy()
    fields[name].flat[0] = np.nan
    np.testing.assert_array_equal(getattr(built, name), kept)
    with pytest.raises(ValueError, match="read-only"):
        getattr(built, name).flat[0] = np.nan


PREDS = predict(HEAD, Z)
# each entry that takes integers (labels, rows, classes or an argmax), given
# ``bad`` and a directory
INTEGER_ENTRIES = {
    "train_head": lambda bad, tmp: train_head(Z, bad(LABELS), 0.1, 1),
    "adapt_transductive": lambda bad, tmp: adapt_transductive(Z, HEAD, labels=bad(LABELS)),
    "adapt_online": lambda bad, tmp: adapt_online(Z, HEAD, labels=bad(LABELS)),
    "accuracy": lambda bad, tmp: accuracy(PREDS, bad(LABELS)),
    "validate_alignment_trace": lambda bad, tmp: validate_alignment_trace(
        Z, HEAD, None, (MU, S), bad(LABELS), max_iters=2
    ),
    "write_labels": lambda bad, tmp: write_labels(tmp / "labels.tcal", bad(LABELS)),
    "most_certain-rows": lambda bad, tmp: most_certain(SERIES, 2, rows=bad(np.arange(4))),
    "most_certain-classes": lambda bad, tmp: most_certain(SERIES, 2, classes=bad(np.array([0, 1, 0, 1]))),
    "write_predictions_csv-argmax": lambda bad, tmp: write_predictions_csv(
        tmp / "preds.csv", PredictionBatch(probs=PROBS, argmax=bad(np.array([0, 2])))
    ),
}
INTEGER_KINDS = {
    _ragged_list: RAGGED,
    _list_with_none: _dtype_refused("object"),
    _list_with_complex: COMPLEX,
    _list_with_string: STRINGS,
}


@pytest.mark.parametrize("kind", INTEGER_KINDS, ids=lambda f: f.__name__.strip("_"))
@pytest.mark.parametrize("entry", INTEGER_ENTRIES.values(), ids=INTEGER_ENTRIES.keys())
def test_integer_arguments_are_refused(tmp_path, entry, kind):
    # integers pass the same gate: a ragged nest used to raise a bare
    # ValueError, and a list holding None a bare TypeError
    with pytest.raises(InvalidInput, match=INTEGER_KINDS[kind]):
        entry(kind, tmp_path)
    assert list(tmp_path.iterdir()) == []


def _integral_floats(a):
    return np.asarray(a, dtype=np.float64)


def _with_fraction(a):
    out = np.asarray(a, dtype=np.float64)
    out.flat[0] = 0.5
    return out


def _outcome(entry, convert, tmp):
    """The pickled return value of ``entry`` given ``convert`` of its integers,
    and the bytes of each file it writes into ``tmp``."""
    tmp.mkdir()
    result = pickle.dumps(entry(convert, tmp))
    return result, {path.name: path.read_bytes() for path in tmp.iterdir()}


@pytest.mark.parametrize("entry", INTEGER_ENTRIES.values(), ids=INTEGER_ENTRIES.keys())
def test_integer_arguments_take_integral_floats_by_value(tmp_path, entry):
    # one integer rule, linalg._indices: a float that is an integer reads as
    # that integer everywhere, and a fraction is refused everywhere
    as_integers = _outcome(entry, lambda a: a, tmp_path / "integers")
    assert _outcome(entry, _integral_floats, tmp_path / "floats") == as_integers
    (tmp_path / "fraction").mkdir()
    with pytest.raises(InvalidInput, match=r"^(labels|rows|classes|argmax) must be (nonnegative )?integers$"):
        entry(_with_fraction, tmp_path / "fraction")
    assert list((tmp_path / "fraction").iterdir()) == []


SYMMETRIC_ENTRIES = {
    "shrink": lambda m: shrink(m, 0.1),
    "spd_power": lambda m: spd_power(m, 0.5),
    "solve_closed_form-sigma_t": lambda m: solve_closed_form(m, m + m.T),
    "solve_closed_form-sigma_s_hat": lambda m: solve_closed_form(m + m.T, m),
}


def _accepted(call, m) -> bool:
    try:
        call(m)
    except InvalidInput as exc:
        assert "is not symmetric within" in str(exc)
        return False
    return True


@pytest.mark.parametrize("call", SYMMETRIC_ENTRIES.values(), ids=SYMMETRIC_ENTRIES.keys())
def test_small_asymmetric_matrix_refused(call):
    # its off-diagonal entries differ by 500 times its diagonal; the tolerance
    # used to be absolute below entries of 1 and let it through
    with pytest.raises(InvalidInput, match=r"^sigma is not symmetric within 1e-09 x max\|entry\|$"):
        call(np.array([[1e-12, 5e-10], [0.0, 1e-12]]))


@pytest.mark.parametrize("call", SYMMETRIC_ENTRIES.values(), ids=SYMMETRIC_ENTRIES.keys())
@pytest.mark.parametrize("d", [2, 5])
@pytest.mark.parametrize("k", [-60, -20, 20, 60])
def test_a_matrix_and_its_power_of_two_multiple_get_one_verdict(rng, call, d, k):
    # an asymmetry of half the tolerance passes and one of twice it does not,
    # at every scale
    s = make_spd(rng, d, scale=3.0)
    for fraction, expected in ((0.5, True), (2.0, False)):
        m = s.copy()
        m[d - 1, 0] += fraction * 1e-9 * np.abs(s).max()
        assert _accepted(call, m) is expected
        assert _accepted(call, np.ldexp(m, k)) is expected
