import numpy as np
import pytest

from tcalign import spearman
from tcalign.experiments import _pearson
from conftest import normal_equation_r2


def rank_then_pearson(x, y):
    """Brute-force oracle: average ranks by scanning equal values, then Pearson."""

    def avg_ranks(v):
        v = list(v)
        out = []
        for value in v:
            less = sum(1 for o in v if o < value)
            equal = sum(1 for o in v if o == value)
            out.append(less + (equal + 1) / 2.0)
        return np.array(out)

    rx, ry = avg_ranks(x), avg_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    return float(rx @ ry / np.sqrt((rx @ rx) * (ry @ ry)))


class TestSpearman:
    def test_same_order(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed(self):
        assert spearman([1, 2, 3], [30, 20, 10]) == -1.0

    def test_ties_match_average_rank_oracle(self):
        x = [1.0, 2.0, 2.0, 4.0]
        y = [1.0, 3.0, 2.0, 4.0]
        assert spearman(x, y) == pytest.approx(rank_then_pearson(x, y), rel=1e-12)

    def test_random_with_ties_matches_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 30))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            assert spearman(x, y) == pytest.approx(rank_then_pearson(x, y), rel=1e-10)

    def test_self_correlation_is_exactly_one(self, rng):
        x = rng.permutation(50).astype(float)  # no ties
        assert spearman(x, x) == 1.0

    def test_constant_sequence_is_undefined(self):
        assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None

    def test_length_mismatch_is_undefined(self):
        assert spearman([1.0, 2.0], [1.0, 2.0, 3.0]) is None

    def test_too_short_is_undefined(self):
        assert spearman([1.0], [2.0]) is None

    def test_nan_is_undefined(self):
        # NaN equals nothing, so it has no rank; infinities rank as ordinary values
        assert spearman([1.0, float("nan"), 3.0], [1.0, 2.0, 3.0]) is None
        assert spearman([1.0, 2.0, 3.0], [float("nan")] * 3) is None
        assert spearman([-np.inf, 0.0, np.inf], [1.0, 2.0, 3.0]) == 1.0


def r2(x, y):
    """The trace's R^2 of the least-squares line of y on x: the square of ``_pearson``."""
    r = _pearson(x, y)
    return None if r is None else r * r


class TestLinearFit:
    # the R^2 of a one-variable least-squares line, which the trace reports as r^2
    def test_exact_line(self):
        assert _pearson([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0]) == pytest.approx(1.0, abs=1e-15)
        assert _pearson([0.0, 1.0, 2.0, 3.0], [7.0, 5.0, 3.0, 1.0]) == pytest.approx(-1.0, abs=1e-15)
        assert r2([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0]) == pytest.approx(1.0, abs=1e-12)

    def test_constant_y_gives_undefined_r2(self):
        assert _pearson([0.0, 1.0, 2.0], [5.0, 5.0, 5.0]) is None
        # a constant of many entries whose mean is inexact is constant still
        assert _pearson(np.arange(7.0), np.full(7, 0.1)) is None

    def test_constant_x_is_undefined(self):
        assert _pearson([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_is_undefined(self, bad):
        assert _pearson([1.0, bad, 3.0], [1.0, 2.0, 3.0]) is None
        assert _pearson([1.0, 2.0, 3.0], [1.0, 2.0, -bad]) is None

    def test_matches_normal_equation_oracle(self, rng):
        x = rng.standard_normal(40)
        y = 3.0 * x - 2.0 + rng.standard_normal(40)
        assert r2(x, y) == pytest.approx(normal_equation_r2(x, y), rel=1e-12)

    @pytest.mark.parametrize(
        "x_scale, y_scale",
        [(1e200, 1.0), (1.0, 1e200), (1e-200, 1.0)],
        ids=["huge-x", "huge-y", "tiny-x"],
    )
    def test_fit_follows_the_scale_of_its_input(self, x_scale, y_scale):
        # unscaled, the sums of squares overflow for huge x or y and underflow for tiny x
        x, y = np.array([1.0, -1.0, 0.0]), np.array([0.0, 1.0, 2.0])
        assert _pearson(x * x_scale, y * y_scale) == _pearson(x, y) == -0.5
        assert r2(x * x_scale, y * y_scale) == 0.25

    def test_r2_is_defined_where_the_slope_overflows(self):
        # the line's slope, 1e400, is beyond float64; its R^2 is not
        assert r2([1e-200, 2e-200, 3e-200], [1e200, 2e200, 4e200]) == pytest.approx(27 / 28, rel=1e-15)

    def test_r2_of_a_poor_fit_lies_in_the_unit_interval(self):
        assert 0.0 <= r2([0.0, 0.0, 1.0], [0.0, 10.0, 5.0]) <= 1.0


@pytest.mark.parametrize(
    "x, y",
    [([0.0, 1.0, 2.0], [0.0, 1.0]), ([[0.0, 1.0]], [[0.0, 1.0]]), ([1.0], [2.0])],
    ids=["length-mismatch", "2-d", "one-point"],
)
def test_linear_fit_of_malformed_input_is_none(x, y):
    assert _pearson(x, y) is None
    assert spearman(x, y) is None
