import numpy as np
import pytest

from tcalign import linear_fit_r2, spearman


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


class TestLinearFit:
    def test_exact_line(self):
        fit = linear_fit_r2([0.0, 1.0, 2.0, 3.0], [1.0, 3.0, 5.0, 7.0])
        assert fit.slope == pytest.approx(2.0, rel=1e-12)
        assert fit.intercept == pytest.approx(1.0, rel=1e-12)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)

    def test_constant_y_gives_undefined_r2(self):
        fit = linear_fit_r2([0.0, 1.0, 2.0], [5.0, 5.0, 5.0])
        assert fit is not None
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r2 is None

    def test_constant_x_is_undefined(self):
        assert linear_fit_r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_is_undefined(self, bad):
        # a NaN used to come back as a fit of NaNs
        assert linear_fit_r2([1.0, bad, 3.0], [1.0, 2.0, 3.0]) is None
        assert linear_fit_r2([1.0, 2.0, 3.0], [1.0, 2.0, bad]) is None

    def test_matches_normal_equation_oracle(self, rng):
        x = rng.standard_normal(40)
        y = 3.0 * x - 2.0 + rng.standard_normal(40)
        fit = linear_fit_r2(x, y)
        a = np.vstack([x, np.ones_like(x)]).T
        slope_ref, intercept_ref = np.linalg.solve(a.T @ a, a.T @ y)
        residual = y - (slope_ref * x + intercept_ref)
        r2_ref = 1.0 - residual @ residual / ((y - y.mean()) @ (y - y.mean()))
        assert fit.slope == pytest.approx(slope_ref, rel=1e-10)
        assert fit.intercept == pytest.approx(intercept_ref, rel=1e-10)
        assert fit.r2 == pytest.approx(r2_ref, rel=1e-10)

    @pytest.mark.parametrize(
        "x_scale, y_scale",
        [(1e200, 1.0), (1.0, 1e200), (1e-200, 1.0)],
        ids=["huge-x", "huge-y", "tiny-x"],
    )
    def test_fit_follows_the_scale_of_its_input(self, x_scale, y_scale):
        # the sums of squares used to overflow or underflow: r2 0.0 with a
        # RuntimeWarning for huge x, nan for huge y, None ("constant x") for tiny x
        x, y = np.array([1.0, -1.0, 0.0]), np.array([0.0, 1.0, 2.0])
        fit = linear_fit_r2(x * x_scale, y * y_scale)
        assert fit.slope == pytest.approx(-0.5 * y_scale / x_scale, rel=1e-15)
        assert fit.intercept == pytest.approx(y_scale, rel=1e-15)
        assert fit.r2 == pytest.approx(0.25, rel=1e-15)

    def test_slope_beyond_float64_is_none(self):
        assert linear_fit_r2([1e-200, 2e-200, 3e-200], [1e200, 2e200, 4e200]) is None

    def test_r2_can_go_negative_for_terrible_fit(self):
        # degenerate two-point cloud fitted through distant outliers
        fit = linear_fit_r2([0.0, 0.0, 1.0], [0.0, 10.0, 5.0])
        assert fit.r2 <= 1.0


@pytest.mark.parametrize(
    "x, y",
    [([0.0, 1.0, 2.0], [0.0, 1.0]), ([[0.0, 1.0]], [[0.0, 1.0]]), ([1.0], [2.0])],
    ids=["length-mismatch", "2-d", "one-point"],
)
def test_linear_fit_of_malformed_input_is_none(x, y):
    assert linear_fit_r2(x, y) is None
