import warnings

import numpy as np
import pytest

from tcalign import (
    CovarianceAccumulator,
    InsufficientSamples,
    InvalidInput,
    NumericalFailure,
    SingularMatrix,
    correlation_distance,
    covariance,
    shrink,
    spd_power,
)
from tcalign.linalg import _moments, _pooled
from conftest import LAYOUTS, laid_out, make_spd, make_symmetric


class TestCovariance:
    def test_two_symmetric_points(self):
        mean, sigma = covariance([[1.0, 0.0], [-1.0, 0.0]])
        assert np.array_equal(mean, [0.0, 0.0])
        assert np.array_equal(sigma, [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_rows_zero_covariance(self):
        mean, sigma = covariance([[1.0, 1.0], [1.0, 1.0]])
        assert np.array_equal(mean, [1.0, 1.0])
        assert np.array_equal(sigma, np.zeros((2, 2)))

    def test_unit_variance_column(self):
        mean, sigma = covariance([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        assert np.allclose(mean, [1.0, 0.0])
        assert np.allclose(sigma, [[1.0, 0.0], [0.0, 0.0]])

    def test_single_row_rejected(self):
        with pytest.raises(InsufficientSamples):
            covariance([[1.0, 2.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            covariance([[1.0, np.nan], [0.0, 1.0]])

    def test_scatter_near_the_float64_maximum_stays_finite(self):
        # the scatter 1.125e308 is finite, but (sigma + sigma.T) / 2 overflowed
        # to inf with a RuntimeWarning; halving first keeps it, silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mean, sigma = covariance([[0.0], [1.5e154]])
        assert np.array_equal(mean, [7.5e153])
        assert np.array_equal(sigma, [[2 * 7.5e153**2]])  # 1.125e308, rounded once

    def test_row_permutation_invariance(self, rng):
        z = rng.standard_normal((40, 5))
        mean_a, sigma_a = covariance(z)
        perm = rng.permutation(40)
        mean_b, sigma_b = covariance(z[perm])
        assert np.allclose(mean_a, mean_b, rtol=1e-10, atol=1e-12)
        assert np.linalg.norm(sigma_a - sigma_b) <= 1e-10 * np.linalg.norm(sigma_a)

    def test_output_is_psd(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 30))
            d = int(rng.integers(1, 8))
            _, sigma = covariance(rng.standard_normal((n, d)) * 10)
            floor = -1e-9 * max(1.0, np.trace(sigma))
            assert np.linalg.eigvalsh(sigma).min() >= floor


class TestCorrelationDistance:
    def test_identical_matrices(self, rng):
        a = make_symmetric(rng, 4)
        assert correlation_distance(a, a) == 0.0

    def test_identity_vs_zero(self):
        assert correlation_distance(np.eye(2), np.zeros((2, 2))) == 0.125

    def test_matches_elementwise_oracle(self, rng):
        a = make_symmetric(rng, 3)
        b = make_symmetric(rng, 3)
        acc = 0.0
        for i in range(3):
            for j in range(3):
                acc += (a[i, j] - b[i, j]) ** 2
        expected = acc / (4 * 3 * 3)
        assert correlation_distance(a, b) == pytest.approx(expected, rel=1e-14)

    def test_symmetric_in_arguments(self, rng):
        a = make_symmetric(rng, 5)
        b = make_symmetric(rng, 5)
        assert correlation_distance(a, b) == correlation_distance(b, a)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            correlation_distance(np.eye(2), np.eye(3))


class TestShrink:
    def test_floor_only(self):
        out = shrink(np.eye(2), 0.0)
        assert np.allclose(out, np.eye(2) * (1.0 + 1e-12), rtol=0, atol=1e-18)

    def test_trace_scaled_ridge(self):
        out = shrink(np.diag([2.0, 2.0]), 0.5)
        assert np.allclose(np.diag(out), 3.0 + 1e-12)

    def test_zero_matrix_gets_floor(self):
        out = shrink(np.zeros((4, 4)), 0.1)
        assert np.allclose(out, 1e-12 * np.eye(4), rtol=0, atol=1e-20)

    @pytest.mark.parametrize(
        "call", [lambda m: shrink(m, 0.1), lambda m: spd_power(m, 0.5)], ids=["shrink", "spd_power"]
    )
    def test_asymmetric_rejected(self, call):
        with pytest.raises(InvalidInput, match="sigma is not symmetric within 1e-09"):
            call(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_makes_psd_matrix_definite(self, rng):
        _, sigma = covariance(rng.standard_normal((3, 8)))  # rank-deficient
        out = shrink(sigma, 1e-3)
        assert np.linalg.eigvalsh(out).min() > 0

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -0.1, None, "0.1", True])
    def test_bad_eps_rejected(self, eps):
        # a NaN eps used to slip past "eps < 0" and return a NaN matrix
        with pytest.raises(InvalidInput, match="eps must be finite and >= 0"):
            shrink(np.eye(2), eps)

    def test_overflowing_ridge_rejected(self):
        # the trace overflows; the error names the ridge, without a RuntimeWarning
        with pytest.raises(
            InvalidInput,
            match=r"^sigma's diagonal plus the ridge eps \* trace / d = inf \(eps 0\.001, trace inf, d 2\) "
            "overflows float64; lower eps or rescale the embeddings$",
        ):
            shrink(np.diag([1.7e308, 1.7e308]), 1e-3)

    @pytest.mark.parametrize("scale", [1e3, 1e5])
    @pytest.mark.parametrize(
        "call", [lambda m: shrink(m, 0.1), lambda m: spd_power(m + 1e3 * np.eye(64), 0.5)],
        ids=["shrink", "spd_power"],
    )
    def test_large_product_is_symmetric_within_its_scale(self, rng, call, scale):
        # R^T S R rounds its triangles apart by more than 1e-9 once its entries
        # are large; the tolerance used to be absolute and refused it
        r, a = rng.standard_normal((2, 64, 64))
        t = (r * scale).T @ (a @ a.T) @ (r * scale)
        assert np.abs(t - t.T).max() > 1e-9
        assert np.all(np.isfinite(call(t)))

    def test_asymmetry_near_the_float64_limit_rejected(self):
        # a - a.T used to overflow with a RuntimeWarning
        m = np.array([[1.0, 1.7e308], [-1.7e308, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInput, match=r"^sigma is not symmetric within 1e-09 x max\|entry\|$"):
                shrink(m, 0.1)


class TestSpdPower:
    def test_identity_sqrt(self):
        assert np.allclose(spd_power(np.eye(3), 0.5), np.eye(3))

    def test_diagonal_powers(self):
        s = np.diag([4.0, 9.0])
        assert np.allclose(spd_power(s, 0.5), np.diag([2.0, 3.0]))
        assert np.allclose(spd_power(s, -0.5), np.diag([0.5, 1.0 / 3.0]))

    def test_first_power_reconstructs(self, rng):
        # p = 1 is an integer power, defined for an indefinite matrix too
        a = make_symmetric(rng, 5, scale=3.0)
        assert np.linalg.norm(spd_power(a, 1.0) - a) <= 1e-8 * np.linalg.norm(a)

    def test_deterministic_repeat(self, rng):
        s = make_spd(rng, 4)
        assert np.array_equal(spd_power(s, -0.5), spd_power(s.copy(), -0.5))

    def test_one_by_one(self):
        assert spd_power(np.array([[4.0]]), 0.5)[0, 0] == 2.0

    def test_sqrt_squares_back(self, rng):
        s = make_spd(rng, 4, cond=50.0)
        root = spd_power(s, 0.5)
        assert np.linalg.norm(root @ root - s) <= 1e-8 * np.linalg.norm(s)

    def test_sqrt_times_inverse_sqrt_is_identity(self, rng):
        for cond in (10.0, 1e3, 1e6):
            s = make_spd(rng, 5, cond=cond)
            prod = spd_power(s, 0.5) @ spd_power(s, -0.5)
            assert np.linalg.norm(prod - np.eye(5)) <= 1e-8

    def test_symmetrization_does_not_overflow(self):
        # (sigma + sigma.T) / 2 would overflow to inf on an entry near the float64 maximum
        assert spd_power(np.array([[1.79e308]]), 0.5)[0, 0] == 1.3379088160259651e154

    def test_non_finite_result_raises_numerical_failure(self):
        # the largest eigenvalue overflows to inf, so no finite power exists to return
        with pytest.raises(NumericalFailure, match="not finite"):
            spd_power([[1e308, 1.5e308], [1.5e308, 1.7e308]], 1.0)

    def test_negative_power_of_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            spd_power(np.diag([1.0, 0.0]), -0.5)

    def test_fractional_power_of_indefinite_rejected(self):
        for sigma in (np.diag([1.0, -1.0]), np.diag([1.0, -1e-3])):
            with pytest.raises(SingularMatrix):
                spd_power(sigma, 0.5)

    def test_rounding_below_zero_is_zero_for_fractional_powers(self):
        # -1e-17 is within 4 d eps max|lambda| of 0: a root treats it as 0,
        # a negative power still refuses it
        assert np.array_equal(spd_power(np.diag([1.0, -1e-17]), 0.5), np.diag([1.0, 0.0]))
        with pytest.raises(SingularMatrix):
            spd_power(np.diag([1.0, -1e-17]), -0.5)

    def test_sqrt_of_rank_deficient_covariance(self):
        # the zero eigenvalue of a rank-2 covariance in 3-d rounds negative on
        # 11 of the random mixes and 12 of the fixed one (seed 17 to 1.1 d eps
        # max|lambda|); each root is finite and squares back
        fixed = np.array([[1.0, 0.4, -0.7], [0.2, 1.1, 0.5]])
        for seed in range(20):
            rng = np.random.default_rng(seed)
            rows = rng.standard_normal((200, 2))
            for mix in (rng.standard_normal((2, 3)), fixed):
                _, cov = covariance(rows @ mix * 1e4)
                root = spd_power(cov, 0.5)
                assert np.all(np.isfinite(root))
                assert np.linalg.norm(root @ root - cov) <= 1e-12 * np.linalg.norm(cov)

    @pytest.mark.parametrize("d", [2, 5, 16, 64])
    def test_root_of_rank_deficient_matrix_follows_its_scale(self, rng, d):
        # a zero eigenvalue may round negative; _power clamps it relative to
        # the matrix's own scale, so a multiple by 4^k has exactly 2^k times
        # the root
        for _ in range(5):
            b = rng.standard_normal((d, max(1, d // 2)))
            a = b @ b.T
            root = spd_power(a, 0.5)
            for k in (-20, -5, 5, 20):
                assert np.array_equal(spd_power(4.0**k * a, 0.5), 2.0**k * root)

    @pytest.mark.parametrize("p", [np.nan, np.inf, -np.inf, "x", None, True])
    def test_non_finite_power_rejected(self, p):
        # a NaN power used to raise a bare ValueError from int(p)
        with pytest.raises(InvalidInput, match="power must be finite"):
            spd_power(np.eye(2), p)


BAD_MATRICES = {
    "nan": np.array([[1.0, np.nan], [np.nan, 1.0]]),
    "inf": np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "0x0": np.zeros((0, 0)),
}


class TestSquareMatrixRule:
    # NaN > atol is false, so the symmetry check alone lets a NaN matrix
    # through; a 0 x 0 one has no trace to scale the ridge by
    @pytest.mark.parametrize("bad", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
    @pytest.mark.parametrize(
        "call",
        [
            lambda m: correlation_distance(m, m),
            lambda m: shrink(m, 0.1),
            lambda m: spd_power(m, 0.5),
        ],
        ids=["correlation_distance", "shrink", "spd_power"],
    )
    def test_empty_or_non_finite_rejected(self, call, bad):
        with pytest.raises(
            InvalidInput, match=r"must be a non-empty 2-D array, got shape \(0, 0\)$|contains non-finite entries$"
        ):
            call(bad)


class TestCovarianceAccumulator:
    def test_single_batch_equals_covariance(self, rng):
        z = rng.standard_normal((25, 4))
        acc = CovarianceAccumulator(4).update(z)
        mean, sigma = acc.finalize()
        mean_ref, sigma_ref = covariance(z)
        assert np.allclose(mean, mean_ref, rtol=1e-12)
        assert np.allclose(sigma, sigma_ref, rtol=1e-12)

    def test_one_eight_rest_partition_matches_batch_oracle(self, rng):
        z = rng.standard_normal((40, 3)) * 5 + 2
        acc = CovarianceAccumulator(3)
        acc.update(z[:1])
        acc.update(z[1:9])
        acc.update(z[9:])
        mean, sigma = acc.finalize()
        mean_ref, sigma_ref = covariance(z)
        assert np.linalg.norm(mean - mean_ref) <= 1e-10 * max(1.0, np.linalg.norm(mean_ref))
        assert np.linalg.norm(sigma - sigma_ref) <= 1e-10 * np.linalg.norm(sigma_ref)

    @pytest.mark.parametrize("dim", [0, 2.5, "3", None])
    def test_bad_dimension_rejected(self, dim):
        # 2.5 used to become a 2-dimensional accumulator, "3" a bare TypeError
        with pytest.raises(InvalidInput, match="dimension must be an integer >= 1"):
            CovarianceAccumulator(dim)

    def test_empty_finalize_rejected(self):
        with pytest.raises(InsufficientSamples):
            CovarianceAccumulator(2).finalize()

    def test_single_row_finalize_rejected(self):
        acc = CovarianceAccumulator(2).update([[1.0, 2.0]])
        with pytest.raises(InsufficientSamples):
            acc.finalize()

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInput, match="^batch dimension 2 does not match accumulator dimension 3$"):
            CovarianceAccumulator(3).update([[1.0, 2.0]])

    def test_random_partitions_match_batch(self, rng):
        z = rng.standard_normal((120, 6)) * 3
        _, sigma_ref = covariance(z)
        for _ in range(15):
            cuts = np.sort(rng.choice(np.arange(1, 120), size=int(rng.integers(0, 8)), replace=False))
            acc = CovarianceAccumulator(6)
            for part in np.split(z, cuts):
                if len(part):
                    acc.update(part)
            _, sigma = acc.finalize()
            assert np.linalg.norm(sigma - sigma_ref) <= 1e-10 * np.linalg.norm(sigma_ref)

    def test_overflowing_merge_rejected_and_state_kept(self):
        # each batch's scatter is 3.2e307; five sum to a finite 1.6e308, six to
        # 1.92e308, beyond the float64 maximum
        acc = CovarianceAccumulator(1)
        for _ in range(5):
            acc.update([[8e153], [0.0]])
        count, mean, scatter = acc.count, acc.mean.copy(), acc.scatter.copy()
        with pytest.raises(InvalidInput, match=r"overflows float64 \(largest .* 8e\+153\); rescale"):
            acc.update([[8e153], [0.0]])
        assert acc.count == count
        assert np.array_equal(acc.mean, mean) and np.array_equal(acc.scatter, scatter)

    def test_merge_matches_sequential(self, rng):
        z = rng.standard_normal((60, 3))
        left = CovarianceAccumulator(3).update(z[:20])
        right = CovarianceAccumulator(3).update(z[20:])
        left.merge(right)
        mean, sigma = left.finalize()
        mean_ref, sigma_ref = covariance(z)
        assert np.allclose(mean, mean_ref, rtol=1e-11)
        assert np.linalg.norm(sigma - sigma_ref) <= 1e-10 * np.linalg.norm(sigma_ref)

    def test_merge_associativity(self, rng):
        z = rng.standard_normal((30, 2))
        parts = [z[:5], z[5:12], z[12:]]

        def build(order):
            accs = [CovarianceAccumulator(2).update(p) for p in parts]
            merged = accs[order[0]]
            for i in order[1:]:
                merged.merge(accs[i])
            return merged.finalize()

        _, sig_a = build([0, 1, 2])
        # merging (1, 2) first then 0 reaches the same totals
        acc_bc = CovarianceAccumulator(2).update(parts[1]).merge(
            CovarianceAccumulator(2).update(parts[2])
        )
        acc_a = CovarianceAccumulator(2).update(parts[0]).merge(acc_bc)
        _, sig_b = acc_a.finalize()
        assert np.linalg.norm(sig_a - sig_b) <= 1e-10 * np.linalg.norm(sig_a)

    def test_scatter_stays_symmetric(self, rng):
        acc = CovarianceAccumulator(4)
        for _ in range(10):
            acc.update(rng.standard_normal((int(rng.integers(1, 7)), 4)) * 100)
        assert np.array_equal(acc.scatter, acc.scatter.T)

    def test_merge_into_empty_copies_the_other_moments(self, rng):
        other = CovarianceAccumulator(3).update(rng.standard_normal((5, 3)))
        acc = CovarianceAccumulator(3).merge(other)
        assert acc.count == other.count
        assert acc.mean is not other.mean and acc.scatter is not other.scatter
        assert np.array_equal(acc.mean, other.mean) and np.array_equal(acc.scatter, other.scatter)


class TestExactSymmetry:
    """Moments are symmetric by construction: the scatter is one product of a
    matrix with its own transpose, and pooling only adds symmetric terms, so
    no symmetrization runs on them."""

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n, d", [(2, 1), (7, 5), (300, 64), (40, 130)])
    def test_moments_and_covariance(self, rng, layout, n, d):
        z = laid_out(rng, n, d, layout, scale=30.0)
        _, _, scatter = _moments(z)
        _, sigma = covariance(z)
        assert np.array_equal(scatter, scatter.T)
        assert np.array_equal(sigma, sigma.T)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_accumulator_after_update_and_merge(self, rng, layout):
        z = laid_out(rng, 90, 9, layout, scale=10.0)
        acc = CovarianceAccumulator(9)
        for part in (z[:1], z[1:30], z[30:]):
            acc.update(part)
            assert np.array_equal(acc.scatter, acc.scatter.T)
        acc.merge(CovarianceAccumulator(9).update(laid_out(rng, 40, 9, layout, scale=0.1)))
        _, sigma = acc.finalize()
        assert np.array_equal(acc.scatter, acc.scatter.T)
        assert np.array_equal(sigma, sigma.T)

    def test_pooling_keeps_odd_subnormal_entries(self):
        # halving 3 x the smallest subnormal rounds it to even, so symmetrizing
        # this matrix would change it; pooling it with a same-mean empty scatter
        # adds exact zeros and must return it unchanged
        tiny = 5e-324
        s = np.array([[3 * tiny, tiny], [tiny, 5 * tiny]])
        assert not np.array_equal(s / 2 + (s / 2).T, s)
        mean = np.array([1.0, -2.0])
        count, pooled_mean, scatter = _pooled((2, mean, s), (3, mean.copy(), np.zeros((2, 2))))
        assert count == 5 and np.array_equal(pooled_mean, mean)
        assert np.array_equal(scatter, s)

    def test_spd_power_symmetrizes_a_nearly_symmetric_input_first(self, rng):
        # spd_power accepts asymmetry within SYMMETRY_ATOL x max|entry|; it
        # returns the bits of symmetrizing first and then calling it
        for d in (2, 5, 16):
            s = make_spd(rng, d)
            a = s + np.triu(rng.uniform(-4e-10, 4e-10, (d, d)), 1) * np.abs(s).max()
            assert not np.array_equal(a, a.T)
            for p in (0.5, -0.5, 1.0):
                assert np.array_equal(spd_power(a, p), spd_power((a + a.T) / 2, p))


def _power_without_eigh(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", fail)
    return spd_power(np.eye(2), 0.5)


@pytest.mark.parametrize(
    "call, error, pattern",
    [
        (lambda mp: covariance([1.0, 2.0]), InvalidInput, r"^embeddings must be a non-empty 2-D array, got shape \(2,\)$"),
        (
            lambda mp: covariance(np.empty((0, 2))),
            InvalidInput,
            r"^embeddings must be a non-empty 2-D array, got shape \(0, 2\)$",
        ),
        (
            _power_without_eigh,
            NumericalFailure,
            r"^eigendecomposition did not converge: Eigenvalues did not converge$",
        ),
        (
            lambda mp: CovarianceAccumulator(2).merge(CovarianceAccumulator(3)),
            InvalidInput,
            r"^cannot merge accumulators of dimension 3 and 2$",
        ),
    ],
    ids=["not-2d", "empty", "eigh-fails", "merge-dimension"],
)
def test_rejections(monkeypatch, call, error, pattern):
    with pytest.raises(error, match=pattern):
        call(monkeypatch)


@pytest.mark.parametrize("rows", [[[1.0, 2.0], [3.0, 5.0]], None], ids=["into-filled", "into-empty"])
def test_merging_an_empty_accumulator_changes_nothing(rows):
    acc = CovarianceAccumulator(2)
    if rows is not None:
        acc.update(rows)
    count, mean, scatter = acc.count, acc.mean.copy(), acc.scatter.copy()
    assert acc.merge(CovarianceAccumulator(2)) is acc
    assert acc.count == count
    assert np.array_equal(acc.mean, mean) and np.array_equal(acc.scatter, scatter)
