import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from tcalign import (
    InsufficientSamples,
    InvalidInput,
    batch_uncertainties,
    covariance,
    most_certain,
)
from tcalign.pseudo_source import _class_quotas, _most_certain


def uncertainty(p) -> float:
    """Score one probability row through the batch scorer."""
    (w,) = batch_uncertainties([p])
    return float(w)


class TestUncertainty:
    def test_one_hot_input_is_certain(self):
        assert uncertainty([0.0, 1.0, 0.0]) == 0.0

    def test_uniform_ten_classes(self):
        # closed form 1 - 1/c
        assert uncertainty(np.full(10, 0.1)) == pytest.approx(0.9, rel=1e-12)

    def test_direct_formula(self):
        assert uncertainty([0.7, 0.2, 0.1]) == pytest.approx(0.14, rel=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidInput):
            uncertainty([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(InvalidInput):
            uncertainty([-0.1, 1.1])

    def test_rejects_nan(self):
        with pytest.raises(InvalidInput):
            uncertainty([np.nan, 1.0])
        with pytest.raises(InvalidInput):
            batch_uncertainties([[0.5, 0.5], [np.nan, np.nan]])

    def test_range(self, rng):
        for _ in range(200):
            c = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(c))
            w = uncertainty(p)
            assert 0.0 <= w < 2.0

    def test_decreasing_in_top_probability(self):
        # raise p[argmax], shrink the rest proportionally: uncertainty must drop
        rest = np.array([0.3, 0.2, 0.1])
        prev = None
        for top in (0.4, 0.55, 0.7, 0.85, 0.99):
            p = np.concatenate([[top], rest / rest.sum() * (1 - top)])
            w = uncertainty(p)
            if prev is not None:
                assert w < prev
            prev = w

    def test_batch_matches_scalar(self, rng):
        # reference: squared distance from each row to the one-hot of its argmax
        probs = rng.dirichlet(np.ones(5), size=50)
        batch = batch_uncertainties(probs)
        for i, p in enumerate(probs):
            diff = np.eye(5)[np.argmax(p)] - p
            assert batch[i] == pytest.approx(diff @ diff, abs=1e-14)


class TestOneHot:
    """The one-hot target of the uncertainty score, seen through the batch scorer."""

    def test_unique_max(self):
        # distance to the one-hot of the argmax: 0.1^2 + 0.2^2 + 0.1^2
        assert uncertainty([0.1, 0.8, 0.1]) == pytest.approx(0.06, rel=1e-12)

    def test_single_class(self):
        assert uncertainty([1.0]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            batch_uncertainties(np.empty((1, 0)))

    def test_zero_rows_give_an_empty_vector(self):
        # as most_certain takes zero candidates; np.min of no rows used to raise a bare ValueError
        out = batch_uncertainties(np.empty((0, 3)))
        assert out.shape == (0,) and out.dtype == np.float64


def fold(omegas, k, order, batch_size=1, classes=None):
    """Stream rows in ``order`` through a bounded index bank, as online mode does."""
    omegas = np.asarray(omegas, dtype=float)
    bank = np.empty(0, dtype=np.int64)
    for lo in range(0, len(order), batch_size):
        bank = np.concatenate([bank, np.asarray(order[lo : lo + batch_size], dtype=np.int64)])
        per_class = None if classes is None else np.asarray(classes)[bank]
        bank = most_certain(omegas[bank], k, bank, per_class)
    return bank


class TestBank:
    def test_under_capacity_keeps_all(self):
        assert most_certain([0.5, 0.2], 3).tolist() == [0, 1]

    def test_eviction_keeps_k_lowest(self):
        assert fold([0.5, 0.3, 0.4], 2, range(3)).tolist() == [1, 2]

    def test_tie_keeps_first_arrival(self):
        assert fold([0.3, 0.3], 1, range(2)).tolist() == [0]
        assert most_certain([0.3, 0.3], 1, rows=[7, 4]).tolist() == [4]

    def test_streaming_equals_offline_selection(self, rng):
        # brute-force oracle: k smallest by (uncertainty, arrival) over the stream
        for trial in range(50):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(1, 12))
            omegas = np.round(rng.uniform(0, 1.9, size=n), 2)  # coarse grid forces ties
            classes = rng.integers(0, 3, size=n)
            batch_size = int(rng.integers(1, 10))
            got = fold(omegas, k, range(n), batch_size).tolist()
            expected = sorted(sorted(range(n), key=lambda i: (omegas[i], i))[: min(k, n)])
            assert got == expected, f"trial {trial}: {got} != {expected}"
            got = fold(omegas, k, range(n), batch_size, classes).tolist()
            expected = sorted(
                i
                for c in range(3)
                for i in sorted(np.flatnonzero(classes == c), key=lambda i: (omegas[i], i))[:k]
            )
            assert got == expected, f"trial {trial} per class: {got} != {expected}"

    def test_global_kernel_matches_plain_lexsort_under_ties(self, rng):
        # the kernel drops rows above the k-th smallest uncertainty before it
        # sorts; every tie at the k-th value stays, so the lower rows still win
        for _ in range(200):
            n = int(rng.integers(1, 60))
            u = rng.integers(0, 4, size=n) / 4.0
            rows = rng.permutation(3 * n)[:n]
            for k in {1, 2, n // 2 + 1, max(n - 1, 1), n, n + 3}:
                expected = np.sort(rows[np.lexsort((rows, u))[:k]])
                assert np.array_equal(_most_certain(u, k, rows), expected)

    def test_invalid_uncertainty_rejected(self):
        with pytest.raises(InvalidInput):
            most_certain([2.0], 1)
        with pytest.raises(InvalidInput):
            most_certain([-0.1], 1)
        with pytest.raises(InvalidInput):
            most_certain([np.nan], 1)
        with pytest.raises(InvalidInput):
            most_certain([0.1], 0)

    @pytest.mark.parametrize("k", [2.0, 2.5, "2", None])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InvalidInput, match="k must be an integer"):
            most_certain(np.array([0.1, 0.2, 0.3]), k)
        with pytest.raises(InvalidInput, match="k must be an integer"):
            most_certain(np.array([0.1, 0.2, 0.3]), k, classes=[0, 1, 0])

    def test_numpy_integer_k_accepted(self):
        assert most_certain([0.3, 0.1, 0.2], np.int64(2)).tolist() == [1, 2]
        assert most_certain([0.3, 0.1, 0.2], np.int32(1), classes=[0, 0, 1]).tolist() == [1, 2]


def capped(uncertainty, caps, classes, rows=None) -> np.ndarray:
    """The kernel's selection of the ``caps[j]`` most certain candidates of each
    class j, as the adapt loop calls it with its int64 quotas."""
    uncertainty = np.asarray(uncertainty, dtype=np.float64)
    rows = np.arange(uncertainty.size) if rows is None else np.asarray(rows, dtype=np.int64)
    caps, classes = np.asarray(caps, dtype=np.int64), np.asarray(classes, dtype=np.int64)
    return _most_certain(uncertainty, caps, rows, classes)


class TestPerClassCaps:
    def test_cap_beyond_candidates_keeps_class_without_redistribution(self):
        u, classes = [0.1, 0.2, 0.3, 0.4], [0, 0, 1, 1]
        assert capped(u, [5, 1], classes).tolist() == [0, 1, 2]
        # class 0's unused cap does not move to class 1
        assert capped(u, [0, 1], classes).tolist() == [2]

    def test_caps_index_classes_and_honor_rows(self):
        # entry j caps class j; ties go to the lower row name
        got = capped([0.2, 0.2, 0.1, 0.5], [1, 0, 2], [0, 0, 2, 2], rows=[9, 4, 7, 1])
        assert got.tolist() == [1, 4, 7]

    @pytest.mark.parametrize(
        "caps",
        [[1, -1], [1.0, 1.0], [[1, 1]], [1], np.array([1.5, 2.0]), np.array([1, 1]),
         [[1], 1], [None, 1], [1 + 0.5j, 1], ["1", "1"]],
        ids=["negative", "float", "2-d", "too-short", "fraction", "integers",
             "ragged", "none", "complex", "strings"],
    )
    def test_bad_caps_rejected(self, caps):
        # most_certain takes one k for every class; per-class caps are the kernel's
        with pytest.raises(InvalidInput, match=r"^k must be an integer >= 1, got "):
            most_certain([0.1, 0.2, 0.3], caps, classes=[0, 1, 1])


class TestPseudoStats:
    def test_mirrors_covariance_example(self):
        z = np.array([[1.0, 0.0], [-1.0, 0.0]])
        mu, sigma = covariance(z[most_certain([0.1, 0.1], 5)])
        assert np.array_equal(mu, [0.0, 0.0])
        assert np.array_equal(sigma, [[2.0, 0.0], [0.0, 0.0]])

    def test_identical_embeddings_zero_covariance(self):
        z = np.tile([3.0, -2.0], (4, 1))
        _, sigma = covariance(z[most_certain(np.full(4, 0.1), 5)])
        assert np.array_equal(sigma, np.zeros((2, 2)))

    def test_full_test_set_matches_direct_covariance(self, rng):
        z = rng.standard_normal((20, 3))
        rows = most_certain(np.full(20, 0.5), 50)
        mu, sigma = covariance(z[rows])
        mu_ref, sigma_ref = covariance(z)
        assert np.array_equal(mu, mu_ref)
        assert np.array_equal(sigma, sigma_ref)

    def test_insertion_order_invariance(self, rng):
        z = rng.standard_normal((10, 2))
        omegas = rng.uniform(0, 1, size=10)
        banks = [fold(omegas, 6, perm) for perm in (np.arange(10), rng.permutation(10))]
        assert np.array_equal(banks[0], banks[1])
        s0 = covariance(z[banks[0]])[1]
        s1 = covariance(z[banks[1]])[1]
        assert np.array_equal(s0, s1)

    def test_too_few_entries_rejected(self):
        z = np.zeros((1, 2))
        with pytest.raises(InsufficientSamples):
            covariance(z[most_certain([0.1], 5)])


def quota_oracle(counts, k):
    """All integer allocations summing to k that minimize the squared deviation
    from the exact proportional quotas."""
    counts = np.asarray(counts, dtype=float)
    exact = k * counts / counts.sum()
    c = len(counts)
    best, best_val = [], None
    for combo in itertools.product(range(k + 1), repeat=c):
        if sum(combo) != k:
            continue
        val = sum((q - e) ** 2 for q, e in zip(combo, exact))
        if best_val is None or val < best_val - 1e-12:
            best, best_val = [combo], val
        elif abs(val - best_val) <= 1e-12:
            best.append(combo)
    return best


def arrays(omegas_by_class):
    """Uncertainty and class vectors, classes arriving one after another."""
    omegas = [w for ws in omegas_by_class.values() for w in ws]
    classes = [cls for cls, ws in omegas_by_class.items() for _ in ws]
    return np.asarray(omegas, dtype=float), np.asarray(classes)


def int64_quotas(counts, slots: int) -> np.ndarray:
    """The kernel's quotas of ``counts`` (entry j counts class j) as an int64 vector."""
    return _class_quotas(np.asarray(counts, dtype=np.int64), slots)


class TestLargestRemainder:
    def test_quotas_sum_to_slots(self, rng):
        cases = [(np.ones(c, dtype=int), 1) for c in (1, 2, 7, 100)]
        cases.append((rng.integers(1, 1000, size=100), 1024))
        for trial in range(500):
            c = int(rng.integers(1, 120))
            high = 50 if trial % 2 else 5  # small counts tie often
            counts = rng.integers(0, high, size=c)
            counts[rng.integers(c)] += 1  # at least one counted row
            cases.append((counts, int(rng.integers(0, 2048))))
        for counts, slots in cases:
            quotas = int64_quotas(counts, slots)
            assert int(quotas.sum()) == slots
            assert quotas.min() >= 0
            assert np.all(quotas[counts == 0] == 0)
            # no quota exceeds its proportional share rounded up
            assert np.all(quotas <= np.ceil(slots * counts / counts.sum()))

    def test_matches_exact_fraction_reference(self):
        # remainders are compared exactly, so equal remainders tie and the
        # rule (larger count, then lower class) decides: 1/3 each for [1, 1, 4]
        assert int64_quotas([1, 1, 4], 2).tolist() == [0, 0, 2]
        for counts in itertools.product(range(9), repeat=3):
            if sum(counts) == 0:
                continue
            for slots in range(1, 12):
                exact = [Fraction(count * slots, sum(counts)) for count in counts]
                want = [math.floor(e) for e in exact]
                by_remainder = sorted(range(3), key=lambda j: (want[j] - exact[j], -counts[j], j))
                for j in by_remainder[: slots - sum(want)]:
                    want[j] += 1
                assert int64_quotas(counts, slots).tolist() == want, (counts, slots)

    def test_zero_count_class_matches_filtered_vector(self):
        # a zero-count class takes no slot, so it leaves the other quotas as they were
        assert int64_quotas([5, 0, 3, 0, 2], 5).tolist() == [3, 0, 1, 0, 1]
        assert int64_quotas([5, 3, 2], 5).tolist() == [3, 1, 1]


def balanced_select(omegas, classes, k, counts):
    """Class-proportional selection: the kernel's quotas over
    min(k, n) slots, then the most certain candidates of each class."""
    return capped(omegas, int64_quotas(counts, min(k, len(omegas))), classes)


def loop_capped_select(omegas, classes, caps):
    """Row-by-row reference for per-class caps: per-class queues in
    (uncertainty, row) order, each cut at its class's cap."""
    key = lambda i: (omegas[i], i)
    queues = [sorted((i for i in range(len(omegas)) if classes[i] == j), key=key) for j in range(len(caps))]
    return sorted(i for queue, cap in zip(queues, caps) for i in queue[:cap])


class TestClassBalancedSelect:
    def test_matches_loop_reference(self, rng):
        for trial in range(400):
            n, c = int(rng.integers(1, 80)), int(rng.integers(1, 6))
            omegas = np.round(rng.uniform(0, 1.9, size=n), 1)  # coarse grid forces ties
            classes = rng.integers(0, c, size=n)
            caps = rng.integers(0, 30, size=c + int(rng.integers(0, 3)))  # extra caps name absent classes
            got = capped(omegas, caps, classes)
            assert got.tolist() == loop_capped_select(omegas, classes, caps), trial
            counts = np.bincount(classes, minlength=c)
            k = int(rng.integers(1, 30))
            got = balanced_select(omegas, classes, k, counts)
            assert got.tolist() == loop_capped_select(omegas, classes, int64_quotas(counts, min(k, n))), trial

    def test_single_class_equals_global_topk(self):
        omegas, classes = arrays({0: [0.5, 0.1, 0.3, 0.2]})
        rows = balanced_select(omegas, classes, 2, [4])
        assert sorted(omegas[rows]) == [0.1, 0.2]
        assert rows.tolist() == most_certain(omegas, 2).tolist()

    def test_equal_counts_split_evenly(self):
        omegas, classes = arrays({0: [0.4, 0.1, 0.3], 1: [0.2, 0.5, 0.05]})
        rows = balanced_select(omegas, classes, 4, [3, 3])
        assert sorted(omegas[rows[classes[rows] == 0]]) == [0.1, 0.3]
        assert sorted(omegas[rows[classes[rows] == 1]]) == [0.05, 0.2]

    def test_largest_remainder_matches_enumeration_oracle(self):
        counts, k = (5, 3, 2), 5
        quotas = tuple(int64_quotas(counts, k).tolist())
        assert quotas in set(map(tuple, quota_oracle(counts, k)))
        # deterministic tie-break: higher class count wins the leftover slot
        assert quotas == (3, 1, 1)
        omegas, classes = arrays({0: [0.1] * 5, 1: [0.2] * 3, 2: [0.3] * 2})
        rows = balanced_select(omegas, classes, k, counts)
        assert np.bincount(classes[rows], minlength=3).tolist() == [3, 1, 1]

    def test_quota_oracle_on_random_instances(self, rng):
        for _ in range(25):
            c = int(rng.integers(2, 5))
            counts = rng.integers(1, 9, size=c)
            k = int(rng.integers(1, counts.sum() + 1))
            quotas = tuple(int64_quotas(counts, k).tolist())
            assert sum(quotas) == min(k, int(counts.sum()))
            assert quotas in set(map(tuple, quota_oracle(counts, k)))
            omegas = {j: list(rng.uniform(0, 1, size=counts[j])) for j in range(c)}
            u, classes = arrays(omegas)
            rows = balanced_select(u, classes, k, counts)
            assert tuple(np.bincount(classes[rows], minlength=c).tolist()) == quotas

    def test_selection_size_capped_by_entries(self):
        rows = balanced_select(*arrays({0: [0.1, 0.2]}), 10, [2])
        assert len(rows) == 2

    def test_within_class_lowest_uncertainty_wins(self, rng):
        omegas = {0: list(rng.uniform(0, 1, size=8)), 1: list(rng.uniform(0, 1, size=8))}
        u, classes = arrays(omegas)
        rows = balanced_select(u, classes, 4, [8, 8])
        for cls in (0, 1):
            chosen = sorted(u[rows[classes[rows] == cls]])
            assert chosen == sorted(omegas[cls])[:2]


@pytest.mark.parametrize(
    "uncertainty, rows, classes, pattern",
    [
        ([[0.1, 0.2]], None, None, r"^uncertainties must be a 1-D vector$"),
        ([0.1, 0.2], [0], None, r"^1 row indices for 2 uncertainties$"),
        ([0.1, 0.2], None, [0], r"^1 predicted classes for 2 uncertainties$"),
        ([0.1, 0.2], None, [0, -1], r"^predicted classes must be nonnegative$"),
    ],
    ids=["uncertainty-not-1d", "row-count", "class-count", "negative-class"],
)
def test_candidates_rejected(uncertainty, rows, classes, pattern):
    with pytest.raises(InvalidInput, match=pattern):
        most_certain(uncertainty, 1, rows=rows, classes=classes)


@pytest.mark.parametrize(
    "rows, classes, pattern",
    [
        ([0.5, 1.5, 2.9], None, r"^rows must be integers$"),
        ([0, 1, np.nan], None, r"^rows must be integers$"),
        ([0, 1, 2 + 0j], None, r"^rows must be real, got complex values$"),
        (None, [0.2, 1.7, 1.2], r"^classes must be integers$"),
        (None, [0, 1, np.inf], r"^classes must be integers$"),
        (None, [0, 1, 1 + 0j], r"^classes must be real, got complex values$"),
    ],
    ids=["fractional-rows", "nan-row", "complex-row", "fractional-classes", "infinite-class", "complex-class"],
)
def test_non_integer_rows_or_classes_rejected(rows, classes, pattern):
    # both used to be cast to int64, so rows [0.5, 1.5, 2.9] came back as
    # [1 2] and classes [0.2, 1.7, 1.2] were read as [0, 1, 1]; they share the
    # integer rule that labels follow
    with pytest.raises(InvalidInput, match=pattern):
        most_certain([0.3, 0.1, 0.2], 2, rows=rows, classes=classes)
