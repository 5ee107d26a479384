import math

import numpy as np
import pytest

from tcalign import (
    AdaptConfig,
    InsufficientSamples,
    InvalidConfig,
    InvalidInput,
    SoftmaxHead,
    adapt_online,
    adapt_transductive,
    covariance,
    gen_linear_shift,
    predict,
    train_head,
    validate_alignment_trace,
    validate_uncertainty_groups,
)
from conftest import streamed_pseudo_source


@pytest.fixture(scope="module")
def linear_demo():
    data = gen_linear_shift(0)
    head = train_head(data.source.features, data.source.labels, lr=0.1, epochs=2000)
    return data, head


class TestAdaptTransductive:
    def test_full_bank_reduces_to_unadapted(self, linear_demo):
        data, head = linear_demo
        test = data.target.features
        cfg = AdaptConfig(k=len(test))
        preds, report, transform = adapt_transductive(test, head, cfg, labels=data.target.labels)
        baseline = predict(head, test)
        assert np.max(np.abs(preds.probs - baseline.probs)) <= 1e-8
        assert np.array_equal(preds.argmax, baseline.argmax)
        assert report.accuracy_after == report.accuracy_before
        assert np.linalg.norm(transform.w - np.eye(2)) <= 1e-8

    def test_linear_shift_demo_improves(self, linear_demo):
        data, head = linear_demo
        preds, report, _ = adapt_transductive(
            data.target.features,
            head,
            AdaptConfig(),
            labels=data.target.labels,
        )
        assert report.accuracy_after >= report.accuracy_before
        assert report.dist_test_to_pseudo_after < report.dist_test_to_pseudo_before

    def test_single_row_rejected(self, linear_demo):
        _, head = linear_demo
        with pytest.raises(InsufficientSamples):
            adapt_transductive(np.array([[1.0, 2.0]]), head, AdaptConfig())

    def test_small_k_rejected(self, linear_demo):
        data, head = linear_demo
        with pytest.raises(InvalidConfig):
            adapt_transductive(data.target.features, head, AdaptConfig(k=1))

    def test_report_ranges(self, linear_demo):
        data, head = linear_demo
        mu_sigma = covariance(data.source.features)
        _, report, _ = adapt_transductive(
            data.target.features,
            head,
            AdaptConfig(),
            labels=data.target.labels,
            source_stats=mu_sigma,
        )
        assert 0.0 <= report.accuracy_before <= 1.0
        assert 0.0 <= report.accuracy_after <= 1.0
        for value in (
            report.dist_test_to_pseudo_before,
            report.dist_test_to_pseudo_after,
            report.dist_test_to_source_before,
            report.dist_test_to_source_after,
            report.dist_pseudo_to_source,
        ):
            assert value >= 0.0
        assert report.n == 750 and report.d == 2 and report.c == 3

    def test_triangle_inequality_on_report(self, linear_demo):
        # sqrt converts the squared-norm distances back to the underlying norm
        data, head = linear_demo
        source_stats = covariance(data.source.features)
        for cfg in (AdaptConfig(), AdaptConfig(selection_mode="class_balanced"), AdaptConfig(k=100)):
            _, report, _ = adapt_transductive(
                data.target.features, head, cfg, source_stats=source_stats
            )
            lhs = math.sqrt(report.dist_test_to_source_before)
            rhs = math.sqrt(report.dist_test_to_pseudo_before) + math.sqrt(
                report.dist_pseudo_to_source
            )
            assert lhs <= rhs + 1e-9

    def test_class_balanced_mode_runs(self, linear_demo):
        data, head = linear_demo
        preds, report, _ = adapt_transductive(
            data.target.features,
            head,
            AdaptConfig(selection_mode="class_balanced"),
            labels=data.target.labels,
        )
        assert preds.probs.shape == (750, 3)
        assert not report.selection_fallback

    def test_gradient_solver_records_trace(self, rng):
        # O(1)-scale covariances keep the 1e-3 step stable
        z = rng.standard_normal((120, 3))
        head = SoftmaxHead(weight=rng.standard_normal((3, 3)), bias=np.zeros(3))
        cfg = AdaptConfig(k=20, solver="gradient", max_iters=300)
        _, report, _ = adapt_transductive(z, head, cfg)
        assert report.solver_trace is not None
        assert report.solver_trace.objective_values[-1] <= report.solver_trace.objective_values[0]

    def test_report_dict_is_json_ready(self, linear_demo):
        import json

        data, head = linear_demo
        _, report, _ = adapt_transductive(data.target.features, head, AdaptConfig())
        text = json.dumps(report.to_dict())
        assert "dist_test_to_pseudo_before" in text


class TestAdaptOnline:
    def test_single_batch_matches_transductive(self, linear_demo):
        data, head = linear_demo
        test = data.target.features
        cfg = AdaptConfig(mode="online", batch_size=len(test))
        online_preds, online_report = adapt_online(test, head, cfg, labels=data.target.labels)
        trans_preds, trans_report, _ = adapt_transductive(
            test, head, AdaptConfig(), labels=data.target.labels
        )
        assert np.max(np.abs(online_preds.probs - trans_preds.probs)) <= 1e-10
        assert online_report.unadapted_batches == 0
        assert online_report.accuracy_after == trans_report.accuracy_after

    def test_final_statistics_match_across_partitions(self, linear_demo):
        data, head = linear_demo
        test = data.target.features
        _, sigma_ref = covariance(test)
        for batch_size in (1, 8, 64, 750):
            cfg = AdaptConfig(mode="online", batch_size=batch_size)
            _, report = adapt_online(test, head, cfg)
            # report distances derive from the final accumulated statistics;
            # check those statistics directly through the accumulator
            from tcalign import CovarianceAccumulator

            acc = CovarianceAccumulator(2)
            for lo in range(0, len(test), batch_size):
                acc.update(test[lo : lo + batch_size])
            _, sigma = acc.finalize()
            assert np.linalg.norm(sigma - sigma_ref) <= 1e-10 * np.linalg.norm(sigma_ref)

    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    def test_final_bank_identical_across_batch_sizes(self, linear_demo, selection_mode):
        data, head = linear_demo
        test = data.target.features
        banks = []
        for batch_size in (1, 8, 64, 750):
            cfg = AdaptConfig(mode="online", batch_size=batch_size, selection_mode=selection_mode)
            banks.append(streamed_pseudo_source(test, head, cfg))
        assert banks[0] == banks[1] == banks[2] == banks[3]

    def test_cold_start_flagged_for_unit_batches(self, linear_demo):
        data, head = linear_demo
        cfg = AdaptConfig(mode="online", batch_size=1)
        _, report = adapt_online(data.target.features[:50], head, cfg, labels=data.target.labels[:50])
        assert report.unadapted_batches == 1  # only the very first instance

    def test_no_cold_start_for_batches_of_two_plus(self, linear_demo):
        data, head = linear_demo
        cfg = AdaptConfig(mode="online", batch_size=2)
        _, report = adapt_online(data.target.features[:40], head, cfg)
        assert report.unadapted_batches == 0

    def test_class_balanced_online_single_batch_matches_transductive(self, linear_demo):
        data, head = linear_demo
        test = data.target.features
        cfg = AdaptConfig(mode="online", batch_size=len(test), selection_mode="class_balanced")
        online_preds, _ = adapt_online(test, head, cfg)
        trans_preds, _, _ = adapt_transductive(
            test, head, AdaptConfig(selection_mode="class_balanced")
        )
        assert np.max(np.abs(online_preds.probs - trans_preds.probs)) <= 1e-10


class TestUncertaintyGroups:
    def test_exact_split(self, rng):
        z = rng.standard_normal((20, 2))
        head = SoftmaxHead(weight=rng.standard_normal((3, 2)), bias=np.zeros(3))
        stats = covariance(rng.standard_normal((30, 2)))
        rows = validate_uncertainty_groups(z, head, stats, n_groups=10)
        assert len(rows) == 10
        assert [r.group_index for r in rows] == list(range(10))

    def test_remainder_joins_last_group(self, rng):
        z = rng.standard_normal((23, 2))
        head = SoftmaxHead(weight=rng.standard_normal((3, 2)), bias=np.zeros(3))
        stats = covariance(rng.standard_normal((30, 2)))
        rows = validate_uncertainty_groups(z, head, stats, n_groups=5)
        assert len(rows) == 5

    def test_uniform_predictions_still_wellformed(self, rng):
        z = rng.standard_normal((20, 2))
        head = SoftmaxHead(weight=np.zeros((3, 2)), bias=np.zeros(3))  # all rows identical probs
        stats = covariance(rng.standard_normal((30, 2)))
        rows = validate_uncertainty_groups(z, head, stats, n_groups=4)
        uncertainties = {round(r.mean_uncertainty, 12) for r in rows}
        assert len(uncertainties) == 1
        assert all(r.dist_to_source >= 0 for r in rows)

    def test_too_small_groups_rejected(self, rng):
        z = rng.standard_normal((10, 2))
        head = SoftmaxHead(weight=np.zeros((2, 2)), bias=np.zeros(2))
        stats = covariance(rng.standard_normal((5, 2)))
        with pytest.raises(InvalidConfig):
            validate_uncertainty_groups(z, head, stats, n_groups=8)

    def test_mean_uncertainty_non_decreasing_across_groups(self, linear_demo):
        data, head = linear_demo
        stats = covariance(data.source.features)
        rows = validate_uncertainty_groups(data.target.features, head, stats, n_groups=5)
        uncertainties = [r.mean_uncertainty for r in rows]
        assert all(b >= a for a, b in zip(uncertainties, uncertainties[1:]))


class TestAlignmentTrace:
    def test_degenerate_full_bank_trace_is_flat(self, linear_demo):
        data, head = linear_demo
        test = data.target.features
        stats = covariance(data.source.features)
        cfg = AdaptConfig(k=len(test), solver="gradient", max_iters=50)
        result = validate_alignment_trace(
            test, head, cfg, stats, data.target.labels, record_every=10
        )
        pseudo_dists = [r.dist_to_pseudo for r in result.rows]
        accs = [r.accuracy for r in result.rows]
        assert max(pseudo_dists) - min(pseudo_dists) <= 1e-10
        assert len(set(accs)) == 1

    def test_real_trace_decreases_pseudo_distance(self, rng):
        # unit-scale synthetic cloud keeps the fixed step stable
        z = rng.standard_normal((200, 2)) @ np.array([[1.0, 0.3], [0.0, 0.8]]) + 1.0
        head = SoftmaxHead(weight=rng.standard_normal((3, 2)) * 2, bias=np.zeros(3))
        labels = rng.integers(0, 3, size=200)
        stats = covariance(rng.standard_normal((50, 2)))
        cfg = AdaptConfig(k=20, solver="gradient", max_iters=400)
        result = validate_alignment_trace(z, head, cfg, stats, labels, record_every=20)
        assert result.rows[0].iteration == 0
        dp = [r.dist_to_pseudo for r in result.rows]
        assert dp[-1] < dp[0]
        iterations = [r.iteration for r in result.rows]
        assert iterations == sorted(iterations)

    def test_requires_gradient_solver(self, linear_demo):
        data, head = linear_demo
        stats = covariance(data.source.features)
        with pytest.raises(InvalidConfig):
            validate_alignment_trace(
                data.target.features,
                head,
                AdaptConfig(solver="closed"),
                stats,
                data.target.labels,
            )

    def test_requires_labels(self, linear_demo):
        data, head = linear_demo
        stats = covariance(data.source.features)
        with pytest.raises(InvalidInput):
            validate_alignment_trace(
                data.target.features,
                head,
                AdaptConfig(solver="gradient"),
                stats,
                None,
            )

    def test_summary_fields_populated(self, rng):
        z = rng.standard_normal((100, 2))
        head = SoftmaxHead(weight=rng.standard_normal((2, 2)), bias=np.zeros(2))
        labels = rng.integers(0, 2, size=100)
        stats = covariance(rng.standard_normal((40, 2)))
        cfg = AdaptConfig(k=10, solver="gradient", max_iters=200)
        result = validate_alignment_trace(z, head, cfg, stats, labels, record_every=10)
        assert result.spearman_pseudo_vs_source is None or -1.0 <= result.spearman_pseudo_vs_source <= 1.0
        assert result.solver_trace is not None


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"eps": -1.0},
            {"solver": "magic"},
            {"selection_mode": "best"},
            {"mode": "sideways"},
            {"batch_size": 0},
            {"lr": 0.0},
            {"max_iters": 0},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            AdaptConfig(**kwargs).validate()
