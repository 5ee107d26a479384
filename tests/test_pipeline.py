import math
from dataclasses import replace

import numpy as np
import pytest

from tcalign import (
    AdaptConfig,
    AlignmentTransform,
    CovarianceAccumulator,
    InsufficientSamples,
    InvalidConfig,
    InvalidInput,
    SoftmaxHead,
    adapt_online,
    adapt_transductive,
    apply_transform,
    correlation_distance,
    covariance,
    gen_linear_shift,
    gen_nonlinear_shift,
    predict,
    solve_gradient,
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


@pytest.fixture(scope="module")
def nonlinear_demo():
    data = gen_nonlinear_shift(0)
    head = train_head(data.source.features, data.source.labels, lr=0.1, epochs=2000)
    return data, head


OFFSET = 1e4


@pytest.fixture(params=["linear", "nonlinear", "linear+1e4"])
def demo_case(request, linear_demo, nonlinear_demo):
    """(test rows, head, tolerance on probabilities) of one demo. The +1e4 copy
    shifts every test row and compensates in the bias, so its unadapted
    predictions match the linear demo's up to rounding of the 1e4 offset."""
    if request.param == "nonlinear":
        data, head = nonlinear_demo
        return data.target.features, head, 1e-12
    data, head = linear_demo
    if request.param == "linear":
        return data.target.features, head, 1e-12
    shifted = SoftmaxHead(weight=head.weight, bias=head.bias - head.weight @ np.full(2, OFFSET))
    return data.target.features + OFFSET, shifted, 1e-9


class TestFoldedHead:
    """Adapted predictions and moments come from the head with W folded in and
    from W^T S W; the two-step reference applies the transform to every row."""

    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    def test_matches_two_step_reference(self, demo_case, selection_mode):
        test, head, prob_atol = demo_case
        cfg = AdaptConfig(selection_mode=selection_mode)
        preds, report, transform = adapt_transductive(test, head, cfg)
        transformed = apply_transform(test, transform)
        reference = predict(head, transformed)
        assert np.max(np.abs(preds.probs - reference.probs)) <= prob_atol
        assert np.array_equal(preds.argmax, reference.argmax)
        rows = streamed_pseudo_source(test, head, replace(cfg, batch_size=len(test)))
        _, sigma_s_hat = covariance(test[rows])
        want = correlation_distance(covariance(transformed)[1], sigma_s_hat)
        assert report.dist_test_to_pseudo_after == pytest.approx(want, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_online_matches_two_step_reference(self, linear_demo, batch_size):
        # replay the loop's per-batch moments and transforms, apply each
        # transform to its batch's rows, and measure the emitted rows directly
        from tcalign.pipeline import _solve, _steps

        data, head = linear_demo
        test = data.target.features
        source_stats = covariance(data.source.features)
        cfg = AdaptConfig(mode="online", batch_size=batch_size)
        preds, report = adapt_online(test, head, cfg, source_stats=source_stats)
        emitted = []
        for lo, hi, _, _, _, moments in _steps(test, head, cfg, batch_size):
            if moments is None:
                emitted.append(test[lo:hi])
                continue
            mu_s_hat, sigma_s_hat, mu_t, sigma_t = moments
            w, _ = _solve(cfg, sigma_t, sigma_s_hat)
            transform = AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat)
            emitted.append(apply_transform(test[lo:hi], transform))
        emitted = np.concatenate(emitted)  # sigma_s_hat is now the last solve's, as in the report
        reference = predict(head, emitted)
        assert np.max(np.abs(preds.probs - reference.probs)) <= 1e-12
        assert np.array_equal(preds.argmax, reference.argmax)
        _, sigma_emitted = covariance(emitted)
        assert report.dist_test_to_pseudo_after == pytest.approx(
            correlation_distance(sigma_emitted, sigma_s_hat), rel=1e-10, abs=0.0
        )
        assert report.dist_test_to_source_after == pytest.approx(
            correlation_distance(sigma_emitted, source_stats[1]), rel=1e-10, abs=0.0
        )

    def test_trace_rows_match_two_step_reference(self, rng):
        mix = np.array([[1.0, 0.3, 0.0], [0.0, 0.8, 0.2], [0.1, 0.0, 1.2]])
        z = rng.standard_normal((200, 3)) @ mix + 1.0  # unit scale keeps the 1e-3 step stable
        head = SoftmaxHead(weight=rng.standard_normal((4, 3)) * 2, bias=rng.standard_normal(4))
        labels = rng.integers(0, 4, size=200)
        _, sigma_s = covariance(rng.standard_normal((50, 3)))
        cfg = AdaptConfig(k=20, solver="gradient", max_iters=400)
        result = validate_alignment_trace(z, head, cfg, (None, sigma_s), labels, record_every=20)

        rows = streamed_pseudo_source(z, head, replace(cfg, batch_size=len(z)))
        mu_s_hat, sigma_s_hat = covariance(z[rows])
        mu_t, sigma_t = CovarianceAccumulator(3).update(z).finalize()
        iterates = []
        solve_gradient(
            sigma_t, sigma_s_hat, lr=cfg.lr, max_iters=cfg.max_iters, tol=cfg.tol, eps=cfg.eps,
            iterate_hook=lambda it, w: iterates.append((it, w)),
        )
        kept = [x for pos, x in enumerate(iterates) if pos % 20 == 0 or pos == len(iterates) - 1]
        assert [r.iteration for r in result.rows] == [it for it, _ in kept]
        for row, (_, w) in zip(result.rows, kept):
            transformed = apply_transform(z, AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat))
            _, sigma_i = covariance(transformed)
            assert row.dist_to_pseudo == pytest.approx(
                correlation_distance(sigma_i, sigma_s_hat), rel=1e-12, abs=0.0
            )
            assert row.dist_to_source == pytest.approx(
                correlation_distance(sigma_i, sigma_s), rel=1e-12, abs=0.0
            )
            assert row.accuracy == float(np.mean(predict(head, transformed).argmax == labels))


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

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    def test_label_count_mismatch_rejected(self, linear_demo, mode):
        # rejected before the loop compares a batch's argmax with too few labels
        data, head = linear_demo
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        with pytest.raises(InvalidInput, match="label count"):
            adapt(data.target.features, head, AdaptConfig(mode=mode), labels=data.target.labels[:3])

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    @pytest.mark.parametrize("offset", [0.7, -1], ids=["fraction", "negative"])
    def test_non_class_labels_rejected(self, linear_demo, mode, offset):
        data, head = linear_demo
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        labels = data.target.labels + offset
        with pytest.raises(InvalidInput, match="nonnegative integers"):
            adapt(data.target.features, head, AdaptConfig(mode=mode), labels=labels)

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

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    def test_gradient_solver_records_trace(self, rng, mode):
        # O(1)-scale covariances keep the 1e-3 step stable
        z = rng.standard_normal((120, 3))
        head = SoftmaxHead(weight=rng.standard_normal((3, 3)), bias=np.zeros(3))
        cfg = AdaptConfig(k=20, solver="gradient", max_iters=300, mode=mode, batch_size=50)
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        report = adapt(z, head, cfg)[1]  # online reports the trace of the last solve
        assert report.solver_trace is not None
        assert report.solver_trace.objective_values[-1] <= report.solver_trace.objective_values[0]

    def test_report_dict_is_json_ready(self, linear_demo):
        import json

        data, head = linear_demo
        _, report, _ = adapt_transductive(data.target.features, head, AdaptConfig())
        text = json.dumps(report.to_dict())
        assert "dist_test_to_pseudo_before" in text


class TestAdaptOnline:
    @pytest.mark.parametrize("solver", ["closed", "gradient"])
    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    def test_single_batch_matches_transductive(self, linear_demo, selection_mode, solver):
        data, head = linear_demo
        test = data.target.features
        # lr keeps the fixed gradient step stable on the demo's covariances
        cfg = AdaptConfig(selection_mode=selection_mode, solver=solver, lr=1e-7, max_iters=50)
        source_stats = covariance(data.source.features)
        trans_preds, trans_report, _ = adapt_transductive(
            test, head, cfg, labels=data.target.labels, source_stats=source_stats
        )
        online_cfg = replace(cfg, mode="online", batch_size=len(test))
        online_preds, online_report = adapt_online(
            test, head, online_cfg, labels=data.target.labels, source_stats=source_stats
        )
        assert np.array_equal(online_preds.probs, trans_preds.probs)
        assert np.array_equal(online_preds.argmax, trans_preds.argmax)
        online_dict, trans_dict = online_report.to_dict(), trans_report.to_dict()
        assert (online_dict.pop("mode"), trans_dict.pop("mode")) == ("online", "transductive")
        assert online_dict == trans_dict
        assert (online_report.solver_trace is not None) == (solver == "gradient")

    def test_final_statistics_match_across_partitions(self, linear_demo):
        data, head = linear_demo
        test = data.target.features
        _, sigma_ref = covariance(test)
        dists = []
        for batch_size in (1, 8, 64, 750):
            cfg = AdaptConfig(mode="online", batch_size=batch_size)
            _, report = adapt_online(test, head, cfg)
            dists.append(report.dist_test_to_pseudo_before)
            # the report distances derive from the final accumulated statistics;
            # check those statistics directly through the accumulator
            acc = CovarianceAccumulator(2)
            for lo in range(0, len(test), batch_size):
                acc.update(test[lo : lo + batch_size])
            _, sigma = acc.finalize()
            assert np.linalg.norm(sigma - sigma_ref) <= 1e-10 * np.linalg.norm(sigma_ref)
        # the final bank, and so the final pseudo-source, is partition-independent
        assert dists == pytest.approx([dists[-1]] * 4, rel=1e-12, abs=0.0)

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
        # a single row is rejected up front, as the adapt paths reject it
        with pytest.raises(InsufficientSamples, match="needs at least 2 test rows"):
            validate_alignment_trace(
                data.target.features[:1],
                head,
                AdaptConfig(solver="gradient"),
                stats,
                data.target.labels[:1],
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
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"lr": float("nan")},
            {"lr": float("inf")},
            {"tol": float("nan")},
            {"tol": float("inf")},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            AdaptConfig(**kwargs).validate()
