import math
import sys
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace

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
    solve_closed_form,
    solve_gradient,
    train_head,
    validate_alignment_trace,
    validate_uncertainty_groups,
)
from tcalign import pipeline
from tcalign.linalg import _covariance
from conftest import LAYOUTS, laid_out, streamed_pseudo_source, streamed_selections


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


REPORT_KEYS = [
    "n",
    "d",
    "c",
    "mode",
    "accuracy_before",
    "accuracy_after",
    "dist_test_to_pseudo_before",
    "dist_test_to_pseudo_after",
    "dist_test_to_source_before",
    "dist_test_to_source_after",
    "dist_pseudo_to_source",
    "unadapted_batches",
]


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
        # replay every batch through the public functions: the running moments,
        # the pseudo-source's covariance and solve_closed_form give the loop's
        # transforms, so the head with each folded in predicts the loop's bits;
        # an unadapted batch keeps its rows of the one whole-matrix prediction;
        # applying each transform to its batch's rows gives the emitted rows,
        # which are measured directly
        data, head = linear_demo
        test = data.target.features
        source_stats = covariance(data.source.features)
        cfg = AdaptConfig(batch_size=batch_size)
        preds, report = adapt_online(test, head, cfg, source_stats=source_stats)
        unadapted = predict(head, test).probs
        stats = CovarianceAccumulator(test.shape[1])
        folded, emitted = [], []
        for lo, hi, selected in streamed_selections(test, head, cfg):
            rows = test[lo:hi]
            stats.update(rows)
            if len(selected) < 2:
                folded.append(unadapted[lo:hi])
                emitted.append(rows)
                continue
            mu_s_hat, sigma_s_hat = covariance(test[selected])
            mu_t, sigma_t = stats.finalize()
            w = solve_closed_form(sigma_t, sigma_s_hat, cfg.eps)
            bias = head.bias + head.weight @ (mu_s_hat - w.T @ mu_t)
            folded.append(predict(SoftmaxHead(weight=head.weight @ w.T, bias=bias), rows).probs)
            transform = AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_s_hat)
            emitted.append(apply_transform(rows, transform))
        assert np.array_equal(preds.probs, np.concatenate(folded))
        assert report.dist_test_to_pseudo_before == correlation_distance(sigma_t, sigma_s_hat)
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
        cfg, lr, max_iters = AdaptConfig(k=20), 1e-3, 400
        result = validate_alignment_trace(
            z, head, cfg, (None, sigma_s), labels, record_every=20, lr=lr, max_iters=max_iters
        )

        rows = streamed_pseudo_source(z, head, replace(cfg, batch_size=len(z)))
        mu_s_hat, sigma_s_hat = covariance(z[rows])
        mu_t, sigma_t = covariance(z)
        iterates = []
        solve_gradient(
            sigma_t, sigma_s_hat, lr=lr, max_iters=max_iters, eps=cfg.eps,
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

    def test_rank_deficient_pseudo_source_at_eps_0(self):
        # k = 2 selects a rank-1 pseudo-source whose zero eigenvalues can round
        # negative; its square root used to raise SingularMatrix on 18 of these seeds
        for seed in range(20):
            rng = np.random.default_rng(seed)
            z = rng.standard_normal((200, 3)) * 1e4
            head = SoftmaxHead(weight=rng.standard_normal((4, 3)), bias=rng.standard_normal(4))
            preds, _, _ = adapt_transductive(z, head, AdaptConfig(k=2, eps=0.0))
            assert np.all(np.isfinite(preds.probs))

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    def test_head_of_wrong_dimension_rejected(self, linear_demo, mode):
        # rejected at the entry, with predict's message, before any batch runs
        data, _ = linear_demo
        head = SoftmaxHead(weight=np.zeros((3, 5)), bias=np.zeros(3))
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        with pytest.raises(InvalidInput, match="^embedding dimension 2 does not match head dimension 5$"):
            adapt(data.target.features, head, AdaptConfig())

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    def test_label_count_mismatch_rejected(self, linear_demo, mode):
        # rejected before the loop compares a batch's argmax with too few labels
        data, head = linear_demo
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        with pytest.raises(InvalidInput, match="label count"):
            adapt(data.target.features, head, AdaptConfig(), labels=data.target.labels[:3])

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    @pytest.mark.parametrize("offset", [0.7, -1], ids=["fraction", "negative"])
    def test_non_class_labels_rejected(self, linear_demo, mode, offset):
        data, head = linear_demo
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        labels = data.target.labels + offset
        with pytest.raises(InvalidInput, match="nonnegative integers"):
            adapt(data.target.features, head, AdaptConfig(), labels=labels)

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
        preds, _, _ = adapt_transductive(
            data.target.features,
            head,
            AdaptConfig(selection_mode="class_balanced"),
            labels=data.target.labels,
        )
        assert preds.probs.shape == (750, 3)

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    @pytest.mark.parametrize("scale", [1e100, 1e150])
    def test_overflowing_distances_are_inf(self, linear_demo, mode, scale):
        # the squared covariance differences overflow while the moments do
        # not; the distance comes back inf without a RuntimeWarning
        data, head = linear_demo
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        preds, report = adapt(data.target.features * scale, head, AdaptConfig())[:2]
        assert np.all(np.isfinite(preds.probs))
        assert report.dist_test_to_pseudo_before == math.inf
        assert report.dist_test_to_pseudo_after == math.inf

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    @pytest.mark.parametrize("scale", [1e153, 1e160])
    def test_overflowing_scatter_names_the_magnitude(self, linear_demo, mode, scale):
        # the scatter used to overflow with a RuntimeWarning and then fail as
        # "sigma contains non-finite entries"; online, 1e153 overflows the merge
        data, head = linear_demo
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                InvalidInput,
                match=r"^the embeddings' scatter overflows float64 \(largest .* \d\.?\d*e\+1[56]\d\); "
                "rescale the embeddings$",
            ):
                adapt(data.target.features * scale, head, AdaptConfig())

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    def test_large_mean_with_small_spread_adapts(self, linear_demo, mode):
        # the overflow check reads the computed scatter, not the magnitudes
        data, head = linear_demo
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        preds, report = adapt(1e160 + data.target.features * 1e140, head, AdaptConfig())[:2]
        assert np.all(np.isfinite(preds.probs))
        assert report.n == 750

    def test_report_dict_is_json_ready(self, linear_demo):
        import json

        data, head = linear_demo
        _, report, _ = adapt_transductive(data.target.features, head, AdaptConfig())
        text = json.dumps(report.to_dict())
        assert "dist_test_to_pseudo_before" in text

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    @pytest.mark.parametrize("labelled", [False, True], ids=["unlabelled", "labelled"])
    @pytest.mark.parametrize("with_source", [False, True], ids=["no-source", "source"])
    @pytest.mark.parametrize("solver", ["closed"])  # the adapt loop's one solver, named in the ids
    def test_report_schema(self, linear_demo, mode, labelled, with_source, solver):
        # the key list is the report's schema: change it here, deliberately
        data, head = linear_demo
        cfg = AdaptConfig(batch_size=100)
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        report = adapt(
            data.target.features,
            head,
            cfg,
            labels=data.target.labels if labelled else None,
            source_stats=covariance(data.source.features) if with_source else None,
        )[1]
        out = report.to_dict()
        assert list(out) == REPORT_KEYS
        assert out["mode"] == mode
        assert (out["accuracy_before"] is None, out["accuracy_after"] is None) == (not labelled,) * 2
        source_keys = ["dist_test_to_source_before", "dist_test_to_source_after", "dist_pseudo_to_source"]
        assert [out[key] is None for key in source_keys] == [not with_source] * 3


class TestAdaptOnline:
    @pytest.mark.parametrize("solver", ["closed"])  # the adapt loop's one solver, named in the ids
    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    def test_single_batch_matches_transductive(self, linear_demo, selection_mode, solver):
        data, head = linear_demo
        test = data.target.features
        cfg = AdaptConfig(selection_mode=selection_mode)
        source_stats = covariance(data.source.features)
        trans_preds, trans_report, _ = adapt_transductive(
            test, head, cfg, labels=data.target.labels, source_stats=source_stats
        )
        online_cfg = replace(cfg, batch_size=len(test))
        online_preds, online_report = adapt_online(
            test, head, online_cfg, labels=data.target.labels, source_stats=source_stats
        )
        assert np.array_equal(online_preds.probs, trans_preds.probs)
        assert np.array_equal(online_preds.argmax, trans_preds.argmax)
        online_dict, trans_dict = online_report.to_dict(), trans_report.to_dict()
        assert (online_dict.pop("mode"), trans_dict.pop("mode")) == ("online", "transductive")
        assert online_dict == trans_dict

    def test_final_statistics_match_across_partitions(self, linear_demo):
        data, head = linear_demo
        test = data.target.features
        _, sigma_ref = covariance(test)
        dists = []
        for batch_size in (1, 8, 64, 750):
            cfg = AdaptConfig(batch_size=batch_size)
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
            cfg = AdaptConfig(batch_size=batch_size, selection_mode=selection_mode)
            banks.append(streamed_pseudo_source(test, head, cfg))
        assert banks[0] == banks[1] == banks[2] == banks[3]

    def test_cold_start_flagged_for_unit_batches(self, linear_demo):
        data, head = linear_demo
        cfg = AdaptConfig(batch_size=1)
        _, report = adapt_online(data.target.features[:50], head, cfg, labels=data.target.labels[:50])
        assert report.unadapted_batches == 1  # only the very first instance

    def test_no_cold_start_for_batches_of_two_plus(self, linear_demo):
        data, head = linear_demo
        cfg = AdaptConfig(batch_size=2)
        _, report = adapt_online(data.target.features[:40], head, cfg)
        assert report.unadapted_batches == 0


def all_rows_selection(omegas, classes, k, c):
    """Row-by-row class-balanced pseudo-source over every row given: largest-
    remainder quotas over the class counts, each filled from its class's
    (uncertainty, row) queue."""
    n = len(omegas)
    counts = [sum(1 for cls in classes if cls == j) for j in range(c)]
    slots = min(k, n)
    quotas, remainders = zip(*(divmod(count * slots, n) for count in counts))
    quotas = list(quotas)
    by_remainder = sorted(range(c), key=lambda j: (-remainders[j], -counts[j], j))
    for j in by_remainder[: slots - sum(quotas)]:
        quotas[j] += 1
    queues = [sorted((i for i in range(n) if classes[i] == j), key=lambda i: (omegas[i], i)) for j in range(c)]
    assert all(q <= len(queue) for q, queue in zip(quotas, queues))
    return sorted(i for queue, q in zip(queues, quotas) for i in queue[:q])


class TestClassBalancedSelection:
    def test_bank_selection_matches_all_rows_reference(self, rng):
        # the class-balanced bank keeps min(k, n_j) rows of class j and no
        # quota exceeds that, so selecting from the bank after every batch
        # picks what selecting from every row so far would
        from tcalign.pipeline import _fold

        for trial in range(300):
            n, c = int(rng.integers(2, 40)), int(rng.integers(2, 9))
            k = int(rng.integers(2, n + 5))
            batch_size = int(rng.integers(1, n + 1))
            omegas = np.round(rng.uniform(0, 1.9, size=n), 1)  # coarse grid forces ties
            classes = rng.integers(0, int(rng.integers(1, c + 1)), size=n)  # some classes never predicted
            cfg = AdaptConfig(k=k, selection_mode="class_balanced", batch_size=batch_size)
            counts = np.zeros(c, dtype=np.int64)
            bank = np.empty(0, dtype=np.int64)
            for lo in range(0, n, batch_size):
                hi = min(lo + batch_size, n)
                counts += np.bincount(classes[lo:hi], minlength=c)
                bank, selected = _fold(cfg, bank, np.arange(lo, hi), omegas, classes, counts)
                got = selected.tolist()
                want = all_rows_selection(omegas[:hi], classes[:hi], k, c)
                assert got == want, f"trial {trial}, rows 0..{hi}"


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
        cfg = AdaptConfig(k=len(test))
        result = validate_alignment_trace(
            test, head, cfg, stats, data.target.labels, record_every=10, max_iters=50
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
        cfg = AdaptConfig(k=20)
        result = validate_alignment_trace(
            z, head, cfg, stats, labels, record_every=20, max_iters=400
        )
        assert result.rows[0].iteration == 0
        dp = [r.dist_to_pseudo for r in result.rows]
        assert dp[-1] < dp[0]
        iterations = [r.iteration for r in result.rows]
        assert iterations == sorted(iterations)

    def test_memory_bounded_by_recorded_rows(self, rng):
        # keeping every iterate would hold max_iters + 1 copies of the d x d W
        d = 32
        z = rng.standard_normal((200, d))
        head = SoftmaxHead(weight=rng.standard_normal((4, d)), bias=np.zeros(4))
        labels = rng.integers(0, 4, size=200)
        stats = covariance(rng.standard_normal((100, d)))
        cfg = AdaptConfig(k=100)
        tracemalloc.start()
        try:
            result = validate_alignment_trace(
                z, head, cfg, stats, labels, record_every=100, max_iters=1000
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.solver_trace.iterations == 1000
        assert [r.iteration for r in result.rows] == list(range(0, 1001, 100))
        assert peak < 100 * d * d * 8

    def test_final_iterate_recorded_between_records(self, linear_demo):
        # the solver stops on an iteration that is not a multiple of
        # record_every, so the last iterate gets a row of its own
        data, head = linear_demo
        stats = covariance(data.source.features)
        result = validate_alignment_trace(
            data.target.features,
            head,
            AdaptConfig(),
            stats,
            data.target.labels,
            record_every=7,
            lr=1e-7,
            max_iters=200,
        )
        last = result.solver_trace.iterations
        assert last % 7 != 0
        assert [r.iteration for r in result.rows] == [*range(0, last, 7), last]

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"lr": 0.0}, "lr must be finite and positive, got 0.0"),
            ({"lr": float("nan")}, "lr must be finite and positive, got nan"),
            ({"lr": float("inf")}, "lr must be finite and positive, got inf"),
            ({"lr": None}, "lr must be finite and positive, got None"),
            ({"lr": "0.1"}, "lr must be finite and positive, got 0.1"),
            ({"max_iters": 0}, "max_iters must be an integer >= 1, got 0"),
            ({"max_iters": True}, "max_iters must be an integer >= 1, got True"),
            ({"max_iters": 5.0}, "max_iters must be an integer >= 1, got 5.0"),
        ],
        ids=["lr-0", "lr-nan", "lr-inf", "lr-none", "lr-str", "iters-0", "iters-bool", "iters-float"],
    )
    def test_bad_step_rejected(self, linear_demo, monkeypatch, kwargs, message):
        # before the test matrix is scanned
        data, head = linear_demo
        stats = covariance(data.source.features)
        calls = {}
        count_calls(monkeypatch, calls, "validate_embeddings")
        with pytest.raises(InvalidConfig, match=f"^{message}$"):
            validate_alignment_trace(
                data.target.features, head, AdaptConfig(), stats, data.target.labels, **kwargs
            )
        assert calls == {"validate_embeddings": 0}

    def test_numpy_integer_max_iters_accepted(self, linear_demo):
        data, head = linear_demo
        stats = covariance(data.source.features)
        got, want = (
            validate_alignment_trace(
                data.target.features, head, AdaptConfig(), stats, data.target.labels,
                lr=1e-7, max_iters=max_iters,
            )
            for max_iters in (np.int64(5), 5)
        )
        assert got == want

    def test_rank_deficient_input_traces_at_eps_0(self, rng):
        # rank-2 rows in 3-d at scale 1e4, eps = 0: a closed-form solve of these
        # covariances takes powers of singular matrices; the gradient solver
        # takes none, so the trace returns its rows
        z = rng.standard_normal((200, 2)) @ np.array([[1.0, 0.4, -0.7], [0.2, 1.1, 0.5]]) * 1e4
        head = SoftmaxHead(weight=rng.standard_normal((4, 3)), bias=rng.standard_normal(4))
        labels = rng.integers(0, 4, size=200)
        stats = covariance(rng.standard_normal((50, 3)))
        for k in (2, 3, 20):
            result = validate_alignment_trace(
                z, head, AdaptConfig(k=k, eps=0.0), stats, labels, lr=1e-19, max_iters=100
            )
            assert [r.iteration for r in result.rows] == list(range(0, 101, 10))

    def test_requires_labels(self, linear_demo):
        data, head = linear_demo
        stats = covariance(data.source.features)
        with pytest.raises(InvalidInput):
            validate_alignment_trace(
                data.target.features,
                head,
                AdaptConfig(),
                stats,
                None,
            )
        # a single row is rejected up front, as the adapt paths reject it
        with pytest.raises(InsufficientSamples, match="needs at least 2 test rows"):
            validate_alignment_trace(
                data.target.features[:1],
                head,
                AdaptConfig(),
                stats,
                data.target.labels[:1],
            )

    def test_head_of_wrong_dimension_rejected(self, linear_demo):
        data, _ = linear_demo
        head = SoftmaxHead(weight=np.zeros((3, 5)), bias=np.zeros(3))
        with pytest.raises(InvalidInput, match="^embedding dimension 2 does not match head dimension 5$"):
            validate_alignment_trace(
                data.target.features,
                head,
                AdaptConfig(),
                covariance(data.source.features),
                data.target.labels,
            )

    def test_summary_fields_populated(self, rng):
        z = rng.standard_normal((100, 2))
        head = SoftmaxHead(weight=rng.standard_normal((2, 2)), bias=np.zeros(2))
        labels = rng.integers(0, 2, size=100)
        stats = covariance(rng.standard_normal((40, 2)))
        cfg = AdaptConfig(k=10)
        result = validate_alignment_trace(
            z, head, cfg, stats, labels, record_every=10, max_iters=200
        )
        assert result.spearman_pseudo_vs_source is None or -1.0 <= result.spearman_pseudo_vs_source <= 1.0
        assert list(vars(result.solver_trace)) == ["objective_values", "iterations", "converged"]
        assert isinstance(result.solver_trace.converged, bool)


SOURCE_STATS_ENTRIES = {
    "transductive": lambda data, head, stats: adapt_transductive(
        data.target.features, head, source_stats=stats
    ),
    "online": lambda data, head, stats: adapt_online(data.target.features, head, source_stats=stats),
    "groups": lambda data, head, stats: validate_uncertainty_groups(data.target.features, head, stats),
    "trace": lambda data, head, stats: validate_alignment_trace(
        data.target.features, head, AdaptConfig(), stats, data.target.labels, lr=1e-7, max_iters=5
    ),
}


class TestSourceStatsChecked:
    """Every entry that takes ``source_stats`` checks it once, after its config
    and before it scores a row, and names it in the InvalidInput it raises."""

    @pytest.fixture
    def unscored(self, monkeypatch):
        def scored(*args):
            raise AssertionError("rows scored before source_stats was checked")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "tcalign" and "_scored" in vars(module):
                monkeypatch.setattr(module, "_scored", scored)

    @pytest.mark.parametrize("entry", sorted(SOURCE_STATS_ENTRIES))
    @pytest.mark.parametrize(
        "stats, message",
        [
            (np.eye(3), r"source_stats must be a \(mean, covariance\) pair, got ndarray"),
            (object, r"source_stats must be a \(mean, covariance\) pair, got type"),
            ((np.eye(2),), r"source_stats must be a \(mean, covariance\) pair, got tuple"),
            ((np.zeros(3), np.eye(3)), r"source_stats covariance must be 2 x 2, got \(3, 3\)"),
            ((np.zeros(2), np.ones(2)), "source_stats covariance must be a non-empty square matrix"),
            ((np.zeros(2), np.diag([1.0, np.nan])), "source_stats covariance contains non-finite entries"),
            ((np.zeros(2), np.diag([1.0, np.inf])), "source_stats covariance contains non-finite entries"),
        ],
        ids=["matrix", "object", "single", "wrong-d", "vector", "nan", "inf"],
    )
    def test_bad_source_stats_rejected_before_scoring(self, linear_demo, unscored, entry, stats, message):
        data, head = linear_demo
        with pytest.raises(InvalidInput, match=f"^{message}"):
            SOURCE_STATS_ENTRIES[entry](data, head, stats)

    @pytest.mark.parametrize("entry", sorted(SOURCE_STATS_ENTRIES))
    def test_list_pair_accepted(self, linear_demo, entry):
        data, head = linear_demo
        SOURCE_STATS_ENTRIES[entry](data, head, list(covariance(data.source.features)))


def count_calls(monkeypatch, calls, name):
    """Count, in ``calls[name]``, the calls of ``linalg.<name>`` made through
    any tcalign module that holds it."""
    from tcalign import linalg

    original = getattr(linalg, name)
    calls[name] = 0

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "tcalign" and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, wrapper)


class TestValidationBoundary:
    """The adapt path checks the test matrix once, at its entry: the batch loop
    runs kernels on it, so neither the checks nor the accumulator's own
    per-batch update may creep back into the loop."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"update": 0}
        count_calls(monkeypatch, calls, "validate_embeddings")
        update = CovarianceAccumulator.update

        def counted_update(*args, **kwargs):
            calls["update"] += 1
            return update(*args, **kwargs)

        monkeypatch.setattr(CovarianceAccumulator, "update", counted_update)
        return calls

    @pytest.fixture
    def matrix_calls(self, monkeypatch):
        calls = {}
        for name in ("_power", "_square", "_symmetric", "correlation_distance", "_distance"):
            count_calls(monkeypatch, calls, name)
        return calls

    @pytest.fixture
    def transforms(self, monkeypatch):
        """Every ``AlignmentTransform`` built, in order."""
        built = []
        check = AlignmentTransform.__post_init__

        def counted(transform):
            built.append(transform)
            check(transform)

        monkeypatch.setattr(AlignmentTransform, "__post_init__", counted)
        return built

    @pytest.mark.parametrize("n, batch_size", [(750, 1), (750, 7), (750, 64), (300, 300)])
    def test_online_checks_once(self, linear_demo, calls, n, batch_size):
        data, head = linear_demo
        cfg = AdaptConfig(batch_size=batch_size)
        adapt_online(data.target.features[:n], head, cfg, labels=data.target.labels[:n])
        assert calls == {"validate_embeddings": 1, "update": 0}

    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    def test_transductive_checks_once(self, linear_demo, calls, selection_mode):
        data, head = linear_demo
        cfg = AdaptConfig(selection_mode=selection_mode)
        adapt_transductive(data.target.features, head, cfg, labels=data.target.labels)
        assert calls == {"validate_embeddings": 1, "update": 0}

    def test_experiments_check_once(self, linear_demo, calls):
        data, head = linear_demo
        stats = covariance(data.source.features)
        calls["validate_embeddings"] = 0
        validate_uncertainty_groups(data.target.features, head, stats)
        assert calls == {"validate_embeddings": 1, "update": 0}
        validate_alignment_trace(
            data.target.features, head, AdaptConfig(), stats, data.target.labels,
            lr=1e-7, max_iters=20,
        )
        assert calls == {"validate_embeddings": 2, "update": 0}

    def test_gradient_loop_checks_no_matrix(self, matrix_calls):
        # the solver checks its matrices on entry, so the check count does
        # not grow with the iterations
        counts = []
        for max_iters in (5, 50):
            matrix_calls["_square"] = 0
            _, trace = solve_gradient(2.0 * np.eye(3), np.eye(3), max_iters=max_iters)
            assert trace.iterations == max_iters
            counts.append(matrix_calls["_square"])
        assert counts[0] == counts[1]

    def test_counters_see_every_check(self, calls, matrix_calls):
        # the patched references are the ones the package calls
        predict(SoftmaxHead(weight=np.zeros((2, 2)), bias=np.zeros(2)), np.zeros((3, 2)))
        covariance(np.zeros((3, 2)))
        CovarianceAccumulator(2).update(np.zeros((3, 2)))
        assert calls == {"validate_embeddings": 3, "update": 1}
        solve_closed_form(np.eye(2), np.eye(2))
        want = {"_power": 2, "_square": 4, "_symmetric": 2, "correlation_distance": 0, "_distance": 0}
        assert matrix_calls == want
        from tcalign import linalg

        linalg.correlation_distance(np.eye(2), np.eye(2))
        want.update(_square=6, correlation_distance=1, _distance=1)
        assert matrix_calls == want

    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    @pytest.mark.parametrize("batch_size", [7, 750])
    def test_only_the_report_rescans_matrices(
        self, linear_demo, matrix_calls, batch_size, selection_mode
    ):
        # no square-matrix check runs in the closed-form loop or the report:
        # the one caller of _square is the entry check of source_stats, and
        # the report measures the matrices it built with the unchecked kernel
        data, head = linear_demo
        cfg = AdaptConfig(batch_size=batch_size, selection_mode=selection_mode)
        source_stats = covariance(data.source.features)
        adapt_online(data.target.features, head, cfg, source_stats=source_stats)
        assert matrix_calls["correlation_distance"] == 0
        assert matrix_calls["_distance"] == 5
        assert matrix_calls["_square"] == 1
        assert matrix_calls["_symmetric"] == 0

    @pytest.mark.parametrize("batch_size", [1, 7, 750])
    def test_one_checked_transform_per_call(self, linear_demo, transforms, batch_size):
        # each solve's map passes between the kernels as arrays; the checked
        # transform is built once per call, after the loop, from the last solve
        data, head = linear_demo
        cfg = AdaptConfig(batch_size=batch_size)
        adapt_online(data.target.features, head, cfg)
        assert len(transforms) == 1
        *_, transform = adapt_transductive(data.target.features, head, cfg)
        assert len(transforms) == 2 and transforms[-1] is transform

    def test_experiments_build_no_transform(self, linear_demo, transforms, matrix_calls):
        # the trace folds each iterate into the head as arrays, and both
        # experiments measure the covariances they built with the kernel
        data, head = linear_demo
        stats = covariance(data.source.features)
        validate_uncertainty_groups(data.target.features, head, stats, n_groups=5)
        result = validate_alignment_trace(
            data.target.features, head, AdaptConfig(), stats, data.target.labels,
            lr=1e-7, max_iters=20, record_every=5,
        )
        assert transforms == []
        assert matrix_calls["correlation_distance"] == 0
        assert matrix_calls["_distance"] == 5 + 2 * len(result.rows)

    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_closed_solve_reuses_unchanged_selection(
        self, linear_demo, matrix_calls, batch_size, selection_mode
    ):
        # one _power per solve for S_t^(-1/2), and one per new selection for
        # S_s^(1/2): a batch that selects the rows of the last solve reuses it
        data, head = linear_demo
        test = data.target.features
        cfg = AdaptConfig(batch_size=batch_size, selection_mode=selection_mode)
        _, report = adapt_online(test, head, cfg)
        solves = selections = 0
        last = None
        for _, _, selected in streamed_selections(test, head, cfg):
            if len(selected) >= 2:
                solves += 1
                selections += not np.array_equal(selected, last)
                last = selected
        assert solves == math.ceil(len(test) / batch_size) - report.unadapted_batches
        assert matrix_calls["_power"] == solves + selections

    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 750])
    def test_symmetrized_only_after_products(self, linear_demo, monkeypatch, batch_size, selection_mode):
        # the moments are exactly symmetric when built, so _symmetrized runs
        # once per matrix power, on its eigenvector product, and once per
        # adapted batch, on W^T S W
        calls = {}
        for name in ("_power", "_symmetrized"):
            count_calls(monkeypatch, calls, name)
        data, head = linear_demo
        test = data.target.features
        cfg = AdaptConfig(batch_size=batch_size, selection_mode=selection_mode)
        _, report = adapt_online(test, head, cfg)
        solves = math.ceil(len(test) / batch_size) - report.unadapted_batches
        assert calls["_symmetrized"] == calls["_power"] + solves

    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    @pytest.mark.parametrize("batch_size", [1, 7, 64])
    def test_source_root_once_per_selection(self, linear_demo, monkeypatch, batch_size, selection_mode):
        # S_s^(1/2) (power 1/2) is computed once per change of the selected
        # rows, S_t^(-1/2) once per solve
        from tcalign import linalg

        original, powers = linalg._power, []

        def recorded(sigma, p):
            powers.append(p)
            return original(sigma, p)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "tcalign" and vars(module).get("_power") is original:
                monkeypatch.setattr(module, "_power", recorded)
        data, head = linear_demo
        cfg = AdaptConfig(batch_size=batch_size, selection_mode=selection_mode)
        adapt_online(data.target.features, head, cfg)
        solves = changes = 0
        last = None
        for _, _, selected in streamed_selections(data.target.features, head, cfg):
            if len(selected) >= 2:
                solves += 1
                changes += not np.array_equal(selected, last)
                last = selected
        assert 0 < changes <= solves
        assert sorted(powers) == [-0.5] * solves + [0.5] * changes


def bench_like(seed, n=256, d=64, c=10):
    """(rows, head) drawn as the 64-d benchmark inputs are: class means on a
    radius-4 sphere, unit noise, the affine shift, float32 rows, and the
    Gaussian-LDA head of the means."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((c, d))
    means = 4.0 * g / np.linalg.norm(g, axis=1, keepdims=True)
    z = means[rng.integers(0, c, size=n)] + rng.standard_normal((n, d))
    shift = np.eye(d) + 0.3 * rng.standard_normal((d, d)) / np.sqrt(d)
    z = (z @ shift + 0.5 * rng.standard_normal(d)).astype(np.float32).astype(np.float64)
    return z, SoftmaxHead(weight=means, bias=-0.5 * np.sum(means * means, axis=1))


class TestScoredOnce:
    """Each adapt call and each experiment scores the test rows once, in one
    softmax of the head's own weight over the whole matrix, so no unadapted
    probability, class or uncertainty depends on the batch size."""

    @pytest.fixture
    def unadapted_rows(self, monkeypatch, linear_demo):
        # the row count of each softmax_rows call with the demo head's weight
        from tcalign import head as head_module

        _, head = linear_demo
        original, rows = head_module.softmax_rows, []

        def recorded(z, weight, bias, out=None):
            if weight is head.weight:
                rows.append(len(z))
            return original(z, weight, bias, out=out)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "tcalign" and vars(module).get("softmax_rows") is original:
                monkeypatch.setattr(module, "softmax_rows", recorded)
        return rows

    @pytest.mark.parametrize("batch_size", [1, 7, 64, 750])
    def test_online_scores_once(self, linear_demo, unadapted_rows, batch_size):
        data, head = linear_demo
        adapt_online(data.target.features, head, AdaptConfig(batch_size=batch_size))
        assert unadapted_rows == [len(data.target.features)]

    @pytest.mark.parametrize("selection_mode", ["global", "class_balanced"])
    def test_transductive_scores_once(self, linear_demo, unadapted_rows, selection_mode):
        data, head = linear_demo
        adapt_transductive(data.target.features, head, AdaptConfig(selection_mode=selection_mode))
        assert unadapted_rows == [len(data.target.features)]

    def test_experiments_score_once(self, linear_demo, unadapted_rows):
        data, head = linear_demo
        test, stats = data.target.features, covariance(data.source.features)
        validate_uncertainty_groups(test, head, stats)
        assert unadapted_rows == [len(test)]
        validate_alignment_trace(
            test, head, AdaptConfig(), stats, data.target.labels, lr=1e-7, max_iters=20
        )
        assert unadapted_rows == [len(test)] * 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_unadapted_row_is_the_whole_matrix_prediction(self, seed):
        # a 1-row product may round differently from a many-row one; the
        # cold-start row keeps its bits from the whole-matrix prediction
        z, head = bench_like(seed)
        preds, report = adapt_online(z, head, AdaptConfig(k=128, batch_size=1))
        assert report.unadapted_batches == 1
        assert np.array_equal(preds.probs[0], predict(head, z).probs[0])


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k": 0},
            {"eps": -1.0},
            {"selection_mode": "class-balanced"},
            {"selection_mode": "best"},
            {"batch_size": 0},
            {"k": 1},
            {"batch_size": -1},
            {"eps": float("nan")},
            {"eps": float("inf")},
            {"eps": float("-inf")},
            {"k": True},
            {"eps": "0.1"},
            {"selection_mode": None},
            {"k": "30"},
            {"eps": None},
            {"batch_size": True},
            {"batch_size": "64"},
        ],
    )
    def test_bad_configs_rejected(self, kwargs):
        with pytest.raises(InvalidConfig):
            AdaptConfig(**kwargs)

    def test_checked_when_built_and_frozen(self):
        cfg = AdaptConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.k = 0
        assert replace(cfg, k=5).k == 5
        with pytest.raises(InvalidConfig, match="bank capacity k"):
            replace(cfg, k=1)
        assert len(fields(AdaptConfig)) == 4

    @pytest.mark.parametrize(
        "mode, kwargs",
        [
            ("transductive", {"k": 30.0}),
            ("online", {"batch_size": 8.0}),
            ("transductive", {"batch_size": 8.5}),  # checked, though only online reads it
        ],
    )
    def test_non_integer_counts_rejected(self, linear_demo, mode, kwargs):
        # these used to reach numpy slicing and range() as a TypeError
        data, head = linear_demo
        adapt = adapt_transductive if mode == "transductive" else adapt_online
        with pytest.raises(InvalidConfig, match="must be an integer"):
            adapt(data.target.features, head, AdaptConfig(**kwargs))

    def test_numpy_integer_counts_accepted(self, linear_demo):
        data, head = linear_demo
        numpy_cfg = AdaptConfig(k=np.int64(30), batch_size=np.int32(8))
        got, _ = adapt_online(data.target.features, head, numpy_cfg)
        want, _ = adapt_online(data.target.features, head, AdaptConfig(k=30, batch_size=8))
        assert np.array_equal(got.probs, want.probs)

    def test_non_integer_experiment_counts_rejected(self, linear_demo):
        # record_every=2.5 used to record iterations 0, 5, 10, ... without complaint
        data, head = linear_demo
        stats = covariance(data.source.features)
        # True is an Integral equal to 1, and used to be accepted as that count
        for bad in (3.0, True):
            with pytest.raises(InvalidConfig, match="n_groups must be an integer"):
                validate_uncertainty_groups(data.target.features, head, stats, n_groups=bad)
        for bad in (2.5, True):
            with pytest.raises(InvalidConfig, match="record_every must be an integer"):
                validate_alignment_trace(
                    data.target.features,
                    head,
                    AdaptConfig(),
                    stats,
                    data.target.labels,
                    record_every=bad,
                    lr=1e-7,
                    max_iters=20,
                )


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("batch_size", [None, 1, 16], ids=["transductive", "online-1", "online-16"])
def test_adapt_statistics_are_exactly_symmetric(monkeypatch, layout, batch_size):
    # every covariance the loop divides out of its (count, mean, scatter)
    # triples, whatever the memory layout of the test rows
    rng = np.random.default_rng(7)
    test = laid_out(rng, 120, 6, layout, scale=3.0)
    head = SoftmaxHead(weight=rng.standard_normal((4, 6)), bias=rng.standard_normal(4))
    seen = []

    def recorded(moments):
        mean, sigma = _covariance(moments)
        seen.append(sigma)
        return mean, sigma

    monkeypatch.setattr(pipeline, "_covariance", recorded)
    cfg = AdaptConfig(k=10, batch_size=batch_size or 1)
    if batch_size is None:
        adapt_transductive(test, head, cfg)
        solves = 1
    else:
        _, report = adapt_online(test, head, cfg)
        solves = math.ceil(120 / batch_size) - report.unadapted_batches
    # S_t of each solve, each new pseudo-source's covariance and the emitted one
    assert len(seen) > solves
    assert all(np.array_equal(sigma, sigma.T) for sigma in seen)
