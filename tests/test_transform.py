import inspect

import numpy as np
import pytest

from tcalign import (
    AlignmentTransform,
    DivergenceError,
    InvalidInput,
    apply_transform,
    covariance,
    objective,
    objective_gradient,
    shrink,
    solve_closed_form,
    solve_gradient,
    spd_power,
)
from conftest import make_spd


class TestObjective:
    def test_constraint_met_is_zero(self, rng):
        s = make_spd(rng, 3)
        assert objective(np.eye(3), s, s) == 0.0

    def test_identity_against_scaled_identity(self):
        assert objective(np.eye(2), 2 * np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_matches_elementwise_oracle(self, rng):
        w = rng.standard_normal((4, 4))
        st = make_spd(rng, 4)
        ss = make_spd(rng, 4)
        residual = w.T @ st @ w - ss
        expected = 0.0
        for i in range(4):
            for j in range(4):
                expected += residual[i, j] ** 2
        assert objective(w, st, ss) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            objective(np.eye(2), np.eye(2), np.eye(3))

    @pytest.mark.parametrize(
        "w, message",
        [
            (np.eye(3), r"^w shape \(3, 3\) does not match sigma shape \(2, 2\)$"),
            (np.ones(2), r"^w must be a non-empty 2-D array, got shape \(2,\)$"),
        ],
        ids=["3x3", "1-d"],
    )
    @pytest.mark.parametrize("fn", [objective, objective_gradient])
    def test_w_shape_mismatch_rejected(self, fn, w, message):
        # the gradient used to raise matmul's ValueError, or return a vector for a 1-d w
        with pytest.raises(InvalidInput, match=message):
            fn(w, np.eye(2), np.eye(2))


class TestSquareMatrixRule:
    # the solvers take their matrices through the same rule as linalg
    @pytest.mark.parametrize(
        "bad",
        [np.array([[1.0, np.nan], [np.nan, 1.0]]), np.zeros((0, 0))],
        ids=["nan", "0x0"],
    )
    @pytest.mark.parametrize(
        "call",
        [
            lambda s: objective(np.eye(len(s)), s, s),
            lambda s: objective_gradient(np.eye(len(s)), s, s),
            lambda s: solve_closed_form(s, s),
            lambda s: solve_gradient(s, s),
        ],
        ids=["objective", "objective_gradient", "solve_closed_form", "solve_gradient"],
    )
    def test_empty_or_non_finite_rejected(self, call, bad):
        with pytest.raises(
            InvalidInput, match=r"must be a non-empty 2-D array, got shape \(0, 0\)$|contains non-finite entries$"
        ):
            call(bad)


class TestClosedForm:
    def test_identical_statistics_give_identity(self, rng):
        s = make_spd(rng, 5)
        w = solve_closed_form(s, s, eps=1e-3)
        assert np.linalg.norm(w - np.eye(5)) <= 1e-10

    def test_scalar_whitening(self):
        w = solve_closed_form(4 * np.eye(2), np.eye(2), eps=0.0)
        assert np.allclose(w, 0.5 * np.eye(2), rtol=1e-10)
        assert np.allclose(w.T @ (4 * np.eye(2)) @ w, np.eye(2), rtol=1e-9)

    def test_residual_oracle_d8(self, rng):
        for _ in range(10):
            st = make_spd(rng, 8, cond=1e4)
            ss = make_spd(rng, 8, cond=1e4)
            w = solve_closed_form(st, ss, eps=1e-3)
            st_reg, ss_reg = shrink(st, 1e-3), shrink(ss, 1e-3)
            residual = np.linalg.norm(w.T @ st_reg @ w - ss_reg)
            assert residual <= 1e-8 * np.linalg.norm(ss_reg)

    def test_constraint_up_to_condition_1e6(self, rng):
        for d in (2, 4, 8):
            st = make_spd(rng, d, cond=1e6)
            ss = make_spd(rng, d, cond=1e6)
            w = solve_closed_form(st, ss, eps=1e-3)
            st_reg, ss_reg = shrink(st, 1e-3), shrink(ss, 1e-3)
            residual = np.linalg.norm(w.T @ st_reg @ w - ss_reg)
            assert residual <= 1e-8 * np.linalg.norm(ss_reg)

    def test_deterministic(self, rng):
        st = make_spd(rng, 4)
        ss = make_spd(rng, 4)
        assert np.array_equal(
            solve_closed_form(st, ss, eps=1e-3), solve_closed_form(st, ss, eps=1e-3)
        )

    @pytest.mark.parametrize("rank", [None, 1, 3], ids=["full", "rank1", "rank3"])
    def test_equals_public_steps(self, rng, rank):
        # the solve skips the public checks, not any arithmetic
        for d in (1, 4, 9):
            if rank is None:
                st, ss = make_spd(rng, d, cond=1e4), make_spd(rng, d, cond=1e4)
            else:
                st = make_spd(rng, d)
                ss = covariance(rng.standard_normal((rank + 1, d)))[1]
            for eps in (0.0, 1e-3) if rank is None else (1e-3, 0.5):
                expected = spd_power(shrink(st, eps), -0.5) @ spd_power(shrink(ss, eps), 0.5)
                assert np.array_equal(solve_closed_form(st, ss, eps), expected)

    def test_nearly_symmetric_inputs_are_symmetrized_first(self, rng):
        # both inputs may be asymmetric within SYMMETRY_ATOL x max|entry|; the
        # solve returns the bits of symmetrizing them first and then solving
        for d in (2, 5, 16):
            st, ss = (
                s + np.triu(rng.uniform(-4e-10, 4e-10, (d, d)), 1) * np.abs(s).max()
                for s in (make_spd(rng, d) for _ in range(2))
            )
            assert not np.array_equal(st, st.T) and not np.array_equal(ss, ss.T)
            expected = solve_closed_form((st + st.T) / 2, (ss + ss.T) / 2, 1e-3)
            assert np.array_equal(solve_closed_form(st, ss, 1e-3), expected)

    def test_overflowing_ridge_rejected(self):
        # the trace overflows, so shrink rejects its own ridge, without a RuntimeWarning
        huge = np.diag([1.7e308, 1.7e308])
        with pytest.raises(
            InvalidInput,
            match=r"^sigma's diagonal plus the ridge eps \* trace / d = inf \(eps 0\.001, trace inf, d 2\) "
            "overflows float64; lower eps or rescale the embeddings$",
        ):
            solve_closed_form(huge, np.eye(2))

    @pytest.mark.parametrize("eps", [np.nan, np.inf, -1.0, "x", True])
    def test_bad_eps_rejected(self, eps):
        # a NaN eps used to surface as NumericalFailure from the eigensolver
        with pytest.raises(InvalidInput, match="eps must be finite"):
            solve_closed_form(np.eye(2), np.eye(2), eps)


class TestGradientSolver:
    def test_parameters(self):
        # the start is always the identity and the stall tolerance DEFAULT_TOL
        names = ["sigma_t", "sigma_s_hat", "lr", "max_iters", "eps"]
        assert list(inspect.signature(solve_gradient).parameters) == names

    def test_fixed_point_when_already_aligned(self, rng):
        s = make_spd(rng, 3)
        w, trace = solve_gradient(s, s, max_iters=50, eps=1e-3)
        assert np.array_equal(w, np.eye(3))  # gradient is exactly zero at I
        assert all(v == trace.objective_values[0] for v in trace.objective_values)
        assert trace.converged

    def test_decreases_objective_on_random_pair(self, rng):
        st = make_spd(rng, 4, cond=30.0)
        ss = make_spd(rng, 4, cond=30.0)
        w, trace = solve_gradient(st, ss, max_iters=500, eps=1e-3)
        assert trace.objective_values[-1] < trace.objective_values[0]
        assert min(trace.objective_values) == objective(
            w, shrink(st, 1e-3), shrink(ss, 1e-3)
        )

    def test_best_so_far_running_minimum_non_increasing(self, rng):
        st = make_spd(rng, 3, cond=10.0)
        ss = make_spd(rng, 3, cond=10.0)
        _, trace = solve_gradient(st, ss, max_iters=200, eps=1e-3)
        running = np.minimum.accumulate(trace.objective_values)
        assert np.all(np.diff(running) <= 0)

    def test_analytic_gradient_matches_finite_differences(self, rng):
        st = make_spd(rng, 4)
        ss = make_spd(rng, 4)
        w = np.eye(4) + 0.1 * rng.standard_normal((4, 4))
        grad = objective_gradient(w, st, ss)
        step = 1e-6
        for _ in range(5):
            i, j = rng.integers(0, 4, size=2)
            bump = np.zeros((4, 4))
            bump[i, j] = step
            numeric = (objective(w + bump, st, ss) - objective(w - bump, st, ss)) / (2 * step)
            assert grad[i, j] == pytest.approx(numeric, rel=1e-4)

    def test_divergence_reports_last_finite_iterate(self):
        # eigenvalues ~100 need lr < 2/(4*100^2); the 1e-3 default blows up
        st = 100.0 * np.eye(2)
        ss = np.eye(2)
        with pytest.raises(DivergenceError) as info:
            solve_gradient(st, ss, lr=1e-3, max_iters=100, eps=0.0)
        assert np.all(np.isfinite(info.value.last_iterate))
        assert len(info.value.objective_values) >= 1

    def test_divergence_carries_best_iterate(self):
        # the carried iterate is the lowest-objective one (here the starting
        # identity), not the last finite one, whose objective is ~1e258
        st = 100.0 * np.eye(2)
        ss = np.eye(2)
        with pytest.raises(DivergenceError) as info:
            solve_gradient(st, ss, lr=1e-3, max_iters=100, eps=0.0)
        err = info.value
        assert objective(err.last_iterate, shrink(st, 0.0), shrink(ss, 0.0)) == min(err.objective_values)
        assert err.objective_values[-1] > min(err.objective_values)

    def test_non_integer_max_iters_rejected(self, rng):
        s = make_spd(rng, 2)
        with pytest.raises(InvalidInput, match="max_iters must be an integer"):
            solve_gradient(s, s, max_iters=5.0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, 0.0, -1e-3, "x", True])
    def test_bad_lr_rejected(self, lr):
        # a NaN lr used to run and raise DivergenceError ("retry with a smaller learning rate")
        with pytest.raises(InvalidInput, match="learning rate must be finite and positive"):
            solve_gradient(np.eye(2), np.eye(2), lr=lr)

    def test_none_lr_derives_the_step(self):
        # lr=None is 1e-3 / lambda_max^2 of the regularized sigma_t: stable on
        # the pair where the fixed 1e-3 diverges (test_divergence_carries_best_iterate)
        st, ss = 100.0 * np.eye(2), np.eye(2)
        lam = float(np.linalg.eigvalsh(shrink(st, 0.0)).max())
        w, trace = solve_gradient(st, ss, max_iters=100, eps=0.0)
        w_explicit, trace_explicit = solve_gradient(st, ss, lr=1e-3 / lam / lam, max_iters=100, eps=0.0)
        assert np.array_equal(w, w_explicit)
        assert trace.objective_values == trace_explicit.objective_values
        assert trace.objective_values[-1] < trace.objective_values[0]

    def test_nan_eps_rejected(self):
        with pytest.raises(InvalidInput, match="eps must be finite"):
            solve_gradient(np.eye(2), np.eye(2), eps=np.nan)

    def test_early_stop_flags_convergence(self, rng):
        # at this step the objective decays geometrically to rounding (231
        # iterations), where it stops improving and the stall rule fires; at
        # lr = 1e-2 it still improves by 3 % a step at iteration 1000
        st = make_spd(rng, 2, cond=3.0)
        ss = make_spd(rng, 2, cond=3.0)
        _, trace = solve_gradient(st, ss, lr=1e-1, max_iters=1000, eps=1e-3)
        assert trace.converged
        assert trace.iterations < 1000


class TestApplyTransform:
    def test_identity_transform(self, rng):
        z = rng.standard_normal((6, 3))
        t = AlignmentTransform(w=np.eye(3), mu_t=np.zeros(3), mu_s_hat=np.zeros(3))
        assert np.array_equal(apply_transform(z, t), z)

    def test_pure_shift(self):
        t = AlignmentTransform(
            w=np.eye(2), mu_t=np.array([1.0, 1.0]), mu_s_hat=np.array([0.0, 0.0])
        )
        out = apply_transform([[2.0, 3.0]], t)
        assert np.array_equal(out, [[1.0, 2.0]])

    def test_exact_w_reproduces_target_covariance_and_mean(self, rng):
        z = rng.standard_normal((200, 4)) @ rng.standard_normal((4, 4)) + 5.0
        mu_t, sigma_t = covariance(z)
        target = make_spd(rng, 4, cond=20.0)
        mu_target = rng.standard_normal(4)
        w = solve_closed_form(sigma_t, target, eps=0.0)
        t = AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_target)
        out = apply_transform(z, t)
        mu_out, sigma_out = covariance(out)
        target_reg = shrink(target, 0.0)
        assert np.linalg.norm(sigma_out - target_reg) <= 1e-6 * np.linalg.norm(target_reg)
        assert np.max(np.abs(mu_out - mu_target)) <= 1e-10

    def test_mean_alignment_holds_for_any_w(self, rng):
        z = rng.standard_normal((50, 3)) * 4 + 2
        mu_t = z.mean(axis=0)
        t = AlignmentTransform(
            w=rng.standard_normal((3, 3)), mu_t=mu_t, mu_s_hat=np.array([1.0, -2.0, 0.5])
        )
        mu_out = apply_transform(z, t).mean(axis=0)
        assert np.max(np.abs(mu_out - t.mu_s_hat)) <= 1e-10

    def test_degenerate_alignment_is_identity(self, rng):
        # pseudo-source equal to the test set, same eps on both sides
        z = rng.standard_normal((40, 3)) * 2 + 1
        mu_t, sigma_t = covariance(z)
        w = solve_closed_form(sigma_t, sigma_t, eps=1e-3)
        t = AlignmentTransform(w=w, mu_t=mu_t, mu_s_hat=mu_t)
        out = apply_transform(z, t)
        assert np.max(np.abs(out - z)) <= 1e-8

    def test_dimension_mismatch_rejected(self, rng):
        t = AlignmentTransform(w=np.eye(2), mu_t=np.zeros(2), mu_s_hat=np.zeros(2))
        with pytest.raises(
            InvalidInput, match="^embedding dimension 3 does not match transform dimension 2$"
        ):
            apply_transform(rng.standard_normal((5, 3)), t)

    def test_non_finite_transform_rejected(self):
        with pytest.raises(InvalidInput):
            AlignmentTransform(
                w=np.array([[np.inf, 0.0], [0.0, 1.0]]),
                mu_t=np.zeros(2),
                mu_s_hat=np.zeros(2),
            )

    @pytest.mark.parametrize("w", [np.float64(1.0), np.ones(1)], ids=["0-d", "1-d"])
    def test_non_matrix_w_rejected(self, w):
        # a 0-d w used to raise IndexError from its missing shape[0]
        with pytest.raises(InvalidInput):
            AlignmentTransform(w=w, mu_t=np.zeros(1), mu_s_hat=np.zeros(1))


@pytest.mark.parametrize(
    "call, error, pattern",
    [
        (
            lambda: AlignmentTransform(w=np.eye(2), mu_t=np.zeros(3), mu_s_hat=np.zeros(2)),
            InvalidInput,
            r"^inconsistent transform shapes: w \(2, 2\), mu_t \(3,\), mu_s_hat \(2,\)$",
        ),
        (
            # the identity's residual, 1e200 on the diagonal, squares beyond float64
            lambda: solve_gradient(np.diag([1e200, 1.0]), np.eye(2)),
            DivergenceError,
            r"^objective is non-finite at the initial iterate$",
        ),
        (
            # the objective is 0, but 1e-3 / lambda_max^2 = 1e-3 / 1e400 underflows
            lambda: solve_gradient(1e200 * np.eye(2), 1e200 * np.eye(2)),
            InvalidInput,
            r"^the default step 1e-3 / lambda_max\^2 of sigma_t \(lambda_max 1e\+200\) is not a "
            r"positive float64; pass lr or rescale the embeddings$",
        ),
    ],
    ids=["transform-shapes", "initial-objective", "default-step-underflow"],
)
def test_rejections(call, error, pattern):
    with pytest.raises(error, match=pattern) as info:
        call()
    if error is DivergenceError:
        assert np.array_equal(info.value.last_iterate, np.eye(2))
        assert info.value.objective_values == []
