"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line. Criteria
are asserted at their stated tolerances; failures carry the measured values.
"""

import math
import time

import numpy as np
import pytest

from tcalign import (
    AdaptConfig,
    CovarianceAccumulator,
    DivergenceError,
    ParseError,
    SoftmaxHead,
    adapt_online,
    adapt_transductive,
    covariance,
    gen_linear_shift,
    load_head,
    most_certain,
    objective,
    objective_gradient,
    predict,
    save_head,
    shrink,
    solve_closed_form,
    solve_gradient,
    spearman,
    train_head,
    validate_alignment_trace,
    validate_uncertainty_groups,
)
from tcalign.io import read_embeddings, read_labels, write_embeddings, write_labels
from conftest import make_spd, streamed_pseudo_source


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def demos():
    """Linear-shift datasets and their source-trained heads for seeds 0-2."""
    out = {}
    for seed in (0, 1, 2):
        data = gen_linear_shift(seed)
        head = train_head(data.source.features, data.source.labels, lr=0.1, epochs=2000)
        out[seed] = (data, head)
    return out


def test_criterion_01_closed_form_constraint():
    rng = np.random.default_rng(1)
    start = time.perf_counter()
    worst = 0.0
    for d in (2, 4, 8, 16):
        for _ in range(25):
            sigma_t = make_spd(rng, d, cond=float(rng.uniform(2, 1e4)))
            sigma_s = make_spd(rng, d, cond=float(rng.uniform(2, 1e4)))
            w = solve_closed_form(sigma_t, sigma_s, eps=1e-3)
            st_reg, ss_reg = shrink(sigma_t, 1e-3), shrink(sigma_s, 1e-3)
            residual = np.linalg.norm(w.T @ st_reg @ w - ss_reg) / np.linalg.norm(ss_reg)
            worst = max(worst, residual)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 1.0
    report(1, ok, f"100 pairs, worst relative residual {worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8, f"worst residual {worst:.2e} exceeds 1e-8"
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"


def test_criterion_02_gradient_solver():
    rng = np.random.default_rng(2)
    start = time.perf_counter()
    for trial in range(20):
        sigma_t = make_spd(rng, 4, cond=float(rng.uniform(2, 50)), scale=2.0)
        sigma_s = make_spd(rng, 4, cond=float(rng.uniform(2, 50)), scale=2.0)
        _, trace = solve_gradient(sigma_t, sigma_s, lr=1e-3, max_iters=1000, eps=1e-3)
        assert trace.objective_values[-1] < trace.objective_values[0], (
            f"trial {trial}: no objective decrease"
        )
        w = np.eye(4) + 0.05 * rng.standard_normal((4, 4))
        grad = objective_gradient(w, sigma_t, sigma_s)
        for _ in range(5):
            i, j = rng.integers(0, 4, size=2)
            bump = np.zeros((4, 4))
            bump[i, j] = 1e-6
            numeric = (objective(w + bump, sigma_t, sigma_s) - objective(w - bump, sigma_t, sigma_s)) / 2e-6
            rel = abs(grad[i, j] - numeric) / max(abs(numeric), 1e-12)
            assert rel <= 1e-4, f"trial {trial}: gradient mismatch {rel:.2e} at ({i},{j})"
    elapsed = time.perf_counter() - start
    report(2, elapsed < 5.0, f"20 pairs decreased objective, gradients match FD, {elapsed:.2f}s")
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"


def test_criterion_03_streaming_covariance():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((500, 8)) * 4 + 1
    mean_ref, sigma_ref = covariance(z)
    worst = 0.0
    for batch in (1, 7, 64, 500):
        acc = CovarianceAccumulator(8)
        for lo in range(0, 500, batch):
            acc.update(z[lo : lo + batch])
        mean, sigma = acc.finalize()
        rel_mean = np.linalg.norm(mean - mean_ref) / max(np.linalg.norm(mean_ref), 1e-300)
        rel_sigma = np.linalg.norm(sigma - sigma_ref) / np.linalg.norm(sigma_ref)
        worst = max(worst, rel_mean, rel_sigma)
    ok = worst <= 1e-10
    report(3, ok, f"partitions (1,7,64,500): worst relative error {worst:.2e}")
    assert ok, f"worst relative error {worst:.2e} exceeds 1e-10"


def test_criterion_04_degenerate_identity(demos):
    data, head = demos[0]
    test = data.target.features
    preds, _, _ = adapt_transductive(test, head, AdaptConfig(k=len(test)), labels=data.target.labels)
    baseline = predict(head, test)
    gap = float(np.max(np.abs(preds.probs - baseline.probs)))
    same_argmax = bool(np.array_equal(preds.argmax, baseline.argmax))
    ok = gap <= 1e-8 and same_argmax
    report(4, ok, f"k >= n: max probability gap {gap:.2e}, argmax identical {same_argmax}")
    assert gap <= 1e-8 and same_argmax


def test_criterion_05_linear_shift_demo(demos):
    start = time.perf_counter()
    lines = []
    acc_ok = True
    dist_ok = True
    for seed in (0, 1, 2):
        data, head = demos[seed]
        source_stats = covariance(data.source.features)
        _, rep, _ = adapt_transductive(
            data.target.features,
            head,
            AdaptConfig(),
            labels=data.target.labels,
            source_stats=source_stats,
        )
        acc_ok &= rep.accuracy_after >= rep.accuracy_before
        dist_ok &= rep.dist_test_to_source_after < rep.dist_test_to_source_before
        lines.append(
            f"seed {seed}: acc {rep.accuracy_before:.3f}->{rep.accuracy_after:.3f}, "
            f"dist-to-source {rep.dist_test_to_source_before:.1f}->{rep.dist_test_to_source_after:.1f}"
        )
    elapsed = time.perf_counter() - start
    ok = acc_ok and dist_ok and elapsed < 10.0
    report(5, ok, "; ".join(lines) + f"; {elapsed:.1f}s")
    assert acc_ok, "accuracy_after < accuracy_before on some seed: " + "; ".join(lines)
    assert dist_ok, (
        "transformed-test covariance did not move closer to the true source covariance: "
        + "; ".join(lines)
    )
    assert elapsed < 10.0


def test_criterion_06_alignment_trace(demos):
    data, head = demos[0]
    source_stats = covariance(data.source.features)
    labels = data.target.labels
    test = data.target.features
    try:
        result = validate_alignment_trace(test, head, AdaptConfig(), source_stats, labels)
    except DivergenceError as exc:
        # the default step, 1e-3 / lambda_max^2 of the regularized test
        # covariance, is the step to judge; no other step is tried
        detail = f"default lr diverged=True; {exc}"
        report(6, False, detail)
        pytest.fail("gradient solver diverged at the default step 1e-3 / lambda_max^2: " + detail)
    rho_src = result.spearman_pseudo_vs_source
    rho_acc = result.spearman_pseudo_vs_accuracy
    ok = rho_src is not None and rho_acc is not None and rho_src >= 0.8 and rho_acc <= -0.5
    detail = (
        "default lr diverged=False; spearman(dist_pseudo,dist_source)="
        f"{rho_src}, spearman(dist_pseudo,accuracy)={rho_acc} over {len(result.rows)} records"
    )
    report(6, ok, detail)
    assert rho_src is not None and rho_src >= 0.8, detail
    assert rho_acc is not None and rho_acc <= -0.5, detail


def test_criterion_07_uncertainty_groups(demos):
    data, head = demos[0]
    source_stats = covariance(data.source.features)
    rows = validate_uncertainty_groups(data.target.features, head, source_stats, n_groups=5)
    rho = spearman([r.group_index for r in rows], [r.dist_to_source for r in rows])
    dists = ", ".join(f"{r.dist_to_source:.1f}" for r in rows)
    ok = rho is not None and rho > 0
    report(7, ok, f"5 groups, dists-to-source [{dists}], spearman {rho}")
    assert ok, f"spearman(group_index, dist_to_source) = {rho}, expected > 0; dists [{dists}]"


def test_criterion_08_triangle_inequality(demos):
    worst = -1.0
    checked = 0
    for seed in (0, 1, 2):
        data, head = demos[seed]
        source_stats = covariance(data.source.features)
        configs = [
            AdaptConfig(),
            AdaptConfig(k=100),
            AdaptConfig(selection_mode="class_balanced"),
            AdaptConfig(k=len(data.target.features)),
        ]
        reports = [
            adapt_transductive(
                data.target.features, head, cfg, labels=data.target.labels, source_stats=source_stats
            )[1]
            for cfg in configs
        ]
        reports.append(
            adapt_online(
                data.target.features,
                head,
                AdaptConfig(batch_size=64),
                labels=data.target.labels,
                source_stats=source_stats,
            )[1]
        )
        for rep in reports:
            lhs = math.sqrt(rep.dist_test_to_source_before)
            rhs = math.sqrt(rep.dist_test_to_pseudo_before) + math.sqrt(rep.dist_pseudo_to_source)
            worst = max(worst, lhs - rhs)
            checked += 1
    ok = worst <= 1e-9
    report(8, ok, f"{checked} adapt reports, worst triangle violation {worst:.2e}")
    assert ok, f"triangle inequality violated by {worst:.2e}"


def test_criterion_09_bank_oracle_equivalence():
    rng = np.random.default_rng(9)
    for trial in range(1000):
        n = int(rng.integers(1, 201))
        k = int(rng.integers(1, 21))
        # coarse uncertainty grid forces plenty of ties
        omegas = np.round(rng.uniform(0.0, 1.9, size=n), 2)
        # stream the rows through a capacity-k index bank, 1 to 4 rows at a time
        batch_size = 1 + trial % 4
        bank = np.empty(0, dtype=np.int64)
        for lo in range(0, n, batch_size):
            bank = np.concatenate([bank, np.arange(lo, min(lo + batch_size, n))])
            bank = most_certain(omegas[bank], k, bank)
        got = bank.tolist()
        expected = sorted(sorted(range(n), key=lambda i: (omegas[i], i))[: min(n, k)])
        assert got == expected, f"trial {trial}: n={n} k={k}"
    report(9, True, "1000 random streams match brute-force (uncertainty, arrival) selection")


def test_criterion_10_format_round_trips(tmp_path):
    rng = np.random.default_rng(10)
    for trial in range(100):
        n, d = int(rng.integers(1, 20)), int(rng.integers(1, 6))
        z = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-6, 7)
        path = tmp_path / "e.tcae"
        write_embeddings(path, z)
        assert np.array_equal(read_embeddings(path), z), f"embedding trial {trial}"

        labels = rng.integers(0, 50, size=int(rng.integers(1, 30)))
        lpath = tmp_path / "l.tcal"
        write_labels(lpath, labels)
        assert np.array_equal(read_labels(lpath), labels), f"label trial {trial}"

        c, hd = int(rng.integers(2, 6)), int(rng.integers(1, 5))
        head = SoftmaxHead(
            weight=rng.standard_normal((c, hd)) * 10.0 ** rng.integers(-4, 5),
            bias=rng.standard_normal(c),
        )
        hpath = tmp_path / "h.json"
        save_head(head, hpath)
        loaded = load_head(hpath)
        assert np.array_equal(loaded.weight, head.weight), f"head trial {trial}"
        assert np.array_equal(loaded.bias, head.bias), f"head trial {trial}"

    # 20 mutated or truncated corpora must all raise ParseError
    base = tmp_path / "base.tcae"
    write_embeddings(base, rng.standard_normal((8, 3)))
    blob = base.read_bytes()
    lbase = tmp_path / "base.tcal"
    write_labels(lbase, rng.integers(0, 9, size=12))
    lblob = lbase.read_bytes()
    corpora = [
        b"",
        b"TCA",
        b"XXXX" + blob[4:],
        blob[:10],
        blob[:24],
        blob[: len(blob) - 1],
        blob + b"\x00",
        blob[:4] + b"\x09" + blob[5:],          # bad version
        blob[:8] + b"\x07" + blob[9:],          # bad dtype code
        blob[:9] + (0).to_bytes(8, "little") + blob[17:],  # zero rows
        lblob[:3],
        b"QQQQ" + lblob[4:],
        lblob[: len(lblob) - 2],
        lblob + b"\xff",
        lblob[:4] + b"\x05" + lblob[5:],        # bad version
        b"{not json",
        b"{}",
        b'{"version": 1, "c": 2, "d": 1, "weight": [[1]], "bias": [0, 0]}',
        b'{"version": 1, "c": 2, "d": 1, "weight": [[1], [2]], "bias": [0]}',
        b'{"version": 3, "c": 2, "d": 1, "weight": [[1], [2]], "bias": [0, 0]}',
    ]
    failures = 0
    for idx, payload in enumerate(corpora):
        target = tmp_path / f"mut{idx}"
        target.write_bytes(payload)
        readers = (read_embeddings, read_labels, load_head)
        reader = readers[0] if idx < 10 else readers[1] if idx < 15 else readers[2]
        try:
            reader(target)
        except ParseError:
            failures += 1
        else:
            raise AssertionError(f"mutated corpus {idx} was accepted")
    report(10, True, f"100 round trips per format exact; {failures}/20 mutations rejected")


def test_criterion_11_batch_size_robustness(demos):
    data, head = demos[0]
    test = data.target.features
    labels = data.target.labels
    _, trans_report, _ = adapt_transductive(test, head, AdaptConfig(), labels=labels)
    _, sigma_ref = covariance(test)

    banks = []
    stats_err = 0.0
    acc_gaps = {}
    for batch_size in (1, 8, 64, 750):
        cfg = AdaptConfig(batch_size=batch_size)
        _, rep = adapt_online(test, head, cfg, labels=labels)
        acc_gaps[batch_size] = abs(rep.accuracy_after - trans_report.accuracy_after)

        acc = CovarianceAccumulator(2)
        for lo in range(0, len(test), batch_size):
            acc.update(test[lo : lo + batch_size])
        _, sigma = acc.finalize()
        stats_err = max(stats_err, np.linalg.norm(sigma - sigma_ref) / np.linalg.norm(sigma_ref))
        banks.append(streamed_pseudo_source(test, head, cfg))

    banks_equal = all(b == banks[0] for b in banks)
    worst_gap = max(acc_gaps.values())
    ok = banks_equal and stats_err <= 1e-10 and worst_gap <= 0.05
    detail = (
        f"banks identical {banks_equal}, stats err {stats_err:.2e}, "
        f"accuracy gaps {{1: {acc_gaps[1]:.3f}, 8: {acc_gaps[8]:.3f}, "
        f"64: {acc_gaps[64]:.3f}, 750: {acc_gaps[750]:.3f}}} (tolerance 0.05)"
    )
    report(11, ok, detail)
    assert banks_equal, detail
    assert stats_err <= 1e-10, detail
    assert worst_gap <= 0.05, "online accuracy beyond 5 points of transductive: " + detail
