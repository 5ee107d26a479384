import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tcalign
from tcalign.cli import main
from tcalign.io import read_embeddings, read_labels, write_embeddings, write_labels


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """synth + train-head artifacts shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["synth", "--shift", "linear", "--seed", "0", "--out", str(data_dir)]) == 0
    head_path = root / "head.json"
    code = main(
        [
            "train-head",
            "--embeddings", str(data_dir / "source.tcae"),
            "--labels", str(data_dir / "source.tcal"),
            "--lr", "0.1",
            "--epochs", "200",
            "--out", str(head_path),
        ]
    )
    assert code == 0
    return root, data_dir, head_path


class TestSynth:
    def test_writes_all_four_files(self, workspace):
        _, data_dir, _ = workspace
        assert read_embeddings(data_dir / "source.tcae").shape == (90, 2)
        assert read_embeddings(data_dir / "target.tcae").shape == (750, 2)
        assert read_labels(data_dir / "source.tcal").shape == (90,)
        assert read_labels(data_dir / "target.tcal").shape == (750,)

    def test_nonlinear_variant(self, tmp_path):
        out = tmp_path / "nl"
        assert main(["synth", "--shift", "nonlinear", "--seed", "2", "--out", str(out)]) == 0
        assert read_embeddings(out / "target.tcae").shape == (1000, 2)


class TestAdapt:
    def test_transductive_run(self, workspace, tmp_path):
        _, data_dir, head_path = workspace
        preds_path = tmp_path / "preds.csv"
        report_path = tmp_path / "report.json"
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--labels", str(data_dir / "target.tcal"),
                "--out-preds", str(preds_path),
                "--out-report", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["mode"] == "transductive"
        assert report["n"] == 750
        assert 0.0 <= report["accuracy_after"] <= 1.0
        assert preds_path.read_text().startswith("argmax,p0,p1,p2")

    def test_online_run(self, workspace, tmp_path):
        _, data_dir, head_path = workspace
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--mode", "online",
                "--batch-size", "64",
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["mode"] == "online"

    def test_invalid_k_exits_2(self, workspace, tmp_path):
        _, data_dir, head_path = workspace
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--k", "1",
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "flags",
        [["--eps", "nan"], ["--eps", "inf"], ["--solver", "gradient", "--lr", "nan"]],
        ids=["eps-nan", "eps-inf", "lr-nan"],
    )
    def test_non_finite_numerics_exit_2(self, workspace, tmp_path, flags):
        # rejected as a bad option, not as a divergence (4) or a bad transform
        _, data_dir, head_path = workspace
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                *flags,
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        assert not (tmp_path / "p.csv").exists()

    def test_corrupt_test_file_exits_3(self, workspace, tmp_path):
        _, _, head_path = workspace
        bad = tmp_path / "bad.tcae"
        bad.write_bytes(b"JUNKJUNKJUNK")
        code = main(
            [
                "adapt",
                "--test", str(bad),
                "--head", str(head_path),
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3

    def test_missing_file_exits_2(self, workspace, tmp_path):
        _, _, head_path = workspace
        code = main(
            [
                "adapt",
                "--test", str(tmp_path / "nope.tcae"),
                "--head", str(head_path),
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2

    def test_gradient_divergence_exits_4(self, workspace, tmp_path):
        # demo covariances have eigenvalues near 90; the 1e-3 step blows up
        _, data_dir, head_path = workspace
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--solver", "gradient",
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 4


class TestEval:
    def test_eval_matches_report(self, workspace, tmp_path, capsys):
        _, data_dir, head_path = workspace
        preds_path = tmp_path / "preds.csv"
        report_path = tmp_path / "report.json"
        main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--labels", str(data_dir / "target.tcal"),
                "--out-preds", str(preds_path),
                "--out-report", str(report_path),
            ]
        )
        capsys.readouterr()
        code = main(["eval", "--preds", str(preds_path), "--labels", str(data_dir / "target.tcal")])
        assert code == 0
        got = json.loads(capsys.readouterr().out.strip())
        report = json.loads(report_path.read_text())
        assert got["accuracy"] == pytest.approx(report["accuracy_after"], abs=1e-12)


class TestValidateTheory:
    def test_groups_experiment(self, workspace, tmp_path, capsys):
        _, data_dir, head_path = workspace
        out_csv = tmp_path / "groups.csv"
        code = main(
            [
                "validate-theory",
                "--experiment", "groups",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--source", str(data_dir / "source.tcae"),
                "--n-groups", "5",
                "--out-csv", str(out_csv),
            ]
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "group_index,mean_uncertainty,dist_to_source"
        assert len(lines) == 6
        summary = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert summary["experiment"] == "groups"

    def test_trace_experiment_with_stable_lr(self, workspace, tmp_path, capsys):
        _, data_dir, head_path = workspace
        out_csv = tmp_path / "trace.csv"
        code = main(
            [
                "validate-theory",
                "--experiment", "trace",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--source", str(data_dir / "source.tcae"),
                "--labels", str(data_dir / "target.tcal"),
                "--lr", "1e-7",
                "--iters", "300",
                "--out-csv", str(out_csv),
            ]
        )
        assert code == 0
        lines = out_csv.read_text().strip().split("\n")
        assert lines[0] == "iteration,dist_to_pseudo,dist_to_source,accuracy"
        assert len(lines) > 2

    def test_trace_requires_labels(self, workspace, tmp_path):
        _, data_dir, head_path = workspace
        code = main(
            [
                "validate-theory",
                "--experiment", "trace",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--source", str(data_dir / "source.tcae"),
                "--out-csv", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 2

    def test_trace_default_lr_diverges_exits_4(self, workspace, tmp_path):
        _, data_dir, head_path = workspace
        code = main(
            [
                "validate-theory",
                "--experiment", "trace",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--source", str(data_dir / "source.tcae"),
                "--labels", str(data_dir / "target.tcal"),
                "--out-csv", str(tmp_path / "t.csv"),
            ]
        )
        assert code == 4


class TestPlot:
    def test_three_series_svg(self, workspace, tmp_path):
        _, data_dir, _ = workspace
        out = tmp_path / "scatter.svg"
        code = main(
            [
                "plot",
                "--source", str(data_dir / "source.tcae"),
                "--target", str(data_dir / "target.tcae"),
                "--transformed", str(data_dir / "source.tcae"),
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.count("<circle") == 90 + 750 + 90 + 3

    def test_non_2d_embeddings_exit_2(self, tmp_path, rng):
        path = tmp_path / "wide.tcae"
        write_embeddings(path, rng.standard_normal((5, 3)))
        code = main(["plot", "--source", str(path), "--target", str(path), "--out", str(tmp_path / "o.svg")])
        assert code == 2


def test_console_script_runs(tmp_path):
    # the child imports the same tcalign as this process, installed or not
    src = os.path.dirname(os.path.dirname(tcalign.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "tcalign.cli",
            "synth", "--shift", "linear", "--seed", "1", "--out", str(tmp_path / "smoke"),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "wrote linear shift" in proc.stdout
