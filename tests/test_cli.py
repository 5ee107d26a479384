import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tcalign
from tcalign import AdaptConfig, cli
from tcalign.cli import _build_parser, main
from tcalign.io import read_embeddings, read_labels, write_embeddings, write_labels
from tcalign.experiments import DEFAULT_LR, DEFAULT_MAX_ITERS


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


def adapt_argv(workspace, tmp_path) -> list[str]:
    """``tcalign adapt`` of the demo target with its labels, writing into ``tmp_path``."""
    _, data_dir, head_path = workspace
    return [
        "adapt",
        "--test", str(data_dir / "target.tcae"),
        "--head", str(head_path),
        "--labels", str(data_dir / "target.tcal"),
        "--out-preds", str(tmp_path / "p.csv"),
        "--out-report", str(tmp_path / "r.json"),
    ]


def trace_argv(workspace, tmp_path) -> list[str]:
    """``tcalign validate-theory trace`` of the demo, writing into ``tmp_path``."""
    _, data_dir, head_path = workspace
    return [
        "validate-theory",
        "trace",
        "--test", str(data_dir / "target.tcae"),
        "--head", str(head_path),
        "--source", str(data_dir / "source.tcae"),
        "--labels", str(data_dir / "target.tcal"),
        "--out-csv", str(tmp_path / "t.csv"),
    ]


def groups_argv(workspace, tmp_path) -> list[str]:
    """``tcalign validate-theory groups`` of the demo, writing into ``tmp_path``."""
    _, data_dir, head_path = workspace
    return [
        "validate-theory",
        "groups",
        "--test", str(data_dir / "target.tcae"),
        "--head", str(head_path),
        "--source", str(data_dir / "source.tcae"),
        "--out-csv", str(tmp_path / "g.csv"),
    ]


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

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    @pytest.mark.parametrize("flags", [["--solver", "closed"], []], ids=["closed", "default"])
    def test_report_keys(self, workspace, tmp_path, mode, flags):
        # the key list is the report file's schema: change it here, deliberately
        code = main([*adapt_argv(workspace, tmp_path), "--mode", mode, *flags])
        assert code == 0
        report = json.loads((tmp_path / "r.json").read_text())
        keys = [
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
        assert list(report) == keys

    def test_solver_closed_is_the_default(self, workspace, tmp_path, capsys):
        # --solver closed, as older command lines pass it, changes no output byte
        outputs = []
        for flags in (["--solver", "closed"], []):
            assert main([*adapt_argv(workspace, tmp_path), "--mode", "online", *flags]) == 0
            files = [(tmp_path / name).read_bytes() for name in ("p.csv", "r.json")]
            outputs.append((*files, capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "flags",
        [["--solver", "gradient"], ["--lr", "1e-7"], ["--iters", "20"]],
        ids=["solver-gradient", "lr", "iters"],
    )
    def test_gradient_options_rejected(self, workspace, tmp_path, flags):
        # the adapt loop has one solver; the gradient options belong to the trace
        with pytest.raises(SystemExit) as exc:
            main([*adapt_argv(workspace, tmp_path), *flags])
        assert exc.value.code == 2
        assert not (tmp_path / "p.csv").exists()

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
        "argv, flags",
        [
            (adapt_argv, ["--eps", "nan"]),
            (adapt_argv, ["--eps", "inf"]),
            (trace_argv, ["--lr", "nan"]),
        ],
        ids=["eps-nan", "eps-inf", "lr-nan"],
    )
    def test_non_finite_numerics_exit_2(self, workspace, tmp_path, argv, flags):
        # rejected as a bad option, not as a divergence (4) or a bad transform
        code = main([*argv(workspace, tmp_path), *flags])
        assert code == 2
        assert [path.name for path in tmp_path.iterdir()] == []

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

    def test_nan_test_file_exits_3(self, workspace, tmp_path):
        _, data_dir, head_path = workspace
        bad = tmp_path / "nan.tcae"
        blob = bytearray((data_dir / "target.tcae").read_bytes())
        blob[25:33] = np.array([np.nan], dtype="<f8").tobytes()
        bad.write_bytes(bytes(blob))
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

    def test_non_utf8_head_exits_3(self, workspace, tmp_path, capsys):
        # undecodable bytes used to escape as a UnicodeDecodeError traceback (exit 1)
        _, data_dir, head_path = workspace
        bad = tmp_path / "head.json"
        bad.write_bytes(head_path.read_bytes().replace(b'"version"', b'"v\xe9rsion"'))
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(bad),
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not UTF-8 text (byte offset 6)" in err

    def test_boolean_head_dimension_exits_3(self, workspace, tmp_path, capsys):
        # a bool is an int in Python, so "d": true would pass an isinstance check as d = 1
        _, data_dir, _ = workspace
        bad = tmp_path / "head.json"
        bad.write_text('{"version": 1, "c": 2, "d": true, "weight": [[1], [2]], "bias": [0, 0]}')
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(bad),
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: c and d must be integers with c >= 2, d >= 1 (fields 'c'/'d')\n"

    @pytest.mark.parametrize("mode", ["transductive", "online"])
    def test_head_of_wrong_dimension_exits_2(self, workspace, tmp_path, capsys, mode):
        _, data_dir, _ = workspace
        wide = tmp_path / "head.json"
        tcalign.save_head(tcalign.SoftmaxHead(weight=np.zeros((3, 5)), bias=np.zeros(3)), wide)
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(wide),
                "--mode", mode,
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "error: embedding dimension 2 does not match head dimension 5\n"
        assert not (tmp_path / "p.csv").exists()

    def test_too_deeply_nested_head_exits_3(self, workspace, tmp_path, capsys):
        # json's nesting limit used to escape as a RecursionError traceback (exit 1)
        _, data_dir, _ = workspace
        bad = tmp_path / "head.json"
        bad.write_text("[" * 100000)
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(bad),
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON in head file") and err.endswith("(top level)\n")

    def test_report_onto_directory_leaves_no_temp_file(self, workspace, tmp_path):
        # the rename onto a directory fails; its temp file must not outlive it
        _, data_dir, head_path = workspace
        taken = tmp_path / "taken"
        taken.mkdir()
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(head_path),
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(taken),
            ]
        )
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["p.csv", "taken"]
        assert list(taken.iterdir()) == []

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
        # only the trace runs the gradient solver; the demo covariances have
        # eigenvalues near 90, so an explicit 1e-3 step blows up
        code = main([*trace_argv(workspace, tmp_path), "--lr", "1e-3"])
        assert code == 4

    def test_overflowing_logits_exit_4(self, workspace, tmp_path, capsys):
        # finite rows whose logits overflow have no softmax; this used to exit 2
        # on a misleading "probabilities must be nonnegative"
        _, data_dir, _ = workspace
        huge = tmp_path / "huge.json"
        tcalign.save_head(tcalign.SoftmaxHead(weight=np.eye(3, 2) * 1e307, bias=np.zeros(3)), huge)
        code = main(
            [
                "adapt",
                "--test", str(data_dir / "target.tcae"),
                "--head", str(huge),
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(tmp_path / "r.json"),
            ]
        )
        assert code == 4
        assert "logits z W^T + b are not finite" in capsys.readouterr().err


    def test_stdout_is_strict_json(self, tmp_path, capsys):
        # rows at 1e78 overflow the test covariance's distance to inf; it used
        # to print as Infinity, which is not JSON, while report.json held null
        rng = np.random.default_rng(0)
        write_embeddings(tmp_path / "big.tcae", rng.standard_normal((200, 3)) * 1e78)
        head = tcalign.SoftmaxHead(weight=rng.standard_normal((2, 3)) * 1e-78, bias=np.zeros(2))
        tcalign.save_head(head, tmp_path / "head.json")
        report_path = tmp_path / "r.json"
        code = main(
            [
                "adapt",
                "--test", str(tmp_path / "big.tcae"),
                "--head", str(tmp_path / "head.json"),
                "--out-preds", str(tmp_path / "p.csv"),
                "--out-report", str(report_path),
            ]
        )
        assert code == 0

        def reject(constant):
            raise AssertionError(f"{constant} is not JSON")

        printed = json.loads(capsys.readouterr().out, parse_constant=reject)
        report = json.loads(report_path.read_text(), parse_constant=reject)
        assert printed["dist_test_to_pseudo_before"] is None
        assert printed == {key: report[key] for key in printed}


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


    def test_non_utf8_predictions_exit_3(self, workspace, tmp_path, capsys):
        _, data_dir, _ = workspace
        bad = tmp_path / "preds.csv"
        bad.write_bytes(b"argmax,p0,p1,p2\n0,0.5,0.5,\xff\n")
        code = main(["eval", "--preds", str(bad), "--labels", str(data_dir / "target.tcal")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "is not UTF-8 text (byte offset 26)" in err

    def test_argmax_outside_int64_exits_3(self, workspace, tmp_path, capsys):
        # the int64 cast used to escape as an OverflowError traceback (exit 1)
        _, data_dir, _ = workspace
        bad = tmp_path / "preds.csv"
        bad.write_text("argmax,p0,p1,p2\n0,0.5,0.5,0\n99999999999999999999999,0.5,0.5,0\n")
        code = main(["eval", "--preds", str(bad), "--labels", str(data_dir / "target.tcal")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: unparseable number") and err.endswith("(line 3)\n")


class TestValidateTheory:
    def test_groups_experiment(self, workspace, tmp_path, capsys):
        _, data_dir, head_path = workspace
        out_csv = tmp_path / "groups.csv"
        code = main(
            [
                "validate-theory",
                "groups",
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
                "trace",
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
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "validate-theory",
                    "trace",
                    "--test", str(data_dir / "target.tcae"),
                    "--head", str(head_path),
                    "--source", str(data_dir / "source.tcae"),
                    "--out-csv", str(tmp_path / "t.csv"),
                ]
            )
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, flags",
        [
            (groups_argv, ["--labels", "l"]),
            (groups_argv, ["--k", "5"]),
            (groups_argv, ["--eps", "0.1"]),
            (groups_argv, ["--select", "global"]),
            (groups_argv, ["--lr", "1e-7"]),
            (groups_argv, ["--iters", "5"]),
            (groups_argv, ["--record-every", "5"]),
            (trace_argv, ["--n-groups", "5"]),
        ],
        ids=lambda v: v[0].lstrip("-") if isinstance(v, list) else v.__name__.removesuffix("_argv"),
    )
    def test_other_experiments_options_rejected(self, workspace, tmp_path, argv, flags):
        # each experiment parses only the options it reads
        with pytest.raises(SystemExit) as exc:
            main([*argv(workspace, tmp_path), *flags])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [groups_argv, trace_argv], ids=["groups", "trace"])
    def test_experiment_option_rejected(self, workspace, tmp_path, argv):
        # the experiment is a sub-command, not an --experiment option
        command, experiment, *rest = argv(workspace, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--experiment", experiment, *rest])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    def test_trace_default_lr_diverges_exits_4(self, workspace, tmp_path):
        _, data_dir, head_path = workspace
        code = main(
            [
                "validate-theory",
                "trace",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["adapt", "--test", "t", "--head", "h", "--out-preds", "p", "--out-report", "r"],
        ["validate-theory", "trace", "--test", "t", "--head", "h", "--source", "s", "--labels", "l",
         "--out-csv", "o"],
    ],
    ids=["adapt", "validate-theory"],
)
def test_parser_defaults_match_adapt_config(argv):
    args = _build_parser().parse_args(argv)
    cfg = AdaptConfig()
    assert (args.k, args.eps, args.select.replace("-", "_")) == (cfg.k, cfg.eps, cfg.selection_mode)
    if argv[0] == "adapt":
        want = ("closed", cfg.batch_size, "transductive")
        assert (args.solver, args.batch_size, args.mode) == want
        assert not {"lr", "iters"} & set(vars(args))
    else:
        assert (args.lr, args.iters) == (DEFAULT_LR, DEFAULT_MAX_ITERS)


def eval_argv(workspace, tmp_path) -> list[str]:
    """``tcalign eval`` of an adapt run's predictions, written into ``tmp_path`` first."""
    assert main(adapt_argv(workspace, tmp_path)) == 0
    return ["eval", "--preds", str(tmp_path / "p.csv"), "--labels", str(workspace[1] / "target.tcal")]


COMMAND_ARGVS = {
    "synth": lambda ws, tmp: ["synth", "--shift", "linear", "--out", str(tmp / "s")],
    "train-head": lambda ws, tmp: [
        "train-head",
        "--embeddings", str(ws[1] / "source.tcae"),
        "--labels", str(ws[1] / "source.tcal"),
        "--epochs", "5",
        "--out", str(tmp / "h.json"),
    ],
    "adapt-transductive": adapt_argv,
    "adapt-online": lambda ws, tmp: [*adapt_argv(ws, tmp), "--mode", "online"],
    "validate-theory-groups": groups_argv,
    "validate-theory-trace": lambda ws, tmp: [*trace_argv(ws, tmp), "--lr", "1e-7", "--iters", "20"],
    "eval": eval_argv,
    "plot": lambda ws, tmp: [
        "plot",
        "--source", str(ws[1] / "source.tcae"),
        "--target", str(ws[1] / "target.tcae"),
        "--transformed", str(ws[1] / "source.tcae"),
        "--out", str(tmp / "o.svg"),
    ],
}

# bench/run.py still passes `adapt --solver closed`; the flag goes once the
# benchmark stops passing it (ROADMAP item 8)
UNREAD = {"adapt": {"solver"}}


@pytest.mark.parametrize("name", list(COMMAND_ARGVS))
def test_every_parsed_option_is_read(workspace, tmp_path, name):
    # an option its handler never reads would be accepted and silently ignored
    read = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, attr):
            read.add(attr)
            return super().__getattribute__(attr)

    args = _build_parser().parse_args(COMMAND_ARGVS[name](workspace, tmp_path), Recording())
    handler = cli._COMMANDS[args.command]
    read.clear()  # argparse reads the namespace while it fills it
    assert handler(args) == 0
    used = {attr for attr in read if not attr.startswith("_")}
    assert used == set(vars(args)) - {"command"} - UNREAD.get(args.command, set())


@pytest.mark.parametrize(
    "error, code",
    [
        (tcalign.InvalidInput("bad"), 2),
        (tcalign.InvalidConfig("bad"), 2),
        (tcalign.InsufficientSamples("bad"), 2),
        (tcalign.DegenerateLabels("bad"), 2),
        (tcalign.TcaError("bad"), 2),
        (FileNotFoundError("bad"), 2),
        (tcalign.ParseError("bad"), 3),
        (tcalign.NumericalFailure("bad"), 4),
        (tcalign.SingularMatrix("bad"), 4),
        (tcalign.DivergenceError("bad"), 4),
    ],
    ids=lambda v: type(v).__name__ if isinstance(v, Exception) else str(v),
)
def test_exit_codes(monkeypatch, capsys, error, code):
    # the exit codes the README documents, with the error printed once
    def fail(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "eval", fail)
    assert main(["eval", "--preds", "p", "--labels", "l"]) == code
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: bad\n")


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
