"""Closed-loop benchmark of tcalign's adapt step.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One client runs one adapt at a time,
each in a fresh process, until ``--seconds`` have passed (at least one
adapt). Inputs are generated from ``--seed`` (see workload.py) and set up
several times so that set-up time is reported as a median. Every adapt's
outputs are checked; a failed or check-failing adapt counts against
``ok_frac``. Metric names and units come from BENCHMARK.json: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
A traced run alternates untraced and traced adapts so that the tracing
overhead is measured in the same run.

The environment stamp and the run's details are printed as JSON lines ahead
of the result, which is always the last line of standard output.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
# A run must end within 180 s: adapts still running this long after start are killed.
RUN_LIMIT_S = 170
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass
class Adapt:
    """One adapt as seen from outside: its wall time, memory and check results."""

    wall_s: float
    peak_rss_mb: float
    problems: list[str]
    report: dict = field(default_factory=dict)
    layers: dict | None = None


def _spawn(cmd: list[str], env: dict, stderr_path: str, timeout_s: float) -> tuple[float, int, float]:
    """Run ``cmd`` to completion; return (wall seconds, exit code, max RSS in MB) of that process.

    The child is killed after ``timeout_s`` and is always reaped before returning.
    """
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(timeout_s, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall_s = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall_s, proc.returncode, usage.ru_maxrss / 1024.0


def _failure(code: int, stderr_path: str) -> str:
    with open(stderr_path, encoding="utf-8", errors="replace") as fh:
        tail = fh.read()[-400:].strip()
    return f"exit code {code}: {tail}"


class Runner:
    """Sets up one workload in a private directory and runs adapts on it."""

    def __init__(self, name: str, seed: int, workdir: str):
        from workload import WORKLOADS

        self.spec = WORKLOADS[name]
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.setup_times: list[float] = []
        self.oracle = None
        self.kill_at = time.perf_counter() + RUN_LIMIT_S

    def setup(self) -> None:
        from workload import Oracle, generate, write_inputs

        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            z, labels, weight, bias = generate(self.spec, self.seed)
            write_inputs(self.spec, self.workdir, z, labels, weight, bias)
            self.setup_times.append(time.perf_counter() - t0)
        self.labels = labels
        if self.spec.kind == "cli":
            self.oracle = Oracle.build(self.spec, z, weight, bias)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def spawn(self, cmd: list[str]) -> tuple[float, int, float]:
        timeout_s = max(1.0, self.kill_at - time.perf_counter())
        return _spawn(cmd, self.env, self.path("stderr.txt"), timeout_s)

    def adapt(self, traced: bool) -> Adapt:
        return self._adapt_cli(traced) if self.spec.kind == "cli" else self._adapt_api(traced)

    def _adapt_cli(self, traced: bool) -> Adapt:
        from workload import check_cli_outputs

        spec = self.spec
        csv_path, report_path, spans = self.path("preds.csv"), self.path("report.json"), self.path("spans")
        for stale in (csv_path, report_path):
            if os.path.exists(stale):
                os.remove(stale)
        argv = [
            "adapt", "--test", self.path("test.tcae"), "--head", self.path("head.json"),
            "--labels", self.path("test.tcal"), "--k", str(spec.k), "--select", "global",
            "--mode", spec.mode, "--solver", "closed",
            "--out-preds", csv_path, "--out-report", report_path,
        ]
        if spec.batch_size:
            argv += ["--batch-size", str(spec.batch_size)]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", spans, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "tcalign.cli", *argv]
        wall_s, code, rss = self.spawn(cmd)
        if code != 0:
            return Adapt(wall_s, rss, [_failure(code, self.path("stderr.txt"))])
        try:
            with open(report_path, encoding="utf-8") as fh:
                report = json.load(fh)
            problems = check_cli_outputs(spec, csv_path, report, self.labels, self.oracle)
        except (OSError, ValueError) as exc:
            return Adapt(wall_s, rss, [f"unreadable outputs: {exc}"])
        return Adapt(wall_s, rss, problems, report, self._layers(spans, wall_s) if traced else None)

    def _adapt_api(self, traced: bool) -> Adapt:
        import numpy as np

        from workload import check_predictions

        out = self.path("report.json")
        if os.path.exists(out):
            os.remove(out)
        cmd = [
            sys.executable, os.path.join(HERE, "child.py"), "api",
            self.workdir, str(self.spec.k), "1" if traced else "0",
        ]
        process_s, code, rss = self.spawn(cmd)
        if code != 0:
            return Adapt(process_s, rss, [_failure(code, self.path("stderr.txt"))])
        try:
            with open(out, encoding="utf-8") as fh:
                result = json.load(fh)
            report, wall_s = result["report"], result["wall_s"]
            probs, argmax = np.load(self.path("probs.npy")), np.load(self.path("argmax.npy"))
        except (OSError, ValueError, KeyError) as exc:
            return Adapt(process_s, rss, [f"unreadable outputs: {exc}"])
        problems = check_predictions(self.spec, argmax, probs, self.labels, report)
        layers = self._layers(self.path("spans"), wall_s) if traced else None
        return Adapt(wall_s, rss, problems, report, layers)

    def _layers(self, spans_path: str, wall_s: float) -> dict:
        import tracer

        meta, spans = tracer.load(spans_path)
        return tracer.summarize(meta, spans, wall_s)


def _median(values):
    return statistics.median(values) if values else float("nan")


def _end_to_end(runner: Runner, adapts: list[Adapt]) -> dict[str, float]:
    good = [a for a in adapts if not a.problems] or adapts
    wall = _median([a.wall_s for a in good])
    return {
        "wall_s": wall,
        "rows_per_s": runner.spec.n / wall,
        "peak_rss_mb": _median([a.peak_rss_mb for a in good]),
        "ok_frac": sum(not a.problems for a in adapts) / len(adapts),
        "setup_s": _median(runner.setup_times),
    }


def _per_layer(runner: Runner, untraced: list[Adapt], traced: list[Adapt]) -> dict[str, float]:
    # All layer figures come from one traced adapt, the one with the median wall
    # time, so that its self times and unattributed time add up to its wall time.
    # With no traced adapt to read (the run is then marked incorrect) they read 0.
    layered = sorted((a for a in traced if a.layers is not None), key=lambda a: a.wall_s)
    out = dict(layered[(len(layered) - 1) // 2].layers) if layered else {}
    base = _median([a.wall_s for a in untraced])
    out["trace.overhead_frac"] = (_median([a.wall_s for a in traced]) - base) / base
    reports = [a.report for a in untraced + traced if a.report]
    oracle = runner.oracle
    out.update(
        {
            "online.batches": oracle.batches if oracle else 0,
            "online.unadapted_batches": _median([r.get("unadapted_batches", 0) for r in reports]),
            "online.bank_unchanged_batch_frac": (
                oracle.unchanged_batches / oracle.batches if oracle and oracle.batches else 0.0
            ),
            "quality.accuracy_before": _median([r["accuracy_before"] for r in reports]),
            "quality.accuracy_after": _median([r["accuracy_after"] for r in reports]),
        }
    )
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict[str, str]:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as lv, open(os.path.join(index, "type")) as ty:
                level, kind = lv.read().strip(), ty.read().strip()
            with open(os.path.join(index, "size")) as sz:
                size = sz.read().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return sizes


def _blas_threads():
    """Threads OpenBLAS will use, asked of the library numpy loaded; None if unknown."""
    import numpy as np

    libdir = os.path.dirname(np.__file__) + ".libs"
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _environment(spec) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    caches = _cache_sizes()
    input_bytes = spec.n * spec.d * 8
    l3 = caches.get("L3", "")
    l3_bytes = int(l3[:-1]) * 1024 if l3.endswith("K") else None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": caches,
        "input_f64_bytes": input_bytes,
        "input_fits_l3": None if l3_bytes is None else input_bytes < l3_bytes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    # BLAS threads = cores available, set before numpy loads; children inherit it.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = nproc
    from workload import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tcalign", "cli.py")):
        print(f"error: no tcalign sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    # On SIGTERM, unwind so that the running child is killed and reaped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    declared = _declared_metrics(bool(args.trace))
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        runner = Runner(args.workload, args.seed, workdir)
        runner.setup()
        untraced: list[Adapt] = []
        traced: list[Adapt] = []
        deadline = time.perf_counter() + args.seconds
        while not untraced or time.perf_counter() < deadline:
            untraced.append(runner.adapt(traced=False))
            if args.trace:
                traced.append(runner.adapt(traced=True))
        adapts = untraced + traced
        for i, a in enumerate(adapts):
            for problem in a.problems:
                print(f"adapt {i}: {problem}", file=sys.stderr)
        if args.trace:
            values = _per_layer(runner, untraced, traced)
        else:
            values = _end_to_end(runner, adapts)
        print(json.dumps({"env": _environment(runner.spec)}))
        print(
            json.dumps(
                {
                    "detail": {
                        "workload": args.workload,
                        "seed": args.seed,
                        "wall_s_each": [round(a.wall_s, 4) for a in untraced],
                        "traced_wall_s_each": [round(a.wall_s, 4) for a in traced],
                        "setup_s_each": [round(t, 4) for t in runner.setup_times],
                        "accuracy_before": untraced[0].report.get("accuracy_before"),
                        "accuracy_after": untraced[0].report.get("accuracy_after"),
                        "oracle_unchanged_batches": (
                            f"{runner.oracle.unchanged_batches}/{runner.oracle.batches}"
                            if runner.oracle and runner.oracle.batches
                            else None
                        ),
                    }
                }
            )
        )
        failed = sum(bool(a.problems) for a in adapts)
        result = {
            "correct": failed == 0,
            "attempted": len(adapts),
            "failed": failed,
            "metrics": {
                name: {"value": values[name] if failed == 0 else values.get(name, 0.0), "unit": unit}
                for name, unit in declared.items()
            },
        }
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it
    return 0


if __name__ == "__main__":
    sys.exit(main())
