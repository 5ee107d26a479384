"""Child-process entry points of the benchmark.

    python3 bench/child.py cli SPANS -- ARGV...   traced ``tcalign.cli`` run
    python3 bench/child.py api WORKDIR K TRACE    one in-process adapt_transductive

The untraced CLI workloads run ``python -m tcalign.cli`` directly instead.
Both commands expect ``src`` on PYTHONPATH.
"""

from __future__ import annotations

import json
import os
import sys
import time

from tracer import Tracer, install


def _traced_cli(spans_path: str, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import tcalign.cli

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    install(tracer)
    try:
        code = tcalign.cli.main(argv)
    finally:
        tracer.dump(spans_path, {"import_s": import_s})
    return code


def _api(workdir: str, k: int, trace: bool) -> int:
    import numpy as np

    z = np.load(os.path.join(workdir, "z.npy"))
    labels = np.load(os.path.join(workdir, "labels.npy"))
    with np.load(os.path.join(workdir, "head.npz")) as h:
        weight, bias = h["weight"], h["bias"]
    tracer = Tracer() if trace else None
    if tracer is not None:
        install(tracer)
    # looked up after install so that the traced wrappers are the ones called
    from tcalign.pipeline import AdaptConfig, SoftmaxHead, adapt_transductive

    t0 = time.perf_counter()
    head = SoftmaxHead(weight=weight, bias=bias)
    cfg = AdaptConfig(k=k, selection_mode="class_balanced")
    preds, report, _ = adapt_transductive(z, head, cfg, labels=labels)
    wall_s = time.perf_counter() - t0

    if tracer is not None:
        tracer.dump(os.path.join(workdir, "spans"), {"import_s": 0.0})
    np.save(os.path.join(workdir, "probs.npy"), preds.probs)
    np.save(os.path.join(workdir, "argmax.npy"), preds.argmax)
    with open(os.path.join(workdir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump({"report": report.to_dict(), "wall_s": wall_s}, fh)
    return 0


def main(argv: list[str]) -> int:
    if argv[0] == "cli" and argv[2] == "--":
        return _traced_cli(argv[1], argv[3:])
    if argv[0] == "api":
        return _api(argv[1], int(argv[2]), argv[3] == "1")
    print(f"usage: see {__file__} docstring", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
