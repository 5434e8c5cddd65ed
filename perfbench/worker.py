"""One benchmark process: set up a workload, run its operations, report.

Started by run.py, which pins the BLAS threads and times set-up.  Prints
``ready`` once the first operation's inputs exist, then, unless
``--setup-only``, one JSON line with the run's results.

    python3 perfbench/worker.py --workload closed-loop --seed 0 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import issynth
    from issynth import consistency, sos
    src = (ROOT / "src").resolve()
    if src not in Path(issynth.__file__).resolve().parents:
        print(f"issynth imported from {issynth.__file__}, not from {src}", file=sys.stderr)
        return 3

    import harness
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = harness.Tracer(enabled=bool(args.trace))
    records: list[harness.SolveRecord] = []
    restore = harness.install_solve_recorder(
        {"consistency": consistency, "sos": sos}, tracer, records)

    def op(i: int):
        records.clear()
        tracer.begin_op(i)
        return wl.run(i, tracer)

    def check(i: int, out) -> tuple[list[str], dict]:
        solves, failures = workloads.summarize_solves(records)
        records.clear()
        more, values, behaviour = wl.check(i, out, solves)
        return failures + more, {"values": {**workloads.solve_values(solves), **values},
                                 "behaviour": behaviour}

    calibration: list[float] = []
    try:
        outcomes = harness.run_ops(
            op, check, args.seconds,
            between=lambda: calibration.append(harness.calibration_seconds()))
    finally:
        restore()

    selfs = harness.self_times(tracer.spans)
    ops = []
    for o in outcomes:
        values = o.facts.get("values", {})
        spans = [(s, st) for s, st in zip(tracer.spans, selfs) if s.op == o.index]
        layer = {name: 0.0 for name in workloads.PER_LAYER}
        layer.update(values)
        layer.update(workloads.span_metrics(spans, tracer.overhead_s.get(o.index, 0.0), values))
        self_s: dict[str, float] = {}
        for s, st in spans:
            self_s[s.layer] = self_s.get(s.layer, 0.0) + st
        ops.append({"index": o.index, "seconds": o.seconds,
                    # calibration timed just before and just after the operation
                    "calibration_s": (calibration[o.index] + calibration[o.index + 1]) / 2,
                    "failures": o.failures,
                    "layer": layer, "self_s": self_s, "behaviour": o.facts.get("behaviour")})

    changes = []
    if args.seed == 0:
        ref = json.loads((BENCH / "reference.json").read_text())["workloads"].get(args.workload, {})
        for o in ops:
            key = "0" if wl.same_inputs else str(o["index"])
            if o["behaviour"] is not None and key in ref:
                changes += [f"op {o['index']}: {d}"
                            for d in workloads.behaviour_diff(ref[key], o["behaviour"])]

    print(json.dumps({
        "ops": ops,
        "behaviour_changes": changes,
        "calibration_s": calibration,
        "per_layer_units": workloads.PER_LAYER,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": _versions(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }))
    return 0


def _versions() -> dict:
    import numpy
    import scipy
    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    for label, mod in (("numpy_openblas", numpy), ("scipy_openblas", scipy)):
        try:
            cfg = mod.show_config(mode="dicts")
            out[label] = cfg["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            out[label] = "unknown"
    return out


if __name__ == "__main__":
    sys.exit(main())
