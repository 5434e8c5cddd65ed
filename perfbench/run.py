"""Benchmark launcher: one workload, one seed, one process under a time budget.

    python3 perfbench/run.py --workload khalil-step --seed 0 --seconds 30 --trace 0

Pins BLAS to one thread, times set-up in separate processes, runs the
workload in worker.py, scales times to a reference machine speed with the
calibration samples the worker takes between operations, and prints
every metric by name and unit.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The full record
(run record, per-operation facts) goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKLOADS = ("khalil-step", "khalil-fit-multi", "closed-loop")
BLAS_THREADS = 1       # <= nproc; more threads slow these small dense solves
SETUP_PROBES = 4       # extra processes that only set up; with the run's own, 5 samples
DEADLINE_S = 170.0     # the whole launcher must end well within 180 s
# end-to-end times are reported at the machine speed at which
# harness.calibration_seconds() takes this long (about a 2-vCPU Xeon VM's
# fastest); the machine's own speed drifts by tens of percent
REFERENCE_CALIBRATION_S = 0.1

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "ops_ok": "ratio"}


class BenchError(RuntimeError):
    pass


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    started = time.perf_counter()

    if not (ROOT / "src" / "issynth" / "__init__.py").is_file():
        print(f"no issynth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]

    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, ready = _start(worker_args + ["--setup-only"], env)
                setup.append(ready)
                _finish(proc, started)
        proc, ready = _start(worker_args, env)
        setup.append(ready)
        out = _finish(proc, started)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])

    ops = result["ops"]
    attempted = len(ops)
    failed = sum(1 for o in ops if o["failures"])
    if args.trace:
        metrics = {name: {"value": statistics.median(o["layer"][name] for o in ops),
                          "unit": unit} for name, unit in result["per_layer_units"].items()}
    else:
        speed = REFERENCE_CALIBRATION_S / statistics.median(result["calibration_s"])
        values = {
            "wall_s": statistics.median(
                o["seconds"] * REFERENCE_CALIBRATION_S / o["calibration_s"] for o in ops),
            "setup_s": statistics.median(setup) * speed,
            "peak_rss_mb": result["peak_rss_mb"],
            "ops_ok": (attempted - failed) / attempted,
        }
        metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "nproc": os.cpu_count(),
        "blas_threads": result["blas_threads"], "versions": result["versions"],
        "setup_samples_s": setup, "calibration_s": result["calibration_s"],
        "reference_calibration_s": REFERENCE_CALIBRATION_S, "metrics": metrics,
        "behaviour_changes": result["behaviour_changes"], "ops": ops,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print("run record: " + json.dumps({k: record[k] for k in (
        "git_sha", "nproc", "blas_threads", "versions")}))
    print(f"{args.workload} seed {args.seed}: {attempted} operations attempted, "
          f"{failed} failed (ops_failed {failed / attempted:.4g} ratio), "
          f"wall_s sample count {attempted}")
    print(f"  unscaled: wall_s {statistics.median(o['seconds'] for o in ops):.6g} s, "
          f"setup_s {statistics.median(setup):.6g} s, calibration "
          f"{statistics.median(result['calibration_s']):.6g} s "
          f"(reference {REFERENCE_CALIBRATION_S} s)")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for o in ops:
        for reason in o["failures"]:
            print(f"failed op {o['index']}: {reason}")
    for change in result["behaviour_changes"]:
        print(f"behaviour change: {change}")
    print(f"record written to {out_file.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _start(worker_args: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Start a worker; return it and the seconds until it reported ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + worker_args, env=env,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not become ready (exit {proc.returncode})")
    return proc, ready


def _finish(proc: subprocess.Popen, started: float) -> str:
    """Wait for a worker within the deadline; return its remaining output."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, DEADLINE_S - (time.perf_counter() - started)))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker exceeded the deadline and was stopped")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


if __name__ == "__main__":
    sys.exit(main())
