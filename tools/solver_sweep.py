"""Print one line per solve of the solver's sweep: how each case ends.

A change to the solver that may round differently is checked on these
cases, beyond the digests of ``tools/output_digest.py``:

- the 30 step-V cases of the khalil-step experiment (T = 30, spacing
  0.05, d_radius 0.05, x0 = (0.5, -0.5), default synthesis config) at
  collection seeds 0-9, each with k = -x1 - x2, -x2 and -2 x2 - x1^2:
  status, iterations, the margin t, the largest Schur jitter of any
  iteration and whether ``validate_solution`` passes;
- their 60 infeasible variants, the same program with a row
  t >= t* + 0.1 or t >= t* + 1.0 above the case's optimal t*: status,
  iterations and whether ``verify.check_infeasibility_certificate``
  passes on the dual ray;
- with ``--fits``, the 600 khalil-fit-multi draws (seeds 0-29 x
  operations 0-19: six T = 15 trajectories from x0 on the radius-0.8
  circle, d_radius 0.01, trajectory j of operation i of seed s collected
  with a seed from ``SeedSequence([s, i, j])``, as the benchmark derives
  them): the fit solve's status and iterations, log det A_bar and the
  sha256 of the ellipsoid JSON.

The fit's solve is read as the benchmark's harness reads it, through a
wrapper around ``issynth.consistency``'s ``solve_sdp``; every other call is
a public ``issynth`` call.  Like ``tools/output_digest.py``, the tool sets
OpenBLAS, OpenMP and MKL to one thread before numpy is imported, unless
the environment already sets a count.  Run from the repository root:

    PYTHONPATH=src python3 tools/solver_sweep.py [--fits]

The step-V part takes about a minute on one core, the fits about two more.
"""

from __future__ import annotations

import argparse
import hashlib
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402  (BLAS reads its thread count on import)

from issynth import consistency  # noqa: E402
from issynth.consistency import Dataset, build_data_matrices, solve_overapprox  # noqa: E402
from issynth.poly import parse_poly  # noqa: E402
from issynth.sdp import validate_solution  # noqa: E402
from issynth.simulate import ExperimentConfig, collect_dataset, khalil_system  # noqa: E402
from issynth.synthesis import SynthesisConfig, assemble_theorem1  # noqa: E402
from issynth.verify import check_infeasibility_certificate  # noqa: E402

CONTROLLERS = ("-x1 - x2", "-x2", "-2*x2 - x1^2")
ABOVE = (0.1, 1.0)


def step_v_lines(seeds=range(10)):
    """One line per step-V case and per infeasible variant of it."""
    sys = khalil_system()
    for seed in seeds:
        exp = ExperimentConfig(T=30, sample_spacing=0.05, u_bound=1.0, d_radius=0.05,
                               x0=(0.5, -0.5), seed=seed)
        ell = solve_overapprox(build_data_matrices(collect_dataset(sys, exp)), bases=sys.bases)
        for text in CONTROLLERS:
            k = parse_poly(text, sys.bases.vars)
            case = f"step V seed {seed} k = {text}"
            prog, legend = assemble_theorem1(ell, SynthesisConfig(k_init=(k,)), {"k": [k]})
            sol = prog.solve()
            t = float(sol.coeff(legend["t"]))
            jitter = max((e["jitter"] or 0.0 for e in sol.sdp.trace), default=0.0)
            valid = validate_solution(sol.problem, sol.sdp).get("ok", False)
            yield (f"{case}: {sol.status}, {sol.sdp.iterations} iterations, t {t:.12g}, "
                   f"jitter {jitter:.1e}, valid {valid}")
            for above in ABOVE:
                prog, legend = assemble_theorem1(ell, SynthesisConfig(k_init=(k,)), {"k": [k]})
                prog.add_linear([(legend["t"], 1.0)], t + above, ">=")
                sol = prog.solve()
                report = check_infeasibility_certificate(sol.problem, sol.sdp.y)
                yield (f"{case}, t >= t* + {above:g}: {sol.status}, "
                       f"{sol.sdp.iterations} iterations, certificate {report.passed}")


def fit_lines(seeds=range(30), ops=range(20)):
    """One line per khalil-fit-multi draw."""
    sys = khalil_system()
    d_radius = 0.01
    angles = np.pi / 6 + np.arange(6) * np.pi / 3
    x0s = 0.8 * np.column_stack([np.cos(angles), np.sin(angles)])
    solve_sdp = consistency.solve_sdp
    solves = []

    def recorded(prob, *args):
        solves.append(solve_sdp(prob, *args))
        return solves[-1]

    consistency.solve_sdp = recorded
    try:
        for seed in seeds:
            for i in ops:
                samples = []
                for j, x0 in enumerate(x0s):
                    sub = int(np.random.SeedSequence([seed, i, j]).generate_state(1)[0])
                    exp = ExperimentConfig(T=15, sample_spacing=0.05, u_bound=1.0,
                                           d_radius=d_radius, x0=x0, seed=sub)
                    samples.extend(collect_dataset(sys, exp).samples)
                solves.clear()
                case = f"fit seed {seed} op {i}"
                try:
                    ell = solve_overapprox(build_data_matrices(
                        Dataset(sys.bases, d_radius ** 2, samples)), bases=sys.bases)
                except consistency.ConsistencyError as exc:
                    yield f"{case}: raised {exc}"
                    continue
                [sol] = solves
                logdet = np.linalg.slogdet(ell.A_bar)[1]
                digest = hashlib.sha256(ell.to_json().encode()).hexdigest()
                yield (f"{case}: {sol.status}, {sol.iterations} iterations, "
                       f"logdet {logdet:.12g}, {digest}")
    finally:
        consistency.solve_sdp = solve_sdp


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--fits", action="store_true",
                        help="also print the 600 khalil-fit-multi draws")
    args = parser.parse_args()
    for line in step_v_lines():
        print(line, flush=True)
    if args.fits:
        for line in fit_lines():
            print(line, flush=True)


if __name__ == "__main__":
    main()
