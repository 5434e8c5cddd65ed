"""Print a sha256 digest of each output the benchmark workloads produce.

Two checkouts whose digests agree give the same ellipsoids, step-V program
and solution, collected dataset and closed-loop runs bit for bit, which is
what a pure speed-up or refactor must keep.  The outputs:

- the khalil-step experiment (T = 30, spacing 0.05, d_radius 0.05,
  x0 = (0.5, -0.5), collection seed 0, k = -x1 - x2, default synthesis
  config): its ellipsoid JSON, step V's compiled ``SdpProblem`` JSON and
  ``SdpSolution`` JSON, and the outcome of ``alternate`` on it: the
  ``SynthesisError`` text of a rejected first step verbatim, or else the
  digest of the result's JSON without the history's ``seconds``;
- the same experiment's step V at collection seed 4 with a row
  t >= -13.917, 0.1 above its optimal t, which has no feasible point:
  its ``SdpSolution`` JSON;
- the six-trajectory fit of khalil-fit-multi seed 0, operations 0-5
  (T = 15 per trajectory from six x0 on the radius-0.8 circle, d_radius
  0.01, trajectory j of operation i collected with a seed from
  ``SeedSequence([0, i, j])``): each operation's ellipsoid JSON, and
  operation 0's six-trajectory dataset JSON;
- the closed-loop runs of seed 0, operations 0-2 (x0 drawn uniformly from
  the unit disk by ``default_rng([0, i])``, k = -x1 - x2, alpha3 = 0.1 r^2,
  alpha4 = r^2, sigma 0.5, horizon 10, step 1e-3): the event-triggered
  run's trajectory (times, states, inputs, errors, event flags and event
  times), its alpha3 and alpha4 arrays on a line of their own, so a
  change that rounds only the comparison functions shows by itself, and
  the continuous-feedback ``integrate`` run's times and states.

When a change alters the bits on purpose, every digest changes, so some
lines also print the values that show by how much: each ellipsoid's
log det A_bar, its fit solve's margin and iteration count, and
|X X A_bar - I|max (X = A_bar^-1/2, which ``ellipsoid_params`` bounds by
1e-8), step V's status, iteration count and margin t, the infeasible
step V's status, iteration count and free part |A_free^T y|/|y| of its
dual ray, and each closed-loop run's event count and final |x|.

Only public ``issynth`` calls are used.  Like the test suite's
``conftest.py``, the tool sets OpenBLAS, OpenMP and MKL to one thread
before numpy is imported, unless the environment already sets a count: at
two OpenBLAS threads the step-V solution rounds differently and its digest
changes.  Run from the repository root:

    PYTHONPATH=src python3 tools/output_digest.py
"""

from __future__ import annotations

import hashlib
import json
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402  (BLAS reads its thread count on import)

from issynth.consistency import Dataset, build_data_matrices, solve_overapprox
from issynth.poly import parse_poly, variables
from issynth.simulate import (ExperimentConfig, collect_dataset, event_triggered_run,
                              integrate, khalil_system)
from issynth.synthesis import SynthesisConfig, SynthesisError, alternate, assemble_theorem1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def arrays_digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def ellipsoid_digest(name: str, ell) -> tuple[str, str, str]:
    """The ellipsoid's digest, with its log det A_bar, its fit's margin and
    iterations, and |X X A_bar - I|max."""
    X = ell.A_bar_inv_sqrt
    residual = np.abs(X @ X @ ell.A_bar - np.eye(len(X))).max()
    [fit] = ell.history
    return (name, digest(ell.to_json()),
            f"logdet {np.linalg.slogdet(ell.A_bar)[1]:.9g}, margin {fit['margin']:g}, "
            f"{fit['iterations']} fit iterations, residual {residual:.2e}")


def step_v(seed: int):
    """The khalil-step experiment's ellipsoid at collection seed ``seed``,
    the default synthesis config with k = -x1 - x2, and its step-V program
    and legend."""
    sys = khalil_system()
    exp = ExperimentConfig(T=30, sample_spacing=0.05, u_bound=1.0, d_radius=0.05,
                           x0=(0.5, -0.5), seed=seed)
    ell = solve_overapprox(build_data_matrices(collect_dataset(sys, exp)), bases=sys.bases)
    k = parse_poly("-x1 - x2", sys.bases.vars)
    cfg = SynthesisConfig(k_init=(k,))
    return (ell, cfg, *assemble_theorem1(ell, cfg, {"k": [k]}))


def khalil_step() -> list[tuple[str, str, str]]:
    ell, cfg, prog, legend = step_v(0)
    sol = prog.solve()
    t = float(sol.coeff(legend["t"]))
    try:
        res = alternate(ell, cfg)
    except SynthesisError as exc:
        outcome = str(exc)
    else:
        d = res.to_json_dict()
        d["history"] = [{key: v for key, v in h.items() if key != "seconds"}
                        for h in d["history"]]
        outcome = digest(json.dumps(d, sort_keys=True))
    return [ellipsoid_digest("khalil-step ellipsoid", ell),
            ("khalil-step step-V program", digest(sol.problem.to_json()), ""),
            ("khalil-step step-V solution", digest(sol.sdp.to_json()),
             f"{sol.status}, {sol.sdp.iterations} iterations, t {t:.9g}"),
            ("khalil-step alternate", outcome, "")]


def khalil_step_infeasible() -> list[tuple[str, str, str]]:
    """Step V at collection seed 4 with the row t >= -13.917, 0.1 above its
    optimum: the solution's digest, status, iterations and |A_free^T y|/|y|."""
    _, _, prog, legend = step_v(4)
    prog.add_linear([(legend["t"], 1.0)], -13.917, ">=")
    sol = prog.solve()
    A_free, y = sol.problem.arrays()[1], sol.sdp.y
    free = np.linalg.norm(A_free.T @ y) / np.linalg.norm(y) if y.any() else float("nan")
    return [("khalil-step seed-4 step-V above its margin", digest(sol.sdp.to_json()),
             f"{sol.status}, {sol.sdp.iterations} iterations, |A_free^T y|/|y| {free:.2e}")]


def khalil_fit_multi(ops: int = 6) -> list[tuple[str, str, str]]:
    sys = khalil_system()
    d_radius = 0.01
    angles = np.pi / 6 + np.arange(6) * np.pi / 3
    x0s = 0.8 * np.column_stack([np.cos(angles), np.sin(angles)])
    out = []
    for i in range(ops):
        samples = []
        for j, x0 in enumerate(x0s):
            seed = int(np.random.SeedSequence([0, i, j]).generate_state(1)[0])
            exp = ExperimentConfig(T=15, sample_spacing=0.05, u_bound=1.0,
                                   d_radius=d_radius, x0=x0, seed=seed)
            samples.extend(collect_dataset(sys, exp).samples)
        ds = Dataset(sys.bases, d_radius ** 2, samples)
        if i == 0:
            out.append((f"khalil-fit-multi op {i} dataset", digest(ds.to_json()), ""))
        ell = solve_overapprox(build_data_matrices(ds), bases=sys.bases)
        out.append(ellipsoid_digest(f"khalil-fit-multi op {i} ellipsoid", ell))
    return out


def closed_loop(ops: int = 3) -> list[tuple[str, str, str]]:
    sys = khalil_system()
    k = parse_poly("-x1 - x2", sys.bases.vars)
    r = variables(["r"])
    alpha3, alpha4 = parse_poly("0.1*r^2", r), parse_poly("r^2", r)
    out = []
    for i in range(ops):
        rng = np.random.default_rng([0, i])
        radius, angle = np.sqrt(rng.random()), 2.0 * np.pi * rng.random()
        x0 = radius * np.array([np.cos(angle), np.sin(angle)])
        et = event_triggered_run(sys, [k], alpha3, alpha4, 0.5, x0, 10.0, 1e-3)
        ref = integrate(sys, lambda x: np.array([k.eval(x)]), x0, 10.0, 1e-3)
        out.append((f"closed-loop op {i} event run",
                    arrays_digest(et.times, et.states, et.inputs, et.errors, et.event_flags,
                                  et.event_times, [et.sigma, et.diverged, et.storm]),
                    f"{et.event_count} events, |x(T)| {np.linalg.norm(et.states[-1]):.9g}"))
        out.append((f"closed-loop op {i} event run alpha3, alpha4",
                    arrays_digest(et.alpha3, et.alpha4), ""))
        out.append((f"closed-loop op {i} integrate",
                    arrays_digest(ref.times, ref.states, [ref.diverged]),
                    f"|x(T)| {np.linalg.norm(ref.states[-1]):.9g}"))
    return out


def main() -> None:
    for name, h, values in (khalil_step() + khalil_step_infeasible() + khalil_fit_multi()
                            + closed_loop()):
        print(f"{h}  {name}" + (f" ({values})" if values else ""))


if __name__ == "__main__":
    main()
