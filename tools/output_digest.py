"""Print a sha256 digest of each solver output the benchmark workloads produce.

Two checkouts whose digests agree give the same ellipsoids and the same
step-V solution bit for bit, which is what a pure speed-up or refactor of
the solver must keep.  The outputs:

- the khalil-step experiment (T = 30, spacing 0.05, d_radius 0.05,
  x0 = (0.5, -0.5), collection seed 0, k = -x1 - x2, default synthesis
  config): its ellipsoid JSON and step V's ``SdpSolution`` JSON;
- the six-trajectory fit of khalil-fit-multi seed 0, operations 0-5
  (T = 15 per trajectory from six x0 on the radius-0.8 circle, d_radius
  0.01, trajectory j of operation i collected with a seed from
  ``SeedSequence([0, i, j])``): each operation's ellipsoid JSON.

Only public ``issynth`` calls are used.  Run from the repository root:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 tools/output_digest.py
"""

from __future__ import annotations

import hashlib

import numpy as np

from issynth.consistency import Dataset, build_data_matrices, solve_overapprox
from issynth.poly import parse_poly
from issynth.simulate import ExperimentConfig, collect_dataset, khalil_system
from issynth.synthesis import SynthesisConfig, assemble_theorem1


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def khalil_step() -> list[tuple[str, str]]:
    sys = khalil_system()
    exp = ExperimentConfig(T=30, sample_spacing=0.05, u_bound=1.0, d_radius=0.05,
                           x0=(0.5, -0.5), seed=0)
    ell = solve_overapprox(build_data_matrices(collect_dataset(sys, exp)), bases=sys.bases)
    k = parse_poly("-x1 - x2", sys.bases.vars)
    prog, _ = assemble_theorem1(ell, SynthesisConfig(k_init=(k,)), {"k": [k]})
    sol = prog.solve()
    return [("khalil-step ellipsoid", digest(ell.to_json())),
            ("khalil-step step-V solution", digest(sol.sdp.to_json()))]


def khalil_fit_multi(ops: int = 6) -> list[tuple[str, str]]:
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
        dm = build_data_matrices(Dataset(sys.bases, d_radius ** 2, samples))
        ell = solve_overapprox(dm, bases=sys.bases)
        out.append((f"khalil-fit-multi op {i} ellipsoid", digest(ell.to_json())))
    return out


def main() -> None:
    for name, h in khalil_step() + khalil_fit_multi():
        print(f"{h}  {name}")


if __name__ == "__main__":
    main()
