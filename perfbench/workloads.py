"""The benchmark's workloads: inputs made from the seed, one operation, its checks.

Every workload drives issynth only through its public calls.  An
operation returns its raw results; ``check`` turns them, together with the
SDP solves recorded during the operation, into failure reasons, the
per-layer values that are not times, and the behaviour compared against
``reference.json``.  Times come from the trace spans (see ``span_metrics``).
"""

from __future__ import annotations

import numpy as np

from issynth.consistency import Dataset, build_data_matrices, membership, solve_overapprox
from issynth.poly import Polynomial, parse_poly, variables
from issynth.sdp import validate_solution
from issynth.simulate import (
    ExperimentConfig,
    collect_dataset,
    event_triggered_run,
    integrate,
    khalil_system,
)
from issynth.synthesis import SynthesisConfig, SynthesisResult, assemble_theorem1
from issynth import verify

from harness import Span, SolveRecord

# solve_overapprox tries margins 1e-6, 1e-8, 0; an infeasible solve at the
# first margin is its designed fallback, not a failure
FIT_FIRST_MARGIN = 1e-6

# per-layer metric -> unit; every workload reports all of them (0 where the
# workload does not reach the layer)
PER_LAYER = {
    "sdp.solve_s": "s",
    "sdp.solves": "count",
    "sdp.iterations": "count",
    "sdp.s_per_iter": "s/iter",
    "sdp.rows": "count",
    "sdp.free": "count",
    "sdp.psd_blocks": "count",
    "sdp.scalar_blocks": "count",
    "sdp.max_block_dim": "count",
    "sdp.not_optimal": "count",
    "sdp.valid": "ratio",
    "sos.compile_s": "s",
    "sos.solve_s": "s",
    "sos.gram_blocks": "count",
    "sos.gram_max_dim": "count",
    "synthesis.assemble_s": "s",
    "synthesis.box_check_s": "s",
    "synthesis.margin_t": "1",
    "synthesis.objective": "1",
    "synthesis.box_worst": "1",
    "synthesis.step_accepted": "count",
    "consistency.fit_s": "s",
    "consistency.fit_solves": "count",
    "consistency.fit_iterations": "count",
    "consistency.fallbacks": "count",
    "consistency.semi_axis_max": "1",
    "consistency.true_member_residual": "1",
    "verify.oracles_s": "s",
    "verify.oracles_passed": "count",
    "simulate.collect_s": "s",
    "simulate.event_run_s": "s",
    "simulate.integrate_s": "s",
    "simulate.steps": "count",
    "simulate.events": "count",
    "simulate.steps_per_s": "1/s",
    "simulate.diverged": "count",
    "simulate.storm": "count",
    "trace.overhead_s": "s",
}

# time metric -> (layer, span name or None for every span of the layer,
# self time instead of duration)
SPAN_METRICS = {
    "sdp.solve_s": ("sdp", None, False),
    "sos.compile_s": ("sos", "compile", False),
    "sos.solve_s": ("sos", "solve", True),
    "synthesis.assemble_s": ("synthesis", "assemble_theorem1", False),
    "synthesis.box_check_s": ("synthesis", "box_check", False),
    "consistency.fit_s": ("consistency", "solve_overapprox", True),
    "verify.oracles_s": ("verify", None, False),
    "simulate.collect_s": ("simulate", "collect_dataset", False),
    "simulate.event_run_s": ("simulate", "event_triggered_run", False),
    "simulate.integrate_s": ("simulate", "integrate", False),
}


def span_metrics(spans: list[tuple[Span, float]], overhead_s: float,
                 values: dict) -> dict:
    """Time metrics of one operation from its (span, self time) pairs."""
    out = {}
    for metric, (layer, name, use_self) in SPAN_METRICS.items():
        out[metric] = sum(st if use_self else s.seconds for s, st in spans
                          if s.layer == layer and (name is None or s.name == name))
    iters = values.get("sdp.iterations", 0)
    out["sdp.s_per_iter"] = out["sdp.solve_s"] / iters if iters else 0.0
    steps = values.get("simulate.steps", 0)
    run_s = out["simulate.event_run_s"]
    out["simulate.steps_per_s"] = steps / run_s if run_s > 0.0 else 0.0
    out["trace.overhead_s"] = overhead_s
    return out


# ---------------------------------------------------------------------------
# SDP solves


def summarize_solves(records: list[SolveRecord]) -> tuple[list[dict], list[str]]:
    """Shape, status and validity of every solve, plus failure reasons.

    Every solve must end optimal or feasible and pass validate_solution,
    except the ellipsoid fit's designed infeasible first-margin attempt.
    """
    rows, failures = [], []
    for j, r in enumerate(records):
        prob, sol = r.prob, r.sol
        dims = list(prob.block_dims)
        s = {
            "caller": r.caller,
            "status": sol.status,
            "iterations": int(sol.iterations),
            "rows": int(prob.n_rows),
            "free": int(prob.n_free),
            "psd_blocks": [d for d in dims if d > 1],
            "scalar_blocks": sum(1 for d in dims if d == 1),
        }
        fallback = (r.caller == "consistency" and sol.status == "infeasible"
                    and abs(1.0 - prob.arrays()[2][0] - FIT_FIRST_MARGIN) <= 1e-12)
        valid = None
        if not fallback:
            if sol.status not in ("optimal", "feasible"):
                valid = False
                failures.append(f"sdp solve {j} ({r.caller}) ended {sol.status}: {sol.message}")
            else:
                valid = bool(validate_solution(prob, sol).get("ok", False))
                if not valid:
                    failures.append(f"sdp solve {j} ({r.caller}) fails validate_solution")
        rows.append({**s, "fallback": fallback, "valid": valid})
    return rows, failures


def solve_values(solves: list[dict]) -> dict:
    counted = [s for s in solves if not s["fallback"]]
    big = max(solves, key=lambda s: s["rows"], default=None)
    fits = [s for s in solves if s["caller"] == "consistency"]
    return {
        "sdp.solves": len(solves),
        "sdp.iterations": sum(s["iterations"] for s in solves),
        "sdp.rows": big["rows"] if big else 0,
        "sdp.free": big["free"] if big else 0,
        "sdp.psd_blocks": len(big["psd_blocks"]) if big else 0,
        "sdp.scalar_blocks": big["scalar_blocks"] if big else 0,
        "sdp.max_block_dim": max(big["psd_blocks"], default=1) if big else 0,
        "sdp.not_optimal": sum(1 for s in counted if s["status"] != "optimal"),
        "sdp.valid": (sum(1 for s in counted if s["valid"]) / len(counted)) if counted else 0.0,
        "consistency.fit_solves": len(fits),
        "consistency.fit_iterations": sum(s["iterations"] for s in fits),
        "consistency.fallbacks": sum(1 for s in fits if s["fallback"]),
    }


def behaviour_of(solves: list[dict]) -> list[dict]:
    """The solve facts a pure speed-up must leave unchanged."""
    keys = ("caller", "status", "iterations", "rows", "free", "psd_blocks", "scalar_blocks")
    return [{k: s[k] for k in keys} for s in solves]


def ellipsoid_values(sys, ell, failures: list[str]) -> dict:
    member = membership(sys.AB, ell)
    if not member.ok:
        failures.append(f"true [A B] outside the fitted ellipsoid (residual {member.residual:.3e})")
    return {
        # semi-axes of zeta_bar + A_bar^{-1/2} U are the eigenvalues of A_bar^{-1/2}
        "consistency.semi_axis_max": float(np.linalg.eigvalsh(ell.A_bar_inv_sqrt)[-1]),
        "consistency.true_member_residual": member.residual,
    }


# ---------------------------------------------------------------------------
# workloads


class KhalilStep:
    """Data, ellipsoid fit, step V of the theorem-1 program, box check, oracles.

    The experiment is the ROADMAP's baseline (x0 = (0.5, -0.5), collection
    seed 0) for every benchmark seed; the seed draws the box-check and
    oracle sample points.  Several collection seeds make step V stall
    (see NOTES.md), which would fail the operation and swamp its time.
    """

    name = "khalil-step"
    same_inputs = True  # every operation of a run repeats the same inputs

    def __init__(self, seed: int):
        self.seed = seed
        self.sys = khalil_system()
        self.exp = ExperimentConfig(T=30, sample_spacing=0.05, u_bound=1.0,
                                    d_radius=0.05, x0=(0.5, -0.5), seed=0)
        self.k = parse_poly("-x1 - x2", self.sys.bases.vars)
        self.cfg = SynthesisConfig(k_init=(self.k,))

    def run(self, i: int, tr) -> dict:
        sys, cfg = self.sys, self.cfg
        with tr.span("simulate", "collect_dataset"):
            ds = collect_dataset(sys, self.exp)
        with tr.span("consistency", "build_data_matrices"):
            dm = build_data_matrices(ds)
        with tr.span("consistency", "solve_overapprox"):
            ell = solve_overapprox(dm, bases=sys.bases)
        with tr.span("synthesis", "assemble_theorem1"):
            prog, legend = assemble_theorem1(ell, cfg, {"k": [self.k]})
        with tr.span("sos", "compile"):
            _, index = prog.compile()
        with tr.span("sos", "solve"):
            sol = prog.solve()
        if sol.status not in ("optimal", "feasible"):
            raise RuntimeError(f"step V ended {sol.status}: {sol.sdp.message}")
        with tr.span("sos", "extract"):
            V = _chop(sol.value(legend["V"]))
            lam = _chop(sol.value(legend["lam"]))
            a3 = _alpha(sol, legend["alpha_coeffs"]["a3"], cfg.epsilon)
            a4 = _alpha(sol, legend["alpha_coeffs"]["a4"], cfg.epsilon)
            t = float(sol.coeff(legend["t"]))
        # the acceptance test alternate() runs on a step (round 1, step V
        # draws from generator 1000, which seed 0 reproduces)
        with tr.span("synthesis", "box_check"):
            rng = np.random.default_rng(1000 + self.seed)
            XE = rng.uniform(-cfg.check_box, cfg.check_box,
                             size=(cfg.check_samples, 2 * sys.n))
            M = verify.theorem1_matrix_values(ell, sys.bases, V, (self.k,), lam, a3, a4, XE)
            box_worst = float(np.linalg.eigvalsh(M)[:, -1].max())
        res = SynthesisResult(bases=sys.bases, k=(self.k,), V=V,
                              alpha=(np.zeros(0), np.zeros(0), a3, a4), lam=lam,
                              epsilon=cfg.epsilon, certificates={})
        s = self.seed
        with tr.span("verify", "check_lambda_floor"):
            r1 = verify.check_lambda_floor(res, rng=np.random.default_rng(s + 1))
        with tr.span("verify", "check_theorem1_matrix_sampled"):
            r2 = verify.check_theorem1_matrix_sampled(
                ell, sys.bases, V, (self.k,), lam, a3, a4, rng=np.random.default_rng(s + 2))
        with tr.span("verify", "check_schur_equiv"):
            r3 = verify.check_schur_equiv(
                ell, sys.bases, V, (self.k,), lam, a3, a4, rng=np.random.default_rng(s + 3))
        with tr.span("verify", "check_dissipation_sampled"):
            r4 = verify.check_dissipation_sampled(
                res, ell, rng=np.random.default_rng(s + 4), AB_true=sys.AB)
        return {"ell": ell, "index": index, "sol": sol, "t": t, "box_worst": box_worst,
                "reports": [r1, r2, r3, r4]}

    def check(self, i: int, out: dict, solves: list[dict]) -> tuple[list[str], dict, dict]:
        failures: list[str] = []
        index, sol = out["index"], out["sol"]
        gram_dims = [sol.problem.block_dims[b] for ids in index["gram_blocks"] for b in ids]
        objective = -float(sol.objective)
        values = {
            **ellipsoid_values(self.sys, out["ell"], failures),
            "sos.gram_blocks": len(gram_dims),
            "sos.gram_max_dim": max(gram_dims, default=0),
            "synthesis.margin_t": out["t"],
            "synthesis.objective": objective,
            "synthesis.box_worst": out["box_worst"],
            "synthesis.step_accepted": int(out["box_worst"] <= 1e-6),
            # recorded, not gated: deg_V = 2 cannot certify this system
            "verify.oracles_passed": sum(1 for r in out["reports"] if r.passed),
        }
        behaviour = {"solves": behaviour_of(solves), "objective": objective,
                     "margin_t": out["t"], "box_worst": out["box_worst"]}
        return failures, values, behaviour


class KhalilFitMulti:
    """Six short trajectories from spread-out x0, joined, one ellipsoid fit.

    Operation i draws fresh noise and inputs (trajectory j is collected
    with a seed derived from (seed, i, j)), so a run's median spans
    several data sets and depends less on one draw's iteration counts.
    """

    name = "khalil-fit-multi"
    same_inputs = False

    D_RADIUS = 0.01

    def __init__(self, seed: int):
        self.seed = seed
        self.sys = khalil_system()
        angles = np.pi / 6 + np.arange(6) * np.pi / 3
        self.x0s = 0.8 * np.column_stack([np.cos(angles), np.sin(angles)])

    def experiments(self, i: int) -> list[ExperimentConfig]:
        return [
            ExperimentConfig(T=15, sample_spacing=0.05, u_bound=1.0, d_radius=self.D_RADIUS,
                             x0=x0, seed=int(np.random.SeedSequence(
                                 [self.seed, i, j]).generate_state(1)[0]))
            for j, x0 in enumerate(self.x0s)
        ]

    def run(self, i: int, tr) -> dict:
        samples = []
        for exp in self.experiments(i):
            with tr.span("simulate", "collect_dataset"):
                samples.extend(collect_dataset(self.sys, exp).samples)
        with tr.span("consistency", "Dataset"):
            ds = Dataset(self.sys.bases, self.D_RADIUS ** 2, samples)
        with tr.span("consistency", "build_data_matrices"):
            dm = build_data_matrices(ds)
        with tr.span("consistency", "solve_overapprox"):
            ell = solve_overapprox(dm, bases=self.sys.bases)
        return {"ell": ell}

    def check(self, i: int, out: dict, solves: list[dict]) -> tuple[list[str], dict, dict]:
        failures: list[str] = []
        values = ellipsoid_values(self.sys, out["ell"], failures)
        return failures, values, {"solves": behaviour_of(solves)}


class ClosedLoop:
    """Event-triggered run and continuous-feedback reference from one seeded x0."""

    name = "closed-loop"
    same_inputs = False  # operation i starts from its own x0

    HORIZON = 10.0
    H = 1e-3
    SIGMA = 0.5

    def __init__(self, seed: int):
        self.seed = seed
        self.sys = khalil_system()
        self.k = parse_poly("-x1 - x2", self.sys.bases.vars)
        r = variables(["r"])
        self.alpha3 = Polynomial(r, {(2,): 0.1})
        self.alpha4 = Polynomial(r, {(2,): 1.0})

    def x0(self, i: int) -> np.ndarray:
        """Uniform draw from the closed unit disk."""
        rng = np.random.default_rng([self.seed, i])
        radius, angle = np.sqrt(rng.random()), 2.0 * np.pi * rng.random()
        return radius * np.array([np.cos(angle), np.sin(angle)])

    def run(self, i: int, tr) -> dict:
        x0 = self.x0(i)
        k = self.k
        with tr.span("simulate", "event_triggered_run"):
            et = event_triggered_run(self.sys, [k], self.alpha3, self.alpha4, self.SIGMA,
                                     x0, self.HORIZON, self.H)
        with tr.span("simulate", "integrate"):
            ref = integrate(self.sys, lambda x: np.array([k.eval(x)]), x0, self.HORIZON, self.H)
        return {"et": et, "ref": ref}

    def check(self, i: int, out: dict, solves: list[dict]) -> tuple[list[str], dict, dict]:
        et, ref = out["et"], out["ref"]
        steps = len(et.times) - 1
        failures = []
        for label, diverged, x_end in (("event-triggered", et.diverged, et.states[-1]),
                                       ("continuous", ref.diverged, ref.states[-1])):
            if diverged:
                failures.append(f"{label} run diverged")
            elif not np.linalg.norm(x_end) < 1e-2:
                failures.append(f"{label} run ends at |x| = {np.linalg.norm(x_end):.3e} >= 1e-2")
        if et.storm:
            failures.append("event storm")
        if not et.event_count < steps / 10:
            failures.append(f"{et.event_count} events in {steps} steps")
        values = {
            "simulate.steps": steps,
            "simulate.events": et.event_count,
            "simulate.diverged": int(et.diverged) + int(ref.diverged),
            "simulate.storm": int(et.storm),
        }
        return failures, values, {"events": et.event_count}


WORKLOADS = {w.name: w for w in (KhalilStep, KhalilFitMulti, ClosedLoop)}


# ---------------------------------------------------------------------------
# extraction as alternate() does it, so the box check sees the same tuple


def _chop(p: Polynomial, rel: float = 1e-10) -> Polynomial:
    if not p.terms:
        return p
    cut = rel * max(1.0, max(abs(c) for c in p.terms.values()))
    return Polynomial(p.vars, {e: c for e, c in p.terms.items() if abs(c) >= cut})


def _alpha(sol, coeffs, epsilon: float) -> np.ndarray:
    v = np.array([sol.coeff(c) for c in coeffs])
    if v.min() < -1e-4:
        raise RuntimeError(f"alpha coefficient {v.min():.3e} is negative beyond solver noise")
    v = np.maximum(v, 0.0)
    gate = epsilon + max(1e-7, 1e-6 * epsilon)
    if v.sum() < gate:
        v[0] += gate - v.sum()
    return v


# ---------------------------------------------------------------------------
# behaviour reference


def behaviour_diff(ref, got, path: str = "", rel: float = 1e-7) -> list[str]:
    """Differences beyond ``rel`` relative for floats, exact for everything else."""
    if isinstance(ref, dict) and isinstance(got, dict):
        out = []
        for key in sorted(set(ref) | set(got)):
            sub = f"{path}.{key}" if path else str(key)
            if key not in ref or key not in got:
                out.append(f"{sub}: {ref.get(key, '<absent>')!r} -> {got.get(key, '<absent>')!r}")
            else:
                out.extend(behaviour_diff(ref[key], got[key], sub, rel))
        return out
    if isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: {len(ref)} entries -> {len(got)}"]
        out = []
        for j, (a, b) in enumerate(zip(ref, got)):
            out.extend(behaviour_diff(a, b, f"{path}[{j}]", rel))
        return out
    if isinstance(ref, float) or isinstance(got, float):
        if isinstance(ref, (int, float)) and isinstance(got, (int, float)) \
                and abs(got - ref) <= rel * max(abs(ref), abs(got)):
            return []
    elif ref == got:
        return []
    return [f"{path}: {ref!r} -> {got!r}"]
