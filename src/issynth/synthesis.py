"""Controller synthesis by alternating sum-of-squares feasibility steps.

The design program couples a Lyapunov function V, a controller k, a scalar
multiplier lambda, and four class-Kinf comparison functions through one
matrix inequality over the consistency ellipsoid.  V*k products make it
bilinear, so it is solved by alternation: fix k and fit (V, lambda, alphas),
then fix (V, lambda) and refit (k, alphas), for a configured number of
rounds.  Each step maximizes a scalar margin added to the matrix slot's
Gram diagonal.  A step whose margin comes back negative is rejected at
once, because its Gram matrix is then not certified; otherwise the step is
accepted only if the extracted tuple satisfies the matrix inequality
pointwise on a sampled box.

`_step` runs one step from the last accepted `SynthesisResult` and returns
the step's history record with the new result, or None if it rejected the
step; `alternate` is the loop over `_step` that carries the result from
step to step.  Certificates and the dual-ray diagnosis of an infeasible
step are read through `SosSolution.certificate` and
`SosSolution.ray_family`; this module reads no compiled index.  No default
configuration reaches the accepted path; `alternate`'s docstring says how
that path was checked.

Scale note: the constraints are nearly homogeneous in (V, lambda, alphas,
Grams), so without a normalization the solver parks the whole problem at
the epsilon floors, where the required decay alpha3 >= epsilon*r^2 is a
large fraction of V and the margin suffers.  Pinning the alpha1
coefficient sum to one forces V to be at least a unit-scale function, which
makes the epsilon floors negligible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .consistency import ConsistencyEllipsoid, RegressorBases
from .poly import Polynomial, monomial_basis, parse_poly, squared_norm, variables
from .sos import AffinePoly, CoeffVar, SosProgram
from . import verify as _verify


class SynthesisError(RuntimeError):
    pass


# _chop drops coefficients below this fraction of max(1, largest |coefficient|)
CHOP_REL = 1e-10


@dataclass
class SynthesisConfig:
    """Degree caps, floors, and the alternation seed controller.

    The sampled box check of each step has fixed effort: check_samples
    points uniform in [-check_box, check_box] per coordinate of (x, e).
    """

    k_init: tuple[Polynomial, ...]
    deg_V: int = 2
    deg_k: int = 3
    deg_lambda: int = 4
    N1: int = 2
    N2: int = 2
    N3: int = 2
    N4: int = 2
    epsilon: float = 1e-4
    rounds: int = 3
    check_box = _verify.BOX
    check_samples = 2000

    def __post_init__(self):
        self.k_init = tuple(self.k_init)
        for name in ("deg_V", "deg_k", "deg_lambda", "N1", "N2", "N3", "N4", "rounds"):
            if not isinstance(getattr(self, name), Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")
        if self.deg_V < 1 or self.deg_k < 1 or self.deg_lambda < 0:
            raise ValueError("degree caps must allow nonconstant V and k")
        if min(self.N1, self.N2, self.N3, self.N4) < 1:
            raise ValueError("alpha templates need at least one term")
        if not self.k_init:
            raise ValueError("k_init must have one entry per input")
        for p in self.k_init:
            if not isinstance(p, Polynomial):
                raise TypeError("k_init entries must be polynomials")
            if p.constant_term() != 0.0:
                raise ValueError("k_init must vanish at the origin")
            if p.degree() > self.deg_k:
                raise ValueError(
                    f"k_init degree {p.degree()} exceeds deg_k={self.deg_k}")


@dataclass
class SynthesisResult:
    """Controller, Lyapunov data, and Gram certificates from one alternation."""

    bases: RegressorBases
    k: tuple[Polynomial, ...]
    V: Polynomial
    alpha: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    lam: Polynomial
    epsilon: float
    certificates: dict
    history: list = field(default_factory=list)
    margin: float = 0.0
    ellipsoid_hash: str = ""

    def to_json_dict(self) -> dict:
        return {
            **self.bases.to_json_dict(),
            "error_variables": [v.name for v in self.lam.vars[self.bases.n:]],
            "k": [p.to_string() for p in self.k],
            "V": self.V.to_string(),
            "lambda": self.lam.to_string(),
            "alpha": [np.asarray(c, dtype=float).tolist() for c in self.alpha],
            "epsilon": self.epsilon,
            "certificates": self.certificates,
            "history": self.history,
            "margin": self.margin,
            "ellipsoid_hash": self.ellipsoid_hash,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, d: dict) -> "SynthesisResult":
        bases = RegressorBases.from_json_dict(d)
        xv = bases.vars
        xev = variables(d["variables"] + d["error_variables"])
        return cls(
            bases=bases,
            k=tuple(parse_poly(s, xv) for s in d["k"]),
            V=parse_poly(d["V"], xv),
            alpha=tuple(np.asarray(c, dtype=float) for c in d["alpha"]),
            lam=parse_poly(d["lambda"], xev),
            epsilon=float(d["epsilon"]),
            certificates=d.get("certificates", {}),
            history=d.get("history", []),
            margin=float(d.get("margin", 0.0)),
            ellipsoid_hash=d.get("ellipsoid_hash", ""),
        )

    @classmethod
    def from_json(cls, s: str) -> "SynthesisResult":
        return cls.from_json_dict(json.loads(s))


# ---------------------------------------------------------------------------
# program assembly


def _alpha_template(prog: SosProgram, prefix: str, n_terms: int,
                    sq: Polynomial, epsilon: float) -> tuple[AffinePoly, list[CoeffVar]]:
    """Template sum_k c_k (sq)^k with its class-Kinf gates.

    The gates are c_k >= 0 and sum_k c_k >= _eps_row(epsilon): a small
    headroom over epsilon so solver-accurate results still clear the exact
    gate downstream.
    """
    cs = prog.new_coeffs(prefix, n_terms)
    lin = {}
    power = sq
    for c in cs:
        lin[c.index] = power
        power = power * sq
    family = f"{prefix.rstrip('_')} gates"
    for c in cs:
        prog.add_linear([(c, 1.0)], 0.0, ">=", family)
    prog.add_linear([(c, 1.0) for c in cs], _eps_row(epsilon), ">=", family)
    return AffinePoly(sq.vars, Polynomial.zero(sq.vars), lin), cs


def _envelope_basis(xvars, deg_V: int, cfg: SynthesisConfig) -> list[Polynomial]:
    """Gram basis of the sandwich slots V - alpha1 and alpha2 - V."""
    half = (max(deg_V, 2 * cfg.N1, 2 * cfg.N2) + 1) // 2
    return monomial_basis(xvars, max(1, half), include_constant=False)


def _floor_basis(xevars, deg_lambda: int) -> list[Polynomial]:
    """Gram basis of the multiplier floor slot lambda - epsilon."""
    return monomial_basis(xevars, max(1, (deg_lambda + 1) // 2), include_constant=True)


def _over(p: Polynomial, vs, what: str) -> Polynomial:
    """p over the variable tuple vs; SynthesisError naming any variable of p
    outside vs."""
    if p.vars == vs:
        return p
    names = [v.name for v in vs]
    outside = [v.name for v in p.vars if v.name not in names]
    if outside:
        raise SynthesisError(f"{what} uses variables {outside} outside {names}")
    return p.extend(vs)


def _shift_by_error(poly_or_affine, xvars, xevars):
    """Substitute x -> x + e, exactly expanded."""
    n = len(xvars)
    mapping = {
        xv: (Polynomial.from_var(xevars, xevars[i])
             + Polynomial.from_var(xevars, xevars[n + i]))
        for i, xv in enumerate(xvars)
    }
    return poly_or_affine.subst(mapping)


def assemble_theorem1(ell: ConsistencyEllipsoid, cfg: SynthesisConfig,
                      fixed: dict) -> tuple[SosProgram, dict]:
    """One alternation step as an SOS program, plus a legend of handles.

    fixed must be exactly {"k": [...]} (fit V, lambda, alphas) or
    {"V": ..., "lambda": ...} (fit k, alphas); anything else would make the
    matrix slot bilinear in the decision variables.  k and V must live in
    the state variables, lambda in the state and error variables; every
    fixed polynomial is checked here, and a violation raises SynthesisError.
    """
    if ell.bases is None:
        raise SynthesisError(
            "ellipsoid carries no regressor bases; fit it with bases attached")
    bases = ell.bases
    n, m, p = bases.n, bases.m, bases.N + bases.M

    keys = set(fixed)
    if keys == {"k"}:
        mode = "fit_V"
    elif keys == {"V", "lambda"}:
        mode = "fit_k"
    else:
        raise SynthesisError(
            f"exactly one of {{'k'}} or {{'V','lambda'}} must be fixed, got "
            f"{sorted(keys)}; freeing both sides makes the program bilinear")

    xvars = bases.vars
    e_names = [f"e{i + 1}" for i in range(n)]
    clash = [v.name for v in xvars if v.name in e_names]
    if clash:
        raise SynthesisError(f"state names collide with error names: {clash}")
    xevars = variables([v.name for v in xvars] + e_names)

    prog = SosProgram()
    legend: dict = {"mode": mode, "xvars": xvars, "xevars": xevars}

    # squared norms feeding the class-Kinf templates
    sq_x = squared_norm(xvars)
    sq_x_xe = sq_x.extend(xevars)
    sq_e = squared_norm(variables(e_names)).extend(xevars)

    # alpha2 is fit after the solve, directly against the extracted V
    a3, c3 = _alpha_template(prog, "a3_", cfg.N3, sq_x_xe, cfg.epsilon)
    a4, c4 = _alpha_template(prog, "a4_", cfg.N4, sq_e, cfg.epsilon)
    legend["alpha_coeffs"] = {"a3": c3, "a4": c4}

    a1 = None
    if mode == "fit_V":
        # scale normalization, only meaningful while V is free: pin the
        # alpha1 sum so V is bounded below by a unit-scale class-Kinf
        # function, keeping the epsilon floors negligible
        a1, c1 = _alpha_template(prog, "a1_", cfg.N1, sq_x, cfg.epsilon)
        legend["alpha_coeffs"]["a1"] = c1
        prog.add_linear([(c, 1.0) for c in c1], 1.0, "==", "a1 pin")

    if mode == "fit_V":
        k_parts = []
        for pk in fixed["k"]:
            if pk.constant_term() != 0.0:
                raise SynthesisError("fixed controller must vanish at the origin")
            k_parts.append(_over(pk, xvars, "fixed controller"))
        if len(k_parts) != m:
            raise SynthesisError(f"controller needs {m} entries, got {len(k_parts)}")
        V_mons = monomial_basis(xvars, cfg.deg_V, include_constant=False)
        V, v_cs = prog.template(xvars, V_mons, "v_")
        lam_mons = monomial_basis(xevars, cfg.deg_lambda, include_constant=True)
        lam, l_cs = prog.template(xevars, lam_mons, "l_")
        # with alpha2 fit outside the program, these caps cut the scaling
        # ray (V, lambda, alpha3, alpha4, margin) -> gamma * (...) from above
        for c in (*v_cs, *l_cs):
            prog.add_linear([(c, 1.0)], 1e3, "<=", "V/lambda caps")
            prog.add_linear([(c, 1.0)], -1e3, ">=", "V/lambda caps")
    else:
        V = AffinePoly.promote(_over(fixed["V"], xvars, "fixed V"), xvars)
        lam = AffinePoly.promote(_over(fixed["lambda"], xevars, "fixed lambda"), xevars)
        k_mons = monomial_basis(xvars, cfg.deg_k, include_constant=False)
        k_parts = [prog.template(xvars, k_mons, f"k{j}_")[0] for j in range(m)]
    legend["V"], legend["lam"], legend["k"] = V, lam, k_parts

    # phi = [Z(x); W(x) k(x+e)] over the stacked variables
    k_shift = [_shift_by_error(kj, xvars, xevars) for kj in k_parts]
    phi: list = [z.extend(xevars) for z in bases.Z]
    for row in bases.W:
        acc = AffinePoly.promote(0.0, xevars)
        for wij, ks in zip(row, k_shift):
            acc = acc + AffinePoly.promote(ks, xevars) * wij.extend(xevars)
        phi.append(acc)

    grad_V = [AffinePoly.promote(V, xvars).diff(v).extend(xevars) for v in xvars]
    lam_xe = AffinePoly.promote(lam, xevars)
    a3_xe = AffinePoly.promote(a3, xevars)
    a4_xe = AffinePoly.promote(a4, xevars)

    zeta = ell.zeta_bar        # (p, n)
    Ainv = ell.A_bar_inv_sqrt  # (p, p)

    # dissipation block matrix, negated into the SOS slot: its lower
    # triangle, the form add_matrix_sos takes
    d = 1 + n + p
    S = [[AffinePoly.promote(0.0, xevars) for _ in range(i + 1)] for i in range(d)]
    s00 = a4_xe - a3_xe
    for l in range(n):
        zphi = AffinePoly.promote(0.0, xevars)
        for a in range(p):
            if zeta[a, l]:
                zphi = zphi + AffinePoly.promote(phi[a], xevars) * float(zeta[a, l])
        s00 = s00 - grad_V[l] * zphi
    S[0][0] = s00
    for i in range(n):
        S[1 + i][0] = grad_V[i] * -1.0
    # exactly one of lambda / phi carries decision variables here
    lam_phi = [lam_xe * AffinePoly.promote(phi_b, xevars) for phi_b in phi]
    for a in range(p):
        entry = AffinePoly.promote(0.0, xevars)
        for b in range(p):
            if abs(Ainv[a, b]) > 0.0:
                entry = entry - lam_phi[b] * float(Ainv[a, b])
        S[1 + n + a][0] = entry
    for i in range(1, d):
        S[i][i] = lam_xe * 2.0

    # per-row Gram bases: the scalar row covers the full target degree, the
    # shaping rows only need affine elements; cheap and matches the degree
    # bookkeeping of the matched coefficients
    deg_phi = max(max(z.degree() for z in bases.Z),
                  max(max(q.degree() for q in row) for row in bases.W) + cfg.deg_k)
    row0_deg = max(2 * max(cfg.N3, cfg.N4),
                   max(cfg.deg_V - 1, 0) + deg_phi)
    row0_deg = (row0_deg + 1) // 2
    rows_deg = max(1, (cfg.deg_V) // 2)
    z0 = monomial_basis(xevars, row0_deg, include_constant=True)
    zr = monomial_basis(xevars, rows_deg, include_constant=True)
    z_bases = [z0] + [zr] * (n + p)
    cliq1 = [(0, q) for q in range(len(z0))] + \
            [(1 + i, q) for i in range(n) for q in range(len(zr))]
    cliq2 = [(0, q) for q in range(len(z0))] + \
            [(1 + n + a, q) for a in range(p) for q in range(len(zr))]

    t = prog.new_coeff("t_margin")
    legend["t"] = t
    h4 = prog.add_matrix_sos(S, z_bases=z_bases, cliques=[cliq1, cliq2],
                             margin=t, name="s4")

    legend["s_handles"] = {"s4": h4}
    if mode == "fit_V":
        # lower sandwich (carries the scale pin) and multiplier floor only
        # constrain the free (V, lambda); with them fixed these slots have
        # no interior and are certified separately against the extraction
        h1 = prog.add_scalar_sos(AffinePoly.promote(V, xvars) - a1,
                                 _envelope_basis(xvars, cfg.deg_V, cfg), name="s1")
        h3 = prog.add_scalar_sos(lam_xe - cfg.epsilon,
                                 _floor_basis(xevars, cfg.deg_lambda), name="s3")
        legend["s_handles"].update({"s1": h1, "s3": h3})

    # objective: grow the margin; the tiny alpha4 penalty keeps the error
    # weight from inflating freely, which would shrink the triggering
    # threshold (and hence inter-event times) to nothing, and the penalty
    # on higher alpha3 terms pins an otherwise flat split between its
    # coefficients that the solver would leave at noise level
    prog.set_objective(
        [(t, 1.0)] + [(c, -1e-3) for c in c4] + [(c, -1e-3) for c in c3[1:]],
        "max")
    return prog, legend


# ---------------------------------------------------------------------------
# alternation


def _eps_row(epsilon: float) -> float:
    """Gate level for alpha coefficient sums, a hair above epsilon."""
    return epsilon + max(1e-7, 1e-6 * epsilon)


def _clip_alpha(vals: np.ndarray, name: str) -> np.ndarray:
    # the coupled solve satisfies rows only to ~1e-5 absolute, so allow
    # that much noise before declaring the sign genuinely wrong
    if vals.min() < -1e-4:
        raise SynthesisError(
            f"{name} coefficient {vals.min():.3e} is negative beyond solver noise")
    return np.maximum(vals, 0.0)


def _chop(p: Polynomial) -> Polynomial:
    """Drop coefficients below CHOP_REL * max(1, |largest coefficient|).

    Interior-point extraction leaves 1e-13-ish dust on every template
    monomial; chopping keeps the stored polynomials readable without
    moving any sampled value by more than basis-size * cutoff.
    """
    if not p.terms:
        return p
    cut = CHOP_REL * max(1.0, max(abs(c) for c in p.terms.values()))
    return Polynomial(p.vars, {e: c for e, c in p.terms.items() if abs(c) >= cut})


def _refit_envelopes(V: Polynomial, lam: Polynomial, cfg: SynthesisConfig,
                     xvars, xevars) -> tuple[np.ndarray, np.ndarray, dict]:
    """Fit the sandwich envelopes around an extracted V in small solves.

    The coupled step solve leaves absolute row error near its convergence
    floor, too loose for the sandwich and reconstruction tolerances.  These
    single-purpose programs are tiny and well scaled, so their Grams come
    back orders of magnitude tighter.  alpha1 is pushed up (largest lower
    envelope), alpha2 down (smallest upper envelope); the multiplier floor
    slot is re-certified against the chopped lambda, which therefore must
    have even degree.
    """
    deg_lam = lam.degree()
    if deg_lam > 0 and deg_lam % 2:
        raise SynthesisError(
            f"chopped multiplier lambda has odd degree {deg_lam}, so "
            "lambda - epsilon cannot be a sum of squares")
    sq_x = squared_norm(xvars)
    sb = _envelope_basis(xvars, V.degree(), cfg)

    vals: dict[str, np.ndarray] = {}
    certs: dict[str, dict] = {}
    for name, prefix, n_terms, sense in (("s1", "a1_", cfg.N1, "max"),
                                         ("s2", "a2_", cfg.N2, "min")):
        prog = SosProgram()
        a, cs = _alpha_template(prog, prefix, n_terms, sq_x, cfg.epsilon)
        Vp = AffinePoly.promote(V, xvars)
        target = (Vp - a) if name == "s1" else (a - Vp)
        h = prog.add_scalar_sos(target, sb, name=name)
        prog.set_objective([(c, 1.0) for c in cs], sense)
        sol = prog.solve()
        if sol.status not in ("optimal", "feasible"):
            raise SynthesisError(
                f"envelope refit {name} failed with status {sol.status}")
        vals[name] = _clip_alpha(
            np.array([sol.coeff(c) for c in cs]), prefix.rstrip("_"))
        certs[name] = sol.certificate(h)

    prog = SosProgram()
    lam_p = lam if lam.vars == xevars else lam.extend(xevars)
    h = prog.add_scalar_sos(AffinePoly.promote(lam_p, xevars) - cfg.epsilon,
                            _floor_basis(xevars, lam_p.degree()), name="s3")
    sol = prog.solve()
    if sol.status not in ("optimal", "feasible"):
        raise SynthesisError(
            f"multiplier floor re-certification failed: {sol.status}")
    certs["s3"] = sol.certificate(h)
    return vals["s1"], vals["s2"], certs


def _step(ell: ConsistencyEllipsoid, cfg: SynthesisConfig, rnd: int, step: str,
          prev: SynthesisResult | None) -> tuple[dict, SynthesisResult | None]:
    """One alternation step from the last accepted result, prev (None before
    the first step): its history record, and the accepted result or None.

    Step "V" fixes prev's controller (cfg.k_init before the first step) and
    fits (V, lambda, alphas); step "k" fixes prev's (V, lambda) and refits
    (k, alpha3, alpha4), carrying prev's envelopes and their certificates
    over.  A step is rejected, with the record's status and diagnostic
    naming why, when the solve is not optimal or feasible, when its Gram
    margin t is negative, when extraction fails, or when the extracted
    tuple violates the matrix inequality on the sample box.  An
    ``infeasible`` step's record also carries its dual ray's Farkas check
    (`verify.check_infeasibility_certificate`) as "certificate", its
    ``passed`` and ``worst``.  The result carries no history and no
    ellipsoid hash; `alternate` adds both.
    """
    if step == "V":
        fixed = {"k": list(prev.k if prev else cfg.k_init)}
    else:
        fixed = {"V": prev.V, "lambda": prev.lam}
    prog, legend = assemble_theorem1(ell, cfg, fixed)
    t0 = time.perf_counter()
    sol = prog.solve()
    rec = {"round": rnd, "step": step, "status": sol.status,
           "seconds": round(time.perf_counter() - t0, 3)}
    if sol.status == "infeasible":
        # the Farkas alternative, checked from the program and y alone
        cert = _verify.check_infeasibility_certificate(sol.problem, sol.sdp.y)
        rec["certificate"] = {"passed": cert.passed, "worst": cert.worst}
    # a SynthesisError rejects the step with the status last set here
    status = sol.status
    try:
        if status not in ("optimal", "feasible"):
            raise SynthesisError(sol.ray_family())
        t_val = rec["t"] = float(sol.coeff(legend["t"]))
        rec["objective"] = None if sol.objective is None else -float(sol.objective)
        if t_val < 0.0:
            # the PSD block holds G - t*D, so t < 0 leaves the Gram matrix G
            # itself uncertified; no envelope refit or box check can help
            status = "negative-margin"
            raise SynthesisError(f"Gram margin t = {t_val:.6g} < 0")
        status = "extraction-failure"
        # alpha extraction with gate repair: the coupled solve can leave a
        # sum a hair under the epsilon gate, so bump the r^2 coefficient
        eps_row = _eps_row(cfg.epsilon)
        ext = {}
        for nm, cs in legend["alpha_coeffs"].items():
            v = _clip_alpha(np.array([sol.coeff(c) for c in cs]), nm)
            if v.sum() < eps_row:
                v[0] += eps_row - v.sum()
            ext[nm] = v
        if step == "V":
            V, lam = _chop(sol.value(legend["V"])), _chop(sol.value(legend["lam"]))
            k = tuple(legend["k"])  # prev's controller over the state variables
            a1, a2, certs = _refit_envelopes(
                V, lam, cfg, legend["xvars"], legend["xevars"])
        else:
            V, lam = prev.V, prev.lam
            k = tuple(_chop(sol.value(kj)) for kj in legend["k"])
            # V and lambda are unchanged, so the envelope fits carry over
            a1, a2 = prev.alpha[:2]
            certs = {nm: prev.certificates[nm] for nm in ("s1", "s2", "s3")}
        status = "feasibility-loss"
        # t >= 0 certifies the Gram matrix, but the acceptance test is that
        # the extracted tuple satisfies the matrix inequality pointwise on
        # the sample box
        rng = np.random.default_rng(1000 * rnd + (0 if step == "V" else 1))
        XE = rng.uniform(-cfg.check_box, cfg.check_box,
                         size=(cfg.check_samples, 2 * ell.bases.n))
        M = _verify.theorem1_matrix_values(
            ell, ell.bases, V, k, lam, ext["a3"], ext["a4"], XE)
        worst = rec["box_worst"] = float(np.linalg.eigvalsh(M)[:, -1].max())
        if worst > 1e-6:
            raise SynthesisError(
                "solver-accepted step violates the matrix inequality on the "
                f"sample box (worst eigenvalue {worst:.3e})")
    except SynthesisError as exc:
        rec["status"], rec["diagnostic"] = status, str(exc)
        return rec, None
    # the s4 blocks are the raw PSD blocks: they certify s4 minus the margin
    # on the masked Gram diagonal, with the margin and mask stored alongside
    certs["s4"] = sol.certificate(legend["s_handles"]["s4"])
    return rec, SynthesisResult(
        bases=ell.bases, k=k, V=V, alpha=(a1, a2, ext["a3"], ext["a4"]), lam=lam,
        epsilon=cfg.epsilon, certificates=certs, margin=t_val)


def alternate(ell: ConsistencyEllipsoid, cfg: SynthesisConfig) -> SynthesisResult:
    """Run the two-step alternation and return a fully verified result.

    A loop over `_step`, (round, step) in (1, "V"), (1, "k"), (2, "V"), ...
    for cfg.rounds rounds; each step starts from the last accepted
    `SynthesisResult`.  The loop stops at the first rejected step: if that
    is the first step, it raises SynthesisError (infeasible-first-step, with
    the record's status and diagnostic); otherwise the last accepted result
    is returned, with every step's record as its history.  The returned
    tuple is re-verified by the independent oracles before being handed
    back; verification failure of a solver-accepted result is a hard error.

    No test or benchmark configuration reaches the accepted path at the
    defaults (every first step V ends negative-margin).  It was checked on
    a six-trajectory Khalil data set under a patch that is not part of the
    code: Gram rows of degree deg_lambda // 2, a margin on only the
    elements linear in x, and t <= 1.  There rounds 1 and 2 were accepted
    and all seven oracles passed; CHANGES.md gives the recipe and the
    sha256 of each result's JSON.
    """
    accepted: SynthesisResult | None = None
    history: list[dict] = []
    for rnd, step in itertools.product(range(1, cfg.rounds + 1), ("V", "k")):
        rec, res = _step(ell, cfg, rnd, step, accepted)
        history.append(rec)
        if res is None:
            break
        accepted = res
    if accepted is None:
        raise SynthesisError(
            "infeasible-first-step (bad k_init): status "
            f"{rec['status']}, {rec['diagnostic']}")
    res = replace(
        accepted, history=history,
        ellipsoid_hash=hashlib.sha256(ell.to_json().encode()).hexdigest())
    reports = _verify.verify_suite(res, ell)
    failed = [r for r in reports if not r.passed]
    if failed:
        lines = "; ".join(r.summary() for r in failed)
        raise SynthesisError(
            f"verification failed on a solver-accepted result: {lines}")
    return res
