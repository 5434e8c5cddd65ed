"""Numerical oracles for the synthesis chain.

Every check here recomputes its quantities from primitive data (polynomial
coefficients, ellipsoid matrices, sampled points); nothing is trusted from
the solver side.  Reports are deterministic for a fixed generator seed and
carry the worst violation with a witness point, so a failure is always
reproducible.

Conventions: state variables come first, error variables second, in every
stacked (x, e) point array; class-Kinf functions are given by their
coefficient sequences c_1..c_N meaning  alpha(r) = sum_k c_k r^(2k).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .consistency import ConsistencyEllipsoid, RegressorBases
from .poly import Polynomial, squared_norm


@dataclass
class VerificationReport:
    """Outcome of one sampled check: pass iff worst violation <= tol."""

    name: str
    worst: float
    tol: float
    n_samples: int
    witness: Optional[list] = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return bool(np.isfinite(self.worst) and self.worst <= self.tol)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "worst": self.worst,
            "tol": self.tol,
            "n_samples": self.n_samples,
            "witness": self.witness,
            "details": self.details,
        }

    def summary(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        reason = self.details.get("reason")
        return (f"{flag} {self.name}: worst {self.worst:.3e} "
                f"(tol {self.tol:.1e}, {self.n_samples} samples)"
                + (f": {reason}" if reason else ""))


# ---------------------------------------------------------------------------
# small numeric helpers


def alpha_values(coeffs: Sequence[float], sq_norm: np.ndarray) -> np.ndarray:
    """Evaluate  sum_k c_k r^(2k)  given r^2 values, k starting at 1."""
    sq_norm = np.asarray(sq_norm, dtype=float)
    out = np.zeros_like(sq_norm)
    power = sq_norm.copy()
    for c in coeffs:
        out += float(c) * power
        power = power * sq_norm
    return out


def _sym_sqrt(M: np.ndarray) -> np.ndarray:
    w, U = np.linalg.eigh(0.5 * (M + M.T))
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T


def _unit_opnorm(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    D = rng.standard_normal((rows, cols))
    s = np.linalg.norm(D, 2)
    if s == 0.0:
        D[0, 0] = 1.0
        s = 1.0
    return D / s


def _upsilon_set(rng: np.random.Generator, rows: int, cols: int,
                 count: int, n_boundary: int = 20) -> list[np.ndarray]:
    """Zero, boundary (operator norm 1), and interior-scaled directions."""
    out = [np.zeros((rows, cols))]
    n_boundary = min(n_boundary, max(0, count - 1))
    for _ in range(n_boundary):
        out.append(_unit_opnorm(rng, rows, cols))
    while len(out) < count:
        out.append(rng.uniform(0.0, 1.0) * _unit_opnorm(rng, rows, cols))
    return out


def _eval_stack(polys: Sequence[Polynomial], pts: np.ndarray) -> np.ndarray:
    return np.column_stack([p.eval_many(pts) for p in polys])


def _phi_values(bases: RegressorBases, k: Sequence[Polynomial],
                X: np.ndarray, E: np.ndarray) -> np.ndarray:
    """phi = [Z(x); W(x) k(x + e)] at every point, shape (P, N+M)."""
    Z = _eval_stack(bases.Z, X)
    kv = _eval_stack(k, X + E)
    Wv = np.stack([_eval_stack(row, X) for row in bases.W], axis=1)  # (P, M, m)
    return np.hstack([Z, np.einsum("pij,pj->pi", Wv, kv)])


def _multiplier_values(lam: Polynomial, XE: np.ndarray, n: int) -> np.ndarray:
    """lambda at stacked (x, e) points; lambda may live in x or in (x, e)."""
    if len(lam.vars) == 2 * n:
        return lam.eval_many(XE)
    if len(lam.vars) == n:
        return lam.eval_many(XE[:, :n])
    raise ValueError("multiplier must live in the x or stacked (x, e) variables")


# ---------------------------------------------------------------------------
# instance evaluation: the dissipation matrix and its scalar Schur form


def _instance_arrays(ell: ConsistencyEllipsoid, bases: RegressorBases,
                     V: Polynomial, k: Sequence[Polynomial],
                     lam: Polynomial, alpha3: Sequence[float],
                     alpha4: Sequence[float], XE: np.ndarray):
    """Shared point-wise arrays for the matrix and scalar forms."""
    n = bases.n
    XE = np.asarray(XE, dtype=float)
    if XE.ndim != 2 or XE.shape[1] != 2 * n:
        raise ValueError(f"points must be (P, {2 * n}), got {XE.shape}")
    X, E = XE[:, :n], XE[:, n:]
    gradV = _eval_stack(V.grad(), X)
    phi = _phi_values(bases, k, X, E)
    lam_vals = _multiplier_values(lam, XE, n)
    a3 = alpha_values(alpha3, np.sum(X * X, axis=1))
    a4 = alpha_values(alpha4, np.sum(E * E, axis=1))
    s00 = np.einsum("pn,pn->p", gradV, phi @ ell.zeta_bar) + a3 - a4
    return X, E, gradV, phi, lam_vals, s00


def theorem1_matrix_values(ell: ConsistencyEllipsoid, bases: RegressorBases,
                           V: Polynomial, k: Sequence[Polynomial],
                           lam: Polynomial, alpha3: Sequence[float],
                           alpha4: Sequence[float],
                           XE: np.ndarray) -> np.ndarray:
    """The (1+n+N+M) dissipation block matrix at each stacked (x, e) point."""
    n = bases.n
    p = bases.N + bases.M
    X, E, gradV, phi, lam_vals, s00 = _instance_arrays(
        ell, bases, V, k, lam, alpha3, alpha4, XE)
    col_a = lam_vals[:, None] * (phi @ ell.A_bar_inv_sqrt)
    d = 1 + n + p
    M = np.zeros((XE.shape[0], d, d))
    M[:, 0, 0] = s00
    M[:, 1:1 + n, 0] = gradV
    M[:, 0, 1:1 + n] = gradV
    M[:, 1 + n:, 0] = col_a
    M[:, 0, 1 + n:] = col_a
    idx = np.arange(1, d)
    M[:, idx, idx] = -2.0 * lam_vals[:, None]
    return M


def f8_values(ell: ConsistencyEllipsoid, bases: RegressorBases,
              V: Polynomial, k: Sequence[Polynomial], lam: Polynomial,
              alpha3: Sequence[float], alpha4: Sequence[float],
              XE: np.ndarray) -> np.ndarray:
    """Scalar Schur-complement form of the dissipation matrix."""
    X, E, gradV, phi, lam_vals, s00 = _instance_arrays(
        ell, bases, V, k, lam, alpha3, alpha4, XE)
    qq = np.sum(gradV ** 2, axis=1)
    aa = np.sum((phi @ ell.A_bar_inv_sqrt) ** 2, axis=1)
    if np.any(lam_vals <= 0.0):
        bad = int(np.argmin(lam_vals))
        raise ValueError(
            f"multiplier not positive at sample {bad}: lambda = {lam_vals[bad]:.3e}")
    return s00 + 0.5 * lam_vals * aa + 0.5 * qq / lam_vals


# ---------------------------------------------------------------------------
# checks


def check_lemma2_instance(C: np.ndarray, E: np.ndarray, G: np.ndarray,
                          F_bar: np.ndarray, lam: float,
                          n_samples: int = 100,
                          rng: np.random.Generator | None = None,
                          tol: float = 1e-9) -> VerificationReport:
    """Premise eigenvalue check plus sampled conclusion of the norm-bound lemma.

    Premise: C + lam E E^T + (1/lam) G^T F_bar G <= 0.  Conclusion, sampled
    over F with F^T F <= F_bar: C + E F G + G^T F^T E^T <= 0.  A violated
    premise is reported as a premise failure, not as a counterexample.
    """
    rng = rng or np.random.default_rng(0)
    C = np.asarray(C, dtype=float)
    E = np.asarray(E, dtype=float)
    G = np.asarray(G, dtype=float)
    F_bar = np.asarray(F_bar, dtype=float)
    if C.ndim != 2 or C.shape[0] != C.shape[1]:
        raise ValueError("C must be square")
    if np.abs(C - C.T).max() > 1e-10 * max(1.0, np.abs(C).max()):
        raise ValueError("C must be symmetric")
    if lam <= 0.0:
        raise ValueError("lambda must be positive")
    fw = np.linalg.eigvalsh(0.5 * (F_bar + F_bar.T))
    if fw[0] < -1e-10 * max(1.0, fw[-1]):
        raise ValueError(f"F_bar must be PSD, min eigenvalue {fw[0]:.3e}")

    premise = C + lam * (E @ E.T) + (G.T @ F_bar @ G) / lam
    premise_eig = float(np.linalg.eigvalsh(premise)[-1])
    if premise_eig > tol:
        return VerificationReport(
            name="lemma2_instance", worst=premise_eig, tol=tol, n_samples=0,
            details={"stage": "premise", "premise_max_eig": premise_eig})

    m, nn = E.shape[1], G.shape[0]
    Fb_sqrt = _sym_sqrt(F_bar)
    worst = -np.inf
    witness = None
    for D in _upsilon_set(rng, m, nn, n_samples):
        F = D @ Fb_sqrt
        val = float(np.linalg.eigvalsh(C + E @ F @ G + G.T @ F.T @ E.T)[-1])
        if val > worst:
            worst = val
            witness = F.tolist()
    return VerificationReport(
        name="lemma2_instance", worst=worst, tol=tol, n_samples=n_samples,
        witness=witness,
        details={"stage": "conclusion", "premise_max_eig": premise_eig})


def check_schur_equiv(ell: ConsistencyEllipsoid, bases: RegressorBases,
                      V: Polynomial, k: Sequence[Polynomial], lam: Polynomial,
                      alpha3: Sequence[float], alpha4: Sequence[float],
                      n_samples: int = 1000, box: float = 2.0,
                      rng: np.random.Generator | None = None,
                      tol: float = 1e-8) -> VerificationReport:
    """Sign agreement between the block matrix and its scalar Schur form.

    At every sampled (x, e) the matrix is negative semidefinite exactly when
    the scalar form is nonpositive (the multiplier must be positive there).
    Disagreement strength is min(|scalar|, |max eig|), so near-zero pairs
    straddling zero within tol do not count.  A multiplier that is not
    positive at some sample leaves the scalar form undefined; the report
    then fails with the smallest lambda and its point.
    """
    rng = rng or np.random.default_rng(0)
    n = bases.n
    XE = rng.uniform(-box, box, size=(n_samples, 2 * n))
    lam_vals = _multiplier_values(lam, XE, n)
    if n_samples and lam_vals.min() <= 0.0:
        i = int(np.argmin(lam_vals))
        return VerificationReport(
            name="schur_equivalence", worst=np.inf, tol=tol,
            n_samples=n_samples, witness=XE[i].tolist(),
            details={"reason": f"multiplier not positive (lambda = {lam_vals[i]:.3e})",
                     "lambda_min": float(lam_vals[i])})
    f8 = f8_values(ell, bases, V, k, lam, alpha3, alpha4, XE)
    M = theorem1_matrix_values(ell, bases, V, k, lam, alpha3, alpha4, XE)
    eigs = np.linalg.eigvalsh(M)[:, -1]
    disagree = ((f8 > tol) & (eigs < -tol)) | ((f8 < -tol) & (eigs > tol))
    strength = np.where(disagree, np.minimum(np.abs(f8), np.abs(eigs)), 0.0)
    worst = float(strength.max()) if n_samples else 0.0
    wit = None
    if worst > 0.0:
        i = int(np.argmax(strength))
        wit = XE[i].tolist()
    return VerificationReport(
        name="schur_equivalence", worst=worst, tol=tol, n_samples=n_samples,
        witness=wit,
        details={"n_disagreements": int(disagree.sum()),
                 "scalar_range": [float(f8.min()), float(f8.max())]})


def check_dissipation_sampled(res, ell: ConsistencyEllipsoid,
                              box: float = 2.0, n_xe: int = 10_000,
                              n_upsilon: int = 100,
                              rng: np.random.Generator | None = None,
                              AB_true: np.ndarray | None = None,
                              tol: float = 1e-6) -> VerificationReport:
    """Robust dissipation inequality over sampled members of the ellipsoid.

    For [A B] = (zeta_bar + A_bar^{-1/2} Upsilon)^T with
    ||Upsilon|| <= 1 (zero, boundary, and interior samples), checks
    <grad V(x), A Z(x) + B W(x) k(x+e)> + alpha3(|x|) - alpha4(|e|) <= tol.
    The true coefficient pair is checked too when given.
    """
    rng = rng or np.random.default_rng(0)
    bases: RegressorBases = res.bases
    n, p = bases.n, bases.N + bases.M
    XE = rng.uniform(-box, box, size=(n_xe, 2 * n))
    XE[0] = 0.0  # the origin is the structural equality case
    X, E = XE[:, :n], XE[:, n:]
    gradV = _eval_stack(res.V.grad(), X)
    phi = _phi_values(bases, res.k, X, E)
    margin = (alpha_values(res.alpha[2], np.sum(X * X, axis=1))
              - alpha_values(res.alpha[3], np.sum(E * E, axis=1)))

    worst = -np.inf
    witness = None
    true_worst = None

    def eval_zeta(zeta: np.ndarray) -> tuple[float, int]:
        vals = np.einsum("pn,pn->p", gradV, phi @ zeta) + margin
        i = int(np.argmax(vals))
        return float(vals[i]), i

    for ui, U in enumerate(_upsilon_set(rng, p, n, n_upsilon)):
        zeta = ell.zeta_bar + ell.A_bar_inv_sqrt @ U
        val, i = eval_zeta(zeta)
        if val > worst:
            worst = val
            witness = {"point": XE[i].tolist(), "upsilon_index": ui}
    details = {"n_upsilon": n_upsilon}
    if AB_true is not None:
        true_worst, _ = eval_zeta(np.asarray(AB_true, dtype=float).T)
        details["true_system_worst"] = true_worst
        worst = max(worst, true_worst)
    return VerificationReport(
        name="dissipation_sampled", worst=worst, tol=tol,
        n_samples=n_xe * n_upsilon, witness=witness, details=details)


def check_sandwich(res, box: float = 3.0, n_samples: int = 10_000,
                   rng: np.random.Generator | None = None,
                   tol: float = 1e-8) -> VerificationReport:
    """alpha1(|x|) <= V(x) <= alpha2(|x|), absolute plus relative tolerance."""
    rng = rng or np.random.default_rng(0)
    n = len(res.V.vars)
    X = rng.uniform(-box, box, size=(n_samples, n))
    X[0] = 0.0
    v = res.V.eval_many(X)
    sq = np.sum(X * X, axis=1)
    a1 = alpha_values(res.alpha[0], sq)
    a2 = alpha_values(res.alpha[1], sq)
    viol = np.maximum(a1 - v, v - a2) / (1.0 + np.abs(v))
    i = int(np.argmax(viol))
    return VerificationReport(
        name="sandwich_bounds", worst=float(viol[i]), tol=tol,
        n_samples=n_samples, witness=X[i].tolist())


def check_theorem1_matrix_sampled(ell: ConsistencyEllipsoid,
                                  bases: RegressorBases, V: Polynomial,
                                  k: Sequence[Polynomial], lam: Polynomial,
                                  alpha3: Sequence[float],
                                  alpha4: Sequence[float],
                                  n_samples: int = 1000, box: float = 2.0,
                                  rng: np.random.Generator | None = None,
                                  tol: float = 1e-6) -> VerificationReport:
    """Max eigenvalue of the dissipation matrix over a sampled box."""
    rng = rng or np.random.default_rng(0)
    n = bases.n
    XE = rng.uniform(-box, box, size=(n_samples, 2 * n))
    XE[0] = 0.0
    M = theorem1_matrix_values(ell, bases, V, k, lam, alpha3, alpha4, XE)
    eigs = np.linalg.eigvalsh(M)[:, -1]
    i = int(np.argmax(eigs))
    return VerificationReport(
        name="dissipation_matrix_sampled", worst=float(eigs[i]), tol=tol,
        n_samples=n_samples, witness=XE[i].tolist())


def check_lambda_floor(res, n_samples: int = 2000, box: float = 2.0,
                       rng: np.random.Generator | None = None,
                       tol: float = 1e-7) -> VerificationReport:
    """Multiplier stays above epsilon on samples: epsilon - lambda <= tol."""
    rng = rng or np.random.default_rng(0)
    nv = len(res.lam.vars)
    XE = rng.uniform(-box, box, size=(n_samples, nv))
    XE[0] = 0.0
    vals = res.lam.eval_many(XE)
    i = int(np.argmin(vals))
    return VerificationReport(
        name="multiplier_floor", worst=float(res.epsilon - vals[i]), tol=tol,
        n_samples=n_samples, witness=XE[i].tolist(),
        details={"lambda_min": float(vals[i]), "epsilon": res.epsilon})


def check_kinf_gates(res, tol: float = 1e-9) -> VerificationReport:
    """Coefficient gates making all four comparison functions class Kinf."""
    worst = -np.inf
    details = {}
    for i, c in enumerate(res.alpha, start=1):
        c = np.asarray(c, dtype=float)
        neg = float(-c.min()) if c.size else np.inf
        short = float(res.epsilon - c.sum())
        worst = max(worst, neg, short)
        details[f"alpha{i}"] = {"min_coeff": float(c.min()) if c.size else None,
                                "sum": float(c.sum())}
    return VerificationReport(
        name="kinf_coefficient_gates", worst=worst, tol=tol,
        n_samples=4, details=details)


def check_certificates(res, ell: ConsistencyEllipsoid,
                       rng: np.random.Generator | None = None,
                       tol_recon: float = 1e-6,
                       tol_eig: float = 1e-7,
                       tol_matrix: float = 1e-4) -> VerificationReport:
    """Gram certificates: eigenvalue floors plus reconstruction residuals.

    Scalar slots are compared coefficient-by-coefficient against their
    defining identities at tol_recon.  The matrix slot stores PSD blocks
    certifying s4 - margin * (masked diagonal), so its quadratic form is
    compared against the dissipation matrix with the margin term added
    back; that slot inherits the coupled solve's row error and gets the
    looser tol_matrix, rescaled into the shared worst/tol report.
    """
    from .poly import variables
    from .sos import gram_polynomial

    rng = rng or np.random.default_rng(0)
    bases: RegressorBases = res.bases
    n = bases.n
    worst = -np.inf
    details = {}

    def gram_floor(name) -> float:
        ent = res.certificates[name]
        return min(float(np.linalg.eigvalsh(np.asarray(G, dtype=float))[0])
                   for G in ent["blocks"])

    def recon_scalar(name, target: Polynomial) -> float:
        ent = res.certificates[name]
        vs = variables(ent["vars"])
        total = Polynomial.zero(vs)
        for G, exps in zip(ent["blocks"], ent["block_exps"]):
            total = total + gram_polynomial(np.asarray(G, dtype=float),
                                            [tuple(e) for e in exps], vs)
        diff = total - target.extend(vs)
        return max((abs(c) for c in diff.terms.values()), default=0.0)

    sq = squared_norm(res.V.vars)
    a1 = alpha_poly_in(res.alpha[0], sq)
    a2 = alpha_poly_in(res.alpha[1], sq)
    checks = {
        "s1": res.V - a1,
        "s2": a2 - res.V,
        "s3": res.lam - Polynomial.constant(res.lam.vars, res.epsilon),
    }
    # eigenvalue deficits are rescaled onto the reconstruction tolerance so a
    # single worst/tol pair decides the report: floor < -tol_eig means fail
    def eig_deficit(floor: float) -> float:
        return tol_recon + (-floor) - tol_eig

    for name, target in checks.items():
        floor = gram_floor(name)
        resid = recon_scalar(name, target)
        details[name] = {"min_eig": floor, "reconstruction": resid}
        worst = max(worst, eig_deficit(floor), resid)

    # matrix slot: quadratic form against the dissipation matrix at samples
    ent = res.certificates["s4"]
    floor4 = gram_floor("s4")
    t_margin = float(ent.get("margin", 0.0))
    mask = ent.get("margin_mask")
    d = 1 + n + bases.N + bases.M
    P = 200
    XE = rng.uniform(-2.0, 2.0, size=(P, 2 * n))
    M = theorem1_matrix_values(ell, bases, res.V, res.k, res.lam,
                               res.alpha[2], res.alpha[3], XE)
    Y = rng.standard_normal((P, d))
    target_vals = -np.einsum("pi,pij,pj->p", Y, M, Y)
    gram_vals = np.zeros(P)
    pts = np.hstack([Y, XE])
    for bi, (G, exps) in enumerate(zip(ent["blocks"], ent["block_exps"])):
        Ez = np.array([list(e) for e in exps])
        Zv = np.prod(pts[:, None, :] ** Ez[None, :, :], axis=2)
        gram_vals += np.einsum("pa,ab,pb->p", Zv, np.asarray(G, dtype=float), Zv)
        if mask is not None:
            gram_vals += t_margin * (Zv ** 2) @ np.asarray(mask[bi], dtype=float)
    scale = 1.0 + np.max(np.abs(target_vals))
    resid4 = float(np.max(np.abs(target_vals - gram_vals)) / scale)
    details["s4"] = {"min_eig": floor4, "reconstruction": resid4,
                     "margin": t_margin}
    worst = max(worst, eig_deficit(floor4), resid4 * (tol_recon / tol_matrix))

    return VerificationReport(
        name="certificate_reconstruction", worst=worst, tol=tol_recon,
        n_samples=P, details=details)


def alpha_poly_in(coeffs: Sequence[float], sq_norm: Polynomial) -> Polynomial:
    """alpha as a polynomial in the state, by composing with |x|^2."""
    out = Polynomial.zero(sq_norm.vars)
    power = sq_norm
    for c in coeffs:
        out = out + power * float(c)
        power = power * sq_norm
    return out


def verify_suite(res, ell: ConsistencyEllipsoid,
                 AB_true: np.ndarray | None = None,
                 seed: int = 0) -> list[VerificationReport]:
    """The full post-synthesis verification battery, deterministic in seed."""
    reports = [
        check_kinf_gates(res),
        check_sandwich(res, rng=np.random.default_rng(seed)),
        check_lambda_floor(res, rng=np.random.default_rng(seed + 1)),
        check_theorem1_matrix_sampled(
            ell, res.bases, res.V, res.k, res.lam, res.alpha[2], res.alpha[3],
            rng=np.random.default_rng(seed + 2)),
        check_schur_equiv(
            ell, res.bases, res.V, res.k, res.lam, res.alpha[2], res.alpha[3],
            rng=np.random.default_rng(seed + 3)),
        check_dissipation_sampled(
            res, ell, rng=np.random.default_rng(seed + 4), AB_true=AB_true),
        check_certificates(res, ell, rng=np.random.default_rng(seed + 5)),
    ]
    return reports
