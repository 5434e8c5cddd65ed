"""Set-membership consistency: which coefficient matrices fit the data.

Samples (t, u, x, xdot) of an input-affine polynomial system

    xdot = A Z(x) + B W(x) u + d,    |d|^2 <= delta,

constrain the unknown coefficient pair [A B].  Each sample induces a
quadratic matrix inequality on [A B]; this module builds those per-sample
forms, fits a matrix ellipsoid that contains every consistent [A B] by
semidefinite programming with a linearized determinant objective, and
exposes membership tests both for the exact per-sample sets and for the
fitted ellipsoid.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .poly import Polynomial, Variable, parse_poly, variables
from .sdp import SdpProblem, SolveOptions, solve_sdp


class ConsistencyError(RuntimeError):
    """Ellipsoid fit failed: infeasible, unbounded, or degenerate."""


# ---------------------------------------------------------------------------
# regressor bases and datasets


class RegressorBases:
    """Polynomial regressors: Z maps x to R^N, W maps x to an M x m matrix.

    All entries share one state-variable tuple.  Z entries must vanish at
    the origin so the modeled drift A Z(x) does.
    """

    def __init__(
        self,
        vars: tuple[Variable, ...],
        Z: Sequence[Polynomial],
        W: Sequence[Sequence[Polynomial]],
    ):
        self.vars = tuple(vars)
        if not Z:
            raise ValueError("Z basis must have at least one entry")
        for p in Z:
            if p.vars != self.vars:
                raise ValueError("Z entries must use the state variable tuple")
            if p.constant_term() != 0.0:
                raise ValueError(
                    f"Z entry {p.to_string()!r} has a constant term; Z(0)=0 is required"
                )
        if not W or not W[0]:
            raise ValueError("W basis must be a nonempty matrix")
        cols = len(W[0])
        for row in W:
            if len(row) != cols:
                raise ValueError("ragged W basis rows")
            for p in row:
                if p.vars != self.vars:
                    raise ValueError("W entries must use the state variable tuple")
        self.Z = tuple(Z)
        self.W = tuple(tuple(row) for row in W)
        self.n = len(self.vars)
        self.N = len(self.Z)
        self.M = len(self.W)
        self.m = cols

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegressorBases):
            return NotImplemented
        return self.vars == other.vars and self.Z == other.Z and self.W == other.W

    def z_at(self, x: Sequence[float]) -> np.ndarray:
        return np.array([p.eval(x) for p in self.Z])

    def w_at(self, x: Sequence[float]) -> np.ndarray:
        return np.array([[p.eval(x) for p in row] for row in self.W])

    def regressor(self, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        """Stacked regressor [Z(x); W(x) u] of length N+M."""
        u = np.asarray(u, dtype=float)
        if u.shape != (self.m,):
            raise ValueError(f"expected input of length {self.m}, got {u.shape}")
        return np.concatenate([self.z_at(x), self.w_at(x) @ u])

    def to_json_dict(self) -> dict:
        return {
            "variables": [v.name for v in self.vars],
            "Z_basis": [p.to_string() for p in self.Z],
            "W_basis": [[p.to_string() for p in row] for row in self.W],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "RegressorBases":
        vs = variables(d["variables"])
        Z = [parse_poly(s, vs) for s in d["Z_basis"]]
        W = [[parse_poly(s, vs) for s in row] for row in d["W_basis"]]
        return cls(vs, Z, W)


class Sample(NamedTuple):
    t: float
    u: np.ndarray
    x: np.ndarray
    xdot: np.ndarray


class Dataset:
    """Experiment records plus the regressor bases they refer to.

    delta is the squared-norm noise bound: every recorded xdot is assumed
    within sqrt(delta) of A Z(x) + B W(x) u for the true coefficients.
    delta may be zero (noiseless data); the ellipsoid fit requires it
    strictly positive.
    """

    def __init__(self, bases: RegressorBases, delta: float, samples: Sequence[Sample]):
        delta = float(delta)
        if not np.isfinite(delta) or delta < 0.0:
            raise ValueError(f"delta must be finite and >= 0, got {delta}")
        self.bases = bases
        self.delta = delta
        clean: list[Sample] = []
        for s in samples:
            u = np.asarray(s.u, dtype=float).reshape(-1)
            x = np.asarray(s.x, dtype=float).reshape(-1)
            xdot = np.asarray(s.xdot, dtype=float).reshape(-1)
            if u.shape != (bases.m,):
                raise ValueError(f"sample input has shape {u.shape}, expected ({bases.m},)")
            if x.shape != (bases.n,) or xdot.shape != (bases.n,):
                raise ValueError(
                    f"sample state/derivative shapes {x.shape}/{xdot.shape}, expected ({bases.n},)"
                )
            clean.append(Sample(float(s.t), u, x, xdot))
        self.samples = clean

    @property
    def T(self) -> int:
        return len(self.samples)

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            **self.bases.to_json_dict(),
            "samples": [
                {"t": s.t, "u": s.u.tolist(), "x": s.x.tolist(), "xdot": s.xdot.tolist()}
                for s in self.samples
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "Dataset":
        samples = [
            Sample(float(s["t"]), np.array(s["u"], dtype=float),
                   np.array(s["x"], dtype=float), np.array(s["xdot"], dtype=float))
            for s in d["samples"]
        ]
        return cls(RegressorBases.from_json_dict(d), float(d["delta"]), samples)

    @classmethod
    def from_json(cls, s: str) -> "Dataset":
        return cls.from_json_dict(json.loads(s))

    def content_hash(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()


# ---------------------------------------------------------------------------
# regressor matrices and per-sample data matrices


class Regressors(NamedTuple):
    Z0: np.ndarray  # (N, T), columns Z(x_i)
    W0: np.ndarray  # (M, T), columns W(x_i) u_i
    rank: int

    @property
    def full_row_rank(self) -> bool:
        return self.rank == self.Z0.shape[0] + self.W0.shape[0]


def build_regressors(ds: Dataset) -> Regressors:
    """Column-stack the regressors of every sample and rank the result.

    The rank of the stacked (N+M) x T matrix decides whether the ellipsoid
    fit is guaranteed feasible; the threshold is 1e-9 relative to the
    largest singular value.
    """
    if ds.T < 1:
        raise ValueError("dataset has no samples")
    b = ds.bases
    Z0 = np.column_stack([b.z_at(s.x) for s in ds.samples])
    W0 = np.column_stack([b.w_at(s.x) @ s.u for s in ds.samples])
    sv = np.linalg.svd(np.vstack([Z0, W0]), compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(sv > 1e-9 * sv[0]))
    return Regressors(Z0, W0, rank)


@dataclass(frozen=True)
class DataMatrices:
    """Per-sample quadratic-form matrices, stacked along the first axis.

    The optional raw fields carry the regressors and derivatives the
    matrices were built from; the ellipsoid fit uses them to precondition
    its internal coordinates (the matrices alone define the constraint).
    """

    C: np.ndarray  # (T, n, n), xdot xdot^T - delta I
    B: np.ndarray  # (T, N+M, n), -[Z; Wu] xdot^T
    A: np.ndarray  # (T, N+M, N+M), [Z; Wu] [Z; Wu]^T
    xi: np.ndarray | None = None    # (T, N+M) raw regressors
    xdot: np.ndarray | None = None  # (T, n) raw derivatives
    delta: float | None = None

    def __len__(self) -> int:
        return self.C.shape[0]


def build_data_matrices(ds: Dataset) -> DataMatrices:
    if ds.delta <= 0.0:
        raise ValueError("data matrices need a strictly positive noise bound delta")
    n = ds.bases.n
    I = np.eye(n)
    Cs, Bs, As, xis, xdots = [], [], [], [], []
    for s in ds.samples:
        xi = ds.bases.regressor(s.x, s.u)
        Cs.append(np.outer(s.xdot, s.xdot) - ds.delta * I)
        Bs.append(-np.outer(xi, s.xdot))
        As.append(np.outer(xi, xi))
        xis.append(xi)
        xdots.append(s.xdot)
    return DataMatrices(np.array(Cs), np.array(Bs), np.array(As),
                        np.array(xis), np.array(xdots), ds.delta)


# ---------------------------------------------------------------------------
# ellipsoid fit


@dataclass
class ConsistencyEllipsoid:
    """Matrix ellipsoid containing every coefficient pair consistent with data.

    Membership of [A B] with zeta = [A B]^T is the matrix inequality
    B_bar^T A_bar^{-1} B_bar + B_bar^T zeta + zeta^T B_bar + zeta^T A_bar zeta <= I,
    equivalently zeta = zeta_bar + A_bar^{-1/2} U with ||U|| <= 1.
    """

    A_bar: np.ndarray          # (N+M, N+M), symmetric positive definite
    B_bar: np.ndarray          # (N+M, n)
    zeta_bar: np.ndarray       # (N+M, n), center -A_bar^{-1} B_bar
    A_bar_inv_sqrt: np.ndarray  # (N+M, N+M), symmetric PSD
    tau: np.ndarray = field(default_factory=lambda: np.zeros(0))
    history: list = field(default_factory=list)
    bases: "RegressorBases | None" = None

    def to_json_dict(self) -> dict:
        d = {
            "A_bar": self.A_bar.tolist(),
            "B_bar": self.B_bar.tolist(),
            "zeta_bar": self.zeta_bar.tolist(),
            "A_bar_inv_sqrt": self.A_bar_inv_sqrt.tolist(),
            "tau": self.tau.tolist(),
            "fit_logdets": [h["best_logdet"] for h in self.history],
        }
        if self.bases is not None:
            d.update(self.bases.to_json_dict())
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "ConsistencyEllipsoid":
        ell = ellipsoid_params(np.array(d["A_bar"], dtype=float),
                               np.array(d["B_bar"], dtype=float))
        ell.tau = np.array(d.get("tau", []), dtype=float)
        if "Z_basis" in d:
            ell.bases = RegressorBases.from_json_dict(d)
        return ell

    @classmethod
    def from_json(cls, s: str) -> "ConsistencyEllipsoid":
        return cls.from_json_dict(json.loads(s))


def ellipsoid_params(A_bar: np.ndarray, B_bar: np.ndarray) -> ConsistencyEllipsoid:
    """Derive center and inverse square root from the shape pair (A_bar, B_bar)."""
    A_bar = np.asarray(A_bar, dtype=float)
    B_bar = np.asarray(B_bar, dtype=float)
    if A_bar.ndim != 2 or A_bar.shape[0] != A_bar.shape[1]:
        raise ValueError(f"A_bar must be square, got shape {A_bar.shape}")
    if B_bar.ndim != 2 or B_bar.shape[0] != A_bar.shape[0]:
        raise ValueError(f"B_bar shape {B_bar.shape} incompatible with A_bar {A_bar.shape}")
    if np.abs(A_bar - A_bar.T).max() > 1e-8 * max(1.0, np.abs(A_bar).max()):
        raise ValueError("A_bar is not symmetric")
    As = 0.5 * (A_bar + A_bar.T)
    w, U = np.linalg.eigh(As)
    if w.min() <= 1e-10:
        raise ConsistencyError(
            f"degenerate ellipsoid: shape matrix min eigenvalue {w.min():.3e} <= 1e-10"
        )
    inv_sqrt = (U * (w ** -0.5)) @ U.T
    inv_sqrt = 0.5 * (inv_sqrt + inv_sqrt.T)
    p = As.shape[0]
    err = np.abs(inv_sqrt @ inv_sqrt @ As - np.eye(p)).max()
    if err > 1e-8:
        raise ConsistencyError(
            f"inverse square root inaccurate (residual {err:.3e}); shape matrix too ill-conditioned"
        )
    zeta_bar = -np.linalg.solve(As, B_bar)
    return ConsistencyEllipsoid(
        A_bar=As,
        B_bar=B_bar,
        zeta_bar=zeta_bar,
        A_bar_inv_sqrt=inv_sqrt,
    )


def assemble_overapprox_lmi(
    dm: DataMatrices, A_bar: np.ndarray, B_bar: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """Numeric 3x3 block matrix whose negative semidefiniteness certifies the fit.

    Layout (blocks of sizes n, N+M, N+M):
        [ -I - sum tau_i C_i      *                    *      ]
        [ B_bar - sum tau_i B_i   A_bar - sum tau_i A_i   *   ]
        [ B_bar                   0                  -A_bar   ]
    """
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (len(dm),):
        raise ValueError(f"expected {len(dm)} multipliers, got shape {tau.shape}")
    n = dm.C.shape[1]
    p = dm.A.shape[1]
    tC = np.tensordot(tau, dm.C, axes=1)
    tB = np.tensordot(tau, dm.B, axes=1)
    tA = np.tensordot(tau, dm.A, axes=1)
    S = np.zeros((n + 2 * p, n + 2 * p))
    S[:n, :n] = -np.eye(n) - tC
    blk21 = B_bar - tB
    S[n:n + p, :n] = blk21
    S[:n, n:n + p] = blk21.T
    S[n:n + p, n:n + p] = A_bar - tA
    S[n + p:, :n] = B_bar
    S[:n, n + p:] = B_bar.T
    S[n + p:, n + p:] = -A_bar
    return S


def _fit_problem(
    Cs: np.ndarray, Bs: np.ndarray, As: np.ndarray, W_obj: np.ndarray,
    margin: float = 0.0,
) -> SdpProblem:
    """One linearized fit step as an SDP over P = -S - margin*I >= 0 and the multipliers.

    A positive margin makes the returned certificate hold strictly, so it
    survives the round trip back to raw data units (the congruence blows
    constraint residuals up by 1/rho^2).  A_bar is P33 + margin*I.
    """
    T = Cs.shape[0]
    n = Cs.shape[1]
    p = As.shape[1]
    prob = SdpProblem()
    P = prob.add_block(n + 2 * p, "neg_lmi")
    tb = [prob.add_block(1, f"tau{i}") for i in range(T)]
    # (1,1): P11 = (1 - margin) I + sum tau_i C_i
    for a in range(n):
        for b in range(a, n):
            entries = [(P, a, b, 1.0)]
            entries += [(tb[i], 0, 0, -Cs[i, a, b]) for i in range(T)]
            prob.add_row(entries, rhs=1.0 - margin if a == b else 0.0)
    # (2,1): P21 = sum tau_i B_i - B_bar, with B_bar = -P31
    for r in range(p):
        for c in range(n):
            entries = [(P, n + r, c, 1.0), (P, n + p + r, c, -1.0)]
            entries += [(tb[i], 0, 0, -Bs[i, r, c]) for i in range(T)]
            prob.add_row(entries, rhs=0.0)
    # (2,2) + (3,3): P22 + P33 = sum tau_i A_i - 2 margin I, with A_bar = P33 + margin I
    for a in range(p):
        for b in range(a, p):
            entries = [(P, n + a, n + b, 1.0), (P, n + p + a, n + p + b, 1.0)]
            entries += [(tb[i], 0, 0, -As[i, a, b]) for i in range(T)]
            prob.add_row(entries, rhs=-2.0 * margin if a == b else 0.0)
    # (3,2): zero block
    for a in range(p):
        for b in range(p):
            prob.add_row([(P, n + p + a, n + b, 1.0)], rhs=0.0)
    # minimize -trace(W_obj @ A_bar); the margin shift only adds a constant
    for a in range(p):
        prob.set_objective_entry(P, n + p + a, n + p + a, -W_obj[a, a])
        for b in range(a + 1, p):
            prob.set_objective_entry(P, n + p + a, n + p + b, -2.0 * W_obj[a, b])
    return prob


def _fit_coordinates(dm: DataMatrices) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, float]:
    """Centered, noise-normalized coordinates for the fit SDP.

    The raw constraint set sits at distance O(|zeta|) from the origin with
    radius O(sqrt(delta)/|xi|); solving in those units pushes the shape
    matrix to 1/delta scale and breaks the interior-point solver.  We shift
    by the least-squares coefficient estimate zeta0 and rescale so every
    slab becomes |r - zeta^T xi|^2 <= 1 with O(1) data.  The substitution
    zeta -> zeta0 + rho * zeta is a congruence on the constraint, so the
    multipliers transfer back exactly as tau = tau_tilde / delta.
    """
    T, p = dm.xi.shape
    n = dm.xdot.shape[1]
    delta = float(dm.delta)
    sqd = np.sqrt(delta)
    zeta0 = np.linalg.lstsq(dm.xi, dm.xdot, rcond=None)[0]  # (p, n)
    resid = (dm.xdot - dm.xi @ zeta0) / sqd                 # (T, n)
    s_xi = float(np.sqrt(np.mean(np.sum(dm.xi ** 2, axis=1))))
    s_xi = max(s_xi, 1e-30)
    xi_t = dm.xi / s_xi
    rho = sqd / s_xi
    I = np.eye(n)
    Cs = np.einsum("ta,tb->tab", resid, resid) - I[None, :, :]
    Bs = -np.einsum("ta,tb->tab", xi_t, resid)
    As = np.einsum("ta,tb->tab", xi_t, xi_t)
    return Cs, Bs, As, zeta0, rho


def solve_overapprox(
    dm: DataMatrices, iters: int = 5, opts: SolveOptions | None = None,
    bases: RegressorBases | None = None,
) -> ConsistencyEllipsoid:
    """Fit the consistency ellipsoid by iterated linearized determinant maximization.

    Iteration j maximizes trace(A_prev^{-1} A_bar) subject to the data
    constraint.  A_prev starts at the mean regressor outer product; a pure
    trace objective (A_prev = I) collapses onto the dominant regressor
    direction and gives a useless rank-one linearization point.  Every
    solver-accepted candidate satisfies the constraint, so each is a valid
    overapproximation; the best log-determinant candidate seen so far is
    kept, which makes the reported per-iteration sequence nondecreasing.
    Rejected steps halve the linearization move instead of terminating.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if opts is None:
        opts = SolveOptions()
    n = dm.C.shape[1]
    p = dm.A.shape[1]
    if dm.xi is not None and dm.xdot is not None and dm.delta:
        Cs, Bs, As, zeta0, rho = _fit_coordinates(dm)
        tau_scale = 1.0 / float(dm.delta)
    else:
        Cs, Bs, As = dm.C, dm.B, dm.A
        zeta0, rho, tau_scale = np.zeros((p, n)), 1.0, 1.0

    def to_original(A_t: np.ndarray, B_t: np.ndarray, tau_t: np.ndarray):
        A_bar = A_t / rho ** 2
        B_bar = B_t / rho - A_bar @ zeta0
        return A_bar, B_bar, tau_t * tau_scale

    def weight_at(lin: np.ndarray) -> np.ndarray:
        # ridge keeps the weight finite when the linearization point is flat
        lam_max = float(np.linalg.eigvalsh(lin)[-1])
        W = np.linalg.inv(lin + 1e-6 * max(1.0, lam_max) * np.eye(p))
        W = 0.5 * (W + W.T)
        return W * (p / np.trace(W))  # scale-free objective

    class _MarginInfeasible(Exception):
        pass

    def attempt(margin: float):
        def solve_step(W_obj: np.ndarray):
            prob = _fit_problem(Cs, Bs, As, W_obj, margin=margin)
            sol = solve_sdp(prob, opts)
            if sol.status == "infeasible":
                if margin > 0.0:
                    raise _MarginInfeasible
                raise ConsistencyError("ellipsoid fit infeasible: no bounded consistent set")
            if sol.status == "unbounded":
                raise ConsistencyError(
                    "ellipsoid fit unbounded: insufficient data richness "
                    "(stacked regressors are rank-deficient?)"
                )
            if sol.status not in ("optimal", "feasible"):
                raise ConsistencyError(f"ellipsoid fit failed: {sol.message or sol.status}")
            Pm = sol.blocks[0]
            A_t = 0.5 * (Pm[n + p:, n + p:] + Pm[n + p:, n + p:].T)
            A_t = A_t + margin * np.eye(p)
            B_t = -Pm[n + p:, :n].copy()
            tau_t = np.array([float(sol.blocks[1 + i][0, 0]) for i in range(len(dm))])
            return A_t, B_t, tau_t, sol.status

        # warmup solve fixes the linearization point; a raw trace objective
        # tends to collapse onto the best-excited regressor direction, so its
        # optimizer is only used as the starting weight, never reported
        gram = 0.5 * (As.mean(axis=0) + As.mean(axis=0).T)
        lin_point, _, _, _ = solve_step(weight_at(gram))

        best: tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        history: list[dict] = []
        for it in range(iters):
            A_t, B_t, tau_t, status = solve_step(weight_at(lin_point))
            A_bar, B_bar, tau = to_original(A_t, B_t, tau_t)
            sign, ld = np.linalg.slogdet(A_bar)
            logdet = float(ld) if sign > 0 else -np.inf
            accepted = best is None or logdet >= best[0]
            if accepted:
                best = (logdet, A_bar, B_bar, tau, A_t)
                lin_point = A_t
            else:
                # overshoot: damp toward the rejected candidate and retry
                lin_point = 0.5 * (lin_point + A_t)
            history.append({
                "iteration": it,
                "logdet": logdet,
                "accepted": accepted,
                "best_logdet": best[0],
                "A_bar": best[1],
                "B_bar": best[2],
                "tau": best[3],
                "candidate_A_bar": A_bar,
                "candidate_B_bar": B_bar,
                "candidate_tau": tau,
                "solver_status": status,
            })
        assert best is not None
        return best, history

    # the margin trims a negligible sliver of volume; drop it only if it
    # makes the constraint set empty (extremely flat consistency sets)
    for margin in (1e-6, 1e-8, 0.0):
        try:
            best, history = attempt(margin)
            break
        except _MarginInfeasible:
            continue
    logdet, A_bar, B_bar, tau, _ = best
    if not np.isfinite(logdet):
        raise ConsistencyError("degenerate ellipsoid: fitted shape matrix is singular")
    if tau.min() < -1e-10:
        raise ConsistencyError(f"negative multiplier {tau.min():.3e} returned by the fit")
    tau = np.maximum(tau, 0.0)
    S = assemble_overapprox_lmi(dm, A_bar, B_bar, tau)
    s_max = float(np.linalg.eigvalsh(S)[-1])
    if s_max > 1e-6:
        raise ConsistencyError(
            f"fitted point violates the data constraint: max eigenvalue {s_max:.3e}"
        )
    ell = ellipsoid_params(A_bar, B_bar)
    ell.tau = tau
    ell.history = history
    ell.bases = bases
    return ell


# ---------------------------------------------------------------------------
# membership tests


class MembershipResult(NamedTuple):
    ok: bool
    residual: float


def membership(AB: np.ndarray, ell: ConsistencyEllipsoid, tol: float = 1e-8) -> MembershipResult:
    """Ellipsoid membership of [A B]; residual is the worst eigenvalue.

    Negative residual means strictly inside; zero is the boundary.
    """
    AB = np.asarray(AB, dtype=float)
    p, n = ell.B_bar.shape
    if AB.shape != (n, p):
        raise ValueError(f"expected [A B] of shape ({n}, {p}), got {AB.shape}")
    zeta = AB.T
    core = ell.B_bar.T @ np.linalg.solve(ell.A_bar, ell.B_bar)
    M = core + ell.B_bar.T @ zeta + zeta.T @ ell.B_bar + zeta.T @ ell.A_bar @ zeta
    M = 0.5 * (M + M.T) - np.eye(n)
    residual = float(np.linalg.eigvalsh(M)[-1])
    return MembershipResult(residual <= tol, residual)


def membership_instantaneous(
    AB: np.ndarray, sample: Sample, delta: float, bases: RegressorBases
) -> MembershipResult:
    """Could [A B] have produced this sample within the noise bound?

    The residual is the squared norm of the implied noise realization;
    the test passes when it does not exceed delta (up to 1e-9 relative).
    """
    AB = np.asarray(AB, dtype=float)
    xi = bases.regressor(sample.x, sample.u)
    d = sample.xdot - AB @ xi
    residual = float(d @ d)
    return MembershipResult(residual <= delta * (1.0 + 1e-9), residual)
