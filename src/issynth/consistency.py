"""Set-membership consistency: which coefficient matrices fit the data.

Samples (t, u, x, xdot) of an input-affine polynomial system

    xdot = A Z(x) + B W(x) u + d,    |d|^2 <= delta,

constrain the unknown coefficient pair [A B].  Each sample's quadratic
matrix inequality on [A B] is fixed by its regressor xi = [Z(x); W(x) u],
its derivative xdot and delta; this module stacks those rows, fits a
matrix ellipsoid that contains every consistent [A B], the one of largest
det(A_bar) among those an S-procedure certificate admits, by one
semidefinite program, and exposes
membership tests both for the exact per-sample sets and for the fitted
ellipsoid.  The fit first checks excitation: unless the stacked regressors
have full column rank N+M, some direction of [A B] is unconstrained and
the fit raises ConsistencyError before any solve.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .poly import Polynomial, Variable, eval_floats, parse_poly, variables
from .sdp import SdpProblem, solve_sdp


class ConsistencyError(RuntimeError):
    """Ellipsoid fit failed.

    The reason is too little excitation in the data (stacked regressors of
    rank below N+M, found before any solve), a fit solve that ends neither
    optimal nor feasible, or a degenerate fit.
    """


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
        # Z then W row by row: one eval_floats call gives every entry
        self._flat = self.Z + tuple(p for row in self.W for p in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RegressorBases):
            return NotImplemented
        return self.vars == other.vars and self.Z == other.Z and self.W == other.W

    def regressor(self, x: Sequence[float], u: Sequence[float]) -> np.ndarray:
        """Stacked regressor [Z(x); W(x) u] of length N+M.

        The entries come from one `eval_floats` call.  With one input
        column, W(x) u is ``0.0 + w*u`` per row: what the float64 matrix
        product gives, signed zeros included.  Wider W(x) u is a numpy
        product.
        """
        u = np.asarray(u, dtype=float)
        if u.shape != (self.m,):
            raise ValueError(f"expected input of length {self.m}, got {u.shape}")
        pt = np.asarray(x, dtype=float)
        if pt.shape != (self.n,):
            raise ValueError(f"expected point of length {self.n}, got {pt.shape}")
        vals = eval_floats(self._flat, pt.tolist())
        z, w = vals[:self.N], vals[self.N:]
        if self.m == 1:
            u0 = float(u[0])
            return np.array(z + [0.0 + wi * u0 for wi in w])
        return np.concatenate([z, np.array(w).reshape(self.M, self.m) @ u])

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
    strictly positive.  Every sample's t, u, x and xdot must be finite.
    """

    def __init__(self, bases: RegressorBases, delta: float, samples: Sequence[Sample]):
        delta = float(delta)
        if not np.isfinite(delta) or delta < 0.0:
            raise ValueError(f"delta must be finite and >= 0, got {delta}")
        self.bases = bases
        self.delta = delta
        clean: list[Sample] = []
        for idx, s in enumerate(samples):
            u = np.asarray(s.u, dtype=float).reshape(-1)
            x = np.asarray(s.x, dtype=float).reshape(-1)
            xdot = np.asarray(s.xdot, dtype=float).reshape(-1)
            if u.shape != (bases.m,):
                raise ValueError(f"sample input has shape {u.shape}, expected ({bases.m},)")
            if x.shape != (bases.n,) or xdot.shape != (bases.n,):
                raise ValueError(
                    f"sample state/derivative shapes {x.shape}/{xdot.shape}, expected ({bases.n},)"
                )
            t = float(s.t)
            for name, v in (("t", t), ("u", u), ("x", x), ("xdot", xdot)):
                if not np.all(np.isfinite(v)):
                    raise ValueError(f"sample {idx} has a non-finite {name}")
            clean.append(Sample(t, u, x, xdot))
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


# ---------------------------------------------------------------------------
# per-sample data


def _outer_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise outer products a_t b_t^T, stacked along the first axis."""
    return np.einsum("ta,tb->tab", a, b)


@dataclass(frozen=True, eq=False)
class DataMatrices:
    """Raw sample rows: regressors xi_i = [Z(x_i); W(x_i) u_i] and derivatives.

    Sample i constrains zeta = [A B]^T by |xdot_i - zeta^T xi_i|^2 <= delta,
    the quadratic matrix inequality with the per-sample matrices C, B, A
    below.  The ellipsoid fit needs the stacked regressors to have full
    column rank N+M (enough excitation); with fewer independent rows the
    consistent set is unbounded and the fit raises ConsistencyError.
    Instances compare and hash by identity: the fields are arrays.
    """

    xi: np.ndarray    # (T, N+M)
    xdot: np.ndarray  # (T, n)
    delta: float

    def __len__(self) -> int:
        return self.xi.shape[0]

    @property
    def C(self) -> np.ndarray:
        """(T, n, n): xdot xdot^T - delta I."""
        return _outer_rows(self.xdot, self.xdot) - self.delta * np.eye(self.xdot.shape[1])

    @property
    def B(self) -> np.ndarray:
        """(T, N+M, n): -xi xdot^T."""
        return -_outer_rows(self.xi, self.xdot)

    @property
    def A(self) -> np.ndarray:
        """(T, N+M, N+M): xi xi^T."""
        return _outer_rows(self.xi, self.xi)


def build_data_matrices(ds: Dataset) -> DataMatrices:
    if ds.delta <= 0.0:
        raise ValueError("data matrices need a strictly positive noise bound delta")
    b = ds.bases
    xi = np.array([b.regressor(s.x, s.u) for s in ds.samples]).reshape(ds.T, b.N + b.M)
    xdot = np.array([s.xdot for s in ds.samples]).reshape(ds.T, b.n)
    return DataMatrices(xi, xdot, ds.delta)


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
        ell.history = [{"best_logdet": v} for v in d.get("fit_logdets", [])]
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
    n = dm.xdot.shape[1]
    p = dm.xi.shape[1]
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


# the fit's certificate holds with this much to spare in unit coordinates;
# 1e-6 is as large as A_t's smallest eigenvalue on ordinary data
FIT_MARGIN = 1e-8


def _fit_problem(Cs: np.ndarray, Bs: np.ndarray, As: np.ndarray, margin: float) -> SdpProblem:
    """The data constraints of the fit, as an SDP over P = -S - margin*I >= 0
    (block 0) and the multipliers (blocks 1..T), without an objective.

    ``_add_logdet`` appends the objective and its rows after these, so row
    0, whose rhs is 1 - margin, stays first.  A positive margin makes the
    returned certificate hold strictly, so it survives the round trip back
    to raw data units (the congruence blows constraint residuals up by
    1/rho^2).  A_bar is P33 + margin*I.
    """
    T, n = Cs.shape[:2]
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
    return prob


def _add_logdet(prob: SdpProblem, n: int, p: int, margin: float) -> None:
    """Make maximizing det(A_t)^(1/p) the objective of a ``_fit_problem``
    with n states, whose A_t = P33 + margin*I is p x p.

    Some Delta, lower triangular with diagonal delta, makes the block
    [[A_t, Delta], [Delta^T, Diag(delta)]] PSD exactly when delta >= 0 and
    prod(delta) <= det(A_t).  A binary tree of 2 x 2
    blocks [[u, s], [s, v]] >= 0, each s <= sqrt(u v), takes the geometric
    mean of the leaves delta, padded to a power of two by the root's s:
    then s_root <= prod(delta)^(1/p), and the objective is -s_root
    (Ben-Tal & Nemirovski, Lectures on Modern Convex Optimization, 2001).
    Everything is a block entry, so the problem has no free variables.
    """
    D = prob.add_block(2 * p, "logdet")
    # upper left: A_t = P33 + margin I
    for a in range(p):
        for b in range(a, p):
            prob.add_row([(D, a, b, 1.0), (0, n + p + a, n + p + b, -1.0)],
                         rhs=margin if a == b else 0.0)
    # upper right: Delta lower triangular; lower right: Diag(delta)
    for a in range(p):
        for b in range(a + 1, p):
            prob.add_row([(D, a, p + b, 1.0)], rhs=0.0)
            prob.add_row([(D, p + a, p + b, 1.0)], rhs=0.0)
        prob.add_row([(D, p + a, p + a, 1.0), (D, a, p + a, -1.0)], rhs=0.0)
    # heap order: node k has children 2k + 1 and 2k + 2; the last q are leaves
    q = 1 << (p - 1).bit_length()
    tree = [prob.add_block(2, f"mean{k}") for k in range(q - 1)]

    def value(k: int) -> tuple[int, int, int]:
        if k < q - 1:
            return tree[k], 0, 1
        leaf = k - (q - 1)
        return (D, leaf, p + leaf) if leaf < p else value(0)

    for k, blk in enumerate(tree):
        for c in (0, 1):
            prob.add_row([(blk, c, c, 1.0), (*value(2 * k + 1 + c), -1.0)], rhs=0.0)
    prob.set_objective_entry(*value(0), -1.0)


def _fit_coordinates(dm: DataMatrices) -> tuple[DataMatrices, np.ndarray, float]:
    """Centered, noise-normalized data for the fit SDP.

    The raw constraint set sits at distance O(|zeta|) from the origin with
    radius O(sqrt(delta)/|xi|); solving in those units pushes the shape
    matrix to 1/delta scale and breaks the interior-point solver.  We shift
    by the least-squares coefficient estimate zeta0 and rescale so every
    slab becomes |r - zeta^T xi|^2 <= 1 with O(1) data, returned as unit-noise
    sample rows.  The substitution zeta -> zeta0 + rho * zeta is a congruence
    on the constraint, so the multipliers transfer back exactly as
    tau = tau_tilde / delta.
    """
    sqd = np.sqrt(dm.delta)
    zeta0 = np.linalg.lstsq(dm.xi, dm.xdot, rcond=None)[0]  # (p, n)
    resid = (dm.xdot - dm.xi @ zeta0) / sqd                 # (T, n)
    s_xi = float(np.sqrt(np.mean(np.sum(dm.xi ** 2, axis=1))))
    s_xi = max(s_xi, 1e-30)
    return DataMatrices(dm.xi / s_xi, resid, 1.0), zeta0, sqd / s_xi


def solve_overapprox(
    dm: DataMatrices, bases: RegressorBases | None = None,
) -> ConsistencyEllipsoid:
    """Fit the max-det consistency ellipsoid by one SDP solve at FIT_MARGIN.

    Before any solve the stacked regressors must have full column rank N+M
    (rank counted above 1e-9 of the largest singular value); otherwise the
    data leave some direction of [A B] unconstrained and ConsistencyError
    names the rank and N+M.  The solve maximizes det(A_bar)^(1/p), p = N+M,
    subject to the data constraint (``_fit_problem`` and ``_add_logdet``),
    which gives the smallest ellipsoid the S-procedure certificate admits
    (Vandenberghe, Boyd & Wu, SIAM J. Matrix Anal. Appl. 1998).  A solve
    that ends neither optimal nor feasible raises ConsistencyError naming
    its status and message.  ``history`` holds one entry: best_logdet
    (log det A_bar, which ``to_json`` writes as ``fit_logdets``), the
    margin and the solve's iteration count, ``iterations``.
    """
    p = dm.xi.shape[1]
    sv = np.linalg.svd(dm.xi, compute_uv=False)
    rank = int(np.count_nonzero(sv > 1e-9 * sv[0])) if sv.size else 0
    if rank < p:
        raise ConsistencyError(
            f"too little excitation: stacked regressors have rank {rank} < N+M = {p}")
    unit, zeta0, rho = _fit_coordinates(dm)
    T, n = unit.xdot.shape
    prob = _fit_problem(unit.C, unit.B, unit.A, FIT_MARGIN)
    _add_logdet(prob, n, p, FIT_MARGIN)
    sol = solve_sdp(prob)
    if sol.status not in ("optimal", "feasible"):
        raise ConsistencyError(f"ellipsoid fit ended {sol.status}: {sol.message}")
    Pm = sol.blocks[0]
    A_t = 0.5 * (Pm[n + p:, n + p:] + Pm[n + p:, n + p:].T) + FIT_MARGIN * np.eye(p)
    A_bar = A_t / rho ** 2
    B_bar = -Pm[n + p:, :n] / rho - A_bar @ zeta0
    tau = np.array([float(sol.blocks[1 + i][0, 0]) for i in range(T)]) * (1.0 / dm.delta)
    sign, logdet = np.linalg.slogdet(A_bar)
    if sign <= 0:
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
    ell.history = [{"best_logdet": float(logdet), "margin": FIT_MARGIN,
                    "iterations": sol.iterations}]
    ell.bases = bases
    return ell


# ---------------------------------------------------------------------------
# membership tests


# pass threshold of `membership`, a constant like the oracle tolerances in
# verify.py, so a membership test cannot be loosened to make a run pass
MEMBERSHIP_TOL = 1e-8


class MembershipResult(NamedTuple):
    ok: bool
    residual: float


def membership(AB: np.ndarray, ell: ConsistencyEllipsoid) -> MembershipResult:
    """Ellipsoid membership of [A B]; residual is the worst eigenvalue.

    Negative residual means strictly inside; zero is the boundary; ok means
    residual <= MEMBERSHIP_TOL.
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
    return MembershipResult(residual <= MEMBERSHIP_TOL, residual)


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
