"""Dense primal-dual interior-point solver for block-diagonal SDPs.

Standard form:

    minimize    c_psd . svec(X) + c_free . v
    subject to  sum_k <A_row, X_k> + a_free . v = b   (one row per equality)
                X_k  positive semidefinite,  v free

Symmetric blocks are vectorized with the scaled upper triangle ("svec"):
diagonal entries enter once, off-diagonal entries enter once scaled by
sqrt(2), so Euclidean inner products of svec vectors equal trace inner
products of the matrices.  Equality rows are stated in terms of unique
matrix entries G[i,j], i <= j, of the symmetric blocks; the row functional
is  sum_{i<=j} coeff * G[i,j].

The solver is a homogeneous self-dual embedding with Nesterov-Todd scaling
and a Mehrotra predictor-corrector, dense linear algebra throughout.  Free
variables are handled by eliminating rows that touch only free variables up
front and carrying the rest through an augmented Schur complement solve.
Infeasibility is reported through the embedding's tau/kappa ratio test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
STEP_FRACTION = 0.98
MIN_STEP = 1e-10
INFEAS_RATIO = 1e-6


# ---------------------------------------------------------------------------
# svec helpers


def svec_dim(d: int) -> int:
    return d * (d + 1) // 2


def svec_indices(d: int):
    """Upper-triangle row/col indices and svec scale factors for dimension d."""
    iu, ju = np.triu_indices(d)
    scale = np.where(iu == ju, 1.0, np.sqrt(2.0))
    return iu, ju, scale


def svec(S: np.ndarray) -> np.ndarray:
    d = S.shape[0]
    iu, ju, scale = svec_indices(d)
    return S[iu, ju] * scale


def smat(v: np.ndarray, d: int) -> np.ndarray:
    iu, ju, scale = svec_indices(d)
    S = np.zeros((d, d))
    S[iu, ju] = v / scale
    S = S + S.T
    S[np.diag_indices(d)] *= 0.5
    return S


def _congruence_matrix(Q: np.ndarray) -> np.ndarray:
    """Matrix of the map svec(S) -> svec(Q S Q^T), columns over svec coords."""
    d = Q.shape[0]
    iu, ju, scale = svec_indices(d)
    U = Q[:, iu]  # (d, nsvec) columns q_p
    V = Q[:, ju]
    # outer(q_p, q_q) for every svec coordinate
    T = U[:, None, :] * V[None, :, :]
    T = T + np.transpose(T, (1, 0, 2))
    # smat puts v/sqrt2 on both off-diagonal slots, v on the diagonal
    T *= np.where(iu == ju, 0.5, 1.0 / np.sqrt(2.0))[None, None, :]
    K = T[iu, ju, :] * scale[:, None]
    return K


# ---------------------------------------------------------------------------
# problem container


class SdpProblem:
    """Block-diagonal SDP with optional free variables, built row by row."""

    def __init__(self):
        self.block_dims: list[int] = []
        self.block_names: list[str] = []
        self.free_names: list[str] = []
        self._rows_psd: list[list[tuple[int, float]]] = []  # (svec coord, coeff)
        self._rows_free: list[list[tuple[int, float]]] = []
        self._rhs: list[float] = []
        self._c_psd: dict[int, float] = {}
        self._c_free: dict[int, float] = {}
        # svec start of every block, then the total svec length
        self._block_offsets: list[int] = [0]

    # -- construction -------------------------------------------------

    def add_block(self, dim: int, name: str = "") -> int:
        if dim < 1:
            raise ValueError("block dimension must be >= 1")
        dim = int(dim)
        self.block_dims.append(dim)
        self._block_offsets.append(self._block_offsets[-1] + svec_dim(dim))
        self.block_names.append(name or f"block{len(self.block_dims) - 1}")
        return len(self.block_dims) - 1

    def add_free(self, name: str = "") -> int:
        self.free_names.append(name or f"free{len(self.free_names)}")
        return len(self.free_names) - 1

    def _svec_coord(self, block: int, i: int, j: int) -> tuple[int, float]:
        d = self.block_dims[block]
        if not (0 <= i <= j < d):
            raise IndexError(f"entry ({i},{j}) outside upper triangle of dim {d}")
        off = self._block_offsets[block]
        # row-major upper triangle: entry (i,j) sits after full rows 0..i-1
        k = i * d - i * (i - 1) // 2 + (j - i)
        factor = 1.0 if i == j else 1.0 / np.sqrt(2.0)
        return off + k, factor

    def add_row(
        self,
        psd_entries: Sequence[tuple[int, int, int, float]] = (),
        free_entries: Sequence[tuple[int, float]] = (),
        rhs: float = 0.0,
    ) -> int:
        """Add equality  sum coeff*G_block[i,j] + sum coeff*v_idx = rhs."""
        prow: dict[int, float] = {}
        for blk, i, j, coeff in psd_entries:
            if i > j:
                i, j = j, i
            k, f = self._svec_coord(blk, i, j)
            prow[k] = prow.get(k, 0.0) + coeff * f
        frow: dict[int, float] = {}
        for idx, coeff in free_entries:
            if not 0 <= idx < len(self.free_names):
                raise IndexError(f"free variable index {idx} out of range")
            frow[idx] = frow.get(idx, 0.0) + coeff
        self._rows_psd.append(sorted(prow.items()))
        self._rows_free.append(sorted(frow.items()))
        self._rhs.append(float(rhs))
        return len(self._rhs) - 1

    def set_objective_entry(self, block: int, i: int, j: int, coeff: float) -> None:
        if i > j:
            i, j = j, i
        k, f = self._svec_coord(block, i, j)
        self._c_psd[k] = self._c_psd.get(k, 0.0) + coeff * f

    def set_objective_free(self, idx: int, coeff: float) -> None:
        self._c_free[idx] = self._c_free.get(idx, 0.0) + coeff

    # -- frozen arrays ------------------------------------------------

    @property
    def n_psd(self) -> int:
        return self._block_offsets[-1]

    @property
    def n_free(self) -> int:
        return len(self.free_names)

    @property
    def n_rows(self) -> int:
        return len(self._rhs)

    def arrays(self):
        """Assemble (A_psd csr, A_free csr, b, c_psd, c_free)."""
        m = self.n_rows

        def csr(rows, n_cols):
            data, indices, indptr = [], [], [0]
            for row in rows:
                for k, v in row:
                    indices.append(k)
                    data.append(v)
                indptr.append(len(data))
            return sp.csr_matrix(
                (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)),
                shape=(m, n_cols),
            )

        A_psd = csr(self._rows_psd, self.n_psd)
        A_free = csr(self._rows_free, self.n_free)
        b = np.array(self._rhs)
        c_psd = np.zeros(self.n_psd)
        for k, v in self._c_psd.items():
            c_psd[k] = v
        c_free = np.zeros(self.n_free)
        for k, v in self._c_free.items():
            c_free[k] = v
        return A_psd, A_free, b, c_psd, c_free

    def block_slices(self) -> list[slice]:
        offs = self._block_offsets
        return [slice(a, b) for a, b in zip(offs, offs[1:])]

    # -- serialization ------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "block_dims": self.block_dims,
            "block_names": self.block_names,
            "free_names": self.free_names,
            "rows_psd": [[[k, v] for k, v in row] for row in self._rows_psd],
            "rows_free": [[[k, v] for k, v in row] for row in self._rows_free],
            "rhs": self._rhs,
            "c_psd": sorted(self._c_psd.items()),
            "c_free": sorted(self._c_free.items()),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "SdpProblem":
        p = cls()
        for dim, name in zip(d["block_dims"], d["block_names"]):
            p.add_block(int(dim), name)
        p.free_names = list(d["free_names"])
        p._rows_psd = [[(int(k), float(v)) for k, v in row] for row in d["rows_psd"]]
        p._rows_free = [[(int(k), float(v)) for k, v in row] for row in d["rows_free"]]
        p._rhs = [float(x) for x in d["rhs"]]
        p._c_psd = {int(k): float(v) for k, v in d["c_psd"]}
        p._c_free = {int(k): float(v) for k, v in d["c_free"]}
        return p

    @classmethod
    def from_json(cls, s: str) -> "SdpProblem":
        return cls.from_json_dict(json.loads(s))


# ---------------------------------------------------------------------------
# solution container


@dataclass
class SdpSolution:
    status: str  # optimal | feasible | infeasible | unbounded | numerical-failure
    objective: Optional[float]
    blocks: list[np.ndarray] = field(default_factory=list)
    free: np.ndarray = field(default_factory=lambda: np.zeros(0))
    y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    z_blocks: list[np.ndarray] = field(default_factory=list)
    residuals: dict = field(default_factory=dict)
    iterations: int = 0
    message: str = ""

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "blocks": [B.tolist() for B in self.blocks],
            "free": self.free.tolist(),
            "y": self.y.tolist(),
            "z_blocks": [B.tolist() for B in self.z_blocks],
            "residuals": self.residuals,
            "iterations": self.iterations,
            "message": self.message,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "SdpSolution":
        return cls(
            status=d["status"],
            objective=d["objective"],
            blocks=[np.array(B) for B in d["blocks"]],
            free=np.array(d["free"]),
            y=np.array(d["y"]),
            z_blocks=[np.array(B) for B in d["z_blocks"]],
            residuals=dict(d["residuals"]),
            iterations=int(d["iterations"]),
            message=d.get("message", ""),
        )

    @classmethod
    def from_json(cls, s: str) -> "SdpSolution":
        return cls.from_json_dict(json.loads(s))


@dataclass
class SolveOptions:
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    step_fraction: float = STEP_FRACTION
    min_step: float = MIN_STEP
    infeas_ratio: float = INFEAS_RATIO
    init_scale: float = 1.0


# ---------------------------------------------------------------------------
# Nesterov-Todd scaling per block


class _BlockScaling:
    def __init__(self, X: np.ndarray, Z: np.ndarray):
        d = X.shape[0]
        self.d = d
        self.Lx = np.linalg.cholesky(X)
        self.Lz = np.linalg.cholesky(Z)
        M = self.Lz.T @ self.Lx
        U, sv, Vt = np.linalg.svd(M)
        self.lam = sv  # spectrum of the scaled point
        s_isqrt = 1.0 / np.sqrt(sv)
        self.R = self.Lx @ Vt.T * s_isqrt[None, :]
        Lx_inv = sla.solve_triangular(self.Lx, np.eye(d), lower=True)
        self.Rinv = (np.sqrt(sv)[:, None] * Vt) @ Lx_inv
        self.K = _congruence_matrix(self.R)        # W^T  : svec(R S R^T)
        self.J = _congruence_matrix(self.Rinv.T)   # W^-1 : svec(R^-T S R^-1)


def _max_step_psd(L: np.ndarray, Delta: np.ndarray) -> float:
    """Largest a with  M + a*Delta >= 0,  M = L L^T."""
    T = sla.solve_triangular(L, Delta, lower=True)
    T = sla.solve_triangular(L, T.T, lower=True)
    w = np.linalg.eigvalsh(0.5 * (T + T.T))
    wmin = w[0]
    if wmin >= -1e-16:
        return np.inf
    return -1.0 / wmin


# ---------------------------------------------------------------------------
# main solver


class _Preprocessed:
    """Problem after free-only-row elimination and row scaling."""

    def __init__(self, prob: SdpProblem):
        A_psd, A_free, b, c_psd, c_free = prob.arrays()
        m = prob.n_rows
        psd_nnz = np.diff(A_psd.indptr)
        free_nnz = np.diff(A_free.indptr)
        self.free_only_rows = np.where((psd_nnz == 0) & (free_nnz > 0))[0]
        self.zero_rows = np.where((psd_nnz == 0) & (free_nnz == 0))[0]
        self.kept_rows = np.where(psd_nnz > 0)[0]
        self.inconsistent = False
        self.orig_m = m

        for r in self.zero_rows:
            if abs(b[r]) > 1e-9 * (1.0 + np.abs(b).max(initial=0.0)):
                self.inconsistent = True

        nf = prob.n_free
        Rf = A_free[self.free_only_rows].toarray() if nf else np.zeros((0, 0))
        rf = b[self.free_only_rows]
        self.x_part = np.zeros(nf)
        self.N = np.eye(nf)
        if len(self.free_only_rows) and nf:
            # x_free = x_part + N q, with R_f x_free = r_f
            U, sv, Vt = np.linalg.svd(Rf, full_matrices=True)
            tol = max(Rf.shape) * np.finfo(float).eps * (sv[0] if len(sv) else 0.0)
            rank = int(np.sum(sv > max(tol, 1e-12)))
            if rank:
                self.x_part = Vt[:rank].T @ ((U[:, :rank].T @ rf) / sv[:rank])
            resid = Rf @ self.x_part - rf
            if np.linalg.norm(resid) > 1e-8 * (1.0 + np.linalg.norm(rf)):
                self.inconsistent = True
            self.N = Vt[rank:].T  # (nf, nf - rank)
        self.Rf = Rf

        self.A_psd = A_psd[self.kept_rows]
        A_free_kept = A_free[self.kept_rows].toarray() if nf else np.zeros((len(self.kept_rows), 0))
        self.A_free = A_free_kept @ self.N
        self.b = b[self.kept_rows] - (A_free_kept @ self.x_part if nf else 0.0)
        self.c_psd = c_psd
        self.obj_const = float(c_free @ self.x_part) if nf else 0.0
        self.c_free = self.N.T @ c_free if nf else np.zeros(0)
        self.c_free_orig = c_free
        self.A_free_kept_orig = A_free_kept

        # free columns that appear nowhere force either a pin or unboundedness
        if self.A_free.shape[1]:
            colnorm = np.linalg.norm(self.A_free, axis=0)
            dead = colnorm <= 1e-14
            self.unbounded_free = bool(np.any(dead & (np.abs(self.c_free) > 1e-12)))
            if np.any(dead):
                keep = ~dead
                self.N = self.N[:, keep]
                self.A_free = self.A_free[:, keep]
                self.c_free = self.c_free[keep]
        else:
            self.unbounded_free = False

        # row equilibration on the kept rows
        mm = len(self.kept_rows)
        rn = np.zeros(mm)
        if mm:
            rn = np.sqrt(np.asarray(self.A_psd.multiply(self.A_psd).sum(axis=1)).ravel()
                         + (self.A_free**2).sum(axis=1))
        rn = np.where(rn > 1e-14, rn, 1.0)
        self.row_scale = 1.0 / rn
        D = sp.diags(self.row_scale)
        self.A_psd = D @ self.A_psd
        self.A_free = self.A_free * self.row_scale[:, None]
        self.b = self.b * self.row_scale

    def recover_free(self, q: np.ndarray) -> np.ndarray:
        if self.N.size == 0 and len(self.x_part) == 0:
            return np.zeros(0)
        return self.x_part + (self.N @ q if self.N.shape[1] else 0.0)

    def recover_y(self, y_kept: np.ndarray, ray: bool = False) -> np.ndarray:
        """Duals for all original rows; eliminated rows get least-squares duals.

        For an improving ray the free-variable dual equation is homogeneous,
        so the eliminated duals solve Rf^T y = -A_fk^T y_kept instead of
        matching the free objective coefficients.
        """
        y = np.zeros(self.orig_m)
        y[self.kept_rows] = y_kept * self.row_scale
        if len(self.free_only_rows):
            rhs = -self.A_free_kept_orig.T @ y[self.kept_rows]
            if not ray:
                rhs = rhs + self.c_free_orig
            sol, *_ = np.linalg.lstsq(self.Rf.T, rhs, rcond=None)
            y[self.free_only_rows] = sol
        return y


def _block_structure(prob: SdpProblem, A_psd: sp.csr_matrix):
    """Per-block CSR slices and the rows touching each block."""
    A_csc = A_psd.tocsc()
    slices = prob.block_slices()
    out = []
    for bi, sl in enumerate(slices):
        sub = A_csc[:, sl]
        rows = np.unique(sub.tocoo().row)
        out.append((bi, sl, rows, sub.tocsr()[rows] if len(rows) else None))
    return out


def solve_sdp(prob: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Solve the SDP; deterministic for identical problem data."""
    opts = opts or SolveOptions()
    pre = _Preprocessed(prob)
    if pre.inconsistent:
        return SdpSolution(
            status="infeasible",
            objective=None,
            y=np.zeros(prob.n_rows),
            message="linear equalities on free variables are inconsistent",
        )
    if pre.unbounded_free:
        return SdpSolution(
            status="unbounded",
            objective=None,
            message="objective depends on a free variable no equality touches",
        )

    dims = prob.block_dims
    n_psd = prob.n_psd
    A = pre.A_psd
    Af = pre.A_free
    b = pre.b
    c = pre.c_psd
    cf = pre.c_free
    m = A.shape[0]
    nf = Af.shape[1]
    struct = _block_structure(prob, A)
    slices = prob.block_slices()
    nu = sum(dims)

    # identity start
    s0 = opts.init_scale
    X = [np.eye(d) * s0 for d in dims]
    Z = [np.eye(d) * s0 for d in dims]
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    def vec_x():
        return np.concatenate([svec(Xk) for Xk in X]) if dims else np.zeros(0)

    def vec_z():
        return np.concatenate([svec(Zk) for Zk in Z]) if dims else np.zeros(0)

    xf = np.zeros(nf)
    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.sqrt(np.linalg.norm(c) ** 2 + np.linalg.norm(cf) ** 2)

    best = None
    status, msg = "numerical-failure", "iteration limit reached"
    it = 0

    for it in range(1, opts.max_iter + 1):
        xv = vec_x()
        zv = vec_z()
        # residuals of the homogeneous model
        Rp = A @ xv + Af @ xf - b * tau
        Rd_psd = -(A.T @ y) + c * tau - zv
        Rd_free = -(Af.T @ y) + cf * tau
        Rg = float(b @ y - c @ xv - cf @ xf - kappa)
        mu = (float(xv @ zv) + tau * kappa) / (nu + 1)

        # convergence metrics at the de-homogenized point
        xhat = xv / tau
        xfhat = xf / tau
        yhat = y / tau
        zhat = zv / tau
        pres = np.linalg.norm(A @ xhat + Af @ xfhat - b) / norm_b
        dres = np.sqrt(
            np.linalg.norm(A.T @ yhat + zhat - c) ** 2
            + np.linalg.norm(Af.T @ yhat - cf) ** 2
        ) / norm_c
        pobj = float(c @ xhat + cf @ xfhat)
        dobj = float(b @ yhat)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        score = max(pres, dres, gap)
        if best is None or score < best[0]:
            best = (score, [Xk / tau for Xk in X], xfhat.copy(), yhat.copy(),
                    [Zk / tau for Zk in Z], pres, dres, gap, pobj)

        if max(pres, dres, gap) <= opts.tol:
            status, msg = "optimal", f"converged in {it} iterations"
            break

        if tau <= opts.infeas_ratio * kappa:
            # certificate quality decides between the two infeasibility kinds
            by = float(b @ y)
            cx = float(c @ xv + cf @ xf)
            dual_ray = np.sqrt(
                np.linalg.norm(A.T @ y + zv) ** 2 + np.linalg.norm(Af.T @ y) ** 2
            )
            prim_ray = np.linalg.norm(A @ xv + Af @ xf)
            if by > 0 and dual_ray <= 1e-6 * max(1.0, by) * norm_c:
                status, msg = "infeasible", "dual improving ray found"
                break
            if cx < 0 and prim_ray <= 1e-6 * max(1.0, -cx) * norm_b:
                status, msg = "unbounded", "primal improving ray found"
                break
            status, msg = "numerical-failure", "tau collapsed without clean certificate"
            break

        # NT scalings
        try:
            scalings = [_BlockScaling(Xk, Zk) for Xk, Zk in zip(X, Z)]
        except np.linalg.LinAlgError:
            status, msg = "numerical-failure", "iterate left the cone"
            break

        # Schur complement  M = sum_blocks A_b (W^T W) A_b^T  (+ augmented free part)
        M = np.zeros((m, m))
        Bmats = []
        for (bi, sl, rows, Asub) in struct:
            if Asub is None:
                Bmats.append(None)
                continue
            Bsub = Asub @ scalings[bi].K  # rows: svec(R^T Ai R)...
            Bmats.append((rows, Bsub))
            M[np.ix_(rows, rows)] += Bsub @ Bsub.T

        jitter = 0.0
        base = np.trace(M) / max(m, 1)
        L_M = None
        for attempt in range(6):
            try:
                L_M = np.linalg.cholesky(M + jitter * np.eye(m))
                break
            except np.linalg.LinAlgError:
                jitter = max(base * 10.0 ** (attempt - 14), 1e-14)
        if L_M is None:
            status, msg = "numerical-failure", "Schur complement factorization failed"
            break

        if nf:
            MA = sla.cho_solve((L_M, True), Af)
            S_F = Af.T @ MA
            try:
                L_F = np.linalg.cholesky(S_F + 1e-14 * np.eye(nf) * max(1.0, np.trace(S_F) / max(nf, 1)))
            except np.linalg.LinAlgError:
                status, msg = "numerical-failure", "free-variable Schur factorization failed"
                break
        else:
            MA, L_F = None, None

        def apply_Hinv(v):
            out = np.empty_like(v)
            for (bi, sl, rows, Asub) in struct:
                Kb = scalings[bi].K
                out[sl] = Kb @ (Kb.T @ v[sl])
            return out

        def solve_kkt(u_K, u_F, u_y):
            """[H dxK - AK^T dy = u_K; -AF^T dy = u_F; AK dxK + AF dxF = u_y]."""
            Hi_uK = apply_Hinv(u_K)
            g = u_y - A @ Hi_uK
            h = -u_F
            if nf:
                t1 = sla.cho_solve((L_M, True), g)
                rhsF = Af.T @ t1 - h
                dxF = sla.cho_solve((L_F, True), rhsF)
                dy = t1 - MA @ dxF
            else:
                dxF = np.zeros(0)
                dy = sla.cho_solve((L_M, True), g)
            dxK = Hi_uK + apply_Hinv(A.T @ dy)
            return dxK, dxF, dy

        # solve for the tau-direction basis (depends on scaling only)
        q_xK, q_xF, q_y = solve_kkt(-c, -cf, b)
        denom_base = float(kappa / tau + (b @ q_y - c @ q_xK - (cf @ q_xF if nf else 0.0)))

        lam_all = [s.lam for s in scalings]

        def direction(sigma, corr_mats, corr_tk):
            eta = 1.0 - sigma
            # d_c per block as matrices
            rhs_u = np.empty(n_psd)
            for (bi, sl, rows, Asub) in struct:
                lam = lam_all[bi]
                Dc = -np.diag(lam**2)
                if sigma:
                    Dc = Dc + sigma * mu * np.eye(len(lam))
                if corr_mats is not None:
                    Dc = Dc - corr_mats[bi]
                Umat = 2.0 * Dc / (lam[:, None] + lam[None, :])
                w_inv_u = scalings[bi].J @ svec(Umat)
                rhs_u[sl] = -eta * Rd_psd[sl] + w_inv_u
            u_F = -eta * Rd_free
            u_y = -eta * Rp
            d_tk = sigma * mu - tau * kappa - corr_tk
            p_xK, p_xF, p_y = solve_kkt(rhs_u, u_F, u_y)
            num = (-eta * Rg + c @ p_xK + (cf @ p_xF if nf else 0.0) - b @ p_y
                   + d_tk / tau)
            dtau = float(num / denom_base)
            dxK = p_xK + dtau * q_xK
            dxF = (p_xF + dtau * q_xF) if nf else np.zeros(0)
            dy = p_y + dtau * q_y
            # recover dz from dual feasibility rather than complementarity:
            # the dual residual then contracts even when the Schur solve is
            # inexact near the optimum, and the complementarity error is
            # re-centered at the next iteration anyway
            dz = -(A.T @ dy) + c * dtau + eta * Rd_psd
            dX_mats = [smat(dxK[sl], dims[bi]) for (bi, sl, _, _) in struct]
            dZ_mats = [smat(dz[sl], dims[bi]) for (bi, sl, _, _) in struct]
            dkappa = (d_tk - kappa * dtau) / tau
            return dX_mats, dxF, dy, dZ_mats, dtau, dkappa, dxK, dz

        def max_step(dX_mats, dZ_mats, dtau, dkappa):
            a = np.inf
            for bi, (dXm, dZm) in enumerate(zip(dX_mats, dZ_mats)):
                a = min(a, _max_step_psd(scalings[bi].Lx, dXm))
                a = min(a, _max_step_psd(scalings[bi].Lz, dZm))
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkappa < 0:
                a = min(a, -kappa / dkappa)
            return a

        # predictor
        aff = direction(0.0, None, 0.0)
        dXa, dxFa, dya, dZa, dtaua, dkappaa, dxKa, dza = aff
        a_aff = min(1.0, max_step(dXa, dZa, dtaua, dkappaa))
        mu_aff = (
            float((xv + a_aff * dxKa) @ (zv + a_aff * dza))
            + (tau + a_aff * dtaua) * (kappa + a_aff * dkappaa)
        ) / (nu + 1)
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        sigma = min(max(sigma, 1e-8), 1.0 - 1e-8)

        # corrector terms (W^-T dx_aff) o (W dz_aff) per block
        corr_mats = []
        for bi in range(len(dims)):
            Rm, Rinv = scalings[bi].R, scalings[bi].Rinv
            Xi = Rinv @ dXa[bi] @ Rinv.T
            Om = Rm.T @ dZa[bi] @ Rm
            corr_mats.append(0.5 * (Xi @ Om + Om @ Xi))
        corr_tk = dtaua * dkappaa

        comb = direction(sigma, corr_mats, corr_tk)
        dX, dxF, dy, dZ, dtau, dkappa, dxK, dz = comb
        a = min(1.0, opts.step_fraction * max_step(dX, dZ, dtau, dkappa))

        if a < opts.min_step:
            if best is not None and best[5] <= opts.tol and best[6] <= opts.tol:
                status, msg = "feasible", "stalled with feasible iterate, gap above tolerance"
            else:
                status, msg = "numerical-failure", f"step length {a:.2e} below minimum"
            break

        for bi in range(len(dims)):
            X[bi] = X[bi] + a * dX[bi]
            Z[bi] = Z[bi] + a * dZ[bi]
            X[bi] = 0.5 * (X[bi] + X[bi].T)
            Z[bi] = 0.5 * (Z[bi] + Z[bi].T)
        xf = xf + a * dxF if nf else xf
        y = y + a * dy
        tau += a * dtau
        kappa += a * dkappa
    else:
        it = opts.max_iter
        if best is not None and best[5] <= opts.tol and best[6] <= opts.tol:
            status, msg = "feasible", "iteration limit with feasible iterate"

    if status in ("infeasible", "unbounded"):
        sol = SdpSolution(status=status, objective=None, iterations=it, message=msg)
        sol.y = pre.recover_y(y, ray=True) if status == "infeasible" else np.zeros(prob.n_rows)
        if status == "unbounded":
            sol.blocks = [Xk.copy() for Xk in X]
        return sol

    if status == "numerical-failure" and best is None:
        return SdpSolution(status=status, objective=None, iterations=it, message=msg)

    # a numerical break that leaves a feasible iterate is still usable: the
    # residuals certify feasibility, and a not-fully-closed duality gap only
    # means the objective value is approximate, which callers validating the
    # extracted point independently can live with
    if status == "numerical-failure" and max(best[5], best[6]) <= 10.0 * opts.tol \
            and best[7] <= max(10.0 * opts.tol, 1e-6):
        status = "feasible"
        msg = f"stalled near tolerance (gap {best[7]:.1e}): {msg}"

    # report the best de-homogenized iterate
    _, Xb, xfb, yb, Zb, pres, dres, gap, pobj = best
    free_full = pre.recover_free(xfb)
    y_full = pre.recover_y(yb)
    min_eig = min(
        (float(np.linalg.eigvalsh(Xk)[0]) for Xk in Xb), default=0.0
    )
    sol = SdpSolution(
        status=status,
        objective=pobj + pre.obj_const,
        blocks=[0.5 * (Xk + Xk.T) for Xk in Xb],
        free=free_full,
        y=y_full,
        z_blocks=[0.5 * (Zk + Zk.T) for Zk in Zb],
        residuals={"primal_eq": float(pres), "min_eig": min_eig, "duality_gap": float(gap)},
        iterations=it,
        message=msg,
    )
    return sol


def validate_solution(prob: SdpProblem, sol: SdpSolution) -> dict:
    """Recompute residuals from the original problem data, never from solver state."""
    A_psd, A_free, b, c_psd, c_free = prob.arrays()
    if sol.status in ("infeasible", "unbounded") or not sol.blocks:
        return {"status": sol.status, "checked": False}
    xv = np.concatenate([svec(B) for B in sol.blocks]) if sol.blocks else np.zeros(0)
    vfree = sol.free if sol.free.size else np.zeros(prob.n_free)
    r = A_psd @ xv + (A_free @ vfree if prob.n_free else 0.0) - b
    primal_eq = float(np.linalg.norm(r) / (1.0 + np.linalg.norm(b)))
    min_eig = min(
        (float(np.linalg.eigvalsh(B)[0]) for B in sol.blocks), default=0.0
    )
    pobj = float(c_psd @ xv + (c_free @ vfree if prob.n_free else 0.0))
    dobj = float(b @ sol.y) if sol.y.size == prob.n_rows else float("nan")
    duality_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
    ok = primal_eq <= 1e-7 and min_eig >= -1e-8
    return {
        "status": sol.status,
        "checked": True,
        "primal_eq": primal_eq,
        "min_eig": min_eig,
        "duality_gap": float(duality_gap),
        "objective": pobj,
        "ok": bool(ok),
    }
