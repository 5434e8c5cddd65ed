"""Primal-dual interior-point solver for block-diagonal SDPs.

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
and a Mehrotra predictor-corrector.  Free variables are handled by
eliminating rows that touch only free variables up front and carrying the
rest through an augmented Schur complement solve.  Infeasibility is
reported through the embedding's tau/kappa ratio test.

One path serves every problem shape: without free variables, nonnegative
coordinates or free-only rows the same arithmetic runs on empty arrays,
with a special case's bits and speed.  Three branches on whether free
variables remain are kept.  Without them the free-variable Schur factor
and its products are skipped; formed empty, they make the six fits of a
khalil-fit-multi operation 1-3% slower (one BLAS thread).  Only with them
is a KKT solve refined: refining the fits changes their bits, and two fits
of that workload's operation 2 would end in 22 and 24 iterations, not 23
and 25.

The Schur complement M = A H^-1 A^T couples two rows only when they share
a matrix block or a nonnegative coordinate, so it is block diagonal over
the connected components of that sharing (the sparsity Fujisawa, Kojima &
Nakata 1997 exploit).  One plan per solve (``_SchurPlan``) holds all that
structure.  It finds the components in one pass of scipy's csgraph
``connected_components`` over the bipartite graph of rows and groups (the
nonnegative coordinates and the matrix blocks) and keeps each component of
two or more rows as a dense matrix in one buffer, followed by the rows
that share nothing with another row as one diagonal.  Each iteration it
forms M there, factors each component on its own (``np.linalg.cholesky``)
and solves with those factors.  On a problem whose rows form one component
and that has no free variables this is the same arithmetic, bit for bit,
as one dense factorization of M.  A term over some rows of a component
adds into it one run of consecutive positions by another, as slices,
which adds what an ``np.ix_`` scatter adds; component rows stay ascending,
since another order would change the Cholesky bits.  Each matrix block
adds its Gram matrix B B^T (below), and then the nonnegative cone adds its
term.  Every 1x1 block is one coordinate x_i >= 0 of that single cone: its
scaling is elementwise (H^-1 = diag(x/z)) and its step length is a
min-ratio test.  Its term A_lp diag(x/z) A_lp^T has the bits of scipy's
sparse triple product without its per-call cost: entry (i, j) is the sum
of (a_ik w_k) a_jk over k from the largest k down, one k at a time.  The
cone's rows of each component are one dense array, and those of all
singleton rows one zero-padded array, so r such rows over K coordinates
cost r^2 K products per iteration even where they share few coordinates;
in the benchmark's programs they are singletons (step V) or dense (the
fits).

When free variables remain, every KKT solve is refined
``KKT_REFINE_STEPS`` times: it is solved again with the same factors for
the residuals of the free-variable equation and of the primal rows.
Without that, the free-variable dual residual of the synthesis programs
stalls near 1e-6 and whether such a solve ends ``optimal`` depends on
rounding.  A component whose Cholesky fails is retried with its own
diagonal shifted (the trace's ``jitter``, the largest shift of the
iteration).  No solve of the benchmark workloads needs this fallback, but
some small random and matrix SOS programs do, and so does the ellipsoid
fit of collection seed 1 of the benchmark's experiment, which fails
without it.

A matrix block of dimension d keeps its NT scaling W = R R^T as the d x d
factor R; H^-1 and W^-1 act through d x d products, and its Schur rows
svec(R^T A_i R) are gathered from the rows of R over each row's few
entries (Todd, Toh & Tutuncu 1998; Fujisawa, Kojima & Nakata 1997).  A
row's entries are added in the order in which ``np.add.reduceat`` adds
those of a row of up to 8 entries, so such rows have its bits without its
per-row cost (``_SchurRows``).  Memory per iteration is O(m_c^2) per Schur
component of m_c rows plus, per matrix block, O(m_b * svec(d)) for its
rows (m_b rows touch it) and O(d^2) for its scaling; nothing of order
svec(d)^2 is formed.  Each solution carries a per-iteration trace with
the residuals and the seconds of every phase.

A solve ends in one of three ways.  It converges (``optimal``: scaled
primal and dual residuals and gap within ``DEFAULT_TOL``), it finds an
improving ray (``infeasible`` or ``unbounded``), or it stalls: tau
collapses without a clean ray, an iterate leaves the cone, the Schur or
free-variable Schur factorization fails, a search direction is not
finite, the step length falls below ``MIN_STEP``, or the iteration limit
is reached.  A stall reports the best iterate seen, which is ``feasible``
exactly when it passes ``validate_solution`` on the original data (its
objective is then approximate, the gap may be open) and
``numerical-failure`` otherwise.  The message names the stop.

Inputs are checked at the boundary, once.  ``SdpProblem`` rejects a block
dimension that is not a positive integer, a block, entry or free index out
of range, and a coefficient, right-hand side or objective value that is
not finite, both as it is built and as it is read from JSON, where the
block, row and objective lists must also agree in length; the error names
the row, entry or list.  Inside the loop the
triangular solves call LAPACK directly, without scipy's per-call
finiteness scans, and each search direction is checked once: numpy's
Cholesky returns NaN factors for a non-finite Schur complement rather than
raising, and such a direction ends the solve as a stall.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field
from itertools import chain
from numbers import Integral
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpotrs, dtrtrs

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
STEP_FRACTION = 0.98
MIN_STEP = 1e-10
INFEAS_RATIO = 1e-6
# re-solves of each KKT system for its residuals when free variables remain
KKT_REFINE_STEPS = 2


# ---------------------------------------------------------------------------
# svec helpers


def svec_dim(d: int) -> int:
    return d * (d + 1) // 2


@functools.lru_cache(maxsize=256)
def svec_indices(d: int):
    """Upper-triangle row/col indices and svec scale factors for dimension d.

    Cached per d and shared by every caller, so the arrays are read-only.
    """
    iu, ju = np.triu_indices(d)
    scale = np.where(iu == ju, 1.0, np.sqrt(2.0))
    for arr in (iu, ju, scale):
        arr.flags.writeable = False
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


# ---------------------------------------------------------------------------
# problem container


def _not_finite(what: str, value: float) -> ValueError:
    """The error for a non-finite input value; callers build ``what`` only
    after ``math.isfinite`` fails, so a check costs that one call."""
    return ValueError(f"{what} is not finite: {value}")


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
        if not isinstance(dim, Integral):
            raise ValueError(f"block dimension must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError(f"block dimension must be >= 1, got {dim}")
        dim = int(dim)
        self.block_dims.append(dim)
        self._block_offsets.append(self._block_offsets[-1] + svec_dim(dim))
        self.block_names.append(name or f"block{len(self.block_dims) - 1}")
        return len(self.block_dims) - 1

    def add_free(self, name: str = "") -> int:
        self.free_names.append(name or f"free{len(self.free_names)}")
        return len(self.free_names) - 1

    def _svec_coord(self, block: int, i: int, j: int) -> tuple[int, float]:
        if not 0 <= block < len(self.block_dims):
            raise IndexError(f"block index {block} out of range")
        d = self.block_dims[block]
        if not (0 <= i <= j < d):
            raise IndexError(f"entry ({i},{j}) outside upper triangle of dim {d}")
        off = self._block_offsets[block]
        # row-major upper triangle: entry (i,j) sits after full rows 0..i-1
        k = i * d - i * (i - 1) // 2 + (j - i)
        factor = 1.0 if i == j else 1.0 / np.sqrt(2.0)
        return off + k, factor

    def _check_free(self, idx: int) -> None:
        if not 0 <= idx < len(self.free_names):
            raise IndexError(f"free variable index {idx} out of range")

    def add_row(
        self,
        psd_entries: Sequence[tuple[int, int, int, float]] = (),
        free_entries: Sequence[tuple[int, float]] = (),
        rhs: float = 0.0,
    ) -> int:
        """Add equality  sum coeff*G_block[i,j] + sum coeff*v_idx = rhs."""
        r = len(self._rhs)
        if not math.isfinite(rhs):
            raise _not_finite(f"row {r}: rhs", rhs)
        prow: dict[int, float] = {}
        for blk, i, j, coeff in psd_entries:
            if not math.isfinite(coeff):
                raise _not_finite(f"row {r}: coefficient of block {blk} entry ({i},{j})", coeff)
            if i > j:
                i, j = j, i
            k, f = self._svec_coord(blk, i, j)
            prow[k] = prow.get(k, 0.0) + coeff * f
        frow: dict[int, float] = {}
        for idx, coeff in free_entries:
            if not math.isfinite(coeff):
                raise _not_finite(f"row {r}: coefficient of free variable {idx}", coeff)
            self._check_free(idx)
            frow[idx] = frow.get(idx, 0.0) + coeff
        self._rows_psd.append(sorted(prow.items()))
        self._rows_free.append(sorted(frow.items()))
        self._rhs.append(float(rhs))
        return len(self._rhs) - 1

    def set_objective_entry(self, block: int, i: int, j: int, coeff: float) -> None:
        if not math.isfinite(coeff):
            raise _not_finite(f"objective coefficient of block {block} entry ({i},{j})", coeff)
        if i > j:
            i, j = j, i
        k, f = self._svec_coord(block, i, j)
        self._c_psd[k] = self._c_psd.get(k, 0.0) + coeff * f

    def set_objective_free(self, idx: int, coeff: float) -> None:
        if not math.isfinite(coeff):
            raise _not_finite(f"objective coefficient of free variable {idx}", coeff)
        self._check_free(idx)
        self._c_free[idx] = self._c_free.get(idx, 0.0) + coeff

    def clear_objective(self) -> None:
        """Drop every objective coefficient; blocks, free variables and rows stay."""
        self._c_psd.clear()
        self._c_free.clear()

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
            # no Python loop per entry: numpy reads the entries from C iterators
            indptr = np.zeros(m + 1, np.int64)
            np.cumsum(np.fromiter(map(len, rows), np.int64, m), out=indptr[1:])
            nnz = indptr[-1]
            indices = np.fromiter(map(itemgetter(0), chain.from_iterable(rows)), np.int64, nnz)
            data = np.fromiter(map(itemgetter(1), chain.from_iterable(rows)), float, nnz)
            return sp.csr_matrix((data, indices, indptr), shape=(m, n_cols))

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
        dims, names = d["block_dims"], d["block_names"]
        if len(dims) != len(names):
            raise ValueError(f"block_dims ({len(dims)}) and block_names ({len(names)}) "
                             "differ in length")
        for dim, name in zip(dims, names):
            p.add_block(dim, name)
        p.free_names = list(d["free_names"])
        p._rows_psd = [[(int(k), float(v)) for k, v in row] for row in d["rows_psd"]]
        p._rows_free = [[(int(k), float(v)) for k, v in row] for row in d["rows_free"]]
        p._rhs = [float(x) for x in d["rhs"]]
        p._c_psd = {int(k): float(v) for k, v in d["c_psd"]}
        p._c_free = {int(k): float(v) for k, v in d["c_free"]}
        if not len(p._rows_psd) == len(p._rows_free) == len(p._rhs):
            raise ValueError("rows_psd, rows_free and rhs differ in length")
        psd = [k for row in p._rows_psd for k, _ in row] + list(p._c_psd)
        free = [k for row in p._rows_free for k, _ in row] + list(p._c_free)
        for coords, n, what in ((psd, p.n_psd, "svec coordinate"),
                                (free, p.n_free, "free index")):
            bad = [k for k in coords if not 0 <= k < n]
            if bad:
                raise ValueError(f"{what} {bad[0]} outside [0, {n})")
        for r, (prow, frow, rhs) in enumerate(zip(p._rows_psd, p._rows_free, p._rhs)):
            if not math.isfinite(rhs):
                raise _not_finite(f"row {r}: rhs", rhs)
            for where, row in (("svec coordinate", prow), ("free variable", frow)):
                for k, v in row:
                    if not math.isfinite(v):
                        raise _not_finite(f"row {r}: coefficient of {where} {k}", v)
        for where, obj in (("svec coordinate", p._c_psd), ("free variable", p._c_free)):
            for k, v in obj.items():
                if not math.isfinite(v):
                    raise _not_finite(f"objective coefficient of {where} {k}", v)
        return p

    @classmethod
    def from_json(cls, s: str) -> "SdpProblem":
        return cls.from_json_dict(json.loads(s))


# ---------------------------------------------------------------------------
# solution container


@dataclass
class SdpSolution:
    # optimal | infeasible | unbounded, or after a stall feasible when the
    # best iterate passes validate_solution and numerical-failure when not
    status: str
    objective: Optional[float]
    blocks: list[np.ndarray] = field(default_factory=list)
    free: np.ndarray = field(default_factory=lambda: np.zeros(0))
    y: np.ndarray = field(default_factory=lambda: np.zeros(0))
    z_blocks: list[np.ndarray] = field(default_factory=list)
    iterations: int = 0
    message: str = ""
    # one dict per iteration: mu, pres, dres, gap, tau, kappa, sigma, step,
    # the largest diagonal jitter a Schur component needed (0.0 when none)
    # and the seconds of each phase; left out of the JSON form
    trace: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "status": self.status,
            "objective": self.objective,
            "blocks": [B.tolist() for B in self.blocks],
            "free": self.free.tolist(),
            "y": self.y.tolist(),
            "z_blocks": [B.tolist() for B in self.z_blocks],
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
            iterations=int(d["iterations"]),
            message=d.get("message", ""),
        )

    @classmethod
    def from_json(cls, s: str) -> "SdpSolution":
        return cls.from_json_dict(json.loads(s))


# ---------------------------------------------------------------------------
# Nesterov-Todd scaling of the matrix blocks


def _cho_solve(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve L L^T X = B for a lower Cholesky factor L.

    LAPACK potrs on the upper factor L^T, whose memory is Fortran order
    when L is C-ordered as numpy's Cholesky returns it, so it is not copied;
    the bits are those of ``scipy.linalg.cho_solve((L, True), B)``
    (``test_cho_solve_matches_scipy``), without its finiteness scans, since
    solve_sdp checks its directions instead.
    """
    if B.size == 0:
        return np.empty_like(B)
    X, info = dpotrs(L.T, B, lower=0)
    if info:
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return X


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve L X = B for lower triangular L.

    LAPACK trtrs with the arguments ``scipy.linalg.solve_triangular(L, B,
    lower=True)`` passes it: L itself when it is Fortran-ordered, else the
    transposed upper system on L^T, whose memory already is Fortran order.
    """
    if L.flags.f_contiguous:
        X, info = dtrtrs(L, B, lower=1)
    else:
        X, info = dtrtrs(L.T, B, lower=0, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return X


class _BlockScaling:
    """NT scaling W = R R^T of one matrix block: W Z W = X, R^-1 X R^-T = R^T Z R = diag(lam)."""

    def __init__(self, X: np.ndarray, Z: np.ndarray):
        d = X.shape[0]
        self.Lx = np.linalg.cholesky(X)
        self.Lz = np.linalg.cholesky(Z)
        M = self.Lz.T @ self.Lx
        U, sv, Vt = np.linalg.svd(M)
        self.lam = sv  # spectrum of the scaled point
        s_isqrt = 1.0 / np.sqrt(sv)
        self.R = self.Lx @ Vt.T * s_isqrt[None, :]
        Lx_inv = _solve_lower(self.Lx, np.eye(d))
        self.Rinv = (np.sqrt(sv)[:, None] * Vt) @ Lx_inv


def _congruence(Q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Q S Q^T, symmetrized."""
    T = Q @ S @ Q.T
    return 0.5 * (T + T.T)


def _hinv_svec(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    """H^-1 v = svec(W S W) for S = smat(v), W = R R^T, by d x d products.

    Both the middle factor R^T S R and the result are symmetrized; without
    that the rounding asymmetry feeds back into the iterates: 8 of the 15
    randomized test problems then need 18-28 iterations instead of 11-12
    and end ``feasible``.
    """
    d = R.shape[0]
    return svec(_congruence(R, _congruence(R.T, smat(v, d))))


def _winv_svec(Rinv: np.ndarray, U: np.ndarray) -> np.ndarray:
    """svec(R^-T U R^-1): a scaled-space matrix U back in the space of Z."""
    return svec(_congruence(Rinv.T, U))


# elements (entries x svec coordinates) one chunk of a Schur-row gather holds:
# 512 KiB temporaries stay in cache, so the 584 rows of step V's d = 44 block
# take 8.2 ms against 13.3 ms in one unchunked pass (one BLAS thread), and
# memory stays bounded for any d
SCHUR_CHUNK = 1 << 16


class _SchurRows:
    """Rows b_i = svec(R^T A_i R) of the rows touching one matrix block.

    M = B B^T is that block's share of the Schur complement.  A row's
    matrix A_i has few entries, so R^T A_i R is a sum of rank-2 products
    of rows of R, one per entry.  Each row's first product is written
    straight into B; the products of its other entries are summed in
    entry order, level by level over the rows, and added to it once, so a
    row of entries g0, g1, g2, ... is g0 + ((g1 + g2) + ...).  That is the
    order in which numpy 2.4's ``np.add.reduceat`` sums a segment of up to
    8 entries, so such rows have the bits of one reduceat per chunk
    without its per-segment cost; reduceat sums the tail of a longer
    segment pairwise, which differs from this order by rounding only.  The
    rows are gathered in chunks of whole rows, which keeps temporaries at
    O(SCHUR_CHUNK) instead of O(nnz * svec(d)).
    """

    def __init__(self, A_blk: sp.csr_matrix, d: int):
        """``A_blk``: the block's columns of the rows touching it, no row empty."""
        iu, ju, _ = svec_indices(d)
        self.d = d
        self.m = A_blk.shape[0]
        indptr, nnz = A_blk.indptr, np.diff(A_blk.indptr)
        p, q = iu[A_blk.indices], ju[A_blk.indices]
        # smat halves an off-diagonal svec value onto two slots through 1/sqrt2;
        # the rank-2 product below counts a diagonal entry twice
        coef = A_blk.data * np.where(p == q, 0.5, 1.0 / np.sqrt(2.0))
        per_chunk = max(1, SCHUR_CHUNK // svec_dim(d))
        starts = [0]
        for r in range(1, self.m):
            if indptr[r + 1] - indptr[starts[-1]] > per_chunk:
                starts.append(r)
        self.bounds = list(zip(starts, starts[1:] + [self.m]))
        # per chunk, its entries in the order rows() adds them: each row's
        # first entry; of the rows of two or more entries (``multi``, the
        # most entries first, so the rows that have a k-th entry are a
        # prefix), every second entry, then every third, and so on, where
        # ``levels`` holds each level's start and length
        self.plan = []
        for r0, r1 in self.bounds:
            multi = r0 + np.flatnonzero(nnz[r0:r1] > 1)
            multi = multi[np.argsort(-nnz[multi], kind="stable")]
            counts = [np.count_nonzero(nnz[multi] > k) for k in range(1, nnz[multi].max(initial=1))]
            e = np.concatenate([indptr[r0:r1]]
                               + [indptr[multi[:c]] + k for k, c in enumerate(counts, 1)])
            offs = np.cumsum([r1 - r0] + counts)
            self.plan.append((p[e], q[e], coef[e, None], multi, list(zip(offs[:-1], counts))))

    def rows(self, R: np.ndarray) -> np.ndarray:
        iu, ju, scale = svec_indices(self.d)
        RI = R[:, iu]
        RJ = R[:, ju]
        B = np.empty((self.m, len(iu)))
        for (r0, r1), (p, q, coef, multi, levels) in zip(self.bounds, self.plan):
            G = RI[p] * RJ[q]
            G += RI[q] * RJ[p]
            G *= coef
            B[r0:r1] = G[:r1 - r0]
            if levels:
                o, n = levels[0]
                tail = G[o:o + n]
                for o, n in levels[1:]:
                    tail[:n] += G[o:o + n]
                B[multi] += tail
        B *= scale
        return B


def _max_step_psd(L: np.ndarray, Delta: np.ndarray) -> float:
    """Largest a with  M + a*Delta >= 0,  M = L L^T."""
    T = _solve_lower(L, Delta)
    T = _solve_lower(L, T.T)
    w = np.linalg.eigvalsh(0.5 * (T + T.T))
    wmin = w[0]
    if wmin >= -1e-16:
        return np.inf
    return -1.0 / wmin


def _finite(*parts) -> bool:
    """Whether every entry of every array or number in ``parts`` is finite."""
    return all(np.isfinite(v).all() for v in parts)


def _max_step_lp(x: np.ndarray, dx: np.ndarray) -> float:
    """Largest a with  x + a*dx >= 0  (the min-ratio test), x > 0."""
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float((-x[neg] / dx[neg]).min())


# ---------------------------------------------------------------------------
# Schur complement plan


def _components(m: int, rows: np.ndarray, groups: np.ndarray) -> list[np.ndarray]:
    """Connected components of rows 0..m-1 when the rows of each group join;
    row ``rows[k]`` is in group ``groups[k]``.

    They are the components of the bipartite graph of rows and groups, rows
    numbered first, which csgraph numbers by their smallest node: so they
    come ordered by their smallest row, each with its rows ascending, the
    order the Cholesky bits depend on.
    """
    if not m:  # np.split of an empty order would give one empty component
        return []
    # here, not at the top: it loads scipy.sparse.linalg (3 MiB, 25 ms)
    from scipy.sparse.csgraph import connected_components

    n = m + groups.max(initial=-1) + 1
    graph = sp.coo_matrix((np.ones(len(rows)), (rows, m + groups)), shape=(n, n))
    labels = connected_components(graph, directed=False)[1][:m]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


def _sum_down(P: np.ndarray) -> np.ndarray:
    """P[0] + P[1] + ... added one term at a time, in that order.

    ``np.add.reduce`` over the leading axis adds so whenever the result has
    two or more entries; for a single entry it sums P[1:] pairwise, so that
    case takes the last partial sum of ``np.add.accumulate`` instead.
    """
    if P[0].size > 1:
        return np.add.reduce(P, axis=0)
    return np.add.accumulate(P, axis=0)[-1]


def _add_runs(Mc: np.ndarray, runs: list, S: np.ndarray) -> None:
    """Add S, a term over some rows of a component, into its matrix ``Mc``
    through the runs ``_SchurPlan.block`` gives for those rows."""
    for ma, ba in runs:
        for mb, bb in runs:
            Mc[ma, mb] += S[ba, bb]


class _SchurPlan:
    """The Schur complement M = A H^-1 A^T of one solve: its structure,
    found once, and per iteration its build, factorization and solve.

    The components (``_components``) of two or more rows are dense
    matrices stored row-major one after another in ``flat`` (``mats``
    views them, ``rows`` holds their rows ascending); the singleton rows
    follow as one diagonal, ``diag``.  With a single component of all m
    rows, ``mats[0]`` is laid out exactly as a dense m x m matrix.

    The nonnegative cone's term has the bits of scipy's ``csr_matmat``,
    which forms entry (i, j) of (A_lp diag(w)) A_lp^T as the sum of the
    products (a_ik w_k) a_jk over the coordinates k that rows i and j
    share, the largest k first, one product at a time.  ``lp_groups``
    holds per component the K x r array of its cone rows (coordinates
    descending, rows ascending), its coordinates, its chunks of rows of
    about ``SCHUR_CHUNK`` products and its runs; ``lp_singles`` holds the
    singleton rows' places in ``diag``, their K x S array (each column
    descending, zero-padded) and its coordinates.  Every product is
    formed, zero where a row lacks the coordinate, and summed over k in
    that order (``_sum_down``).  A zero product leaves a nonzero partial
    sum as it is, so each entry scipy forms has its bits; an entry that
    sums to zero, which scipy leaves out, adds a signed zero, which leaves
    every entry of ``flat`` as it is, since none holds -0.0.
    """

    def __init__(self, A: sp.csr_matrix, lp: np.ndarray, blocks: Sequence[tuple[slice, int]]):
        """``A``: the rows; ``lp``: its nonnegative coordinates; ``blocks``:
        each matrix block's svec columns and dimension."""
        m = A.shape[0]
        A_csc = A.tocsc()
        A_lp = A_csc[:, lp]
        subs = [A_csc[:, cols].tocsr() for cols, _ in blocks]
        block_rows = [np.flatnonzero(np.diff(sub.indptr)) for sub in subs]
        # the groups: each nonnegative coordinate, then each matrix block
        row, n_lp = A_lp.indices, len(lp)
        col = np.repeat(np.arange(n_lp), np.diff(A_lp.indptr))
        comps = _components(
            m, np.concatenate([row, *block_rows]),
            np.concatenate([col, *(np.full(len(r), n_lp + k) for k, r in enumerate(block_rows))]))
        self.rows = [c for c in comps if len(c) > 1]
        self.singles = np.array([c[0] for c in comps if len(c) == 1], dtype=np.int64)
        sizes = [len(r) for r in self.rows]
        offsets = np.cumsum([0] + [n * n for n in sizes])
        self.flat = np.zeros(offsets[-1] + len(self.singles))
        self.mats = [self.flat[o:o + n * n].reshape(n, n) for o, n in zip(offsets, sizes)]
        self.diag = self.flat[offsets[-1]:]
        # row i is at position _pos[i] of its component of _size[i] rows,
        # which starts at flat[_base[i]]; comp_of[i] is that component, -1
        # for a singleton
        comp_of = np.full(m, -1)
        self._size = np.ones(m, np.int64)
        self._pos = np.zeros(m, np.int64)
        self._base = np.empty(m, np.int64)
        for c, (o, n, r) in enumerate(zip(offsets, sizes, self.rows)):
            comp_of[r], self._size[r], self._pos[r], self._base[r] = c, n, np.arange(n), o
        self._base[self.singles] = offsets[-1] + np.arange(len(self.singles))

        # each matrix block's Schur rows and their runs in their component
        self.blocks = [(k, _SchurRows(sub[r], d), self.block(r))
                       for k, (sub, r, (_, d)) in enumerate(zip(subs, block_rows, blocks)) if len(r)]

        # the cone's entries, by row and then by coordinate descending
        by = np.lexsort((-col, row))
        row, col, val = row[by], col[by], A_lp.data[by]
        comp = comp_of[row]
        self.lp_groups = []
        for c in np.unique(comp[comp >= 0]):
            e = comp == c
            r, ks = np.unique(row[e]), np.unique(col[e])
            vals = np.zeros((len(ks), len(r)))
            vals[len(ks) - 1 - np.searchsorted(ks, col[e]), np.searchsorted(r, row[e])] = val[e]
            step = max(1, SCHUR_CHUNK // vals.size)
            chunks = [slice(i, i + step) for i in range(0, len(r), step)]
            self.lp_groups.append((vals, ks[::-1].copy(), chunks, self.block(r)))
        e = comp < 0
        r, first, count = np.unique(row[e], return_index=True, return_counts=True)
        s = np.repeat(np.arange(len(r)), count)  # each entry's column
        k = np.arange(len(s)) - np.repeat(first, count)  # and its place in it
        # one coordinate at least, so that an array of no rows still sums;
        # the padding is a zero at the row's first coordinate
        vals = np.zeros((count.max(initial=1), len(r)))
        coords = np.tile(col[e][first], (len(vals), 1))
        vals[k, s], coords[k, s] = val[e], col[e]
        self.lp_singles = (np.searchsorted(self.singles, r), vals, coords)

    def block(self, rows: np.ndarray):
        """The matrix view of the component holding ``rows`` (ascending), and
        the runs of consecutive positions they take in it.

        Each run is a pair (slice of the component, slice of ``rows``): a
        term S over those rows adds into the component as
        ``Mc[ma, mb] += S[ba, bb]`` over every two runs (``_add_runs``),
        which adds what an ``np.ix_`` scatter adds, in slice operations.
        Their number grows with the square of the run count, which is at
        most about m_b/2 when the block's rows alternate with another's.
        Step V of the benchmark experiment has 7 and 6 runs (11 and 10 at
        deg_V = 4) in one component; there the slice adds take 1.2 ms
        (20 ms) per iteration, one fancy-indexed add per run 2.9 ms
        (111 ms) and the scatter 4.2 ms (90 ms), on one thread.
        """
        n, o = self._size[rows[0]], self._base[rows[0]]
        loc = self._pos[rows]
        cuts = np.concatenate([[0], np.flatnonzero(np.diff(loc) != 1) + 1, [len(loc)]])
        runs = [(slice(loc[a], loc[a] + (b - a)), slice(a, b)) for a, b in zip(cuts, cuts[1:])]
        return self.flat[o:o + n * n].reshape(n, n), runs

    def build(self, Rs: Sequence[np.ndarray], w: np.ndarray) -> None:
        """Form M in ``flat`` for the matrix blocks' scaling factors ``Rs``
        and H^-1 = diag(w) on the nonnegative coordinates."""
        self.flat.fill(0.0)
        for k, schur_rows, target in self.blocks:
            B = schur_rows.rows(Rs[k])
            _add_runs(*target, B @ B.T)
        self.add_lp(w)

    def add_lp(self, w: np.ndarray) -> None:
        """Add the nonnegative cone's term A_lp diag(w) A_lp^T into ``flat``."""
        for vals, coords, chunks, target in self.lp_groups:
            aw = vals * w[coords][:, None]  # a_ik w_k
            _add_runs(*target, np.concatenate(
                [_sum_down(aw[:, i, None] * vals[:, None, :]) for i in chunks]))
        at, vals, coords = self.lp_singles
        self.diag[at] += _sum_down(vals * w[coords] * vals)

    def factor(self):
        """``(factors, jitter)`` of the components as ``flat`` holds them.

        Each component is factored by itself first; only a failed
        factorization shifts that component's diagonal, and ``jitter`` is
        the largest shift.  ``factors`` is None when a component fails even
        shifted.  The factors stay in numpy's C order, which ``_cho_solve``
        hands potrs as the upper factor L^T without a copy.
        """
        factors, jitter = [], 0.0
        for Mc in self.mats:
            L, j = _factor_with_jitter(Mc, np.linalg.cholesky)
            jitter = max(jitter, j)
            if L is None:
                return None, jitter
            factors.append(L)
        d, j = _factor_with_jitter(self.diag, _positive)
        return (None if d is None else (factors, d)), max(jitter, j)

    def solve(self, factors, g: np.ndarray) -> np.ndarray:
        """M^-1 g, one component at a time; g is a vector or has m rows."""
        Ls, d = factors
        out = np.empty_like(g)
        for rows, L in zip(self.rows, Ls):
            out[rows] = _cho_solve(L, g[rows])
        s = self.singles
        out[s] = g[s] / (d if g.ndim == 1 else d[:, None])
        return out


def _positive(d: np.ndarray) -> np.ndarray:
    """The factor of a diagonal: a copy of it, when every entry is positive."""
    if np.any(d <= 0.0):
        raise np.linalg.LinAlgError("diagonal is not positive")
    return d.copy()


def _factor_with_jitter(M: np.ndarray, factor):
    """``(factor(M), jitter)``, shifting M's diagonal in place only when factor fails.

    ``M`` is one component's matrix or, with ``_positive``, the singleton
    rows' diagonal.  After M itself, shifts of 1e-14 to 1e-10 times its
    mean diagonal are tried; when all fail the factor is None.
    """
    try:
        return factor(M), 0.0
    except np.linalg.LinAlgError:
        pass
    diag = np.diag_indices(len(M)) if M.ndim == 2 else slice(None)
    M_diag = M[diag].copy()
    base = M_diag.sum() / len(M)
    for attempt in range(5):
        jitter = max(base * 10.0 ** (attempt - 14), 1e-14)
        M[diag] = M_diag + jitter
        try:
            return factor(M), jitter
        except np.linalg.LinAlgError:
            pass
    return None, jitter


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
        A_free = A_free.toarray()  # two sparse row selections cost a fit 0.15 ms
        Rf = A_free[self.free_only_rows]
        rf = b[self.free_only_rows]
        self.x_part = np.zeros(nf)
        self.N = np.eye(nf)
        if len(self.free_only_rows):
            # x_free = x_part + N q, with R_f x_free = r_f.  Only U[:, :rank]
            # is used, so U stays thin; Vt must be square for the null space
            # N, which the thin form already is unless R_f is wide
            U, sv, Vt = np.linalg.svd(Rf, full_matrices=Rf.shape[0] < nf)
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
        A_free_kept = A_free[self.kept_rows]
        self.A_free = A_free_kept @ self.N
        self.b = b[self.kept_rows] - A_free_kept @ self.x_part
        self.c_psd = c_psd
        self.obj_const = float(c_free @ self.x_part)
        self.c_free = self.N.T @ c_free
        self.c_free_orig = c_free
        self.A_free_kept_orig = A_free_kept

        # free columns that appear nowhere force either a pin or unboundedness
        dead = np.linalg.norm(self.A_free, axis=0) <= 1e-14
        self.unbounded_free = bool(np.any(dead & (np.abs(self.c_free) > 1e-12)))
        # only when one is dead: the copy is Fortran-ordered, so step V's bits change
        if np.any(dead):
            keep = ~dead
            self.N = self.N[:, keep]
            self.A_free = self.A_free[:, keep]
            self.c_free = self.c_free[keep]

        # row equilibration on the kept rows
        rn = np.sqrt(np.asarray(self.A_psd.multiply(self.A_psd).sum(axis=1)).ravel()
                     + (self.A_free**2).sum(axis=1))
        rn = np.where(rn > 1e-14, rn, 1.0)
        self.row_scale = 1.0 / rn
        D = sp.diags(self.row_scale)
        self.A_psd = D @ self.A_psd
        self.A_free = self.A_free * self.row_scale[:, None]
        self.b = self.b * self.row_scale

    def recover_free(self, q: np.ndarray) -> np.ndarray:
        return self.x_part + self.N @ q

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


def solve_sdp(prob: SdpProblem, max_iter: int | None = None) -> SdpSolution:
    """Solve the SDP; deterministic for identical problem data.

    At most max_iter iterations, DEFAULT_MAX_ITER when None.
    """
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER
    elif max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
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
    slices = prob.block_slices()
    n_psd = prob.n_psd
    A = pre.A_psd
    Af = pre.A_free
    b = pre.b
    c = pre.c_psd
    cf = pre.c_free
    m = A.shape[0]
    nf = Af.shape[1]
    nu = sum(dims)

    # every 1x1 block is one coordinate of the nonnegative cone; the others
    # are matrix blocks
    lp_blocks = [bi for bi, d in enumerate(dims) if d == 1]
    mat_blocks = [bi for bi, d in enumerate(dims) if d > 1]
    lp = np.array([slices[bi].start for bi in lp_blocks], dtype=np.int64)
    # A^T is applied seven times per iteration: stored once as CSR it adds
    # the same products in the same order as the CSC view, about 5x faster
    AT = A.T.tocsr()
    plan = _SchurPlan(A, lp, [(slices[bi], dims[bi]) for bi in mat_blocks])

    # identity start
    X = [np.eye(dims[bi]) for bi in mat_blocks]
    Z = [np.eye(dims[bi]) for bi in mat_blocks]
    x = np.ones(len(lp))
    z = np.ones(len(lp))
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    def to_vec(mats, v):
        out = np.empty(n_psd)
        out[lp] = v
        for bi, Mk in zip(mat_blocks, mats):
            out[slices[bi]] = svec(Mk)
        return out

    def to_mats(v):
        return [smat(v[slices[bi]], dims[bi]) for bi in mat_blocks]

    def to_blocks(mats, v):
        out: list = [None] * len(dims)
        for bi, Mk in zip(mat_blocks, mats):
            out[bi] = 0.5 * (Mk + Mk.T)
        for bi, vk in zip(lp_blocks, v):
            out[bi] = np.array([[vk]])
        return out

    xf = np.zeros(nf)
    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.sqrt(np.linalg.norm(c) ** 2 + np.linalg.norm(cf) ** 2)

    # a stall sets only its message; the best iterate is then labelled by
    # validate_solution after the loop
    best = None
    trace: list[dict] = []
    status, msg = None, "iteration limit reached"

    for it in range(1, max_iter + 1):
        xv = to_vec(X, x)
        zv = to_vec(Z, z)
        # residuals of the homogeneous model
        Rp = A @ xv + Af @ xf - b * tau
        Rd_psd = -(AT @ y) + c * tau - zv
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
            np.linalg.norm(AT @ yhat + zhat - c) ** 2
            + np.linalg.norm(Af.T @ yhat - cf) ** 2
        ) / norm_c
        pobj = float(c @ xhat + cf @ xfhat)
        dobj = float(b @ yhat)
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        score = max(pres, dres, gap)
        if best is None or score < best[0]:
            best = (score, [Xk / tau for Xk in X], x / tau, xfhat.copy(), yhat.copy(),
                    [Zk / tau for Zk in Z], z / tau, pobj)
        entry = {"mu": mu, "pres": float(pres), "dres": float(dres), "gap": gap,
                 "tau": tau, "kappa": kappa, "sigma": None, "step": None, "jitter": None,
                 "seconds": {}}
        trace.append(entry)
        seconds = entry["seconds"]

        if max(pres, dres, gap) <= DEFAULT_TOL:
            status, msg = "optimal", f"converged in {it} iterations"
            break

        if tau <= INFEAS_RATIO * kappa:
            # certificate quality decides between the two infeasibility kinds
            by = float(b @ y)
            cx = float(c @ xv + cf @ xf)
            dual_ray = np.sqrt(
                np.linalg.norm(AT @ y + zv) ** 2 + np.linalg.norm(Af.T @ y) ** 2
            )
            prim_ray = np.linalg.norm(A @ xv + Af @ xf)
            if by > 0 and dual_ray <= 1e-6 * max(1.0, by) * norm_c:
                status, msg = "infeasible", "dual improving ray found"
                break
            if cx < 0 and prim_ray <= 1e-6 * max(1.0, -cx) * norm_b:
                status, msg = "unbounded", "primal improving ray found"
                break
            msg = "tau collapsed without clean certificate"
            break

        # NT scalings: per matrix block, elementwise x/z on the nonnegative cone
        t0 = time.perf_counter()
        try:
            scalings = [_BlockScaling(Xk, Zk) for Xk, Zk in zip(X, Z)]
        except np.linalg.LinAlgError:
            msg = "iterate left the cone"
            break
        w_lp = x / z
        t1 = time.perf_counter()
        seconds["scaling"] = t1 - t0

        # Schur complement  M = sum_blocks B_b B_b^T + A_lp diag(x/z) A_lp^T
        plan.build([sc.R for sc in scalings], w_lp)
        t2 = time.perf_counter()
        seconds["schur"] = t2 - t1

        schur, entry["jitter"] = plan.factor()
        if schur is None:
            msg = "Schur complement factorization failed"
            break

        # formed empty, this factor and its products slow the fits by 1-3%
        if nf:
            MA = plan.solve(schur, Af)
            S_F = Af.T @ MA
            try:
                L_F = np.linalg.cholesky(S_F + 1e-14 * np.eye(nf) * max(1.0, np.trace(S_F) / nf))
            except np.linalg.LinAlgError:
                msg = "free-variable Schur factorization failed"
                break
        else:
            MA, L_F = None, None
        t3 = time.perf_counter()
        seconds["factor"] = t3 - t2

        def apply_Hinv(v):
            out = np.empty_like(v)
            out[lp] = w_lp * v[lp]
            for bi, sc in zip(mat_blocks, scalings):
                out[slices[bi]] = _hinv_svec(sc.R, v[slices[bi]])
            return out

        def solve_reduced(g, u_F):
            """(dxF, dy) of [M dy + AF dxF = g; -AF^T dy = u_F]."""
            g1 = plan.solve(schur, g)
            if not nf:  # skips the empty products, as the factor above does
                return np.zeros(0), g1
            dxF = _cho_solve(L_F, Af.T @ g1 + u_F)
            return dxF, g1 - MA @ dxF

        def solve_kkt(u_K, u_F, u_y):
            """[H dxK - AK^T dy = u_K; -AF^T dy = u_F; AK dxK + AF dxF = u_y].

            dxK = H^-1 (u_K + AK^T dy) keeps the first equation exact; with
            free variables each refinement solves the last two again for
            their residuals.
            """
            Hi_uK = apply_Hinv(u_K)
            dxF, dy = solve_reduced(u_y - A @ Hi_uK, u_F)
            dxK = Hi_uK + apply_Hinv(AT @ dy)
            # refining a solve without free variables changes its bits
            for _ in range(KKT_REFINE_STEPS if nf else 0):
                ddxF, ddy = solve_reduced(u_y - A @ dxK - Af @ dxF, u_F + Af.T @ dy)
                dxF = dxF + ddxF
                dy = dy + ddy
                dxK = dxK + apply_Hinv(AT @ ddy)
            return dxK, dxF, dy

        # solve for the tau-direction basis (depends on scaling only)
        q_xK, q_xF, q_y = solve_kkt(-c, -cf, b)
        denom_base = float(kappa / tau + (b @ q_y - c @ q_xK - cf @ q_xF))

        def direction(sigma, corr_mats, corr_lp, corr_tk):
            eta = 1.0 - sigma
            # W^-1 applied to the scaled complementarity residual, per block
            rhs_u = -eta * Rd_psd
            for k, (bi, sc) in enumerate(zip(mat_blocks, scalings)):
                lam = sc.lam
                Dc = -np.diag(lam**2)
                if sigma:
                    Dc = Dc + sigma * mu * np.eye(len(lam))
                if corr_mats is not None:
                    Dc = Dc - corr_mats[k]
                Umat = 2.0 * Dc / (lam[:, None] + lam[None, :])
                rhs_u[slices[bi]] += _winv_svec(sc.Rinv, Umat)
            rhs_u[lp] += (sigma * mu - x * z - corr_lp) / x
            u_F = -eta * Rd_free
            u_y = -eta * Rp
            d_tk = sigma * mu - tau * kappa - corr_tk
            p_xK, p_xF, p_y = solve_kkt(rhs_u, u_F, u_y)
            num = -eta * Rg + c @ p_xK + cf @ p_xF - b @ p_y + d_tk / tau
            dtau = float(num / denom_base)
            dxK = p_xK + dtau * q_xK
            dxF = p_xF + dtau * q_xF
            dy = p_y + dtau * q_y
            # recover dz from dual feasibility rather than complementarity:
            # the dual residual then contracts even when the Schur solve is
            # inexact near the optimum, and the complementarity error is
            # re-centered at the next iteration anyway
            dz = -(AT @ dy) + c * dtau + eta * Rd_psd
            dkappa = (d_tk - kappa * dtau) / tau
            return dxF, dy, dtau, dkappa, dxK, dz, to_mats(dxK), to_mats(dz)

        def max_step(dxK, dz, dX, dZ, dtau, dkappa):
            a = min(_max_step_lp(x, dxK[lp]), _max_step_lp(z, dz[lp]))
            for sc, dXm, dZm in zip(scalings, dX, dZ):
                a = min(a, _max_step_psd(sc.Lx, dXm), _max_step_psd(sc.Lz, dZm))
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkappa < 0:
                a = min(a, -kappa / dkappa)
            return a

        # predictor; np.linalg.cholesky returns NaN factors rather than
        # raising, so a non-finite M or S_F first shows in a direction
        dxFa, dya, dtaua, dkappaa, dxKa, dza, dXa, dZa = direction(0.0, None, 0.0, 0.0)
        if not _finite(dxKa, dza, dxFa, dya, dtaua, dkappaa):
            msg = "non-finite direction"
            break
        t5 = time.perf_counter()
        a_aff = min(1.0, max_step(dxKa, dza, dXa, dZa, dtaua, dkappaa))
        t6 = time.perf_counter()
        mu_aff = (
            float((xv + a_aff * dxKa) @ (zv + a_aff * dza))
            + (tau + a_aff * dtaua) * (kappa + a_aff * dkappaa)
        ) / (nu + 1)
        sigma = min(1.0, max(0.0, mu_aff / mu)) ** 3
        sigma = min(max(sigma, 1e-8), 1.0 - 1e-8)

        # corrector terms (W^-T dx_aff) o (W dz_aff): per matrix block, and
        # dx o dz on the nonnegative cone
        corr_mats = []
        for sc, dXm, dZm in zip(scalings, dXa, dZa):
            Xi = sc.Rinv @ dXm @ sc.Rinv.T
            Om = sc.R.T @ dZm @ sc.R
            corr_mats.append(0.5 * (Xi @ Om + Om @ Xi))
        corr_lp = dxKa[lp] * dza[lp]
        corr_tk = dtaua * dkappaa

        dxF, dy, dtau, dkappa, dxK, dz, dX, dZ = direction(sigma, corr_mats, corr_lp, corr_tk)
        if not _finite(dxK, dz, dxF, dy, dtau, dkappa):
            msg = "non-finite direction"
            break
        t7 = time.perf_counter()
        a = min(1.0, STEP_FRACTION * max_step(dxK, dz, dX, dZ, dtau, dkappa))
        t8 = time.perf_counter()
        seconds["directions"] = (t5 - t3) + (t7 - t6)
        seconds["step_length"] = (t6 - t5) + (t8 - t7)
        entry["sigma"] = sigma
        entry["step"] = a

        if a < MIN_STEP:
            msg = f"step length {a:.2e} below minimum"
            break

        for k, (dXk, dZk) in enumerate(zip(dX, dZ)):
            X[k] = X[k] + a * dXk
            Z[k] = Z[k] + a * dZk
            X[k] = 0.5 * (X[k] + X[k].T)
            Z[k] = 0.5 * (Z[k] + Z[k].T)
        x = x + a * dxK[lp]
        z = z + a * dz[lp]
        xf = xf + a * dxF
        y = y + a * dy
        tau += a * dtau
        kappa += a * dkappa

    if status in ("infeasible", "unbounded"):
        sol = SdpSolution(status=status, objective=None, iterations=it, message=msg,
                          trace=trace)
        sol.y = pre.recover_y(y, ray=True) if status == "infeasible" else np.zeros(prob.n_rows)
        if status == "unbounded":
            sol.blocks = to_blocks(X, x)
        return sol

    # report the best de-homogenized iterate
    _, Xb, xb, xfb, yb, Zb, zb, pobj = best
    sol = SdpSolution(
        status=status or "numerical-failure",
        objective=pobj + pre.obj_const,
        blocks=to_blocks(Xb, xb),
        free=pre.recover_free(xfb),
        y=pre.recover_y(yb),
        z_blocks=to_blocks(Zb, zb),
        iterations=it,
        message=msg,
        trace=trace,
    )
    if status is None and validate_solution(prob, sol).get("ok"):
        sol.status = "feasible"
    return sol


def format_trace(trace: Sequence[dict]) -> str:
    """``SdpSolution.trace`` as text: a header, then one line per iteration.

    Each line gives mu, the residuals pres, dres and gap, the step, the
    Schur jitter and the milliseconds of each phase.  A field the iteration
    did not reach shows as None: on the last iteration of a converged solve
    everything but mu and the residuals, on a stalled one what follows the
    stop.
    """
    phases = ("scaling", "schur", "factor", "directions", "step_length")

    def num(v):
        return "None" if v is None else f"{v:.2e}"

    rows = [["it", "mu", "pres", "dres", "gap", "step", "jitter"]
            + [f"{p}_ms" for p in phases]]
    for it, e in enumerate(trace, 1):
        secs = e["seconds"]
        rows.append([str(it)] + [num(e[k]) for k in ("mu", "pres", "dres", "gap", "step", "jitter")]
                    + [f"{1e3 * secs[p]:.1f}" if p in secs else "None" for p in phases])
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(r, widths)) for r in rows)


def validate_solution(prob: SdpProblem, sol: SdpSolution) -> dict:
    """Recompute residuals from the original problem data, never from solver state."""
    A_psd, A_free, b, c_psd, c_free = prob.arrays()
    if sol.status in ("infeasible", "unbounded") or not sol.blocks:
        return {"status": sol.status, "checked": False}
    xv = np.concatenate([svec(B) for B in sol.blocks])
    # a solution read from JSON may carry no free values or no duals
    vfree = sol.free if sol.free.size else np.zeros(prob.n_free)
    r = A_psd @ xv + A_free @ vfree - b
    primal_eq = float(np.linalg.norm(r) / (1.0 + np.linalg.norm(b)))
    min_eig = min(
        (float(np.linalg.eigvalsh(B)[0]) for B in sol.blocks), default=0.0
    )
    pobj = float(c_psd @ xv + c_free @ vfree)
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
