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
and a Mehrotra predictor-corrector.  Free variables are handled in two
stages.  Up front, one exact Gauss-Jordan pass over the free columns
pivots only on the rows without matrix entries: each free variable such a
row determines is substituted into the other rows and the objective, and
its column becomes exact zero there (``_Preprocessed``).  The free columns
left over stay the program's own sparse columns, with those substitutions
applied; a dependent one is dropped, and none is rotated.  They are
carried through an augmented Schur complement solve.  Infeasibility is
reported through the embedding's tau/kappa ratio test.

One path serves every problem shape: without free variables, nonnegative
coordinates or free-only rows the same arithmetic runs on empty arrays,
with a special case's bits and speed.  Two branches on ``nf``, whether
free variables remain, are kept: without them the free-variable Schur
factor and its products are skipped.  Formed empty, they make the six
fits of a khalil-fit-multi operation 1-3% slower (one BLAS thread).

The Schur complement M = A H^-1 A^T couples two rows only when they share
a matrix block or a nonnegative coordinate, so it is block diagonal over
the connected components of that sharing (the sparsity Fujisawa, Kojima &
Nakata 1997 exploit).  One plan per solve (``_SchurPlan``) holds all that
structure.  It finds the components in one pass of scipy's csgraph
``connected_components`` over the bipartite graph of rows and groups (the
nonnegative coordinates and the matrix blocks) and keeps each component of
two or more rows as a dense matrix in one buffer, followed by the rows
that share nothing with another row as one diagonal.  Each iteration it
forms M's lower triangle there, factors each component on its own with
LAPACK potrf (``_cholesky``), which reads only that triangle, and solves
with those factors.  On a problem whose rows form one component and that
has no free variables this is the same arithmetic, bit for bit, as one
dense factorization of M.  Every solve with a factor, as in SDPT3 (Toh,
Todd & Tutuncu 1999), is a pair of triangular solves, LAPACK trtrs
(``_solve_lower``): M^-1 g = L^-T (L^-1 g).  On step V's 697-row
component the pair takes 51 us for one right-hand side where LAPACK
potrs, which solves with the whole factor in one call, takes 128 us; on
143 rows 4.5 against 7.2 us (one BLAS thread, 2 vCPU).  A term over some
rows of a component adds into its matrix at those rows' positions there;
component rows stay ascending, since another order would change the
Cholesky bits.  Each matrix block adds its term A_b P_b^T (below) straight
into its component, chunk by chunk of rows, and then the nonnegative cone
adds its term, through one ``np.ix_`` scatter per component.  Every 1x1
block is one coordinate x_i >= 0 of that single cone: its scaling is
elementwise (H^-1 = diag(x/z)) and its step length is a min-ratio test.
Its term A_lp diag(x/z) A_lp^T is one dense product per component of
its rows, and a weighted sum of squares for the rows that share nothing,
so r cone rows over K coordinates cost r^2 K products per iteration even
where they share few coordinates; in the benchmark's programs they are
singletons (step V) or dense (the fits).

Free variables v enter through their Schur complement
S_F = A_F^T M^-1 A_F.  Its factor is the R of a QR of G = L^-1 A_F, where
L L^T = M are the plan's component factors (``_SchurPlan.solve_lower``):
R^T R = G^T G = S_F.  Forming S_F squares the condition number of G, and
a Cholesky factor of it needed a small diagonal shift to exist.  On
step V of the benchmark experiment with the max-det ellipsoid (collection
seed 0, k = -2 x2 - x1^2) that shift stalls the free-variable dual
residual while the matrix part converges: the solve ends ``feasible``
after 116 iterations, with Schur jitter from iteration 24.  Without the
shift the Cholesky fails at iteration 24 of collection seed 6,
k = -x1 - x2.  The QR needs no shift and does not fail; ``_Preprocessed``
drops the dependent free columns, so G has full column rank.  The
same G serves every KKT solve, and M^-1 A_F is never formed: for
h = L^-1 g, A_F^T M^-1 g = G^T h, S_F dxF = G^T h + u_F takes two
triangular solves with R^T, and dy = L^-T (h - G dxF).

No KKT solve is refined.  Two refinements of each were needed while
``_Preprocessed`` rotated the free columns by dense SVD bases: each of the
10 free columns left in step V of the benchmark experiment then touched
588 of its 938 kept rows, where the program's own touch 4-59.  Without
refinement, each of the 30 step-V solves at collection seeds 0-9 with
k = -x1 - x2, -x2 and -2 x2 - x1^2 then took more iterations, 23-93
against 21-23, and 4 ended only ``feasible`` with Schur jitter; an
infeasible step V could end ``numerical-failure`` because the free part
of its dual ray was too large.  With the program's own columns and no
refinement, every one of the 30 ends ``optimal`` in 21-23 iterations,
the refined counts, without jitter.  With a row t >= t* + 0.1 or
t >= t* + 1.0 above its optimum t*, each ends ``infeasible`` with
|A_F^T y| <= 6.3e-10 |y| (one BLAS thread, 2 vCPU).

A Schur component whose Cholesky fails is retried once, with its
own diagonal shifted by max(1e-14 * its mean diagonal, 1e-14) (the
trace's ``jitter``, the largest shift of the iteration); when that fails
too the solve stalls.  At one BLAS thread and at two, no ellipsoid fit of
the benchmark's experiment at collection seeds 0-19 or of
khalil-fit-multi's seed 0, operations 0-19, needs this retry, nor does
any step V at collection seeds 0-9 with k = -x1 - x2, -x2 or
-2 x2 - x1^2.  Its users are small test programs, and each retry there
succeeds on that one shift: two with linearly dependent rows (the
contradiction test and the random classes) and four full-rank ones whose
factorization fails only in the endgame, at mu near 1e-8 (the quadratic
form, the cross term, the star split and a strictly feasible problem).

The solver holds the primal and dual iterates only as svec vectors, so
they are symmetric by construction and one vector update moves them.  The
matrix blocks of one dimension d form a class (``_BlockClass``).  Where
the NT scaling W = R R^T (``_Scaling``), the step length and the corrector
read a class's blocks, it forms them as a stack of k d x d matrices, one
per block, by one gather (``smat``) from indices found once per solve.  So
each operation on them is one numpy call per class, however many blocks
it has: the scaling's Cholesky factors and SVD; H^-1 and W^-1, which act
through d x d products (Todd, Toh & Tutuncu 1998) and return to svec by
one gather; and the corrector products.  A class's step length to the
boundary of its cone is -1 over the smallest eigenvalue of
L^-1 Delta L^-T, where L^-1, the inverse of a Cholesky factor of X or Z,
is formed once per iteration and read by the predictor and the corrector
(Toh, Todd & Tutuncu 1999).  The max-det ellipsoid fit has three
classes: its 14-block, its 12-block and the seven 2 x 2 blocks of its
geometric-mean tree.  Step V has four classes of one block.  On the fit of khalil-fit-multi's operation 0 (143 rows,
21 iterations) that takes an iteration from 4.6-6.0 ms, with calls per
block, to 2.7-3.1 ms: scaling 0.52-0.60 to 0.34-0.38 ms, directions
2.2-2.5 to 0.97-1.09 and step length 0.70-0.81 to 0.38-0.42, with the
Schur build and factorization as they were (one BLAS thread, 2 vCPU,
medians of 30 solves in each of three runs).

Each matrix block's Schur term is A_b P_b^T, where row j of P_b is
svec(W A_j W), gathered from the rows of W over row j's few entries and
only at the coordinates A_b's rows have (Fujisawa, Kojima & Nakata 1997);
it is formed chunk by chunk of rows, and only in the lower triangle
(``_SchurRows``).  On step V of the benchmark experiment that takes the
Schur build from 21.4-24.3 ms per iteration, as B B^T with
B = svec(R^T A_i R), to 10.4-11.9 ms, and the factorization of its
697-row component from 13.1-14.4 ms (``np.linalg.cholesky``) to
8.1-8.4 ms (one BLAS thread, medians of 150 at iterations 5-20).  Both
sums over a row's few entries are scipy sparse-times-dense products, one
call each per chunk, and the second's result adds straight into the
component at the chunk rows' positions.  Against the level-by-level sums
and the run-by-run adds of an m_b x m_b term they replaced, that takes
step V's Schur build from 8.9 to 6.3 ms per iteration and a
khalil-fit-multi fit's from 0.58 to 0.54 ms (one BLAS thread, 2 vCPU,
medians of seven interleaved rounds at iterations 5-20).  Memory per
iteration is O(m_c^2) per Schur component of m_c rows plus, per matrix
block, O(SCHUR_CHUNK) for a chunk's gather and O(r m_c) for the product
of its r rows, and O(k d^2) per class for its scaling; nothing of order
svec(d)^2 is formed.  Each solution carries a per-iteration trace with the
residuals and the seconds of every phase.

A solve ends in one of three ways.  It converges (``optimal``: scaled
primal and dual residuals and gap within ``DEFAULT_TOL``, read from the
homogeneous model's residuals and objective products over tau), it finds an
improving ray (``infeasible`` or ``unbounded``), or it stalls: tau
collapses without a clean ray, an iterate leaves the cone, the Schur
factorization fails, a search direction is not finite, the step length
falls below ``MIN_STEP``, or the iteration limit is reached.  A stall reports the best iterate seen, which is ``feasible``
exactly when it passes ``validate_solution`` on the original data (its
objective is then approximate, the gap may be open) and
``numerical-failure`` otherwise.  The message names the stop.

Inputs are checked at the boundary, once.  ``SdpProblem`` rejects a block
dimension that is not a positive integer, a block, entry or free index out
of range, and a coefficient, right-hand side or objective value that is
not finite, as it is built; the error names the row or entry.  Inside the
loop the factorizations and triangular solves call LAPACK directly,
without scipy's per-call finiteness scans, and each search direction is
checked once: OpenBLAS's potrf and numpy's QR return NaN factors for a
non-finite Schur complement rather than raising, and such a direction ends
the solve as a stall.

scipy is imported inside the functions that use it, so the first
``solve_sdp``, ``SdpProblem.arrays`` or ``validate_solution`` call loads it
and a process that only simulates never does: imported at the top, it was
0.19-0.26 s of a fresh process's 0.27-0.35 s ``import issynth`` and 26 of
its 57 MiB resident (medians of 7 processes, one BLAS thread).
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

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 200
STEP_FRACTION = 0.98
MIN_STEP = 1e-10
INFEAS_RATIO = 1e-6


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
        import scipy.sparse as sp

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


# ---------------------------------------------------------------------------
# Nesterov-Todd scaling of the matrix blocks


def _solve_lower(L: np.ndarray, B: np.ndarray, transposed: bool) -> np.ndarray:
    """Solve L X = B, or L^T X = B when ``transposed``, for a lower
    triangular L.

    LAPACK trtrs on L^T, whose memory is Fortran order when L is C-ordered;
    for L X = B these are the arguments ``scipy.linalg.solve_triangular(L,
    B, lower=True)`` passes for such an L, without its finiteness scans,
    since solve_sdp checks its directions instead.  The callers pass
    ``_cholesky``'s factor of a Schur component, and R_F^T for the R_F of
    the free-variable QR; every solve with a factor is two of these calls.
    """
    # this form finds the loaded module in 0.4 us a call, ``from ... import``
    # in 1.0 us; trtrs runs about 1,600 times a step-V solve
    import scipy.linalg.lapack as lapack

    X, info = lapack.dtrtrs(L.T, B, lower=0, trans=0 if transposed else 1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    if info:
        raise ValueError(f"illegal value in argument {-info} of trtrs")
    return X


def _congruence(Q: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Q S Q^T, symmetrized, for each matrix of the stacks Q and S."""
    T = Q @ S @ Q.mT
    return 0.5 * (T + T.mT)


class _BlockClass:
    """The k matrix blocks of one dimension d > 1, whose matrices the solver
    forms stacked in one (k, d, d) array from its svec vectors.

    ``cols[i]`` are block ``blocks[i]``'s svec columns in the problem's
    vector.  ``svec`` and ``smat`` move between the two forms with one
    gather per class, and give the bits of ``svec`` and ``smat`` per block;
    ``smat``'s stack is symmetric by construction.
    """

    def __init__(self, d: int, blocks: list[int], starts: list[int]):
        iu, ju, scale = svec_indices(d)
        n = svec_dim(d)
        self.d, self.blocks = d, blocks
        self.cols = np.add.outer(starts, np.arange(n))
        # entry (i, j) of a block is its svec coordinate pos[i, j] over that
        # coordinate's scale
        pos = np.empty((d, d), np.int64)
        pos[iu, ju] = pos[ju, iu] = np.arange(n)
        self._mat_cols, self._mat_scale = self.cols[:, pos], scale[pos]
        self._upper, self._scale = iu * d + ju, scale

    def svec(self, M: np.ndarray) -> np.ndarray:
        """The svec rows, (k, svec_dim(d)), of the stacked symmetric M."""
        return M.reshape(len(M), -1)[:, self._upper] * self._scale

    def smat(self, v: np.ndarray) -> np.ndarray:
        """The class's blocks of the svec vector v, stacked."""
        return v[self._mat_cols] / self._mat_scale

    def hinv(self, R: np.ndarray, v: np.ndarray) -> np.ndarray:
        """H^-1 v on the class's coordinates: the svec rows of W S W for
        S = smat(v) and W = R R^T, by d x d products (Todd, Toh & Tutuncu 1998).

        Both the middle factor R^T S R and the result are symmetrized; without
        that the rounding asymmetry feeds back into the iterates: 8 of the 15
        randomized test problems then need 18-28 iterations instead of 11-12
        and end ``feasible``.
        """
        return self.svec(_congruence(R, _congruence(R.mT, self.smat(v))))

    def winv(self, Rinv: np.ndarray, U: np.ndarray) -> np.ndarray:
        """The svec rows of R^-T U R^-1: scaled-space matrices U back in the space of Z."""
        return self.svec(_congruence(Rinv.mT, U))


class _Scaling:
    """NT scaling W = R R^T of a class's blocks, stacked: per block W Z W = X
    and R^-1 X R^-T = R^T Z R = diag(lam).  ``Lx_inv`` and ``Lz_inv`` are
    the inverses of the Cholesky factors of X and Z, formed once per
    iteration for the step lengths of the predictor and the corrector.
    """

    def __init__(self, X: np.ndarray, Z: np.ndarray):
        Lx = np.linalg.cholesky(X)
        Lz = np.linalg.cholesky(Z)
        U, sv, Vt = np.linalg.svd(Lz.mT @ Lx)
        self.lam = sv  # spectra of the scaled points
        self.R = Lx @ Vt.mT * (1.0 / np.sqrt(sv))[:, None, :]
        self.Lx_inv = np.linalg.inv(Lx)
        self.Lz_inv = np.linalg.inv(Lz)
        self.Rinv = (np.sqrt(sv)[:, :, None] * Vt) @ self.Lx_inv


# elements (entries x entries) one chunk of a matrix block's Schur-term
# gather holds; only ``_SchurRows`` reads it, since the cone's term is one
# product per component.  The chunk's temporaries stay in cache, and the
# chunks of whole rows along the diagonal bound the part of the upper
# triangle formed; step V's Schur build takes 6.3-7.0 ms per iteration at
# 2^15, 6.2-7.1 ms at 2^16 and 7.0-7.5 ms at 2^14 (one BLAS thread, 2 vCPU,
# medians of five rounds in each of two runs)
SCHUR_CHUNK = 1 << 15


class _SchurRows:
    """The lower triangle of one matrix block's Schur term A_b H^-1 A_b^T,
    added into the matrix of the component that holds the block's rows.

    Entry (j, i) of the term is a_i . P_j with P_j = svec(W A_j W), W = R R^T
    and a_i row i's coefficients on the block, so the term is A_b P^T, formed
    without B B^T for B = svec(R^T A_i R) (Fujisawa, Kojima & Nakata 1997).
    A row's matrix A_j has few entries, so W A_j W is a sum of rank-2
    products of rows of W, one per entry, and A_b needs P_j only where its
    rows have entries: entry (e, f) of the gather G, for an entry e = (p, q)
    of row j and f = (s, t) of row i, is W[p, s] W[q, t] + W[q, s] W[p, t].
    Both sums are sparse products over those few entries, one scipy call
    each per chunk: ``rows`` sums each row's entries of G weighted by their
    coefficients, P = rows G, and ``cols`` sums each row i's entries of P_j
    weighted by a_i and the svec scale, cols P^T, with row i at its
    position in the component.  Each adds its terms in entry order, so a
    row of one or two entries per block keeps the bits of any order.  The
    rows are gathered in chunks of whole rows, [r0, r1), against the
    entries of rows 0 .. r1 - 1 only: that is the lower triangle, which is
    all potrf reads of M, and the chunk's own square, whose part above the
    diagonal is added as formed.  A chunk adds into its rows of the
    component up to the column of its last row, so nothing is added above
    those squares.  Temporaries stay O(SCHUR_CHUNK) instead of O(nnz^2).
    """

    def __init__(self, A_blk: sp.csr_matrix, d: int, loc: np.ndarray):
        """``A_blk``: the block's columns of the rows touching it, no row
        empty; ``loc``: those rows' positions, ascending, in their component."""
        import scipy.sparse as sp

        iu, ju, scale = svec_indices(d)
        m, indptr = A_blk.shape[0], A_blk.indptr
        # each entry's matrix position, its coefficient in the gather (smat
        # halves an off-diagonal svec value onto two slots through 1/sqrt2;
        # the rank-2 product counts a diagonal entry twice) and its weight
        # in the product
        self.p, self.q = iu[A_blk.indices], ju[A_blk.indices]
        coef = A_blk.data * np.where(self.p == self.q, 0.5, 1.0 / np.sqrt(2.0))
        weight = A_blk.data * scale[A_blk.indices]
        per_chunk = max(1, SCHUR_CHUNK // A_blk.nnz)
        starts = [0]
        for r in range(1, m):
            if indptr[r + 1] - indptr[starts[-1]] > per_chunk:
                starts.append(r)
        # per chunk: its entries' positions, ``rows``, ``cols`` and the
        # chunk rows' positions in the component
        self.chunks = []
        counts = np.zeros(loc[-1] + 1, np.int64)
        for r0, r1 in zip(starts, starts[1:] + [m]):
            e0, e1 = indptr[r0], indptr[r1]
            rows = sp.csr_matrix((coef[e0:e1], np.arange(e1 - e0), indptr[r0:r1 + 1] - e0))
            counts[loc[r0:r1]] = np.diff(indptr[r0:r1 + 1])
            # rows up to the chunk's last row's position, e1 columns
            ptr = np.concatenate([[0], np.cumsum(counts[:loc[r1 - 1] + 1])])
            cols = sp.csr_matrix((weight[:e1], np.arange(e1), ptr))
            self.chunks.append((self.p[e0:e1], self.q[e0:e1], rows, cols, loc[r0:r1]))

    def add(self, W: np.ndarray, Mc: np.ndarray) -> None:
        """Add the term's lower triangle for the block's scaling W = R R^T
        into the component's matrix ``Mc``."""
        WP, WQ = W[:, self.p], W[:, self.q]
        for p, q, rows, cols, at in self.chunks:
            I, J = WP[:, :cols.shape[1]], WQ[:, :cols.shape[1]]
            G = I[p] * J[q]
            G += I[q] * J[p]
            Mc[at, :cols.shape[0]] += (cols @ (rows @ G).T).T


def _max_step_psd(L_inv: np.ndarray, Delta: np.ndarray) -> float:
    """Largest a with  M + a*Delta >= 0  for every block of a class, given
    L^-1 for M = L L^T: -1 over the smallest eigenvalue of L^-1 Delta L^-T,
    or inf when none is negative (Toh, Todd & Tutuncu 1999)."""
    T = L_inv @ Delta @ L_inv.mT
    wmin = np.linalg.eigvalsh(0.5 * (T + T.mT))[:, 0].min()
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
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    n = m + groups.max(initial=-1) + 1
    graph = sp.coo_matrix((np.ones(len(rows)), (rows, m + groups)), shape=(n, n))
    labels = connected_components(graph, directed=False)[1][:m]
    order = np.argsort(labels, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(labels[order])) + 1)


class _SchurPlan:
    """The Schur complement M = A H^-1 A^T of one solve: its structure,
    found once, and per iteration its build, factorization and solve.

    The components (``_components``) of two or more rows are dense
    matrices stored row-major one after another in ``flat`` (``mats``
    views them, ``rows`` holds their rows ascending); the singleton rows
    follow as one diagonal, ``diag``.  With a single component of all m
    rows, ``mats[0]`` is laid out exactly as a dense m x m matrix.

    The nonnegative cone's term A_lp diag(w) A_lp^T takes one BLAS product
    per component, vals^T (diag(w) vals) for the dense K x r array ``vals``
    of its r cone rows over their K coordinates (``lp_groups``, with the
    coordinates, the component's matrix and the rows' ``np.ix_`` positions
    in it), and one ``np.bincount`` of the singleton rows' a_ik^2 w_k into
    ``diag`` (``lp_singles``).
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

        # each matrix block's Schur rows and the matrix of their component
        self.blocks = []
        for k, (sub, r, (_, d)) in enumerate(zip(subs, block_rows, blocks)):
            if len(r):
                Mc, loc = self.block(r)
                self.blocks.append((k, _SchurRows(sub[r], d, loc), Mc))

        # the cone's entries: per component of two or more rows a dense
        # K x r array, coordinates and rows ascending; those of singleton
        # rows by their places in diag, squared
        comp, val = comp_of[row], A_lp.data
        self.lp_groups = []
        for c in np.unique(comp[comp >= 0]):
            e = comp == c
            r, ks = np.unique(row[e]), np.unique(col[e])
            vals = np.zeros((len(ks), len(r)))
            vals[np.searchsorted(ks, col[e]), np.searchsorted(r, row[e])] = val[e]
            Mc, loc = self.block(r)
            self.lp_groups.append((vals, ks, Mc, np.ix_(loc, loc)))
        e = comp < 0
        self.lp_singles = (np.searchsorted(self.singles, row[e]), val[e] ** 2, col[e])

    def block(self, rows: np.ndarray):
        """The matrix view of the component holding ``rows`` (ascending), and
        their positions in it."""
        n, o = self._size[rows[0]], self._base[rows[0]]
        return self.flat[o:o + n * n].reshape(n, n), self._pos[rows]

    def build(self, Rs: Sequence[np.ndarray], w: np.ndarray) -> None:
        """Form M's lower triangle in ``flat`` for the matrix blocks' scaling
        factors ``Rs`` and H^-1 = diag(w) on the nonnegative coordinates.

        Above the diagonal ``flat`` holds what the terms add there (all of
        the cone's term, part of each block's), which nothing reads.
        """
        self.flat.fill(0.0)
        for k, schur_rows, Mc in self.blocks:
            R = Rs[k]
            schur_rows.add(R @ R.T, Mc)
        self.add_lp(w)

    def add_lp(self, w: np.ndarray) -> None:
        """Add the nonnegative cone's term A_lp diag(w) A_lp^T into ``flat``."""
        for vals, coords, Mc, at in self.lp_groups:
            Mc[at] += vals.T @ (w[coords, None] * vals)
        at, squares, coords = self.lp_singles
        self.diag += np.bincount(at, squares * w[coords], len(self.diag))

    def factor(self):
        """``(factors, jitter)``: the lower Cholesky factor of each
        component, C-ordered as ``_cholesky`` gives it, and the square roots
        of the singleton rows' diagonal (``_positive``).

        Each component is factored by itself first; only a failed
        factorization shifts that component's diagonal, once
        (``_factor_with_jitter``), and ``jitter`` is the largest shift.
        ``factors`` is None when a component fails even shifted.
        """
        factors, jitter = [], 0.0
        for Mc in self.mats:
            L, j = _factor_with_jitter(Mc, _cholesky)
            jitter = max(jitter, j)
            if L is None:
                return None, jitter
            factors.append(L)
        d, j = _factor_with_jitter(self.diag, _positive)
        return (None if d is None else (factors, d)), max(jitter, j)

    def solve_lower(self, factors, g: np.ndarray, transposed: bool) -> np.ndarray:
        """L^-1 g, or L^-T g when ``transposed``, for the factor L L^T = M,
        one component at a time; g is a vector or has m rows.  M^-1 g is
        L^-T (L^-1 g)."""
        Ls, d = factors
        out = np.empty_like(g)
        for rows, L in zip(self.rows, Ls):
            out[rows] = _solve_lower(L, g[rows], transposed)
        s = self.singles
        out[s] = g[s] / (d if g.ndim == 1 else d[:, None])
        return out


def _cholesky(M: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor L of M, C-ordered, from M's lower triangle.

    LAPACK potrf factors M^T, whose memory is Fortran order when M is
    C-ordered, as U^T U from its upper triangle, which is M's lower one, and
    U^T is L in C order.  A matrix that is not positive definite raises
    ``LinAlgError``.  A NaN matrix does not: OpenBLAS's potrf, like numpy's
    Cholesky, returns a NaN factor, and the solve ends at its non-finite
    direction.
    """
    import scipy.linalg.lapack as lapack

    U, info = lapack.dpotrf(M.T, lower=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"not positive definite: leading minor {info}")
    if info:
        raise ValueError(f"illegal value in argument {-info} of potrf")
    return U.T


def _positive(d: np.ndarray) -> np.ndarray:
    """The factor of a diagonal, its square roots, when every entry is positive."""
    if np.any(d <= 0.0):
        raise np.linalg.LinAlgError("diagonal is not positive")
    return np.sqrt(d)


def _factor_with_jitter(M: np.ndarray, factor):
    """``(factor(M), jitter)``, shifting M's diagonal in place only when factor fails.

    ``M`` is one component's matrix or, with ``_positive``, the singleton
    rows' diagonal.  After M itself one shift is tried, 1e-14 times its mean
    diagonal and at least 1e-14; when that fails too the factor is None.
    """
    try:
        return factor(M), 0.0
    except np.linalg.LinAlgError:
        pass
    diag = np.diag_indices(len(M)) if M.ndim == 2 else slice(None)
    jitter = max(M[diag].sum() / len(M) * 1e-14, 1e-14)
    M[diag] += jitter
    try:
        return factor(M), jitter
    except np.linalg.LinAlgError:
        return None, jitter


# ---------------------------------------------------------------------------
# main solver


class _Preprocessed:
    """The problem with its free-only rows eliminated and its rows scaled.

    One Gauss-Jordan pass runs over the free columns and pivots only on
    the free-only rows, those without matrix entries.  For each free column
    in turn, the open free-only row of largest magnitude there fixes that
    variable: it is substituted into every other row and into the
    objective (row m of ``F``), and the column is set to exact zero outside
    its pivot row.  A free-only row no pivot takes is left empty, and its
    rhs must be zero, or the problem is ``inconsistent``.  The free columns
    no pivot takes stay the program's own columns over the kept rows, with
    the substitutions applied and never rotated.  A column-pivoted QR finds
    the dependent ones, which are dropped at value 0: one with a nonzero
    reduced cost is a free direction no kept row sees that moves the
    objective, so the problem is ``unbounded_free``.
    """

    def __init__(self, prob: SdpProblem):
        import scipy.linalg as sla
        import scipy.sparse as sp

        A_psd, A_free, b, c_psd, c_free = prob.arrays()
        m, nf = A_free.shape
        # rows without matrix entries, empty ones too, constrain only v
        free_only = np.diff(A_psd.indptr) == 0
        self.kept_rows = np.flatnonzero(~free_only)
        self.A_free_orig, self.c_free_orig = A_free, c_free

        # the augmented matrix, written from A_free's entries without a dense
        # copy of it: the free columns and the rhs as column nf, with the
        # objective as row m
        F = np.zeros((m + 1, nf + 1))
        in_row = np.repeat(np.arange(m), np.diff(A_free.indptr))
        F[in_row, A_free.indices], F[m, :nf], F[:m, nf] = A_free.data, c_free, b
        open_rows = np.append(free_only, False)
        largest = np.abs(A_free.data[free_only[in_row]]).max(initial=0.0)
        tol = max(max(np.count_nonzero(free_only), nf) * np.finfo(float).eps * largest, 1e-12)
        pivots = {}  # pivot row: its column
        for j in range(nf):
            size = np.abs(F[:, j]) * open_rows
            i = int(np.argmax(size))
            if size[i] <= tol:
                continue
            hit = np.flatnonzero(F[:, j])
            hit = hit[hit != i]
            F[hit] -= (F[hit, j] / F[i, j])[:, None] * F[i]
            F[hit, j] = 0.0
            open_rows[i] = False
            pivots[i] = j
        self.inconsistent = bool(np.linalg.norm(F[open_rows, -1])
                                 > 1e-8 * (1.0 + np.linalg.norm(b[free_only])))
        self.obj_const = -float(F[-1, -1])

        # the kept free columns: the dependent ones by a column-pivoted QR,
        # each with its reduced cost against the independent ones
        other = np.setdiff1d(np.arange(nf), list(pivots.values()))
        R, perm = sla.qr(F[np.ix_(self.kept_rows, other)], mode="r", pivoting=True)
        d = np.abs(np.diag(R))
        tol = max(max(R.shape) * np.finfo(float).eps * d.max(initial=0.0), 1e-12)
        rank = int(np.sum(d > tol))
        keep, drop = other[perm[:rank]], other[perm[rank:]]
        reduced = F[-1, drop] - F[-1, keep] @ sla.solve_triangular(R[:rank, :rank], R[:rank, rank:])
        self.unbounded_free = bool(np.any(np.abs(reduced) > 1e-12))
        self.free_cols = np.sort(keep)

        # each pivot row, scaled to 1 at its pivot, gives its variable from
        # the kept ones
        self.piv_rows = np.fromiter(pivots, np.int64, len(pivots))
        self.piv_cols = np.fromiter(pivots.values(), np.int64, len(pivots))
        self.piv_F = F[self.piv_rows] / F[self.piv_rows, self.piv_cols][:, None]

        self.A_psd = A_psd[self.kept_rows]
        self.A_free = F[np.ix_(self.kept_rows, self.free_cols)]
        self.b = F[self.kept_rows, -1]
        self.c_psd = c_psd
        self.c_free = F[-1, self.free_cols]

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
        """Every free variable from the kept columns' values q: a dropped
        column is 0, a pivot column back-substituted through its pivot row."""
        x = np.zeros(len(self.c_free_orig))
        x[self.free_cols] = q
        x[self.piv_cols] = self.piv_F[:, -1] - self.piv_F[:, :-1] @ x
        return x

    def recover_y(self, y_kept: np.ndarray, ray: bool = False) -> np.ndarray:
        """Duals for all original rows.

        A pivot row's dual makes its pivot column's dual equation hold,
        F[P, J]^T y_P = c_J - F[K, J]^T y_K, in one square solve; the other
        free columns' equations then hold as the kept rows' do.  For an
        improving ray that equation is homogeneous, so c_J is dropped.  An
        empty free-only row gets dual 0.
        """
        y = np.zeros(self.A_free_orig.shape[0])
        y[self.kept_rows] = y_kept * self.row_scale
        rhs = ((0.0 if ray else self.c_free_orig) - self.A_free_orig.T @ y)[self.piv_cols]
        F_PJ = self.A_free_orig[self.piv_rows][:, self.piv_cols].toarray()
        y[self.piv_rows] = np.linalg.solve(F_PJ.T, rhs)
        return y


def solve_sdp(prob: SdpProblem, max_iter: int | None = None) -> SdpSolution:
    """Solve the SDP; deterministic for identical problem data.

    At most max_iter iterations, DEFAULT_MAX_ITER when None.
    """
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER
    elif not isinstance(max_iter, Integral) or max_iter < 1:
        raise ValueError(f"max_iter must be an integer >= 1, got {max_iter!r}")
    pre = _Preprocessed(prob)
    if pre.inconsistent:
        return SdpSolution("infeasible", None, y=np.zeros(prob.n_rows),
                           message="equality rows without matrix entries are inconsistent")
    if pre.unbounded_free:
        return SdpSolution("unbounded", None,
                           message="objective depends on a free direction no equality touches")

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
    # are matrix blocks, in one class per dimension, ordered by first block
    lp_blocks = [bi for bi, d in enumerate(dims) if d == 1]
    lp = np.array([slices[bi].start for bi in lp_blocks], dtype=np.int64)
    by_dim: dict[int, list[int]] = {}
    for bi, d in enumerate(dims):
        if d > 1:
            by_dim.setdefault(d, []).append(bi)
    classes = [_BlockClass(d, bis, [slices[bi].start for bi in bis]) for d, bis in by_dim.items()]
    # A^T is applied seven times per iteration: stored once as CSR it adds
    # the same products in the same order as the CSC view, about 5x faster
    AT = A.T.tocsr()
    # the plan takes the matrix blocks class by class
    plan = _SchurPlan(A, lp, [(slices[bi], cl.d) for cl in classes for bi in cl.blocks])

    # identity start; the iterates are held only as svec vectors
    xv = np.ones(n_psd)
    for cl in classes:
        xv[cl.cols] = svec(np.eye(cl.d))
    zv = xv.copy()
    y = np.zeros(m)
    tau, kappa = 1.0, 1.0

    def to_mats(v):
        return [cl.smat(v) for cl in classes]

    def to_blocks(v):
        out = {bi: np.array([[vk]]) for bi, vk in zip(lp_blocks, v[lp])}
        for cl in classes:
            out.update(zip(cl.blocks, cl.smat(v)))
        return [out[bi] for bi in range(len(dims))]

    xf = np.zeros(nf)
    norm_b = 1.0 + np.linalg.norm(b)
    norm_c = 1.0 + np.sqrt(np.linalg.norm(c) ** 2 + np.linalg.norm(cf) ** 2)

    # a stall sets only its message; the best iterate is then labelled by
    # validate_solution after the loop
    best = None
    trace: list[dict] = []
    status, msg = None, "iteration limit reached"

    for it in range(1, max_iter + 1):
        x, z = xv[lp], zv[lp]
        # residuals of the homogeneous model
        Rp = A @ xv + Af @ xf - b * tau
        Rd_psd = -(AT @ y) + c * tau - zv
        Rd_free = -(Af.T @ y) + cf * tau
        by = float(b @ y)
        cx = float(c @ xv + cf @ xf)
        Rg = by - cx - kappa
        mu = (float(xv @ zv) + tau * kappa) / (nu + 1)

        # convergence metrics at the de-homogenized point, from the
        # residuals divided by tau
        pres = np.linalg.norm(Rp) / tau / norm_b
        dres = np.sqrt(np.linalg.norm(Rd_psd) ** 2 + np.linalg.norm(Rd_free) ** 2) / tau / norm_c
        pobj = cx / tau
        dobj = by / tau
        gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        score = max(pres, dres, gap)
        if best is None or score < best[0]:
            best = (score, xv / tau, xf / tau, y / tau, zv / tau, pobj)
        entry = {"mu": mu, "pres": float(pres), "dres": float(dres), "gap": gap,
                 "tau": tau, "kappa": kappa, "sigma": None, "step": None, "jitter": None,
                 "seconds": {}}
        trace.append(entry)
        seconds = entry["seconds"]

        if score <= DEFAULT_TOL:
            status, msg = "optimal", f"converged in {it} iterations"
            break

        if tau <= INFEAS_RATIO * kappa:
            # certificate quality decides between the two infeasibility kinds
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

        # NT scalings: per class of matrix blocks, elementwise x/z on the
        # nonnegative cone
        t0 = time.perf_counter()
        try:
            scalings = [_Scaling(Xc, Zc) for Xc, Zc in zip(to_mats(xv), to_mats(zv))]
        except np.linalg.LinAlgError:
            msg = "iterate left the cone"
            break
        w_lp = x / z
        t1 = time.perf_counter()
        seconds["scaling"] = t1 - t0

        # Schur complement  M = sum_blocks A_b P_b^T + A_lp diag(x/z) A_lp^T,
        # its lower triangle
        plan.build([R for sc in scalings for R in sc.R], w_lp)
        t2 = time.perf_counter()
        seconds["schur"] = t2 - t1

        schur, entry["jitter"] = plan.factor()
        if schur is None:
            msg = "Schur complement factorization failed"
            break

        # formed empty, this factor and its products slow the fits by 1-3%;
        # for G = L^-1 AF, R_F^T R_F = G^T G = AF^T M^-1 AF = S_F
        if nf:
            G = plan.solve_lower(schur, Af, False)
            R_F = np.linalg.qr(G, mode="r")
        else:
            G, R_F = None, None
        t3 = time.perf_counter()
        seconds["factor"] = t3 - t2

        def apply_Hinv(v):
            out = np.empty_like(v)
            out[lp] = w_lp * v[lp]
            for cl, sc in zip(classes, scalings):
                out[cl.cols] = cl.hinv(sc.R, v)
            return out

        def solve_kkt(u_K, u_F, u_y):
            """[H dxK - AK^T dy = u_K; -AF^T dy = u_F; AK dxK + AF dxF = u_y].

            dxK = H^-1 (u_K + AK^T dy) keeps the first equation exact.  The
            last two are M dy + AF dxF = g for g = u_y - AK H^-1 u_K: for
            h = L^-1 g, S_F dxF = G^T h + u_F and dy = L^-T (h - G dxF).
            """
            Hi_uK = apply_Hinv(u_K)
            h = plan.solve_lower(schur, u_y - A @ Hi_uK, False)
            dxF = np.zeros(0)
            if nf:  # skips the empty products, as the factor above does
                dxF = _solve_lower(R_F.T, _solve_lower(R_F.T, G.T @ h + u_F, False), True)
                h = h - G @ dxF
            dy = plan.solve_lower(schur, h, True)
            return Hi_uK + apply_Hinv(AT @ dy), dxF, dy

        # solve for the tau-direction basis (depends on scaling only)
        q_xK, q_xF, q_y = solve_kkt(-c, -cf, b)
        denom_base = float(kappa / tau + (b @ q_y - c @ q_xK - cf @ q_xF))

        def direction(sigma, corr_mats, corr_lp, corr_tk):
            eta = 1.0 - sigma
            # W^-1 applied to the scaled complementarity residual, per class
            rhs_u = -eta * Rd_psd
            for cl, sc, corr in zip(classes, scalings, corr_mats):
                lam = sc.lam
                Dc = (sigma * mu - lam**2)[:, :, None] * np.eye(cl.d) - corr
                Umat = 2.0 * Dc / (lam[:, :, None] + lam[:, None, :])
                rhs_u[cl.cols] += cl.winv(sc.Rinv, Umat)
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
            for sc, dXc, dZc in zip(scalings, dX, dZ):
                a = min(a, _max_step_psd(sc.Lx_inv, dXc), _max_step_psd(sc.Lz_inv, dZc))
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkappa < 0:
                a = min(a, -kappa / dkappa)
            return a

        # predictor; potrf and qr return NaN factors rather than raising, so
        # a non-finite M or S_F first shows in a direction
        dxFa, dya, dtaua, dkappaa, dxKa, dza, dXa, dZa = direction(
            0.0, [0.0] * len(classes), 0.0, 0.0)
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

        # corrector terms (W^-T dx_aff) o (W dz_aff): per class, and dx o dz
        # on the nonnegative cone
        corr_mats = []
        for sc, dXc, dZc in zip(scalings, dXa, dZa):
            Xi = sc.Rinv @ dXc @ sc.Rinv.mT
            Om = sc.R.mT @ dZc @ sc.R
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

        xv = xv + a * dxK
        zv = zv + a * dz
        xf = xf + a * dxF
        y = y + a * dy
        tau += a * dtau
        kappa += a * dkappa

    if status in ("infeasible", "unbounded"):
        sol = SdpSolution(status=status, objective=None, iterations=it, message=msg,
                          trace=trace)
        sol.y = pre.recover_y(y, ray=True) if status == "infeasible" else np.zeros(prob.n_rows)
        if status == "unbounded":
            sol.blocks = to_blocks(xv)
        return sol

    # report the best de-homogenized iterate
    _, xb, xfb, yb, zb, pobj = best
    sol = SdpSolution(
        status=status or "numerical-failure",
        objective=pobj + pre.obj_const,
        blocks=to_blocks(xb),
        free=pre.recover_free(xfb),
        y=pre.recover_y(yb),
        z_blocks=to_blocks(zb),
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
    if sol.status in ("infeasible", "unbounded") or len(sol.blocks) != len(prob.block_dims):
        return {"status": sol.status, "checked": False}
    xv = np.concatenate([np.zeros(0), *map(svec, sol.blocks)])
    # a hand-built solution may carry no free values or no duals
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
