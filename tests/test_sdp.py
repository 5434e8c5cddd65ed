"""Tests for the interior-point SDP solver."""

import itertools
import json
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import issynth.sdp as sdp
from issynth.sdp import (
    SdpProblem,
    SdpSolution,
    _hinv_svec,
    _SchurRows,
    _winv_svec,
    format_trace,
    smat,
    solve_sdp,
    svec,
    svec_dim,
    svec_indices,
    validate_solution,
)


def _congruence_matrix(Q: np.ndarray) -> np.ndarray:
    """Matrix of the map svec(S) -> svec(Q S Q^T), columns over svec coords.

    O(d^4) in time and memory; the reference the solver's d x d products
    are checked against.
    """
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
# svec machinery


class TestSvec:
    def test_roundtrip_and_isometry(self):
        rng = np.random.default_rng(0)
        for d in (1, 2, 5, 9):
            S = rng.standard_normal((d, d))
            S = S + S.T
            v = svec(S)
            assert v.shape == (svec_dim(d),)
            assert np.allclose(smat(v, d), S)
            # svec preserves the trace inner product
            T = rng.standard_normal((d, d))
            T = T + T.T
            assert np.isclose(v @ svec(T), np.sum(S * T))

    def test_congruence_matrix(self):
        rng = np.random.default_rng(1)
        d = 6
        Q = rng.standard_normal((d, d))
        K = _congruence_matrix(Q)
        for _ in range(5):
            S = rng.standard_normal((d, d))
            S = S + S.T
            assert np.allclose(K @ svec(S), svec(Q @ S @ Q.T))


def _factor_with_condition(rng, d, cond):
    U, _ = np.linalg.qr(rng.standard_normal((d, d)))
    V, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return U @ np.diag(np.logspace(0.0, -np.log10(cond), d)) @ V.T


def _rel_err(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


def _reduceat_schur_rows(A: sp.csr_matrix, d: int, R: np.ndarray) -> np.ndarray:
    """Schur rows as one np.add.reduceat over every entry's rank-2 product,
    then scaled: the bit-exact reference of _SchurRows.rows for rows of up
    to 8 entries."""
    iu, ju, scale = svec_indices(d)
    p, q = iu[A.indices], ju[A.indices]
    coef = A.data * np.where(p == q, 0.5, 1.0 / np.sqrt(2.0))
    RI, RJ = R[:, iu], R[:, ju]
    G = RI[p] * RJ[q]
    G += RI[q] * RJ[p]
    G *= coef[:, None]
    B = np.add.reduceat(G, A.indptr[:-1], axis=0)
    B *= scale
    return B


class TestScalingProducts:
    """The solver's d x d products against the O(d^4) congruence matrices."""

    @pytest.mark.parametrize("cond", [1.0e1, 1.0e8])
    def test_schur_rows_match_oracle(self, cond, monkeypatch):
        rng = np.random.default_rng(21)
        d = 12
        n = svec_dim(d)
        # every svec coordinate in exactly one row, 1-4 entries per row, as
        # in SOS coefficient matching; plus a few denser rows
        perm = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n), size=n // 2, replace=False))
        rows = [list(part) for part in np.split(perm, cuts)]
        rows += [list(rng.choice(n, size=20, replace=False)) for _ in range(3)]
        # and for certain rows of 1, 2 and 3 entries, and of 8 and 9, the
        # longest segment reduceat sums in entry order and the shortest it
        # sums pairwise; (0, 0) is a diagonal entry
        rows += [[0], [1, 2], [3, 4, 5], list(range(6, 14)), list(range(14, 23))]
        assert {1, 2, 3, 8, 9, 20} <= {len(r) for r in rows}
        A = sp.csr_matrix(
            (rng.standard_normal(sum(map(len, rows))),
             np.concatenate(rows), np.cumsum([0] + [len(r) for r in rows])),
            shape=(len(rows), n))
        R = _factor_with_condition(rng, d, cond)
        ref = A @ _congruence_matrix(R)
        exact = _reduceat_schur_rows(A, d, R)
        short = np.diff(A.indptr) <= 8
        whole = _SchurRows(A, d).rows(R)
        assert _rel_err(whole, ref) <= 1e-12
        assert _rel_err(whole[~short], ref[~short]) <= 1e-12
        assert np.array_equal(whole[short], exact[short])
        monkeypatch.setattr(sdp, "SCHUR_CHUNK", 3 * n)
        chunked = _SchurRows(A, d)
        assert len(chunked.bounds) > 5
        assert np.array_equal(chunked.rows(R), whole)

    @pytest.mark.parametrize("cond", [1.0e1, 1.0e8])
    def test_hinv_and_winv_match_oracle(self, cond):
        rng = np.random.default_rng(22)
        d = 9
        R = _factor_with_condition(rng, d, cond)
        Rinv = np.linalg.inv(R)
        K = _congruence_matrix(R)
        J = _congruence_matrix(Rinv.T)
        for _ in range(3):
            S = rng.standard_normal((d, d))
            S = S + S.T
            v = svec(S)
            assert _rel_err(_hinv_svec(R, v), K @ (K.T @ v)) <= 1e-12
            assert _rel_err(_winv_svec(Rinv, S), J @ v) <= 1e-12


# ---------------------------------------------------------------------------
# reference problems with known answers


class TestKnownProblems:
    def test_min_t_two_by_two(self):
        # min t subject to [[t, 1], [1, t]] psd; optimum t = 1
        p = SdpProblem()
        g = p.add_block(2, "G")
        t = p.add_free("t")
        p.add_row(psd_entries=[(g, 0, 0, 1.0)], free_entries=[(t, -1.0)])
        p.add_row(psd_entries=[(g, 1, 1, 1.0)], free_entries=[(t, -1.0)])
        p.add_row(psd_entries=[(g, 0, 1, 1.0)], rhs=1.0)
        p.set_objective_free(t, 1.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert abs(sol.objective - 1.0) <= 1e-6
        assert abs(sol.free[0] - 1.0) <= 1e-6
        val = validate_solution(p, sol)
        assert val["ok"]

    def test_trace_one_feasibility(self):
        p = SdpProblem()
        g = p.add_block(3)
        p.add_row(psd_entries=[(g, i, i, 1.0) for i in range(3)], rhs=1.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        X = sol.blocks[0]
        assert abs(np.trace(X) - 1.0) <= 1e-6
        assert np.linalg.eigvalsh(X)[0] >= -1e-8

    def test_scalar_negative_is_infeasible(self):
        # x = -1 with x >= 0 has no solution
        p = SdpProblem()
        g = p.add_block(1)
        p.add_row(psd_entries=[(g, 0, 0, 1.0)], rhs=-1.0)
        sol = solve_sdp(p)
        assert sol.status == "infeasible"

    def test_unbounded_objective(self):
        # min -v with x = v, x >= 0 scalar: v can grow without limit
        p = SdpProblem()
        g = p.add_block(1)
        v = p.add_free()
        p.add_row(psd_entries=[(g, 0, 0, 1.0)], free_entries=[(v, -1.0)])
        p.set_objective_free(v, -1.0)
        sol = solve_sdp(p)
        assert sol.status == "unbounded"

    def test_free_variable_untouched_by_rows(self):
        p = SdpProblem()
        g = p.add_block(1)
        v = p.add_free()
        p.add_row(psd_entries=[(g, 0, 0, 1.0)], rhs=1.0)
        p.set_objective_free(v, 1.0)
        sol = solve_sdp(p)
        assert sol.status == "unbounded"

    def test_inconsistent_free_rows(self):
        p = SdpProblem()
        p.add_block(1)
        v = p.add_free()
        p.add_row(free_entries=[(v, 1.0)], rhs=1.0)
        p.add_row(free_entries=[(v, 1.0)], rhs=2.0)
        sol = solve_sdp(p)
        assert sol.status == "infeasible"

    def test_free_only_rows_eliminated(self):
        # v1 + v2 = 3, v1 - v2 = 1 pin the free part exactly
        p = SdpProblem()
        g = p.add_block(2)
        v1, v2 = p.add_free("v1"), p.add_free("v2")
        p.add_row(free_entries=[(v1, 1.0), (v2, 1.0)], rhs=3.0)
        p.add_row(free_entries=[(v1, 1.0), (v2, -1.0)], rhs=1.0)
        p.add_row(psd_entries=[(g, 0, 0, 1.0)], free_entries=[(v1, -1.0)])
        p.add_row(psd_entries=[(g, 1, 1, 1.0)], free_entries=[(v2, -1.0)])
        p.add_row(psd_entries=[(g, 0, 1, 2.0)], rhs=1.0)
        p.set_objective_entry(g, 0, 0, 1.0)
        p.set_objective_entry(g, 1, 1, 1.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert np.allclose(sol.free, [2.0, 1.0], atol=1e-6)
        assert abs(sol.blocks[0][0, 1] - 0.5) <= 1e-6
        assert validate_solution(p, sol)["ok"]

    def test_free_only_row_wider_than_tall(self):
        # one free-only row v1 + v2 = 3 leaves a one-dimensional null space;
        # x = v2 >= 0 and min v1 + 2 v2 = 3 + v2 put the optimum at (3, 0)
        p = SdpProblem()
        x = p.add_block(1)
        v1, v2 = p.add_free("v1"), p.add_free("v2")
        p.add_row(free_entries=[(v1, 1.0), (v2, 1.0)], rhs=3.0)
        p.add_row(psd_entries=[(x, 0, 0, 1.0)], free_entries=[(v2, -1.0)])
        p.set_objective_free(v1, 1.0)
        p.set_objective_free(v2, 2.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert np.allclose(sol.free, [3.0, 0.0], atol=1e-6)
        assert abs(sol.objective - 3.0) <= 1e-6

    def test_multiblock_with_scalar_blocks(self):
        # two scalars x0 + x1 = 2 and a 2x2 with fixed trace, minimize sum
        p = SdpProblem()
        s0 = p.add_block(1)
        s1 = p.add_block(1)
        g = p.add_block(2)
        p.add_row(psd_entries=[(s0, 0, 0, 1.0), (s1, 0, 0, 1.0)], rhs=2.0)
        p.add_row(psd_entries=[(g, 0, 0, 1.0), (g, 1, 1, 1.0)], rhs=1.0)
        p.set_objective_entry(s0, 0, 0, 1.0)
        p.set_objective_entry(g, 0, 0, 1.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        # x0 can go to 0 (x1 absorbs the sum), G00 can go to 0 as well
        assert abs(sol.objective) <= 1e-6

    def test_lp_only_known_optimum(self):
        # min 2x0 + 3x1 + x2  s.t.  x0 + x1 + x2 = 4,  x0 - x2 = 1,  x >= 0:
        # optimum x = (2.5, 0, 1.5), value 6.5, duals y = (1.5, 0.5)
        p = SdpProblem()
        x = [p.add_block(1) for _ in range(3)]
        p.add_row(psd_entries=[(xi, 0, 0, 1.0) for xi in x], rhs=4.0)
        p.add_row(psd_entries=[(x[0], 0, 0, 1.0), (x[2], 0, 0, -1.0)], rhs=1.0)
        for xi, cost in zip(x, (2.0, 3.0, 1.0)):
            p.set_objective_entry(xi, 0, 0, cost)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert abs(sol.objective - 6.5) <= 1e-7
        assert np.allclose([B[0, 0] for B in sol.blocks], [2.5, 0.0, 1.5], atol=1e-7)
        assert np.allclose(sol.y, [1.5, 0.5], atol=1e-7)
        assert np.allclose([Z[0, 0] for Z in sol.z_blocks], [0.0, 1.5, 0.0], atol=1e-7)
        assert validate_solution(p, sol)["ok"]

    def test_lp_only_infeasible(self):
        # x1 + x2 = -1 has no nonnegative solution, whatever x0 does
        p = SdpProblem()
        x = [p.add_block(1) for _ in range(3)]
        p.add_row(psd_entries=[(x[0], 0, 0, 1.0), (x[1], 0, 0, 1.0)], rhs=1.0)
        p.add_row(psd_entries=[(x[1], 0, 0, 1.0), (x[2], 0, 0, 1.0)], rhs=-1.0)
        sol = solve_sdp(p)
        assert sol.status == "infeasible"
        # the dual ray y certifies it: A^T y <= 0 entrywise with b . y > 0
        assert sol.y @ [1.0, -1.0] > 0


# ---------------------------------------------------------------------------
# randomized rounds


def _random_feasible_sdp(rng, d, m, nf=0, ns=0):
    """Strictly feasible by construction: rhs evaluated at a PD interior point.

    ``ns`` scalar (1x1) blocks join the rows, each row taking one of them.
    With ns = 0 the random stream is the one drawn before scalar blocks
    existed, so those problems are unchanged.
    """
    p = SdpProblem()
    g = p.add_block(d)
    scal = [p.add_block(1) for _ in range(ns)]
    for _ in range(nf):
        p.add_free()
    X0 = rng.standard_normal((d, d))
    X0 = X0 @ X0.T + d * np.eye(d)
    v0 = rng.standard_normal(nf)
    s0 = rng.uniform(0.5, 2.0, ns) if ns else np.zeros(0)
    iu, ju = np.triu_indices(d)
    for r in range(m):
        nz = rng.choice(len(iu), size=min(6, len(iu)), replace=False)
        entries = [(g, int(iu[k]), int(ju[k]), float(rng.standard_normal())) for k in nz]
        fe = []
        if nf:
            j = int(rng.integers(nf))
            fe = [(j, float(rng.standard_normal()))]
        rhs = sum(c * X0[i, jj] for (_, i, jj, c) in entries)
        rhs += sum(c * v0[j] for j, c in fe)
        if ns:
            k = r % ns
            cs = float(rng.standard_normal())
            entries.append((scal[k], 0, 0, cs))
            rhs += cs * s0[k]
        p.add_row(entries, fe, rhs)
    # PD objective keeps the problem bounded below
    C = rng.standard_normal((d, d))
    C = C @ C.T + d * np.eye(d)
    for i, j in zip(iu, ju):
        p.set_objective_entry(g, int(i), int(j), float(C[i, j] if i == j else 2 * C[i, j]))
    for k in scal:
        p.set_objective_entry(k, 0, 0, float(rng.uniform(0.5, 2.0)))
    return p


class TestRandomized:
    def test_strictly_feasible_problems_solve(self):
        rng = np.random.default_rng(42)
        for trial in range(15):
            d = int(rng.integers(3, 16))
            m = int(rng.integers(2, svec_dim(d) // 2 + 2))
            nf = int(rng.integers(0, 4))
            p = _random_feasible_sdp(rng, d, m, nf)
            sol = solve_sdp(p)
            val = validate_solution(p, sol)
            assert sol.status == "optimal", (trial, sol.status, sol.message)
            assert val["primal_eq"] <= 1e-7, (trial, val)
            assert val["min_eig"] >= -1e-8, (trial, val)
            assert val["duality_gap"] <= 1e-6, (trial, val)

    def test_mixed_cone_problems_solve(self):
        rng = np.random.default_rng(43)
        for trial in range(10):
            d = int(rng.integers(3, 12))
            m = int(rng.integers(2, svec_dim(d) // 2 + 2))
            nf = int(rng.integers(0, 3))
            ns = int(rng.integers(1, m + 3))
            p = _random_feasible_sdp(rng, d, m, nf, ns)
            sol = solve_sdp(p)
            val = validate_solution(p, sol)
            assert sol.status == "optimal", (trial, sol.status, sol.message)
            assert [B.shape for B in sol.blocks] == [(dd, dd) for dd in p.block_dims]
            assert [B.shape for B in sol.z_blocks] == [(dd, dd) for dd in p.block_dims]
            assert val["primal_eq"] <= 1e-7, (trial, val)
            assert val["min_eig"] >= -1e-8, (trial, val)
            assert val["duality_gap"] <= 1e-6, (trial, val)

    def test_deterministic_reruns(self):
        p = _random_feasible_sdp(np.random.default_rng(7), 8, 10, 2)
        s1 = solve_sdp(p).to_json()
        s2 = solve_sdp(p).to_json()
        assert s1 == s2

    def test_deterministic_reruns_mixed_cone(self):
        p = _random_feasible_sdp(np.random.default_rng(8), 8, 10, 2, ns=6)
        s1 = solve_sdp(p).to_json()
        s2 = solve_sdp(p).to_json()
        assert s1 == s2

    def test_infeasible_by_contradiction(self):
        # trace(X) = 1 and trace(X) = 2 cannot both hold
        rng = np.random.default_rng(11)
        for d in (2, 4, 6):
            p = SdpProblem()
            g = p.add_block(d)
            p.add_row(psd_entries=[(g, i, i, 1.0) for i in range(d)], rhs=1.0)
            p.add_row(psd_entries=[(g, i, i, 1.0) for i in range(d)], rhs=2.0)
            # extra generic rows keep the problem nontrivial
            i, j = sorted(rng.integers(0, d, size=2))
            p.add_row(psd_entries=[(g, int(i), int(j), 1.0)], rhs=0.1)
            sol = solve_sdp(p)
            assert sol.status == "infeasible", (d, sol.status, sol.message)


# ---------------------------------------------------------------------------
# how a solve ends: every stall reports its best iterate, labelled by
# validate_solution


def _stall_problem():
    # optimal in 10 iterations; its best iterate first validates at 9
    return _random_feasible_sdp(np.random.default_rng(7), 8, 10, 2)


def _validated_label(p, sol):
    """Assert a stalled solve is feasible exactly when its point validates."""
    ok = validate_solution(p, sol)["ok"]
    assert sol.status == ("feasible" if ok else "numerical-failure"), (sol.status, sol.message)
    return sol.status


def test_iteration_limit_labels_best_iterate_by_validation():
    p = _stall_problem()
    n_opt = solve_sdp(p).iterations
    labels = set()
    for max_iter in range(1, n_opt):
        sol = solve_sdp(p, max_iter=max_iter)
        assert sol.iterations == max_iter
        assert sol.message == "iteration limit reached"
        labels.add(_validated_label(p, sol))
    assert labels == {"feasible", "numerical-failure"}


def test_solve_options_reject_zero_iterations():
    with pytest.raises(ValueError, match="max_iter"):
        solve_sdp(_stall_problem(), max_iter=0)


def test_positional_none_is_the_default_iteration_limit():
    # the benchmark's recorder passes its caller's None on as the second
    # positional argument
    p = _stall_problem()
    assert solve_sdp(p, None).to_json() == solve_sdp(p).to_json()


def _from_call(k, real, stand_in):
    """``real`` for the first k - 1 calls, ``stand_in`` from the k-th on."""
    calls = itertools.count(1)
    return lambda *args: (stand_in if next(calls) >= k else real)(*args)


def _fail(*args):
    raise np.linalg.LinAlgError("forced")


def _cholesky_nan(k, shape):
    """np.linalg.cholesky that returns an all-NaN factor of matrices of
    ``shape`` from the k-th on, as numpy does for a NaN matrix."""
    real = np.linalg.cholesky
    nan = _from_call(k, real, lambda M: np.full(M.shape, np.nan))
    return lambda M: nan(M) if M.shape == shape else real(M)


def _cholesky_failing(k, shape):
    """np.linalg.cholesky that fails on matrices of ``shape`` from the k-th on."""
    real = np.linalg.cholesky
    failing = _from_call(k, real, _fail)
    return lambda M: failing(M) if M.shape == shape else real(M)


class _RatioFrom:
    """INFEAS_RATIO stand-in: ``tau <= ratio * kappa`` holds from the k-th test on."""

    def __init__(self, k):
        self.hits = _from_call(k, lambda: 0.0, lambda: np.inf)

    def __mul__(self, kappa):
        return self.hits()


# each stall forced at iteration k of _stall_problem: one 8x8 block, 10 rows
# touching it and 2 free variables, so one scaling per iteration, 10x10 Schur
# and 2x2 free-variable Schur complements, and four PSD step-length tests
STALLS = {
    "tau collapsed without clean certificate":
        lambda mp, k: mp.setattr(sdp, "INFEAS_RATIO", _RatioFrom(k)),
    "iterate left the cone":
        lambda mp, k: mp.setattr(sdp, "_BlockScaling", _from_call(k, sdp._BlockScaling, _fail)),
    "Schur complement factorization failed":
        lambda mp, k: mp.setattr(np.linalg, "cholesky", _cholesky_failing(k, (10, 10))),
    "free-variable Schur factorization failed":
        lambda mp, k: mp.setattr(np.linalg, "cholesky", _cholesky_failing(k, (2, 2))),
    "non-finite direction":
        lambda mp, k: mp.setattr(np.linalg, "cholesky", _cholesky_nan(k, (10, 10))),
    "step length 0.00e+00 below minimum":
        lambda mp, k: mp.setattr(sdp, "_max_step_psd",
                                 _from_call(4 * k - 3, sdp._max_step_psd, lambda *a: 0.0)),
}


@pytest.mark.parametrize("message", list(STALLS))
def test_forced_stall_labels_best_iterate_by_validation(message, monkeypatch):
    p = _stall_problem()
    n_opt = solve_sdp(p).iterations
    labels = set()
    for k in (1, n_opt - 1):
        with monkeypatch.context() as mp:
            STALLS[message](mp, k)
            sol = solve_sdp(p)
        assert sol.iterations == k
        assert sol.message == message
        labels.add(_validated_label(p, sol))
    assert labels == {"feasible", "numerical-failure"}


def test_nan_free_variable_factor_ends_as_non_finite_direction(monkeypatch):
    p = _stall_problem()
    monkeypatch.setattr(np.linalg, "cholesky", _cholesky_nan(3, (2, 2)))
    sol = solve_sdp(p)
    assert (sol.iterations, sol.message) == (3, "non-finite direction")
    _validated_label(p, sol)


# ---------------------------------------------------------------------------
# direct LAPACK calls: the bits of scipy's wrappers


def _same_array_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("order", ["C", "F"])
def test_cho_solve_matches_scipy(order):
    rng = np.random.default_rng(0)
    # 72 and 697: the fits' Schur complement and step V's largest component
    for n in (1, 2, 7, 40, 72, 697):
        G = rng.standard_normal((n, n))
        L = np.asarray(np.linalg.cholesky(G @ G.T + n * np.eye(n)), order=order)
        for B in (rng.standard_normal(n), rng.standard_normal((n, 3)),
                  np.asfortranarray(rng.standard_normal((n, 3)))):
            assert _same_array_bits(sdp._cho_solve(L, B), sla.cho_solve((L, True), B))
    empty = np.zeros((0, 0))
    for B in (np.zeros(0), np.zeros((0, 2))):
        assert sdp._cho_solve(empty, B).shape == sla.cho_solve((empty, True), B).shape


@pytest.mark.parametrize("order", ["C", "F"])
def test_solve_lower_matches_scipy(order):
    rng = np.random.default_rng(1)
    for n in (1, 2, 7, 40):
        G = rng.standard_normal((n, n))
        L = np.asarray(np.linalg.cholesky(G @ G.T + n * np.eye(n)), order=order)
        T = rng.standard_normal((n, n))
        # the solver passes an identity, a C-ordered matrix and a transpose view
        for B in (np.eye(n), T, T.T, rng.standard_normal(n)):
            assert _same_array_bits(sdp._solve_lower(L, B),
                                    sla.solve_triangular(L, B, lower=True))
    singular = np.asarray([[1.0, 0.0], [1.0, 0.0]], order=order)
    for solve in (sdp._solve_lower, lambda L, B: sla.solve_triangular(L, B, lower=True)):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            solve(singular, np.ones(2))


# ---------------------------------------------------------------------------
# Schur complement by connected component


def _component_problem():
    """Two disjoint 2x2 blocks, four scalars and two free variables; optimum 5.

    Rows 0-3 couple through block A and scalar s0 (row 3 is scalar-only),
    rows 4-5 through block B; row 6 (s2 alone) and row 7 (s3 and v1) share
    no cone piece with another row.  The optimum: A = [[1, 1], [1, 1]]
    with v0 = 1, s0 = 2, s1 = 0 (2); tr B = v1 = 2 (2); s2 = 1 (1).
    """
    p = SdpProblem()
    A, B = p.add_block(2, "A"), p.add_block(2, "B")
    s = [p.add_block(1) for _ in range(4)]
    v0, v1 = p.add_free("v0"), p.add_free("v1")
    p.add_row([(A, 0, 1, 1.0)], rhs=1.0)
    p.add_row([(A, 0, 0, 1.0)], [(v0, -1.0)])
    p.add_row([(A, 1, 1, 1.0), (s[0], 0, 0, 1.0)], rhs=3.0)
    p.add_row([(s[0], 0, 0, 1.0), (s[1], 0, 0, 1.0)], rhs=2.0)
    p.add_row([(B, 0, 1, 1.0)], rhs=-1.0)
    p.add_row([(B, 0, 0, 1.0), (B, 1, 1, 1.0)], [(v1, -1.0)])
    p.add_row([(s[2], 0, 0, 1.0)], rhs=1.0)
    p.add_row([(s[3], 0, 0, 1.0)], [(v1, 1.0)], rhs=5.0)
    for v in (v0, v1):
        p.set_objective_free(v, 1.0)
    p.set_objective_entry(A, 1, 1, 1.0)
    for k in (1, 2):
        p.set_objective_entry(s[k], 0, 0, 1.0)
    return p


def _interleaved_problem():
    """Two 3x3 blocks whose rows interleave in one component, and a free variable.

    Block A is touched by rows 0, 1, 3, 5, 6 and 8, block B by rows 2, 3, 4,
    7 and 9 (row 3 touches both), so A's rows take 4 runs of consecutive
    positions in the component and B's 3.  X_A = X_B = I, v = 0 is feasible.
    """
    p = SdpProblem()
    A, B = p.add_block(3, "A"), p.add_block(3, "B")
    v = p.add_free("v")
    rows = [[(A, 0, 0, 1.0)], [(A, 0, 1, 1.0), (A, 1, 1, 2.0)], [(B, 0, 0, 1.0)],
            [(A, 2, 2, 1.0), (B, 1, 2, 1.0)], [(B, 1, 1, 1.0), (B, 0, 2, -1.0)],
            [(A, 0, 2, 1.0)], [(A, 1, 2, 1.0), (A, 0, 0, 0.5)], [(B, 2, 2, 1.0)],
            [(A, 1, 1, 1.0)], [(B, 0, 1, 1.0)]]
    rhs = [1.0, 2.0, 1.0, 1.0, 1.0, 0.0, 0.5, 1.0, 1.0, 0.0]
    for k, (entries, r) in enumerate(zip(rows, rhs)):
        p.add_row(entries, [(v, 1.0)] if k == 9 else [], rhs=r)
    for blk in (A, B):
        for i in range(3):
            p.set_objective_entry(blk, i, i, 1.0)
    return p


def _solve_keeping_plan(p, monkeypatch, max_iter=None, one_component=False):
    """solve_sdp(p, max_iter) and the _SchurPlan it built; ``one_component``
    adds a group of all rows, so M is factored densely as a whole."""
    made = []
    components = sdp._components

    class Kept(sdp._SchurPlan):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def joined(m, rows, groups):
        return components(m, np.concatenate([rows, np.arange(m)]),
                          np.concatenate([groups, np.full(m, groups.max() + 1)]))

    with monkeypatch.context() as mp:
        mp.setattr(sdp, "_SchurPlan", Kept)
        if one_component:
            mp.setattr(sdp, "_components", joined)
        sol = solve_sdp(p, max_iter)
    return sol, made[0]


def _assembled(plan):
    """The Schur matrix ``plan.flat`` holds, as a dense m x m array."""
    m = sum(map(len, plan.rows)) + len(plan.singles)
    M = np.zeros((m, m))
    for rows, Mc in zip(plan.rows, plan.mats):
        M[np.ix_(rows, rows)] = Mc
    M[plan.singles, plan.singles] = plan.diag
    return M


def test_schur_components_of_disjoint_blocks(monkeypatch):
    _, plan = _solve_keeping_plan(_component_problem(), monkeypatch)
    assert [r.tolist() for r in plan.rows] == [[0, 1, 2, 3], [4, 5]]
    assert plan.singles.tolist() == [6, 7]
    assert [Mc.shape for Mc in plan.mats] == [(4, 4), (2, 2)]
    assert plan.flat.shape == (16 + 4 + 2,)


def test_slice_adds_match_ix_scatter(monkeypatch):
    # each block's B B^T adds into the component run by run; the sum must
    # be, bit for bit, that of an np.ix_ scatter in the same block order
    p = _interleaved_problem()
    made = []

    class Recorded(sdp._SchurRows):
        def rows(self, R):
            B = super().rows(R)
            made.append(B.copy())
            return B

    monkeypatch.setattr(sdp, "_SchurRows", Recorded)
    _, plan = _solve_keeping_plan(p, monkeypatch, max_iter=1)
    assert [r.tolist() for r in plan.rows] == [list(range(10))]
    A = sdp._Preprocessed(p).A_psd.toarray()
    block_rows = [np.flatnonzero(np.abs(A[:, sl]).sum(axis=1)) for sl in p.block_slices()]
    assert [len(plan.block(rows)[1]) for rows in block_rows] == [4, 3]
    ref = np.zeros_like(plan.mats[0])
    for rows, B in zip(block_rows, made):
        ref[np.ix_(rows, rows)] += B @ B.T
    assert np.array_equal(plan.mats[0], ref)


def test_component_solve_matches_dense_solve(monkeypatch):
    # at the identity start W = I and x/z = 1, so iteration 1 assembles
    # M = A A^T over the scaled kept rows; max_iter = 1 leaves it in place
    for p in (_component_problem(), _interleaved_problem()):
        _, plan = _solve_keeping_plan(p, monkeypatch, max_iter=1)
        pre = sdp._Preprocessed(p)
        A = pre.A_psd.toarray()
        M = A @ A.T
        assert np.abs(_assembled(plan) - M).max() <= 1e-14 * np.abs(M).max()
        factors, jitter = plan.factor()
        assert jitter == 0.0
        rng = np.random.default_rng(0)
        for g in (rng.standard_normal(len(M)), pre.A_free, rng.standard_normal((len(M), 3))):
            ref = np.linalg.solve(M, g)
            assert _rel_err(plan.solve(factors, g), ref) <= 1e-10


def test_components_end_optimal_at_the_dense_objective(monkeypatch):
    p = _component_problem()
    sol, _ = _solve_keeping_plan(p, monkeypatch)
    dense, plan = _solve_keeping_plan(p, monkeypatch, one_component=True)
    assert [r.tolist() for r in plan.rows] == [list(range(8))]
    tol = sdp.DEFAULT_TOL
    for s in (sol, dense):
        assert s.status == "optimal", s.message
        assert validate_solution(p, s)["ok"]
        assert all(not e["jitter"] for e in s.trace)
    assert abs(sol.objective - dense.objective) <= tol * (1.0 + abs(dense.objective))
    assert abs(sol.objective - 5.0) <= tol * 6.0


def _union_find_components(m, rows, groups):
    """The components by union-find, each rooted at its smallest row:
    ordered by that row, rows ascending."""
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    first_row = {}
    for r, g in zip(rows.tolist(), groups.tolist()):
        a, b = find(r), find(first_row.setdefault(g, r))
        parent[max(a, b)] = min(a, b)
    comps: dict[int, list[int]] = {}
    for r in range(m):
        comps.setdefault(find(r), []).append(r)
    return [comps[root] for root in sorted(comps)]


def test_components_match_union_find_in_order():
    # the Cholesky bits depend on the order: components by smallest row,
    # rows ascending
    empty = np.zeros(0, np.int64)
    assert sdp._components(0, empty, empty) == []
    rng = np.random.default_rng(0)
    unused_groups = ungrouped_rows = 0
    for _ in range(600):
        m = int(rng.integers(1, 40))
        n_groups = int(rng.integers(1, 2 * m + 2))
        k = int(rng.integers(0, 2 * m + 1))
        rows, groups = rng.integers(0, m, k), rng.integers(0, n_groups, k)
        got = sdp._components(m, rows, groups)
        assert [c.tolist() for c in got] == _union_find_components(m, rows, groups)
        unused_groups += len(np.setdiff1d(np.arange(groups.max(initial=0)), groups)) > 0
        ungrouped_rows += len(np.unique(rows)) < m
    assert unused_groups > 100 and ungrouped_rows > 100


def test_free_columns_stay_c_ordered_without_a_dead_column():
    # a boolean column copy of A_free is Fortran-ordered and changes step
    # V's bits, so the reduced free columns are copied only when one is dead
    p = SdpProblem()
    g = p.add_block(3)
    v = [p.add_free() for _ in range(4)]
    p.add_row(free_entries=[(v[0], 1.0), (v[1], 1.0)], rhs=1.0)
    p.add_row([(g, 0, 0, 1.0)], [(v[0], 1.0), (v[2], 1.0)])
    p.add_row([(g, 1, 1, 1.0)], [(v[1], 1.0), (v[3], -1.0)])
    p.add_row([(g, 2, 2, 1.0)], [(v[2], 2.0), (v[3], 1.0)], rhs=1.0)
    pre = sdp._Preprocessed(p)
    assert pre.free_only_rows.tolist() == [0]
    assert pre.A_free.shape == (3, 3)
    assert np.linalg.norm(pre.A_free, axis=0).min() > 1e-14
    assert pre.A_free.flags.c_contiguous


# ---------------------------------------------------------------------------
# the plan's LP Schur term in scipy's summation order


def _lp_pattern(p):
    """The scaled nonnegative-coordinate columns of p's kept rows, CSC, and
    the rows each matrix block touches, as solve_sdp finds them."""
    A = sdp._Preprocessed(p).A_psd.tocsc()
    pairs = list(zip(p.block_slices(), p.block_dims))
    lp = [s.start for s, d in pairs if d == 1]
    return A[:, lp], [np.flatnonzero(np.diff(A[:, s].tocsr().indptr)) for s, d in pairs if d > 1]


def _lp_plan(A_lp, block_rows=()):
    """The plan of A_lp's rows joined by its coordinates and by ``block_rows``:
    each of those becomes a 2x2 block whose entry (0, 0) its rows touch."""
    m, L = A_lp.shape
    cols = []
    for rows in block_rows:
        col = np.zeros((m, 3))
        col[rows, 0] = 1.0
        cols.append(sp.csc_matrix(col))
    A = sp.hstack([A_lp, *cols]).tocsr()
    return sdp._SchurPlan(A, np.arange(L), [(slice(L + 3 * k, L + 3 * k + 3), 2)
                                             for k in range(len(block_rows))])


def _lp_term_matches_scipy(A_lp, block_rows=(), draws=50):
    """Whether, for ``draws`` random w, the plan adds onto a random Schur
    matrix what scipy's A_lp diag(w) A_lp^T adds, bit for bit."""
    plan = _lp_plan(A_lp, block_rows)
    A_csr = A_lp.tocsr()
    rng = np.random.default_rng(0)
    for _ in range(draws):
        w = 10.0 ** rng.uniform(-6.0, 6.0, A_lp.shape[1])
        plan.flat[:] = rng.standard_normal(plan.flat.shape)
        ref = _assembled(plan)
        plan.add_lp(w)
        S = (A_csr @ sp.diags(w) @ A_csr.T).tocoo()
        ref[S.row, S.col] += S.data
        if not np.array_equal(_assembled(plan).view(np.int64), ref.view(np.int64)):
            return False
    return True


def _random_lp_matrix(rng, mask):
    """CSC values of wide dynamic range on the pattern ``mask``."""
    vals = rng.standard_normal(mask.shape) * 10.0 ** rng.uniform(-3.0, 3.0, mask.shape)
    return sp.csc_matrix(np.where(mask, vals, 0.0))


def _group_shapes(plan):
    """(K, r) of each multi-row component's LP group, and (K, S) of the
    singleton rows' array."""
    return sorted(vals.shape for vals, *_ in plan.lp_groups), plan.lp_singles[1].shape


def _fit_plan_problem():
    from issynth.consistency import _fit_problem

    rng = np.random.default_rng(1)
    T, n, p = 30, 2, 6
    xi, r = rng.standard_normal((T, p)), rng.standard_normal((T, n))
    Cs = np.einsum("ta,tb->tab", r, r) - np.eye(n)
    Bs = -np.einsum("ta,tb->tab", xi, r)
    As = np.einsum("ta,tb->tab", xi, xi)
    return _fit_problem(Cs, Bs, As, margin=1e-6)


def test_lp_term_of_a_fit_matches_scipy_bits():
    # one dense group of 36 rows and 30 multipliers, inside the component
    # the 72 rows form through the fit's matrix block
    A_lp, block_rows = _lp_pattern(_fit_plan_problem())
    plan = _lp_plan(A_lp, block_rows)
    assert [len(rows) for rows in plan.rows] == [72]
    assert _group_shapes(plan) == ([(30, 36)], (1, 0))
    assert _lp_term_matches_scipy(A_lp, block_rows)


def test_fit_lp_rows_form_one_group_inside_their_component(monkeypatch):
    # rows 0-35 carry the multipliers, rows 36-71 only the matrix block
    _, plan = _solve_keeping_plan(_fit_plan_problem(), monkeypatch, max_iter=1)
    assert [len(rows) for rows in plan.rows] == [72] and not len(plan.singles)
    [(vals, coords, chunks, (Mc, runs))] = plan.lp_groups
    assert vals.shape == (30, 36) and Mc.shape == (72, 72)
    assert runs == [(slice(0, 36), slice(0, 36))]
    assert np.all(np.diff(coords) < 0)


def test_lp_term_of_single_row_groups_matches_scipy_bits():
    # step V's pattern: each coordinate touches one row, so every LP row is
    # a singleton; the lone row of 11 coordinates, summed alone, is one that
    # np.add.reduce would sum pairwise
    rng = np.random.default_rng(2)
    mask = np.zeros((9, 20), bool)
    for k in range(5):
        mask[k, k] = True
    mask[5, 5:7] = mask[6, 7:9] = True
    mask[7, 9:21] = True
    A_lp = _random_lp_matrix(rng, mask)
    plan = _lp_plan(A_lp)
    assert _group_shapes(plan) == ([], (11, 8)) and plan.rows == []
    assert _lp_term_matches_scipy(A_lp)
    assert _lp_term_matches_scipy(A_lp[[7]])


def test_lp_term_of_mixed_groups_matches_scipy_bits(monkeypatch):
    # components of several shapes, dense and not, with rows and coordinates
    # shuffled; with a small SCHUR_CHUNK the sums run over runs of a
    # component's rows
    rng = np.random.default_rng(3)
    chain = np.eye(5, 6, dtype=bool) | np.eye(5, 6, 1, dtype=bool)  # not dense
    parts = [np.ones((3, 4), bool)] * 3 + [np.ones((1, 1), bool)] * 2 + [
        chain, np.ones((12, 10), bool), np.array([[1, 1, 0], [0, 1, 1]], bool)]
    mask = sla.block_diag(*parts).astype(bool)
    mask = mask[rng.permutation(mask.shape[0])][:, rng.permutation(mask.shape[1])]
    A_lp = _random_lp_matrix(rng, mask)
    assert _group_shapes(_lp_plan(A_lp)) == (
        [(3, 2), (4, 3), (4, 3), (4, 3), (6, 5), (10, 12)], (1, 2))
    assert _lp_term_matches_scipy(A_lp)
    for chunk in (40, 300):
        monkeypatch.setattr(sdp, "SCHUR_CHUNK", chunk)
        assert _lp_term_matches_scipy(A_lp, draws=10)


def test_lp_term_inside_a_matrix_block_component_matches_scipy_bits():
    # a block joins rows of three LP groups and two rows of none, so the
    # groups' rows sit at scattered positions of one component and share
    # one array, zero where two rows share no coordinate
    rng = np.random.default_rng(4)
    mask = np.zeros((10, 7), bool)
    mask[[0, 3, 6], 0:3] = True
    mask[[1, 4], 3:5] = True
    mask[[2, 8], 5:7] = True
    A_lp = _random_lp_matrix(rng, mask)
    block_rows = [np.array([0, 2, 4, 5, 9])]
    plan = _lp_plan(A_lp, block_rows)
    assert [r.tolist() for r in plan.rows] == [[0, 1, 2, 3, 4, 5, 6, 8, 9]]
    assert _group_shapes(plan) == ([(7, 7)], (1, 0))
    assert _lp_term_matches_scipy(A_lp, block_rows)


def test_lp_term_of_a_chunked_group_matches_scipy_bits():
    # 700 coordinates on 10 rows: 70,000 products exceed SCHUR_CHUNK, so the
    # component's rows are summed in runs
    rng = np.random.default_rng(5)
    A_lp = _random_lp_matrix(rng, np.ones((10, 700), bool))
    plan = _lp_plan(A_lp)
    assert 700 * 10 * 10 > sdp.SCHUR_CHUNK and len(plan.lp_groups[0][2]) > 1
    assert _lp_term_matches_scipy(A_lp, draws=10)


def test_lp_term_without_scalar_blocks_does_no_work():
    p = SdpProblem()
    g = p.add_block(2)
    p.add_row([(g, 0, 0, 1.0)], rhs=1.0)
    p.add_row([(g, 0, 1, 1.0), (g, 1, 1, 1.0)], rhs=1.0)
    A_lp, block_rows = _lp_pattern(p)
    assert A_lp.shape == (2, 0)
    plan = _lp_plan(A_lp, block_rows)
    assert _group_shapes(plan) == ([], (1, 0))
    plan.flat[:] = np.arange(plan.flat.size)
    plan.add_lp(np.zeros(0))
    assert np.array_equal(plan.flat, np.arange(plan.flat.size))


@pytest.mark.parametrize("problem", ["fit", "components"])
def test_one_graph_pass_per_solve(problem, monkeypatch):
    import scipy.sparse.csgraph as csgraph

    p = _fit_plan_problem() if problem == "fit" else _component_problem()
    calls = []
    real = csgraph.connected_components

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(csgraph, "connected_components", counted)
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# solver trace


def test_trace_has_one_entry_per_iteration():
    p = _random_feasible_sdp(np.random.default_rng(5), 6, 8, 1, ns=4)
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert len(sol.trace) == sol.iterations
    keys = {"mu", "pres", "dres", "gap", "tau", "kappa", "sigma", "step", "jitter",
            "seconds"}
    phases = {"scaling", "schur", "factor", "directions", "step_length"}
    for e in sol.trace[:-1]:
        assert set(e) == keys
        assert set(e["seconds"]) == phases
        assert all(t >= 0.0 for t in e["seconds"].values())
        assert 0.0 < e["step"] <= 1.0 and 0.0 < e["sigma"] < 1.0
        assert e["jitter"] == 0.0
    # the converged iteration computes residuals only
    last = sol.trace[-1]
    assert max(last["pres"], last["dres"], last["gap"]) <= 1e-8
    assert last["sigma"] is None and last["step"] is None and last["jitter"] is None
    assert last["seconds"] == {}
    assert "trace" not in sol.to_json_dict()


def test_format_trace_one_line_per_iteration():
    p = _random_feasible_sdp(np.random.default_rng(5), 6, 8, 1, ns=4)
    sol = solve_sdp(p)
    lines = format_trace(sol.trace).splitlines()
    assert len(lines) == 1 + sol.iterations
    header = lines[0].split()
    assert header == ["it", "mu", "pres", "dres", "gap", "step", "jitter", "scaling_ms",
                      "schur_ms", "factor_ms", "directions_ms", "step_length_ms"]
    first = dict(zip(header, lines[1].split()))
    e = sol.trace[0]
    assert first["it"] == "1" and float(first["pres"]) == pytest.approx(e["pres"], rel=1e-2)
    assert float(first["step"]) == pytest.approx(e["step"], rel=1e-2)
    assert float(first["factor_ms"]) == pytest.approx(1e3 * e["seconds"]["factor"], abs=0.06)
    # the converged iteration holds mu and the residuals only
    last = dict(zip(header, lines[-1].split()))
    assert float(last["gap"]) == pytest.approx(sol.trace[-1]["gap"], rel=1e-2)
    assert [last[k] for k in header[5:]] == ["None"] * 7
    assert format_trace([]).split() == header


def test_trace_records_schur_jitter(monkeypatch):
    # an LP has no matrix block, so every Cholesky is the Schur factorization;
    # failing the first one makes iteration 1 retry on M + jitter * I
    p = SdpProblem()
    x = [p.add_block(1) for _ in range(3)]
    p.add_row(psd_entries=[(xi, 0, 0, 1.0) for xi in x], rhs=4.0)
    p.add_row(psd_entries=[(x[0], 0, 0, 1.0), (x[2], 0, 0, -1.0)], rhs=1.0)
    for xi, cost in zip(x, (2.0, 3.0, 1.0)):
        p.set_objective_entry(xi, 0, 0, cost)
    cholesky = np.linalg.cholesky
    seen = []

    def fail_first(M):
        seen.append(M.copy())
        if len(seen) == 1:
            raise np.linalg.LinAlgError("forced")
        return cholesky(M)

    monkeypatch.setattr(np.linalg, "cholesky", fail_first)
    sol = solve_sdp(p)
    monkeypatch.undo()
    assert sol.status == "optimal"
    jitter = sol.trace[0]["jitter"]
    assert jitter > 0.0
    assert np.array_equal(seen[1], seen[0] + jitter * np.eye(2))
    assert all(e["jitter"] == 0.0 for e in sol.trace[1:-1])


# ---------------------------------------------------------------------------
# serialization


class TestSerialization:
    def test_problem_roundtrip(self):
        p = _random_feasible_sdp(np.random.default_rng(3), 5, 6, 2)
        q = SdpProblem.from_json(p.to_json())
        assert q.to_json() == p.to_json()
        s1 = solve_sdp(p).to_json()
        s2 = solve_sdp(q).to_json()
        assert s1 == s2

    def test_solution_roundtrip(self):
        p = _random_feasible_sdp(np.random.default_rng(4), 4, 5, 1)
        sol = solve_sdp(p)
        back = SdpSolution.from_json(sol.to_json())
        assert back.status == sol.status
        assert np.allclose(back.blocks[0], sol.blocks[0])
        assert back.to_json() == sol.to_json()


# ---------------------------------------------------------------------------
# problem container


def _loop_csr(rows, m, n_cols):
    """A CSR of (index, value) rows built one entry at a time."""
    data, indices, indptr = [], [], [0]
    for row in rows:
        for k, v in row:
            indices.append(k)
            data.append(v)
        indptr.append(len(data))
    return sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr)), shape=(m, n_cols))


def test_arrays_match_the_entry_loop():
    rng = np.random.default_rng(11)
    p = _random_feasible_sdp(rng, 6, 12, nf=3, ns=4)
    p.add_row(free_entries=[(0, 1.0), (2, -0.5)], rhs=1.0)  # free-only
    p.add_row(rhs=0.0)  # empty
    p.add_row([(0, 5, 5, -0.0)], rhs=2.0)  # an explicit signed zero
    for q in (p, SdpProblem()):
        A_psd, A_free, b, _, _ = q.arrays()
        for got, rows, n in ((A_psd, q._rows_psd, q.n_psd), (A_free, q._rows_free, q.n_free)):
            ref = _loop_csr(rows, q.n_rows, n)
            assert got.shape == ref.shape
            for attr in ("data", "indices", "indptr"):
                a, r = getattr(got, attr), getattr(ref, attr)
                assert a.dtype == r.dtype and np.array_equal(a.view(np.uint8), r.view(np.uint8))
        assert np.array_equal(b, np.array(q._rhs))


def test_clear_objective_keeps_rows_and_the_next_solve_sees_only_the_new_objective():
    rng = np.random.default_rng(12)
    p = _random_feasible_sdp(rng, 4, 5, nf=1, ns=2)
    before = p.to_json_dict()
    solve_sdp(p)
    p.clear_objective()
    assert p.to_json_dict() == {**before, "c_psd": [], "c_free": []}
    fresh = SdpProblem.from_json_dict({**before, "c_psd": [], "c_free": []})
    for q in (p, fresh):
        q.set_objective_entry(0, 0, 1, 1.5)
        q.set_objective_entry(1, 0, 0, 2.0)
        q.set_objective_free(0, -0.25)
    assert p.to_json() == fresh.to_json()
    assert solve_sdp(p).to_json() == solve_sdp(fresh).to_json()


# ---------------------------------------------------------------------------
# entry convention


class TestEntryConvention:
    def test_row_functional_counts_each_entry_once(self):
        # 2*G01 = 1 pins the off-diagonal entry at 0.5
        p = SdpProblem()
        g = p.add_block(2)
        p.add_row(psd_entries=[(g, 0, 0, 1.0)], rhs=1.0)
        p.add_row(psd_entries=[(g, 1, 1, 1.0)], rhs=1.0)
        p.add_row(psd_entries=[(g, 0, 1, 2.0)], rhs=1.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert abs(sol.blocks[0][0, 1] - 0.5) <= 1e-7

    def test_lower_triangle_entries_fold_into_upper(self):
        p = SdpProblem()
        g = p.add_block(2)
        r = p.add_row(psd_entries=[(g, 1, 0, 1.0), (g, 0, 1, 1.0)], rhs=1.0)
        assert r == 0
        p.add_row(psd_entries=[(g, 0, 0, 1.0)], rhs=1.0)
        p.add_row(psd_entries=[(g, 1, 1, 1.0)], rhs=1.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert abs(sol.blocks[0][0, 1] - 0.5) <= 1e-7

    def test_objective_matches_trace_inner_product(self):
        rng = np.random.default_rng(5)
        d = 4
        C = rng.standard_normal((d, d))
        C = C + C.T
        p = SdpProblem()
        g = p.add_block(d)
        p.add_row(psd_entries=[(g, i, i, 1.0) for i in range(d)], rhs=1.0)
        iu, ju = np.triu_indices(d)
        for i, j in zip(iu, ju):
            p.set_objective_entry(g, int(i), int(j), float(C[i, j] if i == j else 2 * C[i, j]))
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert np.isclose(sol.objective, np.sum(C * sol.blocks[0]), atol=1e-6)
        # optimum of min <C, X> over trace(X)=1, X psd is the smallest eigenvalue
        assert abs(sol.objective - np.linalg.eigvalsh(C)[0]) <= 1e-6


# ---------------------------------------------------------------------------
# index validation


def _two_blocks():
    p = SdpProblem()
    p.add_block(2)
    p.add_block(3)
    p.add_free("v")
    return p


def _two_blocks_json(**changes):
    p = _two_blocks()
    p.add_row([(0, 0, 0, 1.0)], [(0, 1.0)], rhs=1.0)
    d = p.to_json_dict()
    d.update(changes)
    return d


class TestIndexValidation:
    @pytest.mark.parametrize("block", [-1, -2, 2])
    def test_add_row_rejects_block_outside_range(self, block):
        p = _two_blocks()
        with pytest.raises(IndexError, match="block index"):
            p.add_row([(block, 0, 0, 1.0)])
        assert p.n_rows == 0

    @pytest.mark.parametrize("block", [-1, 2])
    def test_objective_rejects_block_outside_range(self, block):
        p = _two_blocks()
        with pytest.raises(IndexError, match="block index"):
            p.set_objective_entry(block, 0, 0, 1.0)

    @pytest.mark.parametrize("idx", [-1, 1])
    def test_free_indices_checked(self, idx):
        p = _two_blocks()
        with pytest.raises(IndexError, match="free variable"):
            p.add_row(free_entries=[(idx, 1.0)])
        with pytest.raises(IndexError, match="free variable"):
            p.set_objective_free(idx, 1.0)

    @pytest.mark.parametrize("coord", [-1, 9])
    def test_json_rejects_svec_coordinate_outside_range(self, coord):
        with pytest.raises(ValueError, match="svec coordinate"):
            SdpProblem.from_json_dict(_two_blocks_json(rows_psd=[[[coord, 1.0]]]))
        with pytest.raises(ValueError, match="svec coordinate"):
            SdpProblem.from_json_dict(_two_blocks_json(c_psd=[[coord, 1.0]]))

    @pytest.mark.parametrize("idx", [-1, 1])
    def test_json_rejects_free_index_outside_range(self, idx):
        with pytest.raises(ValueError, match="free index"):
            SdpProblem.from_json_dict(_two_blocks_json(rows_free=[[[idx, 1.0]]]))
        with pytest.raises(ValueError, match="free index"):
            SdpProblem.from_json_dict(_two_blocks_json(c_free=[[idx, 1.0]]))

    def test_json_rejects_row_lists_of_unequal_length(self):
        with pytest.raises(ValueError, match="differ in length"):
            SdpProblem.from_json_dict(_two_blocks_json(rows_free=[]))
        with pytest.raises(ValueError, match="differ in length"):
            SdpProblem.from_json_dict(_two_blocks_json(rhs=[1.0, 2.0]))

    @pytest.mark.parametrize("dim, named", [
        (1.5, "must be an integer, got 1.5"),
        (np.float64(2.0), "must be an integer"),
        ("2", "must be an integer, got '2'"),
        (0, "must be >= 1, got 0"),
        (np.int64(-1), "must be >= 1, got -1"),
    ])
    def test_add_block_rejects_a_bad_dimension(self, dim, named):
        p = SdpProblem()
        with pytest.raises(ValueError, match=re.escape(named)):
            p.add_block(dim)
        assert p.block_dims == [] and p.n_psd == 0

    @pytest.mark.parametrize("changes, named", [
        # zip would drop the block without a name
        ({"block_names": ["block0"]}, "block_dims (2) and block_names (1) differ in length"),
        ({"block_names": ["a", "b", "c"]}, "block_dims (2) and block_names (3) differ in length"),
        # int() would make it a 2x2 block
        ({"block_dims": [2.5, 3]}, "block dimension must be an integer, got 2.5"),
    ])
    def test_json_rejects_bad_blocks(self, changes, named):
        with pytest.raises(ValueError, match=re.escape(named)):
            SdpProblem.from_json_dict(_two_blocks_json(**changes))


# ---------------------------------------------------------------------------
# finite input.  A NaN rhs used to escape solve_sdp as scipy's "array must
# not contain infs or NaNs", and an inf coefficient went into the solve
# unnoticed: row equilibration scales its row by 1/inf, and _stall_problem
# with one coefficient set to inf still ended ``optimal``


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("bad", NON_FINITE)
def test_add_row_rejects_non_finite_rhs(bad):
    p = _two_blocks()
    p.add_row([(0, 0, 0, 1.0)], rhs=1.0)
    with pytest.raises(ValueError, match="row 1: rhs is not finite"):
        p.add_row([(0, 0, 0, 1.0)], rhs=bad)
    assert p.n_rows == 1


@pytest.mark.parametrize("bad", NON_FINITE)
def test_add_row_rejects_non_finite_coefficient(bad):
    p = _two_blocks()
    with pytest.raises(ValueError, match=r"row 0: coefficient of block 1 entry \(0,2\) is not finite"):
        p.add_row([(0, 0, 0, 1.0), (1, 0, 2, bad)], rhs=1.0)
    with pytest.raises(ValueError, match="row 0: coefficient of free variable 0 is not finite"):
        p.add_row([(0, 0, 0, 1.0)], [(0, np.float64(bad))], rhs=1.0)
    assert p.n_rows == 0


@pytest.mark.parametrize("bad", NON_FINITE)
def test_objective_rejects_non_finite_coefficient(bad):
    p = _two_blocks()
    with pytest.raises(ValueError, match=r"objective coefficient of block 1 entry \(1,1\)"):
        p.set_objective_entry(1, 1, 1, bad)
    with pytest.raises(ValueError, match="objective coefficient of free variable 0"):
        p.set_objective_free(0, bad)
    assert p.to_json_dict()["c_psd"] == [] and p.to_json_dict()["c_free"] == []


@pytest.mark.parametrize("field, value, named", [
    ("rhs", [float("nan")], "row 0: rhs"),
    ("rows_psd", [[[0, float("inf")]]], "row 0: coefficient of svec coordinate 0"),
    ("rows_free", [[[0, float("-inf")]]], "row 0: coefficient of free variable 0"),
    ("c_psd", [[3, float("nan")]], "objective coefficient of svec coordinate 3"),
    ("c_free", [[0, float("inf")]], "objective coefficient of free variable 0"),
])
def test_json_rejects_non_finite_values(field, value, named):
    # json.dumps writes NaN and Infinity and json.loads reads them back
    text = json.dumps(_two_blocks_json(**{field: value}))
    with pytest.raises(ValueError, match=f"{re.escape(named)} is not finite"):
        SdpProblem.from_json(text)
