"""Tests for the interior-point SDP solver."""

import itertools
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import issynth.sdp as sdp
from issynth.sdp import (
    SdpProblem,
    SdpSolution,
    _SchurRows,
    format_trace,
    smat,
    solve_sdp,
    svec,
    svec_dim,
    svec_indices,
    validate_solution,
)
from issynth.verify import check_infeasibility_certificate


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


class TestScalingProducts:
    """The solver's d x d products against the O(d^4) congruence matrices."""

    @pytest.mark.parametrize("cond", [1.0e1, 1.0e8])
    def test_schur_rows_match_oracle(self, cond, monkeypatch):
        rng = np.random.default_rng(21)
        d = 12
        n = svec_dim(d)
        # every svec coordinate in exactly one row, 1-4 entries per row, as
        # in SOS coefficient matching; plus a few denser rows, which share
        # coordinates with the others, and rows of 1, 2, 3, 8 and 9 entries;
        # (0, 0) is a diagonal entry
        perm = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n), size=n // 2, replace=False))
        rows = [list(part) for part in np.split(perm, cuts)]
        rows += [list(rng.choice(n, size=20, replace=False)) for _ in range(3)]
        rows += [[0], [1, 2], [3, 4, 5], list(range(6, 14)), list(range(14, 23))]
        assert {1, 2, 3, 8, 9, 20} <= {len(r) for r in rows}
        A = sp.csr_matrix(
            (rng.standard_normal(sum(map(len, rows))),
             np.concatenate(rows), np.cumsum([0] + [len(r) for r in rows])),
            shape=(len(rows), n))
        R = _factor_with_condition(rng, d, cond)
        W = R @ R.T
        ref = np.tril(A @ _congruence_matrix(W) @ A.T.toarray())
        m = A.shape[0]

        def added(schur_rows):
            S = np.zeros((m, m))
            schur_rows.add(W, S)
            return S

        whole = _SchurRows(A, d, np.arange(m))
        assert len(whole.chunks) == 1
        S_whole = added(whole)
        assert _rel_err(np.tril(S_whole), ref) <= 1e-12
        # in chunks, each entry of the lower triangle keeps its bits, and
        # nothing is added above the chunks' squares
        monkeypatch.setattr(sdp, "SCHUR_CHUNK", 4 * A.nnz)
        chunked = _SchurRows(A, d, np.arange(m))
        assert len(chunked.chunks) > 5
        S = added(chunked)
        assert np.array_equal(np.tril(S), np.tril(S_whole))
        for *_, at in chunked.chunks:
            assert not S[at, at[-1] + 1:].any()

    @pytest.mark.parametrize("cond", [1.0e1, 1.0e8])
    def test_hinv_and_winv_match_oracle(self, cond):
        rng = np.random.default_rng(22)
        d = 9
        R = _factor_with_condition(rng, d, cond)
        Rinv = np.linalg.inv(R)
        K = _congruence_matrix(R)
        J = _congruence_matrix(Rinv.T)
        one = sdp._BlockClass(d, [0], [0])
        for _ in range(3):
            S = rng.standard_normal((d, d))
            S = S + S.T
            v = svec(S)
            assert _rel_err(one.hinv(R[None], v)[0], K @ (K.T @ v)) <= 1e-12
            assert _rel_err(one.winv(Rinv[None], S[None])[0], J @ v) <= 1e-12


def _pd_stack(rng, k, d, cond):
    """k random positive definite d x d matrices, each of condition number cond."""
    Q = np.linalg.qr(rng.standard_normal((k, d, d)))[0]
    ev = np.logspace(0.0, -np.log10(cond), d) * rng.uniform(0.5, 2.0, (k, 1))
    return (Q * ev[:, None, :]) @ Q.mT


def _sym_stack(rng, k, d):
    S = rng.standard_normal((k, d, d))
    return S + S.mT


CLASS_SHAPES = list(itertools.product([1, 3, 7], [2, 3, 9]))


class TestStackedClasses:
    """A class of k blocks of dimension d, slice by slice against the
    one-block references."""

    @pytest.mark.parametrize("k, d", CLASS_SHAPES)
    def test_scaling_per_slice(self, k, d):
        rng = np.random.default_rng(10 * k + d)
        X, Z = _pd_stack(rng, k, d, 1e4), _pd_stack(rng, k, d, 1e4)
        sc = sdp._Scaling(X, Z)
        for i in range(k):
            W, lam = sc.R[i] @ sc.R[i].T, np.diag(sc.lam[i])
            assert _rel_err(W @ Z[i] @ W, X[i]) <= 1e-12
            assert _rel_err(sc.Rinv[i] @ X[i] @ sc.Rinv[i].T, lam) <= 1e-12
            assert _rel_err(sc.R[i].T @ Z[i] @ sc.R[i], lam) <= 1e-12

    @pytest.mark.parametrize("k, d", CLASS_SHAPES)
    def test_svec_hinv_and_winv_per_slice(self, k, d):
        rng = np.random.default_rng(20 * k + d)
        n = svec_dim(d)
        # the blocks' columns out of order and apart in a longer vector
        starts = list(3 + (n + 2) * rng.permutation(k))
        cl = sdp._BlockClass(d, list(range(k)), starts)
        v = rng.standard_normal(3 + (n + 2) * k)
        U = _sym_stack(rng, k, d)
        R = np.stack([_factor_with_condition(rng, d, 1e4) for _ in range(k)])
        Rinv = np.linalg.inv(R)
        S, H, Wi = cl.smat(v), cl.hinv(R, v), cl.winv(Rinv, U)
        for i, s in enumerate(starts):
            vi = v[s:s + n]
            assert _same_array_bits(S[i], smat(vi, d))
            assert _same_array_bits(cl.svec(U)[i], svec(U[i]))
            K, J = _congruence_matrix(R[i]), _congruence_matrix(Rinv[i].T)
            assert _rel_err(H[i], K @ (K.T @ vi)) <= 1e-12
            assert _rel_err(Wi[i], J @ svec(U[i])) <= 1e-12

    @pytest.mark.parametrize("k, d", CLASS_SHAPES)
    def test_step_length_per_slice(self, k, d):
        rng = np.random.default_rng(30 * k + d)
        X, Z = _pd_stack(rng, k, d, 1e4), _pd_stack(rng, k, d, 1e4)
        sc = sdp._Scaling(X, Z)
        for M, L_inv in ((X, sc.Lx_inv), (Z, sc.Lz_inv)):
            D = _sym_stack(rng, k, d)
            # the smallest eigenvalue of the pencil (D_i, M_i) over the blocks
            w = min(sla.eigh(D[i], M[i], eigvals_only=True)[0] for i in range(k))
            assert w < 0.0
            assert abs(sdp._max_step_psd(L_inv, D) + 1.0 / w) <= 1e-10 / abs(w)
            # no block limits a step along PSD directions
            assert sdp._max_step_psd(L_inv, _pd_stack(rng, k, d, 1e2)) == np.inf


def _random_class_sdp(rng):
    """Strictly feasible: five 2x2, two 3x3 and one 6x6 block in mixed order,
    four nonnegative coordinates and a free variable, the rhs evaluated at
    an interior point and a positive definite objective."""
    dims = [2, 3, 2, 2, 6, 2, 1, 1, 3, 2, 1, 1]
    p = SdpProblem()
    blocks = [p.add_block(d) for d in dims]
    v = p.add_free("v")
    X0 = [_pd_stack(rng, 1, d, 10.0)[0] for d in dims]
    v0 = rng.standard_normal()
    for r in range(30):
        entries = []
        for b in rng.choice(len(dims), size=2, replace=False):
            i, j = sorted(rng.integers(0, dims[b], size=2))
            entries.append((blocks[b], int(i), int(j), float(rng.standard_normal())))
        fe = [(v, float(rng.standard_normal()))] if r % 3 == 0 else []
        rhs = sum(c * X0[b][i, j] for b, i, j, c in entries) + sum(c * v0 for _, c in fe)
        p.add_row(entries, fe, rhs)
    for b, d in zip(blocks, dims):
        C = _pd_stack(rng, 1, d, 10.0)[0]
        for i, j in zip(*np.triu_indices(d)):
            p.set_objective_entry(b, int(i), int(j), float(C[i, j] if i == j else 2 * C[i, j]))
    return p


def _classes_of(p, monkeypatch):
    """(d, blocks) of each class solve_sdp forms for p, and how often it
    calls _Scaling and _max_step_psd in one iteration."""
    made, calls = [], {"_Scaling": 0, "_max_step_psd": 0}

    class Kept(sdp._BlockClass):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    def counted(name):
        real = getattr(sdp, name)

        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    with monkeypatch.context() as mp:
        mp.setattr(sdp, "_BlockClass", Kept)
        for name in calls:
            mp.setattr(sdp, name, counted(name))
        solve_sdp(p, 1)
    return [(cl.d, cl.blocks) for cl in made], calls


def test_random_classes_end_optimal(monkeypatch):
    p = _random_class_sdp(np.random.default_rng(12))
    classes, calls = _classes_of(p, monkeypatch)
    assert classes == [(2, [0, 2, 3, 5, 9]), (3, [1, 8]), (6, [4])]
    # one scaling and four step-length tests per class and iteration
    assert calls == {"_Scaling": 3, "_max_step_psd": 12}
    sol = solve_sdp(p)
    assert sol.status == "optimal", sol.message
    assert validate_solution(p, sol)["ok"]
    assert [B.shape for B in sol.blocks] == [(d, d) for d in p.block_dims]


def test_fit_forms_three_classes(monkeypatch):
    # the max-det fit: the 14-block, 30 multipliers, the 12-block of the
    # log det and the seven 2x2 blocks of its geometric-mean tree
    from issynth.consistency import _add_logdet

    p = _fit_plan_problem()
    _add_logdet(p, 2, 6, 1e-6)
    classes, calls = _classes_of(p, monkeypatch)
    assert classes == [(14, [0]), (12, [31]), (2, list(range(32, 39)))]
    assert calls == {"_Scaling": 3, "_max_step_psd": 12}


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
        # the ray of the elimination: v = 2 minus v = 1 reads 0 = 1
        assert sol.y.tolist() == [-1.0, 1.0]
        assert check_infeasibility_certificate(p, sol.y).passed

    @pytest.mark.parametrize("rhs, status", [(0.0, "optimal"), (1.0, "infeasible")])
    def test_empty_row(self, rhs, status):
        # a row with no entries is eliminated with the free-only rows: 0 = 0
        # leaves the problem as it was and gets dual 0, 0 = 1 is infeasible
        # before any iteration, and the message names no free variable the
        # problem does not have
        p = SdpProblem()
        g = p.add_block(2)
        p.add_row(psd_entries=[(g, 0, 0, 1.0), (g, 1, 1, 1.0)], rhs=2.0)
        p.add_row(rhs=rhs)
        p.set_objective_entry(g, 0, 0, 1.0)
        sol = solve_sdp(p)
        assert sol.status == status
        if status == "optimal":
            assert sol.objective == pytest.approx(0.0, abs=1e-6)
            assert sol.y[1] == 0.0
            assert validate_solution(p, sol)["ok"]
        else:
            assert sol.iterations == 0
            assert "inconsistent" in sol.message
            assert "free variable" not in sol.message
            assert sol.y.tolist() == [0.0, 1.0]
            assert check_infeasibility_certificate(p, sol.y).passed

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


def _free_only_problem():
    # min v subject to v = 2: no blocks, one free variable
    p = SdpProblem()
    v = p.add_free("v")
    p.add_row(free_entries=[(v, 1.0)], rhs=2.0)
    p.set_objective_free(v, 1.0)
    return p


def test_validate_solution_checks_a_problem_without_blocks():
    p = _free_only_problem()
    sol = solve_sdp(p)
    assert sol.status == "optimal" and sol.free.tolist() == [2.0]
    val = validate_solution(p, sol)
    assert val["checked"] and val["ok"], val
    wrong = SdpSolution(status="feasible", objective=3.0, free=np.array([3.0]))
    assert not validate_solution(p, wrong)["ok"]
    # a solution without the problem's blocks is not checked
    q = _free_only_problem()
    q.add_block(2)
    assert validate_solution(q, sol) == {"status": "optimal", "checked": False}


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
    # a non-integer count is named before any iteration, NaN included
    for bad in (2.5, float("nan"), 3.0, "3"):
        message = f"max_iter must be an integer >= 1, got {re.escape(repr(bad))}"
        with pytest.raises(ValueError, match=message):
            solve_sdp(_stall_problem(), max_iter=bad)


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




class _RatioFrom:
    """INFEAS_RATIO stand-in: ``tau <= ratio * kappa`` holds from the k-th test on."""

    def __init__(self, k):
        self.hits = _from_call(k, lambda: 0.0, lambda: np.inf)

    def __mul__(self, kappa):
        return self.hits()


# each stall forced at iteration k of _stall_problem: one 8x8 block, 10 rows
# touching it and 2 free variables, so per iteration one class of one block,
# with one scaling (_Scaling) and four step-length tests (_max_step_psd: X
# and Z, predictor and corrector), a 10x10 Schur complement (one _cholesky
# call) and a 2x2 free-variable Schur factor.  OpenBLAS's potrf returns a
# NaN factor for a NaN Schur complement rather than raising, and the
# triangular solves (_solve_lower) pass it on into the directions:
# "non-finite direction" is forced by such a factor
STALLS = {
    "tau collapsed without clean certificate":
        lambda mp, k: mp.setattr(sdp, "INFEAS_RATIO", _RatioFrom(k)),
    "iterate left the cone":
        lambda mp, k: mp.setattr(sdp, "_Scaling", _from_call(k, sdp._Scaling, _fail)),
    "Schur complement factorization failed":
        lambda mp, k: mp.setattr(sdp, "_cholesky", _from_call(k, sdp._cholesky, _fail)),
    "non-finite direction":
        lambda mp, k: mp.setattr(sdp, "_cholesky", _from_call(
            k, sdp._cholesky, lambda M: np.full(M.shape, np.nan))),
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
    # the free-variable Schur factor is the R of a QR, which returns NaN
    # for a NaN matrix rather than raising; numpy's QR call k is iteration
    # k's, since the rank check of the free columns is scipy's pivoted QR
    p = _stall_problem()
    real = np.linalg.qr
    nan = _from_call(3, real, lambda G, mode: np.full((G.shape[1],) * 2, np.nan))
    monkeypatch.setattr(np.linalg, "qr", lambda G, mode="reduced": nan(G, mode))
    sol = solve_sdp(p)
    assert (sol.iterations, sol.message) == (3, "non-finite direction")
    _validated_label(p, sol)


# ---------------------------------------------------------------------------
# direct LAPACK calls: the bits of scipy's wrappers


def _same_array_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_solve_lower_matches_scipy():
    rng = np.random.default_rng(1)
    # C-ordered Cholesky factors, as _cholesky gives the solver; 72 and 697:
    # the fits' Schur complement and step V's largest component
    for n, transposed in itertools.product((1, 2, 7, 40, 72, 697), (False, True)):
        trans = "T" if transposed else "N"
        G = rng.standard_normal((n, n))
        L = sdp._cholesky(G @ G.T + n * np.eye(n))
        # and R_F^T for the upper R_F of a QR, C-ordered as numpy gives it:
        # trtrs then gets R_F in Fortran order, as scipy's wrapper passes it
        # for an upper Fortran-ordered R_F and the flipped transpose
        R = np.linalg.qr(rng.standard_normal((n + 3, n)), mode="r")
        T = rng.standard_normal((n, n))
        for B in (np.eye(n), T, T.T, rng.standard_normal(n)):
            assert _same_array_bits(sdp._solve_lower(L, B, transposed),
                                    sla.solve_triangular(L, B, lower=True, trans=trans))
            assert _same_array_bits(sdp._solve_lower(R.T, B, transposed),
                                    sla.solve_triangular(np.asfortranarray(R), B, lower=False,
                                                         trans="N" if transposed else "T"))
    singular = np.array([[1.0, 0.0], [1.0, 0.0]])
    for transposed, trans in ((False, "N"), (True, "T")):
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            sdp._solve_lower(singular, np.ones(2), transposed)
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            sla.solve_triangular(singular, np.ones(2), lower=True, trans=trans)


def test_cholesky_matches_numpy():
    rng = np.random.default_rng(2)
    # 72 and 697: the fits' Schur complement and step V's largest component
    for n in (1, 2, 7, 40, 72, 697):
        G = rng.standard_normal((n, n))
        M = G @ G.T + n * np.eye(n)
        L = sdp._cholesky(M)
        ref = np.linalg.cholesky(M)
        assert L.flags.c_contiguous and np.array_equal(L, np.tril(L))
        assert _rel_err(L, ref) <= 1e-14
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        sdp._cholesky(np.diag([1.0, -1.0, 2.0]))


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
    7 and 9 (row 3 touches both), so their positions in the component
    interleave.  X_A = X_B = I, v = 0 is feasible.
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
    components = sdp._components

    def joined(m, rows, groups):
        return components(m, np.concatenate([rows, np.arange(m)]),
                          np.concatenate([groups, np.full(m, groups.max() + 1)]))

    with monkeypatch.context() as mp:
        if one_component:
            mp.setattr(sdp, "_components", joined)
        sol, [plan] = _plans_of(mp, lambda: solve_sdp(p, max_iter))
    return sol, plan


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


def test_block_terms_sum_to_ix_scatter(monkeypatch):
    # each block's term adds straight into the component at its rows'
    # positions, which interleave; the sum must be, bit for bit, that of an
    # np.ix_ scatter of each term formed alone, in the same block order.
    # Rows 0, 1, 5, 6 and 8 touch only block A, half the component, so they
    # come first and the component is factored bordered; the rest follow,
    # ascending, and row 3, which touches both blocks, borders them
    p = _interleaved_problem()
    made = []
    schur_rows = sdp._SchurRows

    class Recorded(schur_rows):
        def __init__(self, A_blk, d, loc):
            super().__init__(A_blk, d, loc)
            self.alone = schur_rows(A_blk, d, np.arange(len(loc))), loc

        def add(self, W, Mc):
            super().add(W, Mc)
            alone, loc = self.alone
            S = np.zeros((len(loc), len(loc)))
            alone.add(W, S)
            made.append((loc, S))

    monkeypatch.setattr(sdp, "_SchurRows", Recorded)
    _, plan = _solve_keeping_plan(p, monkeypatch, max_iter=1)
    assert [r.tolist() for r in plan.rows] == [[0, 1, 5, 6, 8, 2, 3, 4, 7, 9]]
    [border] = plan.borders
    assert (border.p, border.at.tolist()) == (5, [1])
    assert [loc.tolist() for loc, _ in made] == [[0, 1, 2, 3, 4, 6], [5, 6, 7, 8, 9]]
    ref = np.zeros_like(plan.mats[0])
    for loc, S in made:
        ref[np.ix_(loc, loc)] += S
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
            # M^-1 g = L^-T (L^-1 g)
            got = plan.solve_lower(factors, plan.solve_lower(factors, g, False), True)
            assert _rel_err(got, ref) <= 1e-10


def test_plan_solve_lower_with_singleton_rows():
    # rows 0 and 1 share coordinate 0, so they form one component; rows 2
    # and 3 share nothing and are singletons, whose factor is sqrt(diag).
    # L^-1 g and L^-T g of a vector and of a matrix g against the dense
    # Cholesky factor of the assembled M
    A = sp.csr_matrix(np.array([[1.0, 2.0, 0.0, 0.0, 0.0],
                                [3.0, 0.0, 1.0, 0.0, 0.0],
                                [0.0, 0.0, 0.0, 2.0, 0.0],
                                [0.0, 0.0, 0.0, 0.0, 0.5]]))
    plan = sdp._SchurPlan(A, np.arange(5), [])
    assert [r.tolist() for r in plan.rows] == [[0, 1]] and plan.singles.tolist() == [2, 3]
    w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    plan.build([], w)
    M = (A.toarray() * w) @ A.toarray().T
    factors, jitter = plan.factor()
    assert jitter == 0.0
    assert np.array_equal(factors[1], np.sqrt(plan.diag))
    L = np.linalg.cholesky(M)
    rng = np.random.default_rng(3)
    for g in (rng.standard_normal(4), rng.standard_normal((4, 3))):
        for transposed, trans in ((False, "N"), (True, "T")):
            got = plan.solve_lower(factors, g, transposed)
            assert got.shape == g.shape
            assert _rel_err(got, sla.solve_triangular(L, g, lower=True, trans=trans)) <= 1e-14
            d = np.sqrt(np.diag(M)[2:])
            assert np.array_equal(got[2:], g[2:] / (d if g.ndim == 1 else d[:, None]))


# ---------------------------------------------------------------------------
# bordered factorization of a component its lead block's own rows dominate


def _plans_of(monkeypatch, call):
    """``call()``'s result and every _SchurPlan it built, in order."""
    made = []

    class Kept(sdp._SchurPlan):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with monkeypatch.context() as mp:
        mp.setattr(sdp, "_SchurPlan", Kept)
        out = call()
    return out, made


@pytest.fixture(scope="module")
def khalil_step_plans():
    """The Schur plans of the benchmark experiment's ellipsoid fit (x0 =
    (0.5, -0.5), T = 30, d_radius 0.05, collection seed 0) and of its
    step V with k = -x1 - x2, after one iteration."""
    from issynth.consistency import build_data_matrices, solve_overapprox
    from issynth.poly import parse_poly
    from issynth.simulate import ExperimentConfig, collect_dataset, khalil_system
    from issynth.synthesis import SynthesisConfig, assemble_theorem1

    sys = khalil_system()
    exp = ExperimentConfig(T=30, sample_spacing=0.05, u_bound=1.0, d_radius=0.05,
                           x0=(0.5, -0.5), seed=0)
    data = build_data_matrices(collect_dataset(sys, exp))
    with pytest.MonkeyPatch.context() as mp:
        ell, fits = _plans_of(mp, lambda: solve_overapprox(data, bases=sys.bases))
        k = parse_poly("-x1 - x2", sys.bases.vars)
        prog, _ = assemble_theorem1(ell, SynthesisConfig(k_init=(k,)), {"k": [k]})
        _, [step_v] = _plans_of(mp, lambda: solve_sdp(prog.compile()[0], 1))
    return fits, step_v


def test_step_v_component_is_factored_bordered(khalil_step_plans):
    # the 44-block's 584 rows and the 24-block's 178 share 65: the 519 the
    # 44-block has alone come first, then the 178, of which 65 border them.
    # The 15- and 5-blocks' components have no rest rows and stay whole
    _, plan = khalil_step_plans
    assert [len(r) for r in plan.rows] == [697, 12, 70]
    border, *whole = plan.borders
    assert whole == [None, None]
    assert (border.p, len(border.at)) == (519, 65)
    rows = plan.rows[0]
    assert np.all(np.diff(rows[:519]) > 0) and np.all(np.diff(rows[519:]) > 0)
    assert all(np.all(np.diff(r) > 0) for r in plan.rows[1:])


def test_khalil_step_fit_component_stays_whole(khalil_step_plans):
    # 36 of the fit's 143 rows are its 14-block's alone, a minority: one
    # dense factor, rows ascending, as before the bordered factorization
    fits, _ = khalil_step_plans
    assert fits
    for plan in fits:
        assert [r.tolist() for r in plan.rows] == [list(range(143))]
        assert plan.borders == [None]


def _bordered_problem_plan(rng):
    """A plan of one 60-row component, rows shuffled: 40 rows touch only a
    9-block, 10 touch it and a 6-block, and 10 touch the 6-block and a
    nonnegative coordinate; built for random scalings."""
    dims, n_lp, m = (9, 6), 4, 60
    widths = [svec_dim(d) for d in dims]
    offsets = np.cumsum([n_lp] + widths)
    A = np.zeros((m, offsets[-1]))
    for i in range(m):
        if i < 50:
            A[i, offsets[0] + rng.choice(widths[0], size=6, replace=False)] = rng.standard_normal(6)
        if i >= 40:
            A[i, offsets[1] + rng.choice(widths[1], size=3, replace=False)] = rng.standard_normal(3)
        if i >= 50:
            A[i, rng.integers(n_lp)] = rng.standard_normal()
    A = A[rng.permutation(m)]
    plan = sdp._SchurPlan(sp.csr_matrix(A), np.arange(n_lp),
                          [(slice(o, o + width), d) for o, width, d in zip(offsets, widths, dims)])
    plan.build([_factor_with_condition(rng, d, 10.0) for d in dims],
               10.0 ** rng.uniform(-1.0, 1.0, n_lp))
    return plan


def test_bordered_factor_matches_dense_solves():
    # the pieces make the Cholesky factor of the component in its order, so
    # L^-1 g and L^-T g match the dense factor's, and L^-T (L^-1 g) = M^-1 g
    rng = np.random.default_rng(6)
    plan = _bordered_problem_plan(rng)
    [rows] = plan.rows
    [border] = plan.borders
    assert border.p == 40 and len(border.at) == 10
    # the plan forms the lower triangle in the component's order
    Mc = np.tril(plan.mats[0]) + np.tril(plan.mats[0], -1).T
    M = np.empty_like(Mc)
    M[np.ix_(rows, rows)] = Mc
    L = np.linalg.cholesky(Mc)
    factors, jitter = plan.factor()
    assert jitter == 0.0
    for g in (rng.standard_normal(60), rng.standard_normal((60, 4))):
        for transposed, trans in ((False, "N"), (True, "T")):
            got = plan.solve_lower(factors, g, transposed)
            ref = sla.solve_triangular(L, g[rows], lower=True, trans=trans)
            assert got.shape == g.shape
            assert _rel_err(got[rows], ref) <= 1e-10
        got = plan.solve_lower(factors, plan.solve_lower(factors, g, False), True)
        assert _rel_err(got, np.linalg.solve(M, g)) <= 1e-10


def test_cholesky_into_factors_in_place():
    # the buffer is the factor, its lower triangle bit for bit _cholesky's
    rng = np.random.default_rng(7)
    for n in (1, 5, 72):
        G = rng.standard_normal((n, n))
        M = G @ G.T + n * np.eye(n)
        out = np.empty((n, n))
        L = sdp._cholesky_into(out, M)
        assert np.shares_memory(L, out) and L.flags.c_contiguous
        assert np.array_equal(np.tril(L), sdp._cholesky(M))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        sdp._cholesky_into(np.empty((3, 3)), np.diag([1.0, -1.0, 2.0]))


@pytest.mark.parametrize("piece", [0, 1])
def test_failed_bordered_piece_is_shifted_once(piece, monkeypatch):
    # the interleaved problem's component is factored bordered; failing the
    # first factorization of M11 (piece 0) or of M22 - X^T X (piece 1)
    # retries that piece once, on its own diagonal shifted by
    # max(1e-14 * its mean diagonal, 1e-14), which the trace records
    into = sdp._cholesky_into
    calls = []

    def fail_once(out, M):
        calls.append(M.copy())
        if len(calls) == piece + 1:
            raise np.linalg.LinAlgError("forced")
        return into(out, M)

    monkeypatch.setattr(sdp, "_cholesky_into", fail_once)
    sol = solve_sdp(_interleaved_problem())
    monkeypatch.undo()
    assert sol.status == "optimal", sol.message
    failed, retried = calls[piece], calls[piece + 1]
    assert [len(c) for c in calls[:3]] == [5, 5, 5]
    jitter = sol.trace[0]["jitter"]
    assert jitter == max(np.diag(failed).sum() / 5 * 1e-14, 1e-14)
    assert np.array_equal(retried, failed + jitter * np.eye(5))
    assert all(e["jitter"] == 0.0 for e in sol.trace[1:-1])


def test_bordered_factorization_fails_after_one_shift(monkeypatch):
    # an M11 that fails shifted too stops the solve, as a whole component does
    calls = []

    def fail(out, M):
        calls.append(M.copy())
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(sdp, "_cholesky_into", fail)
    sol = solve_sdp(_interleaved_problem())
    assert (sol.iterations, sol.message) == (1, "Schur complement factorization failed")
    assert len(calls) == 2
    assert np.array_equal(calls[1], calls[0] + sol.trace[0]["jitter"] * np.eye(5))


def _congruence_by_smat(W):
    """The matrix of v -> svec(W smat(v) W), one column per svec coordinate."""
    d = len(W)
    return np.column_stack([svec(W @ smat(e, d) @ W) for e in np.eye(svec_dim(d))])


@pytest.mark.parametrize("chunk", [sdp.SCHUR_CHUNK, 64])
def test_build_matches_dense_schur_complement(chunk, monkeypatch):
    # rows of up to 10 entries per block that share coordinates, as step V at
    # deg_V = 4 and general programs have, over a 6- and a 9-block and eight
    # nonnegative coordinates; and one more row that alone touches a 3-block
    # and two more coordinates, so its diagonal gets the block's term through
    # a 1x1 view and the cone's term as a singleton.  M = sum_b A_b (W_b (x)s
    # W_b) A_b^T + A_lp diag(w) A_lp^T, of which build forms the lower triangle
    monkeypatch.setattr(sdp, "SCHUR_CHUNK", chunk)
    rng = np.random.default_rng(5)
    dims, n_lp, m = (6, 9, 3), 10, 60
    widths = [svec_dim(d) for d in dims]
    offsets = np.cumsum([n_lp] + widths)
    A = np.zeros((m + 1, offsets[-1]))
    for i in range(m):
        for b, width in enumerate(widths[:2]):
            if rng.random() < 0.6:
                k = int(rng.integers(1, 11))
                A[i, offsets[b] + rng.choice(width, size=k, replace=False)] = rng.standard_normal(k)
        if rng.random() < 0.3 or not A[i].any():
            A[i, rng.integers(n_lp - 2)] = rng.standard_normal()
    A[m, [n_lp - 2, n_lp - 1, offsets[2], offsets[2] + 4]] = rng.standard_normal(4)
    Rs = [_factor_with_condition(rng, d, 1e4) for d in dims]
    w = 10.0 ** rng.uniform(-3.0, 3.0, n_lp)
    plan = sdp._SchurPlan(sp.csr_matrix(A), np.arange(n_lp),
                          [(slice(o, o + width), d) for o, width, d in zip(offsets, widths, dims)])
    assert plan.singles.tolist() == [m]
    if chunk == 64:
        assert all(len(rows.chunks) > 3 for _, rows, _ in plan.blocks[:2])
    plan.build(Rs, w)
    ref = A[:, :n_lp] * w @ A[:, :n_lp].T
    for o, width, R in zip(offsets, widths, Rs):
        A_b = A[:, o:o + width]
        ref += A_b @ _congruence_by_smat(R @ R.T) @ A_b.T
    assert _rel_err(np.tril(_assembled(plan)), np.tril(ref)) <= 1e-12
    assert abs(plan.diag[0] - ref[m, m]) <= 1e-12 * ref[m, m]


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


def test_free_columns_are_the_programs_own_after_substitution():
    # the free-only row v0 + v1 = 1 fixes v0 = 1 - v1, which is substituted
    # into row 1 and the objective 3 v0; the other free columns keep their
    # own entries, unrotated, and v0's column is gone from the kept rows
    p = SdpProblem()
    g = p.add_block(3)
    v = [p.add_free() for _ in range(4)]
    p.add_row(free_entries=[(v[0], 1.0), (v[1], 1.0)], rhs=1.0)
    p.add_row([(g, 0, 0, 1.0)], [(v[0], 1.0), (v[2], 1.0)])
    p.add_row([(g, 1, 1, 1.0)], [(v[1], 1.0), (v[3], -1.0)])
    p.add_row([(g, 2, 2, 1.0)], [(v[2], 2.0), (v[3], 1.0)], rhs=1.0)
    p.set_objective_free(v[0], 3.0)
    pre = sdp._Preprocessed(p)
    assert (pre.piv_rows.tolist(), pre.piv_cols.tolist()) == ([0], [0])
    assert pre.free_cols.tolist() == [1, 2, 3]
    unscaled = pre.A_free / pre.row_scale[:, None]
    assert np.allclose(unscaled, [[-1.0, 1.0, 0.0], [1.0, 0.0, -1.0], [0.0, 2.0, 1.0]],
                       rtol=1e-15, atol=0.0)
    assert np.allclose(pre.b / pre.row_scale, [-1.0, 0.0, 1.0], rtol=1e-15, atol=0.0)
    assert pre.c_free.tolist() == [-3.0, 0.0, 0.0] and pre.obj_const == 3.0
    assert pre.A_free.flags.c_contiguous
    # v0 back-substituted through its pivot row
    assert pre.recover_free(np.array([0.25, 2.0, -1.0])).tolist() == [0.75, 0.25, 2.0, -1.0]


def test_pivot_rows_get_duals_that_close_the_free_equations():
    # the free variables' dual equations A_free^T y = c_free hold for the
    # recovered y of every row, pivot rows included.  v1 pivots on row 2,
    # its largest entry, v2 then on row 1, and row 0 is left as 0 = 0: an
    # empty free-only row, whose dual is 0
    p = SdpProblem()
    g = p.add_block(2)
    v1, v2 = p.add_free("v1"), p.add_free("v2")
    p.add_row(free_entries=[(v1, 1.0), (v2, 1.0)], rhs=3.0)
    p.add_row(free_entries=[(v1, 1.0), (v2, -1.0)], rhs=1.0)
    p.add_row(free_entries=[(v1, 2.0), (v2, 2.0)], rhs=6.0)
    p.add_row(psd_entries=[(g, 0, 0, 1.0)], free_entries=[(v1, -1.0)])
    p.add_row(psd_entries=[(g, 1, 1, 1.0)], free_entries=[(v2, -1.0)])
    p.add_row(psd_entries=[(g, 0, 1, 2.0)], rhs=1.0)
    p.set_objective_entry(g, 0, 0, 1.0)
    p.set_objective_free(v1, 0.5)
    pre = sdp._Preprocessed(p)
    assert (pre.piv_rows.tolist(), pre.piv_cols.tolist()) == ([2, 1], [0, 1])
    assert pre.free_cols.tolist() == [] and not pre.inconsistent
    sol = solve_sdp(p)
    assert sol.status == "optimal"
    assert np.allclose(sol.free, [2.0, 1.0], atol=1e-6)
    _, A_free, _, _, c_free = p.arrays()
    assert np.abs(A_free.T @ sol.y - c_free).max() <= 1e-12
    assert sol.y[0] == 0.0 and sol.y[1] != 0.0 and sol.y[2] != 0.0


def test_infeasible_ray_gives_the_free_only_rows_their_duals():
    # tr X + v = -1 with v = 0 pinned by a free-only row: the ray's free
    # part vanishes only with the pivot row's dual, recovered with c dropped
    from test_verify import textbook_infeasible_sdp
    from issynth.verify import check_infeasibility_certificate

    p = textbook_infeasible_sdp()
    p.set_objective_free(0, 1.0)
    sol = solve_sdp(p)
    assert sol.status == "infeasible", sol.message
    assert sol.y[1] != 0.0
    assert check_infeasibility_certificate(p, sol.y).passed


def test_free_directions_no_row_sees_are_dropped_or_unbounded():
    # v0 + v1 + v2 is the only free direction the two rows see, so the
    # free-variable Schur complement would be singular (rank 1 of 3, with
    # fewer rows than free variables); the other two directions are dropped,
    # and a cost along one of them makes the problem unbounded
    def problem(cost):
        p = SdpProblem()
        g = p.add_block(2)
        v = [p.add_free() for _ in range(3)]
        p.add_row([(g, 0, 0, 1.0)], [(i, 1.0) for i in v], rhs=1.0)
        p.add_row([(g, 1, 1, 1.0)], [(i, 1.0) for i in v], rhs=2.0)
        p.set_objective_entry(g, 0, 0, 1.0)
        p.set_objective_entry(g, 1, 1, 1.0)
        for i, c in zip(v, cost):
            p.set_objective_free(i, c)
        return p

    assert sdp._Preprocessed(problem((0.0, 0.0, 0.0))).A_free.shape == (2, 1)
    # min (1 - s) + (2 - s) with 1 - s >= 0, s = v0 + v1 + v2: s = 1
    sol = solve_sdp(problem((0.0, 0.0, 0.0)))
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(1.0, abs=1e-6)
    assert sol.free.sum() == pytest.approx(1.0, abs=1e-6)
    assert solve_sdp(problem((1.0, -1.0, 0.0))).status == "unbounded"


# ---------------------------------------------------------------------------
# the plan's LP Schur term against scipy's


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
    matrix what scipy's A_lp diag(w) A_lp^T adds, in the lower triangle and
    within the forward error of dot products of K = A_lp.shape[1] terms:
    |got - ref| <= K eps (|A_lp| diag(w) |A_lp|^T) + 4 eps |ref|."""
    plan = _lp_plan(A_lp, block_rows)
    A_csr = A_lp.tocsr()
    eps = np.finfo(float).eps
    rng = np.random.default_rng(0)
    for _ in range(draws):
        w = 10.0 ** rng.uniform(-6.0, 6.0, A_lp.shape[1])
        plan.flat[:] = rng.standard_normal(plan.flat.shape)
        ref = _assembled(plan)
        plan.add_lp(w)
        ref += (A_csr @ sp.diags(w) @ A_csr.T).toarray()
        bound = (A_lp.shape[1] * eps * (abs(A_csr) @ sp.diags(w) @ abs(A_csr).T).toarray()
                 + 4.0 * eps * np.abs(ref))
        if np.any(np.tril(np.abs(_assembled(plan) - ref) - bound) > 0.0):
            return False
    return True


def _random_lp_matrix(rng, mask):
    """CSC values of wide dynamic range on the pattern ``mask``."""
    vals = rng.standard_normal(mask.shape) * 10.0 ** rng.uniform(-3.0, 3.0, mask.shape)
    return sp.csc_matrix(np.where(mask, vals, 0.0))


def _group_shapes(plan):
    """(K, r) of each multi-row component's LP group."""
    return sorted(vals.shape for vals, *_ in plan.lp_groups)


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
    assert _group_shapes(plan) == [(30, 36)]
    assert _lp_term_matches_scipy(A_lp, block_rows)


def test_fit_lp_rows_form_one_group_inside_their_component(monkeypatch):
    # rows 0-35 carry the multipliers, rows 36-71 only the matrix block:
    # those are half the component, so they come first, the multiplier
    # rows sit at positions 36-71 and all of them border the block's own
    _, plan = _solve_keeping_plan(_fit_plan_problem(), monkeypatch, max_iter=1)
    assert [r.tolist() for r in plan.rows] == [list(range(36, 72)) + list(range(36))]
    assert not len(plan.singles)
    [border] = plan.borders
    assert (border.p, border.at.tolist()) == (36, list(range(36)))
    [(vals, coords, Mc, at)] = plan.lp_groups
    assert vals.shape == (30, 36) and Mc.shape == (72, 72)
    assert [a.ravel().tolist() for a in at] == [list(range(36, 72))] * 2


def test_lp_term_of_single_row_groups_matches_scipy_bits():
    # step V's pattern: each coordinate touches one row, so every LP row is
    # a singleton, of one to eleven coordinates
    rng = np.random.default_rng(2)
    mask = np.zeros((9, 20), bool)
    for k in range(5):
        mask[k, k] = True
    mask[5, 5:7] = mask[6, 7:9] = True
    mask[7, 9:21] = True
    A_lp = _random_lp_matrix(rng, mask)
    plan = _lp_plan(A_lp)
    assert _group_shapes(plan) == [] and plan.rows == []
    assert _lp_term_matches_scipy(A_lp)
    assert _lp_term_matches_scipy(A_lp[[7]])


def test_lp_term_of_mixed_groups_matches_scipy_bits():
    # components of several shapes, dense and not, and two singleton rows,
    # with rows and coordinates shuffled
    rng = np.random.default_rng(3)
    chain = np.eye(5, 6, dtype=bool) | np.eye(5, 6, 1, dtype=bool)  # not dense
    parts = [np.ones((3, 4), bool)] * 3 + [np.ones((1, 1), bool)] * 2 + [
        chain, np.ones((12, 10), bool), np.array([[1, 1, 0], [0, 1, 1]], bool)]
    mask = sla.block_diag(*parts).astype(bool)
    mask = mask[rng.permutation(mask.shape[0])][:, rng.permutation(mask.shape[1])]
    A_lp = _random_lp_matrix(rng, mask)
    assert _group_shapes(_lp_plan(A_lp)) == [(3, 2), (4, 3), (4, 3), (4, 3), (6, 5), (10, 12)]
    assert _lp_term_matches_scipy(A_lp)


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
    assert _group_shapes(plan) == [(7, 7)]
    assert _lp_term_matches_scipy(A_lp, block_rows)


def test_lp_term_of_a_chunked_group_matches_scipy_bits():
    # a wide group: 700 coordinates on 10 rows, so each entry sums 700 products
    rng = np.random.default_rng(5)
    A_lp = _random_lp_matrix(rng, np.ones((10, 700), bool))
    assert _group_shapes(_lp_plan(A_lp)) == [(700, 10)]
    assert _lp_term_matches_scipy(A_lp, draws=10)


def test_lp_term_without_scalar_blocks_does_no_work():
    p = SdpProblem()
    g = p.add_block(2)
    p.add_row([(g, 0, 0, 1.0)], rhs=1.0)
    p.add_row([(g, 0, 1, 1.0), (g, 1, 1, 1.0)], rhs=1.0)
    A_lp, block_rows = _lp_pattern(p)
    assert A_lp.shape == (2, 0)
    plan = _lp_plan(A_lp, block_rows)
    assert _group_shapes(plan) == []
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


def _one_component_problem():
    """Two rows over three scalars, which they share: M is one 2x2 component."""
    p = SdpProblem()
    x = [p.add_block(1) for _ in range(3)]
    p.add_row(psd_entries=[(xi, 0, 0, 1.0) for xi in x], rhs=4.0)
    p.add_row(psd_entries=[(x[0], 0, 0, 1.0), (x[2], 0, 0, -1.0)], rhs=1.0)
    for xi, cost in zip(x, (2.0, 3.0, 1.0)):
        p.set_objective_entry(xi, 0, 0, cost)
    return p


def test_trace_records_schur_jitter(monkeypatch):
    # failing the first Schur factorization makes iteration 1 retry on
    # M + jitter * I
    p = _one_component_problem()
    cholesky = sdp._cholesky
    seen = []

    def fail_first(M):
        seen.append(M.copy())
        if len(seen) == 1:
            raise np.linalg.LinAlgError("forced")
        return cholesky(M)

    monkeypatch.setattr(sdp, "_cholesky", fail_first)
    sol = solve_sdp(p)
    monkeypatch.undo()
    assert sol.status == "optimal"
    jitter = sol.trace[0]["jitter"]
    assert jitter > 0.0
    assert np.array_equal(seen[1], seen[0] + jitter * np.eye(2))
    assert all(e["jitter"] == 0.0 for e in sol.trace[1:-1])


def test_factor_with_jitter_shifts_once():
    # one failed factorization is retried once on M + jitter * I, jitter =
    # max(1e-14 * mean diagonal, 1e-14); the diagonal's factor is its square root
    calls = []

    def fail_once(M):
        calls.append(M.copy())
        if len(calls) == 1:
            raise np.linalg.LinAlgError("forced")
        return sdp._cholesky(M)

    M = np.array([[40.0, 1.0], [1.0, 30.0]])
    L, jitter = sdp._factor_with_jitter(M, fail_once)
    assert len(calls) == 2
    assert jitter == max(1e-14 * 35.0, 1e-14)
    assert np.array_equal(calls[1], calls[0] + jitter * np.eye(2))
    assert np.array_equal(L, sdp._cholesky(calls[1]))
    d, jitter = sdp._factor_with_jitter(np.array([0.0, 1.0]), sdp._positive)
    assert jitter == 1e-14
    assert np.array_equal(d, np.sqrt([1e-14, 1.0 + 1e-14]))

    calls.clear()

    def fail(M):
        calls.append(M.copy())
        raise np.linalg.LinAlgError("forced")

    M = np.array([[40.0, 1.0], [1.0, 30.0]])
    assert sdp._factor_with_jitter(M, fail) == (None, max(1e-14 * 35.0, 1e-14))
    assert len(calls) == 2


def test_schur_factorization_fails_after_one_shift(monkeypatch):
    # a _cholesky that always fails is called on M and on M shifted, then
    # the solve stops
    p = _one_component_problem()
    calls = []

    def fail(M):
        calls.append(M.copy())
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(sdp, "_cholesky", fail)
    sol = solve_sdp(p)
    assert (sol.iterations, sol.message) == (1, "Schur complement factorization failed")
    assert len(calls) == 2
    jitter = sol.trace[0]["jitter"]
    assert jitter == max(1e-14 * np.trace(calls[0]) / 2, 1e-14)
    assert np.array_equal(calls[1], calls[0] + jitter * np.eye(2))


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
