"""Tests for dataset handling, data matrices, and the consistency ellipsoid fit."""

import numpy as np
import pytest

from issynth.consistency import (
    ConsistencyError,
    DataMatrices,
    Dataset,
    RegressorBases,
    Sample,
    assemble_overapprox_lmi,
    build_data_matrices,
    build_regressors,
    ellipsoid_params,
    membership,
    membership_instantaneous,
    solve_overapprox,
)
from issynth.poly import Polynomial, parse_poly, variables
from issynth.simulate import ExperimentConfig, collect_dataset, khalil_system


@pytest.fixture(scope="module")
def khalil():
    return khalil_system()


@pytest.fixture(scope="module")
def dataset(khalil):
    cfg = ExperimentConfig(T=50, sample_spacing=0.02, u_bound=10.0,
                           d_radius=1e-3, x0=[2.0, -2.0], seed=0)
    return collect_dataset(khalil, cfg)


@pytest.fixture(scope="module")
def dmats(dataset):
    return build_data_matrices(dataset)


@pytest.fixture(scope="module")
def ellipsoid(dmats):
    return solve_overapprox(dmats, iters=5)


def spectral_cap(rng: np.random.Generator, p: int, n: int) -> np.ndarray:
    """Random matrix with spectral norm at most (just under) one."""
    Y = rng.standard_normal((p, n))
    s = np.linalg.norm(Y, 2)
    return Y / max(1.0, s / 0.999)


# ---------------------------------------------------------------------------
# regressor bases


class TestRegressorBases:
    def test_benchmark_evaluation(self, khalil):
        b = khalil.bases
        assert (b.n, b.N, b.M, b.m) == (2, 5, 1, 1)
        x = [2.0, -1.0]
        assert np.allclose(b.z_at(x), [2.0, 4.0, -4.0, 2.0, -1.0])
        assert np.allclose(b.w_at(x), [[1.0]])
        assert np.allclose(b.regressor(x, [3.0]), [2.0, 4.0, -4.0, 2.0, -1.0, 3.0])

    def test_constant_term_in_z_rejected(self):
        vs = variables(["x1"])
        with pytest.raises(ValueError, match="constant term"):
            RegressorBases(vs, [parse_poly("1 + x1", vs)],
                           [[Polynomial.constant(vs, 1.0)]])

    def test_empty_and_ragged_bases_rejected(self):
        vs = variables(["x1"])
        z = [parse_poly("x1", vs)]
        one = Polynomial.constant(vs, 1.0)
        with pytest.raises(ValueError, match="Z basis"):
            RegressorBases(vs, [], [[one]])
        with pytest.raises(ValueError, match="W basis"):
            RegressorBases(vs, z, [])
        with pytest.raises(ValueError, match="ragged"):
            RegressorBases(vs, z, [[one, one], [one]])

    def test_foreign_variables_rejected(self):
        vs = variables(["x1"])
        other = variables(["y"])
        one = Polynomial.constant(vs, 1.0)
        with pytest.raises(ValueError, match="state variable"):
            RegressorBases(vs, [parse_poly("y", other)], [[one]])

    def test_input_length_checked(self, khalil):
        with pytest.raises(ValueError, match="input"):
            khalil.bases.regressor([1.0, 1.0], [1.0, 2.0])


# ---------------------------------------------------------------------------
# datasets and serialization


class TestDataset:
    def test_negative_delta_rejected(self, khalil):
        with pytest.raises(ValueError, match="delta"):
            Dataset(khalil.bases, -1.0, [])

    def test_sample_shape_validation(self, khalil):
        bad = Sample(0.0, np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="input"):
            Dataset(khalil.bases, 1e-6, [bad])

    def test_json_roundtrip(self, dataset):
        again = Dataset.from_json(dataset.to_json())
        assert again.content_hash() == dataset.content_hash()
        assert again.bases == dataset.bases
        assert again.delta == dataset.delta
        assert again.T == dataset.T
        assert np.array_equal(again.samples[7].xdot, dataset.samples[7].xdot)

    def test_hash_sensitivity(self, khalil, dataset):
        samples = list(dataset.samples)
        s = samples[3]
        samples[3] = Sample(s.t, s.u, s.x, s.xdot + 1e-12)
        other = Dataset(khalil.bases, dataset.delta, samples)
        assert other.content_hash() != dataset.content_hash()


# ---------------------------------------------------------------------------
# regressor rank


class TestBuildRegressors:
    def test_benchmark_data_has_full_row_rank(self, dataset):
        reg = build_regressors(dataset)
        assert reg.Z0.shape == (5, 50)
        assert reg.W0.shape == (1, 50)
        assert reg.rank == 6
        assert reg.full_row_rank

    def test_single_sample_is_rank_deficient(self, khalil, dataset):
        ds = Dataset(khalil.bases, dataset.delta, dataset.samples[:1])
        reg = build_regressors(ds)
        assert reg.rank <= 1
        assert not reg.full_row_rank

    def test_duplicated_sample_is_rank_deficient(self, khalil, dataset):
        ds = Dataset(khalil.bases, dataset.delta, [dataset.samples[0]] * 50)
        reg = build_regressors(ds)
        assert reg.rank <= 1
        assert not reg.full_row_rank


# ---------------------------------------------------------------------------
# per-sample data matrices


class TestDataMatrices:
    def test_c_matrix_formula(self, khalil):
        s = Sample(0.0, [0.5], [0.3, -0.2], [1.0, 0.0])
        dm = build_data_matrices(Dataset(khalil.bases, 1e-6, [s]))
        want = np.array([[1.0 - 1e-6, 0.0], [0.0, -1e-6]])
        assert np.array_equal(dm.C[0], want)

    def test_zero_state_zero_input_kills_a_and_b(self, khalil):
        s = Sample(0.0, [0.0], [0.0, 0.0], [0.0, 0.0])
        dm = build_data_matrices(Dataset(khalil.bases, 1e-6, [s]))
        assert np.all(dm.A[0] == 0.0)
        assert np.all(dm.B[0] == 0.0)
        assert np.array_equal(dm.C[0], -1e-6 * np.eye(2))

    def test_zero_delta_rejected(self, khalil):
        s = Sample(0.0, [0.0], [1.0, 1.0], [0.0, 0.0])
        with pytest.raises(ValueError, match="delta"):
            build_data_matrices(Dataset(khalil.bases, 0.0, [s]))

    def test_truth_satisfies_every_slab(self, khalil, dmats):
        # matrix slab form: C + zeta^T B + B^T zeta + zeta^T A zeta <= 0
        zeta = khalil.AB.T
        for i in range(len(dmats)):
            Q = (dmats.C[i] + zeta.T @ dmats.B[i] + dmats.B[i].T @ zeta
                 + zeta.T @ dmats.A[i] @ zeta)
            assert np.linalg.eigvalsh(0.5 * (Q + Q.T))[-1] <= 1e-12


# ---------------------------------------------------------------------------
# certificate assembly


class TestAssembleLmi:
    def test_zero_data_layout(self):
        n, p = 2, 6
        dm = DataMatrices(C=np.zeros((0, n, n)), B=np.zeros((0, p, n)),
                          A=np.zeros((0, p, p)))
        S = assemble_overapprox_lmi(dm, np.eye(p), np.zeros((p, n)), np.zeros(0))
        want = np.zeros((n + 2 * p, n + 2 * p))
        want[:n, :n] = -np.eye(n)
        want[n:n + p, n:n + p] = np.eye(p)
        want[n + p:, n + p:] = -np.eye(p)
        assert np.array_equal(S, want)
        # the middle block is +I, so this S is correctly *not* <= 0
        assert np.linalg.eigvalsh(S)[-1] == 1.0

    def test_multiplier_count_checked(self, dmats):
        with pytest.raises(ValueError, match="multipliers"):
            assemble_overapprox_lmi(dmats, np.eye(6), np.zeros((6, 2)), np.zeros(3))


# ---------------------------------------------------------------------------
# ellipsoid fit


class TestSolveOverapprox:
    def test_certificate_and_multipliers(self, dmats, ellipsoid):
        ell = ellipsoid
        assert ell.tau.shape == (50,)
        assert ell.tau.min() >= 0.0
        S = assemble_overapprox_lmi(dmats, ell.A_bar, ell.B_bar, ell.tau)
        assert np.linalg.eigvalsh(S)[-1] <= 1e-7

    def test_truth_is_inside(self, khalil, ellipsoid):
        res = membership(khalil.AB, ellipsoid, tol=1e-6)
        assert res.ok
        assert res.residual <= 1e-6

    def test_logdet_nondecreasing_over_iterations(self, ellipsoid):
        best = [h["best_logdet"] for h in ellipsoid.history]
        assert len(best) == 5
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        assert np.isfinite(best[-1])

    def test_every_reported_iterate_contains_truth(self, khalil, ellipsoid):
        for h in ellipsoid.history:
            ell_it = ellipsoid_params(h["A_bar"], h["B_bar"])
            assert membership(khalil.AB, ell_it, tol=1e-6).ok

    def test_shape_matrix_well_posed(self, ellipsoid):
        w = np.linalg.eigvalsh(ellipsoid.A_bar)
        assert w[0] > 1e-10
        err = np.abs(ellipsoid.A_bar_inv_sqrt @ ellipsoid.A_bar_inv_sqrt
                     @ ellipsoid.A_bar - np.eye(6)).max()
        assert err <= 1e-8

    def test_json_roundtrip(self, ellipsoid):
        again = type(ellipsoid).from_json(ellipsoid.to_json())
        assert np.allclose(again.A_bar, ellipsoid.A_bar)
        assert np.allclose(again.B_bar, ellipsoid.B_bar)
        assert np.allclose(again.zeta_bar, ellipsoid.zeta_bar)
        assert np.allclose(again.tau, ellipsoid.tau)
        d = ellipsoid.to_json_dict()
        assert len(d["fit_logdets"]) == 5

    def test_interval_instance_recovers_known_optimum(self):
        # two slabs |xdot - zeta| <= 1 around +-0.5: consistent set [-1/2, 1/2];
        # the symmetric-multiplier certificate tops out at A_bar = 4/3
        Cs = np.array([[[0.25 - 1.0]], [[0.25 - 1.0]]])
        Bs = np.array([[[-0.5]], [[0.5]]])
        As = np.array([[[1.0]], [[1.0]]])
        ell = solve_overapprox(DataMatrices(C=Cs, B=Bs, A=As), iters=3)
        assert abs(ell.A_bar[0, 0] - 4.0 / 3.0) < 1e-4
        assert abs(ell.zeta_bar[0, 0]) < 1e-6
        for z in (-0.5, 0.0, 0.5):
            assert membership(np.array([[z]]), ell, tol=1e-6).ok
        assert not membership(np.array([[0.9]]), ell, tol=1e-6).ok

    def test_iters_validated(self, dmats):
        with pytest.raises(ValueError, match="iters"):
            solve_overapprox(dmats, iters=0)

    def test_rotation_equivariance(self, khalil, dataset):
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rotated = Dataset(
            khalil.bases, dataset.delta,
            [Sample(s.t, s.u, s.x, R @ s.xdot) for s in dataset.samples],
        )
        ell = solve_overapprox(build_data_matrices(rotated), iters=2)
        assert membership(R @ khalil.AB, ell, tol=1e-6).ok


# ---------------------------------------------------------------------------
# derived parameters


class TestEllipsoidParams:
    def test_inverse_sqrt_of_scaled_identity(self):
        ell = ellipsoid_params(4.0 * np.eye(3), np.zeros((3, 2)))
        assert np.allclose(ell.A_bar_inv_sqrt, 0.5 * np.eye(3), atol=1e-12)
        assert np.all(ell.zeta_bar == 0.0)

    def test_center_recovery(self):
        A = np.diag([2.0, 0.5])
        center = np.array([[1.0], [-2.0]])
        ell = ellipsoid_params(A, -A @ center)
        assert np.allclose(ell.zeta_bar, center, atol=1e-12)

    def test_random_spd_inverse_sqrt(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((8, 8))
        A = X @ X.T + 0.5 * np.eye(8)
        ell = ellipsoid_params(A, np.zeros((8, 1)))
        err = np.abs(ell.A_bar_inv_sqrt @ ell.A_bar_inv_sqrt @ A - np.eye(8)).max()
        assert err <= 1e-10

    def test_degenerate_shape_rejected(self):
        with pytest.raises(ConsistencyError, match="degenerate"):
            ellipsoid_params(np.diag([1.0, 1e-11]), np.zeros((2, 1)))

    def test_asymmetric_rejected(self):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ellipsoid_params(A, np.zeros((2, 1)))


# ---------------------------------------------------------------------------
# membership oracles


class TestMembership:
    def test_center_is_deep_inside(self, ellipsoid):
        res = membership(ellipsoid.zeta_bar.T, ellipsoid)
        assert res.ok
        assert abs(res.residual + 1.0) < 1e-7

    def test_boundary_point_residual_is_zero(self, ellipsoid):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(6)
        w = rng.standard_normal(2)
        Y = np.outer(v / np.linalg.norm(v), w / np.linalg.norm(w))
        zeta = ellipsoid.zeta_bar + ellipsoid.A_bar_inv_sqrt @ Y
        res = membership(zeta.T, ellipsoid, tol=1e-6)
        assert res.ok
        assert abs(res.residual) < 1e-7

    def test_inflated_point_is_outside(self, ellipsoid):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(6)
        w = rng.standard_normal(2)
        Y = np.outer(v / np.linalg.norm(v), w / np.linalg.norm(w))
        zeta = ellipsoid.zeta_bar + 2.0 * (ellipsoid.A_bar_inv_sqrt @ Y)
        res = membership(zeta.T, ellipsoid, tol=1e-8)
        assert not res.ok
        assert res.residual > 1.0

    def test_unit_ball_parameterization_stays_inside(self, ellipsoid):
        # 200 draws of zeta_bar + A_bar^(-1/2) Y, spectral |Y| <= 1
        rng = np.random.default_rng(7)
        for _ in range(200):
            Y = spectral_cap(rng, 6, 2)
            zeta = ellipsoid.zeta_bar + ellipsoid.A_bar_inv_sqrt @ Y
            assert membership(zeta.T, ellipsoid, tol=1e-8).ok

    def test_shape_check(self, ellipsoid):
        with pytest.raises(ValueError, match="shape"):
            membership(np.zeros((6, 2)), ellipsoid)

    def test_instantaneous_detects_outliers(self, khalil, dataset):
        s = dataset.samples[0]
        good = membership_instantaneous(khalil.AB, s, dataset.delta, dataset.bases)
        assert good.ok
        bumped = Sample(s.t, s.u, s.x, s.xdot + np.array([3e-3, 0.0]))
        bad = membership_instantaneous(khalil.AB, bumped, dataset.delta, dataset.bases)
        assert not bad.ok
        assert bad.residual > dataset.delta


class TestEllipsoidBases:
    def test_attached_and_serialized(self, dmats, dataset):
        ell = solve_overapprox(dmats, iters=2, bases=dataset.bases)
        assert ell.bases == dataset.bases
        d = ell.to_json_dict()
        assert d["Z_basis"] == [p.to_string() for p in dataset.bases.Z]
        back = ell.from_json(ell.to_json())
        assert back.bases == dataset.bases

    def test_absent_by_default(self, ellipsoid):
        assert ellipsoid.bases is None
        assert "Z_basis" not in ellipsoid.to_json_dict()
