"""Tests for dataset handling, data matrices, and the consistency ellipsoid fit."""

import dataclasses
import json

import numpy as np
import pytest

from issynth import consistency
from issynth.consistency import (
    ConsistencyError,
    DataMatrices,
    Dataset,
    RegressorBases,
    Sample,
    assemble_overapprox_lmi,
    build_data_matrices,
    ellipsoid_params,
    membership,
    membership_instantaneous,
    solve_overapprox,
)
from issynth.poly import Polynomial, parse_poly, variables
from issynth.simulate import ExperimentConfig, collect_dataset, khalil_system
from test_poly import float64_eval


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
    return solve_overapprox(dmats)


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
        with pytest.raises(ValueError, match="point of length"):
            khalil.bases.regressor([1.0, 1.0, 1.0], [1.0])

    def test_regressor_bitwise_equal_to_float64_loop(self):
        vs = variables(["x1", "x2"])
        Z = [parse_poly(s, vs) for s in ("x1", "-0.3*x1^2*x2 + x2^7", "x1^3*x2^4 - 2*x1^5",
                                         "1.7*x1*x2^6 + x2^2")]
        W2 = [[parse_poly(s, vs) for s in row]
              for row in (("1", "x1^2 - x2"), ("0.5*x1*x2^3", "2 - x1^7"), ("x2^4", "-x1"))]
        W1 = [row[1:] for row in W2]  # one input column: W(x) u is not a numpy product
        rng = np.random.default_rng(23)

        def want(W, x, u):
            z = np.array([float64_eval(p, x) for p in Z])
            w = np.array([[float64_eval(p, x) for p in row] for row in W])
            return np.concatenate([z, w @ u])

        for W in (W2, W1):
            b = RegressorBases(vs, Z, W)
            for _ in range(1000):
                x = rng.standard_normal(2) * 10.0 ** rng.integers(-2, 3, size=2)
                u = rng.standard_normal(b.m)
                assert b.regressor(x, u).tobytes() == want(W, x, u).tobytes()
            # signed zeros: w = 0 times a negative input, and a -0.0 input
            for x, u in (([0.0, 0.0], [-1.0, -2.0]), ([1.0, 2.0], [-0.0, -0.0])):
                u = np.array(u[:b.m])
                assert b.regressor(x, u).tobytes() == want(W, x, u).tobytes()
            for x in ([1e200, -1e200], [-1e100, 1e60], [np.inf, 0.0]):
                u = np.array([1.0, -1.0][:b.m])
                with np.errstate(over="ignore", invalid="ignore"):
                    reg = want(W, x, u)
                    got = b.regressor(x, u)
                assert got.tobytes() == reg.tobytes()
                assert not np.all(np.isfinite(got))


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

    @pytest.mark.parametrize("field", ["t", "u", "x", "xdot"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_sample_rejected(self, dataset, field, value):
        # caught at construction, not left to fail inside the fit's SVD
        s = dataset.samples[5]
        bad = value if field == "t" else np.full_like(getattr(s, field), value)
        samples = list(dataset.samples)
        samples[5] = s._replace(**{field: bad})
        with pytest.raises(ValueError, match=f"sample 5 has a non-finite {field}$"):
            Dataset(dataset.bases, dataset.delta, samples)
        d = dataset.to_json_dict()
        d["samples"][5][field] = value if field == "t" else bad.tolist()
        with pytest.raises(ValueError, match=f"sample 5 has a non-finite {field}$"):
            Dataset.from_json(json.dumps(d))

    def test_json_roundtrip(self, dataset):
        again = Dataset.from_json(dataset.to_json())
        assert again.to_json() == dataset.to_json()
        assert again.bases == dataset.bases
        assert again.delta == dataset.delta
        assert again.T == dataset.T
        assert np.array_equal(again.samples[7].xdot, dataset.samples[7].xdot)

    def test_hash_sensitivity(self, khalil, dataset):
        samples = list(dataset.samples)
        s = samples[3]
        samples[3] = Sample(s.t, s.u, s.x, s.xdot + 1e-12)
        other = Dataset(khalil.bases, dataset.delta, samples)
        assert other.to_json() != dataset.to_json()


# ---------------------------------------------------------------------------
# excitation: the fit refuses rank-deficient data before any solve


class TestExcitation:
    @pytest.fixture
    def no_solve(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("an SDP was solved on rank-deficient data")
        monkeypatch.setattr(consistency, "solve_sdp", fail)

    @staticmethod
    def fit(khalil, dataset, samples):
        return solve_overapprox(
            build_data_matrices(Dataset(khalil.bases, dataset.delta, samples)))

    def test_benchmark_data_has_full_column_rank(self, dmats):
        assert dmats.xi.shape == (50, 6)
        assert np.linalg.matrix_rank(dmats.xi) == 6

    def test_single_sample_raises_before_solving(self, khalil, dataset, no_solve):
        with pytest.raises(ConsistencyError, match=r"excitation.*rank 1 < N\+M = 6"):
            self.fit(khalil, dataset, dataset.samples[:1])

    def test_duplicated_sample_raises_before_solving(self, khalil, dataset, no_solve):
        with pytest.raises(ConsistencyError, match=r"excitation.*rank 1 < N\+M = 6"):
            self.fit(khalil, dataset, [dataset.samples[0]] * 50)

    def test_four_samples_raise_before_solving(self, khalil, dataset, no_solve):
        with pytest.raises(ConsistencyError, match=r"excitation.*rank 4 < N\+M = 6"):
            self.fit(khalil, dataset, dataset.samples[:4])


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

    def test_only_raw_rows_are_stored(self, dmats):
        assert [f.name for f in dataclasses.fields(DataMatrices)] == ["xi", "xdot", "delta"]
        i = 7
        assert np.array_equal(dmats.A[i], np.outer(dmats.xi[i], dmats.xi[i]))
        assert np.array_equal(dmats.B[i], -np.outer(dmats.xi[i], dmats.xdot[i]))

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
        dm = DataMatrices(xi=np.zeros((0, p)), xdot=np.zeros((0, n)), delta=1.0)
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
        assert membership(khalil.AB, ellipsoid).residual <= 1e-6

    def test_logdet_nondecreasing_over_iterations(self, ellipsoid):
        best = [h["best_logdet"] for h in ellipsoid.history]
        assert len(best) == 5
        assert all(b2 >= b1 for b1, b2 in zip(best, best[1:]))
        assert np.isfinite(best[-1])

    def test_one_problem_per_margin_with_each_steps_objective(self, dmats, ellipsoid,
                                                             monkeypatch):
        # the solver is handed one problem object per margin with a new
        # objective each step, so each call's problem is serialized as it is
        # solved; it must equal a fresh build with that step's weight
        events = []
        build, weight, solve = (consistency._fit_problem, consistency._fit_weight,
                                consistency.solve_sdp)

        def recorded_build(*args):
            events.append(("build", args))
            return build(*args)

        def recorded_weight(lin):
            events.append(("weight", weight(lin)))
            return events[-1][1]

        def recorded_solve(prob, *args):
            events.append(("solve", prob.to_json_dict()))
            return solve(prob, *args)

        monkeypatch.setattr(consistency, "_fit_problem", recorded_build)
        monkeypatch.setattr(consistency, "_fit_weight", recorded_weight)
        monkeypatch.setattr(consistency, "solve_sdp", recorded_solve)
        assert solve_overapprox(dmats).to_json() == ellipsoid.to_json()
        per_margin = []
        for kind, value in events:
            if kind == "build":
                per_margin.append([])
                args = value
            elif kind == "weight":
                W = value
            else:
                fresh = build(*args)
                consistency._fit_objective(fresh, W, dmats.xdot.shape[1])
                assert value == fresh.to_json_dict()
                per_margin[-1].append(value)
        assert [len(s) for s in per_margin][-1] == 1 + consistency.FIT_ITERS
        for solved in per_margin:
            for key in ("rows_psd", "rows_free", "rhs"):
                assert all(d[key] == solved[0][key] for d in solved)
            assert len({json.dumps(d["c_psd"]) for d in solved}) == len(solved)

    def test_every_reported_iterate_contains_truth(self, khalil, ellipsoid):
        for h in ellipsoid.history:
            ell_it = ellipsoid_params(h["A_bar"], h["B_bar"])
            assert membership(khalil.AB, ell_it).residual <= 1e-6

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
        dm = DataMatrices(xi=np.array([[1.0], [1.0]]), xdot=np.array([[0.5], [-0.5]]),
                          delta=1.0)
        ell = solve_overapprox(dm)
        assert abs(ell.A_bar[0, 0] - 4.0 / 3.0) < 1e-4
        assert abs(ell.zeta_bar[0, 0]) < 1e-6
        for z in (-0.5, 0.0, 0.5):
            assert membership(np.array([[z]]), ell).residual <= 1e-6
        assert membership(np.array([[0.9]]), ell).residual > 1e-6

    def test_rotation_equivariance(self, khalil, dataset):
        th = 0.7
        R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        rotated = Dataset(
            khalil.bases, dataset.delta,
            [Sample(s.t, s.u, s.x, R @ s.xdot) for s in dataset.samples],
        )
        ell = solve_overapprox(build_data_matrices(rotated))
        assert membership(R @ khalil.AB, ell).residual <= 1e-6


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
        res = membership(zeta.T, ellipsoid)
        assert abs(res.residual) < 1e-7

    def test_inflated_point_is_outside(self, ellipsoid):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(6)
        w = rng.standard_normal(2)
        Y = np.outer(v / np.linalg.norm(v), w / np.linalg.norm(w))
        zeta = ellipsoid.zeta_bar + 2.0 * (ellipsoid.A_bar_inv_sqrt @ Y)
        res = membership(zeta.T, ellipsoid)
        assert not res.ok
        assert res.residual > 1.0

    def test_unit_ball_parameterization_stays_inside(self, ellipsoid):
        # 200 draws of zeta_bar + A_bar^(-1/2) Y, spectral |Y| <= 1
        rng = np.random.default_rng(7)
        for _ in range(200):
            Y = spectral_cap(rng, 6, 2)
            zeta = ellipsoid.zeta_bar + ellipsoid.A_bar_inv_sqrt @ Y
            assert membership(zeta.T, ellipsoid).ok

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
        ell = solve_overapprox(dmats, bases=dataset.bases)
        assert ell.bases == dataset.bases
        d = ell.to_json_dict()
        assert d["Z_basis"] == [p.to_string() for p in dataset.bases.Z]
        back = ell.from_json(ell.to_json())
        assert back.bases == dataset.bases

    def test_absent_by_default(self, ellipsoid):
        assert ellipsoid.bases is None
        assert "Z_basis" not in ellipsoid.to_json_dict()


def test_ellipsoid_json_keeps_fit_history():
    # the synthesis result's ellipsoid_hash is taken over this JSON, so a
    # reloaded ellipsoid must write the same bytes, fit history included
    ell = ellipsoid_params(np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[0.1], [-0.2]]))
    ell.tau = np.array([0.3, 0.7])
    ell.history = [{"iteration": 0, "best_logdet": 0.5596157879354227}]
    s = ell.to_json()
    again = type(ell).from_json(s)
    assert again.history == [{"best_logdet": 0.5596157879354227}]
    assert again.to_json() == s


@pytest.mark.xfail(strict=True, raises=ConsistencyError,
                   reason="known fault: the 1e-6 fit ends infeasible and the "
                          "1e-8 fallback leaves the cone")
def test_fit_of_an_ordinary_data_set(khalil):
    # T = 40 from x0 = (2, -2) with small noise: the margin-1e-6 warm-up ends
    # infeasible in 21 iterations and the 1e-8 fallback numerical-failure in
    # 26 ("iterate left the cone"); this passes once the fit handles it
    cfg = ExperimentConfig(T=40, sample_spacing=0.05, u_bound=1.0,
                           d_radius=1e-3, x0=[2.0, -2.0], seed=0)
    solve_overapprox(build_data_matrices(collect_dataset(khalil, cfg)))
