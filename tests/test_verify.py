"""Oracle tests for the verification module.

Expected values here are either arithmetic identities or closed forms
recomputed inline; nothing is copied from solver output.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from issynth.consistency import ConsistencyEllipsoid, RegressorBases
from issynth.poly import Polynomial, parse_poly, variables
from issynth.sdp import SdpProblem
from issynth.verify import (
    alpha_poly_in,
    alpha_values,
    check_certificates,
    check_dissipation_sampled,
    check_infeasibility_certificate,
    check_kinf_gates,
    check_lambda_floor,
    check_lemma2_instance,
    check_sandwich,
    check_schur_equiv,
    check_theorem1_matrix_sampled,
    DISSIPATION_UPSILONS,
    f8_values,
    theorem1_matrix_values,
)


# ---------------------------------------------------------------------------
# shared hand-built instances


def zero_dynamics_instance():
    """zeta_bar = 0, V = |x|^2, alpha3 = alpha4 = r^2, identity shaping."""
    xv = variables(["x1", "x2"])
    Z = (Polynomial.from_var(xv, xv[0]), Polynomial.from_var(xv, xv[1]))
    W = ((Polynomial.constant(xv, 1.0),),)
    bases = RegressorBases(xv, Z, W)
    p = 3
    ell = ConsistencyEllipsoid(
        A_bar=np.eye(p), B_bar=np.eye(p), zeta_bar=np.zeros((p, 2)),
        A_bar_inv_sqrt=np.eye(p), tau=[], history=[])
    xev = variables(["x1", "x2", "e1", "e2"])
    V = parse_poly("x1^2 + x2^2", xv)
    k = (parse_poly("-x1 - x2", xv),)
    lam = Polynomial.constant(xev, 1.0)
    return ell, bases, V, k, lam


def scalar_instance(k_text="-x1", lam_const=10.0, A_scale=100.0):
    """n = 1 contraction: center dynamics xdot = -x + u, tight ellipsoid."""
    xv = variables(["x1"])
    Z = (Polynomial.from_var(xv, xv[0]),)
    W = ((Polynomial.constant(xv, 1.0),),)
    bases = RegressorBases(xv, Z, W)
    zeta_bar = np.array([[-1.0], [1.0]])
    ell = ConsistencyEllipsoid(
        A_bar=A_scale * np.eye(2), B_bar=np.eye(2), zeta_bar=zeta_bar,
        A_bar_inv_sqrt=np.eye(2) / np.sqrt(A_scale), tau=[], history=[])
    xev = variables(["x1", "e1"])
    res = SimpleNamespace(
        V=parse_poly("x1^2", xv),
        k=(parse_poly(k_text, xv),),
        alpha=([0.5], [2.0], [1.0], [10.0]),
        lam=Polynomial.constant(xev, lam_const),
        epsilon=1e-4,
        bases=bases,
    )
    return res, ell


# ---------------------------------------------------------------------------
# Lemma 2 oracle


def test_lemma2_scalar_example():
    # C=-3, E=G=F_bar=1, lam=1: premise -1, conclusion -3+2F <= -1
    rep = check_lemma2_instance(
        np.array([[-3.0]]), np.array([[1.0]]), np.array([[1.0]]),
        np.array([[1.0]]), 1.0, rng=np.random.default_rng(7))
    assert rep.passed
    assert abs(rep.worst + 1.0) < 1e-12
    assert abs(rep.details["premise_max_eig"] + 1.0) < 1e-12


def test_lemma2_fbar_zero_forces_f_zero():
    rep = check_lemma2_instance(
        -np.eye(2), 0.5 * np.array([[1.0], [0.0]]), np.array([[0.3, 0.1]]),
        np.zeros((1, 1)), 1.0, rng=np.random.default_rng(1))
    assert rep.passed
    assert abs(rep.worst + 1.0) < 1e-12


def test_lemma2_premise_fail_is_not_counterexample():
    rep = check_lemma2_instance(
        np.array([[1.0]]), np.array([[1.0]]), np.array([[1.0]]),
        np.array([[1.0]]), 1.0, rng=np.random.default_rng(0))
    assert not rep.passed
    assert rep.details["stage"] == "premise"
    assert rep.n_samples == 0


def test_lemma2_random_instances_premise_enforced():
    rng = np.random.default_rng(11)
    for _ in range(100):
        pdim = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        C0 = rng.standard_normal((pdim, pdim))
        C0 = 0.5 * (C0 + C0.T)
        E = rng.standard_normal((pdim, m))
        G = rng.standard_normal((n, pdim))
        R = rng.standard_normal((n, n))
        F_bar = R @ R.T
        lam = float(rng.uniform(0.5, 2.0))
        # shift C down so the premise holds with slack 0.1
        shift = np.linalg.eigvalsh(
            C0 + lam * E @ E.T + G.T @ F_bar @ G / lam)[-1] + 0.1
        rep = check_lemma2_instance(C0 - shift * np.eye(pdim), E, G, F_bar,
                                    lam, rng=rng)
        assert rep.details["stage"] == "conclusion"
        assert rep.passed, f"violation {rep.worst}"


def test_lemma2_input_validation():
    ok = np.array([[1.0]])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        check_lemma2_instance(np.array([[0.0, 1.0], [0.0, 0.0]]),
                              np.eye(2), np.eye(2), np.eye(2), 1.0, rng)
    with pytest.raises(ValueError):
        check_lemma2_instance(-ok, ok, ok, ok, 0.0, rng)
    with pytest.raises(ValueError):
        check_lemma2_instance(-ok, ok, ok, -ok, 1.0, rng)


# ---------------------------------------------------------------------------
# Schur form agreement


def test_schur_zero_dynamics_closed_form():
    ell, bases, V, k, lam = zero_dynamics_instance()
    rng = np.random.default_rng(3)
    XE = rng.uniform(-2.0, 2.0, size=(200, 4))
    f8 = f8_values(ell, bases, V, k, lam, [1.0], [1.0], XE)
    X, E = XE[:, :2], XE[:, 2:]
    kv = -((X + E)[:, 0] + (X + E)[:, 1])
    closed = (np.sum(X * X, 1) - np.sum(E * E, 1)
              + 0.5 * (np.sum(X * X, 1) + kv ** 2) + 2.0 * np.sum(X * X, 1))
    assert np.max(np.abs(f8 - closed)) < 1e-12


def test_schur_equiv_agreement():
    ell, bases, V, k, lam = zero_dynamics_instance()
    rep = check_schur_equiv(ell, bases, V, k, lam, [1.0], [1.0],
                            rng=np.random.default_rng(5))
    assert rep.passed
    assert rep.details["n_disagreements"] == 0


def test_schur_lambda_flip_detected():
    ell, bases, V, k, lam = zero_dynamics_instance()
    rng = np.random.default_rng(9)
    XE = rng.uniform(-2.0, 2.0, size=(400, 4))
    f8 = f8_values(ell, bases, V, k, lam, [1.0], [1.0], XE)
    flipped = theorem1_matrix_values(ell, bases, V, k, lam * -1.0,
                                     [1.0], [1.0], XE)
    eigs = np.linalg.eigvalsh(flipped)[:, -1]
    neg = f8 < -1e-8
    assert neg.any()
    # flipping lambda turns the diagonal positive: every negative point disagrees
    assert np.all(eigs[neg] > 1e-8)


def test_matrix_dimensions():
    ell, bases, V, k, lam = zero_dynamics_instance()
    XE = np.zeros((3, 4))
    M = theorem1_matrix_values(ell, bases, V, k, lam, [1.0], [1.0], XE)
    assert M.shape == (3, 6, 6)  # 1 + n + N + M with n=2, N=2, M=1
    assert np.allclose(M, np.transpose(M, (0, 2, 1)))


def test_f8_rejects_nonpositive_multiplier():
    ell, bases, V, k, lam = zero_dynamics_instance()
    with pytest.raises(ValueError):
        f8_values(ell, bases, V, k, lam * -1.0, [1.0], [1.0], np.zeros((2, 4)))


def test_schur_equiv_reports_nonpositive_multiplier():
    ell, bases, V, k, lam = zero_dynamics_instance()
    rep = check_schur_equiv(ell, bases, V, k, lam * -1.0, [1.0], [1.0],
                            rng=np.random.default_rng(5))
    assert not rep.passed
    assert rep.details["lambda_min"] == -1.0
    assert len(rep.witness) == 4
    assert "multiplier not positive" in rep.summary()


# ---------------------------------------------------------------------------
# dissipation over the ellipsoid


def test_dissipation_robust_scalar_instance():
    res, ell = scalar_instance()
    rep = check_dissipation_sampled(res, ell, rng=np.random.default_rng(2))
    assert rep.passed, rep.worst
    assert rep.details["n_upsilon"] == DISSIPATION_UPSILONS


def test_dissipation_true_system_checked():
    res, ell = scalar_instance()
    AB_true = (ell.zeta_bar + 0.02 * np.ones((2, 1))).T
    rep = check_dissipation_sampled(res, ell, rng=np.random.default_rng(2),
                                    AB_true=AB_true)
    assert rep.passed
    assert "true_system_worst" in rep.details


def test_dissipation_catches_destabilizing_gain():
    res, ell = scalar_instance(k_text="x1")  # positive feedback
    rep = check_dissipation_sampled(res, ell, rng=np.random.default_rng(2))
    assert not rep.passed
    assert rep.worst > 1.0


def test_dissipation_origin_is_equality():
    res, ell = scalar_instance()
    # at x = e = 0 every term vanishes: Z(0)=0, k(0)=0, alphas vanish
    XE = np.zeros((1, 2))
    gv = res.V.grad()[0].eval_many(XE[:, :1])
    assert gv[0] == 0.0
    assert alpha_values(res.alpha[2], np.array([0.0]))[0] == 0.0


# ---------------------------------------------------------------------------
# sandwich bounds


def test_sandwich_quadratic_identity():
    res, _ = scalar_instance()
    rep = check_sandwich(res, rng=np.random.default_rng(4))
    assert rep.passed


def test_sandwich_detects_bad_lower_bound():
    res, _ = scalar_instance()
    res.alpha = ([2.0], [2.0], [1.0], [1.0])  # alpha1 = 2r^2 > V
    rep = check_sandwich(res, rng=np.random.default_rng(4))
    assert not rep.passed


def test_sandwich_origin():
    coeffs = [0.5, 0.25]
    assert alpha_values(coeffs, np.array([0.0]))[0] == 0.0


# ---------------------------------------------------------------------------
# matrix inequality sampling, floors, gates


def test_matrix_sampled_feasible_instance():
    res, ell = scalar_instance(lam_const=10.0)
    rep = check_theorem1_matrix_sampled(
        ell, res.bases, res.V, res.k, res.lam, res.alpha[2], res.alpha[3],
        rng=np.random.default_rng(6))
    assert rep.passed, rep.worst


def test_lambda_floor():
    res, _ = scalar_instance(lam_const=1e-4)
    rep = check_lambda_floor(res, rng=np.random.default_rng(0))
    assert rep.passed
    res.lam = res.lam * 0.5  # now below epsilon
    rep2 = check_lambda_floor(res, rng=np.random.default_rng(0))
    assert not rep2.passed


def test_kinf_gates():
    res, _ = scalar_instance()
    assert check_kinf_gates(res).passed
    res.alpha = ([0.5, -1e-3], [2.0], [1.0], [10.0])
    assert not check_kinf_gates(res).passed
    res.alpha = ([0.0], [2.0], [1.0], [10.0])  # sum below epsilon
    assert not check_kinf_gates(res).passed


# ---------------------------------------------------------------------------
# Gram certificates


# s4's Gram matrix over (q0*x1, q0*e1, q1, q2, q3) for scalar_instance, whose
# quadratic form is minus the theorem-1 form; its smallest eigenvalue is 2.54
S4_GRAM = np.array([[3.0, 1.0, -2.0, -1.0, 1.0],
                    [1.0, 10.0, 0.0, 0.0, 1.0],
                    [-2.0, 0.0, 20.0, 0.0, 0.0],
                    [-1.0, 0.0, 0.0, 20.0, 0.0],
                    [1.0, 1.0, 0.0, 0.0, 20.0]])


def scalar_certificates(G4=S4_GRAM, **margin):
    """Closed-form certificates of scalar_instance: s1 = 0.5 x1^2,
    s2 = x1^2, s3 = lam - epsilon and s4 with Gram matrix G4."""
    def cert(G, exps, names):
        return {"blocks": [np.asarray(G).tolist()], "block_exps": [exps], "vars": names}
    q = [[int(i == j) for j in range(4)] for i in range(4)]
    return {
        "s1": cert([[0.5]], [[1]], ["x1"]),
        "s2": cert([[1.0]], [[1]], ["x1"]),
        "s3": cert([[10.0 - 1e-4]], [[0, 0]], ["x1", "e1"]),
        "s4": {**cert(G4, [q[0] + [1, 0], q[0] + [0, 1], q[1] + [0, 0], q[2] + [0, 0],
                           q[3] + [0, 0]], ["_q0", "_q1", "_q2", "_q3", "x1", "e1"]),
               **margin},
    }


def test_certificates_closed_form():
    res, ell = scalar_instance()
    res.certificates = scalar_certificates()
    rep = check_certificates(res, ell, np.random.default_rng(5))
    assert rep.passed, rep.worst
    assert rep.details["s4"]["min_eig"] > 2.5
    G = S4_GRAM.copy()
    G[0, 0] += 1e-2
    res.certificates = scalar_certificates(G)
    assert not check_certificates(res, ell, np.random.default_rng(5)).passed


def test_certificates_add_the_margin_back():
    res, ell = scalar_instance()
    mask = [1.0, 1.0, 0.0, 0.0, 0.0]
    shifted = S4_GRAM - 0.5 * np.diag(mask)
    res.certificates = scalar_certificates(shifted, margin=0.5, margin_mask=[mask])
    rep = check_certificates(res, ell, np.random.default_rng(5))
    assert rep.passed, rep.worst
    assert rep.details["s4"]["margin"] == 0.5
    res.certificates = scalar_certificates(shifted, margin_mask=[mask])
    assert not check_certificates(res, ell, np.random.default_rng(5)).passed


# ---------------------------------------------------------------------------
# report plumbing and helpers


def test_report_json_and_summary():
    rep = check_lemma2_instance(
        np.array([[-3.0]]), np.array([[1.0]]), np.array([[1.0]]),
        np.array([[1.0]]), 1.0, rng=np.random.default_rng(0))
    d = rep.to_json_dict()
    assert d["name"] == "lemma2_instance"
    assert d["passed"] is True
    assert "PASS" in rep.summary()


def test_reports_deterministic():
    res, ell = scalar_instance()
    a = check_dissipation_sampled(res, ell, rng=np.random.default_rng(42))
    b = check_dissipation_sampled(res, ell, rng=np.random.default_rng(42))
    assert a.worst == b.worst
    assert a.witness == b.witness


def test_alpha_poly_matches_values():
    xv = variables(["x1", "x2"])
    sq = parse_poly("x1^2 + x2^2", xv)
    coeffs = [0.3, 0.0, 1.2]
    P = np.random.default_rng(8).uniform(-2, 2, size=(50, 2))
    a = alpha_poly_in(coeffs, sq).eval_many(P)
    b = alpha_values(coeffs, np.sum(P * P, axis=1))
    assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# Farkas certificate of an infeasible program


def textbook_infeasible_sdp():
    """tr X + v = -1, v = 0 and X_01 = 1 for a 2x2 X >= 0: the trace of a
    PSD matrix cannot be negative.  y = (-1, 1, 0) proves it: b.y = 1,
    A_free^T y = -1 + 1 = 0 and -A_psd^T y = I."""
    p = SdpProblem()
    g = p.add_block(2)
    v = p.add_free("v")
    p.add_row([(g, 0, 0, 1.0), (g, 1, 1, 1.0)], [(v, 1.0)], rhs=-1.0)
    p.add_row(free_entries=[(v, 1.0)])
    p.add_row([(g, 0, 1, 1.0)], rhs=1.0)
    return p


def test_infeasibility_certificate_passes_the_textbook_ray():
    rep = check_infeasibility_certificate(textbook_infeasible_sdp(), np.array([-1.0, 1.0, 0.0]))
    assert rep.passed, rep.summary()
    assert rep.details["b_y"] == 1.0 and rep.details["free_residual"] == 0.0
    assert rep.details["min_eig"] == pytest.approx(1.0 / np.sqrt(2.0))
    # any positive multiple is the same certificate
    assert check_infeasibility_certificate(textbook_infeasible_sdp(),
                                           np.array([-1e3, 1e3, 0.0])).passed


@pytest.mark.parametrize("y, failing", [
    ((1.0, -1.0, 0.0), "reason"),      # negated: b.y = -1
    ((-1.0, 0.0, 0.0), "free"),        # A_free^T y = -1
    ((-1.0, 1.0, 3.0), "cone"),        # -A_psd^T y = [[1, -1.5], [-1.5, 1]]
    ((0.0, 0.0, 0.0), "reason"),       # no ray at all
])
def test_infeasibility_certificate_rejects_a_broken_ray(y, failing):
    rep = check_infeasibility_certificate(textbook_infeasible_sdp(), np.array(y))
    assert not rep.passed, rep.summary()
    if failing == "reason":
        assert rep.details["reason"] == "b.y is not positive" and rep.worst == np.inf
    elif failing == "free":
        assert rep.details["free_residual"] == pytest.approx(1.0)
    else:
        assert rep.details["min_eig"] < -0.1 and rep.details["free_residual"] == 0.0
