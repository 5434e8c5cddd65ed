"""Tests for the sum-of-squares programming layer."""

import numpy as np
import pytest

from issynth.poly import Polynomial, variables, monomial_basis, parse_poly
from issynth.sos import (
    AffinePoly,
    SosCertificateError,
    SosProgram,
    check_sos_numeric,
    extract_certificate,
    gram_polynomial,
)


@pytest.fixture
def xv():
    return variables(["x"])


@pytest.fixture
def xy():
    return variables(["x1", "x2"])


def max_coeff(p: Polynomial) -> float:
    return max((abs(c) for c in p.terms.values()), default=0.0)


# ---------------------------------------------------------------------------
# AffinePoly algebra


class TestAffinePoly:
    def test_promote_and_value(self, xv):
        prog = SosProgram()
        c = prog.new_coeff("c")
        x = parse_poly("x", xv)
        expr = AffinePoly.from_var(c, xv) * x + parse_poly("x^2", xv)
        val = expr.value({c.index: 3.0})
        assert max_coeff(val - parse_poly("x^2 + 3*x", xv)) < 1e-12

    def test_arithmetic_matches_polynomials(self, xv):
        prog = SosProgram()
        a, b = prog.new_coeffs("a", 2)
        x = parse_poly("x", xv)
        expr = 2.0 * AffinePoly.from_var(a, xv) - AffinePoly.from_var(b, xv) * x
        expr = expr + parse_poly("1 + x", xv)
        vals = {a.index: 0.5, b.index: -2.0}
        got = expr.value(vals)
        want = parse_poly("2 + 3*x", xv)
        assert max_coeff(got - want) < 1e-12

    def test_diff_and_subst(self, xy):
        prog = SosProgram()
        c = prog.new_coeff()
        expr = AffinePoly.from_var(c, xy) * parse_poly("x1^2*x2", xy)
        d = expr.diff(xy[0])
        assert max_coeff(d.value({c.index: 1.0}) - parse_poly("2*x1*x2", xy)) < 1e-12
        ext = variables(["x1", "x2", "e1"])
        shifted = expr.subst({
            xy[0]: parse_poly("x1 + e1", ext),
            xy[1]: parse_poly("x2", ext),
        })
        got = shifted.value({c.index: 1.0})
        want = parse_poly("x1^2*x2 + 2*x1*e1*x2 + e1^2*x2", ext)
        assert max_coeff(got - want) < 1e-12

    def test_product_of_decision_terms_rejected(self, xv):
        prog = SosProgram()
        a, b = prog.new_coeffs("a", 2)
        with pytest.raises(TypeError, match="affine"):
            AffinePoly.from_var(a, xv) * AffinePoly.from_var(b, xv)


# ---------------------------------------------------------------------------
# scalar SOS


class TestScalarSos:
    def test_square_roundtrip(self, xv):
        target = parse_poly("x^4 - 2*x^2 + 1", xv)  # (x^2 - 1)^2
        prog = SosProgram()
        h = prog.add_scalar_sos(target)
        sol = prog.solve()
        assert sol.status == "optimal"
        assert sol.gram_min_eig(h) >= -1e-8
        exps = [tuple(e) for e in sol.index["grams"][h]["blocks"][0]]
        sos_terms = extract_certificate(sol.gram(h)[0], exps, xv)
        recon = Polynomial.zero(xv)
        for q in sos_terms:
            recon = recon + q * q
        assert max_coeff(recon - target) <= 1e-8
        ok, err = check_sos_numeric(target, sol.gram(h), [exps],
                                    np.random.default_rng(0))
        assert ok, err

    def test_negative_square_infeasible(self, xv):
        prog = SosProgram()
        prog.add_scalar_sos(parse_poly("-x^2", xv))
        assert prog.solve().status == "infeasible"

    def test_motzkin_like_infeasible(self, xy):
        # PSD on R^2 but not SOS: x1^4 x2^2 + x1^2 x2^4 - 3 x1^2 x2^2 + 1
        p = parse_poly("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", xy)
        prog = SosProgram()
        prog.add_scalar_sos(p)
        assert prog.solve().status == "infeasible"

    def test_odd_degree_rejected(self, xv):
        prog = SosProgram()
        with pytest.raises(ValueError, match="odd"):
            prog.add_scalar_sos(parse_poly("x^3 + 1", xv))

    def test_zero_polynomial_zero_gram(self, xv):
        prog = SosProgram()
        basis = monomial_basis(xv, 1)
        h = prog.add_scalar_sos(Polynomial.zero(xv), basis=basis)
        sol = prog.solve()
        assert sol.status == "optimal"
        assert np.abs(sol.gram(h)[0]).max() <= 1e-6

    def test_template_minimization(self, xv):
        # smallest c making x^4 - x^2 + c a sum of squares is 1/4
        prog = SosProgram()
        c = prog.new_coeff("c")
        expr = AffinePoly.promote(parse_poly("x^4 - x^2", xv), xv) \
            + AffinePoly.from_var(c, xv)
        prog.add_scalar_sos(expr)
        prog.set_objective([(c, 1.0)], "min")
        sol = prog.solve()
        assert sol.status == "optimal"
        assert abs(sol.coeff(c) - 0.25) <= 1e-6

    def test_certificate_error_on_indefinite_gram(self, xv):
        G = np.array([[1.0, 0.0], [0.0, -1e-3]])
        with pytest.raises(SosCertificateError):
            extract_certificate(G, [(0,), (1,)], xv)


# ---------------------------------------------------------------------------
# margins


class TestMargin:
    def test_positive_margin(self, xv):
        # x^2 + 1 over {1, x}: Gram can sit at t*I with t = 1
        prog = SosProgram()
        t = prog.new_coeff("t")
        basis = monomial_basis(xv, 1)
        prog.add_scalar_sos(parse_poly("x^2 + 1", xv), basis=basis, margin=t)
        prog.set_objective([(t, 1.0)], "max")
        sol = prog.solve()
        assert sol.status == "optimal"
        assert abs(sol.coeff(t) - 1.0) <= 1e-6

    def test_negative_margin_measures_infeasibility(self, xv):
        # -x^2/2 is not SOS; the best shifted Gram bottoms out at t = -1/2
        prog = SosProgram()
        t = prog.new_coeff("t")
        basis = monomial_basis(xv, 1)
        h = prog.add_scalar_sos(parse_poly("-0.5*x^2", xv), basis=basis, margin=t)
        prog.set_objective([(t, 1.0)], "max")
        sol = prog.solve()
        assert sol.status == "optimal"
        assert abs(sol.coeff(t) + 0.5) <= 1e-6
        # reported Gram includes the shift, so its smallest eigenvalue is t
        assert abs(sol.gram_min_eig(h) - sol.coeff(t)) <= 1e-6

    def test_margin_on_full_diagonal(self, xv):
        # x^4 + 1 over {1, x, x^2}: rows force H00 = H22 = 1 - t and
        # 2*H02 + H11 = -t; best PSD choice H11 = 0, H02 = -t/2 needs
        # (1 - t) >= t/2, so t* = 2/3
        prog = SosProgram()
        t = prog.new_coeff("t")
        prog.add_scalar_sos(parse_poly("x^4 + 1", xv), margin=t)
        prog.set_objective([(t, 1.0)], "max")
        sol = prog.solve()
        assert sol.status == "optimal"
        assert abs(sol.coeff(t) - 2.0 / 3.0) <= 1e-6


# ---------------------------------------------------------------------------
# matrix SOS


class TestMatrixSos:
    def test_rank_one_matrix(self, xv):
        # [[1, x], [x, x^2]] = (1, x)(1, x)^T
        one = Polynomial.constant(xv, 1.0)
        x = parse_poly("x", xv)
        prog = SosProgram()
        h = prog.add_matrix_sos([[one, x], [x, x * x]])
        sol = prog.solve()
        assert sol.status == "optimal"
        assert sol.gram_min_eig(h) >= -1e-8

    def test_asymmetry_rejected(self, xv):
        one = Polynomial.constant(xv, 1.0)
        x = parse_poly("x", xv)
        prog = SosProgram()
        with pytest.raises(ValueError, match="asymmetry"):
            prog.add_matrix_sos([[one, x], [2.0 * x, x * x]])

    def test_indefinite_matrix_infeasible(self, xv):
        one = Polynomial.constant(xv, 1.0)
        x = parse_poly("x", xv)
        prog = SosProgram()
        # [[0, x], [x, 0]] has a negative eigenvalue whenever x != 0
        prog.add_matrix_sos([[0.0 * one, x], [x, 0.0 * one]])
        assert prog.solve().status == "infeasible"

    def test_quadratic_form_matches_at_samples(self, xy):
        # random L^T L with linear entries stays matrix SOS
        rng = np.random.default_rng(12)
        basis1 = monomial_basis(xy, 1)
        for trial in range(6):
            L = [[sum((float(rng.standard_normal()) * m for m in basis1),
                      Polynomial.zero(xy)) for _ in range(2)] for _ in range(2)]
            M = [[sum((L[k][i] * L[k][j] for k in range(2)), Polynomial.zero(xy))
                  for j in range(2)] for i in range(2)]
            prog = SosProgram()
            h = prog.add_matrix_sos(M)
            sol = prog.solve()
            assert sol.status == "optimal", (trial, sol.sdp.message)
            meta = sol.index["grams"][h]
            blocks_exps = [[tuple(e) for e in blk] for blk in meta["blocks"]]
            nvars = 2 + len(xy)
            pts = rng.uniform(-1, 1, size=(50, len(xy)))
            ys = rng.uniform(-1, 1, size=(50, 2))
            for p in range(20):
                xval = pts[p]
                yval = ys[p]
                want = sum(yval[i] * yval[j] * M[i][j].eval(xval)
                           for i in range(2) for j in range(2))
                zfull = np.concatenate([yval, xval])
                got = 0.0
                for G, exps in zip(sol.gram(h), blocks_exps):
                    zb = np.array([np.prod(zfull ** np.array(e)) for e in exps])
                    got += zb @ G @ zb
                assert abs(want - got) <= 1e-6 * (1 + abs(want)), trial


# ---------------------------------------------------------------------------
# clique-split Gram structure
class TestCliques:
    def test_star_split_feasible_and_exact(self, xy):
        # (1 + x1)^2 + (1 + x2)^2 respects the star pattern {1,x1}, {1,x2}
        p = parse_poly("2 + 2*x1 + 2*x2 + x1^2 + x2^2", xy)
        zb = monomial_basis(xy, 1)  # [1, x1, x2]
        prog = SosProgram()
        h = prog.add_matrix_sos([[p]], z_bases=[zb],
                                cliques=[[(0, 0), (0, 1)], [(0, 0), (0, 2)]])
        sol = prog.solve()
        assert sol.status == "optimal"
        # aggregated Gram polynomial reproduces the target exactly
        meta = sol.index["grams"][h]
        lifted = variables(["_q0", "x1", "x2"])
        total = Polynomial.zero(xy)
        for G, blk in zip(sol.gram(h), meta["blocks"]):
            gp = gram_polynomial(G, [tuple(e) for e in blk], lifted)
            total = total + Polynomial(xy, {e[1:]: c for e, c in gp.terms.items()})
        assert max_coeff(total - p) <= 1e-7

    def test_cross_term_outside_cliques_infeasible(self, xy):
        # x1*x2 cannot be produced by within-block products of the star split
        p = parse_poly("2 + 2*x1*x2 + x1^2 + x2^2", xy)
        zb = monomial_basis(xy, 1)
        prog = SosProgram()
        prog.add_matrix_sos([[p]], z_bases=[zb],
                            cliques=[[(0, 0), (0, 1)], [(0, 0), (0, 2)]])
        assert prog.solve().status == "infeasible"

    def test_dense_handles_cross_term(self, xy):
        p = parse_poly("2 + 2*x1*x2 + x1^2 + x2^2", xy)
        prog = SosProgram()
        h = prog.add_scalar_sos(p, basis=monomial_basis(xy, 1))
        sol = prog.solve()
        assert sol.status == "optimal"


# ---------------------------------------------------------------------------
# linear side constraints


class TestLinear:
    def test_inequality_via_slack(self, xv):
        prog = SosProgram()
        c = prog.new_coeff("c")
        prog.add_scalar_sos(AffinePoly.from_var(c, xv))  # c >= 0 as 1x1 SOS
        prog.add_linear([(c, 1.0)], rhs=3.0, sense=">=")
        prog.set_objective([(c, 1.0)], "min")
        sol = prog.solve()
        assert sol.status == "optimal"
        assert abs(sol.coeff(c) - 3.0) <= 1e-6

    def test_equality_pins_combination(self, xv):
        prog = SosProgram()
        a, b = prog.new_coeffs("a", 2)
        expr = AffinePoly.from_var(a, xv) * parse_poly("x^2", xv) \
            + AffinePoly.from_var(b, xv)
        prog.add_scalar_sos(expr)
        prog.add_linear([(a, 1.0), (b, 1.0)], rhs=2.0)
        prog.add_linear([(a, 1.0), (b, -1.0)], rhs=0.0)
        sol = prog.solve()
        assert sol.status == "optimal"
        assert abs(sol.coeff(a) - 1.0) <= 1e-6
        assert abs(sol.coeff(b) - 1.0) <= 1e-6

    def test_unknown_sense_rejected(self, xv):
        prog = SosProgram()
        c = prog.new_coeff()
        with pytest.raises(ValueError):
            prog.add_linear([(c, 1.0)], rhs=0.0, sense="!=")
