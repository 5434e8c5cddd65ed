"""Polynomial core: ring axioms, evaluation oracle, gradient oracle, parsing."""

import json

import numpy as np
import pytest

from issynth.poly import (
    Polynomial,
    Variable,
    monomial_basis,
    parse_poly,
    squared_norm,
    variables,
)


@pytest.fixture
def xy():
    return variables(["x1", "x2"])


@pytest.fixture
def xe():
    return variables(["x1", "x2", "e1", "e2"])


def random_poly(rng, vars, max_deg=4, n_terms=6, scale=2.0):
    basis = monomial_basis(vars, max_deg)
    p = Polynomial.zero(vars)
    for b in rng.choice(len(basis), size=min(n_terms, len(basis)), replace=False):
        p = p + basis[b] * float(rng.uniform(-scale, scale))
    return p


def max_coeff_diff(a, b):
    d = a - b
    return max((abs(c) for c in d.terms.values()), default=0.0)


class TestVariables:
    def test_ordering_fixed_at_construction(self):
        vs = variables(["x1", "x2", "e1", "e2"])
        assert [v.index for v in vs] == [0, 1, 2, 3]
        assert [v.name for v in vs] == ["x1", "x2", "e1", "e2"]

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            variables(["x", "x"])


class TestMonomialBasis:
    def test_deg2_two_vars_order(self, xy):
        basis = monomial_basis(xy, 2)
        assert [m.to_string() for m in basis] == ["1", "x1", "x2", "x1^2", "x1*x2", "x2^2"]

    def test_exclude_constant(self, xy):
        basis = monomial_basis(xy, 2, include_constant=False)
        assert len(basis) == 5
        assert all(m.constant_term() == 0.0 for m in basis)

    def test_counts_match_binomial(self):
        # C(v + d, d) monomials of degree <= d in v variables
        from math import comb

        for nv in (1, 2, 3, 4):
            vs = variables([f"t{i}" for i in range(nv)])
            for d in (0, 1, 2, 3, 4):
                assert len(monomial_basis(vs, d)) == comb(nv + d, d)


class TestArithmetic:
    def test_zero_has_no_terms(self, xy):
        p = parse_poly("x1 + 2*x2", xy)
        assert (p - p).terms == {}
        assert (p - p).is_zero()

    def test_tiny_coefficients_dropped(self, xy):
        p = Polynomial(xy, {(1, 0): 1e-15})
        assert p.is_zero()

    def test_ring_axioms_randomized(self, xy):
        # distributivity/associativity hold to float rounding, not bit-exactly
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = random_poly(rng, xy)
            q = random_poly(rng, xy)
            r = random_poly(rng, xy)
            assert max_coeff_diff((p + q) * r, p * r + q * r) < 1e-12
            assert max_coeff_diff(p * q, q * p) < 1e-12
            assert max_coeff_diff((p * q) * r, p * (q * r)) < 1e-12
            assert p + Polynomial.zero(xy) == p
            assert p * Polynomial.constant(xy, 1.0) == p

    def test_product_degree(self, xy):
        p = parse_poly("x1^2 + x2", xy)
        q = parse_poly("x1*x2", xy)
        assert (p * q).degree() == 4

    def test_pow(self, xy):
        p = parse_poly("x1 + 1", xy)
        assert p**3 == p * p * p
        assert p**0 == Polynomial.constant(xy, 1.0)


class TestEvaluation:
    def test_eval_homomorphism(self, xy):
        # (p*q)(a) == p(a)*q(a) and (p+q)(a) == p(a)+q(a)
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_poly(rng, xy)
            q = random_poly(rng, xy)
            a = rng.uniform(-2, 2, size=2)
            lhs = (p * q).eval(a)
            rhs = p.eval(a) * q.eval(a)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
            assert (p + q).eval(a) == pytest.approx(p.eval(a) + q.eval(a), rel=1e-12, abs=1e-12)

    def test_eval_many_matches_eval(self, xe):
        rng = np.random.default_rng(3)
        p = random_poly(rng, xe, max_deg=5, n_terms=12)
        pts = rng.uniform(-2, 2, size=(40, 4))
        vals = p.eval_many(pts)
        for i in range(40):
            assert vals[i] == pytest.approx(p.eval(pts[i]), rel=1e-12, abs=1e-12)

    def test_eval_shape_check(self, xy):
        with pytest.raises(ValueError):
            parse_poly("x1", xy).eval([1.0, 2.0, 3.0])


class TestGradient:
    def test_against_central_differences(self, xy):
        # oracle: (p(a + h e_i) - p(a - h e_i)) / (2h), h = 1e-5
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(10):
            p = random_poly(rng, xy, max_deg=4)
            g = p.grad()
            for _ in range(5):
                a = rng.uniform(-1.5, 1.5, size=2)
                for i in range(2):
                    ap, am = a.copy(), a.copy()
                    ap[i] += h
                    am[i] -= h
                    fd = (p.eval(ap) - p.eval(am)) / (2 * h)
                    assert g[i].eval(a) == pytest.approx(fd, rel=1e-6, abs=1e-6)

    def test_gradient_of_constant(self, xy):
        g = Polynomial.constant(xy, 4.2).grad()
        assert all(gi.is_zero() for gi in g)


class TestSubstitution:
    def test_shift_expansion(self, xe):
        # -(x1+e1)^3 - 8*(x2+e2), fully expanded
        x_vars = variables(["x1", "x2"])
        k = parse_poly("-x1^3 - 8*x2", x_vars)
        x1, x2 = x_vars
        nx1 = parse_poly("x1 + e1", xe)
        nx2 = parse_poly("x2 + e2", xe)
        shifted = k.subst({x1: nx1, x2: nx2})
        expected = parse_poly(
            "-x1^3 - 3*x1^2*e1 - 3*x1*e1^2 - e1^3 - 8*x2 - 8*e2", xe
        )
        assert shifted == expected
        assert len(shifted.terms) == 6

    def test_identity_substitution(self, xy):
        rng = np.random.default_rng(2)
        p = random_poly(rng, xy)
        x1, x2 = xy
        ident = {x1: Polynomial.from_var(xy, x1), x2: Polynomial.from_var(xy, x2)}
        assert p.subst(ident) == p

    def test_subst_then_eval_equals_eval_at_image(self, xe):
        rng = np.random.default_rng(13)
        x_vars = variables(["x1", "x2"])
        x1, x2 = x_vars
        mapping = {
            x1: parse_poly("x1 + e1", xe),
            x2: parse_poly("x2 + e2", xe),
        }
        for _ in range(100):
            p = random_poly(rng, x_vars, max_deg=4)
            q = p.subst(mapping)
            pt = rng.uniform(-2, 2, size=4)
            direct = p.eval([pt[0] + pt[2], pt[1] + pt[3]])
            assert q.eval(pt) == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_nonaffine_substitution_rejected(self, xy):
        x1, x2 = xy
        with pytest.raises(ValueError):
            parse_poly("x1", xy).subst({x1: parse_poly("x1^2", xy), x2: parse_poly("x2", xy)})

    def test_missing_variable_rejected(self, xy):
        x1, _ = xy
        with pytest.raises(ValueError):
            parse_poly("x1*x2", xy).subst({x1: parse_poly("x1", xy)})


class TestTextAndJson:
    def test_render_reference_format(self, xy):
        p = Polynomial(xy, {(3, 0): -1.3188, (2, 1): -4.1114})
        assert p.to_string() == "-1.3188*x1^3 - 4.1114*x1^2*x2"

    def test_parse_render_roundtrip(self, xe):
        # text format keeps 12 significant digits, so compare to that precision
        rng = np.random.default_rng(17)
        for _ in range(30):
            p = random_poly(rng, xe, max_deg=5, n_terms=8)
            q = parse_poly(p.to_string(), xe)
            assert set(q.terms) == set(p.terms)
            assert max_coeff_diff(q, p) < 1e-10

    def test_parse_double_star_power(self, xy):
        assert parse_poly("x1**2", xy) == parse_poly("x1^2", xy)

    def test_parse_errors(self, xy):
        with pytest.raises(ValueError):
            parse_poly("x1 + y7", xy)
        with pytest.raises(ValueError):
            parse_poly("x1 +", xy)

    def test_json_roundtrip(self, xy):
        p = parse_poly("0.5*x1^2 - 2*x1*x2 + 1", xy)
        d = json.loads(p.to_json())
        assert d["terms"][0] == {"exponents": [0, 0], "coeff": 1.0}
        assert Polynomial.from_json(p.to_json()) == p


def test_squared_norm(xy):
    assert squared_norm(xy) == parse_poly("x1^2 + x2^2", xy)
