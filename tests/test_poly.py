"""Polynomial core: ring axioms, evaluation oracle, gradient oracle, parsing."""

import copy
import pickle
import struct

import numpy as np
import pytest

from issynth.poly import (
    Polynomial,
    Variable,
    eval_all,
    eval_floats,
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


def float64_eval(p, point):
    """Reference evaluator: the term loop on numpy float64 scalars that
    eval_all must reproduce bit for bit."""
    pt = np.asarray(point, dtype=float)
    if pt.shape != (len(p.vars),):
        raise ValueError(f"expected point of length {len(p.vars)}, got {pt.shape}")
    total = 0.0
    for exps, c in p.terms.items():
        v = c
        for xi, e in zip(pt, exps):
            if e:
                v *= xi**e
        total += v
    return total


def same_bits(a, b) -> bool:
    """Equal as float64 bit patterns: tells -0.0 from 0.0 and compares nan."""
    return np.float64(a).tobytes() == np.float64(b).tobytes()


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


# Reference arithmetic: each operation's raw term dict handed to the
# validating constructor, as every result was built before arithmetic went
# through the trusted one.  Same loops, same order of operations.


def ref_add(a, b):
    out = dict(a.terms)
    for e, c in b.terms.items():
        out[e] = out.get(e, 0.0) + c
    return Polynomial(a.vars, out)


def ref_neg(a):
    return Polynomial(a.vars, {e: -c for e, c in a.terms.items()})


def ref_scale(a, s):
    return Polynomial(a.vars, {e: c * s for e, c in a.terms.items()})


def ref_mul(a, b):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            out[e] = out.get(e, 0.0) + ca * cb
    return Polynomial(a.vars, out)


def ref_pow(a, k):
    out, base = Polynomial.constant(a.vars, 1.0), a
    while k:
        if k & 1:
            out = ref_mul(out, base)
        base = ref_mul(base, base) if k > 1 else base
        k >>= 1
    return out


def ref_grad(a):
    outs = []
    for i in range(len(a.vars)):
        d = {}
        for exps, c in a.terms.items():
            if exps[i]:
                e = list(exps)
                e[i] -= 1
                d[tuple(e)] = d.get(tuple(e), 0.0) + c * exps[i]
        outs.append(Polynomial(a.vars, d))
    return outs


def ref_extend(a, new_vars):
    pos = [[v.name for v in new_vars].index(v.name) for v in a.vars]
    out = {}
    for exps, c in a.terms.items():
        e = [0] * len(new_vars)
        for p, ei in zip(pos, exps):
            e[p] = ei
        out[tuple(e)] = out.get(tuple(e), 0.0) + c
    return Polynomial(new_vars, out)


def ref_subst(a, images):
    new_vars = images[0].vars
    powers = []
    for i, im in enumerate(images):
        ps = [Polynomial.constant(new_vars, 1.0)]
        for _ in range(max((e[i] for e in a.terms), default=0)):
            ps.append(ref_mul(ps[-1], im))
        powers.append(ps)
    out = Polynomial.zero(new_vars)
    for exps, c in a.terms.items():
        term = Polynomial.constant(new_vars, c)
        for i, e in enumerate(exps):
            if e:
                term = ref_mul(term, powers[i][e])
        out = ref_add(out, term)
    return out


def assert_same_polynomial(got, want):
    """Same variables, keys in the same order, int exponents, Python float
    coefficients with the same bits (nan included)."""
    assert got.vars == want.vars
    assert list(got.terms) == list(want.terms)
    for e, c in got.terms.items():
        assert type(e) is tuple and all(type(i) is int for i in e), e
        assert type(c) is float, (e, type(c))
        assert same_bits(c, want.terms[e]), (e, c, want.terms[e])


def contract_poly(rng, vars, n_terms):
    """Random terms whose sums and products cross ZERO_TOL and carry nan:
    magnitudes 1e-16 to 10, a few exact opposites of each other."""
    basis = monomial_basis(vars, 3)
    terms = {}
    for b in rng.choice(len(basis), size=n_terms, replace=False):
        exps = tuple(np.int64(e) for e in next(iter(basis[b].terms)))
        terms[exps] = float(rng.standard_normal() * 10.0 ** rng.integers(-16, 2))
    return Polynomial(vars, terms)


class TestTrustedArithmetic:
    """Arithmetic results skip re-validation; each must equal the reference
    above, which validates the same raw terms."""

    def test_equal_to_validating_constructor(self, xe):
        rng = np.random.default_rng(3)
        xy = xe[:2]
        shift = {xy[0]: parse_poly("x1 + e1", xe), xy[1]: parse_poly("x2 - 2*e2 + 0.5", xe)}
        for trial in range(200):
            a = contract_poly(rng, xy, int(rng.integers(0, 9)))
            b = contract_poly(rng, xy, int(rng.integers(0, 9)))
            if trial % 4 == 0:  # cancellations: a + b then leaves tiny terms
                b = Polynomial(xy, {e: -c * (1 + 1e-15) for e, c in a.terms.items()})
            if trial % 7 == 0 and a.terms:  # nan must survive every operation
                e = next(iter(a.terms))
                a = Polynomial(xy, {**a.terms, e: float("nan")})
            s = float(rng.standard_normal())
            assert_same_polynomial(a + b, ref_add(a, b))
            assert_same_polynomial(a - b, ref_add(a, ref_neg(b)))
            assert_same_polynomial(-a, ref_neg(a))
            assert_same_polynomial(a * b, ref_mul(a, b))
            assert_same_polynomial(a * s, ref_scale(a, s))
            assert_same_polynomial(a * np.float64(s), ref_scale(a, np.float64(s)))
            assert_same_polynomial(a + s, ref_add(a, Polynomial.constant(xy, s)))
            assert_same_polynomial(a ** 3, ref_pow(a, 3))
            for got, want in zip(a.grad(), ref_grad(a)):
                assert_same_polynomial(got, want)
            assert_same_polynomial(a.extend(xe), ref_extend(a, xe))
            assert_same_polynomial(a.subst(shift), ref_subst(a, [shift[v] for v in xy]))

    def test_tiny_results_dropped_and_nan_kept(self, xy):
        a = Polynomial(xy, {(1, 0): 1.0, (0, 1): float("nan")})
        b = Polynomial(xy, {(1, 0): -1.0 + 1e-15})
        assert list((a + b).terms) == [(0, 1)]
        assert np.isnan((a * 2.0).coeff((0, 1)))
        assert (a * 1e-15).terms.keys() == {(0, 1)}


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
        # eval_many's array arithmetic may differ from eval's in the last
        # bits: bounded relative to the sum of the terms' magnitudes, which
        # a cancelling sum can make much larger than the value
        rng = np.random.default_rng(3)
        polys = [random_poly(rng, xe, max_deg=5, n_terms=12) for _ in range(20)]
        polys += [Polynomial.zero(xe), Polynomial.constant(xe, -2.5)]
        pts = rng.uniform(-2, 2, size=(200, 4))
        for p in polys:
            vals = p.eval_many(pts)
            assert vals.shape == (200,)
            magnitude = Polynomial(xe, {e: abs(c) for e, c in p.terms.items()})
            for x, v in zip(pts, vals):
                assert abs(v - p.eval(x)) <= 1e-13 * magnitude.eval(np.abs(x))
        assert Polynomial.constant(xe, 1.0).eval_many(np.zeros((0, 4))).shape == (0,)

    def test_eval_shape_check(self, xy):
        with pytest.raises(ValueError):
            parse_poly("x1", xy).eval([1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            eval_all((parse_poly("x1", xy),), [[1.0, 2.0]])
        with pytest.raises(ValueError):
            parse_poly("x1", xy).eval_many(np.zeros((3, 3)))


class TestScalarEvaluator:
    def test_bitwise_equal_to_float64_loop(self):
        rng = np.random.default_rng(17)
        xyz = variables(["x1", "x2", "x3"])
        polys = [random_poly(rng, xyz, max_deg=7, n_terms=25, scale=3.0) for _ in range(4)]
        polys.append(parse_poly("x1^7 - 2.5*x2^7 + x3^7 + x1^3*x2^4 - x1*x2^3*x3^3", xyz))
        assert max(max(e) for p in polys for e in p.terms) == 7
        for _ in range(1000):
            pt = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4, size=3)
            want = [float64_eval(p, pt) for p in polys]
            got = eval_all(polys, pt)
            assert all(type(v) is float for v in got)
            assert all(same_bits(g, w) for g, w in zip(got, want))
            assert all(same_bits(p.eval(list(pt)), w) for p, w in zip(polys, want))
            assert all(same_bits(g, w) for g, w in zip(eval_floats(polys, pt.tolist()), want))

    def test_kernel_keeps_coefficient_bits(self):
        # the constructor drops a -0.0 coefficient, so set the terms directly;
        # a printed coefficient would turn inf into a name and lose the payload
        # of this nan
        xyz = variables(["x1", "x2", "x3"])
        nan_payload = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]

        def raw(terms):
            p = Polynomial.zero(xyz)
            p.terms = dict(terms)
            return p

        polys = [
            raw({(1, 0, 0): -0.0, (0, 0, 0): -0.0}),
            raw({(0, 2, 1): np.inf, (1, 0, 0): 2.0}),
            raw({(0, 0, 3): nan_payload}),
            Polynomial.zero(xyz),
            random_poly(np.random.default_rng(3), xyz, max_deg=7, n_terms=100),
        ]
        assert len(polys[4].terms) > 64  # its kernel sums in two statements
        rng = np.random.default_rng(17)
        for _ in range(1000):
            pt = rng.standard_normal(3) * 10.0 ** rng.integers(-3, 4, size=3)
            with np.errstate(invalid="ignore"):
                want = [float64_eval(p, pt) for p in polys]
            got = eval_all(polys, pt)
            assert all(type(v) is float for v in got)
            assert all(same_bits(g, w) for g, w in zip(got, want)), (pt, got, want)
        assert same_bits(eval_all(polys[2:3], [1.0, 1.0, 1.0])[0], nan_payload)
        assert eval_all(polys[3:4], [1.0, 2.0, 3.0]) == [0.0]

    def test_evaluated_polynomial_pickles_and_compares_equal(self, xy):
        p = parse_poly("x1^3 - 2.5*x1*x2 + 0.25", xy)
        want = p.eval([0.3, -1.7])
        for q in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
            assert q == p and hash(q) == hash(p)
            assert same_bits(q.eval([0.3, -1.7]), want)
        assert pickle.loads(pickle.dumps(p + 1.0)) == p + 1.0

    def test_overflow_gives_float64_inf_and_nan(self, xy):
        polys = [parse_poly(s, xy) for s in ("x1^2", "-x1^3", "x1^2 - x2^2", "x1^2*x2", "x2 + 1")]
        for pt in ([1e200, 1e200], [-1e200, 3.0], [1e200, -1e-200], [np.inf, 1.0], [np.nan, 1e200]):
            with np.errstate(over="ignore", invalid="ignore"):
                want = [float64_eval(p, pt) for p in polys]
                got = eval_all(polys, pt)
                unchecked = eval_floats(polys, [float(v) for v in pt])
            assert all(same_bits(g, w) for g, w in zip(got, want)), (pt, got, want)
            assert all(same_bits(g, w) for g, w in zip(unchecked, want)), (pt, unchecked, want)
        with np.errstate(over="ignore", invalid="ignore"):
            got = eval_all(polys, [1e200, 1e200])
        assert got[:2] == [np.inf, -np.inf] and np.isnan(got[2])
        assert got[3:] == [np.inf, 1e200]

    def test_overflow_warns_as_float64_does(self, xy):
        p = parse_poly("x1^2", xy)
        with np.errstate(over="warn"), pytest.warns(RuntimeWarning, match="overflow"):
            assert p.eval([1e200, 0.0]) == np.inf


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
        # a non-integer exponent is named, not truncated to x1^2 or x1^0
        with pytest.raises(ValueError, match="'2.5'"):
            parse_poly("x1^2.5", xy)
        with pytest.raises(ValueError, match="'0.9'"):
            parse_poly("3*x1^0.9", xy)


def test_squared_norm(xy):
    assert squared_norm(xy) == parse_poly("x1^2 + x2^2", xy)
