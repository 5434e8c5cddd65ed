"""Tests for the sum-of-squares programming layer."""

import numpy as np
import pytest

from issynth.poly import Polynomial, Variable, variables, monomial_basis, parse_poly
from issynth.sos import (
    AffinePoly,
    SosCertificateError,
    SosProgram,
    _structural_zeros,
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
        h = prog.add_scalar_sos(target, monomial_basis(xv, 2))
        sol = prog.solve()
        assert sol.status == "optimal"
        assert min(np.linalg.eigvalsh(G)[0] for G in sol.gram(h)) >= -1e-8
        exps = [tuple(e) for e in sol.index["grams"][h]["blocks"][0]]
        sos_terms = extract_certificate(sol.gram(h)[0], exps, xv)
        recon = Polynomial.zero(xv)
        for q in sos_terms:
            recon = recon + q * q
        assert max_coeff(recon - target) <= 1e-8
        ok, err = check_sos_numeric(target, sol.gram(h), [exps],
                                    np.random.default_rng(0))
        assert ok, err

    def test_certificate_rebuilds_the_target(self, xv):
        target = parse_poly("x^4 - 2*x^2 + 1", xv)
        prog = SosProgram()
        h = prog.add_scalar_sos(target, monomial_basis(xv, 2))
        sol = prog.solve()
        cert = sol.certificate(h)
        assert cert["vars"] == ["x"] and "margin" not in cert
        vs = variables(cert["vars"])
        recon = Polynomial.zero(vs)
        for G, exps in zip(cert["blocks"], cert["block_exps"]):
            recon = recon + gram_polynomial(np.array(G), [tuple(e) for e in exps], vs)
        assert max_coeff(recon - target.extend(vs)) <= 1e-8

    def test_negative_square_infeasible(self, xv):
        prog = SosProgram()
        prog.add_scalar_sos(parse_poly("-x^2", xv), monomial_basis(xv, 1))
        assert prog.solve().status == "infeasible"

    def test_motzkin_like_infeasible(self, xy):
        # PSD on R^2 but not SOS: x1^4 x2^2 + x1^2 x2^4 - 3 x1^2 x2^2 + 1
        p = parse_poly("x1^4*x2^2 + x1^2*x2^4 - 3*x1^2*x2^2 + 1", xy)
        prog = SosProgram()
        prog.add_scalar_sos(p, monomial_basis(xy, 3))
        assert prog.solve().status == "infeasible"

    def test_odd_degree_rejected(self, xv):
        prog = SosProgram()
        with pytest.raises(ValueError, match="odd"):
            prog.add_scalar_sos(parse_poly("x^3 + 1", xv), monomial_basis(xv, 2))

    def test_zero_polynomial_zero_gram(self, xv):
        prog = SosProgram()
        basis = monomial_basis(xv, 1)
        h = prog.add_scalar_sos(Polynomial.zero(xv), basis)
        sol = prog.solve()
        assert sol.status == "optimal"
        # both diagonal rows have no target: the block is pruned to nothing
        assert sol.index["grams"][h]["pruned"] == [[0, 1]]
        assert sol.index["gram_blocks"][h] == []
        assert np.array_equal(sol.gram(h)[0], np.zeros((2, 2)))

    def test_template_minimization(self, xv):
        # smallest c making x^4 - x^2 + c a sum of squares is 1/4
        prog = SosProgram()
        c = prog.new_coeff("c")
        expr = AffinePoly.promote(parse_poly("x^4 - x^2", xv), xv) \
            + AffinePoly.from_var(c, xv)
        prog.add_scalar_sos(expr, monomial_basis(xv, 2))
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
        # [[x^4 + 1]] over {q0, q0*x, q0*x^2}: rows force H00 = 1,
        # H22 = 1 - t and 2*H02 + H11 = -t; the best PSD choice H11 = 0,
        # H02 = -t/2 needs 1 - t >= t^2/4, so t* = 2*sqrt(2) - 2
        prog = SosProgram()
        t = prog.new_coeff("t")
        prog.add_matrix_sos([[parse_poly("x^4 + 1", xv)]],
                            z_bases=[monomial_basis(xv, 2)], margin=t)
        prog.set_objective([(t, 1.0)], "max")
        sol = prog.solve()
        assert sol.status == "optimal"
        assert abs(sol.coeff(t) - (2.0 * np.sqrt(2.0) - 2.0)) <= 1e-6

    def test_certificate_carries_the_margin(self, xv):
        # the blocks of [[x^4 + 1]] certify it only with t on the masked
        # diagonal: q0^2 (x^4 + 1) = sum of z^T (H + t D) z over the blocks
        prog = SosProgram()
        t = prog.new_coeff("t")
        h = prog.add_matrix_sos([[parse_poly("x^4 + 1", xv)]],
                                z_bases=[monomial_basis(xv, 2)], margin=t)
        prog.set_objective([(t, 1.0)], "max")
        sol = prog.solve()
        cert = sol.certificate(h)
        assert cert["vars"] == ["_q0", "x"]
        assert cert["margin"] == sol.coeff(t)
        assert cert["margin_mask"] == [[0.0, 1.0, 1.0]]
        vs = variables(cert["vars"])
        recon = Polynomial.zero(vs)
        for G, exps, mask in zip(cert["blocks"], cert["block_exps"],
                                 cert["margin_mask"]):
            H = np.array(G) + cert["margin"] * np.diag(mask)
            recon = recon + gram_polynomial(H, [tuple(e) for e in exps], vs)
        target = Polynomial(vs, {(2, 4): 1.0, (2, 0): 1.0})
        assert max_coeff(recon - target) <= 1e-8

    def test_negative_margin_measures_infeasibility(self, xv):
        # [[-x^2/2]] is not SOS; its x^2 row reads H11 + t = -1/2, so the
        # best PSD H bottoms out at t = -1/2
        prog = SosProgram()
        t = prog.new_coeff("t")
        h = prog.add_matrix_sos([[parse_poly("-0.5*x^2", xv)]],
                                z_bases=[monomial_basis(xv, 1)], margin=t)
        prog.set_objective([(t, 1.0)], "max")
        sol = prog.solve()
        assert sol.status == "optimal"
        assert abs(sol.coeff(t) + 0.5) <= 1e-6
        # the reported blocks are the raw H: PSD, and with t on the masked
        # diagonal they reproduce the target
        H = sol.gram(h)[0]
        assert np.linalg.eigvalsh(H)[0] >= -1e-8
        mask = np.array(sol.index["grams"][h]["margin_mask"][0], dtype=float)
        assert np.allclose(H + sol.coeff(t) * np.diag(mask), np.diag([0.0, -0.5]),
                           atol=1e-6)

    def test_matrix_margin_skips_constant_elements(self, xv):
        # [[1/4 + x^2]] over {q0, q0*x}: the margin shifts only the q0*x
        # diagonal entry, so t* = 1; a full-diagonal shift would stop at 1/4
        prog = SosProgram()
        t = prog.new_coeff("t")
        h = prog.add_matrix_sos([[parse_poly("0.25 + x^2", xv)]],
                                z_bases=[monomial_basis(xv, 1)], margin=t)
        prog.set_objective([(t, 1.0)], "max")
        sol = prog.solve()
        assert sol.status == "optimal"
        assert abs(sol.coeff(t) - 1.0) <= 1e-6
        assert sol.index["grams"][h]["margin_mask"] == [[False, True]]


# ---------------------------------------------------------------------------
# matrix SOS


class TestMatrixSos:
    def test_rank_one_matrix(self, xv):
        # [[1, x], [x, x^2]] = (1, x)(1, x)^T, given by its lower triangle
        one = Polynomial.constant(xv, 1.0)
        x = parse_poly("x", xv)
        prog = SosProgram()
        h = prog.add_matrix_sos([[one], [x, x * x]], [monomial_basis(xv, 1)] * 2)
        sol = prog.solve()
        assert sol.status == "optimal"
        assert min(np.linalg.eigvalsh(G)[0] for G in sol.gram(h)) >= -1e-8

    @pytest.mark.parametrize("shape", ["full", "ragged"])
    def test_entries_other_than_the_lower_triangle_rejected(self, xv, shape):
        # a full matrix could be asymmetric, so only row i of i + 1 entries
        # is accepted
        one = Polynomial.constant(xv, 1.0)
        x = parse_poly("x", xv)
        entries = {"full": [[one, x], [2.0 * x, x * x]], "ragged": [[one], [x]]}[shape]
        prog = SosProgram()
        with pytest.raises(ValueError, match="lower triangle"):
            prog.add_matrix_sos(entries, [monomial_basis(xv, 1)] * 2)

    def test_indefinite_matrix_infeasible(self, xv):
        one = Polynomial.constant(xv, 1.0)
        x = parse_poly("x", xv)
        prog = SosProgram()
        # [[0, x], [x, 0]] has a negative eigenvalue whenever x != 0
        prog.add_matrix_sos([[0.0 * one], [x, 0.0 * one]], [monomial_basis(xv, 1)] * 2)
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
            h = prog.add_matrix_sos([M[0][:1], M[1]], [basis1] * 2)  # M's lower triangle
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
# the matrix SOS target against a reference construction


def lifted_target_reference(entries) -> AffinePoly:
    """y^T M y for the lower triangle ``entries`` of M, built by AffinePoly
    arithmetic: each entry, weighted by 1 on the diagonal and 2 off it, is
    lifted onto its selector y_i*y_j through the validating Polynomial
    constructor and added to the running sum.  `add_matrix_sos` writes the
    same coefficients straight into term maps."""
    n = len(entries)
    base_vars = next(e.vars for row in entries for e in row
                     if isinstance(e, (AffinePoly, Polynomial)))
    M = [[AffinePoly.promote(e, base_vars) for e in row] for row in entries]
    allvars = tuple(Variable(f"_q{i}", i) for i in range(n)) \
        + tuple(Variable(v.name, n + k) for k, v in enumerate(base_vars))

    def lift_poly(p: AffinePoly, yexp: tuple[int, ...]) -> AffinePoly:
        def lp(q: Polynomial) -> Polynomial:
            return Polynomial(allvars, {yexp + e: c for e, c in q.terms.items()})
        return AffinePoly(allvars, lp(p.const), {i: lp(q) for i, q in p.lin.items()})

    target = AffinePoly(allvars, Polynomial.zero(allvars))
    for i in range(n):
        for j in range(i, n):
            yexp = [0] * n
            yexp[i] += 1
            yexp[j] += 1
            w = 1.0 if i == j else 2.0
            target = target + lift_poly(M[j][i] * w, tuple(yexp))
    return target


def use_reference_targets(monkeypatch) -> None:
    """Make every add_matrix_sos store lifted_target_reference's target."""
    add = SosProgram.add_matrix_sos

    def add_with_reference(self, entries, *args, **kwargs):
        h = add(self, entries, *args, **kwargs)
        self._grams[h].target = lifted_target_reference(entries)
        return h

    monkeypatch.setattr(SosProgram, "add_matrix_sos", add_with_reference)


def same_target(a: AffinePoly, b: AffinePoly) -> bool:
    """Equal term maps, with keys in the same order and bitwise-equal values."""
    def items(p: Polynomial):
        return [(e, float(c).hex()) for e, c in p.terms.items()]
    return (items(a.const) == items(b.const) and list(a.lin) == list(b.lin)
            and all(items(a.lin[i]) == items(b.lin[i]) for i in a.lin))


class TestLiftedTarget:
    @staticmethod
    def random_program(xy, cliques):
        # the lower triangle of a 3x3 matrix of quadratics; every entry
        # carries two of three decision variables, and a margin t
        rng = np.random.default_rng(23)
        prog = SosProgram()
        cs = prog.new_coeffs("c", 3)
        t = prog.new_coeff("t")
        mons = monomial_basis(xy, 2)
        M = [[None] * (i + 1) for i in range(3)]
        for i in range(3):
            for j in range(i, 3):
                e = AffinePoly.promote(sum((float(rng.standard_normal()) * m for m in mons),
                                           Polynomial.zero(xy)), xy)
                for c in rng.choice(cs, size=2, replace=False):
                    m = mons[int(rng.integers(len(mons)))]
                    e = e + AffinePoly.from_var(c, xy) * (float(rng.standard_normal()) * m)
                M[j][i] = e
        h = prog.add_matrix_sos(M, [monomial_basis(xy, 1)] * 3, cliques=cliques, margin=t)
        prog.set_objective([(t, 1.0)], "max")
        return prog, h, M

    @pytest.mark.parametrize("cliques", [
        None, [[(0, 0), (0, 1), (1, 0), (1, 2)], [(0, 0), (2, 0), (2, 1), (2, 2)]],
    ], ids=["dense", "cliques"])
    def test_random_matrix_compiles_identically(self, xy, cliques, monkeypatch):
        prog, h, M = self.random_program(xy, cliques)
        assert same_target(prog._grams[h].target, lifted_target_reference(M))
        prob = prog.compile()[0]
        use_reference_targets(monkeypatch)
        ref_prob = self.random_program(xy, cliques)[0].compile()[0]
        assert prob.to_json() == ref_prob.to_json()


# ---------------------------------------------------------------------------
# structurally zero Gram elements


class TestPruning:
    def test_row_selector_with_zero_diagonal_pruned(self):
        # y^T M y = (q0 x + q1 x)^2 + q1^2 for M = [[x^2, x^2], [x^2, x^2 + 1]];
        # M00 has no constant term, so G[q0, q0] is structurally zero
        xv = variables(["x"])
        x2 = parse_poly("x^2", xv)
        prog = SosProgram()
        h = prog.add_matrix_sos([[x2], [x2, x2 + 1.0]],
                                z_bases=[monomial_basis(xv, 1)] * 2)
        prob, index = prog.compile()
        assert index["grams"][h]["pruned"] == [[0]]
        assert prob.block_dims == [3]
        sol = prog.solve()
        assert sol.status == "optimal"
        G = sol.gram(h)[0]
        assert G.shape == (4, 4)
        assert not G[0].any() and not G[:, 0].any()
        exps = [tuple(e) for e in index["grams"][h]["blocks"][0]]
        lifted = variables(["_q0", "_q1", "x"])
        target = Polynomial(lifted, {(2, 0, 2): 1.0, (1, 1, 2): 2.0,
                                     (0, 2, 2): 1.0, (0, 2, 0): 1.0})
        ok, err = check_sos_numeric(target, [G], [exps], np.random.default_rng(0))
        assert ok, err

    def test_pruning_keeps_the_margin_on_the_rest(self, xv):
        # [[x^2]] over {q0, q0*x}: q0 has no target and no margin, so it goes;
        # the margin then sits on the q0*x diagonal alone and reaches t* = 1
        prog = SosProgram()
        t = prog.new_coeff("t")
        h = prog.add_matrix_sos([[parse_poly("x^2", xv)]],
                                z_bases=[monomial_basis(xv, 1)], margin=t)
        prog.set_objective([(t, 1.0)], "max")
        sol = prog.solve()
        assert sol.status == "optimal"
        assert sol.index["grams"][h]["pruned"] == [[0]]
        assert sol.index["grams"][h]["margin_mask"] == [[False, True]]
        assert abs(sol.coeff(t) - 1.0) <= 1e-6
        H = sol.gram(h)[0]
        assert not H[0].any() and not H[:, 0].any()
        assert np.allclose(H + sol.coeff(t) * np.diag([0.0, 1.0]), np.diag([0.0, 1.0]),
                           atol=1e-6)

    def test_propagation_repeats(self, xv):
        # x^4 over {1, x, x^2}: row 1 drops 1, which leaves row x^2 with the
        # diagonal G[x, x] alone, so x goes as well
        prog = SosProgram()
        h = prog.add_scalar_sos(parse_poly("x^4", xv), monomial_basis(xv, 2))
        prob, index = prog.compile()
        assert index["grams"][h]["pruned"] == [[0, 1]]
        assert prob.block_dims == [1]
        sol = prog.solve()
        assert sol.status == "optimal"
        assert np.allclose(sol.gram(h)[0], np.diag([0.0, 0.0, 1.0]), atol=1e-8)

    def test_decision_variable_in_zero_row_not_pruned(self, xv):
        # c + x^2 over {1, x}: the constant row has no fixed target, but c enters it
        prog = SosProgram()
        c = prog.new_coeff("c")
        expr = AffinePoly.promote(parse_poly("x^2", xv), xv) + AffinePoly.from_var(c, xv)
        h = prog.add_scalar_sos(expr, monomial_basis(xv, 1))
        prob, index = prog.compile()
        assert index["grams"][h]["pruned"] == [[]]
        assert prob.block_dims == [2]

    def test_margin_in_zero_row_not_pruned(self, xv):
        # [[1]] over {q0, q0*x}: the x^2 row has no target and no decision
        # variable of the matrix, but t shifts the q0*x diagonal and enters it
        prog = SosProgram()
        t = prog.new_coeff("t")
        h = prog.add_matrix_sos([[Polynomial.constant(xv, 1.0)]],
                                z_bases=[monomial_basis(xv, 1)], margin=t)
        assert prog.compile()[1]["grams"][h]["pruned"] == [[]]

    def test_mixed_sign_diagonals_not_pruned(self):
        # G_0[0,0] - G_1[0,0] = 0 holds with both positive; one sign forces zeros
        # (two one-element blocks over the basis {x}, row x^2, no target)
        mixed = {(2,): ([(0, 0, 0, 1.0), (1, 0, 0, -1.0)], {})}
        assert _structural_zeros(mixed, {}, 2) == [[], []]
        same = {(2,): ([(0, 0, 0, 1.0), (1, 0, 0, 1.0)], {})}
        assert _structural_zeros(same, {}, 2) == [[0], [0]]

    def test_off_diagonal_entry_not_pruned(self, xv):
        # x^4 + 1 over {1, x, x^2}: row x^2 reads G[x, x] + 2 G[1, x^2] = 0
        prog = SosProgram()
        h = prog.add_scalar_sos(parse_poly("x^4 + 1", xv), monomial_basis(xv, 2))
        prob, index = prog.compile()
        assert index["grams"][h]["pruned"] == [[]]
        assert prob.block_dims == [3]


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
        h = prog.add_scalar_sos(p, monomial_basis(xy, 1))
        sol = prog.solve()
        assert sol.status == "optimal"


# ---------------------------------------------------------------------------
# linear side constraints


class TestLinear:
    def test_inequality_via_slack(self, xv):
        prog = SosProgram()
        c = prog.new_coeff("c")
        prog.add_scalar_sos(AffinePoly.from_var(c, xv), monomial_basis(xv, 0))  # c >= 0
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
        prog.add_scalar_sos(expr, monomial_basis(xv, 1))
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
