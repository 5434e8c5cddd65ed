"""Tests for the theorem-1 program assembly and the alternation's error paths.

Most build programs (step V and step K) or run tiny solves only.  The
negative-margin test runs alternate up to its first step-V solve, the loop
test runs it over a stand-in for `_step`, the step-V regression test
solves seven full step-V programs and the infeasibility tests four more,
each with one added row (about 0.7 s a program, one BLAS thread, 2 vCPU).
"""

import hashlib
import re

import numpy as np
import pytest

from issynth.consistency import build_data_matrices, ellipsoid_params, solve_overapprox
from issynth.poly import Polynomial, monomial_basis, parse_poly, variables
from issynth.sdp import format_trace, smat, validate_solution
from issynth import synthesis
from issynth import verify as _verify
from issynth.simulate import ExperimentConfig, collect_dataset, khalil_system
from issynth.sos import AffinePoly, SosProgram
from issynth.synthesis import (
    SynthesisConfig,
    SynthesisError,
    SynthesisResult,
    _refit_envelopes,
    alternate,
    assemble_theorem1,
)
from test_sos import use_reference_targets


@pytest.fixture
def khalil_ell():
    """Ellipsoid with a dense SPD shape matrix and dense B_bar, Khalil bases."""
    bases = khalil_system().bases
    p = bases.N + bases.M
    rng = np.random.default_rng(11)
    G = rng.standard_normal((p, p))
    ell = ellipsoid_params(G @ G.T + p * np.eye(p), rng.standard_normal((p, bases.n)))
    ell.bases = bases
    return ell


@pytest.fixture
def k_lin(khalil_ell):
    return parse_poly("-x1 - x2", khalil_ell.bases.vars)


def test_step_v_compiled_shape(khalil_ell, k_lin):
    prog, legend = assemble_theorem1(khalil_ell, SynthesisConfig(k_init=(k_lin,)),
                                     {"k": [k_lin]})
    assert legend["mode"] == "fit_V"
    prob, index = prog.compile()
    # the row-0 element y0*1 of s4 has a structurally zero diagonal: its
    # target coefficient is zero, the margin skips it and no decision
    # variable enters, so it leaves both cliques
    assert [g["pruned"] for g in index["grams"]] == [[[0], [0]], [[]], [[]]]
    assert prob.n_rows == 2653
    assert prob.n_free == 82
    assert [d for d in prob.block_dims if d > 1] == [24, 44, 5, 15]
    assert sum(1 for d in prob.block_dims if d == 1) == 159


def test_step_v_forms_one_class_per_block(khalil_ell, k_lin, monkeypatch):
    # step V's four Gram blocks have four dimensions: four classes of one
    from test_sdp import _classes_of

    prob = assemble_theorem1(khalil_ell, SynthesisConfig(k_init=(k_lin,)),
                             {"k": [k_lin]})[0].compile()[0]
    classes, calls = _classes_of(prob, monkeypatch)
    assert [(d, len(blocks)) for d, blocks in classes] == [(24, 1), (44, 1), (5, 1), (15, 1)]
    assert calls == {"_Scaling": 4, "_max_step_psd": 16}


def test_step_v_target_matches_reference(khalil_ell, k_lin, monkeypatch):
    # s4's lifted target, written straight into term maps, compiles to the
    # same bytes as the reference built by AffinePoly arithmetic
    cfg = SynthesisConfig(k_init=(k_lin,))
    prob = assemble_theorem1(khalil_ell, cfg, {"k": [k_lin]})[0].compile()[0]
    use_reference_targets(monkeypatch)
    ref = assemble_theorem1(khalil_ell, cfg, {"k": [k_lin]})[0].compile()[0]
    assert prob.to_json() == ref.to_json()


def test_step_k_compiled_shape(khalil_ell, k_lin):
    xv = khalil_ell.bases.vars
    fixed = {"V": parse_poly("x1^2 + x2^2", xv),
             "lambda": parse_poly("1 + e1^2", variables(["x1", "x2", "e1", "e2"]))}
    prog, legend = assemble_theorem1(khalil_ell, SynthesisConfig(k_init=(k_lin,)), fixed)
    assert legend["mode"] == "fit_k"
    assert list(legend["s_handles"]) == ["s4"]
    prob, index = prog.compile()
    # s4 loses its row-0 element y0*1 as in step V
    assert [g["pruned"] for g in index["grams"]] == [[[0], [0]]]
    assert prob.n_rows == 883
    assert prob.n_free == 14
    assert [d for d in prob.block_dims if d > 1] == [24, 44]
    assert sum(1 for d in prob.block_dims if d == 1) == 6


def _khalil_step_ell(seed):
    """The ellipsoid of the benchmark's experiment (x0 = (0.5, -0.5),
    T = 30, d_radius 0.05) at collection seed ``seed``."""
    sys = khalil_system()
    exp = ExperimentConfig(T=30, sample_spacing=0.05, u_bound=1.0, d_radius=0.05,
                           x0=(0.5, -0.5), seed=seed)
    return solve_overapprox(build_data_matrices(collect_dataset(sys, exp)), bases=sys.bases)


def _khalil_step_v(seed, k):
    """Step V's program and legend on the benchmark's experiment at
    collection seed ``seed``, for the controller ``k``."""
    ell = _khalil_step_ell(seed)
    kp = parse_poly(k, ell.bases.vars)
    return assemble_theorem1(ell, SynthesisConfig(k_init=(kp,)), {"k": [kp]})


@pytest.mark.parametrize("seed, k", [(2, "-x1 - x2"), (9, "-x1 - x2"), (0, "-x2"),
                                     (0, "-2*x2 - x1^2"), (1, "-x2"), (3, "-x2"),
                                     (5, "-2*x2 - x1^2")])
def test_step_v_ends_optimal(seed, k):
    # the benchmark's experiment (x0 = (0.5, -0.5), T = 30, d_radius 0.05).
    # Seeds 2 and 9 used to end numerical-failure after 128-142 iterations,
    # because s4 had no strictly feasible point until its structurally zero
    # row-0 element was pruned.  (0, -x2) and (1, -x2) ended feasible (37
    # and 121 iterations, Schur jitter in 12 and 13) while the free columns
    # were rotated by dense SVD bases and the KKT solves not refined; the
    # program's own free columns converge without refinement.  The last two
    # stalled (168 and 175 iterations) until the free-variable Schur factor
    # came from a QR of L^-1 A_F without a diagonal shift; every case now
    # converges without jitter
    sol = _khalil_step_v(seed, k)[0].solve()
    detail = f"{sol.sdp.message}\n{format_trace(sol.sdp.trace)}"
    assert sol.status == "optimal", detail
    assert sol.sdp.iterations <= 25, detail
    assert not any(e["jitter"] for e in sol.sdp.trace), detail
    assert validate_solution(sol.problem, sol.sdp)["ok"], detail


@pytest.mark.parametrize("seed, floor", [(0, -3.78), (1, -6.86), (4, -13.917)])
def test_step_v_above_its_margin_ends_infeasible(seed, floor):
    # with k = -x1 - x2, step V ends optimal at t = -3.876 (seed 0), -6.960
    # (seed 1) and -14.017 (seed 4); a row t >= floor, about 0.1 above,
    # leaves no feasible point.  The solve must say so with a Farkas
    # certificate, checked here from the program's arrays and y alone:
    # b.y > 0, A_free^T y = 0 and -A_psd^T y in every block's cone, and by
    # the same check's oracle.  Seed 4 ended numerical-failure ("tau
    # collapsed without clean certificate") while the free columns were
    # rotated by dense SVD bases
    prog, legend = _khalil_step_v(seed, "-x1 - x2")
    prog.add_linear([(legend["t"], 1.0)], floor, ">=")
    sol = prog.solve()
    assert sol.status == "infeasible", f"{sol.sdp.message}\n{format_trace(sol.sdp.trace)}"
    report = _verify.check_infeasibility_certificate(sol.problem, sol.sdp.y)
    assert report.passed, report.summary()
    A_psd, A_free, b, _, _ = sol.problem.arrays()
    y = sol.sdp.y
    scale = np.linalg.norm(y)
    assert b @ y > 0.0
    assert np.linalg.norm(A_free.T @ y) <= 1e-6 * scale
    z = -(A_psd.T @ y)
    for cols, d in zip(sol.problem.block_slices(), sol.problem.block_dims):
        assert np.linalg.eigvalsh(smat(z[cols], d))[0] >= -1e-9 * scale


def test_infeasible_step_records_its_certificate(monkeypatch):
    # step V with the row t >= -3.78 of the test above (collection seed 0):
    # the step is rejected as infeasible, and its record carries the
    # oracle's verdict on the dual ray
    real = synthesis.assemble_theorem1

    def above_margin(ell, cfg, fixed):
        prog, legend = real(ell, cfg, fixed)
        prog.add_linear([(legend["t"], 1.0)], -3.78, ">=")
        return prog, legend

    monkeypatch.setattr(synthesis, "assemble_theorem1", above_margin)
    ell = _khalil_step_ell(0)
    k = parse_poly("-x1 - x2", ell.bases.vars)
    rec, res = synthesis._step(ell, SynthesisConfig(k_init=(k,)), 1, "V", None)
    assert res is None and rec["status"] == "infeasible", rec
    assert rec["certificate"]["passed"], rec
    assert 0.0 <= rec["certificate"]["worst"] <= _verify.FARKAS_FREE_TOL


def test_linear_rows_labelled_by_group(khalil_ell, k_lin):
    prog, _ = assemble_theorem1(khalil_ell, SynthesisConfig(k_init=(k_lin,)), {"k": [k_lin]})
    fams = prog.compile()[1]["row_families"]
    assert [name for name, _, _ in fams] == [
        "s4", "s1", "s3", "a3 gates", "a4 gates", "a1 gates", "a1 pin", "V/lambda caps"]
    assert fams[0][1] == 0 and fams[-1][2] == 2653
    assert all(a[2] == b[1] for a, b in zip(fams, fams[1:]))
    # N3 = N4 = N1 = 2 coefficients, each with two gates; 75 V and lambda coefficients
    assert [b - a for name, a, b in fams[3:]] == [3, 3, 3, 1, 150]


def test_localize_infeasibility_names_the_binding_family():
    # five coefficients pinned to sum 1 and each capped at 0.01 cannot all
    # hold: the Farkas ray of pin and caps weights each of those six rows
    # equally, 5/6 of it on the caps.  The Gram family "s" (c0 x^2 + 1 is
    # SOS for c0 >= 0) takes no part in the conflict.
    xv = variables(["x"])
    prog = SosProgram()
    cs = prog.new_coeffs("c_", 5)
    prog.add_scalar_sos(AffinePoly(xv, Polynomial.constant(xv, 1.0),
                                   {cs[0].index: parse_poly("x^2", xv)}),
                        monomial_basis(xv, 1), name="s")
    prog.add_linear([(c, 1.0) for c in cs], 1.0, "==", "pin")
    for c in cs:
        prog.add_linear([(c, 1.0)], 0.01, "<=", "caps")
    sol = prog.solve()
    assert sol.status == "infeasible"
    assert [name for name, _, _ in sol.index["row_families"]] == ["s", "pin", "caps"]
    assert re.fullmatch(r"dual ray concentrates on caps rows \(\d+% of mass\)",
                        sol.ray_family())


def test_fixed_must_name_one_side(khalil_ell, k_lin):
    cfg = SynthesisConfig(k_init=(k_lin,))
    V = parse_poly("x1^2 + x2^2", khalil_ell.bases.vars)
    lam = Polynomial.constant(variables(["x1", "x2", "e1", "e2"]), 1.0)
    with pytest.raises(SynthesisError, match="bilinear"):
        assemble_theorem1(khalil_ell, cfg, {"k": [k_lin], "V": V, "lambda": lam})


def test_fixed_polynomial_outside_its_variables_rejected(khalil_ell, k_lin):
    # k and V live in the state variables, lambda in the state and error
    # variables; assemble_theorem1 names any other variable, and alternate
    # reaches the same check before its first solve
    xev = variables(["x1", "x2", "e1", "e2"])
    V = parse_poly("x1^2 + x2^2", khalil_ell.bases.vars)
    lam = Polynomial.constant(xev, 1.0)
    k_y = parse_poly("-x1 - y", variables(["x1", "y"]))
    cases = [
        ({"k": [k_y]}, "fixed controller uses variables ['y']"),
        ({"V": parse_poly("x1^2 + e1^2", xev), "lambda": lam},
         "fixed V uses variables ['e1', 'e2']"),
        ({"V": V, "lambda": parse_poly("1 + z^2", variables(["x1", "z"]))},
         "fixed lambda uses variables ['z']"),
    ]
    cfg = SynthesisConfig(k_init=(k_lin,))
    for fixed, match in cases:
        with pytest.raises(SynthesisError, match=re.escape(match)):
            assemble_theorem1(khalil_ell, cfg, fixed)
    with pytest.raises(SynthesisError, match=re.escape(cases[0][1])):
        alternate(khalil_ell, SynthesisConfig(k_init=(k_y,)))


def test_ellipsoid_without_bases_rejected(khalil_ell, k_lin):
    khalil_ell.bases = None
    with pytest.raises(SynthesisError, match="regressor bases"):
        assemble_theorem1(khalil_ell, SynthesisConfig(k_init=(k_lin,)), {"k": [k_lin]})


@pytest.mark.parametrize("kwargs, match", [
    ({"epsilon": 0.0}, "epsilon"),
    ({"rounds": 0}, "rounds"),
    ({"deg_V": 0}, "degree caps"),
    ({"N3": 0}, "at least one term"),
    ({"deg_k": 0}, "degree caps"),
    ({"epsilon": float("nan")}, "epsilon"),
    ({"epsilon": float("inf")}, "epsilon"),
    ({"deg_V": 2.5}, "deg_V must be an integer"),
    ({"deg_k": 3.0}, "deg_k must be an integer"),
    ({"deg_lambda": 4.0}, "deg_lambda must be an integer"),
    ({"N1": 2.0}, "N1 must be an integer"),
    ({"N2": "2"}, "N2 must be an integer"),
    ({"N3": 2.0}, "N3 must be an integer"),
    ({"N4": 2.5}, "N4 must be an integer"),
    ({"rounds": 1.5}, "rounds must be an integer"),
    ({"rounds": float("nan")}, "rounds must be an integer"),
])
def test_config_validation(k_lin, kwargs, match):
    with pytest.raises(ValueError, match=match):
        SynthesisConfig(k_init=(k_lin,), **kwargs)


def test_config_rejects_bad_k_init(k_lin):
    xv = k_lin.vars
    with pytest.raises(ValueError, match="vanish at the origin"):
        SynthesisConfig(k_init=(k_lin + 1.0,))
    with pytest.raises(ValueError, match="exceeds deg_k"):
        SynthesisConfig(k_init=(parse_poly("x1^4", xv),))
    with pytest.raises(ValueError, match="one entry per input"):
        SynthesisConfig(k_init=())


def test_odd_degree_multiplier_is_a_synthesis_error(k_lin):
    xv = k_lin.vars
    xev = variables(["x1", "x2", "e1", "e2"])
    V = parse_poly("x1^2 + x2^2", xv)
    lam = parse_poly("1 + 0.01*x1^2*e1", xev)
    with pytest.raises(SynthesisError, match="odd degree 3"):
        _refit_envelopes(V, lam, SynthesisConfig(k_init=(k_lin,)), xv, xev)


def test_result_json_roundtrip(k_lin):
    bases = khalil_system().bases
    xev = variables(["x1", "x2", "e1", "e2"])
    res = SynthesisResult(
        bases=bases, k=(k_lin,), V=parse_poly("0.5*x1^2 + x2^2", bases.vars),
        alpha=(np.array([0.5]), np.array([2.0, 0.1]), np.array([1e-3]), np.array([1.0])),
        lam=parse_poly("2 + 0.25*e1^2", xev), epsilon=1e-4,
        certificates={"s3": {"blocks": [[[1.0]]], "block_exps": [[[0, 0, 0, 0]]],
                             "vars": ["x1", "x2", "e1", "e2"]}},
        history=[{"round": 1, "step": "V", "status": "optimal"}],
        margin=-0.25, ellipsoid_hash="abc")
    back = SynthesisResult.from_json(res.to_json())
    assert back.bases == bases
    assert back.k == res.k and back.V == res.V and back.lam == res.lam
    assert back.lam.vars == xev
    for a, b in zip(back.alpha, res.alpha):
        assert np.array_equal(a, b)
    assert (back.epsilon, back.margin, back.ellipsoid_hash) == (1e-4, -0.25, "abc")
    assert back.certificates == res.certificates and back.history == res.history
    assert back.to_json() == res.to_json()


def test_negative_margin_fails_before_the_box_check(khalil_ell, k_lin, monkeypatch):
    # step V on this ellipsoid ends with t < 0: the Gram matrix is then not
    # certified, so the step must be rejected without sampling the box
    def no_box_check(*args, **kwargs):
        raise AssertionError("box check ran on a negative margin")

    monkeypatch.setattr(_verify, "theorem1_matrix_values", no_box_check)
    with pytest.raises(SynthesisError, match="negative-margin") as err:
        alternate(khalil_ell, SynthesisConfig(k_init=(k_lin,)))
    t = float(re.search(r"t = (\S+) < 0", str(err.value)).group(1))
    assert -0.6 < t < -0.5


def test_alternate_carries_the_last_accepted_step(khalil_ell, k_lin, monkeypatch):
    # no test configuration reaches an accepted step, so _step is replaced:
    # each step starts from the last accepted result, the loop stops at the
    # first rejection, and that result comes back with every record
    xev = variables(["x1", "x2", "e1", "e2"])
    seen = []

    def fake_step(ell, cfg, rnd, step, prev):
        seen.append(prev)
        rec = {"round": rnd, "step": step, "status": "optimal"}
        if (rnd, step) == (2, "k"):
            rec.update(status="feasibility-loss", diagnostic="box")
            return rec, None
        return rec, SynthesisResult(
            bases=ell.bases, k=(k_lin,), V=parse_poly("x1^2 + x2^2", k_lin.vars),
            alpha=(np.ones(1),) * 4, lam=Polynomial.constant(xev, 1.0),
            epsilon=cfg.epsilon, certificates={}, margin=float(len(seen)))

    monkeypatch.setattr(synthesis, "_step", fake_step)
    monkeypatch.setattr(_verify, "verify_suite", lambda res, ell: [])
    res = alternate(khalil_ell, SynthesisConfig(k_init=(k_lin,), rounds=3))
    assert [None if p is None else p.margin for p in seen] == [None, 1.0, 2.0, 3.0]
    assert res.margin == 3.0
    assert [(h["round"], h["step"], h["status"]) for h in res.history] == [
        (1, "V", "optimal"), (1, "k", "optimal"), (2, "V", "optimal"),
        (2, "k", "feasibility-loss")]
    assert res.ellipsoid_hash == hashlib.sha256(khalil_ell.to_json().encode()).hexdigest()
    assert seen[-1].history == [] and seen[-1].ellipsoid_hash == ""
