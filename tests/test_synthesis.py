"""Tests for the theorem-1 program assembly and the alternation's error paths.

All of them build programs or run tiny solves only; none runs alternate.
"""

import numpy as np
import pytest

from issynth.consistency import ellipsoid_params
from issynth.poly import Polynomial, parse_poly, variables
from issynth.simulate import khalil_system
from issynth.synthesis import (
    SynthesisConfig,
    SynthesisError,
    SynthesisResult,
    _refit_envelopes,
    assemble_theorem1,
)


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
    prob, _ = prog.compile()
    assert prob.n_rows == 2660
    assert prob.n_free == 82
    assert [d for d in prob.block_dims if d > 1] == [25, 45, 5, 15]
    assert sum(1 for d in prob.block_dims if d == 1) == 159


def test_fixed_must_name_one_side(khalil_ell, k_lin):
    cfg = SynthesisConfig(k_init=(k_lin,))
    V = parse_poly("x1^2 + x2^2", khalil_ell.bases.vars)
    lam = Polynomial.constant(variables(["x1", "x2", "e1", "e2"]), 1.0)
    with pytest.raises(SynthesisError, match="bilinear"):
        assemble_theorem1(khalil_ell, cfg, {"k": [k_lin], "V": V, "lambda": lam})


def test_ellipsoid_without_bases_rejected(khalil_ell, k_lin):
    khalil_ell.bases = None
    with pytest.raises(SynthesisError, match="regressor bases"):
        assemble_theorem1(khalil_ell, SynthesisConfig(k_init=(k_lin,)), {"k": [k_lin]})


@pytest.mark.parametrize("kwargs, match", [
    ({"epsilon": 0.0}, "epsilon"),
    ({"rounds": 0}, "rounds"),
    ({"check_samples": 0}, "box"),
    ({"deg_V": 0}, "degree caps"),
    ({"N3": 0}, "at least one term"),
    ({"deg_k": 0}, "degree caps"),
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
