"""Tests for ground-truth integration, data collection, and event triggering."""

import copy
import pickle
import warnings

import numpy as np
import pytest

from issynth.consistency import (
    Dataset,
    RegressorBases,
    Sample,
    membership_instantaneous,
)
from issynth.poly import Polynomial, parse_poly, variables
from issynth.simulate import (
    COLLECT_STEP,
    EventTrace,
    ExperimentConfig,
    GroundTruthSystem,
    _ball_sample,
    _rk4_step,
    collect_dataset,
    event_triggered_run,
    integrate,
    khalil_system,
)
from test_poly import float64_eval


def scalar_system(a: float, quadratic: bool = False) -> GroundTruthSystem:
    """xdot = a*x (or a*x^2) + 0*u, one state, one input channel."""
    vs = variables(["x1"])
    Z = [parse_poly("x1^2" if quadratic else "x1", vs)]
    W = [[Polynomial.constant(vs, 1.0)]]
    return GroundTruthSystem(np.array([[a]]), np.array([[0.0]]), RegressorBases(vs, Z, W))


@pytest.fixture(scope="module")
def khalil():
    return khalil_system()


@pytest.fixture(scope="module")
def khalil_dataset(khalil):
    cfg = ExperimentConfig(T=50, sample_spacing=0.02, u_bound=10.0,
                           d_radius=1e-3, x0=[2.0, -2.0], seed=0)
    return collect_dataset(khalil, cfg)


@pytest.fixture(scope="module")
def r2():
    rv = variables(["r"])
    return parse_poly("r^2", rv)


# ---------------------------------------------------------------------------
# fixed-step integration


# (horizon, h, the field the error names): NaN and infinities get past a
# ``<= 0`` check and would fail in int(round(horizon / h)), as would a
# ratio that overflows, and a negative horizon would return only the start
# point
BAD_STEPS = [
    (1.0, float("nan"), "step size h"),
    (1.0, float("inf"), "step size h"),
    (float("nan"), 1e-3, "horizon"),
    (float("inf"), 1e-3, "horizon"),
    (-1.0, 1e-3, "horizon"),
    (1e300, 1e-300, "horizon / h"),
]


class TestIntegrate:
    def test_exponential_decay(self):
        sys = scalar_system(-1.0)
        traj = integrate(sys, [0.0], x0=[1.0], horizon=1.0, h=1e-3)
        assert not traj.diverged
        assert traj.states.shape == (1001, 1)
        assert abs(traj.states[-1, 0] - np.exp(-1.0)) < 1e-6

    def test_zero_field_holds_state(self):
        sys = scalar_system(0.0)
        traj = integrate(sys, [0.0], x0=[0.7], horizon=0.5, h=1e-2)
        assert np.all(traj.states == 0.7)

    def test_fourth_order_step_halving(self):
        # classical Runge-Kutta: halving h divides the global error by ~16
        sys = scalar_system(-1.0)
        exact = np.exp(-1.0)
        errs = []
        for h in (0.1, 0.05):
            traj = integrate(sys, [0.0], x0=[1.0], horizon=1.0, h=h)
            errs.append(abs(traj.states[-1, 0] - exact))
        ratio = errs[0] / errs[1]
        assert 13.0 < ratio < 19.0

    def test_feedback_stabilizes_benchmark(self, khalil):
        k = parse_poly("-x1^3 - 8*x2", khalil.bases.vars)
        law = lambda x: np.array([k.eval(x)])
        traj = integrate(khalil, law, x0=[2.0, -2.0], horizon=10.0, h=1e-3)
        assert not traj.diverged
        x0n = np.linalg.norm([2.0, -2.0])
        assert np.linalg.norm(traj.states[-1]) < 0.05 * x0n

    def test_finite_escape_returns_partial_trace(self):
        # xdot = x^2 from x0=1 escapes at t=1; the run must truncate, not raise
        sys = scalar_system(1.0, quadratic=True)
        traj = integrate(sys, [0.0], x0=[1.0], horizon=2.0, h=1e-3)
        assert traj.diverged
        assert len(traj.times) < 2001
        assert np.all(np.isfinite(traj.states))

    def test_zero_horizon(self):
        sys = scalar_system(-1.0)
        traj = integrate(sys, [0.0], x0=[1.0], horizon=0.0, h=1e-3)
        assert traj.states.shape == (1, 1)
        assert not traj.diverged

    def test_bad_step_rejected(self):
        sys = scalar_system(-1.0)
        with pytest.raises(ValueError, match="step"):
            integrate(sys, [0.0], x0=[1.0], horizon=1.0, h=0.0)

    @pytest.mark.parametrize("horizon, h, match", BAD_STEPS)
    def test_non_finite_or_negative_step_rejected(self, horizon, h, match):
        # rejected by name before any step; horizon 0 stays allowed
        # (test_zero_horizon)
        with pytest.raises(ValueError, match=match):
            integrate(scalar_system(-1.0), [0.0], x0=[1.0], horizon=horizon, h=h)


# ---------------------------------------------------------------------------
# open-loop data collection


class TestCollectDataset:
    def test_noiseless_residual_is_exactly_zero(self, khalil):
        cfg = ExperimentConfig(T=10, sample_spacing=0.02, u_bound=10.0,
                               d_radius=0.0, x0=[2.0, -2.0], seed=3)
        ds = collect_dataset(khalil, cfg)
        for s in ds.samples:
            res = membership_instantaneous(khalil.AB, s, ds.delta, ds.bases)
            assert res.ok
            assert res.residual == 0.0

    def test_noise_bounded_by_delta(self, khalil, khalil_dataset):
        ds = khalil_dataset
        assert ds.delta == 1e-3 ** 2
        worst = 0.0
        for s in ds.samples:
            res = membership_instantaneous(khalil.AB, s, ds.delta, ds.bases)
            assert res.ok
            worst = max(worst, res.residual)
        assert worst <= ds.delta * (1.0 + 1e-9)

    def test_reruns_are_byte_identical(self, khalil):
        cfg = ExperimentConfig(T=20, sample_spacing=0.02, u_bound=10.0,
                               d_radius=1e-3, x0=[2.0, -2.0], seed=11)
        a = collect_dataset(khalil, cfg)
        b = collect_dataset(khalil, cfg)
        assert a.to_json() == b.to_json()

    def test_seed_changes_data(self, khalil):
        base = dict(T=20, sample_spacing=0.02, u_bound=10.0,
                    d_radius=1e-3, x0=[2.0, -2.0])
        a = collect_dataset(khalil, ExperimentConfig(seed=1, **base))
        b = collect_dataset(khalil, ExperimentConfig(seed=2, **base))
        assert a.to_json() != b.to_json()

    def test_empty_experiment_rejected(self, khalil):
        cfg = ExperimentConfig(T=0, sample_spacing=0.02, u_bound=10.0,
                               d_radius=1e-3, x0=[2.0, -2.0], seed=0)
        with pytest.raises(ValueError, match="empty experiment"):
            collect_dataset(khalil, cfg)

    @pytest.mark.parametrize("field, value", [
        ("T", 2.5),
        ("sample_spacing", float("nan")),
        ("sample_spacing", float("inf")),
        ("sample_spacing", 0.0),
        ("u_bound", float("nan")),
        ("u_bound", float("inf")),
        ("u_bound", -1.0),
        ("d_radius", float("nan")),
        ("d_radius", float("inf")),
        ("seed", -1),
        ("seed", 1.5),
        ("x0", [float("nan"), 0.0]),
        ("x0", [0.0, float("inf")]),
    ])
    def test_bad_config_rejected_by_name(self, field, value):
        # each would fail only later, in collect_dataset, with an error that
        # does not name the field (NaN to integer, OverflowError, TypeError,
        # numpy's negative-seed error or a divergence after sample 0)
        base = dict(T=20, sample_spacing=0.02, u_bound=10.0, d_radius=1e-3,
                    x0=[2.0, -2.0], seed=0)
        with pytest.raises(ValueError, match=field):
            ExperimentConfig(**{**base, field: value})

    def test_divergence_during_collection_raises(self):
        sys = scalar_system(1.0, quadratic=True)
        cfg = ExperimentConfig(T=50, sample_spacing=0.1, u_bound=0.0,
                               d_radius=0.0, x0=[1.0], seed=0)
        with pytest.raises(RuntimeError, match="divergence"):
            collect_dataset(sys, cfg)

    def test_sample_grid_and_shapes(self, khalil_dataset):
        ds = khalil_dataset
        assert ds.T == 50
        ts = [s.t for s in ds.samples]
        assert np.allclose(ts, 0.02 * np.arange(50))
        assert all(s.u.shape == (1,) and s.x.shape == (2,) for s in ds.samples)


# ---------------------------------------------------------------------------
# event-triggered closed loop


@pytest.fixture(scope="module")
def khalil_trace(khalil, r2):
    k = [parse_poly("-x1^3 - 8*x2", khalil.bases.vars)]
    return event_triggered_run(khalil, k, alpha3=r2, alpha4=r2, sigma=0.9,
                               x0=[2.0, -2.0], horizon=2.0, h=1e-3)


class TestEventTriggeredRun:
    def test_error_zero_at_events(self, khalil_trace):
        tr = khalil_trace
        fired = tr.event_flags == 1
        assert fired.any()
        assert np.all(tr.errors[fired] == 0.0)

    def test_input_held_between_events(self, khalil_trace):
        tr = khalil_trace
        idx = np.flatnonzero(tr.event_flags)
        assert idx[0] == 0
        bounds = list(idx) + [len(tr.times)]
        for a, b in zip(bounds[:-1], bounds[1:]):
            seg = tr.inputs[a:b]
            assert np.all(seg == seg[0])

    def test_trigger_condition_never_violated_on_grid(self, khalil_trace):
        tr = khalil_trace
        assert np.all(tr.alpha4 <= tr.sigma * tr.alpha3 + 1e-12)

    def test_error_matches_last_event_state(self, khalil_trace):
        tr = khalil_trace
        idx = np.flatnonzero(tr.event_flags)
        last = 0
        for j in range(len(tr.times)):
            if tr.event_flags[j]:
                last = j
            want = tr.states[last] - tr.states[j]
            assert np.allclose(tr.errors[j], want, atol=1e-12)

    def test_smaller_sigma_fires_no_less(self, khalil, r2):
        k = [parse_poly("-x1^3 - 8*x2", khalil.bases.vars)]
        counts = []
        for sigma in (0.1, 0.5, 0.9):
            tr = event_triggered_run(khalil, k, r2, r2, sigma,
                                     x0=[2.0, -2.0], horizon=1.0, h=1e-3)
            counts.append(tr.event_count)
        assert counts[0] >= counts[1] >= counts[2]
        assert counts[0] > 1

    def test_sigma_validation(self, khalil, r2):
        k = [parse_poly("-x1^3 - 8*x2", khalil.bases.vars)]
        for sigma in (0.0, 1.0, 1.5, -0.3):
            with pytest.raises(ValueError, match="sigma"):
                event_triggered_run(khalil, k, r2, r2, sigma,
                                    x0=[1.0, 1.0], horizon=0.1)

    @pytest.mark.parametrize("horizon, h, match", BAD_STEPS)
    def test_non_finite_or_negative_step_rejected(self, khalil, r2, horizon, h, match):
        k = [parse_poly("-x1^3 - 8*x2", khalil.bases.vars)]
        with pytest.raises(ValueError, match=match):
            event_triggered_run(khalil, k, r2, r2, 0.5, x0=[1.0, 1.0], horizon=horizon, h=h)

    def test_zero_horizon_single_event(self, khalil, r2):
        k = [parse_poly("-x1^3 - 8*x2", khalil.bases.vars)]
        tr = event_triggered_run(khalil, k, r2, r2, 0.9,
                                 x0=[2.0, -2.0], horizon=0.0)
        assert tr.event_count == 1
        assert tr.event_times == [0.0]
        assert len(tr.times) == 1

    def test_class_kinf_gate(self, khalil):
        k = [parse_poly("-x1^3 - 8*x2", khalil.bases.vars)]
        rv = variables(["r"])
        bad = [
            parse_poly("r^3", rv),          # odd power
            parse_poly("r^2 - r^4", rv),    # negative coefficient
            parse_poly("1 + r^2", rv),      # constant term
            Polynomial.zero(rv),            # not positive
        ]
        for alpha in bad:
            with pytest.raises(ValueError):
                event_triggered_run(khalil, k, alpha, alpha, 0.5,
                                    x0=[1.0, 1.0], horizon=0.1)

    def test_alpha_must_be_a_polynomial(self, khalil, r2):
        k = [parse_poly("-x1^3 - 8*x2", khalil.bases.vars)]
        with pytest.raises(TypeError, match="alpha3 must be a Polynomial"):
            event_triggered_run(khalil, k, lambda r: r * r, r2, 0.5,
                                x0=[1.0, 1.0], horizon=0.1)

    def test_dwell_is_at_least_one_step(self, khalil_trace):
        ts = np.asarray(khalil_trace.event_times)
        assert np.all(np.diff(ts) >= 1e-3 - 1e-12)

    def test_finite_escape_returns_partial_trace(self):
        # xdot = x^2 from x0 = 3 escapes at t = 1/3.  The last finite state
        # is about 3e72: its r^8 overflows (the evaluator's float64 retry
        # gives inf) and the next step's regressor overflows too.
        sys = scalar_system(1.0, quadratic=True)
        alpha = parse_poly("r^2 + r^8", variables(["r"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tr = event_triggered_run(sys, [Polynomial.zero(sys.bases.vars)], alpha, alpha,
                                     0.5, x0=[3.0], horizon=1.0, h=1e-3)
        assert tr.diverged and not tr.storm
        assert len(tr.times) < 1001
        assert np.all(np.isfinite(tr.states))
        assert 1e39 < abs(tr.states[-1, 0]) < 1e150
        assert tr.alpha3[-1] == np.inf

    def test_storm_after_more_than_1000_consecutive_events(self):
        # |e| is about 1e-3 |x| after every step, so 1e12 |e|^2 > 0.5 |x|^2
        # fires each step: 1000 consecutive events are allowed, 1001 are not
        sys = scalar_system(-1.0)
        rv = variables(["r"])
        a3 = parse_poly("r^2", rv)
        a4 = parse_poly("1e12*r^2", rv)
        k = [Polynomial.zero(sys.bases.vars)]
        tr = event_triggered_run(sys, k, a3, a4, 0.5, x0=[1.0], horizon=1.0, h=1e-3)
        assert tr.event_count == 1001 and not tr.storm
        tr = event_triggered_run(sys, k, a3, a4, 0.5, x0=[1.0], horizon=1.2, h=1e-3)
        assert tr.event_count == 1201 and tr.storm and not tr.diverged


# ---------------------------------------------------------------------------
# float64 vector reference: the numpy RK4 loops the float loops replaced


def field_ref(sys):
    """The field in the documented term order, as a function of (x, u) on
    float64 scalars.

    Per state component i: the terms of A_star[i, j] Z_j(x), then of
    B_star[i, k] W_kl(x) u_l, each coefficient the matrix entry times the
    regressor's coefficient; a monomial met again adds its coefficient at
    its first position; exactly zero coefficients are left out; the terms
    c * x_i**e_i * ... (* u_l) are summed left to right from 0.0.
    """
    b = sys.bases
    components = []
    for i in range(b.n):
        factors = [(sys.A_star[i, j], p, None) for j, p in enumerate(b.Z)]
        factors += [(sys.B_star[i, k], p, l)
                    for k, row in enumerate(b.W) for l, p in enumerate(row)]
        coeffs = {}
        for a, p, l in factors:
            for exps, c in p.terms.items():
                coeffs[exps, l] = coeffs.get((exps, l), 0.0) + float(a) * c
        components.append([(np.float64(c), exps, l) for (exps, l), c in coeffs.items()
                           if c != 0.0])

    def field(x, u):
        x = [np.float64(v) for v in x]
        u = [np.float64(v) for v in u]
        out = []
        for terms in components:
            total = np.float64(0.0)
            for v, exps, l in terms:
                for xi, e in zip(x, exps):
                    if e:
                        v = v * xi**e
                if l is not None:
                    v = v * u[l]
                total = total + v
            out.append(total)
        return np.array(out)

    return field


def rk4_step_ref(f, x, h):
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_ref(sys, law, x0, horizon, h):
    field = field_ref(sys)
    f = lambda s: field(s, np.asarray(law(s), dtype=float).reshape(sys.m))
    x = np.asarray(x0, dtype=float).reshape(-1)
    times, states, diverged = [0.0], [x.copy()], False
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, int(round(horizon / h)) + 1):
            x = rk4_step_ref(f, x, h)
            if not np.isfinite(x).all():
                diverged = True
                break
            times.append(j * h)
            states.append(x.copy())
    return np.array(times), np.array(states), diverged


def collect_dataset_ref(sys, cfg):
    field = field_ref(sys)
    rng = np.random.default_rng(cfg.seed)
    x = cfg.x0.copy()
    substeps = max(1, int(round(cfg.sample_spacing / COLLECT_STEP)))
    hs = cfg.sample_spacing / substeps
    samples = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.T):
            u = rng.uniform(-cfg.u_bound, cfg.u_bound, size=sys.m)
            d = _ball_sample(rng, sys.n, cfg.d_radius)
            xdot = field(x, u) + d
            samples.append(Sample(i * cfg.sample_spacing, u, x.copy(), xdot))
            for _ in range(substeps):
                x = rk4_step_ref(lambda s: field(s, u), x, hs)
            assert np.isfinite(x).all()
    return Dataset(sys.bases, cfg.d_radius ** 2, samples)


def norm_ref(v):
    """The documented norm on float64 scalars: the square root of the
    squares added left to right from 0.0."""
    total = np.float64(0.0)
    for c in v:
        total = total + c * c
    return np.sqrt(total)


def event_run_ref(sys, k, alpha3, alpha4, sigma, x0, horizon, h):
    field = field_ref(sys)
    a3 = lambda r: float64_eval(alpha3, [r])
    a4 = lambda r: float64_eval(alpha4, [r])
    control_at = lambda x: np.array([p.eval(x) for p in k])
    x = np.asarray(x0, dtype=float).reshape(-1)
    held_x = x.copy()
    u = control_at(held_x)
    times, states, inputs, errors = [0.0], [x.copy()], [u.copy()], [np.zeros(sys.n)]
    a3s, a4s, flags, event_times = [a3(norm_ref(x))], [a4(0.0)], [1], [0.0]
    diverged = storm = False
    consecutive = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, int(round(horizon / h)) + 1):
            x = rk4_step_ref(lambda s: field(s, u), x, h)
            if not np.isfinite(x).all():
                diverged = True
                break
            t = j * h
            e = held_x - x
            v3, v4 = a3(norm_ref(x)), a4(norm_ref(e))
            fired = 0
            if v4 > sigma * v3:
                held_x = x.copy()
                u = control_at(held_x)
                e = np.zeros(sys.n)
                v4 = a4(0.0)
                event_times.append(t)
                fired = 1
                consecutive += 1
                storm = storm or consecutive > 1000
            else:
                consecutive = 0
            times.append(t)
            states.append(x.copy())
            inputs.append(u.copy())
            errors.append(e)
            a3s.append(v3)
            a4s.append(v4)
            flags.append(fired)
    return EventTrace(np.array(times), np.array(states), np.array(inputs), np.array(errors),
                      np.array(a3s), np.array(a4s), np.array(flags, dtype=int), event_times,
                      sigma, diverged, storm)


def dense_system() -> GroundTruthSystem:
    """Two states, dense random A_star and B_star, a 2-column W(x)."""
    vs = variables(["x1", "x2"])
    rng = np.random.default_rng(5)
    Z = [parse_poly(s, vs) for s in ("x1", "x2", "x1^2", "x1*x2", "x2^3", "x1^3")]
    W = [[parse_poly(s, vs) for s in row] for row in (("1", "x1"), ("x2^2", "1 + x1*x2"))]
    A = 0.3 * rng.standard_normal((2, 6)) - np.eye(2, 6)
    B = 0.5 * rng.standard_normal((2, 2))
    return GroundTruthSystem(A, B, RegressorBases(vs, Z, W))


def three_state_system() -> GroundTruthSystem:
    """Three states, dense random A_star and B_star, one input through a
    3-row W(x)."""
    vs = variables(["x1", "x2", "x3"])
    rng = np.random.default_rng(8)
    Z = [parse_poly(s, vs) for s in ("x1", "x2", "x3", "x1*x3", "x2^2", "x1^2*x3", "x3^3")]
    W = [[parse_poly(s, vs)] for s in ("1", "x2", "1 + x1*x3")]
    A = 0.3 * rng.standard_normal((3, 7)) - np.eye(3, 7)
    B = 0.5 * rng.standard_normal((3, 3))
    return GroundTruthSystem(A, B, RegressorBases(vs, Z, W))


def same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBitwiseEqualToNumpyLoops:
    """The float RK4 loops against the float64 vector loops above."""

    @pytest.fixture(scope="class", params=["khalil", "dense", "three"])
    def case(self, request, khalil):
        rv = variables(["r"])
        if request.param == "khalil":
            k = [parse_poly("-x1 - x2", khalil.bases.vars)]
            angles = np.pi / 6 + np.arange(6) * np.pi / 3
            x0s = 0.8 * np.column_stack([np.cos(angles), np.sin(angles)])
            return khalil, k, parse_poly("0.1*r^2", rv), parse_poly("r^2", rv), 0.5, x0s
        if request.param == "three":
            sys = three_state_system()
            k = [parse_poly("-x1 - x2 - 0.5*x3 - x2^3", sys.bases.vars)]
            x0s = np.random.default_rng(9).uniform(-0.8, 0.8, size=(3, 3))
            return sys, k, parse_poly("0.1*r^2", rv), parse_poly("r^2", rv), 0.5, x0s
        sys = dense_system()
        k = [parse_poly("-x1 - 0.5*x2", sys.bases.vars),
             parse_poly("0.2*x1 - x2 - x1^3", sys.bases.vars)]
        x0s = np.random.default_rng(6).uniform(-0.8, 0.8, size=(3, 2))
        return sys, k, parse_poly("0.1*r^2", rv), parse_poly("r^2 + 0.5*r^4", rv), 0.4, x0s

    def test_integrate(self, case):
        sys, k, *_, x0s = case
        law = lambda x: np.array([p.eval(x) for p in k])
        for x0 in x0s:
            traj = integrate(sys, law, x0, horizon=1.0, h=1e-3)
            times, states, diverged = integrate_ref(sys, law, x0, 1.0, 1e-3)
            assert not diverged and traj.diverged == diverged
            assert same_array(traj.times, times) and same_array(traj.states, states)

    def test_collect_dataset(self, case):
        sys, *_, x0s = case
        for j, x0 in enumerate(x0s):
            cfg = ExperimentConfig(T=20, sample_spacing=0.05, u_bound=1.0,
                                   d_radius=0.01, x0=x0, seed=j)
            got, want = collect_dataset(sys, cfg), collect_dataset_ref(sys, cfg)
            assert got.to_json() == want.to_json()
            for a, b in zip(got.samples, want.samples):
                assert a.t == b.t and all(same_array(p, q) for p, q in zip(a[1:], b[1:]))

    def test_integrate_finite_escape(self):
        # xdot = x^2 from x0 = 1 escapes at t = 1.  From the last finite
        # state a power overflows on Python floats, so that step is rerun
        # on float64, gives a non-finite state and ends the run
        sys = scalar_system(1.0, quadratic=True)
        traj = integrate(sys, [0.0], x0=[1.0], horizon=2.0, h=1e-3)
        times, states, diverged = integrate_ref(sys, lambda x: [0.0], [1.0], 2.0, 1e-3)
        assert diverged and traj.diverged
        assert same_array(traj.times, times) and same_array(traj.states, states)
        with pytest.raises(OverflowError):
            _rk4_step(1, 1)(sys.kernel, lambda *x: [0.0], 1e-3, *traj.states[-1].tolist())

    def test_event_triggered_run(self, case):
        sys, k, a3, a4, sigma, x0s = case
        for x0 in x0s:
            got = event_triggered_run(sys, k, a3, a4, sigma, x0, horizon=1.0, h=1e-3)
            want = event_run_ref(sys, k, a3, a4, sigma, x0, 1.0, 1e-3)
            assert want.event_count > 2 and not want.diverged
            for f in ("times", "states", "inputs", "errors", "alpha3", "alpha4", "event_flags"):
                assert same_array(getattr(got, f), getattr(want, f)), f
            assert same_array(np.array(got.event_times), np.array(want.event_times))
            assert (got.sigma, got.diverged, got.storm) == (want.sigma, want.diverged, want.storm)


# ---------------------------------------------------------------------------
# ground-truth system validation


class TestGroundTruthSystem:
    def test_benchmark_field(self, khalil):
        want = [-2.0 + 4.0 * (-1.0), 3.0]
        assert np.allclose(khalil.field_floats([2.0, -1.0], [3.0]), want)

    def test_khalil_field_is_the_blas_product(self, khalil):
        # every entry of [A_star B_star] is 0 or +-1 and each component has
        # at most two nonzero terms, so each product is exact and the
        # left-to-right sum has the BLAS product's bits
        rng = np.random.default_rng(31)
        field, AB, reg = khalil.field_floats, khalil.AB, khalil.bases.regressor
        signs = np.array([-1.0, 1.0])
        for _ in range(10_000):
            x = rng.choice(signs, 2) * 10.0 ** rng.uniform(-3.0, 3.0, 2)
            u = rng.choice([0.0, -0.0, rng.uniform(-1e3, 1e3)], 1)
            assert np.array(field(x.tolist(), u.tolist())).tobytes() == (AB @ reg(x, u)).tobytes()
        for x in ([0.0, -0.0], [-0.0, 1.0], [1.0, 1.0], [-1.0, -1.0]):  # signed-zero sums
            for u in ([0.0], [-0.0]):
                assert np.array(field(x, u)).tobytes() == (AB @ reg(x, u)).tobytes()

    def test_overflow_reruns_on_float64(self, khalil):
        # x1^2 overflows: the rerun gives float64's inf and nan in the terms
        # the field keeps; BLAS multiplies the regressor's inf by the zero
        # coefficients the field leaves out, which makes every entry nan
        ref = field_ref(khalil)
        for x, u, want in (([1e200, 2.0], [0.5], [np.inf, 0.5]),
                           ([-1e200, 0.0], [-0.25], [np.nan, -0.25])):
            with np.errstate(over="ignore", invalid="ignore"):
                got = khalil.field_floats(x, u)
                blas = khalil.AB @ khalil.bases.regressor(x, u)
                assert np.array(got).tobytes() == ref(x, u).tobytes()
            assert all(type(v) is np.float64 for v in got)
            np.testing.assert_array_equal(got, want)
            assert np.isnan(blas).all()
        with pytest.warns(RuntimeWarning, match="overflow"):
            khalil.field_floats([1e200, 2.0], [0.5])

    def test_tiny_coefficient_kept(self):
        sys = scalar_system(1e-16)
        assert sys.field_terms == ({(1, 0): 1e-16},)
        assert sys.field_floats([3.0], [1.0]) == [3e-16]

    def test_pickle_and_deepcopy_keep_the_field(self, khalil):
        x, u = [0.3, -1.7], [0.25]
        want = khalil.field_floats(x, u)  # compiles the kernel
        for other in (pickle.loads(pickle.dumps(khalil)), copy.deepcopy(khalil)):
            assert "kernel" not in other.__dict__
            assert other.bases == khalil.bases and same_array(other.AB, khalil.AB)
            assert other.field_terms == khalil.field_terms
            assert other.field_floats(x, u) == want

    def test_systems_compare_and_hash_by_identity(self):
        a, b = khalil_system(), khalil_system()
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_configs_compare_and_hash_by_identity(self):
        a, b = (ExperimentConfig(T=5, sample_spacing=0.1, u_bound=1.0, d_radius=0.0,
                                 x0=[1.0, 2.0], seed=0) for _ in range(2))
        assert a == a and a != b
        assert len({a, b, a}) == 2

    def test_shape_validation(self, khalil):
        with pytest.raises(ValueError, match="A_star"):
            GroundTruthSystem(np.zeros((2, 4)), np.zeros((2, 1)), khalil.bases)
        with pytest.raises(ValueError, match="B_star"):
            GroundTruthSystem(np.zeros((2, 5)), np.zeros((1, 1)), khalil.bases)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(T=5, sample_spacing=0.0, u_bound=1.0,
                             d_radius=0.0, x0=[1.0], seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(T=5, sample_spacing=0.1, u_bound=-1.0,
                             d_radius=0.0, x0=[1.0], seed=0)
