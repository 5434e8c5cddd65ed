"""Tests for ground-truth integration, data collection, and event triggering."""

import warnings

import numpy as np
import pytest

from issynth.consistency import (
    Dataset,
    RegressorBases,
    Sample,
    membership_instantaneous,
)
from issynth.poly import Polynomial, eval_all, parse_poly, variables
from issynth.simulate import (
    COLLECT_STEP,
    EventTrace,
    ExperimentConfig,
    GroundTruthSystem,
    _ball_sample,
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
        assert a.content_hash() == b.content_hash()

    def test_seed_changes_data(self, khalil):
        base = dict(T=20, sample_spacing=0.02, u_bound=10.0,
                    d_radius=1e-3, x0=[2.0, -2.0])
        a = collect_dataset(khalil, ExperimentConfig(seed=1, **base))
        b = collect_dataset(khalil, ExperimentConfig(seed=2, **base))
        assert a.content_hash() != b.content_hash()

    def test_empty_experiment_rejected(self, khalil):
        cfg = ExperimentConfig(T=0, sample_spacing=0.02, u_bound=10.0,
                               d_radius=1e-3, x0=[2.0, -2.0], seed=0)
        with pytest.raises(ValueError, match="empty experiment"):
            collect_dataset(khalil, cfg)

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


def field_ref(sys, x, u):
    """The field as the vector loops computed it: regressor values from
    eval_all, then numpy products for W(x) u and [A_star B_star] xi."""
    b = sys.bases
    vals = eval_all(b.Z + tuple(p for row in b.W for p in row), x)
    w = np.array(vals[b.N:]).reshape(b.M, b.m)
    return sys.AB @ np.concatenate([np.array(vals[:b.N]), w @ u])


def rk4_step_ref(f, x, h):
    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate_ref(sys, law, x0, horizon, h):
    f = lambda s: field_ref(sys, s, np.asarray(law(s), dtype=float).reshape(sys.m))
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
    rng = np.random.default_rng(cfg.seed)
    x = cfg.x0.copy()
    substeps = max(1, int(round(cfg.sample_spacing / COLLECT_STEP)))
    hs = cfg.sample_spacing / substeps
    samples = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.T):
            u = rng.uniform(-cfg.u_bound, cfg.u_bound, size=sys.m)
            d = _ball_sample(rng, sys.n, cfg.d_radius)
            xdot = field_ref(sys, x, u) + d
            samples.append(Sample(i * cfg.sample_spacing, u, x.copy(), xdot))
            for _ in range(substeps):
                x = rk4_step_ref(lambda s: field_ref(sys, s, u), x, hs)
            assert np.isfinite(x).all()
    return Dataset(sys.bases, cfg.d_radius ** 2, samples)


def event_run_ref(sys, k, alpha3, alpha4, sigma, x0, horizon, h):
    a3 = lambda r: float64_eval(alpha3, [r])
    a4 = lambda r: float64_eval(alpha4, [r])
    control_at = lambda x: np.array(eval_all(k, x))
    norm = lambda x: np.sqrt(x.dot(x))
    x = np.asarray(x0, dtype=float).reshape(-1)
    held_x = x.copy()
    u = control_at(held_x)
    times, states, inputs, errors = [0.0], [x.copy()], [u.copy()], [np.zeros(sys.n)]
    a3s, a4s, flags, event_times = [a3(norm(x))], [a4(0.0)], [1], [0.0]
    diverged = storm = False
    consecutive = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, int(round(horizon / h)) + 1):
            x = rk4_step_ref(lambda s: field_ref(sys, s, u), x, h)
            if not np.isfinite(x).all():
                diverged = True
                break
            t = j * h
            e = held_x - x
            v3, v4 = a3(norm(x)), a4(norm(e))
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


def same_array(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBitwiseEqualToNumpyLoops:
    """The float RK4 loops against the float64 vector loops above."""

    @pytest.fixture(scope="class", params=["khalil", "dense"])
    def case(self, request, khalil):
        rv = variables(["r"])
        if request.param == "khalil":
            k = [parse_poly("-x1 - x2", khalil.bases.vars)]
            angles = np.pi / 6 + np.arange(6) * np.pi / 3
            x0s = 0.8 * np.column_stack([np.cos(angles), np.sin(angles)])
            return khalil, k, parse_poly("0.1*r^2", rv), parse_poly("r^2", rv), 0.5, x0s
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
