"""Ground-truth simulation: open-loop data collection and event-triggered runs.

The experiment side integrates the true polynomial dynamics under
piecewise-constant random excitation and records noisy derivative
measurements; the closed-loop side runs a zero-order-hold controller whose
updates are triggered by a comparison-function condition on the measurement
error.

`integrate`, `collect_dataset` and `event_triggered_run` carry the state as
a list of Python floats through one RK4 step, `_rk4_step`, which does the
float64 vector form's operations in its order, so every array they return
is bitwise what that form gives.  Polynomials (regressors, controller,
comparison functions) go through `poly.eval_floats`.  numpy stays only for
the sums whose BLAS summation order Python cannot reproduce: [A_star
B_star] times the regressor, a W(x) u with more than one input column, and
the x.x under the comparison functions' norm; and it builds the returned
arrays.  Each of the three loops holds one numpy error state for its whole
run (see `GroundTruthSystem.field_floats`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np

from .consistency import Dataset, RegressorBases, Sample
from .poly import Polynomial, eval_floats, parse_poly, variables

ControlLaw = Union[Callable[[np.ndarray], np.ndarray], np.ndarray, Sequence[float]]

# RK4 step of collect_dataset: each sample spacing is split into the whole
# number of steps nearest to spacing / COLLECT_STEP (at least one)
COLLECT_STEP = 1e-3


@dataclass(frozen=True)
class GroundTruthSystem:
    """True dynamics xdot = A_star Z(x) + B_star W(x) u over known regressors."""

    A_star: np.ndarray  # (n, N)
    B_star: np.ndarray  # (n, M)
    bases: RegressorBases

    def __post_init__(self):
        A = np.asarray(self.A_star, dtype=float)
        B = np.asarray(self.B_star, dtype=float)
        b = self.bases
        if A.shape != (b.n, b.N):
            raise ValueError(f"A_star shape {A.shape}, expected ({b.n}, {b.N})")
        if B.shape != (b.n, b.M):
            raise ValueError(f"B_star shape {B.shape}, expected ({b.n}, {b.M})")
        object.__setattr__(self, "A_star", A)
        object.__setattr__(self, "B_star", B)
        object.__setattr__(self, "AB", np.hstack([A, B]))

    @property
    def n(self) -> int:
        return self.bases.n

    @property
    def m(self) -> int:
        return self.bases.m

    def field_floats(self, xs: list[float], us: list[float]) -> list[float]:
        """Noiseless state derivative at a state and input given as lists
        of Python floats, unchecked.  The product with [A_star B_star]
        stays a numpy (BLAS) product, for its summation order;
        ``ndarray.dot`` makes the same BLAS call as ``@`` at less call
        overhead.

        Sets no numpy error state: an escaping state overflows to inf or
        nan, and the caller decides whether that warns.  `integrate`,
        `collect_dataset` and `event_triggered_run` each hold
        ``np.errstate(over="ignore", invalid="ignore")`` around their whole
        loop and stop on the first non-finite state.
        """
        return self.AB.dot(np.array(self.bases.regressor_floats(xs, us))).tolist()


def khalil_system() -> GroundTruthSystem:
    """Two-state benchmark: xdot1 = -x1 + x1^2 x2, xdot2 = u.

    The regressor list deliberately contains more monomials than the true
    drift uses, so the data analysis cannot simply read the system off.
    """
    vs = variables(["x1", "x2"])
    Z = [parse_poly(s, vs) for s in ("x1", "x1^2", "x1^2*x2", "x1*x2^2", "x2^3")]
    W = [[Polynomial.constant(vs, 1.0)]]
    A_star = np.array([[-1.0, 0.0, 1.0, 0.0, 0.0],
                       [0.0, 0.0, 0.0, 0.0, 0.0]])
    B_star = np.array([[0.0], [1.0]])
    return GroundTruthSystem(A_star, B_star, RegressorBases(vs, Z, W))


@dataclass(frozen=True)
class ExperimentConfig:
    """Open-loop experiment: T records at fixed spacing under random input."""

    T: int
    sample_spacing: float
    u_bound: float
    d_radius: float
    x0: np.ndarray
    seed: int

    def __post_init__(self):
        if self.sample_spacing <= 0.0:
            raise ValueError("sample_spacing must be positive")
        if self.u_bound < 0.0 or self.d_radius < 0.0:
            raise ValueError("u_bound and d_radius must be nonnegative")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))


@dataclass
class Trajectory:
    times: np.ndarray   # (K+1,)
    states: np.ndarray  # (K+1, n)
    diverged: bool = False


def _rk4_step(f: Callable[[list[float]], list[float]], x: list[float], h: float) -> list[float]:
    """One classical Runge-Kutta step on Python floats.

    Componentwise the same IEEE operations, in the same order, as the
    float64 vector form: stages at x + (0.5*h)*k and x + h*k, then
    x + (h/6)*(((k1 + 2*k2) + 2*k3) + k4).
    """
    hh = 0.5 * h
    k1 = f(x)
    k2 = f([xi + hh * ki for xi, ki in zip(x, k1)])
    k3 = f([xi + hh * ki for xi, ki in zip(x, k2)])
    k4 = f([xi + h * ki for xi, ki in zip(x, k3)])
    h6 = h / 6.0
    return [xi + h6 * (a + 2.0 * b + 2.0 * c + d) for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]


def _finite(x: list[float]) -> bool:
    return all(map(math.isfinite, x))


def _initial_state(x0: Sequence[float], n: int) -> list[float]:
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ValueError(f"expected point of length {n}, got {x.shape}")
    return x.tolist()


def _as_control(law: ControlLaw, m: int) -> Callable[[list[float]], list[float]]:
    if callable(law):
        return lambda x: np.asarray(law(np.array(x)), dtype=float).reshape(m).tolist()
    held = np.asarray(law, dtype=float).reshape(m).tolist()
    return lambda x: held


def integrate(
    sys: GroundTruthSystem,
    control_law: ControlLaw,
    x0: Sequence[float],
    horizon: float,
    h: float,
) -> Trajectory:
    """Fixed-step classical Runge-Kutta integration of the closed loop.

    control_law is either a feedback x -> u (called with the state as an
    array at internal stages) or a held constant input.  A non-finite
    state aborts the run and the partial trajectory is returned with the
    diverged flag set.
    """
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    u_of = _as_control(control_law, sys.m)
    field = sys.field_floats
    f = lambda s: field(s, u_of(s))
    steps = int(round(horizon / h))
    x = _initial_state(x0, sys.n)
    times = [0.0]
    states = [x]
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, steps + 1):
            x = _rk4_step(f, x, h)
            if not _finite(x):
                diverged = True
                break
            times.append(j * h)
            states.append(x)
    return Trajectory(np.array(times), np.array(states), diverged)


def _ball_sample(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Uniform draw from the closed Euclidean ball of the given radius."""
    if radius == 0.0:
        return np.zeros(n)
    direction = rng.standard_normal(n)
    norm = np.linalg.norm(direction)
    while norm == 0.0:
        direction = rng.standard_normal(n)
        norm = np.linalg.norm(direction)
    r = radius * rng.random() ** (1.0 / n)
    return (r / norm) * direction


def collect_dataset(sys: GroundTruthSystem, cfg: ExperimentConfig) -> Dataset:
    """Record T noisy samples along one trajectory under random held inputs.

    The input is redrawn (componentwise uniform in [-u_bound, u_bound]) at
    every record and held until the next one; the measured derivative is
    the true field at the record plus a noise draw uniform in the Euclidean
    ball of radius d_radius, so delta = d_radius^2 holds by construction.
    """
    if cfg.T < 1:
        raise ValueError("empty experiment: need at least one sample")
    if cfg.x0.shape != (sys.n,):
        raise ValueError(f"x0 shape {cfg.x0.shape}, expected ({sys.n},)")
    rng = np.random.default_rng(cfg.seed)
    x = cfg.x0.tolist()
    substeps = max(1, int(round(cfg.sample_spacing / COLLECT_STEP)))
    hs = cfg.sample_spacing / substeps
    field = sys.field_floats
    samples: list[Sample] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.T):
            u = rng.uniform(-cfg.u_bound, cfg.u_bound, size=sys.m)
            d = _ball_sample(rng, sys.n, cfg.d_radius)
            us = u.tolist()
            xdot = np.array(field(x, us)) + d
            samples.append(Sample(i * cfg.sample_spacing, u, np.array(x), xdot))
            f = lambda s: field(s, us)
            for _ in range(substeps):
                x = _rk4_step(f, x, hs)
            if not _finite(x):
                raise RuntimeError(
                    f"divergence during data collection after sample {i} "
                    f"(t = {i * cfg.sample_spacing:.6g})"
                )
    return Dataset(sys.bases, cfg.d_radius ** 2, samples)


# ---------------------------------------------------------------------------
# event-triggered closed loop


def _check_kinf(alpha: Polynomial, name: str) -> None:
    """Even powers, nonnegative coefficients, positive sum: the gate that
    makes a single-variable polynomial strictly increasing and unbounded."""
    total = 0.0
    for exps, c in alpha.terms.items():
        k = exps[0]
        if k == 0 or k % 2 == 1:
            raise ValueError(f"{name} must use even powers r^2, r^4, ... only")
        if c < 0.0:
            raise ValueError(f"{name} has a negative coefficient {c}")
        total += c
    if total <= 0.0:
        raise ValueError(f"{name} must have a positive coefficient sum")


def _norm(x: np.ndarray) -> float:
    """Euclidean norm as a Python float: the dot-then-sqrt numpy's 1-D norm does."""
    return math.sqrt(x.dot(x))


def _scalar_fn(alpha, name: str) -> Callable[[float], float]:
    if not isinstance(alpha, Polynomial):
        raise TypeError(f"{name} must be a Polynomial, got {type(alpha).__name__}")
    if len(alpha.vars) != 1:
        raise ValueError(f"{name} must be a polynomial in a single variable")
    _check_kinf(alpha, name)
    return lambda r: eval_floats((alpha,), [r])[0]


@dataclass
class EventTrace:
    """Grid-sampled closed-loop run with its triggering bookkeeping."""

    times: np.ndarray        # (K+1,)
    states: np.ndarray       # (K+1, n)
    inputs: np.ndarray       # (K+1, m), held control at each grid point
    errors: np.ndarray       # (K+1, n), last event state minus current state
    alpha3: np.ndarray       # (K+1,), alpha3(|x|)
    alpha4: np.ndarray       # (K+1,), alpha4(|e|)
    event_flags: np.ndarray  # (K+1,), 1 where an event fired
    event_times: list[float]
    sigma: float
    diverged: bool = False
    storm: bool = False

    @property
    def event_count(self) -> int:
        return len(self.event_times)


def event_triggered_run(
    sys: GroundTruthSystem,
    k: Sequence[Polynomial],
    alpha3: Polynomial,
    alpha4: Polynomial,
    sigma: float,
    x0: Sequence[float],
    horizon: float,
    h: float = 1e-3,
) -> EventTrace:
    """Zero-order-hold control with comparison-function triggering.

    The control k(x(t_i)) is held until, at a grid point, alpha4(|e|)
    exceeds sigma * alpha3(|x|); the state is then re-measured there (e
    resets to zero) and the control recomputed.  Events are only possible
    at grid points, so a one-step dwell is structural.  Firing at every
    step for more than 1000 consecutive steps sets the storm flag.
    """
    if not 0.0 < sigma < 1.0:
        raise ValueError(f"sigma must lie strictly between 0 and 1, got {sigma}")
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    a3 = _scalar_fn(alpha3, "alpha3")
    a4 = _scalar_fn(alpha4, "alpha4")
    kf = [ki if ki.vars == sys.bases.vars else ki.extend(sys.bases.vars) for ki in k]
    if len(kf) != sys.m:
        raise ValueError(f"controller has {len(kf)} components, expected {sys.m}")

    steps = int(round(horizon / h))
    x = _initial_state(x0, sys.n)
    held_x = np.array(x)
    u = eval_floats(kf, x)
    field = sys.field_floats
    f = lambda s: field(s, u)  # the input held at call time
    zeros = np.zeros(sys.n)
    times = [0.0]
    states = [x]
    inputs = [u]
    errors = [zeros]
    a3s = [a3(_norm(held_x))]
    a4s = [a4(0.0)]
    flags = [1]
    event_times = [0.0]
    diverged = False
    storm = False
    consecutive = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, steps + 1):
            x = _rk4_step(f, x, h)
            if not _finite(x):
                diverged = True
                break
            t = j * h
            xa = np.array(x)
            e = held_x - xa
            v3 = a3(_norm(xa))
            v4 = a4(_norm(e))
            fired = 0
            if v4 > sigma * v3:
                held_x = xa
                u = eval_floats(kf, x)
                e = zeros
                v4 = a4(0.0)
                event_times.append(t)
                fired = 1
                consecutive += 1
                if consecutive > 1000:
                    storm = True
            else:
                consecutive = 0
            times.append(t)
            states.append(x)
            inputs.append(u)
            errors.append(e)
            a3s.append(v3)
            a4s.append(v4)
            flags.append(fired)
    return EventTrace(
        times=np.array(times),
        states=np.array(states),
        inputs=np.array(inputs),
        errors=np.array(errors),
        alpha3=np.array(a3s),
        alpha4=np.array(a4s),
        event_flags=np.array(flags, dtype=int),
        event_times=event_times,
        sigma=sigma,
        diverged=diverged,
        storm=storm,
    )

