"""Ground-truth simulation: open-loop data collection and event-triggered runs.

The experiment side integrates the true polynomial dynamics under
piecewise-constant random excitation and records noisy derivative
measurements; the closed-loop side runs a zero-order-hold controller whose
updates are triggered by a comparison-function condition on the measurement
error.

`integrate`, `collect_dataset` and `event_triggered_run` carry the state as
a list of Python floats through one RK4 step, generated once per state and
input dimension as straight-line code (`_rk4_step`) that does the float64
vector form's operations in its order, so every array they return is
bitwise what that form gives with the same field.  The true field is one
straight-line function of (x, u), compiled from the system's expanded
terms (`GroundTruthSystem.kernel`), so each RK4 stage is one call that
sums each component left to right; the controller goes through
`poly.eval_floats`.  The event trigger is on Python floats too: the
measurement error is a list, each norm is math.sqrt of the squares added
left to right (`_norm`), and the comparison functions' kernels are called
on it directly.  That norm is not numpy's x.dot(x), which OpenBLAS
computes for short vectors with fused multiply-adds, so alpha3 and alpha4
differ from a numpy norm's by rounding.  Besides a callable control law's
array round trip, numpy only builds the returned arrays and reruns a step
on float64 scalars where a power overflows.  Each of the three loops holds
one numpy error state for its whole run (see
`GroundTruthSystem.field_floats`).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from numbers import Integral
from typing import Callable, Sequence, Union

import numpy as np

from .consistency import Dataset, RegressorBases, Sample
from .poly import Polynomial, _call_floats, compile_kernel, eval_floats, parse_poly, variables

ControlLaw = Union[Callable[[np.ndarray], np.ndarray], np.ndarray, Sequence[float]]

# RK4 step of collect_dataset: each sample spacing is split into the whole
# number of steps nearest to spacing / COLLECT_STEP (at least one)
COLLECT_STEP = 1e-3


@dataclass(frozen=True, eq=False)
class GroundTruthSystem:
    """True dynamics xdot = A_star Z(x) + B_star W(x) u over known regressors.

    Systems compare and hash by identity: an elementwise comparison of the
    array fields has no single truth value.

    The field is expanded once, at construction, into one term dict per
    state component over the n + m variables (x, u) (`field_terms`): the
    terms of A_star[i, j] Z_j(x), then of B_star[i, k] W_kl(x) u_l for
    each row k and input l, each coefficient the product of the matrix
    entry and the regressor's coefficient.  A monomial that several
    regressors share keeps its first position, its coefficients summed in
    that order; only coefficients that come out exactly zero are left out.
    """

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
        # the regressor factors Z_j and W_kl u_l in order, and per state
        # component the matrix entry that multiplies each
        no_u = (0,) * b.m
        unit_u = [tuple(int(k == l) for k in range(b.m)) for l in range(b.m)]
        factors = [(p, no_u) for p in b.Z] + [(p, unit_u[l]) for row in b.W
                                             for l, p in enumerate(row)]
        field_terms = []
        for row in np.hstack([A, np.repeat(B, b.m, axis=1)]).tolist():
            terms: dict[tuple[int, ...], float] = {}
            for a, (p, u_exps) in zip(row, factors):
                for exps, c in p.terms.items():
                    key = exps + u_exps
                    terms[key] = terms.get(key, 0.0) + a * c
            field_terms.append({e: c for e, c in terms.items() if c != 0.0})
        object.__setattr__(self, "field_terms", tuple(field_terms))

    # kernel: `field_terms` compiled into one straight-line function of
    # (x, u) that returns the n components as a list (poly.compile_kernel),
    # filled on first read by __getattr__; pickling leaves it out
    def __getattr__(self, name: str):
        # reached only when normal lookup fails, so at most once for kernel
        if name != "kernel":
            raise AttributeError(f"'GroundTruthSystem' object has no attribute {name!r}")
        kernel = compile_kernel(self.n + self.m, self.field_terms, as_list=True)
        object.__setattr__(self, "kernel", kernel)
        return kernel

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "kernel"}

    @property
    def n(self) -> int:
        return self.bases.n

    @property
    def m(self) -> int:
        return self.bases.m

    def field_floats(self, xs: list[float], us: list[float]) -> list[float]:
        """Noiseless state derivative at a state and input given as lists
        of Python floats, unchecked: one call of the compiled field.

        Each component is its `field_terms` summed left to right from
        0.0, each term ``c*x_i**e_i*...*u_l`` over its nonzero exponents,
        the same IEEE operations as on float64 scalars, as in
        `poly.eval_floats`.  Where a power overflows (a Python float raises)
        the field is rerun on float64 scalars, which give inf or nan.

        For `khalil_system` (matrix entries 0 or +-1, at most two nonzero
        terms per component) every product is exact and the one addition
        has one result, so at every finite regressor the field is bitwise
        the BLAS product [A_star B_star] @ regressor.  Where a regressor
        overflows, that product also multiplies inf by the zero entries,
        which gives nan where the field has none.

        Sets no numpy error state: an escaping state overflows to inf or
        nan, and the caller decides whether that warns.  `integrate`,
        `collect_dataset` and `event_triggered_run` each hold
        ``np.errstate(over="ignore", invalid="ignore")`` around their whole
        loop and stop on the first non-finite state.
        """
        return _call_floats(self.kernel, *xs, *us)


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


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Open-loop experiment: T records at fixed spacing under random input.

    Configs compare and hash by identity, as systems do: x0 is an array.
    """

    T: int
    sample_spacing: float
    u_bound: float
    d_radius: float
    x0: np.ndarray
    seed: int

    def __post_init__(self):
        if not isinstance(self.T, Integral):
            raise ValueError(f"T must be an integer, got {self.T!r}")
        if not (math.isfinite(self.sample_spacing) and self.sample_spacing > 0.0):
            raise ValueError(f"sample_spacing must be finite and positive, got {self.sample_spacing}")
        for name in ("u_bound", "d_radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a nonnegative integer, got {self.seed!r}")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(-1))
        if not np.isfinite(self.x0).all():
            raise ValueError(f"x0 must be finite, got {self.x0}")


@dataclass
class Trajectory:
    times: np.ndarray   # (K+1,)
    states: np.ndarray  # (K+1, n)
    diverged: bool = False


@functools.cache
def _rk4_step(n: int, m: int) -> Callable[..., list[float]]:
    """One classical Runge-Kutta step on n states and m inputs, as
    straight-line code: ``step(F, uf, h, *x)`` returns the next state as a
    list.

    F is a compiled field, F(*x, *u) -> list of n derivatives
    (`GroundTruthSystem.kernel`), and uf(*x) gives the list of m inputs at
    each stage.  Componentwise the step does the float64 vector form's
    IEEE operations in its order: hh = 0.5*h, stages at x + hh*k and
    x + h*k, then x + (h/6.0)*(a + 2.0*b + 2.0*c + d) summed left to right.
    Callers go through `poly._call_floats`, which reruns the whole step on
    float64 coordinates where a power overflows.
    """
    us = ", ".join(f"u{l}" for l in range(m))

    def stage(k: str, at: str) -> list[str]:
        args = ", ".join(f"{at}{i}" for i in range(n))
        return [f"{us}, = uf({args})",
                f"{', '.join(f'{k}{i}' for i in range(n))}, = F({args}, {us})"]

    def move(k: str, scale: str) -> list[str]:
        return [f"y{i} = x{i} + {scale} * {k}{i}" for i in range(n)]

    body = (["hh = 0.5 * h"] + stage("a", "x") + move("a", "hh") + stage("b", "y")
            + move("b", "hh") + stage("c", "y") + move("c", "h") + stage("d", "y")
            + ["h6 = h / 6.0", "return [" + ", ".join(
                f"x{i} + h6 * (a{i} + 2.0 * b{i} + 2.0 * c{i} + d{i})" for i in range(n)) + "]"])
    src = (f"def step(F, uf, h, {', '.join(f'x{i}' for i in range(n))}):\n"
           + "".join(f"    {line}\n" for line in body))
    namespace: dict = {}
    exec(src, namespace)
    return namespace["step"]


def _finite(x: list[float]) -> bool:
    return all(map(math.isfinite, x))


def _initial_state(x0: Sequence[float], n: int) -> list[float]:
    x = np.asarray(x0, dtype=float).reshape(-1)
    if x.shape != (n,):
        raise ValueError(f"expected point of length {n}, got {x.shape}")
    return x.tolist()


def _as_control(law: ControlLaw, m: int) -> Callable[..., list[float]]:
    """The RK4 step's stage-input callback uf(*x) for a control law."""
    if callable(law):
        return lambda *x: np.asarray(law(np.array(x)), dtype=float).reshape(m).tolist()
    held = np.asarray(law, dtype=float).reshape(m).tolist()
    return lambda *x: held


def _step_count(horizon: float, h: float) -> int:
    """The number of steps of size h in [0, horizon]; both must be finite,
    h positive and horizon nonnegative, and so must their ratio."""
    if not (math.isfinite(h) and h > 0.0):
        raise ValueError(f"step size h must be finite and positive, got {h}")
    if not (math.isfinite(horizon) and horizon >= 0.0):
        raise ValueError(f"horizon must be finite and nonnegative, got {horizon}")
    steps = horizon / h
    if not math.isfinite(steps):
        raise ValueError(f"horizon / h is not finite: {horizon} / {h}")
    return int(round(steps))


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
    steps = _step_count(horizon, h)
    uf = _as_control(control_law, sys.m)
    step, F = _rk4_step(sys.n, sys.m), sys.kernel
    x = _initial_state(x0, sys.n)
    times = [0.0]
    states = [x]
    diverged = False
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, steps + 1):
            x = _call_floats(step, F, uf, h, *x)
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
    step, F = _rk4_step(sys.n, sys.m), sys.kernel
    samples: list[Sample] = []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(cfg.T):
            u = rng.uniform(-cfg.u_bound, cfg.u_bound, size=sys.m)
            d = _ball_sample(rng, sys.n, cfg.d_radius)
            us = u.tolist()
            xdot = np.array(field(x, us)) + d
            samples.append(Sample(i * cfg.sample_spacing, u, np.array(x), xdot))
            uf = lambda *s: us
            for _ in range(substeps):
                x = _call_floats(step, F, uf, hs, *x)
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


def _norm(v: list[float]) -> float:
    """Euclidean norm of a list of Python floats: math.sqrt of the squares
    added left to right from 0.0."""
    total = 0.0
    for c in v:
        total += c * c
    return math.sqrt(total)


def _kinf_kernel(alpha, name: str) -> Callable[[float], float]:
    """The compiled kernel of a checked class-K-infinity polynomial."""
    if not isinstance(alpha, Polynomial):
        raise TypeError(f"{name} must be a Polynomial, got {type(alpha).__name__}")
    if len(alpha.vars) != 1:
        raise ValueError(f"{name} must be a polynomial in a single variable")
    _check_kinf(alpha, name)
    return alpha.kernel


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
    steps = _step_count(horizon, h)
    a3 = _kinf_kernel(alpha3, "alpha3")
    a4 = _kinf_kernel(alpha4, "alpha4")
    kf = [ki if ki.vars == sys.bases.vars else ki.extend(sys.bases.vars) for ki in k]
    if len(kf) != sys.m:
        raise ValueError(f"controller has {len(kf)} components, expected {sys.m}")

    x = _initial_state(x0, sys.n)
    held_x = x
    u = eval_floats(kf, x)
    step, F = _rk4_step(sys.n, sys.m), sys.kernel
    uf = lambda *s: u  # the input held at call time
    zeros = [0.0] * sys.n
    a4_zero = _call_floats(a4, 0.0)
    times = [0.0]
    states = [x]
    inputs = [u]
    errors = [zeros]
    a3s = [_call_floats(a3, _norm(x))]
    a4s = [a4_zero]
    flags = [1]
    event_times = [0.0]
    diverged = False
    storm = False
    consecutive = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(1, steps + 1):
            x = _call_floats(step, F, uf, h, *x)
            if not _finite(x):
                diverged = True
                break
            t = j * h
            e = list(map(operator.sub, held_x, x))
            v3 = _call_floats(a3, _norm(x))
            v4 = _call_floats(a4, _norm(e))
            fired = 0
            if v4 > sigma * v3:
                held_x = x
                u = eval_floats(kf, x)
                e = zeros
                v4 = a4_zero
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

