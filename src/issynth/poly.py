"""Sparse multivariate polynomials with a fixed variable ordering.

Polynomials are dicts mapping exponent tuples to float coefficients over an
ordered tuple of variables.  All arithmetic is exact up to float rounding;
coefficients below ZERO_TOL are dropped so the zero polynomial has an empty
term map.

Point evaluation has one implementation, `eval_all`: several polynomials at
one point, on Python floats, bitwise equal to the term loop on float64
scalars (see its docstring).  Each polynomial runs its own kernel, a
straight-line function compiled from its terms on first use
(`_compile_kernel`).  `eval_floats` is `eval_all` without the point
conversion and check, for callers that already hold Python floats;
`Polynomial.eval` calls `eval_all` for one polynomial, and
`Polynomial.eval_many` runs the same kernel once on the columns of an
array of points, with numpy's array arithmetic (not bitwise equal to
`eval`; see its docstring).

numpy stays where Python floats cannot give float64's answer: a power that
overflows raises on Python floats, so the kernels are rerun on float64
scalars, which give inf or nan and warn as numpy's error state says.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

# Coefficients with |c| below this are treated as exact zeros.
ZERO_TOL = 1e-14

# Terms per statement in a compiled kernel (see _compile_kernel).
_KERNEL_CHUNK = 64


@dataclass(frozen=True, order=True)
class Variable:
    """Named variable with its position in the global ordering."""

    name: str
    index: int

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, {self.index})"


def variables(names: Sequence[str]) -> tuple[Variable, ...]:
    """Create an ordered variable tuple; order of `names` is the ordering."""
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate variable names in {names!r}")
    return tuple(Variable(n, i) for i, n in enumerate(names))


def _check_same_vars(a: "Polynomial", b: "Polynomial") -> None:
    if a.vars != b.vars:
        raise ValueError(
            f"variable sets differ: {[v.name for v in a.vars]} vs {[v.name for v in b.vars]}"
        )


def grlex_key(exps: tuple[int, ...]) -> tuple:
    """Graded-lexicographic sort key: total degree, then earlier variables first."""
    return (sum(exps), tuple(-e for e in exps))


class Polynomial:
    """Immutable-by-convention sparse polynomial over a fixed variable tuple."""

    # kernel: the compiled evaluator of `terms` (see _compile_kernel),
    # filled on first read by __getattr__; equality, hashing and pickling
    # leave it out
    __slots__ = ("vars", "terms", "kernel")

    def __init__(self, vars: tuple[Variable, ...], terms: Mapping[tuple[int, ...], float]):
        self.vars = tuple(vars)
        n = len(self.vars)
        clean: dict[tuple[int, ...], float] = {}
        for exps, c in terms.items():
            c = float(c)
            if abs(c) < ZERO_TOL:
                continue
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {n} variables")
            clean[tuple(int(e) for e in exps)] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, vars: tuple[Variable, ...], terms: dict[tuple[int, ...], float]) -> "Polynomial":
        """Result of arithmetic on polynomials that already passed __init__.

        Its keys are int exponent tuples of the right length and its values
        Python floats, so only the ZERO_TOL cut applies; a NaN fails
        ``abs(c) < ZERO_TOL`` and is kept, as in __init__.
        """
        p = cls.__new__(cls)
        p.vars = vars
        p.terms = {e: c for e, c in terms.items() if not abs(c) < ZERO_TOL}
        return p

    def __getattr__(self, name: str):
        # reached only when normal lookup fails, so at most once for kernel
        if name != "kernel":
            raise AttributeError(f"'Polynomial' object has no attribute {name!r}")
        self.kernel = _compile_kernel(len(self.vars), self.terms)
        return self.kernel

    def __getstate__(self):
        return self.vars, self.terms

    def __setstate__(self, state):
        self.vars, self.terms = state

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, vars: tuple[Variable, ...]) -> "Polynomial":
        return cls(vars, {})

    @classmethod
    def constant(cls, vars: tuple[Variable, ...], c: float) -> "Polynomial":
        return cls(vars, {tuple([0] * len(vars)): c})

    @classmethod
    def monomial(cls, vars: tuple[Variable, ...], exps: Sequence[int], c: float = 1.0) -> "Polynomial":
        return cls(vars, {tuple(exps): c})

    @classmethod
    def from_var(cls, vars: tuple[Variable, ...], v: Variable) -> "Polynomial":
        exps = [0] * len(vars)
        exps[vars.index(v)] = 1
        return cls(vars, {tuple(exps): 1.0})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def constant_term(self) -> float:
        return self.terms.get(tuple([0] * len(self.vars)), 0.0)

    def coeff(self, exps: Sequence[int]) -> float:
        return self.terms.get(tuple(exps), 0.0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], float]]:
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.vars, other)
        _check_same_vars(self, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Polynomial._trusted(self.vars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            other = Polynomial.constant(self.vars, other)
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            # float() first: a numpy scalar factor would make numpy scalar
            # products; the product of two Python floats has the same bits
            s = float(other)
            return Polynomial._trusted(self.vars, {e: c * s for e, c in self.terms.items()})
        _check_same_vars(self, other)
        out: dict[tuple[int, ...], float] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                e = tuple(i + j for i, j in zip(ea, eb))
                out[e] = out.get(e, 0.0) + ca * cb
        return Polynomial._trusted(self.vars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("negative powers not supported")
        out = Polynomial.constant(self.vars, 1.0)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(self.sorted_terms())))

    # -- evaluation ---------------------------------------------------

    def __call__(self, point: Sequence[float]) -> float:
        return self.eval(point)

    def eval(self, point: Sequence[float]) -> float:
        return eval_all((self,), point)[0]

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (npoints, nvars) array of points in one shot.

        The kernel runs once on the point columns, so each term is formed
        with numpy's array power and product, whose results may differ from
        the per-point `eval` by rounding: a few units in the last place of
        the sum of the terms' magnitudes.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != len(self.vars):
            raise ValueError(f"expected (npoints, {len(self.vars)}) array, got {pts.shape}")
        vals = self.kernel(*pts.T)
        # a zero or constant polynomial's kernel returns one Python float
        return np.full(len(pts), vals) if np.ndim(vals) == 0 else vals

    # -- calculus and substitution ------------------------------------

    def grad(self) -> tuple["Polynomial", ...]:
        """Partial derivatives with respect to every variable, in order."""
        n = len(self.vars)
        outs = []
        for i in range(n):
            d: dict[tuple[int, ...], float] = {}
            for exps, c in self.terms.items():
                if exps[i] == 0:
                    continue
                e = list(exps)
                e[i] -= 1
                d[tuple(e)] = d.get(tuple(e), 0.0) + c * exps[i]
            outs.append(Polynomial._trusted(self.vars, d))
        return tuple(outs)

    def subst(self, mapping: Mapping[Variable, "Polynomial"]) -> "Polynomial":
        """Exact substitution var -> affine expression, expanded fully.

        Every variable of self must be mapped; the images must share one
        variable tuple, which becomes the result's variable tuple.  Images
        must be affine (degree <= 1): the intended use is shifts such as
        x -> x + e, where binomial expansion keeps term counts bounded.
        """
        images = [mapping.get(v) for v in self.vars]
        if any(im is None for im in images):
            missing = [v.name for v, im in zip(self.vars, images) if im is None]
            raise ValueError(f"substitution missing variables: {missing}")
        new_vars = images[0].vars
        for im in images:
            if im.vars != new_vars:
                raise ValueError("substitution images use inconsistent variable tuples")
            if im.degree() > 1:
                raise ValueError("only affine substitutions are supported")
        one = (0,) * len(new_vars)
        max_pow = [0] * len(self.vars)
        for exps in self.terms:
            for i, e in enumerate(exps):
                max_pow[i] = max(max_pow[i], e)
        powers: list[list[Polynomial]] = []
        for im, mp in zip(images, max_pow):
            ps = [Polynomial._trusted(new_vars, {one: 1.0})]
            for _ in range(mp):
                ps.append(ps[-1] * im)
            powers.append(ps)
        out = Polynomial._trusted(new_vars, {})
        for exps, c in self.terms.items():
            term = Polynomial._trusted(new_vars, {one: c})
            for i, e in enumerate(exps):
                if e:
                    term = term * powers[i][e]
            out = out + term
        return out

    def extend(self, new_vars: tuple[Variable, ...]) -> "Polynomial":
        """Reinterpret over a larger variable tuple containing self's names."""
        new_vars = tuple(new_vars)
        pos = []
        names = [v.name for v in new_vars]
        for v in self.vars:
            if v.name not in names:
                raise ValueError(f"variable {v.name} absent from target tuple")
            pos.append(names.index(v.name))
        out: dict[tuple[int, ...], float] = {}
        for exps, c in self.terms.items():
            e = [0] * len(new_vars)
            for p, ei in zip(pos, exps):
                e[p] = ei
            out[tuple(e)] = out.get(tuple(e), 0.0) + c
        return Polynomial._trusted(new_vars, out)

    # -- text and JSON ------------------------------------------------

    def __repr__(self) -> str:
        return f"Polynomial({self.to_string()!r})"

    def to_string(self) -> str:
        """Render like '-1.3188*x1^3 - 4.1114*x1^2*x2'; zero renders as '0'."""
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for v, e in zip(self.vars, exps):
                if e == 1:
                    factors.append(v.name)
                elif e > 1:
                    factors.append(f"{v.name}^{e}")
            mag = abs(c)
            if factors and abs(mag - 1.0) < 1e-12:
                body = "*".join(factors)
            else:
                coeff_s = f"{mag:.12g}"
                body = "*".join([coeff_s] + factors) if factors else coeff_s
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


def _compile_kernel(n: int, terms: Mapping[tuple[int, ...], float]) -> Callable[..., float]:
    """Straight-line function of n positional coordinates that evaluates
    `terms` as ``0.0 + c0*x0**e0*x1**e1 + c1*...`` in stored term order,
    leaving out zero exponents.

    The coefficients are bound as closure values, never printed into the
    source, so inf, nan and -0.0 keep their bits.  Sums of many terms are
    split into statements of _KERNEL_CHUNK terms, which keeps the
    left-to-right addition order and the parser's nesting depth small.
    """
    xs = [f"x{i}" for i in range(n)]
    products = [
        "*".join([f"c{j}"] + [f"{x}**{e}" for x, e in zip(xs, exps) if e])
        for j, exps in enumerate(terms)
    ]
    body = ["t = 0.0"] + [
        f"t = t + {' + '.join(products[k:k + _KERNEL_CHUNK])}"
        for k in range(0, len(products), _KERNEL_CHUNK)
    ]
    src = (f"def make({', '.join(f'c{j}' for j in range(len(products)))}):\n"
           f"    def kernel({', '.join(xs)}):\n"
           + "".join(f"        {line}\n" for line in body)
           + "        return t\n"
           "    return kernel\n")
    namespace: dict = {}
    exec(src, namespace)
    return namespace["make"](*terms.values())


def eval_all(polys: Sequence[Polynomial], point: Sequence[float]) -> list[float]:
    """Evaluate several polynomials at one point, as Python floats.

    The point is converted once to a list of Python floats and handed to
    each polynomial's kernel (see `_compile_kernel`).  Each term is
    ``c * x_i**e_i * ...`` over the nonzero exponents in variable order,
    added in stored term order: the same IEEE operations as on float64
    scalars, both calling the C library's ``pow``, so results are bitwise
    equal to a float64 evaluation.  Where a Python float power overflows
    (it raises, float64 gives inf) the kernels are rerun on float64
    scalars, so inf and nan come out as float64 gives them, with numpy's
    error state deciding whether the overflow warns.
    """
    pt = np.asarray(point, dtype=float)
    n = len(pt) if pt.ndim == 1 else -1
    for p in polys:
        if len(p.vars) != n:
            raise ValueError(f"expected point of length {len(p.vars)}, got {pt.shape}")
    return eval_floats(polys, pt.tolist())


def eval_floats(polys: Sequence[Polynomial], xs: list[float]) -> list[float]:
    """`eval_all` on a point that already is a list of Python floats, one
    per variable of every polynomial; neither is checked."""
    try:
        return [p.kernel(*xs) for p in polys]
    except OverflowError:
        xs = [np.float64(x) for x in xs]
        return [p.kernel(*xs) for p in polys]


def monomial_basis(
    vars: tuple[Variable, ...], max_deg: int, include_constant: bool = True
) -> list[Polynomial]:
    """All monomials of total degree <= max_deg in graded-lex order."""
    if max_deg < 0:
        raise ValueError("max_deg must be nonnegative")
    n = len(vars)
    exps_list: list[tuple[int, ...]] = []

    def rec(prefix: list[int], remaining: int, slot: int) -> None:
        if slot == n:
            exps_list.append(tuple(prefix))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slot + 1)

    rec([], max_deg, 0)
    exps_list.sort(key=grlex_key)
    if not include_constant:
        exps_list = [e for e in exps_list if sum(e) > 0]
    return [Polynomial.monomial(vars, e) for e in exps_list]


def squared_norm(vars: tuple[Variable, ...]) -> Polynomial:
    """The polynomial sum of v^2 over every variable v in `vars`."""
    out = Polynomial.zero(vars)
    for v in vars:
        out = out + Polynomial.from_var(vars, v) ** 2
    return out


_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<float>[0-9]*\.[0-9]+(?:[eE][+-]?[0-9]+)?|[0-9]+(?:[eE][+-]?[0-9]+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<pow>\*\*|\^)
      | (?P<mul>\*)
      | (?P<plus>\+)
      | (?P<minus>-)
      | (?P<lparen>\()
      | (?P<rparen>\))
    )""",
    re.VERBOSE,
)


def parse_poly(text: str, vars: tuple[Variable, ...]) -> Polynomial:
    """Parse '+/-' separated products of coefficients and name^power factors.

    Accepts the format produced by Polynomial.to_string, plus '**' for '^'.
    An exponent must be written as a nonnegative integer (digits only);
    anything else raises ValueError naming it.  Parentheses are not
    supported on purpose: the grammar stays a flat sum of monomials.
    """
    by_name = {v.name: v for v in vars}
    pos = 0
    tokens: list[tuple[str, str]] = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot tokenize polynomial at {text[pos:pos+12]!r}")
        for kind, val in m.groupdict().items():
            if val is not None:
                tokens.append((kind, val))
                break
        pos = m.end()
    result = Polynomial.zero(vars)
    i = 0
    nt = len(tokens)
    while i < nt:
        sign = 1.0
        while i < nt and tokens[i][0] in ("plus", "minus"):
            if tokens[i][0] == "minus":
                sign = -sign
            i += 1
        if i >= nt:
            raise ValueError("dangling sign at end of polynomial")
        coeff = sign
        exps = [0] * len(vars)
        expect_factor = True
        while i < nt:
            kind, val = tokens[i]
            if kind in ("plus", "minus") and not expect_factor:
                break
            if kind == "float":
                coeff *= float(val)
                i += 1
            elif kind == "name":
                if val not in by_name:
                    raise ValueError(f"unknown variable {val!r}")
                power = 1
                if i + 1 < nt and tokens[i + 1][0] == "pow":
                    if i + 2 >= nt or tokens[i + 2][0] != "float":
                        raise ValueError(f"missing exponent after {val}^")
                    digits = tokens[i + 2][1]
                    if not digits.isdigit():
                        raise ValueError(f"exponent {digits!r} of {val} is not an integer")
                    power = int(digits)
                    i += 2
                exps[vars.index(by_name[val])] += power
                i += 1
            elif kind == "mul":
                i += 1
                expect_factor = True
                continue
            else:
                raise ValueError(f"unexpected token {val!r} in polynomial")
            expect_factor = False
        if expect_factor:
            raise ValueError("empty term in polynomial")
        result = result + Polynomial.monomial(vars, exps, coeff)
    return result
