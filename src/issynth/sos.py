"""Sum-of-squares programming layer on top of the SDP solver.

A constraint ``p is SOS`` is compiled by introducing a Gram matrix G over a
monomial basis z and matching coefficients of  p == z^T G z.  Matrix SOS
constraints  M(x) = S(y, x) with  y^T M(x) y  a scalar SOS in (y, x)  reuse
the same machinery: each Gram basis element is a product  y_i * (x-monomial)
and the target is the expanded quadratic form.  Gram matrices may be split
into overlapping index blocks (a chordal-style decomposition); the
constraint then asks for a sum of small PSD Gram blocks instead of one big
one, which keeps the Schur complement cheap.

Decision variables enter affinely through `AffinePoly`: a fixed polynomial
plus polynomial multipliers for named scalar coefficients.  Compilation maps
coefficients to free SDP variables and Gram blocks to PSD blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .poly import Polynomial, Variable, grlex_key, monomial_basis
from .sdp import SdpProblem, SdpSolution, SolveOptions, solve_sdp

Expr = Union["AffinePoly", Polynomial, float, int]


@dataclass(frozen=True)
class CoeffVar:
    """Scalar decision variable appearing affinely in polynomial templates."""

    name: str
    index: int


class AffinePoly:
    """Polynomial with affine dependence on coefficient variables.

    value(c) = const + sum_v c_v * lin[v],  every part over the same
    variable tuple.
    """

    __slots__ = ("vars", "const", "lin")

    def __init__(self, vars: tuple[Variable, ...], const: Polynomial,
                 lin: dict[int, Polynomial] | None = None):
        if const.vars != vars:
            raise ValueError("constant part uses a different variable tuple")
        self.vars = vars
        self.const = const
        self.lin: dict[int, Polynomial] = {}
        for idx, p in (lin or {}).items():
            if p.vars != vars:
                raise ValueError("linear part uses a different variable tuple")
            if p.terms:
                self.lin[idx] = p

    # -- constructors --------------------------------------------------

    @classmethod
    def promote(cls, expr: Expr, vars: tuple[Variable, ...]) -> "AffinePoly":
        if isinstance(expr, AffinePoly):
            if expr.vars == vars:
                return expr
            return expr.extend(vars)
        if isinstance(expr, Polynomial):
            if expr.vars != vars:
                expr = expr.extend(vars)
            return cls(vars, expr)
        return cls(vars, Polynomial.constant(vars, float(expr)))

    @classmethod
    def from_var(cls, v: CoeffVar, vars: tuple[Variable, ...]) -> "AffinePoly":
        return cls(vars, Polynomial.zero(vars),
                   {v.index: Polynomial.constant(vars, 1.0)})

    # -- structure -----------------------------------------------------

    def extend(self, new_vars: tuple[Variable, ...]) -> "AffinePoly":
        return AffinePoly(
            new_vars,
            self.const.extend(new_vars),
            {i: p.extend(new_vars) for i, p in self.lin.items()},
        )

    def degree(self) -> int:
        d = self.const.degree()
        for p in self.lin.values():
            d = max(d, p.degree())
        return d

    # -- arithmetic (affine in the decision variables) ------------------

    def _binary(self, other: Expr, sign: float) -> "AffinePoly":
        other = AffinePoly.promote(other, self.vars)
        lin = dict(self.lin)
        for i, p in other.lin.items():
            lin[i] = lin.get(i, Polynomial.zero(self.vars)) + (sign * p)
        return AffinePoly(self.vars, self.const + sign * other.const, lin)

    def __add__(self, other: Expr) -> "AffinePoly":
        return self._binary(other, 1.0)

    def __radd__(self, other: Expr) -> "AffinePoly":
        return self._binary(other, 1.0)

    def __sub__(self, other: Expr) -> "AffinePoly":
        return self._binary(other, -1.0)

    def __rsub__(self, other: Expr) -> "AffinePoly":
        return AffinePoly.promote(other, self.vars)._binary(self, -1.0)

    def __neg__(self) -> "AffinePoly":
        return self.__mul__(-1.0)

    def __mul__(self, other) -> "AffinePoly":
        if isinstance(other, AffinePoly):
            if not other.lin:
                other = other.const
            elif not self.lin:
                return other.__mul__(self.const)
            else:
                raise TypeError("product of two terms with decision variables "
                                "is not affine")
        if isinstance(other, Polynomial):
            if other.vars != self.vars:
                other = other.extend(self.vars)
            return AffinePoly(self.vars, self.const * other,
                              {i: p * other for i, p in self.lin.items()})
        s = float(other)
        return AffinePoly(self.vars, self.const * s,
                          {i: p * s for i, p in self.lin.items()})

    def __rmul__(self, other) -> "AffinePoly":
        return self.__mul__(other)

    # -- calculus and substitution --------------------------------------

    def diff(self, var: Variable) -> "AffinePoly":
        i = self.vars.index(var)

        def d(p: Polynomial) -> Polynomial:
            return p.grad()[i]

        return AffinePoly(self.vars, d(self.const),
                          {j: d(p) for j, p in self.lin.items()})

    def subst(self, mapping: dict) -> "AffinePoly":
        const = self.const.subst(mapping)
        lin = {i: p.subst(mapping) for i, p in self.lin.items()}
        return AffinePoly(const.vars, const, lin)

    def value(self, coeffs: dict[int, float] | Sequence[float]) -> Polynomial:
        """Plug numeric coefficient values in, returning a plain polynomial."""
        out = self.const
        for i, p in self.lin.items():
            c = coeffs[i]
            if c:
                out = out + p * float(c)
        return out

    def __repr__(self):
        parts = [self.const.to_string()]
        for i in sorted(self.lin):
            parts.append(f"c{i}*({self.lin[i].to_string()})")
        return "AffinePoly(" + " + ".join(parts) + ")"


# ---------------------------------------------------------------------------
# program


@dataclass
class _GramConstraint:
    name: str
    target: AffinePoly           # over the combined variable tuple
    blocks: list[list[tuple[int, ...]]]  # per block, list of exponent tuples
    margin: Optional[int]        # coeff var index added to the Gram diagonal
    margin_mask: Optional[list[list[bool]]]  # which diagonal entries get it
    meta: dict


@dataclass
class _LinearConstraint:
    terms: list[tuple[int, float]]
    rhs: float
    sense: str  # "==", ">=", "<="


class SosCertificateError(ValueError):
    pass


# largest coefficient difference M[i][j] - M[j][i] a matrix SOS target may have
SYM_TOL = 1e-10


class SosProgram:
    """Collects SOS and linear constraints over shared coefficient variables."""

    def __init__(self):
        self._coeffs: list[CoeffVar] = []
        self._grams: list[_GramConstraint] = []
        self._linear: list[_LinearConstraint] = []
        self._objective: dict[int, float] = {}
        self._compiled: Optional[tuple[SdpProblem, dict]] = None

    # -- decision variables ---------------------------------------------

    def new_coeff(self, name: str = "") -> CoeffVar:
        self._compiled = None
        v = CoeffVar(name or f"c{len(self._coeffs)}", len(self._coeffs))
        self._coeffs.append(v)
        return v

    def new_coeffs(self, prefix: str, n: int) -> list[CoeffVar]:
        return [self.new_coeff(f"{prefix}{i}") for i in range(n)]

    def template(self, vars: tuple[Variable, ...],
                 monomials: Sequence[Polynomial],
                 prefix: str = "c") -> tuple[AffinePoly, list[CoeffVar]]:
        """Fresh affine template  sum_i c_i * m_i  over the given monomials."""
        cs = self.new_coeffs(prefix, len(monomials))
        lin = {}
        for c, mpoly in zip(cs, monomials):
            mp = mpoly if mpoly.vars == vars else mpoly.extend(vars)
            lin[c.index] = mp
        return AffinePoly(vars, Polynomial.zero(vars), lin), cs

    # -- constraints -----------------------------------------------------

    def add_scalar_sos(self, expr: Expr, basis: Sequence[Polynomial] | None = None,
                       margin: CoeffVar | None = None,
                       name: str = "") -> int:
        """Constrain expr to be a sum of squares over the monomial basis.

        With a margin t, the Gram matrix minus t*I must be PSD: the shift
        covers the whole diagonal.
        """
        self._compiled = None
        if isinstance(expr, (float, int)):
            raise TypeError("scalar SOS constraint needs a polynomial")
        vars = expr.vars
        target = AffinePoly.promote(expr, vars)
        if not target.lin and target.const.degree() > 0 and target.const.degree() % 2 == 1:
            raise ValueError("odd-degree polynomial cannot be a sum of squares")
        if basis is None:
            half = (max(target.degree(), 0) + 1) // 2
            basis = monomial_basis(vars, half)
        exps = [_mono_exps(b, vars) for b in basis]
        con = _GramConstraint(
            name=name or f"sos{len(self._grams)}",
            target=target,
            blocks=[exps],
            margin=margin.index if margin else None,
            margin_mask=None,
            meta={"kind": "scalar", "vars": vars, "basis": [list(e) for e in exps]},
        )
        self._grams.append(con)
        return len(self._grams) - 1

    def add_matrix_sos(self, entries: Sequence[Sequence[Expr]],
                       z_bases: Sequence[Sequence[Polynomial]] | None = None,
                       cliques: Sequence[Sequence[tuple[int, int]]] | None = None,
                       margin: CoeffVar | None = None,
                       margin_skip_constant: bool = False,
                       name: str = "") -> int:
        """Constrain a symmetric polynomial matrix to admit an SOS Gram form.

        entries[i][j] give the matrix; z_bases[i] is the monomial basis
        attached to row i (one shared basis when a single list is more
        convenient is expressed by repeating it).  cliques optionally split
        the Gram into overlapping blocks, each a list of (row, basis_pos)
        pairs into the corresponding z_bases row.  Entries must agree with
        their transposes to SYM_TOL.  A margin t shifts the whole Gram
        diagonal; margin_skip_constant exempts basis elements that are
        constant in the matrix variables (the row selector times 1), where
        structural zeros of the target would otherwise force the margin
        nonpositive.
        """
        self._compiled = None
        n = len(entries)
        base_vars = None
        for row in entries:
            for e in row:
                if isinstance(e, (AffinePoly, Polynomial)):
                    base_vars = e.vars
                    break
            if base_vars:
                break
        if base_vars is None:
            raise TypeError("matrix SOS constraint needs polynomial entries")
        M = [[AffinePoly.promote(entries[i][j], base_vars) for j in range(n)]
             for i in range(n)]
        # symmetry is required, not silently repaired
        for i in range(n):
            for j in range(i + 1, n):
                d = M[i][j] - M[j][i]
                err = max((abs(c) for c in d.const.terms.values()), default=0.0)
                for p in d.lin.values():
                    err = max(err, max((abs(c) for c in p.terms.values()), default=0.0))
                if err > SYM_TOL:
                    raise ValueError(f"matrix asymmetry {err:.2e} at entry ({i},{j})")

        # internal quadratic-form variables, one per matrix row
        yvars = tuple(Variable(f"_q{i}", i) for i in range(n))
        xvars = tuple(Variable(v.name, n + k) for k, v in enumerate(base_vars))
        allvars = yvars + xvars

        def lift(exps_x: tuple[int, ...], row: int | None) -> tuple[int, ...]:
            y = [0] * n
            if row is not None:
                y[row] = 1
            return tuple(y) + tuple(exps_x)

        def lift_poly(p: AffinePoly, yexp: tuple[int, ...]) -> AffinePoly:
            def lp(q: Polynomial) -> Polynomial:
                return Polynomial(allvars, {tuple(yexp) + e: c for e, c in q.terms.items()})
            return AffinePoly(allvars, lp(p.const), {i: lp(q) for i, q in p.lin.items()})

        target = AffinePoly(allvars, Polynomial.zero(allvars))
        for i in range(n):
            for j in range(i, n):
                yexp = [0] * n
                yexp[i] += 1
                yexp[j] += 1
                w = 1.0 if i == j else 2.0
                target = target + lift_poly(M[i][j] * w, tuple(yexp))

        if z_bases is None:
            half = (max(max(a.degree() for a in row) for row in M) + 1) // 2
            zb = monomial_basis(base_vars, half)
            z_bases = [zb] * n
        z_exps = [[_mono_exps(b, base_vars) for b in z_bases[i]] for i in range(n)]

        if cliques is None:
            blocks = [[lift(e, i) for i in range(n) for e in z_exps[i]]]
        else:
            blocks = []
            for cl in cliques:
                blocks.append([lift(z_exps[i][k], i) for (i, k) in cl])

        mask = None
        if margin is not None and margin_skip_constant:
            # x-part of a lifted exponent tuple sits after the n row selectors
            mask = [[any(e[n:]) for e in blk] for blk in blocks]
        con = _GramConstraint(
            name=name or f"msos{len(self._grams)}",
            target=target,
            blocks=blocks,
            margin=margin.index if margin else None,
            margin_mask=mask,
            meta={
                "kind": "matrix",
                "vars": base_vars,
                "n_rows": n,
                "z_bases": [[list(e) for e in row] for row in z_exps],
                "cliques": [list(map(tuple, cl)) for cl in cliques] if cliques else None,
            },
        )
        self._grams.append(con)
        return len(self._grams) - 1

    def add_linear(self, terms: Iterable[tuple[CoeffVar, float]],
                   rhs: float = 0.0, sense: str = "==") -> None:
        if sense not in ("==", ">=", "<="):
            raise ValueError(f"unknown sense {sense!r}")
        self._compiled = None
        self._linear.append(_LinearConstraint(
            [(v.index, float(c)) for v, c in terms], float(rhs), sense))

    def set_objective(self, terms: Iterable[tuple[CoeffVar, float]],
                      sense: str = "min") -> None:
        if sense not in ("min", "max"):
            raise ValueError(f"unknown sense {sense!r}")
        self._compiled = None
        sign = 1.0 if sense == "min" else -1.0
        self._objective = {}
        for v, c in terms:
            self._objective[v.index] = self._objective.get(v.index, 0.0) + sign * float(c)

    # -- compilation ------------------------------------------------------

    def compile(self) -> tuple[SdpProblem, dict]:
        if self._compiled is not None:
            return self._compiled
        prob = SdpProblem()
        for v in self._coeffs:
            prob.add_free(v.name)

        gram_blocks: list[list[int]] = []
        for gi, con in enumerate(self._grams):
            ids = []
            for bi, blk in enumerate(con.blocks):
                ids.append(prob.add_block(len(blk), f"{con.name}.b{bi}"))
            gram_blocks.append(ids)

        row_families: list[tuple[str, int, int]] = []
        for gi, con in enumerate(self._grams):
            family_start = prob.n_rows
            rows: dict[tuple[int, ...], tuple[list, dict]] = {}

            def row_for(exps):
                if exps not in rows:
                    rows[exps] = ([], {})
                return rows[exps]

            for bi, blk in enumerate(con.blocks):
                blkid = gram_blocks[gi][bi]
                for a in range(len(blk)):
                    ea = blk[a]
                    for b in range(a, len(blk)):
                        prod = tuple(x + y for x, y in zip(ea, blk[b]))
                        psd, _ = row_for(prod)
                        psd.append((blkid, a, b, 1.0 if a == b else 2.0))
            rhs_map: dict[tuple[int, ...], float] = dict(con.target.const.terms)
            for vidx, p in con.target.lin.items():
                for exps, c in p.terms.items():
                    _, free = row_for(exps)
                    free[vidx] = free.get(vidx, 0.0) - c
            # the PSD block stores H = G - t*D, so the margin term joins the
            # Gram products on the left of each diagonal matching row
            if con.margin is not None:
                for bi, blk in enumerate(con.blocks):
                    for a, ea in enumerate(blk):
                        if con.margin_mask is not None and not con.margin_mask[bi][a]:
                            continue
                        _, free = row_for(tuple(2 * x for x in ea))
                        free[con.margin] = free.get(con.margin, 0.0) + 1.0
            for exps in sorted(set(rows) | set(rhs_map), key=grlex_key):
                psd, free = rows.get(exps, ([], {}))
                prob.add_row(psd, sorted(free.items()), rhs_map.get(exps, 0.0))
            row_families.append((con.name, family_start, prob.n_rows))

        linear_start = prob.n_rows
        for lc in self._linear:
            if lc.sense == "==":
                prob.add_row(free_entries=lc.terms, rhs=lc.rhs)
            else:
                slack = prob.add_block(1, "lin_slack")
                sgn = -1.0 if lc.sense == ">=" else 1.0
                prob.add_row(psd_entries=[(slack, 0, 0, sgn)],
                             free_entries=lc.terms, rhs=lc.rhs)
        if prob.n_rows > linear_start:
            row_families.append(("linear", linear_start, prob.n_rows))

        for idx, c in self._objective.items():
            if c:
                prob.set_objective_free(idx, c)

        index = {
            "coeffs": [v.name for v in self._coeffs],
            "gram_blocks": gram_blocks,
            "row_families": row_families,
            "grams": [
                {"name": con.name, "meta": con.meta, "margin_index": con.margin,
                 "margin_mask": con.margin_mask,
                 "blocks": [[list(e) for e in blk] for blk in con.blocks]}
                for con in self._grams
            ],
        }
        self._compiled = (prob, index)
        return self._compiled

    def solve(self, opts: SolveOptions | None = None) -> "SosSolution":
        prob, index = self.compile()
        sdp_sol = solve_sdp(prob, opts)
        return SosSolution(self, prob, index, sdp_sol)


def _mono_exps(p: Polynomial, vars: tuple[Variable, ...]) -> tuple[int, ...]:
    q = p if p.vars == vars else p.extend(vars)
    if len(q.terms) != 1:
        raise ValueError("basis entries must be single monomials")
    (exps, c), = q.terms.items()
    if abs(c - 1.0) > 1e-12:
        raise ValueError("basis monomials must have coefficient 1")
    return exps


class SosSolution:
    """Solved SOS program with convenient access to values and Gram data."""

    def __init__(self, program: SosProgram, prob: SdpProblem, index: dict,
                 sdp: SdpSolution):
        self.program = program
        self.problem = prob
        self.index = index
        self.sdp = sdp
        self.status = sdp.status
        self.objective = sdp.objective
        if sdp.status in ("optimal", "feasible"):
            self.coeff_values = {i: float(sdp.free[i])
                                 for i in range(len(index["coeffs"]))}
        else:
            self.coeff_values = {}

    def coeff(self, v: CoeffVar) -> float:
        return self.coeff_values[v.index]

    def value(self, expr: AffinePoly) -> Polynomial:
        return expr.value(self.coeff_values)

    def gram(self, handle: int, fold: bool = True) -> list[np.ndarray]:
        """Gram blocks of the constraint.

        With fold=True the margin shift is folded back in, so the blocks
        reproduce the target polynomial exactly but are only PSD up to the
        margin value.  With fold=False the raw PSD decision blocks are
        returned; they certify target - margin * (masked diagonal).
        """
        ids = self.index["gram_blocks"][handle]
        out = [self.sdp.blocks[i] for i in ids]
        entry = self.index["grams"][handle]
        midx = entry.get("margin_index")
        if fold and midx is not None and self.coeff_values:
            t = self.coeff_values[midx]
            mask = entry.get("margin_mask")
            shifts = []
            for bi, G in enumerate(out):
                d = np.ones(G.shape[0]) if mask is None else np.array(mask[bi], dtype=float)
                shifts.append(G + t * np.diag(d))
            out = shifts
        return out

    def gram_min_eig(self, handle: int) -> float:
        return min(float(np.linalg.eigvalsh(G)[0]) for G in self.gram(handle))


# ---------------------------------------------------------------------------
# certificates


def extract_certificate(G: np.ndarray, basis_exps: Sequence[tuple[int, ...]],
                        vars: tuple[Variable, ...],
                        min_eig_tol: float = 1e-7) -> list[Polynomial]:
    """Factor a Gram matrix into explicit squares  sum_k p_k^2.

    Eigenvalues in [-min_eig_tol, 0) are clipped to zero; anything lower
    raises, because the matrix is then not a certificate at this tolerance.
    """
    G = 0.5 * (G + G.T)
    w, V = np.linalg.eigh(G)
    if w[0] < -min_eig_tol:
        raise SosCertificateError(
            f"Gram matrix has eigenvalue {w[0]:.3e} below -{min_eig_tol:.1e}")
    polys = []
    scale = max(w[-1], 0.0)
    for k in range(len(w)):
        lam = w[k]
        if lam <= max(1e-14 * scale, 0.0):
            continue
        coeffs = np.sqrt(lam) * V[:, k]
        terms = {}
        for a, exps in enumerate(basis_exps):
            if abs(coeffs[a]) > 1e-300:
                terms[tuple(exps)] = terms.get(tuple(exps), 0.0) + coeffs[a]
        polys.append(Polynomial(vars, terms))
    return polys


def gram_polynomial(G: np.ndarray, basis_exps: Sequence[tuple[int, ...]],
                    vars: tuple[Variable, ...]) -> Polynomial:
    """Expand z^T G z over the monomial basis."""
    terms: dict[tuple[int, ...], float] = {}
    n = len(basis_exps)
    for a in range(n):
        ea = basis_exps[a]
        for b in range(n):
            prod = tuple(x + y for x, y in zip(ea, basis_exps[b]))
            terms[prod] = terms.get(prod, 0.0) + G[a, b]
    return Polynomial(vars, terms)


def check_sos_numeric(target: Polynomial, grams: Sequence[np.ndarray],
                      blocks_exps: Sequence[Sequence[tuple[int, ...]]],
                      rng: np.random.Generator, n_points: int = 100,
                      tol: float = 1e-6) -> tuple[bool, float]:
    """Sample |target - sum_blocks z^T G z| at random points, relative error."""
    nv = len(target.vars)
    pts = rng.uniform(-1.0, 1.0, size=(n_points, nv))
    tv = target.eval_many(pts)
    gv = np.zeros(n_points)
    for G, exps in zip(grams, blocks_exps):
        E = np.array([list(e) for e in exps])
        Zv = np.prod(pts[:, None, :] ** E[None, :, :], axis=2)
        gv += np.einsum("pa,ab,pb->p", Zv, G, Zv)
    scale = 1.0 + np.max(np.abs(tv))
    err = float(np.max(np.abs(tv - gv)) / scale)
    return err <= tol, err
