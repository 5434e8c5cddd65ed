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
coefficients to free SDP variables and Gram blocks to PSD blocks.  Every
Gram basis is given by the caller; nothing here picks one.

The margin rule.  Only a matrix SOS constraint takes a margin, a
coefficient t.  Its PSD block is H = G - t*D, where D is the 0/1 diagonal
that marks every basis element which is not constant in the matrix
variables ("margin_mask" in the compiled index); the element y_i * 1 is
left out.  Shifted, such an element's diagonal row would read
H_aa + t = M[i][i](0) and cap t at that constant term: at zero for row 0
of theorem 1's matrix, and at 2*lambda(0) for a shaping row once lambda is
fixed, as in step K (derived from the matching rows, not measured by a
solve).  An element left out of the shift whose diagonal target is zero
and free of decision variables is pruned at compile; an element t shifts
never is, because t enters its diagonal row.

Before any row is emitted, compilation drops Gram basis elements whose
diagonal is structurally zero: a matching row with no target coefficient,
no decision variable and only same-signed diagonal entries forces each of
them to zero, and a PSD matrix is then zero on that whole row and column.
This repeats until nothing changes (diagonal-zero propagation; Loefberg,
"Pre- and post-processing sum-of-squares programs in practice", 2009).
Without it such a block has no strictly feasible point and the interior-
point solve degrades.  The solver sees the smaller blocks; `SosSolution.gram`
returns each raw PSD block (H under a margin) over its declared basis, with
exact zeros at the pruned positions, and the compiled index lists them per
block under "pruned".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .poly import Polynomial, Variable, grlex_key
from .sdp import SdpProblem, SdpSolution, solve_sdp

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

    # -- arithmetic (affine in the decision variables) ------------------

    def _binary(self, other: Expr, sign: float) -> "AffinePoly":
        other = AffinePoly.promote(other, self.vars)
        lin = dict(self.lin)
        for i, p in other.lin.items():
            lin[i] = lin[i] + sign * p if i in lin else sign * p
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
    margin: Optional[int]        # coeff var index of t (matrix SOS only)
    margin_mask: Optional[list[list[bool]]]  # D of the margin rule, iff margin
    meta: dict


@dataclass
class _LinearConstraint:
    terms: list[tuple[int, float]]
    rhs: float
    sense: str  # "==", ">=", "<="
    family: str  # row-family label in the compiled index


class SosCertificateError(ValueError):
    pass


# largest coefficient difference M[i][j] - M[j][i] a matrix SOS target may have
SYM_TOL = 1e-10
# lowest Gram eigenvalue extract_certificate clips to zero instead of rejecting
CERT_MIN_EIG_TOL = 1e-7
# check_sos_numeric's effort and pass threshold, fixed like verify.py's
CHECK_POINTS = 100
CHECK_TOL = 1e-6


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

    def add_scalar_sos(self, expr: Expr, basis: Sequence[Polynomial],
                       name: str = "") -> int:
        """Constrain expr to be a sum of squares over the monomial basis."""
        self._compiled = None
        if isinstance(expr, (float, int)):
            raise TypeError("scalar SOS constraint needs a polynomial")
        vars = expr.vars
        target = AffinePoly.promote(expr, vars)
        if not target.lin and target.const.degree() > 0 and target.const.degree() % 2 == 1:
            raise ValueError("odd-degree polynomial cannot be a sum of squares")
        exps = [_mono_exps(b, vars) for b in basis]
        con = _GramConstraint(
            name=name or f"sos{len(self._grams)}",
            target=target,
            blocks=[exps],
            margin=None,
            margin_mask=None,
            meta={"kind": "scalar", "vars": vars},
        )
        self._grams.append(con)
        return len(self._grams) - 1

    def add_matrix_sos(self, entries: Sequence[Sequence[Expr]],
                       z_bases: Sequence[Sequence[Polynomial]],
                       cliques: Sequence[Sequence[tuple[int, int]]] | None = None,
                       margin: CoeffVar | None = None,
                       name: str = "") -> int:
        """Constrain a symmetric polynomial matrix to admit an SOS Gram form.

        entries[i][j] give the matrix; z_bases[i] is the monomial basis
        attached to row i.  cliques optionally split the Gram into
        overlapping blocks, each a list of (row, basis_pos) pairs into the
        corresponding z_bases row.  Entries must agree with their
        transposes to SYM_TOL.  A margin t follows the module's margin rule.
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

        def lift(exps_x: tuple[int, ...], row: int) -> tuple[int, ...]:
            y = [0] * n
            y[row] = 1
            return tuple(y) + tuple(exps_x)

        # y^T M y: entry (i, j), j >= i, owns the selector y_i*y_j, so each
        # of its coefficients lands on a monomial no other entry reaches and
        # is copied, weighted, never summed
        const: dict[tuple[int, ...], float] = {}
        lin: dict[int, dict[tuple[int, ...], float]] = {}
        for i in range(n):
            for j in range(i, n):
                yexp = tuple((k == i) + (k == j) for k in range(n))
                w = 1.0 if i == j else 2.0
                for e, c in M[i][j].const.terms.items():
                    const[yexp + e] = c * w
                for idx, p in M[i][j].lin.items():
                    terms = lin.setdefault(idx, {})
                    for e, c in p.terms.items():
                        terms[yexp + e] = c * w
        target = AffinePoly(allvars, Polynomial._trusted(allvars, const),
                            {idx: Polynomial._trusted(allvars, t) for idx, t in lin.items()})

        z_exps = [[_mono_exps(b, base_vars) for b in z_bases[i]] for i in range(n)]
        if cliques is None:
            blocks = [[lift(e, i) for i in range(n) for e in z_exps[i]]]
        else:
            blocks = [[lift(z_exps[i][k], i) for (i, k) in cl] for cl in cliques]

        mask = None
        if margin is not None:
            # x-part of a lifted exponent tuple sits after the n row selectors
            mask = [[any(e[n:]) for e in blk] for blk in blocks]
        con = _GramConstraint(
            name=name or f"msos{len(self._grams)}",
            target=target,
            blocks=blocks,
            margin=margin.index if margin else None,
            margin_mask=mask,
            meta={"kind": "matrix", "vars": base_vars, "n_rows": n},
        )
        self._grams.append(con)
        return len(self._grams) - 1

    def add_linear(self, terms: Iterable[tuple[CoeffVar, float]],
                   rhs: float, sense: str = "==", family: str = "linear") -> None:
        """One linear row on the coefficients.  `family` labels it in the
        compiled index's row_families: consecutive rows of one family form
        one entry, so an infeasibility diagnosis can name the group."""
        if sense not in ("==", ">=", "<="):
            raise ValueError(f"unknown sense {sense!r}")
        self._compiled = None
        self._linear.append(_LinearConstraint(
            [(v.index, float(c)) for v, c in terms], float(rhs), sense, family))

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

        # matching rows and structural zeros come first: the PSD block sizes
        # depend on them
        matched = [_matching_rows(con) for con in self._grams]
        pruned = [_structural_zeros(rows, rhs_map, len(con.blocks))
                  for con, (rows, rhs_map) in zip(self._grams, matched)]

        gram_blocks: list[list[int]] = []
        # per constraint and block: kept basis position -> (SDP block, position)
        placement: list[list[dict[int, tuple[int, int]]]] = []
        for con, drop in zip(self._grams, pruned):
            ids, places = [], []
            for bi, blk in enumerate(con.blocks):
                keep = [a for a in range(len(blk)) if a not in drop[bi]]
                place = {}
                if keep:
                    blkid = prob.add_block(len(keep), f"{con.name}.b{bi}")
                    ids.append(blkid)
                    place = {a: (blkid, k) for k, a in enumerate(keep)}
                places.append(place)
            gram_blocks.append(ids)
            placement.append(places)

        row_families: list[tuple[str, int, int]] = []
        for con, (rows, rhs_map), places in zip(self._grams, matched, placement):
            family_start = prob.n_rows
            for exps in sorted(set(rows) | set(rhs_map), key=grlex_key):
                psd, free = rows.get(exps, ([], {}))
                entries = []
                for bi, a, b, coef in psd:
                    if a in places[bi] and b in places[bi]:
                        (blkid, i), (_, j) = places[bi][a], places[bi][b]
                        entries.append((blkid, i, j, coef))
                # a row that lost every product and has neither a target
                # coefficient nor a decision variable reads 0 == 0
                if entries or free or exps in rhs_map:
                    prob.add_row(entries, sorted(free.items()), rhs_map.get(exps, 0.0))
            row_families.append((con.name, family_start, prob.n_rows))

        for lc in self._linear:
            start = prob.n_rows
            if lc.sense == "==":
                prob.add_row(free_entries=lc.terms, rhs=lc.rhs)
            else:
                slack = prob.add_block(1, "lin_slack")
                sgn = -1.0 if lc.sense == ">=" else 1.0
                prob.add_row(psd_entries=[(slack, 0, 0, sgn)],
                             free_entries=lc.terms, rhs=lc.rhs)
            if row_families and row_families[-1][0] == lc.family:
                row_families[-1] = (lc.family, row_families[-1][1], prob.n_rows)
            else:
                row_families.append((lc.family, start, prob.n_rows))

        for idx, c in self._objective.items():
            if c:
                prob.set_objective_free(idx, c)

        index = {
            "coeffs": [v.name for v in self._coeffs],
            "gram_blocks": gram_blocks,
            "row_families": row_families,
            "grams": [
                {"name": con.name, "meta": con.meta, "margin_mask": con.margin_mask,
                 "blocks": [[list(e) for e in blk] for blk in con.blocks],
                 "pruned": drop}
                for con, drop in zip(self._grams, pruned)
            ],
        }
        self._compiled = (prob, index)
        return self._compiled

    def solve(self) -> "SosSolution":
        prob, index = self.compile()
        sdp_sol = solve_sdp(prob)
        return SosSolution(self, prob, index, sdp_sol)


def _matching_rows(con: _GramConstraint) -> tuple[dict, dict]:
    """Coefficient-matching rows of one Gram constraint, before pruning.

    Returns (rows, rhs_map).  rows maps a monomial's exponent tuple to its
    Gram products, (block, a, b, coeff) with a <= b over the declared
    bases, and to its decision-variable coefficients; rhs_map holds the
    target's constant part.
    """
    rows: dict[tuple[int, ...], tuple[list, dict]] = {}

    def row_for(exps):
        if exps not in rows:
            rows[exps] = ([], {})
        return rows[exps]

    for bi, blk in enumerate(con.blocks):
        for a in range(len(blk)):
            ea = blk[a]
            for b in range(a, len(blk)):
                prod = tuple(x + y for x, y in zip(ea, blk[b]))
                psd, _ = row_for(prod)
                psd.append((bi, a, b, 1.0 if a == b else 2.0))
    for vidx, p in con.target.lin.items():
        for exps, c in p.terms.items():
            _, free = row_for(exps)
            free[vidx] = free.get(vidx, 0.0) - c
    # the PSD block stores H = G - t*D, so the margin term joins the Gram
    # products on the left of each shifted diagonal matching row
    if con.margin is not None:
        for bi, blk in enumerate(con.blocks):
            for a, ea in enumerate(blk):
                if not con.margin_mask[bi][a]:
                    continue
                _, free = row_for(tuple(2 * x for x in ea))
                free[con.margin] = free.get(con.margin, 0.0) + 1.0
    return rows, dict(con.target.const.terms)


def _structural_zeros(rows: dict, rhs_map: dict, n_blocks: int) -> list[list[int]]:
    """Basis positions, per block, whose Gram diagonal is structurally zero.

    A row forces its diagonal entries to zero when its target coefficient
    is absent, no decision variable enters it (the margin included), and
    every PSD entry it still has is a diagonal G_b[a,a], all with
    coefficients of one sign: such a sum of PSD diagonals vanishes only if
    each term does.  A PSD matrix with a zero diagonal entry is zero on
    that row and column, so element a leaves block b together with all its
    products.  That can leave further rows with diagonals only, so the rule
    repeats until nothing changes (Loefberg 2009; Permenter & Parrilo 2018).
    Only exact structure is used, no tolerance.
    """
    dropped: list[set[int]] = [set() for _ in range(n_blocks)]
    candidates = [psd for exps, (psd, free) in rows.items()
                  if not free and exps not in rhs_map]
    changed = True
    while changed:
        changed = False
        for psd in candidates:
            live = [(bi, a, b, c) for bi, a, b, c in psd
                    if a not in dropped[bi] and b not in dropped[bi]]
            if not live or any(a != b for _, a, b, _ in live):
                continue
            if not (all(c > 0 for *_, c in live) or all(c < 0 for *_, c in live)):
                continue
            for bi, a, _, _ in live:
                dropped[bi].add(a)
            changed = True
    return [sorted(d) for d in dropped]


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

    def gram(self, handle: int) -> list[np.ndarray]:
        """The constraint's PSD decision blocks, each over its declared basis.

        Basis elements pruned at compile are exact zero rows and columns; a
        block pruned to nothing is a zero matrix.  Under a margin t the
        blocks are the raw H of the margin rule: they certify the target
        minus t on the shifted diagonal entries ("margin_mask").
        """
        entry = self.index["grams"][handle]
        ids = iter(self.index["gram_blocks"][handle])
        out = []
        for exps, drop in zip(entry["blocks"], entry["pruned"]):
            d = len(exps)
            keep = [a for a in range(d) if a not in drop]
            G = np.zeros((d, d))
            if keep:
                G[np.ix_(keep, keep)] = self.sdp.blocks[next(ids)]
            out.append(G)
        return out


# ---------------------------------------------------------------------------
# certificates


def extract_certificate(G: np.ndarray, basis_exps: Sequence[tuple[int, ...]],
                        vars: tuple[Variable, ...]) -> list[Polynomial]:
    """Factor a Gram matrix into explicit squares  sum_k p_k^2.

    Eigenvalues in [-CERT_MIN_EIG_TOL, 0) are clipped to zero; anything lower
    raises, because the matrix is then not a certificate at this tolerance.
    """
    G = 0.5 * (G + G.T)
    w, V = np.linalg.eigh(G)
    if w[0] < -CERT_MIN_EIG_TOL:
        raise SosCertificateError(
            f"Gram matrix has eigenvalue {w[0]:.3e} below -{CERT_MIN_EIG_TOL:.1e}")
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
                      rng: np.random.Generator) -> tuple[bool, float]:
    """Relative error |target - sum_blocks z^T G z| at CHECK_POINTS points."""
    nv = len(target.vars)
    pts = rng.uniform(-1.0, 1.0, size=(CHECK_POINTS, nv))
    tv = target.eval_many(pts)
    gv = np.zeros(CHECK_POINTS)
    for G, exps in zip(grams, blocks_exps):
        E = np.array([list(e) for e in exps])
        Zv = np.prod(pts[:, None, :] ** E[None, :, :], axis=2)
        gv += np.einsum("pa,ab,pb->p", Zv, G, Zv)
    scale = 1.0 + np.max(np.abs(tv))
    err = float(np.max(np.abs(tv - gv)) / scale)
    return err <= CHECK_TOL, err
