"""Schur functions (2-cocycles) with values in the unitary group of E.

A Schur function on a finite group T is a table f: T x T -> Un(E) with
f(1,1)=1 and f(r,s)f(rs,t)=f(r,st)f(s,t).  All values are required central
in E, which matches every construction implemented here and keeps the
coefficientwise maps of the iso-lab module E-linear.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, sub

import numpy as np

from .groups import GroupTable, direct_product, make_cyclic, row_blocks
from .rings import (_COEFF_EPS, DEFAULT_TOL, RingDescriptor, RingValue,
                    COMPLEX, REAL)


@dataclass
class ValidationReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, check: str, where, residual: float):
        self.violations.append((check, where, float(residual)))

    def __str__(self):
        if self.ok:
            return "valid"
        lines = [f"{len(self.violations)} violation(s):"]
        for check, where, res in self.violations[:50]:
            lines.append(f"  {check} at {where}: residual {res:.3e}")
        if len(self.violations) > 50:
            lines.append(f"  ... {len(self.violations) - 50} more")
        return "\n".join(lines)


def _frozen(a: np.ndarray) -> np.ndarray:
    """A read-only view of a: the forms a table shares stay as built."""
    a = a.view()
    a.flags.writeable = False
    return a


class SchurFunction:
    """A table of values f(s, t), in the form its producer gave for good:
    n rows of n RingValues; or its centre (twistalg.centre), the scalars c
    of f(s, t) = c 1 on each of the F centre factors of E as an (n, n, F)
    array ((n, n) over C and R; parsed C and R tables, and H, M_k and
    product tables of exact finite c 1); or over a Laurent ring in m
    variables its monomials c z^e (no |c| <= _COEFF_EPS) as arrays c (n, n)
    complex and e (n, n, m) int64 (make_f_alpha's).  values is a read-only
    tuple of rows, built from an array form on first use; the array forms
    readers share (_dense, _arrays) are derived once and kept, read-only."""

    def __init__(self, group: GroupTable, descriptor: RingDescriptor, values):
        self.group = group
        self.descriptor = descriptor
        self._centre = self._monomials = self._values = None
        if isinstance(values, np.ndarray):
            from .centre import checked
            self._centre = _frozen(checked(group.order, descriptor, values))
            return
        n, d = group.order, descriptor
        if (isinstance(values, tuple) and len(values) == 2
                and isinstance(values[0], np.ndarray)):
            coef, exps = values
            if coef.shape != (n, n) or exps.shape[:2] != (n, n):
                raise ValueError("value table shape mismatch")
            if (d.kind != "laurent" or exps.shape[2:] != (d.m,)
                    or coef.dtype != complex or exps.dtype != np.int64
                    or (np.abs(coef) <= _COEFF_EPS).any()):
                raise ValueError("value descriptor mismatch")
            self._monomials = _frozen(coef), _frozen(exps)
            return
        if len(values) != n or any(len(r) != n for r in values):
            raise ValueError("value table shape mismatch")
        for row in values:
            for v in row:
                if (v.descriptor is not descriptor
                        and v.descriptor != descriptor):
                    raise ValueError("value descriptor mismatch")
        self._values = tuple(map(tuple, values))

    @property
    def values(self) -> tuple:
        if self._values is None:
            self._values = self._rows(np.s_[:, :])
        return self._values

    def _rows(self, at) -> tuple:
        """The rows of RingValues at index at of a table's array form."""
        if self._monomials is None:
            from .centre import values
            return values(self.descriptor, self._centre[at])
        coef, exps = (a[at].tolist() for a in self._monomials)
        return tuple(tuple(RingValue(self.descriptor, {tuple(e): c})
                           for e, c in zip(*r)) for r in zip(exps, coef))

    @cached_property
    def _dense(self):
        """The dense forms (table, tilde) of a table over a finite ring:
        table[s, u] = f(s, u) (dense.value_blocks) and tilde[t] =
        f(t, t^{-1})^*."""
        from .centre import blocks
        from .dense import value_blocks
        d, c = self.descriptor, self._centre
        table = value_blocks(d, self.values) if c is None else blocks(d, c)
        tilde = table[np.arange(self.group.order), self.group.inv]
        return (_frozen(np.ascontiguousarray(table)),
                _frozen(tilde.conj().swapaxes(-1, -2)))

    @cached_property
    def _arrays(self):
        """_array_table(self)."""
        return _array_table(self)

    def value(self, s: int, t: int) -> RingValue:
        if self._values is not None:
            return self._values[s][t]
        return self._rows(np.s_[s:s + 1, t:t + 1])[0][0]

    def tilde(self, t: int) -> RingValue:
        """f(t, t^{-1})^*."""
        return self.value(t, self.group.inverse(t)).star()

    def validate(self, tol: float = DEFAULT_TOL) -> ValidationReport:
        return validate(self, tol)

    def __repr__(self):
        return (f"SchurFunction(group order {self.group.order}, "
                f"E={self.descriptor})")


def validate(f: SchurFunction, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check of all Schur-function invariants on every entry and triple,
    reported as data: on whole arrays for tables with an array form
    (f._arrays), else (a Laurent table with a non-monomial entry, or a
    ring with a Laurent factor) one value at a time.  A table whose other
    checks pass may have its cocycle identity proved from the rows of a
    generating set (_certified); it then has no violation."""
    rep, table = ValidationReport(), f._arrays
    if table is None:
        _entry_checks(rep, f, tol)
        _cocycle_check(rep, f, tol)
        return rep
    # NaN and inf entries are reported as violations, not warned about
    with np.errstate(invalid="ignore", over="ignore"):
        _array_entry_checks(rep, f, *table, tol)
        if not (rep.ok and _certified(f.group, *table, tol)):
            _array_cocycle_check(rep, f.group.mul, *table, tol)
    return rep


def _array_table(f: SchurFunction):
    """(forms, exps (n, n, m), readout columns or a slice if all, exact) of
    a table, derived once as f._arrays: a centre as (n, n, F, 1), F 1 x 1
    forms standing in for b x b forms, exact (each complex product as four
    real ones, as b x b forms multiply) where b > 1; dense.value_blocks
    (n, n, b, b) over other finite tables; coefficients c (n, n, 1, 1) and
    exponents e of Laurent tables of monomials c z^e, as held or read off
    their values; else None."""
    n, d = f.group.order, f.descriptor
    no_exps = np.zeros((n, n, 0), dtype=np.int64)
    if f._monomials is not None:
        coef, exps = f._monomials
        return coef[..., None, None], exps, slice(None), False
    if f._centre is not None:
        from .dense import dense_size
        return f._centre[..., None], no_exps, slice(None), dense_size(d) > 1
    if d.kind != "laurent":
        from .centre import leaves
        if leaves(d) is None:           # a product with a Laurent factor
            return None
        from .dense import readout_columns
        forms, cols = f._dense[0], readout_columns(d)
        return forms, no_exps, (
            cols if len(cols) < forms.shape[-1] else slice(None)), False
    monos = [v.is_monomial(0.0) for row in f.values for v in row]
    if None in monos:
        return None
    coef = np.array([c for c, _ in monos], dtype=complex)
    exps = np.array([e for _, e in monos], dtype=np.int64)
    return (_frozen(coef.reshape(n, n, 1, 1)),
            _frozen(exps.reshape(n, n, -1)), slice(None), False)


def _dropped(res):
    """res, where its modulus is at most _COEFF_EPS read as 0 (_clean_poly)."""
    return np.where(abs(res) <= _COEFF_EPS, 0.0, res)


def _residual(lhs, lhs_exps, rhs, rhs_exps):
    """RingValue.abs_bound of lhs z^a - rhs z^b over readouts (..., b, r)
    and exponents (..., m): max |lhs - rhs| where a = b; elsewhere (b = 1)
    the larger coefficient of the two terms; over a Laurent ring (m > 0)
    _dropped, as dropping each term would give.  lhs may be overwritten."""
    res = np.abs(np.subtract(lhs, rhs,
                             out=None if lhs_exps.shape[-1] else lhs))
    if lhs_exps.shape[-1]:
        moved = np.any(lhs_exps != rhs_exps, axis=-1)[..., None, None]
        res = _dropped(np.where(moved, np.maximum(abs(lhs), abs(rhs)), res))
    return res[..., 0, 0] if res.shape[-2:] == (1, 1) else res.max((-2, -1))


def _array_entry_checks(rep: ValidationReport, f: SchurFunction, forms, exps,
                        cols, exact: bool, tol: float):
    """_entry_checks on the array form of a table (_array_table): same
    order, same residuals; NaN fails.  The unit check (Python's abs, not
    numpy's array abs) and centrality of forms larger than 1 x 1 (a centre
    is central) take one value at a time."""
    from .dense import _times
    g, b, e = f.group, forms.shape[-1], f.group.identity
    unit, v = RingValue.unit(f.descriptor), f.value(e, e)
    if not v.close(unit, tol):
        rep.add("unit", (e, e), (v - unit).abs_bound())
    y, one, no = forms[..., cols], np.eye(b)[:, cols], exps[e, e] * 0
    res = _residual(np.stack([y[:, e], y[e, :]], axis=1),
                    np.stack([exps[:, e], exps[e, :]], axis=1), one, no)
    for t, side in zip(*np.nonzero(~(res <= tol))):
        rep.add("normalization", (int(t), e) if side == 0 else (e, int(t)),
                res[t, side])
    # v v^* and v^* v: the form of v^* is the adjoint of the form of v
    adj = forms.conj() if b == 1 else forms.conj().swapaxes(-1, -2)
    vv, vv_ = _times(forms, adj[..., cols], exact), _times(adj, y, exact)
    if exps.shape[-1]:          # RingValue's product drops a small term
        vv, vv_ = _dropped(vv), _dropped(vv_)
    res = _residual(vv, no, one, no)
    bad = ~(res <= tol) | ~(_residual(vv_, no, one, no) <= tol)
    central = (np.ones(bad.shape, dtype=bool) if b == 1 else
               np.array([[v.is_central(tol) for v in r] for r in f.values]))
    for s, t in zip(*np.nonzero(bad | ~central)):
        if bad[s, t]:
            rep.add("unitary", (int(s), int(t)), res[s, t])
        if not central[s, t]:
            rep.add("central", (int(s), int(t)), 1.0)
    i = np.arange(g.order)
    res = _residual(y[i, g.inv], exps[i, g.inv], y[g.inv, i], exps[g.inv, i])
    for t in np.nonzero(~(res <= tol))[0]:
        rep.add("inverse-symmetry", (int(t), int(g.inv[t])), res[t])


def _at_products(a, mul):
    """a[:, mul], gathered from the flat table: np.take is about twice as
    fast as the 2-d fancy index."""
    return np.take(a, mul.ravel(), axis=1).reshape(
        a.shape[:1] + mul.shape + a.shape[2:])


def _cocycle_sides(mul, forms, y, exps, rows, exact=False):
    """lhs = f(r,s) f(rs,t) and rhs = f(r,st) f(s,t) over r in rows (a
    slice or an index array) and all s, t, as readouts and exponents; exact
    as in dense._times."""
    from .dense import _times
    if forms.shape[-1] == 1 and not exact:
        # numpy's complex a * b may round unlike b * a
        lhs = y[mul[rows]]
        lhs *= forms[rows, :, None]
        rhs = _at_products(forms[rows], mul)
        rhs *= y
    else:
        lhs = _times(forms[rows, :, None], y[mul[rows]], exact)
        rhs = _times(_at_products(forms[rows], mul), y, exact)
    if not exps.shape[-1]:      # no variables: skip the exponent gathers
        return lhs, exps[0, 0], rhs, exps[0, 0]
    return (lhs, exps[rows, :, None] + exps[mul[rows]],
            rhs, _at_products(exps[rows], mul) + exps)


def _array_cocycle_check(rep: ValidationReport, mul, forms, exps, cols,
                         exact: bool, tol: float):
    """f(r,s) f(rs,t) = f(r,st) f(s,t) over all triples, one block of rows
    r at a time: at most dense.BLOCK_ENTRIES form entries a block if b > 1."""
    from .dense import BLOCK_ENTRIES
    n, b = len(mul), forms.shape[-1]
    y = forms[..., cols]
    for rows in row_blocks(n, n * forms[0].size,
                           BLOCK_ENTRIES if b > 1 else None):
        lhs, a, rhs, c = _cocycle_sides(mul, forms, y, exps, rows, exact)
        if exps.shape[-1]:      # RingValue's product drops a small term
            lhs, rhs = _dropped(lhs), _dropped(rhs)
        res = _residual(lhs, a, rhs, c)
        bad = res > tol
        # np.nonzero is slow on 3-d arrays; flat indices keep row-major order
        for r, s, t in zip(*np.unravel_index(np.flatnonzero(bad), bad.shape)):
            rep.add("cocycle", (rows.start + int(r), int(s), int(t)),
                    res[r, s, t])


# bounds the relative error of each rounded operation on doubles below
# with u = 2^-53 to spare: a real product or difference (u), a complex
# product (2.83 u, with or without fused multiply-add) and numpy's complex
# abs, assumed within 3 u (2.4 u at most over 120,000 random values on
# x86_64 with numpy 2.4)
_EPS = 2.0 ** -51


def _certified(g: GroupTable, forms, exps, cols, exact: bool,
               tol: float) -> bool:
    """True if no triple breaks the cocycle identity, proved from the rows
    r in a generating set S of g; False leaves it to the full check.  Only
    for 1 x 1 forms (central by nature; a stack of them is a table per
    centre factor, for each of which the proof holds) whose entry checks
    passed, and only where S is non-empty and at most half the rows: then
    the rows an acceptance saves outnumber those a refusal adds.

    Proof.  Over 1 x 1 forms the table is c(s,t) z^a(s,t) with c complex
    (z^a = 1 off Laurent rings), and w = f(r,s) f(rs,t) / (f(r,st) f(s,t)),
    in exact arithmetic on the stored numbers, is a 3-cocycle of the
    abelian group of such monomials:
        w(gr,s,t) = w(r,s,t) w(g,rs,t) w(g,r,s) / w(g,r,st).
    Exponents: where they differ, the residual is the larger coefficient,
    at least (1-e)^2 (1-T) > tol (T below), so they agree on the rows of
    S; the full check compares int64 sums, i.e. in Z/2^64, where the
    identity holds as well, so they agree on every row.  Coefficients:
    let |w - 1| and |1/w - 1| be at most eta on the rows of S.  At r = e
    the identity reads w(e,s,t) = w(g,e,st) / w(g,e,s) for g in S, so
    |w(e,s,t) - 1| and |1/w(e,s,t) - 1| are at most (1 + eta)^2 - 1.
    Every other r is a positive word g r' in S of length L <= D = g.depth
    (r in S for L = 1), so |w(r,s,t) - 1| <= (1 + eta)^(3L-2) - 1 by
    induction on L.  All are at most Delta := (1 + eta)^(3D) - 1.

    Rounding, e = _EPS: the unitary check passed, |fl(fl(v v*) - 1)| <=
    tol, so ||v|^2 - 1| <= t' + e |v|^2 with t' = tol / (1-e)^2, and every
    entry has 1 - T <= |v|^2 <= 1 + T with T = (t' + e) / (1 - e); require
    T < 1/2.  A computed residual R = |fl(fl(ab) - fl(cd))| of P = ab,
    Q = cd (moduli in [1 - T, 1 + T]) satisfies
        |P - Q| <= R / (1-e)^2 + 2e (1+T)  and
        R <= (1+e)^2 (|P - Q| + 2e (1+T)).
    (Underflow adds at most 2^-1074 an operation, which the 2e (1+T) terms
    absorb: e exceeds each relative error it covers by u.)  On the rows of S
    the residuals are at most rho, so eta = (rho / (1-e)^2 + 2e (1+T)) /
    (1 - T) bounds |w - 1| = |P - Q| / |Q| and |1/w - 1| = |P - Q| / |P|.
    Elsewhere |P - Q| = |Q| |w - 1| <= (1+T) Delta, so every residual is
    at most (1+e)^2 (1+T) (Delta + 2e) <= tol, the test below, made in
    logarithms (no overflow) with a 2^-40 margin for its own rounding.
    It fails for rho > tol (then Delta >= eta > tol) and for a NaN rho.
    The rows of S are checked as the full check would check them.  Over a
    Laurent ring residuals are _dropped, so tol and rho are taken at least
    _COEFF_EPS: a residual the proof bounds by _COEFF_EPS reads 0."""
    e, rows = _EPS, np.array(g.generators, dtype=int)
    floor = _COEFF_EPS if exps.shape[-1] else 0.0
    tol = max(tol, floor)
    big_t = (tol / (1 - e) ** 2 + e) / (1 - e)
    if (forms.shape[-1] != 1 or not big_t < 0.5 or not len(rows)
            or 2 * len(rows) > g.order):
        return False
    rho = float(np.max(_row_residuals(g, forms, exps, cols, exact, rows)))
    eta = (max(rho, floor) / (1 - e) ** 2 + 2 * e * (1 + big_t)) / (1 - big_t)
    room = tol / ((1 + e) ** 2 * (1 + big_t)) - 2 * e     # for Delta
    return room > 0 and (3 * g.depth * math.log1p(eta * (1 + 2.0 ** -40))
                         <= math.log1p(room * (1 - 2.0 ** -40)))


def _row_residuals(g, forms, exps, cols, exact, rows, budget=None):
    """The largest cocycle residual of each row in rows, an index array, in
    blocks of rows that stay in cache (row_blocks, budget triples each)."""
    y, res = forms[..., cols], []
    for block in row_blocks(len(rows), len(g.mul) * forms[0].size, budget):
        res.extend(_residual(*_cocycle_sides(
            g.mul, forms, y, exps, rows[block], exact)).max(axis=(1, 2)))
    return np.array(res)


def _entry_checks(rep: ValidationReport, f: SchurFunction, tol: float):
    """Unit, normalization, unitarity, centrality and inverse symmetry,
    one RingValue at a time."""
    g, n = f.group, f.group.order
    unit = RingValue.unit(f.descriptor)
    e = g.identity

    if not f.values[e][e].close(unit, tol):
        rep.add("unit", (e, e), (f.values[e][e] - unit).abs_bound())
    for t in range(n):
        for (s1, s2), v in (((t, e), f.values[t][e]), ((e, t), f.values[e][t])):
            if not v.close(unit, tol):
                rep.add("normalization", (s1, s2), (v - unit).abs_bound())
    for s in range(n):
        for t in range(n):
            v = f.values[s][t]
            if not v.is_unitary(tol):
                rep.add("unitary", (s, t), (v * v.star() - unit).abs_bound())
            if not v.is_central(tol):
                rep.add("central", (s, t), 1.0)
    for t in range(n):
        ti = g.inverse(t)
        d = f.values[t][ti] - f.values[ti][t]
        if not d.is_zero(tol):
            rep.add("inverse-symmetry", (t, ti), d.abs_bound())


def _cocycle_check(rep: ValidationReport, f: SchurFunction, tol: float):
    """The cocycle identity over all triples, one RingValue at a time."""
    g, n = f.group, f.group.order
    for r in range(n):
        for s in range(n):
            rs = g.op(r, s)
            frs = f.values[r][s]
            for t in range(n):
                lhs = frs * f.values[rs][t]
                rhs = f.values[r][g.op(s, t)] * f.values[s][t]
                d = lhs - rhs
                if not d.is_zero(tol):
                    rep.add("cocycle", (r, s, t), d.abs_bound())


def _require_valid(f: SchurFunction, what: str, tol: float = DEFAULT_TOL):
    rep = validate(f, tol)
    if not rep.ok:
        raise ValueError(f"{what} produced an invalid cocycle:\n{rep}")
    return f


# -- pointwise group structure on cocycles ---------------------------------

def cocycle_mul(f: SchurFunction, g: SchurFunction) -> SchurFunction:
    if f.group is not g.group and not np.array_equal(f.group.mul, g.group.mul):
        raise ValueError("group mismatch")
    if f.descriptor != g.descriptor:
        raise ValueError("descriptor mismatch")
    vals = [[f.values[s][t] * g.values[s][t] for t in range(f.group.order)]
            for s in range(f.group.order)]
    return SchurFunction(f.group, f.descriptor, vals)


def cocycle_inverse(f: SchurFunction) -> SchurFunction:
    vals = [[v.star() for v in row] for row in f.values]
    return SchurFunction(f.group, f.descriptor, vals)


def hat(f: SchurFunction) -> SchurFunction:
    """(s,t) -> f(t^{-1}, s^{-1}); an involutive automorphism of the group
    of Schur functions."""
    g = f.group
    vals = [[f.values[g.inverse(t)][g.inverse(s)] for t in range(g.order)]
            for s in range(g.order)]
    return SchurFunction(g, f.descriptor, vals)


def tilde(f: SchurFunction, t: int) -> RingValue:
    return f.tilde(t)


# -- coboundaries ----------------------------------------------------------

class Lambda:
    """A normalized family of central unitaries lambda: T -> Un(E)."""

    def __init__(self, group: GroupTable, descriptor: RingDescriptor, values,
                 tol: float = DEFAULT_TOL):
        values = list(values)
        if len(values) != group.order:
            raise ValueError("lambda needs one value per group element")
        unit = RingValue.unit(descriptor)
        if not values[group.identity].close(unit, tol):
            raise ValueError("lambda(1) must be 1")
        unitary = _unitary_monomials(descriptor, values, tol)
        for i, v in enumerate(values):
            if v.descriptor != descriptor:
                raise ValueError("descriptor mismatch")
            if not (v.is_unitary(tol) if unitary is None else unitary[i]):
                raise ValueError(f"lambda({i}) is not unitary")
            if not v.is_central(tol):
                raise ValueError(f"lambda({i}) is not central")
        self.group = group
        self.descriptor = descriptor
        self.values = values

    def value(self, t: int) -> RingValue:
        return self.values[t]

    def mul(self, other: "Lambda") -> "Lambda":
        return Lambda(self.group, self.descriptor,
                      [a * b for a, b in zip(self.values, other.values)])

    def star(self) -> "Lambda":
        return Lambda(self.group, self.descriptor,
                      [v.star() for v in self.values])

    def hat(self) -> "Lambda":
        g = self.group
        return Lambda(g, self.descriptor,
                      [self.values[g.inverse(t)] for t in range(g.order)])


def coboundary(lam: Lambda) -> SchurFunction:
    """delta lambda (s,t) = lambda(s) lambda(t) lambda(st)^*."""
    g = lam.group
    vals = [[lam.values[s] * lam.values[t] * lam.values[g.op(s, t)].star()
             for t in range(g.order)] for s in range(g.order)]
    return SchurFunction(g, lam.descriptor, vals)


# -- named constructors ----------------------------------------------------

def trivial_cocycle(group: GroupTable, descriptor: RingDescriptor) -> SchurFunction:
    unit = RingValue.unit(descriptor)
    vals = [[unit for _ in range(group.order)] for _ in range(group.order)]
    return SchurFunction(group, descriptor, vals)


def make_f_alpha(n: int, alphas, descriptor: RingDescriptor = None,
                 tol: float = DEFAULT_TOL) -> SchurFunction:
    """The cocycle on Z/n with parameters (alpha_1, ..., alpha_{n-1}):

        f(p,q) = (prod_{j=p}^{p+q-1} alpha_j) (prod_{k=1}^{q-1} alpha_k^*)

    with alpha_n := 1 and indices taken in 1..n (the group identity 0 is
    identified with n).  f(1,1) = alpha_1.
    """
    alphas = list(alphas)
    if len(alphas) != n - 1:
        raise ValueError(f"need {n - 1} parameters for Z/{n}")
    if descriptor is None:
        if not alphas:
            raise ValueError("descriptor required for n=1")
        descriptor = alphas[0].descriptor
    unit = RingValue.unit(descriptor)
    unitary = _unitary_monomials(descriptor, alphas, tol)
    for i, a in enumerate(alphas):
        if a.descriptor != descriptor:
            raise ValueError("parameter descriptor mismatch")
        if not (a.is_unitary(tol) if unitary is None else unitary[i]):
            raise ValueError(f"alpha_{i + 1} is not unitary")
        if not a.is_central(tol):
            raise ValueError(f"alpha_{i + 1} is not central")
    # ext[j] = alpha_j for j in 1..n-1 and ext[0] = alpha_n = 1, so indices
    # in 1..n are taken mod n
    ext = [unit] + alphas
    # every value is central, so the two products of f(p,q) grow one factor
    # each from f(p,q-1): f(p,q) = f(p,q-1) alpha_{p+q-1} alpha_{q-1}^*
    g = make_cyclic(n)
    vals = None
    if descriptor.kind in ("complex", "real"):
        vals = _scalar_f_alpha(np.array(
            [a.payload for a in ext],
            dtype=float if descriptor.is_real else complex))
    elif unitary is not None:
        vals = _monomial_f_alpha(descriptor, ext)
    if vals is None:
        stars = [a.star() for a in ext]
        vals = []
        for p in range(n):
            pp = p if p >= 1 else n
            v = unit
            row = [v]
            for q in range(1, n):
                v = v * ext[(pp + q - 1) % n] * stars[q - 1]
                row.append(v)
            vals.append(row)
    return _require_valid(SchurFunction(g, descriptor, vals), "make_f_alpha", tol)


def _scalar_f_alpha(ext: np.ndarray, laurent: bool = False):
    """make_f_alpha's (n, n) table over C or R from ext = (1, alpha_1, ...,
    alpha_{n-1}), one column q at a time for every row p, rounded as the
    object loop rounds: each complex product as four real ones, since
    numpy's complex multiply may fuse them (FMA).  With laurent, the
    coefficients of the Laurent object loop, whose products sum their terms
    from 0j (-0.0 becomes 0.0) and drop those of modulus at most
    _COEFF_EPS: None if one is dropped."""
    n = len(ext)
    step = ext[(np.arange(n)[:, None] + np.arange(n - 1)) % n]  # alpha_{p+q-1}
    star = ext[:-1].conjugate()                                # alpha_{q-1}^*
    if not np.iscomplexobj(ext):
        out = np.ones((n, n))
        for q in range(1, n):
            out[:, q] = out[:, q - 1] * step[:, q - 1] * star[q - 1]
        return out
    re, im = np.ones((n, n)), np.zeros((n, n))
    half = []                     # Laurent: every half-step, tested once
    for q in range(1, n):
        x, y = re[:, q - 1], im[:, q - 1]
        for a in (step[:, q - 1], star[q - 1]):
            x, y = x * a.real - y * a.imag, x * a.imag + y * a.real
            if laurent:
                x, y = x + 0.0, y + 0.0
                half += [x, y]
        re[:, q], im[:, q] = x, y
    if laurent and not (np.hypot(half[::2], half[1::2]) > _COEFF_EPS).all():
        return None
    from .dense import _complex
    return _complex(re, im)


def _unitary_monomials(d: RingDescriptor, alphas, tol: float):
    """RingValue.is_unitary, bit for bit, of values c z^e of Laurent ring
    d (make_f_alpha and Lambda refuse one of another ring first), else None:
    c c^* and c^* c, four real products summed from 0j, are a a + b b for
    c = a + b i, imaginary part 0 (NaN where a a + b b is inf or NaN); the
    product and its difference from 1 are _dropped."""
    if d.kind != "laurent" or not all(
            type(a.payload) is dict and len(a.payload) == 1 for a in alphas):
        return None
    c = np.array([v for a in alphas for v in a.payload.values()], complex)
    with np.errstate(invalid="ignore", over="ignore"):
        p = c.real * c.real + c.imag * c.imag
    return _dropped(np.abs(_dropped(p) - 1.0)) <= tol


def _monomial_f_alpha(d: RingDescriptor, ext):
    """make_f_alpha's table over a Laurent ring from monomials ext = (1,
    alpha_1, ..., alpha_{n-1}), bit for bit, as (coefficients, exponents):
    those by _scalar_f_alpha, these as sums along each row; None where the
    object loop drops a term."""
    exps, coef = zip(*(next(iter(a.payload.items())) for a in ext))
    coef = _scalar_f_alpha(np.array(coef, dtype=complex), laurent=True)
    if coef is None:
        return None
    n, exps = len(ext), np.array(exps, dtype=np.int64)
    step = exps[(np.arange(n)[:, None] + np.arange(n - 1)) % n]
    out = np.zeros((n, n, d.m), dtype=np.int64)
    np.cumsum(step - exps[:-1], axis=1, out=out[:, 1:])
    return coef, out


# Klein four-group element indices under direct_product(Z/2, Z/2),
# row-major: 0=(0,0)=identity, b=(0,1), a=(1,0), c=(1,1)=ab.
KLEIN_A = 2
KLEIN_B = 1
KLEIN_C = 3


def klein_table(alpha, beta, gamma, eps, tol: float = DEFAULT_TOL) -> SchurFunction:
    """The cocycle on Z/2 x Z/2 with f(t,1)=f(1,t)=1 and the block

            a          b          c
        a   beta*gamma gamma      beta
        b   eps*gamma  eps*alpha*gamma  alpha
        c   eps*beta   eps*alpha  alpha*beta

    where alpha, beta, gamma are central unitaries and eps^2 = 1.
    """
    d = alpha.descriptor
    unit = RingValue.unit(d)
    for name, v in (("alpha", alpha), ("beta", beta), ("gamma", gamma),
                    ("eps", eps)):
        if v.descriptor != d:
            raise ValueError("parameter descriptor mismatch")
        if not v.is_unitary(tol) or not v.is_central(tol):
            raise ValueError(f"{name} must be central unitary")
    if not (eps * eps).close(unit, tol):
        raise ValueError("eps^2 must be 1")
    g = direct_product(make_cyclic(2), make_cyclic(2))
    vals = [[unit for _ in range(4)] for _ in range(4)]
    a, b, c = KLEIN_A, KLEIN_B, KLEIN_C
    block = {
        (a, a): beta * gamma, (a, b): gamma, (a, c): beta,
        (b, a): eps * gamma, (b, b): eps * alpha * gamma, (b, c): alpha,
        (c, a): eps * beta, (c, b): eps * alpha, (c, c): alpha * beta,
    }
    for (s, t), v in block.items():
        vals[s][t] = v
    return _require_valid(SchurFunction(g, d, vals), "klein_table", tol)


# -- cyclic powers and the integer group -----------------------------------

def cyclic_power_value(f: SchurFunction, t: int, m: int, n: int,
                       tol: float = DEFAULT_TOL) -> RingValue:
    """f(t^m, t^n) via the closed product formula

        f(t^m,t^n) = (prod_{j=0}^{m-1} f(t^{n+j}, t)) (prod_{k=1}^{m-1} f(t^k, t))^*

    asserted equal to the table value; in particular f(t^m,t^n)=f(t^n,t^m).
    """
    if m < 0 or n < 0:
        raise ValueError("powers must be nonnegative")
    g = f.group
    unit = RingValue.unit(f.descriptor)
    v = unit
    for j in range(m):
        v = v * f.values[g.power(t, n + j)][t]
    for k in range(1, m):
        v = v * f.values[g.power(t, k)][t].star()
    table = f.values[g.power(t, m)][g.power(t, n)]
    if not v.close(table, tol):
        raise ValueError(
            f"cyclic power formula disagrees with the table at t={t}, "
            f"m={m}, n={n}: residual {(v - table).abs_bound():.3e}")
    return table


def z_coboundary_witness(f_window, N: int, descriptor: RingDescriptor,
                         tol: float = DEFAULT_TOL):
    """For a cocycle window f on [-N,N]^2 of the integers, build lambda on
    [-N,N] with (delta lambda)(s,t) = f(s,t) wherever s, t, s+t all lie in
    the window.  f_window is a callable (s,t) -> RingValue.

    lambda(0)=lambda(1)=1 and lambda(k+1) = f(k,1)^* lambda(k) going up,
    lambda(k-1) = f(k-1,1) lambda(k) going down.
    """
    if N < 2:
        raise ValueError("window too small (need N >= 2)")
    lam = {0: RingValue.unit(descriptor), 1: RingValue.unit(descriptor)}
    for k in range(1, N):
        lam[k + 1] = f_window(k, 1).star() * lam[k]
    for k in range(0, -N, -1):
        lam[k - 1] = f_window(k - 1, 1) * lam[k]
    for k, v in lam.items():
        if not v.is_unitary(tol) or not v.is_central(tol):
            raise ValueError(f"window data gave non-unitary lambda({k})")
    return lam


# -- classification on Z/n -------------------------------------------------

def equivalent_cyclic(alphas, betas, descriptor: RingDescriptor = None,
                      tol: float = DEFAULT_TOL):
    """A coboundary witness between f_alpha and f_beta on Z/n, or None.

    f_alpha = f_beta * (delta lambda) holds iff prod_j alpha_j beta_j^* has
    an n-th root gamma in the central unitaries; then lambda(1) = gamma and
    lambda(p) = gamma^p prod_{j=1}^{p-1} (alpha_j^* beta_j).  Products of
    Laurent monomials run on their terms (_mono_mul).
    """
    alphas, betas = list(alphas), list(betas)
    if len(alphas) != len(betas):
        raise ValueError("parameter vectors must have equal length")
    n = len(alphas) + 1
    if descriptor is None:
        descriptor = alphas[0].descriptor if alphas else None
    if descriptor is None:
        raise ValueError("descriptor required")
    unit = RingValue.unit(descriptor)
    prod = unit
    for a, b in zip(alphas, betas):
        prod = _mono_mul(_mono_mul(prod, a), b, star=True)
    gamma = prod.nth_root(n, tol)
    if gamma is None:
        return None
    values = []
    corr = unit
    gp = unit
    for p in range(n):
        if p > 0:
            gp = _mono_mul(gp, gamma)
            if p > 1:
                corr = _mono_mul(_mono_mul(corr, alphas[p - 2], star=True),
                                 betas[p - 2])
        values.append(_mono_mul(gp, corr) if p > 0 else unit)
    return Lambda(make_cyclic(n), descriptor, values, tol=tol)


def _mono_mul(x: RingValue, y: RingValue, star=False) -> RingValue:
    """x * y (x * y.star() with star), bit for bit, on the terms where x
    and y are monomials c z^e of one Laurent ring: the coefficient summed
    from 0j (-0.0 becomes 0.0) and the exponents added, unless _clean_poly
    would drop the term."""
    p, q, d = x.payload, y.payload, x.descriptor
    if d is y.descriptor and d.kind == "laurent" and len(p) == len(q) == 1:
        (e1, c1), (e2, c2) = *p.items(), *q.items()
        c = complex(0j + c1 * (c2.conjugate() if star else c2))
        if not abs(c) <= _COEFF_EPS:
            return RingValue(d, {tuple(map(int, map(sub if star else add,
                                                    e1, e2))): c})
    return x * (y.star() if star else y)


def winding(u: RingValue, variable: int = 0, tol: float = DEFAULT_TOL) -> int:
    """Exponent of the chosen torus variable in a monomial unimodular
    within tol."""
    mono = u.is_monomial(tol)
    if mono is None:
        raise ValueError("winding number needs a Laurent monomial")
    c, exps = mono
    if abs(abs(c) - 1) > tol:
        raise ValueError("winding number needs a unimodular monomial")
    return int(exps[variable])


# -- tensor products -------------------------------------------------------

def _tensor_descriptor(d1: RingDescriptor, d2: RingDescriptor):
    """Combined descriptor plus a value-combiner for central values."""
    scalar = ("complex", "real")
    if d1.kind in scalar and d2.kind in scalar:
        d = COMPLEX if "complex" in (d1.kind, d2.kind) else REAL
        def comb(x, y):
            return RingValue.scalar(d, complex(x.payload) * complex(y.payload))
        return d, comb
    if d1.kind in scalar:
        def comb(x, y):
            return y.scale(complex(x.payload))
        return d2, comb
    if d2.kind in scalar:
        def comb(x, y):
            return x.scale(complex(y.payload))
        return d1, comb
    if d1.kind == "matrix" and d2.kind == "matrix":
        if d1.field != d2.field:
            raise ValueError("mixed matrix fields in tensor")
        from .rings import matrix_ring
        d = matrix_ring(d1.k * d2.k, d1.field)
        def comb(x, y):
            return RingValue(d, np.kron(x.payload, y.payload))
        return d, comb
    raise ValueError(f"unsupported tensor combination {d1} x {d2}")


def tensor_cocycle(f: SchurFunction, g: SchurFunction,
                   tol: float = DEFAULT_TOL) -> SchurFunction:
    """h((t1,s1),(t2,s2)) = f(t1,t2) (x) g(s1,s2) on the product group."""
    d, comb = _tensor_descriptor(f.descriptor, g.descriptor)
    prod = direct_product(f.group, g.group)
    ns = g.group.order
    vals = []
    for i in range(prod.order):
        t1, s1 = divmod(i, ns)
        row = []
        for j in range(prod.order):
            t2, s2 = divmod(j, ns)
            row.append(comb(f.values[t1][t2], g.values[s1][s2]))
        vals.append(row)
    return _require_valid(SchurFunction(prod, d, vals), "tensor_cocycle", tol)
