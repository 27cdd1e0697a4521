"""The twisted group algebra S(f) for a finite group.

An element is its coefficient family (X_t)_{t in T}; the product is

    (XY)_t = sum_s f(s, s^{-1}t) X_s Y_{s^{-1}t}

and the involution is (X^*)_t = tilde f(t) (X_{t^{-1}})^*.  Over finite
rings both run on the readouts of the coefficients (dense.twisted_mul,
dense.twisted_star), over Laurent rings one RingValue at a time.  The
regular representation identifies X with the |T| x |T| matrix whose (s,t)
entry is f(st^{-1}, t) X_{st^{-1}}; its largest singular value on dense forms
(dense.regular_dense), or the largest over a grid of torus points over
Laurent rings, is alg_norm.  On a cyclic group over C, R and Laurent rings
alg_norm takes the same norm from the cyclic decomposition, one FFT
(twistalg.norm).
"""
from __future__ import annotations

import numpy as np

from .cocycle import SchurFunction
from .groups import GroupTable
from .rings import DEFAULT_GRID, DEFAULT_TOL, RingValue


class AlgebraElement:
    __slots__ = ("cocycle", "coeffs")

    def __init__(self, cocycle: SchurFunction, coeffs):
        coeffs = list(coeffs)
        if len(coeffs) != cocycle.group.order:
            raise ValueError("coefficient count mismatch")
        d = cocycle.descriptor
        for c in coeffs:
            if c.descriptor is not d and c.descriptor != d:
                raise ValueError("coefficient descriptor mismatch")
        self.cocycle = cocycle
        self.coeffs = coeffs

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(f: SchurFunction) -> "AlgebraElement":
        z = RingValue.zero(f.descriptor)
        return AlgebraElement(f, [z] * f.group.order)

    @staticmethod
    def from_dict(f: SchurFunction, entries) -> "AlgebraElement":
        n = f.group.order
        coeffs = [RingValue.zero(f.descriptor)] * n
        for t, v in entries.items():
            if not 0 <= t < n:
                raise ValueError(f"coefficient index {t} outside 0..{n - 1}")
            coeffs[t] = v
        return AlgebraElement(f, coeffs)

    def copy(self) -> "AlgebraElement":
        return AlgebraElement(self.cocycle, self.coeffs)

    # -- arithmetic --------------------------------------------------------

    def _need_same(self, other: "AlgebraElement"):
        if self.cocycle is not other.cocycle:
            raise ValueError("elements live over different cocycles")

    def __add__(self, other):
        self._need_same(other)
        return AlgebraElement(self.cocycle,
                              [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._need_same(other)
        return AlgebraElement(self.cocycle,
                              [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return AlgebraElement(self.cocycle, [-a for a in self.coeffs])

    def __mul__(self, other):
        return alg_mul(self, other)

    def scale(self, c) -> "AlgebraElement":
        return AlgebraElement(self.cocycle, [a.scale(c) for a in self.coeffs])

    def scale_ring(self, x: RingValue) -> "AlgebraElement":
        """Left multiplication by the central ring element x."""
        return AlgebraElement(self.cocycle, [x * a for a in self.coeffs])

    def star(self) -> "AlgebraElement":
        return alg_star(self)

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return all(c.is_zero(tol) for c in self.coeffs)

    def close(self, other: "AlgebraElement", tol: float = DEFAULT_TOL) -> bool:
        self._need_same(other)
        return (self - other).is_zero(tol)

    def __repr__(self):
        parts = [f"{self.cocycle.group.labels[t]}: {c.payload!r}"
                 for t, c in enumerate(self.coeffs) if not c.is_zero()]
        return "AlgebraElement(" + ", ".join(parts) + ")"


def generator(f: SchurFunction, t: int) -> AlgebraElement:
    """V_t; generator of the identity is the algebra unit."""
    return AlgebraElement.from_dict(f, {t: RingValue.unit(f.descriptor)})


def unit(f: SchurFunction) -> AlgebraElement:
    return generator(f, f.group.identity)


def embed_scalar(f: SchurFunction, x: RingValue,
                 tol: float = DEFAULT_TOL) -> AlgebraElement:
    """x V_1; x must be central so it commutes with every generator."""
    if not x.is_central(tol):
        raise ValueError("embed_scalar needs a central ring element")
    return AlgebraElement.from_dict(f, {f.group.identity: x})


def alg_mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    x._need_same(y)
    f, g, d = x.cocycle, x.cocycle.group, x.cocycle.descriptor
    if d.is_finite:
        from .dense import from_readout, readout_array, twisted_mul
        return AlgebraElement(f, from_readout(d, twisted_mul(
            f, readout_array(d, x.coeffs), readout_array(d, y.coeffs))))
    support = [s for s in range(g.order) if not x.coeffs[s].is_zero(0.0)]
    out = [RingValue.zero(d) for _ in range(g.order)]
    for s in support:
        xs = x.coeffs[s]
        si = g.inverse(s)
        for t in range(g.order):
            u = g.op(si, t)
            yu = y.coeffs[u]
            if yu.is_zero(0.0):
                continue
            out[t] = out[t] + f.value(s, u) * xs * yu
    return AlgebraElement(f, out)


def alg_star(x: AlgebraElement) -> AlgebraElement:
    f, g, d = x.cocycle, x.cocycle.group, x.cocycle.descriptor
    if d.is_finite:
        from .dense import from_readout, readout_array, twisted_star
        return AlgebraElement(f, from_readout(d, twisted_star(
            f, readout_array(d, x.coeffs))))
    coeffs = [f.tilde(t) * x.coeffs[g.inverse(t)].star()
              for t in range(g.order)]
    return AlgebraElement(f, coeffs)


def coefficient(x: AlgebraElement, s: int, t: int) -> RingValue:
    """f(st^{-1}, t) X_{st^{-1}}; coefficient(x, t, 1) = X_t."""
    g = x.cocycle.group
    r = g.op(s, g.inverse(t))
    return x.cocycle.values[r][t] * x.coeffs[r]


class RegularMatrix:
    """The |T| x |T| matrix of ring values identified with an element, by
    definition: the tests' reference and a name the benchmark traces."""

    def __init__(self, element: AlgebraElement):
        g = element.cocycle.group
        self.descriptor = element.cocycle.descriptor
        self.size = g.order
        self.entries = [[coefficient(element, s, t) for t in range(g.order)]
                        for s in range(g.order)]

    def entry(self, s: int, t: int) -> RingValue:
        return self.entries[s][t]


def regular_matrix(x: AlgebraElement) -> RegularMatrix:
    return RegularMatrix(x)


def alg_norm(x: AlgebraElement, grid: int = DEFAULT_GRID) -> float:
    """The C*-norm of x, the largest factor's over products.  Over C, R and
    Laurent rings on a cyclic group (one with an element of order n), for
    a table that is the cocycle rebuilt from its generator column: the
    largest of the n values w_k x of the cyclic decomposition, one FFT.
    Otherwise (other groups and rings, non-monomial Laurent values, tables
    that are cocycles only within tol) the largest singular value of its
    regular representation on dense forms.  Over Laurent rings, the
    maximum over the grid^m torus sample: a lower bound on the C*-norm,
    the supremum over the whole torus.  NaN and infinite coefficients are
    refused."""
    f = x.cocycle
    for t, c in enumerate(x.coeffs):
        if not c.is_finite():
            raise ValueError(f"non-finite coefficient at {f.group.labels[t]!r}")
    from .norm import norm                          # on first use
    return norm(f, x.coeffs, grid)


def coefficient_positivity(x: AlgebraElement,
                           tol: float = DEFAULT_TOL) -> RingValue:
    """(X^*X)_1, asserted equal to sum_t X_t^* X_t."""
    g = x.cocycle.group
    lhs = alg_mul(alg_star(x), x).coeffs[g.identity]
    rhs = RingValue.zero(x.cocycle.descriptor)
    for c in x.coeffs:
        rhs = rhs + c.star() * c
    if not lhs.close(rhs, tol):
        raise AssertionError(
            "(X*X)_1 disagrees with the coefficient sum: residual "
            f"{(lhs - rhs).abs_bound():.3e}")
    return lhs


def is_projection(x: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    return (x.close(alg_star(x), tol)
            and x.close(alg_mul(x, x), tol))


def projection_pair(f: SchurFunction, t: int, alpha: RingValue,
                    tol: float = DEFAULT_TOL):
    """(1/2)(V_1 + alpha V_t) and (1/2)(V_1 - alpha V_t) for t of order 2.

    Each is a projection iff alpha^2 = tilde f(t), which is enforced up
    front.
    """
    g = f.group
    if g.op(t, t) != g.identity:
        raise ValueError("projection_pair needs t with t^2 = 1")
    if not alpha.is_unitary(tol) or not alpha.is_central(tol):
        raise ValueError("alpha must be central unitary")
    if not (alpha * alpha).close(f.tilde(t), tol):
        raise ValueError("constraint failure: alpha^2 != tilde f(t)")
    vt = generator(f, t).scale_ring(alpha)
    v1 = unit(f)
    return (v1 + vt).scale(0.5), (v1 - vt).scale(0.5)


def center_check(x: AlgebraElement, tol: float = DEFAULT_TOL) -> bool:
    """Exhaustive centrality test: all X_t central in E and the conjugation
    relation X_{s^{-1}ts} = f(s, s^{-1}ts)^* f(t,s) X_t for all s, t."""
    f, g = x.cocycle, x.cocycle.group
    if not all(c.is_central(tol) for c in x.coeffs):
        return False
    for s in range(g.order):
        si = g.inverse(s)
        for t in range(g.order):
            u = g.op(si, g.op(t, s))
            want = f.values[s][u].star() * f.values[t][s] * x.coeffs[t]
            if not x.coeffs[u].close(want, tol):
                return False
    return True


def trace_functional(x: AlgebraElement) -> RingValue:
    """X_1; a unital trace (trace(XY) = trace(YX))."""
    return x.coeffs[x.cocycle.group.identity]


def restrict_cocycle(f: SchurFunction, elements):
    """Restriction of f to a subgroup given as an element list.

    Returns (restricted SchurFunction, index map old->new).  The identity
    must be listed; closure under products and inverses is verified.
    """
    g = f.group
    elements = list(dict.fromkeys(elements))
    if g.identity not in elements:
        raise ValueError("subgroup must contain the identity")
    elements.remove(g.identity)
    elements = [g.identity] + sorted(elements)
    pos = {e: i for i, e in enumerate(elements)}
    k = len(elements)
    mul = np.empty((k, k), dtype=np.int64)
    for i, a in enumerate(elements):
        for j, b in enumerate(elements):
            ab = g.op(a, b)
            if ab not in pos:
                raise ValueError("element list is not closed under products")
            mul[i, j] = pos[ab]
    sub = GroupTable(mul, labels=[g.labels[e] for e in elements])
    vals = [[f.values[a][b] for b in elements] for a in elements]
    return SchurFunction(sub, f.descriptor, vals), pos


def restrict_to_subgroup(x: AlgebraElement, elements,
                         tol: float = DEFAULT_TOL):
    """The same element over the restricted cocycle; coefficients outside
    the subgroup must vanish."""
    sub_f, pos = restrict_cocycle(x.cocycle, elements)
    for t, c in enumerate(x.coeffs):
        if t not in pos and not c.is_zero(tol):
            raise ValueError(
                f"nonzero coefficient at {x.cocycle.group.labels[t]} "
                "outside the subgroup")
    return AlgebraElement.from_dict(sub_f, {pos[t]: x.coeffs[t] for t in pos})
