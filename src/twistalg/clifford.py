"""Clifford-type cocycles on subset groups and the periodicity maps.

The cocycle is f_rho(A, B) = (-1)^tau prod_{s in A cap B} rho(s) where tau
counts the inversions needed to merge the sorted word of A in front of the
sorted word of B.  Generators V_{s} anticommute and square to rho(s).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (AlgebraElement, alg_mul, generator, is_projection,
                      unit)
from .cocycle import SchurFunction
from .groups import SubsetGroup, make_subset_group
from .isolab import (AlgebraModel, ComplexifiedModel, CornerModel,
                     DirectSumModel, MatrixModel, Morphism,
                     QuaternionTensorModel, TwistedModel,
                     extend_generator_images)
from .rings import DEFAULT_TOL, RingDescriptor, RingValue

MAX_LABELS = 8
MAX_PERIODICITY = 3       # number of adjoined generator pairs / base n


def transposition_sign(a, b) -> int:
    """(-1)^tau for merging word a before word b; positions compare by the
    total order of the base set."""
    a = sorted(a)
    b = sorted(b)
    tau = 0
    for x in a:
        tau += sum(1 for y in b if y < x)
    return -1 if tau % 2 else 1


class CliffordSpec:
    """An ordered label set with a central unitary rho value per label."""

    def __init__(self, labels, values, descriptor: RingDescriptor,
                 tol: float = DEFAULT_TOL):
        labels = list(labels)
        values = list(values)
        if len(labels) != len(values):
            raise ValueError("one rho value per label required")
        if len(labels) > MAX_LABELS:
            raise ValueError(f"at most {MAX_LABELS} labels supported")
        for lbl, v in zip(labels, values):
            if v.descriptor != descriptor:
                raise ValueError(f"rho({lbl}) has the wrong coefficient ring")
            if not v.is_unitary(tol) or not v.is_central(tol):
                raise ValueError(f"rho({lbl}) must be central unitary")
        self.labels = labels
        self.values = values
        self.descriptor = descriptor
        self.group = make_subset_group(labels)

    @property
    def size(self) -> int:
        return len(self.labels)

    def rho(self, i: int) -> RingValue:
        return self.values[i]

    def extended(self, new_values) -> "CliffordSpec":
        """Append generators after the existing ones in the total order."""
        k = len(self.labels)
        new_labels = [f"+{k + i + 1}" for i in range(len(new_values))]
        if all(isinstance(l, int) for l in self.labels):
            top = max(self.labels, default=0)
            new_labels = [top + i + 1 for i in range(len(new_values))]
        return CliffordSpec(self.labels + new_labels,
                            self.values + list(new_values), self.descriptor)


def clifford_cocycle(spec: CliffordSpec) -> SchurFunction:
    """f_rho from one product per subset (its prefix times its top rho, so
    factors multiply in ascending order) and one integer array of parities."""
    k, n = spec.size, 1 << spec.size
    prods = [RingValue.unit(spec.descriptor)]
    for rho in spec.values:
        prods += [p * rho for p in prods]        # the masks with top bit rho's
    negs = [-p for p in prods]
    # tau(a, b) = sum_{x in a} #{y in b : y < x}
    bits = (np.arange(n)[:, None] >> np.arange(k)) & 1
    odd = (bits @ (np.cumsum(bits, axis=1) - bits).T) % 2
    inter = np.arange(n)[:, None] & np.arange(n)
    vals = [[(negs if o else prods)[m] for o, m in zip(orow, mrow)]
            for orow, mrow in zip(odd.tolist(), inter.tolist())]
    return SchurFunction(spec.group, spec.descriptor, vals)


def universal_map(spec: CliffordSpec, images, target: AlgebraModel,
                  tol: float = DEFAULT_TOL) -> Morphism:
    """Extend per-label images to all of S(f_rho) by ordered products
    V_A -> prod_{s in A, ascending} x_s (extend_generator_images reaches V_A
    first as V_{A - max A} x_{max A}, where f = 1), and refuse the extension
    unless the verifier's residuals on each generator's row, which hold the
    generator relations, are within tol: product, commutation with E, star.
    The morphism keeps those rows for verify_morphism."""
    images = list(images)
    if len(images) != spec.size:
        raise ValueError("one image per label required")
    m = extend_generator_images(
        clifford_cocycle(spec), {1 << i: x for i, x in enumerate(images)},
        target)
    for lbl, row in zip(spec.labels, m._generator_rows[1]):
        for check, r in zip(("product", "commutation with E", "star"), row):
            if not r <= tol:
                raise ValueError(f"x_{lbl} fails the {check} check "
                                 f"(residual {r:.3g})")
    return m


# -- projection families ---------------------------------------------------

def projection_family(f: SchurFunction, entries,
                      tol: float = DEFAULT_TOL):
    """P = (1/2) V_1 + sum_t eps_t X_t V_t and its complement V_1 - P,
    for pairwise odd-pairing order-2 elements t with signs eps_t in {-1,1}
    and coefficients X_t obeying X_t* = f(t,t) X_t and
    sum_t X_t* X_t = (1/4) 1."""
    entries = list(entries)
    if not entries:
        raise ValueError("projection family needs at least one term")
    g = f.group
    if not isinstance(g, SubsetGroup):
        raise ValueError("projection families live on subset groups")
    ts = [t for t, _, _ in entries]
    if len(set(ts)) != len(ts):
        raise ValueError("repeated group elements in family")
    unit_v = RingValue.unit(f.descriptor)
    for t, eps, x in entries:
        if t == g.identity:
            raise ValueError("identity element not allowed in family")
        if eps not in (1, -1):
            raise ValueError(f"eps for {g.labels[t]} must be +-1")
        alpha = f.values[t][t]
        if (x.star() - alpha * x).abs_bound() > tol:
            raise ValueError(f"X for {g.labels[t]} violates X* = f(t,t) X")
    for i, t in enumerate(ts):
        for s in ts[:i]:
            parity = (g.card(s) * g.card(t) - g.card(s & t)) % 2
            if parity != 1:
                raise ValueError(
                    f"elements {g.labels[s]} and {g.labels[t]} do not "
                    "anticommute (even pairing)")
    total = RingValue.zero(f.descriptor)
    for _, _, x in entries:
        total = total + x.star() * x
    if (total - unit_v.scale(0.25)).abs_bound() > tol:
        raise ValueError("sum |X_t|^2 != 1/4")
    p = AlgebraElement.from_dict(f, {g.identity: unit_v.scale(0.5)} | {
        t: x if eps == 1 else -x for t, eps, x in entries})
    if not is_projection(p, tol):
        raise ValueError("constructed element failed the projection check")
    return p, unit(f) - p


def corner_projection(f: SchurFunction, t: int, alpha: RingValue,
                      eps: int = 1, tol: float = DEFAULT_TOL):
    """Single-element family with X_t = (1/2) alpha*."""
    return projection_family(f, [(t, eps, alpha.star().scale(0.5))], tol=tol)


# -- periodicity -----------------------------------------------------------

def _full_mask(spec: CliffordSpec) -> int:
    return (1 << spec.size) - 1


def _require_even(spec: CliffordSpec):
    if spec.size % 2:
        raise ValueError("periodicity extensions need an even base size")
    if spec.size > 2 * MAX_PERIODICITY:
        raise ValueError("base size exceeds the periodicity cap")


def extend_two_matrix(spec: CliffordSpec, alpha1: RingValue,
                      alpha2: RingValue, tol: float = DEFAULT_TOL):
    """Adjoining generators with rho values alpha1^2 and -alpha2^2 yields
    2 x 2 matrices over S(rho): V_s -> diag(V_s, -V_s),
    V_{n+1} -> alpha1 offdiag(V_0, V_0), V_{n+2} -> alpha2
    offdiag(-V_0, V_0)."""
    _require_even(spec)
    spec2 = spec.extended([alpha1 * alpha1, -(alpha2 * alpha2)])
    f = clifford_cocycle(spec)
    inner = TwistedModel(f)
    target = MatrixModel(2, inner)
    v0 = unit(f)
    z = inner.zero()
    images = []
    for i in range(spec.size):
        vs = generator(f, 1 << i)
        images.append([[vs, z], [z, -vs]])
    images.append([[z, v0.scale_ring(alpha1)], [v0.scale_ring(alpha1), z]])
    images.append([[z, -(v0.scale_ring(alpha2))], [v0.scale_ring(alpha2), z]])
    return universal_map(spec2, images, target, tol=tol)


def matrix_corner_elements(spec: CliffordSpec, alpha1: RingValue,
                           alpha2: RingValue):
    """The two projections (1/2)(V_0 +- alpha1* alpha2* V_{new pair}) whose
    images under extend_two_matrix are the diagonal matrix units."""
    spec2 = spec.extended([alpha1 * alpha1, -(alpha2 * alpha2)])
    f2 = clifford_cocycle(spec2)
    pair_mask = (1 << spec.size) | (1 << (spec.size + 1))
    c = (alpha1.star() * alpha2.star()).scale(0.5)
    half = RingValue.unit(spec.descriptor).scale(0.5)
    return (AlgebraElement.from_dict(f2, {0: half, pair_mask: c}),
            AlgebraElement.from_dict(f2, {0: half, pair_mask: -c}))


def extend_two_quaternion(spec: CliffordSpec, alpha1: RingValue,
                          alpha2: RingValue, tol: float = DEFAULT_TOL):
    """Real case: adjoining generators with rho values -alpha_l^2 tilde(S)
    yields H tensor S(rho): V_s -> V_s x 1, new generators ->
    (alpha_l tilde(S) V_S) x i and x j."""
    if not spec.descriptor.is_real:
        raise ValueError("quaternion extension needs a real coefficient ring")
    _require_even(spec)
    f = clifford_cocycle(spec)
    ft = f.tilde(_full_mask(spec))
    spec2 = spec.extended([-(alpha1 * alpha1) * ft, -(alpha2 * alpha2) * ft])
    inner = TwistedModel(f)
    target = QuaternionTensorModel(inner)
    z = inner.zero()
    vs_full = generator(f, _full_mask(spec))
    images = []
    for i in range(spec.size):
        images.append((generator(f, 1 << i), z, z, z))
    images.append((z, vs_full.scale_ring(alpha1 * ft), z, z))
    images.append((z, z, vs_full.scale_ring(alpha2 * ft), z))
    return universal_map(spec2, images, target, tol=tol)


def complexify_odd(spec: CliffordSpec, tol: float = DEFAULT_TOL):
    """Real case: one extra generator with rho value -tilde(S) yields the
    complexification: V_s -> (V_s, 0), extra -> (0, -tilde(S) V_S)."""
    if not spec.descriptor.is_real:
        raise ValueError("complexification needs a real coefficient ring")
    _require_even(spec)
    f = clifford_cocycle(spec)
    ft = f.tilde(_full_mask(spec))
    spec2 = spec.extended([-ft])
    inner = TwistedModel(f)
    target = ComplexifiedModel(inner)
    z = inner.zero()
    images = [(generator(f, 1 << i), z) for i in range(spec.size)]
    images.append((z, -(generator(f, _full_mask(spec)).scale_ring(ft))))
    return universal_map(spec2, images, target, tol=tol)


# -- one extra generator: direct sum split ---------------------------------

@dataclass
class IsometryPair:
    """Coefficient-space isometries theta_+/- : E^{2^n} -> E^{2^{n+1}} with
    theta* theta = id and theta theta* = P_+- in the regular
    representation."""
    theta_plus: list
    theta_minus: list
    source_f: SchurFunction        # the extended cocycle (domain of Y)
    base_f: SchurFunction

    @cached_property
    def _columns(self):
        # per sign, per column a of theta: its nonzero entries (row, value)
        return {sign: [[(i, row[a]) for i, row in enumerate(self.theta(sign))
                        if not row[a].is_zero(0.0)]
                       for a in range(self.base_f.group.order)]
                for sign in (1, -1)}

    def theta(self, sign: int):
        return self.theta_plus if sign > 0 else self.theta_minus

    def conjugate(self, y: AlgebraElement, sign: int) -> AlgebraElement:
        """theta* . regular(y) . theta, read back as an element of the base
        algebra via the identity column of its regular matrix.  Only the
        nonzero entries of theta are read, and only the regular-matrix
        coefficients they meet; sums run in ascending order of the inner
        index, as in the plain product theta* (regular(y) theta), so the
        result equals that product's exactly."""
        cols = self._columns[1 if sign > 0 else -1]
        d = self.base_f.descriptor
        right = cols[self.base_f.group.identity]
        g, fy = y.cocycle.group, y.cocycle.values
        out = AlgebraElement.zero(self.base_f)
        for a, col in enumerate(cols):
            acc = RingValue.zero(d)
            for i, th_ia in col:
                # (regular(y) . theta)[i][identity]; regular(y)[i][j] is
                # f(r, j) y_r with r = i j^{-1}
                mt = RingValue.zero(d)
                for j, th_j in right:
                    r = g.op(i, g.inverse(j))
                    mt = mt + fy[r][j] * y.coeffs[r] * th_j
                acc = acc + th_ia.star() * mt
            out.coeffs[a] = acc
        return out


def split_odd(spec: CliffordSpec, tol: float = DEFAULT_TOL):
    """One extra generator with rho value tilde(S): S(rho') splits as
    S(rho) + S(rho) through the central projections
    P_+- = (1/2)(V_0 +- V_{S'}).  Returns (P_+, P_-, IsometryPair,
    Morphism).  Images theta* R(V_t) theta: on dense forms for all t at
    once over finite rings, by IsometryPair.conjugate over Laurent rings."""
    _require_even(spec)
    f = clifford_cocycle(spec)
    full = _full_mask(spec)
    ft = f.tilde(full)
    spec2 = spec.extended([ft])
    f2 = clifford_cocycle(spec2)
    n2 = f2.group.order                     # 2^{size+1}
    n1 = f.group.order
    top = 1 << spec.size                    # bit of the new generator
    d = spec.descriptor
    half = RingValue.unit(d).scale(0.5)
    p_plus, p_minus = (AlgebraElement.from_dict(f2, {0: half, full | top: h})
                       for h in (half, -half))

    # column a of theta: c at row a, +- c f(a, full) at row (full ^ a) | top
    c = RingValue.unit(d).scale(1.0 / np.sqrt(2.0))
    entries = [c * f.values[a][full] for a in range(n1)]
    thetas = [[[RingValue.zero(d)] * n1 for _ in range(n2)] for _ in range(2)]
    for i in range(n1):
        for th, entry in zip(thetas, (entries[i], -entries[i])):
            th[i][i], th[(full ^ i) | top][i] = c, entry
    pair = IsometryPair(thetas[0], thetas[1], f2, f)

    inner = TwistedModel(f)
    target = DirectSumModel(inner, inner)
    if not d.is_finite:
        return p_plus, p_minus, pair, Morphism(f2, target, [
            tuple(pair.conjugate(generator(f2, t), sgn) for sgn in (1, -1))
            for t in range(n2)])
    row2 = (full ^ np.arange(n1)) | top      # the second row of column a
    from .dense import _matmul, dense_array, readout_columns
    forms = dense_array(d, [c] + entries)
    adj = forms.conj().swapaxes(-1, -2)
    cols, e, g2 = readout_columns(d), f.group.identity, f2.group
    j = g2.mul[g2.inv]                                  # j[t, i] = t^-1 i
    table = f2._dense[0][np.arange(n2)[:, None], j]
    # for the signs +-: (R(V_t) theta_e)_i = f(t, j) theta_je; theta* of
    # it adds the two terms of each row a in ascending order, as conjugate
    sgn = np.array([1, -1])[:, None, None, None, None]
    col = np.zeros((2, n2) + forms.shape[1:], dtype=forms.dtype)
    col[:, e], col[:, row2[e]] = forms[0], sgn[:, 0, 0] * forms[1 + e]
    r_theta = _matmul(table, col[:, j][..., cols])
    stack = _matmul(adj[0], r_theta[:, :, :n1]) + _matmul(
        sgn * adj[1:], r_theta[:, :, row2])
    return p_plus, p_minus, pair, Morphism(f2, target, stacks=[
        stack.reshape(2, n2, -1, len(cols))])


# -- up to two extra generators: corner embedding --------------------------

def extend_even_projection(spec: CliffordSpec, m: int, alphas,
                           tol: float = DEFAULT_TOL):
    """Adjoin m generators with rho values alpha_i^2 tilde(S); then
    P = (1/2) V_0 + (1/(2 sqrt m)) sum_i alpha_i* V_{S union {new_i}} is a
    projection, and V_s -> P V_s P embeds S(rho) into the corner
    P S(rho') P (onto it when m <= 2).  Returns (P, Morphism onto
    CornerModel(P))."""
    _require_even(spec)
    alphas = list(alphas)
    if m < 1 or len(alphas) != m:
        raise ValueError("need one alpha per extra generator, m >= 1")
    f = clifford_cocycle(spec)
    full = _full_mask(spec)
    ft = f.tilde(full)
    spec2 = spec.extended([(a * a) * ft for a in alphas])
    f2 = clifford_cocycle(spec2)
    c = 1.0 / (2.0 * np.sqrt(m))
    entries = [(full | (1 << (spec.size + i)), 1, a.star().scale(c))
               for i, a in enumerate(alphas)]
    p, _ = projection_family(f2, entries, tol=tol)
    # a base element t indexes the same subset in the extended group
    images = [alg_mul(alg_mul(p, generator(f2, t)), p)
              for t in range(f.group.order)]
    return p, Morphism(f, CornerModel(p), images)
