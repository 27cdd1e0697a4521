"""Dense *-representations of finite coefficient rings, and the dense
morphism check.

Every finite coefficient ring (complex, real, quaternion, k x k matrices
and products of these) has one faithful *-representation on square arrays,
value_dense.  Real rings give real arrays.  Each algebra model of
twistalg.isolab builds its own dense form (dense, readout, star_readout)
from these ring-level forms and the exact elementwise arithmetic here,
algebra.alg_norm shares the twisted model's regular_dense, algebra.alg_mul
and alg_star (and the twisted model's star_readout) are twisted_mul and
twisted_star on readouts, and cocycle.validate checks tables over finite
rings not held as their centre (twistalg.centre) on their value_blocks.
All of them import this module on first use, so importing twistalg does
not load it, and it imports nothing from isolab.

Faithful *-representations of a finite-dimensional C*-algebra are
isometric, so norms taken on these arrays are the C*-norms.  The forms are
also picked so that the columns that hold an element (its readout) carry
exactly the coordinates the model's diff compares.  A cocycle value acts
on a readout by its own b x b dense form (value_blocks), on each group of
b rows, so dense_residuals reproduces the residuals of the object loop
(isolab.object_residuals) for every table, central or not.  It checks the
K copies of a summand of a direct sum in one batched pass.
"""
from __future__ import annotations

from functools import cache

import numpy as np

from .groups import row_blocks
from .rings import RingDescriptor, RingValue

# entries of the largest arrays a blocked loop holds per block; a row of
# dense_residuals (8,256 entries at order 64) takes about three of them
BLOCK_ENTRIES = 1 << 13
VERIFY_ENTRIES = 3 << 13

# value_dense of a quaternion p: entry (r, q) is _QSIGN[r, q] p[_QIDX[r, q]]
_QIDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_QSIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0],
                   [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]])


# -- coefficient rings -----------------------------------------------------

def dense_size(d: RingDescriptor) -> int:
    """Side of value_dense for ring d (finite kinds only)."""
    if d.kind in ("complex", "real"):
        return 1
    if d.kind == "matrix":
        return d.k
    if d.kind == "quaternion":
        return 4
    if d.kind == "product":
        return sum(dense_size(f) for f in d.factors)
    raise ValueError(f"no dense form for kind {d.kind}")


def dense_dtype(d: RingDescriptor):
    return float if d.is_real else complex


def readout_columns(d: RingDescriptor) -> list:
    """The columns of value_dense that hold the value: column 0 for
    scalars and quaternions, every column for matrices, so the max |entry|
    over them is RingValue.abs_bound."""
    if d.kind == "matrix":
        return list(range(d.k))
    if d.kind == "product":
        return [o.start + c for _, e, o, _ in _factor_slots(d)
                for c in readout_columns(e)]
    if d.kind in ("complex", "real", "quaternion"):
        return [0]
    raise ValueError(f"no dense form for kind {d.kind}")


def readout_slots(d: RingDescriptor) -> list:
    """(row, column, real) of each readout entry that holds a coordinate,
    leaf by leaf, row by row; real if it holds one, not two (1 and i)."""
    if d.kind == "product":
        return [(o.start + i, c.start + j, real) for _, e, o, c in
                _factor_slots(d) for i, j, real in readout_slots(e)]
    return [(i, j, d.is_real) for i in range(dense_size(d))
            for j in range(len(readout_columns(d)))]


@cache
def basis_readouts(d: RingDescriptor) -> np.ndarray:
    """The readouts of rings.real_basis(d), read-only: a 1 in each slot of
    readout_slots, each complex one's followed by an i."""
    i, j, u = zip(*[(i, j, u) for i, j, real in readout_slots(d)
                    for u in ((1,) if real else (1, 1j))])
    y = np.zeros((len(u), dense_size(d), len(readout_columns(d))),
                 dtype=dense_dtype(d))
    y[np.arange(len(u)), i, j] = u
    y.flags.writeable = False
    return y


def value_dense(v: RingValue) -> np.ndarray:
    """1 x 1 for scalars, the payload for k x k matrices, the real 4 x 4
    left multiplication for quaternions, block diagonal over products."""
    return dense_array(v.descriptor, [v])[0]


def dense_array(d: RingDescriptor, values) -> np.ndarray:
    """(N, b, b) stack of value_dense over a list of values of ring d."""
    return readout_dense(d, readout_array(d, values))


def readout_array(d: RingDescriptor, values) -> np.ndarray:
    """(N, b, r) stack of value_dense(v)[:, readout_columns(d)], read off
    the payloads: the one step from values to arrays."""
    if d.kind == "product":
        return product_readouts(d, [
            readout_array(e, [v.payload[i] for v in values])
            for i, e, _, _ in _factor_slots(d)])
    b, r = dense_size(d), len(readout_columns(d))
    return np.array([v.payload for v in values],
                    dtype=dense_dtype(d)).reshape(-1, b, r)


def product_readouts(d: RingDescriptor, parts) -> np.ndarray:
    """Readouts (N, b, r) of values of a product ring from their factors'."""
    out = np.zeros((len(parts[0]), dense_size(d), len(readout_columns(d))),
                   dtype=dense_dtype(d))
    for (_, _, o, c), y in zip(_factor_slots(d), parts):
        out[:, o, c] = y
    return out


def readout_dense(d: RingDescriptor, y) -> np.ndarray:
    """value_dense from readouts y (..., b, r) of values of ring d."""
    if d.kind in ("complex", "real", "matrix"):
        return y
    if d.kind == "quaternion":
        return y[..., _QIDX, 0] * _QSIGN
    out = np.zeros(y.shape[:-1] + y.shape[-2:-1], dtype=y.dtype)
    for _, e, o, c in _factor_slots(d):
        out[..., o, o] = readout_dense(e, y[..., o, c])
    return out


def from_readout(d: RingDescriptor, y) -> list:
    """The values of ring d whose readouts are y (N, b, r): readout_array
    inverted, bit for bit."""
    if d.kind == "product":
        return [RingValue(d, p) for p in zip(*(
            from_readout(e, y[:, o, c]) for _, e, o, c in _factor_slots(d)))]
    y = y.real if d.is_real else y      # a real factor of a complex array
    if d.kind in ("complex", "real"):
        return [RingValue(d, c) for c in y[:, 0, 0].tolist()]
    return [RingValue(d, p) for p in (y[..., 0] if d.kind == "quaternion"
                                      else y).copy()]


def _factor_slots(d: RingDescriptor):
    """(i, factor, rows, readout columns) for each factor of a product."""
    o = c = 0
    for i, e in enumerate(d.factors):
        b, r = dense_size(e), len(readout_columns(e))
        yield i, e, slice(o, o + b), slice(c, c + r)
        o, c = o + b, c + r


def quaternion_complex(p) -> np.ndarray:
    """(..., 2, 2) stack of a + bi + cj + ek as [[a + bi, c + ei],
    [-c + ei, a - bi]] from coordinates p (..., 4): another faithful
    *-representation of H, so norms taken on it equal those on
    value_dense, on arrays of half the side."""
    re = np.stack([p[..., 0], p[..., 2], -p[..., 2], p[..., 0]], axis=-1)
    im = np.stack([p[..., 1], p[..., 3], p[..., 3], -p[..., 1]], axis=-1)
    return _complex(re, im).reshape(p.shape[:-1] + (2, 2))


def value_blocks(d: RingDescriptor, values) -> np.ndarray:
    """(n, m, b, b) dense forms of a table of values of ring d, given as a
    list of n lists of m values."""
    b = dense_size(d)
    return dense_array(d, [v for row in values for v in row]).reshape(
        len(values), -1, b, b)


def star_readout(d: RingDescriptor, y: np.ndarray) -> np.ndarray:
    """Readouts (..., b, r) of values to the readouts of their stars."""
    if d.kind == "complex":
        return y.conj()
    if d.kind == "real":
        return y
    if d.kind == "quaternion":
        return y * np.array([[1.0], [-1.0], [-1.0], [-1.0]])
    if d.kind == "matrix":
        return y.swapaxes(-1, -2).conj()
    out = np.zeros_like(y)
    for _, e, o, c in _factor_slots(d):
        out[..., o, c] = star_readout(e, y[..., o, c])
    return out


# -- exact block arithmetic -----------------------------------------------

def _matmul(a, b):
    """a @ b for a (..., i, j) and b (..., j, k), broadcast over the
    leading axes; complex products as four real ones, so a product with
    one nonzero term rounds as Python's complex product (complex BLAS gemm
    may round it differently).  numpy's own loops (einsum), not BLAS: the
    first real gemm call of a process adds about 0.26 MB of resident
    library code."""
    if not np.iscomplexobj(a) and not np.iscomplexobj(b):
        return np.einsum("...ij,...jk->...ik", a, b)
    return _complex(_matmul(a.real, b.real) - _matmul(a.imag, b.imag),
                    _matmul(a.real, b.imag) + _matmul(a.imag, b.real))


def _products(a, b):
    """a b entrywise, broadcast, as Python multiplies each pair of numbers:
    complex products as four real ones."""
    if not (np.iscomplexobj(a) or np.iscomplexobj(b)):
        return a * b
    return _complex(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


def _complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _times(a, y, exact=False):
    """a y for forms a (..., b, b), readouts y: elementwise if b = 1 (with
    exact, each complex product as four real ones)."""
    if a.shape[-1] == 1 and not exact:
        return a * y
    return _matmul(a, y) if a.shape[-1] > 1 else _products(a, y)


def _act(blocks, y):
    """Left multiplication of readouts y (..., D, r) by ring values given
    as dense forms blocks (..., b, b): each group of b rows of y by its
    value's form, the leading axes broadcast."""
    b = blocks.shape[-1]
    d, r = y.shape[-2:]
    out = _matmul(blocks[..., None, :, :],
                  y.reshape(y.shape[:-2] + (d // b, b, r)))
    return out.reshape(out.shape[:-3] + (d, r))


def _row_max(y) -> np.ndarray:
    """Max |entry| of each y[i] (0 if empty), with Python's abs (hypot) for
    complex entries."""
    a = np.hypot(y.real, y.imag) if np.iscomplexobj(y) else np.abs(y)
    return a.max(axis=tuple(range(1, y.ndim)), initial=0.0)


def regular_dense(g, table, coeffs):
    """The regular representation of S(f) over group g, on the forms
    table (..., n, n, b, b) of f(s, u) and coeffs (..., n, b, b) of X_s,
    leading axes broadcast: (..., n b, n b) arrays whose block (t, u) is
    f(r, u) X_r, r = t u^{-1}, so block column 1 holds the coefficients."""
    n, b = g.order, coeffs.shape[-1]
    r = g.mul[:, g.inv]
    blocks = _matmul(table[..., r, np.arange(n), :, :], coeffs[..., r, :, :])
    return blocks.swapaxes(-3, -2).reshape(blocks.shape[:-4] + (n * b,) * 2)


# -- the twisted product and star ------------------------------------------
# On readouts (n, b, r) of the coefficients of elements of S(f), rounded as
# the object loop over RingValues rounds: every product as b x b forms take
# it (_times, exact), so over C and R Python's four real products.  As in
# Python, inf and NaN coefficients raise no warning.

@np.errstate(invalid="ignore", over="ignore")
def twisted_mul(f, x, y):
    """The readouts of XY: (XY)_t = sum_s f(s, u) X_s Y_u, u = s^{-1} t,
    each term (f(s, u) X_s) Y_u, those with X_s = 0 or Y_u = 0 left out
    (NaN is no zero), summed over s in ascending order from zero; a block
    of rows s at a time."""
    g, d, (n, b, r) = f.group, f.descriptor, x.shape
    table = f._dense[0].reshape(n * n, b, b)
    out, zero = np.zeros(x.size, x.dtype), ~y.any((1, 2))
    support = np.flatnonzero(x.any((1, 2)))
    # take: about twice as fast as fancy indexing on these arrays
    for blk in row_blocks(len(support), n * b * max(b, r), BLOCK_ENTRIES):
        s = support[blk]
        u = g.mul[g.inv[s]]                             # (rows, n) by t
        fx = _times(table.take(s[:, None] * n + u, 0), x[s, None], exact=True)
        terms = _times(readout_dense(d, fx), y.take(u, 0), exact=True)
        terms[zero.take(u)] = 0
        for row in terms.reshape(len(s), -1):
            out += row
    return out.reshape(x.shape)


@np.errstate(invalid="ignore", over="ignore")
def twisted_star(f, y):
    """The readouts (..., n, b, r) of X^* from those of X:
    (X^*)_t = tilde f(t) (X_{t^{-1}})^*."""
    inv = f.group.inv
    return _times(f._dense[1], star_readout(f.descriptor, y[..., inv, :, :]),
                  exact=True)


# -- the morphism check ----------------------------------------------------

def dense_residuals(f, summands, rows=None):
    """(unit residual, res, star): res[i] holds image_s's largest |image_s
    image_t - f(s,t) image_st|, |image_s (b 1) - b image_s| over a real
    basis b of E and |image_s^* - tilde f(s) image_s^-1|, s = rows[i]
    (default: all); star, every row's star residual.  summands holds a
    (model, readouts (K, n, size, cols)) pair per run of K copies of a
    summand of the target (Morphism._summands): a map into a direct sum is
    a unital *-homomorphism exactly when each component is, so each
    residual is the maximum over them.  On each run, image_s is multiplied,
    a block of rows s at a time, K copies at once, by the readouts of
    every image_t and of every b 1."""
    rows = np.arange(f.group.order) if rows is None else np.array(rows, int)
    blocks, tilde = f._dense
    basis = readout_dense(f.descriptor, basis_readouts(f.descriptor))
    unit, res, star = zip(*(_summand_residuals(f.group, blocks, tilde, basis,
                                               rows, *summand)
                            for summand in summands))
    return float(np.max(unit)), np.maximum.reduce(res), float(np.max(star))


def _flat(fn, y):
    """fn, a model's map of (N, size, cols) stacks, on y (..., size, cols)."""
    out = fn(y.reshape((-1,) + y.shape[-2:]))
    return out.reshape(y.shape[:-2] + out.shape[-2:])


def _summand_residuals(g, blocks, tilde, basis, rows, tgt, y):
    n, nb = g.order, len(basis)
    k, _, size, cols = y.shape                      # y: (K, n, size, cols)
    one = tgt.unit_readout
    unit_res = float(_row_max(y[:, g.identity] - one).max())
    star = _row_max((_flat(tgt.star_readout, y)
                     - _act(tilde, y[:, g.inv])).swapaxes(0, 1))
    # the readouts of every image and of every b 1: (K, size, (n + nb) cols)
    right = np.concatenate([y, np.broadcast_to(_act(basis, one), (
        k, nb, size, cols))], 1).transpose(0, 2, 1, 3).reshape(
            k, 1, size, (n + nb) * cols)
    out = np.empty((len(rows), 3))          # product, commutation, star
    out[:, 2] = star[rows]
    for blk in row_blocks(len(rows), k * ((n + nb) * size * cols
                                          + size * size), VERIFY_ENTRIES):
        s = rows[blk]
        lhs = _matmul(_flat(tgt.dense, y[:, s]), right).reshape(
            k, -1, size, n + nb, cols)
        lhs[..., n:, :] -= _act(basis, y[:, s, None]).transpose(0, 1, 3, 2, 4)
        out[blk, 1] = _row_max(lhs[..., n:, :].swapaxes(0, 1))
        # image_s image_t - f(s,t) image_st in the order of u = st: with y
        # read in place, two arrays of (rows, n, K, size, cols) at a time
        t = g.mul[g.inv[s]]
        prod = lhs[:, np.arange(len(s))[:, None], :, t]
        del lhs
        prod -= _act(blocks[s[:, None], t, None], y.swapaxes(0, 1))
        out[blk, 0] = _row_max(prod)
        del prod
    return unit_res, out, float(star.max(initial=0.0))


def residual_bound(m) -> float:
    """A proved bound on every residual of every row of a morphism m out of
    S(f) over a finite ring, from its rows of S = f.group.generators
    (Morphism._generator_rows); NaN, before reading them, for f not held as
    1 x 1 forms (cocycle._arrays), a corner target (p), or a twisted model
    (inner, f) whose table is not 1 x 1 forms with f(s,e) = f(e,s) = 1.

    Proof, per summand of side N.  Y_t, D_t = D(Y_t): readouts and dense
    forms of image_t; x^: x in E on each group of b rows; nu, nu2: largest
    |entry| and column 2-norm of a readout; |.|: 2-norm.  nu <= nu2 <=
    sqrt(N) nu, nu2(A Y) <= |A| nu2(Y), |D(Y)| <= K nu(Y) with K = N c, c >=
    the table's |values| (1 without one), D(D_x Y) = D_x D(Y) + A with |A|
    <= alpha nu(x) nu(Y), alpha = N^2 times the table's cocycle residual,
    D(x^ Y) = x^ D(Y), D(one) = 1, D(Y) R(1) = Y.  Row r's residuals are
    P_r(t) = D_r Y_t - f(r,t)^ Y_rt and C_r(b) = [D_r, b^] R(1), |b^| = 1.
    A value c 1 of f is c times at most B = b basis values: it commutes
    with each b^, |[D_g, f(s,t)^]| <= phi B G with phi >= |f(s,t)| and G =
    K q + 2 alpha M >= |[D_g, b^]| (= |D(C_g(b))| up to two A), p, q the
    product and commutation residuals on S, M >= nu(Y_t), M2 >= nu2(Y_t).
    D_e = 1 + D(Y_e - one) bounds row e by (K u + z) M2 and 2 K u, u the
    unit residual, z >= |1 - f(e,t)|.  For r = g r', g in S, r' of word
    length k - 1 >= 1 and a = f(g,r'), row g at r' gives Y_r = a^-1^ (D_g
    Y_r' - P_g(r')), so D_r = a^-1^ (D_g D_r' + A - D(P_g(r'))); with rows
    g at r't, r' at t and W = f(g,r') f(r,t) - f(g,r't) f(r',t) on g's row,
        P_r(t) = a^-1^ (D_g P_r'(t) - W^ Y_rt + f(r',t)^ P_g(r't)
                 + [D_g, f(r',t)^] Y_r't + A Y_t - D(P_g(r')) Y_t),
        [D_r, b^] = a^-1^ (D_g [D_r', b^] + [D_g, b^] D_r' + [A, b^]
                    - [D(P_g(r')), b^]).
    With lam >= |f(s,t)^-1|, m >= |D_g| (by row and column sums), w >= |W|,
    mu = max(1, lam m), |D_r'| <= d = mu^(L-2) (m + (L-2) lam (alpha M^2 +
    K p)) and x_1 = max(sqrt(N) p, G), nu2(P_r(t)) and |[D_r, b^]| are at
    most mu x_(k-1) + beta at length k, so mu^(L-1) (x_1 + (L-1) beta) for
    L = f.group.depth, where
        beta = lam max(M2 (w + phi B G + K p + alpha M^2) + phi sqrt(N) p,
                       G d + 2 alpha M^2 + 2 K p).
    Rounding, e = cocycle._EPS: row s's computed residuals sum at most N +
    1 products of stored numbers, each rounded at most twice, so are within
    (N + 3) e (R_s + phi) M' of their values, R_s the largest row sum of
    |D_s|, M' = max(M, 1); p, q take it on over S, the bound over all rows
    with R_s <= sqrt(N) max(d, 1 + K u); cocycle residuals take 2 e phi^2;
    inputs gain 2^-40, the bound 2^-30, for relative rounding."""
    from .cocycle import _EPS as e
    f, up = m.source, np.float64(1 + 2.0 ** -40)
    forms, stats, gens = f._arrays[0], [], f.group.generators
    for mod, y in m._summands:
        a = np.abs(_flat(mod.dense, y[:, gens]))    # rows of S's dense forms
        while hasattr(mod, "inner"):
            mod = mod.inner
        t = getattr(mod, "f", None)
        tf = np.ones((1, 1, 1, 1)) if t is None else t._arrays[0]
        if (hasattr(mod, "p") or forms.shape[-1] != 1 or tf.shape[-1] != 1
                or not ((tf[0] == 1).all() and (tf[:, 0] == 1).all())):
            return np.nan
        tw, tc = (0.0, 1.0) if t is None else _defect(t, range(len(tf)))
        stats.append((y.shape[2], tc, _row_max(y[None])[0],
                      np.sqrt((abs(y) ** 2).sum(2)).max(),
                      y.shape[2] ** 2 * (tw + 2 * e * tc ** 2),
                      a.sum(-1).max(), a.sum(-2).max()))
    big_n, c, mag, mag2, alpha, rs, cs = np.max(stats, axis=0) * up
    w, phi = _defect(f, gens)
    unit, res, star = m._generator_rows
    p, q = res[:, :2].max(0)
    with np.errstate(all="ignore"):   # overflow makes inf, a 0 value too
        lam, phi, rn = up / np.abs(forms).min(), phi * up, big_n ** 0.5
        big_m, k, L = max(mag, 1.0), big_n * c, f.group.depth
        tau = (big_n + 3) * e * (rs + phi) * big_m
        p, q, norm = (p + tau) * up, (q + tau) * up, np.sqrt(rs * cs)
        w, u = (w + 2 * e * phi ** 2) * up, unit * k * up
        z = np.abs(1 - forms[f.group.identity]).max() * up
        mu, g = max(1.0, lam * norm), k * q + 2 * alpha * mag
        d = mu ** (L - 2) * (norm + (L - 2) * lam * (alpha * mag ** 2 + k * p))
        beta = lam * max(mag2 * (w + phi * dense_size(f.descriptor) * g + k * p
                                 + alpha * mag ** 2) + phi * rn * p,
                         g * d + 2 * alpha * mag ** 2 + 2 * k * p)
        chain = mu ** (L - 1) * (max(rn * p, g) + (L - 1) * beta)
        tau = (big_n + 3) * e * (rn * max(d, 1 + u) + phi) * big_m
        bound = np.max([(u + z) * mag2, 2 * u, chain]) + tau
        return float(np.max([bound * (1 + 2.0 ** -30), unit, star]))


def _defect(f, rows):
    """(largest cocycle residual on rows, largest |value|) of 1 x 1 forms."""
    from .cocycle import _row_residuals
    res = _row_residuals(f.group, *f._arrays, np.array(rows, int),
                         BLOCK_ENTRIES)
    return float(np.max(res, initial=0.0)), float(np.abs(f._arrays[0]).max())
