"""Dense *-representations of finite coefficient rings, and the dense
morphism check.

Every finite coefficient ring (complex, real, quaternion, k x k matrices
and products of these) has one faithful *-representation on square arrays,
value_dense.  Real rings give real arrays.  Each algebra model of
twistalg.isolab builds its own dense form (dense, readout, star_readout)
from these ring-level forms and the exact elementwise arithmetic here,
algebra.alg_norm shares the twisted model's regular_dense, and
cocycle.validate checks tables over finite rings not held as their centre
(twistalg.centre) on their value_blocks.
All of them import this module on first use, so importing twistalg does
not load it, and it imports nothing from isolab.

Faithful *-representations of a finite-dimensional C*-algebra are
isometric, so norms taken on these arrays are the C*-norms.  The forms are
also picked so that the columns that hold an element (its readout) carry
exactly the coordinates the model's diff compares.  A cocycle value acts
on a readout by its own b x b dense form (value_blocks), on each group of
b rows, so dense_residuals reproduces the residuals of the object loop
(isolab.object_residuals) for every table, central or not.  It checks a
map into a direct sum one summand at a time.
"""
from __future__ import annotations

import numpy as np

from .groups import row_blocks
from .rings import RingDescriptor, RingValue, real_basis

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
    b, r = dense_size(d), len(readout_columns(d))
    if d.kind != "product":
        return np.array([v.payload for v in values],
                        dtype=dense_dtype(d)).reshape(-1, b, r)
    out = np.zeros((len(values), b, r), dtype=dense_dtype(d))
    for i, e, o, c in _factor_slots(d):
        out[:, o, c] = readout_array(e, [v.payload[i] for v in values])
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


def cocycle_blocks(f):
    """The dense forms (table, tilde) of a Schur function f over a finite
    ring: table[s, u] = f(s, u) and tilde[t] = f(t, t^{-1})^*, derived once
    and kept on f (SchurFunction._dense)."""
    return f._dense


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
    y = y.reshape(len(y), -1)
    a = np.hypot(y.real, y.imag) if np.iscomplexobj(y) else np.abs(y)
    return a.max(axis=1, initial=0.0)


def regular_dense(g, table, coeffs):
    """The regular representation of S(f) over group g, on the forms
    table (..., n, n, b, b) of f(s, u) and coeffs (..., n, b, b) of X_s,
    leading axes broadcast: (..., n b, n b) arrays whose block (t, u) is
    f(r, u) X_r, r = t u^{-1}, so block column 1 holds the coefficients."""
    n, b = g.order, coeffs.shape[-1]
    r = g.mul[:, g.inv]
    blocks = _matmul(table[..., r, np.arange(n), :, :], coeffs[..., r, :, :])
    return blocks.swapaxes(-3, -2).reshape(blocks.shape[:-4] + (n * b,) * 2)


# -- the morphism check ----------------------------------------------------

def dense_residuals(f, summands, rows=None):
    """isolab.row_residuals of a morphism out of S(f), on dense forms, over
    rows (default: every group element).  summands holds one (model,
    readouts) pair per summand of the target (Morphism._summands); the
    verifier ranks the same readouts.  A map into a direct sum is a unital
    *-homomorphism exactly when each component is, so each residual is the
    maximum over them.  On each, image_s is multiplied, a block of rows s
    at a time, by the readouts of every image_t and of every b 1, side by
    side."""
    rows = np.arange(f.group.order) if rows is None else np.array(rows, int)
    blocks, tilde = cocycle_blocks(f)
    basis = dense_array(f.descriptor, real_basis(f.descriptor))
    res = [_summand_residuals(f.group, blocks, tilde, basis, rows, *summand)
           for summand in summands]
    return (max(unit_res for unit_res, _ in res),
            np.maximum.reduce([r for _, r in res]))


def _summand_residuals(g, blocks, tilde, basis, rows, tgt, y):
    n, nb = g.order, len(basis)
    size, cols = y.shape[1:]                            # y: (n, size, cols)
    one = tgt.readout([tgt.unit()])[0]
    unit_res = float(_row_max(y[[g.identity]] - one)[0])
    # the readouts of every image and of every b 1: (size, (n + nb) cols)
    right = np.concatenate([y, _act(basis, one)]).transpose(1, 0, 2).reshape(
        size, (n + nb) * cols)
    out = np.empty((len(rows), 3))          # product, commutation, star
    for blk in row_blocks(len(rows), (n + nb) * size * cols + size * size,
                          VERIFY_ENTRIES):
        s = rows[blk]
        lhs = _matmul(tgt.dense(y[s]), right)
        lhs = lhs.reshape(-1, size, n + nb, cols).transpose(0, 2, 1, 3)
        out[blk, 0] = _row_max(lhs[:, :n] - _act(blocks[s], y[g.mul[s]]))
        out[blk, 1] = _row_max(lhs[:, n:] - _act(basis, y[s][:, None]))
        out[blk, 2] = _row_max(tgt.star_readout(y[s])
                               - _act(tilde[s], y[g.inv[s]]))
    return unit_res, out
