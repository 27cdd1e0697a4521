"""Dense *-representations of finite coefficient rings and algebra models.

Every finite coefficient ring (complex, real, quaternion, k x k matrices
and products of these) has one faithful *-representation on square arrays,
value_dense, and so has every algebra model over it, model_form.  Real
rings give real arrays.  RegularMatrix.flatten and verify_morphism import
this module when they first run, so importing twistalg does not load it.

Faithful *-representations of a finite-dimensional C*-algebra are
isometric, so norms taken on these arrays are the C*-norms.  The forms are
also picked so that the columns that hold an element (its readout) carry
exactly the coordinates the model's diff compares, and dense_residuals
reproduces the residuals of the object loop (isolab.object_residuals) when
every cocycle value is central; it refuses other tables (NotCentral).
"""
from __future__ import annotations

import numpy as np

from .groups import row_blocks
from .isolab import (_QMUL, ComplexifiedModel, DirectSumModel, MatrixModel,
                     QuaternionTensorModel, RingModel, TwistedModel)
from .rings import RingDescriptor, RingValue

# entries of the largest arrays that dense_residuals holds per row block
BLOCK_ENTRIES = 1 << 13

# value_dense of a quaternion p: entry (r, q) is _QSIGN[r, q] p[_QIDX[r, q]]
_QIDX = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
_QSIGN = np.array([[1.0, -1.0, -1.0, -1.0], [1.0, 1.0, -1.0, 1.0],
                   [1.0, 1.0, 1.0, -1.0], [1.0, -1.0, 1.0, 1.0]])


class NotCentral(ValueError):
    """A cocycle value that is not central: it does not act on dense forms
    as row scalars, so dense_residuals does not apply."""


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
        out, o = [], 0
        for f in d.factors:
            out.extend(o + c for c in readout_columns(f))
            o += dense_size(f)
        return out
    if d.kind in ("complex", "real", "quaternion"):
        return [0]
    raise ValueError(f"no dense form for kind {d.kind}")


def value_dense(v: RingValue) -> np.ndarray:
    """1 x 1 for scalars, the payload for k x k matrices, the real 4 x 4
    left multiplication for quaternions, block diagonal over products."""
    d = v.descriptor
    if d.kind in ("complex", "real"):
        return np.array([[v.payload]], dtype=dense_dtype(d))
    if d.kind == "matrix":
        return v.payload.astype(dense_dtype(d))
    if d.kind == "quaternion":
        return dense_array(d, [v])[0]
    if d.kind == "product":
        out = np.zeros((dense_size(d),) * 2, dtype=dense_dtype(d))
        o = 0
        for w in v.payload:
            blk = value_dense(w)
            out[o:o + len(blk), o:o + len(blk)] = blk
            o += len(blk)
        return out
    raise ValueError(f"no dense form for kind {d.kind}")


def dense_array(d: RingDescriptor, values) -> np.ndarray:
    """(N, b, b) stack of value_dense over a list of values of ring d."""
    b = dense_size(d)
    if d.kind in ("complex", "real", "matrix"):
        return np.array([v.payload for v in values],
                        dtype=dense_dtype(d)).reshape(-1, b, b)
    if d.kind == "quaternion":
        return _payloads(values)[:, _QIDX] * _QSIGN
    return np.array([value_dense(v) for v in values]).reshape(-1, b, b)


def _payloads(values) -> np.ndarray:
    """(N, 4) coordinates of a list of quaternions."""
    return np.array([v.payload for v in values], dtype=float).reshape(-1, 4)


def quaternion_complex(values) -> np.ndarray:
    """(N, 2, 2) stack of a + bi + cj + ek as [[a + bi, c + ei],
    [-c + ei, a - bi]]: another faithful *-representation of H, so norms
    taken on it equal those on value_dense, on arrays of half the side."""
    p = _payloads(values)
    re = np.stack([p[:, 0], p[:, 2], -p[:, 2], p[:, 0]], axis=1)
    im = np.stack([p[:, 1], p[:, 3], p[:, 3], -p[:, 1]], axis=1)
    return _complex(re, im).reshape(-1, 2, 2)


def readout_array(d: RingDescriptor, values) -> np.ndarray:
    """(N, b, r) stack of value_dense(v)[:, readout_columns(d)]."""
    return dense_array(d, values)[:, :, readout_columns(d)]


def central_rows(d: RingDescriptor, values) -> np.ndarray:
    """A table of central values as row scalars: the dense form of a
    central value is diagonal, so multiplying by it on the left scales row
    i by rows[i].  values is a list of lists; the result is (n, m, b).
    Raises NotCentral unless every value is exactly central: its dense
    form is diagonal and constant over each ring factor."""
    n, m = len(values), len(values[0])
    flat = [v for row in values for v in row]
    if d.kind in ("complex", "real"):
        return np.array([v.payload for v in flat],
                        dtype=dense_dtype(d)).reshape(n, m, 1)
    full = dense_array(d, flat)
    diag = np.diagonal(full, axis1=1, axis2=2)
    if np.count_nonzero(full) != np.count_nonzero(diag) or any(
            (diag[:, o:o + b] != diag[:, o:o + 1]).any()
            for o, b in _factor_spans(d)):
        raise NotCentral("cocycle values are not central")
    return diag.reshape(n, m, dense_size(d))


def _factor_spans(d: RingDescriptor, o: int = 0) -> list:
    """(offset, side) of each non-product factor's block in value_dense."""
    if d.kind != "product":
        return [(o, dense_size(d))]
    out = []
    for f in d.factors:
        out.extend(_factor_spans(f, o))
        o += dense_size(f)
    return out


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
    o = c = 0
    for f in d.factors:
        b, r = dense_size(f), len(readout_columns(f))
        out[..., o:o + b, c:c + r] = star_readout(f, y[..., o:o + b, c:c + r])
        o, c = o + b, c + r
    return out


# -- exact elementwise arithmetic ------------------------------------------

def _cmul(x, y):
    """x * y elementwise, rounded as Python's complex product (numpy's
    own complex multiply may fuse operations and round differently)."""
    if not np.iscomplexobj(x) and not np.iscomplexobj(y):
        return x * y
    xr, xi, yr, yi = x.real, x.imag, y.real, y.imag
    return _complex(xr * yr - xi * yi, xr * yi + xi * yr)


def _matmul(a, b):
    """a @ b for a (..., i, j) and b (j, k); complex products as four real
    ones, so a product with one nonzero term rounds as Python's complex
    product (complex BLAS gemm may round it differently).  numpy's own
    loops (einsum), not BLAS: the first real gemm call of a process adds
    about 0.26 MB of resident library code."""
    if not np.iscomplexobj(a) and not np.iscomplexobj(b):
        return np.einsum("...ij,jk->...ik", a, b)
    return _complex(_matmul(a.real, b.real) - _matmul(a.imag, b.imag),
                    _matmul(a.real, b.imag) + _matmul(a.imag, b.real))


def _complex(re, im):
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _scale_rows(rows, y):
    """Left multiplication of dense forms or readouts y (..., D, r) by
    central ring values given as row scalars rows (..., b)."""
    b = rows.shape[-1]
    shape = y.shape
    y = y.reshape(shape[:-2] + (shape[-2] // b, b, shape[-1]))
    return _cmul(rows[..., None, :, None], y).reshape(shape)


def _max_abs(y) -> float:
    """Max |entry|, with Python's abs (hypot) for complex entries."""
    if y.size == 0:
        return 0.0
    if np.iscomplexobj(y):
        return float(np.hypot(y.real, y.imag).max())
    return float(np.abs(y).max())


def _diagonal(blocks):
    """(N, k, s, w) blocks to (N, k s, k w) block diagonal arrays."""
    n, k, s, w = blocks.shape
    out = np.zeros((n, k, s, k, w), dtype=blocks.dtype)
    idx = np.arange(k)
    out[:, idx, :, idx, :] = blocks.transpose(1, 0, 2, 3)
    return out.reshape(n, k * s, k * w)


# -- algebra models --------------------------------------------------------

class DenseForm:
    """A model's dense *-representation on (size, size) arrays.

    dense(elems) stacks the dense forms of a list of elements;
    readout(elems) stacks only the cols columns that hold their slots, as
    (N, size, cols), so the max |entry| of a readout difference is the
    model's diff; star(y) maps readouts of elements to readouts of their
    stars with the same arithmetic as the model's star.  Row i belongs to
    row i % b of the coefficient ring's dense form (b = dense_size), so a
    central ring value acts by scaling rows.
    """

    def __init__(self, size: int, cols: int, dense, readout, star):
        self.size, self.cols = size, cols
        self.dense, self.readout, self.star = dense, readout, star


def model_form(model) -> DenseForm:
    """The dense form of one of the algebra models of twistalg.isolab."""
    for cls, build in _FORMS:
        if isinstance(model, cls):
            return build(model)
    raise TypeError(f"no dense form for {type(model).__name__}")


def _ring_form(model: RingModel) -> DenseForm:
    d = model.base
    return DenseForm(dense_size(d), len(readout_columns(d)),
                     lambda elems: dense_array(d, elems),
                     lambda elems: readout_array(d, elems),
                     lambda y: star_readout(d, y))


def _twisted_form(model: TwistedModel) -> DenseForm:
    """The regular representation: block (t, u) is f(r, u) X_r with
    r = t u^{-1}, so block column 1 is the coefficient vector."""
    g, d = model.f.group, model.base
    n, b = g.order, dense_size(d)
    rows = central_rows(d, model.f.values)
    r = g.mul[:, g.inv]
    frows = rows[r, np.arange(n)]                   # f(r, u) by (t, u)
    tilde = rows[np.arange(n), g.inv].conj()        # f(t, t^{-1})^*

    def dense(elems):
        xd = dense_array(d, [c for x in elems for c in x.coeffs])
        blocks = _cmul(frows[..., None], xd.reshape(-1, n, b, b)[:, r])
        return blocks.transpose(0, 1, 3, 2, 4).reshape(-1, n * b, n * b)

    def readout(elems):
        y = readout_array(d, [c for x in elems for c in x.coeffs])
        return y.reshape(len(elems), n * b, y.shape[-1])

    def star(y):
        # (X^*)_t = tilde f(t) (X_{t^{-1}})^*, as alg_star
        blocks = y.reshape(len(y), n, b, y.shape[-1])[:, g.inv]
        return _cmul(tilde[:, :, None],
                     star_readout(d, blocks)).reshape(y.shape)

    return DenseForm(n * b, len(readout_columns(d)), dense, readout, star)


def _matrix_form(model: MatrixModel) -> DenseForm:
    inner, k = model_form(model.inner), model.k
    m, c = inner.size, inner.cols

    def blocks(fn, elems):
        # entry (i, j) of each element becomes block (i, j)
        y = fn([e for a in elems for row in a for e in row])
        y = y.reshape(len(elems), k, k, m, y.shape[-1])
        return y.transpose(0, 1, 3, 2, 4).reshape(
            len(elems), k * m, k * y.shape[-1])

    def star(y):
        # entry (i, j) of a^* is the star of entry (j, i)
        swapped = y.reshape(len(y), k, m, k, c).transpose(0, 3, 1, 2, 4)
        st = inner.star(swapped.reshape(-1, m, c))
        return st.reshape(len(y), k, k, m, c).transpose(
            0, 1, 3, 2, 4).reshape(y.shape)

    return DenseForm(k * m, k * c, lambda elems: blocks(inner.dense, elems),
                     lambda elems: blocks(inner.readout, elems), star)


def _direct_sum_form(model: DirectSumModel) -> DenseForm:
    """Block diagonal.  A summand repeated in a row, as in
    DirectSumModel(*[e] * n), is one run: its form is called once for all
    of the run's blocks."""
    runs = []
    for mod in model.models:
        if runs and runs[-1][0] is mod:
            runs[-1][2] += 1
        else:
            runs.append([mod, model_form(mod), 1])
    size = sum(fm.size * k for _, fm, k in runs)
    cols = sum(fm.cols * k for _, fm, k in runs)
    dtype = dense_dtype(model.base)

    def block_diag(elems, square):
        n = len(elems)
        out = np.zeros((n, size, size if square else cols), dtype=dtype)
        o = c = i = 0
        for _, fm, k in runs:
            fn = fm.dense if square else fm.readout
            y = fn([e[j] for e in elems for j in range(i, i + k)])
            w = y.shape[-1]
            out[:, o:o + k * fm.size, c:c + k * w] = _diagonal(
                y.reshape(n, k, fm.size, w))
            o, c, i = o + k * fm.size, c + k * w, i + k
        return out

    def star(y):
        out = np.zeros_like(y)
        n, o, c = len(y), 0, 0
        for _, fm, k in runs:
            s, w = fm.size, fm.cols
            sub = y[:, o:o + k * s, c:c + k * w].reshape(n, k, s, k, w)
            idx = np.arange(k)
            diag = sub[:, idx, :, idx, :].transpose(1, 0, 2, 3)
            st = fm.star(diag.reshape(n * k, s, w))
            out[:, o:o + k * s, c:c + k * w] = _diagonal(
                st.reshape(n, k, s, w))
            o, c = o + k * s, c + k * w
        return out

    return DenseForm(size, cols, lambda elems: block_diag(elems, True),
                     lambda elems: block_diag(elems, False), star)


def _complexified_form(model: ComplexifiedModel) -> DenseForm:
    """a + ib as [[A, -B], [B, A]], i.e. A (x) 1 + B (x) J."""
    inner = model_form(model.inner)
    m = inner.size

    def halves(fn, elems):
        y = fn([a[0] for a in elems] + [a[1] for a in elems])
        return y[:len(elems)], y[len(elems):]

    def dense(elems):
        a, b = halves(inner.dense, elems)
        return np.block([[a, -b], [b, a]])

    def star(y):
        st = inner.star(np.concatenate([y[:, :m], y[:, m:]]))
        return np.concatenate([st[:len(y)], -st[len(y):]], axis=1)

    return DenseForm(2 * m, inner.cols, dense,
                     lambda elems: np.concatenate(
                         halves(inner.readout, elems), axis=1),
                     star)


def _quaternion_tensor_form(model: QuaternionTensorModel) -> DenseForm:
    """sum_p L(e_p) (x) X_p, where L(e_p)[r, q] = sign for
    _QMUL[p][q] = (r, sign) is left multiplication by the unit e_p."""
    inner = model_form(model.inner)
    m = inner.size

    def parts(fn, elems):
        y = fn([x for a in elems for x in a])
        return y.reshape(len(elems), 4, m, y.shape[-1])

    def dense(elems):
        x = parts(inner.dense, elems)
        out = np.zeros((len(elems), 4 * m, 4 * m), dtype=x.dtype)
        for p in range(4):
            for q in range(4):
                r, sign = _QMUL[p][q]
                out[:, r * m:(r + 1) * m, q * m:(q + 1) * m] = \
                    x[:, p] if sign > 0 else -x[:, p]
        return out

    def star(y):
        st = inner.star(y.reshape(-1, m, y.shape[-1]))
        st = st.reshape(len(y), 4, m, y.shape[-1])
        return np.concatenate([st[:, :1], -st[:, 1:]],
                              axis=1).reshape(y.shape)

    return DenseForm(4 * m, inner.cols, dense,
                     lambda elems: parts(inner.readout, elems).reshape(
                         len(elems), 4 * m, inner.cols),
                     star)


_FORMS = ((RingModel, _ring_form), (TwistedModel, _twisted_form),
          (MatrixModel, _matrix_form), (DirectSumModel, _direct_sum_form),
          (ComplexifiedModel, _complexified_form),
          (QuaternionTensorModel, _quaternion_tensor_form))


# -- the morphism check ----------------------------------------------------

def dense_residuals(m):
    """isolab.object_residuals of a Morphism, on the target's dense form.

    Each product image_s image_t is computed only on the columns that
    hold its slots, for a block of rows s at a time against all t, and
    compared with f(s,t) image_{st}; cocycle values act as row scalars.
    Raises NotCentral, before any product, if a value of the source
    cocycle or of a twisted algebra in the target is not central.
    """
    f, g = m.source, m.source.group
    rows = central_rows(f.descriptor, f.values)         # (n, n, b)
    form = model_form(m.target)
    n, size, cols = g.order, form.size, form.cols
    y = form.readout(m.images)                          # (n, size, cols)
    unit_res = _max_abs(y[g.identity]
                        - form.readout([m.target.unit()])[0])
    # the readouts of every image side by side: (size, n cols)
    right = y.transpose(1, 0, 2).reshape(size, n * cols)
    mult_res = 0.0
    for blk in row_blocks(n, n * size * cols + size * size, BLOCK_ENTRIES):
        lhs = _matmul(form.dense(m.images[blk]), right)
        lhs = lhs.reshape(-1, size, n, cols).transpose(0, 2, 1, 3)
        rhs = _scale_rows(rows[blk], y[g.mul[blk]])
        mult_res = max(mult_res, _max_abs(lhs - rhs))
    tilde = rows[np.arange(n), g.inv].conj()            # f(t, t^{-1})^*
    star_res = _max_abs(form.star(y) - _scale_rows(tilde, y[g.inv]))
    return unit_res, mult_res, star_res
