"""Tables held on the centre of E.

Every cocycle value is central.  The centre of a finite product of C, R,
M_k(C), M_k(R) and H has one factor per ring factor, a copy of C or of R
(R for R, M_k(R) and H), and its values are the c 1.  So a table of such
values is one (n, n) scalar array per centre factor: the (n, n, F) array
SchurFunction._centre.  This module reads tables into that form and
rebuilds their values and dense forms from it.  It is imported on first
use, so importing twistalg does not compile it.
"""
from __future__ import annotations

import numpy as np

from .rings import REAL, RingDescriptor, RingValue
from .serialize import parse_scalar


def leaves(d: RingDescriptor):
    """d's factors that are no products, one per centre factor; None if
    one is a Laurent ring."""
    if d.kind != "product":
        return None if d.kind == "laurent" else [d]
    parts = [leaves(e) for e in d.factors]
    return None if None in parts else [e for part in parts for e in part]


def checked(n: int, d: RingDescriptor, centre: np.ndarray) -> np.ndarray:
    """centre, (n, n) or (n, n, F), as the centre of a table of ring d."""
    centre = centre[..., None] if centre.ndim == 2 else centre
    if centre.shape[:2] != (n, n):
        raise ValueError("value table shape mismatch")
    real = [e.is_real for e in leaves(d) or ()]
    mixed = any(real) and not all(real)     # R factors in a complex array
    if (not real or centre.shape[2:] != (len(real),)
            or centre.dtype != (float if all(real) else complex)
            or mixed and centre[..., real].imag.any()):
        raise ValueError("value descriptor mismatch")
    return centre


def read_table(d: RingDescriptor, table):
    """The centre of a table of config literals, read a row at a time with
    no RingValue made: parse_value's values.  Over C and R every table that
    parses has one.  Else None where a literal is malformed (or a matrix or
    quaternion not a list) or a value is not c 1 exactly with c finite (so
    off-diagonal entries and imaginary parts 0, each diagonal constant bit
    for bit); parse_value then raises at the first bad entry."""
    real = [e.is_real for e in leaves(d) or ()]
    if not real:
        return None
    n = len(table)
    out = np.empty((len(real), n, n), dtype=float if all(real) else complex)
    try:
        for i, row in enumerate(table):
            cols = _row(d, row)
            if cols is None:
                return None
            for k, c in enumerate(cols):
                out[k, i] = c
    except (TypeError, ValueError, OverflowError):
        return None
    finite = d.kind in ("complex", "real") or np.isfinite(out).all()
    return out.transpose(1, 2, 0) if finite else None


def _row(d: RingDescriptor, row):
    """A row's centre scalars, one array per centre factor, or None."""
    if d.kind in ("complex", "real"):
        return [_scalars(d.kind == "real", row)]
    n = len(row)        # each literal a list of k: factors, coordinates, rows
    k = {"product": len(d.factors), "quaternion": 4}.get(d.kind, d.k)
    if not all(type(v) is list and len(v) == k for v in row):
        return None
    if d.kind == "product":
        out = [_row(e, [v[j] for v in row]) for j, e in enumerate(d.factors)]
        return None if None in out else [c for part in out for c in part]
    if d.kind == "quaternion":
        p = np.fromiter(map(float, (x for v in row for x in v)), float, 4 * n)
        p = p.reshape(n, 4)
        return None if p[:, 1:].any() else [p[:, 0]]
    if not all(type(r) is list and len(r) == k for v in row for r in v):
        return None
    m = _scalars(d.field == "real", [x for v in row for r in v for x in r])
    m, i = m.reshape(n, k, k), np.arange(k)
    diag = np.ascontiguousarray(m[:, i, i])
    m[:, i, i] = 0
    bits = diag.view(np.uint64).reshape(n, k, -1)
    return None if m.any() or (bits != bits[:, :1]).any() else [diag[:, 0]]


def _scalars(real: bool, literals) -> np.ndarray:
    """parse_value's scalars of C or (real) R, strings in one pass: joined
    by line breaks, spaces dropped, i read as j, split and read by complex()
    as parse_scalar first tries.  A non-string, a line break or a literal
    complex() refuses, or over R an imaginary part, sends them to one at a
    time, which raises at the first bad one."""
    try:
        pieces = ("\n".join(literals).replace(" ", "").replace("i", "j")
                  .split("\n"))
        vals = (np.fromiter(map(complex, pieces), complex, len(literals))
                if len(pieces) == len(literals) else None)
    except (TypeError, ValueError):
        vals = None
    if vals is None or (real and vals.imag.any()):
        vals = np.array([_scalar(real, e) for e in literals], dtype=complex)
    return vals.real if real else vals


def _scalar(real: bool, literal) -> complex:
    c = parse_scalar(literal)
    if c.imag and real:
        RingValue.scalar(REAL, c)       # refuses a complex scalar
    return c


def values(d: RingDescriptor, centre: np.ndarray) -> tuple:
    """The rows of RingValues of a table of ring d held by centre."""
    from .dense import from_readout
    y, m = readouts(d, centre), centre.shape[1]
    flat = from_readout(d, y.reshape((-1,) + y.shape[2:]))
    return tuple(tuple(flat[i:i + m]) for i in range(0, len(flat), m))


def blocks(d: RingDescriptor, centre: np.ndarray) -> np.ndarray:
    """dense.value_blocks of a table of ring d held by centre."""
    from .dense import readout_dense
    return readout_dense(d, readouts(d, centre))


def readouts(d: RingDescriptor, centre: np.ndarray) -> np.ndarray:
    """The readouts (n, m, b, r) of the values c 1 of a table of ring d
    held by centre: each leaf's c on its readout's diagonal; the centre
    itself, in place, where they are 1 x 1."""
    from .dense import dense_dtype, dense_size, readout_columns
    if dense_size(d) == 1:
        return centre[..., None]
    shape = centre.shape[:2] + (dense_size(d), len(readout_columns(d)))
    out = np.zeros(shape, dtype=dense_dtype(d))
    o = c = 0
    for e, z in zip(leaves(d), np.moveaxis(centre, -1, 0)):
        i = np.arange(len(readout_columns(e)))
        out[..., o + i, c + i] = z[..., None]
        o, c = o + dense_size(e), c + len(i)
    return out
