"""Tables held on the centre of E.

Every cocycle value is central.  The centre of a finite product of C, R,
M_k(C), M_k(R) and H has one factor per ring factor, a copy of C or of R
(R for R, M_k(R) and H), and its values are the c 1.  So a table of such
values is one (n, n) scalar array per centre factor: the (n, n, F) array
SchurFunction._centre.  held takes it for a config's table whose readouts
are all c 1; values, blocks and readouts rebuild the table from it.  It
is imported on first use, so importing twistalg does not compile it.
"""
from __future__ import annotations

import numpy as np

from .rings import RingDescriptor


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


def held(d: RingDescriptor, rows, n: int):
    """SchurFunction's form of a table of ring d from its n rows' readouts
    (n, b, r): the centre over C and R and where every value is c 1, c
    finite (diagonals constant bit for bit, all else 0); else the rows."""
    from .dense import dense_dtype, dense_size, readout_columns
    t = np.dtype((dense_dtype(d), (n, dense_size(d), len(readout_columns(d)))))
    y = np.fromiter(rows, t, n)
    if d.kind in ("complex", "real"):
        return y[..., 0]
    r = [len(readout_columns(e)) for e in leaves(d)]    # diagonal lengths
    one = readouts(d, np.ones((1, 1, len(r)), y.dtype))[0, 0]
    diag = y[..., one != 0]                             # leaf by leaf
    centre = diag[..., np.cumsum([0] + r[:-1])]
    if (np.isfinite(centre).all()
            and np.count_nonzero(y) == np.count_nonzero(diag)  # all else 0
            and diag.tobytes() == np.repeat(centre, r, -1).tobytes()):
        return centre
    return _rows(d, y)


def values(d: RingDescriptor, centre: np.ndarray) -> tuple:
    """The rows of RingValues of a table of ring d held by centre."""
    return _rows(d, readouts(d, centre))


def _rows(d: RingDescriptor, y: np.ndarray) -> tuple:
    """The rows of RingValues of a table with readouts y (n, m, b, r)."""
    from .dense import from_readout
    flat, m = from_readout(d, y.reshape((-1,) + y.shape[2:])), y.shape[1]
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
    for k, e in enumerate(leaves(d)):
        i = np.arange(len(readout_columns(e)))
        out[..., o + i, c + i] = centre[..., k, None]
        o, c = o + dense_size(e), c + len(i)
    return out
