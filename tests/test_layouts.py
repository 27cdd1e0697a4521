"""The layouts derived from the readout layer of twistalg.dense.

rings.real_basis and real_dim read the coordinates a value holds off
dense.readout_slots, centre.values and centre.blocks read a centre table
through its readouts, and z2z4_decompose is given as coefficient arrays.
Each is pinned here against values written out kind by kind.
"""
import numpy as np
import pytest

from twistalg import centre
from twistalg.dense import basis_readouts, value_blocks
from twistalg.isolab import z2z4_decompose
from twistalg.rings import (COMPLEX, QUATERNION, REAL, RingValue, laurent,
                            matrix_ring, product_ring, real_basis, real_dim)

M1, M2, M3R = matrix_ring(1), matrix_ring(2), matrix_ring(3, "real")
M1R, M2R = matrix_ring(1, "real"), matrix_ring(2, "real")
RINGS = {
    "C": COMPLEX, "R": REAL, "H": QUATERNION, "M1": M1, "M2": M2,
    "M1R": M1R, "M2R": M2R, "M3R": M3R,
    "CxM2": product_ring(COMPLEX, M2),
    "RxHxM2R": product_ring(REAL, QUATERNION, M2R),
    "(CxR)xH": product_ring(product_ring(COMPLEX, REAL), QUATERNION),
    "M1RxCx(HxM2)": product_ring(M1R, COMPLEX, product_ring(QUATERNION, M2)),
}


def expected_basis(d):
    """The real basis of d, kind by kind: 1 (and i over C) for scalars;
    the matrix units e_pq row by row, each followed by i e_pq over C; the
    units 1, i, j, k of H; over a product each factor's basis in turn, the
    other factors zero."""
    if d.kind == "complex":
        return [RingValue(d, 1 + 0j), RingValue(d, 1j)]
    if d.kind == "real":
        return [RingValue(d, 1.0)]
    if d.kind == "quaternion":
        return [RingValue(d, np.eye(4)[i]) for i in range(4)]
    if d.kind == "matrix":
        out = []
        for p in range(d.k):
            for q in range(d.k):
                e = np.zeros((d.k, d.k), dtype=float if d.is_real else complex)
                e[p, q] = 1
                out.append(RingValue(d, e))
                if not d.is_real:
                    out.append(RingValue(d, e * 1j))
        return out
    out = []
    for i, e in enumerate(d.factors):
        for b in expected_basis(e):
            comps = [RingValue.zero(x) for x in d.factors]
            comps[i] = b
            out.append(RingValue(d, tuple(comps)))
    return out


def payload_types(v):
    """The type of a value's payload, with dtype and shape of arrays, down
    through products."""
    p = v.payload
    if isinstance(p, tuple):
        return tuple(payload_types(x) for x in p)
    return type(p), getattr(p, "dtype", None), getattr(p, "shape", None)


@pytest.mark.parametrize("name", list(RINGS))
def test_real_basis_is_the_written_out_basis(name):
    d = RINGS[name]
    basis, want = real_basis(d), expected_basis(d)
    assert real_dim(d) == len(want)
    assert [repr(b) for b in basis] == [repr(b) for b in want]
    assert [payload_types(b) for b in basis] == [payload_types(b)
                                                 for b in want]
    # the readouts are built once per ring and shared, so read-only; the
    # values read off them own their payloads
    assert not basis_readouts(d).flags.writeable
    if isinstance(basis[0].payload, np.ndarray):
        basis[0].payload[...] = 7
        assert repr(real_basis(d)[0]) == repr(want[0])


def test_real_basis_literals():
    assert repr(real_basis(product_ring(COMPLEX, REAL))) == (
        "[RingValue(product(complex,real), (RingValue(complex, (1+0j)), "
        "RingValue(real, 0.0))), "
        "RingValue(product(complex,real), (RingValue(complex, 1j), "
        "RingValue(real, 0.0))), "
        "RingValue(product(complex,real), (RingValue(complex, 0j), "
        "RingValue(real, 1.0)))]")
    assert [real_dim(RINGS[k]) for k in RINGS] == [
        2, 1, 4, 2, 8, 1, 4, 9, 10, 9, 7, 1 + 2 + 4 + 8]


@pytest.mark.parametrize("d", [laurent(1), product_ring(COMPLEX, laurent(2))])
def test_laurent_rings_have_no_real_basis(d):
    for fn in (real_dim, real_basis):
        with pytest.raises(ValueError, match="no dense form for kind laurent"):
            fn(d)


def scalar_values(d, cols):
    """RingValue.scalar of each leaf of d on its centre column, rebuilt
    into values of d: cols an iterator over the columns, leaf by leaf."""
    if d.kind == "product":
        parts = [scalar_values(e, cols) for e in d.factors]
        return [RingValue(d, p) for p in zip(*parts)]
    return [RingValue.scalar(d, c) for c in next(cols)]


@pytest.mark.parametrize("name", list(RINGS))
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_centre_values_and_blocks_are_the_scalars(name, seed):
    d = RINGS[name]
    real = [e.is_real for e in centre.leaves(d)]
    rng = np.random.default_rng(seed)
    c = rng.uniform(-1, 1, (3, 3, len(real)))
    if not all(real):       # real leaves' columns have imaginary part 0
        c = c + 1j * rng.uniform(-1, 1, c.shape) * np.logical_not(real)
    c = centre.checked(3, d, c)
    want = scalar_values(d, iter(c.reshape(9, -1).T.tolist()))
    got = centre.values(d, c)
    assert len(got) == 3 and all(len(row) == 3 for row in got)
    got = [v for row in got for v in row]
    assert got == want
    assert [payload_types(v) for v in got] == [payload_types(v) for v in want]
    assert np.array_equal(centre.blocks(d, c), value_blocks(
        d, [want[i:i + 3] for i in range(0, 9, 3)]))


def test_z2z4_decompose_images_are_the_displayed_ones():
    # Z_(k,q) is V_(4k+q); the matrix part and phi_{j,k} of the docstring
    mats = {0: [[1, 0], [0, 1]], 6: [[1, 0], [0, -1]],
            4: [[0, 1], [1, 0]], 2: [[0, -1], [1, 0]]}
    images = z2z4_decompose().images
    assert len(images) == 8
    for t, image in enumerate(images):
        k, q = divmod(t, 4)
        mat = mats.get(t, [[0, 0], [0, 0]])
        assert [[v.payload for v in row] for row in image[0]] == mat
        phis = []
        for jj, kk in ((0, 0), (0, 1), (1, 0), (1, 1)):
            phi = {0: 1, 2: (-1) ** jj}.get(t, 0)
            if kk == k and q in (1, 3):
                phi = 1j ** jj * (1 if q == 1 else -1)
            phis.append(phi)
        assert [v.payload for v in image[1:]] == phis
        assert all(v.descriptor == COMPLEX for v in image[1:])
