"""Reference images of the maps built on readouts, one model operation at
a time: the breadth-first extension of generator images by object
products, split_odd's images by IsometryPair.conjugate, and the maps onto
copies of E (z2_split, klein_split4, char_decompose_z2n,
cyclic_decompose) one RingValue per image entry.  The tests hold the
readouts that isolab and clifford build in batches against them, and the
stacked verifier against the verifier that checks one summand at a
time."""
import cmath

import numpy as np

from twistalg import KLEIN_A, KLEIN_B, KLEIN_C, RingValue, generator
from twistalg.dense import (VERIFY_ENTRIES, _act, _matmul, _row_max,
                            dense_array, readout_array)
from twistalg.groups import row_blocks
from twistalg.isolab import _split, flat_rows
from twistalg.rings import real_basis, real_dim


def reference_extension(f, gen_images, target) -> list:
    """Each t first reached as r s, r in the frontier and s a generator in
    that order, with image f(r,s)^* (image_r image_s)."""
    g = f.group
    images = [None] * g.order
    images[g.identity] = target.unit()
    for t, im in gen_images.items():
        images[t] = im
    frontier = [t for t in range(g.order) if images[t] is not None]
    while frontier:
        new = []
        for r in frontier:
            for s in gen_images:
                t = g.op(r, s)
                if images[t] is None:
                    prod = target.mul(images[r], images[s])
                    images[t] = target.scale_left(f.values[r][s].star(), prod)
                    new.append(t)
        frontier = new
    return images


def reference_split_images(pair) -> list:
    """(theta_+^* R(V_t) theta_+, theta_-^* R(V_t) theta_-) for every t."""
    f2 = pair.source_f
    return [tuple(pair.conjugate(generator(f2, t), sign) for sign in (1, -1))
            for t in range(f2.group.order)]


def readouts(target, images) -> list:
    """One readout stack per run of target, as a Morphism holds them."""
    return [np.stack([mod.readout(ims) for ims in run])
            for mod, run in _split(target, images)]


# -- the constructors onto copies of E, one RingValue per image entry -------

def reference_z2_split(f, x) -> list:
    unit = RingValue.unit(f.descriptor)
    return [(unit, unit), (x, -x)]


def reference_klein_split4(x, y, z) -> list:
    images = [(RingValue.unit(x.descriptor),) * 4, None, None, None]
    images[KLEIN_A] = (x, x, -x, -x)
    images[KLEIN_B] = (y, -y, y, -y)
    images[KLEIN_C] = (z, -z, -z, z)
    return images


def reference_char_decompose(f) -> list:
    unit, n = RingValue.unit(f.descriptor), f.group.order
    return [tuple(unit if (t & s).bit_count() % 2 == 0 else -unit
                  for t in range(n)) for s in range(n)]


def reference_cyclic_decompose(f, alphas, beta) -> list:
    n, unit = f.group.order, RingValue.unit(f.descriptor)
    pref, acc, bpow = [], unit, unit
    for j in range(1, n + 1):
        bpow = bpow * beta
        pref.append(bpow * acc)
        if j <= n - 1:
            acc = acc * alphas[j - 1].star()
    images = [None] * n
    for j in range(1, n + 1):
        images[j % n] = tuple(
            pref[j - 1].scale(cmath.exp(2j * cmath.pi * j * k / n))
            for k in range(n))
    return images


# -- the verifier one summand at a time --------------------------------------

def reference_residuals(f, m, rows=None):
    """dense.dense_residuals with each run of summands split into its
    copies, each checked on its own readouts (n, size, cols)."""
    rows = np.arange(f.group.order) if rows is None else np.array(rows, int)
    blocks, tilde = f._dense
    basis = dense_array(f.descriptor, real_basis(f.descriptor))
    unit, res, star = zip(*(_one_summand(f.group, blocks, tilde, basis, rows,
                                         mod, z)
                            for mod, y in m._summands for z in y))
    return float(np.max(unit)), np.maximum.reduce(res), float(np.max(star))


def _one_summand(g, blocks, tilde, basis, rows, tgt, y):
    n, nb = g.order, len(basis)
    size, cols = y.shape[1:]
    one = tgt.readout([tgt.unit()])[0]
    unit_res = float(_row_max(y[[g.identity]] - one)[0])
    star = _row_max(tgt.star_readout(y) - _act(tilde, y[g.inv]))
    right = np.concatenate([y, _act(basis, one)]).transpose(1, 0, 2).reshape(
        size, (n + nb) * cols)
    out = np.empty((len(rows), 3))
    out[:, 2] = star[rows]
    for blk in row_blocks(len(rows), (n + nb) * size * cols + size * size,
                          VERIFY_ENTRIES):
        s = rows[blk]
        lhs = _matmul(tgt.dense(y[s]), right).reshape(-1, size, n + nb, cols)
        lhs[:, :, n:] -= _act(basis, y[s][:, None]).transpose(0, 2, 1, 3)
        out[blk, 1] = _row_max(lhs[:, :, n:])
        t = g.mul[g.inv[s]]
        prod = lhs[np.arange(len(s))[:, None], :, t]
        prod -= _act(blocks[s[:, None], t], y)
        out[blk, 0] = _row_max(prod)
    return unit_res, out, float(star.max(initial=0.0))


def reference_rank(m) -> int:
    """The real rank of the rows b image_t, summand by summand side by
    side; -1 if an image is not finite."""
    d = m.source.descriptor
    basis = dense_array(d, real_basis(d))
    rows = np.hstack([flat_rows(_act(basis, z[:, None]).reshape(
        (-1,) + z.shape[1:])) for _, y in m._summands for z in y])
    if not np.isfinite(rows).all():
        return -1
    # numpy's default threshold, for the real coordinates of the values
    values = sum(z[0].size for _, y in m._summands for z in y) // len(
        readout_array(d, [RingValue.unit(d)])[0].flat)
    sv = np.linalg.svd(rows, compute_uv=False)
    return int((sv > sv.max() * max(len(rows), values * real_dim(d))
                * np.finfo(float).eps).sum())
