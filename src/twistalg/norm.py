"""The C*-norm of an element of S(f), for algebra.alg_norm: on a cyclic
group over C, R and Laurent rings through the paper's cyclic decomposition,
one FFT; otherwise the largest singular value of the regular representation
(dense.regular_dense).  alg_norm imports this module on first use, so
importing twistalg does not compile it, and numpy.fft loads only where the
cyclic path runs.
"""
from __future__ import annotations

import numpy as np

from .cocycle import SchurFunction
from .groups import row_blocks
from .rings import torus_sampler


def norm(f, coeffs, grid: int) -> float:
    """algebra.alg_norm of coefficients coeffs (a list) in S(f), on the
    array forms the table keeps (f._arrays, f._dense): the largest factor's
    over products, each factor a Schur function of its own."""
    if f.descriptor.kind == "product":
        return max(norm(fi, [c.payload[i] for c in coeffs], grid)
                   for i, fi in enumerate(_factors(f)))
    out = _cyclic_norm(f, coeffs, grid)
    return _svd_norm(f, coeffs, grid) if out is None else out


def _factors(f) -> list:
    """The tables of a product table's factors: slices of its centre where
    it has one, else read off its values."""
    d, g, c = f.descriptor, f.group, f._centre
    if c is None:
        return [SchurFunction(g, e, [[v.payload[i] for v in row]
                                     for row in f.values])
                for i, e in enumerate(d.factors)]
    from .centre import leaves
    out, o = [], 0
    for e in d.factors:
        part, o = c[..., o:o + len(leaves(e))], o + len(leaves(e))
        out.append(SchurFunction(g, e, part.real if e.is_real else part))
    return out


def _svd_norm(f, coeffs, grid: int) -> float:
    """norm of one factor as the largest singular value of the regular
    representation, at each torus point over Laurent rings."""
    from .dense import (BLOCK_ENTRIES, dense_array, quaternion_complex,
                        regular_dense)
    g, d, n = f.group, f.descriptor, f.group.order
    if d.kind == "laurent":
        # scalar samples, one block of torus points at a time
        values = [v for row in f.values for v in row]
        f_at, x_at = (torus_sampler(d, v, grid) for v in (values, coeffs))
        forms = ((f_at(k).reshape(-1, n, n, 1, 1), x_at(k)[..., None, None])
                 for k in row_blocks(grid ** d.m, n * n, BLOCK_ENTRIES))
    else:
        forms = [(f._dense[0], dense_array(d, coeffs))]
        if d.kind == "quaternion":
            # quaternions as complex 2 x 2 forms, a quarter of the 4 x 4
            # entries, from their coordinates: column 0 of the 4 x 4 forms
            forms = [tuple(quaternion_complex(a[..., 0]) for a in forms[0])]
    # complex for every ring: a real SVD routine added 1.5-2.4 MB peak RSS
    mats = (regular_dense(g, tf, xf).astype(complex, copy=False)
            for tf, xf in forms)
    return max(float(np.linalg.norm(m, 2, axis=(-2, -1)).max()) for m in mats)


# The cyclic path takes a table within n * _CYCLIC_EPS, entry by entry, of
# the cocycle rebuilt from its generator column, n the group order.  Both
# are products of up to 2n rounded factors: make_f_alpha tables sat within
# 1.4 n eps (n = 3) to 0.06 n eps (n = 512) of it, eps = 2^-52.  Entries
# within delta give a regular matrix within delta sqrt(n) ||x|| in norm
# (the Frobenius norm of the difference; ||x|| is at least the l2 norm of
# the coefficients), so the two norms differ by at most 4 n^1.5 eps
# relative.  Up to n = 64 that is 4.6e-13 or less, under half a unit in
# the 12th printed digit (5e-13 relative at least), so a printed digit
# moves only for a norm that close to a rounding boundary; the measured
# deviations keep it under 1e-13 up to n = 256.
_CYCLIC_EPS = 4 * 2.0 ** -52


def _cyclic_norm(f, coeffs, grid: int):
    """norm of one factor through the cyclic decomposition, or None where
    it does not apply: a group that is not cyclic (_generator), a ring other
    than C, R and Laurent rings, a table with no array form (f._arrays: a
    Laurent table with a non-monomial entry) or one that is not the cocycle
    rebuilt from its generator column (_rebuilt).

    With e_t = gen^t, c_0 = c_1 = 1, c_{t+1} = c_t f(e_t, gen) for
    0 < t < n and lambda^n = c_n, the n maps V_{e_t} -> lambda^t c_t^{-1}
    omega^{kt}, omega = exp(2 pi i / n), are the characters of S(f) over C
    (isolab.cyclic_decompose): together a *-isomorphism onto C^n, so
    isometric, and ||x|| = max_k |sum_t X_{e_t} lambda^t c_t^{-1}
    omega^{kt}|, one FFT.  Over R it is the norm of the complexification;
    over Laurent rings it holds at each torus point, from samples of the
    n - 1 values f(e_t, gen) and the n coefficients only."""
    g, d, n = f.group, f.descriptor, f.group.order
    if d.kind not in ("complex", "real", "laurent") or (
            gen := _generator(g)) is None or f._arrays is None:
        return None
    e = [g.identity]
    for _ in range(n - 1):
        e.append(int(g.mul[e[-1], gen]))
    forms, exps = f._arrays[:2]
    coef = forms[..., 0, 0][np.ix_(e, e)].astype(complex)
    exps = exps[np.ix_(e, e)]
    if not _rebuilt(coef, exps):
        return None
    from numpy.fft import fft          # its first use adds about 0.5 MB RSS
    if d.kind == "laurent":
        from .dense import BLOCK_ENTRIES
        a_at = torus_sampler(d, [f.value(s, gen) for s in e[1:]], grid)
        x_at = torus_sampler(d, [coeffs[s] for s in e], grid)
        samples = ((a_at(k), x_at(k))
                   for k in row_blocks(grid ** d.m, n, BLOCK_ENTRIES))
    else:
        samples = [(coef[None, 1:, 1 % n], np.array(
            [[coeffs[s].payload for s in e]], dtype=complex))]
    return max(float(np.abs(fft(x * _characters(a), axis=-1)).max())
               for a, x in samples)


def _generator(g):
    """An element of order n = |g|, the one generator g names or the first
    whose powers x^k, 0 < k <= n/2, are no identity (an order below n
    divides n); None if g is not cyclic.  No sort: a first np.unique adds
    about 1.6 MB RSS."""
    gens, x = g.generators, np.arange(g.order)
    if len(gens) < 2:
        return gens[0] if gens else g.identity
    ok, power = x != g.identity, x
    for _ in range(g.order // 2 - 1):
        power = g.mul[power, x]
        ok &= power != g.identity
    return int(np.argmax(ok)) if ok.any() else None


def _characters(a) -> np.ndarray:
    """lambda^t c_t^{-1}, t < n, at each row of samples a (..., n - 1) of
    f(e_t, gen), 0 < t < n; each c_t scaled to modulus 1."""
    c = np.cumprod(np.concatenate(
        [np.ones(a.shape[:-1] + (1,)), a], axis=-1), axis=-1)  # c_1 .. c_n
    c /= np.abs(c)
    n = c.shape[-1]
    lam_t = np.exp(1j * np.angle(c[..., -1:]) / n * np.arange(n))
    lam_t[..., 1:] *= c[..., :-1].conj()
    return lam_t


@np.errstate(all="ignore")
def _rebuilt(coef, exps) -> bool:
    """Whether the monomials coef z^exps, (n, n) and (n, n, m) at (e_s, e_t),
    are the cocycle c_{s+t} c_s^{-1} c_t^{-1} rebuilt from their column
    t = 1 (c_{t+n} = c_n c_t; each c_t scaled to modulus 1): exponents
    exactly, coefficients within n * _CYCLIC_EPS.  NaN fails."""
    n, m = exps.shape[1:]
    c = np.cumprod(np.concatenate([[1, 1], coef[1:, 1 % n]]))   # c_0 .. c_n
    c /= np.abs(c)
    ex = np.concatenate([np.zeros((2, m), dtype=np.int64),
                         np.cumsum(exps[1:, 1 % n], axis=0)])  # of c_0 .. c_n
    st = np.add.outer(np.arange(n), np.arange(n))                # s + t
    c_st = np.concatenate([c[:n], c[n] * c[:n - 1]])[st]
    ex_st = np.concatenate([ex[:n], ex[n] + ex[:n - 1]])[st]
    inv = c[:n].conj()
    dev = np.abs(coef - c_st * inv[:, None] * inv).max()
    return bool(dev <= n * _CYCLIC_EPS and np.array_equal(
        exps, ex_st - ex[:n, None] - ex[:n]))
