"""The C*-norm of an element of S(f), for algebra.alg_norm: on a cyclic
group over C, R and Laurent rings through the paper's cyclic decomposition,
one FFT; otherwise the largest singular value of the regular representation
(dense.regular_dense); over Laurent rings at the points of a torus sample
(_torus_samples, which RingValue.norm takes too).  alg_norm imports this
module on first use, so importing twistalg does not compile it, and
numpy.fft loads only where the cyclic path runs.
"""
from __future__ import annotations

import numpy as np

from .cocycle import SchurFunction
from .groups import row_blocks


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
    from .dense import dense_array, quaternion_complex, regular_dense
    g, d, n = f.group, f.descriptor, f.group.order
    if d.kind == "laurent":
        # scalar samples of the values and of x, one block of points at a time
        xs = [v for row in f.values for v in row] + list(coeffs)
        blocks = _torus_samples(d, xs, np.ones(len(xs)),
                                np.zeros((len(xs) + 1, d.m), int), grid)
        forms = ((y[:, :n * n].reshape(-1, n, n, 1, 1),
                  y[:, n * n:, None, None]) for y in blocks)
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
    over Laurent rings it holds at each torus point z, where c_t = C_t
    z^{E_t} is a monomial and lambda = Lambda z^{E_n / n} one of its n-th
    roots (any root gives the same maximum over k): _torus_samples."""
    g, d, n = f.group, f.descriptor, f.group.order
    if d.kind not in ("complex", "real", "laurent") or (
            gen := _generator(g)) is None or f._arrays is None:
        return None
    e = [g.identity]
    for _ in range(n - 1):
        e.append(int(g.mul[e[-1], gen]))
    forms, exps = f._arrays[:2]
    coef = forms[..., 0, 0][np.ix_(e, e)].astype(complex)
    potentials = _rebuilt(coef, exps[np.ix_(e, e)])
    if potentials is None:
        return None
    c, ex = potentials
    chars = np.exp(1j * np.angle(c[-1:]) / n * np.arange(n))
    chars[1:] *= c[1:n].conj()            # Lambda^t C_t^{-1}, t < n
    from numpy.fft import fft          # its first use adds about 0.5 MB RSS
    if d.kind == "laurent":
        samples = _torus_samples(d, [coeffs[s] for s in e], chars, ex, grid)
    else:
        samples = [np.array([[coeffs[s].payload for s in e]],
                            dtype=complex) * chars]
    return max(float(np.abs(fft(y, axis=-1)).max()) for y in samples)


def _torus_samples(d, xs, chars, ex, grid: int):
    """Blocks of samples X_t lambda^t c_t^{-1} (points, n), t < n, at the
    grid^m torus points z_k = w^k, w = exp(2 pi i / grid), from the terms
    of the coefficients xs = X_t, chars = Lambda^t C_t^{-1} and the
    exponents ex = E_0 .. E_n of c_t: each term x z^e is the monomial
    x chars_t z^{e - E_t + t E_n / n}, read from a table of the
    (n grid)-th roots of unity, the j-th terms of all X_t in one pass.  A
    block of P points samples P * terms terms into (P, n) arrays, with P
    about BLOCK_ENTRIES / max(n, terms).  Unit characters (np.ones) and
    zero exponents give the samples of the values xs themselves."""
    from .dense import BLOCK_ENTRIES
    n = len(xs)
    big, terms = n * grid, [list(x.payload.items()) for x in xs]
    ex = ex % big
    slots = []              # the j-th terms of all X_t: columns, c, e
    for j in range(max(map(len, terms), default=0)):
        cols = np.array([t for t, tt in enumerate(terms) if len(tt) > j])
        e = np.array([[v % grid for v in terms[t][j][0]] for t in cols],
                     dtype=np.int64).reshape(len(cols), d.m)
        c = np.array([terms[t][j][1] for t in cols], dtype=complex)
        # a character 1 leaves c as it is: inf (1 + 0j) is inf + NaN i
        np.multiply(c, chars[cols], out=c, where=chars[cols] != 1)
        slots.append((cols, c, n * (e - ex[cols]) + cols[:, None] * ex[n]))
    w = np.exp(1j * (2 * np.pi * np.arange(big) / big))
    size = max(n, sum(len(t) for t in terms))
    for k in row_blocks(grid ** d.m, size, BLOCK_ENTRIES):
        z = np.stack(np.unravel_index(np.arange(k.start, k.stop),
                                      (grid,) * d.m), axis=-1)
        y = np.zeros((len(z), n), dtype=complex)
        for cols, c, e in slots:
            y[:, cols] += c * w[(z @ e.T) % big]
        yield y


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


@np.errstate(all="ignore")
def _rebuilt(coef, exps):
    """The potentials (c, ex) of the monomials coef z^exps, (n, n) and
    (n, n, m) at (e_s, e_t), if they are the cocycle c_{s+t} c_s^{-1}
    c_t^{-1} rebuilt from their column t = 1, else None: c = c_0 .. c_n
    (c_{t+n} = c_n c_t; each scaled to modulus 1) and ex their exponents,
    equal exactly, coefficients within n * _CYCLIC_EPS.  NaN fails."""
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
    ok = dev <= n * _CYCLIC_EPS and np.array_equal(
        exps, ex_st - ex[:n, None] - ex[:n])
    return (c, ex) if ok else None
