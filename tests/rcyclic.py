"""Reference classification, torus samples and cyclic norm, one RingValue
at a time: equivalent_cyclic as the loop of RingValue products it was, with
Lambda's checks value by value (RingValue.is_unitary); torus_sampler, the
samples of Laurent values on the grid^m torus as a table of the grid-th
roots of unity gives them (the reference for norm._torus_samples, which
RingValue.norm and the SVD norm take); and the cyclic-decomposition norm
as it was, over Laurent rings from torus samples of the table's generator
column f(e_t, gen) and a cumulative product of the characters at every
torus point.  The tests hold the array paths of twistalg.cocycle and
twistalg.norm against them."""
import numpy as np

from twistalg.groups import row_blocks
from twistalg.norm import _generator, _rebuilt
from twistalg.rings import DEFAULT_TOL, RingValue


def reference_equivalent_cyclic(alphas, betas, descriptor=None,
                                tol=DEFAULT_TOL):
    """The witness values lambda(0), ..., lambda(n - 1) between f_alpha and
    f_beta on Z/n, or None; raises as equivalent_cyclic raises."""
    alphas, betas = list(alphas), list(betas)
    if len(alphas) != len(betas):
        raise ValueError("parameter vectors must have equal length")
    n = len(alphas) + 1
    if descriptor is None:
        descriptor = alphas[0].descriptor if alphas else None
    if descriptor is None:
        raise ValueError("descriptor required")
    unit = RingValue.unit(descriptor)
    prod = unit
    for a, b in zip(alphas, betas):
        prod = prod * a * b.star()
    gamma = prod.nth_root(n, tol)
    if gamma is None:
        return None
    values = []
    corr = unit
    gp = unit
    for p in range(n):
        if p > 0:
            gp = gp * gamma
            if p > 1:
                corr = corr * alphas[p - 2].star() * betas[p - 2]
        values.append(gp * corr if p > 0 else unit)
    # Lambda's checks, in its order
    if not values[0].close(unit, tol):
        raise ValueError("lambda(1) must be 1")
    for i, v in enumerate(values):
        if v.descriptor != descriptor:
            raise ValueError("descriptor mismatch")
        if not v.is_unitary(tol):
            raise ValueError(f"lambda({i}) is not unitary")
        if not v.is_central(tol):
            raise ValueError(f"lambda({i}) is not central")
    return values


def torus_sampler(d, values, grid: int):
    """A function from a slice of flat (C order) indices k into the grid^m
    uniform torus sample to the (len(k), len(values)) samples of Laurent
    values of ring d at z_k = (w^{k_1}, ..., w^{k_m}), w = exp(2 pi i / grid).
    A term c z^e reads c w^{(k . e) mod grid} from a table of the roots of
    unity, and the j-th terms of all values add in one pass."""
    size = max((len(v.payload) for v in values), default=0)
    exps = np.zeros((size, len(values), d.m), dtype=np.int64)
    coef = np.zeros((size, len(values)), dtype=complex)
    for i, v in enumerate(values):
        for j, (e, c) in enumerate(v.payload.items()):
            exps[j, i], coef[j, i] = [x % grid for x in e], c
    w = np.exp(1j * (2 * np.pi * np.arange(grid) / grid))

    def sample(points: slice):
        k = np.stack(np.unravel_index(np.arange(points.start, points.stop),
                                      (grid,) * d.m), axis=-1)
        out = np.zeros((len(k), len(values)), dtype=complex)
        for e, c in zip(exps, coef):
            out += c * w[(k @ e.T) % grid]
        return out

    return sample


def reference_norm(v, grid: int) -> float:
    """RingValue.norm of a Laurent value as it was: the largest modulus of
    its samples at all grid^m torus points at once."""
    sample = torus_sampler(v.descriptor, [v], grid)
    return float(np.max(np.abs(sample(slice(0, grid ** v.descriptor.m)))))


def reference_svd_norm(f, coeffs, grid: int) -> float:
    """norm._svd_norm over a Laurent ring as it was: the table's values and
    the coefficients sampled apart, n^2 table samples a point, and the
    largest singular value of the regular representation at each point."""
    from twistalg.dense import BLOCK_ENTRIES, regular_dense
    g, d, n = f.group, f.descriptor, f.group.order
    f_at = torus_sampler(d, [v for row in f.values for v in row], grid)
    x_at = torus_sampler(d, coeffs, grid)
    return max(float(np.linalg.norm(regular_dense(
        g, f_at(k).reshape(-1, n, n, 1, 1), x_at(k)[..., None, None]),
        2, axis=(-2, -1)).max())
        for k in row_blocks(grid ** d.m, n * n, BLOCK_ENTRIES))


def _characters(a):
    """lambda^t c_t^{-1}, t < n, at each row of samples a (..., n - 1) of
    f(e_t, gen), 0 < t < n; each c_t scaled to modulus 1."""
    c = np.cumprod(np.concatenate(
        [np.ones(a.shape[:-1] + (1,)), a], axis=-1), axis=-1)  # c_1 .. c_n
    c /= np.abs(c)
    n = c.shape[-1]
    lam_t = np.exp(1j * np.angle(c[..., -1:]) / n * np.arange(n))
    lam_t[..., 1:] *= c[..., :-1].conj()
    return lam_t


def reference_cyclic_norm(f, coeffs, grid: int, block: int = 8192):
    """norm._cyclic_norm as it was: over C and R from the characters of the
    generator column, over a Laurent ring from torus samples of the
    RingValues f(e_t, gen) and of the coefficients; None where the cyclic
    path does not apply."""
    from numpy.fft import fft
    g, d, n = f.group, f.descriptor, f.group.order
    gen = _generator(g)
    if gen is None or f._arrays is None:
        return None
    e = [g.identity]
    for _ in range(n - 1):
        e.append(int(g.mul[e[-1], gen]))
    forms, exps = f._arrays[:2]
    coef = forms[..., 0, 0][np.ix_(e, e)].astype(complex)
    if _rebuilt(coef, exps[np.ix_(e, e)]) is None:
        return None
    if d.kind != "laurent":
        x = np.array([[coeffs[s].payload for s in e]], dtype=complex)
        return float(np.abs(fft(x * _characters(coef[None, 1:, 1 % n]),
                                axis=-1)).max())
    a_at = torus_sampler(d, [f.value(s, gen) for s in e[1:]], grid)
    x_at = torus_sampler(d, [coeffs[s] for s in e], grid)
    return max(float(np.abs(fft(x_at(k) * _characters(a_at(k)),
                                 axis=-1)).max())
               for k in row_blocks(grid ** d.m, n, block))
