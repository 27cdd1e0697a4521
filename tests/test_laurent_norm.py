"""The cyclic-decomposition norm over Laurent rings on the table's
coefficient and exponent arrays (norm._torus_samples) against the SVD of
the regular representation at each torus point (_svd_norm) and against
the path it replaced, torus samples of RingValues and characters at every
point (rcyclic.reference_cyclic_norm); over C and R, bit for bit the
characters that path took.  RingValue.norm and the SVD path's Laurent
branch, which sample through norm._torus_samples too, against the sampler
they took before (rcyclic.torus_sampler)."""
import tracemalloc

import numpy as np
import pytest

from rcyclic import reference_cyclic_norm, reference_norm, reference_svd_norm
from twistalg import (COMPLEX, REAL, AlgebraElement, Lambda, RingValue,
                      SchurFunction, alg_norm, coboundary, cocycle_mul,
                      direct_product, klein_table, laurent, make_cyclic,
                      make_f_alpha, make_subset_group)
from twistalg.norm import _cyclic_norm, _svd_norm

RINGS = [laurent(1), laurent(2), laurent(3), laurent(1, "real")]
GRID = {1: 16, 2: 8, 3: 4}
REL_SVD = 1e-12         # as tests/test_cyclic_norm.py
REL_REF = 1e-13         # measured: 6e-16


def unit_monomial(d, rng):
    return RingValue.monomial(d, np.exp(2j * np.pi * rng.random()),
                              rng.integers(-3, 4, size=d.m))


def coefficients(d, n, rng):
    """n coefficients of 0 to 3 terms each, exponents in -2..2."""
    return [RingValue.poly(d, {tuple(rng.integers(-2, 3, size=d.m)):
                               complex(*rng.normal(size=2))
                               for _ in range(rng.integers(0, 4))})
            for _ in range(n)]


def same_norms(f, rng, grid, rounds=3):
    for _ in range(rounds):
        x = coefficients(f.descriptor, f.group.order, rng)
        got = _cyclic_norm(f, x, grid)
        assert got is not None
        assert got == pytest.approx(_svd_norm(f, x, grid), rel=REL_SVD)
        assert got == pytest.approx(reference_cyclic_norm(f, x, grid),
                                    rel=REL_REF)
        assert alg_norm(AlgebraElement(f, x), grid=grid) == got


@pytest.mark.parametrize("d", RINGS, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 16])
def test_f_alpha_norms_match_svd_and_the_reference(d, n):
    rng = np.random.default_rng([n, d.m, d.is_real])
    f = make_f_alpha(n, [unit_monomial(d, rng) for _ in range(n - 1)], d)
    assert f._monomials is not None
    same_norms(f, rng, GRID[d.m])


@pytest.mark.parametrize("d", RINGS, ids=str)
def test_a_table_on_z2_x_z3_matches_svd_and_the_reference(d):
    """A list-held table on direct_product(Z/2, Z/3), cyclic with no named
    generator: a coboundary times a transported f_alpha."""
    rng = np.random.default_rng([6, d.m])
    g = direct_product(make_cyclic(2), make_cyclic(3))
    lam = Lambda(g, d, [RingValue.unit(d)]
                 + [unit_monomial(d, rng) for _ in range(5)])
    h = make_f_alpha(6, [unit_monomial(d, rng) for _ in range(5)], d)
    # Z/6 -> Z/2 x Z/3, k -> (k mod 2, k mod 3), index 3 (k mod 2) + k mod 3
    to = [3 * (k % 2) + k % 3 for k in range(6)]
    moved = [[None] * 6 for _ in range(6)]
    for s in range(6):
        for t in range(6):
            moved[to[s]][to[t]] = h.value(s, t)
    f = cocycle_mul(coboundary(lam), SchurFunction(g, d, moved))
    assert f.validate().ok and f._values is not None
    same_norms(f, rng, GRID[d.m])


def test_laurent_norm_reads_no_table_value(monkeypatch):
    d = laurent(2)
    rng = np.random.default_rng(9)
    f = make_f_alpha(16, [unit_monomial(d, rng) for _ in range(15)], d)
    x = coefficients(d, 16, rng)
    want = reference_cyclic_norm(f, x, 8)

    def refused(*args):
        raise AssertionError("a table value")

    monkeypatch.setattr(SchurFunction, "value", refused)
    monkeypatch.setattr(SchurFunction, "values", property(refused))
    assert _cyclic_norm(f, x, 8) == pytest.approx(want, rel=REL_REF)


def peak_of_norm(f, x, grid):
    """The norm and the peak traced memory of computing it."""
    _cyclic_norm(f, x, 2)                   # load numpy.fft first
    tracemalloc.start()
    try:
        return _cyclic_norm(f, x, grid), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_blocks_are_sized_by_the_sampled_terms():
    """A block of P points samples P * terms terms: with 36 terms on Z/16
    (the element of test_laurent_norm_memory_is_bounded) it holds half
    what blocks sized by n = 16 hold, about 0.4 MiB against 0.8."""
    d = laurent(2)
    rng = np.random.default_rng(43)
    f = make_f_alpha(16, [unit_monomial(d, rng) for _ in range(15)], d)
    x = coefficients(d, 16, rng)
    x = [RingValue.poly(d, {(k, -k): 1.0, (k, 1): 0.5j})
         if c.is_zero() else c for k, c in enumerate(x)]
    got, peak = peak_of_norm(f, x, 64)
    assert 32 <= sum(len(c.payload) for c in x) and peak < 1 << 19
    assert got == pytest.approx(reference_cyclic_norm(f, x, 64), rel=REL_REF)


def test_many_terms_on_a_small_group():
    """162 terms on Z/2 at grid 1024: the reference's and the SVD's norm,
    in bounded memory."""
    d = laurent(1)
    rng = np.random.default_rng(10)
    f = make_f_alpha(2, [unit_monomial(d, rng)], d)
    x = [RingValue.poly(d, {(k,): complex(*rng.normal(size=2))
                            for k in range(-40, 41)}) for _ in range(2)]
    got, peak = peak_of_norm(f, x, 1024)
    assert peak < 1 << 20
    assert got == pytest.approx(reference_cyclic_norm(f, x, 1024),
                                rel=REL_REF)
    assert got == pytest.approx(_svd_norm(f, x, 1024), rel=REL_SVD)


def test_zero_element_has_norm_zero():
    d = laurent(2)
    f = make_f_alpha(3, [unit_monomial(d, np.random.default_rng(1))
                         for _ in range(2)], d)
    assert _cyclic_norm(f, [RingValue.zero(d)] * 3, 8) == 0.0


@pytest.mark.parametrize("d", [COMPLEX, REAL], ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 16, 64])
def test_scalar_norms_are_the_reference_bit_for_bit(d, n):
    rng = np.random.default_rng(n)
    units = (np.exp(2j * np.pi * rng.random(n - 1)) if d is COMPLEX
             else rng.choice([-1.0, 1.0], size=n - 1))
    f = make_f_alpha(n, [RingValue.scalar(d, c) for c in units], d)
    for _ in range(3):
        x = [RingValue.scalar(d, complex(*rng.normal(size=2)) if d is
                              COMPLEX else rng.normal()) for _ in range(n)]
        assert _cyclic_norm(f, x, 8) == reference_cyclic_norm(f, x, 8)


# -- one torus sampler: RingValue.norm and the SVD path --------------------

def _values(d, rng):
    """Laurent values of 0 to 4 terms, and the same with an inf, -inf,
    complex inf or NaN coefficient."""
    out = [RingValue.zero(d)]
    for terms in range(1, 5):
        v = {tuple(rng.integers(-3, 4, size=d.m)): complex(*rng.normal(size=2))
             for _ in range(terms)}
        out.append(RingValue.poly(d, v))
        e = next(iter(v))
        for bad in (np.inf, -np.inf, complex(0, np.inf), np.nan):
            out.append(RingValue.poly(d, {**v, e: bad}))
    return out


@pytest.mark.parametrize("d, grid", [
    (laurent(1), 1), (laurent(1), 16), (laurent(1), 1024), (laurent(2), 8),
    (laurent(2), 64), (laurent(3), 16), (laurent(1, "real"), 16)], ids=str)
def test_ring_value_norm_is_the_reference_sampler_bit_for_bit(d, grid):
    """RingValue.norm samples through norm._torus_samples with unit
    characters; at 4096 points and 3 or more terms it takes more than one
    block."""
    rng = np.random.default_rng([grid, d.m, d.is_real])
    with np.errstate(invalid="ignore", over="ignore"):
        for v in _values(d, rng):
            want, got = reference_norm(v, grid), v.norm(grid)
            assert repr(got) == repr(want), v


def _non_cyclic_tables(d, rng):
    """Klein tables on Z/2 x Z/2 with unit monomial parameters, and
    coboundaries of unit monomials on Z/2 x Z/2, Z/2 x Z/4 and the subsets
    of {1, 2, 3}: none has an element of order n."""
    z2 = make_cyclic(2)

    def unit():
        c = rng.choice([-1.0, 1.0]) if d.is_real else np.exp(
            2j * np.pi * rng.random())
        return RingValue.monomial(d, c, rng.integers(-2, 3, size=d.m))
    one = RingValue.unit(d)
    yield klein_table(unit(), unit(), unit(), one if rng.random() < .5
                      else one.scale(-1))
    for g in (direct_product(z2, z2), direct_product(z2, make_cyclic(4)),
              make_subset_group({1, 2, 3})):
        yield coboundary(Lambda(g, d, [one] + [unit() for _ in
                                               range(g.order - 1)]))


@pytest.mark.parametrize("d", [laurent(1), laurent(2),
                               laurent(1, "real")], ids=str)
def test_non_cyclic_norms_match_the_reference_svd(d):
    """alg_norm takes _svd_norm on these groups, with the table's values
    and x's coefficients in one call to _torus_samples: equal to the two
    samplers' SVD up to the last bits, which the (N grid)-th roots of unity
    can move (N values sampled)."""
    rng = np.random.default_rng([5, d.m, d.is_real])
    grid = GRID[d.m]
    for f in _non_cyclic_tables(d, rng):
        assert _cyclic_norm(f, [RingValue.zero(d)] * f.group.order,
                            grid) is None
        for _ in range(3):
            x = coefficients(d, f.group.order, rng)
            assert alg_norm(AlgebraElement(f, x), grid=grid) == \
                pytest.approx(reference_svd_norm(f, x, grid), rel=REL_REF)
