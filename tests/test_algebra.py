import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalg import (COMPLEX, DEFAULT_TOL, KLEIN_C, QUATERNION, REAL,
                      AlgebraElement, Lambda, RingDescriptor, RingValue,
                      SchurFunction, alg_mul, alg_norm, alg_star,
                      center_check, coboundary, coefficient,
                      coefficient_positivity, embed_scalar, generator,
                      is_projection, klein_table, laurent, make_cyclic,
                      make_f_alpha, matrix_ring, product_ring,
                      projection_pair, regular_matrix, restrict_cocycle,
                      restrict_to_subgroup, trace_functional,
                      trivial_cocycle, unit)

from twistalg.norm import _cyclic_norm
from twistalg.dense import value_dense

from rmat import rmat_adjoint, rmat_mul, rmat_residual
from small_groups import S3

L1 = laurent(1)


def phase(theta):
    return RingValue.scalar(COMPLEX, np.exp(1j * theta))


def random_f(n, seed):
    rng = np.random.default_rng(seed)
    return make_f_alpha(n, [phase(t) for t in rng.uniform(0, 6.28, n - 1)])


def random_element(f, seed):
    rng = np.random.default_rng(seed)
    coeffs = [RingValue.scalar(COMPLEX, complex(a, b))
              for a, b in rng.normal(size=(f.group.order, 2))]
    return AlgebraElement(f, coeffs)


def brute_mul(x, y):
    # direct double loop over the defining formula
    f, g = x.cocycle, x.cocycle.group
    out = [RingValue.zero(f.descriptor) for _ in range(g.order)]
    for s in range(g.order):
        for u in range(g.order):
            t = g.op(s, u)
            out[t] = out[t] + f.values[s][u] * x.coeffs[s] * y.coeffs[u]
    return AlgebraElement(f, out)


def test_mul_matches_brute_force():
    f = random_f(5, seed=1)
    x, y = random_element(f, 2), random_element(f, 3)
    assert alg_mul(x, y).close(brute_mul(x, y))


def test_unit_and_generator_relations():
    f = random_f(4, seed=4)
    x = random_element(f, 5)
    one = unit(f)
    assert alg_mul(one, x).close(x)
    assert alg_mul(x, one).close(x)
    # V_s V_t = f(s,t) V_{st}
    g = f.group
    for s in range(4):
        for t in range(4):
            prod = alg_mul(generator(f, s), generator(f, t))
            want = generator(f, g.op(s, t)).scale_ring(f.values[s][t])
            assert prod.close(want)


def test_star_involution_and_antihomomorphism():
    f = random_f(6, seed=6)
    x, y = random_element(f, 7), random_element(f, 8)
    assert alg_star(alg_star(x)).close(x)
    assert alg_star(alg_mul(x, y)).close(alg_mul(alg_star(y), alg_star(x)))
    assert alg_star(x + y).close(alg_star(x) + alg_star(y))


def test_generator_star():
    # V_t^* = tilde f(t) V_{t^{-1}}
    f = random_f(5, seed=9)
    g = f.group
    for t in range(5):
        want = generator(f, g.inverse(t)).scale_ring(f.tilde(t))
        assert alg_star(generator(f, t)).close(want)
        # V_t is unitary
        assert alg_mul(alg_star(generator(f, t)), generator(f, t)).close(
            unit(f))


def test_associativity_random():
    f = random_f(5, seed=10)
    x, y, z = (random_element(f, s) for s in (11, 12, 13))
    assert alg_mul(alg_mul(x, y), z).close(alg_mul(x, alg_mul(y, z)))


def test_regular_matrix_is_star_homomorphism():
    f = random_f(4, seed=14)
    x, y = random_element(f, 15), random_element(f, 16)
    mx, my = regular_matrix(x), regular_matrix(y)
    assert rmat_residual(regular_matrix(alg_mul(x, y)).entries,
                         rmat_mul(mx.entries, my.entries)) <= DEFAULT_TOL
    assert rmat_residual(regular_matrix(alg_star(x)).entries,
                         rmat_adjoint(mx.entries)) <= DEFAULT_TOL


def test_coefficient_oracle():
    f = random_f(4, seed=17)
    x = random_element(f, 18)
    g = f.group
    for t in range(4):
        assert coefficient(x, t, g.identity).close(x.coeffs[t])
    # entry formula
    for s in range(4):
        for t in range(4):
            r = g.op(s, g.inverse(t))
            assert coefficient(x, s, t).close(f.values[r][t] * x.coeffs[r])


def test_cstar_identity():
    f = random_f(5, seed=19)
    x = random_element(f, 20)
    n1 = alg_norm(alg_mul(alg_star(x), x))
    assert n1 == pytest.approx(alg_norm(x) ** 2, rel=1e-9)


def test_norm_of_generator_and_scalars():
    f = random_f(4, seed=21)
    for t in range(4):
        assert alg_norm(generator(f, t)) == pytest.approx(1.0)
    assert alg_norm(unit(f).scale(3 - 4j)) == pytest.approx(5.0)


def test_quaternion_norm_matches_real_form():
    """alg_norm takes quaternions in their complex 2 x 2 form; the norm
    is that of the real 4 x 4 form value_dense (both are faithful)."""
    minus = RingValue.unit(QUATERNION).scale(-1)
    f = make_f_alpha(4, [minus, RingValue.unit(QUATERNION), minus],
                     QUATERNION)
    rng = np.random.default_rng(31)
    x = AlgebraElement(f, [RingValue.quaternion(c)
                           for c in rng.normal(size=(4, 4))])
    m = regular_matrix(x)
    real = np.block([[value_dense(e) for e in row] for row in m.entries])
    assert alg_norm(x) == pytest.approx(np.linalg.norm(real, 2), rel=1e-12)


def test_laurent_norm_is_sup_over_torus():
    # trivial cocycle on Z/1: the algebra is the ring itself
    f = trivial_cocycle(make_cyclic(1), L1)
    a = AlgebraElement(f, [RingValue.poly(L1, {(1,): 1, (0,): 2})])
    assert alg_norm(a, grid=64) == pytest.approx(3.0, abs=1e-12)


def random_ring_value(d, rng):
    """A ring element, neither central nor unitary in general."""
    if d.kind == "product":
        return RingValue.tuple_value(
            d, [random_ring_value(e, rng) for e in d.factors])
    if d.kind == "laurent":
        return RingValue.poly(d, {tuple(rng.integers(-2, 3, size=d.m)):
                                  complex(*rng.normal(size=2))
                                  for _ in range(rng.integers(1, 4))})
    if d.kind == "real":
        return RingValue.scalar(d, rng.normal())
    if d.kind == "complex":
        return RingValue.scalar(d, complex(*rng.normal(size=2)))
    if d.kind == "quaternion":
        return RingValue.quaternion(rng.normal(size=4))
    z = rng.normal(size=(2, 2))
    return RingValue.mat(d, z + 1j * rng.normal(size=(2, 2))
                         if d.field == "complex" else z)


def reference_norm(d, entries, grid):
    """The norm of a RegularMatrix's entries: one value_dense block per
    entry over finite rings, a scalar matrix of eval_at values per grid
    point over Laurent rings, the largest factor's over products."""
    if d.kind == "product":
        return max(reference_norm(e, [[v.payload[i] for v in row]
                                      for row in entries], grid)
                   for i, e in enumerate(d.factors))
    if d.kind == "laurent":
        z = np.exp(1j * (2 * np.pi * np.arange(grid) / grid))
        return max(np.linalg.norm(np.array(
            [[v.eval_at(tuple(z[list(k)])) for v in row] for row in entries]),
            2) for k in np.ndindex(*([grid] * d.m)))
    dense = np.block([[value_dense(v) for v in row] for row in entries])
    return float(np.linalg.norm(dense.astype(complex), 2))


@pytest.mark.parametrize("d", [
    COMPLEX, REAL, matrix_ring(2), matrix_ring(2, "real"), QUATERNION,
    product_ring(COMPLEX, matrix_ring(2)), product_ring(L1, COMPLEX), L1,
    laurent(2)], ids=str)
@pytest.mark.parametrize("g", [make_cyclic(5), S3], ids=["Z5", "S3"])
def test_norm_matches_regular_matrix_reference(d, g):
    """alg_norm against the norm of regular_matrix(x).entries, on random
    non-central tables of a non-abelian and an abelian group."""
    rng = np.random.default_rng(41)
    n, grid = g.order, 8
    f = SchurFunction(g, d, [[random_ring_value(d, rng) for _ in range(n)]
                             for _ in range(n)])
    x = AlgebraElement(f, [random_ring_value(d, rng) for _ in range(n)])
    want = reference_norm(d, regular_matrix(x).entries, grid)
    if d.kind in ("complex", "real", "laurent"):
        # no cocycle: the cyclic decomposition refuses the table on Z/5 too
        assert _cyclic_norm(f, x.coeffs, grid) is None
    if d.kind in ("complex", "real"):
        assert alg_norm(x, grid=grid) == want
    else:
        assert alg_norm(x, grid=grid) == pytest.approx(want, rel=1e-12)


def test_laurent_norm_memory_is_bounded():
    """The torus sample is taken a block of points at a time: sampling the
    table over the whole 64^2 grid at once would hold 16 MiB."""
    d = laurent(2)
    rng = np.random.default_rng(43)
    f = make_f_alpha(16, [RingValue.monomial(
        d, np.exp(2j * np.pi * rng.random()), rng.integers(-2, 3, size=2))
        for _ in range(15)], d)
    x = AlgebraElement(f, [random_ring_value(d, rng) for _ in range(16)])
    alg_norm(x, grid=2)                     # load dense and LAPACK first
    tracemalloc.start()
    try:
        alg_norm(x, grid=64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_coefficient_positivity():
    f = random_f(5, seed=22)
    x = random_element(f, 23)
    v = coefficient_positivity(x)
    want = sum(abs(complex(c.payload)) ** 2 for c in x.coeffs)
    assert complex(v.payload) == pytest.approx(want)


def test_embed_scalar_central():
    f = random_f(4, seed=24)
    x = embed_scalar(f, phase(0.7))
    for t in range(4):
        vt = generator(f, t)
        assert alg_mul(x, vt).close(alg_mul(vt, x))
    M2 = matrix_ring(2)
    fm = trivial_cocycle(make_cyclic(2), M2)
    with pytest.raises(ValueError):
        embed_scalar(fm, RingValue.mat(M2, [[0, 1], [1, 0]]))


def test_projection_pair():
    one = RingValue.unit(COMPLEX)
    f = klein_table(one, one, one, one)
    p, q = projection_pair(f, KLEIN_C, one)
    assert is_projection(p) and is_projection(q)
    assert (p + q).close(unit(f))
    assert alg_mul(p, q).is_zero()
    # wrong alpha violates alpha^2 = tilde f(t)
    with pytest.raises(ValueError):
        projection_pair(f, KLEIN_C, phase(0.3))


def test_projection_pair_needs_order_two():
    f = random_f(4, seed=25)
    with pytest.raises(ValueError):
        projection_pair(f, 1, RingValue.unit(COMPLEX))


def test_center_check():
    f = trivial_cocycle(make_cyclic(3), COMPLEX)
    assert center_check(unit(f))
    x = generator(f, 1) + generator(f, 2)
    assert center_check(x)      # abelian group, trivial cocycle
    one = RingValue.unit(COMPLEX)
    fk = klein_table(one, one, one, -one)
    # V_a is not central when eps = -1
    from twistalg import KLEIN_A
    assert not center_check(generator(fk, KLEIN_A))
    assert center_check(unit(fk))


def test_trace_functional():
    f = random_f(4, seed=26)
    x, y = random_element(f, 27), random_element(f, 28)
    assert trace_functional(alg_mul(x, y)).close(
        trace_functional(alg_mul(y, x)))
    assert trace_functional(unit(f)).close(RingValue.unit(COMPLEX))


def test_restrict_cocycle():
    f = random_f(6, seed=29)
    sub, pos = restrict_cocycle(f, [0, 2, 4])
    assert sub.group.order == 3
    assert sub.validate().ok
    assert sub.values[pos[2]][pos[4]].close(f.values[2][4])
    with pytest.raises(ValueError):
        restrict_cocycle(f, [0, 2, 3])      # not closed
    with pytest.raises(ValueError):
        restrict_cocycle(f, [2, 4])         # no identity


def test_restrict_to_subgroup():
    f = random_f(6, seed=30)
    x = AlgebraElement.from_dict(f, {0: phase(0.1), 2: phase(0.2)})
    y = restrict_to_subgroup(x, [0, 2, 4])
    assert y.coeffs[0].close(phase(0.1))
    bad = AlgebraElement.from_dict(f, {1: phase(0.5)})
    with pytest.raises(ValueError):
        restrict_to_subgroup(bad, [0, 2, 4])


def test_from_dict_checks_descriptors_and_indices():
    f = random_f(3, seed=32)
    # a real value in a complex algebra is refused, as by __init__: it
    # would multiply as a real number
    with pytest.raises(ValueError, match="descriptor mismatch"):
        AlgebraElement.from_dict(f, {1: RingValue.scalar(REAL, 2.0)})
    for t in (-1, 3):
        with pytest.raises(ValueError, match="outside 0..2"):
            AlgebraElement.from_dict(f, {t: phase(0.1)})
    x = AlgebraElement.from_dict(f, {2: phase(0.1)})
    assert [c.payload for c in x.coeffs] == [0j, 0j, phase(0.1).payload]


def test_restriction_is_algebra_homomorphism():
    f = random_f(6, seed=31)
    elems = [0, 3]
    x = AlgebraElement.from_dict(f, {0: phase(0.3), 3: phase(1.1)})
    y = AlgebraElement.from_dict(f, {3: phase(-0.4)})
    rx = restrict_to_subgroup(x, elems)
    # rebase onto one cocycle object; each restriction builds its own
    ry = AlgebraElement(rx.cocycle, restrict_to_subgroup(y, elems).coeffs)

    def same_coeffs(a, b):
        # the restrictions live over distinct (equal) cocycle objects
        return all(p.close(q) for p, q in zip(a.coeffs, b.coeffs))

    assert same_coeffs(restrict_to_subgroup(alg_mul(x, y), elems),
                       alg_mul(rx, ry))
    assert same_coeffs(restrict_to_subgroup(alg_star(x), elems), alg_star(rx))


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.data())
def test_algebra_axioms_random(n, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10 ** 6)))
    f = make_f_alpha(n, [phase(t) for t in rng.uniform(0, 6.28, n - 1)])
    x, y = random_element(f, rng.integers(10 ** 6)), \
        random_element(f, rng.integers(10 ** 6))
    assert alg_star(alg_mul(x, y)).close(alg_mul(alg_star(y), alg_star(x)))
    assert alg_mul(x, y + y).close(alg_mul(x, y) + alg_mul(x, y))


def test_coefficient_descriptor_mismatch():
    f = random_f(2, seed=30)
    with pytest.raises(ValueError, match="coefficient descriptor mismatch"):
        AlgebraElement(f, [RingValue.unit(COMPLEX), RingValue.unit(REAL)])
    # an equal descriptor that is another object is accepted
    other = RingDescriptor("complex")
    assert other is not COMPLEX
    x = AlgebraElement(f, [RingValue.unit(other), RingValue.zero(other)])
    assert x.close(unit(f))


# -- small public helpers ----------------------------------------------------

def test_repr_names_the_nonzero_coefficients_and_copy_is_equal():
    f = make_f_alpha(3, [phase(0.5), phase(1.0)])
    x = AlgebraElement(f, [RingValue.scalar(COMPLEX, 2),
                           RingValue.zero(COMPLEX),
                           RingValue.scalar(COMPLEX, 1j)])
    assert repr(x) == "AlgebraElement(0: (2+0j), 2: 1j)"
    y = x.copy()
    assert y is not x and y.cocycle is f and y.coeffs is not x.coeffs
    assert [c.payload for c in y.coeffs] == [c.payload for c in x.coeffs]


def test_center_check_refuses_a_non_central_coefficient():
    d = matrix_ring(2)
    f = trivial_cocycle(make_cyclic(2), d)
    central = AlgebraElement.from_dict(f, {1: RingValue.unit(d).scale(2)})
    assert center_check(central)
    x = AlgebraElement.from_dict(f, {1: RingValue.mat(d, [[0, 1], [0, 0]])})
    assert not center_check(x)
