import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalg.dense import dense_array, readout_array, value_dense
from twistalg.isolab import flat_rows
from twistalg.rings import (COMPLEX, QUATERNION, REAL, RingValue, laurent,
                            matrix_ring, product_ring, real_basis, real_dim)

L1 = laurent(1)
L2 = laurent(2)
M2 = matrix_ring(2)


def sc(c, d=COMPLEX):
    return RingValue.scalar(d, c)


def test_scalar_arithmetic():
    a, b = sc(2 + 1j), sc(1 - 3j)
    assert (a * b).payload == (2 + 1j) * (1 - 3j)
    assert (a + b).payload == 3 - 2j
    assert (-a).payload == -2 - 1j
    assert a.star().payload == 2 - 1j


def test_real_ring_rejects_complex_scale():
    with pytest.raises(ValueError):
        RingValue.unit(REAL).scale(1j)
    with pytest.raises(ValueError):
        RingValue.scalar(REAL, 1j)


def test_laurent_convolution_oracle():
    # (1 + 2z)(3 + z^{-1}) = z^{-1} + 5 + 6z
    a = RingValue.poly(L1, {(0,): 1, (1,): 2})
    b = RingValue.poly(L1, {(0,): 3, (-1,): 1})
    p = (a * b).payload
    assert p == {(-1,): 1, (0,): 5, (1,): 6}


def test_laurent_star_is_pointwise_conjugation():
    a = RingValue.poly(L1, {(2,): 1 + 1j, (-1,): 3})
    theta = 1.234
    z = np.exp(1j * theta)
    assert a.star().eval_at((z,)) == pytest.approx(np.conj(a.eval_at((z,))))


def test_laurent_monomial_helpers():
    m = RingValue.monomial(L2, 2j, (1, -3))
    assert m.is_monomial() == (2j, (1, -3))
    assert RingValue.zero(L1).is_monomial() is None


@pytest.mark.parametrize("c", [float("nan"), float("inf"), complex(0, -np.inf)])
def test_non_finite_laurent_terms_are_kept(c):
    # NaN is no zero: a NaN term is kept, as an infinite one is
    for terms in ({(0,): c}, {(0,): 1, (1,): c}):
        v = RingValue.poly(L1, terms)
        assert len(v.payload) == len(terms) and not v.is_finite()
    assert RingValue.monomial(L1, c, (2,)).is_monomial(0.0)[1] == (2,)
    assert RingValue.poly(L1, {(0,): 1, (1,): c}).is_monomial(0.0) is None
    assert not RingValue.poly(L1, {(0,): c}).scale(2.0).is_finite()


def test_matrix_matches_numpy():
    a = RingValue.mat(M2, [[1, 2j], [0, 1]])
    b = RingValue.mat(M2, [[0, 1], [1, 0]])
    assert np.allclose((a * b).payload, a.payload @ b.payload)
    assert np.allclose(a.star().payload, a.payload.conj().T)


def test_quaternion_table():
    i = RingValue.quaternion([0, 1, 0, 0])
    j = RingValue.quaternion([0, 0, 1, 0])
    k = RingValue.quaternion([0, 0, 0, 1])
    assert np.allclose((i * j).payload, k.payload)
    assert np.allclose((j * i).payload, -k.payload)
    assert np.allclose((i * i).payload, [-1, 0, 0, 0])
    assert np.allclose(i.star().payload, [0, -1, 0, 0])


def test_quaternion_block_is_star_homomorphism():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = RingValue.quaternion(rng.normal(size=4))
        b = RingValue.quaternion(rng.normal(size=4))
        assert np.allclose(value_dense(a * b), value_dense(a) @ value_dense(b))
        assert np.allclose(value_dense(a.star()), value_dense(a).T)
        assert np.array_equal(value_dense(a)[:, 0], a.payload)


def test_product_ring_componentwise():
    d = product_ring(COMPLEX, REAL)
    a = RingValue.tuple_value(d, [sc(1j), sc(2.0, REAL)])
    b = RingValue.tuple_value(d, [sc(2), sc(-1.0, REAL)])
    p = a * b
    assert p.payload[0].payload == 2j
    assert p.payload[1].payload == -2.0


def test_product_dense_form_is_block_diagonal():
    """dense_array builds a product's forms one factor at a time: each
    value's is the block diagonal of its factors' forms, bit for bit."""
    d = product_ring(COMPLEX, product_ring(matrix_ring(2, "real"), QUATERNION))
    rng = np.random.default_rng(5)
    values = [RingValue.tuple_value(d, [
        sc(complex(*rng.normal(size=2))), RingValue.tuple_value(
            d.factors[1], [RingValue.mat(d.factors[1].factors[0],
                                         rng.normal(size=(2, 2))),
                           RingValue.quaternion(rng.normal(size=4))])])
        for _ in range(3)]
    stack = dense_array(d, values)
    assert stack.dtype == complex and stack.shape == (3, 7, 7)
    for v, form in zip(values, stack):
        want = np.zeros((7, 7), dtype=complex)
        want[0, 0] = v.payload[0].payload
        want[1:3, 1:3] = v.payload[1].payload[0].payload
        want[3:, 3:] = value_dense(v.payload[1].payload[1])
        assert np.array_equal(value_dense(v), want)
        assert np.array_equal(form, want)


def test_descriptor_mismatch():
    with pytest.raises(ValueError):
        sc(1) * sc(1.0, REAL)


def test_is_unitary_and_central():
    assert sc(np.exp(0.7j)).is_unitary()
    assert not sc(2).is_unitary()
    phase_id = RingValue.mat(M2, (np.exp(0.3j) * np.eye(2)))
    assert phase_id.is_unitary() and phase_id.is_central()
    swap = RingValue.mat(M2, [[0, 1], [1, 0]])
    assert swap.is_unitary() and not swap.is_central()
    q = RingValue.quaternion([0, 1, 0, 0])
    assert q.is_unitary() and not q.is_central()


def test_norms():
    assert sc(3 + 4j).norm() == pytest.approx(5.0)
    # sup over the torus of |z + 2| is 3
    a = RingValue.poly(L1, {(1,): 1, (0,): 2})
    assert a.norm(grid=64) == pytest.approx(3.0, abs=1e-12)
    # exponents past int64 are reduced mod the grid, not overflowed
    huge = RingValue.poly(L1, {(64 * 10 ** 30 + 1,): 1, (0,): 2})
    assert huge.norm(grid=64) == a.norm(grid=64)
    m = RingValue.mat(M2, [[3, 0], [0, 1]])
    assert m.norm() == pytest.approx(3.0)
    q = RingValue.quaternion([1, 1, 1, 1])
    assert q.norm() == pytest.approx(2.0)


def test_norm_over_a_product_is_the_largest_factors():
    d = product_ring(COMPLEX, M2, QUATERNION, L1)
    v = RingValue(d, (sc(3 + 4j), RingValue.mat(M2, [[0, 7], [0, 0]]),
                      RingValue.quaternion([1, 1, 1, 1]),
                      RingValue.poly(L1, {(1,): 1, (0,): 2})))
    assert [a.norm(16) for a in v.payload] == pytest.approx([5, 7, 2, 3])
    assert v.norm(16) == v.payload[1].norm(16)
    small = RingValue.mat(M2, [[0, 1], [0, 0]])
    v = RingValue(d, (v.payload[0], small) + v.payload[2:])
    assert v.norm(16) == v.payload[0].norm(16) == 5.0


@pytest.mark.parametrize("factor", [COMPLEX, REAL, M2, QUATERNION])
def test_abs_bound_of_a_product_keeps_a_nan_factor(factor):
    # NaN is no zero, in a later factor as in the first
    nan = RingValue.unit(factor).scale(float("nan"))
    for d, parts in [(product_ring(COMPLEX, factor), (sc(0), nan)),
                     (product_ring(factor, REAL), (nan, sc(0, REAL)))]:
        v = RingValue(d, parts)
        assert np.isnan(v.abs_bound())
        assert not v.is_zero(0.0) and not v.close(RingValue.zero(d), 1.0)


@pytest.mark.parametrize("factor", [COMPLEX, REAL, QUATERNION, L1], ids=str)
def test_norm_of_a_product_keeps_a_nan_factor(factor):
    # as abs_bound: a NaN in a later factor as in the first
    nan = RingValue.unit(factor).scale(float("nan"))
    for d, parts in [(product_ring(COMPLEX, factor), (sc(1), nan)),
                     (product_ring(factor, REAL), (nan, sc(1, REAL)))]:
        assert np.isnan(RingValue(d, parts).norm(16))


@pytest.mark.parametrize("d", [M2, matrix_ring(2, "real")], ids=str)
def test_norm_of_a_non_finite_matrix_is_its_abs_bound(d):
    # no SVD of a non-finite matrix: NaN if an entry is NaN, else inf
    inf, nan = float("inf"), float("nan")
    cases = [([[1, 0], [0, nan]], nan), ([[-inf, 0], [2, 1]], inf),
             ([[inf, nan], [0, 1]], nan)]
    for entries, want in cases:
        v = RingValue.mat(d, entries)
        for w in (v, RingValue(product_ring(COMPLEX, d), (sc(1), v)),
                  RingValue(product_ring(d, REAL), (v, sc(1, REAL)))):
            got = w.norm(16)
            assert np.isnan(got) if np.isnan(want) else got == want
            assert np.isnan(w.abs_bound()) == np.isnan(want)


@pytest.mark.parametrize("d", [M2, matrix_ring(2, "real"), QUATERNION,
                               product_ring(REAL, M2, QUATERNION)],
                         ids=str)
def test_scale_by_inf_warns_nothing(d):
    """0 inf is NaN, with no numpy warning (so none under -W error), each
    entry as Python computes it: (1 + 0j) inf has a NaN imaginary part."""
    import warnings
    inf = float("inf")

    def entries(v):     # Python numbers, factor by factor
        if v.descriptor.kind == "product":
            return [x for a in v.payload for x in entries(a)]
        return np.asarray(v.payload).reshape(-1).tolist()

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v in (RingValue.unit(d), RingValue.zero(d)):
            want = [x * inf for x in entries(v)]
            assert repr(entries(v.scale(inf))) == repr(want)


def test_abs_bound_laurent_is_coefficientwise():
    # largest coefficient magnitude; zero iff the value is zero
    a = RingValue.poly(L1, {(1,): 1, (0,): -2})
    assert a.abs_bound() == pytest.approx(2.0)
    assert RingValue.zero(L1).abs_bound() == 0.0


def test_nth_root_principal_branch():
    v = sc(np.exp(1.2j))
    r = v.nth_root(2)
    assert (r * r).close(v)
    assert sc(-1).nth_root(2).payload == pytest.approx(1j)


def test_nth_root_real_minus_one():
    mu = RingValue.scalar(REAL, -1.0)
    assert mu.nth_root(2) is None
    r = mu.nth_root(3)
    assert r is not None and (r * r * r).close(mu)


def test_nth_root_laurent_monomials_only():
    z2 = RingValue.monomial(L1, 1, (2,))
    r = z2.nth_root(2)
    assert r is not None and (r * r).close(z2)
    z = RingValue.monomial(L1, 1, (1,))
    assert z.nth_root(2) is None
    mixed = RingValue.poly(L1, {(0,): 1, (1,): 1})
    assert mixed.nth_root(2) is None


def test_nth_root_matrix_central_only():
    c = RingValue.mat(M2, (np.exp(1j) * np.eye(2)))
    r = c.nth_root(3)
    assert r is not None and (r * r * r).close(c)
    assert RingValue.mat(M2, [[0, 1], [1, 0]]).nth_root(2) is None


def test_nth_root_over_a_product_is_taken_per_factor():
    d = product_ring(COMPLEX, REAL, M2, QUATERNION, L1)
    v = RingValue(d, (sc(np.exp(1.2j)), RingValue.scalar(REAL, -1.0),
                      RingValue.mat(M2, np.exp(1j) * np.eye(2)),
                      RingValue.quaternion([-1, 0, 0, 0]),
                      RingValue.monomial(L1, 1j, (3,))))
    r = v.nth_root(3)
    assert r is not None and (r * r * r).close(v)
    assert [repr(a) for a in r.payload] == [
        repr(a.nth_root(3)) for a in v.payload]
    assert v.nth_root(2) is None            # -1 in R has no square root
    assert RingValue(d, (sc(2),) + v.payload[1:]).nth_root(3) is None


@pytest.mark.parametrize("value", [
    sc(1 + 1e-8), RingValue.scalar(REAL, 1 + 1e-8),
    RingValue.monomial(L1, 1 + 1e-8, (2,)),
    RingValue.mat(M2, (1 + 1e-8) * np.eye(2)),
    RingValue.quaternion([1 + 1e-8, 0, 0, 0]),
], ids=["complex", "real", "laurent", "matrix", "quaternion"])
def test_nth_root_takes_the_callers_tol(value):
    # |c| - 1 = 1e-8: refused at tol 1e-9 (the default), accepted at 1e-6
    assert value.nth_root(2, tol=1e-9) is None
    assert value.nth_root(2) is None
    r = value.nth_root(2, tol=1e-6)
    assert r is not None and (r * r).close(value, 1e-6)


def test_real_basis_and_dim():
    assert real_dim(COMPLEX) == 2
    assert real_dim(REAL) == 1
    assert real_dim(M2) == 8
    assert real_dim(QUATERNION) == 4
    with pytest.raises(ValueError):
        real_dim(L1)
    basis = real_basis(M2)
    flats = flat_rows(readout_array(M2, basis))
    assert np.linalg.matrix_rank(flats) == 8


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_star_properties_random(data):
    coords = st.floats(-3, 3, allow_nan=False)
    a = RingValue.quaternion([data.draw(coords) for _ in range(4)])
    b = RingValue.quaternion([data.draw(coords) for _ in range(4)])
    assert a.star().star().close(a)
    assert (a * b).star().close(b.star() * a.star())
    assert (a + b).star().close(a.star() + b.star())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_laurent_ring_axioms_random(data):
    term = st.tuples(st.integers(-3, 3),
                     st.complex_numbers(max_magnitude=2, allow_nan=False,
                                        allow_infinity=False))
    def draw_val():
        terms = data.draw(st.lists(term, max_size=4))
        acc = {}
        for e, c in terms:
            acc[(e,)] = acc.get((e,), 0) + c
        return RingValue.poly(L1, acc)
    a, b, c = draw_val(), draw_val(), draw_val()
    assert ((a * b) * c).close(a * (b * c), tol=1e-9)
    assert (a * (b + c)).close(a * b + a * c, tol=1e-9)
    assert (a * b).star().close(b.star() * a.star(), tol=1e-9)
