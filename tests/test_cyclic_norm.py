"""alg_norm on cyclic groups through the cyclic decomposition, against the
SVD of the regular representation (_svd_norm, the reference), and the
tables that must stay on the SVD."""
import json

import numpy as np
import pytest

from small_groups import S3
from twistalg import (COMPLEX, QUATERNION, REAL, AlgebraElement, GroupTable,
                      Lambda, RingValue, SchurFunction, alg_norm, coboundary,
                      cocycle_mul, direct_product, klein_table, laurent,
                      make_cyclic, make_f_alpha, matrix_ring, product_ring,
                      trivial_cocycle, validate)
from twistalg.norm import _cyclic_norm, _generator, _svd_norm
from twistalg.serialize import parse_cocycle

L1, L2 = laurent(1), laurent(2)
GRID = 8
# the two paths agree within sqrt(n) n * _CYCLIC_EPS relative (under 6e-14
# for n <= 16, see twistalg.norm._CYCLIC_EPS), plus the rounding of each path
REL = 1e-12


def unit_value(d, rng):
    """A central unitary of ring d: a phase, a sign, a monomial c z^e."""
    if d.kind == "product":
        return RingValue.tuple_value(d, [unit_value(e, rng)
                                         for e in d.factors])
    if d.kind == "real":
        return RingValue.scalar(d, rng.choice([-1.0, 1.0]))
    c = np.exp(2j * np.pi * rng.random())
    if d.kind == "complex":
        return RingValue.scalar(d, c)
    return RingValue.monomial(d, c, rng.integers(-2, 3, size=d.m))


def any_value(d, rng):
    """A coefficient: neither unitary nor, over Laurent rings, a monomial."""
    if d.kind == "product":
        return RingValue.tuple_value(d, [any_value(e, rng) for e in d.factors])
    if d.kind == "real":
        return RingValue.scalar(d, rng.normal())
    if d.kind == "complex":
        return RingValue.scalar(d, complex(*rng.normal(size=2)))
    return RingValue.poly(d, {tuple(rng.integers(-2, 3, size=d.m)):
                              complex(*rng.normal(size=2))
                              for _ in range(rng.integers(1, 4))})


def element(f, rng):
    return AlgebraElement(f, [any_value(f.descriptor, rng)
                              for _ in range(f.group.order)])


def factor_tables(f):
    """The Schur function of each factor twistalg.norm takes over f: one
    per factor of a product ring, else f itself."""
    d = f.descriptor
    if d.kind != "product":
        return [f]
    return [SchurFunction(f.group, e, [[v.payload[i] for v in row]
                                       for row in f.values])
            for i, e in enumerate(d.factors)]


def factor_coeffs(x, i, d):
    return [c.payload[i] for c in x.coeffs] if d.kind == "product" \
        else x.coeffs


def assert_cyclic(x):
    """Every factor takes the cyclic path, and alg_norm agrees with the
    SVD of the regular representation."""
    f = x.cocycle
    want = []
    for i, h in enumerate(factor_tables(f)):
        coeffs = factor_coeffs(x, i, f.descriptor)
        got = _cyclic_norm(h, coeffs, GRID)
        assert got is not None
        ref = _svd_norm(h, coeffs, GRID)
        assert got == pytest.approx(ref, rel=REL)
        want.append(ref)
    assert alg_norm(x, grid=GRID) == pytest.approx(max(want), rel=REL)


def assert_svd(x):
    """Every factor refuses the cyclic path, and alg_norm is the SVD's."""
    f = x.cocycle
    want = []
    for i, h in enumerate(factor_tables(f)):
        coeffs = factor_coeffs(x, i, f.descriptor)
        assert _cyclic_norm(h, coeffs, GRID) is None
        want.append(_svd_norm(h, coeffs, GRID))
    assert alg_norm(x, grid=GRID) == max(want)


# -- the cyclic path --------------------------------------------------------

def f_alpha(n, d, rng):
    """make_f_alpha on random parameters; over a product ring, the table of
    the factors' tables (validate takes no product with a Laurent factor)."""
    if d.kind != "product":
        return make_f_alpha(n, [unit_value(d, rng) for _ in range(n - 1)], d)
    parts = [f_alpha(n, e, rng).values for e in d.factors]
    return SchurFunction(make_cyclic(n), d, [
        [RingValue.tuple_value(d, v) for v in zip(*rows)]
        for rows in zip(*parts)])


@pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
@pytest.mark.parametrize("d", [COMPLEX, REAL, L1, L2,
                               product_ring(L1, COMPLEX)], ids=str)
def test_f_alpha_norm_matches_svd(d, n):
    rng = np.random.default_rng(n)
    assert_cyclic(element(f_alpha(n, d, rng), rng))


@pytest.mark.parametrize("n", [2, 6, 12])
@pytest.mark.parametrize("d", [COMPLEX, REAL, L1, L2], ids=str)
def test_coboundary_tables_match_svd(d, n):
    """Explicit tables that make_f_alpha does not build: a coboundary, and
    its product with an f_alpha."""
    rng = np.random.default_rng(100 + n)
    g = make_cyclic(n)
    lam = Lambda(g, d, [RingValue.unit(d)]
                 + [unit_value(d, rng) for _ in range(n - 1)])
    delta = coboundary(lam)
    assert validate(delta).ok
    assert_cyclic(element(delta, rng))
    f = make_f_alpha(n, [unit_value(d, rng) for _ in range(n - 1)], d)
    assert_cyclic(element(cocycle_mul(delta, f), rng))


def test_table_read_from_config_matches_svd():
    """An array-held table, printed to 17 digits and read back."""
    rng = np.random.default_rng(7)
    n = 32
    lam = np.exp(2j * np.pi * rng.random(n))
    lam[0] = 1
    i = np.arange(n)
    table = lam[:, None] * lam[None, :] * lam[(i[:, None] + i) % n].conj()
    f = parse_cocycle(json.loads(json.dumps({
        "descriptor": "complex", "group": {"kind": "cyclic", "n": n},
        "table": [[f"{z.real:.17g}{z.imag:+.17g}i" for z in row]
                  for row in table]})))
    assert f._centre is not None
    assert_cyclic(element(f, rng))


def relabel(f, perm):
    """f over the same group with element perm[i] at index i."""
    g, inv = f.group, np.argsort(perm)
    mul = inv[g.mul[np.ix_(perm, perm)]]
    vals = [[f.values[a][b] for b in perm] for a in perm]
    return SchurFunction(GroupTable(mul), f.descriptor, vals)


@pytest.mark.parametrize("d", [COMPLEX, L1], ids=str)
def test_relabelled_cyclic_group_matches_svd(d):
    """Z/7 with its elements shuffled: the powers of the generator at index
    1 are not in index order."""
    rng = np.random.default_rng(11)
    f = make_f_alpha(7, [unit_value(d, rng) for _ in range(6)], d)
    perm = np.concatenate([[0], 1 + rng.permutation(6)])
    h = relabel(f, perm)
    assert h.group.generators == [1]
    assert [h.group.power(1, t) for t in range(7)] != list(range(7))
    x = element(h, rng)
    assert_cyclic(x)
    # the same element over the original labels has the same norm
    y = AlgebraElement(f, [x.coeffs[j] for j in np.argsort(perm)])
    assert alg_norm(x, grid=GRID) == pytest.approx(alg_norm(y, grid=GRID),
                                                   rel=REL)


def test_generator_other_than_index_one():
    """Z/6 with element 3, of order 2, at index 1 and the generator 1 at
    index 2, given with its generator."""
    perm = np.array([0, 3, 1, 2, 4, 5])      # element perm[i] at index i
    inv = np.argsort(perm)
    g = GroupTable._by_construction(inv[(perm[:, None] + perm) % 6],
                                    inv[-perm % 6], None, [2])
    rng = np.random.default_rng(13)
    f = make_f_alpha(6, [unit_value(COMPLEX, rng) for _ in range(5)])
    h = SchurFunction(g, COMPLEX, f._centre[..., 0][np.ix_(perm, perm)])
    assert validate(h).ok
    assert_cyclic(element(h, rng))


def relabelled_f_alpha(g, phi, d, rng):
    """make_f_alpha(n) carried to g by phi: element i of g is phi[i] in Z/n."""
    n = g.order
    f = make_f_alpha(n, [unit_value(d, rng) for _ in range(n - 1)], d)
    assert np.array_equal(phi[g.mul], (phi[:, None] + phi) % n)
    return SchurFunction(g, d, [[f.values[a][b] for b in phi] for a in phi])


def cyclic_groups_with_two_greedy_generators():
    """Z/2 x Z/3 and Z/4 x Z/9 from direct_product, which names two
    generators each, and a table of Z/6 and one of Z/12 whose index 1
    holds an element of order 2 and 3, read as configs: greedy sets of
    two."""
    out = []
    for a, b in ((2, 3), (4, 9)):
        g = direct_product(make_cyclic(a), make_cyclic(b))
        i = np.arange(a * b)          # (i // b, i % b) by the CRT
        phi = np.array([next(k for k in range(a * b) if k % a == x // b
                             and k % b == x % b) for x in i])
        out.append((g, phi))
    for n, second in ((6, 3), (12, 4)):
        phi = np.concatenate([[0, second], [k for k in range(1, n)
                                            if k != second]])
        inv = np.argsort(phi)
        out.append((GroupTable(inv[(phi[:, None] + phi) % n]), phi))
    return out


@pytest.mark.parametrize("case", range(4))
@pytest.mark.parametrize("d", [COMPLEX, REAL, L1], ids=str)
def test_cyclic_group_with_two_greedy_generators_matches_svd(case, d,
                                                             monkeypatch):
    """The path finds an element of order n itself, with no sort."""
    g, phi = cyclic_groups_with_two_greedy_generators()[case]
    assert len(g.generators) == 2
    rng = np.random.default_rng(47 + case)
    x = element(relabelled_f_alpha(g, phi, d, rng), rng)
    for name in ("unique", "sort", "argsort"):
        monkeypatch.setattr(np, name, None)
    assert_cyclic(x)


def test_generator_search():
    """An element of order n exactly where the group is cyclic: the
    powers up to n/2 show every smaller order."""
    for g, phi in cyclic_groups_with_two_greedy_generators():
        x = _generator(g)
        assert [g.power(x, k) for k in range(1, g.order)].count(
            g.identity) == 0
    for a, b in ((2, 2), (2, 4), (4, 4), (3, 9)):
        assert _generator(direct_product(make_cyclic(a),
                                         make_cyclic(b))) is None
    assert _generator(S3) is None


def test_non_cyclic_abelian_groups_stay_on_svd():
    rng = np.random.default_rng(53)
    for a, b in ((2, 2), (2, 4), (3, 3)):
        g = direct_product(make_cyclic(a), make_cyclic(b))
        assert_svd(element(trivial_cocycle(g, COMPLEX), rng))


def test_table_off_modulus_within_the_bound_matches_svd():
    """Every value f(e_s, e_t), s, t > 0, of modulus 1 + 3 n eps, as from a
    generator column of that modulus: the path scales each c_t back to
    modulus 1, where the products c_t drift by up to 3 n^2 eps."""
    n, rng = 128, np.random.default_rng(41)
    f = make_f_alpha(n, [unit_value(COMPLEX, rng) for _ in range(n - 1)])
    table = f._centre[..., 0].copy()
    table[1:, 1:] *= 1 + 3 * n * 2.0 ** -52
    assert_cyclic(element(SchurFunction(f.group, COMPLEX, table), rng))


def test_rebuilt_table_off_modulus_stays_on_svd():
    """c_{s+t} / (c_s c_t) from a column of modulus 2 satisfies the cocycle
    identity, but is no unitary cocycle."""
    rng = np.random.default_rng(43)
    n = 5
    c = np.cumprod(np.concatenate([[1, 1], 2 * np.exp(
        2j * np.pi * rng.random(n - 1))]))
    c = np.concatenate([c[:n], c[n] * c[:n - 1]])
    i = np.arange(n)
    table = c[i[:, None] + i] / (c[i, None] * c[i])
    f = SchurFunction(make_cyclic(n), COMPLEX, table)
    assert_svd(element(f, rng))


@pytest.mark.parametrize("d", [COMPLEX, REAL, L1, L2], ids=str)
def test_trivial_group(d):
    f = trivial_cocycle(make_cyclic(1), d)
    rng = np.random.default_rng(17)
    assert_cyclic(element(f, rng))


def test_laurent_norm_of_a_monomial_generator_is_one():
    rng = np.random.default_rng(19)
    f = make_f_alpha(5, [unit_value(L2, rng) for _ in range(4)], L2)
    for t in range(5):
        coeffs = [RingValue.zero(L2)] * 5
        coeffs[t] = unit_value(L2, rng)
        assert alg_norm(AlgebraElement(f, coeffs), grid=16) == \
            pytest.approx(1.0, rel=1e-14)


# -- tables that stay on the SVD --------------------------------------------

def test_non_cyclic_groups_stay_on_svd():
    rng = np.random.default_rng(23)
    assert len(S3.generators) == 2
    assert_svd(element(trivial_cocycle(S3, COMPLEX), rng))
    units = [unit_value(COMPLEX, rng) for _ in range(3)]
    klein = klein_table(*units, RingValue.scalar(COMPLEX, -1))
    assert_svd(element(klein, rng))


def test_table_valid_only_within_tol_stays_on_svd():
    rng = np.random.default_rng(29)
    f = make_f_alpha(5, [unit_value(COMPLEX, rng) for _ in range(4)])
    table = f._centre[..., 0].copy()
    table[2, 3] += 1e-10
    h = SchurFunction(f.group, COMPLEX, table)
    assert validate(h).ok
    assert_svd(element(h, rng))


def test_laurent_table_with_a_moved_exponent_stays_on_svd():
    rng = np.random.default_rng(31)
    f = make_f_alpha(4, [unit_value(L1, rng) for _ in range(3)], L1)
    vals = [list(row) for row in f.values]
    (e, c), = vals[2][3].payload.items()
    vals[2][3] = RingValue.monomial(L1, c, (e[0] + 1,))
    assert_svd(element(SchurFunction(f.group, L1, vals), rng))


@pytest.mark.parametrize("d", [QUATERNION, matrix_ring(2)], ids=str)
def test_other_rings_stay_on_svd(d):
    minus = RingValue.unit(d).scale(-1)
    f = make_f_alpha(4, [minus, RingValue.unit(d), minus], d)
    rng = np.random.default_rng(37)
    coeffs = [RingValue.unit(d).scale(complex(*rng.normal(size=2))
                                      if d.kind == "matrix" else
                                      rng.normal()) for _ in range(4)]
    x = AlgebraElement(f, coeffs)
    assert _cyclic_norm(f, coeffs, GRID) is None
    assert alg_norm(x) == _svd_norm(f, coeffs, GRID)


# -- non-finite coefficients ------------------------------------------------

@pytest.mark.parametrize("literal", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("case", ["cyclic", "svd"])
def test_non_finite_coefficients_are_refused(case, literal):
    d = COMPLEX if case == "cyclic" else QUATERNION
    g = make_cyclic(4) if case == "cyclic" else S3
    f = trivial_cocycle(g, d)
    coeffs = [RingValue.unit(d)] * g.order
    coeffs[2] = (RingValue.scalar(d, float(literal)) if d is COMPLEX
                 else RingValue.quaternion([float(literal), 0, 0, 0]))
    with pytest.raises(ValueError, match="non-finite coefficient at '2'"):
        alg_norm(AlgebraElement(f, coeffs))
