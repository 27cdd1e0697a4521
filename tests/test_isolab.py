import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalg import (COMPLEX, KLEIN_A, KLEIN_B, KLEIN_C, QUATERNION, REAL,
                      AlgebraElement, CliffordSpec, ComplexifiedModel,
                      CornerModel, DirectSumModel, Lambda, MatrixModel,
                      Morphism, MorphismReport, QuaternionTensorModel,
                      RingModel, RingValue, TwistedModel, alg_mul, alg_star,
                      char_decompose_z2n, clifford_cocycle, coboundary,
                      cocycle_mul, complexify_odd, cyclic_decompose,
                      direct_product, extend_even_projection,
                      extend_generator_images, extend_two_matrix,
                      extend_two_quaternion, generator, identity_morphism,
                      klein_complex_pair, klein_matrix, klein_quaternion,
                      klein_split4, klein_table,
                      lambda_isomorphism, laurent, laurent_z2_rewrite,
                      make_cyclic, make_f_alpha, make_subset_group,
                      matrix_ring, product_ring, real_basis, real_dim,
                      regular_matrix, split_odd, tensor_cocycle,
                      tensor_structure_check, trivial_cocycle,
                      validate, verify_morphism, z2_complexify, z2_split,
                      z2n_torus_rewrite, z2z4_cocycle,
                      z2z4_corrected_cocycle, z2z4_decompose)
from twistalg import isolab
from twistalg.cocycle import SchurFunction
from twistalg.isolab import SubstitutionReport, object_residuals

from small_groups import S3

L1 = laurent(1)


def phase(theta, d=COMPLEX):
    return RingValue.scalar(d, np.exp(1j * theta))


def rone(x=1.0):
    return RingValue.scalar(REAL, x)


def random_f(n, seed):
    rng = np.random.default_rng(seed)
    return make_f_alpha(n, [phase(t) for t in rng.uniform(0, 6.28, n - 1)])


# -- verifier basics -------------------------------------------------------

def test_identity_morphism_bijective():
    f = random_f(4, seed=0)
    rep = verify_morphism(identity_morphism(f))
    assert rep.bijective()
    assert rep.source_dim == rep.image_rank == rep.target_dim == 8


def test_verifier_flags_broken_images():
    f = random_f(3, seed=1)
    images = list(identity_morphism(f).images)
    images[1] = images[1].scale(1.01)
    rep = verify_morphism(Morphism(f, TwistedModel(f), images))
    assert not rep.ok()
    assert rep.mult_residual > 1e-3


def test_verifier_reports_nan_images_without_a_rank():
    """Z/2 -> C with V_1 sent to NaN: NaN residuals and no rank, where
    the rank step used to raise (SVD did not converge)."""
    f = trivial_cocycle(make_cyclic(2), COMPLEX)
    images = [RingValue.scalar(COMPLEX, complex("nan")),
              RingValue.scalar(COMPLEX, -1)]
    rep = verify_morphism(Morphism(f, RingModel(COMPLEX), images))
    assert np.isnan([rep.unit_residual, rep.mult_residual,
                     rep.star_residual]).all()
    assert not rep.ok() and not rep.bijective()
    assert (rep.source_dim, rep.image_rank, rep.target_dim) == (4, -1, 2)
    assert rep.injective is None and rep.surjective is None


def test_lambda_isomorphism():
    f = random_f(5, seed=2)
    g = f.group
    rng = np.random.default_rng(3)
    lam = Lambda(g, COMPLEX,
                 [RingValue.unit(COMPLEX)]
                 + [phase(t) for t in rng.uniform(0, 6.28, 4)])
    m = lambda_isomorphism(f, lam)
    rep = verify_morphism(m)
    assert rep.bijective()
    # the target cocycle really is f * (delta lambda)
    want = f.values[2][3] * (lam.value(2) * lam.value(3)
                             * lam.value(g.op(2, 3)).star())
    assert m.target.f.values[2][3].close(want)


def test_morphism_apply_is_multiplicative():
    f = random_f(4, seed=4)
    rng = np.random.default_rng(5)
    lam = Lambda(f.group, COMPLEX,
                 [RingValue.unit(COMPLEX)]
                 + [phase(t) for t in rng.uniform(0, 6.28, 3)])
    m = lambda_isomorphism(f, lam)
    x = AlgebraElement(f, [phase(t) for t in rng.uniform(0, 6.28, 4)])
    y = AlgebraElement(f, [phase(t) for t in rng.uniform(0, 6.28, 4)])
    lhs = m.apply(alg_mul(x, y))
    rhs = m.target.mul(m.apply(x), m.apply(y))
    assert m.target.diff(lhs, rhs) < 1e-12


def test_extend_generator_images():
    f = z2z4_corrected_cocycle()
    # generators (0,1) -> diag(1,-1) + diag(i,-i); (1,0) -> offdiag(i,i) twice
    inner = RingModel(COMPLEX)
    target = DirectSumModel(MatrixModel(2, inner), MatrixModel(2, inner))

    def mm(rows):
        return [[RingValue.scalar(COMPLEX, c) for c in row] for row in rows]

    images = {
        1: (mm([[1, 0], [0, -1]]), mm([[1j, 0], [0, -1j]])),
        4: (mm([[0, 1j], [1j, 0]]), mm([[0, 1j], [1j, 0]])),
    }
    m = extend_generator_images(f, images, target)
    rep = verify_morphism(m)
    assert rep.bijective()
    assert rep.image_rank == 16


def test_extend_generator_images_needs_generators():
    f = random_f(4, seed=6)
    with pytest.raises(ValueError):
        extend_generator_images(f, {2: generator(f, 2)}, TwistedModel(f))


# -- order-2 splittings ----------------------------------------------------

def test_z2_split_scalar():
    f = make_f_alpha(2, [phase(0.8)])
    rep = verify_morphism(z2_split(f))
    assert rep.bijective()


def test_z2_split_laurent_square():
    z2 = RingValue.monomial(L1, 1, (2,))
    f = make_f_alpha(2, [z2], L1)
    rep = verify_morphism(z2_split(f))
    assert rep.ok()
    assert rep.injective is None        # infinite-dimensional coefficients


def test_z2_split_laurent_obstruction():
    z = RingValue.monomial(L1, 1, (1,))
    f = make_f_alpha(2, [z], L1)
    with pytest.raises(ValueError, match="square root"):
        z2_split(f)


def test_z2_split_takes_the_callers_tol():
    # |f(1,1)| - 1 = 1e-8: no square root at tol 1e-9, one at tol 1e-6
    c = phase(0.8).scale(1 + 1e-8)
    f = make_f_alpha(2, [c], tol=1e-6)
    with pytest.raises(ValueError, match="square root"):
        z2_split(f, tol=1e-9)
    assert verify_morphism(z2_split(f, tol=1e-6), tol=1e-6).ok(1e-6)


def test_z2_complexify():
    f = make_f_alpha(2, [rone(-1.0)], REAL)
    rep = verify_morphism(z2_complexify(f))
    assert rep.bijective()
    f_pos = make_f_alpha(2, [rone(1.0)], REAL)
    with pytest.raises(ValueError):
        z2_complexify(f_pos)


# -- Klein four-group ------------------------------------------------------

def test_klein_split4():
    rep = verify_morphism(klein_split4(phase(0.3), phase(-0.5), phase(1.7)))
    assert rep.bijective()


def test_klein_complex_pair_both_variants():
    one, mu = rone(), rone(-1.0)
    # variant 1 needs -beta gamma > 0 and alpha gamma > 0
    rep = verify_morphism(klein_complex_pair(one, mu, one, variant=1))
    assert rep.bijective()
    # variant 2 needs -beta gamma > 0 and -alpha gamma > 0
    rep = verify_morphism(klein_complex_pair(mu, mu, one, variant=2))
    assert rep.bijective()
    with pytest.raises(ValueError, match="variant 1 or 2"):
        klein_complex_pair(mu, mu, one, variant=3)


def test_klein_quaternion():
    m = verify_morphism(klein_quaternion(rone(), rone(-1.0), rone()))
    assert m.bijective()
    # i j = k on the images
    mor = klein_quaternion(rone(), rone(-1.0), rone())
    t = mor.target
    prod = t.mul(mor.images[KLEIN_A], mor.images[KLEIN_B])
    f = mor.source
    want = t.scale_left(f.values[KLEIN_A][KLEIN_B], mor.images[KLEIN_C])
    assert t.diff(prod, want) < 1e-12


def test_klein_quaternion_needs_real_root():
    # alpha = beta = gamma = 1 asks for x^2 = -1 in the reals
    with pytest.raises(ValueError):
        klein_quaternion(rone(), rone(), rone())


def test_klein_matrix():
    rep = verify_morphism(klein_matrix(phase(0.4), phase(-1.2), phase(0.9)))
    assert rep.bijective()


def test_klein_matrix_projection_to_corner():
    mor = klein_matrix(phase(0.0), phase(0.0), phase(0.0))
    f = mor.source
    beta_gamma_root = f.values[KLEIN_A][KLEIN_A].nth_root(2)
    p = AlgebraElement.zero(f)
    p.coeffs[0] = RingValue.scalar(COMPLEX, 0.5)
    p.coeffs[KLEIN_A] = beta_gamma_root.star().scale(0.5)
    im = mor.apply(p)
    t = mor.target
    assert abs(complex(im[0][0].payload) - 1) < 1e-12
    assert all(abs(complex(im[i][j].payload)) < 1e-12
               for i in range(2) for j in range(2) if (i, j) != (0, 0))


# -- abelian decompositions ------------------------------------------------

def test_char_decompose_z2n():
    g = make_subset_group([1, 2, 3])
    f = trivial_cocycle(g, COMPLEX)
    m = char_decompose_z2n(f)
    rep = verify_morphism(m)
    assert rep.bijective()
    # inversion: sum_t <r,t> (phi X)_t = 2^n X_r
    rng = np.random.default_rng(8)
    x = AlgebraElement(f, [phase(t) for t in rng.uniform(0, 6.28, 8)])
    im = m.apply(x)
    for r in range(8):
        acc = RingValue.zero(COMPLEX)
        for t in range(8):
            sign = -1 if (r & t).bit_count() % 2 else 1
            acc = acc + im[t].scale(sign)
        assert acc.close(x.coeffs[r].scale(8))


def test_char_decompose_rejects_nontrivial():
    f = make_f_alpha(2, [phase(0.1)])
    with pytest.raises(ValueError):
        char_decompose_z2n(f)


CONSTANT_MESSAGE = "character decomposition needs the constant cocycle"


def constant_tables(tol):
    """(name, table, table off by 2 tol in one entry) on Z/2 x Z/2, held as
    a centre (C, M_2(C), C x R), as lists (C, H) and as Laurent monomials."""
    g, n = direct_product(make_cyclic(2), make_cyclic(2)), 4
    off = 1 + 2 * tol
    for d in (COMPLEX, matrix_ring(2), product_ring(COMPLEX, REAL)):
        centre = np.ones((n, n, 2) if d.kind == "product" else (n, n),
                         dtype=complex)
        bad = centre.copy()
        bad[KLEIN_B, KLEIN_C, ...] = off
        yield str(d), SchurFunction(g, d, centre), SchurFunction(g, d, bad)
    for d in (COMPLEX, QUATERNION):
        unit = RingValue.unit(d)
        rows = [[unit] * n for _ in range(n)]
        bad = [list(r) for r in rows]
        bad[KLEIN_C][KLEIN_A] = unit.scale(off)
        yield f"{d} lists", SchurFunction(g, d, rows), SchurFunction(g, d, bad)
    d = laurent(2)
    coef, exps = np.ones((2, 2), dtype=complex), np.zeros((2, 2, 2), np.int64)
    bad = coef.copy()
    bad[1, 1] = off
    yield str(d), SchurFunction(make_cyclic(2), d, (coef, exps)), \
        SchurFunction(make_cyclic(2), d, (bad, exps))


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_char_decompose_checks_constancy_on_the_held_arrays(tol):
    for name, f, bad in constant_tables(tol):
        assert f._values is None or "lists" in name
        assert verify_morphism(char_decompose_z2n(f, tol)).ok, name
        with pytest.raises(ValueError, match=CONSTANT_MESSAGE):
            char_decompose_z2n(bad, tol)
        assert bad._values is None or "lists" in name


def test_held_constancy_is_the_object_check():
    """isolab._constant on held arrays equals RingValue.close of every
    value against 1, at the edges: differences of modulus at most
    _COEFF_EPS that the Laurent sum drops, exponents away from 0, NaN."""
    d, g = laurent(1), make_cyclic(2)
    unit = RingValue.unit(d)
    cases = [1 + 5e-15, 1 + 1e-14, 1 + 3e-14, 1 - 2e-16j, 1e-7, 2.0, -1.0,
             complex("nan+0j"), complex("inf+0j")]
    for c in cases:
        for e in (0, 1):
            coef = np.ones((2, 2), dtype=complex)
            exps = np.zeros((2, 2, 1), dtype=np.int64)
            coef[1, 1], exps[1, 1] = c, e
            f = SchurFunction(g, d, (coef, exps))
            for tol in (1e-15, 2e-14, 1e-9, 0.5, 1.0, 2.0, np.inf):
                want = all(v.close(unit, tol) for row in f.values for v in row)
                assert isolab._constant(f, unit, tol) == want, (c, e, tol)
    for c in cases[:7]:
        centre = np.ones((2, 2), dtype=complex)
        centre[1, 1] = c
        f = SchurFunction(g, COMPLEX, centre)
        one = RingValue.unit(COMPLEX)
        for tol in (1e-15, 2e-14, 1e-9, 1.0):
            want = all(v.close(one, tol) for row in f.values for v in row)
            assert isolab._constant(f, one, tol) == want, (c, tol)


def test_cyclic_decompose():
    for n in (2, 3, 5):
        rng = np.random.default_rng(n)
        alphas = [phase(t) for t in rng.uniform(0, 6.28, n - 1)]
        f = make_f_alpha(n, alphas)
        rep = verify_morphism(cyclic_decompose(f, alphas))
        assert rep.bijective()


def test_cyclic_decompose_beta_constraint():
    alphas = [phase(0.6)]
    f = make_f_alpha(2, alphas)
    with pytest.raises(ValueError):
        cyclic_decompose(f, alphas, beta=phase(0.1))


# -- tensor and substitution -----------------------------------------------

def test_tensor_structure_check():
    f = make_f_alpha(2, [phase(0.7)])
    g = make_f_alpha(3, [phase(-0.2), phase(1.4)])
    h, worst = tensor_structure_check(f, g)
    assert worst < 1e-12
    assert validate(h).ok


def reference_tensor_structure(f, g, tol=1e-9):
    """Entrywise Kronecker identity of regular matrices: for every
    generator pair, matrix(V^h_{(t,s)}) against matrix(V^f_t) (x)
    matrix(V^g_s).  Returns (h, max residual)."""
    from twistalg.cocycle import _tensor_descriptor
    h = tensor_cocycle(f, g, tol=tol)
    _, comb = _tensor_descriptor(f.descriptor, g.descriptor)
    nf, ns = f.group.order, g.group.order
    worst = 0.0
    for t in range(nf):
        mf = regular_matrix(generator(f, t))
        for s in range(ns):
            mg = regular_matrix(generator(g, s))
            mh = regular_matrix(generator(h, t * ns + s))
            for p1, p2, q1, q2 in itertools.product(range(nf), range(ns),
                                                    range(nf), range(ns)):
                want = comb(mf.entries[p1][q1], mg.entries[p2][q2])
                got = mh.entries[p1 * ns + p2][q1 * ns + q2]
                worst = max(worst, (want - got).abs_bound())
    return h, worst


def sc(*zs):
    return [RingValue.scalar(COMPLEX, z) for z in zs]


def _m2_table(n, phases):
    """A cocycle on Z/n over M_2(C) with central values, from f_alpha."""
    d = matrix_ring(2)
    return make_f_alpha(n, [RingValue.unit(d).scale(np.exp(1j * a))
                            for a in phases], d)


def _laurent_table():
    d = laurent(1)
    return make_f_alpha(3, [RingValue.monomial(d, 1j, (1,)),
                            RingValue.monomial(d, -1, (-2,))], d)


@pytest.mark.parametrize("pair", [
    lambda: (make_f_alpha(2, sc(-1)), make_f_alpha(2, sc(1j))),
    lambda: (make_f_alpha(2, sc(1j)), make_f_alpha(4, sc(1j, -1, -1j))),
    lambda: (klein_table(*sc(1, -1, 1, -1)), make_f_alpha(2, sc(1j))),
    lambda: (_m2_table(2, [0.3]), _m2_table(3, [1.1, -0.4])),
    lambda: (_laurent_table(), make_f_alpha(2, [phase(0.7)])),
], ids=["z2_z2", "z2_z4", "klein_z2", "m2_m2", "laurent_scalar"])
def test_tensor_structure_check_matches_regular_matrices(pair):
    f, g = pair()
    h, worst = tensor_structure_check(f, g)
    h_ref, worst_ref = reference_tensor_structure(f, g)
    assert worst == worst_ref == 0.0
    assert h.descriptor == h_ref.descriptor
    assert np.array_equal(h.group.mul, h_ref.group.mul)
    assert all((a - b).abs_bound() == 0.0
               for ra, rb in zip(h.values, h_ref.values)
               for a, b in zip(ra, rb))


def test_tensor_structure_check_fast_at_order_64():
    f = make_f_alpha(8, [phase(0.1 * i) for i in range(7)])
    t0 = time.perf_counter()
    _, worst = tensor_structure_check(f, f)
    assert time.perf_counter() - t0 < 0.5
    assert worst == 0.0


def test_tensor_structure_check_residuals_fail(monkeypatch):
    # a wrong entry of h, or h on a group that is not the row-major
    # product, is reported
    f, g = make_f_alpha(2, sc(1j)), make_f_alpha(2, sc(-1))
    real = isolab.tensor_cocycle

    def wrong_entry(f, g, tol):
        h = real(f, g, tol=tol)
        rows = [list(row) for row in h.values]
        rows[1][3] = rows[1][3].scale(-1)
        return SchurFunction(h.group, h.descriptor, rows)

    monkeypatch.setattr(isolab, "tensor_cocycle", wrong_entry)
    assert tensor_structure_check(f, g)[1] == 2.0

    def swapped(f, g, tol):
        return real(g, f, tol=tol)

    monkeypatch.setattr(isolab, "tensor_cocycle", swapped)
    assert tensor_structure_check(make_f_alpha(3, sc(1, 1)), g)[1] == (
        float("inf"))


def test_laurent_z2_rewrite_exact():
    rep = laurent_z2_rewrite(degree=3)
    assert rep.ok(0.0)
    assert rep.pairs_checked == (2 * 7) ** 2


def test_z2n_torus_rewrite_sampled():
    rep = z2n_torus_rewrite(2, degree=2, max_pairs=400, seed=1)
    assert rep.ok(0.0)
    assert rep.pairs_checked == 400


def reference_torus_rewrite(n, degree, max_pairs=None, seed=0):
    """z2n_torus_rewrite one algebra object at a time: alg_mul and alg_star
    on the basis z^e V_I, and Phi(X) = sum_I lambda_I(z) X_I(z^2) summed as
    RingValues, over the same basis order and the same sampled pairs."""
    g = make_subset_group(list(range(1, n + 1)))
    d = laurent(m=n)

    def bits(mask):
        return tuple((mask >> i) & 1 for i in range(n))

    f = SchurFunction(g, d, [[RingValue.monomial(d, 1, bits(a & b))
                              for b in range(g.order)]
                             for a in range(g.order)])

    def phi(x):
        acc = RingValue.zero(d)
        for mask, c in enumerate(x.coeffs):
            if not c.is_zero(0.0):
                squared = RingValue(d, {tuple(2 * k for k in e): v
                                        for e, v in c.payload.items()})
                acc = acc + RingValue.monomial(d, 1, bits(mask)) * squared
        return acc

    basis = []
    for mask in range(g.order):
        for e in itertools.product(range(-degree, degree + 1), repeat=n):
            x = AlgebraElement.zero(f)
            x.coeffs[mask] = RingValue.monomial(d, 1, e)
            basis.append(x)
    images = [phi(x) for x in basis]
    star_res = max((phi(alg_star(x)) - im.star()).abs_bound()
                   for x, im in zip(basis, images))
    monos = [im.is_monomial() for im in images]
    injective = (None not in monos
                 and len({mono[1] for mono in monos}) == len(monos))
    nb = len(basis)
    if max_pairs is None or nb * nb <= max_pairs:
        pairs, checked = itertools.product(range(nb), repeat=2), nb * nb
    else:
        rng = np.random.default_rng(seed)
        pairs = zip(rng.integers(0, nb, max_pairs),
                    rng.integers(0, nb, max_pairs))
        checked = max_pairs
    mult_res = max((phi(alg_mul(basis[i], basis[j]))
                    - images[i] * images[j]).abs_bound() for i, j in pairs)
    return SubstitutionReport(mult_res, star_res, checked, injective)


@pytest.mark.parametrize("max_pairs, seed",
                         [(None, 0), (50, 0), (50, 1), (50, 2)])
@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("n", [1, 2])
def test_torus_rewrite_matches_object_reference(n, degree, max_pairs, seed):
    rep = z2n_torus_rewrite(n, degree=degree, max_pairs=max_pairs, seed=seed)
    ref = reference_torus_rewrite(n, degree, max_pairs, seed)
    assert rep == ref
    assert rep.injective is True
    assert rep.ok(0.0)


def test_torus_rewrite_memory_is_bounded():
    """10^6 pairs in blocks of 8,192: one block of all pairs would hold
    24 MB of exponents per array."""
    tracemalloc.start()
    try:
        rep = z2n_torus_rewrite(3, degree=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.ok(0.0) and rep.pairs_checked == 10 ** 6
    assert peak <= 1.5 * 2 ** 20


def test_torus_rewrite_refuses_empty_checks():
    with pytest.raises(ValueError, match="degree"):
        z2n_torus_rewrite(1, degree=-1)
    with pytest.raises(ValueError, match="max_pairs"):
        z2n_torus_rewrite(2, degree=1, max_pairs=0)


# -- the order-8 instance --------------------------------------------------

def test_z2z4_printed_table_is_not_a_cocycle():
    # the displayed sign table fails the cocycle identity; kept as data
    rep = validate(z2z4_cocycle())
    assert not rep.ok
    assert sum(1 for c, _, _ in rep.violations if c == "cocycle") == 96


def test_z2z4_corrected_is_bicharacter_cocycle():
    f = z2z4_corrected_cocycle()
    assert validate(f).ok
    g = f.group
    # multiplicative in each argument
    for s1 in range(8):
        for s2 in range(8):
            for t in range(8):
                assert f.values[g.op(s1, s2)][t].close(
                    f.values[s1][t] * f.values[s2][t])


def test_z2z4_corrected_decomposes_into_two_matrix_blocks():
    f = z2z4_corrected_cocycle()
    inner = RingModel(COMPLEX)
    target = DirectSumModel(MatrixModel(2, inner), MatrixModel(2, inner))

    def mm(rows):
        return [[RingValue.scalar(COMPLEX, c) for c in row] for row in rows]

    images = {
        1: (mm([[1, 0], [0, -1]]), mm([[1j, 0], [0, -1j]])),
        4: (mm([[0, 1j], [1j, 0]]), mm([[0, 1j], [1j, 0]])),
    }
    m = extend_generator_images(f, images, target)
    assert verify_morphism(m).bijective()


def test_z2z4_displayed_decomposition_fails_faithfully():
    # the map built from the displayed table does not verify; the residuals
    # and the rank defect are stable documented values
    m = z2z4_decompose()
    rep = verify_morphism(m)
    assert not rep.ok()
    assert rep.mult_residual == pytest.approx(2.0)
    assert rep.image_rank == 12
    assert rep.injective is False


# -- model sanity ----------------------------------------------------------

def test_complexified_model_is_complex_arithmetic():
    m = ComplexifiedModel(RingModel(REAL))
    a = (rone(1.0), rone(2.0))      # 1 + 2i
    b = (rone(3.0), rone(-1.0))     # 3 - i
    prod = m.mul(a, b)              # 5 + 5i
    assert float(prod[0].payload) == pytest.approx(5.0)
    assert float(prod[1].payload) == pytest.approx(5.0)
    st = m.star(a)
    assert float(st[1].payload) == pytest.approx(-2.0)


def test_quaternion_tensor_model_units():
    m = QuaternionTensorModel(RingModel(REAL))
    z = RingValue.zero(REAL)
    i = (z, rone(), z, z)
    j = (z, z, rone(), z)
    k = m.mul(i, j)
    assert float(k[3].payload) == pytest.approx(1.0)
    assert all(float(k[p].payload) == pytest.approx(0.0) for p in range(3))
    kk = m.mul(k, k)
    assert float(kk[0].payload) == pytest.approx(-1.0)


def test_matrix_model_mul_matches_numpy():
    m = MatrixModel(2, RingModel(COMPLEX))
    rng = np.random.default_rng(9)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    wrap = lambda arr: [[RingValue.scalar(COMPLEX, arr[i][j])
                         for j in range(2)] for i in range(2)]
    prod = m.mul(wrap(a), wrap(b))
    want = a @ b
    for i in range(2):
        for j in range(2):
            assert complex(prod[i][j].payload) == pytest.approx(want[i, j])


# -- the dense verifier against the object loop ----------------------------

RINGS = {"C": COMPLEX, "R": REAL, "H": QUATERNION, "M2": matrix_ring(2),
         "CxM2": product_ring(COMPLEX, matrix_ring(2))}
CONSTRUCTORS = ["identity", "lambda", "z2_split", "klein_matrix",
                "klein_split4", "extend_two_matrix", "split_odd",
                "extend_even_projection"]
REAL_CONSTRUCTORS = ["z2_complexify", "complexify_odd", "klein_quaternion",
                     "klein_complex_pair", "extend_two_quaternion"]
CASES = ([(r, c) for r in RINGS for c in CONSTRUCTORS]
         + [(r, c) for r in ("R", "H") for c in REAL_CONSTRUCTORS]
         + [("C", "cyclic_decompose")])


def central_unitary(d, data):
    """Signs over real rings, phases (times 1) otherwise, per factor over
    products."""
    if d.kind == "product":
        return RingValue.tuple_value(
            d, [central_unitary(f, data) for f in d.factors])
    if d.is_real:
        return RingValue.unit(d).scale(data.draw(st.sampled_from([-1, 1])))
    return RingValue.unit(d).scale(np.exp(1j * data.draw(st.floats(0, 6.3))))


def random_value(d, data):
    """A ring element, neither central nor unitary in general."""
    if d.kind == "product":
        return RingValue.tuple_value(
            d, [random_value(f, data) for f in d.factors])
    comps = [data.draw(st.floats(0.25, 1))] + [
        data.draw(st.floats(-1, 1)) for _ in range(7)]
    if d.kind == "real":
        return RingValue.scalar(d, comps[0])
    if d.kind == "complex":
        return RingValue.scalar(d, complex(comps[0], comps[1]))
    if d.kind == "quaternion":
        return RingValue.quaternion(comps[:4])
    return RingValue.mat(d, np.reshape(comps[:4], (2, 2))
                         + 1j * np.reshape(comps[4:], (2, 2)))


def random_cocycle(d, data):
    """A coboundary on Z/n or on the non-abelian S_3, or a Clifford cocycle
    times one."""
    base = data.draw(st.sampled_from(["cyclic", "S3", "clifford"]))
    if base == "cyclic":
        base = trivial_cocycle(make_cyclic(data.draw(st.integers(1, 6))), d)
    elif base == "S3":
        base = trivial_cocycle(S3, d)
    else:
        base = clifford_cocycle(random_spec(d, data, data.draw(
            st.integers(0, 3))))
    lam = random_lambda(base, data)
    return cocycle_mul(base, coboundary(lam))


def random_lambda(f, data):
    d = f.descriptor
    return Lambda(f.group, d, [RingValue.unit(d)] + [
        central_unitary(d, data) for _ in range(f.group.order - 1)])


def random_spec(d, data, size=None):
    size = data.draw(st.sampled_from([0, 2])) if size is None else size
    return CliffordSpec(list(range(1, size + 1)),
                        [central_unitary(d, data) for _ in range(size)], d)


def corner_morphism(d, data):
    """extend_even_projection on a random base with m = 1, 2 or 3 (onto
    its corner for m <= 2, into it for m = 3)."""
    m = data.draw(st.integers(1, 3))
    return extend_even_projection(random_spec(d, data), m, [
        central_unitary(d, data) for _ in range(m)])[1]


def build_morphism(name, d, data):
    u = lambda: central_unitary(d, data)      # noqa: E731
    if name == "identity":
        return identity_morphism(random_cocycle(d, data))
    if name == "lambda":
        f = random_cocycle(d, data)
        return lambda_isomorphism(f, random_lambda(f, data))
    if name == "z2_split":
        x = u()
        return z2_split(make_f_alpha(2, [x * x], d), x)
    if name == "z2_complexify":
        return z2_complexify(make_f_alpha(2, [-RingValue.unit(d)], d))
    if name == "cyclic_decompose":
        alphas = [u() for _ in range(data.draw(st.integers(2, 6)) - 1)]
        return cyclic_decompose(make_f_alpha(len(alphas) + 1, alphas),
                                alphas)
    if name == "extend_two_matrix":
        return extend_two_matrix(random_spec(d, data), u(), u())
    if name == "extend_two_quaternion":
        return extend_two_quaternion(random_spec(d, data), u(), u())
    if name == "split_odd":
        return split_odd(random_spec(d, data))[3]
    if name == "complexify_odd":
        return complexify_odd(random_spec(d, data))
    if name == "extend_even_projection":
        return corner_morphism(d, data)
    x, y, gamma, alpha = u(), u(), u(), u()
    xx, yy = x * x * gamma.star(), y * y * gamma.star()
    if name == "klein_matrix":
        return klein_matrix(alpha, xx, gamma, x=x, y=y)
    if name == "klein_split4":
        return klein_split4(yy, xx, gamma, x=x, y=y)
    if name == "klein_quaternion":
        return klein_quaternion(yy, -xx, gamma, x=x, y=y)
    variant = data.draw(st.sampled_from([1, 2]))
    return klein_complex_pair(yy if variant == 1 else -yy, -xx, gamma,
                              variant=variant, x=x, y=y)


def real_flat(v):
    """The real coordinates of a ring value: real and imaginary parts of
    scalars and matrix entries, the four of a quaternion, each factor's
    in turn over products."""
    d = v.descriptor
    if d.kind == "product":
        return np.concatenate([real_flat(a) for a in v.payload])
    flat = np.ravel(v.payload)
    if d.is_real:
        return flat.real.astype(float)
    return np.concatenate([flat.real, flat.imag])


def slot_rank(slotlists):
    """Real rank of the slot lists, one row of their slots' real
    coordinates each."""
    return int(np.linalg.matrix_rank(np.array([
        np.concatenate([real_flat(v) for v in slots])
        for slots in slotlists])))


def singular_value(d):
    """A matrix unit over M_2(C), (1, 0) over C x M_2(C), 0 otherwise."""
    if d.kind == "matrix":
        return RingValue.mat(d, [[1, 0], [0, 0]])
    if d.kind == "product":
        return RingValue.tuple_value(d, [RingValue.unit(d.factors[0])] + [
            RingValue.zero(f) for f in d.factors[1:]])
    return RingValue.zero(d)


def non_central_unit(d):
    """j over H, the swap [[0, 1], [1, 0]] over M_2(C), (1, swap) over
    C x M_2(C), 1 otherwise."""
    if d.kind == "quaternion":
        return RingValue.quaternion([0, 0, 1, 0])
    if d.kind == "matrix":
        return RingValue.mat(d, [[0, 1], [1, 0]])
    if d.kind == "product":
        return RingValue.tuple_value(d, [non_central_unit(f)
                                         for f in d.factors])
    return RingValue.unit(d)


def reference_report(m):
    """The verifier with every residual from the object loop and every
    rank from the slots of scale_left multiples."""
    f, tgt = m.source, m.target
    basis = real_basis(f.descriptor)
    rank = slot_rank([tgt.slots(tgt.scale_left(b, m.images[t]))
                      for t in range(f.group.order) for b in basis])
    source_dim = f.group.order * real_dim(f.descriptor)
    target_dim = tgt.total_real_dim()
    if isinstance(tgt, CornerModel):
        p = tgt.p
        target_dim = slot_rank([tgt.slots(alg_mul(alg_mul(
            p, generator(tgt.f, u).scale_ring(b)), p))
            for u in range(tgt.f.group.order) for b in basis])
    return MorphismReport(*object_residuals(m), source_dim, rank, target_dim,
                          rank == source_dim, rank == target_dim)


def assert_matches_reference(m):
    rep, ref = verify_morphism(m), reference_report(m)
    for key in ("unit_residual", "mult_residual", "star_residual"):
        assert abs(getattr(rep, key) - getattr(ref, key)) <= 1e-12, key
    for key in ("source_dim", "image_rank", "target_dim", "injective",
                "surjective"):
        assert getattr(rep, key) == getattr(ref, key), key
    assert rep.ok() == ref.ok() and rep.bijective() == ref.bijective()
    return rep, ref


@pytest.mark.parametrize("ring,name", CASES)
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_dense_verifier_matches_object_loop(ring, name, data):
    d = RINGS[ring]
    m = build_morphism(name, d, data)
    change = data.draw(st.sampled_from(["none", "image", "source",
                                        "singular", "right"]))
    n, images = m.source.group.order, list(m.images)
    if change == "right":
        # every image times u 1 on the right, u a unit that is central only
        # over C and R: then image_1 (b 1) != b image_1 for some b
        u = m.target.scale_left(non_central_unit(d), m.target.unit())
        images = [m.target.mul(x, u) for x in images]
    if change in ("image", "singular"):
        # add r image_u to image_t for a general ring element r
        t, u = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        images[t] = m.target.add(images[t], m.target.scale_left(
            random_value(d, data), images[u]))
    if change == "singular":
        # then every image times a matrix unit over M_2(C) or (1, 0) over
        # C x M_2(C), or image_t times 0 over the other rings
        ts = range(n) if d.kind in ("matrix", "product") else [t]
        for t in ts:
            images[t] = m.target.scale_left(singular_value(d), images[t])
    m = Morphism(m.source, m.target, images)
    if change == "source":
        # a cocycle the images do not satisfy (unless lambda is trivial)
        wrong = cocycle_mul(m.source, coboundary(random_lambda(m.source,
                                                               data)))
        m = Morphism(wrong, m.target, m.images)
    rep, _ = assert_matches_reference(m)
    if change == "none":
        assert rep.ok()
    elif change == "image":
        assert not rep.ok()
    elif change == "singular":
        assert rep.image_rank < rep.source_dim
    elif change == "right" and d.kind not in ("complex", "real"):
        assert rep.mult_residual > 0.1


def test_rank_rows_multiply_images_on_the_left():
    """The multiples b (e11, e21) over a real basis b of M_2(C) span 8 real
    dimensions, the right multiples (e11 b, e21 b) only 4."""
    d = matrix_ring(2)
    e = RingModel(d)
    m = Morphism(trivial_cocycle(make_cyclic(1), d), DirectSumModel(e, e),
                 [(RingValue.mat(d, [[1, 0], [0, 0]]),
                   RingValue.mat(d, [[0, 0], [1, 0]]))])
    rep, _ = assert_matches_reference(m)
    assert rep.image_rank == 8


def test_dense_verifier_keeps_z2z4_residuals():
    rep, ref = assert_matches_reference(z2z4_decompose())
    assert rep.mult_residual == ref.mult_residual == 2.0
    assert rep.image_rank == 12


def quaternion_z3_table():
    """Z/3 with f(1,2) = i, f(2,1) = j and 1 elsewhere: not central."""
    one = RingValue.unit(QUATERNION)
    vals = [[one] * 3 for _ in range(3)]
    vals[1][2] = RingValue.quaternion([0, 1, 0, 0])
    vals[2][1] = RingValue.quaternion([0, 0, 1, 0])
    return SchurFunction(make_cyclic(3), QUATERNION, vals)


def test_verifier_on_non_central_quaternion_table():
    f = quaternion_z3_table()
    rep, _ = assert_matches_reference(identity_morphism(f))
    assert rep.star_residual == 1.0
    assert not rep.ok()


def non_central_value(d, data):
    """random_value plus 2j (quaternions) or 2 E_12 (matrices): never
    central."""
    if d.kind == "product":
        return RingValue.tuple_value(
            d, [non_central_value(f, data) if f.kind != "complex"
                else random_value(f, data) for f in d.factors])
    if d.kind == "quaternion":
        return random_value(d, data) + RingValue.quaternion([0, 0, 2, 0])
    return random_value(d, data) + RingValue.mat(d, [[0, 2], [0, 0]])


@pytest.mark.parametrize("ring", ["H", "M2", "CxM2"])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_verifier_matches_object_loop_on_non_central_tables(ring, data):
    """A table with one value that is not central, as the source of an
    identity map or as the target's twisted algebra only, whose images
    are the generators or general multiples r_t V_t of them."""
    d = RINGS[ring]
    f = random_cocycle(d, data)
    n = f.group.order
    s, t = (data.draw(st.integers(0, n - 1)) for _ in range(2))
    vals = [list(row) for row in f.values]
    vals[s][t] = non_central_value(d, data)
    bad = SchurFunction(f.group, d, vals)
    assert_matches_reference(identity_morphism(bad))
    assert_matches_reference(
        Morphism(f, TwistedModel(bad), identity_morphism(bad).images))
    target = TwistedModel(bad)
    assert_matches_reference(Morphism(f, target, [
        target.scale_left(random_value(d, data), generator(bad, t))
        for t in range(n)]))


# r_t of a map V_t -> r_t V_t over C x M_2(C): the C part, the M_2(C) part
RANK_EDGE = [(0.5848995986266756, [[1.0, 0.0], [0.0, 0.0]]),
             (1.0, [[0.6125050989878358, 0.0],
                    [0.9930091838957232, -0.7704089683984896]]),
             (0.5624893862866572, [[0.8730821380706215, 0.0],
                                   [0.0, 2.8655726734161846e-14]]),
             (0.5, [[0.8669862893761895, 0.0], [0.0, 0.0]]),
             (0.9298443941258915, [[0.8312524349130528, 0.0], [0.0, 0.0]]),
             (0.8827254531960467, [[1.0, 0.0], [0.0, 0.0]])]


def test_image_rank_threshold_counts_real_coordinates():
    """A case the test above found: S3 over C x M_2(C), V_t -> r_t V_t.
    Four singular values of the rank rows are 2.87e-14, between numpy's
    default threshold for the readouts' 108 columns (3.25e-14) and the
    one for the images' 60 real coordinates (1.80e-14), which the slots
    hold; the rank is 44, not 40."""
    d = RINGS["CxM2"]
    c, m2 = d.factors
    f = trivial_cocycle(S3, d)
    target = TwistedModel(f)
    m = Morphism(f, target, [target.scale_left(RingValue.tuple_value(d, [
        RingValue.scalar(c, a), RingValue.mat(m2, b)]), generator(f, t))
        for t, (a, b) in enumerate(RANK_EDGE)])
    rep, ref = assert_matches_reference(m)
    assert rep.image_rank == ref.image_rank == 44
    assert not rep.injective


def sum_component(f, data, depth=0):
    """A morphism out of S(f): the identity, a lambda isomorphism, or (at
    the top level) a direct sum of two of these."""
    kinds = ["identity", "lambda"] + (["sum"] if depth == 0 else [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "identity":
        return identity_morphism(f)
    if kind == "lambda":
        return lambda_isomorphism(f, random_lambda(f, data))
    return direct_sum(f, [sum_component(f, data, depth + 1)
                          for _ in range(2)])


def direct_sum(f, parts):
    target = DirectSumModel(*(m.target for m in parts))
    return Morphism(f, target, [tuple(m.images[t] for m in parts)
                                for t in range(f.group.order)])


@pytest.mark.parametrize("ring", list(RINGS))
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_direct_sum_verifier_matches_object_loop(ring, data):
    """Direct sums of 2-3 morphisms out of one source, some nested, with
    or without one summand's component of one image perturbed."""
    d = RINGS[ring]
    f = random_cocycle(d, data)
    parts = [sum_component(f, data)
             for _ in range(data.draw(st.integers(2, 3)))]
    m = direct_sum(f, parts)
    perturb = data.draw(st.booleans())
    if perturb:
        n = f.group.order
        i = data.draw(st.integers(0, len(parts) - 1))
        t, u = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        mod, im = m.target.models[i], list(m.images[t])
        im[i] = mod.add(im[i], mod.scale_left(random_value(d, data),
                                              m.images[u][i]))
        m = Morphism(f, m.target, m.images[:t] + (tuple(im),)
                     + m.images[t + 1:])
    rep, _ = assert_matches_reference(m)
    assert rep.ok() is not perturb


@pytest.mark.parametrize("wrap", [lambda m: MatrixModel(2, m),
                                  ComplexifiedModel, QuaternionTensorModel],
                         ids=["matrix", "complexified", "quaternion"])
def test_direct_sum_must_be_the_outermost_model(wrap):
    inner = DirectSumModel(RingModel(REAL), RingModel(REAL))
    with pytest.raises(ValueError, match="outermost"):
        wrap(inner)


def test_direct_sum_verifier_memory():
    """The order-64 character map is checked one summand at a time: the
    block-diagonal form of its 64 summands took 32 MiB."""
    g = make_subset_group(list(range(1, 7)))
    m = char_decompose_z2n(trivial_cocycle(g, COMPLEX))
    tracemalloc.start()
    try:
        rep = verify_morphism(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.bijective()
    assert peak <= 4 * 2 ** 20


# -- each model's dense form against its object arithmetic -----------------

def model_classes():
    """Every AlgebraModel subclass of isolab with a dense form: all but
    the abstract _Parts, whose subclasses give its structure constants,
    HypercomplexModel, whose subclasses give its unit table, and
    DirectSumModel, which the verifier checks one summand at a time."""
    todo, out = [isolab.AlgebraModel], []
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if (sub.__module__ == isolab.__name__ and sub not in (
                    isolab._Parts, isolab.HypercomplexModel,
                    isolab.DirectSumModel)):
                out.append(sub)
    return out


def inner_model(d, data, depth):
    """A random model over d to nest in another; from depth 1 on only a
    ring or a twisted algebra, so models nest at most three levels."""
    classes = [RingModel, TwistedModel]
    if depth < 1:
        classes += [MatrixModel]
        if d.is_real:
            classes += [ComplexifiedModel, QuaternionTensorModel]
    return MODEL_CASES[data.draw(st.sampled_from(classes))](d, data,
                                                             depth + 1)


MODEL_CASES = {
    RingModel: lambda d, data, depth: RingModel(d),
    TwistedModel: lambda d, data, depth: TwistedModel(random_cocycle(d, data)),
    MatrixModel: lambda d, data, depth: MatrixModel(
        data.draw(st.integers(1, 3)), inner_model(d, data, depth)),
    CornerModel: lambda d, data, depth: corner_morphism(d, data).target,
    ComplexifiedModel: lambda d, data, depth: ComplexifiedModel(
        inner_model(d, data, depth)),
    QuaternionTensorModel: lambda d, data, depth: QuaternionTensorModel(
        inner_model(d, data, depth)),
}
REAL_ONLY = {ComplexifiedModel: "complexification",
             QuaternionTensorModel: "quaternion tensor"}


def rng_value(d, rng):
    """A ring element with random coordinates in [-1, 1].  Drawn from a
    seeded generator, not one hypothesis draw per coordinate as in
    random_value: a nested model's element has hundreds of coordinates."""
    if d.kind == "product":
        return RingValue.tuple_value(d, [rng_value(f, rng) for f in d.factors])
    c = rng.uniform(-1, 1, 8)
    if d.kind == "real":
        return RingValue.scalar(d, c[0])
    if d.kind == "complex":
        return RingValue.scalar(d, complex(c[0], c[1]))
    if d.kind == "quaternion":
        return RingValue.quaternion(c[:4])
    return RingValue.mat(d, np.reshape(c[:4] + 1j * c[4:], (2, 2)))


def random_element(model, rng):
    if isinstance(model, RingModel):
        return rng_value(model.base, rng)
    if isinstance(model, TwistedModel):
        x = AlgebraElement(model.f, [rng_value(model.base, rng)
                                     for _ in range(model.f.group.order)])
        if isinstance(model, CornerModel):      # a corner element p x p
            x = model.mul(model.mul(model.unit(), x), model.unit())
        return x
    if isinstance(model, MatrixModel):
        return [[random_element(model.inner, rng) for _ in range(model.k)]
                for _ in range(model.k)]
    return tuple(random_element(model.inner, rng) for _ in model.table)


def twisted_inside(model):
    """Whether model or a model nested in it is a twisted algebra."""
    while not isinstance(model, TwistedModel) and hasattr(model, "inner"):
        model = model.inner
    return isinstance(model, TwistedModel)


def assert_close(x, y):
    assert x.shape == y.shape
    assert np.abs(x - y).max() <= 1e-12


@pytest.mark.parametrize("ring", list(RINGS))
@pytest.mark.parametrize("cls", model_classes(), ids=lambda c: c.__name__)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_every_algebra_model_dense_form_matches_object_arithmetic(
        cls, ring, data):
    """Each model's dense form (readout, from_readout, dense on readouts,
    star_readout) against its own object arithmetic.  A new model needs a
    case here."""
    assert cls in MODEL_CASES, f"no test case for {cls.__name__}"
    d = RINGS[ring]
    if cls in REAL_ONLY and not d.is_real:
        with pytest.raises(ValueError, match=REAL_ONLY[cls]):
            cls(RingModel(d))
        return
    model = MODEL_CASES[cls](d, data, 0)
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    a, b = random_element(model, rng), random_element(model, rng)
    y = model.readout([a, b])
    ra, rb = y
    dense_a = model.dense(y[:1])[0]
    # readouts turn back into the same elements, bit for bit, also read-only
    # ones (a morphism's), and from them into the same readouts
    y.flags.writeable = False
    back = model.from_readout(y)
    assert [model.slots(x) for x in back] == [model.slots(a), model.slots(b)]
    assert np.array_equal(model.readout(back), y)
    assert model.diff(back[0], a) == 0.0
    # the unit's form is the identity (for a corner, a self-adjoint
    # idempotent that fixes its elements) and its readout picks the
    # columns that hold an element
    unit_form = model.dense(model.readout([model.unit()]))[0]
    if cls is CornerModel:
        assert_close(unit_form, unit_form.conj().T)
        assert_close(unit_form @ unit_form, unit_form)
        assert_close(unit_form @ ra, ra)
    else:
        assert_close(unit_form, np.eye(len(dense_a)))
    assert_close(dense_a @ model.readout([model.unit()])[0], ra)
    # the readout carries exactly the coordinates diff compares
    assert abs(np.abs(ra - rb).max() - model.diff(a, b)) <= 1e-12
    assert_close(model.readout([model.mul(a, b)])[0], dense_a @ rb)
    # stars exactly, but where a twisted star multiplies by tilde f
    star = model.star_readout(model.readout([a]))
    if twisted_inside(model):
        assert_close(model.readout([model.star(a)]), star)
    else:
        assert np.array_equal(model.readout([model.star(a)]), star)
    # a *-representation
    assert_close(model.dense(model.readout([model.star(a)]))[0],
                 dense_a.conj().T)
    # dense forms of a stack are those of its readouts one at a time
    both = model.dense(y)
    assert np.array_equal(both[1], model.dense(y[1:])[0])
    assert np.array_equal(both[0], dense_a)


# -- composite object arithmetic over Laurent rings --------------------------
# Over Laurent rings the models compute with objects only, so their
# arithmetic is pinned here against the formulas written out, leaf by leaf:
# the same operations in the same order, so every slot is repr-equal.

LAURENT_RINGS = {"L1": laurent(1), "L2": laurent(2),
                 "L1R": laurent(1, "real")}
COMPOSITES = [(kind, ring) for ring in LAURENT_RINGS
              for kind in ["matrix", "sum"] + (["complexified", "quaternion"]
                                               if ring == "L1R" else [])]


def laurent_value(d, rng):
    """1-3 terms with exponents in [-2, 2]^m, real coefficients over a real
    ring."""
    terms = {}
    for _ in range(rng.integers(1, 4)):
        c = rng.uniform(-1, 1) + (0 if d.is_real else 1j * rng.uniform(-1, 1))
        terms[tuple(rng.integers(-2, 3, d.m).tolist())] = c
    return RingValue.poly(d, terms)


def laurent_leaf(d, rng):
    """E itself or S(f_alpha) on Z/2 or Z/3 with monomial parameters."""
    if rng.random() < 0.5:
        return RingModel(d)
    n = int(rng.integers(2, 4))
    alphas = [RingValue.monomial(d, rng.choice([-1.0, 1.0]) if d.is_real
                                 else np.exp(2j * np.pi * rng.random()),
                                 rng.integers(-1, 2, d.m))
              for _ in range(n - 1)]
    return TwistedModel(make_f_alpha(n, alphas, d))


def laurent_element(model, rng):
    d = model.base
    if isinstance(model, RingModel):
        return laurent_value(d, rng)
    if isinstance(model, TwistedModel):
        return AlgebraElement(model.f, [laurent_value(d, rng)
                                        for _ in range(model.f.group.order)])
    if isinstance(model, MatrixModel):
        return [[laurent_element(model.inner, rng) for _ in range(model.k)]
                for _ in range(model.k)]
    if isinstance(model, DirectSumModel):
        return tuple(laurent_element(m, rng) for m in model.models)
    return tuple(laurent_element(model.inner, rng) for _ in model.table)


def leafwise(fn, *xs):
    """fn on each ring value or algebra element of nested lists or tuples,
    keeping the nesting."""
    if isinstance(xs[0], (list, tuple)):
        return type(xs[0])(leafwise(fn, *ys) for ys in zip(*xs))
    return fn(*xs)


def written_out_mul(model, a, b):
    if isinstance(model, MatrixModel):
        k = range(model.k)
        return [[sum_in_order([a[i][l] * b[l][j] for l in k]) for j in k]
                for i in k]
    if isinstance(model, ComplexifiedModel):
        (a0, a1), (b0, b1) = a, b
        return (a0 * b0 + -(a1 * b1), a0 * b1 + a1 * b0)
    if isinstance(model, QuaternionTensorModel):
        (a0, a1, a2, a3), (b0, b1, b2, b3) = a, b
        return (a0 * b0 + -(a1 * b1) + -(a2 * b2) + -(a3 * b3),
                a0 * b1 + a1 * b0 + a2 * b3 + -(a3 * b2),
                a0 * b2 + -(a1 * b3) + a2 * b0 + a3 * b1,
                a0 * b3 + a1 * b2 + -(a2 * b1) + a3 * b0)
    return tuple(x * y for x, y in zip(a, b))


def sum_in_order(terms):
    out = terms[0]
    for t in terms[1:]:
        out = out + t
    return out


def written_out_star(model, a):
    if isinstance(model, MatrixModel):
        k = range(model.k)
        return [[a[j][i].star() for j in k] for i in k]
    if isinstance(model, DirectSumModel):
        return tuple(x.star() for x in a)
    return (a[0].star(),) + tuple(-x.star() for x in a[1:])


def assert_repr_equal(got, want):
    """Equal nesting, and each ring value or coefficient repr-equal."""
    if isinstance(want, (list, tuple)):
        assert type(got) is type(want) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_repr_equal(g, w)
    elif isinstance(want, AlgebraElement):
        assert got.cocycle is want.cocycle
        assert list(map(repr, got.coeffs)) == list(map(repr, want.coeffs))
    else:
        assert repr(got) == repr(want)


@pytest.mark.parametrize("kind,ring", COMPOSITES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_laurent_composite_arithmetic_is_the_written_out_formula(kind, ring,
                                                                data):
    """mul, star, add, neg and scale_left of MatrixModel (k <= 3), the
    complexification and H (x) E (real rings) and DirectSumModel, over E
    and S(f) inners, against the products summed in l order, the unit
    tables of C and H multiplied out, and sums part by part."""
    d = LAURENT_RINGS[ring]
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "matrix":
        model = MatrixModel(int(rng.integers(1, 4)), laurent_leaf(d, rng))
    elif kind == "complexified":
        model = ComplexifiedModel(laurent_leaf(d, rng))
    elif kind == "quaternion":
        model = QuaternionTensorModel(laurent_leaf(d, rng))
    else:
        model = DirectSumModel(*(laurent_leaf(d, rng)
                                 for _ in range(rng.integers(1, 4))))
    a, b = laurent_element(model, rng), laurent_element(model, rng)
    x = laurent_value(d, rng)
    assert_repr_equal(model.mul(a, b), written_out_mul(model, a, b))
    assert_repr_equal(model.star(a), written_out_star(model, a))
    assert_repr_equal(model.add(a, b), leafwise(lambda u, v: u + v, a, b))
    assert_repr_equal(model.neg(a), leafwise(lambda u: -u, a))
    assert_repr_equal(model.scale_left(x, a), leafwise(
        lambda u: u.scale_ring(x) if isinstance(u, AlgebraElement)
        else x * u, a))


def test_corner_over_a_laurent_ring_has_no_real_dimension():
    """CornerModel.total_real_dim counts a real basis of E: none over an
    infinite-dimensional E."""
    d = laurent(1)
    f = make_f_alpha(2, [RingValue.monomial(d, 1, (1,))], d)
    assert CornerModel(generator(f, 0)).total_real_dim() is None
