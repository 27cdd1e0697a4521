import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalg import (COMPLEX, QUATERNION, REAL, AlgebraElement, CliffordSpec,
                      MatrixModel, Morphism, QuaternionTensorModel, RingValue,
                      TwistedModel, alg_mul, alg_star, clifford_cocycle,
                      complexify_odd, corner_projection, cyclic_decompose,
                      dense, extend_even_projection, extend_two_matrix,
                      extend_two_quaternion, generator, is_projection,
                      laurent, make_f_alpha, matrix_corner_elements,
                      matrix_ring, product_ring, projection_family,
                      regular_matrix, split_odd, transposition_sign, unit,
                      universal_map, validate, verify_morphism)
from twistalg.isolab import ComplexifiedModel, RingModel

from rext import readouts, reference_extension, reference_split_images
from rmat import rmat_adjoint, rmat_mul, rmat_residual

ONE_C = RingValue.unit(COMPLEX)
ONE_R = RingValue.unit(REAL)


def cspec(values, d=COMPLEX):
    vals = [RingValue.scalar(d, v) for v in values]
    return CliffordSpec(list(range(1, len(vals) + 1)), vals, d)


def bubble_sign(word):
    # parity of a full bubble sort of the concatenated word
    word = list(word)
    sign = 1
    for i in range(len(word)):
        for j in range(len(word) - 1 - i):
            if word[j] > word[j + 1]:
                word[j], word[j + 1] = word[j + 1], word[j]
                sign = -sign
    return sign


def test_transposition_sign_matches_bubble_sort():
    labels = [1, 2, 3, 4]
    for ka in range(4):
        for kb in range(4):
            for a in itertools.combinations(labels, ka):
                for b in itertools.combinations(labels, kb):
                    assert transposition_sign(a, b) == bubble_sign(
                        list(a) + list(b))


def test_clifford_cocycle_small_oracle():
    # two generators, rho = (r1, r2); subset masks: 1={1}, 2={2}, 3={1,2}
    r1, r2 = np.exp(0.4j), np.exp(-1.1j)
    spec = cspec([r1, r2])
    f = clifford_cocycle(spec)
    assert validate(f).ok
    assert complex(f.values[1][1].payload) == pytest.approx(r1)
    assert complex(f.values[2][2].payload) == pytest.approx(r2)
    # f({1},{2}) = 1 (no crossing), f({2},{1}) = -1 (one crossing)
    assert complex(f.values[1][2].payload) == pytest.approx(1)
    assert complex(f.values[2][1].payload) == pytest.approx(-1)
    # f({1,2},{1,2}): two crossings of value (-1)^1, times r1 r2
    assert complex(f.values[3][3].payload) == pytest.approx(-r1 * r2)


def test_clifford_cocycle_validates_larger():
    rng = np.random.default_rng(0)
    spec = cspec(np.exp(1j * rng.uniform(0, 6.28, 5)))
    assert validate(clifford_cocycle(spec)).ok


def reference_clifford_cocycle(spec):
    """The per-pair definition: the product of rho over A cap B in
    ascending order, negated when merging A before B takes an odd number
    of transpositions."""
    n = 1 << spec.size
    vals = []
    for a in range(n):
        row = []
        for b in range(n):
            v = RingValue.unit(spec.descriptor)
            tau = 0
            for i in range(spec.size):
                if (a & b) >> i & 1:
                    v = v * spec.values[i]
                if a >> i & 1:
                    tau += bin(b & ((1 << i) - 1)).count("1")
            row.append(-v if tau % 2 else v)
        vals.append(row)
    return vals


def payload_bits(v):
    """The payload of a ring value, bit for bit."""
    p = v.payload
    if isinstance(p, tuple):
        return tuple(payload_bits(c) for c in p)
    if isinstance(p, dict):
        return sorted((e, np.complex128(c).tobytes()) for e, c in p.items())
    p = np.asarray(p)
    return p.dtype.str, p.shape, p.tobytes()


def central_phase(d, rng):
    """A central unitary: a sign over real rings, a phase times 1 (times a
    monomial z^e over Laurent rings) otherwise, per factor over products."""
    if d.kind == "product":
        return RingValue.tuple_value(
            d, [central_phase(f, rng) for f in d.factors])
    if d.is_real:
        return RingValue.unit(d).scale(rng.choice([-1.0, 1.0]))
    c = np.exp(1j * rng.uniform(0, 6.3))
    if d.kind == "laurent":
        return RingValue.monomial(d, c, rng.integers(-3, 4, d.m))
    return RingValue.unit(d).scale(c)


@pytest.mark.parametrize("d", [
    COMPLEX, REAL, QUATERNION, laurent(2), matrix_ring(2),
    product_ring(COMPLEX, matrix_ring(2))],
    ids=["complex", "real", "quaternion", "laurent", "m2c", "c_x_m2c"])
def test_clifford_cocycle_matches_per_pair_products(d):
    rng = np.random.default_rng(7)
    for size in range(7):
        spec = CliffordSpec(list(range(1, size + 1)),
                            [central_phase(d, rng) for _ in range(size)], d)
        got = clifford_cocycle(spec).values
        want = reference_clifford_cocycle(spec)
        assert [[payload_bits(v) for v in row] for row in got] == [
            [payload_bits(v) for v in row] for row in want]


def test_generator_relations():
    spec = cspec([1, -1, 1j])
    f = clifford_cocycle(spec)
    for i in range(3):
        vi = generator(f, 1 << i)
        sq = alg_mul(vi, vi)
        assert sq.close(unit(f).scale_ring(spec.rho(i)))
        assert alg_star(vi).close(vi.scale_ring(spec.rho(i).star()))
        for j in range(i):
            vj = generator(f, 1 << j)
            assert (alg_mul(vi, vj) + alg_mul(vj, vi)).is_zero()


def test_square_of_full_word():
    # V_A^2 = f(A,A) V_0 with f(A,A) = (-1)^{k(k-1)/2} prod rho_i, k = |A|
    rng = np.random.default_rng(1)
    rhos = np.exp(1j * rng.uniform(0, 6.28, 4))
    spec = cspec(rhos)
    f = clifford_cocycle(spec)
    for mask in range(16):
        k = mask.bit_count()
        prod = np.prod([rhos[i] for i in range(4) if mask >> i & 1]) \
            if mask else 1.0
        want = (-1) ** (k * (k - 1) // 2) * prod
        va = generator(f, mask)
        sq = alg_mul(va, va)
        assert complex(sq.coeffs[0].payload) == pytest.approx(complex(want))
        assert all(c.is_zero() for t, c in enumerate(sq.coeffs) if t != 0)


def test_commutation_sign():
    # V_A V_B = (-1)^(|A||B| - |A cap B|) V_B V_A
    spec = cspec([1, -1, 1j, -1j])
    f = clifford_cocycle(spec)
    for a in range(16):
        for b in range(16):
            sign = (-1) ** (a.bit_count() * b.bit_count()
                            - (a & b).bit_count())
            lhs = alg_mul(generator(f, a), generator(f, b))
            rhs = alg_mul(generator(f, b), generator(f, a)).scale(sign)
            assert all(p.close(q) for p, q in zip(lhs.coeffs, rhs.coeffs))


def test_spec_rejections():
    with pytest.raises(ValueError):
        cspec([2.0])                       # not unitary
    with pytest.raises(ValueError):
        CliffordSpec([1], [ONE_C, ONE_C], COMPLEX)
    with pytest.raises(ValueError):
        cspec([1] * 9)                     # label cap


# -- universal property ----------------------------------------------------

def test_universal_map_identity():
    spec = cspec([1, 1j])
    f = clifford_cocycle(spec)
    target = TwistedModel(f)
    m = universal_map(spec, [generator(f, 1), generator(f, 2)], target)
    assert verify_morphism(m).bijective()


def test_universal_map_quaternions():
    # |S| = 2, rho = (-1, -1) over R: i, j generate H
    spec = cspec([-1, -1], REAL)
    target = QuaternionTensorModel(RingModel(REAL))
    z = RingValue.zero(REAL)
    i = (z, ONE_R, z, z)
    j = (z, z, ONE_R, z)
    m = universal_map(spec, [i, j], target)
    assert verify_morphism(m).bijective()


def test_universal_map_names_offending_relation():
    spec = cspec([1, 1])
    f = clifford_cocycle(spec)
    target = TwistedModel(f)
    with pytest.raises(ValueError, match="x_1 fails the product check"):
        universal_map(spec, [generator(f, 1).scale(2.0), generator(f, 2)],
                      target)
    # x_2 = V_1 commutes with x_1 = V_1
    with pytest.raises(ValueError, match="x_2 fails the product check"):
        universal_map(spec, [generator(f, 1), generator(f, 1)], target)
    # squares to 1 but is not self-adjoint
    x = [[RingValue.zero(COMPLEX), ONE_C.scale(2.0)],
         [ONE_C.scale(0.5), RingValue.zero(COMPLEX)]]
    with pytest.raises(ValueError, match="x_1 fails the star check"):
        universal_map(cspec([1]), [x], MatrixModel(2, RingModel(COMPLEX)))


def test_universal_map_refuses_images_that_do_not_commute_with_e():
    # j squares to rho = -1 and j^* = rho^* j, but |j i - i j| = 2
    j = RingValue.quaternion([0, 0, 1, 0])
    with pytest.raises(ValueError, match="x_1 fails the commutation with E "
                                         "check \\(residual 2\\)"):
        universal_map(cspec([-1], QUATERNION), [j], RingModel(QUATERNION))


@pytest.mark.parametrize("build, cls", [
    (lambda s: extend_two_matrix(s, ONE_R, -ONE_R), MatrixModel),
    (lambda s: extend_two_quaternion(s, ONE_R, -ONE_R),
     QuaternionTensorModel),
    (complexify_odd, ComplexifiedModel),
], ids=["matrix", "quaternion", "complexify"])
@pytest.mark.parametrize("size", [0, 2, 4])
def test_universal_map_multiplies_only_to_extend(monkeypatch, build, cls,
                                                 size):
    """One product per element of the extended group that is neither the
    identity nor a generator, on readouts: the target's object mul never
    runs, and its dense form is taken of n - 1 - k frontier rows for the
    products plus the k generator rows whose relations are checked."""
    calls, rows = [], []
    mul, dense = cls.mul, cls.dense

    def counted(self, a, b):
        calls.append(1)
        return mul(self, a, b)

    def counted_dense(self, y):
        rows.append(len(y))
        return dense(self, y)

    monkeypatch.setattr(cls, "mul", counted)
    monkeypatch.setattr(cls, "dense", counted_dense)
    m = build(cspec([1, -1, -1, 1][:size], REAL))
    assert calls == [] and sum(rows) == m.source.group.order - 1
    assert verify_morphism(m).bijective()


def ordered_products(m):
    """V_A -> prod_{s in A, ascending} x_s from the unit, one product per
    set bit, with x_s = m.images[{s}]: the reference for universal_map's
    breadth-first images."""
    tgt, n = m.target, m.source.group.order
    gens = [m.images[1 << i] for i in range(n.bit_length() - 1)]
    out = []
    for mask in range(n):
        acc = tgt.unit()
        for i, x in enumerate(gens):
            if mask >> i & 1:
                acc = tgt.mul(acc, x)
        out.append(acc)
    return out


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(["matrix", "quaternion", "complexify"]),
       st.sampled_from([0, 2, 4]), st.data())
def test_universal_map_images_match_ordered_products(kind, size, data):
    """The periodicity maps' images equal the ordered products exactly,
    over R and C (quaternion and complexify need R)."""
    field = "real" if kind != "matrix" else data.draw(
        st.sampled_from(["real", "complex"]))
    d = REAL if field == "real" else COMPLEX

    def central_unitary():
        if field == "real":
            return RingValue.scalar(d, data.draw(st.sampled_from([-1, 1])))
        return RingValue.scalar(d, np.exp(1j * data.draw(st.floats(0, 6.3))))

    spec = CliffordSpec(list(range(1, size + 1)),
                        [central_unitary() for _ in range(size)], d)
    if kind == "complexify":
        m = complexify_odd(spec)
    else:
        build = extend_two_matrix if kind == "matrix" else extend_two_quaternion
        m = build(spec, central_unitary(), central_unitary())
    for got, want in zip(m.images, ordered_products(m)):
        assert m.target.slots(got) == m.target.slots(want)


PERIODICITY_CASES = [("matrix", REAL), ("matrix", COMPLEX),
                     ("matrix", QUATERNION), ("quaternion", REAL),
                     ("complexify", REAL), ("split", REAL), ("split", COMPLEX)]


@pytest.mark.parametrize("size", [0, 2, 4])
@pytest.mark.parametrize("op,d", PERIODICITY_CASES,
                         ids=[f"{op}-{d}" for op, d in PERIODICITY_CASES])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_periodicity_readouts_equal_the_object_references(op, d, size, data):
    """Every periodicity map's readouts, built in batches, equal bit for bit
    those of its images built one object operation at a time (rext)."""
    def central_unitary():
        if d == COMPLEX:
            return RingValue.scalar(d, np.exp(1j * data.draw(st.floats(0, 6.3))))
        return RingValue.scalar(d, data.draw(st.sampled_from([-1, 1])))

    spec = CliffordSpec(list(range(1, size + 1)),
                        [central_unitary() for _ in range(size)], d)
    if op == "split":
        _, _, pair, m = split_odd(spec)
        want = reference_split_images(pair)
    else:
        if op == "complexify":
            m = complexify_odd(spec)
        else:
            build = extend_two_matrix if op == "matrix" else \
                extend_two_quaternion
            m = build(spec, central_unitary(), central_unitary())
        k = m.source.group.order.bit_length() - 1
        want = reference_extension(m.source, {1 << i: m.images[1 << i]
                                              for i in range(k)}, m.target)
    got = [y for _, y in m._summands]
    assert [y.tobytes() for y in got] == [
        y.tobytes() for y in readouts(m.target, want)]
    assert [y.dtype for y in got] == [y.dtype for y in readouts(m.target,
                                                               want)]


def test_readout_built_images_are_read_only():
    """A map built from readouts builds its images only when read, as a
    tuple that cannot be assigned to, and keeps its readouts read-only."""
    m = extend_two_matrix(cspec([1, -1]), ONE_C, ONE_C)
    assert m._images is None
    images = m.images
    assert isinstance(images, tuple) and m.images is images
    with pytest.raises(AttributeError):
        m.images = list(images)
    with pytest.raises(TypeError):
        m.images[0] = images[1]
    y = m._summands[0][1]
    with pytest.raises(ValueError):
        y[0, 0, 0] = 2.0
    assert verify_morphism(m).bijective()


# -- projection families ---------------------------------------------------

def test_corner_projection():
    spec = cspec([1, 1])
    f = clifford_cocycle(spec)
    # t = {1,2} has f(t,t) = -1, so alpha must satisfy alpha* = -alpha
    p, q = corner_projection(f, 3, RingValue.scalar(COMPLEX, 1j))
    assert is_projection(p) and is_projection(q)
    assert (p + q).close(unit(f))


def test_projection_family_multi():
    # m anticommuting singleton-extension words; X_i = 1/(2 sqrt m) alpha_i*
    spec = cspec([1, 1, -1])
    f = clifford_cocycle(spec)
    # {1,2,3} pairs oddly with itself only; use singletons {1}, {2} plus
    # {1,2,3}: |s||t| - |s cap t| must be odd for each pair
    entries = []
    for t, alpha in ((1, 1.0), (2, 1.0)):
        entries.append((t, 1, RingValue.scalar(COMPLEX, alpha / (2 *
                                                                 np.sqrt(2)))))
    p, q = projection_family(f, entries)
    assert is_projection(p)
    assert alg_mul(p, q).is_zero()


def test_projection_family_rejections():
    spec = cspec([1, 1])
    f = clifford_cocycle(spec)
    half = ONE_C.scale(0.5)
    with pytest.raises(ValueError, match="identity"):
        projection_family(f, [(0, 1, half)])
    with pytest.raises(ValueError, match="X\\* = f"):
        # t = {1}: f(t,t) = 1 but X chosen anti-selfadjoint
        projection_family(f, [(1, 1, ONE_C.scale(0.5j))])
    with pytest.raises(ValueError, match="1/4"):
        projection_family(f, [(1, 1, ONE_C.scale(0.3))])
    with pytest.raises(ValueError, match="anticommute"):
        # {1} and {2,3} pair evenly: 1*2 - 0 = 2
        spec3 = cspec([1, 1, 1])
        f3 = clifford_cocycle(spec3)
        c = ONE_C.scale(1 / (2 * np.sqrt(2)))
        # f({2,3},{2,3}) = -1, so the second coefficient must be 1j c
        projection_family(f3, [(1, 1, c), (6, 1, c.scale(1j))])


# -- periodicity -----------------------------------------------------------

@pytest.mark.parametrize("base", [[], [1, -1]])
def test_extend_two_matrix(base):
    spec = cspec(base)
    a1, a2 = RingValue.scalar(COMPLEX, np.exp(0.2j)), \
        RingValue.scalar(COMPLEX, np.exp(-0.7j))
    m = extend_two_matrix(spec, a1, a2)
    assert verify_morphism(m).bijective()


def test_matrix_corner_elements():
    spec = cspec([1, -1])
    a1 = RingValue.scalar(COMPLEX, np.exp(0.2j))
    a2 = RingValue.scalar(COMPLEX, np.exp(1.1j))
    p, q = matrix_corner_elements(spec, a1, a2)
    assert is_projection(p) and is_projection(q)
    assert (p + q).close(unit(p.cocycle))
    # images under the matrix extension are the diagonal matrix units
    m = extend_two_matrix(spec, a1, a2)
    im = m.apply(p)
    inner = m.target.inner
    assert inner.diff(im[0][0], inner.unit()) < 1e-12
    assert inner.diff(im[1][1], inner.zero()) < 1e-12


@pytest.mark.parametrize("base", [[], [1, -1]])
def test_extend_two_quaternion(base):
    spec = cspec(base, REAL)
    a1 = RingValue.scalar(REAL, 1.0)
    a2 = RingValue.scalar(REAL, -1.0)
    m = extend_two_quaternion(spec, a1, a2)
    assert verify_morphism(m).bijective()


@pytest.mark.parametrize("base", [[], [1, -1], [-1, -1]])
def test_complexify_odd(base):
    spec = cspec(base, REAL)
    m = complexify_odd(spec)
    assert verify_morphism(m).bijective()


@pytest.mark.parametrize("base", [[], [1, -1]])
def test_split_odd(base):
    spec = cspec(base)
    p_plus, p_minus, pair, m = split_odd(spec)
    f2 = p_plus.cocycle
    assert is_projection(p_plus) and is_projection(p_minus)
    assert (p_plus + p_minus).close(unit(f2))
    assert alg_mul(p_plus, p_minus).is_zero()
    assert verify_morphism(m).bijective()


def test_split_odd_isometry_identities():
    spec = cspec([1, -1])
    p_plus, p_minus, pair, _ = split_odd(spec)
    f2 = pair.source_f
    n1 = pair.base_f.group.order
    eye = [[RingValue.unit(COMPLEX) if i == j else RingValue.zero(COMPLEX)
            for j in range(n1)] for i in range(n1)]
    for sign, p in ((1, p_plus), (-1, p_minus)):
        th = pair.theta(sign)
        assert rmat_residual(rmat_mul(rmat_adjoint(th), th), eye) < 1e-12
        pp = regular_matrix(p).entries
        assert rmat_residual(rmat_mul(th, rmat_adjoint(th)), pp) < 1e-12
    # theta_+- V_A theta_+-* conjugation is a homomorphism onto the base
    x = generator(f2, 1)
    y = generator(f2, 2)
    for sign in (1, -1):
        cx = pair.conjugate(x, sign)
        cy = pair.conjugate(y, sign)
        cxy = pair.conjugate(alg_mul(x, y), sign)
        assert all(p.close(q) for p, q in
                   zip(alg_mul(cx, cy).coeffs, cxy.coeffs))


def test_split_odd_central_sign():
    # V_{S'} acts as +-1 on the two corners
    spec = cspec([1, -1])
    p_plus, p_minus, pair, _ = split_odd(spec)
    f2 = pair.source_f
    vs = generator(f2, f2.group.order - 1)      # full extended word
    for sign, p in ((1, p_plus), (-1, p_minus)):
        prod = alg_mul(vs, p)
        want = p.scale(sign)
        assert all(a.close(b) for a, b in zip(prod.coeffs, want.coeffs))


@pytest.mark.parametrize("m", [1, 2])
def test_extend_even_projection_full_corner(m):
    spec = cspec([1, -1])
    alphas = [RingValue.scalar(COMPLEX, np.exp(0.3j * (i + 1)))
              for i in range(m)]
    p, phi = extend_even_projection(spec, m, alphas)
    assert is_projection(p)
    assert phi.target.unit() is p
    rep = verify_morphism(phi)
    assert rep.bijective()
    assert rep.mult_residual < 1e-12 and rep.star_residual < 1e-12
    assert rep.unit_residual <= 1e-12
    assert rep.image_rank == rep.target_dim == 8


def test_extend_even_projection_m3():
    # three extra generators: the corner is larger than the image
    spec = cspec([])
    alphas = [ONE_C, ONE_C, ONE_C]
    p, phi = extend_even_projection(spec, 3, alphas)
    assert is_projection(p)
    rep = verify_morphism(phi)
    assert rep.ok() and rep.injective
    assert rep.mult_residual < 1e-12 and rep.star_residual < 1e-12
    assert rep.unit_residual <= 1e-12
    assert rep.surjective is False
    assert rep.image_rank == 2 < rep.target_dim == 4


def test_extend_even_projection_unit_residual_is_measured():
    # V_0 mapped to the unit V_0 of S(rho'), not to the corner's unit P:
    # V_0 - P has coefficients 1/2 and -1/2 alpha*
    p, phi = extend_even_projection(cspec([1, -1]), 1, [ONE_C])
    images = (generator(p.cocycle, 0),) + phi.images[1:]
    rep = verify_morphism(Morphism(phi.source, phi.target, images))
    assert rep.unit_residual == pytest.approx(0.5)
    assert not rep.ok()


def test_double_matrix_extension_composes():
    # iterating the matrix extension gives 2 x 2 over 2 x 2 over the base
    spec0 = cspec([])
    one = ONE_C
    m1 = extend_two_matrix(spec0, one, one)
    spec1 = cspec([1, -1])               # rho after the first extension
    m2 = extend_two_matrix(spec1, one, one)
    assert verify_morphism(m1).bijective()
    assert verify_morphism(m2).bijective()


def test_periodicity_requires_even_base():
    spec = cspec([1])
    with pytest.raises(ValueError, match="even"):
        extend_two_matrix(spec, ONE_C, ONE_C)
    with pytest.raises(ValueError, match="even"):
        split_odd(spec)


def rmat_conjugate(pair, y, sign):
    """theta* regular(y) theta through rmat_mul, read on the identity
    column: the dense reference for IsometryPair.conjugate."""
    th = pair.theta(sign)
    tm = rmat_mul(rmat_adjoint(th), rmat_mul(regular_matrix(y).entries, th))
    return [row[pair.base_f.group.identity] for row in tm]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from(["complex", "real", "laurent"]), st.sampled_from([0, 2]),
       st.data())
def test_split_odd_sparse_conjugate_matches_rmat(kind, size, data):
    d = {"complex": COMPLEX, "real": REAL, "laurent": laurent(1)}[kind]

    def central_unitary():
        if kind == "complex":
            return RingValue.scalar(d, np.exp(1j * data.draw(st.floats(0, 6.3))))
        if kind == "real":
            return RingValue.scalar(d, data.draw(st.sampled_from([-1, 1])))
        return RingValue.monomial(d, data.draw(st.sampled_from([1, -1, 1j])),
                                  (data.draw(st.integers(-2, 2)),))

    spec = CliffordSpec(list(range(1, size + 1)),
                        [central_unitary() for _ in range(size)], d)
    _, _, pair, m = split_odd(spec)
    f2 = pair.source_f
    for t in range(f2.group.order):
        for k, sign in enumerate((1, -1)):
            assert m.images[t][k].coeffs == rmat_conjugate(
                pair, generator(f2, t), sign)
    # an element with every coefficient nonzero
    y = AlgebraElement(f2, [central_unitary() for _ in range(f2.group.order)])
    for sign in (1, -1):
        assert pair.conjugate(y, sign).coeffs == rmat_conjugate(pair, y, sign)


def order_64_cyclic_decompose():
    rng = np.random.default_rng(64)
    alphas = [RingValue.scalar(COMPLEX, np.exp(2j * np.pi * x))
              for x in rng.random(63)]
    return cyclic_decompose(make_f_alpha(64, alphas), alphas)


def test_verify_morphism_memory_is_bounded():
    # order 64 over R: about 0.5 MB a block of rows at a time, 8.5 MB with
    # all 64 rows in one block
    spec = cspec([1, -1, -1, 1], REAL)
    m = extend_two_quaternion(spec, ONE_R, -ONE_R)
    tracemalloc.start()
    try:
        rep = verify_morphism(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.bijective()
    assert rep.rows == "generators"
    assert peak <= 1.5e6


@pytest.mark.parametrize("rows", ["generators", "all"])
def test_verify_cyclic_decompose_memory_is_bounded(rows):
    # the 64 copies of C of the order-64 cyclic decomposition count in each
    # block's budget, as built (the generator certificate, 0.4 MB) and with
    # every row checked (1.1 MB)
    m = order_64_cyclic_decompose()
    verify_morphism(order_64_cyclic_decompose())    # load what it uses
    bound = mock.patch.object(dense, "residual_bound", lambda m: np.nan)
    tracemalloc.start()
    try:
        if rows == "all":
            with bound:
                rep = verify_morphism(m)
        else:
            rep = verify_morphism(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.bijective()
    assert rep.rows == rows
    assert peak <= 1.5e6


@pytest.mark.parametrize("rows", [range(6), range(64)])
def test_verifier_products_hold_two_arrays(rows):
    """A block of rows of the product check holds its products and one more
    array of their size: the order-64 extend_two_matrix map over R takes
    about 0.31 MB for six rows and for all 64, where the products, a
    gathered copy of the images and the cocycle's action on it were held at
    once (0.50 MB; 0.60 MB traced step by step)."""
    from twistalg.dense import dense_residuals
    m = extend_two_matrix(cspec([1, -1, -1, 1], REAL), ONE_R, -ONE_R)
    dense_residuals(m.source, m._summands, rows)     # load what it uses
    tracemalloc.start()
    try:
        unit, res, star = dense_residuals(m.source, m._summands, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert unit == res[:, :3].max() == star == 0
    assert peak <= 0.42e6
