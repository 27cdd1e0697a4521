"""Maps into direct sums held as one readout stack per run of copies of a
summand: the constructors that build their stacks on arrays against their
object images (rext), the stacked verifier against the one that checks one
summand at a time (rext.reference_residuals), and the certificate rule,
which counts every copy of a summand."""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rext import (readouts, reference_char_decompose,
                  reference_cyclic_decompose, reference_klein_split4,
                  reference_rank, reference_residuals, reference_z2_split)
from twistalg import (COMPLEX, QUATERNION, REAL, ComplexifiedModel,
                      DirectSumModel, MatrixModel, Morphism, RingModel,
                      RingValue, char_decompose_z2n, cyclic_decompose, dense,
                      klein_split4, lambda_isomorphism, make_f_alpha,
                      make_subset_group, matrix_ring, trivial_cocycle,
                      verify_morphism, z2_split)
from twistalg.cocycle import Lambda
from twistalg.dense import dense_residuals, residual_bound
from twistalg.rings import laurent, product_ring

RINGS = {"C": COMPLEX, "R": REAL, "H": QUATERNION, "M2": matrix_ring(2),
         "CxM2": product_ring(COMPLEX, matrix_ring(2)), "L1": laurent(1)}


def central_unitary(d, rng):
    """Signs over real rings, phases otherwise (times z^e over Laurent
    rings), per factor over products."""
    if d.kind == "product":
        return RingValue.tuple_value(d, [central_unitary(e, rng)
                                         for e in d.factors])
    if d.is_real:
        return RingValue.unit(d).scale(rng.choice([-1.0, 1.0]))
    c = np.exp(2j * np.pi * rng.random())
    if d.kind == "laurent":
        return RingValue.monomial(d, c, (int(rng.integers(-2, 3)),))
    return RingValue.unit(d).scale(c)


def assert_same_images(m, images, padding=True):
    """m's stacks are the readouts of the object images bit for bit, or,
    over Laurent rings, m's images are those images.  Without padding, the
    zeros a product ring's readout holds beside its factors' blocks may
    differ in sign: the images read off the stacks are still the object
    images bit for bit."""
    if m._summands is None:
        assert [[v.payload for v in im] for im in m.images] == [
            [v.payload for v in im] for im in images]
        return
    want = readouts(m.target, images)
    got = ([y for _, y in m._summands] if padding
           else readouts(m.target, m.images))
    assert [y.tobytes() for y in got] == [y.tobytes() for y in want]
    assert [y.shape for _, y in m._summands] == [y.shape for y in want]
    assert [y.dtype for _, y in m._summands] == [y.dtype for y in want]


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_z2_split_and_char_stacks_are_the_object_images(ring, seed):
    d, rng = RINGS[ring], np.random.default_rng(seed)
    x = central_unitary(d, rng)
    f = make_f_alpha(2, [x * x], d)
    assert_same_images(z2_split(f, x), reference_z2_split(f, x))
    for labels in ([1], [1, 2, 3], [1, 2, 3, 4]):
        f = trivial_cocycle(make_subset_group(labels), d)
        assert_same_images(char_decompose_z2n(f), reference_char_decompose(f))


@pytest.mark.parametrize("ring", ["C", "R", "H", "M2", "CxM2"])
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_klein_split4_stacks_are_the_object_images(ring, seed):
    d, rng = RINGS[ring], np.random.default_rng(seed)
    x, y, gamma = (central_unitary(d, rng) for _ in range(3))
    xx, yy = x * x * gamma.star(), y * y * gamma.star()
    m = klein_split4(yy, xx, gamma, x=x, y=y)
    assert_same_images(m, reference_klein_split4(x, y, x * y * gamma.star()))
    assert verify_morphism(m).bijective()


@pytest.mark.parametrize("ring", ["C", "CxC", "L1"])
@pytest.mark.parametrize("n", [1, 2, 5, 16])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_cyclic_decompose_stacks_are_the_object_images(ring, n, seed):
    """Each image entry is a phase times a prefactor, as four real
    products, as RingValue.scale multiplies two complex numbers."""
    d = product_ring(COMPLEX, COMPLEX) if ring == "CxC" else RINGS[ring]
    rng = np.random.default_rng(seed)
    # beta^n = prod alpha: the last parameter takes up the rest
    beta = central_unitary(d, rng) if n > 1 else RingValue.unit(d)
    alphas, last = [central_unitary(d, rng) for _ in range(n - 2)], beta
    for _ in range(n - 1):
        last = last * beta
    for a in alphas:
        last = last * a.star()
    alphas += [last][:n - 1]
    f = make_f_alpha(n, alphas, d)
    m = cyclic_decompose(f, alphas, beta)
    assert_same_images(m, reference_cyclic_decompose(f, alphas, beta),
                       padding=d.kind != "product")
    if d.is_finite:
        assert verify_morphism(m).bijective()


@pytest.mark.parametrize("d", [REAL, product_ring(COMPLEX, REAL),
                               product_ring(COMPLEX, product_ring(
                                   COMPLEX, QUATERNION))], ids=str)
def test_cyclic_decompose_refuses_a_real_factor(d):
    """A real factor holds no phase e^(2 pi i jk/n)."""
    f = make_f_alpha(3, [RingValue.unit(d)] * 2, d)
    with pytest.raises(ValueError, match="complex coefficient ring"):
        cyclic_decompose(f, [RingValue.unit(d)] * 2)


# -- the stacked verifier against one summand at a time ----------------------

def characters(g, d, a):
    """The character s -> (-1)^popcount(a & s) of a group of exponent 2,
    as ring values."""
    unit = RingValue.unit(d)
    return [-unit if (a & s).bit_count() % 2 else unit
            for s in range(g.order)]


def mixed_map(data):
    """A *-homomorphism from the constant table on subsets into a direct
    sum of drawn summands: characters into two RingModel objects, diagonal
    pairs of characters into 2 x 2 matrices, a character into the
    complexification (over R), and lambda isomorphisms onto two twisted
    models over different tables.  Repeated summands are the same model
    object, adjacent or not."""
    d = data.draw(st.sampled_from([REAL, COMPLEX]))
    g = make_subset_group(list(range(1, data.draw(st.integers(1, 3)) + 1)))
    f, rng = trivial_cocycle(g, d), np.random.default_rng(
        data.draw(st.integers(0, 2 ** 32 - 1)))
    zero = RingValue.zero(d)
    e1, e2 = RingModel(d), RingModel(d)
    twisted = []
    for _ in range(2):
        lam = Lambda(g, d, [RingValue.unit(d)] + [
            central_unitary(d, rng) for _ in range(g.order - 1)])
        m = lambda_isomorphism(f, lam)
        twisted.append((m.target, list(m.images)))
    pool = {"ring1": (e1, None), "ring2": (e2, None),
            "matrix": (MatrixModel(2, e1), None),
            "twisted1": twisted[0], "twisted2": twisted[1]}
    if d.is_real:
        pool["complex"] = (ComplexifiedModel(e1), None)
    kinds = data.draw(st.lists(st.sampled_from(sorted(pool)), min_size=1,
                               max_size=6))
    models, parts = [], []
    for kind in kinds:
        mod, images = pool[kind]
        if images is None:
            chi = [characters(g, d, int(a))
                   for a in rng.integers(g.order, size=2)]
            if kind == "matrix":
                images = [[[u, zero], [zero, v]] for u, v in zip(*chi)]
            elif kind == "complex":
                images = [(u, zero) for u in chi[0]]
            else:
                images = chi[0]
        models.append(mod)
        parts.append(images)
    target = DirectSumModel(*models)
    return f, target, [tuple(p[s] for p in parts) for s in range(g.order)]


def moved(m, eps, nan, rng):
    """m with every readout moved by up to eps, and with nan one entry
    NaN."""
    stacks = []
    for _, y in m._summands:
        y = y + rng.uniform(-eps, eps, y.shape) if eps else y.copy()
        if np.iscomplexobj(y) and eps:
            y = y + 1j * rng.uniform(-eps, eps, y.shape)
        stacks.append(y)
    if nan:
        y = stacks[rng.integers(len(stacks))]
        y[tuple(rng.integers(k) for k in y.shape)] = np.nan
    return Morphism(m.source, m.target, stacks=stacks)


def same(a, b):
    return np.array_equal(a, b, equal_nan=True) and (
        np.asarray(a).dtype == np.asarray(b).dtype)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_stacked_verifier_is_the_per_summand_loop(data):
    """Unit, product, commutation and star residuals and the rank, bit for
    bit (NaN for NaN), over mixed runs of summands, with images as built,
    moved by 1e-12 or 1e-3, or with a NaN entry."""
    f, target, images = mixed_map(data)
    m = Morphism(f, target, images)
    eps = data.draw(st.sampled_from([0, 1e-12, 1e-3]))
    nan = data.draw(st.booleans())
    m = moved(m, eps, nan, np.random.default_rng(data.draw(
        st.integers(0, 99))))
    k = sum(len(y) for _, y in m._summands)
    assert k == len(target.models) >= len(m._summands)
    rows = data.draw(st.sampled_from([None, f.group.generators, [0]]))
    unit, res, star = dense_residuals(f, m._summands, rows)
    ref_unit, ref_res, ref_star = reference_residuals(f, m, rows)
    assert same(unit, ref_unit) and same(star, ref_star)
    assert same(res, ref_res)
    with mock.patch.object(dense, "residual_bound", lambda m: np.nan):
        rep = verify_morphism(m)
    assert rep.image_rank == reference_rank(m)
    assert (rep.image_rank == -1) == nan
    if not (eps or nan):
        assert max(ref_unit, ref_res.max(), ref_star) < 1e-12


def test_copies_of_one_model_share_a_stack():
    """Runs are adjacent summands that are the same model object: equal
    but distinct models, and copies parted by another summand, are runs
    of their own."""
    d = COMPLEX
    f = trivial_cocycle(make_subset_group([1]), d)
    e, other = RingModel(d), RingModel(d)
    target = DirectSumModel(e, e, other, e, DirectSumModel(e, e))
    unit = RingValue.unit(d)
    m = Morphism(f, target, [(unit,) * 4 + ((unit, unit),)] * 2)
    assert [(mod, y.shape) for mod, y in m._summands] == [
        (e, (2, 2, 1, 1)), (other, (1, 2, 1, 1)), (e, (3, 2, 1, 1))]
    back = Morphism(f, target, stacks=[y for _, y in m._summands]).images
    assert [y.tobytes() for y in readouts(target, back)] == [
        y.tobytes() for _, y in m._summands]


@pytest.mark.parametrize("stacks", [
    [np.ones((1, 2, 1, 1), complex)],
    [np.ones((2, 1, 1), complex)] * 2,
    [],
], ids=["one copy for two", "one stack per summand", "none"])
def test_stacks_must_fit_the_runs_of_the_target(stacks):
    """Two copies of C take one stack (2, n, 1, 1): a stack of one copy
    verified as a map of rank 2 of 4, a stack (n, 1, 1) per summand and no
    stacks at all failed inside the verifier."""
    d = COMPLEX
    f = trivial_cocycle(make_subset_group([1]), d)
    e = RingModel(d)
    Morphism(f, DirectSumModel(e, e), stacks=[np.ones((2, 2, 1, 1), complex)])
    with pytest.raises(ValueError, match="one readout stack"):
        Morphism(f, DirectSumModel(e, e), stacks=stacks)


def test_a_nan_unit_residual_of_any_copy_refuses_the_map():
    """The unit residual is NaN when the unit image of any copy is, not
    only of the first: the maximum over the copies keeps NaN."""
    d = COMPLEX
    f = trivial_cocycle(make_subset_group([1]), d)
    e = RingModel(d)
    y = np.ones((2, 2, 1, 1), complex)
    y[1, 0] = np.nan
    m = Morphism(f, DirectSumModel(e, e), stacks=[y])
    assert np.isnan(dense_residuals(f, m._summands)[0])
    rep = verify_morphism(m)
    assert np.isnan(rep.unit_residual) and rep.image_rank == -1
    assert not rep.ok()


# -- the certificate rule counts every copy ----------------------------------

def test_large_direct_sums_take_the_generator_certificate():
    """cyclic_decompose at order 64: the 64 copies of C make the full check
    more than one block, so the rows of the generators are multiplied and
    the bound covers every row; at order 16 all rows are."""
    rng = np.random.default_rng(64)
    for n, rows in ((16, "all"), (64, "generators")):
        alphas = [RingValue.scalar(COMPLEX, np.exp(2j * np.pi * x))
                  for x in rng.random(n - 1)]
        m = cyclic_decompose(make_f_alpha(n, alphas), alphas)
        rep = verify_morphism(m)
        assert rep.rows == rows and rep.bijective()
        unit, res, star = dense_residuals(m.source, m._summands)
        full = max(unit, float(res[:, :2].max()), star)
        if rows == "generators":
            assert full <= rep.residual_bound <= 1e-9


def test_the_bound_reads_every_copy():
    """Two copies of C on the subsets of three labels: the images of the
    first are 1, those of the second 1 but V_7 -> 10, whose row 7 at 7 is
    99; only that copy's image norms account for it."""
    d = COMPLEX
    f = trivial_cocycle(make_subset_group([1, 2, 3]), d)
    e, one = RingModel(d), RingValue.unit(d)
    m = Morphism(f, DirectSumModel(e, e), [
        (one, RingValue.scalar(d, 10 if s == 7 else 1)) for s in range(8)])
    unit, res, star = dense_residuals(f, m._summands)
    assert max(unit, res[:, :2].max(), star) == 99
    assert residual_bound(m) >= 99
