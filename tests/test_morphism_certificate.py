"""The generator certificate of verify_morphism against the full check.

dense.residual_bound proves a bound on every residual of every row of a
morphism from the rows of the source group's generators; verify_morphism
reports it (rows "generators") instead of checking every row wherever it is
within tol.  Every bound must be at least the full check's largest residual,
and every verdict must equal the full check's.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalg import (COMPLEX, KLEIN_A, QUATERNION, REAL, CliffordSpec,
                      Morphism, RingModel, RingValue, SchurFunction,
                      char_decompose_z2n, complexify_odd, cyclic_decompose,
                      dense, direct_product, extend_two_matrix,
                      extend_two_quaternion, identity_morphism,
                      klein_complex_pair, klein_matrix, klein_quaternion,
                      klein_split4, lambda_isomorphism, make_cyclic,
                      make_f_alpha, make_subset_group, matrix_ring,
                      split_odd, trivial_cocycle, verify_morphism,
                      z2_complexify, z2_split, z2z4_decompose)
from twistalg.cocycle import Lambda
from twistalg.dense import dense_residuals, residual_bound

RINGS = {"R": REAL, "C": COMPLEX, "H": QUATERNION, "M2": matrix_ring(2)}
GROUPS = {"Z/4": make_cyclic(4), "Z/6": make_cyclic(6),
          "Z2^3": make_subset_group([1, 2, 3]),
          "Z2xZ4": direct_product(make_cyclic(2), make_cyclic(4))}


def full_check(m):
    """The largest unit, product and commutation, and star residuals over
    every row."""
    unit, res, star = dense_residuals(m.source, m._summands)
    return max(unit, float(res[:, :2].max()), star)


def certified(m, tol=1e-9):
    """verify_morphism wherever the proof applies: with rows of one entry a
    block, every map's full check would take more than one block."""
    with mock.patch.object(dense, "VERIFY_ENTRIES", 1):
        return verify_morphism(m, tol)


def uncertified(m, tol=1e-9):
    """verify_morphism with every row checked."""
    with mock.patch.object(dense, "residual_bound", lambda m: np.nan):
        return verify_morphism(m, tol)


def assert_same_verdict(m, tol=1e-9):
    rep, ref = certified(m, tol), uncertified(m, tol)
    assert ref.rows == "all" and ref.residual_bound is None
    for key in ("image_rank", "injective", "surjective", "source_dim",
                "target_dim", "unit_residual", "star_residual"):
        assert getattr(rep, key) == getattr(ref, key), key
    assert rep.ok(tol) == ref.ok(tol)
    assert rep.bijective(tol) == ref.bijective(tol)
    if rep.rows == "generators":
        assert ref.mult_residual <= rep.residual_bound <= tol
        assert rep.mult_residual <= ref.mult_residual
    else:
        assert rep == ref
    return rep


# -- random maps -------------------------------------------------------------

def centre_table(g, d, rng):
    """A coboundary of random central unitaries (signs over R and H) on g,
    held as its centre, with f(e, t) = f(t, e) = 1 exactly."""
    if d.is_real:
        lam = rng.choice([-1.0, 1.0], g.order)
    else:
        lam = np.exp(2j * np.pi * rng.random(g.order))
    lam[0] = 1
    c = lam[:, None] * lam[None, :] * lam[g.mul].conj()
    c[0] = c[:, 0] = 1
    return SchurFunction(g, d, c)


def random_map(kind, d, rng):
    """A morphism as built: the identity of a random centre table, a
    lambda isomorphism, or a Clifford periodicity map (over R and C)."""
    g = GROUPS[list(GROUPS)[rng.integers(len(GROUPS))]]
    if kind == "identity":
        return identity_morphism(centre_table(g, d, rng))
    if kind == "lambda":
        f = centre_table(g, d, rng)
        unit = RingValue.unit(d)
        lam = [unit] + [unit.scale(rng.choice([-1.0, 1.0]) if d.is_real
                                   else np.exp(2j * np.pi * rng.random()))
                        for _ in range(g.order - 1)]
        return lambda_isomorphism(f, Lambda(g, d, lam))
    sign = lambda: RingValue.unit(d).scale(rng.choice([-1.0, 1.0]))
    spec = CliffordSpec([1, 2], [sign(), sign()], d)
    if kind == "matrix":
        return extend_two_matrix(spec, sign(), sign())
    if kind == "quaternion":
        return extend_two_quaternion(spec, sign(), sign())
    return complexify_odd(spec) if kind == "complexify" else split_odd(
        spec)[3]


def perturbed(m, eps, rng):
    """m with every readout moved by up to eps."""
    if not eps:
        return m
    stacks = []
    for _, y in m._summands:
        noise = rng.uniform(-eps, eps, y.shape)
        if np.iscomplexobj(y):
            noise = noise + 1j * rng.uniform(-eps, eps, y.shape)
        stacks.append(y + noise)
    return Morphism(m.source, m.target, stacks=stacks)


KINDS = {"R": ["identity", "lambda", "matrix", "quaternion", "complexify",
               "split"],
         "C": ["identity", "lambda", "matrix", "split"],
         "H": ["identity", "lambda"], "M2": ["identity", "lambda"]}


@pytest.mark.parametrize("ring", RINGS)
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_the_bound_covers_the_full_check(ring, data):
    """Maps as built, and with images moved by 1e-12 and by 1e-3: the
    bound, where the proof applies, is at least every residual of every
    row, and the verdicts at tol 1e-9, 1e-6 and 1 equal the full check's."""
    d, rng = RINGS[ring], np.random.default_rng(data.draw(st.integers(0, 99)))
    kind = data.draw(st.sampled_from(KINDS[ring]))
    m = random_map(kind, d, rng)
    m = perturbed(m, data.draw(st.sampled_from([0, 1e-12, 1e-3])), rng)
    bound = residual_bound(m)
    if kind == "identity":
        assert np.isfinite(bound)        # centre tables: the proof applies
    if np.isfinite(bound):
        assert bound >= full_check(m)
    for tol in (1e-9, 1e-6, 1.0):
        assert_same_verdict(m, tol)


# -- every constructor -------------------------------------------------------

def phases(rng, k):
    return [RingValue.scalar(COMPLEX, np.exp(2j * np.pi * x))
            for x in rng.random(k)]


def iso_map(name, rng):
    """Each named constructor of the iso subcommand, with the parameters
    of the benchmark's jobs."""
    one = RingValue.unit(REAL)
    if name == "identity":
        return identity_morphism(make_f_alpha(16, phases(rng, 15)))
    if name == "lambda":
        f = make_f_alpha(8, phases(rng, 7))
        return lambda_isomorphism(f, Lambda(f.group, COMPLEX, [
            RingValue.unit(COMPLEX)] + phases(rng, 7)))
    if name == "z2_split":
        return z2_split(make_f_alpha(2, phases(rng, 1)))
    if name == "z2_complexify":
        return z2_complexify(make_f_alpha(2, [-one], REAL))
    if name == "klein_split4":
        return klein_split4(*phases(rng, 3))
    if name == "klein_matrix":
        return klein_matrix(*phases(rng, 3))
    g = one.scale(rng.choice([-1.0, 1.0]))
    if name == "klein_complex_pair":
        return klein_complex_pair(g, -g, g, variant=1)
    if name == "klein_quaternion":
        return klein_quaternion(g, -g, g)
    if name == "char_decompose_z2n":
        return char_decompose_z2n(trivial_cocycle(
            make_subset_group([1, 2, 3]), COMPLEX))
    if name == "cyclic_decompose":
        alphas = phases(rng, 15)
        return cyclic_decompose(make_f_alpha(16, alphas), alphas)
    return z2z4_decompose()


ISO = ["identity", "lambda", "z2_split", "z2_complexify", "klein_split4",
       "klein_matrix", "klein_complex_pair", "klein_quaternion",
       "char_decompose_z2n", "cyclic_decompose", "z2z4_decompose"]


@pytest.mark.parametrize("name", ISO)
@pytest.mark.parametrize("seed", [1, 2])
def test_every_iso_constructor_keeps_its_verdict(name, seed):
    assert_same_verdict(iso_map(name, np.random.default_rng(seed)))


def clifford_map(op, ring, size, rng):
    d = RINGS[ring]
    if ring == "R":
        units = [RingValue.unit(d).scale(s)
                 for s in rng.choice([-1.0, 1.0], size + 2)]
    else:
        units = phases(rng, size + 2)
    spec = CliffordSpec(list(range(1, size + 1)), units[:size], d)
    if op == "extend_two_matrix":
        return extend_two_matrix(spec, *units[size:])
    if op == "extend_two_quaternion":
        return extend_two_quaternion(spec, *units[size:])
    return complexify_odd(spec) if op == "complexify_odd" else split_odd(
        spec)[3]


@pytest.mark.parametrize("op,ring", [
    ("extend_two_matrix", "R"), ("extend_two_matrix", "C"),
    ("extend_two_quaternion", "R"), ("complexify_odd", "R"),
    ("split_odd", "R"), ("split_odd", "C")])
@pytest.mark.parametrize("size", [0, 2, 4])
def test_every_clifford_op_keeps_its_verdict(op, ring, size):
    m = clifford_map(op, ring, size, np.random.default_rng(size))
    rep = assert_same_verdict(m)
    # the proof applies from order 8 on, and proves these maps
    assert rep.bijective() and (rep.rows == "generators") == (size > 0)


def test_verify_morphism_checks_every_row_of_small_maps():
    """Where the full check multiplies every row in one block it takes as
    many array operations as the rows of S, and runs."""
    rep = verify_morphism(clifford_map("split_odd", "R", 2,
                                       np.random.default_rng(0)))
    assert rep.bijective() and rep.rows == "all"
    rep = verify_morphism(clifford_map("extend_two_matrix", "R", 4,
                                       np.random.default_rng(0)))
    assert rep.bijective() and rep.rows == "generators"
    assert 0 < rep.residual_bound <= 1e-9 and rep.to_dict()["rows"] == (
        "generators")


# -- the terms of the bound --------------------------------------------------
# each map below has a row whose residuals reach past the bound with one of
# its terms left out

def scalar_map(g, images, d=COMPLEX):
    return Morphism(trivial_cocycle(g, d), RingModel(d), [
        RingValue.scalar(d, x) for x in images])


def test_the_bound_needs_the_commutation_rows():
    """V_t -> j^t on Z/4 over H: a group homomorphism into the units of H,
    so every product residual is 0, but j does not commute with i 1, and
    the commutation residual 2 of the generator's row is also that of
    row 3."""
    g, d = make_cyclic(4), QUATERNION
    f = SchurFunction(g, d, np.ones((4, 4)))
    j = RingValue.quaternion([0, 0, 1, 0])
    images = [RingValue.unit(d), j, j * j, j * j * j]
    m = Morphism(f, RingModel(d), images)
    _, res, _ = dense_residuals(f, m._summands)
    assert res[:, 0].max() == 0 and res[3, 1] == 2
    assert residual_bound(m) >= full_check(m) == 2


def test_the_bound_needs_every_word_length():
    """V_t -> e^(delta h(t)) on the subsets of three labels with h(t) =
    max(|t| - 1, 0): each generator row is within about delta, the star
    residuals are 0, and row 7 at 7 reaches 4 delta, above the 2L - 3 =
    3 delta that L - 1 steps of the induction allow."""
    g, delta = make_subset_group([1, 2, 3]), 1e-6
    h = np.maximum([bin(t).count("1") - 1 for t in range(8)], 0)
    m = scalar_map(g, np.exp(delta * h))
    _, res, star = dense_residuals(m.source, m._summands)
    assert res[g.generators, 0].max() < 1.01 * delta and star == 0
    assert res[7, 0] > 3.9 * delta and g.depth == 3
    assert residual_bound(m) >= full_check(m)


def test_the_bound_needs_the_image_norms():
    """The images 1 but V_7 -> 10 on the subsets of three labels: the
    generator rows are within 9, and row 7 at 7 is 99, which only the
    generator residual times |image_7| accounts for."""
    m = scalar_map(make_subset_group([1, 2, 3]), [1] * 7 + [10])
    assert full_check(m) == 99 and residual_bound(m) >= 99
