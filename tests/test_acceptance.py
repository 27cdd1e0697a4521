"""Acceptance gate: thirteen numbered criteria, one pass/fail line each.

Each test prints "criterion NN <name>: PASS|FAIL" before asserting, so a
plain `pytest -v` run shows one line per criterion.

Two criteria restate claims about the paper's examples that are false as
displayed, and assert both the refutation and the true claim:

- 06: the real Klein table (alpha, beta, gamma, eps) = (1, 1, 1, -1) is
  M_2(R), not the quaternions ((V_0 + V_a)(V_0 - V_a) = 0), so
  klein_quaternion refuses it; the quaternion model is checked at
  (1, -1, 1), where its root hypothesis x^2 = -beta gamma holds.
- 11: the displayed order-8 table on Z/2 x Z/4 fails the cocycle identity
  on 96 triples, so its decomposition map is not multiplicative and its
  P+- are not idempotent; the corner claim is checked on the corrected
  cocycle z2z4_corrected_cocycle, whose algebra is M_2(C) + M_2(C).
"""
import json
import math

import numpy as np
import pytest

from twistalg import (COMPLEX, KLEIN_A, KLEIN_B, KLEIN_C, REAL,
                      AlgebraElement, CliffordSpec, CornerModel,
                      DirectSumModel, Lambda, Morphism, RingModel, RingValue,
                      SchurFunction, alg_mul,
                      alg_norm, alg_star, char_decompose_z2n,
                      clifford_cocycle, coboundary, complexify_odd,
                      cyclic_decompose, direct_product, equivalent_cyclic,
                      extend_generator_images, extend_two_matrix,
                      extend_two_quaternion, generator, klein_matrix,
                      klein_quaternion, klein_split4, klein_table,
                      lambda_isomorphism, laurent, laurent_z2_rewrite,
                      make_cyclic, make_f_alpha, make_subset_group,
                      regular_matrix, split_odd, tensor_cocycle,
                      tensor_structure_check, transposition_sign,
                      trivial_cocycle, validate, verify_morphism,
                      z2_complexify, z2_split, z2n_torus_rewrite,
                      z2z4_cocycle, z2z4_corrected_cocycle, z2z4_decompose)
from twistalg.cli import main as cli_main
from twistalg.isolab import MatrixModel
from twistalg.rings import matrix_ring

from rmat import rmat_adjoint, rmat_mul, rmat_residual

TOL = 1e-9
L1 = laurent(1)
M2 = matrix_ring(2)


def announce(num, name, ok):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'}")


def phase(theta, d=COMPLEX):
    return RingValue.scalar(d, np.exp(1j * theta))


def scalars(*cs):
    return [RingValue.scalar(COMPLEX, c) for c in cs]


def table_with(f, s, t, v):
    """f with the entry (s, t) replaced by v, rebuilt from copied rows."""
    rows = [list(row) for row in f.values]
    rows[s][t] = v
    return SchurFunction(f.group, f.descriptor, rows)


def random_element(f, rng):
    coeffs = [RingValue.scalar(COMPLEX, complex(a, b))
              for a, b in rng.normal(size=(f.group.order, 2))]
    return AlgebraElement(f, coeffs)


# -- 1 ---------------------------------------------------------------------

def test_criterion_01_cocycle_axioms():
    rng = np.random.default_rng(101)
    ok = True
    families = []
    # constant cocycles
    families.append(trivial_cocycle(make_cyclic(5), COMPLEX))
    families.append(trivial_cocycle(
        direct_product(make_cyclic(2), make_cyclic(2)), COMPLEX))
    # f_alpha on Z/n, n <= 8
    for n in range(2, 9):
        families.append(make_f_alpha(
            n, [phase(t) for t in rng.uniform(0, 6.28, n - 1)]))
    # all 16 Klein sign tables
    one = RingValue.unit(COMPLEX)
    klein_tables = []
    for bits in range(16):
        signs = [one.scale(1 - 2 * (bits >> k & 1)) for k in range(4)]
        klein_tables.append(klein_table(*signs))
    families.extend(klein_tables)
    # Clifford with |S| <= 6
    cliff6 = clifford_cocycle(CliffordSpec(
        list(range(1, 7)),
        scalars(*rng.choice([1, -1, 1j, -1j], size=6)), COMPLEX))
    families.append(cliff6)
    # tensor products and random coboundaries
    families.append(tensor_cocycle(make_f_alpha(2, scalars(1j)),
                                   klein_tables[3]))
    for n in (3, 5, 7):
        vals = [one] + [phase(t) for t in rng.uniform(0, 6.28, n - 1)]
        families.append(coboundary(Lambda(make_cyclic(n), COMPLEX, vals)))

    for f in families:
        ok = ok and validate(f, tol=TOL).ok

    # single-entry mutation detection: scaling by 1.5 (every entry of the
    # small tables, a sample for the order-64 Clifford table)
    def detected(f, s, t):
        g = table_with(f, s, t, f.values[s][t].scale(1.5))
        return not validate(g, tol=TOL).ok

    for f in families:
        n = f.group.order
        if n <= 8:
            cells = [(s, t) for s in range(n) for t in range(n)]
        else:
            cells = {(int(rng.integers(n)), int(rng.integers(n)))
                     for _ in range(20)}
        ok = ok and all(detected(f, s, t) for s, t in cells)

    # a pure phase mutation is also caught (via the cocycle identity)
    f = make_f_alpha(4, scalars(1, 1, 1))
    g = table_with(f, 1, 1, phase(0.4))
    ok = ok and not validate(g, tol=TOL).ok

    announce(1, "cocycle axioms and mutation detection", ok)
    assert ok


# -- 2 ---------------------------------------------------------------------

def test_criterion_02_integer_coboundary_roundtrip():
    from twistalg import z_coboundary_witness
    rng = np.random.default_rng(102)
    ok = True
    for trial in range(100):
        d = COMPLEX if trial % 2 == 0 else M2
        N = int(rng.integers(2, 17))
        lam_true = {}
        for k in range(-N, N + 1):
            v = np.exp(1j * rng.uniform(0, 2 * np.pi))
            lam_true[k] = (RingValue.scalar(COMPLEX, v) if d is COMPLEX
                           else RingValue.mat(M2, v * np.eye(2)))
        lam_true[0] = lam_true[1] = RingValue.unit(d)

        def f_window(s, t):
            return lam_true[s] * lam_true[t] * lam_true[s + t].star()

        lam = z_coboundary_witness(f_window, N, d)
        for s in range(-N, N + 1):
            for t in range(-N, N + 1):
                if -N <= s + t <= N:
                    delta = lam[s] * lam[t] * lam[s + t].star()
                    if not delta.close(f_window(s, t), TOL):
                        ok = False
    announce(2, "integer coboundary round-trip", ok)
    assert ok


# -- 3 ---------------------------------------------------------------------

def test_criterion_03_regular_representation():
    rng = np.random.default_rng(103)
    cocycles = []
    for n in range(2, 9):
        cocycles.append(make_f_alpha(
            n, [phase(t) for t in rng.uniform(0, 6.28, n - 1)]))
    cocycles.append(klein_table(phase(0.3), phase(-0.8), phase(1.1),
                                RingValue.unit(COMPLEX)))
    ok = True
    for i in range(200):
        f = cocycles[i % len(cocycles)]
        x, y = random_element(f, rng), random_element(f, rng)
        mx, my = regular_matrix(x), regular_matrix(y)
        hom = rmat_residual(regular_matrix(alg_mul(x, y)).entries,
                            rmat_mul(mx.entries, my.entries)) <= TOL
        cs = abs(alg_norm(alg_mul(alg_star(x), x)) - alg_norm(x) ** 2)
        ok = ok and hom and cs <= TOL * max(1.0, alg_norm(x) ** 2)
    announce(3, "regular representation and C*-identity", ok)
    assert ok


# -- 4 ---------------------------------------------------------------------

def test_criterion_04_norm_sharpness():
    ok = True
    for n in range(2, 9):
        f = trivial_cocycle(make_cyclic(n), COMPLEX)
        x = AlgebraElement(f, [RingValue.unit(COMPLEX)] * n)
        coeff_norm = math.sqrt(sum(
            abs(complex(c.payload)) ** 2 for c in x.coeffs))
        ok = ok and abs(alg_norm(x) - n) < 1e-12
        ok = ok and abs(coeff_norm - math.sqrt(n)) < 1e-12
    announce(4, "norm sharpness on the trivial cocycle", ok)
    assert ok


# -- 5 ---------------------------------------------------------------------

def test_criterion_05_z2_trichotomy(tmp_path):
    ok = True
    # f(1,1) = 1: split into E + E
    f = make_f_alpha(2, scalars(1))
    ok = ok and verify_morphism(z2_split(f)).bijective(TOL)
    # real f(1,1) = -1: complexification, exact C multiplication table
    fr = make_f_alpha(2, [RingValue.scalar(REAL, -1.0)], REAL)
    m = z2_complexify(fr)
    ok = ok and verify_morphism(m).bijective(TOL)
    i_img = m.images[1]
    sq = m.target.mul(i_img, i_img)
    ok = ok and float(sq[0].payload) == -1.0 and float(sq[1].payload) == 0.0
    conj = m.target.star(i_img)
    ok = ok and float(conj[1].payload) == -1.0
    # Laurent f(1,1) = z: no split, and the classifier sees two classes
    fz = make_f_alpha(2, [RingValue.monomial(L1, 1, (1,))], L1)
    try:
        z2_split(fz)
        ok = False
    except ValueError:
        pass
    cfg = tmp_path / "classify.json"
    cfg.write_text(json.dumps({
        "descriptor": {"kind": "laurent", "m": 1},
        "alphas": [[[[[0], "1"]]], [[[[1], "1"]]],
                   [[[[2], "1"]]], [[[[3], "1"]]]],
    }))
    out = tmp_path / "classify.out"
    code = cli_main(["classify", "--config", str(cfg), "--out", str(out)])
    payload = json.loads(out.read_text())
    ok = ok and code == 0 and payload["class_count"] == 2
    ok = ok and [c["members"] for c in payload["classes"]] == [[0, 2], [1, 3]]
    announce(5, "order-2 trichotomy", ok)
    assert ok


# -- 6 ---------------------------------------------------------------------

def test_criterion_06_klein_suite():
    rng = np.random.default_rng(106)
    ok = True
    # eps = -1 scalar tables: matrix model
    for _ in range(5):
        a, b, g = (phase(t) for t in rng.uniform(0, 6.28, 3))
        rep = verify_morphism(klein_matrix(a, b, g))
        ok = ok and rep.bijective(TOL)
    # eps = 1 with roots: four scalar summands
    for _ in range(5):
        a, b, g = (phase(t) for t in rng.uniform(0, 6.28, 3))
        rep = verify_morphism(klein_split4(a, b, g))
        ok = ok and rep.bijective(TOL)
    # the real table (alpha, beta, gamma, eps) = (1, 1, 1, -1) is M_2(R),
    # not H: V_a^2 = beta gamma = +1 and V_a anticommutes with V_b, so
    # (V_0 + V_a)(V_0 - V_a) = 0 with both factors nonzero.  The matrix
    # model is bijective on it
    one_r = RingValue.unit(REAL)
    m = klein_matrix(one_r, one_r, one_r)
    ok = ok and verify_morphism(m).bijective(TOL)
    v0, va = generator(m.source, 0), generator(m.source, KLEIN_A)
    ok = ok and not (v0 + va).is_zero(TOL) and not (v0 - va).is_zero(TOL)
    ok = ok and alg_mul(v0 + va, v0 - va).is_zero(TOL)
    # the quaternion model needs a real x with x^2 = -beta gamma; at
    # (1, -1, 1) it exists, and i j = f(a, b) k holds on the images
    q = klein_quaternion(one_r, -one_r, one_r)
    ok = ok and verify_morphism(q).bijective(TOL)
    t = q.target
    prod = t.mul(q.images[KLEIN_A], q.images[KLEIN_B])
    want = t.scale_left(q.source.values[KLEIN_A][KLEIN_B], q.images[KLEIN_C])
    ok = ok and t.diff(prod, want) <= TOL
    # at (1, 1, 1) it would be x^2 = -1, so the constructor refuses
    refused = False
    try:
        with pytest.raises(ValueError, match="no central unitary root"):
            klein_quaternion(one_r, one_r, one_r)
        refused = True
    finally:
        announce(6, "Klein four-group suite", ok and refused)
    assert ok


# -- 7 ---------------------------------------------------------------------

def test_criterion_07_z2n_characters():
    rng = np.random.default_rng(107)
    ok = True
    for n in range(1, 7):
        g = make_subset_group(list(range(1, n + 1)))
        f = trivial_cocycle(g, COMPLEX)
        m = char_decompose_z2n(f)
        ok = ok and verify_morphism(m).bijective(TOL)
        order = g.order
        trials = 50 if n == 6 else 8
        for _ in range(trials):
            # integer coefficients keep the inversion identity exact
            x = AlgebraElement(f, [
                RingValue.scalar(COMPLEX, complex(int(a), int(b)))
                for a, b in rng.integers(-9, 10, size=(order, 2))])
            im = m.apply(x)
            for r in range(order):
                acc = 0j
                for t in range(order):
                    sign = -1 if (r & t).bit_count() % 2 else 1
                    acc += sign * complex(im[t].payload)
                if acc != order * complex(x.coeffs[r].payload):
                    ok = False
    announce(7, "exponent-2 character decomposition", ok)
    assert ok


# -- 8 ---------------------------------------------------------------------

def test_criterion_08_cyclic_decomposition():
    rng = np.random.default_rng(108)
    ok = True
    for n in range(2, 9):
        alphas = [phase(t) for t in rng.uniform(0, 6.28, n - 1)]
        f = make_f_alpha(n, alphas)
        dec = cyclic_decompose(f, alphas)
        ok = ok and verify_morphism(dec).bijective(TOL)
        # compose the coefficientwise equivalence from the normal form
        # (all parameters 1) with the decomposition of f_alpha; the
        # composite is again a verified bijective decomposition
        betas = [RingValue.unit(COMPLEX)] * (n - 1)
        lam = equivalent_cyclic(alphas, betas)
        f_norm = make_f_alpha(n, betas)
        iso = lambda_isomorphism(f_norm, lam)
        comp_images = []
        for t in range(n):
            rebased = AlgebraElement(f, iso.images[t].coeffs)
            comp_images.append(dec.apply(rebased))
        comp = Morphism(f_norm, dec.target, comp_images)
        ok = ok and verify_morphism(comp).bijective(TOL)
    announce(8, "cyclic decomposition and equivalence", ok)
    assert ok


# -- 9 ---------------------------------------------------------------------

def test_criterion_09_clifford_relations():
    rng = np.random.default_rng(109)
    ok = True
    specs = []
    for size in (2, 4, 6):
        specs.append(CliffordSpec(
            list(range(1, size + 1)),
            scalars(*rng.choice([1, -1, 1j, -1j], size=size)), COMPLEX))
    # Laurent rho values z^k
    zvals = [RingValue.monomial(L1, 1, (int(k),))
             for k in rng.integers(-2, 3, 3)]
    specs.append(CliffordSpec([1, 2, 3], zvals, L1))
    for spec in specs:
        f = clifford_cocycle(spec)
        size = spec.size
        for i in range(size):
            vi = generator(f, 1 << i)
            for j in range(i):
                vj = generator(f, 1 << j)
                anti = alg_mul(vi, vj) + alg_mul(vj, vi)
                ok = ok and anti.is_zero(TOL)
        one = RingValue.unit(spec.descriptor)
        for mask in range(f.group.order):
            k = mask.bit_count()
            prod = one
            for i in range(size):
                if mask >> i & 1:
                    prod = prod * spec.rho(i)
            if (k * (k - 1) // 2) % 2:
                prod = -prod
            sq = alg_mul(generator(f, mask), generator(f, mask))
            ok = ok and sq.coeffs[0].close(prod, TOL)
            ok = ok and all(c.is_zero(TOL)
                            for t, c in enumerate(sq.coeffs) if t != 0)
    # bubble-sort oracle on 1000 random word pairs
    labels = list(range(1, 7))
    for _ in range(1000):
        # subset words are ascending in the total order
        a = sorted(rng.choice(labels, size=rng.integers(0, 7),
                              replace=False))
        b = sorted(rng.choice(labels, size=rng.integers(0, 7),
                              replace=False))
        word, sign = list(a) + list(b), 1
        for i in range(len(word)):
            for j in range(len(word) - 1 - i):
                if word[j] > word[j + 1]:
                    word[j], word[j + 1] = word[j + 1], word[j]
                    sign = -sign
        ok = ok and transposition_sign(a, b) == sign
    announce(9, "Clifford generator relations", ok)
    assert ok


# -- 10 --------------------------------------------------------------------

def test_criterion_10_clifford_periodicity():
    ok = True
    one_c = RingValue.unit(COMPLEX)
    one_r = RingValue.unit(REAL)
    for base in ([], [1, -1]):
        spec_c = CliffordSpec(list(range(1, len(base) + 1)),
                              scalars(*base), COMPLEX)
        spec_r = CliffordSpec(list(range(1, len(base) + 1)),
                              [RingValue.scalar(REAL, v) for v in base], REAL)
        ok = ok and verify_morphism(
            extend_two_matrix(spec_c, phase(0.2), phase(-0.5))).bijective(TOL)
        ok = ok and verify_morphism(
            extend_two_quaternion(spec_r, one_r, -one_r)).bijective(TOL)
        ok = ok and verify_morphism(complexify_odd(spec_r)).bijective(TOL)
        p_plus, p_minus, pair, m = split_odd(spec_c)
        ok = ok and verify_morphism(m).bijective(TOL)
        n1 = pair.base_f.group.order
        eye = [[one_c if i == j else RingValue.zero(COMPLEX)
                for j in range(n1)] for i in range(n1)]
        for sign, p in ((1, p_plus), (-1, p_minus)):
            th = pair.theta(sign)
            ok = ok and rmat_residual(
                rmat_mul(rmat_adjoint(th), th), eye) <= 1e-12
            ok = ok and rmat_residual(
                rmat_mul(th, rmat_adjoint(th)),
                regular_matrix(p).entries) <= 1e-12
    # double matrix extension: 4 x 4 amplification as nested 2 x 2 blocks
    spec0 = CliffordSpec([], [], COMPLEX)
    m1 = extend_two_matrix(spec0, one_c, one_c)
    spec1 = CliffordSpec([1, 2], scalars(1, -1), COMPLEX)
    m2 = extend_two_matrix(spec1, one_c, one_c)
    nested = MatrixModel(2, m1.target)
    images = []
    for im in m2.images:
        images.append([[m1.apply(AlgebraElement(m1.source, e.coeffs))
                        for e in row] for row in im])
    comp = Morphism(m2.source, nested, images)
    ok = ok and verify_morphism(comp).bijective(TOL)
    announce(10, "Clifford periodicity", ok)
    assert ok


# -- 11 --------------------------------------------------------------------

def half_sum(f, s, t, c=1.0):
    """(1/2)(V_s + c V_t)."""
    p = AlgebraElement.zero(f)
    p.coeffs[s] = RingValue.scalar(COMPLEX, 0.5)
    p.coeffs[t] = RingValue.scalar(COMPLEX, 0.5 * c)
    return p


def test_criterion_11_order8_instance():
    # The displayed order-8 sign table on Z/2 x Z/4 (element (j, p) has
    # index 4 j + p) is not a cocycle: the identity fails on exactly 96
    # triples, among them the hand check r = s = (0,1), t = (1,0).  So the
    # displayed map is not multiplicative (residual 2.0, image rank 12 of
    # 16), and no cocycle on an abelian group could give M_2(C) + C^4, whose
    # simple summands differ in size.  The displayed
    # P+- = (1/2)(V_0 -+ (1/2) V_(1,2)) are not even idempotent.
    f = z2z4_cocycle()
    cocycle_fails = [where for check, where, _
                     in validate(f, tol=TOL).violations if check == "cocycle"]
    refuted = len(cocycle_fails) == 96 and (1, 1, 4) in cocycle_fails
    rep = verify_morphism(z2z4_decompose())
    refuted = refuted and abs(rep.mult_residual - 2.0) <= TOL
    refuted = refuted and rep.image_rank == 12
    for sgn in (1, -1):
        p = half_sum(f, 0, 6, -0.5 * sgn)
        refuted = refuted and not (alg_mul(p, p) - p).is_zero(TOL)

    # The claim holds for the multiplicative repair f = (-1)^((j+p)k): its
    # algebra is M_2(C) + M_2(C), so each minimal projection cuts a corner
    # that is a copy of E (real rank 2) and each central projection
    # (1/2)(V_0 +- V_(0,2)) a copy of M_2(C) (real rank 8).
    f = z2z4_corrected_cocycle()
    ok = validate(f, tol=TOL).ok
    inner = RingModel(COMPLEX)
    target = DirectSumModel(MatrixModel(2, inner), MatrixModel(2, inner))

    def mm(rows):
        return [[RingValue.scalar(COMPLEX, c) for c in row] for row in rows]

    images = {
        1: (mm([[1, 0], [0, -1]]), mm([[1j, 0], [0, -1j]])),
        4: (mm([[0, 1j], [1j, 0]]), mm([[0, 1j], [1j, 0]])),
    }
    rep = verify_morphism(extend_generator_images(f, images, target))
    ok = ok and rep.bijective(TOL) and rep.image_rank == 16
    minimal = [alg_mul(half_sum(f, 0, 2), half_sum(f, 0, 1)),
               alg_mul(half_sum(f, 0, 2, -1), half_sum(f, 0, 1, 1j))]
    central = [half_sum(f, 0, 2), half_sum(f, 0, 2, -1)]
    for p, rank in [(p, 2) for p in minimal] + [(p, 8) for p in central]:
        ok = ok and (alg_mul(p, p) - p).is_zero(TOL)
        ok = ok and (alg_star(p) - p).is_zero(TOL)
        ok = ok and CornerModel(p).total_real_dim() == rank
    ok = refuted and ok
    announce(11, "order-8 instance decomposition", ok)
    assert ok


# -- 12 --------------------------------------------------------------------

def test_criterion_12_laurent_rewrites():
    ok = True
    rep = laurent_z2_rewrite(degree=4)
    ok = ok and rep.ok(0.0) and rep.pairs_checked == 18 ** 2
    # every pair for two variables at degree 4 and three at degree 2
    rep = z2n_torus_rewrite(2, degree=4)
    ok = ok and rep.ok(0.0) and rep.pairs_checked == (4 * 9 ** 2) ** 2
    rep = z2n_torus_rewrite(3, degree=2)
    ok = ok and rep.ok(0.0) and rep.pairs_checked == (8 * 5 ** 3) ** 2
    rep = z2n_torus_rewrite(3, degree=4, max_pairs=10 ** 6, seed=12)
    ok = ok and rep.ok(0.0) and rep.pairs_checked == 10 ** 6
    announce(12, "exact Laurent substitution rewrites", ok)
    assert ok


# -- 13 --------------------------------------------------------------------

def test_criterion_13_tensor_structure():
    one = RingValue.unit(COMPLEX)
    f22 = make_f_alpha(2, scalars(-1))
    f2 = make_f_alpha(2, scalars(1j))
    f4 = make_f_alpha(4, scalars(1j, -1, -1j))
    fk = klein_table(one, -one, one, -one)
    ok = True
    for a, b in ((f22, f2), (f2, f4), (fk, f2)):
        _, worst = tensor_structure_check(a, b)
        ok = ok and worst == 0.0
    announce(13, "tensor Kronecker structure", ok)
    assert ok
