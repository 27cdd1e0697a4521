import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import twistalg.cocycle as cocycle
from twistalg import (COMPLEX, KLEIN_A, KLEIN_B, KLEIN_C, QUATERNION, REAL,
                      Lambda, RingValue, SchurFunction, coboundary,
                      cocycle_inverse, cocycle_mul, cyclic_power_value,
                      direct_product, equivalent_cyclic, hat, klein_table,
                      laurent, make_cyclic, make_f_alpha, matrix_ring,
                      product_ring, tensor_cocycle, trivial_cocycle, validate,
                      winding, z_coboundary_witness)
from twistalg.cocycle import (ValidationReport, _cocycle_check,
                              _entry_checks)

L1 = laurent(1)
L2 = laurent(2)
M2 = matrix_ring(2)


def phase(theta, d=COMPLEX):
    return RingValue.scalar(d, np.exp(1j * theta))


def edited(f, entries):
    """f with the entries {(s, t): value} replaced, rebuilt from copied
    rows: a table does not change once built."""
    rows = [list(row) for row in f.values]
    for (s, t), v in entries.items():
        rows[s][t] = v
    return SchurFunction(f.group, f.descriptor, rows)


def random_lambda(group, seed, d=COMPLEX):
    rng = np.random.default_rng(seed)
    vals = [RingValue.unit(d)]
    for _ in range(group.order - 1):
        vals.append(phase(rng.uniform(0, 2 * np.pi), d))
    return Lambda(group, d, vals)


# -- validation ------------------------------------------------------------

def test_trivial_and_f_alpha_validate():
    assert validate(trivial_cocycle(make_cyclic(4), COMPLEX)).ok
    f = make_f_alpha(3, [phase(0.3), phase(-1.1)])
    assert validate(f).ok


def test_klein_sixteen_sign_tables_validate():
    one = RingValue.unit(COMPLEX)
    for bits in range(16):
        signs = [one.scale(1 - 2 * (bits >> k & 1)) for k in range(4)]
        assert validate(klein_table(*signs)).ok


def test_random_coboundary_validates():
    for g in (make_cyclic(5), direct_product(make_cyclic(2), make_cyclic(3))):
        f = coboundary(random_lambda(g, seed=g.order))
        assert validate(f).ok


def test_laurent_coboundary_validates():
    g = make_cyclic(3)
    z = RingValue.monomial(L1, 1, (1,))
    lam = Lambda(g, L1, [RingValue.unit(L1), z, z * z])
    assert validate(coboundary(lam)).ok


def test_tensor_of_valid_is_valid():
    f = make_f_alpha(2, [phase(0.7)])
    g = make_f_alpha(3, [phase(-0.2), phase(1.4)])
    h = tensor_cocycle(f, g)
    assert h.group.order == 6
    assert validate(h).ok


def test_mutation_breaks_unitarity():
    f = make_f_alpha(3, [phase(0.3), phase(-1.1)])
    f = edited(f, {(1, 2): f.values[1][2].scale(1.5)})
    rep = validate(f)
    assert any(c == "unitary" for c, _, _ in rep.violations)


def test_mutation_breaks_cocycle_identity():
    # a phase tweak on a single entry of the Z/4 table
    f = make_f_alpha(4, [phase(0.0), phase(0.0), phase(0.0)])
    f = edited(f, {(1, 1): phase(0.4)})
    rep = validate(f)
    assert any(c == "cocycle" for c, _, _ in rep.violations)


def test_mutation_breaks_normalization():
    f = trivial_cocycle(make_cyclic(3), COMPLEX)
    f = edited(f, {(0, 2): phase(1.0)})
    rep = validate(f)
    assert any(c == "normalization" for c, _, _ in rep.violations)


def test_noncentral_value_rejected():
    g = make_cyclic(2)
    unit = RingValue.unit(M2)
    swap = RingValue.mat(M2, [[0, 1], [1, 0]])
    f = SchurFunction(g, M2, [[unit, unit], [unit, swap]])
    rep = validate(f)
    assert any(c == "central" for c, _, _ in rep.violations)


def test_validate_matches_brute_force_on_matrix_ring():
    # phase-times-identity values take the non-vectorized path
    g = make_cyclic(4)
    rng = np.random.default_rng(7)
    vals = [RingValue.unit(M2)]
    for _ in range(3):
        vals.append(RingValue.mat(
            M2, np.exp(1j * rng.uniform(0, 6.28)) * np.eye(2)))
    f = coboundary(Lambda(g, M2, vals))
    assert validate(f).ok
    f = edited(f, {(2, 3): f.values[2][3] * phase(0.5, M2).scale(
        np.exp(0.2j))})
    assert not validate(f).ok


# -- derived identities ----------------------------------------------------

def test_tilde_identities():
    # f(s,t) tilde(s) = f(s^{-1}, st)^*  and  f(s,t) tilde(t) = f(st, t^{-1})^*
    g = make_cyclic(6)
    f = coboundary(random_lambda(g, seed=11))
    for s in range(6):
        for t in range(6):
            st = g.op(s, t)
            assert (f.values[s][t] * f.tilde(s)).close(
                f.values[g.inverse(s)][st].star())
            assert (f.values[s][t] * f.tilde(t)).close(
                f.values[st][g.inverse(t)].star())


def test_inverse_symmetry():
    f = make_f_alpha(5, [phase(t) for t in (0.1, 0.2, 0.3, 0.4)])
    g = f.group
    for t in range(5):
        assert f.values[t][g.inverse(t)].close(f.values[g.inverse(t)][t])


def test_pointwise_group_structure():
    g = make_cyclic(4)
    f1 = coboundary(random_lambda(g, seed=1))
    f2 = coboundary(random_lambda(g, seed=2))
    prod = cocycle_mul(f1, f2)
    assert validate(prod).ok
    inv = cocycle_inverse(f1)
    both = cocycle_mul(f1, inv)
    triv = trivial_cocycle(g, COMPLEX)
    for s in range(4):
        for t in range(4):
            assert both.values[s][t].close(triv.values[s][t])


def test_hat_is_involutive_automorphism():
    g = make_cyclic(5)
    f1 = coboundary(random_lambda(g, seed=3))
    f2 = coboundary(random_lambda(g, seed=4))
    assert validate(hat(f1)).ok
    hh = hat(hat(f1))
    hm = hat(cocycle_mul(f1, f2))
    mm = cocycle_mul(hat(f1), hat(f2))
    for s in range(5):
        for t in range(5):
            assert hh.values[s][t].close(f1.values[s][t])
            assert hm.values[s][t].close(mm.values[s][t])


def test_hat_of_coboundary_is_coboundary_of_hat():
    g = make_cyclic(6)
    lam = random_lambda(g, seed=5)
    a = hat(coboundary(lam))
    b = coboundary(lam.hat())
    for s in range(6):
        for t in range(6):
            assert a.values[s][t].close(b.values[s][t])


def test_coboundary_is_multiplicative_in_lambda():
    g = make_cyclic(4)
    l1, l2 = random_lambda(g, seed=6), random_lambda(g, seed=7)
    a = coboundary(l1.mul(l2))
    b = cocycle_mul(coboundary(l1), coboundary(l2))
    for s in range(4):
        for t in range(4):
            assert a.values[s][t].close(b.values[s][t])


# -- named constructors ----------------------------------------------------

def test_f_alpha_oracle_values():
    a1, a2 = phase(0.5), phase(-0.9)
    f = make_f_alpha(3, [a1, a2])
    # f(p,0)=f(0,q)=1, f(1,1)=alpha_1, f(2,2)=alpha_2 alpha_1^*
    for q in range(3):
        assert f.values[0][q].close(RingValue.unit(COMPLEX))
        assert f.values[q][0].close(RingValue.unit(COMPLEX))
    assert f.values[1][1].close(a1)
    assert f.values[1][2].close(a1 * a2 * a1.star())
    assert f.values[2][1].close(a2)
    assert f.values[2][2].close(a2 * a1.star())


def test_f_alpha_rejects_nonunitary():
    with pytest.raises(ValueError):
        make_f_alpha(2, [RingValue.scalar(COMPLEX, 2.0)])


def test_klein_table_entries():
    a, b, g_, e = phase(0.2), phase(1.3), phase(-0.4), phase(np.pi)
    f = klein_table(a, b, g_, e)
    assert f.values[KLEIN_A][KLEIN_A].close(b * g_)
    assert f.values[KLEIN_A][KLEIN_B].close(g_)
    assert f.values[KLEIN_B][KLEIN_A].close(e * g_)
    assert f.values[KLEIN_C][KLEIN_C].close(a * b)
    assert f.values[KLEIN_B][KLEIN_C].close(a)


def test_klein_table_rejects_bad_eps():
    one = RingValue.unit(COMPLEX)
    with pytest.raises(ValueError):
        klein_table(one, one, one, phase(0.3))


def test_cyclic_power_value():
    f = make_f_alpha(5, [phase(t) for t in (0.3, 0.7, -0.2, 1.1)])
    for m in range(4):
        for n in range(4):
            v = cyclic_power_value(f, 1, m, n)
            assert v.close(f.values[m % 5][n % 5])
            assert v.close(cyclic_power_value(f, 1, n, m))


def test_z_coboundary_witness_scalar():
    rng = np.random.default_rng(9)
    lam_true = {k: phase(rng.uniform(0, 6.28)) for k in range(-5, 6)}
    lam_true[0] = lam_true[1] = RingValue.unit(COMPLEX)

    def f_window(s, t):
        return lam_true[s] * lam_true[t] * lam_true[s + t].star()

    lam = z_coboundary_witness(f_window, 5, COMPLEX)
    for s in range(-5, 6):
        for t in range(-5, 6):
            if -5 <= s + t <= 5:
                delta = lam[s] * lam[t] * lam[s + t].star()
                assert delta.close(f_window(s, t))


def test_z_coboundary_witness_matrix_central():
    rng = np.random.default_rng(10)
    lam_true = {k: phase(rng.uniform(0, 6.28), M2) for k in range(-3, 4)}
    lam_true[0] = lam_true[1] = RingValue.unit(M2)

    def f_window(s, t):
        return lam_true[s] * lam_true[t] * lam_true[s + t].star()

    lam = z_coboundary_witness(f_window, 3, M2)
    for s in range(-3, 4):
        if -3 <= s + 1 <= 3:
            assert (lam[s] * lam[1] * lam[s + 1].star()).close(f_window(s, 1))


def test_z_coboundary_witness_window_too_small():
    with pytest.raises(ValueError):
        z_coboundary_witness(lambda s, t: RingValue.unit(COMPLEX), 1, COMPLEX)


# -- classification --------------------------------------------------------

def test_equivalent_cyclic_scalar_always():
    # over the complex scalars every pair on Z/n is equivalent
    alphas = [phase(0.3), phase(1.0)]
    betas = [phase(-0.7), phase(0.4)]
    lam = equivalent_cyclic(alphas, betas)
    assert lam is not None
    fa = make_f_alpha(3, alphas)
    fb = make_f_alpha(3, betas)
    prod = cocycle_mul(fb, coboundary(lam))
    for s in range(3):
        for t in range(3):
            assert fa.values[s][t].close(prod.values[s][t])


def test_equivalent_cyclic_laurent_obstruction():
    one = RingValue.unit(L1)
    z = RingValue.monomial(L1, 1, (1,))
    z2 = z * z
    # winding 1 mod 2 obstructs equivalence with the trivial class on Z/2
    assert equivalent_cyclic([z], [one]) is None
    lam = equivalent_cyclic([z2], [one])
    assert lam is not None
    fa = make_f_alpha(2, [z2], L1)
    prod = cocycle_mul(make_f_alpha(2, [one], L1), coboundary(lam))
    for s in range(2):
        for t in range(2):
            assert fa.values[s][t].close(prod.values[s][t])


def test_equivalent_cyclic_real_obstruction():
    mu = RingValue.scalar(REAL, -1.0)
    one = RingValue.unit(REAL)
    assert equivalent_cyclic([mu], [one], REAL) is None
    assert equivalent_cyclic([mu, one], [one, mu], REAL) is not None


def test_winding():
    z = RingValue.monomial(L1, np.exp(0.2j), (3,))
    assert winding(z) == 3
    with pytest.raises(ValueError):
        winding(RingValue.poly(L1, {(0,): 1, (1,): 1}))
    with pytest.raises(ValueError):
        winding(RingValue.monomial(L1, 2, (1,)))


def test_winding_and_equivalence_take_the_callers_tol():
    # |c| - 1 = 1e-8: refused at tol 1e-9, accepted at tol 1e-6
    z = RingValue.monomial(L1, 1 + 1e-8, (3,))
    with pytest.raises(ValueError, match="unimodular"):
        winding(z, tol=1e-9)
    assert winding(z, tol=1e-6) == 3
    one, c = RingValue.unit(COMPLEX), phase(0.3).scale(1 + 1e-8)
    assert equivalent_cyclic([c, one], [one, one], tol=1e-9) is None
    lam = equivalent_cyclic([c, one], [one, one], tol=1e-6)
    assert lam is not None and lam.group.order == 3


def test_tensor_values_oracle():
    f = make_f_alpha(2, [phase(0.7)])
    g = make_f_alpha(2, [phase(-0.3)])
    h = tensor_cocycle(f, g)
    # index (t,s) -> 2t+s under the product ordering
    for t1 in range(2):
        for s1 in range(2):
            for t2 in range(2):
                for s2 in range(2):
                    want = f.values[t1][t2] * g.values[s1][s2]
                    got = h.values[2 * t1 + s1][2 * t2 + s2]
                    assert got.close(want)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.data())
def test_coboundary_cocycle_identity_random(n, data):
    g = make_cyclic(n)
    thetas = [0.0] + [data.draw(st.floats(0, 6.28)) for _ in range(n - 1)]
    lam = Lambda(g, COMPLEX, [phase(t) for t in thetas])
    f = coboundary(lam)
    assert validate(f).ok


# -- fast paths against reference paths -----------------------------------

_GROUPS = [(n,) for n in range(1, 9)] + [(2, 2), (2, 3), (3, 3)]


def _group(orders):
    g = make_cyclic(orders[0])
    for k in orders[1:]:
        g = direct_product(g, make_cyclic(k))
    return g


def _corrupted_coboundary(data, d):
    """A random coboundary table over C, R or Laurent monomials with 0-3
    corrupted entries: unit, normalization, unitarity and cocycle breaks.
    Over Laurent rings a break may also move an entry's exponents."""
    g = _group(data.draw(st.sampled_from(_GROUPS)))
    n = g.order

    def monomial(c):            # c z^e with e drawn from {-1, 0, 1}^m
        return RingValue.monomial(d, c, [data.draw(st.integers(-1, 1))
                                         for _ in range(d.m)])

    if d == REAL:
        signs = [data.draw(st.sampled_from([-1.0, 1.0])) for _ in range(n - 1)]
        lam = [RingValue.unit(d)] + [RingValue.scalar(d, x) for x in signs]
    else:
        thetas = [data.draw(st.floats(0, 6.28)) for _ in range(n - 1)]
        lam = [RingValue.unit(d)] + [
            phase(t) if d == COMPLEX else monomial(np.exp(1j * t))
            for t in thetas]
    f = coboundary(Lambda(g, d, lam))

    def twist():                  # a unitary factor far from 1
        if d == REAL:
            return -1.0
        return np.exp(1j * data.draw(st.floats(0.1, 6.18)))

    kinds = ["unit", "unitary"] + (["normalization", "cocycle"] if n > 1
                                   else [])
    for _ in range(data.draw(st.integers(0, 3))):
        kind = data.draw(st.sampled_from(kinds))
        if kind == "unit":
            s = t = 0
            c = twist()
        elif kind == "unitary":
            s, t = (data.draw(st.integers(0, n - 1)) for _ in range(2))
            c = 1 + data.draw(st.floats(0.01, 0.5))
        elif kind == "normalization":
            s, t = data.draw(st.integers(1, n - 1)), 0
            if data.draw(st.booleans()):
                s, t = t, s
            c = twist()
        else:
            s, t = (data.draw(st.integers(1, n - 1)) for _ in range(2))
            c = twist()
        v = f.values[s][t].scale(c)
        f = edited(f, {(s, t): v * monomial(1) if d.kind == "laurent" else v})
    return f


def _same_report(fast, ref):
    assert [(c, w) for c, w, _ in fast.violations] == \
        [(c, w) for c, w, _ in ref.violations]
    for (_, _, a), (_, _, b) in zip(fast.violations, ref.violations):
        assert abs(a - b) <= 1e-15 * max(1.0, abs(b))


def _object_report(f, tol=1e-9):
    """validate on the object path, for any ring."""
    rep = ValidationReport()
    _entry_checks(rep, f, tol)
    _cocycle_check(rep, f, tol)
    return rep


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([COMPLEX, REAL, L1, L2]), st.data())
def test_scalar_validate_matches_object_path(d, data):
    f = _corrupted_coboundary(data, d)
    _same_report(validate(f), _object_report(f))


M2R = matrix_ring(2, "real")
_FINITE = [QUATERNION, M2, M2R, product_ring(COMPLEX, M2),
           product_ring(REAL, QUATERNION)]


def _central_unitary(data, d):
    """A sign over real rings, a phase otherwise; each factor of a
    product draws its own."""
    if d.kind == "product":
        return RingValue.tuple_value(
            d, [_central_unitary(data, x) for x in d.factors])
    if d.is_real:
        return RingValue.scalar(d, data.draw(st.sampled_from([-1.0, 1.0])))
    return phase(data.draw(st.floats(0, 6.28)), d)


def _rotation(data, d):
    """A unitary that is not central: a rotation in a coordinate plane of
    H, or of the plane of M_2; scalar factors of a product get 1."""
    theta = data.draw(st.floats(0.3, 2.8))
    c, s = np.cos(theta), np.sin(theta)
    if d.kind == "quaternion":
        coords = [c, 0.0, 0.0, 0.0]
        coords[data.draw(st.integers(1, 3))] = s
        return RingValue.quaternion(coords)
    if d.kind == "matrix":
        return RingValue.mat(d, [[c, -s], [s, c]])
    if d.kind == "product":
        return RingValue.tuple_value(d, [
            _rotation(data, x) if x.kind in ("quaternion", "matrix")
            else RingValue.unit(x) for x in d.factors])
    raise ValueError(d)


def _corrupted_block_table(data, d):
    """A random coboundary table over a finite non-scalar ring with 0-4
    corrupted entries: unit, normalization, unitarity, centrality and
    cocycle breaks."""
    g = _group(data.draw(st.sampled_from(_GROUPS)))
    n = g.order
    lam = [RingValue.unit(d)] + [_central_unitary(data, d)
                                 for _ in range(n - 1)]
    f = coboundary(Lambda(g, d, lam))
    twist = RingValue.scalar(d, -1.0 if d.is_real else
                             np.exp(1j * data.draw(st.floats(0.1, 6.18))))
    kinds = ["unit", "unitary", "central"] + (["normalization", "cocycle"]
                                              if n > 1 else [])
    for _ in range(data.draw(st.integers(0, 4))):
        kind = data.draw(st.sampled_from(kinds))
        s, t = (data.draw(st.integers(0, n - 1)) for _ in range(2))
        if kind == "unit":
            s = t = 0
            c = twist
        elif kind == "unitary":
            c = RingValue.scalar(d, 1 + data.draw(st.floats(0.01, 0.5)))
        elif kind == "central":
            c = _rotation(data, d)
        elif kind == "normalization":
            s, t = ((max(s, 1), 0) if data.draw(st.booleans())
                    else (0, max(t, 1)))
            c = twist
        else:
            s, t = max(s, 1), max(t, 1)
            c = twist
        f = edited(f, {(s, t): f.values[s][t] * c})
    return f


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_FINITE), st.data())
def test_block_validate_matches_object_path(d, data):
    f = _corrupted_block_table(data, d)
    _same_report(validate(f), _object_report(f))


def test_unitarity_checks_both_products():
    # v = [[1, b], [0, c]] with b^2 + c^2 = 1: v v^* - 1 has largest entry
    # |b c| <= tol, but v^* v - 1 has |b| > tol
    b = 0.1005
    f = trivial_cocycle(make_cyclic(2), M2)
    f = edited(f, {(1, 1): RingValue.mat(M2, [[1, b],
                                              [0, np.sqrt(1 - b * b)]])})
    rep = validate(f, 0.1)
    assert ("unitary", (1, 1)) in [(c, w) for c, w, _ in rep.violations]
    _same_report(rep, _object_report(f, 0.1))


def test_only_non_monomial_laurent_tables_take_the_object_loop(monkeypatch):
    def refuse(rep, f, tol):
        raise AssertionError(f"object loop over {f.descriptor}")

    monkeypatch.setattr(cocycle, "_entry_checks", refuse)
    monkeypatch.setattr(cocycle, "_cocycle_check", refuse)
    g = direct_product(make_cyclic(2), make_cyclic(2))
    rings = [COMPLEX, REAL, matrix_ring(1), product_ring(COMPLEX), L2,
             matrix_ring(3), matrix_ring(3, "real")] + _FINITE
    for d in rings:
        f = trivial_cocycle(g, d)
        f = edited(f, {(1, 2): f.values[1][2].scale(2)})
        assert ("unitary", (1, 2), 3.0) in validate(f).violations
    f = trivial_cocycle(g, L2)
    f = edited(f, {(1, 2): RingValue.poly(L2, {(0, 0): 1, (1, 0): 1})})
    with pytest.raises(AssertionError, match="object loop"):
        validate(f)


def test_laurent_validate_residuals_match_object_path():
    """Exponents that differ give the larger coefficient, as the object
    loop, not a fixed 2.0; a second term of 5e-10 at tol 1e-12 makes the
    table non-monomial, so it takes the object loop too."""
    f = trivial_cocycle(make_cyclic(3), L1)
    f = edited(f, {(1, 1): RingValue.monomial(L1, 1, (1,))})
    rep = validate(f)
    assert rep.violations == [("cocycle", w, 1.0) for w in
                              ((1, 1, 2), (1, 2, 2), (2, 1, 1), (2, 2, 1))]
    assert rep.violations == _object_report(f).violations
    f = edited(f, {(1, 1): RingValue.poly(L1, {(0,): 1, (1,): 5e-10})})
    rep = validate(f, 1e-12)
    assert len(rep.violations) == 5
    assert rep.violations == _object_report(f, 1e-12).violations


def test_validate_is_independent_of_the_row_block_size(monkeypatch):
    import twistalg.groups as groups
    f = coboundary(random_lambda(make_cyclic(12), seed=12))
    f = edited(f, {(0, 5): phase(0.3), (4, 8): f.values[4][8].scale(1.2),
                   (9, 2): f.values[9][2] * phase(2.0)})
    whole = validate(f)
    assert {c for c, _, _ in whole.violations} == {
        "normalization", "unitary", "inverse-symmetry", "cocycle"}
    monkeypatch.setattr(groups, "TRIPLES_PER_BLOCK", 1)     # one row a block
    assert validate(f).violations == whole.violations


def _f_alpha_closed(n, alphas, d):
    """f(p,q) = (prod_{j=p}^{p+q-1} alpha_j) (prod_{k=1}^{q-1} alpha_k^*),
    O(n^3) straight from the definition."""
    unit = RingValue.unit(d)
    ext = list(alphas) + [unit]

    def a(j):
        return ext[(j - 1) % n]

    table = []
    for p in range(n):
        pp = p if p >= 1 else n
        row = []
        for q in range(n):
            v = unit
            for j in range(pp, pp + q):
                v = v * a(j)
            for k in range(1, q):
                v = v * a(k).star()
            row.append(v)
        table.append(row)
    return table


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.sampled_from([COMPLEX, REAL]), st.data())
def test_make_f_alpha_matches_closed_formula(n, d, data):
    if d == COMPLEX:
        alphas = [phase(data.draw(st.floats(0, 6.28))) for _ in range(n - 1)]
    else:
        alphas = [RingValue.scalar(d, data.draw(st.sampled_from([-1, 1])))
                  for _ in range(n - 1)]
    f = make_f_alpha(n, alphas, d)
    want = _f_alpha_closed(n, alphas, d)
    for s in range(n):
        for t in range(n):
            assert (f.values[s][t] - want[s][t]).abs_bound() <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 8), st.integers(1, 2), st.data())
def test_make_f_alpha_matches_closed_formula_laurent(n, m, data):
    d = laurent(m)
    alphas = [RingValue.monomial(
        d, np.exp(1j * data.draw(st.floats(0, 6.28))),
        [data.draw(st.integers(-3, 3)) for _ in range(m)])
        for _ in range(n - 1)]
    f = make_f_alpha(n, alphas, d)
    want = _f_alpha_closed(n, alphas, d)
    for s in range(n):
        for t in range(n):
            (c, e), (c0, e0) = f.values[s][t].is_monomial(), \
                want[s][t].is_monomial()
            assert e == e0
            assert abs(c - c0) <= 1e-12


# -- bounded memory ---------------------------------------------------------

def test_scalar_validate_memory_is_bounded():
    # all-triples arrays for n = 256 would take about 940 MB; over rings of
    # b x b forms a row block holds at most dense.BLOCK_ENTRIES form entries
    # (5.4 MB for C x M_2 at order 32 without that cap), and the entry
    # checks take the whole table at once
    rng = np.random.default_rng(256)
    cases = [
        (make_f_alpha(256, [phase(t) for t in rng.uniform(0, 6.28, 255)]),
         128),
        (trivial_cocycle(make_cyclic(32), product_ring(COMPLEX, M2)), 2),
        (trivial_cocycle(make_cyclic(64), QUATERNION), 4),
    ]
    for f, bound_mib in cases:
        tracemalloc.start()
        try:
            rep = validate(f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.ok
        assert peak <= bound_mib * 2 ** 20, f.descriptor


# -- forms derived once ----------------------------------------------------

def test_each_table_derives_each_form_once(monkeypatch):
    """A table cannot change, so its array forms are derived on first use
    and kept: validate, alg_norm and the dense verifier, run twice, make
    at most one dense.value_blocks call and one is_monomial pass a table."""
    import twistalg.dense as dense
    from twistalg import AlgebraElement, alg_norm
    from twistalg.isolab import identity_morphism, verify_morphism
    calls = {"value_blocks": 0, "is_monomial": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dense, "value_blocks",
                        counted("value_blocks", dense.value_blocks))
    monkeypatch.setattr(RingValue, "is_monomial",
                        counted("is_monomial", RingValue.is_monomial))
    n = 4
    tables = {
        "C centre": make_f_alpha(n, [phase(0.3), phase(-1.1), phase(2.0)]),
        "M2 lists": coboundary(random_lambda(make_cyclic(n), 3, M2)),
        "Laurent f_alpha": make_f_alpha(n, [
            RingValue.monomial(L1, np.exp(1j * t), (k,))
            for t, k in ((0.4, 1), (-0.9, 0), (1.7, -2))]),
    }
    assert tables["C centre"]._centre is not None
    assert tables["M2 lists"]._centre is None
    for name, f in tables.items():
        x = AlgebraElement(f, [v.scale(0.5 + t) for t, v in
                               enumerate(f.values[1])])
        rounds = []
        for _ in range(2):
            before = dict(calls)
            assert validate(f).ok
            alg_norm(x, grid=8)
            assert verify_morphism(identity_morphism(f)).ok
            rounds.append({k: calls[k] - before[k] for k in calls})
        assert rounds[1] == {"value_blocks": 0, "is_monomial": 0}, name
        assert rounds[0]["value_blocks"] <= 1, name
        assert rounds[0]["is_monomial"] <= n * n, name


def test_readers_keep_a_centre_held_table_on_its_centre():
    """alg_norm, alg_mul and alg_star on a centre-held M_2(C) table leave
    its centre in place, so validate still reads it: the same report."""
    from twistalg import AlgebraElement, alg_mul, alg_norm, alg_star
    from twistalg.serialize import parse_cocycle
    n = 32
    one = [["1", "0"], ["0", "1"]]
    f = parse_cocycle({"descriptor": {"kind": "matrix", "k": 2},
                       "group": {"kind": "cyclic", "n": n},
                       "table": [[one] * n for _ in range(n)]})
    assert f._centre is not None
    want = validate(f)
    x = AlgebraElement(f, [RingValue.unit(M2).scale(t % 3)
                           for t in range(n)])
    alg_norm(x)
    alg_mul(x, x)
    alg_star(x)
    assert f._centre is not None
    assert validate(f) == want and want.ok


# -- small public helpers ----------------------------------------------------

def test_report_text_when_valid_and_past_fifty_violations():
    rep = ValidationReport()
    assert str(rep) == "valid"
    for t in range(53):
        rep.add("unitary", (t, 0), 0.5)
    lines = str(rep).splitlines()
    assert lines[0] == "53 violation(s):" and len(lines) == 52
    assert lines[1] == "  unitary at (0, 0): residual 5.000e-01"
    assert lines[-1] == "  ... 3 more"


def test_tensor_with_a_scalar_right_factor():
    """The d2-scalar branch of _tensor_descriptor: E (x) C = E, each value
    scaled by the scalar one."""
    minus = RingValue.unit(M2).scale(-1)
    f, g = make_f_alpha(2, [minus], M2), make_f_alpha(3, [phase(0.4),
                                                         phase(1.1)])
    h = tensor_cocycle(f, g)
    assert h.descriptor == M2 and h.group.order == 6
    for i in range(6):
        for j in range(6):
            (t1, s1), (t2, s2) = divmod(i, 3), divmod(j, 3)
            want = f.values[t1][t2].scale(g.values[s1][s2].payload)
            assert h.values[i][j].close(want, 0.0)


def test_lambda_star_and_module_tilde():
    g = make_cyclic(4)
    lam = random_lambda(g, 5)
    star = lam.star()
    assert [v.payload for v in star.values] == \
        [v.star().payload for v in lam.values]
    assert coboundary(star).values[1][2].close(
        coboundary(lam).values[1][2].star(), 1e-12)
    f = make_f_alpha(4, [phase(0.3), phase(0.7), phase(1.9)])
    for t in range(4):
        assert cocycle.tilde(f, t).payload == \
            f.values[t][g.inverse(t)].star().payload
