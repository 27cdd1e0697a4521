"""The generator certificate of validate against the exhaustive check.

cocycle._certified may prove the cocycle identity from the rows of a
generating set; every report must still equal the one the full check over
all triples gives (the reference below), violations included.
"""
import math

import numpy as np
import pytest

import twistalg.cocycle as cocycle
from twistalg import (COMPLEX, REAL, GroupTable, RingValue, SchurFunction,
                      direct_product, laurent, make_cyclic, make_f_alpha,
                      make_subset_group, validate)
from twistalg.cocycle import ValidationReport

from small_groups import NON_ABELIAN

RINGS = ("complex", "real", "laurent1", "laurent2")


def exhaustive(f, tol):
    """The reference: entry checks and the cocycle identity on every
    triple."""
    rep, table = ValidationReport(), cocycle._array_table(f)
    with np.errstate(invalid="ignore", over="ignore"):
        cocycle._array_entry_checks(rep, f, *table, tol)
        cocycle._array_cocycle_check(rep, f.group.mul, *table, tol)
    return rep


def same(a, b):
    """Equal reports, residuals bit for bit (NaN equal to NaN)."""
    key = lambda rep: [(c, w, repr(r)) for c, w, r in rep.violations]
    return key(a) == key(b)


@pytest.fixture
def decisions(monkeypatch):
    """The certificate's answers, in call order."""
    seen, certified = [], cocycle._certified

    def spy(*args):
        seen.append(certified(*args))
        return seen[-1]

    monkeypatch.setattr(cocycle, "_certified", spy)
    return seen


def bilinear_signs(g):
    """A non-trivial 2-cocycle with values +-1 where one is easy to write
    down, else 1: (-1)^(sum_{i>j} a_i b_j) on subsets, (-1)^(a2 b1) on a
    product of two groups of even order whose indices mod 2 are
    homomorphisms."""
    n = g.order
    if hasattr(g, "base_set"):
        k = len(g.base_set)
        bits = (np.arange(n)[:, None] >> np.arange(k)) & 1
        return (-1.0) ** (bits @ np.tril(np.ones((k, k), int), -1) @ bits.T)
    if getattr(g, "factor_orders", (1, 1))[1] % 2 == 0 and n % 2 == 0:
        ng, nh = g.factor_orders
        a, b = np.divmod(np.arange(n), nh)
        if ng % 2 == 0:
            return (-1.0) ** (b[:, None] * a[None, :] % 2)
    return np.ones((n, n))


def make_table(g, ring, seed):
    """A valid table on g: a random coboundary times bilinear_signs, with
    integer coboundary exponents over Laurent rings."""
    rng = np.random.default_rng(seed)
    n, mul = g.order, g.mul
    if ring == "real":
        lam = rng.choice([-1.0, 1.0], n)
        lam[0] = 1.0
        vals = lam[:, None] * lam[None, :] * lam[mul] * bilinear_signs(g)
        return SchurFunction(g, REAL, vals)
    lam = np.exp(2j * np.pi * rng.random(n))
    lam[0] = 1.0
    vals = lam[:, None] * lam[None, :] * lam[mul].conj() * bilinear_signs(g)
    if ring == "complex":
        return SchurFunction(g, COMPLEX, vals)
    d = laurent(int(ring[-1]))
    pot = rng.integers(-3, 4, size=(n, d.m))
    pot[0] = 0
    exps = pot[:, None] + pot[None, :] - pot[mul]
    return SchurFunction(g, d, [[RingValue.monomial(d, vals[s, t], exps[s, t])
                                 for t in range(n)] for s in range(n)])


def outside_entry(g, seed):
    """(r, t) with r outside the generators and e, t not e or r^-1."""
    rng = np.random.default_rng(seed)
    rows = [r for r in range(g.order) if r not in (g.identity, *g.generators)]
    r = rows[rng.integers(len(rows))]
    cols = [t for t in range(g.order) if t not in (g.identity, g.inverse(r))]
    return r, cols[rng.integers(len(cols))]


def corrupt(f, seed):
    """f with one entry outside the generator rows rotated (unitary still)."""
    r, t = outside_entry(f.group, seed)
    v = f.values[r][t]
    factor = -1.0 if f.descriptor is REAL else np.exp(2.5j)
    rows = [list(row) for row in f.values]
    rows[r][t] = (RingValue.scalar(f.descriptor, v.payload * factor)
                  if f.descriptor.kind != "laurent" else
                  v * RingValue.monomial(v.descriptor, factor,
                                         [0] * v.descriptor.m))
    return SchurFunction(f.group, f.descriptor, rows)


def groups():
    out = {f"Z/{n}": make_cyclic(n) for n in (1, 2, 3, 17, 64, 256)}
    out.update({f"subsets{k}": make_subset_group(list(range(k)))
                for k in (2, 3, 5)})
    out["Z/4xZ/8"] = direct_product(make_cyclic(4), make_cyclic(8))
    out["Z/2xZ/4xZ/6"] = direct_product(     # a -> a mod 2 a homomorphism
        direct_product(make_cyclic(2), make_cyclic(4)), make_cyclic(6))
    out.update(NON_ABELIAN)
    return out


GROUPS = groups()
CASES = [(name, ring) for name, g in GROUPS.items() for ring in RINGS
         if ring in ("complex", "real") or g.order <= 64]


@pytest.mark.parametrize("name,ring", CASES)
def test_valid_and_corrupted_tables_match_the_full_check(name, ring,
                                                         decisions):
    g = GROUPS[name]
    f = make_table(g, ring, seed=g.order)
    assert same(validate(f, 1e-9), exhaustive(f, 1e-9))
    assert validate(f, 1e-9).ok
    # the certificate proves these tables valid wherever it reads at most
    # half the rows, and at least one
    assert decisions == [0 < 2 * len(g.generators) <= g.order] * 2
    if g.order < 4:
        return
    decisions.clear()
    f = corrupt(f, seed=g.order)
    rep = validate(f, 1e-9)
    assert not rep.ok and same(rep, exhaustive(f, 1e-9))
    assert True not in decisions


@pytest.mark.parametrize("tol", [0.0, 1e-300, 1.0, 1e300, math.nan])
@pytest.mark.parametrize("name,ring", [("Z/17", "complex"), ("Z/64", "real"),
                                       ("S4", "laurent2"),
                                       ("subsets5", "laurent1")])
def test_every_tol_gives_the_full_report(name, ring, tol, decisions):
    g = GROUPS[name]
    for f in (make_table(g, ring, 1), corrupt(make_table(g, ring, 2), 2)):
        assert same(validate(f, tol), exhaustive(f, tol))
    assert True not in decisions


def drifted(g, amp):
    """A valid complex table times small random phases (up to amp) on every
    entry off the identity row and column, symmetric, so equal on (t, t^-1)
    and (t^-1, t): each triple drifts by up to four of them, about as much
    on the generator rows as anywhere."""
    n, rng = g.order, np.random.default_rng(5)
    u = rng.uniform(-1, 1, (n, n))
    u = np.triu(u) + np.triu(u, 1).T
    u[0] = u[:, 0] = 0
    table = make_table(g, "complex", 3)._centre[..., 0]
    return SchurFunction(g, COMPLEX, table * np.exp(1j * amp * u))


@pytest.mark.parametrize("name", ["Z/64", "D16", "Z/4xZ/8"])
@pytest.mark.parametrize("violations", [False, True])
def test_drift_below_tol_on_the_generator_rows_is_refused(name, violations,
                                                          decisions):
    """Generator rows within tol, but by more than tol / (3 (n-1)): no
    proof from those rows bounds the other triples by tol."""
    g = GROUPS[name]
    n, f = g.order, drifted(g, 1e-6)
    rows = np.array([0] + g.generators)
    res = cocycle._residual(*cocycle._cocycle_sides(
        g.mul, f._centre[..., None], f._centre[..., None],
        np.zeros((n, n, 0), dtype=np.int64), slice(None)))
    top, gen_top = res.max(), res[rows].max()
    assert gen_top < top
    tol = (gen_top + top) / 2 if violations else 2 * top
    assert tol / (3 * (n - 1)) < gen_top < tol
    rep = validate(f, tol)
    assert same(rep, exhaustive(f, tol))
    assert rep.ok is not violations
    assert decisions == [False]


def test_drift_across_the_threshold(decisions):
    """As the drift grows the certificate turns from accepting to refusing,
    well before the table breaks tol; the reports equal the full check's
    throughout."""
    g = GROUPS["Z/17"]
    for amp in np.geomspace(1e-13, 1e-9, 9):
        f = drifted(g, amp)
        assert same(validate(f, 1e-9), exhaustive(f, 1e-9))
    assert decisions == [True] * 4 + [False] * 5


def test_the_proof_inducts_over_the_depth(decisions):
    """Every element of Z/4 x Z/8 is a word of at most 10 of its generators,
    not 31: a drift whose generator rows times 3 (n - 1) exceed tol, but
    times 3 depth do not, is proved, and the report equals the full
    check's."""
    g = GROUPS["Z/4xZ/8"]
    n, f = g.order, drifted(g, 4e-12)
    rows = np.array([0] + g.generators)
    gen_top = cocycle._residual(*cocycle._cocycle_sides(
        g.mul, f._centre[..., None], f._centre[..., None],
        np.zeros((n, n, 0), dtype=np.int64), rows)).max()
    assert g.depth == 10
    assert 3 * g.depth * gen_top < 0.5e-9 < 1e-9 < 3 * (n - 1) * gen_top
    rep = validate(f, 1e-9)
    assert rep.ok and same(rep, exhaustive(f, 1e-9))
    assert decisions == [True]


def test_exponents_must_match_on_the_generator_rows(decisions):
    """A Laurent table whose generator rows agree in every coefficient and
    differ in one exponent is refused (the residual there is a whole
    coefficient): the full check reports it."""
    g = GROUPS["Z/17"]
    f = make_table(g, "laurent2", 4)
    r, t = outside_entry(g, 4)
    v = f.values[r][t]
    c, e = v.is_monomial(0.0)
    rows = [list(row) for row in f.values]
    rows[r][t] = RingValue.monomial(v.descriptor, c, (e[0] + 1, e[1]))
    f = SchurFunction(g, f.descriptor, rows)
    rep = validate(f, 1e-9)
    assert not rep.ok and same(rep, exhaustive(f, 1e-9))
    assert {check for check, _, _ in rep.violations} == {"cocycle"}
    assert decisions == [False]


@pytest.mark.parametrize("tol", [5e-15, 1e-14])
def test_dropped_generator_rows_prove_nothing(tol, decisions):
    """Laurent residuals of at most _COEFF_EPS read 0 (cocycle._dropped).
    On Z/2 with f(e, e) = exp(-i th) and f(e, a) = exp(i th), th = 9e-15,
    the generator row's residuals (about th) read 0, while row e's (2 th)
    break tol.  The proof takes tol and rho at least _COEFF_EPS, so it
    refuses, and the full check reports row e."""
    d, th = laurent(1), 9e-15
    rows = [[np.exp(-1j * th), np.exp(1j * th)], [1, 1j]]
    f = SchurFunction(make_cyclic(2), d, [[RingValue.monomial(d, c, (0,))
                                           for c in row] for row in rows])
    rep = validate(f, tol)
    assert same(rep, exhaustive(f, tol))
    assert [(c, w) for c, w, _ in rep.violations] == [
        ("cocycle", (0, 0, 1)), ("cocycle", (0, 1, 1))]
    assert decisions == [False]


# -- the saving --------------------------------------------------------------

def unit_phases(n, seed):
    rng = np.random.default_rng(seed)
    return [RingValue.scalar(COMPLEX, np.exp(2j * np.pi * x))
            for x in rng.random(n - 1)]


def test_valid_order_256_table_skips_the_all_triples_loop(monkeypatch):
    f = make_f_alpha(256, unit_phases(256, 0))
    calls = []
    monkeypatch.setattr(cocycle, "_array_cocycle_check",
                        lambda *args: calls.append(args))
    assert validate(f).ok and calls == []


def test_corrupted_table_runs_the_all_triples_loop(monkeypatch):
    """The benchmark's corrupted table: one off-identity entry of an order-64
    coboundary rotated."""
    g = make_cyclic(64)
    table = make_table(g, "complex", 6)._centre[..., 0].copy()
    table[17, 40] *= np.exp(1.3j)
    full, calls = cocycle._array_cocycle_check, []

    def counted(*args):
        calls.append(1)
        return full(*args)

    monkeypatch.setattr(cocycle, "_array_cocycle_check", counted)
    rep = validate(SchurFunction(g, COMPLEX, table))
    assert calls == [1]
    assert {check for check, _, _ in rep.violations} == {"cocycle"}


def test_constructed_groups_carry_their_generators():
    assert make_cyclic(1).generators == []
    assert make_cyclic(2).generators == [1]
    assert make_cyclic(256).generators == [1]
    assert make_subset_group([]).generators == []
    assert make_subset_group("abcd").generators == [1, 2, 4, 8]
    g = direct_product(make_cyclic(4), make_subset_group("ab"))
    assert g.generators == [4, 1, 2]        # (1, {}), (0, {a}), (0, {b})
    three = direct_product(g, make_cyclic(3))
    assert three.generators == [12, 3, 6, 1]


def closure(g, gens):
    """Every product of gens, by breadth-first search in Python."""
    seen, todo = {g.identity}, [g.identity]
    while todo:
        x = todo.pop()
        for s in gens:
            y = g.op(x, s)
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


TABLE_GROUPS = dict(NON_ABELIAN, **{
    "Z/12": GroupTable(make_cyclic(12).mul),
    "Z/2xZ/6": GroupTable(direct_product(make_cyclic(2), make_cyclic(6)).mul),
    "subsets3": GroupTable(make_subset_group("abc").mul),
    "trivial": GroupTable([[0]])})


@pytest.mark.parametrize("name", TABLE_GROUPS)
def test_greedy_generators_generate_table_groups(name):
    g = TABLE_GROUPS[name]
    gens = g.generators
    assert closure(g, gens) == set(range(g.order))
    # greedy: each generator lies outside what the earlier ones generate
    for i, s in enumerate(gens):
        assert s not in closure(g, gens[:i])
    assert g.generators is gens             # found once
