"""alg_mul and alg_star over finite rings beyond C and R, on readouts
(dense.twisted_mul, dense.twisted_star), against the object loops of
tests/ralg.py: M_2(C), M_2(R), H, C x M_2(C), R x H and C x R, on tables
held as a centre and as a list, with dense, sparse, signed-zero and
inf/NaN coefficients; no RingValue product; bounded memory."""
import tracemalloc

import numpy as np
import pytest

from ralg import reference_alg_mul, reference_alg_star
from small_groups import Q8, S3
from twistalg.algebra import AlgebraElement, alg_mul, alg_star
from twistalg.centre import leaves
from twistalg.cocycle import SchurFunction, klein_table
from twistalg.groups import make_cyclic
from twistalg.isolab import TwistedModel
from twistalg.rings import (COMPLEX, QUATERNION, REAL, RingValue,
                            matrix_ring, product_ring)

RINGS = {"M2C": matrix_ring(2), "M2R": matrix_ring(2, "real"),
         "H": QUATERNION, "CxM2C": product_ring(COMPLEX, matrix_ring(2)),
         "RxH": product_ring(REAL, QUATERNION),
         "CxR": product_ring(COMPLEX, REAL)}
GROUPS = {"S3": S3, "Q8": Q8, "Z5": make_cyclic(5)}
DRAWS = ("dense", "sparse", "signed", "wild", "wild")

# Where a result's repr may differ from the object loop's, by ring and
# operation; every other result is repr-equal.
#  - "zero sign": the sign of a zero entry.  alg_star multiplies by
#    tilde f(t) as b x b forms multiply (einsum sums, which start from
#    +0); the object loop takes each ring's own product (matrix @, the
#    quaternion formula, factor by factor), where a sum of -0 terms stays
#    -0.  alg_mul has none: both sum each coefficient from +0.
#  - "non-finite": an entry that reads inf on one side and NaN on the
#    other, where a coefficient holds inf.  Over complex matrices the
#    object loop's @ (BLAS zgemm) scales each sum by alpha = 1 + 0j, and
#    0 inf is NaN; over C x R the R factor sits in a complex array, whose
#    zero imaginary parts meet inf.
MOVES = {
    ("M2C", "mul"): {"non-finite"},
    ("M2C", "star"): {"zero sign", "non-finite"},
    ("H", "star"): {"zero sign"},
    ("CxM2C", "mul"): {"non-finite"},
    ("CxM2C", "star"): {"zero sign", "non-finite"},
    ("RxH", "star"): {"zero sign"},
    ("CxR", "mul"): {"non-finite"},
    ("CxR", "star"): {"zero sign"},
}


def coboundary_centre(rng, g, d):
    """The centre of lam(s) lam(t) lam(st)^* on each leaf of d: a unit
    phase per group element on complex leaves, a sign on real ones."""
    cols = []
    for e in leaves(d):
        lam = (rng.choice([-1.0, 1.0], g.order) if e.is_real
               else np.exp(2j * np.pi * rng.random(g.order)))
        lam[g.identity] = 1
        cols.append(lam[:, None] * lam[None, :] * lam[g.mul].conj())
    c = np.stack(cols, axis=-1)
    return c.real.copy() if d.is_real else c


def tables(rng, g, d):
    """The same random coboundary held as a centre and as a list."""
    c = coboundary_centre(rng, g, d)
    return {"centre": SchurFunction(g, d, c),
            "list": SchurFunction(g, d, SchurFunction(g, d, c).values)}


SPECIALS = (np.inf, -np.inf, np.nan)


def payload(rng, d, mode):
    """A random payload of ring d: dense; zero, each entry +0 or -0;
    signed, some entries -0; wild, one entry inf, -inf or NaN.  Each
    factor of a product draws its own mode among these."""
    if d.kind == "product":
        return tuple(RingValue(e, payload(rng, e, rng.choice(
            [mode, "dense", "zero"]))) for e in d.factors)
    shape = {"matrix": (d.k, d.k), "quaternion": (4,)}.get(d.kind, ())
    a = rng.normal(size=shape).astype(complex)
    if not d.is_real:
        a += 1j * rng.normal(size=shape)
    flat = a.reshape(-1)
    if mode == "zero":
        flat[:] = [complex(*rng.choice([0.0, -0.0], 2)) for _ in flat]
    elif mode == "signed":
        flat[rng.random(flat.size) < 0.4] = -0.0
    elif mode == "wild":
        flat[rng.integers(flat.size)] = rng.choice(SPECIALS)
    a = a.real.copy() if d.is_real else a
    return a if shape else (float(a) if d.is_real else complex(a))


def element(rng, f, draw):
    weights = {"dense": [1, 0, 0, 0], "sparse": [0.3, 0.7, 0, 0],
               "signed": [1, 1, 1, 0], "wild": [2, 1, 1, 1]}[draw]
    p = np.array(weights) / sum(weights)
    d = f.descriptor
    return AlgebraElement(f, [RingValue(d, payload(rng, d, mode)) for mode in
                              rng.choice(["dense", "zero", "signed", "wild"],
                                         f.group.order, p=p)])


def plain(v, nonfinite=False):
    """v with each -0 made +0 and, with nonfinite, each non-finite entry
    NaN."""
    p = v.payload
    if isinstance(p, tuple):
        return RingValue(v.descriptor, tuple(plain(a, nonfinite) for a in p))
    q = np.asarray(p) + 0.0
    if nonfinite:
        q = np.where(np.isfinite(q), q, np.nan)
    return RingValue(v.descriptor, type(p)(q) if np.ndim(p) == 0 else q)


def move(got, want):
    """None where the reprs are equal, else the kind of difference."""
    if repr(got) == repr(want):
        return None
    if repr(plain(got)) == repr(plain(want)):
        return "zero sign"
    if repr(plain(got, True)) == repr(plain(want, True)):
        return "non-finite"
    return f"other: {got!r} against {want!r}"


def moves(op, got, want) -> set:
    return {(op, m) for m in map(move, got, want) if m is not None}


@pytest.mark.parametrize("name", list(RINGS))
def test_readout_products_match_the_object_loops(name):
    d, seen = RINGS[name], set()
    rng = np.random.default_rng(list(RINGS).index(name))
    with np.errstate(all="ignore"):         # the object loops' inf and NaN
        for g in GROUPS.values():
            for held, f in tables(rng, g, d).items():
                for draw in DRAWS:
                    x, y = element(rng, f, draw), element(rng, f, draw)
                    seen |= moves("mul", alg_mul(x, y).coeffs,
                                  reference_alg_mul(x, y))
                    seen |= moves("star", alg_star(x).coeffs,
                                  reference_alg_star(x))
                assert f._values is None or held == "list"
    want = {(op, m) for op in ("mul", "star")
            for m in MOVES.get((name, op), ())}
    assert seen == want


def test_readout_products_over_klein_tables():
    # klein_table over H holds its values as a list
    rng = np.random.default_rng(11)
    signs = [RingValue.quaternion([s, 0, 0, 0]) for s in (1, -1)]
    for alpha, beta, gamma, eps in np.ndindex(2, 2, 2, 2):
        f = klein_table(signs[alpha], signs[beta], signs[gamma], signs[eps])
        assert f._centre is None
        for draw in DRAWS:
            x, y = element(rng, f, draw), element(rng, f, draw)
            with np.errstate(all="ignore"):
                seen = (moves("mul", alg_mul(x, y).coeffs,
                              reference_alg_mul(x, y))
                        | moves("star", alg_star(x).coeffs,
                                reference_alg_star(x)))
            assert seen <= {("star", m) for m in MOVES[("H", "star")]}


@pytest.mark.parametrize("name", ["CxM2C", "RxH", "CxR"])
def test_a_nan_in_a_later_factor_is_no_zero(name):
    # X_1 = (0, NaN): a term, as in the object loop, whose abs_bound keeps
    # the NaN of every factor
    d = RINGS[name]
    f = tables(np.random.default_rng(3), S3, d)["centre"]
    zero, unit = RingValue.zero(d), RingValue.unit(d)
    nan = RingValue(d, (zero.payload[0], unit.payload[1].scale(np.nan)))
    x = AlgebraElement.from_dict(f, {1: nan})
    y = AlgebraElement.from_dict(f, {0: unit, 2: unit})
    with np.errstate(all="ignore"):
        got, want = alg_mul(x, y).coeffs, reference_alg_mul(x, y)
    assert [repr(v) for v in got] == [repr(v) for v in want]
    assert sum(np.isnan(v.abs_bound()) for v in got) == 2


@pytest.mark.parametrize("name", list(RINGS))
def test_twisted_model_star_is_alg_star(name):
    d = RINGS[name]
    rng = np.random.default_rng(7)
    for f in tables(rng, Q8, d).values():
        model = TwistedModel(f)
        xs = [element(rng, f, draw) for draw in ("dense", "signed")]
        got = model.star_readout(model.readout(xs))
        assert got.tobytes() == model.readout(
            [alg_star(x) for x in xs]).tobytes()


@pytest.mark.parametrize("name", ["C", "R"] + list(RINGS))
@pytest.mark.parametrize("held", ["centre", "list"])
def test_finite_products_make_no_ring_value_products(monkeypatch, name,
                                                     held):
    d = RINGS.get(name, COMPLEX if name == "C" else REAL)
    rng = np.random.default_rng(5)
    f = tables(rng, S3, d)[held]
    x, y = element(rng, f, "dense"), element(rng, f, "sparse")
    want = reference_alg_mul(x, y), reference_alg_star(x)
    product, calls = RingValue.__mul__, []

    def counted(a, b):
        calls.append(a)
        return product(a, b)

    monkeypatch.setattr(RingValue, "__mul__", counted)
    got = alg_mul(x, y).coeffs, alg_star(x).coeffs
    monkeypatch.undo()
    assert calls == []
    assert [[repr(plain(v)) for v in vs] for vs in got] == [
        [repr(plain(v)) for v in vs] for vs in want]


def test_dense_complex_product_memory_is_bounded():
    # terms are made a block of rows s at a time: the whole (n, n) array
    # of terms at n = 1,024 would take 16 MiB, and its products more
    n = 1024
    rng = np.random.default_rng(9)
    g = make_cyclic(n)
    f = SchurFunction(g, COMPLEX, coboundary_centre(rng, g, COMPLEX))
    x, y = (AlgebraElement(f, [RingValue(COMPLEX, complex(*rng.normal(
        size=2))) for _ in range(n)]) for _ in range(2))
    tracemalloc.start()
    try:
        out = alg_mul(x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    assert f._values is None
    t = 5
    want = sum((f.value(s, (t - s) % n).payload * x.coeffs[s].payload
                * y.coeffs[(t - s) % n].payload for s in range(n)), 0j)
    assert out.coeffs[t].payload == pytest.approx(want, rel=1e-12)
