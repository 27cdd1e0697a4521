"""alg_mul and alg_star on scalar tables held as arrays, bit for bit against
the object loops of tests/ralg.py, and the CLI jobs that run them."""
import json

import numpy as np
import pytest

from ralg import reference_alg_mul, reference_alg_star
from small_groups import Q8, S3
from twistalg import algebra, groups
from twistalg.algebra import AlgebraElement, alg_mul, alg_star
from twistalg.cli import main
from twistalg.cocycle import SchurFunction
from twistalg.rings import COMPLEX, REAL, RingValue

GROUPS = {f"Z{n}": groups.make_cyclic(n) for n in (1, 2, 17, 128)}
GROUPS.update(S3=S3, Q8=Q8, Z2xZ3=groups.direct_product(
    groups.make_cyclic(2), groups.make_cyclic(3)))


def same_bits(got, want):
    """Coefficient lists with the same payload types and the same bits, NaN
    for NaN: which NaN a product of two NaNs gives is the C compiler's
    choice of operand order, not the algorithm's."""
    assert [type(c.payload) for c in got] == [type(c.payload) for c in want]
    a, b = (np.array([c.payload for c in cs], dtype=complex).view(float)
            for cs in (got, want))
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.array_equal(np.where(np.isnan(a), 0, a).view(np.uint64),
                          np.where(np.isnan(b), 0, b).view(np.uint64))


def element(f, values) -> AlgebraElement:
    d = f.descriptor
    cast = complex if d == COMPLEX else float
    return AlgebraElement(f, [RingValue(d, cast(v)) for v in values])


def draws(rng, n, d):
    """Dense, sparse and zero coefficient vectors, one with exact zeros of
    every sign, and one with inf and NaN next to zeros."""
    def normal():
        v = rng.normal(size=n)
        return v + 1j * rng.normal(size=n) if d == COMPLEX else v
    dense, sparse = normal(), np.zeros(n, dtype=complex if d == COMPLEX
                                       else float)
    k = rng.choice(n, size=min(n, 3), replace=False)
    sparse[k] = normal()[k]
    signed = normal()
    signed[rng.random(n) < 0.4] = -0.0
    signed[rng.random(n) < 0.2] = complex(0.0, -0.0) if d == COMPLEX else 0.0
    wild = normal()
    wild[rng.random(n) < 0.3] = 0.0
    specials = [np.inf, -np.inf, np.nan]
    if d == COMPLEX:
        specials += [complex(np.inf, 1), complex(1, np.nan),
                     complex(0.0, np.inf)]
    picks = rng.choice(n, size=min(n, 3), replace=False)
    for t, v in zip(picks, rng.choice(len(specials), size=len(picks))):
        wild[t] = specials[v]
    return {"dense": dense, "sparse": sparse, "zero": 0 * dense,
            "signed_zeros": signed, "inf_nan": wild}


@pytest.mark.parametrize("d", [COMPLEX, REAL], ids=str)
@pytest.mark.parametrize("name", list(GROUPS))
def test_array_products_are_bit_identical_to_the_object_loops(name, d):
    g = GROUPS[name]
    n = g.order
    rng = np.random.default_rng([n, d == COMPLEX])
    table = rng.normal(size=(n, n))
    if d == COMPLEX:
        table = table + 1j * rng.normal(size=(n, n))
    f = SchurFunction(g, d, table)
    vecs = draws(rng, n, d)
    with np.errstate(invalid="ignore", over="ignore"):
        for a in vecs:
            x = element(f, vecs[a])
            same_bits(alg_star(x).coeffs, reference_alg_star(x))
            for b in vecs:
                if n == 128 and "dense" not in (a, b):
                    continue        # the reference loop is slow at 128
                y = element(f, vecs[b])
                same_bits(alg_mul(x, y).coeffs, reference_alg_mul(x, y))
    assert f._values is None


def test_the_object_loop_keeps_list_held_tables():
    # reading values keeps a table on its array, with the same bits; a
    # table built from those values is list-held, and the object loop
    # gives the same bits too
    rng = np.random.default_rng(5)
    f = SchurFunction(S3, COMPLEX, np.exp(2j * np.pi * rng.random((6, 6))))
    a = rng.normal(size=6) + 1j * rng.normal(size=6)
    b = rng.normal(size=6) + 1j * rng.normal(size=6)
    x, y = element(f, a), element(f, b)
    want_mul, want_star = alg_mul(x, y).coeffs, alg_star(x).coeffs
    f.values
    assert f._centre is not None
    same_bits(alg_mul(x, y).coeffs, want_mul)
    same_bits(alg_star(x).coeffs, want_star)
    h = SchurFunction(S3, COMPLEX, f.values)
    assert h._centre is None
    x, y = element(h, a), element(h, b)
    same_bits(alg_mul(x, y).coeffs, want_mul)
    same_bits(alg_star(x).coeffs, want_star)


def test_array_products_raise_no_warnings():
    # Python's complex arithmetic is quiet about inf and NaN; so is the
    # array path, under a suite that turns RuntimeWarnings into errors
    f = SchurFunction(groups.make_cyclic(2), COMPLEX, np.ones((2, 2),
                                                              dtype=complex))
    x = element(f, [np.inf, 1e308])
    y = element(f, [0.0, 1e308])
    with np.errstate(all="raise"):
        alg_mul(x, y)
        alg_star(x)


@pytest.mark.parametrize("command", ["mul", "star"])
def test_cli_products_at_order_128_build_no_table_of_values(
        tmp_path, monkeypatch, capsys, command):
    n = 128
    rng = np.random.default_rng(2)
    lam = np.exp(2j * np.pi * rng.random(n))
    lam[0] = 1
    i = np.arange(n)
    table = lam[:, None] * lam[None, :] * lam[(i[:, None] + i) % n].conj()
    fmt = lambda z: f"{z.real:.17g}{z.imag:+.17g}i"
    coeffs = lambda: {str(t): fmt(complex(*rng.normal(size=2)))
                      for t in range(n)}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "cocycle": {"descriptor": "complex",
                    "group": {"kind": "cyclic", "n": n},
                    "table": [[fmt(z) for z in row] for row in table]},
        "x": {"coeffs": coeffs()}, "y": {"coeffs": coeffs()}}))
    init, made, tables = RingValue.__init__, [0], []

    def counted(self, *args):
        made[0] += 1
        init(self, *args)

    def recorded(name):
        op = getattr(algebra, name)

        def run(x, *rest):
            out = op(x, *rest)
            tables.append(x.cocycle)
            return out
        return run

    monkeypatch.setattr(RingValue, "__init__", counted)
    for name in ("alg_mul", "alg_star"):
        monkeypatch.setattr(algebra, name, recorded(name))
    assert main([command, "--config", str(cfg)]) == 0
    assert len(json.loads(capsys.readouterr().out)["result"]["coeffs"]) == n
    [f] = tables
    assert f._centre is not None and f._values is None
    assert made[0] <= 8 * n
