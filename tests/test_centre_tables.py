"""Tables over H, M_k and products held as their centre: one scalar array
per centre factor (twistalg.centre).  validate on them must give the report
of the b x b block path (tests/rvalidate.py), residuals bit for bit; tables
that are not exactly central and finite stay on the block path."""
import json

import numpy as np
import pytest

from small_groups import Q8
from twistalg import (COMPLEX, QUATERNION, REAL, RingValue, SchurFunction,
                      make_cyclic, make_f_alpha, matrix_ring, product_ring,
                      trivial_cocycle, validate)
from twistalg.centre import leaves, read_table
from twistalg.cli import main
from twistalg.dense import value_blocks
from twistalg.serialize import (parse_cocycle, parse_descriptor, parse_group,
                                parse_value)

from rvalidate import block_validate

M2 = {"kind": "matrix", "k": 2}
RINGS = {
    "H": "quaternion",
    "M2C": M2,
    "M2R": {"kind": "matrix", "k": 2, "field": "real"},
    "M3C": {"kind": "matrix", "k": 3},
    "CxM2C": {"kind": "product", "factors": ["complex", M2]},
    "RxH": {"kind": "product", "factors": ["real", "quaternion"]},
    "CxH": {"kind": "product", "factors": ["complex", "quaternion"]},
}
GROUPS = {"Z1": make_cyclic(1), "Z2": make_cyclic(2), "Z8": make_cyclic(8),
          "Q8": Q8, "Z16": make_cyclic(16), "Z32": make_cyclic(32)}
VARIANTS = ("valid", "rotated", "non-unitary", "normalization", "inverse")


def fmt(c, real):
    return f"{c.real:.17g}" if real else f"{c.real:.17g}{c.imag:+.17g}i"


def literal(d, scalars):
    """The config literal of c 1 in ring d, c taken from the iterator
    scalars, one per leaf factor."""
    if d.kind == "product":
        return [literal(e, scalars) for e in d.factors]
    s = fmt(next(scalars), d.is_real)
    if d.kind == "quaternion":
        return [s, "0", "0", "0"]
    if d.kind == "matrix":
        return [[s if i == j else "0" for j in range(d.k)]
                for i in range(d.k)]
    return s


def config(d, g, tables):
    """A table config over group g from one (n, n) scalar table per leaf
    factor of d."""
    n = g.order
    return {"descriptor": d, "group": {"kind": "table",
                                       "mul": g.mul.tolist()},
            "table": [[literal(parse_descriptor(d), iter(
                [t[s, u] for t in tables])) for u in range(n)]
                for s in range(n)]}


def coboundary_tables(d, g, rng):
    """delta lambda for random central unitaries: phases on complex leaves,
    signs on real ones."""
    out, n = [], g.order
    for e in leaves(d):
        lam = (rng.choice([-1.0, 1.0], n) if e.is_real
               else np.exp(2j * np.pi * rng.random(n)))
        lam[g.identity] = 1
        t = lam[:, None] * lam[None, :] * lam[g.mul].conj()
        out.append(t.real if e.is_real else t)
    return out


def break_table(variant, d, g, tables, rng):
    """One entry of the last leaf's table changed as the variant says."""
    n, e = g.order, g.identity
    t = tables[-1]
    real = leaves(d)[-1].is_real
    turn = -1.0 if real else np.exp(1.3j)
    others = [x for x in range(n) if x != e] or [e]
    s, u = (int(x) for x in rng.choice(others, 2))
    if variant == "rotated":
        t[s, u] *= turn
    elif variant == "non-unitary":
        t[s, u] *= 1.5
    elif variant == "normalization":
        t[e, u] *= turn
    elif variant == "inverse":
        t[s, g.inv[s]] *= turn


def reference_parse(obj):
    """parse_cocycle's table one parse_value per entry: list-held."""
    d, g = parse_descriptor(obj["descriptor"]), parse_group(obj["group"])
    return SchurFunction(g, d, [[parse_value(d, v) for v in row]
                                for row in obj["table"]])


def key(rep):
    return [(c, w, repr(r)) for c, w, r in rep.violations]


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("ring", RINGS)
def test_centre_report_equals_the_block_report(ring, group, variant):
    g = GROUPS[group]
    rng = np.random.default_rng([len(ring), g.order, len(variant)])
    d = RINGS[ring]
    tables = coboundary_tables(parse_descriptor(d), g, rng)
    if variant != "valid":
        break_table(variant, parse_descriptor(d), g, tables, rng)
    obj = config(d, g, tables)
    f, ref = parse_cocycle(obj), reference_parse(obj)
    assert f._centre is not None and f._values is None
    want = block_validate(ref)
    assert key(validate(ref)) == key(want)      # the reference is today's
    got = validate(f)
    assert key(got) == key(want)
    assert got.ok or variant != "valid"
    assert np.array_equal(f._dense[0], value_blocks(ref.descriptor,
                                                    ref.values))
    assert f._values is None
    assert all(a == b for ra, rb in zip(f.values, ref.values)
               for a, b in zip(ra, rb))
    # the same payload types and bits, a quaternion factor's real too
    assert [[repr(v) for v in row] for row in f.values] == \
        [[repr(v) for v in row] for row in ref.values]
    assert f._centre is not None


def random_value(d, rng):
    if d.kind == "product":
        return RingValue.tuple_value(d, [random_value(e, rng)
                                         for e in d.factors])
    c = rng.uniform(-1, 1, 2 * d.k * d.k or 4)
    if d.kind == "quaternion":
        return RingValue.quaternion(c[:4])
    if d.kind == "matrix":
        a = c[:d.k * d.k] + (0 if d.is_real else 1j * c[d.k * d.k:])
        return RingValue.mat(d, a.reshape(d.k, d.k))
    return RingValue.scalar(d, c[0] if d.is_real else complex(c[0], c[1]))


NESTED = {"kind": "product", "factors": [
    "complex", {"kind": "product", "factors": ["real", M2]}]}


@pytest.mark.parametrize("group", ["Z8", "Q8"])
@pytest.mark.parametrize("ring", ["CxM2C", "RxH", "CxH", "nested"])
def test_product_norms_slice_the_centre(ring, group):
    """alg_norm on a centre-held product table builds each factor's table
    from its slice of the centre, never the values view; the norm equals,
    bit for bit, that of the same table held as values, whose factor tables
    are read off the values."""
    from twistalg import AlgebraElement, alg_norm
    obj = NESTED if ring == "nested" else RINGS[ring]
    d, g = parse_descriptor(obj), GROUPS[group]
    rng = np.random.default_rng(len(ring) + g.order)
    cfg = config(obj, g, coboundary_tables(d, g, rng))
    f, listed = parse_cocycle(cfg), reference_parse(cfg)
    assert f._centre is not None and listed._centre is None
    for _ in range(3):
        coeffs = [random_value(d, rng) for _ in range(g.order)]
        got = alg_norm(AlgebraElement(f, coeffs))
        assert got == alg_norm(AlgebraElement(listed, coeffs)) and got > 0
    assert f._values is None


def test_centre_parse_makes_no_ring_value(monkeypatch):
    d = RINGS["CxM2C"]
    g = make_cyclic(16)
    obj = config(d, g, coboundary_tables(parse_descriptor(d), g,
                                         np.random.default_rng(2)))
    made = []
    init = RingValue.__init__
    monkeypatch.setattr(RingValue, "__init__",
                        lambda self, *a: made.append(1) or init(self, *a))
    f = parse_cocycle(obj)
    assert validate(f).ok
    assert f._centre is not None and f._values is None
    # only the unit check makes values: f(e, e), 1 and their difference,
    # each a product and its two factors; none per entry
    assert len(made) <= 12 < g.order


def test_identity_m2_table_at_order_64_takes_the_centre():
    n = 64
    obj = {"descriptor": M2, "group": {"kind": "cyclic", "n": n},
           "table": [[[["1", "0"], ["0", "1"]]] * n] * n}
    f = parse_cocycle(obj)
    assert f._centre is not None
    assert validate(f).ok


def test_centre_constructor_checks_its_array():
    g, d = make_cyclic(2), product_ring(COMPLEX, QUATERNION)
    ok = np.ones((2, 2, 2), dtype=complex)
    assert validate(SchurFunction(g, d, ok)).ok
    for bad in (np.ones((2, 2, 3), dtype=complex), np.ones((2, 2, 2)),
                ok * 1j):
        with pytest.raises(ValueError, match="descriptor mismatch"):
            SchurFunction(g, d, bad)
    with pytest.raises(ValueError, match="shape mismatch"):
        SchurFunction(g, d, np.ones((3, 2, 2), dtype=complex))


def test_real_factors_of_a_complex_centre_read_as_real():
    d = product_ring(COMPLEX, REAL, matrix_ring(2, "real"), QUATERNION)
    f = SchurFunction(make_cyclic(2), d, np.full((2, 2, 4), -1 + 0j))
    c, r, m, q = f.value(1, 1).payload
    assert type(c.payload) is complex and type(r.payload) is float
    assert m.payload.dtype == float and q.payload.dtype == float
    assert repr(f.values[1][1]) == repr(parse_value(d, [
        "-1+0i", "-1", [["-1", "0"], ["0", "-1"]], ["-1", "0", "0", "0"]]))


# -- tables that stay on the block path -------------------------------------

def identity_literal(ring):
    return literal(parse_descriptor(RINGS[ring]), iter([1.0] * 2))


FALLBACKS = {
    # central within tol only
    "M2C-offdiagonal": ("M2C", [["1", "1e-14"], ["0", "1"]], False),
    "H-imaginary": ("H", ["1", "0", "1e-14", "0"], False),
    "CxM2C-offdiagonal": ("CxM2C", ["1", [["1", "0"], ["-1e-14", "1"]]],
                          False),
    # not central
    "M2C-unequal-diagonal": ("M2C", [["1", "0"], ["0", "-1"]], True),
    "M2R-swap": ("M2R", [["0", "1"], ["1", "0"]], True),
    "H-j": ("H", ["0", "0", "1", "0"], True),
    "RxH-k": ("RxH", ["1", ["0", "0", "0", "1"]], True),
    "M2C-diagonal-bits": ("M2C", [["1", "0"], ["0", "1.0000000000000002"]],
                          False),
    # not finite (a NaN matrix, and inf - inf, fail is_central too)
    "M2C-nan": ("M2C", [["nan", "0"], ["0", "nan"]], True),
    "M2C-inf": ("M2C", [["inf", "0"], ["0", "inf"]], True),
    "H-inf": ("H", ["inf", "0", "0", "0"], False),
    "CxM2C-inf": ("CxM2C", ["inf", [["1", "0"], ["0", "1"]]], False),
    "RxH-nan": ("RxH", ["1", ["nan", "0", "0", "0"]], False),
}


@pytest.mark.parametrize("case", FALLBACKS)
def test_tables_that_stay_on_the_block_path(case):
    ring, entry, central = FALLBACKS[case]
    n = 4
    table = [[identity_literal(ring) for _ in range(n)] for _ in range(n)]
    table[2][3] = entry
    obj = {"descriptor": RINGS[ring], "group": {"kind": "cyclic", "n": n},
           "table": table}
    d = parse_descriptor(RINGS[ring])
    assert read_table(d, table) is None
    f = parse_cocycle(obj)
    assert f._centre is None
    rep = validate(f)
    assert key(rep) == key(block_validate(f))
    assert (("central", (2, 3), 1.0) in rep.violations) is central


@pytest.mark.parametrize("entry", ["nan", "inf", "-infi", "nan+nani"])
def test_complex_tables_keep_their_centre_with_non_finite_entries(entry):
    table = [["1"] * 3 for _ in range(3)]
    table[1][2] = entry
    obj = {"descriptor": "complex", "group": {"kind": "cyclic", "n": 3},
           "table": table}
    f = parse_cocycle(obj)
    assert f._centre is not None
    assert key(validate(f)) == key(block_validate(reference_parse(obj)))


# -- malformed literals: parse_value's first error --------------------------

def outcome(parse, obj):
    try:
        parse(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


ONE = {"M2C": [["1", "0"], ["0", "1"]], "M2R": [["1", "0"], ["0", "1"]],
       "H": ["1", "0", "0", "0"], "CxM2C": ["1", [["1", "0"], ["0", "1"]]],
       "RxH": ["1", ["1", "0", "0", "0"]]}
MALFORMED = {
    "M2C-word": ("M2C", {(1, 2): [["x", "0"], ["0", "1"]]}),
    "M2C-shape-then-word": ("M2C", {(1, 1): [["1", "0"]],
                                    (1, 2): [["x", "0"], ["0", "1"]]}),
    "M2C-word-then-shape": ("M2C", {(1, 1): [["x", "0"], ["0", "1"]],
                                    (1, 2): [["1", "0"]]}),
    "M2C-string-rows": ("M2C", {(2, 0): ["10", "01"]}),
    "M2C-bool": ("M2C", {(0, 3): [[True, 0], [0, 1]]}),
    "M2R-complex-then-word": ("M2R", {(1, 0): [["1", "0.5i"], ["0", "1"]],
                                      (1, 1): [["y", "0"], ["0", "1"]]}),
    "M2R-word-then-complex": ("M2R", {(0, 1): [["y", "0"], ["0", "1"]],
                                      (1, 0): [["1", "0.5i"], ["0", "1"]]}),
    "M2R-tiny-imaginary": ("M2R", {(1, 1): [["1+1e-15i", "0"], ["0", "1"]]}),
    "H-three": ("H", {(1, 1): ["1", "0", "0"]}),
    "H-complex": ("H", {(2, 2): ["1+0i", "0", "0", "0"]}),
    "H-dict": ("H", {(3, 1): {"a": 1, "b": 2, "c": 3, "d": 4}}),
    "H-bool": ("H", {(3, 3): [True, False, 0, 0]}),
    "CxM2C-missing": ("CxM2C", {(1, 3): ["1"]}),
    "CxM2C-bad-scalar-then-shape": ("CxM2C", {
        (2, 1): ["z", [["1", "0"], ["0", "1"]]], (2, 2): ["1", [["1"]]]}),
    "RxH-complex": ("RxH", {(1, 1): ["1i", ["1", "0", "0", "0"]]}),
    "RxH-numbers": ("RxH", {(0, 0): [1, [1.0, 0, 0, 0]]}),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_centre_parse_raises_the_first_error_of_the_loop(case):
    ring, entries = MALFORMED[case]
    table = [[ONE[ring] for _ in range(4)] for _ in range(4)]
    for (s, t), v in entries.items():
        table[s][t] = v
    obj = {"descriptor": RINGS[ring], "group": {"kind": "cyclic", "n": 4},
           "table": table}
    want = outcome(reference_parse, obj)
    assert outcome(parse_cocycle, obj) == want
    if want is None:
        f, ref = parse_cocycle(obj), reference_parse(obj)
        assert key(validate(f)) == key(block_validate(ref))


# -- product rings with a Laurent factor ------------------------------------

LAURENT_C = product_ring(parse_descriptor({"kind": "laurent", "m": 1}),
                         COMPLEX)


def test_product_with_a_laurent_factor_validates_on_the_object_loop():
    assert trivial_cocycle(make_cyclic(3), LAURENT_C).validate().ok
    a = RingValue.tuple_value(LAURENT_C, [
        RingValue.monomial(LAURENT_C.factors[0], 1j, (1,)),
        RingValue.scalar(COMPLEX, -1)])
    f = make_f_alpha(3, [a, a])
    assert f.validate().ok
    rows = [list(row) for row in f.values]
    rows[1][1] = rows[1][1] * a
    f = SchurFunction(f.group, LAURENT_C, rows)
    assert {c for c, _, _ in f.validate().violations} == {"cocycle"}


def test_cli_validates_a_product_with_a_laurent_factor(tmp_path, capsys):
    one = [[[0], "1"]]
    cfg = {"cocycle": {"descriptor": {"kind": "product", "factors": [
        {"kind": "laurent", "m": 1}, "complex"]},
        "group": {"kind": "cyclic", "n": 3},
        "table": [[[one, "1"]] * 3] * 3}}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"valid": True, "violation_count": 0, "violations": []}
    cfg["cocycle"]["table"] = [[[one, "1"]] * 3, [[one, "1"]] * 3,
                               [[one, "1"], [one, "1"], [one, "-1"]]]
    path.write_text(json.dumps(cfg))
    assert main(["validate", "--config", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["violation_count"] > 0
