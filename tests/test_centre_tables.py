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
                      serialize, trivial_cocycle, validate)
from twistalg.centre import leaves
from twistalg.cli import main
from twistalg.dense import readout_array, value_blocks
from twistalg.serialize import (ConfigError, parse_cocycle, parse_descriptor,
                                parse_group, parse_readouts, parse_scalar,
                                parse_value, parse_values)

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


def reference_value(d, obj):
    """The value of a literal of a finite ring as parse_value read it
    before its one reader: one literal at a time, a RingValue per part."""
    if d.kind in ("complex", "real"):
        return RingValue.scalar(d, parse_scalar(obj))
    if d.kind == "matrix":
        rows = [[parse_scalar(e) for e in row] for row in obj]
        if len(rows) != d.k or any(len(r) != d.k for r in rows):
            raise ConfigError(f"matrix literal must be {d.k}x{d.k}")
        return RingValue.mat(d, rows)
    if d.kind == "quaternion":
        if len(obj) != 4:
            raise ConfigError("quaternion literal must have 4 coordinates")
        return RingValue.quaternion([float(x) for x in obj])
    if len(obj) != len(d.factors):
        raise ConfigError("product literal component count mismatch")
    return RingValue.tuple_value(d, [reference_value(e, o)
                                     for e, o in zip(d.factors, obj)])


def reference_parse(obj):
    """parse_cocycle's table one reference_value per entry: list-held."""
    d, g = parse_descriptor(obj["descriptor"]), parse_group(obj["group"])
    return SchurFunction(g, d, [[reference_value(d, v) for v in row]
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
NO_LEN = "object of type '{}' has no len()"
# (ring, entries, the error the entry loop raised, or None if it read them:
# recorded from it, so the reader is not held against itself)
MALFORMED = {
    "M2C-word": ("M2C", {(1, 2): [["x", "0"], ["0", "1"]]},
                 (ConfigError, "bad scalar literal 'x'")),
    "M2C-shape-then-word": ("M2C", {(1, 1): [["1", "0"]],
                                    (1, 2): [["x", "0"], ["0", "1"]]},
                            (ConfigError, "matrix literal must be 2x2")),
    "M2C-word-then-shape": ("M2C", {(1, 1): [["x", "0"], ["0", "1"]],
                                    (1, 2): [["1", "0"]]},
                            (ConfigError, "bad scalar literal 'x'")),
    "M2C-string-rows": ("M2C", {(2, 0): ["10", "01"]}, None),
    "M2C-bool": ("M2C", {(0, 3): [[True, 0], [0, 1]]},
                 (ConfigError, "bad scalar literal True")),
    "M2R-complex-then-word": ("M2R", {(1, 0): [["1", "0.5i"], ["0", "1"]],
                                      (1, 1): [["y", "0"], ["0", "1"]]},
                              (ValueError, "complex scalar in a real ring")),
    "M2R-word-then-complex": ("M2R", {(0, 1): [["y", "0"], ["0", "1"]],
                                      (1, 0): [["1", "0.5i"], ["0", "1"]]},
                              (ConfigError, "bad scalar literal 'y'")),
    "M2R-tiny-imaginary": ("M2R", {(1, 1): [["1+1e-15i", "0"], ["0", "1"]]},
                           None),
    "H-three": ("H", {(1, 1): ["1", "0", "0"]},
                (ConfigError, "quaternion literal must have 4 coordinates")),
    "H-complex": ("H", {(2, 2): ["1+0i", "0", "0", "0"]},
                  (ValueError, "could not convert string to float: '1+0i'")),
    "H-dict": ("H", {(3, 1): {"a": 1, "b": 2, "c": 3, "d": 4}},
               (ValueError, "could not convert string to float: 'a'")),
    "H-bool": ("H", {(3, 3): [True, False, 0, 0]}, None),
    "CxM2C-missing": ("CxM2C", {(1, 3): ["1"]},
                      (ConfigError, "product literal component count "
                                    "mismatch")),
    "CxM2C-bad-scalar-then-shape": ("CxM2C", {
        (2, 1): ["z", [["1", "0"], ["0", "1"]]], (2, 2): ["1", [["1"]]]},
        (ConfigError, "bad scalar literal 'z'")),
    "RxH-complex": ("RxH", {(1, 1): ["1i", ["1", "0", "0", "0"]]},
                    (ValueError, "complex scalar in a real ring")),
    "RxH-numbers": ("RxH", {(0, 0): [1, [1.0, 0, 0, 0]]}, None),
    # no list where a list belongs: a number, None, a string, a dict
    "H-number": ("H", {(1, 2): 5}, (TypeError, NO_LEN.format("int"))),
    "H-none": ("H", {(2, 1): None}, (TypeError, NO_LEN.format("NoneType"))),
    "H-short-string": ("H", {(0, 2): "10"}, (
        ConfigError, "quaternion literal must have 4 coordinates")),
    "H-digit-string": ("H", {(3, 0): "1000"}, None),
    "H-word-then-number": ("H", {(1, 1): "abcd", (1, 2): 5},
                           (ValueError, "could not convert string to float: "
                                        "'a'")),
    "M2C-number": ("M2C", {(2, 3): 5},
                   (TypeError, "'int' object is not iterable")),
    "M2C-word-then-number-row": ("M2C", {(1, 0): [["x", "0"], 5]},
                                 (ConfigError, "bad scalar literal 'x'")),
    "M2C-number-row-then-word": ("M2C", {(1, 0): [["1", "0"], 5],
                                         (1, 1): [["x", "0"], ["0", "1"]]},
                                 (TypeError, "'int' object is not iterable")),
    "M2C-dict": ("M2C", {(0, 1): {"a": 1}},
                 (ConfigError, "bad scalar literal 'a'")),
    "M2R-string": ("M2R", {(3, 2): "ab"},
                   (ConfigError, "bad scalar literal 'a'")),
    "M2R-complex-then-number-row": ("M2R", {(2, 2): [["0.5i", "0"], 5]}, (
        TypeError, "'int' object is not iterable")),
    "CxM2C-number": ("CxM2C", {(1, 2): 5}, (TypeError, NO_LEN.format("int"))),
    "CxM2C-number-factor": ("CxM2C", {(3, 3): ["1", 5]},
                            (TypeError, "'int' object is not iterable")),
    "CxM2C-string": ("CxM2C", {(2, 0): "10"},
                     (ConfigError, "matrix literal must be 2x2")),
    "RxH-number-factor": ("RxH", {(1, 3): ["1", 5]},
                          (TypeError, NO_LEN.format("int"))),
    "RxH-none-then-dict": ("RxH", {(0, 1): None, (0, 2): {"a": 1}},
                           (TypeError, NO_LEN.format("NoneType"))),
    "RxH-dict-then-none": ("RxH", {(0, 1): {"a": 1}, (2, 0): None}, (
        ConfigError, "product literal component count mismatch")),
    "RxH-string-factor": ("RxH", {(3, 1): ["1", "1000"]}, None),
}


def malformed_config(case):
    ring, entries, _ = MALFORMED[case]
    table = [[ONE[ring] for _ in range(4)] for _ in range(4)]
    for (s, t), v in entries.items():
        table[s][t] = v
    return {"descriptor": RINGS[ring], "group": {"kind": "cyclic", "n": 4},
            "table": table}


@pytest.mark.parametrize("case", MALFORMED)
def test_centre_parse_raises_the_first_error_of_the_loop(case):
    obj, want = malformed_config(case), MALFORMED[case][2]
    assert outcome(parse_cocycle, obj) == want
    assert outcome(reference_parse, obj) == want
    if want is None:
        f, ref = parse_cocycle(obj), reference_parse(obj)
        assert key(validate(f)) == key(block_validate(ref))
        assert [[repr(v) for v in row] for row in f.values] == \
            [[repr(v) for v in row] for row in ref.values]


@pytest.mark.parametrize("case", [c for c, v in MALFORMED.items() if v[2]])
def test_literal_lists_raise_the_first_error_of_the_loop(case):
    """The f_alpha, clifford rho and lambda lists and one value read with
    the entries of a malformed table: the same first error."""
    obj, want = malformed_config(case), MALFORMED[case][2]
    d = parse_descriptor(obj["descriptor"])
    values = [v for row in obj["table"] for v in row]
    assert outcome(lambda v: parse_values(d, v), values) == want
    bad = next(v for v in values if outcome(lambda v: parse_value(d, v), v))
    assert outcome(lambda v: parse_value(d, v), bad) == want
    f_alpha = {"descriptor": obj["descriptor"], "f_alpha": values[:6]}
    assert outcome(parse_cocycle, f_alpha) == outcome(
        lambda v: [reference_value(d, a) for a in v], values[:6])


@pytest.mark.parametrize("obj", [5, None, "ab", {"a": 1}, True],
                         ids=["number", "none", "string", "dict", "bool"])
@pytest.mark.parametrize("ring", ["H", "M2C", "M2R", "CxM2C", "RxH",
                                  "complex", "real"])
def test_literal_lists_that_are_no_lists(ring, obj):
    d = parse_descriptor(RINGS.get(ring, ring))
    want = outcome(lambda v: [reference_value(d, a) for a in v], obj)
    assert want is not None
    assert outcome(lambda v: parse_values(d, v), obj) == want
    assert outcome(lambda v: parse_readouts(d, v), obj) == want


@pytest.mark.parametrize("ring", sorted(RINGS) + ["complex", "real"])
def test_empty_literal_lists(ring):
    d = parse_descriptor(RINGS.get(ring, ring))
    y = parse_readouts(d, [])
    assert y.shape == (0,) + readout_array(d, [RingValue.unit(d)]).shape[1:]
    assert parse_values(d, []) == []


# -- the one reader against the entry loop ----------------------------------

# the first four real, the first six strings that take the one pass
SCALARS = ["1", "-0", " 2.5e-1 ", "-1e3", "0.6+0.8i", " 0.6 - 0.8 i ", "-i",
           "1e-3-2.5e1i", "nan", "inf", "-infi", "1+1e-15i", "1\n", "\t1",
           "1_0", "(1)", "1\n2", 3, -1.5, [0.6, 0.8], ["-0.25", "0"], "0.5i",
           "x", True, None, [1]]
# float() reads the first four; complex() reads "(1)" and "1+0j" too
COORDINATES = ["1", "-0", "0.5", " 2 ", "1e-3", "inf", "nan", "1_0", 3,
               -1.5, True, "(1)", "1+0j", "1+0i", "x", None, [0]]


def random_literal(d, rng, odd):
    """A literal of ring d: strings mostly, with probability odd a number,
    a pair, an odd or a bad piece, or a wrong length."""
    common = 4 if d.is_real else 6
    pick = lambda pool: pool[rng.integers(len(pool) if rng.random() < odd
                                          else min(common, len(pool)))]
    if d.kind in ("complex", "real"):
        return pick(SCALARS)
    if d.kind == "quaternion":
        out = [pick(COORDINATES) for _ in range(4)]
    elif d.kind == "matrix":
        out = [[pick(SCALARS) for _ in range(d.k)] for _ in range(d.k)]
    else:
        out = [random_literal(e, rng, odd) for e in d.factors]
    return out[:-1] if rng.random() < odd / 4 else out


def readouts_or_error(read, d, literals):
    try:
        y = read(d, literals)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return y.dtype, y.shape, y.tobytes()


@pytest.mark.parametrize("ring", sorted(RINGS) + ["nested"])
def test_parse_readouts_is_the_entry_loops_readout(ring):
    """parse_readouts equals readout_array of reference_value's values of
    the same literals bit for bit (or raises its first error), over lists
    of strings that take the one pass and lists that fall back."""
    d = parse_descriptor(NESTED if ring == "nested" else RINGS[ring])
    rng = np.random.default_rng([len(ring), 30])
    reference = lambda d, v: readout_array(d, [reference_value(d, a)
                                                 for a in v])
    read = {}
    for k in range(200):
        odd = (0.0, 0.02, 0.2)[k % 3]
        literals = [random_literal(d, rng, odd)
                    for _ in range(rng.integers(1, 9))]
        want = readouts_or_error(reference, d, literals)
        assert readouts_or_error(parse_readouts, d, literals) == want
        read[type(want[0]) is type] = True
    assert set(read) == {True, False}       # both errors and values


def test_table_parse_makes_no_parse_value_per_entry(monkeypatch):
    """A table of M_2(C) that is not all c 1 is read row by row into
    readouts, its values made from them: no parse_value or parse_scalar
    call per entry, nor after the parse."""
    calls = []
    for name in ("parse_value", "parse_scalar"):
        real = getattr(serialize, name)
        monkeypatch.setattr(serialize, name, lambda *a, real=real: (
            calls.append(1), real(*a))[1])
    n = 8
    table = [[[[f"{s}", "0.5i"], [f"{t}", "1"]] for t in range(n)]
             for s in range(n)]
    f = parse_cocycle({"descriptor": RINGS["M2C"],
                       "group": {"kind": "cyclic", "n": n}, "table": table})
    assert f._centre is None
    assert repr(f.value(3, 5)) == repr(RingValue.mat(
        matrix_ring(2), [[3, 0.5j], [5, 1]]))
    assert calls == []


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
