"""Scalar cocycle tables held as arrays: the array parse and the array
make_f_alpha against the object references they replaced, the table that
values builds on first access, and the cost of a validate job."""
import json

import numpy as np
import pytest

from small_groups import S3
from twistalg import groups
from twistalg.algebra import AlgebraElement, alg_norm, alg_star
from twistalg.cli import main
from twistalg.cocycle import (Lambda, SchurFunction, ValidationReport,
                              _cocycle_check, _entry_checks,
                              _monomial_f_alpha, coboundary, make_f_alpha,
                              validate)
from twistalg.rings import COMPLEX, REAL, RingValue, laurent
from twistalg.serialize import (cocycle_to_json, parse_cocycle,
                                parse_descriptor, parse_group, parse_value)


# -- references: the object paths the array paths replaced ------------------

def reference_parse(obj) -> SchurFunction:
    """parse_cocycle of a scalar table, one parse_value per entry."""
    d, g = parse_descriptor(obj["descriptor"]), parse_group(obj["group"])
    return SchurFunction(g, d, [[parse_value(d, e) for e in row]
                                for row in obj["table"]])


def reference_f_alpha(n, alphas, d):
    """make_f_alpha's table, one RingValue product at a time."""
    unit = RingValue.unit(d)
    ext = [unit] + list(alphas)
    stars = [a.star() for a in ext]
    vals = []
    for p in range(n):
        pp = p if p >= 1 else n
        v = unit
        row = [v]
        for q in range(1, n):
            v = v * ext[(pp + q - 1) % n] * stars[q - 1]
            row.append(v)
        vals.append(row)
    return vals


def assert_same_payloads(got, want):
    """Same payload types and the same bits, entry by entry."""
    assert [[type(v.payload) for v in row] for row in got] == \
        [[type(v.payload) for v in row] for row in want]
    bits = lambda t: np.array([[v.payload for v in row] for row in t],
                              dtype=complex).view(np.uint64)
    assert np.array_equal(bits(got), bits(want))


def outcome(parse, obj):
    """(exception type, message) of a parse, or None if it succeeds."""
    try:
        parse(obj)
    except (ValueError, TypeError) as exc:
        return type(exc), str(exc)
    return None


def cli_code(tmp_path, obj):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"cocycle": obj}))
    return main(["validate", "--config", str(cfg)])


# -- the array parse ----------------------------------------------------------

# whitespace, digit and grouping forms: some the row pass reads, some send
# their row to the entry loop (a line break; \x1c, which str.strip strips
# and complex() keeps); the i of inf and any non-string do the same
ODD_STRINGS = ["1\n", "\n-1", "\t1", "1\t", "\r1\r", "\xa01", "1\u2003",
               "\u3000-1 ", "\x1c1", "1_0", "(1)", "-nan", "\u0661"]
COMPLEX_LITERALS = ["1", "-0", "0.6+0.8i", "0.6-0.8j", " 0.6 + 0.8 i ",
                    "i", "-i", "j", "1e-3-2.5e1i", "+1-0i", "nan", "-1e308",
                    "inf", "-infi", "1-infi", "nan+nani", "(1+2i)",
                    "1_0+2_5i", "\u30000.6+0.8i\xa0", "\t0.6-0.8i\n",
                    3, -1.5, 0, 2.25, [0.6, 0.8], ["0.6", "-0.8"], [-0.0, 0],
                    ] + ODD_STRINGS
REAL_LITERALS = ["1", "-1", "-0", "0.5", " 2 ", "1e-3", "1+1e-15i",
                 "1-0i", 3, -1.5, 0, [0.5, 0], ["-0.25", "0"], "nan", "inf",
                 "-inf", "(-1-0i)", "1+0i\n"] + ODD_STRINGS


@pytest.mark.parametrize("ring, literals", [("complex", COMPLEX_LITERALS),
                                            ("real", REAL_LITERALS)])
def test_array_parse_matches_the_parse_value_loop(ring, literals):
    rng = np.random.default_rng(7)
    n = 6
    strings = [e for e in literals if isinstance(e, str)]
    for k in range(40):
        # every fourth table holds strings only: most rows take the row pass
        pool = strings if k % 4 else literals
        table = [[pool[i] for i in rng.integers(len(pool), size=n)]
                 for _ in range(n)]
        obj = {"descriptor": ring, "group": {"kind": "cyclic", "n": n},
               "table": table}
        f = parse_cocycle(obj)
        assert f._centre is not None
        assert_same_payloads(f.values, reference_parse(obj).values)


@pytest.mark.parametrize("ring, entries, code", [
    ("complex", {(1, 2): "1+"}, 2),
    ("complex", {(0, 1): "abc", (3, 0): None}, 2),
    ("complex", {(2, 2): [1, "x"]}, 1),       # float("x"): a ValueError
    ("complex", {(2, 1): {"re": 1}, (2, 2): "1+"}, 2),
    ("complex", {(1, 1): [1]}, 2),
    ("complex", {(0, 0): True}, 2),
    ("real", {(1, 1): "0.6+0.8i", (2, 0): "1+"}, 1),    # complex comes first
    ("real", {(1, 1): "1+", (2, 0): "0.6+0.8i"}, 2),    # malformed comes first
    ("real", {(3, 3): [0, 1]}, 1),
    ("real", {(0, 2): "1+1e-15i", (1, 0): "zz"}, 2),    # tiny imaginary part
    ("complex", {(1, 0): "0.6\n+0.8i", (1, 3): "1+"}, 2),  # break inside
    ("complex", {(2, 1): "1\t+2i"}, 2),
    ("complex", {(0, 3): "1 +\xa02i"}, 2),
    ("complex", {(1, 1): 2.5, (1, 2): True, (1, 3): "1+"}, 2),
    ("complex", {(2, 0): [1, "0.5"], (2, 1): "x", (2, 3): False}, 2),
    ("real", {(1, 1): "-infi", (1, 2): "1+"}, 1),      # complex comes first
    ("real", {(1, 1): "1\n+", (1, 2): "-infi"}, 2),    # malformed comes first
    ("real", {(1, 0): "1\n+2i", (1, 3): "(1"}, 2),     # malformed, no pass
    ("real", {(0, 1): "2", (2, 1): "0.5i", (3, 0): "1+"}, 1),
    ("real", {(0, 1): "2", (2, 1): "1+", (3, 0): "0.5i"}, 2),
    # a NaN imaginary part is a complex scalar too, and comes first
    ("real", {(2, 2): 3, (2, 3): "nan+nani", (3, 3): [1, True]}, 1),
    ("real", {(1, 2): [1, 2], (3, 3): True}, 1),
], ids=["truncated", "word_then_null", "bad_pair_part", "dict_then_truncated",
        "short_pair", "bool", "real_complex_first", "real_malformed_first",
        "real_complex_pair", "real_tiny_imag", "break_inside_literal",
        "tab_inside_literal", "unicode_space_inside", "number_then_bool",
        "pair_word_bool", "real_infi_first", "real_malformed_break_first",
        "real_break_then_paren", "real_complex_row_before_malformed",
        "real_malformed_row_before_complex", "real_nan_imag_then_bool",
        "real_pair_before_bool"])
def test_array_parse_raises_the_first_error_of_the_loop(
        tmp_path, capsys, ring, entries, code):
    table = [["1"] * 4 for _ in range(4)]
    for (s, t), e in entries.items():
        table[s][t] = e
    obj = {"descriptor": ring, "group": {"kind": "cyclic", "n": 4},
           "table": table}
    want = outcome(reference_parse, obj)
    assert want is not None
    assert outcome(parse_cocycle, obj) == want
    assert cli_code(tmp_path, obj) == code
    err = capsys.readouterr().err
    assert want[1] in err
    assert err.startswith("config error:" if code == 2 else "error:")


def test_array_parse_needs_a_scalar_ring():
    g = groups.make_cyclic(2)
    with pytest.raises(ValueError, match="descriptor mismatch"):
        SchurFunction(g, COMPLEX, np.ones((2, 2)))
    with pytest.raises(ValueError, match="descriptor mismatch"):
        SchurFunction(g, REAL, np.ones((2, 2), dtype=complex))
    with pytest.raises(ValueError, match="shape mismatch"):
        SchurFunction(g, REAL, np.ones((2, 3)))


@pytest.mark.parametrize("group", [S3, groups.make_cyclic(6),
                                   groups.direct_product(
                                       groups.make_cyclic(2),
                                       groups.make_cyclic(3))],
                         ids=["S3", "Z6", "Z2xZ3"])
@pytest.mark.parametrize("d", [COMPLEX, REAL], ids=str)
def test_array_table_reads_as_the_list_table(group, d):
    # a coboundary table with two broken entries, read through a config;
    # on S3 f(r, s) != f(s, r), so a transposed gather shows
    rng = np.random.default_rng(group.order)
    n = group.order
    units = (np.exp(2j * np.pi * rng.random(n)) if d == COMPLEX
             else rng.choice([-1.0, 1.0], n))
    lam = [RingValue.unit(d)] + [RingValue.scalar(d, u) for u in units[1:]]
    rows = [list(row) for row in coboundary(Lambda(group, d, lam)).values]
    for s, t in rng.integers(1, n, size=(2, 2)):
        rows[s][t] = -rows[s][t]
    obj = cocycle_to_json(SchurFunction(group, d, rows))
    f, ref = parse_cocycle(obj), reference_parse(obj)
    want = ValidationReport()
    _entry_checks(want, ref, 1e-9)
    _cocycle_check(want, ref, 1e-9)
    got = validate(f).violations
    assert [v[:2] for v in got] == [v[:2] for v in want.violations]
    assert np.allclose([v[2] for v in got], [v[2] for v in want.violations],
                       rtol=1e-15, atol=0)
    for a, b in zip(f._dense, ref._dense):
        assert np.array_equal(a, b)
    coeffs = [RingValue.scalar(d, c) for c in rng.normal(size=n)]
    x, y = AlgebraElement(f, coeffs), AlgebraElement(ref, coeffs)
    assert alg_norm(x) == alg_norm(y)
    assert [c.payload for c in alg_star(x).coeffs] == \
        [c.payload for c in alg_star(y).coeffs]
    assert f._values is None


# -- make_f_alpha -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 17, 128])
@pytest.mark.parametrize("ring", ["complex", "real"])
def test_f_alpha_array_is_bit_identical_to_the_object_loop(n, ring):
    rng = np.random.default_rng(n)
    if ring == "complex":
        d = COMPLEX
        alphas = [RingValue.scalar(d, z)
                  for z in np.exp(2j * np.pi * rng.random(n - 1))]
    else:
        d = REAL        # signs a few ulps off 1: products round
        alphas = [RingValue.scalar(d, s * (1 + k * 2.0 ** -52))
                  for s, k in zip(rng.choice([-1.0, 1.0], n - 1),
                                  rng.integers(-3, 4, n - 1))]
    f = make_f_alpha(n, alphas, d)
    assert f._centre is not None
    assert_same_payloads(f.values, reference_f_alpha(n, alphas, d))


@pytest.mark.parametrize("n", [1, 2, 8, 16])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("coeffs", ["phases", "units"])
def test_laurent_f_alpha_is_bit_identical_to_the_object_loop(n, m, coeffs,
                                                              monkeypatch):
    """Monomial parameters take the arrays: random phases, or exact units
    whose zero parts carry a sign (the object loop's sums from 0j drop
    it)."""
    rng = np.random.default_rng(10 * n + m)
    d = laurent(m)
    units = [1, -1, 1j, -1j, complex(-1, -0.0), complex(-0.0, 1),
             complex(1, -0.0), complex(-0.0, -1)]
    cs = (np.exp(2j * np.pi * rng.random(n - 1)) if coeffs == "phases"
          else [units[k] for k in rng.integers(len(units), size=n - 1)])
    alphas = [RingValue.monomial(d, c, rng.integers(-2, 3, size=m))
              for c in cs]
    products, made = [], []
    mul, init = RingValue.__mul__, RingValue.__init__
    monkeypatch.setattr(RingValue, "__mul__",
                        lambda a, b: products.append(1) or mul(a, b))
    monkeypatch.setattr(RingValue, "__init__",
                        lambda v, *args: made.append(1) or init(v, *args))
    f = make_f_alpha(n, alphas, d)
    monkeypatch.undo()
    # unitarity and the table on arrays: no product, and no RingValue per
    # table entry, whatever n: the unit, and for validate's unit check
    # f(e, e), 1 and f(e, e) + (-1)
    assert len(products) == 0
    assert len(made) == 5 and f._values is None
    want = reference_f_alpha(n, alphas, d)
    # repr tells the sign of a zero and the type of an exponent apart
    assert [[repr(v.payload) for v in row] for row in f.values] == \
        [[repr(v.payload) for v in row] for row in want]


def test_laurent_f_alpha_falls_back_where_the_object_loop_drops_a_term():
    d = laurent(1)
    tiny = RingValue.monomial(d, 1e-8, (1,))
    ext = [RingValue.unit(d), tiny, tiny]
    assert _monomial_f_alpha(d, ext) is None      # 1e-8 * 1e-8 <= 1e-14


def test_f_alpha_products_are_not_fused():
    # f(0, 2) = alpha_1 alpha_1^*: its imaginary part ar (-ai) + ai ar is 0
    # with four rounded products; a fused multiply-add leaves the rounding
    # error of ai ar, about 1e-17
    for z in np.exp(2j * np.pi * np.random.default_rng(3).random(20)):
        alphas = [RingValue.scalar(COMPLEX, z), RingValue.unit(COMPLEX)]
        assert make_f_alpha(3, alphas, COMPLEX).value(0, 2).payload.imag == 0


# -- values on first access -------------------------------------------------

@pytest.mark.parametrize("ring, factor", [("complex", "0+1i"),
                                          ("real", "-1")])
def test_table_mutated_through_values_fails_validate(ring, factor):
    n = 5
    obj = {"descriptor": ring, "group": {"kind": "cyclic", "n": n},
           "table": [["1"] * n for _ in range(n)]}
    f = parse_cocycle(obj)
    assert validate(f).ok
    d = f.descriptor
    v = f.values[1][2] * parse_value(d, factor)
    with pytest.raises(TypeError):
        f.values[1][2] = v
    assert f._centre is not None and validate(f).ok
    rows = [list(row) for row in f.values]
    rows[1][2] = v
    f = SchurFunction(f.group, d, rows)
    assert f._centre is None
    rep = validate(f)
    assert not rep.ok
    assert {c for c, _, _ in rep.violations} == {"cocycle"}
    assert f.value(1, 2) is f.values[1][2]


def test_value_and_tilde_build_no_list():
    f = make_f_alpha(3, [RingValue.scalar(COMPLEX, 1j)] * 2, COMPLEX)
    assert f.value(1, 1).payload == 1j         # f(1,1) = alpha_1
    assert f.tilde(1).payload == -1j           # f(1,2)^* = (alpha_1)^*
    assert validate(f).ok
    assert f._values is None


def test_validate_job_at_order_256_builds_no_table_of_values(
        tmp_path, monkeypatch, capsys):
    n = 256
    rng = np.random.default_rng(1)
    lam = np.exp(2j * np.pi * rng.random(n))
    lam[0] = 1
    i = np.arange(n)
    table = lam[:, None] * lam[None, :] * lam[(i[:, None] + i) % n].conj()
    obj = {"descriptor": "complex", "group": {"kind": "cyclic", "n": n},
           "table": [[f"{z.real:.17g}{z.imag:+.17g}i" for z in row]
                     for row in table]}
    init, made = RingValue.__init__, [0]

    def counted(self, *args):
        made[0] += 1
        init(self, *args)

    def no_check(self):
        raise AssertionError("GroupTable.check ran")

    monkeypatch.setattr(RingValue, "__init__", counted)
    monkeypatch.setattr(groups.GroupTable, "check", no_check)
    assert cli_code(tmp_path, obj) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert made[0] <= n
