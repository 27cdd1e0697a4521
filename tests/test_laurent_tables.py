"""Laurent f_alpha tables held as monomial arrays (coefficients and
exponents) against list-held copies of the same tables from the object
loop: values, array forms, reports, products and norms, consumers of the
lazy values, the fallbacks, the refusals, and the CLI reports."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ralg import reference_alg_mul
from test_scalar_tables import reference_f_alpha
from twistalg import cocycle
from twistalg.algebra import AlgebraElement, alg_mul, alg_norm, alg_star
from twistalg.cli import main
from twistalg.cocycle import (Lambda, SchurFunction, _unitary_monomials,
                              make_f_alpha, validate)
from twistalg.isolab import (identity_morphism, lambda_isomorphism,
                             verify_morphism, z2_split)
from twistalg.rings import _COEFF_EPS, COMPLEX, RingValue, laurent
from twistalg.serialize import cocycle_to_json

UNITS = [1, -1, 1j, -1j, complex(-1, -0.0), complex(-0.0, 1),
         complex(1, -0.0), complex(-0.0, -1)]


def parameters(rng, n, m, coeffs):
    """n - 1 monomial parameters: random phases, or exact units whose zero
    parts carry a sign."""
    d = laurent(m)
    cs = (np.exp(2j * np.pi * rng.random(n - 1)) if coeffs == "phases"
          else [UNITS[k] for k in rng.integers(len(UNITS), size=n - 1)])
    return d, [RingValue.monomial(d, c, rng.integers(-2, 3, size=m))
               for c in cs]


def held_and_listed(n, m, coeffs, seed=0, even=False):
    """make_f_alpha's array-held table and a list-held copy of it from the
    object loop; with even, every exponent even."""
    d, alphas = parameters(np.random.default_rng([seed, n, m]), n, m, coeffs)
    if even:
        alphas = [RingValue(d, {tuple(2 * e for e in k): c
                                for k, c in a.payload.items()})
                  for a in alphas]
    f = make_f_alpha(n, alphas, d)
    ref = SchurFunction(f.group, d, reference_f_alpha(n, alphas, d))
    assert f._monomials is not None and f._values is None
    assert ref._monomials is None
    return f, ref


def element(f, rng, terms=3):
    """An element with a few random terms on random group elements."""
    d, n = f.descriptor, f.group.order
    coeffs = [RingValue.zero(d)] * n
    for t in rng.choice(n, size=min(terms, n), replace=False):
        coeffs[t] = RingValue.poly(d, {
            tuple(int(e) for e in rng.integers(-2, 3, size=d.m)):
            complex(rng.normal(), rng.normal()) for _ in range(2)})
    return AlgebraElement(f, coeffs)


def payloads(x):
    return [repr(c.payload) for c in x.coeffs]


# -- array-held against list-held -------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 8, 16])
@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("coeffs", ["phases", "units"])
def test_array_held_table_equals_the_list_held_table(n, m, coeffs):
    f, ref = held_and_listed(n, m, coeffs)
    # the entries one at a time, then the whole table: repr tells the sign
    # of a zero and the type of an exponent apart
    want = [[repr(v.payload) for v in row] for row in ref.values]
    assert [[repr(f.value(s, t).payload) for t in range(n)]
            for s in range(n)] == want
    assert f._values is None
    got, want_arrays = f._arrays, ref._arrays
    for a, b in zip(got[:2], want_arrays[:2]):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()
        assert not a.flags.writeable
    assert got[2:] == want_arrays[2:]
    for tol in (1e-9, 1e-15):
        assert validate(f, tol).violations == validate(ref, tol).violations
    rng = np.random.default_rng(n + m)
    for _ in range(3):
        x, y = element(f, rng), element(f, rng)
        rx, ry = AlgebraElement(ref, x.coeffs), AlgebraElement(ref, y.coeffs)
        assert payloads(alg_mul(x, y)) == payloads(alg_mul(rx, ry)) == \
            [repr(c.payload) for c in reference_alg_mul(rx, ry)]
        assert payloads(alg_star(x)) == payloads(alg_star(rx))
        assert alg_norm(x, grid=16) == alg_norm(rx, grid=16)
    assert json.dumps(cocycle_to_json(f)) == json.dumps(cocycle_to_json(ref))
    assert [[repr(v.payload) for v in row] for row in f.values] == \
        [[repr(v.payload) for v in row] for row in ref.values]
    with pytest.raises(TypeError):
        f.values[0][0] = f.values[0][0]


def test_held_arrays_are_checked_like_a_centre():
    f, _ = held_and_listed(4, 2, "phases")
    g, d = f.group, f.descriptor
    coef, exps = (np.array(a) for a in f._monomials)
    for bad, message in [
            ((), "shape"), ((coef[:3], exps), "shape"),
            ((coef, exps[:, :3]), "shape"),
            ((coef, exps[..., :1]), "descriptor"),
            ((coef.real.copy(), exps), "descriptor"),
            ((coef, exps.astype(np.int32)), "descriptor"),
            ((np.where(np.eye(4, dtype=bool), _COEFF_EPS, coef), exps),
             "descriptor")]:
        with pytest.raises(ValueError, match=message):
            SchurFunction(g, d, bad)
    with pytest.raises(ValueError, match="descriptor"):
        SchurFunction(g, laurent(1), (coef, exps))
    held = SchurFunction(g, d, (coef, exps))
    assert all(not a.flags.writeable for a in held._monomials)
    assert held.value(1, 2).payload == f.value(1, 2).payload


# -- the object loop's cases ------------------------------------------------

def test_parameters_whose_products_drop_a_term_stay_list_held():
    d = laurent(1)
    tiny = RingValue.monomial(d, 1e-8, (1,))       # 1e-8 * 1e-8 <= 1e-14
    f = make_f_alpha(3, [tiny, tiny], d, tol=1.0)
    assert f._monomials is None and f._values is not None
    assert [[repr(v.payload) for v in row] for row in f.values] == [
        ["{(0,): (1+0j)}", "{(0,): (1+0j)}", "{}"],
        ["{(0,): (1+0j)}", "{(1,): (1e-08+0j)}", "{}"],
        ["{(0,): (1+0j)}", "{(1,): (1e-08+0j)}", "{}"]]


def reference_scalar_coefficients(ext):
    """cocycle._scalar_f_alpha(ext, laurent=True) as it tested for a
    dropped term after every half-step: None at the first one."""
    n = len(ext)
    step = ext[(np.arange(n)[:, None] + np.arange(n - 1)) % n]
    star = ext[:-1].conjugate()
    re, im = np.ones((n, n)), np.zeros((n, n))
    for q in range(1, n):
        x, y = re[:, q - 1], im[:, q - 1]
        for a in (step[:, q - 1], star[q - 1]):
            x, y = x * a.real - y * a.imag, x * a.imag + y * a.real
            x, y = x + 0.0, y + 0.0
            if not (np.hypot(x, y) > _COEFF_EPS).all():
                return None
        re[:, q], im[:, q] = x, y
    out = np.empty((n, n), complex)
    out.real, out.imag = re, im
    return out


@pytest.mark.parametrize("n", [2, 8, 16, 64])
@pytest.mark.parametrize("coeffs", ["phases", "units", "dropped"])
def test_coefficients_test_every_half_step_once(n, coeffs):
    """The Laurent coefficients, stored a half-step at a time and tested
    for a dropped term once, are those of the test after every half-step,
    bit for bit: random phases and exact units whose zero parts carry a
    sign; with a parameter of modulus 1e-20 beside one of 1e20, None."""
    rng = np.random.default_rng([n, len(coeffs)])
    for _ in range(8):
        ext = (np.exp(2j * np.pi * rng.random(n)) if coeffs != "units"
               else np.array(UNITS, complex)[rng.integers(len(UNITS),
                                                          size=n)])
        if coeffs == "dropped":
            ext[rng.integers(1, n)] = 1e20j
            ext[1] = 1e-20
        ext[0] = 1
        got = cocycle._scalar_f_alpha(ext, laurent=True)
        want = reference_scalar_coefficients(ext)
        assert (got is None) == (want is None)
        assert got is None or got.tobytes() == want.tobytes()
        assert (got is None) == (coeffs == "dropped")


def test_a_term_dropped_at_a_half_step_only_is_dropped():
    """With parameters 1e-5, 1e5 and 1e-9 on Z/4 a half-step product
    drops a term where no full step does: the table is None."""
    ext = np.array([1, 1e-5, 1e5, 1e-9], complex)
    assert reference_scalar_coefficients(ext) is None
    assert cocycle._scalar_f_alpha(ext, laurent=True) is None


def test_a_non_monomial_parameter_takes_the_object_loop(monkeypatch):
    d = laurent(1)
    alphas = [RingValue.monomial(d, 1j, (1,)),
              RingValue.poly(d, {(2,): -1, (3,): 1e-12}),
              RingValue.monomial(d, -1, (-1,))]
    monkeypatch.setattr(cocycle, "_monomial_f_alpha", None)    # never called
    f = make_f_alpha(4, alphas, d)
    assert f._monomials is None
    assert [[repr(v.payload) for v in row] for row in f.values] == \
        [[repr(v.payload) for v in row]
         for row in reference_f_alpha(4, alphas, d)]


@pytest.mark.parametrize("coeff", ["1.000001", "nan", "1e-8"])
def test_parameters_that_are_not_unitary_are_refused(coeff, tmp_path,
                                                     capsys):
    cfg = tmp_path / "c.json"
    alphas = [[[[1, 0], "0+1i"]], [[[0, -1], coeff]], [[[2, 2], "-1"]]]
    cfg.write_text(json.dumps({"cocycle": {
        "descriptor": {"kind": "laurent", "m": 2}, "f_alpha": alphas}}))
    assert main(["validate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: alpha_2 is not unitary\n"


# coefficients at the edges of RingValue.is_unitary: products of modulus
# at most _COEFF_EPS dropped (|c| up to 1e-7; their difference from 1 is
# then 1, which a tol just under 1 tells from 1 - |c|^2), differences
# dropped (|c|^2 within 1e-14 of 1), NaN, inf, subnormal and huge parts
SPECIAL = [1e-8, 3e-8, 1e-7, 2e-7, 1 + 1e-6, 1 - 5e-15, 1 + 4e-15,
           1 + 2e-14, 5e-324, 1e200, 1 + 1j, complex("nan+1j"),
           complex("inf-0j"), complex(0, float("nan")), 0j] + UNITS
TOLS = [1e-15, 1e-9, 1e-3, 0.5, 1 - 1e-15, 1 - 2 ** -53, 1.0, 2.0]


def same_unitarity(cs, tol):
    d = laurent(1)
    alphas = [RingValue(d, {(k,): c}) for k, c in enumerate(cs)]
    assert list(_unitary_monomials(d, alphas, tol)) == \
        [a.is_unitary(tol) for a in alphas]


@pytest.mark.parametrize("tol", TOLS)
def test_array_unitarity_is_the_object_check(tol):
    """The array check of make_f_alpha equals RingValue.is_unitary."""
    same_unitarity(SPECIAL, tol)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True)
                | st.sampled_from(SPECIAL)
                | st.floats(0.9, 1.1).map(lambda r: r * 1j)
                | st.floats(1 - 2e-14, 1 + 2e-14)
                | st.floats(1e-9, 2e-7), min_size=1, max_size=6),
       st.sampled_from(TOLS))
def test_array_unitarity_is_the_object_check_on_any_coefficient(cs, tol):
    same_unitarity(cs, tol)


def test_array_unitarity_needs_every_parameter_a_monomial():
    d = laurent(1)
    mono = RingValue.monomial(d, 1, (1,))
    assert _unitary_monomials(d, [mono, RingValue.zero(d)], 1e-9) is None
    assert _unitary_monomials(COMPLEX, [RingValue.unit(COMPLEX)], 1) is None
    assert list(_unitary_monomials(d, [], 1e-9)) == []
    # a parameter of another ring is refused as before, in order
    for other in (RingValue.unit(COMPLEX), RingValue.unit(laurent(2))):
        with pytest.raises(ValueError, match="alpha_1 is not unitary"):
            make_f_alpha(3, [mono.scale(2), other], d)
        with pytest.raises(ValueError, match="descriptor mismatch"):
            make_f_alpha(3, [mono, other], d)


# -- consumers of the lazy values -------------------------------------------

def same_reports(f, ref, build):
    got, want = verify_morphism(build(f)), verify_morphism(build(ref))
    assert got.to_dict() == want.to_dict()
    assert got.ok()


@pytest.mark.parametrize("m", [1, 2])
def test_morphisms_over_held_tables_equal_those_over_listed_tables(m):
    for coeffs in ("phases", "units"):
        f, ref = held_and_listed(2, m, coeffs, seed=1, even=True)
        same_reports(f, ref, z2_split)      # x^2 = f(1, 1): even exponents
        f, ref = held_and_listed(8, m, coeffs, seed=2)
        same_reports(f, ref, identity_morphism)
        d, rng = f.descriptor, np.random.default_rng(m)
        lam = Lambda(f.group, d, [RingValue.unit(d)] + [
            RingValue.monomial(d, np.exp(2j * np.pi * rng.random()),
                               rng.integers(-2, 3, size=m))
            for _ in range(7)])
        same_reports(f, ref, lambda h: lambda_isomorphism(h, lam))


# -- the CLI ----------------------------------------------------------------

def laurent_literal(rng, m):
    """A random unit monomial as a config literal."""
    z = np.exp(2j * np.pi * rng.random())
    exps = [int(e) for e in rng.integers(-2, 3, size=m)]
    return [[exps, f"{z.real:.17g}{z.imag:+.17g}i"]]


def cli_configs():
    """Laurent validate, mul and norm configs at n in {8, 16}, m in {1, 2}."""
    rng = np.random.default_rng(22)
    for n in (8, 16):
        for m in (1, 2):
            cocycle_cfg = {"descriptor": {"kind": "laurent", "m": m},
                           "f_alpha": [laurent_literal(rng, m)
                                       for _ in range(n - 1)]}
            x, y = ({"coeffs": {str(int(t)): laurent_literal(rng, m)
                                for t in rng.choice(n, 3, replace=False)}}
                    for _ in range(2))
            yield "validate", {"cocycle": cocycle_cfg}, ()
            yield "mul", {"cocycle": cocycle_cfg, "x": x, "y": y}, ()
            yield "norm", {"cocycle": cocycle_cfg, "x": x}, ("--grid", "16")


def test_cli_reports_are_byte_identical_to_the_object_loops(tmp_path,
                                                            monkeypatch):
    """Each config through cli.main with the tables as built, then with
    _monomial_f_alpha giving None, which sends make_f_alpha to the object
    loop and list-held tables: the report files are byte-equal."""
    runs = []
    for i, (command, cfg, flags) in enumerate(cli_configs()):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(cfg))
        runs.append((command, path, flags))

    def reports(tag):
        out = []
        for i, (command, path, flags) in enumerate(runs):
            report = tmp_path / f"{tag}{i}.json"
            assert main([command, "--config", str(path), "--out",
                         str(report), *flags]) == 0
            out.append(report.read_bytes())
        return out

    built = reports("built")
    monkeypatch.setattr(cocycle, "_monomial_f_alpha", lambda d, ext: None)
    assert reports("object") == built
    assert len(built) == 12


def classify_and_norm_configs(n, m):
    """A classify config of four parameter vectors on Z/n, two of them in
    one class, and a norm config of a Laurent f_alpha and an element with
    a two-term coefficient on every group element."""
    rng = np.random.default_rng([n, m])
    vectors = [[laurent_literal(rng, m) for _ in range(n - 1)]
               for _ in range(4)]
    vectors[1] = vectors[0][:-1] + [[[[e + n for e in vectors[0][-1][0][0]],
                                      "1"]]]
    x = {"coeffs": {str(t): laurent_literal(rng, m) + laurent_literal(rng, m)
                    for t in range(n)}}
    cocycle_cfg = {"descriptor": {"kind": "laurent", "m": m},
                   "f_alpha": vectors[2]}
    return [("classify", {"descriptor": {"kind": "laurent", "m": m},
                          "alphas": vectors}, ()),
            ("norm", {"cocycle": cocycle_cfg, "x": x}, ("--grid", "8"))]


@pytest.mark.parametrize("m", [1, 2])
def test_cli_classify_and_norm_make_no_ring_value_per_entry(
        tmp_path, monkeypatch, m):
    """Laurent classify and norm jobs take no RingValue product, and make
    a number of RingValues linear in n (a few per parameter, coefficient,
    product of monomials and witness value), none per table entry."""
    n = 64
    made, products = [], []
    init, mul = RingValue.__init__, RingValue.__mul__
    monkeypatch.setattr(RingValue, "__init__",
                        lambda self, *a: made.append(1) or init(self, *a))
    monkeypatch.setattr(RingValue, "__mul__",
                        lambda *a: products.append(1) or mul(*a))
    for command, cfg, flags in classify_and_norm_configs(n, m):
        path, report = tmp_path / "c.json", tmp_path / "r.json"
        path.write_text(json.dumps(cfg))
        made.clear()
        assert main([command, "--config", str(path), "--out", str(report),
                     *flags]) == 0
        assert products == [], command
        assert len(made) <= 24 * n < n * n, command
    assert len(json.loads(report.read_text())) == 1


def test_a_bare_int_exponent_parses_over_one_variable():
    from twistalg.serialize import parse_value
    d = laurent(1)
    assert parse_value(d, [[1, "1"]]).payload == {(1,): 1 + 0j}
    assert parse_value(d, [[-2, "0.5"], [[3], "1"]]).payload == \
        {(-2,): 0.5 + 0j, (3,): 1 + 0j}
