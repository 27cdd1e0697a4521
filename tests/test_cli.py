import ast
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import twistalg
from twistalg.cli import main
from twistalg.cocycle import SchurFunction
from twistalg.serialize import cocycle_to_json, parse_cocycle

try:
    import tomllib
except ImportError:          # Python < 3.11
    tomllib = None

TRIVIAL_Z2 = {"cocycle": {"descriptor": "complex", "f_alpha": ["1"]}}


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_validate_ok(tmp_path, capsys):
    cfg = write(tmp_path, "v.json", TRIVIAL_Z2)
    code, out = run(capsys, "validate", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["violations"] == []


def test_validate_invalid_table_exits_1(tmp_path, capsys):
    bad = {"cocycle": {
        "descriptor": "complex",
        "group": {"kind": "cyclic", "n": 2},
        "table": [["1", "1"], ["1", "0.5"]],
    }}
    cfg = write(tmp_path, "b.json", bad)
    code, out = run(capsys, "validate", "--config", cfg)
    assert code == 1
    payload = json.loads(out)
    assert payload["valid"] is False
    assert any(v["check"] == "unitary" for v in payload["violations"])


def test_validate_reports_violation_count(tmp_path, capsys):
    # the paper's displayed order-8 table breaks the cocycle identity 96 times
    cfg = write(tmp_path, "z2z4.json",
                {"cocycle": cocycle_to_json(twistalg.z2z4_cocycle())})
    code, out = run(capsys, "validate", "--config", cfg)
    assert code == 1
    payload = json.loads(out)
    assert payload["violation_count"] == 96
    assert len(payload["violations"]) == 50


def test_validate_tol_reaches_f_alpha(tmp_path, capsys):
    near = {"cocycle": {"descriptor": "real",
                        "f_alpha": ["1.0000001", "1", "1"]}}
    cfg = write(tmp_path, "near.json", near)
    code, out = run(capsys, "validate", "--config", cfg, "--tol", "1e-5")
    assert code == 0
    assert json.loads(out)["valid"] is True
    assert main(["validate", "--config", cfg]) == 1    # default tol 1e-9


@pytest.mark.parametrize("shorthand", [
    {"f_alpha": ["1.0000001"]},
    {"klein_table": {"alpha": "1", "beta": "1", "gamma": "1",
                     "eps": "1.0000001"}},
    {"clifford_rho": ["1.0000001", "-1"]},
])
def test_parse_cocycle_passes_tol_to_shorthands(shorthand):
    obj = {"descriptor": "real", **shorthand}
    with pytest.raises(ValueError):
        parse_cocycle(obj)
    assert parse_cocycle(obj, tol=1e-5).validate(1e-5).ok


def test_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["validate", "--config", str(p)]) == 2
    cfg = write(tmp_path, "nok.json", {"cocycle": {"descriptor": "nope"}})
    assert main(["validate", "--config", cfg]) == 2
    cfg = write(tmp_path, "missing.json", {})
    assert main(["validate", "--config", cfg]) == 2


@pytest.mark.parametrize("cocycle", [
    {"descriptor": {"kind": "matrix", "k": 0}, "f_alpha": []},
    {"descriptor": {"kind": "laurent", "m": 0}, "f_alpha": []},
    {"group": {"kind": "cyclic", "n": 0}, "table": []},
], ids=["matrix_k0", "laurent_m0", "cyclic_n0"])
def test_constructor_refusal_in_parse_exits_2(tmp_path, capsys, cocycle):
    cfg = write(tmp_path, "c.json", {"cocycle": cocycle})
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_iso_klein_complex_pair_unknown_variant_exits_1(tmp_path, capsys):
    cfg = write(tmp_path, "k.json", {
        "constructor": "klein_complex_pair", "descriptor": "real",
        "params": {"alpha": "-1", "beta": "-1", "gamma": "1",
                   "variant": 3},
    })
    code, out = run(capsys, "iso", "--config", cfg)
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert "variant" in payload["error"]


def test_iso_klein_complex_pair_malformed_variant_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "k.json", {
        "constructor": "klein_complex_pair", "descriptor": "real",
        "params": {"alpha": "-1", "beta": "-1", "gamma": "1",
                   "variant": "two"},
    })
    assert main(["iso", "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error:")
    assert "variant" in captured.err


def test_bad_flags_exit_2(tmp_path):
    cfg = write(tmp_path, "v.json", TRIVIAL_Z2)
    for tol in ("-1", "nan", "inf"):
        assert main(["validate", "--config", cfg, "--tol", tol]) == 2
    assert main(["nonsense", "--config", cfg]) == 2


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, "v.json", TRIVIAL_Z2)
    out = tmp_path / "missing" / "r.json"
    assert main(["validate", "--config", cfg, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(out) in captured.err
    assert not out.parent.exists()


def test_mul_and_star(tmp_path, capsys):
    cfg = write(tmp_path, "m.json", {
        "cocycle": {"descriptor": "complex", "f_alpha": ["i"]},
        "x": {"coeffs": {"1": "1"}},
        "y": {"coeffs": {"1": "1"}},
    })
    code, out = run(capsys, "mul", "--config", cfg)
    assert code == 0
    # V_1 V_1 = f(1,1) V_0 = i V_0
    assert json.loads(out)["result"]["coeffs"] == {"0": "0+1i"}
    code, out = run(capsys, "star", "--config", cfg)
    assert code == 0
    # V_1* = tilde f(1) V_1 = f(1,1)* V_1 = -i V_1
    assert json.loads(out)["result"]["coeffs"] == {"1": "0-1i"}


@pytest.mark.parametrize("cocycle, code", [
    ({"descriptor": "complex", "f_alpha": ["i"]}, 0),
    ({"descriptor": "complex", "group": {"kind": "cyclic", "n": 2},
      "table": [["1", "1"], ["1", "i"]]}, 0),
    ({"descriptor": "complex", "group": {"kind": "cyclic", "n": 2},
      "table": [["1", "1"], ["1", "0.5"]]}, 1),
])
def test_star_validates_the_cocycle_once(tmp_path, capsys, monkeypatch,
                                         cocycle, code):
    # f_alpha validates its own table; a table is validated by the CLI
    import twistalg.cocycle
    validate, calls = twistalg.cocycle.validate, []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(twistalg.cocycle, "validate", counted)
    cfg = write(tmp_path, "s.json", {"cocycle": cocycle,
                                     "x": {"coeffs": {"1": "1"}}})
    assert run(capsys, "star", "--config", cfg)[0] == code
    assert len(calls) == 1


def _validate_report_text(f, tol):
    """The validate report as printed from a fresh cocycle.validate call."""
    from twistalg.cocycle import validate
    rep = validate(f, tol)
    payload = {"valid": rep.ok, "violation_count": len(rep.violations),
               "violations": [{"check": c, "where": [str(w) for w in where],
                               "residual": f"{r:.12g}"}
                              for c, where, r in rep.violations[:50]]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("cocycle, code", [
    ({"descriptor": "complex", "f_alpha": ["i", "-1", "-i"]}, 0),
    ({"descriptor": "real", "klein_table": {
        "alpha": "1", "beta": "-1", "gamma": "1", "eps": "-1"}}, 0),
    ({"descriptor": "complex", "clifford_rho": ["1", "-1", "i"]}, 0),
    ({"descriptor": "complex", "group": {"kind": "cyclic", "n": 2},
      "table": [["1", "1"], ["1", "i"]]}, 0),
    ({"descriptor": "complex", "group": {"kind": "cyclic", "n": 2},
      "table": [["1", "1"], ["1", "0.5"]]}, 1),
])
def test_validate_validates_the_cocycle_once(tmp_path, capsys, monkeypatch,
                                             cocycle, code):
    # f_alpha and klein_table validate their own table; cmd_validate reports
    # it without validating again
    import twistalg.cocycle
    want = _validate_report_text(parse_cocycle(cocycle), 1e-9)
    validate, calls = twistalg.cocycle.validate, []

    def counted(*args, **kwargs):
        calls.append(args)
        return validate(*args, **kwargs)

    monkeypatch.setattr(twistalg.cocycle, "validate", counted)
    cfg = write(tmp_path, "v.json", {"cocycle": cocycle})
    assert run(capsys, "validate", "--config", cfg) == (code, want)
    assert len(calls) == 1


def test_norm(tmp_path, capsys):
    cfg = write(tmp_path, "n.json", {
        "cocycle": TRIVIAL_Z2["cocycle"],
        "x": {"coeffs": {"0": "3", "1": "4"}},
    })
    code, out = run(capsys, "norm", "--config", cfg)
    assert code == 0
    assert json.loads(out)["norm"] == "7"


def test_norm_laurent_grid(tmp_path, capsys):
    cfg = write(tmp_path, "nl.json", {
        "cocycle": {
            "descriptor": {"kind": "laurent", "m": 1},
            "group": {"kind": "cyclic", "n": 1},
            "table": [[[[[0], "1"]]]],
        },
        "x": {"coeffs": {"0": [[[1], "1"], [[0], "2"]]}},
    })
    code, out = run(capsys, "norm", "--config", cfg, "--grid", "64")
    assert code == 0
    assert float(json.loads(out)["norm"]) == pytest.approx(3.0)


def test_classify_complex_single_class(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", {
        "descriptor": "complex",
        "alphas": [["1", "1"], ["i", "-1"], ["-1", "i"]],
    })
    code, out = run(capsys, "classify", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["class_count"] == 1
    assert payload["classes"][0]["members"] == [0, 1, 2]
    assert set(payload["witnesses"]) == {"1", "2"}


def test_classify_laurent_two_classes(tmp_path, capsys):
    cfg = write(tmp_path, "cl.json", {
        "descriptor": {"kind": "laurent", "m": 1},
        "alphas": [[[[[0], "1"]]], [[[[1], "1"]]],
                   [[[[2], "1"]]], [[[[3], "1"]]]],
    })
    code, out = run(capsys, "classify", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    # winding parity splits {1, z^2} from {z, z^3}
    assert payload["class_count"] == 2
    members = [c["members"] for c in payload["classes"]]
    assert members == [[0, 2], [1, 3]]


def test_classify_passes_tol_to_the_root(tmp_path, capsys):
    # prod alpha has modulus 1 + 1e-8: no unitary cube root at tol 1e-9
    cfg = write(tmp_path, "c.json", {
        "descriptor": "complex", "alphas": [["1.00000001", "1"], ["1", "1"]]})
    code, out = run(capsys, "classify", "--config", cfg)
    assert (code, json.loads(out)["class_count"]) == (0, 2)
    code, out = run(capsys, "classify", "--config", cfg, "--tol", "1e-6")
    assert (code, json.loads(out)["class_count"]) == (0, 1)


@pytest.mark.parametrize("payload", [
    {"cocycle": {"descriptor": "complex", "group": {"kind": "cyclic", "n": 2},
                 "table": [["1", "1"], ["1", True]]}},
    {"cocycle": {"descriptor": "real", "group": {"kind": "cyclic", "n": 2},
                 "table": [[True, "1"], ["1", "1"]]}},
    {"cocycle": {"descriptor": "real", "f_alpha": [False]}},
    {"cocycle": {"descriptor": "complex", "f_alpha": [[True, 0]]}},
    {"cocycle": {"descriptor": "complex", "f_alpha": ["1"]},
     "x": {"coeffs": {"1": True}}},
    {"cocycle": {"descriptor": {"kind": "matrix", "k": 1},
                 "f_alpha": [[[True]]]}},
], ids=["complex_table", "real_table", "f_alpha", "pair", "element",
        "matrix_entry"])
def test_json_booleans_are_no_scalars(tmp_path, capsys, payload):
    cfg = write(tmp_path, "b.json", payload)
    command = "star" if "x" in payload else "validate"
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: bad scalar literal")


@pytest.mark.parametrize("literal,value", [
    ("inf", complex(float("inf"), 0)), ("-inf", complex(float("-inf"), 0)),
    ("1-infi", complex(1, float("-inf"))), ("nan", None)])
def test_infinite_literals_are_read_and_fail_unitarity(tmp_path, capsys,
                                                       literal, value):
    """Only a trailing i is the imaginary unit: "inf" is read like "nan",
    in a table (one array) and as an f_alpha parameter (one value), and
    either way it is no unitary."""
    from twistalg.serialize import parse_scalar
    c = parse_scalar(literal)
    assert c == value if value is not None else c != c
    table = {"descriptor": "complex", "group": {"kind": "cyclic", "n": 2},
             "table": [["1", "1"], ["1", literal]]}
    cfg = write(tmp_path, "t.json", {"cocycle": table})
    code, out = run(capsys, "validate", "--config", cfg)
    assert code == 1
    report = json.loads(out)
    assert report["valid"] is False
    assert report["violations"][0]["check"] == "unitary"
    assert report["violations"][0]["where"] == ["1", "1"]
    cfg = write(tmp_path, "a.json", {"cocycle": {"descriptor": "complex",
                                                 "f_alpha": [literal]}})
    assert main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().err == "error: alpha_1 is not unitary\n"


REAL_Z2 = {"descriptor": "real", "group": {"kind": "cyclic", "n": 2}}


@pytest.mark.parametrize("command, payload", [
    ("validate", {"cocycle": dict(REAL_Z2, table=[["1", "1"],
                                                  ["1", "1+nani"]])}),
    ("validate", {"cocycle": dict(REAL_Z2, table=[["1", "1"],
                                                  ["1", [1, "nan"]]])}),
    ("validate", {"cocycle": {"descriptor": "real", "f_alpha": ["1+nani"]}}),
    ("mul", {"cocycle": {"descriptor": "real", "f_alpha": ["1"]},
             "x": {"coeffs": {"1": "2+nani"}}, "y": {"coeffs": {"0": "3"}}}),
    ("validate", {"cocycle": {
        "descriptor": {"kind": "matrix", "k": 1, "field": "real"},
        "group": {"kind": "cyclic", "n": 2},
        "table": [[[["1"]], [["1"]]], [[["1"]], [["0.5i"]]]]}}),
    ("validate", {"cocycle": {
        "descriptor": {"kind": "matrix", "k": 1, "field": "real"},
        "f_alpha": [[["1+nani"]]]}}),
], ids=["table", "table_pair", "f_alpha", "mul", "matrix", "matrix_nan"])
def test_complex_literals_in_real_rings_exit_1(tmp_path, capsys, command,
                                               payload):
    """A NaN imaginary part is no real number either."""
    cfg = write(tmp_path, "r.json", payload)
    assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: complex scalar in a real ring\n"


def test_literals_are_read_with_every_i_as_j_first():
    """Only where that gives no number is a trailing i alone the unit."""
    from twistalg.serialize import ConfigError, parse_scalar
    assert parse_scalar(" (1 + 2i) ") == 1 + 2j
    assert parse_scalar("inf-2i") == complex(float("inf"), -2)
    with pytest.raises(ConfigError):
        parse_scalar("1ii")


def test_non_associative_table_config_exits_2(tmp_path, capsys):
    loop5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
             [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    cfg = write(tmp_path, "t.json", {"cocycle": {
        "descriptor": "complex", "group": {"kind": "table", "mul": loop5},
        "table": [["1"] * 5 for _ in range(5)]}})
    assert main(["validate", "--config", cfg]) == 2
    assert capsys.readouterr().err == (
        "config error: mul is not associative\n")


def test_classify_rejects_matrix_ring(tmp_path):
    cfg = write(tmp_path, "cm.json", {
        "descriptor": {"kind": "matrix", "k": 2},
        "alphas": [[[["1", "0"], ["0", "1"]]]],
    })
    assert main(["classify", "--config", cfg]) == 2


def test_iso_identity_and_failure(tmp_path, capsys):
    cfg = write(tmp_path, "i.json", {
        "constructor": "identity",
        "cocycle": {"descriptor": "complex", "f_alpha": ["i", "1"]},
    })
    code, out = run(capsys, "iso", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["verified"] is True
    assert payload["report"]["injective"] is True

    # z2_split over the reals with f(1,1) = -1 has no real root
    cfg = write(tmp_path, "if.json", {
        "constructor": "z2_split",
        "cocycle": {"descriptor": "real", "f_alpha": ["-1"]},
    })
    code, out = run(capsys, "iso", "--config", cfg)
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert "square root" in payload["error"]


def test_iso_identity_of_non_central_table(tmp_path, capsys):
    """f(1,2) = i, f(2,1) = j on Z/3: the star check sees |j^* - i^*| = 1."""
    one, i, j = [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]
    cfg = write(tmp_path, "nc.json", {
        "constructor": "identity",
        "cocycle": {"descriptor": "quaternion",
                    "group": {"kind": "cyclic", "n": 3},
                    "table": [[one, one, one], [one, one, i],
                              [one, j, one]]},
    })
    code, out = run(capsys, "iso", "--config", cfg)
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert payload["report"]["star_residual"] == "1"
    assert payload["report"]["mult_residual"] == "0"


def test_iso_klein_quaternion(tmp_path, capsys):
    cfg = write(tmp_path, "kq.json", {
        "constructor": "klein_quaternion",
        "descriptor": "real",
        "params": {"alpha": "1", "beta": "-1", "gamma": "1"},
    })
    code, out = run(capsys, "iso", "--config", cfg)
    assert code == 0
    assert json.loads(out)["verified"] is True


I_H, ONE_H = [0, 1, 0, 0], [1, 0, 0, 0]


@pytest.mark.parametrize("config", [
    # S(f) = H (x) C = M_2(C) is simple, H + H is not
    {"constructor": "z2_split", "params": {"x": I_H},
     "cocycle": {"descriptor": "quaternion",
                 "group": {"kind": "cyclic", "n": 2},
                 "table": [[ONE_H, ONE_H], [ONE_H, [-1, 0, 0, 0]]]}},
    {"constructor": "klein_quaternion", "descriptor": "quaternion",
     "params": {"alpha": ONE_H, "beta": ONE_H, "gamma": ONE_H, "x": I_H,
                "y": ONE_H}},
], ids=["z2_split", "klein_quaternion"])
def test_iso_refuses_images_that_do_not_commute_with_e(tmp_path, capsys,
                                                       config):
    """x = i is a unitary square root of f(1,1) = -1 over H, but the image
    i V_1 of V_1 does not commute with j 1: |i j - j i| = 2."""
    cfg = write(tmp_path, "nc.json", config)
    code, out = run(capsys, "iso", "--config", cfg)
    assert code == 1
    payload = json.loads(out)
    assert payload["verified"] is False
    assert payload["report"]["mult_residual"] == "2"
    assert payload["report"]["star_residual"] == "0"


def test_clifford_refuses_images_that_do_not_commute_with_e(tmp_path,
                                                           capsys):
    cfg = write(tmp_path, "nc.json", {
        "descriptor": "quaternion", "rho": [],
        "periodicity": {"op": "extend_two_matrix", "alpha1": [0, 0, 1, 0],
                        "alpha2": ONE_H}})
    assert main(["clifford", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: x_1 fails the commutation with E check (residual 2)\n")


def test_iso_cyclic_decompose(tmp_path, capsys):
    cfg = write(tmp_path, "cd.json", {
        "constructor": "cyclic_decompose",
        "descriptor": "complex",
        "params": {"alphas": ["i", "-1"]},
    })
    code, out = run(capsys, "iso", "--config", cfg)
    assert code == 0
    assert json.loads(out)["verified"] is True


def test_iso_unknown_constructor(tmp_path):
    cfg = write(tmp_path, "u.json", {"constructor": "nope"})
    assert main(["iso", "--config", cfg]) == 2


def test_clifford_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, "cf.json", {
        "descriptor": "complex",
        "rho": ["1", "-1"],
    })
    code, out = run(capsys, "clifford", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    assert payload["relations"]["anticommute"] is True
    assert len(payload["cocycle"]["table"]) == 4


@pytest.mark.parametrize("entry, squares, anticommute", [
    ((1, 2), True, False),       # V_1 V_2 = -V_2 V_1 broken
    ((2, 2), False, True),       # V_2^2 = rho(2) broken
])
def test_clifford_relations_are_read_off_the_table(
        tmp_path, capsys, monkeypatch, entry, squares, anticommute):
    # a table with one sign flipped fails exactly the relation it breaks
    import twistalg.clifford
    build = twistalg.clifford.clifford_cocycle

    def flipped(spec):
        f = build(spec)
        a, b = entry
        rows = [list(row) for row in f.values]
        rows[a][b] = -rows[a][b]
        return SchurFunction(f.group, f.descriptor, rows)

    monkeypatch.setattr(twistalg.clifford, "clifford_cocycle", flipped)
    cfg = write(tmp_path, "cf.json", {"descriptor": "complex",
                                      "rho": ["1", "-1"]})
    code, out = run(capsys, "clifford", "--config", cfg)
    assert code == 1
    assert json.loads(out)["relations"] == {
        "anticommute": anticommute, "squares": squares, "residual": "2"}


def test_clifford_periodicity(tmp_path, capsys):
    cfg = write(tmp_path, "cp.json", {
        "descriptor": "complex",
        "rho": ["1", "-1"],
        "periodicity": {"op": "extend_two_matrix",
                        "alpha1": "1", "alpha2": "i"},
    })
    code, out = run(capsys, "clifford", "--config", cfg)
    assert code == 0
    rep = json.loads(out)["periodicity"]["report"]
    assert rep["injective"] is True and rep["surjective"] is True


LAURENT_PERIODICITY = {
    "descriptor": {"kind": "laurent", "m": 1},
    "rho": [[[[1], "1"]], [[[0], "-1"]]],
    "periodicity": {"op": "extend_two_matrix", "alpha1": [[[0], "1"]],
                    "alpha2": [[[0], "1"]]}}


def test_clifford_accepts_a_laurent_periodicity_map(tmp_path, capsys):
    # no rank is taken over Laurent rings, so the residuals decide, as in iso
    cfg = write(tmp_path, "lp.json", LAURENT_PERIODICITY)
    code, out = run(capsys, "clifford", "--config", cfg)
    assert code == 0
    payload = json.loads(out)
    rep = payload["periodicity"]["report"]
    assert rep["injective"] is None and rep["surjective"] is None
    assert [rep[k] for k in ("unit_residual", "mult_residual",
                             "star_residual")] == ["0", "0", "0"]
    assert payload["relations"]["residual"] == "0"


def test_clifford_refuses_a_laurent_map_off_the_generators_rows(
        tmp_path, capsys, monkeypatch):
    # f({1,2}, {1}) of the extended table flipped: the generators' rows, and
    # so the relations and universal_map, pass; the verifier's row {1,2} not
    import twistalg.clifford
    build = twistalg.clifford.clifford_cocycle

    def flipped(spec):
        f = build(spec)
        if f.group.order < 16:
            return f
        rows = [list(row) for row in f.values]
        rows[3][1] = -rows[3][1]
        return SchurFunction(f.group, f.descriptor, rows)

    monkeypatch.setattr(twistalg.clifford, "clifford_cocycle", flipped)
    cfg = write(tmp_path, "lp.json", LAURENT_PERIODICITY)
    code, out = run(capsys, "clifford", "--config", cfg)
    assert code == 1
    payload = json.loads(out)
    rep = payload["periodicity"]["report"]
    assert rep["injective"] is None and rep["mult_residual"] == "2"
    assert payload["relations"]["residual"] == "0"


def test_output_is_byte_deterministic(tmp_path, capsys):
    cfg = write(tmp_path, "d.json", {
        "cocycle": {"descriptor": "complex", "f_alpha": ["i", "-1", "-i"]}})
    _, out1 = run(capsys, "validate", "--config", cfg)
    _, out2 = run(capsys, "validate", "--config", cfg)
    assert out1 == out2
    assert out1 == json.dumps(json.loads(out1), sort_keys=True,
                              indent=2) + "\n"


def test_main_fixes_the_mmap_threshold_once(tmp_path, capsys, monkeypatch):
    # one mallopt(M_MMAP_THRESHOLD, 128 KiB) per process, over successful,
    # failing and usage-error commands alike
    import ctypes
    import twistalg.cli
    calls = []

    class Mallopt:          # a foreign function takes argtypes and restype
        def __call__(self, param, value):
            assert self.argtypes == [ctypes.c_int] * 2
            assert self.restype is ctypes.c_int
            calls.append((param, value))

    class Libc:
        def __init__(self, name):
            assert name is None
            self.mallopt = Mallopt()

    monkeypatch.setattr(twistalg.cli.sys, "platform", "linux")
    monkeypatch.setattr(ctypes, "CDLL", Libc)
    # the threshold is fixed once per process: forget the real call
    twistalg.cli._fix_mmap_threshold.cache_clear()
    cfg = write(tmp_path, "v.json", TRIVIAL_Z2)
    assert run(capsys, "validate", "--config", cfg)[0] == 0
    assert run(capsys, "validate", "--config", str(tmp_path / "no.json"))[0] == 2
    assert run(capsys, "validate", "--config", cfg, "--tol", "0")[0] == 2
    assert run(capsys, "validate", "--config", cfg)[0] == 0
    assert calls == [(-3, 131072)]
    # a C library without mallopt is no error
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    twistalg.cli._fix_mmap_threshold.cache_clear()
    assert run(capsys, "validate", "--config", cfg)[0] == 0
    # nor is a platform other than Linux, where no C library is opened
    def no_cdll(name):
        raise AssertionError("CDLL opened off Linux")

    monkeypatch.setattr(twistalg.cli.sys, "platform", "darwin")
    monkeypatch.setattr(ctypes, "CDLL", no_cdll)
    twistalg.cli._fix_mmap_threshold.cache_clear()
    assert run(capsys, "validate", "--config", cfg)[0] == 0
    assert calls == [(-3, 131072)]
    twistalg.cli._fix_mmap_threshold.cache_clear()


HEAP_PROBE = """
import os, sys
import numpy as np
import twistalg.cli

def rss():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")

assert twistalg.cli.main(sys.argv[1:]) == 0
big = np.ones(2 << 20)      # 16 MiB, mmapped: freeing it would raise a
del big                     # dynamic threshold to 16 MiB
before = rss()
arrays = [np.ones(1 << 17) for _ in range(16)]      # sixteen 1 MiB arrays
live = np.ones(1 << 10)     # a small block allocated after them
del arrays
print((rss() - before) / 2 ** 20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="glibc's mmap threshold")
def test_freed_large_arrays_leave_no_resident_heap(tmp_path):
    # after main, a freed 16 MiB array leaves later 1 MiB arrays mmapped,
    # so freeing them hands their pages back, with no trim after a command
    cfg = write(tmp_path, "v.json", TRIVIAL_Z2)
    package_root = str(Path(twistalg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", HEAP_PROBE, "validate", "--config", cfg,
         "--out", str(tmp_path / "r.json")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 2.0


def test_main_builds_the_parser_once(tmp_path, capsys, monkeypatch):
    """The parser is built on the first call to main and reused: a usage
    error and --help leave it fit for the next command, and every output
    and exit code is that of a parser built afresh for each call."""
    import twistalg.cli as cli
    cfg = write(tmp_path, "v.json", TRIVIAL_Z2)
    calls = [["validate", "--config", cfg], ["validate"], ["--help"],
             ["mul", "--help"], ["star", "--config", cfg, "--format", "x"],
             ["validate", "--config", cfg, "--format", "table"]]

    def outcomes():
        out = []
        for argv in calls:
            code = main(argv)
            out.append((code, *capsys.readouterr()))
        return out

    build, built = cli.build_parser, []

    def counted():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    got = outcomes()
    assert len(built) == 1
    monkeypatch.setattr(cli, "_parser", build)       # afresh for each call
    assert got == outcomes()
    assert [code for code, _, _ in got] == [0, 2, 0, 0, 2, 0]
    assert got[1][2].startswith("usage: twistalg validate")
    assert got[2][1].startswith("usage: twistalg")
    assert "valid" in got[5][1] and got[0][1] != got[5][1]


@pytest.mark.parametrize("command", ["mul", "star", "norm"])
@pytest.mark.parametrize("literal", ["inf", "nan", [1, "nan"], "-infi"])
def test_non_finite_coefficients_exit_2(tmp_path, capsys, command, literal):
    # a table may hold inf (it then fails unitarity, exit 1); an element
    # may not: its products would print "inf-nani"
    payload = {"cocycle": {"descriptor": "complex", "f_alpha": ["i"]},
               "x": {"coeffs": {"0": "1", "1": literal}},
               "y": {"coeffs": {"1": "1"}}}
    cfg = write(tmp_path, "x.json", payload)
    assert main([command, "--config", cfg]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: non-finite coefficient at '1'\n"
    if command == "mul":        # in y as well
        payload["x"], payload["y"] = payload["y"], payload["x"]
        cfg = write(tmp_path, "y.json", payload)
        assert main([command, "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith("config error: non-finite")


@pytest.mark.parametrize("ring, value", [
    ({"kind": "matrix", "k": 2}, [["1", "0"], ["0", "nan"]]),
    ("quaternion", [1, 0, "inf", 0]),
    ({"kind": "laurent", "m": 1}, [[[1], "1"], [[2], "-inf"]]),
    ({"kind": "product", "factors": ["real", "complex"]}, ["1", "nan"]),
], ids=["matrix", "quaternion", "laurent", "product"])
def test_non_finite_coefficients_exit_2_over_every_ring(tmp_path, capsys,
                                                       ring, value):
    payload = {"cocycle": {"descriptor": ring, "f_alpha": []},
               "x": {"coeffs": {"0": value}}}
    cfg = write(tmp_path, "x.json", payload)
    assert main(["star", "--config", cfg]) == 2
    assert capsys.readouterr().err == \
        "config error: non-finite coefficient at '0'\n"


@pytest.mark.parametrize("literal", ["nan", "inf", "-inf", "1+nani"])
def test_non_finite_laurent_coefficients_act_as_over_c(tmp_path, capsys,
                                                      literal):
    """A Laurent coefficient NaN or inf is kept, not read as zero: an
    element holding one exits 2, alone or beside a finite term, and a table
    entry holding one fails unitarity at its place (exit 1), as over C."""
    ring = {"kind": "laurent", "m": 1}
    for coeff in ([[[0], literal]], [[[0], "1"], [[1], literal]]):
        cfg = write(tmp_path, "x.json", {
            "cocycle": {"descriptor": ring, "f_alpha": [[[[0], "1"]]]},
            "x": {"coeffs": {"0": coeff}}})
        assert main(["norm", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: non-finite coefficient at '0'\n"
    one = [[[0], "1"]]
    for entry in ([[[1], literal]], [[[0], "1"], [[1], literal]]):
        cfg = write(tmp_path, "t.json", {"cocycle": {
            "descriptor": ring, "group": {"kind": "cyclic", "n": 2},
            "table": [[one, one], [one, entry]]}})
        code, out = run(capsys, "validate", "--config", cfg)
        first = json.loads(out)["violations"][0]
        assert code == 1
        assert (first["check"], first["where"]) == ("unitary", ["1", "1"])


def test_out_flag_and_table_format(tmp_path, capsys):
    cfg = write(tmp_path, "o.json", TRIVIAL_Z2)
    dest = tmp_path / "report.json"
    code, out = run(capsys, "validate", "--config", cfg, "--out", str(dest))
    assert code == 0 and out == ""
    assert json.loads(dest.read_text())["valid"] is True
    code, out = run(capsys, "validate", "--config", cfg,
                    "--format", "table")
    assert code == 0
    assert "valid" in out and "{" not in out.splitlines()[-1]


def test_console_script_entry_point(tmp_path):
    # `python -m twistalg` runs the callable that the console script names;
    # it needs no install, only the imported package on PYTHONPATH
    cfg = write(tmp_path, "s.json", TRIVIAL_Z2)
    package_root = str(Path(twistalg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "twistalg", "validate", "--config", cfg],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True
    # the installed script must point at that same callable
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    text = pyproject.read_text()
    # and the distribution carries the package's name
    if tomllib is not None:
        project = tomllib.loads(text)["project"]
        assert project["scripts"]["twistalg"] == "twistalg.cli:main"
        assert project["name"] == "twistalg"
    else:
        assert 'twistalg = "twistalg.cli:main"' in text
        assert '\nname = "twistalg"\n' in text


def test_cli_start_up_does_not_load_dense(tmp_path):
    # the dense forms load on first use: importing them at start-up costs
    # every CLI run (validate, classify) that never verifies a morphism
    package_root = str(Path(twistalg.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, twistalg.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith(('twistalg.', 'numpy.fft'))))"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout
    assert "'twistalg.isolab'" in loaded and "'twistalg.cli'" in loaded
    assert "'twistalg.dense'" not in loaded
    # nor do the centre's readers, which tables load on first use
    assert "'twistalg.centre'" not in loaded
    # the norm paths load on the first norm, numpy.fft on the first cyclic
    # one (about 0.5 MB resident)
    assert "'twistalg.norm'" not in loaded and "'numpy.fft'" not in loaded


def test_dense_module_does_not_import_isolab():
    # the models in isolab build their forms from dense, not the reverse
    path = Path(twistalg.__file__).resolve().parent / "dense.py"
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            names += [node.module or ""] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names += [a.name for a in node.names]
    assert "numpy" in names and "row_blocks" in names
    assert not [n for n in names if "isolab" in n]


@pytest.mark.skipif(shutil.which("twistalg") is None,
                    reason="twistalg console script is not installed")
def test_installed_console_script(tmp_path):
    cfg = write(tmp_path, "s.json", TRIVIAL_Z2)
    proc = subprocess.run(["twistalg", "validate", "--config", cfg],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["valid"] is True


@pytest.mark.parametrize("op, ring", [("complexify_odd", "real"),
                                      ("split_odd", "complex"),
                                      ("split_odd", "real")])
def test_clifford_odd_periodicity_ops(tmp_path, capsys, op, ring):
    cfg = write(tmp_path, "co.json", {"descriptor": ring, "rho": ["1", "-1"],
                                      "periodicity": {"op": op}})
    code, out = run(capsys, "clifford", "--config", cfg)
    assert code == 0
    per = json.loads(out)["periodicity"]
    assert per["op"] == op
    rep = per["report"]
    assert rep["injective"] is True and rep["surjective"] is True
    assert max(float(rep[k]) for k in ("unit_residual", "mult_residual",
                                       "star_residual")) < 1e-12


def test_clifford_complexify_odd_refuses_a_complex_ring(tmp_path, capsys):
    cfg = write(tmp_path, "co.json", {"descriptor": "complex",
                                      "rho": ["1", "-1"],
                                      "periodicity": {"op": "complexify_odd"}})
    assert main(["clifford", "--config", cfg]) == 1
    assert "needs a real coefficient ring" in capsys.readouterr().err


M2 = {"kind": "matrix", "k": 2}
M2R_H = {"kind": "product", "factors": [dict(M2, field="real"),
                                        "quaternion"]}
ONE, MINUS = [["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]]


@pytest.mark.parametrize("descriptor, rho, written", [
    (M2, [ONE, MINUS], dict(M2, field="complex")),
    (M2R_H, [[ONE, ["1", "0", "0", "0"]], [MINUS, ["-1", "0", "0", "0"]]],
     {"kind": "product", "factors": [dict(M2, field="real"),
                                     "quaternion"]}),
])
def test_clifford_json_over_matrix_and_product_rings(tmp_path, capsys,
                                                     descriptor, rho,
                                                     written):
    # the report writes the descriptor and every table value as JSON that
    # reads back to the same table
    cfg = write(tmp_path, "cm.json", {"descriptor": descriptor, "rho": rho})
    code, out = run(capsys, "clifford", "--config", cfg)
    assert code == 0
    table = json.loads(out)["cocycle"]
    assert table["descriptor"] == written
    assert table["table"][1][1] == rho[0] and table["table"][2][2] == rho[1]
    f = parse_cocycle(table)
    g = parse_cocycle({"descriptor": descriptor, "clifford_rho": rho})
    assert [list(row) for row in f.values] == [list(row) for row in g.values]


def test_product_group_kind(tmp_path, capsys):
    from twistalg.groups import direct_product, make_cyclic
    z2, z3 = {"kind": "cyclic", "n": 2}, {"kind": "cyclic", "n": 3}
    group = {"kind": "product", "factors": [z2, z3, z2]}
    cfg = write(tmp_path, "pg.json", {"cocycle": {
        "descriptor": "complex", "group": group,
        "table": [["1"] * 12 for _ in range(12)]}})
    code, out = run(capsys, "validate", "--config", cfg)
    assert code == 0 and json.loads(out)["valid"] is True
    f = parse_cocycle({"descriptor": "complex", "group": group,
                       "table": [["1"] * 12 for _ in range(12)]})
    want = direct_product(direct_product(make_cyclic(2), make_cyclic(3)),
                          make_cyclic(2))
    assert (f.group.mul == want.mul).all()
    assert f.group.labels == want.labels
    cfg = write(tmp_path, "pg1.json", {"cocycle": {
        "descriptor": "complex", "group": {"kind": "product",
                                           "factors": [z2]},
        "table": [["1"] * 2 for _ in range(2)]}})
    assert main(["validate", "--config", cfg]) == 2
