"""Print one line per finite-ring config: what the program reported, not how
fast.

Run from the root of a source tree:

    python3 tools/finite_reports.py > finite.txt

It runs a seeded set of ``validate``, ``mul``, ``star``, ``norm`` and
``iso`` configs over H, M_2(C), M_2(R), C x M_2(C) and R x H, in this
process, on that tree's ``src/``, with BLAS pinned to one thread.  Each
table is a random coboundary on Z/1, Z/2, Z/3, Z/6, Z/2 x Z/2 or S3, held
as its centre (every value exactly c 1) and as a list (one value one unit
in the last place off c 1); elements have random coefficients, some
entries -0, on a few group elements or on all.  The ``iso`` configs are the
identity and a ``lambda`` isomorphism.  After those come configs whose
value literals are malformed (``malformed_configs``): in tables, in
element coefficients and in the ``f_alpha``, ``clifford`` rho and
``lambda`` lists, so the output also shows which error each reading
raises first.  Each line is the repr of one config's name, subcommand,
exit code, report file, standard output and standard error; for a
``mul`` or ``star`` that succeeds also the reprs of the result's
coefficients, computed in this process, which show the sign of a zero and
more digits than the report's twelve.  Two trees give byte-identical
output exactly when they give the same results on these configs; diff a
parent's output with a change's, each run from its own checkout.
"""
from __future__ import annotations

import sys
from itertools import permutations

from cli_runner import cli_runner          # first: BLAS pinned, src/ on path

import numpy as np                                       # noqa: E402

from twistalg.algebra import alg_mul, alg_star           # noqa: E402
from twistalg.serialize import (parse_cocycle, parse_element,  # noqa: E402
                                parse_group)

M2 = {"kind": "matrix", "k": 2}
RINGS = {"H": "quaternion", "M2C": M2, "M2R": dict(M2, field="real"),
         "CxM2C": {"kind": "product", "factors": ["complex", M2]},
         "RxH": {"kind": "product", "factors": ["real", "quaternion"]}}
_S3 = list(permutations(range(3)))
GROUPS = {f"Z{n}": {"kind": "cyclic", "n": n} for n in (1, 2, 3, 6)}
GROUPS["Z2xZ2"] = {"kind": "product", "factors": [GROUPS["Z2"]] * 2}
GROUPS["S3"] = {"kind": "table", "labels": ["".join(map(str, p)) for p in _S3],
                "mul": [[_S3.index(tuple(p[i] for i in q)) for q in _S3]
                        for p in _S3]}
SEED = 27


def literal(c: complex) -> str:
    return f"{c.real:.17g}{c.imag:+.17g}i"


def leaves(desc):
    """(real, shape) of each leaf of a descriptor, in order."""
    if isinstance(desc, dict) and desc["kind"] == "product":
        return [leaf for e in desc["factors"] for leaf in leaves(e)]
    if desc == "quaternion":
        return [(True, (4,))]
    if isinstance(desc, dict):
        return [(desc.get("field") == "real", (desc["k"], desc["k"]))]
    return [(desc == "real", ())]


def write(desc, parts):
    """The literal of a value from its leaves' arrays, in leaf order."""
    parts = iter(parts)

    def one(d):
        if isinstance(d, dict) and d["kind"] == "product":
            return [one(e) for e in d["factors"]]
        a = next(parts)
        if d == "quaternion":
            return [f"{x.real:.17g}" for x in a]
        lit = [literal(complex(x)) for x in a.reshape(-1)]
        return lit[0] if a.ndim == 0 else [lit[:2], lit[2:]]
    return one(desc)


def units(rng, desc, n):
    """Per leaf, n random units with the first 1: phases on complex
    leaves, signs on real ones."""
    out = []
    for real, _ in leaves(desc):
        lam = (rng.choice([-1.0, 1.0], n) if real
               else np.exp(2j * np.pi * rng.random(n)))
        lam[0] = 1
        out.append(lam)
    return out


def times_one(desc, zs):
    """The arrays of z 1 on each leaf, one scalar z per leaf."""
    return [np.eye(s[0]) * z if len(s) == 2 else
            np.array([z.real, 0, 0, 0]) if s else np.array(z)
            for (_, s), z in zip(leaves(desc), zs)]


def table(rng, desc, mul, held):
    """A random coboundary lam(s) lam(t) lam(st)^* on each leaf; held as a
    list, the last entry one unit in the last place off c 1."""
    n = len(mul)
    cs = [lam[:, None] * lam[None, :] * lam[mul].conj()
          for lam in units(rng, desc, n)]
    rows = [[times_one(desc, [c[s, t] for c in cs]) for t in range(n)]
            for s in range(n)]
    if held == "list":
        last = rows[-1][-1][-1].astype(complex).reshape(-1)
        last[-1] = complex(np.nextafter(last[-1].real, 2), last[-1].imag)
        rows[-1][-1][-1] = last.reshape(rows[-1][-1][-1].shape)
    return [[write(desc, parts) for parts in row] for row in rows]


def element(rng, desc, labels, full: bool):
    """Random coefficients on every label, or on up to three; about one
    entry in five -0."""
    support = (labels if full else
               rng.choice(labels, size=min(3, len(labels)), replace=False))
    coeffs = {}
    for t in support:
        parts = []
        for real, shape in leaves(desc):
            a = rng.normal(size=shape) + (0 if real else 1j * rng.normal(
                size=shape))
            a = np.asarray(a, dtype=complex)
            a.reshape(-1)[rng.random(a.size) < 0.2] = -0.0
            parts.append(a)
        coeffs[str(t)] = write(desc, parts)
    return {"coeffs": coeffs}


def configs():
    """(name, subcommand, config) of every config, in a fixed order."""
    rng = np.random.default_rng(SEED)
    for ring, desc in RINGS.items():
        for gname, group in GROUPS.items():
            g = parse_group(group)
            labels = [str(label) for label in g.labels]
            for held in ("centre", "list"):
                name = f"{ring}/{gname}/{held}"
                cocycle = {"descriptor": desc, "group": group,
                           "table": table(rng, desc, g.mul, held)}
                x = [element(rng, desc, labels, full) for full in (1, 0)]
                y = [element(rng, desc, labels, full) for full in (1, 0)]
                yield f"{name}/validate", "validate", {"cocycle": cocycle}
                for i, kind in enumerate(("dense", "sparse")):
                    yield (f"{name}/mul/{kind}", "mul",
                           {"cocycle": cocycle, "x": x[i], "y": y[i]})
                    yield (f"{name}/star/{kind}", "star",
                           {"cocycle": cocycle, "x": x[i]})
                yield f"{name}/norm", "norm", {"cocycle": cocycle, "x": x[1]}
                yield f"{name}/iso/identity", "iso", {
                    "constructor": "identity", "cocycle": cocycle}
                lam = units(rng, desc, len(labels))
                yield f"{name}/iso/lambda", "iso", {
                    "constructor": "lambda", "cocycle": cocycle,
                    "params": {"lambda": [write(desc, times_one(
                        desc, [c[t] for c in lam])) for t in range(
                            len(labels))]}}


def products(command: str, config: dict):
    """The reprs of the result's coefficients of a mul or star config."""
    f = parse_cocycle(config["cocycle"])
    x = parse_element(f, config["x"])
    out = (alg_mul(x, parse_element(f, config["y"])) if command == "mul"
           else alg_star(x))
    return [repr(c.payload) for c in out.coeffs]


# -- malformed literals --------------------------------------------------

H1 = ["1", "0", "0", "0"]
M1 = [["1", "0"], ["0", "1"]]
ONE = {"H": H1, "M2C": M1, "M2R": M1, "CxM2C": ["1", M1], "RxH": ["1", H1]}
INF = {"H": ["inf", "0", "0", "0"], "M2C": [["inf", "0"], ["0", "1"]],
       "M2R": [["1", "0"], ["0", "-inf"]], "CxM2C": ["inf", M1],
       "RxH": ["1", ["1", "0", "nan", "0"]]}
# per ring, literals parse_value refuses, some malformed in two places, so
# the first error in reading order is the one raised; and a few it reads
# (strings whose characters are the coordinates or rows, numbers, pairs)
_COMMON = {"number": 5, "dict": {"a": 1}, "none": None, "short-string": "10"}
BAD = {
    "H": {"bad-scalar": ["1", "x", "0", "0"], "shape": ["1", "0", "0"],
          "complex": ["1+0.5i", "0", "0", "0"], "list-coordinate":
              ["1", [0], "0", "0"], "word": "abcd", "digits": "1000",
          "word-and-shape": ["1", "y", "0", "0", "0"], **_COMMON},
    "M2C": {"bad-scalar": [["1", "x"], ["0", "1"]], "shape": [["1", "0"]],
            "long-row": [["1", "0", "0"], ["0", "1"]],
            "number-row": [["1", "0"], 5], "scalar-then-number-row":
                [["x", "0"], 5], "word-rows": ["ab", "cd"], "digit-rows":
                ["10", "01"], "bool": [[True, "0"], ["0", "1"]],
            "pair": [[[1, 0], "0"], ["0", [1, 0]]], **_COMMON},
    "M2R": {"bad-scalar": [["1", "x"], ["0", "1"]], "shape": [["1", "0"]],
            "complex": [["1", "0.5i"], ["0", "1"]], "complex-then-scalar":
                [["0.5i", "x"], ["0", "1"]], "complex-then-shape":
                [["0.5i", "0"]], "tiny-imaginary":
                [["1+1e-15i", "0"], ["0", "1"]], "number-row":
                [["1", "0"], 5], **_COMMON},
    "CxM2C": {"bad-scalar": ["x", M1], "bad-matrix-scalar":
                  ["1", [["1", "x"], ["0", "1"]]], "shape": ["1"],
              "matrix-shape": ["1", [["1", "0"]]], "number-factor": ["1", 5],
              "dict-factor": ["1", {"a": 1}], "three": ["1", M1, "1"],
              **_COMMON},
    "RxH": {"bad-scalar": ["x", H1], "shape": ["1"], "quaternion-shape":
                ["1", ["1", "0", "0"]], "complex": ["1i", H1],
            "complex-coordinate": ["1", ["1+1i", "0", "0", "0"]],
            "number-factor": ["1", 5], "string-factor": ["1", "1000"],
            "numbers": [1, [1.0, 0, 0, 0]], **_COMMON},
}


def malformed_configs():
    """(name, subcommand, config) of configs whose literals are malformed
    (and of a few that parse_value reads though they are no lists): each
    bad literal alone, and pairs of them in both orders, in one table row
    and across two rows; in an element's coefficients before and after an
    unknown label and a non-finite coefficient; and in the f_alpha,
    clifford rho and lambda lists."""
    z4 = {"kind": "cyclic", "n": 4}
    for ring, desc in RINGS.items():
        one, bad = ONE[ring], BAD[ring]
        names = list(bad)
        pairs = [(a, b) for i, a in enumerate(names) for b in
                 names[i + 1:i + 3]]
        pairs += [(b, a) for a, b in pairs]

        def table(entries):
            t = [[one] * 4 for _ in range(4)]
            for (s, u), v in entries.items():
                t[s] = t[s][:u] + [v] + t[s][u + 1:]
            return {"descriptor": desc, "group": z4, "table": t}

        for name, v in bad.items():
            yield (f"{ring}/malformed/table/{name}", "validate",
                   {"cocycle": table({(2, 1): v})})
        for a, b in pairs:
            yield (f"{ring}/malformed/row/{a}+{b}", "validate",
                   {"cocycle": table({(1, 2): bad[a], (1, 3): bad[b]})})
            yield (f"{ring}/malformed/rows/{a}+{b}", "validate",
                   {"cocycle": table({(1, 3): bad[a], (2, 0): bad[b]})})
        for row in (5, "1234", {"a": 1, "b": 2, "c": 3, "d": 4}):
            t = table({})
            t["table"][3] = row
            yield f"{ring}/malformed/table-row/{row!r}", "validate", {
                "cocycle": t}
        valid = table({})
        others = {"unknown": ("q", one), "inf": ("1", INF[ring])}
        for name, v in bad.items():
            yield (f"{ring}/malformed/element/{name}", "star",
                   {"cocycle": valid, "x": {"coeffs": {"0": one, "2": v}}})
            for other, (label, w) in others.items():
                for where, coeffs in (("first", {label: w, "2": v}),
                                      ("after", {"2": v, label: w})):
                    yield (f"{ring}/malformed/element/{name}/{other}-{where}",
                           "star", {"cocycle": valid,
                                    "x": {"coeffs": {"0": one, **coeffs}}})
        lists = [(name, [one, v, one]) for name, v in bad.items()]
        lists += [(f"{a}+{b}", [one, bad[a], bad[b]]) for a, b in pairs]
        lists += [(f"not-a-list/{v!r}", v) for v in (5, "ab", {"a": 1})]
        for name, values in lists:
            yield (f"{ring}/malformed/f_alpha/{name}", "validate",
                   {"cocycle": {"descriptor": desc, "f_alpha": values}})
            yield (f"{ring}/malformed/clifford/{name}", "clifford",
                   {"descriptor": desc, "rho": values})
            yield (f"{ring}/malformed/lambda/{name}", "iso",
                   {"constructor": "lambda", "cocycle": table({}),
                    "params": {"lambda": values + [one]
                               if isinstance(values, list) else values}})


def main() -> int:
    with cli_runner() as run:
        for name, command, config in (*configs(), *malformed_configs()):
            result = run(command, config)
            if command in ("mul", "star") and result[1] == 0:
                result += (products(command, config),)
            print(repr((name, result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
