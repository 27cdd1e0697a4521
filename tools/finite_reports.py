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
identity and a ``lambda`` isomorphism.  Each line is the repr of one
config's name, subcommand, exit code, report file, standard output and
standard error; for ``mul`` and ``star`` also the reprs of the result's
coefficients, computed in this process, which show the sign of a zero and
more digits than the report's twelve.  Two trees give byte-identical
output exactly when they give the same results on these configs; diff a
parent's output with a change's, each run from its own checkout.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from itertools import permutations
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads BLAS

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src")]

import json                                              # noqa: E402

import numpy as np                                       # noqa: E402

import twistalg.cli                                      # noqa: E402
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


def run(command: str, config: dict, path: Path, out: Path):
    path.write_text(json.dumps(config))
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            stderr):
        rc = twistalg.cli.main([command, "--config", str(path), "--out",
                                str(out)])
    report = out.read_text() if out.exists() else None
    result = (command, rc, report, stdout.getvalue(), stderr.getvalue())
    if command in ("mul", "star"):
        result += (products(command, config),)
    return result


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        for name, command, config in configs():
            print(repr((name, run(command, config, path, out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
