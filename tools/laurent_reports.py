"""Print one line per Laurent config: what the CLI reported, not how fast.

Run from the root of a source tree:

    python3 tools/laurent_reports.py > laurent.txt

It runs a seeded set of ``classify``, ``norm`` and ``validate`` configs
over ``laurent(1)``, ``laurent(2)`` and the real ``laurent(1)``, in this
process, on that tree's ``src/``, with BLAS pinned to one thread.  The set
covers three draws on each of Z/1, Z/2, Z/3, Z/5, Z/8 and Z/16, elements
with one- and two-term coefficients, planted classes, and the refusals: a
total winding that n does not divide, a parameter that is not unitary and
one that is not a monomial.  Each line is the repr of one config's name,
subcommand, exit code, report file, standard output and standard error.
Two trees give byte-identical output exactly when they give the same
results on these configs; diff a parent's output with a change's, each
run from its own checkout.
"""
from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy loads BLAS

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src")]

import json                                              # noqa: E402

import numpy as np                                       # noqa: E402

import twistalg.cli                                      # noqa: E402

RINGS = {"laurent1": {"kind": "laurent", "m": 1},
         "laurent2": {"kind": "laurent", "m": 2},
         "real_laurent1": {"kind": "laurent", "m": 1, "field": "real"}}
ORDERS = (1, 2, 3, 5, 8, 16)
DRAWS = 3
SEED = 26


def literal(c: complex) -> str:
    return f"{c.real:.17g}{c.imag:+.17g}i"


def unit(rng, real: bool) -> str:
    """A unit coefficient: a sign over the reals, else a phase."""
    if real:
        return literal(complex(rng.choice([-1.0, 1.0])))
    return literal(np.exp(2j * np.pi * rng.random()))


def monomial(rng, m: int, real: bool, exps=None):
    if exps is None:
        exps = rng.integers(-2, 3, size=m)
    return [[[int(e) for e in exps], unit(rng, real)]]


def params(rng, n: int, m: int, real: bool, total=None):
    """n - 1 unit monomials, their exponents summing to total if given."""
    exps = rng.integers(-2, 3, size=(max(n - 1, 0), m))
    if total is not None and n > 1:
        exps[-1] = np.asarray(total) - exps[:-1].sum(axis=0)
    return [monomial(rng, m, real, e) for e in exps]


def element(rng, n: int, m: int, terms: int):
    """Coefficients of the given number of terms on up to three elements."""
    support = rng.choice(n, size=min(3, n), replace=False)
    return {"coeffs": {str(int(t)): [
        [[int(e) for e in rng.integers(-2, 3, size=m)],
         literal(complex(*rng.normal(size=2)))] for _ in range(terms)]
        for t in support}}


def draws(name: str, rng, n: int, desc: dict):
    """A validate, two norm and a classify config on Z/n."""
    m, real = desc["m"], desc.get("field") == "real"
    f_alpha = {"descriptor": desc, "f_alpha": params(rng, n, m, real)}
    yield f"{name}/validate", "validate", {"cocycle": f_alpha}, ()
    for terms in (1, 2):
        yield (f"{name}/norm/terms{terms}", "norm",
               {"cocycle": f_alpha, "x": element(rng, n, m, terms)},
               ("--grid", "16" if m == 1 else "8"))
    # six vectors in three planted classes of total winding mod n
    keys = [rng.integers(-3, 4, size=m) for _ in range(3)]
    vectors = [params(rng, n, m, real, keys[i % 3] + n * (i - 2))
               for i in range(6)]
    yield f"{name}/classify", "classify", {"descriptor": desc,
                                           "alphas": vectors}, ()


def configs():
    """(name, subcommand, config, flags) of every config, in a fixed order."""
    for ring, desc in RINGS.items():
        m, real = desc["m"], desc.get("field") == "real"
        rng = np.random.default_rng([SEED, m, real])
        for n in ORDERS:
            for draw in range(DRAWS):
                yield from draws(f"{ring}/n{n}/{draw}", rng, n, desc)
        n = 8
        good = params(rng, n, m, real)
        refusals = {
            # totals 1 and 0: n divides no difference of windings
            "winding": [params(rng, n, m, real, [1] * m),
                        params(rng, n, m, real, [0] * m)],
            # alpha_1, alpha_2 of good's exponents and moduli 2 and 1/2:
            # prod is unitary, lambda(2) is not
            "not_unitary": [[[[good[0][0][0], "2"]], [[good[1][0][0], "0.5"]]]
                            + good[2:], good],
            "not_monomial": [good[:3] + [good[3] + [[[2] * m, "1e-3"]]]
                             + good[4:], good],
        }
        for why, vectors in refusals.items():
            yield (f"{ring}/classify/{why}", "classify",
                   {"descriptor": desc, "alphas": vectors}, ())
        for why, alphas in [("not_unitary", refusals["not_unitary"][0]),
                            ("not_monomial", refusals["not_monomial"][0])]:
            f_alpha = {"descriptor": desc, "f_alpha": alphas}
            yield (f"{ring}/validate/{why}", "validate",
                   {"cocycle": f_alpha}, ())
            yield (f"{ring}/norm/{why}", "norm",
                   {"cocycle": f_alpha, "x": element(rng, n, m, 2)},
                   ("--grid", "8"))


def run(command: str, config: dict, flags, path: Path, out: Path):
    path.write_text(json.dumps(config))
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(
            stderr):
        rc = twistalg.cli.main([command, "--config", str(path), "--out",
                                str(out), *flags])
    report = out.read_text() if out.exists() else None
    return command, rc, report, stdout.getvalue(), stderr.getvalue()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "config.json", Path(tmp) / "report.json"
        for name, command, config, flags in configs():
            print(repr((name, run(command, config, flags, path, out))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
