"""Print one line per Laurent config: what the CLI reported, not how fast.

Run from the root of a source tree:

    python3 tools/laurent_reports.py > laurent.txt

It runs a seeded set of ``classify``, ``norm``, ``validate``, ``iso`` and
``clifford`` configs over ``laurent(1)``, ``laurent(2)`` and the real
``laurent(1)``, in this process, on that tree's ``src/``, with BLAS pinned
to one thread.  The set covers three draws on each of Z/1, Z/2, Z/3, Z/5,
Z/8 and Z/16, elements with one- and two-term coefficients, planted
classes, and the refusals: a total winding that n does not divide, a
parameter that is not unitary and one that is not a monomial.  After those
come ``iso`` for every constructor that takes a Laurent ring, refusals
included; ``clifford`` with each periodicity op at base sizes 0 to 4; and
``norm`` on the non-cyclic groups Z/2 x Z/2 (a coboundary and a Klein
table), Z/2 x Z/4 and the subsets of {1, 2, 3}, whose norm is the SVD at
each torus point, with sparse elements that hold zero coefficients.  Each
line is the repr of one config's name,
subcommand, exit code, report file, standard output and standard error.
Two trees give byte-identical output exactly when they give the same
results on these configs; diff a parent's output with a change's, each
run from its own checkout.
"""
from __future__ import annotations

import sys

from cli_runner import cli_runner          # first: BLAS pinned, src/ on path

import numpy as np                                       # noqa: E402

from twistalg.serialize import parse_group               # noqa: E402

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


def iso_configs(desc: dict, rng):
    """(name, config) of iso for every constructor that takes a Laurent
    ring, the first part of each name: parameters are unit monomials, with
    even exponents where a square root is asked for, and the refusals."""
    m, real = desc["m"], desc.get("field") == "real"
    minus = [[[0] * m, "-1"]]
    yield "identity", {"cocycle": {"descriptor": desc,
                                   "f_alpha": params(rng, 3, m, real)}}
    yield "identity/klein", {"cocycle": {"descriptor": desc, "klein_table": {
        "alpha": monomial(rng, m, real), "beta": monomial(rng, m, real),
        "gamma": monomial(rng, m, real), "eps": minus}}}
    yield "lambda", {"cocycle": {"descriptor": desc,
                                 "f_alpha": params(rng, 4, m, real)},
                     "params": {"lambda": [[[[0] * m, "1"]]] + params(
                         rng, 4, m, real)}}
    exps = rng.integers(-2, 3, size=m)
    c = complex(rng.choice([-1.0, 1.0])) if real else np.exp(
        2j * np.pi * rng.random())
    square = {"descriptor": desc, "f_alpha": [
        [[[int(e) for e in 2 * exps], literal(c * c)]]]}
    yield "z2_split", {"cocycle": square}
    yield "z2_split/x", {"cocycle": square, "params": {
        "x": [[[int(e) for e in exps], literal(c)]]}}
    yield "z2_split/odd", {"cocycle": {"descriptor": desc, "f_alpha": [
        monomial(rng, m, real, [1] * m)]}}
    yield "z2_complexify", {"cocycle": {"descriptor": desc,
                                        "f_alpha": [minus]}}
    yield "z2_complexify/not_minus_one", {"cocycle": {
        "descriptor": desc, "f_alpha": [monomial(rng, m, real, [1] * m)]}}
    for name in ("klein_split4", "klein_complex_pair", "klein_quaternion",
                 "klein_matrix"):
        for variant, parity in ((1, 2), (2, 1)):
            config = {"descriptor": desc, "params": {
                k: monomial(rng, m, real, parity * rng.integers(-1, 2, m))
                for k in ("alpha", "beta", "gamma")}}
            if name == "klein_complex_pair":
                config["params"]["variant"] = variant
            yield f"{name}/{'even' if parity == 2 else 'any'}", config
    subsets = {"kind": "subsets", "labels": [1, 2, 3]}
    table = [[[[[0] * m, "1"]]] * 8 for _ in range(8)]
    yield "char_decompose_z2n", {"cocycle": {
        "descriptor": desc, "group": subsets, "table": table}}
    table = [row[:3] + [minus] + row[4:] for row in table]
    yield "char_decompose_z2n/not_constant", {"cocycle": {
        "descriptor": desc, "group": subsets, "table": table}}
    for n in (3, 4):
        for why, total in (("root", [n] * m), ("no_root", [1] * m)):
            yield f"cyclic_decompose/n{n}/{why}", {
                "descriptor": desc,
                "params": {"alphas": params(rng, n, m, real, total)}}


def clifford_configs(desc: dict, rng):
    """clifford with each periodicity op at base sizes 0 to 4: rho and the
    new pair's alphas unit monomials."""
    m, real = desc["m"], desc.get("field") == "real"
    for op in ("extend_two_matrix", "extend_two_quaternion",
               "complexify_odd", "split_odd"):
        for size in range(5):
            yield f"{op}/size{size}", {
                "descriptor": desc,
                "rho": params(rng, size + 1, m, real),
                "periodicity": {"op": op, "alpha1": monomial(rng, m, real),
                                "alpha2": monomial(rng, m, real)}}


NON_CYCLIC = {
    "Z2xZ2": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2}] * 2},
    "Z2xZ4": {"kind": "product", "factors": [{"kind": "cyclic", "n": 2},
                                             {"kind": "cyclic", "n": 4}]},
    "subsets123": {"kind": "subsets", "labels": [1, 2, 3]}}


def sparse_element(rng, labels, m: int):
    """Up to four coefficients of zero to two terms, some coefficients 0."""
    support = rng.choice(labels, size=min(4, len(labels)), replace=False)
    return {"coeffs": {str(t): [
        [[int(e) for e in rng.integers(-2, 3, size=m)],
         "0" if rng.random() < 0.3 else literal(complex(*rng.normal(size=2)))]
        for _ in range(rng.integers(0, 3))] for t in support}}


def norm_configs(desc: dict, rng):
    """norm of sparse elements on groups with no element of order n: a
    coboundary of unit monomials on each, and a Klein table."""
    m, real = desc["m"], desc.get("field") == "real"
    flags = ("--grid", "16" if m == 1 else "8")
    for gname, group in NON_CYCLIC.items():
        g = parse_group(group)
        n, labels = g.order, [str(label) for label in g.labels]
        lam = [(np.zeros(m, int), 1 + 0j)] + [
            (rng.integers(-2, 3, size=m), rng.choice([-1.0, 1.0]) if real
             else np.exp(2j * np.pi * rng.random())) for _ in range(n - 1)]
        table = [[[[[int(e) for e in lam[s][0] + lam[t][0]
                     - lam[g.mul[s, t]][0]],
                    literal(lam[s][1] * lam[t][1]
                            * np.conj(lam[g.mul[s, t]][1]))]]
                  for t in range(n)] for s in range(n)]
        cocycle = {"descriptor": desc, "group": group, "table": table}
        for draw in range(2):
            yield (f"{gname}/{draw}", {"cocycle": cocycle, "x":
                                       sparse_element(rng, labels, m)}, flags)
    klein = {"descriptor": desc, "klein_table": {
        k: monomial(rng, m, real) for k in ("alpha", "beta", "gamma")}}
    klein["klein_table"]["eps"] = [[[0] * m, "-1"]]
    labels = [str(label) for label in parse_group(NON_CYCLIC["Z2xZ2"]).labels]
    for draw in range(2):
        yield (f"Z2xZ2/klein/{draw}", {"cocycle": klein, "x":
                                       sparse_element(rng, labels, m)}, flags)


def more_configs():
    """The iso, clifford and non-cyclic norm configs, after the others so
    that those keep their draws."""
    for k, (ring, desc) in enumerate(RINGS.items()):
        rng = np.random.default_rng([SEED, 10 + k])
        for name, config in iso_configs(desc, rng):
            yield (f"{ring}/iso/{name}", "iso",
                   {"constructor": name.split("/")[0], **config}, ())
        for name, config in clifford_configs(desc, rng):
            yield f"{ring}/clifford/{name}", "clifford", config, ()
        for name, config, flags in norm_configs(desc, rng):
            yield f"{ring}/norm/{name}", "norm", config, flags


def main() -> int:
    with cli_runner() as run:
        for name, command, config, flags in (*configs(), *more_configs()):
            print(repr((name, run(command, config, flags))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
