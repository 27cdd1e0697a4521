"""Seeded job lists for the three workloads.

A pass is a fixed list of job shapes (subcommand, group order, ring,
cocycle form, element density); every pass draws fresh parameters from
``numpy.random.default_rng([seed, pass_index])``, so no two jobs share a
cocycle and only group orders repeat.  The program sees only the generated
config files.  Each job carries its own oracle (see ``oracles``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import cycle
from typing import Callable

import numpy as np

import oracles as o


@dataclass
class Job:
    """One CLI call (``config`` set) or one library call (``call`` set).

    ``call`` gets the ``twistalg`` package.  ``check(report, rc)`` raises
    ``oracles.OracleError`` on a wrong result; for library jobs ``report``
    is the returned object and ``rc`` is None.
    """
    command: str
    check: Callable
    props: dict
    config: dict = None
    flags: tuple = ()
    call: Callable = None
    slot: int = 0           # the job's shape: its index in the pass


# -- shared parameter draws --------------------------------------------------

def _units(rng, k, ring):
    """k central unitaries: unit phases over C, signs over R."""
    if ring == "complex":
        return np.exp(2j * np.pi * rng.random(k))
    return rng.choice([-1.0, 1.0], size=k).astype(complex)


def _fmt(z, ring):
    return o.fmt_complex(z) if ring == "complex" else o.fmt_real(z.real)


def _coboundary(rng, n, ring):
    lam = _units(rng, n, ring)
    lam[0] = 1.0
    return o.coboundary_table(lam)


def _table_cfg(table, ring, group, fmt=None):
    fmt = fmt or (lambda z: _fmt(z, ring))
    return {"descriptor": ring, "group": group,
            "table": [[fmt(v) for v in row] for row in table]}


# -- cyclic_scalar -----------------------------------------------------------

_SCALAR_SHAPES = ((32, "f_alpha"), (32, "table"), (64, "f_alpha"),
                  (64, "table"), (128, "table"))


def _scalar_cocycle(rng, n, form, ring):
    if form == "f_alpha":
        a = _units(rng, n - 1, ring)
        return ({"descriptor": ring, "f_alpha": [_fmt(v, ring) for v in a]},
                o.f_alpha_table(a))
    table = _coboundary(rng, n, ring)
    return _table_cfg(table, ring, {"kind": "cyclic", "n": n}), table


def _scalar_element(rng, n, density, ring):
    if density == "dense":
        support = np.arange(n)
    else:
        support = rng.choice(n, size=rng.integers(1, 5), replace=False)
    vals = rng.normal(size=len(support))
    if ring == "complex":
        vals = vals + 1j * rng.normal(size=len(support))
    x = np.zeros(n, dtype=complex)
    x[support] = vals
    cfg = {"coeffs": {str(int(t)): _fmt(complex(v), ring)
                      for t, v in zip(support, vals)}}
    return cfg, x


def _check_scalar(command, table, x, y, report, rc):
    if command == "validate":
        o.check_validate(report, rc, True)
    elif command == "mul":
        o.check_element(report, rc, o.twisted_mul(table, x, y))
    elif command == "star":
        o.check_element(report, rc, o.twisted_star(table, x))
    else:
        o.check_norm(report, rc, o.regular_norm(table, x))


def cyclic_scalar(rng) -> list:
    """Scalar cocycles on Z/n over C and R: validate, mul, star, norm and
    classify, half f_alpha and half table configs, half dense and half
    sparse elements, one n = 256 table, one corrupted table, and one real
    classification with two planted classes."""
    shapes = [(c, n, form) for c in ("validate", "mul", "star", "norm")
              for n, form in _SCALAR_SHAPES]
    # four 128 tables among the eleven validates: validate_p50_s then falls
    # in the middle of a block of like samples, not at its edge
    shapes += [("validate", 128, "table")] * 3 + [
        ("validate", 128, "f_alpha"), ("validate", 256, "table")]
    # two more f_alpha jobs on Z/64 per subcommand: below the two slowest
    # validates, the twelve make_f_alpha(64) jobs are a block of like
    # samples, and job_tail_s (p75) falls in its middle
    shapes += [(c, 64, "f_alpha") for c in ("validate", "mul", "star",
                                            "norm")] * 2
    rings = cycle(("complex", "real"))
    densities = cycle(("dense", "sparse"))
    jobs = []
    for command, n, form in shapes:
        ring = next(rings)
        cfg, table = _scalar_cocycle(rng, n, form, ring)
        config = {"cocycle": cfg}
        props = {"form": form, "ring": ring, "order": n, "monomial": True}
        x = y = None
        if command != "validate":
            props["density"] = next(densities)
            config["x"], x = _scalar_element(rng, n, props["density"], ring)
            if command == "mul":
                config["y"], y = _scalar_element(rng, n, props["density"],
                                                 ring)
        jobs.append(Job(command, partial(_check_scalar, command, table, x, y),
                        props, config))

    # one deliberately corrupted table: a single off-identity entry is
    # rotated, which breaks the cocycle identity but keeps it unitary
    ring = next(rings)
    table = _coboundary(rng, 64, ring)
    a, b = rng.integers(1, 64, size=2)
    if ring == "complex":
        table[a, b] *= np.exp(1j * rng.uniform(0.5, 2 * np.pi - 0.5))
    else:
        table[a, b] *= -1.0
    jobs.append(Job("validate", partial(o.check_validate, valid=False),
                    {"form": "table", "ring": ring, "order": 64,
                     "monomial": True},
                    {"cocycle": _table_cfg(table, ring,
                                           {"kind": "cyclic", "n": 64})}))

    # classification over C: H^2(Z/n, T) = 0, so every vector lands in one
    # class and the witness search runs against the first representative
    for n in (32, 64):
        vecs = [_units(rng, n - 1, "complex") for _ in range(8)]
        jobs.append(Job(
            "classify", partial(o.check_classes, keys=[0] * len(vecs)),
            {"form": "f_alpha", "ring": "complex", "order": n,
             "monomial": True},
            {"descriptor": "complex",
             "alphas": [[o.fmt_complex(v) for v in vec] for vec in vecs]}))
    jobs.append(_real_classify_job(rng, 64))
    return jobs


def _classify_real(vectors, twistalg):
    """The greedy partition of the classify subcommand, which refuses real
    rings, as equivalent_cyclic calls against each class representative."""
    d = twistalg.rings.REAL
    parsed = [[twistalg.rings.RingValue.scalar(d, a) for a in vec]
              for vec in vectors]
    classes = []
    for i, alphas in enumerate(parsed):
        for rep, members in classes:
            if twistalg.cocycle.equivalent_cyclic(
                    parsed[rep], alphas, descriptor=d) is not None:
                members.append(i)
                break
        else:
            classes.append((i, [i]))
    return {"class_count": len(classes),
            "classes": [{"representative": rep, "members": members}
                        for rep, members in classes]}


def _real_classify_job(rng, n):
    """Eight sign vectors on Z/n, n even, planted four in each class: over
    R, f_alpha ~ f_beta iff prod(alpha) prod(beta) has a real n-th root,
    so the class of f_alpha is the sign of prod(alpha)."""
    keys = rng.permutation([1.0, -1.0] * 4)
    vecs = []
    for key in keys:
        signs = rng.choice([-1.0, 1.0], size=n - 1)
        signs[-1] = key * np.prod(signs[:-1])
        vecs.append(signs)
    return Job("classify",
               lambda rep, rc: o.check_classes(rep, 0, keys=list(keys)),
               {"form": "f_alpha", "ring": "real", "order": n,
                "monomial": True},
               call=partial(_classify_real, vecs))


# -- clifford_blocks ---------------------------------------------------------

_REAL_DIM = {"real": 1, "complex": 2}
_PERIODICITY = {"extend_two_matrix": 2, "extend_two_quaternion": 2,
                "complexify_odd": 1, "split_odd": 1}


def _clifford_job(rng, op, size, ring):
    rho = _units(rng, size, ring)
    config = {"descriptor": ring, "rho": [_fmt(v, ring) for v in rho],
              "periodicity": {"op": op}}
    if _PERIODICITY[op] == 2:
        a1, a2 = _units(rng, 2, ring)
        config["periodicity"].update(alpha1=_fmt(a1, ring),
                                     alpha2=_fmt(a2, ring))
    dim = (1 << (size + _PERIODICITY[op])) * _REAL_DIM[ring]
    props = {"form": "clifford_rho", "ring": ring,
             "order": 1 << (size + _PERIODICITY[op]), "monomial": True}
    return Job("clifford", partial(o.check_clifford, rho=rho, dim=dim),
               props, config)


def _iso_jobs(rng):
    """Every named constructor of the iso subcommand, with seeded
    parameters where the constructor has any."""
    c = lambda k: [o.fmt_complex(v) for v in _units(rng, k, "complex")]
    sign = lambda: float(rng.choice([-1.0, 1.0]))
    r = o.fmt_real
    out = []

    def add(config, ring, order, dim, check=None):
        check = check or partial(o.check_iso, dim=dim)
        out.append(Job("iso", check, {"form": "constructor", "ring": ring,
                                      "order": order, "monomial": True},
                       config))

    add({"constructor": "identity",
         "cocycle": {"descriptor": "complex", "f_alpha": c(15)}},
        "complex", 16, 32)
    lam = c(8)
    lam[0] = "1"
    add({"constructor": "lambda",
         "cocycle": {"descriptor": "complex", "f_alpha": c(7)},
         "params": {"lambda": lam}}, "complex", 8, 16)
    add({"constructor": "z2_split",
         "cocycle": {"descriptor": "complex", "f_alpha": c(1)}},
        "complex", 2, 4)
    add({"constructor": "z2_complexify",
         "cocycle": {"descriptor": "real", "f_alpha": ["-1"]}}, "real", 2, 2)
    a, b, g = c(3)
    add({"constructor": "klein_split4", "descriptor": "complex",
         "params": {"alpha": a, "beta": b, "gamma": g}}, "complex", 4, 8)
    a, b, g = c(3)
    add({"constructor": "klein_matrix", "descriptor": "complex",
         "params": {"alpha": a, "beta": b, "gamma": g}}, "complex", 4, 8)
    # real Klein cases need real roots: -beta gamma = 1 and +-alpha gamma = 1
    g = sign()
    variant = int(rng.integers(1, 3))
    alpha = g if variant == 1 else -g
    add({"constructor": "klein_complex_pair", "descriptor": "real",
         "params": {"alpha": r(alpha), "beta": r(-g), "gamma": r(g),
                    "variant": variant}}, "real", 4, 4)
    g = sign()
    add({"constructor": "klein_quaternion", "descriptor": "real",
         "params": {"alpha": r(g), "beta": r(-g), "gamma": r(g)}},
        "real", 4, 4)
    # by design: (1, 1, 1) needs x^2 = -1 over R and is refused
    add({"constructor": "klein_quaternion", "descriptor": "real",
         "params": {"alpha": "1", "beta": "1", "gamma": "1"}},
        "real", 4, None, check=o.check_iso_refused)
    ring = "complex" if rng.random() < 0.5 else "real"
    add({"constructor": "char_decompose_z2n",
         "cocycle": _table_cfg(np.ones((8, 8)), ring,
                               {"kind": "subsets", "labels": [1, 2, 3]})},
        ring, 8, 8 * _REAL_DIM[ring])
    add({"constructor": "cyclic_decompose", "descriptor": "complex",
         "params": {"alphas": c(15)}}, "complex", 16, 32)
    # by design: the displayed order-8 table is not a cocycle
    add({"constructor": "z2z4_decompose"}, "complex", 8, None,
        check=o.check_z2z4)
    return out


def _nonmonomial_validate_jobs(rng):
    """Tables over quaternion, matrix and product rings: the object
    fallback of validate.  Eight quaternion tables of one shape make
    validate_p50_s the median of 8 * passes like samples rather than one
    job's."""
    jobs = []

    def add(cfg, ring, order):
        jobs.append(Job("validate", partial(o.check_validate, valid=True),
                        {"form": "table", "ring": ring, "order": order,
                         "monomial": False},
                        {"cocycle": cfg}))

    m2 = {"kind": "matrix", "k": 2}
    diag = lambda z: [[o.fmt_complex(z), "0"], ["0", o.fmt_complex(z)]]
    table = _coboundary(rng, 16, "complex")
    add(_table_cfg(table, m2, {"kind": "cyclic", "n": 16}, fmt=diag),
        "matrix", 16)

    for _ in range(8):
        table = o.clifford_table(_units(rng, 4, "real").real).real
        add(_table_cfg(table, "quaternion",
                       {"kind": "subsets", "labels": [1, 2, 3, 4]},
                       fmt=lambda v: [o.fmt_real(v), "0", "0", "0"]),
            "quaternion", 16)

    prod = {"kind": "product", "factors": ["complex", m2]}
    t1 = _coboundary(rng, 32, "complex")
    t2 = _coboundary(rng, 32, "complex")
    cfg = _table_cfg(t1, prod, {"kind": "cyclic", "n": 32})
    cfg["table"] = [[[o.fmt_complex(a), diag(b)] for a, b in zip(r1, r2)]
                    for r1, r2 in zip(t1, t2)]
    add(cfg, "product", 32)
    return jobs


def clifford_blocks(rng) -> list:
    """Clifford periodicity maps on base sizes 2 and 4, every iso
    constructor, and validate on non-monomial coefficient rings."""
    jobs = []
    for size in (2, 4):
        for op in _PERIODICITY:
            real_only = op in ("extend_two_quaternion", "complexify_odd")
            ring = "real" if real_only or size == 4 else "complex"
            jobs.append(_clifford_job(rng, op, size, ring))
    # every iso constructor twice: with 42 jobs a pass, job_tail_s is a
    # p75, which falls in the middle of the block of eight quaternion
    # validates, below the six slowest shapes (the clifford maps of order
    # 32 and 64 and the product-ring validate) and above the iso jobs
    return (jobs + _iso_jobs(rng) + _iso_jobs(rng)
            + _nonmonomial_validate_jobs(rng))


# -- laurent_torus -----------------------------------------------------------

def _laurent_literal(exps, c):
    return [[[int(e) for e in exps], o.fmt_complex(c)]]


def _laurent_params(rng, n, m, windings=None):
    """n - 1 unimodular monomials c_j z^{w_j}: (literals, term lists)."""
    w = rng.integers(-2, 3, size=(n - 1, m)) if windings is None else windings
    c = _units(rng, n - 1, "complex")
    terms = [[(list(wj), cj)] for wj, cj in zip(w, c)]
    return [_laurent_literal(wj, cj) for wj, cj in zip(w, c)], terms


def _laurent_element(rng, n, m):
    """Three random monomial terms on distinct group elements."""
    support = rng.choice(n, size=3, replace=False)
    coeffs = {}
    for t in support:
        exps = rng.integers(-2, 3, size=m)
        c = complex(rng.normal(), rng.normal())
        coeffs[str(int(t))] = [(list(exps), c)]
    cfg = {"coeffs": {k: _laurent_literal(*v[0]) for k, v in coeffs.items()}}
    return cfg, coeffs


def _check_laurent_mul(terms, xs, ys, n, points, report, rc):
    f = o.laurent_f_alpha_at(terms, points)
    x, y = o.element_at(xs, n, points), o.element_at(ys, n, points)
    want = np.stack([o.twisted_mul(fk, xk, yk) for fk, xk, yk in
                     zip(f, x, y)])
    o.check_laurent_element(report, rc, n, points, want)


def _check_laurent_norm(terms, xs, n, m, grid, report, rc):
    points = o.torus_grid(grid, m)
    mats = o.regular_matrices(o.laurent_f_alpha_at(terms, points),
                              o.element_at(xs, n, points))
    want = float(np.max(np.linalg.norm(mats, ord=2, axis=(-2, -1))))
    o.check_norm(report, rc, want)


def _classify_job(rng, n, m):
    """Six parameter vectors in three planted classes; the class of f_alpha
    is the total winding number mod n, per torus variable."""
    targets = rng.choice(n ** m, size=3, replace=False)
    keys = [tuple(np.unravel_index(targets[i % 3], (n,) * m))
            for i in rng.permutation(6)]
    vecs = []
    for key in keys:
        w = rng.integers(-2, 3, size=(n - 1, m))
        w[-1] = (np.asarray(key) - w[:-1].sum(axis=0)) % n
        vecs.append(_laurent_params(rng, n, m, windings=w)[0])
    return Job("classify", partial(o.check_classes, keys=keys),
               {"form": "f_alpha", "ring": "laurent", "order": n,
                "monomial": True},
               {"descriptor": {"kind": "laurent", "m": m}, "alphas": vecs})


def _rewrite_job(n, degree):
    pairs = ((1 << n) * (2 * degree + 1) ** n) ** 2
    return Job("rewrite", lambda rep, rc: o.check_rewrite(rep, pairs),
               {"form": "library", "ring": "laurent", "order": 1 << n,
                "monomial": True},
               call=lambda twistalg: twistalg.isolab.z2n_torus_rewrite(
                   n, degree=degree))


def _laurent_norm_job(rng, n, m):
    desc = {"kind": "laurent", "m": m}
    grid = 64 if m == 1 else 32
    lits, terms = _laurent_params(rng, n, m)
    xc, xs = _laurent_element(rng, n, m)
    return Job("norm", partial(_check_laurent_norm, terms, xs, n, m, grid),
               {"form": "f_alpha", "ring": "laurent", "order": n,
                "monomial": True, "density": "sparse"},
               {"cocycle": {"descriptor": desc, "f_alpha": lits}, "x": xc},
               flags=("--grid", str(grid)))


# (n, m) of every subcommand's jobs in a pass; Z/16 three times, so each
# subcommand's median falls inside the Z/16 jobs rather than on the edge
# between two group orders
_LAURENT_SHAPES = ((8, 1), (8, 2), (16, 1), (16, 2), (16, 2))
# extra Z/16, m = 2 norms: with them the slowest quarter of a pass is the
# two Z/2 x Z/2 rewrite checks plus a block of like norms, so job_tail_s
# (p75) reads a norm rather than the edge between two job shapes
_EXTRA_NORMS = 6


def laurent_torus(rng) -> list:
    """f_alpha on Z/8 and Z/16 over Laurent rings in m = 1, 2 variables:
    validate, mul, norm and classify, plus exact torus rewrites."""
    jobs = []
    for n, m in _LAURENT_SHAPES:
        desc = {"kind": "laurent", "m": m}
        props = {"form": "f_alpha", "ring": "laurent", "order": n,
                 "monomial": True}

        lits, _ = _laurent_params(rng, n, m)
        jobs.append(Job("validate", partial(o.check_validate, valid=True),
                        props, {"cocycle": {"descriptor": desc,
                                            "f_alpha": lits}}))

        lits, terms = _laurent_params(rng, n, m)
        (xc, xs), (yc, ys) = (_laurent_element(rng, n, m),
                              _laurent_element(rng, n, m))
        points = np.exp(2j * np.pi * rng.random((5, m)))
        jobs.append(Job("mul",
                        partial(_check_laurent_mul, terms, xs, ys, n, points),
                        dict(props, density="sparse"),
                        {"cocycle": {"descriptor": desc, "f_alpha": lits},
                         "x": xc, "y": yc}))

        jobs.append(_laurent_norm_job(rng, n, m))
        jobs.append(_classify_job(rng, n, m))
    jobs += [_laurent_norm_job(rng, 16, 2) for _ in range(_EXTRA_NORMS)]
    # the rewrite check has no parameters to draw: every basis pair is
    # checked, at a fixed degree per job
    return jobs + [_rewrite_job(1, 8), _rewrite_job(2, 2), _rewrite_job(2, 2)]


WORKLOADS = {
    "cyclic_scalar": cyclic_scalar,
    "clifford_blocks": clifford_blocks,
    "laurent_torus": laurent_torus,
}


def make_pass(workload: str, seed: int, index: int) -> list:
    """One pass of fresh jobs in a seeded order: shuffling spreads each
    shape's samples over the run, so a slow spell on the machine does not
    hit all samples of one shape at once."""
    rng = np.random.default_rng([seed % (1 << 64), index])
    jobs = WORKLOADS[workload](rng)
    for slot, job in enumerate(jobs):
        job.slot = slot
    return [jobs[i] for i in rng.permutation(len(jobs))]
