"""Independent numpy references for every kind of job result.

Nothing here imports twistalg: each reference is rebuilt from the job's own
parameters.  Every ``check_*`` function reads only the report keys it needs
and raises ``OracleError`` with a short reason when the report is wrong, so
reports that later gain extra keys still pass.
"""
from __future__ import annotations

import numpy as np

TOL = 1e-9          # the CLI default --tol; residuals must stay below it
REL = 1e-8          # relative agreement of printed numbers (12 digits)


class OracleError(AssertionError):
    pass


def _require(cond, why):
    if not cond:
        raise OracleError(why)


# -- scalars as the CLI prints them ------------------------------------------

def fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}i"


def fmt_real(x: float) -> str:
    return f"{float(x):.17g}"


def parse_scalar(s) -> complex:
    if isinstance(s, (int, float)):
        return complex(s)
    return complex(str(s).replace(" ", "").replace("i", "j"))


# -- cyclic cocycles over C and R --------------------------------------------

def f_alpha_table(alphas) -> np.ndarray:
    """The f_alpha cocycle on Z/n as an (n, n) array, by prefix products:
    f(p, q) = (prod_{j=p}^{p+q-1} a_j)(prod_{k=1}^{q-1} a_k^*), a_n = 1,
    indices mod n in 1..n and p = 0 read as n."""
    a = np.asarray(list(alphas) + [1.0], dtype=complex)
    n = len(a)
    ext = np.concatenate([[1.0 + 0j], np.tile(a, 2)])      # ext[j] = a_j
    pref = np.cumprod(ext)                                  # pref[j] = a_1..a_j
    p = np.arange(n)
    pp = np.where(p == 0, n, p)[:, None]
    q = p[None, :]
    return (pref[pp + q - 1] * np.conj(pref[pp - 1])
            * np.conj(pref[np.maximum(q - 1, 0)]))


def coboundary_table(lam) -> np.ndarray:
    """delta lambda(s, t) = lambda(s) lambda(t) lambda(s+t)^* on Z/n."""
    lam = np.asarray(lam, dtype=complex)
    n = len(lam)
    idx = np.arange(n)
    return lam[:, None] * lam[None, :] * np.conj(lam[(idx[:, None] + idx) % n])


def cyclic_cocycle_defect(table, chunk: int = 16) -> float:
    """Largest |f(r,s) f(r+s,t) - f(r,s+t) f(s,t)| over all triples, in row
    blocks so memory stays O(chunk n^2)."""
    f = np.asarray(table, dtype=complex)
    n = len(f)
    idx = np.arange(n)
    add = (idx[:, None] + idx[None, :]) % n
    worst = 0.0
    for r0 in range(0, n, chunk):
        r = idx[r0:r0 + chunk]
        lhs = f[r][:, :, None] * f[add[r]]
        rhs = f[r][:, add] * f[None, :, :]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def twisted_mul(table, x, y) -> np.ndarray:
    """(XY)_t = sum_s f(s, t-s) X_s Y_{t-s} on Z/n."""
    f = np.asarray(table)
    n = len(f)
    s = np.arange(n)[:, None]
    u = (np.arange(n)[None, :] - s) % n
    return np.sum(f[s, u] * np.asarray(x)[s] * np.asarray(y)[u], axis=0)


def twisted_star(table, x) -> np.ndarray:
    """(X^*)_t = f(t, -t)^* X_{-t}^* on Z/n."""
    f = np.asarray(table)
    n = len(f)
    t = np.arange(n)
    neg = (-t) % n
    return np.conj(f[t, neg]) * np.conj(np.asarray(x)[neg])


def regular_matrices(table, x) -> np.ndarray:
    """M[..., s, t] = f(s-t, t) X_{s-t}; leading axes broadcast (torus
    sample points)."""
    f = np.asarray(table)
    x = np.asarray(x)
    n = f.shape[-1]
    s = np.arange(n)[:, None]
    t = np.arange(n)[None, :]
    r = (s - t) % n
    return f[..., r, t] * x[..., r]


def regular_norm(table, x) -> float:
    return float(np.linalg.norm(regular_matrices(table, x), 2))


# -- Laurent values on the torus ---------------------------------------------

def torus_grid(grid: int, m: int) -> np.ndarray:
    """The grid^m sample the CLI uses, as an array of shape (grid^m, m)."""
    z = np.exp(2j * np.pi * np.arange(grid) / grid)
    axes = np.meshgrid(*([z] * m), indexing="ij")
    return np.stack([a.ravel() for a in axes], axis=-1)


def eval_terms(terms, points) -> np.ndarray:
    """Evaluate [(exps, coeff), ...] at points of shape (k, m)."""
    out = np.zeros(len(points), dtype=complex)
    for exps, c in terms:
        out += complex(c) * np.prod(points ** np.asarray(exps), axis=1)
    return out


def laurent_f_alpha_at(alpha_terms, points) -> np.ndarray:
    """f_alpha with monomial parameters, evaluated pointwise: (k, n, n)."""
    vals = np.stack([eval_terms(t, points) for t in alpha_terms], axis=1)
    return np.stack([f_alpha_table(v) for v in vals])


def element_at(coeffs, n, points) -> np.ndarray:
    """Element {label: [(exps, coeff), ...]} evaluated at points: (k, n)."""
    out = np.zeros((len(points), n), dtype=complex)
    for label, terms in coeffs.items():
        out[:, int(label)] = eval_terms(terms, points)
    return out


def parse_laurent(obj):
    """CLI Laurent literal [[exps, "coeff"], ...] as (exps, complex) pairs."""
    return [(list(e) if isinstance(e, list) else [e], parse_scalar(c))
            for e, c in obj]


# -- Clifford cocycles -------------------------------------------------------

def clifford_table(rho) -> np.ndarray:
    """f(A, B) = (-1)^tau prod_{i in A & B} rho_i on subsets-as-bitmasks,
    tau = #{(i in A, j in B) : j < i}."""
    rho = np.asarray(rho, dtype=complex)
    k = len(rho)
    n = 1 << k
    masks = np.arange(n)
    bits = (masks[:, None] >> np.arange(k)) & 1                # (n, k)
    below = np.cumsum(bits, axis=1) - bits                      # j < i in B
    tau = bits @ below.T                                        # (A, B)
    both = bits[:, None, :] & bits[None, :, :]
    prod = np.prod(np.where(both == 1, rho, 1.0), axis=-1)
    return np.where(tau % 2 == 1, -1.0, 1.0) * prod


# -- report checks -----------------------------------------------------------

def _coeff_vector(report_coeffs, n) -> np.ndarray:
    out = np.zeros(n, dtype=complex)
    for label, v in report_coeffs.items():
        out[int(label)] = parse_scalar(v)
    return out


def check_close(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want))) if want.size else 1.0)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    _require(err <= REL * scale, f"{what}: error {err:.3e} at scale "
                                 f"{scale:.3e}")


def check_exit(rc, want):
    _require(rc == want, f"exit code {rc}, expected {want}")


def check_validate(report, rc, valid: bool):
    check_exit(rc, 0 if valid else 1)
    _require(report["valid"] is valid, f"valid={report['valid']}")
    if not valid:
        _require(any(v["check"] == "cocycle" for v in report["violations"]),
                 "no cocycle violation reported")


def check_element(report, rc, want):
    check_exit(rc, 0)
    got = _coeff_vector(report["result"]["coeffs"], len(want))
    check_close(got, want, "coefficients")


def check_norm(report, rc, want: float):
    check_exit(rc, 0)
    check_close(float(report["norm"]), want, "norm")


def check_laurent_element(report, rc, n, points, want):
    """Compare a Laurent element report with the expected values at
    sample torus points; want has shape (k, n)."""
    check_exit(rc, 0)
    coeffs = {lbl: parse_laurent(v)
              for lbl, v in report["result"]["coeffs"].items()}
    check_close(element_at(coeffs, n, points), want, "torus values")


def check_classes(report, rc, keys):
    """The partition must group vectors exactly by their class keys, with
    classes in order of first appearance."""
    check_exit(rc, 0)
    want = {}
    for i, key in enumerate(keys):
        want.setdefault(key, []).append(i)
    want = sorted(want.values())
    got = sorted(c["members"] for c in report["classes"])
    _require(report["class_count"] == len(want),
             f"class_count {report['class_count']}, expected {len(want)}")
    _require(got == want, f"classes {got}, expected {want}")


def _check_morphism(rep, dim):
    """Residuals within tolerance; bijective, of real dimension dim."""
    for key in ("unit_residual", "mult_residual", "star_residual"):
        _require(float(rep[key]) <= TOL, f"{key} {rep[key]}")
    _require(rep["injective"] is True, "not injective")
    _require(rep["source_dim"] == dim, f"source_dim {rep['source_dim']}, "
                                       f"expected {dim}")
    _require(rep["image_rank"] == dim, f"image_rank {rep['image_rank']}")
    _require(rep["surjective"] is True, f"surjective {rep['surjective']}")


def check_iso(report, rc, dim):
    """A verified isomorphism of real dimension dim."""
    check_exit(rc, 0)
    _require(report["verified"] is True, "not verified")
    _check_morphism(report["report"], dim)


def check_iso_refused(report, rc):
    """By design: the constructor's hypothesis fails and the CLI says so."""
    check_exit(rc, 1)
    _require(report["verified"] is False, "verified")
    _require(bool(report.get("error")), "no error message")


def check_z2z4(report, rc):
    """By design: the displayed order-8 map is not multiplicative."""
    check_exit(rc, 1)
    _require(report["verified"] is False, "verified")
    rep = report["report"]
    _require(float(rep["mult_residual"]) == 2.0,
             f"mult_residual {rep['mult_residual']}")
    _require(rep["image_rank"] == 12, f"image_rank {rep['image_rank']}")


def check_clifford(report, rc, rho, dim):
    """Base cocycle table, generator relations and the periodicity map."""
    check_exit(rc, 0)
    table = np.array([[parse_scalar(v) for v in row]
                      for row in report["cocycle"]["table"]])
    check_close(table, clifford_table(rho), "clifford cocycle")
    rel = report["relations"]
    _require(rel["anticommute"] is True and rel["squares"] is True,
             "generator relations fail")
    _require(float(rel["residual"]) <= TOL, f"relation residual "
                                            f"{rel['residual']}")
    _check_morphism(report["periodicity"]["report"], dim)


def check_rewrite(rep, pairs):
    """Exact torus rewrite: zero residuals over every basis pair."""
    _require(rep.mult_residual == 0.0, f"mult_residual {rep.mult_residual}")
    _require(rep.star_residual == 0.0, f"star_residual {rep.star_residual}")
    _require(rep.injective is True, "not injective")
    _require(rep.pairs_checked == pairs,
             f"pairs_checked {rep.pairs_checked}, expected {pairs}")
