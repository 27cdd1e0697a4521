"""JSON-compatible config parsing and deterministic emission.

Scalars travel as "a+bi" strings, Laurent values as [exponents, coeff]
term lists, matrices as row lists, quaternions as 4-tuples, product values
as per-factor lists; parse_readouts reads lists of finite ones.  Groups
are {kind: cyclic|product|subsets, ...}, cocycles tables or constructors.
"""
from __future__ import annotations

import numpy as np

from .cocycle import SchurFunction, klein_table, make_f_alpha
from .groups import GroupTable, direct_product, make_cyclic, make_subset_group
from .rings import (COMPLEX, DEFAULT_TOL, REAL, RingDescriptor, RingValue,
                    laurent, matrix_ring, product_ring)


class ConfigError(ValueError):
    """Raised for malformed configs (CLI exit code 2)."""


# -- descriptors -----------------------------------------------------------

_SCALAR_KINDS = {"complex": COMPLEX, "real": REAL}


def parse_descriptor(obj) -> RingDescriptor:
    if isinstance(obj, str):
        if obj in _SCALAR_KINDS:
            return _SCALAR_KINDS[obj]
        if obj == "quaternion":
            from .rings import QUATERNION
            return QUATERNION
        raise ConfigError(f"unknown ring descriptor {obj!r}")
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("ring descriptor must be a string or a kind dict")
    kind, field = obj["kind"], obj.get("field", "complex")
    try:
        if kind in ("complex", "real", "quaternion"):
            return parse_descriptor(kind)
        if kind == "laurent":
            return laurent(m=int(obj.get("m", 1)), field=field)
        if kind == "matrix":
            return matrix_ring(int(obj["k"]), field=field)
        if kind == "product":
            return product_ring(*map(parse_descriptor, obj["factors"]))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown ring descriptor kind {kind!r}")


def descriptor_to_json(d: RingDescriptor):
    if d.kind in ("complex", "real", "quaternion"):
        return d.kind
    if d.kind == "laurent":
        return {"kind": "laurent", "m": d.m, "field": d.field}
    if d.kind == "matrix":
        return {"kind": "matrix", "k": d.k, "field": d.field}
    if d.kind == "product":
        return {"kind": "product",
                "factors": [descriptor_to_json(f) for f in d.factors]}
    raise ConfigError(f"unserializable descriptor {d}")


# -- scalars ---------------------------------------------------------------

def parse_scalar(obj) -> complex:
    """A number, an "a+bi" string or an [re, im] pair; JSON true and false
    are no scalars.  A string is read with each i as j, and where that
    gives no number (the i of "inf") with only a trailing i as j."""
    if isinstance(obj, str):
        s = obj.strip().replace(" ", "")
        try:                # the common case, in one call
            return complex(s.replace("i", "j"))
        except ValueError:
            pass
        try:                # "inf", "-inf", "1-infi"
            return complex(s[:-1] + "j" if s.endswith("i") else s)
        except ValueError as exc:
            raise ConfigError(f"bad scalar literal {obj!r}") from exc
    if isinstance(obj, bool) or (isinstance(obj, list)
                                 and any(isinstance(x, bool) for x in obj)):
        raise ConfigError(f"bad scalar literal {obj!r}")
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2:
        return complex(float(obj[0]), float(obj[1]))
    raise ConfigError(f"bad scalar literal {obj!r}")


def _fmt_float(x: float) -> str:
    out = f"{x:.12g}"
    return "0" if out in ("-0", "0") else out


def scalar_to_json(c: complex) -> str:
    re, im = _fmt_float(c.real), _fmt_float(abs(c.imag))
    if c.imag == 0:
        return re
    sign = "+" if c.imag >= 0 else "-"
    return f"{re}{sign}{im}i"


# -- ring values -----------------------------------------------------------

def parse_values(d: RingDescriptor, literals) -> list:
    """Each literal's parse_value; over a finite ring from parse_readouts."""
    if not d.is_finite:
        return [parse_value(d, v) for v in literals]
    from .dense import from_readout
    return from_readout(d, parse_readouts(d, literals))


def parse_readouts(d: RingDescriptor, literals) -> np.ndarray:
    """dense.readout_array (N, b, r) of parse_value's values of literals of
    a finite ring d, bit for bit: in one pass, else one literal at a time,
    which raises parse_value's error at the first bad one."""
    y = _batch(d, literals) if type(literals) is list and literals else None
    if y is None:
        from .dense import readout_array
        y = readout_array(d, [parse_value(d, v) for v in literals])
    return y


def _batch(d: RingDescriptor, literals):
    """parse_readouts in one pass, or None: lists of the right lengths, R
    values real, scalar strings joined by line breaks, spaces dropped, i
    read as j, split and read by complex() as parse_scalar first tries."""
    flat = literals
    for k in {"matrix": (d.k, d.k), "quaternion": (4,),
              "product": (len(d.factors),)}.get(d.kind, ()):
        if not all(type(v) is list and len(v) == k for v in flat):
            return None
        flat = [x for v in flat for x in v]
    if d.kind == "product":         # flat: each literal's k factors in turn
        parts = [_batch(e, flat[j::k]) for j, e in enumerate(d.factors)]
        from .dense import product_readouts
        return (None if any(p is None for p in parts)
                else product_readouts(d, parts))
    read, real = (float if d.kind == "quaternion" else complex), d.is_real
    try:
        s = flat if read is float else "\n".join(flat).replace(
            " ", "").replace("i", "j").split("\n")
        y = np.fromiter(map(read, s), read, len(s))
    except (TypeError, ValueError, OverflowError):
        return None
    if len(y) != len(flat) or read is complex and real and y.imag.any():
        return None
    y = y.reshape(len(literals), -1, d.k or 1)
    return y.real if real else y


def parse_value(d: RingDescriptor, obj) -> RingValue:
    if d.kind in ("complex", "real"):
        return RingValue.scalar(d, parse_scalar(obj))
    if d.kind == "laurent":
        terms = []
        for term in obj:
            if not isinstance(term, list) or len(term) != 2:
                raise ConfigError("Laurent term must be [exponents, coeff]")
            exps, coeff = term
            if isinstance(exps, int):
                exps = [exps]
            if len(exps) != d.m:
                raise ConfigError("exponent vector length mismatch")
            terms.append((tuple(int(e) for e in exps), parse_scalar(coeff)))
        acc = {}
        for exps, c in terms:
            acc[exps] = acc.get(exps, 0j) + c
        return RingValue.poly(d, acc)
    if d.kind == "matrix":
        rows = [[parse_scalar(e) for e in row] for row in obj]
        if len(rows) != d.k or any(len(r) != d.k for r in rows):
            raise ConfigError(f"matrix literal must be {d.k}x{d.k}")
        return RingValue.mat(d, rows)
    if d.kind == "quaternion":
        if len(obj) != 4:
            raise ConfigError("quaternion literal must have 4 coordinates")
        return RingValue.quaternion([float(x) for x in obj])
    if d.kind == "product":
        if len(obj) != len(d.factors):
            raise ConfigError("product literal component count mismatch")
        return RingValue.tuple_value(
            d, [parse_value(f, o) for f, o in zip(d.factors, obj)])
    raise ConfigError(f"cannot parse value of kind {d.kind}")


def value_to_json(v: RingValue):
    d = v.descriptor
    if d.kind in ("complex", "real"):
        return scalar_to_json(complex(v.payload))
    if d.kind == "laurent":
        return [[list(e), scalar_to_json(c)]
                for e, c in sorted(v.payload.items())]
    if d.kind == "matrix":
        return [[scalar_to_json(v.payload[i, j]) for j in range(d.k)]
                for i in range(d.k)]
    if d.kind == "quaternion":
        return [_fmt_float(float(x)) for x in v.payload]
    if d.kind == "product":
        return [value_to_json(c) for c in v.payload]
    raise ConfigError(f"unserializable value kind {d.kind}")


# -- groups ----------------------------------------------------------------

def parse_group(obj) -> GroupTable:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError("group must be a kind dict")
    kind = obj["kind"]
    try:
        if kind == "cyclic":
            return make_cyclic(int(obj["n"]))
        if kind == "product":
            factors = [parse_group(f) for f in obj["factors"]]
            if len(factors) < 2:
                raise ConfigError("product group needs at least two factors")
            out = factors[0]
            for f in factors[1:]:
                out = direct_product(out, f)
            return out
        if kind == "subsets":
            return make_subset_group(obj["labels"])
        if kind == "table":
            return GroupTable(obj["mul"], labels=obj.get("labels"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown group kind {kind!r}")


def group_to_json(g: GroupTable):
    return {"kind": "table", "labels": list(map(str, g.labels)),
            "mul": [[int(e) for e in row] for row in g.mul]}


# -- cocycles --------------------------------------------------------------

def validated_on_parse(obj) -> bool:
    """Whether parse_cocycle(obj, tol) validated its table at tol: f_alpha
    and klein_table do, unless obj holds a table (which it reads first)."""
    return "table" not in obj and ("f_alpha" in obj or "klein_table" in obj)


def parse_cocycle(obj, tol: float = DEFAULT_TOL) -> SchurFunction:
    """A cocycle from a table or a named constructor; tol reaches every
    check the constructor makes."""
    if not isinstance(obj, dict):
        raise ConfigError("cocycle must be a dict")
    d = parse_descriptor(obj.get("descriptor", "complex"))
    if "table" in obj:
        g = parse_group(obj["group"])
        table = obj["table"]
        if len(table) != g.order or any(len(r) != g.order for r in table):
            raise ConfigError("cocycle table shape mismatch")
        if not d.is_finite:
            return SchurFunction(g, d, [parse_values(d, r) for r in table])
        from .centre import held
        rows = (parse_readouts(d, row) for row in table)
        return SchurFunction(g, d, held(d, rows, g.order))
    if "f_alpha" in obj:
        alphas = parse_values(d, obj["f_alpha"])
        return make_f_alpha(len(alphas) + 1, alphas, d, tol)
    if "klein_table" in obj:
        p = obj["klein_table"]
        try:
            return klein_table(parse_value(d, p["alpha"]),
                               parse_value(d, p["beta"]),
                               parse_value(d, p["gamma"]),
                               parse_value(d, p["eps"]), tol)
        except KeyError as exc:
            raise ConfigError(f"klein_table missing parameter {exc}") from exc
    if "clifford_rho" in obj:
        from .clifford import CliffordSpec, clifford_cocycle
        values = parse_values(d, obj["clifford_rho"])
        labels = obj.get("labels", list(range(1, len(values) + 1)))
        return clifford_cocycle(CliffordSpec(labels, values, d, tol))
    raise ConfigError("cocycle needs a table or a named constructor")


def cocycle_to_json(f: SchurFunction):
    return {
        "descriptor": descriptor_to_json(f.descriptor),
        "group": group_to_json(f.group),
        "table": [[value_to_json(v) for v in row] for row in f.values],
    }


# -- elements --------------------------------------------------------------

def parse_element(f: SchurFunction, obj):
    from .algebra import AlgebraElement
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise ConfigError("element must be {coeffs: {label: value}}")
    x = AlgebraElement.zero(f)
    labels = {str(l): i for i, l in enumerate(f.group.labels)}
    for label, val in obj["coeffs"].items():
        if str(label) not in labels:
            raise ConfigError(f"unknown group element label {label!r}")
        v = parse_value(f.descriptor, val)
        if not v.is_finite():
            raise ConfigError(f"non-finite coefficient at {label!r}")
        x.coeffs[labels[str(label)]] = v
    return x


def element_to_json(x):
    out = {}
    for t, c in enumerate(x.coeffs):
        if not c.is_zero(0.0):
            out[str(x.cocycle.group.labels[t])] = value_to_json(c)
    return {"coeffs": out}
