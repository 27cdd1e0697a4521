"""Batch command-line front end.

Every subcommand reads a single JSON config (--config) and prints a
deterministic report (JSON by default, aligned text with --format table).
Exit codes: 0 success, 1 domain failure, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import algebra, clifford, cocycle, isolab
from .rings import DEFAULT_GRID, DEFAULT_TOL
from .serialize import (ConfigError, cocycle_to_json, element_to_json,
                        parse_cocycle, parse_descriptor, parse_element,
                        parse_value, parse_values, validated_on_parse,
                        value_to_json)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2


def _fmt12(x: float) -> str:
    return f"{float(x):.12g}"


def _emit(payload: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        lines = []

        def walk(prefix, obj):
            if isinstance(obj, dict):
                for k in sorted(obj):
                    walk(f"{prefix}{k}.", obj[k])
            elif isinstance(obj, list):
                lines.append(f"{prefix[:-1]:<40} {json.dumps(obj)}")
            else:
                lines.append(f"{prefix[:-1]:<40} {obj}")

        walk("", payload)
        text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


def _load_config(args) -> dict:
    try:
        with open(args.config) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


# -- subcommands -----------------------------------------------------------

def cmd_validate(args) -> int:
    cfg = _load_config(args)
    f = parse_cocycle(cfg["cocycle"], args.tol)
    # a constructor that validated its table raised if it was invalid
    report = (cocycle.ValidationReport() if validated_on_parse(cfg["cocycle"])
              else cocycle.validate(f, tol=args.tol))
    payload = {
        "valid": report.ok,
        "violation_count": len(report.violations),
        "violations": [
            {"check": c, "where": [str(w) for w in where],
             "residual": _fmt12(r)}
            for c, where, r in report.violations[:50]
        ],
    }
    _emit(payload, args)
    return EXIT_OK if report.ok else EXIT_DOMAIN


def cmd_mul(args) -> int:
    cfg = _load_config(args)
    f = _valid_cocycle(cfg["cocycle"], args.tol)
    x = parse_element(f, cfg["x"])
    y = parse_element(f, cfg["y"])
    _emit({"result": element_to_json(algebra.alg_mul(x, y))}, args)
    return EXIT_OK


def cmd_star(args) -> int:
    cfg = _load_config(args)
    f = _valid_cocycle(cfg["cocycle"], args.tol)
    x = parse_element(f, cfg["x"])
    _emit({"result": element_to_json(algebra.alg_star(x))}, args)
    return EXIT_OK


def cmd_norm(args) -> int:
    cfg = _load_config(args)
    f = _valid_cocycle(cfg["cocycle"], args.tol)
    x = parse_element(f, cfg["x"])
    _emit({"norm": _fmt12(algebra.alg_norm(x, grid=args.grid))}, args)
    return EXIT_OK


def cmd_classify(args) -> int:
    cfg = _load_config(args)
    d = parse_descriptor(cfg.get("descriptor", "complex"))
    if d.kind not in ("complex", "laurent"):
        raise ConfigError("classify supports complex scalars and Laurent "
                          "rings only")
    vectors = cfg["alphas"]
    if not vectors:
        raise ConfigError("classify needs at least one parameter vector")
    n = len(vectors[0]) + 1
    parsed = []
    for vec in vectors:
        if len(vec) != n - 1:
            raise ConfigError("all parameter vectors must share one length")
        parsed.append(parse_values(d, vec))
    classes = []           # list of (representative index, member list)
    witnesses = {}
    for i, alphas in enumerate(parsed):
        placed = False
        for rep, members in classes:
            lam = cocycle.equivalent_cyclic(parsed[rep], alphas,
                                            descriptor=d, tol=args.tol)
            if lam is not None:
                members.append(i)
                witnesses[i] = [value_to_json(v) for v in lam.values]
                placed = True
                break
        if not placed:
            classes.append((i, [i]))
    payload = {
        "n": n,
        "class_count": len(classes),
        "classes": [{"representative": rep, "members": members}
                    for rep, members in classes],
        "witnesses": {str(i): w for i, w in sorted(witnesses.items())},
    }
    _emit(payload, args)
    return EXIT_OK


def _report_payload(rep: isolab.MorphismReport) -> dict:
    out = rep.to_dict()
    for k in ("unit_residual", "mult_residual", "star_residual",
              "residual_bound"):
        out[k] = None if out[k] is None else _fmt12(out[k])
    return out


def _build_iso(cfg, tol):
    name = cfg.get("constructor")
    params = cfg.get("params", {})

    def cval(key, d):
        return parse_value(d, params[key])

    if name == "identity":
        return isolab.identity_morphism(parse_cocycle(cfg["cocycle"], tol))
    if name == "lambda":
        f = parse_cocycle(cfg["cocycle"], tol)
        vals = parse_values(f.descriptor, params["lambda"])
        lam = cocycle.Lambda(f.group, f.descriptor, vals, tol)
        return isolab.lambda_isomorphism(f, lam)
    if name == "z2_split":
        f = parse_cocycle(cfg["cocycle"], tol)
        x = (parse_value(f.descriptor, params["x"])
             if "x" in params else None)
        return isolab.z2_split(f, x=x, tol=tol)
    if name == "z2_complexify":
        return isolab.z2_complexify(parse_cocycle(cfg["cocycle"], tol),
                                    tol=tol)
    if name in ("klein_split4", "klein_complex_pair", "klein_quaternion",
                "klein_matrix"):
        d = parse_descriptor(cfg.get("descriptor", "complex"))
        a, b, g = cval("alpha", d), cval("beta", d), cval("gamma", d)
        kw = {"tol": tol}
        for root in ("x", "y"):
            if root in params:
                kw[root] = parse_value(d, params[root])
        if name == "klein_complex_pair":
            try:
                kw["variant"] = int(params.get("variant", 1))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad variant: {exc}") from exc
        return getattr(isolab, name)(a, b, g, **kw)
    if name == "char_decompose_z2n":
        return isolab.char_decompose_z2n(parse_cocycle(cfg["cocycle"], tol),
                                         tol=tol)
    if name == "cyclic_decompose":
        d = parse_descriptor(cfg.get("descriptor", "complex"))
        alphas = parse_values(d, params["alphas"])
        f = cocycle.make_f_alpha(len(alphas) + 1, alphas, d, tol)
        beta = parse_value(d, params["beta"]) if "beta" in params else None
        return isolab.cyclic_decompose(f, alphas, beta=beta, tol=tol)
    if name == "z2z4_decompose":
        return isolab.z2z4_decompose(tol=tol)
    raise ConfigError(f"unknown iso constructor {name!r}")


def cmd_iso(args) -> int:
    cfg = _load_config(args)
    try:
        morphism = _build_iso(cfg, args.tol)
    except ConfigError:
        raise
    except ValueError as exc:
        _emit({"verified": False, "error": str(exc)}, args)
        return EXIT_DOMAIN
    rep = isolab.verify_morphism(morphism, tol=args.tol)
    verified = _verified(rep, args.tol)
    _emit({"verified": verified, "report": _report_payload(rep)}, args)
    return EXIT_OK if verified else EXIT_DOMAIN


def _verified(rep, tol) -> bool:
    """A morphism's verdict: residuals within tol, and bijective where a
    rank was taken (over Laurent rings none is, injective is None)."""
    return rep.ok(tol) and False not in (rep.injective, rep.surjective)


def cmd_clifford(args) -> int:
    cfg = _load_config(args)
    d = parse_descriptor(cfg.get("field", cfg.get("descriptor", "complex")))
    values = parse_values(d, cfg["rho"])
    labels = cfg.get("labels", list(range(1, len(values) + 1)))
    spec = clifford.CliffordSpec(labels, values, d, tol=args.tol)
    f = clifford.clifford_cocycle(spec)
    payload = {"cocycle": cocycle_to_json(f)}

    # the generator relations, read off the table: V_s^2 = f(s,s) V_0,
    # V_s^* = f(s,s)^* V_s and V_s V_r + V_r V_s = (f(s,r) + f(r,s)) V_sr
    gens = [1 << i for i in range(spec.size)]
    squares = max(((f.values[s][s] - rho).abs_bound()
                   for s, rho in zip(gens, spec.values)), default=0.0)
    anti = max(((f.values[s][r] + f.values[r][s]).abs_bound()
                for i, s in enumerate(gens) for r in gens[:i]), default=0.0)
    rel = {"anticommute": anti <= args.tol, "squares": squares <= args.tol}
    payload["relations"] = dict(rel, residual=_fmt12(max(squares, anti)))
    ok = all(rel.values())

    per = cfg.get("periodicity")
    if per:
        op = per.get("op")
        if op in ("extend_two_matrix", "extend_two_quaternion"):
            m = getattr(clifford, op)(
                spec, parse_value(d, per["alpha1"]),
                parse_value(d, per["alpha2"]), tol=args.tol)
        elif op == "complexify_odd":
            m = clifford.complexify_odd(spec, tol=args.tol)
        elif op == "split_odd":
            m = clifford.split_odd(spec, tol=args.tol)[3]
        else:
            raise ConfigError(f"unknown periodicity op {op!r}")
        rep = isolab.verify_morphism(m, tol=args.tol)
        payload["periodicity"] = {"op": op, "report": _report_payload(rep)}
        ok = ok and _verified(rep, args.tol)
    _emit(payload, args)
    return EXIT_OK if ok else EXIT_DOMAIN


def _valid_cocycle(obj, tol):
    """parse_cocycle; tables that no constructor validated are validated."""
    f = parse_cocycle(obj, tol)
    if not validated_on_parse(obj):
        cocycle._require_valid(f, "the cocycle config", tol)
    return f


# -- entry point -----------------------------------------------------------

_COMMANDS = {
    "validate": cmd_validate,
    "mul": cmd_mul,
    "star": cmd_star,
    "norm": cmd_norm,
    "classify": cmd_classify,
    "iso": cmd_iso,
    "clifford": cmd_clifford,
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="twistalg",
        description="Twisted group algebra toolkit (batch mode)")
    sub = p.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--tol", type=float, default=DEFAULT_TOL)
        sp.add_argument("--grid", type=int, default=DEFAULT_GRID)
        sp.add_argument("--format", choices=("json", "table"),
                        default="json")
        sp.add_argument("--out", default=None)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first call to main: building
    takes about 30 times as long as parsing one command line."""
    return build_parser()


@functools.cache
def _fix_mmap_threshold() -> None:
    """Fix glibc's mmap threshold at its default, 128 KiB, once: left
    dynamic, it rises to each freed mmapped chunk's size, so large arrays
    land in the brk heap and stay resident once freed; fixed, they are
    unmapped.  A no-op off Linux or where the C library has no mallopt."""
    if sys.platform == "linux":
        import ctypes
        mallopt = getattr(ctypes.CDLL(None), "mallopt", lambda *_: 0)
        mallopt.argtypes, mallopt.restype = [ctypes.c_int] * 2, ctypes.c_int
        mallopt(-3, 128 * 1024)         # M_MMAP_THRESHOLD


def main(argv=None) -> int:
    _fix_mmap_threshold()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    if not 0 < args.tol < float("inf") or args.grid <= 0:
        sys.stderr.write("tol must be finite and positive, grid positive\n")
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_USAGE
    except (KeyError, TypeError) as exc:
        sys.stderr.write(f"config error: missing or malformed field "
                         f"{exc}\n")
        return EXIT_USAGE
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
