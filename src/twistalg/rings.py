"""Coefficient *-algebras.

A small family of concrete unital *-algebras E used as coefficients of the
twisted group algebras: complex and real scalars, Laurent polynomials on the
m-torus (modelling continuous functions on T^m), k x k matrices, quaternions,
and finite products of these.  Values are immutable; every operation returns
a fresh value.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-9
DEFAULT_GRID = 64

# coefficients below this are treated as exact zeros in Laurent payloads
_COEFF_EPS = 1e-14


@dataclass(frozen=True)
class RingDescriptor:
    kind: str  # complex | real | laurent | matrix | quaternion | product
    m: int = 0
    k: int = 0
    field: str = "complex"
    factors: tuple = ()

    def __post_init__(self):
        if self.kind not in ("complex", "real", "laurent", "matrix",
                             "quaternion", "product"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "laurent" and self.m < 1:
            raise ValueError("laurent ring needs m >= 1")
        if self.kind == "matrix" and self.k < 1:
            raise ValueError("matrix ring needs k >= 1")
        if self.kind == "product" and not self.factors:
            raise ValueError("product ring needs at least one factor")
        if self.field not in ("real", "complex"):
            raise ValueError(f"unknown field {self.field!r}")

    @property
    def is_real(self) -> bool:
        if self.kind in ("real", "quaternion"):
            return True
        if self.kind in ("laurent", "matrix"):
            return self.field == "real"
        if self.kind == "product":
            return all(f.is_real for f in self.factors)
        return False

    @property
    def is_finite(self) -> bool:
        """Whether E is finite-dimensional: no Laurent factor."""
        return self.kind != "laurent" and all(f.is_finite
                                              for f in self.factors)

    def __str__(self):
        if self.kind == "laurent":
            return f"laurent(m={self.m},{self.field})"
        if self.kind == "matrix":
            return f"matrix(k={self.k},{self.field})"
        if self.kind == "product":
            return "product(" + ",".join(str(f) for f in self.factors) + ")"
        return self.kind


COMPLEX = RingDescriptor("complex")
REAL = RingDescriptor("real")
QUATERNION = RingDescriptor("quaternion")


def laurent(m: int = 1, field: str = "complex") -> RingDescriptor:
    return RingDescriptor("laurent", m=m, field=field)


def matrix_ring(k: int, field: str = "complex") -> RingDescriptor:
    return RingDescriptor("matrix", k=k, field=field)


def product_ring(*factors: RingDescriptor) -> RingDescriptor:
    return RingDescriptor("product", factors=tuple(factors))


def _clean_poly(terms):
    out = {}
    for exps, c in terms.items():
        c = complex(c)
        if not abs(c) <= _COEFF_EPS:            # NaN too: no zero
            out[tuple(int(e) for e in exps)] = c
    return out


class RingValue:
    __slots__ = ("descriptor", "payload")

    def __init__(self, descriptor: RingDescriptor, payload):
        self.descriptor = descriptor
        self.payload = payload

    # -- constructors ------------------------------------------------------

    @staticmethod
    def unit(d: RingDescriptor) -> "RingValue":
        if d.kind == "complex":
            return RingValue(d, 1 + 0j)
        if d.kind == "real":
            return RingValue(d, 1.0)
        if d.kind == "laurent":
            return RingValue(d, {(0,) * d.m: 1 + 0j})
        if d.kind == "matrix":
            dt = complex if d.field == "complex" else float
            return RingValue(d, np.eye(d.k, dtype=dt))
        if d.kind == "quaternion":
            return RingValue(d, np.array([1.0, 0.0, 0.0, 0.0]))
        return RingValue(d, tuple(RingValue.unit(f) for f in d.factors))

    @staticmethod
    def zero(d: RingDescriptor) -> "RingValue":
        if d.kind == "complex":
            return RingValue(d, 0j)
        if d.kind == "real":
            return RingValue(d, 0.0)
        if d.kind == "laurent":
            return RingValue(d, {})
        if d.kind == "matrix":
            dt = complex if d.field == "complex" else float
            return RingValue(d, np.zeros((d.k, d.k), dtype=dt))
        if d.kind == "quaternion":
            return RingValue(d, np.zeros(4))
        return RingValue(d, tuple(RingValue.zero(f) for f in d.factors))

    @staticmethod
    def scalar(d: RingDescriptor, c) -> "RingValue":
        """c * 1_E for a python number c (real if the ring is real)."""
        if d.kind == "complex":
            return RingValue(d, complex(c))
        if d.kind == "real":
            if not abs(complex(c).imag) <= _COEFF_EPS:     # NaN too
                raise ValueError("complex scalar in a real ring")
            return RingValue(d, float(complex(c).real))
        return RingValue.unit(d).scale(c)

    @staticmethod
    def monomial(d: RingDescriptor, coeff, exps) -> "RingValue":
        if d.kind != "laurent":
            raise ValueError("monomial needs a laurent descriptor")
        exps = tuple(int(e) for e in exps)
        if len(exps) != d.m:
            raise ValueError("exponent vector length mismatch")
        return RingValue(d, _clean_poly({exps: complex(coeff)}))

    @staticmethod
    def poly(d: RingDescriptor, terms) -> "RingValue":
        if d.kind != "laurent":
            raise ValueError("poly needs a laurent descriptor")
        return RingValue(d, _clean_poly(terms))

    @staticmethod
    def mat(d: RingDescriptor, rows) -> "RingValue":
        if d.kind != "matrix":
            raise ValueError("mat needs a matrix descriptor")
        a = np.array(rows, dtype=complex)
        if a.shape != (d.k, d.k):
            raise ValueError("matrix shape mismatch")
        if d.field == "complex":
            return RingValue(d, a)
        if not (abs(a.imag) <= _COEFF_EPS).all():       # NaN too
            raise ValueError("complex scalar in a real ring")
        return RingValue(d, a.real.copy())

    @staticmethod
    def quaternion(coords) -> "RingValue":
        a = np.array(coords, dtype=float)
        if a.shape != (4,):
            raise ValueError("quaternion needs 4 real coordinates")
        return RingValue(QUATERNION, a)

    @staticmethod
    def tuple_value(d: RingDescriptor, comps) -> "RingValue":
        comps = tuple(comps)
        if d.kind != "product" or len(comps) != len(d.factors):
            raise ValueError("component count mismatch")
        return RingValue(d, comps)

    # -- arithmetic --------------------------------------------------------

    def _need_same(self, other: "RingValue"):
        if (self.descriptor is not other.descriptor
                and self.descriptor != other.descriptor):
            raise ValueError(
                f"descriptor mismatch: {self.descriptor} vs {other.descriptor}")

    def __add__(self, other: "RingValue") -> "RingValue":
        self._need_same(other)
        d = self.descriptor
        if d.kind in ("complex", "real"):
            return RingValue(d, self.payload + other.payload)
        if d.kind == "laurent":
            out = dict(self.payload)
            for e, c in other.payload.items():
                out[e] = out.get(e, 0j) + c
            return RingValue(d, _clean_poly(out))
        if d.kind in ("matrix", "quaternion"):
            return RingValue(d, self.payload + other.payload)
        return RingValue(d, tuple(a + b for a, b in zip(self.payload, other.payload)))

    def __neg__(self) -> "RingValue":
        d = self.descriptor
        if d.kind == "laurent":
            return RingValue(d, {e: -c for e, c in self.payload.items()})
        if d.kind == "product":
            return RingValue(d, tuple(-a for a in self.payload))
        return RingValue(d, -self.payload)

    def __sub__(self, other: "RingValue") -> "RingValue":
        return self + (-other)

    def __mul__(self, other: "RingValue") -> "RingValue":
        self._need_same(other)
        d = self.descriptor
        if d.kind in ("complex", "real"):
            return RingValue(d, self.payload * other.payload)
        if d.kind == "laurent":
            out = {}
            for e1, c1 in self.payload.items():
                for e2, c2 in other.payload.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, 0j) + c1 * c2
            return RingValue(d, _clean_poly(out))
        if d.kind == "matrix":
            return RingValue(d, self.payload @ other.payload)
        if d.kind == "quaternion":
            a1, b1, c1, d1 = self.payload
            a2, b2, c2, d2 = other.payload
            return RingValue(d, np.array([
                a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
            ]))
        return RingValue(d, tuple(a * b for a, b in zip(self.payload, other.payload)))

    def scale(self, c) -> "RingValue":
        """Multiply by a python number (real if the ring is real)."""
        d = self.descriptor
        c = complex(c)
        if d.is_real:
            if not abs(c.imag) <= _COEFF_EPS:              # NaN too
                raise ValueError("complex scale factor in a real ring")
            c = c.real
        if d.kind in ("complex", "real"):
            return RingValue(d, self.payload * c)
        if d.kind == "laurent":
            return RingValue(d, _clean_poly({e: v * c for e, v in self.payload.items()}))
        if d.kind in ("matrix", "quaternion"):
            with np.errstate(invalid="ignore"):    # 0 inf is NaN, as Python's
                return RingValue(d, self.payload * c)
        return RingValue(d, tuple(a.scale(c) for a in self.payload))

    def star(self) -> "RingValue":
        d = self.descriptor
        if d.kind == "complex":
            return RingValue(d, self.payload.conjugate())
        if d.kind == "real":
            return RingValue(d, self.payload)
        if d.kind == "laurent":
            out = {tuple(-x for x in e): c.conjugate()
                   for e, c in self.payload.items()}
            return RingValue(d, out)
        if d.kind == "matrix":
            return RingValue(d, self.payload.conj().T.copy())
        if d.kind == "quaternion":
            a, b, c, dd = self.payload
            return RingValue(d, np.array([a, -b, -c, -dd]))
        return RingValue(d, tuple(a.star() for a in self.payload))

    # -- predicates and norms ---------------------------------------------

    def close(self, other: "RingValue", tol: float = DEFAULT_TOL) -> bool:
        self._need_same(other)
        return (self - other).abs_bound() <= tol

    def abs_bound(self) -> float:
        """Max absolute value over payload entries (coefficientwise for
        Laurent; upper-bounds nothing but vanishes iff the value is ~0)."""
        d = self.descriptor
        if d.kind in ("complex", "real"):
            return abs(self.payload)
        if d.kind == "laurent":
            return max((abs(c) for c in self.payload.values()), default=0.0)
        if d.kind in ("matrix", "quaternion"):
            return float(np.max(np.abs(self.payload))) if self.payload.size else 0.0
        return float(np.max([a.abs_bound() for a in self.payload]))  # NaN wins

    def is_finite(self) -> bool:
        """Whether no number in the value is NaN or infinite."""
        d, p = self.descriptor, self.payload
        if d.kind in ("complex", "real"):
            return cmath.isfinite(p)
        if d.kind == "product":
            return all(a.is_finite() for a in p)
        return bool(np.isfinite(list(p.values()) if d.kind == "laurent"
                                else p).all())

    def is_zero(self, tol: float = DEFAULT_TOL) -> bool:
        return self.abs_bound() <= tol

    def is_unitary(self, tol: float = DEFAULT_TOL) -> bool:
        u = RingValue.unit(self.descriptor)
        s = self.star()
        return (self * s).close(u, tol) and (s * self).close(u, tol)

    def is_central(self, tol: float = DEFAULT_TOL) -> bool:
        d = self.descriptor
        if d.kind in ("complex", "real", "laurent"):
            return True
        if d.kind == "matrix":
            tr = np.trace(self.payload) / d.k
            return float(np.max(np.abs(self.payload - tr * np.eye(d.k)))) <= tol
        if d.kind == "quaternion":
            return float(np.max(np.abs(self.payload[1:]))) <= tol
        return all(a.is_central(tol) for a in self.payload)

    def norm(self, grid: int = DEFAULT_GRID) -> float:
        """The C*-norm, the largest factor's over products (NaN if one is
        NaN); over Laurent rings the maximum over the grid^m torus sample
        (norm._torus_samples with unit characters), a lower bound on the
        supremum over the torus."""
        d = self.descriptor
        if d.kind in ("complex", "real"):
            return abs(self.payload)
        if d.kind == "matrix":      # an SVD raises on NaN, reads NaN on inf
            if self.payload.size == 0 or not np.isfinite(self.payload).all():
                return self.abs_bound()
            return float(np.linalg.norm(self.payload.astype(complex), 2))
        if d.kind == "quaternion":
            return float(np.linalg.norm(self.payload))
        if d.kind == "laurent":
            from .norm import _torus_samples
            return float(np.max([np.abs(y).max() for y in _torus_samples(
                d, [self], np.ones(1), np.zeros((2, d.m), int), grid)]))
        return float(np.max([a.norm(grid) for a in self.payload]))  # NaN wins

    # -- laurent helpers ---------------------------------------------------

    def eval_at(self, point) -> complex:
        """Evaluate a Laurent value at a torus point (tuple of unit scalars)."""
        total = 0j
        for exps, c in self.payload.items():
            v = c
            for z, e in zip(point, exps):
                v *= z ** e
            total += v
        return total

    def is_monomial(self, tol: float = DEFAULT_TOL):
        """Return (coeff, exps) if the Laurent value is a single term."""
        if self.descriptor.kind != "laurent":
            return None
        terms = [(e, c) for e, c in self.payload.items() if not abs(c) <= tol]
        if len(terms) != 1:
            return None
        return terms[0][1], terms[0][0]

    # -- roots -------------------------------------------------------------

    def nth_root(self, n: int, tol: float = DEFAULT_TOL):
        """A unitary y with y^n = self, or None.

        Principal branch for scalar phases; Laurent roots only for unimodular
        monomials, by exponent division plus coefficient phase halving.
        A modulus or a central part counts as exact within tol.
        """
        d = self.descriptor
        if n == 1:
            return self
        if d.kind == "complex":
            c = self.payload
            if abs(abs(c) - 1) > tol:
                return None
            return RingValue(d, cmath.exp(1j * cmath.phase(c) / n))
        if d.kind == "real":
            c = self.payload
            if abs(c - 1) < tol:
                return RingValue(d, 1.0)
            if abs(c + 1) < tol and n % 2 == 1:
                return RingValue(d, -1.0)
            return None
        if d.kind == "laurent":
            mono = self.is_monomial(tol)
            if mono is None:
                return None
            c, exps = mono
            if abs(abs(c) - 1) > tol:
                return None
            if any(e % n for e in exps):
                return None
            root = cmath.exp(1j * cmath.phase(c) / n)
            return RingValue.monomial(d, root, tuple(e // n for e in exps))
        if d.kind == "matrix":
            if not self.is_central(tol):
                return None
            c = complex(np.trace(self.payload)) / d.k
            r = RingValue.scalar(COMPLEX if d.field == "complex" else REAL, 1)
            base = RingValue(COMPLEX if d.field == "complex" else REAL,
                             r.payload * c).nth_root(n, tol)
            if base is None:
                return None
            return RingValue.unit(d).scale(base.payload)
        if d.kind == "quaternion":
            if not self.is_central(tol):
                return None
            base = RingValue(REAL, float(self.payload[0])).nth_root(n, tol)
            if base is None:
                return None
            return RingValue.quaternion([base.payload, 0, 0, 0])
        comps = [a.nth_root(n, tol) for a in self.payload]
        if any(c is None for c in comps):
            return None
        return RingValue(d, tuple(comps))

    # -- misc --------------------------------------------------------------

    def __repr__(self):
        return f"RingValue({self.descriptor}, {self.payload!r})"

    def __eq__(self, other):
        return (isinstance(other, RingValue)
                and self.descriptor == other.descriptor
                and self.close(other, 0.0))

    def __hash__(self):
        raise TypeError("RingValue is not hashable")


def real_dim(d: RingDescriptor) -> int:
    """Dimension of E as a real vector space (finite kinds only)."""
    from .dense import basis_readouts
    return len(basis_readouts(d))


def real_basis(d: RingDescriptor):
    """A real basis of E as RingValues, read off dense.basis_readouts."""
    from .dense import basis_readouts, from_readout
    return from_readout(d, basis_readouts(d))
