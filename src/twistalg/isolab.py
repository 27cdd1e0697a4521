"""Named isomorphisms between twisted algebras and concrete models.

A model is an algebra we can compute in: a twisted algebra, a corner
p S(f) p of one, a coefficient ring, k x k matrices over a model, a
complexification, a quaternion tensor, or a finite direct sum.  A morphism
from S(f) has one image per group element and acts E-linearly; over finite
coefficient rings it holds them as readouts, a stack per run of copies of a
summand.  The verifier measures unit, multiplicativity and star residuals,
and, since every V_s commutes with E, counts |image_s (b 1) - b image_s|
over a real basis b of E as a multiplicativity residual.  Over finite rings it
checks on the readouts and dense forms, and certifies bijectivity by the
real rank of the multiples b image_t against the target's real dimension
(for a corner, the real rank of p S(f) p).  Over Laurent rings every step
runs one model operation at a time.  clifford.universal_map refuses on
the generators' rows, which the morphism keeps for the verifier.  The
torus rewrites (z2n_torus_rewrite) substitute z -> z^2, so they are not
E-linear and have their own report, on coefficient and integer exponent
arrays.
"""
from __future__ import annotations

import cmath
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import groupby

import numpy as np

from .algebra import AlgebraElement, alg_mul, generator
from .cocycle import (KLEIN_A, KLEIN_B, KLEIN_C, Lambda, SchurFunction,
                      _frozen, _residual, coboundary, cocycle_mul,
                      klein_table, tensor_cocycle)
from .groups import direct_product, make_cyclic, make_subset_group, row_blocks
from .rings import (COMPLEX, DEFAULT_TOL, RingDescriptor, RingValue,
                    real_basis, real_dim)


# -- algebra models --------------------------------------------------------

class AlgebraModel:
    """Common interface: elements are opaque; all operations live here.

    A leaf model (RingModel, TwistedModel) defines zero, unit and its dense
    form; the arithmetic defaults to its elements' operators, slots to [a].
    A composite model defines the structure constants and layout of _Parts.

    Over finite coefficient rings each model also has a dense
    *-representation on (size, size) arrays (twistalg.dense, loaded on
    first use).  readout(elems), the one step from elements to arrays,
    stacks the columns that hold their slots, (N, size, cols), so the max
    |entry| of a readout difference is the model's diff; from_readout(y)
    inverts it bit for bit; dense(y) builds the dense forms from readouts,
    so dense(a) @ readout(b) is the readout of a b; star_readout(y) gives
    the stars' readouts.  Row i belongs to row i % b of the coefficient
    ring's dense form (b = dense.dense_size), and a ring value x acts on
    each group of b rows of a readout by its form, as in scale_left.  A
    DirectSumModel has no dense form; a morphism into it holds a readout
    stack per run of copies of a summand.  Laurent rings have only objects.
    """

    base: RingDescriptor

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def star(self, a):
        return a.star()

    def scale_left(self, x: RingValue, a):
        return x * a

    def slots(self, a):
        return [a]

    def diff(self, a, b) -> float:
        return max((x - y).abs_bound()
                   for x, y in zip(self.slots(a), self.slots(b)))

    def total_real_dim(self):
        if self.base.is_finite:
            return len(self.slots(self.unit())) * real_dim(self.base)

    @cached_property
    def unit_readout(self):
        """readout([unit()])[0], read-only."""
        return _frozen(self.readout([self.unit()])[0])


class RingModel(AlgebraModel):
    def __init__(self, descriptor: RingDescriptor):
        self.base = descriptor

    def zero(self):
        return RingValue.zero(self.base)

    def unit(self):
        return RingValue.unit(self.base)

    def dense(self, y):
        from .dense import readout_dense
        return readout_dense(self.base, y)

    def readout(self, elems):
        from .dense import readout_array
        return readout_array(self.base, elems)

    def from_readout(self, y):
        from .dense import from_readout
        return from_readout(self.base, y)

    def star_readout(self, y):
        from .dense import star_readout
        return star_readout(self.base, y)


class TwistedModel(AlgebraModel):
    def __init__(self, f: SchurFunction):
        self.f = f
        self.base = f.descriptor

    def zero(self):
        return AlgebraElement.zero(self.f)

    def unit(self):
        return generator(self.f, self.f.group.identity)

    def scale_left(self, x: RingValue, a):
        return a.scale_ring(x)

    def slots(self, a):
        return list(a.coeffs)

    def dense(self, y):
        """The regular representation, dense.regular_dense."""
        from .dense import readout_dense, regular_dense
        n = self.f.group.order
        xd = readout_dense(self.base, y.reshape(len(y), n, -1, y.shape[2]))
        return regular_dense(self.f.group, self.f._dense[0], xd)

    def readout(self, elems):
        from .dense import readout_array
        y = readout_array(self.base, [c for x in elems for c in x.coeffs])
        n, b, c = self.f.group.order, y.shape[1], y.shape[2]
        return y.reshape(len(elems), n * b, c)

    def from_readout(self, y):
        from .dense import from_readout
        n = self.f.group.order
        c = from_readout(self.base, y.reshape(len(y) * n, -1, y.shape[2]))
        return [AlgebraElement(self.f, c[i:i + n])
                for i in range(0, len(c), n)]

    def star_readout(self, y):
        from .dense import twisted_star
        n = self.f.group.order
        return twisted_star(self.f, y.reshape(len(y), n, -1, y.shape[2])
                            ).reshape(y.shape)


class CornerModel(TwistedModel):
    """The corner p S(f) p of a projection p in S(f), with unit p.  Its
    elements are those of S(f) of the form p x p, with the arithmetic and
    the dense form of S(f)."""

    def __init__(self, p: AlgebraElement):
        super().__init__(p.cocycle)
        self.p = p

    def unit(self):
        return self.p

    def total_real_dim(self):
        """The real rank of the elements p (b V_u) p, over every group
        element u and every b of a real basis of the coefficients."""
        if not self.base.is_finite:
            return None
        basis, p = real_basis(self.base), self.p
        elems = [alg_mul(alg_mul(p, generator(self.f, u).scale_ring(b)), p)
                 for u in range(self.f.group.order) for b in basis]
        y = self.readout(elems)
        return real_rank(flat_rows(y), y[0].size, self.base)


class _Parts(AlgebraModel):
    """A composite model: an element is a list of parts, part r in the
    model part_models[r], flattened by parts and rebuilt by whole.  Each
    subclass's __init__ sets: products, (p, q, r, sign) for a_p b_q times
    sign added to part r of a b in list order (the first term assigned);
    adjoints, (q, sign) per part r of a^*, sign a_q^*; units, the parts of
    the unit that are their model's unit, not zero.  Sums, negatives and
    scale_left act part by part.  With one inner model, readouts are its
    readouts of the parts, (N parts, m, w) by _part_readouts, joined by
    _join; star_readout places and signs their stars' as adjoints says."""

    def parts(self, a):
        return list(a)

    def whole(self, parts):
        return tuple(parts)

    def _map(self, op, *elems, lead=()):
        return self.whole([getattr(m, op)(*lead, *xs) for m, *xs in zip(
            self.part_models, *map(self.parts, elems))])

    def zero(self):
        return self._map("zero")

    def unit(self):
        return self.whole([m.unit() if r in self.units else m.zero()
                           for r, m in enumerate(self.part_models)])

    def add(self, a, b):
        return self._map("add", a, b)

    def neg(self, a):
        return self._map("neg", a)

    def mul(self, a, b):
        a, b = self.parts(a), self.parts(b)
        out = [None] * len(self.part_models)
        for p, q, r, sign in self.products:
            m = self.part_models[r]
            term = m.mul(a[p], b[q])
            if sign < 0:
                term = m.neg(term)
            out[r] = term if out[r] is None else m.add(out[r], term)
        return self.whole(out)

    def star(self, a):
        a = self.parts(a)
        return self.whole([m.star(a[q]) if sign > 0 else m.neg(m.star(a[q]))
                           for m, (q, sign) in zip(self.part_models,
                                                   self.adjoints)])

    def scale_left(self, x, a):
        return self._map("scale_left", a, lead=(x,))

    def slots(self, a):
        return [x for m, e in zip(self.part_models, self.parts(a))
                for x in m.slots(e)]

    def readout(self, elems):
        return self._join(self.inner.readout(
            [x for a in elems for x in self.parts(a)]))

    def from_readout(self, y):
        x = self.inner.from_readout(self._part_readouts(y))
        p = len(self.part_models)
        return [self.whole(x[i:i + p]) for i in range(0, len(x), p)]

    def star_readout(self, y):
        x = self.inner.star_readout(self._part_readouts(y))
        x = x.reshape((len(y), -1) + x.shape[1:])
        x = np.stack([x[:, q] if sign > 0 else -x[:, q]
                      for q, sign in self.adjoints], 1)
        return self._join(x.reshape((-1,) + x.shape[2:]))


class MatrixModel(_Parts):
    """k x k matrices with entries in an inner model."""

    def __init__(self, k: int, inner: AlgebraModel):
        _refuse_sum(inner)
        self.k, self.inner, self.base = k, inner, inner.base
        n = range(k)
        self.part_models = [inner] * (k * k)
        self.products = [(i * k + l, l * k + j, i * k + j, 1)
                         for i in n for j in n for l in n]
        self.adjoints = [(j * k + i, 1) for i in n for j in n]
        self.units = [i * k + i for i in n]

    def parts(self, a):
        return [e for row in a for e in row]

    def whole(self, parts):
        return [parts[i:i + self.k] for i in range(0, len(parts), self.k)]

    def _part_readouts(self, y):
        # block (i, j) of each readout, row-major
        k = self.k
        y = y.reshape(len(y), k, y.shape[1] // k, k, y.shape[2] // k)
        return y.transpose(0, 1, 3, 2, 4).reshape(-1, y.shape[2], y.shape[4])

    def _join(self, y):
        # entry (i, j) of each element becomes block (i, j)
        k, (m, w) = self.k, y.shape[1:]
        y = y.reshape(-1, k, k, m, w)
        return y.transpose(0, 1, 3, 2, 4).reshape(len(y), k * m, k * w)

    def dense(self, y):
        return self._join(self.inner.dense(self._part_readouts(y)))


class DirectSumModel(_Parts):
    def __init__(self, *models: AlgebraModel):
        if not models:
            raise ValueError("direct sum needs at least one summand")
        self.models = self.part_models = models
        self.base = models[0].base
        self.products = [(i, i, i, 1) for i in range(len(models))]
        self.adjoints = [(i, 1) for i in range(len(models))]
        self.units = range(len(models))

    def total_real_dim(self):
        dims = [m.total_real_dim() for m in self.models]
        return None if None in dims else sum(dims)


def _refuse_sum(inner: AlgebraModel):
    # M_k(A + B) = M_k(A) + M_k(B), and likewise for C (x) and H (x)
    if isinstance(inner, DirectSumModel):
        raise ValueError("a direct sum must be the outermost model")


def _split(target: AlgebraModel, images) -> list:
    """(model, [images' components in each summand]) per run of adjacent
    summands of a direct sum target that are one model object, nested sums
    flattened; [(target, [images])] for any other model."""
    if not isinstance(target, DirectSumModel):
        return [(target, [images])]
    runs = [run for i, mod in enumerate(target.models)
            for run in _split(mod, [im[i] for im in images])]
    return [(mod, [ims for _, run in group for ims in run])
            for mod, group in groupby(runs, lambda run: run[0])]


def _nest(target: AlgebraModel, parts):
    """_split inverted, parts an iterator over each summand's images."""
    if not isinstance(target, DirectSumModel):
        return next(parts)
    return list(zip(*(_nest(mod, parts) for mod in target.models)))


# structure constants of the units 1, i of C and 1, i, j, k of H:
# table[p][q] = (r, sign) for e_p e_q = sign e_r
_CMUL = [
    [(0, 1), (1, 1)],
    [(1, 1), (0, -1)],
]
_QMUL = [
    [(0, 1), (1, 1), (2, 1), (3, 1)],
    [(1, 1), (0, -1), (3, 1), (2, -1)],
    [(2, 1), (3, -1), (0, -1), (1, 1)],
    [(3, 1), (2, 1), (1, -1), (0, -1)],
]


class HypercomplexModel(_Parts):
    """A (x) E for A = C or H and a real inner model E: tuples
    (x_0, ..., x_{d-1}) representing sum_p e_p x_p over the units e_p of A,
    multiplied by the subclass's unit table.  Every unit but e_0 = 1 is
    imaginary, e_p^* = -e_p."""

    table = None             # the unit table, _CMUL or _QMUL
    name = None              # the construction, for error messages

    def __init__(self, inner: AlgebraModel):
        _refuse_sum(inner)
        if not inner.base.is_real:
            raise ValueError(f"{self.name} needs a real inner model")
        self.inner, self.base = inner, inner.base
        self.part_models = [inner] * len(self.table)
        self.products = [(p, q, r, sign) for p, row in enumerate(self.table)
                         for q, (r, sign) in enumerate(row)]
        self.adjoints = [(p, -1 if p else 1) for p in range(len(self.table))]
        self.units = [0]

    def _part_readouts(self, y):        # X_0, ..., X_{d-1}, stacked
        return y.reshape(-1, y.shape[1] // len(self.table), y.shape[2])

    def _join(self, y):
        # column block 0 of the dense form: X_0, ..., X_{d-1} stacked
        return y.reshape(-1, len(self.table) * y.shape[1], y.shape[2])

    def dense(self, y):
        """sum_p L(e_p) (x) X_p, where L(e_p)[r, q] = sign for
        table[p][q] = (r, sign) is left multiplication by the unit e_p;
        for C this is [[A, -B], [B, A]]."""
        x = self.inner.dense(self._part_readouts(y))  # part p of a at a d + p
        d, m = len(self.table), x.shape[1]
        out = np.zeros((len(y), d * m, d * m), dtype=x.dtype)
        for p, q, r, sign in self.products:
            out[:, r * m:(r + 1) * m, q * m:(q + 1) * m] = \
                x[p::d] if sign > 0 else -x[p::d]
        return out


class ComplexifiedModel(HypercomplexModel):
    """Pairs (a, b) representing a + ib over a real inner model."""

    table, name = _CMUL, "complexification"


class QuaternionTensorModel(HypercomplexModel):
    """4-tuples (x0, x1, x2, x3) representing x0 + i x1 + j x2 + k x3 with
    components in a real inner model (H tensor E)."""

    table, name = _QMUL, "quaternion tensor"


# -- flattening and rank ---------------------------------------------------

def flat_rows(y) -> np.ndarray:
    """One real row per readout of a stack y (..., size, cols): its
    entries, the real parts and then the imaginary parts side by side."""
    rows = y.reshape(y.shape[:-2] + (-1,))
    if np.iscomplexobj(rows):
        return np.concatenate([rows.real, rows.imag], -1)
    return rows


def real_rank(rows, entries: int, d: RingDescriptor) -> int:
    """matrix_rank of rows, flat_rows of readouts with this many entries of
    ring d, with numpy's default threshold for the values' real_dim(d)
    real coordinates each, not the rows' width (a readout of a product
    ring also holds zeros off its factors' blocks)."""
    from .dense import dense_size, readout_columns
    cols = entries // (dense_size(d) * len(readout_columns(d))) * real_dim(d)
    sv = np.linalg.svd(rows, compute_uv=False)
    return int((sv > sv.max() * max(len(rows), cols)
                * np.finfo(float).eps).sum())


# -- morphisms -------------------------------------------------------------

@dataclass
class MorphismReport:
    unit_residual: float
    mult_residual: float
    star_residual: float
    source_dim: int
    image_rank: int
    target_dim: object       # int or None (infinite-dimensional target)
    injective: object        # bool or None
    surjective: object       # bool or None
    rows: str = "all"        # "generators": mult_residual is over S only,
    residual_bound: object = None   # and this bounds every row's residuals

    def ok(self, tol: float = DEFAULT_TOL) -> bool:
        return (self.unit_residual <= tol and self.mult_residual <= tol
                and self.star_residual <= tol
                and (self.residual_bound is None
                     or self.residual_bound <= tol))

    def bijective(self, tol: float = DEFAULT_TOL) -> bool:
        return (self.ok(tol) and self.injective is True
                and self.surjective is True)

    def to_dict(self):
        return asdict(self)


class Morphism:
    """An E-linear map S(f) -> target determined by generator images, a
    value: over finite rings a read-only readout stack (K, n, size, cols) per
    run of K copies of a summand of the target (_split), derived once from
    the images or given as stacks, whose images are built when first read."""

    def __init__(self, source: SchurFunction, target: AlgebraModel,
                 images=None, stacks=None):
        self.source, self.target = source, target
        self._images = None if stacks is not None else tuple(images)
        if stacks is not None:
            runs = _split(target, [])
            if [np.shape(y) for y in stacks] != [
                    (len(run), source.group.order) + mod.unit_readout.shape
                    for mod, run in runs]:
                raise ValueError("need one readout stack (K, n, size, cols) "
                                 "per run of K copies of a summand")
            self._summands = [(mod, _frozen(y)) for (mod, _), y in
                              zip(runs, stacks)]
        elif len(self._images) != source.group.order:
            raise ValueError("need one image per group element")

    @property
    def images(self) -> tuple:
        if self._images is None:
            self._images = tuple(_nest(self.target, iter([
                mod.from_readout(z) for mod, y in self._summands for z in y])))
        return self._images

    @cached_property
    def _summands(self):
        """(model, readouts) per run of the target (_split); None over
        Laurent rings."""
        if self.source.descriptor.is_finite:
            return [(mod, _frozen(np.stack([mod.readout(x) for x in run])))
                    for mod, run in _split(self.target, self._images)]

    @cached_property
    def _generator_rows(self):
        """dense.dense_residuals on the source group's generators' rows
        (over Laurent rings the object loop's, star None), taken once."""
        gens = self.source.group.generators
        if self._summands is None:
            return _object_rows(self, gens) + (None,)
        from .dense import dense_residuals
        return dense_residuals(self.source, self._summands, gens)

    def apply(self, x: AlgebraElement):
        acc = self.target.zero()
        for t, c in enumerate(x.coeffs):
            if not c.is_zero(0.0):
                acc = self.target.add(acc,
                                      self.target.scale_left(c, self.images[t]))
        return acc


def verify_morphism(m: Morphism, tol: float = DEFAULT_TOL) -> MorphismReport:
    """Unit, multiplicativity and star residuals, and over finite
    coefficient rings the rank certificate of finite images (image_rank is
    -1 for others, whose residuals refuse the map).  mult_residual covers
    the pairs (V_s, V_t) and (V_s, b V_1) over a real basis b of E: S(f)
    acts on E (x) l^2(T) with E on the coefficients, so every V_s commutes
    with E, and a map whose images do not is no *-homomorphism.  Where
    dense.residual_bound proves a bijective map's residuals within tol from
    the rows of the generators S, only they are multiplied (rows
    "generators"); else, and where S + {e} is over half the rows, all."""
    if m._summands is None:
        return MorphismReport(*object_residuals(m), -1, -1, None, None, None)
    from .dense import (VERIFY_ENTRIES, _act, basis_readouts, dense_residuals,
                        readout_dense, residual_bound)
    f, g = m.source, m.source.group
    # the rows b image_t over a real basis b of E, summand by summand
    basis = readout_dense(f.descriptor, basis_readouts(f.descriptor))
    rows = np.hstack([flat_rows(np.moveaxis(_act(basis, y[:, :, None]), 0, 2)
                                ).reshape(g.order * len(basis), -1)
                      for _, y in m._summands])
    source_dim = g.order * len(basis)
    target_dim = m.target.total_real_dim()
    rank = (real_rank(rows, sum(y[:, 0].size for _, y in m._summands),
                      f.descriptor) if np.isfinite(rows).all() else -1)
    # a full check in one block takes as many array operations as S's rows
    entries = max(g.order * (y[:, 0].size * (g.order + len(basis)) + len(y)
                             * y.shape[2] ** 2) for _, y in m._summands)
    bound = (residual_bound(m) if rank == source_dim == target_dim
             and 2 + 2 * len(g.generators) <= g.order
             and entries > VERIFY_ENTRIES else np.nan)
    if bound <= tol:
        checked, (unit_res, res, star) = "generators", m._generator_rows
    else:
        checked, bound = "all", None
        unit_res, res, star = dense_residuals(f, m._summands)
    return MorphismReport(
        unit_res, float(res[:, :2].max()), star, source_dim, rank,
        target_dim, None if rank < 0 else rank == source_dim,
        None if rank < 0 or target_dim is None else rank == target_dim,
        checked, bound)


def object_residuals(m: Morphism):
    """(unit, product and commutation, star) residuals, one model operation
    at a time: the check over rings with no finite real dimension, and the
    reference that dense.dense_residuals reproduces."""
    unit_res, res = _object_rows(m, range(m.source.group.order))
    return unit_res, float(res[:, :2].max()), float(res[:, 2].max())


def _object_rows(m: Morphism, rows):
    f, g, tgt = m.source, m.source.group, m.target
    basis = real_basis(f.descriptor) if f.descriptor.is_finite else []
    scalars = [(b, tgt.scale_left(b, tgt.unit())) for b in basis]
    out = np.zeros((len(rows), 3))
    for i, s in enumerate(rows):
        x = m.images[s]
        out[i, 0] = max(tgt.diff(tgt.mul(x, m.images[t]), tgt.scale_left(
            f.values[s][t], m.images[g.op(s, t)])) for t in range(g.order))
        out[i, 1] = max((tgt.diff(tgt.mul(x, b1), tgt.scale_left(b, x))
                         for b, b1 in scalars), default=0.0)
        out[i, 2] = tgt.diff(tgt.star(x), tgt.scale_left(
            f.tilde(s), m.images[g.inverse(s)]))
    return tgt.diff(m.images[g.identity], tgt.unit()), out


def identity_morphism(f: SchurFunction) -> Morphism:
    return Morphism(f, TwistedModel(f),
                    [generator(f, t) for t in range(f.group.order)])


def extend_generator_images(f: SchurFunction, gen_images: dict,
                            target: AlgebraModel) -> Morphism:
    """Complete a partial image assignment to all of T by writing each
    element as a product of the given generators (breadth-first, t first
    reached as r s), image_t = f(r,s)^* image_r image_s.  Over finite rings
    a frontier is one batched product on readouts (in blocks of rows), over
    Laurent rings one model product at a time."""
    g, gens, finite = f.group, list(gen_images), f.descriptor.is_finite
    given = {g.identity: target.unit(), **gen_images}
    images, levels, frontier = dict(given), [], sorted(given)
    while frontier:
        levels.append([])
        for r in frontier:
            for s in gens:
                t = g.op(r, s)
                if t not in images:
                    images[t] = None if finite else target.scale_left(
                        f.values[r][s].star(),
                        target.mul(images[r], images[s]))
                    levels[-1].append((t, r, s))
        frontier = [t for t, _, _ in levels[-1]]
    if len(images) < g.order:
        raise ValueError("given generators do not generate the group")
    if not finite:
        return Morphism(f, target, [images[t] for t in range(g.order)])
    from .dense import VERIFY_ENTRIES, _act, _flat, _matmul
    fstar = f._dense[0].conj().swapaxes(-1, -2)
    stacks = []
    for mod, run in _split(target, list(given.values())):
        known = np.stack([mod.readout(ims) for ims in run])
        y = np.empty((len(known), g.order) + known.shape[2:], known.dtype)
        y[:, list(given)] = known
        for t, r, s in (np.array(level).T for level in levels if level):
            for b in row_blocks(len(t), len(y) * y.shape[2] ** 2,
                                VERIFY_ENTRIES):
                y[:, t[b]] = _act(fstar[r[b], s[b]], _matmul(
                    _flat(mod.dense, y[:, r[b]]), y[:, s[b]]))
        stacks.append(y)
    return Morphism(f, target, stacks=stacks)


def _copies(f: SchurFunction, units, coeffs) -> Morphism:
    """The map onto len(coeffs) copies of E whose image_t has component k
    coeffs[k, t] units[t]: signs by negation, complex numbers by four real
    products each, as RingValue.scale multiplies a scalar."""
    e, scale = RingModel(f.descriptor), np.iscomplexobj(coeffs)
    target = DirectSumModel(*([e] * len(coeffs)))
    if not f.descriptor.is_finite:
        return Morphism(f, target, [tuple(
            u.scale(c) if scale else -u if c < 0 else u for c in col)
            for u, col in zip(units, coeffs.T)])
    from .dense import _products
    y, c = e.readout(units), coeffs[..., None, None]
    return Morphism(f, target, stacks=[_products(y, c) if scale else np.where(
        c < 0, e.readout([-u for u in units]), y)])


# -- coefficientwise S-isomorphism -----------------------------------------

def lambda_isomorphism(f: SchurFunction, lam: Lambda) -> Morphism:
    """X -> (lambda(t)^* X_t)_t from S(f) onto S(f delta-lambda)."""
    g2 = cocycle_mul(f, coboundary(lam))
    target = TwistedModel(g2)
    images = [generator(g2, t).scale_ring(lam.value(t).star())
              for t in range(f.group.order)]
    return Morphism(f, target, images)


# -- order-2 group ---------------------------------------------------------

def z2_split(f: SchurFunction, x: RingValue = None,
             tol: float = DEFAULT_TOL) -> Morphism:
    """X -> (X_0 + x X_1, X_0 - x X_1) for central unitary x with
    x^2 = f(1,1)."""
    if f.group.order != 2:
        raise ValueError("z2_split needs a group of order 2")
    x = _root(f.values[1][1], 2, x, tol,
              "no central unitary square root of f(1,1)", "x^2 != f(1,1)")
    return _copies(f, [RingValue.unit(f.descriptor), x],
                   np.array([[1.0, 1.0], [1.0, -1.0]]))


def z2_complexify(f: SchurFunction, tol: float = DEFAULT_TOL) -> Morphism:
    """Real f with f(1,1) = -1: X -> X_0 + i X_1 in the complexification."""
    if f.group.order != 2:
        raise ValueError("z2_complexify needs a group of order 2")
    if not f.descriptor.is_real:
        raise ValueError("z2_complexify needs a real coefficient ring")
    unit = RingValue.unit(f.descriptor)
    if not f.values[1][1].close(-unit, tol):
        raise ValueError("z2_complexify needs f(1,1) = -1")
    inner = RingModel(f.descriptor)
    target = ComplexifiedModel(inner)
    images = [target.unit(), (inner.zero(), inner.unit())]
    return Morphism(f, target, images)


# -- Klein four-group ------------------------------------------------------

def _root(c: RingValue, k: int, x, tol, missing: str, wrong: str):
    """x, by default c's central unitary k-th root (else refused with the
    text missing), refused with the text wrong unless x^k is tol-close to c."""
    if x is None:
        x = c.nth_root(k, tol)
        if x is None:
            raise ValueError(missing)
    xk = RingValue.unit(c.descriptor)
    for _ in range(k):
        xk = xk * x
    if not xk.close(c, tol):
        raise ValueError(wrong)
    return x


def _klein_roots(x, y, sq_a, sq_b, tol):
    """Resolve roots x, y with x^2 = sq_a, y^2 = sq_b."""
    return (_root(sq_a, 2, x, tol, "no central unitary root for x",
                  "root hypothesis x^2 violated"),
            _root(sq_b, 2, y, tol, "no central unitary root for y",
                  "root hypothesis y^2 violated"))


def _klein_map(f: SchurFunction, target: AlgebraModel, a, b, c) -> Morphism:
    """The map onto target with V_0, V_a, V_b, V_c -> 1, a, b, c."""
    images = {0: target.unit(), KLEIN_A: a, KLEIN_B: b, KLEIN_C: c}
    return Morphism(f, target, [images[t] for t in range(4)])


def klein_split4(alpha, beta, gamma, x=None, y=None,
                 tol: float = DEFAULT_TOL) -> Morphism:
    """eps = 1 case: X -> (X_0 + l x X_a + m y X_b + l m z X_c) over the
    four sign patterns (l, m), with x^2 = beta gamma, y^2 = alpha gamma,
    z = x y gamma^*."""
    unit = RingValue.unit(alpha.descriptor)
    f = klein_table(alpha, beta, gamma, unit, tol=tol)
    x, y = _klein_roots(x, y, beta * gamma, alpha * gamma, tol)
    z = x * y * gamma.star()
    l, m = np.array([1.0, 1, -1, -1]), np.array([1.0, -1, 1, -1])
    cols = {0: (unit, l * l), KLEIN_A: (x, l), KLEIN_B: (y, m),
            KLEIN_C: (z, l * m)}
    units, signs = zip(*(cols[t] for t in range(4)))
    return _copies(f, units, np.array(signs).T)


def klein_complex_pair(alpha, beta, gamma, variant: int = 1, x=None, y=None,
                       tol: float = DEFAULT_TOL) -> Morphism:
    """Real eps = 1 case onto two copies of the complexification.

    variant 1: x^2 = -beta gamma, y^2 = alpha gamma,
        X -> (X_0 + i x X_a + y X_b + i z X_c,
              X_0 + i x X_a - y X_b - i z X_c);
    variant 2: x^2 = -beta gamma, y^2 = -alpha gamma,
        X -> (X_0 + i x X_a + i y X_b - z X_c,
              X_0 + i x X_a - i y X_b + z X_c);
    in both cases z = x y gamma^*.
    """
    if variant not in (1, 2):
        raise ValueError("klein_complex_pair needs variant 1 or 2")
    if not alpha.descriptor.is_real:
        raise ValueError("klein_complex_pair needs a real coefficient ring")
    unit = RingValue.unit(alpha.descriptor)
    f = klein_table(alpha, beta, gamma, unit, tol=tol)
    sq_b = alpha * gamma if variant == 1 else -(alpha * gamma)
    x, y = _klein_roots(x, y, -(beta * gamma), sq_b, tol)
    z = x * y * gamma.star()
    inner = RingModel(f.descriptor)
    comp = ComplexifiedModel(inner)
    target = DirectSumModel(comp, comp)
    zero = inner.zero()
    if variant == 1:
        b, c = ((y, zero), (-y, zero)), ((zero, z), (zero, -z))
    else:
        b, c = ((zero, y), (zero, -y)), ((-z, zero), (z, zero))
    return _klein_map(f, target, ((zero, x), (zero, x)), b, c)


def klein_quaternion(alpha, beta, gamma, x=None, y=None,
                     tol: float = DEFAULT_TOL) -> Morphism:
    """Real eps = -1 case onto H tensor E: X -> X_0 + i x X_a + j y X_b +
    k z X_c with x^2 = -beta gamma, y^2 = alpha gamma, z = x y gamma^*."""
    if not alpha.descriptor.is_real:
        raise ValueError("klein_quaternion needs a real coefficient ring")
    unit = RingValue.unit(alpha.descriptor)
    f = klein_table(alpha, beta, gamma, -unit, tol=tol)
    x, y = _klein_roots(x, y, -(beta * gamma), alpha * gamma, tol)
    z = x * y * gamma.star()
    inner = RingModel(f.descriptor)
    target = QuaternionTensorModel(inner)
    zero = inner.zero()
    return _klein_map(f, target, (zero, x, zero, zero), (zero, zero, y, zero),
                      (zero, zero, zero, z))


def klein_matrix(alpha, beta, gamma, x=None, y=None,
                 tol: float = DEFAULT_TOL) -> Morphism:
    """eps = -1 case onto 2 x 2 matrices over E:

        X -> [[X_0 + x X_a,            alpha (y X_b + z X_c)],
              [-gamma y^* X_b + beta z^* X_c,   X_0 - x X_a]]

    with x^2 = beta gamma, y any central unitary (default 1), and
    z = gamma^* x y.  The projection (1/2)(V_1 + x^* V_a) maps to the
    upper-left matrix unit.
    """
    unit = RingValue.unit(alpha.descriptor)
    f = klein_table(alpha, beta, gamma, -unit, tol=tol)
    x = _root(beta * gamma, 2, x, tol, "no central unitary root for x",
              "root hypothesis x^2 = beta gamma violated")
    if y is None:
        y = unit
    if not y.is_unitary(tol) or not y.is_central(tol):
        raise ValueError("y must be central unitary")
    z = gamma.star() * x * y
    inner = RingModel(f.descriptor)
    target = MatrixModel(2, inner)
    zero = inner.zero()
    return _klein_map(f, target, [[x, zero], [zero, -x]],
                      [[zero, alpha * y], [-(gamma * y.star()), zero]],
                      [[zero, alpha * z], [beta * z.star(), zero]])


# -- characters of (Z/2)^n -------------------------------------------------

def char_decompose_z2n(f: SchurFunction, tol: float = DEFAULT_TOL) -> Morphism:
    """For the constant cocycle on a group of exponent 2 (indices acting by
    XOR), X -> (sum_s <t,s> X_s)_t with <t,s> = (-1)^{popcount(t & s)}."""
    g = f.group
    n = g.order
    idx = np.arange(n)
    if not np.array_equal(g.mul, idx[:, None] ^ idx[None, :]):
        raise ValueError("group indices must compose by XOR")
    unit = RingValue.unit(f.descriptor)
    if not _constant(f, unit, tol):
        raise ValueError("character decomposition needs the constant "
                         "cocycle")
    return _copies(f, [unit] * n, np.array([
        [-1.0 if (t & s).bit_count() % 2 else 1.0 for s in range(n)]
        for t in range(n)]))


def _constant(f: SchurFunction, unit: RingValue, tol: float) -> bool:
    """Whether every value of f is close (RingValue.close) to unit: on the
    array form of the table (f._arrays) as validate's normalization check
    reads it (cocycle._residual), else one value at a time.  Any NaN
    fails."""
    if f._arrays is None:
        return all(v.close(unit, tol) for row in f.values for v in row)
    forms, exps, cols = f._arrays[:3]
    return bool((_residual(forms[..., cols].copy(), exps, np.eye(
        forms.shape[-1])[:, cols], exps[0, 0] * 0) <= tol).all())


# -- cyclic decomposition over C -------------------------------------------

def cyclic_decompose(f: SchurFunction, alphas, beta: RingValue = None,
                     tol: float = DEFAULT_TOL) -> Morphism:
    """For f = f_alpha on Z/n over a complex ring, the map
    X -> (w_k X)_{k} with

        w_k X = sum_{j=1}^{n} beta^j (prod_{l<j} alpha_l^*) e^{2 pi i jk/n} X_j

    (j = n standing for the identity) where beta^n = prod_j alpha_j."""
    if _has_real_factor(f.descriptor):
        raise ValueError("cyclic_decompose needs a complex coefficient ring")
    g = f.group
    n = g.order
    alphas = list(alphas)
    if len(alphas) != n - 1:
        raise ValueError("parameter count mismatch")
    unit = RingValue.unit(f.descriptor)
    prod = unit
    for a in alphas:
        prod = prod * a
    beta = _root(prod, n, beta, tol,
                 "no central unitary n-th root of prod alpha",
                 "beta^n != prod alpha")
    # coefficient in front of X_j, independent of k
    pref, acc, bpow = [], unit, unit
    for j in range(1, n + 1):
        bpow = bpow * beta
        pref.append(bpow * acc)                   # beta^j prod_{l<j} alpha_l^*
        if j <= n - 1:
            acc = acc * alphas[j - 1].star()
    # V_j has group index t = j % n
    phases = np.array([[cmath.exp(2j * cmath.pi * (t or n) * k / n)
                        for t in range(n)] for k in range(n)])
    return _copies(f, pref[-1:] + pref[:-1], phases)


def _has_real_factor(d: RingDescriptor) -> bool:
    return d.is_real or any(map(_has_real_factor, d.factors))


# -- tensor structure ------------------------------------------------------

def tensor_structure_check(f: SchurFunction, g: SchurFunction,
                           tol: float = DEFAULT_TOL):
    """(h = f (x) g, worst).  matrix(V^h_{(t,s)}) = matrix(V^f_t) (x)
    matrix(V^g_s) exactly when h's group is the row-major product ((t,s) at
    t |T_g| + s; else worst is inf) and h((t1,s1),(t2,s2)) equals
    f(t1,t2) (x) g(s1,s2), whose largest residual is worst."""
    from .cocycle import _tensor_descriptor
    h = tensor_cocycle(f, g, tol=tol)
    _, comb = _tensor_descriptor(f.descriptor, g.descriptor)
    t, s = np.divmod(np.arange(h.group.order), g.group.order)
    layout = (f.group.mul[np.ix_(t, t)] * g.group.order
              + g.group.mul[np.ix_(s, s)])
    if not np.array_equal(h.group.mul, layout):
        return h, float("inf")
    t, s = t.tolist(), s.tolist()
    worst = max((hv - comb(f.values[t1][t2], g.values[s1][s2])).abs_bound()
                for t1, s1, row in zip(t, s, h.values)
                for t2, s2, hv in zip(t, s, row))
    return h, worst


# -- Laurent substitution rewrites -----------------------------------------

@dataclass
class SubstitutionReport:
    mult_residual: float
    star_residual: float
    pairs_checked: int
    injective: bool

    def ok(self, tol: float = 0.0) -> bool:
        return (self.mult_residual <= tol and self.star_residual <= tol
                and self.injective)


def z2n_torus_rewrite(n: int, degree: int = 4, max_pairs: int = None,
                      seed: int = 0) -> SubstitutionReport:
    """Exact verification that X -> sum_I lambda_I(z) X_I(z^2) is an
    injective *-homomorphism for the cocycle f(I,J) = lambda_{I cap J}
    on the subsets of {1..n} over Laurent polynomials in n variables.

    Checked on the monomial basis z^e V_I with all |e_i| <= degree (I
    major, then e in itertools.product order): all basis pairs when
    max_pairs is None or at least their number, otherwise a deterministic
    sample of max_pairs pairs.  Basis elements, their products, stars and
    images are all monomials, Phi(c z^a V_K) = c z^(1_K + 2a) with 1_K the
    exponent of lambda_K, so the check runs on coefficient and integer
    exponent arrays, at most 8,192 pairs at a time.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if degree < 0:
        raise ValueError(f"degree must be >= 0, got {degree}")
    if max_pairs is not None and max_pairs < 1:
        raise ValueError(f"max_pairs must be >= 1, got {max_pairs}")
    g = make_subset_group(list(range(1, n + 1)))
    bits = (np.arange(g.order)[:, None] >> np.arange(n)) & 1
    # the table f(I, J) = z^(1_{I & J}) as coefficients and exponents
    fc = np.ones((g.order, g.order, 1, 1), dtype=complex)
    fexp = bits[np.arange(g.order)[:, None] & np.arange(g.order)]
    side = 2 * degree + 1
    label = np.repeat(np.arange(g.order), side ** n)
    e = np.tile(np.indices((side,) * n).reshape(n, -1).T - degree,
                (g.order, 1))
    img = bits[label] + 2 * e
    nb = len(label)

    # (z^e V_I)^* = f(I^-1, I)^* z^-e V_(I^-1), against Phi(z^e V_I)^*
    inv = g.inv[label]
    star_res = float(_residual(
        fc[inv, label].conj(), bits[inv] - 2 * (fexp[inv, label] + e),
        1.0, -img).max())
    injective = len(set(map(tuple, img.tolist()))) == nb

    def mult_residual(i, j):
        # z^(e_i) V_I z^(e_j) V_J = f(I,J) z^(e_i + e_j) V_IJ
        s, t = label[i], label[j]
        lhs = bits[g.mul[s, t]] + 2 * (fexp[s, t] + e[i] + e[j])
        return float(_residual(fc[s, t], lhs, 1.0, img[i] + img[j]).max())

    from .dense import BLOCK_ENTRIES
    if max_pairs is None or nb * nb <= max_pairs:
        checked = nb * nb
        blocks = ((np.arange(rows.start, rows.stop)[:, None], np.arange(nb))
                  for rows in row_blocks(nb, nb, BLOCK_ENTRIES))
    else:
        rng = np.random.default_rng(seed)
        ii = rng.integers(0, nb, max_pairs)
        jj = rng.integers(0, nb, max_pairs)
        checked = max_pairs
        blocks = ((ii[b], jj[b])
                  for b in row_blocks(max_pairs, 1, BLOCK_ENTRIES))
    mult_res = max(mult_residual(i, j) for i, j in blocks)
    return SubstitutionReport(mult_res, star_res, checked, injective)


def laurent_z2_rewrite(degree: int = 4, max_pairs: int = None,
                       seed: int = 0) -> SubstitutionReport:
    """The one-variable case: f(1,1) = z on Z/2 and
    X -> X_0(z^2) + z X_1(z^2)."""
    return z2n_torus_rewrite(1, degree=degree, max_pairs=max_pairs, seed=seed)


# -- the Z/2 x Z/4 instance ------------------------------------------------

def _z2z4_table(descriptor: RingDescriptor, negative) -> SchurFunction:
    """The order-8 sign table on Z/2 x Z/4 with f((j,p),(k,q)) = -1
    exactly where negative(j, p, k) holds, else 1."""
    g = direct_product(make_cyclic(2), make_cyclic(4))
    unit = RingValue.unit(descriptor)
    vals = [[-unit if negative(*divmod(s, 4), t // 4) else unit
             for t in range(8)] for s in range(8)]
    return SchurFunction(g, descriptor, vals)


def z2z4_cocycle(descriptor: RingDescriptor = COMPLEX) -> SchurFunction:
    """The displayed order-8 table on Z/2 x Z/4 with parameters
    alpha = beta = gamma = 1, delta = -1: f((j,p),(k,q)) = -1 exactly when
    k = 1 and the row is one of (0,1), (0,2), (0,3), (1,0).  Note that this
    table violates the cocycle identity (see z2z4_corrected_cocycle for the
    multiplicative repair); it is kept verbatim for the record."""
    return _z2z4_table(descriptor, lambda j, p, k: k == 1 and (
        (j == 0 and p != 0) or (j, p) == (1, 0)))


def z2z4_corrected_cocycle(descriptor: RingDescriptor = COMPLEX
                           ) -> SchurFunction:
    """The bicharacter f((j,p),(k,q)) = (-1)^((j+p)k) on Z/2 x Z/4: the
    sign pattern of z2z4_cocycle with the non-multiplicative condition
    "p != 0" replaced by "p odd", which restores the cocycle identity.
    The resulting algebra splits as two copies of the 2 x 2 matrices."""
    return _z2z4_table(descriptor, lambda j, p, k: (j + p) * k % 2)


def z2z4_decompose(tol: float = DEFAULT_TOL) -> Morphism:
    """The displayed decomposition of the order-8 instance into 2 x 2
    matrices over E plus four scalar functionals:

        Z -> ([[Z_0 + Z_(1,2), Z_(1,0) - Z_(0,2)],
               [Z_(1,0) + Z_(0,2), Z_0 - Z_(1,2)]],
              (phi_{j,k} Z)_{j,k})

    with phi_{j,k} Z = Z_0 + (-1)^j Z_(0,2) + i^j Z_(k,1) - i^j Z_(k,3).
    """
    inner = RingModel(COMPLEX)
    target = DirectSumModel(MatrixModel(2, inner), inner, inner, inner, inner)
    mats = np.zeros((8, 2, 2), dtype=complex)       # Z_(k,q) at 4 k + q
    mats[[0, 6, 4, 2]] = [[[1, 0], [0, 1]], [[1, 0], [0, -1]],
                          [[0, 1], [1, 0]], [[0, -1], [1, 0]]]
    phi = np.array([[1, 1, 1, -1, 0, 0, 0, 0],      # phi_{j,k} in row 2 j + k
                    [1, 0, 1, 0, 0, 1, 0, -1],
                    [1, 1j, -1, -1j, 0, 0, 0, 0],
                    [1, 0, -1, 0, 0, 1j, 0, -1j]])
    return Morphism(z2z4_cocycle(COMPLEX), target,
                    stacks=[mats[None], phi[..., None, None]])
