"""Finite groups as dense multiplication tables.

Elements are indices 0..order-1 with the identity at index 0.  Orders are
capped so exhaustive (all-triples) checks stay cheap.
"""
from __future__ import annotations

import numpy as np

MAX_ORDER = 4096

# triples per block of an all-triples check, so peak memory is O(n^2 * B).
# A block of 2^16 complex triples (1 MiB an array) stays in cache: the
# order-256 scalar validate ran twice as fast as with 2^20.
TRIPLES_PER_BLOCK = 1 << 16


def row_blocks(n: int, row_size: int = None, budget: int = None):
    """Slices of consecutive rows of 0..n-1, about budget / row_size rows
    each (at least one), so an array of row_size entries per row holds
    about budget entries a block.  By default row_size is n^2 and budget
    is TRIPLES_PER_BLOCK: (rows, n, n) arrays."""
    step = max(1, (budget or TRIPLES_PER_BLOCK) // (row_size or n * n))
    for r0 in range(0, n, step):
        yield slice(r0, min(n, r0 + step))


class GroupTable:
    _gens = None        # a generating set, if known from construction
    _depth = None

    def __init__(self, mul, labels=None):
        """The group with multiplication table mul, proved a group by
        check(): the path of every table read from a config."""
        self._fill(mul, labels)
        self.inv = self._compute_inv()
        self.check()

    @classmethod
    def _by_construction(cls, mul, inv, labels, gens, depth=None):
        """A group built by a rule that makes it one (cyclic, subsets,
        direct products), with its inverse table, generators and depth:
        check()'s O(n^3) associativity proof is skipped."""
        g = cls.__new__(cls)
        g._fill(mul, labels)
        g.inv = inv
        g._gens, g._depth = gens, depth
        return g

    def _fill(self, mul, labels):
        mul = np.asarray(mul, dtype=np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValueError("mul must be a square table")
        n = mul.shape[0]
        if n < 1:
            raise ValueError("empty group")
        if n > MAX_ORDER:
            raise ValueError(f"group order {n} exceeds cap {MAX_ORDER}")
        self.order = n
        self.mul = mul
        self.identity = 0
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        if len(self.labels) != n:
            raise ValueError("label count mismatch")

    def _compute_inv(self):
        inv = np.full(self.order, -1, dtype=np.int64)
        for a in range(self.order):
            hits = np.nonzero(self.mul[a] == self.identity)[0]
            if len(hits) != 1 or self.mul[hits[0], a] != self.identity:
                raise ValueError(f"element {a} has no two-sided inverse")
            inv[a] = hits[0]
        return inv

    def check(self):
        """Exhaustive associativity / unit / inverse verification."""
        n = self.order
        if np.any(self.mul < 0) or np.any(self.mul >= n):
            raise ValueError("mul entries out of range")
        if (np.any(self.mul[self.identity] != np.arange(n))
                or np.any(self.mul[:, self.identity] != np.arange(n))):
            raise ValueError("index 0 is not a two-sided identity")
        # (ab)c == a(bc) over all triples, in blocks of rows a
        for rows in row_blocks(n):
            ab_c = self.mul[self.mul[rows]]           # [a,b,c] -> (ab)c
            a_bc = self.mul[rows][:, self.mul]        # [a,b,c] -> a(bc)
            if np.any(ab_c != a_bc):
                raise ValueError("mul is not associative")

    @property
    def generators(self) -> list:
        """Elements whose products give the whole group: the construction's
        generators, else a greedy set (each element in index order that the
        earlier ones do not generate), found once."""
        if self._gens is None:
            gens, reached = [], self._generated([])[0]
            for t in range(self.order):
                if not reached[t]:
                    gens.append(t)
                    reached = self._generated(gens)[0]
            self._gens = gens
        return self._gens

    @property
    def depth(self) -> int:
        """The longest shortest word over the generators (n - 1 on Z/n, k
        on the subsets of k labels), found once."""
        if self._depth is None:
            self._depth = self._generated(self.generators)[1]
        return self._depth

    def _generated(self, gens):
        """(mask of the products of gens, the identity the empty one, and
        their largest word length), grown breadth first."""
        reached = np.zeros(self.order, dtype=bool)
        reached[self.identity] = True
        frontier, depth = np.array([self.identity]), -1
        while len(frontier):
            before, depth = reached.copy(), depth + 1
            reached[self.mul[frontier][:, gens]] = True
            frontier = np.flatnonzero(reached & ~before)
        return reached, depth

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def power(self, t: int, k: int) -> int:
        """t^k for any integer k, as t^(k mod order) (Lagrange)."""
        acc = self.identity
        for _ in range(k % self.order):
            acc = self.op(acc, t)
        return acc

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"GroupTable(order={self.order})"


def make_cyclic(n: int) -> GroupTable:
    if n < 1:
        raise ValueError("cyclic group needs n >= 1")
    idx = np.arange(n)
    mul = (idx[:, None] + idx[None, :]) % n
    gens = [1] if n > 1 else []
    return GroupTable._by_construction(mul, -idx % n, None, gens, n - 1)


def direct_product(g: GroupTable, h: GroupTable) -> GroupTable:
    """Componentwise product; indexing is row-major (g-index major)."""
    ng, nh = g.order, h.order
    if ng * nh > MAX_ORDER:
        raise ValueError("product order exceeds cap")
    # (a1,b1)(a2,b2) = (a1 a2, b1 b2); index (a,b) -> a*nh + b
    ga = g.mul[:, None, :, None] * nh
    hb = h.mul[None, :, None, :]
    mul = (ga + hb).reshape(ng * nh, ng * nh)
    inv = (g.inv[:, None] * nh + h.inv[None, :]).reshape(-1)
    labels = [f"({la},{lb})" for la in g.labels for lb in h.labels]
    gens = [a * nh for a in g.generators] + list(h.generators)
    out = GroupTable._by_construction(mul, inv, labels, gens,
                                      g.depth + h.depth)
    out.factor_orders = (ng, nh)
    return out


def product_index(g: GroupTable, h: GroupTable, a: int, b: int) -> int:
    return a * h.order + b


class SubsetGroup(GroupTable):
    """All subsets of a totally ordered label list under symmetric
    difference.  Element index == bitmask; bit i <-> base_set[i]."""

    def __init__(self, base_set):
        base_set = list(base_set)
        if len(set(map(str, base_set))) != len(base_set):
            raise ValueError("duplicate labels in base set")
        n = len(base_set)
        if 2 ** n > MAX_ORDER:
            raise ValueError("subset group order exceeds cap")
        self.base_set = base_set
        idx = np.arange(2 ** n)
        mul = idx[:, None] ^ idx[None, :]
        self._fill(mul, [self._mask_label(m) for m in range(2 ** n)])
        self.inv = idx                  # every subset is its own inverse
        self._gens, self._depth = [1 << i for i in range(n)], n

    def _mask_label(self, mask: int) -> str:
        items = [str(self.base_set[i]) for i in range(len(self.base_set))
                 if mask >> i & 1]
        return "{" + ",".join(items) + "}"

    def element_of_labels(self, subset) -> int:
        mask = 0
        for lbl in subset:
            mask |= 1 << self.base_set.index(lbl)
        return mask

    def card(self, element: int) -> int:
        return int(element).bit_count()


def make_subset_group(base_set) -> SubsetGroup:
    return SubsetGroup(base_set)
