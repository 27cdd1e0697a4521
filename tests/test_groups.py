import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistalg import groups
from twistalg.groups import (GroupTable, MAX_ORDER, direct_product,
                             make_cyclic, make_subset_group, product_index,
                             row_blocks)


def test_cyclic_table_matches_modular_addition():
    for n in (1, 2, 5, 8):
        g = make_cyclic(n)
        for a in range(n):
            for b in range(n):
                assert g.op(a, b) == (a + b) % n


def test_identity_and_inverse():
    g = make_cyclic(7)
    for a in range(7):
        assert g.op(0, a) == a == g.op(a, 0)
        assert g.op(a, g.inverse(a)) == 0


def test_power():
    g = make_cyclic(5)
    assert g.power(2, 3) == 1
    assert g.power(2, 0) == 0
    assert g.power(2, -1) == 3
    # reduced mod the order first: no loop of 4 million steps
    assert g.power(2, 4 * 10**6 + 3) == 1
    assert g.power(2, -(4 * 10**6 + 1)) == 3


def test_non_associative_table_rejected():
    # a random latin-square-ish table that breaks associativity
    mul = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(ValueError):
        GroupTable(mul)


# the smallest non-associative loop: a two-sided identity, every element
# its own inverse, and (1*1)*2 = 2 but 1*(1*2) = 4
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def test_non_associative_loop_rejected_in_any_row_block(monkeypatch):
    with pytest.raises(ValueError, match="not associative"):
        GroupTable(LOOP5)
    monkeypatch.setattr(groups, "TRIPLES_PER_BLOCK", 1)     # one row a block
    with pytest.raises(ValueError, match="not associative"):
        GroupTable(LOOP5)


def test_row_blocks_cover_every_row_once():
    for n in (1, 7, 256, 1500):
        rows = np.concatenate([np.arange(n)[b] for b in row_blocks(n)])
        assert np.array_equal(rows, np.arange(n))
        sizes = {b.stop - b.start for b in row_blocks(n)}
        assert max(sizes) * n * n <= max(groups.TRIPLES_PER_BLOCK, n * n)


def test_group_check_memory_is_bounded():
    # (n, n, n) int64 arrays for n = 256 would take about 286 MB; a table
    # given as such is checked, unlike make_cyclic's
    mul = make_cyclic(256).mul
    tracemalloc.start()
    try:
        g = GroupTable(mul)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.op(200, 100) == 44
    assert peak <= 64 * 2 ** 20


def test_identity_not_at_zero_rejected():
    mul = [[1, 0], [0, 1]]
    with pytest.raises(ValueError):
        GroupTable(mul)


def test_order_cap():
    with pytest.raises(ValueError):
        GroupTable(np.zeros((MAX_ORDER + 1, MAX_ORDER + 1), dtype=int))


def test_direct_product_structure():
    g = direct_product(make_cyclic(2), make_cyclic(3))
    assert g.order == 6
    a = product_index(make_cyclic(2), make_cyclic(3), 1, 2)
    b = product_index(make_cyclic(2), make_cyclic(3), 1, 1)
    # (1,2)*(1,1) = (0,0)
    assert g.op(a, b) == 0
    assert g.labels[a] == "(1,2)"


def test_subset_group_is_xor():
    g = make_subset_group([1, 2, 3])
    assert g.order == 8
    for a in range(8):
        for b in range(8):
            assert g.op(a, b) == a ^ b
        assert g.inverse(a) == a
    assert g.labels[0] == "{}"
    assert g.labels[5] == "{1,3}"
    assert g.card(5) == 2
    assert g.element_of_labels([1, 3]) == 5


def test_subset_group_duplicate_labels():
    with pytest.raises(ValueError):
        make_subset_group([1, 1])


def test_subset_group_matches_z2_power():
    # bitmask pairing identifies subsets([1..n]) with the n-fold Z/2 product
    g = make_subset_group([1, 2])
    h = direct_product(make_cyclic(2), make_cyclic(2))
    # index (a,b) -> a*2+b vs bitmask b0=label1: reorder bits
    def to_h(mask):
        return (mask & 1) * 2 + (mask >> 1 & 1)
    for a in range(4):
        for b in range(4):
            assert to_h(g.op(a, b)) == h.op(to_h(a), to_h(b))


@settings(max_examples=50, deadline=None)
@given(st.integers(2, 12), st.data())
def test_cyclic_group_laws_random(n, data):
    g = make_cyclic(n)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert g.op(g.op(a, b), c) == g.op(a, g.op(b, c))
    assert g.op(g.inverse(a), a) == g.identity


def _constructed_groups():
    yield from (make_cyclic(n) for n in range(1, 65))
    yield from (make_subset_group(list("abcdef")[:k]) for k in range(7))
    small = [make_cyclic(n) for n in (1, 2, 3, 4, 6)] + [
        make_subset_group(list("ab")), make_subset_group(list("abc"))]
    for g in small:
        for h in small:
            yield direct_product(g, h)
    yield direct_product(direct_product(make_cyclic(2), make_cyclic(3)),
                         make_subset_group([1, 2]))
    yield direct_product(make_cyclic(64), make_subset_group(list("ab")))


def test_constructed_groups_pass_the_check():
    for g in _constructed_groups():
        g.check()
        assert np.array_equal(g.inv, g._compute_inv()), g


def test_constructed_groups_skip_the_check(monkeypatch):
    calls = []
    monkeypatch.setattr(GroupTable, "check", lambda self: calls.append(self))
    for g in _constructed_groups():
        pass
    assert calls == []
    GroupTable(make_cyclic(3).mul)
    assert len(calls) == 1


def word_lengths(g):
    """The shortest positive word over g.generators of every element, by a
    breadth-first search one element at a time."""
    lengths, frontier = {g.identity: 0}, [g.identity]
    while frontier:
        nxt = []
        for r in frontier:
            for s in g.generators:
                t = g.op(r, s)
                if t not in lengths:
                    lengths[t] = lengths[r] + 1
                    nxt.append(t)
        frontier = nxt
    return [lengths[t] for t in range(g.order)]


@pytest.mark.parametrize("g,depth", [
    (make_cyclic(1), 0),
    (make_cyclic(9), 8),                          # n - 1 on Z/n
    (GroupTable(make_cyclic(9).mul), 8),          # greedy generators
    (make_subset_group(["a", "b", "c", "d", "e"]), 5),   # k on 2^k
    (direct_product(make_cyclic(3), make_cyclic(4)), 5),
    (direct_product(make_subset_group([1, 2]), make_cyclic(5)), 6),
])
def test_depth_is_the_longest_shortest_word(g, depth):
    """GroupTable.depth, the word length cocycle._certified and
    dense.residual_bound induct over, is the largest shortest word over the
    generators, whether known by construction or found breadth first."""
    assert g.depth == depth == max(word_lengths(g))
