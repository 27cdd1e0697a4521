"""Small group tables shared by the tests."""
import itertools

from twistalg import GroupTable


def _table(elements, op):
    """The group of elements (identity first) under op, as a GroupTable."""
    index = {x: i for i, x in enumerate(elements)}
    return GroupTable([[index[op(a, b)] for b in elements] for a in elements])


def _compose(a, b):
    return tuple(a[i] for i in b)


def _quaternion(a, b):
    """Product of unit quaternions (w, x, y, z) with entries in {-1, 0, 1}."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


PERMS = list(itertools.permutations(range(3)))        # identity first
# the symmetric group S_3, a o b at (a, b): the smallest non-abelian group
S3 = _table(PERMS, _compose)
S4 = _table(list(itertools.permutations(range(4))), _compose)
# the quaternion group {+-1, +-i, +-j, +-k}
_UNITS = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
Q8 = _table(_UNITS + [tuple(-c for c in u) for u in _UNITS], _quaternion)
# the dihedral group of order 32: (a, b) is the rotation by a, then b flips
D16 = _table([(a, b) for b in (0, 1) for a in range(16)],
             lambda x, y: ((x[0] + (-1) ** x[1] * y[0]) % 16, x[1] ^ y[1]))

NON_ABELIAN = {"S3": S3, "Q8": Q8, "S4": S4, "D16": D16}
