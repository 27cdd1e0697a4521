"""Reference arithmetic on matrices of ring values, as lists of rows of
RingValue: the plain definitions that tests hold the library's regular
representation and sparse conjugation against."""
from twistalg import RingValue


def rmat_mul(a, b):
    """a b, each entry summed from zero in the order of the inner index."""
    rows, inner, cols = len(a), len(b), len(b[0])
    d = a[0][0].descriptor
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = RingValue.zero(d)
            for l in range(inner):
                acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(row)
    return out


def rmat_adjoint(a):
    return [[a[j][i].star() for j in range(len(a))]
            for i in range(len(a[0]))]


def rmat_residual(a, b) -> float:
    return max((x - y).abs_bound()
               for ra, rb in zip(a, b) for x, y in zip(ra, rb))
