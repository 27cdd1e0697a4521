"""Reference arithmetic of the twisted group algebra, one RingValue at a
time: the object loops of alg_mul and alg_star, which src/ keeps only for
Laurent rings, and which the tests hold the readout products of every
finite ring (dense.twisted_mul, dense.twisted_star) against.  They read
the table through SchurFunction.value, so an array-held table stays an
array."""
from twistalg import RingValue


def reference_alg_mul(x, y) -> list:
    """(XY)_t = sum_s f(s, s^{-1}t) X_s Y_{s^{-1}t}, each sum taken from zero
    over s in ascending order; terms with X_s = 0 or Y_{s^{-1}t} = 0 (exact
    zeros: NaN is no zero) are left out."""
    f, g = x.cocycle, x.cocycle.group
    out = [RingValue.zero(f.descriptor)] * g.order
    for s in range(g.order):
        xs = x.coeffs[s]
        if xs.is_zero(0.0):
            continue
        for t in range(g.order):
            u = g.op(g.inverse(s), t)
            yu = y.coeffs[u]
            if not yu.is_zero(0.0):
                out[t] = out[t] + f.value(s, u) * xs * yu
    return out


def reference_alg_star(x) -> list:
    """(X^*)_t = tilde f(t) (X_{t^{-1}})^*."""
    f, g = x.cocycle, x.cocycle.group
    return [f.tilde(t) * x.coeffs[g.inverse(t)].star()
            for t in range(g.order)]
