"""Reference validate on b x b blocks: every value of a table over a finite
ring as its dense form (dense.value_blocks), products taken as b x b
arrays (dense._matmul, each complex product as four real ones) and
centrality checked one value at a time.  The tests hold validate on tables
held as their centre (one 1 x 1 form per centre factor) against it."""
import numpy as np

from twistalg.cocycle import ValidationReport
from twistalg.dense import _matmul, readout_columns, value_blocks
from twistalg.rings import RingValue


def _residual(lhs, rhs):
    """max |lhs - rhs| over the last two axes."""
    return np.abs(lhs - rhs).max((-2, -1))


def block_validate(f, tol: float = 1e-9) -> ValidationReport:
    """The checks and the order of validate's report: unit, normalization,
    unitary and central (by entry), inverse symmetry, then the cocycle
    identity on every triple."""
    g, d, e = f.group, f.descriptor, f.group.identity
    rep, n = ValidationReport(), g.order
    forms = value_blocks(d, f.values)
    b, cols = forms.shape[-1], readout_columns(d)
    y, one = forms[..., cols], np.eye(b)[:, cols]
    with np.errstate(invalid="ignore", over="ignore"):
        unit, v = RingValue.unit(d), f.values[e][e]
        if not v.close(unit, tol):
            rep.add("unit", (e, e), (v - unit).abs_bound())
        res = _residual(np.stack([y[:, e], y[e, :]], axis=1), one)
        for t, side in zip(*np.nonzero(~(res <= tol))):
            rep.add("normalization",
                    (int(t), e) if side == 0 else (e, int(t)), res[t, side])
        adj = forms.conj().swapaxes(-1, -2)
        res = _residual(_matmul(forms, adj[..., cols]), one)
        bad = ~(res <= tol) | ~(_residual(_matmul(adj, y), one) <= tol)
        for s in range(n):
            for t in range(n):
                if bad[s, t]:
                    rep.add("unitary", (s, t), res[s, t])
                if not f.values[s][t].is_central(tol):
                    rep.add("central", (s, t), 1.0)
        i = np.arange(n)
        res = _residual(y[i, g.inv], y[g.inv, i])
        for t in np.nonzero(~(res <= tol))[0]:
            rep.add("inverse-symmetry", (int(t), int(g.inv[t])), res[t])
        for r in range(n):
            lhs = _matmul(forms[r, :, None], y[g.mul[r]])    # f(r,s) f(rs,t)
            rhs = _matmul(forms[r, g.mul], y)                # f(r,st) f(s,t)
            res = _residual(lhs, rhs)
            for s, t in zip(*np.nonzero(res > tol)):
                rep.add("cocycle", (r, int(s), int(t)), res[s, t])
    return rep
