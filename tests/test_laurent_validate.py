"""validate over Laurent tables against the object path (_entry_checks
plus _cocycle_check) at every tol: the array path's residuals drop a
value of at most _COEFF_EPS as RingValue's sums drop such a term
(cocycle._dropped), so both name the same violations, below _COEFF_EPS
too; a product of modulus at most _COEFF_EPS, which only coefficients
below about 1e-7 (never unitary) make, is dropped as RingValue's product
drops it."""
import numpy as np
import pytest

from twistalg import (RingValue, SchurFunction, direct_product, laurent,
                      make_cyclic, make_f_alpha, validate)
from twistalg.cocycle import (ValidationReport, _cocycle_check,
                              _entry_checks, _monomial_f_alpha)
from twistalg.rings import _COEFF_EPS

TOLS = [1e-16, 5e-15, 1e-14, 1e-9]
GROUPS = [make_cyclic(2), make_cyclic(3), make_cyclic(4),
          direct_product(make_cyclic(2), make_cyclic(2))]
# 1 + k 1e-15: |k| up to 10 within _COEFF_EPS of 1, the rest beyond
KS = [1, 2, 4, 8, 10, 12, 16, 24]


def object_report(f, tol):
    rep = ValidationReport()
    _entry_checks(rep, f, tol)
    _cocycle_check(rep, f, tol)
    return rep


def same_violations(f, tol):
    got, want = validate(f, tol), object_report(f, tol)
    assert [v[:2] for v in got.violations] == [v[:2] for v in want.violations]
    for (_, _, a), (_, _, b) in zip(got.violations, want.violations):
        assert a == pytest.approx(b, rel=1e-12, abs=0)
    return got


def near_unit_table(g, d, rng):
    """Values u (1 + k 1e-15) z^e, u in {1, -1, i, -i} off the identity's
    row and column, k in +-KS or 0, e nonzero in about one entry in four."""
    n = g.order

    def value(s, t):
        k = rng.choice(KS) * rng.choice([-1, 1]) if rng.random() < .6 else 0
        u = [1, -1, 1j, -1j][rng.integers(4)] if s and t else 1
        e = (rng.integers(-1, 2, size=d.m) if rng.random() < .25
             else (0,) * d.m)
        return RingValue.monomial(d, u * (1 + k * 1e-15), e)
    return SchurFunction(g, d, [[value(s, t) for t in range(n)]
                                for s in range(n)])


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", [laurent(1), laurent(2)], ids=str)
def test_validate_names_the_object_paths_violations(d, tol):
    rng = np.random.default_rng([d.m, int(-np.log10(tol))])
    for i in range(40):
        same_violations(near_unit_table(GROUPS[i % 4], d, rng), tol)


def test_a_coefficient_within_the_drop_is_no_violation():
    """f(1, 1) = (1 + 2e-15) z^0 on Z/3, every other value 1: the object
    path drops the differences from 1 (2e-15, 4e-15), and so does
    validate, at tol 1e-16."""
    d = laurent(1)
    rows = [[RingValue.unit(d)] * 3 for _ in range(3)]
    rows[1][1] = RingValue.monomial(d, 1 + 2e-15, (0,))
    f = SchurFunction(make_cyclic(3), d, rows)
    assert 2e-15 < _COEFF_EPS and rows[1][1].is_unitary(1e-16)
    assert same_violations(f, 1e-16).ok


def test_make_f_alpha_refuses_with_the_object_paths_report():
    """alpha = (1 + 2e-15) z on Z/3 at tol 1e-16: one value, f(1, 2),
    breaks unitarity beyond the drop; make_f_alpha's message is the
    object path's report of its table."""
    d = laurent(1)
    a = RingValue.monomial(d, 1 + 2e-15, (1,))
    held = SchurFunction(make_cyclic(3), d,
                         _monomial_f_alpha(d, [RingValue.unit(d), a, a]))
    want = object_report(SchurFunction(held.group, d, held.values), 1e-16)
    assert [v[:2] for v in want.violations] == [("unitary", (1, 2))]
    with pytest.raises(ValueError) as err:
        make_f_alpha(3, [a, a], tol=1e-16)
    assert str(err.value) == f"make_f_alpha produced an invalid cocycle:\n{want}"


def small_coefficient_table(g, d, rng):
    """near_unit_table's values, about one in three scaled by 10^-k, k
    uniform in (7, 13.5): v v^* of each such value, and the product of two
    of them, is at most _COEFF_EPS."""
    f = near_unit_table(g, d, rng)
    return SchurFunction(g, d, [
        [v.scale(10 ** -rng.uniform(7, 13.5)) if rng.random() < 1 / 3 else v
         for v in row] for row in f.values])


@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("d", [laurent(1), laurent(2)], ids=str)
def test_small_coefficients_name_the_object_paths_violations(d, tol):
    rng = np.random.default_rng([d.m, int(-np.log10(tol)), 7])
    for i in range(40):
        same_violations(small_coefficient_table(GROUPS[i % 4], d, rng), tol)


def test_a_product_within_the_drop_reads_0():
    """Z/2 with f(1, 1) = 1e-8 z^0, every other value 1, at tol 1e-9: v v^*
    = 1e-16 is dropped, so the unitary residual is 1.0, on both paths; on
    Z/3 with f(1, 1) = f(2, 1) = 1e-8 the left side of (1, 1, 1) is
    dropped too, and its residual is the right side's 1e-8."""
    d = laurent(1)
    small = RingValue.monomial(d, 1e-8, (0,))
    rows = [[RingValue.unit(d)] * 2 for _ in range(2)]
    rows[1][1] = small
    got = same_violations(SchurFunction(make_cyclic(2), d, rows), 1e-9)
    assert got.violations == [("unitary", (1, 1), 1.0)]
    rows = [[RingValue.unit(d)] * 3 for _ in range(3)]
    rows[1][1] = rows[2][1] = small
    got = same_violations(SchurFunction(make_cyclic(3), d, rows), 1e-9)
    assert ("cocycle", (1, 1, 1), 1e-8) in got.violations
