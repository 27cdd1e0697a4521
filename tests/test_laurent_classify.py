"""equivalent_cyclic on the terms of Laurent monomials against the loop of
RingValue products it was (rcyclic.reference_equivalent_cyclic): the same
witness reprs, None on the same inputs and the same exceptions, over
complex and real Laurent rings in one to three variables."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcyclic import reference_equivalent_cyclic
from twistalg.cocycle import Lambda, equivalent_cyclic
from twistalg.rings import _COEFF_EPS, COMPLEX, RingValue, laurent

RINGS = [laurent(1), laurent(2), laurent(3), laurent(1, "real"),
         laurent(2, "real")]
UNITS = [1, -1, 1j, -1j, complex(-1, -0.0), complex(-0.0, 1),
         complex(1, -0.0), complex(-0.0, -1)]
REAL_UNITS = [1, -1, complex(-1, -0.0), complex(1, -0.0)]


def outcome(alphas, betas, d, tol=1e-9, fn=equivalent_cyclic):
    """The witness reprs, None, or the exception's type and message."""
    try:
        out = fn(alphas, betas, d, tol)
    except Exception as exc:          # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)
    if isinstance(out, Lambda):
        out = out.values
    return None if out is None else [repr(v) for v in out]


def same(alphas, betas, d, tol=1e-9):
    got = outcome(alphas, betas, d, tol)
    assert got == outcome(alphas, betas, d, tol,
                          reference_equivalent_cyclic)
    return got


def monomials(rng, d, k, exps=None, coeffs=None):
    """k monomials c z^e: unit coefficients (phases, or exact units whose
    zero parts carry a sign) and exponents in -2..2 unless given."""
    units = REAL_UNITS if d.is_real else UNITS
    if coeffs is None:
        coeffs = ([units[i] for i in rng.integers(len(units), size=k)]
                  if rng.random() < 0.5 or d.is_real
                  else np.exp(2j * np.pi * rng.random(k)))
    if exps is None:
        exps = rng.integers(-2, 3, size=(k, d.m))
    return [RingValue.monomial(d, c, e) for c, e in zip(coeffs, exps)]


def planted(rng, d, n, shift):
    """alpha, beta on Z/n whose total exponents differ by shift."""
    alphas = monomials(rng, d, n - 1)
    exps = rng.integers(-2, 3, size=(n - 1, d.m))
    total = sum(np.array(list(a.payload)[0]) for a in alphas)
    exps[-1] = total - exps[:-1].sum(axis=0) - shift
    return alphas, monomials(rng, d, n - 1, exps=exps)


@pytest.mark.parametrize("d", RINGS, ids=str)
@pytest.mark.parametrize("n", [2, 3, 16])
def test_planted_classes_give_the_reference_witnesses(d, n):
    rng = np.random.default_rng([n, d.m, d.is_real])
    for k in range(6):
        shift = np.zeros(d.m, dtype=int)
        shift[k % d.m] = n * (k - 2)
        alphas, betas = planted(rng, d, n, shift)
        got = same(alphas, betas, d)
        assert isinstance(got, list) and len(got) == n
        shift[k % d.m] += 1 + k % (n - 1) if n > 2 else 1
        assert same(*planted(rng, d, n, shift), d) is None


@pytest.mark.parametrize("d", RINGS + [COMPLEX], ids=str)
def test_the_trivial_group_has_the_unit_witness(d):
    unit = repr(RingValue.unit(d))
    assert same([], [], d) == [unit]
    with pytest.raises(ValueError, match="descriptor required"):
        equivalent_cyclic([], [])


def test_signed_zeros_are_summed_from_zero():
    """Every product starts from 0j, so a -0.0 part of a parameter becomes
    0.0 in the witness, as RingValue.__mul__ makes it."""
    d = laurent(2)
    alphas = [RingValue.monomial(d, complex(-0.0, 1), (1, 0)),
              RingValue.monomial(d, complex(-1, -0.0), (0, -1))]
    betas = [RingValue.monomial(d, complex(1, -0.0), (1, 0)),
             RingValue.monomial(d, complex(-0.0, -1), (0, -1))]
    got = same(alphas, betas, d)
    assert got is not None and "-0.0" not in "".join(got[1:])


def test_non_unimodular_parameters():
    d = laurent(1)
    one = RingValue.monomial(d, 1, (0,))
    # prod unimodular, lambda(2) = gamma^2 alpha_1^* beta_1 is not
    alphas = [RingValue.monomial(d, 2, (1,)), RingValue.monomial(d, 0.5, (2,))]
    got = same(alphas, [one, one], d)
    assert got == (ValueError, "lambda(2) is not unitary")
    # prod itself off the unit circle: no root
    assert same([alphas[0], one], [one, one], d) is None


def test_a_two_term_parameter_takes_ring_value_products(monkeypatch):
    d = laurent(2)
    rng = np.random.default_rng(5)
    alphas, betas = planted(rng, d, 5, np.zeros(2, dtype=int))
    alphas[2] = RingValue.poly(d, {(1, 0): 1j, (0, 3): 1e-12})
    want = outcome(alphas, betas, d, fn=reference_equivalent_cyclic)
    products, mul = [], RingValue.__mul__
    monkeypatch.setattr(RingValue, "__mul__",
                        lambda *a: products.append(1) or mul(*a))
    assert outcome(alphas, betas, d) == want
    assert products


def test_monomials_make_no_ring_value_product(monkeypatch):
    d = laurent(2)
    alphas, betas = planted(np.random.default_rng(6), d, 16,
                            np.array([16, -32]))
    want = outcome(alphas, betas, d, fn=reference_equivalent_cyclic)

    def refused(*args):
        raise AssertionError("a RingValue product")

    monkeypatch.setattr(RingValue, "__mul__", refused)
    assert outcome(alphas, betas, d) == want
    assert isinstance(want, list)


@pytest.mark.parametrize("scale", [1e-7, 1e-7 * (1 + 2 ** -52),
                                   1e-7 * (1 - 2 ** -52), 9.9e-8, 1.01e-7,
                                   3e-8, 1e-14, 1.0000000000000002e-14,
                                   5e-15])
def test_coefficients_near_the_dropping_threshold(scale):
    """A product of modulus at most _COEFF_EPS drops its term: the
    RingValue loop then decides, whichever step drops it."""
    d = laurent(1)
    small, big = (RingValue.monomial(d, c, (1,)) for c in (scale, 1 / scale))
    one = RingValue.monomial(d, 1j, (0,))
    for alphas, betas in [([small, one], [small, one]),
                          ([small, big], [one, one]),
                          ([one, small, big], [small, one, big]),
                          ([small], [small.scale(1 / scale ** 2)])]:
        same(alphas, betas, d)
        same(alphas, betas, d, tol=0.5)
    assert _COEFF_EPS == 1e-14


def test_descriptor_mismatches_raise_as_before():
    d, other = laurent(1), laurent(2)
    a = RingValue.monomial(d, 1j, (2,))
    for alphas, betas in [([a, RingValue.monomial(other, 1, (0, 1))], [a, a]),
                          ([a, a], [a, RingValue.unit(COMPLEX)])]:
        got = same(alphas, betas, d)
        assert got[0] is ValueError and "descriptor mismatch" in got[1]
    assert same([a], [a, a], d) == (
        ValueError, "parameter vectors must have equal length")


UNIT_LIKE = (st.sampled_from(UNITS)
             | st.floats(-np.pi, np.pi).map(lambda t: complex(np.exp(1j * t)))
             | st.sampled_from([1 + 1e-12, 1 - 1e-15, 1e-7, 2.0, 0.5,
                                complex("nan+1j"), complex("inf-0j")]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(RINGS), st.integers(1, 6), st.data(),
       st.sampled_from([1e-15, 1e-9, 1e-3]))
def test_any_monomial_parameters_give_the_reference_outcome(d, n, data, tol):
    exps = st.lists(st.integers(-3, 3), min_size=d.m, max_size=d.m)
    alphas, betas = ([RingValue.monomial(d, data.draw(UNIT_LIKE),
                                         data.draw(exps))
                      for _ in range(n - 1)] for _ in range(2))
    same(alphas, betas, d, tol)
