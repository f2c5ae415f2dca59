"""Exact coefficient ring: examples and ring-axiom property tests."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from kappahopf.errors import DivisionByZeroError, ParameterError
from kappahopf.scalars import GaussianRational, Scalar


def ih(hbar=0, kappa=0, c=0):
    return Scalar.term(0, 1, hbar=hbar, kappa=kappa, c=c)


def test_additive_inverse():
    a = ih(hbar=1)  # i hbar
    assert (a + -a).is_zero


def test_like_terms_combine():
    half = Scalar.term(Fraction(1, 2), 0, hbar=1, kappa=-1, c=-1)
    assert half + half == Scalar.term(1, 0, hbar=1, kappa=-1, c=-1)


def test_gaussian_addition_on_same_monomial():
    assert ih(hbar=1) + Scalar.term(1, 0, hbar=1) == Scalar.term(1, 1, hbar=1)


def test_i_squared():
    assert Scalar.i() * Scalar.i() == Scalar.rational(-1)


def test_exponent_cancellation():
    a = Scalar.term(1, 0, hbar=1, kappa=-1, c=-1)
    b = Scalar.term(1, 0, kappa=1, c=1)
    assert a * b == Scalar.term(1, 0, hbar=1)


def test_hand_arithmetic_product():
    # (-i hbar / kappa c) * (i/2) = hbar / (2 kappa c)
    a = Scalar.term(0, -1, hbar=1, kappa=-1, c=-1)
    b = Scalar.term(0, Fraction(1, 2))
    assert a * b == Scalar.term(Fraction(1, 2), 0, hbar=1, kappa=-1, c=-1)


def test_to_complex_examples():
    assert Scalar.term(1, 0, hbar=1).to_complex(1.0, 2.0, 3.0) == 1.0 + 0.0j
    assert ih(hbar=1, kappa=-1).to_complex(1.0, 2.0, 3.0) == 0.0 + 0.5j
    # rational-to-float oracle: (1+i)/3 at any values
    third = Scalar.term(Fraction(1, 3), Fraction(1, 3))
    val = third.to_complex(0.9, 7.7, 2.2)
    expected = complex(float(Fraction(1, 3)), float(Fraction(1, 3)))
    assert val == expected


def test_to_complex_rejects_nonpositive_constants():
    with pytest.raises(ParameterError):
        Scalar.one().to_complex(0.0, 1.0, 1.0)
    with pytest.raises(ParameterError):
        Scalar.one().to_complex(1.0, -2.0, 1.0)


def test_inverse_of_single_term():
    a = Scalar.term(0, -2, hbar=1, kappa=-1)
    assert a * a.inverse() == Scalar.one()
    with pytest.raises(ZeroDivisionError):
        (Scalar.one() + Scalar.term(1, 0, hbar=1)).inverse()


def test_inverse_of_zero_is_typed():
    with pytest.raises(DivisionByZeroError, match="division by zero"):
        Scalar.zero().inverse()
    with pytest.raises(DivisionByZeroError):
        GaussianRational.of(0, 0).inverse()


def test_canonical_form():
    reducible = Scalar.term(Fraction(2, 4), 0, hbar=1)
    reduced = Scalar.term(Fraction(1, 2), 0, hbar=1)
    assert reducible == reduced and hash(reducible) == hash(reduced)
    # a sum over a common denominator of 6 reduces to halves
    summed = Scalar.rational(1, 6) + Scalar.rational(1, 3)
    assert summed == Scalar.rational(1, 2)
    assert hash(summed) == hash(Scalar.rational(1, 2))
    assert summed.render() == "1/2"


def test_multi_addend_arithmetic():
    # -i kappa c + i hbar, built in the other order, keeps both addends in
    # exponent-triple order
    a = ih(hbar=1) + Scalar.term(0, -1, kappa=1, c=1)
    b = Scalar.rational(1, 2) + Scalar.term(1, 0, hbar=1)  # 1/2 + hbar
    assert len(a) == 2 and len(b) == 2
    assert [t for t, _ in a.items()] == [(0, 1, 1), (1, 0, 0)]
    assert [g for _, g in a.items()] == [GaussianRational.of(0, -1), GaussianRational.of(0, 1)]
    assert a.render() == "-i kappa c + i hbar"
    assert (-a).render() == "i kappa c - i hbar"
    assert (a + b).render() == "1/2 - i kappa c + hbar + i hbar"
    assert (a - b).render() == "-1/2 - i kappa c - hbar + i hbar"
    assert a - ih(hbar=1) == Scalar.term(0, -1, kappa=1, c=1)
    assert (a - a).is_zero and (a + -a).is_zero
    square = a * a  # three addends: -kappa^2 c^2 + 2 hbar kappa c - hbar^2
    assert [(t, g) for t, g in square.items()] == [
        ((0, 2, 2), GaussianRational.of(-1)),
        ((1, 1, 1), GaussianRational.of(2)),
        ((2, 0, 0), GaussianRational.of(-1)),
    ]
    assert square.render() == "-kappa^2 c^2 + 2 hbar kappa c - hbar^2"
    assert (a * b).render() == "-1/2 i kappa c + 1/2 i hbar - i hbar kappa c + i hbar^2"
    assert len(a * b) == 4
    # exact in floats: -15i + 2i, and -7.5i + i - 30i + 4i
    assert a.to_complex(2.0, 3.0, 5.0) == -13j
    assert (a * b).to_complex(2.0, 3.0, 5.0) == -32.5j
    assert square.to_complex(2.0, 3.0, 5.0) == -(15.0 - 2.0) ** 2
    kappa_ih = Scalar.term(1, 0, kappa=1) + ih(hbar=1)
    kappa_mih = Scalar.term(1, 0, kappa=1) - ih(hbar=1)
    assert (kappa_ih * kappa_mih).render() == "kappa^2 + hbar^2"


def test_gaussian_inverse():
    g = GaussianRational.of(Fraction(3, 2), Fraction(-1, 2))
    assert g * g.inverse() == GaussianRational.of(1, 0)


# -- randomized ring axioms ----------------------------------------------------

small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=4
)
gaussians = st.builds(GaussianRational.of, small_fracs, small_fracs)
triples = st.tuples(
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)
)
scalars = st.dictionaries(triples, gaussians, max_size=3).map(Scalar)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a - a).is_zero
    assert a * Scalar.one() == a
    assert (a * Scalar.zero()).is_zero


@given(scalars)
def test_canonicalization_idempotent(a):
    again = Scalar(dict(a.items()))
    assert again == a
    assert all(not g.is_zero for _, g in a.items())


def _assert_canonical(s):
    """Six ints per addend, strictly increasing triples, den > 0, coprime
    ints and no zero addend."""
    store = s._store
    assert len(store) % 6 == 0 and len(s) == len(store) // 6
    triples = [store[i : i + 3] for i in range(0, len(store), 6)]
    assert triples == sorted(set(triples))
    for i in range(0, len(store), 6):
        re, im, den = store[i + 3 : i + 6]
        assert den > 0 and (re or im) and gcd(re, im, den) == 1


@given(scalars, scalars, scalars)
def test_equal_values_have_equal_stores(a, b, c):
    """Values built along different paths have one store and one hash."""
    pairs = [
        (a + b, b + a),
        ((a * b) * c, a * (b * c)),
        ((a + b) + c, a + (b + c)),
        (a - b, -(b - a)),
        (Scalar(dict(a.items())), a),
        (Scalar(dict(reversed(a.items()))), a),
    ]
    for x, y in pairs:
        assert x._store == y._store and hash(x) == hash(y)
    for s in (a, b, a + b, a - b, -a, a * b, (a * b) * c, a * (b + c)):
        _assert_canonical(s)


def _abs_addends(s, vals):
    """Sum of |t| over the float addends t that `to_complex` adds up for s."""
    return sum(abs(Scalar({triple: g}).to_complex(*vals)) for triple, g in s.items())


@given(scalars, scalars)
@settings(max_examples=60)
# cancels in a * b: |fprod - fa*fb| = 4.7e-14 here, above 1e-14 * |fa*fb|
@example(
    a=Scalar.rational(2) - Scalar.term(1, 0, kappa=2),
    b=Scalar.term(2, Fraction(5, 2), hbar=-2, kappa=1, c=1)
    - Scalar.term(2, Fraction(5, 2), hbar=2, kappa=2, c=2),
)
def test_to_complex_is_ring_homomorphism(a, b):
    """Error bound, with u = 2^-53.  Each float addend of `to_complex` takes
    roundings worth at most 10u (three powers of up to 2u each, two products,
    a division and a scaling), and a sum of n <= 9 addends adds (n - 1)u times
    S, the sum of their absolute values; with sqrt(2) for the two complex
    components, |to_complex(s) - s| <= 30u S(s).  The addends of a + b and of
    a * b are those of a and b and sums of their products, so S(a + b) <=
    S(a) + S(b) and S(a * b) <= S(a) S(b); the sum then differs from fa + fb
    by at most 61u (S(a) + S(b)) and the product from fa * fb by at most
    93u S(a) S(b).  Under cancellation |fa * fb| is far below S(a) S(b), so a
    bound relative to it is not valid; 128u leaves a margin over these
    first-order sums."""
    vals = (0.7, 2.3, 1.9)
    tol = 2.0**-46
    fa, fb = a.to_complex(*vals), b.to_complex(*vals)
    sa, sb = _abs_addends(a, vals), _abs_addends(b, vals)
    fsum = (a + b).to_complex(*vals)
    fprod = (a * b).to_complex(*vals)
    assert abs(fsum - (fa + fb)) <= tol * (sa + sb)
    assert abs(fprod - fa * fb) <= tol * sa * sb


def test_render_round_trip_shapes():
    cases = {
        Scalar.term(0, -1, hbar=1, kappa=-1, c=-1): "-i hbar kappa^-1 c^-1",
        Scalar.one(): "1",
        Scalar.rational(-3, 2): "-3/2",
        Scalar.term(Fraction(1, 2), Fraction(1, 2)): "1/2 + 1/2 i",
        Scalar.term(1, 0, hbar=2, c=-1): "hbar^2 c^-1",
        Scalar.term(Fraction(1, 2), Fraction(1, 3)): "1/2 + 1/3 i",
        Scalar.term(0, Fraction(-2, 3), hbar=1): "-2/3 i hbar",
    }
    for scalar, text in cases.items():
        assert scalar.render() == text


# -- oracle: the int-backed ring against GaussianRational arithmetic on items() --


def _ref(a):
    return dict(a.items())


def _ref_add(x, y):
    out = dict(x)
    for t, g in y.items():
        out[t] = out[t] + g if t in out else g
    return {t: g for t, g in out.items() if not g.is_zero}


def _ref_mul(x, y):
    out = {}
    for t1, g1 in x.items():
        for t2, g2 in y.items():
            t = tuple(e1 + e2 for e1, e2 in zip(t1, t2))
            out[t] = out[t] + g1 * g2 if t in out else g1 * g2
    return {t: g for t, g in out.items() if not g.is_zero}


def _ref_to_complex(x, hbar, kappa, c):
    total = 0j
    for (eh, ek, ec), g in sorted(x.items()):
        mag = hbar**eh * kappa**ek * c**ec
        total += complex(float(g.re) * mag, float(g.im) * mag)
    return total


def _ref_render(x):
    pieces = []
    for triple in sorted(x):
        powers = " ".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(("hbar", "kappa", "c"), triple)
            if e
        )
        for part, imaginary in ((x[triple].re, False), (x[triple].im, True)):
            if not part:
                continue
            factors = []
            if abs(part) != 1 or (not imaginary and not powers):
                factors.append(str(abs(part)))
            if imaginary:
                factors.append("i")
            if powers:
                factors.append(powers)
            pieces.append(("-" if part < 0 else "") + " ".join(factors))
    if not pieces:
        return "0"
    out = pieces[0]
    for piece in pieces[1:]:
        out += " - " + piece[1:] if piece.startswith("-") else " + " + piece
    return out


wide_fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
wide_scalars = st.dictionaries(
    triples, st.builds(GaussianRational.of, wide_fracs, wide_fracs), max_size=4
).map(Scalar)


@given(wide_scalars, wide_scalars)
def test_ring_matches_gaussian_rational_oracle(a, b):
    ra, rb = _ref(a), _ref(b)
    assert _ref(a + b) == _ref_add(ra, rb)
    assert _ref(a - b) == _ref_add(ra, {t: -g for t, g in rb.items()})
    assert _ref(-a) == {t: -g for t, g in ra.items()}
    assert _ref(a * b) == _ref_mul(ra, rb)
    assert (a == b) == (ra == rb)
    if a == b:
        assert hash(a) == hash(b)
    vals = (0.7, 2.3, 1.9)
    assert a.to_complex(*vals) == _ref_to_complex(ra, *vals)
    assert a.render() == _ref_render(ra)
    assert (a * b).render() == _ref_render(_ref_mul(ra, rb))


nonzero_gaussians = st.builds(GaussianRational.of, wide_fracs, wide_fracs).filter(
    lambda g: not g.is_zero
)
multi_addend_terms = st.dictionaries(triples, nonzero_gaussians, min_size=2, max_size=8)


@settings(max_examples=300)
@given(multi_addend_terms, multi_addend_terms, st.booleans())
def test_multi_addend_sum_matches_constructor(ta, tb, cancel):
    """A sum of two operands of two or more addends, with shared and
    cancelling triples, equals the constructor applied to the summed terms."""
    if cancel:
        # every shared triple cancels
        tb = {t: -ta[t] if t in ta else g for t, g in tb.items()}
    a, b = Scalar(ta), Scalar(tb)
    assert len(a) >= 2 and len(b) >= 2
    total = dict(ta)
    for t, g in tb.items():
        total[t] = total[t] + g if t in total else g
    expected = Scalar(total)
    assert a + b == expected and b + a == expected
    _assert_canonical(a + b)


@given(triples, st.builds(GaussianRational.of, wide_fracs, wide_fracs))
def test_inverse_matches_gaussian_rational_oracle(triple, g):
    a = Scalar({triple: g})
    if g.is_zero:
        with pytest.raises(DivisionByZeroError):
            a.inverse()
        return
    inv = _ref(a.inverse())
    assert inv == {tuple(-e for e in triple): g.inverse()}
    assert a * a.inverse() == Scalar.one()
