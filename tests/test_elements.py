"""The shared sparse linear-combination type behind Element and TensorElement."""

import pytest
from hypothesis import given, settings, strategies as st

from kappahopf.elements import Element, Gen, LinearCombination, Monomial, accumulate
from kappahopf.hopf import TensorElement
from kappahopf.scalars import Scalar

# few keys and small coefficients, so sums collide and cancel often
_MONOMIALS = st.builds(
    Monomial,
    st.lists(st.sampled_from([Gen.P0, Gen.P1, Gen.P2]), max_size=2).map(tuple),
    st.integers(-1, 1),
)
_SCALARS = st.builds(
    lambda re, im, hbar, kappa: Scalar.term(re, im, hbar=hbar, kappa=kappa),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.integers(-1, 1),
    st.integers(-1, 1),
)
# input dicts may hold zero coefficients: the public constructors drop them
_ELEMENTS = st.dictionaries(_MONOMIALS, _SCALARS, max_size=5).map(Element)


def _tensors(rank):
    keys = st.tuples(*[_MONOMIALS] * rank)
    return st.dictionaries(keys, _SCALARS, max_size=5).map(
        lambda terms: TensorElement(rank, terms)
    )


# pairs of values of one kind: elements, rank-2 tensors, rank-3 tensors
_PAIRS = st.one_of(
    st.tuples(_ELEMENTS, _ELEMENTS),
    st.tuples(_tensors(2), _tensors(2)),
    st.tuples(_tensors(3), _tensors(3)),
)


def _results(a, b, s):
    return [a + b, a - b, -a, a.scaled(s), a + (-a)]


def _rank(v):
    return getattr(v, "rank", None)


@settings(max_examples=150, deadline=None)
@given(_PAIRS, _SCALARS)
def test_no_zero_coefficient_is_stored(pair, s):
    a, b = pair
    for value in [a, b, *_results(a, b, s)]:
        assert all(not coeff.is_zero for _, coeff in value.items())


@settings(max_examples=150, deadline=None)
@given(_PAIRS)
def test_additive_laws(pair):
    a, b = pair
    assert (a + (-a)).is_zero
    assert a + b == b + a
    assert (a - b) + b == a
    assert a.scaled(Scalar.zero()).is_zero


@settings(max_examples=150, deadline=None)
@given(_PAIRS, _SCALARS)
def test_kind_and_rank_survive_every_operation(pair, s):
    a, b = pair
    for value in _results(a, b, s):
        assert type(value) is type(a)
        assert _rank(value) == _rank(a)
    if _rank(a) == 2:
        flipped = a.flip()
        assert flipped.rank == 2 and flipped.flip() == a


@settings(max_examples=150, deadline=None)
@given(_ELEMENTS, _ELEMENTS, _SCALARS)
def test_accumulate_matches_addition(a, b, s):
    acc = accumulate(dict(a.items()), b.items(), s)
    assert all(not coeff.is_zero for coeff in acc.values())
    assert Element(acc) == a + b.scaled(s)


def test_accumulate_removes_a_cancelled_key():
    p1, p2 = Monomial((Gen.P1,)), Monomial((Gen.P2,))
    one = Scalar.one()
    acc = {p1: one}
    assert accumulate(acc, [(p1, -one), (p2, one)]) is acc
    assert acc == {p2: one}
    accumulate(acc, [(p2, one)], Scalar.zero())
    assert acc == {p2: one}


def test_arity_mismatch_raises():
    key = (Monomial((Gen.P1,)), Monomial())
    with pytest.raises(ValueError):
        TensorElement(3, {key: Scalar.one()})
    with pytest.raises(ValueError):
        TensorElement(4)


def test_values_of_different_rank_do_not_mix():
    zero2, zero3 = TensorElement(2), TensorElement(3)
    assert zero2 != zero3
    assert Element() != zero2
    with pytest.raises(ValueError):
        zero2 + zero3
    with pytest.raises(ValueError):
        Element.one() - TensorElement.unit(2)


def test_each_class_names_its_own_add():
    # perfbench/tracer.py counts additions from each class's own __dict__
    for cls in (Element, TensorElement, Scalar):
        assert "__add__" in vars(cls)
    assert Element.__add__ is TensorElement.__add__ is LinearCombination.__add__
