"""The shared sparse linear-combination type behind Element and TensorElement,
and the tuple-backed Monomial that keys it."""

import copy
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from kappahopf.elements import Element, Gen, LinearCombination, Monomial, accumulate
from kappahopf.errors import SectorError
from kappahopf.hopf import TensorElement
from kappahopf.presets import Basis, Sector, get_preset
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
    # a one-shot generator, as hopf._slots_into passes, is read once
    assert accumulate(dict(a.items()), ((k, c) for k, c in b.items()), s) == acc


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


def _old_sort_key(m):
    """The removed `Monomial.sort_key`, the oracle of the render order."""
    return (tuple(int(g) for g in m.word), m.qexp)


# words over either admissible alphabet, so every one of the 14 generators
# occurs, in any letter order, and the empty word
_ANY_WORDS = st.one_of(
    st.lists(st.sampled_from([g for g in Gen if not Gen.M1 <= g <= Gen.N3]), max_size=4),
    st.lists(st.sampled_from([g for g in Gen if g >= Gen.M1]), max_size=4),
).map(tuple)
_ANY_MONOMIALS = st.builds(Monomial, _ANY_WORDS, st.integers(-3, 3))


@settings(max_examples=200, deadline=None)
@given(st.lists(_ANY_MONOMIALS, min_size=1, max_size=8, unique=True))
def test_element_render_order_is_the_old_sort_key(monos):
    # with every coefficient one, each term renders as its monomial, the unit
    # as "(1)" beside other terms
    e = Element({m: Scalar.one() for m in monos})
    unit = "(1)" if len(monos) > 1 else "1"
    expected = [unit if m.is_unit else m.render() for m in sorted(monos, key=_old_sort_key)]
    assert e.render().split(" + ") == expected


@pytest.mark.parametrize("rank", [2, 3])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_tensor_render_order_is_the_old_sort_key(rank, data):
    keys = data.draw(st.lists(st.tuples(*[_ANY_MONOMIALS] * rank), min_size=1,
                              max_size=8, unique=True))
    t = TensorElement(rank, {key: Scalar.one() for key in keys})
    order = sorted(keys, key=lambda key: tuple((not m.word, _old_sort_key(m)) for m in key))
    assert t.render().split(" + ") == [" ⊗ ".join(m.render() for m in key) for key in order]


class TestMonomialTuple:
    """A monomial is the tuple (word, qexp); every way of building or copying
    one must give back a Monomial with that pair."""

    M = Monomial((Gen.P0, Gen.P1, Gen.P1), -2)

    def _assert_same(self, back):
        assert type(back) is Monomial
        assert back == self.M
        assert (back.word, back.qexp) == ((Gen.P0, Gen.P1, Gen.P1), -2)

    def test_copy(self):
        self._assert_same(copy.copy(self.M))
        self._assert_same(copy.deepcopy(self.M))

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_round_trip(self, protocol):
        self._assert_same(pickle.loads(pickle.dumps(self.M, protocol)))

    def test_keyword_construction(self):
        self._assert_same(Monomial(word=(Gen.P0, Gen.P1, Gen.P1), qexp=-2))
        assert Monomial(qexp=3) == Monomial((), 3)
        assert Monomial() == Monomial((), 0)

    def test_iterable_word_is_normalised_to_a_tuple(self):
        for word in ([Gen.P0, Gen.P1, Gen.P1], (g for g in (Gen.P0, Gen.P1, Gen.P1))):
            m = Monomial(word, -2)
            assert type(m.word) is tuple
            self._assert_same(m)
            assert hash(m) == hash(self.M)
        with pytest.raises(SectorError):
            Monomial(g for g in (Gen.X1, Gen.N1))

    def test_hash_is_the_pair_hash(self):
        for m in (self.M, Monomial(), Monomial((Gen.X0, Gen.X1), 5)):
            assert hash(m) == hash((m.word, m.qexp))

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("sector", list(Sector))
    def test_engine_keys_are_monomials(self, basis, sector):
        preset = get_preset(basis, sector)
        subjects = [Element.generator(g) for g in preset.generators]
        subjects.append(Element.q_power(-1))
        results = [preset.multiply(a, b) for a in subjects for b in subjects]
        # every generator once, in anti-normal order: many rewrite steps
        scrambled = Monomial(tuple(reversed(preset.generators)), 1)
        results.append(preset.normal_form(Element({scrambled: Scalar.one()})))
        for e in results:
            assert all(type(k) is Monomial for k in e.monomials())
