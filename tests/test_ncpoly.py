"""Normal ordering, multiplication, commutators, classical limit."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kappahopf.elements import Gen, Monomial, Element
from kappahopf.errors import NonTerminationError, SectorError
from kappahopf.presets import (
    AlgebraPreset,
    Basis,
    Sector,
    classical_limit,
    get_preset,
)
from kappahopf.scalars import Scalar


def gen(g):
    return Element.generator(g)


def sc(re=0, im=0, **kw):
    return Scalar.term(re, im, **kw)


PB = get_preset(Basis.BICROSS, Sector.PHASESPACE)
PS = get_preset(Basis.STANDARD, Sector.PHASESPACE)
POB = get_preset(Basis.BICROSS, Sector.POINCARE)
POS = get_preset(Basis.STANDARD, Sector.POINCARE)
ALL_PRESETS = (PB, PS, POB, POS)


class TestNormalForm:
    def test_p1_x1_bicross(self):
        # P1 x1 -> x1 P1 - i hbar
        raw = Element.term(Monomial((Gen.P1, Gen.X1)), Scalar.one())
        expected = Element(
            {
                Monomial((Gen.X1, Gen.P1)): Scalar.one(),
                Monomial(): sc(0, -1, hbar=1),
            }
        )
        assert PB.normal_form(raw) == expected

    def test_identity_on_normal_input(self):
        e = Element.term(Monomial((Gen.X1, Gen.P1)), Scalar.one())
        assert PB.normal_form(e) == e

    def test_boost_momentum_standard(self):
        # P1 N1 -> N1 P1 - i kc (q^2 - q^-2)/2 ; equivalently
        # [N1, P1] = i kc sinh(P0/kc) rewritten in q
        raw = Element.term(Monomial((Gen.P1, Gen.N1)), Scalar.one())
        nf = POS.normal_form(raw)
        expected = Element(
            {
                Monomial((Gen.N1, Gen.P1)): Scalar.one(),
                Monomial((), 2): sc(0, -Fraction(1, 2), kappa=1, c=1),
                Monomial((), -2): sc(0, Fraction(1, 2), kappa=1, c=1),
            }
        )
        assert nf == expected

    def test_sector_error(self):
        e = gen(Gen.M1)
        with pytest.raises(SectorError):
            PB.normal_form(e)

    @pytest.mark.parametrize("swap", [False, True], ids=["left", "right"])
    def test_commutator_sector_error(self, swap):
        # commutator checks its operands once, then multiplies unchecked
        a, b = gen(Gen.X1), gen(Gen.P1)
        if swap:
            a, b = b, a
        with pytest.raises(SectorError, match="x1 is not admissible in the poincare"):
            POB.commutator(a, b)
        with pytest.raises(SectorError, match="x1 is not admissible in the poincare"):
            POB.multiply(a, b)

    def test_mixed_monomial_rejected_at_construction(self):
        with pytest.raises(SectorError):
            Monomial((Gen.X1, Gen.N1))

    def test_step_cap_diagnostic(self):
        tiny = AlgebraPreset(PB.basis, PB.sector, PB.rules, PB.qrules, step_cap=1)
        heavy = Element.term(
            Monomial((Gen.P1, Gen.P2, Gen.X1, Gen.X2)), Scalar.one()
        )
        with pytest.raises(NonTerminationError) as err:
            tiny.normal_form(heavy)
        assert err.value.monomial is not None


class TestMultiply:
    def test_unit(self):
        assert PB.multiply(Element.one(), gen(Gen.X0)) == gen(Gen.X0)

    def test_kappa_minkowski(self):
        # x0 x1 stays put; x1 x0 = x0 x1 + (i hbar / kc) x1
        a = PB.multiply(gen(Gen.X0), gen(Gen.X1))
        assert a == Element.term(Monomial((Gen.X0, Gen.X1)), Scalar.one())
        b = PB.multiply(gen(Gen.X1), gen(Gen.X0))
        expected = a + Element.term(
            Monomial((Gen.X1,)), sc(0, 1, hbar=1, kappa=-1, c=-1)
        )
        assert b == expected

    def test_q_exponent_additivity(self):
        assert PB.multiply(Element.q_power(1), Element.q_power(-1)) == Element.one()

    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
    def test_q_commutes_with_spatial_generators(self, preset):
        q = Element.q_power(1)
        for g in preset.generators:
            if g in (Gen.X0, Gen.N1, Gen.N2, Gen.N3):
                continue
            assert preset.commutator(q, gen(g)).is_zero


class TestCommutator:
    def test_rotation_momentum(self):
        for preset in (POB, POS):
            assert preset.commutator(gen(Gen.M1), gen(Gen.P2)) == Element.term(
                Monomial((Gen.P3,)), Scalar.i()
            )

    def test_momenta_commute(self):
        for preset in ALL_PRESETS:
            assert preset.commutator(gen(Gen.P1), gen(Gen.P2)).is_zero

    def test_boost_momentum_bicross(self):
        # [N1, P1] = i[kc(1-q^-4)/2 + (P1^2+P2^2+P3^2)/2kc] - (i/kc) P1^2
        got = POB.commutator(gen(Gen.N1), gen(Gen.P1))
        half_kc = Fraction(1, 2)
        expected = Element(
            {
                Monomial(): sc(0, half_kc, kappa=1, c=1),
                Monomial((), -4): sc(0, -half_kc, kappa=1, c=1),
                Monomial((Gen.P1, Gen.P1)): sc(0, -half_kc, kappa=-1, c=-1),
                Monomial((Gen.P2, Gen.P2)): sc(0, half_kc, kappa=-1, c=-1),
                Monomial((Gen.P3, Gen.P3)): sc(0, half_kc, kappa=-1, c=-1),
            }
        )
        assert got == expected

    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
    def test_antisymmetry_on_all_generator_pairs(self, preset):
        subjects = [gen(g) for g in preset.generators] + [Element.q_power(1)]
        for a in subjects:
            for b in subjects:
                assert (
                    preset.commutator(a, b) + preset.commutator(b, a)
                ).is_zero

    def test_q_rules_match_table(self):
        # [x0, q] = -(i hbar / 2 kc) q ; [N_i, q] = (i / 2 kc) P_i q
        got = PB.commutator(gen(Gen.X0), Element.q_power(1))
        assert got == Element.term(
            Monomial((), 1), sc(0, -Fraction(1, 2), hbar=1, kappa=-1, c=-1)
        )
        got = POS.commutator(gen(Gen.N2), Element.q_power(1))
        assert got == Element.term(
            Monomial((Gen.P2,), 1), sc(0, Fraction(1, 2), kappa=-1, c=-1)
        )


class TestClassicalLimit:
    def test_position_noncommutativity_vanishes(self):
        assert classical_limit(PB.commutator(gen(Gen.X0), gen(Gen.X1))).is_zero

    def test_standard_position_momentum(self):
        # [x1, p1] = i hbar q -> i hbar
        got = classical_limit(PS.commutator(gen(Gen.X1), gen(Gen.P1)))
        assert got == Element.from_scalar(sc(0, 1, hbar=1))

    def test_q_substitution(self):
        e = Element.term(Monomial((Gen.P1,), -2), Scalar.one())
        assert classical_limit(e) == gen(Gen.P1)


# -- randomized structural properties -------------------------------------------


def elements_for(preset, max_len=3, max_terms=3):
    gens = st.sampled_from(preset.generators)
    words = st.lists(gens, max_size=max_len).map(tuple)
    monos = st.builds(Monomial, words, st.integers(-2, 2))
    coeffs = st.sampled_from(
        [
            Scalar.one(),
            Scalar.i(),
            Scalar.rational(-2),
            Scalar.term(0, Fraction(1, 2), hbar=1),
            Scalar.term(1, 0, kappa=-1, c=-1),
        ]
    )
    return st.dictionaries(monos, coeffs, min_size=1, max_size=max_terms).map(Element)


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_associativity_randomized(preset, data):
    a = data.draw(elements_for(preset))
    b = data.draw(elements_for(preset))
    c = data.draw(elements_for(preset))
    left = preset.multiply(preset.multiply(a, b), c)
    right = preset.multiply(a, preset.multiply(b, c))
    assert left == right


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normal_form_idempotent(preset, data):
    e = data.draw(elements_for(preset))
    nf = preset.normal_form(e)
    assert preset.normal_form(nf) == nf
    for mono in nf.monomials():
        assert mono.is_sorted


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_multiplication_bilinear(preset, data):
    a = data.draw(elements_for(preset))
    b = data.draw(elements_for(preset))
    c = data.draw(elements_for(preset))
    assert preset.multiply(a + b, c) == preset.multiply(a, c) + preset.multiply(b, c)
    assert preset.multiply(c, a + b) == preset.multiply(c, a) + preset.multiply(c, b)


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_commutator_is_difference_of_products(preset, data):
    a = data.draw(elements_for(preset))
    b = data.draw(elements_for(preset))
    assert preset.commutator(a, b) == preset.multiply(a, b) - preset.multiply(b, a)


# -- differential check against a plain reference engine ---------------------------


class ReferenceEngine:
    """Leftmost single swap to a fixpoint from a preset's tables, memoized per
    (word, qexp): no commuting runs, no q shifts, no shared caches."""

    def __init__(self, preset):
        self.preset = preset
        self.memo = {}

    def q_past(self, a, word):
        """q^a * word as a list of (word', coeff), each meaning coeff * word' * q^a."""
        if a == 0 or not word:
            return [(word, Scalar.one())]
        out = []
        for w, s in self.q_past(a, word[1:]):
            out.append(((word[0],) + w, s))
            if word[0] in self.preset.qrules:
                lam, extra = self.preset.qrules[word[0]]
                out.append((extra + w, s * lam * Scalar.rational(a)))
        return out

    def nf(self, word, qexp):
        key = (word, qexp)
        if key not in self.memo:
            i = next((i for i in range(len(word) - 1) if word[i] > word[i + 1]), None)
            if i is None:
                out = Element.term(Monomial(word, qexp), Scalar.one())
            else:
                left, right = word[:i], word[i + 2 :]
                out = self.nf(left + (word[i + 1], word[i]) + right, qexp)
                for (cword, cq), cc in self.preset.rules[(word[i], word[i + 1])].items():
                    for rword, rc in self.q_past(cq, right):
                        out = out + self.nf(left + cword + rword, qexp + cq).scaled(cc * rc)
            self.memo[key] = out
        return self.memo[key]

    def normal_form(self, e):
        out = Element.zero()
        for (word, qexp), coeff in e.items():
            out = out + self.nf(word, qexp).scaled(coeff)
        return out

    def multiply(self, a, b):
        out = Element.zero()
        for (w1, q1), c1 in a.items():
            for (w2, q2), c2 in b.items():
                for w, c in self.q_past(q1, w2):
                    out = out + self.nf(w1 + w, q1 + q2).scaled(c1 * c2 * c)
        return out


def random_word(rng, preset, max_len, letters=()):
    """A random word over the preset's generators with `letters` mixed in."""
    word = [rng.choice(preset.generators) for _ in range(rng.randint(0, max_len))]
    for g in letters:
        word.insert(rng.randint(0, len(word)), g)
    return tuple(word)


def random_element(rng, preset, max_len, letters=()):
    coeffs = (Scalar.one(), Scalar.i(), Scalar.rational(-2), sc(1, 0, kappa=-1, c=-1))
    return Element(
        {
            Monomial(random_word(rng, preset, max_len, letters), rng.randint(-2, 2)):
            rng.choice(coeffs)
            for _ in range(rng.randint(1, 2))
        }
    )


def assert_matches_reference(preset, seed, letters=()):
    rng = random.Random(seed)
    reference = ReferenceEngine(preset)
    for _ in range(40):
        e = random_element(rng, preset, 4, letters)
        got = preset.normal_form(e)
        want = reference.normal_form(e)
        assert got == want and got.render() == want.render(), e.render()
    for _ in range(15):
        a = random_element(rng, preset, 2, letters[:1])
        b = random_element(rng, preset, 2, letters[1:])
        got = preset.multiply(a, b)
        want = reference.multiply(a, b)
        assert got == want and got.render() == want.render(), (a.render(), b.render())


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
def test_engine_matches_reference(preset):
    assert_matches_reference(preset, seed=7)


# per sector: zero rules made non-zero, then non-zero rules made zero
OVERRIDES = {
    Sector.PHASESPACE: (
        [(Gen.P2, Gen.P1), (Gen.P1, Gen.X2), (Gen.X3, Gen.X1)],
        [(Gen.P1, Gen.X1), (Gen.X2, Gen.X0), (Gen.P3, Gen.X0)],
    ),
    Sector.POINCARE: (
        [(Gen.P2, Gen.P1), (Gen.P0, Gen.M1), (Gen.N2, Gen.M2)],
        [(Gen.P1, Gen.N1), (Gen.N2, Gen.M1), (Gen.P3, Gen.M1)],
    ),
}


def override_cases():
    for preset in ALL_PRESETS:
        made_nonzero, made_zero = OVERRIDES[preset.sector]
        for pairs, make_nonzero in ((made_nonzero, True), (made_zero, False)):
            for hi, lo in pairs:
                case = f"{preset!r}-{hi.name}{lo.name}-{'nonzero' if make_nonzero else 'zero'}"
                yield pytest.param(preset, (hi, lo), make_nonzero, id=case)


@pytest.mark.parametrize("preset, pair, make_nonzero", list(override_cases()))
def test_override_copy_matches_reference(preset, pair, make_nonzero):
    assert preset.rules[pair].is_zero is make_nonzero
    rule = Element.from_scalar(sc(0, 1, hbar=1)) if make_nonzero else Element.zero()
    copy = preset.with_rule_override(pair, rule)
    # every word carries both letters of the overridden pair, so many of them use it
    assert_matches_reference(copy, seed=11, letters=pair)


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), qexp=st.integers(-3, 3))
def test_normal_form_q_shift(preset, data, qexp):
    # q^a sits at the right end, so it only shifts every q-exponent by a
    word = tuple(data.draw(st.lists(st.sampled_from(preset.generators), max_size=5)))
    base = preset.normal_form(Element.term(Monomial(word), Scalar.one()))
    shifted = preset.normal_form(Element.term(Monomial(word, qexp), Scalar.one()))
    assert shifted == Element({Monomial(w, q + qexp): c for (w, q), c in base.items()})
