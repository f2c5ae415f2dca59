"""Normal ordering, multiplication, commutators, classical limit."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kappahopf import cli, grammar
from kappahopf.elements import (
    BOOSTS,
    LORENTZ,
    MOMENTA,
    ROTATIONS,
    SPATIAL_X,
    Element,
    Gen,
    Monomial,
)
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



class TestTermination:
    """Rewriting terminates by weight descent, checked when a preset is built:
    a boost weighs 2, every other letter 1, q nothing."""

    @pytest.mark.parametrize(
        "preset, pair, word",
        [
            (PB, (Gen.P1, Gen.X1), (Gen.X1, Gen.P1, Gen.P2)),
            # equal weight: a swap that a rule writes as its own correction
            (PB, (Gen.P1, Gen.X1), (Gen.X1, Gen.P1)),
            (POB, (Gen.N2, Gen.N1), (Gen.P1, Gen.P2, Gen.M3, Gen.P3)),
            (POS, (Gen.P1, Gen.N1), (Gen.N1, Gen.P2)),
        ],
        ids=["heavier", "equal", "equal-boosts", "equal-boost-momentum"],
    )
    def test_override_not_lowering_weight_raises(self, preset, pair, word):
        correction = Monomial(word, 1)
        bad = preset.rules[pair] + Element.term(correction, Scalar.one())
        with pytest.raises(NonTerminationError, match=correction.render()) as err:
            preset.with_rule_override(pair, bad)
        assert err.value.monomial == correction

    def test_override_lowering_weight_builds(self):
        # M3 P1 weighs 2 + 1 less than N2 N1, which weighs 4
        lighter = Element.term(Monomial((Gen.M3, Gen.P1)), Scalar.one())
        copy = POB.with_rule_override((Gen.N2, Gen.N1), lighter)
        raw = Element.term(Monomial((Gen.N2, Gen.N1)), Scalar.one())
        assert copy.normal_form(raw) == Element.term(
            Monomial((Gen.N1, Gen.N2)), Scalar.one()
        ) + Element.term(Monomial((Gen.M3, Gen.P1)), Scalar.one())

    @pytest.mark.parametrize(
        "preset, gen_, extra",
        [(POB, Gen.N1, (Gen.P1, Gen.P2)), (PB, Gen.X0, (Gen.X1,))],
        ids=["boost", "x0"],
    )
    def test_qrule_extra_not_lowering_weight_raises(self, preset, gen_, extra):
        lam = preset.qrules[gen_][0]
        qrules = {**preset.qrules, gen_: (lam, extra)}
        with pytest.raises(NonTerminationError, match=f"q {gen_.render()}") as err:
            AlgebraPreset(preset.basis, preset.sector, preset.rules, qrules)
        assert err.value.monomial == Monomial(extra)

    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=repr)
    def test_missing_rule_raises_at_construction(self, preset):
        pair = next(iter(preset.rules))
        rules = {p: r for p, r in preset.rules.items() if p != pair}
        with pytest.raises(SectorError, match="no rule for"):
            AlgebraPreset(preset.basis, preset.sector, rules, preset.qrules)

    def test_inadmissible_correction_raises_at_construction(self):
        with pytest.raises(SectorError, match="M1 is not admissible"):
            PB.with_rule_override((Gen.P1, Gen.X1), gen(Gen.M1))


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


# -- run transport: a letter past a whole commuting run in one step -------------


def class_pairs(cls, lows):
    return {(hi, lo) for hi in cls for lo in lows}


MOMENTUM_PAIRS = {
    Sector.PHASESPACE: class_pairs(MOMENTA, (Gen.X0,) + SPATIAL_X),
    Sector.POINCARE: class_pairs(MOMENTA, ROTATIONS + BOOSTS),
}
X_PAIRS = class_pairs(SPATIAL_X, (Gen.X0,))


def run_heavy_words(rng, preset, count):
    """Runs of 1-4 equal letters, at most one Lorentz letter, times q^-2..q^2."""
    plain = [g for g in preset.generators if g not in LORENTZ]
    lorentz = [g for g in preset.generators if g in LORENTZ]
    for _ in range(count):
        word = []
        for _ in range(rng.randint(1, 3)):
            word += [rng.choice(plain)] * rng.randint(1, 4)
        if lorentz and rng.random() < 0.8:
            word.insert(rng.randint(0, len(word)), rng.choice(lorentz))
        yield Element.term(Monomial(tuple(word), rng.randint(-2, 2)), Scalar.one())


def assert_runs_match_reference(preset, seed, count):
    rng = random.Random(seed)
    reference = ReferenceEngine(preset)
    for e in run_heavy_words(rng, preset, count):
        got, want = preset.normal_form(e), reference.normal_form(e)
        assert got == want and got.render() == want.render(), (preset, e.render())


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
def test_transported_pairs(preset):
    x_pairs = X_PAIRS if preset.sector is Sector.PHASESPACE else set()
    assert set(preset._transport) == MOMENTUM_PAIRS[preset.sector] | x_pairs
    assert all(hi in cls and lo < min(cls) for (hi, lo), cls in preset._transport.items())


def _q_rule_on_p1(preset):
    qrules = {**preset.qrules, Gen.P1: (Scalar.one(), ())}
    return AlgebraPreset(preset.basis, preset.sector, preset.rules, qrules)


@pytest.mark.parametrize(
    "preset, make_copy, turned_off",
    [
        # a nonzero rule inside a class turns off that class
        (PB, lambda p: p.with_rule_override((Gen.P2, Gen.P1), gen(Gen.P0)),
         MOMENTUM_PAIRS[Sector.PHASESPACE]),
        (POS, lambda p: p.with_rule_override((Gen.P2, Gen.P1), Element.from_scalar(sc(0, 1))),
         MOMENTUM_PAIRS[Sector.POINCARE]),
        (PS, lambda p: p.with_rule_override((Gen.X3, Gen.X1), gen(Gen.X2)), X_PAIRS),
        # so does a q-rule on a class letter
        (PS, _q_rule_on_p1, MOMENTUM_PAIRS[Sector.PHASESPACE]),
        # a correction word outside the class turns off that lower letter only
        (PB, lambda p: p.with_rule_override((Gen.P1, Gen.X2), gen(Gen.X2)),
         class_pairs(MOMENTA, (Gen.X2,))),
        (PS, lambda p: p.with_rule_override((Gen.X2, Gen.X0), gen(Gen.X0)), X_PAIRS),
        (POB, lambda p: p.with_rule_override((Gen.P3, Gen.M1), gen(Gen.M1)),
         class_pairs(MOMENTA, (Gen.M1,))),
    ],
    ids=["P2P1-nonzero", "P2P1-nonzero-poincare", "X3X1-nonzero", "q-rule-on-P1",
         "P1X2-outside", "X2X0-outside", "P3M1-outside"],
)
def test_override_turns_off_only_affected_pairs(preset, make_copy, turned_off):
    copy = make_copy(preset)
    assert turned_off <= set(preset._transport)
    assert set(copy._transport) == set(preset._transport) - turned_off
    assert_runs_match_reference(copy, seed=29, count=6)


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
def test_run_transport_matches_reference(preset):
    assert_runs_match_reference(preset, seed=23, count=16)
    # every corrupted copy of a pair whose hi is in a class; a copy that
    # fails the check keeps single swaps for the pairs it affects
    for pair in sorted(preset.rules):
        if pair[0] in MOMENTA or pair[0] in SPATIAL_X:
            copy = cli._corrupted(preset, pair)
            assert_runs_match_reference(copy, seed=pair[0] * 16 + pair[1], count=3)


def test_long_word_memo_is_bounded(monkeypatch):
    # run transport stores no word per letter of a run that a letter moves past
    fresh = get_preset.__wrapped__(Basis.BICROSS, Sector.PHASESPACE)
    monkeypatch.setattr(grammar, "get_preset", lambda basis, sector: fresh)
    grammar.eval_text("(x0 x1 x2 x3 P0 P1 P2 P3)^4")
    assert len(fresh._nf_young) + len(fresh._nf_old) <= 20000


@pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
def test_commuting_step_memo_is_bounded(monkeypatch, basis):
    # M1 commutes with N1 outside every run-transport class, and passes a
    # run N1^20 in one step: 32 words, where single swaps would store 417
    fresh = get_preset.__wrapped__(basis, Sector.POINCARE)
    monkeypatch.setattr(grammar, "get_preset", lambda basis, sector: fresh)
    assert (Gen.N1, Gen.M1) not in fresh._transport
    grammar.eval_text("N1^20 M1^20 N1^20", basis)
    assert len(fresh._nf_young) + len(fresh._nf_old) <= 40


@pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
@pytest.mark.parametrize(
    "expression, oracle",
    [
        # q^a x0 = (x0 + a i hbar / 2 kappa c) q^a, so like words must merge
        ("q x0^22", "(x0 + 1/2 i hbar kappa^-1 c^-1)^22 q"),
        # no letter with a q-rule: past the recursion limit, in one step
        ("q P1^1500", "P1^1500 q"),
        ("q N1^8", "(N1 - 1/2 i kappa^-1 c^-1 P1)^8 q"),
    ],
)
def test_q_transport_matches_oracle(basis, expression, oracle):
    got = grammar.eval_text(expression, basis)
    assert got.render() == grammar.eval_text(oracle, basis).render()


def test_q_transport_memo_merges_like_words():
    fresh = get_preset.__wrapped__(Basis.BICROSS, Sector.PHASESPACE)
    fresh._q_past_word(1, (Gen.X0,) * 20)
    assert len(fresh._qpast_cache[1, (Gen.X0,) * 20]) == 21
    # a word with no q-rule letter passes unchanged and is not stored
    assert fresh._q_past_word(1, (Gen.X1, Gen.P1)) == (((Gen.X1, Gen.P1), Scalar.one()),)
    assert list(fresh._qpast_cache) == [(1, (Gen.X0,) * 20)]


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), qexp=st.integers(-3, 3))
def test_normal_form_q_shift(preset, data, qexp):
    # q^a sits at the right end, so it only shifts every q-exponent by a
    word = tuple(data.draw(st.lists(st.sampled_from(preset.generators), max_size=5)))
    base = preset.normal_form(Element.term(Monomial(word), Scalar.one()))
    shifted = preset.normal_form(Element.term(Monomial(word, qexp), Scalar.one()))
    assert shifted == Element({Monomial(w, q + qexp): c for (w, q), c in base.items()})
