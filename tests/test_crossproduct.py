"""Duality pairing, left action, cross product, derivation, basis map."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kappahopf.crossproduct import (
    Convention,
    PairingContext,
    _vanishes,
    basis_map_check,
    canonical_limit_table,
    cross_commutator,
    cross_multiply,
    derive_phase_space_relations,
    derived_relation_elements,
    left_action,
    pair,
)
from kappahopf.elements import SPATIAL_P, SPATIAL_X, Gen, Monomial, Element, accumulate
from kappahopf.errors import PairingError
from kappahopf.hopf import coproduct, coproduct_monomial
from kappahopf.presets import Basis, Sector, classical_limit, get_preset
from kappahopf.scalars import Scalar

CTX_B = PairingContext(Basis.BICROSS)
CTX_S = PairingContext(Basis.STANDARD)


def gen(g):
    return Element.generator(g)


def sc(re=0, im=0, **kw):
    return Scalar.term(re, im, **kw)


def _ctx_id(ctx):
    return f"{ctx.basis.value}/{ctx.convention.value}"


# every basis under both conventions
ALL_CTX = [PairingContext(b, conv) for b in Basis for conv in Convention]


# -- the laws that single out the LEFT convention --------------------------------


def _momentum_probe_elements() -> list[Element]:
    probes = [Element.generator(g) for g in (Gen.P0, *SPATIAL_P)]
    probes.append(Element.q_power(1))
    probes.append(Element.q_power(-2))
    return probes


def check_pairing_well_defined(ctx: PairingContext) -> bool:
    """Pair both sides of every configuration-space relation; they must agree."""
    preset = ctx.preset
    xs = [Gen.X0, *SPATIAL_X]
    for i, xg in enumerate(xs):
        for yg in xs[i + 1 :]:
            x, y = Element.generator(xg), Element.generator(yg)
            lhs = preset.multiply(y, x)  # normal form of the reordered product
            raw = Element.term(Monomial((yg, xg)), Scalar.one())
            for p in _momentum_probe_elements():
                if pair(p, raw, ctx) != pair(p, lhs, ctx):
                    return False
    return True


def check_module_algebra_law(ctx: PairingContext) -> bool:
    """p |> (x xt) = sum (p1 |> x)(p2 |> xt) on degree <= 2 position words."""
    preset = ctx.preset
    xs = [Element.generator(g) for g in (Gen.X0, *SPATIAL_X)]
    for p in _momentum_probe_elements():
        dp = coproduct(p, preset)
        for x in xs:
            for y in xs:
                lhs = left_action(p, preset.multiply(x, y), ctx)
                rhs: dict[Monomial, Scalar] = {}
                for (u, v), s in dp.items():
                    a = left_action(Element.term(u, Scalar.one()), x, ctx)
                    b = left_action(Element.term(v, Scalar.one()), y, ctx)
                    accumulate(rhs, preset.multiply(a, b).items(), s)
                if lhs != Element._wrap(rhs):
                    return False
    return True


def check_representation_law(ctx: PairingContext) -> bool:
    """(p pt) |> x = p |> (pt |> x) on momentum generator pairs."""
    preset = ctx.preset
    moms = _momentum_probe_elements()
    xs = [Element.generator(g) for g in (Gen.X0, *SPATIAL_X)]
    for p in moms:
        for pt in moms:
            prod = preset.multiply(p, pt)
            for x in xs:
                if left_action(prod, x, ctx) != left_action(p, left_action(pt, x, ctx), ctx):
                    return False
    return True


class TestPairing:
    def test_metric_values(self):
        assert pair(gen(Gen.P1), gen(Gen.X1), CTX_B) == sc(0, -1, hbar=1)
        assert pair(gen(Gen.P0), gen(Gen.X0), CTX_B) == sc(0, 1, hbar=1)
        assert pair(gen(Gen.P1), gen(Gen.X2), CTX_B).is_zero
        assert pair(gen(Gen.P0), gen(Gen.X1), CTX_B).is_zero

    def test_q_power_pairing(self):
        assert pair(Element.q_power(-2), gen(Gen.X0), CTX_B) == sc(
            0, -1, hbar=1, kappa=-1, c=-1
        )
        assert pair(Element.q_power(-2), gen(Gen.X1), CTX_B).is_zero

    def test_q_power_pairing_series_oracle(self):
        """Truncate exp(a P0 / 2 kappa c) to fourth order and pair term by
        term; only the linear term survives against a primitive position."""

        def series_pairing(a: int, x: Gen) -> Scalar:
            total = Scalar.zero()
            p0pow = Element.one()
            for n in range(5):
                if n > 0:
                    # multiply by P0 and the scalar a / (2 kappa c) / n
                    p0pow = Element.term(
                        Monomial((Gen.P0,) * n),
                        sc(Fraction(a**n, 2**n * math.factorial(n)), 0, kappa=-n, c=-n),
                    )
                total = total + pair(p0pow, gen(x), CTX_B)
            return total

        for a in (-2, -1, 1, 3):
            assert series_pairing(a, Gen.X0) == pair(
                Element.q_power(a), gen(Gen.X0), CTX_B
            )
            assert series_pairing(a, Gen.X1) == pair(
                Element.q_power(a), gen(Gen.X1), CTX_B
            )

    def test_unit_pairings(self):
        assert pair(Element.one(), gen(Gen.X1), CTX_B).is_zero  # <1, x> = eps(x)
        assert pair(gen(Gen.P1), Element.one(), CTX_B).is_zero  # <p, 1> = eps(p)
        assert pair(Element.one(), Element.one(), CTX_B) == Scalar.one()

    def test_sector_validation(self):
        for op in (pair, left_action):
            with pytest.raises(PairingError, match="momentum-sector element, found x1"):
                op(gen(Gen.X1), gen(Gen.X1), CTX_B)
            with pytest.raises(PairingError, match="position-sector element, found P1"):
                op(gen(Gen.P1), gen(Gen.P1), CTX_B)
            with pytest.raises(PairingError, match="cannot carry q powers"):
                op(gen(Gen.P1), Element.q_power(1), CTX_B)
            # a q power is reported before a foreign letter of the same term
            with pytest.raises(PairingError, match="cannot carry q powers"):
                op(gen(Gen.P1), Element.term(Monomial((Gen.P1,), 1), Scalar.one()), CTX_B)
            # a bad p is reported before a bad x
            for bad_x in (gen(Gen.P1), Element.q_power(1)):
                with pytest.raises(PairingError, match="momentum-sector element, found x1"):
                    op(gen(Gen.X1), bad_x, CTX_B)

    @pytest.mark.parametrize("ctx", [CTX_B, CTX_S], ids=["bicross", "standard"])
    def test_well_defined_on_relations(self, ctx):
        assert check_pairing_well_defined(ctx)

    def test_right_convention_ill_defined(self):
        for basis in (Basis.BICROSS, Basis.STANDARD):
            ctx = PairingContext(basis, Convention.RIGHT)
            assert not check_pairing_well_defined(ctx)


class TestLeftAction:
    def test_momentum_on_position(self):
        assert left_action(gen(Gen.P1), gen(Gen.X1), CTX_B) == Element.from_scalar(
            sc(0, -1, hbar=1)
        )

    def test_group_like_action(self):
        assert left_action(Element.q_power(-2), gen(Gen.X1), CTX_B) == gen(Gen.X1)
        assert left_action(Element.q_power(-2), gen(Gen.X0), CTX_B) == gen(
            Gen.X0
        ) + Element.from_scalar(sc(0, -1, hbar=1, kappa=-1, c=-1))

    def test_unit_acts_trivially(self):
        x = gen(Gen.X0) + gen(Gen.X2)
        assert left_action(Element.one(), x, CTX_B) == x

    @pytest.mark.parametrize("ctx", [CTX_B, CTX_S], ids=["bicross", "standard"])
    def test_module_algebra_law(self, ctx):
        assert check_module_algebra_law(ctx)

    @pytest.mark.parametrize("ctx", [CTX_B, CTX_S], ids=["bicross", "standard"])
    def test_representation_law(self, ctx):
        assert check_representation_law(ctx)


class TestCrossMultiply:
    def test_momentum_times_position(self):
        got = cross_multiply(gen(Gen.P1), gen(Gen.X1), CTX_B)
        expected = Element.from_scalar(sc(0, -1, hbar=1)) + Element.term(
            Monomial((Gen.X1, Gen.P1)), Scalar.one()
        )
        assert got == expected

    def test_trivial_action_branch(self):
        got = cross_multiply(gen(Gen.X0), gen(Gen.P0), CTX_B)
        assert got == Element.term(Monomial((Gen.X0, Gen.P0)), Scalar.one())

    def test_group_like_action_branch(self):
        got = cross_multiply(gen(Gen.P1), gen(Gen.X0), CTX_B)
        expected = Element.term(Monomial((Gen.X0, Gen.P1)), Scalar.one()) + Element.term(
            Monomial((Gen.P1,)), sc(0, -1, hbar=1, kappa=-1, c=-1)
        )
        assert got == expected

    def test_unit_element(self):
        a = gen(Gen.X1) + gen(Gen.P2)
        assert cross_multiply(Element.one(), a, CTX_B) == a
        assert cross_multiply(a, Element.one(), CTX_B) == a

    def test_restriction_to_pure_sectors(self):
        preset = CTX_B.preset
        assert cross_multiply(gen(Gen.X1), gen(Gen.X0), CTX_B) == preset.multiply(
            gen(Gen.X1), gen(Gen.X0)
        )
        assert cross_multiply(gen(Gen.P1), Element.q_power(2), CTX_B) == preset.multiply(
            gen(Gen.P1), Element.q_power(2)
        )

    @pytest.mark.parametrize("ctx", [CTX_B, CTX_S], ids=["bicross", "standard"])
    def test_associativity_on_mixed_triples(self, ctx):
        triples = [
            (gen(Gen.P1), gen(Gen.X1), gen(Gen.P0)),
            (gen(Gen.X0), gen(Gen.P1), gen(Gen.X1)),
            (Element.q_power(1), gen(Gen.X0), gen(Gen.P2)),
            (gen(Gen.P2), gen(Gen.P1), gen(Gen.X2)),
            (
                gen(Gen.X1) + gen(Gen.P1),
                gen(Gen.X0),
                Element.q_power(-1) + gen(Gen.P3),
            ),
        ]
        for a, b, c in triples:
            lhs = cross_multiply(cross_multiply(a, b, ctx), c, ctx)
            rhs = cross_multiply(a, cross_multiply(b, c, ctx), ctx)
            assert lhs == rhs

    @pytest.mark.parametrize("ctx", [CTX_B, CTX_S], ids=["bicross", "standard"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_associativity_randomized(self, ctx, data):
        preset = ctx.preset
        gens = st.sampled_from(preset.generators)
        words = st.lists(gens, max_size=2).map(tuple)
        monos = st.builds(Monomial, words, st.integers(-1, 1))
        coeffs = st.sampled_from([Scalar.one(), Scalar.i(), Scalar.rational(2)])
        elems = st.dictionaries(monos, coeffs, min_size=1, max_size=2).map(Element)
        a = preset.normal_form(data.draw(elems))
        b = preset.normal_form(data.draw(elems))
        c = preset.normal_form(data.draw(elems))
        lhs = cross_multiply(cross_multiply(a, b, ctx), c, ctx)
        rhs = cross_multiply(a, cross_multiply(b, c, ctx), ctx)
        assert lhs == rhs

    @pytest.mark.parametrize("ctx", ALL_CTX, ids=_ctx_id)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_commutator_is_difference_of_products(self, ctx, data):
        preset = ctx.preset
        words = st.lists(st.sampled_from(preset.generators), max_size=2).map(tuple)
        monos = st.builds(Monomial, words, st.integers(-1, 1))
        coeffs = st.sampled_from([Scalar.one(), Scalar.i(), sc(-2, 0, hbar=1)])
        elems = st.dictionaries(monos, coeffs, min_size=1, max_size=2).map(Element)
        a = preset.normal_form(data.draw(elems))
        b = preset.normal_form(data.draw(elems))
        expected = cross_multiply(a, b, ctx) - cross_multiply(b, a, ctx)
        assert cross_commutator(a, b, ctx) == expected

    def test_normal_order_precondition_enforced(self):
        raw = Element.term(Monomial((Gen.P1, Gen.X1)), Scalar.one())
        with pytest.raises(PairingError):
            cross_multiply(raw, Element.one(), CTX_B)

    @pytest.mark.parametrize("ctx", [CTX_B, CTX_S], ids=["bicross", "standard"])
    def test_agrees_with_preset_multiplication(self, ctx):
        """Once the relation table is derived, the cross product must coincide
        with plain normal-ordered multiplication on mixed elements."""
        preset = ctx.preset
        samples = [
            gen(Gen.X0),
            gen(Gen.X1),
            gen(Gen.P0),
            gen(Gen.P1),
            Element.q_power(1),
            Element.term(Monomial((Gen.X1, Gen.P1)), Scalar.one()),
            Element.term(Monomial((Gen.X0, Gen.X1), 1), Scalar.i()),
        ]
        for a in samples:
            for b in samples:
                assert cross_multiply(a, b, ctx) == preset.multiply(a, b)

    @pytest.mark.parametrize("ctx", [CTX_B, CTX_S], ids=["bicross", "standard"])
    def test_agrees_with_preset_multiplication_seeded(self, ctx):
        """x-before-P monomials of degree <= 4, q-exponents -2..2, rational
        coefficients.  One case in four has no position letter on the left,
        where the action is the position part with no product, and one in
        four none on the right."""
        preset = ctx.preset
        rng = random.Random(32)
        for i in range(40):
            a, b = (
                Element.term(
                    Monomial(
                        tuple(sorted(_word(rng, _XS, 0, most)) + sorted(_word(rng, _PS, 0, 2))),
                        rng.randint(-2, 2),
                    ),
                    Scalar.rational(rng.randint(-3, 3) or 1, rng.randint(1, 3)),
                )
                for most in (0 if i % 4 == 0 else 2, 0 if i % 4 == 1 else 2)
            )
            assert cross_multiply(a, b, ctx) == preset.multiply(a, b), (a, b)


_XS = (Gen.X0, Gen.X1, Gen.X2, Gen.X3)
_PS = (Gen.P0, Gen.P1, Gen.P2, Gen.P3)


def _word(rng, letters, lo, hi):
    return tuple(rng.choice(letters) for _ in range(rng.randint(lo, hi)))


def _memo_ops(seed, count=100):
    """Seeded pair, left_action and cross_multiply calls on both bases.  Each
    call is made under both conventions, in random order, so the memo entries
    one call fills are looked up again under the other convention.  Operands
    are x-before-P monomials with q-exponents -2..2."""
    rng = random.Random(seed)
    ops = []
    for _ in range(count):
        basis = rng.choice(tuple(Basis))
        coeff = Scalar.rational(rng.randint(-3, 3) or 1, rng.randint(1, 3))
        op = rng.choice((pair, left_action, cross_multiply))
        if op is cross_multiply:
            a, b = (
                Monomial(
                    tuple(sorted(_word(rng, _XS, 0, 2)) + sorted(_word(rng, _PS, 0, 2))),
                    rng.randint(-2, 2),
                )
                for _ in range(2)
            )
        else:
            # raw position words: the pairing and the action take any order
            a = Monomial(_word(rng, _PS, 0, 2), rng.randint(-2, 2))
            b = Monomial(_word(rng, _XS, 1, 2))
        conventions = list(Convention)
        rng.shuffle(conventions)
        a, b = Element.term(a, coeff), Element.term(b, Scalar.one())
        ops += [(op, a, b, PairingContext(basis, conv)) for conv in conventions]
    return ops


class _NoMemo(dict):
    """A memo that never stores, so every lookup recomputes."""

    def __setitem__(self, key, value):
        pass


class TestPairingActionMemo:
    """The pairing and action memos live on the shared phase-space preset."""

    def test_memoized_results_match_unmemoized_reference(self):
        ops = _memo_ops(seed=7)
        get_preset.cache_clear()
        for basis in Basis:
            cold = get_preset(basis, Sector.PHASESPACE)
            cold._pair_cache = _NoMemo()
            cold._action_cache = _NoMemo()
        expected = [op(a, b, ctx) for op, a, b, ctx in ops]
        get_preset.cache_clear()
        first = [op(a, b, ctx) for op, a, b, ctx in ops]
        again = [op(a, b, ctx) for op, a, b, ctx in ops]
        assert all(get_preset(b, Sector.PHASESPACE)._pair_cache for b in Basis)
        for (op, a, b, ctx), want, got_first, got_again in zip(ops, expected, first, again):
            where = f"{op.__name__}({a.render()}, {b.render()}) {_ctx_id(ctx)}"
            assert got_first == want and got_again == want, where

    @pytest.mark.parametrize("ctx", ALL_CTX, ids=_ctx_id)
    def test_multi_term_action_is_normal_form_of_summed_action(self, ctx):
        preset = ctx.preset
        paired = 1 if ctx.convention is Convention.LEFT else 0
        rng = random.Random(11)
        for _ in range(8):
            p = Element(
                {
                    Monomial(_word(rng, _PS, 0, 2), rng.randint(-2, 2)): sc(rng.randint(1, 3))
                    for _ in range(3)
                }
            )
            x = Element(
                {Monomial(_word(rng, _XS, 1, 3)): sc(0, rng.randint(1, 3)) for _ in range(3)}
            )
            summed = Element.zero()
            for legs, s in coproduct(x, preset).items():
                coeff = pair(p, Element.term(legs[paired], Scalar.one()), ctx)
                summed = summed + Element.term(legs[1 - paired], coeff * s)
            assert left_action(p, x, ctx) == preset.normal_form(summed)

    @pytest.mark.parametrize("basis", list(Basis), ids=lambda b: b.value)
    def test_string_convention_is_the_enum_member(self, basis):
        # a context built from the plain string must take the enum's branches,
        # and leave in the shared memos only what the enum context would
        rng = random.Random(13)
        ops = []
        for _ in range(60):
            op = rng.choice((pair, left_action))
            p = Element.term(Monomial(_word(rng, _PS, 0, 2), rng.randint(-2, 2)), Scalar.one())
            x = Element.term(Monomial(_word(rng, _XS, 2, 3)), Scalar.one())
            ops += [(op, p, x, PairingContext(basis, conv)) for conv in Convention]
        get_preset.cache_clear()
        cold = [op(a, b, ctx) for op, a, b, ctx in ops]
        get_preset.cache_clear()
        from_text = [op(a, b, PairingContext(basis, ctx.convention.value)) for op, a, b, ctx in ops]
        warm = [op(a, b, ctx) for op, a, b, ctx in ops]
        assert from_text == cold
        assert warm == cold

    def test_context_fields_are_enum_members(self):
        assert PairingContext(Basis.STANDARD, "right").convention is Convention.RIGHT
        assert PairingContext("bicross").basis is Basis.BICROSS
        with pytest.raises(ValueError):
            PairingContext(Basis.STANDARD, "middle")
        preset = get_preset(Basis.STANDARD, Sector.PHASESPACE)
        report = derive_phase_space_relations(preset, "right")
        assert report == derive_phase_space_relations(preset, Convention.RIGHT)

    def test_one_preset_lookup_per_public_call(self, monkeypatch):
        import kappahopf.crossproduct as crossproduct

        calls = []

        def counting_get_preset(basis, sector):
            calls.append((basis, sector))
            return get_preset(basis, sector)

        monkeypatch.setattr(crossproduct, "get_preset", counting_get_preset)
        get_preset.cache_clear()
        p = gen(Gen.P1) + Element.q_power(-2)
        p = p + Element.term(Monomial((Gen.P0, Gen.P2)), sc(3))
        x = gen(Gen.X0) + Element.term(Monomial((Gen.X1, Gen.X0, Gen.X2)), sc(0, 1))
        mixed = Element.term(Monomial((Gen.X0, Gen.X1, Gen.P1, Gen.P2), 1), sc(2)) + p
        for ctx in (CTX_B, PairingContext(Basis.STANDARD, Convention.RIGHT)):
            # cold memos: every monomial result is computed, recursively
            for op, a, b in ((pair, p, x), (left_action, p, x), (cross_multiply, mixed, x)):
                calls.clear()
                op(a, b, ctx)
                assert calls == [(ctx.basis, Sector.PHASESPACE)], op.__name__

    def test_position_coproduct_legs_are_normal_words(self):
        # the action adds the legs it keeps as they are: every leg of a
        # position coproduct, of a sorted word or not, is its own normal form
        # and carries no q power
        legs_seen = 0
        for basis in Basis:
            preset = get_preset(basis, Sector.PHASESPACE)
            for n in range(5):
                for word in itertools.product(_XS, repeat=n):
                    for legs, _ in coproduct_monomial(Monomial(word), preset).items():
                        for leg in legs:
                            as_element = Element.term(leg, Scalar.one())
                            assert leg.qexp == 0, (word, leg)
                            assert preset.normal_form(as_element) == as_element, (word, leg)
                            legs_seen += 1
        assert legs_seen == 17808

    def test_override_copy_starts_cold(self):
        base = CTX_B.preset
        left_action(gen(Gen.P1), gen(Gen.X1), CTX_B)
        assert base._pair_cache and base._action_cache
        pair_ = next(iter(base.rules))
        copy = base.with_rule_override(pair_, base.rules[pair_])
        assert not copy._pair_cache and not copy._action_cache


def _frozen_base_pairing(p, x):
    if p is Gen.P0 and x is Gen.X0:
        return Scalar.term(0, 1, hbar=1)
    if p - Gen.P0 == x - Gen.X0 and x is not Gen.X0:
        return Scalar.term(0, -1, hbar=1)
    return Scalar.zero()


def _frozen_pair(pm, xm, ctx, preset):
    """The pairing recursion as it stood before the letter-count rule, frozen
    as an oracle and memo-free: every sub-pairing is recomputed."""
    if not xm.word:
        return Scalar.one() if not pm.word else Scalar.zero()
    if not pm.word:
        if len(xm.word) == 1:
            if pm.qexp == 0:
                return Scalar.zero()
            return _frozen_base_pairing(Gen.P0, xm.word[0]) * Scalar.term(
                Fraction(pm.qexp, 2), 0, kappa=-1, c=-1
            )
        left = _frozen_pair(pm, Monomial(xm.word[:1]), ctx, preset)
        right = _frozen_pair(pm, Monomial(xm.word[1:]), ctx, preset)
        return left * right
    if len(pm.word) == 1 and pm.qexp == 0 and len(xm.word) == 1:
        return _frozen_base_pairing(pm.word[0], xm.word[0])
    if len(xm.word) == 1:
        if pm.word[1:]:
            return Scalar.zero()
        return _frozen_base_pairing(pm.word[0], xm.word[0])
    dp = coproduct(Element.term(pm, Scalar.one()), preset)
    head, tail = Monomial(xm.word[:1]), Monomial(xm.word[1:])
    if ctx.convention is Convention.RIGHT:
        head, tail = tail, head
    total = Scalar.zero()
    for (u, v), s in dp.items():
        total = total + _frozen_pair(u, head, ctx, preset) * _frozen_pair(v, tail, ctx, preset) * s
    return total


# every momentum monomial of degree <= 3 with q^-2..q^2, every raw position
# word of length <= 3
_SWEEP_P = [
    Monomial(word, a)
    for n in range(4)
    for word in itertools.combinations_with_replacement(_PS, n)
    for a in range(-2, 3)
]
_SWEEP_X = [Monomial(word) for n in range(4) for word in itertools.product(_XS, repeat=n)]


def _letter_counts(word, letters):
    return [word.count(g) for g in letters]


class TestLetterCountRule:
    """The letter-count rule in `_pair_mono` and `_act_mono` against the
    frozen recursion, on every pair of small monomials."""

    @pytest.mark.parametrize("ctx", ALL_CTX, ids=_ctx_id)
    def test_rule_matches_frozen_recursion(self, ctx):
        get_preset.cache_clear()
        preset = ctx.preset
        one = Scalar.one()
        frozen = {
            (pm, xm): _frozen_pair(pm, xm, ctx, preset) for pm in _SWEEP_P for xm in _SWEEP_X
        }
        paired = 1 if ctx.convention is Convention.LEFT else 0
        for xm in _SWEEP_X:
            x = Element.term(xm, one)
            legs = list(coproduct(x, preset).items())
            for pm in _SWEEP_P:
                p = Element.term(pm, one)
                where = f"{pm.render()} | {xm.render()} {_ctx_id(ctx)}"
                assert pair(p, x, ctx) == frozen[pm, xm], where
                # the legs of a coproduct are normal words no longer than xm
                summed = {}
                for leg, s in legs:
                    coeff = frozen[pm, leg[paired]]
                    if not coeff.is_zero:
                        accumulate(summed, [(leg[1 - paired], coeff * s)])
                assert left_action(p, x, ctx) == preset.normal_form(Element(summed)), where
        # the rule fires on every miss it covers, so no memo entry breaks it
        for _, pm, xm in preset._pair_cache:
            n = _letter_counts(pm.word, _PS)
            m = _letter_counts(xm.word, _XS)
            assert n[1:] == m[1:] and n[0] <= m[0], (pm, xm)
        for _, pm, xm in preset._action_cache:
            n = _letter_counts(pm.word, _PS)
            m = _letter_counts(xm.word, _XS)
            assert all(a <= b for a, b in zip(n, m)), (pm, xm)


    def test_rule_meets_base_case_preconditions(self):
        # `_pair_mono_fresh` answers an empty position word with 1 and a
        # one-letter word with a base pairing, so every pair the exact rule
        # lets through must have no momentum letter, or at most one, there
        passed = 0
        for n in range(4):
            for pword in itertools.product(_PS, repeat=n):
                for a in (-1, 0, 1):
                    pm = Monomial(pword, a)
                    for k in range(3):
                        for xword in itertools.product(_XS, repeat=k):
                            if _vanishes(pm.word, xword, True):
                                continue
                            passed += 1
                            if len(xword) < 2:
                                assert len(pm.word) <= len(xword), (pm, xword)
        assert passed == 126


class TestDerivation:
    @pytest.mark.parametrize("basis", [Basis.BICROSS, Basis.STANDARD])
    def test_matches_preset_tables(self, basis):
        report = derive_phase_space_relations(get_preset(basis, Sector.PHASESPACE))
        assert report.passed, report.failures()
        assert len(report.entries) == 36

    def test_report_shape(self):
        preset = get_preset(Basis.BICROSS, Sector.PHASESPACE)
        payload = derive_phase_space_relations(preset).to_dict()
        assert payload["basis"] == "bicross"
        assert payload["pass"] is True
        entry = payload["entries"][0]
        assert set(entry) == {"pair", "derived_rendering", "table_rendering", "match"}

    def test_key_bicross_lines(self):
        derived = derived_relation_elements(Basis.BICROSS)
        assert derived["[x0, P1]"] == Element.term(
            Monomial((Gen.P1,)), sc(0, 1, hbar=1, kappa=-1, c=-1)
        )
        assert derived["[x1, P0]"].is_zero
        assert derived["[x1, P1]"] == Element.from_scalar(sc(0, 1, hbar=1))

    def test_key_standard_lines(self):
        derived = derived_relation_elements(Basis.STANDARD)
        assert derived["[x1, P1]"] == Element.term(Monomial((), 1), sc(0, 1, hbar=1))
        assert derived["[x0, P1]"] == Element.term(
            Monomial((Gen.P1,)), sc(0, Fraction(1, 2), hbar=1, kappa=-1, c=-1)
        )

    @pytest.mark.parametrize("basis", [Basis.BICROSS, Basis.STANDARD])
    def test_classical_limit_is_canonical(self, basis):
        derived = derived_relation_elements(basis)
        canonical = canonical_limit_table()
        for name, element in derived.items():
            assert classical_limit(element) == canonical[name], name

    def test_convention_selection(self):
        for basis in (Basis.BICROSS, Basis.STANDARD):
            table = get_preset(basis, Sector.PHASESPACE)
            left = PairingContext(basis, Convention.LEFT)
            assert check_pairing_well_defined(left)
            assert check_module_algebra_law(left)
            assert check_representation_law(left)
            assert derive_phase_space_relations(table, Convention.LEFT).passed
            # the generator-level table alone does not discriminate; the
            # pairing well-definedness and module-algebra law do
            right = PairingContext(basis, Convention.RIGHT)
            assert derive_phase_space_relations(table, Convention.RIGHT).passed
            assert not check_pairing_well_defined(right)
            assert not check_module_algebra_law(right)


class TestBasisMap:
    def test_exactly_one_transformation(self):
        report = basis_map_check()
        assert len(report.transformations) == 1
        named = report.named
        assert named == "standard->bicross with P_i -> P_i q"

    def test_candidate_details(self):
        report = basis_map_check()
        by_key = {(c.direction, c.sign): c for c in report.candidates}
        assert by_key[("standard->bicross", 1)].intertwines
        assert by_key[("bicross->standard", -1)].intertwines
        assert not by_key[("standard->bicross", -1)].intertwines
        assert not by_key[("bicross->standard", 1)].intertwines
        # passing candidates are mutually inverse bijections
        assert len(report.passing) == 2
        assert all(c.counit_compatible for c in report.candidates)

    def test_residuals_recorded_for_failures(self):
        report = basis_map_check()
        failing = [c for c in report.candidates if not c.intertwines]
        assert failing and all(c.residuals for c in failing)

    def test_serialization(self):
        payload = basis_map_check().to_dict()
        assert payload["named"] == "standard->bicross with P_i -> P_i q"
        assert len(payload["candidates"]) == 4
        assert len(payload["transformations"]) == 1
