"""Duality pairing, left action, cross product, derivation, basis map."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kappahopf.crossproduct import (
    Convention,
    PairingContext,
    basis_map_check,
    canonical_limit_table,
    check_module_algebra_law,
    check_pairing_well_defined,
    check_representation_law,
    cross_commutator,
    cross_multiply,
    derive_phase_space_relations,
    derived_relation_elements,
    left_action,
    pair,
    select_convention,
)
from kappahopf.elements import Gen, Monomial, Element
from kappahopf.errors import PairingError
from kappahopf.hopf import coproduct
from kappahopf.presets import Basis, Sector, classical_limit, get_preset
from kappahopf.scalars import Scalar

CTX_B = PairingContext(Basis.BICROSS)
CTX_S = PairingContext(Basis.STANDARD)


def gen(g):
    return Element.generator(g)


def sc(re=0, im=0, **kw):
    return Scalar.term(re, im, **kw)


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
        with pytest.raises(PairingError):
            pair(gen(Gen.X1), gen(Gen.X1), CTX_B)
        with pytest.raises(PairingError):
            pair(gen(Gen.P1), gen(Gen.P1), CTX_B)
        with pytest.raises(PairingError):
            pair(gen(Gen.P1), Element.q_power(1), CTX_B)

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

    @pytest.mark.parametrize(
        "ctx",
        [PairingContext(b, conv) for b in Basis for conv in Convention],
        ids=lambda c: c.tag(),
    )
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
            where = f"{op.__name__}({a.render()}, {b.render()}) {ctx.tag()}"
            assert got_first == want and got_again == want, where

    @pytest.mark.parametrize(
        "ctx",
        [PairingContext(b, conv) for b in Basis for conv in Convention],
        ids=lambda c: c.tag(),
    )
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

    def test_override_copy_starts_cold(self):
        base = CTX_B.preset
        left_action(gen(Gen.P1), gen(Gen.X0), CTX_B)
        assert base._pair_cache and base._action_cache
        pair_ = next(iter(base.rules))
        copy = base.with_rule_override(pair_, base.rules[pair_])
        assert not copy._pair_cache and not copy._action_cache


class TestDerivation:
    @pytest.mark.parametrize("basis", [Basis.BICROSS, Basis.STANDARD])
    def test_matches_preset_tables(self, basis):
        report = derive_phase_space_relations(basis)
        assert report.passed, report.failures()
        assert len(report.entries) == 36

    def test_report_shape(self):
        payload = derive_phase_space_relations(Basis.BICROSS).to_dict()
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
            evidence = {ev.convention: ev for ev in select_convention(basis)}
            assert evidence["left"].selected
            assert not evidence["right"].selected
            # the generator-level table alone does not discriminate; the
            # pairing well-definedness and module-algebra law do
            assert evidence["right"].reproduces_table
            assert not evidence["right"].pairing_well_defined


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
