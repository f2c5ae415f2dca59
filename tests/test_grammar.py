"""Expression grammar: parsing, evaluation, rendering round trips."""

import pytest

from kappahopf.elements import Gen, Monomial, Element
from kappahopf import presets
from kappahopf.errors import ParseError, ResourceLimitError, SectorError
from kappahopf.grammar import eval_text, infer_sector, parse
from kappahopf.hopf import antipode
from kappahopf.presets import Basis, Sector, get_preset
from kappahopf.scalars import Scalar


class TestParse:
    def test_commutator_node(self):
        assert parse("[N1, P1]") == ("comm", ("sym", "N1"), ("sym", "P1"))

    def test_sum_of_product_and_scaled_generator(self):
        node = parse("x0 x1 + (i hbar / (kappa c)) x1")
        assert node[0] == "add"
        assert node[1] == ("mul", ("sym", "x0"), ("sym", "x1"))

    def test_pairing_node(self):
        assert parse("<P1 | x1>") == ("pair", ("sym", "P1"), ("sym", "x1"))

    def test_action_node(self):
        assert parse("q^-2 |> x0") == (
            "action",
            ("pow", ("sym", "q"), -2),
            ("sym", "x0"),
        )

    def test_product_binds_tighter_than_sum(self):
        node = parse("x0 + x1 x2")
        assert node == ("add", ("sym", "x0"), ("mul", ("sym", "x1"), ("sym", "x2")))

    def test_error_position_and_expected_set(self):
        with pytest.raises(ParseError) as err:
            parse("[N1, P1")
        assert err.value.line == 1
        assert err.value.column == 8
        assert "]" in err.value.expected

    def test_unknown_symbol(self):
        with pytest.raises(ParseError) as err:
            parse("x0 + banana")
        assert err.value.found == "banana"
        assert err.value.column == 6

    def test_unexpected_character(self):
        with pytest.raises(ParseError) as err:
            parse("x0 ? x1")
        assert err.value.found == "?"


class TestEval:
    def test_kappa_minkowski_commutator(self):
        v = eval_text("[x0, x1]", Basis.BICROSS, Sector.PHASESPACE)
        assert v.render() == "(-i hbar kappa^-1 c^-1) x1"

    def test_coproduct_standard(self):
        v = eval_text("D(P1)", Basis.STANDARD, Sector.POINCARE)
        assert v.render() == "P1 ⊗ q + q^-1 ⊗ P1"
        assert v.render(" (x) ") == "P1 (x) q + q^-1 (x) P1"

    def test_counit(self):
        assert eval_text("eps(q)").render() == "1"
        assert eval_text("eps(x0 x1 + 5)").render() == "5"

    def test_antipode_matches_module(self):
        preset = get_preset(Basis.BICROSS, Sector.POINCARE)
        expect = antipode(Element.generator(Gen.N2), preset)
        assert eval_text("S(N2)", Basis.BICROSS).as_element() == expect

    def test_scalar_literals(self):
        v = eval_text("3/2 i hbar x1")
        got = v.as_element()
        from fractions import Fraction

        assert got == Element.term(
            Monomial((Gen.X1,)), Scalar.term(0, Fraction(3, 2), hbar=1)
        )

    def test_negative_power_of_invertible(self):
        assert eval_text("(2 q)^-1").as_element() == Element.term(
            Monomial((), -1), Scalar.rational(1, 2)
        )
        with pytest.raises(SectorError):
            eval_text("x1^-1")

    def test_powers_match_repeated_multiplication(self):
        cases = (("(1/2 + 1/3 i) hbar", 13), ("2 kappa^-1", 40), ("(3 q^-2)", 7))
        for base, n in cases:
            product = eval_text(base)
            for _ in range(n - 1):
                product = eval_text(f"({product.render()}) ({base})")
            assert eval_text(f"({base})^{n}").render() == product.render()
        assert eval_text("(2 q^3)^-2").as_element() == Element.term(
            Monomial((), -6), Scalar.rational(1, 4)
        )

    def test_division_restricted(self):
        with pytest.raises(SectorError):
            eval_text("x0 / x1")

    def test_sector_inference(self):
        assert infer_sector(parse("[x0, P1]")) is Sector.PHASESPACE
        assert infer_sector(parse("[N1, P1]")) is Sector.POINCARE
        assert infer_sector(parse("[P0, P1]")) is Sector.POINCARE
        with pytest.raises(SectorError):
            infer_sector(parse("x0 N1"))
        with pytest.raises(SectorError):
            infer_sector(parse("[x0, x1]"), Sector.POINCARE)

    def test_shared_preset_recovers_after_recursion_limit(self):
        preset = get_preset(Basis.BICROSS, Sector.PHASESPACE)
        with pytest.raises(ResourceLimitError):
            eval_text("P1^1500 x0")
        assert not any(v is presets._IN_PROGRESS for v in preset._nf_cache.values())
        fresh = get_preset.__wrapped__(Basis.BICROSS, Sector.PHASESPACE)
        p1_40 = Element.term(Monomial((Gen.P1,) * 40), Scalar.one())
        expect = fresh.multiply(p1_40, Element.generator(Gen.X0))
        got = eval_text("P1^40 x0").as_element()
        assert got == expect
        assert got.render() == "x0 P1^40 + (-40 i hbar kappa^-1 c^-1) P1^40"

    def test_pairing_and_action(self):
        assert eval_text("<P0 | x0>").render() == "i hbar"
        assert (
            eval_text("q^-2 |> x0").render() == "(-i hbar kappa^-1 c^-1) + x0"
        )


class TestRoundTrip:
    @pytest.mark.parametrize("basis", [Basis.BICROSS, Basis.STANDARD])
    @pytest.mark.parametrize("sector", [Sector.POINCARE, Sector.PHASESPACE])
    def test_engine_outputs_round_trip(self, basis, sector):
        preset = get_preset(basis, sector)
        gens = [Element.generator(g) for g in preset.generators]
        gens.append(Element.q_power(1))
        elements = []
        for a in gens:
            for b in gens:
                elements.append(preset.commutator(a, b))
            elements.append(antipode(a, preset))
            elements.append(preset.multiply(a, a))
        for e in elements:
            text = e.render()
            back = eval_text(text, basis, sector)
            assert back.as_element() == e, text

    def test_scalar_round_trips(self):
        from fractions import Fraction

        scalars = [
            Scalar.one(),
            -Scalar.i(),
            Scalar.term(0, -1, hbar=1, kappa=-1, c=-1),
            Scalar.gaussian(Fraction(1, 2), Fraction(-3, 4)),
            Scalar.term(2, 0, hbar=2, kappa=-2, c=1) + Scalar.i(),
        ]
        for s in scalars:
            e = Element.from_scalar(s)
            assert eval_text(e.render()).as_element() == e
