"""Coalgebra structure maps, Hopf axiom suites, Casimir centrality."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kappahopf.elements import Gen, Monomial, Element
from kappahopf.hopf import (
    TensorElement,
    _subjects,
    antipode,
    casimir,
    check_antipode_axiom,
    check_centrality,
    check_coassociativity,
    check_coproduct_homomorphism,
    check_counit_axiom,
    check_jacobi,
    coproduct,
    coproduct_slot,
    counit,
    tensor_commutator,
    tensor_multiply,
)
from kappahopf.presets import AlgebraPreset, Basis, Sector, get_preset
from kappahopf.scalars import Scalar

PB = get_preset(Basis.BICROSS, Sector.PHASESPACE)
PS = get_preset(Basis.STANDARD, Sector.PHASESPACE)
POB = get_preset(Basis.BICROSS, Sector.POINCARE)
POS = get_preset(Basis.STANDARD, Sector.POINCARE)
ALL_PRESETS = (PB, PS, POB, POS)


def gen(g):
    return Element.generator(g)


def t2(*pairs):
    terms = {}
    for m1, m2, s in pairs:
        terms[(m1, m2)] = s
    return TensorElement(2, terms)


ONE = Monomial()


class TestCoproduct:
    def test_momentum_bicross(self):
        expected = t2(
            (Monomial((Gen.P1,)), ONE, Scalar.one()),
            (Monomial((), -2), Monomial((Gen.P1,)), Scalar.one()),
        )
        assert coproduct(gen(Gen.P1), POB) == expected

    def test_momentum_standard(self):
        # legs carry e^{+P0/2kc} left, e^{-P0/2kc} right; the transposed
        # variant is not an algebra map (see TestLegOrderRegression)
        expected = t2(
            (Monomial((Gen.P1,)), Monomial((), 1), Scalar.one()),
            (Monomial((), -1), Monomial((Gen.P1,)), Scalar.one()),
        )
        assert coproduct(gen(Gen.P1), POS) == expected

    def test_unit_group_like(self):
        assert coproduct(Element.one(), POB) == TensorElement.unit(2)

    def test_q_group_like(self):
        q = Monomial((), 1)
        assert coproduct(Element.q_power(1), POB) == t2((q, q, Scalar.one()))

    def test_positions_primitive(self):
        for preset in (PB, PS):
            got = coproduct(gen(Gen.X2), preset)
            assert got == t2(
                (Monomial((Gen.X2,)), ONE, Scalar.one()),
                (ONE, Monomial((Gen.X2,)), Scalar.one()),
            )

    def test_multiplicative_on_momentum_word(self):
        # Delta(P1 q^-1) computed from the monomial equals the product of
        # generator coproducts (bicross)
        e = Element.term(Monomial((Gen.P1,), -1), Scalar.one())
        via_mono = coproduct(e, POB)
        via_product = tensor_multiply(
            coproduct(gen(Gen.P1), POB), coproduct(Element.q_power(-1), POB), POB
        )
        assert via_mono == via_product
        expected = t2(
            (Monomial((Gen.P1,), -1), Monomial((), -1), Scalar.one()),
            (Monomial((), -3), Monomial((Gen.P1,), -1), Scalar.one()),
        )
        assert via_mono == expected


class TestAntipode:
    def test_momentum(self):
        assert antipode(gen(Gen.P1), POB) == Element.term(
            Monomial((Gen.P1,), 2), -Scalar.one()
        )
        assert antipode(gen(Gen.P1), POS) == -gen(Gen.P1)

    def test_boost_standard(self):
        expected = -gen(Gen.N1) + Element.term(
            Monomial((Gen.P1,)), Scalar.term(0, Fraction(3, 2), kappa=-1, c=-1)
        )
        assert antipode(gen(Gen.N1), POS) == expected

    def test_square_on_momenta(self):
        # computed values, not assumed identities
        for preset in (POB, POS):
            for g in (Gen.P0, Gen.P1, Gen.P2, Gen.P3):
                assert antipode(antipode(gen(g), preset), preset) == gen(g)
        # standard boosts: S^2(N_i) = N_i - (3i/kc) P_i
        got = antipode(antipode(gen(Gen.N1), POS), POS)
        expected = gen(Gen.N1) + Element.term(
            Monomial((Gen.P1,)), Scalar.term(0, -3, kappa=-1, c=-1)
        )
        assert got == expected

    def test_anti_homomorphism_on_random_words(self):
        # S(ab) = S(b) S(a) for a few fixed degree-2 products
        pairs = [
            (gen(Gen.N1), gen(Gen.P1)),
            (gen(Gen.M2), gen(Gen.P3)),
            (Element.q_power(2), gen(Gen.N2)),
        ]
        for a, b in pairs:
            lhs = antipode(POS.multiply(a, b), POS)
            rhs = POS.multiply(antipode(b, POS), antipode(a, POS))
            assert lhs == rhs


class TestCounit:
    def test_kills_generators(self):
        assert counit(gen(Gen.P0), POB).is_zero
        assert counit(gen(Gen.N3), POS).is_zero

    def test_group_like(self):
        assert counit(Element.q_power(3), POB) == Scalar.one()

    def test_unit_component(self):
        e = Element(
            {
                Monomial((Gen.X0, Gen.X1)): Scalar.one(),
                ONE: Scalar.rational(5),
            }
        )
        assert counit(e, PB) == Scalar.rational(5)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_homomorphism_randomized(self, data):
        gens = st.sampled_from(POB.generators)
        words = st.lists(gens, max_size=2).map(tuple)
        monos = st.builds(Monomial, words, st.integers(-1, 1))
        coeffs = st.sampled_from([Scalar.one(), Scalar.i(), Scalar.rational(3)])
        elems = st.dictionaries(monos, coeffs, min_size=1, max_size=2).map(Element)
        a, b = data.draw(elems), data.draw(elems)
        assert counit(POB.multiply(a, b), POB) == counit(a, POB) * counit(b, POB)


def _tensors_for(preset):
    """Small rank-2 tensors over preset's generators, q-exponents -1..1."""
    words = st.lists(st.sampled_from(preset.generators), max_size=2).map(tuple)
    monos = st.builds(Monomial, words, st.integers(-1, 1))
    coeffs = st.sampled_from([Scalar.one(), Scalar.i(), Scalar.term(-2, 0, kappa=-1)])
    keys = st.tuples(monos, monos)
    return st.dictionaries(keys, coeffs, min_size=1, max_size=2).map(
        lambda terms: TensorElement(2, terms)
    )


@pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_tensor_commutator_is_difference_of_products(preset, data):
    s, t = data.draw(_tensors_for(preset)), data.draw(_tensors_for(preset))
    expected = tensor_multiply(s, t, preset) - tensor_multiply(t, s, preset)
    assert tensor_commutator(s, t, preset) == expected


class TestAxiomSuites:
    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
    def test_coassociativity(self, preset):
        report = check_coassociativity(preset)
        assert report.passed, report.failures()

    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
    def test_counit_axiom(self, preset):
        report = check_counit_axiom(preset)
        assert report.passed, report.failures()

    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
    def test_antipode_axiom(self, preset):
        report = check_antipode_axiom(preset)
        assert report.passed, report.failures()

    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
    def test_coproduct_homomorphism(self, preset):
        report = check_coproduct_homomorphism(preset)
        assert report.passed, report.failures()

    def test_coassociativity_momentum_bicross_explicit(self):
        # both composites must equal P1x1x1 + q^-2xP1x1 + q^-2xq^-2xP1
        d = coproduct(gen(Gen.P1), POB)
        lhs = coproduct_slot(d, 0, POB)
        rhs = coproduct_slot(d, 1, POB)
        q2 = Monomial((), -2)
        p1 = Monomial((Gen.P1,))
        expected = TensorElement(
            3,
            {
                (p1, ONE, ONE): Scalar.one(),
                (q2, p1, ONE): Scalar.one(),
                (q2, q2, p1): Scalar.one(),
            },
        )
        assert lhs == expected and rhs == expected

    def test_antipode_axiom_on_degree_two_elements(self):
        # the axiom extends linearly; smoke-check composite elements
        from kappahopf.hopf import antipode_slot_multiply

        samples = [
            (POS, POS.multiply(gen(Gen.N1), gen(Gen.P1))),
            (POB, POB.multiply(gen(Gen.M2), gen(Gen.N3)) + Element.q_power(2)),
            (PB, PB.multiply(gen(Gen.X0), gen(Gen.X1))),
            (PS, PS.multiply(gen(Gen.X1), gen(Gen.P1))),
        ]
        for preset, e in samples:
            d = coproduct(e, preset)
            target = Element.from_scalar(counit(e, preset))
            assert antipode_slot_multiply(d, 0, preset) == target
            assert antipode_slot_multiply(d, 1, preset) == target

    def test_report_serialization_shape(self):
        report = check_coassociativity(POB)
        payload = report.to_dict()
        assert payload["preset"] == "bicross/poincare"
        assert payload["axiom"] == "coassociativity"
        assert all(
            set(e) == {"subject", "pass", "residual_rendering"}
            for e in payload["entries"]
        )


class TestLegOrderRegression:
    def test_transposed_momentum_legs_break_homomorphism(self):
        """With Delta(P_i) legs transposed, Delta no longer respects the
        boost-momentum relation; pins the encoded leg order."""
        dN = coproduct(gen(Gen.N1), POS)
        transposed = t2(
            (Monomial((Gen.P1,)), Monomial((), -1), Scalar.one()),
            (Monomial((), 1), Monomial((Gen.P1,)), Scalar.one()),
        )
        lhs = coproduct(POS.commutator(gen(Gen.N1), gen(Gen.P1)), POS)
        rhs = tensor_commutator(dN, transposed, POS)
        assert not (lhs - rhs).is_zero

    def test_phase_space_is_not_a_bialgebra(self):
        """Mixed position-momentum pairs violate the homomorphism property:
        the cross-product phase space carries no Hopf structure."""
        for preset in (PB, PS):
            lhs = coproduct(preset.commutator(gen(Gen.X1), gen(Gen.P1)), preset)
            rhs = tensor_commutator(
                coproduct(gen(Gen.X1), preset), coproduct(gen(Gen.P1), preset), preset
            )
            assert not (lhs - rhs).is_zero


class TestCasimir:
    def test_structure(self):
        c2 = casimir(Basis.STANDARD)
        assert c2.coefficient(Monomial((), 2)) == Scalar.term(1, 0, kappa=2)
        assert c2.coefficient(Monomial((Gen.P1, Gen.P1))) == Scalar.term(-1, 0, c=-2)
        c2b = casimir(Basis.BICROSS)
        assert c2b.coefficient(Monomial((Gen.P1, Gen.P1), 2)) == Scalar.term(
            -1, 0, c=-2
        )

    def test_momentum_sector_trivial(self):
        for basis, preset in ((Basis.BICROSS, POB), (Basis.STANDARD, POS)):
            assert preset.commutator(casimir(basis), gen(Gen.P2)).is_zero

    def test_rotation_invariance(self):
        for basis, preset in ((Basis.BICROSS, POB), (Basis.STANDARD, POS)):
            assert preset.commutator(casimir(basis), gen(Gen.M3)).is_zero

    def test_boost_invariance(self):
        # the hardest single rewrite: [C2, N_i] = 0 in both bases
        for basis, preset in ((Basis.BICROSS, POB), (Basis.STANDARD, POS)):
            assert preset.commutator(casimir(basis), gen(Gen.N1)).is_zero

    @pytest.mark.parametrize("basis", [Basis.BICROSS, Basis.STANDARD])
    def test_full_centrality(self, basis):
        report = check_centrality(basis)
        assert report.passed, report.failures()
        assert len(report.entries) == 10


class TestJacobi:
    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
    def test_all_triples(self, preset):
        report = check_jacobi(preset)
        assert report.passed, report.failures()
        n = len(preset.generators) + 1  # q included
        assert len(report.entries) == n * (n - 1) * (n - 2) // 6

    @staticmethod
    def _naive_entries(preset):
        """Every inner commutator recomputed per triple, [c, a] taken as is,
        and every commutator the difference of two `multiply` calls, so the
        oracle shares no code with the signed accumulation of `check_jacobi`."""

        def comm(x, y):
            return preset.multiply(x, y) - preset.multiply(y, x)

        subjects = _subjects(preset)
        entries = []
        for i, (na, a) in enumerate(subjects):
            for j in range(i + 1, len(subjects)):
                nb, b = subjects[j]
                for nc, c in subjects[j + 1 :]:
                    total = (
                        comm(comm(a, b), c) + comm(comm(b, c), a) + comm(comm(c, a), b)
                    )
                    entries.append((f"({na}, {nb}, {nc})", total.is_zero, total.render()))
        return entries

    @pytest.mark.parametrize(
        "sector, pair",
        [
            (Sector.POINCARE, None),
            (Sector.PHASESPACE, None),
            (Sector.POINCARE, (Gen.N2, Gen.N1)),
            (Sector.PHASESPACE, (Gen.P0, Gen.X1)),
        ],
    )
    @pytest.mark.parametrize("basis", [Basis.BICROSS, Basis.STANDARD])
    def test_pair_memo_matches_naive_triples(self, basis, sector, pair):
        preset = get_preset(basis, sector)
        if pair is not None:
            perturb = Element.from_scalar(Scalar.term(0, 1, hbar=1))
            preset = preset.with_rule_override(pair, preset.rules[pair] + perturb)
        got = [(e.subject, e.passed, e.residual) for e in check_jacobi(preset).entries]
        expected = self._naive_entries(preset)
        assert got == expected
        # the corrupted tables must actually fail somewhere
        assert all(passed for _, passed, _ in got) == (pair is None)


class TestStructureMapMemo:
    """The coproduct and slot-product memos live on the preset instance."""

    @pytest.mark.parametrize(
        "basis, pair",
        [
            (Basis.BICROSS, (Gen.M2, Gen.M1)),
            (Basis.STANDARD, (Gen.N2, Gen.N1)),
            (Basis.BICROSS, (Gen.P1, Gen.N1)),
        ],
    )
    def test_corrupted_copy_does_not_see_warm_memo(self, basis, pair):
        perturb = Element.from_scalar(Scalar.term(0, 1, hbar=1))
        checks = (check_coassociativity, check_coproduct_homomorphism)
        # the unsorted word hi*lo: its coproduct rewrites the corrupted pair
        # in the first slot, so a memo shared with the base preset shows here
        word = Element.term(Monomial(pair), Scalar.one())

        def corrupted_results(base):
            bad = base.with_rule_override(pair, base.rules[pair] + perturb)
            return [check(bad).to_dict() for check in checks], coproduct(word, bad)

        get_preset.cache_clear()
        cold_reports, cold_word = corrupted_results(get_preset(basis, Sector.POINCARE))
        get_preset.cache_clear()
        warm_base = get_preset(basis, Sector.POINCARE)
        assert all(check(warm_base).passed for check in checks)
        assert coproduct(word, warm_base) != cold_word
        warm_reports, warm_word = corrupted_results(warm_base)
        assert warm_reports == cold_reports
        assert warm_word == cold_word
        assert not all(report["pass"] for report in warm_reports)

    @pytest.mark.parametrize("preset", ALL_PRESETS, ids=lambda p: repr(p))
    def test_memoized_coproduct_matches_fresh_recomputation(self, preset):
        get_preset.cache_clear()
        memoized = get_preset(preset.basis, preset.sector)
        subjects = [e for _, e in _subjects(memoized)]
        # degree-2 products exercise the slot-product memo as well
        elements = subjects + [memoized.multiply(a, b) for a in subjects for b in subjects]
        first = [coproduct(e, memoized) for e in elements]
        again = [coproduct(e, memoized) for e in elements]
        fresh = AlgebraPreset(preset.basis, preset.sector, preset.rules, preset.qrules)
        for e, got_first, got_again in zip(elements, first, again):
            fresh._coproduct_cache.clear()
            fresh._product_cache.clear()
            expected = coproduct(e, fresh)
            assert got_first == expected and got_again == expected, e.render()
