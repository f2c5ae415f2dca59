"""Expression grammar: parsing, evaluation, rendering round trips."""

import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from kappahopf.elements import GEN_BY_NAME, LORENTZ, Gen, Monomial, Element
from kappahopf import grammar
from kappahopf.errors import ParseError, ResourceLimitError, SectorError
from kappahopf.grammar import _sector_of, eval_text, parse, tokenize
from kappahopf.hopf import antipode
from kappahopf.presets import NF_MEMO_LETTERS, Basis, Sector, get_preset
from kappahopf.scalars import Scalar


def _memo_letters(preset) -> int:
    """Letters of the words held by both normal-form generations."""
    return sum(map(len, preset._nf_young)) + sum(map(len, preset._nf_old))


class TestParse:
    def test_commutator_node(self):
        assert parse("[N1, P1]") == ("comm", ("sym", "N1"), ("sym", "P1"))

    def test_sum_of_product_and_scaled_generator(self):
        node = parse("x0 x1 + (i hbar / (kappa c)) x1")
        kappa_c = ("product", ("sym", "kappa"), (("*", ("sym", "c")),))
        scale = ("product", ("sym", "i"), (("*", ("sym", "hbar")), ("/", kappa_c)))
        assert node == (
            "sum",
            ("product", ("sym", "x0"), (("*", ("sym", "x1")),)),
            (("+", ("product", scale, (("*", ("sym", "x1")),))),),
        )

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
        assert node == (
            "sum", ("sym", "x0"), (("+", ("product", ("sym", "x1"), (("*", ("sym", "x2")),))),)
        )

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

_MIXED = "expression mixes position and Lorentz generators; no sector admits it"


def _char_loop_tokens(source):
    """The character-loop lexer the regex lexer replaced, frozen as an oracle:
    (kind, text, line, column) per token, then EOF."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if "0" <= ch <= "9":
            j = i
            while j < n and "0" <= source[j] <= "9":
                j += 1
            tokens.append(("NUMBER", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("IDENT", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if source.startswith("|>", i):
            tokens.append(("|>", "|>", line, col))
            i += 2
            col += 2
            continue
        if ch in "+-*/^()[],<>|":
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("unexpected character", line, col, found=ch)
    tokens.append(("EOF", "", line, col))
    return tokens


_FRAGMENTS = [
    "P1", "x0", "N2", "M3", "q", "hbar", "kappa", "eps", "D", "S", "i", "c", "12",
    "0", "|>", "|", ">", "<", "+", "-", "*", "/", "^", "(", ")", "[", "]", ",",
    " ", "  ", "\n", "\t", "\u00e9", "_", "\u00b2", "\u0663", "e\u0301", "\u00a0",
]
_SOURCES = st.one_of(
    st.lists(st.sampled_from(_FRAGMENTS), max_size=24).map("".join),
    st.text(alphabet=sorted(set("".join(_FRAGMENTS) + "?$")), max_size=40),
)


@settings(max_examples=600, deadline=None)
@given(_SOURCES)
def test_tokenize_matches_character_loop_lexer(source):
    try:
        expect = _char_loop_tokens(source)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            tokenize(source)
        assert (str(err.value), err.value.line, err.value.column) == (
            str(exc),
            exc.line,
            exc.column,
        )
        return
    got = []
    for kind, text, offset in tokenize(source):
        line = source.count("\n", 0, offset) + 1
        column = offset - source.rfind("\n", 0, offset)
        got.append((kind, text, line, column))
    assert got == expect


def test_trailing_whitespace_lexes_in_linear_time():
    # a search that retries `\s*` at each trailing position is quadratic:
    # 10^4 trailing spaces alone took seconds that way
    source = "[x0, P1] +" + " \t\n" * 10_000
    t0 = time.perf_counter()
    tokens = tokenize(source)
    elapsed = time.perf_counter() - t0
    assert tokens[-1] == ("EOF", "", len(source))
    assert elapsed < 1.0
    with pytest.raises(ParseError) as err:
        parse(source)
    assert (err.value.line, err.value.column) == (10_001, 1)


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

    @pytest.mark.parametrize(
        "source, sector, message",
        [
            ("x0 N1", None, _MIXED),
            ("[x0, N1]", None, _MIXED),
            ("(x0 + N1)^2", None, _MIXED),
            ("x0 P1", Sector.POINCARE, "position generators are not admissible in the poincare sector"),
            ("[N1, P1]", Sector.PHASESPACE, "Lorentz generators are not admissible in the phasespace sector"),
        ],
    )
    def test_sector_errors_are_pinned(self, source, sector, message):
        with pytest.raises(SectorError) as err:
            eval_text(source, Basis.BICROSS, sector)
        assert type(err.value) is SectorError and str(err.value) == message

    @pytest.mark.parametrize(
        "source, message",
        [
            ("D(P1)^2 + 1", "cannot add a tensor to a non-tensor value"),
            ("D(P1)/q", "cannot multiply a tensor by a non-scalar element"),
            *(
                (source, "tensor value used where an element is required")
                for source in (
                    "[D(P1), P1]",
                    "S(D(P1))",
                    "eps(D(P1))",
                    "D(D(P1))",
                    "<D(P1) | x1>",
                    "D(P1) |> x1",
                )
            ),
            ("x0/(0 q)", "division is only defined by invertible scalar or q-power factors"),
            ("D(q)^-1", "division is only defined by invertible scalar or q-power factors"),
        ],
    )
    def test_mixed_type_errors_are_pinned(self, source, message):
        with pytest.raises(SectorError) as err:
            eval_text(source)
        assert type(err.value) is SectorError and str(err.value) == message

    @pytest.mark.parametrize(
        "source, names, message",
        [
            ("M1 x0", {"x0"}, "generator M1 is not admissible in the phasespace sector"),
            ("x0 M1", set(), "generator x0 is not admissible in the poincare sector"),
        ],
    )
    def test_evaluate_checks_each_generator_leaf(self, source, names, message):
        # names that disagree with the tree must not let a product run unchecked
        with pytest.raises(SectorError) as err:
            grammar.evaluate(parse(source), names, "bicross", None)
        assert type(err.value) is SectorError and str(err.value) == message

    def test_sector_inference(self):
        def infer(source, explicit=None):
            names = set()
            parse(source, names)
            return _sector_of(names, explicit)

        assert infer("[x0, P1]") is Sector.PHASESPACE
        assert infer("[N1, P1]") is Sector.POINCARE
        assert infer("[P0, P1]") is Sector.POINCARE
        with pytest.raises(SectorError):
            infer("x0 N1")
        with pytest.raises(SectorError):
            infer("[x0, x1]", Sector.POINCARE)
        # every name the parser accepts, read off its unknown-symbol error,
        # less the three that take an operand in parentheses
        with pytest.raises(ParseError) as err:
            parse("unknown")
        symbols = [name for name in err.value.expected if name not in ("D", "S", "eps")]
        assert len(symbols) == 19
        sectors = (Sector.POINCARE, Sector.PHASESPACE)
        # the oracle: each preset's own generators; q and the constants are in every sector
        allowed = {s: get_preset(Basis.BICROSS, s).allowed for s in sectors}

        def admits(sector, names):
            return all(n not in GEN_BY_NAME or GEN_BY_NAME[n] in allowed[sector] for n in names)

        for symbol in symbols:
            for context in ("", "x0 ", "N1 "):
                source = context + symbol
                names = set()
                parse(source, names)
                assert names == set(source.split())
                admitting = [s for s in sectors if admits(s, names)]
                for explicit in (None, *sectors):
                    if explicit is not None:
                        expect = explicit if explicit in admitting else None
                    else:
                        expect = admitting[0] if admitting else None
                    if expect is None:
                        with pytest.raises(SectorError):
                            _sector_of(names, explicit)
                        with pytest.raises(SectorError):
                            eval_text(source, Basis.BICROSS, explicit)
                    else:
                        assert _sector_of(names, explicit) is expect, (source, explicit)
                        eval_text(source, Basis.BICROSS, explicit)

    @pytest.mark.parametrize(
        "base, n, sector",
        [
            ("x0", 1000, Sector.PHASESPACE),
            ("2 P1 q", 37, Sector.POINCARE),
            ("x0 P1", 9, Sector.PHASESPACE),
            ("N1 q^-1", 6, Sector.POINCARE),
        ],
    )
    def test_single_term_power_matches_sequential_product(self, base, n, sector):
        preset = get_preset(Basis.BICROSS, sector)
        element = eval_text(base).as_element()
        expect = Element.one()
        for _ in range(n):
            expect = preset.multiply(expect, element)
        assert eval_text(f"({base})^{n}").as_element() == expect

    def test_single_term_power_caches_few_words(self):
        preset = get_preset(Basis.BICROSS, Sector.PHASESPACE)
        before = _memo_letters(preset)
        eval_text("x3^1000")
        # n successive products would cache x3^k for every k <= 1000
        assert _memo_letters(preset) - before < 4000

    @pytest.mark.parametrize(
        "source",
        [" ".join(["P1"] * 4000), "(P1 + P2)^60", "(P1 + P2)^100"],
        ids=["P1-chain-4000", "(P1+P2)^60", "(P1+P2)^100"],
    )
    def test_memo_letters_stay_within_budget(self, source):
        # unbounded, the memo kept every intermediate word: 8001999, 147620
        # and 676700 letters; each generation now holds at most the budget
        # plus the words of one request
        preset = get_preset(Basis.BICROSS, Sector.POINCARE)
        eval_text(source)
        assert preset._nf_letters == sum(map(len, preset._nf_young))
        assert _memo_letters(preset) < 8 * NF_MEMO_LETTERS

    @pytest.mark.parametrize("basis", list(Basis))
    @pytest.mark.parametrize("sector", list(Sector))
    def test_results_agree_across_turnovers(self, basis, sector):
        # anti-normal-ordered words with a q power in front, and commutators
        # of shorter ones, as in the rewrite-stream benchmark, through one
        # preset whose memo turns over several times; every result must equal
        # a cold preset's
        preset = get_preset.__wrapped__(basis, sector)
        rng = random.Random(24)

        def anti_word(lo, hi, max_lorentz):
            word = []
            for _ in range(rng.randint(lo, hi)):
                g = rng.choice(preset.generators)
                while g in LORENTZ and sum(x in LORENTZ for x in word) >= max_lorentz:
                    g = rng.choice(preset.generators)
                word.append(g)
            q = Element.term(Monomial((), rng.choice((-2, -1, 0, 1, 2))), Scalar.one())
            return q, Element.term(Monomial(tuple(sorted(word, reverse=True))), Scalar.one())

        turnovers = 0
        for _ in range(200):
            young = preset._nf_young
            fresh = get_preset.__wrapped__(basis, sector)
            if rng.random() < 0.7:
                q, word = anti_word(3, 9, 2)
                assert preset.multiply(q, word) == fresh.multiply(q, word)
            else:
                a, b = (preset.multiply(*anti_word(1, 4, 1)) for _ in range(2))
                assert preset.commutator(a, b) == fresh.commutator(a, b)
            turnovers += preset._nf_young is not young
            assert preset._nf_letters == sum(map(len, preset._nf_young))
        assert turnovers >= 2
        # a word only the old generation holds is copied into young as it is;
        # a request turns the memo over first, as every request does
        preset.normal_form(Element.one())
        word = next(w for w in preset._nf_old if w not in preset._nf_young)
        letters = preset._nf_letters
        terms = preset._nf_word(word)
        assert terms is preset._nf_old[word] and preset._nf_young[word] is terms
        assert preset._nf_letters == letters + len(word)
        fresh = get_preset.__wrapped__(basis, sector)
        assert Element._wrap(terms) == fresh.normal_form(
            Element.term(Monomial(word), Scalar.one())
        )

    @pytest.mark.parametrize("sector", list(Sector))
    def test_normal_form_turns_the_memo_over(self, sector):
        # normal_form is a request from outside the rewrite recursion: past the
        # letter budget, young becomes old and a fresh young starts
        preset = get_preset.__wrapped__(Basis.BICROSS, sector)
        p1 = (Gen.P1,)
        for k in range(1, 129):
            preset._nf_word(p1 * k)
        assert preset._nf_letters == 128 * 129 // 2 == NF_MEMO_LETTERS + 64
        young = preset._nf_young
        assert preset.normal_form(Element.generator(Gen.P2)).render() == "P2"
        assert preset._nf_old is young and p1 * 128 in preset._nf_old
        assert list(preset._nf_young) == [(Gen.P2,)] and preset._nf_letters == 1
        # under the budget, a request keeps young
        young = preset._nf_young
        preset.normal_form(Element.generator(Gen.P3))
        assert preset._nf_young is young and preset._nf_letters == 2

    @pytest.mark.parametrize("expression", ["P1^4097", "(P1 + P2)^4097", "D(P1)^4097"])
    def test_power_above_limit_is_typed(self, expression):
        assert grammar.MAX_POWER == 4096
        assert eval_text("P1^4096").render() == "P1^4096"
        with pytest.raises(ResourceLimitError, match="exponent 4097"):
            eval_text(expression)

    @pytest.mark.parametrize(
        "expression, message",
        [
            ("(2/3)^2650000", "exponent 2650000 is above the limit of 131072 for powers of a "
                              "coefficient of 2 bits"),
            ("(2/3 + 5/7 i)^1000000", "exponent 1000000 is above the limit of 52428 for powers "
                                      "of a coefficient of 5 bits"),
            ("3^100000000", "exponent 100000000 is above the limit of 131072"),
            ("(1 + hbar)^8000", "exponent 8000 is above the limit of 4096 for powers of sums"),
            ("((1 + hbar) q)^8000", "exponent 8000 is above the limit of 4096"),
        ],
    )
    def test_scalar_power_above_limit_is_typed(self, expression, message):
        assert grammar.MAX_POWER_BITS == 1 << 18
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=re.escape(message)):
            eval_text(expression)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "expression, value",
        [("q^100000000", "q^100000000"), ("i^100000000", "1"), ("(-1)^99999999999", "-1"),
         ("2^100000 / 2^99999", "2"), ("(1 + i)^262144 / 2^131072", "1"), ("0^100000000", "0")],
    )
    def test_unit_and_small_scalar_powers_evaluate(self, expression, value):
        assert eval_text(expression).render() == value

    def test_product_above_limit_is_typed(self):
        # a chain of generators multiplies left to right, so each factor
        # rewrites the whole partial product: time grows as its length squared
        assert eval_text(" ".join(["2"] * 4096)).data == Scalar.rational(2**4096)
        with pytest.raises(ResourceLimitError, match="more than 4096 factors"):
            eval_text(" ".join(["P1"] * 4097))

    @pytest.mark.parametrize(
        "chain",
        [
            " ".join(["(2/3)^100000"] * 16),
            "(2/3)^100000 P1 q (2/3)^100000",
            "(3/2)^100000 / (2/3)^100000",
            "P1 (2/3 + 5/7 i)^50000 x0 (2/3 + 5/7 i)^50000",
        ],
    )
    def test_product_of_large_scalar_factors_is_typed(self, chain):
        # each factor is inside the power's bit budget; the chain's running
        # count of their bits refuses the second one before multiplying
        message = f"the scalar factors of a product have more than {grammar.MAX_POWER_BITS} bits"
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=re.escape(message)):
            eval_text(chain)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize(
        "expression, message",
        [
            *((" ".join(["((2/3)^100000 P1)"] * n), "the scalar factors of a product have more "
               f"than {grammar.MAX_POWER_BITS} bits") for n in (2, 4, 8)),
            ("D((2/3)^100000 P1) D((2/3)^100000 P1)", "the scalar factors of a product"),
            ("((2/3)^20000 P1)^64", "exponent 64 is above the limit of 8 for powers of a "
                                    "coefficient of 31700 bits"),
            ("((2/3)^20000 + hbar)^64", "exponent 64 is above the limit of 8 for powers of a "
                                        "coefficient of 31700 bits"),
        ],
        ids=["chain-2", "chain-4", "chain-8", "tensor-chain", "element-power", "sum-power"],
    )
    def test_large_element_coefficients_are_counted(self, expression, message):
        # an element's or tensor's coefficients count by the same `_bits` as a
        # scalar factor's, in a product chain and in a power's base
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=re.escape(message)):
            eval_text(expression)
        assert time.perf_counter() - start < 1.0

    def test_bits_of_an_element_skip_the_shared_one(self):
        assert grammar._bits(eval_text("P1 + q + x0").data) == 0
        # a q power of either sign carries the shared one itself
        for text in ("q^2", "q^-1", "q^-2"):
            [coeff] = eval_text(text).data._terms.values()
            assert coeff is Scalar.one()
        assert grammar._bits(eval_text("P1 + 8 x0").data) == grammar._bits(Scalar.rational(8)) == 3
        assert grammar._bits(eval_text("D(5 P1)").data) == 2

    def test_large_scalar_factor_alone_evaluates(self):
        assert eval_text("(2/3)^100000").data == Scalar.rational(2**100000, 3**100000)
        assert eval_text("(2/3)^100000 P1").as_element() == Element.term(
            Monomial((Gen.P1,)), Scalar.rational(2**100000, 3**100000)
        )
        # a power of an element with small coefficients keeps MAX_POWER as its limit
        assert eval_text("(2 P1)^4096").as_element() == Element.term(
            Monomial((Gen.P1,) * 4096), Scalar.rational(2**4096)
        )

    def test_shared_preset_recovers_after_recursion_limit(self):
        # M1 moves left past M2^1200 one swap, and one recursion, at a time
        preset = get_preset(Basis.BICROSS, Sector.POINCARE)
        with pytest.raises(ResourceLimitError):
            eval_text("M2^1200 M1")
        # the aborted request stored only complete words, each counted once
        assert preset._nf_letters == sum(map(len, preset._nf_young))
        # memo values are plain term dicts, Monomial -> nonzero Scalar, and a
        # sample of them matches a cold preset's normal form of the same word
        memo = {**preset._nf_old, **preset._nf_young}
        for terms in memo.values():
            assert type(terms) is dict
            for mono, coeff in terms.items():
                assert type(mono) is Monomial and type(coeff) is Scalar and not coeff.is_zero
        fresh = get_preset.__wrapped__(Basis.BICROSS, Sector.POINCARE)
        sample = sorted(memo, key=lambda word: (len(word), word))
        for word in sample[:: max(1, len(sample) // 40)]:
            want = fresh.normal_form(Element.term(Monomial(word), Scalar.one()))
            assert Element._wrap(memo[word]) == want, word
        m2_40 = Element.term(Monomial((Gen.M2,) * 40), Scalar.one())
        expect = fresh.multiply(m2_40, Element.generator(Gen.M1))
        got = eval_text("M2^40 M1").as_element()
        assert got == expect and len(got) == 41

    @pytest.mark.parametrize("k", [30, 40])
    @pytest.mark.parametrize("basis", list(Basis))
    def test_nested_corrections_reach_long_words(self, basis, k):
        # the correction of each swap of M1 is rewritten inside that swap's
        # frame, so the depth of M2^k M1 is k(k+1)/2 + 1: 821 frames at k = 40
        # under the default limit of 1000, which a second frame per rewrite
        # level would double past it; a cold preset recurses in full
        got = eval_text(f"M2^{k} M1", basis).as_element()
        assert len(got) == k + 1
        m2_k = Element.term(Monomial((Gen.M2,) * k), Scalar.one())
        fresh = get_preset.__wrapped__(basis, Sector.POINCARE)
        assert got == fresh.multiply(m2_k, Element.generator(Gen.M1))

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

    def test_long_sum_round_trips(self):
        # past the old recursion bound of about 990 terms on a sum
        terms = {
            Monomial((Gen.P0,) * a + (Gen.P1,) * b, qexp): Scalar.term(
                a + 1, qexp, kappa=-b
            )
            for a in range(10)
            for b in range(10)
            for qexp in range(-5, 5)
        }
        e = Element(terms)
        assert len(e) == 1000
        assert eval_text(e.render()).as_element() == e

    def test_scalar_round_trips(self):
        from fractions import Fraction

        scalars = [
            Scalar.one(),
            -Scalar.i(),
            Scalar.term(0, -1, hbar=1, kappa=-1, c=-1),
            Scalar.term(Fraction(1, 2), Fraction(-3, 4)),
            Scalar.term(2, 0, hbar=2, kappa=-2, c=1) + Scalar.i(),
        ]
        for s in scalars:
            e = Element.from_scalar(s)
            assert eval_text(e.render()).as_element() == e
