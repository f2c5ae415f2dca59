"""Coalgebra layer: tensor elements, coproduct, antipode, counit, Hopf axioms.

The generator coproduct table `_coproducts`, one cached TensorElement per
generator and basis, is the only hand-written Hopf data.  The coproduct is
extended from it as an algebra homomorphism; the antipode of each generator
is solved from it, and extended as an anti-homomorphism with S(q) = q^-1;
the counit is multiplicative with eps(q) = 1.  q is group-like, forced by
the primitive coproduct of P0 under q = exp(P0 / 2 kappa c).

Note on the standard basis: the momentum coproduct is encoded as
Delta(P_i) = P_i (x) q + q^-1 (x) P_i.  The leg-transposed variant fails
coproduct multiplicativity against the boost coproduct (see the regression
test suite), reverses the deformation factor in the derived phase-space
relations, and breaks the momentum-basis transformation, so it is rejected.

Once a preset is fixed, so are its structure maps: the coproduct of each
monomial and each monomial-by-monomial slot product are memoized on the
`AlgebraPreset` instance, so a `with_rule_override` copy never sees the
results of the preset it was copied from.  `coproduct_monomial` hands out
the memo entry, which callers read in place; on a miss it writes a sorted
word of two-legged letters in closed form (its docstring gives the conditions
and why they are exact) and folds every other word, Delta(g w) =
Delta(g) Delta(w): the one general path.  Every slotwise product goes through
the one in-place kernel `_slots_into`.  A tensor commutator is telescoped
over slots (`_tensor_commutator_into`) and a Jacobi sum adds monomial
commutators (`check_jacobi`): identities of bilinear maps, exact for any rule
table.  A difference of two such maps fills one dict, the subtracted one
applied to a negated operand.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations, product

from .elements import (
    BOOSTS,
    Gen,
    LinearCombination,
    Monomial,
    POSITIONS,
    ROTATIONS,
    SPATIAL_P,
    Element,
    accumulate,
)
from .presets import AlgebraPreset, Basis, Sector, _eps, _tuple_new, get_preset
from .reports import CheckEntry, CheckReport
from .scalars import Scalar

_ONE = Scalar.one()


class TensorElement(LinearCombination):
    """Rank-2 or rank-3 tensor-product element with Scalar weights."""

    __slots__ = ("rank",)

    def __init__(self, rank: int, terms: dict[tuple[Monomial, ...], Scalar] | None = None):
        if rank not in (2, 3):
            raise ValueError(f"tensor rank must be 2 or 3, got {rank}")
        if terms and any(len(key) != rank for key in terms):
            raise ValueError("tensor term arity does not match rank")
        self.rank = rank
        super().__init__(terms)

    # named in the class body for the same reason as `Element.__add__`
    __add__ = LinearCombination.__add__

    @classmethod
    def _wrap(cls, terms: dict, rank: int):
        out = super()._wrap(terms)
        out.rank = rank
        return out

    def _like(self, terms: dict):
        return self._wrap(terms, self.rank)

    def _shape(self):
        return self.rank

    @staticmethod
    def unit(rank: int = 2) -> "TensorElement":
        return TensorElement(rank, {(Monomial(),) * rank: Scalar.one()})

    def flip(self) -> "TensorElement":
        """Swap the two slots of a rank-2 tensor."""
        if self.rank != 2:
            raise ValueError("flip is defined for rank-2 tensors")
        return self._like({(b, a): c for (a, b), c in self._terms.items()})

    def render(self, sep: str = " ⊗ ") -> str:
        if not self._terms:
            return "0"
        keys = sorted(self._terms, key=lambda key: [(not m.word, m) for m in key])
        parts = []
        for key in keys:
            coeff = self._terms[key]
            body = sep.join(m.render() for m in key)
            if coeff.is_one:
                parts.append(body)
            else:
                parts.append(f"{coeff.render_single()} {body}")
        return " + ".join(parts)


def tensor_multiply(a: TensorElement, b: TensorElement, preset: AlgebraPreset) -> TensorElement:
    """Slotwise product, no braiding; each slot normalized by the preset."""
    if a.rank != b.rank:
        raise ValueError("tensor ranks differ")
    preset.check_admissible(a, b)
    acc: dict[tuple[Monomial, ...], Scalar] = {}
    mul = preset._multiply_monomials
    for key_a, ca in a.items():
        for key_b, cb in b.items():
            _slots_into(acc, [mul(x, y)._terms for x, y in zip(key_a, key_b)], ca * cb)
    return TensorElement._wrap(acc, a.rank)


def tensor_commutator(a: TensorElement, b: TensorElement, preset: AlgebraPreset) -> TensorElement:
    """[a, b] = ab - ba, telescoped over slots into one dict."""
    if a.rank != b.rank:
        raise ValueError("tensor ranks differ")
    preset.check_admissible(a, b)
    return TensorElement._wrap(_tensor_commutator_into({}, a, b, preset, {}), a.rank)


def _tensor_commutator_into(acc: dict, a, b, preset, brackets: dict) -> dict:
    """acc += [a, b] slotwise, in place; -[a, b] is [-a, b].

    For a pair of terms with slot products X_i = a_i b_i and Y_i = b_i a_i,
    X_1 (x) .. X_r - Y_1 (x) .. Y_r is the sum over slots i of
    Y_1 (x) .. Y_(i-1) (x) (X_i - Y_i) (x) X_(i+1) (x) .. X_r, so a slot that
    commutes adds nothing.  brackets memoizes X_i - Y_i per monomial pair; a
    caller may share it on one preset, and checks a and b as `tensor_commutator` does.
    """
    mul = preset._multiply_monomials
    for key_a, ca in a.items():
        for key_b, cb in b.items():
            cab = ca * cb
            for i, (x, y) in enumerate(zip(key_a, key_b)):
                d = brackets.get((x, y))
                if d is None:
                    xy, yx = mul(x, y), mul(y, x)
                    d = brackets[x, y] = {} if xy == yx else (xy - yx)._terms
                if d:
                    slots = [mul(v, u)._terms for u, v in zip(key_a[:i], key_b[:i])] + [d]
                    slots += [mul(u, v)._terms for u, v in zip(key_a[i + 1 :], key_b[i + 1 :])]
                    _slots_into(acc, slots, cab)
    return acc


def _slots_into(acc: dict, slots: list[dict], coeff: Scalar):
    """acc += coeff * (slots[0] (x) slots[1] (x) ..) in place, for canonical
    slot term dicts and a nonzero coeff."""
    heads = [((), coeff)]
    for slot in slots[:-1]:
        heads = [(key + (m,), c * s) for key, c in heads for m, s in slot.items()]
    last = slots[-1].items()
    accumulate(acc, ((head + (m,), c * s) for head, c in heads for m, s in last))


# -- generator tables ----------------------------------------------------------


@cache
def _coproducts(basis: Basis) -> dict[Gen, TensorElement]:
    """Delta(g) of every generator, the one hand-written table of Hopf data.

    Positions, rotations and P0 are primitive.  Each P_i and N_i has
    g (x) q^r + q^l (x) g, with (r, l) = (0, -2) in bicross and (1, -1) in
    standard.  N_i adds eps_ijk / kc P_j (x) M_k in bicross, and in standard
    eps_ijk / 2kc (P_j (x) M_k q^r + M_j q^l (x) P_k).  Every P_i precedes
    every N_i, so each left leg but g itself is a q power or a word of earlier
    generators, which is the order `_antipodes` solves in.
    """
    one, unit = Monomial(), Scalar.one()
    table = {
        g: {(Monomial((g,)), one): unit, (one, Monomial((g,))): unit}
        for g in (*POSITIONS, *ROTATIONS, Gen.P0)
    }
    bicross = basis is Basis.BICROSS
    r, l, den = (0, -2, 1) if bicross else (1, -1, 2)
    for g in (*SPATIAL_P, *BOOSTS):
        mono = Monomial((g,))
        table[g] = {(mono, Monomial((), r)): unit, (Monomial((), l), mono): unit}
    p, m = SPATIAL_P, ROTATIONS
    for (i, n), j, k in product(enumerate(BOOSTS, 1), (1, 2, 3), (1, 2, 3)):
        if e := _eps(i, j, k):
            coeff = Scalar.term(Fraction(e, den), 0, kappa=-1, c=-1)
            table[n][Monomial((p[j - 1],)), Monomial((m[k - 1],), r)] = coeff
            if not bicross:
                table[n][Monomial((m[j - 1],), l), Monomial((p[k - 1],))] = coeff
    return {g: TensorElement(2, terms) for g, terms in table.items()}


@cache
def _antipodes(basis: Basis) -> dict[Gen, Element]:
    """S(g) of every generator, solved from its coproduct in table order.

    Delta(g) = s g (x) q^r + sum a (x) b', and m(S (x) id) Delta(g) = eps(g) = 0
    gives S(g) = -(sum S(a) b') q^-r s^-1, where each S(a) is already known.
    Positions multiply in the phase-space preset, every other generator in the
    Poincare one: the shared presets, so a corrupted copy sees the same S.
    """
    table: dict[Gen, Element] = {}
    for g, delta in _coproducts(basis).items():
        preset = get_preset(basis, Sector.PHASESPACE if g in POSITIONS else Sector.POINCARE)
        acc: dict[Monomial, Scalar] = {}
        for (a, b), s in delta.items():
            if a == Monomial((g,)):
                head_inverse = Element.term(Monomial((), -b.qexp), -s.inverse())
            else:
                preset._product_into(acc, _anti_image(a, table, preset), Element.term(b, s))
        table[g] = preset._product(Element._wrap(acc), head_inverse)
    return table


# -- structure maps -------------------------------------------------------------


def coproduct(e: Element, preset: AlgebraPreset) -> TensorElement:
    """Algebra-homomorphic extension of the generator coproducts; Delta(q) = q (x) q."""
    preset.check_admissible(e)
    acc: dict[tuple[Monomial, ...], Scalar] = {}
    for mono, coeff in e.items():
        accumulate(acc, coproduct_monomial(mono, preset).items(), coeff)
    return TensorElement._wrap(acc, 2)


def coproduct_monomial(mono: Monomial, preset: AlgebraPreset) -> TensorElement:
    """Delta(mono), the memo entry itself: callers only read it.

    A miss on mono = w q^n takes the closed form when (1) w is sorted, (2)
    every letter is admissible in the preset, (3) every letter's table entry
    is exactly s g (x) q^r + t q^l (x) g, with r = l = 0 for a primitive
    letter, and (4) no letter with a q-rule stands at or right of the first
    letter with a nonzero q leg.  Starting from q^n (x) q^n, each letter g
    appends itself to one slot and its q leg to the other, with weight s or t;
    equal terms merge, which sums the binomial coefficients of a run.  This is
    exact because:
    - g (x) q^r and q^l (x) g commute when g commutes with q, so the two
      choices of each letter may be made independently;
    - a subword of a sorted word is sorted, so already in normal form;
    - q legs pass only letters with no q-rule.
    Every other word is folded, reading no memo entry: q^n (x) q^n, then
    table[g] times it for each letter g of the reversed word.  Only mono is
    stored, once the fold succeeds; a word with a letter from outside the
    sector never takes the closed form, so it fails at `tensor_multiply`'s check.
    """
    memo = preset._coproduct_cache
    t = memo.get(mono)
    if t is None:
        t = _closed_coproduct(mono, preset)
        if t is None:
            q = _tuple_new(Monomial, ((), mono.qexp))
            t = TensorElement._wrap({(q, q): _ONE}, 2)
            table = _coproducts(preset.basis)
            for g in reversed(mono.word):
                t = tensor_multiply(table[g], t, preset)
        memo[mono] = t
    return t


def _closed_coproduct(mono: Monomial, preset: AlgebraPreset) -> TensorElement | None:
    """Delta(w q^n) in the closed form of `coproduct_monomial`, with no slot
    product or rewrite; None where one of its four conditions fails."""
    word, qexp = mono
    if not preset.allowed.issuperset(word) or any(a > b for a, b in zip(word, word[1:])):
        return None
    table = _coproducts(preset.basis)
    # (left word, left q, right word, right q) -> weight, grown letter by letter
    terms = {((), qexp, (), qexp): _ONE}
    legged = False
    for g in word:
        legs = _two_legs(table[g], g)
        if legs is None:
            return None
        s, r, t, l = legs
        legged = legged or bool(r or l)
        if legged and g in preset.qrules:
            return None
        grown: dict = {}
        for (lw, lq, rw, rq), c in terms.items():
            split = (((lw + (g,), lq, rw, rq + r), s), ((lw, lq + l, rw + (g,), rq), t))
            accumulate(grown, split, c)
        terms = grown
    acc = {(_tuple_new(Monomial, k[:2]), _tuple_new(Monomial, k[2:])): c for k, c in terms.items()}
    return TensorElement._wrap(acc, 2)


def _two_legs(delta: TensorElement, g: Gen) -> tuple[Scalar, int, Scalar, int] | None:
    """(s, r, t, l) when delta is exactly s g (x) q^r + t q^l (x) g, else None."""
    if len(delta) != 2:
        return None
    s = t = None
    for ((lw, lq), (rw, rq)), c in delta.items():
        if lw == (g,) and not lq and not rw:
            s, r = c, rq
        elif rw == (g,) and not rq and not lw:
            t, l = c, lq
    if s is None or t is None:
        return None
    return s, r, t, l


def antipode(e: Element, preset: AlgebraPreset) -> Element:
    """Anti-homomorphic extension of the generator antipodes; S(q) = q^-1."""
    preset.check_admissible(e)
    table = _antipodes(preset.basis)
    acc: dict[Monomial, Scalar] = {}
    for mono, coeff in e.items():
        accumulate(acc, _anti_image(mono, table, preset).items(), coeff)
    return Element._wrap(acc)


def _anti_image(mono: Monomial, table: dict[Gen, Element], preset: AlgebraPreset) -> Element:
    """S(g_1 .. g_n q^a) = q^-a S(g_n) .. S(g_1), from the images in table."""
    image = Element.q_power(-mono.qexp)
    # each table[g] is admissible wherever g is, so the product is unchecked
    for g in reversed(mono.word):
        image = preset._product(image, table[g])
    return image


def counit(e: Element, preset: AlgebraPreset) -> Scalar:
    """eps kills every generator, fixes q; multiplicative extension."""
    preset.check_admissible(e)
    total = Scalar.zero()
    for mono, coeff in e.items():
        if not mono.word:
            total = total + coeff
    return total


# -- tensor-slot maps ------------------------------------------------------------


def _check_slot(t: TensorElement, slot: int, what: str) -> None:
    """ValueError unless t has rank 2 and slot is 0 or 1."""
    if t.rank != 2 or slot not in (0, 1):
        raise ValueError(f"{what} expects a rank-2 tensor and slot 0 or 1, "
                         f"got rank {t.rank} and slot {slot!r}")


def coproduct_slot(t: TensorElement, slot: int, preset: AlgebraPreset) -> TensorElement:
    """Apply the coproduct to one slot of a rank-2 tensor, producing rank 3."""
    _check_slot(t, slot, "slot coproduct")
    preset.check_admissible(t)
    return TensorElement._wrap(_coproduct_slot_into({}, t, slot, preset), 3)


def _coproduct_slot_into(acc: dict, t: TensorElement, slot: int, preset) -> dict:
    """acc += (coproduct on one slot of t), in place, for a checked t and slot."""
    for key, coeff in t.items():
        other = key[1 - slot]
        split = (
            ((a, b, other) if slot == 0 else (other, a, b), s)
            for (a, b), s in coproduct_monomial(key[slot], preset).items()
        )
        accumulate(acc, split, coeff)
    return acc


def counit_slot(t: TensorElement, slot: int) -> Element:
    """Contract one slot of a rank-2 tensor with the counit."""
    _check_slot(t, slot, "slot counit")
    # eps is 1 exactly on pure q-powers (their exponent is dropped), 0 else
    kept = ((key[1 - slot], coeff) for key, coeff in t.items() if not key[slot].word)
    return Element._wrap(accumulate({}, kept))


def antipode_slot_multiply(t: TensorElement, slot: int, preset: AlgebraPreset) -> Element:
    """m . (S (x) id) or m . (id (x) S) applied to a rank-2 tensor, every
    product added into one dict after one admissibility check of t."""
    _check_slot(t, slot, "antipode axiom")
    # S maps an admissible monomial to an admissible element, so the images
    # and products below run unchecked
    preset.check_admissible(t)
    table = _antipodes(preset.basis)
    acc: dict[Monomial, Scalar] = {}
    for (m1, m2), coeff in t.items():
        if slot == 0:
            preset._product_into(acc, _anti_image(m1, table, preset), Element._wrap({m2: coeff}))
        else:
            preset._product_into(acc, Element._wrap({m1: coeff}), _anti_image(m2, table, preset))
    return Element._wrap(acc)


# -- axiom suites ----------------------------------------------------------------


def _subjects(preset: AlgebraPreset) -> list[tuple[str, Element]]:
    subs = [(g.render(), Element.generator(g)) for g in preset.generators]
    subs.append(("q", Element.q_power(1)))
    return subs


def _preset_tag(preset: AlgebraPreset) -> str:
    return f"{preset.basis.value}/{preset.sector.value}"


def _report(preset: AlgebraPreset, axiom: str, residuals) -> CheckReport:
    """Report of an axiom whose residuals, (name, residual) pairs, must vanish."""
    entries = [CheckEntry(name, r.is_zero, r.render()) for name, r in residuals]
    return CheckReport(_preset_tag(preset), axiom, entries)


def check_coassociativity(preset: AlgebraPreset) -> CheckReport:
    residuals = []
    for name, e in _subjects(preset):
        d = coproduct(e, preset)
        # (Delta (x) id) Delta - (id (x) Delta) Delta, in one dict
        acc = _coproduct_slot_into({}, d, 0, preset)
        residuals.append((name, TensorElement._wrap(_coproduct_slot_into(acc, -d, 1, preset), 3)))
    return _report(preset, "coassociativity", residuals)


def _two_sided(preset: AlgebraPreset, axiom: str, slot_map, target) -> CheckReport:
    """Report of an axiom whose two sides, slot_map(d, 0) and slot_map(d, 1)
    on the coproduct d of each subject e, must both equal target(e)."""
    entries = []
    for name, e in _subjects(preset):
        d = coproduct(e, preset)
        goal = target(e)
        left, right = slot_map(d, 0), slot_map(d, 1)
        passed = left == goal and right == goal
        sides = "0" if passed else f"{(left - goal).render()} ; {(right - goal).render()}"
        entries.append(CheckEntry(name, passed, sides))
    return CheckReport(_preset_tag(preset), axiom, entries)


def check_counit_axiom(preset: AlgebraPreset) -> CheckReport:
    return _two_sided(preset, "counit", counit_slot, preset.normal_form)


def check_antipode_axiom(preset: AlgebraPreset) -> CheckReport:
    """m(S (x) id) Delta = eps = m(id (x) S) Delta on each generator and q.

    Each S(g) is solved from its left-sided equation, so those entries hold by
    construction; the right-sided entries, and S on q and on products, are the
    real checks.  A changed boost cross term is caught by coproduct-homomorphism.
    """
    # the lambda looks antipode_slot_multiply up per call: perfbench/tracer.py rebinds it
    return _two_sided(preset, "antipode", lambda d, slot: antipode_slot_multiply(d, slot, preset),
                      lambda e: Element.from_scalar(counit(e, preset)))


def _homomorphism_pairs(preset: AlgebraPreset) -> list[tuple[str, Element, Element]]:
    """Generator pairs on which Delta must respect the commutator.

    In the phase-space sector only same-sector pairs are Hopf data: the cross
    relations between positions and momenta are module-algebra structure, and
    the coproduct provably fails to respect them (the deformed phase space is
    not a bialgebra).  The Poincare presets are genuine Hopf algebras, so all
    pairs are checked there, q included.
    """
    subjects = _subjects(preset)
    if preset.sector is Sector.POINCARE:
        pool = [subjects]
    else:
        xs = [s for s in subjects if s[0].startswith("x")]
        ps = [s for s in subjects if not s[0].startswith("x")]
        pool = [xs, ps]
    pairs = (pair for group in pool for pair in combinations(group, 2))
    return [(f"({na}, {nb})", ea, eb) for (na, ea), (nb, eb) in pairs]


def check_coproduct_homomorphism(preset: AlgebraPreset) -> CheckReport:
    residuals = []
    brackets: dict = {}
    for name, a, b in _homomorphism_pairs(preset):
        # Delta([a, b]) - [Delta a, Delta b], both accumulated into one dict
        da, db = coproduct(a, preset), coproduct(b, preset)
        acc = _tensor_commutator_into({}, -da, db, preset, brackets)
        accumulate(acc, coproduct(preset.commutator(a, b), preset).items())
        residuals.append((name, TensorElement._wrap(acc, 2)))
    return _report(preset, "coproduct-homomorphism", residuals)


# -- Casimir -----------------------------------------------------------------------


def casimir(basis: Basis) -> Element:
    """Deformed mass Casimir in q-variables.

    bicross:  kappa^2 (q - q^-1)^2 - q^2 (P1^2+P2^2+P3^2) / c^2
    standard: kappa^2 (q - q^-1)^2 -     (P1^2+P2^2+P3^2) / c^2
    """
    k2 = Scalar.term(1, 0, kappa=2)
    terms: dict[Monomial, Scalar] = {
        Monomial((), 2): k2,
        Monomial(): Scalar.term(-2, 0, kappa=2),
        Monomial((), -2): k2,
    }
    qexp = 2 if Basis(basis) is Basis.BICROSS else 0
    for p in SPATIAL_P:
        terms[Monomial((p, p), qexp)] = Scalar.term(-1, 0, c=-2)
    return Element(terms)


def check_centrality(preset: AlgebraPreset) -> CheckReport:
    """[C, g] = 0 for the Casimir C of preset's basis and each generator g of preset."""
    c2 = casimir(preset.basis)
    residuals = [(g.render(), preset.commutator(c2, Element.generator(g)))
                 for g in preset.generators]
    return _report(preset, "casimir-centrality", residuals)


# -- Jacobi -------------------------------------------------------------------------


def check_jacobi(preset: AlgebraPreset) -> CheckReport:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] = 0 on all generator triples, q included.

    This is the confluence certificate for the relation tables: a consistent
    PBW-like table normalizes every Jacobi sum to zero.  Each inner commutator
    is taken once per pair, [c, a] as -[a, c].  An outer commutator [x, c] is
    added as the sum of coeff * [m, c] over the terms of x, each monomial
    commutator [m, c] taken once per call and skipped when zero; the three
    outer commutators of a triple are added with a sign into one dict.
    """
    residuals = []
    subjects = _subjects(preset)
    inner = {
        (i, j): preset.commutator(subjects[i][1], subjects[j][1])
        for i, j in combinations(range(len(subjects)), 2)
    }
    brackets: dict[tuple[Monomial, int], dict] = {}
    for i, j, k in combinations(range(len(subjects)), 3):
        acc: dict[Monomial, Scalar] = {}
        for pair, t, sign in (((i, j), k, 1), ((j, k), i, 1), ((i, k), j, -1)):
            c = subjects[t][1]
            for m, coeff in inner[pair].items():
                bracket = brackets.get((m, t))
                if bracket is None:
                    # inner commutators of admissible subjects are admissible
                    e = Element._wrap({m: _ONE})
                    bracket = brackets[m, t] = preset._commutator(e, c)._terms
                if bracket:
                    accumulate(acc, bracket.items(), coeff if sign > 0 else -coeff)
        names = ", ".join(subjects[t][0] for t in (i, j, k))
        residuals.append((f"({names})", Element._wrap(acc)))
    return _report(preset, "jacobi", residuals)
