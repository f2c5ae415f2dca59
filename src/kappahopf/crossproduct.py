"""Hopf duality pairing, left action, cross-product phase space, basis map.

The pairing <x_mu, P_nu> = -i hbar g_{mu nu} with g = (-1, 1, 1, 1) makes the
configuration and momentum sectors dual Hopf algebras.  Powers of the
group-like q pair against a single position generator through the formal
exponential: <q^a, x_mu> = (a / 2 kappa c) <P0, x_mu>; all higher-order terms
of the exponential pair to zero against a primitive x_mu.

The pairing extends to products through the coproducts.  Written sources are
ambiguous about which Sweedler leg pairs which factor, so both coherent
conventions are implemented:

    LEFT  : <p, a b> = <p1, a><p2, b>,  <p pt, y> = <p, y1><pt, y2>,
            action p |> x = <p, x2> x1
    RIGHT : the mirror image of all three rules.

LEFT is the default: it is the unique convention under which the pairing is
well defined on the noncommutative configuration space and the module-algebra
law holds.  RIGHT is kept as the evidence: `tests/test_crossproduct.py` shows
that it reproduces the generator-level relation table, yet its pairing is not
well defined and its action breaks the module-algebra law.

Pairings and actions are memoized per monomial pair on the shared phase-space
preset, keyed by (convention, momentum monomial, position monomial).  The
cross product reads monomial actions from that memo, and every monomial
coproduct in place from `hopf.coproduct_monomial`, without copying; `pair`
and `left_action` sum the memoized values over the terms of their arguments.
Each public call looks the preset up once and passes it down, so a context
still sees a fresh preset after `get_preset.cache_clear()`.

Letter-count rule.  Write #g(w) for the number of letters g in a word w.
For a momentum monomial p and a position word x (in any order),

    <p, x> = 0   unless #P_k(p) == #x_k(x) for k = 1..3 and #P0(p) <= #x0(x),
    p |> x = 0   if #P_k(p) > #x_k(x) for some k, or #P0(p) > #x0(x).

Proof, in either convention, from three facts.  (1) The base pairings: P_k
pairs only with x_k, P0 and every power of q only with x0, and <p, 1> is
eps(p), zero unless p has no letter.  (2) Momentum coproducts keep every
letter: each generator coproduct puts the letter in exactly one leg, next to
q powers, and momenta and q commute, so the slot products never rewrite;
every term u (x) v of Delta(p) has #g(u) + #g(v) = #g(p) for each momentum
letter g.  (3) Position rewriting never adds a letter: x_k x0 = x0 x_k +
(i hbar / kappa c) x_k drops an x0, the x_k commute, and positions are
primitive, so every term y1 (x) y2 of Delta(x) has #x_k(y1) + #x_k(y2) ==
#x_k(x) and #x0(y1) + #x0(y2) <= #x0(x).  The pairing recursion splits x
into a head letter and a tail word, with no rewriting, and pairs them with
the legs of Delta(p) by (2); induction on the length of x with (1) as the
base gives the pairing rule, q absorbing any extra x0.  The action pairs p
with one leg of Delta(x), which by (3) has at most as many letters of each
kind as x, so the pairing rule gives the action rule.  Facts (1)-(3) hold on
the shared `get_preset` phase-space presets, the only ones pairings and
actions run on: a `with_rule_override` copy enters this module only as the
relation table that `derive_phase_space_relations` compares against.

The rule runs only on a memo miss, so a hit costs one dict lookup, and a
value it proves zero is not stored.  For the pairing it is more than a
shortcut: the base cases of `_pair_mono_fresh` hold only for the pairs it
lets through, where pm has no letter if xm is empty and at most one if xm is
one letter.  Without it the recursion pairs P0 P1 with x0 as P0 with x0, and
the derived phase-space relations come out wrong.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import chain, combinations, product

from .elements import (
    Gen,
    Monomial,
    MOMENTA,
    POSITIONS,
    SPATIAL_P,
    SPATIAL_X,
    Element,
    accumulate,
)
from .errors import PairingError
from .hopf import TensorElement, coproduct, coproduct_monomial
from .presets import AlgebraPreset, Basis, Sector, _tuple_new, get_preset
from .reports import (
    BasisMapCandidate,
    BasisMapReport,
    DerivationEntry,
    DerivationReport,
    FrozenRecord,
)
from .scalars import Scalar


class Convention(str, Enum):
    LEFT = "left"
    RIGHT = "right"


class PairingContext(FrozenRecord):
    __slots__ = ("basis", "convention")

    def __init__(self, basis: Basis, convention: Convention = Convention.LEFT):
        # the enum members themselves: the pairing tests them by identity
        self._init(Basis(basis), Convention(convention))

    @property
    def preset(self) -> AlgebraPreset:
        return get_preset(self.basis, Sector.PHASESPACE)


# P_mu pairs only with x_mu; x0 needs no entry, since q absorbs extra x0s
_DUAL = {
    Gen.P0: Gen.X0, Gen.P1: Gen.X1, Gen.P2: Gen.X2, Gen.P3: Gen.X3,
    Gen.X1: Gen.P1, Gen.X2: Gen.P2, Gen.X3: Gen.P3,
}


# base pairing of a momentum p and a position x: <P_nu, x_mu> = -i hbar g_{mu nu}
def _base_pairing(p: Gen, x: Gen) -> Scalar:
    if _DUAL[p] is not x:
        return Scalar.zero()
    return Scalar.term(0, 1 if x is Gen.X0 else -1, hbar=1)


def _q_pairing(a: int, x: Gen) -> Scalar:
    """<q^a, x_mu> = (a / 2 kappa c) <P0, x_mu>."""
    if a == 0:
        return Scalar.zero()
    return _base_pairing(Gen.P0, x) * Scalar.term(Fraction(a, 2), 0, kappa=-1, c=-1)


_ZERO = Scalar.zero()
_ONE = Scalar.one()
_NO_ACTION = Element.zero()


def _vanishes(pword: tuple, xword: tuple, exact: bool) -> bool:
    """The letter-count rule of the module docstring: True if p |> x (exact
    false) or <p, x> (exact true) is zero by letter counts alone, for p of
    word pword and x of word xword."""
    for g in pword:
        if pword.count(g) > xword.count(_DUAL[g]):
            return True
    if exact:
        for x in xword:
            if x is not Gen.X0 and xword.count(x) > pword.count(_DUAL[x]):
                return True
    return False


def _check_pairing_operands(p: Element, x: Element):
    """p must be a momentum-sector element, x a position-sector one with no q.
    A bad p is reported before a bad x, and a q power before a foreign letter."""
    for word, _ in p._terms:
        if not MOMENTA.issuperset(word):
            g = next(g for g in word if g not in MOMENTA).render()
            raise PairingError(f"pairing expects a momentum-sector element, found {g}")
    for word, qexp in x._terms:
        if qexp:
            raise PairingError("position-sector elements cannot carry q powers")
        if not POSITIONS.issuperset(word):
            g = next(g for g in word if g not in POSITIONS).render()
            raise PairingError(f"pairing expects a position-sector element, found {g}")


def pair(p: Element, x: Element, ctx: PairingContext) -> Scalar:
    """Duality pairing <p, x>, bilinear over both arguments."""
    _check_pairing_operands(p, x)
    preset = ctx.preset
    total = _ZERO
    for pm, pc in p.items():
        for xm, xc in x.items():
            total = total + _pair_mono(pm, xm, ctx, preset) * pc * xc
    return total


def _pair_mono(
    pm: Monomial, xm: Monomial, ctx: PairingContext, preset: AlgebraPreset
) -> Scalar:
    """<pm, xm>, memoized per (convention, pm, xm) on preset, the phase-space
    preset that the public caller resolved once from ctx."""
    memo = preset._pair_cache
    key = (ctx.convention, pm, xm)
    s = memo.get(key)
    if s is None:
        if _vanishes(pm[0], xm[0], True):
            return _ZERO
        s = memo[key] = _pair_mono_fresh(pm, xm, ctx, preset)
    return s


def _pair_mono_fresh(
    pm: Monomial, xm: Monomial, ctx: PairingContext, preset: AlgebraPreset
) -> Scalar:
    """<pm, xm> for a pair the letter-count rule let through, so pm has no
    more letters than xm: none if xm is empty, at most one if xm is a letter."""
    # <p, 1> = eps(p) and p is a pure q power
    if not xm.word:
        return Scalar.one()
    if len(xm.word) == 1:
        if not pm.word:
            return _q_pairing(pm.qexp, xm.word[0])
        # pm = g q^a: <g q^a, x> = <g, x> eps(q^a) + eps(g) <q^a, x>, and
        # eps(q^a) = 1, eps(g) = 0
        return _base_pairing(pm.word[0], xm.word[0])
    # split the position product through the momentum coproduct; a pure q^a
    # splits as q^a (x) q^a
    dp = coproduct_monomial(pm, preset)
    head, tail = Monomial(xm.word[:1]), Monomial(xm.word[1:])
    if ctx.convention is Convention.RIGHT:
        head, tail = tail, head
    total = _ZERO
    for (u, v), s in dp.items():
        total = total + _pair_mono(u, head, ctx, preset) * _pair_mono(v, tail, ctx, preset) * s
    return total


def left_action(p: Element, x: Element, ctx: PairingContext) -> Element:
    """Module-algebra action p |> x = <p, x_(2)> x_(1) (LEFT convention)."""
    _check_pairing_operands(p, x)
    preset = ctx.preset
    acc: dict[Monomial, Scalar] = {}
    for pm, pc in p.items():
        for xm, xc in x.items():
            accumulate(acc, _act_mono(pm, xm, ctx, preset).items(), pc * xc)
    return Element._wrap(acc)


def _act_mono(
    pm: Monomial, xm: Monomial, ctx: PairingContext, preset: AlgebraPreset
) -> Element:
    """pm |> xm in normal form, memoized per (convention, pm, xm) on preset,
    as in `_pair_mono`.  The kept legs of the position coproduct are added as
    they are: each is a normal word with q-exponent 0, since a sorted word's
    legs are its subwords, the fold normal-orders each slot of any other
    word, and positions are primitive with brackets that carry no q."""
    key = (ctx.convention, pm, xm)
    acted = preset._action_cache.get(key)
    if acted is None:
        if _vanishes(pm[0], xm[0], False):
            return _NO_ACTION
        # LEFT keeps the first leg and pairs p with the second; RIGHT the mirror
        paired = 1 if ctx.convention is Convention.LEFT else 0
        acc: dict[Monomial, Scalar] = {}
        for legs, s in coproduct_monomial(xm, preset).items():
            coeff = _pair_mono(pm, legs[paired], ctx, preset)
            if coeff._store:
                accumulate(acc, ((legs[1 - paired], coeff * s),))
        acted = preset._action_cache[key] = Element._wrap(acc)
    return acted


def _split_phase_monomial(m: Monomial) -> tuple[Monomial, Monomial]:
    """Split an x-before-P normal word into position and momentum parts."""
    cut = len(m.word)
    for i, g in enumerate(m.word):
        if g in MOMENTA:
            cut = i
            break
    if not POSITIONS.isdisjoint(m.word[cut:]):
        raise PairingError(
            "cross product operands must be in x-before-P normal order, got "
            + m.render()
        )
    # slices of an admissible word: no Lorentz letter, so no check needed
    return (
        _tuple_new(Monomial, (m.word[:cut], 0)),
        _tuple_new(Monomial, (m.word[cut:], m.qexp)),
    )


def cross_multiply(a: Element, b: Element, ctx: PairingContext) -> Element:
    """Left cross product  (x (x) p)(xt (x) pt) = x (p_(1) |> xt) (x) p_(2) pt.

    Operands are mixed phase-space elements in x-before-P normal order; the
    result is returned in the same representation.
    """
    preset = ctx.preset
    preset.check_admissible(a, b)
    return Element._wrap(_cross_product_into({}, a, b, ctx, preset))


def _cross_product_into(acc: dict, a: Element, b: Element, ctx: PairingContext, preset) -> dict:
    """acc += a b in the cross product, in place.  Where x has no letter, the
    position part x (p_(1) |> xt) is the action itself and needs no product:
    it sums position coproduct legs, normal words with no q (see `_act_mono`)."""
    for ma, ca in a.items():
        xa, pa = _split_phase_monomial(ma)
        # a slice of an admissible word, as in `_split_phase_monomial`
        left = Element._wrap({xa: _ONE})
        dpa = coproduct_monomial(pa, preset).items()
        for mb, cb in b.items():
            xb, pb = _split_phase_monomial(mb)
            cab = ca * cb
            for (u, v), s in dpa:
                acted = _act_mono(u, xb, ctx, preset)
                if not acted._terms:
                    continue
                # both factors are position elements of the checked operands
                xpart = preset._product(left, acted) if xa[0] else acted
                # momentum sector is commutative: merge words, add q powers
                pword = tuple(sorted(v.word + pb.word))
                pq = v.qexp + pb.qexp
                moved = (
                    (_tuple_new(Monomial, (xm[0] + pword, xm[1] + pq)), xc)
                    for xm, xc in xpart.items()
                )
                accumulate(acc, moved, cab * s)
    return acc


def cross_commutator(a: Element, b: Element, ctx: PairingContext) -> Element:
    """[a, b] in the cross product: both products accumulated in place into
    one dict, the second as b (-a)."""
    preset = ctx.preset
    preset.check_admissible(a, b)
    acc = _cross_product_into({}, a, b, ctx, preset)
    return Element._wrap(_cross_product_into(acc, b, -a, ctx, preset))


# -- derivation of the phase-space relation table ------------------------------


def _phase_pairs():
    xs = [(g.render(), Element.generator(g)) for g in (Gen.X0, *SPATIAL_X)]
    ps = [(g.render(), Element.generator(g)) for g in (Gen.P0, *SPATIAL_P)]
    q = [("q", Element.q_power(1))]
    pairs = chain(combinations(xs, 2), product(xs, ps + q), combinations(ps, 2), product(ps, q))
    return [(f"[{na}, {nb}]", ea, eb) for (na, ea), (nb, eb) in pairs]


def derive_phase_space_relations(
    preset: AlgebraPreset, convention: Convention = Convention.LEFT
) -> DerivationReport:
    """Recompute every phase-space commutator from the cross product on the
    shared preset of preset's basis and compare it term by term with preset's
    relation table."""
    convention = Convention(convention)
    derived = derived_relation_elements(preset.basis, convention)
    report = DerivationReport(preset.basis.value, convention.value)
    for name, a, b in _phase_pairs():
        table = preset.commutator(a, b)
        report.entries.append(
            DerivationEntry(name, derived[name].render(), table.render(), derived[name] == table)
        )
    return report


def derived_relation_elements(
    basis: Basis, convention: Convention = Convention.LEFT
) -> dict[str, Element]:
    """The commutator of each pair of `_phase_pairs` in the cross product."""
    ctx = PairingContext(basis, convention)
    return {name: cross_commutator(a, b, ctx) for name, a, b in _phase_pairs()}


# -- momentum basis transformation ------------------------------------------------


def _phi(mono: Monomial, sign: int) -> Monomial:
    """P_i -> P_i q^sign, P0 -> P0, q -> q on a momentum monomial.

    The shift depends on the word alone, so phi is injective on monomials and
    maps an element or a tensor term by term with no collisions.
    """
    shift = sum(1 for g in mono.word if g in SPATIAL_P)
    return Monomial(mono.word, mono.qexp + sign * shift)


def basis_map_check() -> BasisMapReport:
    """Test phi_s(P_i) = P_i q^s as a coalgebra map in all four (direction,
    sign) combinations, on the momentum Hopf subalgebra.

    A candidate passes if Delta_target . phi = (phi (x) phi) . Delta_source on
    P0, P1..P3 and q.  The flipped variant (composition with the tensor swap)
    is evaluated as a diagnostic alongside.
    """
    directions = [
        ("standard->bicross", Basis.STANDARD, Basis.BICROSS),
        ("bicross->standard", Basis.BICROSS, Basis.STANDARD),
    ]
    subjects = [Element.generator(g) for g in (Gen.P0, *SPATIAL_P)]
    subjects.append(Element.q_power(1))
    candidates = []
    for name, src, tgt in directions:
        src_preset = get_preset(src, Sector.POINCARE)
        tgt_preset = get_preset(tgt, Sector.POINCARE)
        for sign in (+1, -1):
            ok_flip = True
            residuals = {}
            for e in subjects:
                lhs = coproduct(
                    Element({_phi(m, sign): c for m, c in e.items()}), tgt_preset
                )
                rhs = TensorElement(
                    2,
                    {
                        (_phi(a, sign), _phi(b, sign)): c
                        for (a, b), c in coproduct(e, src_preset).items()
                    },
                )
                d_plain = lhs - rhs
                d_flip = lhs - rhs.flip()
                if not d_plain.is_zero:
                    residuals[e.render()] = d_plain.render()
                if not d_flip.is_zero:
                    ok_flip = False
            # counit compatibility eps . phi = eps (trivially true: eps kills P_i)
            candidates.append(
                BasisMapCandidate(name, sign, not residuals, ok_flip, True, residuals)
            )
    return BasisMapReport(candidates)


# -- canonical classical table ------------------------------------------------------


def canonical_limit_table() -> dict[str, Element]:
    """The nondeformed phase-space relations reached as kappa -> infinity."""
    ih = Scalar.term(0, 1, hbar=1)
    table = {name: Element.zero() for name, _, _ in _phase_pairs()}
    for k in (1, 2, 3):
        table[f"[x{k}, P{k}]"] = Element.from_scalar(ih)
    table["[x0, P0]"] = Element.from_scalar(-ih)
    return table
