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
law holds (see `select_convention`).

Pairings and actions are memoized per monomial pair on the shared phase-space
preset, keyed by (convention, momentum monomial, position monomial).  The
cross product reads monomial actions from that memo directly; `pair` and
`left_action` sum the memoized values over the terms of their arguments.
Each public call looks the preset up once and passes it down, so a context
still sees a fresh preset after `get_preset.cache_clear()`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

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
from .hopf import TensorElement, coproduct
from .presets import AlgebraPreset, Basis, Sector, get_preset
from .reports import (
    BasisMapCandidate,
    BasisMapReport,
    DerivationEntry,
    DerivationReport,
)
from .scalars import Scalar, _accumulate as _accumulate_scalar, _wrap as _wrap_scalar

HALF = Fraction(1, 2)


class Convention(str, Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class PairingContext:
    basis: Basis
    convention: Convention = Convention.LEFT

    @property
    def preset(self) -> AlgebraPreset:
        return get_preset(self.basis, Sector.PHASESPACE)

    def tag(self) -> str:
        return f"{self.basis.value}/{self.convention.value}"


# base pairings: <P_nu, x_mu> = -i hbar g_{mu nu}
def _base_pairing(p: Gen, x: Gen) -> Scalar:
    if p is Gen.P0 and x is Gen.X0:
        return Scalar.term(0, 1, hbar=1)
    if p in MOMENTA and x in POSITIONS and p - Gen.P0 == x - Gen.X0 and x is not Gen.X0:
        return Scalar.term(0, -1, hbar=1)
    return Scalar.zero()


def _q_pairing(a: int, x: Gen) -> Scalar:
    """<q^a, x_mu> = (a / 2 kappa c) <P0, x_mu>."""
    if a == 0:
        return Scalar.zero()
    return _base_pairing(Gen.P0, x) * Scalar.term(Fraction(a, 2), 0, kappa=-1, c=-1)


def _check_momentum_element(p: Element):
    for mono in p.monomials():
        for g in mono.word:
            if g not in MOMENTA:
                raise PairingError(
                    f"pairing expects a momentum-sector element, found {g.render()}"
                )


def _check_position_element(x: Element):
    for mono in x.monomials():
        if mono.qexp != 0:
            raise PairingError("position-sector elements cannot carry q powers")
        for g in mono.word:
            if g not in POSITIONS:
                raise PairingError(
                    f"pairing expects a position-sector element, found {g.render()}"
                )


def pair(p: Element, x: Element, ctx: PairingContext) -> Scalar:
    """Duality pairing <p, x>, bilinear over both arguments."""
    _check_momentum_element(p)
    _check_position_element(x)
    preset = ctx.preset
    terms: dict = {}
    for pm, pc in p.items():
        for xm, xc in x.items():
            for triple, coeff in (_pair_mono(pm, xm, ctx, preset) * pc * xc)._terms.items():
                _accumulate_scalar(terms, triple, coeff)
    return _wrap_scalar(terms)


def _pair_mono(
    pm: Monomial, xm: Monomial, ctx: PairingContext, preset: AlgebraPreset
) -> Scalar:
    """<pm, xm>, memoized per (convention, pm, xm) on preset, the phase-space
    preset that the public caller resolved once from ctx."""
    memo = preset._pair_cache
    key = (ctx.convention, pm, xm)
    s = memo.get(key)
    if s is None:
        s = memo[key] = _pair_mono_fresh(pm, xm, ctx, preset)
    return s


def _pair_mono_fresh(
    pm: Monomial, xm: Monomial, ctx: PairingContext, preset: AlgebraPreset
) -> Scalar:
    # <p, 1> = eps(p) ; <1, x> = eps(x)
    if not xm.word:
        return Scalar.one() if not pm.word else Scalar.zero()
    if not pm.word:
        if len(xm.word) == 1:
            return _q_pairing(pm.qexp, xm.word[0])
        # group-like split over the position product (both conventions agree)
        left = _pair_mono(pm, Monomial(xm.word[:1]), ctx, preset)
        right = _pair_mono(pm, Monomial(xm.word[1:]), ctx, preset)
        return left * right
    if len(pm.word) == 1 and pm.qexp == 0 and len(xm.word) == 1:
        return _base_pairing(pm.word[0], xm.word[0])
    if len(xm.word) == 1:
        # split the momentum product against the primitive position generator:
        # <g * rest, x> = <g, x> eps(rest) + eps(g) <rest, x>; eps(g) = 0 and
        # eps(rest) = 1 exactly when rest is a pure q power
        g, rest_word = pm.word[0], pm.word[1:]
        if rest_word:
            return Scalar.zero()
        return _base_pairing(g, xm.word[0])
    # general case: split the position product through the momentum coproduct
    dp = coproduct(Element.term(pm, Scalar.one()), preset)
    head, tail = Monomial(xm.word[:1]), Monomial(xm.word[1:])
    if ctx.convention is Convention.RIGHT:
        head, tail = tail, head
    terms: dict = {}
    for (u, v), s in dp.items():
        product = _pair_mono(u, head, ctx, preset) * _pair_mono(v, tail, ctx, preset) * s
        for triple, coeff in product._terms.items():
            _accumulate_scalar(terms, triple, coeff)
    return _wrap_scalar(terms)


def left_action(p: Element, x: Element, ctx: PairingContext) -> Element:
    """Module-algebra action p |> x = <p, x_(2)> x_(1) (LEFT convention)."""
    _check_momentum_element(p)
    _check_position_element(x)
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
    as in `_pair_mono`."""
    key = (ctx.convention, pm, xm)
    acted = preset._action_cache.get(key)
    if acted is None:
        # LEFT keeps the first leg and pairs p with the second; RIGHT the mirror
        paired = 1 if ctx.convention is Convention.LEFT else 0
        acc: dict[Monomial, Scalar] = {}
        for legs, s in coproduct(Element.term(xm, Scalar.one()), preset).items():
            coeff = _pair_mono(pm, legs[paired], ctx, preset)
            if not coeff.is_zero:
                accumulate(acc, [(legs[1 - paired], coeff * s)])
        acted = preset._action_cache[key] = preset.normal_form(Element._wrap(acc))
    return acted


def _split_phase_monomial(m: Monomial) -> tuple[Monomial, Monomial]:
    """Split an x-before-P normal word into position and momentum parts."""
    cut = len(m.word)
    for i, g in enumerate(m.word):
        if g in MOMENTA:
            cut = i
            break
    if any(g in POSITIONS for g in m.word[cut:]):
        raise PairingError(
            "cross product operands must be in x-before-P normal order, got "
            + m.render()
        )
    return Monomial(m.word[:cut]), Monomial(m.word[cut:], m.qexp)


def cross_multiply(a: Element, b: Element, ctx: PairingContext) -> Element:
    """Left cross product  (x (x) p)(xt (x) pt) = x (p_(1) |> xt) (x) p_(2) pt.

    Operands are mixed phase-space elements in x-before-P normal order; the
    result is returned in the same representation.
    """
    preset = ctx.preset
    preset.check_admissible(a)
    preset.check_admissible(b)
    return Element._wrap(_cross_product_into({}, a, b, ctx, preset, 1))


def _cross_product_into(
    acc: dict, a: Element, b: Element, ctx: PairingContext, preset, sign: int
) -> dict:
    """acc += sign * (a b) in the cross product, in place; sign is +1 or -1
    and is folded into ca * cb once per pair of operand terms."""
    for ma, ca in a.items():
        xa, pa = _split_phase_monomial(ma)
        left = Element.term(xa, Scalar.one())
        dpa = coproduct(Element.term(pa, Scalar.one()), preset).items()
        for mb, cb in b.items():
            xb, pb = _split_phase_monomial(mb)
            cab = ca * cb if sign > 0 else -(ca * cb)
            for (u, v), s in dpa:
                # both factors are position elements of the checked operands
                xpart = preset._product(left, _act_mono(u, xb, ctx, preset))
                # momentum sector is commutative: merge words, add q powers
                pword = tuple(sorted(v.word + pb.word))
                pq = v.qexp + pb.qexp
                moved = (
                    (Monomial(xm.word + pword, xm.qexp + pq), xc)
                    for xm, xc in xpart.items()
                )
                accumulate(acc, moved, cab * s)
    return acc


def cross_commutator(a: Element, b: Element, ctx: PairingContext) -> Element:
    """[a, b] in the cross product: both products accumulated in place into
    one dict, the second with sign -1."""
    preset = ctx.preset
    preset.check_admissible(a)
    preset.check_admissible(b)
    acc = _cross_product_into({}, a, b, ctx, preset, 1)
    return Element._wrap(_cross_product_into(acc, b, a, ctx, preset, -1))


# -- derivation of the phase-space relation table ------------------------------


def _phase_pairs():
    xs = [(g.render(), Element.generator(g)) for g in (Gen.X0, *SPATIAL_X)]
    ps = [(g.render(), Element.generator(g)) for g in (Gen.P0, *SPATIAL_P)]
    q = ("q", Element.q_power(1))
    pairs = [(a, b) for i, a in enumerate(xs) for b in xs[i + 1 :]]
    pairs += [(a, b) for a in xs for b in (*ps, q)]
    pairs += [(a, b) for i, a in enumerate(ps) for b in ps[i + 1 :]]
    pairs += [(a, q) for a in ps]
    return [(f"[{na}, {nb}]", ea, eb) for (na, ea), (nb, eb) in pairs]


def derive_phase_space_relations(
    basis: Basis,
    convention: Convention = Convention.LEFT,
    table_preset: AlgebraPreset | None = None,
) -> DerivationReport:
    """Recompute every phase-space commutator from the cross product and
    compare it term by term with the preset relation table."""
    ctx = PairingContext(Basis(basis), convention)
    preset = table_preset if table_preset is not None else ctx.preset
    report = DerivationReport(ctx.basis.value, convention.value)
    for name, a, b in _phase_pairs():
        derived = cross_commutator(a, b, ctx)
        table = preset.commutator(a, b)
        report.entries.append(
            DerivationEntry(name, derived.render(), table.render(), derived == table)
        )
    return report


def derived_relation_elements(
    basis: Basis, convention: Convention = Convention.LEFT
) -> dict[str, Element]:
    """The derived commutators themselves, for limit checks."""
    ctx = PairingContext(Basis(basis), convention)
    return {
        name: cross_commutator(a, b, ctx) for name, a, b in _phase_pairs()
    }


# -- convention selection --------------------------------------------------------


@dataclass
class ConventionEvidence:
    convention: str
    pairing_well_defined: bool
    module_algebra_law: bool
    representation_law: bool
    reproduces_table: bool

    @property
    def selected(self) -> bool:
        return (
            self.pairing_well_defined
            and self.module_algebra_law
            and self.representation_law
            and self.reproduces_table
        )

    def to_dict(self):
        return self.__dict__ | {"selected": self.selected}


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


def select_convention(basis: Basis) -> list[ConventionEvidence]:
    """Run the discriminating checks for both conventions."""
    out = []
    for conv in (Convention.LEFT, Convention.RIGHT):
        ctx = PairingContext(Basis(basis), conv)
        out.append(
            ConventionEvidence(
                conv.value,
                check_pairing_well_defined(ctx),
                check_module_algebra_law(ctx),
                check_representation_law(ctx),
                derive_phase_space_relations(basis, conv).passed,
            )
        )
    return out


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
            ok_plain = True
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
                    ok_plain = False
                    residuals[_subject_name(e)] = d_plain.render()
                if not d_flip.is_zero:
                    ok_flip = False
            # counit compatibility eps . phi = eps (trivially true: eps kills P_i)
            candidates.append(
                BasisMapCandidate(name, sign, ok_plain, ok_flip, True, residuals)
            )
    return BasisMapReport(candidates)


def _subject_name(e: Element) -> str:
    (mono, _), = e.items()
    return mono.render()


# -- canonical classical table ------------------------------------------------------


def canonical_limit_table() -> dict[str, Element]:
    """The nondeformed phase-space relations reached as kappa -> infinity."""
    ih = Scalar.term(0, 1, hbar=1)
    table: dict[str, Element] = {}
    for name, a, b in _phase_pairs():
        table[name] = Element.zero()
    for k in (1, 2, 3):
        table[f"[x{k}, P{k}]"] = Element.from_scalar(ih)
    table["[x0, P0]"] = Element.from_scalar(-ih)
    return table
