"""Coalgebra layer: tensor elements, coproduct, antipode, counit, Hopf axioms.

The coproduct is extended from the generator tables as an algebra
homomorphism, the antipode as an anti-homomorphism with S(q) = q^-1, and the
counit multiplicatively with eps(q) = 1.  q is group-like, forced by the
primitive coproduct of P0 under q = exp(P0 / 2 kappa c).

Note on the standard basis: the momentum coproduct is encoded as
Delta(P_i) = P_i (x) q + q^-1 (x) P_i.  The leg-transposed variant fails
coproduct multiplicativity against the boost coproduct (see the regression
test suite), reverses the deformation factor in the derived phase-space
relations, and breaks the momentum-basis transformation, so it is rejected.

Once a preset is fixed, so are its structure maps: the coproduct of each
monomial and each monomial-by-monomial slot product are memoized on the
`AlgebraPreset` instance, so a `with_rule_override` copy never sees the
results of the preset it was copied from.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product as iproduct

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
from .presets import AlgebraPreset, Basis, Sector, _eps, get_preset
from .reports import CheckEntry, CheckReport
from .scalars import Scalar

HALF = Fraction(1, 2)


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
        keys = sorted(self._terms, key=_tensor_sort_key)
        parts = []
        for key in keys:
            coeff = self._terms[key]
            body = sep.join(m.render() for m in key)
            if coeff.is_one:
                parts.append(body)
            else:
                parts.append(f"{coeff.render_single()} {body}")
        return " + ".join(parts)


def _tensor_sort_key(key: tuple[Monomial, ...]):
    return tuple((not m.word, m.sort_key()) for m in key)


def tensor_multiply(a: TensorElement, b: TensorElement, preset: AlgebraPreset) -> TensorElement:
    """Slotwise product, no braiding; each slot normalized by the preset.

    The terms are accumulated in place into a fresh dict by
    `_tensor_product_into`.
    """
    return TensorElement._wrap(_tensor_product_into({}, a, b, preset, 1), a.rank)


def _tensor_product_into(
    acc: dict, a: TensorElement, b: TensorElement, preset, sign: int
) -> dict:
    """acc += sign * a * b slotwise, in place; sign is +1 or -1 and is folded
    into the coefficient ca * cb once per pair of tensor terms."""
    if a.rank != b.rank:
        raise ValueError("tensor ranks differ")
    for key_a, ca in a.items():
        for key_b, cb in b.items():
            cab = ca * cb if sign > 0 else -(ca * cb)
            accumulate(acc, _slot_products(key_a, key_b, cab, preset))
    return acc


def _slot_products(key_a, key_b, coeff: Scalar, preset: AlgebraPreset):
    """Terms of coeff * (key_a . key_b), each slot a memoized monomial product."""
    slots = [preset.multiply_monomials(ma, mb).items() for ma, mb in zip(key_a, key_b)]
    for combo in iproduct(*slots):
        c = coeff
        for _, s in combo:
            c = c * s
        yield tuple(m for m, _ in combo), c


def tensor_commutator(a: TensorElement, b: TensorElement, preset: AlgebraPreset) -> TensorElement:
    """[a, b] = ab - ba, both slotwise products accumulated in place into one
    dict, the second with sign -1."""
    acc = _tensor_product_into({}, a, b, preset, 1)
    return TensorElement._wrap(_tensor_product_into(acc, b, a, preset, -1), a.rank)


# -- generator tables ----------------------------------------------------------


def _primitive(g: Gen) -> list[tuple[Monomial, Monomial, Scalar]]:
    m = Monomial((g,))
    one = Monomial()
    return [(m, one, Scalar.one()), (one, m, Scalar.one())]


def _coproduct_table(basis: Basis) -> dict[Gen, list[tuple[Monomial, Monomial, Scalar]]]:
    table: dict[Gen, list] = {}
    for g in POSITIONS:
        table[g] = _primitive(g)
    for g in ROTATIONS:
        table[g] = _primitive(g)
    table[Gen.P0] = _primitive(Gen.P0)
    one = Monomial()
    if basis is Basis.BICROSS:
        for i in (1, 2, 3):
            p = SPATIAL_P[i - 1]
            table[p] = [
                (Monomial((p,)), one, Scalar.one()),
                (Monomial((), -2), Monomial((p,)), Scalar.one()),
            ]
            n = BOOSTS[i - 1]
            entries = [
                (Monomial((n,)), one, Scalar.one()),
                (Monomial((), -2), Monomial((n,)), Scalar.one()),
            ]
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    e = _eps(i, j, k)
                    if e:
                        entries.append(
                            (
                                Monomial((SPATIAL_P[j - 1],)),
                                Monomial((ROTATIONS[k - 1],)),
                                Scalar.term(Fraction(e), 0, kappa=-1, c=-1),
                            )
                        )
            table[n] = entries
    else:
        for i in (1, 2, 3):
            p = SPATIAL_P[i - 1]
            table[p] = [
                (Monomial((p,)), Monomial((), 1), Scalar.one()),
                (Monomial((), -1), Monomial((p,)), Scalar.one()),
            ]
            n = BOOSTS[i - 1]
            entries = [
                (Monomial((n,)), Monomial((), 1), Scalar.one()),
                (Monomial((), -1), Monomial((n,)), Scalar.one()),
            ]
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    e = _eps(i, j, k)
                    if e:
                        coeff = Scalar.term(Fraction(e, 2), 0, kappa=-1, c=-1)
                        entries.append(
                            (
                                Monomial((SPATIAL_P[j - 1],)),
                                Monomial((ROTATIONS[k - 1],), 1),
                                coeff,
                            )
                        )
                        entries.append(
                            (
                                Monomial((ROTATIONS[j - 1],), -1),
                                Monomial((SPATIAL_P[k - 1],)),
                                coeff,
                            )
                        )
            table[n] = entries
    return table


@cache
def _antipodes(basis: Basis) -> dict[Gen, Element]:
    table: dict[Gen, Element] = {}
    for g in POSITIONS:
        table[g] = -Element.generator(g)
    for g in ROTATIONS:
        table[g] = -Element.generator(g)
    table[Gen.P0] = -Element.generator(Gen.P0)
    if basis is Basis.BICROSS:
        poincare = get_preset(basis, Sector.POINCARE)
        for i in (1, 2, 3):
            p = SPATIAL_P[i - 1]
            # S(P_i) = -P_i e^{P0/kc}
            table[p] = Element.term(Monomial((p,), 2), -Scalar.one())
            # S(N_i) = -e^{P0/kc} N_i + eps_{i j k} e^{P0/kc} P_j M_k / kc
            raw: dict[Monomial, Scalar] = {}
            for j in (1, 2, 3):
                for k in (1, 2, 3):
                    e = _eps(i, j, k)
                    if e:
                        raw[Monomial((SPATIAL_P[j - 1], ROTATIONS[k - 1]), 2)] = (
                            Scalar.term(Fraction(e), 0, kappa=-1, c=-1)
                        )
            q2_n = poincare.multiply(
                Element.q_power(2), Element.generator(BOOSTS[i - 1])
            )
            table[BOOSTS[i - 1]] = poincare.normal_form(Element(raw)) - q2_n
    else:
        for i in (1, 2, 3):
            table[SPATIAL_P[i - 1]] = -Element.generator(SPATIAL_P[i - 1])
            # S(N_i) = -N_i + (3i / 2 kappa c) P_i
            table[BOOSTS[i - 1]] = -Element.generator(BOOSTS[i - 1]) + Element.term(
                Monomial((SPATIAL_P[i - 1],)),
                Scalar.term(0, Fraction(3, 2), kappa=-1, c=-1),
            )
    return table


@cache
def _coproducts(basis: Basis) -> dict[Gen, TensorElement]:
    return {
        g: TensorElement(2, {(m1, m2): s for m1, m2, s in entries})
        for g, entries in _coproduct_table(basis).items()
    }


# -- structure maps -------------------------------------------------------------


def coproduct(e: Element, preset: AlgebraPreset) -> TensorElement:
    """Algebra-homomorphic extension of the generator coproducts; Delta(q) = q (x) q."""
    preset.check_admissible(e)
    memo = preset._coproduct_cache
    acc: dict[tuple[Monomial, ...], Scalar] = {}
    for mono, coeff in e.items():
        t = memo.get(mono)
        if t is None:
            t = _coproduct_monomial(mono, preset)
            memo[mono] = t
        accumulate(acc, t.items(), coeff)
    return TensorElement._wrap(acc, 2)


def _coproduct_monomial(mono: Monomial, preset: AlgebraPreset) -> TensorElement:
    table = _coproducts(preset.basis)
    q = Monomial((), mono.qexp)
    t = TensorElement(2, {(q, q): Scalar.one()})
    for g in reversed(mono.word):
        t = tensor_multiply(table[g], t, preset)
    return t


def antipode(e: Element, preset: AlgebraPreset) -> Element:
    """Anti-homomorphic extension of the generator antipodes; S(q) = q^-1."""
    preset.check_admissible(e)
    table = _antipodes(preset.basis)
    acc: dict[Monomial, Scalar] = {}
    for mono, coeff in e.items():
        image = Element.q_power(-mono.qexp)
        # each table[g] is admissible wherever g is, so the product is unchecked
        for g in reversed(mono.word):
            image = preset._product(image, table[g])
        accumulate(acc, image.items(), coeff)
    return Element._wrap(acc)


def counit(e: Element, preset: AlgebraPreset) -> Scalar:
    """eps kills every generator, fixes q; multiplicative extension."""
    preset.check_admissible(e)
    total = Scalar.zero()
    for mono, coeff in e.items():
        if not mono.word:
            total = total + coeff
    return total


# -- tensor-slot maps ------------------------------------------------------------


def coproduct_slot(t: TensorElement, slot: int, preset: AlgebraPreset) -> TensorElement:
    """Apply the coproduct to one slot of a rank-2 tensor, producing rank 3."""
    return TensorElement._wrap(_coproduct_slot_into({}, t, slot, preset, 1), 3)


def _coproduct_slot_into(acc: dict, t: TensorElement, slot: int, preset, sign: int) -> dict:
    """acc += sign * (coproduct on one slot of t), in place; sign is +1 or -1."""
    if t.rank != 2:
        raise ValueError("slot coproduct expects a rank-2 tensor")
    for key, coeff in t.items():
        other = key[1 - slot]
        dt = coproduct(Element.term(key[slot], Scalar.one()), preset)
        split = (
            ((a, b, other) if slot == 0 else (other, a, b), s)
            for (a, b), s in dt.items()
        )
        accumulate(acc, split, coeff if sign > 0 else -coeff)
    return acc


def counit_slot(t: TensorElement, slot: int) -> Element:
    """Contract one slot of a rank-2 tensor with the counit."""
    if t.rank != 2:
        raise ValueError("slot counit expects a rank-2 tensor")
    # eps is 1 exactly on pure q-powers (their exponent is dropped), 0 else
    kept = ((key[1 - slot], coeff) for key, coeff in t.items() if not key[slot].word)
    return Element._wrap(accumulate({}, kept))


def antipode_slot_multiply(t: TensorElement, slot: int, preset: AlgebraPreset) -> Element:
    """m . (S (x) id) or m . (id (x) S) applied to a rank-2 tensor."""
    if t.rank != 2:
        raise ValueError("antipode axiom expects a rank-2 tensor")
    acc: dict[Monomial, Scalar] = {}
    for (m1, m2), coeff in t.items():
        e1 = Element.term(m1, Scalar.one())
        e2 = Element.term(m2, Scalar.one())
        if slot == 0:
            prod = preset.multiply(antipode(e1, preset), e2)
        else:
            prod = preset.multiply(e1, antipode(e2, preset))
        accumulate(acc, prod.items(), coeff)
    return Element._wrap(acc)


# -- axiom suites ----------------------------------------------------------------


def _subjects(preset: AlgebraPreset) -> list[tuple[str, Element]]:
    subs = [(g.render(), Element.generator(g)) for g in preset.generators]
    subs.append(("q", Element.q_power(1)))
    return subs


def _preset_tag(preset: AlgebraPreset) -> str:
    return f"{preset.basis.value}/{preset.sector.value}"


def check_coassociativity(preset: AlgebraPreset) -> CheckReport:
    report = CheckReport(_preset_tag(preset), "coassociativity")
    for name, e in _subjects(preset):
        d = coproduct(e, preset)
        # (Delta (x) id) Delta - (id (x) Delta) Delta, in one dict
        acc = _coproduct_slot_into({}, d, 0, preset, 1)
        diff = TensorElement._wrap(_coproduct_slot_into(acc, d, 1, preset, -1), 3)
        report.entries.append(CheckEntry(name, diff.is_zero, diff.render()))
    return report


def check_counit_axiom(preset: AlgebraPreset) -> CheckReport:
    report = CheckReport(_preset_tag(preset), "counit")
    for name, e in _subjects(preset):
        d = coproduct(e, preset)
        left = counit_slot(d, 0)
        right = counit_slot(d, 1)
        target = preset.normal_form(e)
        ok = left == target and right == target
        residual = (left - target).render() + " ; " + (right - target).render()
        report.entries.append(CheckEntry(name, ok, residual if not ok else "0"))
    return report


def check_antipode_axiom(preset: AlgebraPreset) -> CheckReport:
    report = CheckReport(_preset_tag(preset), "antipode")
    for name, e in _subjects(preset):
        d = coproduct(e, preset)
        target = Element.from_scalar(counit(e, preset))
        left = antipode_slot_multiply(d, 0, preset)
        right = antipode_slot_multiply(d, 1, preset)
        ok = left == target and right == target
        residual = (left - target).render() + " ; " + (right - target).render()
        report.entries.append(CheckEntry(name, ok, residual if not ok else "0"))
    return report


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
    pairs = []
    for group in pool:
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                (na, ea), (nb, eb) = group[i], group[j]
                pairs.append((f"({na}, {nb})", ea, eb))
    return pairs


def check_coproduct_homomorphism(preset: AlgebraPreset) -> CheckReport:
    report = CheckReport(_preset_tag(preset), "coproduct-homomorphism")
    for name, a, b in _homomorphism_pairs(preset):
        # Delta([a, b]) - [Delta a, Delta b] = Delta([a, b]) - Da Db + Db Da,
        # all three accumulated into one dict
        da, db = coproduct(a, preset), coproduct(b, preset)
        acc = _tensor_product_into({}, da, db, preset, -1)
        _tensor_product_into(acc, db, da, preset, 1)
        accumulate(acc, coproduct(preset.commutator(a, b), preset).items())
        diff = TensorElement._wrap(acc, 2)
        report.entries.append(CheckEntry(name, diff.is_zero, diff.render()))
    return report


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


def check_centrality(basis: Basis, preset: AlgebraPreset | None = None) -> CheckReport:
    if preset is None:
        preset = get_preset(Basis(basis), Sector.POINCARE)
    c2 = casimir(basis)
    report = CheckReport(_preset_tag(preset), "casimir-centrality")
    for g in preset.generators:
        residual = preset.commutator(c2, Element.generator(g))
        report.entries.append(
            CheckEntry(g.render(), residual.is_zero, residual.render())
        )
    return report


# -- Jacobi -------------------------------------------------------------------------


def check_jacobi(preset: AlgebraPreset) -> CheckReport:
    """[[a,b],c] + [[b,c],a] + [[c,a],b] = 0 on all generator triples, q included.

    This is the confluence certificate for the relation tables: a consistent
    PBW-like table normalizes every Jacobi sum to zero.  The six products of
    the three outer commutators of a triple are accumulated in place with a
    sign into one dict, and [c, a] = -[a, c] only flips the signs of its two.
    """
    report = CheckReport(_preset_tag(preset), "jacobi")
    subjects = _subjects(preset)
    n = len(subjects)
    # each inner commutator once per pair; [c, a] is taken as -[a, c]
    inner = {
        (i, j): preset.commutator(subjects[i][1], subjects[j][1])
        for i in range(n)
        for j in range(i + 1, n)
    }
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                (na, a), (nb, b), (nc, c) = subjects[i], subjects[j], subjects[k]
                # inner commutators of admissible subjects are admissible
                acc: dict[Monomial, Scalar] = {}
                outer = ((inner[i, j], c, 1), (inner[j, k], a, 1), (inner[i, k], b, -1))
                for x, y, sign in outer:
                    preset._product_into(acc, x, y, sign)
                    preset._product_into(acc, y, x, -sign)
                total = Element._wrap(acc)
                report.entries.append(
                    CheckEntry(f"({na}, {nb}, {nc})", total.is_zero, total.render())
                )
    return report
