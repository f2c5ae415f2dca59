"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Criterion 8 is implemented exactly as stated and marked as an expected
failure: its absolute tolerance cannot be met in IEEE-754 doubles for
|P| >> max(1, M) (see notes in the repository docs); the momentum-scaled
variant of the same identity passes and is asserted in criterion 8b.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from kappahopf.crossproduct import (
    Convention,
    basis_map_check,
    canonical_limit_table,
    derive_phase_space_relations,
    derived_relation_elements,
)
from kappahopf.elements import Gen, Monomial, Element
from kappahopf.hopf import (
    check_antipode_axiom,
    check_centrality,
    check_coassociativity,
    check_coproduct_homomorphism,
    check_counit_axiom,
    check_jacobi,
)
from kappahopf.kinematics import (
    KinematicParams,
    bounds_bicross,
    bounds_standard,
    check_mass_shell,
    log_grid,
    mass_shell_exp,
    modified_bound,
    nonrel_bound,
    nonrel_chain,
)
from kappahopf.presets import Basis, Sector, classical_limit, get_preset
from kappahopf.scalars import Scalar


def record(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num}: {status} - {description}"
    if detail and not ok:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} failed: {description} {detail}"


def sc(re=0, im=0, **kw):
    return Scalar.term(re, im, **kw)


def elem(word=(), q=0, coeff=None):
    return Element.term(Monomial(tuple(word), q), coeff or Scalar.one())


IH = sc(0, 1, hbar=1)
X = (Gen.X1, Gen.X2, Gen.X3)
P = (Gen.P1, Gen.P2, Gen.P3)


def expected_phase_table(basis: Basis) -> dict[str, Element]:
    """The deformed phase-space commutators, transcribed line by line."""
    table: dict[str, Element] = {}
    # [x0, x_k] = -(i hbar / kappa c) x_k ; [x_k, x_l] = 0
    for k in (1, 2, 3):
        table[f"[x0, x{k}]"] = elem((X[k - 1],), coeff=sc(0, -1, hbar=1, kappa=-1, c=-1))
    for k in (1, 2, 3):
        for l in range(k + 1, 4):
            table[f"[x{k}, x{l}]"] = Element.zero()
    # [p_mu, p_nu] = 0
    mom = ["P0", "P1", "P2", "P3"]
    for a in range(4):
        for b in range(a + 1, 4):
            table[f"[{mom[a]}, {mom[b]}]"] = Element.zero()
    # [x_k, p_l] = i hbar delta_kl (times q in the standard basis)
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            if k != l:
                table[f"[x{k}, P{l}]"] = Element.zero()
            elif basis is Basis.BICROSS:
                table[f"[x{k}, P{l}]"] = Element.from_scalar(IH)
            else:
                table[f"[x{k}, P{l}]"] = elem(q=1, coeff=IH)
        table[f"[x{k}, P0]"] = Element.zero()
        table[f"[x{k}, q]"] = Element.zero()
    # [x0, p_k] and [x0, p0]
    denom = Fraction(1, 1) if basis is Basis.BICROSS else Fraction(1, 2)
    for k in (1, 2, 3):
        table[f"[x0, P{k}]"] = elem((P[k - 1],), coeff=sc(0, denom, hbar=1, kappa=-1, c=-1))
    table["[x0, P0]"] = Element.from_scalar(-IH)
    table["[x0, q]"] = elem(q=1, coeff=sc(0, -Fraction(1, 2), hbar=1, kappa=-1, c=-1))
    for a in range(4):
        table[f"[{mom[a]}, q]"] = Element.zero()
    return table


def test_criterion_1_phase_space_derivation_bicross():
    t0 = time.perf_counter()
    report = derive_phase_space_relations(get_preset(Basis.BICROSS, Sector.PHASESPACE))
    derived = derived_relation_elements(Basis.BICROSS)
    expected = expected_phase_table(Basis.BICROSS)
    exact = all(derived[name] == expected[name] for name in expected)
    elapsed = time.perf_counter() - t0
    record(
        1,
        "bicross phase-space relations derived, exact symbolic equality",
        report.passed and exact and elapsed < 1.0,
        f"elapsed={elapsed:.3f}s",
    )


def test_criterion_2_phase_space_derivation_standard():
    t0 = time.perf_counter()
    report = derive_phase_space_relations(get_preset(Basis.STANDARD, Sector.PHASESPACE))
    derived = derived_relation_elements(Basis.STANDARD)
    expected = expected_phase_table(Basis.STANDARD)
    exact = all(derived[name] == expected[name] for name in expected)
    deformation = derived["[x1, P1]"] == elem(q=1, coeff=IH)
    halved = derived["[x0, P1]"] == elem(
        (Gen.P1,), coeff=sc(0, Fraction(1, 2), hbar=1, kappa=-1, c=-1)
    )
    elapsed = time.perf_counter() - t0
    record(
        2,
        "standard phase-space relations derived, exact symbolic equality",
        report.passed and exact and deformation and halved and elapsed < 1.0,
        f"elapsed={elapsed:.3f}s",
    )


def test_criterion_3_hopf_axiom_suites():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for basis in (Basis.BICROSS, Basis.STANDARD):
        for sector in (Sector.POINCARE, Sector.PHASESPACE):
            preset = get_preset(basis, sector)
            for check in (
                check_coassociativity,
                check_counit_axiom,
                check_antipode_axiom,
                check_coproduct_homomorphism,
            ):
                report = check(preset)
                if not report.passed:
                    ok = False
                    detail.append(f"{report.preset}/{report.axiom}")
    elapsed = time.perf_counter() - t0
    record(
        3,
        "Hopf axiom suites pass on all four presets",
        ok and elapsed < 30.0,
        f"failures={detail} elapsed={elapsed:.2f}s",
    )


def test_criterion_4_casimir_centrality():
    t0 = time.perf_counter()
    reports = [
        check_centrality(get_preset(b, Sector.POINCARE)) for b in (Basis.BICROSS, Basis.STANDARD)
    ]
    ok = all(r.passed for r in reports) and all(len(r.entries) == 10 for r in reports)
    elapsed = time.perf_counter() - t0
    record(
        4,
        "Casimir commutes with all ten generators in both bases",
        ok and elapsed < 30.0,
        f"elapsed={elapsed:.2f}s",
    )


def test_criterion_5_jacobi_identity():
    t0 = time.perf_counter()
    ok = True
    detail = []
    for basis in (Basis.BICROSS, Basis.STANDARD):
        for sector in (Sector.POINCARE, Sector.PHASESPACE):
            report = check_jacobi(get_preset(basis, sector))
            if not report.passed:
                ok = False
                detail.extend(f.subject for f in report.failures()[:3])
    elapsed = time.perf_counter() - t0
    record(
        5,
        "Jacobi identity holds on all admissible triples in all presets",
        ok and elapsed < 60.0,
        f"failures={detail} elapsed={elapsed:.2f}s",
    )


def test_criterion_6_basis_map():
    t0 = time.perf_counter()
    report = basis_map_check()
    one = len(report.transformations) == 1
    named = report.named == "standard->bicross with P_i -> P_i q"
    elapsed = time.perf_counter() - t0
    record(
        6,
        "exactly one momentum-basis transformation intertwines the coproducts",
        one and named and elapsed < 1.0,
        f"named={report.named!r} elapsed={elapsed:.3f}s",
    )


def test_criterion_7_classical_limit():
    canonical = canonical_limit_table()
    ok = True
    detail = []
    for basis in (Basis.BICROSS, Basis.STANDARD):
        derived = derived_relation_elements(basis)
        for name, element in derived.items():
            if classical_limit(element) != canonical[name]:
                ok = False
                detail.append(f"{basis.value}:{name}")
    record(
        7,
        "classical limit of every derived relation is canonical",
        ok,
        str(detail),
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable as stated in IEEE-754 doubles: the residual of the "
        "closed-form inversion scales like (M^2 + P^2/c^2) * 2^-52, which "
        "exceeds 1e-12*max(1, M^2) whenever P^2/c^2 >> max(1, M^2); the "
        "identity itself is exact (see criterion 8b and the symbolic oracle)"
    ),
)
def test_criterion_8_mass_shell_grid_as_stated():
    t0 = time.perf_counter()
    grid = log_grid(1e-3, 1e3, 10)
    worst = 0.0
    ok = True
    for kappa in grid:
        for M in grid:
            for Pv in grid:
                r = abs(check_mass_shell(KinematicParams(kappa=kappa, c=1.0, M=M, Pvec=Pv)))
                tol = 1e-12 * max(1.0, M * M)
                worst = max(worst, r / tol)
                if r >= tol:
                    ok = False
    elapsed = time.perf_counter() - t0
    record(
        8,
        "mass-shell residual < 1e-12*max(1, M^2) on the 10^3 log grid",
        ok and elapsed < 1.0,
        f"worst residual/tolerance ratio {worst:.1f}, elapsed={elapsed:.3f}s",
    )


def test_criterion_8b_mass_shell_grid_momentum_scaled():
    t0 = time.perf_counter()
    grid = log_grid(1e-3, 1e3, 10)
    ok = all(
        abs(check_mass_shell(KinematicParams(kappa=k, c=1.0, M=M, Pvec=Pv)))
        < 1e-12 * max(1.0, M * M, Pv * Pv)
        for k in grid
        for M in grid
        for Pv in grid
    )
    elapsed = time.perf_counter() - t0
    record(
        "8b",
        "mass-shell residual < 1e-12*max(1, M^2, P^2/c^2) on the same grid",
        ok and elapsed < 1.0,
        f"elapsed={elapsed:.3f}s",
    )


def test_criterion_9_golden_ratio_point():
    q = mass_shell_exp(KinematicParams(kappa=1.0, c=1.0, M=1.0, Pvec=0.0))
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    bound = bounds_standard(1.0, 1.0, 1.0, exp_q=q).momentum_position
    ok = abs(q - golden) < 1e-12 and abs(bound - 0.5 * 1.6180339887) < 1e-10
    record(
        9,
        "golden-ratio on-shell point and standard-basis dp dx bound",
        ok,
        f"q={q!r} bound={bound!r}",
    )


def test_criterion_10_limit_recovery():
    kappa = 1e12
    q = mass_shell_exp(KinematicParams(kappa=kappa, c=1.0, M=1.0, Pvec=1.0))
    b = bounds_bicross(1.0, kappa, 1.0, exp_x=1.0, exp_p=1.0)
    s = bounds_standard(1.0, kappa, 1.0, exp_x=1.0, exp_p=1.0, exp_q=q)
    nonzero = [
        (b.momentum_position, 0.5),
        (b.energy_time, 0.5),
        (s.momentum_position, 0.5),
        (s.energy_time, 0.5),
        (nonrel_bound(1.0, kappa), 0.5),
        (modified_bound(1.0, kappa, 1.0), 0.5),
    ]
    ok = all(abs(v - t) / t < 1e-9 for v, t in nonzero)
    # bounds whose nondeformed counterpart is zero shrink below 1e-9 * hbar/2
    zeros = [b.time_position, b.momentum_time, s.time_position, s.momentum_time]
    ok = ok and all(abs(v) < 1e-9 * 0.5 for v in zeros)
    record(10, "all deformed bounds recover nondeformed values at kappa = 1e12", ok)


def test_criterion_11_inequality_chain_and_monotonicity():
    rng = random.Random(20260810)
    ok = True
    for _ in range(1000):
        ratio = rng.uniform(1e-12, 10.0)
        mid, right = nonrel_chain(ratio, 1.0)
        if not (mid > right):
            ok = False
    prev = -1.0
    for i in range(1000):
        dp = i / 999.0  # sweep [0, kappa c] with kappa = c = 1
        val = modified_bound(dp, 1.0, 1.0)
        if not val > prev:
            ok = False
        prev = val
    record(11, "nonrelativistic chain holds and modified bound is monotone", ok)


def test_criterion_12_negative_controls():
    """Corrupting a relation-table entry must trip a suite with a named culprit.

    Poincare-sector corruptions are caught by the axiom/Casimir/Jacobi suites.
    A corrupted position-momentum scalar entry in the bicross basis leaves
    those suites consistent (the perturbed table is still an associative
    algebra) and is caught by the phase-space derivation comparison instead.
    """
    perturb = Element.from_scalar(sc(0, 1, hbar=1))
    cases = [
        (Basis.BICROSS, Sector.POINCARE, (Gen.M2, Gen.M1)),
        (Basis.STANDARD, Sector.POINCARE, (Gen.N2, Gen.N1)),
        (Basis.BICROSS, Sector.POINCARE, (Gen.P1, Gen.N1)),
        (Basis.STANDARD, Sector.POINCARE, (Gen.P0, Gen.N3)),
        (Basis.BICROSS, Sector.PHASESPACE, (Gen.P1, Gen.X1)),
        (Basis.STANDARD, Sector.PHASESPACE, (Gen.P1, Gen.X1)),
        (Basis.STANDARD, Sector.PHASESPACE, (Gen.P2, Gen.X0)),
        (Basis.BICROSS, Sector.PHASESPACE, (Gen.X1, Gen.X0)),
    ]
    ok = True
    detail = []
    poincare_caught_by_core = True
    for basis, sector, pair_key in cases:
        preset = get_preset(basis, sector).with_rule_override(
            pair_key, get_preset(basis, sector).rules[pair_key] + perturb
        )
        culprits = []
        for check in (
            check_coassociativity,
            check_counit_axiom,
            check_antipode_axiom,
            check_coproduct_homomorphism,
            check_jacobi,
        ):
            culprits.extend(f.subject for f in check(preset).failures())
        if sector is Sector.POINCARE:
            culprits.extend(f.subject for f in check_centrality(preset).failures())
            if not culprits:
                poincare_caught_by_core = False
        else:
            culprits.extend(
                f.pair
                for f in derive_phase_space_relations(preset, Convention.LEFT).failures()
            )
        if not culprits:
            ok = False
            detail.append(f"{basis.value}/{sector.value}:{pair_key}")
    record(
        12,
        "every corrupted table entry is detected with a named culprit",
        ok and poincare_caught_by_core,
        str(detail),
    )
