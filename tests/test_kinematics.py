"""Numeric kinematics: mass shell, Robertson bound, uncertainty families."""

import cmath
import gc
import math
import random
import sys
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from kappahopf.elements import Gen, Element
from kappahopf.errors import IncompleteStateError, ParameterError, ResourceLimitError
from kappahopf.kinematics import (
    MAX_POINTS,
    ExpectationAssignment,
    KinematicParams,
    SweepRows,
    bounds_bicross,
    bounds_standard,
    check_mass_shell,
    log_grid,
    mass_shell_exp,
    modified_bound,
    nonrel_bound,
    nonrel_chain,
    robertson_bound,
    sqrt_bound_estimate,
    sweep_rows,
)
from kappahopf.presets import Basis, Sector, get_preset
from kappahopf.scalars import Scalar

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


class TestMassShell:
    def test_vacuum(self):
        assert mass_shell_exp(KinematicParams(kappa=1.0)) == 1.0

    def test_golden_ratio_point(self):
        q = mass_shell_exp(KinematicParams(kappa=1.0, M=1.0))
        assert abs(q - GOLDEN) < 1e-15
        assert abs(check_mass_shell(KinematicParams(kappa=1.0, M=1.0))) < 1e-12

    def test_large_kappa_series(self):
        # q = 1 + s + O(s^2) with s = M / 2 kappa
        q = mass_shell_exp(KinematicParams(kappa=1e6, M=1.0))
        assert abs(q - (1.0 + 5e-7)) < 1e-12

    def test_direct_substitution(self):
        assert abs(check_mass_shell(KinematicParams(kappa=1.0, M=2.0, Pvec=3.0))) < 1e-12

    def test_returned_value_at_least_one(self):
        for kappa in (1e-3, 1.0, 1e3):
            for M in (0.0, 0.5, 10.0):
                q = mass_shell_exp(KinematicParams(kappa=kappa, M=M, Pvec=2.0))
                assert q >= 1.0

    def test_respects_c(self):
        # s^2 = (P^2/c^2 + M^2) / 4 kappa^2: the dimensionally consistent form
        params = KinematicParams(kappa=2.0, c=3.0, M=1.5, Pvec=4.0)
        assert abs(check_mass_shell(params)) < 1e-12 * max(1.0, params.M**2)

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "M**2 underflows in kinematics._shell_rows, so q reads 1.0 at the first "
            "point and is 5.6e-6 off at the second, while check_mass_shell reads 0.0 "
            "at both; the hypot/rapidity form of ROADMAP item 3b, s = hypot(P/c, M) / "
            "2 kappa, mends it together with the frozen oracle and the sweep references"
        ),
    )
    def test_tiny_mass_and_kappa(self):
        # q = s + sqrt(1 + s^2), s = M / 2 kappa, worked out in 60-digit decimals
        for kappa, M, q in ((5e-324, 1e-300, 2.0240225330731062e23), (1e-170, 1e-160, 1e10)):
            assert abs(mass_shell_exp(KinematicParams(kappa=kappa, M=M)) - q) <= 1e-12 * q

    def test_symbolic_identity_oracle(self):
        """Independent closed-form check: q = s + sqrt(1+s^2) satisfies
        kappa^2 (q - 1/q)^2 = P^2/c^2 + M^2 identically."""
        sympy = pytest.importorskip("sympy")
        s, kappa = sympy.symbols("s kappa", positive=True)
        q = s + sympy.sqrt(1 + s**2)
        residual = sympy.simplify(kappa**2 * (q - 1 / q) ** 2 - 4 * kappa**2 * s**2)
        assert residual == 0

    def test_grid_residual_with_momentum_scale(self):
        """Across the full sweep the identity holds to double precision,
        measured against the natural scale max(1, M^2, P^2/c^2)."""
        grid = log_grid(1e-3, 1e3, 10)
        for kappa in grid:
            for M in grid:
                for P in grid:
                    r = check_mass_shell(KinematicParams(kappa=kappa, M=M, Pvec=P))
                    assert abs(r) < 1e-12 * max(1.0, M * M, P * P)

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            KinematicParams(kappa=0.0)
        with pytest.raises(ParameterError):
            KinematicParams(kappa=1.0, M=-1.0)


class TestRobertson:
    def test_canonical_pair_bicross(self):
        preset = get_preset(Basis.BICROSS, Sector.PHASESPACE)
        state = ExpectationAssignment()
        bound = robertson_bound(
            Element.generator(Gen.X1),
            Element.generator(Gen.P1),
            preset,
            state,
            hbar=1.0,
            kappa=1.0,
            c=1.0,
        )
        assert bound == 0.5

    def test_commuting_pair(self):
        preset = get_preset(Basis.BICROSS, Sector.PHASESPACE)
        bound = robertson_bound(
            Element.generator(Gen.X1),
            Element.generator(Gen.P2),
            preset,
            ExpectationAssignment(),
            1.0,
            1.0,
            1.0,
        )
        assert bound == 0.0

    def test_standard_pair_needs_q_expectation(self):
        preset = get_preset(Basis.STANDARD, Sector.PHASESPACE)
        x1, p1 = Element.generator(Gen.X1), Element.generator(Gen.P1)
        with pytest.raises(IncompleteStateError) as err:
            robertson_bound(x1, p1, preset, ExpectationAssignment(), 1.0, 1.0, 1.0)
        assert err.value.missing == ["q"]
        state = ExpectationAssignment({"q": 1.2})
        bound = robertson_bound(x1, p1, preset, state, 1.0, 1.0, 1.0)
        assert abs(bound - 0.6) < 1e-15

    def test_cross_module_consistency(self):
        # Robertson on (x1, p1) agrees with the closed-form bound families
        preset_b = get_preset(Basis.BICROSS, Sector.PHASESPACE)
        preset_s = get_preset(Basis.STANDARD, Sector.PHASESPACE)
        hbar, kappa, c = 0.7, 2.0, 3.0
        q = mass_shell_exp(KinematicParams(kappa=kappa, c=c, M=1.0, Pvec=2.0))
        rb = robertson_bound(
            Element.generator(Gen.X1),
            Element.generator(Gen.P1),
            preset_b,
            ExpectationAssignment(),
            hbar,
            kappa,
            c,
        )
        assert abs(rb - bounds_bicross(hbar, kappa, c).momentum_position) < 1e-15
        rs = robertson_bound(
            Element.generator(Gen.X1),
            Element.generator(Gen.P1),
            preset_s,
            ExpectationAssignment({"q": q}),
            hbar,
            kappa,
            c,
        )
        assert abs(rs - bounds_standard(hbar, kappa, c, exp_q=q).momentum_position) < 1e-15

    def test_expectation_realness_guard(self):
        state = ExpectationAssignment({"q": 1.0 + 0.5j})
        with pytest.raises(ParameterError):
            state.require_real("q")

    def test_one_expectation_fixed(self):
        with pytest.raises(ParameterError):
            ExpectationAssignment({"1": 2.0})


class TestBoundFamilies:
    def test_bicross_values(self):
        b = bounds_bicross(1.0, 1.0, 1.0, exp_x=0.0, exp_p=2.0)
        assert b.time_position == 0.0
        assert b.momentum_position == 0.5
        assert b.energy_time == 0.5
        assert b.momentum_time == 1.0

    def test_standard_values(self):
        b = bounds_standard(1.0, 1.0, 1.0, exp_x=0.0, exp_p=2.0, exp_q=1.0)
        assert b.momentum_position == 0.5  # classical limit at <q> = 1
        assert b.momentum_time == 0.5  # coefficient hbar / 4 kappa c^2
        b2 = bounds_standard(1.0, 1.0, 1.0, exp_q=GOLDEN)
        assert abs(b2.momentum_position - 0.5 * GOLDEN) < 1e-15

    @pytest.mark.parametrize(
        "basis, bounds", [(Basis.BICROSS, bounds_bicross), (Basis.STANDARD, bounds_standard)]
    )
    def test_every_bound_is_robertson_of_its_commutator(self, basis, bounds):
        # with t = x0 / c and E = c P0: dt dx1 = dx0 dx1 / c, dE dt = dP0 dx0
        # and dp1 dt = dP1 dx0 / c
        preset = get_preset(basis, Sector.PHASESPACE)
        x0, x1, p0, p1 = (Element.generator(g) for g in (Gen.X0, Gen.X1, Gen.P0, Gen.P1))
        rng = random.Random(16)
        for _ in range(200):
            hbar, kappa, c = (10 ** rng.uniform(-3, 3) for _ in range(3))
            exp_x, exp_p, exp_q = rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(1, 3)
            state = ExpectationAssignment({"x1": exp_x, "P1": exp_p, "q": exp_q})

            def robertson(a, b):
                return robertson_bound(a, b, preset, state, hbar, kappa, c)

            expected = {
                "dt_dx": robertson(x0, x1) / c,
                "dp_dx": robertson(x1, p1),
                "dE_dt": robertson(x0, p0),
                "dp_dt": robertson(x0, p1) / c,
            }
            extra = {"exp_q": exp_q} if bounds is bounds_standard else {}
            got = bounds(hbar, kappa, c, exp_x, exp_p, **extra).as_dict()
            assert got.keys() == expected.keys()
            for name, value in expected.items():
                assert math.isclose(got[name], value, rel_tol=1e-14), (name, hbar, kappa, c)

    def test_standard_warns_below_one(self):
        with pytest.warns(UserWarning):
            bounds_standard(1.0, 1.0, 1.0, exp_q=0.5)

    @pytest.mark.parametrize("bounds", [bounds_bicross, bounds_standard])
    def test_underflowing_denominator(self, bounds):
        # 2 kappa c^2 underflows to 0.0 although kappa and c are valid
        with pytest.raises(ParameterError, match="2 kappa c\\^2 underflows"):
            bounds(1.0, 1e-200, 1e-200)
        # a small denominator that does not underflow keeps its value
        b = bounds(1.0, 1.0, 1e-150, exp_x=1.0)
        assert b.time_position == 1.0 / (2 * 1.0 * 1e-150 * 1e-150)

    def test_all_bounds_nonnegative(self):
        for exp_x in (-3.0, 0.0, 2.0):
            for exp_p in (-1.0, 0.0, 4.0):
                for b in (
                    bounds_bicross(1.0, 2.0, 3.0, exp_x, exp_p),
                    bounds_standard(1.0, 2.0, 3.0, exp_x, exp_p, 1.1),
                ):
                    assert all(v >= 0 for v in b.as_dict().values())


def _frozen_bounds(hbar, kappa, c, exp_x, exp_p, exp_q, standard):
    """The bodies of `bounds_bicross` and `bounds_standard` as they stood
    when each wrote its own formulas, frozen as the oracle: the four values,
    or the ParameterError text."""
    denom = 2 * kappa * c * c
    if denom == 0.0:
        return f"2 kappa c^2 underflows double precision at kappa={kappa}, c={c}"
    if standard:
        values = (
            hbar / denom * abs(exp_x),
            0.5 * hbar * abs(exp_q),
            0.5 * hbar,
            hbar / (4 * kappa * c * c) * abs(exp_p),
        )
    else:
        front = hbar / denom
        values = (front * abs(exp_x), 0.5 * hbar, 0.5 * hbar, front * abs(exp_p))
    for name, value in zip(("dt_dx", "dp_dx", "dE_dt", "dp_dt"), values):
        if not value < math.inf:
            return f"bound {name} overflows double precision, got {value}"
    return values


class TestBoundsOracle:
    """Both bound functions against the frozen per-basis formulas, float for
    float, over magnitudes from subnormal to the largest double."""

    SPECIAL = (0.0, -0.0, 5e-324, 1e308, sys.float_info.max)

    def _draw(self, rng, signed):
        if rng.random() < 0.25:
            x = rng.choice(self.SPECIAL)
        else:
            x = 10.0 ** rng.uniform(-320, 308)
        return -x if signed and rng.random() < 0.5 else x

    @pytest.mark.parametrize("standard", [False, True], ids=["bicross", "standard"])
    def test_matches_frozen_formulas(self, standard):
        rng = random.Random(33)
        errors = 0
        for _ in range(30000):
            hbar, kappa, c = (self._draw(rng, False) for _ in range(3))
            exp_x, exp_p, exp_q = (self._draw(rng, True) for _ in range(3))
            if not standard:
                exp_q = 1.0
            expected = _frozen_bounds(hbar, kappa, c, exp_x, exp_p, exp_q, standard)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    if standard:
                        b = bounds_standard(hbar, kappa, c, exp_x, exp_p, exp_q)
                    else:
                        b = bounds_bicross(hbar, kappa, c, exp_x, exp_p)
                got = tuple(b.as_dict().values())
            except ParameterError as exc:
                got = str(exc)
                errors += 1
            # repr tells -0.0 from 0.0 and reads nan as equal to nan
            assert repr(got) == repr(expected), (hbar, kappa, c, exp_x, exp_p, exp_q)
        # both outcomes are exercised
        assert 1000 < errors < 29000

    @pytest.mark.parametrize("bounds", [bounds_bicross, bounds_standard])
    @pytest.mark.parametrize("slot, name", [(0, "hbar"), (1, "kappa"), (2, "c")])
    @pytest.mark.parametrize("value", [-1.0, -5e-324, -math.inf, math.inf, math.nan])
    def test_negative_or_infinite_constant_is_refused(self, bounds, slot, name, value):
        constants = [1.0, 1.0, 1.0]
        constants[slot] = value
        with pytest.raises(ParameterError) as err:
            bounds(*constants, 1.0, 1.0)
        assert str(err.value) == f"{name} must be nonnegative and finite, got {value}"


class TestLimits:
    def test_nonrel_examples(self):
        assert abs(nonrel_bound(0.0, 1.0) - 0.5) < 1e-15
        assert abs(nonrel_bound(2.0, 1.0) - 1.25) < 1e-15
        mid, right = nonrel_chain(1.0, 1.0)
        assert (mid, right) == (0.8125, 0.75)
        assert mid > right

    def test_nonrel_chain_randomized(self):
        rng = random.Random(7)
        for _ in range(1000):
            ratio = rng.uniform(1e-9, 10.0)
            mid, right = nonrel_chain(ratio, 1.0)
            assert mid > right > 0.5

    def test_nonrel_bound_is_chain_middle(self):
        rng = random.Random(11)
        for _ in range(1000):
            M, kappa = rng.uniform(0.0, 10.0), 10 ** rng.uniform(-6, 12)
            v = 1.0 + M / (2.0 * kappa)
            # the closed form, evaluated apart from nonrel_chain
            assert nonrel_bound(M, kappa) == 0.25 * (1.0 + v * v)
            assert nonrel_chain(M, kappa)[0] == nonrel_bound(M, kappa)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: nonrel_chain(1.0, 0.0),
            lambda: nonrel_bound(1.0, 0.0),
            lambda: nonrel_bound(math.nan, 1.0),
            lambda: nonrel_chain(-1.0, 1.0),
            lambda: nonrel_bound(1.0, math.nan),
            lambda: modified_bound(1.0, 0.0, 1.0),
            lambda: modified_bound(1.0, 1.0, -1.0),
            lambda: modified_bound(1.0, math.nan, 1.0),
            lambda: sqrt_bound_estimate(1.0, 0.0, 1.0),
            lambda: sqrt_bound_estimate(1.0, 1.0, 0.0),
            # kappa^2 c^2 underflows to zero, or kappa^2 overflows
            lambda: modified_bound(1.0, 1e-200, 1.0),
            lambda: sqrt_bound_estimate(1.0, 1e200, 1.0),
        ],
    )
    def test_invalid_estimate_parameters_are_typed(self, call):
        with pytest.raises(ParameterError):
            call()

    @pytest.mark.parametrize(
        "call, name",
        [
            (lambda: modified_bound(math.nan, 1.0, 1.0), "delta_p"),
            (lambda: sqrt_bound_estimate(math.nan, 1.0, 1.0), "delta_p"),
            (lambda: nonrel_bound(1.0, 1.0, hbar=math.nan), "hbar"),
            (lambda: modified_bound(1.0, 1.0, 1.0, hbar=-1.0), "hbar"),
            (lambda: sqrt_bound_estimate(-1.0, 1.0, 1.0), "delta_p"),
            (lambda: modified_bound(math.inf, 1.0, 1.0), "delta_p"),
            (lambda: sqrt_bound_estimate(1.0, 1.0, 1.0, hbar=math.inf), "hbar"),
            (lambda: nonrel_chain(1.0, 1.0, hbar=0.0), "hbar"),
        ],
    )
    def test_spread_and_hbar_are_checked(self, call, name):
        with pytest.raises(ParameterError, match=f"^{name} must be"):
            call()

    def test_modified_bound_examples(self):
        assert modified_bound(0.0, 1.0, 1.0) == 0.5
        assert modified_bound(1.0, 1.0, 1.0) == 0.5625
        assert modified_bound(0.5, 1.0, 1.0) > 0.5

    def test_modified_bound_monotone(self):
        prev = -1.0
        for i in range(1000):
            dp = i / 999.0
            val = modified_bound(dp, 1.0, 1.0)
            assert val > prev
            prev = val

    def test_modified_bound_regime_warning(self):
        with pytest.warns(UserWarning):
            modified_bound(2.0, 1.0, 1.0)

    def test_quadratic_majorizes_sqrt_estimate(self):
        """The quadratic form is the first-order (upper) approximation of the
        square-root estimate: sqrt(1+u) <= 1 + u/2 for u >= 0."""
        for i in range(1000):
            dp = i / 999.0
            quad = modified_bound(dp, 1.0, 1.0)
            root = sqrt_bound_estimate(dp, 1.0, 1.0)
            assert root <= quad + 1e-15
            assert root >= 0.5

    def test_kappa_to_infinity_recovers_canonical(self):
        kappa = 1e12
        b = bounds_bicross(1.0, kappa, 1.0, exp_x=1.0, exp_p=1.0)
        s = bounds_standard(
            1.0,
            kappa,
            1.0,
            exp_x=1.0,
            exp_p=1.0,
            exp_q=mass_shell_exp(KinematicParams(kappa=kappa, M=1.0, Pvec=1.0)),
        )
        for bound, target in (
            (b.momentum_position, 0.5),
            (b.energy_time, 0.5),
            (s.momentum_position, 0.5),
            (s.energy_time, 0.5),
            (nonrel_bound(1.0, kappa), 0.5),
            (modified_bound(1.0, kappa, 1.0), 0.5),
        ):
            assert abs(bound - target) / target < 1e-9
        for bound in (b.time_position, b.momentum_time, s.time_position, s.momentum_time):
            assert abs(bound) < 1e-9 * 0.5


class TestSweeps:
    def test_rows_shape_and_limit(self):
        base = KinematicParams(kappa=1.0, M=1.0)
        rows = sweep_rows("kappa", 1.0, 1e12, 13, base, "bound")
        assert len(rows) == 13
        assert set(rows[0]) == {"kappa", "c", "hbar", "M", "P", "value", "residual"}
        assert abs(rows[-1]["value"] - 0.5) < 1e-9

    def test_invalid_variable(self):
        with pytest.raises(ParameterError):
            sweep_rows("hbar", 1.0, 2.0, 3, KinematicParams(kappa=1.0), "mass-shell")

    @pytest.mark.parametrize(
        "lo, hi, n",
        [(1e-3, 1e3, 10), (1.0, 1e12, 13), (0.1, 10.0, 3), (5.0, 0.2, 7), (1e-300, 1e-10, 4)],
    )
    def test_log_grid_with_finite_ratio_keeps_its_floats(self, lo, hi, n):
        ratio = (hi / lo) ** (1.0 / (n - 1))
        assert log_grid(lo, hi, n) == [lo * ratio**i for i in range(n)]

    @pytest.mark.parametrize(
        "lo, hi, n",
        [
            # hi / lo overflows
            (1e-300, 1e10, 3),
            (1e-300, 1e300, 3),
            (1e-10, 1e300, 5),
            # hi / lo is finite, but ratio**(n-1) or lo * ratio**(n-1) is not
            (1.0, sys.float_info.max, 5),
            (1.5, sys.float_info.max, 2),
        ],
    )
    def test_log_grid_steps_in_log_space_past_the_float_range(self, lo, hi, n):
        grid = log_grid(lo, hi, n)
        assert len(grid) == n
        assert all(0 < x < math.inf for x in grid)
        assert grid == sorted(grid)
        assert abs(grid[0] - lo) <= 4 * math.ulp(lo)
        assert abs(grid[-1] - hi) <= 4 * math.ulp(hi)

    def test_points_limit(self):
        assert len(log_grid(1.0, 10.0, MAX_POINTS)) == MAX_POINTS
        with pytest.raises(ResourceLimitError) as err:
            sweep_rows("kappa", 1.0, 10.0, MAX_POINTS + 1, KinematicParams(kappa=1.0))
        assert str(err.value) == f"a log grid takes at most {MAX_POINTS} points, got {MAX_POINTS + 1}"


class TestSweepRows:
    """sweep_rows keeps its rows by column and builds each row it is asked
    for as a fresh dict; as a sequence it must act like the list of those
    dicts."""

    BASE = KinematicParams(kappa=1.0, M=1.0)

    def rows_and_list(self, var="kappa", n=13):
        rows = sweep_rows(var, 1.0, 1e12, n, self.BASE, "bound")
        return rows, _reference_rows(var, 1.0, 1e12, n, self.BASE, "bound")

    @pytest.mark.parametrize("var", ["kappa", "M", "P"])
    def test_sequence_protocol(self, var):
        rows, expected = self.rows_and_list(var)
        assert len(rows) == len(expected) == 13
        assert rows[-1] == rows[12] == expected[-1]
        assert list(rows[0]) == ["kappa", "c", "hbar", "M", "P", "value", "residual"]
        for piece in (slice(2, 9, 3), slice(None, None, -1), slice(-4, None), slice(5, 5)):
            assert isinstance(rows[piece], SweepRows)
            assert rows[piece] == expected[piece]
        # iteration starts afresh every time
        assert list(rows) == list(rows) == expected
        assert list(reversed(rows)) == expected[::-1]
        assert expected[3] in rows and rows.index(expected[3]) == 3
        with pytest.raises(IndexError):
            rows[13]

    def test_rows_are_fresh_untracked_dicts(self):
        rows, expected = self.rows_and_list()
        assert rows[0] is not rows[0]
        row = rows[0]
        row["value"] = -1.0
        del row["c"]
        # a row changed during iteration does not leak into the next one
        for row, want in zip(rows, expected):
            assert row == want
            row.clear()
        assert rows == expected
        # a row of floats is no object for the cyclic garbage collector
        assert not gc.is_tracked(rows[0])
        assert not any(gc.is_tracked(row) for row in rows)

    def test_equality(self):
        rows, expected = self.rows_and_list()
        assert rows == expected and expected == rows
        assert not rows != expected
        assert rows != expected[:-1]
        changed = [dict(row) for row in expected]
        changed[4]["residual"] += 1.0
        assert rows != changed and changed != rows
        assert rows == self.rows_and_list()[0] == rows[:]
        assert rows != self.rows_and_list(n=12)[0]
        assert rows != sweep_rows("kappa", 1.0, 1e12, 13, self.BASE, "mass-shell")
        assert rows != tuple(expected)
        assert rows != "rows"

    def test_repr_shows_the_rows(self):
        rows, expected = self.rows_and_list()
        assert repr(rows[:2]) == f"SweepRows({expected[:2]!r})"
        assert repr(rows[:0]) == "SweepRows([])"

    def test_largest_sweep_retains_under_4_mb(self):
        # three columns of packed doubles, 24 bytes a row; lists of floats
        # retained 96 and a list of dict rows about 350
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rows = sweep_rows("kappa", 1.0, 1e12, MAX_POINTS, self.BASE, "mass-shell")
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(rows) == MAX_POINTS
        assert retained < 4e6


# Frozen per-point copies of the closed forms for q and the residual, with
# their overflow mapping; written apart from `kinematics._shell_rows`, they
# are the oracle for the sweep and for the point functions.
def _frozen_overflow(kappa, c, M, P):
    return ParameterError(
        f"mass shell overflows double precision at kappa={kappa}, "
        f"c={c}, M={M}, P={P}"
    )


def _frozen_shell_q(kappa, c, M, P):
    try:
        s = math.sqrt((P / c) ** 2 + M**2) / (2 * kappa)
    except OverflowError:
        raise _frozen_overflow(kappa, c, M, P) from None
    q = s + math.sqrt(1.0 + s * s)
    if q == math.inf:
        raise _frozen_overflow(kappa, c, M, P)
    return q


def _frozen_shell_residual(kappa, c, M, P, q):
    try:
        lhs = (kappa * (q - 1.0 / q)) ** 2 - (P / c) ** 2
    except OverflowError:
        raise _frozen_overflow(kappa, c, M, P) from None
    return lhs - M**2


def _reference_rows(var, lo, hi, n, base, quantity):
    """Sweep rows built point by point from KinematicParams and the frozen
    closed forms."""
    field = "Pvec" if var == "P" else var
    rows = []
    for value in log_grid(lo, hi, n):
        params = KinematicParams(**{"kappa": base.kappa, "c": base.c, "hbar": base.hbar,
                                    "M": base.M, "Pvec": base.Pvec, field: value})
        kappa, c, hbar, M, P = params.kappa, params.c, params.hbar, params.M, params.Pvec
        q = _frozen_shell_q(kappa, c, M, P)
        if quantity == "mass-shell":
            val, res = q, _frozen_shell_residual(kappa, c, M, P, q)
        else:
            val = 0.5 * hbar * abs(q)
            if val == math.inf:
                # q is finite here, so the bound overflows through hbar
                raise ParameterError(
                    f"bound dp_dx overflows double precision at hbar={hbar}, "
                    f"kappa={kappa}, c={c}, M={M}, P={P}"
                )
            res = val - 0.5 * hbar
        rows.append(
            {"kappa": kappa, "c": c, "hbar": hbar, "M": M, "P": P, "value": val, "residual": res}
        )
    return rows


def _outcome(call, *args):
    """The value of call(*args), or the text of the ParameterError it raises."""
    try:
        return call(*args)
    except ParameterError as exc:
        return ("ParameterError", str(exc))


SWEEP_BASES = [
    KinematicParams(kappa=1.0, M=1.0),
    KinematicParams(kappa=2.5, c=3.0, hbar=0.25, M=0.3, Pvec=7.0),
    KinematicParams(kappa=1e3, c=2.99792458e8, hbar=1.054571817e-34, M=5e-3, Pvec=0.0),
]


class TestSweepMatchesPointwise:
    """sweep_rows evaluates rows on plain floats; each must equal, float for
    float, the row built from KinematicParams and the frozen closed forms,
    and the per-point functions must give those forms' values."""

    @pytest.mark.parametrize("quantity", ["mass-shell", "bound"])
    @pytest.mark.parametrize("var", ["kappa", "M", "P"])
    @pytest.mark.parametrize("base", SWEEP_BASES, ids=["unit", "c3", "si"])
    @pytest.mark.parametrize(
        "lo, hi, n",
        [(1.0, 1e12, 13), (1e-3, 1e3, 7), (1e8, 1e-8, 5)],
    )
    def test_grid(self, var, quantity, base, lo, hi, n):
        expected = _reference_rows(var, lo, hi, n, base, quantity)
        assert sweep_rows(var, lo, hi, n, base, quantity) == expected
        field = "Pvec" if var == "P" else var
        for row, value in zip(expected, log_grid(lo, hi, n)):
            params = KinematicParams(**{"kappa": base.kappa, "c": base.c, "hbar": base.hbar,
                                        "M": base.M, "Pvec": base.Pvec, field: value})
            q = mass_shell_exp(params)
            if quantity == "mass-shell":
                assert (row["value"], row["residual"]) == (q, check_mass_shell(params))
            else:
                bounds = bounds_standard(params.hbar, params.kappa, params.c, exp_q=q)
                assert row["value"] == bounds.momentum_position

    @pytest.mark.parametrize("quantity", ["mass-shell", "bound"])
    @pytest.mark.parametrize("var", ["M", "P"])
    def test_grid_underflowing_to_zero(self, var, quantity):
        # the grid ratio underflows, so every point after the first is 0.0,
        # a valid M or P
        base = SWEEP_BASES[1]
        expected = _reference_rows(var, 1e150, 1e-300, 3, base, quantity)
        assert [row[var] for row in expected] == [1e150, 0.0, 0.0]
        assert sweep_rows(var, 1e150, 1e-300, 3, base, quantity) == expected

    @pytest.mark.parametrize("quantity", ["mass-shell", "bound"])
    @pytest.mark.parametrize("var", ["kappa", "M", "P"])
    @pytest.mark.parametrize("base", SWEEP_BASES, ids=["unit", "c3", "si"])
    def test_rows_keep_their_bits(self, var, quantity, base):
        # the packed columns must give back every float bit for bit, which
        # float.hex tells apart where == does not (0.0 and -0.0)
        def bits(rows):
            return [{key: float.hex(value) for key, value in row.items()} for row in rows]

        rows = sweep_rows(var, 1e-3, 1e3, 13, base, quantity)
        expected = _reference_rows(var, 1e-3, 1e3, 13, base, quantity)
        assert bits(rows) == bits(expected)
        for piece in (slice(2, 9, 3), slice(None, None, -1), slice(-4, None), slice(5, 5)):
            assert bits(rows[piece]) == bits(expected[piece])

    @settings(max_examples=200, deadline=None)
    @given(
        var=st.sampled_from(["kappa", "M", "P"]),
        quantity=st.sampled_from(["mass-shell", "bound"]),
        exps=st.lists(st.floats(-6, 6), min_size=7, max_size=7),
        n=st.integers(2, 12),
        zero_m=st.booleans(),
    )
    def test_random(self, var, quantity, exps, n, zero_m):
        kappa, c, hbar, M, P, lo, hi = (10.0**e for e in exps)
        base = KinematicParams(kappa=kappa, c=c, hbar=hbar, M=0.0 if zero_m else M, Pvec=P)
        expected = _reference_rows(var, lo, hi, n, base, quantity)
        assert sweep_rows(var, lo, hi, n, base, quantity) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        var=st.sampled_from(["kappa", "M", "P"]),
        quantity=st.sampled_from(["mass-shell", "bound"]),
        exps=st.lists(st.floats(-300, 300), min_size=7, max_size=7),
        n=st.integers(2, 6),
        zero_m=st.booleans(),
    )
    def test_random_full_range(self, var, quantity, exps, n, zero_m):
        # overflow, underflow to zero and inf end points all occur here; the
        # sweep must raise the reference's first error, in row order
        kappa, c, hbar, M, P, lo, hi = (10.0**e for e in exps)
        base = KinematicParams(kappa=kappa, c=c, hbar=hbar, M=0.0 if zero_m else M, Pvec=P)
        args = (var, lo, hi, n, base, quantity)
        assert _outcome(sweep_rows, *args) == _outcome(_reference_rows, *args)

    @settings(max_examples=300, deadline=None)
    @given(exps=st.lists(st.floats(-300, 300), min_size=4, max_size=4), zero_m=st.booleans())
    def test_point_functions(self, exps, zero_m):
        kappa, c, M, P = (10.0**e for e in exps)
        M = 0.0 if zero_m else M
        params = KinematicParams(kappa=kappa, c=c, M=M, Pvec=P)
        q = _outcome(_frozen_shell_q, kappa, c, M, P)
        assert _outcome(mass_shell_exp, params) == q
        residual = q if isinstance(q, tuple) else _outcome(
            _frozen_shell_residual, kappa, c, M, P, q
        )
        assert _outcome(check_mass_shell, params) == residual

    def test_q_without_residual(self):
        # q is finite here but the residual's square overflows, so only
        # check_mass_shell may raise
        params = KinematicParams(kappa=4.170858320864619e169, M=1.3407807929942582e154)
        assert mass_shell_exp(params) == _frozen_shell_q(4.170858320864619e169, 1.0, params.M, 0.0)
        with pytest.raises(ParameterError, match="mass shell overflows double precision"):
            check_mass_shell(params)

    def test_overflow_precedes_later_invalid_point(self):
        # row 0 overflows before row 1 (kappa = inf) is checked
        base = KinematicParams(kappa=1.0, M=1e200)
        with pytest.raises(ParameterError) as err:
            sweep_rows("kappa", 1e-200, math.inf, 3, base, "mass-shell")
        assert str(err.value) == (
            "mass shell overflows double precision at kappa=1e-200, c=1.0, "
            "M=1e+200, P=0.0"
        )

    def test_invalid_point_precedes_overflow(self):
        # M^2 overflows at every kappa, but row 0 (kappa = inf) fails its
        # check before anything is computed
        base = KinematicParams(kappa=1.0, M=1e200)
        with pytest.raises(ParameterError) as err:
            sweep_rows("kappa", math.inf, 1.0, 3, base, "mass-shell")
        assert str(err.value) == "kappa must be strictly positive and finite, got inf"

    def test_bound_at_infinite_q_with_subnormal_hbar(self):
        # hbar / 2 underflows to 0, so hbar q / 2 is nan, not inf, at the
        # infinite q of row 0; it must still raise the mass-shell error
        base = KinematicParams(kappa=1.0, hbar=5e-324, M=1e150)
        args = ("kappa", 1e-200, 1.0, 3, base, "bound")
        assert _outcome(sweep_rows, *args) == _outcome(_reference_rows, *args) == (
            "ParameterError",
            "mass shell overflows double precision at kappa=1e-200, c=1.0, M=1e+150, P=0.0",
        )

    def test_overflowing_kappa_grid(self):
        base = KinematicParams(kappa=1.0, M=1e200)
        with pytest.raises(ParameterError) as err:
            sweep_rows("kappa", 1e-200, 1e-100, 5, base, "mass-shell")
        assert str(err.value) == (
            "mass shell overflows double precision at kappa=1e-200, c=1.0, "
            "M=1e+200, P=0.0"
        )
        with pytest.raises(ParameterError) as point:
            mass_shell_exp(KinematicParams(1e-200, base.c, base.hbar, base.M, base.Pvec))
        assert str(point.value) == str(err.value)

    @pytest.mark.parametrize(
        "var, message",
        [
            ("kappa", "kappa must be strictly positive and finite, got inf"),
            ("M", "M must be nonnegative and finite, got inf"),
            ("P", "Pvec must be nonnegative and finite, got inf"),
        ],
    )
    def test_infinite_end_point(self, var, message):
        with pytest.raises(ParameterError) as err:
            sweep_rows(var, 1.0, math.inf, 3, KinematicParams(kappa=1.0), "bound")
        assert str(err.value) == message

    def test_nan_end_point(self):
        with pytest.raises(ParameterError, match="log grid bounds must be positive"):
            sweep_rows("M", 1.0, math.nan, 3, KinematicParams(kappa=1.0), "bound")

    def test_zero_kappa_from_underflow(self):
        with pytest.raises(ParameterError) as err:
            sweep_rows("kappa", 1e150, 1e-300, 3, KinematicParams(kappa=1.0), "bound")
        assert str(err.value) == "kappa must be strictly positive and finite, got 0.0"

    def test_unknown_quantity(self):
        with pytest.raises(ParameterError, match="unknown sweep quantity 'energy'"):
            sweep_rows("kappa", 1.0, 2.0, 3, KinematicParams(kappa=1.0), "energy")

    def test_bound_at_underflowing_kappa_c(self):
        # 2 kappa c^2 underflows to zero here; the sweep's bound needs only q
        base = KinematicParams(kappa=1.0, c=1e-200)
        rows = sweep_rows("kappa", 1e-200, 1e-190, 3, base, "bound")
        assert [row["value"] for row in rows] == [0.5, 0.5, 0.5]


# -- one input check and one overflow check for every numeric function ---------

_PHASE = get_preset(Basis.BICROSS, Sector.PHASESPACE)
_X0, _X1 = Element.generator(Gen.X0), Element.generator(Gen.X1)


def _robertson(**constants):
    # [x0, x1] is a nonzero multiple of x1, so every constant is substituted
    return robertson_bound(_X0, _X1, _PHASE, ExpectationAssignment({"x1": 1.0}), **constants)


# every public numeric function but the two bound functions, with a valid
# value and the kind of each float parameter
POSITIVE, NONNEGATIVE, FINITE = "strictly positive", "nonnegative", "finite"
NUMERIC_FUNCTIONS = {
    "KinematicParams": (KinematicParams, {
        "kappa": (1.0, POSITIVE), "c": (1.0, POSITIVE), "hbar": (1.0, POSITIVE),
        "M": (1.0, NONNEGATIVE), "Pvec": (1.0, NONNEGATIVE),
    }),
    "nonrel_bound": (nonrel_bound, {
        "M": (1.0, NONNEGATIVE), "kappa": (1.0, POSITIVE), "hbar": (1.0, POSITIVE),
    }),
    "nonrel_chain": (nonrel_chain, {
        "M": (1.0, NONNEGATIVE), "kappa": (1.0, POSITIVE), "hbar": (1.0, POSITIVE),
    }),
    "modified_bound": (modified_bound, {
        "delta_p": (0.5, NONNEGATIVE), "kappa": (1.0, POSITIVE), "c": (1.0, POSITIVE),
        "hbar": (1.0, POSITIVE),
    }),
    "sqrt_bound_estimate": (sqrt_bound_estimate, {
        "delta_p": (0.5, NONNEGATIVE), "kappa": (1.0, POSITIVE), "c": (1.0, POSITIVE),
        "hbar": (1.0, POSITIVE), "exp_P": (0.5, FINITE), "M": (1.0, NONNEGATIVE),
    }),
    "robertson_bound": (_robertson, {
        "hbar": (1.0, POSITIVE), "kappa": (2.0, POSITIVE), "c": (3.0, POSITIVE),
    }),
    "Scalar.to_complex": (Scalar.term(1, 1, hbar=1, kappa=-1, c=-2).to_complex, {
        "hbar": (1.0, POSITIVE), "kappa": (2.0, POSITIVE), "c": (3.0, POSITIVE),
    }),
}
INVALID_INPUTS = [
    (func, name, bad)
    for func, (_, params) in NUMERIC_FUNCTIONS.items()
    for name, (_, kind) in params.items()
    for bad in (math.nan, math.inf, -math.inf) + ((-1.0,) if kind != FINITE else ())
]

# finite inputs whose result overflows double precision, and non-finite
# expectation values: (id, call, start of the error text)
OVERFLOWS_AND_BAD_STATES = [
    ("modified_bound", lambda: modified_bound(1e160, 1.0, 1.0), "bound dp_dx overflows"),
    ("sqrt_bound_estimate", lambda: sqrt_bound_estimate(1e200, 1.0, 1.0),
     "bound dp_dx overflows"),
    ("nonrel_chain", lambda: nonrel_chain(1e308, 1e-308), "bound dp_dx overflows"),
    ("nonrel_bound", lambda: nonrel_bound(1e4, 1.0, hbar=1e308), "bound dp_dx overflows"),
    ("to_complex", lambda: Scalar.term(1, 0, kappa=-1).to_complex(1.0, 1e-320, 1.0),
     "value of the scalar overflows"),
    # the coefficient hbar kappa^-1 c^-1 of <[x0, x1]> overflows
    ("robertson_bound-coefficient", lambda: _robertson(hbar=1.0, kappa=1e-200, c=1e-200),
     "value of the scalar overflows"),
    # <[x0, x1]> is finite, and its modulus is not
    ("robertson_bound-modulus", lambda: robertson_bound(
        _X0, _X1, _PHASE, ExpectationAssignment({"x1": 1.5e308 + 1.5e308j}), 1.0, 1.0, 1.0
    ), "Robertson bound overflows"),
    # every value is finite, and <[x0, x1]> = (-i hbar kappa^-1 c^-1) <x1> is not
    ("expectation-overflow", lambda: ExpectationAssignment({"x1": 1e308}).expectation(
        _PHASE.commutator(_X0, _X1), 1.0, 1e-3, 1.0
    ), "expectation value overflows double precision, got -infj"),
    ("expectation-nan", lambda: ExpectationAssignment({"x1": math.nan}), "<x1> must be finite"),
    ("expectation-inf", lambda: ExpectationAssignment({"x1": complex(1.0, math.inf)}),
     "<x1> must be finite"),
]


class TestNumericInputs:
    """Each numeric function rejects a nan, infinite or negative input with a
    ParameterError that names it, and a finite input whose result overflows
    double precision with one that names the result."""

    @pytest.mark.parametrize("func", NUMERIC_FUNCTIONS)
    def test_valid_inputs_give_a_finite_value(self, func):
        call, params = NUMERIC_FUNCTIONS[func]
        result = call(**{name: value for name, (value, _) in params.items()})
        if not isinstance(result, KinematicParams):
            assert all(map(cmath.isfinite, result if isinstance(result, tuple) else [result]))

    @pytest.mark.parametrize(
        "func, name, bad", INVALID_INPUTS,
        ids=[f"{func}-{name}={bad}" for func, name, bad in INVALID_INPUTS],
    )
    def test_invalid_input_names_the_parameter(self, func, name, bad):
        call, params = NUMERIC_FUNCTIONS[func]
        kwargs = {param: value for param, (value, _) in params.items()} | {name: bad}
        kind = params[name][1]
        words = FINITE if kind == FINITE else f"{kind} and {FINITE}"
        with pytest.raises(ParameterError, match=f"^{name} must be {words}, got "):
            call(**kwargs)

    @pytest.mark.parametrize("case", OVERFLOWS_AND_BAD_STATES, ids=lambda case: case[0])
    def test_overflow_and_bad_expectation_are_typed(self, case):
        _, call, message = case
        with warnings.catch_warnings(), pytest.raises(ParameterError, match=f"^{message}"):
            warnings.simplefilter("ignore")
            call()

    def test_robertson_checks_constants_of_a_zero_commutator(self):
        with pytest.raises(ParameterError, match="^kappa must be strictly positive"):
            robertson_bound(_X1, Element.generator(Gen.P2), _PHASE, ExpectationAssignment(),
                            1.0, math.nan, 1.0)
