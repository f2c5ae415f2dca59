"""CLI surface: subcommands, exit codes, formats, determinism, negative control."""

import hashlib
import json
import math
import time

import pytest

from kappahopf import cli
from kappahopf.cli import main
from kappahopf.elements import Element, Gen
from kappahopf.presets import Basis, Sector, get_preset
from kappahopf.scalars import Scalar


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err

_MIXED = "expression mixes position and Lorentz generators; no sector admits it"


class TestEval:
    def test_phase_space_commutator(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "[x0, x1]", "--basis", "bicross")
        assert code == 0
        assert out.strip() == "(-i hbar kappa^-1 c^-1) x1"

    def test_coproduct_json_uses_ascii_tensor(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "D(P1)", "--basis", "standard", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["result"] == "P1 (x) q + q^-1 (x) P1"
        assert payload["kind"] == "tensor"

    @pytest.mark.parametrize(
        "expression, kind, result",
        [
            ("2 hbar", "scalar", "2 hbar"),
            ("<P1 | x1>", "scalar", "-i hbar"),
            ("[x0, P0]", "element", "-i hbar"),  # an element rendered as a scalar
            ("(2 q)^0", "element", "1"),
            ("D(P1)^0", "tensor", "1 (x) 1"),
            ("D(P1)*2/3", "tensor", "(2/3) P1 (x) q + (2/3) q^-1 (x) P1"),
        ],
    )
    def test_json_kind(self, capsys, expression, kind, result):
        code, out, _ = run_cli(
            capsys, "eval", expression, "--basis", "standard", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["kind"], payload["result"]) == (kind, result)

    def test_leading_minus_follows_double_dash(self, capsys):
        # argparse reads a bare leading "-x0" as an option
        code, out, _ = run_cli(capsys, "eval", "--", "-x0")
        assert code == 0 and out.strip() == "(-1) x0"

    def test_counit(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "eps(q)")
        assert code == 0 and out.strip() == "1"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "[x0, x1")
        assert code == 2
        assert "expected" in err

    def test_sector_mismatch_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "eval", "[x0, x1]", "--sector", "poincare")
        assert code == 2
        assert "poincare" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["x0 N1"], _MIXED),
            (["[x0, N1]"], _MIXED),
            (["(x0 + N1)^2"], _MIXED),
            (
                ["--sector", "poincare", "x0 P1"],
                "position generators are not admissible in the poincare sector",
            ),
            (
                ["--sector", "phasespace", "[N1, P1]"],
                "Lorentz generators are not admissible in the phasespace sector",
            ),
        ],
    )
    def test_sector_errors_are_pinned(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "eval", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_division_by_zero_is_typed(self, capsys):
        code, out, err = run_cli(capsys, "eval", "1/0")
        assert code == 2
        assert out == ""
        assert "division by zero" in err
        assert "internal error" not in err

    def test_huge_coefficient_render_is_typed(self, capsys):
        code, out, err = run_cli(capsys, "eval", "2^20000")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "cannot be rendered" in err
        assert "internal error" not in err

    @pytest.mark.parametrize(
        "expression, message",
        [
            ("P1^\u00b2", "unexpected character"),
            ("\u0663 P1", "unexpected character"),
            ("7" * 5000 + " P1", "integer literal of 5000 digits"),
            ("q^" + "7" * 5000, "integer literal of 5000 digits"),
        ],
        ids=["superscript-exponent", "arabic-indic-digit", "long-literal", "long-exponent"],
    )
    def test_bad_integer_literal_is_typed(self, capsys, expression, message):
        code, out, err = run_cli(capsys, "eval", expression)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert "internal error" not in err

    def test_large_q_power_is_bounded(self, capsys):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "eval", "q^100000000")
        assert time.perf_counter() - start < 1.0
        assert code == 0 and out.strip() == "q^100000000"

    def test_large_element_power_is_bounded(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", "P1^100000")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: exponent 100000 is above the limit")

    @pytest.mark.parametrize(
        "expression, line",
        [
            (" ".join(["((2/3)^100000 P1)"] * 8),
             "error: the scalar factors of a product have more than 262144 bits"),
            ("((2/3)^20000 P1)^64",
             "error: exponent 64 is above the limit of 8 for powers of a coefficient of 31700 bits"),
        ],
        ids=["element-chain", "element-power"],
    )
    def test_large_element_coefficients_are_bounded(self, capsys, expression, line):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "eval", expression)
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (2, "", line + "\n")

    @pytest.mark.parametrize(
        "expression",
        ["(" * 300 + "P1" + ")" * 300, "M2^1200 M1"],
        ids=["nested-parentheses", "long-word"],
    )
    def test_deep_expression_is_typed(self, capsys, expression):
        # M1 still moves left past M2^1200 one swap, and one recursion, at a time
        code, out, err = run_cli(capsys, "eval", expression)
        assert code == 2
        assert out == ""
        assert err.startswith("error: expression is too deeply nested or too long")

    @pytest.mark.parametrize("basis, coeff", [("bicross", -1500), ("standard", -750)])
    def test_long_momentum_run_moves_in_one_step(self, capsys, basis, coeff):
        # x0 moves past the whole run P1^1500 in one run transport
        code, out, err = run_cli(capsys, "eval", "P1^1500 x0", "--basis", basis)
        assert (code, err) == (0, "")
        assert out.strip() == f"x0 P1^1500 + ({coeff} i hbar kappa^-1 c^-1) P1^1500"

    @pytest.mark.parametrize("basis", ["bicross", "standard"])
    def test_commuting_letter_passes_long_run_in_one_step(self, capsys, basis):
        # M1 commutes with N1 and moves past the whole run N1^1500 in one step,
        # though neither letter is in a run-transport class
        code, out, err = run_cli(capsys, "eval", "N1^1500 M1", "--basis", basis)
        assert (code, err) == (0, "")
        assert out.strip() == "M1 N1^1500"

    @pytest.mark.parametrize("op, total", [("+", 3000), ("-", -2998)])
    def test_long_sum_evaluates(self, capsys, op, total):
        # a sum is evaluated in a loop, so its length is not bounded by the
        # recursion limit
        code, out, err = run_cli(capsys, "eval", op.join(["P1"] * 3000))
        assert (code, err) == (0, "")
        expected = Element.generator(Gen.P1).scaled(Scalar.rational(total))
        assert out.strip() == expected.render() == f"({total}) P1"

    def test_long_product_evaluates(self, capsys):
        # a product of juxtaposed factors is evaluated in a loop as well
        code, out, err = run_cli(capsys, "eval", " ".join(["P1"] * 1500))
        assert (code, err) == (0, "")
        assert out.strip() == "P1^1500"


class TestSuites:
    def test_all_passes(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "all")
        assert code == 0
        assert "RESULT: PASS" in out

    def test_phasespace_standard(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "phasespace", "--basis", "standard")
        assert code == 0
        assert "standard phase-space derivation: PASS (36 checks)" in out

    def test_suites_look_their_checks_up_at_call_time(self, capsys, monkeypatch):
        # perfbench's tracer rebinds the checks in cli's namespace; a _SUITES
        # entry that held the function itself would bypass the rebinding
        calls = {}
        for name in ("check_jacobi", "check_centrality", "derive_phase_space_relations"):
            original = getattr(cli, name)

            def counted(preset, original=original, name=name):
                calls[name] = calls.get(name, 0) + 1
                return original(preset)

            monkeypatch.setattr(cli, name, counted)
        assert cli.main(["suite", "all"]) == 0
        capsys.readouterr()
        assert calls == {
            "check_jacobi": 4,
            "check_centrality": 2,
            "derive_phase_space_relations": 2,
        }

    def test_basis_map_names_transformation(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "basis-map")
        assert code == 0
        assert "named: standard->bicross with P_i -> P_i q" in out

    def test_negative_control_exits_one_with_culprit(self, capsys):
        code, out, _ = run_cli(
            capsys, "suite", "all", "--corrupt-rule", "P1,x1", "--basis", "bicross"
        )
        assert code == 1
        assert "FAIL" in out
        assert "[x1, P1]" in out  # the failing pair is named

    def test_corrupted_lorentz_rule_fails_jacobi(self, capsys):
        code, out, _ = run_cli(
            capsys, "suite", "jacobi", "--corrupt-rule", "N2,N1", "--basis", "standard"
        )
        assert code == 1
        assert "N1" in out and "N2" in out

    def test_json_report_shape(self, capsys):
        code, out, _ = run_cli(
            capsys, "suite", "casimir", "--basis", "bicross", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["reports"][0]["axiom"] == "casimir-centrality"

    def test_suite_json_golden_digest(self, capsys):
        # exactness gate: structure-map memos and other speedups must leave
        # the certificate byte-identical
        code, out, _ = run_cli(capsys, "suite", "all", "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == "41d86e8ecf37aaea"

    @pytest.mark.parametrize(
        "rule, digest",
        [
            # both corrupt a zero rule, the pair where a commuting run must stop
            ("P1,x2", "77ed4fee8969adea"),
            ("P2,P1", "f9095f57bb305a3f"),
            # Lorentz and boost-momentum corruptions: their residuals are the
            # signed sums of the Jacobi, homomorphism and commutator checks
            ("N2,N1 --basis standard", "d552b4223af81361"),
            ("P1,N1 --basis bicross", "d8892586b634f187"),
            ("N3,M1", "9f90e04ef610bf26"),
            # a momentum-rotation corruption, the kind that fails the antipode
            # check: pins its two-sided residual and the homomorphism residual
            ("P2,M1", "7ae93d0d62ceb264"),
        ],
    )
    def test_corrupted_suite_json_golden_digest(self, capsys, rule, digest):
        code, out, _ = run_cli(
            capsys, "suite", "all", "--corrupt-rule", *rule.split(), "--format", "json"
        )
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_every_corrupted_suite_json_combined_digest(self, capsys):
        # every relation-table entry of every preset, each corrupted in turn:
        # all must fail the certificate, and one digest pins all 67 outputs
        rules = [get_preset(basis, sector).rules for basis in Basis for sector in Sector]
        pairs = sorted(
            {pair for table in rules for pair in table},
            key=lambda pair: (pair[0].render(), pair[1].render()),
        )
        assert len(pairs) == 67
        combined = hashlib.sha256()
        for hi, lo in pairs:
            rule = f"{hi.render()},{lo.render()}"
            code, out, _ = run_cli(
                capsys, "suite", "all", "--corrupt-rule", rule, "--format", "json"
            )
            assert code == 1, rule
            combined.update(f"{rule} {code}\n{out}".encode())
        assert combined.hexdigest()[:16] == "b346b0c41846259a"

    @pytest.mark.parametrize(
        "argv",
        [
            ("all", "--corrupt-rule", "N1,P1"),
            ("all", "--corrupt-rule", "N1,P1", "--basis", "bicross"),
            ("all", "--corrupt-rule", "x0,P0"),
            # P1,x2 is a phase-space entry; casimir checks only Poincare presets
            ("casimir", "--corrupt-rule", "P1,x2"),
            ("basis-map", "--corrupt-rule", "P1,N1"),
        ],
        ids=" ".join,
    )
    def test_corrupt_rule_without_entry_exits_two(self, capsys, argv):
        # such a pair corrupts nothing, so the suite would pass unperturbed
        code, out, err = run_cli(capsys, "suite", *argv)
        assert code == 2
        assert out == ""
        assert "names no relation-table entry" in err
        pair = argv[argv.index("--corrupt-rule") + 1]
        assert pair in err

    @pytest.mark.parametrize("text", ["P1", "P1,N1,M1", "Q1,P1"])
    def test_malformed_corrupt_rule_exits_two(self, capsys, text):
        code, _, err = run_cli(capsys, "suite", "all", "--corrupt-rule", text)
        assert code == 2
        assert err.startswith("error:") and "--corrupt-rule" in err

    def test_every_corrupted_rule_builds(self):
        # the `+i hbar` corruption adds a constant, which passes the
        # construction-time weight check, so every negative control runs
        counts = []
        for basis in Basis:
            for sector in Sector:
                preset = get_preset(basis, sector)
                for pair, rule in preset.rules.items():
                    copy = cli._corrupted(preset, pair)
                    assert copy is not preset and copy.rules[pair] != rule
                counts.append(len(preset.rules))
        assert counts == [45, 28, 45, 28]

    def test_corrupt_rule_in_one_sector_only(self, capsys):
        # P1,N1 has an entry in the Poincare presets only; the phase-space
        # presets run uncorrupted and the Poincare checks fail
        code, out, _ = run_cli(
            capsys, "suite", "all", "--corrupt-rule", "P1,N1", "--basis", "bicross"
        )
        assert code == 1
        assert "bicross/poincare jacobi: FAIL" in out
        assert "bicross/phasespace jacobi: PASS" in out

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "suite", "all", "--format", "json")
        _, out2, _ = run_cli(capsys, "suite", "all", "--format", "json")
        assert out1 == out2

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            ("all", 0, "e4fea1e60d8748d1"),
            ("basis-map --basis standard", 0, "6bce0e2f98ac42b3"),
            ("all --corrupt-rule P1,x2", 1, "75c78bdde8fc25dd"),
            ("jacobi --corrupt-rule N2,N1 --basis standard", 1, "c415415454e45f93"),
        ],
    )
    def test_suite_text_golden_digest(self, capsys, argv, code, digest):
        got, out, _ = run_cli(capsys, "suite", *argv.split(), "--format", "text")
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    @pytest.mark.parametrize("basis", [(), ("--basis", "bicross"), ("--basis", "standard")],
                             ids=["both", "bicross", "standard"])
    def test_all_is_the_union_of_the_suites(self, capsys, basis):
        def payload(suite):
            code, out, _ = run_cli(capsys, "suite", suite, *basis, "--format", "json")
            assert code == 0
            return json.loads(out)

        everything = payload("all")
        parts = [payload(s) for s in ("axioms", "jacobi", "casimir", "phasespace")]
        assert everything["reports"] == [r for part in parts for r in part["reports"]]
        assert everything["basis_map"] == payload("basis-map")["basis_map"]


SWEEP_GOLDEN_FLAGS = {
    "kappa": ("--from", "1", "--to", "1e12", "--points", "13", "--M", "1", "--P", "2"),
    "M": (
        "--from", "1e-3", "--to", "1e3", "--points", "7",
        "--kappa", "2.5", "--c", "3", "--hbar", "0.25", "--P", "7",
    ),
    "P": (
        "--from", "1e8", "--to", "1e-8", "--points", "5",
        "--kappa", "1e3", "--c", "2.99792458e8", "--hbar", "1.054571817e-34", "--M", "5e-3",
    ),
}

# `numeric bounds` inputs rejected in either basis, and the start of each error
BAD_BOUNDS = [
    (("--hbar", "-1"), "hbar must be strictly positive and finite, got -1.0"),
    (("--kappa", "-1", "--exp-x", "1"), "kappa must be strictly positive"),
    (("--basis", "standard", "--exp-q", "2", "--hbar", "-1"), "hbar must be"),
    (("--hbar", "nan", "--format", "json"), "hbar must be strictly positive and finite, got nan"),
    (("--exp-x", "inf"), "--exp-x must be finite, got inf"),
    (("--basis", "standard", "--exp-p", "nan"), "--exp-p must be finite, got nan"),
    (("--basis", "standard", "--exp-q", "inf"), "--exp-q must be finite, got inf"),
    (("--M", "-1"), "M must be nonnegative and finite, got -1.0"),
    # finite inputs whose bounds overflow: inf, or inf times a zero <x> (nan)
    (("--kappa", "1e-300", "--c", "1e-10"), "bound dt_dx overflows double precision, got nan"),
    (("--hbar", "1e308", "--exp-x", "1e308"), "bound dt_dx overflows double precision, got inf"),
    (("--basis", "standard", "--exp-q", "1e308", "--hbar", "1e308"),
     "bound dp_dx overflows double precision, got inf"),
]


# the whole stdout of `numeric mass-shell` and `numeric bounds`, in both
# formats and both bases, at one point with nonzero --exp-x and --exp-p so
# that no bound prints as 0
PRINTER_POINT = ("--kappa", "2", "--c", "3", "--hbar", "0.5", "--M", "1", "--P", "2")
PRINTED = [
    (("mass-shell",), "text",
     "exp(P0/2 kappa c) = 1.34462628013\nmass-shell residual = -4.4408920985e-16\n"),
    (("mass-shell",), "json",
     '{"kappa": 2.0, "c": 3.0, "hbar": 0.5, "M": 1.0, "P": 2.0, '
     '"exp_P0_over_2kc": 1.34462628013, "residual": -4.4408920985e-16}\n'),
    (("bounds", "--basis", "bicross", "--exp-x", "4", "--exp-p", "5"), "text",
     "dt dx_k  >= 0.0555555555556\ndp_k dx_k >= 0.25\ndE dt    >= 0.25\n"
     "dp_k dt  >= 0.0694444444444\n"),
    (("bounds", "--basis", "bicross", "--exp-x", "4", "--exp-p", "5"), "json",
     '{"basis": "bicross", "dt_dx": 0.0555555555556, "dp_dx": 0.25, "dE_dt": 0.25, '
     '"dp_dt": 0.0694444444444}\n'),
    (("bounds", "--basis", "standard", "--exp-x", "4", "--exp-p", "5"), "text",
     "dt dx_k  >= 0.0555555555556\ndp_k dx_k >= 0.336156570033\ndE dt    >= 0.25\n"
     "dp_k dt  >= 0.0347222222222\n"),
    (("bounds", "--basis", "standard", "--exp-x", "4", "--exp-p", "5"), "json",
     '{"basis": "standard", "dt_dx": 0.0555555555556, "dp_dx": 0.336156570033, '
     '"dE_dt": 0.25, "dp_dt": 0.0347222222222}\n'),
]


class TestNumeric:
    def test_mass_shell_golden_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "numeric", "mass-shell", "--kappa", "1", "--c", "1", "--M", "1", "--P", "0",
        )
        assert code == 0
        assert "exp(P0/2 kappa c) = 1.61803398875" in out
        residual = float(out.strip().splitlines()[1].split("=")[1])
        assert abs(residual) < 1e-12

    def test_bounds_bicross(self, capsys):
        code, out, _ = run_cli(
            capsys, "numeric", "bounds", "--basis", "bicross", "--hbar", "1"
        )
        assert code == 0
        assert "dE dt    >= 0.5" in out

    def test_bounds_standard_on_shell_default(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "numeric", "bounds", "--basis", "standard",
            "--hbar", "1", "--kappa", "1", "--M", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["dp_dx"] - 0.809016994375) < 1e-9

    def test_bounds_warning_is_one_stderr_line(self, capsys):
        # the message alone: no source path, line number or source line
        code, out, err = run_cli(
            capsys, "numeric", "bounds", "--basis", "standard", "--exp-q", "0.5"
        )
        assert code == 0
        assert out == "dt dx_k  >= 0\ndp_k dx_k >= 0.25\ndE dt    >= 0.5\ndp_k dt  >= 0\n"
        assert err == "warning: on-shell values of <exp(P0/2 kappa c)> are >= 1; got 0.5\n"

    @pytest.mark.parametrize(
        "argv, out_format, expected", PRINTED,
        ids=[" ".join(argv[:3]) + " " + fmt for argv, fmt, _ in PRINTED],
    )
    def test_printed_values_are_pinned(self, capsys, argv, out_format, expected):
        code, out, err = run_cli(
            capsys, "numeric", *argv, *PRINTER_POINT, "--format", out_format
        )
        assert (code, out, err) == (0, expected, "")

    @pytest.mark.parametrize("basis", ["bicross", "standard"])
    def test_bounds_underflowing_denominator(self, capsys, basis):
        # 2 kappa c^2 underflows to 0.0 for these valid inputs
        code, out, err = run_cli(
            capsys, "numeric", "bounds", "--basis", basis,
            "--kappa", "1e-200", "--c", "1e-200",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: 2 kappa c^2 underflows double precision")

    @pytest.mark.parametrize(
        "argv, message", BAD_BOUNDS, ids=[" ".join(argv) for argv, _ in BAD_BOUNDS]
    )
    def test_bounds_rejects_invalid_inputs(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "numeric", "bounds", *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {message}")

    def test_sweep_csv_limit(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "numeric", "sweep", "--var", "kappa", "--from", "1", "--to", "1e12",
            "--points", "13", "--M", "1", "--quantity", "bound",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "kappa,c,hbar,M,P,value,residual"
        assert len(lines) == 14
        last_value = float(lines[-1].split(",")[5])
        assert abs(last_value - 0.5) < 1e-9

    def test_invalid_parameter_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "numeric", "mass-shell", "--kappa", "-1"
        )
        assert code == 2
        assert "kappa" in err

    def test_mass_shell_rejects_nan_mass(self, capsys):
        code, out, err = run_cli(
            capsys, "numeric", "mass-shell", "--kappa", "1", "--M", "nan"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: M must be nonnegative and finite")

    def test_mass_shell_rejects_infinite_kappa(self, capsys):
        code, out, err = run_cli(
            capsys, "numeric", "mass-shell", "--kappa", "inf", "--M", "1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: kappa must be strictly positive and finite")

    def test_mass_shell_overflow_is_typed(self, capsys):
        code, out, err = run_cli(
            capsys, "numeric", "mass-shell", "--kappa", "1e-200", "--M", "1e200"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: mass shell overflows double precision")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--from", "1", "--to", "10", "--M", "1e200"),
             "mass shell overflows double precision at kappa=1.0, c=1.0, M=1e+200, P=0.0"),
            # q is finite, the bound hbar q / 2 is not
            (("--quantity", "bound", "--hbar", "1e308", "--M", "1e3", "--from", "1e-3", "--to", "1"),
             "bound dp_dx overflows double precision at hbar=1e+308, kappa=0.001, c=1.0, "
             "M=1000.0, P=0.0"),
        ],
        ids=["mass-shell", "bound"],
    )
    def test_sweep_overflow_is_typed(self, capsys, argv, message):
        code, out, err = run_cli(
            capsys, "numeric", "sweep", "--var", "kappa", "--points", "3", *argv
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_sweep_rejects_negative_points(self, capsys):
        code, out, err = run_cli(
            capsys,
            "numeric", "sweep", "--var", "kappa", "--from", "1", "--to", "10",
            "--points", "-3",
        )
        assert code == 2
        assert out == ""
        assert "at least 2 points, got -3" in err

    def test_sweep_rejects_too_many_points(self, capsys):
        # refused before the grid is allocated
        code, out, err = run_cli(
            capsys,
            "numeric", "sweep", "--var", "kappa", "--from", "1", "--to", "10",
            "--points", "1000000000000",
        )
        assert (code, out) == (2, "")
        assert err == "error: a log grid takes at most 100000 points, got 1000000000000\n"

    @pytest.mark.parametrize(
        "var, quantity, out_format, digest",
        [
            ("kappa", "mass-shell", "csv", "561ab56238e690ea"),
            ("kappa", "mass-shell", "json", "4cb9b60335806e97"),
            ("kappa", "mass-shell", "text", "145ad3e67e079134"),
            ("kappa", "bound", "csv", "a837b6f18b6fc80a"),
            ("kappa", "bound", "json", "fe83251e38829f9f"),
            ("kappa", "bound", "text", "5428036983d4f2eb"),
            ("M", "mass-shell", "csv", "a26dabec110b6685"),
            ("M", "mass-shell", "json", "9be255e9ff7ea8ee"),
            ("M", "mass-shell", "text", "2078b9f8aebb2bb0"),
            ("M", "bound", "csv", "cccd2d64bca7cc5e"),
            ("M", "bound", "json", "9b6576d19fc322a4"),
            ("M", "bound", "text", "82267ba4f0ee613f"),
            ("P", "mass-shell", "csv", "8c3cd965316e7c04"),
            ("P", "mass-shell", "json", "4ccd0822a33d614b"),
            ("P", "mass-shell", "text", "5d03d852155655ab"),
            ("P", "bound", "csv", "c8c2dd74ddeb4ab4"),
            ("P", "bound", "json", "41d748b486a5b81e"),
            ("P", "bound", "text", "ad79f91998a5641d"),
        ],
    )
    def test_sweep_golden_digest(self, capsys, var, quantity, out_format, digest):
        # every output format, swept variable and quantity, byte for byte
        code, out, _ = run_cli(
            capsys,
            "numeric", "sweep", "--var", var, *SWEEP_GOLDEN_FLAGS[var],
            "--quantity", quantity, "--format", out_format,
        )
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

    def test_sweep_between_end_points_past_the_float_range(self, capsys):
        # 1e10 / 1e-300 overflows, but every grid point is a finite double
        code, out, _ = run_cli(
            capsys,
            "numeric", "sweep", "--var", "M", "--from", "1e-300", "--to", "1e10",
            "--points", "3", "--format", "json",
        )
        assert code == 0
        masses = [row["M"] for row in json.loads(out)]
        assert len(masses) == 3 and all(0 < m < float("inf") for m in masses)
        assert abs(masses[0] - 1e-300) <= 4 * math.ulp(1e-300)
        assert abs(masses[-1] - 1e10) <= 4 * math.ulp(1e10)

    def test_sweep_rejects_single_point(self, capsys):
        code, out, err = run_cli(
            capsys,
            "numeric", "sweep", "--var", "kappa", "--from", "1", "--to", "10",
            "--points", "1",
        )
        assert code == 2
        assert out == ""
        assert "at least 2 points, got 1" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            "numeric", "sweep", "--var", "M", "--from", "0.1", "--to", "10",
            "--points", "3", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("kappa,c,hbar,M,P,value,residual")

    @pytest.mark.parametrize(
        "argv",
        [("eval", "P1"), ("suite", "casimir", "--basis", "bicross")],
        ids=["eval", "suite"],
    )
    def test_unwritable_out_file_is_typed(self, capsys, tmp_path, argv):
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write --out {target}: ")
        assert not target.exists()

    def test_format_env_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "numeric", "mass-shell", "--kappa", "1", "--M", "1", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["exp_P0_over_2kc"] - 1.61803398875) < 1e-9


# each subcommand with no --format and the first line of its default output
DEFAULT_FORMATS = [
    (("eval", "P1"), "P1"),
    (("suite", "casimir", "--basis", "bicross"),
     "bicross/poincare casimir-centrality: PASS (10 checks)"),
    (("numeric", "mass-shell"), "exp(P0/2 kappa c) = 1"),
    (("numeric", "bounds"), "dt dx_k  >= 0"),
    (("numeric", "sweep", "--var", "kappa", "--from", "1", "--to", "10", "--points", "2"),
     "kappa,c,hbar,M,P,value,residual"),
]


@pytest.mark.parametrize(
    "argv, first_line", DEFAULT_FORMATS, ids=[" ".join(a[:2]) for a, _ in DEFAULT_FORMATS]
)
def test_default_format_ignores_environment(capsys, monkeypatch, argv, first_line):
    # the default is text (csv for a sweep) whatever the environment holds
    monkeypatch.setenv("KAPPA_HOPF_FORMAT", "json")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == first_line
