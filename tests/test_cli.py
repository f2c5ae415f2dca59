"""CLI surface: subcommands, exit codes, formats, determinism, negative control."""

import hashlib
import json
import time

import pytest

from kappahopf.cli import main
from kappahopf.elements import Element, Gen
from kappahopf.scalars import Scalar


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        "expression",
        ["(" * 300 + "P1" + ")" * 300, "P1^1500 x0"],
        ids=["nested-parentheses", "long-word"],
    )
    def test_deep_expression_is_typed(self, capsys, expression):
        code, out, err = run_cli(capsys, "eval", expression)
        assert code == 2
        assert out == ""
        assert err.startswith("error: expression is too deeply nested or too long")

    @pytest.mark.parametrize("op, total", [("+", 3000), ("-", -2998)])
    def test_long_sum_evaluates(self, capsys, op, total):
        # a sum is evaluated in a loop, so its length is not bounded by the
        # recursion limit
        code, out, err = run_cli(capsys, "eval", op.join(["P1"] * 3000))
        assert (code, err) == (0, "")
        expected = Element.generator(Gen.P1).scaled(Scalar.rational(total))
        assert out.strip() == expected.render() == f"({total}) P1"


class TestSuites:
    def test_all_passes(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "all")
        assert code == 0
        assert "RESULT: PASS" in out

    def test_phasespace_standard(self, capsys):
        code, out, _ = run_cli(capsys, "suite", "phasespace", "--basis", "standard")
        assert code == 0
        assert "standard phase-space derivation: PASS (36 checks)" in out

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
        ],
    )
    def test_corrupted_suite_json_golden_digest(self, capsys, rule, digest):
        code, out, _ = run_cli(
            capsys, "suite", "all", "--corrupt-rule", *rule.split(), "--format", "json"
        )
        assert code == 1
        assert hashlib.sha256(out.encode()).hexdigest()[:16] == digest

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

    @pytest.mark.parametrize("basis", ["bicross", "standard"])
    def test_bounds_underflowing_denominator(self, capsys, basis):
        # 2 kappa c^2 underflows to 0.0 for these valid inputs
        code, out, err = run_cli(
            capsys, "numeric", "bounds", "--basis", basis,
            "--kappa", "1e-200", "--c", "1e-200",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: 2 kappa c^2 underflows double precision")

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

    def test_sweep_overflow_is_typed(self, capsys):
        code, out, err = run_cli(
            capsys,
            "numeric", "sweep", "--var", "kappa", "--from", "1", "--to", "10",
            "--points", "3", "--M", "1e200",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: mass shell overflows double precision")

    def test_sweep_rejects_negative_points(self, capsys):
        code, out, err = run_cli(
            capsys,
            "numeric", "sweep", "--var", "kappa", "--from", "1", "--to", "10",
            "--points", "-3",
        )
        assert code == 2
        assert out == ""
        assert "at least 2 points, got -3" in err

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

    def test_format_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("KAPPA_HOPF_FORMAT", "json")
        code, out, _ = run_cli(
            capsys, "numeric", "mass-shell", "--kappa", "1", "--M", "1"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["exp_P0_over_2kc"] - 1.61803398875) < 1e-9
