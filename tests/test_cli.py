import io
import json
import math
import warnings

import numpy as np
import pytest

from catphase.amplifier import AmplifierGain, amplify_q
from catphase.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from catphase.quasiprob import Grid2D, p_cat_terms, p_representation_grid
from catphase.reconstruct import RoundTripReport
from catphase.states import CatStateSpec

STATE = ["--alpha1", "1.5", "0", "--alpha2", "-1.5", "0", "--zeta", "1", "0"]
SPEC = CatStateSpec(1.5, -1.5, 1.0)
BOUNDS = ["--bounds", "-6", "6", "-6", "6"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGridCommand:
    def test_q_csv_normalized_footer(self, capsys):
        code, out, _ = run_cli(
            ["grid", "--field", "q", *STATE, *BOUNDS, "--nx", "161"], capsys)
        assert code == EXIT_OK
        footer = [ln for ln in out.splitlines() if ln.startswith("# integral")]
        assert len(footer) == 1
        total = float(footer[0].split("=")[1])
        assert total == pytest.approx(1.0, abs=1e-4)
        grid = Grid2D.from_csv(io.StringIO(out))
        assert grid.nx == grid.ny == 161
        assert np.all(grid.values.imag == 0.0)

    def test_wigner_reports_negative_minimum(self, capsys):
        code, out, _ = run_cli(
            ["grid", "--field", "wigner", "--fock-n", "1", *BOUNDS, "--nx", "101"],
            capsys)
        assert code == EXIT_OK
        min_lines = [ln for ln in out.splitlines() if ln.startswith("# min")]
        assert len(min_lines) == 1 and "negative" in min_lines[0]
        assert float(min_lines[0].split("=")[1].split("(")[0]) < -0.29

    def test_warning_is_one_line_and_state_restored(self, capsys):
        show = warnings.showwarning
        code, _, err = run_cli(
            ["grid", "--field", "wigner", "--fock-n", "3", "--bounds", "-7", "7", "-6", "6",
             "--nx", "41"], capsys)
        assert code == EXIT_OK
        assert err == "warning: grid extent below the recommended |x|,|p| >= 7.46 for n = 3\n"
        assert warnings.showwarning is show

    def test_regularized_p_reads_back_exactly(self, capsys):
        code, out, err = run_cli(
            ["grid", "--field", "p_regularized", "--sigma", "0.5", *STATE, *BOUNDS,
             "--nx", "41"], capsys)
        assert code == EXIT_OK
        assert "# sigma = 0.5" in out.splitlines()
        # sigma is below two grid spacings (0.3) at this resolution
        assert err.startswith("warning: P width sigma = 0.5") and err.count("\n") == 1
        with pytest.warns(UserWarning, match="aliased"):
            want = p_representation_grid(p_cat_terms(SPEC), 0.5, Grid2D(-6, 6, -6, 6, 41, 41))
        assert np.array_equal(Grid2D.from_csv(io.StringIO(out)).values, want.values)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_timestamp_in_metadata(self, fmt, capsys):
        code, out, _ = run_cli(
            ["grid", "--field", "q", *STATE, *BOUNDS, "--nx", "21", "--format", fmt,
             "--timestamp", "2020-01-02T03:04:05Z"], capsys)
        assert code == EXIT_OK
        if fmt == "json":
            assert json.loads(out)["meta"]["timestamp"] == "2020-01-02T03:04:05Z"
        else:
            assert "# timestamp = 2020-01-02T03:04:05Z" in out.splitlines()

    def test_negative_fock_n_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["grid", "--field", "wigner", "--fock-n", "-1", *BOUNDS, "--nx", "21"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "non-negative integer" in err

    def test_regularized_p_below_safe_sigma_is_numeric_error(self, capsys):
        # min_safe_sigma of the +-1.5 cat's off-diagonal centres is 0.04
        code, out, err = run_cli(
            ["grid", "--field", "p_regularized", "--sigma", "0.01", *STATE, *BOUNDS,
             "--nx", "41"], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "numeric guard" in err and "need sigma >=" in err

    def test_missing_field_is_usage_error(self, capsys):
        code, _, err = run_cli(["grid", *STATE, *BOUNDS], capsys)
        assert code == EXIT_USAGE
        assert "--field" in err

    def test_json_output_to_file(self, tmp_path, capsys):
        path = tmp_path / "q.json"
        code, _, _ = run_cli(
            ["grid", "--field", "q", *STATE, *BOUNDS, "--nx", "41",
             "--format", "json", "--out", str(path)], capsys)
        assert code == EXIT_OK
        grid = Grid2D.from_json(path.read_text())
        assert grid.nx == 41
        meta = json.loads(path.read_text())["meta"]
        assert meta["field"] == "q"
        assert "timestamp" not in meta


class TestAmplifyCommand:
    def test_json_roundtrip_and_metadata(self, capsys):
        code, out, _ = run_cli(
            ["amplify", "--field", "p", "--gain", "2.0", *STATE,
             "--bounds", "-9", "9", "-9", "9", "--nx", "121", "--format", "json"],
            capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["meta"]["gain"] == 2.0
        assert data["meta"]["sigma"] == pytest.approx(1.224744871391589)
        grid = Grid2D.from_json(out)
        assert grid.integrate().real == pytest.approx(1.0, abs=1e-3)

    def test_amplified_q_reads_back_exactly(self, capsys):
        code, out, _ = run_cli(
            ["amplify", "--field", "q", "--gain", "1.7", *STATE, *BOUNDS, "--nx", "41"],
            capsys)
        assert code == EXIT_OK
        assert "# gain = 1.7" in out.splitlines()
        want = amplify_q(SPEC, AmplifierGain(1.7), Grid2D(-6, 6, -6, 6, 41, 41).plane())
        assert np.array_equal(Grid2D.from_csv(io.StringIO(out)).values, want)

    @pytest.mark.parametrize("argv", [["amplify", "--field", "p"], ["amplify", "--field", "q"]])
    def test_attenuating_gain_is_usage_error(self, argv, capsys):
        code, out, err = run_cli([*argv, "--gain", "0.5", *STATE, *BOUNDS, "--nx", "21"],
                                 capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "usage error: amplitude gain must be finite and >= 1, got 0.5\n"

    def test_unit_gain_p_refused(self, capsys):
        code, _, err = run_cli(
            ["amplify", "--field", "p", "--gain", "1.0", *STATE, *BOUNDS], capsys)
        assert code == EXIT_NUMERIC
        assert "sigma_of_gain" in err
        assert "singular" in err and "sigma" in err

    def test_cancellation_guard_exits_numeric(self, capsys):
        code, out, err = run_cli(
            ["amplify", "--field", "p", "--gain", "1.05", "--alpha1", "3", "0.5",
             "--alpha2", "-3", "0", "--zeta", "1", "0", *BOUNDS, "--nx", "41"], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert "numeric guard" in err


class TestRoundtripCommand:
    def test_report_fields_and_exit(self, capsys):
        code, out, _ = run_cli(["roundtrip", *STATE, "--n-max", "25"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["n_max"] == 25
        assert data["max_abs_deviation"] < 1e-10
        assert data["per_term_checks"] == [[i, True] for i in range(4)]

    def test_separated_cat_at_high_order_is_finite(self, capsys):
        # gamma^n / sqrt(n!) overflows one factor at a time beyond n log|gamma| ~ 709
        code, out, _ = run_cli(["roundtrip", "--alpha1", "10", "0", "--alpha2", "-10", "0",
                                "--zeta", "1", "0", "--n-max", "400"], capsys)
        data = json.loads(out)
        assert code == EXIT_OK
        assert math.isfinite(data["max_abs_deviation"])
        assert data["max_abs_deviation"] < 1e-8
        assert data["per_term_checks"] == [[i, True] for i in range(4)]

    def test_nan_deviation_is_verification_failure(self, monkeypatch, capsys):
        report = RoundTripReport(n_max=5, max_abs_deviation=math.nan,
                                 trace_deviation=0.0, per_term_checks=())
        monkeypatch.setattr("catphase.cli.roundtrip_report", lambda spec, n_max: report)
        code, out, _ = run_cli(["roundtrip", *STATE, "--n-max", "5"], capsys)
        assert code == EXIT_VERIFY
        assert math.isnan(json.loads(out)["max_abs_deviation"])

    def test_explicit_zero_n_max_is_used(self, capsys):
        code, out, err = run_cli(["roundtrip", *STATE, "--n-max", "0"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["n_max"] == 0
        # one truncation warning per amplitude, one line each
        assert err == "warning: Fock truncation n_max = 0 leaves tail mass 8.946e-01 " \
                      "for |alpha| = 1.500\n" * 2


class TestSiftCommand:
    def test_record_structure(self, capsys):
        code, out, _ = run_cli(
            ["sift", "--z0", "1.0", "0.4", "--sigma0", "0.4", "--levels", "3",
             "--envelope-scale", "1.4142135623730951"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["sigma_schedule"] == [0.4, 0.2, 0.1]
        assert len(data["shifted"]) == 3
        assert data["function"]["family"] == "gaussian_envelope"
        # shifted-line route approaches the continuation value monotonically
        target = complex(*data["continuation"])
        devs = [abs(complex(*pair) - target) for pair in data["shifted"]]
        assert devs[0] > devs[1] > devs[2]

    def test_monomial_route_is_exact(self, capsys):
        code, out, _ = run_cli(
            ["sift", "--z0", "0.5", "2.0", "--sigma0", "0.2", "--levels", "2",
             "--monomial", "1"], capsys)
        assert code == EXIT_OK
        data = json.loads(out)
        for pair in data["shifted"]:
            assert complex(*pair) == pytest.approx(0.5 + 2.0j)

    def test_missing_sigma0_is_usage_error(self, capsys):
        code, _, err = run_cli(["sift", "--z0", "1", "0"], capsys)
        assert code == EXIT_USAGE
        assert "sigma0" in err


class TestVerifyCommand:
    def test_one_line_per_criterion(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        lines = [ln for ln in out.splitlines() if ln.startswith("[")]
        assert len(lines) == 10
        fails = [ln for ln in lines if ln.startswith("[FAIL]")]
        # one criterion demands accuracy beyond the O(sigma^2) smoothing
        # floor of the shifted-line route and fails by design
        assert [ln.split("]")[1].split(":")[0].strip() for ln in fails] == ["sifting"]
        assert code == EXIT_VERIFY


class TestConfigAndDeterminism:
    def test_config_defaults_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "alpha1": [1.5, 0.0], "alpha2": [-1.5, 0.0], "zeta": [1.0, 0.0],
            "n-max": 10}))
        code, out, _ = run_cli(
            ["--config", str(cfg), "roundtrip", "--n-max", "25"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["n_max"] == 25

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"gains": 2.0}))
        code, _, err = run_cli(["--config", str(cfg), "roundtrip", *STATE], capsys)
        assert code == EXIT_USAGE
        assert "unknown config key" in err

    def test_config_values_parsed_like_flags(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"nx": "41", "field": "q"}))
        code, out, _ = run_cli(["--config", str(cfg), "grid", *STATE, *BOUNDS], capsys)
        assert code == EXIT_OK
        assert Grid2D.from_csv(io.StringIO(out)).nx == 41

    @pytest.mark.parametrize("cfg", [{"field": "bogus"}, {"nx": "abc"}, {"nx": 41.5},
                                     {"out": None}, ["nx", 41], {"sigma": float("nan")},
                                     {"bounds": [-6, 6, -6, float("inf")]}])
    def test_bad_config_value_is_usage_error(self, cfg, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run_cli(
            ["--config", str(path), "grid", "--field", "q", *STATE, *BOUNDS], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error") and err.count("\n") == 1

    def test_missing_config_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["--config", str(tmp_path / "none.json"), "roundtrip", *STATE], capsys)
        assert code == EXIT_USAGE
        assert "none.json" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["grid", "--field", "bogus"], ["grid", "--nx", "abc"],
                                      ["grid", "--field", "q", *STATE, *BOUNDS, "--nx", "0"],
                                      ["bogus"],
                                      ["amplify", "--field", "q", "--gain", "inf", *STATE,
                                       *BOUNDS, "--nx", "21"],
                                      ["amplify", "--field", "p", "--gain", "nan", *STATE,
                                       *BOUNDS, "--nx", "21"],
                                      ["grid", "--field", "p_regularized", "--sigma", "nan",
                                       *STATE, *BOUNDS, "--nx", "21"],
                                      ["grid", "--field", "q", *STATE,
                                       "--bounds", "nan", "6", "-6", "6", "--nx", "21"],
                                      ["grid", "--field", "q", "--alpha1", "-inf", "0",
                                       "--alpha2", "-1.5", "0", "--zeta", "1", "0", *BOUNDS],
                                      ["sift", "--z0", "1", "0", "--sigma0", "nan",
                                       "--monomial", "1"],
                                      # zero and negative widths, a negative n_max
                                      ["sift", "--z0", "1", "0.4", "--sigma0", "0",
                                       "--envelope-scale", "1"],
                                      ["sift", "--z0", "1", "0.4", "--sigma0", "-0.1",
                                       "--monomial", "3"],
                                      ["roundtrip", *STATE, "--n-max", "-1"],
                                      # no levels, and a schedule whose width squares to 0
                                      *(["sift", "--z0", "1", "0.4", "--sigma0", "0.3",
                                         "--envelope-scale", "1", "--levels", levels]
                                        for levels in ("0", "-2", "2000")),
                                      # amplified fields come only from amplify
                                      ["grid", "--field", "p_amplified", "--gain", "2.0",
                                       *STATE, *BOUNDS, "--nx", "21"],
                                      ["grid", "--field", "q", "--gain", "2.0", *STATE,
                                       *BOUNDS, "--nx", "21"],
                                      # inverted and degenerate bounds
                                      ["grid", "--field", "q", *STATE,
                                       "--bounds", "6", "-6", "-6", "6", "--nx", "41"],
                                      ["grid", "--field", "q", *STATE,
                                       "--bounds", "-6", "6", "2", "2", "--nx", "41"]])
    def test_unparsable_or_invalid_flag_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["roundtrip"], ["grid", "--field", "q", *BOUNDS]])
    @pytest.mark.parametrize("state", [["--alpha1", "1e200", "0", *STATE[3:]],
                                       [*STATE[:6], "--zeta", "1e300", "0"]],
                             ids=["alpha1", "zeta"])
    def test_amplitude_whose_square_overflows_is_numeric_error(self, command, state, capsys):
        code, out, err = run_cli([*command, *state], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric guard: cat state out of range") and err.count("\n") == 1
        assert ("alpha1 = (1e+200+0j)" in err) != ("zeta = (1e+300+0j)" in err)

    def test_output_into_missing_directory_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "missing" / "f.csv"
        code, out, err = run_cli(
            ["grid", "--field", "q", *STATE, *BOUNDS, "--nx", "21", "--out", str(path)],
            capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert str(path) in err and err.count("\n") == 1

    def test_byte_identical_reruns(self, capsys):
        argv = ["grid", "--field", "q", *STATE, *BOUNDS, "--nx", "41"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second

    def test_no_command_prints_usage(self, capsys):
        code, _, err = run_cli([], capsys)
        assert code == EXIT_USAGE
        assert "usage" in err
