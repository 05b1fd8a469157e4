import io
import json

import numpy as np
import pytest

from catphase.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from catphase.quasiprob import Grid2D

STATE = ["--alpha1", "1.5", "0", "--alpha2", "-1.5", "0", "--zeta", "1", "0"]
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

    def test_negative_fock_n_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["grid", "--field", "wigner", "--fock-n", "-1", *BOUNDS, "--nx", "21"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "non-negative integer" in err

    def test_singular_gain_refused_with_guidance(self, capsys):
        code, _, err = run_cli(
            ["grid", "--field", "p_amplified", "--gain", "1.0", *STATE, *BOUNDS],
            capsys)
        assert code == EXIT_NUMERIC
        assert "singular" in err and "sigma" in err

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

    @pytest.mark.parametrize("argv", [["grid", "--field", "p_amplified"],
                                      ["amplify", "--field", "p"], ["amplify", "--field", "q"]])
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

    def test_explicit_zero_n_max_is_used(self, capsys):
        code, out, _ = run_cli(["roundtrip", *STATE, "--n-max", "0"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["n_max"] == 0


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

    def test_explicit_zero_levels_is_used(self, capsys):
        code, out, _ = run_cli(
            ["sift", "--z0", "1.0", "0.4", "--sigma0", "0.4", "--levels", "0",
             "--envelope-scale", "1.4"], capsys)
        assert code == EXIT_OK
        assert json.loads(out)["sigma_schedule"] == []


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
                                       "--monomial", "1"]])
    def test_unparsable_or_invalid_flag_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error") and err.count("\n") == 1

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
