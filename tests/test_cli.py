import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import catphase.cli
from catphase import quasiprob
from catphase.amplifier import AmplifierGain, amplified_p, amplify_q
from catphase.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from catphase.quasiprob import Grid2D, p_cat_terms, p_regularized_eval, p_representation_grid, \
    q_function
from catphase.reconstruct import RoundTripReport
from catphase.states import CatStateSpec
from test_package import fresh_env, run_fresh
from test_quasiprob import assert_bitwise_equal, meshgrid_plane, spelled_real_values

STATE = ["--alpha1", "1.5", "0", "--alpha2", "-1.5", "0", "--zeta", "1", "0"]
SPEC = CatStateSpec(1.5, -1.5, 1.0)
BOUNDS = ["--bounds", "-6", "6", "-6", "6"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# NaN or an infinity as repr, JSON or a complex's str writes it
NON_FINITE = re.compile(r"(?i)(?<![a-z])(?:nan|inf(?:inity)?)j?(?![a-z])")


def assert_contract(code, written, err):
    """The CLI's contract for one run: a known exit code; each stderr line a
    usage error, a numeric guard or a warning, and none a raw numpy
    floating-point warning; and on exit 0 only finite numbers in `written`,
    the text of stdout or of the --out file."""
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC, EXIT_VERIFY)
    for line in err.splitlines():
        assert line.startswith(("usage error:", "numeric guard:", "warning:")), line
        assert "encountered in" not in line, line
    if code == EXIT_OK:
        assert not NON_FINITE.findall(written)


def test_contract_catches_non_finite_values_and_raw_warnings():
    for written in ["x,y,re,im\n0.0,1.0,nan,0.0\n", "# integral = -inf\n",
                    '{"values": [[Infinity, 0.0]]}', "# zeta = (1+infj)\n"]:
        with pytest.raises(AssertionError):
            assert_contract(EXIT_OK, written, "")
    with pytest.raises(AssertionError):
        assert_contract(EXIT_OK, "", "warning: overflow encountered in multiply\n")
    assert_contract(EXIT_OK, "# info = integral 1.5e-300 (finite)\n", "warning: aliased\n")


# each alpha field's command, and the library's values of that field
ALPHA_FIELDS = {
    "grid-q": (["grid", "--field", "q"], lambda a: q_function(SPEC, a)),
    "grid-p_regularized": (["grid", "--field", "p_regularized", "--sigma", "0.6"],
                           lambda a: p_regularized_eval(p_cat_terms(SPEC), 0.6, a)),
    "amplify-q": (["amplify", "--field", "q", "--gain", "1.7"],
                  lambda a: amplify_q(SPEC, AmplifierGain(1.7), a)),
    "amplify-p": (["amplify", "--field", "p", "--gain", "1.7"],
                  lambda a: amplified_p(SPEC, AmplifierGain(1.7), a)),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", ALPHA_FIELDS)
def test_alpha_field_reads_back_as_the_library_values(name, fmt, tmp_path, capsys):
    # the command evaluates on the grid's axes; a library caller on its meshgrid plane
    argv, field = ALPHA_FIELDS[name]
    path = tmp_path / f"field.{fmt}"
    code, out, err = run_cli([*argv, *STATE, "--bounds", "-6", "6.5", "-5", "5.5", "--nx", "51",
                              "--ny", "43", "--format", fmt, "--out", str(path)], capsys)
    text = path.read_text()
    assert_contract(code, text, err)
    assert (code, out, err) == (EXIT_OK, "", "")
    read = Grid2D.from_json(text) if fmt == "json" else Grid2D.from_csv(io.StringIO(text))
    want = Grid2D(-6.0, 6.5, -5.0, 5.5, 51, 43)
    assert (read.x_min, read.x_max, read.y_min, read.y_max, read.nx, read.ny) == \
        (want.x_min, want.x_max, want.y_min, want.y_max, want.nx, want.ny)
    assert_bitwise_equal(read.values, np.asarray(field(meshgrid_plane(want)), dtype=complex))


# the contract test's inputs: bounds from 0 through subnormals to where squares
# (1e154), cell areas (1e200) and spans (1.7e308) overflow; float flags from 0, a
# subnormal and values whose squares overflow to values of a few hundred
CONTRACT_BOUNDS = st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 1e154,
                                   -1e154, 1e200, -1e200, 1e300, -1e300, 1.7e308, -1.7e308])
AMPLITUDES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1e154, -1e300]),
                       st.floats(-300.0, 300.0))
WIDTHS = st.one_of(st.sampled_from([5e-324, 1e-300, 1e154]), st.floats(-1.0, 10.0))
GAINS = st.one_of(st.sampled_from([1.0, 1.0000000000000002, 1e154, 1e300]), st.floats(0.0, 10.0))
FOCK_NS = st.one_of(st.integers(-2, 70), st.just(10**30))


@st.composite
def grid_argv(draw):
    """argv of one grid or amplify run, all but --format, with nx and ny at most 9."""
    command, field = draw(st.sampled_from([("grid", "q"), ("grid", "wigner"),
                                           ("grid", "p_regularized"), ("amplify", "q"),
                                           ("amplify", "p")]))
    bounds = [repr(draw(CONTRACT_BOUNDS)) for _ in range(4)]
    argv = [command, "--field", field, "--bounds", *bounds, "--nx", str(draw(st.integers(-1, 9)))]
    if draw(st.booleans()):
        argv += ["--ny", str(draw(st.integers(-1, 9)))]
    if field == "wigner":
        return [*argv, "--fock-n", str(draw(FOCK_NS))]
    for flag in ("--alpha1", "--alpha2", "--zeta"):
        argv += [flag, repr(draw(AMPLITUDES)), repr(draw(AMPLITUDES))]
    if field == "p_regularized":
        argv += ["--sigma", repr(draw(WIDTHS))]
    if command == "amplify":
        argv += ["--gain", repr(draw(GAINS))]
    return argv


@settings(max_examples=300)
@given(argv=grid_argv())
# squares that overflow; cell areas that overflow; nodes 2 ulps and one subnormal apart
@example(argv=["grid", "--field", "q", *STATE, "--bounds", "-8e307", "8e307", "-8e307", "8e307",
               "--nx", "3"])
@example(argv=["grid", "--field", "wigner", "--fock-n", "2", "--bounds", "-8e307", "8e307",
               "-8e307", "8e307", "--nx", "3"])
@example(argv=["amplify", "--field", "p", "--gain", "2", *STATE, "--bounds", "-1e200", "1e200",
               "-1e200", "1e200", "--nx", "3"])
@example(argv=["grid", "--field", "q", "--alpha1", "1", "0", "--alpha2", "-1", "0", "--zeta",
               "1", "0", "--bounds", "1", "1.0000000000000004", "0", "1", "--nx", "9"])
@example(argv=["grid", "--field", "q", *STATE, "--bounds", "0", "5e-324", "0", "1", "--nx", "3"])
def test_grid_commands_keep_the_contract(argv):
    # in both formats a run either writes nothing or writes a grid that reads back,
    # the same grid in each
    read = {}
    for fmt in ("csv", "json"):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([*argv, "--format", fmt])
        assert_contract(code, out.getvalue(), err.getvalue())
        if code != EXIT_OK:
            assert out.getvalue() == ""
        elif fmt == "json":
            read[fmt] = Grid2D.from_json(out.getvalue())
        else:
            semantics = "xp" if "wigner" in argv else "alpha"
            read[fmt] = Grid2D.from_csv(io.StringIO(out.getvalue()), axis_semantics=semantics)
    for grid in read.values():
        assert np.isfinite(grid.values).all()
    if len(read) == 2:
        csv, jsn = read["csv"], read["json"]
        for name in ("x_min", "x_max", "y_min", "y_max", "nx", "ny", "axis_semantics"):
            assert getattr(csv, name) == getattr(jsn, name)
        assert_bitwise_equal(csv.values, jsn.values)


@st.composite
def sift_argv(draw):
    """argv of one sift run, with at most 2001 nodes and 4 levels."""
    argv = ["sift", "--z0", repr(draw(AMPLITUDES)), repr(draw(AMPLITUDES)),
            "--sigma0", repr(draw(WIDTHS)), "--levels", str(draw(st.integers(1, 4))),
            "--nodes", str(draw(st.integers(2, 2001))),
            "--halfwidth", repr(draw(st.one_of(st.sampled_from([1e154, 1e300]),
                                               st.floats(-1.0, 20.0))))]
    if draw(st.booleans()):
        return [*argv, "--monomial", str(draw(st.integers(-1, 66)))]
    coeffs = draw(st.lists(AMPLITUDES, min_size=1, max_size=3))
    return [*argv, "--envelope-scale", repr(draw(st.one_of(WIDTHS, st.just(1e300)))),
            "--envelope-coeffs", *map(repr, coeffs)]


@settings(max_examples=200)
@given(argv=sift_argv())
# a moment and a continuation that come back NaN; an envelope exponent, a polynomial
# and a scale's square that overflow; a cancellation factor that overflows; a
# continuation that overflows between the shifted line's nodes; and a shifted-line
# integrand that overflows at z0
@example(argv=["sift", "--z0", "-1e154", "1.7e308", "--sigma0", "2.5", "--levels", "1",
               "--nodes", "2", "--halfwidth", "0.05", "--monomial", "64"])
@example(argv=["sift", "--z0", "1", "0.4", "--sigma0", "0.4", "--envelope-scale", "1e-155"])
@example(argv=["sift", "--z0", "1", "0.4", "--sigma0", "0.4", "--envelope-scale", "1",
               "--envelope-coeffs", "1.7e308"])
@example(argv=["sift", "--z0", "1", "0.4", "--sigma0", "0.4", "--envelope-scale", "1e300"])
@example(argv=["sift", "--z0", "0", "1", "--sigma0", "0.01", "--monomial", "2"])
@example(argv=["sift", "--z0", "0", "37.679", "--sigma0", "2", "--levels", "1", "--nodes", "2",
               "--halfwidth", "0.5", "--envelope-scale", "1"])
@example(argv=["sift", "--z0", "0", "1", "--sigma0", "1e154", "--levels", "1", "--nodes", "3",
               "--halfwidth", "1e154", "--envelope-scale", "0.015625", "--envelope-coeffs", "0",
               "5e-324"])
def test_sift_command_keeps_the_contract(argv):
    # the cancellation factor reads Infinity by design once e^{b^2 / 2 sigma^2}
    # overflows; every sifted value and the continuation are finite
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    written = out.getvalue()
    if code == EXIT_OK:
        data = json.loads(written)
        written = json.dumps([data["direct"], data["shifted"], data["continuation"]])
    else:
        assert written == ""
    assert_contract(code, written, err.getvalue())


@st.composite
def roundtrip_argv(draw):
    """argv of one roundtrip run, with --n-max from -1 to 60: amplitudes of at
    most 8, one part perhaps from 5e-324 to 1e300, and a zeta of 0, of -1 (with
    alpha2 = alpha1 a degenerate state) or any."""
    pair = st.lists(st.floats(-8.0, 8.0).map(repr), min_size=2, max_size=2)
    alpha1 = draw(pair)
    alpha2 = draw(st.one_of(st.just(alpha1), pair))
    zeta = draw(st.one_of(st.sampled_from([["0.0", "0.0"], ["-1.0", "0.0"]]), pair))
    argv = ["roundtrip", "--alpha1", *alpha1, "--alpha2", *alpha2, "--zeta", *zeta,
            "--n-max", str(draw(st.integers(-1, 60)))]
    if draw(st.booleans()):
        extreme = st.sampled_from([5e-324, 1e-300, 300.0, -300.0, 1e154, 1e200, -1e200, 1e300])
        argv[draw(st.sampled_from([2, 3, 5, 6, 8, 9]))] = repr(draw(extreme))
    return argv


# size faults: test_size_that_cannot_be_allocated_is_numeric_error
@settings(max_examples=200)
@given(argv=roundtrip_argv())
# a degenerate state; amplitudes whose squares overflow, and ones whose columns
# hold none of their mass at n_max 60; a negative order
@example(argv=["roundtrip", "--alpha1", "1", "0", "--alpha2", "1", "0", "--zeta", "-1", "0"])
@example(argv=["roundtrip", "--alpha1", "1e200", "0", "--alpha2", "-1e200", "3", "--zeta", "0",
               "0", "--n-max", "60"])
@example(argv=["roundtrip", "--alpha1", "1e154", "0", "--alpha2", "-1e154", "3", "--zeta", "0",
               "0", "--n-max", "60"])
@example(argv=["roundtrip", *STATE, "--n-max", "-1"])
def test_roundtrip_command_keeps_the_contract(argv):
    # a report is written on exit 0 and on a failed check (exit 3), nothing otherwise
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    written = out.getvalue()
    if code in (EXIT_OK, EXIT_VERIFY):
        assert set(json.loads(written)) == {"n_max", "max_abs_deviation", "trace_deviation",
                                            "per_term_checks"}
    else:
        assert written == ""
    assert_contract(code, written, err.getvalue())


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

    # a second line, and a data row injected after the comment
    @pytest.mark.parametrize("stamp", ["a\nb", "a\n1,2,3,4", "a\rb"])
    def test_timestamp_with_a_line_break_is_refused_in_csv(self, stamp, tmp_path, capsys):
        argv = ["grid", "--field", "q", *STATE, *BOUNDS, "--nx", "21", "--timestamp", stamp]
        path = tmp_path / "q.csv"
        for target in ([], ["--out", str(path)]):
            code, out, err = run_cli([*argv, *target], capsys)
            assert (code, out) == (EXIT_USAGE, "")
            assert err == f"usage error: metadata line {'timestamp = ' + stamp!r} " \
                          "holds a line break\n"
        assert not path.exists()
        # JSON escapes the break
        code, out, _ = run_cli([*argv, "--format", "json"], capsys)
        assert code == EXIT_OK and json.loads(out)["meta"]["timestamp"] == stamp

    def test_negative_fock_n_is_usage_error(self, capsys):
        code, out, err = run_cli(
            ["grid", "--field", "wigner", "--fock-n", "-1", *BOUNDS, "--nx", "21"], capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert "non-negative integer" in err

    def test_regularized_p_below_safe_sigma_is_numeric_error(self, capsys):
        # at sigma = 0.01 the +-1.5 cat's off-diagonal terms peak beyond double range
        code, out, err = run_cli(
            ["grid", "--field", "p_regularized", "--sigma", "0.01", *STATE, *BOUNDS,
             "--nx", "41"], capsys)
        assert_contract(code, out, err)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.splitlines()[-1] == \
            "numeric guard: regularized P at sigma = 0.01: 525 of 1681 values are not finite"

    @pytest.mark.parametrize("field", [["--field", "wigner", "--fock-n", "2"],
                                       ["--field", "q", *STATE]], ids=["wigner", "q"])
    def test_span_that_overflows_is_usage_error(self, field, capsys):
        # each bound is finite, but x_max - x_min = 2e308 is not: linspace would
        # make NaN and infinite nodes
        code, out, err = run_cli(["grid", *field, "--bounds", "-1e308", "1e308", "-1", "1",
                                  "--nx", "3"], capsys)
        assert_contract(code, out, err)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage error: bounds and the spans between them must be finite")
        assert err.count("\n") == 1

    def test_wigner_cells_beyond_overflow_are_zero(self, capsys):
        # 2 (x^2 + p^2) overflows at |x| = 1e200; those cells are 0, as where e^{-u/2} underflows
        code, out, err = run_cli(["grid", "--field", "wigner", "--fock-n", "2", "--bounds",
                                  "-1e200", "1e200", "-10", "10", "--nx", "3"], capsys)
        assert_contract(code, out, err)
        assert (code, err) == (EXIT_OK, "")
        values = Grid2D.from_csv(io.StringIO(out), axis_semantics="xp").values
        assert not values[[0, 2]].any()
        assert values[1, 1] == 1.0 / math.pi

    def test_q_beyond_square_overflow_is_evaluated(self, capsys):
        # the far nodes' squares overflow; Q is 0 there, not refused as NaN
        code, out, err = run_cli(["grid", "--field", "q", *STATE, "--bounds", "-8e307", "8e307",
                                  "-8e307", "8e307", "--nx", "3", "--format", "json"], capsys)
        assert_contract(code, out, err)
        assert (code, err) == (EXIT_OK, "")
        values = Grid2D.from_json(out).values
        assert np.count_nonzero(values) == 1
        assert values[1, 1] == pytest.approx(q_function(SPEC, 0.0), rel=1e-14)

    @pytest.mark.parametrize("argv", [
        ["grid", "--field", "wigner", "--fock-n", "2", "--bounds", "-8e307", "8e307", "-8e307",
         "8e307"],
        ["amplify", "--field", "p", "--gain", "2", *STATE, "--bounds", "-1e200", "1e200", "-1e200",
         "1e200"]], ids=["wigner", "amplify-p"])
    def test_integral_that_overflows_is_numeric_error(self, argv, tmp_path, capsys):
        # the values are finite, but the cell areas (8e307^2 and 1e200^2) overflow, so
        # the CSV footer's integral would be inf; nothing is written, no file is made
        path = tmp_path / "field.csv"
        code, out, err = run_cli([*argv, "--nx", "3", "--out", str(path)], capsys)
        assert_contract(code, out, err)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err == f"numeric guard: the integral over bounds {[float(b) for b in argv[-4:]]} " \
                      "is inf: the cell areas or the values overflow\n"
        assert not path.exists()
        # JSON has no integral to write
        code, out, err = run_cli([*argv, "--nx", "3", "--format", "json"], capsys)
        assert_contract(code, out, err)
        assert (code, err) == (EXIT_OK, "")
        assert np.isfinite(Grid2D.from_json(out).values).all()

    def test_separated_cat_q_is_evaluated(self, capsys):
        # <beta|gamma> = e^{-1458} underflows while the Im-axis factor would
        # reach e^{729}: the log weight in the exponents keeps both finite
        code, out, err = run_cli(
            ["grid", "--field", "q", "--alpha1", "27", "0", "--alpha2", "-27", "0",
             "--zeta", "1", "0", "--bounds", "-32", "32", "-5", "5", "--nx", "41"], capsys)
        assert (code, err) == (EXIT_OK, "")
        values = Grid2D.from_csv(io.StringIO(out)).values
        assert np.isfinite(values).all()
        assert 0.0 <= values.real.min() and values.real.max() <= 1.0 / math.pi

    def test_missing_field_is_usage_error(self, capsys):
        code, _, err = run_cli(["grid", *STATE, *BOUNDS], capsys)
        assert code == EXIT_USAGE
        assert "--field" in err

    @pytest.mark.parametrize("argv", [["grid", "--field", "q"],
                                      ["amplify", "--field", "p", "--gain", "1.7"],
                                      ["grid", "--field", "p_regularized", "--sigma", "0.6"]],
                             ids=["grid-q", "amplify-p", "grid-p_regularized"])
    def test_csv_memory_bounded(self, argv, tmp_path):
        # an 801^2 complex plane is 10.3 MB: the alpha plane and the real
        # field, then the grid's complex values and the written row; no
        # complex sum, no term plane and no zero plane the command throws
        # away, and no alpha plane left beside the regularized P's complex one
        out = tmp_path / "field.csv"
        tracemalloc.start()
        try:
            code = main([*argv, *STATE, *BOUNDS, "--nx", "801", "--out", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        assert peak < 20e6

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
        want = amplify_q(SPEC, AmplifierGain(1.7), meshgrid_plane(Grid2D(-6, 6, -6, 6, 41, 41)))
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
        monkeypatch.setattr("catphase.reconstruct.roundtrip_report", lambda spec, n_max: report)
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

    # nodes 2e299 apart, and nodes that all round to 1e300
    @pytest.mark.parametrize("argv", [
        ["--z0", "1", "0.4", "--halfwidth", "1e300", "--nodes", "11"],
        ["--z0", "1e300", "0.4"]], ids=["spacing", "rounding"])
    def test_unresolved_quadrature_is_numeric_error(self, argv, capsys):
        code, out, err = run_cli(
            ["sift", *argv, "--sigma0", "0.3", "--envelope-scale", "1"], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric guard: sifting quadrature cannot resolve sigma = 0.3")
        assert err.count("\n") == 1

    def test_continuation_that_is_not_finite_is_numeric_error(self, capsys):
        # e^{-z^2 / 2} at z0 = 37.679i is e^{709.85}, past the largest double; the
        # shifted line's two nodes, 0.5 either side of z0, stay below it
        code, out, err = run_cli(["sift", "--z0", "0", "37.679", "--sigma0", "2", "--levels", "1",
                                  "--nodes", "2", "--halfwidth", "0.5", "--envelope-scale", "1"],
                                 capsys)
        assert (code, out) == (EXIT_NUMERIC, "")
        # the window of halfwidth 0.5 is warned about first: it does not hold 8 sigma
        warning, guard = err.splitlines()
        assert warning == ("warning: quadrature halfwidth 0.5 < 8 sigma = 16.0; "
                           "window truncates the regularized delta")
        assert guard.startswith("numeric guard: the continuation f(z0) at z0 = 37.679j is ")
        assert err.count("\n") == 2

    def test_window_narrower_than_eight_sigma_warns_at_each_level(self, capsys):
        # the direct and shifted sums, 0.367 and 0.362, are far from the continuation 0.948
        argv = ["sift", "--z0", "1", "0.2", "--envelope-scale", "3", "--nodes", "801",
                "--levels", "2", "--sigma0"]
        code, out, err = run_cli([*argv, "1", "--halfwidth", "0.5"], capsys)
        assert code == EXIT_OK
        assert err == "".join(f"warning: quadrature halfwidth 0.5 < 8 sigma = {reach}; window "
                              "truncates the regularized delta\n" for reach in (8.0, 4.0))
        data = json.loads(out)
        assert abs(complex(*data["shifted"][0]) - complex(*data["continuation"])) > 0.5
        # the default halfwidth, 12, holds 8 sigma
        assert run_cli([*argv, "0.4"], capsys)[::2] == (EXIT_OK, "")

    def test_non_finite_integrand_refusal_prints_plain_numbers(self, capsys):
        # the envelope's 1e-155 squared is subnormal, so the integrand is NaN at a node;
        # the refusal names that node's x and value as Python numbers, not numpy reprs
        code, out, err = run_cli(["sift", "--z0", "1", "0.4", "--sigma0", "0.4",
                                  "--envelope-scale", "1e-155"], capsys)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err.startswith("numeric guard: ") and err.count("\n") == 1
        assert "np." not in err

    def test_envelope_scale_whose_square_overflows_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sift.json"
        code, out, err = run_cli(["sift", "--z0", "1", "0.4", "--sigma0", "0.4",
                                  "--envelope-scale", "1e300", "--out", str(path)], capsys)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "usage error: scale = 1e+300 is too large: its square overflows\n"
        assert not path.exists()

    @pytest.mark.parametrize("z0,degree", [("1e300", "3"), ("1e100", "4")])
    def test_moment_that_overflows_is_numeric_error(self, z0, degree, capsys):
        code, out, err = run_cli(
            ["sift", "--z0", z0, "0.4", "--sigma0", "0.3", "--monomial", degree], capsys)
        assert (code, out) == (EXIT_NUMERIC, "")
        assert err == (f"numeric guard: moment of order {degree} at z = ({float(z0)!r}+0.4j) "
                       "with sigma = 0.3 overflows double precision\n")


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
                                       "--bounds", "-6", "6", "2", "2", "--nx", "41"],
                                      # nodes that round together: 9 across 2 ulps are 3, whose
                                      # CSV would read back as a 3 x 9 grid
                                      ["grid", "--field", "q", *STATE,
                                       "--bounds", "1", "1.0000000000000004", "0", "1",
                                       "--nx", "9"],
                                      ["grid", "--field", "wigner", "--fock-n", "1",
                                       "--bounds", "0", "1", "0", "5e-324", "--nx", "3"],
                                      # a refused width draws no aliasing warning first
                                      *(["grid", "--field", "p_regularized", "--sigma", sigma,
                                         *STATE, *BOUNDS, "--nx", "21"]
                                        for sigma in ("0", "-1"))])
    def test_unparsable_or_invalid_flag_is_usage_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage error") and err.count("\n") == 1

    @pytest.mark.parametrize("command", [["roundtrip"], ["grid", "--field", "q", *BOUNDS]])
    @pytest.mark.parametrize("state,named", [
        (["--alpha1", "1e200", "0", *STATE[3:]], "alpha1 = (1e+200+0j)"),
        ([*STATE[:6], "--zeta", "1e300", "0"], "zeta = (1e+300+0j)"),
        # each square is finite, but |alpha1|^2 + |alpha2|^2 is not
        (["--alpha1", "1.3e154", "0", "--alpha2", "1.3e154", "0", *STATE[6:]],
         "alpha2 = (1.3e+154+0j)")], ids=["alpha1", "zeta", "sum"])
    def test_amplitude_whose_square_overflows_is_numeric_error(self, command, state, named,
                                                                capsys):
        code, out, err = run_cli([*command, *state], capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric guard: cat state out of range") and err.count("\n") == 1
        assert named in err

    # each request is far above the 128 TiB user address space, so it can never be mapped
    @pytest.mark.parametrize("argv", [
        ["grid", "--field", "q", *STATE, *BOUNDS, "--nx", "10000000"],
        ["amplify", "--field", "q", "--gain", "2", *STATE, *BOUNDS, "--nx", "10000000"],
        ["roundtrip", *STATE, "--n-max", str(10**15)],
        ["sift", "--z0", "1", "0.4", "--sigma0", "0.3", "--envelope-scale", "1",
         "--nodes", str(10**15)]], ids=["grid", "amplify", "roundtrip", "sift"])
    def test_size_that_cannot_be_allocated_is_numeric_error(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == EXIT_NUMERIC
        assert out == ""
        assert err.startswith("numeric guard: Unable to allocate") and err.count("\n") == 1

    def test_bare_memory_error_is_numeric_error(self, monkeypatch, capsys):
        def fail(*_):
            raise MemoryError
        monkeypatch.setattr("catphase.reconstruct.roundtrip_report", fail)
        code, out, err = run_cli(["roundtrip", *STATE], capsys)
        assert (code, out, err) == (EXIT_NUMERIC, "", "numeric guard: out of memory\n")

    @pytest.mark.parametrize("argv", [["roundtrip", *STATE],
                                      ["grid", "--field", "q", *STATE, *BOUNDS, "--nx", "21"]],
                             ids=["roundtrip", "grid"])
    def test_negative_number_in_exponent_form_is_a_value(self, argv, capsys):
        exponent_form = {"-1.5": "-1.5e0", "-6": "-6e0"}
        want = run_cli(argv, capsys)
        assert want[0] == EXIT_OK
        assert run_cli([exponent_form.get(a, a) for a in argv], capsys) == want

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


# each field the CLI writes, its argv without the grid, --format and --out
WRITTEN_FIELDS = {
    "q": ["grid", "--field", "q", *STATE],
    "p_regularized": ["grid", "--field", "p_regularized", "--sigma", "1.5", *STATE],
    "wigner": ["grid", "--field", "wigner", "--fock-n", "3"],
    "amplify-p": ["amplify", "--field", "p", "--gain", "1.7", *STATE],
}
WIDE_BOUNDS = ["--bounds", "-8", "8", "-7", "7.5"]


def library_text(grid, fmt, written):
    """What Grid2D's library writers write for `grid`, with the metadata of
    the command's `written` text, and for CSV the command's footer."""
    if fmt == "json":
        return grid.to_json(json.loads(written)["meta"]) + "\n"
    lines = itertools.takewhile(lambda line: line.startswith("# "), written.splitlines())
    buf = io.StringIO()
    grid.to_csv(buf, meta=[line[2:] for line in lines])
    buf.write(f"# integral = {grid.integrate().real!r}\n")
    if (w_min := float(np.min(grid.values.real))) < 0.0:
        buf.write(f"# min = {w_min!r} (negative values present)\n")
    return buf.getvalue()


def forking_env():
    """This process's environment without OPENBLAS_NUM_THREADS, so that a
    fresh command may fork its writer."""
    return {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def two_processes(monkeypatch):
    """Forces the command's two-process write on grids of any size, in
    blocks of 2 rows of 23 cells; yields the grids written and the pids
    that forked."""
    grids, forks = [], []
    write, fork = Grid2D._write, os.fork
    monkeypatch.setattr(catphase.cli, "_FORK_WRITES", True)
    monkeypatch.setattr(quasiprob, "_FORK_CELLS", 0)
    monkeypatch.setattr(quasiprob, "_FORK_BLOCK_CELLS", 46)
    monkeypatch.setattr(quasiprob, "_cpu_count", lambda: 2)
    monkeypatch.setattr(Grid2D, "_write", lambda self, *a, **k: grids.append(self) or
                        write(self, *a, **k))
    monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork())
    yield grids, forks
    assert_no_child_left()


class FailingStream(io.StringIO):
    """A stream whose write raises `error` once `writes` writes are done."""

    def __init__(self, error, writes):
        super().__init__()
        self.error, self.writes = error, writes

    def write(self, text):
        if not self.writes:
            raise self.error
        self.writes -= 1
        return super().write(text)


class TestTwoProcessWrite:
    # 37 rows in blocks of 2 are 19 blocks, 35 in blocks of 3 are 12; the last is partial
    @pytest.mark.parametrize("nx, ny, block_cells", [(37, 23, 46), (35, 23, 69)],
                             ids=["19-blocks", "12-blocks"])
    @pytest.mark.parametrize("target", ["path", "-"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("field", WRITTEN_FIELDS)
    def test_two_processes_write_the_library_text(self, field, fmt, target, nx, ny,
                                                   block_cells, two_processes, monkeypatch,
                                                   tmp_path, capsys):
        grids, forks = two_processes
        monkeypatch.setattr(quasiprob, "_FORK_BLOCK_CELLS", block_cells)
        path = tmp_path / f"field.{fmt}"
        argv = [*WRITTEN_FIELDS[field], *WIDE_BOUNDS, "--nx", str(nx), "--ny", str(ny),
                "--format", fmt, "--out", str(path) if target == "path" else target]
        if target == "-":
            argv += ["--timestamp", "2020-01-02T03:04:05Z"]
        code, out, err = run_cli(argv, capsys)
        written = path.read_text() if target == "path" else out
        assert (code, err) == (EXIT_OK, "")
        assert forks == [os.getpid()]
        assert_no_child_left()
        assert written == library_text(grids[0], fmt, written)
        assert ("2020-01-02T03:04:05Z" in written) == (target == "-")

    # BrokenPipeError is what `catphase grid ... | head -1` meets; the failing
    # write is a block the worker sent (2 writes done) or one formatted here (3)
    @pytest.mark.parametrize("writes", [2, 3])
    @pytest.mark.parametrize("error", [BrokenPipeError(32, "Broken pipe"),
                                       OSError(28, "No space left on device")],
                             ids=["broken-pipe", "disk-full"])
    def test_stream_that_fails_is_usage_error_and_the_worker_is_reaped(
            self, error, writes, two_processes, capsys):
        stream = FailingStream(error, writes)
        with redirect_stdout(stream):
            code = main([*WRITTEN_FIELDS["q"], *BOUNDS, "--nx", "37", "--ny", "23"])
        assert (code, capsys.readouterr().err) == (EXIT_USAGE, f"usage error: {error}\n")
        assert two_processes[1] == [os.getpid()]
        assert_no_child_left()

    @pytest.mark.parametrize("writes", [2, 3])
    def test_interrupt_reaps_the_worker(self, writes, two_processes):
        with redirect_stdout(FailingStream(KeyboardInterrupt(), writes)):
            with pytest.raises(KeyboardInterrupt):
                main([*WRITTEN_FIELDS["q"], *BOUNDS, "--nx", "37", "--ny", "23"])
        assert two_processes[1] == [os.getpid()]
        assert_no_child_left()

    # the worker fails before its first block, after some, or at its last
    @pytest.mark.parametrize("fails_from", [0, 10, 34])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_worker_that_dies_leaves_its_blocks_to_the_parent(self, fmt, fails_from,
                                                               two_processes, monkeypatch,
                                                               capsys):
        parent, text = os.getpid(), Grid2D._text

        def failing_text(self, *args):
            head, rows, tail = text(self, *args)

            def worker_rows(start, stop):
                if os.getpid() != parent and start >= fails_from:
                    raise RuntimeError("the worker fails")
                return rows(start, stop)

            return head, worker_rows, tail

        monkeypatch.setattr(Grid2D, "_text", failing_text)
        code, out, err = run_cli([*WRITTEN_FIELDS["q"], *BOUNDS, "--nx", "37", "--ny", "23",
                                  "--format", fmt], capsys)
        assert (code, err) == (EXIT_OK, "")
        assert out == library_text(two_processes[0][0], fmt, out)

    # 301 x 300 cells reach the command's own fork threshold, 7 x 6 do not
    @pytest.mark.parametrize("nx, ny, fork", [(301, 300, True), (301, 300, False),
                                              (7, 6, True)])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_real_grid_writes_the_bytes_of_its_complex_twin(self, fmt, nx, ny, fork,
                                                            monkeypatch):
        forks, fork_call = [], os.fork
        monkeypatch.setattr(quasiprob, "_cpu_count", lambda: 2)
        monkeypatch.setattr(os, "fork", lambda: forks.append(os.getpid()) or fork_call())
        real = Grid2D(-1.0, 1.0, -2.0, 3.0, nx, ny, values=spelled_real_values(nx, ny))
        twin = real.like(values=real.values.astype(complex))
        texts = []
        for grid in (real, twin):
            out = io.StringIO()
            grid._write(out, grid._text(fmt, ["field = test"] if fmt == "csv" else {}), fork)
            texts.append(out.getvalue())
        assert real.values.dtype == float and texts[0] == texts[1]
        assert len(forks) == (2 if fork and nx * ny >= quasiprob._FORK_CELLS else 0)
        assert_no_child_left()

    def test_library_writers_never_fork(self, two_processes, tmp_path):
        grid = Grid2D(-1.0, 1.0, -1.0, 1.0, 37, 23)
        grid.to_csv(str(tmp_path / "grid.csv"))
        grid.to_json()
        with open(tmp_path / "grid.json", "w") as out:
            out.writelines(grid.json_chunks())
        assert two_processes[1] == []

    def test_process_that_loaded_numpy_first_writes_in_one(self, two_processes, monkeypatch,
                                                          capsys):
        # as in this test process, where numpy was loaded before catphase.cli
        monkeypatch.setattr(catphase.cli, "_FORK_WRITES", False)
        assert run_cli([*WRITTEN_FIELDS["q"], *BOUNDS, "--nx", "37", "--ny", "23"],
                       capsys)[0] == EXIT_OK
        assert two_processes[1] == []

    @pytest.mark.parametrize("first, threads, forks", [
        ("", None, "True"), ("", "1", "True"), ("", "2", "False"), ("import numpy", None, "False")],
        ids=["numpy-loaded-here", "one-thread-asked", "pool-asked", "numpy-loaded-first"])
    def test_command_forks_only_where_numpy_loaded_here_on_one_thread(self, first, threads,
                                                                       forks):
        env = forking_env()
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        code = f"{first}\nimport catphase.cli\nprint(catphase.cli._FORK_WRITES)"
        assert run_fresh(code, env=env) == forks

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fresh_process_writes_the_library_text(self, fmt, tmp_path):
        # 301 x 311 cells reach the fork threshold of the command's own gate
        argv = [*WRITTEN_FIELDS["amplify-p"], *WIDE_BOUNDS, "--nx", "301", "--ny", "311",
                "--format", fmt, "--out", str(tmp_path / "field")]
        proc = subprocess.run([sys.executable, "-m", "catphase.cli", *argv],
                              env=fresh_env(forking_env()), capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")
        grid = Grid2D(-8.0, 8.0, -7.0, 7.5, 301, 311)
        grid = grid.like(values=amplified_p(SPEC, AmplifierGain(1.7), meshgrid_plane(grid)))
        written = (tmp_path / "field").read_text()
        assert written == library_text(grid, fmt, written)

    def test_fresh_process_into_a_closed_pipe_exits_usage_error(self):
        # `catphase grid ... --nx 801 | head -1`: one line is read, then the pipe closes
        code = ("import os, sys, catphase.cli\n"
                "code = catphase.cli.main(sys.argv[1:])\n"
                "try:\n"
                "    os.waitpid(-1, os.WNOHANG)\n"
                "    print('a child is left', file=sys.stderr)\n"
                "except ChildProcessError:\n"
                "    pass\n"
                "sys.exit(code)\n")
        argv = [*WRITTEN_FIELDS["q"], *BOUNDS, "--nx", "801"]
        with subprocess.Popen([sys.executable, "-c", code, *argv],
                              env=fresh_env(forking_env()),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"# field = q\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == EXIT_USAGE
        assert err == b"usage error: [Errno 32] Broken pipe\n"

    def test_worker_leaves_no_buffer_of_the_caller_written(self, tmp_path):
        # the caller holds unflushed text in a file and in stdout when the
        # command forks; the worker fails at once, so the parent writes every block
        code = ("import os, sys, catphase.cli\n"
                "from catphase.quasiprob import Grid2D\n"
                "parent, text = os.getpid(), Grid2D._text\n"
                "def failing_text(self, *args):\n"
                "    head, rows, tail = text(self, *args)\n"
                "    def worker_rows(start, stop):\n"
                "        if os.getpid() != parent:\n"
                "            raise RuntimeError('the worker fails')\n"
                "        return rows(start, stop)\n"
                "    return head, worker_rows, tail\n"
                "Grid2D._text = failing_text\n"
                "log = open('log.txt', 'w')\n"
                "log.write('caller text\\n')\n"
                "sys.stdout.write('caller head\\n')\n"
                "code = catphase.cli.main(sys.argv[1:])\n"
                "log.close()\n"
                "sys.exit(code)\n")
        argv = [*WRITTEN_FIELDS["q"], *BOUNDS, "--nx", "301"]
        proc = subprocess.run([sys.executable, "-c", code, *argv],
                              env=fresh_env(forking_env()), cwd=tmp_path,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert (tmp_path / "log.txt").read_text() == "caller text\n"
        head, written = proc.stdout.split("\n", 1)
        assert head == "caller head"
        grid = Grid2D(-6.0, 6.0, -6.0, 6.0, 301, 301)
        grid = grid.like(values=q_function(SPEC, meshgrid_plane(grid)))
        assert written == library_text(grid, "csv", written)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads /proc; ru_maxrss in kB")
    def test_two_process_write_memory_bounded(self, tmp_path):
        # the worker's peak resident set, which RUSAGE_CHILDREN reports once it
        # is reaped, is what the parent held at the fork (the imports and the
        # grid's plane) and a block: half a plane more covers the block and the
        # heap, and excludes half a file's text (1.6 planes of CSV).  The
        # baseline is the resident set after the imports, since the peak that
        # RUSAGE_SELF reports would include that of the process that started it
        code = ("import os, resource, sys\n"
                "forks, fork = [], os.fork\n"
                "os.fork = lambda: forks.append(1) or fork()\n"
                "import catphase.cli, catphase.quasiprob\n"
                "with open('/proc/self/statm') as fh:\n"
                "    base = int(fh.read().split()[1]) * os.sysconf('SC_PAGE_SIZE') // 1024\n"
                "for fmt in ('csv', 'json'):\n"
                "    argv = [*sys.argv[1:], '--format', fmt, '--out', 'field.' + fmt]\n"
                "    assert catphase.cli.main(argv) == 0\n"
                "worker = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss\n"
                "print(len(forks), base, worker)\n")
        forks, base_kb, worker_kb = map(int, run_fresh(
            code, env=forking_env(), cwd=tmp_path,
            args=[*WRITTEN_FIELDS["q"], *BOUNDS, "--nx", "801"]).split())
        assert forks == (2 if quasiprob._cpu_count() > 1 else 0)
        plane = 801 * 801 * 16
        assert (worker_kb - base_kb) * 1024 < 1.5 * plane
