"""The package's lazy exports, and what a fresh process loads."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import catphase

# the names `catphase` exports, by the module that defines them
EXPORTS = {
    "amplifier": ["AmplifierGain", "amplified_p", "amplified_p_factored", "amplify_q",
                  "sigma_of_gain"],
    "gendelta": ["AnalyticTestFunction", "DeltaRegion", "RegularizedDelta",
                 "cancellation_factor", "classify_point", "delta2_sift", "delta_kernel",
                 "delta_kernel_fourier", "delta_moment", "sift", "sift_shifted_line"],
    "numerics": ["QuadratureSpec", "gaussian_moment_integral", "hermite_poly",
                 "quad_real_line"],
    "quasiprob": ["Grid2D", "PRepresentation", "PTerm", "alpha_from_xp", "fock_wavefunction",
                  "p_cat_terms", "p_regularized_eval", "p_representation_grid",
                  "q_from_wigner", "q_fourier_term", "q_function", "wigner_fock",
                  "wigner_from_p", "xp_from_alpha"],
    "reconstruct": ["RoundTripReport", "reconstruct_rho", "reconstruct_rho_numeric",
                    "rho_from_pterm", "roundtrip_report"],
    "states": ["CatStateSpec", "FockDensityMatrix", "cat_density_matrix",
               "cat_normalization", "coherent_fock_coeffs", "coherent_overlap",
               "recommended_n_max"],
}
NAMES = [name for names in EXPORTS.values() for name in names]
SRC = str(Path(catphase.__file__).resolve().parents[1])


def fresh_env(env=None):
    """`env`, by default this process's, with SRC first on PYTHONPATH."""
    env = dict(os.environ if env is None else env)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def run_fresh(code, env=None, cwd=None, args=()):
    """stdout of `code` run with `args` by a fresh interpreter that imports
    catphase from SRC."""
    proc = subprocess.run([sys.executable, "-c", code, *args], env=fresh_env(env), cwd=cwd,
                          check=True, capture_output=True, text=True)
    return proc.stdout.strip()


def test_all_lists_the_exports():
    assert len(NAMES) == 46
    assert sorted(catphase.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(catphase))


@pytest.mark.parametrize("module, name",
                         [(m, n) for m, names in EXPORTS.items() for n in names])
def test_each_export_is_its_modules_object(module, name):
    assert getattr(catphase, name) is getattr(importlib.import_module(f"catphase.{module}"),
                                              name)
    # cached in the package after the first lookup
    assert vars(catphase)[name] is getattr(catphase, name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from catphase import *", namespace)
    assert set(NAMES) <= set(namespace)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        catphase.no_such_name  # noqa: B018
    assert not hasattr(catphase, "no_such_name")


def test_import_catphase_leaves_numpy_unloaded():
    assert run_fresh("import catphase, sys; print('numpy' in sys.modules)") == "False"


def test_sift_loads_only_the_modules_it_uses(tmp_path):
    code = ("import sys, catphase.cli\n"
            "argv = ['sift', '--z0', '1', '0.4', '--sigma0', '0.4', '--levels', '2',\n"
            "        '--monomial', '2', '--nodes', '2001', '--out', 'sift.json']\n"
            "assert catphase.cli.main(argv) == 0\n"
            "print(sorted(m for m in ('catphase.verify', 'catphase.quasiprob',\n"
            "                         'catphase.reconstruct', 'catphase.amplifier')\n"
            "             if m in sys.modules))")
    assert run_fresh(code, cwd=tmp_path) == "[]"
    assert (tmp_path / "sift.json").stat().st_size > 0


def test_grid_loads_only_the_modules_of_its_field(tmp_path):
    # every module a fresh CLI process loads is compiled from source where
    # PYTHONDONTWRITEBYTECODE is set
    code = ("import sys, catphase.cli\n"
            "argv = ['grid', '--field', 'q', '--alpha1', '1.5', '0', '--alpha2', '-1.5', '0',\n"
            "        '--zeta', '1', '0', '--bounds', '-6', '6', '-6', '6', '--nx', '41',\n"
            "        '--out', 'q.csv']\n"
            "assert catphase.cli.main(argv) == 0\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'catphase'))")
    assert eval(run_fresh(code, cwd=tmp_path)) == [
        "catphase", "catphase.blas", "catphase.cli", "catphase.numerics", "catphase.quasiprob",
        "catphase.states"]
    assert (tmp_path / "q.csv").stat().st_size > 0


def test_verify_leaves_numpy_random_unloaded(tmp_path):
    code = ("import sys, catphase.cli\n"
            "assert catphase.cli.main(['verify']) == 3\n"  # sifting fails by design
            "print('numpy.random' in sys.modules)")
    assert run_fresh(code, cwd=tmp_path).splitlines()[-1] == "False"


# the modules a fresh `import catphase.cli` loads beyond those of `import numpy`,
# as listed on Python 3.11 with numpy 2.4
CLI_MODULES = {"_json", "argparse", "catphase", "catphase.blas", "catphase.cli",
               "catphase.numerics", "cmath", "copy", "dataclasses", "gettext", "glob", "json",
               "json.decoder", "json.encoder", "json.scanner"}


def test_cli_import_loads_no_module_beyond_its_own():
    code = "import sys, {}; print(' '.join(sys.modules))"
    numpy_modules = set(run_fresh(code.format("numpy")).split())
    loaded = set(run_fresh(code.format("catphase.cli")).split()) - numpy_modules
    assert loaded <= CLI_MODULES
    assert {m for m in loaded if m.startswith("catphase")} == \
        {m for m in CLI_MODULES if m.startswith("catphase")}


def test_grid_writes_load_no_process_module(tmp_path):
    # 301 x 301 cells reach the threshold from which the command forks a writer
    code = ("import sys, catphase.cli\n"
            "before = set(sys.modules)\n"
            "state = ['--alpha1', '1.5', '0', '--alpha2', '-1.5', '0', '--zeta', '1', '0',\n"
            "         '--bounds', '-6', '6', '-6', '6', '--nx', '301']\n"
            "assert catphase.cli.main(['grid', '--field', 'q', *state, '--out', 'q.csv']) == 0\n"
            "assert catphase.cli.main(['amplify', '--field', 'p', '--gain', '1.7', *state,\n"
            "                          '--format', 'json', '--out', 'p.json']) == 0\n"
            "print(sorted(set(sys.modules) - before))")
    loaded = eval(run_fresh(code, cwd=tmp_path))
    assert not {"multiprocessing", "concurrent.futures", "tempfile", "subprocess"} & set(loaded)
    assert (tmp_path / "q.csv").stat().st_size > 0 and (tmp_path / "p.json").stat().st_size > 0
