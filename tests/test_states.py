import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catphase import numerics
from catphase.numerics import complex_pairs, loads_with_pairs
from catphase.states import CatStateSpec, FockDensityMatrix, cat_density_matrix, \
    cat_normalization, coherent_fock_coeffs, coherent_overlap, recommended_n_max

complex_amp = st.builds(complex,
                        st.floats(min_value=-2, max_value=2),
                        st.floats(min_value=-2, max_value=2))


def reference_coherent_column(a, n_max):
    """e^{-|a|^2/2} a^j / sqrt(j!) for j = 0..n_max as a running product, kept as
    the oracle of the log-domain column.  Its first factor goes subnormal past
    |a| ~ 37.6, so it is trusted only below that."""
    steps = np.empty(n_max + 1, dtype=complex)
    steps[0] = math.exp(-0.5 * abs(a) ** 2)
    steps[1:] = a / np.sqrt(np.arange(1.0, n_max + 1))
    return np.cumprod(steps)


class TestCoherentOverlap:
    def test_self_overlap(self):
        for a in (0.0, 1.5, 2.0 - 1.0j):
            assert coherent_overlap(a, a) == pytest.approx(1.0)

    def test_vacuum_overlap(self):
        b = 1.2 + 0.7j
        assert coherent_overlap(0.0, b) == pytest.approx(np.exp(-abs(b) ** 2 / 2))

    def test_squared_magnitude(self):
        # |<alpha|beta>|^2 = e^{-|alpha - beta|^2}
        assert abs(coherent_overlap(1.0, 1.0j)) ** 2 == pytest.approx(math.exp(-2.0))

    @settings(max_examples=50, deadline=None)
    @given(a=complex_amp, b=complex_amp)
    def test_conjugate_symmetry(self, a, b):
        assert coherent_overlap(a, b) == pytest.approx(np.conj(coherent_overlap(b, a)))


class TestCatNormalization:
    def test_single_component(self):
        assert cat_normalization(1.3, -0.5j, 0.0) == pytest.approx(1.0)

    def test_degenerate_double_count(self):
        a0 = 0.8 + 0.2j
        assert cat_normalization(a0, a0, 1.0) == pytest.approx(0.5)

    def test_well_separated(self):
        assert cat_normalization(3.0, -3.0, 1.0) == pytest.approx(1 / math.sqrt(2), abs=2e-8)

    def test_null_state_raises(self):
        with pytest.raises(ValueError, match="degenerate"):
            cat_normalization(1.0, 1.0, -1.0)


class TestCoherentFockCoeffs:
    def test_vacuum(self):
        c = coherent_fock_coeffs(0.0, 5)
        assert c[0] == 1.0
        assert np.all(c[1:] == 0.0)

    def test_normalization(self):
        c = coherent_fock_coeffs(1.7 - 0.4j, 40)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_poisson_statistics(self):
        with pytest.warns(UserWarning, match="tail mass"):
            c = coherent_fock_coeffs(1.0, 10)
        assert abs(c[2]) ** 2 == pytest.approx(math.exp(-1.0) / 2.0)

    def test_negative_n_max_raises_before_any_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="n_max must be an integer >= 0, got -1"):
                coherent_fock_coeffs(1.5, -1)

    def test_truncation_warning(self):
        with pytest.warns(UserWarning, match="tail mass"):
            coherent_fock_coeffs(3.0, 8)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(r=st.floats(0.0, 30.0), theta=st.floats(-math.pi, math.pi))
    def test_matches_running_product(self, r, theta):
        a = r * complex(math.cos(theta), math.sin(theta))
        n_max = recommended_n_max(a)
        got = coherent_fock_coeffs(a, n_max)
        want = reference_coherent_column(a, n_max)
        assert np.max(np.abs(got - want)) <= 2e-12 * np.max(np.abs(want))

    def test_recommended_n_max_keeps_tail_below_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for a in np.arange(0.0, 45.25, 0.25):
                coherent_fock_coeffs(a, recommended_n_max(a))
            spec = CatStateSpec(12.0 - 3.0j, 45.0j, 1.0)
            assert recommended_n_max(spec) == recommended_n_max(45.0)
            coherent_fock_coeffs(spec.alpha2, recommended_n_max(spec))


class TestCatDensityMatrix:
    def test_coherent_projector_entries(self):
        a = 1.0 + 0.5j
        spec = CatStateSpec(a, 0.0, 0.0)
        rho = cat_density_matrix(spec, 20).entries
        j, k = 3, 5
        want = (math.exp(-abs(a) ** 2) * a**j * np.conj(a) ** k
                / math.sqrt(math.factorial(j) * math.factorial(k)))
        assert rho[j, k] == pytest.approx(want, rel=1e-12)

    def test_trace(self):
        spec = CatStateSpec(1.5, -1.5, 1.0j)
        assert cat_density_matrix(spec, 30).trace() == pytest.approx(1.0, abs=1e-10)

    def test_purity(self):
        spec = CatStateSpec(2.0, -2.0, 1.0)
        rho = cat_density_matrix(spec, 30).entries
        assert np.max(np.abs(rho @ rho - rho)) < 1e-9

    def test_hermitian_and_positive(self):
        spec = CatStateSpec(1.2 - 0.8j, -0.5 + 1.0j, 0.3 + 0.6j)
        dm = cat_density_matrix(spec, 30)
        assert dm.hermiticity_defect() < 1e-12
        eigvals = np.linalg.eigvalsh(dm.entries)
        assert eigvals.min() >= -1e-9


class TestFockDensityMatrixSerialization:
    def test_json_roundtrip(self):
        spec = CatStateSpec(1.0, -1.0, 0.5j)
        dm = cat_density_matrix(spec, 12)
        restored = FockDensityMatrix.from_json(dm.to_json())
        assert restored.n_max == dm.n_max
        assert np.array_equal(restored.entries, dm.entries)

    # entry counts that each n_max would reshape into, were it not refused
    @pytest.mark.parametrize("n_max, count", [(-1, 0), (True, 4), (1.5, 4)],
                             ids=["negative", "bool", "float"])
    def test_non_integer_or_negative_n_max_is_refused(self, n_max, count):
        text = json.dumps({"n_max": n_max, "entries": [[1.0, 0.0]] * count})
        message = f"n_max must be an integer >= 0, got {n_max!r}"
        with pytest.raises(ValueError, match=message):
            FockDensityMatrix.from_json(text)
        # refused at construction too, so to_json never writes what from_json refuses
        with pytest.raises(ValueError, match=message):
            FockDensityMatrix(n_max=n_max, entries=np.ones((2, 2)))

    @pytest.mark.parametrize("n_max", [0, 1, 40])
    def test_json_matches_one_shot_dumps_and_reads_back_bitwise(self, n_max):
        rng = np.random.default_rng(n_max)
        entries = rng.normal(size=(n_max + 1, n_max + 1)) * (1 - 0.5j)
        entries.flat[::7] = complex(-0.0, math.inf)
        dm = FockDensityMatrix(n_max, entries)
        want = json.dumps({"n_max": n_max, "entries": complex_pairs(entries)})
        assert dm.to_json() == want
        assert isinstance(loads_with_pairs(want, "entries")["entries"], np.ndarray)
        back = FockDensityMatrix.from_json(want)
        assert back.n_max == n_max and back.entries.tobytes() == entries.tobytes()

    def test_json_of_several_slices_reads_back_bitwise(self):
        dm = cat_density_matrix(CatStateSpec(3.0 + 1.0j, -3.0 + 0.5j, 0.8 - 0.1j), 250)
        text = dm.to_json()
        assert len(text) > 2 * numerics._SLICE  # read in three slices or more
        assert isinstance(loads_with_pairs(text, "entries")["entries"], np.ndarray)
        back = FockDensityMatrix.from_json(text)
        assert back.n_max == 250 and back.entries.tobytes() == dm.entries.tobytes()

    def test_numpy_integer_n_max_becomes_int(self):
        dm = cat_density_matrix(CatStateSpec(1.0, -1.0, 0.5j), np.int64(12))
        assert type(dm.n_max) is int
        assert FockDensityMatrix.from_json(dm.to_json()).n_max == 12

    def test_schema(self):
        with pytest.warns(UserWarning, match="tail mass"):
            dm = cat_density_matrix(CatStateSpec(0.5, 0.0, 0.0), 3)
        data = json.loads(dm.to_json())
        assert data["n_max"] == 3
        assert len(data["entries"]) == 16
        assert all(len(pair) == 2 for pair in data["entries"])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FockDensityMatrix(n_max=3, entries=np.zeros((2, 2)))
