"""catphase: a single-mode bosonic phase-space toolkit built around
Gaussian-regularized delta kernels with complex centers.

Computes the Q-function, Wigner function, and Glauber-Sudarshan
representation of Schrodinger cat states, transforms between them,
models a linear phase-insensitive amplifier channel, and round-trips
the density matrix through the four-term representation.

The public names are imported from their modules on first use (PEP 562),
so `import catphase`, and a CLI command, load only the modules they use.
"""

import importlib

# public name -> the module that defines it
_EXPORTS = {name: module for module, names in (
    ("amplifier", ("AmplifierGain", "amplified_p", "amplified_p_factored", "amplify_q",
                   "sigma_of_gain")),
    ("gendelta", ("AnalyticTestFunction", "DeltaRegion", "RegularizedDelta",
                  "cancellation_factor", "classify_point", "delta2_sift", "delta_kernel",
                  "delta_kernel_fourier", "delta_moment", "sift", "sift_shifted_line")),
    ("numerics", ("QuadratureSpec", "gaussian_moment_integral", "hermite_poly",
                  "quad_real_line")),
    ("quasiprob", ("Grid2D", "PRepresentation", "PTerm", "alpha_from_xp",
                   "fock_wavefunction", "p_cat_terms", "p_regularized_eval",
                   "p_representation_grid", "q_from_wigner", "q_fourier_term", "q_function",
                   "wigner_fock", "wigner_from_p", "xp_from_alpha")),
    ("reconstruct", ("RoundTripReport", "reconstruct_rho", "reconstruct_rho_numeric",
                     "rho_from_pterm", "roundtrip_report")),
    ("states", ("CatStateSpec", "FockDensityMatrix", "cat_density_matrix",
                "cat_normalization", "coherent_fock_coeffs", "coherent_overlap",
                "recommended_n_max")),
) for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    """A public name, taken from its module and cached here on first use."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
