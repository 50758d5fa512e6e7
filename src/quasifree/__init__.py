"""Quasi-free state calculus for CAR and CCR algebras.

Transition probabilities via determinant formulas, quasi-equivalence and
disjointness classification for pairs and infinite mode sequences, and
brute-force Fock-space oracles to check it all against.
"""

import os as _os

# Cap BLAS parallelism before numpy spins up its thread pools. QF_THREADS is
# opt-in; explicitly set BLAS variables always win.
if _os.environ.get("QF_THREADS"):
    for _var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    ):
        _os.environ.setdefault(_var, _os.environ["QF_THREADS"])

import importlib as _importlib  # noqa: E402

__version__ = "0.1.0"

# The top-level surface, __version__ aside: each public name and the submodule
# that defines it. A submodule (and numpy with it) is imported at the first
# access to one of its names, and the name is looked up there on every access,
# never bound here, so a name always is its home module's current attribute.
_HOME = {name: module for module, names in {
    "car": (
        "CarCovariance", "hamiltonian_of", "is_standard_car", "log_trans_prob_car",
        "meet_criterion", "mu_covariance", "qe_distance_car", "quadrature",
        "quadrature_identity_check", "trans_prob_car", "two_point", "validate_car",
        "wick_moment",
    ),
    "car_oracle": ("density_from_covariance", "fidelity_tr", "jw_generators", "overlap"),
    "ccr": (
        "CcrCovariance", "CcrVerdict", "ab_form", "canonical_sigma", "char_value",
        "classify_ccr", "is_standard_ccr", "log_trans_prob_ccr", "qe_distance_ccr",
        "thermal_covariance", "trans_prob_ccr", "validate_ccr",
    ),
    "ccr_oracle": (
        "covariance_of_density", "gaussian_density", "overlap_ccr", "quadratic_hamiltonian",
        "thermal_hamiltonian",
    ),
    "errors": (
        "ConsistencyViolation", "CovarianceError", "InconclusiveError", "NotPositiveError",
        "SizeCapError",
    ),
    "seqmodel": (
        "ModeFamily", "SequenceVerdict", "car_counterexample", "car_power_family",
        "ccr_thermal_power_family", "classify_sequence", "literal_family", "partial_log_tp",
        "partial_qe_sum",
    ),
}.items() for name in names}

__all__ = sorted(["__version__", *_HOME])


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
