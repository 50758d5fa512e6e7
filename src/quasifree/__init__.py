"""Quasi-free state calculus for CAR and CCR algebras.

Transition probabilities via determinant formulas, quasi-equivalence and
disjointness classification for pairs and infinite mode sequences, and
brute-force Fock-space oracles to check it all against.
"""

import os as _os
import types as _types

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

__version__ = "0.1.0"

# the top-level surface: every public name imported here, and __version__
from .car import (  # noqa: E402
    CarCovariance, hamiltonian_of, is_standard_car, log_trans_prob_car, meet_criterion,
    mu_covariance, qe_distance_car, quadrature, quadrature_identity_check, trans_prob_car,
    two_point, validate_car, wick_moment,
)
from .car_oracle import density_from_covariance, fidelity_tr, jw_generators, overlap  # noqa: E402
from .ccr import (  # noqa: E402
    CcrCovariance, CcrVerdict, ab_form, canonical_sigma, char_value, classify_ccr,
    is_standard_ccr, log_trans_prob_ccr, qe_distance_ccr, thermal_covariance, trans_prob_ccr,
    validate_ccr,
)
from .ccr_oracle import (  # noqa: E402
    covariance_of_density, gaussian_density, overlap_ccr, quadratic_hamiltonian,
    thermal_hamiltonian,
)
from .errors import (  # noqa: E402
    ConsistencyViolation, CovarianceError, InconclusiveError, NotPositiveError, SizeCapError,
)
from .seqmodel import (  # noqa: E402
    ModeFamily, SequenceVerdict, car_counterexample, car_power_family,
    ccr_thermal_power_family, classify_sequence, literal_family, partial_log_tp,
    partial_qe_sum,
)

__all__ = sorted(["__version__"] + [
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
])
