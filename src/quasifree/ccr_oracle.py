"""Truncated-Fock-space oracle for bosonic Gaussian states.

Builds Gibbs states of quadratic Hamiltonians on a hard photon-number cutoff,
extracts their covariance matrices from second moments, and computes overlaps
with cutoff-doubling convergence checks. Capped at two modes. Matrices follow
the coefficients' dtype (real omega and xi give a real Fock matrix, ``eigh``
and density), products of mode operators are Kronecker products of
single-mode factors, and no operator outlives the call that builds it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .car_oracle import overlap
from .ccr import CcrCovariance, canonical_sigma, validate_ccr
from .errors import InconclusiveError, SizeCapError
from .matcore import float_or_complex, hermitian_part

__all__ = [
    "BosonOps",
    "CUTOFF_SCHEDULE",
    "MAX_OSC_MODES",
    "OVERLAP_TOL",
    "QuadraticHamiltonian",
    "TruncatedState",
    "boson_ops",
    "covariance_of_density",
    "gaussian_density",
    "hamiltonian_matrix",
    "overlap_ccr",
    "quadratic_hamiltonian",
    "thermal_hamiltonian",
]

MAX_OSC_MODES = 2
CUTOFF_SCHEDULE = (20, 40, 80, 120)
# hard cap on the truncated Hilbert-space dimension (memory / eigh cost)
MAX_FOCK_DIM = 8000
# effective inverse temperature standing in for a pure vacuum factor
VACUUM_BETA = 100.0
# overlap_ccr converges once two successive cutoffs agree within this
OVERLAP_TOL = 1e-7
# omega must be Hermitian and xi symmetric within this (absolute)
COEFFICIENT_TOL = 1e-12
# a Gibbs state with more weight on the cutoff boundary has not converged
BOUNDARY_WEIGHT = 0.01
INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = sum omega[j,k] a_j^dag a_k + (1/2) sum (xi[j,k] a_j^dag a_k^dag + h.c.)."""

    omega: np.ndarray
    xi: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.omega.shape[0]


def quadratic_hamiltonian(omega, xi=None) -> QuadraticHamiltonian:
    """Normalize and validate the coefficient matrices (finite; omega Hermitian, xi symmetric).

    Real input stays real (as float64), anything else becomes complex.
    """
    omega = float_or_complex(omega)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ValueError(f"omega must be square, got shape {omega.shape}")
    if not np.all(np.isfinite(omega)):  # NaN would pass the checks below
        raise ValueError("omega must have finite entries")
    n = omega.shape[0]
    if not 1 <= n <= MAX_OSC_MODES:
        raise SizeCapError(f"n_modes must be in 1..{MAX_OSC_MODES}, got {n}")
    if float(np.max(np.abs(omega - omega.conj().T), initial=0.0)) > COEFFICIENT_TOL:
        raise ValueError("omega must be Hermitian")
    omega = hermitian_part(omega)
    xi = float_or_complex(np.zeros((n, n)) if xi is None else xi)
    if xi.shape != omega.shape:
        raise ValueError(f"xi shape {xi.shape} does not match omega {omega.shape}")
    if not np.all(np.isfinite(xi)):
        raise ValueError("xi must have finite entries")
    if float(np.max(np.abs(xi - xi.T), initial=0.0)) > COEFFICIENT_TOL:
        raise ValueError("xi must be symmetric")
    xi = 0.5 * (xi + xi.T)
    omega.setflags(write=False)
    xi.setflags(write=False)
    return QuadraticHamiltonian(omega=omega, xi=xi)


def thermal_hamiltonian(q: float) -> QuadraticHamiltonian:
    """Single-mode thermal Hamiltonian with Boltzmann ratio q in [0, 1).

    q = 0 is the vacuum, approximated by inverse temperature VACUUM_BETA
    (exact to double precision).
    """
    if not 0.0 <= q < 1.0:
        raise ValueError(f"Boltzmann ratio must be in [0, 1), got {q}")
    beta = -math.log(q) if q > 0.0 else VACUUM_BETA
    return quadratic_hamiltonian([[beta]])


@dataclass(frozen=True)
class BosonOps:
    """Annihilation/creation/quadrature matrices on the truncated Fock space."""

    n_modes: int
    cutoff: int
    a: tuple
    adag: tuple
    q: tuple
    p: tuple

    @property
    def dim(self) -> int:
        return (self.cutoff + 1) ** self.n_modes


def _ladder(n_modes: int, cutoff: int) -> np.ndarray:
    """Single-mode annihilation matrix (real), after the mode, cutoff and dimension caps."""
    if not 1 <= n_modes <= MAX_OSC_MODES:
        raise SizeCapError(f"n_modes must be in 1..{MAX_OSC_MODES}, got {n_modes}")
    if cutoff < 2:
        raise ValueError(f"cutoff must be at least 2, got {cutoff}")
    if (cutoff + 1) ** n_modes > MAX_FOCK_DIM:
        raise SizeCapError(f"truncated dimension {(cutoff + 1) ** n_modes} exceeds cap "
                           f"{MAX_FOCK_DIM} (n_modes={n_modes}, cutoff={cutoff})")
    return np.diag(np.sqrt(np.arange(1, cutoff + 1, dtype=float)), 1)


def _on_modes(n_modes: int, *factors) -> np.ndarray:
    """Kronecker product over the modes of the single-mode (mode, x) ``factors``,
    multiplied in order on their mode, and of the identity on every other mode."""
    ops = [np.eye(len(factors[0][1]))] * n_modes
    for j, x in factors:
        ops[j] = ops[j] @ x
    # np.kron as one broadcast product, with its bits
    return functools.reduce(lambda a, b: (a[:, None, :, None] * b[None, :, None, :]).reshape(
        len(a) * len(b), -1), ops)


def boson_ops(n_modes: int, cutoff: int) -> BosonOps:
    """Truncated mode operators: a, a^dag, q = (a + a^dag)/sqrt2 real, p = -i(a - a^dag)/sqrt2."""
    a1 = _ladder(n_modes, cutoff)
    a = tuple(_on_modes(n_modes, (j, a1)) for j in range(n_modes))
    adag = tuple(op.T for op in a)
    q = tuple((x + y) * INV_SQRT2 for x, y in zip(a, adag))
    p = tuple(-1j * (x - y) * INV_SQRT2 for x, y in zip(a, adag))
    for op in itertools.chain(a, adag, q, p):
        op.setflags(write=False)
    return BosonOps(n_modes=n_modes, cutoff=cutoff, a=a, adag=adag, q=q, p=p)


def hamiltonian_matrix(h: QuadraticHamiltonian, cutoff: int) -> np.ndarray:
    """Fock matrix of H at ``cutoff``, real when omega and xi are.

    Each a_j^dag a_k and a_j^dag a_k^dag (j <= k) is formed once, as a Kronecker
    product of single-mode factors; its adjoint comes from the Hermitian part.
    """
    n, a1 = h.n_modes, _ladder(h.n_modes, cutoff)
    hm = np.zeros((len(a1) ** n,) * 2, dtype=np.result_type(h.omega, h.xi))
    for j, k in itertools.combinations_with_replacement(range(n), 2):
        w = 1.0 if j == k else 2.0  # hermitian_part halves a term and its adjoint
        if h.omega[j, k] != 0.0:
            hm += w * h.omega[j, k] * _on_modes(n, (j, a1.T), (k, a1))
        if h.xi[j, k] != 0.0:
            hm += w * h.xi[j, k] * _on_modes(n, (j, a1.T), (k, a1.T))
    return hermitian_part(hm)


@dataclass(frozen=True)
class TruncatedState:
    """Gibbs state exp(-H)/Z of a quadratic Hamiltonian at a finite cutoff.

    ``boundary_occupation`` is the probability weight on basis states with
    any mode at the cutoff — the convergence diagnostic.
    """

    hamiltonian: QuadraticHamiltonian
    cutoff: int
    rho: np.ndarray
    boundary_occupation: float

    @property
    def n_modes(self) -> int:
        return self.hamiltonian.n_modes

    @property
    def dim(self) -> int:
        return self.rho.shape[0]


def gaussian_density(h: QuadraticHamiltonian, cutoff: int) -> TruncatedState:
    """Normalized exp(-H) on the truncated space.

    Raises :class:`InconclusiveError` when the weight at the cutoff boundary
    shows the partition function has not converged (gapless or inverted H).
    """
    hm = hamiltonian_matrix(h, cutoff)
    w, v = np.linalg.eigh(hm)
    weights = np.exp(-(w - w[0]))
    z = float(np.sum(weights))
    rho = hermitian_part((v * (weights / z)) @ v.conj().T)

    m = cutoff + 1
    # basis index = sum_j n_j m^j; a state is on the boundary if any n_j = cutoff
    digits = np.arange(rho.shape[0])[:, None] // m ** np.arange(h.n_modes) % m
    occ = np.any(digits == cutoff, axis=1)
    boundary = float(np.sum(np.real(np.diag(rho))[occ]))
    if boundary > BOUNDARY_WEIGHT:
        raise InconclusiveError(
            f"partition function not converged at cutoff {cutoff}: "
            f"boundary occupation {boundary:.3e}"
        )
    rho.setflags(write=False)
    return TruncatedState(
        hamiltonian=h, cutoff=cutoff, rho=rho, boundary_occupation=boundary
    )


def covariance_of_density(state: TruncatedState) -> CcrCovariance:
    """Covariance (canonical sigma, R) extracted from second moments of rho.

    R[j, k] = Re tr(rho x_j x_k) over the quadrature list (q..., p...). With
    q = X_q, p = -i X_p and X real, it is Re(c_j c_k tr(rho X_j X_k)) (c = 1 on
    q, -i on p), read in rho's dtype as the elementwise product sum of rho X_j
    with X_k^T: one matrix product per quadrature. Validation of the result
    doubles as a truncation check.
    """
    n, a1 = state.n_modes, _ladder(state.n_modes, state.cutoff)
    xs = np.stack([_on_modes(n, (j, x * INV_SQRT2)) for x in (a1 + a1.T, a1 - a1.T)
                   for j in range(n)])
    c = np.repeat([1.0, -1j], n)
    m = (state.rho @ xs).reshape(2 * n, -1) @ xs.swapaxes(-1, -2).reshape(2 * n, -1).T
    return validate_ccr(canonical_sigma(n), (np.outer(c, c) * m).real)


def overlap_ccr(
    state1: TruncatedState,
    state2: TruncatedState,
    schedule: tuple = CUTOFF_SCHEDULE,
) -> float:
    """tr(sqrt rho sqrt tau), recomputed on a doubling cutoff schedule.

    Both states are regenerated from their Hamiltonians at each cutoff (the
    given states are used as they are at their own cutoff) until two
    successive values agree within ``OVERLAP_TOL``; exhausting the schedule (or
    hitting the dimension cap first) raises :class:`InconclusiveError`.
    """
    if state1.n_modes != state2.n_modes:
        raise ValueError(
            f"mode mismatch: {state1.n_modes} vs {state2.n_modes}"
        )
    if state1.cutoff != state2.cutoff:
        raise ValueError(
            f"states must share a cutoff grid: {state1.cutoff} vs {state2.cutoff}"
        )
    prev = None
    last_inc = None
    for n in schedule:
        try:
            r1, r2 = (st if st.cutoff == n else gaussian_density(st.hamiltonian, n)
                      for st in (state1, state2))
        except SizeCapError:
            break
        val = overlap(r1.rho, r2.rho)
        if prev is not None:
            last_inc = abs(val - prev)
            if last_inc < OVERLAP_TOL:
                return val
        prev = val
    raise InconclusiveError(
        f"overlap not converged within cutoff cap {schedule[-1]}: "
        f"last increment {last_inc}"
    )
