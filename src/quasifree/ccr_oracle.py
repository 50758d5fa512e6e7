"""Truncated-Fock-space oracle for bosonic Gaussian states.

Builds Gibbs states of quadratic Hamiltonians on a hard photon-number cutoff,
extracts their covariance matrices from second moments, and computes overlaps
with cutoff-doubling convergence checks. Capped at two modes — this exists to
check determinant formulas, not to be fast.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .ccr import CcrCovariance, canonical_sigma, validate_ccr
from .errors import InconclusiveError, SizeCapError
from .matcore import hermitian_part, sqrt_psd

__all__ = [
    "BosonOps",
    "CUTOFF_SCHEDULE",
    "MAX_OSC_MODES",
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


@dataclass(frozen=True)
class QuadraticHamiltonian:
    """H = sum omega[j,k] a_j^dag a_k + (1/2) sum (xi[j,k] a_j^dag a_k^dag + h.c.)."""

    omega: np.ndarray
    xi: np.ndarray

    @property
    def n_modes(self) -> int:
        return self.omega.shape[0]


def quadratic_hamiltonian(omega, xi=None) -> QuadraticHamiltonian:
    """Normalize and validate the coefficient matrices (omega Hermitian, xi symmetric)."""
    omega = np.asarray(omega, dtype=complex)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ValueError(f"omega must be square, got shape {omega.shape}")
    n = omega.shape[0]
    if not 1 <= n <= MAX_OSC_MODES:
        raise SizeCapError(f"n_modes must be in 1..{MAX_OSC_MODES}, got {n}")
    if float(np.max(np.abs(omega - omega.conj().T), initial=0.0)) > 1e-12:
        raise ValueError("omega must be Hermitian")
    omega = hermitian_part(omega)
    if xi is None:
        xi = np.zeros((n, n), dtype=complex)
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != omega.shape:
        raise ValueError(f"xi shape {xi.shape} does not match omega {omega.shape}")
    if float(np.max(np.abs(xi - xi.T), initial=0.0)) > 1e-12:
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


def boson_ops(n_modes: int, cutoff: int) -> BosonOps:
    """Truncated mode operators; q = (a + a^dag)/sqrt2, p = -i(a - a^dag)/sqrt2."""
    if not 1 <= n_modes <= MAX_OSC_MODES:
        raise SizeCapError(f"n_modes must be in 1..{MAX_OSC_MODES}, got {n_modes}")
    if cutoff < 2:
        raise ValueError(f"cutoff must be at least 2, got {cutoff}")
    m = cutoff + 1
    if m**n_modes > MAX_FOCK_DIM:
        raise SizeCapError(
            f"truncated dimension {m**n_modes} exceeds cap {MAX_FOCK_DIM} "
            f"(n_modes={n_modes}, cutoff={cutoff})"
        )
    a1 = np.diag(np.sqrt(np.arange(1, m, dtype=float)), 1).astype(complex)
    eye = np.eye(m, dtype=complex)
    a_ops = []
    for j in range(n_modes):
        factors = [eye] * n_modes
        factors[j] = a1
        op = factors[0]
        for f in factors[1:]:
            op = np.kron(op, f)
        a_ops.append(op)
    adag_ops = [op.conj().T for op in a_ops]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    q_ops = [(a + ad) * inv_sqrt2 for a, ad in zip(a_ops, adag_ops)]
    p_ops = [-1j * (a - ad) * inv_sqrt2 for a, ad in zip(a_ops, adag_ops)]
    for op in itertools.chain(a_ops, adag_ops, q_ops, p_ops):
        op.setflags(write=False)
    return BosonOps(
        n_modes=n_modes,
        cutoff=cutoff,
        a=tuple(a_ops),
        adag=tuple(adag_ops),
        q=tuple(q_ops),
        p=tuple(p_ops),
    )


def hamiltonian_matrix(h: QuadraticHamiltonian, cutoff: int) -> np.ndarray:
    ops = boson_ops(h.n_modes, cutoff)
    n = h.n_modes
    dim = ops.dim
    hm = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        for k in range(n):
            if h.omega[j, k] != 0.0:
                hm += h.omega[j, k] * (ops.adag[j] @ ops.a[k])
            if h.xi[j, k] != 0.0:
                pair = ops.adag[j] @ ops.adag[k]
                hm += 0.5 * h.xi[j, k] * pair
                hm += 0.5 * np.conj(h.xi[j, k]) * pair.conj().T
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
    if boundary > 0.01:
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

    R[j, k] = Re tr(rho x_j x_k) over the quadrature list (q..., p...), read
    as the elementwise product sum of rho x_j with x_k^T: one matrix product
    per quadrature; validation of the result doubles as a truncation check.
    """
    ops = boson_ops(state.n_modes, state.cutoff)
    xs = np.stack(ops.q + ops.p)
    d = len(xs)
    r = ((state.rho @ xs).reshape(d, -1) @ xs.swapaxes(-1, -2).reshape(d, -1).T).real
    return validate_ccr(canonical_sigma(state.n_modes), r)


def _overlap_value(r1: np.ndarray, r2: np.ndarray) -> float:
    val = float(np.trace(sqrt_psd(r1) @ sqrt_psd(r2)).real)
    return float(np.clip(val, 0.0, 1.0))


def overlap_ccr(
    state1: TruncatedState,
    state2: TruncatedState,
    tol: float = 1e-7,
    schedule: tuple = CUTOFF_SCHEDULE,
) -> float:
    """tr(sqrt rho sqrt tau), recomputed on a doubling cutoff schedule.

    Both states are regenerated from their Hamiltonians at each cutoff (the
    given states are used as they are at their own cutoff) until two
    successive values agree within ``tol``; exhausting the schedule (or
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
        val = _overlap_value(r1.rho, r2.rho)
        if prev is not None:
            last_inc = abs(val - prev)
            if last_inc < tol:
                return val
        prev = val
    raise InconclusiveError(
        f"overlap not converged within cutoff cap {schedule[-1]}: "
        f"last increment {last_inc}"
    )
