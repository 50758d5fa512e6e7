"""Brute-force Fock-space oracle for fermionic quasi-free states.

Represents the CAR generators as explicit 2^n x 2^n matrices (Jordan-Wigner)
and builds the density matrix of a quasi-free state as a product of n
commuting pair factors, then evaluates state overlaps directly. Exponential
in the mode count — the whole point is to be an independent check on the
determinant formulas, so it shares no factorisation with :mod:`quasifree.car`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .car import CarCovariance, validate_car
from .errors import SizeCapError
from .matcore import hermitian_part, sqrt_psd

__all__ = [
    "CliffordRep",
    "MAX_MODES",
    "density_from_covariance",
    "fidelity_tr",
    "jw_generators",
    "overlap",
]

# the density is (2^n)^2 complex entries; measured cost at the cap is in README
MAX_MODES = 10


@dataclass(frozen=True)
class CliffordRep:
    """Hermitian matrices c_1..c_2n with c_j c_k + c_k c_j = 2 delta_jk.

    Jordan-Wigner generators are monomial: c_k has one nonzero entry per row,
    ``c_k[r, r ^ flips[k]] = phases[k, r]``. The dense matrices are built on
    each access of :attr:`generators`.
    """

    n_modes: int
    flips: np.ndarray
    phases: np.ndarray

    @property
    def dim(self) -> int:
        return 2**self.n_modes

    @property
    def generators(self) -> tuple:
        return tuple(self.combine(np.eye(2 * self.n_modes)))

    def combine(self, coef: np.ndarray) -> np.ndarray:
        """Dense sum_k coef[k, m] c_k for each column m of ``coef``, shape (m, dim, dim)."""
        rows = np.arange(self.dim)
        cols = rows ^ self.flips[:, None]
        out = np.zeros((coef.shape[1], self.dim, self.dim), dtype=complex)
        # add.at: generators may share a flip (X and Y on one site do)
        np.add.at(out, (slice(None), np.broadcast_to(rows, cols.shape), cols),
                  coef.T[:, :, None] * self.phases)
        return out

    def pair_moments(self, rho: np.ndarray) -> np.ndarray:
        """tr(rho c_j c_k) for all j, k, read off monomial entries (no matmul).

        c_j c_k maps row a to column a ^ f_j ^ f_k with phase
        phases[j, a] phases[k, a ^ f_j], so the trace gathers one entry of
        rho per row.
        """
        rows = np.arange(self.dim)
        shifted = rows ^ self.flips[:, None]                  # (j, a): a ^ f_j
        right = self.phases[:, shifted].transpose(1, 0, 2)    # (j, k, a)
        picked = rho[shifted[:, None, :] ^ self.flips[None, :, None], rows]
        return np.einsum("ja,jka,jka->jk", self.phases, right, picked)


@functools.lru_cache(maxsize=None)
def _jw_rep(n_modes: int) -> CliffordRep:
    # at most MAX_MODES entries of 2n x 2^n phases each: under 1 MB in all
    rows = np.arange(2**n_modes)
    bits = (rows[:, None] >> np.arange(n_modes - 1, -1, -1)) & 1  # site 0 is the top bit
    # Z-string sign over the sites before j
    sign = 1.0 - 2.0 * ((np.cumsum(bits, axis=1) - bits) % 2)
    y_phase = 1j * (2.0 * bits - 1.0)  # Y = [[0, -i], [i, 0]] read at the row's bit
    phases = np.stack([sign, sign * y_phase], axis=1).T.reshape(2 * n_modes, -1)
    flips = np.repeat(1 << np.arange(n_modes - 1, -1, -1), 2)
    for arr in (flips, phases):
        arr.setflags(write=False)
    return CliffordRep(n_modes=n_modes, flips=flips, phases=phases)


def jw_generators(n_modes: int) -> CliffordRep:
    """Jordan-Wigner representation: Z-strings followed by X or Y on one site."""
    if not 1 <= n_modes <= MAX_MODES:
        raise SizeCapError(f"n_modes must be in 1..{MAX_MODES}, got {n_modes}")
    return _jw_rep(n_modes)


def _pairing(a: np.ndarray) -> np.ndarray:
    """Real orthogonal columns x_1, y_1, x_2, y_2, ... in which A is block diagonal.

    The upper half of the spectrum of iA, largest first, gives
    v_j = (x_j + i y_j)/sqrt2. Kernel eigenvectors are arbitrary complex vectors
    whose real and imaginary parts are no orthonormal pair, so one QR makes
    the columns orthonormal; blocks with lambda > 0 come first and already are.
    """
    d = a.shape[0]
    v = np.linalg.eigh(1j * a)[1][:, ::-1][:, : d // 2]
    pairs = np.sqrt(2.0) * np.stack([v.real, v.imag], axis=-1).reshape(d, d)
    return np.linalg.qr(pairs)[0]


def density_from_covariance(s, rep: CliffordRep | None = None) -> np.ndarray:
    """Density matrix of the quasi-free state with covariance ``s``.

    In a real orthonormal pairing (x_j, y_j) that block-diagonalises
    A = Im S, the state is a product over pairs:
    rho = 2^-n prod_j (I - 2 s_j b_j b'_j) with b_j = x_j.c, b'_j = y_j.c and
    s_j = x_j^T S y_j; the factors commute, and pure pairs (|s_j| = 1/2)
    are exact. The result is verified Hermitian, trace one within 1e-10,
    PSD within 1e-9 and tr(rho c_j c_k) = 2 S_jk within 1e-10 — a violation
    means a convention bug, so it raises instead of clamping.
    """
    cov = s if isinstance(s, CarCovariance) else validate_car(s)
    d = cov.dim
    if d % 2:
        raise SizeCapError(f"oracle needs an even dimension (pairs of generators), got {d}")
    if d > 2 * MAX_MODES:
        raise SizeCapError(f"dimension {d} exceeds oracle cap {2 * MAX_MODES}")
    n = d // 2
    if rep is None:
        rep = jw_generators(n)
    elif rep.n_modes != n:
        raise ValueError(f"representation has {rep.n_modes} modes, covariance needs {n}")

    sm = cov.matrix
    pairs = _pairing(sm.imag)
    coef = np.einsum("ij,ij->j", pairs[:, 0::2], sm @ pairs[:, 1::2])
    dim = rep.dim
    rho = np.eye(dim, dtype=complex) / dim
    for j in range(n):
        b, b_prime = rep.combine(pairs[:, 2 * j : 2 * j + 2])
        rho = rho - 2.0 * coef[j] * ((rho @ b) @ b_prime)

    rho = hermitian_part(rho)
    trace_err = abs(float(np.trace(rho).real) - 1.0)
    if trace_err > 1e-10:
        raise RuntimeError(f"oracle density trace off by {trace_err:.3e} (convention bug)")
    moment_err = float(np.max(np.abs(rep.pair_moments(rho) - 2.0 * sm)))
    if moment_err > 1e-10:
        raise RuntimeError(f"oracle density two-point moments off by {moment_err:.3e} "
                           "(convention bug)")
    w = np.linalg.eigvalsh(rho)
    if w[0] < -1e-9:
        raise RuntimeError(f"oracle density not PSD: eigenvalue {w[0]:.3e} (convention bug)")
    rho.setflags(write=False)
    return rho


def overlap(rho: np.ndarray, tau: np.ndarray) -> float:
    """tr(sqrt(rho) sqrt(tau)) for two density matrices, clipped to [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    if rho.shape != tau.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {tau.shape}")
    val = float(np.trace(sqrt_psd(rho) @ sqrt_psd(tau)).real)
    return float(np.clip(val, 0.0, 1.0))


def fidelity_tr(rho: np.ndarray, tau: np.ndarray) -> float:
    """Trace-norm fidelity tr|sqrt(rho) sqrt(tau)|, clipped to [0, 1].

    Dominates :func:`overlap` and is dominated by its square root.
    """
    rho = np.asarray(rho, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    if rho.shape != tau.shape:
        raise ValueError(f"shape mismatch: {rho.shape} vs {tau.shape}")
    sv = np.linalg.svd(sqrt_psd(rho) @ sqrt_psd(tau), compute_uv=False)
    return float(np.clip(float(np.sum(sv)), 0.0, 1.0))
