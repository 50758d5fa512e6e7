"""Quasi-free states of the CAR algebra over a real Hilbert space.

A state is represented by its covariance operator on the complexification: a
Hermitian matrix S with 0 <= S <= I and S + conj(S) = I, where conj is
entrywise conjugation (the extension of the real structure). Moments of the
state are signed pairing sums (Pfaffians) of two-point values x^T S y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import matcore
from .errors import CovarianceError
from .matcore import dagger, eig_h, hermitian_part, hs_norm, raise_first, scalar

__all__ = [
    "CarCovariance",
    "doubled_conjugate",
    "hamiltonian_of",
    "is_standard_car",
    "meet_criterion",
    "mu_covariance",
    "qe_distance_car",
    "quadrature",
    "quadrature_identity_check",
    "trans_prob_car",
    "two_point",
    "validate_car",
    "validate_doubled_covariance",
    "wick_moment",
]

VALIDATION_TOL = 1e-10
# Singular values of the overlap matrix below this (relative) cut are exact zeros.
SINGULAR_TOL = 1e-10

# spectrum within this distance of the endpoints {0, 1} is treated as exactly
# degenerate when taking square roots (see _sqrt_both); two orders above the
# worst-case eigensolver noise for the dimensions this package targets
DEGENERACY_SNAP = 1e-12


@dataclass(frozen=True)
class CarCovariance:
    """Validated fermionic covariance: Hermitian, 0 <= S <= I, S + conj(S) = I.

    ``matrix`` is one d x d covariance or a stack of them, shape (..., d, d).
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]


def validate_car(s, tol: float = VALIDATION_TOL) -> CarCovariance:
    """Check and normalize a candidate covariance matrix, or a stack of them.

    Symmetrizes within tolerance and enforces S + conj(S) = I exactly on the
    stored matrix; raises :class:`CovarianceError` with the violation
    magnitude otherwise.
    """
    s = np.asarray(s, dtype=complex)
    if s.ndim < 2 or s.shape[-1] != s.shape[-2]:
        raise CovarianceError(f"covariance must be square, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise CovarianceError("covariance has non-finite entries")
    d = s.shape[-1]
    scale = 1.0 + np.max(np.abs(s), axis=(-2, -1), initial=0.0)

    herm_defect = np.max(np.abs(s - dagger(s)), axis=(-2, -1), initial=0.0)
    raise_first(herm_defect > tol * scale, herm_defect,
                lambda v: CovarianceError(f"not Hermitian: max deviation {v:.3e}"))
    s = hermitian_part(s)

    rel_defect = np.max(np.abs(s + np.conj(s) - np.eye(d)), axis=(-2, -1), initial=0.0)
    raise_first(rel_defect > tol * scale, rel_defect,
                lambda v: CovarianceError(f"S + conj(S) != I: max deviation {v:.3e}"))
    # enforce the relation exactly: S + conj(S) = I means Re(S) = I/2, and
    # rebuilding from the imaginary part alone cancels without rounding
    s = 0.5 * np.eye(d) + 1j * np.imag(s)

    w = np.linalg.eigvalsh(s)[..., :1]
    raise_first(w < -tol * scale[..., None], w,
                lambda v: CovarianceError(f"not PSD: eigenvalue {v:.6e}"))

    s.setflags(write=False)
    return CarCovariance(s)


def mu_covariance(mu) -> CarCovariance:
    """Two-dimensional covariance with eigenvalues 1/2 +- mu (pure at |mu| = 1/2).

    An array of offsets gives the stack of their covariances.
    """
    mu = np.asarray(mu)
    m = np.zeros(mu.shape + (2, 2), dtype=complex)
    m[..., 0, 0] = m[..., 1, 1] = 0.5
    m[..., 0, 1] = -1j * mu
    m[..., 1, 0] = 1j * mu
    return validate_car(m)


def _as_matrix(s) -> np.ndarray:
    if isinstance(s, CarCovariance):
        return s.matrix
    return hermitian_part(np.asarray(s, dtype=complex))


def _check_same_dim(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise CovarianceError(f"dimension mismatch: {a.shape} vs {b.shape}")


def two_point(s, x, y) -> complex:
    """Second moment of the state at a pair of (complexified) vectors: x^T S y."""
    m = _as_matrix(s)
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (m.shape[0],) or y.shape != (m.shape[0],):
        raise CovarianceError(
            f"vector length mismatch: {x.shape}, {y.shape} against dim {m.shape[0]}"
        )
    return complex(x @ (m @ y))


def wick_moment(s, vectors) -> complex:
    """Moment of a product of generators: the Pfaffian of the two-point matrix.

    Odd-length products vanish; the empty product is 1. Equal to the signed
    sum over pair partitions of products of two-point values.
    """
    m = _as_matrix(s)
    vs = [np.asarray(v, dtype=complex) for v in vectors]
    for v in vs:
        if v.shape != (m.shape[0],):
            raise CovarianceError(
                f"vector length {v.shape} does not match dimension {m.shape[0]}"
            )
    n = len(vs)
    if n == 0:
        return 1.0 + 0.0j
    if n % 2:
        return 0.0 + 0.0j
    vmat = np.array(vs)
    pair = vmat @ m @ vmat.T
    skew = np.triu(pair, 1)
    skew = skew - skew.T
    return matcore.pfaffian(skew)


def _sqrt_both(m: np.ndarray):
    """sqrt(S) and sqrt(I - S) from one eigendecomposition, spectrum clipped to [0, 1].

    Eigenvalues within DEGENERACY_SNAP of 0 or 1 are snapped exactly onto the
    endpoint: eigenvalue noise sits at ~dim*eps, but the square root amplifies
    a noisy near-zero eigenvalue to ~1e-8, which would drown the singular-value
    cut that detects exactly-singular overlaps.  Snapping keeps kernel
    directions exact while leaving every resolvable eigenvalue untouched.
    """
    w, v = eig_h(m)
    w = np.clip(w, 0.0, 1.0)
    w[w <= DEGENERACY_SNAP] = 0.0
    w[w >= 1.0 - DEGENERACY_SNAP] = 1.0
    vh = dagger(v)
    return (v * np.sqrt(w)[..., None, :]) @ vh, (v * np.sqrt(1.0 - w)[..., None, :]) @ vh


def trans_prob_car(s, t, singular_tol: float = SINGULAR_TOL):
    """Transition probability between the quasi-free states of two covariances.

    Computed as |det M|^(1/2) with M = sqrt(S) sqrt(T) + sqrt(I-S) sqrt(I-T),
    via singular values; a singular value below ``singular_tol`` (relative)
    collapses the result to exactly 0. Always in [0, 1], 1 iff S = T.
    Stacked covariances give one value per pair.
    """
    ms, mt = _as_matrix(s), _as_matrix(t)
    _check_same_dim(ms, mt)
    rs, cs = _sqrt_both(ms)
    rt, ct = _sqrt_both(mt)
    sv = np.linalg.svd(rs @ rt + cs @ ct, compute_uv=False)
    if sv.shape[-1] == 0:
        return scalar(np.ones(sv.shape[:-1]))
    zero = sv[..., -1] <= singular_tol * np.maximum(1.0, sv[..., 0])
    with np.errstate(divide="ignore"):
        val = np.exp(0.5 * np.sum(np.log(sv), axis=-1))
    return scalar(np.where(zero, 0.0, np.minimum(val, 1.0)))


def qe_distance_car(s, t):
    """Hilbert-Schmidt distance of covariance square roots, ||sqrt(S) - sqrt(T)||.

    Finite-dimensional stand-in for the quasi-equivalence criterion: two
    sequences of states are quasi-equivalent iff these distances are square
    summable mode by mode. Stacked covariances give one distance per pair.
    """
    ms, mt = _as_matrix(s), _as_matrix(t)
    _check_same_dim(ms, mt)
    return hs_norm(_sqrt_both(ms)[0] - _sqrt_both(mt)[0])


def quadrature(s) -> np.ndarray:
    """Doubling of a covariance to a projection on the doubled space.

    Returns the 2d x 2d block matrix [[S, C], [C, I-S]] with
    C = sqrt(S(I-S)), which is idempotent and is again a valid covariance for
    the doubled conjugation (:func:`doubled_conjugate`). Taking quadratures
    squares transition probabilities (see
    :func:`quadrature_identity_check`).
    """
    m = _as_matrix(s)
    d = m.shape[0]
    w, v = eig_h(m)
    w = np.clip(w, 0.0, 1.0)
    c = (v * np.sqrt(w * (1.0 - w))) @ v.conj().T
    c = hermitian_part(c)
    return np.block([[m, c], [c, np.eye(d) - m]])


def doubled_conjugate(x: np.ndarray) -> np.ndarray:
    """Entrywise conjugation twisted by the sign flip on the second summand.

    This is the conjugation of the doubled real space underlying
    :func:`quadrature`; a doubled covariance P satisfies
    P + doubled_conjugate(P) = I.
    """
    x = np.asarray(x, dtype=complex)
    d2 = x.shape[0]
    if d2 % 2:
        raise ValueError(f"doubled space must have even dimension, got {d2}")
    signs = np.ones(d2)
    signs[d2 // 2 :] = -1.0
    return signs[:, None] * np.conj(x) * signs[None, :]


def validate_doubled_covariance(p: np.ndarray, tol: float = 1e-8) -> None:
    """Assert that p is a covariance for the doubled conjugation: Hermitian,
    0 <= p <= I, and p + doubled_conjugate(p) = I. Raises CovarianceError."""
    p = np.asarray(p, dtype=complex)
    herm = float(np.max(np.abs(p - p.conj().T), initial=0.0))
    if herm > tol:
        raise CovarianceError(f"doubled covariance not Hermitian: {herm:.3e}")
    w = np.linalg.eigvalsh(hermitian_part(p))
    if w.size and (w[0] < -tol or w[-1] > 1.0 + tol):
        raise CovarianceError(
            f"doubled covariance spectrum outside [0, 1]: [{w[0]:.3e}, {w[-1]:.6f}]"
        )
    rel = float(np.max(np.abs(p + doubled_conjugate(p) - np.eye(p.shape[0])), initial=0.0))
    if rel > tol:
        raise CovarianceError(f"doubled conjugation relation violated: {rel:.3e}")


def quadrature_identity_check(s, t):
    """(transition probability of the quadratures, squared transition probability)."""
    p, q = quadrature(s), quadrature(t)
    return trans_prob_car(p, q), trans_prob_car(s, t) ** 2


def meet_criterion(s, t, tol: float = 1e-8) -> int:
    """Rank of quadrature(S) ∧ (I - quadrature(T)).

    For quasi-equivalent states this is nonzero exactly when the transition
    probability vanishes.
    """
    p, q = quadrature(s), quadrature(t)
    meet = matcore.projection_meet(p, np.eye(q.shape[0]) - q, tol)
    return int(round(float(np.trace(meet).real)))


def hamiltonian_of(s, tol: float = 1e-10) -> np.ndarray:
    """Logarithmic generator H with S = (I + exp(H))^{-1}.

    Only defined for non-degenerate covariances (spectrum in the open unit
    interval); satisfies conj(H) = -H.
    """
    m = _as_matrix(s)
    w, v = eig_h(m)
    if w.size == 0:
        return np.zeros_like(m)
    if w[0] <= tol:
        raise CovarianceError(f"degenerate covariance: eigenvalue {w[0]:.6e}")
    if w[-1] >= 1.0 - tol:
        raise CovarianceError(f"degenerate covariance: eigenvalue {w[-1]:.10f}")
    return hermitian_part((v * np.log((1.0 - w) / w)) @ v.conj().T)


def is_standard_car(s, tol: float = 1e-10) -> bool:
    """Whether the covariance has trivial kernel (cyclic vector is separating)."""
    m = _as_matrix(s)
    w = np.linalg.eigvalsh(m)
    return bool(w.size == 0 or w[0] > tol)
