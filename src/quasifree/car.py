"""Quasi-free states of the CAR algebra over a real Hilbert space.

A state is represented by its covariance operator on the complexification: a
Hermitian matrix S with 0 <= S <= I and S + conj(S) = I, where conj is
entrywise conjugation (the extension of the real structure). Moments of the
state are signed pairing sums (Pfaffians) of two-point values x^T S y.

The relation forces S = I/2 + iA with A = Im S real antisymmetric. Each
covariance is factorised once, by one real ``eigh`` of A^T A = -A^2 kept on
the frozen :class:`CarCovariance`; sqrt(S) = G + iY and sqrt(I-S) = G - iY with
G, Y real functions of it, so the overlap matrix M = 2(G_S G_T - Y_S Y_T) is
real and one real SVD of it gives both the transition probability and the meet.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore
from .errors import CovarianceError
from .matcore import dagger, eig_h, hermitian_part, hs_norm, raise_first, scalar

__all__ = [
    "CarCovariance",
    "doubled_conjugate",
    "hamiltonian_of",
    "is_standard_car",
    "log_trans_prob_car",
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
# degenerate when taking square roots (see CarCovariance.roots); two orders
# above the worst-case eigensolver noise for the dimensions this package targets
DEGENERACY_SNAP = 1e-12


@dataclass(frozen=True)
class CarCovariance:
    """Validated fermionic covariance: Hermitian, 0 <= S <= I, S + conj(S) = I.

    ``matrix`` is one d x d covariance or a stack of them, shape (..., d, d).
    The factorisation is computed once: by :func:`validate_car`, or on first
    use for an instance built directly.
    """

    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @cached_property
    def spectrum(self):
        """``(x, v)``: real ``eigh`` of A^T A = -A^2, A = Im S; S has eigenvalues 1/2 +- sqrt(x)."""
        a = self.matrix.imag
        return np.linalg.eigh(a.swapaxes(-1, -2) @ a)

    @cached_property
    def roots(self):
        """Real ``(G, Y)`` with sqrt(S) = G + iY and sqrt(I - S) = G - iY.

        For eigenvalues lam = 1/2 +- r of S (r = sqrt x), G = (sqrt lam+ + sqrt lam-)/2
        and Y = A h with the cancellation-free h = 1/(sqrt lam+ + sqrt lam-).
        A lam- within DEGENERACY_SNAP of 0 is snapped to {0, 1} (with h = 1/(2r)):
        the square root would amplify its ~dim*eps noise to ~1e-8 and drown the
        singular-value cut that detects exactly-singular overlaps.
        """
        x, v = self.spectrum
        r = np.sqrt(np.clip(x, 0.0, 0.25))
        snap = 0.5 - r <= DEGENERACY_SNAP
        total = np.where(snap, 1.0, np.sqrt(0.5 + r) + np.sqrt(np.maximum(0.5 - r, 0.0)))
        h = np.where(snap, 0.5 / np.maximum(r, 0.25), 1.0 / total)  # r > 1/4 where snapped
        vt = v.swapaxes(-1, -2)
        g = (v * (0.5 * total)[..., None, :]) @ vt
        return g, self.matrix.imag @ ((v * h[..., None, :]) @ vt)


def validate_car(s, tol: float = VALIDATION_TOL) -> CarCovariance:
    """Check and normalize a candidate covariance matrix, or a stack of them.

    Symmetrizes within tolerance and enforces S + conj(S) = I exactly on the
    stored matrix; raises :class:`CovarianceError` with the violation
    magnitude otherwise. Positivity is read from the real factorisation that
    the returned covariance keeps: the smallest eigenvalue is 1/2 - sqrt(max x).
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
    s.setflags(write=False)
    cov = CarCovariance(s)

    w = 0.5 - np.sqrt(np.maximum(cov.spectrum[0][..., -1:], 0.0))
    raise_first(w < -tol * scale[..., None], w,
                lambda v: CovarianceError(f"not PSD: eigenvalue {v:.6e}"))
    return cov


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


def _as_covariance(s) -> CarCovariance:
    """A covariance as given, or a raw array through :func:`validate_car`."""
    return s if isinstance(s, CarCovariance) else validate_car(s)


def two_point(s, x, y) -> complex:
    """Second moment of the state at a pair of (complexified) vectors: x^T S y."""
    m = _as_covariance(s).matrix
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
    m = _as_covariance(s).matrix
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


def _pair_roots(s, t):
    """Real square-root parts ``((G_S, Y_S), (G_T, Y_T))`` of a same-shape pair."""
    cs, ct = _as_covariance(s), _as_covariance(t)
    if cs.matrix.shape != ct.matrix.shape:
        raise CovarianceError(f"dimension mismatch: {cs.matrix.shape} vs {ct.matrix.shape}")
    return cs.roots, ct.roots


def _overlap_singular_values(s, t) -> np.ndarray:
    """Singular values (descending) of the real overlap matrix 2(G_S G_T - Y_S Y_T)."""
    (gs, ys), (gt, yt) = _pair_roots(s, t)
    return np.linalg.svd(2.0 * (gs @ gt - ys @ yt), compute_uv=False)


def _zero_count(sv: np.ndarray, singular_tol: float):
    """How many singular values (descending) are exact zeros: <= singular_tol * max(1, largest)."""
    return np.count_nonzero(sv <= singular_tol * np.maximum(1.0, sv[..., :1]), axis=-1)


def _log_tp(s, t, singular_tol: float) -> np.ndarray:
    """(1/2) sum log sigma capped at 0, or -inf where a singular value is an exact zero."""
    sv = _overlap_singular_values(s, t)
    with np.errstate(divide="ignore"):
        val = np.minimum(0.5 * np.sum(np.log(sv), axis=-1), 0.0)
    return np.where(_zero_count(sv, singular_tol) > 0, -np.inf, val)


def log_trans_prob_car(s, t, singular_tol: float = SINGULAR_TOL):
    """Natural log of :func:`trans_prob_car`, which does not underflow.

    (1/2) sum log sigma over the singular values sigma of the overlap matrix,
    at most 0; exactly -inf when a singular value is an exact zero under the
    rule of :func:`trans_prob_car`, so -inf iff :func:`meet_criterion` >= 1.
    Many small factors (hundreds of modes at 0.1 each) stay finite here where
    the probability itself underflows to 0.0. Stacked covariances give one
    value per pair.
    """
    return scalar(_log_tp(s, t, singular_tol))


def trans_prob_car(s, t, singular_tol: float = SINGULAR_TOL):
    """Transition probability between the quasi-free states of two covariances.

    Computed as |det M|^(1/2) with M = sqrt(S) sqrt(T) + sqrt(I-S) sqrt(I-T),
    a real matrix (see the module docstring), via singular values; a singular
    value below ``singular_tol`` (relative) collapses the result to exactly 0.
    Always in [0, 1], 1 iff S = T; the exp of :func:`log_trans_prob_car`, so
    it can underflow to 0.0 where the log is finite. Stacked covariances give
    one value per pair.
    """
    return scalar(np.exp(_log_tp(s, t, singular_tol)))


def qe_distance_car(s, t):
    """Hilbert-Schmidt distance of covariance square roots, ||sqrt(S) - sqrt(T)||.

    Finite-dimensional stand-in for the quasi-equivalence criterion: two
    sequences of states are quasi-equivalent iff these distances are square
    summable mode by mode. Read from the real parts as
    sqrt(||G_S - G_T||^2 + ||Y_S - Y_T||^2). Stacked covariances give one
    distance per pair.
    """
    (gs, ys), (gt, yt) = _pair_roots(s, t)
    return hs_norm(np.concatenate([gs - gt, ys - yt], axis=-1))


def quadrature(s) -> np.ndarray:
    """Doubling of a covariance to a projection on the doubled space.

    Returns the 2d x 2d block matrix [[S, C], [C, I-S]] with the real
    C = sqrt(S(I-S)) = sqrt(I/4 - A^T A), which is idempotent and is again a
    valid covariance for the doubled conjugation (:func:`doubled_conjugate`).
    Taking quadratures squares transition probabilities.
    """
    cov = _as_covariance(s)
    x, v = cov.spectrum
    c = hermitian_part((v * np.sqrt(np.clip(0.25 - x, 0.0, None))[..., None, :])
                       @ v.swapaxes(-1, -2))
    return np.block([[cov.matrix, c], [c, np.eye(cov.dim) - cov.matrix]])


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
    """(transition probability of the quadratures, squared transition probability).

    U = diag(I, iI) turns the doubled conjugation into the standard one, so
    U P U* is a covariance for :func:`validate_car`; the overlap matrix
    becomes U M U*, with the same transition probability.
    """
    s, t = _as_covariance(s), _as_covariance(t)
    u = np.repeat([1.0, 1.0j], s.dim)
    p, q = (u[:, None] * quadrature(c) * u.conj() for c in (s, t))
    return trans_prob_car(p, q), trans_prob_car(s, t) ** 2


def meet_criterion(s, t, singular_tol: float = SINGULAR_TOL):
    """Rank of quadrature(S) ∧ (I - quadrature(T)), from the overlap matrix.

    V_S = [sqrt S; sqrt(I-S)] is an isometry with V_S V_S* = quadrature(S)
    and V_T* V_S = M*, so ran quadrature(S) ∩ ker quadrature(T) is V_S ker M*:
    the rank is the number of zero singular values of M, counted with the
    zero rule of :func:`trans_prob_car`. Hence the rank is at least 1 exactly
    when the transition probability is 0. Stacked covariances give one rank
    per pair.
    """
    return scalar(_zero_count(_overlap_singular_values(s, t), singular_tol))


def hamiltonian_of(s, tol: float = 1e-10) -> np.ndarray:
    """Logarithmic generator H with S = (I + exp(H))^{-1}.

    Only defined for non-degenerate covariances (spectrum in the open unit
    interval); satisfies conj(H) = -H.
    """
    m = _as_covariance(s).matrix
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
    x = _as_covariance(s).spectrum[0]
    return bool(x.size == 0 or 0.5 - np.sqrt(max(x[-1], 0.0)) > tol)
