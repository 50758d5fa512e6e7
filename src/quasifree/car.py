"""Quasi-free states of the CAR algebra over a real Hilbert space.

A state is represented by its covariance operator on the complexification: a
Hermitian matrix S with 0 <= S <= I and S + conj(S) = I, where conj is
entrywise conjugation (the extension of the real structure). Moments of the
state are signed pairing sums (Pfaffians) of two-point values x^T S y.

The relation forces S = I/2 + iA with A = Im S real antisymmetric. Each
covariance is factorised once, by one real ``eigh`` of A^T A = -A^2 (on one
mode, 2 x 2, read from A[1, 0]) kept on the frozen :class:`CarCovariance`;
sqrt(S) = G + iY and sqrt(I-S) = G - iY with G, Y real functions of it, so the
overlap matrix M = 2(G_S G_T - Y_S Y_T) is real. One LU of M decides where it
proves no singular value a zero, one SVD elsewhere; on one mode M = m I in
closed form. S keeps the result against its last partner T, so tp, log tp, the
meet and the quadrature check on the same pair of objects factorise M once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matcore
from .errors import CovarianceError
from .matcore import adjoint, dagger, eigh, hermitian_part, hs_norm, log_abs_det, scalar, svdvals
from .tolerances import CERTIFY_MARGIN, DEGENERACY_SNAP, VALIDATION_TOL, ZERO_TOL

__all__ = [
    "CarCovariance",
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
    "wick_moment",
]


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
        """``(x, v)``: real ``eigh`` of A^T A = -A^2, A = Im S; S has eigenvalues 1/2 +- sqrt(x).

        At d = 2 it reads mu = A[1, 0] of a validated covariance, as :attr:`mode_roots`
        does: A^T A = mu^2 I, so x = (mu^2, mu^2) on the basis ``eigh`` gives for it.
        """
        a = self.matrix.imag
        if self.dim != 2:
            return eigh(adjoint(a) @ a)
        x = np.square(a[..., 1, 0])  # on the basis eigh gives for x I, signed zero included
        return np.stack([x, x], axis=-1), np.tile([[1.0, 0.0], [-0.0, 1.0]], x.shape + (1, 1))

    @cached_property
    def roots(self):
        """Real ``(G, Y)`` with sqrt(S) = G + iY and sqrt(I - S) = G - iY.

        :func:`quasifree.matcore.root_parts` of A = Im S. An eigenvalue 1/2 - r
        of S within DEGENERACY_SNAP of 0 is snapped to 0 (Y = A/(2r) there):
        the square root would amplify its ~dim*eps noise to ~1e-8 and drown the
        singular-value cut that detects exactly-singular overlaps.
        """
        return matcore.root_parts(self.matrix.imag, *self.spectrum, DEGENERACY_SNAP)

    @cached_property
    def mode_roots(self):
        """2 x 2 only: the scalars ``(g, y)`` with :attr:`roots` = (g I, y A/mu), mu = A[1, 0]."""
        t, h = matcore.root_scales(self.spectrum[0][..., 0], DEGENERACY_SNAP)  # both x are mu^2
        return 0.5 * t, h * self.matrix.imag[..., 1, 0]


def validate_car(s) -> CarCovariance:
    """Check and normalize a candidate covariance matrix, or a stack of them.

    Symmetrizes within VALIDATION_TOL and enforces S + conj(S) = I exactly on the
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

    def scale():  # of the matrix as given
        return 1.0 + np.max(np.abs(s), axis=(-2, -1), initial=0.0)

    matcore.raise_first_above(np.abs(s - dagger(s)), VALIDATION_TOL, scale,
                              lambda v: CovarianceError(f"not Hermitian: max deviation {v:.3e}"))
    h = hermitian_part(s)
    matcore.raise_first_above(np.abs(h + np.conj(h) - np.eye(d)), VALIDATION_TOL, scale,
                              lambda v: CovarianceError(f"S + conj(S) != I: max deviation {v:.3e}"))
    # enforce the relation exactly: S + conj(S) = I means Re(S) = I/2, and
    # rebuilding from the imaginary part alone cancels without rounding
    m = 0.5 * np.eye(d) + 1j * np.imag(h)
    m.setflags(write=False)
    return _psd_checked(CarCovariance(m), scale)


def _psd_checked(cov: CarCovariance, scale) -> CarCovariance:
    """``cov``, unless a lowest eigenvalue is below -VALIDATION_TOL * its ``scale()``."""
    matcore.raise_first_above(-_lowest_eigenvalue(cov)[..., None], VALIDATION_TOL, scale,
                              lambda v: CovarianceError(f"not PSD: eigenvalue {-v:.6e}"), axis=-1)
    return cov


def _lowest_eigenvalue(cov: CarCovariance) -> np.ndarray:
    """1/2 - sqrt(max x), the smallest eigenvalue of S, one per matrix."""
    # x ascends, so max x is its last entry: a max over the whole short axis is ~7x slower
    return 0.5 - np.sqrt(np.max(cov.spectrum[0][..., -1:], axis=-1, initial=0.0))


def mu_covariance(mu) -> CarCovariance:
    """Two-dimensional covariance with eigenvalues 1/2 +- mu (pure at |mu| = 1/2).

    An array of offsets gives the stack of their covariances. Real offsets are built valid,
    as the 0.5 I + 1j [[0, -mu], [mu, 0]] that :func:`validate_car` rebuilds: only its refusals
    of non-finite and of non-PSD input (on the closed-form spectrum) are checked.
    """
    mu = np.asarray(mu)
    m = np.zeros(mu.shape + (2, 2), dtype=complex)
    m.real[..., 0, 0] = m.real[..., 1, 1] = 0.5
    if mu.dtype.kind not in "biuf":  # complex offsets take every check
        m[..., 0, 1], m[..., 1, 0] = -1j * mu, 1j * mu
        return validate_car(m)
    if not np.all(np.isfinite(mu)):
        raise CovarianceError("covariance has non-finite entries")
    m.imag[..., 0, 1], m.imag[..., 1, 0] = 0.0 - mu, mu + 0.0  # a zero offset gives +0
    m.setflags(write=False)
    return _psd_checked(CarCovariance(m), lambda: 1.0 + np.maximum(0.5, np.abs(mu)))


def _as_covariance(s) -> CarCovariance:
    """A covariance as given, or a raw array through :func:`validate_car`."""
    return s if isinstance(s, CarCovariance) else validate_car(s)


def _single(s, name: str) -> np.ndarray:
    """The matrix of one covariance; CovarianceError naming the shape of a stack."""
    m = _as_covariance(s).matrix
    if m.ndim != 2:
        raise CovarianceError(f"{name} takes one covariance, got shape {m.shape}")
    return m


def two_point(s, x, y) -> complex:
    """Second moment of the state at a pair of (complexified) vectors: x^T S y.

    Takes one covariance, not a stack.
    """
    m = _single(s, "two_point")
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != (m.shape[0],) or y.shape != (m.shape[0],):
        raise CovarianceError(
            f"vector length mismatch: {x.shape}, {y.shape} against dim {m.shape[0]}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise CovarianceError("vectors must have finite entries")
    return complex(x @ (m @ y))


def wick_moment(s, vectors) -> complex:
    """Moment of a product of generators: the Pfaffian of the two-point matrix.

    Odd-length products vanish; the empty product is 1. Equal to the signed
    sum over pair partitions of products of two-point values. Takes one
    covariance, not a stack.
    """
    m = _single(s, "wick_moment")
    vs = [np.asarray(v, dtype=complex) for v in vectors]
    for v in vs:
        if v.shape != (m.shape[0],):
            raise CovarianceError(
                f"vector length {v.shape} does not match dimension {m.shape[0]}"
            )
        if not np.all(np.isfinite(v)):
            raise CovarianceError("vectors must have finite entries")
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
    """``(d, (G_S, Y_S), (G_T, Y_T))`` of a same-shape pair: at d = 2 the scalars of
    :attr:`CarCovariance.mode_roots`, else :attr:`CarCovariance.roots`."""
    cs, ct = _as_covariance(s), _as_covariance(t)
    if cs.matrix.shape != ct.matrix.shape:
        raise CovarianceError(f"dimension mismatch: {cs.matrix.shape} vs {ct.matrix.shape}")
    return (2, cs.mode_roots, ct.mode_roots) if cs.dim == 2 else (cs.dim, cs.roots, ct.roots)


def _pair_overlap(s, t):
    """``(log tp, zero count)`` of the pair's real overlap matrix 2(G_S G_T - Y_S Y_T).

    On 2 x 2 pairs M = m I, m = 2(g_S g_T + y_S y_T) of :attr:`CarCovariance.mode_roots`,
    with both singular values |m|; larger ones take :func:`_overlap`. Kept on S
    against T's matrix (by identity), one pair at a time; callers copy.
    """
    s, t = _as_covariance(s), _as_covariance(t)
    partner, out = s.__dict__.get("_overlap", (None, None))
    if partner is not t.matrix:
        d, (gs, ys), (gt, yt) = _pair_roots(s, t)
        if d == 2:
            m = np.abs(2.0 * (gs * gt + ys * yt))
            zero = m <= ZERO_TOL * np.maximum(1.0, m)
            with np.errstate(divide="ignore"):
                out = np.where(zero, -np.inf, np.minimum(np.log(m), 0.0)), np.where(zero, 2, 0)
        else:
            out = _overlap(2.0 * (gs @ gt - ys @ yt))
        s.__dict__["_overlap"] = (t.matrix, out)
    return out


def _overlap(m: np.ndarray):
    """``(log tp, zero count)`` of overlap matrices M = V_T* V_S, one per matrix of a stack.

    A zero is a singular value <= ZERO_TOL * max(1, largest); log tp is (1/2) sum
    log sigma capped at 0, -inf where a zero is. As every sigma <= 1, AM-GM over
    the d - 1 largest sigma^2 gives log sigma_min >= log|det M| - (d-1)/2
    log(||M||_F^2 / (d-1)): above log(CERTIFY_MARGIN * ZERO_TOL) no zero is
    possible and one LU decides. Other matrices take ``svdvals``.
    """
    d, shape = m.shape[-1], m.shape[:-2]
    logdet = log_abs_det(m)
    with np.errstate(divide="ignore", invalid="ignore"):  # M = 0 gives nan: no pass
        bound = logdet - (d - 1) / 2 * np.log(np.sum(m * m, axis=(-2, -1)) / max(d - 1, 1))
    log_tp, zeros = np.minimum(0.5 * logdet, 0.0, out=np.empty(shape)), np.zeros(shape, np.intp)
    svd = ~(bound > np.log(CERTIFY_MARGIN * ZERO_TOL))
    if np.any(svd):
        sv = svdvals(m[svd])
        zeros[svd] = np.count_nonzero(sv <= ZERO_TOL * np.maximum(1.0, sv[..., :1]), axis=-1)
        with np.errstate(divide="ignore"):
            log_tp[svd] = np.minimum(0.5 * np.sum(np.log(sv), axis=-1), 0.0)
        log_tp[zeros > 0] = -np.inf
    return log_tp, zeros


def log_trans_prob_car(s, t):
    """Natural log of :func:`trans_prob_car`, which does not underflow.

    (1/2) sum log sigma over the singular values sigma of the overlap matrix,
    at most 0; exactly -inf when a singular value is an exact zero under the
    rule of :func:`trans_prob_car`, so -inf iff :func:`meet_criterion` >= 1.
    Many small factors (hundreds of modes at 0.1 each) stay finite here where
    the probability itself underflows to 0.0. Stacked covariances give one
    value per pair.
    """
    return scalar(_pair_overlap(s, t)[0].copy())


def trans_prob_car(s, t):
    """Transition probability between the quasi-free states of two covariances.

    Computed as |det M|^(1/2) with M = sqrt(S) sqrt(T) + sqrt(I-S) sqrt(I-T),
    a real matrix (see the module docstring), via its LU or its singular values;
    a singular value at or below ZERO_TOL (relative) collapses it to exactly 0.
    Always in [0, 1], 1 iff S = T; the exp of :func:`log_trans_prob_car`, so
    it can underflow to 0.0 where the log is finite. Stacked covariances give
    one value per pair.
    """
    return scalar(np.exp(_pair_overlap(s, t)[0]))


def qe_distance_car(s, t):
    """Hilbert-Schmidt distance of covariance square roots, ||sqrt(S) - sqrt(T)||.

    Finite-dimensional stand-in for the quasi-equivalence criterion: two
    sequences of states are quasi-equivalent iff these distances are square
    summable mode by mode. Read from the real parts as
    sqrt(||G_S - G_T||^2 + ||Y_S - Y_T||^2), on 2 x 2 pairs sqrt(2((g_S - g_T)^2 +
    (y_S - y_T)^2)), each square x * x. Stacked covariances give one distance per pair.
    """
    d, (gs, ys), (gt, yt) = _pair_roots(s, t)
    if d == 2:
        return scalar(np.sqrt(2.0 * (np.square(gs - gt) + np.square(ys - yt))))
    return hs_norm(np.concatenate([gs - gt, ys - yt], axis=-1))


def quadrature(s) -> np.ndarray:
    """Doubling of a covariance to a projection on the doubled space.

    Returns the 2d x 2d block matrix [[S, C], [C, I-S]] with the real
    C = sqrt(S(I-S)) = sqrt(I/4 - A^T A), which is idempotent and is again a
    valid covariance for the doubled conjugation (entrywise conjugation with
    the sign of the second summand flipped). Taking quadratures squares
    transition probabilities.
    """
    cov = _as_covariance(s)
    x, v = cov.spectrum
    c = hermitian_part((v * np.sqrt(np.clip(0.25 - x, 0.0, None))[..., None, :]) @ adjoint(v))
    return np.block([[cov.matrix, c], [c, np.eye(cov.dim) - cov.matrix]])


def quadrature_identity_check(s, t):
    """(transition probability of the quadratures, squared transition probability).

    U = diag(I, iI) turns the doubled conjugation into the standard one: U P U*
    = I/2 + iY_P with Y_P real antisymmetric, and the transition probability
    of the quadratures is that of these covariances. A projection is its own
    square root, so G = I/2 and Y = Y_P, and the overlap matrix is
    2(I/4 - Y_P Y_Q), whose LU or singular values take the zero rule of
    :func:`trans_prob_car`; no further factorisation is needed.
    """
    s, t = _as_covariance(s), _as_covariance(t)
    rhs = trans_prob_car(s, t) ** 2  # also refuses a dimension mismatch
    u = np.repeat([1.0, 1.0j], s.dim)
    yp, yq = ((u[:, None] * quadrature(c) * u.conj()).imag for c in (s, t))
    return scalar(np.exp(_overlap(2.0 * (0.25 * np.eye(2 * s.dim) - yp @ yq))[0])), rhs


def meet_criterion(s, t):
    """Rank of quadrature(S) ∧ (I - quadrature(T)), from the overlap matrix.

    V_S = [sqrt S; sqrt(I-S)] is an isometry with V_S V_S* = quadrature(S)
    and V_T* V_S = M*, so ran quadrature(S) ∩ ker quadrature(T) is V_S ker M*:
    the rank is the number of zero singular values of M, counted with the
    zero rule of :func:`trans_prob_car`. Hence the rank is at least 1 exactly
    when the transition probability is 0; after :func:`trans_prob_car` on the
    same pair of objects it reuses that factorisation, an LU alone where the LU
    rules out a zero. Stacked covariances give one rank per pair.
    """
    return scalar(_pair_overlap(s, t)[1].copy())


def hamiltonian_of(s) -> np.ndarray:
    """Logarithmic generator H with S = (I + exp(H))^{-1}.

    Only defined where :func:`is_standard_car` holds (spectrum in the open
    unit interval); satisfies conj(H) = -H. On the eigenvalues 1/2 +- r of S,
    log((1/2 - r)/(1/2 + r)) = -2 artanh(2r) is odd in r, so from the one
    factorisation (x, v), H = -2i A v diag(artanh(2 sqrt x)/sqrt x) v^T, with
    the ratio 2 at x = 0. Takes one covariance, not a stack.
    """
    cov = _as_covariance(s)
    _single(cov, "hamiltonian_of")
    if not is_standard_car(cov):
        raise CovarianceError(f"degenerate covariance: eigenvalue {_lowest_eigenvalue(cov):.6e}")
    x, v = cov.spectrum
    r = np.sqrt(np.maximum(x, 0.0))
    ratio = np.divide(np.arctanh(2.0 * r), r, out=np.full_like(r, 2.0), where=r > 0.0)
    return hermitian_part(-2j * (cov.matrix.imag @ ((v * ratio) @ v.T)))


def is_standard_car(s) -> bool:
    """Whether the covariance has trivial kernel (cyclic vector is separating).

    Stacked covariances give one flag per matrix.
    """
    return scalar(_lowest_eigenvalue(_as_covariance(s)) > ZERO_TOL)
