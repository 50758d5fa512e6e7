"""Quasi-free states of the CCR (Weyl) algebra over a presymplectic space.

A state is given by a real symmetric form R on V (the Gaussian width of the
characteristic function) such that S = R + i*sigma/2 is PSD on the
complexification; sigma may be degenerate, in which case the algebra has a
nontrivial center and states can become disjoint through central elements.

The transition probability between two such states is a determinant of
support-restricted operator means. The states are disjoint exactly when a
central element separates them, which (as R <= ab_form <= 2R) is when
supp R_S != supp R_T: the support rule of :func:`qe_distance_ccr`.

Each covariance is factorised once, by real ``eigh`` calls kept on the frozen
:class:`CcrCovariance`: on supp R, ratio(S, 2R) = I/2 + i*a with a real
antisymmetric, and gm(S, conj S) (:func:`ab_form`), the ratio's square root
(:func:`qe_distance_ccr`) and its kernel (:func:`is_standard_ccr`) are real
functions of a^T a. :func:`validate_ccr` reads positivity from the same
factorisation and runs a complex kernel only on a matrix it cannot certify.
S keeps its last transition analysis against T, so trans_prob_ccr,
log_trans_prob_ccr and classify_ccr on the same pair of objects run it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcore
from .errors import CovarianceError
from .matcore import (
    adjoint, eigh, eigvalsh, hermitian_part, hs_norm, raise_first_above, scalar, support_groups,
)
from .tolerances import (
    CERTIFY_MARGIN, CONDITION_BOUND, EXACT_TOL, FORM_BOUND, KERNEL_LEAK_TOL, SUPPORT_GAP,
    VALIDATION_TOL, ZERO_TOL)

__all__ = [
    "CENTRAL_ELEMENT_MISMATCH",
    "CcrCovariance",
    "CcrVerdict",
    "DISJOINT",
    "POSITIVE_TRANSITION_PROBABILITY",
    "QUASI_EQUIVALENT",
    "SUPPORT_MISMATCH",
    "ab_form",
    "canonical_sigma",
    "char_value",
    "classify_ccr",
    "is_standard_ccr",
    "log_trans_prob_ccr",
    "qe_distance_ccr",
    "thermal_covariance",
    "trans_prob_ccr",
    "validate_ccr",
]

QUASI_EQUIVALENT = "QuasiEquivalent"
DISJOINT = "Disjoint"
POSITIVE_TRANSITION_PROBABILITY = "PositiveTransitionProbability"
CENTRAL_ELEMENT_MISMATCH = "CentralElementMismatch"
SUPPORT_MISMATCH = "SupportMismatch"


@dataclass(frozen=True)
class CcrCovariance:
    """Validated pair (sigma, R): sigma real antisymmetric, R real symmetric,
    with R + i*sigma/2 PSD.  Either one d x d pair or a stack of them, shape
    (..., d, d)."""

    sigma: np.ndarray
    r: np.ndarray

    @property
    def dim(self) -> int:
        return self.r.shape[-1]

    @property
    def s_matrix(self) -> np.ndarray:
        """The sesquilinear covariance form S = R + i*sigma/2."""
        return self.r + 0.5j * self.sigma

    @cached_property
    def metric_spectrum(self):
        """``(w, v)``: real ``eigh`` of the metric form 2R = S + conj S, computed once."""
        return eigh(2.0 * self.r)

    @cached_property
    def support(self):
        """``(keep, inv)``: the support mask of 2R over the columns of v, and
        inv = w^(-1/2) on it, zero off it."""
        w = self.metric_spectrum[0]
        keep = w > ZERO_TOL * np.max(np.abs(w), axis=-1, keepdims=True, initial=0.0)
        return keep, np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)

    @cached_property
    def projection(self) -> np.ndarray:
        """P = p p^T, the orthogonal projection onto supp R (:attr:`support`)."""
        p = self.metric_spectrum[1] * self.support[0][..., None, :]
        return p @ adjoint(p)

    @cached_property
    def spectrum(self):
        """``(a, x, u, p)``: a = inv v^T sigma v inv / 2 in the eigenbasis (w, v)
        of 2R (:attr:`support`), so zero off supp R; the real ``eigh`` (x, u) of
        a^T a; and p, the columns of v on supp R (zero elsewhere). So
        ratio(S, 2R) = p (I/2 + i*a) p^T, with eigenvalues 1/2 +- sqrt(x) on supp R.
        """
        v = self.metric_spectrum[1]
        keep, inv = self.support
        a = 0.5 * inv[..., :, None] * (adjoint(v) @ self.sigma @ v) * inv[..., None, :]
        x, u = eigh(adjoint(a) @ a)
        return a, x, u, v * keep[..., None, :]

    @cached_property
    def roots(self):
        """Real ``(G, Y)`` with sqrt(ratio(S, 2R)) = G + iY, both zero off supp R.

        :func:`quasifree.matcore.root_parts` of a in the basis p. No eigenvalue
        is snapped (unlike :attr:`quasifree.car.CarCovariance.roots`): near the
        vacuum 1/2 - r is the distance from it.
        """
        a, x, u, p = self.spectrum
        g, y = matcore.root_parts(a, x, u, 0.0)
        pt = adjoint(p)
        return p @ g @ pt, p @ y @ pt

    @cached_property
    def _ab(self) -> np.ndarray:
        # gm(S, conj S) = (2R)^(1/2) sqrt(I/4 - a^T a) (2R)^(1/2) on supp R
        _, x, u, p = self.spectrum
        root = p * np.sqrt(np.maximum(self.metric_spectrum[0], 0.0))[..., None, :]
        mean = (u * np.sqrt(np.maximum(0.25 - x, 0.0))[..., None, :]) @ adjoint(u)
        a = hermitian_part(self.r + root @ mean @ adjoint(root))
        a.setflags(write=False)
        return a


def _as_real(m, name: str) -> np.ndarray:
    m = np.asarray(m)
    if np.iscomplexobj(m):
        if not float(np.max(np.abs(m.imag), initial=0.0)) <= EXACT_TOL:  # NaN is not real
            raise CovarianceError(f"{name} must be real")
        m = m.real
    return np.asarray(m, dtype=float)


def validate_ccr(sigma, r) -> CcrCovariance:
    """Check that R + i*sigma/2 is PSD; antisymmetrize/symmetrize exactly.

    sigma must be antisymmetric and R symmetric within VALIDATION_TOL times the
    entry scale (as :func:`quasifree.car.validate_car` checks Hermiticity);
    deviations within it are removed exactly. Also takes a stack of forms R,
    shape (..., d, d), on one sigma or a stack of them. Positivity is read
    from the real factorisation the returned covariance keeps: with full
    support S = (2R)^(1/2) (I/2 + i*a) (2R)^(1/2), so mu = 1/2 - sqrt(max x)
    above CERTIFY_MARGIN * ZERO_TOL * cond(2R) certifies S >= 0 (README "Design
    notes"). Every other matrix is decided by the smallest eigenvalue of the
    complex R + i*sigma/2, which the error message carries when positivity fails.
    Entries above FORM_BOUND / d are refused: the analysis's forms would overflow.
    """
    sigma = _as_real(sigma, "sigma")
    r = _as_real(r, "R")
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2]:
        raise CovarianceError(f"sigma must be square, got shape {sigma.shape}")
    if r.shape[-2:] != sigma.shape[-2:]:
        raise CovarianceError(f"shape mismatch: sigma {sigma.shape} vs R {r.shape}")
    top = np.maximum(np.max(np.abs(sigma), initial=0.0), np.max(np.abs(r), initial=0.0))
    if not np.isfinite(top):
        raise CovarianceError("sigma and R must have finite entries")
    if top > FORM_BOUND / max(r.shape[-1], 1):  # past it the analysis's forms overflow
        raise CovarianceError(f"an entry of sigma or R exceeds FORM_BOUND / d: {top:.3e}")
    sigma_in, r_in = np.broadcast_arrays(sigma, r)

    def scale():  # of the forms as given
        return 1.0 + np.max(np.abs(r_in + 0.5j * sigma_in), axis=(-2, -1), initial=0.0)

    for m, sign, what in ((sigma_in, 1.0, "sigma is not antisymmetric"),
                          (r_in, -1.0, "R is not symmetric")):
        raise_first_above(np.abs(m + sign * np.swapaxes(m, -1, -2)), VALIDATION_TOL, scale,
                          lambda v, what=what: CovarianceError(f"{what}: max deviation {v:.3e}"))
    sigma = 0.5 * (sigma_in - np.swapaxes(sigma_in, -1, -2))
    r = 0.5 * (r_in + np.swapaxes(r_in, -1, -2))
    sigma.setflags(write=False)
    r.setflags(write=False)
    cov = CcrCovariance(sigma=sigma, r=r)
    # certified PSD: 2R keeps its full support and mu = 1/2 - sqrt(max x) clears
    # CERTIFY_MARGIN * ZERO_TOL * cond(2R); only the rest take the complex spectrum
    w, full = cov.metric_spectrum[0], np.all(cov.support[0], axis=-1)
    mu = 0.5 - np.sqrt(np.max(cov.spectrum[1], axis=-1, initial=0.0))
    certified = full & (mu * np.min(w, axis=-1, initial=np.inf)
                        > CERTIFY_MARGIN * ZERO_TOL * np.max(w, axis=-1, initial=0.0))
    if not np.all(certified):
        rest = ~certified
        raise_first_above(-eigvalsh(r[rest] + 0.5j * sigma[rest])[..., :1], VALIDATION_TOL,
                          lambda: scale()[rest],
                          lambda v: CovarianceError("not a covariance form: minimal eigenvalue "
                                                    f"of R + i*sigma/2 is {-v:.6e}"), axis=-1)
    return cov


def canonical_sigma(n_modes: int) -> np.ndarray:
    """Standard symplectic form on n modes in (q..., p...) order."""
    eye = np.eye(n_modes)
    zero = np.zeros((n_modes, n_modes))
    return np.block([[zero, eye], [-eye, zero]])


def thermal_covariance(c, n_modes: int = 1) -> CcrCovariance:
    """Product thermal covariance R = (c/2) I on the canonical form, c >= 1.

    An array of widths gives the stack of their covariances.
    """
    r = (0.5 * np.asarray(c))[..., None, None] * np.eye(2 * n_modes)
    return validate_ccr(canonical_sigma(n_modes), r)


def _check_same_space(a: CcrCovariance, b: CcrCovariance) -> None:
    if a.r.shape != b.r.shape:
        raise CovarianceError(f"dimension mismatch: {a.r.shape} vs {b.r.shape}")
    if float(np.max(np.abs(a.sigma - b.sigma), initial=0.0)) > EXACT_TOL:
        raise CovarianceError("covariances live on different symplectic forms")


def char_value(cov: CcrCovariance, x) -> float:
    """Characteristic function at a real vector: exp(-R(x, x)/2); one covariance, not a stack."""
    if cov.r.ndim != 2:
        raise CovarianceError(f"char_value takes one covariance, got shape {cov.r.shape}")
    x = _as_real(x, "x")
    if x.shape != (cov.dim,):
        raise CovarianceError(f"vector length {x.shape} does not match dim {cov.dim}")
    if not np.all(np.isfinite(x)):
        raise CovarianceError("x must have finite entries")
    return float(math.exp(-0.5 * float(x @ cov.r @ x)))


def ab_form(cov: CcrCovariance) -> np.ndarray:
    """The symmetrized form A with 2A = S + 2*gm(S, conj S) + conj S.

    Equals R plus the operator geometric mean of S and its conjugate, which
    has the closed form (2R)^(1/2) sqrt(I/4 - a^T a) (2R)^(1/2) on supp R
    (:attr:`CcrCovariance.spectrum`): real symmetric PSD, sandwiched between
    (S + conj S)/2 and S + conj S, and exactly R at the vacuum. Read from the
    covariance's one real factorisation and cached on it, read-only.
    """
    return cov._ab


@dataclass(frozen=True)
class CcrVerdict:
    kind: str
    reason: str
    transition_probability: float
    diagnostics: dict = field(default_factory=dict)


def _supports_differ(cov_s: CcrCovariance, cov_t: CcrCovariance) -> np.ndarray:
    """supp R_S != supp R_T, one flag per pair of the flattened stack: the
    projections (:attr:`CcrCovariance.projection`) differ by more than SUPPORT_GAP."""
    shape = (math.prod(cov_s.r.shape[:-2]), cov_s.dim, cov_s.dim)
    return hs_norm((cov_s.projection - cov_t.projection).reshape(shape)) > SUPPORT_GAP


def _transition_analysis(cov_s: CcrCovariance, cov_t: CcrCovariance):
    """Shared computation behind log_trans_prob_ccr, trans_prob_ccr and classify_ccr.

    Returns (log_t, rank, mismatch, factors) for the flattened stack of pairs:
    the log transition probabilities (at most 0), the rank of supp(A + B),
    whether a central element separates the states (:func:`_supports_differ`;
    log -inf there), and per support group of the other pairs their indices
    and determinant factors, the eigenvalues of 2 gm(A, B) whitened by A + B
    (a factor exactly 0 also gives log -inf). Kept on S against T's arrays
    (by identity), one pair at a time; the arrays are read-only.
    """
    memo = cov_s.__dict__.get("_transition", (None, None, None))
    if memo[0] is cov_t.sigma and memo[1] is cov_t.r:
        return memo[2]
    _check_same_space(cov_s, cov_t)
    n, d = math.prod(cov_s.r.shape[:-2]), cov_s.dim  # (n, 0, 0) has no -1 reshape
    a = ab_form(cov_s).reshape(n, d, d)
    b = ab_form(cov_t).reshape(n, d, d)
    mismatch = _supports_differ(cov_s, cov_t)
    g = a + b  # exactly symmetric, as ab_form is
    w, v = eigh(g)
    keep = w > ZERO_TOL * np.maximum(np.trace(g, axis1=-2, axis2=-1), 0.0)[:, None]
    log_t = np.where(mismatch, -np.inf, 0.0)
    factors = []
    for sel, wk, basis in support_groups(w, v, keep):
        live = ~mismatch[sel]
        idx = np.flatnonzero(sel)[live]
        if basis.shape[-1] == 0 or idx.size == 0:
            continue  # both forms vanish entirely: the states coincide (trivial character)
        basis, wk = basis[live], wk[live]
        core = matcore.sandwich(basis, 2.0 * matcore.geometric_mean(a[idx], b[idx]), wk)
        wc = np.clip(eigvalsh(core), 0.0, 1.0)
        with np.errstate(divide="ignore"):
            log_t[idx] = np.minimum(0.5 * np.sum(np.log(wc), axis=-1), 0.0)
        factors.append((idx, wc))
    if np.isnan(log_t).any():  # refused, not reported: no answer is right
        raise CovarianceError("transition analysis overflowed: log tp is NaN")
    result = (log_t, np.count_nonzero(keep, axis=-1), mismatch, factors)
    for x in result[:3]:
        x.setflags(write=False)
    cov_s.__dict__["_transition"] = (cov_t.sigma, cov_t.r, result)
    return result


def _central_witness(cov_s: CcrCovariance, cov_t: CcrCovariance) -> dict:
    """The eigenvector h of P_T - P_S with the eigenvalue largest in magnitude, side "A"
    when it is positive (h in supp R_T, off supp R_S), and the other form on h."""
    w, v = eigh(cov_t.projection - cov_s.projection)
    j = -1 if w[-1] >= -w[0] else 0
    h, other = v[:, j], cov_t if j == -1 else cov_s
    h = h * np.copysign(1.0, h[np.argmax(np.abs(h))])  # its largest entry positive
    return {"side": "A" if j == -1 else "B", "projection_eigenvalue": float(w[j]),
            "other_form_value": float(h @ ab_form(other) @ h), "vector": h.tolist()}


def log_trans_prob_ccr(cov_s: CcrCovariance, cov_t: CcrCovariance):
    """Natural log of :func:`trans_prob_ccr`, which does not underflow.

    (1/2) sum log of the determinant factors, at most 0; exactly -inf when a
    central element or a vanishing determinant factor zeroes the probability,
    which is when :func:`classify_ccr` says Disjoint. Quasi-equivalent states
    on many modes stay finite here where the probability underflows to 0.0.
    Stacked covariances give one value per pair.
    """
    return scalar(_transition_analysis(cov_s, cov_t)[0].reshape(cov_s.r.shape[:-2]).copy())


def trans_prob_ccr(cov_s: CcrCovariance, cov_t: CcrCovariance):
    """Transition probability between two quasi-free CCR states.

    The square is det(2 * ratio(gm(A, B), A + B)) over the support of A + B,
    with A, B the symmetrized forms of :func:`ab_form`; it vanishes exactly
    when a central element separates the states. The math.exp of
    :func:`log_trans_prob_ccr`, so it can underflow to 0.0 where the log is
    finite. Stacked covariances give one value per pair.
    """
    log_t = _transition_analysis(cov_s, cov_t)[0]
    # math.exp (not np.exp, which can differ in the last bit) as for one pair
    t = np.array([math.exp(x) for x in log_t.tolist()])
    return scalar(t.reshape(cov_s.r.shape[:-2]))


def classify_ccr(cov_s: CcrCovariance, cov_t: CcrCovariance) -> CcrVerdict:
    """Quasi-equivalent vs disjoint dichotomy for a pair of states.

    In finite dimension the two states are quasi-equivalent exactly when the
    transition probability is positive, otherwise disjoint. The verdict reads
    whether a central element or a vanishing determinant factor zeroes it, not
    its value, which can be far below any cut (or underflow to 0.0) for
    quasi-equivalent states on many modes. Takes one pair, not a stack.
    """
    if cov_s.r.ndim != 2 or cov_t.r.ndim != 2:
        raise CovarianceError(
            f"classify_ccr takes one pair, got shapes {cov_s.r.shape} and {cov_t.r.shape}")
    log_t, rank, mismatch, factors = _transition_analysis(cov_s, cov_t)
    diagnostics = {"support_dim": int(rank[0]), "ab_support_mismatch": bool(mismatch[0])}
    if mismatch[0]:
        diagnostics["central_witness"] = _central_witness(cov_s, cov_t)
    for _, wc in factors:
        diagnostics["det_eigenvalues"] = wc[0].tolist()
    diagnostics["metric_equivalent"], diagnostics["qe_hs_distance"] = qe_distance_ccr(cov_s, cov_t)
    kind, reason = ((DISJOINT, CENTRAL_ELEMENT_MISMATCH) if log_t[0] == -math.inf
                    else (QUASI_EQUIVALENT, POSITIVE_TRANSITION_PROBABILITY))
    return CcrVerdict(kind=kind, reason=reason, transition_probability=math.exp(log_t[0]),
                      diagnostics=diagnostics)


def qe_distance_ccr(cov_s: CcrCovariance, cov_t: CcrCovariance):
    """Metric-equivalence flag and HS distance of covariance-ratio roots.

    Returns ``(equiv_metrics, hs_dist)``: the flag says whether S + conj S
    and T + conj T induce equivalent inner products (equal supports, 2R_S
    vanishing off supp R_T, mutual domination within CONDITION_BOUND); the
    distance is ||sqrt(ratio(S, S + conj S)) - sqrt(ratio(T, T + conj T))||.
    When the flag is False the distance slot is +inf (the criterion fails
    outright). Both read each covariance's own factorisation: the supports
    compare by the rule that decides disjointness (:func:`_supports_differ`),
    domination is the spectrum of 2R_S whitened by 2R_T in T's eigenbasis, and the roots
    are the real parts G + iY of :attr:`CcrCovariance.roots`, so the distance
    is sqrt(||G_S - G_T||^2 + ||Y_S - Y_T||^2). Stacked covariances give one
    flag and one distance per pair.
    """
    _check_same_space(cov_s, cov_t)
    d, lead = cov_s.dim, cov_s.r.shape[:-2]
    n = math.prod(lead)
    keep_t, inv_t = (x.reshape(n, d) for x in cov_t.support)
    v_t = cov_t.metric_spectrum[1].reshape(n, d, d)
    equiv = ~_supports_differ(cov_s, cov_t)
    sel = np.flatnonzero(equiv)
    if sel.size and d:  # on d = 0 both supports are empty: equivalent
        g = 2.0 * cov_s.r.reshape(n, d, d)[sel]
        v, keep, inv = v_t[sel], keep_t[sel], inv_t[sel]
        rank = np.count_nonzero(keep, axis=-1)
        gv = g @ v
        # 2R_S must vanish on the kernel of 2R_T. Both sides times 2^-e <= 1, 2^e above g's top
        # eigenvalue, so no square in a norm overflows; exact, so the comparisons are unscaled
        top = cov_s.metric_spectrum[0].reshape(n, d)[sel, -1]
        s = np.ldexp(1.0, -np.maximum(np.frexp(top)[1], 0))[:, None]
        bound = KERNEL_LEAK_TOL * (s + np.linalg.norm(g * s[:, :, None], axis=(-2, -1))[:, None])
        leak = np.any(~keep & (np.linalg.norm(gv * s[:, :, None], axis=-2) > bound), axis=-1)
        wr = eigvalsh(inv[:, :, None] * (adjoint(v) @ gv) * inv[:, None, :])
        lo = np.take_along_axis(wr, np.clip(d - rank, 0, d - 1)[:, None], -1)[:, 0]
        # scale-free: positive on supp R_T and within CONDITION_BOUND of its top
        with np.errstate(divide="ignore", invalid="ignore"):
            ok = (lo > 0) & ~(wr[:, -1] / lo > CONDITION_BOUND)
        equiv[sel] = (rank == 0) | ok & ~leak
        sel = np.flatnonzero(equiv)

    dist = np.full(equiv.shape, math.inf)
    if sel.size:
        (g_s, y_s), (g_t, y_t) = ((m.reshape(n, d, d)[sel] for m in c.roots)
                                  for c in (cov_s, cov_t))
        dist[sel] = hs_norm(np.concatenate([g_s - g_t, y_s - y_t], axis=-1))
    return scalar(equiv.reshape(lead)), scalar(dist.reshape(lead))


def is_standard_ccr(cov: CcrCovariance) -> bool:
    """Whether ratio(S, S + conj S) has trivial kernel on the metric support.

    Its smallest eigenvalue there is 1/2 - sqrt(max x), read from the
    covariance's real factorisation. Fails for states with a pure factor
    (e.g. the vacuum), holds for fully thermal states; on a trivial metric
    support it holds vacuously.
    """
    x = cov.spectrum[1]
    return scalar(0.5 - np.sqrt(np.max(x, axis=-1, initial=0.0)) > ZERO_TOL)
