"""Quasi-free states of the CCR (Weyl) algebra over a presymplectic space.

A state is given by a real symmetric form R on V (the Gaussian width of the
characteristic function) such that S = R + i*sigma/2 is PSD on the
complexification; sigma may be degenerate, in which case the algebra has a
nontrivial center and states can become disjoint through central elements.

The transition probability between two such states is a determinant of
support-restricted operator means; classification into quasi-equivalent vs
disjoint reads off whether it vanishes.

:func:`ab_form` and R are real symmetric, so the pair path past them runs real
``eigh`` only. The form and the ``eigh`` of the metric 2R are computed once
per frozen :class:`CcrCovariance` and cached on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matcore
from .errors import CovarianceError
from .matcore import (
    eig_h, hermitian_part, hs_norm, raise_first, scalar, sqrt_psd, support_groups,
)

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
    "qe_distance_ccr",
    "thermal_covariance",
    "trans_prob_ccr",
    "validate_ccr",
]

VALIDATION_TOL = 1e-10
# A ratio eigenvalue below this is a kernel direction of one of the forms ...
KERNEL_TOL = 1e-10
# ... and the pair is disjoint if the other form exceeds this on it.
FORM_POSITIVE_TOL = 1e-8
# Mutual-domination condition bound for metric equivalence.
CONDITION_BOUND = 1e12

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

    @property
    def conj_s_matrix(self) -> np.ndarray:
        return self.r - 0.5j * self.sigma

    @cached_property
    def metric_spectrum(self):
        """``(w, v)``: real ``eigh`` of the metric form 2R = S + conj S, computed once."""
        return eig_h(2.0 * self.r)

    @cached_property
    def _ab(self) -> np.ndarray:
        gm = matcore.geometric_mean(self.s_matrix, self.conj_s_matrix)
        a = hermitian_part(self.r + gm.real)
        a.setflags(write=False)
        return a


def _as_real(m, name: str) -> np.ndarray:
    m = np.asarray(m)
    if np.iscomplexobj(m):
        if float(np.max(np.abs(m.imag), initial=0.0)) > 1e-12:
            raise CovarianceError(f"{name} must be real")
        m = m.real
    return np.asarray(m, dtype=float)


def validate_ccr(sigma, r, tol: float = VALIDATION_TOL) -> CcrCovariance:
    """Check that R + i*sigma/2 is PSD; antisymmetrize/symmetrize exactly.

    Also takes a stack of forms R, shape (..., d, d), on one sigma or a stack
    of them. The error message carries the minimal eigenvalue when positivity
    fails.
    """
    sigma = _as_real(sigma, "sigma")
    r = _as_real(r, "R")
    if sigma.ndim < 2 or sigma.shape[-1] != sigma.shape[-2]:
        raise CovarianceError(f"sigma must be square, got shape {sigma.shape}")
    if r.shape[-2:] != sigma.shape[-2:]:
        raise CovarianceError(f"shape mismatch: sigma {sigma.shape} vs R {r.shape}")
    if not (np.all(np.isfinite(sigma)) and np.all(np.isfinite(r))):
        raise CovarianceError("sigma and R must have finite entries")
    sigma, r = np.broadcast_arrays(sigma, r)
    sigma = 0.5 * (sigma - np.swapaxes(sigma, -1, -2))
    r = 0.5 * (r + np.swapaxes(r, -1, -2))
    s = r + 0.5j * sigma
    w = np.linalg.eigvalsh(s)[..., :1]
    scale = 1.0 + np.max(np.abs(s), axis=(-2, -1), initial=0.0)
    raise_first(w < -tol * scale[..., None], w, lambda v: CovarianceError(
        f"not a covariance form: minimal eigenvalue of R + i*sigma/2 is {v:.6e}"))
    sigma.setflags(write=False)
    r.setflags(write=False)
    return CcrCovariance(sigma=sigma, r=r)


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
    if float(np.max(np.abs(a.sigma - b.sigma), initial=0.0)) > 1e-12:
        raise CovarianceError("covariances live on different symplectic forms")


def char_value(cov: CcrCovariance, x) -> float:
    """Characteristic function at a real vector: exp(-R(x, x)/2)."""
    x = _as_real(x, "x")
    if x.shape != (cov.dim,):
        raise CovarianceError(f"vector length {x.shape} does not match dim {cov.dim}")
    return float(math.exp(-0.5 * float(x @ cov.r @ x)))


def ab_form(cov: CcrCovariance) -> np.ndarray:
    """The symmetrized form A with 2A = S + 2*gm(S, conj S) + conj S.

    Equals R plus the operator geometric mean of S and its conjugate; real
    symmetric PSD, and sandwiched between (S + conj S)/2 and S + conj S;
    returned as a real array (the mean of two conjugates is real) and cached
    on the covariance, read-only.
    """
    return cov._ab


@dataclass(frozen=True)
class CcrVerdict:
    kind: str
    reason: str
    transition_probability: float
    diagnostics: dict = field(default_factory=dict)


def _transition_analysis(
    cov_s: CcrCovariance, cov_t: CcrCovariance, support_tol: float = 1e-10
):
    """Shared computation behind trans_prob_ccr and classify_ccr.

    Returns (t, central, diagnostics) for the flattened stack of pairs: the
    transition probabilities, whether a central element decided each, and
    each pair's diagnostics dict.
    """
    _check_same_space(cov_s, cov_t)
    d = cov_s.dim
    a = ab_form(cov_s).reshape(-1, d, d)
    b = ab_form(cov_t).reshape(-1, d, d)
    g = hermitian_part(a + b)
    w, v = eig_h(g)
    keep = w > support_tol * np.maximum(np.trace(g, axis1=-2, axis2=-1).real, 0.0)[:, None]
    t = np.ones(a.shape[0])
    central = np.zeros(a.shape[0], dtype=bool)
    diagnostics = [{"support_dim": int(r)} for r in np.count_nonzero(keep, axis=-1)]
    pending = []  # (pairs, support bases, eigenvalues) still without a verdict
    for sel, wk, basis, _ in support_groups(w, v, keep):
        idx = np.flatnonzero(sel)
        if basis.shape[-1] == 0:
            continue  # both forms vanish entirely: the states coincide (trivial character)
        # central-element detection: a kernel direction of one form inside
        # supp(G) on which the other form is positive makes the states disjoint
        for label, this, other in (("A", a, b), ("B", b, a)):
            wt, vt = np.linalg.eigh(matcore.sandwich(basis, this[idx], wk))
            kernel = wt < KERNEL_TOL
            cand = np.flatnonzero(kernel.any(axis=-1) & ~central[idx])
            if cand.size == 0:
                continue
            h = basis[cand] @ vt[cand]
            other_val = np.sum(h.conj() * (other[idx[cand]] @ h), axis=-2).real
            hit = kernel[cand] & (other_val > FORM_POSITIVE_TOL)
            for m in np.flatnonzero(hit.any(axis=-1)).tolist():
                j, i = int(np.argmax(hit[m])), idx[cand[m]]
                diagnostics[i]["central_witness"] = {
                    "side": label,
                    "ratio_eigenvalue": float(wt[cand[m], j]),
                    "other_form_value": float(other_val[m, j]),
                }
                central[i] = True
            if central[idx].all():
                break
        t[idx[central[idx]]] = 0.0
        keep_on = ~central[idx]
        pending.append((idx[keep_on], basis[keep_on], wk[keep_on]))

    need = np.concatenate([p[0] for p in pending] + [np.zeros(0, dtype=int)])
    if need.size:
        gm = np.zeros_like(a)
        gm[need], info = matcore.geometric_mean(a[need], b[need], return_info=True)
        mismatch = dict(zip(need.tolist(), info.support_mismatch.tolist()))
        for idx, basis, wk in pending:
            core = matcore.sandwich(basis, 2.0 * gm[idx], wk)
            wc = np.clip(np.linalg.eigvalsh(core), 0.0, 1.0)
            # a vanishing determinant factor that escaped the witness check above
            zero = np.any(wc <= 1e-13, axis=-1)
            with np.errstate(divide="ignore"):
                half_log = 0.5 * np.sum(np.log(wc), axis=-1)
            # math.exp (not np.exp, which can differ in the last bit) as for one pair
            t[idx] = np.where(zero, 0.0, [min(math.exp(x), 1.0) for x in half_log.tolist()])
            central[idx] = zero
            for i, row in zip(idx.tolist(), wc.tolist()):
                diagnostics[i]["ab_support_mismatch"] = mismatch[i]
                diagnostics[i]["det_eigenvalues"] = row
    return t, central, diagnostics


def trans_prob_ccr(cov_s: CcrCovariance, cov_t: CcrCovariance):
    """Transition probability between two quasi-free CCR states.

    The square is det(2 * ratio(gm(A, B), A + B)) over the support of A + B,
    with A, B the symmetrized forms of :func:`ab_form`; it vanishes exactly
    when a central element separates the states. Stacked covariances give
    one value per pair.
    """
    t = _transition_analysis(cov_s, cov_t)[0]
    return scalar(t.reshape(cov_s.r.shape[:-2]))


def classify_ccr(cov_s: CcrCovariance, cov_t: CcrCovariance, tol: float = 1e-12) -> CcrVerdict:
    """Quasi-equivalent vs disjoint dichotomy for a pair of states.

    In finite dimension the two states are quasi-equivalent exactly when the
    transition probability is positive, otherwise disjoint.
    """
    t, central, diagnostics = _transition_analysis(cov_s, cov_t)
    t, diagnostics = float(t[0]), diagnostics[0]
    reason = CENTRAL_ELEMENT_MISMATCH if central[0] else POSITIVE_TRANSITION_PROBABILITY
    equiv, hs_dist = qe_distance_ccr(cov_s, cov_t)
    diagnostics["metric_equivalent"] = equiv
    diagnostics["qe_hs_distance"] = hs_dist
    if t > tol:
        return CcrVerdict(
            kind=QUASI_EQUIVALENT,
            reason=POSITIVE_TRANSITION_PROBABILITY,
            transition_probability=t,
            diagnostics=diagnostics,
        )
    return CcrVerdict(
        kind=DISJOINT,
        reason=reason if reason != POSITIVE_TRANSITION_PROBABILITY else SUPPORT_MISMATCH,
        transition_probability=t,
        diagnostics=diagnostics,
    )


def qe_distance_ccr(
    cov_s: CcrCovariance,
    cov_t: CcrCovariance,
    support_tol: float = 1e-10,
    cond_bound: float = CONDITION_BOUND,
):
    """Metric-equivalence flag and HS distance of covariance-ratio roots.

    Returns ``(equiv_metrics, hs_dist)``: the flag says whether S + conj S
    and T + conj T induce equivalent inner products (equal supports, mutual
    domination within ``cond_bound``); the distance is
    ||sqrt(ratio(S, S + conj S)) - sqrt(ratio(T, T + conj T))||. When the flag
    is False the distance slot is +inf (the criterion fails outright).
    Stacked covariances give one flag and one distance per pair.
    """
    _check_same_space(cov_s, cov_t)
    d, lead = cov_s.dim, cov_s.r.shape[:-2]
    gs = 2.0 * cov_s.r.reshape(-1, d, d)
    gt = 2.0 * cov_t.r.reshape(-1, d, d)
    (ws, vs), (wt, vt) = ((w.reshape(-1, d), v.reshape(-1, d, d))
                          for w, v in (cov_s.metric_spectrum, cov_t.metric_spectrum))

    ps, pt = (matcore.support_projection(g, support_tol, eig=(w, v))
              for g, w, v in ((gs, ws, vs), (gt, wt, vt)))
    equiv = ~(hs_norm(ps - pt) > 1e-6)
    sel = np.flatnonzero(equiv)
    if sel.size:
        rank = np.rint(np.trace(ps[sel], axis1=-2, axis2=-1).real).astype(int)
        ratio_st, unsupported, _ = matcore.ratio_violations(
            gs[sel], gt[sel], eig=(wt[sel], vt[sel]))
        wr = np.linalg.eigvalsh(ratio_st)
        lo = np.take_along_axis(wr, np.clip(d - rank, 0, d - 1)[:, None], -1)[:, 0]
        with np.errstate(divide="ignore", invalid="ignore"):
            dominated = ~(wr[:, -1] / lo > cond_bound)
        ok = (np.count_nonzero(wr > 1e-15, axis=-1) == rank) & dominated
        equiv[sel] = (rank == 0) | ok & ~unsupported
        sel = np.flatnonzero(equiv)

    dist = np.full(equiv.shape, math.inf)
    if sel.size:
        xs, xt = (sqrt_psd(matcore.ratio(c.s_matrix.reshape(-1, d, d)[sel], g[sel],
                                         eig=(w[sel], v[sel])))
                  for c, g, w, v in ((cov_s, gs, ws, vs), (cov_t, gt, wt, vt)))
        dist[sel] = hs_norm(xs - xt)
    return scalar(equiv.reshape(lead)), scalar(dist.reshape(lead))


def is_standard_ccr(cov: CcrCovariance, tol: float = 1e-10) -> bool:
    """Whether ratio(S, S + conj S) has trivial kernel on the metric support.

    Fails for states with a pure factor (e.g. the vacuum), holds for fully
    thermal states; on a trivial metric support it holds vacuously.
    """
    w, v = cov.metric_spectrum
    standard = np.ones(w.shape[:-1], dtype=bool)
    for sel, wk, basis, _ in support_groups(w, v, matcore.abs_support(w, 1e-10)):
        if basis.shape[-1]:
            core = matcore.sandwich(basis, cov.s_matrix[sel], wk)
            standard[sel] = np.linalg.eigvalsh(core)[:, 0] > tol
    return scalar(standard)
