"""Differential fuzz of validate_car and validate_ccr against the spectrum of the input.

Inputs are single matrices of size 1-8 and small stacks of them, with entry magnitudes
from 1e-300 to 1e300, some rescaled to sit at the positivity cut, and NaN or inf placed
anywhere. The reference is the smallest eigenvalue of the complex Hermitian matrix
(S for CAR, R + i*sigma/2 for CCR) from ``numpy.linalg.eigvalsh``, recomputed with
mpmath where it lies within a hair of the band's edges. Within the band
|reference| < BAND * VALIDATION_TOL * scale either outcome is right; outside it the
validator must agree with the sign. Every accepted pair gives a log tp that is not NaN.
"""

import math

import mpmath
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quasifree import car, ccr
from quasifree.errors import CovarianceError
from quasifree.tolerances import VALIDATION_TOL

BAND = 2.0  # the validators cut at -VALIDATION_TOL * scale; the band is twice as wide
# log10 ranges of the entry magnitudes: one scale, several decades, the full double range
SPREADS = [(0.0, 0.0), (-3.0, 0.0), (-300.0, 300.0), (-300.0, -250.0), (250.0, 300.0)]
# the lowest eigenvalue a rescaled input is given, in units of VALIDATION_TOL * scale
EDGES = [None, 0.0, 1e-3, -1e-3, 1.0, -1.0, BAND, -BAND, 10.0, -10.0, 1e6, -1e6]
BAD = [None, math.nan, math.inf, -math.inf]


@st.composite
def draws(draw):
    """(rng, stack shape, spread, edge, bad entry) of one fuzz case."""
    d, n = draw(st.integers(1, 8)), draw(st.sampled_from([None, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return (rng, (() if n is None else (n,)) + (d, d), draw(st.sampled_from(SPREADS)),
            draw(st.sampled_from(EDGES)), draw(st.sampled_from(BAD)))


def random_entries(rng, shape, spread) -> np.ndarray:
    """Real entries of random sign with log10-magnitudes uniform over ``spread``."""
    return np.copysign(10.0 ** rng.uniform(*spread, shape), rng.standard_normal(shape))


def skew(rng, shape, spread) -> np.ndarray:
    a = np.triu(random_entries(rng, shape, spread), 1)
    return a - np.swapaxes(a, -1, -2)


def spoil(rng, m: np.ndarray, bad) -> np.ndarray:
    """``m`` with ``bad`` written at one random entry (its real or imaginary part)."""
    if bad is not None:
        m = m.copy()
        at = tuple(rng.integers(0, k) for k in m.shape)
        if np.iscomplexobj(m) and rng.integers(2):
            m[at] = m[at].real + 1j * bad
        else:
            m[at] = bad
    return m


def scale_of(m: np.ndarray) -> np.ndarray:
    return 1.0 + np.max(np.abs(m), axis=(-2, -1))


def lowest(m: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix, -inf for one with a non-finite entry,
    and by mpmath where double precision could put it on either side of a band edge."""
    flat = m.reshape(-1, *m.shape[-2:])
    out = np.full(flat.shape[0], -math.inf)
    for i, x in enumerate(flat):
        if not np.all(np.isfinite(x)):
            continue
        out[i] = np.linalg.eigvalsh(x)[0]
        edge = BAND * VALIDATION_TOL * scale_of(x)
        if abs(abs(out[i]) - edge) < 1e-4 * edge:
            with mpmath.workdps(40):
                w = mpmath.eigh(mpmath.matrix(x.tolist()), eigvals_only=True)
                out[i] = float(min(w))
    return out


def check_outcome(m: np.ndarray, validate):
    """The validator's covariance or None, after checking its decision against ``m``'s
    spectrum: accepted only if no matrix is clearly negative, refused only if one may be."""
    band = BAND * VALIDATION_TOL * scale_of(np.where(np.isfinite(m), m, 0.0))
    ref = lowest(m)
    try:
        cov = validate()
    except CovarianceError:
        assert np.any(~(ref >= band.ravel())), (ref, band)
        return None
    assert np.all(ref >= -band.ravel()), (ref, band)
    return cov


def log_tp_is_not_nan(log_tp, s, t):
    for a, b in ((s, t), (s, s)):
        if a is not None and b is not None:
            assert not np.any(np.isnan(log_tp(a, b)))


def car_matrix(rng, shape, spread, edge, bad) -> np.ndarray:
    """I/2 + iA, A rescaled (for an edge) so that the lowest eigenvalue 1/2 - ||A|| of S
    is ``-edge`` * VALIDATION_TOL * scale."""
    a = skew(rng, shape, spread)
    if edge is not None:
        norm = np.linalg.norm(a, 2, axis=(-2, -1))[..., None, None]
        with np.errstate(under="ignore"):
            a = a * ((0.5 + edge * VALIDATION_TOL * 1.5) / np.where(norm > 0, norm, 1.0))
    return spoil(rng, 0.5 * np.eye(shape[-1]) + 1j * a, bad)


@settings(max_examples=250, deadline=None, derandomize=True)
@given(draws())
def test_validate_car_decides_as_the_spectrum(case):
    rng, shape, spread, edge, bad = case
    s, t = (car_matrix(rng, shape, spread, edge, b) for b in (bad, None))
    covs = [check_outcome(m, lambda m=m: car.validate_car(m)) for m in (s, t)]
    log_tp_is_not_nan(car.log_trans_prob_car, *covs)


def ccr_form(rng, sigma, shape, spread, edge) -> np.ndarray:
    """A symmetric R, shifted (for an edge) by a multiple of I so that the lowest eigenvalue
    of R + i*sigma/2 is ``edge`` * VALIDATION_TOL times its scale."""
    r = random_entries(rng, shape, spread)
    r = 0.5 * (r + np.swapaxes(r, -1, -2))
    if edge is not None:
        eye = np.eye(shape[-1])
        r = r - np.linalg.eigvalsh(r + 0.5j * sigma)[..., :1, None] * eye
        r = r + edge * VALIDATION_TOL * scale_of(r + 0.5j * sigma)[..., None, None] * eye
    return r


@settings(max_examples=250, deadline=None, derandomize=True)
@given(draws())
def test_validate_ccr_decides_as_the_spectrum(case):
    rng, shape, spread, edge, bad = case
    sigma = skew(rng, shape[-2:], spread)
    r_s, r_t = (ccr_form(rng, sigma, shape, spread, edge) for _ in range(2))
    sigma, r_s = spoil(rng, sigma, bad if rng.integers(2) else None), spoil(rng, r_s, bad)
    covs = []
    for r in (r_s, r_t):
        with np.errstate(invalid="ignore"):  # inf * 0.5j has a NaN real part: refused anyway
            m = r + 0.5j * sigma
        covs.append(check_outcome(m, lambda: ccr.validate_ccr(sigma, r)))
    log_tp_is_not_nan(ccr.log_trans_prob_ccr, *covs)
