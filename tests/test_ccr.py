"""Unit tests for bosonic covariance forms and the CCR overlap determinant."""

import math

import numpy as np
import pytest
from scipy import integrate

from quasifree import ccr, sampling
from quasifree.errors import CovarianceError


def width_of(q):
    """Thermal width c = (1 + q)/(1 - q) of Boltzmann ratio q."""
    return (1.0 + q) / (1.0 - q)


def thermal_overlap(q1, q2):
    """Closed-form transition probability between thermal states."""
    return math.sqrt((1.0 - q1) * (1.0 - q2)) / (1.0 - math.sqrt(q1 * q2))


# -------------------------------------------------------------- validation


def test_validate_thermal_ok():
    cov = ccr.thermal_covariance(3.0)
    assert cov.dim == 2
    assert np.allclose(cov.r, 1.5 * np.eye(2))
    w = np.linalg.eigvalsh(cov.s_matrix)
    assert np.allclose(w, [1.0, 2.0], atol=1e-12)


def test_validate_rejects_too_small_width():
    # R = I/4 against the canonical form: minimal eigenvalue of R + i sigma/2
    # is exactly -1/4
    with pytest.raises(CovarianceError, match=r"-2\.500000e-01"):
        ccr.validate_ccr(ccr.canonical_sigma(1), 0.25 * np.eye(2))


def test_validate_rejects_complex_input():
    with pytest.raises(CovarianceError, match="must be real"):
        ccr.validate_ccr(ccr.canonical_sigma(1), np.eye(2) + 0.1j * np.eye(2))


def test_validate_rejects_non_finite():
    with pytest.raises(CovarianceError, match="finite"):
        ccr.validate_ccr(ccr.canonical_sigma(1), [[math.nan, 0.0], [0.0, 1.0]])
    r = np.stack([np.eye(2), np.eye(2)])
    r[1, 1, 1] = math.inf
    with pytest.raises(CovarianceError, match="finite"):
        ccr.validate_ccr(ccr.canonical_sigma(1), r)


def test_stacked_pair_api_matches_pairs_bitwise(rng):
    sigma = ccr.canonical_sigma(2)
    pairs = [sampling.random_ccr_pair(rng, sigma) for _ in range(4)]
    pairs.append((ccr.thermal_covariance(1.0, 2), ccr.thermal_covariance(2.5, 2)))
    s = ccr.validate_ccr(sigma, np.stack([p[0].r for p in pairs]))
    t = ccr.validate_ccr(sigma, np.stack([p[1].r for p in pairs]))
    tp = ccr.trans_prob_ccr(s, t)
    equiv, dist = ccr.qe_distance_ccr(s, t)
    for i, (a, b) in enumerate(pairs):
        assert tp[i] == ccr.trans_prob_ccr(a, b)
        assert (equiv[i], dist[i]) == ccr.qe_distance_ccr(a, b)
    assert list(ccr.is_standard_ccr(s)) == [ccr.is_standard_ccr(a) for a, _ in pairs]


def test_validate_shape_guards():
    with pytest.raises(CovarianceError, match="square"):
        ccr.validate_ccr(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(CovarianceError, match="mismatch"):
        ccr.validate_ccr(ccr.canonical_sigma(1), np.eye(4))


def test_validate_normalizes_exactly():
    cov = ccr.validate_ccr(ccr.canonical_sigma(2), np.eye(4) + 1e-13 * np.ones((4, 4)))
    assert np.max(np.abs(cov.sigma + cov.sigma.T)) == 0.0
    assert np.max(np.abs(cov.r - cov.r.T)) == 0.0
    with pytest.raises(ValueError):
        cov.r[0, 0] = 7.0


def test_canonical_sigma_squares_to_minus_identity():
    s = ccr.canonical_sigma(3)
    assert np.array_equal(s @ s, -np.eye(6))


def test_char_value():
    cov = ccr.thermal_covariance(2.0)
    x = np.array([1.0, 1.0])
    assert ccr.char_value(cov, x) == pytest.approx(math.exp(-1.0), abs=1e-14)
    with pytest.raises(CovarianceError, match="length"):
        ccr.char_value(cov, np.ones(3))


# ----------------------------------------------------------- symmetrized form


def test_ab_form_thermal_closed_form():
    # a(c) = (c + sqrt(c^2 - 1))/2 per decoupled mode
    for c in (1.5, 3.0, 10.0):
        a = ccr.ab_form(ccr.thermal_covariance(c))
        expect = 0.5 * (c + math.sqrt(c * c - 1.0))
        assert np.linalg.norm(a - expect * np.eye(2)) <= 1e-10 * expect


def test_ab_form_vacuum_degenerates_to_r():
    # S and conj S have disjoint supports, so the mean term vanishes
    v = ccr.thermal_covariance(1.0)
    assert np.linalg.norm(ccr.ab_form(v) - 0.5 * np.eye(2)) <= 1e-12


def test_ab_form_sandwich(rng):
    sigma = ccr.canonical_sigma(2)
    for _ in range(10):
        cov = sampling.random_ccr_covariance(rng, sigma)
        a = ccr.ab_form(cov)
        scale = np.linalg.norm(a)
        low = np.linalg.eigvalsh(a - cov.r)
        high = np.linalg.eigvalsh(2.0 * cov.r - a)
        assert low[0] >= -1e-8 * scale
        assert high[0] >= -1e-8 * scale


# ---------------------------------------------------- transition probability


def test_trans_prob_thermal_anchors():
    pairs = [(0.5, 0.0), (0.5, 1.0 / 3.0), (0.25, 2.0 / 3.0), (0.0, 0.0)]
    for q1, q2 in pairs:
        s = ccr.thermal_covariance(width_of(q1))
        t = ccr.thermal_covariance(width_of(q2))
        assert ccr.trans_prob_ccr(s, t) == pytest.approx(thermal_overlap(q1, q2), abs=1e-12)


def test_trans_prob_vacuum_against_half_filled():
    s = ccr.thermal_covariance(width_of(0.5))
    v = ccr.thermal_covariance(1.0)
    assert ccr.trans_prob_ccr(s, v) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-12)


def test_trans_prob_identity_and_symmetry(rng):
    sigma = ccr.canonical_sigma(1)
    s, t = sampling.random_ccr_pair(rng, sigma)
    assert ccr.trans_prob_ccr(s, s) == pytest.approx(1.0, abs=1e-10)
    assert ccr.trans_prob_ccr(s, t) == pytest.approx(ccr.trans_prob_ccr(t, s), abs=1e-12)


def test_trans_prob_zero_sigma_diagonal_closed_form():
    z = np.zeros((2, 2))
    s = ccr.validate_ccr(z, np.diag([0.5, 1.0]))
    t = ccr.validate_ccr(z, np.diag([2.0, 0.25]))
    # per-component Hellinger factors 2 sqrt(st)/(s+t)
    expect2 = (2.0 * math.sqrt(0.5 * 2.0) / 2.5) * (2.0 * math.sqrt(0.25) / 1.25)
    assert ccr.trans_prob_ccr(s, t) ** 2 == pytest.approx(expect2, abs=1e-12)


def test_trans_prob_zero_sigma_matches_numeric_hellinger():
    z = np.zeros((1, 1))
    sv, tv = 0.7, 2.3
    s = ccr.validate_ccr(z, [[sv]])
    t = ccr.validate_ccr(z, [[tv]])

    def dens(x, var):
        return math.exp(-0.5 * x * x / var) / math.sqrt(2.0 * math.pi * var)

    val, err = integrate.quad(
        lambda x: math.sqrt(dens(x, sv) * dens(x, tv)), -30.0, 30.0
    )
    assert err < 1e-9
    assert ccr.trans_prob_ccr(s, t) == pytest.approx(val, abs=1e-9)


def test_trans_prob_requires_same_form():
    a = ccr.thermal_covariance(2.0)
    b = ccr.validate_ccr(np.zeros((2, 2)), np.eye(2))
    with pytest.raises(CovarianceError, match="symplectic"):
        ccr.trans_prob_ccr(a, b)
    with pytest.raises(CovarianceError, match="mismatch"):
        ccr.trans_prob_ccr(a, ccr.thermal_covariance(2.0, n_modes=2))


# ------------------------------------------------------------ classification


def test_classify_identical_is_quasi_equivalent():
    s = ccr.thermal_covariance(2.0)
    v = ccr.classify_ccr(s, s)
    assert v.kind == ccr.QUASI_EQUIVALENT
    assert v.reason == ccr.POSITIVE_TRANSITION_PROBABILITY
    assert v.transition_probability == pytest.approx(1.0, abs=1e-10)
    assert v.diagnostics["metric_equivalent"]


def test_classify_thermal_pair_quasi_equivalent():
    v = ccr.classify_ccr(ccr.thermal_covariance(1.5), ccr.thermal_covariance(4.0))
    assert v.kind == ccr.QUASI_EQUIVALENT
    assert 0.0 < v.transition_probability < 1.0


def test_classify_central_element_disjoint():
    """A central direction (sigma kernel) with different widths separates states."""
    sigma = np.zeros((3, 3))
    sigma[0, 1], sigma[1, 0] = 1.0, -1.0
    s = ccr.validate_ccr(sigma, np.diag([1.0, 1.0, 0.0]))
    t = ccr.validate_ccr(sigma, np.diag([1.0, 1.0, 1.0]))
    v = ccr.classify_ccr(s, t)
    assert v.kind == ccr.DISJOINT
    assert v.reason == ccr.CENTRAL_ELEMENT_MISMATCH
    assert v.transition_probability == 0.0
    wit = v.diagnostics["central_witness"]
    assert wit["other_form_value"] > 0.5
    assert ccr.trans_prob_ccr(s, t) == 0.0


def test_classify_reports_metric_distance():
    s = ccr.thermal_covariance(3.0)
    t = ccr.thermal_covariance(2.0)
    v = ccr.classify_ccr(s, t)
    flag, dist = ccr.qe_distance_ccr(s, t)
    assert v.diagnostics["metric_equivalent"] == flag
    assert v.diagnostics["qe_hs_distance"] == pytest.approx(dist)


# ------------------------------------------------------- metric equivalence


def test_qe_distance_thermal_closed_form():
    # same eigenvectors for every width; root eigenvalues 1/2 +- 1/(2c)
    def roots(c):
        return math.sqrt(0.5 + 0.5 / c), math.sqrt(0.5 - 0.5 / c)

    for c1, c2 in ((3.0, 1.0), (3.0, 2.0), (5.0, 1.2)):
        hi1, lo1 = roots(c1)
        hi2, lo2 = roots(c2)
        expect = math.sqrt((hi1 - hi2) ** 2 + (lo1 - lo2) ** 2)
        flag, dist = ccr.qe_distance_ccr(
            ccr.thermal_covariance(c1), ccr.thermal_covariance(c2)
        )
        assert flag
        assert dist == pytest.approx(expect, abs=1e-10)


def test_qe_distance_support_mismatch():
    z = np.zeros((2, 2))
    s = ccr.validate_ccr(z, np.diag([1.0, 0.0]))
    t = ccr.validate_ccr(z, np.diag([1.0, 1.0]))
    flag, dist = ccr.qe_distance_ccr(s, t)
    assert not flag
    assert math.isinf(dist)


def test_qe_distance_condition_bound():
    z = np.zeros((2, 2))
    s = ccr.validate_ccr(z, np.diag([1.0, 5.0e6]))
    t = ccr.validate_ccr(z, np.diag([1.0, 5.0e-7]))
    flag, dist = ccr.qe_distance_ccr(s, t)
    assert not flag
    assert math.isinf(dist)


def test_condition3_same_finiteness(rng):
    # diagnostic distance is finite and zero iff the states coincide
    s = ccr.thermal_covariance(3.0)
    t = ccr.thermal_covariance(2.0)
    assert ccr.condition3_distance(s, s) == pytest.approx(0.0, abs=1e-12)
    assert ccr.condition3_distance(s, t) > 0.0


# ------------------------------------------------------------------ standard


def test_is_standard():
    assert not ccr.is_standard_ccr(ccr.thermal_covariance(1.0))  # vacuum: pure
    assert ccr.is_standard_ccr(ccr.thermal_covariance(3.0))
    # trivial metric support is vacuously standard
    trivial = ccr.validate_ccr(np.zeros((2, 2)), np.zeros((2, 2)))
    assert ccr.is_standard_ccr(trivial)


def test_random_ccr_covariance_validates(rng):
    sigma = ccr.canonical_sigma(2)
    for _ in range(5):
        cov = sampling.random_ccr_covariance(rng, sigma)
        ccr.validate_ccr(cov.sigma, cov.r)
