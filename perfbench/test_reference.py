"""Hand-checked points for the benchmark's reference closed forms.

Run with:  python3 -m pytest perfbench/test_reference.py
"""

import math

import numpy as np
import pytest

import reference as ref


def test_mu_pair_readme_value():
    # README: trans_prob_car(mu_covariance(0.3), mu_covariance(0.1)) = (2 sqrt 3 + sqrt 2)/5
    assert ref.mu_pair_tp(0.3, 0.1) == pytest.approx((2 * math.sqrt(3) + math.sqrt(2)) / 5, abs=1e-15)
    # a = 0.8, b = 0.6: qe^2 = (sqrt .8 - sqrt .6)^2 + (sqrt .2 - sqrt .4)^2
    want = (math.sqrt(0.8) - math.sqrt(0.6)) ** 2 + (math.sqrt(0.2) - math.sqrt(0.4)) ** 2
    assert ref.mu_pair_qe2(0.3, 0.1) == pytest.approx(want, rel=1e-14)


def test_mu_pair_orthogonal_pure_states():
    assert ref.mu_pair_qe2(0.5, -0.5) == 2.0
    assert ref.mu_pair_tp(0.5, -0.5) == 0.0
    assert ref.mu_pair_neg_log_tp(0.5, -0.5) == math.inf
    assert ref.mu_pair_qe2(0.2, 0.2) == 0.0


def test_thermal_readme_value():
    # README: trans_prob_ccr(thermal_covariance(3.0), thermal_covariance(1.0)) = 1/sqrt 2
    assert ref.thermal_q(3.0) == 0.5 and ref.thermal_q(1.0) == 0.0
    assert ref.thermal_width(0.5) == 3.0
    assert ref.thermal_tp_q(0.5, 0.0) == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    assert ref.thermal_neg_log_tp(3.0, 1.0) == pytest.approx(0.5 * math.log(2), abs=1e-15)
    assert ref.thermal_tp_q(0.3, 0.3) == pytest.approx(1.0, abs=1e-15)


def test_thermal_qe2():
    # widths 3 vs 1: ratio eigenvalues (2/3, 1/3) vs (1, 0)
    want = (math.sqrt(2 / 3) - 1) ** 2 + 1 / 3
    assert ref.thermal_qe2(3.0, 1.0) == pytest.approx(want, rel=1e-14)
    assert ref.thermal_qe2(2.0, 2.0) == 0.0


def test_block_car_pair_is_a_commuting_covariance_pair():
    rng = np.random.default_rng(5)
    mus, nus = [0.1, -0.3, 0.45], [0.2, -0.25, 0.0]
    s, t, tp, qe2 = ref.block_car_pair(rng, mus, nus)
    for m, offs in ((s, mus), (t, nus)):
        assert np.allclose(m, m.conj().T, atol=1e-15)
        assert np.allclose(m + m.conj(), np.eye(6), atol=1e-15)
        want = sorted([0.5 + x for x in offs] + [0.5 - x for x in offs])
        assert np.allclose(np.linalg.eigvalsh(m), want, atol=1e-14)
    assert np.allclose(s @ t, t @ s, atol=1e-14)
    assert tp == pytest.approx(math.prod(ref.mu_pair_tp(a, b) for a, b in zip(mus, nus)), rel=1e-15)
    assert qe2 == pytest.approx(sum(ref.mu_pair_qe2(a, b) for a, b in zip(mus, nus)), rel=1e-15)


def test_thermal_product_pair_rotation_is_passive():
    rng = np.random.default_rng(6)
    sigma, r_s, _, tp = ref.thermal_product_pair(rng, np.array([1.0, 3.0]), np.array([1.0, 1.0]))
    # R_S is O diag(1, 3, 1, 3)/2 O^T with O orthogonal and symplectic
    assert np.allclose(np.linalg.eigvalsh(r_s), [0.5, 0.5, 1.5, 1.5], atol=1e-14)
    assert np.allclose(sigma, ref.canonical_sigma(2))
    o = ref.random_passive(rng, 3)
    assert np.allclose(o @ o.T, np.eye(6), atol=1e-14)
    assert np.allclose(o @ ref.canonical_sigma(3) @ o.T, ref.canonical_sigma(3), atol=1e-14)
    # vacuum against vacuum (tp 1) times width 3 against vacuum (tp 1/sqrt 2)
    assert tp == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_two_mode_squeezed_covariance():
    # no squeezing: two thermal modes, <q^2> = coth(omega/2)/2
    r = ref.two_mode_squeezed_r(2.0, 0.0)
    assert np.allclose(r, np.eye(4) / (2 * math.tanh(1.0)), atol=1e-15)
    # squeezed: symplectic eigenvalues stay (2 nbar + 1)/2 with nbar at eps = sqrt(w^2 - x^2)
    omega, x = 2.0, 0.8
    r = ref.two_mode_squeezed_r(omega, x)
    nbar = 1 / math.expm1(math.sqrt(omega**2 - x**2))
    sym = np.sort(np.abs(np.linalg.eigvals(1j * ref.canonical_sigma(2) @ r)))
    assert np.allclose(sym, (2 * nbar + 1) / 2, atol=1e-14)
    assert r[0, 1] < 0 and r[2, 3] > 0  # x > 0 anticorrelates q_a and q_b


def test_sequence_terms_first_modes():
    # car_power, k = 1: mu = 1/2 (eigenvalues 1, 0) against nu = 0 (1/2, 1/2)
    qe, nlt = ref.sequence_terms(("car_power", 2.0), 1)
    assert qe[0] == pytest.approx(2 - math.sqrt(2), rel=1e-15)
    assert nlt[0] == pytest.approx(0.5 * math.log(2), rel=1e-15)
    # ccr_thermal_power, k = 1: width 2 against 1
    qe, nlt = ref.sequence_terms(("ccr_thermal_power", 1.0), 1)
    assert qe[0] == pytest.approx((math.sqrt(0.75) - 1) ** 2 + 0.25, rel=1e-14)
    assert nlt[0] == pytest.approx(0.5 * math.log(1.5), rel=1e-15)
    qe, nlt = ref.sequence_terms(("counterexample",), 3)
    assert qe == [2.0, 0.0, 0.0] and nlt[0] == math.inf and nlt[1:] == [0.0, 0.0]
    qe, nlt = ref.sequence_terms(("blocks", [([0.3], [0.1])]), 2)
    assert qe[1] == 0.0 and nlt[0] == pytest.approx(-math.log(ref.mu_pair_tp(0.3, 0.1)))


def test_partial_sums():
    assert ref.partial_sums([0.1] * 10, (1, 10)) == [0.1, 1.0]
    assert ref.partial_sums([1.0, math.inf, 1.0], (1, 2, 3)) == [1.0, math.inf, math.inf]
