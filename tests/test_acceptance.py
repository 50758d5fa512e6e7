"""Acceptance sweep: one test per numbered criterion, each at its stated tolerance.

The terminal-summary hook in conftest.py prints a PASS/FAIL line per test here,
so this file doubles as the package's one-screen verdict.  Criteria:

 1. CAR transition-probability formula vs Jordan-Wigner density oracle
 2. quadrature doubling squares the transition probability
 3. meet rank of the doubled projections flags exactly the vanishing overlaps
 4. CCR formula vs truncated-Fock overlap (thermal grid + one squeezed pair)
 5. commutative (sigma = 0) reduction to the Hellinger affinity
 6. overlap/fidelity inequality chain on every oracle density pair
 7. built-in sequence families land on their known verdicts
 8. primitive contracts: Pfaffian vs det, geometric-mean congruence, CCR sandwich
"""

import itertools
import math
import time

import numpy as np
import pytest
from doubled_space import validate_doubled_covariance
from scipy import integrate

from quasifree import seqmodel
from quasifree.car import (
    meet_criterion,
    quadrature,
    quadrature_identity_check,
    trans_prob_car,
)
from quasifree.car_oracle import (
    density_from_covariance,
    fidelity_tr,
    overlap,
)
from quasifree.ccr import (
    DISJOINT,
    POSITIVE_TRANSITION_PROBABILITY,
    QUASI_EQUIVALENT,
    ab_form,
    thermal_covariance,
    trans_prob_ccr,
    validate_ccr,
)
from quasifree.ccr_oracle import (
    covariance_of_density,
    gaussian_density,
    overlap_ccr,
    quadratic_hamiltonian,
    thermal_hamiltonian,
)
from quasifree.matcore import geometric_mean, hs_norm, pfaffian
from quasifree.sampling import (
    random_car_pair,
    random_orthogonal,
    random_psd,
    random_skew,
    singular_overlap_car_pair,
)
from quasifree.seqmodel import (
    HS_CONVERGENT,
    HS_DIVERGENCE,
    car_counterexample,
    car_power_family,
    ccr_thermal_power_family,
    classify_sequence,
)

SEED = 20240817

THERMAL_QS = (0.0, 0.25, 1.0 / 3.0, 0.5, 2.0 / 3.0)


def thermal_closed_form(q1: float, q2: float) -> float:
    return math.sqrt((1.0 - q1) * (1.0 - q2)) / (1.0 - math.sqrt(q1 * q2))


def width_of(q: float) -> float:
    return (1.0 + q) / (1.0 - q)


@pytest.fixture(scope="module")
def car_oracle_sweep():
    """200 random pairs on 1-4 modes: formula value, oracle value, densities."""
    rng = np.random.default_rng(SEED)
    start = time.monotonic()
    records = []
    for i in range(200):
        n_modes = 1 + i % 4
        s, t = random_car_pair(rng, 2 * n_modes)
        rho = density_from_covariance(s)
        tau = density_from_covariance(t)
        records.append((trans_prob_car(s, t), overlap(rho, tau), rho, tau))
    elapsed = time.monotonic() - start
    return records, elapsed


@pytest.fixture(scope="module")
def ccr_oracle_sweep():
    """Thermal grid pairs plus one squeezed-vs-thermal pair, with densities."""
    states = {q: gaussian_density(thermal_hamiltonian(q), 40) for q in THERMAL_QS}
    records = []
    for q1, q2 in itertools.combinations_with_replacement(THERMAL_QS, 2):
        t_formula = trans_prob_ccr(
            thermal_covariance(width_of(q1)), thermal_covariance(width_of(q2))
        )
        t_oracle = overlap_ccr(states[q1], states[q2])
        records.append(
            {
                "label": f"thermal q={q1:.3f} vs q={q2:.3f}",
                "qs": (q1, q2),
                "formula": t_formula,
                "oracle": t_oracle,
                "rho": states[q1].rho,
                "tau": states[q2].rho,
            }
        )
    squeezed = gaussian_density(quadratic_hamiltonian([[1.0]], [[0.3]]), 40)
    thermal = states[1.0 / 3.0]
    records.append(
        {
            "label": "squeezed (omega=1, xi=0.3) vs thermal q=1/3",
            "qs": None,
            "formula": trans_prob_ccr(
                covariance_of_density(squeezed), thermal_covariance(2.0)
            ),
            "oracle": overlap_ccr(squeezed, thermal),
            "rho": squeezed.rho,
            "tau": thermal.rho,
        }
    )
    return records


def test_criterion_1_car_formula_matches_density_oracle(car_oracle_sweep):
    records, elapsed = car_oracle_sweep
    assert len(records) == 200
    worst = max(abs(formula - oracle) for formula, oracle, _, _ in records)
    assert worst <= 1e-8
    assert elapsed < 120.0


def test_criterion_2_quadrature_doubling_squares_overlap():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 17))
        s, t = random_car_pair(rng, dim)
        lhs, rhs = quadrature_identity_check(s, t)
        worst = max(worst, abs(lhs - rhs))
        p = quadrature(s)
        assert hs_norm(p @ p - p) <= 1e-9
        validate_doubled_covariance(p)
    assert worst <= 1e-8


def test_criterion_3_meet_rank_flags_vanishing_overlap():
    rng = np.random.default_rng(SEED)
    mismatches = []

    def check(s, t, origin):
        rank = meet_criterion(s, t)
        tp = trans_prob_car(s, t)
        if (rank > 0) != (tp < 1e-8):
            mismatches.append((origin, rank, tp))

    for i in range(100):
        dim = int(rng.integers(2, 11))
        s, t = random_car_pair(rng, dim)
        check(s, t, f"random[{i}] dim={dim}")
    for dim in (2, 4, 6, 8, 10):
        for j in range(2):
            s, t = singular_overlap_car_pair(rng, dim)
            assert trans_prob_car(s, t) == 0.0
            check(s, t, f"singular[{j}] dim={dim}")
    assert mismatches == []


def test_criterion_4_ccr_formula_matches_fock_oracle(ccr_oracle_sweep):
    assert len(ccr_oracle_sweep) == 16
    for rec in ccr_oracle_sweep:
        assert abs(rec["formula"] - rec["oracle"]) <= 1e-6, rec["label"]
        if rec["qs"] is not None:
            assert abs(rec["formula"] - thermal_closed_form(*rec["qs"])) <= 1e-8, (
                rec["label"]
            )


def test_criterion_5_sigma_zero_reduces_to_hellinger():
    cases = [
        ([1.7], [0.4]),
        ([0.7, 1.3], [1.1, 0.4]),
        ([2.0, 0.5], [0.5, 2.0]),
        ([0.9, 1.8, 0.6], [1.2, 0.7, 1.5]),
    ]
    for s_diag, t_diag in cases:
        s = np.asarray(s_diag)
        t = np.asarray(t_diag)
        dim = s.size
        sigma = np.zeros((dim, dim))
        t_val = trans_prob_ccr(
            validate_ccr(sigma, np.diag(s)), validate_ccr(sigma, np.diag(t))
        )
        product = float(np.prod(2.0 * np.sqrt(s * t) / (s + t)))
        assert abs(t_val**2 - product) <= 1e-10

        # brute-force Hellinger affinity of the two centered Gaussian densities
        norm = (2.0 * math.pi) ** (-dim / 2.0) * float(np.prod(s * t)) ** (-0.25)
        weights = 0.25 * (1.0 / s + 1.0 / t)

        def integrand(*x, _norm=norm, _w=weights):
            xx = np.asarray(x)
            return _norm * math.exp(-float(np.dot(_w, xx * xx)))

        ranges = [
            (-8.0 * math.sqrt(max(si, ti)), 8.0 * math.sqrt(max(si, ti)))
            for si, ti in zip(s, t)
        ]
        hellinger, _ = integrate.nquad(integrand, ranges)
        assert abs(t_val - hellinger) <= 1e-6


def test_criterion_6_overlap_fidelity_chain(car_oracle_sweep, ccr_oracle_sweep):
    car_records, _ = car_oracle_sweep
    pairs = [(rho, tau) for _, _, rho, tau in car_records]
    pairs += [(rec["rho"], rec["tau"]) for rec in ccr_oracle_sweep]
    assert len(pairs) == 216
    for rho, tau in pairs:
        o = overlap(rho, tau)
        f = fidelity_tr(rho, tau)
        assert o * o <= f * f + 1e-10
        assert f * f <= o + 1e-10


def test_criterion_7_builtin_families_reach_known_verdicts():
    expectations = [
        (car_power_family(2.0), QUASI_EQUIVALENT, HS_CONVERGENT),
        (car_power_family(1.0), DISJOINT, HS_DIVERGENCE),
        (ccr_thermal_power_family(2.0), QUASI_EQUIVALENT, POSITIVE_TRANSITION_PROBABILITY),
        (ccr_thermal_power_family(0.5), DISJOINT, HS_DIVERGENCE),
        (car_counterexample(), QUASI_EQUIVALENT, HS_CONVERGENT),
    ]
    for family, kind, reason in expectations:
        verdict = classify_sequence(family)  # ConsistencyViolation = failure
        assert verdict.kind == kind, family.label
        assert verdict.reason == reason, family.label

    counter = car_counterexample()
    verdict = classify_sequence(counter)
    assert verdict.neg_log_tp_partial_sums[-1] == math.inf  # product of t_k is 0
    s1, t1 = counter.pair_at(1)
    assert trans_prob_car(s1, t1) == 0.0
    assert meet_criterion(s1, t1) >= 1


def test_criterion_8_primitive_contracts():
    rng = np.random.default_rng(SEED)

    # Pfaffian squared against the determinant
    for i in range(500):
        dim = int(rng.choice([2, 4, 6, 8, 10]))
        a = random_skew(rng, dim, complex_entries=bool(i % 2))
        pf = pfaffian(a)
        det = np.linalg.det(a)
        assert abs(pf * pf - det) <= 1e-8 * max(1.0, abs(det))

    # geometric-mean congruence: gm(M A M*, M B M*) = M gm(A, B) M*
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        a = random_psd(rng, dim)
        b = random_psd(rng, dim)
        m = (
            random_orthogonal(rng, dim)
            * rng.uniform(0.5, 2.0, size=dim)
            @ random_orthogonal(rng, dim)
        )
        lhs = geometric_mean(m @ a @ m.T, m @ b @ m.T)
        rhs = m @ geometric_mean(a, b) @ m.T
        assert hs_norm(lhs - rhs) <= 1e-7 * max(1.0, hs_norm(rhs))

    # CCR sandwich: S + conj(S) <= 2A <= 2(S + conj(S)) in the form order
    from quasifree.ccr import canonical_sigma
    from quasifree.sampling import random_ccr_covariance

    for i in range(100):
        n_modes = 1 + i % 3
        cov = random_ccr_covariance(rng, canonical_sigma(n_modes))
        a = ab_form(cov)
        two_r = 2.0 * cov.r
        lower = np.linalg.eigvalsh(2.0 * a - two_r)
        upper = np.linalg.eigvalsh(2.0 * two_r - 2.0 * a)
        assert float(lower[0]) >= -1e-8
        assert float(upper[0]) >= -1e-8
