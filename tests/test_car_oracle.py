"""Tests for the explicit Fock-space oracle (Jordan-Wigner density matrices)."""

import itertools

import numpy as np
import pytest
import scipy.linalg

from quasifree import car, car_oracle, matcore, sampling
from quasifree.errors import SizeCapError


def wick_walk_density(s) -> np.ndarray:
    """Reference density: rho expanded over all 4^n ordered generator monomials.

    The coefficient of each even monomial is its Wick moment (a Pfaffian of
    the covariance); a depth-first walk extends the monomial one generator at
    a time. It shares nothing with the product form but the generators, and
    its 4^n small matrix products keep it to 4 modes here.
    """
    sm = s.matrix
    d = s.dim
    rep = car_oracle.jw_generators(d // 2)
    gens = rep.generators
    dim = rep.dim
    rho = np.eye(dim, dtype=complex) / dim

    def visit(start, indices, monomial):
        k = len(indices)
        if k and k % 2 == 0:
            sub = sm[np.ix_(indices, indices)]
            skew = np.triu(sub, 1)
            moment = matcore.pfaffian(skew - skew.T)
            sign = -1.0 if (k * (k - 1) // 2) % 2 else 1.0
            rho[...] += (sign * 2.0 ** (k / 2.0) / dim * moment) * monomial
        if k < d:
            for j in range(start, d):
                visit(j + 1, indices + [j], monomial @ gens[j])

    visit(0, [], np.eye(dim, dtype=complex))
    return matcore.hermitian_part(rho)


def blocks(mus, o=None):
    """Covariance O (+)_j mu_covariance(mu_j) O^T."""
    m = scipy.linalg.block_diag(*car.mu_covariance(np.asarray(mus, dtype=float)).matrix)
    return car.validate_car(m if o is None else o @ m @ o.T)


def test_jw_generators_clifford_relations():
    rep = car_oracle.jw_generators(3)
    gens = rep.generators
    assert len(gens) == 6 and rep.dim == 8
    eye = np.eye(8)
    for i, gi in enumerate(gens):
        # Hermitian, and {c_i, c_j} = 2 delta_ij -- exactly, the entries are
        # products of 0, +-1, +-i
        assert np.max(np.abs(gi - gi.conj().T)) == 0.0
        for j, gj in enumerate(gens):
            anti = gi @ gj + gj @ gi
            expect = 2.0 * eye if i == j else np.zeros((8, 8))
            assert np.max(np.abs(anti - expect)) == 0.0


def test_jw_generators_are_cached_and_monomial():
    rep = car_oracle.jw_generators(4)
    assert car_oracle.jw_generators(4) is rep
    rows = np.arange(rep.dim)
    for flip, phase, g in zip(rep.flips, rep.phases, rep.generators):
        expect = np.zeros((rep.dim, rep.dim), dtype=complex)
        expect[rows, rows ^ flip] = phase
        assert np.array_equal(g, expect)
    with pytest.raises(ValueError):
        rep.phases[0, 0] = 2.0


def test_jw_generator_cap():
    with pytest.raises(SizeCapError):
        car_oracle.jw_generators(0)
    with pytest.raises(SizeCapError):
        car_oracle.jw_generators(car_oracle.MAX_MODES + 1)


def test_density_single_mode_is_diagonal_occupation():
    rho = car_oracle.density_from_covariance(car.mu_covariance(0.3))
    assert np.linalg.norm(rho - np.diag([0.2, 0.8])) <= 1e-12


def test_density_pure_state_is_projection():
    rho = car_oracle.density_from_covariance(car.mu_covariance(0.5))
    w = np.linalg.eigvalsh(rho)
    assert np.allclose(sorted(w), [0.0, 1.0], atol=1e-10)
    assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-10)


def test_density_reproduces_all_wick_moments(rng):
    """Every generator-monomial expectation of rho matches the covariance side."""
    for n in (2, 3):
        d = 2 * n
        s = sampling.random_car_covariance(rng, d)
        rep = car_oracle.jw_generators(n)
        gens = rep.generators
        rho = car_oracle.density_from_covariance(s, rep)
        basis = np.eye(d)
        for k in range(0, d + 1):
            for idx in itertools.combinations(range(d), k):
                mono = np.eye(rep.dim, dtype=complex)
                for j in idx:
                    mono = mono @ gens[j]
                # generators are sqrt(2) times the orthonormal-basis elements
                got = np.trace(rho @ mono) / 2.0 ** (k / 2.0)
                want = car.wick_moment(s, [basis[j] for j in idx])
                assert abs(got - want) <= 1e-10


def test_density_matches_wick_walk(rng):
    """The product form against the 4^n-monomial walk on edge-case covariances."""
    cases = [("random", sampling.random_car_covariance(rng, 2 * n)) for n in (1, 2, 3, 4)
             for _ in range(2)]
    cases += [("tracial", car.validate_car(0.5 * np.eye(2 * n))) for n in (1, 2, 3, 4)]
    o6, o8 = sampling.random_orthogonal(rng, 6), sampling.random_orthogonal(rng, 8)
    cases += [
        ("rank-2 A, d=6", blocks([0.3, 0.0, 0.0], o6)),
        ("rank-2 A, d=8", blocks([-0.35, 0.0, 0.0, 0.0], o8)),
        ("degenerate", blocks([0.2] * 4, o8)),
        ("pure + kernel", blocks([0.5, 0.0, -0.5, 0.0], o8)),
        ("pure degenerate", blocks([0.5, 0.5, 0.5], o6)),
        ("tiny block", blocks([1e-13, 0.3, -0.1], o6)),
    ]
    for kind, s in cases:
        got = car_oracle.density_from_covariance(s)
        assert np.max(np.abs(got - wick_walk_density(s))) <= 1e-12, kind


def test_density_pair_moments_match_dense_products(rng):
    s = sampling.random_car_covariance(rng, 6)
    rep = car_oracle.jw_generators(3)
    rho = car_oracle.density_from_covariance(s, rep)
    gens = rep.generators
    dense = np.array([[np.trace(rho @ a @ b) for b in gens] for a in gens])
    assert np.max(np.abs(rep.pair_moments(rho) - dense)) <= 1e-14
    assert np.max(np.abs(dense - 2.0 * s.matrix)) <= 1e-12


def test_density_moment_check_catches_a_wrong_pairing(monkeypatch, rng):
    # the standard pairing ignores A's entries between the (2j, 2j+1) blocks:
    # trace and positivity still hold, the two-point moments do not
    s = sampling.random_car_covariance(rng, 6)
    monkeypatch.setattr(car_oracle, "_pairing", lambda a: np.eye(len(a)))
    with pytest.raises(RuntimeError, match="two-point moments"):
        car_oracle.density_from_covariance(s)


def test_density_does_not_use_the_car_factorisation(monkeypatch, rng):
    """The oracle pairs modes with its own eigh; it must not read car's factors."""
    def refuse(*args, **kwargs):
        raise AssertionError("oracle called into the production factorisation")

    monkeypatch.setattr(car, "_overlap_singular_values", refuse)
    s = car.CarCovariance(sampling.random_car_covariance(rng, 8).matrix)
    car_oracle.density_from_covariance(s)
    assert "spectrum" not in vars(s) and "roots" not in vars(s)


def test_density_is_even_parity(rng):
    s = sampling.random_car_covariance(rng, 4)
    rho = car_oracle.density_from_covariance(s)
    parity = np.kron(np.diag([1.0, -1.0]), np.diag([1.0, -1.0]))
    assert np.linalg.norm(rho @ parity - parity @ rho) <= 1e-12


def test_density_factorizes_over_modes():
    s1 = car.mu_covariance(0.3)
    s2 = car.mu_covariance(-0.2)
    block = np.zeros((4, 4), dtype=complex)
    block[:2, :2] = s1.matrix
    block[2:, 2:] = s2.matrix
    rho = car_oracle.density_from_covariance(car.validate_car(block))
    expect = np.kron(
        car_oracle.density_from_covariance(s1), car_oracle.density_from_covariance(s2)
    )
    assert np.linalg.norm(rho - expect) <= 1e-12


def test_density_caps():
    with pytest.raises(SizeCapError, match="even"):
        car_oracle.density_from_covariance(np.eye(3) * 0.5)  # odd dimension
    rep = car_oracle.jw_generators(1)
    with pytest.raises(ValueError, match="modes"):
        car_oracle.density_from_covariance(sampling.random_car_covariance(np.random.default_rng(1), 4), rep)


def test_overlap_commuting_densities():
    p = np.diag([0.2, 0.8])
    q = np.diag([0.5, 0.5])
    expect = np.sqrt(0.2 * 0.5) + np.sqrt(0.8 * 0.5)
    assert car_oracle.overlap(p, q) == pytest.approx(expect, abs=1e-12)
    assert car_oracle.fidelity_tr(p, q) == pytest.approx(expect, abs=1e-12)


def test_overlap_extremes():
    up = np.diag([1.0, 0.0])
    down = np.diag([0.0, 1.0])
    assert car_oracle.overlap(up, down) == 0.0
    assert car_oracle.fidelity_tr(up, down) == 0.0
    assert car_oracle.overlap(up, up) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="shape"):
        car_oracle.overlap(up, np.eye(4) / 4.0)


def test_fidelity_dominates_overlap(rng):
    for _ in range(5):
        s, t = sampling.random_car_pair(rng, 4)
        rho = car_oracle.density_from_covariance(s)
        tau = car_oracle.density_from_covariance(t)
        a = car_oracle.overlap(rho, tau)
        f = car_oracle.fidelity_tr(rho, tau)
        assert a <= f + 1e-12
        assert f**2 <= a + 1e-12


def test_formula_matches_oracle_small_sweep(rng):
    """The determinant formula against literal density matrices (dual route)."""
    for n in (1, 2, 3):
        for _ in range(4):
            s, t = sampling.random_car_pair(rng, 2 * n)
            formula = car.trans_prob_car(s, t)
            oracle = car_oracle.overlap(
                car_oracle.density_from_covariance(s),
                car_oracle.density_from_covariance(t),
            )
            assert abs(formula - oracle) <= 1e-10


@pytest.mark.parametrize("n", [5, 6])
def test_formula_matches_oracle_five_and_six_modes(rng, n):
    for s, t in [sampling.random_car_pair(rng, 2 * n),
                 (blocks([0.5, 0.2, 0.0] + [0.1] * (n - 3)),
                  blocks([-0.4, 0.2, 0.3] + [0.1] * (n - 3)))]:
        oracle = car_oracle.overlap(car_oracle.density_from_covariance(s),
                                    car_oracle.density_from_covariance(t))
        assert abs(car.trans_prob_car(s, t) - oracle) <= 1e-10
