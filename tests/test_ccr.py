"""Unit tests for bosonic covariance forms and the CCR overlap determinant."""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from quasifree import ccr, matcore, sampling, seqmodel
from quasifree.errors import CovarianceError, NotPositiveError
from quasifree.tolerances import FORM_BOUND, VALIDATION_TOL


def width_of(q):
    """Thermal width c = (1 + q)/(1 - q) of Boltzmann ratio q."""
    return (1.0 + q) / (1.0 - q)


def thermal_overlap(q1, q2):
    """Closed-form transition probability between thermal states."""
    return math.sqrt((1.0 - q1) * (1.0 - q2)) / (1.0 - math.sqrt(q1 * q2))


# Cancellation-free closed forms in the widths c >= 1 as given (c - 1 is exact
# for c in [1, 2]); per mode, ratio(S, 2R) has eigenvalues (c +- 1)/(2c).


def thermal_ab(c):
    """ab_form of width c: (c + sqrt(c^2 - 1))/2 per mode."""
    return 0.5 * (c + math.sqrt((c - 1.0) * (c + 1.0)))


def thermal_neg_log_tp(c1, c2):
    """-log tp from widths: 1 - q = 2/(c + 1) with q = (c - 1)/(c + 1)."""
    q1, q2 = (c1 - 1.0) / (c1 + 1.0), (c2 - 1.0) / (c2 + 1.0)
    return (0.5 * math.log1p(0.5 * (c1 - 1.0)) + 0.5 * math.log1p(0.5 * (c2 - 1.0))
            + math.log1p(-math.sqrt(q1 * q2)))


def thermal_qe(c1, c2):
    """||sqrt(ratio(S, 2R)) - sqrt(ratio(T, 2R_T))|| from widths."""
    def gap_sq(x, y):  # (sqrt x - sqrt y)^2 as (x - y)^2 / (sqrt x + sqrt y)^2
        den = math.sqrt(x) + math.sqrt(y)
        return 0.0 if den == 0.0 else ((x - y) / den) ** 2
    return math.sqrt(gap_sq((c1 + 1.0) / (2.0 * c1), (c2 + 1.0) / (2.0 * c2))
                     + gap_sq((c1 - 1.0) / (2.0 * c1), (c2 - 1.0) / (2.0 * c2)))


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


# the vacuum against R = c I on one mode: right below FORM_BOUND / d, refused above it
# (c from 2.3e307 read NaN, from 4.6e307 Disjoint and from 9e307 tp 1 without the bound)
OVERFLOW_WIDTHS = [1e300, 1e306, 5e306, 1e307, 2.2e307, 2.3e307, 4.4e307, 4.6e307, 8.9e307,
                   9e307, 1e308, 1.7e308]


def test_huge_forms_are_refused_or_right():
    sigma, vacuum = ccr.canonical_sigma(1), ccr.thermal_covariance(1.0)
    answered = 0
    for c in OVERFLOW_WIDTHS:
        if 2 * c > FORM_BOUND:
            with pytest.raises(CovarianceError, match="FORM_BOUND"):
                ccr.validate_ccr(sigma, c * np.eye(2))
            continue
        t = ccr.validate_ccr(sigma, c * np.eye(2))
        exact = 0.5 * (math.log(2.0) - math.log(2.0 * c) - math.log1p(0.5 / c))  # tp^2 = 2/(1+2c)
        assert ccr.log_trans_prob_ccr(vacuum, t) == pytest.approx(exact, rel=1e-14)
        verdict = ccr.classify_ccr(vacuum, t)
        assert verdict.kind == ccr.QUASI_EQUIVALENT and verdict.transition_probability > 0.0
        equiv, dist = ccr.qe_distance_ccr(vacuum, t)
        assert equiv and math.isfinite(dist)
        answered += 1
    assert answered == 3


@pytest.mark.parametrize("n_modes", [1, 4])
def test_dense_forms_at_the_bound_keep_their_answer(rng, n_modes):
    """Far above the symplectic scale tp depends on the shape of R alone, so forms
    scaled to just under FORM_BOUND / d read what they read at 1e200."""
    sigma, entry = ccr.canonical_sigma(n_modes), FORM_BOUND / (2 * n_modes)
    s, t = sampling.random_ccr_pair(rng, sigma)
    top = max(np.max(np.abs(s.r)), np.max(np.abs(t.r)))
    (lo_s, lo_t), (hi_s, hi_t) = ([ccr.validate_ccr(sigma, c.r * (scale / top)) for c in (s, t)]
                                  for scale in (1e200, 0.999 * entry))
    with np.errstate(over="ignore"):  # qe_distance_ccr's Frobenius norms square the entries
        assert ccr.log_trans_prob_ccr(hi_s, hi_t) == pytest.approx(
            ccr.log_trans_prob_ccr(lo_s, lo_t), rel=1e-12)
        assert ccr.qe_distance_ccr(hi_s, hi_t)[0]
        assert ccr.classify_ccr(hi_s, hi_t).kind == ccr.QUASI_EQUIVALENT
    with pytest.raises(CovarianceError, match="FORM_BOUND"):
        ccr.validate_ccr(sigma, np.stack([t.r, s.r * (1.001 * entry / np.max(np.abs(s.r)))]))


def test_transition_analysis_refuses_a_nan_log_tp():
    # built directly, past validation's bound: the forms overflow, and the geometric mean's
    # PSD check refuses the NaN spectrum before any log tp is formed (A + B is still finite)
    sigma = ccr.canonical_sigma(1)
    wide = ccr.CcrCovariance(sigma=sigma, r=3e307 * np.eye(2))
    with np.errstate(all="ignore"), pytest.raises(
            NotPositiveError, match=r"^matrix is not PSD: minimal eigenvalue nan$") as info:
        ccr.log_trans_prob_ccr(ccr.thermal_covariance(1.0), wide)
    assert type(info.value) is NotPositiveError



def test_a_nan_symplectic_form_is_another_space():
    sigma = ccr.canonical_sigma(1).copy()
    sigma[0, 1] = np.nan
    bad, good = ccr.CcrCovariance(sigma=sigma, r=np.eye(2)), ccr.thermal_covariance(2.0)
    for call in (ccr.log_trans_prob_ccr, ccr.trans_prob_ccr, ccr.classify_ccr,
                 ccr.qe_distance_ccr):
        for s, t in ((bad, good), (good, bad)):
            with pytest.raises(CovarianceError, match="^covariances live on different symplectic"):
                call(s, t)


def test_pairs_with_no_support_take_no_geometric_mean(monkeypatch):
    # R within VALIDATION_TOL below 0 on a zero sigma: validation accepts it, and
    # both supports are empty, so tp is 1 and no mean of the negative forms is formed
    sigma = np.zeros((1, 1))
    s, t = (ccr.validate_ccr(sigma, [[-c * 1e-13]]) for c in (1.0, 2.0))
    calls = []
    mean = matcore.geometric_mean
    monkeypatch.setattr(matcore, "geometric_mean", lambda a, b: calls.append(a) or mean(a, b))
    assert ccr.log_trans_prob_ccr(s, t) == 0.0 and ccr.trans_prob_ccr(s, t) == 1.0
    verdict = ccr.classify_ccr(s, t)
    assert (verdict.kind, verdict.diagnostics["support_dim"]) == (ccr.QUASI_EQUIVALENT, 0)
    stack = ccr.validate_ccr(sigma, [[[-1e-13]], [[1.0]]])
    assert list(ccr.log_trans_prob_ccr(stack, stack)) == [0.0, 0.0]
    assert sum(a.shape[0] for a in calls) == 1  # the stack's supported pair alone
    assert len(calls) == 1  # and no mean of an empty stack for the unsupported pairs


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


def degenerate_pairs(rng, modes, center):
    """sigma, canonical on ``modes`` modes and zero on ``center`` central directions, sheared
    so that the center mixes into every coordinate, and pairs of forms on it whose supports
    are full, deficient (a shared rank-k form on the center, k = 1 .. center - 1), zero (on
    sigma = 0 only) or different (mismatched)."""
    k, d = 2 * modes, 2 * modes + center
    shear = np.eye(d)
    shear[:k, k:] = rng.standard_normal((k, center))
    shear[k:, k:] += 0.3 * rng.standard_normal((center, center))
    sigma = np.zeros((d, d))
    sigma[:k, :k] = ccr.canonical_sigma(modes)
    q = np.linalg.qr(rng.standard_normal((center, center)))[0]

    def form(rank, cols=slice(None)):
        r = np.zeros((d, d))
        if modes:
            r[:k, :k] = sampling.random_ccr_covariance(rng, ccr.canonical_sigma(modes)).r
        basis = q[:, cols][:, :rank]
        r[k:, k:] = (basis * rng.uniform(0.3, 2.0, rank)) @ basis.T
        return shear @ r @ shear.T

    ranks = [center, *range(1, center), *([0] if modes == 0 else [])]
    pairs = [(form(rank), form(rank)) for rank in ranks]
    pairs.append((form(center - 1), form(center - 1, slice(1, None))))  # supports differ
    return shear @ sigma @ shear.T, pairs


@pytest.mark.parametrize("modes, center", [(0, 4), (0, 10), (1, 3), (2, 6)])
def test_stacked_pairs_of_every_support_rank_match_single_calls_bitwise(rng, modes, center):
    """One padded pass serves a stack that mixes full, deficient, zero and mismatched
    supports: each pair keeps the bits of its own call, and classify_ccr reports as many
    determinant factors as the support has, none where a central element separates the
    states or the support is empty."""
    sigma, pairs = degenerate_pairs(rng, modes, center)
    pairs = [tuple(ccr.validate_ccr(sigma, r) for r in pair) for pair in pairs]
    s, t = (ccr.validate_ccr(sigma, np.stack([p[i].r for p in pairs])) for i in (0, 1))
    log_tp, tp, (equiv, dist) = (ccr.log_trans_prob_ccr(s, t), ccr.trans_prob_ccr(s, t),
                                 ccr.qe_distance_ccr(s, t))
    factors = ccr._transition_analysis(s, t)[3]
    assert factors.shape == (len(pairs), sigma.shape[0]) and not factors.flags.writeable
    kinds = set()
    for i, (a, b) in enumerate(pairs):
        assert log_tp[i] == ccr.log_trans_prob_ccr(a, b) and tp[i] == ccr.trans_prob_ccr(a, b)
        assert (equiv[i], dist[i]) == ccr.qe_distance_ccr(a, b)
        diag = ccr.classify_ccr(a, b).diagnostics
        rank, mismatch = diag["support_dim"], diag["ab_support_mismatch"]
        kinds.add("mismatch" if mismatch else rank)
        if mismatch or rank == 0:
            assert "det_eigenvalues" not in diag
            assert log_tp[i] == (-math.inf if mismatch else 0.0)
        else:
            assert diag["det_eigenvalues"] == factors[i, :rank].tolist()
            assert np.all(factors[i, rank:] == 1.0)
    assert "mismatch" in kinds and (0 in kinds) == (modes == 0)
    assert len(kinds) == len(pairs)  # every support rank occurs


def test_deficient_support_reads_the_pair_compressed_to_it(rng):
    """On sigma = 0, forms sharing an r-dimensional support give the tp of the r x r pair
    they compress to."""
    d, r = 9, 4
    q = np.linalg.qr(rng.standard_normal((d, d)))[0][:, :r]
    x, y = (sampling.random_psd(rng, r, complex_entries=False) + 0.1 * np.eye(r)
            for _ in range(2))
    wide = [ccr.validate_ccr(np.zeros((d, d)), q @ m @ q.T) for m in (x, y)]
    narrow = [ccr.validate_ccr(np.zeros((r, r)), m) for m in (x, y)]
    assert ccr.classify_ccr(*wide).diagnostics["support_dim"] == r
    assert ccr.log_trans_prob_ccr(*wide) == pytest.approx(ccr.log_trans_prob_ccr(*narrow),
                                                          rel=1e-12)


def passive_rotation(rng, modes):
    """The orthogonal symplectic of a random unitary on ``modes`` modes."""
    z = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    u = np.linalg.qr(z)[0]
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


def rotated_thermal_pairs(rng, modes, count):
    """``count`` pairs of thermal products of random widths on ``modes`` modes, each
    form turned by its own passive rotation (the orthogonal symplectic of a unitary)."""
    def form():
        o = passive_rotation(rng, modes)
        return (o * np.tile(0.5 * rng.uniform(1.0, 3.0, modes), 2)) @ o.T

    return [(form(), form()) for _ in range(count)]


@pytest.mark.parametrize("modes", [2, 4, 16])
def test_stacked_rotated_thermal_pairs_match_single_calls_bitwise(rng, modes):
    """d = 4, 8 and 32: each pair of a stack gets the bits of its own call (at d = 32
    BLAS takes another kernel for a transposed operand than for a contiguous one)."""
    sigma, pairs = ccr.canonical_sigma(modes), rotated_thermal_pairs(rng, modes, 5)
    pairs.append(pairs[0][::-1])
    s, t = (ccr.validate_ccr(sigma, np.stack(forms)) for forms in zip(*pairs))
    log_tp, (equiv, dist) = ccr.log_trans_prob_ccr(s, t), ccr.qe_distance_ccr(s, t)
    for i, (a, b) in enumerate(pairs):
        cs, ct = ccr.validate_ccr(sigma, a), ccr.validate_ccr(sigma, b)
        assert np.array_equal(s.r[i], cs.r)
        assert log_tp[i] == ccr.log_trans_prob_ccr(cs, ct)
        assert (equiv[i], dist[i]) == ccr.qe_distance_ccr(cs, ct)
        assert np.array_equal(ccr.ab_form(s)[i], ccr.ab_form(cs))
        assert all(np.array_equal(m[i], m1) for m, m1 in zip(s.roots, cs.roots))


def test_validate_rejects_asymmetric_forms():
    sigma, r = ccr.canonical_sigma(1), np.eye(2)
    with pytest.raises(CovarianceError, match="sigma is not antisymmetric"):
        ccr.validate_ccr([[0.0, 1.0], [0.0, 0.0]], [[2.0, 5.0], [-3.0, 2.0]])
    with pytest.raises(CovarianceError, match="R is not symmetric"):
        ccr.validate_ccr(sigma, [[2.0, 5.0], [-3.0, 2.0]])
    stack = np.stack([r, r + [[0.0, 1e-3], [0.0, 0.0]]])
    with pytest.raises(CovarianceError, match=r"R is not symmetric: max deviation 1\.000e-03"):
        ccr.validate_ccr(sigma, stack)


def thermal_form(c, xy=0.0):
    """Width-c thermal R on one mode with xy added to its entry (0, 1)."""
    return np.array([[0.5 * c, xy], [0.0, 0.5 * c]])


def canonical_with(xy):
    """The one-mode canonical sigma with xy added to its entry (0, 1)."""
    return ccr.canonical_sigma(1) + [[0.0, xy], [0.0, 0.0]]


# check: ((sigma, R) with a defect x, an x in (VALIDATION_TOL, VALIDATION_TOL * scale],
# an x above it, the message naming it); scale = 1 + max|R + i sigma/2| is 2.5 for
# width 3 and 1.5 for width 1
SCALED_DEFECTS = {
    "antisymmetric": (lambda x: (canonical_with(x), thermal_form(3.0)), 2e-10, 3e-10,
                      r"sigma is not antisymmetric: max deviation 3\.000e-10$"),
    "symmetric": (lambda x: (canonical_with(0.0), thermal_form(3.0, x)), 2e-10, 3e-10,
                  r"R is not symmetric: max deviation 3\.000e-10$"),
    "psd": (lambda x: (canonical_with(0.0), thermal_form(1.0 - 2.0 * x)), 1.2e-10, 2e-10,
            r"minimal eigenvalue of R \+ i\*sigma/2 is -(2\.00000|1\.99999)\de-10$"),
}


@pytest.mark.parametrize("check", sorted(SCALED_DEFECTS))
def test_validate_stack_bound_scales_per_matrix(check):
    """A defect above VALIDATION_TOL but within VALIDATION_TOL * scale passes in a
    stack; a larger one is refused with the value of the first matrix over its bound."""
    make, inside, over, message = SCALED_DEFECTS[check]
    good = make(0.0)
    cov = ccr.validate_ccr(*(np.stack(m) for m in zip(good, make(inside), good)))
    assert np.array_equal(cov.r, cov.r.swapaxes(-1, -2))
    with pytest.raises(CovarianceError, match=message):
        ccr.validate_ccr(*(np.stack(m) for m in zip(good, make(over), make(1.5 * over))))


def test_validate_rejects_nan_imaginary_part():
    """complex(x, nan) is not real: it is refused, not read as x."""
    sigma = ccr.canonical_sigma(1) + complex(0.0, math.nan)
    with pytest.raises(CovarianceError, match="sigma must be real"):
        ccr.validate_ccr(sigma, np.eye(2))
    with pytest.raises(CovarianceError, match="x must be real"):
        ccr.char_value(ccr.thermal_covariance(2.0), [complex(1.0, math.nan), 0.0])


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


# The complex rule: the smallest eigenvalue of the complex R + i*sigma/2 against
# -VALIDATION_TOL * (1 + max |entry| of the forms as given). validate_ccr certifies
# a matrix from its real factorisation only where that rule passes, and sends every
# other matrix to it, so the two must agree on every accept, refusal and message.


def complex_rule(sigma, r):
    """The refusal message of the complex rule for the first matrix it refuses, or None."""
    sigma_in, r_in = np.broadcast_arrays(np.asarray(sigma, float), np.asarray(r, float))
    anti = 0.5 * (sigma_in - np.swapaxes(sigma_in, -1, -2))
    sym = 0.5 * (r_in + np.swapaxes(r_in, -1, -2))
    low = np.ravel(matcore.eigvalsh(sym + 0.5j * anti)[..., 0])
    scale = np.ravel(1.0 + np.max(np.abs(r_in + 0.5j * sigma_in), axis=(-2, -1)))
    bad = np.flatnonzero(-low > VALIDATION_TOL * scale)
    if bad.size == 0:
        return None
    return f"not a covariance form: minimal eigenvalue of R + i*sigma/2 is {low[bad[0]]:.6e}"


def validation_outcome(sigma, r):
    """validate_ccr's refusal message, or None when it accepts."""
    try:
        ccr.validate_ccr(sigma, r)
    except CovarianceError as exc:
        return str(exc)
    return None


def squeezed_form(rng, modes, squeeze):
    """A width-1 (vacuum) mode and random widths in [1, 3] on the others, squeezed by
    diag(s, 1/s) with s up to ``squeeze`` and turned by a random passive rotation:
    R + i*sigma/2 has smallest eigenvalue 0 on the canonical form."""
    s = np.concatenate([[squeeze], rng.uniform(1.0, 2.0, modes - 1)])
    m = passive_rotation(rng, modes) * np.concatenate([s, 1.0 / s])
    widths = np.concatenate([[1.0], rng.uniform(1.0, 3.0, modes - 1)])
    r = 0.5 * (m * np.tile(widths, 2)) @ m.T
    return 0.5 * (r + r.T)


def at_edge(sigma, r, t):
    """r + c*I with c such that R + i*sigma/2 has smallest eigenvalue about
    t * VALIDATION_TOL * scale, for an r whose smallest eigenvalue there is 0."""
    scale = 1.0 + np.max(np.abs(r + 0.5j * sigma))
    low = np.linalg.eigvalsh(r + 0.5j * sigma)[0]
    return r + (t * VALIDATION_TOL * scale - low) * np.eye(r.shape[-1])


EDGES = (0.0, 0.5, -0.5, 1.0, -1.0, 2.0, -2.0)


@pytest.mark.parametrize("modes", [1, 2, 32])
@pytest.mark.parametrize("squeeze", [1.0, 10.0, 100.0])
def test_validate_matches_the_complex_rule_at_the_edge(rng, modes, squeeze):
    """d = 2, 4 and 64, cond(2R) from ~1 to 1e8: at smallest eigenvalues of 0,
    +-0.5, +-1 and +-2 VALIDATION_TOL * scale, and well inside, the same accepts,
    refusals and messages as the complex rule, alone and as one stack."""
    sigma = ccr.canonical_sigma(modes)
    base = squeezed_form(rng, modes, squeeze)
    forms = [at_edge(sigma, base, t) for t in EDGES] + [base + 0.1 * np.eye(2 * modes)]
    for r in forms:
        assert validation_outcome(sigma, r) == complex_rule(sigma, r)
    for order in (forms, forms[::-1], forms[-1:] + forms[:-1]):
        stack = np.stack(order)
        assert validation_outcome(sigma, stack) == complex_rule(sigma, stack)
    refused = [complex_rule(sigma, r) is not None for r in forms]
    assert refused[EDGES.index(-2.0)] and not any(refused[:3]) and not refused[-1]


def central_sigma():
    """One canonical mode and two central directions."""
    sigma = np.zeros((4, 4))
    sigma[0, 1], sigma[1, 0] = 1.0, -1.0
    return sigma


DEGENERATE_CASES = {
    # rank-deficient R vanishing on the centre: valid, no full support
    "central-kernel": (central_sigma(), np.diag([0.5, 0.5, 0.0, 1.0])),
    "central-thermal": (central_sigma(), np.diag([1.5, 1.5, 2.0, 1e-3])),
    # the same with the central direction just below and above zero
    "central-edge-": (central_sigma(), np.diag([0.5, 0.5, -2.0 * VALIDATION_TOL * 2.0, 1.0])),
    "central-edge+": (central_sigma(), np.diag([0.5, 0.5, 0.5 * VALIDATION_TOL * 2.0, 1.0])),
    # R vanishing where sigma does not: R + i*sigma/2 is indefinite
    "kernel-off-centre": (ccr.canonical_sigma(1), np.diag([1.0, 0.0])),
    # sigma = 0: an indefinite R has a full support of signed eigenvalues
    "indefinite-commutative": (np.zeros((2, 2)), np.diag([-1.0, 1.0])),
    # a negative eigenvalue of 2R with a large form on the rest: mu < 0 and w < 0
    "indefinite-twisted": (
        np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                  [0.0, -1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
        np.diag([-1.0, 0.1, 0.1, 1.0])),
    "zero-form": (ccr.canonical_sigma(2), np.zeros((4, 4))),
    "zero-commutative": (np.zeros((4, 4)), np.zeros((4, 4))),
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_CASES))
def test_validate_matches_the_complex_rule_on_degenerate_forms(case):
    sigma, r = DEGENERATE_CASES[case]
    assert validation_outcome(sigma, r) == complex_rule(sigma, r)


def test_validate_matches_the_complex_rule_on_mixed_stacks(rng):
    """Degenerate, edge and random forms on one d = 4 stack, each with its own sigma:
    the first matrix the complex rule refuses is the one refused, with its message."""
    cases = [DEGENERATE_CASES[k] for k in sorted(DEGENERATE_CASES) if k.startswith(("central", "zero"))]
    cases += [(ccr.canonical_sigma(2), at_edge(ccr.canonical_sigma(2), squeezed_form(rng, 2, 10.0), t))
              for t in EDGES]
    cases += [(ccr.canonical_sigma(2), sampling.random_ccr_covariance(rng, ccr.canonical_sigma(2)).r)
              for _ in range(4)]
    for _ in range(20):
        order = rng.permutation(len(cases))[: rng.integers(1, len(cases) + 1)]
        sigma, r = (np.stack([cases[i][k] for i in order]) for k in (0, 1))
        assert validation_outcome(sigma, r) == complex_rule(sigma, r)


def test_certified_pair_runs_no_complex_kernel(rng, monkeypatch):
    """A random 32-mode pair is certified PSD by its real factorisation: validation and
    the pair functions run no complex eigvalsh, and no other complex kernel."""
    sigma = ccr.canonical_sigma(32)
    forms = [c.r for c in sampling.random_ccr_pair(rng, sigma)]
    dtypes = []
    for name in ("eigh", "eigvalsh", "svd"):
        def spy(a, *args, _f=getattr(np.linalg, name), **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    s, t = (ccr.validate_ccr(sigma, r) for r in forms)
    assert ccr.classify_ccr(s, t).kind == ccr.QUASI_EQUIVALENT
    assert dtypes and set(dtypes) == {np.dtype(float)}


def test_canonical_sigma_squares_to_minus_identity():
    s = ccr.canonical_sigma(3)
    assert np.array_equal(s @ s, -np.eye(6))


def test_char_value():
    cov = ccr.thermal_covariance(2.0)
    x = np.array([1.0, 1.0])
    assert ccr.char_value(cov, x) == pytest.approx(math.exp(-1.0), abs=1e-14)
    with pytest.raises(CovarianceError, match="length"):
        ccr.char_value(cov, np.ones(3))
    with pytest.raises(CovarianceError, match="one covariance"):
        ccr.char_value(ccr.thermal_covariance([2.0, 3.0]), x)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_char_value_rejects_non_finite_vector(bad):
    with pytest.raises(CovarianceError, match="finite"):
        ccr.char_value(ccr.thermal_covariance(2.0), [bad, 0.0])


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


def test_near_vacuum_sweep_matches_closed_forms():
    """Widths 1 + delta against closed forms, to the eps/delta floor of the input.

    Relative errors (of -log tp for tp); the vacuum pair's wider factor is
    the gm(A, B) step of the transition probability.
    """
    eps = np.finfo(float).eps
    c = 1.0 + np.logspace(-14, -2, 61)
    floor = eps / (c - 1.0)
    near = ccr.thermal_covariance(c)
    ab = ccr.ab_form(near)
    expect = np.array([thermal_ab(x) for x in c])
    err = np.max(np.abs(ab - expect[:, None, None] * np.eye(2)), axis=(1, 2)) / expect
    assert np.all(err <= 1e-12 + 4.0 * floor)
    for width, tp_factor in ((3.0, 4.0), (1.0, 32.0)):
        other = ccr.thermal_covariance(np.full(c.shape, width))
        nlt = -np.log(ccr.trans_prob_ccr(other, near))
        expect = np.array([thermal_neg_log_tp(width, x) for x in c])
        assert np.all(np.abs(nlt - expect) / expect <= 1e-12 + tp_factor * floor)
        qe = ccr.qe_distance_ccr(other, near)[1]
        expect = np.array([thermal_qe(width, x) for x in c])
        assert np.all(np.abs(qe - expect) / expect <= 1e-12 + 4.0 * floor)


@pytest.mark.parametrize("p", [2, 3])
def test_thermal_power_sums_match_closed_form(p):
    """Both sums of the built-in family at n = 4096, whose widths run down to 1 + 4096^-p."""
    n = 4096
    verdict = seqmodel.classify_sequence(seqmodel.ccr_thermal_power_family(p), n_max=n)
    widths = [1.0 + k**-p for k in range(1, n + 1)]
    nlt = math.fsum(thermal_neg_log_tp(c, 1.0) for c in widths)
    qe_sq = math.fsum(thermal_qe(c, 1.0) ** 2 for c in widths)
    assert verdict.kind == ccr.QUASI_EQUIVALENT
    assert abs(verdict.neg_log_tp_partial_sums[-1] - nlt) <= 1e-12 * nlt
    assert abs(verdict.qe_partial_sums[-1] - qe_sq) <= 1e-12 * qe_sq


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


def complex_route_ab_form(cov):
    """Reference for ab_form by the complex mean: R + Re gm(S, conj S)."""
    s = cov.s_matrix
    return cov.r + matcore.geometric_mean(s, s.conj()).real


def test_ab_form_is_real_and_cached(rng):
    covs = [sampling.random_ccr_covariance(rng, ccr.canonical_sigma(n))
            for n in (1, 2, 4) for _ in range(8)]
    # a degenerate sigma with a central direction, a rank-deficient R, the vacuum
    z = np.zeros((3, 3))
    z[0, 1], z[1, 0] = 1.0, -1.0
    covs += [ccr.validate_ccr(z, np.diag([1.0, 1.0, 0.7])),
             ccr.validate_ccr(z, np.diag([0.5, 0.5, 0.0])),
             ccr.thermal_covariance(1.0, 3)]
    for cov in covs:
        a = ccr.ab_form(cov)
        assert a.dtype == np.float64 and not a.flags.writeable
        assert np.array_equal(a, a.T)  # exactly: the transition analysis sums two as they are
        assert ccr.ab_form(cov) is a
        ref = complex_route_ab_form(cov)
        assert np.max(np.abs(a - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_roots_square_to_the_complex_ratio(rng):
    covs = [sampling.random_ccr_covariance(rng, ccr.canonical_sigma(n))
            for n in (1, 2, 4) for _ in range(8)]
    z = np.zeros((3, 3))
    z[0, 1], z[1, 0] = 1.0, -1.0
    covs += [ccr.validate_ccr(z, np.diag([0.5, 0.5, 0.0])), ccr.thermal_covariance(1.0, 3)]
    for cov in covs:
        g, y = cov.roots
        root = g + 1j * y
        # numpy reference: the pseudo-inverse root of 2R on both sides of S
        w, v = np.linalg.eigh(2.0 * cov.r)
        keep = w > 1e-10 * np.max(np.abs(w))
        inv_root = (v * np.where(keep, 1.0 / np.sqrt(np.where(keep, w, 1.0)), 0.0)) @ v.T
        ratio = inv_root @ cov.s_matrix @ inv_root
        assert np.max(np.abs(root @ root - ratio)) <= 1e-12
        assert np.linalg.eigvalsh(root)[0] >= -1e-12


def test_pair_path_after_ab_form_is_real(rng, monkeypatch):
    s, t = sampling.random_ccr_pair(rng, ccr.canonical_sigma(3))
    dtypes = []
    for name in ("eigh", "eigvalsh", "svd"):
        def spy(a, *args, _f=getattr(np.linalg, name), **kwargs):
            dtypes.append(np.asarray(a).dtype)
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    # everything after validation: the factorisation, ab_form and all pair functions
    ccr.ab_form(s), ccr.ab_form(t)
    ccr.trans_prob_ccr(s, t)
    ccr.qe_distance_ccr(s, t)
    ccr.classify_ccr(s, t)
    ccr.is_standard_ccr(s)
    assert dtypes and set(dtypes) == {np.dtype(float)}


def test_classify_after_trans_prob_factorises_once(rng, monkeypatch):
    """Validation, trans_prob_ccr and classify_ccr factorise each covariance once:
    validation keeps the real factorisation that the pair functions read."""
    sigma = ccr.canonical_sigma(2)
    forms = [c.r for c in sampling.random_ccr_pair(rng, sigma)]
    means, metric_eighs, form_eighs = [], [], []
    real_gm, real_mc_eigh, real_eigh = matcore.geometric_mean, ccr.eigh, np.linalg.eigh

    def gm_spy(a, b, *args, **kwargs):
        means.append(np.iscomplexobj(a))
        return real_gm(a, b, *args, **kwargs)

    def eig_spy(h):
        metric_eighs.append(np.array(h))
        return real_mc_eigh(h)

    def eigh_spy(h, *args, **kwargs):
        form_eighs.append(np.array(h))
        return real_eigh(h, *args, **kwargs)

    monkeypatch.setattr(matcore, "geometric_mean", gm_spy)
    monkeypatch.setattr(ccr, "eigh", eig_spy)
    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    s, t = (ccr.validate_ccr(sigma, r) for r in forms)
    tp = ccr.trans_prob_ccr(s, t)
    verdict = ccr.classify_ccr(s, t)
    ccr.is_standard_ccr(s)
    assert verdict.transition_probability == tp
    # gm(A, B) once per pair (classify reuses the analysis) and gm(S, conj S) never
    assert means == [False]
    # one eigh of 2R and one of a^T a per covariance
    for c in (s, t):
        assert sum(np.array_equal(h, 2.0 * c.r) for h in metric_eighs) == 1
        a = c.spectrum[0]
        assert sum(np.array_equal(h, a.T @ a) for h in form_eighs) == 1


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
    assert v.diagnostics["ab_support_mismatch"] is False


def test_classify_reads_the_central_flag_not_the_value():
    # vacuum against width 30 on 32 modes: tp = (2/31)^16 ~ 9e-20, and against
    # width 1e9 on 80 modes tp underflows to 0.0; no central element separates
    # either pair and the metrics are equivalent
    for c, n, tp in ((30.0, 32, (2.0 / 31.0) ** 16), (1e9, 80, 0.0)):
        v = ccr.classify_ccr(ccr.thermal_covariance(1.0, n), ccr.thermal_covariance(c, n))
        assert v.transition_probability == pytest.approx(tp, rel=1e-9, abs=0.0)
        assert "central_witness" not in v.diagnostics and v.diagnostics["metric_equivalent"]
        assert (v.kind, v.reason) == (ccr.QUASI_EQUIVALENT, ccr.POSITIVE_TRANSITION_PROBABILITY)


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


def test_classify_reports_form_support_mismatch(rng):
    # A = 2 R_S vanishes on e2, where B = 2 R_T = 2e-9 is positive: the
    # supports differ, so a central element separates the states, and the
    # witness is e2 on side A, however small B is there
    z = np.zeros((2, 2))
    s = ccr.validate_ccr(z, np.diag([1.0, 0.0]))
    t = ccr.validate_ccr(z, np.diag([1.0, 1e-9]))
    v = ccr.classify_ccr(s, t)
    assert v.kind == ccr.DISJOINT
    wit = v.diagnostics["central_witness"]
    assert wit["side"] == "A" and wit["vector"] == pytest.approx([0.0, 1.0], abs=1e-15)
    assert (wit["projection_eigenvalue"], wit["other_form_value"]) == pytest.approx((1.0, 2e-9))
    assert v.diagnostics["ab_support_mismatch"] is True
    assert v.diagnostics["support_dim"] == 2
    # the same pair turned by random rotations: still disjoint, witness turned along
    for d in (2, 4, 8):
        z = np.zeros((d, d))
        for _ in range(50):
            o = sampling.random_orthogonal(rng, d)
            s, t = (ccr.validate_ccr(z, (o * np.r_[np.ones(d - 1), x]) @ o.T) for x in (0.0, 1e-9))
            v = ccr.classify_ccr(s, t)
            assert (v.kind, v.transition_probability) == (ccr.DISJOINT, 0.0)
            assert v.diagnostics["metric_equivalent"] is False
            wit = v.diagnostics["central_witness"]
            assert wit["side"] == "A" and abs(np.dot(wit["vector"], o[:, -1])) == pytest.approx(1.0)


@pytest.mark.parametrize("n", [1, 4])
@pytest.mark.parametrize("c", [1e10, 1e12, 1e15, 1e16, 1e30, 1e100])
def test_vacuum_against_a_wide_thermal_state(c, n):
    # canonical sigma has no centre, so no width separates the states: the
    # exact tp is (2/(1 + c))^(n/2), 1.4e-5 per mode at c = 1e10; the metrics
    # are proportional, so equivalent in either order, and each mode's root
    # eigenvalues (1, 0) against sqrt(1/2 +- 1/(2c)) set the qe distance
    s, t = ccr.thermal_covariance(1.0, n), ccr.thermal_covariance(c, n)
    v = ccr.classify_ccr(s, t)
    assert (v.kind, v.reason) == (ccr.QUASI_EQUIVALENT, ccr.POSITIVE_TRANSITION_PROBABILITY)
    assert v.diagnostics["ab_support_mismatch"] is False and "central_witness" not in v.diagnostics
    want = 0.5 * n * (math.log(2.0) - math.log1p(c))
    dist = math.sqrt(n * ((1.0 - math.sqrt(0.5 + 0.5 / c)) ** 2 + 0.5 - 0.5 / c))
    for x, y in ((s, t), (t, s)):
        assert ccr.log_trans_prob_ccr(x, y) == pytest.approx(want, rel=1e-12, abs=0.0)
        equiv, got = ccr.qe_distance_ccr(x, y)
        assert equiv and got == pytest.approx(dist, rel=1e-12)


@pytest.mark.parametrize("eps", [1e-10, 1e-12])
def test_tiny_form_on_a_shared_support(eps):
    # sigma = 0 in one dimension: R_S = eps and R_T = 1 have one support, so
    # tp = sqrt(2 sqrt(eps)/(1 + eps)) > 0 however small eps is
    z = np.zeros((1, 1))
    s, t = ccr.validate_ccr(z, [[eps]]), ccr.validate_ccr(z, [[1.0]])
    v = ccr.classify_ccr(s, t)
    assert v.kind == ccr.QUASI_EQUIVALENT and v.diagnostics["metric_equivalent"]
    want = math.sqrt(2.0 * math.sqrt(eps) / (1.0 + eps))
    assert v.transition_probability == pytest.approx(want, rel=1e-12, abs=0.0)


def _passive(rng, m):
    """Orthogonal symplectic [[Re U, -Im U], [Im U, Re U]] of a random unitary U."""
    u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    return np.block([[u.real, -u.imag], [u.imag, u.real]])


@st.composite
def wide_canonical_pairs(draw):
    """Squeezed thermal states on 1-3 modes of the canonical sigma, each turned
    by a random passive rotation: R = k O^T diag(nu e^(2r), nu e^(-2r)) O / 2
    with nu in [1, 1e3] and e^(2r) in [1, 1e2], so each 2R spans less than
    1e7, and with scales k in [1, 1e100] (k >= 1 keeps R a state)."""
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sigma, covs = ccr.canonical_sigma(m), []
    for _ in range(2):
        nu, sq = 10.0 ** rng.uniform(0.0, 3.0, m), 10.0 ** rng.uniform(0.0, 2.0, m)
        k = 10.0 ** draw(st.floats(0.0, 100.0))
        o = _passive(rng, m)
        covs.append(ccr.validate_ccr(sigma, (o.T * (0.5 * k * np.r_[nu * sq, nu / sq])) @ o))
    return covs


@st.composite
def degenerate_sigma_pairs(draw):
    """Pairs on sigma = canonical(k) + 0 on a centre of dimension 1-3, turned by
    one random rotation: R = R_W + R_Z with R_W a state on the canonical part
    and R_Z of random rank, on a range that T shares with S or draws anew."""
    k, c = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sw, d = ccr.canonical_sigma(k), 2 * k + c
    o = sampling.random_orthogonal(rng, d)
    sigma = np.zeros((d, d))
    sigma[: 2 * k, : 2 * k] = sw
    q = sampling.random_orthogonal(rng, c)
    covs = []
    for _ in range(2):
        if draw(st.booleans()):
            q = sampling.random_orthogonal(rng, c)
        widths = draw(st.lists(st.sampled_from([0.0, 1e-9, 1e-3, 1.0, 30.0]), min_size=c, max_size=c))
        r = np.zeros((d, d))
        if k:
            r[: 2 * k, : 2 * k] = sampling.random_ccr_covariance(rng, sw).r
        r[2 * k :, 2 * k :] = (q * widths) @ q.T
        covs.append(o @ r @ o.T)
    return [ccr.validate_ccr(o @ sigma @ o.T, r) for r in covs]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(pair=st.one_of(wide_canonical_pairs(), degenerate_sigma_pairs()))
def test_dichotomy_on_wide_and_degenerate_pairs(pair):
    """Disjoint exactly through a central element: never on the canonical sigma,
    however far apart the widths, and never with metric-equivalent forms."""
    s, t = pair
    v = ccr.classify_ccr(s, t)
    if np.array_equal(s.sigma, ccr.canonical_sigma(s.dim // 2)):
        assert v.kind == ccr.QUASI_EQUIVALENT
        assert math.isfinite(ccr.log_trans_prob_ccr(s, t))
    if v.kind == ccr.DISJOINT:
        assert v.diagnostics["metric_equivalent"] is False
        assert ccr.log_trans_prob_ccr(s, t) == -math.inf


def test_classify_rejects_stacked_pairs():
    # pair 0 has tp 0.984 and pair 1 tp 1/sqrt(2): one verdict cannot report both
    s, t = ccr.thermal_covariance([1.5, 3.0]), ccr.thermal_covariance([2.0, 1.0])
    with pytest.raises(CovarianceError, match="one pair"):
        ccr.classify_ccr(s, t)


def test_zero_dimensional_covariances_are_equivalent():
    # the CAR functions read an empty pair as tp 1 with an empty meet; CCR agrees
    empty = ccr.validate_ccr(np.zeros((0, 0)), np.zeros((0, 0)))
    assert ccr.trans_prob_ccr(empty, empty) == 1.0
    assert ccr.qe_distance_ccr(empty, empty) == (True, 0.0)
    verdict = ccr.classify_ccr(empty, empty)
    assert (verdict.kind, verdict.transition_probability) == (ccr.QUASI_EQUIVALENT, 1.0)
    stack = ccr.validate_ccr(np.zeros((3, 0, 0)), np.zeros((3, 0, 0)))
    assert ccr.trans_prob_ccr(stack, stack).tolist() == [1.0] * 3
    equiv, dist = ccr.qe_distance_ccr(stack, stack)
    assert equiv.tolist() == [True] * 3 and dist.tolist() == [0.0] * 3


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


def test_qe_distance_kernel_leak():
    # supp R_S turned by theta off supp R_T: the supports are sqrt(2) theta
    # apart, under the 1e-6 cut, and 2R_S has 2 theta on the kernel of R_T,
    # against the bound 1e-8 (1 + ||2R_S||) = 3e-8
    z = np.zeros((2, 2))
    t = ccr.validate_ccr(z, np.diag([1.0, 0.0]))
    for theta, flag in ((1e-7, False), (1e-9, True)):
        u = np.array([math.cos(theta), math.sin(theta)])
        got, dist = ccr.qe_distance_ccr(ccr.validate_ccr(z, np.outer(u, u)), t)
        assert got == flag
        assert dist == pytest.approx(theta, rel=1e-6) if flag else math.isinf(dist)


def test_qe_distance_reads_the_support_the_roots_use():
    # -1e-10 in 2R_S passes validation; the roots take it as kernel, so the
    # supports compare equal and the roots coincide
    z = np.zeros((2, 2))
    s = ccr.validate_ccr(z, np.diag([1e-3, -5e-11]))
    t = ccr.validate_ccr(z, np.diag([1e-3, 0.0]))
    assert ccr.qe_distance_ccr(s, t) == (True, 0.0)
    assert ccr.qe_distance_ccr(t, s) == (True, 0.0)


def test_qe_distance_condition_bound():
    z = np.zeros((2, 2))
    s = ccr.validate_ccr(z, np.diag([1.0, 5.0e6]))
    t = ccr.validate_ccr(z, np.diag([1.0, 5.0e-7]))
    flag, dist = ccr.qe_distance_ccr(s, t)
    assert not flag
    assert math.isinf(dist)


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


# ------------------------------------------------------------- pair reuse


def _fresh(c):
    return ccr.validate_ccr(c.sigma.copy(), c.r.copy())


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("stacked", [False, True])
def test_pair_reuse_matches_fresh_calls_bitwise(rng, stacked):
    sigma = ccr.canonical_sigma(2)
    covs = [sampling.random_ccr_covariance(rng, sigma) for _ in range(7)]
    covs.append(ccr.validate_ccr(sigma, 0.5 * np.eye(4)))  # the vacuum
    if stacked:
        covs = [ccr.validate_ccr(sigma, np.stack([a.r, b.r])) for a, b in zip(covs, covs[1:])]
    s, t, u = covs[0], covs[1], covs[2]
    twin = _fresh(t)  # a distinct partner with the same values

    def check(x, y):
        assert _same_bits(ccr.trans_prob_ccr(x, y), ccr.trans_prob_ccr(_fresh(x), _fresh(y)))
        if not stacked:
            assert ccr.classify_ccr(x, y) == ccr.classify_ccr(_fresh(x), _fresh(y))

    for x, y in ((s, t), (t, s), (s, t), (s, u), (s, t), (s, twin), (s, t), (s, s), (s, t)):
        check(x, y)
    # partners freed after use: a new one may reuse a freed object's id
    for c in covs[3:]:
        partner = _fresh(c)
        check(s, partner)
        del partner


def test_classify_twice_gives_unshared_diagnostics():
    sigma = np.zeros((3, 3))
    sigma[0, 1], sigma[1, 0] = 1.0, -1.0
    s = ccr.validate_ccr(sigma, np.diag([1.0, 1.0, 0.0]))
    t = ccr.validate_ccr(sigma, np.diag([1.0, 1.0, 1.0]))
    first = ccr.classify_ccr(s, t)
    first.diagnostics["central_witness"]["side"] = "changed"
    first.diagnostics["extra"] = 1
    second = ccr.classify_ccr(s, t)
    assert second.diagnostics is not first.diagnostics
    assert second.diagnostics["central_witness"]["side"] in ("A", "B")
    assert "extra" not in second.diagnostics
    assert second == ccr.classify_ccr(_fresh(s), _fresh(t))
    assert ccr.trans_prob_ccr(s, t) == second.transition_probability == 0.0


def test_covariances_pickle_after_pair_calls(rng):
    s, t = sampling.random_ccr_pair(rng, ccr.canonical_sigma(2))
    tp, verdict = ccr.trans_prob_ccr(s, t), ccr.classify_ccr(s, t)
    for s2, t2 in (pickle.loads(pickle.dumps((s, t))), (pickle.loads(pickle.dumps(s)), t)):
        assert np.array_equal(s2.r, s.r) and np.array_equal(t2.r, t.r)
        assert ccr.trans_prob_ccr(s2, t2) == tp and ccr.classify_ccr(s2, t2) == verdict


def test_kernel_leak_check_of_large_forms_does_not_overflow(rng):
    """Forms with entries past ~1e154 keep the flag of a moderate scaling: the leak bound's
    norms are taken on forms scaled by a power of two, so no square overflows."""
    sigma = ccr.canonical_sigma(1)
    for _ in range(10):
        s, t = sampling.random_ccr_pair(rng, sigma)
        pairs = {c: [ccr.validate_ccr(c * sigma, c * x.r) for x in (s, t)]
                 for c in (1e100, 1e160, 1e200)}
        want, _ = ccr.qe_distance_ccr(*pairs[1e100])
        for c in (1e160, 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                flag, dist = ccr.qe_distance_ccr(*pairs[c])
            assert flag == want and math.isfinite(dist), c
