"""Tests for mode families and the quasi-equivalent/disjoint sequence classifier."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasifree import car, ccr, sampling, seqmodel
from quasifree.errors import ConsistencyViolation, CovarianceError, SizeCapError


def flat_pair(delta=0.008):
    """Constant CAR pair with a small fixed per-mode distance."""
    return car.mu_covariance(0.3), car.mu_covariance(0.3 + delta)


def vacuum_vs_width(width, modes):
    """The vacuum against width ``width`` on ``modes`` modes as one pair, then the default tail."""
    pair = ccr.thermal_covariance(1.0, modes), ccr.thermal_covariance(width, modes)
    return seqmodel.literal_family(seqmodel.CCR, [pair], label=f"vacuum-vs-{width:g}x{modes}")


def mu_blocks(mu, blocks):
    """One CAR pair, ``blocks`` mu blocks against -mu blocks, then the default tail."""
    pair = [car.validate_car(np.kron(np.eye(blocks), car.mu_covariance(m).matrix))
            for m in (mu, -mu)]
    return seqmodel.literal_family(seqmodel.CAR, [pair], label=f"mu-{mu:g}x{blocks}")


# ---------------------------------------------------------------- families


def test_pair_at_index_guard():
    fam = seqmodel.car_power_family(2.0)
    with pytest.raises(ValueError, match=">= 1"):
        fam.pair_at(0)
    assert fam.pair_at(np.int64(3))[1].matrix.tolist() == fam.pair_at(3)[1].matrix.tolist()
    literal = seqmodel.literal_family(seqmodel.CAR, [flat_pair()])
    for k in (1.5, 2.0, "1"):  # not read as mode 1 or the tail
        with pytest.raises(ValueError, match="mode index must be an integer"):
            literal.pair_at(k)


def test_car_power_family_modes():
    fam = seqmodel.car_power_family(2.0)
    s1, t1 = fam.pair_at(1)
    assert np.allclose(np.linalg.eigvalsh(s1.matrix), [0.0, 1.0])  # pure reference
    assert np.allclose(t1.matrix, 0.5 * np.eye(2))  # offset collapses at k = 1
    _, t2 = fam.pair_at(2)
    assert np.allclose(sorted(np.linalg.eigvalsh(t2.matrix)), [0.125, 0.875])


def test_ccr_thermal_power_family_modes():
    fam = seqmodel.ccr_thermal_power_family(1.0)
    s2, t2 = fam.pair_at(2)
    assert np.allclose(s2.r, 0.75 * np.eye(2))  # c = 1 + 1/2
    assert np.allclose(t2.r, 0.5 * np.eye(2))


def test_literal_family_and_tail():
    pair = flat_pair()
    fam = seqmodel.literal_family(seqmodel.CAR, [pair], label="x")
    # default tail repeats the last first covariance against itself
    s, t = fam.pair_at(5)
    assert s is t
    with pytest.raises(ValueError, match="at least one"):
        seqmodel.literal_family(seqmodel.CAR, [])
    with pytest.raises(ValueError, match="kind"):
        seqmodel.literal_family("weird", [pair])


def test_literal_pair_dimensions_must_match():
    """S and T of one mode share a dimension; the error names the mode."""
    pair = (car.mu_covariance(0.1), car.validate_car(0.5 * np.eye(4)))
    with pytest.raises(CovarianceError, match="mode 1: S has dimension 2, T has 4"):
        seqmodel.literal_family(seqmodel.CAR, [pair])
    good = (car.mu_covariance(0.1), car.mu_covariance(0.2))
    with pytest.raises(CovarianceError, match="mode 3:"):  # the tail, at its first mode
        seqmodel.literal_family(seqmodel.CAR, [good, good], tail=pair)
    rule = seqmodel.ModeFamily(seqmodel.CAR, "rule", lambda k: good if k < 5 else pair)
    with pytest.raises(CovarianceError, match="mode 5:"):
        rule.stack(1, 8)


def test_concat_families_kind_guard():
    with pytest.raises(ValueError, match="kind mismatch"):
        seqmodel.concat_families(
            seqmodel.car_power_family(2.0), 4, seqmodel.ccr_thermal_power_family(2.0)
        )


def test_concat_families_n_first_guard():
    first, second = seqmodel.car_power_family(2.0), seqmodel.car_power_family(1.0)
    with pytest.raises(ValueError, match="n_first must be >= 0, got -3"):
        seqmodel.concat_families(first, -3, second)
    for n_first in (2.5, 2.0, None):
        with pytest.raises(ValueError, match="n_first must be an integer"):
            seqmodel.concat_families(first, n_first, second)
    # zero modes of the first family: the second one, mode for mode
    joined = seqmodel.concat_families(first, np.int64(0), second)
    for got, want in zip(seqmodel._term_table(joined, 64), seqmodel._term_table(second, 64)):
        assert np.array_equal(got, want)


def test_literal_family_refuses_the_other_kind():
    ccr_pair = ccr.thermal_covariance(1.0), ccr.thermal_covariance(2.0)
    car_pair = flat_pair()
    with pytest.raises(CovarianceError, match="mode 2: a ccr family got a ndarray"):
        seqmodel.literal_family(seqmodel.CCR, [ccr_pair, (np.eye(2), np.eye(2))])
    with pytest.raises(CovarianceError, match="mode 2: a ccr family got a CarCovariance"):
        seqmodel.literal_family(seqmodel.CCR, [ccr_pair], tail=car_pair)
    with pytest.raises(CovarianceError, match="mode 1: a car family got a CcrCovariance"):
        seqmodel.literal_family(seqmodel.CAR, [(car_pair[0], ccr_pair[1]), car_pair])
    rule = seqmodel.ModeFamily(seqmodel.CAR, "rule", lambda k: car_pair if k < 5 else ccr_pair)
    with pytest.raises(CovarianceError, match="mode 5: a car family got a CcrCovariance"):
        rule.stack(1, 8)


# ------------------------------------------------------- per-mode table


def pair_api_terms(family, n):
    """Per-mode (qe^2, -log tp) through the pair API, one mode at a time."""
    qe_sq, neg_log_tp = [], []
    for k in range(1, n + 1):
        s, t = family.pair_at(k)
        if family.kind == seqmodel.CAR:
            dist, log_tp = car.qe_distance_car(s, t), car.log_trans_prob_car(s, t)
        else:
            equiv, dist = ccr.qe_distance_ccr(s, t)
            assert equiv or math.isinf(dist)
            log_tp = ccr.log_trans_prob_ccr(s, t)
        qe_sq.append(dist**2)
        neg_log_tp.append(-log_tp)
    return qe_sq, neg_log_tp


def assert_table_matches_pair_api(family, n):
    table = seqmodel._term_table(family, n)
    for got, want in zip(table, pair_api_terms(family, n)):
        assert np.array_equal(got, np.array(want))


def bare_car_family():
    """A family with only a rule: the table stacks it from pair_at."""
    def rule(k):
        return car.mu_covariance(0.3), car.mu_covariance(0.3 + 0.1 / k)

    return seqmodel.ModeFamily(seqmodel.CAR, "bare", rule)


@pytest.fixture
def small_blocks(monkeypatch):
    """Blocks of 64 entries (16 2x2 or 4 4x4 modes), so short tables cross block boundaries."""
    monkeypatch.setattr(seqmodel, "BLOCK_ENTRIES", 64)


@pytest.mark.parametrize("family", [
    seqmodel.car_power_family(2.0),
    seqmodel.car_power_family(1.0),
    seqmodel.ccr_thermal_power_family(2.0),
    seqmodel.ccr_thermal_power_family(0.5),
    seqmodel.car_counterexample(),
    seqmodel.car_mu_sequence(lambda k: 0.2, lambda k: 0.2 + 0.1 * k**-1.5, label="user-mu"),
    seqmodel.ccr_thermal_sequence(lambda k: 1.0 + 2.0 / k, lambda k: 2.0, label="user-width"),
    bare_car_family(),
    vacuum_vs_width(30.0, 32),
    mu_blocks(0.45, 40),
], ids=lambda f: f.label)
def test_table_bit_identical_to_pair_api(family, small_blocks):
    assert_table_matches_pair_api(family, 40)


def test_table_crosses_default_blocks():
    fam = seqmodel.car_power_family(1.5)
    assert_table_matches_pair_api(fam, seqmodel.BLOCK_ENTRIES // 4 + 9)


def mixed_literal(rng, dims, tail_dim):
    """CAR literal family of random pairs of dimensions ``dims``, tail of ``tail_dim``."""
    pairs = [sampling.random_car_pair(rng, d) for d in dims]
    tail = sampling.random_car_pair(rng, tail_dim)
    return seqmodel.literal_family(seqmodel.CAR, pairs, tail=tail, label=f"mixed-{tail_dim}")


def test_table_bit_identical_across_budgets(rng, monkeypatch):
    """Terms do not depend on how the modes are cut into pair-function calls."""
    families = [
        seqmodel.car_power_family(2.0),
        seqmodel.car_power_family(1.0),
        seqmodel.ccr_thermal_power_family(2.0),
        seqmodel.ccr_thermal_power_family(0.5),
        seqmodel.car_counterexample(),
        mixed_literal(rng, (2, 4, 8, 32, 6, 2, 16, 4) * 4, 4),
    ]
    n = 4096
    default = [seqmodel._term_table(fam, n) for fam in families]
    monkeypatch.setattr(seqmodel, "BLOCK_ENTRIES", 100)
    for fam, want in zip(families, default):
        for got, ref in zip(seqmodel._term_table(fam, n), want):
            assert np.array_equal(got, ref), fam.label


def spy_on_pair_calls(monkeypatch):
    """Record (function, modes, stacked entries) of every pair-function call."""
    calls = []

    def spy(module, name):
        inner = getattr(module, name)

        def wrapped(s, t):
            m = s.matrix if isinstance(s, car.CarCovariance) else s.r
            calls.append((name, math.prod(m.shape[:-2]), m.size))
            return inner(s, t)

        monkeypatch.setattr(module, name, wrapped)

    for module, name in ((car, "qe_distance_car"), (car, "log_trans_prob_car"),
                         (ccr, "qe_distance_ccr"), (ccr, "log_trans_prob_ccr")):
        spy(module, name)
    return calls


def block_rule_family(d):
    """CAR rule family of d x d modes, d/2 mu blocks each, no two modes alike."""
    def rule(k):
        return tuple(car.validate_car(np.kron(np.eye(d // 2), car.mu_covariance(m).matrix))
                     for m in (0.3, 0.3 + 0.1 / k))

    return seqmodel.ModeFamily(seqmodel.CAR, f"blocks-{d}", rule)


@pytest.mark.parametrize("d", [2, 4, 8, 32])
def test_pair_calls_stay_within_the_budget(rng, monkeypatch, d):
    """A window sized for 2x2 modes that meets d x d modes is cut into chunks,
    and later windows are sized for d; every mode is evaluated once."""
    fam = seqmodel.concat_families(mixed_literal(rng, (2, d, 2), d), 3, block_rule_family(d))
    assert fam.tail_from is None  # all modes distinct: the scan evaluates each one
    per_call = seqmodel.BLOCK_ENTRIES // d**2
    n = seqmodel.BLOCK_ENTRIES // 4 + 2 * per_call + 5
    calls, windows = spy_on_pair_calls(monkeypatch), []
    stack = seqmodel.ModeFamily.stack

    def spy_stack(self, lo, hi):
        if self is fam:  # not the pieces' own windows
            windows.append(hi - lo + 1)
        return stack(self, lo, hi)

    monkeypatch.setattr(seqmodel.ModeFamily, "stack", spy_stack)
    seqmodel._term_table(fam, n)
    assert max(size for _, _, size in calls) <= seqmodel.BLOCK_ENTRIES
    assert windows[0] == seqmodel.BLOCK_ENTRIES // 4 and max(windows[1:]) <= per_call
    for name in ("qe_distance_car", "log_trans_prob_car"):
        assert sum(modes for f, modes, _ in calls if f == name) == n


def test_windows_shrink_back_after_a_large_mode(rng, monkeypatch):
    """One 32 x 32 mode sizes only the window after its own: later 2 x 2
    windows take 1024 modes again, and every mode keeps its pair-API terms."""
    s = sampling.random_car_pair(rng, 32)[0]
    fam = seqmodel.concat_families(seqmodel.literal_family(seqmodel.CAR, [(s, s)]), 1,
                                   seqmodel.car_power_family(1.0))
    windows = []
    stack = seqmodel.ModeFamily.stack

    def spy_stack(self, lo, hi):
        if self is fam:
            windows.append(hi - lo + 1)
        return stack(self, lo, hi)

    monkeypatch.setattr(seqmodel.ModeFamily, "stack", spy_stack)
    seqmodel._term_table(fam, 4096)
    assert windows == [1024, 4, 1024, 1024, 1020]
    assert_table_matches_pair_api(fam, 1100)


def test_one_pair_call_per_2x2_scan_at_n_max_1024(monkeypatch):
    calls = spy_on_pair_calls(monkeypatch)
    for fam in (seqmodel.car_power_family(1.0), seqmodel.ccr_thermal_power_family(2.0)):
        seqmodel.classify_sequence(fam, n_max=1024)
    assert sorted(name for name, _, _ in calls) == [
        "log_trans_prob_car", "log_trans_prob_ccr", "qe_distance_car", "qe_distance_ccr"]


def scan_working_memory(fam):
    """Traced peak of a scan at n = 4096 and 65536, less the table's 16 bytes per mode."""
    seqmodel._term_table(fam, seqmodel.MIN_N_MAX)  # imports and caches outside the trace
    extra = {}
    for n in (4096, 65536):
        tracemalloc.start()
        try:
            seqmodel._term_table(fam, n)
            extra[n] = tracemalloc.get_traced_memory()[1] - 16 * n
        finally:
            tracemalloc.stop()
    return extra


def test_scan_working_memory_does_not_grow_with_n():
    """Beyond the table's own 16 bytes per mode, a scan holds one block at a time."""
    extra = scan_working_memory(seqmodel.ccr_thermal_power_family(2.0))
    assert extra[65536] <= 1.05 * extra[4096]


def ccr_mixed_supports():
    """Vacuum, thermal and degenerate-sigma pairs, one with a central witness, twice over.

    Supports of rank 0 to 3 run the rank-grouped paths, the 3-mode pair runs
    the witness branch, and the support-gap pair fails metric equivalence.
    """
    z = np.zeros((2, 2))
    sigma3 = np.zeros((3, 3))
    sigma3[0, 1], sigma3[1, 0] = 1.0, -1.0
    pairs = [
        (ccr.thermal_covariance(1.0), ccr.thermal_covariance(2.0)),
        (ccr.thermal_covariance(1.5), ccr.thermal_covariance(3.0)),
        (ccr.thermal_covariance(1.0), ccr.thermal_covariance(1.0)),
        (ccr.validate_ccr(z, np.diag([1.0, 0.5])), ccr.validate_ccr(z, np.diag([0.5, 2.0]))),
        (ccr.validate_ccr(z, np.diag([1.0, 0.0])), ccr.validate_ccr(z, np.diag([2.0, 0.0]))),
        (ccr.validate_ccr(z, np.diag([1.0, 0.0])), ccr.validate_ccr(z, np.diag([1.0, 1.0]))),
        (ccr.validate_ccr(z, z), ccr.validate_ccr(z, z)),
        (ccr.validate_ccr(sigma3, np.diag([1.0, 1.0, 0.0])),
         ccr.validate_ccr(sigma3, np.diag([1.0, 1.0, 1.0]))),
    ]
    return seqmodel.literal_family(seqmodel.CCR, pairs * 2, label="ccr-mixed")


def tail_families(rng):
    """Literal families of short and long tails, and both orders of a concatenation."""
    lit = mixed_literal(rng, (2, 4, 8, 32, 6, 2, 16, 4), 4)
    return [
        seqmodel.car_counterexample(),
        mixed_literal(rng, (2, 4, 8, 32, 6, 2, 16, 4) * 4, 32),
        vacuum_vs_width(30.0, 32),
        ccr_mixed_supports(),
        seqmodel.concat_families(seqmodel.car_power_family(1.0), 10, lit),
        seqmodel.concat_families(lit, 5, seqmodel.car_power_family(1.0)),
    ]


def test_tail_from_of_literals_and_concatenations(rng):
    lit = mixed_literal(rng, (2, 4, 8), 4)
    assert lit.tail_from == 4
    assert seqmodel.concat_families(seqmodel.car_power_family(1.0), 10, lit).tail_from == 14
    # a rule after a literal: its modes are not one pair, whatever precedes them
    assert seqmodel.concat_families(lit, 10, seqmodel.car_power_family(1.0)).tail_from is None
    assert seqmodel.car_power_family(1.0).tail_from is None
    assert bare_car_family().tail_from is None


@pytest.mark.parametrize("n", [1, 40, 200])
def test_tail_terms_bit_identical(rng, n):
    """Copied tail terms are the pair API's and a written-out tail's own bits."""
    for fam in tail_families(rng):
        assert_table_matches_pair_api(fam, n)
        written = seqmodel.literal_family(
            fam.kind, [fam.pair_at(k) for k in range(1, n + 1)], tail=fam.pair_at(n + 1))
        for got, want in zip(seqmodel._term_table(fam, n), seqmodel._term_table(written, n)):
            assert np.array_equal(got, want), fam.label


@pytest.mark.parametrize("n", [1, 2, 3, 40, 1024, seqmodel.N_MAX_CAP])
def test_pair_functions_see_modes_up_to_tail_from(rng, monkeypatch, n):
    families = tail_families(rng)
    calls = spy_on_pair_calls(monkeypatch)
    for fam in families:
        calls.clear()
        table = seqmodel._term_table(fam, n)
        want = n if fam.tail_from is None else min(n, fam.tail_from)
        for name in (f"qe_distance_{fam.kind}", f"log_trans_prob_{fam.kind}"):
            assert sum(modes for f, modes, _ in calls if f == name) == want, fam.label
        for terms in table:
            assert (terms[want:] == terms[want - 1]).all()


@pytest.mark.parametrize("make", [
    lambda rng: vacuum_vs_width(30.0, 32),
    lambda rng: mixed_literal(rng, (2, 4, 8, 32, 6, 2, 16, 4) * 4, 32),
], ids=["vacuum-vs-30x32", "car-tail-32x32"])
def test_literal_scan_memory_does_not_grow_with_n(rng, make):
    """A literal's listed pairs are evaluated once, whatever n: beyond the
    table's 16 bytes per mode, the peak stays small and does not grow."""
    extra = scan_working_memory(make(rng))
    # stacking 1024 copies of the tail would hold 32 MiB (CAR) or 128 MiB (CCR)
    assert extra[4096] < 4 * 2**20
    assert extra[65536] <= 1.05 * extra[4096]


def test_table_literal_mixed_dimensions(rng, small_blocks):
    pairs = [sampling.random_car_pair(rng, 2 * (1 + i % 3)) for i in range(9)]
    fam = seqmodel.literal_family(seqmodel.CAR, pairs, tail=pairs[1])
    groups = fam.stack(1, 12)
    assert sorted(s.dim for _, s, _ in groups) == [2, 4, 6]
    assert sorted(np.concatenate([m for m, _, _ in groups]).tolist()) == list(range(1, 13))
    assert_table_matches_pair_api(fam, 16)


def test_table_concat_stacked_then_fallback(small_blocks):
    fam = seqmodel.concat_families(seqmodel.car_power_family(2.0), 10, bare_car_family())
    assert_table_matches_pair_api(fam, 25)


def test_table_ccr_literal_mixed_supports(small_blocks):
    fam = ccr_mixed_supports()
    qe_sq, neg_log_tp = seqmodel._term_table(fam, 18)
    assert math.isinf(qe_sq[5]) and math.isinf(neg_log_tp[7])  # support gap, central witness
    assert_table_matches_pair_api(fam, 18)


def test_table_does_not_call_pair_at(monkeypatch, rng):
    families = [
        seqmodel.car_power_family(2.0),
        seqmodel.ccr_thermal_power_family(2.0),
        seqmodel.car_mu_sequence(lambda k: 0.1, lambda k: 0.1 + 0.3 / k),
    ]

    def fail(self, k):
        raise AssertionError("pair_at called")

    monkeypatch.setattr(seqmodel.ModeFamily, "pair_at", fail)
    for fam in families:
        seqmodel.classify_sequence(fam, n_max=seqmodel.MIN_N_MAX)
    monkeypatch.undo()

    # a literal scan reads each listed pair and the tail through pair_at, once
    literals = [
        seqmodel.car_counterexample(),
        seqmodel.literal_family(seqmodel.CAR, [sampling.random_car_pair(rng, 4)]),
        mixed_literal(rng, (2, 4, 8, 32, 6, 2, 16, 4) * 4, 32),
        ccr_mixed_supports(),
    ]
    calls = []
    pair_at = seqmodel.ModeFamily.pair_at

    def spy(self, k):
        calls.append(k)
        return pair_at(self, k)

    monkeypatch.setattr(seqmodel.ModeFamily, "pair_at", spy)
    monkeypatch.setattr(seqmodel, "BLOCK_ENTRIES", 64)  # windows of 16 2x2 modes or fewer
    for fam in literals:
        for n in (1, 2, 3, 16, 17, 40, 64, seqmodel.N_MAX_CAP):
            calls.clear()
            seqmodel._term_table(fam, n)
            assert calls == list(range(1, min(n, fam.tail_from) + 1)), (fam.label, n)


def test_n_max_cap():
    fam = seqmodel.car_power_family(2.0)
    with pytest.raises(SizeCapError, match="cap"):
        seqmodel.classify_sequence(fam, n_max=seqmodel.N_MAX_CAP + 1)
    with pytest.raises(SizeCapError):
        seqmodel.partial_qe_sum(fam, seqmodel.N_MAX_CAP + 1)


def test_stack_range_guard():
    with pytest.raises(ValueError, match="lo"):
        seqmodel.car_power_family(2.0).stack(3, 2)


# ------------------------------------------------------------- partial sums


def test_partial_sums_match_per_mode_values():
    fam = seqmodel.car_power_family(2.0)
    s1, t1 = fam.pair_at(1)
    one = seqmodel.partial_qe_sum(fam, 1)
    assert one == car.qe_distance_car(s1, t1) ** 2
    tp1 = seqmodel.partial_log_tp(fam, 1)
    assert tp1 == -car.log_trans_prob_car(s1, t1)


def test_partial_sums_nondecreasing():
    fam = seqmodel.car_power_family(1.0)
    vals = [seqmodel.partial_qe_sum(fam, n) for n in (1, 2, 4, 8, 16, 32)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        seqmodel.partial_qe_sum(fam, 0)


def test_partial_sums_absorb_infinity():
    ce = seqmodel.car_counterexample()
    assert math.isinf(seqmodel.partial_log_tp(ce, 1))
    assert math.isinf(seqmodel.partial_log_tp(ce, 30))
    # the qe side stays finite: mode 1 contributes exactly 2, the tail nothing
    assert seqmodel.partial_qe_sum(ce, 50) == pytest.approx(2.0, abs=1e-12)


def test_block_additivity_within_rounding():
    f1 = seqmodel.car_power_family(2.0)
    f2 = seqmodel.car_power_family(1.0)
    cat = seqmodel.concat_families(f1, 10, f2)
    # per-mode terms of the concatenation are bit-identical to the pieces'
    cat_terms = seqmodel._term_table(cat, 25)
    for got, head, tail in zip(cat_terms, seqmodel._term_table(f1, 10),
                               seqmodel._term_table(f2, 15)):
        assert np.array_equal(got, np.concatenate([head, tail]))
    lhs = seqmodel.partial_qe_sum(cat, 25)
    rhs = seqmodel.partial_qe_sum(f1, 10) + seqmodel.partial_qe_sum(f2, 15)
    assert abs(lhs - rhs) <= 2.0 * math.ulp(max(lhs, rhs))
    lhs_tp = seqmodel.partial_log_tp(cat, 25)
    rhs_tp = seqmodel.partial_log_tp(f1, 10) + seqmodel.partial_log_tp(f2, 15)
    assert abs(lhs_tp - rhs_tp) <= 2.0 * math.ulp(max(lhs_tp, rhs_tp))


# --------------------------------------------------------------- classifier


def test_classifier_guards():
    with pytest.raises(ValueError, match="at least"):
        seqmodel.classify_sequence(seqmodel.car_power_family(2.0), n_max=32)


@pytest.mark.parametrize("count", [64.5, 128.0, math.nan])
@pytest.mark.parametrize("api, arg", [("classify_sequence", "n_max"),
                                      ("partial_qe_sum", "n"), ("partial_log_tp", "n")])
def test_mode_count_must_be_an_integer(monkeypatch, api, arg, count):
    fam = seqmodel.car_power_family(2.0)
    exact = getattr(seqmodel, api)(fam, 128)
    assert getattr(seqmodel, api)(fam, np.int64(128)) == exact
    monkeypatch.setattr(seqmodel, "_term_table", lambda *a: pytest.fail("table built"))
    with pytest.raises(ValueError, match=f"^{arg} must be an integer"):
        getattr(seqmodel, api)(fam, **{arg: count})


def test_classifier_trace_equals_public_sums():
    fam = seqmodel.car_power_family(2.0)
    v = seqmodel.classify_sequence(fam, n_max=64)
    assert v.checkpoints == (8, 16, 32, 64)
    assert v.n_used == 64
    for c, qe, tp in zip(v.checkpoints, v.qe_partial_sums, v.neg_log_tp_partial_sums):
        assert qe == seqmodel.partial_qe_sum(fam, c)
        assert tp == seqmodel.partial_log_tp(fam, c)


def test_classifier_car_convergent():
    v = seqmodel.classify_sequence(seqmodel.car_power_family(2.0), n_max=2048)
    assert v.kind == ccr.QUASI_EQUIVALENT
    assert v.reason == seqmodel.HS_CONVERGENT
    # one pair with tp 3.8e-15 and an empty meet adds a finite -log tp term
    fam = mu_blocks(0.45, 40)
    v = seqmodel.classify_sequence(fam, n_max=64)
    assert (v.kind, v.reason) == (ccr.QUASI_EQUIVALENT, seqmodel.HS_CONVERGENT)
    s, t = fam.pair_at(1)
    assert car.meet_criterion(s, t) == 0
    assert v.neg_log_tp_partial_sums == (33.214624136433024,) * 4
    assert -car.log_trans_prob_car(s, t) == 33.214624136433024


def test_classifier_car_divergent():
    v = seqmodel.classify_sequence(seqmodel.car_power_family(1.0), n_max=2048)
    assert v.kind == ccr.DISJOINT
    assert v.reason == seqmodel.HS_DIVERGENCE


def test_classifier_ccr_convergent():
    v = seqmodel.classify_sequence(seqmodel.ccr_thermal_power_family(2.0), n_max=1024)
    assert v.kind == ccr.QUASI_EQUIVALENT
    assert v.reason == ccr.POSITIVE_TRANSITION_PROBABILITY
    # one many-mode pair with tp 9.0e-20, and one whose tp underflows to 0.0:
    # no central element, so finite -log tp terms that agree with the qe sums
    for fam, neg_log_tp in ((vacuum_vs_width(30.0, 32), 43.85344038280322),
                            (vacuum_vs_width(1e9, 80), 801.2047462954588)):
        v = seqmodel.classify_sequence(fam, n_max=64)
        assert (v.kind, v.reason) == (ccr.QUASI_EQUIVALENT, ccr.POSITIVE_TRANSITION_PROBABILITY)
        assert v.neg_log_tp_partial_sums == (neg_log_tp,) * 4
        assert -ccr.log_trans_prob_ccr(*fam.pair_at(1)) == neg_log_tp


def test_classifier_ccr_divergent():
    v = seqmodel.classify_sequence(seqmodel.ccr_thermal_power_family(0.5), n_max=1024)
    assert v.kind == ccr.DISJOINT
    assert v.reason == seqmodel.HS_DIVERGENCE
    assert not math.isinf(v.qe_partial_sums[-1])


def test_classifier_counterexample_family():
    """Orthogonal first mode: transition product 0, yet quasi-equivalent."""
    fam = seqmodel.car_counterexample()
    v = seqmodel.classify_sequence(fam, n_max=256)
    assert v.kind == ccr.QUASI_EQUIVALENT
    assert v.reason == seqmodel.HS_CONVERGENT
    assert math.isinf(v.neg_log_tp_partial_sums[-1])
    s1, t1 = fam.pair_at(1)
    assert car.trans_prob_car(s1, t1) == 0.0
    assert car.meet_criterion(s1, t1) == 2


def test_classifier_inconclusive_window():
    # constant per-mode term ~1e-4: the 32-mode window adds ~3e-3, inside
    # the [eps, 10 eps) dead band
    pair = flat_pair(0.008)
    fam = seqmodel.literal_family(seqmodel.CAR, [pair], tail=pair, label="flat")
    v = seqmodel.classify_sequence(fam, n_max=64)
    assert v.kind == seqmodel.INCONCLUSIVE
    assert v.reason == seqmodel.INCONCLUSIVE


def test_classifier_same_family_longer_window_decides():
    # the same constant family at a longer window accumulates enough to call
    pair = flat_pair(0.008)
    fam = seqmodel.literal_family(seqmodel.CAR, [pair], tail=pair, label="flat")
    v = seqmodel.classify_sequence(fam, n_max=4096)
    assert v.kind == ccr.DISJOINT


def test_classifier_consistency_violation_on_degenerate_form():
    """sigma = 0 splits the criteria; the classifier must refuse, not guess."""
    z = np.zeros((2, 2))
    pair = (
        ccr.validate_ccr(z, np.diag([0.5, 1.0])),
        ccr.validate_ccr(z, np.diag([2.0, 0.25])),
    )
    fam = seqmodel.literal_family(seqmodel.CCR, [pair], tail=pair, label="flat-ccr")
    with pytest.raises(ConsistencyViolation, match="disagree|convergent"):
        seqmodel.classify_sequence(fam, n_max=64)


def test_classifier_wide_first_mode_on_canonical_sigma():
    # the vacuum against width 1e10 has tp sqrt(2/(1 + 1e10)) = 1.4e-5 > 0:
    # on a sigma with no centre nothing separates the states
    pair = (ccr.thermal_covariance(1.0), ccr.thermal_covariance(1e10))
    tail = (ccr.thermal_covariance(2.0),) * 2
    fam = seqmodel.literal_family(seqmodel.CCR, [pair], tail=tail, label="wide-first")
    v = seqmodel.classify_sequence(fam, n_max=64)
    assert (v.kind, v.reason) == (ccr.QUASI_EQUIVALENT, ccr.POSITIVE_TRANSITION_PROBABILITY)
    assert v.neg_log_tp_partial_sums[-1] == pytest.approx(0.5 * math.log((1.0 + 1e10) / 2.0),
                                                          rel=1e-12)


def test_classifier_support_mismatch_reason():
    # a CCR tail failing metric equivalence drives the qe sums to +inf
    z = np.zeros((2, 2))
    pair = (
        ccr.validate_ccr(z, np.diag([1.0, 0.0])),
        ccr.validate_ccr(z, np.diag([1.0, 1.0])),
    )
    fam = seqmodel.literal_family(seqmodel.CCR, [pair], tail=pair, label="support-gap")
    v = seqmodel.classify_sequence(fam, n_max=64)
    assert v.kind == ccr.DISJOINT
    assert v.reason == ccr.SUPPORT_MISMATCH
    assert math.isinf(v.qe_partial_sums[-1])


# ------------------------------------------------------------ the dichotomy


def rotated_thermal_family(m, s_law, t_law, seed):
    """CCR family on m modes of the canonical (non-degenerate) sigma.

    S_k and T_k are thermal products of widths 1 + a_j k^-p_j, for the laws
    (a, p) of each, turned by a fixed random passive rotation each: the
    orthogonal symplectic [[Re U, -Im U], [Im U, Re U]] of a unitary U.
    """
    rng = np.random.default_rng(seed)
    sigma = ccr.canonical_sigma(m)
    rotations = []
    for _ in range(2):
        u = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        rotations.append(np.block([[u.real, -u.imag], [u.imag, u.real]]))

    def forms(lo, hi):
        k = np.arange(lo, hi + 1.0)[:, None]
        covs = []
        for (a, p), o in zip((s_law, t_law), rotations):
            c = np.tile(1.0 + np.asarray(a) * k ** -np.asarray(p), 2)
            covs.append(ccr.validate_ccr(sigma, (o * (0.5 * c)[:, None, :]) @ o.T))
        return covs

    return seqmodel.ModeFamily(
        seqmodel.CCR, f"rotated-thermal-{m}",
        rule=lambda k: tuple(seqmodel._take(c, 0) for c in forms(k, k)),
        stacker=lambda lo, hi: [(np.arange(lo, hi + 1), *forms(lo, hi))],
    )


@st.composite
def rotated_thermal_families(draw):
    m = draw(st.integers(1, 3))
    law = st.tuples(st.lists(st.floats(0.0, 2.0), min_size=m, max_size=m),
                    st.lists(st.floats(0.5, 4.0), min_size=m, max_size=m))
    return rotated_thermal_family(m, draw(law), draw(law), draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fam=rotated_thermal_families(), n_max=st.sampled_from([64, 256]))
# one family of each verdict: summable against the vacuum, and k^-1/2 against it
@example(fam=rotated_thermal_family(2, ([1.0, 0.5], [3.0, 4.0]), ([0.0, 0.0], [1.0, 1.0]), 0),
         n_max=256)
@example(fam=rotated_thermal_family(2, ([1.0, 2.0], [0.5, 0.5]), ([0.0, 0.0], [1.0, 1.0]), 1),
         n_max=64)
# mode 1 of widths 1 + 1e10 and 1 + 3e10 against the vacuum: far apart, not disjoint
@example(fam=rotated_thermal_family(2, ([1e10, 3e10], [40.0, 40.0]), ([0.0, 0.0], [1.0, 1.0]), 2),
         n_max=64)
def test_dichotomy_on_rotated_thermal_families(fam, n_max):
    """Quasi-equivalent unless disjoint: on a non-degenerate sigma both criteria agree."""
    verdict = seqmodel.classify_sequence(fam, n_max)  # a ConsistencyViolation fails here
    half = n_max // 2
    classes = {seqmodel._series_class(math.fsum(terms[:half].tolist()),
                                      math.fsum(terms.tolist()), float(terms[-1]), n_max - half)
               for terms in seqmodel._term_table(fam, n_max)}
    want = {"convergent": ccr.QUASI_EQUIVALENT, "divergent": ccr.DISJOINT}
    if "inconclusive" in classes:
        assert verdict.kind == seqmodel.INCONCLUSIVE
    else:
        assert len(classes) == 1 and verdict.kind == want[classes.pop()]


# ------------------------------------------------------ built-in array rules

POWERS = (0.5, 1, 1.1, 1.3, 2, 3)


@pytest.mark.parametrize("p", POWERS)
def test_inverse_power_has_the_bits_of_python_pow(p):
    ks = range(1, (1 << 20) + 1)
    want = np.array([k**-p for k in ks])
    assert seqmodel._inverse_power(ks, p).tobytes() == want.tobytes()


def _rule_values(fam, lo, hi):
    """The values a built-in rule gave modes lo..hi, read exactly off its stacked covariances."""
    (_, s, t), = fam.stack(lo, hi)
    if fam.kind == seqmodel.CAR:  # A[1, 0] = mu
        return s.matrix.imag[:, 1, 0], t.matrix.imag[:, 1, 0]
    return 2.0 * s.r[:, 0, 0], 2.0 * t.r[:, 0, 0]  # R = (c/2) I


@pytest.mark.parametrize("p", POWERS)
def test_builtin_rules_keep_the_scalar_bits(p):
    families = ((seqmodel.car_power_family(p), lambda k: 0.5, lambda k: 0.5 * (1.0 - k**-p)),
                (seqmodel.ccr_thermal_power_family(p), lambda k: 1.0 + k**-p, lambda k: 1.0))
    top = 1 << 20
    for fam, f, g in families:
        for lo, hi in ((1, 1024), (top - 1023, top), (777_777, 778_800)):
            got = _rule_values(fam, lo, hi)
            for values, h in zip(got, (f, g)):
                want = np.array([h(k) for k in range(lo, hi + 1)])
                assert values.tobytes() == want.tobytes(), (fam.label, lo)
        for k in (1, 2, 7, 1000, top):
            single = _rule_values(seqmodel.literal_family(fam.kind, [fam.pair_at(k)]), 1, 1)
            assert [x.tobytes() for x in single] == [np.array([f(k)]).tobytes(),
                                                     np.array([g(k)]).tobytes()], (fam.label, k)


def test_user_rules_are_called_once_per_mode_and_index():
    calls = []

    def mu(k):
        calls.append(k)
        return 0.3

    fam = seqmodel.car_mu_sequence(mu, lambda k: 0.3 + 0.01 / k)
    seqmodel._term_table(fam, 100)
    assert calls == list(range(1, 101))
    calls.clear()
    s, _ = fam.pair_at(7)
    assert calls == [7] and s.matrix.shape == (2, 2)


# ------------------------------------------------- checkpoint sums of stated tails

TAIL_TERMS = (0.0, -0.0, 5e-324, 3.1e-310, math.inf, 0.1, 1e-17, 12345.678)


@pytest.mark.parametrize("n", [64, 1024, 4096, 1 << 20])
def test_prefix_sums_of_a_tail_equal_the_plain_fsum(rng, n):
    big = n == 1 << 20  # fewer cases: each plain fsum reads a million terms
    checkpoints = (n,) if big else (n // 8, n // 4, n // 2, n - 1, n)
    for tail_from in (5, n // 3) if big else (1, 5, n // 3, n, n + 10):
        m = min(n, tail_from)
        head = rng.uniform(0.0, 1.0, m - 1) * 10.0 ** rng.integers(-20, 3, m - 1)
        randoms = () if big else (*rng.uniform(0.0, 2.0, 3), *10.0 ** rng.uniform(-300, 3, 3))
        for t in (*TAIL_TERMS, *randoms):
            terms = np.concatenate([head, np.full(n - m + 1, t)])
            for c in checkpoints:
                want = math.fsum(terms[:c].tolist())
                assert seqmodel._prefix_sum(terms, c, tail_from).hex() == want.hex(), (t, c)


def _stated_tail_families(rng):
    """Literal and concatenated-literal families whose tail terms are 0, subnormal or +inf."""
    pure, tiny = car.mu_covariance(0.5), car.mu_covariance(1e-160)
    zero = car.mu_covariance(0.0)
    pairs = [tuple(car.mu_covariance(m) for m in rng.uniform(-0.5, 0.5, 2)) for _ in range(9)]
    lits = [seqmodel.literal_family(seqmodel.CAR, pairs),
            seqmodel.literal_family(seqmodel.CAR, pairs, tail=(zero, tiny)),  # subnormal qe^2
            seqmodel.literal_family(seqmodel.CAR, pairs, tail=(pure, car.mu_covariance(-0.5))),
            seqmodel.literal_family(seqmodel.CAR, pairs, tail=pairs[3])]
    return [seqmodel.car_counterexample(), *lits,
            seqmodel.concat_families(seqmodel.car_power_family(1.0), 30, lits[1]),
            seqmodel.concat_families(lits[3], 4, lits[2])]


@pytest.mark.parametrize("n", [64, 1024, 4096, 1 << 20])
def test_stated_tail_sums_equal_the_plain_fsum(rng, n):
    families = _stated_tail_families(rng)
    assert 0.0 < seqmodel._term_table(families[2], 64)[0][-1] < 2.3e-308  # a subnormal tail
    for fam in families:
        v = seqmodel.classify_sequence(fam, n)
        qe, tp = seqmodel._term_table(fam, n)
        for terms, sums in ((qe, v.qe_partial_sums), (tp, v.neg_log_tp_partial_sums)):
            want = [math.fsum(terms[:c].tolist()).hex() for c in v.checkpoints]
            assert [x.hex() for x in sums] == want, fam.label
        assert seqmodel.partial_log_tp(fam, n - 3).hex() == math.fsum(tp[:n - 3].tolist()).hex()
        assert seqmodel.partial_qe_sum(fam, n).hex() == math.fsum(qe.tolist()).hex()
