"""Infinite products of quasi-free states, truncated to finite mode sequences.

A :class:`ModeFamily` is a rule k -> (S_k, T_k) of same-kind covariance pairs,
one independent mode per index. Quasi-equivalence of the product states is
decided by summability of per-mode quasi-equivalence distances; disjointness
by divergence (equivalently, by the transition probability product collapsing
to zero). The classifier reports partial sums at checkpoints and is explicit
about inconclusiveness when the window is too short to call. All three
sequence APIs read one table of per-mode terms, filled a block of modes at a
time from stacked covariances (see :func:`_term_table`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from itertools import repeat
from typing import Callable

import numpy as np

from . import car, ccr
from .errors import ConsistencyViolation, CovarianceError, SizeCapError
from .tolerances import DIVERGENCE_FACTOR, WINDOW_EPS

__all__ = [
    "CAR",
    "CCR",
    "HS_CONVERGENT",
    "HS_DIVERGENCE",
    "INCONCLUSIVE",
    "ModeFamily",
    "SequenceVerdict",
    "car_counterexample",
    "car_mu_sequence",
    "car_power_family",
    "ccr_thermal_power_family",
    "ccr_thermal_sequence",
    "classify_sequence",
    "concat_families",
    "literal_family",
    "partial_log_tp",
    "partial_qe_sum",
]

CAR = "car"
CCR = "ccr"

INCONCLUSIVE = "Inconclusive"
HS_CONVERGENT = "HSConvergent"
HS_DIVERGENCE = "HSDivergence"

DEFAULT_N_MAX = 4096
MIN_N_MAX = 64
# Stacked matrix entries (modes x d^2) per table call: 1024 2x2 or 256 4x4 modes.
BLOCK_ENTRIES = 4096
# Largest mode count the sequence APIs evaluate (SizeCapError above it); README gives
# what a scan at the cap takes.
N_MAX_CAP = 1 << 20


@dataclass(frozen=True)
class ModeFamily:
    """Rule-based sequence of independent covariance pairs of one kind.

    ``stacker(lo, hi)``, if given, returns what :meth:`stack` does, built
    without ``pair_at``; without it, :meth:`stack` calls ``pair_at`` once per
    mode and checks each pair (:func:`_checked_pair`). ``tail_from``, if given,
    is a mode from which on every mode is the same pair; scans evaluate the
    modes up to it only.
    """

    kind: str
    label: str
    rule: Callable[[int], tuple]
    stacker: Callable[[int, int], list] | None = None
    tail_from: int | None = None

    def pair_at(self, k: int):
        """The (S_k, T_k) pair at mode index k >= 1."""
        return self.rule(_mode_count(k, "mode index", 1))

    def stack(self, lo: int, hi: int) -> list:
        """Modes lo..hi as stacked covariances: a list of (modes, S, T), one per dimension."""
        if lo < 1 or hi < lo:
            raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
        if self.stacker is not None:
            return self.stacker(lo, hi)
        groups: dict = {}  # dimension -> (mode, S, T) of each of its pairs
        for k in range(lo, hi + 1):
            s, t = _checked_pair(self.kind, k, self.pair_at(k))
            groups.setdefault(s.dim, []).append((k, s, t))
        return [(np.array(m), _stack(s), _stack(t)) for m, s, t in
                (zip(*grp) for grp in groups.values())]


def _checked_pair(kind: str, key: int, pair) -> tuple:
    """The pair at mode ``key`` as covariances of ``kind``: CovarianceError naming the
    mode for a covariance of the other kind or an S and T of different dimension."""
    for c in pair:
        if isinstance(c, ccr.CcrCovariance) != (kind == CCR):
            raise CovarianceError(f"mode {key}: a {kind} family got a {type(c).__name__}")
    # CAR pair functions also take bare matrices; validate them as the pair API does
    s, t = (car._as_covariance(c) if kind == CAR else c for c in pair)
    if s.dim != t.dim:
        raise CovarianceError(f"mode {key}: S has dimension {s.dim}, T has {t.dim}")
    return s, t


def _stack(covs):
    """One stacked covariance from covariances of one type and dimension."""
    cls = type(covs[0])
    return cls(*(np.stack([getattr(c, f.name) for c in covs]) for f in fields(cls)))


def _take(cov, rows: np.ndarray):
    """The covariances at ``rows`` of a stacked covariance."""
    return type(cov)(*(getattr(cov, f.name)[rows] for f in fields(cov)))


def _array_rule_family(kind: str, make, f, g, label: str) -> ModeFamily:
    """Pairs (make(f(ks)), make(g(ks))) for a range ks of mode indices, f and g giving
    one value per index; ``pair_at(k)`` takes the value of ``range(k, k + 1)``."""

    def stacker(lo: int, hi: int) -> list:
        ks = range(lo, hi + 1)
        return [(np.arange(lo, hi + 1), make(f(ks)), make(g(ks)))]

    def rule(k: int) -> tuple:
        return make(f(range(k, k + 1))[0]), make(g(range(k, k + 1))[0])

    return ModeFamily(kind, label, rule, stacker)


def _each(h):
    """The array rule of a scalar one: h(k) for each mode index k."""
    return lambda ks: np.array([h(k) for k in ks])


def _inverse_power(ks: range, p) -> np.ndarray:
    """k^-p by libm's pow, the bits of Python's ``k**-p``: numpy's ``**`` differs on ~5%."""
    return np.fromiter(map(math.pow, ks, repeat(-p)), float, len(ks))


def car_mu_sequence(mu, nu, label: str = "car-mu") -> ModeFamily:
    """CAR family of 2-dim modes with eigenvalue offsets mu(k) vs nu(k)."""
    return _array_rule_family(CAR, car.mu_covariance, _each(mu), _each(nu), label)


def ccr_thermal_sequence(c1, c2, label: str = "ccr-thermal") -> ModeFamily:
    """CCR family of single-mode thermal pairs with widths c1(k) vs c2(k) >= 1."""
    return _array_rule_family(CCR, ccr.thermal_covariance, _each(c1), _each(c2), label)


def car_power_family(p: float) -> ModeFamily:
    """Built-in CAR family: mu_k = 1/2 against nu_k = (1 - k^-p)/2.

    Per-mode offset eps_k = k^-p / 2 stays strictly inside the unit interval,
    so every per-mode transition probability is positive. Square-summable
    perturbation (quasi-equivalent) for p > 1, divergent (disjoint) for
    p <= 1 with per-mode distance squared >= 1/(2k) at p = 1.
    """
    return _array_rule_family(CAR, car.mu_covariance, lambda ks: np.full(len(ks), 0.5),
                               lambda ks: 0.5 * (1.0 - _inverse_power(ks, p)), f"car-power-{p:g}")


def ccr_thermal_power_family(p: float) -> ModeFamily:
    """Built-in CCR family: thermal widths 1 + k^-p against constant 1."""
    return _array_rule_family(CCR, ccr.thermal_covariance, lambda ks: 1.0 + _inverse_power(ks, p),
                               lambda ks: np.full(len(ks), 1.0), f"ccr-thermal-power-{p:g}")


def car_counterexample() -> ModeFamily:
    """Quasi-equivalent pair whose transition probability is nevertheless 0.

    Mode 1 pits the two pure 2-dim covariances against each other (orthogonal
    states, transition probability 0, meet rank 2); all other modes are
    identical tracial pairs. The converse of the meet criterion fails here:
    vanishing transition probability does not imply disjointness.
    """
    half = car.mu_covariance(0.0)
    return literal_family(
        CAR,
        [(car.mu_covariance(0.5), car.mu_covariance(-0.5))],
        tail=(half, half),
        label="car-counterexample",
    )


def literal_family(kind: str, pairs, tail=None, label: str = "literal") -> ModeFamily:
    """Family from an explicit list of pairs with a constant tail.

    ``tail`` defaults to an identical pair repeating the last listed first
    covariance, which contributes zero to every partial sum. Pairs may differ
    in dimension; the S and T of one pair may not, and a covariance of the
    other kind is refused (:class:`CovarianceError` naming the mode, the tail
    by its first mode). Pairs are checked and validated once, when the family
    is built; a scan stacks the listed pairs and the tail from ``pair_at``
    and evaluates each once, so it costs them plus O(log n) summation.
    """
    if kind not in (CAR, CCR):
        raise ValueError(f"kind must be {CAR!r} or {CCR!r}, got {kind!r}")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one explicit pair")
    items = [_checked_pair(kind, k, pair) for k, pair in enumerate(pairs, 1)]
    # the tail is keyed by its first mode
    items.append(_checked_pair(kind, len(items) + 1, (items[-1][0],) * 2 if tail is None else tail))
    return ModeFamily(kind=kind, label=label, rule=lambda k: items[min(k, len(items)) - 1],
                      tail_from=len(items))


def concat_families(first: ModeFamily, n_first: int, second: ModeFamily,
                    label: str | None = None) -> ModeFamily:
    """First n_first >= 0 modes of one family followed by another (same kind)."""
    n_first = _mode_count(n_first, "n_first", 0)
    if first.kind != second.kind:
        raise ValueError(f"kind mismatch: {first.kind} vs {second.kind}")

    def stacker(lo: int, hi: int) -> list:
        out = first.stack(lo, min(hi, n_first)) if lo <= n_first else []
        if hi > n_first:
            rest = second.stack(max(lo - n_first, 1), hi - n_first)
            out += [(modes + n_first, s, t) for modes, s, t in rest]
        return out

    return ModeFamily(
        kind=first.kind,
        label=label or f"{first.label}+{second.label}",
        rule=lambda k: first.pair_at(k) if k <= n_first else second.pair_at(k - n_first),
        stacker=stacker,
        tail_from=None if second.tail_from is None else n_first + second.tail_from,
    )


def _term_table(family: ModeFamily, n: int, series=("qe", "tp")):
    """One array per name in ``series`` ("qe": qe^2, "tp": -log tp) for modes 1..m,
    m = min(n, tail_from), whose pair functions alone run, at most BLOCK_ENTRIES entries per
    call: every later mode is the stated tail, whose terms are the last entries.

    Each window is sized by the largest dimension of the last one, and each pair function
    runs once per dimension group (or row chunk of it), log tp first (the CCR peak is lower
    before qe caches its roots). Each mode gets the bits of a call on its own pair; squares
    are taken in Python, as for one pair. The logs are the pair modules' own: a -log tp term
    is +inf exactly where that module's zero rule holds, a qe^2 term where CCR metric
    equivalence fails.
    """
    if n > N_MAX_CAP:
        raise SizeCapError(f"{n} modes exceed the sequence cap of {N_MAX_CAP} modes")
    m = n if family.tail_from is None else min(n, family.tail_from)
    tables = {name: np.empty(m) for name in series}
    lo, dim = 1, 2  # dim: the largest in the last window, which sizes the next one
    while lo <= m:
        hi = min(lo + max(BLOCK_ENTRIES // dim**2, 1) - 1, m)
        groups = family.stack(lo, hi)
        dim = max(s.dim for _, s, _ in groups)
        for modes, s, t in groups:
            step = max(BLOCK_ENTRIES // s.dim**2, 1)
            for i in range(0, modes.size, step):
                rows = slice(i, i + step)
                # a group that fits is passed whole: a slice drops its cached factorisations
                cs, ct = (s, t) if modes.size <= step else (_take(s, rows), _take(t, rows))
                at = modes[rows] - 1
                if "tp" in tables:
                    tables["tp"][at] = -(car.log_trans_prob_car(cs, ct) if family.kind == CAR
                                         else ccr.log_trans_prob_ccr(cs, ct))
                if "qe" in tables:
                    dist = (car.qe_distance_car(cs, ct) if family.kind == CAR
                            else ccr.qe_distance_ccr(cs, ct)[1])
                    tables["qe"][at] = [x**2 for x in dist.tolist()]
        lo = hi + 1
    return [tables[name] for name in series]


def _series_sums(family: ModeFamily, n: int, checkpoints, series=("qe", "tp")) -> list:
    """(fsum of modes 1..c at each checkpoint c <= n, term of mode n) of each named series
    (:func:`_term_table`): correctly rounded, and +inf once any term is infinite. The c - m
    modes past a table of m entries are ldexp(t, b) of its last term t, one for each set bit
    b of c - m: each piece is exact, so fsum gets the plain sum's bits."""
    out = []
    for terms in map(np.ndarray.tolist, _term_table(family, n, series)):
        pieces = [[math.ldexp(terms[-1], b) for b in range(r.bit_length()) if r >> b & 1]
                  for r in (max(c - len(terms), 0) for c in checkpoints)]
        out.append(([math.fsum(terms[:c] + p) for c, p in zip(checkpoints, pieces)], terms[-1]))
    return out


def _mode_count(n, name: str, least: int | None = None) -> int:
    """An int or numpy integer as an int of at least ``least``, else a ValueError naming it."""
    try:
        n = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {n!r}") from None
    if least is not None and n < least:
        raise ValueError(f"{name} must be >= {least}, got {n}")
    return n


def partial_qe_sum(family: ModeFamily, n: int) -> float:
    """Sum over modes 1..n of squared per-mode quasi-equivalence distances; no tp is computed.

    +inf as soon as any CCR mode fails metric equivalence. Nondecreasing in n
    and additive over blocks of modes: terms are summed with math.fsum, so the
    value is the correctly rounded sum and block groupings agree to within an
    ulp or two of each other.
    """
    return _partial_sum(family, n, "qe")


def partial_log_tp(family: ModeFamily, n: int) -> float:
    """Sum over modes 1..n of -log of per-mode transition probabilities; no distance is computed.

    +inf as soon as any mode's transition probability is an exact zero under
    its pair module's rule; finite values mean the product of transition
    probabilities is exp(-result), also where that product underflows.
    """
    return _partial_sum(family, n, "tp")


def _partial_sum(family: ModeFamily, n: int, series: str) -> float:
    """The fsum over modes 1..n of one series of :func:`_term_table`, the only one computed."""
    n = _mode_count(n, "n", 1)
    [([total], _)] = _series_sums(family, n, (n,), (series,))
    return total


@dataclass(frozen=True)
class SequenceVerdict:
    kind: str
    reason: str
    checkpoints: tuple
    qe_partial_sums: tuple
    neg_log_tp_partial_sums: tuple
    n_used: int


def _series_class(sum_half: float, sum_full: float, last_term: float, window: int) -> str:
    """'convergent' / 'divergent' / 'inconclusive' from a partial-sum window.

    A series is called convergent when the last window of partial sums added
    less than eps = WINDOW_EPS; divergent when it added at least 10*eps AND
    the final term has not collapsed below a tenth of the window average (so
    slowly decaying but summable tails are not misread as divergence);
    inconclusive between.
    """
    if math.isinf(sum_full):
        return "divergent"
    inc = sum_full - sum_half
    if inc < WINDOW_EPS:
        return "convergent"
    if inc >= DIVERGENCE_FACTOR * WINDOW_EPS and last_term >= inc / (DIVERGENCE_FACTOR * window):
        return "divergent"
    return "inconclusive"


def classify_sequence(family: ModeFamily, n_max: int = DEFAULT_N_MAX) -> SequenceVerdict:
    """Quasi-equivalent / disjoint / inconclusive verdict for a mode family.

    Scans modes 1..n_max once, recording both partial-sum traces at
    checkpoints n_max/8, n_max/4, n_max/2, n_max. CAR families are decided by
    the quasi-equivalence sums alone; CCR families additionally classify the
    transition-probability product and the two verdicts are cross-checked —
    a confident disagreement raises :class:`ConsistencyViolation` instead of
    guessing. (With a nondegenerate symplectic form the two criteria agree,
    and the table's -log tp terms follow ccr's own zero rule, so no second
    cut splits them; fully degenerate families can genuinely split them, and
    refusing to answer is deliberate there.)

    ``n_max`` above N_MAX_CAP = 2**20 raises :class:`SizeCapError`: at the cap the scan
    costs ~0.6-0.7 us/mode for the CAR built-ins and ~6-8 us/mode for the CCR built-ins
    (2-vCPU x86_64 VM, one BLAS thread). A literal costs its listed pairs plus O(log n)
    summation: car_counterexample() takes ~0.15-0.3 ms at the cap.
    """
    n_max = _mode_count(n_max, "n_max")
    if n_max < MIN_N_MAX:
        raise ValueError(f"n_max must be at least {MIN_N_MAX}, got {n_max}")
    checkpoints = (n_max // 8, n_max // 4, n_max // 2, n_max)
    (qe_sums, qe_last), (tp_sums, tp_last) = _series_sums(family, n_max, checkpoints)

    window = n_max - n_max // 2
    qe_class = _series_class(qe_sums[-2], qe_sums[-1], qe_last, window)
    tp_class = _series_class(tp_sums[-2], tp_sums[-1], tp_last, window)

    if family.kind == CAR:
        kind, reason = {
            "convergent": (ccr.QUASI_EQUIVALENT, HS_CONVERGENT),
            "divergent": (ccr.DISJOINT, HS_DIVERGENCE),
            "inconclusive": (INCONCLUSIVE, INCONCLUSIVE),
        }[qe_class]
    else:
        if "inconclusive" in (qe_class, tp_class):
            kind, reason = INCONCLUSIVE, INCONCLUSIVE
        elif qe_class != tp_class:
            raise ConsistencyViolation(
                f"family {family.label!r}: quasi-equivalence sums are {qe_class} "
                f"but the transition-probability product is {tp_class}"
            )
        elif qe_class == "convergent":
            kind, reason = ccr.QUASI_EQUIVALENT, ccr.POSITIVE_TRANSITION_PROBABILITY
        else:
            kind = ccr.DISJOINT
            reason = ccr.SUPPORT_MISMATCH if math.isinf(qe_sums[-1]) else HS_DIVERGENCE

    return SequenceVerdict(
        kind=kind,
        reason=reason,
        checkpoints=checkpoints,
        qe_partial_sums=tuple(qe_sums),
        neg_log_tp_partial_sums=tuple(tp_sums),
        n_used=n_max,
    )
