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
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import car, ccr
from .errors import ConsistencyViolation, SizeCapError

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

# transition probabilities at or below this floor count as exact zero
TP_FLOOR = 1e-14
DEFAULT_N_MAX = 4096
MIN_N_MAX = 64
DEFAULT_EPS = 1e-3
DIVERGENCE_FACTOR = 10.0
# Modes per table block: bounds the stacked covariances held at once.
BLOCK_MODES = 256
# Largest mode count the sequence APIs evaluate (SizeCapError above it), sized
# from the measured table cost (see classify_sequence).
N_MAX_CAP = 1 << 20


@dataclass(frozen=True)
class ModeFamily:
    """Rule-based sequence of independent covariance pairs of one kind.

    ``stacker(lo, hi)``, if given, returns what :meth:`stack` does, built
    without ``pair_at``.
    """

    kind: str
    label: str
    rule: Callable[[int], tuple]
    stacker: Callable[[int, int], list] | None = None

    def pair_at(self, k: int):
        """The (S_k, T_k) pair at mode index k >= 1."""
        if k < 1:
            raise ValueError(f"mode index must be >= 1, got {k}")
        return self.rule(k)

    def stack(self, lo: int, hi: int) -> list:
        """Modes lo..hi as stacked covariances: a list of (modes, S, T), one per dimension."""
        if lo < 1 or hi < lo:
            raise ValueError(f"need 1 <= lo <= hi, got lo={lo}, hi={hi}")
        if self.stacker is not None:
            return self.stacker(lo, hi)
        modes = range(lo, hi + 1)
        return _group_pairs(self.kind, modes, [self.pair_at(k) for k in modes])


def _group_pairs(kind: str, keys, pairs) -> list:
    """Stack pairs by dimension: a list of (keys, S stack, T stack)."""
    groups: dict = {}
    for key, pair in zip(keys, pairs):
        # CAR pair functions also take bare matrices; validate them as the pair API does
        pair = [car._as_covariance(c) if kind == CAR else c for c in pair]
        groups.setdefault((pair[0].dim, pair[1].dim), []).append((key, *pair))
    return [(np.array([g[0] for g in grp]), _stack([g[1] for g in grp]),
             _stack([g[2] for g in grp])) for grp in groups.values()]


def _stack(covs):
    """One stacked covariance from covariances of one type and dimension."""
    cls = type(covs[0])
    return cls(*(np.stack([getattr(c, f.name) for c in covs]) for f in fields(cls)))


def _take(cov, rows: np.ndarray):
    """The covariances at ``rows`` of a stacked covariance."""
    return type(cov)(*(getattr(cov, f.name)[rows] for f in fields(cov)))


def _scalar_rule_family(kind: str, make, f, g, label: str) -> ModeFamily:
    """Pairs (make(f(k)), make(g(k))), with make also taking an array of values."""

    def stacker(lo: int, hi: int) -> list:
        ks = range(lo, hi + 1)
        pair = (make(np.array([h(k) for k in ks])) for h in (f, g))
        return [(np.arange(lo, hi + 1), *pair)]

    return ModeFamily(kind, label, lambda k: (make(f(k)), make(g(k))), stacker)


def car_mu_sequence(mu, nu, label: str = "car-mu") -> ModeFamily:
    """CAR family of 2-dim modes with eigenvalue offsets mu(k) vs nu(k)."""
    return _scalar_rule_family(CAR, car.mu_covariance, mu, nu, label)


def ccr_thermal_sequence(c1, c2, label: str = "ccr-thermal") -> ModeFamily:
    """CCR family of single-mode thermal pairs with widths c1(k) vs c2(k) >= 1."""
    return _scalar_rule_family(CCR, ccr.thermal_covariance, c1, c2, label)


def car_power_family(p: float) -> ModeFamily:
    """Built-in CAR family: mu_k = 1/2 against nu_k = (1 - k^-p)/2.

    Per-mode offset eps_k = k^-p / 2 stays strictly inside the unit interval,
    so every per-mode transition probability is positive. Square-summable
    perturbation (quasi-equivalent) for p > 1, divergent (disjoint) for
    p <= 1 with per-mode distance squared >= 1/(2k) at p = 1.
    """
    return car_mu_sequence(
        lambda k: 0.5, lambda k: 0.5 * (1.0 - k**-p), label=f"car-power-{p:g}"
    )


def ccr_thermal_power_family(p: float) -> ModeFamily:
    """Built-in CCR family: thermal widths 1 + k^-p against constant 1."""
    return ccr_thermal_sequence(
        lambda k: 1.0 + k**-p, lambda k: 1.0, label=f"ccr-thermal-power-{p:g}"
    )


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
    in dimension.
    """
    if kind not in (CAR, CCR):
        raise ValueError(f"kind must be {CAR!r} or {CCR!r}, got {kind!r}")
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one explicit pair")
    if tail is None:
        tail = (pairs[-1][0], pairs[-1][0])
    items = pairs + [tail]
    groups = []  # per dimension: the row of each item in the stacks (-1: elsewhere), stacks
    for keys, s, t in _group_pairs(kind, range(len(items)), items):
        row = np.full(len(items), -1)
        row[keys] = np.arange(keys.size)
        groups.append((row, s, t))

    def rule(k: int):
        return pairs[k - 1] if k <= len(pairs) else tail

    def stacker(lo: int, hi: int) -> list:
        modes = np.arange(lo, hi + 1)
        out = []
        for row, s, t in groups:
            rows = row[np.minimum(modes, len(items)) - 1]
            sel = rows >= 0
            if sel.any():
                out.append((modes[sel], _take(s, rows[sel]), _take(t, rows[sel])))
        return out

    return ModeFamily(kind=kind, label=label, rule=rule, stacker=stacker)


def concat_families(first: ModeFamily, n_first: int, second: ModeFamily,
                    label: str | None = None) -> ModeFamily:
    """First n_first modes of one family followed by another (same kind)."""
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
    )


def _term_table(family: ModeFamily, n: int):
    """Arrays of qe^2 and -log tp for modes 1..n, computed BLOCK_MODES at a time.

    One pair-function call per stacked block gives each mode the bits of a
    call on its own pair; squares and logs are taken in Python, as for one
    pair. Failed metric equivalence or tp <= TP_FLOOR make a term +inf.
    """
    if n > N_MAX_CAP:
        raise SizeCapError(f"{n} modes exceed the sequence cap of {N_MAX_CAP} modes")
    qe_sq, neg_log_tp = np.empty(n), np.empty(n)
    for lo in range(1, n + 1, BLOCK_MODES):
        for modes, s, t in family.stack(lo, min(lo + BLOCK_MODES - 1, n)):
            if family.kind == CAR:
                dist, tp = car.qe_distance_car(s, t), car.trans_prob_car(s, t)
            else:
                dist, tp = ccr.qe_distance_ccr(s, t)[1], ccr.trans_prob_ccr(s, t)
            qe_sq[modes - 1] = [x**2 for x in dist.tolist()]
            neg_log_tp[modes - 1] = [math.inf if x <= TP_FLOOR else -math.log(x)
                                     for x in tp.tolist()]
    return qe_sq, neg_log_tp


def partial_qe_sum(family: ModeFamily, n: int) -> float:
    """Sum over modes 1..n of squared per-mode quasi-equivalence distances.

    +inf as soon as any CCR mode fails metric equivalence. Nondecreasing in n
    and additive over blocks of modes: terms are summed with math.fsum, so the
    value is the correctly rounded sum and block groupings agree to within an
    ulp or two of each other.
    """
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return math.fsum(_term_table(family, n)[0].tolist())


def partial_log_tp(family: ModeFamily, n: int) -> float:
    """Sum over modes 1..n of -log of per-mode transition probabilities.

    +inf as soon as any mode's transition probability hits the zero floor;
    finite values mean the product of transition probabilities is
    exp(-result).
    """
    if n < 1:
        raise ValueError(f"N must be >= 1, got {n}")
    return math.fsum(_term_table(family, n)[1].tolist())


@dataclass(frozen=True)
class SequenceVerdict:
    kind: str
    reason: str
    checkpoints: tuple
    qe_partial_sums: tuple
    neg_log_tp_partial_sums: tuple
    n_used: int


def _series_class(sum_half: float, sum_full: float, last_term: float,
                  window: int, eps: float) -> str:
    """'convergent' / 'divergent' / 'inconclusive' from a partial-sum window.

    A series is called convergent when the last window of partial sums added
    less than eps; divergent when it added at least 10*eps AND the final term
    has not collapsed below a tenth of the window average (so slowly decaying
    but summable tails are not misread as divergence); inconclusive between.
    """
    if math.isinf(sum_full):
        return "divergent"
    inc = sum_full - sum_half
    if inc < eps:
        return "convergent"
    if inc >= DIVERGENCE_FACTOR * eps and last_term >= inc / (DIVERGENCE_FACTOR * window):
        return "divergent"
    return "inconclusive"


def classify_sequence(
    family: ModeFamily, n_max: int = DEFAULT_N_MAX, eps: float = DEFAULT_EPS
) -> SequenceVerdict:
    """Quasi-equivalent / disjoint / inconclusive verdict for a mode family.

    Scans modes 1..n_max once, recording both partial-sum traces at
    checkpoints n_max/8, n_max/4, n_max/2, n_max. CAR families are decided by
    the quasi-equivalence sums alone; CCR families additionally classify the
    transition-probability product and the two verdicts are cross-checked —
    a confident disagreement raises :class:`ConsistencyViolation` instead of
    guessing. (With a nondegenerate symplectic form the two criteria agree;
    fully degenerate families can genuinely split them, and refusing to
    answer is deliberate there.)

    ``n_max`` above N_MAX_CAP = 2**20 raises :class:`SizeCapError`: the table
    costs ~14 us/mode for the CAR built-ins and ~55 us/mode for the CCR
    built-ins (2-vCPU x86_64 VM, one BLAS thread), ~15 s and ~60 s at the cap.
    """
    if n_max < MIN_N_MAX:
        raise ValueError(f"n_max must be at least {MIN_N_MAX}, got {n_max}")
    checkpoints = (n_max // 8, n_max // 4, n_max // 2, n_max)
    qe_terms, tp_terms = _term_table(family, n_max)
    # math.fsum: correctly rounded, and +inf once any term is infinite
    qe_sums = [math.fsum(qe_terms[:c].tolist()) for c in checkpoints]
    tp_sums = [math.fsum(tp_terms[:c].tolist()) for c in checkpoints]
    qe_last = float(qe_terms[-1])
    tp_last = float(tp_terms[-1])

    window = n_max - n_max // 2
    qe_class = _series_class(qe_sums[-2], qe_sums[-1], qe_last, window, eps)
    tp_class = _series_class(tp_sums[-2], tp_sums[-1], tp_last, window, eps)

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
