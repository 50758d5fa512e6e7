"""The four benchmark workloads: seeded inputs, the timed op, and its check.

Each workload builds a *cycle* of ops from the seed.  The harness runs whole
cycles, so every run sees the same mix of op types.  An op's ``run`` is the
timed call into quasifree; its ``check`` runs afterwards, outside the timing,
and compares the result with ``reference`` (closed forms that do not use
quasifree) or with invariants that hold for any input.

quasifree is imported inside ``setup`` functions, after the harness has set
QF_THREADS, so that its BLAS thread cap applies before numpy loads.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

# Acceptance tolerances of the package's own test suite (tests/test_acceptance.py):
CAR_ORACLE_TOL = 1e-8  # criterion 1: CAR formula vs Jordan-Wigner density oracle
CCR_ORACLE_TOL = 1e-6  # criterion 4: CCR formula vs truncated-Fock overlap
CCR_CLOSED_TOL = 1e-8  # criterion 4: CCR formula vs thermal closed form
INEQ_SLACK = 1e-10  # criterion 6: overlap/fidelity chain
SYMMETRY_TOL = 1e-10  # tp(S, T) = tp(T, S)
# Closed-form checks of the determinant formulas on well-conditioned inputs:
# the formulas go through eigh/SVD of order-d matrices, whose relative error
# is a small multiple of d * eps (~3e-14 at d = 128); 1e-9 leaves a wide margin
# and still catches any change in the formula.
CLOSED_FORM_RTOL = 1e-9
# Sequence partial sums: each term is a 2x2 or 4x4 spectral computation.  Near
# the pure endpoint (mode k of a power family sits k^-p from it) the spectral
# problem has condition number up to k^p ~ 1e6 at n = 1024, so a term can
# carry ~ eps * 1e6 ~ 1e-10 of relative error on values <= 1e-2; 1e-12 of
# absolute error per term bounds that (the CCR built-ins reach ~1.5e-13).
SUM_RTOL = 1e-9
SUM_ATOL_PER_TERM = 1e-12

CHECKPOINT_N = 1024  # n_max of every sequence op
CHECKPOINT_SIZES = (CHECKPOINT_N // 8, CHECKPOINT_N // 4, CHECKPOINT_N // 2, CHECKPOINT_N)


@dataclass
class Op:
    """One timed call with its post-hoc check.

    ``check(result)`` returns None when the result is right and a message
    otherwise.  ``known_defect`` names a defect the project already lists; an
    op whose result fails the check but matches ``defect_signature`` is
    counted as that known defect, not as a new failure.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    modes: int = 0
    known_defect: str | None = None
    defect_signature: Callable[[object], bool] | None = None


@dataclass
class Workload:
    name: str
    cycle: list
    sizes: dict
    accuracy: dict = field(default_factory=dict)
    # removes files the workload wrote during setup
    cleanup: Callable[[], None] = lambda: None
    # environment of a `qf` child (cli only)
    env: dict | None = None

    def record(self, metric: str, value: float) -> None:
        """Keep the worst (largest) value of an accuracy metric."""
        if not math.isnan(value):
            self.accuracy[metric] = max(self.accuracy.get(metric, 0.0), float(value))


def _rng(seed: int, stream: int):
    import numpy as np

    return np.random.default_rng([seed, stream])


def _rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(b), 1e-300)


# ------------------------------------------------------------------ sequences


def setup_sequences(seed: int) -> Workload:
    import numpy as np
    import quasifree as qf
    from quasifree import seqmodel

    rng = _rng(seed, 1)
    mu = float(rng.uniform(0.2, 0.35))
    blocks = []
    pairs = []
    for _ in range(32):
        mus = rng.uniform(-0.45, 0.45, 2)
        nus = np.clip(mus + rng.uniform(-0.1, 0.1, 2), -0.49, 0.49)
        s, t, _, _ = ref.block_car_pair(rng, mus, nus)
        blocks.append((list(mus), list(nus)))
        pairs.append((qf.validate_car(s), qf.validate_car(t)))

    qe_kind, dj_kind = "QuasiEquivalent", "Disjoint"
    families = [
        ("car-power-2", "builtin", qf.car_power_family(2.0), ("car_power", 2.0),
         (qe_kind, "HSConvergent")),
        ("car-power-1", "builtin", qf.car_power_family(1.0), ("car_power", 1.0),
         (dj_kind, "HSDivergence")),
        ("ccr-thermal-power-2", "builtin", qf.ccr_thermal_power_family(2.0),
         ("ccr_thermal_power", 2.0), (qe_kind, "PositiveTransitionProbability")),
        ("ccr-thermal-power-0.5", "builtin", qf.ccr_thermal_power_family(0.5),
         ("ccr_thermal_power", 0.5), (dj_kind, "HSDivergence")),
        ("car-counterexample", "builtin", qf.car_counterexample(), ("counterexample",),
         (qe_kind, "HSConvergent")),
        ("car-mu-rule", "rule",
         seqmodel.car_mu_sequence(lambda k: mu, lambda k: mu + 0.1 * k**-1.5),
         ("car_mu", mu, 0.1, 1.5), (qe_kind, "HSConvergent")),
        ("car-literal-blocks", "literal", qf.literal_family("car", pairs),
         ("blocks", blocks), (qe_kind, "HSConvergent")),
    ]
    order = rng.permutation(len(families))

    wl = Workload(
        name="sequences",
        cycle=[],
        sizes={
            "n_max": CHECKPOINT_N,
            "families": [families[i][0] for i in order],
            "user_rule": f"mu={mu:.6f} vs mu+0.1*k^-1.5",
            "literal": "32 pairs of 4x4 (two mu blocks under a random rotation), identical tail",
        },
    )
    for i in order:
        label, group, fam, spec, expected = families[i]
        expect = _expected_sums(spec, CHECKPOINT_N)
        wl.cycle.append(
            Op(
                label=f"{group}:{label}",
                run=lambda fam=fam: qf.classify_sequence(fam, n_max=CHECKPOINT_N),
                check=lambda v, e=expect, x=expected: _check_sequence(wl, v, e, x),
                modes=CHECKPOINT_N,
            )
        )
    # warm-up: every family once on a short window
    for _, _, fam, _, _ in families:
        qf.classify_sequence(fam, n_max=seqmodel.MIN_N_MAX)
    return wl


def _expected_sums(spec, n: int) -> dict:
    """Reference partial sums at the classifier's checkpoints n/8, n/4, n/2, n."""
    checkpoints = (n // 8, n // 4, n // 2, n)
    qe, nlt = ref.sequence_terms(spec, n)
    return {
        "checkpoints": checkpoints,
        "qe_partial_sums": ref.partial_sums(qe, checkpoints),
        "neg_log_tp_partial_sums": ref.partial_sums(nlt, checkpoints),
    }


def _compare_sums(got: dict, expect: dict, wl: Workload | None = None) -> str | None:
    """Compare a verdict's partial sums (as a dict) with ``_expected_sums``."""
    if tuple(got["checkpoints"]) != expect["checkpoints"]:
        return f"checkpoints {got['checkpoints']}"
    for what in ("qe_partial_sums", "neg_log_tp_partial_sums"):
        for c, g, w in zip(expect["checkpoints"], got[what], expect[what]):
            g = math.inf if g == "infinity" else g  # the CLI's token for +inf
            if math.isinf(w) or math.isinf(g):
                if not (math.isinf(w) and math.isinf(g)):
                    return f"{what} at {c}: got {g!r}, reference {w!r}"
                continue
            if wl is not None:
                wl.record("seqmodel.max_rel_err", _rel(g, w))
            if abs(g - w) > SUM_RTOL * abs(w) + SUM_ATOL_PER_TERM * c:
                return f"{what} at {c}: got {g!r}, reference {w!r}"
    return None


def _check_sequence(wl, verdict, expect, expected) -> str | None:
    if (verdict.kind, verdict.reason) != expected:
        return f"verdict {verdict.kind}/{verdict.reason}, expected {expected[0]}/{expected[1]}"
    return _compare_sums(vars(verdict), expect, wl)


# ---------------------------------------------------------------- dense-pairs

DENSE_CAR_DIM = 128
DENSE_CCR_MODES = 32
# Kinds in cycle order.  CAR ops are the slower kind; with three CAR ops in
# every four the median lies a third of the way into the CAR band, away from
# its edge with the CCR band, where run-to-run noise would move it most.
DENSE_PATTERN = ("car", "ccr", "car", "car") * 5
DENSE_CAR_INPUTS = ("random", "block", "random", "singular", "random") * 3
DENSE_CCR_INPUTS = ("random", "thermal", "random", "random", "thermal")


def setup_dense_pairs(seed: int) -> Workload:
    import numpy as np
    import quasifree as qf
    from quasifree import sampling

    rng = _rng(seed, 2)
    sigma = qf.canonical_sigma(DENSE_CCR_MODES)
    wl = Workload(
        name="dense-pairs",
        cycle=[],
        sizes={
            "car_dim": DENSE_CAR_DIM,
            "ccr_modes": DENSE_CCR_MODES,
            "cycle": list(DENSE_PATTERN),
            "car_inputs": list(DENSE_CAR_INPUTS),
            "ccr_inputs": list(DENSE_CCR_INPUTS),
        },
    )
    car_inputs = iter(DENSE_CAR_INPUTS)
    ccr_inputs = iter(DENSE_CCR_INPUTS)
    for kind in DENSE_PATTERN:
        if kind == "car":
            source = next(car_inputs)
            closed = None
            if source == "random":
                s, t = sampling.random_car_pair(rng, DENSE_CAR_DIM)
                s, t = s.matrix, t.matrix
            elif source == "singular":
                s, t = sampling.singular_overlap_car_pair(rng, DENSE_CAR_DIM)
                s, t = s.matrix, t.matrix
            else:
                mus = rng.uniform(-0.45, 0.45, DENSE_CAR_DIM // 2)
                nus = np.clip(mus + rng.uniform(-0.05, 0.05, mus.size), -0.49, 0.49)
                s, t, tp, qe2 = ref.block_car_pair(rng, mus, nus)
                closed = (tp, qe2)
            wl.cycle.append(_dense_car_op(wl, qf, source, s, t, closed))
        else:
            source = next(ccr_inputs)
            closed = None
            if source == "random":
                a, b = sampling.random_ccr_pair(rng, sigma)
                r_s, r_t = a.r, b.r
            else:
                ws = rng.uniform(1.0, 2.5, DENSE_CCR_MODES)
                wt = ws * (1.0 + rng.uniform(0.0, 0.2, DENSE_CCR_MODES))
                _, r_s, r_t, closed = ref.thermal_product_pair(rng, ws, wt)
            wl.cycle.append(_dense_ccr_op(wl, qf, source, sigma, r_s, r_t, closed))
    # warm-up: one op of each kind
    wl.cycle[0].run()
    wl.cycle[1].run()
    return wl


def _dense_car_op(wl, qf, source, s, t, closed) -> Op:
    def run():
        cs, ct = qf.validate_car(s), qf.validate_car(t)
        return (qf.trans_prob_car(cs, ct), qf.qe_distance_car(cs, ct), qf.meet_criterion(cs, ct))

    swapped = []

    def check(res) -> str | None:
        tp, qe, rank = res
        if not 0.0 <= tp <= 1.0:
            return f"tp {tp!r} outside [0, 1]"
        if not swapped:  # tp(T, S) once per input, outside the timed op
            swapped.append(qf.trans_prob_car(t, s))
        if abs(tp - swapped[0]) > SYMMETRY_TOL:
            return f"tp(S,T) = {tp!r} but tp(T,S) = {swapped[0]!r}"
        if (rank >= 1) != (tp == 0.0):
            return f"meet rank {rank} with tp {tp!r}"
        if source == "singular" and not (tp == 0.0 and rank >= 1):
            return f"singular-overlap pair gave tp {tp!r}, meet rank {rank}"
        if closed is not None:
            err = max(_rel(tp, closed[0]), _rel(qe * qe, closed[1]))
            wl.record("car.max_rel_err", err)
            if err > CLOSED_FORM_RTOL:
                return f"block pair: tp {tp!r} vs {closed[0]!r}, qe^2 {qe * qe!r} vs {closed[1]!r}"
        return None

    return Op(label=f"car:{source}", run=run, check=check)


def _dense_ccr_op(wl, qf, source, sigma, r_s, r_t, closed) -> Op:
    def run():
        cs, ct = qf.validate_ccr(sigma, r_s), qf.validate_ccr(sigma, r_t)
        return qf.trans_prob_ccr(cs, ct), qf.classify_ccr(cs, ct).kind

    swapped = []

    def check(res) -> str | None:
        tp, kind = res
        if not 0.0 <= tp <= 1.0:
            return f"tp {tp!r} outside [0, 1]"
        if not swapped:
            swapped.append(
                qf.trans_prob_ccr(qf.validate_ccr(sigma, r_t), qf.validate_ccr(sigma, r_s))
            )
        if abs(tp - swapped[0]) > SYMMETRY_TOL:
            return f"tp(S,T) = {tp!r} but tp(T,S) = {swapped[0]!r}"
        if (kind == "QuasiEquivalent") != (tp > 0.0):
            return f"classify_ccr says {kind} with tp {tp!r}"
        if closed is not None:
            err = _rel(tp, closed)
            wl.record("ccr.max_rel_err", err)
            if err > CLOSED_FORM_RTOL:
                return f"thermal product: tp {tp!r} vs closed form {closed!r}"
        return None

    return Op(label=f"ccr:{source}", run=run, check=check)


# --------------------------------------------------------------- oracle-check

# car<n>: random CAR pair on n modes; thermal / squeezed: CCR oracles.  By
# cost the cycle is 40% cheap ops, 20% 4-mode ops and 40% 5-mode ops: the
# median sits in the middle of the 4-mode band, p90 three quarters of the way
# into the 5-mode band, and a 25 s run stays near 500 ops, far from the 1000
# at which the tail percentile would change from p90 to p99.
ORACLE_PATTERN = ("car3", "car5", "car4", "thermal", "car5", "squeezed", "car5", "car4",
                  "car3", "car5")
THERMAL_CUTOFF = 20
SQUEEZED_CUTOFF = 8


def setup_oracle_check(seed: int) -> Workload:
    import quasifree as qf
    from quasifree import sampling

    rng = _rng(seed, 3)
    wl = Workload(
        name="oracle-check",
        cycle=[],
        sizes={
            "cycle": list(ORACLE_PATTERN),
            "thermal_first_cutoff": THERMAL_CUTOFF,
            "squeezed_cutoff": SQUEEZED_CUTOFF,
        },
    )
    for kind in ORACLE_PATTERN:
        if kind.startswith("car"):
            n = int(kind[3:])
            s, t = sampling.random_car_pair(rng, 2 * n)
            wl.cycle.append(_oracle_car_op(wl, qf, kind, s, t))
        elif kind == "thermal":
            q1, q2 = (float(x) for x in rng.uniform(0.05, 0.6, 2))
            wl.cycle.append(_oracle_thermal_op(wl, qf, q1, q2))
        else:
            omega = float(rng.uniform(1.5, 2.5))
            x = omega * float(rng.uniform(0.2, 0.4))
            wl.cycle.append(_oracle_squeezed_op(wl, qf, omega, x))
    for kind in sorted(set(ORACLE_PATTERN)):
        wl.cycle[ORACLE_PATTERN.index(kind)].run()
    return wl


def _oracle_car_op(wl, qf, kind, s, t) -> Op:
    def run():
        rho = qf.density_from_covariance(s)
        tau = qf.density_from_covariance(t)
        return qf.overlap(rho, tau), qf.fidelity_tr(rho, tau), qf.trans_prob_car(s, t)

    def check(res) -> str | None:
        ov, fid, tp = res
        diff = abs(ov - tp)
        wl.record("car_oracle.max_abs_diff", diff)
        if diff > CAR_ORACLE_TOL:
            return f"oracle overlap {ov!r} vs formula {tp!r}"
        if not (ov * ov <= fid * fid + INEQ_SLACK and fid * fid <= ov + INEQ_SLACK):
            return f"overlap {ov!r} / fidelity {fid!r} break overlap <= fidelity <= sqrt(overlap)"
        return None

    return Op(label=f"car_oracle:{kind}", run=run, check=check)


def _oracle_thermal_op(wl, qf, q1, q2) -> Op:
    closed = ref.thermal_tp_q(q1, q2)
    c1, c2 = ref.thermal_width(q1), ref.thermal_width(q2)

    def run():
        a = qf.gaussian_density(qf.thermal_hamiltonian(q1), THERMAL_CUTOFF)
        b = qf.gaussian_density(qf.thermal_hamiltonian(q2), THERMAL_CUTOFF)
        ov = qf.overlap_ccr(a, b)
        return ov, qf.trans_prob_ccr(qf.thermal_covariance(c1), qf.thermal_covariance(c2))

    def check(res) -> str | None:
        ov, tp = res
        wl.record("ccr_oracle.max_abs_diff", abs(ov - closed))
        if abs(ov - closed) > CCR_ORACLE_TOL:
            return f"thermal overlap {ov!r} vs closed form {closed!r}"
        if abs(tp - closed) > CCR_CLOSED_TOL:
            return f"thermal formula {tp!r} vs closed form {closed!r}"
        return None

    return Op(label="ccr_oracle:thermal", run=run, check=check)


def _oracle_squeezed_op(wl, qf, omega, x) -> Op:
    want = ref.two_mode_squeezed_r(omega, x)

    def run():
        h = qf.quadratic_hamiltonian([[omega, 0.0], [0.0, omega]], [[0.0, x], [x, 0.0]])
        state = qf.gaussian_density(h, SQUEEZED_CUTOFF)
        return state.boundary_occupation, qf.covariance_of_density(state).r

    def check(res) -> str | None:
        import numpy as np

        boundary, r = res
        # truncation moves a second moment by at most about the boundary
        # weight times the largest quadrature moment, ~ (cutoff + 1)
        tol = 4.0 * (SQUEEZED_CUTOFF + 1) * boundary + 1e-9
        err = float(np.max(np.abs(r - want)))
        if err > tol:
            return f"squeezed covariance off by {err:.3e} (tolerance {tol:.3e})"
        return None

    return Op(label="ccr_oracle:squeezed", run=run, check=check)


# ------------------------------------------------------------------------ cli


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    report: dict | None = None


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def parse_report(stdout: str):
    """The report as a dict, or None unless stdout is one strict JSON object."""
    try:
        report = json.loads(stdout, parse_constant=_reject_constant)
    except ValueError:
        return None
    return report if isinstance(report, dict) else None


def run_child(argv, env, cwd) -> CliResult:
    """Run one child process to exit and collect its output."""
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True, timeout=120)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _matrix_json(m):
    import numpy as np

    m = np.asarray(m)
    if np.iscomplexobj(m):
        return [[[float(z.real), float(z.imag)] if z.imag else float(z.real) for z in row]
                for row in m]
    return [[float(z) for z in row] for row in m]


def setup_cli(seed: int, root: Path, workdir: Path) -> Workload:
    import numpy as np

    rng = _rng(seed, 4)
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["QF_THREADS"] = "1"
    qf_argv = [sys.executable, "-m", "quasifree.cli"]  # what the `qf` entry point runs

    mus = rng.uniform(-0.45, 0.45, 4)
    nus = np.clip(mus + rng.uniform(-0.2, 0.2, 4), -0.49, 0.49)
    s8, t8, tp8, _ = ref.block_car_pair(rng, mus, nus)
    s6, t6, tp6, _ = ref.block_car_pair(rng, mus[:3], nus[:3])
    s10, t10, _, _ = ref.block_car_pair(rng, np.append(mus, 0.1), np.append(nus, 0.2))
    ws = rng.uniform(1.0, 3.0, 2)
    wt = rng.uniform(1.0, 3.0, 2)
    sigma, r_s, r_t, tp_ccr = ref.thermal_product_pair(rng, ws, wt)

    car8 = {"kind": "car-pair", "S": _matrix_json(s8), "T": _matrix_json(t8)}
    ccr2 = {"kind": "ccr-pair", "sigma": _matrix_json(sigma), "R_S": _matrix_json(r_s),
            "R_T": _matrix_json(r_t)}
    mu_a, mu_b = (float(x) for x in rng.uniform(-0.4, 0.4, 2))
    c1, c2 = (float(x) for x in rng.uniform(1.0, 3.0, 2))
    car_seq_1 = {"kind": "car-sequence", "family": {"rule": "car_mu_power", "p": 1},
                 "options": {"n_max": 256}}
    ccr_seq_2 = {"kind": "ccr-sequence", "family": {"rule": "ccr_thermal_power", "p": 2},
                 "options": {"n_max": 128}}
    seq_ref = {
        "car1": _expected_sums(("car_power", 1.0), 256),
        "ccr2": _expected_sums(("ccr_thermal_power", 2.0), 128),
    }

    files = {}

    def scenario(name: str, content) -> str:
        path = workdir / f"{name}.json"
        text = content if isinstance(content, str) else json.dumps(content)
        path.write_text(text)
        files[name] = str(path)
        return str(path)

    wl = Workload(
        name="cli",
        cycle=[],
        sizes={
            "car_pair_dim": 8,
            "ccr_pair_modes": 2,
            "oracle_compare_ccr_modes": 1,
            "oracle_compare_car_dim": 6,
            "classify_n_max": {"car_mu_power p=1": 256, "ccr_thermal_power p=2": 128},
            "demo_n_max": 256,
            "scenario_dir": str(workdir.relative_to(root)),
        },
    )

    def add(label, args, expect_code, check=None, known_defect=None, signature=None):
        argv = qf_argv + list(args)

        def run():
            return run_child(argv, env, root)

        def full_check(res: CliResult) -> str | None:
            res.report = parse_report(res.stdout)
            if res.report is None:
                return f"exit {res.code} without a JSON report: {res.stderr.strip()[-200:]}"
            if res.code != expect_code or res.report.get("exit_code") != expect_code:
                return f"exit {res.code}, expected {expect_code}"
            if "Traceback" in res.stderr:
                return "traceback on stderr"
            if expect_code != 0 and expect_code != 3:
                return None if "error" in res.report else "error report without 'error'"
            return check(res.report["results"]) if check else None

        wl.cycle.append(Op(label=f"{args[0]}:{label}", run=run, check=full_check,
                           known_defect=known_defect, defect_signature=signature))

    def tp_close(want, tol):
        def check(results):
            got = results["transition_probability"]
            return None if _rel(got, want) <= tol else f"tp {got!r}, closed form {want!r}"
        return check

    def validate_ok(results):
        if results.get("valid") is not True or results["S"]["dim"] != 8:
            return f"validate results {results}"
        # mu blocks have eigenvalues 1/2 +- mu
        got = results["S"]["min_eigenvalue"], results["T"]["min_eigenvalue"]
        want = (0.5 - float(abs(mus).max()), 0.5 - float(abs(nus).max()))
        if max(abs(g - w) for g, w in zip(got, want)) > 1e-10:
            return f"min eigenvalues {got}, expected {want}"
        return None

    def ccr_classify_ok(results):
        v = results["verdict"]
        if v["kind"] != "QuasiEquivalent":
            return f"verdict {v['kind']}"
        return tp_close(tp_ccr, CCR_CLOSED_TOL)({"transition_probability":
                                                 v["transition_probability"]})

    def seq_ok(key, kind):
        def check(results):
            v = results["verdict"]
            if v["kind"] != kind:
                return f"verdict {v['kind']}, expected {kind}"
            return _compare_sums(v, seq_ref[key])
        return check

    def quad_ok(results):
        lhs, rhs = results["lhs_doubled_transition_probability"], results[
            "rhs_squared_transition_probability"]
        if abs(lhs - rhs) > CAR_ORACLE_TOL or _rel(rhs, tp8 * tp8) > CLOSED_FORM_RTOL:
            return f"quadrature {lhs!r} vs {rhs!r} vs closed form {tp8 * tp8!r}"
        if max(results["projection_defects"]) > 1e-9 or results["meet_rank"] != 0:
            return f"projection defects {results['projection_defects']}, meet rank {results['meet_rank']}"
        return None

    def oracle_ok(results):
        if not results["within_tol"] or _rel(results["formula_value"], tp6) > CLOSED_FORM_RTOL:
            return f"oracle-compare {results}, closed form {tp6!r}"
        if abs(results["oracle_value"] - tp6) > CAR_ORACLE_TOL:
            return f"oracle value {results['oracle_value']!r}, closed form {tp6!r}"
        return None

    def thermal_oracle_ok(results):
        want = ref.thermal_tp_q(ref.thermal_q(c1), ref.thermal_q(c2))
        if not results["within_tol"] or abs(results["formula_value"] - want) > CCR_CLOSED_TOL:
            return f"oracle-compare {results}, closed form {want!r}"
        if abs(results["oracle_value"] - want) > CCR_ORACLE_TOL:
            return f"oracle value {results['oracle_value']!r}, closed form {want!r}"
        return None

    def demo_ok(results):
        v = results["verdict"]
        if (v["kind"], results["mode1_transition_probability"]) != ("QuasiEquivalent", 0.0):
            return f"counterexample verdict {v['kind']}, mode-1 tp {results['mode1_transition_probability']}"
        if results["mode1_meet_rank"] < 1 or results["transition_product_zero"] is not True:
            return f"counterexample meet rank {results['mode1_meet_rank']}"
        return None

    def crashed_with_type_error(res: CliResult) -> bool:
        return res.code == 1 and res.report is None and "TypeError" in res.stderr

    def accepted(res: CliResult) -> bool:
        return res.code == 0 and res.report is not None

    # success paths
    add("car8", ["validate", scenario("car8", car8)], 0, validate_ok)
    add("car8", ["trans-prob", files["car8"]], 0, tp_close(tp8, CLOSED_FORM_RTOL))
    add("ccr2", ["trans-prob", scenario("ccr2", ccr2)], 0, tp_close(tp_ccr, CCR_CLOSED_TOL))
    add("ccr2", ["classify", files["ccr2"]], 0, ccr_classify_ok)
    add("car_mu_power-p1", ["classify", scenario("car-seq-p1", car_seq_1)], 0,
        seq_ok("car1", "Disjoint"))
    add("ccr_thermal_power-p2", ["classify", scenario("ccr-seq-p2", ccr_seq_2)], 3,
        seq_ok("ccr2", "Inconclusive"))
    add("car8", ["quadrature-check", files["car8"]], 0, quad_ok)
    add("car6", ["oracle-compare", scenario("car6", {"kind": "car-pair", "S": _matrix_json(s6),
                                                     "T": _matrix_json(t6)})], 0, oracle_ok)
    add("ccr1", ["oracle-compare", scenario("ccr1", {
        "kind": "ccr-pair", "sigma": _matrix_json(ref.canonical_sigma(1)),
        "R_S": _matrix_json(np.eye(2) * c1 / 2), "R_T": _matrix_json(np.eye(2) * c2 / 2)})],
        0, thermal_oracle_ok)
    add("n256", ["demo-counterexample", "--n-max", "256"], 0, demo_ok)
    # error paths the CLI handles today: exit 2 (or 4) with a JSON report
    add("not-json", ["trans-prob", scenario("not-json", '{"kind": "car-pair", "S": [[0.5')], 2)
    add("unknown-kind", ["validate", scenario("unknown-kind", {"kind": "car-triple"})], 2)
    add("ragged", ["trans-prob", scenario("ragged", {
        "kind": "car-pair", "S": [[0.5, 0.0], [0.0]], "T": car8["T"]})], 2)
    add("not-psd", ["validate", scenario("not-psd", {
        "kind": "car-pair", "S": _matrix_json(ref.mu_matrix(0.8)),
        "T": _matrix_json(ref.mu_matrix(mu_a))})], 2)
    add("wrong-kind", ["trans-prob", files["car-seq-p1"]], 2)
    add("car10", ["oracle-compare", scenario("car10", {
        "kind": "car-pair", "S": _matrix_json(s10), "T": _matrix_json(t10)})], 4)
    # malformed scenarios that hit defects listed in ROADMAP item 4; the
    # expected result is still the CLI contract (exit 2 with a JSON report)
    add("cutoff-null", ["validate", scenario("cutoff-null", dict(car8, options={"cutoff": None}))],
        2, known_defect="options.cutoff null crashes with a TypeError traceback",
        signature=crashed_with_type_error)
    add("tail-int", ["validate", scenario("tail-int", {
        "kind": "car-sequence",
        "family": {"rule": "literal", "tail": 5,
                   "pairs": [[_matrix_json(ref.mu_matrix(mu_a)), _matrix_json(ref.mu_matrix(mu_b))]]}
    })], 2, known_defect="literal family with a numeric tail crashes with a TypeError traceback",
        signature=crashed_with_type_error)
    add("p-bool", ["classify", scenario("p-bool", {
        "kind": "car-sequence", "family": {"rule": "car_mu_power", "p": True},
        "options": {"n_max": 256}})], 2,
        known_defect="boolean exponent p=true is accepted as 1", signature=accepted)
    # 2x2, where eigvalsh returns NaN instead of raising (larger matrices
    # happen to fail later with a LinAlgError, which the CLI reports as exit 2)
    add("nan-entry", ["validate", scenario("nan-entry", {
        "kind": "car-pair", "S": [[math.nan, 0.0], [0.0, 0.5]],
        "T": _matrix_json(ref.mu_matrix(mu_a))})], 2,
        known_defect="NaN covariance entry passes validation", signature=accepted)

    def cleanup():
        for path in files.values():
            Path(path).unlink(missing_ok=True)
        try:
            workdir.rmdir()
        except OSError:
            pass

    wl.cleanup = cleanup
    wl.env = env
    # warm-up: one qf run (compiles bytecode, fills the page cache)
    wl.cycle[0].run()
    return wl


SETUPS = {
    "sequences": setup_sequences,
    "dense-pairs": setup_dense_pairs,
    "oracle-check": setup_oracle_check,
    "cli": setup_cli,
}
