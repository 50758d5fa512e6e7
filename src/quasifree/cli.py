"""JSON-scenario command line front end.

Commands read one scenario file, write a single JSON report to stdout, and
log to stderr. Exit codes: 0 success, 2 validation failure, 3 inconclusive,
4 resource cap.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import sys
import time

import numpy as np

from . import __version__, car, car_oracle, ccr, ccr_oracle, matcore, seqmodel
from .errors import CovarianceError, InconclusiveError, SizeCapError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_RESOURCE = 4

# oracle-compare refuses CAR pairs above this dimension (exit 4). Kept at 8
# (4 modes), below car_oracle.MAX_MODES, on purpose: perfbench's cli workload
# runs a 10-dimensional pair (scenario car10) that must exit 4.
CAR_ORACLE_COMPARE_MAX_DIM = 8

_PAIR_KINDS = ("car-pair", "ccr-pair")
_SEQ_KINDS = ("car-sequence", "ccr-sequence")


class ScenarioError(ValueError):
    """Malformed scenario file."""


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _parse_entry(entry, where: str) -> complex:
    if _is_number(entry):
        return complex(entry)
    if isinstance(entry, list) and len(entry) == 2 and all(_is_number(x) for x in entry):
        return complex(entry[0], entry[1])
    raise ScenarioError(f"{where}: matrix entries must be numbers or [re, im] pairs")


def parse_matrix(obj, name: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj or not all(isinstance(r, list) for r in obj):
        raise ScenarioError(f"{name} must be a non-empty list of rows")
    width = len(obj[0])
    rows = []
    for i, row in enumerate(obj):
        if len(row) != width:
            raise ScenarioError(f"{name}: row {i} has length {len(row)}, expected {width}")
        rows.append([_parse_entry(e, f"{name}[{i}]") for e in row])
    return np.array(rows, dtype=complex)


def load_scenario(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    try:
        scenario = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    kind = scenario.get("kind")
    if kind not in _PAIR_KINDS + _SEQ_KINDS:
        raise ScenarioError(
            f"scenario kind must be one of {_PAIR_KINDS + _SEQ_KINDS}, got {kind!r}"
        )
    return scenario, digest


def _car_pair(scenario) -> tuple:
    for key in ("S", "T"):
        if key not in scenario:
            raise ScenarioError(f"car-pair scenario needs matrix {key!r}")
    s = car.validate_car(parse_matrix(scenario["S"], "S"))
    t = car.validate_car(parse_matrix(scenario["T"], "T"))
    if s.dim != t.dim:
        raise CovarianceError(f"dimension mismatch: {s.dim} vs {t.dim}")
    return s, t


def _ccr_pair(scenario) -> tuple:
    for key in ("sigma", "R_S", "R_T"):
        if key not in scenario:
            raise ScenarioError(f"ccr-pair scenario needs matrix {key!r}")
    sigma = parse_matrix(scenario["sigma"], "sigma")
    s = ccr.validate_ccr(sigma, parse_matrix(scenario["R_S"], "R_S"))
    t = ccr.validate_ccr(sigma, parse_matrix(scenario["R_T"], "R_T"))
    return s, t


def _is_number(x) -> bool:
    """A JSON number a float can hold: not a boolean, not an out-of-range integer."""
    return isinstance(x, float) or (
        isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max)


def _exponent(fam: dict) -> float:
    p = fam.get("p")
    if not _is_number(p) or not p > 0:
        raise ScenarioError(f"{fam['rule']} needs a positive exponent 'p'")
    return float(p)


def _literal_family(fam: dict, seq_kind: str) -> seqmodel.ModeFamily:
    """Explicit [first, second] covariance pairs and an optional tail pair."""
    if seq_kind == seqmodel.CAR:
        make = car.validate_car
    else:
        sigma = parse_matrix(fam.get("sigma", []), "family.sigma")
        make = functools.partial(ccr.validate_ccr, sigma)

    def pair(raw, where: str) -> tuple:
        if not isinstance(raw, list) or len(raw) != 2:
            raise ScenarioError(f"{where} must be a two-element list [first, second]")
        return tuple(make(parse_matrix(m, f"{where}[{i}]")) for i, m in enumerate(raw))

    pairs = fam.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ScenarioError("literal family needs a non-empty 'pairs' list")
    tail = fam.get("tail")
    return seqmodel.literal_family(
        seq_kind, [pair(raw, f"pairs[{i}]") for i, raw in enumerate(pairs)],
        tail=None if tail is None else pair(tail, "tail"), label=fam.get("label", "literal"),
    )


# family rule -> (the sequence kind it is for, None for both; family factory)
_FAMILY_RULES = {
    "car_mu_power": (seqmodel.CAR, lambda fam, _: seqmodel.car_power_family(_exponent(fam))),
    "ccr_thermal_power": (
        seqmodel.CCR, lambda fam, _: seqmodel.ccr_thermal_power_family(_exponent(fam))),
    "counterexample": (seqmodel.CAR, lambda fam, _: seqmodel.car_counterexample()),
    "literal": (None, _literal_family),
}


def _family(scenario) -> seqmodel.ModeFamily:
    fam = scenario.get("family")
    if not isinstance(fam, dict):
        raise ScenarioError("sequence scenario needs a 'family' object")
    rule = fam.get("rule")
    if not isinstance(rule, str) or rule not in _FAMILY_RULES:
        raise ScenarioError(f"unknown family rule {rule!r}")
    kind, make = _FAMILY_RULES[rule]
    seq_kind = seqmodel.CAR if scenario["kind"] == "car-sequence" else seqmodel.CCR
    if kind not in (None, seq_kind):
        raise ScenarioError(f"{rule} is a {kind}-sequence rule")
    return make(fam, seq_kind)


def _sanitize(value):
    """Make results JSON-safe: non-finite floats become report tokens."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _sanitize(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        if c.imag == 0.0:
            return _sanitize(c.real)
        return [_sanitize(c.real), _sanitize(c.imag)]
    if isinstance(value, (float, np.floating)):
        f = float(value)
        if math.isnan(f):
            return "inconclusive"
        if math.isinf(f):
            return "infinity" if f > 0 else "-infinity"
        return f
    if isinstance(value, (np.integer,)):
        return int(value)
    return value


def _require_kind(scenario, allowed, command: str) -> None:
    if scenario["kind"] not in allowed:
        raise ScenarioError(
            f"{command} needs a scenario of kind {allowed}, got {scenario['kind']!r}"
        )


def _cmd_validate(scenario, opts):
    results = {}
    if scenario["kind"] in _PAIR_KINDS:
        is_car = scenario["kind"] == "car-pair"
        for name, cov in zip("ST", (_car_pair if is_car else _ccr_pair)(scenario)):
            w = np.linalg.eigvalsh(cov.matrix if is_car else cov.s_matrix)
            results[name] = {"dim": cov.dim, "min_eigenvalue": float(w[0]),
                             "max_eigenvalue": float(w[-1])}
    else:
        fam = _family(scenario)
        fam.stack(1, 8)  # the family's covariances validate as they are built
        results["family"] = {"label": fam.label, "modes_checked": 8}
    results["valid"] = True
    return results, EXIT_OK


def _cmd_trans_prob(scenario, opts):
    _require_kind(scenario, _PAIR_KINDS, "trans-prob")
    is_car = scenario["kind"] == "car-pair"
    s, t = (_car_pair if is_car else _ccr_pair)(scenario)
    tp = (car.trans_prob_car if is_car else ccr.trans_prob_ccr)(s, t)
    results = {"transition_probability": tp,
               "abs_det_overlap_matrix" if is_car else "det_factor": tp**2}
    if is_car:  # finite where tp underflows to 0; "-infinity" iff the meet is nonzero
        results["log_transition_probability"] = car.log_trans_prob_car(s, t)
    return results, EXIT_OK


def _cmd_classify(scenario, opts):
    _require_kind(scenario, ("ccr-pair",) + _SEQ_KINDS, "classify")
    if scenario["kind"] == "ccr-pair":
        s, t = _ccr_pair(scenario)
        verdict = ccr.classify_ccr(s, t)
        return {"verdict": verdict}, EXIT_OK
    fam = _family(scenario)
    verdict = seqmodel.classify_sequence(fam, n_max=opts["n_max"])
    code = EXIT_INCONCLUSIVE if verdict.kind == seqmodel.INCONCLUSIVE else EXIT_OK
    return {"verdict": verdict, "family": fam.label}, code


def _cmd_quadrature_check(scenario, opts):
    _require_kind(scenario, ("car-pair",), "quadrature-check")
    s, t = _car_pair(scenario)
    p, q = car.quadrature(s), car.quadrature(t)
    car.validate_doubled_covariance(p)
    car.validate_doubled_covariance(q)
    lhs, rhs = car.quadrature_identity_check(s, t)
    return {
        "lhs_doubled_transition_probability": lhs,
        "rhs_squared_transition_probability": rhs,
        "abs_diff": abs(lhs - rhs),
        "projection_defects": [matcore.projection_defect(p), matcore.projection_defect(q)],
        "meet_rank": car.meet_criterion(s, t),
    }, EXIT_OK


def _thermal_widths(cov: ccr.CcrCovariance):
    """Width c if the covariance is single-mode thermal-diagonal, else None."""
    if cov.dim != 2:
        return None
    if float(np.max(np.abs(cov.sigma - ccr.canonical_sigma(1)))) > 1e-9:
        return None
    r = cov.r
    c = 2.0 * float(r[0, 0])
    if abs(r[0, 1]) > 1e-9 or abs(2.0 * r[1, 1] - c) > 1e-9 or c < 1.0 - 1e-9:
        return None
    return max(c, 1.0)


def _cmd_oracle_compare(scenario, opts):
    _require_kind(scenario, _PAIR_KINDS, "oracle-compare")
    tol = opts["tol"]
    if scenario["kind"] == "car-pair":
        s, t = _car_pair(scenario)
        if s.dim > CAR_ORACLE_COMPARE_MAX_DIM:
            raise SizeCapError(f"car oracle comparison capped at dimension "
                               f"{CAR_ORACLE_COMPARE_MAX_DIM}, got {s.dim}")
        formula = car.trans_prob_car(s, t)
        oracle = car_oracle.overlap(
            car_oracle.density_from_covariance(s), car_oracle.density_from_covariance(t)
        )
    else:
        s, t = _ccr_pair(scenario)
        cs, ct = _thermal_widths(s), _thermal_widths(t)
        if cs is None or ct is None:
            raise SizeCapError(
                "ccr oracle comparison supports single-mode thermal-diagonal "
                "covariances only (canonical sigma, R = (c/2) I)"
            )
        formula = ccr.trans_prob_ccr(s, t)
        schedule = tuple(n for n in ccr_oracle.CUTOFF_SCHEDULE if n <= opts["cutoff"])
        if not schedule:
            raise ScenarioError(f"cutoff {opts['cutoff']} below the oracle schedule")
        states = [
            ccr_oracle.gaussian_density(
                ccr_oracle.thermal_hamiltonian(_q_of_width(c)), schedule[0]
            )
            for c in (cs, ct)
        ]
        oracle = ccr_oracle.overlap_ccr(states[0], states[1], schedule=schedule)
    diff = abs(formula - oracle)
    return {
        "formula_value": formula,
        "oracle_value": oracle,
        "abs_diff": diff,
        "within_tol": bool(diff <= tol),
    }, EXIT_OK


def _q_of_width(c: float) -> float:
    """Boltzmann ratio of a thermal state of width c = 2*nbar + 1."""
    nbar = 0.5 * (c - 1.0)
    return nbar / (nbar + 1.0)


def _cmd_demo_counterexample(scenario, opts):
    fam = seqmodel.car_counterexample()
    verdict = seqmodel.classify_sequence(fam, n_max=opts["n_max"])
    s1, t1 = fam.pair_at(1)
    return {
        "family": fam.label,
        "verdict": verdict,
        "mode1_transition_probability": car.trans_prob_car(s1, t1),
        "mode1_meet_rank": car.meet_criterion(s1, t1),
        "transition_product_zero": bool(
            math.isinf(verdict.neg_log_tp_partial_sums[-1])
        ),
    }, EXIT_OK


_COMMANDS = {
    "validate": (_cmd_validate, True),
    "trans-prob": (_cmd_trans_prob, True),
    "classify": (_cmd_classify, True),
    "quadrature-check": (_cmd_quadrature_check, True),
    "oracle-compare": (_cmd_oracle_compare, True),
    "demo-counterexample": (_cmd_demo_counterexample, False),
}


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """Usage errors become validation errors with a JSON report, not a bare exit."""
        raise ScenarioError(f"usage: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="qf",
        description="Quasi-free state calculus: transition probabilities, "
        "quasi-equivalence classification, and oracle cross-checks.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("scenario", nargs="?", help="path to a scenario JSON file")
    parser.add_argument("--tol", type=float, default=None,
                        help="comparison tolerance (default 1e-8)")
    parser.add_argument("--cutoff", type=int, default=None,
                        help="max truncated-Fock cutoff (default 80)")
    parser.add_argument("--n-max", type=int, default=None,
                        help="sequence scan length (default 4096)")
    return parser


# exception -> (exit code, log prefix), first match wins: SizeCapError and the
# validation errors (ScenarioError, CovarianceError, ...) all subclass ValueError
_FAILURES = (
    (InconclusiveError, EXIT_INCONCLUSIVE, "inconclusive"),
    (SizeCapError, EXIT_RESOURCE, "resource cap"),
    (ValueError, EXIT_VALIDATION, "validation error"),
)
_DEFAULT_OPTS = {"tol": 1e-8, "cutoff": 80, "n_max": 4096}
_NUMERIC_OPTS = {"tol": float, "cutoff": int, "n_max": int}


def _numeric_option(key: str, value, kind):
    """A finite number option as float or int; anything else is a ScenarioError."""
    if not _is_number(value) or not math.isfinite(value):
        raise ScenarioError(f"option {key!r} must be a finite number, got {value!r}")
    if kind is int and value != int(value):
        raise ScenarioError(f"option {key!r} must be an integer, got {value!r}")
    return kind(value)


def main(argv=None) -> int:
    started = time.monotonic()
    report = {"command": None, "tool_version": __version__}

    def emit(code: int) -> int:
        report["timing_seconds"] = round(time.monotonic() - started, 6)
        print(json.dumps(_sanitize(report), indent=2))
        return code

    scenario = None
    try:
        args = _build_parser().parse_args(argv)
        report["command"] = args.command
        handler, needs_scenario = _COMMANDS[args.command]
        opts = dict(_DEFAULT_OPTS)
        if needs_scenario:
            if not args.scenario:
                raise ScenarioError(f"{args.command} needs a scenario file")
            scenario, digest = load_scenario(args.scenario)
            report["inputs_digest"] = digest
            report["scenario"] = scenario
            given = scenario.get("options", {})
            if not isinstance(given, dict):
                raise ScenarioError("scenario 'options' must be an object")
            for key in opts:
                if key in given:
                    opts[key] = given[key]
        for key in opts:
            if getattr(args, key) is not None:
                opts[key] = getattr(args, key)
        for key, kind in _NUMERIC_OPTS.items():
            opts[key] = _numeric_option(key, opts[key], kind)

        results, code = handler(scenario, opts)
    except (InconclusiveError, ValueError) as exc:
        code, what = next((c, w) for cls, c, w in _FAILURES if isinstance(exc, cls))
        _log(f"{what}: {exc}")
        report["error"] = str(exc)
        report["exit_code"] = code
        return emit(code)

    report["results"] = results
    report["exit_code"] = code
    if code == EXIT_INCONCLUSIVE:
        _log("verdict inconclusive")
    return emit(code)


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
