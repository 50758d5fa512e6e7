"""JSON-scenario command line front end.

Commands read one scenario file, write a single JSON report to stdout, and
log to stderr. Exit codes: 0 success, 2 validation failure, 3 inconclusive
(including criteria that disagree), 4 resource cap.

Importing this module loads the standard library, errors and tolerances only.
numpy, car, ccr and matcore load at the first numeric step (the first matrix
parsed or family built), seqmodel only for sequence scenarios and the demo,
the oracles only for oracle-compare: a scenario refused before any number is
read never loads numpy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import json
import math
import sys
import time
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import __version__
from .errors import ConsistencyViolation, CovarianceError, InconclusiveError, SizeCapError
from .tolerances import ORACLE_COMPARE_TOL, THERMAL_MATCH_TOL

if TYPE_CHECKING:
    import numpy as np
    from . import ccr, seqmodel

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INCONCLUSIVE = 3
EXIT_RESOURCE = 4

# oracle-compare refuses CAR pairs above this dimension (exit 4). Kept at 8
# (4 modes), below car_oracle.MAX_MODES, on purpose: perfbench's cli workload
# runs a 10-dimensional pair (scenario car10) that must exit 4.
CAR_ORACLE_COMPARE_MAX_DIM = 8
# JSON levels a scenario may nest (its keys need 7); deeper, it is refused before any recursion
MAX_SCENARIO_DEPTH = 64
# --n-max default: seqmodel.DEFAULT_N_MAX, which this module cannot read without loading numpy
DEFAULT_N_MAX = 4096


def _lazy(module: str, name: str) -> Callable:
    """Call quasifree.<module>.<name>: the module is imported at the first call, and
    the name looked up in it at every call."""
    def call(*args):
        return getattr(importlib.import_module(f"{__package__}.{module}"), name)(*args)
    return call


def _car_range(cov) -> tuple:
    """The extreme eigenvalues 1/2 -+ sqrt(max x) of S, from its cached spectrum."""
    r = math.sqrt(cov.spectrum[0].max(initial=0.0))
    return 0.5 - r, 0.5 + r


def _ccr_range(cov) -> tuple:
    """The extreme eigenvalues of R + i*sigma/2, from ``matcore.eigvalsh``."""
    w = _lazy("matcore", "eigvalsh")(cov.s_matrix)
    return float(w[0]), float(w[-1])


class _Algebra(NamedTuple):
    """What a scenario of one algebra reads and reports."""

    name: str            # the seqmodel sequence kind and the pair module
    shared: tuple        # matrices both covariances are validated with
    states: tuple        # a pair scenario's matrix for each state
    validate: Callable   # validate(*shared, state matrix) -> covariance
    eig_range: Callable  # covariance -> the (min, max) eigenvalue validate reports
    tp: Callable
    log_tp: Callable
    tp_squared: str      # report key of tp**2


_CAR = _Algebra("car", (), ("S", "T"), _lazy("car", "validate_car"), _car_range,
                _lazy("car", "trans_prob_car"), _lazy("car", "log_trans_prob_car"),
                "abs_det_overlap_matrix")
_CCR = _Algebra("ccr", ("sigma",), ("R_S", "R_T"), _lazy("ccr", "validate_ccr"), _ccr_range,
                _lazy("ccr", "trans_prob_ccr"), _lazy("ccr", "log_trans_prob_ccr"),
                "det_factor")
# scenario kind -> its algebra: car-pair, ccr-pair, car-sequence, ccr-sequence
_KINDS = {f"{alg.name}-{shape}": alg for shape in ("pair", "sequence") for alg in (_CAR, _CCR)}


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
    import numpy as np
    return np.array(rows, dtype=complex)


def load_scenario(path: str):
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    digest = "sha256:" + hashlib.sha256(raw).hexdigest()
    too_deep = f"scenario nests deeper than {MAX_SCENARIO_DEPTH} levels"
    try:
        scenario = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError(too_deep) from exc
    if not isinstance(scenario, dict):
        raise ScenarioError("scenario must be a JSON object")
    level = [scenario]
    for _ in range(MAX_SCENARIO_DEPTH):  # level by level, without recursion
        level = [x for c in level for x in (c.values() if isinstance(c, dict) else c)
                 if isinstance(x, (dict, list))]
    if level:
        raise ScenarioError(too_deep)
    kind = scenario.get("kind")
    if kind not in _KINDS:
        raise ScenarioError(f"scenario kind must be one of {tuple(_KINDS)}, got {kind!r}")
    return scenario, digest


def _pair(scenario) -> tuple:
    """The validated (S, T) of a pair scenario, each parsed and validated in turn."""
    alg = _KINDS[scenario["kind"]]
    for key in alg.shared + alg.states:
        if key not in scenario:
            raise ScenarioError(f"{scenario['kind']} scenario needs matrix {key!r}")
    shared = [parse_matrix(scenario[key], key) for key in alg.shared]
    s, t = (alg.validate(*shared, parse_matrix(scenario[key], key)) for key in alg.states)
    if s.dim != t.dim:
        raise CovarianceError(f"dimension mismatch: {s.dim} vs {t.dim}")
    return s, t


def _is_number(x) -> bool:
    """A JSON number a float can hold: not a boolean, not an out-of-range integer."""
    return isinstance(x, float) or (
        isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max)


def _is_finite(x) -> bool:
    """A JSON number (:func:`_is_number`) that is finite."""
    return _is_number(x) and math.isfinite(x)


def _exponent(fam: dict) -> float:
    p = fam.get("p")
    if not _is_finite(p) or not p > 0:
        raise ScenarioError(f"{fam['rule']} needs a positive exponent 'p'")
    return float(p)


def _literal_family(fam: dict, alg: _Algebra) -> seqmodel.ModeFamily:
    """Explicit [first, second] covariance pairs and an optional tail pair."""
    from . import seqmodel
    shared = [parse_matrix(fam.get(key, []), f"family.{key}") for key in alg.shared]
    make = functools.partial(alg.validate, *shared)

    def pair(raw, where: str) -> tuple:
        if not isinstance(raw, list) or len(raw) != 2:
            raise ScenarioError(f"{where} must be a two-element list [first, second]")
        return tuple(make(parse_matrix(m, f"{where}[{i}]")) for i, m in enumerate(raw))

    pairs = fam.get("pairs")
    if not isinstance(pairs, list) or not pairs:
        raise ScenarioError("literal family needs a non-empty 'pairs' list")
    tail, label = fam.get("tail"), fam.get("label", "literal")
    if not isinstance(label, str):
        raise ScenarioError(f"literal family 'label' must be a string, got {label!r}")
    return seqmodel.literal_family(
        alg.name, [pair(raw, f"pairs[{i}]") for i, raw in enumerate(pairs)],
        tail=None if tail is None else pair(tail, "tail"), label=label,
    )


# family rule -> (the sequence kind it is for, None for both; family factory)
_FAMILY_RULES = {
    "car_mu_power": ("car", lambda fam, _: _lazy("seqmodel", "car_power_family")(_exponent(fam))),
    "ccr_thermal_power": (
        "ccr", lambda fam, _: _lazy("seqmodel", "ccr_thermal_power_family")(_exponent(fam))),
    "counterexample": ("car", lambda fam, _: _lazy("seqmodel", "car_counterexample")()),
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
    alg = _KINDS[scenario["kind"]]
    if kind not in (None, alg.name):
        raise ScenarioError(f"{rule} is a {kind}-sequence rule")
    return make(fam, alg)


def _inputs(scenario):
    """A pair scenario's validated (S, T), a sequence scenario's family."""
    return _pair(scenario) if scenario["kind"].endswith("-pair") else _family(scenario)


def _sanitize(value):
    """Make results JSON-safe: non-finite floats become report tokens."""
    if hasattr(type(value), "__dataclass_fields__"):  # a dataclass instance, not a class
        import dataclasses  # only a computed report has one, so a refusal never loads it
        return _sanitize(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(k): _sanitize(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sanitize(v) for v in value]
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, complex):  # numpy's complex128 too
        if value.imag == 0.0:
            return _sanitize(value.real)
        return [_sanitize(value.real), _sanitize(value.imag)]
    if isinstance(value, float):  # numpy's float64 too
        f = float(value)
        if math.isnan(f):
            return "inconclusive"
        if math.isinf(f):
            return "infinity" if f > 0 else "-infinity"
        return f
    import numpy as np  # what is left is a numpy array or scalar, so numpy is loaded
    if isinstance(value, np.ndarray):
        return _sanitize(value.tolist())
    if isinstance(value, np.complexfloating):
        return _sanitize(complex(value))
    if isinstance(value, np.floating):
        return _sanitize(float(value))
    if isinstance(value, (np.integer, np.bool_)):  # json.dumps takes neither
        return value.item()
    return value


def _cmd_validate(scenario, inputs, opts):
    results = {}
    if scenario["kind"].endswith("-pair"):
        for name, cov in zip("ST", inputs):
            low, high = _KINDS[scenario["kind"]].eig_range(cov)
            results[name] = {"dim": cov.dim, "min_eigenvalue": low, "max_eigenvalue": high}
    else:
        inputs.stack(1, 8)  # the family's covariances validate as they are built
        results["family"] = {"label": inputs.label, "modes_checked": 8}
    results["valid"] = True
    return results, EXIT_OK


def _cmd_trans_prob(scenario, inputs, opts):
    alg = _KINDS[scenario["kind"]]
    s, t = inputs
    tp = alg.tp(s, t)
    # the log is finite where tp underflows to 0, and "-infinity" iff tp is an exact zero
    return {"transition_probability": tp, alg.tp_squared: tp**2,
            "log_transition_probability": alg.log_tp(s, t)}, EXIT_OK


def _cmd_classify(scenario, inputs, opts):
    if scenario["kind"] == "ccr-pair":
        from . import ccr
        return {"verdict": ccr.classify_ccr(*inputs)}, EXIT_OK
    from . import seqmodel
    verdict = seqmodel.classify_sequence(inputs, n_max=opts["n_max"])
    code = EXIT_INCONCLUSIVE if verdict.kind == seqmodel.INCONCLUSIVE else EXIT_OK
    return {"verdict": verdict, "family": inputs.label}, code


def _cmd_quadrature_check(scenario, inputs, opts):
    from . import car, matcore
    s, t = inputs
    p, q = car.quadrature(s), car.quadrature(t)
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
    import numpy as np
    from . import ccr
    if cov.dim != 2:
        return None
    if float(np.max(np.abs(cov.sigma - ccr.canonical_sigma(1)))) > THERMAL_MATCH_TOL:
        return None
    r, tol = cov.r, THERMAL_MATCH_TOL
    c = 2.0 * float(r[0, 0])
    if abs(r[0, 1]) > tol or abs(2.0 * r[1, 1] - c) > tol or c < 1.0 - tol:
        return None
    return max(c, 1.0)


def _cmd_oracle_compare(scenario, inputs, opts):
    from . import car_oracle, ccr_oracle
    alg = _KINDS[scenario["kind"]]
    s, t = inputs
    if alg is _CAR:
        if s.dim > CAR_ORACLE_COMPARE_MAX_DIM:
            raise SizeCapError(f"car oracle comparison capped at dimension "
                               f"{CAR_ORACLE_COMPARE_MAX_DIM}, got {s.dim}")
        oracle = car_oracle.overlap(
            car_oracle.density_from_covariance(s), car_oracle.density_from_covariance(t)
        )
    else:
        cs, ct = _thermal_widths(s), _thermal_widths(t)
        if cs is None or ct is None:
            raise SizeCapError(
                "ccr oracle comparison supports single-mode thermal-diagonal "
                "covariances only (canonical sigma, R = (c/2) I)"
            )
        schedule = tuple(n for n in ccr_oracle.CUTOFF_SCHEDULE if n <= opts["cutoff"])
        if len(schedule) < 2:  # the overlap converges only between two cutoffs
            raise ScenarioError(f"cutoff {opts['cutoff']} admits fewer than two cutoffs "
                                f"of the oracle schedule {ccr_oracle.CUTOFF_SCHEDULE}")
        states = [
            ccr_oracle.gaussian_density(
                ccr_oracle.thermal_hamiltonian(_q_of_width(c)), schedule[0]
            )
            for c in (cs, ct)
        ]
        oracle = ccr_oracle.overlap_ccr(states[0], states[1], schedule=schedule)
    formula = alg.tp(s, t)
    diff = abs(formula - oracle)
    return {
        "formula_value": formula,
        "oracle_value": oracle,
        "abs_diff": diff,
        "within_tol": bool(diff <= opts["tol"]),
    }, EXIT_OK


def _q_of_width(c: float) -> float:
    """Boltzmann ratio of a thermal state of width c = 2*nbar + 1."""
    nbar = 0.5 * (c - 1.0)
    return nbar / (nbar + 1.0)


def _cmd_demo_counterexample(scenario, inputs, opts):
    from . import car, seqmodel
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


# command -> (handler, the scenario kinds it takes); a command that takes none reads no
# scenario. A handler takes the scenario, what _inputs read from it, and the options.
_COMMANDS = {
    "validate": (_cmd_validate, tuple(_KINDS)),
    "trans-prob": (_cmd_trans_prob, ("car-pair", "ccr-pair")),
    "classify": (_cmd_classify, ("ccr-pair", "car-sequence", "ccr-sequence")),
    "quadrature-check": (_cmd_quadrature_check, ("car-pair",)),
    "oracle-compare": (_cmd_oracle_compare, ("car-pair", "ccr-pair")),
    "demo-counterexample": (_cmd_demo_counterexample, ()),
}

# option -> (type, default, help); a scenario's "options" override the default, a flag both
_OPTIONS = {
    "tol": (float, ORACLE_COMPARE_TOL, "comparison tolerance"),
    "cutoff": (int, 80, "max truncated-Fock cutoff"),
    "n_max": (int, DEFAULT_N_MAX, "sequence scan length"),
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
    for key, (kind, default, what) in _OPTIONS.items():
        parser.add_argument("--" + key.replace("_", "-"), type=kind,
                            help=f"{what} (default {default:g})")
    return parser


# exception -> (exit code, log prefix), first match wins: SizeCapError and the
# validation errors (ScenarioError, CovarianceError, ...) all subclass ValueError
_FAILURES = (
    (InconclusiveError, EXIT_INCONCLUSIVE, "inconclusive"),
    (ConsistencyViolation, EXIT_INCONCLUSIVE, "criteria disagree"),
    (SizeCapError, EXIT_RESOURCE, "resource cap"),
    (ValueError, EXIT_VALIDATION, "validation error"),
)


def _numeric_option(key: str, value, kind):
    """A finite number option as float or int, tol at least 0; anything else is a
    ScenarioError."""
    if not _is_finite(value):
        raise ScenarioError(f"option {key!r} must be a finite number, got {value!r}")
    if key == "tol" and value < 0:
        raise ScenarioError(f"option 'tol' must be at least 0, got {value!r}")
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
        handler, kinds = _COMMANDS[args.command]
        given = {}
        if kinds:
            if not args.scenario:
                raise ScenarioError(f"{args.command} needs a scenario file")
            scenario, digest = load_scenario(args.scenario)
            report["inputs_digest"] = digest
            report["scenario"] = scenario
            given = scenario.get("options", {})
            if not isinstance(given, dict):
                raise ScenarioError("scenario 'options' must be an object")
        opts = {}
        for key, (kind, default, _) in _OPTIONS.items():
            value = getattr(args, key)  # None: the flag was not given
            if value is None:
                value = given.get(key, default)
            opts[key] = _numeric_option(key, value, kind)
        if kinds and scenario["kind"] not in kinds:
            raise ScenarioError(
                f"{args.command} needs a scenario of kind {kinds}, got {scenario['kind']!r}")

        results, code = handler(scenario, _inputs(scenario) if kinds else None, opts)
    except tuple(cls for cls, _, _ in _FAILURES) as exc:
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
