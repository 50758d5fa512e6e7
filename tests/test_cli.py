"""End-to-end CLI tests: scenario files in, JSON reports out, exit codes."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasifree import cli

MU_03 = [[0.5, [0.0, -0.3]], [[0.0, 0.3], 0.5]]
MU_01 = [[0.5, [0.0, -0.1]], [[0.0, 0.1], 0.5]]
SIGMA_1 = [[0.0, 1.0], [-1.0, 0.0]]

TP_MU_03_01 = (2.0 * math.sqrt(3.0) + math.sqrt(2.0)) / 5.0


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    return code, report, captured.err


def write_scenario(tmp_path, obj, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def car_pair_scenario(s=MU_03, t=MU_01, **extra):
    sc = {"kind": "car-pair", "S": s, "T": t}
    sc.update(extra)
    return sc


def thermal_r(c):
    return [[c / 2.0, 0.0], [0.0, c / 2.0]]


# ---------------------------------------------------------------- validate


def test_validate_car_pair(tmp_path, capsys):
    path = write_scenario(tmp_path, car_pair_scenario())
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 0
    assert report["exit_code"] == 0
    assert report["inputs_digest"].startswith("sha256:")
    assert report["results"]["valid"] is True
    assert report["results"]["S"]["dim"] == 2
    assert report["results"]["S"]["min_eigenvalue"] == pytest.approx(0.2)


def test_validate_rejects_bad_covariance(tmp_path, capsys):
    bad = car_pair_scenario(s=[[0.9, 0.0], [0.0, 0.9]])
    path = write_scenario(tmp_path, bad)
    code, report, err = run_cli(capsys, ["validate", path])
    assert code == 2
    assert "error" in report
    assert "validation error" in err


def test_validate_ccr_pair(tmp_path, capsys):
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": thermal_r(3.0), "R_T": thermal_r(1.0)}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 0
    assert report["results"]["S"]["min_eigenvalue"] == pytest.approx(1.0)


def test_validate_sequence(tmp_path, capsys):
    sc = {"kind": "car-sequence", "family": {"rule": "car_mu_power", "p": 2.0}}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 0
    assert report["results"]["family"]["modes_checked"] == 8


def test_scenario_file_errors(tmp_path, capsys):
    code, report, err = run_cli(capsys, ["validate", str(tmp_path / "missing.json")])
    assert code == 2
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, report, _ = run_cli(capsys, ["validate", str(bad)])
    assert code == 2
    assert "not valid JSON" in report["error"]


def test_unknown_kind_and_bad_entries(tmp_path, capsys):
    path = write_scenario(tmp_path, {"kind": "mystery"})
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 2
    path = write_scenario(tmp_path, car_pair_scenario(s=[["x", 0.0], [0.0, 0.5]]))
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 2
    assert "entries" in report["error"]


def test_missing_scenario_argument(capsys):
    code, report, err = run_cli(capsys, ["validate"])
    assert code == 2
    assert "needs a scenario" in report["error"]


# --------------------------------------------------------------- trans-prob


def test_trans_prob_car_anchor(tmp_path, capsys):
    path = write_scenario(tmp_path, car_pair_scenario())
    code, report, _ = run_cli(capsys, ["trans-prob", path])
    assert code == 0
    tp = report["results"]["transition_probability"]
    assert tp == pytest.approx(TP_MU_03_01, abs=1e-10)
    assert report["results"]["abs_det_overlap_matrix"] == pytest.approx(tp**2)


def test_trans_prob_car_reports_log(tmp_path, capsys):
    path = write_scenario(tmp_path, car_pair_scenario())
    code, report, _ = run_cli(capsys, ["trans-prob", path])
    assert code == 0
    assert report["results"]["log_transition_probability"] == pytest.approx(
        math.log(TP_MU_03_01), abs=1e-12)
    fock, cofock = [[0.5, [0.0, -0.5]], [[0.0, 0.5], 0.5]], [[0.5, [0.0, 0.5]], [[0.0, -0.5], 0.5]]
    path = write_scenario(tmp_path, car_pair_scenario(fock, cofock))
    code, report, _ = run_cli(capsys, ["trans-prob", path])
    assert code == 0
    assert report["results"]["transition_probability"] == 0.0
    assert report["results"]["log_transition_probability"] == "-infinity"


def test_trans_prob_rejects_sequences(tmp_path, capsys):
    sc = {"kind": "car-sequence", "family": {"rule": "car_mu_power", "p": 2.0}}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["trans-prob", path])
    assert code == 2
    assert "trans-prob" in report["error"]


def test_trans_prob_ccr(tmp_path, capsys):
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": thermal_r(2.0), "R_T": thermal_r(2.0)}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["trans-prob", path])
    assert code == 0
    assert report["results"]["transition_probability"] == pytest.approx(1.0, abs=1e-9)


# ----------------------------------------------------------------- classify


def test_classify_ccr_pair(tmp_path, capsys):
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": thermal_r(3.0), "R_T": thermal_r(1.5)}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["classify", path])
    assert code == 0
    v = report["results"]["verdict"]
    assert v["kind"] == "QuasiEquivalent"
    assert v["reason"] == "PositiveTransitionProbability"
    assert 0.0 < v["transition_probability"] < 1.0


def test_classify_car_sequence_convergent(tmp_path, capsys):
    sc = {"kind": "car-sequence", "family": {"rule": "car_mu_power", "p": 2.0}}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["classify", path])
    assert code == 0
    v = report["results"]["verdict"]
    assert v["kind"] == "QuasiEquivalent"
    assert v["reason"] == "HSConvergent"
    assert v["checkpoints"] == [512, 1024, 2048, 4096]


def test_classify_inconclusive_exit_code(tmp_path, capsys):
    pair = [MU_03, [[0.5, [0.0, -0.308]], [[0.0, 0.308], 0.5]]]
    sc = {
        "kind": "car-sequence",
        "family": {"rule": "literal", "pairs": [pair], "tail": pair, "label": "flat"},
        "options": {"n_max": 64},
    }
    path = write_scenario(tmp_path, sc)
    code, report, err = run_cli(capsys, ["classify", path])
    assert code == 3
    assert report["results"]["verdict"]["kind"] == "Inconclusive"
    assert "inconclusive" in err


def test_cli_flag_overrides_scenario_options(tmp_path, capsys):
    # same flat family, but a longer window decides it — --n-max wins
    pair = [MU_03, [[0.5, [0.0, -0.308]], [[0.0, 0.308], 0.5]]]
    sc = {
        "kind": "car-sequence",
        "family": {"rule": "literal", "pairs": [pair], "tail": pair, "label": "flat"},
        "options": {"n_max": 64},
    }
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["classify", path, "--n-max", "4096"])
    assert code == 0
    assert report["results"]["verdict"]["kind"] == "Disjoint"


def test_classify_bad_n_max_is_validation_error(tmp_path, capsys):
    sc = {"kind": "car-sequence", "family": {"rule": "car_mu_power", "p": 2.0}}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["classify", path, "--n-max", "8"])
    assert code == 2
    assert "n_max" in report["error"]


def test_classify_ccr_sequence(tmp_path, capsys):
    sc = {
        "kind": "ccr-sequence",
        "family": {"rule": "ccr_thermal_power", "p": 0.5},
        "options": {"n_max": 1024},
    }
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["classify", path])
    assert code == 0
    assert report["results"]["verdict"]["kind"] == "Disjoint"
    assert report["results"]["verdict"]["reason"] == "HSDivergence"


def test_family_rule_validation(tmp_path, capsys):
    sc = {"kind": "car-sequence", "family": {"rule": "ccr_thermal_power", "p": 1.0}}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["classify", path])
    assert code == 2
    sc = {"kind": "car-sequence", "family": {"rule": "nope"}}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["classify", path])
    assert code == 2
    assert "unknown family rule" in report["error"]


# --------------------------------------------------------- quadrature-check


def test_quadrature_check(tmp_path, capsys):
    path = write_scenario(tmp_path, car_pair_scenario())
    code, report, _ = run_cli(capsys, ["quadrature-check", path])
    assert code == 0
    res = report["results"]
    assert res["abs_diff"] <= 1e-10
    assert max(res["projection_defects"]) <= 1e-9
    assert res["meet_rank"] == 0
    assert res["lhs_doubled_transition_probability"] == pytest.approx(
        TP_MU_03_01**2, abs=1e-9
    )


# ----------------------------------------------------------- oracle-compare


def test_oracle_compare_car(tmp_path, capsys):
    path = write_scenario(tmp_path, car_pair_scenario())
    code, report, _ = run_cli(capsys, ["oracle-compare", path])
    assert code == 0
    res = report["results"]
    assert res["within_tol"] is True
    assert res["abs_diff"] <= 1e-10


def test_oracle_compare_car_dimension_cap(tmp_path, capsys):
    eye10 = (0.5 * np.eye(10)).tolist()
    path = write_scenario(tmp_path, {"kind": "car-pair", "S": eye10, "T": eye10})
    code, report, _ = run_cli(capsys, ["oracle-compare", path])
    assert code == 4
    assert "capped" in report["error"]


def test_oracle_compare_ccr_thermal(tmp_path, capsys):
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": thermal_r(2.0), "R_T": thermal_r(1.0)}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["oracle-compare", path, "--tol", "1e-6"])
    assert code == 0
    res = report["results"]
    # q = 1/3 against the vacuum: closed form sqrt(2/3)
    assert res["formula_value"] == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-10)
    assert res["abs_diff"] <= 1e-6
    assert res["within_tol"] is True


def test_oracle_compare_ccr_unsupported_shape(tmp_path, capsys):
    r = [[1.0, 0.2], [0.2, 1.0]]
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": r, "R_T": thermal_r(2.0)}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["oracle-compare", path])
    assert code == 4
    assert "thermal-diagonal" in report["error"]


# ------------------------------------------------------- demo-counterexample


def test_demo_counterexample(capsys):
    code, report, _ = run_cli(capsys, ["demo-counterexample"])
    assert code == 0
    res = report["results"]
    assert res["verdict"]["kind"] == "QuasiEquivalent"
    assert res["mode1_transition_probability"] == 0.0
    assert res["mode1_meet_rank"] == 2
    assert res["transition_product_zero"] is True
    # non-finite partial sums travel as report tokens, not as Infinity literals
    assert res["verdict"]["neg_log_tp_partial_sums"] == ["infinity"] * 4


def test_report_is_valid_json_throughout(tmp_path, capsys):
    # json.loads in run_cli already guarantees it; double-check no NaN leaks
    path = write_scenario(tmp_path, car_pair_scenario())
    _, report, _ = run_cli(capsys, ["trans-prob", path])
    json.dumps(report, allow_nan=False)


# ------------------------------------------------- malformed scenarios


def assert_validation_error(capsys, tmp_path, scenario, command="validate", needle=""):
    path = write_scenario(tmp_path, scenario)
    code, report, err = run_cli(capsys, [command, path])
    assert code == 2 and report["exit_code"] == 2
    assert needle in report["error"]
    assert "Traceback" not in err


def test_null_cutoff_is_validation_error(tmp_path, capsys):
    assert_validation_error(capsys, tmp_path, car_pair_scenario(options={"cutoff": None}),
                            needle="cutoff")


def test_non_numeric_options_are_validation_errors(tmp_path, capsys):
    for options in ({"tol": "1e-8"}, {"n_max": 100.5}, {"n_max": True}):
        assert_validation_error(capsys, tmp_path, car_pair_scenario(options=options))


def test_literal_tail_must_be_a_pair(tmp_path, capsys):
    sc = {"kind": "car-sequence",
          "family": {"rule": "literal", "pairs": [[MU_03, MU_01]], "tail": 5}}
    assert_validation_error(capsys, tmp_path, sc, needle="tail")


def test_boolean_exponent_is_validation_error(tmp_path, capsys):
    sc = {"kind": "car-sequence", "family": {"rule": "car_mu_power", "p": True},
          "options": {"n_max": 256}}
    assert_validation_error(capsys, tmp_path, sc, command="classify", needle="exponent")


def test_nan_entry_is_validation_error(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"kind": "car-pair", "S": [[NaN, 0.0], [0.0, 0.5]], '
                    '"T": [[0.5, 0.0], [0.0, 0.5]]}')
    code, report, _ = run_cli(capsys, ["validate", str(path)])
    assert code == 2
    assert "non-finite" in report["error"]


def test_ccr_literal_family(tmp_path, capsys):
    pair = [thermal_r(1.5), thermal_r(1.2)]
    sc = {"kind": "ccr-sequence",
          "family": {"rule": "literal", "sigma": SIGMA_1, "pairs": [pair], "tail": pair},
          "options": {"n_max": 64}}
    code, report, _ = run_cli(capsys, ["classify", write_scenario(tmp_path, sc)])
    assert code in (0, 3)
    assert report["results"]["family"] == "literal"
    sc["family"]["pairs"] = [[thermal_r(1.5)]]
    assert_validation_error(capsys, tmp_path, sc, command="classify", needle="pairs[0]")


def test_n_max_above_cap_is_resource_error(tmp_path, capsys):
    sc = {"kind": "car-sequence", "family": {"rule": "car_mu_power", "p": 2.0},
          "options": {"n_max": 1 << 40}}
    code, report, _ = run_cli(capsys, ["classify", write_scenario(tmp_path, sc)])
    assert code == 4 and report["exit_code"] == 4
    assert "cap" in report["error"]


# ------------------------------------------------------------------ fuzzing

_NUMBERS = st.one_of(
    st.integers(-3, 3), st.floats(-2.0, 2.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 1e300, 10**400, -(10**400)]),
)
_SCALARS = st.one_of(st.none(), st.booleans(), _NUMBERS, st.text(max_size=4))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=10,
)
_ENTRY = st.one_of(_NUMBERS, st.lists(_NUMBERS, min_size=2, max_size=2), _SCALARS)
_MATRIX = st.one_of(
    st.sampled_from([MU_03, MU_01, SIGMA_1, thermal_r(1.5), thermal_r(0.5), [[0.5]]]),
    st.lists(st.lists(_ENTRY, min_size=1, max_size=3), min_size=1, max_size=3),
    _JSON,
)
# n_max stays small or lands above the cap, so that no example scans thousands of modes
_OPTION = st.one_of(
    st.integers(-2, 200), st.sampled_from([64.0, 100.5, 1 << 21, 1e300, 10**400]),
    _SCALARS,
)
_OPTIONS = st.fixed_dictionaries(
    {"n_max": _OPTION}, optional={"tol": _OPTION, "cutoff": _OPTION, "extra": _JSON})
_FAMILY = st.fixed_dictionaries(
    {"rule": st.sampled_from(["car_mu_power", "ccr_thermal_power", "counterexample",
                              "literal", "other"]) | _SCALARS},
    optional={
        "p": _OPTION,
        "pairs": st.lists(st.lists(_MATRIX, max_size=3), max_size=3) | _JSON,
        "tail": st.lists(_MATRIX, max_size=3) | _JSON,
        "sigma": _MATRIX,
        "label": _JSON,
    },
)
_SCENARIO = st.one_of(
    _JSON,
    st.fixed_dictionaries(
        {"kind": st.sampled_from(["car-pair", "ccr-pair", "car-sequence", "ccr-sequence"])
         | _SCALARS, "options": _OPTIONS | _JSON},
        optional={"S": _MATRIX, "T": _MATRIX, "sigma": _MATRIX, "R_S": _MATRIX,
                  "R_T": _MATRIX, "family": _FAMILY},
    ),
)
_ARGS = st.lists(
    st.tuples(st.sampled_from(["--tol", "--cutoff", "--n-max", "--bogus"]),
              st.sampled_from(["1e-6", "nan", "-inf", "70", "2.5", "1e999", "x", ""])),
    max_size=1,
)
# scenario file text: mostly JSON, sometimes arbitrary text; None means no file argument
_CONTENT = st.one_of(_SCENARIO.map(json.dumps), _SCENARIO.map(json.dumps),
                     st.text(max_size=12), st.none())


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(cli._COMMANDS)), content=_CONTENT, args=_ARGS)
def test_fuzz_main_emits_one_json_object(command, content, args):
    """Any scenario and option values: one strict JSON object on stdout, exit 0/2/3/4."""
    argv = [command] + [x for pair in args for x in pair]
    if command == "demo-counterexample":
        argv += ["--n-max", "64"]  # the demo ignores the scenario; keep its scan short
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if content is not None:
            path = os.path.join(tmp, "scenario.json")
            with open(path, "w") as fh:
                fh.write(content)
            argv.insert(1, path)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    report = json.loads(out.getvalue(), parse_constant=_reject_constant)
    assert isinstance(report, dict)
    assert code in (0, 2, 3, 4) and report["exit_code"] == code
    assert "Traceback" not in err.getvalue()
