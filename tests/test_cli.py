"""End-to-end CLI tests: scenario files in, JSON reports out, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quasifree import ccr, cli, sampling, seqmodel

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


def matrix_json(m):
    """A complex matrix as rows of [re, im] entries."""
    return [[[x.real, x.imag] for x in row] for row in np.asarray(m, dtype=complex).tolist()]


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


def _linalg_calls(monkeypatch) -> list:
    """Record (kernel, shape) of every numpy.linalg spectral, SVD or determinant call."""
    calls = []
    for name in ("eigh", "eigvalsh", "svd", "slogdet", "det"):
        def spy(a, *args, _f=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append((_name, np.shape(a)))
            return _f(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_validate_car_pair_reads_the_cached_spectrum(tmp_path, capsys, monkeypatch):
    rng = np.random.default_rng(5)
    four = [c.matrix for c in sampling.random_car_pair(rng, 4)]
    calls = _linalg_calls(monkeypatch)
    code, report, _ = run_cli(capsys, ["validate", write_scenario(tmp_path, car_pair_scenario())])
    # a 2 x 2 pair validates in closed form and reports 1/2 -+ sqrt(max x)
    assert code == 0 and calls == []
    assert report["results"]["T"] == {"dim": 2, "min_eigenvalue": 0.4, "max_eigenvalue": 0.6}
    sc = car_pair_scenario(s=matrix_json(four[0]), t=matrix_json(four[1]))
    code, report, _ = run_cli(capsys, ["validate", write_scenario(tmp_path, sc)])
    # larger: validation's one real eigh per covariance, and nothing for the report
    assert code == 0 and calls == [("eigh", (4, 4))] * 2
    for name, m in zip("ST", four):
        w = np.linalg.eigvalsh(m)
        got = report["results"][name]
        assert got["min_eigenvalue"] == pytest.approx(w[0], abs=1e-15)
        assert got["max_eigenvalue"] == pytest.approx(w[-1], abs=1e-15)


def test_validate_one_mode_ccr_pair_makes_no_linalg_call(tmp_path, capsys, monkeypatch):
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": thermal_r(3.0), "R_T": thermal_r(1.0)}
    calls = _linalg_calls(monkeypatch)
    code, report, _ = run_cli(capsys, ["validate", write_scenario(tmp_path, sc)])
    assert code == 0 and calls == []
    assert report["results"]["S"]["max_eigenvalue"] == pytest.approx(2.0, abs=1e-15)


def test_validate_rejects_bad_covariance(tmp_path, capsys):
    bad = car_pair_scenario(s=[[0.9, 0.0], [0.0, 0.9]])
    path = write_scenario(tmp_path, bad)
    code, report, err = run_cli(capsys, ["validate", path])
    assert code == 2
    assert "error" in report
    assert "validation error" in err


def test_validate_rejects_asymmetric_ccr_forms(tmp_path, capsys):
    # not rewritten into sigma = [[0, .5], [-.5, 0]], R = [[2, 1], [1, 2]]
    sc = {"kind": "ccr-pair", "sigma": [[0, 1], [0, 0]], "R_S": [[2, 5], [-3, 2]],
          "R_T": thermal_r(1.0)}
    code, report, err = run_cli(capsys, ["validate", write_scenario(tmp_path, sc)])
    assert code == 2 and "antisymmetric" in report["error"]
    assert "validation error" in err


def test_validate_ccr_pair(tmp_path, capsys):
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": thermal_r(3.0), "R_T": thermal_r(1.0)}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["validate", path])
    assert code == 0
    assert report["results"]["S"]["min_eigenvalue"] == pytest.approx(1.0)


def test_validate_refuses_mismatched_literal_pair(tmp_path, capsys):
    # a 2x2 S against a 1x1 T: validate refuses what classify would
    pair = [[[0.5, 0.0], [0.0, 0.5]], [[0.5]]]
    sc = {"kind": "car-sequence", "family": {"rule": "literal", "pairs": [pair]}}
    for command in ("validate", "classify"):
        assert_validation_error(capsys, tmp_path, sc, command=command,
                                needle="mode 1: S has dimension 2, T has 1")


def test_ccr_pair_needs_sigma(tmp_path, capsys):
    sc = {"kind": "ccr-pair", "R_S": thermal_r(3.0), "R_T": thermal_r(1.0)}
    for command in ("validate", "trans-prob"):
        assert_validation_error(capsys, tmp_path, sc, command=command,
                                needle="ccr-pair scenario needs matrix 'sigma'")


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
    assert report["results"]["log_transition_probability"] == pytest.approx(0.0, abs=1e-9)
    # the vacuum against width 1e9 on 80 modes: quasi-equivalent, tp = exp(-801.2...)
    sc = {"kind": "ccr-pair", "sigma": ccr.canonical_sigma(80).tolist(),
          "R_S": (0.5 * np.eye(160)).tolist(), "R_T": (0.5e9 * np.eye(160)).tolist()}
    code, report, _ = run_cli(capsys, ["trans-prob", write_scenario(tmp_path, sc)])
    assert code == 0
    assert report["results"]["transition_probability"] == 0.0
    assert report["results"]["log_transition_probability"] == -801.2047462954588


def test_wide_ccr_pair_is_quasi_equivalent(tmp_path, capsys):
    # the vacuum against width 1e10 on one mode: canonical sigma has no centre,
    # so tp = sqrt(2/(1 + 1e10)) > 0 and the pair is quasi-equivalent
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": thermal_r(1.0), "R_T": thermal_r(1e10)}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["classify", path])
    assert code == 0 and report["results"]["verdict"]["kind"] == "QuasiEquivalent"
    code, report, _ = run_cli(capsys, ["trans-prob", path])
    assert code == 0
    log_tp = report["results"]["log_transition_probability"]
    assert log_tp == pytest.approx(-11.16635187474, rel=1e-11)
    assert report["results"]["transition_probability"] == pytest.approx(math.exp(log_tp))


def test_trans_prob_refuses_a_form_past_the_overflow_bound(tmp_path, capsys):
    # R = 1e308 I on one mode read tp 1.0 with exit 0 before validate_ccr bounded the entries
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": thermal_r(1.0),
          "R_T": [[1e308, 0.0], [0.0, 1e308]]}
    code, report, err = run_cli(capsys, ["trans-prob", write_scenario(tmp_path, sc)])
    assert code == 2 and report["exit_code"] == 2 and "results" not in report
    assert "FORM_BOUND" in report["error"] and "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "trans-prob"])
@pytest.mark.parametrize("entry", [1e200, 1e308])
def test_car_pair_past_the_entry_bound_is_refused(tmp_path, capsys, command, entry):
    # 0.5 I + iA on 4 x 4 with A[0, 1] = -A[1, 0] = entry: A^T A overflowed, and validate
    # read "valid": true at 1e200 while LAPACK failed to converge elsewhere
    s = 0.5 * np.eye(4, dtype=complex)
    s[0, 1], s[1, 0] = 1j * entry, -1j * entry
    sc = car_pair_scenario(s=matrix_json(s), t=matrix_json(0.5 * np.eye(4)))
    code, report, err = run_cli(capsys, [command, write_scenario(tmp_path, sc)])
    assert code == 2 and report["exit_code"] == 2 and "results" not in report
    assert "|S_ij| <= 1" in report["error"] and "converge" not in report["error"]
    assert "Traceback" not in err


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


def test_classify_disagreeing_criteria_exit_code(tmp_path, capsys):
    # sigma = 0: the qe sums converge while the tp product diverges
    pair = [[[0.5, 0.0], [0.0, 1.0]], [[2.0, 0.0], [0.0, 0.25]]]
    sc = {"kind": "ccr-sequence",
          "family": {"rule": "literal", "sigma": [[0.0, 0.0], [0.0, 0.0]], "pairs": [pair],
                     "tail": pair},
          "options": {"n_max": 64}}
    code, report, err = run_cli(capsys, ["classify", write_scenario(tmp_path, sc)])
    assert code == 3 and report["exit_code"] == 3
    assert "convergent" in report["error"] and "results" not in report
    assert "criteria disagree" in err


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
    # near-pure quadrature blocks carry ~sqrt(eps) error; they are not re-validated
    s, t = sampling.singular_overlap_car_pair(np.random.default_rng(0), 4)
    sc = car_pair_scenario(matrix_json(s.matrix), matrix_json(t.matrix))
    code, report, _ = run_cli(capsys, ["quadrature-check", write_scenario(tmp_path, sc)])
    assert code == 0
    res = report["results"]
    assert res["meet_rank"] == 2 and res["rhs_squared_transition_probability"] == 0.0
    assert res["abs_diff"] <= 1e-8


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


@pytest.mark.parametrize("cutoff", [10, 20, 39])
def test_oracle_compare_ccr_needs_two_cutoffs(tmp_path, capsys, cutoff):
    # the overlap converges only between two cutoffs of the schedule (20, 40, ...)
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": thermal_r(2.0), "R_T": thermal_r(1.0),
          "options": {"cutoff": cutoff}}
    assert_validation_error(capsys, tmp_path, sc, command="oracle-compare",
                            needle=f"cutoff {cutoff} admits fewer than two cutoffs")


def test_oracle_compare_ccr_unsupported_shape(tmp_path, capsys):
    r = [[1.0, 0.2], [0.2, 1.0]]
    sc = {"kind": "ccr-pair", "sigma": SIGMA_1, "R_S": r, "R_T": thermal_r(2.0)}
    path = write_scenario(tmp_path, sc)
    code, report, _ = run_cli(capsys, ["oracle-compare", path])
    assert code == 4
    assert "thermal-diagonal" in report["error"]


@pytest.mark.parametrize("sigma, r", [
    (ccr.canonical_sigma(2).tolist(), np.eye(4).tolist()),
    ([[0.0, 2.0], [-2.0, 0.0]], thermal_r(3.0)),
], ids=["two-modes", "non-canonical-sigma"])
def test_oracle_compare_ccr_refuses_all_but_one_canonical_mode(tmp_path, capsys, sigma, r):
    sc = {"kind": "ccr-pair", "sigma": sigma, "R_S": r, "R_T": r}
    code, report, err = run_cli(capsys, ["oracle-compare", write_scenario(tmp_path, sc)])
    assert code == 4 and report["exit_code"] == 4
    assert "supports single-mode thermal-diagonal" in report["error"]
    assert "Traceback" not in err


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


def refuse_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("value, want", [
    (complex(1.5, -2.0), [1.5, -2.0]),
    (complex(math.nan, 0.0), "inconclusive"),
    (np.array([[1.0, math.nan], [math.inf, -math.inf]]),
     [[1.0, "inconclusive"], ["infinity", "-infinity"]]),
    (np.array([1 + 2j, 3 + 0j]), [[1.0, 2.0], 3.0]),
    (np.float32(0.25), 0.25),
    (np.float32(math.inf), "infinity"),
    (np.int64(-7), -7),
    (np.complex128(complex(2.0, math.nan)), [2.0, "inconclusive"]),
    (np.complex64(0.5 - 1j), [0.5, -1.0]),
    (np.bool_(True), True),
    (np.bool_(False), False),
], ids=["complex", "complex-nan", "ndarray", "ndarray-complex", "float32", "float32-inf",
        "int64", "complex128", "complex64", "bool-true", "bool-false"])
def test_sanitize_makes_every_result_type_json(value, want):
    got = json.loads(json.dumps(cli._sanitize({"x": value})), parse_constant=refuse_constant)
    assert got["x"] == want and type(got["x"]) is type(want)


# ------------------------------------------------- malformed scenarios


def assert_validation_error(capsys, tmp_path, scenario, command="validate", needle=""):
    path = write_scenario(tmp_path, scenario)
    code, report, err = run_cli(capsys, [command, path])
    assert code == 2 and report["exit_code"] == 2
    assert needle in report["error"]
    assert "Traceback" not in err


@pytest.mark.parametrize("s", [[0.5, 0.5], [], "0.5", [[0.5], 0.5]])
def test_matrix_must_be_a_list_of_rows(tmp_path, capsys, s):
    assert_validation_error(capsys, tmp_path, car_pair_scenario(s=s),
                            needle="S must be a non-empty list of rows")


def test_ragged_matrix_is_validation_error(tmp_path, capsys):
    assert_validation_error(capsys, tmp_path, car_pair_scenario(t=[[0.5, 0.0], [0.0]]),
                            needle="T: row 1 has length 1, expected 2")


def test_pair_of_two_dimensions_is_validation_error(tmp_path, capsys):
    sc = car_pair_scenario(t=matrix_json(0.5 * np.eye(4)))
    for command in ("validate", "trans-prob"):
        assert_validation_error(capsys, tmp_path, sc, command=command,
                                needle="dimension mismatch: 2 vs 4")


@pytest.mark.parametrize("family", [{"rule": "literal"}, {"rule": "literal", "pairs": []},
                                    {"rule": "literal", "pairs": {"a": 1}}])
def test_literal_family_needs_pairs(tmp_path, capsys, family):
    assert_validation_error(capsys, tmp_path, {"kind": "car-sequence", "family": family},
                            command="classify",
                            needle="literal family needs a non-empty 'pairs' list")


@pytest.mark.parametrize("extra", [{}, {"family": None}, {"family": ["literal"]}])
def test_sequence_scenario_needs_a_family_object(tmp_path, capsys, extra):
    assert_validation_error(capsys, tmp_path, {"kind": "ccr-sequence", **extra},
                            command="classify", needle="sequence scenario needs a 'family' object")


def test_null_cutoff_is_validation_error(tmp_path, capsys):
    assert_validation_error(capsys, tmp_path, car_pair_scenario(options={"cutoff": None}),
                            needle="cutoff")


def test_non_numeric_options_are_validation_errors(tmp_path, capsys):
    for options in ({"tol": "1e-8"}, {"n_max": 100.5}, {"n_max": True}, {"tol": -1}):
        assert_validation_error(capsys, tmp_path, car_pair_scenario(options=options))
    # a negative tolerance would report any difference as outside it
    assert_validation_error(capsys, tmp_path, car_pair_scenario(options={"tol": -1}),
                            command="oracle-compare", needle="'tol' must be at least 0")


def test_literal_tail_must_be_a_pair(tmp_path, capsys):
    sc = {"kind": "car-sequence",
          "family": {"rule": "literal", "pairs": [[MU_03, MU_01]], "tail": 5}}
    assert_validation_error(capsys, tmp_path, sc, needle="tail")


@pytest.mark.parametrize("label", [{"a": [1, 2]}, 7], ids=["object", "number"])
def test_literal_label_must_be_a_string(tmp_path, capsys, label):
    sc = {"kind": "car-sequence",
          "family": {"rule": "literal", "pairs": [[MU_03, MU_01]], "label": label},
          "options": {"n_max": 64}}
    for command in ("validate", "classify"):
        assert_validation_error(capsys, tmp_path, sc, command=command, needle="label")


def test_boolean_exponent_is_validation_error(tmp_path, capsys):
    sc = {"kind": "car-sequence", "family": {"rule": "car_mu_power", "p": True},
          "options": {"n_max": 256}}
    assert_validation_error(capsys, tmp_path, sc, command="classify", needle="exponent")
    # 1e400 parses to inf
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(sc).replace("true", "1e400"))
    code, report, err = run_cli(capsys, ["classify", str(path)])
    assert code == 2 and "exponent" in report["error"] and "Traceback" not in err


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


def _nested(depth: int, key: str) -> str:
    """A car-pair scenario whose ``key`` (S, or one nothing reads) is ``depth`` lists deep."""
    fields = {"kind": '"car-pair"', "S": json.dumps(MU_03), "T": json.dumps(MU_01),
              key: "[" * depth + "]" * depth}
    return "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"


# scenario file text: mostly JSON, sometimes arbitrary text or deep nesting, past
# what json and a recursive echo can take; None means no file argument
_CONTENT = st.one_of(_SCENARIO.map(json.dumps), _SCENARIO.map(json.dumps),
                     st.text(max_size=12), st.none(),
                     st.builds(_nested, st.sampled_from([63, 64, 500, 990, 5000, 100000]),
                               st.sampled_from(["S", "unused"])))


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


# ------------------------------------------------- the real entry point, per process


SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))


def _child(*args):
    """Run ``python -v <args>``; returns (exit code, stdout, the modules it imported)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-v", *args], env=env,
                          capture_output=True, text=True, timeout=120)
    # -v logs "import 'name' # loader" for every module loaded, however it is imported
    imported = {line.split("'")[1] for line in proc.stderr.splitlines()
                if line.startswith("import '")}
    assert "Traceback" not in proc.stderr
    return proc.returncode, proc.stdout, imported


def _qf(tmp_path, command, content):
    """``python -m quasifree.cli command scenario``, as the qf script runs it."""
    path = tmp_path / "scenario.json"
    path.write_text(content if isinstance(content, str) else json.dumps(content))
    code, out, imported = _child("-m", "quasifree.cli", command, str(path))
    report = json.loads(out, parse_constant=_reject_constant)  # one object, nothing after it
    assert isinstance(report, dict) and report["exit_code"] == code
    return code, report, imported


_REFUSED_BEFORE_NUMBERS = {
    "not-json": ("trans-prob", "{not json"),
    "unknown-kind": ("validate", {"kind": "qubit-pair"}),
    "ragged": ("trans-prob", car_pair_scenario(s=[[0.5, 0.0], [0.0]])),
    "wrong-kind": ("quadrature-check", {"kind": "ccr-pair", "sigma": SIGMA_1,
                                        "R_S": thermal_r(1.0), "R_T": thermal_r(2.0)}),
    "cutoff-null": ("validate", car_pair_scenario(options={"cutoff": None})),
    "p-bool": ("classify", {"kind": "car-sequence",
                            "family": {"rule": "car_mu_power", "p": True}}),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_BEFORE_NUMBERS))
def test_refusal_before_numbers_loads_no_numpy(tmp_path, case):
    code, report, imported = _qf(tmp_path, *_REFUSED_BEFORE_NUMBERS[case])
    assert code == 2 and "error" in report
    assert "numpy" not in imported and "quasifree.errors" in imported
    assert "dataclasses" not in imported


def test_pair_command_loads_only_its_modules(tmp_path):
    code, report, imported = _qf(tmp_path, "trans-prob", car_pair_scenario())
    assert code == 0
    assert report["results"]["transition_probability"] == pytest.approx(TP_MU_03_01, rel=1e-12)
    assert {"numpy", "quasifree.car"} <= imported
    assert not imported & {"quasifree.seqmodel", "quasifree.car_oracle", "quasifree.ccr_oracle"}


def test_package_import_loads_no_numpy():
    code, _, imported = _child("-c", "import quasifree")
    assert code == 0 and "quasifree" in imported and "numpy" not in imported


def test_cli_copies_of_seqmodel_constants_agree():
    """cli keeps these as literals: reading them from seqmodel would load numpy."""
    assert cli.DEFAULT_N_MAX == seqmodel.DEFAULT_N_MAX
    assert (cli._CAR.name, cli._CCR.name) == (seqmodel.CAR, seqmodel.CCR)
