"""The public surface: no public function takes a tolerance, and each top-level name once."""

import importlib
import inspect
import re
import types

import pytest

import quasifree
from quasifree import car, car_oracle, ccr, ccr_oracle, matcore, seqmodel

TOLERANCE_PARAMETER = re.compile(r"tol|.*_tol|eps|reg")


def test_public_functions_take_no_tolerance_parameter():
    functions = [getattr(m, name)
                 for m in (car, ccr, matcore, seqmodel, car_oracle, ccr_oracle)
                 for name in m.__all__ if inspect.isfunction(getattr(m, name))]
    assert len(functions) > 30
    found = [f"{f.__module__}.{f.__name__}({p})" for f in functions
             for p in inspect.signature(f).parameters if TOLERANCE_PARAMETER.fullmatch(p)]
    assert not found


def test_top_level_names_are_their_home_module_objects():
    names = quasifree.__all__
    assert len(names) == len(set(names))
    assert "log_trans_prob_ccr" in names
    for name in names:
        value = getattr(quasifree, name)
        assert not isinstance(value, types.ModuleType), name
        home = getattr(value, "__module__", "quasifree")
        assert getattr(importlib.import_module(home), name) is value, name
    # resolved from the home module on every access, never bound in the package
    assert set(vars(quasifree)) & set(names) == {"__version__"}
    assert set(names) <= set(dir(quasifree))
    star = {}
    exec("from quasifree import *", star)
    assert all(star[name] is getattr(quasifree, name) for name in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        quasifree.no_such_name
