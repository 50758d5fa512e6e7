"""Each tolerance is decided in one module: no public pair or sequence function takes one."""

import inspect
import re

from quasifree import car, ccr, matcore, seqmodel

TOLERANCE_PARAMETER = re.compile(r"tol|.*_tol|eps|reg")


def test_public_functions_take_no_tolerance_parameter():
    functions = [getattr(m, name) for m in (car, ccr, matcore, seqmodel) for name in m.__all__
                 if inspect.isfunction(getattr(m, name))]
    assert len(functions) > 30
    found = [f"{f.__module__}.{f.__name__}({p})" for f in functions
             for p in inspect.signature(f).parameters if TOLERANCE_PARAMETER.fullmatch(p)]
    assert not found
