"""Span recorder for the traced run, and the per-layer metrics read from it.

The recorder wraps, from outside the package, every public function of each
library layer at every namespace that binds it (``quasifree.car.eig_h`` as
well as ``quasifree.matcore.eig_h``), ``ModeFamily.pair_at``, and the
``numpy.linalg`` kernels.  Each call becomes a span (name, start, end, parent
span, op id) kept in flat arrays in memory; ``restore`` puts every original
attribute back.

Kernel calls are charged to the layer of the span that made them (their
parent) for time fractions, and counted under every layer on the stack for
call counts: ``ccr.linalg_calls_per_mode`` counts the ``eigh`` calls that
``matcore.geometric_mean`` makes on behalf of ``ccr``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("seqmodel", "car", "ccr", "matcore", "car_oracle", "ccr_oracle", "sampling")
KERNELS = ("eigh", "eigvalsh", "svd", "det")
_WRAPPED = "__perfbench_original__"

# Real floating-point operations of the LAPACK routines behind each kernel on
# an n x n input (Golub & Van Loan); complex arithmetic costs four times as much.
_FLOPS = {
    "eigh": lambda n, vectors: 9.0 * n**3,
    "eigvalsh": lambda n, vectors: 4.0 / 3.0 * n**3,
    "svd": lambda n, vectors: (21.0 if vectors else 8.0 / 3.0) * n**3,
    "det": lambda n, vectors: 2.0 / 3.0 * n**3,
}
# elements written by each kernel besides reading its n x n input
_OUTPUT = {
    "eigh": lambda n, vectors: n * n + n,
    "eigvalsh": lambda n, vectors: n,
    "svd": lambda n, vectors: 2 * n * n + n if vectors else n,
    "det": lambda n, vectors: 1,
}


class SpanRecorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.mask = array("q")  # bit set of the layers on the stack, this span included
        self.kernel = array("q")  # kernels: n * 4 + 2 * complex + vectors; else -1
        self.ops: list[tuple] = []  # op id -> (workload, label, modes)
        # speed factors (run.SpeedGauge) that scale span durations to the
        # reference speed: one per op, and one for spans outside ops (setup)
        self.op_factor: list[float] = []
        self.setup_factor = 1.0
        self._stack = [-1]
        self._masks = [0]
        self._op = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, bit: int, kernel: int) -> int:
        i = len(self.start)
        m = self._masks[-1] | bit
        self.name.append(nid)
        self.start.append(0)
        self.end.append(0)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.mask.append(m)
        self.kernel.append(kernel)
        self._stack.append(i)
        self._masks.append(m)
        self.start[i] = time.perf_counter_ns()
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()
        self._masks.pop()

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        bit = 1 << LAYERS.index(name.split(".")[0])
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = rec._open(nid, bit, -1)
            try:
                return fn(*args, **kwargs)
            finally:
                rec._close(i)

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def wrap_kernel(self, kernel: str, fn):
        nid = self._name_id(f"linalg.{kernel}")
        rec = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            shape = getattr(a, "shape", ())
            n = shape[-1] if shape else 0
            vectors = kernel == "eigh" or (
                kernel == "svd" and kwargs.get("compute_uv", args[1] if len(args) > 1 else True)
            )
            code = n * 4 + 2 * bool(getattr(a, "dtype", None) is not None and a.dtype.kind == "c")
            i = rec._open(nid, 0, code + bool(vectors))
            try:
                return fn(a, *args, **kwargs)
            finally:
                rec._close(i)

        setattr(wrapper, _WRAPPED, fn)
        return wrapper

    def begin_op(self, workload: str, label: str, modes: int) -> int:
        self._op = len(self.ops)
        self.ops.append((workload, label, modes))
        self.op_factor.append(1.0)
        return self._open(self._name_id("op"), 0, -1)

    def end_op(self, span: int) -> int:
        """Close the op's span; returns the op id."""
        self._close(span)
        op, self._op = self._op, -1
        return op


def _namespaces():
    return [m for k, m in list(sys.modules.items()) if k == "quasifree" or k.startswith("quasifree.")]


def install(rec: SpanRecorder) -> list:
    """Wrap every traced callable; returns the patches that ``restore`` undoes."""
    import numpy.linalg

    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"quasifree.{layer}")
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = rec.wrap(f"{layer}.{attr}", fn)
    patches = []
    for ns in _namespaces():
        for attr, val in list(vars(ns).items()):
            if inspect.isfunction(val) and val in wrappers:
                patches.append((ns, attr, val))
                setattr(ns, attr, wrappers[val])
    family = importlib.import_module("quasifree.seqmodel").ModeFamily
    pair_at = family.__dict__["pair_at"]
    patches.append((family, "pair_at", pair_at))
    family.pair_at = rec.wrap("seqmodel.pair_at", pair_at)
    for kernel in KERNELS:
        fn = getattr(numpy.linalg, kernel)
        patches.append((numpy.linalg, kernel, fn))
        setattr(numpy.linalg, kernel, rec.wrap_kernel(kernel, fn))
    return patches


def restore(patches: list) -> None:
    """Put back every patched attribute, then check that no wrapper is left."""
    import numpy.linalg

    for ns, attr, val in reversed(patches):
        setattr(ns, attr, val)
    family = importlib.import_module("quasifree.seqmodel").ModeFamily
    left = [
        f"{getattr(ns, '__name__', ns)}.{attr}"
        for ns in _namespaces() + [numpy.linalg, family]
        for attr, val in list(vars(ns).items())
        if hasattr(val, _WRAPPED)
    ]
    if left:
        raise RuntimeError(f"wrappers left in place after the traced run: {left}")


def dump(rec: SpanRecorder, path) -> None:
    """Write the spans as a compressed numpy archive."""
    import numpy as np

    np.savez_compressed(
        path,
        names=np.array(rec.names),
        name=np.frombuffer(rec.name, dtype=np.int32),
        start_ns=np.frombuffer(rec.start, dtype=np.int64),
        end_ns=np.frombuffer(rec.end, dtype=np.int64),
        parent=np.frombuffer(rec.parent, dtype=np.int32),
        op=np.frombuffer(rec.op, dtype=np.int32),
        op_workload=np.array([w for w, _, _ in rec.ops]),
        op_label=np.array([lab for _, lab, _ in rec.ops]),
    )


class _Spans:
    """Numpy views of a recording, with selections by workload and op label."""

    def __init__(self, rec: SpanRecorder):
        import numpy as np

        self.np = np
        self.rec = rec
        self.name = np.frombuffer(rec.name, dtype=np.int32)
        self.parent = np.frombuffer(rec.parent, dtype=np.int32)
        self.op = np.frombuffer(rec.op, dtype=np.int32)
        self.mask = np.frombuffer(rec.mask, dtype=np.int64)
        self.kernel = np.frombuffer(rec.kernel, dtype=np.int64)
        raw = np.frombuffer(rec.end, dtype=np.int64) - np.frombuffer(rec.start, dtype=np.int64)
        # durations at the reference speed, in ns; op id -1 picks the setup factor
        self.dur = raw * np.array(rec.op_factor + [rec.setup_factor])[self.op]
        child = np.zeros(self.dur.size)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        # layer codes: index in LAYERS, then "linalg", then "op" (the harness)
        self._codes = {name: i for i, name in enumerate(LAYERS + ("linalg", "op"))}
        codes = np.array([self._codes[n.split(".")[0]] for n in rec.names] or [-1])
        self.layer = codes[self.name]
        self.is_kernel = self.layer == self._codes["linalg"]
        self.parent_layer = np.where(has_parent, self.layer[np.maximum(self.parent, 0)], -1)
        self.is_op = self.layer == self._codes["op"]

    def code(self, layer: str) -> int:
        return self._codes[layer]

    def select_ops(self, pred):
        """Spans inside ops whose (workload, label, modes) satisfies ``pred``."""
        # one extra False at the end: spans outside any op have op id -1
        chosen = self.np.array([bool(pred(*meta)) for meta in self.rec.ops] + [False])
        return chosen[self.op]

    def ops(self, workload: str, prefix: str = ""):
        """Spans inside ops of ``workload`` whose label starts with ``prefix``."""
        return self.select_ops(lambda w, lab, _: w == workload and lab.startswith(prefix))

    def modes(self, pred) -> int:
        """Sequence modes evaluated by the ops that satisfy ``pred``."""
        return sum(meta[2] for meta in self.rec.ops if pred(*meta))

    def count(self, sel, name=None) -> int:
        if name is not None:
            sel = sel & (self.name == self.rec._ids.get(name, -1))
        return int(sel.sum())

    def median_ms(self, sel, name: str) -> float:
        d = self.dur[sel & (self.name == self.rec._ids.get(name, -1))]
        return float(self.np.median(d)) / 1e6 if d.size else float("nan")

    def op_time(self, sel) -> float:
        return float(self.dur[sel & self.is_op].sum())

    def layer_bit(self, layer: str) -> int:
        return 1 << LAYERS.index(layer)

    def kernels_under(self, sel, layer: str) -> int:
        """Kernel calls made while a ``layer`` function is on the stack."""
        return int((sel & self.is_kernel & ((self.mask & self.layer_bit(layer)) != 0)).sum())

    def kernel_time_of(self, sel, layer: str) -> float:
        """Kernel time charged to ``layer``, the layer of the calling span."""
        return float(self.dur[sel & self.is_kernel & (self.parent_layer == self.code(layer))].sum())

    def self_time_of(self, sel, layer: str) -> float:
        return float(self.self_time[sel & (self.layer == self.code(layer))].sum())

    def flops_bytes(self, sel):
        flops = nbytes = 0.0
        for i in self.np.nonzero(sel & self.is_kernel)[0]:
            code = int(self.kernel[i])
            n, cplx, vectors = code // 4, bool(code & 2), bool(code & 1)
            kernel = self.rec.names[self.name[i]].split(".")[1]
            flops += _FLOPS[kernel](n, vectors) * (4 if cplx else 1)
            nbytes += (n * n + _OUTPUT[kernel](n, vectors)) * (16 if cplx else 8)
        return flops, nbytes


def layer_metrics(rec: SpanRecorder) -> dict:
    """Per-layer metrics from a recording that covers all library workloads.

    Returns name -> (value, unit).  Ratios state their base in the name's
    documentation in README.md.
    """
    s = _Spans(rec)
    out = {}

    def family(test):
        return lambda w, lab, _: w == "sequences" and test(lab)

    seq = s.ops("sequences")
    for group in ("builtin", "rule", "literal"):
        pred = family(lambda lab, g=group: lab.startswith(g + ":"))
        out[f"seqmodel.us_per_mode.{group}"] = (
            s.op_time(s.select_ops(pred)) / 1e3 / s.modes(pred), "us")
    out["seqmodel.self_frac"] = (s.self_time_of(seq, "seqmodel") / s.op_time(seq), "ratio")
    # the counterexample's -log tp sum is +inf from mode 1 on, after which the
    # classifier evaluates one term per mode instead of two; leave it out
    finite = family(lambda lab: "counterexample" not in lab)
    out["seqmodel.pair_at.calls_per_mode"] = (
        s.count(s.select_ops(finite), "seqmodel.pair_at") / s.modes(finite), "count")
    for layer in ("car", "ccr"):
        pred = family(lambda lab, k=layer: f"{k}-" in lab)
        sel, modes = s.select_ops(pred), s.modes(pred)
        out[f"{layer}.calls_per_mode"] = (s.count(sel & (s.layer == s.code(layer))) / modes, "count")
        out[f"{layer}.linalg_calls_per_mode"] = (s.kernels_under(sel, layer) / modes, "count")
        if layer == "ccr":
            out["matcore.geometric_mean.calls_per_mode"] = (
                s.count(sel, "matcore.geometric_mean") / modes, "count")

    dense = s.ops("dense-pairs")
    dense_time = s.op_time(dense)
    n_dense = s.count(dense & s.is_op)
    for layer, fns in (
        ("car", ("trans_prob_car", "qe_distance_car", "meet_criterion", "validate_car")),
        ("ccr", ("trans_prob_ccr", "classify_ccr", "qe_distance_ccr", "ab_form", "validate_ccr")),
    ):
        sel = s.ops("dense-pairs", layer + ":")
        for fn in fns:
            out[f"{layer}.{fn}.ms"] = (s.median_ms(sel, f"{layer}.{fn}"), "ms")
        out[f"{layer}.linalg_calls_per_op"] = (
            s.kernels_under(sel, layer) / s.count(sel & s.is_op), "count")
        out[f"{layer}.linalg_frac"] = (s.kernel_time_of(dense, layer) / dense_time, "ratio")
    out["matcore.geometric_mean.ms"] = (s.median_ms(dense, "matcore.geometric_mean"), "ms")
    out["matcore.eig_h.calls_per_op"] = (s.count(dense, "matcore.eig_h") / n_dense, "count")
    out["matcore.sqrt_psd.calls_per_op"] = (s.count(dense, "matcore.sqrt_psd") / n_dense, "count")
    out["matcore.self_frac"] = (s.self_time_of(dense, "matcore") / dense_time, "ratio")
    out["matcore.linalg_frac"] = (s.kernel_time_of(dense, "matcore") / dense_time, "ratio")
    flops, nbytes = s.flops_bytes(dense)
    kernel_ns = float(s.dur[dense & s.is_kernel].sum())
    out["linalg.mflop_per_op"] = (flops / n_dense / 1e6, "Mflop")
    out["linalg.mbyte_per_op"] = (nbytes / n_dense / 1e6, "MB")
    out["linalg.gflop_per_s"] = (flops / kernel_ns, "Gflop/s")

    oracle = s.ops("oracle-check")
    for n in (3, 4, 5):
        out[f"car_oracle.density_from_covariance.ms.m{n}"] = (
            s.median_ms(s.ops("oracle-check", f"car_oracle:car{n}"),
                        "car_oracle.density_from_covariance"), "ms")
    for fn in ("car_oracle.overlap", "car_oracle.fidelity_tr", "car_oracle.jw_generators",
               "ccr_oracle.overlap_ccr", "ccr_oracle.gaussian_density",
               "ccr_oracle.covariance_of_density"):
        out[f"{fn}.ms"] = (s.median_ms(oracle, fn), "ms")
    in_overlap = s.parent >= 0
    in_overlap &= s.name[s.np.maximum(s.parent, 0)] == rec._ids.get("ccr_oracle.overlap_ccr", -1)
    out["ccr_oracle.cutoffs_per_overlap"] = (
        s.count(oracle & in_overlap, "ccr_oracle.gaussian_density") / 2
        / s.count(oracle, "ccr_oracle.overlap_ccr"), "count")

    # input generation happens in setup (op id -1); one top-level call is one input
    sampling = s.code("sampling")
    setup = (s.op < 0) & (s.layer == sampling) & (s.parent_layer != sampling)
    out["sampling.ms_per_input"] = (float(s.dur[setup].sum()) / 1e6 / max(int(setup.sum()), 1), "ms")
    return out
