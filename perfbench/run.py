"""perfbench: end-to-end and per-layer benchmark of quasifree.

Usage (from the repository root):

    python3 perfbench/run.py --workload sequences --seed 1 --seconds 25 --trace 0

Every workload is a closed loop: one caller in one process runs the next op
when the previous one has returned (for ``cli``, one ``qf`` child at a time).
With ``--trace 0`` it prints the end-to-end metrics of the workload; with
``--trace 1`` it measures the workload untraced and traced (the gap is the
tracing overhead), runs one cycle of every other workload traced, and prints
the per-layer metrics.  Times are reported at a reference machine speed (see
SpeedGauge).  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

import os
import sys

# The single-threaded BLAS baseline; quasifree applies it when it is imported,
# which happens before anything here imports numpy.
os.environ["QF_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from bisect import bisect_left, bisect_right  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("sequences", "dense-pairs", "oracle-check", "cli")
# Whole cycles run until --seconds have passed and at least this many ops are
# done.  The counts keep the tail percentile (below) the same in every run:
# p50 for sequences (21..99 ops), p90 for the others (100..999 ops).
MIN_OPS = {"sequences": 21, "dense-pairs": 100, "oracle-check": 100, "cli": 100}
SETUP_SAMPLES = 3  # setup_s is the median of this many setups (one here, the rest in children)
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
CLI_PROBES = 5  # bare-interpreter and import timings per traced run

# Reference speed: one _kernel() call takes this long on the reference machine.
CAL_REF_MS = 0.8
CAL_EVERY_NS = 250_000_000  # sample the speed at most this often between ops


def _kernel() -> int:
    """Fixed pure-Python work; it touches neither quasifree nor BLAS."""
    s = 0
    for i in range(12_000):
        s += i * i
    return s


class SpeedGauge:
    """Machine speed, sampled with ``_kernel`` between ops.

    The benchmark's reference machine (a 2-vCPU VM) switches for minutes at a
    time between speed states up to ~50% apart, and the process's CPU time
    moves with its wall time, so the slowdown is the CPU's, not the
    scheduler's.  A duration scaled by the kernel time sampled next to it
    stays within ~2%.  ``factor(t0, t1)`` is CAL_REF_MS over the mean kernel
    time of the samples just before t0 and just after t1; a raw duration
    times that factor is the duration at the reference speed.
    """

    def __init__(self):
        self.times: list[int] = []
        self.kernel_ms: list[float] = []

    def sample(self) -> None:
        runs = []
        for _ in range(3):
            t0 = time.perf_counter_ns()
            _kernel()
            runs.append(time.perf_counter_ns() - t0)
        self.times.append(time.perf_counter_ns())
        self.kernel_ms.append(statistics.median(runs) / 1e6)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter_ns() - self.times[-1] >= CAL_EVERY_NS:
            self.sample()

    def factor(self, t0: int, t1: int) -> float:
        around = {max(bisect_right(self.times, t0) - 1, 0),
                  min(bisect_left(self.times, t1), len(self.times) - 1)}
        return CAL_REF_MS / statistics.mean(self.kernel_ms[i] for i in around)

    def timed(self, fn):
        """(result, raw seconds, seconds at the reference speed) of one call."""
        self.sample()
        t0 = time.perf_counter_ns()
        result = fn()
        t1 = time.perf_counter_ns()
        self.sample()
        return result, (t1 - t0) / 1e9, (t1 - t0) / 1e9 * self.factor(t0, t1)

    def summary(self) -> dict:
        return {
            "reference_kernel_ms": CAL_REF_MS,
            "kernel_ms_median": statistics.median(self.kernel_ms),
            "kernel_ms_min": min(self.kernel_ms),
            "kernel_ms_max": max(self.kernel_ms),
            "samples": len(self.kernel_ms),
        }


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time one setup and print it (used for setup_s)")
    return p.parse_args(argv)


def _import_program():
    """Put the checkout's src/ first on the path and check it is what loads."""
    if not (SRC / "quasifree" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no quasifree sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import quasifree

    if not Path(quasifree.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"perfbench: quasifree loaded from {quasifree.__file__}, not {SRC}")


def _setup(workload: str, seed: int):
    import workloads

    if workload == "cli":
        return workloads.setup_cli(seed, ROOT, OUT / f"cli-{os.getpid()}")
    return workloads.SETUPS[workload](seed)


# ----------------------------------------------------------------- the loop


class Tally:
    """Outcomes of the ops run so far."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.known = {}
        self.failures = []

    def add(self, op, result, error):
        self.attempted += 1
        msg = error if error is not None else op.check(result)
        if msg is None:
            return
        if error is None and op.known_defect and op.defect_signature(result):
            self.known[op.known_defect] = self.known.get(op.known_defect, 0) + 1
            return
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.label}: {msg}")


class Record(NamedTuple):
    label: str
    raw_ns: int
    factor: float  # speed factor of the op (SpeedGauge.factor)
    result: object

    @property
    def ms(self) -> float:
        """Latency at the reference speed."""
        return self.raw_ns / 1e6 * self.factor


def run_loop(wl, seconds, min_ops, tally, gauge, recorder=None):
    """Run whole cycles of ``wl`` until ``seconds`` have passed and ``min_ops`` are done.

    Only the op's call is timed; the speed samples and the check run outside
    it.  With a recorder, each op's speed factor is stored with its spans.
    """
    timed = []
    start = time.perf_counter()
    while True:
        for op in wl.cycle:
            gauge.maybe_sample()
            span = recorder.begin_op(wl.name, op.label, op.modes) if recorder else None
            error = None
            t0 = time.perf_counter_ns()
            try:
                result = op.run()
            except Exception as exc:  # an op that raises is a failed op, not a crash
                result, error = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            op_id = recorder.end_op(span) if recorder else None
            tally.add(op, result, error)
            timed.append((op.label, t0, t1, result, op_id))
        if time.perf_counter() - start >= seconds and len(timed) >= min_ops:
            break
    gauge.sample()
    records = []
    for label, t0, t1, result, op_id in timed:
        factor = gauge.factor(t0, t1)
        if recorder:
            recorder.op_factor[op_id] = factor
        records.append(Record(label, t1 - t0, factor, result))
    return records


def _tail(lat_sorted):
    """(percentile, value, samples beyond): the highest ladder percentile with >= 10 beyond it."""
    n = len(lat_sorted)
    for p in TAIL_LADDER:
        rank = math.ceil(p / 100.0 * n)  # nearest-rank percentile
        if n - rank >= 10:
            return p, lat_sorted[rank - 1], n - rank
    return None, None, 0


def _ops_per_s(records, raw=False):
    total_ms = sum(r.raw_ns / 1e6 if raw else r.ms for r in records)
    return len(records) / total_ms * 1e3


def _peak_rss_mb(with_children: bool) -> float:
    """Own peak RSS, plus the largest child's (the `qf` children, for cli)."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# -------------------------------------------------------------- environment


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(args):
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "quasifree").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "seed": args.seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(args.cpus),
        "pinned_cpu": max(args.cpus),
        "QF_THREADS": os.environ.get("QF_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


# ------------------------------------------------------------------ runners


def _probe_setup(workload, seed):
    """(reference, raw) setup seconds of a fresh interpreter."""
    import workloads

    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-probe"]
    res = workloads.run_child(argv, dict(os.environ), str(ROOT))
    if res.code != 0:
        raise RuntimeError(f"setup probe exited {res.code}: {res.stderr.strip()[-300:]}")
    probe = json.loads(res.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["setup_raw_s"]


def end_to_end(args, gauge, wl, setup):
    """``setup`` is this process's (reference, raw) setup seconds."""
    tally = Tally()
    try:
        records = run_loop(wl, args.seconds, MIN_OPS[args.workload], tally, gauge)
    finally:
        wl.cleanup()
    # before the setup probes, which are children too
    peak = _peak_rss_mb(with_children=args.workload == "cli")
    setups = [setup] + [_probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]

    lat = sorted(r.ms for r in records)
    raw = sorted(r.raw_ns / 1e6 for r in records)
    pct, tail, beyond = _tail(lat)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": (_ops_per_s(records), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (peak, "MB"),
    }
    known = sum(tally.known.values())
    report = {
        "workload": args.workload,
        "mode": "end-to-end",
        "environment": _environment(args),
        "sizes": wl.sizes,
        "seconds": args.seconds,
        "ops": len(records),
        "timed_wall_s": sum(raw) / 1e3,
        "op_tail_percentile": pct,
        "op_tail_samples_beyond": beyond,
        "raw": {
            "setup_s": statistics.median(r for _, r in setups),
            "ops_per_s": _ops_per_s(records, raw=True),
            "op_p50_ms": statistics.median(raw),
            "op_tail_ms": _tail(raw)[1],
        },
        "speed": gauge.summary(),
        "setup_samples_s": [s for s, _ in setups],
        "per_label_p50_ms": _per_label(records),
        "fail_frac": (tally.failed + known) / tally.attempted,
        "failed_excluding_known_defects": tally.failed,
        "known_defect_ops": tally.known,
        "failures": tally.failures,
        "accuracy": wl.accuracy,
    }
    return tally, metrics, report


def _per_label(records):
    by = {}
    for r in records:
        by.setdefault(r.label, []).append(r.ms)
    return {k: statistics.median(v) for k, v in by.items()}


def _cli_layer_metrics(records, wl, gauge):
    """cli.* metrics from qf children (spans cannot reach into another process)."""
    import workloads

    wall, handler, startup, size = {}, [], [], []
    for r in records:
        wall.setdefault(r.label.split(":")[0], []).append(r.ms)
        report = r.result.report if r.result is not None else None
        if report and isinstance(report.get("timing_seconds"), (int, float)):
            handler.append(report["timing_seconds"] * 1e3 * r.factor)
            startup.append(r.ms - handler[-1])
            size.append(len(r.result.stdout.encode()))
    bare, imported = [], []
    for _ in range(CLI_PROBES):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import quasifree.cli"], imported)):
            res, _, seconds = gauge.timed(lambda argv=argv: workloads.run_child(argv, wl.env, str(ROOT)))
            if res.code != 0:
                raise RuntimeError(f"{argv} exited {res.code}: {res.stderr.strip()[-300:]}")
            into.append(seconds * 1e3)
    out = {
        "cli.interpreter_ms": (statistics.median(bare), "ms"),
        "cli.import_ms": (statistics.median(imported) - statistics.median(bare), "ms"),
        "cli.startup_ms": (statistics.median(startup), "ms"),
        "cli.handler_ms": (statistics.median(handler), "ms"),
        "cli.report_bytes": (statistics.median(size), "bytes"),
    }
    for command in ("validate", "trans-prob", "classify", "quadrature-check",
                    "oracle-compare", "demo-counterexample"):
        out[f"cli.wall_ms.{command}"] = (statistics.median(wall[command]), "ms")
    return out


def traced(args, gauge):
    import tracing

    tally = Tally()
    rec = tracing.SpanRecorder()

    def under_trace(fn):
        patches = tracing.install(rec)
        try:
            return fn()
        finally:
            tracing.restore(patches)

    # setups run traced: input generation is where sampling is timed
    wls, raw_s, ref_s = gauge.timed(
        lambda: under_trace(lambda: {name: _setup(name, args.seed) for name in WORKLOADS}))
    rec.setup_factor = ref_s / raw_s
    try:
        # alternate untraced and traced cycles of the named workload, so that
        # drift in machine speed falls on both sides of the overhead estimate
        primary = wls[args.workload]
        one = len(primary.cycle)
        untraced, runs = [], {args.workload: []}
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or not untraced:
            untraced += run_loop(primary, 0.0, one, tally, gauge)
            runs[args.workload] += under_trace(
                lambda: run_loop(primary, 0.0, one, tally, gauge, rec))
        for name, wl in wls.items():
            if name != args.workload:
                runs[name] = under_trace(
                    lambda wl=wl: run_loop(wl, 0.0, len(wl.cycle), tally, gauge, rec))
    finally:
        for wl in wls.values():
            wl.cleanup()

    metrics = tracing.layer_metrics(rec)
    metrics.update(_cli_layer_metrics(runs["cli"], wls["cli"], gauge))
    accuracy = {}
    for wl in wls.values():
        accuracy.update(wl.accuracy)
    for name in ("seqmodel.max_rel_err", "car.max_rel_err", "ccr.max_rel_err",
                 "car_oracle.max_abs_diff", "ccr_oracle.max_abs_diff"):
        metrics[name] = (accuracy.get(name, float("nan")), "1")
    traced_rate = _ops_per_s(runs[args.workload])
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / _ops_per_s(untraced), "ratio")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    tracing.dump(rec, spans_path)
    report = {
        "workload": args.workload,
        "mode": "traced",
        "environment": _environment(args),
        "speed": gauge.summary(),
        "spans": len(rec.start),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "untraced_ops_per_s": _ops_per_s(untraced),
        "traced_ops_per_s": traced_rate,
        "ops": {name: len(r) for name, r in runs.items()},
        "untraced_ops": len(untraced),
        "known_defect_ops": tally.known,
        "failures": tally.failures,
    }
    return tally, metrics, report


def _print_table(title, metrics):
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")


def main(argv=None):
    args = _parse(argv)
    # One CPU for the harness and its children: the closed loop never runs
    # two things at once, and the speed samples then see the CPU the ops ran on.
    args.cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {max(args.cpus)})
    gauge = SpeedGauge()
    if args.trace:
        _import_program()
        tally, metrics, report = traced(args, gauge)
    else:
        # setup: import, input generation and warm-up, all before the first timed op
        def setup():
            _import_program()
            return _setup(args.workload, args.seed)

        wl, setup_raw, setup_ref = gauge.timed(setup)
        if args.setup_probe:
            wl.cleanup()
            print(json.dumps({"setup_s": setup_ref, "setup_raw_s": setup_raw}))
            return 0
        tally, metrics, report = end_to_end(args, gauge, wl, (setup_ref, setup_raw))
    bad = [k for k, (v, _) in metrics.items() if not isinstance(v, (int, float)) or not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"metrics without a finite value: {bad}")
    _print_table(f"perfbench {args.workload} seed={args.seed} "
                 f"({'traced, per layer' if args.trace else 'end to end'})", metrics)
    print(json.dumps(report, default=str))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
