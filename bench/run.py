"""qimet benchmark runner.

    python3 bench/run.py --workload {oracle-dense,verify-mix,report-cli} \\
        --seed N --seconds S --trace {0,1}

Builds the workload's inputs from ``--seed`` in a scratch directory under
``bench/.work``, warms up, then repeats the workload's pass of ops for about
``--seconds`` of op time (whole passes, at least one), in this one process
with one BLAS thread.  Outputs are checked after the timed loop.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer ones
with ``--trace 1``).  See ``bench/README.md``.
"""

from __future__ import annotations

import os

# One BLAS thread here and in the set-up probes this process starts; it must
# be set before numpy is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: op_s.p90 is printed only from this many timed ops up, so that at least
#: ten samples lie beyond it.  Neither percentile is a JSON metric; README.md
#: says why.
P90_MIN_OPS = 100


def _blas_threads() -> str:
    """Thread counts reported by the OpenBLAS libraries loaded here."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line and ".so" in line})
    except OSError:
        return "unknown"
    counts = set()
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.add(fn())
                break
    return ",".join(str(c) for c in sorted(counts)) or "unknown"


def host_record() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS too)

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure_setup(warmup) -> float:
    """Median wall time of fresh interpreters that import qimet and run the
    warm-up op."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), *warmup],
            stdout=subprocess.DEVNULL)
        # A blocking wait returns as soon as the probe exits; a wait with a
        # timeout polls, and would round the time up by up to 50 ms.
        timer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        times.append(perf_counter() - start)
        if code != 0:
            raise RuntimeError(f"set-up probe exited {code}")
    return statistics.median(times)


def run_pass(ops, tracer=None, first=0):
    """Run each op once; only ``op.run`` is timed.

    Returns per op its time and its collected output, or the exception its
    call raised.  ``first`` numbers the ops for the tracer.
    """
    times, outputs = [], []
    for index, op in enumerate(ops):
        op.reset()
        if tracer is not None:
            tracer.op = first + index
        start = perf_counter()
        try:
            raw = op.run()
        except Exception as exc:  # a failed op is counted, not fatal
            raw = exc
        times.append(perf_counter() - start)
        outputs.append(raw if isinstance(raw, Exception) else op.collect(raw))
    return times, outputs


def end_to_end(setup_s, times) -> dict:
    return {
        "setup_s": setup_s,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, n, untraced_rate, traced_rate) -> dict:
    """Per-layer metrics of ``n`` traced ops; counts and times are per op."""
    from workloads import VERIFY_THEOREMS

    calls, busy, own = tracer.totals()
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def layer(span, *kinds):
        for kind in kinds:
            if kind == "calls":
                put(f"{span}.calls", calls[span] / n, "count/op")
            elif kind == "busy_s":
                put(f"{span}.busy_s", busy[span] / n, "s/op")
            else:
                put(f"{span}.self_s", own[span] / n, "s/op")

    oracle = "oracle.diamond_norm"
    layer(oracle, "calls", "busy_s")
    put(f"{oracle}.iterations", tracer.iterations / n, "count/op")
    put(f"{oracle}.s_per_iter",
        busy[oracle] / tracer.iterations if tracer.iterations else 0.0, "s")
    put(f"{oracle}.failed", tracer.failed[oracle], "count")
    for span in ("linalg.partial_trace", "linalg.psd_sqrt", "linalg.trace_norm",
                 "channels.choi_from_kraus", "instruments.expand",
                 "instruments.full_channel"):
        layer(span, "calls", "busy_s")
    layer("instruments.model_from_json", "busy_s")
    layer("metrics.build_report", "calls", "busy_s", "self_s")
    layer("metrics.lower_max", "busy_s")
    layer("metrics.upper", "busy_s")
    for theorem in VERIFY_THEOREMS:
        put(f"verify.run_trial.busy_s.{theorem}",
            busy[f"verify.run_trial.{theorem}"] / n, "s/op")
    put("verify.run_trial.failed",
        sum(v for k, v in tracer.failed.items()
            if k.startswith("verify.run_trial.")), "count")
    put("cli.self_s", own["cli.main"] / n, "s/op")
    put("trace.ops_per_s", traced_rate, "1/s")
    put("trace.untraced_ops_per_s", untraced_rate, "1/s")
    put("trace.overhead_pct", 100.0 * (untraced_rate / traced_rate - 1.0), "%")
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("oracle-dense", "verify-mix", "report-cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="stored reference values (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qimet" / "__init__.py").is_file():
        print(f"error: qimet sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qimet

    if Path(qimet.__file__).resolve().parent != (SRC / "qimet").resolve():
        print(f"error: imported qimet from {qimet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from setup_probe import warm_up
    from tracing import Tracer

    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    WORK.mkdir(exist_ok=True)
    print(f"qimet benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("host: " + json.dumps(host_record(), sort_keys=True))

    with tempfile.TemporaryDirectory(dir=WORK) as work:
        load = workloads.build(args.workload, args.seed, work, reference)
        if warm_up(load.warmup) != 0:
            print("error: warm-up op failed", file=sys.stderr)
            return 1
        # The number of whole passes whose op time is nearest to --seconds,
        # at least one.  The traced run alternates untraced and traced
        # passes, so that the overhead compares the two under the same
        # machine conditions; its traced passes are the ones counted.
        times, traced, outputs = [], [], []
        tracer = Tracer()
        measured = 0.0
        while True:
            pass_times, pass_outputs = run_pass(load.ops)
            times += pass_times
            outputs += pass_outputs
            if args.trace:
                tracer.install()
                try:
                    pass_times, pass_outputs = run_pass(load.ops, tracer,
                                                        len(traced))
                finally:
                    tracer.uninstall()
                traced += pass_times
                outputs += pass_outputs
            measured += sum(pass_times)
            if measured + sum(pass_times) / 2 >= args.seconds:
                break
        executed = load.ops * (len(outputs) // len(load.ops))
        if args.trace:
            spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.dump(spans)
            print(f"spans: {len(tracer.spans)} written to {spans}")
            metrics = per_layer(tracer, len(traced),
                                len(times) / sum(times),
                                len(traced) / sum(traced))
        else:
            setup_s = measure_setup(load.warmup)
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value
                       in end_to_end(setup_s, times).items()}

    errors = workloads.check_outputs(executed, outputs)
    failed = sum(e is not None for e in errors)
    for op, error in zip(executed, errors):
        if error is not None:
            print(f"FAILED {op.key}: {error}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    if not args.trace:
        print(f"  ({len(times)} ops timed; setup_s is the median of "
              f"{SETUP_REPEATS} set-ups)")
        print(f"op_s.p50 = {statistics.median(times)!r} s")
        if len(times) >= P90_MIN_OPS:
            p90 = statistics.quantiles(times, n=10, method="inclusive")[8]
            print(f"op_s.p90 = {p90!r} s")
        else:
            print(f"  (op_s.p90 not defined: {len(times)} < {P90_MIN_OPS} "
                  f"ops)")
    print(f"fail_ratio = {failed / len(executed)!r} ratio "
          f"({failed} of {len(executed)} ops failed)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(executed),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
