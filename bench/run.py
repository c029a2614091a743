"""dualrel benchmark runner.

    python3 bench/run.py --workload train_full --seed 1 --seconds 28 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 28 [--out results.json]

Run from the repository root. One workload runs in one process, with one
OpenBLAS thread and `DUALREL_WORKERS` unset. With `--trace 0` the last line of
standard output is a JSON object holding the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run. The line before it
is a `{"detail": ...}` record: the environment, the workload's own named
metrics, and any failed checks. `--all` runs every workload untraced and
traced, each in its own process, and prints every metric with its unit.
"""

import os

# One BLAS thread, set before numpy is imported: under OpenBLAS's default
# threading, stacked GEMMs ran 5x slower while another process was busy.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ.pop("DUALREL_WORKERS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

LOADAVG_AT_START = os.getloadavg()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
MIN_UNITS = 2


def pin_source_path():
    """Make `import dualrel` load the checkout's sources, here and in children."""
    if not os.path.isfile(os.path.join(SRC, "dualrel", "__init__.py")):
        sys.exit(f"error: no dualrel sources under {SRC}")
    sys.path.insert(0, SRC)
    parts = [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)


def blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_at_start": list(LOADAVG_AT_START),
        "machine": platform.machine(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_unit(workload, ledger, watch, tracer=None):
    """One unit, traced when a tracer is given, then its checks untraced.

    Returns the unit's outputs, or None when it raised: that is recorded as a
    failure.
    """
    failed_before = ledger.failed
    try:
        with tracer.installed() if tracer else contextlib.nullcontext():
            out = workload.unit(ledger, watch)
        workload.check(out, ledger)
    except Exception as exc:  # the run goes on and reports the failure
        if ledger.failed == failed_before:
            ledger.fail(ledger.attempt("unit"), f"raised {type(exc).__name__}: {exc}")
        return None
    return out


def run_untraced(workload, ledger, seconds):
    """Timed set-ups, then units until `seconds` have passed.

    The gated times are host-scaled (see hostspeed.py): each set-up and each
    timed piece of a unit is scaled by kernel samples taken right before and
    right after it. The detail record keeps the wall-clock medians beside them.
    """
    from hostspeed import Stopwatch
    from tracing import installed_wrappers
    from workloads import END_TO_END_UNITS

    watch = Stopwatch()
    setups = []
    for _ in range(workload.setup_repeats):
        setups.append({})
        with watch.piece(setups[-1], "setup_s"):
            workload.setup()
    units, attempts = [], 0
    started = time.perf_counter()
    while attempts < MIN_UNITS or time.perf_counter() - started < seconds:
        attempts += 1
        out = run_unit(workload, ledger, watch)
        if out is not None:
            units.append(out)
    op = ledger.attempt("untraced")
    leftover = installed_wrappers()
    ledger.check(op, not leftover, f"span wrappers installed: {leftover}")
    if not units:
        return None, {}

    def median(values):
        return statistics.median(list(values))

    def unit_s(kind):
        return median(workload.unit_time(u[kind]) for u in units)

    metrics = {
        "setup_s": median(s["scaled"]["setup_s"] for s in setups),
        "unit_s": unit_s("scaled"),
        "rate_per_s": median(workload.rate_of(u["scaled"]) for u in units),
        "peak_rss_mb": peak_rss_mb(),
    }
    metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
    named = workload.summarize(units)
    named["wall_setup_s"] = (median(s["wall"]["setup_s"] for s in setups), "s")
    named["wall_unit_s"] = (unit_s("wall"), "s")
    named["wall_rate_per_s"] = (median(workload.rate_of(u["wall"]) for u in units), "1/s")
    named["host_scale"] = (metrics["unit_s"][0] / named["wall_unit_s"][0], "ratio")
    named["setup_runs_s"] = ([s["wall"]["setup_s"] for s in setups], "s")
    named["rate_per_unit"] = ([workload.rate_of(u["wall"]) for u in units], "1/s")
    named["scaled_rate_per_unit"] = ([workload.rate_of(u["scaled"]) for u in units], "1/s")
    return metrics, named


def run_traced(workload, ledger, seconds):
    """One traced set-up, then untraced and traced units in turn."""
    from hostspeed import Stopwatch
    from tracing import LayerStats, Tracer, installed_wrappers, layer_metrics

    watch = Stopwatch(sampler=None)
    tracer = Tracer()
    setup_stats, stats = LayerStats(tracer.names), LayerStats(tracer.names)
    with tracer.installed():
        workload.setup()
    setup_stats.add(*tracer.take())
    plain, traced, rounds = [], [], 0
    started = time.perf_counter()
    while rounds < MIN_UNITS or time.perf_counter() - started < seconds:
        rounds += 1
        op = ledger.attempt("untraced")
        leftover = installed_wrappers()
        ledger.check(op, not leftover, f"span wrappers installed: {leftover}")
        for units, unit_tracer in ((plain, None), (traced, tracer)):
            out = run_unit(workload, ledger, watch, unit_tracer)
            if out is not None:
                units.append(out)
        records, sizes = tracer.take()
        op = ledger.attempt("trace_self_time")
        mismatched = stats.add(records, sizes)
        ledger.check(op, not mismatched,
                     f"{mismatched} steps whose self times do not add up to the step span")
        if workload.absent_spans:
            op = ledger.attempt("trace_absent_spans")
            called = {tracer.names[record[0]] for record in records}
            called = sorted(called.intersection(workload.absent_spans))
            ledger.check(op, not called, f"spans that should not run were called: {called}")
    if not traced or not plain:
        return None, {}
    overhead = (
        statistics.median(workload.rate_of(u["wall"]) for u in traced)
        / statistics.median(workload.rate_of(u["wall"]) for u in plain)
    )
    return layer_metrics(tracer.spans, setup_stats, stats, len(traced), overhead), {
        "units_traced": (len(traced), "count"),
        "units_untraced": (len(plain), "count"),
        "steps_checked": (len(stats.step_ms), "count"),
    }


def run_workload(args):
    pin_source_path()
    sys.path.insert(0, BENCH_DIR)
    from tracing import UNSPANNED
    from workloads import WORKLOADS, Ledger

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    env = environment()
    scratch = os.path.join(ROOT, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch, prefix=f"{args.workload}-")
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ledger = Ledger()
        runner = run_traced if args.trace else run_untraced
        metrics, named = runner(workload, ledger, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    if metrics is None:
        print(json.dumps({"detail": {"failures": ledger.messages}}), flush=True)
        sys.exit("error: no unit of work completed")
    named["failed_ratio"] = (ledger.failed / ledger.attempted, "ratio")
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env,
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "unspanned": UNSPANNED if args.trace else {},
        "failures": ledger.messages,
    }
    print(json.dumps({"detail": detail}), flush=True)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)


def run_all(args):
    """Every workload untraced, then traced, each in its own process."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        names = [w["name"] for w in json.load(fh)["workloads"]]
    results = {}
    for name in names:
        results[name] = {}
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(f"{name} trace={trace}: exit {done.returncode}\n{done.stderr}")
                continue
            results[name]["traced" if trace else "untraced"] = {
                "detail": json.loads(lines[-2])["detail"], "result": json.loads(lines[-1]),
            }
            print_result(name, trace, results[name]["traced" if trace else "untraced"])
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(results, fh, indent=1, sort_keys=True)
            fh.write("\n")


def print_result(name, trace, run):
    result, detail = run["result"], run["detail"]
    kind = "per-layer (traced)" if trace else "end-to-end (untraced)"
    print(f"== {name}: {kind}; correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    rows = dict(result["metrics"])
    rows.update(detail["named"])
    for key, metric in rows.items():
        value = metric["value"]
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value
        print(f"  {key:<52} {shown} {metric['unit']}")
    for message in detail["failures"]:
        print(f"  FAILED {message}")
    if trace:
        for module, why in detail["unspanned"].items():
            print(f"  {module}: {why}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="with --all: write every result to this JSON file")
    args = parser.parse_args()
    if args.all:
        run_all(args)
    elif args.workload:
        run_workload(args)
    else:
        parser.error("give --workload NAME or --all")


if __name__ == "__main__":
    main()
