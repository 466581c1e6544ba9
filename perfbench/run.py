"""qident benchmark: one workload per process, one closed-loop client.

    python3 perfbench/run.py --workload census --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, summary table

A run builds the workload's inputs from ``--seed`` (the criterion seeds when
omitted), then repeats the timed body until ``--seconds`` would be exceeded
(at least three times), checking every repetition's outputs.  BLAS runs
on one thread, so the process uses one core.  ``setup_s`` is the
median over several fresh interpreters that import the package and build
the inputs.

With ``--trace 0`` the last stdout line reports ``wall_s``, ``setup_s`` and
``peak_rss_mb``.  ``wall_s`` is the median body time rescaled to a fixed
machine speed: a calibration task that does not touch qident runs before
each repetition and after the last, and the median body time is multiplied
by ``CAL_REF_S`` over the median calibration time.  On a shared 2-vCPU Xeon
VM the throughput drifted by up to 2x over minutes, CPU time with it; over
ten seeds the rescaling cut the spread (IQR over median) of the census and
search times from 42% and 53% to 18%.  Raw times stay in the result file.

With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones (input build plus body) give the per-layer metrics of
``tracing.LAYERS``, and the median traced over untraced body time gives
``trace_overhead_frac``.  Results, with a machine and version stamp, and
span traces go to ``perfbench/_run/``.  The run exits 1 when any check
fails.

``--write-reference`` runs each given seed once and stores its outputs as
the committed reference in ``perfbench/reference/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = HERE / "_run"
MIN_REPS = 3
SETUP_REPS = 7
DEFAULT_SECONDS = 25
CAL_REF_S = 0.1  # calibration time of the nominal machine wall_s is scaled to

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]


def _import_program():
    """Put the checkout's ``src`` first on the path; never fall back to an
    installed copy."""
    if not (SRC / "qident" / "__init__.py").is_file():
        sys.exit(f"error: no qident sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import qident

    if Path(qident.__file__).resolve().parent != SRC / "qident":
        sys.exit(f"error: imported qident from {qident.__file__}, not {SRC}")
    return qident


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(qident_version: str) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": _git_commit(),
        "qident": qident_version,
    }


def _timed(fn, *args):
    """Run ``fn`` with its stdout swallowed; return (seconds, result)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        out = fn(*args)
        return time.perf_counter() - start, out


def calibration_seconds() -> float:
    """Time of a fixed task that does not touch qident: interpreter work,
    small numpy calls and passes over an 8 MB array, like the workloads."""
    import numpy as np

    rng = np.random.default_rng(0)
    small = rng.random((32, 16))
    big = rng.random(1 << 20)
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * 7 % 13
    for _ in range(4_000):
        (np.log(small) @ small.T).sum()
    for _ in range(100):
        big *= 1.0000001
    return time.perf_counter() - start


def _seed_args(seed):
    return [] if seed is None else ["--seed", str(seed)]


def _setup_seconds(name: str, seed, workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports and builds the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--workdir", str(workdir), *_seed_args(seed)]
    start = time.perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure(workload, seed, seconds: int, trace: bool, workdir: Path) -> dict:
    from tracing import OVERHEAD, Tracer, layer_metrics, metric_specs, write_trace
    from workloads import load_reference

    reference = load_reference(workload.name)
    setup = [] if trace else [
        _setup_seconds(workload.name, seed, workdir / "setup") for _ in range(SETUP_REPS)]
    inputs = workload.build(seed, workdir)
    tracer = Tracer() if trace else None
    plain, traced, checks, cal = [], [], [], []
    start = time.perf_counter()
    while True:
        cal.append(calibration_seconds())
        wall, out = _timed(workload.run, inputs)
        plain.append(wall)
        checks.append(workload.check(inputs, out, reference))
        del out
        if tracer is not None:
            with tracer:
                traced_inputs = workload.build(seed, workdir)
                wall, out = _timed(workload.run, traced_inputs)
            traced.append(wall)
            checks.append(workload.check(traced_inputs, out, reference))
            del out
        per_round = statistics.median(plain) + (statistics.median(traced) if traced else 0.0)
        enough = len(plain) >= (1 if trace else MIN_REPS)
        if enough and time.perf_counter() - start + per_round > seconds:
            break
    cal.append(calibration_seconds())

    if trace:
        metrics = layer_metrics(tracer.spans, len(traced))
        metrics[OVERHEAD[0]] = statistics.median(traced) / statistics.median(plain) - 1.0
        units = {name: unit for name, unit, _ in metric_specs()}
        write_trace(RUN_DIR / f"trace-{workload.name}-seed{seed}.json.gz", tracer.spans)
    else:
        metrics = {
            "wall_s": statistics.median(plain) * CAL_REF_S / statistics.median(cal),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    return {
        "correct": all(c.failed == 0 for c in checks),
        "attempted": sum(c.attempted for c in checks),
        "failed": sum(c.failed for c in checks),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "raw_wall_s": statistics.median(plain),
        "reps": {"plain_s": plain, "traced_s": traced, "setup_s": setup, "cal_s": cal},
        "problems": [p for c in checks for p in c.problems][:20],
    }


def run_one(args, qident_version: str) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-{workload.name}-{os.getpid()}"
    try:
        result = measure(workload, seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record = {
        "stamp": stamp(qident_version),
        "config": {"workload": workload.name, "seed": seed, "seconds": args.seconds,
                   "trace": args.trace, "runs": len(result["reps"]["plain_s"]),
                   "traced_runs": len(result["reps"]["traced_s"]),
                   "setup_runs": len(result["reps"]["setup_s"]), "clients": 1, "workers": 1},
        **result,
    }
    (RUN_DIR / f"result-{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": record["stamp"], "config": record["config"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if result["correct"] else 1


def run_all(args, qident_version: str) -> int:
    """Each workload in its own process; prints a table and exits 1 when any
    workload fails a check or does not report."""
    from workloads import WORKLOADS

    RUN_DIR.mkdir(exist_ok=True)
    results, ok = {}, True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace), *_seed_args(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            ok = False
            continue
        ok = ok and proc.returncode == 0 and results[name]["correct"]

    if args.trace:
        for name, res in results.items():
            print(f"== {name}")
            for metric, m in res["metrics"].items():
                print(f"  {metric:48s} {m['value']:14.6g} {m['unit']}")
    else:
        print(f"{'workload':10s} {'wall_s [s]':>11s} {'setup_s [s]':>12s} "
              f"{'peak_rss_mb [MB]':>17s} {'failed_frac [ratio]':>20s}")
        for name, res in results.items():
            m = res["metrics"]
            failed_frac = res["failed"] / res["attempted"]
            print(f"{name:10s} {m['wall_s']['value']:11.3f} {m['setup_s']['value']:12.3f} "
                  f"{m['peak_rss_mb']['value']:17.1f} {failed_frac:20.4g}")
    summary = {"stamp": stamp(qident_version),
               "config": {"seconds": args.seconds, "trace": args.trace, "seed": args.seed},
               "workloads": results}
    path = RUN_DIR / f"BENCH_all-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


def write_reference(args) -> int:
    from workloads import REFERENCE_DIR, WORKLOADS

    workload = WORKLOADS[args.workload]
    seeds = args.write_reference if workload.per_seed_reference else [workload.default_seed]
    path = REFERENCE_DIR / f"{workload.name}.json"
    stored = json.loads(path.read_text()) if path.is_file() else {}
    RUN_DIR.mkdir(exist_ok=True)
    workdir = RUN_DIR / f"work-reference-{os.getpid()}"
    try:
        for seed in seeds:
            inputs = workload.build(seed, workdir)
            _, out = _timed(workload.run, inputs)
            entry = workload.reference_entry(inputs, out)
            if workload.per_seed_reference:
                stored.setdefault("seeds", {})[str(seed)] = entry
            else:
                stored = entry
            print(f"{workload.name}: reference for seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True,
                        help="census, search, certify, decay, or all")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, default=None, help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", type=int, nargs="+", metavar="SEED",
                        help="store the outputs of these seeds as the reference")
    args = parser.parse_args(argv)

    # one closed-loop client on one thread: a BLAS thread pool would compete
    # with it for cores; set before numpy is first imported
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    qident = _import_program()
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_only:
        workload = WORKLOADS[args.workload]
        workload.build(workload.default_seed if args.seed is None else args.seed, args.workdir)
        return 0
    if args.write_reference:
        return write_reference(args)
    if args.workload == "all":
        return run_all(args, qident.__version__)
    return run_one(args, qident.__version__)


if __name__ == "__main__":
    sys.exit(main())
