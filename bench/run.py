"""Benchmark of the arcfit command line, run in-process from a checkout.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in one process calls `arcfit.cli.main(argv)` with
stdout captured, one operation after another, and checks every output. The
program is imported from `src/` of the checkout this file sits in; without
it the benchmark exits non-zero. With `--trace 0` the last stdout line holds
the end-to-end metrics; with `--trace 1` the operations run alternately
untraced and under span tracing, and it holds the per-layer metrics. The
line before it is a report with the environment, sample counts and quality
numbers. See bench/README.md.
"""

from __future__ import annotations

import os

# Before numpy is imported: the benchmark measures one single-threaded client.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_ROUNDS = 9
WORKLOAD_NAMES = ("fit_cloud", "compare_72", "compress_parcel",
                  "compress_prefilter")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> float:
    """Import numpy, arcfit from this checkout and the benchmark's modules;
    returns the seconds it took."""
    if not (SRC / "arcfit" / "cli.py").is_file():
        sys.exit(f"bench: no arcfit sources at {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import arcfit.cli
    import workloads  # noqa: F401
    elapsed = time.perf_counter() - t0
    if Path(arcfit.cli.__file__).resolve().parent != SRC / "arcfit":
        sys.exit(f"bench: imported arcfit from {arcfit.cli.__file__}, "
                 f"not from {SRC}")
    return elapsed


def environment() -> dict:
    import numpy
    from arcfit import moments
    try:
        import gmpy2  # noqa: F401
        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    rational = getattr(moments, "_Q", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gmpy2": has_gmpy2,
        "rational": rational.__module__ if rational is not None else None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_op(argv, tracer=None):
    """One `cli.main` call: (exit code, stdout, seconds). Tracing, when
    given, is on only inside the call."""
    from arcfit import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
    return code, out.getvalue(), dt


def check(op, code, out):
    """Quality record of a correct operation, or None after reporting why
    it failed."""
    try:
        if code != 0:
            raise ValueError(f"exit status {code!r}")
        return op.check(out)
    except Exception as exc:  # every kind of bad output counts as a failure
        print(f"bench: failed {' '.join(op.argv)}: {exc}", file=sys.stderr)
        return None


def set_up(name: str, seed: int, work: Path):
    """Build the workload SETUP_ROUNDS times from the same seed (generate,
    write, warm up) and return the last one with each round's seconds."""
    import numpy as np
    from workloads import WORKLOADS
    rounds = []
    for r in range(SETUP_ROUNDS):
        root = work / f"round{r}"
        root.mkdir(parents=True)
        t0 = time.perf_counter()
        wl = WORKLOADS[name](root, np.random.default_rng(seed))
        code, _, _ = run_op(wl.warmup)
        rounds.append(time.perf_counter() - t0)
        if code != 0:
            sys.exit(f"bench: warm-up {wl.warmup} exited {code!r}")
    return wl, rounds


class Loop:
    """Runs a workload's operation cycle and keeps what the metrics need."""

    def __init__(self, wl):
        self.wl = wl
        self.samples = [[] for _ in wl.ops]   # seconds per cycle position
        self.records = {}                     # first check record per position
        self.attempted = 0
        self.failed = 0

    def run(self, k: int, tracer=None) -> float:
        op = self.wl.ops[k]
        code, out, dt = run_op(op.argv, tracer)
        self.attempted += 1
        self.samples[k].append(dt)
        record = check(op, code, out)
        if record is None:
            self.failed += 1
        else:
            self.records.setdefault(k, record)
        return dt

    def cycle(self, tracer=None) -> float:
        return sum(self.run(k, tracer) for k in range(len(self.wl.ops)))

    def quality(self) -> dict:
        return self.wl.quality(list(self.records.values()))


def measure(loop: Loop, seconds: float) -> dict:
    """Operations until `seconds` of operation time and at least one whole
    cycle have run."""
    n = len(loop.wl.ops)
    busy, i = 0.0, 0
    while busy < seconds or i < n:
        busy += loop.run(i % n)
        i += 1
    # Each cycle position counts once, by its median time, so a run that
    # stops part-way through a cycle does not shift the op mix.
    medians = [statistics.median(s) for s in loop.samples]
    times = sorted(t for s in loop.samples for t in s)
    # Highest percentile with at least ten samples beyond it, once that is
    # well above the median; with fewer samples, the upper quartile of the
    # per-position medians.
    if len(times) >= 31:
        k = len(times) - 11
        tail, pct = times[k], 100.0 * k / (len(times) - 1)
    elif len(medians) > 1:
        tail = statistics.quantiles(medians, n=4, method="inclusive")[2]
        pct = 75.0
    else:
        tail, pct = medians[0], 50.0
    return {
        "metrics": {
            "ops_per_s": (n / sum(medians), "1/s"),
            "op_ms_p50": (1e3 * statistics.median(medians), "ms"),
            "op_ms_tail": (1e3 * tail, "ms"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "MB"),
        },
        "samples": len(times),
        "tail_percentile": pct,
        "tail_beyond": sum(t > tail for t in times),
    }


def measure_traced(loop: Loop, seconds: float) -> dict:
    """Pairs of one untraced and one traced cycle, while another pair fits
    in `seconds` of operation time. Counts must repeat in every pass."""
    import spans
    tracer = spans.Tracer()
    untraced, traced, passes = [], [], []
    busy = 0.0
    while True:
        untraced.append(loop.cycle())
        tracer.reset()
        tracer.install()
        try:
            traced.append(loop.cycle(tracer))
        finally:
            tracer.uninstall()
        passes.append(tracer.summary())
        busy += untraced[-1] + traced[-1]
        if busy + untraced[-1] + traced[-1] > seconds:
            break
    repeat = all(spans.same_counts(passes[0], p) for p in passes[1:])
    if not repeat:
        print("bench: call counts differ between traced passes",
              file=sys.stderr)
    from workloads import QUALITY_UNITS
    metrics = spans.layer_metrics(passes, untraced, traced)
    quality = loop.quality()
    for key, unit in QUALITY_UNITS.items():
        metrics[f"quality.{key}"] = (quality.get(key, 0.0), unit)
    return {"metrics": metrics, "passes": len(passes), "repeat": repeat}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_program()
    work = ROOT / ".bench_work" / str(os.getpid())
    try:
        wl, rounds = set_up(args.workload, args.seed, work)
        loop = Loop(wl)
        if args.trace:
            result = measure_traced(loop, args.seconds)
            correct = loop.failed == 0 and result["repeat"]
        else:
            result = measure(loop, args.seconds)
            result["metrics"]["setup_s"] = (
                import_s + statistics.median(rounds), "s")
            correct = loop.failed == 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    report = {k: v for k, v in result.items() if k != "metrics"}
    report.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  environment=environment(), import_s=import_s,
                  setup_rounds_s=rounds,
                  failed_frac=loop.failed / loop.attempted,
                  quality=loop.quality())
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
