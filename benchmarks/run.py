"""litclust benchmark: one workload, one seed, one process.

    python3 benchmarks/run.py --workload pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a litclust checkout; the package is imported from
its ``src`` directory and nowhere else.  The run generates its inputs
from the seed (several times, to time set-up), runs one untimed
warm-up repetition whose outputs become the reference, then repeats
the workload back to back for ``--seconds``.  Every repetition is
checked against the reference and the benchmark's own oracles.

A fixed pure-Python loop, the gauge, is timed after every repetition,
import and input generation.  With ``--trace 0`` the last stdout line
reports the end-to-end metrics: the median wall time of a repetition
scaled to a fixed machine speed (``wall_ref_s``: the median wall time
times ``GAUGE_REF_S`` over the median gauge time of the same window),
set-up time scaled the same way, peak RSS and v-measure.  The unscaled
times are printed and recorded too.  With ``--trace 1`` untraced and
traced repetitions alternate in the window, and the last line reports
the per-layer metrics from the traced ones; the spans are written to
``.bench_out/``.  The lines before the last give every
metric with its unit and sample count, and a JSON record of the
environment and the matrix shapes.  Scratch files go to
``.bench_work/`` and are removed at exit.
"""

import time

PROCESS_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread: on a machine of two shared cores a second thread
# that spins between calls slows the Python half of every repetition
# by an amount that depends on the neighbours.  Set before numpy loads;
# the fresh interpreters that time imports inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import corpusgen  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
IMPORTS = 3
SETUPS = 5
MIN_REPS = 3
GAUGE_LOOP = 1_000_000
# Gauge seconds that ``wall_ref_s`` and ``setup_s`` are scaled to: about
# what the gauge takes when the machine the benchmark was sized on
# runs fastest.
GAUGE_REF_S = 0.05


def import_litclust():
    """Import litclust from this checkout's ``src``, or exit non-zero."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import litclust
    except ImportError as exc:
        sys.exit(f"benchmark: cannot import litclust from {src}: {exc}")
    if Path(litclust.__file__).resolve().parent != src / "litclust":
        sys.exit(f"benchmark: litclust was imported from {litclust.__file__}, not from {src}")
    return litclust


def import_times(first: float) -> list[tuple[float, float]]:
    """(import seconds, gauge seconds) of this process and of ``IMPORTS - 1`` fresh interpreters.

    Each interpreter imports what this process imported before its
    inputs were generated, runs the gauge, and exits.
    """
    code = (
        "import time; start = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r}); "
        "import run; run.import_litclust(); import workloads; took = time.perf_counter() - start; "
        "print(took, run.gauge())"
    )
    times = [(first, gauge())]
    for _ in range(IMPORTS - 1):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"benchmark: a fresh interpreter could not import litclust: {done.stderr.strip()}")
        took, gauge_s = done.stdout.split()
        times.append((float(took), float(gauge_s)))
    return times


def environment(seed: int) -> dict:
    import ctypes
    import glob

    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }
    # numpy wheels bundle OpenBLAS; ask the loaded library directly.
    libs = sorted(glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")))
    if libs:
        lib = ctypes.CDLL(libs[0])
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    threads.restype = ctypes.c_int
                    env["openblas"] = config().decode()
                    env["blas_threads"] = threads()
                    return env
    env["openblas"] = "unknown"
    env["blas_threads"] = "unknown"
    return env


def gauge() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(GAUGE_LOOP):
        total += i
    return time.perf_counter() - start


def scaled(wall: float, gauge_s: float) -> float:
    """``wall`` seconds as they would read on a machine whose gauge takes ``GAUGE_REF_S``."""
    return wall * GAUGE_REF_S / gauge_s


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s"
    return f"max {max(samples):.4f} s (n={n}: no percentile has ten samples beyond it)"


class Run:
    """State of one benchmark process: inputs, reference outputs, tallies."""

    def __init__(self, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.ctx = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None
        self.v_measure: float | None = None
        self.gauges: list[float] = []

    def set_up(self) -> list[tuple[float, float]]:
        """Generate and write the inputs ``SETUPS`` times; (seconds, gauge seconds) of each."""
        from workloads import Context

        times, digests = [], []
        for _ in range(SETUPS):
            start = time.perf_counter()
            dictionary = corpusgen.make_dictionary(self.seed, self.workload.shape)
            records = corpusgen.make_corpus(self.seed, self.workload.shape, dictionary)
            inputs = corpusgen.write_inputs(self.workdir / "inputs", records, dictionary, xml=self.workload.xml)
            times.append((time.perf_counter() - start, gauge()))
            digests.append(
                [checks.digest(p.read_bytes()) for p in (inputs.jsonl, inputs.xml, inputs.dictionary) if p is not None]
            )
        if any(d != digests[0] for d in digests):
            sys.exit("benchmark: input generation is not deterministic for a fixed seed")
        self.ctx = Context(inputs=inputs, records=records, workdir=self.workdir)
        return times

    def repetition(self, tracer=None) -> float | None:
        """One timed repetition, traced if a tracer is given, then its untimed checks.

        Returns the wall seconds, or None if it raised.
        The first repetition's outputs become the reference, and only
        they get the workload's deep ``verify``; every later repetition
        must be byte-identical to them.
        """
        self.workload.prepare(self.ctx)
        # Leave no garbage of the previous repetition to be collected in this one.
        gc.collect()
        self.attempted += self.workload.operations
        if tracer is not None:
            tracer.install()
        try:
            start = time.perf_counter()
            result = self.workload.run(self.ctx)
            wall = time.perf_counter() - start
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failures.append(f"{self.workload.name} raised")
            self.failed += self.workload.operations
            return None
        finally:
            if tracer is not None:
                tracer.uninstall()
        outcome = self.workload.check(self.ctx, result)
        self.attempted += outcome.operations - self.workload.operations
        failures = outcome.failures
        if self.reference is None:
            self.reference = outcome.digests
            self.v_measure = outcome.v_measure
            failures = failures + self.workload.verify(self.ctx, result)
        failures = failures + checks.check_identical(self.reference, outcome.digests)
        self.failures += failures
        self.failed += min(len(failures), outcome.operations)
        if tracer is not None:
            for name, value in outcome.counts.items():
                tracer.add(name, value)
        return wall

    def measure(self, seconds: float, tracer=None) -> list[tuple[float, bool]]:
        """Repetitions back to back until the next would overrun ``seconds``.

        Returns (wall, traced) per successful repetition.  With a
        tracer every second repetition is traced, so that traced and
        untraced ones sample the same phases of the machine.  The gauge
        runs after each repetition, outside its wall time.
        """
        samples: list[tuple[float, bool]] = []
        start = time.perf_counter()
        done = 0
        while True:
            traced = tracer is not None and done % 2 == 1
            if traced:
                tracer.rep = done
            wall = self.repetition(tracer if traced else None)
            self.gauges.append(gauge())
            done += 1
            if wall is not None:
                samples.append((wall, traced))
            elapsed = time.perf_counter() - start
            if done >= MIN_REPS and elapsed * (done + 1) / done > seconds:
                return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_litclust()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    imports = import_times(time.perf_counter() - PROCESS_START)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=ROOT / ".bench_work"))
    try:
        run = Run(workload, args.seed, workdir)
        generations = run.set_up()
        setup_raw = statistics.median(t for t, _ in imports) + statistics.median(t for t, _ in generations)
        setup_gauge = statistics.median(g for _, g in imports + generations)

        # Warm-up: untimed, traced only to record the matrix shapes.
        shapes = spans.Tracer()
        run.repetition(shapes)

        if run.v_measure is None:
            sys.exit("benchmark: the warm-up repetition failed")
        record = {"workload": workload.name, "params": workload.params, "shape": workload.shape.describe(),
                  "environment": environment(args.seed), "matrices": shapes.shapes,
                  "import_samples_s": imports, "generation_samples_s": generations}
        if args.trace:
            spans_path = ROOT / ".bench_out" / f"spans-{workload.name}-{args.seed}.jsonl"
            metrics, lines = traced_run(run, args.seconds, record, spans_path)
        else:
            metrics, lines = untraced_run(run, args.seconds, setup_raw, setup_gauge, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record["gauge_samples_s"] = run.gauges
    lines.append(f"gauge_s: median {statistics.median(run.gauges):.4f} s of a fixed loop "
                 f"(n={len(run.gauges)}, one after each repetition)")
    failed = run.failed
    for message in sorted(set(run.failures)):
        print(f"FAILED: {message}", file=sys.stderr)
    print(f"workload {workload.name}, seed {args.seed}")
    for line in lines:
        print(line)
    print(f"error_ratio: {failed}/{run.attempted} = {failed / run.attempted:.4g} (n={run.attempted} operations)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def untraced_run(run: Run, seconds: float, setup_raw: float, setup_gauge: float, record: dict):
    timed = run.measure(seconds)
    if not timed:
        sys.exit("benchmark: no repetition succeeded")
    samples = [wall for wall, _ in timed]
    record["wall_samples_s"] = samples
    wall_gauge = statistics.median(run.gauges)
    wall_ref_s = scaled(statistics.median(samples), wall_gauge)
    setup_s = scaled(setup_raw, setup_gauge)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "wall_ref_s": (wall_ref_s, "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "v_measure": (run.v_measure, "1"),
    }
    lines = [
        f"wall_ref_s: {wall_ref_s:.4f} s (median wall_s times {GAUGE_REF_S} s over the median gauge_s "
        f"{wall_gauge:.4f} s; n={len(samples)} repetitions)",
        f"wall_s: median {statistics.median(samples):.4f} s, {tail(samples)} (n={len(samples)} repetitions, unscaled)",
        f"setup_s: {setup_s:.4f} s (median of n={IMPORTS} imports plus median of n={SETUPS} input generations, "
        f"{setup_raw:.4f} s unscaled, times {GAUGE_REF_S} s over the median gauge {setup_gauge:.4f} s after them)",
        f"peak_rss_mb: {peak_rss_mb:.1f} MB (n=1, ru_maxrss of this process)",
        f"v_measure: {run.v_measure:.6f} (n={len(samples)} repetitions, all identical)",
    ]
    return metrics, lines


def traced_run(run: Run, seconds: float, record: dict, spans_path: Path):
    tracer = spans.Tracer()
    timed = run.measure(seconds, tracer)
    untraced = [wall for wall, traced in timed if not traced]
    traced = [wall for wall, traced in timed if traced]
    if not untraced or not traced:
        sys.exit("benchmark: no repetition succeeded")
    record["wall_samples_s"] = {"untraced": untraced, "traced": traced}
    reps = sorted({s.rep for s in tracer.spans})
    layer = spans.layer_metrics(tracer.spans, tracer.counts, reps)
    layer["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)

    spans_path.parent.mkdir(exist_ok=True)
    with spans_path.open("w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps([span.name, span.start, span.end, span.parent, span.rep]) + "\n")

    metrics = {name: (layer[name], unit) for name, unit, _ in spans.PER_LAYER}
    lines = [f"{name}: {value:.6g} {unit} (per repetition, n={len(reps)} traced repetitions)"
             for name, (value, unit) in metrics.items()]
    lines.append(f"untraced wall_s median {statistics.median(untraced):.4f} s (n={len(untraced)})")
    return metrics, lines


if __name__ == "__main__":
    sys.exit(main())
