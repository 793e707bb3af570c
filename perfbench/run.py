"""Benchmark of gentledef: a catalog sweep and a Hom/Ext pair stream.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics of one traced set-up and pass (see `perfbench/README.md`).
Every output is checked against `perfbench/reference/`; the last line of
standard output is one JSON object, and the exit code is 1 on any
mismatch.  Everything runs in this one single-threaded process, apart
from the short-lived set-up probes behind `setup_s`, which run one at a
time between passes.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported anywhere in this process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_PROBES = 20
WORKLOAD_NAMES = ("sweep-q2-len3", "homext-pairs")

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "pair_p50_ms": "ms",
             "pair_p99_ms": "ms", "peak_rss_mb": "MB"}


def _import_package():
    """Imports gentledef from this checkout's src/, or exits with an error."""
    if not (SRC / "gentledef" / "__init__.py").is_file():
        sys.exit(f"error: no gentledef package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gentledef
    if not Path(gentledef.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: gentledef imported from {gentledef.__file__}, "
                 f"not from {SRC}")


def machine_facts() -> dict:
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its set-up being done.

    The probe is a child process that imports the package and runs the
    workload's set-up, then reports ready; it is waited for.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           workload, "--seed", str(seed), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=120)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def tail(latencies: list[float]) -> tuple[float, float]:
    """p50 and p99 of a list of latencies."""
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[49], cuts[98]


class Run:
    """Counts operations and failures and collects reference mismatches."""

    def __init__(self, workload, reference):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def timed_pass(self) -> tuple[float, dict]:
        from workloads import ReferenceMismatch
        start = time.perf_counter()
        out = self.workload.run_pass()
        wall = time.perf_counter() - start
        try:
            self.workload.check_pass(self.reference, out)
        except ReferenceMismatch as err:
            self.mismatches.append(str(err))
        self.attempted += self.workload.operations(out)
        self.failed += self.workload.failures(out)
        return wall, out


def run_untraced(run: Run, seed: int, seconds: float) -> dict:
    """Passes until `seconds` is up, with set-up probes spread among them.

    At least one pass runs, and no pass starts that would likely end
    after `seconds`.  Probe k runs before the first pass that starts
    k * seconds / SETUP_PROBES or later into the run; probes still due
    when the passes end run then.  Peak memory is read after the first
    pass, so it does not depend on the pass count.
    """
    from workloads import PairsWorkload
    wl = run.workload
    start = time.perf_counter()
    deadline = start + seconds
    setups, passes, outs = [], [], []
    while not passes or time.perf_counter() + statistics.median(passes) \
            <= deadline:
        due = (time.perf_counter() - start) * SETUP_PROBES / seconds
        if len(setups) < min(SETUP_PROBES, due + 1):
            setups.append(probe_setup(wl.name, seed))
        wall, out = run.timed_pass()
        passes.append(wall)
        outs.append(out["latencies"] if isinstance(wl, PairsWorkload)
                    else out["parts"])
        if len(passes) == 1:
            peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(wl.name, seed))
    print(f"passes: {len(passes)}, pass seconds: "
          f"{[round(w, 4) for w in passes]}")
    print(f"set-up probe seconds: {[round(t, 4) for t in setups]}")
    # Readings at their fastest in the run, as timeit does: on a shared
    # host, slower readings are mostly other tenants' load, not this
    # program.
    if isinstance(wl, PairsWorkload):
        # Percentiles of each pass's pairs.  The p50 is the smallest over
        # the passes.  A pass's p99 is already a tail, and its smallest
        # reading is set by the rare pass whose tail was short, so the
        # p99 is the median over the passes.
        windows = [tail(lat) for lat in outs]
        print("pass p50/p99 ms: "
              f"{[(round(1e3 * a, 4), round(1e3 * b, 4)) for a, b in windows]}")
        p50 = min(p for p, _ in windows)
        p99 = statistics.median(p for _, p in windows)
    else:
        # Percentiles over the algebras' sweep calls, each call at its
        # fastest.
        p50, p99 = tail([min(part) for part in zip(*outs)])
    metrics = {"setup_s": min(setups), "wall_s": min(passes),
               "pair_p50_ms": 1e3 * p50, "pair_p99_ms": 1e3 * p99,
               "peak_rss_mb": peak_rss_mb}
    return {name: {"value": metrics[name], "unit": unit}
            for name, unit in E2E_UNITS.items()}


def run_traced(run: Run, seed: int, header: dict) -> dict:
    """Per-layer metrics of one traced set-up and pass, and the overhead.

    A warm-up pass runs untraced first.  The wrappers are removed again
    before this returns.  `trace.overhead_s` is the traced pass's span
    count times the cost of one span: the difference between the traced
    and an untraced pass is below the host's noise.
    """
    from spans import RUN, Tracer, layer_metrics, layer_unit, span_cost
    from workloads import WORKLOADS
    wl = run.workload
    run.timed_pass()
    tracer = Tracer()
    with tracer.installed():
        tracer.run_id = "setup"
        WORKLOADS[wl.name]().setup(seed)
        tracer.run_id = "pass"
        traced, _ = run.timed_pass()
    pass_spans = sum(1 for s in tracer.spans if s[RUN] == "pass")
    cost = span_cost()
    print(f"traced pass {traced:.4f} s, {pass_spans} spans, "
          f"{1e6 * cost:.3f} us a span")
    metrics = layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = pass_spans * cost
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace-{wl.name}.jsonl.gz", header)
    return {name: {"value": value, "unit": layer_unit(name)}
            for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run the set-up, print 'ready' and exit "
                             "(the probe behind setup_s)")
    args = parser.parse_args(argv)

    _import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS, ReferenceMismatch, load_reference

    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    header = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_facts()}
    print("run: " + json.dumps(header))
    run = Run(wl, load_reference(args.workload))
    metrics: dict = {}
    try:
        wl.check_inputs(run.reference)
        if args.trace:
            metrics = run_traced(run, args.seed, header)
        else:
            metrics = run_untraced(run, args.seed, args.seconds)
    except ReferenceMismatch as err:
        run.mismatches.append(str(err))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    failed_frac = run.failed / run.attempted if run.attempted else 0.0
    print(f"failed_frac {failed_frac:.6g} ({run.failed} of {run.attempted})")
    for problem in run.mismatches:
        print(f"reference mismatch: {problem}")
    correct = not run.mismatches
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
