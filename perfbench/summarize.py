"""Runs the benchmark over several seeds and summarises every metric.

    python3 perfbench/summarize.py --seeds 1-10 --traced-seeds 1-3 \
        --label <commit> --out perfbench/baseline.json

It makes one untraced run per seed in `--seeds` and one traced run per
seed in `--traced-seeds` of each workload, one run at a time, and
records each metric's values with their median, quartiles and spread
(quartile distance over median, quartiles as `statistics.quantiles`
gives them).  A run that fails or mismatches the reference stops it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import WORKLOAD_NAMES

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int,
             trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True,
                          text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        sys.exit(f"{' '.join(cmd)} failed (exit {proc.returncode}):\n"
                 f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    header = next(line for line in lines if line.startswith("run: "))
    return json.loads(header.removeprefix("run: ")), result


def summary(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOAD_NAMES))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--traced-seeds", default="1-3")
    parser.add_argument("--seconds", type=int, default=json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--label", required=True,
                        help="what was measured, e.g. a commit id")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    workloads = args.workloads.split(",")
    # values[workload][trace][metric]: one value per seed.
    values = {w: {0: {}, 1: {}} for w in workloads}
    report = {"label": args.label, "seconds": args.seconds, "workloads": {}}
    for trace, seeds in ((0, args.seeds), (1, args.traced_seeds)):
        # Workloads alternate seed by seed, so that a slow spell of the
        # host falls on all of them.
        for seed in seed_range(seeds):
            for workload in workloads:
                header, result = run_once(workload, seed, args.seconds, trace)
                report["machine"] = header["machine"]
                for name, m in result["metrics"].items():
                    values[workload][trace].setdefault(name, []).append(
                        m["value"])
                print(workload, "trace", trace, "seed", seed, flush=True)
    for workload in workloads:
        report["workloads"][workload] = {
            key: {name: summary(v)
                  for name, v in values[workload][trace].items()}
            for key, trace in (("end_to_end", 0), ("per_layer", 1))}
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
