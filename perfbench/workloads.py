"""The benchmark's workloads: their inputs, one timed pass, and the check.

A workload is set up once per process (`setup`), then runs passes over
its inputs.  Every output a pass produces is compared with the reference
captured in `perfbench/reference/`; any difference is a mismatch.

- `sweep-q2-len3`: a pass sweeps the catalog over F_2 (max_len 3,
  n_max 3), small enough that a run has room for many passes, with one
  timed `sweep_catalog` call per algebra.  It leaves out the algebra
  qiii.2, whose four length-3 rows take about 23 s each.
- `homext-pairs`: `hom_dim` then `ext1_dim` on ordered pairs of q = 2
  string modules of length <= 4 from one catalog algebra.  The seed
  shuffles the pool; each pass takes the next WINDOW pairs, so no pair
  repeats before the pool is used up.  WINDOW leaves at least ten of a
  pass's pairs beyond its p99.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

# Called through the package namespace, so that the tracer's wrappers,
# rebound there, see the benchmark's own calls.
import gentledef as gd

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

EXCLUDED_ALGEBRAS = ("qiii.2",)
PAIRS_MAX_LEN = 4
WINDOW = 1200


class ReferenceMismatch(Exception):
    """An output differs from the reference captured for the workload."""


def _plain(obj):
    """JSON round trip, so tuples and lists compare equal to the file."""
    return json.loads(json.dumps(obj))


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


def time_pairs(pairs) -> tuple[list[list[int]], list[float]]:
    """Hom then Ext^1 on each (m, n); returns outputs and seconds per pair.

    A pair that raises is recorded with output None.
    """
    outputs, latencies = [], []
    clock = time.perf_counter
    for m, n in pairs:
        start = clock()
        try:
            out = [gd.hom_dim(m, n), gd.ext1_dim(m, n)]
        except Exception as err:  # a failed pair is counted, not fatal
            out = None
            print(f"pair failed: {type(err).__name__}: {err}")
        latencies.append(clock() - start)
        outputs.append(out)
    return outputs, latencies


class PairPool:
    """Every ordered pair (V, W) of string modules of one catalog algebra.

    A pick is (algebra index, index of V, index of W); the reference holds
    each algebra's words and the (hom, ext) of its pairs, row by row.
    """

    def __init__(self, catalog, max_len: int, q: int):
        self.algebras = []
        self.pool = []
        for name, p in catalog:
            words = gd.enumerate_strings(p, max_len)
            a = len(self.algebras)
            self.algebras.append(
                {"name": name, "words": [w.display() for w in words],
                 "modules": [gd.string_module(p, w, q) for w in words]})
            self.pool.extend((a, i, j) for i in range(len(words))
                             for j in range(len(words)))

    def time(self, picks) -> dict:
        outputs, latencies = time_pairs(
            [(self.algebras[a]["modules"][i], self.algebras[a]["modules"][j])
             for a, i, j in picks])
        return {"picks": picks, "outputs": outputs, "latencies": latencies}

    def capture(self) -> dict:
        out = []
        for alg in self.algebras:
            mods = alg["modules"]
            outputs, _ = time_pairs([(m, n) for m in mods for n in mods])
            out.append({"name": alg["name"], "words": alg["words"],
                        "hom_ext": outputs})
        return {"algebras": out}

    def check_words(self, ref: dict) -> None:
        got = [(a["name"], a["words"]) for a in self.algebras]
        want = [(a["name"], a["words"]) for a in ref["algebras"]]
        if got != want:
            raise ReferenceMismatch("pair pool words differ from the reference")

    @staticmethod
    def check(ref: dict, out: dict) -> None:
        problems = []
        for (a, i, j), got in zip(out["picks"], out["outputs"]):
            alg = ref["algebras"][a]
            want = alg["hom_ext"][i * len(alg["words"]) + j]
            if got != want:
                problems.append(f"{alg['name']} ({alg['words'][i]}, "
                                f"{alg['words'][j]}): got {got}, "
                                f"reference {want}")
        if problems:
            raise ReferenceMismatch("; ".join(problems[:5]))


class SweepWorkload:
    """One catalog sweep per pass, timed one algebra at a time."""

    def __init__(self, name: str, q: int, max_len: int, n_max: int = 3):
        self.name, self.q, self.max_len, self.n_max = name, q, max_len, n_max

    def setup(self, seed: int) -> None:
        # The sweeps take fixed inputs, so the seed is not used.
        self.names = [n for n, _ in gd.table1_catalog()
                      if n not in EXCLUDED_ALGEBRAS]

    def run_pass(self) -> dict:
        """One `sweep_catalog` call per algebra, each timed.

        The rows and internal errors are gathered into one report, which
        equals that of a single call over all the algebras.
        """
        report = gd.SweepReport(q=self.q, max_len=self.max_len,
                                n_max=self.n_max)
        parts = []
        for name in self.names:
            start = time.perf_counter()
            part = gd.sweep_catalog(q=self.q, max_len=self.max_len,
                                    n_max=self.n_max, names=[name])
            parts.append(time.perf_counter() - start)
            report.rows.extend(part.rows)
            report.internal_errors.extend(part.internal_errors)
        return {"report": _plain(report.as_dict()), "parts": parts}

    def capture(self) -> dict:
        """Today's outputs, in the form the checks below read."""
        return {"workload": self.name, "q": self.q, "max_len": self.max_len,
                "n_max": self.n_max, "names": self.names,
                "report": self.run_pass()["report"]}

    def check_inputs(self, ref: dict) -> None:
        if self.names != ref["names"]:
            raise ReferenceMismatch(
                f"swept algebras {self.names}, reference {ref['names']}")

    def check_pass(self, ref: dict, out: dict) -> None:
        want, out = ref["report"], out["report"]
        if out == want:
            return
        problems = []
        rows, want_rows = out.get("rows", []), want.get("rows", [])
        if len(rows) != len(want_rows):
            problems.append(f"{len(rows)} rows, reference has {len(want_rows)}")
        for got, exp in zip(rows, want_rows):
            if got != exp:
                problems.append(f"row {exp['algebra']} {exp['word']}: "
                                f"got {got}, reference {exp}")
        for key in want:
            if key != "rows" and out.get(key) != want[key]:
                problems.append(f"{key}: got {out.get(key)}, "
                                f"reference {want[key]}")
        raise ReferenceMismatch("; ".join(problems[:5]))

    def failures(self, out: dict) -> int:
        """Rows that hit a budget plus internal cross-engine errors."""
        report = out["report"]
        return (sum(1 for r in report["rows"] if r["error"] is not None)
                + len(report["internal_errors"]))

    def operations(self, out: dict) -> int:
        return len(out["report"]["rows"])


class PairsWorkload:
    """WINDOW distinct Hom/Ext pairs per pass, from a seeded stream."""

    name = "homext-pairs"
    q = 2

    def setup(self, seed: int) -> None:
        catalog = gd.table1_catalog()
        self.pairs = PairPool(catalog, PAIRS_MAX_LEN, self.q)
        self.rng = random.Random(seed)
        self._order: list[int] = []

    def sample(self, count: int) -> list[tuple[int, int, int]]:
        """The next `count` pairs of the seeded stream over the pool."""
        pool = self.pairs.pool
        while len(self._order) < count:
            perm = list(range(len(pool)))
            self.rng.shuffle(perm)
            self._order.extend(perm)
        chosen, self._order = self._order[:count], self._order[count:]
        return [pool[k] for k in chosen]

    def run_pass(self) -> dict:
        return self.pairs.time(self.sample(WINDOW))

    def capture(self) -> dict:
        return {"workload": self.name, "q": self.q, "max_len": PAIRS_MAX_LEN,
                "pairs": self.pairs.capture()}

    def check_inputs(self, ref: dict) -> None:
        self.pairs.check_words(ref["pairs"])

    def check_pass(self, ref: dict, out: dict) -> None:
        PairPool.check(ref["pairs"], out)

    def failures(self, out: dict) -> int:
        return sum(1 for o in out["outputs"] if o is None)

    def operations(self, out: dict) -> int:
        return len(out["outputs"])


WORKLOADS = {
    "sweep-q2-len3": lambda: SweepWorkload("sweep-q2-len3", q=2, max_len=3),
    "homext-pairs": PairsWorkload,
}
