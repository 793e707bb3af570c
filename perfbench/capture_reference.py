"""Writes each workload's reference outputs to perfbench/reference/.

    python3 perfbench/capture_reference.py [WORKLOAD ...]

The references record what the program computes at the commit where
they were captured, findings included (the worked example's b*c*a and
a*d*b stay undetermined with census (1, 4, 12)).  They are never edited
toward the published table; recapture only when a change is meant to
alter an output, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from workloads import REFERENCE_DIR, WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    for name in argv or list(WORKLOADS):
        wl = WORKLOADS[name]()
        wl.setup(seed=0)
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(wl.capture(), separators=(",", ":")) + "\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
