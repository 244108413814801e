"""Rewrite pins.json: the reference digest of every entry on the default seed.

    python3 perfbench/pin.py

run.py compares each operation's output on the default seed with these
digests.  Re-pin only when a workload's definition changes, and only on a
commit whose outputs are the accepted reference: any other change of a pin
is a change of a plan, report or grounding byte.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402
from workloads import DEFAULT_SEED, TASKS, WORKLOADS, set_up  # noqa: E402


def main() -> int:
    pins = {}
    for name, workload in WORKLOADS.items():
        work = ROOT / ".perfbench" / f"pin-{name}"
        try:
            suites, _, _ = set_up(workload, DEFAULT_SEED, work)
            outcomes = TASKS[workload.task][0](workload, suites, 0, Tracer(), False)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        errors = {op: o.error for op, o in outcomes.items() if o.error is not None}
        if errors:
            print(f"error: {name} raised: {errors}", file=sys.stderr)
            return 1
        pins[name] = {op: o.digest for op, o in outcomes.items()}
    path = Path(__file__).parent / "pins.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, pins.values()))} digests to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
