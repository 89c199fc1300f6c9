"""Record bench/reference.json: the default-seed values every later run of
that seed is compared with.

    python3 bench/record_reference.py

Runs the first inputs of seed 0 of het_layer and hopf_cli and writes their
solved values (c_curve is held to bench/c_curve_speeds.json instead; see
record_speeds.py).  Re-record only when a change is meant to move the
numbers, and say so with the change.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import HERE, run_child  # noqa: E402

#: Solves recorded per workload (about ten seconds of work each).
COUNTS = {"het_layer": 8, "hopf_cli": 16}


def main() -> int:
    reference = {}
    for workload, count in COUNTS.items():
        res = run_child([os.path.join(HERE, "child.py"), "--workload",
                         workload, "--seed", "0", "--record", "1", "--count",
                         str(count)])
        errors = [s["error"] for s in res["solves"] if s["error"]]
        if errors or res["problems"]:
            print(f"{workload}: {errors + res['problems']}", file=sys.stderr)
            return 1
        entry = {"seed": 0, "values": [s["value"] for s in res["solves"]]}
        reference[workload] = entry
        print(f"{workload}: {len(entry['values'])} solves recorded")
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(f" {json.dumps(name)}: {json.dumps(entry)}"
                                     for name, entry in reference.items())
                 + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
