"""Regenerate perfbench/reference.json: the expected digest of every job.

    PYTHONPATH=src python3 perfbench/make_reference.py WORKLOAD [FIRST_SEED LAST_SEED]

Runs one round of WORKLOAD for every seed in the range (default 0..63)
and merges the job digests into reference.json.  Run it only when a change
is meant to alter results, and name that change in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from tracing import TRACER

PATH = Path(__file__).resolve().parent / "reference.json"


def main(argv: list[str]) -> int:
    workload = argv[0]
    first, last = (int(argv[1]), int(argv[2])) if len(argv) > 2 else (0, 63)
    TRACER.install_capture()
    table = {}
    for seed in range(first, last + 1):
        digests = []
        for job in workloads.build(workload, seed):
            parts, _ = job.finish(job.call())
            digests.append(workloads.digest(parts))
        table[str(seed)] = digests
        print(workload, seed, flush=True)
    refs = json.loads(PATH.read_text()) if PATH.exists() else {}
    refs.setdefault(workload, {}).update(table)
    PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
