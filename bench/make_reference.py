"""Regenerate ``bench/reference.json`` from the program in this checkout.

    python3 bench/make_reference.py

Runs every op of every workload's base instances once and stores the
summaries of their outputs (see ``checks.summarize``).  Rerun it only when
a change to the program is meant to change its outputs, and say so in the
change.
"""

import json
import sys

import run
from checks import read_manifest, summarize
from workloads import WORKLOADS, generate

REFERENCE_SEED = 0


def main():
    run.require_checkout()
    work = run.WORK / "reference"
    logs = run.WORK / "logs"
    logs.mkdir(parents=True, exist_ok=True)
    references = {}
    for workload in sorted(WORKLOADS):
        for inst in generate(workload, REFERENCE_SEED, work):
            for op in inst.ops:
                child = run.spawn(["-m", "beliefdyn.cli", *run.cli_argv(op)],
                                  logs / "reference.log")
                if child.exit_code != 0:
                    sys.exit(f"{workload} {inst.name}/{op.name} exited {child.exit_code}")
                summary = summarize(op.out, read_manifest(op.out, op.name), inst.perm)
                references.setdefault(workload, {}).setdefault(inst.name, {})[op.name] = summary
                print(f"{workload} {inst.name}/{op.name}: {child.wall_s:.2f} s")
    (run.BENCH / "reference.json").write_text(
        json.dumps(references, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
