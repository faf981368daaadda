#!/usr/bin/env python3
"""Regenerate ``digests.json``, the outputs every benchmark run checks.

    python3 perfbench/make_digests.py

Simulates every SPEC benchmark once per sweep (fig8 and fig9, at the
benchmark's cell sizes) into a scratch store under ``.perfbench_work/``,
records a digest of each cell's progress line, then replays each
benchmark list a run can pass (every class pick, every order) from that
store and records a digest of the rendered figure.  A changed digest
means the simulated model changed; regenerate only for a change that
means to do that.
"""

from __future__ import annotations

import itertools
import json
import sys
import time

import run


def main() -> int:
    work = run.Work("digests", time.monotonic() + 3600.0)
    out = {}
    try:
        run.prime(work)
        every = [b for members in run.CLASSES.values() for b in members]
        for sweep, spec in run.SWEEPS.items():
            store = work.fresh(sweep)
            args = list(spec["args"])
            if "--jobs" not in args:
                args += ["--jobs", "2"]  # results are identical to serial
            done = run.run_process(run.cli(sweep, "--benchmarks", *every,
                                           *args, "--store", store), work)
            if done.rc != 0:
                print(done.stderr[-2000:], file=sys.stderr)
                return 1
            cells = {key: cell["digest"] for key, cell
                     in sorted(run.parse_cells(done.stderr).items())}
            texts = {}
            picks = itertools.product(
                *(run.CLASSES[cls] for cls in spec["classes"]))
            for chosen in picks:
                for order in itertools.permutations(chosen):
                    replay = run.run_process(
                        run.cli(sweep, "--benchmarks", *order,
                                *spec["args"], "--store", store,
                                "--quiet"), work)
                    if replay.rc != 0:
                        print(replay.stderr[-2000:], file=sys.stderr)
                        return 1
                    texts[",".join(order)] = run.digest(replay.stdout)
            out[sweep] = {"cells": cells, "text": texts}
            print(f"{sweep}: {len(cells)} cells, {len(texts)} figures",
                  file=sys.stderr)
    finally:
        work.close()
    with open(run.DIGESTS, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
