#!/usr/bin/env python3
"""Regenerate ``golden.json``, the absolute pin on simulator results.

    PYTHONPATH=src python tests/golden/make_golden.py

Simulates a small matrix -- gzip and twolf, both layouts, widths 2 and
8, all four fetch engines -- and writes, per cell, the sha256 of the
result's canonical encoding plus a readable IPC / mispredict-rate /
fetch-IPC summary.  ``test_golden.py`` recomputes the matrix and
compares.  Every other bit-identity check in the suite is relative
(serial == parallel, cold == warm); this one fails when a change shared
by every path moves a result.  Regenerate only for a change that means
to alter the model, and name that change in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys
from typing import Dict

from repro.common.canonical import canonical
from repro.core.results import SimulationResult
from repro.experiments.runner import run_matrix

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden.json")

BENCHMARKS = ("gzip", "twolf")
WIDTHS = (2, 8)
LAYOUTS = (False, True)
INSTRUCTIONS = 4000
SCALE = 0.4


def result_digest(result: SimulationResult) -> str:
    """sha256 of the canonical JSON encoding of ``result``.

    ``extras`` holds run diagnostics, not simulated outputs; like the
    artifact store, the digest leaves them out.
    """
    blob = json.dumps(canonical(dataclasses.replace(result, extras={})),
                      sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def compute() -> Dict[str, dict]:
    """Cell key -> digest and summary, for the golden matrix."""
    matrix = run_matrix(BENCHMARKS, widths=WIDTHS, layouts=LAYOUTS,
                        instructions=INSTRUCTIONS, scale=SCALE)
    cells = {}
    for spec, result in matrix.results.items():
        key = (f"{spec.benchmark}/{'opt' if spec.optimized else 'base'}"
               f"/w{spec.width}/{spec.arch}")
        cells[key] = {
            "sha256": result_digest(result),
            "ipc": round(result.ipc, 4),
            "fetch_ipc": round(result.fetch_ipc, 4),
            "mispredict_rate": round(result.branch_misprediction_rate, 4),
        }
    return dict(sorted(cells.items()))


def main() -> int:
    golden = {
        "matrix": {"benchmarks": list(BENCHMARKS), "widths": list(WIDTHS),
                   "layouts": ["base", "opt"],
                   "instructions": INSTRUCTIONS, "scale": SCALE},
        "cells": compute(),
    }
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden['cells'])} cells to {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
