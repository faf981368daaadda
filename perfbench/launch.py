"""Start the experiments CLI or the serve daemon with layer spans on.

    python perfbench/launch.py cli fig8 --benchmarks gzip ...
    python perfbench/launch.py serve --port 0 --workers 2 ...

``$PERFBENCH_TRACE_DIR`` names the directory the span files go to.  The
wrappers are installed before the entry point's ``main`` runs; see
:mod:`spans`.
"""

from __future__ import annotations

import sys

import spans


def main(argv: list) -> int:
    kind, rest = argv[0], argv[1:]
    if kind == "cli":
        from repro.experiments.cli import main as entry
    elif kind == "serve":
        from repro.serve.__main__ import main as entry
    else:
        raise SystemExit(f"launch.py: unknown entry point {kind!r}")
    return spans.run_traced(kind, lambda: entry(rest))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
