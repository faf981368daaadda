"""Shape tests against the paper's headline claims (scaled-down runs).

These use one small benchmark and modest instruction counts, so they
check *orderings and directions*, not the exact percentages of the
paper.  The exact values are pinned elsewhere: ``tests/golden/golden.json``
holds per-cell digests and IPC / mispredict / fetch-IPC figures for a
small matrix, and ``perfbench/digests.json`` holds digests of the
benchmark's fig8/fig9 outputs.
"""

import pytest

from repro.experiments.configs import simulate
from repro.isa.workloads import prepare_program

SCALE = 0.4
N = 40_000
WARMUP = 15_000


@pytest.fixture(scope="module")
def results():
    out = {}
    for optimized in (False, True):
        program = prepare_program("gzip", optimized=optimized, scale=SCALE)
        for arch in ("ev8", "ftb", "stream", "trace"):
            out[(arch, optimized)] = simulate(
                arch, "gzip", width=8, optimized=optimized,
                instructions=N, warmup=WARMUP, scale=SCALE, program=program,
            )
    return out


class TestTable3Shape:
    def test_trace_cache_widest_on_base_layout(self, results):
        """Table 3: with unoptimized code (short sequential runs), only
        the trace cache fetches past taken branches — it must dominate
        the sequential engines decisively."""
        trace = results[("trace", False)].fetch_ipc
        for arch in ("ev8", "ftb", "stream"):
            assert trace > results[(arch, False)].fetch_ipc * 1.1

    def test_trace_cache_competitive_on_optimized(self, results):
        """Optimized streams grow past the 16-instruction trace cap, so
        the gap closes; the trace cache stays near the top."""
        best = max(r.fetch_ipc for r in results.values())
        assert results[("trace", True)].fetch_ipc > best * 0.9

    def test_stream_fetch_at_least_ev8(self, results):
        """Table 3: streams fetch wider than the EV8 on optimized code."""
        assert (results[("stream", True)].fetch_ipc
                >= results[("ev8", True)].fetch_ipc * 0.95)

    def test_mispredictions_reasonable(self, results):
        for (arch, optimized), r in results.items():
            assert r.branch_misprediction_rate < 0.15


class TestFigure8Shape:
    def test_all_ipcs_in_plausible_band(self, results):
        for r in results.values():
            assert 0.5 < r.ipc < 8.0

    def test_stream_beats_ev8_optimized(self, results):
        """The paper's headline: streams >= EV8 with optimized layouts."""
        assert (results[("stream", True)].ipc
                >= results[("ev8", True)].ipc * 0.97)

    def test_stream_close_to_trace_cache(self, results):
        """Streams within a few percent of the trace cache."""
        stream = results[("stream", True)].ipc
        trace = results[("trace", True)].ipc
        assert stream >= trace * 0.9


class TestLayoutEffect:
    def test_optimization_helps_stream_fetch_width(self, results):
        assert (results[("stream", True)].fetch_ipc
                > results[("stream", False)].fetch_ipc)

    def test_optimization_never_catastrophic(self, results):
        for arch in ("ev8", "ftb", "stream", "trace"):
            opt = results[(arch, True)].ipc
            base = results[(arch, False)].ipc
            assert opt > base * 0.85
