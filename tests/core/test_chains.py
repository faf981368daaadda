"""Chained schedule templates: correctness under churn and eviction.

The transition tables are a pure fast path — on any (hit, miss,
install, eviction) interleaving the simulation outputs must be
bit-identical to the keyed path and the per-slot reference path.
These tests randomize the machine shape to vary segment timings (and
therefore which chain edges form), force template-store eviction to
exercise the generation invalidation, and pin the stale-edge guarantee
directly.
"""

import random
from dataclasses import replace

import pytest

from helpers import result_digest

from repro.common.params import CacheParams, default_machine
from repro.core import backend as backend_mod
from repro.core.backend import TemplateStore, shared_schedule_templates
from repro.experiments.configs import build_processor
from repro.isa.workloads import prepare_program, ref_trace_seed


@pytest.fixture(scope="module")
def gzip_small():
    return prepare_program("gzip", optimized=True, scale=0.35)


def _build(program, arch, width, machine=None):
    return build_processor(
        arch, program, width,
        benchmark="gzip", optimized=True,
        trace_seed=ref_trace_seed("gzip"),
        machine=machine,
    )


def _run(program, arch, width, machine=None, n=5000, warmup=1000,
         reference=False, chains=True):
    """``reference=True`` runs the per-slot reference dispatch;
    ``chains=False`` switches the transition follow off."""
    processor = _build(program, arch, width, machine=machine)
    processor.backend.chains_enabled = chains
    return processor.run(n, warmup=warmup, _reference_dispatch=reference)


def _random_machine(rng, width):
    """A legal random variation of the Table 2 machine.

    Varies what the chain layer is sensitive to: dispatch gaps (core
    depths), commit pressure (ROB size), and D-side latencies / miss
    mix (cache sizes and latencies), which drive the probe levels and
    the deep completion deltas.
    """
    base = default_machine(width)
    core = replace(
        base.core,
        dispatch_depth=rng.choice((4, 8, 12)),
        decode_depth=rng.choice((2, 3, 5)),
        rob_size=rng.choice((8, 16, 24)) * width,
        ftq_entries=rng.choice((2, 4, 8)),
    )
    memory = replace(
        base.memory,
        dl1=CacheParams(
            size_bytes=rng.choice((16, 64)) * 1024, assoc=2, line_bytes=64,
        ),
        l2_latency=rng.choice((9, 15, 21)),
        memory_latency=rng.choice((60, 100, 140)),
    )
    return replace(base, core=core, memory=memory)


class TestRandomizedChainParity:
    """Segment path vs per-slot reference x chains on/off over
    randomized machine shapes."""

    @pytest.mark.parametrize("width", [2, 4, 8])
    @pytest.mark.parametrize("seed", [11, 23])
    def test_modes_and_chain_states_agree(self, gzip_small, width, seed):
        rng = random.Random(1000 * width + seed)
        machine = _random_machine(rng, width)
        arch = rng.choice(("ev8", "ftb", "stream", "trace"))
        digests = {}
        for chains in (True, False):
            for reference in (False, True):
                result = _run(gzip_small, arch, width, machine=machine,
                              reference=reference, chains=chains)
                digests[(chains, reference)] = result_digest(result)
                if not chains:
                    assert result.extras["chain_hits"] == 0
        reference = digests[(True, False)]
        for key, digest in digests.items():
            assert digest == reference, f"divergence at {key}"

    def test_chain_hits_actually_happen(self, gzip_small):
        """The parity above must not pass vacuously: on the default
        machine the chained path carries the bulk of the segments."""
        result = _run(gzip_small, "ev8", 8, n=20_000, warmup=0)
        result = _run(gzip_small, "ev8", 8, n=20_000, warmup=0)
        assert result.extras["segments"] > 1000
        assert result.extras["chain_hit_rate"] > 0.8


class TestForcedEviction:
    """Generation invalidation under template-store churn."""

    def test_results_identical_under_eviction_churn(self, gzip_small,
                                                    monkeypatch):
        reference = result_digest(
            _run(gzip_small, "stream", 8, n=8000, reference=True)
        )
        # A tiny cache limit forces the shared store to clear every few
        # recordings — every chain edge repeatedly goes stale mid-run.
        monkeypatch.setattr(backend_mod, "_TPL_CACHE_LIMIT", 8)
        churned = _run(gzip_small, "stream", 8, n=8000)
        assert result_digest(churned) == reference

    def test_stale_edge_never_replays_freed_template(self, gzip_small):
        """After an eviction the chain must reject every stale edge:
        the hit counter pauses, and the re-grown store contains only
        current-generation templates and edges."""
        processor = _build(gzip_small, "ev8", 8)
        backend = processor.backend
        store = backend._templates
        processor.run(4000)
        hits_before = backend.chain_hits
        assert hits_before > 0  # chains were active
        stale = [tpl for tpl in store.values() if tpl[8]]
        assert stale, "no transition edges were installed"
        generation_before = store.generation

        # Force the eviction the cache-limit path would perform.
        store.clear()
        assert store.generation == generation_before + 1

        # The scheduler still holds the stale previous template; its
        # first segment after the eviction must not chain-hit.
        processor.run(1)
        assert backend.chain_hits == hits_before

        # Continue through re-recording: every template and every edge
        # successor in the re-grown store carries the new generation —
        # no edge can reach a freed (old-generation) template.
        processor.run(4000)
        assert backend.chain_hits > hits_before  # chains re-armed
        for tpl in store.values():
            assert tpl[7] == store.generation
            for rec in tpl[8].values():
                if rec.__class__ is tuple:  # fast edge: the successor
                    assert rec[7] == store.generation
                    continue
                for _k0, lvl_map in rec[5].values():
                    for successor in lvl_map.values():
                        assert successor[7] == store.generation

    def test_edge_installation_is_bounded(self, gzip_small):
        processor = _build(gzip_small, "trace", 8)
        processor.run(30_000)
        for tpl in processor.backend._templates.values():
            assert len(tpl[8]) <= backend_mod._CHAIN_EDGE_LIMIT
            for rec in tpl[8].values():
                if rec.__class__ is tuple:  # fast edge: bound is trivial
                    continue
                assert len(rec[5]) <= backend_mod._CHAIN_DEEP_LIMIT
                for _k0, lvl_map in rec[5].values():
                    assert len(lvl_map) <= backend_mod._CHAIN_LVL_LIMIT


class TestTemplateStore:
    def test_clear_bumps_generation(self):
        store = TemplateStore()
        assert store.generation == 0
        store["k"] = "v"
        store.clear()
        assert store.generation == 1
        assert not store

    def test_shared_store_is_generation_aware(self, gzip_small):
        store = shared_schedule_templates(gzip_small, 8, (0, 14, 114))
        assert isinstance(store, TemplateStore)


class TestExtras:
    def test_extras_report_chain_rate(self, gzip_small):
        result = _run(gzip_small, "ftb", 8, n=4000)
        x = result.extras
        assert set(x) == {"segments", "chain_hits", "chain_hit_rate"}
        assert x["segments"] > 0
        assert 0.0 <= x["chain_hit_rate"] <= 1.0

    def test_extras_never_break_equality(self, gzip_small):
        a = _run(gzip_small, "ftb", 8, n=3000)
        b = _run(gzip_small, "ftb", 8, n=3000, reference=True)
        # The per-slot reference schedules no segments, so its
        # diagnostics differ; dataclass equality excludes them.
        assert a.extras != b.extras
        assert a == b

    def test_extras_stripped_from_stored_artifacts(self, gzip_small):
        from repro.store import serialize

        result = _run(gzip_small, "ftb", 8, n=3000)
        assert result.extras
        decoded = serialize.load_result(serialize.dump_result(result))
        assert decoded.extras == {}
        assert result_digest(decoded) == result_digest(result)
