"""The schedule-template store's memory contract.

Two properties keep a large cold run cheap without changing a result:
the store holds one shared copy of every recurring template piece
(interning), and Python's cyclic collector stays out of the run (the
run pauses it and restores the caller's state on every exit path; the
fork pool's side is in ``tests/exec/test_pool.py``).
"""

import gc

import pytest

from repro.experiments.configs import build_processor
from repro.isa.workloads import prepare_program, ref_trace_seed


@pytest.fixture(scope="module")
def gzip_small():
    return prepare_program("gzip", optimized=True, scale=0.35)


def _build(program, arch="ev8", width=8):
    return build_processor(
        arch, program, width, benchmark="gzip", optimized=True,
        trace_seed=ref_trace_seed("gzip"),
    )


@pytest.fixture
def gc_state():
    """Restore the collector's state whatever a test leaves behind."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestGcPause:
    def test_enabled_after_normal_run(self, gzip_small, gc_state):
        gc.enable()
        processor = _build(gzip_small)
        seen = []
        cycle = processor.engine.cycle

        def spy(now):
            seen.append(gc.isenabled())
            return cycle(now)

        processor.engine.cycle = spy
        processor.run(2000)
        assert seen and not any(seen)  # paused inside the loop
        assert gc.isenabled()

    def test_enabled_after_run_raises_mid_loop(self, gzip_small, gc_state):
        gc.enable()
        processor = _build(gzip_small)
        cycle = processor.engine.cycle
        calls = []

        def failing(now):
            calls.append(now)
            if len(calls) > 50:
                raise RuntimeError("injected engine failure")
            return cycle(now)

        processor.engine.cycle = failing
        with pytest.raises(RuntimeError, match="injected engine failure"):
            processor.run(5000)
        assert gc.isenabled()

    def test_stays_disabled_when_caller_disabled(self, gzip_small,
                                                 gc_state):
        gc.disable()
        _build(gzip_small).run(2000)
        assert not gc.isenabled()


class TestInterning:
    def test_equal_pieces_are_one_object(self, gzip_small):
        processor = _build(gzip_small)
        processor.run(20_000, warmup=0)
        store = processor.backend._templates
        assert len(store) > 100

        pieces = {"completes": {}, "tail": {}, "bookings": {}, "pair": {}}
        counts = {name: 0 for name in pieces}

        def check(name, value):
            counts[name] += 1
            first = pieces[name].setdefault(value, value)
            assert first is value, f"equal {name} stored twice: {value!r}"

        for tpl in store.values():
            check("completes", tpl[0])
            for name, occupancy in (("tail", tpl[3]), ("bookings", tpl[5])):
                check(name, occupancy)
                for pair in occupancy:
                    check("pair", pair)
            for rec in tpl[8].values():
                if rec.__class__ is list:  # general edge: its entry tail
                    check("tail", rec[3])
                    for pair in rec[3]:
                        check("pair", pair)
        # Not vacuous: the run recorded many more pieces than values.
        for name, values in pieces.items():
            assert len(values) < counts[name], name

        # Eviction drops the shared pieces with the templates.
        assert store.interned
        store.clear()
        assert not store.interned
