"""Model invariants over random machine shapes (hypothesis).

Every result, whatever the pipe width, window, depths and memory
latencies, must respect the machine's bandwidth: no more than
``width`` instructions commit per cycle, and no more than ``width``
instructions, correct-path and wrong-path together, are fetched per
cycle.  ``fetched_instructions`` counts correct-path work only (see
``SimulationResult.fetch_ipc``), so it equals the scheduled count.

Warmup subtraction is consistent: no counter goes negative once the
warm snapshot is subtracted, and the measured instruction count misses
``N - warmup`` by less than one fetch bundle.  (It may exceed it: the
snapshot and the stop are both taken at bundle boundaries.)
"""

from dataclasses import fields, replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.params import CacheParams, default_machine
from repro.experiments.configs import build_processor
from repro.isa.workloads import prepare_program, ref_trace_seed

_BENCHMARKS = ("gzip", "twolf")


@pytest.fixture(scope="module")
def programs():
    return {name: prepare_program(name, optimized=True, scale=0.3)
            for name in _BENCHMARKS}


@st.composite
def machines(draw):
    width = draw(st.sampled_from((1, 2, 4, 8, 16)))
    base = default_machine(width)
    core = replace(
        base.core,
        dispatch_depth=draw(st.integers(2, 14)),
        decode_depth=draw(st.integers(1, 6)),
        rob_size=draw(st.integers(2, 32)) * width,
        ftq_entries=draw(st.sampled_from((1, 2, 4, 8))),
    )
    memory = replace(
        base.memory,
        dl1=CacheParams(size_bytes=draw(st.sampled_from((8, 16, 64))) * 1024,
                        assoc=2, line_bytes=64),
        l2_latency=draw(st.integers(5, 30)),
        memory_latency=draw(st.integers(40, 160)),
    )
    return replace(base, core=core, memory=memory)


@settings(max_examples=12, deadline=None)
@given(machine=machines(),
       arch=st.sampled_from(("ev8", "ftb", "stream", "trace")),
       benchmark=st.sampled_from(_BENCHMARKS),
       warmup=st.sampled_from((0, 500, 2000)))
def test_bandwidth_invariants(programs, machine, arch, benchmark, warmup):
    width = machine.core.width
    result = build_processor(
        arch, programs[benchmark], width, benchmark=benchmark,
        optimized=True, trace_seed=ref_trace_seed(benchmark),
        machine=machine,
    ).run(2500, warmup=warmup)
    assert result.cycles > 0
    assert result.instructions <= width * result.cycles
    assert result.fetched_instructions == result.instructions
    fetched = result.fetched_instructions + result.wrong_path_instructions
    assert fetched <= width * result.cycles
    for f in fields(result):
        value = getattr(result, f.name)
        if type(value) is int:
            assert value >= 0, (f.name, value)
    assert abs(result.instructions - (2500 - warmup)) < width
