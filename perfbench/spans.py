"""Span recording for the traced benchmark run, and the arithmetic on spans.

The traced run installs wrappers (see :func:`install`) around public
functions of each ``repro`` layer before the CLI's ``main`` runs.  Each
wrapper records one span -- name, start, end, parent span, attributes --
in a per-process, in-memory list.  Nothing is written while the program
runs: the list goes to ``<trace dir>/spans-<pid>.json`` when the process
ends (the CLI and the daemon when their entry point returns, a forked
pool worker when its loop returns).

Spans that belong to one matrix cell carry that cell's result
fingerprint in the ``cell`` attribute, in every process that touched
the cell: the client, its pool workers, the serve daemon's workers.

This module imports no ``repro`` code at import time, so its arithmetic
(:func:`union_length`, :func:`self_times`) is usable without the
package.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Where the launcher's processes write their span files (not a
#: ``REPRO_*`` name: the benchmark strips those to keep runs hermetic).
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"

_spans: List[dict] = []
_counts: Dict[str, float] = {}
_marks: Dict[str, float] = {}
_ids = itertools.count(1)
_local = threading.local()
#: This process's role, the fingerprint of the cell it is running, and
#: the scale of the running ``run_matrix`` (None outside one).
_state: Dict[str, Any] = {"role": "cli", "cell": None, "scale": None}


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
def _stack() -> List[int]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


class span:
    """Context manager recording one span; ``attrs`` may grow inside."""

    __slots__ = ("name", "attrs", "sid", "parent", "start")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "span":
        stack = _stack()
        self.sid = next(_ids)
        self.parent = stack[-1] if stack else None
        if _state["cell"] is not None:
            self.attrs.setdefault("cell", _state["cell"])
        stack.append(self.sid)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        _stack().pop()
        _spans.append({"id": self.sid, "parent": self.parent,
                       "name": self.name, "start": self.start, "end": end,
                       "attrs": self.attrs})


def count(name: str, n: float = 1) -> None:
    _counts[name] = _counts.get(name, 0) + n


def mark(name: str) -> None:
    """Remember the first time ``name`` happened in this process."""
    _marks.setdefault(name, time.time())


def reset(role: str) -> None:
    """Forget everything inherited across a fork; become ``role``."""
    _spans.clear()
    _counts.clear()
    _marks.clear()
    _local.stack = []
    _state["role"] = role
    _state["cell"] = None


def flush(directory: str) -> str:
    """Write this process's spans to ``directory``; returns the path."""
    path = os.path.join(directory, f"spans-{os.getpid()}.json")
    with open(path, "w") as fh:
        json.dump({"pid": os.getpid(), "role": _state["role"],
                   "spans": _spans, "counts": _counts, "marks": _marks},
                  fh)
    return path


def load(directory: str) -> List[dict]:
    """Every span file of one traced sample."""
    out = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(directory, name)) as fh:
                out.append(json.load(fh))
    return out


# ----------------------------------------------------------------------
# arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[dict]) -> Dict[int, float]:
    """Span id -> duration minus the part its children cover.

    Children are clipped to their parent's interval, so a child that
    outlives its parent (it cannot, single-threaded, but a clock read
    could round) never makes self time negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None:
            children.setdefault(parent["id"], []).append(
                (max(s["start"], parent["start"]),
                 min(s["end"], parent["end"])))
    return {
        s["id"]: (s["end"] - s["start"])
        - union_length(children.get(s["id"], ()))
        for s in spans
    }


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _replace_everywhere(orig: Callable, new: Callable) -> None:
    """Point every loaded ``repro`` module's name for ``orig`` at ``new``.

    Modules import many functions by name (``from ... import f``), so
    patching only the defining module would miss those call sites.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or
                                  name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is orig:
                setattr(module, attr, new)


def _timed(name: str, fn: Callable,
           before: Optional[Callable] = None,
           after: Optional[Callable] = None) -> Callable:
    """Wrap ``fn`` in a span; ``before(args)`` returns extra state that
    ``after(sp, args, result, state)`` may turn into attributes."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        state = before(args) if before is not None else None
        with span(name) as sp:
            result = fn(*args, **kwargs)
            if after is not None:
                after(sp, args, result, state)
        return result

    return wrapper


def _patch_method(cls: type, attr: str, name: str, **hooks: Any) -> None:
    setattr(cls, attr, _timed(name, getattr(cls, attr), **hooks))


def _patch_function(module: Any, attr: str, name: str, **hooks: Any) -> None:
    orig = getattr(module, attr)
    _replace_everywhere(orig, _timed(name, orig, **hooks))


def install(trace_dir: str, role: str) -> None:
    """Wrap each layer's entry points; ``role`` names this process."""
    # Import every layer first, so the by-name rebinding below sees
    # each module that imported a wrapped function.
    import repro.accel as accel
    import repro.cluster.pool as cluster_pool
    import repro.exec.pool as exec_pool
    import repro.experiments.cli  # noqa: F401 - binds names to rebind
    import repro.experiments.configs as configs
    import repro.experiments.figures as figures
    import repro.experiments.runner as runner
    import repro.isa.workloads as workloads
    import repro.serve.scheduler  # noqa: F401 - binds names to rebind
    import repro.serve.server  # noqa: F401
    from repro.core import backend
    from repro.core.processor import Processor
    from repro.isa.trace import TraceRecord
    from repro.store.cache import ArtifactCache
    from repro.store.store import ArtifactStore

    reset(role)
    # The originals, taken before the experiments layer is wrapped, so
    # naming a cell never records a fingerprint span of its own.
    fingerprints = runner.cell_fingerprints
    program_fingerprint = runner.program_fingerprint

    def fingerprint(spec, instructions, warmup, scale, program_key):
        if not program_key:
            program_key = program_fingerprint(spec.benchmark,
                                              spec.optimized, scale)
        fps = {(spec.benchmark, spec.optimized): program_key}
        return fingerprints([spec], instructions, warmup, scale,
                            program_fps=fps)[spec]

    # -- core ----------------------------------------------------------
    def run_before(args):
        tpl = args[0].backend._templates
        return len(tpl), getattr(tpl, "generation", 0)

    def run_after(sp, args, result, state):
        proc, tpl = args[0], args[0].backend._templates
        size0, gen0 = state
        size1, gen1 = len(tpl), getattr(tpl, "generation", 0)
        evictions = gen1 - gen0
        # An eviction clears the store once it holds one entry over the
        # limit, so each eviction dropped that many recorded templates.
        recorded = size1 - size0 + evictions * (backend._TPL_CACHE_LIMIT + 1)
        extras = result.extras or {}
        sp.attrs.update(
            benchmark=proc.benchmark, arch=proc.engine.name,
            scheduled=args[1] if len(args) > 1 else 0,
            segments=extras.get("segments", 0),
            chain_hits=extras.get("chain_hits", 0),
            templates_recorded=recorded, template_evictions=evictions,
        )

    _patch_method(Processor, "run", "core.run",
                  before=run_before, after=run_after)
    _patch_function(configs, "build_processor", "core.build",
                    after=lambda sp, args, result, state: sp.attrs.update(
                        arch=args[0], benchmark=result.benchmark))
    accel.compiled_run = _timed("accel.bind", accel.compiled_run)

    # -- isa -----------------------------------------------------------
    _patch_function(workloads, "prepare_program", "isa.link",
                    after=lambda sp, args, result, state:
                    sp.attrs.update(benchmark=args[0]))

    def walk_before(args):
        return len(args[0].blocks)

    _patch_method(TraceRecord, "extend", "isa.trace_walk",
                  before=walk_before,
                  after=lambda sp, args, result, n0: sp.attrs.update(
                      blocks=len(args[0].blocks) - n0))

    # -- store ---------------------------------------------------------
    _patch_method(ArtifactCache, "result", "store.result_get",
                  after=lambda sp, args, result, state: sp.attrs.update(
                      hit=result is not None))
    _patch_method(ArtifactCache, "program", "store.program_get")
    _patch_method(ArtifactCache, "load_trace", "store.trace_load")
    _patch_method(ArtifactCache, "put_result", "store.result_put")
    _patch_method(ArtifactCache, "put_result_bytes", "store.result_put")
    _patch_method(ArtifactCache, "save_traces", "store.trace_save")
    store_put = ArtifactStore.put

    @functools.wraps(store_put)
    def counted_put(self, kind, fp, data, *args, **kwargs):
        count("store.bytes_written", len(data))
        return store_put(self, kind, fp, data, *args, **kwargs)

    ArtifactStore.put = counted_put

    # -- exec ----------------------------------------------------------
    worker_main = exec_pool._pool_worker_main

    @functools.wraps(worker_main)
    def traced_worker_main(*args: Any, **kwargs: Any) -> None:
        reset(_state["role"] + ".worker")
        try:
            with span("exec.worker"):
                worker_main(*args, **kwargs)
        finally:
            flush(trace_dir)

    exec_pool._pool_worker_main = traced_worker_main
    _patch_method(exec_pool.ForkServerPool, "_spawn", "exec.pool_start")
    next_action = exec_pool.Pool._next_action

    @functools.wraps(next_action)
    def counted_next_action(self, job, message):
        action, delay = next_action(self, job, message)
        count("exec.failed" if action == "fail" else "exec.retries")
        return action, delay

    exec_pool.Pool._next_action = counted_next_action

    cell_worker = runner._run_cell_worker

    @functools.wraps(cell_worker)
    def traced_cell_worker(spec, instructions, warmup, scale,
                           program_key=None, *rest: Any) -> Any:
        _state["cell"] = fingerprint(spec, instructions, warmup, scale,
                                     program_key)
        try:
            with span("exec.cell", benchmark=spec.benchmark):
                return cell_worker(spec, instructions, warmup, scale,
                                   program_key, *rest)
        finally:
            _state["cell"] = None

    _replace_everywhere(cell_worker, traced_cell_worker)

    run_cell = runner._run_cell

    @functools.wraps(run_cell)
    def traced_run_cell(program, benchmark, optimized, width, arch,
                        instructions, warmup, *rest: Any, **kw: Any) -> Any:
        own = _state["cell"] is None and _state["scale"] is not None
        if own:  # the serial path: no worker wrapper named the cell
            spec = runner.RunSpec(arch, benchmark, width, optimized)
            _state["cell"] = fingerprint(spec, instructions, warmup,
                                         _state["scale"], None)
        try:
            return run_cell(program, benchmark, optimized, width, arch,
                            instructions, warmup, *rest, **kw)
        finally:
            if own:
                _state["cell"] = None

    _replace_everywhere(run_cell, traced_run_cell)

    # -- cluster -------------------------------------------------------
    request_cell = cluster_pool.ClusterPool._request_cell

    @functools.wraps(request_cell)
    def traced_request_cell(self, generation, node, job):
        spec, instructions, warmup, scale, program_key = job.args[:5]
        with span("cluster.request", node=node.address,
                  cell=fingerprint(spec, instructions, warmup, scale,
                                   program_key)):
            return request_cell(self, generation, node, job)

    cluster_pool.ClusterPool._request_cell = traced_request_cell
    cluster_run = cluster_pool.ClusterPool.run

    @functools.wraps(cluster_run)
    def counted_cluster_run(self, *args: Any, **kwargs: Any) -> Any:
        before = self.redispatches
        try:
            return cluster_run(self, *args, **kwargs)
        finally:
            count("cluster.redispatches", self.redispatches - before)

    cluster_pool.ClusterPool.run = counted_cluster_run

    # -- experiments ---------------------------------------------------
    run_matrix = runner.run_matrix

    @functools.wraps(run_matrix)
    def traced_run_matrix(*args: Any, **kwargs: Any) -> Any:
        _state["scale"] = kwargs.get("scale", 1.0)
        try:
            with span("experiments.run_matrix"):
                return run_matrix(*args, **kwargs)
        finally:
            _state["scale"] = None

    _replace_everywhere(run_matrix, traced_run_matrix)
    _patch_function(runner, "cell_fingerprints", "experiments.fingerprint")
    _patch_function(runner, "program_fingerprints",
                    "experiments.fingerprint")
    for attr in ("figure8_text", "figure9_text"):
        _patch_function(figures, attr, "experiments.render")
    add = runner.RunMatrixResult.add

    @functools.wraps(add)
    def marked_add(self, *args: Any, **kwargs: Any) -> None:
        mark("first_cell")
        return add(self, *args, **kwargs)

    runner.RunMatrixResult.add = marked_add


def run_traced(role: str, entry: Callable[[], int]) -> int:
    """Run ``entry`` with spans on; write them out however it ends."""
    trace_dir = os.environ[TRACE_DIR_ENV]
    install(trace_dir, role)
    mark("main")
    try:
        with span(role + ".main"):
            return entry()
    finally:
        flush(trace_dir)
