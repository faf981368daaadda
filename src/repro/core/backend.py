"""A limited-window dataflow back-end model.

The paper's evaluation needs a back-end that (a) consumes at most
``width`` instructions per cycle, (b) exposes real dependence-limited
ILP so the 2-wide machine is back-end-bound while the 8-wide machine is
fetch-bound, and (c) resolves branches at a realistic depth so
misprediction penalties scale with pipeline length.  This model provides
exactly that:

* every instruction carries synthetic (class, latency, dependence
  distance) metadata generated deterministically per static slot;
* an instruction issues at the earliest cycle >= max(dispatch, source
  readiness) with a free issue slot (``width`` slots per cycle);
* loads probe the simulated L1D/L2 and extend their latency on misses;
* commit is in-order, ``width`` per cycle — the commit time feeds the
  ROB-occupancy gate that stalls fetch when the window fills.

The model is evaluated incrementally at dispatch time: because issue and
commit times depend only on *older* instructions, each instruction's
timing is final the moment it enters — which is what lets the processor
know a branch's resolution cycle as soon as it is fetched.

Block-batched scheduling
------------------------

The processor dispatches whole straight-line *segments* (a run of slots
inside one linear block, all sharing a dispatch cycle) through the
backend's **segment scheduler**.  Because the per-slot metadata is
static, the schedule of a segment is a pure function of the *relative
entry state*: the completion times of the (few) older instructions its
dependences reach, the issue-slot occupancy at cycles the segment can
still touch, the commit-chain position, and — for loads — which level of
the data hierarchy each access hit.  The scheduler normalizes that
state relative to the dispatch cycle, memoizes the resulting *schedule
template* (per-slot completion deltas plus the exit state), and replays
it on every recurrence; the D-cache is still probed per memory access
(those probes are stateful), and any entry state outside the template
preconditions falls back to a per-slot loop with identical semantics.

Chained templates
-----------------

Deciding *which* template comes next used to be the steady-state cost:
packing the relative entry-state key, hashing it and probing the shared
template dict for every ~4-instruction segment.  Every template
therefore carries a **transition table**: after it replays, the next
segment probes ``(successor segment, dispatch gap)`` and — through a
deep-completion-delta profile and a load-level map when the segment has
such inputs, directly otherwise — reaches the successor template with
no key build, no hash and no template-dict probe.  Edges are installed
by the keyed path (bounded per template), dispatch gaps past a
template's precomputed ``g_big`` threshold share one bucket edge (the
entry state is provably identical), and eviction is generation-exact:
clearing the store bumps its generation and every stale edge is
rejected before it can replay a freed template.  The follow is a pure
shortcut — both paths are bit-exact — and ``$REPRO_CHAINS`` switches it
off for A/B measurement.

The scheduler is implemented as a *persistent generator* so all of its
mutable state lives in one frame's locals for the lifetime of a run —
the Python-level equivalent of keeping the machine state in registers —
instead of being re-read from the object per call.  The attribute view
(``_count``, ``_last_commit``, ...) is refreshed by :meth:`_sync`,
which the canonical :meth:`dispatch` entry point and the public
inspection properties call automatically.  Either path produces
bit-identical timings to calling :meth:`dispatch` once per instruction
— ``tests/core/test_backend.py`` pins that parity.
"""

from __future__ import annotations

import weakref
from typing import Dict, Optional, Tuple

from repro.common.params import MachineParams
from repro.common.types import InstrClass
from repro.isa.program import InstrMeta, LinearBlock, segment_plan
from repro.memory.hierarchy import MemoryHierarchy

#: Ring size for completion-time lookback; must exceed the largest
#: dependence distance the metadata generator emits (64).
_RING = 128

# Plain-int class codes: metadata carries ints, and IntEnum equality is
# several times slower than int equality on the per-instruction path.
_LOAD = int(InstrClass.LOAD)
_STORE = int(InstrClass.STORE)

#: Issue-occupancy ring size (slots, power of two).  The ring covers the
#: window of cycles a dispatch can still probe; cycles that would alias a
#: still-live entry spill into a dict (rare — it takes a dependence chain
#: booking issue slots ``_IU_SIZE`` cycles ahead).
_IU_SIZE = 8192
_IU_MASK = _IU_SIZE - 1

#: Occupancy-table compaction: when more than ``_IU_LIMIT`` distinct
#: issue cycles are tracked, entries older than ``issue - _IU_LAG`` are
#: dropped and the issue floor advances.  These values are semantics
#: (the floor clamps future issue searches), not just tuning: they must
#: match the seed model exactly.
_IU_LIMIT = 4096
_IU_LAG = 256

#: Template preconditions: relative entry-state components larger than
#: these fall back to the slow path rather than polluting the template
#: cache with one-off keys.  They gate only *which* path schedules a
#: segment — both paths are bit-exact — so they are cache tuning, not
#: semantics.  The delta bound covers an L2+memory round trip (115
#: cycles): a draining load-miss backlog used to push the commit-chain
#: delta past the old 64-cycle bound and strand whole phases on the
#: per-slot path.
_TPL_MAX_DELTA = 512
#: Radix for packing per-offset completion deltas into the key; must
#: exceed ``_TPL_MAX_DELTA``.
_TPL_K_RADIX = _TPL_MAX_DELTA + 1
#: Occupancy-tail bounds: at most this many distinct booked cycles...
_TPL_MAX_TAIL = 96
#: ...each at most this far past the dispatch cycle (packing radix 512).
#: The delta bound covers an L2+memory round trip, and the length/
#: re-arm window covers the distinct issue cycles such a backlog books:
#: memory-bound phases (twolf) used to fall off the template path for
#: whole stall windows, which also severed the chained-template path
#: at every per-slot blip.
_TPL_MAX_TAIL_DELTA = 511
#: Template-store capacity backstop.  All engines over one (image,
#: width, latencies) share a store, and the widened tail/delta bounds
#: let memory-bound workloads (twolf) legitimately populate tens of
#: thousands of templates per engine — a cap the old 64k limit could
#: hit mid-matrix, wiping every template *and* every chained transition
#: edge for all sharers at once.  The limit is a runaway backstop, not
#: a working-set bound.
_TPL_CACHE_LIMIT = 1 << 18

#: Chained-template bounds.  A transition edge is keyed on
#: ``(successor block addr * 4096 + skey) * 512 + gap`` — injective
#: while ``skey < 4096`` (segment start below 128 slots) and the
#: dispatch-cycle gap is at most ``_CHAIN_G_MAX`` — plus the *far
#: bucket*: every gap at or past the predecessor template's ``g_big``
#: threshold (precomputed at recording time) leaves a provably
#: identical relative entry state (empty occupancy tail, saturated
#: commit delta, fully-drained shallow completions), so all such gaps
#: share one bucket edge keyed with gap ``_CHAIN_G_BUCKET``.  Segments
#: outside those bounds simply stay on the keyed path.
_CHAIN_G_MAX = 255
_CHAIN_G_BUCKET = 256
_CHAIN_SKEY_MAX = 4096
#: At most this many transition edges per template (successor segment x
#: gap variants); megamorphic successors stop installing.
_CHAIN_EDGE_LIMIT = 64
#: At most this many "deep" completion-delta profiles resolved per edge
#: (dependences reaching past the previous segment are computed at
#: probe time and select the profile, so variable backlogs chain too).
_CHAIN_DEEP_LIMIT = 16
#: At most this many distinct load-level vectors resolved per profile.
_CHAIN_LVL_LIMIT = 8

#: Environment switch for the chained-template fast path (diagnostics /
#: A-B measurement; results are bit-identical either way).
CHAINS_ENV = "REPRO_CHAINS"
_CHAINS_OFF_VALUES = frozenset({"0", "false", "no", "off"})


def chains_enabled_default() -> bool:
    """Whether schedule-template chaining is on (``$REPRO_CHAINS``)."""
    import os

    env = os.environ.get(CHAINS_ENV, "").strip().lower()
    return env not in _CHAINS_OFF_VALUES


class TemplateStore(dict):
    """A schedule-template dict with an eviction generation.

    Templates carry the store generation they were recorded under;
    :meth:`clear` (the eviction path when the store overflows
    ``_TPL_CACHE_LIMIT``) bumps the generation, which *exactly*
    invalidates every chained transition edge pointing at an evicted
    template — a chain follow re-validates ``template[7] ==
    store.generation`` before replaying, so a stale edge can never
    replay a freed template.
    """

    __slots__ = ("generation",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.generation = 0

    def clear(self) -> None:  # noqa: A003 - dict interface
        self.generation += 1
        super().clear()


#: Shared schedule-template stores, keyed weakly by program image and
#: then by the backend-relevant machine shape.  A template is a pure
#: function of (block metadata, segment span, relative entry state,
#: pipe width, D-cache latency levels) — nothing about the processor or
#: fetch engine instance — so every backend simulating the same image
#: under the same (width, latencies) can share one store: the second
#: (architecture, rep) over an image replays warm templates instead of
#: re-recording them.
_TEMPLATE_STORES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def shared_schedule_templates(program, width: int,
                              lvl_lat: Tuple[int, int, int]) -> dict:
    """The shared template dict for one (image, width, latencies)."""
    per_program = _TEMPLATE_STORES.get(program)
    if per_program is None:
        per_program = _TEMPLATE_STORES[program] = {}
    key = (width, lvl_lat)
    store = per_program.get(key)
    if store is None:
        store = per_program[key] = TemplateStore()
    return store


def _pack_tail(tail: Optional[tuple]) -> Optional[int]:
    """Prefix-coded int encoding of an occupancy tail, or None.

    The encoding is ``len``, then each ``(delta, n)`` pair in order —
    injective because the length prefix fixes the parse and each field
    is strictly bounded (``n`` is per-cycle issue usage, at most the
    machine width, and widths up to 16 are supported).  Tails that are
    unknown, too long, or out of those bounds encode as None (the
    template path skips them).
    """
    if tail is None or len(tail) > _TPL_MAX_TAIL:
        return None
    packed = len(tail)
    for dc, n in tail:
        if dc > _TPL_MAX_TAIL_DELTA or n > 16:
            return None
        packed = (packed * 512 + dc) * 17 + n
    return packed


class DataflowBackend:
    """Incremental timing model for the out-of-order core."""

    __slots__ = (
        "machine", "mem", "width", "_completions", "_count",
        "_issue_floor", "_last_commit",
        "_commits_in_cycle", "_load_counters",
        "load_accesses", "store_accesses",
        # Issue-occupancy table: stamped modulo ring + overflow dict.
        "_iu_vals", "_iu_stamps", "_iu_spill", "_iu_entries",
        # Block-batched scheduling state.
        "_templates", "_tail", "_tail_cycle", "_max_issue", "_lvl_lat",
        "_dl1_access", "_l2_access", "_sched", "_sched_send",
        # Chained-template state: the template replayed for the previous
        # segment (the transition-table source), whether chaining is on,
        # and the segment / chain-hit counters.
        "_chain_tpl", "chains_enabled", "seg_count", "chain_hits",
    )

    def __init__(self, machine: MachineParams, mem: MemoryHierarchy) -> None:
        self.machine = machine
        self.mem = mem
        self.width = machine.core.width
        self._completions = [0] * _RING
        self._count = 0
        self._issue_floor = 0
        self._last_commit = 0
        self._commits_in_cycle = 0
        self._load_counters: Dict[Tuple[int, int], int] = {}
        self.load_accesses = 0
        self.store_accesses = 0
        # Issue occupancy: cycle c lives at ring slot c & _IU_MASK when
        # the stamp matches; -1 stamps are free slots; aliasing cycles
        # live in the spill dict.  ``_iu_entries`` tracks the number of
        # distinct cycles exactly like ``len()`` of the dict it replaces,
        # so compaction triggers at identical moments.
        self._iu_vals = [0] * _IU_SIZE
        self._iu_stamps = [-1] * _IU_SIZE
        self._iu_spill: Dict[int, int] = {}
        self._iu_entries = 0
        # Schedule templates, keyed on (segment identity, relative entry
        # state); see the module docstring.
        self._templates: TemplateStore = TemplateStore()
        #: The template the previous segment resolved to, when its exit
        #: state is still the live entry state — the source whose
        #: transition table the next segment probes.  None whenever the
        #: chain is broken (per-slot fallback, canonical dispatch).
        self._chain_tpl = None
        self.chains_enabled = chains_enabled_default()
        #: Segments dispatched / segments resolved by a transition
        #: follow (no key build, no hash, no template-dict probe).
        self.seg_count = 0
        self.chain_hits = 0
        #: Exact issue occupancy at cycles > ``_tail_cycle`` as sorted
        #: (cycle - dispatch, count) pairs, or None when unknown.
        self._tail: Optional[tuple] = ()
        self._tail_cycle = 0
        #: Highest cycle any instruction has ever issued at.
        self._max_issue = 0
        hit = mem._dl1_hit
        l2 = mem._l2_lat
        self._lvl_lat = (hit - 1, hit + l2 - 1, hit + l2 + mem._mem_lat - 1)
        self._dl1_access = mem.dl1.access
        self._l2_access = mem.l2.access
        self._sched = None
        self._sched_send = None

    # ------------------------------------------------------------------
    # scheduler lifecycle
    # ------------------------------------------------------------------
    def scheduler_send(self):
        """The bound ``send`` of the persistent segment scheduler.

        The processor calls this once per run and then sends one
        ``(lb, start, count, dispatch_cycle)`` tuple per dispatched
        segment, receiving the terminal slot's ``(complete, commit)``.
        Sending ``None`` parks the scheduler: its frame-local state is
        published back to the backend's attributes (see :meth:`_sync`).
        """
        send = self._sched_send
        if send is None:
            self._sched = self._scheduler()
            next(self._sched)
            send = self._sched_send = self._sched.send
        return send

    def _sync(self) -> None:
        """Publish scheduler-local state back to the attribute view.

        Idempotent and cheap when the scheduler is already parked (or
        was never started); required before reading or mutating the
        scheduling state through the object (canonical :meth:`dispatch`,
        the inspection properties, tests poking at internals).
        """
        send = self._sched_send
        if send is not None:
            send(None)

    def dispatch_segment(
        self, lb: LinearBlock, start: int, count: int, dispatch_cycle: int
    ) -> Tuple[int, int]:
        """Schedule ``count`` slots of ``lb`` beginning at ``start``.

        All slots share ``dispatch_cycle`` (they were fetched in one
        bundle).  Returns the (complete, commit) cycles of the *last*
        slot — the only per-slot timings the processor consumes (branch
        resolution and block commit are terminal-slot properties).
        Equivalent to ``count`` calls of :meth:`dispatch`.
        """
        send = self._sched_send
        if send is None:
            send = self.scheduler_send()
        return send((lb, start, count, dispatch_cycle))

    # ------------------------------------------------------------------
    # issue-occupancy table helpers (the scheduler inlines these)
    # ------------------------------------------------------------------
    def _iu_get(self, cycle: int) -> int:
        if self._iu_stamps[cycle & _IU_MASK] == cycle:
            return self._iu_vals[cycle & _IU_MASK]
        if self._iu_spill:
            return self._iu_spill.get(cycle, 0)
        return 0

    def _iu_add(self, cycle: int, n: int) -> None:
        """Add ``n`` uses at ``cycle``; maintains the distinct-cycle count."""
        slot = cycle & _IU_MASK
        stamps = self._iu_stamps
        if stamps[slot] == cycle:
            self._iu_vals[slot] += n
            return
        spill = self._iu_spill
        if spill and cycle in spill:
            spill[cycle] += n
            return
        if stamps[slot] == -1:
            stamps[slot] = cycle
            self._iu_vals[slot] = n
        else:
            spill[cycle] = n
        self._iu_entries += 1

    def _iu_compact(self, issue: int) -> None:
        """Drop occupancy entries older than ``issue - _IU_LAG``.

        Mirrors the dict model exactly: entries below the raw floor are
        forgotten, the distinct-cycle count is recounted over the
        survivors, and the issue floor only ever advances.
        """
        floor = issue - _IU_LAG
        stamps = self._iu_stamps
        live = 0
        for slot in range(_IU_SIZE):
            stamp = stamps[slot]
            if stamp >= floor:
                live += 1
            elif stamp != -1:
                stamps[slot] = -1
        spill = self._iu_spill
        if spill:
            spill = {c: n for c, n in spill.items() if c >= floor}
            self._iu_spill = spill
        self._iu_entries = live + len(spill)
        if floor > self._issue_floor:
            self._issue_floor = floor

    # ------------------------------------------------------------------
    def dispatch(
        self, meta: InstrMeta, slot_key: Tuple[int, int], dispatch_cycle: int
    ) -> Tuple[int, int]:
        """Schedule one instruction; returns (complete, commit) cycles.

        This is the canonical dispatch model; the segment scheduler is
        the batched equivalent the processor uses, and
        ``tests/core/test_backend.py::TestDispatchProcessorParity``
        cross-checks the two over full simulations.
        """
        self._sync()
        # The per-instruction path leaves no template exit state behind:
        # the chain (like the occupancy tail below) is interrupted.
        self._chain_tpl = None
        cls, latency, d1, d2, mem_base, mem_stride, mem_span = meta
        completions = self._completions
        index = self._count
        ready = dispatch_cycle + 1
        if d1:
            dep = completions[(index - d1) % _RING]
            if dep > ready:
                ready = dep
        if d2:
            dep = completions[(index - d2) % _RING]
            if dep > ready:
                ready = dep

        # Issue-slot allocation: earliest cycle >= ready with spare
        # issue bandwidth.
        width = self.width
        floor = self._issue_floor
        issue = ready if ready > floor else floor
        while self._iu_get(issue) >= width:
            issue += 1
        self._iu_add(issue, 1)
        if issue > self._max_issue:
            self._max_issue = issue
        self._tail = None  # per-instruction path: occupancy tail unknown
        if self._iu_entries > _IU_LIMIT:
            self._iu_compact(issue)

        if cls == _LOAD:
            latency += self._memory_latency(slot_key, mem_base, mem_stride,
                                            mem_span, is_store=False)
            self.load_accesses += 1
        elif cls == _STORE:
            # Stores retire through the store buffer; the D-cache access
            # happens for its side effects but does not extend latency.
            self._memory_latency(slot_key, mem_base, mem_stride, mem_span,
                                 is_store=True)
            self.store_accesses += 1

        complete = issue + latency
        completions[index % _RING] = complete
        self._count = index + 1

        # Commit-slot allocation: in-order, at most ``width`` per cycle.
        earliest = complete + 1
        last = self._last_commit
        commit = earliest if earliest > last else last
        if commit == last:
            if self._commits_in_cycle >= width:
                commit += 1
                self._commits_in_cycle = 1
            else:
                self._commits_in_cycle += 1
        else:
            self._commits_in_cycle = 1
        self._last_commit = commit
        return complete, commit

    # ------------------------------------------------------------------
    def _scheduler(self):
        """Persistent batched segment scheduler (see module docstring).

        Protocol: ``send((lb, start, count, D))`` schedules one segment
        and yields its terminal ``(complete, commit)``; ``send(None)``
        parks the scheduler, publishing all frame-local state back to
        the backend attributes, and yields an acknowledgement.  On the
        next real send the state is re-hoisted from the attributes, so
        interleaving with the canonical per-instruction path stays
        coherent.

        Per segment the resolve order is: **transition follow** (the
        chained-template fast path — when the previous segment resolved
        to a template, its transition table maps ``(successor segment,
        dispatch gap)`` straight to the successor template: no key
        packing, no hash, no template-dict probe), then the **keyed
        path** (which installs the missing edge on success), then the
        **per-slot loop** (which breaks the chain).  All paths
        implement exactly the scheduling rules of :meth:`dispatch`; the
        parity test drives full simulations down every route.
        """
        width = self.width
        lvl0, lvl1, lvl2 = self._lvl_lat
        dl1 = self._dl1_access
        l2 = self._l2_access
        counters = self._load_counters
        completions = self._completions
        iu_vals = self._iu_vals
        iu_stamps = self._iu_stamps
        templates = self._templates
        counters_get = counters.get
        templates_get = templates.get
        chains_on = self.chains_enabled
        # Module-level constants and helpers as frame locals: these are
        # read once or more per segment.
        iu_mask = _IU_MASK
        iu_limit = _IU_LIMIT
        max_delta = _TPL_MAX_DELTA
        k_radix = _TPL_K_RADIX
        tail_dmax = _TPL_MAX_TAIL_DELTA
        cache_limit = _TPL_CACHE_LIMIT
        g_max = _CHAIN_G_MAX
        g_bucket = _CHAIN_G_BUCKET
        skey_max = _CHAIN_SKEY_MAX
        edge_limit = _CHAIN_EDGE_LIMIT
        deep_limit = _CHAIN_DEEP_LIMIT
        lvl_limit = _CHAIN_LVL_LIMIT
        make_plan = segment_plan

        result = None
        while True:
            args = yield result
            if args is None:
                result = None  # parked with nothing hoisted: plain ack
                continue
            # -- hoist the mutable scheduling state --------------------
            iu_spill = self._iu_spill
            entries = self._iu_entries
            floor = self._issue_floor
            cnt = self._count
            last = self._last_commit
            cic = self._commits_in_cycle
            max_issue = self._max_issue
            tail = self._tail
            tail_cycle = self._tail_cycle
            loads = self.load_accesses
            stores = self.store_accesses
            cur_tpl = self._chain_tpl
            segs = self.seg_count
            hits = self.chain_hits
            gen = templates.generation
            tail_k = _pack_tail(tail)

            while args is not None:
                lb, start, count, D = args
                segs += 1
                prev_tpl = cur_tpl
                cur_tpl = None
                skey = start * 32 + count
                tpl = None
                key = None
                levels = 0
                lvl_map = None
                edge_new = None
                edge_miss = False
                ek = 0

                # -- transition follow (chained templates) -------------
                # ``prev_tpl``'s exit state (written back as tail /
                # tail_cycle / completion-ring entries) is the live
                # entry state, so the successor key is a pure function
                # of (prev_tpl, successor segment, dispatch gap, the
                # "deep" completion deltas of dependences reaching past
                # the previous segment) — the edge resolves the deltas
                # through its per-profile map and the stateful D-cache
                # probe levels through the profile's per-level map.
                # Gaps at or past ``prev_tpl``'s precomputed ``g_big``
                # leave an identical entry state and share one bucket
                # edge.
                dmap_install = None
                if prev_tpl is not None and chains_on:
                    g = D - tail_cycle
                    if g >= prev_tpl[9]:
                        g = g_bucket
                    elif not 0 <= g <= g_max:
                        # Un-bucketed gaps own [0, g_max]; the bucket
                        # sentinel value itself is reserved, so a raw
                        # gap of exactly _CHAIN_G_BUCKET below g_big
                        # must NOT alias the bucket edge.
                        g = -1
                    if g >= 0 and skey < skey_max:
                        if floor <= D + 1 and entries + count <= iu_limit:
                            ek = (lb.addr * 4096 + skey) * 512 + g
                            rec = prev_tpl[8].get(ek)
                            if rec is None:
                                edge_miss = True
                            elif rec.__class__ is tuple:
                                # Fast edge (no memory plan, no deep
                                # reach): the value IS the successor
                                # template — one probe, one generation
                                # check, straight to replay.
                                if rec[7] == gen:
                                    tpl = rec
                                    hits += 1
                                    tail_cycle = D
                                else:
                                    edge_miss = True
                            else:
                                (deep_offs, mem_plan, lvl_span, tail2,
                                 tail_k2, dmap) = rec
                                dv = 0
                                okc = True
                                if deep_offs:
                                    base = D + 1
                                    for o in deep_offs:
                                        v = completions[(cnt + o) & 127] \
                                            - base
                                        if v <= 0:
                                            dv = dv * k_radix
                                        elif v <= max_delta:
                                            dv = dv * k_radix + v
                                        else:
                                            okc = False
                                            break
                                if okc:
                                    hit2 = dmap.get(dv)
                                    if hit2 is None:
                                        edge_miss = True
                                        dmap_install = dmap
                                    else:
                                        K0, rec_map = hit2
                                        # Memory probes: the stateful
                                        # work every path does, in
                                        # program order.
                                        if mem_plan:
                                            for (slot_key, is_load, base_a,
                                                 stride, span) in mem_plan:
                                                k = counters_get(slot_key, 0)
                                                counters[slot_key] = k + 1
                                                a = base_a \
                                                    + (k * stride) % span
                                                if dl1(a):
                                                    lvl = 1
                                                elif l2(a):
                                                    lvl = 2
                                                else:
                                                    lvl = 3
                                                if is_load:
                                                    levels = levels * 4 + lvl
                                                    loads += 1
                                                else:
                                                    stores += 1
                                        tpl = rec_map.get(levels)
                                        if tpl is not None \
                                                and tpl[7] == gen:
                                            # Chain hit: successor
                                            # reached with no key build,
                                            # no hash, no template-dict
                                            # probe.
                                            hits += 1
                                            tail_cycle = D
                                        else:
                                            # Profile known, level
                                            # vector new (or successor
                                            # evicted): the full key is
                                            # pure in the profile — no
                                            # offsets walk, no tail
                                            # shift.
                                            tpl = None
                                            key = (lb.addr, skey,
                                                   K0 * lvl_span + levels,
                                                   tail_k2)
                                            tail = tail2
                                            tail_k = tail_k2
                                            tail_cycle = D
                                            lvl_map = rec_map
                                            tpl = templates_get(key)

                if tpl is None and key is None:
                    # -- keyed path: shift tail, pack key, probe -------
                    # ``tail_k`` is the prefix-coded int encoding of the
                    # tail (length, then (delta, n) pairs) used in
                    # template keys; None when the tail is unknown or
                    # unencodable.
                    if tail_cycle != D:
                        if tail:
                            shift = D - tail_cycle
                            tail = tuple([
                                (dc - shift, n) for dc, n in tail
                                if dc > shift
                            ])
                            tail_k = _pack_tail(tail)
                        elif tail is None:
                            if max_issue <= D:
                                # Nothing is booked past the dispatch
                                # frontier: occupancy is exactly empty.
                                tail = ()
                                tail_k = 0
                            elif max_issue - D <= tail_dmax:
                                # Shallow backlog: reconstruct the exact
                                # occupancy at the few reachable booked
                                # cycles — re-arms the template path
                                # right after a slow-path blip.
                                t = []
                                for c in range(D + 1, max_issue + 1):
                                    s = c & iu_mask
                                    if iu_stamps[s] == c:
                                        n = iu_vals[s]
                                    elif iu_spill:
                                        n = iu_spill.get(c, 0)
                                    else:
                                        n = 0
                                    if n:
                                        t.append((c - D, n))
                                tail = tuple(t)
                                tail_k = _pack_tail(tail)
                            else:
                                tail_k = None
                        else:
                            tail_k = 0  # empty tail shifts to empty
                        tail_cycle = D

                    # -- template preconditions ------------------------
                    if tail_k is not None:
                        dlc = last - D
                        if dlc <= 2:
                            K = 0
                        elif dlc <= max_delta:
                            # Packed (last-commit delta, commits-in-cycle).
                            K = dlc * 64 + cic
                        else:
                            K = -1
                        if (
                            K >= 0
                            and floor <= D + 1
                            and entries + count <= iu_limit
                        ):
                            # Segments are at most ``width`` (<= 8)
                            # slots, so (start, count) packs into one
                            # int.
                            plan = lb._seg_plans.get(skey)
                            if plan is None:
                                plan = make_plan(lb, start, count)
                            offsets, mem_plan, lvl_span = plan
                            # An edge (or a new deep profile on an
                            # existing edge) can be installed on the
                            # previous template; the deep completion
                            # deltas fold into the profile key as the
                            # offsets walk passes them.
                            collecting = False
                            dv_new = 0
                            if edge_miss and prev_tpl[7] == gen:
                                if dmap_install is not None:
                                    collecting = (len(dmap_install)
                                                  < deep_limit)
                                else:
                                    collecting = (len(prev_tpl[8])
                                                  < edge_limit)
                                if collecting:
                                    pred_neg = -len(prev_tpl[0])
                            ok = True
                            if offsets:
                                base = D + 1
                                for o in offsets:
                                    v = completions[(cnt + o) & 127] - base
                                    if v <= 0:
                                        K = K * k_radix
                                        if collecting and o < pred_neg:
                                            dv_new = dv_new * k_radix
                                    elif v <= max_delta:
                                        K = K * k_radix + v
                                        if collecting and o < pred_neg:
                                            dv_new = dv_new * k_radix + v
                                    else:
                                        ok = False
                                        break
                            if ok:
                                # Memory probes: the stateful work both
                                # paths must do, probed in program order.
                                levels = 0
                                if mem_plan:
                                    for (slot_key, is_load, base_a, stride,
                                         span) in mem_plan:
                                        k = counters_get(slot_key, 0)
                                        counters[slot_key] = k + 1
                                        a = base_a + (k * stride) % span
                                        if dl1(a):
                                            lvl = 1
                                        elif l2(a):
                                            lvl = 2
                                        else:
                                            lvl = 3
                                        if is_load:
                                            levels = levels * 4 + lvl
                                            loads += 1
                                        else:
                                            stores += 1
                                key = (lb.addr, skey,
                                       K * lvl_span + levels, tail_k)
                                if collecting:
                                    edge_new = (dv_new, K, tail, tail_k)
                                tpl = templates_get(key)

                if tpl is not None:
                    # -- replay a memoized schedule template -----------
                    (completes, exit_lc, exit_cic, exit_tail, exit_tail_k,
                     bookings, max_issue_d, _tgen, _tchain, _gbig) = tpl
                    for cd in completes:
                        completions[cnt & 127] = D + cd
                        cnt += 1
                    for dc, n in bookings:
                        c = D + dc
                        s = c & iu_mask
                        if iu_stamps[s] == c:
                            iu_vals[s] += n
                        elif iu_spill and c in iu_spill:
                            iu_spill[c] += n
                        elif iu_stamps[s] == -1:
                            iu_stamps[s] = c
                            iu_vals[s] = n
                            entries += 1
                        else:
                            iu_spill[c] = n
                            entries += 1
                    mi = D + max_issue_d
                    if mi > max_issue:
                        max_issue = mi
                    tail = exit_tail
                    tail_k = exit_tail_k
                    last = D + exit_lc
                    cic = exit_cic
                    result_pair = (D + completes[-1], last)
                elif key is not None:
                    # -- record a new template -------------------------
                    # Run the canonical per-slot rules once (load
                    # latencies injected from the probe levels above),
                    # collecting the outputs; entry components outside
                    # the key are provably schedule-neutral, so the
                    # recording is valid for every recurrence of the
                    # key.
                    lvls = []
                    lv = levels
                    while lv:
                        lvls.append(lv % 4 - 1)
                        lv //= 4
                    lvls.reverse()
                    lvl_lat = (lvl0, lvl1, lvl2)
                    meta = lb._meta
                    bk: Dict[int, int] = {}
                    rec_completes = []
                    lvl_i = 0
                    seg_max = 0
                    for i in range(start, start + count):
                        (cls, latency, d1, d2, _mb, _ms,
                         _msp) = meta[i]
                        ready = D + 1
                        if d1:
                            dep = completions[(cnt - d1) & 127]
                            if dep > ready:
                                ready = dep
                        if d2:
                            dep = completions[(cnt - d2) & 127]
                            if dep > ready:
                                ready = dep
                        issue = ready  # floor <= D+1 <= ready
                        while True:
                            s = issue & iu_mask
                            if iu_stamps[s] == issue:
                                used = iu_vals[s]
                            elif iu_spill:
                                used = iu_spill.get(issue, 0)
                            else:
                                used = 0
                            if used < width:
                                break
                            issue += 1
                        s = issue & iu_mask
                        if iu_stamps[s] == issue:
                            iu_vals[s] += 1
                        elif iu_spill and issue in iu_spill:
                            iu_spill[issue] += 1
                        else:
                            if iu_stamps[s] == -1:
                                iu_stamps[s] = issue
                                iu_vals[s] = 1
                            else:
                                iu_spill[issue] = 1
                            entries += 1
                        bk[issue] = bk.get(issue, 0) + 1
                        if issue > max_issue:
                            max_issue = issue
                        if issue > seg_max:
                            seg_max = issue
                        if cls == _LOAD:
                            latency += lvl_lat[lvls[lvl_i]]
                            lvl_i += 1
                        complete = issue + latency
                        rec_completes.append(complete)
                        completions[cnt & 127] = complete
                        cnt += 1
                        earliest = complete + 1
                        commit = (earliest if earliest > last
                                  else last)
                        if commit == last:
                            if cic >= width:
                                commit += 1
                                cic = 1
                            else:
                                cic += 1
                        else:
                            cic = 1
                        last = commit
                    merged = dict(tail)
                    for c, n in bk.items():
                        dc = c - D
                        merged[dc] = merged.get(dc, 0) + n
                    exit_tail = tuple(sorted(merged.items()))
                    tail = exit_tail
                    tail_k = _pack_tail(exit_tail)
                    if len(templates) > cache_limit:
                        # Eviction: the generation bump exactly
                        # invalidates every chained edge pointing at
                        # the dropped templates.
                        templates.clear()
                        gen = templates.generation
                    # Far-gap threshold: a dispatch gap >= g_big leaves
                    # this template's exit state fully drained (empty
                    # shifted tail, commit delta <= 2, every shallow
                    # completion past its clamp), so all such gaps are
                    # chain-equivalent and share one bucket edge.
                    g_big = last - D - 2
                    if exit_tail and exit_tail[-1][0] > g_big:
                        g_big = exit_tail[-1][0]
                    cm = max(rec_completes) - D - 1
                    if cm > g_big:
                        g_big = cm
                    if g_big < 0:
                        g_big = 0
                    tpl = (
                        tuple([c - D for c in rec_completes]),
                        last - D,
                        cic,
                        exit_tail,
                        tail_k,
                        tuple(sorted(
                            (c - D, n) for c, n in bk.items()
                        )),
                        seg_max - D,
                        gen,
                        {},
                        g_big,
                    )
                    templates[key] = tpl
                    result_pair = (complete, last)

                if tpl is not None:
                    # The resolved template becomes the chain source for
                    # the next segment; resolve the pending installs.
                    cur_tpl = tpl
                    if lvl_map is not None:
                        if len(lvl_map) < lvl_limit:
                            lvl_map[levels] = tpl
                    elif edge_new is not None:
                        dv_n, K0n, t2, tk2 = edge_new
                        if dmap_install is not None:
                            dmap_install[dv_n] = (K0n, {levels: tpl})
                        else:
                            deep_offs = tuple([
                                o for o in offsets if o < pred_neg
                            ])
                            if deep_offs or mem_plan:
                                # General edge: a (list-typed) record
                                # resolving deep profiles and then load
                                # levels to the successor.
                                prev_tpl[8][ek] = [
                                    deep_offs, mem_plan, lvl_span, t2,
                                    tk2, {dv_n: (K0n, {levels: tpl})},
                                ]
                            else:
                                prev_tpl[8][ek] = tpl
                    args = yield result_pair
                    continue

                # -- per-slot loop (canonical rules, local state) ------
                tail = None  # occupancy tail no longer tracked exactly
                tail_k = None
                meta = lb._meta
                keys = lb._slot_keys
                ready_base = D + 1
                complete = commit = 0
                for i in range(start, start + count):
                    (cls, latency, d1, d2, mem_base, mem_stride,
                     mem_span) = meta[i]
                    ready = ready_base
                    if d1:
                        dep = completions[(cnt - d1) & 127]
                        if dep > ready:
                            ready = dep
                    if d2:
                        dep = completions[(cnt - d2) & 127]
                        if dep > ready:
                            ready = dep
                    issue = ready if ready > floor else floor
                    while True:
                        s = issue & iu_mask
                        if iu_stamps[s] == issue:
                            used = iu_vals[s]
                        elif iu_spill:
                            used = iu_spill.get(issue, 0)
                        else:
                            used = 0
                        if used < width:
                            break
                        issue += 1
                    s = issue & iu_mask
                    if iu_stamps[s] == issue:
                        iu_vals[s] += 1
                    elif iu_spill and issue in iu_spill:
                        iu_spill[issue] += 1
                    else:
                        if iu_stamps[s] == -1:
                            iu_stamps[s] = issue
                            iu_vals[s] = 1
                        else:
                            iu_spill[issue] = 1
                        entries += 1
                    if entries > iu_limit:
                        # The dict model checked its size after *every*
                        # insert, so an over-full table keeps compacting
                        # (and advancing the floor) until it shrinks.
                        self._iu_entries = entries
                        self._iu_compact(issue)
                        entries = self._iu_entries
                        iu_spill = self._iu_spill
                        floor = self._issue_floor
                    if issue > max_issue:
                        max_issue = issue

                    if cls == _LOAD or cls == _STORE:
                        slot_key = keys[i]
                        k = counters_get(slot_key, 0)
                        counters[slot_key] = k + 1
                        a = mem_base + (k * mem_stride) % (
                            mem_span if mem_span > 0 else 1
                        )
                        if dl1(a):
                            dlat = lvl0
                        elif l2(a):
                            dlat = lvl1
                        else:
                            dlat = lvl2
                        if cls == _LOAD:
                            latency += dlat
                            loads += 1
                        else:
                            stores += 1

                    complete = issue + latency
                    completions[cnt & 127] = complete
                    cnt += 1

                    earliest = complete + 1
                    commit = earliest if earliest > last else last
                    if commit == last:
                        if cic >= width:
                            commit += 1
                            cic = 1
                        else:
                            cic += 1
                    else:
                        cic = 1
                    last = commit
                args = yield (complete, commit)

            # -- park: publish the frame-local state -------------------
            self._iu_entries = entries
            self._issue_floor = floor
            self._count = cnt
            self._last_commit = last
            self._commits_in_cycle = cic
            self._max_issue = max_issue
            self._tail = tail
            self._tail_cycle = tail_cycle
            self.load_accesses = loads
            self.store_accesses = stores
            self._chain_tpl = cur_tpl
            self.seg_count = segs
            self.chain_hits = hits
            result = None

    # ------------------------------------------------------------------
    def _memory_latency(
        self,
        slot_key: Tuple[int, int],
        base: int,
        stride: int,
        span: int,
        is_store: bool,
    ) -> int:
        """Synthesize this access's address and probe the D-cache."""
        counters = self._load_counters
        k = counters.get(slot_key, 0)
        counters[slot_key] = k + 1
        addr = base + (k * stride) % (span if span > 0 else 1)
        # Inlined L1D-hit fast path of MemoryHierarchy.data_access.
        mem = self.mem
        if mem.dl1.access(addr):
            return mem._dl1_hit - 1
        if mem.l2.access(addr):
            return mem._dl1_hit + mem._l2_lat - 1
        return mem._dl1_hit + mem._l2_lat + mem._mem_lat - 1

    # ------------------------------------------------------------------
    @property
    def instructions(self) -> int:
        self._sync()
        return self._count

    @property
    def last_commit_cycle(self) -> int:
        self._sync()
        return self._last_commit
