#!/usr/bin/env python3
"""Fresh-process benchmark of the paper's Figure 8/9 sweeps.

    python3 perfbench/run.py --workload fig8_cold --seed 1 --seconds 25

Every timed sample is a new ``python -m repro.experiments.cli`` process
(plus, on ``fig8_remote``, a new ``python -m repro.serve`` daemon), run
from the checkout's ``src/`` with every ``REPRO_*`` variable removed and
a fresh store under ``.perfbench_work/``.  A run takes at least three
samples, and more while the next one still fits in ``--seconds``; each
metric is the median over the samples.

Each sample's rendered figure and each cell's progress line are checked
against ``digests.json`` (see ``make_digests.py``).  A non-zero exit, a
text mismatch, or a missing or mismatched cell counts as failed.

``--trace 1`` adds one traced sample, started through ``launch.py``,
whose span files give the per-layer metrics (see README.md).

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
DIGESTS = os.path.join(HERE, "digests.json")

#: A run must end within this many seconds of starting, whatever hangs.
RUN_LIMIT = 170.0
#: Samples per run, at least; more while the next one fits in --seconds.
MIN_SAMPLES = 3

#: SPEC_BENCHMARKS by schedule-template chain hit rate at 150k
#: instructions: templates that fit, an intermediate regime, and
#: benchmarks that churn the shared template store.
CLASSES: Dict[str, Tuple[str, ...]] = {
    "fitting": ("gzip", "eon", "bzip2", "crafty"),
    "intermediate": ("gcc", "gap", "vortex"),
    "churning": ("vpr", "parser", "perlbmk", "twolf"),
}
DEFAULT_PICK = {"fitting": "gzip", "intermediate": "gcc",
                "churning": "twolf"}
CLASS_OF = {b: c for c, members in CLASSES.items() for b in members}
ARCHS = ("ev8", "ftb", "stream", "trace")

#: The two sweeps.  fig8 cells are short (chain hit rate 0.3-0.7 cold);
#: fig9 cells are 7.5x longer, serial, and dominated by Processor.run.
SWEEPS = {
    "fig8": {"classes": ("fitting", "intermediate", "churning"),
             "args": ("--widths", "2", "4", "8", "--instructions", "8000",
                      "--jobs", "2")},
    "fig9": {"classes": ("fitting", "churning"),
             "args": ("--instructions", "60000")},
}
#: The widths the incremental workload's set-up puts in the store.
FILL_ARGS = ("--widths", "2", "4", "--instructions", "8000", "--jobs", "2")

WORKLOADS = {
    "fig8_cold": (
        "fig8",
        "fig8 into an empty store: template recording, processor builds, "
        "linking, fork-pool dispatch and store writes all carry weight"),
    "fig8_incremental": (
        "fig8",
        "fig8 against a store holding widths 2 and 4: 48 cells replay "
        "from the store, 24 width-8 cells simulate on stored images"),
    "fig9_long": (
        "fig9",
        "serial fig9 with 7.5x longer cells: the Processor.run hot loop, "
        "one benchmark whose templates fit and one that churns them"),
    "fig8_remote": (
        "fig8",
        "fig8_cold sharded over a freshly booted serve daemon with "
        "--cluster: the only workload through the serve and cluster "
        "layers"),
}

#: Bounds: this 2-CPU host drifts 10-15% over minutes, which the 25%
#: timing bounds absorb; memory and store size move far less.
END_TO_END = (
    # name, unit, better, bound
    ("wall_s", "s", "lower", 0.25),
    ("cpu_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
    ("cells_per_s", "1/s", "higher", 0.25),
    ("store_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    core = [("run_s", "s", "lower"), ("sim_kips", "kinstr/s", "higher"),
            ("chain_hit_rate", "fraction", "higher"),
            ("templates_recorded", "count", "lower"),
            ("template_evictions", "count", "lower"),
            ("build_s", "s", "lower")]
    out = [("core." + n, u, b) for n, u, b in core[:2]]
    out += [("core.segments", "count", "lower"),
            ("core.chain_hits", "count", "higher")]
    out += [("core." + n, u, b) for n, u, b in core[2:]]
    out += [(f"core.{cls}.{n}", u, b) for cls in CLASSES
            for n, u, b in core]
    out += [
        ("accel.bind_s", "s", "lower"), ("accel.bind_calls", "count", "lower"),
        ("isa.link_s", "s", "lower"), ("isa.link_calls", "count", "lower"),
        ("isa.trace_walk_s", "s", "lower"),
        ("isa.trace_blocks", "count", "lower"),
        ("exec.pool_start_s", "s", "lower"),
        ("exec.worker_busy_frac", "fraction", "higher"),
        ("exec.retries", "count", "lower"), ("exec.failed", "count", "lower"),
        ("store.result_get_s", "s", "lower"),
        ("store.result_hits", "count", "higher"),
        ("store.result_misses", "count", "lower"),
        ("store.program_get_s", "s", "lower"),
        ("store.trace_load_s", "s", "lower"),
        ("store.result_put_s", "s", "lower"),
        ("store.trace_save_s", "s", "lower"),
        ("store.bytes_written", "B", "lower"),
        ("cluster.round_trip_ms", "ms", "lower"),
        ("cluster.overhead_ms_per_cell", "ms", "lower"),
        ("cluster.redispatches", "count", "lower"),
        ("serve.worker_busy_frac", "fraction", "higher"),
        ("experiments.startup_s", "s", "lower"),
        ("experiments.fingerprint_s", "s", "lower"),
        ("experiments.render_s", "s", "lower"),
        ("experiments.first_cell_s", "s", "lower"),
    ]
    for stat, unit in (("ipc", "instr/cycle"), ("fetch_ipc", "instr/cycle"),
                       ("mispredict_rate", "fraction")):
        better = "lower" if stat == "mispredict_rate" else "higher"
        out += [(f"model.{stat}.{arch}", unit, better) for arch in ARCHS]
    out.append(("trace.overhead_frac", "fraction", "lower"))
    return out


def manifest() -> dict:
    """The BENCHMARK.json this benchmark answers to."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 25,
        "workloads": [{"name": name, "why": why}
                      for name, (_, why) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in per_layer_metrics()],
    }


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
def pick_benchmarks(sweep: str, pick: int = 0) -> List[str]:
    """One benchmark per class of ``sweep``; pick 0 is the default set."""
    rng = random.Random(pick)
    return [DEFAULT_PICK[cls] if pick == 0 else rng.choice(CLASSES[cls])
            for cls in SWEEPS[sweep]["classes"]]


def workload_benchmarks(sweep: str, seed: int, pick: int = 0) -> List[str]:
    """The benchmark list a run passes, ordered by ``seed``.

    The seed permutes the order (seed 0 keeps class order), which moves
    the figure's rows and the pool's cell order but not the amount of
    work, so timings from different seeds stay comparable.
    """
    chosen = pick_benchmarks(sweep, pick)
    orders = list(itertools.permutations(chosen))
    return list(orders[seed % len(orders)])


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
_PROGRESS = re.compile(r"^\[\s*\d+s\] (.*\S)\s*$")
_SUMMARY = re.compile(
    r"^(?P<benchmark>\S+)\s+(?P<arch>\S+)\s+(?P<width>\d+)-wide\s+"
    r"(?P<layout>opt|base)\s+IPC=\s*(?P<ipc>[\d.]+)\s+"
    r"fetchIPC=\s*(?P<fetch_ipc>[\d.]+)\s+"
    r"mispred=\s*(?P<mispred>[\d.]+)%\s+cycles=(?P<cycles>\d+)$")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def parse_cells(stderr: str) -> Dict[str, dict]:
    """Cell key -> parsed progress line (``digest`` is of the line)."""
    cells = {}
    for raw in stderr.splitlines():
        m = _PROGRESS.match(raw)
        if not m:
            continue
        line = " ".join(m.group(1).split())
        s = _SUMMARY.match(line)
        if not s:
            continue
        key = (f"{s['benchmark']}/{s['arch']}/{s['width']}/"
               f"{s['layout']}")
        cells[key] = {"digest": digest(line), "arch": s["arch"],
                      "ipc": float(s["ipc"]),
                      "fetch_ipc": float(s["fetch_ipc"]),
                      "mispredict_rate": float(s["mispred"]) / 100.0}
    return cells


def check_output(sweep: str, benchmarks: List[str], rc: int, stdout: str,
                 stderr: str, digests: dict,
                 widths: Optional[Tuple[str, ...]] = None,
                 reference_text: Optional[str] = None) -> Tuple[int, int]:
    """(attempted, failed) for one process: the run plus each cell.

    The rendered text is checked against the committed digest for this
    benchmark order; where none is committed, against
    ``reference_text`` (another sample of the same input).
    """
    table = digests[sweep]
    expected = {
        key: value for key, value in table["cells"].items()
        if key.split("/")[0] in benchmarks
        and (widths is None or key.split("/")[2] in widths)
    }
    got = parse_cells(stderr)
    failed_cells = sum(1 for key, value in expected.items()
                       if got.get(key, {}).get("digest") != value)
    text_key = ",".join(benchmarks)
    want = table["text"].get(text_key)
    if widths is not None:
        want = None  # the set-up fill renders a narrower figure
    if want is not None:
        text_ok = digest(stdout) == want
    else:
        text_ok = reference_text is None or stdout == reference_text
    run_failed = int(rc != 0 or not text_ok or not expected)
    return 1 + len(expected), run_failed + failed_cells


# ----------------------------------------------------------------------
# processes
# ----------------------------------------------------------------------
class Work:
    """One run's scratch space and process environment."""

    def __init__(self, workload: str, deadline: float) -> None:
        self.dir = os.path.join(WORK_ROOT, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.deadline = deadline
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith(("REPRO_", "PERFBENCH_"))}
        self.env["PYTHONPATH"] = SRC
        self.env["TMPDIR"] = self.dir
        self._n = itertools.count()

    def fresh(self, label: str) -> str:
        path = os.path.join(self.dir, f"{label}-{next(self._n)}")
        os.makedirs(path)
        return path

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run's directory is still there


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


@dataclass
class Finished:
    rc: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def run_process(argv: List[str], work: Work, env: Optional[dict] = None
                ) -> Finished:
    """Run to completion; wall, CPU and peak RSS of the process tree.

    ``wait4`` reports the process's resource use together with every
    descendant it reaped (the fork pool's workers), and its ``maxrss``
    is the largest single process.
    """
    label = os.path.join(work.fresh("proc"), "std")
    with open(label + ".out", "wb") as out, open(label + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env or work.env,
                                stdout=out, stderr=err,
                                start_new_session=True)
        watchdog = threading.Timer(max(1.0, work.remaining()),
                                   _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # strays, e.g. a worker orphaned by a crash
    with open(label + ".out", errors="replace") as out, \
            open(label + ".err", errors="replace") as err:
        return Finished(proc.returncode, wall,
                        usage.ru_utime + usage.ru_stime,
                        usage.ru_maxrss / 1024.0, out.read(), err.read())


def _proc_cpu(pid: int) -> float:
    """CPU seconds of ``pid`` and its reaped children so far."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    ticks = sum(int(v) for v in fields[11:15])
    return ticks / os.sysconf("SC_CLK_TCK")


class Daemon:
    """A ``repro.serve`` daemon with an ephemeral port and its own store."""

    def __init__(self, work: Work, store: str, env: dict,
                 traced: bool) -> None:
        entry = ([os.path.join(HERE, "launch.py"), "serve"] if traced
                 else ["-m", "repro.serve"])
        argv = [sys.executable, *entry, "--port", "0", "--workers", "2",
                "--store", store]
        self.err = open(os.path.join(work.dir, "daemon.err"), "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                     stdout=subprocess.PIPE, stderr=self.err,
                                     start_new_session=True)
        prefix = b"repro-serve: listening on "
        line = b""
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    max(1.0, min(60.0, work.remaining())))
        if ready:
            line = self.proc.stdout.readline()
        if not line.startswith(prefix):
            self.stop(work)
            raise RuntimeError(f"serve daemon did not start: {line!r}")
        self.boot_s = time.perf_counter() - start
        self.address = line[len(prefix):].decode().strip()
        self.cpu_at_ready = _proc_cpu(self.proc.pid)

    def stop(self, work: Work) -> Tuple[float, float]:
        """Drain and reap; (CPU since ready, peak RSS MB of its tree)."""
        proc = self.proc
        try:
            proc.send_signal(signal.SIGTERM)
        except ProcessLookupError:
            pass
        watchdog = threading.Timer(max(1.0, min(30.0, work.remaining())),
                                   _kill_group, (proc.pid,))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        proc.stdout.close()
        self.err.close()
        cpu = usage.ru_utime + usage.ru_stime - getattr(self, "cpu_at_ready",
                                                        0.0)
        return cpu, usage.ru_maxrss / 1024.0


def store_mb(path: str) -> float:
    total = 0
    for dirpath, _, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(dirpath, name))
            except OSError:
                pass
    return total / 1e6


# ----------------------------------------------------------------------
# samples
# ----------------------------------------------------------------------
def cli(*args: str) -> List[str]:
    return [sys.executable, "-m", "repro.experiments.cli", *args]


def traced_cli(*args: str) -> List[str]:
    return [sys.executable, os.path.join(HERE, "launch.py"), "cli", *args]


def run_sample(workload: str, benchmarks: List[str], work: Work,
               digests: dict, trace_dir: Optional[str] = None,
               reference: Optional[dict] = None) -> dict:
    """One set-up plus one timed CLI process; the sample's figures."""
    sweep = WORKLOADS[workload][0]
    command = [sweep, "--benchmarks", *benchmarks, *SWEEPS[sweep]["args"]]
    env = work.env
    if trace_dir is not None:
        env = dict(env, **{spans.TRACE_DIR_ENV: trace_dir})
    launcher = traced_cli if trace_dir is not None else cli
    store = work.fresh("store")
    sample = {"attempted": 0, "failed": 0, "daemon_cpu": 0.0,
              "daemon_rss": 0.0}
    daemon = None

    # -- set-up (untimed by wall_s, reported as setup_s) --------------
    start = time.perf_counter()
    if workload == "fig8_incremental":
        fill = run_process(cli(sweep, "--benchmarks", *benchmarks,
                               *FILL_ARGS, "--store", store), work)
        attempted, failed = check_output(sweep, benchmarks, fill.rc,
                                         fill.stdout, fill.stderr, digests,
                                         widths=("2", "4"))
        sample["attempted"] += attempted
        sample["failed"] += failed
        sample["setup"] = time.perf_counter() - start
    elif workload == "fig8_remote":
        daemon = Daemon(work, work.fresh("daemon-store"), env,
                        traced=trace_dir is not None)
        command += ["--cluster", daemon.address]
        sample["setup"] = daemon.boot_s
    else:
        run_process([sys.executable, "-c", "import repro.experiments.cli"],
                    work)
        sample["setup"] = time.perf_counter() - start

    # -- the timed process ---------------------------------------------
    sample["launch_time"] = time.time()
    try:
        done = run_process(launcher(*command, "--store", store), work,
                           env=env)
    finally:
        if daemon is not None:
            sample["daemon_cpu"], sample["daemon_rss"] = daemon.stop(work)
    attempted, failed = check_output(
        sweep, benchmarks, done.rc, done.stdout, done.stderr, digests,
        reference_text=reference["stdout"] if reference else None)
    sample["attempted"] += attempted
    sample["failed"] += failed
    cells = attempted - 1
    sample.update(
        wall=done.wall, cpu=done.cpu + sample["daemon_cpu"],
        rss=max(done.rss_mb, sample["daemon_rss"]),
        cells=cells, cells_per_s=cells / done.wall,
        store=store_mb(store), stdout=done.stdout,
        parsed=parse_cells(done.stderr), rc=done.rc,
        tail=done.stderr[-800:],
    )
    return sample


# ----------------------------------------------------------------------
# per-layer metrics from span files
# ----------------------------------------------------------------------
def layer_metrics(files: List[dict], launch_time: float,
                  cells: Dict[str, dict]) -> Dict[str, float]:
    """Every per-layer metric of one traced sample."""
    m = {name: 0.0 for name, _, _ in per_layer_metrics()}
    by_cls: Dict[str, Dict[str, float]] = {
        cls: dict.fromkeys(("run", "run_total", "scheduled", "segments",
                            "chain_hits", "recorded", "evictions",
                            "build"), 0.0)
        for cls in list(CLASSES) + ["all"]}
    # Pool workers' time in cells and alive, per side of the wire.
    busy = {role: {"exec.cell": 0.0, "exec.worker": 0.0}
            for role in ("cli.worker", "serve.worker")}
    daemon_cells: Dict[str, float] = {}
    round_trips: List[Tuple[Optional[str], float]] = []

    for f in files:
        role = f["role"]
        selfs = spans.self_times(f["spans"])
        for name, value in f["counts"].items():
            if name in m:
                m[name] += value
        for s in f["spans"]:
            name, attrs = s["name"], s["attrs"]
            dur, own = s["end"] - s["start"], selfs[s["id"]]
            if name in ("core.run", "core.build"):
                cls = CLASS_OF.get(attrs.get("benchmark"))
                for row in ([by_cls["all"], by_cls[cls]] if cls
                            else [by_cls["all"]]):
                    if name == "core.build":
                        row["build"] += own
                        continue
                    row["run"] += own
                    row["run_total"] += dur
                    row["scheduled"] += attrs.get("scheduled", 0)
                    row["segments"] += attrs.get("segments", 0)
                    row["chain_hits"] += attrs.get("chain_hits", 0)
                    row["recorded"] += attrs.get("templates_recorded", 0)
                    row["evictions"] += attrs.get("template_evictions", 0)
            elif name == "accel.bind":
                m["accel.bind_s"] += own
                m["accel.bind_calls"] += 1
            elif name == "isa.link":
                m["isa.link_s"] += own
                m["isa.link_calls"] += 1
            elif name == "isa.trace_walk":
                m["isa.trace_walk_s"] += own
                m["isa.trace_blocks"] += attrs.get("blocks", 0)
            elif name == "exec.pool_start" and role == "cli":
                m["exec.pool_start_s"] += dur
            elif name in ("exec.worker", "exec.cell") and role in busy:
                busy[role][name] += dur
                if name == "exec.cell" and role == "serve.worker":
                    daemon_cells[attrs.get("cell")] = dur
            elif name == "store.result_get":
                m["store.result_get_s"] += own
                m["store.result_hits" if attrs.get("hit")
                  else "store.result_misses"] += 1
            elif name.startswith("store."):
                key = name + "_s"
                if key in m:
                    m[key] += own
            elif name == "cluster.request":
                round_trips.append((attrs.get("cell"), dur))
            elif name.startswith("experiments.") and role == "cli":
                key = name + "_s"
                if key in m:
                    m[key] += own
        if role == "cli":
            marks = f["marks"]
            if "main" in marks:
                m["experiments.startup_s"] = marks["main"] - launch_time
                if "first_cell" in marks:
                    m["experiments.first_cell_s"] = (marks["first_cell"]
                                                     - marks["main"])

    for cls, row in by_cls.items():
        prefix = "core." if cls == "all" else f"core.{cls}."
        m[prefix + "run_s"] = row["run"]
        m[prefix + "sim_kips"] = (row["scheduled"] / row["run_total"] / 1e3
                                  if row["run_total"] else 0.0)
        m[prefix + "chain_hit_rate"] = (row["chain_hits"] / row["segments"]
                                        if row["segments"] else 0.0)
        m[prefix + "templates_recorded"] = row["recorded"]
        m[prefix + "template_evictions"] = row["evictions"]
        m[prefix + "build_s"] = row["build"]
        if cls == "all":
            m["core.segments"] = row["segments"]
            m["core.chain_hits"] = row["chain_hits"]
    for role, key in (("cli.worker", "exec.worker_busy_frac"),
                      ("serve.worker", "serve.worker_busy_frac")):
        alive = busy[role]["exec.worker"]
        m[key] = busy[role]["exec.cell"] / alive if alive else 0.0
    if round_trips:
        m["cluster.round_trip_ms"] = 1e3 * statistics.mean(
            d for _, d in round_trips)
        matched = [d - daemon_cells[c] for c, d in round_trips
                   if c in daemon_cells]
        if matched:
            m["cluster.overhead_ms_per_cell"] = 1e3 * statistics.mean(matched)
    for arch in ARCHS:
        rows = [c for c in cells.values() if c["arch"] == arch]
        for stat in ("ipc", "fetch_ipc", "mispredict_rate"):
            m[f"model.{stat}.{arch}"] = (
                statistics.mean(c[stat] for c in rows) if rows else 0.0)
    return m


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def calibration_seconds() -> float:
    """Best of three of a fixed, simulator-independent ~0.1 s loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        d: Dict[int, int] = {}
        acc = 0
        for i in range(600_000):
            k = (i * 2654435761) & 0xFFFF
            acc += d.get(k, 0)
            d[k] = acc & 0xFFFFFF
        best = min(best, time.perf_counter() - start)
    return best


def prime(work: Work) -> None:
    """Fail fast unless this checkout's ``repro`` imports; byte-compile."""
    probe = run_process([
        sys.executable, "-c",
        "import repro.experiments.cli as c, repro.serve.__main__; "
        "print(c.__file__)"], work)
    where = probe.stdout.strip()
    if probe.rc != 0 or not where.startswith(SRC + os.sep):
        raise RuntimeError(
            f"cannot import repro from {SRC}: {probe.stderr[-500:]}"
            f"{where}")


def run(workload: str, seed: int, seconds: float, trace: bool,
        pick: int) -> dict:
    started = time.monotonic()
    sweep = WORKLOADS[workload][0]
    benchmarks = workload_benchmarks(sweep, seed, pick)
    with open(DIGESTS) as fh:
        digests = json.load(fh)
    work = Work(workload, started + RUN_LIMIT)
    try:
        prime(work)
        calibration = calibration_seconds()
        samples: List[dict] = []
        took: List[float] = []
        while len(samples) < MIN_SAMPLES or (
                time.monotonic() - started + statistics.median(took)
                <= seconds):
            began = time.monotonic()
            samples.append(run_sample(workload, benchmarks, work, digests,
                                      reference=samples[0] if samples
                                      else None))
            took.append(time.monotonic() - began)
        traced = None
        if trace:
            trace_dir = work.fresh("spans")
            traced = run_sample(workload, benchmarks, work, digests,
                                trace_dir=trace_dir, reference=samples[0])
            files = spans.load(trace_dir)
    finally:
        work.close()

    done = samples + ([traced] if traced else [])
    attempted = sum(s["attempted"] for s in done)
    failed = sum(s["failed"] for s in done)

    def med(key: str) -> float:
        return statistics.median(s[key] for s in samples)

    metrics = {
        "wall_s": med("wall"), "cpu_s": med("cpu"),
        "peak_rss_mb": med("rss"), "cells_per_s": med("cells_per_s"),
        "store_mb": med("store"), "setup_s": med("setup"),
    }
    units = {n: u for n, u, _, _ in END_TO_END}
    report = {
        "workload": workload, "seed": seed, "pick": pick,
        "benchmarks": benchmarks, "samples": len(samples),
        "cells_per_sample": samples[0]["cells"],
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "calibration_s": round(calibration, 5),
        "wall_s_each": [round(s["wall"], 4) for s in samples],
        "setup_s_each": [round(s["setup"], 4) for s in samples],
        "failed_frac": failed / attempted,
        "failures": [{"rc": s["rc"], "stderr_tail": s["tail"]}
                     for s in done if s["failed"]],
    }
    if trace:
        overhead = traced["wall"] / metrics["wall_s"] - 1.0
        metrics = layer_metrics(files, traced["launch_time"],
                                traced["parsed"])
        metrics["trace.overhead_frac"] = overhead
        units = {n: u for n, u, _ in per_layer_metrics()}
        report["traced_wall_s"] = round(traced["wall"], 4)
    return {
        "report": report,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="orders the benchmark list (0: class order)")
    parser.add_argument("--pick", type=int, default=0,
                        help="picks one benchmark per class (0: gzip, gcc, "
                             "twolf); other picks re-check a claim on "
                             "benchmarks it was not tuned on")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--manifest", action="store_true",
                        help="print the BENCHMARK.json this benchmark "
                             "answers to, and exit")
    args = parser.parse_args(argv)
    if args.manifest:
        print(json.dumps(manifest(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  args.pick)
    except Exception:  # no result line: the run did not happen
        traceback.print_exc()
        return 1
    report = out["report"]
    print(f"# {report['workload']}: {' '.join(report['benchmarks'])}; "
          f"{report['samples']} samples x {report['cells_per_sample']} "
          f"cells; nproc {report['nproc']}, Python {report['python']}, "
          f"calibration {report['calibration_s']:.4f} s")
    for name, metric in out["result"]["metrics"].items():
        print(f"#   {name:34s} {metric['value']:14.6g} {metric['unit']}")
    print("# report " + json.dumps(report, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
