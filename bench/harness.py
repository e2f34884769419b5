"""Timing, tracing and correctness bookkeeping shared by the workloads.

A ``Session`` is created per process.  Workloads route every public magrep
call through ``Session.call`` and group calls into tasks with
``Session.task``: a task is one answered question (or one set-up step), it
is the unit that ``attempted`` / ``failed`` count, and its wall time,
including rendering the answer with ``io.write_report``, is charged to the
question it belongs to.

With tracing off, ``call`` forwards straight to the function.  With tracing
on it records one span per call (name, start, end, task id, sizes) in
memory and counts the branch-cut warnings the call raised; spans are
aggregated into per-layer metrics and written out once, at the end.

Between calls, at most every ``PROBE_INTERVAL_S``, a ``SpeedProbe`` times a
fixed reference computation that does not use magrep.  The share of the
machine a run gets drifts by up to 2x within a minute on a shared host, and
the reference slows with it; the end-to-end times are scaled by it (see
``SpeedProbe``).  Probe time is left out of every task, set-up and pass time.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time
import traceback
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

import numpy as np

from magrep import io
from magrep.coreps import CoRep
from magrep.errors import EigenvalueAtBranchCutWarning
from magrep.groups import MagneticGroup
from magrep.kp import ProbeRepAction

QUESTIONS = ("classify", "reduce", "kp", "stability", "oracle")
#: Phase name prefixes; spans of any other phase (input preparation) are
#: kept out of the per-layer figures.
SETUP = "setup"
PASS = "pass"

#: Public calls the workloads make, as ``<module>.<function>``.  Every
#: workload calls each of them, so each per-layer time is measured (never a
#: structural zero) on every workload.
LAYER_CALLS = (
    "catalog.catalog_get",
    "groups.build_group",
    "groups.validate_cocycle",
    "coreps.corep_from_matrices",
    "coreps.direct_sum",
    "coreps.conjugate_corep",
    "coreps.random_gauge",
    "coreps.validate_corep",
    "coreps.restrict_corep",
    "reduction.irreducibility_index",
    "reduction.torsion_number",
    "reduction.reduce_corep",
    "kp.ProbeRepAction",
    "kp.validate_action",
    "kp.linear_multiplicity",
    "kp.build_gamma_matrices",
    "kp.dispersion_order",
    "kp.polynomial_channel",
    "kp.probe_stability",
    "kp.covariant_tuple_basis",
    "kp.tuple_span_residual",
    "io.write_report",
    "linalg.random_unitary",
)

#: Counters that are summed per set-up / pass.
SUM_COUNTERS = ("reduction.reduce_corep.seeds", "io.write_report.bytes",
                "linalg.branch_cut_events")
#: Counters that keep the largest value seen in a set-up / pass.
MAX_COUNTERS = ("kp.covariant_tuple_basis.rows", "kp.covariant_tuple_basis.cols",
                "kp.covariant_tuple_basis.u_bytes_computed")


#: Nominal time of ``reference()``: about its time on the machine the bounds
#: were set on (Intel Xeon at 2.1 GHz, 2 vCPUs) in a quiet stretch.
REFERENCE_S = 0.002
PROBE_INTERVAL_S = 0.05
LOCAL_PAD_S = 0.5

_REF_RNG = np.random.default_rng(5)
_REF_M = _REF_RNG.standard_normal((8, 8)) + 1j * _REF_RNG.standard_normal((8, 8))
_REF_B = _REF_RNG.standard_normal((200, 24))


def reference() -> int:
    """Fixed work, independent of magrep, of the kinds magrep spends its
    time on: a Python loop, small numpy calls and a LAPACK SVD."""
    acc = 0
    for i in range(3000):
        acc += (i * 7) % 11
    x = np.eye(8, dtype=complex)
    for _ in range(60):
        x = _REF_M @ x
        x = x / np.linalg.norm(x)
    np.linalg.svd(_REF_B, full_matrices=True)
    return acc


class SpeedProbe:
    """Samples of ``reference()`` taken interleaved with the work.

    ``factor`` gives the speed factor of a stretch of time: ``REFERENCE_S``
    over the mean reference time sampled around it.  Wall time times the
    factor is the time at the nominal speed of the reference.  ``timed``
    runs a step and returns its wall time, less the time spent in the probe,
    and the step's factor; tasks are scaled one by one, each by the speed
    around it (``Session.task_times``).
    """

    def __init__(self):
        self.samples: list = []
        self.times: list = []
        self.spent = 0.0
        self._last = -math.inf

    def sample(self) -> None:
        # The first run brings the reference's code and data back into the
        # caches the work evicted them from; the second is timed.
        begin = time.perf_counter()
        reference()
        start = time.perf_counter()
        reference()
        end = time.perf_counter()
        self.samples.append(end - start)
        self.times.append(end)
        self.spent += end - begin
        self._last = end

    def poll(self) -> None:
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def factor(self, start: float, end: float) -> float:
        """Speed factor of the stretch [start, end], from the samples taken
        within ``LOCAL_PAD_S`` of it and at least the nearest one on each
        side.

        It is the mean, not the median, of the samples: besides running
        slower, the host takes the CPU away for milliseconds at a time, and
        the samples that straddle such a gap are what show it.
        """
        lo = bisect.bisect_left(self.times, start - LOCAL_PAD_S)
        hi = bisect.bisect_right(self.times, end + LOCAL_PAD_S)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = max(hi, bisect.bisect_right(self.times, end) + 1)
        return REFERENCE_S / statistics.fmean(self.samples[lo:hi])

    def timed(self, fn, *args) -> tuple:
        self.sample()
        spent = self.spent
        start = time.perf_counter()
        fn(*args)
        end = time.perf_counter()
        wall = end - start - (self.spent - spent)
        self.sample()
        return wall, self.factor(start, end)


class CheckFailed(Exception):
    """A benchmark correctness check did not hold."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Span:
    name: str
    start: float
    end: float
    phase: str
    task: Optional[str]
    sizes: dict


def _sizes(args) -> dict:
    sizes = {}
    for a in args:
        if isinstance(a, CoRep):
            sizes.setdefault("order", a.group.order)
            sizes.setdefault("d", a.dim)
        elif isinstance(a, ProbeRepAction):
            sizes.setdefault("order", a.group.order)
            sizes.setdefault("q", a.dim_q)
        elif isinstance(a, MagneticGroup):
            sizes.setdefault("order", a.order)
    return sizes


class Session:
    """Per-process record of tasks, question times, spans and counters."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list = []
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self.phase = "prepare"
        self._task: Optional[str] = None
        self._tasks: list = []
        self.task_log: list = []
        self._counters: dict = defaultdict(lambda: defaultdict(float))
        self.probe = SpeedProbe()
        # Untraced calls (and untraced passes of a traced run) stay quiet;
        # traced calls record the warning instead.
        warnings.simplefilter("ignore", EigenvalueAtBranchCutWarning)

    # -- calls ---------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        self.probe.poll()
        if not self.trace:
            return fn(*args, **kwargs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", EigenvalueAtBranchCutWarning)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.spans.append(Span(name, start, end, self.phase, self._task,
                                       _sizes(args)))
                cuts = sum(issubclass(w.category, EigenvalueAtBranchCutWarning)
                           for w in caught)
                self.count("linalg.branch_cut_events", cuts)

    def count(self, name: str, value: float) -> None:
        if not self.trace:
            return
        bucket = self._counters[self.phase]
        if name in MAX_COUNTERS:
            bucket[name] = max(bucket[name], value)
        else:
            bucket[name] += value

    def render(self, report: dict) -> str:
        """Render an answer the way the CLI does (``io.write_report``)."""
        text = self.call("io.write_report", io.write_report, report)
        self.count("io.write_report.bytes", len(text))
        return text

    # -- tasks ---------------------------------------------------------------

    @contextmanager
    def task(self, question: str, label: str):
        """One answered question; exceptions and failed checks fail the task."""
        self.attempted += 1
        outer, self._task = self._task, f"{self.phase}/{question}:{label}"
        spent = self.probe.spent
        start = time.perf_counter()
        try:
            yield
        except Exception as err:  # one failed task must not stop the run
            self.failed += 1
            self.failures.append(f"{self._task}: {type(err).__name__}: {err}")
            if not isinstance(err, CheckFailed):
                self.failures.append(traceback.format_exc())
        finally:
            end = time.perf_counter()
            record = (question, label, start, end,
                      end - start - (self.probe.spent - spent))
            self._tasks.append(record)
            self.task_log.append((self.phase, *record))
            self._task = outer

    def start_phase(self, phase: str) -> None:
        self.phase = phase
        self._tasks = []

    def task_times(self) -> dict:
        """(wall, scaled) seconds per (question, label) in this phase; each
        task is scaled by the speed factor around it (``SpeedProbe.factor``)."""
        out = defaultdict(lambda: [0.0, 0.0])
        for question, label, start, end, wall in self._tasks:
            out[question, label][0] += wall
            out[question, label][1] += wall * self.probe.factor(start, end)
        return {key: tuple(v) for key, v in out.items()}

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer calls and seconds: median set-up plus median pass.

        Each figure is the median over traced set-ups of its per-set-up total
        plus the median over traced passes of its per-pass total.
        """
        per_phase: dict = defaultdict(lambda: defaultdict(float))
        for sp in self.spans:
            per_phase[sp.phase][sp.name + ".calls"] += 1
            per_phase[sp.phase][sp.name + ".s"] += sp.end - sp.start
        for phase, counters in self._counters.items():
            for name, value in counters.items():
                per_phase[phase][name] += value
        phases = {kind: [p for p in per_phase if p.startswith(kind)]
                  for kind in (SETUP, PASS)}

        names = [f"{c}.{k}" for c in LAYER_CALLS for k in ("calls", "s")]
        names += list(SUM_COUNTERS) + list(MAX_COUNTERS)
        out = {}
        for name in names:
            total = 0.0
            for kind in (SETUP, PASS):
                values = [per_phase[p].get(name, 0.0) for p in phases[kind]]
                if values:
                    total += statistics.median(values)
            out[name] = total
        seeds = out.pop("reduction.reduce_corep.seeds")
        calls = out["reduction.reduce_corep.calls"]
        out["reduction.reduce_corep.seeds_per_call"] = seeds / calls if calls else 0.0
        return out

    def span_records(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end, "phase": s.phase,
                 "task": s.task, **s.sizes} for s in self.spans]
