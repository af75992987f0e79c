"""The benchmark's workloads: inputs from the seed, timed loops, answer checks.

Each workload builds its data and sessions through the public front doors
(``load_dataset``/``workload_query``, ``MatchSession``, ``SessionRegistry``)
in their default configuration, then runs operations and records one
:class:`Op` per operation.  The workload seed sets the operation order, the
ε draws, the deadlines and the arrival times; dataset synthesis keeps its own
seed of 7.  NOTES.md explains why each workload exists.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import time
from dataclasses import dataclass

import numpy as np

from repro import MatchSession, QueryRequest, SessionRegistry, WallClock
from repro.core.config import HistSimConfig
from repro.data import load_dataset, workload_query
from repro.serving import COMPLETED, PARTIAL, AdmissionRejected
from repro.system import run_approach

from hostspeed import RECENT_PASSES, HostSpeed, IdleSelector, host_clock, stall_ms

#: ε is drawn per operation from this range, so no two operations repeat.
EPSILON_RANGE = (0.06, 0.15)
#: Each query's ε draws are stratified over blocks of this many operations.
EPSILON_BLOCK = 10
#: Closed-loop operations count as deadline hits when answered in full
#: within this latency.
INTERACTIVE_DEADLINE_MS = 500.0

#: Open-loop arrival rate in reference-host time (see ``Serve.run``), fixed
#: here and never derived from measured service time: a third of the
#: ~24 qps one 2-core host served when the benchmark was written.
SERVE_RATE_QPS = 8.0
SERVE_DEADLINES_MS = (100.0, 300.0, 1000.0)
SERVE_EPSILON = 0.1
SERVE_MAX_STEP_ROWS = 50_000
#: Far above the queue depth reached at SERVE_RATE_QPS, so nothing is shed.
SERVE_MAX_QUEUE = 64
#: The run is invalid when the generator's p95 lag behind the arrival
#: schedule exceeds this.
GENERATOR_LAG_BOUND_MS = 50.0


@dataclass
class Op:
    """One operation's outcome, as the benchmark observed it."""

    index: int
    query: str
    status: str  # "completed", "partial", "shed" or "error"
    failure: str | None = None
    #: The failure is a wrong answer or a crash, not a refused or empty one.
    wrong: bool = False
    latency_ms: float = math.nan
    #: Host stalls within the operation (:func:`stall_ms`); the end-to-end
    #: latencies leave them out.
    stall_ms: float = 0.0
    #: Reference over measured host speed around the operation
    #: (:class:`hostspeed.HostSpeed`).
    speed: float = 1.0
    #: The report's clock is the wall clock (``serve``), not the cost model.
    wall_clock_report: bool = False
    deadline_ms: float = INTERACTIVE_DEADLINE_MS
    report: object = None
    matching: tuple = ()
    # Open loop only: due, submit and finish times on the monotonic clock.
    due_ns: float = math.nan
    submit_ns: float = math.nan
    finish_ns: float = math.nan

    @property
    def ref_ms(self) -> float:
        """Latency less host stalls, at the reference host speed."""
        return (self.latency_ms - self.stall_ms) * self.speed

    @property
    def answered(self) -> bool:
        return self.report is not None

    @property
    def hit(self) -> bool:
        return (
            self.status == COMPLETED
            and self.failure is None
            and self.ref_ms <= self.deadline_ms
        )


def check_answer(report, k: int, groups: int) -> tuple[str | None, bool]:
    """Why an answer fails, and whether that makes it wrong.

    A full answer must carry a passing audit of both guarantees against the
    exact ground truth, ``k`` distinct candidates, ``(k, groups)``
    histograms and finite distances; otherwise it is wrong.  A partial
    answer must be well formed for the candidates it returns (wrong
    otherwise) and carry a finite ``achieved_epsilon``.  One without it
    promises nothing: the operation failed, but the answer is not wrong.
    Returns ``(None, False)`` when the answer passes.
    """
    result = report.result
    matching = tuple(int(c) for c in result.matching)
    size = len(matching) if report.partial else k
    if len(matching) != size or len(set(matching)) != size or size > k:
        return f"expected {k} distinct candidates, got {matching}", True
    if np.shape(result.histograms) != (size, groups):
        return (f"histograms of shape {np.shape(result.histograms)}, "
                f"expected {(size, groups)}"), True
    if len(result.distances) != size or not np.all(np.isfinite(result.distances)):
        return "distances missing or not finite", True
    if report.partial:
        eps = report.achieved_epsilon
        if eps is None or not math.isfinite(eps):
            return (f"partial answer of {size} candidates without a finite "
                    f"achieved_epsilon ({eps!r})"), False
    elif report.audit is None:
        return "full answer without an audit", True
    elif not report.audit.separation_ok:
        return "separation audit failed", True
    elif not report.audit.reconstruction_ok:
        return "reconstruction audit failed", True
    return None, False


def _digest(items) -> str:
    return hashlib.sha256(repr(list(items)).encode()).hexdigest()[:16]


def _cycles(rng, items):
    """Endless seeded permutations of ``items``: every block of
    ``len(items)`` operations holds each item once, so the mix is the same
    in every run."""
    while True:
        for index in rng.permutation(len(items)):
            yield items[index]


def _stratified(rng, n: int) -> np.ndarray:
    """``n`` uniforms on [0, 1) by Latin-hypercube sampling, in seeded order:
    one from each of ``n`` equal strata, so every run draws the same spread
    of values and only their order and jitter change with the seed."""
    return rng.permutation((np.arange(n) + rng.uniform(size=n)) / n)


def lag_ms(ops: list[Op]) -> np.ndarray:
    """How late the generator submitted each request (open loop only)."""
    return np.array([(op.submit_ns - op.due_ns) * 1e-6 for op in ops])


def sim_ms(op: Op) -> float:
    """The report's own latency.  Under a simulated clock this is the cost
    model's; the serving registry runs on the wall clock, where it is the
    request's service time, here at the reference host speed."""
    ms = op.report.elapsed_ns * 1e-6
    return ms * op.speed if op.wall_clock_report else ms


class _Workload:
    """What both workloads share: warm-up, cache counters, reference scans."""

    name: str
    sessions: list
    #: (query name, session, HistogramQuery) for every query the workload runs.
    targets: list

    def warm(self) -> None:
        for _, session, query in self.targets:
            session.prepared(query)

    def cache(self) -> tuple[tuple[int, int, int], int]:
        """((prepared hits, misses, evictions in any layer), cached bytes)."""
        counts = tuple(
            sum(values) for values in zip(*(
                (s.cache_stats.hits.get("prepared", 0),
                 s.cache_stats.misses.get("prepared", 0),
                 s.cache_stats.total_evictions)
                for s in self.sessions
            ))
        )
        return counts, sum(s.cache_bytes for s in self.sessions)

    def reference_scans(self) -> list[tuple[float, int]]:
        """Exact-scan wall time (ms) and row count, once per query."""
        out = []
        for _, session, query in self.targets:
            prepared = session.prepared(query)
            started = time.perf_counter()
            run_approach(prepared, "scan", HistSimConfig(k=query.k))
            out.append(((time.perf_counter() - started) * 1e3, prepared.shuffled.num_rows))
        return out


class Interactive(_Workload):
    """Closed loop, one client: the four FLIGHTS queries at 10M rows."""

    name = "interactive"
    queries = ("flights-q1", "flights-q2", "flights-q3", "flights-q4")
    op_of_request = None  # closed loop: jobs are built by make_job

    def __init__(self, rows: int) -> None:
        self.rows = rows

    def build(self, spans, backend=None) -> None:
        with spans.span("data.build"):
            table = load_dataset("flights", rows=self.rows).table
        self.session = MatchSession(table) if backend is None else MatchSession(
            table, backend=backend
        )
        self.sessions = [self.session]
        self.specs = {name: workload_query(name)[1] for name in self.queries}
        self.targets = [(name, self.session, q) for name, q in self.specs.items()]
        self.groups = {
            name: table.cardinality(q.grouping_attribute) for name, q in self.specs.items()
        }

    def plan(self, seed: int):
        """Endless (query, ε) operations: seeded query order and ε draws.

        Each query's ε values come in stratified blocks of EPSILON_BLOCK, so
        the share of easy and hard operations is the same in every run."""
        rng = np.random.default_rng(seed)
        low, high = EPSILON_RANGE
        draws = {name: iter(()) for name in self.queries}
        for name in _cycles(rng, self.queries):
            eps = next(draws[name], None)
            if eps is None:
                draws[name] = iter(low + (high - low) * _stratified(rng, EPSILON_BLOCK))
                eps = next(draws[name])
            yield name, float(eps)

    def run(self, plan, seconds: float, min_ops: int, spans, speed: HostSpeed
            ) -> tuple[list[Op], float, float, int]:
        """Run operations for ``seconds`` and at least ``min_ops`` of them,
        with a pass of the host-speed kernel before the first and after each.

        Returns the operations, the loop's wall time, the operations' own
        time at the reference host speed (s), and the index of the span
        covering the loop (``-1`` when not tracing).
        """
        ops: list[Op] = []
        started = time.perf_counter_ns()
        with spans.span("run") as root:
            before = speed.measure()
            for index, (name, eps) in enumerate(plan):
                if index >= min_ops and time.perf_counter_ns() - started >= seconds * 1e9:
                    break
                op = self._operation(index, name, eps, spans)
                after = speed.measure()
                op.speed, before = speed.factor(before, after), after
                ops.append(op)
        wall = (time.perf_counter_ns() - started) * 1e-9
        own = sum(op.ref_ms for op in ops) * 1e-3
        return ops, wall, own, -1 if root is None else root

    def _operation(self, index: int, name: str, eps: float, spans) -> Op:
        query = self.specs[name]
        config = HistSimConfig(k=query.k, epsilon=eps)
        spans.op = index
        started = host_clock()
        try:
            with spans.span("op"):
                outcome = self.session.match(query, config=config)
        except Exception as exc:  # every failure is counted, none stops the run
            ended = host_clock()
            return Op(index, name, "error", failure=repr(exc), wrong=True,
                      latency_ms=(ended[0] - started[0]) * 1e-6,
                      stall_ms=stall_ms(started, ended))
        ended = host_clock()
        report = outcome.report
        op = Op(index, name, PARTIAL if report.partial else COMPLETED,
                latency_ms=(ended[0] - started[0]) * 1e-6,
                stall_ms=stall_ms(started, ended), report=report,
                matching=tuple(int(c) for c in report.result.matching))
        op.failure, op.wrong = check_answer(report, query.k, self.groups[name])
        return op

    def digest(self, ops: list[Op], min_ops: int) -> str:
        """Digest of the first ``min_ops`` answers: every run makes them."""
        return _digest((op.query, op.matching) for op in ops[:min_ops])

    def close(self) -> None:
        self.session.close()


class Serve(_Workload):
    """Open loop: Poisson arrivals into the asyncio front door over a
    two-tenant registry (FLIGHTS and POLICE at 1M rows)."""

    name = "serve"
    datasets = ("flights", "police")
    queries = (
        "flights-q1", "flights-q2", "flights-q3", "flights-q4",
        "police-q1", "police-q2", "police-q3",
    )

    def __init__(self, rows: int) -> None:
        self.rows = rows

    @staticmethod
    def op_of_request(request) -> int:
        return int(request.name[1:])

    def build(self, spans, backend=None) -> None:
        kwargs = {} if backend is None else {"backend": backend}
        self.registry = SessionRegistry(clock=WallClock(), **kwargs)
        for dataset in self.datasets:
            with spans.span("data.build"):
                table = load_dataset(dataset, rows=self.rows).table
            self.registry.add_dataset(dataset, table)
        self.sessions = [self.registry.session(d) for d in self.datasets]
        self.specs = {name: workload_query(name) for name in self.queries}
        self.targets = [
            (name, self.registry.session(d), q) for name, (d, q) in self.specs.items()
        ]
        self.groups = {
            name: session.table.cardinality(q.grouping_attribute)
            for name, session, q in self.targets
        }

    def plan(self, seed: int, seconds: float, min_ops: int) -> list[tuple[float, str, float]]:
        """(due time in s, query, deadline in ms) per request.

        Requests come in blocks of one per (query, deadline) pair, in seeded
        order.  Each block's gaps are drawn by Latin-hypercube sampling of
        the exponential at SERVE_RATE_QPS: one gap from each of the block's
        equal-probability strata, in seeded order.  Every gap is exponential,
        as in a Poisson process, while every block offers the same load, so
        a run's tail is not set by where one long burst happens to fall.
        """
        rng = np.random.default_rng(seed)
        kinds = [(q, d) for q in self.queries for d in SERVE_DEADLINES_MS]
        n = max(min_ops, math.ceil(SERVE_RATE_QPS * seconds))
        plan, due = [], 0.0
        while len(plan) < n:
            gaps = -np.log1p(-_stratified(rng, len(kinds))) / SERVE_RATE_QPS
            for gap, index in zip(gaps, rng.permutation(len(kinds))):
                due += float(gap)
                plan.append((due, *kinds[index]))
        return plan[:n]

    async def run(self, door, plan, spans, selector: IdleSelector, speed: HostSpeed
                  ) -> tuple[list[Op], float, float, int]:
        """Submit ``plan`` on schedule from this one coroutine; await every
        outcome.  Returns the operations, the wall time from the first due
        time to the last outcome, the same span in reference-host time (s),
        and the loop span's index.

        The open loop runs on reference-host time: each gap of the plan and
        each deadline is stretched by the host's current slowdown
        (:meth:`HostSpeed.slowdown`), and each latency is brought back to
        reference speed.  A slower host therefore gets as many arrivals per
        unit of its own work as the reference host, the queues are the
        program's, and the rate stays a constant that no measurement of the
        program changes.

        A request's host stalls are counted from its submission to the
        moment its outcome reaches the benchmark, ``selector`` giving the
        event loop's idle time.  As in ``interactive``, a host-speed kernel
        pass runs right after each answer arrives, and a request's speed
        comes from the last pass before its submission and its own.
        """
        clock = self.registry.clock
        # The wall clock's origin on the monotonic timeline.
        origin_ns = time.monotonic_ns() - clock.elapsed_ns
        ops: list[Op] = []
        waiting = []
        with spans.span("run") as root:
            for _ in range(RECENT_PASSES):
                speed.measure()
            due_ns, previous_s = time.monotonic_ns() + 5e6, plan[0][0]
            for index, (due_s, name, deadline_ms) in enumerate(plan):
                slowdown = speed.slowdown()
                due_ns += (due_s - previous_s) * 1e9 * slowdown
                previous_s = due_s
                delay = (due_ns - time.monotonic_ns()) * 1e-9
                if delay > 0:
                    await asyncio.sleep(delay)
                dataset, query = self.specs[name]
                request = QueryRequest(
                    query,
                    config=HistSimConfig(k=query.k, epsilon=SERVE_EPSILON),
                    deadline_ns=deadline_ms * 1e6 * slowdown,
                    on_deadline="partial",
                    name=f"r{index}",
                    dataset=dataset,
                )
                submitted = host_clock(selector)
                op = Op(index, name, "error", deadline_ms=deadline_ms, due_ns=due_ns,
                        submit_ns=time.monotonic_ns(), wall_clock_report=True)
                ops.append(op)
                try:
                    with spans.span("serving.admit", index):
                        handle = await door.submit(request)
                except AdmissionRejected as exc:
                    op.status, op.failure = "shed", repr(exc)
                    continue
                except Exception as exc:  # counted as a failure, the run goes on
                    op.failure, op.wrong = repr(exc), True
                    continue
                before = speed.passes[-1][1]
                waiting.append((op, submitted, before,
                                asyncio.ensure_future(_answer(handle, selector, speed))))
            for op, submitted, before, answer in waiting:
                outcome, answered, after = await answer
                self._settle(op, outcome, origin_ns)
                op.stall_ms = stall_ms(submitted, answered)
                op.speed = speed.factor(before, after)
        answered = [(op, due_s) for op, (due_s, _, _) in zip(ops, plan) if op.answered]
        wall = max((op.finish_ns - ops[0].due_ns for op, _ in answered), default=0.0) * 1e-9
        reference = max((due_s - plan[0][0] + op.ref_ms * 1e-3 for op, due_s in answered),
                        default=0.0)
        return ops, wall, reference, -1 if root is None else root

    def _settle(self, op: Op, outcome, origin_ns: float) -> None:
        op.finish_ns = origin_ns + outcome.finished_ns
        op.latency_ms = (op.finish_ns - op.due_ns) * 1e-6
        op.status = outcome.status
        if outcome.report is None:
            op.failure = f"{outcome.status}: {outcome.error!r}"
            return
        op.report = outcome.report
        op.matching = tuple(int(c) for c in outcome.report.result.matching)
        if op.status not in (COMPLETED, PARTIAL):
            op.failure, op.wrong = f"answer with status {op.status}", True
            return
        _, query = self.specs[op.query]
        op.failure, op.wrong = check_answer(outcome.report, query.k, self.groups[op.query])

    def door(self):
        return self.registry.serve_async(
            max_queue=SERVE_MAX_QUEUE, default_max_step_rows=SERVE_MAX_STEP_ROWS
        )

    def digest(self, ops: list[Op], min_ops: int) -> str:
        """Digest of the distinct full answers.  Each query has one fixed
        configuration and seed, so its full answer does not depend on
        timing; which requests were cut to partial answers does."""
        answers = sorted({(op.query, op.matching) for op in ops if op.status == COMPLETED})
        return _digest(answers)

    def close(self) -> None:
        self.registry.close()


async def _answer(handle, selector: IdleSelector, speed: HostSpeed):
    """The request's outcome, the host clock when it arrived and a host-speed
    kernel pass (CPU ms) run right after.  The front door resolves a handle
    between engine steps, and this wake-up runs before the next step."""
    outcome = await handle.outcome()
    answered = host_clock(selector)
    return outcome, answered, speed.measure()


def make_workload(name: str, rows: int):
    if name == "interactive":
        return Interactive(rows)
    if name == "serve":
        return Serve(rows)
    raise ValueError(f"unknown workload {name!r}")
