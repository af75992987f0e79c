"""Span recording for the traced run, from outside the program.

Nothing here changes ``src/``: the traced run gets its timings by wrapping
the calls the benchmark makes into each layer's public functions.

- :class:`Spans` keeps every span in memory (name, start, end, parent,
  operation id) and writes them out when the run ends.
- :class:`TimedBackend` is a :class:`repro.SerialBackend` subclass passed as
  ``backend=``; it times ``run_uniform``/``run_sampling`` (the sampling
  engine and policies) and ``count_blocks`` (the counting kernels).
- :func:`patched_layers` wraps ``shuffle_table``, ``build_bitmap_index`` and
  ``exact_candidate_counts`` on ``repro.system.session`` and
  ``underrepresentation_pvalues`` on ``repro.core.histsim``.
- :func:`traced_session` wraps one session's ``prepared``, ``make_job`` and
  ``job_for_request`` so every job it builds has its ``step`` and ``finish``
  timed.

These wrappers follow the program's current module layout; the end-to-end
runs never use them.
"""

from __future__ import annotations

import contextlib
import json
import time

import repro
import repro.core.histsim as histsim_module
import repro.system.session as session_module

#: Allowed gap between the per-layer self times and the traced wall time,
#: as a share of the traced wall time.
SELF_TIME_TOLERANCE = 0.01

#: Layer functions wrapped on their importing module: (module, attribute, span).
_PATCHES = (
    (session_module, "shuffle_table", "storage.shuffle"),
    (session_module, "build_bitmap_index", "bitmap.index"),
    (session_module, "exact_candidate_counts", "query.ground_truth"),
    (histsim_module, "underrepresentation_pvalues", "core.pvalues"),
)


class Spans:
    """In-memory span store; nesting follows the (single-threaded) call stack."""

    def __init__(self) -> None:
        self.enabled = False
        self.op: int | None = None
        # Each span is [name, start_ns, end_ns, parent index, op id].
        self.records: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int | None = None):
        if not self.enabled:
            yield None
            return
        index = len(self.records)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter_ns(), 0, parent, self.op if op is None else op]
        self.records.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    def wrap(self, name: str, fn, op: int | None = None):
        def timed(*args, **kwargs):
            with self.span(name, op):
                return fn(*args, **kwargs)

        timed.__wrapped__ = fn
        return timed

    # ---------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Self time (ns) per span: its duration minus its children's."""
        own = [float(end - start) for _, start, end, _, _ in self.records]
        for _, start, end, parent, _ in self.records:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and every span nested under it."""
        inside = {root}
        for index in range(root + 1, len(self.records)):
            if self.records[index][3] in inside:
                inside.add(index)
        return sorted(inside)

    def durations(self, name: str, within: list[int] | None = None) -> list[float]:
        indices = range(len(self.records)) if within is None else within
        return [
            float(self.records[i][2] - self.records[i][1])
            for i in indices
            if self.records[i][0] == name
        ]

    def write(self, path) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op in self.records:
                out.write(
                    json.dumps(
                        {"name": name, "start_ns": start, "end_ns": end,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def layer_budget(spans: Spans, root: int) -> tuple[dict[str, float], float, float]:
    """Self time per layer (ns) inside the ``root`` span.

    Returns ``(layer -> self ns, sum of non-negative self times, root
    duration)``.  A negative self time means overlapping or double-counted
    spans; clamping it at zero makes the sum exceed the root duration, which
    :func:`check_budget` catches.
    """
    own = spans.self_times()
    budget: dict[str, float] = {}
    total = 0.0
    for index in spans.subtree(root):
        name = spans.records[index][0]
        value = max(own[index], 0.0)
        budget[name] = budget.get(name, 0.0) + value
        total += value
    name, start, end, _, _ = spans.records[root]
    return budget, total, float(end - start)


def check_budget(total_ns: float, wall_ns: float) -> bool:
    return wall_ns > 0 and abs(total_ns - wall_ns) <= SELF_TIME_TOLERANCE * wall_ns


class TimedBackend(repro.SerialBackend):
    """The serial backend with its algorithm- and engine-level calls timed."""

    def __init__(self, spans: Spans) -> None:
        super().__init__()
        self.spans = spans

    def run_uniform(self, sampler, m):
        if not self.spans.enabled:
            return super().run_uniform(sampler, m)
        with self.spans.span("sampling.engine"):
            return super().run_uniform(sampler, m)

    def run_sampling(self, sampler, needed, max_rows=None):
        if not self.spans.enabled:
            return super().run_sampling(sampler, needed, max_rows=max_rows)
        with self.spans.span("sampling.engine"):
            return super().run_sampling(sampler, needed, max_rows=max_rows)

    def count_blocks(self, source, blocks):
        if not self.spans.enabled:
            return super().count_blocks(source, blocks)
        with self.spans.span("parallel.count"):
            return super().count_blocks(source, blocks)


@contextlib.contextmanager
def patched_layers(spans: Spans):
    """Wrap the module-level layer functions for the duration of the block."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in _PATCHES]
    for (module, attr, name), (_, _, fn) in zip(_PATCHES, originals):
        setattr(module, attr, spans.wrap(name, fn))
    try:
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def _timed_job(spans: Spans, job, op: int | None):
    """Time one job's steps (grouped by the stage they run) and its finish."""
    step, finish, finish_partial = job.step, job.finish, job.finish_partial

    def timed_step():
        with spans.span(f"core.{job.stepper.stage_name}", op):
            return step()

    job.step = timed_step
    job.finish = spans.wrap("system.audit", finish, op)
    job.finish_partial = spans.wrap("system.audit", finish_partial, op)
    return job


@contextlib.contextmanager
def traced_session(spans: Spans, session, op_of_request=None):
    """Wrap one session's job-building seams for the duration of the block.

    Closed-loop sessions get ``make_job`` wrapped; serving sessions get
    ``job_for_request`` wrapped instead (it calls ``make_job``), with
    ``op_of_request`` naming the operation each request belongs to.
    """
    prepared, make_job, job_for_request = (
        session.prepared, session.make_job, session.job_for_request
    )

    def timed_prepared(query, seed=0):
        misses = session.cache_stats.misses.get("prepared", 0)
        with spans.span("system.prepare") as index:
            result = prepared(query, seed=seed)
            if index is not None and session.cache_stats.misses.get("prepared", 0) == misses:
                spans.records[index][0] = "system.prepare_hit"
        return result

    def timed_make_job(*args, **kwargs):
        with spans.span("system.job_build"):
            job = make_job(*args, **kwargs)
        return _timed_job(spans, job, spans.op)

    def timed_job_for_request(request, default_max_step_rows=None):
        op = op_of_request(request)
        with spans.span("system.job_build", op):
            job = job_for_request(request, default_max_step_rows)
        return _timed_job(spans, job, op)

    session.prepared = timed_prepared
    if op_of_request is None:
        session.make_job = timed_make_job
    else:
        session.job_for_request = timed_job_for_request
    try:
        yield
    finally:
        for attr in ("prepared", "make_job", "job_for_request"):
            session.__dict__.pop(attr, None)
