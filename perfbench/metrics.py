"""End-to-end and per-layer metrics from the recorded operations and spans.

Every ``*_ms`` per-layer metric is milliseconds per operation of the traced
phase, unless its name says otherwise (``serving.step_ms`` is per step,
``system.prepare_ms`` and its children are per call).
"""

from __future__ import annotations

import statistics

import numpy as np

from tracing import layer_budget
from workloads import lag_ms, sim_ms

MIB = float(2**20)


def _median(values) -> float:
    return float(statistics.median(values)) if len(values) else 0.0


def latency_summary(ops, wall: bool = False) -> tuple[float, float, int, int]:
    """(p50, p95, samples, samples beyond p95) of the answered operations'
    latencies at the reference host speed, or of their wall latencies."""
    latencies = np.array([op.latency_ms if wall else op.ref_ms for op in ops if op.answered])
    if latencies.size == 0:
        return 0.0, 0.0, 0, 0
    p95 = float(np.percentile(latencies, 95))
    return _median(latencies), p95, int(latencies.size), int((latencies > p95).sum())


def end_to_end(ops, loop_s: float, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics; ``loop_s`` is the time throughput divides by."""
    answered = [op for op in ops if op.answered]
    p50, p95, _, _ = latency_summary(ops)
    return {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (p50, "ms"),
        "latency_p95_ms": (p95, "ms"),
        "throughput_qps": (len(answered) / loop_s if loop_s > 0 else 0.0, "1/s"),
        "deadline_hit_rate": (sum(op.hit for op in ops) / len(ops), "ratio"),
        "sim_latency_p50_ms": (_median([sim_ms(op) for op in answered]), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }


def _union_ns(intervals) -> float:
    total, end = 0.0, -np.inf
    for lo, hi in sorted(intervals):
        if hi > end:
            total += hi - max(lo, end)
            end = hi
    return total


def per_layer(workload, spans, root, ops, base_ops, import_s, scans, cache_delta,
              cache_bytes) -> dict:
    """The per-layer metrics of one traced run.

    ``ops``/``root`` are the traced phase's operations and loop span;
    ``base_ops`` the untraced phase's, for the tracing overhead.
    """
    n = max(len(ops), 1)
    window = spans.subtree(root)

    def total_ns(name, within=window):
        return float(sum(spans.durations(name, within)))

    def per_call_ms(name):
        calls = spans.durations(name)
        return float(np.mean(calls)) * 1e-6 if calls else 0.0

    answered = [op for op in ops if op.answered]
    counters = [op.report.counters for op in answered]
    rows = sum(c["rows_delivered"] for c in counters)
    blocks_read = sum(c["blocks_read"] for c in counters)
    blocks_skipped = sum(c["blocks_skipped"] for c in counters)
    stages = {s: total_ns(f"core.{s}") for s in ("stage1", "stage2", "stage3")}
    step_ns = sum(stages.values())
    engine_ns = total_ns("sampling.engine")
    count_ns = total_ns("parallel.count")
    audit_ns = total_ns("system.audit")
    steps = [d for s in stages for d in spans.durations(f"core.{s}", window)]
    hits, misses, evictions = cache_delta

    m = {
        "import.repro_s": (import_s, "s"),
        "data.build_s": (total_ns("data.build", None) * 1e-9, "s"),
        "system.prepare_ms": (per_call_ms("system.prepare"), "ms"),
        "storage.shuffle_ms": (per_call_ms("storage.shuffle"), "ms"),
        "bitmap.index_ms": (per_call_ms("bitmap.index"), "ms"),
        "query.ground_truth_ms": (per_call_ms("query.ground_truth"), "ms"),
        "system.cache_hit_rate": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "system.cache_evictions": (evictions, "count"),
        "system.cache_mb": (cache_bytes / MIB, "MiB"),
        "system.job_build_ms": (total_ns("system.job_build") / n * 1e-6, "ms"),
        "core.stage1_ms": (stages["stage1"] / n * 1e-6, "ms"),
        "core.stage2_ms": (stages["stage2"] / n * 1e-6, "ms"),
        "core.stage3_ms": (stages["stage3"] / n * 1e-6, "ms"),
        "core.stage1_pvalue_ms": (total_ns("core.pvalues") / n * 1e-6, "ms"),
        "core.stats_ms": ((step_ns - engine_ns) / n * 1e-6, "ms"),
        "sampling.engine_ms": ((engine_ns - count_ns) / n * 1e-6, "ms"),
        "sampling.ns_per_row": ((engine_ns - count_ns) / rows if rows else 0.0, "ns"),
        "parallel.count_ms": (count_ns / n * 1e-6, "ms"),
        "parallel.ns_per_row": (count_ns / rows if rows else 0.0, "ns"),
        "parallel.windows_per_op": (len(spans.durations("parallel.count", window)) / n, "count"),
        "sampling.rows_per_op": (rows / n, "count"),
        "sampling.blocks_read_per_op": (blocks_read / n, "count"),
        "sampling.probes_per_op": (sum(c["probes"] for c in counters) / n, "count"),
        "sampling.block_skip_share": (
            blocks_skipped / (blocks_read + blocks_skipped) if blocks_read else 0.0, "ratio"
        ),
        "core.rounds_per_op": (
            sum(op.report.result.stats.rounds for op in answered) / n, "count"
        ),
        "system.audit_ms": (audit_ns / n * 1e-6, "ms"),
        "ref.scan_ms": (float(np.mean([ms for ms, _ in scans])), "ms"),
        "ref.scan_ns_per_row": (float(np.mean([ms * 1e6 / r for ms, r in scans])), "ns"),
    }
    if workload.name == "serve":
        m["sim.wall_ratio"] = (0.0, "ratio")  # the registry's clock is the wall clock
    else:
        m["sim.wall_ratio"] = (
            _median([op.latency_ms / sim_ms(op) for op in answered]), "ratio"
        )

    # Serving layers: zero where the workload has no front door.
    own_ns: dict[int, float] = {}
    for i in window:
        name, start, end, _, op = spans.records[i]
        if op is not None and (name.startswith("core.stage") or name == "system.audit"):
            own_ns[op] = own_ns.get(op, 0.0) + (end - start)
    serving = workload.name == "serve"
    waits = [op.latency_ms - own_ns.get(op.index, 0.0) * 1e-6 for op in answered]
    busy_ns = _union_ns((op.submit_ns, op.finish_ns) for op in answered) if serving else 0.0
    lags = lag_ms(ops) if serving else np.zeros(1)
    m.update({
        "serving.admit_ms": (per_call_ms("serving.admit"), "ms"),
        "serving.queue_wait_p50_ms": (_median(waits) if serving else 0.0, "ms"),
        "serving.queue_wait_p95_ms": (
            float(np.percentile(waits, 95)) if serving and waits else 0.0, "ms"
        ),
        "serving.steps_per_request": (len(steps) / n if serving else 0.0, "count"),
        "serving.step_ms": (float(np.mean(steps)) * 1e-6 if serving and steps else 0.0, "ms"),
        "serving.loop_overhead_share": (
            1.0 - (step_ns + audit_ns) / busy_ns if busy_ns > 0 else 0.0, "ratio"
        ),
        "serving.partial_share": (
            sum(op.status == "partial" for op in ops) / n if serving else 0.0, "ratio"
        ),
        "serving.shed_share": (sum(op.status == "shed" for op in ops) / n, "ratio"),
        "serving.generator_lag_p50_ms": (_median(lags), "ms"),
        "serving.generator_lag_max_ms": (float(lags.max()), "ms"),
    })
    traced_p50 = latency_summary(ops)[0]
    base_p50 = latency_summary(base_ops)[0]
    m["trace.overhead_share"] = (
        (traced_p50 - base_p50) / base_p50 if base_p50 > 0 else 0.0, "ratio"
    )
    return m


def budget_table(spans, root, ops) -> tuple[list[str], float, float]:
    """Printable self-time budget of the traced loop, its sum and the wall time."""
    budget, total_ns, wall_ns = layer_budget(spans, root)
    n = max(len(ops), 1)
    labels = {
        "run": "benchmark loop, scheduler and idle (outside any span)",
        "op": "system.session: submit, scheduling, report assembly",
    }
    lines = [f"  {'layer':<22} {'self ms/op':>11} {'share':>7}"]
    for name, ns in sorted(budget.items(), key=lambda item: -item[1]):
        lines.append(
            f"  {name:<22} {ns / n * 1e-6:>11.3f} {ns / wall_ns:>7.1%}"
            + (f"  {labels[name]}" if name in labels else "")
        )
    lines.append(f"  {'sum of self times':<22} {total_ns / n * 1e-6:>11.3f} {total_ns / wall_ns:>7.1%}")
    lines.append(f"  {'traced wall time':<22} {wall_ns / n * 1e-6:>11.3f} {1:>7.1%}")
    return lines, total_ns, wall_ns
