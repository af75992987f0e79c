"""Wall-clock benchmark of the FastMatch front doors.

Run from the repository root::

    python3 perfbench/run.py --workload interactive --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 25 --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the same operations twice, untraced then traced, and
prints the per-layer metrics and the self-time budget of the traced pass.
Each run checks every answer and prints, as its last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A
results record with provenance and (when tracing) the spans are written
under ``perfbench/out/``.  NOTES.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("interactive", "serve")


@dataclass(frozen=True)
class Scale:
    """Input sizes: ``full`` for measurements, ``toy`` for the self-test."""

    rows: dict
    min_ops: dict
    setup_repeats: int


SCALES = {
    # 200 operations leave 10 samples beyond p95.  serve takes 378 requests
    # (18 blocks of 21, 47.25 s of reference time at 8 qps): its open-loop
    # tail is the noisiest figure, and more requests steady it.
    "full": Scale(rows={"interactive": 10_000_000, "serve": 1_000_000},
                  min_ops={"interactive": 200, "serve": 378}, setup_repeats=3),
    "toy": Scale(rows={"interactive": 60_000, "serve": 60_000},
                 min_ops={"interactive": 8, "serve": 8}, setup_repeats=2),
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="input sizes; 'toy' is for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def child_setup_s(args) -> tuple[float, float]:
    """Set-up time of a fresh process (import, data, sessions, warm prepares):
    (less host stalls, as measured), in seconds."""
    command = [sys.executable, str(Path(__file__)), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale,
               "--setup-only"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return float(result["setup_s"]), float(result["wall_s"])


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(args, scale) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale, "rows": scale.rows[args.workload],
        "commit": commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_ops(workload, spans, plan, seconds, min_ops, loop, selector, door):
    """One measured pass of the workload's loop, with its own host-speed record."""
    from hostspeed import REFERENCE_MS, HostSpeed

    speed = HostSpeed(REFERENCE_MS[workload.name])
    if door is not None:
        ran = loop.run_until_complete(workload.run(door, plan, spans, selector, speed))
    else:
        ran = workload.run(plan, seconds, min_ops, spans, speed)
    return (*ran, speed.median_ms())


@contextlib.contextmanager
def tracing(spans, workload):
    """Spans on, with the layer functions and session seams wrapped."""
    from tracing import patched_layers, traced_session

    with contextlib.ExitStack() as stack:
        stack.enter_context(patched_layers(spans))
        for session in workload.sessions:
            stack.enter_context(traced_session(spans, session, workload.op_of_request))
        spans.enabled = True
        try:
            yield
        finally:
            spans.enabled = False


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC} holds no repro package; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    scale = SCALES[args.scale]
    # Extra set-ups run first, in fresh processes, so their memory is gone
    # before this process allocates its own.
    setups = []
    if not args.setup_only and not args.trace:
        setups = [child_setup_s(args) for _ in range(scale.setup_repeats - 1)]

    started = (time.perf_counter_ns(), time.process_time_ns(), 0)
    import repro  # noqa: F401  (timed: the first import of the program)

    import_s = (time.perf_counter_ns() - started[0]) * 1e-9
    import numpy as np

    import metrics
    from hostspeed import REFERENCE_MS, IdleSelector, host_clock, stall_ms
    from tracing import SELF_TIME_TOLERANCE, Spans, TimedBackend, check_budget
    from workloads import GENERATOR_LAG_BOUND_MS, lag_ms, make_workload

    spans = Spans()
    workload = make_workload(args.workload, scale.rows[args.workload])
    backend = TimedBackend(spans) if args.trace else None
    spans.enabled = bool(args.trace)  # times load_dataset
    workload.build(spans, backend)
    with tracing(spans, workload) if args.trace else contextlib.nullcontext():
        workload.warm()
    selector = IdleSelector()
    loop = asyncio.SelectorEventLoop(selector)
    asyncio.set_event_loop(loop)
    door = None
    if workload.name == "serve":
        door = workload.door()
        loop.run_until_complete(_start(door))
    # Set-up time is not scaled by host speed: no kernel pass tracked it.
    # Scaled by passes between its phases, the medians of two ten-run sets
    # moved 15% one way while their wall times moved 13% the other.
    ready = host_clock()
    wall_s = (ready[0] - started[0]) * 1e-9
    setups.append((wall_s - stall_ms(started, ready) * 1e-3, wall_s))
    if args.setup_only:
        if door is not None:
            loop.run_until_complete(door.shutdown())
        print(json.dumps({"setup_s": setups[-1][0], "wall_s": setups[-1][1]}))
        return 0

    seconds, min_ops = args.seconds, scale.min_ops[workload.name]
    if args.trace:  # two passes of half the length: untraced, then traced
        seconds, min_ops = seconds / 2, min_ops // 2
    if workload.name == "serve":
        plan = workload.plan(args.seed, seconds, min_ops)
    else:
        consumed = []
        plan = _recording(workload.plan(args.seed), consumed)
    ops, wall_s, loop_s, _, kernel_ms = run_ops(workload, spans, plan, seconds, min_ops,
                                                loop, selector, door)
    base_ops = ops
    root = -1
    if args.trace:
        if workload.name != "serve":
            plan = consumed[: len(ops)]
        cache_before = workload.cache()[0]
        with tracing(spans, workload):
            ops, wall_s, loop_s, root, kernel_ms = run_ops(
                workload, spans, plan, seconds, len(plan), loop, selector, door)
        scans = workload.reference_scans()
    if door is not None:
        loop.run_until_complete(door.shutdown())
    (cache_after, cache_bytes) = workload.cache()
    workload.close()
    loop.close()

    digest = workload.digest(ops, min_ops)
    failures = [op for op in ops if op.failure is not None]
    listed = [f"op {op.index} ({op.query}, {op.status}): {op.failure}"
              + (" [wrong answer]" if op.wrong else "") for op in failures]
    wrong = sum(op.wrong for op in failures)
    problems = [f"{wrong} wrong answer(s) or crash(es) among the failures"] if wrong else []
    valid = True
    lines = [f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
             f"ops {len(ops)}  loop wall {wall_s:.2f} s"]
    if workload.name == "serve":
        lags = lag_ms(ops)
        p95_lag = float(np.percentile(lags, 95))
        valid = p95_lag <= GENERATOR_LAG_BOUND_MS
        lines.append(
            f"generator lag p50 {statistics.median(lags):.2f} ms  p95 {p95_lag:.2f} ms  "
            f"max {lags.max():.2f} ms  (bound p95 <= {GENERATOR_LAG_BOUND_MS:.0f} ms: "
            f"{'valid' if valid else 'INVALID RUN'})"
        )
    _, _, samples, beyond = metrics.latency_summary(ops)
    wall_p50, wall_p95, _, _ = metrics.latency_summary(ops, wall=True)
    lines.append(f"latency samples {samples}, {beyond} beyond p95")
    stalls = sum(op.stall_ms for op in ops) * 1e-3
    lines.append(f"as measured: wall latency p50 {wall_p50:.2f} ms  p95 {wall_p95:.2f} ms; "
                 f"host stalls {stalls:.3f} s; host-speed kernel median {kernel_ms:.3f} ms "
                 f"(reference {REFERENCE_MS[workload.name]:.2f} ms)")
    lines.append(f"answer digest {digest}")
    if args.trace:
        base_digest = workload.digest(base_ops, min_ops)
        if base_digest != digest:
            problems.append(f"traced answers differ from untraced ({digest} != {base_digest})")
        delta = tuple(a - b for a, b in zip(cache_after, cache_before))
        values = metrics.per_layer(workload, spans, root, ops, base_ops, import_s, scans,
                                   delta, cache_bytes)
        table, total_ns, traced_ns = metrics.budget_table(spans, root, ops)
        consistent = check_budget(total_ns, traced_ns)
        if not consistent:
            problems.append("per-layer self times do not sum to the traced wall time")
        lines.append("self-time budget of the traced pass:")
        lines.extend(table)
        lines.append(
            f"self times sum to {total_ns / traced_ns:.4f} of the traced wall time "
            f"(tolerance {SELF_TIME_TOLERANCE:.0%}): "
            f"{'ok' if consistent else 'FAILED'}"
        )
        lines.append(f"trace.overhead_share {values['trace.overhead_share'][0]:+.4f}")
    else:
        values = metrics.end_to_end(ops, loop_s, statistics.median(s for s, _ in setups),
                                    peak_rss_mib())
        lines.append("set-up times less host stalls (s): "
                     + ", ".join(f"{s:.3f}" for s, _ in setups)
                     + "; as measured: " + ", ".join(f"{w:.3f}" for _, w in setups))
    attempted, failed = len(ops), len(failures)
    lines.append(f"failed_share {failed / attempted:.4f} ({failed} of {attempted})")
    lines.extend(f"FAILED {line}" for line in listed)
    lines.extend(f"CHECK FAILED {p}" for p in problems)
    correct = valid and not problems
    lines.append(f"answer check: {'pass' if correct else 'FAIL'}")
    for name, (value, unit) in values.items():
        lines.append(f"  {name:<30} {value:>14.4f} {unit}")

    record = {
        "provenance": provenance(args, scale), "digest": digest, "valid": valid,
        "set_up_s": setups, "failures": listed, "problems": problems,
        "ops": [[op.index, op.query, op.status, op.latency_ms, op.ref_ms] for op in ops],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans.write(OUT / f"{stem}.spans.jsonl")
    print("\n".join(lines))
    print("record: " + json.dumps(record["provenance"]))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


async def _start(door):
    door.start()


def _recording(plan, consumed):
    for item in plan:
        consumed.append(item)
        yield item


if __name__ == "__main__":
    sys.exit(main())
