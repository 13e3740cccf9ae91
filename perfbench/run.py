#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of the sumsetcover witness pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload frontier_q3 --seed 1 --seconds 25 --trace 0

Each workload is a closed loop in one single-threaded process: the next op
starts when the previous one returns.  Every op's witness is re-checked, and
at the default seed its digest must equal the one in digests.json.

--trace 0 prints the end-to-end metrics, whose times are normalised to a
nominal host speed by reference samples taken while the ops run (see
refclock.py); the unscaled wall-clock figures are printed above the result
line.  --trace 1 runs every cycle of
ops once untraced and once traced, prints the per-layer metrics and writes
every span to perfbench/out/.  The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The exit
code is 1 when any op failed, 2 when the library sources are missing and 3
when the cost guard refuses an instance; a refused or broken run prints no
result line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

# Fresh processes timed for setup_s; the median is reported.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150

sys.path.insert(0, str(HERE))
import refclock  # noqa: E402
import workloads  # noqa: E402  (library-free; safe before the src check)


@dataclass
class Phase:
    durations: list
    outcomes: list
    instances: list
    cycle_ends: list  # op count after each completed cycle


def run_cycle(batch, kind, phase: Phase, tracer=None, speed=None) -> None:
    """Run one cycle's ops in order, timing each op and checking it after.

    With a sampling SpeedLog, the reference samples taken during an op are
    left out of its time.
    """
    import ops

    def busy() -> float:
        return 0.0 if speed is None else speed.busy

    for inst in batch:
        arg = kind.prepare(inst)
        index = len(phase.durations)
        t0, busy0 = time.perf_counter(), busy()
        try:
            if tracer is None:
                raw = kind.run(arg)
            else:
                with tracer.op(index):
                    raw = kind.run(arg)
        except Exception:  # an op that raises is a failed op, not a crash
            elapsed = time.perf_counter() - t0 - (busy() - busy0)
            traceback.print_exc()
            outcome = ops.Outcome(False, "raised", "")
        else:
            elapsed = time.perf_counter() - t0 - (busy() - busy0)
            try:
                outcome = kind.check(inst, raw)
            except Exception:
                traceback.print_exc()
                outcome = ops.Outcome(False, "check raised", "")
        phase.durations.append(elapsed)
        phase.outcomes.append(outcome)
        phase.instances.append(inst)
    phase.cycle_ends.append(len(phase.durations))


def run_phase(wl, kind, seed: int, seconds: float, speed) -> Phase:
    """Closed loop over the seed's cycles until time is up and the counted cycles ran."""
    stream = workloads.cycles(wl, seed)
    phase = Phase([], [], [], [])
    start = time.perf_counter()
    with speed.sampling():
        while len(phase.cycle_ends) < wl.counter_cycles or time.perf_counter() - start < seconds:
            run_cycle(next(stream), kind, phase, speed=speed)
    return phase


def check_digests(wl, seed: int, phase: Phase) -> str:
    """Fail ops whose witness differs from the recorded one; return a summary."""
    prefix = phase.outcomes[: phase.cycle_ends[wl.counter_cycles - 1]]
    line = (
        f"witness digest over the first {len(prefix)} ops: "
        f"{workloads.combined_digest([o.digest for o in prefix])}"
    )
    if seed != workloads.DEFAULT_SEED:
        return line + f" (seed {seed} has no recorded digests)"
    recorded = json.loads(DIGESTS.read_text()).get(wl.name, []) if DIGESTS.is_file() else []
    checked = min(len(recorded), len(phase.outcomes))
    for i in range(checked):
        out = phase.outcomes[i]
        if out.ok and out.digest != recorded[i]:
            out.ok, out.reason = False, f"witness digest {out.digest} != recorded {recorded[i]}"
    return line + f"; {checked} of {len(phase.outcomes)} ops checked against recorded digests"


def report_failures(phase: Phase) -> int:
    failed = 0
    for i, (inst, out) in enumerate(zip(phase.instances, phase.outcomes)):
        if not out.ok:
            failed += 1
            print(f"FAILED op {i} (q={inst.q} n={inst.n} |S|={len(inst.S)} |T|={len(inst.T)}): "
                  f"{out.reason}", file=sys.stderr)
    return failed


def measure_setup(wl) -> list[tuple[float, float]]:
    """(normalised, wall) set-up seconds of SETUP_PROBES fresh processes, each run to completion."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", wl.name],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe exited with code {proc.returncode}")
        normalised, wall = proc.stdout.strip().splitlines()[-1].split()
        times.append((float(normalised), float(wall)))
    return times


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def time_metrics(phase: Phase, durations: list) -> tuple[float, float]:
    """(ops_per_s, op_s.p50) of one phase from the given per-op seconds.

    Throughput is verified ops over the timed seconds of whole cycles, so
    every run weighs the workload's mix of sizes alike.
    """
    verified = sum(o.ok for o in phase.outcomes)
    return verified / sum(durations), statistics.median(durations)


def untraced(wl, kind, seed: int, seconds: float, setup_times: list) -> tuple[dict, Phase, list]:
    speed = refclock.SpeedLog()
    phase = run_phase(wl, kind, seed, seconds, speed)
    lines = [check_digests(wl, seed, phase)]
    wall = phase.durations
    # Every time metric is in normalised seconds; see refclock.py.
    scale = speed.scale()
    d = [w * scale for w in wall]
    ops_per_s, p50 = time_metrics(phase, d)
    wall_ops_per_s, wall_p50 = time_metrics(phase, wall)
    metrics = {
        "ops_per_s": metric(ops_per_s, "1/s"),
        "op_s.p50": metric(p50, "s"),
        "setup_s": metric(statistics.median(n for n, _ in setup_times), "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    lines.append(f"ops: {len(d)} in {len(phase.cycle_ends)} cycles, {sum(wall):.3f} s timed; "
                 f"op_s.p50 is the median of {len(d)} samples")
    ref = sorted(speed.seconds)
    lines.append(f"host speed: {len(ref)} reference samples, median {statistics.median(ref):.5f} s, "
                 f"range {ref[0]:.5f} to {ref[-1]:.5f} s; nominal {refclock.NOMINAL_S} s; "
                 f"wall times scaled by {scale:.4f}")
    lines.append(f"wall-clock (not normalised): ops_per_s {wall_ops_per_s!r} 1/s, "
                 f"op_s.p50 {wall_p50!r} s")
    if len(d) >= 100:
        p90 = statistics.quantiles(d, n=10)[-1]
        lines.append(f"op_s.p90: {p90!r} s ({len(d)} samples)")
    lines.append("setup_s samples (fresh processes, normalised/wall): "
                 + ", ".join(f"{n:.4f}/{w:.4f}" for n, w in setup_times))
    return metrics, phase, lines


# Spans whose self time, and for CALL_SPANS whose call count, is a per-layer metric.
SELF_TIME_SPANS = (
    "field.sumset", "field.complement", "monomials.choose_degree", "monomials.enumerate",
    "vanishing.build", "linalg.null_space", "linalg.matrix_rank", "summatrix.sum_matrix",
    "summatrix.clp", "cover.pivot_basis", "cover.line_cover", "decompose.pipeline",
    "decompose.verify", "oracle.greedy", "oracle.exhaustive", "cli.report", "bench.op",
)
CALL_SPANS = ("field.sumset", "linalg.matrix_rank", "summatrix.sum_matrix", "oracle.exhaustive")


def computed_counts(wl, phase: Phase) -> dict:
    """Per-op means of the computed counts over the first counter_cycles cycles."""
    import ops

    end = phase.cycle_ends[wl.counter_cycles - 1]
    counted = [(o, inst) for o, inst in zip(phase.outcomes[:end], phase.instances[:end]) if o.counts]
    k = max(1, len(counted))  # failed ops carry no counts
    rows = [o.counts for o, _ in counted]
    greedy = [o.greedy_total if o.greedy_total is not None else ops.greedy_total(inst)
              for o, inst in counted]

    def mean(key):
        return sum(r[key] for r in rows) / k

    def ratio(num, den):
        total = sum(r[den] for r in rows)
        return sum(r[num] for r in rows) / total if total else 0.0

    return {
        "monomials.m_d": metric(mean("m_d"), "count/op"),
        "vanishing.constraint_cells": metric(mean("constraint_cells"), "count/op"),
        "vanishing.dim": metric(mean("dim"), "count/op"),
        "summatrix.cells": metric(mean("sum_matrix_cells"), "count/op"),
        "summatrix.useful_eval_ratio": metric(ratio("useful_evals", "sum_matrix_cells"), "ratio"),
        "cover.pivots": metric(mean("pivots"), "count/op"),
        "cover.size_over_rank_bound": metric(ratio("cover_size", "rank_bound"), "ratio"),
        "decompose.patch_reps": metric(mean("patch_reps"), "count/op"),
        "decompose.slack_to_bound": metric(mean("slack_to_bound"), "count/op"),
        "decompose.excess_over_greedy": metric(
            sum(r["witness_total"] - g for r, g in zip(rows, greedy)) / k, "count/op"
        ),
    }


def traced(wl, kind, seed: int, seconds: float) -> tuple[dict, list, list]:
    import tracing

    # Each cycle runs once untraced and once traced, alternating which goes
    # first, so the two passes see the same ops under the same conditions.
    tracer = tracing.Tracer()
    plain, phase = Phase([], [], [], []), Phase([], [], [], [])
    stream = workloads.cycles(wl, seed)
    start = time.perf_counter()
    while len(plain.cycle_ends) < wl.counter_cycles or time.perf_counter() - start < seconds:
        batch = next(stream)
        for traced_pass in (False, True) if len(plain.cycle_ends) % 2 == 0 else (True, False):
            if traced_pass:
                with tracer.installed():
                    run_cycle(batch, kind, phase, tracer)
            else:
                run_cycle(batch, kind, plain)
    lines = [check_digests(wl, seed, plain)]
    counts = computed_counts(wl, plain)
    check_digests(wl, seed, phase)
    n_ops = len(phase.durations)
    selfs = tracer.self_times()
    metrics = {}
    for name in SELF_TIME_SPANS:
        metrics[f"{name}.self_s"] = metric(selfs.get(name, (0.0, 0))[0] / n_ops, "s/op")
    for name in CALL_SPANS:
        metrics[f"{name}.calls"] = metric(selfs.get(name, (0.0, 0))[1] / n_ops, "calls/op")
    metrics["field.vector_adds"] = metric(tracer.vector_adds / n_ops, "count/op")
    metrics.update(counts)
    plain_op_s = sum(plain.durations) / n_ops
    traced_op_s = sum(phase.durations) / n_ops
    self_total = sum(s for s, _ in selfs.values()) / n_ops
    metrics["trace.overhead"] = metric(traced_op_s / plain_op_s, "ratio")
    metrics["trace.self_over_op"] = metric(self_total / plain_op_s, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    tracer.write(str(spans_path))
    lines.append(f"{n_ops} ops untraced and the same {n_ops} ops traced; "
                 f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    shares = sorted(((s / n_ops / traced_op_s, k) for k, (s, _) in selfs.items()), reverse=True)
    lines.append("self-time shares of the traced op: "
                 + ", ".join(f"{k} {share:.1%}" for share, k in shares))
    return metrics, [plain, phase], lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sumsetcover" / "__init__.py").is_file():
        print(f"error: library sources not found at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    sys.path.insert(0, str(SRC))
    try:
        setup_times = [] if args.trace else measure_setup(wl)
        import ops

        ops.warm_up(wl, str(OUT))
        with ops.op_kind(wl.op, str(OUT)) as kind:
            if args.trace:
                metrics, phases, lines = traced(wl, kind, args.seed, args.seconds)
            else:
                metrics, phase, lines = untraced(wl, kind, args.seed, args.seconds, setup_times)
                phases = [phase]
    except workloads.OutOfBudget as exc:
        print(f"error: cost guard: {exc}", file=sys.stderr)
        return 3

    attempted = sum(len(p.outcomes) for p in phases)
    failed = sum(report_failures(p) for p in phases)
    print(f"workload {wl.name}, seed {args.seed}, --seconds {args.seconds:g}, trace {args.trace}")
    for line in lines:
        print(line)
    print(f"failed_fraction: {failed}/{attempted} = {failed / attempted!r}")
    for name, m in metrics.items():
        print(f"{name}: {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
