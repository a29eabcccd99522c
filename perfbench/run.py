"""Time to a correct verdict on aspcw's library and CLI, per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload asp-sweep --seed 1 --seconds 20 --trace 0

One caller, one process, no threads: each operation starts only after the
previous verdict returned (a closed loop with one client).  Set-up builds the
seeded instance set, writes its files and computes reference answers three
times; the run then repeats whole passes over the set until --seconds have
passed and at least 100 verdicts succeeded.  With --trace 0 it reports the
end-to-end metrics, in seconds rescaled to a reference machine speed by the
probe in speed.py; with --trace 1 it runs every operation once untraced and
once traced, and reports per-layer self times, counts and the tracing
overhead.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import PROBE_REFERENCE_S, SpeedTrack, probe
from tracer import LAYERS, SETUP_LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("asp-sweep", "cli-solve", "large-low-width")
SETUP_REPEATS = 3
MIN_VERDICTS = 100


@dataclass
class Measured:
    """Outcome of the operations of one measured stretch of passes."""
    instances: list
    walls: list[float] = field(default_factory=list)
    ok_walls: list[float] = field(default_factory=list)
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)
    unexpected: list[str] = field(default_factory=list)
    op_ids: list[int] = field(default_factory=list)
    # Per operation: the latest speed probe before it, and whether it failed.
    probe_ids: list[int] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.walls)


def run_op(inst, result: Measured, op_id: int, tracer=None) -> None:
    """Runs one operation and records its outcome."""
    if tracer is not None:
        tracer.install()
        tracer.op = op_id
        root = tracer.begin("op")
    t0 = time.perf_counter()
    error = None
    try:
        verdict = inst.op()
    except Exception as exc:  # every failure is counted, not fatal
        error = exc
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(root)
        tracer.op = None
        tracer.uninstall()
    result.walls.append(wall)
    result.op_ids.append(op_id)
    result.ok.append(False)
    if error is not None:
        result.failed += 1
        if not (inst.known_defect and isinstance(error, RecursionError)):
            result.unexpected.append(
                f"{inst.kind}: {type(error).__name__}: {error}")
    elif verdict != inst.expected:
        result.failed += 1
        result.mismatches.append(
            f"{inst.kind}: got {verdict!r}, reference {inst.expected!r}")
    else:
        result.ok_walls.append(wall)
        result.ok[-1] = True


def measure(instances, seconds: float, speed: SpeedTrack,
            tracer=None) -> list[Measured]:
    """Whole passes until `seconds` have passed and every stretch has at
    least MIN_VERDICTS successes (or four times `seconds` have passed).

    Without a tracer there is one stretch.  With one, each instance runs
    once untraced and once traced, back to back in alternating order, so
    drift in machine speed hits both stretches alike and their difference
    is the tracing overhead.  Speed probes run between operations."""
    untraced = Measured(instances)
    stretches = [untraced] + ([Measured(instances)] if tracer else [])
    op_id = 0
    started = time.perf_counter()
    while True:
        for index, inst in enumerate(instances):
            if tracer is None:
                untraced.probe_ids.append(speed.maybe_probe())
                run_op(inst, untraced, op_id)
                op_id += 1
                continue
            flip = (index + untraced.passes) % 2
            for traced in (False, True) if flip else (True, False):
                run_op(inst, stretches[traced], op_id, tracer if traced else None)
                op_id += 1
        for result in stretches:
            result.passes += 1
        elapsed = time.perf_counter() - started
        if elapsed >= seconds and (
                min(len(r.ok_walls) for r in stretches) >= MIN_VERDICTS
                or elapsed >= 4 * seconds):
            speed.maybe_probe()
            return stretches


def fingerprint(instances) -> str:
    digest = hashlib.sha256()
    for inst in instances:
        digest.update(f"{inst.kind}\0{inst.inputs}\0{inst.expected!r}\0".encode())
    return digest.hexdigest()


def percentiles(ok: list[float]) -> tuple[float, float]:
    """Median and 90th percentile (inclusive method)."""
    ok = ok or [0.0]
    p90 = statistics.quantiles(ok, n=10, method="inclusive")[8] \
        if len(ok) > 1 else ok[0]
    return statistics.median(ok), p90


def end_to_end(m: Measured, speed: SpeedTrack,
               setup_s: float) -> dict[str, tuple[float, str, int]]:
    """End-to-end metrics, every time divided by the speed factor around
    the operation it belongs to."""
    scaled = [wall / speed.factor(probe)
              for wall, probe in zip(m.walls, m.probe_ids)]
    p50, p90 = percentiles([t for t, ok in zip(scaled, m.ok) if ok])
    return {
        "verdict_s.p50": (p50, "s", len(m.ok_walls)),
        "verdict_s.p90": (p90, "s", len(m.ok_walls)),
        "verdicts_per_s": (len(m.ok_walls) / sum(scaled), "1/s", m.attempted),
        "failed_ratio": (m.failed / m.attempted, "ratio", m.attempted),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB", 1),
        "setup_s": (setup_s, "s", SETUP_REPEATS),
    }


def per_layer(tracer: Tracer, traced: Measured,
              untraced: Measured) -> dict[str, tuple[float, str, int]]:
    from workloads import expression

    n_inst = len(traced.instances)
    first_pass = traced.op_ids[:n_inst]
    in_ops = tracer.layer_seconds(set(traced.op_ids))
    in_setup = tracer.layer_seconds(None)
    out = {}
    for layer in LAYERS:
        if layer in SETUP_LAYERS:
            out[layer] = (in_setup[layer] / (SETUP_REPEATS * n_inst), "s",
                          SETUP_REPEATS * n_inst)
        else:
            out[layer] = (in_ops[layer] / traced.attempted, "s", traced.attempted)
    exprs = [tracer.expressions[op] for op in first_pass
             if op in tracer.expressions]
    out["expression.nodes"] = (
        sum(expression.node_count(e) for e in exprs), "count", len(exprs))
    out["expression.width_max"] = (
        max((expression.width(e) for e in exprs), default=0), "count",
        len(exprs))
    out["graphs.orientations"] = (
        sum(tracer.orientations.get(op, 0) for op in first_pass), "count", n_inst)
    cli_stats = [inst.stats for inst in traced.instances if "max_table" in inst.stats]
    out["cli.trace_bytes"] = (
        sum(s.get("trace_bytes", 0) for s in cli_stats), "bytes", len(cli_stats))
    out["cli.max_table"] = (
        statistics.fmean(s["max_table"] for s in cli_stats) if cli_stats else 0,
        "count", len(cli_stats))
    out["failed_ratio"] = (traced.failed / traced.attempted, "ratio",
                           traced.attempted)
    out["tracing.overhead_s"] = (
        sum(traced.walls) / traced.attempted
        - sum(untraced.walls) / untraced.attempted, "s", traced.attempted)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "aspcw" / "__init__.py").is_file():
        print(f"perfbench: no aspcw sources under {SRC}", file=sys.stderr)
        return 2

    setup_probes = [probe() for _ in range(3)]
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import workloads
    import_s = time.perf_counter() - t0
    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        print("perfbench: aspcw was not imported from this checkout",
              file=sys.stderr)
        return 2

    tracer = Tracer() if args.trace else None
    build = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        if tracer is not None:
            tracer.install()
        setup_times, prints = [], set()
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            instances = build(args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            setup_probes.append(probe())
            prints.add(fingerprint(instances))
        if len(prints) != 1:
            raise RuntimeError("instance generation is not deterministic")
        setup_factor = statistics.median(setup_probes) / PROBE_REFERENCE_S
        setup_s = (import_s + statistics.median(setup_times)) / setup_factor
        gc.collect()

        if tracer is not None:
            tracer.uninstall()
        speed = SpeedTrack()
        runs = measure(instances, args.seconds, speed, tracer)
        if tracer is not None:
            out_dir = BENCH_DIR / "out"
            out_dir.mkdir(exist_ok=True)
            with open(out_dir / f"spans-{args.workload}-{args.seed}.json", "w") as fh:
                json.dump(tracer.to_json(), fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kinds: dict[str, int] = {}
    for inst in instances:
        kinds[inst.kind] = kinds.get(inst.kind, 0) + 1
    print(f"{args.workload} fingerprint seed={args.seed} inputs={prints.pop()} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"nproc={len(os.sched_getaffinity(0))}")
    print(f"{args.workload} pass: " + ", ".join(f"{n} {k}" for k, n in kinds.items())
          + f"; passes={runs[0].passes}")
    wall_p50, wall_p90 = percentiles(runs[0].ok_walls)
    print(f"{args.workload} speed factor: set-up {setup_factor:.4g}, "
          f"run {speed.run_factor():.4g} over {len(speed.times)} probes; "
          f"unscaled wall verdict_s p50 {wall_p50:.6g} s, p90 {wall_p90:.6g} s")
    for m in runs:
        for line in sorted(set(m.unexpected))[:5] + m.mismatches[:5]:
            print(f"{args.workload} FAILURE {line}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(runs[0], speed, setup_s)
    else:
        metrics = per_layer(tracer, runs[1], runs[0])
    for name, (value, unit, count) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit} n={count}")

    if tracer is None:
        metrics.pop("failed_ratio")  # reported per layer; the JSON has `failed`
    correct = not any(m.mismatches or m.unexpected for m in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(m.attempted for m in runs),
        "failed": sum(m.failed for m in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
