"""FlowKV reproduction benchmark: four NEXMark workloads on both clocks.

Run from the repository root::

    python3 perfbench/run.py --workload q7-aar-flowkv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics untraced: set-up is
repeated and its median reported, then the workload's unit of work is
repeated for ``--seconds`` seconds of real time and the records of all
repetitions are divided by their real time.  Both wall-clock figures
are scaled to a reference host speed sampled while they run (see
``calibration.py``).  ``--trace 1`` runs a few untraced repetitions,
then one with spans around every layer's entry points (see
``tracing.py``), and reports the per-layer metrics.  Both check every
repetition's output against a reference computed outside the timed
phase and apply the workload's vacuity guards.  ``--workload all``
runs each workload in a child process of its own.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program
exits with code 2, printing no result, when the repository's sources
are not next to it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections.abc import Callable
from pathlib import Path
from typing import Any

from calibration import Speedometer, build_speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_SECONDS = 5.0  # set-up repeats this long per run; setup_s is the median
MIN_SETUPS = 9  # set-ups per run, at the least
MIN_REPS = 3  # timed repetitions per run, at the least


def load_workloads() -> dict[str, Any] | None:
    if not (SRC / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    return WORKLOADS


def set_up(workload: Any, seed: int) -> tuple[Any, list[float], list[float]]:
    """Set up for ``SETUP_SECONDS`` of real time and at least ``MIN_SETUPS``
    times, and keep the last.  Returns each set-up's seconds scaled to the
    reference host by the build speed timed just before and just after
    it, and each stream generation's raw seconds.

    As in ``timeit``, the cyclic collector is off while a set-up runs: its
    full passes over the growing streams are memory-bound and swing with
    other tenants' load far more than the set-up's own work."""
    setup_s, generate_s = [], []
    prepared = None
    speed = build_speed()
    start = time.perf_counter()
    while len(setup_s) < MIN_SETUPS or time.perf_counter() - start < SETUP_SECONDS:
        prepared = None  # let the previous streams go before timing the next
        gc.collect()
        gc.disable()
        try:
            prepared, seconds = workload.setup(seed)
        finally:
            gc.enable()
        before, speed = speed, build_speed()
        setup_s.append(seconds / ((before + speed) / 2))
        generate_s.append(prepared.generate_s)
    return prepared, setup_s, generate_s


def repeat(
    workload: Any, prepared: Any, seconds: float, min_reps: int,
    clock: Callable[[], float] = time.perf_counter,
) -> tuple[list, list]:
    """Run units until ``seconds`` of real time and ``min_reps`` units have
    passed.  An exception fails its unit and the run goes on."""
    units, errors = [], []
    start = time.perf_counter()
    while len(units) + len(errors) < min_reps or time.perf_counter() - start < seconds:
        gc.collect()
        try:
            units.append(workload.run_unit(prepared, clock=clock))
        except Exception:  # noqa: BLE001 - a crashing unit is a counted failure
            errors.append(traceback.format_exc())
            print(errors[-1], file=sys.stderr)
    return units, errors


def judge(workload: Any, units: list, errors: list, reference: list[str]) -> tuple[list[str], int]:
    """Every problem found, one line each, and the number of failed units."""
    problems = [f"exception: {e.strip().splitlines()[-1]}" for e in errors]
    failed = len(errors)
    for i, unit in enumerate(units):
        found = workload.verify(unit, reference)
        if unit.sim != units[0].sim:
            found.append("simulated results differ between repetitions")
        problems += [f"run {i}: {problem}" for problem in found]
        failed += bool(found)
    return problems, failed


def end_to_end(workload: Any, seed: int, seconds: float) -> dict[str, Any]:
    prepared, setup_s, _ = set_up(workload, seed)
    with Speedometer() as speed:
        units, errors = repeat(workload, prepared, seconds, MIN_REPS, speed.clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    reference = workload.reference(prepared)
    raw_rate = sum(u.records for u in units) / sum(u.wall_s for u in units) if units else 0.0
    metrics = {
        "wall_records_per_s": raw_rate * speed.factor(),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": peak_rss_mb,
        "sim_records_per_s": units[0].sim["sim_records_per_s"] if units else 0.0,
    }
    extra = {
        "raw_wall_records_per_s": raw_rate,
        "host_speed_factor": speed.factor(),
    }
    extra |= {
        key: units[0].sim[key]
        for key in ("sim_latency_p50_s", "sim_latency_p99_s", "latency_samples",
                    "sim_sustainable_rate", "sim_recovery_downtime_s", "sim_crashed_s")
        if units and key in units[0].sim
    }
    return outcome(workload, units, errors, reference, metrics, extra)


def per_layer(workload: Any, seed: int, seconds: float) -> dict[str, Any]:
    from tracing import Tracer, traced
    from workloads import ledger_metrics

    prepared, _, generate_s = set_up(workload, seed)
    reference = workload.reference(prepared)
    units, errors = repeat(workload, prepared, seconds / 2, 1)
    tracer = Tracer()
    gc.collect()
    with traced(tracer):
        traced_unit = workload.run_unit(prepared, keep=True)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(str(OUT_DIR / f"spans-{workload.name}-seed{seed}.tsv"))
    untraced = statistics.median(u.wall_s for u in units) if units else math.nan

    self_s = tracer.layer_self_s()
    calls = tracer.layer_calls()
    sim = traced_unit.sim
    metrics: dict[str, float] = {
        "engine.wall_self_s": self_s["engine"],
        "core.wall_self_s": self_s["core"],
        "core.calls": calls["core"],
        "kvstores.lsm.wall_self_s": self_s["kvstores.lsm"],
        "kvstores.lsm.calls": calls["kvstores.lsm"],
        "serde.wall_self_s": self_s["serde"],
        "serde.calls": calls["serde"],
        "simenv.wall_self_s": self_s["simenv"],
        "simenv.charges": calls["simenv"],
        "storage.wall_self_s": self_s["storage"],
        "recovery.wall_s": (
            tracer.self_s[tracer.named("repro.recovery.RecoveryManager.run")]
            + tracer.total_s[tracer.named("repro.recovery.Checkpointer.maybe_checkpoint")]
        ),
        "rescale.wall_s": tracer.layer_inclusive_s["rescale"],
        "nexmark.generate_s": statistics.median(generate_s),
        "trace.overhead_s": traced_unit.wall_s - untraced,
        "trace.spans": tracer.spans_seen,
        "openloop.sim_latency_p50_s": sim.get("sim_latency_p50_s", 0.0),
        "openloop.sim_latency_p99_s": sim.get("sim_latency_p99_s", 0.0),
        "openloop.latency_samples": sim.get("latency_samples", 0),
        "openloop.sim_sustainable_rate": sim.get("sim_sustainable_rate", 0.0),
        "recovery.sim_downtime_s": sim.get("sim_recovery_downtime_s", 0.0),
        **ledger_metrics(traced_unit.results),
    }
    return outcome(workload, units + [traced_unit], errors, reference, metrics, {})


def outcome(
    workload: Any, units: list, errors: list, reference: list[str],
    metrics: dict[str, float], extra: dict[str, float],
) -> dict[str, Any]:
    problems, failed = judge(workload, units, errors, reference)
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"metric {name} is not a finite number")
    return {
        "workload": workload.name,
        "attempted": len(units) + len(errors),
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "extra": extra,
    }


def report(result: dict[str, Any], seed: int, units: dict[str, str]) -> None:
    """Human-readable lines: every metric with its unit, then the verdicts."""
    print(f"== {result['workload']} (seed {seed}): {result['attempted']} runs")
    for name, value in result["metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    for name, value in result["extra"].items():
        print(f"  {name:40s} {value:>16.6g} (not gated)")
    error_rate = result["failed"] / max(1, result["attempted"])
    print(f"  {'error_rate':40s} {error_rate:>16.6g} failed/attempted")
    print(f"  correctness and vacuity: {'ok' if not result['problems'] else 'FAILED'}")
    for problem in result["problems"]:
        print(f"    - {problem}")


def run_each(names: list[str], args: argparse.Namespace) -> int:
    """``--workload all``: one child process per workload, so that each
    reports its own peak resident set.  Prints the children's lines and
    one result that merges theirs, with metric names prefixed by the
    workload's."""
    merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {child.returncode}",
                  file=sys.stderr)
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    if workloads is None:
        print(f"error: no repository sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_each(list(workloads), args)
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload}; one of {', '.join(workloads)}",
              file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = config["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    measure = per_layer if args.trace else end_to_end
    result = measure(workloads[args.workload], args.seed, args.seconds)
    if set(result["metrics"]) != set(units):
        print("error: the metrics measured differ from those in BENCHMARK.json",
              file=sys.stderr)
        return 1
    report(result, args.seed, units)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
