"""Self-test: the benchmark catches what it claims to catch.

Run from the repository root::

    python3 perfbench/selftest.py --seed 7 --seconds 6

For every workload it checks two things.

1. A uniform real-time slowdown is caught.  ``SimEnv.charge_cpu`` is
   wrapped to busy-wait after every call, calibrated so the waits add
   about 30% to a unit's time (the wrapper's own calls add a little
   more; the printed drop is what was measured).  Every workload calls
   it, so the slowdown hits all of them alike: the regression that a gate
   which normalizes by the median over all cases (``repro.bench.smoke``)
   lets through by construction.  Units with and without the slowdown
   alternate; the median ``wall_records_per_s`` must fall by more than
   the bound in ``BENCHMARK.json``.
2. A simulated cost is seen.  Charging 30% more for one CPU category
   (``engine``) must move ``sim_records_per_s``.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Iterator

from calibration import Speedometer
from run import ROOT, load_workloads

SLOWDOWN = 0.30
PERTURBED_CATEGORY = "engine"
PERTURBATION = 1.30


@contextmanager
def wrapped_charge_cpu(extra: Any) -> Iterator[None]:
    """Replace ``SimEnv.charge_cpu`` by ``extra(original, env, category, seconds)``."""
    from repro.simenv.env import SimEnv

    original = SimEnv.charge_cpu

    def charge_cpu(env: Any, category: str, seconds: float) -> None:
        extra(original, env, category, seconds)

    SimEnv.charge_cpu = charge_cpu
    try:
        yield
    finally:
        SimEnv.charge_cpu = original


def count_calls(workload: Any, prepared: Any) -> int:
    calls = [0]

    def counting(original, env, category, seconds):
        calls[0] += 1
        original(env, category, seconds)

    with wrapped_charge_cpu(counting):
        workload.run_unit(prepared)
    return calls[0]


def slowed(delay: float) -> Any:
    clock = time.perf_counter

    def spinning(original, env, category, seconds):
        original(env, category, seconds)
        end = clock() + delay
        while clock() < end:
            pass

    return spinning


def perturbed(original, env, category, seconds):
    if category == PERTURBED_CATEGORY:
        seconds *= PERTURBATION
    original(env, category, seconds)


def calibrated_rate(workload: Any, prepared: Any) -> float:
    """One unit's ``wall_records_per_s``, calibrated as in ``run.py``."""
    with Speedometer() as speed:
        unit = workload.run_unit(prepared, clock=speed.clock)
    return unit.records / unit.wall_s * speed.factor()


def check(workload: Any, seed: int, seconds: float, bound: float) -> list[str]:
    prepared, _ = workload.setup(seed)
    base_unit = workload.run_unit(prepared)
    delay = SLOWDOWN * base_unit.wall_s / count_calls(workload, prepared)
    base, slow = [], []
    start = time.perf_counter()
    while len(base) < 3 or time.perf_counter() - start < 2 * seconds:
        gc.collect()
        base.append(calibrated_rate(workload, prepared))
        gc.collect()
        with wrapped_charge_cpu(slowed(delay)):
            slow.append(calibrated_rate(workload, prepared))
    drop = 1 - statistics.median(slow) / statistics.median(base)
    with wrapped_charge_cpu(perturbed):
        moved = workload.run_unit(prepared).sim["sim_records_per_s"]
    sim_change = moved / base_unit.sim["sim_records_per_s"] - 1
    print(f"{workload.name}: {len(base)} pairs, wall_records_per_s "
          f"{statistics.median(base):.1f} -> {statistics.median(slow):.1f} "
          f"(-{drop:.1%}, bound {bound:.0%}); {PERTURBED_CATEGORY} cost x{PERTURBATION:g} "
          f"moves sim_records_per_s by {sim_change:+.2%}")
    problems = []
    if drop <= bound:
        problems.append(f"{workload.name}: a uniform slowdown stayed within the bound")
    if sim_change == 0:
        problems.append(f"{workload.name}: a perturbed cost left the simulated metric unmoved")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)
    workloads = load_workloads()
    if workloads is None:
        print("error: no repository sources next to the benchmark", file=sys.stderr)
        return 2
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = next(m["bound"] for m in config["end_to_end"] if m["name"] == "wall_records_per_s")
    names = list(workloads) if args.workload == "all" else [args.workload]
    problems = []
    for name in names:
        problems += check(workloads[name], args.seed, args.seconds, bound)
    for problem in problems:
        print(f"FAILED: {problem}")
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
