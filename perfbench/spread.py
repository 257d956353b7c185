#!/usr/bin/env python3
"""Run a set of seeds and report each end-to-end metric's spread.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload grid --seeds 1-10 [--save NAME]
        [--against NAME]

Each seed is one untraced run of ``perfbench/run.py`` with BENCHMARK.json's
``run_seconds``.  For every end-to-end metric it prints the median over the
runs and the spread, the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, beside the
metric's bound.  ``--save`` keeps the set's values under
``.perfbench/sets/``; ``--against`` compares this set's medians with a
saved set's, as two sets of the same code must agree within the bounds.

The host check: each run reports the median of its host probes (a fixed
pure-Python task timed through the run, see ``run.host_probe``).  If the
slowest run's probe is more than ``HOST_RATIO`` times the fastest run's,
the runs fell on both sides of a host slow period.  The set is then flagged
and the exit code is 3: rerun it rather than compare it.  With ``--against``
the saved set's runs count too.  Beside each timing spread it prints the
spread after scaling each run to the set's median probe, which shows how
much of the spread the host explains; that figure is a diagnostic, not a
metric.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = ROOT / ".perfbench" / "sets"
#: The host's slow periods run code 1.3-2.3x slower; run-to-run drift
#: within one period stays under 1.2x.
HOST_RATIO = 1.2


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def host_flag(host_medians: list[float]) -> bool:
    """True if the runs' host probes differ by more than ``HOST_RATIO``."""
    return max(host_medians) > HOST_RATIO * min(host_medians)


def run_set(workload: str, seeds: list[int], seconds: int) -> dict:
    values: dict[str, list[float]] = {}
    hosts = []
    for seed in seeds:
        argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.exit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
        result = json.loads(done.stdout.splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{workload} seed {seed} gave wrong output: {result}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        full = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
        hosts.append(statistics.median(json.loads(full.read_text())["host_probe_s"]))
        shown = " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
        print(f"{workload} seed={seed} host={hosts[-1]:.4g}s {shown}", flush=True)
    return {"workload": workload, "seeds": seeds, "values": values, "host_probe_s": hosts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--save", help="keep this set as .perfbench/sets/NAME.json")
    parser.add_argument("--against", help="compare medians with a saved set")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    other = json.loads((SETS / f"{args.against}.json").read_text()) if args.against else None
    this = run_set(args.workload, args.seeds, spec["run_seconds"])
    if args.save:
        SETS.mkdir(parents=True, exist_ok=True)
        (SETS / f"{args.save}.json").write_text(json.dumps(this, indent=1))

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    hosts = this["host_probe_s"]
    for name, values in this["values"].items():
        median, bound = statistics.median(values), bounds[name]
        line = f"{name:<16} median {median:<10.5g} spread {spread(values):.4f} bound {bound}"
        if name != "setup_s":  # set-up spread is not held to the bound
            line += " OK" if spread(values) <= bound else " OVER"
        if units[name] in ("s", "MB/s"):
            # Diagnostic only: each run's value scaled to the set's median host speed.
            power = 1 if units[name] == "s" else -1
            scaled = [v * (statistics.median(hosts) / h) ** power for v, h in zip(values, hosts)]
            line += f" (host-adjusted spread {spread(scaled):.4f})"
        if other is not None:
            before = statistics.median(other["values"][name])
            worse = (median - before if lower[name] else before - median) / before
            line += f" | vs {args.against}: {worse:+.3f} {'OK' if worse <= bound else 'WORSE'}"
        print(line)

    hosts = hosts + (other["host_probe_s"] if other else [])
    print(f"host probe medians: min {min(hosts):.4g} s, max {max(hosts):.4g} s")
    if host_flag(hosts):
        print(f"SLOW PERIOD: host probes differ by more than {HOST_RATIO}x across the "
              "runs; rerun the set rather than compare it")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
