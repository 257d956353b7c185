#!/usr/bin/env python3
"""stylocloak benchmark: one workload, one seed, one run.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload grid|sanitize|cli --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: every other op runs with span
wrappers installed, and it reports the per-layer metrics plus
``trace.overhead_ratio`` (traced over untraced op median).  Metric names
and units come from BENCHMARK.json at the checkout root.

The run does a fixed number of ops, ``max(11, round(S / nominal op
time))``, so that the tail percentile (the highest with at least 10
samples beyond it) is the same one on every commit.  Every op's output is
checked.  An untraced run also times a fixed host probe between its
parts (see ``host_probe``).  Human-readable lines come first; the last line
of stdout is the JSON result.  Full results, and in traced runs all spans with their self
times, are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
from workloads import WORKLOADS, interpreter_probes, spawn

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
MIN_SAMPLES = 11  # the fewest that leave 10 samples beyond some percentile
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--probe-setup",
        action="store_true",
        help="internal: set up once in this fresh interpreter and print its times",
    )
    return parser.parse_args(argv)


def sample_count(seconds: float, nominal_op_s: float) -> int:
    return max(MIN_SAMPLES, round(seconds / nominal_op_s))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond."""
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def host_probe() -> float:
    """Wall time of a fixed pure-Python task, about 30 ms on a 2-core box.

    It tracks the host's speed and is the same on every commit; a run
    takes it between its parts.  ``spread.py`` flags a set of runs whose
    probes differ too much, which ran on both sides of a host slow period.
    """
    began = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(120_000):
        word = str(i * 7919 % 6007)
        counts[word] = counts.get(word, 0) + 1
    sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    return time.perf_counter() - began


def timed_setup(workload) -> dict:
    """Set up in this process; the clock starts before stylocloak is imported."""
    began = time.perf_counter()
    cold = workload.setup()
    return {"setup_s": time.perf_counter() - began, "cold_op_s": cold}


def probe_setup(args, workload) -> dict:
    """Set up once in a fresh interpreter and return its times."""
    out, err = workload.workdir / "setup.out", workload.workdir / "setup.err"
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--probe-setup"]
    child = spawn(argv, os.environ.copy(), out, err)
    if child.code != 0:
        raise RuntimeError(f"set-up probe failed:\n{err.read_text()}")
    return json.loads(out.read_text().splitlines()[-1])


def run_ops(workload, n: int, tracer) -> tuple[list[float], list[float], int]:
    """n ops; with a tracer every odd op is traced.  Returns both latency lists.

    Traced op ``k`` is the k-th odd op; its spans carry ``k`` as their op.
    """
    plain, traced = [], []
    failed = 0
    for index in range(n):
        traced_op = index // 2 if tracer is not None and index % 2 else None
        try:
            if traced_op is not None and workload.in_process:
                tracer.op = traced_op
                try:
                    with tracing.installed(tracer, probes=tracing.PROBES):
                        latency, ok = workload.op(traced_op)
                finally:
                    tracer.op = None
            else:
                latency, ok = workload.op(traced_op)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        (plain if traced_op is None else traced).append(latency)
        failed += not ok
    return plain, traced, failed


def environment(args) -> dict:
    src = ROOT / "src" / "stylocloak"
    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = None  # a plain checkout is not a git repository
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())

    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "regex": version("regex"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def declared(kind: str, value_of) -> dict:
    """Every metric BENCHMARK.json declares under ``kind``, with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: {"value": value_of(m["name"]), "unit": m["unit"]} for m in spec[kind]}


def layer_value(name: str, stats: tracing.LayerStats, extras: dict) -> float:
    if name in extras:
        return extras[name]
    target, _, stat = name.rpartition(".")
    calls = stats.calls.get(target, 0)
    distinct = stats.distinct_keys(target)
    if stat == "calls":
        return stats.calls_per_op(target)
    if stat == "busy_s":
        return stats.busy_per_op(target)
    if stat == "chars_per_s":
        return stats.chars_per_s(target)
    if stat == "chars":
        return stats.chars.get(target, 0) / stats.n_ops
    if stat == "calls_per_reference":
        return calls / distinct if distinct else 0.0
    if stat == "distinct_ratio":
        return distinct / calls if calls else 0.0
    raise KeyError(f"no rule for per-layer metric {name!r}")


def traced_run(args, workload, n: int):
    tracing.import_all()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, probes=tracing.PROBES):
        workload.setup()
    setup_spans = list(tracer.spans)
    plain, traced, failed = run_ops(workload, n, tracer)
    checks = workload.final_checks()
    attempted = n + len(checks)
    failed += checks.count(False)

    rows = list(tracing.records(tracer.spans))
    children = []
    for op, name, span_rows in workload.child_spans:
        rows.extend(tracing.records(tracing.spans_from_rows(span_rows), op))
        children.append({"op": op, "command": name, "spans": span_rows})
    stats = tracing.LayerStats(rows, n // 2)
    extras = {
        **workload.layer_extras(),
        **interpreter_probes(ROOT, workload.workdir),
        "weaver.points_inserted": stats.points / stats.n_ops,
        "synthcorpus.busy_s": sum(
            self_s
            for span, self_s in zip(setup_spans, tracing.self_times(setup_spans))
            if tracing.layer(span.name) == "synthcorpus"
        ),
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(plain),
    }
    metrics = declared("per_layer", lambda name: layer_value(name, stats, extras))
    trace_path = OUT / "trace" / f"{args.workload}-seed{args.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "columns": tracing.SPAN_COLUMNS,
                "main": tracing.span_rows(tracer.spans),
                "children": children,
            },
            handle,
        )
    detail = {
        "samples": n,
        "traced_ops": len(traced),
        "trace_file": str(trace_path.relative_to(ROOT)),
    }
    return metrics, attempted, failed, detail


def plain_run(args, workload, n: int):
    # The fresh-interpreter set-ups are spread between the timed ops, so
    # that they sample the machine over the whole run, not one stretch of it.
    setups = [timed_setup(workload)]
    plain, failed = [], 0
    hosts = [host_probe()]
    parts = workload.setup_samples
    for part in range(parts):
        latencies, _, bad = run_ops(workload, n * (part + 1) // parts - n * part // parts, None)
        plain += latencies
        failed += bad
        hosts.append(host_probe())
        if part < parts - 1:
            setups.append(probe_setup(args, workload))
    checks = workload.final_checks()
    attempted = n + len(checks)
    failed += checks.count(False)
    p50 = statistics.median(plain)
    tail_s, tail_pct = tail(plain)
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "latency_p50_s": p50,
        "latency_tail_s": tail_s,
        "throughput_mb_s": workload.input_bytes / 1e6 / p50,
        "cold_start_s": workload.cold_start_s([s["cold_op_s"] for s in setups]),
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    metrics = declared("end_to_end", values.__getitem__)
    detail = {
        "samples": n,
        "tail_percentile": tail_pct,
        "input_bytes": workload.input_bytes,
        "latencies_s": plain,
        "setups": setups,
        "host_probe_s": hosts,
    }
    return metrics, attempted, failed, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "stylocloak" / "__init__.py").is_file():
        print(f"error: no stylocloak sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / "work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, workdir)
    try:
        if args.probe_setup:
            print(json.dumps(timed_setup(workload)))
            return 0
        n = sample_count(args.seconds, workload.nominal_op_s)
        run = traced_run if args.trace else plain_run
        metrics, attempted, failed, detail = run(args, workload, n)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args)
    result = {
        "correct": failed == 0 and not workload.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    full = {"env": env, "result": result, "failures": workload.failures, **detail}
    results.write_text(json.dumps(full, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} ops={detail['samples']}")
    for name, metric in metrics.items():
        note = ""
        if name == "latency_tail_s":
            note = f"  (p{detail['tail_percentile']:.1f} of {detail['samples']} samples)"
        print(f"  {name:<48} {metric['value']:.6g} {metric['unit']}{note}")
    ratio = failed / attempted
    print(f"  {'ops_failed_ratio':<48} {ratio:.6g} ratio  ({failed} of {attempted} ops)")
    for failure in workload.failures:
        print(f"  check failed: {failure}")
    if "host_probe_s" in detail:
        hosts = detail["host_probe_s"]
        print(f"  host probe (not a metric): median {statistics.median(hosts):.4g} s, "
              f"min {min(hosts):.4g} s, max {max(hosts):.4g} s")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
