"""Tests for the benchmark's own machinery: spans, wrappers and set-up."""

import json
import sys
import types
from pathlib import Path

import pytest

import run
import spread
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))


def span(name, parent, start, end):
    return tracing.Span(name, parent, float(start), float(end), 0)


# root [0,20] holds A [1,4] (which holds A1 [2,3]), B [5,9] and C [10,14].
NESTED = [
    span("pipeline.run", None, 0, 20),
    span("pipeline.apply", 0, 1, 4),
    span("transforms.train", 1, 2, 3),
    span("styloscope.delta", 0, 5, 9),
    span("pipeline.emit", 0, 10, 14),
]


def test_self_time_subtracts_child_spans():
    assert tracing.self_times(NESTED) == [9.0, 2.0, 1.0, 4.0, 4.0]


def test_layer_time_folds_in_same_layer_descendants_only():
    # pipeline.run keeps its own 9 plus pipeline.apply's 2 and pipeline.emit's 4.
    assert tracing.layer_times(NESTED) == [15.0, 2.0, 1.0, 4.0, 4.0]


def test_layer_stats_are_per_op():
    rows = [
        (0, "styloscope.burrows_delta", 1.0, {"key": "r1"}),
        (0, "styloscope.burrows_delta", 2.0, {"key": "r1"}),
        (1, "styloscope.burrows_delta", 5.0, {"key": "r1"}),
        (1, "styloscope.burrows_delta", 1.0, {"key": "r2"}),
        (None, "styloscope.burrows_delta", 9.0, {"key": "setup"}),
        (1, tracing.PROBE, 7.0, None),
    ]
    stats = tracing.LayerStats(rows, 2)
    assert stats.calls_per_op("styloscope.burrows_delta") == 2.0
    assert stats.busy_per_op("styloscope.burrows_delta") == 4.5
    assert stats.distinct_keys("styloscope.burrows_delta") == 3
    assert stats.calls_per_op("zwcodec.scan_text") == 0.0
    assert stats.busy_per_op("zwcodec.scan_text") == 0.0


@pytest.fixture
def fake_package():
    """fakepkg.alpha defines functions; fakepkg.beta imports one by name."""
    package = types.ModuleType("fakepkg")
    package.__path__ = []
    alpha = types.ModuleType("fakepkg.alpha")
    exec(
        "def echo(a, b=2, *rest, c=0, **extra):\n"
        "    return (a, b, rest, c, extra)\n"
        "def fail(exc):\n"
        "    raise exc\n"
        "def outer(x):\n"
        "    return echo(x)\n"
        "def _private(x):\n"
        "    return x\n",
        alpha.__dict__,
    )
    beta = types.ModuleType("fakepkg.beta")
    beta.echo = alpha.echo
    beta.alpha = alpha
    modules = {"fakepkg": package, "fakepkg.alpha": alpha, "fakepkg.beta": beta}
    sys.modules.update(modules)
    try:
        yield alpha, beta
    finally:
        for name in modules:
            sys.modules.pop(name, None)


def test_wrappers_pass_arguments_results_and_exceptions_through(fake_package):
    alpha, beta = fake_package
    originals = dict(vars(alpha)), beta.echo
    marker = object()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, package="fakepkg"):
        assert beta.echo is alpha.echo is not originals[0]["echo"]
        result = beta.echo(marker, 3, 4, 5, c=marker, d=6)
        assert result == (marker, 3, (4, 5), marker, {"d": 6})
        assert result[0] is marker
        error = KeyError("x")
        with pytest.raises(KeyError) as caught:
            alpha.fail(error)
        assert caught.value is error
        assert alpha.outer(1) == (1, 2, (), 0, {})
        assert alpha._private is originals[0]["_private"]
    assert dict(vars(alpha)) == originals[0] and beta.echo is originals[1]
    names = [(s.name, s.parent) for s in tracer.spans]
    assert names == [
        ("alpha.echo", None),
        ("alpha.fail", None),
        ("alpha.outer", None),
        ("alpha.echo", 2),
    ]
    assert all(s.end >= s.start for s in tracer.spans)


def test_probe_sees_bound_arguments_with_defaults(fake_package):
    alpha, _ = fake_package
    seen = []
    tracer = tracing.Tracer()
    probes = {"alpha.echo": lambda arguments: seen.append(dict(arguments)) or {"chars": 1}}
    with tracing.installed(tracer, package="fakepkg", probes=probes):
        alpha.echo("x", c=1)
    assert seen == [{"a": "x", "b": 2, "rest": (), "c": 1, "extra": {}}]
    assert [s.name for s in tracer.spans] == [tracing.PROBE, "alpha.echo"]
    assert tracer.spans[1].info == {"chars": 1}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([float(i) for i in range(20, 0, -1)]) == (10.0, 50.0)
    assert run.tail([float(i) for i in range(50)]) == (39.0, 80.0)
    assert run.tail([float(i) for i in range(run.MIN_SAMPLES)])[0] == 0.0
    assert run.sample_count(10, 0.2) == 50
    assert run.sample_count(10, 2.7) == run.MIN_SAMPLES


def test_set_spread_and_host_check():
    assert spread.spread([float(i) for i in range(1, 11)]) == 1.0  # (8.25 - 2.75) / 5.5
    assert not spread.host_flag([0.030, 0.035, 0.0359])
    assert spread.host_flag([0.030, 0.035, 0.0361])
    assert spread.seed_list("3-5") == [3, 4, 5] and spread.seed_list("7") == [7]


def test_every_declared_metric_is_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    extras = {
        **workloads.Workload(ROOT, 0, ROOT).layer_extras(),
        "cli.interpreter_s": 0.0,
        "cli.import_s": 0.0,
        "weaver.points_inserted": 0.0,
        "synthcorpus.busy_s": 0.0,
        "trace.overhead_ratio": 1.0,
    }
    stats = tracing.LayerStats([], 1)
    for metric in spec["per_layer"]:
        run.layer_value(metric["name"], stats, extras)
    assert len(spec["workloads"]) == len(workloads.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_carrier_is_clean_multibyte_and_sized():
    text = workloads.make_carrier(5, target_bytes=30_000)
    assert text == workloads.make_carrier(5, target_bytes=30_000)
    assert len(text.encode("utf-8")) >= 30_000
    assert not set(text) & set(workloads.POINTS)
    lines = text.split("\n")
    assert "" in lines[:-1]
    multibyte = [line for line in lines if any(w in line for w in workloads.MULTIBYTE_WORDS)]
    assert len(multibyte) >= len([line for line in lines if line]) // workloads.MULTIBYTE_EVERY


def test_launched_child_reports_its_own_peak_rss(tmp_path):
    # A child spawned straight from this process would report at least this
    # process's peak; one started by the launcher reports its own.
    ballast = b"x" * (96 << 20)
    bare = [sys.executable, "-c", "pass"]
    (child,) = workloads.launch(ROOT, tmp_path, [(bare, tmp_path / "out", tmp_path / "err")])
    assert child.code == 0 and 0 < child.rss_mb < 64
    del ballast
