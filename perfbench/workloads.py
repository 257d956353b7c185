"""The benchmark's three closed-loop workloads: grid, sanitize and cli.

Each workload makes its inputs with ``stylocloak.synthcorpus`` from the
workload seed, runs one op at a time from one single-threaded process, and
checks every op's output.  ``setup`` returns the wall time of its warm-up
op, which is the first op in a fresh interpreter.

Why these three (see README.md for the per-layer predictions):

- ``grid`` is the paper's experiment, the 15-config grid scored with
  Burrows' Delta.  Its 8 imitation configs share one style source and all
  16 Delta calls share one reference, so it shows whether caching shared
  work pays off.
- ``sanitize`` is the countermeasure side: scan, strip and extract over a
  ~1 MB stego carrier beside one embed of the clean carrier, so a faster
  read path that slows the write path shows.
- ``cli`` is a short session of real commands, each in a fresh
  interpreter, so interpreter start, import and file reading are paid the
  way a CLI user pays them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import resource
import runpy
import signal
import statistics
import string
import sys
import time
from dataclasses import dataclass
from pathlib import Path

PAYLOAD = "MEETATDAWN"
K = 50
CONFIG_IDS = tuple(range(1, 16))

#: The four payload code points, written out here rather than taken from
#: ``zwcodec`` so that the sanitize expectations do not depend on the code
#: they check.
BIT0, BIT1, SEP, END = "\u200b", "\u200c", "\u200d", "\ufeff"
POINTS = (BIT0, BIT1, SEP, END)
_POINT_BYTES = re.compile(b"|".join(re.escape(p.encode("utf-8")) for p in POINTS))

#: Multi-byte words mixed into a fixed share of the sanitize carrier's
#: lines: precomposed accented Latin, Greek and CJK, none using a joiner.
MULTIBYTE_WORDS = (
    "café", "naïve", "façade", "Ångström", "über", "señor", "déjà",
    "λόγος", "ψυχή", "θάλασσα", "Ωμέγα", "ἀρχή",
    "漢字", "東京", "文字列", "中文", "日本語", "한국어",
)
MULTIBYTE_EVERY = 4  # every 4th text line gets multi-byte words
BLANK_EVERY = 9  # a blank line after every 9th text line; it carries no letter
CARRIER_BYTES = 1_000_000


class Workload:
    """Shared shape: inputs in ``setup``, one timed op per ``op`` call."""

    name = ""
    in_process = True
    #: Today's op time on a 2-core box.  It sets the fixed sample count for
    #: a given ``--seconds``, so the tail percentile means the same thing on
    #: every commit; a faster program finishes the same ops sooner.
    nominal_op_s = 1.0
    #: Set-ups per run: one in the run's own process, the rest in fresh
    #: interpreters; ``setup_s`` and in-process ``cold_start_s`` are their
    #: medians.  A single cold op swings with the machine, so take many.
    setup_samples = 11

    def __init__(self, root: Path, seed: int, workdir: Path):
        self.root = root
        self.seed = seed
        self.workdir = workdir
        self.failures: list[str] = []
        self.input_bytes = 0
        #: (traced op, command, span rows) from traced child processes.
        self.child_spans: list[tuple[int, str, list]] = []

    def setup(self) -> float:
        raise NotImplementedError

    def op(self, traced_op: int | None) -> tuple[float, bool]:
        """Run one op; return its wall time and whether its output was right."""
        raise NotImplementedError

    def final_checks(self) -> list[bool]:
        """Checks that are ops of their own, run once after the timed ops."""
        return []

    def cold_start_s(self, cold_ops: list[float]) -> float:
        return statistics.median(cold_ops)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    def layer_extras(self) -> dict[str, float]:
        """Per-layer values only this workload measures; zero where unused."""
        return {f"cli.{name}.wall_s": 0.0 for name, _ in SESSION}


def utf8_len(text: str) -> int:
    return len(text.encode("utf-8"))


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float


def child_env(root: Path) -> dict[str, str]:
    """The package is not installed: children import it from ``src``."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def spawn(argv: list[str], env: dict, stdout: Path, stderr: Path) -> Child:
    """Run one child to completion with stdout/stderr sent to files.

    ``wait4`` gives the child's peak RSS, which the cumulative
    ``RUSAGE_CHILDREN`` figure cannot; it is only the child's own when the
    spawner is small (see launcher.py).
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    began = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - began
    return Child(os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss * 1024 / 1e6)


def write_workspace(root: Path, dest: Path, seed: int) -> None:
    """Run ``scripts/make_demo.py DEST --seed SEED`` in this process.

    In process, so that a traced set-up records its ``synthcorpus`` calls.
    """
    argv = sys.argv
    sys.argv = ["make_demo.py", str(dest), "--seed", str(seed)]
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            runpy.run_path(str(root / "scripts" / "make_demo.py"), run_name="__main__")
    finally:
        sys.argv = argv


def launch(root: Path, workdir: Path, jobs: list[tuple[list[str], Path, Path]]) -> list[Child]:
    """Run ``jobs`` (argv, stdout, stderr) in turn from ``launcher.py``.

    The launcher never imports stylocloak, so each child's peak RSS is its
    own rather than this process's (see launcher.py).
    """
    spec = workdir / "jobs.json"
    spec.write_text(json.dumps([[argv, str(out), str(err)] for argv, out, err in jobs]))
    out, err = workdir / "launcher.out", workdir / "launcher.err"
    launcher = spawn([sys.executable, str(root / "perfbench" / "launcher.py"), str(spec)],
                     child_env(root), out, err)
    if launcher.code != 0:
        raise RuntimeError(f"launcher failed: {err.read_text()}")
    return [Child(*row) for row in json.loads(out.read_text())]


def interpreter_probes(root: Path, workdir: Path) -> dict[str, float]:
    """Median wall of ``python -c pass`` and in-child import time of the CLI."""
    env = child_env(root)
    out, err = workdir / "probe.out", workdir / "probe.err"
    bare, imports = [], []
    for _ in range(5):
        bare.append(spawn([sys.executable, "-c", "pass"], env, out, err).wall_s)
        child = spawn(
            [
                sys.executable,
                "-c",
                "import time; t = time.perf_counter(); import stylocloak.cli; "
                "print(time.perf_counter() - t)",
            ],
            env,
            out,
            err,
        )
        if child.code != 0:
            raise RuntimeError(f"importing stylocloak.cli failed: {err.read_text()}")
        imports.append(float(out.read_text()))
    return {
        "cli.interpreter_s": statistics.median(bare),
        "cli.import_s": statistics.median(imports),
    }


class Grid(Workload):
    """In-process ``run_matrix`` over configs 1-15, then the JSON report."""

    name = "grid"
    nominal_op_s = 0.2

    def setup(self) -> float:
        from stylocloak import pipeline, synthcorpus

        self.pipeline = pipeline
        self.reference = synthcorpus.two_author_corpus(self.seed)
        self.candidate = synthcorpus.candidate_for(synthcorpus.STYLE_A, self.seed, 5000)
        self.configs = [
            pipeline.PipelineConfig(id=i, seed=self.seed, payload=PAYLOAD) for i in CONFIG_IDS
        ]
        self.input_bytes = utf8_len(self.candidate.text) + sum(
            utf8_len(doc.text) for doc in self.reference.documents
        )
        began = time.perf_counter()
        self.report = self._grid()
        cold = time.perf_counter() - began
        parsed = json.loads(self.report)
        if parsed["errors"] or len(parsed["rows"]) != 2 * len(CONFIG_IDS):
            self.failures.append("grid report lacks rows or has aborted configs")
        return cold

    def _grid(self) -> str:
        report = self.pipeline.run_matrix(self.candidate, self.reference, self.configs, k=K)
        return self.pipeline.emit_report(report, "json")

    def op(self, traced_op):
        began = time.perf_counter()
        report = self._grid()
        return time.perf_counter() - began, report == self.report

    def final_checks(self):
        """The CLI's ``matrix`` on the same workspace prints the same report."""
        workspace = self.workdir / "workspace"
        write_workspace(self.root, workspace, self.seed)
        out, err = self.workdir / "matrix.out", self.workdir / "matrix.err"
        argv = [sys.executable, "-m", "stylocloak.cli", "matrix",
                "--config", str(workspace / "run.json"), "--format", "json"]
        child = spawn(argv, child_env(self.root), out, err)
        same = child.code == 0 and out.read_bytes() == (self.report + "\n").encode("utf-8")
        return [same]


def make_carrier(seed: int, target_bytes: int = CARRIER_BYTES) -> str:
    """Synthetic two-author text of at least ``target_bytes`` UTF-8 bytes.

    Every ``MULTIBYTE_EVERY``-th text line gets one to three multi-byte
    words, sometimes as its first word (the one a secret letter is woven
    into), and a blank line follows every ``BLANK_EVERY``-th text line.
    """
    from stylocloak import synthcorpus

    rng = random.Random(seed)
    styles = (synthcorpus.STYLE_A, synthcorpus.STYLE_B)
    lines: list[str] = []
    size = 0
    text_lines = 0
    part = 0
    while size < target_bytes:
        chunk = synthcorpus.make_text(styles[part % 2], seed * 1000 + part, 8000)
        for line in chunk.split("\n"):
            if text_lines % MULTIBYTE_EVERY == 0:
                words = line.split(" ")
                for _ in range(rng.randint(1, 3)):
                    words.insert(rng.randint(0, len(words)), rng.choice(MULTIBYTE_WORDS))
                line = " ".join(words)
            lines.append(line)
            text_lines += 1
            size += utf8_len(line) + 1
            if text_lines % BLANK_EVERY == 0:
                lines.append("")
                size += 1
        part += 1
    return "\n".join(lines) + "\n"


def letter_bits(letter: str) -> str:
    """Minimal binary form of the letter's alphabet index: A=0, B=1, Z=11001."""
    return format(string.ascii_uppercase.index(letter), "b")


class Sanitize(Workload):
    """Scan, strip and extract over a ~1 MB stego carrier; embed the clean one."""

    name = "sanitize"
    nominal_op_s = 0.33
    setup_samples = 13  # its cold pass swings most; each set-up takes ~1.2 s

    def setup(self) -> float:
        from stylocloak import weaver, zwcodec

        self.weaver, self.zwcodec = weaver, zwcodec
        self.cover = make_carrier(self.seed)
        rng = random.Random(self.seed * 2 + 1)
        carrying = [line for line in self.cover.split("\n") if line.strip()]
        self.secret = "".join(rng.choice(string.ascii_uppercase) for _ in carrying)
        self.input_bytes = utf8_len(self.cover)
        self.stego = weaver.embed_into_text(self.cover, self.secret)
        self._expect()
        began = time.perf_counter()
        ok = self.op(None)[1]
        cold = time.perf_counter() - began
        if not ok:
            self.failures.append("warm-up sanitize pass gave wrong output")
        return cold

    def _expect(self) -> None:
        """Reference results computed without the code under test."""
        bits = "".join(letter_bits(letter) for letter in self.secret)
        self.stream = "".join(c for c in self.stego if c in POINTS)
        self.counts = {
            BIT0: bits.count("0"),
            BIT1: bits.count("1"),
            SEP: 0,
            END: len(self.secret),
        }
        self.points = len(bits) + len(self.secret)
        self.offsets = [
            (m.start(), m.group().decode("utf-8"))
            for m in _POINT_BYTES.finditer(self.stego.encode("utf-8"))
        ]
        codes = {letter_bits(letter) + END: letter for letter in string.ascii_uppercase}
        decoded = []
        for line in self.stego.split("\n"):
            hidden = "".join(c for c in line if c in POINTS)
            if hidden:
                decoded.append(codes.get(hidden.replace(BIT0, "0").replace(BIT1, "1"), "?"))
        stripped = self.stego.translate({ord(p): None for p in POINTS})
        if stripped != self.cover or "".join(decoded) != self.secret:
            self.failures.append("embedded carrier does not hold the secret over the cover")
        if len(self.stream) != self.points or len(self.offsets) != self.points:
            self.failures.append("embedded carrier holds the wrong number of points")

    def op(self, traced_op):
        zwcodec, weaver = self.zwcodec, self.weaver
        began = time.perf_counter()
        report = zwcodec.scan_text(self.stego)
        clean, stream = zwcodec.strip_zero_width(self.stego)
        secret = weaver.extract_from_text(self.stego)
        stego = weaver.embed_into_text(self.cover, self.secret)
        latency = time.perf_counter() - began
        ok = (
            report.verdict
            and report.counts == self.counts
            and sum(report.counts.values()) == self.points
            and report.offsets == self.offsets
            and clean == self.cover
            and stream == self.stream
            and secret == self.secret
            and stego == self.stego
        )
        return latency, ok


#: One CLI session, in order; ``{...}`` names a file of the workspace.
SESSION = (
    ("scan", ("scan", "{tiny}")),
    ("embed-lines", ("embed-lines", "{carrier}", "--message", PAYLOAD)),
    ("extract-lines", ("extract-lines", "{stego}")),
    ("strip", ("strip", "{stego}")),
    ("delta", ("delta", "--corpus", "{corpus}", "--candidate", "{candidate}")),
    ("features", ("features", "--corpus", "{corpus}", "--candidate", "{candidate}")),
    ("matrix", ("matrix", "--config", "{run}", "--format", "json")),
)


class Cli(Workload):
    """A fixed session of CLI commands, each in a fresh interpreter."""

    name = "cli"
    in_process = False
    nominal_op_s = 2.7
    setup_samples = 3  # fewer: each set-up runs a whole warm-up session

    def setup(self) -> float:
        from stylocloak import cli

        workspace = self.workdir / "workspace"
        write_workspace(self.root, workspace, self.seed)
        files = {
            "tiny": workspace / "tiny.txt",
            "carrier": workspace / "corpus" / "bellamy" / "bellamy_00.txt",
            "stego": workspace / "stego.txt",
            "corpus": workspace / "corpus",
            "candidate": workspace / "candidate.txt",
            "run": workspace / "run.json",
        }
        files["tiny"].write_bytes(b"ok\n")
        # Paths relative to the checkout root, the cwd of every child.
        names = {key: str(path.relative_to(self.root)) for key, path in files.items()}
        self.commands = [
            (name, [part.format(**names) for part in argv]) for name, argv in SESSION
        ]
        self.stego_path = files["stego"]
        self.outdir = self.workdir / "out"
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.env = child_env(self.root)
        self.traced_cli = str(self.root / "perfbench" / "traced_cli.py")
        self.expected: dict[str, bytes] = {}
        for name, argv in self.commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = cli.dispatch(argv)
            if code != 0:
                self.failures.append(f"in-process {name} exited {code}")
            if name == "embed-lines":
                with open(self.stego_path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(stdout.getvalue())
            self.expected[name] = stdout.getvalue().encode("utf-8")
        carrier = files["carrier"].read_bytes()
        if self.expected["extract-lines"] != (PAYLOAD + "\n").encode() or (
            self.expected["strip"] != carrier
        ):
            self.failures.append("in-process embed/extract/strip do not round-trip")
        if json.loads(self.expected["scan"])["verdict"] is not False:
            self.failures.append("scan flags a clean 3-byte file")
        reads = {
            "scan": [files["tiny"]],
            "embed-lines": [files["carrier"]],
            "extract-lines": [files["stego"]],
            "strip": [files["stego"]],
            "delta": [files["candidate"], *files["corpus"].rglob("*.txt")],
            "features": [files["candidate"], *files["corpus"].rglob("*.txt")],
            "matrix": [files["run"], files["candidate"], *files["corpus"].rglob("*.txt")],
        }
        self.input_bytes = sum(p.stat().st_size for paths in reads.values() for p in paths)
        self.walls: dict[str, list[float]] = {name: [] for name, _ in self.commands}
        self.rss_mb = 0.0
        warmup, ok = self._session(None, record=False)
        if not ok:
            self.failures.append("warm-up session gave wrong output")
        return warmup

    def _session(self, traced_op, record=True):
        jobs = []
        for name, argv in self.commands:
            out = self.stego_path if name == "embed-lines" else self.outdir / f"{name}.out"
            err = self.outdir / f"{name}.err"
            spans = self.outdir / f"{name}.spans.json"
            if traced_op is None:
                command = [sys.executable, "-m", "stylocloak.cli", *argv]
            else:
                spans.unlink(missing_ok=True)  # never read a previous command's spans
                command = [sys.executable, self.traced_cli, str(spans), *argv]
            jobs.append((command, out, err))
        children = launch(self.root, self.workdir, jobs)
        ok = True
        for (name, _), (_, out, _), child in zip(self.commands, jobs, children):
            ok = ok and child.code == 0 and out.read_bytes() == self.expected[name]
            if traced_op is not None:
                spans = self.outdir / f"{name}.spans.json"
                with open(spans, encoding="utf-8") as handle:
                    self.child_spans.append((traced_op, name, json.load(handle)["spans"]))
            elif record:
                self.walls[name].append(child.wall_s)
                self.rss_mb = max(self.rss_mb, child.rss_mb)
        return sum(child.wall_s for child in children), ok

    def op(self, traced_op):
        return self._session(traced_op)

    def cold_start_s(self, cold_ops):
        return statistics.median(self.walls["scan"])

    def peak_rss_mb(self):
        return self.rss_mb

    def layer_extras(self):
        return {
            f"cli.{name}.wall_s": statistics.median(walls) if walls else 0.0
            for name, walls in self.walls.items()
        }


WORKLOADS = {cls.name: cls for cls in (Grid, Sanitize, Cli)}
