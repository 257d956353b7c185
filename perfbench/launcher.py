"""Run commands one at a time from a process that never imports stylocloak.

Usage: python perfbench/launcher.py JOBS_JSON

JOBS_JSON holds a list of ``[argv, stdout_path, stderr_path]``.  Each
command runs to completion in turn with this process's environment, and the
last line of stdout is a JSON list of ``[exit code, wall s, peak RSS MB]``,
one per command.

Why a launcher: ``wait4`` reports a child's peak RSS as at least the
high-water RSS of the address space its ``exec`` replaced, and a spawned
child starts in its spawner's address space.  Spawned straight from the
benchmark process, which holds numpy and the workload's inputs, every
command would report at least the benchmark's own peak.  This process stays
small, so each figure is the command's own.
"""

import json
import os
import sys

from workloads import spawn


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        jobs = json.load(handle)
    children = [spawn(argv, os.environ, out, err) for argv, out, err in jobs]
    print(json.dumps([[c.code, c.wall_s, c.rss_mb] for c in children]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
