"""Shared benchmark configuration.

``REPRO_BENCH_SCALE`` scales every workload's row counts (default 1.0) so
the suite can run quickly in CI (0.2) or at larger scale (5.0) without
editing the benchmarks.

:func:`write_bench_record` is the shared machine-readable output path:
every ``bench_e*.py`` can persist a ``BENCH_<name>.json`` record (with
git SHA, timestamp, and scale) next to the printed tables, so perf runs
leave comparable artifacts instead of scrollback.  ``REPRO_BENCH_OUT``
overrides the output directory (default: current working directory).
"""

import datetime
import json
import os
import subprocess

import pytest

# The one shared nearest-rank implementation: the metrics plane's
# windowed histogram percentiles and the benchmark summaries must agree,
# and do so by construction because both call these.
from repro.metrics import latency_summary, percentile  # noqa: F401


def scale():
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def scaled(n):
    return max(int(n * scale()), 100)


@pytest.fixture(scope="session")
def bench_scale():
    return scale()


def git_sha():
    """Current commit SHA, or None outside a git checkout; suffixed
    ``-dirty`` when tracked files differ from that commit, so a record
    measured from an uncommitted tree does not point at code that
    produces other numbers."""
    def git(*args):
        return subprocess.run(
            ["git"] + list(args),
            capture_output=True, text=True, timeout=10,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        )

    try:
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = head.stdout.strip()
    if head.returncode != 0 or not sha:
        return None
    return sha + "-dirty" if status.stdout.strip() else sha


def write_bench_record(name, payload):
    """Persist one benchmark's results as ``BENCH_<name>.json``.

    ``payload`` is the benchmark-specific body (timings, config); the
    envelope adds the benchmark name, git SHA, UTC timestamp, and the
    active ``REPRO_BENCH_SCALE``.  Returns the path written.
    """
    out_dir = os.environ.get("REPRO_BENCH_OUT", os.getcwd())
    record = {
        "benchmark": name,
        "git_sha": git_sha(),
        "timestamp": datetime.datetime.now(
            datetime.timezone.utc
        ).isoformat(),
        "scale": scale(),
        "results": payload,
    }
    path = os.path.join(out_dir, "BENCH_{}.json".format(name))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print("\nbench record written to {}".format(path))
    return path


def print_header(title):
    line = "=" * max(len(title), 8)
    print("\n{}\n{}\n{}".format(line, title, line))


def print_rows(headers, rows, fmt=None):
    widths = [
        max(len(str(header)),
            max((len(str(row[index])) for row in rows), default=0))
        for index, header in enumerate(headers)
    ]
    def render(cells):
        return "  ".join(
            "{:>{}}".format(str(cell), widths[index])
            for index, cell in enumerate(cells)
        )
    print(render(headers))
    print("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        print(render(row))
