"""Host calibration and provenance, so absolute numbers can be normalised
across machines and every record says where it came from."""

import os
import platform
import subprocess
import sys
import time

import numpy as np

MEMCPY_BYTES = 256 * 1024 * 1024
REFERENCE_ROWS = 4_000_000


def calibrate():
    """Memory bandwidth (256 MB numpy copy, best of 5) and one fixed numpy
    kernel (``np.unique`` + ``np.bincount`` over 4 M int64).  Allocates
    ~0.5 GB, so never call it in a process whose peak RSS is a metric."""
    source = np.ones(MEMCPY_BYTES // 8, dtype=np.float64)
    target = np.empty_like(source)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(target, source)
        best = min(best, time.perf_counter() - start)
    del source, target

    values = np.random.default_rng(0).integers(0, 1000, REFERENCE_ROWS)
    start = time.perf_counter()
    _, inverse = np.unique(values, return_inverse=True)
    np.bincount(inverse)
    kernel = time.perf_counter() - start
    return {
        "host.memcpy_gb_per_s": MEMCPY_BYTES / best / 1e9,
        "host.numpy_ref_ms": 1000.0 * kernel,
        "host.nproc": float(os.cpu_count() or 1),
    }


def git_sha(root):
    """The checkout's commit, or "unknown" outside a git repository (the
    driver's checkout is not one)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
            # never look for a repository above the checkout
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root):
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        "nproc": os.cpu_count() or 1,
    }
