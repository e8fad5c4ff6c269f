"""Small measurement helpers: percentiles, the simulation digest, the environment record."""
from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import subprocess
from fractions import Fraction
from pathlib import Path

# Candidate tail percentiles, lowest first.
_TAILS = ("50", "90", "99", "99.9", "99.99")


def tail_percentile(n: int) -> float | None:
    """Highest candidate percentile with at least ten of n samples beyond it.

    None when even the median has fewer than ten samples above it.
    """
    best = None
    for p in _TAILS:
        if n * (100 - Fraction(p)) >= 1000:
            best = float(p)
    return best


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile; 0.0 for an empty sample (no work done)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def digest(estimates: dict) -> str:
    """Order-independent hash of nested {name: {metric: float}} estimates.

    Floats enter through repr, so two digests match only when every
    estimate is bit-identical.
    """
    canon = json.dumps(estimates, sort_keys=True, default=repr)
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, if it can be asked."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git(root: Path, *args: str) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment(root: Path, package_file: str) -> dict:
    import numpy as np

    commit = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if commit else None
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(),
        "git_commit": commit,
        "git_dirty": None if status is None else bool(status),
        "package": f"star154 imported from {package_file} (src/ on sys.path, not pip-installed)",
    }
