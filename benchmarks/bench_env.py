"""The ``env`` block every ``benchmarks/BENCH_*.json`` writer records.

It carries the fields perfbench records for its own runs (see
``perfbench/README.md``): cpu count, python, numpy, scipy, BLAS, the
BLAS/OpenMP thread pins, the git commit, and a sha256 of ``src/`` so a
number taken on an uncommitted tree still names the code it measured.
"""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_commit() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def _src_sha256() -> str:
    """sha256 over every ``.py`` file under ``src/``, walked as perfbench does."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = Path(base, name)
                digest.update(os.path.relpath(path, src).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    """The machine, libraries, thread pins and code a BENCH run used."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "git_commit": _git_commit(),
        "src_sha256": _src_sha256(),
    }
