"""Process set-up shared by the benchmark scripts: thread pinning, locating
the package under test, and run metadata.

Import this module before numpy: `pin_threads` only takes effect if the
BLAS library has not been loaded yet.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

# One caller, one BLAS thread: the workloads measure a single-threaded
# program, and a fixed value keeps runs comparable across hosts with
# different core counts.
THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


class SetupError(RuntimeError):
    """The checkout does not hold what the benchmark needs."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)


def import_eebnn(fresh: bool = False):
    """Import the package from this checkout's `src/`, never from elsewhere.

    With `fresh`, modules of the package imported before are dropped first,
    so the import runs the package's module-level code again.
    """
    pkg_init = SRC / "eebnn" / "__init__.py"
    if not pkg_init.is_file():
        raise SetupError(f"package source not found at {pkg_init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if fresh:
        for name in [m for m in sys.modules if m == "eebnn" or m.startswith("eebnn.")]:
            del sys.modules[name]
    import eebnn

    if Path(eebnn.__file__).resolve() != pkg_init.resolve():
        raise SetupError(f"imported eebnn from {eebnn.__file__}, expected {pkg_init}")
    return eebnn


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def source_digest() -> str:
    """SHA-256 over every file under src/eebnn, in path order."""
    h = hashlib.sha256()
    for p in sorted((SRC / "eebnn").rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    """HEAD of the checkout read from .git without starting a process."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_metadata(**extra) -> dict:
    import numpy as np

    return {
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": np.show_config(mode="dicts")["Build Dependencies"],
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
        **extra,
    }
