"""The environment block every benchmark result carries.

It records what the measured numbers depend on: CPU count, Python,
numpy and scipy versions, the BLAS numpy was built against, each
BLAS/OpenMP thread variable (``"unset"`` when unset: the benchmark
reads them and never sets them), and the git commit when the tree is a
git checkout.
"""

from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

#: Thread-count variables honoured by the BLAS/OpenMP builds numpy and
#: scipy can use.
THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _blas(module: Any) -> Dict[str, Optional[str]]:
    try:
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError, AttributeError):
        return {"name": None, "version": None}
    return {"name": deps.get("name"), "version": deps.get("version")}


def _git_commit(root: Path) -> Optional[str]:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return (done.stdout.strip() or None) if done.returncode == 0 else None


def environment(root: Path) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "thread_variables": {
            name: os.environ.get(name, "unset") for name in THREAD_VARIABLES
        },
        "git_commit": _git_commit(root),
    }
