"""Process set-up shared by the benchmark's entry points.

`boot()` pins every BLAS library to one thread before numpy is first
imported, and puts this checkout's own `src/` first on the import path, so
the program measured is always the one in the checkout and never an
installed copy. Child processes inherit the pinned thread settings through
the environment.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"   # generated datasets, checkpoints and raw run files


def boot() -> float:
    """Pin BLAS threads and import the checkout's msga; returns the import time in ms.

    Exits with code 2, printing nothing on stdout, when the checkout holds no
    program source.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "msga" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no program source at {SRC / 'msga'}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import msga
    import msga.train  # noqa: F401  (msga.train pulls in every module the benchmark drives)
    import_ms = (time.perf_counter() - t0) * 1000.0
    if Path(msga.__file__).resolve().parent != SRC / "msga":
        sys.stderr.write(f"perfbench: imported msga from {msga.__file__}, not from {SRC}\n")
        sys.exit(2)
    return import_ms
