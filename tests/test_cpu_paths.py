"""Outputs do not depend on the CPU's code path: the same bytes under
numpy's best SIMD dispatch and its baseline, and under two OpenBLAS kernel
sets, for one numpy version.

Each setting runs this file as a script in a child process (numpy and
OpenBLAS read their settings once, at load), which prints one SHA-256 over:
the golden quick-start files (``test_golden.run_quickstart``); the index and
similarity bytes of each cm, prof and hybrid set that ``retrieval._grid``
ranks over a k grid on the README quick-start world (seed 7, 4,000 rows,
400 queries); and the bytes of ``profile_zscore``'s base matrix and query
profiles there. The
golden files alone would not see a change in similarity bits, since the
ensembles read only which rows were retrieved.

The settings are numpy's enabled dispatch targets disabled with
``NPY_DISABLE_CPU_FEATURES`` and another ``OPENBLAS_CORETYPE``. A setting
that does not apply here (nothing above numpy's baseline, no OpenBLAS, a
build that ignores the core type) skips with its reason; the child reports
what it ran under, so a setting that did not take effect is never a pass.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GRID = (2, 5, 50, 200)
CLEARED = ("NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES", "OPENBLAS_CORETYPE")


def _umath():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath


def _openblas_corename() -> str | None:
    """The core name of the OpenBLAS loaded in this process, or None when
    no loaded library exports a ``get_corename`` (not OpenBLAS, or not Linux)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("openblas_get_corename", "openblas_get_corename64_",
                     "scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_char_p
                return fn().decode()
    return None


def fingerprint() -> dict:
    """The SHA-256 of this process's outputs, with the code path it ran on."""
    import numpy as np

    from radd import RetrievalStrategy, SynthConfig, build, generate
    from radd.retrieval import _grid
    from radd.store import profile_zscore
    from test_golden import OUTPUTS, run_quickstart

    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        run_quickstart(Path(tmp))
        for name in OUTPUTS:
            digest.update((Path(tmp) / name).read_bytes())
    entries, queries = generate(SynthConfig(seed=7, n_real=2000, n_seen_fake=2000,
                                            n_query_real=200, n_query_zeroday=200))
    base = build(entries)
    for strategy in RetrievalStrategy:
        for rows, sims, sizes in _grid(base, queries, strategy, GRID, 1, None):
            for i, size in enumerate(sizes):  # set i: the first sizes[i] entries of row i
                digest.update(rows[i, :size].astype(np.int64).tobytes())
                digest.update(sims[i, :size].astype(np.float64).tobytes())
    normalized, (profiled,) = profile_zscore(base, [queries])
    digest.update(np.ascontiguousarray(normalized.prof_matrix).tobytes())
    for q in profiled:
        digest.update(q.prof.tobytes())
    umath = _umath()
    return {
        "sha256": digest.hexdigest(),
        "dispatch": {name: bool(umath.__cpu_features__.get(name)) for name in umath.__cpu_dispatch__},
        "corename": _openblas_corename(),
    }


def run_child(**settings: str) -> dict:
    env = {key: value for key, value in os.environ.items() if key not in CLEARED}
    env.update(settings, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, __file__], cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def default() -> dict:
    return run_child()


def test_numpy_baseline_dispatch_gives_the_same_bytes(default):
    enabled = [name for name, on in default["dispatch"].items() if on]
    if not enabled:
        pytest.skip("numpy enables no dispatch target above its baseline on this CPU: nothing to lower")
    lowered = run_child(NPY_DISABLE_CPU_FEATURES=" ".join(enabled))
    assert not any(lowered["dispatch"].values()), lowered["dispatch"]
    assert lowered["sha256"] == default["sha256"]


def test_other_openblas_core_gives_the_same_bytes(default):
    if default["corename"] is None:
        pytest.skip("no loaded library reports an OpenBLAS core name: numpy's BLAS is not OpenBLAS, or not on Linux")
    other = {"x86_64": "Prescott", "amd64": "Prescott", "aarch64": "ARMV8"}.get(platform.machine().lower())
    if other is None:
        pytest.skip(f"no second OpenBLAS core type chosen for {platform.machine()}")
    if default["corename"].lower() == other.lower():
        other = "Nehalem" if other == "Prescott" else "NeoverseN1"
    switched = run_child(OPENBLAS_CORETYPE=other)
    if switched["corename"].lower() == default["corename"].lower():
        pytest.skip(f"OpenBLAS kept its {default['corename']} kernels under OPENBLAS_CORETYPE={other} "
                    "(a build without DYNAMIC_ARCH)")
    assert switched["sha256"] == default["sha256"], (default["corename"], switched["corename"])


if __name__ == "__main__":
    print(json.dumps(fingerprint()))
