"""The byte gate: a fixed run list keeps the bytes of every output file.

`tests/output_hashes.py --gate` runs gae, vgae and dgae, each plain and with
rethink, and dgae with rethink at ablation fr_correction_delay:2, on a
generated N=1200 graph (a pair sweep of 4 strips) and prints
the sha256 of every checkpoint, edge list, `.deleted` sidecar and trace,
and of the report of `verify_theory(100, 0)`.
gaeclust pins numpy's OpenBLAS to one thread when it loads, but output
bytes still depend on the OpenBLAS core type and numpy's SIMD dispatch,
so the run list goes through one subprocess with both pinned, and with
the pair sweep on 2 workers on any host; a second run on 3 workers must
print the same table. The subprocess keeps the host's
OPENBLAS_NUM_THREADS, so the gate also checks the pin. Its lines must
equal the committed table. A change that moves output bytes regenerates
the table, and that is a behaviour change:

    OPENBLAS_CORETYPE=Haswell \\
    NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR" \\
    PYTHONPATH=src python3 tests/output_hashes.py --gate --workers 2 > tests/output_bytes.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gaeclust.pairs

ROOT = Path(__file__).resolve().parents[1]
PINNED = {"OPENBLAS_CORETYPE": "Haswell",
          "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


def missing_kernels() -> str | None:
    """What this host lacks of the pinned kernels, or None."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]
    if "X86_V3" not in simd["baseline"] + simd["found"]:
        return ("the CPU lacks X86_V3 (AVX2, FMA3), which numpy's pinned SIMD set "
                "and OpenBLAS's Haswell kernels need")
    if gaeclust.pairs.blas_core() is None:
        return "numpy's BLAS is no scipy-openblas whose core type OPENBLAS_CORETYPE pins"
    return None


def gate_lines(workers: int) -> list:
    """The lines `output_hashes.py --gate` prints under the pinned kernels,
    with the pair sweep on this many workers; skips where the kernels are missing."""
    reason = missing_kernels()
    if reason is not None:
        pytest.skip(reason)
    env = {**os.environ, **PINNED,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "output_hashes.py"), "--gate",
         "--workers", str(workers)],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout.splitlines()


def test_output_bytes_match_the_table():
    table = (ROOT / "tests" / "output_bytes.txt").read_text()
    assert gate_lines(2) == table.splitlines()


def test_three_sweep_workers_keep_the_table():
    # the table was made at 2 workers; the strips fold in order at any count
    table = (ROOT / "tests" / "output_bytes.txt").read_text()
    assert gate_lines(3) == table.splitlines()
