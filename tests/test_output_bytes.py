"""The byte gate: a fixed run list keeps the bytes of every output file.

`tests/output_hashes.py --gate` runs gae, vgae and dgae, each plain and with
rethink, on a generated N=1200 graph (a pair sweep of 4 strips) and prints
the sha256 of every checkpoint, edge list, `.deleted` sidecar and trace.
gaeclust pins numpy's OpenBLAS to one thread when it loads, but output
bytes still depend on the OpenBLAS core type and numpy's SIMD dispatch,
so the run list goes through one subprocess with both pinned, and with
the pair sweep on 2 workers on any host. The subprocess keeps the host's
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


def test_output_bytes_match_the_table():
    reason = missing_kernels()
    if reason is not None:
        pytest.skip(reason)
    env = {**os.environ, **PINNED,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "output_hashes.py"), "--gate", "--workers", "2"],
        env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    table = (ROOT / "tests" / "output_bytes.txt").read_text()
    assert result.stdout.splitlines() == table.splitlines()
